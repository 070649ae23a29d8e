//! The streamed block scheduler against one thread pushing in order:
//! whatever the thread count, the batch size next to the block size, the
//! store and where the batch starts, the store ends up holding bitwise the
//! samples the sequential path writes.

use ripples_diffusion::{
    sample_batch, sample_batch_fused, sample_batch_sequential, BatchOutcome, DiffusionModel,
    DynRrrStore, RrrCollection, RrrStore, RrrStoreKind, StorageConfig,
};
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, WeightModel};
use ripples_rng::StreamFactory;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Empty, one sample, one short of a 64-sample block, one block, one over,
/// and many blocks at every thread count above.
const COUNTS: [usize; 6] = [0, 1, 63, 64, 65, 1500];

/// Batch starts that are no multiple of 64, so the first and last fused
/// lane blocks overhang the batch.
const FIRSTS: [u64; 2] = [37, 4133];

/// A store as the samplers fill it, behind one type.
enum Filled {
    Lists(RrrCollection),
    Dyn(Box<DynRrrStore>),
}

/// Fresh: the list collection, the flat store, and the spill-kind store
/// under its default budget and under a tiny one.
fn empty_stores(n: u32) -> [(&'static str, Filled); 4] {
    let spill = |budget| StorageConfig {
        kind: RrrStoreKind::Spill,
        budget,
    };
    [
        ("lists", Filled::Lists(RrrCollection::new())),
        (
            "flat",
            Filled::Dyn(Box::new(DynRrrStore::new(StorageConfig::default(), n))),
        ),
        (
            "spill",
            Filled::Dyn(Box::new(DynRrrStore::new(spill(None), n))),
        ),
        (
            "spill@4096",
            Filled::Dyn(Box::new(DynRrrStore::new(spill(Some(4096)), n))),
        ),
    ]
}

fn decoded<S: RrrStore>(store: &S) -> Vec<Vec<u32>> {
    (0..store.len())
        .map(|i| {
            let mut out = Vec::new();
            store.decode_into(i, &mut out);
            out
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Kernel {
    Reference,
    Fused,
}

impl Kernel {
    fn run<S: RrrStore>(
        self,
        g: &Graph,
        f: &StreamFactory,
        first: u64,
        count: usize,
        out: &mut S,
    ) -> BatchOutcome {
        let model = DiffusionModel::IndependentCascade;
        match self {
            Kernel::Reference => sample_batch(g, model, f, first, count, out),
            Kernel::Fused => sample_batch_fused(g, model, f, first, count, out),
        }
    }

    /// What one thread writes: the sequential sampler for the reference
    /// kernel, the fused kernel at one thread for itself (its RNG schedule
    /// is its own).
    fn one_thread(
        self,
        g: &Graph,
        f: &StreamFactory,
        first: u64,
        count: usize,
    ) -> (RrrCollection, BatchOutcome) {
        let mut c = RrrCollection::new();
        let outcome = match self {
            Kernel::Reference => {
                let model = DiffusionModel::IndependentCascade;
                sample_batch_sequential(g, model, f, first..first + count as u64, &mut c)
            }
            Kernel::Fused => pool(1).install(|| self.run(g, f, first, count, &mut c)),
        };
        (c, outcome)
    }
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

#[test]
fn streamed_batches_equal_one_thread_pushing_in_order() {
    // Sparse cascades the flat store keeps as lists; graph-spanning ones it
    // keeps as bitmaps or complements.
    let sparse = erdos_renyi(2000, 8000, WeightModel::Constant(0.05), false, 5);
    let dense = erdos_renyi(200, 2400, WeightModel::Constant(0.5), false, 9);
    let f = StreamFactory::new(2024);
    for (graph, g) in [("sparse", &sparse), ("dense", &dense)] {
        for kernel in [Kernel::Reference, Kernel::Fused] {
            for first in FIRSTS {
                for count in COUNTS {
                    let (expect, expect_outcome) = kernel.one_thread(g, &f, first, count);
                    let expect = decoded(&expect);
                    for threads in THREADS {
                        for (store, mut filled) in empty_stores(g.num_vertices()) {
                            let case = format!(
                                "{graph} {kernel:?} into {store}, samples {first}..+{count}, \
                                 {threads} threads"
                            );
                            let outcome = pool(threads).install(|| match &mut filled {
                                Filled::Lists(c) => kernel.run(g, &f, first, count, c),
                                Filled::Dyn(c) => kernel.run(g, &f, first, count, c.as_mut()),
                            });
                            let held = match &filled {
                                Filled::Lists(c) => decoded(c),
                                Filled::Dyn(c) => decoded(c.as_ref()),
                            };
                            assert_eq!(held, expect, "{case}");
                            assert_eq!(
                                outcome.edges_examined, expect_outcome.edges_examined,
                                "{case}"
                            );
                            assert_eq!(outcome.fused_passes, expect_outcome.fused_passes, "{case}");
                            let per_worker: u64 = outcome.per_worker_samples.iter().sum();
                            assert_eq!(per_worker, count as u64, "{case}");
                            if let (Filled::Dyn(flat), "flat", 64..) = (&filled, store, count) {
                                let dense =
                                    flat.as_mixed().expect("flat kind").form_counts().sets();
                                assert_eq!(dense > 0, graph == "dense", "{case}");
                            }
                        }
                    }
                }
            }
        }
    }
}
