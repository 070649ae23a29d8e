//! Ablation 6: delta-varint compressed RRR storage versus the plain compact
//! arena — memory vs selection-time trade (extends §3.1's storage
//! discussion; DESIGN.md §6).

use criterion::{criterion_group, criterion_main, Criterion};
use ripples_core::select::select_seeds_sequential;
use ripples_diffusion::{
    sample_batch_sequential, DiffusionModel, RrrCollection, RrrStore, SpillRrrStore,
};
use ripples_graph::generators::standin;
use ripples_graph::WeightModel;
use ripples_rng::StreamFactory;

/// `plain` re-encoded into the delta-varint store, all of it resident.
fn compress(plain: &RrrCollection) -> SpillRrrStore {
    let mut store = SpillRrrStore::new(SpillRrrStore::DEFAULT_BUDGET);
    for set in plain.iter() {
        store.push(set);
    }
    store
}

fn bench_compression(c: &mut Criterion) {
    let spec = standin("cit-HepTh").unwrap();
    let graph = spec.build(32, WeightModel::UniformRandom { seed: 8 }, false);
    let factory = StreamFactory::new(21);
    let mut plain = RrrCollection::new();
    sample_batch_sequential(
        &graph,
        DiffusionModel::IndependentCascade,
        &factory,
        0,
        3_000,
        &mut plain,
    );
    let compressed = compress(&plain);
    let n = graph.num_vertices();
    eprintln!(
        "storage: plain {} bytes, compressed {} bytes ({:.2}x smaller)",
        plain.resident_bytes(),
        compressed.resident_bytes(),
        plain.resident_bytes() as f64 / compressed.resident_bytes() as f64
    );

    let mut group = c.benchmark_group("rrr_compression");
    group.sample_size(10);
    group.bench_function("encode", |b| {
        b.iter(|| compress(&plain));
    });
    group.bench_function("select_plain", |b| {
        b.iter(|| select_seeds_sequential(&plain, n, 20));
    });
    group.bench_function("select_compressed", |b| {
        b.iter(|| select_seeds_sequential(&compressed, n, 20));
    });
    group.finish();
}

criterion_group!(benches, bench_compression);
criterion_main!(benches);
