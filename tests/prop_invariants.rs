//! Property-based end-to-end invariants on randomly generated graphs and
//! parameters, spanning every crate.

use proptest::prelude::*;
use ripples_core::mt::imm_multithreaded;
use ripples_core::seq::immopt_sequential;
use ripples_core::ImmParams;
use ripples_diffusion::rrr::{generate_rrr, RrrScratch};
use ripples_diffusion::{simulate_cascade, DiffusionModel};
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, WeightModel};
use ripples_rng::SplitMix64;

fn small_graph_strategy() -> impl Strategy<Value = (Graph, u64)> {
    (20u32..120, 1u64..1000, 0usize..4).prop_map(|(n, seed, density)| {
        let m = (n as usize) * (density + 1);
        (
            erdos_renyi(n, m, WeightModel::UniformRandom { seed }, false, seed),
            seed,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// IMM always returns k distinct, in-range seeds with sane coverage.
    #[test]
    fn imm_output_invariants((graph, seed) in small_graph_strategy(), k in 1u32..8) {
        let p = ImmParams::new(k, 0.5, DiffusionModel::IndependentCascade, seed);
        let r = immopt_sequential(&graph, &p);
        prop_assert_eq!(r.seeds.len() as u32, k.min(graph.num_vertices()));
        let mut sorted = r.seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), r.seeds.len(), "duplicate seeds");
        for &s in &r.seeds {
            prop_assert!(s < graph.num_vertices());
        }
        prop_assert!((0.0..=1.0).contains(&r.coverage_fraction));
        prop_assert_eq!(r.report.counters.theta_final, r.theta as u64);
        prop_assert!(r.report.counters.samples_generated >= r.theta as u64);
    }

    /// Multithreaded equals sequential for arbitrary inputs.
    #[test]
    fn mt_equals_seq((graph, seed) in small_graph_strategy(), k in 1u32..6) {
        let p = ImmParams::new(k, 0.5, DiffusionModel::IndependentCascade, seed);
        let a = immopt_sequential(&graph, &p);
        let b = imm_multithreaded(&graph, &p, 3);
        prop_assert_eq!(a.seeds, b.seeds);
        prop_assert_eq!(a.theta, b.theta);
    }

    /// Every RRR set contains its root, is sorted, deduplicated, and only
    /// holds vertices that can actually reach the root.
    #[test]
    fn rrr_structural_invariants((graph, seed) in small_graph_strategy(), root_pick in any::<u32>()) {
        let n = graph.num_vertices();
        prop_assume!(n > 0);
        let root = root_pick % n;
        let mut rng = SplitMix64::new(seed);
        let mut scratch = RrrScratch::new(n);
        for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
            let s = generate_rrr(&graph, model, root, &mut rng, &mut scratch);
            prop_assert!(s.vertices.binary_search(&root).is_ok(), "root missing");
            prop_assert!(s.vertices.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
            // Reachability check: every member must reach the root in the
            // *unsampled* graph (a superset of any sampled subgraph).
            let reverse_reachable = {
                use std::collections::VecDeque;
                let mut seen = vec![false; n as usize];
                let mut q = VecDeque::new();
                seen[root as usize] = true;
                q.push_back(root);
                while let Some(v) = q.pop_front() {
                    for u in graph.in_neighbors(v) {
                        if !seen[u as usize] {
                            seen[u as usize] = true;
                            q.push_back(u);
                        }
                    }
                }
                seen
            };
            for &v in &s.vertices {
                prop_assert!(reverse_reachable[v as usize], "{v} cannot reach root {root}");
            }
        }
    }

    /// Forward cascades only activate vertices reachable from the seeds,
    /// and always include the seeds.
    #[test]
    fn cascade_respects_reachability((graph, seed) in small_graph_strategy(), s1 in any::<u32>(), s2 in any::<u32>()) {
        let n = graph.num_vertices();
        prop_assume!(n > 0);
        let seeds = [s1 % n, s2 % n];
        let mut rng = SplitMix64::new(seed ^ 0xCA5CADE);
        for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
            let out = simulate_cascade(&graph, model, &seeds, &mut rng);
            for &s in &seeds {
                prop_assert!(out.activated.contains(&s));
            }
            // Activated set must be within forward reachability of seeds.
            let reachable = {
                use std::collections::VecDeque;
                let mut seen = vec![false; n as usize];
                let mut q = VecDeque::new();
                for &s in &seeds {
                    if !seen[s as usize] {
                        seen[s as usize] = true;
                        q.push_back(s);
                    }
                }
                while let Some(v) = q.pop_front() {
                    for &u in graph.out_neighbors(v) {
                        if !seen[u as usize] {
                            seen[u as usize] = true;
                            q.push_back(u);
                        }
                    }
                }
                seen
            };
            for &v in &out.activated {
                prop_assert!(reachable[v as usize]);
            }
            // No duplicates in activation order.
            let mut sorted = out.activated.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), out.activated.len());
        }
    }

    /// Adding seeds never decreases coverage-estimated influence
    /// (monotonicity of the coverage estimator in the seed set).
    #[test]
    fn greedy_gains_are_nonincreasing((graph, seed) in small_graph_strategy()) {
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, seed);
        let r = immopt_sequential(&graph, &p);
        // Submodularity: marginal gains of greedy picks never increase.
        let gains = {
            let sel = ripples_core::select::select_seeds_sequential(
                &{
                    // Rebuild the final collection deterministically.
                    let factory = ripples_rng::StreamFactory::new(seed);
                    let mut c = ripples_diffusion::RrrCollection::new();
                    ripples_diffusion::sample_batch_sequential(
                        &graph,
                        DiffusionModel::IndependentCascade,
                        &factory,
                        0,
                        r.theta,
                        &mut c,
                    );
                    c
                },
                graph.num_vertices(),
                5,
            );
            sel.marginal_gains
        };
        for w in gains.windows(2) {
            prop_assert!(w[1] <= w[0], "marginal gains increased: {gains:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Degenerate selection inputs: θ = 0, all-empty RRR sets, k ≥ n. Every
// engine must handle them and agree with the sequential reference, and the
// fused-engine cost model must be total (defined for every input).
// ---------------------------------------------------------------------------

use ripples_core::select::{select_seeds_sequential, select_with_engine};
use ripples_core::{fused_is_profitable, SelectEngine};
use ripples_diffusion::RrrCollection;

const ENGINES: [SelectEngine; 4] = [
    SelectEngine::Auto,
    SelectEngine::Sequential,
    SelectEngine::Partitioned,
    SelectEngine::Fused,
];

/// Collections biased toward the degenerate corners: empty collections,
/// empty member sets, and tiny vertex spaces so `k ≥ n` is common.
fn degenerate_collection_strategy() -> impl Strategy<Value = (RrrCollection, u32)> {
    (
        1u32..10,
        proptest::collection::vec(proptest::collection::btree_set(0u32..10, 0..5), 0..8),
    )
        .prop_map(|(n, sets)| {
            let mut c = RrrCollection::new();
            for s in sets {
                let members: Vec<u32> = s.into_iter().filter(|&v| v < n).collect();
                c.push(&members);
            }
            (c, n)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All engines agree with the sequential reference on degenerate
    /// collections for any k, including k far beyond n.
    #[test]
    fn degenerate_collections_all_engines_agree(
        (collection, n) in degenerate_collection_strategy(),
        k in 0u32..20,
        partitions in 1usize..5,
    ) {
        // The cost model is total: any collection, any k, no panic.
        let _ = fused_is_profitable(&collection, k);
        let reference = select_seeds_sequential(&collection, n, k);
        prop_assert!(reference.seeds.len() as u32 <= n.min(k));
        for engine in ENGINES {
            let (sel, _) = select_with_engine(engine, &collection, n, k, partitions);
            prop_assert_eq!(
                &sel, &reference,
                "{} disagrees with sequential on θ={} n={} k={}",
                engine.tag(), collection.len(), n, k
            );
        }
    }
}

#[test]
fn theta_zero_collection_selects_zero_gain_seeds() {
    let empty = RrrCollection::new();
    assert!(!fused_is_profitable(&empty, 3));
    for engine in ENGINES {
        let (sel, _) = select_with_engine(engine, &empty, 5, 3, 2);
        assert_eq!(sel.seeds, vec![0, 1, 2], "{}", engine.tag());
        assert_eq!(sel.marginal_gains, vec![0, 0, 0], "{}", engine.tag());
        assert_eq!(sel.covered, 0);
        assert_eq!(sel.fraction, 0.0);
    }
}

#[test]
fn all_empty_rrr_sets_cover_nothing() {
    let mut c = RrrCollection::new();
    for _ in 0..6 {
        c.push(&[]);
    }
    let _ = fused_is_profitable(&c, 4);
    let reference = select_seeds_sequential(&c, 4, 2);
    assert_eq!(reference.covered, 0);
    assert_eq!(reference.fraction, 0.0);
    for engine in ENGINES {
        let (sel, _) = select_with_engine(engine, &c, 4, 2, 3);
        assert_eq!(sel, reference, "{}", engine.tag());
    }
}

#[test]
fn k_at_least_n_selects_every_vertex() {
    let mut c = RrrCollection::new();
    c.push(&[1, 2]);
    c.push(&[2]);
    for k in [3u32, 4, 50] {
        let reference = select_seeds_sequential(&c, 3, k);
        assert_eq!(reference.seeds.len(), 3, "k={k} must clamp to n");
        let mut sorted = reference.seeds.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        assert_eq!(reference.covered, 2);
        for engine in ENGINES {
            let (sel, _) = select_with_engine(engine, &c, 3, k, 2);
            assert_eq!(sel, reference, "{} at k={k}", engine.tag());
        }
    }
}
