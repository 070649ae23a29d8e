//! Property-based tests for the core algorithm components.

use proptest::prelude::*;
use ripples_core::mt::imm_multithreaded_with_storage;
use ripples_core::select::{
    select_from_index, select_seeds_sequential, select_with_engine, Selection,
};
use ripples_core::seq::{immopt_sequential_with_storage, index_only_run_with_threshold};
use ripples_core::theta::{log_binomial, ThetaSchedule};
use ripples_core::{
    build_resident_sketch, select_with_engine_banned, ImmParams, ImmResult, SampleEngine,
    SelectEngine,
};
use ripples_diffusion::{
    DiffusionModel, DynRrrStore, MixedRrrCollection, RrrCollection, RrrStore, RrrStoreKind,
    SampleIndex, StorageConfig,
};
use ripples_graph::generators::barabasi_albert;
use ripples_graph::WeightModel;

const ENGINES: [SelectEngine; 4] = [
    SelectEngine::Auto,
    SelectEngine::Sequential,
    SelectEngine::Partitioned,
    SelectEngine::Fused,
];

/// Random RRR collections over a small vertex universe.
fn collection_strategy() -> impl Strategy<Value = (u32, RrrCollection)> {
    (4u32..40).prop_flat_map(|n| {
        let set = prop::collection::btree_set(0..n, 0..8);
        let sets = prop::collection::vec(set, 0..60);
        (Just(n), sets).prop_map(|(n, sets)| {
            let mut c = RrrCollection::new();
            for s in sets {
                let v: Vec<u32> = s.into_iter().collect();
                c.push(&v);
            }
            (n, c)
        })
    })
}

/// Collections over several bitmap words that mix sets below the flat
/// store's density rule (kept as lists) with sets far above it (kept as
/// bitmaps, or as complements when they leave out fewer than n/32
/// vertices).
fn mixed_density_strategy() -> impl Strategy<Value = (u32, RrrCollection)> {
    (65u32..400).prop_flat_map(|n| {
        let sparse = prop::collection::btree_set(0..n, 0..(n / 32) as usize + 1);
        let dense = prop::collection::btree_set(0..n, (n / 4) as usize..n as usize);
        let sets = prop::collection::vec((sparse, dense, any::<bool>()), 1..24);
        (Just(n), sets).prop_map(|(n, sets)| {
            let mut c = RrrCollection::new();
            for (sparse, dense, pick_dense) in sets {
                let set = if pick_dense { dense } else { sparse };
                c.push(&set.into_iter().collect::<Vec<u32>>());
            }
            (n, c)
        })
    })
}

/// Collections over several bitmap words of sets that each leave out fewer
/// than n/32 vertices: all held as complements in the flat store.
fn complement_strategy() -> impl Strategy<Value = (u32, RrrCollection)> {
    (65u32..400).prop_flat_map(|n| {
        let missing = prop::collection::btree_set(0..n, 0..((n - 1) / 32 + 1) as usize);
        (Just(n), prop::collection::vec(missing, 1..24)).prop_map(|(n, sets)| {
            let mut c = RrrCollection::new();
            for missing in sets {
                c.push(
                    &(0..n)
                        .filter(|v| !missing.contains(v))
                        .collect::<Vec<u32>>(),
                );
            }
            (n, c)
        })
    })
}

/// Universes on both sides of the interval owners' 64-vertex alignment:
/// only one past 64 vertices splits into more than one owner.
const ALIGNED_UNIVERSES: [u32; 6] = [1, 63, 64, 65, 130, 300];

/// Collections over one of [`ALIGNED_UNIVERSES`] whose sets run from empty
/// to every vertex, so that a mixed collection holds lists, bitmaps and
/// complements.
fn aligned_strategy() -> impl Strategy<Value = (u32, RrrCollection)> {
    let universe = 0..ALIGNED_UNIVERSES.len();
    let sets = prop::collection::vec((0u64..65, any::<u64>()), 0..30);
    (universe, sets).prop_map(|(universe, sets)| {
        let n = ALIGNED_UNIVERSES[universe];
        let c = sets
            .into_iter()
            .map(|(density, seed)| {
                let kept = |v: &u32| {
                    let h = (u64::from(*v) ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (h >> 58) < density
                };
                (0..n).filter(kept).collect()
            })
            .collect();
        (n, c)
    })
}

/// Collections for the index property: the whole vertex set first (a
/// complement of no ids in the flat store), then up to a few hundred sparse
/// sets — past 127 samples a gap can take two bytes.
fn index_collection_strategy() -> impl Strategy<Value = (u32, RrrCollection)> {
    (4u32..48).prop_flat_map(|n| {
        let sets = prop::collection::vec(prop::collection::btree_set(0..n, 0..9), 0..420);
        (Just(n), sets).prop_map(|(n, sets)| {
            let mut c = RrrCollection::new();
            c.push(&(0..n).collect::<Vec<u32>>());
            for s in sets {
                c.push(&s.into_iter().collect::<Vec<u32>>());
            }
            (n, c)
        })
    })
}

/// Checks `index`, which has absorbed the first `cut` samples of `c`,
/// against the definition, and its size against what the fold rule allows.
fn assert_index_matches_brute_force(
    index: &SampleIndex,
    n: u32,
    c: &RrrCollection,
    cut: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(index.absorbed_samples(), cut);
    for v in 0..n {
        let expect: Vec<usize> = (0..cut)
            .filter(|&j| c.get(j).binary_search(&v).is_ok())
            .collect();
        let mut row = Vec::new();
        index.for_each_sample(v, |j| row.push(j));
        prop_assert_eq!(&row, &expect, "row of {} after {} samples", v, cut);
        prop_assert_eq!(index.degree(v) as usize, expect.len(), "degree of {}", v);
    }
    // No gap code exceeds the id it stands for. Every segment but the last
    // holds at least a table's worth of rows; 512 covers the segment
    // headers of six absorbs.
    let rows: usize = (0..cut)
        .map(|j| c.get(j).len() * if j < 128 { 1 } else { 2 })
        .sum();
    let (table, degrees) = (4 * (n as usize + 1), 4 * n as usize);
    prop_assert!(
        index.resident_bytes() <= 2 * rows + table + degrees + 512,
        "{} bytes over {} row bytes",
        index.resident_bytes(),
        rows
    );
    Ok(())
}

/// The ban masks every selection property runs: none, the one `ban_bits`
/// spells, and every vertex.
fn ban_masks(n: u32, ban_bits: u64) -> [Vec<bool>; 3] {
    let random: Vec<bool> = (0..n).map(|v| ban_bits >> (v % 64) & 1 == 1).collect();
    [vec![false; n as usize], random, vec![true; n as usize]]
}

/// What the sequential reference selects on `c` with the `banned` vertices
/// deleted — from every set and from the vertex universe, the survivors
/// renumbered in order — with the seeds numbered back.
fn reference_selection(n: u32, c: &RrrCollection, k: u32, banned: &[bool]) -> Selection {
    let kept: Vec<u32> = (0..n).filter(|&v| !banned[v as usize]).collect();
    let renumbered: RrrCollection = c
        .iter()
        .map(|s| {
            s.iter()
                .filter_map(|v| kept.binary_search(v).ok().map(|i| i as u32))
                .collect()
        })
        .collect();
    let mut reference = select_seeds_sequential(&renumbered, kept.len() as u32, k);
    for seed in &mut reference.seeds {
        *seed = kept[*seed as usize];
    }
    reference
}

/// The one selection property: over every store kind, every engine, at any
/// owner count and from any ban mask, returns the `Selection` of
/// [`reference_selection`]. An index-free pass reports the entries of the
/// samples the seeds covered; a pass over the index, the row entries it
/// recounted, at least one row per seed.
fn assert_every_route_agrees(
    n: u32,
    c: &RrrCollection,
    k: u32,
    ban_bits: u64,
) -> Result<(), TestCaseError> {
    for banned in ban_masks(n, ban_bits) {
        let reference = reference_selection(n, c, k, &banned);
        let touched: u64 = (0..c.len())
            .filter(|&j| reference.seeds.iter().any(|s| c.get(j).contains(s)))
            .map(|j| c.get(j).len() as u64)
            .sum();
        let rows = reference
            .seeds
            .iter()
            .map(|s| c.iter().filter(|set| set.contains(s)).count() as u64)
            .sum::<u64>();
        // Flat, and the spill kind under its default budget and a tiny one.
        for (kind, budget) in [
            (RrrStoreKind::Flat, None),
            (RrrStoreKind::Spill, None),
            (RrrStoreKind::Spill, Some(2048)),
        ] {
            let mut store = DynRrrStore::new(StorageConfig { kind, budget }, n);
            for s in c.iter() {
                store.push(s);
            }
            for engine in ENGINES {
                for owners in [1usize, 2, 3, 64] {
                    let (sel, stats) =
                        select_with_engine_banned(engine, &store, n, k, owners, banned.clone());
                    prop_assert_eq!(
                        &sel,
                        &reference,
                        "{:?}/{:?} store, engine {:?}, {} owners diverged",
                        kind,
                        budget,
                        engine,
                        owners
                    );
                    let case = format!("{kind:?}/{budget:?} store, {engine:?}, {owners} owners");
                    if stats.index_bytes == 0 {
                        prop_assert_eq!(stats.entries_touched, touched, "{}", case);
                    } else {
                        prop_assert!(stats.entries_touched >= rows, "{}", case);
                    }
                    match engine {
                        SelectEngine::Fused => prop_assert!(stats.index_bytes > 0),
                        SelectEngine::Auto => {}
                        _ => prop_assert_eq!(stats.index_bytes, 0, "{:?} indexed", engine),
                    }
                }
            }
        }
    }
    Ok(())
}

/// `mt` (two threads) and `opt` over `storage`, in that order.
fn index_only_runs(
    graph: &ripples_graph::Graph,
    params: &ImmParams,
    storage: StorageConfig,
) -> [ImmResult; 2] {
    let (select, sample) = (SelectEngine::Auto, SampleEngine::Reference);
    [
        imm_multithreaded_with_storage(graph, params, 2, select, sample, storage),
        immopt_sequential_with_storage(graph, params, select, sample, storage),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A spill store's `--rrr-budget` bounds the stage a run that selects
    /// from the index alone samples into and the index's resident segments,
    /// and moves no seed: `mt` and `opt` at 4 KiB, at 64 KiB and with no
    /// budget return the seeds and θ of the flat store, under IC and LT.
    /// Their peaks stay within the budget plus one segment (a table, and
    /// rows from at most a stage of half the budget's bytes), plus what no
    /// budget moves: the index's degrees, and the first samples the store
    /// keeps before it releases them.
    #[test]
    fn a_budget_bounds_the_stage_and_the_index_and_moves_no_seed(
        n in 300u32..1500,
        graph_seed in any::<u64>(),
        lt in any::<bool>(),
    ) {
        let graph = barabasi_albert(n, 4, WeightModel::WeightedCascade, false, graph_seed);
        let model = if lt {
            DiffusionModel::LinearThreshold
        } else {
            DiffusionModel::IndependentCascade
        };
        let params = ImmParams::new(5, 0.3, model, 7);
        let flat = index_only_runs(&graph, &params, StorageConfig::default());
        for budget in [Some(4096usize), Some(65536), None] {
            let spill = StorageConfig { kind: RrrStoreKind::Spill, budget };
            for (run, flat) in index_only_runs(&graph, &params, spill).iter().zip(&flat) {
                let case = format!("{} under {budget:?}", run.report.engine);
                prop_assert_eq!(&run.seeds, &flat.seeds, "{}", case);
                prop_assert_eq!(run.theta, flat.theta, "{}", case);
                let c = &run.report.counters;
                prop_assert!(c.index_bytes_peak > 0, "{} selected from the index", case);
                prop_assert_eq!(c.spill_write_failures, 0);
                let Some(budget) = budget else {
                    prop_assert_eq!(c.spill_bytes_written, 0, "{}", case);
                    continue;
                };
                prop_assert!(c.spill_bytes_written > 0, "{}", case);
                let table = 4 * (u64::from(n) + 1);
                let segment = table + budget as u64 / 2;
                let first_round = 8 * c.round_budgets[0] + (budget as u64 / 4).max(1024);
                let fixed = 4 * u64::from(n) + first_round;
                prop_assert!(
                    c.rrr_bytes_peak + c.index_bytes_peak <= budget as u64 + segment + fixed,
                    "{}: {} stage and {} index bytes",
                    case,
                    c.rrr_bytes_peak,
                    c.index_bytes_peak
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An index-only run whose τ is the pass's `k`-th gain itself — far
    /// more aggressive than the rule's margin, so later passes pop cold
    /// vertices and rebuild the index from the samples drawn again — selects
    /// what a kept store's full index selects: the same seeds, θ, sampling
    /// work and selection counters, under IC and LT, sequential and `mt`.
    #[test]
    fn an_aggressive_margin_selects_what_the_full_index_selects(
        n in 150u32..600,
        graph_seed in any::<u64>(),
        lt in any::<bool>(),
        k in 1u32..10,
        epsilon in 0.3f64..0.7,
        parallel in any::<bool>(),
    ) {
        let graph = barabasi_albert(n, 3, WeightModel::WeightedCascade, false, graph_seed);
        let model = if lt {
            DiffusionModel::LinearThreshold
        } else {
            DiffusionModel::IndependentCascade
        };
        let params = ImmParams::new(k, epsilon, model, 11);
        let storage = StorageConfig::default();
        let kept = build_resident_sketch(
            &graph,
            &params,
            SelectEngine::Fused,
            SampleEngine::Reference,
            storage,
        )
        .result;
        let hot = index_only_run_with_threshold(&graph, &params, storage, parallel, |g_k| g_k);
        prop_assert_eq!(&hot.seeds, &kept.seeds);
        prop_assert_eq!(hot.theta, kept.theta);
        let (h, c) = (&hot.report.counters, &kept.report.counters);
        prop_assert_eq!(h.edges_examined, c.edges_examined);
        prop_assert_eq!(h.select_entries_touched, c.select_entries_touched);
        prop_assert_eq!(h.select_iterations, c.select_iterations);
        prop_assert!(h.index_hot_rows <= u64::from(n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// [`assert_every_route_agrees`] where the flat store holds some sets
    /// as bitmaps or complements, over several bitmap words.
    #[test]
    fn mixed_store_selects_like_the_expanded_lists(
        (n, c) in mixed_density_strategy(),
        k in 1u32..8,
        ban_bits in any::<u64>(),
    ) {
        let mut store = DynRrrStore::new(StorageConfig::default(), n);
        for s in c.iter() {
            store.push(s);
        }
        let n64 = u64::from(n);
        let lens = || c.iter().map(|s| s.len() as u64);
        let complements = lens().filter(|&len| 32 * (n64 - len) < n64).count() as u64;
        let bitmaps = lens().filter(|&len| 32 * len > n64).count() as u64 - complements;
        let forms = store.as_mixed().map(|m| (m.bitmap_sets(), m.complement_sets()));
        prop_assert_eq!(forms, Some((bitmaps, complements)));
        prop_assert_eq!(store.as_flat().is_some(), bitmaps + complements == 0);
        assert_every_route_agrees(n, &c, k, ban_bits)?;
    }

    /// [`assert_every_route_agrees`] on a flat store of complements alone:
    /// Sequential, Partitioned, Fused and Auto select on it what the
    /// reference selects on the same sets as plain lists.
    #[test]
    fn complement_store_selects_like_the_expanded_lists(
        (n, c) in complement_strategy(),
        k in 1u32..8,
        ban_bits in any::<u64>(),
    ) {
        let mut store = DynRrrStore::new(StorageConfig::default(), n);
        for s in c.iter() {
            store.push(s);
        }
        let forms = store.as_mixed().map(|m| (m.bitmap_sets(), m.complement_sets()));
        prop_assert_eq!(forms, Some((0, c.len() as u64)));
        assert_every_route_agrees(n, &c, k, ban_bits)?;
    }

    /// The index-free body selects the reference's `Selection` at one to
    /// four interval owners, over a list collection and over the same sets
    /// in a mixed collection, whatever the bans.
    #[test]
    fn index_free_selection_is_the_reference_at_any_owner_count(
        (n, c) in aligned_strategy(),
        k in 1u32..8,
        ban_bits in any::<u64>(),
    ) {
        let mixed = MixedRrrCollection::from_lists(n, c.clone());
        for banned in ban_masks(n, ban_bits) {
            let reference = reference_selection(n, &c, k, &banned);
            for owners in 1..=4 {
                let engine = SelectEngine::Partitioned;
                let lists = select_with_engine_banned(engine, &c, n, k, owners, banned.clone());
                prop_assert_eq!(&lists.0, &reference, "lists, {} owners", owners);
                let sets = select_with_engine_banned(engine, &mixed, n, k, owners, banned.clone());
                prop_assert_eq!(&sets.0, &reference, "mixed, {} owners", owners);
                prop_assert_eq!(lists.1, sets.1, "{} owners", owners);
            }
        }
    }

    /// [`assert_every_route_agrees`] on small sparse collections, where
    /// ties and exhausted vertex sets are common.
    #[test]
    fn storage_backends_select_identically(
        (n, c) in collection_strategy(),
        k in 1u32..10,
        ban_bits in any::<u64>(),
    ) {
        assert_every_route_agrees(n, &c, k, ban_bits)?;
    }

    /// The lazy recount over the index alone is the sequential reference —
    /// seeds, marginal gains, coverage — whatever the ties, bans and `k`
    /// (up to past `n`), and however the index was grown: segments cut by a
    /// lowered byte cap, from chunks absorbed at their global id offsets,
    /// each chunk starting up to a few samples before what the index holds.
    #[test]
    fn lazy_recount_over_the_index_is_the_reference(
        (n, c) in collection_strategy(),
        k_past_n in 0u32..48,
        ban_bits in any::<u64>(),
        cuts in prop::collection::vec((any::<u64>(), 0usize..4), 0..6),
        cap_factor in 1u32..4,
        owners in 1usize..4,
    ) {
        let k = 1 + k_past_n % (n + 4);
        let mut index = SampleIndex::with_segment_cap(n, n * cap_factor);
        let mut ends: Vec<usize> = cuts.iter().map(|&(cut, _)| (cut % (c.len() as u64 + 1)) as usize).collect();
        ends.sort_unstable();
        ends.push(c.len());
        for (&end, &(_, back)) in ends.iter().zip(cuts.iter().chain([&(0, 0)])) {
            let base = index.absorbed_samples().saturating_sub(back);
            let chunk: RrrCollection = (base..end.max(base)).map(|j| c.get(j).to_vec()).collect();
            index.absorb_at(&chunk, base, owners);
        }
        prop_assert_eq!(index.absorbed_samples(), c.len());
        for banned in ban_masks(n, ban_bits) {
            let (selection, stats) = select_from_index(&index, k, &banned);
            prop_assert_eq!(&selection, &reference_selection(n, &c, k, &banned));
            let rows: u64 = selection.seeds.iter().map(|&s| u64::from(index.degree(s))).sum();
            prop_assert!(stats.entries_touched >= rows);
        }
    }

    /// Over a plain list collection every engine agrees at any owner count,
    /// and the index it builds does not depend on that count.
    #[test]
    fn selection_engines_equivalent((n, c) in collection_strategy(), k in 1u32..10) {
        let seq = select_seeds_sequential(&c, n, k);
        let index_bytes = select_with_engine(SelectEngine::Fused, &c, n, k, 1).1.index_bytes;
        for engine in ENGINES {
            for p in [1usize, 2, 3, 5, 7, 64] {
                let (sel, stats) = select_with_engine(engine, &c, n, k, p);
                prop_assert_eq!(&sel, &seq, "{:?}({}) diverged", engine, p);
                prop_assert!(
                    stats.index_bytes == 0 || stats.index_bytes == index_bytes,
                    "index size must not depend on the partition count"
                );
            }
        }
    }

    /// Greedy bookkeeping invariants: distinct seeds, non-increasing
    /// marginal gains, coverage consistent with gains.
    #[test]
    fn selection_invariants((n, c) in collection_strategy(), k in 1u32..10) {
        let sel = select_seeds_sequential(&c, n, k);
        let mut sorted = sel.seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), sel.seeds.len(), "duplicate seeds");
        for w in sel.marginal_gains.windows(2) {
            prop_assert!(w[1] <= w[0], "gains must be non-increasing (submodularity)");
        }
        let gain_total: u64 = sel.marginal_gains.iter().sum();
        prop_assert_eq!(gain_total as usize, sel.covered, "gains must sum to coverage");
        prop_assert!(sel.covered <= c.len());
    }

    /// The vertex → samples direction of the paper's "hypergraph": however
    /// the samples reach whichever store, and however many `absorb` calls
    /// read them (an empty one, ones small enough to be folded into the
    /// next, the ones a store makes as each batch ends), a row holds exactly the samples containing the vertex,
    /// ascending, the degree is the row's length, and the index stays
    /// within twice its rows plus one table and the degrees.
    #[test]
    fn hypergraph_index_consistent(
        (n, c) in index_collection_strategy(),
        cuts in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|cut| (cut % (c.len() as u64 + 1)) as usize).collect();
        cuts.sort_unstable();
        cuts.push(c.len());
        // Plain lists, an index of the test's own, a different owner count
        // each round.
        let (mut lists, mut index) = (RrrCollection::new(), SampleIndex::new(n));
        for (round, &cut) in cuts.iter().enumerate() {
            (lists.len()..cut).for_each(|j| lists.push(c.get(j)));
            index.absorb(&lists, 1 + round % 3);
            assert_index_matches_brute_force(&index, n, &c, cut)?;
        }
        // The index each `DynRrrStore` keeps, of bitmaps read by word range
        // and complements by their runs under two owners: resident, and with
        // its sealed segments spilled under a budget of 0.
        let spilling = StorageConfig { kind: RrrStoreKind::Spill, budget: Some(0) };
        for config in [StorageConfig::default(), spilling] {
            let mut store = DynRrrStore::new(config, n);
            for &cut in &cuts {
                (store.len()..cut).for_each(|j| store.push(c.get(j)));
                store.with_sample_index(n, 2, |index| {
                    assert_index_matches_brute_force(index, n, &c, cut)
                })?;
                prop_assert_eq!(store.indexed_samples(), cut);
            }
            let kept = store.as_mixed().expect("a store that keeps its samples");
            prop_assert!(kept.complement_sets() > 0);
            // Built first, then grown by the batches alone: every batch's end
            // absorbs its samples, with no selection in between.
            let mut store = DynRrrStore::new(config, n);
            (0..cuts[0]).for_each(|j| store.push(c.get(j)));
            store.with_sample_index(n, 2, |_| ());
            for &cut in &cuts[1..] {
                (store.len()..cut).for_each(|j| store.push(c.get(j)));
                store.finish_batch();
                store.with_current_index(|index| {
                    prop_assert!(index.is_some(), "no current index after {} samples", cut);
                    assert_index_matches_brute_force(index.expect("just checked"), n, &c, cut)
                })?;
            }
        }
    }

    /// log C(n,k) identities: symmetry and Pascal's rule.
    #[test]
    fn log_binomial_identities(n in 1u64..400, k in 0u64..400) {
        prop_assume!(k <= n);
        let lhs = log_binomial(n, k);
        prop_assert!((lhs - log_binomial(n, n - k)).abs() < 1e-6);
        if k >= 1 && k < n {
            // C(n,k) = C(n-1,k-1) + C(n-1,k) ⇒ log-sum-exp check.
            let a = log_binomial(n - 1, k - 1);
            let b = log_binomial(n - 1, k);
            let m = a.max(b);
            let combined = m + ((a - m).exp() + (b - m).exp()).ln();
            prop_assert!((lhs - combined).abs() < 1e-6, "Pascal failed: {} vs {}", lhs, combined);
        }
    }

    /// θ-schedule monotonicity: smaller ε and larger k never reduce the
    /// final θ at a fixed lower bound; round budgets increase with x.
    #[test]
    fn theta_schedule_monotone(
        n in 100u64..1_000_000,
        k in 1u64..100,
        eps_idx in 0usize..4,
        lb_frac in 0.001f64..1.0,
    ) {
        let eps_values = [0.2, 0.3, 0.4, 0.5];
        let eps = eps_values[eps_idx];
        prop_assume!(k <= n);
        let s = ThetaSchedule::new(n, k, eps, 1.0);
        let lb = (n as f64 * lb_frac).max(1.0);
        let theta = s.final_theta(lb);
        prop_assert!(theta > 0);
        // Tighter ε ⇒ more samples.
        if eps_idx > 0 {
            let tighter = ThetaSchedule::new(n, k, eps_values[eps_idx - 1], 1.0);
            prop_assert!(tighter.final_theta(lb) >= theta);
        }
        // Bigger k ⇒ more samples (logcnk grows for k ≤ n/2).
        if k < n / 2 {
            let bigger = ThetaSchedule::new(n, k + 1, eps, 1.0);
            prop_assert!(bigger.final_theta(lb) >= theta);
        }
        // Round budgets strictly increase.
        let mut prev = 0usize;
        for x in 1..=s.max_rounds().min(8) {
            let b = s.round_budget(x);
            prop_assert!(b > prev);
            prev = b;
        }
        // Larger LB ⇒ smaller θ.
        prop_assert!(s.final_theta(lb * 2.0) <= theta);
    }

    /// The LB certification test is monotone in the coverage fraction.
    #[test]
    fn round_success_monotone(frac in 0.0f64..1.0) {
        let s = ThetaSchedule::new(10_000, 20, 0.5, 1.0);
        for x in 1..=s.max_rounds() {
            if s.round_succeeds(x, frac) {
                prop_assert!(s.round_succeeds(x, (frac + 0.1).min(1.0)));
                // Deeper rounds have lower thresholds.
                if x < s.max_rounds() {
                    prop_assert!(s.round_succeeds(x + 1, frac));
                }
            }
        }
    }
}
