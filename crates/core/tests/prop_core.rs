//! Property-based tests for the core algorithm components.

use proptest::prelude::*;
use ripples_core::select::{
    select_seeds_fused_with_stats, select_seeds_hypergraph, select_seeds_lazy,
    select_seeds_partitioned, select_seeds_sequential,
};
use ripples_core::theta::{log_binomial, ThetaSchedule};
use ripples_diffusion::{HyperGraph, RrrCollection};

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
/// bitmaps).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Selection over a flat store that holds some sets as bitmaps — by
    /// word scan, by index, at any owner count — is the sequential greedy
    /// over the expanded lists, for every engine.
    #[test]
    fn mixed_store_selects_like_the_expanded_lists(
        (n, c) in mixed_density_strategy(),
        k in 1u32..8,
    ) {
        use ripples_core::{select_with_engine_store, SelectEngine};
        use ripples_diffusion::{DynRrrStore, RrrStore, StorageConfig};
        let reference = select_seeds_sequential(&c, n, k);
        let mut store = DynRrrStore::new(StorageConfig::default(), n);
        for s in c.iter() {
            store.push(s);
        }
        let dense = c.iter().filter(|s| 32 * s.len() as u64 > u64::from(n)).count() as u64;
        prop_assert_eq!(store.as_mixed().map(|m| m.bitmap_sets()), Some(dense));
        prop_assert_eq!(store.as_flat().is_some(), dense == 0);
        for engine in [
            SelectEngine::Auto,
            SelectEngine::Sequential,
            SelectEngine::Partitioned,
            SelectEngine::Lazy,
            SelectEngine::Hypergraph,
            SelectEngine::Fused,
        ] {
            // Lazy over plain lists may reorder ties; it is exact otherwise.
            if engine == SelectEngine::Lazy && dense == 0 {
                continue;
            }
            for partitions in [1usize, 2, 3, 64] {
                let (sel, _) = select_with_engine_store(engine, &store, n, k, partitions);
                prop_assert_eq!(
                    &sel, &reference,
                    "engine {:?} with {} owners diverged", engine, partitions
                );
            }
        }
    }

    /// All selection engines agree on the greedy outcome for any collection.
    #[test]
    fn selection_engines_equivalent((n, c) in collection_strategy(), k in 1u32..10) {
        let seq = select_seeds_sequential(&c, n, k);
        for p in [1usize, 2, 3, 7] {
            let par = select_seeds_partitioned(&c, n, k, p);
            prop_assert_eq!(&par, &seq, "partitioned({}) diverged", p);
        }
        let hyper = HyperGraph::build(c.clone(), n);
        let hg = select_seeds_hypergraph(&hyper, n, k);
        prop_assert_eq!(&hg, &seq, "hypergraph engine diverged");
        for p in [1usize, 2, 3, 5, 64] {
            let (fused, stats) = select_seeds_fused_with_stats(&c, n, k, p);
            prop_assert_eq!(&fused, &seq, "fused({}) diverged", p);
            prop_assert_eq!(
                stats.index_bytes,
                select_seeds_fused_with_stats(&c, n, k, 1).1.index_bytes,
                "index size must not depend on the partition count"
            );
        }
        let lazy = select_seeds_lazy(&c, n, k);
        prop_assert_eq!(lazy.covered, seq.covered, "lazy engine lost coverage");
        prop_assert_eq!(lazy.marginal_gains, seq.marginal_gains);
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

    /// Every RRR storage backend yields the bitwise-identical greedy
    /// `Selection` as the flat reference, under every eager select engine
    /// (`Lazy` is excluded: on compressed stores it maps to the eager
    /// direct engine, which matches coverage but not CELF's skip order).
    #[test]
    fn storage_backends_select_identically((n, c) in collection_strategy(), k in 1u32..8) {
        use ripples_core::{select_with_engine_store, SelectEngine};
        use ripples_diffusion::{DynRrrStore, RrrStore, RrrStoreKind, StorageConfig};
        let reference = select_seeds_sequential(&c, n, k);
        for kind in [RrrStoreKind::Flat, RrrStoreKind::Varint, RrrStoreKind::Spill] {
            let budget = (kind == RrrStoreKind::Spill).then_some(2048);
            let mut store = DynRrrStore::new(StorageConfig { kind, budget }, n);
            for s in c.iter() {
                RrrStore::push(&mut store, s);
            }
            for engine in [
                SelectEngine::Auto,
                SelectEngine::Sequential,
                SelectEngine::Partitioned,
                SelectEngine::Hypergraph,
                SelectEngine::Fused,
            ] {
                let (sel, _) = select_with_engine_store(engine, &store, n, k, 3);
                prop_assert_eq!(
                    &sel, &reference,
                    "store {:?} engine {:?} diverged", kind, engine
                );
            }
        }
    }

    /// Hypergraph degree equals the number of samples containing the vertex.
    #[test]
    fn hypergraph_index_consistent((n, c) in collection_strategy()) {
        let hyper = HyperGraph::build(c.clone(), n);
        for v in 0..n {
            let expect = c.iter().filter(|s| s.binary_search(&v).is_ok()).count();
            prop_assert_eq!(hyper.degree(v), expect, "degree mismatch at {}", v);
            for &sid in hyper.samples_containing(v) {
                prop_assert!(c.get(sid as usize).binary_search(&v).is_ok());
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
