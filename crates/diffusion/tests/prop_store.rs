//! Property-based tests for RRR storage: any sorted set of vertex ids must
//! survive the store → decode round trip bit-for-bit, under every storage
//! configuration — flat, and spill-kind under any budget — and through the
//! arena merge path, including the sets on either side of the flat layout's
//! list/bitmap and bitmap/complement boundaries.

use proptest::prelude::*;
use ripples_diffusion::{
    sample_batch_fused, DiffusionModel, DynRrrStore, MixedRrrCollection, RrrCollection, RrrSetRef,
    RrrStore, RrrStoreKind, SampleArena, StorageConfig,
};
use ripples_graph::generators::erdos_renyi;
use ripples_graph::WeightModel;
use ripples_rng::StreamFactory;

/// Arbitrary *sorted, deduplicated* RRR sets — the invariant every sampler
/// upholds. Includes the empty set, singletons, and ids up to `u32::MAX`.
fn sorted_sets() -> impl Strategy<Value = Vec<Vec<u32>>> {
    // Mostly small ids, with the extremes (0, near-u32::MAX) mixed in so
    // varint continuation bytes get exercised.
    let id = (0u32..520).prop_map(|v| if v >= 512 { u32::MAX - (v - 512) } else { v });
    let set =
        prop::collection::btree_set(id, 0..24).prop_map(|s| s.into_iter().collect::<Vec<u32>>());
    prop::collection::vec(set, 0..40)
}

fn flat_of(sets: &[Vec<u32>]) -> RrrCollection {
    let mut flat = RrrCollection::new();
    for s in sets {
        flat.push(s);
    }
    flat
}

/// Decodes every sample of `store` and checks it against the reference,
/// through the one reader (`set`: its length, walk and membership) and the
/// provided `decode_into`.
fn assert_round_trip<S: RrrStore>(store: &S, sets: &[Vec<u32>]) {
    assert_eq!(store.len(), sets.len());
    let total: u64 = sets.iter().map(|s| s.len() as u64).sum();
    assert_eq!(store.total_entries(), total);
    let mut out = Vec::new();
    for (i, expect) in sets.iter().enumerate() {
        assert_eq!(store.set(i).len(), expect.len(), "sample {i} length");
        store.decode_into(i, &mut out);
        assert_eq!(&out, expect, "sample {i} decode_into");
        let mut streamed = Vec::new();
        store.set(i).for_each(|v| streamed.push(v));
        assert_eq!(&streamed, expect, "sample {i} for_each");
        for &v in expect {
            assert!(store.set(i).contains(v), "sample {i} missing {v}");
        }
    }
}

/// Universe sizes around the bitmap word width.
const UNIVERSES: [u32; 6] = [1, 63, 64, 65, 130, 2000];

/// The fewest vertices a complement holds: `32·(n − len) < n`.
fn first_complement(n: u32) -> u32 {
    n - (n - 1) / 32
}

/// `(n, raw sample lists)` whose lengths sit on both sides of the flat
/// store's two boundaries (a bitmap from `n/32 + 1` vertices up, a
/// complement from [`first_complement`] up): empty, `n/32`, `n/32 + 1`,
/// the last bitmap, the first complement, `n − 1`, all `n`, and arbitrary
/// lengths, some handed over reversed and with a duplicate so that they
/// must be repaired and counted.
fn boundary_samples() -> impl Strategy<Value = (u32, Vec<Vec<u32>>)> {
    (
        0usize..UNIVERSES.len(),
        prop::collection::vec((0u8..10, any::<u64>()), 0..14),
    )
        .prop_map(|(universe, specs)| {
            let n = UNIVERSES[universe];
            let sets = specs
                .into_iter()
                .map(|(shape, seed)| {
                    let len = match shape {
                        0 => 0,
                        1 => n / 32,
                        2 => n / 32 + 1,
                        3 => n,
                        7 => first_complement(n) - 1,
                        8 => first_complement(n),
                        9 => n - 1,
                        _ => (seed % (u64::from(n) + 1)) as u32,
                    }
                    .min(n);
                    // 11 is coprime to every universe, so these are distinct.
                    let step = if seed & 1 == 0 { 1 } else { 11 };
                    let offset = seed >> 1;
                    let mut ids: Vec<u32> = (0..u64::from(len))
                        .map(|i| ((offset + i * step) % u64::from(n)) as u32)
                        .collect();
                    ids.sort_unstable();
                    if matches!(shape, 5 | 6) && ids.len() >= 2 {
                        ids.reverse();
                        ids.push(ids[0]);
                    }
                    ids
                })
                .collect();
            (n, sets)
        })
}

/// The flat store, and the spill-kind store under its default budget and
/// under a small one.
const BACKENDS: [StorageConfig; 3] = [
    StorageConfig {
        kind: RrrStoreKind::Flat,
        budget: None,
    },
    StorageConfig {
        kind: RrrStoreKind::Spill,
        budget: None,
    },
    StorageConfig {
        kind: RrrStoreKind::Spill,
        budget: Some(2048),
    },
];

fn flat_store(n: u32) -> DynRrrStore {
    DynRrrStore::new(BACKENDS[0], n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Samples on both sides of the representation boundaries decode
    /// identically from every configuration, filled by `push` or through
    /// arenas that already hold the dense ones as bitmaps or complements;
    /// repairs are counted once either way, and the store keeps as
    /// complements exactly the repaired sets with `32·(n − len) < n` and as
    /// bitmaps the others with `32·len > n`.
    #[test]
    fn boundary_sets_round_trip_by_push_and_by_arena((n, raw) in boundary_samples()) {
        let expect: Vec<Vec<u32>> = raw
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let repaired = raw.iter().zip(&expect).filter(|(r, e)| r != e).count() as u64;
        let n64 = u64::from(n);
        let lens = || expect.iter().map(|s| s.len() as u64);
        let complements = lens().filter(|&len| 32 * (n64 - len) < n64).count() as u64;
        let bitmaps = lens().filter(|&len| 32 * len > n64).count() as u64 - complements;
        let mut arenas = [SampleArena::new(n), SampleArena::new(n)];
        for (i, s) in raw.iter().enumerate() {
            arenas[usize::from(i >= raw.len() / 2)].append_set(s);
        }
        for config in BACKENDS {
            let mut pushed = DynRrrStore::new(config, n);
            for s in &raw {
                pushed.push(s);
            }
            let mut merged = DynRrrStore::new(config, n);
            merged.append_arenas(&arenas);
            for store in [&pushed, &merged] {
                assert_round_trip(store, &expect);
                prop_assert_eq!(store.unsorted_pushes(), repaired, "{:?}", config);
                let forms = store.as_mixed().map(|m| (m.bitmap_sets(), m.complement_sets()));
                prop_assert_eq!(forms, Some((bitmaps, complements)), "{:?}", config);
                prop_assert_eq!(store.as_flat().is_some(), bitmaps + complements == 0);
            }
        }
        let mut bare = RrrCollection::new();
        bare.append_arenas(&arenas);
        assert_round_trip(&bare, &expect);
    }

    /// A set at any density — empty, `n − 1` and `n` included, ids on
    /// 64-word boundaries, `n` a multiple of 64 or not — reads the same
    /// from the list, the bitmap and the complement that hold it: `len`,
    /// `contains`, `for_each`, and `for_each_in` over every interval of
    /// Algorithm 4's owners (word-aligned bounds, the last ending at `n` or
    /// past every id). Every store hands it back through `RrrStore::set` in
    /// one of those forms, the same one wherever the density rule applies,
    /// and the provided `decode_into` agrees.
    #[test]
    fn three_forms_read_alike(
        n in 1u32..300,
        whole_words in any::<bool>(),
        density in 0u32..65,
        shape in 0u8..4,
        seed in any::<u64>(),
    ) {
        let n = if whole_words { n.div_ceil(64) * 64 } else { n };
        let set: Vec<u32> = match shape {
            0 => Vec::new(),
            1 => (0..n).filter(|&v| v != (seed % u64::from(n)) as u32).collect(),
            2 => (0..n).collect(),
            _ => (0..n)
                .filter(|&v| {
                    let h = (u64::from(v) ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (h >> 58) < u64::from(density)
                })
                .collect(),
        };
        let mut words = vec![0u64; n.div_ceil(64) as usize];
        set.iter().for_each(|&v| words[(v >> 6) as usize] |= 1 << (v & 63));
        let missing: Vec<u32> = (0..n).filter(|v| set.binary_search(v).is_err()).collect();
        let forms = [
            RrrSetRef::List(&set),
            RrrSetRef::Bitmap { words: &words, len: set.len() as u32 },
            RrrSetRef::Complement { missing: &missing, num_vertices: n },
        ];
        let mut bounds: Vec<u32> = (0..n).step_by(64).collect();
        bounds.push(n);
        // The set after a one-vertex list, in the list collection, the
        // mixed collection, and kept flat and spill-kind stores.
        let mut lists = RrrCollection::new();
        let mut mixed = MixedRrrCollection::new(n);
        let mut flat = flat_store(n);
        let mut spill = DynRrrStore::new(BACKENDS[1], n);
        for sample in [&[n - 1][..], &set] {
            lists.push(sample);
            mixed.push(sample);
            flat.push(sample);
            spill.push(sample);
        }
        let stored = [
            RrrStore::set(&lists, 1),
            RrrStore::set(&mixed, 1),
            flat.set(1),
            spill.set(1),
        ];
        prop_assert!(matches!(stored[0], RrrSetRef::List(_)));
        for held in &stored[2..] {
            prop_assert_eq!(
                std::mem::discriminant(held),
                std::mem::discriminant(&stored[1])
            );
        }
        let mut decoded = Vec::new();
        let stores: [&dyn RrrStore; 4] = [&lists, &mixed, &flat, &spill];
        for (i, store) in stores.into_iter().enumerate() {
            store.decode_into(1, &mut decoded);
            prop_assert_eq!(&decoded, &set, "store {}", i);
            store.decode_into(0, &mut decoded);
            prop_assert_eq!(&decoded, &vec![n - 1], "store {}", i);
        }
        for form in forms.into_iter().chain(stored) {
            prop_assert_eq!(form.len(), set.len(), "{:?}", form);
            for v in 0..n + 65 {
                prop_assert_eq!(form.contains(v), set.binary_search(&v).is_ok(), "{:?} {}", form, v);
            }
            let mut all = Vec::new();
            form.for_each(|v| all.push(v));
            prop_assert_eq!(&all, &set);
            for (i, &vl) in bounds.iter().enumerate().take(bounds.len() - 1) {
                for vh in [bounds[i + 1], u32::MAX] {
                    let mut got = Vec::new();
                    form.for_each_in(vl, vh, |v| got.push(v));
                    let expect: Vec<u32> = set.iter().copied().filter(|&v| vl <= v && v < vh).collect();
                    prop_assert_eq!(got, expect, "{:?} in [{}, {})", form, vl, vh);
                }
            }
        }
    }

    /// The list collection and a spill-kind store at any budget — budget 0
    /// included — round-trip arbitrary sorted sets, and the store holds the
    /// same sets in the same forms whether filled by `push` or through the
    /// `SampleArena` merge path the parallel samplers use; a store that
    /// keeps its samples writes nothing to disk.
    #[test]
    fn all_backends_round_trip(sets in sorted_sets(), budget in 0usize..8192) {
        assert_round_trip(&flat_of(&sets), &sets);

        let mut arena = SampleArena::with_capacity(u32::MAX, sets.len());
        for s in &sets {
            arena.append_set(s);
        }
        let arenas = [arena];
        for budget in [0, budget, StorageConfig::DEFAULT_BUDGET] {
            let config = StorageConfig { kind: RrrStoreKind::Spill, budget: Some(budget) };
            let mut pushed = DynRrrStore::new(config, u32::MAX);
            for s in &sets {
                pushed.push(s);
            }
            pushed.finish_batch();
            let mut merged = DynRrrStore::new(config, u32::MAX);
            merged.append_arenas(&arenas);
            assert_round_trip(&pushed, &sets);
            assert_round_trip(&merged, &sets);
            prop_assert_eq!(pushed.form_counts(), merged.form_counts());
            prop_assert_eq!(pushed.resident_bytes(), merged.resident_bytes());
            prop_assert_eq!(pushed.spill_bytes_written() + merged.spill_bytes_written(), 0);
        }
    }
}

/// While it holds no dense set, the flat store is the list collection and
/// nothing more: the same bytes by the same formula, whichever way it was
/// filled.
#[test]
fn all_list_flat_store_costs_what_the_list_collection_costs() {
    let n = 100_000;
    let sets: Vec<Vec<u32>> = (0..500u32)
        .map(|i| (0..(i % 40)).map(|j| i * 13 + j * 97).collect())
        .collect();
    let mut arena = SampleArena::with_capacity(n, sets.len());
    let mut pushed = (flat_store(n), RrrCollection::new());
    for s in &sets {
        pushed.0.push(s);
        pushed.1.push(s);
        arena.append_set(s);
    }
    let arenas = [arena];
    let mut merged = (flat_store(n), RrrCollection::new());
    merged.0.append_arenas(&arenas);
    merged.1.append_arenas(&arenas);
    for (store, lists) in [&pushed, &merged] {
        assert_eq!(store.as_flat(), Some(lists));
        assert_eq!(store.resident_bytes(), lists.resident_bytes());
    }
}

/// The fused kernel hands graph-spanning cascades over as transposed
/// bitmaps. What the flat store then holds — complements where the
/// cascades cover near all of the graph (p = 0.6), bitmaps where they cover
/// a good part of it (p = 0.15) — decodes bitwise equal to the same
/// emission expanded into the list-only collection, at every thread count,
/// for a batch that starts and ends inside a 64-lane block.
#[test]
fn fused_emission_into_flat_store_equals_list_emission_at_any_thread_count() {
    for (p, complements, bitmaps) in [(0.6, 650, 0), (0.15, 0, 450)] {
        fused_emission_matches_lists(p, complements, bitmaps);
    }
}

/// The check above on `G(333, 4000)` at edge probability `p`, where the flat
/// store must hold at least `complements` complements and `bitmaps`
/// bitmaps of the 700 sets.
fn fused_emission_matches_lists(p: f32, complements: u64, bitmaps: u64) {
    let graph = erdos_renyi(333, 4000, WeightModel::Constant(p), false, 7);
    let factory = StreamFactory::new(2024);
    let model = DiffusionModel::IndependentCascade;
    let mut lists = RrrCollection::new();
    let reference = sample_batch_fused(&graph, model, &factory, 5, 700, &mut lists);
    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let (store, outcome) = pool.install(|| {
            let mut store = flat_store(graph.num_vertices());
            let outcome = sample_batch_fused(&graph, model, &factory, 5, 700, &mut store);
            (store, outcome)
        });
        let held = store.as_mixed().expect("flat kind");
        assert!(
            held.complement_sets() >= complements && held.bitmap_sets() >= bitmaps,
            "cascades were meant to span: p = {p}, {:?}",
            held.form_counts()
        );
        assert_eq!(outcome.edges_examined, reference.edges_examined);
        assert_eq!(store.total_entries(), lists.total_entries() as u64);
        let mut out = Vec::new();
        for i in 0..lists.len() {
            store.decode_into(i, &mut out);
            assert_eq!(out, lists.get(i), "sample {i} at {threads} threads");
        }
    }
}
