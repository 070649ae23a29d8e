//! Property-based tests for the sketch snapshot format: snapshot → restore
//! is the identity on the resident sketch (samples, provenance, and every
//! selection it can answer), and no corruption of the byte stream —
//! truncation, single-byte flips, wrong graph — ever panics or silently
//! restores a different sketch; each yields a structured [`SnapshotError`].

use proptest::prelude::*;
use ripples_core::{ImmParams, SampleEngine, SelectEngine};
use ripples_diffusion::{DiffusionModel, RrrStore, RrrStoreKind, StorageConfig};
use ripples_graph::{Graph, GraphBuilder, Vertex};
use ripples_serve::snapshot::{decode_snapshot, encode_snapshot};
use ripples_serve::{SketchService, SnapshotError};

/// A small two-community graph with a bridge: dense enough that sketches
/// are non-degenerate, small enough that a full IMM build per proptest
/// case is cheap.
fn test_graph() -> Graph {
    let edges: Vec<(Vertex, Vertex, f32)> = vec![
        (0, 1, 0.9),
        (0, 2, 0.9),
        (1, 2, 0.8),
        (2, 3, 0.7),
        (3, 0, 0.6),
        (3, 4, 0.5),
        (4, 5, 0.9),
        (5, 6, 0.9),
        (6, 7, 0.8),
        (7, 8, 0.8),
        (8, 9, 0.7),
        (9, 10, 0.6),
        (10, 11, 0.9),
        (11, 6, 0.8),
        (2, 8, 0.4),
    ];
    let mut b = GraphBuilder::new(12);
    for (u, v, p) in edges {
        b.add_edge(u, v, p).unwrap();
    }
    b.build().unwrap()
}

/// A graph that differs from [`test_graph`] by a single edge probability —
/// enough to change the fingerprint.
fn other_graph() -> Graph {
    let mut b = GraphBuilder::new(12);
    b.add_edge(0, 1, 0.5).unwrap();
    b.add_edge(1, 2, 0.5).unwrap();
    b.build().unwrap()
}

fn build_service(seed: u64, k_max: u32, kind: RrrStoreKind) -> SketchService {
    let graph = test_graph();
    let params = ImmParams::new(1, 0.5, DiffusionModel::IndependentCascade, seed).with_k_max(k_max);
    SketchService::build(
        &graph,
        params,
        SelectEngine::Sequential,
        SampleEngine::Reference,
        StorageConfig::of(kind),
    )
}

fn store_kinds() -> impl Strategy<Value = RrrStoreKind> {
    (0u8..2).prop_map(|b| {
        if b == 0 {
            RrrStoreKind::Flat
        } else {
            RrrStoreKind::Varint
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// encode → decode restores the exact sketch: same θ, identical samples
    /// bit for bit, identical provenance, and identical selections at every
    /// k the sketch can answer.
    #[test]
    fn round_trip_is_identity(seed in 0u64..1_000, k_max in 1u32..5, kind in store_kinds()) {
        let graph = test_graph();
        let svc = build_service(seed, k_max, kind);
        let bytes = encode_snapshot(&svc).unwrap();
        let restored = decode_snapshot(&bytes, &graph).unwrap();

        // Sample-level identity.
        prop_assert_eq!(restored.store.len(), svc.theta());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..restored.store.len() {
            svc.store().decode_into(i, &mut a);
            restored.store.decode_into(i, &mut b);
            prop_assert_eq!(&a, &b, "sample {} differs after restore", i);
        }

        // Provenance identity.
        prop_assert_eq!(restored.params, svc.params().clone());
        prop_assert_eq!(restored.sample, svc.sample_engine());

        // Selection identity: the restored service answers every k the
        // original can, bitwise.
        let mut orig = build_service(seed, k_max, kind);
        let mut rest = SketchService::build(
            &graph,
            restored.params,
            SelectEngine::Sequential,
            SampleEngine::Reference,
            StorageConfig::of(kind),
        );
        for k in 1..=k_max {
            let (s1, _) = orig.topk(k).unwrap();
            let (s2, _) = rest.topk(k).unwrap();
            prop_assert_eq!(s1, s2, "topk({}) differs after restore", k);
        }
    }

    /// Every strict prefix of a valid snapshot fails with a structured
    /// error — no panic, no partial sketch.
    #[test]
    fn truncation_is_a_structured_error(seed in 0u64..200, cut in 0.0f64..1.0) {
        let graph = test_graph();
        let svc = build_service(seed, 3, RrrStoreKind::Flat);
        let bytes = encode_snapshot(&svc).unwrap();
        let len = ((bytes.len() as f64) * cut) as usize;
        prop_assume!(len < bytes.len());
        let err = decode_snapshot(&bytes[..len], &graph).unwrap_err();
        // Truncation inside the payload shows up as the field that ran
        // dry or a length that no longer fits; never as a valid sketch.
        prop_assert!(matches!(
            err,
            SnapshotError::Truncated { .. }
                | SnapshotError::Corrupt { .. }
                | SnapshotError::BadMagic { .. }
        ), "unexpected error shape: {:?}", err);
    }

    /// Flipping any single byte anywhere in the file is always detected:
    /// header flips hit the magic/version/field checks, payload flips that
    /// survive the structural validation hit the whole-file checksum.
    #[test]
    fn single_byte_corruption_is_always_detected(
        seed in 0u64..200,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..255,
        kind in store_kinds(),
    ) {
        let graph = test_graph();
        let svc = build_service(seed, 3, kind);
        let mut bytes = encode_snapshot(&svc).unwrap();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= flip;
        let result = decode_snapshot(&bytes, &graph);
        prop_assert!(result.is_err(), "byte {} xor {:#04x} went undetected", pos, flip);
    }

    /// A snapshot restored against a different graph is a fingerprint
    /// mismatch naming both fingerprints, not a silently wrong sketch.
    #[test]
    fn wrong_graph_is_a_fingerprint_mismatch(seed in 0u64..200) {
        let svc = build_service(seed, 2, RrrStoreKind::Flat);
        let bytes = encode_snapshot(&svc).unwrap();
        let wrong = other_graph();
        match decode_snapshot(&bytes, &wrong).unwrap_err() {
            SnapshotError::FingerprintMismatch { expected, found } => {
                prop_assert_eq!(expected, svc.graph_fingerprint());
                prop_assert_eq!(found, wrong.fingerprint());
            }
            other => prop_assert!(false, "expected FingerprintMismatch, got {:?}", other),
        }
    }
}

/// Deterministic spot checks that pin the error *shapes* the proptests
/// accept: magic, version, reserved byte, store kind, and theta handling.
#[test]
fn error_shapes_name_offset_and_field() {
    let graph = test_graph();
    let svc = build_service(7, 2, RrrStoreKind::Flat);
    let good = encode_snapshot(&svc).unwrap();

    // Bad magic.
    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(matches!(
        decode_snapshot(&bad, &graph).unwrap_err(),
        SnapshotError::BadMagic { .. }
    ));

    // Unsupported version.
    let mut bad = good.clone();
    bad[8] = 99;
    assert_eq!(
        decode_snapshot(&bad, &graph).unwrap_err(),
        SnapshotError::UnsupportedVersion { found: 99 }
    );

    // Unknown store kind byte (offset 20).
    let mut bad = good.clone();
    bad[20] = 7;
    let err = decode_snapshot(&bad, &graph).unwrap_err();
    assert!(
        matches!(&err, SnapshotError::UnsupportedStore { kind } if kind.contains('7'))
            || matches!(err, SnapshotError::ChecksumMismatch { .. }),
        "unexpected: {err:?}"
    );

    // Empty file truncates at the magic.
    assert_eq!(
        decode_snapshot(&[], &graph).unwrap_err(),
        SnapshotError::Truncated {
            field: "magic",
            offset: 0
        }
    );

    // The error messages are human-readable and name the field.
    let msg = SnapshotError::Truncated {
        field: "theta",
        offset: 64,
    }
    .to_string();
    assert!(msg.contains("theta") && msg.contains("64"), "{msg}");
}

/// The spill store refuses to snapshot with a structured error instead of
/// writing a file it could not restore.
#[test]
fn unsupported_store_kinds_refuse_to_encode() {
    let kind = RrrStoreKind::Spill;
    let svc = build_service(7, 2, kind);
    match encode_snapshot(&svc).unwrap_err() {
        SnapshotError::UnsupportedStore { kind: tag } => {
            assert_eq!(tag, kind.tag());
        }
        other => panic!("expected UnsupportedStore, got {other:?}"),
    }
}

/// A flat store that holds its sets as bitmaps (`--gen ba:2000:8 --weights
/// uniform`, fused sampler) snapshots its logical content — at the parent
/// commit this was a panic — and the restore, which re-encodes every set by
/// the density rule, holds the same bitmaps and answers every query kind
/// identically.
#[test]
fn dense_sketch_round_trips_through_its_logical_content() {
    use ripples_graph::generators::barabasi_albert;
    use ripples_graph::WeightModel;
    let graph = barabasi_albert(2000, 8, WeightModel::UniformRandom { seed: 7 }, false, 42);
    for seed in [3u64, 11] {
        let params = ImmParams::new(1, 0.5, DiffusionModel::IndependentCascade, seed).with_k_max(6);
        let mut svc = SketchService::build(
            &graph,
            params,
            SelectEngine::Auto,
            SampleEngine::Fused,
            StorageConfig::default(),
        );
        let held = svc.store().as_mixed().expect("flat kind");
        assert!(svc.store().as_flat().is_none() && held.bitmap_sets() > 0);
        let bitmap_sets = held.bitmap_sets();

        let bytes = encode_snapshot(&svc).unwrap();
        assert_eq!(
            bytes.len() as u64,
            72 + 8 * (svc.theta() as u64 + 3) + 4 * svc.store().total_entries(),
            "the v1 flat payload, one u32 per vertex entry"
        );
        let restored = decode_snapshot(&bytes, &graph).unwrap();
        assert_eq!(
            restored.store.as_mixed().map(|m| m.bitmap_sets()),
            Some(bitmap_sets)
        );
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..svc.theta() {
            svc.store().decode_into(i, &mut a);
            restored.store.decode_into(i, &mut b);
            assert_eq!(a, b, "sample {i} differs after restore");
        }

        let path = std::env::temp_dir().join(format!(
            "ripples-prop-snapshot-dense-{}-{seed}.snap",
            std::process::id()
        ));
        svc.snapshot_to(&path).unwrap();
        let mut back = SketchService::restore_from(&path, &graph, SelectEngine::Auto).unwrap();
        std::fs::remove_file(&path).ok();
        let (top, _) = svc.topk(6).unwrap();
        assert_eq!(back.topk(6).unwrap().0, top);
        assert_eq!(
            back.topk_excluding(4, &top[..2]).unwrap().0,
            svc.topk_excluding(4, &top[..2]).unwrap().0
        );
        let (e1, _) = svc.spread_estimate(&top).unwrap();
        let (e2, _) = back.spread_estimate(&top).unwrap();
        assert!((e1 - e2).abs() < 1e-12);
    }
}
