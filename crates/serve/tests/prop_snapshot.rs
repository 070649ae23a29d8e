//! Property-based tests for the sketch snapshot format: snapshot → restore
//! is the identity on the resident sketch (samples, provenance, and every
//! selection it can answer), and no corruption of the byte stream —
//! truncation, single-byte flips, wrong graph — ever panics or silently
//! restores a different sketch; each yields a structured [`SnapshotError`].

use proptest::prelude::*;
use ripples_core::{ImmParams, SampleEngine, SelectEngine};
use ripples_diffusion::{DiffusionModel, RrrSetRef, RrrStore, RrrStoreKind, StorageConfig};
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

/// ε = 0.2 draws about a thousand samples, some 4 KiB as varint blocks
/// and several times [`SPILL_TINY`]'s budget.
fn build_service(seed: u64, k_max: u32, storage: StorageConfig) -> SketchService {
    build_service_with_ell(seed, k_max, storage, 1.0)
}

fn build_service_with_ell(
    seed: u64,
    k_max: u32,
    storage: StorageConfig,
    ell: f64,
) -> SketchService {
    let graph = test_graph();
    let params = ImmParams::new(1, 0.2, DiffusionModel::IndependentCascade, seed)
        .with_k_max(k_max)
        .with_ell(ell);
    SketchService::build(
        &graph,
        params,
        SelectEngine::Sequential,
        SampleEngine::Reference,
        storage,
    )
}

const FLAT: StorageConfig = StorageConfig {
    kind: RrrStoreKind::Flat,
    budget: None,
};
/// The spill kind under its default budget.
const SPILL_RESIDENT: StorageConfig = StorageConfig {
    kind: RrrStoreKind::Spill,
    budget: None,
};
/// The spill kind under a budget every sketch passes: a sketch keeps its
/// samples, in RAM, whatever the budget.
const SPILL_TINY: StorageConfig = StorageConfig {
    kind: RrrStoreKind::Spill,
    budget: Some(0),
};

fn store_kinds() -> impl Strategy<Value = StorageConfig> {
    (0usize..3).prop_map(|i| [FLAT, SPILL_RESIDENT, SPILL_TINY][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// encode → decode restores the exact sketch: same θ, identical samples
    /// bit for bit, identical provenance (ℓ included), and identical
    /// selections at every k the sketch can answer.
    #[test]
    fn round_trip_is_identity(
        seed in 0u64..1_000,
        k_max in 1u32..5,
        kind in store_kinds(),
        ell in (0usize..2).prop_map(|i| [1.0, 1.5][i]),
    ) {
        let graph = test_graph();
        let svc = build_service_with_ell(seed, k_max, kind, ell);
        let bytes = encode_snapshot(&svc);
        let restored = decode_snapshot(&bytes, &graph).unwrap();
        // Every kind writes the flat layout, and restores as the flat kind.
        prop_assert!(bytes[20] != 1);
        prop_assert_eq!(restored.store.kind(), RrrStoreKind::Flat);
        let spilled = svc.build_result().unwrap().report.counters.spill_bytes_written;
        prop_assert_eq!(spilled, 0);

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
        let mut orig = build_service_with_ell(seed, k_max, kind, ell);
        let mut rest = SketchService::build(
            &graph,
            restored.params,
            SelectEngine::Sequential,
            SampleEngine::Reference,
            kind,
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
        let svc = build_service(seed, 3, FLAT);
        let bytes = encode_snapshot(&svc);
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
        let mut bytes = encode_snapshot(&svc);
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= flip;
        let result = decode_snapshot(&bytes, &graph);
        prop_assert!(result.is_err(), "byte {} xor {:#04x} went undetected", pos, flip);
    }

    /// A snapshot restored against a different graph is a fingerprint
    /// mismatch naming both fingerprints, not a silently wrong sketch.
    #[test]
    fn wrong_graph_is_a_fingerprint_mismatch(seed in 0u64..200) {
        let svc = build_service(seed, 2, FLAT);
        let bytes = encode_snapshot(&svc);
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
    let svc = build_service(7, 2, FLAT);
    let good = encode_snapshot(&svc);

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

    // A non-finite ℓ (offset 56) is refused before the checksum is read.
    for ell in [f64::INFINITY, f64::NAN] {
        let mut bad = good.clone();
        bad[56..64].copy_from_slice(&ell.to_bits().to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bad, &graph).unwrap_err(),
            SnapshotError::Corrupt {
                field: "ell",
                offset: 56,
                ..
            }
        ));
    }

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

/// A spill-kind service whose index has its sealed segments on disk
/// snapshots like any other: the file is byte for byte the flat service's
/// (a snapshot carries the samples, never the index), file → service → file
/// is the identity, and the restored service answers as the flat one does.
#[test]
fn spill_store_on_disk_round_trips_bitwise() {
    let graph = test_graph();
    let params = ImmParams::new(1, 0.2, DiffusionModel::IndependentCascade, 7).with_k_max(4);
    let build = |storage| {
        SketchService::build(
            &graph,
            params,
            SelectEngine::Fused,
            SampleEngine::Reference,
            storage,
        )
    };
    let on_disk = build(SPILL_TINY);
    let spilled = on_disk
        .build_result()
        .unwrap()
        .report
        .counters
        .spill_bytes_written;
    assert!(
        spilled > 0,
        "budget 0 must put sealed index segments on disk"
    );
    let mut flat = build(FLAT);
    let bytes = encode_snapshot(&on_disk);
    assert_eq!(bytes, encode_snapshot(&flat));

    let mut back = restore_bytes(&bytes, "spill-on-disk");
    assert_eq!(encode_snapshot(&back), bytes);
    let (top, _) = flat.topk(4).unwrap();
    assert_eq!(back.topk(4).unwrap().0, top);
    assert_eq!(
        back.topk_excluding(3, &top[..1]).unwrap().0,
        flat.topk_excluding(3, &top[..1]).unwrap().0
    );
    assert_eq!(
        back.spread_estimate(&top).unwrap().0.to_bits(),
        flat.spread_estimate(&top).unwrap().0.to_bits()
    );
}

/// A kind-1 file the delta-varint sample store wrote restores into the flat
/// store: it holds the samples a flat build draws, answers `topk`,
/// `topk_excluding` and `spread_estimate` bitwise as that build does, and
/// snapshots again as the flat build's file. The file is what
/// `encode_snapshot` wrote for `build_service(7, 4, SPILL_RESIDENT)` while
/// that store held its samples as varint blocks.
#[test]
fn a_kind1_file_the_varint_store_wrote_restores_flat() {
    let graph = test_graph();
    let written = include_bytes!("data/kind1_varint_store.snap");
    assert_eq!(written[20], 1, "a kind-1 file");
    let mut flat = build_service(7, 4, FLAT);
    let restored = decode_snapshot(written, &graph).unwrap();
    assert_eq!(restored.store.kind(), RrrStoreKind::Flat);
    assert_eq!(restored.store.len(), flat.theta());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for i in 0..flat.theta() {
        flat.store().decode_into(i, &mut a);
        restored.store.decode_into(i, &mut b);
        assert_eq!(a, b, "sample {i}");
    }

    let mut back = restore_bytes(written, "varint-store");
    for k in 1..=4 {
        assert_eq!(
            back.topk(k).unwrap().0,
            flat.topk(k).unwrap().0,
            "topk({k})"
        );
    }
    let (top, _) = flat.topk(4).unwrap();
    for banned in [&top[..1], &top[1..3]] {
        assert_eq!(
            back.topk_excluding(3, banned).unwrap().0,
            flat.topk_excluding(3, banned).unwrap().0,
            "topk_excluding(3, {banned:?})"
        );
    }
    assert_eq!(
        back.spread_estimate(&top).unwrap().0.to_bits(),
        flat.spread_estimate(&top).unwrap().0.to_bits()
    );
    assert_eq!(encode_snapshot(&back), encode_snapshot(&flat));
}

/// The three sections of a kind-1 payload, as a test may tamper with them.
struct Kind1 {
    offsets: Vec<u64>,
    counts: Vec<u32>,
    stream: Vec<u8>,
    /// The `offsets length` field (θ + 1 in an honest file).
    offsets_len: u64,
    /// The header's θ.
    theta: u64,
}

/// A v1 kind-1 file over [`test_graph`], assembled from the layout the
/// `snapshot` module documents with nothing of the store's: its own LEB128,
/// its own FNV-1a. `tamper` edits the sections before they are laid out, and
/// the checksum is computed last, so every file this returns is
/// checksum-valid.
fn kind1_file(samples: &[Vec<Vertex>], tamper: impl FnOnce(&mut Kind1)) -> Vec<u8> {
    fn leb128(out: &mut Vec<u8>, mut x: u32) {
        while x >= 0x80 {
            out.push(x as u8 | 0x80);
            x >>= 7;
        }
        out.push(x as u8);
    }
    let mut parts = Kind1 {
        offsets: vec![0],
        counts: Vec::new(),
        stream: Vec::new(),
        offsets_len: samples.len() as u64 + 1,
        theta: samples.len() as u64,
    };
    for sample in samples {
        for (i, &v) in sample.iter().enumerate() {
            let coded = if i == 0 { v } else { v - sample[i - 1] - 1 };
            leb128(&mut parts.stream, coded);
        }
        parts.counts.push(sample.len() as u32);
        parts.offsets.push(parts.stream.len() as u64);
    }
    tamper(&mut parts);

    let mut payload = parts.offsets_len.to_le_bytes().to_vec();
    for o in &parts.offsets {
        payload.extend_from_slice(&o.to_le_bytes());
    }
    payload.extend_from_slice(&(parts.counts.len() as u64).to_le_bytes());
    for c in &parts.counts {
        payload.extend_from_slice(&c.to_le_bytes());
    }
    payload.extend_from_slice(&(parts.stream.len() as u64).to_le_bytes());
    payload.extend_from_slice(&parts.stream);
    v1_file(1, &test_graph(), parts.theta, &payload)
}

/// A v1 file of store kind `kind` over `graph` with `payload` after the
/// header, checksummed with its own FNV-1a: IC, the reference sampler,
/// master seed 9, k 2, k_max 3, ε 0.25, ℓ 1.
fn v1_file(kind: u8, graph: &Graph, theta: u64, payload: &[u8]) -> Vec<u8> {
    let mut file = b"RIPLSNAP".to_vec();
    file.extend_from_slice(&1u32.to_le_bytes()); // version
    file.extend_from_slice(&[0; 8]); // checksum, patched below
    file.extend_from_slice(&[kind, 0, 1, 0]); // kind, ic, reference sampler, reserved
    file.extend_from_slice(&graph.fingerprint().to_le_bytes());
    file.extend_from_slice(&9u64.to_le_bytes()); // master seed
    file.extend_from_slice(&2u32.to_le_bytes()); // k
    file.extend_from_slice(&3u32.to_le_bytes()); // k_max
    file.extend_from_slice(&0.25f64.to_bits().to_le_bytes()); // epsilon
    file.extend_from_slice(&1.0f64.to_bits().to_le_bytes()); // ell
    file.extend_from_slice(&theta.to_le_bytes());
    file.extend_from_slice(payload);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in &file[20..] {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    file[12..20].copy_from_slice(&hash.to_le_bytes());
    file
}

fn kind1_samples() -> Vec<Vec<Vertex>> {
    vec![
        vec![0, 1, 2, 3],
        vec![],
        vec![11],
        vec![2, 8, 9],
        vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        vec![5, 6],
    ]
}

/// The format is what the module doc says it is: a file written by an
/// encoder that shares no code with the store restores, into the flat
/// store, to exactly the samples and provenance that went in — which is
/// also why a file a retired varint sample store wrote still restores — and
/// answers as a service over the same samples does.
#[test]
fn hand_assembled_kind1_file_restores() {
    let graph = test_graph();
    let samples = kind1_samples();
    let restored = decode_snapshot(&kind1_file(&samples, |_| {}), &graph).unwrap();
    assert_eq!(restored.store.kind(), RrrStoreKind::Flat);
    assert_eq!(restored.store.len(), samples.len());
    let mut out = Vec::new();
    for (i, sample) in samples.iter().enumerate() {
        restored.store.decode_into(i, &mut out);
        assert_eq!(&out, sample, "sample {i}");
    }
    let params = ImmParams::new(2, 0.25, DiffusionModel::IndependentCascade, 9).with_k_max(3);
    assert_eq!(restored.params, params);
    assert_eq!(restored.sample, SampleEngine::Reference);

    // A service over the same samples in the flat layout (kind 0).
    let mut payload = (samples.len() as u64 + 1).to_le_bytes().to_vec();
    let mut end = 0u64;
    payload.extend_from_slice(&end.to_le_bytes());
    for sample in &samples {
        end += sample.len() as u64;
        payload.extend_from_slice(&end.to_le_bytes());
    }
    payload.extend_from_slice(&end.to_le_bytes());
    for &v in samples.iter().flatten() {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let mut flat = restore_bytes(&v1_file(0, &graph, samples.len() as u64, &payload), "kind0");
    let mut back = restore_bytes(&kind1_file(&samples, |_| {}), "kind1");
    for k in 1..=3 {
        assert_eq!(
            back.topk(k).unwrap().0,
            flat.topk(k).unwrap().0,
            "topk({k})"
        );
    }
    for banned in [&[0][..], &[2, 11]] {
        assert_eq!(
            back.topk_excluding(3, banned).unwrap().0,
            flat.topk_excluding(3, banned).unwrap().0,
            "topk_excluding(3, {banned:?})"
        );
    }
}

/// The service a snapshot file of `bytes` restores over [`test_graph`].
fn restore_bytes(bytes: &[u8], name: &str) -> SketchService {
    let path = std::env::temp_dir().join(format!(
        "ripples-prop-snapshot-{name}-{}.snap",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let restored = SketchService::restore_from(&path, &test_graph(), SelectEngine::Sequential);
    std::fs::remove_file(&path).ok();
    restored.unwrap()
}

/// A correct checksum proves nothing about the payload: sections that lie
/// about each other are structured errors out of the adopt path — never a
/// panic in the unchecked decoder, never a sketch.
#[test]
fn checksum_valid_hostile_kind1_payloads_are_rejected() {
    let graph = test_graph();
    let samples = kind1_samples();
    let corrupt = |what: &str, tamper: &dyn Fn(&mut Kind1)| match decode_snapshot(
        &kind1_file(&samples, tamper),
        &graph,
    ) {
        Err(SnapshotError::Corrupt { detail, .. }) => detail,
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    };
    // Offsets that lie.
    let d = corrupt("first offset", &|p| p.offsets[0] = 1);
    assert!(d.contains("offsets[0]"), "{d}");
    let d = corrupt("non-monotone offsets", &|p| p.offsets.swap(3, 4));
    assert!(d.contains("> offsets["), "{d}");
    let d = corrupt("last offset short of the stream", &|p| {
        *p.offsets.last_mut().unwrap() -= 1
    });
    assert!(d.contains("data length"), "{d}");
    let d = corrupt("a boundary moved into a neighbour", &|p| p.offsets[1] -= 1);
    assert!(d.contains("sample 0"), "{d}");
    let d = corrupt("one offset too few", &|p| {
        p.offsets.pop();
    });
    assert!(d.contains("offsets length"), "{d}");
    let d = corrupt("an offsets length no file could hold", &|p| {
        p.offsets_len = u64::MAX / 16
    });
    assert!(d.contains("exceeds"), "{d}");
    // Counts that lie.
    let d = corrupt("count too high", &|p| p.counts[3] += 1);
    assert!(d.contains("sample 3") && d.contains("truncated"), "{d}");
    let d = corrupt("count too low", &|p| p.counts[3] -= 1);
    assert!(d.contains("sample 3") && d.contains("spans"), "{d}");
    let d = corrupt("a count above n", &|p| p.counts[1] = 4_000_000);
    assert!(d.contains("sample 1") && d.contains("truncated"), "{d}");
    // A block longer than its span says it is.
    let d = corrupt("a trailing byte inside the last block", &|p| {
        p.stream.push(0);
        *p.offsets.last_mut().unwrap() += 1;
    });
    assert!(d.contains("sample 5") && d.contains("spans"), "{d}");
    let d = corrupt("an unterminated varint", &|p| {
        *p.stream.last_mut().unwrap() |= 0x80
    });
    assert!(d.contains("sample 5") && d.contains("truncated"), "{d}");
    // Well-formed blocks that are not this graph's, or not θ of them.
    let d = corrupt("a header θ the payload does not hold", &|p| p.theta += 1);
    assert!(d.contains("samples"), "{d}");
    let thirteen: Vec<Vertex> = (0..13).collect();
    let out_of_range = [kind1_samples(), vec![thirteen]].concat();
    match decode_snapshot(&kind1_file(&out_of_range, |_| {}), &graph) {
        Err(SnapshotError::Corrupt { detail, .. }) => assert!(detail.contains("out of range")),
        other => panic!("13 ids on 12 vertices: expected Corrupt, got {other:?}"),
    }
}

/// A flat store that holds its sets as complements (`--gen ba:2000:8
/// --weights uniform`, fused sampler, where nearly every cascade covers
/// more than 31n/32 vertices) snapshots its logical content with each
/// complement recorded by the ids it leaves out (kind 2), so the file is
/// about the store's size rather than one u32 per vertex entry; the
/// restore holds the same bitmaps and complements and answers every query
/// kind identically.
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
        assert!(svc.store().as_flat().is_none() && held.complement_sets() > 0);
        let forms = held.form_counts();

        let bytes = encode_snapshot(&svc);
        assert_eq!(bytes[20], 2, "complement records");
        let records: u64 = held
            .iter()
            .map(|set| match set {
                RrrSetRef::Complement { missing, .. } => missing.len() as u64,
                set => set.len() as u64,
            })
            .sum();
        let theta = svc.theta() as u64;
        let complements = 8 * (forms.complement_sets + 1);
        assert_eq!(
            bytes.len() as u64,
            72 + complements + 8 * (theta + 3) + 4 * records,
            "the kind-2 payload, one u32 per record entry"
        );
        let resident = svc.store().resident_bytes() as u64;
        assert!(
            bytes.len() as u64 <= 72 + 8 * theta + 2 * resident,
            "{} bytes for a store of {resident} resident bytes",
            bytes.len()
        );
        let restored = decode_snapshot(&bytes, &graph).unwrap();
        assert_eq!(
            restored.store.as_mixed().map(|m| m.form_counts()),
            Some(forms)
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

/// A flat store with no complement writes kind 0, one u32 per entry
/// (a bitmap's too), exactly the bytes it wrote before complement records
/// existed.
#[test]
fn a_list_only_flat_store_writes_kind_0() {
    use ripples_graph::generators::barabasi_albert;
    use ripples_graph::WeightModel;
    let graph = barabasi_albert(500, 3, WeightModel::WeightedCascade, false, 5);
    let params = ImmParams::new(4, 0.4, DiffusionModel::IndependentCascade, 2);
    let svc = SketchService::build(
        &graph,
        params,
        SelectEngine::Auto,
        SampleEngine::Reference,
        StorageConfig::default(),
    );
    let forms = svc.store().form_counts();
    assert!(
        forms.complement_sets == 0 && forms.bitmap_sets > 0,
        "{forms:?}"
    );
    let bytes = encode_snapshot(&svc);
    assert_eq!(bytes[20], 0);
    let (theta, entries) = (svc.theta() as u64, svc.store().total_entries());
    assert_eq!(bytes.len() as u64, 72 + 8 * (theta + 3) + 4 * entries);
    let mut ids = Vec::new();
    for i in 0..svc.theta() {
        svc.store()
            .set(i)
            .for_each(|v| ids.extend_from_slice(&v.to_le_bytes()));
    }
    assert_eq!(&bytes[bytes.len() - ids.len()..], &ids[..]);
    let restored = decode_snapshot(&bytes, &graph).unwrap();
    assert_eq!(restored.store.len(), svc.theta());
}

/// The sections of a kind-2 payload, as a test may tamper with them.
struct Kind2 {
    /// The `complement count` field (`complements.len()` in an honest file).
    count: u64,
    complements: Vec<u64>,
    offsets: Vec<u64>,
    data: Vec<u32>,
    theta: u64,
}

/// 100 vertices, so a complement leaves out at most 3 (32·3 < 100).
fn hundred_vertices() -> Graph {
    let mut b = GraphBuilder::new(100);
    for v in 1..100 {
        b.add_edge(v - 1, v, 0.5).unwrap();
    }
    b.build().unwrap()
}

/// Each record and whether it is a complement's missing ids.
fn kind2_records() -> Vec<(Vec<Vertex>, bool)> {
    vec![
        (vec![1, 5, 9], false),
        (vec![3, 50], true),
        (vec![], false),
        (vec![], true),
        ((0..40).collect(), false),
        (vec![99], true),
    ]
}

/// A v1 kind-2 file over [`hundred_vertices`], laid out from the module
/// doc with nothing of the store's; `tamper` edits the sections first.
fn kind2_file(records: &[(Vec<Vertex>, bool)], tamper: impl FnOnce(&mut Kind2)) -> Vec<u8> {
    let mut parts = Kind2 {
        count: 0,
        complements: Vec::new(),
        offsets: vec![0],
        data: Vec::new(),
        theta: records.len() as u64,
    };
    for (i, (record, complement)) in records.iter().enumerate() {
        if *complement {
            parts.complements.push(i as u64);
        }
        parts.data.extend_from_slice(record);
        parts.offsets.push(parts.data.len() as u64);
    }
    parts.count = parts.complements.len() as u64;
    tamper(&mut parts);
    let mut payload = parts.count.to_le_bytes().to_vec();
    for i in &parts.complements {
        payload.extend_from_slice(&i.to_le_bytes());
    }
    payload.extend_from_slice(&(parts.offsets.len() as u64).to_le_bytes());
    for o in &parts.offsets {
        payload.extend_from_slice(&o.to_le_bytes());
    }
    payload.extend_from_slice(&(parts.data.len() as u64).to_le_bytes());
    for v in &parts.data {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    v1_file(2, &hundred_vertices(), parts.theta, &payload)
}

/// A hand-laid kind-2 file restores to the sets it records: a complement
/// record is every vertex but its ids, in the complement form.
#[test]
fn hand_assembled_kind2_file_restores() {
    let graph = hundred_vertices();
    let records = kind2_records();
    let restored = decode_snapshot(&kind2_file(&records, |_| {}), &graph).unwrap();
    assert_eq!(restored.store.kind(), RrrStoreKind::Flat);
    let sets = restored.store.as_mixed().expect("a flat store");
    assert_eq!(sets.complement_sets(), 3);
    let mut out = Vec::new();
    for (i, (record, complement)) in records.iter().enumerate() {
        restored.store.decode_into(i, &mut out);
        let want: Vec<Vertex> = if *complement {
            (0..100).filter(|v| !record.contains(v)).collect()
        } else {
            record.clone()
        };
        assert_eq!(out, want, "sample {i}");
    }
}

/// Sections of a checksum-valid kind-2 file that lie about each other are
/// structured errors: never a panic, never a sketch.
#[test]
fn checksum_valid_hostile_kind2_payloads_are_rejected() {
    let graph = hundred_vertices();
    let records = kind2_records();
    let corrupt = |what: &str, tamper: &dyn Fn(&mut Kind2)| match decode_snapshot(
        &kind2_file(&records, tamper),
        &graph,
    ) {
        Err(SnapshotError::Corrupt { detail, .. }) => detail,
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    };
    let d = corrupt("a complement count no file could hold", &|p| {
        p.count = u64::MAX / 4
    });
    assert!(d.contains("exceeds"), "{d}");
    let d = corrupt("a complement count past its list", &|p| p.count += 1);
    assert!(d.contains("offset") || d.contains("exceeds"), "{d}");
    let d = corrupt("a complement past θ", &|p| {
        *p.complements.last_mut().unwrap() = 6
    });
    assert!(d.contains("past the payload's 6 samples"), "{d}");
    let d = corrupt("complements out of order", &|p| p.complements.swap(0, 1));
    assert!(d.contains("does not follow"), "{d}");
    let d = corrupt("a list marked as a complement", &|p| p.complements[1] = 4);
    assert!(
        d.contains("sample 4") && d.contains("not a complement"),
        "{d}"
    );
    let d = corrupt("a missing id past n", &|p| {
        p.data[*p.offsets.last().unwrap() as usize - 1] = 100
    });
    assert!(d.contains("sample 5") && d.contains("universe"), "{d}");
    let d = corrupt("missing ids out of order", &|p| p.data.swap(3, 4));
    assert!(d.contains("sample 1") && d.contains("ascending"), "{d}");
    let d = corrupt("one offset too few", &|p| {
        p.offsets.pop();
    });
    assert!(d.contains("data length"), "{d}");
    let d = corrupt("a header θ the payload does not hold", &|p| p.theta += 1);
    assert!(d.contains("samples"), "{d}");
}
