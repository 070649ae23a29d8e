//! Serve-vs-batch equivalence: a resident sketch built once (sized for
//! `k_max`) answers `topk(k)` **bitwise-identically** to a fresh batch run
//! at the same master seed and `k_max` — across every select engine ×
//! store kind combination, on Table 2 stand-in graphs, for
//! k ∈ {1, 10, k_max}; and, per select engine, on a dense graph whose
//! fused-sampled sketch the flat store holds as complements.
//!
//! Also covered here:
//!
//! - `topk_excluding(k, banned)` equals batch selection on a sketch with
//!   the banned vertices filtered out of every sample (independent naive
//!   reference built in this file).
//! - the monotone-k prefix regression: `topk(k_small)` is a prefix of
//!   `topk(k_max)` (the latent assumption the serve mode depends on).
//! - snapshot → restore answers every query bitwise-identically to the
//!   service that wrote the snapshot *and* to fresh batch runs, without
//!   re-sampling.

use ripples_core::seq::immopt_sequential_with_storage;
use ripples_core::{ImmParams, SampleEngine, SelectEngine};
use ripples_diffusion::{DiffusionModel, RrrCollection, RrrStore, RrrStoreKind, StorageConfig};
use ripples_graph::generators::{barabasi_albert, standin};
use ripples_graph::{Graph, Vertex, WeightModel};
use ripples_serve::SketchService;

const K_MAX: u32 = 12;
/// Three distinct query sizes served from ONE resident sketch, each
/// checked bitwise against a fresh batch run.
const QUERY_KS: [u32; 3] = [1, 10, K_MAX];
const MASTER_SEED: u64 = 11;

fn standin_graph(name: &str, divisor: u32) -> Graph {
    let spec = standin(name).unwrap_or_else(|| panic!("unknown stand-in {name}"));
    spec.build(divisor, WeightModel::UniformRandom { seed: 7 }, false)
}

/// `ripples --gen ba:2000:8 --weights uniform`: reverse cascades span
/// almost every vertex, far above the flat store's n/32 density rule.
fn dense_graph() -> Graph {
    barabasi_albert(2000, 8, WeightModel::UniformRandom { seed: 7 }, false, 42)
}

fn sized_params() -> ImmParams {
    ImmParams::new(1, 0.5, DiffusionModel::IndependentCascade, MASTER_SEED).with_k_max(K_MAX)
}

/// The core contract: build one resident sketch, serve the three query
/// sizes, and check each answer (and θ) bitwise against a fresh batch
/// pipeline run configured identically.
fn assert_serve_matches_batch(
    graph: &Graph,
    select: SelectEngine,
    sample: SampleEngine,
    kind: RrrStoreKind,
) -> SketchService {
    let params = sized_params();
    let mut svc = SketchService::build(graph, params, select, sample, StorageConfig::of(kind));
    for k in QUERY_KS {
        let (served, report) = svc.topk(k).expect("query within k_max");
        assert_eq!(served.len(), k as usize);
        assert!(report.covered > 0, "degenerate sketch");

        let mut p = params;
        p.k = k;
        let batch =
            immopt_sequential_with_storage(graph, &p, select, sample, StorageConfig::of(kind));
        assert_eq!(
            served,
            batch.seeds,
            "serve/batch divergence: {}/{} at k={k}",
            select.tag(),
            kind.tag()
        );
        assert_eq!(
            svc.theta(),
            batch.theta,
            "θ divergence: {}/{} at k={k}",
            select.tag(),
            kind.tag()
        );
    }
    svc
}

macro_rules! serve_grid {
    ($($test:ident: ($select:ident, $store:ident),)*) => {
        $(
            #[test]
            fn $test() {
                let graph = standin_graph("cit-HepTh", 96);
                assert_serve_matches_batch(
                    &graph,
                    SelectEngine::$select,
                    SampleEngine::Reference,
                    RrrStoreKind::$store,
                );
            }
        )*
    };
}

/// The flat store with its dense sets held as bitmaps or complements, fed
/// by the fused sampler's transposed lane masks.
macro_rules! serve_grid_dense {
    ($($test:ident: $select:ident,)*) => {
        $(
            #[test]
            fn $test() {
                let svc = assert_serve_matches_batch(
                    &dense_graph(),
                    SelectEngine::$select,
                    SampleEngine::Fused,
                    RrrStoreKind::Flat,
                );
                let store = svc.store().as_mixed().expect("flat kind");
                assert!(store.form_counts().sets() > 0 && svc.store().as_flat().is_none());
            }
        )*
    };
}

serve_grid! {
    sequential_flat: (Sequential, Flat),
    sequential_spill: (Sequential, Spill),
    partitioned_flat: (Partitioned, Flat),
    partitioned_spill: (Partitioned, Spill),
    fused_flat: (Fused, Flat),
    fused_spill: (Fused, Spill),
    auto_flat: (Auto, Flat),
    auto_spill: (Auto, Spill),
}

serve_grid_dense! {
    sequential_flat_dense: Sequential,
    partitioned_flat_dense: Partitioned,
    fused_flat_dense: Fused,
    auto_flat_dense: Auto,
}

/// Second stand-in graph: one spot check per store family so the contract
/// is not a cit-HepTh artifact.
#[test]
fn epinions_sequential_flat_and_spill() {
    let graph = standin_graph("soc-Epinions1", 256);
    for kind in [RrrStoreKind::Flat, RrrStoreKind::Spill] {
        assert_serve_matches_batch(
            &graph,
            SelectEngine::Sequential,
            SampleEngine::Reference,
            kind,
        );
    }
}

/// The fused *sampling* kernel feeds the same resident sketch: serve and
/// batch must still agree bitwise when both use it.
#[test]
fn fused_sampler_serves_bitwise() {
    let graph = standin_graph("cit-HepTh", 96);
    let params = sized_params();
    let mut svc = SketchService::build(
        &graph,
        params,
        SelectEngine::Sequential,
        SampleEngine::Fused,
        StorageConfig::default(),
    );
    for k in QUERY_KS {
        let (served, _) = svc.topk(k).unwrap();
        let mut p = params;
        p.k = k;
        let batch = immopt_sequential_with_storage(
            &graph,
            &p,
            SelectEngine::Sequential,
            SampleEngine::Fused,
            StorageConfig::default(),
        );
        assert_eq!(served, batch.seeds, "fused-sampler divergence at k={k}");
    }
}

/// Independent naive reference for `topk_excluding`: decode every sample
/// of the resident store, drop the banned vertices, and run the ordinary
/// sequential greedy on the filtered collection.
fn filtered_reference(svc: &SketchService, n: u32, k: u32, banned: &[Vertex]) -> Vec<Vertex> {
    let mut filtered = RrrCollection::new();
    let mut buf = Vec::new();
    for i in 0..svc.store().len() {
        svc.store().decode_into(i, &mut buf);
        let kept: Vec<Vertex> = buf
            .iter()
            .copied()
            .filter(|v| !banned.contains(v))
            .collect();
        filtered.push(&kept);
    }
    let (sel, _) =
        ripples_core::select::select_with_engine(SelectEngine::Sequential, &filtered, n, k, 1);
    sel.seeds
}

/// `topk_excluding` ≡ batch selection on the vertex-filtered sketch, through
/// whichever engine the service was built with, and at the cost of that
/// engine's `topk`: both queries touch the entries of the samples their
/// seeds cover.
#[test]
fn excluding_equals_filtered_sketch_selection() {
    let graph = standin_graph("cit-HepTh", 96);
    for engine in [
        SelectEngine::Sequential,
        SelectEngine::Partitioned,
        SelectEngine::Fused,
        SelectEngine::Auto,
    ] {
        let mut svc = SketchService::build(
            &graph,
            sized_params(),
            engine,
            SampleEngine::Reference,
            StorageConfig::default(),
        );
        // Ban the unconstrained winners — the most adversarial exclusion set.
        let (top, _) = svc.topk(3).unwrap();
        for k in [1u32, 4, 8] {
            let (served, report) = svc.topk_excluding(k, &top).unwrap();
            let reference = filtered_reference(&svc, graph.num_vertices(), k, &top);
            assert_eq!(
                served,
                reference,
                "{}: excluding divergence at k={k}",
                engine.tag()
            );
            for b in &top {
                assert!(!served.contains(b), "banned vertex {b} served at k={k}");
            }
            assert!(report.entries_touched > 0, "{}", engine.tag());
        }
        let (_, unbanned) = svc.topk_excluding(4, &[]).unwrap();
        let (_, plain) = svc.topk(4).unwrap();
        assert_eq!(
            unbanned.entries_touched,
            plain.entries_touched,
            "{}",
            engine.tag()
        );
    }
}

/// The monotone-k regression: every engine picks seed `i` with a
/// `k`-independent argmax, so `topk(k₁)` must be a prefix of `topk(k₂)`
/// for `k₁ ≤ k₂`. This is the property that lets ONE resident sketch
/// answer all k ≤ k_max consistently.
#[test]
fn topk_small_is_prefix_of_topk_max() {
    let graph = standin_graph("cit-HepTh", 96);
    for engine in [
        SelectEngine::Sequential,
        SelectEngine::Partitioned,
        SelectEngine::Fused,
        SelectEngine::Auto,
    ] {
        let mut svc = SketchService::build(
            &graph,
            sized_params(),
            engine,
            SampleEngine::Reference,
            StorageConfig::default(),
        );
        let (full, _) = svc.topk(K_MAX).unwrap();
        for k in 1..K_MAX {
            let (prefix, _) = svc.topk(k).unwrap();
            assert_eq!(
                &prefix[..],
                &full[..k as usize],
                "prefix violation: {} at k={k}",
                engine.tag()
            );
        }
    }
}

/// Snapshot → restore: the restored service answers every query size
/// bitwise-identically to the writer and to fresh batch runs, without
/// re-running sampling (its store is byte-restored, θ included). The dense
/// case snapshots a flat store that holds complements: the file carries the
/// sets' logical content and the restore re-encodes them. The spill case
/// snapshots a sketch past its tiny budget: a sketch keeps its samples, in
/// RAM, so it writes nothing to disk and the file the flat store writes.
#[test]
fn snapshot_restore_serves_bitwise_identically() {
    let standin = standin_graph("cit-HepTh", 96);
    let dense = dense_graph();
    let params = sized_params();
    let flat = StorageConfig::default();
    // The sketch's samples pass this budget many times over.
    let spilled = StorageConfig {
        kind: RrrStoreKind::Spill,
        budget: Some(4096),
    };
    for (case, graph, storage, sample) in [
        ("flat", &standin, flat, SampleEngine::Reference),
        ("spill", &standin, spilled, SampleEngine::Reference),
        ("dense", &dense, flat, SampleEngine::Fused),
    ] {
        let mut original =
            SketchService::build(graph, params, SelectEngine::Sequential, sample, storage);
        let written = original
            .build_result()
            .unwrap()
            .report
            .counters
            .spill_bytes_written;
        assert_eq!(written, 0, "{case}");
        let path = std::env::temp_dir().join(format!(
            "ripples-serve-test-{}-{case}.snap",
            std::process::id(),
        ));
        original.snapshot_to(&path).expect("snapshot writes");
        let mut restored = SketchService::restore_from(&path, graph, SelectEngine::Sequential)
            .expect("snapshot restores");
        std::fs::remove_file(&path).ok();

        assert_eq!(restored.theta(), original.theta());
        assert_eq!(restored.params(), original.params());
        let forms = |svc: &SketchService| svc.store().as_mixed().map(|m| m.form_counts());
        assert_eq!(forms(&restored), forms(&original), "{case}");
        assert!(case != "dense" || forms(&original).is_some_and(|f| f.complement_sets > 0));
        for k in QUERY_KS {
            let (a, _) = original.topk(k).unwrap();
            let (b, _) = restored.topk(k).unwrap();
            assert_eq!(a, b, "restored sketch diverged at k={k} ({case})");

            let mut p = params;
            p.k = k;
            let batch = immopt_sequential_with_storage(
                graph,
                &p,
                SelectEngine::Sequential,
                sample,
                storage,
            );
            assert_eq!(
                b, batch.seeds,
                "restored sketch diverged from batch at k={k} ({case})"
            );
        }
        // Exclusions and spread estimates come off the identical samples.
        let (seeds, _) = restored.topk(4).unwrap();
        let (x1, _) = original.topk_excluding(4, &seeds[..2]).unwrap();
        let (x2, _) = restored.topk_excluding(4, &seeds[..2]).unwrap();
        assert_eq!(x1, x2, "{case}");
        let (e1, _) = original.spread_estimate(&seeds).unwrap();
        let (e2, _) = restored.spread_estimate(&seeds).unwrap();
        assert!((e1 - e2).abs() < 1e-12);
    }
}

/// A query over an unchanged sketch absorbs no sample and builds no index:
/// the first indexed selection brings the store's one index up to θ — during
/// the build, or on a restored service's first query, a snapshot carrying
/// none — and every later `topk` / `topk_excluding` finds it there, while
/// the answers stay the batch run's.
#[test]
fn queries_leave_the_cached_index_as_the_first_left_it() {
    let graph = standin_graph("cit-HepTh", 96);
    let (select, sample, storage) = (
        SelectEngine::Fused,
        SampleEngine::Reference,
        StorageConfig::default(),
    );
    let mut built = SketchService::build(&graph, sized_params(), select, sample, storage);
    let path = std::env::temp_dir().join(format!(
        "ripples-serve-test-{}-index.snap",
        std::process::id()
    ));
    built.snapshot_to(&path).expect("snapshot writes");
    let mut restored = SketchService::restore_from(&path, &graph, select).expect("restores");
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.store().indexed_samples(), 0);

    let mut params = sized_params();
    params.k = K_MAX;
    let batch = immopt_sequential_with_storage(&graph, &params, select, sample, storage).seeds;
    for (case, svc) in [("built", &mut built), ("restored", &mut restored)] {
        let (first, _) = svc.topk(K_MAX).unwrap();
        assert_eq!(first, batch, "{case}");
        assert_eq!(svc.store().indexed_samples(), svc.theta(), "{case}");
        for k in QUERY_KS {
            let (top, _) = svc.topk(k).unwrap();
            assert_eq!(top, batch[..k as usize], "{case} topk({k})");
            let (excluding, _) = svc.topk_excluding(k, &batch[..2]).unwrap();
            let reference = filtered_reference(svc, graph.num_vertices(), k, &batch[..2]);
            assert_eq!(excluding, reference, "{case} topk_excluding({k})");
            assert_eq!(svc.store().indexed_samples(), svc.theta(), "{case}");
        }
    }
}

/// Kills the serve child process even when the test panics.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Regression: one wedged TCP client (connected, silent, never closing)
/// must not starve later connections. The accept loop now puts a read
/// timeout on every session, so the wedged session errors out and the
/// next client gets served — the client's I/O failure ends its session,
/// never the process.
#[test]
fn tcp_wedged_client_does_not_starve_next_connection() {
    use std::io::{BufRead, BufReader, Write};

    let child = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--gen",
            "er:60:240",
            "--k-max",
            "4",
            "--epsilon",
            "0.5",
            "--tcp",
            "127.0.0.1:0",
            "--read-timeout-ms",
            "300",
        ])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut guard = ChildGuard(child);

    // The startup banner carries the bound address (port 0 → ephemeral).
    let stderr = guard.0.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before listening")
            .expect("read stderr");
        if let Some(rest) = line.strip_prefix("serve: listening on ") {
            break rest.trim().to_string();
        }
    };

    // Client A connects and wedges: no bytes, no close.
    let wedged = std::net::TcpStream::connect(&addr).expect("connect wedged client");

    // Client B connects afterwards and must still be answered once A's
    // read times out (300 ms). The generous client-side timeout is only a
    // failsafe so a regression fails rather than hangs the suite.
    let mut second = std::net::TcpStream::connect(&addr).expect("connect second client");
    second
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("client timeout");
    writeln!(second, "{{\"op\":\"info\"}}").expect("send request");
    second.flush().expect("flush request");
    let mut reply = String::new();
    BufReader::new(second.try_clone().expect("clone"))
        .read_line(&mut reply)
        .expect("second client starved: no reply before client timeout");
    assert!(
        reply.contains("\"ok\":true"),
        "unexpected reply to second client: {reply}"
    );
    drop(wedged);
}
