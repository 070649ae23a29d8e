//! One round of one workload, run in a fresh child process: load the graph
//! file (set-up), make the one timed engine call (or the serve lifecycle
//! and closed query loop), check the answer, print values and checks.
//!
//! Nothing here enables `ripples_trace` or `ripples_metrics`.

use crate::host::{cpu_seconds, peak_rss_bytes};
use crate::reference::reference_slices;
use crate::spec::{
    reference_slice, Call, Workload, IMM_SEED, LIFECYCLES, SERVE_BANNED, SERVE_BANNED_BELOW,
    SERVE_ESTIMATE_SEEDS, SERVE_EXCLUDING_KS, SERVE_PERIOD, SERVE_SEQUENCE, SERVE_TOPK_KS,
    SPREAD_SEED, SPREAD_TRIALS,
};
use crate::stats::{median, percentile};
use ripples_core::obs::SpanNode;
use ripples_core::{mt, ImmParams, ImmResult, SampleEngine, SelectEngine};
use ripples_diffusion::{estimate_spread, StorageConfig};
use ripples_graph::io::{read_edge_list_file, EdgeListOptions, VertexIds};
use ripples_graph::{Graph, Vertex};
use ripples_rng::{SplitMix64, StreamFactory};
use ripples_serve::{QueryError, SketchService};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What the parent tells a child.
pub struct ChildArgs {
    pub workload: &'static Workload,
    pub graph_path: PathBuf,
    pub workload_seed: u64,
    pub threads: usize,
    /// Round 0 also estimates the spread of the returned seeds.
    pub round: usize,
    /// Seconds the closed query loop of `serve_mix` lasts.
    pub loop_seconds: f64,
    pub smoke: bool,
    /// Directory for snapshots (spill files follow `TMPDIR`).
    pub scratch: PathBuf,
    /// Where the traced replay writes its spans; `None` for a timed round.
    pub spans_out: Option<PathBuf>,
}

/// What a child printed, as the parent reads it back.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    pub values: BTreeMap<String, f64>,
    /// `(name, passed, detail)` of every checked operation.
    pub checks: Vec<(String, bool, String)>,
    pub seeds: Vec<Vertex>,
}

impl ChildReport {
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn parse(text: &str) -> Self {
        let mut report = Self::default();
        for line in text.lines() {
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("v"), Some(name), Some(value)) => {
                    if let Ok(v) = value.parse() {
                        report.values.insert(name.to_string(), v);
                    }
                }
                (Some("c"), Some(ok), Some(rest)) => {
                    let (name, detail) = rest.split_once(' ').unwrap_or((rest, ""));
                    report
                        .checks
                        .push((name.to_string(), ok == "1", detail.to_string()));
                }
                (Some("seeds"), Some(list), None) => {
                    report.seeds = list.split(',').filter_map(|s| s.parse().ok()).collect();
                }
                _ => {}
            }
        }
        report
    }
}

pub fn emit_value(name: &str, value: f64) {
    println!("v {name} {value}");
}

pub fn emit_check(name: &str, ok: bool, detail: &str) {
    println!("c {} {name} {detail}", u8::from(ok));
}

fn emit_seeds(seeds: &[Vertex]) {
    let list: Vec<String> = seeds.iter().map(ToString::to_string).collect();
    println!("seeds {}", list.join(","));
}

pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build rayon pool")
}

/// Everything before the first timed call.
pub fn load_graph(workload: &Workload, path: &Path, workload_seed: u64) -> Graph {
    let options = EdgeListOptions {
        vertex_ids: VertexIds::Literal,
        undirected: false,
        default_prob: 1.0,
        weights: Some(workload.weights.model(workload_seed)),
    };
    let graph = read_edge_list_file(path, options).expect("read the generated edge list");
    graph.validate().expect("loaded graph is valid");
    graph
}

/// `k` distinct vertices of the graph.
pub fn seeds_are_valid(seeds: &[Vertex], k: u32, n: u32) -> bool {
    let mut sorted = seeds.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    seeds.len() == k as usize && sorted.len() == seeds.len() && seeds.iter().all(|&v| v < n)
}

pub fn seeds_fingerprint(seeds: &[Vertex]) -> u64 {
    seeds.iter().fold(0x5EED, |h, &v| {
        ripples_rng::splitmix::mix64(h ^ u64::from(v))
    })
}

/// Seconds inside the outermost spans carrying one of `names`.
fn span_seconds(spans: &[SpanNode], names: &[&str]) -> f64 {
    spans
        .iter()
        .map(|span| {
            if names.contains(&span.name.as_str()) {
                span.nanos as f64 / 1e9
            } else {
                span_seconds(&span.children, names)
            }
        })
        .sum()
}

/// Counters of the returned `ImmResult`; all but the byte peaks repeat
/// exactly for a given graph.
fn emit_counters(result: &ImmResult) {
    let c = &result.report.counters;
    emit_value("theta", result.theta as f64);
    emit_value("theta_rounds", c.theta_rounds as f64);
    emit_value("samples_generated", c.samples_generated as f64);
    emit_value("edges_examined", c.edges_examined as f64);
    emit_value("rrr_entries", c.rrr_entries as f64);
    emit_value("fused_passes", c.fused_passes as f64);
    emit_value("rrr_bytes_peak", c.rrr_bytes_peak as f64);
    emit_value("spill_bytes_written", c.spill_bytes_written as f64);
    emit_value("select_entries_touched", c.select_entries_touched as f64);
    emit_value("select_iterations", c.select_iterations as f64);
    emit_value("index_build_s", c.index_build_nanos as f64 / 1e9);
    emit_value("graph_bytes_peak", c.graph_bytes_peak as f64);
    emit_value("frontier_exchanges", c.frontier_exchanges as f64);
    emit_value("overlap_s", c.overlap_nanos as f64 / 1e9);
    // Time the engine's own phase tree spent sampling and selecting; what
    // is left of the solve is the driver's loop, merge and report overhead.
    let spans = result.report.spans();
    emit_value("sample_span_s", span_seconds(spans, &["sample", "Sample"]));
    emit_value(
        "select_span_s",
        span_seconds(spans, &["select", "SelectSeeds"]),
    );
    let comm_bytes = result.report.comm.map_or(0, |c| c.bytes_moved);
    emit_value("comm_bytes", comm_bytes as f64);
}

fn emit_spread(workload: &Workload, graph: &Graph, seeds: &[Vertex], threads: usize) {
    let spread = pool(threads).install(|| {
        estimate_spread(
            graph,
            workload.model,
            seeds,
            SPREAD_TRIALS,
            &StreamFactory::new(SPREAD_SEED),
        )
    });
    let fraction = spread / f64::from(graph.num_vertices());
    emit_value("spread_fraction", fraction);
    emit_check(
        "spread_floor",
        fraction >= workload.spread_floor,
        &format!("{fraction:.5} against floor {}", workload.spread_floor),
    );
}

pub fn run_round(args: &ChildArgs) {
    let workload = args.workload;
    // Set-up is the load alone: the engine builds its rayon pool inside the
    // timed call.
    let started = Instant::now();
    let graph = load_graph(workload, &args.graph_path, args.workload_seed);
    emit_value("setup_s", started.elapsed().as_secs_f64());
    emit_value("graph_bytes", graph.resident_bytes() as f64);
    let seeds = match workload.call {
        Call::Mt(storage) => batch_round(args, &graph, storage),
        Call::Serve => serve_round(args, &graph),
    };
    // The host's speed, taken right after the timed phases.
    let (probes, _) = reference_slice(args.smoke);
    let slices = reference_slices(probes, workload.busy_threads(args.threads));
    emit_value("reference_slice_s", median(&slices));
    emit_seeds(&seeds);
    if args.round == 0 {
        emit_spread(workload, &graph, &seeds, args.threads);
    }
}

/// Runs `call` once; returns its result, wall seconds and the CPU seconds
/// this process used meanwhile.
fn timed<T>(call: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu_before = cpu_seconds();
    let began = Instant::now();
    let out = call();
    let wall = began.elapsed().as_secs_f64();
    (out, wall, cpu_seconds() - cpu_before)
}

/// One solve per child: the round's time, CPU and peak RSS all describe the
/// same single call. Returns the seeds.
fn batch_round(args: &ChildArgs, graph: &Graph, storage: StorageConfig) -> Vec<Vertex> {
    let workload = args.workload;
    let params = ImmParams::new(workload.k, workload.epsilon, workload.model, IMM_SEED);
    let (result, wall_s, cpu_s) = timed(|| {
        mt::imm_multithreaded_with_storage(
            graph,
            &params,
            args.threads,
            SelectEngine::Auto,
            SampleEngine::Auto,
            storage,
        )
    });
    emit_value("peak_rss_bytes", peak_rss_bytes() as f64);
    emit_value("time_to_seeds_s", wall_s);
    emit_value("cpu_s", cpu_s);
    emit_value("timed_wall_s", wall_s);
    emit_check(
        "solve",
        seeds_are_valid(&result.seeds, workload.k, graph.num_vertices()),
        &format!("{} seeds, theta {}", result.seeds.len(), result.theta),
    );
    emit_counters(&result);
    result.seeds
}

#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    Topk(u32),
    Excluding(u32, Vec<Vertex>),
    Estimate(Vec<Vertex>),
}

impl Query {
    pub fn op(&self) -> &'static str {
        match self {
            Query::Topk(_) => "topk",
            Query::Excluding(..) => "topk_excluding",
            Query::Estimate(_) => "spread_estimate",
        }
    }
}

fn distinct_below(rng: &mut SplitMix64, count: usize, bound: u64) -> Vec<Vertex> {
    let mut picked: Vec<Vertex> = Vec::with_capacity(count);
    while picked.len() < count {
        let v = rng.bounded_u64(bound) as Vertex;
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked
}

/// The query mix: 50% `topk`, 25% `topk_excluding`, 25% `spread_estimate`,
/// in a fixed interleaving with the `k` values taken in turn, so that every
/// `SERVE_PERIOD` queries have the same composition and the latency
/// percentiles do not depend on the seed. The seed picks the banned ids and
/// the seed sets to estimate.
pub fn query_sequence(workload_seed: u64, n: u32) -> Vec<Query> {
    let mut rng = SplitMix64::for_stream(workload_seed, 0x5155_4552);
    let (mut topk, mut excluding) = (
        SERVE_TOPK_KS.iter().cycle(),
        SERVE_EXCLUDING_KS.iter().cycle(),
    );
    (0..SERVE_SEQUENCE)
        .map(|i| match i % 4 {
            0 | 2 => Query::Topk(*topk.next().expect("cycle never ends")),
            1 => {
                let k = *excluding.next().expect("cycle never ends");
                let below = SERVE_BANNED_BELOW.min(u64::from(n));
                Query::Excluding(k, distinct_below(&mut rng, SERVE_BANNED, below))
            }
            _ => Query::Estimate(distinct_below(&mut rng, SERVE_ESTIMATE_SEEDS, u64::from(n))),
        })
        .collect()
}

/// Runs one query; returns whether the answer holds up and the entries the
/// service touched. `reference` is the `topk(k_max)` answer.
pub fn run_query(service: &mut SketchService, query: &Query, reference: &[Vertex]) -> (bool, u64) {
    let n = service.num_vertices();
    match query {
        Query::Topk(k) => match service.topk(*k) {
            Ok((seeds, report)) => (seeds == reference[..*k as usize], report.entries_touched),
            Err(_) => (false, 0),
        },
        Query::Excluding(k, banned) => match service.topk_excluding(*k, banned) {
            Ok((seeds, report)) => (
                seeds_are_valid(&seeds, *k, n) && seeds.iter().all(|s| !banned.contains(s)),
                report.entries_touched,
            ),
            Err(_) => (false, 0),
        },
        Query::Estimate(seeds) => match service.spread_estimate(seeds) {
            Ok((estimate, _)) => ((0.0..=f64::from(n)).contains(&estimate), 0),
            Err(_) => (false, 0),
        },
    }
}

pub fn serve_params(workload: &Workload) -> ImmParams {
    ImmParams::new(workload.k, workload.epsilon, workload.model, IMM_SEED).with_k_max(workload.k)
}

pub fn build_service(workload: &Workload, graph: &Graph) -> SketchService {
    SketchService::build(
        graph,
        serve_params(workload),
        SelectEngine::Auto,
        SampleEngine::Auto,
        StorageConfig::default(),
    )
}

/// build → `topk(k_max)` → snapshot → restore → `topk(k_max)` on the
/// restored service; each step is one checked operation.
fn lifecycle(
    workload: &Workload,
    graph: &Graph,
    snapshot: &Path,
) -> (SketchService, SketchService, Vec<Vertex>) {
    let n = graph.num_vertices();
    let mut built = build_service(workload, graph);
    emit_check(
        "lifecycle.build",
        built.theta() > 0,
        &format!("theta {}", built.theta()),
    );
    let top = built.topk(workload.k).map(|(s, _)| s).unwrap_or_default();
    emit_check(
        "lifecycle.topk",
        seeds_are_valid(&top, workload.k, n),
        "topk(k_max) on the built service",
    );
    let written = built.snapshot_to(snapshot);
    emit_check("lifecycle.snapshot", written.is_ok(), "snapshot_to");
    let restored = SketchService::restore_from(snapshot, graph, SelectEngine::Auto);
    emit_check("lifecycle.restore", restored.is_ok(), "restore_from");
    let mut restored = restored.unwrap_or_else(|e| panic!("restore failed: {e}"));
    let again = restored
        .topk(workload.k)
        .map(|(s, _)| s)
        .unwrap_or_default();
    emit_check(
        "lifecycle.restored_topk",
        again == top,
        "restored topk(k_max) equals the built service's",
    );
    (built, restored, top)
}

/// The contract checks made once per round, outside every timed phase.
fn check_service_contract(
    workload: &Workload,
    built: &mut SketchService,
    restored: &mut SketchService,
    reference: &[Vertex],
    sequence: &[Query],
) {
    for k in SERVE_TOPK_KS {
        let prefix = built.topk(k).map(|(s, _)| s).unwrap_or_default();
        emit_check(
            "serve.prefix",
            prefix == reference[..k as usize],
            &format!("topk({k}) is a prefix of topk(k_max)"),
        );
    }
    let refused = matches!(
        built.topk(workload.k + 1),
        Err(QueryError::KTooLarge { .. })
    );
    emit_check("serve.k_too_large", refused, "topk(k_max + 1) is refused");
    for op in ["topk_excluding", "spread_estimate"] {
        let query = sequence.iter().find(|q| q.op() == op);
        let same = match query {
            Some(Query::Excluding(k, banned)) => {
                built.topk_excluding(*k, banned).map(|(s, _)| s).ok()
                    == restored.topk_excluding(*k, banned).map(|(s, _)| s).ok()
            }
            Some(Query::Estimate(seeds)) => {
                built.spread_estimate(seeds).map(|(e, _)| e).ok()
                    == restored.spread_estimate(seeds).map(|(e, _)| e).ok()
            }
            _ => false,
        };
        emit_check(
            "serve.restored_equal",
            same,
            &format!("restored {op} equals the built service's"),
        );
    }
}

/// Returns the `topk(k_max)` answer.
fn serve_round(args: &ChildArgs, graph: &Graph) -> Vec<Vertex> {
    let workload = args.workload;
    let snapshot = args.scratch.join("sketch.snapshot");
    let sequence = query_sequence(args.workload_seed, graph.num_vertices());

    // A fixed number of lifecycles; each frees the one before it first, so
    // the peak RSS is that of one lifecycle however many run.
    let mut lifecycle_walls = Vec::with_capacity(LIFECYCLES);
    let mut timed_cpu_s = 0.0;
    let mut services = None;
    for _ in 0..LIFECYCLES {
        drop(services.take());
        let (out, wall_s, cpu_s) = timed(|| lifecycle(workload, graph, &snapshot));
        lifecycle_walls.push(wall_s);
        timed_cpu_s += cpu_s;
        services = Some(out);
    }
    let (mut service, mut restored, reference) = services.expect("LIFECYCLES is positive");
    check_service_contract(workload, &mut service, &mut restored, &reference, &sequence);
    drop(restored);

    // Closed loop, one client: the next query is sent when the previous
    // one has been answered, for a fixed time.
    let budget = Duration::from_secs_f64(args.loop_seconds);
    let mut latencies_ms = Vec::new();
    let (mut failed, mut touched) = (0u64, 0u64);
    let cpu_before = cpu_seconds();
    let loop_started = Instant::now();
    // Whole periods only, so that every round times the same composition.
    while loop_started.elapsed() < budget || latencies_ms.len() % SERVE_PERIOD != 0 {
        let query = &sequence[latencies_ms.len() % sequence.len()];
        let sent = Instant::now();
        let (ok, entries) = run_query(&mut service, query, &reference);
        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(!ok);
        touched += entries;
    }
    let loop_s = loop_started.elapsed().as_secs_f64();
    timed_cpu_s += cpu_seconds() - cpu_before;
    let queries = latencies_ms.len() as u64;

    emit_value("peak_rss_bytes", peak_rss_bytes() as f64);
    emit_value("time_to_seeds_s", median(&lifecycle_walls));
    emit_value("cpu_s", timed_cpu_s);
    emit_value("timed_wall_s", lifecycle_walls.iter().sum::<f64>() + loop_s);
    emit_value("queries_per_s", queries as f64 / loop_s);
    emit_value("query_p50_ms", percentile(&latencies_ms, 0.5));
    emit_value("query_p95_ms", percentile(&latencies_ms, 0.95));
    emit_value("queries", queries as f64);
    emit_value("entries_touched_per_query", touched as f64 / queries as f64);
    emit_value("sketch_bytes", service.resident_bytes() as f64);
    emit_value("queries_failed", failed as f64);
    if let Some(result) = service.build_result() {
        emit_counters(result);
    }
    reference
}
