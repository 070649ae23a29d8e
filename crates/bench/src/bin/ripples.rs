//! `ripples` — command-line influence maximization.
//!
//! Loads a SNAP-style edge list (or generates a named stand-in) and runs
//! the chosen IMM engine, printing the seed set and full instrumentation.
//! Every `--engine` runs an IMM pipeline (`tim` runs TIM⁺'s) and produces a
//! run report. The Monte-Carlo CELF greedy and degree-discount comparators
//! are library functions (`ripples_core::celf`, `ripples_core::heuristics`)
//! that `examples/baseline_comparison.rs` runs.
//!
//! ```text
//! ripples --input graph.txt [--undirected] [--weights uniform|wc|const:P|tri]
//!         [--engine opt|baseline|mt|dist|sharded|tim]
//!         [--model ic|lt] [--k K] [--epsilon E] [--seed S]
//!         [--threads T | --ranks R] [--simulate TRIALS]
//!         [--select auto|sequential|partitioned|fused]
//!         [--sample auto|reference|fused]
//!         [--rrr-store flat|spill] [--rrr-budget BYTES]
//!         [--report pretty|json] [--report-out FILE]
//!         [--trace FILE] [--trace-buffer EVENTS]
//!         [--metrics FILE] [--metrics-interval DUR] [--metrics-prom FILE]
//!         [--progress]
//!         [--chaos-seed S] [--chaos-rate R]
//! ripples --standin com-Orkut --scale-div 64 ...
//! ripples --gen ba:2000:8 [--gen-seed S] ...   # synthetic BA / ER graphs
//! ```
//!
//! A flag the chosen engine does not read (`--select`, `--sample`,
//! `--threads`, `--ranks`, `--rrr-store`, `--chaos-seed`) is ignored with a
//! `warning: --FLAG only affects the … engines` line on stderr.
//!
//! `--select` picks the greedy max-cover engine for the `opt` and `mt`
//! engines (default `auto`, a cost-model dispatch between `fused` and
//! `partitioned` — one engine body with and without an inverted index;
//! every choice returns the same seed set — see EXPERIMENTS.md
//! § "Selection engines").
//!
//! `--sample` picks the RRR sampling kernel for the `opt`, `mt`, and `tim`
//! engines (default `reference`). `fused` advances 64 cascades per frontier
//! pass with bitmask state; `auto` probes the first batch and switches to
//! the fused kernel only when mean cascade size repays the fusing overhead.
//! The fused kernel draws a different RNG schedule, so its seed sets are
//! statistically (not bitwise) equivalent to the reference — see
//! EXPERIMENTS.md § "Choosing a sampling engine".
//!
//! `--rrr-store` picks the RRR storage for the `opt`, `mt`, `dist`,
//! `sharded`, and `tim` engines. Both kinds hold the samples as sorted
//! lists, with a set spanning more than n/32 vertices held as an n-bit
//! bitmap and one spanning more than 31n/32 as the ids it leaves out.
//! `spill` adds a byte budget, `--rrr-budget` (default 1 GiB): an `opt` or
//! `mt` run that selects from the inverted index alone samples into a stage
//! of at most half the budget, and the index's sealed segments go to a
//! temporary file once the stage and the index would pass it; below the
//! budget nothing touches the disk. A run that keeps its samples holds them
//! in RAM and prints one note when they pass the budget. Either kind
//! returns the same seed set at the same `--seed` — see EXPERIMENTS.md
//! § "Choosing an RRR storage backend".
//!
//! `--report` prints the engine's full [`ripples_core::RunReport`] (phase span tree, work
//! counters, RRR size histogram, communication accounting) to stderr —
//! `pretty` (alias `text`) for humans, `json` for one machine-readable
//! line; `--report-out FILE` writes it to a file instead. Seeds stay on
//! stdout either way. Its `rss_hwm_after_load` and `rss_hwm_after_solve`
//! rows are the process's `VmHWM` right after the graph was loaded and
//! right after the solve, so they tell which of the two set the peak (0
//! off Linux).
//!
//! `--trace FILE` enables the structured event tracer for the run and
//! writes a Chrome Trace Event Format JSON file (open in `chrome://tracing`
//! or <https://ui.perfetto.dev>; one track per worker thread / rank).
//! `--trace-buffer` caps the per-worker ring size in events (default
//! 16384, env `RIPPLES_TRACE_BUFFER`); overflowing events are dropped and
//! counted, never blocking the run.
//!
//! `--metrics FILE` enables the live metrics registry for the run and
//! writes a schema-versioned JSON time series (`ripples-metrics-v2`) of
//! every counter and gauge, sampled on a background thread every
//! `--metrics-interval` (default 250ms; accepts `50ms`, `1s`, or a plain
//! millisecond count). `--metrics-prom FILE` writes the final registry
//! state as Prometheus text exposition. `--progress` prints a live
//! heartbeat to stderr each tick (phase, θ progress, sampling rate, ETA,
//! live MB) and can run without either output file. Each exporter needs
//! its own path — colliding output files are rejected up front. See
//! EXPERIMENTS.md § "Live-monitoring a run".
//!
//! `--chaos-seed S` injects a deterministic fault schedule (dropped, delayed
//! and truncated collectives) into the `dist`/`sharded` engines'
//! communicator; `--chaos-rate R` sets the per-op fault probability (default
//! 0.02). The same decorator (`FaultComm`) retries the failed attempts and
//! degrades past a dead rank, so the run completes and prints a robustness
//! summary (retries, dropped ops, degraded ranks); the same seed
//! always reproduces the same faults.

use ripples_bench::{
    load_graph, parse_epsilon, parse_sample, parse_select, parse_storage, rss_high_water_mark,
    Args, GraphSourceError,
};
use ripples_comm::{FaultComm, FaultPlan, ThreadWorld};
use ripples_core::obs::trace;
use ripples_core::{
    dist::imm_distributed_with_storage,
    dist_sharded::imm_sharded_with_storage,
    mt::imm_multithreaded_with_storage,
    seq::{imm_baseline, immopt_sequential, immopt_sequential_with_storage},
    tim::tim_plus_with_storage,
    ImmParams, SampleEngine, SelectEngine,
};
use ripples_diffusion::{estimate_spread, DiffusionModel, RrrStoreKind};
use ripples_graph::{GraphStats, WeightModel};
use ripples_rng::StreamFactory;

const USAGE: &str = "usage: ripples (--input FILE | --standin NAME | --gen ba:N:M|er:N:M) \
     [--weights uniform|wc|const:P|tri] [--model ic|lt] [--engine ENGINE] [--k K] \
     [--epsilon E] [--seed S] [--threads T | --ranks R] [--select ENGINE] [--sample ENGINE] \
     [--rrr-store flat|spill] [--rrr-budget BYTES] [--report pretty|json] \
     (every flag is described at the top of crates/bench/src/bin/ripples.rs)";

/// A flag the user got wrong: `error: …`, the usage line, exit status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

/// The pipelines `--engine` names.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    Opt,
    Baseline,
    Mt,
    Dist,
    Sharded,
    Tim,
}

const ENGINES: [(&str, Engine); 6] = [
    ("opt", Engine::Opt),
    ("baseline", Engine::Baseline),
    ("mt", Engine::Mt),
    ("dist", Engine::Dist),
    ("sharded", Engine::Sharded),
    ("tim", Engine::Tim),
];

/// The flags only some engines read, with the engines that read them; any
/// other engine ignores the flag with a warning.
const ENGINE_FLAGS: [(&str, &[Engine]); 6] = {
    use Engine::{Dist, Mt, Opt, Sharded, Tim};
    [
        ("select", &[Opt, Mt]),
        ("sample", &[Opt, Mt, Tim]),
        ("threads", &[Mt]),
        ("ranks", &[Dist, Sharded]),
        ("rrr-store", &[Opt, Mt, Dist, Sharded, Tim]),
        ("chaos-seed", &[Dist, Sharded]),
    ]
};

/// `--engine TAG`, `mt` when absent; a removed engine names its
/// replacement, and any other tag is a usage error that lists the ones that
/// exist.
fn parse_engine(args: &Args) -> (&'static str, Engine) {
    let tag = args.get("engine").unwrap_or("mt");
    if tag == "partitioned" {
        usage_error(
            "--engine partitioned was removed: use sharded, which returns the same seeds \
             at every --ranks",
        );
    }
    ENGINES
        .into_iter()
        .find(|(name, _)| *name == tag)
        .unwrap_or_else(|| {
            let tags: Vec<&str> = ENGINES.iter().map(|(name, _)| *name).collect();
            usage_error(&format!(
                "unknown --engine `{tag}` (expected {})",
                tags.join("|")
            ))
        })
}

/// `--name` parsed as `T`, `default` when absent; a value that does not
/// parse is a usage error, not a panic.
fn flag_or<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> T {
    args.try_parse(name)
        .unwrap_or_else(|message| usage_error(&message))
        .unwrap_or(default)
}

/// `--weights uniform|wc|tri|const:P`, `uniform` when absent.
fn parse_weights(args: &Args) -> WeightModel {
    match args.get("weights").unwrap_or("uniform") {
        "wc" => WeightModel::WeightedCascade,
        "tri" => WeightModel::Trivalency { seed: 7 },
        w if w.starts_with("const:") => {
            WeightModel::Constant(w[6..].parse().unwrap_or_else(|_| {
                usage_error(&format!("--weights const:P needs a number, got `{w}`"))
            }))
        }
        _ => WeightModel::UniformRandom { seed: 7 },
    }
}

/// Parses a `--metrics-interval` value: `50ms`, `2s`, or a plain
/// millisecond count. Floored at 1ms. Anything else is a usage error.
fn parse_interval(s: &str) -> std::time::Duration {
    let (num, to_ms) = match s.strip_suffix("ms") {
        Some(n) => (n, 1.0),
        None => match s.strip_suffix('s') {
            Some(n) => (n, 1000.0),
            None => (s, 1.0),
        },
    };
    let v: f64 = num.trim().parse().unwrap_or_else(|_| {
        usage_error(&format!(
            "--metrics-interval takes e.g. 50ms or 1s, got `{s}`"
        ))
    });
    std::time::Duration::from_micros(((v * to_ms * 1000.0) as u64).max(1000))
}

/// Builds the `--progress` heartbeat: one stderr line per sampler tick
/// with the phase, θ progress, sampling rate, an ETA, and the live
/// memory footprint — all read straight off the metrics registry.
fn progress_observer() -> ripples_metrics::ProgressFn {
    use ripples_metrics::{phase, Metric, Sample};
    use std::fmt::Write as _;
    let mut last: Option<(u64, u64)> = None;
    Box::new(move |s: &Sample| {
        let samples = s.value(Metric::SamplesGenerated);
        let target = s.value(Metric::ThetaTarget);
        let rate = match last {
            Some((t0, s0)) if s.t_ms > t0 => {
                (samples.saturating_sub(s0)) as f64 * 1000.0 / (s.t_ms - t0) as f64
            }
            _ => 0.0,
        };
        last = Some((s.t_ms, samples));
        let phase_v = s.value(Metric::Phase);
        let live_mb = (s.value(Metric::RrrBytesPeak)
            + s.value(Metric::IndexBytesPeak)
            + s.value(Metric::ArenaBytesPeak)
            + s.value(Metric::MaskBytesPeak)) as f64
            / (1024.0 * 1024.0);
        let mut line = format!(
            "[metrics] {:6.2}s {}",
            s.t_ms as f64 / 1000.0,
            phase::name(phase_v)
        );
        let round = s.value(Metric::Round);
        if round > 0 {
            let _ = write!(line, " round {round}");
        }
        match phase_v {
            phase::ESTIMATE_THETA | phase::SAMPLE => {
                if target > 0 {
                    let pct = 100.0 * samples.min(target) as f64 / target as f64;
                    let _ = write!(line, ": {samples}/{target} samples ({pct:.0}%)");
                    if rate > 0.0 && samples < target {
                        let _ = write!(line, ", eta {:.1}s", (target - samples) as f64 / rate);
                    }
                } else {
                    let _ = write!(line, ": {samples} samples");
                }
                if rate > 0.0 {
                    let _ = write!(line, ", {rate:.0} samples/s");
                }
            }
            phase::SELECT => {
                let _ = write!(
                    line,
                    ": {} select steps, {} entries touched",
                    s.value(Metric::SelectIterations),
                    s.value(Metric::SelectEntriesTouched)
                );
            }
            _ => {}
        }
        let _ = write!(line, ", {live_mb:.1} MB live");
        eprintln!("{line}");
    })
}

fn main() {
    let args = Args::from_env();
    let model = DiffusionModel::from_tag(args.get("model").unwrap_or("ic"))
        .unwrap_or_else(|| usage_error("--model must be ic or lt"));
    // Every flag value is checked before the graph is loaded: a typo should
    // not cost a load.
    let (engine_tag, engine) = parse_engine(&args);
    let select = args
        .get("select")
        .map(|tag| parse_select(tag).unwrap_or_else(|message| usage_error(&message)));
    let sample = args.get("sample").map_or(SampleEngine::Reference, |tag| {
        parse_sample(tag).unwrap_or_else(|message| usage_error(&message))
    });
    let storage = parse_storage(&args).unwrap_or_else(|message| usage_error(&message));
    let k: u32 = flag_or(&args, "k", 50);
    if k == 0 {
        usage_error("--k must be positive");
    }
    let epsilon = parse_epsilon(&args).unwrap_or_else(|message| usage_error(&message));
    let seed: u64 = flag_or(&args, "seed", 0);
    let simulate: Option<u32> = args
        .try_parse("simulate")
        .unwrap_or_else(|message| usage_error(&message));
    let threads: usize = flag_or(&args, "threads", 0);
    let ranks: u32 = flag_or(&args, "ranks", 2);
    if ranks == 0 {
        usage_error("--ranks must be positive");
    }
    let trace_buffer = args
        .try_parse("trace-buffer")
        .unwrap_or_else(|message| usage_error(&message));
    let interval = parse_interval(args.get("metrics-interval").unwrap_or("250ms"));
    let params = ImmParams::new(k, epsilon, model, seed);

    // Without --chaos-seed the plan is fault-free, and a `FaultComm` over a
    // fault-free plan is bitwise transparent.
    let chaos_seed: Option<u64> = args
        .try_parse("chaos-seed")
        .unwrap_or_else(|message| usage_error(&message));
    let chaos_rate: f64 = flag_or(&args, "chaos-rate", 0.02);
    let plan = chaos_seed.map_or_else(FaultPlan::none, |seed| FaultPlan::chaos(seed, chaos_rate));

    for (flag, readers) in ENGINE_FLAGS {
        if args.flag(flag) && !readers.contains(&engine) {
            let tags: Vec<&str> = ENGINES
                .iter()
                .filter(|(_, e)| readers.contains(e))
                .map(|(tag, _)| *tag)
                .collect();
            let plural = if tags.len() > 1 { "s" } else { "" };
            eprintln!(
                "warning: --{flag} only affects the {} engine{plural}; ignoring",
                tags.join("/")
            );
        }
    }
    if storage.budget.is_some() && storage.kind != RrrStoreKind::Spill {
        eprintln!("warning: --rrr-budget only affects --rrr-store spill; ignoring");
    }

    let trace_path = args.get("trace").map(str::to_string);
    let metrics_path = args.get("metrics").map(str::to_string);
    let metrics_prom_path = args.get("metrics-prom").map(str::to_string);
    let progress = args.flag("progress");

    // Every exporter writes its own file; catching collisions up front
    // beats silently interleaving two exporters into one path at the end
    // of a long run.
    let outputs: Vec<(&str, &str)> = [
        ("--trace", trace_path.as_deref()),
        ("--report-out", args.get("report-out")),
        ("--metrics", metrics_path.as_deref()),
        ("--metrics-prom", metrics_prom_path.as_deref()),
    ]
    .into_iter()
    .filter_map(|(flag, path)| path.map(|p| (flag, p)))
    .collect();
    for (i, (flag_a, path_a)) in outputs.iter().enumerate() {
        for (flag_b, path_b) in &outputs[i + 1..] {
            if path_a == path_b {
                usage_error(&format!(
                    "{flag_a} and {flag_b} both write to `{path_a}`; \
                     give each exporter its own file"
                ));
            }
        }
    }

    let lt_normalize = model == DiffusionModel::LinearThreshold;
    let graph = load_graph(&args, parse_weights(&args), lt_normalize).unwrap_or_else(|e| match e {
        GraphSourceError::Usage(message) => usage_error(&message),
        GraphSourceError::Load(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    });
    let rss_after_load = rss_high_water_mark();
    let stats = GraphStats::of(&graph);
    eprintln!(
        "graph: {} vertices, {} edges, avg degree {:.2}, max degree {}",
        stats.nodes, stats.edges, stats.avg_degree, stats.max_out_degree
    );

    if trace_path.is_some() {
        trace::start(trace_buffer);
    }

    let sampler = if metrics_path.is_some() || metrics_prom_path.is_some() || progress {
        ripples_metrics::enable();
        let observer = progress.then(progress_observer);
        Some(ripples_metrics::start_sampler(interval, observer))
    } else {
        None
    };

    let start = std::time::Instant::now();
    let (seeds, detail, mut report) = match engine {
        Engine::Opt => {
            let r = match (select, sample, storage.kind) {
                (None, SampleEngine::Reference, RrrStoreKind::Flat) => {
                    immopt_sequential(&graph, &params)
                }
                (sel, sam, _) => immopt_sequential_with_storage(
                    &graph,
                    &params,
                    sel.unwrap_or(SelectEngine::Auto),
                    sam,
                    storage,
                ),
            };
            let detail = format!("theta={} phases=[{}]", r.theta, r.report.phase_timers());
            (r.seeds, detail, r.report)
        }
        Engine::Baseline => {
            let r = imm_baseline(&graph, &params);
            let detail = format!("theta={} phases=[{}]", r.theta, r.report.phase_timers());
            (r.seeds, detail, r.report)
        }
        Engine::Dist => {
            let world = ThreadWorld::new(ranks);
            let mut results = world.run(|comm| {
                imm_distributed_with_storage(
                    &FaultComm::new(comm, plan.clone()),
                    &graph,
                    &params,
                    storage,
                )
            });
            let r = results.pop().expect("at least one rank");
            let detail = format!(
                "ranks={ranks} theta={} phases=[{}]",
                r.theta,
                r.report.phase_timers()
            );
            (r.seeds, detail, r.report)
        }
        Engine::Sharded => {
            let world = ThreadWorld::new(ranks);
            let mut results = world.run(|comm| {
                let faulty = FaultComm::new(comm, plan.clone());
                imm_sharded_with_storage(&faulty, &graph, &params, storage)
            });
            let r = results.pop().expect("at least one rank");
            let detail = format!(
                "ranks={ranks} theta={} per-rank-graph={}B frontier-exchanges={} \
                 overlap={}ns phases=[{}]",
                r.theta,
                r.memory.graph_bytes,
                r.report.counters.frontier_exchanges,
                r.report.counters.overlap_nanos,
                r.report.phase_timers()
            );
            (r.seeds, detail, r.report)
        }
        Engine::Tim => {
            let r = tim_plus_with_storage(&graph, &params, sample, storage);
            let detail = format!("theta={} phases=[{}]", r.theta, r.report.phase_timers());
            (r.seeds, detail, r.report)
        }
        Engine::Mt => {
            let r = imm_multithreaded_with_storage(
                &graph,
                &params,
                threads,
                select.unwrap_or(SelectEngine::Auto),
                sample,
                storage,
            );
            let detail = format!("theta={} phases=[{}]", r.theta, r.report.phase_timers());
            (r.seeds, detail, r.report)
        }
    };
    let elapsed = start.elapsed();
    // Which of the two set the process's peak: the load or the solve.
    report.counters.rss_hwm_after_load = rss_after_load;
    report.counters.rss_hwm_after_solve = rss_high_water_mark();
    if let Some(handle) = sampler {
        let series = handle.finalize();
        ripples_metrics::disable();
        if let Some(path) = &metrics_path {
            let json = series.to_json();
            if let Err(e) = trace::json::parse(&json) {
                eprintln!("error: metrics series is not valid JSON: {e}");
                std::process::exit(1);
            }
            match std::fs::write(path, &json) {
                Ok(()) => {
                    let down = if series.downsample_halvings > 0 {
                        format!(
                            ", downsampled to {}ms",
                            series.interval_ms << series.downsample_halvings
                        )
                    } else {
                        String::new()
                    };
                    eprintln!(
                        "metrics: {} samples at {}ms cadence{down} written to {path}",
                        series.samples.len(),
                        series.interval_ms
                    );
                }
                Err(e) => {
                    eprintln!("error: cannot write metrics {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &metrics_prom_path {
            let last = series.samples.last().expect("series is never empty");
            if let Err(e) = std::fs::write(path, ripples_metrics::prometheus_text(last)) {
                eprintln!("error: cannot write metrics exposition {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("metrics: Prometheus exposition written to {path}");
        }
    }
    eprintln!("engine={engine_tag} model={model} k={k} epsilon={epsilon}: {detail}");
    eprintln!("time: {:.3}s", elapsed.as_secs_f64());
    if let Some(seed) = chaos_seed {
        let c = &report.counters;
        eprintln!(
            "chaos: seed={seed} retries={} dropped_ops={} degraded_ranks={}",
            c.retries, c.dropped_ops, c.degraded_ranks
        );
    }

    if let Some(path) = &trace_path {
        trace::stop();
        // Every engine attaches the merged timeline to its report.
        let merged = report
            .trace
            .as_ref()
            .expect("a traced run's report carries its timeline");
        match std::fs::write(path, merged.to_chrome_json()) {
            Ok(()) => eprintln!(
                "trace: {} events ({} dropped) written to {path}",
                merged.len(),
                merged.dropped
            ),
            Err(e) => {
                eprintln!("error: cannot write trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(mode) = args.get("report") {
        let text = match mode {
            "json" => report.to_json(),
            "pretty" | "text" => report.render_pretty(),
            other => {
                eprintln!("warning: unknown --report mode `{other}`; rendering pretty");
                report.render_pretty()
            }
        };
        match args.get("report-out") {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("error: cannot write report {path}: {e}");
                    std::process::exit(1);
                }
            }
            None => eprintln!("{text}"),
        }
    }

    if let Some(trials) = simulate {
        let factory = StreamFactory::new(seed ^ 0x51);
        let spread = estimate_spread(&graph, model, &seeds, trials, &factory);
        eprintln!(
            "expected influence over {trials} simulations: {spread:.1} / {} vertices",
            graph.num_vertices()
        );
    }
    // The seed set itself goes to stdout, one per line, for piping.
    for s in seeds {
        println!("{s}");
    }
}
