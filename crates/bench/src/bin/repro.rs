//! `repro` — regenerates the paper's Tables 2–3 and Figures 1–8 on the
//! stand-in graph catalogue, one subcommand per table or figure.
//!
//! ```text
//! repro table2 [--scale-div 4] [--k 50] [--epsilon 0.5]
//! repro table3 [--scale-div 8] [--k 100]
//! repro fig1   [--scale-div 4] [--trials 400]
//! repro fig2   [--scale-div 4] [--analytic-only]
//! repro fig3   [--scale-div 8] [--graphs a,b] [--k 50]
//! repro fig4   [--scale-div 8] [--graphs a,b] [--epsilon 0.5]
//! repro fig5_6 [--scale-div 8] [--graphs a,b] [--model ic|lt] [--k 100] [--dense]
//! repro fig7_8 [--scale-div 16] [--cluster puma|edison|both] [--model ic|lt|both]
//!              [--epsilon 0.13] [--k 200] [--ranks 2]
//! repro all
//! ```
//!
//! Every experiment also takes `--csv`. `--scale-div` multiplies each
//! stand-in's default divisor (larger = smaller graphs = faster run);
//! `--graphs` keeps the named stand-ins. The table goes to stdout and a
//! progress line per run to stderr. `all` runs every experiment at these
//! defaults and writes `results/NAME.txt` under the current directory
//! (`fig5_6` writes `fig5_lt.txt` and `fig6_ic.txt`), printing each one's
//! wall time on stderr.
//!
//! An unknown experiment, a flag the chosen experiment does not read, and
//! a flag value that does not parse or that no experiment can take print
//! `error: …` and the usage line and exit with status 2.
//!
//! This host substitutes for the paper's hardware as DESIGN.md § 1
//! describes: the multithreaded and distributed figures measure what runs
//! here and *predict* a 20-core node and the Puma and Edison clusters by
//! replaying the run's work (`WorkTrace::replay`) through the scaling model.

use ripples_bench::{big_four, effective_divisor, measure, paper_graph, Args, Table};
use ripples_comm::{ClusterSpec, ThreadWorld};
use ripples_core::dist::imm_distributed;
use ripples_core::mt::imm_multithreaded;
use ripples_core::obs::SpanKind;
use ripples_core::scaling::{
    calibrate_rate, predict_distributed, predict_multithreaded, ScalingPoint, WorkTrace,
};
use ripples_core::seq::{imm_baseline_with_options, immopt_sequential};
use ripples_core::theta::ThetaSchedule;
use ripples_core::{ImmParams, MemoryStats, Phase, RunReport};
use ripples_diffusion::{estimate_spread, DiffusionModel};
use ripples_graph::generators::{standin, standin_catalog, StandinSpec};
use ripples_graph::{Graph, GraphStats};
use ripples_rng::StreamFactory;
use std::io::{self, Write};
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: repro (table2|table3|fig1|fig2|fig3|fig4|fig5_6|fig7_8) [--FLAG VALUE …] \
     | repro all (every experiment's flags are listed at the top of \
     crates/bench/src/bin/repro.rs)";

const IC: DiffusionModel = DiffusionModel::IndependentCascade;
const LT: DiffusionModel = DiffusionModel::LinearThreshold;

type Experiment = fn(&Args, &mut dyn Write) -> io::Result<()>;

/// The experiment a subcommand names, and the flags it reads besides
/// `--csv`.
fn experiment(name: &str) -> Option<(Experiment, &'static [&'static str])> {
    Some(match name {
        "table2" => (table2, &["scale-div", "k", "epsilon"]),
        "table3" => (table3, &["scale-div", "k"]),
        "fig1" => (fig1, &["scale-div", "trials"]),
        "fig2" => (fig2, &["scale-div", "analytic-only"]),
        "fig3" => (fig3, &["scale-div", "graphs", "k"]),
        "fig4" => (fig4, &["scale-div", "graphs", "epsilon"]),
        "fig5_6" => (fig5_6, &["scale-div", "graphs", "model", "k", "dense"]),
        "fig7_8" => (
            fig7_8,
            &["scale-div", "cluster", "model", "epsilon", "k", "ranks"],
        ),
        _ => return None,
    })
}

/// `args` for experiment `name`, which reads `flags` and `--csv`: any other
/// flag or a bare argument is a usage error, not silently ignored.
fn checked_args(name: &str, flags: &[&str], rest: Vec<String>) -> Args {
    let args = Args::from_iter(rest);
    if let Some(extra) = args.positional().first() {
        usage_error(&format!("unexpected argument `{extra}`"));
    }
    if let Some(flag) = args
        .names()
        .find(|flag| *flag != "csv" && !flags.contains(flag))
    {
        usage_error(&format!(
            "`{name}` does not read --{flag} (it reads --{} and --csv)",
            flags.join(", --")
        ));
    }
    args
}

/// A flag the user got wrong: `error: …`, the usage line, exit status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

/// `--name` as `T`, `default` when absent.
fn flag<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> T {
    match args.try_parse(name) {
        Ok(value) => value.unwrap_or(default),
        Err(message) => usage_error(&message),
    }
}

/// `--name` as a count that must be positive.
fn positive(args: &Args, name: &str, default: u32) -> u32 {
    let value = flag(args, name, default);
    if value == 0 {
        usage_error(&format!("--{name} must be positive"));
    }
    value
}

/// `--epsilon`, which IMM takes in `(0, 1)`.
fn epsilon(args: &Args, default: f64) -> f64 {
    let value = flag(args, "epsilon", default);
    if !(value > 0.0 && value < 1.0) {
        usage_error(&format!("--epsilon must lie in (0, 1), got {value}"));
    }
    value
}

/// `--name` as one of `options` (case-insensitive), `default` when absent.
fn choice<T: Clone>(args: &Args, name: &str, default: &str, options: &[(&str, T)]) -> T {
    let tag = args.get(name).unwrap_or(default).to_ascii_lowercase();
    match options.iter().find(|(option, _)| *option == tag) {
        Some((_, value)) => value.clone(),
        None => {
            let expected: Vec<&str> = options.iter().map(|(option, _)| *option).collect();
            usage_error(&format!(
                "unknown --{name} `{tag}` (expected {})",
                expected.join("|")
            ))
        }
    }
}

/// The stand-ins `--graphs a,b,c` names, in catalogue order, or the whole
/// catalogue.
fn graphs(args: &Args) -> Vec<&'static StandinSpec> {
    let Some(list) = args.get("graphs") else {
        return standin_catalog().iter().collect();
    };
    let named: Vec<&'static StandinSpec> = list
        .split(',')
        .map(|name| {
            standin(name)
                .unwrap_or_else(|| usage_error(&format!("unknown stand-in `{name}` in --graphs")))
        })
        .collect();
    standin_catalog()
        .iter()
        .filter(|spec| named.iter().any(|n| n.name == spec.name))
        .collect()
}

/// Writes `table` (as CSV under `--csv`), a blank line and `notes`.
fn finish(out: &mut dyn Write, args: &Args, table: &Table, notes: &str) -> io::Result<()> {
    let text = if args.flag("csv") {
        table.render_csv()
    } else {
        table.render()
    };
    write!(out, "{text}\n{notes}\n")
}

/// Runs `imm_distributed` on `ranks` in-process ranks, checks that every
/// rank returned the same seeds, and predicts each `(cluster, nodes)`
/// strong-scaling curve from the run's replayed work trace. Returns θ and
/// the curves.
fn distributed_projection(
    name: &str,
    graph: &Graph,
    params: &ImmParams,
    ranks: u32,
    clusters: &[(ClusterSpec, &[u32])],
) -> (usize, Vec<Vec<ScalingPoint>>) {
    let results = ThreadWorld::new(ranks).run(|comm| imm_distributed(comm, graph, params));
    let first = &results[0];
    for r in &results[1..] {
        assert_eq!(r.seeds, first.seeds, "{name}: ranks disagreed");
    }
    let trace = WorkTrace::replay(graph, params, first.theta, 4);
    let curves = clusters
        .iter()
        .map(|(cluster, nodes)| predict_distributed(&trace, cluster, nodes))
        .collect();
    (first.theta, curves)
}

/// Table 2: serial execution time and memory of IMM vs IMMOPT (IC) across
/// the eight stand-ins. The paper's IMMOPT is 2.4–4.2× faster and saves
/// 18–58% of RRR memory, purely from the one-direction sorted-list storage.
fn table2(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let scale_div = positive(args, "scale-div", 4);
    let k = positive(args, "k", 50);
    let epsilon = epsilon(args, 0.5);
    writeln!(
        out,
        "# Table 2 reproduction: IMM (hypergraph) vs IMMOPT (compact), ε = {epsilon}, k = {k}\n\
         # stand-in divisors scaled by {scale_div}; pass --scale-div 1 for the full stand-in sizes\n"
    )?;

    let mut table = Table::new(vec![
        "Graph",
        "Nodes",
        "Edges",
        "AvgDeg",
        "MaxDeg",
        "IMM(s)",
        "IMMOPT(s)",
        "Speedup",
        "IMM(MB)",
        "IMMOPT(MB)",
        "Savings",
    ]);
    for spec in standin_catalog() {
        let graph = paper_graph(spec, effective_divisor(spec, scale_div), IC);
        let stats = GraphStats::of(&graph);
        let params = ImmParams::new(k, epsilon, IC, 0xBEEF);
        // Tang-faithful baseline: fresh final resampling (no R reuse), the
        // behaviour of the released IMM code (see seq.rs docs).
        let (baseline, t_baseline) = measure(|| imm_baseline_with_options(&graph, &params, true));
        let (opt, t_opt) = measure(|| immopt_sequential(&graph, &params));
        assert_eq!(baseline.seeds.len(), opt.seeds.len());

        let speedup = t_baseline.as_secs_f64() / t_opt.as_secs_f64().max(1e-9);
        let savings = 100.0
            * (1.0
                - opt.memory.peak_rrr_bytes as f64 / baseline.memory.peak_rrr_bytes.max(1) as f64);
        table.row(vec![
            spec.name.to_string(),
            stats.nodes.to_string(),
            stats.edges.to_string(),
            format!("{:.2}", stats.avg_degree),
            stats.max_out_degree.to_string(),
            format!("{:.2}", t_baseline.as_secs_f64()),
            format!("{:.2}", t_opt.as_secs_f64()),
            format!("{speedup:.2}x"),
            format!("{:.2}", MemoryStats::mib(baseline.memory.peak_rrr_bytes)),
            format!("{:.2}", MemoryStats::mib(opt.memory.peak_rrr_bytes)),
            format!("{savings:.1}%"),
        ]);
        eprintln!("done: {} (θ = {})", spec.name, opt.theta);
    }
    let notes = "# paper: speedups 2.4–4.2x, savings 18–58% (their hardware, full SNAP inputs)\n\
                 # expected shape: IMMOPT never slower, never more memory; savings grow with RRR volume";
    finish(out, args, &table, notes)
}

/// Table 3: the speedup ladder relative to Tang et al.'s serial IMM — IMM →
/// IMMOPT → IMMmt → IMMdist — on the com-Orkut and soc-LiveJournal1
/// stand-ins. The first three rungs are measured on this host's cores; the
/// IMMdist rung runs on in-process ranks and is projected to the paper's
/// 1024 Edison nodes at its parallel-enabled setting (ε = 0.13, 2·k).
fn table3(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let scale_div = positive(args, "scale-div", 8);
    let k = positive(args, "k", 100);
    writeln!(
        out,
        "# Table 3 reproduction: improvement in runtime relative to IMM [Tang et al.]\n\
         # rows 1–3 measured on this host; row 4 executed on in-process ranks and\n\
         # projected to 1024 Edison nodes via the α–β replay model (ε: 0.5 → 0.13, k: {k} → {})\n",
        2 * k
    )?;

    let mut table = Table::new(vec![
        "graph", "variant", "epsilon", "k", "time_s", "speedup",
    ]);
    for name in ["com-Orkut", "soc-LiveJournal1"] {
        let spec = standin(name).expect("catalog");
        let graph = paper_graph(spec, effective_divisor(spec, scale_div), IC);
        let params = ImmParams::new(k, 0.5, IC, 0x7AB3);
        let (base, t_base) = measure(|| imm_baseline_with_options(&graph, &params, true));
        let (_, t_opt) = measure(|| immopt_sequential(&graph, &params));
        let (_, t_mt) = measure(|| imm_multithreaded(&graph, &params, 0));
        let dist_params = ImmParams::new(2 * k, 0.13, IC, 0x7AB3);
        let edison: [(ClusterSpec, &[u32]); 1] = [(ClusterSpec::edison(), &[1024])];
        let (_, curves) = distributed_projection(name, &graph, &dist_params, 2, &edison);
        let projected_s = curves[0][0].total_s();

        let base_s = t_base.as_secs_f64();
        for (variant, epsilon, k, time_s) in [
            ("IMM (hypergraph)", "0.50", k, base_s),
            ("IMMopt", "0.50", k, t_opt.as_secs_f64()),
            ("IMMmt (all cores)", "0.50", k, t_mt.as_secs_f64()),
            (
                "IMMdist (1024 Edison nodes, projected)",
                "0.13",
                2 * k,
                projected_s,
            ),
        ] {
            table.row(vec![
                name.to_string(),
                variant.to_string(),
                epsilon.to_string(),
                k.to_string(),
                format!("{time_s:.2}"),
                format!("{:.2}x", base_s / time_s),
            ]);
        }
        eprintln!("done: {name} (baseline θ = {})", base.theta);
    }
    let notes =
        "# paper: IMMopt 3.1–4.2x, IMMmt 16–21x (20 cores), IMMdist 298–587x (49k threads)\n\
                 # expected shape: a strictly monotone ladder; the projected distributed row\n\
                 # delivers orders-of-magnitude gains at twice the seed budget and higher accuracy";
    finish(out, args, &table, notes)
}

/// Figure 1: activated nodes vs seed-set size k on the com-Orkut stand-in
/// at ε = 0.5 (what the serial state of the art could afford, up to k =
/// 100) and ε = 0.13 (what the parallel implementation enables, up to k =
/// 200). Both curves grow sub-linearly; ε = 0.13 sits at or above ε = 0.5.
fn fig1(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let scale_div = positive(args, "scale-div", 4);
    let trials = positive(args, "trials", 400);
    let spec = standin("com-Orkut").expect("catalog");
    let graph = paper_graph(spec, effective_divisor(spec, scale_div), IC);
    writeln!(
        out,
        "# Figure 1 reproduction: activated nodes vs k ({} stand-in, n = {}, m = {})",
        spec.name,
        graph.num_vertices(),
        graph.num_edges()
    )?;

    let factory = StreamFactory::new(0xF161);
    let mut table = Table::new(vec!["epsilon", "k", "theta", "activated", "time_s"]);
    let settings: [(f64, &[u32]); 2] = [
        (0.5, &[25, 50, 75, 100]),
        (0.13, &[25, 50, 75, 100, 150, 200]),
    ];
    for (eps, ks) in settings {
        for &k in ks {
            let params = ImmParams::new(k, eps, IC, 0xF1);
            let (result, elapsed) = measure(|| imm_multithreaded(&graph, &params, 0));
            let activated = estimate_spread(&graph, IC, &result.seeds, trials, &factory);
            table.row(vec![
                format!("{eps:.2}"),
                k.to_string(),
                result.theta.to_string(),
                format!("{activated:.1}"),
                format!("{:.2}", elapsed.as_secs_f64()),
            ]);
            eprintln!("done: eps {eps} k {k} (θ = {})", result.theta);
        }
    }
    let notes = "# expected shape: activation grows sub-linearly in k; the ε = 0.13 series\n\
                 # matches or beats ε = 0.5 at equal k and extends the frontier to k = 200";
    finish(out, args, &table, notes)
}

/// Figure 2: θ on the cit-HepTh stand-in as a function of k and ε — it
/// grows steeply as ε shrinks and quickly exceeds n. Every grid point runs
/// the estimation procedure; `--analytic-only` prints the closed-form λ*/LB
/// bound at a fixed LB of n/50 instead, which isolates λ*'s growth and
/// samples nothing.
fn fig2(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let scale_div = positive(args, "scale-div", 4);
    let analytic = args.flag("analytic-only");
    let spec = standin("cit-HepTh").expect("catalog");
    let graph = paper_graph(spec, effective_divisor(spec, scale_div), IC);
    let n = graph.num_vertices();
    let ks = [10u32, 20, 30, 40, 50, 60, 70, 80, 90, 100];

    writeln!(
        out,
        "# Figure 2 reproduction: θ as a function of k and ε (cit-HepTh stand-in, n = {n})\n\
         # note the paper's x-axis is the approximation factor 1 − 1/e − ε: smaller ε ⇒ higher precision ⇒ larger θ\n"
    )?;

    let mut header = vec!["epsilon".to_string()];
    header.extend(ks.iter().map(|k| format!("k={k}")));
    let mut table = Table::new(header);
    for eps in [0.2f64, 0.3, 0.4, 0.5, 0.6] {
        let mut row = vec![format!("{eps:.2}")];
        for &k in &ks {
            let theta = if analytic {
                ThetaSchedule::new(u64::from(n), u64::from(k), eps, 1.0)
                    .final_theta(f64::from(n) / 50.0)
            } else {
                immopt_sequential(&graph, &ImmParams::new(k, eps, IC, 0xF162)).theta
            };
            row.push(theta.to_string());
        }
        table.row(row);
        eprintln!("done: epsilon {eps}");
    }
    let notes = format!(
        "# expected shape: θ increases monotonically as ε decreases and as k increases,\n\
         # crossing n = {n} well before the tightest setting (the paper's log-scale hockey stick)"
    );
    finish(out, args, &table, &notes)
}

/// Figures 3 and 4: one multithreaded IMM run (IC, all threads) per
/// stand-in and sweep point, split into the paper's four phases as the
/// run's report times them. The caller writes its title after the sweep,
/// so a bad `--scale-div` or `--graphs` leaves stdout empty.
///
/// `RoundSelect_s`, beside `SelectSeeds_s`, is the last estimation round's
/// selection time. When θ asks for no sample beyond that round's,
/// `SelectSeeds` returns that round's selection instead of repeating it and
/// reads ~0; the selection the run returned then cost `RoundSelect_s`,
/// inside `EstimateTheta_s`.
fn phase_sweep(args: &Args, axis: &str, points: &[(String, ImmParams)]) -> Table {
    let scale_div = positive(args, "scale-div", 8);
    let mut header = vec!["graph".to_string(), axis.to_string()];
    for phase in Phase::ALL {
        header.push(format!("{}_s", phase.label()));
        if phase == Phase::SelectSeeds {
            header.push("RoundSelect_s".to_string());
        }
    }
    header.extend(["total_s".to_string(), "theta".to_string()]);
    let mut table = Table::new(header);
    for spec in graphs(args) {
        let graph = paper_graph(spec, effective_divisor(spec, scale_div), IC);
        for (label, params) in points {
            let r = imm_multithreaded(&graph, params, 0);
            let timers = r.report.phase_timers();
            let seconds = |d: Duration| format!("{:.3}", d.as_secs_f64());
            let mut row = vec![spec.name.to_string(), label.clone()];
            for phase in Phase::ALL {
                row.push(seconds(timers.get(phase)));
                if phase == Phase::SelectSeeds {
                    row.push(seconds(last_round_select(&r.report)));
                }
            }
            row.extend([seconds(timers.total()), r.theta.to_string()]);
            table.row(row);
            eprintln!("done: {} {axis} {label}", spec.name);
        }
    }
    table
}

/// What `phase_sweep`'s `RoundSelect_s` column is, under Figures 3 and 4.
const ROUND_SELECT_NOTE: &str =
    "# RoundSelect_s: the last estimation round's selection, inside EstimateTheta_s; the\n\
     # selection returned when SelectSeeds_s reads ~0 (θ needed no further sample)";

/// The `select` span of the last `round-x` under `EstimateTheta`.
fn last_round_select(report: &RunReport) -> Duration {
    let estimate = Phase::EstimateTheta.label();
    let select = SpanKind::Select.label();
    let nanos = report
        .spans()
        .iter()
        .find(|span| span.name == estimate)
        .and_then(|span| span.children.last())
        .and_then(|round| round.children.iter().find(|span| span.name == select))
        .map_or(0, |span| span.nanos);
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

/// Figure 3: phase-decomposed runtime vs ε (k = 50). Runtime rises as ε
/// falls; EstimateTheta and Sample dominate, Sample's share growing with
/// the input.
fn fig3(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let k = positive(args, "k", 50);
    let points: Vec<(String, ImmParams)> = [0.20f64, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50]
        .iter()
        .map(|&eps| (format!("{eps:.2}"), ImmParams::new(k, eps, IC, 0xF3)))
        .collect();
    let table = phase_sweep(args, "epsilon", &points);
    writeln!(
        out,
        "# Figure 3 reproduction: phase-decomposed runtime vs ε (k = {k}, IC, all threads)"
    )?;
    let notes = format!(
        "# expected shape: runtime rises as ε falls; Estimate+Sample dominate (paper §4.1)\n\
         {ROUND_SELECT_NOTE}"
    );
    finish(out, args, &table, &notes)
}

/// Figure 4: phase-decomposed runtime vs k (ε = 0.5).
fn fig4(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let epsilon = epsilon(args, 0.5);
    let points: Vec<(String, ImmParams)> = (10..=100)
        .step_by(10)
        .map(|k| (k.to_string(), ImmParams::new(k, epsilon, IC, 0xF4)))
        .collect();
    let table = phase_sweep(args, "k", &points);
    writeln!(
        out,
        "# Figure 4 reproduction: phase-decomposed runtime vs k (ε = {epsilon}, IC, all threads)"
    )?;
    let notes = format!(
        "# expected shape: runtime grows with k (θ does too); SelectSeeds' share grows with k\n\
         {ROUND_SELECT_NOTE}"
    );
    finish(out, args, &table, &notes)
}

/// Figures 5 (LT) and 6 (IC): multithreaded strong scaling, ε = 0.5, k =
/// 100, at 2–20 threads (even counts; `--dense` runs all of 2..=20).
/// `measured_s` is this host's wall clock at that many threads; `model_s`
/// predicts a dedicated 20-core node as the LPT makespan of the run's
/// replayed per-sample work plus Algorithm 4's selection cost, calibrated
/// from a measured single-thread run.
fn fig5_6(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let scale_div = positive(args, "scale-div", 8);
    let k = positive(args, "k", 100);
    let model = choice(args, "model", "ic", &[("ic", IC), ("lt", LT)]);
    let threads: Vec<u32> = if args.flag("dense") {
        (2..=20).collect()
    } else {
        (1..=10).map(|i| 2 * i).collect()
    };

    writeln!(
        out,
        "# Figures 5/6 reproduction: multithreaded strong scaling (ε = 0.5, k = {k}, {model})\n\
         # measured_s = real wall-clock at that thread count on THIS host\n\
         # model_s    = work-replay prediction for a dedicated 20-core node (see DESIGN.md)\n"
    )?;

    let mut table = Table::new(vec![
        "graph",
        "threads",
        "measured_s",
        "model_s",
        "model_speedup_vs_2t",
    ]);
    for spec in graphs(args) {
        let graph = paper_graph(spec, effective_divisor(spec, scale_div), model);
        let params = ImmParams::new(k, 0.5, model, 0xF56);
        let (base, base_time) = measure(|| imm_multithreaded(&graph, &params, 1));
        let counters = &base.report.counters;
        let rate = calibrate_rate(
            counters.edges_examined + counters.rrr_entries,
            base_time.as_secs_f64(),
        );
        let trace = WorkTrace::replay(&graph, &params, base.theta, 4);
        let predictions = predict_multithreaded(&trace, &threads, rate);
        let base_pred = predictions[0].total_s();
        for (p, &t) in predictions.iter().zip(&threads) {
            let (_, measured) = measure(|| imm_multithreaded(&graph, &params, t as usize));
            table.row(vec![
                spec.name.to_string(),
                t.to_string(),
                format!("{:.3}", measured.as_secs_f64()),
                format!("{:.3}", p.total_s()),
                format!("{:.2}x", base_pred / p.total_s()),
            ]);
        }
        eprintln!("done: {}", spec.name);
    }
    let notes = "# expected shape (paper): larger inputs scale better; IC scales better than LT;\n\
                 # peak ~12.5x vs 2 threads for com-Orkut under IC; small inputs stall on SelectSeeds";
    finish(out, args, &table, notes)
}

/// Figures 7 (Puma, up to 16 nodes) and 8 (Edison, up to 1024 nodes):
/// distributed strong scaling on the four biggest stand-ins (ε = 0.13, k =
/// 200). The distributed algorithm runs on `--ranks` in-process ranks; the
/// cluster series are its replayed work through the α–β model.
fn fig7_8(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let scale_div = positive(args, "scale-div", 16);
    let epsilon = epsilon(args, 0.13);
    let k = positive(args, "k", 200);
    let validation_ranks = positive(args, "ranks", 2);
    let puma: (ClusterSpec, &[u32]) = (ClusterSpec::puma(), &[2, 4, 6, 8, 10, 12, 14, 16]);
    let edison: (ClusterSpec, &[u32]) = (ClusterSpec::edison(), &[64, 128, 256, 512, 1024]);
    let clusters = choice(
        args,
        "cluster",
        "both",
        &[
            ("puma", vec![puma]),
            ("edison", vec![edison]),
            ("both", vec![puma, edison]),
        ],
    );
    let models = choice(
        args,
        "model",
        "both",
        &[("ic", vec![IC]), ("lt", vec![LT]), ("both", vec![IC, LT])],
    );

    writeln!(
        out,
        "# Figures 7/8 reproduction: distributed strong scaling (ε = {epsilon}, k = {k})\n\
         # validated on {validation_ranks} real in-process ranks, then replayed through the α–β model\n"
    )?;

    let mut table = Table::new(vec![
        "cluster", "graph", "model", "nodes", "sample_s", "select_s", "comm_s", "total_s",
        "speedup",
    ]);
    for spec in big_four() {
        let divisor = effective_divisor(spec, scale_div);
        for &model in &models {
            let graph = paper_graph(spec, divisor, model);
            let params = ImmParams::new(k, epsilon, model, 0xF78);
            let (theta, curves) =
                distributed_projection(spec.name, &graph, &params, validation_ranks, &clusters);
            for ((cluster, _), points) in clusters.iter().zip(&curves) {
                let base = points[0].total_s();
                for p in points {
                    table.row(vec![
                        cluster.name.to_string(),
                        spec.name.to_string(),
                        model.tag().to_string(),
                        p.units.to_string(),
                        format!("{:.3}", p.sample_s),
                        format!("{:.3}", p.select_s),
                        format!("{:.3}", p.comm_s),
                        format!("{:.3}", p.total_s()),
                        format!("{:.2}x", base / p.total_s()),
                    ]);
                }
            }
            eprintln!("done: {} {} (θ = {theta})", spec.name, model.tag());
        }
    }
    let notes =
        "# expected shape (paper): IC keeps scaling to high node counts; LT saturates early\n\
                 # (insufficient work per rank) and the All-Reduce term grows with lg(nodes)";
    finish(out, args, &table, notes)
}

/// Runs every experiment at its defaults, writing `results/NAME.txt`.
fn all() -> io::Result<()> {
    const RESULTS: [(&str, &str, &[&str]); 9] = [
        ("table2", "table2", &[]),
        ("table3", "table3", &[]),
        ("fig1", "fig1", &[]),
        ("fig2", "fig2", &[]),
        ("fig3", "fig3", &[]),
        ("fig4", "fig4", &[]),
        ("fig5_lt", "fig5_6", &["--model", "lt"]),
        ("fig6_ic", "fig5_6", &["--model", "ic"]),
        ("fig7_8", "fig7_8", &[]),
    ];
    std::fs::create_dir_all("results")?;
    for (file, name, flags) in RESULTS {
        let args = Args::from_iter(flags.iter().map(|f| f.to_string()));
        let path = format!("results/{file}.txt");
        let start = Instant::now();
        let mut out = io::BufWriter::new(std::fs::File::create(&path)?);
        experiment(name).expect("listed").0(&args, &mut out)?;
        out.flush()?;
        eprintln!(
            "repro all: wrote {path} in {:.1} s",
            start.elapsed().as_secs_f64()
        );
    }
    Ok(())
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        usage_error("name an experiment");
    };
    let rest: Vec<String> = argv.collect();
    let result = match (name.as_str(), experiment(&name)) {
        ("all", _) if rest.is_empty() => all(),
        ("all", _) => usage_error("`all` takes no flags: it runs every experiment at its defaults"),
        (_, Some((experiment, flags))) => {
            experiment(&checked_args(&name, flags, rest), &mut io::stdout().lock())
        }
        (_, None) => usage_error(&format!("unknown experiment `{name}`")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
