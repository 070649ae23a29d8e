//! The repository's regression benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ripples-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--smoke] [--aa N] [--out FILE] [--trace-out FILE]
//! ```
//!
//! The parent generates the input graphs from `--seed`, writes them once
//! into its scratch directory, and runs every round of every workload in a
//! fresh child process (this executable with `--child`), one at a time.
//! `--aa N` runs two sets of N invocations with seeds `--seed`, `--seed` + 1,
//! .. and reports every workload-metric pair's quartile spread in each set
//! and the drift between the sets' medians, beside the metric's bound.

mod child;
mod host;
mod json;
mod reference;
mod replay;
mod report;
mod spec;
mod stats;

use child::{ChildArgs, ChildReport};
use host::Scratch;
use spec::{GraphKind, Workload, DEFAULT_SECONDS, ROUNDS, SERVE_LOOP_SHARE, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A child that has not finished by then is killed and counted as failed.
const CHILD_LIMIT: Duration = Duration::from_secs(150);
/// The smoke tier: two rounds, so that rounds can be compared.
const SMOKE_ROUNDS: usize = 2;
const SMOKE_SECONDS: f64 = 1.0;
/// `--aa` waits this long between its two sets.
const AA_PAUSE: Duration = Duration::from_secs(60);

/// `--name value` pairs and bare `--flag`s of the command line.
struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    const FLAGS: [&'static str; 2] = ["--smoke", "--replay"];

    fn parse(mut tokens: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                return Err(format!("unexpected argument `{token}`"));
            }
            let value = if Self::FLAGS.contains(&token.as_str()) {
                "1".to_string()
            } else {
                tokens
                    .next()
                    .ok_or_else(|| format!("`{token}` needs a value"))?
            };
            values.insert(token, value);
        }
        Ok(Self { values })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("`{name} {text}` is not a valid number")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.get(name).map(PathBuf::from)
    }

    fn workload(&self, name: &str) -> Result<Option<&'static Workload>, String> {
        self.get(name)
            .map(|w| spec::workload(w).ok_or_else(|| format!("unknown workload `{w}`")))
            .transpose()
    }
}

/// What one invocation runs.
pub struct Plan {
    pub workloads: Vec<&'static Workload>,
    pub workload_seed: u64,
    /// Rounds every workload runs; round r runs each workload once, in
    /// workload order.
    pub rounds: usize,
    /// Scales the closed query loop of `serve_mix`; the batch solves have a
    /// frozen size.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub threads: usize,
    pub cores: usize,
}

/// The reports of one workload's children; `None` where a child died.
pub struct WorkloadRun {
    pub workload: &'static Workload,
    pub rounds: Vec<Option<ChildReport>>,
    pub replay: Option<Option<ChildReport>>,
}

fn graph_path(scratch: &Path, kind: GraphKind) -> PathBuf {
    scratch.join(format!("{}.edges", kind.tag()))
}

/// Generates each graph the plan needs from the workload seed and writes
/// it once; children receive only these files.
fn write_graphs(plan: &Plan, scratch: &Path) -> Result<(), String> {
    for kind in [GraphKind::Sparse, GraphKind::Dense] {
        if !plan.workloads.iter().any(|w| w.graph == kind) {
            continue;
        }
        let graph = ripples_graph::generators::barabasi_albert(
            kind.vertices(plan.smoke),
            GraphKind::ATTACH,
            ripples_graph::WeightModel::Constant(1.0),
            false,
            plan.workload_seed,
        );
        let path = graph_path(scratch, kind);
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        ripples_graph::io::write_edge_list(&graph, file)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn child_command(
    plan: &Plan,
    workload: &Workload,
    scratch: &Path,
    round: usize,
    spans_out: Option<&Path>,
) -> Vec<String> {
    let mut args = vec![
        "--child".to_string(),
        workload.name.to_string(),
        "--graph".to_string(),
        graph_path(scratch, workload.graph).display().to_string(),
        "--seed".to_string(),
        plan.workload_seed.to_string(),
        "--threads".to_string(),
        plan.threads.to_string(),
        "--round".to_string(),
        round.to_string(),
        "--loop-seconds".to_string(),
        (plan.seconds * SERVE_LOOP_SHARE).to_string(),
        "--scratch".to_string(),
        scratch.display().to_string(),
    ];
    if plan.smoke {
        args.push("--smoke".to_string());
    }
    if let Some(path) = spans_out {
        args.push("--replay".to_string());
        args.push("--spans-out".to_string());
        args.push(path.display().to_string());
    }
    args
}

fn child_main(args: &Args) -> Result<(), String> {
    let missing = |name: &str| format!("child needs `{name}`");
    let child = ChildArgs {
        workload: args
            .workload("--child")?
            .ok_or_else(|| missing("--child"))?,
        graph_path: args.path("--graph").ok_or_else(|| missing("--graph"))?,
        workload_seed: args.number("--seed", 1)?,
        threads: args.number("--threads", 1)?,
        round: args.number("--round", 0)?,
        loop_seconds: args.number("--loop-seconds", 0.0)?,
        smoke: args.flag("--smoke"),
        scratch: args.path("--scratch").ok_or_else(|| missing("--scratch"))?,
        spans_out: args.path("--spans-out"),
    };
    if args.flag("--replay") {
        replay::run_replay(&child);
    } else {
        child::run_round(&child);
    }
    Ok(())
}

/// Runs the plan: `rounds` interleaved rounds, then the traced replay of
/// each workload. Spans of the replays are appended to `spans`.
fn invoke(
    plan: &Plan,
    scratch: &Path,
    spans: &mut Vec<String>,
) -> Result<Vec<WorkloadRun>, String> {
    write_graphs(plan, scratch)?;
    let mut runs: Vec<WorkloadRun> = plan
        .workloads
        .iter()
        .map(|&workload| WorkloadRun {
            workload,
            rounds: Vec::new(),
            replay: None,
        })
        .collect();
    let run = |command: Vec<String>| {
        host::run_child(&command, scratch, CHILD_LIMIT).map(|text| ChildReport::parse(&text))
    };
    for round in 0..plan.rounds {
        for entry in &mut runs {
            let command = child_command(plan, entry.workload, scratch, round, None);
            entry.rounds.push(run(command));
        }
    }
    if plan.trace {
        let spans_path = scratch.join("replay.spans");
        for entry in &mut runs {
            let command = child_command(plan, entry.workload, scratch, 0, Some(&spans_path));
            entry.replay = Some(run(command));
            if let Ok(text) = std::fs::read_to_string(&spans_path) {
                spans.extend(text.lines().map(str::to_string));
            }
            let _ = std::fs::remove_file(&spans_path);
        }
    }
    Ok(runs)
}

fn parent_main(args: &Args) -> Result<bool, String> {
    let seconds: f64 = args.number("--seconds", DEFAULT_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("`--seconds {seconds}` must be positive"));
    }
    let trace = args.number("--trace", 0u8)? != 0;
    let smoke = args.flag("--smoke");
    let cores = host::available_cores();
    let plan = Plan {
        workloads: match args.workload("--workload")? {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        },
        workload_seed: args.number("--seed", 1)?,
        rounds: if smoke { SMOKE_ROUNDS } else { ROUNDS },
        seconds: if smoke { SMOKE_SECONDS } else { seconds },
        trace,
        smoke,
        threads: cores.min(2),
        cores,
    };
    let host = report::Host::probe(&plan);
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let started = Instant::now();

    let per_set: u64 = args.number("--aa", 0)?;
    if per_set > 0 {
        // Two sets of `per_set` invocations, seeds `--seed`, `--seed` + 1, ..
        // in each, a pause between the sets: what the driver does.
        let mut sets = Vec::new();
        for set in 0..2 {
            if set > 0 {
                std::thread::sleep(AA_PAUSE);
            }
            let mut invocations = Vec::new();
            for offset in 0..per_set {
                let plan = Plan {
                    workload_seed: plan.workload_seed + offset,
                    workloads: plan.workloads.clone(),
                    ..plan
                };
                let runs = invoke(&plan, scratch.path(), &mut Vec::new())?;
                let summary: Vec<report::Summary> =
                    runs.iter().map(|r| report::Summary::of(&plan, r)).collect();
                eprintln!(
                    "set {} invocation {} of {per_set} done at {:.0} s",
                    set + 1,
                    offset + 1,
                    started.elapsed().as_secs_f64()
                );
                invocations.push(summary);
            }
            sets.push(invocations);
        }
        let correct = sets.iter().flatten().flatten().all(|s| s.failed == 0);
        let document = report::aa_document(&host, &sets);
        match args.path("--out") {
            Some(path) => {
                std::fs::write(&path, &document).map_err(|e| format!("{}: {e}", path.display()))?
            }
            None => println!("{document}"),
        }
        report::print_aa(&sets);
        return Ok(correct);
    }

    let mut spans = Vec::new();
    let runs = invoke(&plan, scratch.path(), &mut spans)?;
    let summaries: Vec<report::Summary> =
        runs.iter().map(|r| report::Summary::of(&plan, r)).collect();
    if plan.trace {
        let path = args.path("--trace-out").unwrap_or_else(|| {
            let exe = std::env::current_exe().unwrap_or_default();
            exe.with_file_name("trace.json")
        });
        std::fs::write(&path, report::trace_document(&host, &spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    if let Some(path) = args.path("--out") {
        std::fs::write(&path, report::full_document(&host, &summaries))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    report::print_human(&host, &plan, &summaries, started.elapsed().as_secs_f64());
    println!("{}", report::result_line(&plan, &summaries));
    Ok(summaries.iter().all(|s| s.failed == 0))
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        if args.flag("--child") {
            child_main(&args).map(|()| true)
        } else {
            parent_main(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ripples-benchmark: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("ripples-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
