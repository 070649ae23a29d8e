//! Turns the children's reports into metrics, checks, the noise report and
//! the printed and written documents.

use crate::child::{seeds_fingerprint, ChildReport};
use crate::json::{array, number, object, string};
use crate::spec::{
    self, Better, Call, Metric, Workload, LAYER_METRICS, ROUND_METRICS, TIME_METRICS,
    WIDE_REPLAY_WORKLOAD,
};
use crate::stats::{median, quartile_spread, relative_range};
use crate::{host, Plan, WorkloadRun};

/// Where the numbers were taken.
pub struct Host {
    cores: usize,
    threads: usize,
    rustc: String,
    commit: String,
}

impl Host {
    pub fn probe(plan: &Plan) -> Self {
        Self {
            cores: plan.cores,
            threads: plan.threads,
            rustc: host::first_line_of("rustc", &["--version"]),
            commit: host::first_line_of("git", &["rev-parse", "HEAD"]),
        }
    }

    /// With one core the multithreaded and sharded workloads time-slice:
    /// their numbers are printed, and not comparable with a 2-core host's.
    fn comparable(&self) -> bool {
        self.cores >= 2
    }

    fn json(&self) -> String {
        object([
            ("nproc", number(self.cores as f64)),
            ("threads", number(self.threads as f64)),
            ("rustc", string(&self.rustc)),
            ("git_commit", string(&self.commit)),
            ("not_comparable", (!self.comparable()).to_string()),
        ])
    }
}

/// One workload of one invocation, aggregated.
pub struct Summary {
    pub workload: &'static Workload,
    /// The median round of each metric, aligned with [`ROUND_METRICS`].
    pub medians: Vec<f64>,
    /// The values behind each, one per round that reported it.
    pub round_values: Vec<Vec<f64>>,
    /// Aligned with [`LAYER_METRICS`]; present after a traced replay.
    pub layers: Option<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The host's speed during each round (see [`host_speed`]): a reported
    /// time is the measured one times this.
    pub host_speeds: Vec<f64>,
    /// CPU over wall of the timed phases, median over the rounds.
    pub cpu_over_wall: f64,
    /// Queries behind each round's percentiles (1 on batch workloads).
    pub queries_per_round: f64,
    pub replay_wall_s: f64,
}

/// How fast the host was during a round: a slice of the reference kernel
/// on the quiet reference host over the median slice the round's child
/// measured around its timed phases.
fn host_speed(smoke: bool, report: &ChildReport) -> Option<f64> {
    let (_, quiet_s) = spec::reference_slice(smoke);
    report.values.get("reference_slice_s").map(|&s| quiet_s / s)
}

/// A round's value of a round metric, if that round reports it: as measured
/// for memory and counts, scaled to the reference host's speed for times
/// and rates. On batch workloads one query is one whole solve.
fn round_value(
    workload: &Workload,
    smoke: bool,
    report: &ChildReport,
    metric: &Metric,
) -> Option<f64> {
    let solve = || report.values.get("time_to_seeds_s").copied();
    let batch = workload.call != Call::Serve;
    let measured = match metric.name.trim_start_matches("timing.") {
        "queries_per_s" if batch => solve().map(|s| 1.0 / s),
        "query_p50_ms" | "query_p95_ms" if batch => solve().map(|s| s * 1e3),
        name => report.values.get(name).copied(),
    }?;
    if !TIME_METRICS.contains(&metric.name) {
        return Some(measured);
    }
    let speed = host_speed(smoke, report)?;
    Some(match metric.better {
        Better::Lower => measured * speed,
        Better::Higher => measured / speed,
    })
}

/// The median of a metric's rounds: a burst of contention shorter than a
/// round spoils at most one of three. A metric no round reported (every
/// child died) reads 0.
fn over_rounds(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts a child's own checks and queries; returns how many.
    fn absorb(&mut self, label: &str, report: &ChildReport) -> u64 {
        let before = self.attempted;
        for (name, ok, detail) in &report.checks {
            self.check(*ok, || format!("{label}: {name}: {detail}"));
        }
        let queries = report.value("queries") as u64;
        let bad = report.value("queries_failed") as u64;
        self.attempted += queries;
        self.failed += bad;
        if bad > 0 {
            self.failures
                .push(format!("{label}: {bad} of {queries} queries failed"));
        }
        self.attempted - before
    }
}

impl Summary {
    /// The value of a round or layer metric; 0 for a layer metric of an
    /// invocation without a replay.
    fn value_of(&self, name: &str) -> f64 {
        let find = |table: &[Metric], values: &[f64]| {
            let index = table.iter().position(|m| m.name == name)?;
            values.get(index).copied()
        };
        find(&ROUND_METRICS, &self.medians)
            .or_else(|| find(&LAYER_METRICS, self.layers.as_deref().unwrap_or(&[])))
            .unwrap_or(0.0)
    }

    pub fn of(plan: &Plan, run: &WorkloadRun) -> Self {
        let workload = run.workload;
        let live: Vec<&ChildReport> = run.rounds.iter().flatten().collect();
        let mut tally = Tally {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        };

        // A child that died counts every operation of a round as failed.
        let mut per_round = 1;
        for (index, report) in run.rounds.iter().enumerate() {
            if let Some(report) = report {
                per_round = per_round.max(tally.absorb(&format!("round {index}"), report));
            }
        }
        let dead = (run.rounds.len() - live.len()) as u64;
        tally.attempted += dead * per_round;
        tally.failed += dead * per_round;
        if dead > 0 {
            tally.failures.push(format!("{dead} round(s) died"));
        }

        // The IMM seed is fixed, so every round must return the same answer.
        if let Some((first, rest)) = live.split_first() {
            let identity = |r: &ChildReport| {
                (
                    r.seeds.clone(),
                    r.value("theta").to_bits(),
                    r.value("edges_examined").to_bits(),
                )
            };
            for other in rest {
                tally.check(identity(first) == identity(other), || {
                    "seeds, theta or edges_examined differ between rounds".to_string()
                });
            }
            if !plan.smoke && plan.workload_seed == 1 {
                let frozen = workload.frozen;
                let got = (
                    first.value("theta") as u64,
                    first.value("edges_examined") as u64,
                    seeds_fingerprint(&first.seeds),
                );
                let want = (
                    frozen.theta,
                    frozen.edges_examined,
                    frozen.seeds_fingerprint,
                );
                tally.check(got == want, || {
                    format!("(theta, edges_examined, seeds fingerprint) {got:?} is not the frozen {want:?}")
                });
            }
        }
        let replay = run.replay.as_ref().map(|r| r.as_ref());
        match replay {
            Some(Some(report)) => {
                tally.absorb("replay", report);
            }
            Some(None) => tally.check(false, || "the traced replay died".to_string()),
            None => {}
        }

        let mut round_values: Vec<Vec<f64>> = ROUND_METRICS
            .iter()
            .map(|m| {
                live.iter()
                    .filter_map(|r| round_value(workload, plan.smoke, r, m))
                    .collect()
            })
            .collect();
        let share = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
        let share_index = ROUND_METRICS
            .iter()
            .position(|m| m.name == "success_share")
            .expect("success_share is a round metric");
        round_values[share_index] = vec![share];
        let medians = round_values.iter().map(|v| over_rounds(v)).collect();

        let ratios: Vec<f64> = live
            .iter()
            .map(|r| r.value("cpu_s") / r.value("timed_wall_s"))
            .collect();
        let queries: Vec<f64> = live.iter().map(|r| r.value("queries").max(1.0)).collect();
        let host_speeds: Vec<f64> = live
            .iter()
            .filter_map(|r| host_speed(plan.smoke, r))
            .collect();
        let layers = match (replay, live.first()) {
            (Some(Some(traced)), Some(round)) => Some(
                LAYER_METRICS
                    .iter()
                    .map(|m| match m.name {
                        "host.speed" => host_speeds.first().copied().unwrap_or(0.0),
                        name => layer_value(workload, name, round, traced),
                    })
                    .collect(),
            ),
            _ => None,
        };
        Self {
            workload,
            medians,
            round_values,
            layers,
            attempted: tally.attempted.max(1),
            failed: tally.failed,
            failures: tally.failures,
            host_speeds,
            cpu_over_wall: if ratios.is_empty() {
                0.0
            } else {
                median(&ratios)
            },
            queries_per_round: if queries.is_empty() {
                0.0
            } else {
                median(&queries)
            },
            replay_wall_s: replay.flatten().map_or(0.0, |r| r.value("replay.wall_s")),
        }
    }
}

/// A per-layer metric: exact counts come from the round's returned result,
/// rates from the traced replay. A layer the workload does not run reads 0.
fn layer_value(workload: &Workload, name: &str, round: &ChildReport, traced: &ChildReport) -> f64 {
    let solve_s = round.value("time_to_seeds_s");
    let serve = workload.call == Call::Serve;
    match name {
        "host.measured_time_to_seeds_s" => solve_s,
        "graph.resident_bytes" => round.value("graph_bytes"),
        "sampler.edges_examined" => round.value("edges_examined"),
        "sampler.mean_set_size" => round.value("rrr_entries") / round.value("samples_generated"),
        "sampler.fused" => f64::from(u8::from(round.value("fused_passes") > 0.0)),
        "sampler.fused_passes" => round.value("fused_passes"),
        "store.resident_bytes_peak" => round.value("rrr_bytes_peak"),
        "store.spill_bytes_written" => round.value("spill_bytes_written"),
        "select.entries_touched" => round.value("select_entries_touched"),
        "select.index_build_s" => round.value("index_build_s"),
        "select.iterations" => round.value("select_iterations"),
        "driver.theta" => round.value("theta"),
        "driver.theta_rounds" => round.value("theta_rounds"),
        "driver.samples_generated" => round.value("samples_generated"),
        // What the engine's own sample and select spans leave of the solve.
        "driver.unattributed_fraction" if !serve => {
            1.0 - (round.value("sample_span_s") + round.value("select_span_s")) / solve_s
        }
        "serve.entries_touched_per_query" => round.value("entries_touched_per_query"),
        "serve.sketch_bytes" => round.value("sketch_bytes"),
        _ => traced.value(name),
    }
}

fn metric_json(metric: &Metric, value: f64, rounds: Option<&[f64]>) -> String {
    let mut members = vec![
        ("value", number(value)),
        ("unit", string(metric.unit)),
        ("better", string(metric.better.tag())),
    ];
    if let Some(bound) = metric.bound {
        members.push(("bound", number(bound)));
    }
    if let Some(rounds) = rounds {
        members.push(("rounds", array(rounds.iter().map(|&v| number(v)))));
    }
    object(members)
}

/// A time metric whose rounds range wider than this share of their median
/// is marked `noisy`: the widest bound ISSUE 13 allows.
const NOISY_ABOVE: f64 = 0.10;

/// Per time metric: the round values, `(max − min) / median`, and whether
/// that is `noisy`. It reports; the exit status never depends on it.
fn noise_rows(summary: &Summary) -> Vec<(&'static Metric, &[f64], f64, bool)> {
    ROUND_METRICS
        .iter()
        .zip(&summary.round_values)
        .filter(|(m, values)| TIME_METRICS.contains(&m.name) && values.len() > 1)
        .map(|(m, values)| {
            let spread = relative_range(values);
            (m, values.as_slice(), spread, spread > NOISY_ABOVE)
        })
        .collect()
}

fn summary_json(summary: &Summary) -> String {
    let round_metrics = ROUND_METRICS
        .iter()
        .zip(&summary.medians)
        .zip(&summary.round_values)
        .map(|((m, &v), rounds)| (m.name, metric_json(m, v, Some(rounds))));
    let noise = noise_rows(summary)
        .into_iter()
        .map(|(m, values, spread, noisy)| {
            (
                m.name,
                object([
                    ("rounds", array(values.iter().map(|&v| number(v)))),
                    ("range_over_median", number(spread)),
                    ("noisy", noisy.to_string()),
                ]),
            )
        });
    let mut members = vec![
        ("name", string(summary.workload.name)),
        ("why", string(summary.workload.why)),
        ("attempted", number(summary.attempted as f64)),
        ("failed", number(summary.failed as f64)),
        (
            "failures",
            array(summary.failures.iter().map(|f| string(f))),
        ),
        ("round_metrics", object(round_metrics)),
        ("queries_per_round", number(summary.queries_per_round)),
        ("cpu_over_wall", number(summary.cpu_over_wall)),
        (
            "host_speed",
            array(summary.host_speeds.iter().map(|&v| number(v))),
        ),
        ("noise", object(noise)),
    ];
    if let Some(values) = &summary.layers {
        let layers = LAYER_METRICS
            .iter()
            .zip(values)
            .map(|(m, &v)| (m.name, metric_json(m, v, None)));
        members.push(("layers", object(layers)));
        members.push(("replay_wall_s", number(summary.replay_wall_s)));
    }
    object(members)
}

pub fn full_document(host: &Host, summaries: &[Summary]) -> String {
    object([
        ("host", host.json()),
        ("workloads", array(summaries.iter().map(summary_json))),
    ])
}

/// `trace.json`: the spans of every replayed workload, one per line.
pub fn trace_document(host: &Host, spans: &[String]) -> String {
    format!(
        "{{\"host\":{},\"spans\":[\n{}\n]}}\n",
        host.json(),
        spans.join(",\n")
    )
}

/// The last line of standard output: the gated metrics of an untraced
/// invocation, the ungated ones of a traced one. With more than one
/// workload the names read `workload/metric`.
pub fn result_line(plan: &Plan, summaries: &[Summary]) -> String {
    let single = summaries.len() == 1;
    let mut metrics = Vec::new();
    for summary in summaries {
        let listed: Vec<&Metric> = if plan.trace {
            spec::per_layer().collect()
        } else {
            spec::end_to_end().collect()
        };
        for metric in listed {
            let value = summary.value_of(metric.name);
            let name = if single {
                metric.name.to_string()
            } else {
                format!("{}/{}", summary.workload.name, metric.name)
            };
            let body = object([("value", number(value)), ("unit", string(metric.unit))]);
            metrics.push((name, body));
        }
    }
    let attempted: u64 = summaries.iter().map(|s| s.attempted).sum();
    let failed: u64 = summaries.iter().map(|s| s.failed).sum();
    object([
        ("correct", (failed == 0).to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", object(metrics)),
    ])
}

fn print_metric_row(metric: &Metric, value: f64, note: &str) {
    let bound = metric
        .bound
        .map_or_else(String::new, |b| format!("{:.1}%", b * 100.0));
    println!(
        "  {:<38} {:>18.6} {:<8} {:<7} {:>6}  {note}",
        metric.name,
        value,
        metric.unit,
        metric.better.tag(),
        bound
    );
}

pub fn print_human(host: &Host, plan: &Plan, summaries: &[Summary], wall_s: f64) {
    println!(
        "ripples-benchmark: workload seed {}, {} round(s), T = {} of {} core(s), {}, commit {}{}",
        plan.workload_seed,
        plan.rounds,
        host.threads,
        host.cores,
        host.rustc,
        host.commit,
        if host.comparable() {
            ""
        } else {
            " [not_comparable: one core]"
        }
    );
    for summary in summaries {
        let w = summary.workload;
        println!("\n{} - {}", w.name, w.why);
        println!(
            "  {:<38} {:>18} {:<8} {:<7} {:>6}",
            "metric", "value", "unit", "better", "bound"
        );
        for (metric, &value) in ROUND_METRICS.iter().zip(&summary.medians) {
            let note = if metric.name == "timing.query_p95_ms" {
                format!("{} queries per round", summary.queries_per_round)
            } else {
                String::new()
            };
            print_metric_row(metric, value, &note);
        }
        if let Some(values) = &summary.layers {
            for (metric, &value) in LAYER_METRICS.iter().zip(values) {
                print_metric_row(metric, value, "");
            }
            println!("  traced replay took {:.2} s", summary.replay_wall_s);
        }
        println!(
            "  checked operations: {} attempted, {} failed; cpu/wall {:.2}",
            summary.attempted, summary.failed, summary.cpu_over_wall
        );
        println!(
            "  host speed per round {:.3?}: times above are the measured ones times this",
            summary.host_speeds
        );
        for failure in &summary.failures {
            println!("  FAILED {failure}");
        }
        for (metric, values, spread, noisy) in noise_rows(summary) {
            println!(
                "  noise {:<18} rounds {:?} range/median {:.3}{}",
                metric.name,
                values,
                spread,
                if noisy { " noisy" } else { "" }
            );
        }
    }
    if plan.trace && !plan.smoke {
        print_predictions(summaries);
    }
    println!("\ninvocation took {wall_s:.1} s");
}

/// What the interaction table of the README predicts for the baseline, at
/// full scale (the smoke tier is too small to spill).
fn print_predictions(summaries: &[Summary]) {
    let layer = |summary: &Summary, name: &str| summary.value_of(name);
    println!("\npredictions");
    for summary in summaries {
        let name = summary.workload.name;
        let rows = [
            (
                "sampler.fused is 1 only on ic_dense_mt",
                (layer(summary, "sampler.fused") > 0.0) == (name == "ic_dense_mt"),
            ),
            (
                "store.spill_bytes_written > 0 only on lt_spill_mt",
                (layer(summary, "store.spill_bytes_written") > 0.0) == (name == "lt_spill_mt"),
            ),
            (
                "comm.bytes_total > 0 only where the replay runs the sharded engine",
                (layer(summary, "comm.bytes_total") > 0.0) == (name == WIDE_REPLAY_WORKLOAD),
            ),
            (
                "topk and topk_excluding, the queries that select, are at least 80% of serve_mix query time",
                name != "serve_mix" || layer(summary, "serve.topk_ops_time_share") >= 0.8,
            ),
        ];
        for (what, holds) in rows {
            println!(
                "  {name}: {what}: {}",
                if holds { "holds" } else { "DOES NOT HOLD" }
            );
        }
    }
}

/// One workload–metric pair of an A/A run: per set the invocation values,
/// their median and quartile spread, and by how much the second set's
/// median is worse than the first's.
struct AaPair {
    workload: &'static Workload,
    metric: &'static Metric,
    sets: Vec<Vec<f64>>,
    spreads: Vec<f64>,
    worse_by: f64,
}

impl AaPair {
    /// What the driver accepts of a bounded metric: the drift between the
    /// sets within the bound, and both spreads too unless the metric is
    /// `setup_s`. An unbounded metric has no verdict.
    fn holds(&self) -> Option<bool> {
        let bound = self.metric.bound?;
        let steady = self.metric.name == "setup_s" || self.spreads.iter().all(|&s| s <= bound);
        Some(steady && self.worse_by <= bound)
    }

    fn verdict(&self) -> &'static str {
        match self.holds() {
            Some(true) => "within_bound",
            Some(false) => "exceeds_bound",
            None => "ungated",
        }
    }
}

/// `sets[set][invocation][workload]`; an invocation of a set has its own
/// workload seed, as the driver's runs do.
fn aa_pairs(sets: &[Vec<Vec<Summary>>]) -> Vec<AaPair> {
    let Some(first) = sets.first().and_then(|set| set.first()) else {
        return Vec::new();
    };
    let mut pairs = Vec::new();
    for (w, summary) in first.iter().enumerate() {
        for (m, metric) in ROUND_METRICS.iter().enumerate() {
            let values: Vec<Vec<f64>> = sets
                .iter()
                .map(|set| set.iter().map(|inv| inv[w].medians[m]).collect())
                .collect();
            let medians: Vec<f64> = values.iter().map(|v| median(v)).collect();
            let change = (medians[1] - medians[0]) / medians[0];
            pairs.push(AaPair {
                workload: summary.workload,
                metric,
                spreads: values.iter().map(|v| quartile_spread(v)).collect(),
                worse_by: match metric.better {
                    Better::Lower => change,
                    Better::Higher => -change,
                },
                sets: values,
            });
        }
    }
    pairs
}

pub fn aa_document(host: &Host, sets: &[Vec<Vec<Summary>>]) -> String {
    let pairs = aa_pairs(sets).into_iter().map(|pair| {
        let set_json = |index: usize| {
            object([
                ("values", array(pair.sets[index].iter().map(|&v| number(v)))),
                ("median", number(median(&pair.sets[index]))),
                ("quartile_spread", number(pair.spreads[index])),
            ])
        };
        object([
            ("workload", string(pair.workload.name)),
            ("metric", string(pair.metric.name)),
            ("unit", string(pair.metric.unit)),
            ("set_1", set_json(0)),
            ("set_2", set_json(1)),
            ("set_2_worse_by", number(pair.worse_by)),
            (
                "bound",
                pair.metric.bound.map_or("null".to_string(), number),
            ),
            ("verdict", string(pair.verdict())),
        ])
    });
    object([
        ("host", host.json()),
        (
            "invocations_per_set",
            number(sets.first().map_or(0, Vec::len) as f64),
        ),
        ("pairs", array(pairs)),
    ])
}

pub fn print_aa(sets: &[Vec<Vec<Summary>>]) {
    eprintln!(
        "{:<14} {:<24} {:>14} {:>9} {:>9} {:>9} {:>7}",
        "workload", "metric", "median 1", "spread 1", "spread 2", "2 worse", "bound"
    );
    for pair in aa_pairs(sets) {
        eprintln!(
            "{:<14} {:<24} {:>14.6} {:>8.2}% {:>8.2}% {:>8.2}% {:>7}  {}",
            pair.workload.name,
            pair.metric.name,
            median(&pair.sets[0]),
            pair.spreads[0] * 100.0,
            pair.spreads[1] * 100.0,
            pair.worse_by * 100.0,
            pair.metric
                .bound
                .map_or_else(String::new, |b| format!("{:.1}%", b * 100.0)),
            pair.verdict()
        );
    }
}
