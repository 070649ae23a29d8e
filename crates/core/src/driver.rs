//! The martingale driver: the paper's Algorithm 1, written once.
//!
//! ```text
//! ⟨R, θ⟩ ← EstimateTheta(G, k, ε)      // Algorithm 2, martingale rounds
//! R ← Sample(G, θ − |R|, R)            // top up to θ samples
//! S ← SelectSeeds(G, k, R)             // Algorithm 4 (greedy max cover)
//! ```
//!
//! IMM, IMMOPT, IMMmt and IMMdist (and the sharded extension)
//! differ only in how a batch of RRR sets is produced, where it is stored
//! and how the `n` cover counters are reduced. Each of them is an
//! [`Engine`]: a small value that owns its sample store and answers four
//! questions. [`run_imm`] owns everything else.
//!
//! What the driver guarantees to every engine, and to every reader of an
//! [`ImmResult`]:
//!
//! * **Span tree.** `EstimateTheta/round-x/{sample,select}`, then `Sample`
//!   (only when the final θ exceeds the estimation population), then
//!   `SelectSeeds` — the same names and nesting for every engine.
//! * **No selection runs twice.** When the final θ needs no sample beyond
//!   those the last estimation round selected over, none were discarded and
//!   that round selected `k` seeds (`sizing_k == k`), `SelectSeeds` would
//!   repeat that round's computation on the identical store, so it returns
//!   the round's [`Selection`] instead. Every term of the condition is the
//!   same on every rank, so the ranks of a distributed engine skip the same
//!   collectives.
//! * **Counter set.** `theta_rounds`, `round_budgets`, `round_coverage`,
//!   `theta_final`, `rrr_bytes_peak` and the five [`SelectStats`] totals
//!   are filled here. The engine's `grow_to` adds the sampling counters
//!   through [`record_batch`], its `finish` the store-derived ones.
//! * **One counter path.** A sampling counter is recorded once, in the
//!   batch's [`BatchOutcome`], and a selection counter once, in the pass's
//!   [`SelectStats`]; each adds the same delta to the live registry as it
//!   records it. The report reads those records, so it and the registry
//!   agree, and the running peaks the report keeps are mirrored live here.
//! * **θ semantics.** Estimation rounds and θ are sized by
//!   [`ImmParams::sizing_k`]; only the final selection returns
//!   [`ImmParams::effective_k`] seeds. `theta` in the result is the global
//!   population the final selection ran over.
//! * **Degenerate graphs** (`n < 2`) skip the estimation math and return
//!   the engine's own label with whatever its `finish` reports.
//! * **LT input** is checked for normalized in-weights before any sample
//!   is drawn.

use crate::memory::MemoryStats;
use crate::obs::metrics::{self, Metric};
use crate::obs::{trace, RunReport, SpanKind};
use crate::params::ImmParams;
use crate::phases::Phase;
use crate::result::ImmResult;
use crate::select::{SelectStats, Selection};
use crate::theta::ThetaSchedule;
use ripples_diffusion::{BatchOutcome, DiffusionModel, RrrStore};
use ripples_graph::Graph;

/// What an IMM implementation supplies to [`run_imm`].
pub(crate) trait Engine {
    /// Grows the *global* sample population to `total` samples (a
    /// distributed engine appends only its rank's share), recording the
    /// sampling counters and histograms of the new samples.
    fn grow_to(&mut self, total: usize, report: &mut RunReport);

    /// Resident bytes of this engine's sample store right now.
    fn resident_bytes(&self) -> usize;

    /// Resident bytes of this process's share of the graph right now.
    fn graph_bytes(&self) -> usize;

    /// One greedy max-cover pass for `k` seeds over the current population.
    /// The seeds and coverage fraction are global (identical on every rank
    /// of a distributed engine); the stats are this rank's. A pass may
    /// change how the engine holds its samples, never which samples.
    fn select(&mut self, k: u32) -> (Selection, SelectStats);

    /// Completes the report once the driver's own counters are in place:
    /// store-derived counters, and for communicator engines the cross-rank
    /// reductions, the comm section and the gathered trace.
    fn finish(&mut self, report: &mut RunReport);

    /// Called once θ is fixed. An engine that regenerates the whole
    /// population instead of topping it up (Tang et al.'s released code)
    /// drops its samples here and returns true.
    fn discard_estimation_samples(&mut self) -> bool {
        false
    }
}

/// Records one sampling batch's outcome into `report`: sample/edge counters,
/// the sizes of the new samples, per-worker load-balance observations (how
/// many samples each worker generated — the schedule decides, so they vary
/// between runs), and the peaks of the block arenas and fused masks in
/// flight. The only code that writes sampling counters into a report.
pub(crate) fn record_batch(report: &mut RunReport, outcome: &BatchOutcome) {
    let c = &mut report.counters;
    c.samples_generated += outcome.set_sizes.count();
    c.edges_examined += outcome.total_work();
    c.arena_bytes_peak = c.arena_bytes_peak.max(outcome.arena_bytes as u64);
    c.fused_passes += outcome.fused_passes;
    c.mask_bytes_peak = c.mask_bytes_peak.max(outcome.mask_bytes as u64);
    c.frontier_exchanges += outcome.frontier_exchanges;
    report.rrr_sizes.merge(&outcome.set_sizes);
    for &w in &outcome.per_worker_samples {
        report.thread_samples.record(w);
    }
    for (lanes, &times) in outcome.lane_width_counts.iter().enumerate() {
        report.lanes_active.record_n(lanes as u64, times);
    }
    // The trace stream and the registry mirror the *running peak*, not the
    // last batch's reservation, so they show the high-water mark the
    // counters report.
    let (arena, mask) = (c.arena_bytes_peak, c.mask_bytes_peak);
    metrics::set_max(Metric::ArenaBytesPeak, arena);
    metrics::set_max(Metric::MaskBytesPeak, mask);
    trace::counter(trace::TraceName::ArenaBytes, arena);
    if mask > 0 {
        trace::counter(trace::TraceName::MaskBytes, mask);
    }
}

/// The counters read straight off a filled store.
pub(crate) fn record_store_counters<S: RrrStore>(report: &mut RunReport, store: &S) {
    report.counters.rrr_entries = store.total_entries();
    report.counters.unsorted_pushes = store.unsorted_pushes();
    report.counters.spill_bytes_written = store.spill_bytes_written();
    report.counters.spill_write_failures = store.spill_write_failures();
    let forms = store.form_counts();
    report.counters.rrr_sets_bitmap = forms.bitmap_sets;
    report.counters.rrr_bitmap_bytes = forms.bitmap_bytes;
    report.counters.rrr_sets_complement = forms.complement_sets;
    report.counters.rrr_complement_bytes = forms.complement_bytes;
}

/// The counters accumulated over a run's selection passes.
pub(crate) fn record_select_counters(
    report: &mut RunReport,
    memory: &mut MemoryStats,
    stats: SelectStats,
) {
    memory.observe_index(stats.index_bytes);
    report.counters.rrr_bytes_peak = memory.peak_rrr_bytes as u64;
    report.counters.select_iterations = stats.iterations;
    report.counters.select_entries_touched = stats.entries_touched;
    report.counters.index_build_nanos = stats.index_build_nanos;
    report.counters.index_bytes_peak = stats.index_bytes as u64;
}

/// The process's graph share, read when the run ends: a replicated graph
/// then counts a forward view that anything in the run built.
pub(crate) fn record_graph_bytes(report: &mut RunReport, memory: &mut MemoryStats, bytes: usize) {
    memory.graph_bytes = bytes;
    report.counters.graph_bytes_peak = bytes as u64;
    metrics::set_max(Metric::GraphBytesPeak, bytes as u64);
}

/// Runs Algorithm 1 over `engine`. `footprint` carries the engine's fixed
/// bytes (counter arrays); the driver adds the graph share and the RRR and
/// index peaks.
pub(crate) fn run_imm<E: Engine>(
    label: &str,
    graph: &Graph,
    params: &ImmParams,
    footprint: MemoryStats,
    engine: &mut E,
) -> ImmResult {
    let n = graph.num_vertices();
    let k = params.effective_k(n);
    let mut report = RunReport::new(label);
    let mut memory = footprint;
    if n < 2 {
        record_graph_bytes(&mut report, &mut memory, engine.graph_bytes());
        engine.finish(&mut report);
        return ImmResult {
            seeds: (0..k).collect(),
            theta: 0,
            coverage_fraction: if n > 0 { 1.0 } else { 0.0 },
            opt_lower_bound: None,
            memory,
            report,
        };
    }
    // Not every engine samples through the batch samplers' entry
    // validation, so the LT contract is asserted here for all of them:
    // un-normalized input fails fast in every profile.
    if params.model == DiffusionModel::LinearThreshold {
        ripples_diffusion::ensure_lt_normalized(graph);
    }
    // The θ schedule and the estimation-round selections size the sketch;
    // only the final selection returns `k` seeds. `sizing_k == k` unless
    // the caller set `k_max` (serve mode).
    let sizing_k = params.sizing_k(n);
    let schedule = ThetaSchedule::new(
        u64::from(n),
        u64::from(sizing_k),
        params.epsilon,
        params.ell,
    );
    let mut held = 0usize;
    let mut select_stats = SelectStats::default();
    // The latest estimation round's selection, over `held` samples.
    let mut last_round: Option<Selection> = None;

    // --- EstimateTheta (Algorithm 2) -----------------------------------
    let mut lb: Option<f64> = None;
    report.span(Phase::EstimateTheta, |report| {
        for x in 1..=schedule.max_rounds() {
            let budget = schedule.round_budget(x);
            metrics::set(Metric::ThetaTarget, budget as u64);
            let fraction = report.span(SpanKind::Round(x), |report| {
                if budget > held {
                    report.span(SpanKind::Sample, |report| {
                        engine.grow_to(budget, report);
                    });
                    held = budget;
                }
                memory.observe_rrr(engine.resident_bytes());
                let (sel, stats) = report.span(SpanKind::Select, |_| engine.select(sizing_k));
                select_stats.absorb(stats);
                report.counters.theta_rounds += 1;
                report.counters.round_budgets.push(budget as u64);
                report.counters.round_coverage.push(sel.fraction);
                let fraction = sel.fraction;
                last_round = Some(sel);
                fraction
            });
            if schedule.round_succeeds(x, fraction) {
                lb = Some(schedule.lower_bound(fraction));
                break;
            }
        }
    });
    let theta = match lb {
        Some(bound) => schedule.final_theta(bound),
        None => schedule.fallback_theta(u64::from(sizing_k)),
    };
    metrics::set(Metric::ThetaTarget, theta as u64);

    // --- Sample top-up (Algorithm 3 from the skeleton) ------------------
    if engine.discard_estimation_samples() {
        held = 0;
    }
    // Whether `SelectSeeds` would repeat the last round's selection: the
    // same samples (kept, and θ asks for no more) and the same `k`.
    let unchanged = theta <= held && sizing_k == k;
    if theta > held {
        report.span(Phase::Sample, |report| {
            engine.grow_to(theta, report);
        });
        held = theta;
    }
    memory.observe_rrr(engine.resident_bytes());

    // --- SelectSeeds (Algorithm 4) ---------------------------------------
    let sel = report.span(Phase::SelectSeeds, |_| {
        match last_round.filter(|_| unchanged) {
            Some(sel) => sel,
            None => {
                let (sel, stats) = engine.select(k);
                select_stats.absorb(stats);
                sel
            }
        }
    });

    report.counters.theta_final = held as u64;
    record_select_counters(&mut report, &mut memory, select_stats);
    record_graph_bytes(&mut report, &mut memory, engine.graph_bytes());
    engine.finish(&mut report);
    ImmResult {
        seeds: sel.seeds,
        theta: held,
        coverage_fraction: sel.fraction,
        opt_lower_bound: lb,
        memory,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_graph::GraphBuilder;
    use std::cell::Cell;

    /// Covers the same scripted fraction in every selection, and marks each
    /// [`Selection`] with the population it was made over.
    struct Scripted {
        fraction: f64,
        held: usize,
        selects: Cell<u32>,
        discards: bool,
    }

    impl Engine for Scripted {
        fn grow_to(&mut self, total: usize, _: &mut RunReport) {
            self.held = total;
        }

        fn resident_bytes(&self) -> usize {
            0
        }

        fn graph_bytes(&self) -> usize {
            0
        }

        fn select(&mut self, k: u32) -> (Selection, SelectStats) {
            self.selects.set(self.selects.get() + 1);
            let selection = Selection {
                seeds: (0..k).collect(),
                covered: self.held,
                fraction: self.fraction,
                marginal_gains: Vec::new(),
            };
            let stats = SelectStats {
                iterations: u64::from(k),
                ..SelectStats::default()
            };
            (selection, stats)
        }

        fn finish(&mut self, _: &mut RunReport) {}

        fn discard_estimation_samples(&mut self) -> bool {
            self.discards
        }
    }

    const N: u32 = 1000;
    const K: u32 = 50;
    const EPSILON: f64 = 0.1;

    fn run(fraction: f64, params: &ImmParams, discards: bool) -> (ImmResult, u32) {
        let graph = GraphBuilder::new(N).build().unwrap();
        let mut engine = Scripted {
            fraction,
            held: 0,
            selects: Cell::new(0),
            discards,
        };
        let result = run_imm(
            "scripted",
            &graph,
            params,
            MemoryStats::default(),
            &mut engine,
        );
        (result, engine.selects.get())
    }

    fn params() -> ImmParams {
        ImmParams::new(
            K,
            EPSILON,
            ripples_diffusion::DiffusionModel::IndependentCascade,
            1,
        )
    }

    fn top_level_spans(result: &ImmResult) -> Vec<&str> {
        let spans = result.report.spans();
        spans.iter().map(|s| s.name.as_str()).collect()
    }

    #[test]
    fn final_selection_reuses_the_last_round_when_nothing_changed() {
        // Full coverage certifies round 1, and θ stays within its budget.
        let schedule = ThetaSchedule::new(u64::from(N), u64::from(K), EPSILON, 1.0);
        let budget = schedule.round_budget(1);
        assert!(schedule.round_succeeds(1, 1.0));
        assert!(schedule.final_theta(schedule.lower_bound(1.0)) <= budget);

        let (result, selects) = run(1.0, &params(), false);
        assert_eq!(
            selects, 1,
            "round 1 selected; SelectSeeds must not repeat it"
        );
        assert_eq!(result.theta, budget);
        assert_eq!(result.seeds, (0..K).collect::<Vec<_>>());
        assert_eq!(result.report.counters.theta_rounds, 1);
        assert_eq!(result.report.counters.select_iterations, u64::from(K));
        assert_eq!(top_level_spans(&result), ["EstimateTheta", "SelectSeeds"]);
    }

    #[test]
    fn final_selection_runs_when_theta_tops_up_the_population() {
        // 0.3 fails round 1, barely certifies round 2, and the resulting
        // bound asks for more samples than round 2 held.
        let schedule = ThetaSchedule::new(u64::from(N), u64::from(K), EPSILON, 1.0);
        assert!(!schedule.round_succeeds(1, 0.3) && schedule.round_succeeds(2, 0.3));
        let theta = schedule.final_theta(schedule.lower_bound(0.3));
        assert!(theta > schedule.round_budget(2));

        let (result, selects) = run(0.3, &params(), false);
        assert_eq!(selects, 3, "two rounds and SelectSeeds");
        assert_eq!(result.theta, theta);
        assert_eq!(result.report.counters.select_iterations, 3 * u64::from(K));
        assert_eq!(
            top_level_spans(&result),
            ["EstimateTheta", "Sample", "SelectSeeds"]
        );
    }

    #[test]
    fn final_selection_runs_for_a_different_k_or_a_fresh_population() {
        // Serve mode sizes the sketch for k_max and returns k seeds.
        let sized = ImmParams::new(5, EPSILON, params().model, 1).with_k_max(K);
        let (result, selects) = run(1.0, &sized, false);
        assert_eq!(selects, 2);
        assert_eq!(result.seeds, (0..5).collect::<Vec<_>>());
        assert!(!top_level_spans(&result).contains(&"Sample"));

        // Tang's resampling mode selects over samples no round has seen.
        let (result, selects) = run(1.0, &params(), true);
        assert_eq!(selects, 2);
        assert_eq!(
            top_level_spans(&result),
            ["EstimateTheta", "Sample", "SelectSeeds"]
        );
    }
}
