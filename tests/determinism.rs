//! Reproducibility guarantees: identical parameters must give identical
//! results across runs, engines, and thread counts — including runs under
//! injected chaos, which must replay byte-for-byte from their fault seed.
//!
//! The chaos-replay test drives the process-global tracer, so every test in
//! this binary takes a shared lock (see `tests/tracing.rs` for the pattern).

use ripples_comm::{FaultComm, FaultPlan, ThreadWorld};
use ripples_core::dist::imm_distributed;
use ripples_core::mt::imm_multithreaded;
use ripples_core::obs::trace;
use ripples_core::seq::{imm_baseline, immopt_sequential};
use ripples_core::ImmParams;
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, WeightModel};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes tests: the tracer is process-global state.
fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

fn graph() -> Graph {
    graph_for(DiffusionModel::IndependentCascade)
}

/// LT runs need the in-weight normalization pass (the samplers reject
/// un-normalized LT input).
fn graph_for(model: DiffusionModel) -> Graph {
    let lt = model == DiffusionModel::LinearThreshold;
    erdos_renyi(500, 4000, WeightModel::UniformRandom { seed: 10 }, lt, 50)
}

#[test]
fn repeat_runs_are_bitwise_identical() {
    let _g = lock();
    let g = graph();
    let p = ImmParams::new(7, 0.5, DiffusionModel::IndependentCascade, 42);
    let a = immopt_sequential(&g, &p);
    let b = immopt_sequential(&g, &p);
    assert_eq!(a.seeds, b.seeds);
    assert_eq!(a.theta, b.theta);
    assert_eq!(a.coverage_fraction, b.coverage_fraction);
    assert_eq!(
        a.report.counters.edges_examined,
        b.report.counters.edges_examined
    );
}

#[test]
fn all_engines_agree_on_seeds() {
    let _g = lock();
    for model in [
        DiffusionModel::IndependentCascade,
        DiffusionModel::LinearThreshold,
    ] {
        let g = graph_for(model);
        let p = ImmParams::new(5, 0.5, model, 9);
        let baseline = imm_baseline(&g, &p);
        let opt = immopt_sequential(&g, &p);
        let mt1 = imm_multithreaded(&g, &p, 1);
        let mt4 = imm_multithreaded(&g, &p, 4);
        assert_eq!(baseline.seeds, opt.seeds, "{model}: baseline vs opt");
        assert_eq!(opt.seeds, mt1.seeds, "{model}: opt vs mt(1)");
        assert_eq!(mt1.seeds, mt4.seeds, "{model}: mt(1) vs mt(4)");
        assert_eq!(baseline.theta, mt4.theta, "{model}: θ must agree");
    }
}

#[test]
fn master_seed_changes_outcome() {
    let _g = lock();
    let g = graph();
    let a = immopt_sequential(
        &g,
        &ImmParams::new(7, 0.5, DiffusionModel::IndependentCascade, 1),
    );
    let b = immopt_sequential(
        &g,
        &ImmParams::new(7, 0.5, DiffusionModel::IndependentCascade, 2),
    );
    // Different randomness must be observable somewhere in the run.
    assert!(
        a.seeds != b.seeds
            || a.theta != b.theta
            || a.report.counters.edges_examined != b.report.counters.edges_examined,
        "two master seeds produced indistinguishable runs"
    );
}

#[test]
fn graph_weights_affect_runs() {
    let _g = lock();
    let g1 = erdos_renyi(300, 2500, WeightModel::Constant(0.05), false, 3);
    let g2 = erdos_renyi(300, 2500, WeightModel::Constant(0.3), false, 3);
    let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 4);
    let cheap = immopt_sequential(&g1, &p);
    let expensive = immopt_sequential(&g2, &p);
    // Higher probabilities → larger RRR sets → more sampling work per set.
    let w1 = cheap.report.counters.edges_examined as f64 / cheap.theta.max(1) as f64;
    let w2 = expensive.report.counters.edges_examined as f64 / expensive.theta.max(1) as f64;
    assert!(w2 > w1, "p=0.3 per-sample work {w2} ≤ p=0.05 work {w1}");
}

/// One trace event with the timing stripped: what must replay identically.
type EventSignature = (u32, trace::EventKind, trace::TraceName, u64, u64);

/// Runs a traced chaos run and returns the per-event signatures (everything
/// but timing), plus the health counters.
fn traced_chaos_run(plan: &FaultPlan) -> (Vec<EventSignature>, u64, u64, u64) {
    let g = graph();
    let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 13);
    trace::start(None);
    let world = ThreadWorld::new(3);
    let mut results = world.run(|comm| {
        let faulty = FaultComm::new(comm, plan.clone());
        imm_distributed(&faulty, &g, &p)
    });
    trace::stop();
    let _ = trace::collect_all(); // drain rings left process-local
    let r = results.swap_remove(0);
    let t = r.report.trace.expect("traced run attaches a trace");
    assert_eq!(t.dropped, 0, "ring overflow would break replay comparison");
    let sig = t
        .events
        .iter()
        .map(|e| {
            (
                e.rank,
                e.event.kind,
                e.event.name,
                e.event.arg0,
                e.event.arg1,
            )
        })
        .collect();
    (
        sig,
        r.report.counters.retries,
        r.report.counters.dropped_ops,
        r.report.counters.degraded_ranks,
    )
}

#[test]
fn chaos_runs_replay_byte_identically_from_their_seed() {
    let _g = lock();
    trace::stop();
    let _ = trace::collect_all(); // flush anything a previous test left behind

    // Transient faults plus a permanent stall: the replay must reproduce
    // the retries, the rank death, and every event in between.
    let plan = FaultPlan::new(909)
        .with_drop_rate(0.03)
        .with_delay_rate(0.03)
        .with_stall(2, 10);

    let (sig_a, retries_a, dropped_a, degraded_a) = traced_chaos_run(&plan);
    let (sig_b, retries_b, dropped_b, degraded_b) = traced_chaos_run(&plan);

    assert_eq!(
        sig_a.len(),
        sig_b.len(),
        "two runs under chaos seed 909 recorded different event counts"
    );
    assert_eq!(
        sig_a, sig_b,
        "event sequences diverged (modulo timestamps) under the same chaos seed"
    );
    assert_eq!(retries_a, retries_b);
    assert_eq!(dropped_a, dropped_b);
    assert_eq!(degraded_a, degraded_b);

    // The schedule must actually have exercised the fault machinery, and
    // the retry layer must have narrated it onto the trace.
    assert!(retries_a > 0, "plan injected no retryable faults");
    assert_eq!(degraded_a, 1, "the stalled rank must die");
    let names: Vec<trace::TraceName> = sig_a.iter().map(|s| s.2).collect();
    assert!(
        names.contains(&trace::TraceName::CommRetry),
        "comm-retry marks missing from the trace"
    );
    assert!(
        names.contains(&trace::TraceName::RankDead),
        "rank-dead mark missing from the trace"
    );
}
