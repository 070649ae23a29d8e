//! Chaos test harness (ISSUE 4 tentpole, part 3): the distributed engines
//! run end-to-end under seeded fault schedules injected by
//! [`FaultComm`], across a (fault-rate × world-size × model) grid.
//!
//! Three escalating guarantees are checked:
//!
//! 1. **Transparency** — an empty fault plan is bitwise invisible: seeds,
//!    θ, coverage, *and* the CommStats accounting match the undecorated
//!    backend at world sizes 1, 2 and 4, for both engines.
//! 2. **Invisibility of transient faults** — schedules that only drop or
//!    delay collectives are fully absorbed by the retry layer: the
//!    `Selection` is identical to the fault-free run's, while the report
//!    proves faults actually happened (`retries`/`dropped_ops` > 0).
//! 3. **Graceful degradation** — schedules that permanently stall a rank
//!    complete anyway: the blamed rank is declared dead, the report says
//!    so (`degraded_ranks` > 0), and the surviving ranks' seed set still
//!    reaches ≥95% of the fault-free run's estimated influence.
//!
//! Every schedule is a pure function of its seed, so each case reproduces
//! from the constants in this file alone.

use ripples_comm::{CommHealth, Communicator, ExchangeHandle, FaultComm, FaultPlan, ThreadWorld};
use ripples_core::dist::imm_distributed;
use ripples_core::dist_sharded::imm_sharded;
use ripples_core::ImmParams;
use ripples_diffusion::{estimate_spread, DiffusionModel};
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, WeightModel};
use ripples_rng::StreamFactory;

fn graph(model: DiffusionModel) -> Graph {
    // LT runs need the in-weight normalization pass (the samplers reject
    // un-normalized LT input).
    let lt = model == DiffusionModel::LinearThreshold;
    erdos_renyi(250, 2000, WeightModel::UniformRandom { seed: 23 }, lt, 77)
}

fn params(model: DiffusionModel) -> ImmParams {
    ImmParams::new(5, 0.5, model, 11)
}

/// Runs the named engine over `world_size` ranks, optionally under `plan`,
/// and returns rank 0's result (all ranks' results are asserted identical).
fn run_engine(
    engine: &str,
    world_size: u32,
    plan: Option<&FaultPlan>,
    model: DiffusionModel,
) -> ripples_core::ImmResult {
    let g = graph(model);
    let p = params(model);
    let world = ThreadWorld::new(world_size);
    let mut results = world.run(|comm| match plan {
        Some(plan) => {
            let faulty = FaultComm::new(comm, plan.clone());
            match engine {
                "dist" => imm_distributed(&faulty, &g, &p),
                _ => imm_sharded(&faulty, &g, &p),
            }
        }
        None => match engine {
            "dist" => imm_distributed(comm, &g, &p),
            _ => imm_sharded(comm, &g, &p),
        },
    });
    let first = results.swap_remove(0);
    for (rank, r) in results.iter().enumerate() {
        assert_eq!(
            first.seeds,
            r.seeds,
            "{engine}@{world_size}: rank {} disagrees with rank 0",
            rank + 1
        );
    }
    first
}

#[test]
fn zero_fault_plan_is_bitwise_transparent() {
    let none = FaultPlan::none();
    for engine in ["dist", "sharded"] {
        for size in [1u32, 2, 4] {
            let bare = run_engine(engine, size, None, DiffusionModel::IndependentCascade);
            let wrapped = run_engine(
                engine,
                size,
                Some(&none),
                DiffusionModel::IndependentCascade,
            );
            assert_eq!(bare.seeds, wrapped.seeds, "{engine}@{size}: seeds");
            assert_eq!(bare.theta, wrapped.theta, "{engine}@{size}: theta");
            assert_eq!(
                bare.coverage_fraction, wrapped.coverage_fraction,
                "{engine}@{size}: coverage"
            );
            // The accounting must match too: every logical collective
            // reaches the backend exactly once through an empty plan.
            assert_eq!(
                bare.report.comm, wrapped.report.comm,
                "{engine}@{size}: CommStats must be identical through an empty plan"
            );
            assert_eq!(wrapped.report.counters.retries, 0);
            assert_eq!(wrapped.report.counters.dropped_ops, 0);
            assert_eq!(wrapped.report.counters.degraded_ranks, 0);
        }
    }
}

#[test]
fn drop_and_delay_faults_never_change_the_selection() {
    // Transient faults (drops, delays past the timeout budget) are retried
    // until the op succeeds; the payloads that finally flow are identical
    // to the fault-free run's, so the seed set must be too.
    let mut fault_runs = 0u64;
    for model in [
        DiffusionModel::IndependentCascade,
        DiffusionModel::LinearThreshold,
    ] {
        for size in [2u32, 3] {
            for (chaos_seed, rate) in [(101u64, 0.03f64), (202, 0.06)] {
                let clean = run_engine("dist", size, None, model);
                let plan = FaultPlan::new(chaos_seed)
                    .with_drop_rate(rate)
                    .with_delay_rate(rate);
                let noisy = run_engine("dist", size, Some(&plan), model);
                assert_eq!(
                    clean.seeds, noisy.seeds,
                    "{model:?}@{size} seed {chaos_seed}: drop/delay faults leaked into selection"
                );
                assert_eq!(clean.theta, noisy.theta);
                assert_eq!(
                    noisy.report.counters.degraded_ranks, 0,
                    "{model:?}@{size} seed {chaos_seed}: transient-only schedule killed a rank"
                );
                fault_runs += noisy.report.counters.retries;
            }
        }
    }
    assert!(
        fault_runs > 0,
        "the grid must actually inject faults somewhere"
    );
}

#[test]
fn partitioned_engine_absorbs_transient_faults_too() {
    // The graph-partitioned engine (`sharded`) under the LT model, whose
    // single live edge per vertex may sit in any shard: transient faults
    // still cannot leak into the selection.
    let model = DiffusionModel::LinearThreshold;
    let clean = run_engine("sharded", 3, None, model);
    let plan = FaultPlan::new(303)
        .with_drop_rate(0.05)
        .with_delay_rate(0.05);
    let noisy = run_engine("sharded", 3, Some(&plan), model);
    assert_eq!(clean.seeds, noisy.seeds);
    assert_eq!(clean.theta, noisy.theta);
    assert_eq!(noisy.report.counters.degraded_ranks, 0);
    assert!(noisy.report.counters.retries > 0, "plan must bite");
    assert_eq!(
        noisy.report.counters.retries, noisy.report.counters.dropped_ops,
        "every retry is one attempt the fault layer failed"
    );
}

#[test]
fn rank_kill_degrades_gracefully_and_keeps_quality() {
    let model = DiffusionModel::IndependentCascade;
    let g = graph(model);
    let clean = run_engine("dist", 3, None, model);

    // Rank 2 stalls permanently from op 10 on: the retry layer must
    // exhaust its budget, declare the rank dead, and finish on survivors.
    let plan = FaultPlan::new(404).with_stall(2, 10);
    let degraded = run_engine("dist", 3, Some(&plan), model);

    assert_eq!(
        degraded.report.counters.degraded_ranks, 1,
        "the stalled rank must be declared dead"
    );
    assert!(degraded.report.counters.retries > 0);
    assert_eq!(
        degraded.seeds.len(),
        clean.seeds.len(),
        "a degraded run still returns k seeds"
    );
    assert!(
        degraded.coverage_fraction > 0.0 && degraded.coverage_fraction <= 1.0,
        "coverage must be judged against the surviving samples, got {}",
        degraded.coverage_fraction
    );

    // Quality floor: ≥95% of the fault-free estimated influence, measured
    // by the same fixed simulation streams.
    let factory = StreamFactory::new(0x5eed);
    let clean_spread = estimate_spread(&g, model, &clean.seeds, 300, &factory);
    let degraded_spread = estimate_spread(&g, model, &degraded.seeds, 300, &factory);
    assert!(
        degraded_spread >= 0.95 * clean_spread,
        "degraded spread {degraded_spread:.1} < 95% of clean spread {clean_spread:.1}"
    );
}

#[test]
fn rank_kill_in_partitioned_engine_completes() {
    // A rank of the graph-partitioned engine (`sharded`) stalls for good
    // under the LT model; its shard's edges go with it, yet the survivors
    // still return k seeds.
    let plan = FaultPlan::new(505).with_stall(1, 6);
    let degraded = run_engine("sharded", 2, Some(&plan), DiffusionModel::LinearThreshold);
    assert_eq!(degraded.report.counters.degraded_ranks, 1);
    assert_eq!(degraded.seeds.len(), 5);
}

#[test]
fn chaos_runs_reproduce_from_seed_alone() {
    // The whole point of the seeded plan: two runs under the same chaos
    // seed are indistinguishable, down to the health counters. Honors
    // RIPPLES_CHAOS_SEED so CI can roll fresh seeds while staying
    // reproducible from its log line.
    let chaos_seed: u64 = std::env::var("RIPPLES_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(606);
    let plan = FaultPlan::chaos(chaos_seed, 0.04);
    let a = run_engine("dist", 3, Some(&plan), DiffusionModel::IndependentCascade);
    let b = run_engine("dist", 3, Some(&plan), DiffusionModel::IndependentCascade);
    assert_eq!(a.seeds, b.seeds, "chaos seed {chaos_seed}");
    assert_eq!(a.theta, b.theta);
    assert_eq!(a.report.counters.retries, b.report.counters.retries);
    assert_eq!(a.report.counters.dropped_ops, b.report.counters.dropped_ops);
    assert_eq!(
        a.report.counters.degraded_ranks,
        b.report.counters.degraded_ranks
    );
    // Robustness invariants that hold at any seed: the run completes with
    // a full seed set and sane coverage.
    assert_eq!(a.seeds.len(), 5, "chaos seed {chaos_seed}");
    assert!(
        a.coverage_fraction > 0.0 && a.coverage_fraction <= 1.0,
        "chaos seed {chaos_seed}: coverage {}",
        a.coverage_fraction
    );
}

#[test]
fn sharded_engine_absorbs_transient_faults_too() {
    // The sharded engine's posted exchanges degrade to deferred (retried
    // at wait) under injection — transient faults still cannot leak into
    // the selection.
    let clean = run_engine("sharded", 3, None, DiffusionModel::IndependentCascade);
    let plan = FaultPlan::new(707)
        .with_drop_rate(0.05)
        .with_delay_rate(0.05);
    let noisy = run_engine(
        "sharded",
        3,
        Some(&plan),
        DiffusionModel::IndependentCascade,
    );
    assert_eq!(clean.seeds, noisy.seeds);
    assert_eq!(clean.theta, noisy.theta);
    assert_eq!(noisy.report.counters.degraded_ranks, 0);
    assert!(noisy.report.counters.retries > 0, "plan must bite");
}

#[test]
fn rank_kill_in_sharded_engine_completes() {
    let plan = FaultPlan::new(808).with_stall(1, 6);
    let degraded = run_engine(
        "sharded",
        2,
        Some(&plan),
        DiffusionModel::IndependentCascade,
    );
    assert_eq!(degraded.report.counters.degraded_ranks, 1);
    assert_eq!(degraded.seeds.len(), 5);
}

/// Runs `engine` at 3 ranks under `plan` and returns rank 0's result with
/// the decorator's own health, read after the engine returns; every rank
/// must report the same health (fault decisions are lockstep).
fn run_with_health(engine: &str, plan: &FaultPlan) -> (ripples_core::ImmResult, CommHealth) {
    let model = DiffusionModel::IndependentCascade;
    let g = graph(model);
    let p = params(model);
    let mut results = ThreadWorld::new(3).run(|comm| {
        let faulty = FaultComm::new(comm, plan.clone());
        let result = match engine {
            "dist" => imm_distributed(&faulty, &g, &p),
            _ => imm_sharded(&faulty, &g, &p),
        };
        (result, faulty.health())
    });
    let first = results.swap_remove(0);
    for (_, health) in &results {
        assert_eq!(health.dropped_ops, first.1.dropped_ops, "{engine}");
        assert_eq!(health.ticks, first.1.ticks, "{engine}");
        assert_eq!(health.dead_ranks, first.1.dead_ranks, "{engine}");
    }
    first
}

/// The fault schedule is a contract: the same plan yields the same op-index,
/// tick, retry and death sequence however the comm stack is layered. Rows
/// are `(engine, plan, seeds, θ, report retries, report dropped_ops,
/// decorator dropped_ops, decorator ticks, dead ranks)`, recorded when
/// selection became the batched lazy recount (per pass, one all-reduce of
/// the n degrees and one of 32 recounts per round, where it had been one of
/// n decrements per seed), which moved every op index after a run's first
/// selection: the faulted rows keep their seeds and θ, and in the `dist`
/// kill row, where op 10 now lands in a recount round, the last two seeds
/// gain 0 over the surviving samples and fall to the lowest ids. The
/// decorator's counts run past the
/// report's because the report's own reductions and the trace gather are
/// collectives too.
#[test]
fn chaos_health_is_frozen() {
    let plans = [
        ("chaos", FaultPlan::chaos(42, 0.05)),
        (
            "mixed",
            FaultPlan::new(909)
                .with_drop_rate(0.04)
                .with_delay_rate(0.08)
                .with_truncate_rate(0.03),
        ),
        ("kill", FaultPlan::new(404).with_stall(2, 10)),
    ];
    type Row = (
        &'static str,
        &'static str,
        [u32; 5],
        usize,
        u64,
        u64,
        u64,
        u64,
        &'static [u32],
    );
    #[rustfmt::skip]
    let frozen: [Row; 6] = [
        ("dist", "chaos", [2, 9, 98, 101, 144], 491, 5, 5, 5, 55, &[]),
        ("dist", "mixed", [2, 9, 98, 101, 144], 491, 9, 9, 12, 102, &[]),
        ("dist", "kill", [2, 9, 98, 0, 1], 491, 8, 8, 8, 233, &[2]),
        ("sharded", "chaos", [2, 242, 63, 70, 129], 494, 14, 14, 18, 153, &[]),
        ("sharded", "mixed", [2, 242, 63, 70, 129], 494, 25, 25, 25, 191, &[]),
        ("sharded", "kill", [175, 237, 168, 206, 248], 521, 8, 8, 8, 278, &[2]),
    ];
    for (engine, name, seeds, theta, retries, dropped, dec_dropped, ticks, dead) in frozen {
        let plan = &plans.iter().find(|(n, _)| *n == name).expect("a plan").1;
        let (r, h) = run_with_health(engine, plan);
        let got = (
            r.seeds.as_slice(),
            r.theta,
            r.report.counters.retries,
            r.report.counters.dropped_ops,
            h.dropped_ops,
            h.ticks,
            h.dead_ranks.as_slice(),
        );
        let want = (
            &seeds[..],
            theta,
            retries,
            dropped,
            dec_dropped,
            ticks,
            dead,
        );
        assert_eq!(got, want, "{engine} under the {name} plan");
    }
}

/// Forwards to a backend and logs, per logical op in the order a lossy
/// [`FaultComm`] above it would hand out op indices, whether the op is the
/// wait of a posted exchange (a post consumes no index; its wait does).
struct WaitLog<'a, C> {
    inner: &'a C,
    is_wait: std::cell::RefCell<Vec<bool>>,
}

impl<C: Communicator> Communicator for WaitLog<'_, C> {
    fn rank(&self) -> u32 {
        self.inner.rank()
    }
    fn size(&self) -> u32 {
        self.inner.size()
    }
    fn all_reduce_sum_u64(&self, buf: &mut [u64]) {
        self.is_wait.borrow_mut().push(false);
        self.inner.all_reduce_sum_u64(buf);
    }
    fn all_reduce_max_f64(&self, value: f64) -> f64 {
        self.is_wait.borrow_mut().push(false);
        self.inner.all_reduce_max_f64(value)
    }
    fn all_gather_u64_list(&self, items: &[u64]) -> Vec<Vec<u64>> {
        self.is_wait.borrow_mut().push(false);
        self.inner.all_gather_u64_list(items)
    }
    fn alltoallv_u64(&self, sends: &[Vec<u64>]) -> Vec<Vec<u64>> {
        self.is_wait.borrow_mut().push(false);
        self.inner.alltoallv_u64(sends)
    }
    fn post_exchange_u64(&self, sends: &[Vec<u64>]) -> ExchangeHandle {
        self.inner.post_exchange_u64(sends)
    }
    fn wait_exchange(&self, handle: ExchangeHandle) -> Vec<Vec<u64>> {
        self.is_wait.borrow_mut().push(true);
        self.inner.wait_exchange(handle)
    }
    fn stats(&self) -> ripples_comm::CommStats {
        self.inner.stats()
    }
}

#[test]
fn a_fault_on_a_posted_exchanges_wait_is_retried_there() {
    // ROADMAP 8(e): the sharded engine posts each block's member routing
    // and waits for it one block later; the plan below is clean up to the
    // first such wait and drops that very attempt.
    let model = DiffusionModel::IndependentCascade;
    let (g, p) = (graph(model), params(model));
    let mut logged = ThreadWorld::new(3).run(|comm| {
        let log = WaitLog {
            inner: comm,
            is_wait: Default::default(),
        };
        let result = imm_sharded(&log, &g, &p);
        (result, log.is_wait.into_inner())
    });
    let (clean, ops) = logged.swap_remove(0);
    let first_wait = ops.iter().position(|&w| w).expect("sharded posts") as u64;
    let hit = |plan: &FaultPlan, op| (0..3).any(|r| plan.fault_for(r, op).is_some());
    let plan = (0u64..)
        .map(|seed| FaultPlan::new(seed).with_drop_rate(0.02))
        .find(|plan| hit(plan, first_wait) && !(0..first_wait).any(|op| hit(plan, op)))
        .expect("some seed drops the first wait and nothing before it");

    let (noisy, health) = run_with_health("sharded", &plan);
    assert_eq!(clean.seeds, noisy.seeds, "chaos seed {}", plan.seed());
    assert_eq!(clean.theta, noisy.theta);
    assert!(noisy.report.counters.retries > 0, "the wait was retried");
    assert!(health.dead_ranks.is_empty());
    // The overlap window is still measured (post → wait), even though the
    // transport itself was deferred to the wait.
    assert!(noisy.report.counters.overlap_nanos > 0);
    assert_eq!(
        clean.report.counters.frontier_exchanges,
        noisy.report.counters.frontier_exchanges
    );
}
