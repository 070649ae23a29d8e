//! Deterministic fault injection, retry and rank-death escalation for any
//! [`Communicator`] backend — one decorator.
//!
//! [`FaultComm`] wraps a backend and applies a [`FaultPlan`]: a seeded
//! schedule of per-op drops, delays, payload truncations, and rank stalls.
//! Every fault decision is a pure function of `(plan seed, rank, op index)`
//! drawn from a [`ripples_rng::SplitMix64`] splittable stream — no wall
//! clock, no OS randomness — so a failing run is exactly reproducible from
//! the seed alone, and *every* rank can locally compute whether *any* rank's
//! attempt fails.
//!
//! That global computability is the design's load-bearing wall: when any
//! live rank is scheduled to fail attempt `t`, **all** ranks skip the
//! backend call for that attempt, so the backend never sees a
//! half-participated collective (which would deadlock a real MPI, and does
//! deadlock [`crate::ThreadWorld`]). It is also why the retry loop can be
//! local: every rank fails, backs off and — when an op exhausts its attempt
//! or tick budget — declares the same rank dead at the same attempt, with no
//! message exchanged about any of it. The per-rank op counters stay aligned
//! forever, and each *logical* op reaches the backend exactly once — which
//! is why a zero-fault `FaultComm` is bitwise transparent, backend
//! [`CommStats`] included.
//!
//! Time is a deterministic virtual clock: each attempt costs one tick plus
//! any injected delay, a failed attempt is followed by a capped exponential
//! backoff charged to the same clock (no sleeping), and a delay beyond the
//! plan's timeout budget fails the attempt *instead of* performing the op
//! (so a retry never double-applies an in-place all-reduce).
//!
//! Dead ranks become **zombies**: in an in-process world the rank's thread
//! doubles as the transport, so it keeps calling collectives to keep the
//! world in lockstep, but `FaultComm` neutralizes its payloads (zeros for
//! sums, `-∞` for max, an empty list for gathers and exchanges) and it no
//! longer generates faults; the engines then degrade gracefully (see
//! `dist.rs`'s θ re-globalization) instead of crashing.
//!
//! Retries and deaths are visible on the tracer as `comm-retry` and
//! `rank-dead` marks, and in the live metrics as `retries`, `dropped_ops`
//! and `degraded_ranks`.

use crate::communicator::{CommHealth, CommStats, Communicator, ExchangeHandle};
use ripples_metrics::Metric;
use ripples_rng::SplitMix64;
use ripples_trace::TraceName;
use std::cell::{Cell, RefCell};

/// Domain separator mixed into the plan seed so fault draws never collide
/// with the engines' sampling streams, even under the same master seed.
const FAULT_DOMAIN: u64 = 0xFA17_C0DE_5EED_0001;

/// A rank that stops responding from a given op index onward (until it is
/// declared dead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stall {
    /// The rank that stalls.
    pub rank: u32,
    /// First op index at which it is unresponsive.
    pub from_op: u64,
}

/// What the schedule injects for one `(rank, op index)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The rank's message for this attempt is lost.
    Drop,
    /// The rank's payload arrives short.
    Truncate,
    /// The rank answers `ticks` late (only fails if beyond the timeout).
    Delay(u64),
    /// The rank is unresponsive (persistent; see [`Stall`]).
    Stall,
}

/// A deterministic, seeded fault schedule.
///
/// Rates are per-rank-per-op probabilities; draws for distinct `(rank, op)`
/// pairs are independent SplitMix64 streams, so the schedule is identical no
/// matter which rank evaluates it.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_rate: f64,
    delay_rate: f64,
    truncate_rate: f64,
    max_delay_ticks: u64,
    timeout_ticks: u64,
    stalls: Vec<Stall>,
}

impl FaultPlan {
    /// A fault-free plan: [`FaultComm`] with this plan is bitwise
    /// transparent.
    #[must_use]
    pub fn none() -> Self {
        Self::new(0)
    }

    /// An all-rates-zero plan carrying `seed`; compose with the `with_*`
    /// builders.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.0,
            delay_rate: 0.0,
            truncate_rate: 0.0,
            max_delay_ticks: 6,
            timeout_ticks: 4,
            stalls: Vec::new(),
        }
    }

    /// The CLI's `--chaos-seed`/`--chaos-rate` preset: drops and delays at
    /// `rate`, truncations at `rate / 4`.
    #[must_use]
    pub fn chaos(seed: u64, rate: f64) -> Self {
        Self::new(seed)
            .with_drop_rate(rate)
            .with_delay_rate(rate)
            .with_truncate_rate(rate / 4.0)
    }

    /// Sets the per-rank-per-op drop probability.
    #[must_use]
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the per-rank-per-op delay probability.
    #[must_use]
    pub fn with_delay_rate(mut self, rate: f64) -> Self {
        self.delay_rate = rate;
        self
    }

    /// Sets the per-rank-per-op payload-truncation probability.
    #[must_use]
    pub fn with_truncate_rate(mut self, rate: f64) -> Self {
        self.truncate_rate = rate;
        self
    }

    /// Sets the largest injectable delay, in virtual ticks.
    #[must_use]
    pub fn with_max_delay_ticks(mut self, ticks: u64) -> Self {
        self.max_delay_ticks = ticks;
        self
    }

    /// Sets the per-op timeout budget: an attempt whose injected delay
    /// exceeds this many ticks fails, and is retried, as timed out.
    #[must_use]
    pub fn with_timeout_ticks(mut self, ticks: u64) -> Self {
        self.timeout_ticks = ticks;
        self
    }

    /// Adds a persistent rank stall beginning at `from_op`.
    #[must_use]
    pub fn with_stall(mut self, rank: u32, from_op: u64) -> Self {
        self.stalls.push(Stall { rank, from_op });
        self
    }

    /// The seed the schedule is derived from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan can never inject a fault.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.drop_rate == 0.0
            && self.delay_rate == 0.0
            && self.truncate_rate == 0.0
            && self.stalls.is_empty()
    }

    /// The deterministic fault (if any) that `rank` injects at `op_index`.
    /// A pure function: every rank computes the same answer.
    #[must_use]
    pub fn fault_for(&self, rank: u32, op_index: u64) -> Option<FaultKind> {
        if self
            .stalls
            .iter()
            .any(|s| s.rank == rank && op_index >= s.from_op)
        {
            return Some(FaultKind::Stall);
        }
        if self.drop_rate == 0.0 && self.delay_rate == 0.0 && self.truncate_rate == 0.0 {
            return None;
        }
        // One fresh stream per (rank, op) pair: draws are independent and
        // retries (fresh op indices) re-roll, so transient faults clear.
        let key = (u64::from(rank) << 48) ^ (op_index & 0xFFFF_FFFF_FFFF);
        let mut rng = SplitMix64::for_stream(self.seed ^ FAULT_DOMAIN, key);
        let roll = rng.unit_f64();
        if roll < self.drop_rate {
            Some(FaultKind::Drop)
        } else if roll < self.drop_rate + self.truncate_rate {
            Some(FaultKind::Truncate)
        } else if roll < self.drop_rate + self.truncate_rate + self.delay_rate {
            Some(FaultKind::Delay(
                1 + rng.bounded_u64(self.max_delay_ticks.max(1)),
            ))
        } else {
            None
        }
    }
}

/// Failed attempts per op before the blamed rank is declared dead.
const MAX_ATTEMPTS: u32 = 8;

/// Total virtual ticks one op may consume before the blamed rank is
/// declared dead.
const OP_TIMEOUT_TICKS: u64 = 4096;

/// The backoff charged after failed attempt number `attempt` (0-based):
/// `2^attempt` virtual ticks, capped at 64.
fn backoff_ticks(attempt: u32) -> u64 {
    1 << attempt.min(6)
}

/// A fault-injecting, self-healing decorator over any [`Communicator`]
/// backend.
///
/// Each collective is first *admitted*: the plan is rolled for the next op
/// index, a failed attempt is retried after a deterministic backoff, and an
/// op that exhausts its budget kills the rank its last failure blames. Only
/// then does the op reach the backend — once. With an empty plan every call
/// delegates straight through, making the decorator bitwise transparent.
pub struct FaultComm<C> {
    inner: C,
    plan: FaultPlan,
    op_index: Cell<u64>,
    ticks: Cell<u64>,
    /// Attempts the plan failed; every one of them was retried.
    failed_attempts: Cell<u64>,
    dead: RefCell<Vec<u32>>,
}

impl<C: Communicator> FaultComm<C> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: C, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            op_index: Cell::new(0),
            ticks: Cell::new(0),
            failed_attempts: Cell::new(0),
            dead: RefCell::new(Vec::new()),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The active schedule.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Ops attempted so far (each retry is a fresh attempt).
    #[must_use]
    pub fn op_index(&self) -> u64 {
        self.op_index.get()
    }

    /// Consumes one op index and its clock ticks, and decides — identically
    /// on every rank — whether that attempt fails; returns the rank to blame
    /// if it does.
    fn roll(&self) -> Option<u32> {
        let t = self.op_index.get();
        self.op_index.set(t + 1);
        let dead = self.dead.borrow();
        let mut stalled = None;
        let mut lossy = None;
        let mut delay = 0u64;
        let mut slowest = 0u32;
        for r in (0..self.inner.size()).filter(|r| !dead.contains(r)) {
            match self.plan.fault_for(r, t) {
                Some(FaultKind::Stall) => stalled = stalled.or(Some(r)),
                Some(FaultKind::Drop | FaultKind::Truncate) => lossy = lossy.or(Some(r)),
                Some(FaultKind::Delay(d)) if d > delay => {
                    delay = d;
                    slowest = r;
                }
                Some(FaultKind::Delay(_)) | None => {}
            }
        }
        self.ticks.set(self.ticks.get() + 1 + delay);
        // Stalls outrank transient faults so escalation blames the rank that
        // will actually never recover.
        stalled
            .or(lossy)
            .or((delay > self.plan.timeout_ticks).then_some(slowest))
    }

    /// Drives one logical op up to the point where the backend may be
    /// called: retries failed attempts after a backoff and escalates a
    /// persistent fault to the death of the rank it blames. Every rank runs
    /// the identical loop, so all of them fail, back off and declare the
    /// same deaths at the same attempts. Returns whether this rank is a
    /// zombie, whose payload the caller must neutralize.
    fn admit(&self) -> bool {
        let mut attempt: u32 = 0;
        let mut op_start = self.ticks.get();
        loop {
            let op_index = self.op_index.get();
            let Some(blamed) = self.roll() else {
                return self.dead.borrow().contains(&self.inner.rank());
            };
            self.failed_attempts.set(self.failed_attempts.get() + 1);
            ripples_metrics::add(Metric::DroppedOps, 1);
            ripples_metrics::add(Metric::Retries, 1);
            ripples_trace::mark(TraceName::CommRetry, op_index, u64::from(attempt));
            self.ticks.set(self.ticks.get() + backoff_ticks(attempt));
            attempt += 1;
            if attempt >= MAX_ATTEMPTS || self.ticks.get() - op_start > OP_TIMEOUT_TICKS {
                self.mark_dead(blamed);
                ripples_trace::mark(TraceName::RankDead, u64::from(blamed), op_index);
                attempt = 0;
                op_start = self.ticks.get();
            }
        }
    }

    /// Declares `rank` dead: its future payload contributions are
    /// neutralized and it no longer generates faults.
    fn mark_dead(&self, rank: u32) {
        let mut dead = self.dead.borrow_mut();
        assert!(
            dead.len() as u32 + 2 <= self.inner.size(),
            "cannot declare rank {rank} dead: it is the last live rank"
        );
        dead.push(rank);
        dead.sort_unstable();
        // Every rank declares the same deaths in lockstep, so the gauge is
        // a cross-rank max of each stack's dead-set size, not a sum of
        // declarations.
        ripples_metrics::set_max(Metric::DegradedRanks, dead.len() as u64);
    }
}

impl<C: Communicator> Communicator for FaultComm<C> {
    fn rank(&self) -> u32 {
        self.inner.rank()
    }

    fn size(&self) -> u32 {
        self.inner.size()
    }

    fn all_reduce_sum_u64(&self, buf: &mut [u64]) {
        if self.admit() {
            buf.fill(0);
        }
        self.inner.all_reduce_sum_u64(buf);
    }

    fn all_reduce_max_f64(&self, value: f64) -> f64 {
        let value = if self.admit() {
            f64::NEG_INFINITY
        } else {
            value
        };
        self.inner.all_reduce_max_f64(value)
    }

    fn all_gather_u64_list(&self, items: &[u64]) -> Vec<Vec<u64>> {
        let items = if self.admit() { &[] } else { items };
        self.inner.all_gather_u64_list(items)
    }

    fn alltoallv_u64(&self, sends: &[Vec<u64>]) -> Vec<Vec<u64>> {
        if self.admit() {
            // Zombie: keep the backend in lockstep but send nothing.
            self.inner.alltoallv_u64(&vec![Vec::new(); sends.len()])
        } else {
            self.inner.alltoallv_u64(sends)
        }
    }

    fn post_exchange_u64(&self, sends: &[Vec<u64>]) -> ExchangeHandle {
        if self.plan.is_empty() {
            // Nothing can fail, so the backend is free to overlap.
            self.admit();
            return self.inner.post_exchange_u64(sends);
        }
        // Defer the transport, and the fault rolls with it, to the wait:
        // rolling here would consume op indices in post order, and the
        // schedule is defined over the order in which ops complete. The
        // overlap is lost under fault injection — correctness over
        // concurrency.
        ExchangeHandle::Deferred(sends.to_vec())
    }

    fn wait_exchange(&self, handle: ExchangeHandle) -> Vec<Vec<u64>> {
        match handle {
            ExchangeHandle::Deferred(sends) => self.alltoallv_u64(&sends),
            posted_on_backend => self.inner.wait_exchange(posted_on_backend),
        }
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn health(&self) -> CommHealth {
        CommHealth {
            retries: self.failed_attempts.get(),
            dropped_ops: self.failed_attempts.get(),
            ticks: self.ticks.get(),
            dead_ranks: self.dead.borrow().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selfcomm::SelfComm;
    use crate::thread::ThreadWorld;

    #[test]
    fn empty_plan_is_transparent() {
        let comm = FaultComm::new(SelfComm::new(), FaultPlan::none());
        let mut buf = vec![2u64, 4];
        comm.all_reduce_sum_u64(&mut buf);
        assert_eq!(buf, vec![2, 4]);
        assert_eq!(comm.all_gather_u64_list(&[7]), vec![vec![7]]);
        assert_eq!(comm.all_reduce_max_f64(3.0), 3.0);
        let handle = comm.post_exchange_u64(&[vec![1, 2]]);
        assert_eq!(comm.wait_exchange(handle), vec![vec![1, 2]]);
        assert_eq!(comm.stats(), comm.inner().stats());
        assert_eq!(comm.op_index(), 4, "one op index per logical op");
        assert_eq!(
            comm.health(),
            CommHealth {
                ticks: 4,
                ..CommHealth::default()
            }
        );
    }

    #[test]
    fn fault_schedule_is_deterministic_and_rank_agnostic() {
        let plan = FaultPlan::chaos(42, 0.3);
        for rank in 0..4 {
            for op in 0..200 {
                assert_eq!(plan.fault_for(rank, op), plan.fault_for(rank, op));
            }
        }
        // A nonzero rate must actually fire somewhere in a window.
        let fired = (0..200).any(|op| plan.fault_for(0, op).is_some());
        assert!(fired, "0.3 chaos rate never fired in 200 ops");
    }

    #[test]
    fn backoff_grows_and_caps() {
        assert_eq!(backoff_ticks(0), 1);
        assert_eq!(backoff_ticks(1), 2);
        assert_eq!(backoff_ticks(5), 32);
        assert_eq!(backoff_ticks(40), 64);
    }

    #[test]
    fn stall_persists_until_rank_declared_dead() {
        let plan = FaultPlan::new(1).with_stall(0, 3);
        assert_eq!(plan.fault_for(0, 2), None);
        assert_eq!(plan.fault_for(0, 3), Some(FaultKind::Stall));
        assert_eq!(plan.fault_for(0, 999), Some(FaultKind::Stall));
        assert_eq!(plan.fault_for(1, 999), None);

        let world = ThreadWorld::new(2);
        let results = world.run(|c| {
            let comm = FaultComm::new(c, plan.clone());
            for _ in 0..3 {
                comm.all_reduce_max_f64(0.0); // ops 0..3 are clean
            }
            let clean = comm.health();
            comm.all_reduce_max_f64(0.0); // op 3 stalls until rank 0 dies
            let escalated = (comm.op_index(), comm.health());
            comm.all_reduce_max_f64(0.0); // a dead rank no longer faults
            (clean, escalated, comm.op_index())
        });
        for (clean, (op_index, health), after) in results {
            assert_eq!((clean.retries, clean.ticks), (0, 3));
            assert_eq!(health.retries, u64::from(MAX_ATTEMPTS));
            assert_eq!(health.dead_ranks, vec![0]);
            // Eight failed attempts, then the one that reaches the backend.
            assert_eq!(op_index, 3 + 8 + 1);
            // One tick per attempt plus backoffs 1 + 2 + … + 64 + 64.
            assert_eq!(health.ticks, 12 + 191);
            assert_eq!(after, op_index + 1);
        }
    }

    #[test]
    fn persistent_stall_escalates_to_rank_death() {
        let world = ThreadWorld::new(2);
        let results = world.run(|c| {
            let comm = FaultComm::new(c, FaultPlan::new(5).with_stall(1, 0));
            let mut buf = vec![u64::from(comm.rank()) + 1];
            comm.all_reduce_sum_u64(&mut buf);
            (buf[0], comm.health())
        });
        for (sum, health) in results {
            // Rank 1 was declared dead mid-op; its contribution is zeroed.
            assert_eq!(sum, 1);
            assert_eq!(health.dead_ranks, vec![1]);
            assert_eq!(health.retries, u64::from(MAX_ATTEMPTS));
        }
    }

    #[test]
    fn transient_drops_are_retried_to_success() {
        // Moderate drop rate: the op must eventually succeed because every
        // retry re-rolls a fresh op index. (Kept well below the level where
        // MAX_ATTEMPTS consecutive failures — and thus a rank death — get
        // likely across 3 ranks × 20 ops.)
        let world = ThreadWorld::new(3);
        let results = world.run(|c| {
            let comm = FaultComm::new(c, FaultPlan::new(7).with_drop_rate(0.15));
            let mut buf = vec![u64::from(comm.rank())];
            for _ in 0..20 {
                comm.all_reduce_sum_u64(&mut buf);
            }
            (buf[0], comm.op_index(), comm.health(), comm.stats())
        });
        let expect = results[0].0;
        for (sum, op_index, health, stats) in results {
            assert_eq!(sum, expect);
            assert!(health.retries > 0, "0.15 drop rate over 20 ops must retry");
            assert_eq!(health.dropped_ops, health.retries);
            assert!(health.dead_ranks.is_empty());
            // Failed attempts never touch the backend — this is what keeps
            // the ranks aligned: it saw each logical op exactly once.
            assert_eq!(stats.allreduce_calls, 20);
            assert_eq!(op_index, 20 + health.retries);
        }
    }

    #[test]
    fn failed_attempts_never_touch_the_backend() {
        // Rank 0 stalls from the first op: all eight attempts before its
        // death must leave the inner backend untouched on both ranks.
        let world = ThreadWorld::new(2);
        let calls = world.run(|c| {
            let comm = FaultComm::new(c, FaultPlan::new(9).with_stall(0, 0));
            comm.all_gather_u64_list(&[1]);
            (comm.health().dropped_ops, c.stats().allgather_calls)
        });
        assert_eq!(calls, vec![(8, 1); 2]);
    }

    #[test]
    fn delays_beyond_timeout_surface_as_timed_out() {
        let delayed = FaultPlan::new(3)
            .with_delay_rate(0.5)
            .with_max_delay_ticks(10);
        let run = |plan: FaultPlan| {
            let comm = FaultComm::new(SelfComm::new(), plan);
            for _ in 0..10 {
                comm.all_reduce_max_f64(1.0);
            }
            comm.health()
        };
        let within = run(delayed.clone().with_timeout_ticks(10));
        assert_eq!(within.dropped_ops, 0, "a delay inside the budget succeeds");
        assert!(within.ticks > 10, "delay must charge the clock");
        let beyond = run(delayed.with_timeout_ticks(0));
        assert!(
            beyond.dropped_ops > 0,
            "every delay is past a 0-tick budget"
        );
        assert!(beyond.dead_ranks.is_empty());
    }

    #[test]
    fn zombie_contributions_are_neutralized() {
        let world = ThreadWorld::new(2);
        let results = world.run(|c| {
            // Rank 1 never answers: the first op declares it dead.
            let comm = FaultComm::new(c, FaultPlan::new(1).with_stall(1, 0));
            let mut buf = vec![10u64];
            comm.all_reduce_sum_u64(&mut buf);
            let mx = comm.all_reduce_max_f64(f64::from(comm.rank()));
            let lists = comm.all_gather_u64_list(&[u64::from(comm.rank()); 2]);
            let handle = comm.post_exchange_u64(&[vec![7], vec![8]]);
            (buf[0], mx, lists, comm.wait_exchange(handle))
        });
        for (rank, (sum, mx, lists, received)) in results.into_iter().enumerate() {
            assert_eq!(sum, 10, "dead rank's 10 must not be summed");
            assert_eq!(mx, 0.0, "dead rank's 1.0 must not win the max");
            assert_eq!(lists, vec![vec![0, 0], vec![]]);
            assert_eq!(received, vec![vec![7 + rank as u64], vec![]]);
        }
    }

    #[test]
    #[should_panic(expected = "last live rank")]
    fn killing_the_last_rank_panics() {
        let comm = FaultComm::new(SelfComm::new(), FaultPlan::new(1).with_stall(0, 0));
        comm.all_reduce_max_f64(0.0);
    }
}
