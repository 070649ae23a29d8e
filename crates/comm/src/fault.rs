//! Deterministic fault injection for any [`Communicator`] backend.
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
//! backend call for that attempt and surface the same [`CommError`], so the
//! backend never sees a half-participated collective (which would deadlock a
//! real MPI, and does deadlock [`crate::ThreadWorld`]). Retrying in lockstep
//! (see [`crate::retry::RetryComm`]) then keeps the per-rank op counters
//! aligned forever, and each *logical* op reaches the backend exactly once —
//! which is why a zero-fault `FaultComm` is bitwise transparent, backend
//! [`CommStats`] included.
//!
//! Time is a deterministic virtual clock: each attempt costs one tick plus
//! any injected delay, and a delay beyond the plan's timeout budget surfaces
//! as [`CommError::TimedOut`] *instead of* performing the op (so a retry
//! never double-applies an in-place all-reduce).
//!
//! Dead ranks become **zombies**: in an in-process world the rank's thread
//! doubles as the transport, so it keeps calling collectives to keep the
//! world in lockstep, but `FaultComm` neutralizes its payloads (zeros for
//! sums, `-∞` for max, an empty list for gathers). A broadcast rooted at a
//! dead rank is the one unrecoverable case: [`CommError::DeadRoot`].

use crate::communicator::{
    CollectiveOp, CommError, CommHealth, CommStats, Communicator, ExchangeHandle,
};
use ripples_rng::SplitMix64;
use std::cell::{Cell, RefCell};

/// Domain separator mixed into the plan seed so fault draws never collide
/// with the engines' sampling streams, even under the same master seed.
const FAULT_DOMAIN: u64 = 0xFA17_C0DE_5EED_0001;

/// A rank that stops responding from a given op index onward (until the
/// retry layer declares it dead).
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
    /// exceeds this many ticks fails as [`CommError::TimedOut`].
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

/// A fault-injecting decorator over any [`Communicator`] backend.
///
/// The infallible [`Communicator`] methods panic if the plan injects a fault
/// for that attempt — wrap the stack in a [`crate::retry::RetryComm`] (the
/// distributed engines do this at entry) so faults are retried instead. With
/// an empty plan every call delegates straight through, making the decorator
/// bitwise transparent.
pub struct FaultComm<C> {
    inner: C,
    plan: FaultPlan,
    op_index: Cell<u64>,
    ticks: Cell<u64>,
    dropped_ops: Cell<u64>,
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
            dropped_ops: Cell::new(0),
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

    fn self_dead(&self) -> bool {
        self.dead.borrow().contains(&self.inner.rank())
    }

    /// Advances the op counter and virtual clock, and decides — identically
    /// on every rank — whether this attempt fails. On `Err` the backend is
    /// *not* called, on any rank.
    fn check(&self, op: CollectiveOp, payload_bytes: u64) -> Result<(), CommError> {
        let t = self.op_index.get();
        self.op_index.set(t + 1);
        if self.plan.is_empty() {
            self.ticks.set(self.ticks.get() + 1);
            return Ok(());
        }
        let dead = self.dead.borrow();
        let mut stalled: Option<u32> = None;
        let mut first_fail: Option<CommError> = None;
        let mut delay = 0u64;
        let mut slowest = 0u32;
        for r in 0..self.inner.size() {
            if dead.contains(&r) {
                continue;
            }
            match self.plan.fault_for(r, t) {
                Some(FaultKind::Stall) if stalled.is_none() => stalled = Some(r),
                Some(FaultKind::Stall) => {}
                Some(FaultKind::Drop) => {
                    first_fail.get_or_insert(CommError::Dropped {
                        op,
                        rank: r,
                        op_index: t,
                    });
                }
                Some(FaultKind::Truncate) => {
                    first_fail.get_or_insert(CommError::Truncated {
                        op,
                        rank: r,
                        op_index: t,
                        expected_bytes: payload_bytes,
                        got_bytes: payload_bytes / 2,
                    });
                }
                Some(FaultKind::Delay(d)) if d > delay => {
                    delay = d;
                    slowest = r;
                }
                Some(FaultKind::Delay(_)) => {}
                None => {}
            }
        }
        drop(dead);
        self.ticks.set(self.ticks.get() + 1 + delay);
        // Stalls outrank transient faults so escalation blames the rank that
        // will actually never recover.
        let failure = match stalled {
            Some(rank) => Some(CommError::Stalled {
                op,
                rank,
                op_index: t,
            }),
            None => first_fail.or(if delay > self.plan.timeout_ticks {
                Some(CommError::TimedOut {
                    op,
                    rank: slowest,
                    op_index: t,
                    delay_ticks: delay,
                    budget_ticks: self.plan.timeout_ticks,
                })
            } else {
                None
            }),
        };
        match failure {
            Some(e) => {
                self.dropped_ops.set(self.dropped_ops.get() + 1);
                ripples_metrics::add(ripples_metrics::Metric::DroppedOps, 1);
                Err(e)
            }
            None => Ok(()),
        }
    }
}

/// Panic message for an unhandled injected fault on the infallible surface.
fn unhandled(e: &CommError) -> ! {
    panic!("unhandled comm fault (wrap the stack in RetryComm): {e}")
}

impl<C: Communicator> Communicator for FaultComm<C> {
    fn rank(&self) -> u32 {
        self.inner.rank()
    }

    fn size(&self) -> u32 {
        self.inner.size()
    }

    fn barrier(&self) {
        self.try_barrier().unwrap_or_else(|e| unhandled(&e));
    }

    fn all_reduce_sum_u64(&self, buf: &mut [u64]) {
        self.try_all_reduce_sum_u64(buf)
            .unwrap_or_else(|e| unhandled(&e));
    }

    fn all_reduce_sum_f64(&self, value: f64) -> f64 {
        self.try_all_reduce_sum_f64(value)
            .unwrap_or_else(|e| unhandled(&e))
    }

    fn all_reduce_max_f64(&self, value: f64) -> f64 {
        self.try_all_reduce_max_f64(value)
            .unwrap_or_else(|e| unhandled(&e))
    }

    fn broadcast_u64(&self, root: u32, value: u64) -> u64 {
        self.try_broadcast_u64(root, value)
            .unwrap_or_else(|e| unhandled(&e))
    }

    fn all_gather_u64(&self, value: u64) -> Vec<u64> {
        self.try_all_gather_u64(value)
            .unwrap_or_else(|e| unhandled(&e))
    }

    fn all_gather_u64_list(&self, items: &[u64]) -> Vec<Vec<u64>> {
        self.try_all_gather_u64_list(items)
            .unwrap_or_else(|e| unhandled(&e))
    }

    fn alltoallv_u64(&self, sends: &[Vec<u64>]) -> Vec<Vec<u64>> {
        self.try_alltoallv_u64(sends)
            .unwrap_or_else(|e| unhandled(&e))
    }

    fn post_exchange_u64(&self, sends: &[Vec<u64>]) -> ExchangeHandle {
        // Defer the transport (and the fault roll) to the wait: the post
        // must stay infallible, and deciding the fault here would burn an
        // op index at a point the retry layer cannot replay. The overlap is
        // lost under fault injection — correctness over concurrency.
        ExchangeHandle::Deferred(sends.to_vec())
    }

    fn wait_exchange(&self, handle: ExchangeHandle) -> Vec<Vec<u64>> {
        match handle {
            ExchangeHandle::Ready(result) => result,
            ExchangeHandle::Deferred(sends) => self.alltoallv_u64(&sends),
            // Not produced by this decorator's post, but a caller may hand
            // us a handle staged directly on the backend.
            ExchangeHandle::Staged(_) => self.inner.wait_exchange(handle),
        }
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn try_barrier(&self) -> Result<(), CommError> {
        self.check(CollectiveOp::Barrier, 0)?;
        self.inner.barrier();
        Ok(())
    }

    fn try_all_reduce_sum_u64(&self, buf: &mut [u64]) -> Result<(), CommError> {
        self.check(CollectiveOp::AllReduce, 8 * buf.len() as u64)?;
        if self.self_dead() {
            buf.fill(0);
        }
        self.inner.all_reduce_sum_u64(buf);
        Ok(())
    }

    fn try_all_reduce_sum_f64(&self, value: f64) -> Result<f64, CommError> {
        self.check(CollectiveOp::AllReduce, 8)?;
        let value = if self.self_dead() { 0.0 } else { value };
        Ok(self.inner.all_reduce_sum_f64(value))
    }

    fn try_all_reduce_max_f64(&self, value: f64) -> Result<f64, CommError> {
        self.check(CollectiveOp::AllReduce, 8)?;
        let value = if self.self_dead() {
            f64::NEG_INFINITY
        } else {
            value
        };
        Ok(self.inner.all_reduce_max_f64(value))
    }

    fn try_broadcast_u64(&self, root: u32, value: u64) -> Result<u64, CommError> {
        let attempt = self.op_index.get();
        self.check(CollectiveOp::Broadcast, 8)?;
        if self.dead.borrow().contains(&root) {
            return Err(CommError::DeadRoot {
                op: CollectiveOp::Broadcast,
                rank: root,
                op_index: attempt,
            });
        }
        Ok(self.inner.broadcast_u64(root, value))
    }

    fn try_all_gather_u64(&self, value: u64) -> Result<Vec<u64>, CommError> {
        self.check(CollectiveOp::AllGather, 8)?;
        let value = if self.self_dead() { 0 } else { value };
        Ok(self.inner.all_gather_u64(value))
    }

    fn try_all_gather_u64_list(&self, items: &[u64]) -> Result<Vec<Vec<u64>>, CommError> {
        self.check(CollectiveOp::AllGather, 8 * items.len() as u64)?;
        if self.self_dead() {
            Ok(self.inner.all_gather_u64_list(&[]))
        } else {
            Ok(self.inner.all_gather_u64_list(items))
        }
    }

    fn try_alltoallv_u64(&self, sends: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, CommError> {
        let payload = 8 * sends.iter().map(|s| s.len() as u64).sum::<u64>();
        self.check(CollectiveOp::Exchange, payload)?;
        if self.self_dead() {
            // Zombie: keep the backend in lockstep but send nothing.
            let empty = vec![Vec::new(); sends.len()];
            Ok(self.inner.alltoallv_u64(&empty))
        } else {
            Ok(self.inner.alltoallv_u64(sends))
        }
    }

    fn dead_ranks(&self) -> Vec<u32> {
        self.dead.borrow().clone()
    }

    fn declare_dead(&self, rank: u32) {
        assert!(rank < self.inner.size(), "rank {rank} out of range");
        let mut dead = self.dead.borrow_mut();
        if dead.contains(&rank) {
            return;
        }
        assert!(
            dead.len() as u32 + 2 <= self.inner.size(),
            "cannot declare rank {rank} dead: it is the last live rank"
        );
        dead.push(rank);
        dead.sort_unstable();
    }

    fn clock_ticks(&self) -> u64 {
        self.ticks.get()
    }

    fn advance_clock(&self, ticks: u64) {
        self.ticks.set(self.ticks.get() + ticks);
    }

    fn health(&self) -> CommHealth {
        CommHealth {
            retries: 0,
            dropped_ops: self.dropped_ops.get(),
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
        assert_eq!(comm.all_gather_u64(7), vec![7]);
        assert_eq!(comm.broadcast_u64(0, 3), 3);
        comm.barrier();
        assert_eq!(comm.stats(), comm.inner().stats());
        assert!(comm.dead_ranks().is_empty());
        assert_eq!(comm.health().dropped_ops, 0);
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
    fn stall_persists_until_rank_declared_dead() {
        let plan = FaultPlan::new(1).with_stall(0, 3);
        assert_eq!(plan.fault_for(0, 2), None);
        assert_eq!(plan.fault_for(0, 3), Some(FaultKind::Stall));
        assert_eq!(plan.fault_for(0, 999), Some(FaultKind::Stall));
        assert_eq!(plan.fault_for(1, 999), None);

        let world = ThreadWorld::new(2);
        let results = world.run(|c| {
            let comm = FaultComm::new(c, plan.clone());
            comm.barrier(); // ops 0..3 are clean
            comm.barrier();
            comm.barrier();
            let e = comm.try_barrier().expect_err("op 3 must stall");
            assert!(comm.try_barrier().is_err(), "stall must persist");
            comm.declare_dead(0);
            comm.try_barrier().expect("dead rank no longer faults");
            e
        });
        for e in results {
            assert!(matches!(e, CommError::Stalled { rank: 0, .. }));
            assert_eq!(e.op_index(), 3);
        }
    }

    #[test]
    fn failed_attempts_never_touch_the_backend() {
        // Drop rate 1: every attempt fails, so the inner backend must see
        // zero collective calls — this is what keeps ranks aligned.
        let comm = FaultComm::new(SelfComm::new(), FaultPlan::new(9).with_drop_rate(1.0));
        for _ in 0..5 {
            assert!(comm.try_barrier().is_err());
        }
        assert_eq!(comm.inner().stats().barrier_calls, 0);
        assert_eq!(comm.health().dropped_ops, 5);
    }

    #[test]
    fn delays_beyond_timeout_surface_as_timed_out() {
        let plan = FaultPlan::new(3)
            .with_delay_rate(1.0)
            .with_max_delay_ticks(10)
            .with_timeout_ticks(0);
        let comm = FaultComm::new(SelfComm::new(), plan);
        let e = comm.try_barrier().expect_err("every op delayed past 0");
        assert!(matches!(e, CommError::TimedOut { .. }));
        assert!(comm.clock_ticks() > 1, "delay must charge the clock");
    }

    #[test]
    fn dead_root_broadcast_is_not_retryable() {
        let world = ThreadWorld::new(2);
        let errs = world.run(|c| {
            let comm = FaultComm::new(c, FaultPlan::none());
            comm.declare_dead(1);
            comm.try_broadcast_u64(1, 5).expect_err("dead root")
        });
        for e in errs {
            assert!(matches!(e, CommError::DeadRoot { rank: 1, .. }));
            assert!(!e.is_retryable());
        }
    }

    #[test]
    fn zombie_contributions_are_neutralized() {
        let world = ThreadWorld::new(2);
        let results = world.run(|c| {
            let comm = FaultComm::new(c, FaultPlan::none());
            comm.declare_dead(1);
            let mut buf = vec![10u64];
            comm.all_reduce_sum_u64(&mut buf);
            let mx = comm.all_reduce_max_f64(f64::from(comm.rank()));
            let lists = comm.all_gather_u64_list(&[u64::from(comm.rank()); 2]);
            (buf[0], mx, lists)
        });
        for (sum, mx, lists) in results {
            assert_eq!(sum, 10, "dead rank's 10 must not be summed");
            assert_eq!(mx, 0.0, "dead rank's 1.0 must not win the max");
            assert_eq!(lists, vec![vec![0, 0], vec![]]);
        }
    }

    #[test]
    #[should_panic(expected = "last live rank")]
    fn killing_the_last_rank_panics() {
        let comm = FaultComm::new(SelfComm::new(), FaultPlan::none());
        comm.declare_dead(0);
    }

    #[test]
    #[should_panic(expected = "unhandled comm fault")]
    fn infallible_surface_panics_on_fault() {
        let comm = FaultComm::new(SelfComm::new(), FaultPlan::new(2).with_drop_rate(1.0));
        comm.barrier();
    }
}
