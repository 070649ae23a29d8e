//! Retry with bounded exponential backoff and rank-death escalation.
//!
//! [`RetryComm`] turns the fallible `try_*` surface of a fault-injecting
//! stack back into the infallible [`Communicator`] interface the engines
//! consume: every failed attempt is retried after a deterministic,
//! tick-based backoff (no sleeping — the stack's virtual clock is charged
//! instead). When an op exhausts its attempt or tick budget, the rank the
//! last error blames is declared dead on the underlying stack and the op
//! starts over against the shrunken set of fault sources; the engines then
//! degrade gracefully (see `dist.rs`'s θ re-globalization) instead of
//! crashing.
//!
//! Because fault decisions are globally computable (see [`crate::fault`]),
//! every rank observes the same failures at the same op indices and retries
//! in lockstep: op counters never skew across ranks, and the backend only
//! ever sees fully-participated collectives.
//!
//! Retries and deaths are visible on the PR-2 tracer as `comm-retry` and
//! `rank-dead` marks when tracing is enabled.

use crate::communicator::{CommError, CommHealth, CommStats, Communicator, ExchangeHandle};
use ripples_trace::TraceName;
use std::cell::Cell;

/// Deterministic retry budgets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Failed attempts per op before the blamed rank is declared dead.
    pub max_attempts: u32,
    /// Backoff after the first failure, in virtual ticks.
    pub base_backoff_ticks: u64,
    /// Backoff ceiling, in virtual ticks.
    pub max_backoff_ticks: u64,
    /// Total virtual ticks one op may consume before escalation.
    pub op_timeout_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff_ticks: 1,
            max_backoff_ticks: 64,
            op_timeout_ticks: 4096,
        }
    }
}

impl RetryPolicy {
    /// The backoff charged after failed attempt number `attempt` (0-based):
    /// `base · 2^attempt`, capped at the ceiling.
    #[must_use]
    pub fn backoff_ticks(&self, attempt: u32) -> u64 {
        self.base_backoff_ticks
            .saturating_shl(attempt.min(32))
            .min(self.max_backoff_ticks)
    }
}

/// Saturating left shift (`u64::checked_shl` clamps the shift, not the
/// value).
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if self == 0 {
            return 0;
        }
        if shift >= self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

/// Infallible facade over a fallible communicator stack: retries faults in
/// lockstep, escalates persistent ones to rank death.
///
/// The distributed engines wrap whatever communicator they are handed in a
/// `RetryComm` at entry; over a reliable backend every attempt succeeds on
/// the first try and the wrapper is free.
pub struct RetryComm<C> {
    inner: C,
    policy: RetryPolicy,
    retries: Cell<u64>,
}

impl<C: Communicator> RetryComm<C> {
    /// Wraps `inner` under `policy`.
    pub fn new(inner: C, policy: RetryPolicy) -> Self {
        Self {
            inner,
            policy,
            retries: Cell::new(0),
        }
    }

    /// Wraps `inner` under [`RetryPolicy::default`].
    pub fn with_defaults(inner: C) -> Self {
        Self::new(inner, RetryPolicy::default())
    }

    /// The wrapped stack.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Failed attempts retried so far on this rank.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Drives one logical op to completion. Every rank runs the identical
    /// loop: fault decisions are globally computable, so all ranks fail,
    /// back off, and (on exhaustion) declare the same rank dead at the same
    /// attempt — keeping the stack's op counters aligned.
    ///
    /// # Panics
    ///
    /// Panics on a non-retryable fault ([`CommError::DeadRoot`]): no retry
    /// schedule can recover a broadcast whose only data source is gone.
    fn run<T>(&self, mut attempt_op: impl FnMut(&C) -> Result<T, CommError>) -> T {
        let mut attempt: u32 = 0;
        let mut op_start = self.inner.clock_ticks();
        loop {
            match attempt_op(&self.inner) {
                Ok(v) => return v,
                Err(e) if !e.is_retryable() => {
                    panic!("unrecoverable collective failure: {e}")
                }
                Err(e) => {
                    self.retries.set(self.retries.get() + 1);
                    ripples_metrics::add(ripples_metrics::Metric::Retries, 1);
                    ripples_trace::mark(TraceName::CommRetry, e.op_index(), u64::from(attempt));
                    self.inner.advance_clock(self.policy.backoff_ticks(attempt));
                    attempt += 1;
                    let waited = self.inner.clock_ticks().saturating_sub(op_start);
                    if attempt >= self.policy.max_attempts || waited > self.policy.op_timeout_ticks
                    {
                        let rank = e.rank();
                        self.inner.declare_dead(rank);
                        // Every rank declares the same deaths in lockstep,
                        // so the gauge is a cross-rank max of each stack's
                        // dead-set size, not a sum of declarations.
                        ripples_metrics::set_max(
                            ripples_metrics::Metric::DegradedRanks,
                            self.inner.dead_ranks().len() as u64,
                        );
                        ripples_trace::mark(TraceName::RankDead, u64::from(rank), e.op_index());
                        attempt = 0;
                        op_start = self.inner.clock_ticks();
                    }
                }
            }
        }
    }
}

impl<C: Communicator> Communicator for RetryComm<C> {
    fn rank(&self) -> u32 {
        self.inner.rank()
    }

    fn size(&self) -> u32 {
        self.inner.size()
    }

    fn barrier(&self) {
        self.run(Communicator::try_barrier);
    }

    fn all_reduce_sum_u64(&self, buf: &mut [u64]) {
        self.run(|c| c.try_all_reduce_sum_u64(buf));
    }

    fn all_reduce_sum_f64(&self, value: f64) -> f64 {
        self.run(|c| c.try_all_reduce_sum_f64(value))
    }

    fn all_reduce_max_f64(&self, value: f64) -> f64 {
        self.run(|c| c.try_all_reduce_max_f64(value))
    }

    fn broadcast_u64(&self, root: u32, value: u64) -> u64 {
        self.run(|c| c.try_broadcast_u64(root, value))
    }

    fn all_gather_u64(&self, value: u64) -> Vec<u64> {
        self.run(|c| c.try_all_gather_u64(value))
    }

    fn all_gather_u64_list(&self, items: &[u64]) -> Vec<Vec<u64>> {
        self.run(|c| c.try_all_gather_u64_list(items))
    }

    fn alltoallv_u64(&self, sends: &[Vec<u64>]) -> Vec<Vec<u64>> {
        self.run(|c| c.try_alltoallv_u64(sends))
    }

    fn post_exchange_u64(&self, sends: &[Vec<u64>]) -> ExchangeHandle {
        // Forward the post: a reliable backend stages it for true overlap;
        // a fault-injecting stack hands back `Deferred`, whose transport we
        // retry at the wait.
        self.inner.post_exchange_u64(sends)
    }

    fn wait_exchange(&self, handle: ExchangeHandle) -> Vec<Vec<u64>> {
        match handle {
            ExchangeHandle::Ready(result) => result,
            ExchangeHandle::Deferred(sends) => self.run(|c| c.try_alltoallv_u64(&sends)),
            ExchangeHandle::Staged(_) => self.inner.wait_exchange(handle),
        }
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    // The try_* surface passes through single-attempt: stacking a second
    // RetryComm keeps exactly-once retry semantics at the outermost layer.

    fn try_barrier(&self) -> Result<(), CommError> {
        self.inner.try_barrier()
    }

    fn try_all_reduce_sum_u64(&self, buf: &mut [u64]) -> Result<(), CommError> {
        self.inner.try_all_reduce_sum_u64(buf)
    }

    fn try_all_reduce_sum_f64(&self, value: f64) -> Result<f64, CommError> {
        self.inner.try_all_reduce_sum_f64(value)
    }

    fn try_all_reduce_max_f64(&self, value: f64) -> Result<f64, CommError> {
        self.inner.try_all_reduce_max_f64(value)
    }

    fn try_broadcast_u64(&self, root: u32, value: u64) -> Result<u64, CommError> {
        self.inner.try_broadcast_u64(root, value)
    }

    fn try_all_gather_u64(&self, value: u64) -> Result<Vec<u64>, CommError> {
        self.inner.try_all_gather_u64(value)
    }

    fn try_all_gather_u64_list(&self, items: &[u64]) -> Result<Vec<Vec<u64>>, CommError> {
        self.inner.try_all_gather_u64_list(items)
    }

    fn try_alltoallv_u64(&self, sends: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, CommError> {
        self.inner.try_alltoallv_u64(sends)
    }

    fn dead_ranks(&self) -> Vec<u32> {
        self.inner.dead_ranks()
    }

    fn declare_dead(&self, rank: u32) {
        self.inner.declare_dead(rank);
    }

    fn clock_ticks(&self) -> u64 {
        self.inner.clock_ticks()
    }

    fn advance_clock(&self, ticks: u64) {
        self.inner.advance_clock(ticks);
    }

    fn health(&self) -> CommHealth {
        let mut health = self.inner.health();
        health.retries += self.retries.get();
        health
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultComm, FaultPlan};
    use crate::selfcomm::SelfComm;
    use crate::thread::ThreadWorld;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ticks(0), 1);
        assert_eq!(p.backoff_ticks(1), 2);
        assert_eq!(p.backoff_ticks(5), 32);
        assert_eq!(p.backoff_ticks(40), 64);
    }

    #[test]
    fn reliable_backend_is_free() {
        let comm = RetryComm::with_defaults(SelfComm::new());
        let mut buf = vec![1u64, 2];
        comm.all_reduce_sum_u64(&mut buf);
        comm.barrier();
        assert_eq!(comm.retries(), 0);
        assert_eq!(comm.health(), CommHealth::default());
    }

    #[test]
    fn transient_drops_are_retried_to_success() {
        // Moderate drop rate: the op must eventually succeed because every
        // retry re-rolls a fresh op index. (Kept well below the level where
        // max_attempts consecutive failures — and thus a rank death — get
        // likely across 3 ranks × 20 ops.)
        let world = ThreadWorld::new(3);
        let results = world.run(|c| {
            let faulty = FaultComm::new(c, FaultPlan::new(7).with_drop_rate(0.15));
            let comm = RetryComm::with_defaults(&faulty);
            let mut buf = vec![u64::from(comm.rank())];
            for _ in 0..20 {
                comm.all_reduce_sum_u64(&mut buf);
            }
            (buf[0], comm.retries(), comm.health())
        });
        let expect = results[0].0;
        for (sum, retries, health) in results {
            assert_eq!(sum, expect);
            assert!(retries > 0, "0.15 drop rate over 20 ops must retry");
            assert_eq!(health.retries, retries);
            assert_eq!(health.dropped_ops, retries);
            assert!(health.dead_ranks.is_empty());
        }
    }

    #[test]
    fn persistent_stall_escalates_to_rank_death() {
        let world = ThreadWorld::new(2);
        let results = world.run(|c| {
            let faulty = FaultComm::new(c, FaultPlan::new(5).with_stall(1, 0));
            let comm = RetryComm::with_defaults(&faulty);
            let mut buf = vec![u64::from(comm.rank()) + 1];
            comm.all_reduce_sum_u64(&mut buf);
            (buf[0], comm.health())
        });
        for (sum, health) in results {
            // Rank 1 was declared dead mid-op; its contribution is zeroed.
            assert_eq!(sum, 1);
            assert_eq!(health.dead_ranks, vec![1]);
            assert_eq!(
                u64::from(RetryPolicy::default().max_attempts),
                health.retries
            );
        }
    }

    #[test]
    fn dead_root_broadcast_panics_through_retry() {
        // The dead-root check fires before any backend call on every rank,
        // so both ranks observe the panic without desynchronizing.
        let world = ThreadWorld::new(2);
        let msgs = world.run(|c| {
            let faulty = FaultComm::new(c, FaultPlan::none());
            faulty.declare_dead(1);
            let comm = RetryComm::with_defaults(&faulty);
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| comm.broadcast_u64(1, 9)));
            let payload = caught.expect_err("dead-root broadcast must panic");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        });
        for m in msgs {
            assert!(m.contains("unrecoverable collective failure"), "got: {m}");
            assert!(m.contains("root rank 1 is dead"), "got: {m}");
        }
    }
}
