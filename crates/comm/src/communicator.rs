//! The communicator trait and its call/byte accounting.

use std::cell::Cell;

/// Counters describing the communication a rank has performed.
///
/// `bytes_moved` models the payload a real MPI rank would send for the same
/// call sequence under recursive doubling (`⌈log₂ p⌉` rounds of the full
/// payload for all-reduce/all-gather), which is what the α–β cost model
/// consumes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Number of `all_reduce_*` calls.
    pub allreduce_calls: u64,
    /// Number of `all_gather_u64_list` calls.
    pub allgather_calls: u64,
    /// Number of logical `alltoallv_u64` exchanges (a posted exchange
    /// counts once, at the attempt that reaches the transport).
    pub exchange_calls: u64,
    /// Modeled payload bytes this rank would transmit under recursive
    /// doubling.
    pub bytes_moved: u64,
}

impl CommStats {
    /// The communication performed between two snapshots of the same rank's
    /// stats (counters are monotonic, so plain subtraction).
    #[must_use]
    pub fn delta(before: &CommStats, after: &CommStats) -> Self {
        Self {
            allreduce_calls: after.allreduce_calls - before.allreduce_calls,
            allgather_calls: after.allgather_calls - before.allgather_calls,
            exchange_calls: after.exchange_calls - before.exchange_calls,
            bytes_moved: after.bytes_moved - before.bytes_moved,
        }
    }
}

/// Internal mutable stats cell shared by the communicator implementations.
#[derive(Debug, Default)]
pub(crate) struct StatsCell {
    pub allreduce_calls: Cell<u64>,
    pub allgather_calls: Cell<u64>,
    pub exchange_calls: Cell<u64>,
    pub bytes_moved: Cell<u64>,
}

impl StatsCell {
    pub(crate) fn snapshot(&self) -> CommStats {
        CommStats {
            allreduce_calls: self.allreduce_calls.get(),
            allgather_calls: self.allgather_calls.get(),
            exchange_calls: self.exchange_calls.get(),
            bytes_moved: self.bytes_moved.get(),
        }
    }

    /// Records the modeled cost of one recursive-doubling collective over
    /// `payload_bytes` in a world of `size` ranks.
    pub(crate) fn charge_log_rounds(&self, payload_bytes: u64, size: u32) {
        let rounds = u64::from(32 - size.saturating_sub(1).leading_zeros());
        self.bytes_moved
            .set(self.bytes_moved.get() + payload_bytes * rounds);
    }

    /// Records one logical exchange: direct point-to-point routing, so the
    /// payload is charged once (not log-rounds). Single-rank worlds move no
    /// bytes.
    pub(crate) fn charge_exchange(&self, payload_bytes: u64, size: u32) {
        self.exchange_calls.set(self.exchange_calls.get() + 1);
        if size > 1 {
            self.bytes_moved.set(self.bytes_moved.get() + payload_bytes);
        }
    }
}

/// Runs a collective body under a trace span carrying the payload byte
/// count, when tracing is enabled; otherwise the only cost is one relaxed
/// load and a branch.
pub(crate) fn traced<T>(
    name: ripples_trace::TraceName,
    payload_bytes: u64,
    f: impl FnOnce() -> T,
) -> T {
    // Every backend funnels every collective through here, so this is
    // also the single live-telemetry point for comm op/byte rates.
    ripples_metrics::add(ripples_metrics::Metric::CommOps, 1);
    ripples_metrics::add(ripples_metrics::Metric::CommBytes, payload_bytes);
    if ripples_trace::enabled() {
        let t0 = std::time::Instant::now();
        let out = f();
        ripples_trace::complete(name, t0, payload_bytes, 0);
        out
    } else {
        f()
    }
}

/// An in-flight nonblocking exchange, returned by
/// [`Communicator::post_exchange_u64`] and consumed by
/// [`Communicator::wait_exchange`].
///
/// Each backend picks the cheapest representation that preserves its
/// semantics:
///
/// * `Ready` — the result was computed eagerly at post time (the default
///   trait implementation, and `SelfComm`). Wait is free.
/// * `Deferred` — the *sends* are parked and the transport runs at wait
///   time. [`crate::FaultComm`] uses this under a non-empty plan so a posted
///   exchange's fault rolls — and the op indices they consume — happen at
///   the wait, in the order the waits are issued.
/// * `Staged` — the sends were deposited into the backend's shared staging
///   area under the given exchange generation; the posting rank is free to
///   compute while peers deposit theirs. `ThreadComm` implements true
///   overlap this way.
#[derive(Debug)]
#[must_use = "a posted exchange must be waited on"]
pub enum ExchangeHandle {
    /// Result already available.
    Ready(Vec<Vec<u64>>),
    /// Sends parked; transport runs at wait time.
    Deferred(Vec<Vec<u64>>),
    /// Sends staged in the backend under this exchange generation.
    Staged(u64),
}

/// Robustness bookkeeping a communicator stack has accumulated: retry and
/// drop counters plus the set of ranks declared dead. Backends without a
/// fault surface report the all-zero default.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommHealth {
    /// Collective attempts that were retried after a fault.
    pub retries: u64,
    /// Collective attempts that failed (dropped, truncated, timed out, or
    /// stalled) before eventually succeeding or escalating.
    pub dropped_ops: u64,
    /// Deterministic virtual clock ticks consumed, delays included.
    pub ticks: u64,
    /// Ranks declared dead, ascending.
    pub dead_ranks: Vec<u32>,
}

/// The message-passing interface the distributed IMM engines are written
/// against: exactly the collectives they call.
///
/// Implementations must guarantee MPI collective semantics: every rank of
/// the world calls the same collectives in the same order, and a collective
/// returns on a rank only after the global result is available to it.
pub trait Communicator {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> u32;

    /// The number of ranks in the world.
    fn size(&self) -> u32;

    /// Element-wise global sum of `buf` across ranks; every rank's `buf`
    /// holds the result on return (`MPI_Allreduce(SUM)`).
    fn all_reduce_sum_u64(&self, buf: &mut [u64]);

    /// Global maximum of a single `f64`.
    fn all_reduce_max_f64(&self, value: f64) -> f64;

    /// Gathers a variable-length `u64` list from every rank, returned in
    /// rank order on every rank (`MPI_Allgatherv`). The backbone of sparse
    /// counter aggregation in distributed seed selection.
    fn all_gather_u64_list(&self, items: &[u64]) -> Vec<Vec<u64>>;

    /// Personalized all-to-all over variable-length `u64` lists
    /// (`MPI_Alltoallv`): `sends[r]` goes to rank `r`; returns what every
    /// rank sent to *this* rank, in sender-rank order. The backbone of the
    /// vertex-cut engine's frontier exchange.
    ///
    /// # Panics
    ///
    /// Panics if `sends.len() != size()`.
    fn alltoallv_u64(&self, sends: &[Vec<u64>]) -> Vec<Vec<u64>>;

    /// Posts a nonblocking [`Communicator::alltoallv_u64`]; the caller may
    /// compute between the post and the matching
    /// [`Communicator::wait_exchange`]. Every rank must post and wait its
    /// exchanges in the same order, exactly as with MPI nonblocking
    /// collectives.
    fn post_exchange_u64(&self, sends: &[Vec<u64>]) -> ExchangeHandle {
        ExchangeHandle::Ready(self.alltoallv_u64(sends))
    }

    /// Completes a posted exchange, returning what every rank sent to this
    /// rank, in sender-rank order.
    ///
    /// # Panics
    ///
    /// Panics on an [`ExchangeHandle::Staged`] handle: only the backend
    /// that staged it can complete it.
    fn wait_exchange(&self, handle: ExchangeHandle) -> Vec<Vec<u64>> {
        match handle {
            ExchangeHandle::Ready(result) => result,
            ExchangeHandle::Deferred(sends) => self.alltoallv_u64(&sends),
            ExchangeHandle::Staged(_) => {
                panic!("staged exchange waited on a backend without staging")
            }
        }
    }

    /// Communication counters recorded so far on this rank.
    fn stats(&self) -> CommStats;

    /// Robustness counters accumulated by this communicator stack; all
    /// zero, with no dead ranks, on a backend that cannot fail.
    fn health(&self) -> CommHealth {
        CommHealth::default()
    }
}

/// Forwarding impl so decorators can wrap borrowed backends (e.g.
/// `FaultComm<&ThreadComm>` inside a `ThreadWorld::run` closure).
impl<C: Communicator + ?Sized> Communicator for &C {
    fn rank(&self) -> u32 {
        (**self).rank()
    }

    fn size(&self) -> u32 {
        (**self).size()
    }

    fn all_reduce_sum_u64(&self, buf: &mut [u64]) {
        (**self).all_reduce_sum_u64(buf);
    }

    fn all_reduce_max_f64(&self, value: f64) -> f64 {
        (**self).all_reduce_max_f64(value)
    }

    fn all_gather_u64_list(&self, items: &[u64]) -> Vec<Vec<u64>> {
        (**self).all_gather_u64_list(items)
    }

    fn alltoallv_u64(&self, sends: &[Vec<u64>]) -> Vec<Vec<u64>> {
        (**self).alltoallv_u64(sends)
    }

    fn post_exchange_u64(&self, sends: &[Vec<u64>]) -> ExchangeHandle {
        (**self).post_exchange_u64(sends)
    }

    fn wait_exchange(&self, handle: ExchangeHandle) -> Vec<Vec<u64>> {
        (**self).wait_exchange(handle)
    }

    fn stats(&self) -> CommStats {
        (**self).stats()
    }

    fn health(&self) -> CommHealth {
        (**self).health()
    }
}
