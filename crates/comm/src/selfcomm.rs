//! The single-rank communicator.

use crate::communicator::{traced, CommStats, Communicator, StatsCell};
use ripples_trace::TraceName;

/// A world of one rank: every collective is the identity.
///
/// Lets the distributed code path run (and be tested) without threads, and
/// serves as the degenerate base case of the scaling sweeps.
#[derive(Debug, Default)]
pub struct SelfComm {
    stats: StatsCell,
}

impl SelfComm {
    /// Creates the single-rank world.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Communicator for SelfComm {
    fn rank(&self) -> u32 {
        0
    }

    fn size(&self) -> u32 {
        1
    }

    fn all_reduce_sum_u64(&self, _buf: &mut [u64]) {
        self.stats
            .allreduce_calls
            .set(self.stats.allreduce_calls.get() + 1);
        // One rank: no bytes move.
        traced(TraceName::CommAllReduce, 0, || {});
    }

    fn all_reduce_max_f64(&self, value: f64) -> f64 {
        self.stats
            .allreduce_calls
            .set(self.stats.allreduce_calls.get() + 1);
        traced(TraceName::CommAllReduce, 0, || value)
    }

    fn all_gather_u64_list(&self, items: &[u64]) -> Vec<Vec<u64>> {
        self.stats
            .allgather_calls
            .set(self.stats.allgather_calls.get() + 1);
        traced(TraceName::CommAllGather, 0, || vec![items.to_vec()])
    }

    fn alltoallv_u64(&self, sends: &[Vec<u64>]) -> Vec<Vec<u64>> {
        assert_eq!(sends.len(), 1, "one send list per rank");
        // One rank: its send to itself is the whole result, zero bytes move.
        self.stats.charge_exchange(0, 1);
        traced(TraceName::CommExchange, 0, || vec![sends[0].clone()])
    }

    fn stats(&self) -> CommStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_collectives() {
        let c = SelfComm::new();
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        let mut buf = vec![3u64, 5];
        c.all_reduce_sum_u64(&mut buf);
        assert_eq!(buf, vec![3, 5]);
        assert_eq!(c.all_reduce_max_f64(-1.0), -1.0);
        assert_eq!(c.all_gather_u64_list(&[4]), vec![vec![4]]);
        let s = c.stats();
        assert_eq!(s.allreduce_calls, 2);
        assert_eq!(s.allgather_calls, 1);
        assert_eq!(s.bytes_moved, 0);
    }
}
