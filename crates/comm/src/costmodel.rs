//! α–β communication-time model and cluster presets.
//!
//! This host has a single CPU core, so the paper's 16-node (Puma) and
//! 1024-node (Edison) strong-scaling experiments cannot be *timed* here
//! under any implementation. Following the reproduction's substitution rule,
//! the scaling harness instead measures single-rank *work* (edges examined
//! during sampling, counter updates during selection) and converts it to
//! predicted wall-clock with:
//!
//! * a per-cluster compute rate (edges traversed per second per core, and
//!   cores per node), and
//! * the classic Hockney/α–β collective model: a recursive-doubling
//!   all-reduce over `b` bytes among `p` ranks costs
//!   `⌈log₂ p⌉ · (α + β·b)` seconds.
//!
//! The presets below approximate the paper's two machines closely enough to
//! reproduce the *shape* of Figures 7–8 (which phase dominates, where LT
//! stops scaling); absolute seconds are not comparable and are not claimed
//! to be.

/// Latency/bandwidth parameters of one interconnect.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AlphaBetaModel {
    /// Per-message latency α in seconds.
    pub alpha: f64,
    /// Per-byte transfer time β in seconds.
    pub beta: f64,
}

impl AlphaBetaModel {
    /// Time for a recursive-doubling all-reduce of `bytes` among `ranks`.
    #[must_use]
    pub fn allreduce_time(&self, bytes: u64, ranks: u32) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let rounds = f64::from(32 - (ranks - 1).leading_zeros());
        rounds * (self.alpha + self.beta * bytes as f64)
    }
}

/// One compute cluster: node/core topology, compute rate, and interconnect.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Hardware threads used per node.
    pub threads_per_node: u32,
    /// Sampling throughput per thread, in RRR edge-examinations per second.
    /// Calibrated so the single-node runtimes land in the paper's ballpark;
    /// only *ratios* between configurations matter for scaling shapes.
    pub edge_rate_per_thread: f64,
    /// Interconnect parameters.
    pub network: AlphaBetaModel,
}

impl ClusterSpec {
    /// The paper's Puma cluster: 2× 10-core Xeon E5-2680v2 per node
    /// (hyper-threading off), InfiniBand FDR.
    #[must_use]
    pub fn puma() -> Self {
        Self {
            name: "puma",
            threads_per_node: 20,
            edge_rate_per_thread: 60.0e6,
            network: AlphaBetaModel {
                alpha: 1.5e-6,
                beta: 1.0 / 6.8e9, // FDR 4× ≈ 54 Gbit/s ≈ 6.8 GB/s
            },
        }
    }

    /// The paper's Edison (NERSC Cray XC30): 2× 12-core Ivy Bridge per node
    /// with hyper-threading (48 threads used), Aries dragonfly.
    #[must_use]
    pub fn edison() -> Self {
        Self {
            name: "edison",
            threads_per_node: 48,
            // Hyper-threaded cores at a lower clock: lower per-thread rate.
            edge_rate_per_thread: 35.0e6,
            network: AlphaBetaModel {
                alpha: 1.2e-6,
                beta: 1.0 / 9.0e9,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_scales_logarithmically() {
        let m = AlphaBetaModel {
            alpha: 1e-6,
            beta: 1e-9,
        };
        let t2 = m.allreduce_time(1024, 2);
        let t4 = m.allreduce_time(1024, 4);
        let t1024 = m.allreduce_time(1024, 1024);
        assert!((t4 / t2 - 2.0).abs() < 1e-9);
        assert!((t1024 / t2 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn single_rank_costs_nothing() {
        let m = ClusterSpec::puma().network;
        assert_eq!(m.allreduce_time(1 << 20, 1), 0.0);
    }

    #[test]
    fn presets_are_distinct() {
        let p = ClusterSpec::puma();
        let e = ClusterSpec::edison();
        assert_ne!(p.threads_per_node, e.threads_per_node);
        assert!(p.edge_rate_per_thread > e.edge_rate_per_thread);
    }

    #[test]
    fn nonpower_of_two_rounds_up() {
        let m = AlphaBetaModel {
            alpha: 1.0,
            beta: 0.0,
        };
        // 5 ranks → ceil(log2 5) = 3 rounds.
        assert_eq!(m.allreduce_time(0, 5), 3.0);
    }
}
