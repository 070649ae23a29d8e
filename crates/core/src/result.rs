//! The result record every IMM implementation returns.

use crate::memory::MemoryStats;
use crate::obs::RunReport;
use ripples_graph::Vertex;

/// Everything an IMM run reports.
#[derive(Clone, Debug)]
pub struct ImmResult {
    /// The selected seed set, in selection order.
    pub seeds: Vec<Vertex>,
    /// The final number of RRR samples `θ`.
    pub theta: usize,
    /// Coverage fraction `F_R(S)` of the final selection.
    pub coverage_fraction: f64,
    /// The lower bound on OPT established by estimation (`LB`), if any
    /// round certified one.
    pub opt_lower_bound: Option<f64>,
    /// Memory accounting.
    pub memory: MemoryStats,
    /// Full observability record: phase spans, work counters, histograms,
    /// and (for distributed engines) communication accounting; its
    /// [`RunReport::phase_timers`] is the wall-clock per phase.
    pub report: RunReport,
}

impl ImmResult {
    /// `n·F_R(S)`-style influence estimate implied by coverage: the unbiased
    /// estimator of E[|I(S)|] from the RRR samples themselves.
    #[must_use]
    pub fn coverage_influence_estimate(&self, n: u32) -> f64 {
        self.coverage_fraction * f64::from(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn influence_estimate_scales_with_n() {
        let r = ImmResult {
            seeds: vec![1, 2],
            theta: 100,
            coverage_fraction: 0.25,
            opt_lower_bound: None,
            memory: MemoryStats::default(),
            report: RunReport::new("test"),
        };
        assert!((r.coverage_influence_estimate(400) - 100.0).abs() < 1e-12);
    }
}
