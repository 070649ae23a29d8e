//! RRR-storage memory accounting.
//!
//! The paper instruments peak memory with Valgrind's Massif; the quantity
//! Table 2 actually compares is the footprint of the RRR-set storage, which
//! differs between the two layouts (hypergraph vs compact). We count those
//! bytes exactly from inside the library, which isolates the layout effect
//! from allocator and instrumentation noise (see DESIGN.md §1).

/// Byte counts of the data structures an IMM run keeps alive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Peak bytes of RRR-set storage (both directions for the hypergraph
    /// baseline, one direction for IMMOPT and the parallel versions; for a
    /// run that selects from the inverted index alone, the stage its
    /// samples wait in, and the store of its first round where its first
    /// pass, not its first 64 samples, decided so).
    pub peak_rrr_bytes: usize,
    /// Peak resident bytes of the selection inverted index (the store's
    /// [`ripples_diffusion::SampleIndex`]: per resident segment a
    /// `4·(n + 1)`-byte table plus 1–2 bytes per RRR entry, none for the
    /// segments a spill store's budget sent to disk); 0 for index-free
    /// selection.
    pub peak_index_bytes: usize,
    /// Bytes of the per-vertex counter array used in seed selection.
    pub counter_bytes: usize,
    /// Bytes of this process's share of the graph when the run ended: the
    /// whole graph for replicated engines, the rank's shard for the sharded
    /// one.
    pub graph_bytes: usize,
}

impl MemoryStats {
    /// Total of all tracked byte counts.
    #[must_use]
    pub fn total(&self) -> usize {
        self.peak_rrr_bytes + self.peak_index_bytes + self.counter_bytes + self.graph_bytes
    }

    /// Records a new RRR-storage observation, keeping the peak, mirrored in
    /// the live registry. When tracing is enabled, the sample also lands on
    /// the event timeline as an `rrr-bytes` counter track.
    pub fn observe_rrr(&mut self, bytes: usize) {
        self.peak_rrr_bytes = self.peak_rrr_bytes.max(bytes);
        crate::obs::trace::counter(crate::obs::trace::TraceName::RrrBytes, bytes as u64);
        crate::obs::metrics::set_max(crate::obs::metrics::Metric::RrrBytesPeak, bytes as u64);
    }

    /// Records a selection-index observation, keeping the peak, mirrored in
    /// the live registry.
    pub fn observe_index(&mut self, bytes: usize) {
        self.peak_index_bytes = self.peak_index_bytes.max(bytes);
        crate::obs::metrics::set_max(crate::obs::metrics::Metric::IndexBytesPeak, bytes as u64);
    }

    /// Formats a byte count as mebibytes (the paper's Table 2 unit).
    #[must_use]
    pub fn mib(bytes: usize) -> f64 {
        bytes as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_keeps_peak() {
        let mut m = MemoryStats::default();
        m.observe_rrr(100);
        m.observe_rrr(50);
        m.observe_rrr(200);
        m.observe_rrr(10);
        assert_eq!(m.peak_rrr_bytes, 200);
    }

    #[test]
    fn totals() {
        let m = MemoryStats {
            peak_rrr_bytes: 10,
            peak_index_bytes: 5,
            counter_bytes: 20,
            graph_bytes: 30,
        };
        assert_eq!(m.total(), 65);
    }

    #[test]
    fn observe_index_keeps_peak() {
        let mut m = MemoryStats::default();
        m.observe_index(40);
        m.observe_index(25);
        assert_eq!(m.peak_index_bytes, 40);
    }

    #[test]
    fn mib_conversion() {
        assert!((MemoryStats::mib(1024 * 1024) - 1.0).abs() < 1e-12);
        assert!((MemoryStats::mib(0)).abs() < 1e-12);
    }
}
