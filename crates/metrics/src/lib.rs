//! Lock-free live metrics for long IMM runs.
//!
//! `ripples-trace` (PR 2) answers *what happened* at event granularity and
//! [`RunReport`] answers *what happened* in aggregate — but both only after
//! the run finishes. This crate answers *what is happening right now*: a
//! process-global registry of preregistered counters and gauges, each one a
//! single `AtomicU64` cell, plus a background sampler thread that snapshots
//! the whole registry on a fixed cadence into an in-memory time series.
//!
//! The contract mirrors the tracer's:
//!
//! - **Disabled** (the default), every record call is one relaxed atomic
//!   load and a branch — cheap enough to leave instrumentation in the
//!   hottest sampling loops unconditionally.
//! - **Enabled**, a counter update is one relaxed `fetch_add` on a
//!   preregistered cell; there is no name lookup, no allocation, and no
//!   lock anywhere on the hot path. Gauges use plain `store` or
//!   `fetch_max` (for peak-tracking byte gauges).
//!
//! The catalog is a fixed enum ([`Metric`]) rather than a string-keyed map
//! for the same reason the tracer uses [`TraceName`]: hot paths index an
//! array, and the export layer owns the names.
//!
//! **Rank policy.** The in-process [`ThreadWorld`] runs every rank as a
//! thread of one process, so all ranks share this registry: counters are
//! *rank-reduced sums* (total samples across the world, total comm bytes
//! moved) and peak gauges are cross-rank maxima. A run at world size 1, 2,
//! or 4 therefore reports the same totals for the same work — the exported
//! series says so via `"rank_policy": "reduced"`.
//!
//! Exports:
//!
//! - [`TimeSeries::to_json`] — schema-versioned JSON
//!   (`ripples-metrics-v1`), one row per sampler tick.
//! - [`prometheus_text`] — Prometheus text exposition of one snapshot,
//!   the format a future serve mode's `/metrics` endpoint would return.
//!
//! [`RunReport`]: ../ripples_core/obs/struct.RunReport.html
//! [`TraceName`]: ../ripples_trace/enum.TraceName.html
//! [`ThreadWorld`]: ../ripples_comm/struct.ThreadWorld.html

mod sampler;

pub use sampler::{
    pulse, start_sampler, start_sampler_with_cap, ProgressFn, Sample, SamplerHandle, TimeSeries,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Schema tag written into every exported JSON time series.
pub const SCHEMA: &str = "ripples-metrics-v1";

/// Every metric the registry knows about. The discriminant is the cell
/// index; the export layer maps it to a stable snake_case name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    // --- gauges -----------------------------------------------------------
    /// Current engine phase (see [`phase`]).
    Phase = 0,
    /// Current martingale round (1-based; 0 outside estimation).
    Round,
    /// RRR samples the current phase is working towards (round budget
    /// during estimation, final θ during the top-up).
    ThetaTarget,
    /// Live RRR storage footprint, bytes (peak across ranks).
    RrrBytes,
    /// Live inverted-index footprint, bytes (peak across ranks).
    IndexBytes,
    /// Live per-worker arena footprint, bytes (peak across ranks).
    ArenaBytes,
    /// Live fused-lane mask footprint, bytes (peak across ranks).
    MaskBytes,
    /// Ranks the comm layer has declared dead so far.
    DegradedRanks,
    /// Resident sketch footprint of the serve mode, bytes.
    SketchBytes,
    /// p50 query latency of the serve mode, nanoseconds (power-of-two
    /// histogram upper bound).
    QueryP50Nanos,
    /// p99 query latency of the serve mode, nanoseconds (power-of-two
    /// histogram upper bound).
    QueryP99Nanos,
    /// Per-rank resident graph footprint, bytes (peak across ranks; the
    /// replicated engines report the full graph, the sharded engine its
    /// vertex-cut shard).
    GraphBytes,
    // --- counters ---------------------------------------------------------
    /// RRR sets generated (world total).
    SamplesGenerated,
    /// Edges examined while growing RRR sets (world total).
    EdgesExamined,
    /// Greedy selection steps taken (one per committed seed).
    SelectSteps,
    /// RRR-index entries touched during selection.
    SelectEntriesTouched,
    /// Seeds committed by the selector.
    SeedsSelected,
    /// Fused-kernel CSR passes completed.
    FusedPasses,
    /// Collective operations issued (world total).
    CommOps,
    /// Payload bytes moved by collectives (world total).
    CommBytes,
    /// Comm attempts retried after injected faults.
    CommRetries,
    /// Comm ops dropped by fault injection.
    CommDroppedOps,
    /// Queries answered by the resident serve mode.
    QueriesServed,
    /// Batched frontier exchanges completed by the graph-sharded engine.
    FrontierExchanges,
}

/// Metric kinds, mirroring the Prometheus data model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing while enabled; exported with a `_total`
    /// suffix.
    Counter,
    /// Point-in-time level (phase ids, live byte footprints).
    Gauge,
}

impl Metric {
    /// Number of registered metrics (cells in the registry).
    pub const COUNT: usize = 24;

    /// Every metric, in cell order — the column order of exported series.
    pub const ALL: [Metric; Self::COUNT] = [
        Metric::Phase,
        Metric::Round,
        Metric::ThetaTarget,
        Metric::RrrBytes,
        Metric::IndexBytes,
        Metric::ArenaBytes,
        Metric::MaskBytes,
        Metric::DegradedRanks,
        Metric::SketchBytes,
        Metric::QueryP50Nanos,
        Metric::QueryP99Nanos,
        Metric::GraphBytes,
        Metric::SamplesGenerated,
        Metric::EdgesExamined,
        Metric::SelectSteps,
        Metric::SelectEntriesTouched,
        Metric::SeedsSelected,
        Metric::FusedPasses,
        Metric::CommOps,
        Metric::CommBytes,
        Metric::CommRetries,
        Metric::CommDroppedOps,
        Metric::QueriesServed,
        Metric::FrontierExchanges,
    ];

    /// Stable export name (snake_case, no namespace prefix).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::Phase => "phase",
            Metric::Round => "round",
            Metric::ThetaTarget => "theta_target",
            Metric::RrrBytes => "rrr_bytes",
            Metric::IndexBytes => "index_bytes",
            Metric::ArenaBytes => "arena_bytes",
            Metric::MaskBytes => "mask_bytes",
            Metric::DegradedRanks => "degraded_ranks",
            Metric::SketchBytes => "sketch_bytes",
            Metric::QueryP50Nanos => "query_p50_nanos",
            Metric::QueryP99Nanos => "query_p99_nanos",
            Metric::GraphBytes => "graph_bytes",
            Metric::SamplesGenerated => "samples_generated",
            Metric::EdgesExamined => "edges_examined",
            Metric::SelectSteps => "select_steps",
            Metric::SelectEntriesTouched => "select_entries_touched",
            Metric::SeedsSelected => "seeds_selected",
            Metric::FusedPasses => "fused_passes",
            Metric::CommOps => "comm_ops",
            Metric::CommBytes => "comm_bytes",
            Metric::CommRetries => "comm_retries",
            Metric::CommDroppedOps => "comm_dropped_ops",
            Metric::QueriesServed => "queries_served",
            Metric::FrontierExchanges => "frontier_exchanges",
        }
    }

    /// Counter or gauge.
    #[must_use]
    pub fn kind(self) -> Kind {
        match self {
            Metric::Phase
            | Metric::Round
            | Metric::ThetaTarget
            | Metric::RrrBytes
            | Metric::IndexBytes
            | Metric::ArenaBytes
            | Metric::MaskBytes
            | Metric::DegradedRanks
            | Metric::SketchBytes
            | Metric::QueryP50Nanos
            | Metric::QueryP99Nanos
            | Metric::GraphBytes => Kind::Gauge,
            _ => Kind::Counter,
        }
    }

    /// One-line help string for the Prometheus exposition.
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            Metric::Phase => {
                "Current engine phase (0 idle, 1 estimate-theta, 2 sample, 3 select, 4 simulate)"
            }
            Metric::Round => "Current martingale estimation round (1-based, 0 outside estimation)",
            Metric::ThetaTarget => "RRR samples the current phase is working towards",
            Metric::RrrBytes => "Live RRR storage footprint in bytes (peak across ranks)",
            Metric::IndexBytes => "Live inverted-index footprint in bytes (peak across ranks)",
            Metric::ArenaBytes => "Live per-worker arena footprint in bytes (peak across ranks)",
            Metric::MaskBytes => "Live fused-lane mask footprint in bytes (peak across ranks)",
            Metric::DegradedRanks => "Ranks declared dead by the comm layer",
            Metric::SketchBytes => "Resident sketch footprint held by the serve mode in bytes",
            Metric::QueryP50Nanos => "Median serve-query latency in nanoseconds",
            Metric::QueryP99Nanos => "99th-percentile serve-query latency in nanoseconds",
            Metric::GraphBytes => "Per-rank resident graph footprint in bytes (peak across ranks)",
            Metric::SamplesGenerated => "RRR sets generated across all ranks",
            Metric::EdgesExamined => "Edges examined while growing RRR sets",
            Metric::SelectSteps => "Greedy selection steps (one per committed seed)",
            Metric::SelectEntriesTouched => "RRR-index entries touched during selection",
            Metric::SeedsSelected => "Seeds committed by the selector",
            Metric::FusedPasses => "Fused-kernel CSR passes completed",
            Metric::CommOps => "Collective operations issued across all ranks",
            Metric::CommBytes => "Payload bytes moved by collectives",
            Metric::CommRetries => "Communication attempts retried after faults",
            Metric::CommDroppedOps => "Communication operations dropped by fault injection",
            Metric::QueriesServed => "Queries answered by the resident serve mode",
            Metric::FrontierExchanges => "Batched frontier exchanges by the graph-sharded engine",
        }
    }
}

/// Engine-phase gauge values, the domain of [`Metric::Phase`].
pub mod phase {
    /// No engine running (or between phases).
    pub const IDLE: u64 = 0;
    /// Martingale θ-estimation rounds.
    pub const ESTIMATE_THETA: u64 = 1;
    /// RRR sampling (estimation batches and the final top-up).
    pub const SAMPLE: u64 = 2;
    /// Greedy seed selection.
    pub const SELECT: u64 = 3;
    /// Monte-Carlo influence simulation.
    pub const SIMULATE: u64 = 4;

    /// Human-readable phase name for progress lines and docs.
    #[must_use]
    pub fn name(v: u64) -> &'static str {
        match v {
            ESTIMATE_THETA => "estimate-theta",
            SAMPLE => "sample",
            SELECT => "select",
            SIMULATE => "simulate",
            _ => "idle",
        }
    }
}

/// Histogram bucket count: bucket `i` holds observations whose value needs
/// `i` significant bits (`0 → 0`, `i → (2^(i-1), 2^i]`), bucket 32 is the
/// overflow — the same power-of-two layout as the `RunReport` histogram so
/// the two are comparable.
pub const HIST_BUCKETS: usize = 33;

// Registry storage. `const` item so the array initializer is allowed.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);
static CELLS: [AtomicU64; Metric::COUNT] = [ZERO; Metric::COUNT];
static HIST: [AtomicU64; HIST_BUCKETS] = [ZERO; HIST_BUCKETS];
static HIST_COUNT: AtomicU64 = AtomicU64::new(0);
static HIST_SUM: AtomicU64 = AtomicU64::new(0);
/// Wall-clock origin of the current session; cold path only (enable and
/// snapshot), so a mutex is fine.
static START: Mutex<Option<Instant>> = Mutex::new(None);

/// Whether the registry is recording. One relaxed load — callers branch on
/// this before doing any work, so disabled instrumentation costs a load
/// and a predictable branch.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every cell and starts recording. Call before the run; the
/// sampler timestamps ticks relative to this instant.
pub fn enable() {
    // Zero first, then flip the flag, so concurrent writers never see a
    // half-reset registry recorded as live data.
    for cell in &CELLS {
        cell.store(0, Ordering::Relaxed);
    }
    for bucket in &HIST {
        bucket.store(0, Ordering::Relaxed);
    }
    HIST_COUNT.store(0, Ordering::Relaxed);
    HIST_SUM.store(0, Ordering::Relaxed);
    *START.lock().expect("metrics start lock poisoned") = Some(Instant::now());
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording. Cells keep their final values for a last snapshot.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Adds `v` to a counter. No-op while disabled.
#[inline]
pub fn add(metric: Metric, v: u64) {
    if !enabled() {
        return;
    }
    CELLS[metric as usize].fetch_add(v, Ordering::Relaxed);
}

/// Sets a gauge to `v`. No-op while disabled.
#[inline]
pub fn set(metric: Metric, v: u64) {
    if !enabled() {
        return;
    }
    CELLS[metric as usize].store(v, Ordering::Relaxed);
}

/// Raises a gauge to at least `v` (peak tracking). No-op while disabled.
#[inline]
pub fn set_max(metric: Metric, v: u64) {
    if !enabled() {
        return;
    }
    CELLS[metric as usize].fetch_max(v, Ordering::Relaxed);
}

/// Current value of a cell (live, relaxed). Reads are allowed while
/// disabled so a final export can still see the last session's values.
#[must_use]
pub fn get(metric: Metric) -> u64 {
    CELLS[metric as usize].load(Ordering::Relaxed)
}

/// Records one RRR-set size into the power-of-two histogram. No-op while
/// disabled.
#[inline]
pub fn observe_rrr_size(len: u64) {
    if !enabled() {
        return;
    }
    let bucket = if len == 0 {
        0
    } else {
        (64 - u64::leading_zeros(len) as usize).min(HIST_BUCKETS - 1)
    };
    HIST[bucket].fetch_add(1, Ordering::Relaxed);
    HIST_COUNT.fetch_add(1, Ordering::Relaxed);
    HIST_SUM.fetch_add(len, Ordering::Relaxed);
}

/// Milliseconds since [`enable`] (0 if never enabled).
#[must_use]
pub fn elapsed_ms() -> u64 {
    START
        .lock()
        .expect("metrics start lock poisoned")
        .map_or(0, |t| t.elapsed().as_millis() as u64)
}

/// Reads every cell into one consistent-enough snapshot (relaxed reads —
/// a snapshot may interleave with concurrent updates, which is fine for
/// telemetry).
#[must_use]
pub fn snapshot() -> Sample {
    let mut values = [0u64; Metric::COUNT];
    for (slot, cell) in values.iter_mut().zip(CELLS.iter()) {
        *slot = cell.load(Ordering::Relaxed);
    }
    let mut hist = [0u64; HIST_BUCKETS];
    for (slot, bucket) in hist.iter_mut().zip(HIST.iter()) {
        *slot = bucket.load(Ordering::Relaxed);
    }
    Sample {
        t_ms: elapsed_ms(),
        values,
        hist,
        hist_count: HIST_COUNT.load(Ordering::Relaxed),
        hist_sum: HIST_SUM.load(Ordering::Relaxed),
    }
}

/// Prometheus text exposition (version 0.0.4) of one snapshot. Counters
/// get the conventional `_total` suffix, the RRR-size histogram becomes a
/// cumulative `le`-bucketed histogram, and everything is namespaced
/// `ripples_`.
#[must_use]
pub fn prometheus_text(sample: &Sample) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    for metric in Metric::ALL {
        let suffix = match metric.kind() {
            Kind::Counter => "_total",
            Kind::Gauge => "",
        };
        let name = metric.name();
        let kind = match metric.kind() {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        };
        let _ = writeln!(out, "# HELP ripples_{name}{suffix} {}", metric.help());
        let _ = writeln!(out, "# TYPE ripples_{name}{suffix} {kind}");
        let _ = writeln!(
            out,
            "ripples_{name}{suffix} {}",
            sample.values[metric as usize]
        );
    }
    let _ = writeln!(
        out,
        "# HELP ripples_rrr_size Size distribution of generated RRR sets"
    );
    let _ = writeln!(out, "# TYPE ripples_rrr_size histogram");
    let mut cumulative = 0u64;
    for (i, count) in sample.hist.iter().enumerate() {
        cumulative += count;
        if i + 1 < HIST_BUCKETS {
            // Bucket i covers sizes <= 2^i - except bucket 0, which is
            // exactly 0 ... 1; the le bound 2^i is still cumulative-true.
            let le = 1u64 << i;
            let _ = writeln!(out, "ripples_rrr_size_bucket{{le=\"{le}\"}} {cumulative}");
        }
    }
    let _ = writeln!(
        out,
        "ripples_rrr_size_bucket{{le=\"+Inf\"}} {}",
        sample.hist_count
    );
    let _ = writeln!(out, "ripples_rrr_size_sum {}", sample.hist_sum);
    let _ = writeln!(out, "ripples_rrr_size_count {}", sample.hist_count);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The registry is process-global, so tests that enable/disable it
    /// must not interleave.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_is_silent() {
        let _g = lock();
        disable();
        let before = get(Metric::SamplesGenerated);
        add(Metric::SamplesGenerated, 17);
        set(Metric::Phase, 3);
        set_max(Metric::RrrBytes, 1 << 30);
        observe_rrr_size(8);
        assert_eq!(get(Metric::SamplesGenerated), before);
    }

    #[test]
    fn enable_resets_and_records() {
        let _g = lock();
        enable();
        assert_eq!(get(Metric::SamplesGenerated), 0);
        add(Metric::SamplesGenerated, 3);
        set(Metric::Phase, phase::SAMPLE);
        set_max(Metric::RrrBytes, 100);
        set_max(Metric::RrrBytes, 50);
        observe_rrr_size(5);
        observe_rrr_size(0);
        let s = snapshot();
        assert_eq!(s.values[Metric::SamplesGenerated as usize], 3);
        assert_eq!(s.values[Metric::Phase as usize], phase::SAMPLE);
        assert_eq!(s.values[Metric::RrrBytes as usize], 100);
        assert_eq!(s.hist_count, 2);
        assert_eq!(s.hist_sum, 5);
        assert_eq!(s.hist[0], 1); // the 0-size observation
        assert_eq!(s.hist[3], 1); // 5 needs 3 bits -> bucket 3
        disable();
    }

    #[test]
    fn catalog_is_consistent() {
        for (i, metric) in Metric::ALL.iter().enumerate() {
            assert_eq!(*metric as usize, i, "ALL order must match discriminants");
        }
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::COUNT, "metric names must be unique");
    }

    #[test]
    fn prometheus_shape() {
        let _g = lock();
        enable();
        add(Metric::CommBytes, 1024);
        observe_rrr_size(7);
        let text = prometheus_text(&snapshot());
        disable();
        assert!(text.contains("# TYPE ripples_comm_bytes_total counter"));
        assert!(text.contains("ripples_comm_bytes_total 1024"));
        assert!(text.contains("# TYPE ripples_phase gauge"));
        assert!(text.contains("ripples_rrr_size_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("ripples_rrr_size_sum 7"));
    }
}
