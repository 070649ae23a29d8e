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
//!   load and a branch, so record sites call it unconditionally. A site is
//!   where the run report records the same quantity (see `catalog.rs`), or
//!   for a live-only row the one place it changes; never a sampling kernel.
//! - **Enabled**, a counter update is one relaxed `fetch_add` on a
//!   preregistered cell; there is no name lookup, no allocation, and no
//!   lock anywhere on the hot path. Gauges use plain `store` or
//!   `fetch_max` (for peak-tracking byte gauges).
//!
//! The catalog is a fixed enum ([`Metric`]) rather than a string-keyed map
//! for the same reason the tracer uses [`TraceName`]: hot paths index an
//! array, and the export layer owns the names. It is declared once, in
//! `catalog.rs`, together with the run report's [`Counters`]: a live metric
//! that mirrors a report counter *is* that counter's row, so the two carry
//! one name. [`Histogram`] lives beside it so the registry's atomic RRR-size
//! histogram, the report and the serve mode's latencies share one bucket
//! layout.
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
//!   (`ripples-metrics-v2`), one row per sampler tick.
//! - [`prometheus_text`] — Prometheus text exposition of one snapshot,
//!   the format a future serve mode's `/metrics` endpoint would return.
//!
//! [`RunReport`]: ../ripples_core/obs/struct.RunReport.html
//! [`TraceName`]: ../ripples_trace/enum.TraceName.html
//! [`ThreadWorld`]: ../ripples_comm/struct.ThreadWorld.html

mod catalog;
mod histogram;
mod sampler;

pub use catalog::{Counters, Kind, Metric, Reduce, Row};
pub use histogram::{Histogram, HIST_BUCKETS};
pub use sampler::{
    pulse, start_sampler, start_sampler_with_cap, ProgressFn, Sample, SamplerHandle, TimeSeries,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Schema tag written into every exported JSON time series.
pub const SCHEMA: &str = "ripples-metrics-v2";

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

thread_local! {
    /// Set while this thread runs [`muted`].
    static MUTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether this thread's records reach the registry: it is enabled, and the
/// thread is not inside [`muted`].
#[inline]
fn recording() -> bool {
    enabled() && !MUTED.with(std::cell::Cell::get)
}

/// Runs `f` with this thread's counter adds and RRR-size observations left
/// out of the registry, for work that repeats work the registry already
/// counted: samples an index-only run draws again to rebuild its index are
/// the samples it counted when it first drew them.
pub fn muted<R>(f: impl FnOnce() -> R) -> R {
    struct Unmute(bool);
    impl Drop for Unmute {
        fn drop(&mut self) {
            MUTED.with(|m| m.set(self.0));
        }
    }
    let _unmute = Unmute(MUTED.with(|m| m.replace(true)));
    f()
}

/// Adds `v` to a counter. No-op while disabled or [`muted`].
#[inline]
pub fn add(metric: Metric, v: u64) {
    if !recording() {
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
/// disabled or [`muted`].
#[inline]
pub fn observe_rrr_size(len: u64) {
    if !recording() {
        return;
    }
    HIST[Histogram::bucket_of(len)].fetch_add(1, Ordering::Relaxed);
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

/// Prometheus text exposition (version 0.0.4) of one snapshot: every live
/// catalog row (counters with the conventional `_total` suffix), then the
/// RRR-size histogram as a cumulative `le`-bucketed histogram — bucket `i`
/// holds `[2^(i-1), 2^i)`, so its inclusive bound is `2^i − 1`. Everything
/// is namespaced `ripples_`.
#[must_use]
pub fn prometheus_text(sample: &Sample) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    for metric in Metric::live() {
        let name = metric.name();
        let Row { kind, help, .. } = metric.row();
        let suffix = match kind {
            Kind::Counter => "_total",
            Kind::Peak | Kind::Level => "",
        };
        let _ = writeln!(out, "# HELP ripples_{name}{suffix} {help}");
        let _ = writeln!(out, "# TYPE ripples_{name}{suffix} {}", kind.exposition());
        let _ = writeln!(out, "ripples_{name}{suffix} {}", sample.value(metric));
    }
    let _ = writeln!(
        out,
        "# HELP ripples_rrr_size Size distribution of generated RRR sets"
    );
    let _ = writeln!(out, "# TYPE ripples_rrr_size histogram");
    let mut cumulative = 0u64;
    for (i, count) in sample.hist[..HIST_BUCKETS - 1].iter().enumerate() {
        cumulative += count;
        let le = Histogram::bucket_bounds(i).1 - 1;
        let _ = writeln!(out, "ripples_rrr_size_bucket{{le=\"{le}\"}} {cumulative}");
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

    /// The registry is process-global, so tests that enable/disable it —
    /// here and in the sampler's tests — must not interleave.
    pub(crate) fn lock() -> MutexGuard<'static, ()> {
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
        set_max(Metric::RrrBytesPeak, 1 << 30);
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
        set_max(Metric::RrrBytesPeak, 100);
        set_max(Metric::RrrBytesPeak, 50);
        observe_rrr_size(5);
        observe_rrr_size(0);
        let s = snapshot();
        assert_eq!(s.values[Metric::SamplesGenerated as usize], 3);
        assert_eq!(s.values[Metric::Phase as usize], phase::SAMPLE);
        assert_eq!(s.values[Metric::RrrBytesPeak as usize], 100);
        assert_eq!(s.hist_count, 2);
        assert_eq!(s.hist_sum, 5);
        assert_eq!(s.hist[0], 1); // the 0-size observation
        assert_eq!(s.hist[3], 1); // 5 needs 3 bits -> bucket 3
        disable();
    }

    #[test]
    fn muted_work_stays_out_of_the_registry_on_its_thread_only() {
        let _g = lock();
        enable();
        add(Metric::EdgesExamined, 5);
        let inner = muted(|| {
            add(Metric::EdgesExamined, 100);
            observe_rrr_size(9);
            // Another thread records as usual.
            std::thread::scope(|s| s.spawn(|| add(Metric::EdgesExamined, 1)).join())
                .expect("the recording thread");
            7
        });
        add(Metric::EdgesExamined, 10);
        let s = snapshot();
        disable();
        assert_eq!(inner, 7);
        assert_eq!(s.values[Metric::EdgesExamined as usize], 16);
        assert_eq!(s.hist_count, 0);
    }

    #[test]
    fn prometheus_shape() {
        let _g = lock();
        enable();
        add(Metric::CommBytes, 1024);
        for len in [0, 1, 2, 4] {
            observe_rrr_size(len);
        }
        let text = prometheus_text(&snapshot());
        disable();
        assert!(text.contains("# TYPE ripples_comm_bytes_total counter"));
        assert!(text.contains("ripples_comm_bytes_total 1024"));
        assert!(text.contains("# TYPE ripples_phase gauge"));
        // `le` is inclusive: bucket `[2^(i-1), 2^i)` ends at `2^i − 1`, so a
        // size-1 set counts under `le="1"` and the exact power of two 2
        // under `le="3"`, not one bucket late.
        assert!(text.contains("ripples_rrr_size_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("ripples_rrr_size_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("ripples_rrr_size_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("ripples_rrr_size_bucket{le=\"7\"} 4\n"));
        assert!(text.contains("ripples_rrr_size_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("ripples_rrr_size_sum 7"));
    }
}
