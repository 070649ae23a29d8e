//! The run-report observability layer.
//!
//! Every IMM entry point returns a [`RunReport`] describing *what the run
//! did*, not just how long it took: a hierarchical tree of phase spans
//! (EstimateTheta rounds, sample batches, seed selection), monotonic
//! counters (samples generated, in-edges examined, RRR entries, θ-round
//! budgets vs. achieved coverage), and small fixed-bucket histograms (RRR
//! set sizes, per-worker sample counts for load-balance skew). The
//! distributed engines additionally attach the communicator's collective
//! call/byte accounting over the run as a [`CommStats`] delta.
//!
//! [`Counters`], [`Histogram`] and [`Metric`] are declared in
//! `ripples-metrics`, beside the catalog every counter is a row of; this
//! module's exporters loop over that table rather than naming a counter.
//! Spans are opened with a typed [`SpanKind`], which is also where the live
//! phase gauges and the trace event of a span come from.
//!
//! Exporters are dependency-free: [`RunReport::to_json`] emits a single
//! machine-readable JSON object, [`RunReport::render_pretty`] an indented
//! human-readable text block. The `ripples` CLI exposes both behind
//! `--report pretty|json` (`text` is accepted as an alias for `pretty`).
//!
//! Aggregates answer *how much*; the [`trace`] submodule answers *when and
//! where*: when tracing is enabled (CLI `--trace <file>`), every span exit,
//! sampler chunk, selection step, and collective also lands on a per-worker
//! event timeline attached to the report as [`RunReport::trace`].

pub mod metrics;
pub mod trace;

pub use ripples_metrics::{Counters, Histogram, Metric};

use crate::phases::{Phase, PhaseTimers};
use metrics::phase;
use ripples_comm::CommStats;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::TraceName;

/// One finished span of the phase tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Span label (e.g. `"EstimateTheta"`, `"round-3"`, `"sample"`).
    pub name: String,
    /// Wall-clock nanoseconds spent inside the span (children included).
    pub nanos: u128,
    /// Nested spans in execution order.
    pub children: Vec<SpanNode>,
}

/// What a [`RunReport`] span is: the one place a span's label, its live
/// phase-gauge value, its trace catalog entry and its [`Phase`] of the
/// paper's flat decomposition are tied together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One of the paper's top-level phases, labelled by [`Phase::label`].
    Phase(Phase),
    /// Martingale estimation round `x` (1-based), labelled `round-x`.
    Round(u32),
    /// A sampling batch inside an estimation round (`sample`).
    Sample,
    /// A greedy selection pass inside an estimation round (`select`).
    Select,
    /// Anything else, under its own label.
    Other(&'static str),
}

impl From<Phase> for SpanKind {
    fn from(phase: Phase) -> Self {
        SpanKind::Phase(phase)
    }
}

impl SpanKind {
    /// The span's name in the report tree.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            SpanKind::Phase(p) => p.label().to_string(),
            SpanKind::Round(x) => format!("round-{x}"),
            SpanKind::Sample => "sample".to_string(),
            SpanKind::Select => "select".to_string(),
            SpanKind::Other(label) => label.to_string(),
        }
    }

    /// The [`Metric::Phase`] gauge value while this span is the innermost
    /// open one that has any (rounds refine `ESTIMATE_THETA` through
    /// [`Metric::Round`] instead).
    fn gauge(self) -> Option<u64> {
        match self {
            SpanKind::Phase(Phase::EstimateTheta) => Some(phase::ESTIMATE_THETA),
            SpanKind::Phase(Phase::Sample) | SpanKind::Sample => Some(phase::SAMPLE),
            SpanKind::Phase(Phase::SelectSeeds) | SpanKind::Select => Some(phase::SELECT),
            SpanKind::Phase(Phase::Other) | SpanKind::Round(_) | SpanKind::Other(_) => None,
        }
    }

    /// The trace catalog entry of this span's completion event.
    fn trace_name(self) -> TraceName {
        match self {
            SpanKind::Phase(Phase::EstimateTheta) => TraceName::EstimateTheta,
            SpanKind::Phase(Phase::Sample) | SpanKind::Sample => TraceName::SampleBatch,
            SpanKind::Phase(Phase::SelectSeeds) => TraceName::SelectSeeds,
            SpanKind::Select => TraceName::Select,
            SpanKind::Round(_) => TraceName::Round,
            SpanKind::Phase(Phase::Other) | SpanKind::Other(_) => TraceName::Generic,
        }
    }

    /// The round index of a [`SpanKind::Round`]: the [`Metric::Round`] gauge
    /// value and the `arg0` of its trace event.
    fn round(self) -> Option<u64> {
        match self {
            SpanKind::Round(x) => Some(u64::from(x)),
            _ => None,
        }
    }
}

/// A span that has been entered but not yet exited.
#[derive(Clone, Debug)]
struct OpenSpan {
    kind: SpanKind,
    start: Instant,
    children: Vec<SpanNode>,
}

/// The full observability record of one IMM run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Engine tag (`"immopt"`, `"baseline"`, `"mt"`, `"dist"`,
    /// `"sharded"`, …).
    pub engine: String,
    /// Monotonic work counters.
    pub counters: Counters,
    /// Distribution of RRR set sizes (vertex entries per sample).
    pub rrr_sizes: Histogram,
    /// Distribution of per-worker sample counts — the load-balance skew of
    /// the sampling phase. Workers are threads (chunk owners) for the
    /// shared-memory engines and this rank's batches for the distributed
    /// ones.
    pub thread_samples: Histogram,
    /// Distribution of active lanes per fused frontier expansion — how full
    /// the fused sampler's cascade word stays as cascades die out. Empty
    /// for the reference sampler.
    pub lanes_active: Histogram,
    /// Communication accounting; `None` for the shared-memory engines.
    pub comm: Option<CommStats>,
    /// The merged event timeline, when the run executed with tracing
    /// enabled ([`trace::start`]); `None` otherwise. Its
    /// [`trace::Trace::dropped`] counter reports events lost to full ring
    /// buffers, so truncated traces are never silent.
    pub trace: Option<trace::Trace>,
    spans: Vec<SpanNode>,
    open: Vec<OpenSpan>,
    /// Top-level span time by [`Phase`], accumulated as spans close.
    timers: PhaseTimers,
}

impl RunReport {
    /// Creates an empty report for `engine`.
    #[must_use]
    pub fn new(engine: &str) -> Self {
        Self {
            engine: engine.to_string(),
            counters: Counters::default(),
            rrr_sizes: Histogram::new(),
            thread_samples: Histogram::new(),
            lanes_active: Histogram::new(),
            comm: None,
            trace: None,
            spans: Vec::new(),
            open: Vec::new(),
            timers: PhaseTimers::new(),
        }
    }

    /// Opens a span of `kind`; pair with [`RunReport::exit`]. Prefer
    /// [`RunReport::span`], which cannot be left unbalanced.
    pub fn enter(&mut self, kind: impl Into<SpanKind>) {
        self.open.push(OpenSpan {
            kind: kind.into(),
            start: Instant::now(),
            children: Vec::new(),
        });
        self.publish_gauges();
    }

    /// Closes the innermost open span, attaching it to its parent (or to
    /// the root list). A stray `exit` with no open span is a no-op.
    pub fn exit(&mut self) {
        let Some(open) = self.open.pop() else { return };
        if trace::enabled() {
            let round = open.kind.round().unwrap_or(0);
            trace::complete(open.kind.trace_name(), open.start, round, 0);
        }
        self.publish_gauges();
        let node = SpanNode {
            name: open.kind.label(),
            nanos: open.start.elapsed().as_nanos(),
            children: open.children,
        };
        match self.open.last_mut() {
            Some(parent) => parent.children.push(node),
            None => {
                let phase = match open.kind {
                    SpanKind::Phase(phase) => phase,
                    _ => Phase::Other,
                };
                self.timers.add(phase, nanos_to_duration(node.nanos));
                self.spans.push(node);
            }
        }
    }

    /// Sets the live phase and round gauges from the open spans — the
    /// innermost one that implies a value wins, none means idle — and pulses
    /// the sampler so the boundary lands a snapshot even at coarse cadences.
    fn publish_gauges(&self) {
        if !metrics::enabled() {
            return;
        }
        let open = || self.open.iter().rev().map(|o| o.kind);
        let phase_now = open().find_map(SpanKind::gauge);
        let round_now = open().find_map(SpanKind::round);
        metrics::set(Metric::Phase, phase_now.unwrap_or(phase::IDLE));
        metrics::set(Metric::Round, round_now.unwrap_or(0));
        metrics::pulse();
    }

    /// Runs `f` inside a span of `kind`, timing it.
    pub fn span<T>(&mut self, kind: impl Into<SpanKind>, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(kind);
        let out = f(self);
        self.exit();
        out
    }

    /// The finished top-level spans in execution order.
    #[must_use]
    pub fn spans(&self) -> &[SpanNode] {
        &self.spans
    }

    /// The paper's flat four-phase timer view of the span tree: a finished
    /// top-level [`SpanKind::Phase`] span counts towards its phase,
    /// every other top-level span towards [`Phase::Other`].
    #[must_use]
    pub fn phase_timers(&self) -> PhaseTimers {
        self.timers
    }

    /// Serializes the report as one JSON object (no external dependencies;
    /// spans still open at export time are ignored).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        let _ = write!(out, "\"engine\":{}", json_string(&self.engine));
        out.push_str(",\"counters\":{");
        let c = &self.counters;
        for (metric, value) in c.rows() {
            let _ = write!(out, "\"{}\":{value},", metric.name());
        }
        out.push_str("\"round_budgets\":[");
        for (i, b) in c.round_budgets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("],\"round_coverage\":[");
        for (i, f) in c.round_coverage.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", json_f64(*f));
        }
        out.push_str("]}");
        out.push_str(",\"rrr_sizes\":");
        json_histogram(&mut out, &self.rrr_sizes);
        out.push_str(",\"thread_samples\":");
        json_histogram(&mut out, &self.thread_samples);
        out.push_str(",\"lanes_active\":");
        json_histogram(&mut out, &self.lanes_active);
        out.push_str(",\"comm\":");
        match &self.comm {
            None => out.push_str("null"),
            Some(cc) => {
                let _ = write!(
                    out,
                    "{{\"allreduce_calls\":{},\"allgather_calls\":{},\
                     \"exchange_calls\":{},\"bytes_moved\":{}}}",
                    cc.allreduce_calls, cc.allgather_calls, cc.exchange_calls, cc.bytes_moved
                );
            }
        }
        out.push_str(",\"trace\":");
        match &self.trace {
            None => out.push_str("null"),
            Some(t) => {
                let _ = write!(
                    out,
                    "{{\"events\":{},\"dropped\":{},\"dropped_by_worker\":[",
                    t.len(),
                    t.dropped
                );
                for (i, d) in t.dropped_by_worker.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}{{\"rank\":{},\"tid\":{},\"dropped\":{}}}",
                        if i == 0 { "" } else { "," },
                        d.rank,
                        d.tid,
                        d.dropped
                    );
                }
                out.push_str("]}");
            }
        }
        out.push_str(",\"spans\":");
        json_spans(&mut out, &self.spans);
        out.push('}');
        out
    }

    /// Renders the report as indented human-readable text.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "run report — engine {}", self.engine);
        out.push_str("spans:\n");
        for span in &self.spans {
            pretty_span(&mut out, span, 1);
        }
        let c = &self.counters;
        out.push_str("counters:\n");
        for (metric, value) in c.rows() {
            let unit = metric.row().unit;
            let gap = if unit.is_empty() { "" } else { " " };
            let _ = writeln!(out, "  {:<23} {value}{gap}{unit}", metric.name());
        }
        for (i, (b, f)) in c.round_budgets.iter().zip(&c.round_coverage).enumerate() {
            let _ = writeln!(
                out,
                "  round {:>2}: budget {:>10}  coverage {:.4}",
                i + 1,
                b,
                f
            );
        }
        out.push_str("rrr set sizes:\n");
        pretty_histogram(&mut out, &self.rrr_sizes);
        out.push_str("per-worker samples:\n");
        pretty_histogram(&mut out, &self.thread_samples);
        if self.lanes_active.count() > 0 {
            out.push_str("fused lanes active:\n");
            pretty_histogram(&mut out, &self.lanes_active);
        }
        if let Some(cc) = &self.comm {
            out.push_str("comm:\n");
            let _ = writeln!(
                out,
                "  allreduce {}  allgather {}  exchange {}  bytes {}",
                cc.allreduce_calls, cc.allgather_calls, cc.exchange_calls, cc.bytes_moved
            );
        }
        if let Some(t) = &self.trace {
            let _ = writeln!(out, "trace:\n  events {}  dropped {}", t.len(), t.dropped);
            for d in &t.dropped_by_worker {
                let _ = writeln!(
                    out,
                    "    rank {} worker {} dropped {}",
                    d.rank, d.tid, d.dropped
                );
            }
        }
        out
    }
}

fn nanos_to_duration(nanos: u128) -> Duration {
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON-legal number (non-finite values become 0).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn json_histogram(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\"buckets\":[",
        h.count(),
        h.sum(),
        h.max(),
        json_f64(h.mean())
    );
    let mut first = true;
    for (i, &n) in h.buckets().iter().enumerate() {
        if n == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let (lo, hi) = Histogram::bucket_bounds(i);
        let _ = write!(out, "{{\"lo\":{lo},\"hi\":{hi},\"count\":{n}}}");
    }
    out.push_str("]}");
}

fn json_spans(out: &mut String, spans: &[SpanNode]) {
    out.push('[');
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"nanos\":{},\"children\":",
            json_string(&span.name),
            span.nanos
        );
        json_spans(out, &span.children);
        out.push('}');
    }
    out.push(']');
}

fn pretty_span(out: &mut String, span: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let _ = writeln!(
        out,
        "{indent}{:<24} {:>10.3}ms",
        span.name,
        span.nanos as f64 / 1e6
    );
    for child in &span.children {
        pretty_span(out, child, depth + 1);
    }
}

fn pretty_histogram(out: &mut String, h: &Histogram) {
    let _ = writeln!(
        out,
        "  count {}  mean {:.2}  max {}",
        h.count(),
        h.mean(),
        h.max()
    );
    for (i, &n) in h.buckets().iter().enumerate() {
        if n == 0 {
            continue;
        }
        let (lo, hi) = Histogram::bucket_bounds(i);
        let _ = writeln!(out, "    [{lo}, {hi}): {n}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_nests_and_orders() {
        let mut r = RunReport::new("test");
        r.span(Phase::EstimateTheta, |r| {
            r.span(SpanKind::Round(1), |_| {});
            r.span(SpanKind::Round(2), |r| {
                r.span(SpanKind::Sample, |_| {});
            });
        });
        r.span(Phase::SelectSeeds, |_| {});
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[0].name, "EstimateTheta");
        assert_eq!(r.spans()[0].children.len(), 2);
        assert_eq!(r.spans()[0].children[1].name, "round-2");
        assert_eq!(r.spans()[0].children[1].children[0].name, "sample");
        assert_eq!(r.spans()[1].name, "SelectSeeds");
    }

    #[test]
    fn span_returns_closure_value() {
        let mut r = RunReport::new("test");
        let v = r.span(SpanKind::Other("outer"), |r| {
            r.span(SpanKind::Select, |_| 7)
        });
        assert_eq!(v, 7);
    }

    #[test]
    fn stray_exit_is_noop() {
        let mut r = RunReport::new("test");
        r.exit();
        assert!(r.spans().is_empty());
    }

    #[test]
    fn phase_timers_derived_from_top_level_spans() {
        let mut r = RunReport::new("test");
        r.span(Phase::EstimateTheta, |r| {
            // Only top-level spans count: this nested batch is EstimateTheta's.
            r.span(SpanKind::Sample, |_| {
                std::thread::sleep(Duration::from_millis(2))
            })
        });
        r.span(Phase::Sample, |_| {});
        r.span(SpanKind::Other("warmup"), |_| {});
        let t = r.phase_timers();
        assert!(t.get(Phase::EstimateTheta) >= Duration::from_millis(2));
        assert_eq!(t.get(Phase::SelectSeeds), Duration::ZERO);
        let span_nanos: u128 = r.spans().iter().map(|s| s.nanos).sum();
        assert_eq!(t.total().as_nanos(), span_nanos);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1049);
        assert_eq!(h.max(), 1024);
        let b = h.buckets();
        assert_eq!(b[0], 1); // value 0
        assert_eq!(b[1], 1); // [1, 2)
        assert_eq!(b[2], 2); // [2, 4): 2, 3
        assert_eq!(b[3], 2); // [4, 8): 4, 7
        assert_eq!(b[4], 1); // [8, 16)
        assert_eq!(b[11], 1); // [1024, 2048)
    }

    #[test]
    fn histogram_tail_bucket_absorbs_huge_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.buckets()[metrics::HIST_BUCKETS - 1], 1);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_quantile_walks_buckets() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        // 90 small values in [1,2), 10 large in [1024, 2048).
        h.record_n(1, 90);
        h.record_n(1500, 10);
        assert_eq!(h.quantile(0.5), 2); // bucket [1,2) upper bound
        assert_eq!(h.quantile(0.9), 2); // rank 90 still inside the small bucket
        assert_eq!(h.quantile(0.99), 1500); // rank 99 lands in [1024, 2048), clamped to max
        assert_eq!(h.quantile(1.0), 1500);
        // The open tail bucket reports the observed max, not infinity.
        let mut t = Histogram::new();
        t.record(u64::MAX - 5);
        assert_eq!(t.quantile(0.99), u64::MAX - 5);
    }

    #[test]
    fn histogram_quantile_never_exceeds_observed_max() {
        // Regression: the bucket upper bound is exclusive, so an unclamped
        // estimator reports values no observation ever had (a histogram
        // holding only 3 said its p50 was 4).
        let mut h = Histogram::new();
        h.record(3);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.99), 3);
        let mut h = Histogram::new();
        h.record_n(1000, 5);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert!(h.quantile(q) <= h.max(), "q={q}: {} > max", h.quantile(q));
        }
    }

    #[test]
    fn histogram_flat_round_trip() {
        let mut h = Histogram::new();
        for v in [3u64, 9, 0, 200] {
            h.record(v);
        }
        let flat = h.to_flat();
        let mut h2 = Histogram::new();
        h2.set_from_flat(&flat, h.max());
        assert_eq!(h, h2);
    }

    #[test]
    fn comm_counters_delta() {
        let before = CommStats {
            allreduce_calls: 2,
            allgather_calls: 3,
            exchange_calls: 1,
            bytes_moved: 100,
        };
        let after = CommStats {
            allreduce_calls: 7,
            allgather_calls: 4,
            exchange_calls: 9,
            bytes_moved: 450,
        };
        let d = CommStats::delta(&before, &after);
        assert_eq!(d.allreduce_calls, 5);
        assert_eq!(d.allgather_calls, 1);
        assert_eq!(d.exchange_calls, 8);
        assert_eq!(d.bytes_moved, 350);
    }

    #[test]
    fn json_export_is_balanced_and_keyed() {
        let mut r = RunReport::new("mt \"quoted\"\n");
        r.span(Phase::EstimateTheta, |r| r.span(SpanKind::Round(1), |_| {}));
        r.counters.samples_generated = 42;
        r.counters.round_budgets.push(10);
        r.counters.round_coverage.push(0.5);
        r.rrr_sizes.record(5);
        r.comm = Some(CommStats {
            allreduce_calls: 1,
            ..CommStats::default()
        });
        let j = r.to_json();
        trace::json::parse(&j).expect("report must be valid JSON");
        for key in [
            "\"engine\"",
            "\"counters\"",
            "\"samples_generated\":42",
            "\"round_budgets\":[10]",
            "\"rrr_sizes\"",
            "\"thread_samples\"",
            "\"comm\"",
            "\"spans\"",
            "\"round-1\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // The escaped engine name survives.
        assert!(j.contains("mt \\\"quoted\\\"\\n"));
    }

    #[test]
    fn pretty_render_mentions_key_sections() {
        let mut r = RunReport::new("dist");
        r.span(Phase::SelectSeeds, |_| {});
        r.rrr_sizes.record(3);
        r.comm = Some(CommStats::default());
        let p = r.render_pretty();
        assert!(p.contains("engine dist"));
        assert!(p.contains("SelectSeeds"));
        assert!(p.contains("rrr set sizes"));
        assert!(p.contains("comm:"));
    }
}
