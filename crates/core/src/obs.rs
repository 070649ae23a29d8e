//! The run-report observability layer.
//!
//! Every IMM entry point returns a [`RunReport`] describing *what the run
//! did*, not just how long it took: a hierarchical tree of phase spans
//! (EstimateTheta rounds, sample batches, seed selection), monotonic
//! counters (samples generated, in-edges examined, RRR entries, θ-round
//! budgets vs. achieved coverage), and small fixed-bucket histograms (RRR
//! set sizes, per-worker sample counts for load-balance skew). The
//! distributed engines additionally attach the communicator's collective
//! call/byte accounting as [`CommCounters`].
//!
//! The legacy flat [`PhaseTimers`] view is *derived* from the span tree
//! ([`RunReport::phase_timers`]) so [`crate::ImmResult`] stays
//! source-compatible with code that only reads `result.timers`.
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

use crate::phases::{Phase, PhaseTimers};
use ripples_comm::CommStats;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, and the last bucket absorbs everything
/// beyond `2^31`.
const HISTOGRAM_BUCKETS: usize = 33;

/// Monotonic counters describing the work an IMM run performed.
///
/// For a fixed `(graph, params)` pair, `samples_generated`, `rrr_entries`,
/// `rrr_sets_bitmap`, `rrr_bitmap_bytes`,
/// `theta_rounds`, `theta_final`, `round_budgets`, and `round_coverage` are
/// *deterministic*: identical across thread counts and (for the
/// indexed-stream RNG mode) across rank counts. The byte/peak fields are
/// per-process observations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// RRR samples generated (globally, for the distributed engines).
    pub samples_generated: u64,
    /// In-edges examined while generating those samples (globally, for the
    /// distributed engines).
    pub edges_examined: u64,
    /// Total vertex entries stored across all RRR sets (globally, for the
    /// distributed engines).
    pub rrr_entries: u64,
    /// RRR sets the flat store holds as bitmaps rather than sorted lists —
    /// the sets spanning more than n/32 vertices (globally, for the
    /// distributed engines; 0 for the spill store).
    pub rrr_sets_bitmap: u64,
    /// Payload bytes of those bitmaps, ⌈n/64⌉ words each (globally, for the
    /// distributed engines).
    pub rrr_bitmap_bytes: u64,
    /// Peak resident bytes of the RRR storage on this process.
    pub rrr_bytes_peak: u64,
    /// Number of EstimateTheta martingale rounds executed.
    pub theta_rounds: u64,
    /// The final sample count θ.
    pub theta_final: u64,
    /// Greedy seed-selection iterations executed, summed over every
    /// selection pass (estimation rounds + the final SelectSeeds).
    pub select_iterations: u64,
    /// Out-of-contract (unsorted) `RrrCollection::push` calls that were
    /// repaired by sorting; always 0 for the in-tree samplers.
    pub unsorted_pushes: u64,
    /// Collection entries walked by index-driven selection engines across
    /// all cover+decrement steps (globally, for the distributed engines);
    /// 0 for engines that scan rather than index.
    pub select_entries_touched: u64,
    /// Wall time spent building selection inverted indexes, nanoseconds,
    /// summed over every selection pass on this process.
    pub index_build_nanos: u64,
    /// Peak resident bytes of a selection inverted index on this process.
    pub index_bytes_peak: u64,
    /// Peak transient bytes of the sampler's worker-local arenas on this
    /// process (0 for the sequential sampler, which has no arenas).
    pub arena_bytes_peak: u64,
    /// Frontier passes executed by the fused multi-cascade sampler (0 for
    /// the reference sampler, which walks one cascade at a time).
    pub fused_passes: u64,
    /// Peak transient bytes of the fused sampler's per-vertex activation
    /// masks on this process (0 for the reference sampler).
    pub mask_bytes_peak: u64,
    /// Wall time spent decoding compressed RRR blocks during selection,
    /// nanoseconds, summed over every selection pass on this process (0 for
    /// the flat store, whose slices need no decoding).
    pub decode_nanos: u64,
    /// Bytes written to the RRR spill file over the run on this process
    /// (0 for RAM-only storage backends).
    pub spill_bytes_written: u64,
    /// Spill-file creations or writes that failed on this process; the
    /// store then keeps its sets resident beyond `--rrr-budget`.
    pub spill_write_failures: u64,
    /// Per-round sample budgets `θ_x` requested by the schedule.
    pub round_budgets: Vec<u64>,
    /// Per-round coverage fraction achieved by the greedy selection.
    pub round_coverage: Vec<f64>,
    /// Collective attempts retried by the comm retry layer (globally, for
    /// the distributed engines); 0 on a reliable fabric.
    pub retries: u64,
    /// Collective attempts the fault layer failed before they reached the
    /// backend (globally, for the distributed engines).
    pub dropped_ops: u64,
    /// Ranks declared dead and excluded from the run's collectives
    /// (globally, for the distributed engines).
    pub degraded_ranks: u64,
    /// Peak resident bytes of this process's share of the graph: the full
    /// CSR for replicated engines, the vertex-cut shard for `imm_sharded`
    /// (max over ranks for the distributed engines).
    pub graph_bytes_peak: u64,
    /// Batched frontier exchanges (`alltoallv`) issued by the sharded
    /// engine; 0 for replicated engines.
    pub frontier_exchanges: u64,
    /// Nanoseconds of frontier-exchange latency hidden behind local
    /// sampling (post-to-wait gaps, summed; max over ranks). 0 for
    /// replicated engines.
    pub overlap_nanos: u64,
}

/// A fixed-size power-of-two histogram of `u64` observations.
///
/// Bucket 0 counts zeros; bucket `i ≥ 1` counts values in `[2^(i-1), 2^i)`;
/// the final bucket absorbs the tail. Cheap enough to update per sample and
/// mergeable across ranks with one All-Reduce (see
/// [`Histogram::to_flat`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Bucket index for `value`.
    #[inline]
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Records `times` observations of the same `value` at once — the bulk
    /// form used to fold pre-aggregated counts (e.g. the fused sampler's
    /// lane-width tallies) into a histogram.
    #[inline]
    pub fn record_n(&mut self, value: u64, times: u64) {
        if times == 0 {
            return;
        }
        self.buckets[Self::bucket_of(value)] += times;
        self.count += times;
        self.sum += value * times;
        self.max = self.max.max(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Upper-bound estimate of the `q`-quantile (`q ∈ [0, 1]`): walks the
    /// buckets to the smallest one whose cumulative count reaches
    /// `ceil(q · count)` and returns that bucket's exclusive upper bound,
    /// clamped to the observed `max` — a bucket bound can exceed every value
    /// actually recorded (a histogram holding only the value 3 would
    /// otherwise report quantile 4), and no quantile of real observations
    /// can be larger than the largest of them. Returns 0 on an empty
    /// histogram. This is the p50/p99 estimator the serve mode exports for
    /// query latencies.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == HISTOGRAM_BUCKETS - 1 {
                    self.max
                } else {
                    Self::bucket_bounds(i).1.min(self.max)
                };
            }
        }
        self.max
    }

    /// Inclusive-exclusive value bounds of bucket `i`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (1u64 << (i - 1), 1u64 << i)
        }
    }

    /// Flattens the summable state (buckets, count, sum — *not* max) into a
    /// `Vec<u64>` suitable for an element-wise All-Reduce across ranks.
    #[must_use]
    pub fn to_flat(&self) -> Vec<u64> {
        let mut flat = self.buckets.to_vec();
        flat.push(self.count);
        flat.push(self.sum);
        flat
    }

    /// Restores state from a reduced [`Histogram::to_flat`] buffer plus a
    /// separately max-reduced `max`.
    ///
    /// # Panics
    ///
    /// Panics if `flat` does not have the [`Histogram::to_flat`] length.
    pub fn set_from_flat(&mut self, flat: &[u64], max: u64) {
        assert_eq!(flat.len(), HISTOGRAM_BUCKETS + 2, "flat buffer length");
        self.buckets.copy_from_slice(&flat[..HISTOGRAM_BUCKETS]);
        self.count = flat[HISTOGRAM_BUCKETS];
        self.sum = flat[HISTOGRAM_BUCKETS + 1];
        self.max = max;
    }
}

/// Communication collective calls and modeled bytes moved by one rank over
/// the span of a run (a delta of two [`CommStats`] snapshots).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommCounters {
    /// `all_reduce_*` calls.
    pub allreduce_calls: u64,
    /// `barrier` calls.
    pub barrier_calls: u64,
    /// `broadcast_*` calls.
    pub broadcast_calls: u64,
    /// `all_gather_*` calls.
    pub allgather_calls: u64,
    /// `alltoallv_u64` / posted-exchange calls.
    pub exchange_calls: u64,
    /// Modeled payload bytes transmitted under recursive doubling (direct
    /// pairwise for exchanges).
    pub bytes_moved: u64,
}

impl CommCounters {
    /// The communication performed between two snapshots of the same rank's
    /// [`CommStats`] (counters are monotonic, so plain subtraction).
    #[must_use]
    pub fn delta(before: &CommStats, after: &CommStats) -> Self {
        Self {
            allreduce_calls: after.allreduce_calls - before.allreduce_calls,
            barrier_calls: after.barrier_calls - before.barrier_calls,
            broadcast_calls: after.broadcast_calls - before.broadcast_calls,
            allgather_calls: after.allgather_calls - before.allgather_calls,
            exchange_calls: after.exchange_calls - before.exchange_calls,
            bytes_moved: after.bytes_moved - before.bytes_moved,
        }
    }
}

impl From<CommStats> for CommCounters {
    fn from(s: CommStats) -> Self {
        Self::delta(&CommStats::default(), &s)
    }
}

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

/// A span that has been entered but not yet exited.
#[derive(Clone, Debug)]
struct OpenSpan {
    name: String,
    start: Instant,
    children: Vec<SpanNode>,
}

/// The full observability record of one IMM run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Engine tag (`"immopt"`, `"baseline"`, `"mt"`, `"dist"`,
    /// `"partitioned"`, …).
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
    pub comm: Option<CommCounters>,
    /// The merged event timeline, when the run executed with tracing
    /// enabled ([`trace::start`]); `None` otherwise. Its
    /// [`trace::Trace::dropped`] counter reports events lost to full ring
    /// buffers, so truncated traces are never silent.
    pub trace: Option<trace::Trace>,
    spans: Vec<SpanNode>,
    open: Vec<OpenSpan>,
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
        }
    }

    /// Opens a span named `name`; pair with [`RunReport::exit`]. Prefer
    /// [`RunReport::span`], which cannot be left unbalanced.
    pub fn enter(&mut self, name: &str) {
        if metrics::enabled() {
            metrics::on_enter(name);
        }
        self.open.push(OpenSpan {
            name: name.to_string(),
            start: Instant::now(),
            children: Vec::new(),
        });
    }

    /// Closes the innermost open span, attaching it to its parent (or to
    /// the root list). A stray `exit` with no open span is a no-op.
    pub fn exit(&mut self) {
        let Some(open) = self.open.pop() else { return };
        if trace::enabled() {
            let (name, arg0) = trace::span_trace_name(&open.name);
            trace::complete(name, open.start, arg0, 0);
        }
        if metrics::enabled() {
            metrics::on_exit(self.open.iter().rev().map(|o| o.name.as_str()));
        }
        let node = SpanNode {
            name: open.name,
            nanos: open.start.elapsed().as_nanos(),
            children: open.children,
        };
        match self.open.last_mut() {
            Some(parent) => parent.children.push(node),
            None => self.spans.push(node),
        }
    }

    /// Runs `f` inside a span named `name`, timing it.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// The finished top-level spans in execution order.
    #[must_use]
    pub fn spans(&self) -> &[SpanNode] {
        &self.spans
    }

    /// Derives the paper's flat four-phase timer view from the span tree:
    /// top-level spans named after a [`Phase`] label map to that phase,
    /// everything else to [`Phase::Other`].
    #[must_use]
    pub fn phase_timers(&self) -> PhaseTimers {
        let mut timers = PhaseTimers::new();
        for span in &self.spans {
            let phase = match span.name.as_str() {
                "EstimateTheta" => Phase::EstimateTheta,
                "Sample" => Phase::Sample,
                "SelectSeeds" => Phase::SelectSeeds,
                _ => Phase::Other,
            };
            timers.add(phase, nanos_to_duration(span.nanos));
        }
        timers
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
        let _ = write!(
            out,
            "\"samples_generated\":{},\"edges_examined\":{},\"rrr_entries\":{},\
             \"rrr_bytes_peak\":{},\"theta_rounds\":{},\"theta_final\":{},\
             \"select_iterations\":{},\"unsorted_pushes\":{},\
             \"select_entries_touched\":{},\"index_build_nanos\":{},\
             \"index_bytes_peak\":{},\"arena_bytes_peak\":{},\
             \"fused_passes\":{},\"mask_bytes_peak\":{},\
             \"decode_nanos\":{},\"spill_bytes_written\":{},\
             \"rrr_sets_bitmap\":{},\"rrr_bitmap_bytes\":{},\
             \"spill_write_failures\":{}",
            c.samples_generated,
            c.edges_examined,
            c.rrr_entries,
            c.rrr_bytes_peak,
            c.theta_rounds,
            c.theta_final,
            c.select_iterations,
            c.unsorted_pushes,
            c.select_entries_touched,
            c.index_build_nanos,
            c.index_bytes_peak,
            c.arena_bytes_peak,
            c.fused_passes,
            c.mask_bytes_peak,
            c.decode_nanos,
            c.spill_bytes_written,
            c.rrr_sets_bitmap,
            c.rrr_bitmap_bytes,
            c.spill_write_failures
        );
        out.push_str(",\"round_budgets\":[");
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
        out.push(']');
        let _ = write!(
            out,
            ",\"retries\":{},\"dropped_ops\":{},\"degraded_ranks\":{},\
             \"graph_bytes_peak\":{},\"frontier_exchanges\":{},\"overlap_nanos\":{}",
            c.retries,
            c.dropped_ops,
            c.degraded_ranks,
            c.graph_bytes_peak,
            c.frontier_exchanges,
            c.overlap_nanos
        );
        out.push('}');
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
                    "{{\"allreduce_calls\":{},\"barrier_calls\":{},\"broadcast_calls\":{},\
                     \"allgather_calls\":{},\"exchange_calls\":{},\"bytes_moved\":{}}}",
                    cc.allreduce_calls,
                    cc.barrier_calls,
                    cc.broadcast_calls,
                    cc.allgather_calls,
                    cc.exchange_calls,
                    cc.bytes_moved
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
        let _ = writeln!(out, "  samples generated   {}", c.samples_generated);
        let _ = writeln!(out, "  edges examined      {}", c.edges_examined);
        let _ = writeln!(out, "  rrr entries         {}", c.rrr_entries);
        let _ = writeln!(out, "  rrr sets as bitmaps {}", c.rrr_sets_bitmap);
        let _ = writeln!(out, "  rrr bitmap bytes    {}", c.rrr_bitmap_bytes);
        let _ = writeln!(out, "  rrr bytes (peak)    {}", c.rrr_bytes_peak);
        let _ = writeln!(out, "  theta rounds        {}", c.theta_rounds);
        let _ = writeln!(out, "  theta (final)       {}", c.theta_final);
        let _ = writeln!(out, "  select iterations   {}", c.select_iterations);
        let _ = writeln!(out, "  unsorted pushes     {}", c.unsorted_pushes);
        let _ = writeln!(out, "  select touched      {}", c.select_entries_touched);
        let _ = writeln!(out, "  index build (ns)    {}", c.index_build_nanos);
        let _ = writeln!(out, "  index bytes (peak)  {}", c.index_bytes_peak);
        let _ = writeln!(out, "  arena bytes (peak)  {}", c.arena_bytes_peak);
        let _ = writeln!(out, "  fused passes        {}", c.fused_passes);
        let _ = writeln!(out, "  mask bytes (peak)   {}", c.mask_bytes_peak);
        let _ = writeln!(out, "  decode time (ns)    {}", c.decode_nanos);
        let _ = writeln!(out, "  spill bytes written {}", c.spill_bytes_written);
        let _ = writeln!(out, "  spill write fails   {}", c.spill_write_failures);
        let _ = writeln!(out, "  comm retries        {}", c.retries);
        let _ = writeln!(out, "  comm dropped ops    {}", c.dropped_ops);
        let _ = writeln!(out, "  degraded ranks      {}", c.degraded_ranks);
        let _ = writeln!(out, "  graph bytes (peak)  {}", c.graph_bytes_peak);
        let _ = writeln!(out, "  frontier exchanges  {}", c.frontier_exchanges);
        let _ = writeln!(out, "  overlap (ns)        {}", c.overlap_nanos);
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
                "  allreduce {}  allgather {}  broadcast {}  barrier {}  exchange {}  bytes {}",
                cc.allreduce_calls,
                cc.allgather_calls,
                cc.broadcast_calls,
                cc.barrier_calls,
                cc.exchange_calls,
                cc.bytes_moved
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
        r.span("EstimateTheta", |r| {
            r.span("round-1", |_| {});
            r.span("round-2", |r| {
                r.span("sample", |_| {});
            });
        });
        r.span("SelectSeeds", |_| {});
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[0].name, "EstimateTheta");
        assert_eq!(r.spans()[0].children.len(), 2);
        assert_eq!(r.spans()[0].children[1].children[0].name, "sample");
        assert_eq!(r.spans()[1].name, "SelectSeeds");
    }

    #[test]
    fn span_returns_closure_value() {
        let mut r = RunReport::new("test");
        let v = r.span("outer", |r| r.span("inner", |_| 7));
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
        r.span("EstimateTheta", |_| {
            std::thread::sleep(Duration::from_millis(2))
        });
        r.span("Sample", |_| {});
        r.span("warmup", |_| {});
        let t = r.phase_timers();
        assert!(t.get(Phase::EstimateTheta) >= Duration::from_millis(2));
        assert_eq!(t.get(Phase::SelectSeeds), Duration::ZERO);
        assert!(t.total() >= Duration::from_millis(2));
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
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
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
            barrier_calls: 1,
            broadcast_calls: 0,
            allgather_calls: 3,
            exchange_calls: 1,
            bytes_moved: 100,
        };
        let after = CommStats {
            allreduce_calls: 7,
            barrier_calls: 1,
            broadcast_calls: 2,
            allgather_calls: 4,
            exchange_calls: 9,
            bytes_moved: 450,
        };
        let d = CommCounters::delta(&before, &after);
        assert_eq!(d.allreduce_calls, 5);
        assert_eq!(d.barrier_calls, 0);
        assert_eq!(d.broadcast_calls, 2);
        assert_eq!(d.allgather_calls, 1);
        assert_eq!(d.exchange_calls, 8);
        assert_eq!(d.bytes_moved, 350);
    }

    fn assert_balanced_json(s: &str) {
        let mut depth: i64 = 0;
        let mut in_string = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced JSON: {s}");
        }
        assert_eq!(depth, 0, "unbalanced JSON: {s}");
        assert!(!in_string, "unterminated string: {s}");
    }

    #[test]
    fn json_export_is_balanced_and_keyed() {
        let mut r = RunReport::new("mt \"quoted\"\n");
        r.span("EstimateTheta", |r| r.span("round-1", |_| {}));
        r.counters.samples_generated = 42;
        r.counters.round_budgets.push(10);
        r.counters.round_coverage.push(0.5);
        r.rrr_sizes.record(5);
        r.comm = Some(CommCounters {
            allreduce_calls: 1,
            ..CommCounters::default()
        });
        let j = r.to_json();
        assert_balanced_json(&j);
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
        r.span("SelectSeeds", |_| {});
        r.rrr_sizes.record(3);
        r.comm = Some(CommCounters::default());
        let p = r.render_pretty();
        assert!(p.contains("engine dist"));
        assert!(p.contains("SelectSeeds"));
        assert!(p.contains("rrr set sizes"));
        assert!(p.contains("comm:"));
    }
}
