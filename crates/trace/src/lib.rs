//! Low-overhead structured event tracing for the IMM engines.
//!
//! This crate sits *below* every other workspace crate so that the sampler
//! (`ripples-diffusion`), the communicator backends (`ripples-comm`), and
//! the engines (`ripples-core`, which re-exports this crate as
//! `ripples_core::obs::trace`) can all record into one timeline. The design
//! goals, in order:
//!
//! 1. **Never block the hot path.** Each worker thread appends fixed-size
//!    [`TraceEvent`]s into its own bounded ring buffer; writes are plain
//!    atomic stores (no locks, no CAS). When the buffer is full, new events
//!    are *dropped* and counted — recording never waits.
//! 2. **Near-zero cost when disabled.** Every record call starts with a
//!    single relaxed atomic load and a branch ([`enabled`]); nothing else
//!    runs. Tracing is always compiled in and off by default.
//! 3. **Mergeable.** Buffers are drained into a [`Trace`], which can be
//!    encoded as a flat `u64` buffer ([`encode_thread_events`]) so the
//!    distributed engines can gather per-rank timelines over their existing
//!    `all_gather` collective and merge them ([`Trace::from_rank_buffers`]).
//!
//! The merged [`Trace`] exports Chrome Trace Event Format JSON
//! ([`Trace::to_chrome_json`]) loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): one *process* per rank, one *track*
//! (tid) per worker thread.
//!
//! # Ring-buffer sizing
//!
//! [`start`]`(None)` reads the per-worker capacity (events per ring) from
//! the `RIPPLES_TRACE_BUFFER` environment variable, defaulting to
//! [`DEFAULT_CAPACITY`]; `start(Some(n))` pins it explicitly. A full ring
//! drops events and increments [`Trace::dropped`], which callers surface so
//! truncated traces are never silent.

#![warn(missing_docs)]

pub mod json;
mod ring;

use ring::WorkerRing;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Default per-worker ring capacity, in events.
pub const DEFAULT_CAPACITY: usize = 16 * 1024;

/// Environment variable overriding the per-worker ring capacity.
pub const CAPACITY_ENV: &str = "RIPPLES_TRACE_BUFFER";

/// What a [`TraceEvent`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A completed span: `ts_ns .. ts_ns + dur_ns` (Chrome `"X"`).
    Span = 0,
    /// A point-in-time mark (Chrome `"i"`).
    Mark = 1,
    /// A sampled counter value in `arg0` (Chrome `"C"`).
    Counter = 2,
}

impl EventKind {
    fn from_u8(x: u8) -> Option<Self> {
        match x {
            0 => Some(EventKind::Span),
            1 => Some(EventKind::Mark),
            2 => Some(EventKind::Counter),
            _ => None,
        }
    }
}

macro_rules! trace_names {
    ($($(#[$doc:meta])* $name:ident = $id:literal, $label:literal, ($k0:expr, $k1:expr);)*) => {
        /// The fixed catalog of event names.
        ///
        /// Events are fixed-size, so names are ids into this catalog rather
        /// than strings; the catalog covers the phase structure of the IMM
        /// engines, the sampler, the selection loop, and the communicator
        /// collectives. The id is the wire encoding of
        /// [`encode_thread_events`] and never changes for a given name.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum TraceName {
            $($(#[$doc])* $name = $id,)*
        }

        impl TraceName {
            /// Display label used in the Chrome export.
            #[must_use]
            pub const fn label(self) -> &'static str {
                match self {
                    $(TraceName::$name => $label,)*
                }
            }

            /// Chrome `args` keys for `(arg0, arg1)`; `None` suppresses the key.
            const fn arg_keys(self) -> (Option<&'static str>, Option<&'static str>) {
                match self {
                    $(TraceName::$name => ($k0, $k1),)*
                }
            }

            fn from_u8(x: u8) -> Option<Self> {
                match x {
                    $($id => Some(TraceName::$name),)*
                    _ => None,
                }
            }
        }
    };
}

// doc, name = wire id, Chrome label, (arg0 key, arg1 key)
trace_names! {
    /// Algorithm 2 (martingale θ-estimation), whole phase.
    EstimateTheta = 0, "EstimateTheta", (None, None);
    /// One estimation round; `arg0` = round index (1-based).
    Round = 1, "round", (Some("round"), None);
    /// A sampling call (estimation-round batch or the final top-up).
    SampleBatch = 2, "sample", (None, None);
    /// One block of a parallel sampling batch, on the worker that filled
    /// it; `arg0` = first global sample index, `arg1` = sample count.
    SampleChunk = 3, "sample-chunk", (Some("first"), Some("count"));
    /// A greedy selection pass inside an estimation round.
    Select = 4, "select", (None, None);
    /// The final SelectSeeds pass (Algorithm 4).
    SelectSeeds = 5, "SelectSeeds", (None, None);
    /// One greedy selection step; `arg0` = chosen vertex,
    /// `arg1` = marginal gain.
    SelectStep = 6, "select-step", (Some("vertex"), Some("gain"));
    /// `all_reduce_*` collective; `arg0` = modeled payload bytes.
    CommAllReduce = 7, "allreduce", (Some("bytes"), None);
    /// `all_gather_u64_list` collective; `arg0` = modeled payload bytes.
    CommAllGather = 8, "allgather", (Some("bytes"), None);
    /// RRR-storage resident bytes high-water sample; `arg0` = bytes.
    RrrBytes = 11, "rrr-bytes", (Some("bytes"), None);
    /// A span whose label is outside the fixed catalog.
    Generic = 12, "span", (None, None);
    /// Building the vertex→samples inverted index for fused selection;
    /// `arg0` = index entries.
    IndexBuild = 13, "index-build", (Some("entries"), None);
    /// Index entries touched while covering one seed's samples;
    /// `arg0` = entries, `arg1` = chosen vertex.
    SelectTouched = 14, "select-touched", (Some("entries"), Some("vertex"));
    /// Reserved bytes of the sampling block arenas in flight, running
    /// peak; `arg0` = bytes.
    ArenaBytes = 15, "arena-bytes", (Some("bytes"), None);
    /// A collective attempt failed and is being retried;
    /// `arg0` = op index, `arg1` = attempt number (0-based).
    CommRetry = 16, "comm-retry", (Some("op"), Some("attempt"));
    /// A rank was declared dead after exhausted retries;
    /// `arg0` = rank, `arg1` = op index.
    RankDead = 17, "rank-dead", (Some("rank"), Some("op"));
    /// One block of a fused multi-cascade sampling batch, on the worker
    /// that filled it; `arg0` = first global sample index, `arg1` = sample
    /// count.
    FusedChunk = 18, "fused-chunk", (Some("first"), Some("count"));
    /// Peak per-vertex activation-mask scratch bytes of the fused sampler;
    /// `arg0` = bytes.
    MaskBytes = 19, "mask-bytes", (Some("bytes"), None);
    /// A serve-mode query starts; `arg0` = requested seed count `k`.
    QueryBegin = 20, "query-begin", (Some("k"), None);
    /// A serve-mode query finishes; `arg0` = requested seed count `k`,
    /// `arg1` = RRR-index entries touched while answering.
    QueryEnd = 21, "query-end", (Some("k"), Some("entries"));
    /// `alltoallv_u64` / posted frontier exchange; `arg0` = payload bytes.
    CommExchange = 22, "exchange", (Some("bytes"), None);
}

/// One fixed-size trace record. Timestamps are nanoseconds since the trace
/// epoch (the first [`start`] call in the process).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event class (span / mark / counter).
    pub kind: EventKind,
    /// Catalog name.
    pub name: TraceName,
    /// Start time, ns since trace epoch.
    pub ts_ns: u64,
    /// Duration, ns (0 for marks and counters).
    pub dur_ns: u64,
    /// First payload word (meaning depends on `name`).
    pub arg0: u64,
    /// Second payload word.
    pub arg1: u64,
}

/// One event of a merged [`Trace`], tagged with its origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Originating rank (0 for shared-memory runs).
    pub rank: u32,
    /// Originating worker thread id (process-unique ring id).
    pub tid: u32,
    /// The event itself.
    pub event: TraceEvent,
}

// ---------------------------------------------------------------------------
// Global state.

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Monotonically increasing id of the current tracing session; rings lazily
/// reset themselves when they observe a new session, so stale events from a
/// previous run are never collected.
static SESSION: AtomicU64 = AtomicU64::new(0);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn registry() -> &'static Mutex<Vec<Arc<WorkerRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<WorkerRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Pool of rings whose owning thread has exited; reused by the next new
/// thread so short-lived worker threads (one per parallel batch) don't each
/// allocate a fresh buffer.
fn pool() -> &'static Mutex<Vec<Arc<WorkerRing>>> {
    static POOL: OnceLock<Mutex<Vec<Arc<WorkerRing>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

/// Owns this thread's ring; returns it to the pool when the thread exits.
struct RingHandle(Arc<WorkerRing>);

impl Drop for RingHandle {
    fn drop(&mut self) {
        pool()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&self.0));
    }
}

thread_local! {
    static RING: std::cell::RefCell<Option<RingHandle>> =
        const { std::cell::RefCell::new(None) };
}

/// The trace epoch: a process-wide monotonic time origin.
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the trace epoch to `t` (saturating at 0 for instants
/// taken before the epoch was pinned).
#[must_use]
pub fn ns_since_epoch(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// Whether tracing is currently enabled. This is the entire disabled-path
/// cost of every record call: one relaxed load and a branch.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables tracing for a new session.
///
/// `capacity` sets the per-worker ring size in events; `None` reads
/// [`CAPACITY_ENV`] and falls back to [`DEFAULT_CAPACITY`]. Events recorded
/// in previous sessions are discarded lazily.
pub fn start(capacity: Option<usize>) {
    let cap = capacity
        .or_else(|| {
            std::env::var(CAPACITY_ENV)
                .ok()
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(DEFAULT_CAPACITY)
        .max(1);
    epoch(); // pin the time origin before any event is recorded
    CAPACITY.store(cap, Ordering::Relaxed);
    SESSION.fetch_add(1, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Release);
}

/// Disables tracing. Already-recorded events stay drainable (they belong to
/// the now-frozen session) until the next [`start`].
pub fn stop() {
    ENABLED.store(false, Ordering::Release);
}

/// Runs `f` with this thread's ring for the current session, acquiring (or
/// session-resetting) the ring first.
fn with_ring<T>(f: impl FnOnce(&WorkerRing) -> T) -> T {
    RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let session = SESSION.load(Ordering::Relaxed);
        let cap = CAPACITY.load(Ordering::Relaxed);
        // Re-acquire when absent or when the session changed capacity.
        let stale = match slot.as_ref() {
            None => true,
            Some(h) => h.0.capacity() != cap,
        };
        if stale {
            let recycled = {
                let mut pool = pool().lock().unwrap_or_else(PoisonError::into_inner);
                pool.iter()
                    .position(|r| r.capacity() == cap)
                    .map(|i| pool.swap_remove(i))
            };
            let ring = recycled.unwrap_or_else(|| {
                let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed) as u32;
                let ring = Arc::new(WorkerRing::new(tid, cap));
                registry()
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(Arc::clone(&ring));
                ring
            });
            *slot = Some(RingHandle(ring));
        }
        let ring = &slot.as_ref().expect("ring acquired").0;
        ring.ensure_session(session);
        f(ring)
    })
}

/// Records a completed span that began at `begin`.
#[inline]
pub fn complete(name: TraceName, begin: Instant, arg0: u64, arg1: u64) {
    if !enabled() {
        return;
    }
    let ts_ns = ns_since_epoch(begin);
    let dur_ns = u64::try_from(begin.elapsed().as_nanos()).unwrap_or(u64::MAX);
    with_ring(|r| {
        r.push(TraceEvent {
            kind: EventKind::Span,
            name,
            ts_ns,
            dur_ns,
            arg0,
            arg1,
        });
    });
}

/// Records a point-in-time mark.
#[inline]
pub fn mark(name: TraceName, arg0: u64, arg1: u64) {
    if !enabled() {
        return;
    }
    let ts_ns = ns_since_epoch(Instant::now());
    with_ring(|r| {
        r.push(TraceEvent {
            kind: EventKind::Mark,
            name,
            ts_ns,
            dur_ns: 0,
            arg0,
            arg1,
        });
    });
}

/// Records a sampled counter value (e.g. a memory high-water mark).
#[inline]
pub fn counter(name: TraceName, value: u64) {
    if !enabled() {
        return;
    }
    let ts_ns = ns_since_epoch(Instant::now());
    with_ring(|r| {
        r.push(TraceEvent {
            kind: EventKind::Counter,
            name,
            ts_ns,
            dur_ns: 0,
            arg0: value,
            arg1: 0,
        });
    });
}

/// Tags this thread's ring with a rank id (distributed engines call this at
/// entry so their events carry the right process track).
pub fn set_thread_rank(rank: u32) {
    if !enabled() {
        return;
    }
    with_ring(|r| r.set_rank(rank));
}

/// Drains every current-session ring in the process into one merged trace
/// (rank tags come from [`set_thread_rank`], 0 by default). The shared-memory
/// engines attach this to their run report.
#[must_use]
pub fn collect_all() -> Trace {
    let session = SESSION.load(Ordering::Relaxed);
    let mut events = Vec::new();
    let mut dropped = 0u64;
    let mut dropped_by_worker = Vec::new();
    {
        let registry = registry().lock().unwrap_or_else(PoisonError::into_inner);
        for ring in registry.iter() {
            if ring.session() != session {
                continue;
            }
            let (tid, rank, evs, drops) = ring.drain();
            dropped += drops;
            if drops > 0 {
                dropped_by_worker.push(DroppedCount {
                    rank,
                    tid,
                    dropped: drops,
                });
            }
            events.extend(
                evs.into_iter()
                    .map(|event| TraceRecord { rank, tid, event }),
            );
        }
    }
    events.sort_by_key(|r| (r.rank, r.tid, r.event.ts_ns));
    dropped_by_worker.sort_by_key(|d| (d.rank, d.tid));
    Trace {
        events,
        dropped,
        dropped_by_worker,
    }
}

/// Drains *this thread's* ring and encodes it as a flat `u64` buffer
/// suitable for `all_gather_u64_list`: `[dropped, tid, n, n × 5 event
/// words]`. The distributed engines call this on every rank, gather, and
/// rebuild the merged timeline with [`Trace::from_rank_buffers`]. The
/// header carries the worker id explicitly so drops stay attributable
/// even when every event of that worker was lost.
#[must_use]
pub fn encode_thread_events() -> Vec<u64> {
    let session = SESSION.load(Ordering::Relaxed);
    let (tid, _rank, events, dropped) = RING.with(|slot| match slot.borrow().as_ref() {
        Some(h) if h.0.session() == session => h.0.drain(),
        _ => (0, 0, Vec::new(), 0),
    });
    let mut out = Vec::with_capacity(3 + events.len() * 5);
    out.push(dropped);
    out.push(u64::from(tid));
    out.push(events.len() as u64);
    for e in &events {
        out.push(pack_meta(e.kind, e.name, tid));
        out.push(e.ts_ns);
        out.push(e.dur_ns);
        out.push(e.arg0);
        out.push(e.arg1);
    }
    out
}

fn pack_meta(kind: EventKind, name: TraceName, tid: u32) -> u64 {
    ((kind as u64) << 48) | ((name as u64) << 40) | u64::from(tid)
}

fn unpack_meta(meta: u64) -> Option<(EventKind, TraceName, u32)> {
    let kind = EventKind::from_u8(((meta >> 48) & 0xFF) as u8)?;
    let name = TraceName::from_u8(((meta >> 40) & 0xFF) as u8)?;
    Some((kind, name, (meta & 0xFFFF_FFFF) as u32))
}

// ---------------------------------------------------------------------------
// The merged trace.

/// Events lost by one worker's ring buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DroppedCount {
    /// Originating rank (0 for shared-memory runs).
    pub rank: u32,
    /// Originating worker thread id.
    pub tid: u32,
    /// Events that worker's full ring rejected.
    pub dropped: u64,
}

/// A merged timeline: every recorded event, tagged with rank and worker.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events sorted by (rank, tid, timestamp).
    pub events: Vec<TraceRecord>,
    /// Events lost to full ring buffers, summed over all workers and ranks.
    pub dropped: u64,
    /// Per-worker attribution of `dropped` (only workers that lost
    /// events appear), so an overflowing ring can be traced to the
    /// thread that needs a bigger buffer.
    pub dropped_by_worker: Vec<DroppedCount>,
}

impl Trace {
    /// Number of merged events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Rebuilds a merged trace from per-rank [`encode_thread_events`]
    /// buffers in rank order (the output of `all_gather_u64_list`).
    /// Malformed words are skipped rather than panicking: a truncated buffer
    /// yields a truncated — still valid — trace.
    #[must_use]
    pub fn from_rank_buffers(buffers: &[Vec<u64>]) -> Trace {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        let mut dropped_by_worker = Vec::new();
        for (rank, buf) in buffers.iter().enumerate() {
            if buf.len() < 3 {
                continue;
            }
            dropped += buf[0];
            if buf[0] > 0 {
                dropped_by_worker.push(DroppedCount {
                    rank: rank as u32,
                    tid: (buf[1] & 0xFFFF_FFFF) as u32,
                    dropped: buf[0],
                });
            }
            let n = usize::try_from(buf[2]).unwrap_or(0);
            let words = &buf[3..];
            for i in 0..n.min(words.len() / 5) {
                let w = &words[i * 5..i * 5 + 5];
                let Some((kind, name, tid)) = unpack_meta(w[0]) else {
                    continue;
                };
                events.push(TraceRecord {
                    rank: rank as u32,
                    tid,
                    event: TraceEvent {
                        kind,
                        name,
                        ts_ns: w[1],
                        dur_ns: w[2],
                        arg0: w[3],
                        arg1: w[4],
                    },
                });
            }
        }
        events.sort_by_key(|r| (r.rank, r.tid, r.event.ts_ns));
        Trace {
            events,
            dropped,
            dropped_by_worker,
        }
    }

    /// Serializes the trace as Chrome Trace Event Format JSON: an object
    /// with a `traceEvents` array (`X`/`i`/`C` phases plus `M` metadata
    /// naming each rank's process and each worker's track), loadable in
    /// `chrome://tracing` and Perfetto. Timestamps are microseconds from the
    /// trace epoch.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut emit = |s: &str, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(s);
        };
        // Metadata: name every (rank, tid) track once.
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for r in &self.events {
            if seen.contains(&(r.rank, r.tid)) {
                continue;
            }
            if !seen.iter().any(|&(rank, _)| rank == r.rank) {
                emit(
                    &format!(
                        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\
                         \"args\":{{\"name\":\"rank {}\"}}}}",
                        r.rank, r.rank
                    ),
                    &mut out,
                );
            }
            seen.push((r.rank, r.tid));
            emit(
                &format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{},\
                     \"args\":{{\"name\":\"worker {}\"}}}}",
                    r.rank, r.tid, r.tid
                ),
                &mut out,
            );
        }
        for r in &self.events {
            let e = &r.event;
            let mut ev = String::with_capacity(96);
            let ph = match e.kind {
                EventKind::Span => "X",
                EventKind::Mark => "i",
                EventKind::Counter => "C",
            };
            let _ = write!(
                ev,
                "{{\"ph\":\"{ph}\",\"name\":\"{}\",\"cat\":\"imm\",\"ts\":{},\"pid\":{},\"tid\":{}",
                e.name.label(),
                micros(e.ts_ns),
                r.rank,
                r.tid
            );
            if e.kind == EventKind::Span {
                let _ = write!(ev, ",\"dur\":{}", micros(e.dur_ns));
            }
            if e.kind == EventKind::Mark {
                ev.push_str(",\"s\":\"t\"");
            }
            let (k0, k1) = e.name.arg_keys();
            let k0 = k0.or(if e.kind == EventKind::Counter {
                Some("value")
            } else {
                None
            });
            if k0.is_some() || k1.is_some() {
                ev.push_str(",\"args\":{");
                if let Some(k) = k0 {
                    let _ = write!(ev, "\"{k}\":{}", e.arg0);
                }
                if let Some(k) = k1 {
                    if k0.is_some() {
                        ev.push(',');
                    }
                    let _ = write!(ev, "\"{k}\":{}", e.arg1);
                }
                ev.push('}');
            }
            ev.push('}');
            emit(&ev, &mut out);
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{},\"dropped_by_worker\":[",
            self.dropped
        );
        for (i, d) in self.dropped_by_worker.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"rank\":{},\"tid\":{},\"dropped\":{}}}",
                if i == 0 { "" } else { "," },
                d.rank,
                d.tid,
                d.dropped
            );
        }
        out.push_str("]}}");
        out
    }
}

/// Formats nanoseconds as decimal microseconds with ns resolution.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the global tracer.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn ev(name: TraceName) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Span,
            name,
            ts_ns: 10,
            dur_ns: 5,
            arg0: 1,
            arg1: 2,
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        stop();
        complete(TraceName::Round, Instant::now(), 1, 0);
        mark(TraceName::SelectStep, 0, 0);
        counter(TraceName::RrrBytes, 9);
        start(None);
        let t = collect_all();
        assert!(t.is_empty(), "stale events leaked: {:?}", t.events);
        stop();
    }

    #[test]
    fn enabled_round_trip_and_session_isolation() {
        let _g = lock();
        start(None);
        complete(TraceName::EstimateTheta, Instant::now(), 0, 0);
        mark(TraceName::SelectStep, 3, 7);
        counter(TraceName::RrrBytes, 1024);
        let t = collect_all();
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped, 0);
        // A new session discards anything not yet drained.
        complete(TraceName::Round, Instant::now(), 1, 0);
        start(None);
        assert!(collect_all().is_empty());
        stop();
    }

    #[test]
    fn tiny_ring_drops_and_counts() {
        let _g = lock();
        start(Some(2));
        for i in 0..10 {
            mark(TraceName::SelectStep, i, 0);
        }
        let t = collect_all();
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped, 8);
        // The loss is attributed to the worker that overflowed.
        assert_eq!(t.dropped_by_worker.len(), 1);
        assert_eq!(t.dropped_by_worker[0].dropped, 8);
        assert_eq!(t.dropped_by_worker[0].rank, 0);
        stop();
    }

    #[test]
    fn encode_decode_round_trip() {
        let _g = lock();
        start(None);
        complete(TraceName::SampleChunk, Instant::now(), 64, 32);
        mark(TraceName::SelectStep, 5, 9);
        let buf = encode_thread_events();
        // Two rank copies of the same buffer → events tagged rank 0 and 1.
        let t = Trace::from_rank_buffers(&[buf.clone(), buf]);
        assert_eq!(t.len(), 4);
        let ranks: Vec<u32> = t.events.iter().map(|r| r.rank).collect();
        assert!(ranks.contains(&0) && ranks.contains(&1));
        let chunk = t
            .events
            .iter()
            .find(|r| r.event.name == TraceName::SampleChunk)
            .unwrap();
        assert_eq!(chunk.event.arg0, 64);
        assert_eq!(chunk.event.arg1, 32);
        // Encoding drained the ring.
        assert!(encode_thread_events()[2] == 0);
        stop();
    }

    #[test]
    fn malformed_rank_buffers_are_skipped() {
        let t = Trace::from_rank_buffers(&[vec![], vec![3, 1], vec![1, 7, 2, u64::MAX, 0, 0]]);
        assert!(t.events.is_empty());
        assert_eq!(t.dropped, 1);
        // The short `[3, 1]` buffer has no event-count word and is
        // skipped whole; the valid header attributes its drop to tid 7.
        assert_eq!(t.dropped_by_worker.len(), 1);
        assert_eq!(t.dropped_by_worker[0].tid, 7);
        assert_eq!(t.dropped_by_worker[0].rank, 2);
    }

    #[test]
    fn chrome_json_is_valid_and_structured() {
        let t = Trace {
            events: vec![
                TraceRecord {
                    rank: 0,
                    tid: 1,
                    event: ev(TraceName::EstimateTheta),
                },
                TraceRecord {
                    rank: 1,
                    tid: 2,
                    event: TraceEvent {
                        kind: EventKind::Counter,
                        name: TraceName::RrrBytes,
                        ts_ns: 1500,
                        dur_ns: 0,
                        arg0: 4096,
                        arg1: 0,
                    },
                },
                TraceRecord {
                    rank: 1,
                    tid: 2,
                    event: TraceEvent {
                        kind: EventKind::Mark,
                        name: TraceName::SelectStep,
                        ts_ns: 2000,
                        dur_ns: 0,
                        arg0: 7,
                        arg1: 3,
                    },
                },
            ],
            dropped: 4,
            dropped_by_worker: vec![DroppedCount {
                rank: 1,
                tid: 2,
                dropped: 4,
            }],
        };
        let j = t.to_chrome_json();
        json::parse(&j).expect("chrome export must be valid JSON");
        for needle in [
            "\"traceEvents\":[",
            "\"ph\":\"X\"",
            "\"ph\":\"C\"",
            "\"ph\":\"i\"",
            "\"ph\":\"M\"",
            "\"name\":\"rank 1\"",
            "\"name\":\"worker 2\"",
            "\"vertex\":7",
            "\"dropped\":4",
            "\"dropped_by_worker\":[{\"rank\":1,\"tid\":2,\"dropped\":4}]",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }

    #[test]
    fn empty_trace_exports_valid_json() {
        let j = Trace::default().to_chrome_json();
        json::parse(&j).unwrap();
        assert!(j.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn micros_formatting() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1234), "1.234");
        assert_eq!(micros(1_000_007), "1000.007");
    }

    #[test]
    fn name_catalog_round_trips() {
        let all: Vec<(u8, TraceName)> = (0..=u8::MAX)
            .filter_map(|id| TraceName::from_u8(id).map(|name| (id, name)))
            .collect();
        assert_eq!(all.len(), 21);
        for &(id, name) in &all {
            assert_eq!(name as u8, id);
            let same_label = all.iter().filter(|(_, n)| n.label() == name.label());
            assert_eq!(same_label.count(), 1, "label {:?} repeats", name.label());
        }
        assert!(EventKind::from_u8(3).is_none());
    }
}
