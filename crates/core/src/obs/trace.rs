//! Structured event tracing for IMM runs.
//!
//! This module re-exports the [`ripples_trace`] tracer (see that crate for
//! the ring-buffer design and the Chrome Trace Event export) and adds the
//! one piece that needs the communicator: gathering per-rank timelines into
//! a single rank-tagged [`Trace`].
//!
//! # Lifecycle
//!
//! 1. The harness (CLI `--trace`, or a test) calls [`start`] before the run.
//! 2. The engines, the sampler, and the communicator backends record events
//!    whenever [`enabled`] — every [`super::RunReport`] span exit becomes a
//!    Chrome `X` event, every parallel sampling block a `sample-chunk`
//!    span, every greedy selection step a `select-step` mark, and every
//!    collective a span carrying its payload bytes.
//! 3. At run end the engine attaches the merged timeline to
//!    `RunReport::trace`: shared-memory engines via [`collect_all`] (one
//!    track per worker thread), distributed engines via [`gather_trace`]
//!    (one process per rank, gathered over the communicator).
//! 4. The harness calls [`stop`] and exports with [`Trace::to_chrome_json`].

pub use ripples_trace::{
    collect_all, complete, counter, enabled, encode_thread_events, json, mark, ns_since_epoch,
    set_thread_rank, start, stop, EventKind, Trace, TraceEvent, TraceName, TraceRecord,
    CAPACITY_ENV, DEFAULT_CAPACITY,
};

use ripples_comm::Communicator;

/// Gathers every rank's main-thread events over `comm` into one merged,
/// rank-tagged trace. A collective: every rank of the world must call it,
/// and every rank returns the same merged trace.
///
/// Each rank contributes the events recorded on its calling (rank) thread —
/// engine spans, selection marks, collectives, and the sampling chunk it
/// executed itself. Sampling chunks executed on short-lived worker threads
/// stay in the process-local ring pool (visible to [`collect_all`], used by
/// the shared-memory engines) rather than being attributed to a rank.
pub fn gather_trace<C: Communicator + ?Sized>(comm: &C) -> Trace {
    let mine = encode_thread_events();
    let buffers = comm.all_gather_u64_list(&mine);
    Trace::from_rank_buffers(&buffers)
}
