//! Acceptance tests for the event tracer (ISSUE 2 tentpole): the disabled
//! path must record nothing, an enabled multithreaded run must export a
//! valid Chrome Trace with one track per worker, a deliberately tiny ring
//! must drop events (counted, never blocking) while still producing valid
//! JSON, and a distributed run must merge rank-tagged tracks from every
//! rank. The tracer is process-global, so every test takes a shared lock.

use ripples_comm::ThreadWorld;
use ripples_core::dist::imm_distributed;
use ripples_core::mt::imm_multithreaded;
use ripples_core::obs::trace;
use ripples_core::ImmParams;
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, WeightModel};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes tests: the tracer is process-global state.
fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

fn graph() -> Graph {
    erdos_renyi(
        300,
        2400,
        WeightModel::UniformRandom { seed: 31 },
        false,
        90,
    )
}

fn params() -> ImmParams {
    ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 17)
}

#[test]
fn disabled_tracer_records_nothing() {
    let _g = lock();
    trace::stop();
    let _ = trace::collect_all(); // flush anything a previous test left behind
    assert!(!trace::enabled());

    let r = imm_multithreaded(&graph(), &params(), 2);
    assert!(
        r.report.trace.is_none(),
        "disabled run must attach no trace"
    );
    let leftover = trace::collect_all();
    assert!(
        leftover.is_empty(),
        "disabled tracer wrote {} events",
        leftover.len()
    );
    assert_eq!(leftover.dropped, 0);
    assert!(r.report.to_json().contains("\"trace\":null"));
}

#[test]
fn mt_run_exports_valid_chrome_trace() {
    let _g = lock();
    trace::start(None);
    let r = imm_multithreaded(&graph(), &params(), 2);
    trace::stop();

    let t = r
        .report
        .trace
        .as_ref()
        .expect("traced run attaches a trace");
    assert!(!t.is_empty(), "no events recorded");
    assert_eq!(t.dropped, 0, "default ring must not drop on this tiny run");

    // The calling thread records the phase spans and selection marks.
    let names: Vec<trace::TraceName> = t.events.iter().map(|e| e.event.name).collect();
    assert!(names.contains(&trace::TraceName::EstimateTheta));
    assert!(names.contains(&trace::TraceName::SelectSeeds));
    assert!(names.contains(&trace::TraceName::SelectStep));
    assert!(names.contains(&trace::TraceName::SampleChunk));
    // Every report span lands as the event its kind names: one `round`
    // event per estimation round carrying its 1-based index, each with a
    // `sample` batch and a `select` pass inside.
    let rounds: Vec<u64> = (t.events.iter())
        .filter(|e| e.event.name == trace::TraceName::Round)
        .map(|e| e.event.arg0)
        .collect();
    let expect: Vec<u64> = (1..=r.report.counters.theta_rounds).collect();
    assert_eq!(rounds, expect);
    assert!(names.contains(&trace::TraceName::SampleBatch));
    assert!(names.contains(&trace::TraceName::Select));

    // The run pins a two-thread pool, so the sampler splits batches across
    // the calling thread and one spawned worker: two tracks, regardless of
    // how many CPUs the host has.
    let mut tids: Vec<u32> = t.events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(
        tids.len() >= 2,
        "expected multiple worker tracks, got {tids:?}"
    );

    let json = t.to_chrome_json();
    trace::json::parse(&json).expect("chrome export must be valid JSON");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""), "no complete (span) events");
    assert!(json.contains("\"ph\":\"i\""), "no instant (mark) events");
    assert!(json.contains("\"ph\":\"M\""), "no track metadata");
    assert!(json.contains("\"dropped\":0"));

    // The run report summarizes the trace without inlining it.
    let report_json = r.report.to_json();
    assert!(report_json.contains(&format!("\"trace\":{{\"events\":{}", t.len())));
}

#[test]
fn tiny_ring_drops_events_but_still_exports() {
    let _g = lock();
    trace::start(Some(4));
    let r = imm_multithreaded(&graph(), &params(), 2);
    trace::stop();

    let t = r.report.trace.as_ref().expect("trace attached");
    assert!(t.dropped > 0, "a 4-event ring must overflow on a full run");
    assert!(!t.is_empty(), "drops must not wipe the events that did fit");

    // Every lost event is attributed to a specific worker, and the
    // attribution sums back to the total.
    assert!(!t.dropped_by_worker.is_empty());
    let attributed: u64 = t.dropped_by_worker.iter().map(|d| d.dropped).sum();
    assert_eq!(attributed, t.dropped, "per-worker drops must sum to total");

    let json = t.to_chrome_json();
    trace::json::parse(&json).expect("overflowed trace still exports valid JSON");
    assert!(json.contains(&format!("\"dropped\":{}", t.dropped)));
    assert!(
        json.contains("\"dropped_by_worker\":[{\"rank\":"),
        "chrome export must carry per-worker drop metadata"
    );

    // The drop counter is never silent: it surfaces in both report formats.
    assert!(r
        .report
        .to_json()
        .contains(&format!("\"dropped\":{}", t.dropped)));
    assert!(r.report.render_pretty().contains("dropped"));
}

#[test]
fn distributed_run_merges_rank_tagged_tracks() {
    let _g = lock();
    trace::start(None);
    let g = graph();
    let p = params();
    let world = ThreadWorld::new(2);
    let results = world.run(|comm| imm_distributed(comm, &g, &p));
    trace::stop();
    let _ = trace::collect_all(); // drain sampler-worker rings left process-local

    assert_eq!(results.len(), 2);
    let traces: Vec<&trace::Trace> = results
        .iter()
        .map(|r| {
            r.report
                .trace
                .as_ref()
                .expect("each rank attaches the gathered trace")
        })
        .collect();
    // gather_trace is a collective: every rank holds the same merged timeline.
    assert_eq!(traces[0], traces[1]);

    let mut ranks: Vec<u32> = traces[0].events.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    assert_eq!(ranks, vec![0, 1], "events from both ranks must be merged");

    // Ranks exchange data, so comm events with byte payloads must appear.
    assert!(traces[0]
        .events
        .iter()
        .any(|e| e.event.name == trace::TraceName::CommAllReduce && e.event.arg0 > 0));

    let json = traces[0].to_chrome_json();
    trace::json::parse(&json).expect("distributed export must be valid JSON");
    assert!(json.contains("\"name\":\"rank 0\""));
    assert!(json.contains("\"name\":\"rank 1\""));
}
