//! Integration tests for the live metrics registry (`ripples-metrics`)
//! threaded through the engines.
//!
//! The registry is process-global, so every test here serializes on one
//! gate mutex; this file is its own test binary, so other test binaries
//! cannot interfere.

use ripples_comm::ThreadWorld;
use ripples_core::dist::imm_distributed;
use ripples_core::mt::imm_multithreaded;
use ripples_core::{ImmParams, ImmResult, RunReport};
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, WeightModel};
use ripples_metrics::{phase, Kind, Metric};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn small_graph() -> Graph {
    erdos_renyi(400, 3200, WeightModel::UniformRandom { seed: 7 }, false, 42)
}

fn params() -> ImmParams {
    ImmParams::new(8, 0.5, DiffusionModel::IndependentCascade, 0)
}

#[test]
fn concurrent_increments_sum_exactly() {
    let _g = gate();
    ripples_metrics::enable();
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    ripples_metrics::add(Metric::SamplesGenerated, 3);
                }
            });
        }
    });
    assert_eq!(
        ripples_metrics::get(Metric::SamplesGenerated),
        THREADS * PER_THREAD * 3,
        "lock-free counter must not lose increments under contention"
    );
    ripples_metrics::disable();
}

#[test]
fn disabled_registry_records_nothing() {
    let _g = gate();
    ripples_metrics::disable();
    let before = ripples_metrics::snapshot();
    ripples_metrics::add(Metric::SamplesGenerated, 1_000);
    ripples_metrics::set(Metric::Phase, phase::SAMPLE);
    ripples_metrics::set_max(Metric::RrrBytesPeak, u64::MAX);
    ripples_metrics::observe_rrr_size(64);
    let after = ripples_metrics::snapshot();
    assert_eq!(
        before.values, after.values,
        "disabled writers must be no-ops"
    );
    assert_eq!(before.hist_count, after.hist_count);
    assert_eq!(before.hist_sum, after.hist_sum);
}

#[test]
fn sampler_observes_a_real_run_and_finalizes_cleanly() {
    let _g = gate();
    let graph = small_graph();
    let p = params();
    ripples_metrics::enable();
    let handle = ripples_metrics::start_sampler(Duration::from_millis(5), None);
    let result = imm_multithreaded(&graph, &p, 2);
    let series = handle.finalize();
    let final_metric = ripples_metrics::get(Metric::SamplesGenerated);
    ripples_metrics::disable();

    assert!(!result.seeds.is_empty());
    assert!(series.samples.len() >= 3, "start + phase pulses + final");
    let last = series.samples.last().expect("series is never empty");
    assert_eq!(
        last.value(Metric::SamplesGenerated),
        final_metric,
        "finalize must capture the final registry state"
    );
    assert_eq!(
        final_metric, result.report.counters.samples_generated,
        "registry counter must agree with the RunReport counter"
    );
    assert_eq!(
        last.value(Metric::Phase),
        phase::IDLE,
        "phase gauge must return to idle after the run"
    );
    // Phase pulses guarantee the sub-cadence selection phase still shows
    // up somewhere in the series.
    let phases: Vec<u64> = series
        .samples
        .iter()
        .map(|s| s.value(Metric::Phase))
        .collect();
    assert!(phases.contains(&phase::SAMPLE), "sampling phase observed");
    assert!(phases.contains(&phase::SELECT), "selection phase observed");
    // So do round boundaries, and the round gauge resets with the phase.
    let rounds = series.samples.iter().map(|s| s.value(Metric::Round));
    assert_eq!(rounds.max(), Some(result.report.counters.theta_rounds));
    assert_eq!(last.value(Metric::Round), 0);
    assert!(
        last.hist_count > 0,
        "RRR size histogram must have observations"
    );

    // After finalize the series is owned and immutable: nothing written
    // after shutdown can appear in it.
    ripples_metrics::enable();
    ripples_metrics::add(Metric::SamplesGenerated, 999);
    ripples_metrics::disable();
    assert_eq!(
        series
            .samples
            .last()
            .expect("non-empty")
            .value(Metric::SamplesGenerated),
        final_metric,
        "no samples or mutations after shutdown"
    );
}

#[test]
fn tiny_cadence_long_run_stays_bounded() {
    let _g = gate();
    ripples_metrics::enable();
    let handle = ripples_metrics::start_sampler_with_cap(Duration::from_millis(1), 32, None);
    std::thread::sleep(Duration::from_millis(150));
    let series = handle.finalize();
    ripples_metrics::disable();
    assert!(
        series.samples.len() <= 32,
        "sample cap must bound memory, got {}",
        series.samples.len()
    );
    assert!(series.downsample_halvings >= 1, "must have downsampled");
    // Retained samples stay time-ordered through downsampling.
    let ts: Vec<u64> = series.samples.iter().map(|s| s.t_ms).collect();
    let mut sorted = ts.clone();
    sorted.sort_unstable();
    assert_eq!(ts, sorted, "series must remain chronological");
}

#[test]
fn dist_world_sizes_reduce_consistently() {
    let _g = gate();
    let graph = small_graph();
    let p = params();
    let mut per_world = Vec::new();
    for world in [1u32, 2, 4] {
        ripples_metrics::enable();
        let results: Vec<ImmResult> =
            ThreadWorld::new(world).run(|comm| imm_distributed(comm, &graph, &p));
        let metric_total = ripples_metrics::get(Metric::SamplesGenerated);
        let live_iterations = ripples_metrics::get(Metric::SelectIterations);
        let live_touched = ripples_metrics::get(Metric::SelectEntriesTouched);
        ripples_metrics::disable();

        // dist all-reduces its counters (`globalize_counters`), so every
        // rank's report already carries the world total — the shared
        // registry, summing each rank's local generation, must agree.
        // Selection steps are counted once per world (the report's row is
        // per rank, and every rank takes the same steps); the entries each
        // rank's selection read sum like the samples.
        for (rank, r) in results.iter().enumerate() {
            let c = &r.report.counters;
            assert_eq!(
                metric_total, c.samples_generated,
                "world={world} rank={rank}: shared registry must equal the globalized counter"
            );
            assert_eq!(
                live_iterations, c.select_iterations,
                "world={world} rank={rank}"
            );
            assert_eq!(
                live_touched, c.select_entries_touched,
                "world={world} rank={rank}"
            );
        }
        assert!(live_iterations > 0 && live_touched > 0, "world={world}");
        let theta = results[0].theta as u64;
        assert!(
            metric_total >= theta,
            "world={world}: at least theta samples generated ({metric_total} < {theta})"
        );
        per_world.push((world, theta, results[0].seeds.clone()));
    }
    // The rank-reduced series describes the same computation at every
    // world size: identical theta and identical seed sets.
    let (_, theta1, seeds1) = &per_world[0];
    for (world, theta, seeds) in &per_world[1..] {
        assert_eq!(theta, theta1, "world={world}: theta must match world=1");
        assert_eq!(seeds, seeds1, "world={world}: seeds must match world=1");
    }
}

#[test]
fn catalog_reaches_every_export() {
    let _g = gate();
    // A distinct value per row, so a row wired to the wrong field shows.
    let value = |m: Metric| 1000 + m as u64;
    let mut report = RunReport::new("catalog");
    ripples_metrics::enable();
    for m in Metric::ALL {
        if let Some(field) = report.counters.get_mut(m) {
            *field = value(m);
        }
        ripples_metrics::set(m, value(m));
    }
    let sample = ripples_metrics::snapshot();
    ripples_metrics::disable();

    let json = report.to_json();
    let pretty = report.render_pretty();
    let prom = ripples_metrics::prometheus_text(&sample);
    let series = ripples_metrics::TimeSeries {
        interval_ms: 0,
        downsample_halvings: 0,
        samples: vec![sample],
    }
    .to_json();
    let series = ripples_trace::json::parse(&series).expect("series is JSON");
    let header = series.get("metrics").and_then(|h| h.as_array()).unwrap();
    let cells = series.get("samples").and_then(|s| s.as_array()).unwrap()[0]
        .get("v")
        .and_then(|v| v.as_array())
        .unwrap();
    assert_eq!(series.str("schema"), Some("ripples-metrics-v2"));

    let mut column = 0;
    for m in Metric::ALL {
        let (name, row) = (m.name(), m.row());
        assert!(row.in_report || row.live, "{name}: exported nowhere");
        let keyed = format!("\"{name}\":{},", value(m));
        assert_eq!(json.contains(&keyed), row.in_report, "{name} in to_json");
        let gap = if row.unit.is_empty() { "" } else { " " };
        let line = format!("  {name:<23} {}{gap}{}\n", value(m), row.unit);
        assert_eq!(pretty.contains(&line), row.in_report, "{name} in pretty");
        let total = if row.kind == Kind::Counter {
            "_total"
        } else {
            ""
        };
        let exposed = format!("\nripples_{name}{total} {}\n", value(m));
        assert_eq!(prom.contains(&exposed), row.live, "{name} in prometheus");
        if row.live {
            assert_eq!(header[column].str("name"), Some(name), "column {column}");
            assert_eq!(cells[column].as_f64(), Some(value(m) as f64), "{name}");
            column += 1;
        }
    }
    assert_eq!(column, header.len());
    assert_eq!(column, cells.len());
}
