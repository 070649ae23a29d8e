//! Integration tests for the live metrics registry (`ripples-metrics`)
//! threaded through the engines.
//!
//! The registry is process-global, so every test here serializes on one
//! gate mutex; this file is its own test binary, so other test binaries
//! cannot interfere.

use ripples_comm::ThreadWorld;
use ripples_core::dist::imm_distributed;
use ripples_core::dist_sharded::imm_sharded;
use ripples_core::mt::{imm_multithreaded, imm_multithreaded_with_storage};
use ripples_core::seq::{imm_baseline, immopt_sequential};
use ripples_core::tim::tim_plus;
use ripples_core::{ImmParams, RunReport, SampleEngine, SelectEngine};
use ripples_diffusion::{DiffusionModel, StorageConfig};
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, WeightModel};
use ripples_metrics::{phase, Kind, Metric, Reduce};
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
fn registry_mirrors_the_report_for_every_engine() {
    // Each counter is recorded once, in the batch outcome or the selection
    // stats, and the registry receives the same deltas. So at one rank
    // every live report row equals its cell; across the rank threads of a
    // world the cells sum, as the report's `Reduce::Sum` rows do, and
    // selection steps are counted once per world, as every rank's report
    // counts them. The RRR-size histogram counts each sample once.
    let _g = gate();
    let (graph, p) = (small_graph(), params());
    let run = |engine: &str, ranks: u32| {
        let world = ThreadWorld::new(ranks);
        match engine {
            "opt" => vec![immopt_sequential(&graph, &p)],
            "baseline" => vec![imm_baseline(&graph, &p)],
            "mt" => vec![imm_multithreaded(&graph, &p, 2)],
            "mt fused" => {
                let (select, sample) = (SelectEngine::Auto, SampleEngine::Fused);
                let storage = StorageConfig::default();
                vec![imm_multithreaded_with_storage(
                    &graph, &p, 2, select, sample, storage,
                )]
            }
            "tim" => vec![tim_plus(&graph, &p)],
            "dist" => world.run(|comm| imm_distributed(comm, &graph, &p)),
            "sharded" => world.run(|comm| imm_sharded(comm, &graph, &p)),
            _ => unreachable!("{engine}"),
        }
    };
    let (shared, ranked): (&[u32], &[u32]) = (&[1], &[1, 2, 4]);
    let engines = [
        ("opt", shared),
        ("baseline", shared),
        ("mt", shared),
        ("mt fused", shared),
        ("tim", shared),
        ("dist", ranked),
        ("sharded", ranked),
    ];
    for (name, rank_counts) in engines {
        for &ranks in rank_counts {
            ripples_metrics::enable();
            let results = run(name, ranks);
            let live = ripples_metrics::snapshot();
            ripples_metrics::disable();
            for (rank, counters) in results.iter().map(|r| &r.report.counters).enumerate() {
                let at = format!("{name} at {ranks} ranks, rank {rank}");
                for (metric, value) in counters.rows() {
                    let row = metric.row();
                    let world = row.reduce == Reduce::Sum || metric == Metric::SelectIterations;
                    if row.live && (ranks == 1 || world) {
                        assert_eq!(live.value(metric), value, "{at}: {}", metric.name());
                    }
                }
                assert_eq!(live.hist_count, counters.samples_generated, "{at}");
            }
            let recorded = live.hist_count > 0 && live.value(Metric::SelectIterations) > 0;
            assert!(recorded, "{name} at {ranks} ranks");
        }
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
