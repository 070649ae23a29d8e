//! Acceptance test for the run-report observability layer: all five IMM
//! entry points (Tang baseline, sequential, multithreaded,
//! distributed-replicated, distributed-sharded) must return populated
//! [`RunReport`]s, and the deterministic counters —
//! samples generated, total RRR entries, θ estimation rounds — must be
//! *identical* across thread counts and rank counts for the same seed.
//! That invariance is what makes the counters trustworthy for
//! cross-configuration regression comparisons. All five run the one
//! martingale driver, so they must also agree on the report's *shape*.

use ripples_comm::{Communicator, SelfComm, ThreadWorld};
use ripples_core::dist::imm_distributed;
use ripples_core::dist_sharded::imm_sharded;
use ripples_core::mt::imm_multithreaded;
use ripples_core::obs::SpanNode;
use ripples_core::seq::{imm_baseline, immopt_sequential};
use ripples_core::{ImmParams, ImmResult, RunReport};
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, GraphBuilder, WeightModel};

/// The five IMM engines behind one call, for the table-driven tests.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Engine {
    Baseline,
    Opt,
    Mt,
    Dist,
    Sharded,
}

impl Engine {
    const ALL: [Engine; 5] = [
        Engine::Baseline,
        Engine::Opt,
        Engine::Mt,
        Engine::Dist,
        Engine::Sharded,
    ];

    /// The `engine` label the run report must carry.
    fn label(self) -> &'static str {
        match self {
            Engine::Baseline => "baseline",
            Engine::Opt => "immopt",
            Engine::Mt => "mt",
            Engine::Dist => "dist",
            Engine::Sharded => "sharded",
        }
    }

    fn uses_comm(self) -> bool {
        matches!(self, Engine::Dist | Engine::Sharded)
    }

    /// The sharded engine keys coin flips by `(sample, vertex)`, so it
    /// draws a different (equally valid) sample population than the
    /// index-keyed engines.
    fn vertex_keyed(self) -> bool {
        self == Engine::Sharded
    }

    /// Runs on this rank of `comm`; the shared-memory engines ignore it.
    fn run<C: Communicator>(self, comm: &C, g: &Graph, p: &ImmParams) -> ImmResult {
        match self {
            Engine::Baseline => imm_baseline(g, p),
            Engine::Opt => immopt_sequential(g, p),
            Engine::Mt => imm_multithreaded(g, p, 2),
            Engine::Dist => imm_distributed(comm, g, p),
            Engine::Sharded => imm_sharded(comm, g, p),
        }
    }
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

/// The counters that must not depend on how the run was parallelized:
/// every report row the catalog flags deterministic, by name.
fn deterministic_counters(r: &ImmResult) -> Vec<(&'static str, u64)> {
    let rows = r.report.counters.rows();
    rows.filter(|(m, _)| m.row().deterministic)
        .map(|(m, v)| (m.name(), v))
        .collect()
}

fn assert_populated(report: &RunReport, engine: &str) {
    assert_eq!(report.engine, engine);
    assert!(
        report.counters.samples_generated > 0,
        "{engine}: no samples"
    );
    assert!(report.counters.rrr_entries > 0, "{engine}: no entries");
    assert!(report.counters.theta_rounds > 0, "{engine}: no rounds");
    assert!(report.counters.theta_final > 0, "{engine}: no final theta");
    assert_eq!(
        report.counters.round_budgets.len(),
        report.counters.theta_rounds as usize,
        "{engine}: one budget per round"
    );
    assert_eq!(
        report.counters.round_coverage.len(),
        report.counters.theta_rounds as usize
    );
    assert!(
        report.rrr_sizes.count() > 0,
        "{engine}: empty size histogram"
    );
    assert!(!report.spans().is_empty(), "{engine}: empty span tree");
    // The flat phase view is derived from the span tree.
    let span_nanos: u128 = report.spans().iter().map(|s| s.nanos).sum();
    assert_eq!(report.phase_timers().total().as_nanos(), span_nanos);
    assert_eq!(
        report.counters.unsorted_pushes, 0,
        "{engine}: generator bug"
    );
}

#[test]
fn all_entry_points_agree_on_deterministic_counters() {
    let g = graph();
    let p = params();

    let seq = immopt_sequential(&g, &p);
    assert_populated(&seq.report, "immopt");
    assert!(seq.report.comm.is_none(), "sequential run has no comm");
    let expect = deterministic_counters(&seq);
    for name in ["rrr_sets_bitmap", "rrr_sets_complement"] {
        assert!(expect.iter().any(|&(row, _)| row == name), "{name}");
    }
    assert_eq!(seq.report.counters.theta_final, seq.theta as u64);
    assert_eq!(seq.report.rrr_sizes.count(), seq.theta as u64);
    // Uniform probabilities on 300 vertices: most cascades span more than
    // n/32 of them. Each bitmap costs ⌈300/64⌉ = 5 words; each complement
    // leaves out at most 9 vertices (32·9 < 300), 4 bytes each.
    let c = &seq.report.counters;
    let (bitmaps, complements) = (c.rrr_sets_bitmap, c.rrr_sets_complement);
    assert!(bitmaps + complements > 0 && bitmaps + complements <= seq.theta as u64);
    assert_eq!(c.rrr_bitmap_bytes, bitmaps * 5 * 8);
    assert!(
        c.rrr_complement_bytes.is_multiple_of(4) && c.rrr_complement_bytes <= complements * 9 * 4
    );

    // Multithreaded: identical counters at every thread count.
    for threads in [1usize, 2, 4] {
        let r = imm_multithreaded(&g, &p, threads);
        assert_populated(&r.report, "mt");
        assert_eq!(
            deterministic_counters(&r),
            expect,
            "mt at {threads} threads diverged"
        );
    }

    // Distributed (replicated graph): counters are globalized over ranks,
    // so every rank of every world size reports the same totals.
    for size in [1u32, 2, 3] {
        let world = ThreadWorld::new(size);
        let results = world.run(|comm| imm_distributed(comm, &g, &p));
        for (rank, r) in results.iter().enumerate() {
            assert_populated(&r.report, "dist");
            assert_eq!(
                deterministic_counters(r),
                expect,
                "dist rank {rank} of {size} diverged"
            );
            let comm = r.report.comm.expect("distributed run must report comm");
            assert!(comm.allreduce_calls > 0, "no collectives recorded");
        }
    }
}

#[test]
fn sharded_counters_invariant_across_world_sizes() {
    let g = graph();
    let p = params();

    // The sharded engine samples cooperatively (coin flips keyed by
    // (sample, vertex)), so its edge counts differ from the replicated
    // engines' BFS — but they must still be invariant across world sizes.
    let anchor = imm_sharded(&SelfComm::new(), &g, &p);
    let expect = deterministic_counters(&anchor);
    let expect_edges = anchor.report.counters.edges_examined;
    assert!(expect_edges > 0);
    // Σ |covered sample|, whichever ranks purged through an index: ranks
    // decide `uses_index` from their own share of the samples.
    let expect_touched = anchor.report.counters.select_entries_touched;
    assert!(expect_touched > 0);

    for size in [1u32, 2, 3] {
        let world = ThreadWorld::new(size);
        let results = world.run(|comm| imm_sharded(comm, &g, &p));
        for (rank, r) in results.iter().enumerate() {
            assert_populated(&r.report, "sharded");
            assert_eq!(
                deterministic_counters(r),
                expect,
                "sharded rank {rank} of {size} diverged"
            );
            assert_eq!(
                r.report.counters.edges_examined, expect_edges,
                "sharded rank {rank} of {size}: edge work diverged"
            );
            assert_eq!(
                r.report.counters.select_entries_touched, expect_touched,
                "sharded rank {rank} of {size}: purge work diverged"
            );
            assert!(r.report.comm.is_some());
        }
    }
}

/// Span names and nesting, without the timings.
fn span_shape(spans: &[SpanNode]) -> String {
    spans
        .iter()
        .map(|s| format!("{}[{}]", s.name, span_shape(&s.children)))
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn every_engine_reports_the_one_drivers_shape() {
    let g = graph();
    let p = params();
    let reference = immopt_sequential(&g, &p);
    let shape = span_shape(reference.report.spans());
    assert!(shape.starts_with("EstimateTheta[round-1[sample[],select[]]"));
    assert!(shape.ends_with("SelectSeeds[]"));
    let vertex_keyed = imm_sharded(&SelfComm::new(), &g, &p);

    for engine in Engine::ALL {
        let label = engine.label();
        let world = ThreadWorld::new(2);
        for r in world.run(|comm| engine.run(comm, &g, &p)) {
            let c = &r.report.counters;
            let expect = &reference.report.counters;
            assert_eq!(r.report.engine, label);
            assert_eq!(span_shape(r.report.spans()), shape, "{label}: span tree");
            assert_eq!(c.round_budgets, expect.round_budgets, "{label}");
            assert_eq!(c.theta_rounds, expect.theta_rounds, "{label}");
            assert_eq!(c.select_iterations, expect.select_iterations, "{label}");
            // θ follows the coverage of the sampled population, which the
            // vertex-keyed engines draw from a different RNG schedule.
            let theta = if engine.vertex_keyed() {
                vertex_keyed.theta
            } else {
                reference.theta
            };
            assert_eq!(c.theta_final, theta as u64, "{label}");
            assert_eq!(r.theta, theta, "{label}");
            assert_eq!(r.report.rrr_sizes.count(), c.samples_generated, "{label}");
            assert_eq!(r.report.comm.is_some(), engine.uses_comm(), "{label}");
        }
    }
}

#[test]
fn degenerate_graphs_keep_each_engines_label_and_comm_section() {
    let p = params();
    for n in [0u32, 1] {
        let g = GraphBuilder::new(n).build().unwrap();
        let seeds: Vec<u32> = (0..n).collect();
        for engine in Engine::ALL {
            let label = engine.label();
            let mut results = vec![engine.run(&SelfComm::new(), &g, &p)];
            results.extend(ThreadWorld::new(2).run(|comm| engine.run(comm, &g, &p)));
            for r in results {
                assert_eq!(r.report.engine, label, "n = {n}");
                assert_eq!(r.seeds, seeds, "{label}, n = {n}");
                assert_eq!(r.theta, 0, "{label}, n = {n}");
                assert!(r.report.spans().is_empty(), "{label}, n = {n}");
                assert_eq!(
                    r.report.comm.is_some(),
                    engine.uses_comm(),
                    "{label}, n = {n}: comm section"
                );
                assert_eq!(r.report.counters.degraded_ranks, 0, "{label}, n = {n}");
            }
        }
    }
}

#[test]
fn distributed_edge_work_matches_sequential_in_indexed_mode() {
    // In IndexedStreams mode every global sample is generated exactly once
    // somewhere with an identical RNG stream, so even the *work* counter is
    // rank-count invariant and equals the sequential run's.
    let g = graph();
    let p = params();
    let seq = immopt_sequential(&g, &p);
    for size in [1u32, 3] {
        let world = ThreadWorld::new(size);
        let results = world.run(|comm| imm_distributed(comm, &g, &p));
        for r in results {
            assert_eq!(
                r.report.counters.edges_examined, seq.report.counters.edges_examined,
                "world {size}"
            );
        }
    }
}

#[test]
fn report_exports_render() {
    let g = graph();
    let p = params();
    let r = immopt_sequential(&g, &p);
    let json = r.report.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"samples_generated\""));
    assert!(json.contains("\"engine\":\"immopt\""));
    let pretty = r.report.render_pretty();
    assert!(pretty.contains("EstimateTheta"));
    assert!(pretty.contains("samples"));
}
