//! Quickstart: find the 10 most influential vertices of a random social
//! network and check how much of the graph they actually activate.
//!
//! Run with: `cargo run --release -p ripples-core --example quickstart`

use ripples_core::{maximize_influence, ImmParams};
use ripples_diffusion::{estimate_spread, DiffusionModel};
use ripples_graph::{generators::barabasi_albert, GraphStats, WeightModel};
use ripples_rng::StreamFactory;

fn main() {
    // 1. Build (or load) a graph. Here: a 5 000-vertex Barabási–Albert
    //    network under the weighted-cascade model (p(u→v) = 1/indeg(v)),
    //    the standard sub-critical IC setting where seed choice matters.
    let graph = barabasi_albert(5_000, 4, WeightModel::WeightedCascade, false, 7);
    let stats = GraphStats::of(&graph);
    println!(
        "graph: {} vertices, {} edges, avg degree {:.2}, max degree {}",
        stats.nodes, stats.edges, stats.avg_degree, stats.max_out_degree
    );

    // 2. Run IMM: k = 10 seeds at accuracy ε = 0.5 under Independent
    //    Cascade. The result carries the paper's full instrumentation.
    let params = ImmParams::new(10, 0.5, DiffusionModel::IndependentCascade, 1);
    let result = maximize_influence(&graph, &params);
    println!(
        "IMM: θ = {} samples, coverage = {:.4}, phases: {}",
        result.theta,
        result.coverage_fraction,
        result.report.phase_timers()
    );
    println!("seeds: {:?}", result.seeds);

    // 3. Validate the seed set with forward Monte-Carlo simulation.
    let factory = StreamFactory::new(99);
    let spread = estimate_spread(
        &graph,
        DiffusionModel::IndependentCascade,
        &result.seeds,
        2_000,
        &factory,
    );
    let coverage_estimate = result.coverage_influence_estimate(graph.num_vertices());
    println!(
        "expected influence: {spread:.1} vertices by forward simulation \
         (RRR coverage estimator said {coverage_estimate:.1})"
    );

    // 4. Compare against naive seed choices.
    let random_seeds: Vec<u32> = (0..10).map(|i| i * 97 % graph.num_vertices()).collect();
    let random_spread = estimate_spread(
        &graph,
        DiffusionModel::IndependentCascade,
        &random_seeds,
        2_000,
        &factory,
    );
    println!(
        "random seeds reach {random_spread:.1} vertices — IMM's advantage: {:.1}×",
        spread / random_spread.max(1.0)
    );
}
