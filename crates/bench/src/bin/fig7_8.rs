//! Figures 7 & 8: distributed strong scaling on the four biggest graphs
//! (ε = 0.13, k = 200) — up to 16 nodes of Puma (Figure 7) and up to 1024
//! nodes of Edison (Figure 8), both models.
//!
//! Real MPI clusters are unavailable here (see DESIGN.md), so the harness:
//!
//! 1. **executes** the real distributed algorithm on in-process ranks
//!    (validating collectives and cross-rank agreement), and
//! 2. **predicts** cluster-scale wall-clock by replaying the recorded work
//!    trace through the α–β communication model — the series the paper
//!    plots.
//!
//! Usage: `cargo run --release -p ripples-bench --bin fig7_8 -- \
//!            [--cluster puma|edison] [--model ic|lt|both] [--scale-div N] \
//!            [--epsilon E] [--k K] [--ranks R] [--csv]`

use ripples_bench::{big_four, effective_divisor, paper_graph, Args, Table};
use ripples_comm::{ClusterSpec, ThreadWorld};
use ripples_core::dist::imm_distributed;
use ripples_core::scaling::{predict_distributed, WorkTrace};
use ripples_core::ImmParams;
use ripples_diffusion::DiffusionModel;

fn main() {
    let args = Args::from_env();
    let scale_div: u32 = args.parse_or("scale-div", 16);
    let epsilon: f64 = args.parse_or("epsilon", 0.13);
    let k: u32 = args.parse_or("k", 200);
    let validation_ranks: u32 = args.parse_or("ranks", 2);
    let clusters: Vec<ClusterSpec> = match args.get("cluster").unwrap_or("both") {
        "edison" => vec![ClusterSpec::edison()],
        "puma" => vec![ClusterSpec::puma()],
        _ => vec![ClusterSpec::puma(), ClusterSpec::edison()],
    };
    let nodes_for = |cluster: &ClusterSpec| -> &'static [u32] {
        if cluster.name == "edison" {
            &[64, 128, 256, 512, 1024]
        } else {
            &[2, 4, 6, 8, 10, 12, 14, 16]
        }
    };
    let models: Vec<DiffusionModel> = match args.get("model").unwrap_or("both") {
        "ic" => vec![DiffusionModel::IndependentCascade],
        "lt" => vec![DiffusionModel::LinearThreshold],
        _ => vec![
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ],
    };

    println!("# Figures 7/8 reproduction: distributed strong scaling (ε = {epsilon}, k = {k})");
    println!("# validated on {validation_ranks} real in-process ranks, then replayed through the α–β model\n");

    let mut table = Table::new(vec![
        "cluster", "graph", "model", "nodes", "sample_s", "select_s", "comm_s", "total_s",
        "speedup",
    ]);
    for spec in big_four() {
        let divisor = effective_divisor(spec, scale_div);
        for &model in &models {
            let graph = paper_graph(spec, divisor, model);
            let params = ImmParams::new(k, epsilon, model, 0xF78);

            // Real distributed execution: ranks must agree bit-for-bit.
            let world = ThreadWorld::new(validation_ranks);
            let results = world.run(|comm| imm_distributed(comm, &graph, &params));
            let first = &results[0];
            for r in &results[1..] {
                assert_eq!(r.seeds, first.seeds, "{}: ranks disagreed", spec.name);
            }

            // Cluster-scale prediction from the run's replayed work.
            let trace = WorkTrace::replay(&graph, &params, first.theta, 4);
            for cluster in &clusters {
                let points = predict_distributed(&trace, cluster, nodes_for(cluster));
                let base = points[0].total_s();
                for p in &points {
                    table.row(vec![
                        cluster.name.to_string(),
                        spec.name.to_string(),
                        model.tag().to_string(),
                        p.units.to_string(),
                        format!("{:.3}", p.sample_s),
                        format!("{:.3}", p.select_s),
                        format!("{:.3}", p.comm_s),
                        format!("{:.3}", p.total_s()),
                        format!("{:.2}x", base / p.total_s()),
                    ]);
                }
            }
            eprintln!("done: {} {} (θ = {})", spec.name, model.tag(), first.theta);
        }
    }
    table.print(args.flag("csv"));
    println!(
        "\n# expected shape (paper): IC keeps scaling to high node counts; LT saturates early"
    );
    println!("# (insufficient work per rank) and the All-Reduce term grows with lg(nodes)");
}
