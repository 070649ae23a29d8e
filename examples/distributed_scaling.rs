//! Distributed IMM over in-process ranks, plus the cluster-scale
//! prediction the reproduction uses in place of real MPI hardware.
//!
//! Part 1 runs the real distributed algorithm (ranks = threads, shared-
//! memory collectives) at several world sizes and verifies every rank
//! agrees on the seed set. Part 2 feeds the recorded work trace through the
//! α–β cost model to predict the strong-scaling curves of the paper's
//! Figures 7–8 on the two clusters it used.
//!
//! Run with: `cargo run --release -p ripples-core --example distributed_scaling`

use ripples_comm::{ClusterSpec, Communicator, ThreadWorld};
use ripples_core::dist::imm_distributed;
use ripples_core::scaling::{predict_distributed, WorkTrace};
use ripples_core::ImmParams;
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::standin;
use ripples_graph::WeightModel;

fn main() {
    let spec = standin("com-YouTube").expect("catalog entry");
    let graph = spec.build(64, WeightModel::UniformRandom { seed: 3 }, false);
    println!(
        "# {} stand-in: {} vertices, {} edges",
        spec.name,
        graph.num_vertices(),
        graph.num_edges()
    );
    let params = ImmParams::new(25, 0.5, DiffusionModel::IndependentCascade, 8);

    // --- Part 1: real distributed execution on in-process ranks ---------
    println!("\n## real execution (one thread per rank, shared-memory collectives)");
    println!(
        "{:>6} {:>10} {:>12} {:>14} {:>12}",
        "ranks", "theta", "seeds[0..3]", "allreduces", "bytes_moved"
    );
    let mut reference: Option<Vec<u32>> = None;
    for world_size in [1u32, 2, 4] {
        let world = ThreadWorld::new(world_size);
        let outputs = world.run(|comm| {
            let r = imm_distributed(comm, &graph, &params);
            (r, comm.stats())
        });
        let (first, stats) = &outputs[0];
        for (r, _) in &outputs {
            assert_eq!(r.seeds, first.seeds, "ranks disagreed on the seed set");
        }
        if let Some(ref expect) = reference {
            assert_eq!(&first.seeds, expect, "world size changed the answer");
        } else {
            reference = Some(first.seeds.clone());
        }
        println!(
            "{:>6} {:>10} {:>12} {:>14} {:>12}",
            world_size,
            first.theta,
            format!("{:?}", &first.seeds[..3.min(first.seeds.len())]),
            stats.allreduce_calls,
            stats.bytes_moved
        );
    }
    println!("all world sizes returned the identical seed set ✓");

    // --- Part 2: cluster-scale prediction from the replayed trace --------
    let world = ThreadWorld::new(1);
    let result = world
        .run(|comm| imm_distributed(comm, &graph, &params))
        .pop()
        .expect("one rank");
    let trace = WorkTrace::replay(&graph, &params, result.theta, 4);
    for cluster in [ClusterSpec::puma(), ClusterSpec::edison()] {
        let nodes: &[u32] = if cluster.name == "puma" {
            &[2, 4, 8, 16]
        } else {
            &[64, 128, 256, 512, 1024]
        };
        println!(
            "\n## predicted strong scaling on {} ({} threads/node, α–β model)",
            cluster.name, cluster.threads_per_node
        );
        println!(
            "{:>7} {:>12} {:>12} {:>12} {:>12} {:>9}",
            "nodes", "sample_s", "select_s", "comm_s", "total_s", "speedup"
        );
        let points = predict_distributed(&trace, &cluster, nodes);
        let base = points[0].total_s();
        for p in &points {
            println!(
                "{:>7} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>8.2}x",
                p.units,
                p.sample_s,
                p.select_s,
                p.comm_s,
                p.total_s(),
                base / p.total_s()
            );
        }
    }
    println!(
        "\nShapes to expect (paper Figures 7–8): sampling shrinks with node \
         count while the All-Reduce term grows logarithmically, so speedup \
         saturates — earlier for LT (tiny samples) than for IC."
    );
}
