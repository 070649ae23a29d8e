//! Distributed-vs-sequential equivalence: the strongest correctness check
//! the reproduction offers. Because sample content is keyed by global
//! sample index, a distributed run over any world size must return the
//! *identical* seed set, θ, and coverage as the sequential run.

use ripples_comm::{Communicator, SelfComm, ThreadWorld};
use ripples_core::dist::imm_distributed;
use ripples_core::seq::immopt_sequential;
use ripples_core::ImmParams;
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::{erdos_renyi, standin};
use ripples_graph::{Graph, WeightModel};

fn graph() -> Graph {
    erdos_renyi(
        350,
        2800,
        WeightModel::UniformRandom { seed: 31 },
        false,
        90,
    )
}

#[test]
fn world_sizes_match_sequential_ic() {
    let g = graph();
    let p = ImmParams::new(6, 0.5, DiffusionModel::IndependentCascade, 17);
    let seq = immopt_sequential(&g, &p);
    for size in [1u32, 2, 3, 4, 7] {
        let world = ThreadWorld::new(size);
        let results = world.run(|comm| imm_distributed(comm, &g, &p));
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(r.seeds, seq.seeds, "rank {rank} of {size}");
            assert_eq!(r.theta, seq.theta, "rank {rank} of {size}");
            assert!((r.coverage_fraction - seq.coverage_fraction).abs() < 1e-12);
        }
    }
}

#[test]
fn world_sizes_match_sequential_lt() {
    let g = erdos_renyi(350, 2800, WeightModel::UniformRandom { seed: 31 }, true, 90);
    let p = ImmParams::new(6, 0.5, DiffusionModel::LinearThreshold, 23);
    let seq = immopt_sequential(&g, &p);
    for size in [2u32, 5] {
        let world = ThreadWorld::new(size);
        let results = world.run(|comm| imm_distributed(comm, &g, &p));
        for r in results {
            assert_eq!(r.seeds, seq.seeds);
        }
    }
}

#[test]
fn selfcomm_equals_threadworld_of_one() {
    let g = graph();
    let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 3);
    let a = imm_distributed(&SelfComm::new(), &g, &p);
    let world = ThreadWorld::new(1);
    let b = world
        .run(|comm| imm_distributed(comm, &g, &p))
        .pop()
        .unwrap();
    assert_eq!(a.seeds, b.seeds);
    assert_eq!(a.theta, b.theta);
}

#[test]
fn local_sample_counts_partition_theta() {
    let g = graph();
    let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 3);
    let size = 4u32;
    let world = ThreadWorld::new(size);
    let results = world.run(|comm| {
        let r = imm_distributed(comm, &g, &p);
        // One batch per rank per growth: their sum is this rank's share.
        let local = r.report.thread_samples.sum() as usize;
        (comm.rank(), local, r.theta)
    });
    let theta = results[0].2;
    let total_local: usize = results.iter().map(|(_, local, _)| *local).sum();
    assert_eq!(
        total_local, theta,
        "local sample counts must partition θ exactly"
    );
    // Even split within one sample.
    for (rank, local, _) in results {
        let ideal = theta / size as usize;
        assert!(
            (local as i64 - ideal as i64).abs() <= 1,
            "rank {rank} holds {local} of {theta}"
        );
    }
}

#[test]
fn standin_distributed_run() {
    // A heavier end-to-end distributed run on a Table 2 stand-in.
    let spec = standin("com-DBLP").unwrap();
    let g = spec.build(128, WeightModel::UniformRandom { seed: 2 }, false);
    let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 6);
    let seq = immopt_sequential(&g, &p);
    let world = ThreadWorld::new(3);
    let results = world.run(|comm| imm_distributed(comm, &g, &p));
    for r in results {
        assert_eq!(r.seeds, seq.seeds);
    }
}
