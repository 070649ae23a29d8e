//! Ablation 8: dense All-Reduce (the paper's §3.2 selection) vs sparse
//! All-Gatherv counter aggregation — wall-clock here, plus the modeled byte
//! volumes that matter at cluster scale (printed once before timing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ripples_comm::{Communicator, ThreadWorld};
use ripples_core::dist::{imm_distributed_with_storage, DistRngMode, DistSelectMode};
use ripples_core::ImmParams;
use ripples_diffusion::{DiffusionModel, StorageConfig};
use ripples_graph::generators::standin;
use ripples_graph::WeightModel;

fn bench_comm_modes(c: &mut Criterion) {
    let spec = standin("cit-HepTh").unwrap();
    let graph = spec.build(32, WeightModel::UniformRandom { seed: 6 }, false);
    let params = ImmParams::new(20, 0.5, DiffusionModel::IndependentCascade, 4);
    let world = ThreadWorld::new(2);

    let rng = DistRngMode::IndexedStreams;
    let flat = StorageConfig::default();

    for (label, mode) in [
        ("dense", DistSelectMode::DenseAllReduce),
        ("sparse", DistSelectMode::SparseAllGather),
    ] {
        let bytes = world
            .run(|comm| {
                let _ = imm_distributed_with_storage(comm, &graph, &params, rng, mode, flat);
                comm.stats().bytes_moved
            })
            .into_iter()
            .max()
            .unwrap();
        eprintln!("{label}: modeled bytes moved per rank = {bytes}");
    }

    let mut group = c.benchmark_group("dist_select_comm");
    group.sample_size(10);
    for (label, mode) in [
        ("dense_allreduce", DistSelectMode::DenseAllReduce),
        ("sparse_allgather", DistSelectMode::SparseAllGather),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &mode, |b, &mode| {
            b.iter(|| {
                world.run(|comm| {
                    imm_distributed_with_storage(comm, &graph, &params, rng, mode, flat).theta
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_comm_modes);
criterion_main!(benches);
