//! CommStats parity across communicator backends (ISSUE 2 satellite):
//! `SelfComm` and a single-rank `ThreadWorld` must report *identical*
//! collective call counts and byte totals for the same distributed run —
//! the algorithm cannot tell them apart, so neither may the accounting.
//! Bytes agree at size 1 because both charge zero (`ThreadComm` models
//! `payload × ⌈log₂ size⌉` rounds, and ⌈log₂ 1⌉ = 0 matches "no bytes
//! move inside one address space"). At larger world sizes the call counts
//! stay rank-invariant and the modeled bytes scale with the log factor.

use ripples_comm::{SelfComm, ThreadWorld};
use ripples_core::dist::imm_distributed;
use ripples_core::ImmParams;
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, WeightModel};

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
fn selfcomm_and_single_rank_threadworld_report_identical_stats() {
    let g = graph();
    let p = params();

    let self_run = imm_distributed(&SelfComm::new(), &g, &p);
    let self_comm = self_run.report.comm.expect("dist run reports comm");

    let world = ThreadWorld::new(1);
    let mut results = world.run(|comm| imm_distributed(comm, &g, &p));
    let thread_run = results.pop().expect("one rank");
    let thread_comm = thread_run.report.comm.expect("dist run reports comm");

    assert_eq!(self_run.seeds, thread_run.seeds, "same run, same answer");
    assert_eq!(self_comm.allreduce_calls, thread_comm.allreduce_calls);
    assert_eq!(self_comm.allgather_calls, thread_comm.allgather_calls);
    assert_eq!(
        self_comm.bytes_moved, thread_comm.bytes_moved,
        "at world size 1 both backends must charge the same bytes"
    );
    assert_eq!(self_comm.bytes_moved, 0, "no bytes move inside one rank");
}

#[test]
fn partitioned_engine_parity_at_size_one() {
    // The graph-partitioned engine (`sharded`) under the LT model, with the
    // in-weight normalization pass LT needs.
    use ripples_core::dist_sharded::imm_sharded;
    let model = DiffusionModel::LinearThreshold;
    let g = erdos_renyi(300, 2400, WeightModel::UniformRandom { seed: 31 }, true, 90);
    let p = ImmParams::new(5, 0.5, model, 17);

    let self_run = imm_sharded(&SelfComm::new(), &g, &p);
    let self_comm = self_run.report.comm.expect("sharded run reports comm");

    let world = ThreadWorld::new(1);
    let mut results = world.run(|comm| imm_sharded(comm, &g, &p));
    let thread_run = results.pop().expect("one rank");
    let thread_comm = thread_run.report.comm.expect("sharded run reports comm");

    assert_eq!(self_run.seeds, thread_run.seeds);
    assert_eq!(self_run.theta, thread_run.theta);
    assert_eq!(self_comm.allreduce_calls, thread_comm.allreduce_calls);
    assert_eq!(self_comm.allgather_calls, thread_comm.allgather_calls);
    assert_eq!(self_comm.exchange_calls, thread_comm.exchange_calls);
    assert_eq!(self_comm.bytes_moved, thread_comm.bytes_moved);
    assert_eq!(self_comm.bytes_moved, 0);
}

#[test]
fn multi_rank_counts_are_rank_invariant_and_bytes_follow_the_model() {
    let g = graph();
    let p = params();

    // Call counts are a property of the algorithm, not the placement: the
    // single-rank counts must be preserved at every world size, on every
    // rank. Only the modeled byte volume grows (⌈log₂ size⌉ rounds).
    let baseline = imm_distributed(&SelfComm::new(), &g, &p)
        .report
        .comm
        .expect("comm stats");

    for size in [2u32, 4] {
        let world = ThreadWorld::new(size);
        let results = world.run(|comm| imm_distributed(comm, &g, &p));
        for (rank, r) in results.iter().enumerate() {
            let c = r.report.comm.expect("comm stats");
            assert_eq!(
                c.allreduce_calls, baseline.allreduce_calls,
                "rank {rank} of {size}"
            );
            assert_eq!(c.allgather_calls, baseline.allgather_calls);
            assert!(
                c.bytes_moved > 0,
                "rank {rank} of {size}: multi-rank runs must move bytes"
            );
            assert_eq!(
                c.bytes_moved,
                results[0].report.comm.expect("comm stats").bytes_moved,
                "byte accounting must agree across ranks"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Exchange-op parity (vertex-cut sharded engine).
// ---------------------------------------------------------------------------

#[test]
fn sharded_engine_parity_at_size_one() {
    use ripples_core::dist_sharded::imm_sharded;
    let g = graph();
    let p = params();

    let self_run = imm_sharded(&SelfComm::new(), &g, &p);
    let self_comm = self_run.report.comm.expect("sharded run reports comm");

    let world = ThreadWorld::new(1);
    let mut results = world.run(|comm| imm_sharded(comm, &g, &p));
    let thread_run = results.pop().expect("one rank");
    let thread_comm = thread_run.report.comm.expect("sharded run reports comm");

    assert_eq!(self_run.seeds, thread_run.seeds);
    assert_eq!(self_comm.allreduce_calls, thread_comm.allreduce_calls);
    assert_eq!(self_comm.allgather_calls, thread_comm.allgather_calls);
    assert_eq!(
        self_comm.exchange_calls, thread_comm.exchange_calls,
        "exchange accounting must not distinguish the backends"
    );
    assert!(
        self_comm.exchange_calls > 0,
        "the sharded engine must route frontiers through exchanges"
    );
    assert_eq!(self_comm.bytes_moved, thread_comm.bytes_moved);
    assert_eq!(self_comm.bytes_moved, 0, "no bytes move inside one rank");
}

#[test]
fn sharded_exchange_counts_are_rank_invariant_and_bytes_agree() {
    use ripples_core::dist_sharded::imm_sharded;
    let g = graph();
    let p = params();

    // The exchange sequence is lockstep — every rank issues the same
    // collectives — so exchange_calls is rank-invariant at any given world
    // size. (It is *not* invariant across sizes: a vertex discovered by
    // two different ranks is routed by both, which can keep the frontier
    // alive for an extra drain round that a single rank's local dedup
    // avoids.) The collective-call floor never drops below the single-rank
    // sequence. Exchange bytes are charged as each rank's *own* payload
    // (direct pairwise transfer, unlike the log-rounds symmetric
    // collectives), so ranks report different totals — each must simply be
    // nonzero once real frontiers cross the cut.
    let baseline = imm_sharded(&SelfComm::new(), &g, &p)
        .report
        .comm
        .expect("comm stats");
    assert!(baseline.exchange_calls > 0);

    for size in [2u32, 4] {
        let world = ThreadWorld::new(size);
        let results = world.run(|comm| imm_sharded(comm, &g, &p));
        let first = results[0].report.comm.expect("comm stats");
        for (rank, r) in results.iter().enumerate() {
            let c = r.report.comm.expect("comm stats");
            assert_eq!(
                c.exchange_calls, first.exchange_calls,
                "rank {rank} of {size}: exchange counts diverged"
            );
            assert!(
                c.exchange_calls >= baseline.exchange_calls,
                "rank {rank} of {size}: fewer exchanges than the single-rank sequence"
            );
            assert!(
                c.bytes_moved > 0,
                "rank {rank} of {size}: multi-rank runs must move bytes"
            );
        }
    }
}

#[test]
fn empty_fault_plan_is_bitwise_transparent_over_exchanges() {
    use ripples_comm::{Communicator, FaultComm, FaultPlan};

    // SelfComm: the wrapped exchange returns the caller's own list
    // untouched, and stats march in lockstep with a bare backend issuing
    // the identical op sequence.
    let bare = SelfComm::new();
    let sends = vec![vec![7u64, 8, 9]];
    let direct = bare.alltoallv_u64(&sends);
    let bare_handle = bare.post_exchange_u64(&sends);
    assert_eq!(bare.wait_exchange(bare_handle), direct);
    let wrapped = FaultComm::new(SelfComm::new(), FaultPlan::none());
    assert_eq!(wrapped.alltoallv_u64(&sends), direct);
    let handle = wrapped.post_exchange_u64(&sends);
    assert_eq!(wrapped.wait_exchange(handle), direct);
    assert_eq!(wrapped.stats().exchange_calls, bare.stats().exchange_calls);
    assert_eq!(wrapped.stats().bytes_moved, bare.stats().bytes_moved);

    // Multi-rank: every rank's received lists under an empty plan equal
    // the bare backend's, for both the blocking and the posted paths.
    for size in [2u32, 4] {
        let world = ThreadWorld::new(size);
        let raw = world.run(|comm| {
            let sends: Vec<Vec<u64>> = (0..comm.size())
                .map(|peer| vec![u64::from(comm.rank()) << 8 | u64::from(peer)])
                .collect();
            comm.alltoallv_u64(&sends)
        });
        let world = ThreadWorld::new(size);
        let faulted = world.run(|comm| {
            let comm = FaultComm::new(comm, FaultPlan::none());
            let sends: Vec<Vec<u64>> = (0..comm.size())
                .map(|peer| vec![u64::from(comm.rank()) << 8 | u64::from(peer)])
                .collect();
            let blocking = comm.alltoallv_u64(&sends);
            let handle = comm.post_exchange_u64(&sends);
            let posted = comm.wait_exchange(handle);
            assert_eq!(
                blocking, posted,
                "posted exchange diverged from blocking under an empty plan"
            );
            blocking
        });
        assert_eq!(
            raw, faulted,
            "size {size}: empty plan must be bitwise transparent"
        );
    }
}
