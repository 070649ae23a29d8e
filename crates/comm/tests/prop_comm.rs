//! Property-based tests for the shared-memory collectives: every collective
//! must equal its serial reduction for arbitrary payloads and world sizes,
//! and an empty-plan [`FaultComm`] must be indistinguishable from the bare
//! backend — results *and* accounting — for arbitrary plan seeds.

use proptest::prelude::*;
use ripples_comm::{Communicator, FaultComm, FaultPlan, ThreadWorld};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All-reduce equals the element-wise serial sum of all contributions.
    #[test]
    fn allreduce_matches_serial_sum(
        size in 1u32..6,
        base in prop::collection::vec(0u64..1 << 40, 1..64),
    ) {
        let world = ThreadWorld::new(size);
        let base_ref = &base;
        let results = world.run(|comm| {
            // Rank r contributes base rotated by r (deterministic, distinct).
            let mut buf: Vec<u64> = base_ref
                .iter()
                .cycle()
                .skip(comm.rank() as usize)
                .take(base_ref.len())
                .copied()
                .collect();
            comm.all_reduce_sum_u64(&mut buf);
            buf
        });
        // Serial reference.
        let mut expect = vec![0u64; base.len()];
        for r in 0..size as usize {
            for (i, e) in expect.iter_mut().enumerate() {
                *e += base[(i + r) % base.len()];
            }
        }
        for r in results {
            prop_assert_eq!(&r, &expect);
        }
    }

    /// All-gather-list returns every rank's list, in rank order, everywhere.
    #[test]
    fn allgatherv_matches_inputs(
        size in 1u32..6,
        lens in prop::collection::vec(0usize..20, 6),
    ) {
        let world = ThreadWorld::new(size);
        let lens_ref = &lens;
        let results = world.run(|comm| {
            let r = comm.rank() as usize;
            let mine: Vec<u64> = (0..lens_ref[r]).map(|i| (r as u64) * 1000 + i as u64).collect();
            comm.all_gather_u64_list(&mine)
        });
        for gathered in results {
            prop_assert_eq!(gathered.len(), size as usize);
            for (r, list) in gathered.iter().enumerate() {
                prop_assert_eq!(list.len(), lens[r]);
                for (i, &x) in list.iter().enumerate() {
                    prop_assert_eq!(x, (r as u64) * 1000 + i as u64);
                }
            }
        }
    }

    /// f64 max-reduce equals the serial max.
    #[test]
    fn scalar_collectives(size in 1u32..6, values in prop::collection::vec(-1e9f64..1e9, 6)) {
        let world = ThreadWorld::new(size);
        let vals = &values;
        let results = world.run(|comm| comm.all_reduce_max_f64(vals[comm.rank() as usize]));
        let expect_max = values[..size as usize]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        for mx in results {
            prop_assert_eq!(mx, expect_max);
        }
    }

    /// A [`FaultComm`] with an all-rates-zero plan is bitwise transparent at
    /// every world size, whatever seed the plan carries: identical collective
    /// results and identical backend `CommStats`.
    #[test]
    fn empty_fault_plan_is_transparent(
        size_pick in 0usize..3,
        plan_seed in any::<u64>(),
        payload in prop::collection::vec(0u64..1 << 40, 1..32),
    ) {
        let size = [1u32, 2, 4][size_pick];
        let payload_ref = &payload;

        let run = |wrap: bool| {
            let world = ThreadWorld::new(size);
            world.run(|comm| {
                let exercise = |c: &dyn Communicator| {
                    let mut buf: Vec<u64> = payload_ref
                        .iter()
                        .map(|&x| x ^ u64::from(c.rank()))
                        .collect();
                    c.all_reduce_sum_u64(&mut buf);
                    let mx = c.all_reduce_max_f64(f64::from(c.rank()));
                    let lists = c.all_gather_u64_list(&buf[..buf.len().min(3)]);
                    let sends: Vec<Vec<u64>> =
                        (0..c.size()).map(|d| vec![u64::from(d) + 7; d as usize]).collect();
                    let routed = c.alltoallv_u64(&sends);
                    let handle = c.post_exchange_u64(&sends);
                    let posted = c.wait_exchange(handle);
                    (buf, mx, lists, routed, posted, c.stats())
                };
                if wrap {
                    let faulty = FaultComm::new(comm, FaultPlan::new(plan_seed));
                    let out = exercise(&faulty);
                    // Transparency extends to the health surface.
                    assert_eq!(faulty.health().dropped_ops, 0);
                    assert!(faulty.health().dead_ranks.is_empty());
                    out
                } else {
                    exercise(comm)
                }
            })
        };

        let bare = run(false);
        let wrapped = run(true);
        for (b, w) in bare.iter().zip(&wrapped) {
            prop_assert_eq!(&b.0, &w.0, "all_reduce_sum_u64 diverged");
            prop_assert_eq!(b.1, w.1, "all_reduce_max_f64 diverged");
            prop_assert_eq!(&b.2, &w.2, "all_gather_u64_list diverged");
            prop_assert_eq!(&b.3, &w.3, "alltoallv_u64 diverged");
            prop_assert_eq!(&b.4, &w.4, "posted exchange diverged");
            prop_assert_eq!(&b.5, &w.5, "backend CommStats diverged");
        }
    }
}
