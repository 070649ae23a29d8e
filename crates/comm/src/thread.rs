//! In-process multi-rank world: one thread per rank, shared-memory
//! collectives.
//!
//! Collectives follow a deposit → barrier → combine → barrier protocol:
//! each rank owns one deposit slot, so the only shared-state contention is
//! the slot vector's lock around a single write or read pass. The trailing
//! barrier keeps a fast rank from starting the *next* collective (and
//! overwriting its slot) while a slow rank is still combining the current
//! one. This is deliberately the simplest protocol that is obviously
//! correct; modeled costs for real networks come from
//! [`crate::costmodel`], not from timing this loopback implementation.

use crate::communicator::{traced, CommStats, Communicator, ExchangeHandle, StatsCell};
use parking_lot::{Condvar, Mutex};
use ripples_trace::TraceName;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

struct BarrierState {
    count: u32,
    generation: u64,
}

/// One in-flight exchange generation: each sender deposits its full send
/// matrix; receivers extract their column. Unlike the barriered collectives,
/// staging is keyed by generation so several exchanges can be in flight at
/// once — a fast rank may deposit generation `g+1` while a slow rank is
/// still collecting generation `g`.
struct ExchangeSlot {
    deposits: Vec<Option<Vec<Vec<u64>>>>,
    reads_left: u32,
}

struct Shared {
    size: u32,
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
    u64_slots: Mutex<Vec<Vec<u64>>>,
    f64_slots: Mutex<Vec<f64>>,
    exchange: Mutex<HashMap<u64, ExchangeSlot>>,
    exchange_cv: Condvar,
    /// The first rank that panicked, or `NO_RANK`: the others stop waiting.
    panicked: AtomicU32,
}

const NO_RANK: u32 = u32::MAX;

impl Shared {
    fn new(size: u32) -> Self {
        Self {
            size,
            barrier: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
            }),
            barrier_cv: Condvar::new(),
            u64_slots: Mutex::new(vec![Vec::new(); size as usize]),
            f64_slots: Mutex::new(vec![0.0; size as usize]),
            exchange: Mutex::new(HashMap::new()),
            exchange_cv: Condvar::new(),
            panicked: AtomicU32::new(NO_RANK),
        }
    }

    /// Records that `rank` panicked, if no rank did before, and wakes every
    /// waiter. Each lock is taken after the record, so that a waiter either
    /// sees it before it waits or is waiting when the notice comes.
    fn poison(&self, rank: u32) {
        let _ = self
            .panicked
            .compare_exchange(NO_RANK, rank, Ordering::SeqCst, Ordering::SeqCst);
        drop(self.barrier.lock());
        self.barrier_cv.notify_all();
        drop(self.exchange.lock());
        self.exchange_cv.notify_all();
    }

    /// Panics if a rank has: the collective being waited for cannot finish.
    fn check_poison(&self) {
        if self.panicked.load(Ordering::SeqCst) != NO_RANK {
            panic!("another rank panicked");
        }
    }

    fn barrier_wait(&self) {
        let mut st = self.barrier.lock();
        let gen = st.generation;
        st.count += 1;
        if st.count == self.size {
            st.count = 0;
            st.generation += 1;
            drop(st);
            self.barrier_cv.notify_all();
        } else {
            while st.generation == gen {
                self.check_poison();
                self.barrier_cv.wait(&mut st);
            }
        }
    }
}

/// A world of `size` in-process ranks.
///
/// ```
/// use ripples_comm::{Communicator, ThreadWorld};
///
/// let world = ThreadWorld::new(4);
/// let sums = world.run(|comm| {
///     let mut buf = [u64::from(comm.rank())];
///     comm.all_reduce_sum_u64(&mut buf);
///     buf[0]
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]); // 0+1+2+3 on every rank
/// ```
pub struct ThreadWorld {
    size: u32,
}

impl ThreadWorld {
    /// Creates a world descriptor for `size` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    #[must_use]
    pub fn new(size: u32) -> Self {
        assert!(size > 0, "world must have at least one rank");
        Self { size }
    }

    /// The number of ranks.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Runs `body` on every rank concurrently and returns the per-rank
    /// results in rank order.
    ///
    /// Every rank must make the same sequence of collective calls, exactly
    /// as with MPI; violating that deadlocks, as it would under MPI.
    ///
    /// # Panics
    ///
    /// When a rank panics, the ranks waiting in a collective (or reaching
    /// one later) panic with `another rank panicked`, and `run` resumes the
    /// panic of the rank that panicked first, with its payload.
    pub fn run<F, R>(&self, body: F) -> Vec<R>
    where
        F: Fn(&ThreadComm) -> R + Sync,
        R: Send,
    {
        let shared = Arc::new(Shared::new(self.size));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.size)
                .map(|rank| {
                    let shared = Arc::clone(&shared);
                    let body = &body;
                    scope.spawn(move || {
                        let _poison = PoisonOnPanic {
                            shared: Arc::clone(&shared),
                            rank,
                        };
                        let comm = ThreadComm {
                            rank,
                            shared,
                            stats: StatsCell::default(),
                            exchange_gen: Cell::new(0),
                        };
                        body(&comm)
                    })
                })
                .collect();
            let mut outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let first = shared.panicked.load(Ordering::SeqCst);
            if first != NO_RANK {
                if let Err(payload) = outcomes.swap_remove(first as usize) {
                    std::panic::resume_unwind(payload);
                }
            }
            outcomes
                .into_iter()
                .map(|outcome| outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
                .collect()
        })
    }
}

/// Poisons the world when its rank's thread unwinds.
struct PoisonOnPanic {
    shared: Arc<Shared>,
    rank: u32,
}

impl Drop for PoisonOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.poison(self.rank);
        }
    }
}

/// One rank's endpoint in a [`ThreadWorld`].
pub struct ThreadComm {
    rank: u32,
    shared: Arc<Shared>,
    stats: StatsCell,
    /// Next exchange generation this rank will post. Per-rank local, yet
    /// globally consistent: every rank issues the same collective sequence
    /// (the MPI contract), so rank-local counter values agree.
    exchange_gen: Cell<u64>,
}

impl Communicator for ThreadComm {
    fn rank(&self) -> u32 {
        self.rank
    }

    fn size(&self) -> u32 {
        self.shared.size
    }

    fn all_reduce_sum_u64(&self, buf: &mut [u64]) {
        self.stats
            .allreduce_calls
            .set(self.stats.allreduce_calls.get() + 1);
        self.stats
            .charge_log_rounds(8 * buf.len() as u64, self.shared.size);
        traced(TraceName::CommAllReduce, 8 * buf.len() as u64, || {
            if self.shared.size == 1 {
                return;
            }
            {
                let mut slots = self.shared.u64_slots.lock();
                let slot = &mut slots[self.rank as usize];
                slot.clear();
                slot.extend_from_slice(buf);
            }
            self.shared.barrier_wait();
            {
                let slots = self.shared.u64_slots.lock();
                buf.fill(0);
                for contribution in slots.iter() {
                    debug_assert_eq!(contribution.len(), buf.len(), "ragged all-reduce");
                    for (acc, &x) in buf.iter_mut().zip(contribution) {
                        *acc += x;
                    }
                }
            }
            self.shared.barrier_wait();
        });
    }

    fn all_reduce_max_f64(&self, value: f64) -> f64 {
        self.stats
            .allreduce_calls
            .set(self.stats.allreduce_calls.get() + 1);
        self.stats.charge_log_rounds(8, self.shared.size);
        traced(TraceName::CommAllReduce, 8, || {
            if self.shared.size == 1 {
                return value;
            }
            {
                let mut slots = self.shared.f64_slots.lock();
                slots[self.rank as usize] = value;
            }
            self.shared.barrier_wait();
            let result = {
                let slots = self.shared.f64_slots.lock();
                slots.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            };
            self.shared.barrier_wait();
            result
        })
    }

    fn all_gather_u64_list(&self, items: &[u64]) -> Vec<Vec<u64>> {
        self.stats
            .allgather_calls
            .set(self.stats.allgather_calls.get() + 1);
        // Modeled volume: every rank ends up holding every list.
        self.stats
            .charge_log_rounds(8 * items.len() as u64, self.shared.size);
        traced(TraceName::CommAllGather, 8 * items.len() as u64, || {
            if self.shared.size == 1 {
                return vec![items.to_vec()];
            }
            {
                let mut slots = self.shared.u64_slots.lock();
                let slot = &mut slots[self.rank as usize];
                slot.clear();
                slot.extend_from_slice(items);
            }
            self.shared.barrier_wait();
            let result: Vec<Vec<u64>> = {
                let slots = self.shared.u64_slots.lock();
                slots.iter().cloned().collect()
            };
            self.shared.barrier_wait();
            result
        })
    }

    fn alltoallv_u64(&self, sends: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let handle = self.post_exchange_u64(sends);
        self.wait_exchange(handle)
    }

    fn post_exchange_u64(&self, sends: &[Vec<u64>]) -> ExchangeHandle {
        assert_eq!(
            sends.len(),
            self.shared.size as usize,
            "alltoallv needs one send list per rank"
        );
        let payload = 8 * sends.iter().map(|s| s.len() as u64).sum::<u64>();
        self.stats.charge_exchange(payload, self.shared.size);
        traced(TraceName::CommExchange, payload, || {
            if self.shared.size == 1 {
                return ExchangeHandle::Ready(vec![sends[0].clone()]);
            }
            let generation = self.exchange_gen.get();
            self.exchange_gen.set(generation + 1);
            {
                let mut slots = self.shared.exchange.lock();
                let slot = slots.entry(generation).or_insert_with(|| ExchangeSlot {
                    deposits: vec![None; self.shared.size as usize],
                    reads_left: self.shared.size,
                });
                slot.deposits[self.rank as usize] = Some(sends.to_vec());
            }
            self.shared.exchange_cv.notify_all();
            ExchangeHandle::Staged(generation)
        })
    }

    fn wait_exchange(&self, handle: ExchangeHandle) -> Vec<Vec<u64>> {
        match handle {
            ExchangeHandle::Ready(result) => result,
            ExchangeHandle::Deferred(sends) => self.alltoallv_u64(&sends),
            ExchangeHandle::Staged(generation) => {
                let mut slots = self.shared.exchange.lock();
                while !slots
                    .get(&generation)
                    .is_some_and(|s| s.deposits.iter().all(Option::is_some))
                {
                    self.shared.check_poison();
                    self.shared.exchange_cv.wait(&mut slots);
                }
                let slot = slots.get_mut(&generation).expect("deposit checked above");
                let result: Vec<Vec<u64>> = slot
                    .deposits
                    .iter()
                    .map(|d| d.as_ref().expect("complete")[self.rank as usize].clone())
                    .collect();
                // Last reader retires the generation; a rank only waits
                // after posting, so no rank can still need this slot.
                slot.reads_left -= 1;
                if slot.reads_left == 0 {
                    slots.remove(&generation);
                }
                result
            }
        }
    }

    fn stats(&self) -> CommStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_distinct_and_complete() {
        let world = ThreadWorld::new(4);
        let mut ranks = world.run(|c| c.rank());
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_reduce_sums_vectors() {
        let world = ThreadWorld::new(5);
        let results = world.run(|c| {
            let mut buf = vec![u64::from(c.rank()), 1, 100 * u64::from(c.rank())];
            c.all_reduce_sum_u64(&mut buf);
            buf
        });
        // Sum of ranks 0..5 = 10; ones = 5; hundreds = 1000.
        for r in results {
            assert_eq!(r, vec![10, 5, 1000]);
        }
    }

    #[test]
    fn repeated_all_reduce_is_isolated() {
        // Back-to-back collectives must not bleed into each other.
        let world = ThreadWorld::new(3);
        let results = world.run(|c| {
            let mut total = Vec::new();
            for round in 0..10u64 {
                let mut buf = vec![round + u64::from(c.rank())];
                c.all_reduce_sum_u64(&mut buf);
                total.push(buf[0]);
            }
            total
        });
        for r in results {
            let expect: Vec<u64> = (0..10).map(|round| 3 * round + 3).collect();
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn f64_max() {
        let world = ThreadWorld::new(4);
        let results = world.run(|c| c.all_reduce_max_f64(f64::from(c.rank()) - 5.0));
        assert_eq!(results, vec![-2.0; 4]);
    }

    #[test]
    fn all_gather_lists_in_rank_order() {
        let world = ThreadWorld::new(3);
        let results = world.run(|c| {
            let mine: Vec<u64> = (0..=u64::from(c.rank())).collect();
            c.all_gather_u64_list(&mine)
        });
        for r in results {
            assert_eq!(r, vec![vec![0], vec![0, 1], vec![0, 1, 2]]);
        }
    }

    #[test]
    fn all_gather_empty_lists() {
        let world = ThreadWorld::new(2);
        let results = world.run(|c| {
            let mine: Vec<u64> = if c.rank() == 0 { vec![7] } else { Vec::new() };
            c.all_gather_u64_list(&mine)
        });
        for r in results {
            assert_eq!(r, vec![vec![7], vec![]]);
        }
    }

    #[test]
    fn all_gather_in_rank_order() {
        let world = ThreadWorld::new(4);
        let results =
            world.run(|c| c.all_gather_u64_list(&[u64::from(c.rank()) * u64::from(c.rank())]));
        for r in results {
            assert_eq!(r, vec![vec![0], vec![1], vec![4], vec![9]]);
        }
    }

    #[test]
    fn alltoallv_routes_every_pair() {
        let world = ThreadWorld::new(3);
        let results = world.run(|c| {
            // sends[d] = [rank*10 + d]; receiver d gets column d.
            let sends: Vec<Vec<u64>> = (0..3).map(|d| vec![u64::from(c.rank()) * 10 + d]).collect();
            c.alltoallv_u64(&sends)
        });
        for (r, got) in results.iter().enumerate() {
            let expect: Vec<Vec<u64>> = (0..3u64).map(|s| vec![s * 10 + r as u64]).collect();
            assert_eq!(got, &expect, "rank {r}");
        }
    }

    #[test]
    fn posted_exchanges_overlap_and_stay_isolated() {
        // Two exchanges in flight at once; each drains to its own payloads.
        let world = ThreadWorld::new(4);
        let results = world.run(|c| {
            let me = u64::from(c.rank());
            let a: Vec<Vec<u64>> = (0..4).map(|d| vec![100 + me * 10 + d]).collect();
            let b: Vec<Vec<u64>> = (0..4).map(|d| vec![200 + me * 10 + d, me]).collect();
            let ha = c.post_exchange_u64(&a);
            let hb = c.post_exchange_u64(&b);
            (c.wait_exchange(ha), c.wait_exchange(hb))
        });
        for (r, (ra, rb)) in results.iter().enumerate() {
            let r = r as u64;
            let ea: Vec<Vec<u64>> = (0..4).map(|s| vec![100 + s * 10 + r]).collect();
            let eb: Vec<Vec<u64>> = (0..4).map(|s| vec![200 + s * 10 + r, s]).collect();
            assert_eq!(ra, &ea, "first exchange, rank {r}");
            assert_eq!(rb, &eb, "second exchange, rank {r}");
        }
    }

    #[test]
    fn exchange_charges_direct_bytes_once() {
        let world = ThreadWorld::new(4);
        let stats = world.run(|c| {
            // 4 lists × 2 entries = 64 payload bytes, charged once (direct
            // routing), unlike the log-rounds collectives.
            let sends: Vec<Vec<u64>> = (0..4).map(|d| vec![d, d]).collect();
            let _ = c.alltoallv_u64(&sends);
            c.stats()
        });
        for s in stats {
            assert_eq!(s.exchange_calls, 1);
            assert_eq!(s.bytes_moved, 64);
        }
    }

    #[test]
    fn single_rank_exchange_is_identity_and_free() {
        let world = ThreadWorld::new(1);
        let results = world.run(|c| {
            let h = c.post_exchange_u64(&[vec![9, 8, 7]]);
            (c.wait_exchange(h), c.stats())
        });
        let (got, stats) = &results[0];
        assert_eq!(got, &vec![vec![9, 8, 7]]);
        assert_eq!(stats.exchange_calls, 1);
        assert_eq!(stats.bytes_moved, 0);
    }

    #[test]
    fn stats_account_calls_and_bytes() {
        let world = ThreadWorld::new(4);
        let stats = world.run(|c| {
            let mut buf = vec![0u64; 16];
            c.all_reduce_sum_u64(&mut buf);
            c.stats()
        });
        for s in stats {
            assert_eq!(s.allreduce_calls, 1);
            // 16 u64 = 128 bytes, log2(4) = 2 rounds.
            assert_eq!(s.bytes_moved, 256);
        }
    }

    #[test]
    fn single_rank_world_short_circuits() {
        let world = ThreadWorld::new(1);
        let results = world.run(|c| {
            let mut buf = vec![42u64];
            c.all_reduce_sum_u64(&mut buf);
            (
                buf[0],
                c.all_gather_u64_list(&[5]),
                c.all_reduce_max_f64(3.0),
            )
        });
        assert_eq!(results[0], (42, vec![vec![5]], 3.0));
    }

    /// Runs `body` on a 4-rank world on a helper thread and returns the
    /// message `run` panics with; fails if the world has not ended in 10 s.
    fn panic_message_of(body: fn(&ThreadComm)) -> String {
        let (sender, receiver) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| ThreadWorld::new(4).run(body));
            let _ = sender.send(outcome.map(drop));
        });
        let outcome = receiver
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a rank's panic hung the world");
        let payload = outcome.expect_err("the world panics");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast::<&str>()
                .expect("a text payload")
                .to_string(),
        }
    }

    #[test]
    fn a_panic_before_a_collective_ends_the_run() {
        let message = panic_message_of(|c| {
            assert_ne!(c.rank(), 2, "rank 2 fails");
            let mut buf = [1u64];
            c.all_reduce_sum_u64(&mut buf);
        });
        assert!(message.contains("rank 2 fails"), "{message}");
    }

    #[test]
    fn a_panic_during_an_exchange_ends_the_run() {
        let message = panic_message_of(|c| {
            if c.rank() == 1 {
                // Once the other three have posted, each is in the
                // exchange's wait or on its way there.
                let posted = |slots: &HashMap<u64, ExchangeSlot>| {
                    slots
                        .get(&0)
                        .map_or(0, |s| s.deposits.iter().flatten().count())
                };
                while posted(&c.shared.exchange.lock()) < 3 {
                    std::thread::yield_now();
                }
                panic!("rank 1 fails");
            }
            let sends: Vec<Vec<u64>> = (0..4).map(|d| vec![d]).collect();
            c.alltoallv_u64(&sends);
        });
        assert!(message.contains("rank 1 fails"), "{message}");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = ThreadWorld::new(0);
    }

    #[test]
    fn heavy_concurrent_reduction_stress() {
        // Many rounds over a larger world to shake out barrier races.
        let world = ThreadWorld::new(8);
        let results = world.run(|c| {
            let mut acc = 0u64;
            for round in 0..50u64 {
                let mut buf = vec![u64::from(c.rank()) + round];
                c.all_reduce_sum_u64(&mut buf);
                acc += buf[0];
            }
            acc
        });
        // Σ_round (Σ_ranks rank + 8*round) = Σ_round (28 + 8 round)
        let expect: u64 = (0..50).map(|r| 28 + 8 * r).sum();
        for r in results {
            assert_eq!(r, expect);
        }
    }
}
