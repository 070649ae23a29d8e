//! The reference kernel: a fixed amount of work that tells how fast the
//! host is at this moment.
//!
//! The build host shares its cores, caches and memory with neighbours, and
//! the same solve takes 3.3 s in a quiet hour and 6.5 s in a busy one. A
//! child therefore times slices of this kernel right after its timed phases,
//! and the parent scales every time metric of the round by `slice seconds on
//! the quiet reference host / median slice just measured`. (Not before them
//! too: what the kernel allocates and frees would change how the allocator
//! serves the solve, and with it the peak RSS.)
//!
//! The kernel is frozen and the same in every child: it walks a synthetic
//! graph of its own (400 000 vertices, 16 random in-neighbours each, as
//! large as the sparse input) backwards as an IC sampler would: random
//! roots, one random draw per in-edge, a stamp array for visited vertices.
//! That is the memory-access pattern that dominates every workload, but the
//! kernel shares no code and no data with the crates: graph, generator,
//! queue and stamps are its own. A change to the graph layout, a sampler, a
//! store, a selector or the serve layer moves a workload's time and not the
//! kernel's.

use std::sync::Barrier;
use std::time::Instant;

/// Slices a child times.
pub const SLICES: usize = 8;

const VERTICES: u32 = 400_000;
const IN_DEGREE: usize = 16;
/// An in-edge is followed with probability `1 / 20`, so a vertex has 0.8
/// followed in-edges on average and a walk visits a handful of vertices.
const FOLLOW_BELOW: u64 = u64::MAX / 20;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The in-neighbours of vertex `v` are `sources[v * IN_DEGREE..][..IN_DEGREE]`.
fn synthetic_sources() -> Vec<u32> {
    let mut state = 0x2545_F491_4F6C_DD1D;
    (0..VERTICES as usize * IN_DEGREE)
        .map(|_| (xorshift(&mut state) % u64::from(VERTICES)) as u32)
        .collect()
}

/// Runs `SLICES` slices of the kernel on `threads` threads, each
/// thread probing `probes` in-edges per slice, after one slice that is not
/// timed: a process's fresh threads share a core for their first half second
/// on this guest, and read up to 2x slow meanwhile. Returns the wall seconds
/// of each timed slice, from the moment every thread starts it to the
/// moment every thread has finished it.
pub fn reference_slices(probes: u64, threads: usize) -> Vec<f64> {
    let sources = synthetic_sources();
    let barrier = Barrier::new(threads);
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let walkers: Vec<_> = (0..threads)
            .map(|thread| {
                let (barrier, sources) = (&barrier, sources.as_slice());
                scope.spawn(move || {
                    let mut walker = Walker::new(sources, thread as u64);
                    std::hint::black_box(walker.walk(probes));
                    (0..SLICES)
                        .map(|_| {
                            barrier.wait();
                            let started = Instant::now();
                            std::hint::black_box(walker.walk(probes));
                            barrier.wait();
                            started.elapsed().as_secs_f64()
                        })
                        .collect()
                })
            })
            .collect();
        walkers
            .into_iter()
            .map(|w| w.join().expect("reference kernel thread"))
            .collect()
    });
    per_thread
        .into_iter()
        .next()
        .expect("the kernel runs on at least one thread")
}

struct Walker<'a> {
    sources: &'a [u32],
    state: u64,
    stamp: Vec<u32>,
    queue: Vec<u32>,
    walks: u32,
}

impl<'a> Walker<'a> {
    fn new(sources: &'a [u32], thread: u64) -> Self {
        Self {
            sources,
            state: 0x9E37_79B9_7F4A_7C15 ^ (thread + 1),
            stamp: vec![0; VERTICES as usize],
            queue: Vec::new(),
            walks: 0,
        }
    }

    /// Walks backwards from random roots until `probes` in-edges have been
    /// probed; returns the vertices visited.
    fn walk(&mut self, probes: u64) -> u64 {
        let (mut probed, mut visited) = (0u64, 0u64);
        while probed < probes {
            self.walks += 1;
            let walk = self.walks;
            self.queue.clear();
            let root = (xorshift(&mut self.state) % u64::from(VERTICES)) as u32;
            self.stamp[root as usize] = walk;
            self.queue.push(root);
            let mut head = 0;
            while head < self.queue.len() {
                let v = self.queue[head] as usize;
                head += 1;
                probed += IN_DEGREE as u64;
                for &u in &self.sources[v * IN_DEGREE..][..IN_DEGREE] {
                    let follow = xorshift(&mut self.state) < FOLLOW_BELOW;
                    if follow && self.stamp[u as usize] != walk {
                        self.stamp[u as usize] = walk;
                        self.queue.push(u);
                    }
                }
            }
            visited += self.queue.len() as u64;
        }
        visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_work_it_is_given_on_every_thread() {
        let sources = synthetic_sources();
        assert_eq!(sources.len(), VERTICES as usize * IN_DEGREE);
        // Deterministic: the same probes visit the same vertices.
        let visited = Walker::new(&sources, 0).walk(10_000);
        assert_eq!(visited, Walker::new(&sources, 0).walk(10_000));
        // More than the roots, fewer than a walk that follows every edge.
        assert!(visited > 10_000 / IN_DEGREE as u64 / 2 && visited < 10_000);
        let slices = reference_slices(10_000, 2);
        assert_eq!(slices.len(), SLICES);
        assert!(slices.iter().all(|&s| s > 0.0));
    }
}
