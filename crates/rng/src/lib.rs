//! Parallel pseudorandom-number substrate for `ripples-rs`.
//!
//! The CLUSTER'19 Ripples paper generates reverse-reachability samples on many
//! MPI ranks at once and stresses that *"accurate generation of pseudorandom
//! numbers in parallel is critical to guarantee the approximation bounds of
//! the algorithm"*. It uses the TRNG library's 64-bit linear congruential
//! generator split across ranks with the **leap-frog** method.
//!
//! This crate reimplements that substrate from scratch:
//!
//! * [`Lcg64`] — a 64-bit LCG with O(log n) [`Lcg64::discard`] (skip-ahead)
//!   using Brown's binary decomposition of the affine update, exactly the
//!   capability TRNG provides.
//! * [`LeapFrog`] — splits one LCG sequence into `p` disjoint interleaved
//!   streams (rank *i* consumes x_i, x_{i+p}, x_{i+2p}, …), the paper's
//!   distribution strategy.
//! * [`SplitMix64`] — a fast seeding/stream-derivation generator used to
//!   derive statistically independent per-sample generators, which makes
//!   every Ripples result *independent of the number of ranks/threads* (a
//!   stronger reproducibility property than leap-frog; both are provided).
//! * [`distributions`] — the small set of distributions the algorithms need:
//!   uniform `f64` in `[0,1)`, Bernoulli trials, and unbiased bounded
//!   integers (Lemire rejection sampling).
//! * [`stream`] — deterministic stream derivation: one master seed fans out
//!   to per-rank, per-sample, and per-phase generators.
//!
//! All generators implement [`rand::RngCore`] so they compose with the wider
//! ecosystem, but the hot paths in `ripples-diffusion` call the inherent
//! methods directly (they are `#[inline]` and branch-free).

#![warn(missing_docs)]

pub mod distributions;
pub mod lcg;
pub mod leapfrog;
pub mod source;
pub mod splitmix;
pub mod stream;

pub use distributions::{Bernoulli, UnitUniform};
pub use lcg::Lcg64;
pub use leapfrog::LeapFrog;
pub use source::RandomSource;
pub use splitmix::SplitMix64;
pub use stream::{RankStream, StreamFactory};

/// Convenience alias used throughout the workspace: the generator every hot
/// loop uses. Chosen for speed and for exact-reproducibility guarantees; see
/// the crate docs.
pub type DefaultRng = SplitMix64;
