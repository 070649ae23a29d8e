//! Keyed pseudorandom streams for `ripples-rs`.
//!
//! The CLUSTER'19 Ripples paper generates reverse-reachability samples on many
//! MPI ranks at once and stresses that *"accurate generation of pseudorandom
//! numbers in parallel is critical to guarantee the approximation bounds of
//! the algorithm"*. It splits one TRNG linear congruential generator across
//! ranks by **leap-frog**, so a sample's content depends on which rank drew
//! it and on how many ranks there are.
//!
//! This crate replaces that with one generator keyed by logical index:
//!
//! * [`SplitMix64`] — a fast splittable generator. [`SplitMix64::for_stream`]
//!   derives an independent stream from a `(seed, index)` pair in O(1), and
//!   its draws are uniform `f64` in `[0, 1)` and unbiased bounded integers
//!   (Lemire rejection).
//! * [`stream`] — [`StreamFactory`] fans one master seed out to a stream per
//!   RRR sample and per forward trial, keyed by the global sample or trial
//!   id. Every sample is therefore the same whichever thread or rank draws
//!   it, so sequential, multithreaded and distributed runs with the same
//!   seed build identical sample collections and return identical seeds.
//!
//! The fused 64-lane sampler gives each lane its sample's stream; the
//! vertex-cut sharded sampler keys by `(sample, vertex)` instead and
//! derives those streams with [`SplitMix64::for_stream`] directly.

#![warn(missing_docs)]

mod distributions;
pub mod splitmix;
pub mod stream;

pub use splitmix::SplitMix64;
pub use stream::StreamFactory;
