//! MPI-like message-passing substrate for the distributed IMM
//! implementation.
//!
//! The CLUSTER'19 paper's distributed algorithm (IMMdist, §3.2) needs two
//! things from MPI: rank/size introspection and `MPI_Allreduce` over the
//! vertex-counter arrays. The sharded engine adds a (posted) all-to-all
//! and the trace merge a list gather. Rust's MPI bindings are immature, so
//! this crate provides those primitives natively:
//!
//! * [`Communicator`] — the trait the engines are written against: the
//!   collectives they call (`all_reduce_sum_u64`, `all_reduce_max_f64`,
//!   `all_gather_u64_list`, `alltoallv_u64`, `post_exchange_u64` +
//!   `wait_exchange`) plus `rank`, `size`, `stats` and `health`.
//! * [`SelfComm`] — the trivial single-rank world.
//! * [`ThreadWorld`] / [`ThreadComm`] — an in-process world where each rank
//!   is a thread and collectives run over shared memory. This executes the
//!   *same algorithm* with real synchronization, so correctness properties
//!   (e.g. "distributed seed set equals sequential seed set") are tested for
//!   real.
//! * [`costmodel`] — an α–β (Hockney/LogGP-style) communication-time model
//!   with presets for the paper's two clusters, used by the strong-scaling
//!   replay harness to *predict* wall-clock at rank counts this host cannot
//!   physically run (documented substitution; see DESIGN.md §1).
//! * [`fault`] — the one chaos decorator: [`FaultComm`] injects a seeded
//!   [`FaultPlan`]'s drops, delays, truncations and stalls, retries failed
//!   attempts in lockstep and escalates persistent ones to rank death, so a
//!   lossy fabric degrades runs instead of crashing them (DESIGN.md § 3.6).
//!
//! Every communicator records how many collective calls and payload bytes it
//! has moved ([`CommStats`]), which both the experiments and the cost model
//! consume.

#![warn(missing_docs)]

pub mod communicator;
pub mod costmodel;
pub mod fault;
pub mod selfcomm;
pub mod thread;

pub use communicator::{CommHealth, CommStats, Communicator, ExchangeHandle};
pub use costmodel::{AlphaBetaModel, ClusterSpec};
pub use fault::{FaultComm, FaultKind, FaultPlan};
pub use selfcomm::SelfComm;
pub use thread::{ThreadComm, ThreadWorld};
