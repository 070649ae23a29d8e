//! Directed-graph engine for `ripples-rs`.
//!
//! This crate is the input substrate of the CLUSTER'19 reproduction. It
//! provides:
//!
//! * [`Graph`] — an immutable directed graph in compressed-sparse-row form
//!   over in-edges (what reverse-reachability sampling reads), each in-row
//!   gap-varint coded ([`varint`]), with one activation probability per
//!   vertex when every in-row is uniform and one per edge otherwise; the
//!   out-edge view forward diffusion simulation reads is built from it on
//!   first use.
//! * [`GraphBuilder`] — edge-list accumulation, deduplication, self-loop
//!   policy, probability assignment ([`weights::WeightModel`]) and the
//!   linear-threshold normalization described in the paper ("the weights are
//!   readjusted such that the sum of the probabilities of traversing one of
//!   the neighboring edges and of not traversing any of them, is one").
//! * [`generators`] — deterministic synthetic network generators
//!   (Erdős–Rényi, Barabási–Albert, R-MAT, a modular "co-expression"
//!   generator for the paper's biology case study) and the
//!   [`generators::snap_standins`] catalogue: scaled-down analogues of the
//!   eight SNAP graphs in the paper's Table 2.
//! * [`io`] — SNAP-style edge-list text I/O; a text file whose edges ascend, as [`io::write_edge_list`] writes them,
//!   loads at about the finished graph's size.
//! * [`partition`] — deterministic edge-balanced vertex-cut shards with
//!   ghost-vertex tables, the substrate of the graph-sharded distributed
//!   engine.
//! * [`stats`] — the Table 2 summary statistics (n, m, average/max degree).
//! * [`traversal`] — weakly-connected components, which the co-expression
//!   generator's test uses to check the network is connected.

#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod generators;
pub mod io;
pub mod partition;
pub mod permute;
mod rows;
pub mod stats;
pub mod traversal;
pub mod types;
pub mod varint;
pub mod weights;

pub use builder::GraphBuilder;
pub use csr::{Graph, RowProbs};
pub use partition::{ChunkView, VertexCutShard};
pub use permute::{permute_graph, Permutation};
pub use rows::InNeighbors;
pub use stats::GraphStats;
pub use types::{GraphError, Vertex};
pub use weights::WeightModel;
