//! Deterministic synthetic network generators.
//!
//! The paper evaluates on eight SNAP graphs. Those datasets cannot be
//! redistributed with this repository, so every experiment instead runs on
//! *stand-ins* produced by these generators (see
//! [`snap_standins`]), and accepts real SNAP files through
//! [`crate::io::read_edge_list_file`] for users who have them. All
//! generators are deterministic functions of their seed.

pub mod barabasi_albert;
pub mod coexpression;
pub mod erdos_renyi;
pub mod rmat;
pub mod snap_standins;

pub use barabasi_albert::barabasi_albert;
pub use coexpression::{coexpression, CoexpressionConfig};
pub use erdos_renyi::erdos_renyi;
pub use rmat::{rmat, RmatConfig};
pub use snap_standins::{standin, standin_catalog, StandinSpec};

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::types::Vertex;
use crate::weights::WeightModel;

/// Builds a weighted graph from a list of directed arcs.
///
/// Shared tail of every generator: arcs are deduplicated, weighted by
/// `model`, and LT-normalized when `lt_normalize` is set.
pub(crate) fn arcs_to_graph(
    num_vertices: u32,
    arcs: &[(Vertex, Vertex)],
    model: WeightModel,
    lt_normalize: bool,
) -> Graph {
    let mut wb = GraphBuilder::new(num_vertices).assign_weights(model);
    wb.reserve(arcs.len());
    for &(u, v) in arcs {
        // Generators only emit in-range endpoints; treat failure as a bug.
        wb.add_arc(u, v).expect("generator produced invalid arc");
    }
    let wb = if lt_normalize {
        wb.normalize_for_lt()
    } else {
        wb
    };
    wb.build().expect("generator produced unbuildable graph")
}
