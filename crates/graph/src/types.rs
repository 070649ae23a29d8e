//! Shared scalar types and the crate error type.

use std::fmt;

/// Vertex identifier.
///
/// `u32` halves the memory footprint of adjacency arrays relative to `usize`
/// on 64-bit targets; the paper's largest input (com-Orkut, 3.07M vertices)
/// fits with five orders of magnitude to spare.
pub type Vertex = u32;

/// Errors produced while building or loading graphs.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge endpoint is ≥ the declared vertex count.
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: Vertex,
        /// The declared vertex count.
        num_vertices: u32,
    },
    /// An edge probability is not a finite number in `[0, 1]`.
    InvalidProbability {
        /// The offending value.
        value: f32,
    },
    /// The input text could not be parsed as an edge list.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An underlying I/O failure (message-only so the error stays `Clone`).
    Io(
        /// Stringified `std::io::Error`.
        String,
    ),
    /// The graph would exceed implementation limits (≥ 2³² vertices/edges).
    TooLarge(
        /// Description of the violated limit.
        String,
    ),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for graph with {num_vertices} vertices"
            ),
            GraphError::InvalidProbability { value } => {
                write!(
                    f,
                    "edge probability {value} is not a finite value in [0, 1]"
                )
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "I/O error: {msg}"),
            GraphError::TooLarge(msg) => write!(f, "graph too large: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::VertexOutOfRange {
            vertex: 9,
            num_vertices: 5,
        };
        assert!(e.to_string().contains("vertex 9"));
        let e = GraphError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
    }
}
