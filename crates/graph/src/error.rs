//! Error type shared by graph construction and graph algorithms.

use std::fmt;

/// Errors produced by graph construction and algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A node index was at least the number of nodes in the graph.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The graph's node count.
        n: usize,
    },
    /// An arc index was at least the number of arcs in the network.
    ArcOutOfRange {
        /// The offending arc index.
        arc: usize,
        /// The network's arc count.
        arcs: usize,
    },
    /// A self-loop was requested where the operation forbids it.
    SelfLoop {
        /// The node both endpoints referred to.
        node: usize,
    },
    /// An edge capacity was not a normal positive float.
    BadCapacity {
        /// The invalid capacity value.
        capacity: f64,
    },
    /// The graph (or the relevant part of it) is not connected, so the
    /// requested quantity (ASPL, diameter, a path) does not exist.
    Disconnected,
    /// No simple path exists between the requested endpoints.
    NoPath {
        /// Source node.
        src: usize,
        /// Destination node.
        dst: usize,
    },
    /// A degree sequence or swap request cannot be satisfied
    /// (e.g. odd total degree, or not enough distinct partners).
    Unrealizable(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node index {node} out of range for graph with {n} nodes")
            }
            GraphError::ArcOutOfRange { arc, arcs } => {
                write!(
                    f,
                    "arc index {arc} out of range for network with {arcs} arcs"
                )
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node} is not allowed"),
            GraphError::BadCapacity { capacity } => {
                write!(
                    f,
                    "edge capacity must be a normal positive float, got {capacity}"
                )
            }
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::NoPath { src, dst } => write!(f, "no path from {src} to {dst}"),
            GraphError::Unrealizable(msg) => write!(f, "unrealizable request: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The one capacity rule: usable iff a normal positive float, so that the
/// reciprocal (the length the solvers read) is finite too.
pub(crate) fn usable_capacity(capacity: f64) -> Result<f64, GraphError> {
    let usable = capacity.is_normal() && capacity > 0.0;
    usable
        .then_some(capacity)
        .ok_or(GraphError::BadCapacity { capacity })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::NodeOutOfRange { node: 7, n: 4 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('4'));
        let e = GraphError::BadCapacity { capacity: -1.0 };
        assert!(e.to_string().contains("-1"));
        let e = GraphError::NoPath { src: 1, dst: 2 };
        assert!(e.to_string().contains("1"));
        assert!(GraphError::Disconnected.to_string().contains("connected"));
    }

    #[test]
    fn usable_capacities_have_a_finite_reciprocal() {
        for c in [f64::MIN_POSITIVE, 1.0, 1e308, f64::MAX] {
            assert_eq!(usable_capacity(c), Ok(c));
            assert!((1.0 / c).is_finite());
        }
        for c in [0.0, -0.0, -1.0, 1e-310, f64::INFINITY, f64::NAN] {
            let Err(GraphError::BadCapacity { capacity }) = usable_capacity(c) else {
                panic!("{c} is usable");
            };
            assert_eq!(capacity.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&GraphError::Disconnected);
    }
}
