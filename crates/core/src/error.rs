use hetesim_graph::GraphError;
use hetesim_sparse::SparseError;
use std::fmt;

/// Errors produced by HeteSim queries.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Propagated network/schema/path error.
    Graph(GraphError),
    /// Propagated linear-algebra error.
    Sparse(SparseError),
    /// A query endpoint index is outside its type's registry.
    NodeOutOfRange {
        /// Which endpoint ("source" or "target").
        endpoint: &'static str,
        /// The offending index.
        index: u32,
        /// Number of nodes of the endpoint's type.
        count: usize,
    },
    /// An installed half-path product does not have the shape the path
    /// has on the network (rows: endpoint count; columns: middle).
    HalfShape {
        /// Which half ("left" or "right").
        half: &'static str,
        /// `(rows, cols)` the path needs.
        expected: (usize, usize),
        /// `(rows, cols)` of the offered matrix.
        found: (usize, usize),
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Graph(e) => write!(f, "{e}"),
            CoreError::Sparse(e) => write!(f, "{e}"),
            CoreError::NodeOutOfRange {
                endpoint,
                index,
                count,
            } => write!(
                f,
                "{endpoint} node #{index} out of range (type has {count} nodes)"
            ),
            CoreError::HalfShape {
                half,
                expected,
                found,
            } => write!(
                f,
                "{half} half is {}x{}, the path needs {}x{}",
                found.0, found.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            CoreError::Sparse(e) => Some(e),
            CoreError::NodeOutOfRange { .. } | CoreError::HalfShape { .. } => None,
        }
    }
}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<SparseError> for CoreError {
    fn from(e: SparseError) -> Self {
        CoreError::Sparse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let g: CoreError = GraphError::NotConcatenable.into();
        assert!(matches!(g, CoreError::Graph(_)));
        let s: CoreError = SparseError::EmptyChain.into();
        assert!(matches!(s, CoreError::Sparse(_)));
        let n = CoreError::NodeOutOfRange {
            endpoint: "source",
            index: 9,
            count: 3,
        };
        assert!(n.to_string().contains("source"));
        assert!(n.to_string().contains('9'));
    }

    #[test]
    fn error_source_chains() {
        use std::error::Error;
        let e: CoreError = SparseError::EmptyChain.into();
        assert!(e.source().is_some());
    }
}
