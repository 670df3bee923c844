//! Compressed sparse row (CSR) adjacency: the flat, cache-friendly
//! read-side counterpart of [`DiGraph`].
//!
//! [`DiGraph`] stores one heap `Vec` per node — convenient for
//! incremental construction (sorted-insert dedup), but traversing a
//! million rows chases a million separate allocations. `CsrAdjacency`
//! freezes a finished graph into exactly two arrays: a single edge
//! array holding every target consecutively, and an `n + 1` offset
//! array delimiting each node's slice. Row lookup is two loads into
//! memory that prefetchers understand, and the whole structure for
//! n=2^20 / 3-out graphs is ~16 MB contiguous instead of a pointer
//! forest.
//!
//! Everything downstream of topology generation consumes adjacency
//! read-only — instance construction
//! (`rd_core::problem::initial_knowledge`) flattens through here, so
//! both the sequential and sharded engines are fed from CSR rows.

use crate::digraph::DiGraph;

/// Frozen CSR adjacency built from a [`DiGraph`].
///
/// Rows preserve `DiGraph`'s ordering guarantee: each node's targets
/// are sorted ascending and deduplicated.
///
/// # Example
///
/// ```
/// use rd_graphs::{CsrAdjacency, DiGraph};
///
/// let g = DiGraph::from_edges(3, [(0, 2), (0, 1), (2, 0)]);
/// let csr = CsrAdjacency::from_digraph(&g);
/// assert_eq!(csr.row(0), &[1, 2]);
/// assert_eq!(csr.row(1), &[] as &[u32]);
/// assert_eq!(csr.row(2), &[0]);
/// assert_eq!(csr.edge_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAdjacency {
    /// `offsets[u]..offsets[u + 1]` delimits node `u`'s slice of
    /// `targets`; `offsets.len() == node_count + 1`.
    offsets: Vec<u32>,
    /// All out-edges, row by row — the single flat edge array.
    targets: Vec<u32>,
}

impl CsrAdjacency {
    /// Flattens `g` into CSR form.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more than `u32::MAX` edges (offsets are `u32`
    /// to halve the offset array's cache footprint; 4 G edges is far
    /// beyond any instance this repository simulates).
    pub fn from_digraph(g: &DiGraph) -> Self {
        let n = g.node_count();
        assert!(
            g.edge_count() <= u32::MAX as usize,
            "edge count {} exceeds u32 offsets",
            g.edge_count()
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(g.edge_count());
        offsets.push(0);
        for u in 0..n {
            targets.extend_from_slice(g.out(u));
            offsets.push(targets.len() as u32);
        }
        CsrAdjacency { offsets, targets }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of `u`, sorted ascending.
    pub fn row(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Out-degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Iterates all rows in node order.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.node_count()).map(move |u| self.row(u))
    }

    /// The flat edge array (row-major).
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// The offset array (`node_count + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn csr_matches_digraph_rows_exactly() {
        for topo in [
            Topology::Path,
            Topology::KOut { k: 3 },
            Topology::BinaryTree,
            Topology::CliqueChain { cliques: 4 },
        ] {
            let g = topo.generate(100, 9);
            let csr = CsrAdjacency::from_digraph(&g);
            assert_eq!(csr.node_count(), g.node_count());
            assert_eq!(csr.edge_count(), g.edge_count());
            for u in 0..g.node_count() {
                assert_eq!(csr.row(u), g.out(u), "row {u} diverged");
                assert_eq!(csr.degree(u), g.out_degree(u));
            }
        }
    }

    #[test]
    fn empty_and_isolated_rows() {
        let csr = CsrAdjacency::from_digraph(&DiGraph::new(3));
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.edge_count(), 0);
        for u in 0..3 {
            assert!(csr.row(u).is_empty());
        }
        let none = CsrAdjacency::from_digraph(&DiGraph::new(0));
        assert_eq!(none.node_count(), 0);
        assert!(none.rows().next().is_none());
    }

    #[test]
    fn rows_iterator_covers_edge_array() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (1, 3), (3, 0)]);
        let csr = CsrAdjacency::from_digraph(&g);
        let flattened: Vec<u32> = csr.rows().flatten().copied().collect();
        assert_eq!(flattened, csr.targets());
        assert_eq!(csr.offsets(), &[0, 1, 3, 3, 4]);
    }
}
