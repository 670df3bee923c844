//! A compact adjacency-list directed graph over `0..n` node indices.

use std::fmt;

/// A directed graph over node indices `0..n`.
///
/// Edges are stored as per-node out-adjacency lists. Parallel edges are
/// collapsed on insertion (each list is kept sorted), self-loops are
/// rejected, and the representation is deliberately minimal: discovery
/// algorithms only ever need "who does `u` initially know".
///
/// # Example
///
/// ```
/// use rd_graphs::DiGraph;
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(0, 2);
/// g.add_edge(0, 1); // duplicate, ignored
/// assert_eq!(g.out(0), &[1, 2]);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DiGraph {
    adj: Vec<Vec<u32>>,
    edges: usize,
}

impl DiGraph {
    /// Creates an edgeless graph with `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` (node indices are stored as `u32`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "node count {n} exceeds u32 range");
        DiGraph {
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = DiGraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of (distinct) directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Adds the directed edge `u -> v`. Returns `true` if the edge was new.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range, or if `u == v` (knowledge
    /// graphs implicitly contain every self-loop; storing them would only
    /// skew edge counts).
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        let n = self.node_count();
        assert!(u < n && v < n, "edge ({u}, {v}) out of range for n={n}");
        assert_ne!(u, v, "self-loop ({u}, {u}) rejected");
        let list = &mut self.adj[u];
        match list.binary_search(&(v as u32)) {
            Ok(_) => false,
            Err(pos) => {
                list.insert(pos, v as u32);
                self.edges += 1;
                true
            }
        }
    }

    /// Out-neighbours of `u`, sorted ascending.
    pub fn out(&self, u: usize) -> &[u32] {
        &self.adj[u]
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// In-degree of every node, computed in one pass.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.node_count()];
        for list in &self.adj {
            for &v in list {
                deg[v as usize] += 1;
            }
        }
        deg
    }

    /// Iterates over all directed edges as `(u, v)` pairs.
    pub fn iter_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, list)| list.iter().map(move |&v| (u, v as usize)))
    }

    /// The undirected closure: a graph containing `u -> v` and `v -> u`
    /// for every edge of `self`. Used for weak-connectivity and diameter
    /// analysis.
    pub fn undirected_closure(&self) -> DiGraph {
        let mut g = DiGraph::new(self.node_count());
        for (u, v) in self.iter_edges() {
            g.add_edge(u, v);
            g.add_edge(v, u);
        }
        g
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiGraph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edges)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_edgeless() {
        let g = DiGraph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        for u in 0..5 {
            assert!(g.out(u).is_empty());
        }
    }

    #[test]
    fn add_edge_deduplicates() {
        let mut g = DiGraph::new(3);
        assert!(g.add_edge(0, 2));
        assert!(!g.add_edge(0, 2));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn adjacency_stays_sorted() {
        let mut g = DiGraph::new(5);
        g.add_edge(0, 4);
        g.add_edge(0, 1);
        g.add_edge(0, 3);
        assert_eq!(g.out(0), &[1, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        DiGraph::new(2).add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        DiGraph::new(2).add_edge(0, 2);
    }

    #[test]
    fn in_degrees_counts_incoming() {
        let g = DiGraph::from_edges(4, [(0, 3), (1, 3), (2, 3), (3, 0)]);
        assert_eq!(g.in_degrees(), vec![1, 0, 0, 3]);
    }

    #[test]
    fn iter_edges_yields_all_pairs() {
        let edges = [(0, 1), (1, 2), (2, 0)];
        let g = DiGraph::from_edges(3, edges);
        let mut got: Vec<_> = g.iter_edges().collect();
        got.sort_unstable();
        assert_eq!(got, edges.to_vec());
    }

    #[test]
    fn undirected_closure_symmetrizes() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let u = g.undirected_closure();
        assert_eq!(u.out(1), &[0, 2]);
        assert_eq!(u.out(2), &[1]);
        assert_eq!(u.edge_count(), 4);
    }

    #[test]
    fn debug_is_nonempty() {
        let g = DiGraph::new(1);
        assert!(!format!("{g:?}").is_empty());
    }
}
