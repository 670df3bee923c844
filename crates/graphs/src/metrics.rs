//! Structural metrics of knowledge graphs: BFS distances, eccentricity,
//! and diameter.
//!
//! The round lower bound `Ω(log D)` discussed in DESIGN.md §1.1 is stated
//! in terms of the diameter `D` of the *undirected closure* of the initial
//! knowledge graph, so that is the diameter this module computes by
//! default.

use crate::connectivity;
use crate::digraph::DiGraph;

/// Distance (in hops) from `src` to every node following directed edges;
/// `u32::MAX` marks unreachable nodes.
pub fn bfs_distances(g: &DiGraph, src: usize) -> Vec<u32> {
    let n = g.node_count();
    assert!(src < n, "source {src} out of range for n={n}");
    let mut dist = vec![u32::MAX; n];
    dist[src] = 0;
    let mut frontier = vec![src as u32];
    let mut next = Vec::new();
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        for &u in &frontier {
            for &v in g.out(u as usize) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = d;
                    next.push(v);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    dist
}

/// Eccentricity of `src` in `g` (max finite BFS distance), or `None` if
/// some node is unreachable from `src`.
pub fn eccentricity(g: &DiGraph, src: usize) -> Option<u32> {
    let dist = bfs_distances(g, src);
    let mut ecc = 0;
    for &d in &dist {
        if d == u32::MAX {
            return None;
        }
        ecc = ecc.max(d);
    }
    Some(ecc)
}

/// Exact diameter of the undirected closure of `g`, or `None` when the
/// graph is not weakly connected (diameter undefined) or has no nodes.
///
/// Runs one BFS per node — `O(n · (n + m))` — which is fine for the graph
/// sizes used in unit tests and topology validation. Use
/// [`approx_undirected_diameter`] in sweeps.
pub fn undirected_diameter(g: &DiGraph) -> Option<u32> {
    let u = g.undirected_closure();
    let n = u.node_count();
    if n == 0 || !connectivity::is_weakly_connected(g) {
        return None;
    }
    let mut diam = 0;
    for src in 0..n {
        diam = diam.max(eccentricity(&u, src)?);
    }
    Some(diam)
}

/// Lower bound on the undirected diameter via the double-sweep heuristic:
/// BFS from `src`, then BFS from the farthest node found. Exact on trees,
/// a tight lower bound in practice; `O(n + m)`.
pub fn approx_undirected_diameter(g: &DiGraph, src: usize) -> Option<u32> {
    let u = g.undirected_closure();
    if u.node_count() == 0 || !connectivity::is_weakly_connected(g) {
        return None;
    }
    let d1 = bfs_distances(&u, src);
    let far = d1
        .iter()
        .enumerate()
        .max_by_key(|&(_, &d)| d)
        .map(|(i, _)| i)?;
    eccentricity(&u, far)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> DiGraph {
        DiGraph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn bfs_on_path_counts_hops() {
        let g = path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![u32::MAX, u32::MAX, 0, 1, 2]);
    }

    #[test]
    fn eccentricity_none_when_unreachable() {
        let g = path(4);
        assert_eq!(eccentricity(&g, 0), Some(3));
        assert_eq!(eccentricity(&g, 3), None);
    }

    #[test]
    fn path_diameter_is_n_minus_one() {
        assert_eq!(undirected_diameter(&path(6)), Some(5));
    }

    #[test]
    fn star_diameter_is_two() {
        let g = DiGraph::from_edges(5, (1..5).map(|i| (0, i)));
        assert_eq!(undirected_diameter(&g), Some(2));
    }

    #[test]
    fn disconnected_diameter_is_none() {
        assert_eq!(undirected_diameter(&DiGraph::new(3)), None);
    }

    #[test]
    fn double_sweep_exact_on_path() {
        let g = path(33);
        assert_eq!(approx_undirected_diameter(&g, 16), Some(32));
    }

    #[test]
    fn double_sweep_lower_bounds_exact() {
        // A 4x4 grid (undirected via closure).
        let mut g = DiGraph::new(16);
        for r in 0..4 {
            for c in 0..4 {
                let v = r * 4 + c;
                if c + 1 < 4 {
                    g.add_edge(v, v + 1);
                }
                if r + 1 < 4 {
                    g.add_edge(v, v + 4);
                }
            }
        }
        let exact = undirected_diameter(&g).unwrap();
        let approx = approx_undirected_diameter(&g, 5).unwrap();
        assert!(approx <= exact);
        assert_eq!(exact, 6);
    }
}
