//! Instance construction and completion predicates for the
//! resource-discovery problem.

use crate::algorithms::KnowledgeView;
use rd_graphs::{connectivity, DiGraph};
use rd_sim::NodeId;

/// Per-node initial knowledge in compressed-sparse-row form: one flat
/// id array plus `n + 1` offsets, where row `u` is node `u`'s starting
/// knowledge — itself first, then its out-neighbours in ascending
/// order.
///
/// This is the instance handed to every
/// [`DiscoveryAlgorithm::make_nodes`](crate::DiscoveryAlgorithm::make_nodes)
/// and consumed by both engines' node-construction paths. The flat
/// layout replaces the former `Vec<Vec<NodeId>>`: building a 2^20-node
/// instance used to allocate a million separate row vectors that node
/// construction then walked pointer by pointer — as CSR it is two
/// contiguous arrays, built in one pass over the graph's rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialKnowledge {
    /// Row `u` is `ids[offsets[u] as usize..offsets[u + 1] as usize]`.
    offsets: Vec<u32>,
    /// All rows concatenated; each starts with the owning node's id.
    ids: Vec<NodeId>,
}

impl InitialKnowledge {
    /// Builds an instance directly from per-node rows (each node's ids,
    /// itself first) — for tests and hand-crafted instances. Unlike
    /// [`initial_knowledge`], performs no connectivity validation.
    pub fn from_rows<R: AsRef<[NodeId]>>(rows: impl IntoIterator<Item = R>) -> Self {
        let mut offsets = vec![0u32];
        let mut ids = Vec::new();
        for row in rows {
            ids.extend_from_slice(row.as_ref());
            offsets.push(u32::try_from(ids.len()).expect("instance too large for u32 offsets"));
        }
        InitialKnowledge { offsets, ids }
    }

    /// Number of nodes in the instance.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` for the zero-node instance.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Node `u`'s initial knowledge: `u` itself first, then its
    /// out-neighbours ascending.
    pub fn of(&self, u: usize) -> &[NodeId] {
        &self.ids[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// All rows in node order.
    pub fn rows(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        (0..self.len()).map(move |u| self.of(u))
    }
}

impl std::ops::Index<usize> for InitialKnowledge {
    type Output = [NodeId];

    fn index(&self, u: usize) -> &[NodeId] {
        self.of(u)
    }
}

/// Builds the per-node initial knowledge from an initial knowledge graph:
/// node `u` starts knowing itself plus every out-neighbour in `g`.
///
/// # Panics
///
/// Panics if `g` is not weakly connected — resource discovery is
/// undefined (and unsolvable) on disconnected knowledge graphs.
pub fn initial_knowledge(g: &DiGraph) -> InitialKnowledge {
    assert!(
        connectivity::is_weakly_connected(g),
        "initial knowledge graph must be weakly connected"
    );
    let n = g.node_count();
    let edges = g.edge_count();
    assert!(
        n + edges <= u32::MAX as usize,
        "instance too large for u32 CSR offsets"
    );
    let mut offsets = Vec::with_capacity(n + 1);
    let mut ids = Vec::with_capacity(n + edges);
    offsets.push(0);
    for u in 0..n {
        ids.push(NodeId::new(u as u32));
        ids.extend(g.out(u).iter().copied().map(NodeId::new));
        offsets.push(ids.len() as u32);
    }
    InitialKnowledge { offsets, ids }
}

/// `true` when every node knows every identifier — the strongest
/// completion notion (`EveryoneKnowsEveryone` in DESIGN.md).
pub fn everyone_knows_everyone<N: KnowledgeView>(nodes: &[N]) -> bool {
    let n = nodes.len();
    nodes.iter().all(|node| node.knows_count() == n)
}

/// The bitmap form of an index selection, as
/// [`KnowledgeSet::covers`](crate::KnowledgeSet::covers) reads it:
/// index `i` is bit `i % 64` of word `i / 64`. Returns the mask and how
/// many indices it holds.
pub(crate) fn id_mask(n: usize, selected: impl IntoIterator<Item = usize>) -> (Vec<u64>, usize) {
    let mut mask = vec![0u64; n.div_ceil(64)];
    let mut count = 0;
    for i in selected {
        mask[i / 64] |= 1 << (i % 64);
        count += 1;
    }
    (mask, count)
}

/// The live nodes of a crash-faulted instance as the completion checks
/// read them — a bitmap of the live ids and how many there are — built
/// once per run, where the harness asks its predicates every round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveMask {
    /// Node `i` is live iff bit `i % 64` of word `i / 64` is set.
    mask: Vec<u64>,
    count: usize,
    nodes: usize,
}

impl LiveMask {
    /// The mask of `live`, where `live[i]` marks node `i` live.
    pub fn new(live: &[bool]) -> Self {
        let (mask, count) = id_mask(live.len(), (0..live.len()).filter(|&i| live[i]));
        LiveMask {
            mask,
            count,
            nodes: live.len(),
        }
    }

    fn is_live(&self, i: usize) -> bool {
        self.mask[i / 64] >> (i % 64) & 1 == 1
    }

    /// Whether `node` knows every live node. A node knowing fewer ids
    /// than there are live nodes cannot — an O(1) count check that
    /// prunes the word-level [`covers`](crate::KnowledgeSet::covers).
    /// With every node live the live ids are all of `0..n`, and a node
    /// that knows at least n ids, none of them n or above, knows exactly
    /// those: its count and its largest id answer without the words.
    /// Any other mask, or a node knowing an id ≥ n (the fabricated-ids
    /// check's concern, not this one's), asks `covers`.
    fn knows_every_live<N: KnowledgeView>(&self, node: &N) -> bool {
        let known = node.knowledge();
        if known.len() < self.count {
            return false;
        }
        let everyone_live = self.count == self.nodes;
        (everyone_live && known.max_id().is_some_and(|top| top.index() < self.nodes))
            || known.covers(&self.mask)
    }

    /// [`everyone_knows_everyone`] restricted to the live nodes: every
    /// live node knows every live node. With every node live this is the
    /// unrestricted predicate.
    ///
    /// # Panics
    ///
    /// Panics if the mask is not of `nodes.len()` nodes.
    pub fn everyone_knows_everyone<N: KnowledgeView>(&self, nodes: &[N]) -> bool {
        assert_eq!(nodes.len(), self.nodes, "live mask size mismatch");
        nodes
            .iter()
            .enumerate()
            .all(|(i, node)| !self.is_live(i) || self.knows_every_live(node))
    }

    /// The classic PODC '99 completion notion (`LeaderKnowsAll` in
    /// DESIGN.md), restricted to the live nodes: some live ℓ knows
    /// every live node, and every live node knows ℓ — one more
    /// broadcast round from ℓ finishes the job.
    ///
    /// # Panics
    ///
    /// Panics if the mask is not of `nodes.len()` nodes.
    pub fn leader_knows_all<N: KnowledgeView>(&self, nodes: &[N]) -> bool {
        assert_eq!(nodes.len(), self.nodes, "live mask size mismatch");
        nodes.iter().enumerate().any(|(i, node)| {
            self.is_live(i)
                && self.knows_every_live(node)
                && nodes.iter().enumerate().all(|(j, other)| {
                    !self.is_live(j) || other.knowledge().contains(NodeId::new(i as u32))
                })
        })
    }
}

/// [`everyone_knows_everyone`] restricted to the live nodes of a
/// crash-faulted instance: every live node knows every live node.
/// (`live[i]` marks node `i` live; with every node live this is
/// equivalent to the unrestricted predicate.) A caller that asks every
/// round builds the [`LiveMask`] once instead.
///
/// # Panics
///
/// Panics if `live.len() != nodes.len()`.
pub fn everyone_knows_everyone_among<N: KnowledgeView>(nodes: &[N], live: &[bool]) -> bool {
    LiveMask::new(live).everyone_knows_everyone(nodes)
}

/// Some live ℓ knows every live node, and every live node knows ℓ
/// ([`LiveMask::leader_knows_all`]; `live[i]` marks node `i` live). A
/// caller that asks every round builds the [`LiveMask`] once instead.
///
/// # Panics
///
/// Panics if `live.len() != nodes.len()`.
pub fn leader_knows_all_among<N: KnowledgeView>(nodes: &[N], live: &[bool]) -> bool {
    LiveMask::new(live).leader_knows_all(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::knowledge::KnowledgeSet;
    use rd_graphs::Topology;

    struct Fake(KnowledgeSet);

    impl KnowledgeView for Fake {
        fn knowledge(&self) -> &KnowledgeSet {
            &self.0
        }
    }

    fn fake(ids: &[u32]) -> Fake {
        Fake(ids.iter().map(|&i| NodeId::new(i)).collect())
    }

    /// The plain `LeaderKnowsAll` predicate: every node live.
    fn leader_knows_all(nodes: &[Fake]) -> bool {
        leader_knows_all_among(nodes, &vec![true; nodes.len()])
    }

    #[test]
    fn initial_knowledge_includes_self_first() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let init = initial_knowledge(&g);
        assert_eq!(init.len(), 3);
        assert_eq!(&init[0], &[NodeId::new(0), NodeId::new(1)][..]);
        assert_eq!(&init[2], &[NodeId::new(2), NodeId::new(0)][..]);
        let rows: Vec<&[NodeId]> = init.rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], init.of(1));
        // Row u is u, then g.out(u) ascending, on every family.
        for topo in Topology::survey() {
            let g = topo.generate(100, 9);
            let init = initial_knowledge(&g);
            assert_eq!(init.len(), g.node_count(), "{topo:?}");
            for (u, row) in init.rows().enumerate() {
                let out: Vec<NodeId> = g.out(u).iter().map(|&v| NodeId::new(v)).collect();
                assert_eq!(row[0], NodeId::new(u as u32), "{topo:?} row {u}");
                assert_eq!(&row[1..], &out[..], "{topo:?} row {u}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "weakly connected")]
    fn disconnected_instance_rejected() {
        initial_knowledge(&DiGraph::new(2));
    }

    #[test]
    fn everyone_predicate() {
        let done = [fake(&[0, 1]), fake(&[1, 0])];
        let not = [fake(&[0, 1]), fake(&[1])];
        assert!(everyone_knows_everyone(&done));
        assert!(!everyone_knows_everyone(&not));
    }

    #[test]
    fn leader_predicate_requires_backlinks() {
        // Node 0 knows all, and everyone knows 0.
        let ok = [fake(&[0, 1, 2]), fake(&[1, 0]), fake(&[2, 0])];
        assert!(leader_knows_all(&ok));
        // Node 0 knows all, but node 2 does not know 0.
        let no_backlink = [fake(&[0, 1, 2]), fake(&[1, 0]), fake(&[2, 1])];
        assert!(!leader_knows_all(&no_backlink));
        // Nobody knows all.
        let nobody = [fake(&[0, 1]), fake(&[1, 2]), fake(&[2, 0])];
        assert!(!leader_knows_all(&nobody));
    }

    #[test]
    fn leader_predicate_weaker_than_everyone() {
        let ok = [fake(&[0, 1, 2]), fake(&[1, 0]), fake(&[2, 0])];
        assert!(leader_knows_all(&ok));
        assert!(!everyone_knows_everyone(&ok));
    }

    #[test]
    fn among_variants_ignore_crashed_nodes() {
        // Node 2 crashed: nobody needs to know it, it needs to know no one.
        let nodes = [fake(&[0, 1]), fake(&[1, 0]), fake(&[2])];
        let live = [true, true, false];
        assert!(everyone_knows_everyone_among(&nodes, &live));
        assert!(leader_knows_all_among(&nodes, &live));
        assert!(!everyone_knows_everyone(&nodes));
        // The live nodes must still know each other.
        let gap = [fake(&[0]), fake(&[1, 0]), fake(&[2])];
        assert!(!everyone_knows_everyone_among(&gap, &live));
    }

    #[test]
    fn among_with_all_live_matches_unrestricted() {
        let nodes = [fake(&[0, 1]), fake(&[1, 0])];
        let live = [true, true];
        assert_eq!(
            everyone_knows_everyone_among(&nodes, &live),
            everyone_knows_everyone(&nodes)
        );
    }

    #[test]
    #[should_panic(expected = "mask size")]
    fn among_rejects_wrong_mask() {
        let nodes = [fake(&[0])];
        everyone_knows_everyone_among(&nodes, &[true, false]);
    }
}
