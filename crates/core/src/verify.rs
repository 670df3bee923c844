//! Harness-side soundness checks.
//!
//! A discovery run is only meaningful if the protocol (a) never invents
//! identifiers, (b) never forgets what it knew, and (c) reaches the
//! completion state it claims. These checks are run by the omniscient
//! harness over the node population; protocols cannot see them.

use crate::algorithms::KnowledgeView;
use crate::problem::{self, InitialKnowledge};
use rd_graphs::{connectivity, DiGraph};
use rd_sim::NodeId;

/// Checks that every identifier known by any node actually names one of
/// the `n` machines of the instance (no fabricated identifiers).
pub fn no_fabricated_ids<N: KnowledgeView>(nodes: &[N]) -> bool {
    let n = nodes.len();
    nodes
        .iter()
        .all(|node| node.knowledge().max_id().is_none_or(|top| top.index() < n))
}

/// Checks that every node still knows its entire initial knowledge
/// (knowledge is monotone from the start state).
pub fn retains_initial_knowledge<N: KnowledgeView>(
    nodes: &[N],
    initial: &InitialKnowledge,
) -> bool {
    nodes.len() == initial.len()
        && nodes
            .iter()
            .zip(initial.rows())
            .all(|(node, init)| init.iter().all(|&id| node.knowledge().contains(id)))
}

/// Checks that every node knows itself (identity is never lost).
pub fn knows_self<N: KnowledgeView>(nodes: &[N]) -> bool {
    nodes
        .iter()
        .enumerate()
        .all(|(i, node)| node.knowledge().contains(NodeId::new(i as u32)))
}

/// Fault-aware convergence check: every live node knows every live node
/// in its weakly-connected component of the *live* initial-knowledge
/// graph (the initial graph restricted to live endpoints).
///
/// This is the strongest completeness claim a run under permanent
/// crashes can make: knowledge cannot cross a cut consisting entirely
/// of dead machines, so each surviving component can at best converge
/// on itself. A live node may additionally know dead identifiers, or
/// identifiers from other components learned through machines that
/// died later — knowledge is monotone, so such over-approximation is
/// legitimate; pair this check with [`no_fabricated_ids`] to bound the
/// other side.
///
/// # Panics
///
/// Panics if `initial` or `live` disagree with `nodes` on length.
pub fn live_component_complete<N: KnowledgeView>(
    nodes: &[N],
    initial: &InitialKnowledge,
    live: &[bool],
) -> bool {
    assert_eq!(
        nodes.len(),
        initial.len(),
        "initial knowledge size mismatch"
    );
    assert_eq!(nodes.len(), live.len(), "live mask size mismatch");
    let n = nodes.len();
    let mut edges = Vec::new();
    for (u, init) in initial.rows().enumerate() {
        if !live[u] {
            continue;
        }
        for &v in init {
            let v = v.index();
            if v != u && live[v] {
                edges.push((u, v));
            }
        }
    }
    let labels = connectivity::weak_components(&DiGraph::from_edges(n, edges));
    let mut members: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, &label) in labels.iter().enumerate() {
        if live[i] {
            members.entry(label).or_default().push(i);
        }
    }
    // One coverage mask per component (no longer than its largest
    // member needs), tested word-level against each of its members.
    members.values().all(|component| {
        let span = component.last().map_or(0, |&top| top + 1);
        let (mask, size) = problem::id_mask(span, component.iter().copied());
        component.iter().all(|&i| {
            let known = nodes[i].knowledge();
            known.len() >= size && known.covers(&mask)
        })
    })
}

/// Round-over-round monotonicity checker: feed it the node population
/// after every round; it reports the first shrink it sees.
///
/// # Example
///
/// ```
/// use rd_core::verify::MonotonicityChecker;
/// # use rd_core::algorithms::KnowledgeView;
/// # use rd_core::KnowledgeSet;
/// # use rd_sim::NodeId;
/// # struct Fake(KnowledgeSet);
/// # impl KnowledgeView for Fake {
/// #     fn knowledge(&self) -> &KnowledgeSet { &self.0 }
/// # }
/// let mut checker = MonotonicityChecker::new();
/// let mut nodes = vec![Fake(KnowledgeSet::new(NodeId::new(0)))];
/// assert!(checker.observe(&nodes).is_ok());
/// nodes[0].0.insert(NodeId::new(1));
/// assert!(checker.observe(&nodes).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MonotonicityChecker {
    previous: Vec<usize>,
}

impl MonotonicityChecker {
    /// Creates a checker with no history.
    pub fn new() -> Self {
        MonotonicityChecker::default()
    }

    /// Records the current knowledge sizes; errors if any node's
    /// knowledge shrank since the previous observation.
    ///
    /// # Errors
    ///
    /// Returns the offending node index and the before/after counts.
    pub fn observe<N: KnowledgeView>(&mut self, nodes: &[N]) -> Result<(), MonotonicityViolation> {
        let now: Vec<usize> = nodes.iter().map(|n| n.knows_count()).collect();
        if self.previous.len() == now.len() {
            for (i, (&before, &after)) in self.previous.iter().zip(&now).enumerate() {
                if after < before {
                    return Err(MonotonicityViolation {
                        node: i,
                        before,
                        after,
                    });
                }
            }
        }
        self.previous = now;
        Ok(())
    }
}

/// A node's knowledge shrank between two observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonotonicityViolation {
    /// Offending node index.
    pub node: usize,
    /// Knowledge size at the previous observation.
    pub before: usize,
    /// Knowledge size now.
    pub after: usize,
}

impl std::fmt::Display for MonotonicityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} knowledge shrank from {} to {}",
            self.node, self.before, self.after
        )
    }
}

impl std::error::Error for MonotonicityViolation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::KnowledgeSet;

    struct Fake(KnowledgeSet);
    impl KnowledgeView for Fake {
        fn knowledge(&self) -> &KnowledgeSet {
            &self.0
        }
    }

    fn fake(ids: &[u32]) -> Fake {
        Fake(ids.iter().map(|&i| NodeId::new(i)).collect())
    }

    #[test]
    fn fabrication_detected() {
        let ok = [fake(&[0, 1]), fake(&[1])];
        assert!(no_fabricated_ids(&ok));
        let bad = [fake(&[0, 7]), fake(&[1])];
        assert!(!no_fabricated_ids(&bad));
    }

    #[test]
    fn initial_retention_detected() {
        let initial = InitialKnowledge::from_rows([
            vec![NodeId::new(0), NodeId::new(1)],
            vec![NodeId::new(1)],
        ]);
        assert!(retains_initial_knowledge(
            &[fake(&[0, 1]), fake(&[1])],
            &initial
        ));
        assert!(!retains_initial_knowledge(
            &[fake(&[0]), fake(&[1])],
            &initial
        ));
    }

    #[test]
    fn self_knowledge_detected() {
        assert!(knows_self(&[fake(&[0]), fake(&[1, 0])]));
        assert!(!knows_self(&[fake(&[1]), fake(&[1])]));
    }

    #[test]
    fn live_component_complete_splits_on_dead_cut() {
        // Path 0 - 1 - 2 - 3 where node 2 is dead: live components are
        // {0, 1} and {3}.
        let initial = InitialKnowledge::from_rows([
            vec![NodeId::new(0), NodeId::new(1)],
            vec![NodeId::new(1), NodeId::new(2)],
            vec![NodeId::new(2), NodeId::new(3)],
            vec![NodeId::new(3)],
        ]);
        let live = vec![true, true, false, true];
        // 0 and 1 know each other, 3 knows itself: complete.
        let ok = [fake(&[0, 1]), fake(&[0, 1]), fake(&[2]), fake(&[3])];
        assert!(live_component_complete(&ok, &initial, &live));
        // Extra knowledge of the dead node or the far component is fine.
        let over = [fake(&[0, 1, 2, 3]), fake(&[0, 1]), fake(&[2]), fake(&[3])];
        assert!(live_component_complete(&over, &initial, &live));
        // Node 1 missing its live neighbour 0: incomplete.
        let bad = [fake(&[0, 1]), fake(&[1, 2]), fake(&[2]), fake(&[3])];
        assert!(!live_component_complete(&bad, &initial, &live));
        // Dead nodes are never required to know anything.
        let dead_ignorant = [fake(&[0, 1]), fake(&[0, 1]), fake(&[]), fake(&[3])];
        assert!(live_component_complete(&dead_ignorant, &initial, &live));
    }

    #[test]
    fn live_component_complete_all_live_is_full_convergence() {
        let initial = InitialKnowledge::from_rows([
            vec![NodeId::new(0), NodeId::new(1)],
            vec![NodeId::new(1), NodeId::new(2)],
            vec![NodeId::new(2), NodeId::new(0)],
        ]);
        let live = vec![true, true, true];
        let full = [fake(&[0, 1, 2]), fake(&[0, 1, 2]), fake(&[0, 1, 2])];
        assert!(live_component_complete(&full, &initial, &live));
        let partial = [fake(&[0, 1, 2]), fake(&[0, 1, 2]), fake(&[2, 0])];
        assert!(!live_component_complete(&partial, &initial, &live));
    }

    #[test]
    fn monotonicity_checker_flags_shrink() {
        let mut checker = MonotonicityChecker::new();
        checker.observe(&[fake(&[0, 1, 2])]).unwrap();
        checker.observe(&[fake(&[0, 1, 2, 3])]).unwrap();
        let err = checker.observe(&[fake(&[0])]).unwrap_err();
        assert_eq!(err.node, 0);
        assert_eq!((err.before, err.after), (4, 1));
        assert!(err.to_string().contains("shrank"));
    }
}
