//! Exhaustive small-instance verification: every algorithm, on **every**
//! weakly connected directed graph with up to 4 nodes.
//!
//! Property tests sample the instance space; this test closes it for
//! small `n`: all 2⁶ = 64 digraphs on 3 nodes and all 2¹² = 4096 on 4
//! nodes (self-loops excluded by construction), filtered to the weakly
//! connected ones, each run to completion and soundness-checked. A
//! protocol bug that depends on some exotic little configuration — a
//! two-node cycle hanging off a sink, mutual edges, an isolated
//! in-degree-zero source — cannot hide here.

use resource_discovery::core::algorithms::hm::{HmConfig, MergeRule};
use resource_discovery::core::algorithms::{
    DiscoveryAlgorithm, Flooding, HmDiscovery, NameDropper, PointerDoubling, Swamping,
};
use resource_discovery::core::problem;
use resource_discovery::core::runner::RunReport;
use resource_discovery::graphs::{connectivity, DiGraph};
use resource_discovery::sim::{Engine, NodeId, RoundEngine};

/// All ordered node pairs `(u, v)`, `u != v`, for `n` nodes.
fn pairs(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for u in 0..n {
        for v in 0..n {
            if u != v {
                out.push((u, v));
            }
        }
    }
    out
}

/// Every weakly connected digraph on `n` nodes, as edge bitmasks.
fn weakly_connected_graphs(n: usize) -> Vec<DiGraph> {
    let pairs = pairs(n);
    let mut out = Vec::new();
    for mask in 0u32..(1 << pairs.len()) {
        let edges = pairs
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &e)| e);
        let g = DiGraph::from_edges(n, edges);
        if connectivity::is_weakly_connected(&g) {
            out.push(g);
        }
    }
    out
}

fn run_on<A>(alg: &A, g: &DiGraph, seed: u64) -> RunReport
where
    A: DiscoveryAlgorithm,
    A::NodeState: resource_discovery::sim::Node,
{
    // The runner regenerates from a Topology; here the instance is an
    // explicit graph, so drive the engine directly and mirror the
    // runner's checks.
    let initial = problem::initial_knowledge(g);
    let nodes = alg.make_nodes(&initial);
    let mut engine = Engine::new(nodes, seed);
    let outcome = engine.run_until(4_000, problem::everyone_knows_everyone);
    let nodes = engine.nodes();
    let n = g.node_count();
    let sound = nodes.iter().enumerate().all(|(i, node)| {
        use resource_discovery::core::KnowledgeView;
        let known = node.knowledge();
        known.contains(NodeId::new(i as u32)) && known.to_vec().iter().all(|id| id.index() < n)
    });
    RunReport {
        algorithm: alg.name(),
        topology: "explicit".into(),
        n,
        seed,
        completed: outcome.completed,
        verdict: if outcome.completed {
            resource_discovery::core::runner::RunVerdict::Complete
        } else {
            resource_discovery::core::runner::RunVerdict::BudgetExhausted
        },
        rounds: outcome.rounds,
        messages: engine.metrics().total_messages(),
        pointers: engine.metrics().total_pointers(),
        bits: engine.metrics().total_bits(),
        drops: Default::default(),
        retransmissions: 0,
        detector_retractions: 0,
        max_sent_messages: engine.metrics().max_sent_messages(),
        max_recv_messages: engine.metrics().max_recv_messages(),
        mean_messages_per_node: engine.metrics().mean_messages_per_node(),
        sound,
    }
}

fn exhaust<A>(alg: &A, n: usize)
where
    A: DiscoveryAlgorithm,
    A::NodeState: resource_discovery::sim::Node,
{
    let graphs = weakly_connected_graphs(n);
    assert!(!graphs.is_empty());
    for (i, g) in graphs.iter().enumerate() {
        let report = run_on(alg, g, 7);
        assert!(
            report.completed,
            "{} failed on graph #{i} of n={n}: edges {:?}",
            report.algorithm,
            g.iter_edges().collect::<Vec<_>>()
        );
        assert!(
            report.sound,
            "{} unsound on graph #{i} of n={n}",
            report.algorithm
        );
    }
}

#[test]
fn three_node_space_is_fully_covered() {
    // Sanity on the enumeration itself: of the 64 digraphs on 3 nodes,
    // exactly the weakly connected ones survive the filter, and both
    // extremes are present.
    let graphs = weakly_connected_graphs(3);
    assert!(
        graphs.iter().any(|g| g.edge_count() == 2),
        "spanning trees present"
    );
    assert!(
        graphs.iter().any(|g| g.edge_count() == 6),
        "complete graph present"
    );
    assert!(
        graphs.len() > 30 && graphs.len() < 64,
        "{} graphs",
        graphs.len()
    );
}

#[test]
fn hm_completes_on_every_small_instance() {
    exhaust(&HmDiscovery::default(), 3);
    exhaust(&HmDiscovery::default(), 4);
}

#[test]
fn hm_variants_complete_on_every_small_instance() {
    for rule in [MergeRule::RandomAbove, MergeRule::MinAbove] {
        exhaust(
            &HmDiscovery::new(HmConfig {
                merge_rule: rule,
                ..Default::default()
            }),
            4,
        );
    }
    exhaust(
        &HmDiscovery::new(HmConfig {
            parallel_probes: false,
            ..Default::default()
        }),
        4,
    );
}

#[test]
fn baselines_complete_on_every_small_instance() {
    exhaust(&Flooding, 4);
    exhaust(&NameDropper, 4);
    exhaust(&PointerDoubling, 4);
    exhaust(&Swamping, 4);
}
