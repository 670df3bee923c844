//! **T9** — the connection bottleneck: completion under per-node
//! receive caps.
//!
//! The unbounded-fan-in assumption hides a real cost: the winning merge
//! target absorbs many joins in a single round, and the final roster
//! broadcast answers everyone at once. Capping deliveries per node per
//! round (excess queues for later rounds) reveals how each algorithm's
//! hot spots serialize.

use crate::profile::Profile;
use rd_analysis::Table;
use rd_core::algorithms::{HmDiscovery, PointerDoubling};
use rd_core::{problem, DiscoveryAlgorithm};
use rd_graphs::Topology;
use rd_sim::{Engine, Node, RoundEngine};

fn rounds_with_cap<A>(alg: &A, n: usize, seed: u64, cap: Option<usize>) -> (bool, u64)
where
    A: DiscoveryAlgorithm,
    A::NodeState: Node,
{
    let g = Topology::KOut { k: 3 }.generate(n, seed);
    let nodes = alg.make_nodes(&problem::initial_knowledge(&g));
    let mut engine = Engine::new(nodes, seed);
    if let Some(cap) = cap {
        engine = engine.with_receive_cap(cap);
    }
    // A hard, small budget: protocols that keep retransmitting into a
    // capped receiver grow its queue without bound, so "did not finish
    // within 4096 rounds" is itself the finding — letting them run
    // longer only turns the finding into an out-of-memory.
    let outcome = engine.run_until(4_096, problem::everyone_knows_everyone);
    (outcome.completed, outcome.rounds)
}

/// Runs the bandwidth sweep. Capped at `n = 128`: a cap of 1 serialises
/// the hot spots into `Θ(n·traffic)` rounds, so larger instances take
/// hundreds of thousands of simulated rounds (and gigabytes of queued
/// retransmissions) to say the same thing.
pub fn run(profile: Profile) -> Table {
    let n = profile.survey_n().min(128);
    let seed = 1;
    let caps: [Option<usize>; 5] = [Some(1), Some(2), Some(4), Some(16), None];
    let mut headers = vec!["algorithm".to_string()];
    for cap in caps {
        headers.push(match cap {
            Some(c) => format!("cap {c}"),
            None => "unbounded".into(),
        });
    }
    let mut t = Table::new(headers);

    let mut hm_row = vec!["hm".to_string()];
    let mut pd_row = vec!["pointer-doubling".to_string()];
    for cap in caps {
        let (done, rounds) = rounds_with_cap(&HmDiscovery::default(), n, seed, cap);
        hm_row.push(if done {
            rounds.to_string()
        } else {
            format!("{rounds} (incomplete)")
        });
        let (done, rounds) = rounds_with_cap(&PointerDoubling, n, seed, cap);
        pd_row.push(if done {
            rounds.to_string()
        } else {
            format!("{rounds} (incomplete)")
        });
    }
    t.row(hm_row);
    t.row(pd_row);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_slow_but_do_not_break_hm() {
        // Cap 4 at n = 64: heavy enough to queue the hot spots, light
        // enough for debug-mode CI (cap 1 serialises the roster into
        // thousands of rounds — covered by the release-mode T9 run).
        let (done_unbounded, fast) = rounds_with_cap(&HmDiscovery::default(), 64, 3, None);
        let (done_capped, slow) = rounds_with_cap(&HmDiscovery::default(), 64, 3, Some(4));
        assert!(done_unbounded && done_capped);
        assert!(slow >= fast, "cap should not speed things up");
    }
}
