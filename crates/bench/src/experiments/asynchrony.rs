//! **T10** — robustness to asynchrony: completion under random message
//! delays.
//!
//! The model (and the paper) is synchronous; real networks are not.
//! Here every message independently takes `1 + U{0..=j}` ticks to
//! arrive: the latency model `uniform:1:(1+j)`. The HM
//! implementation's handlers are event-driven and its
//! probe/join/report machinery retries, so correctness survives the
//! scrambled phase structure — this experiment measures the slowdown,
//! against Name-Dropper (whose single-transfer rounds barely care).

use crate::profile::Profile;
use rd_analysis::Table;
use rd_core::algorithms::{HmDiscovery, NameDropper, PointerDoubling};
use rd_core::{problem, DiscoveryAlgorithm};
use rd_graphs::Topology;
use rd_sim::{Engine, LatencyModel, Node, RoundEngine};

fn rounds_with_jitter<A>(alg: &A, n: usize, seed: u64, jitter: u64) -> (bool, u64)
where
    A: DiscoveryAlgorithm,
    A::NodeState: Node,
{
    let g = Topology::KOut { k: 3 }.generate(n, seed);
    let nodes = alg.make_nodes(&problem::initial_knowledge(&g));
    let latency = LatencyModel::Uniform {
        min: 1,
        max: 1 + jitter,
    };
    let mut engine = Engine::new(nodes, seed).with_latency(latency);
    let outcome = engine.run_until(200_000, problem::everyone_knows_everyone);
    (outcome.completed, outcome.rounds)
}

/// Runs the jitter sweep at the profile's survey size.
pub fn run(profile: Profile) -> Table {
    let n = profile.survey_n();
    let seed = 1;
    let jitters = [0u64, 1, 2, 4, 8];
    let mut headers = vec!["algorithm".to_string()];
    headers.extend(jitters.iter().map(|j| format!("uniform:1:{}", 1 + j)));
    let mut t = Table::new(headers);

    let mut add_row = |name: &str, f: &dyn Fn(u64) -> (bool, u64)| {
        let mut row = vec![name.to_string()];
        for &j in &jitters {
            let (done, rounds) = f(j);
            row.push(if done {
                rounds.to_string()
            } else {
                format!("{rounds} (incomplete)")
            });
        }
        t.row(row);
    };
    add_row("hm", &|j| {
        rounds_with_jitter(&HmDiscovery::default(), n, seed, j)
    });
    add_row("name-dropper", &|j| {
        rounds_with_jitter(&NameDropper, n, seed, j)
    });
    add_row("pointer-doubling", &|j| {
        rounds_with_jitter(&PointerDoubling, n, seed, j)
    });
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hm_completes_under_jitter() {
        for jitter in [1u64, 3, 7] {
            let (done, rounds) = rounds_with_jitter(&HmDiscovery::default(), 128, 5, jitter);
            assert!(done, "jitter={jitter} incomplete");
            assert!(rounds > 0);
        }
    }

    #[test]
    fn name_dropper_completes_under_jitter() {
        let (done, _) = rounds_with_jitter(&NameDropper, 96, 5, 5);
        assert!(done);
    }
}
