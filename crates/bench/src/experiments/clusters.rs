//! **F3** — cluster-count evolution per super-round: the
//! doubly-exponential collapse that makes the algorithm sub-logarithmic.

use crate::profile::Profile;
use rd_analysis::Table;
use rd_core::algorithms::hm::{cluster_count, HmDiscovery, PHASES};
use rd_core::{problem, DiscoveryAlgorithm};
use rd_graphs::Topology;
use rd_sim::{Engine, RoundEngine};

/// Cluster counts at every super-round boundary (index 0 = before any
/// communication) for one run on the random-overlay workload.
pub fn cluster_series(n: usize, seed: u64) -> Vec<usize> {
    let g = Topology::KOut { k: 3 }.generate(n, seed);
    let nodes = HmDiscovery::default().make_nodes(&problem::initial_knowledge(&g));
    let mut engine = Engine::new(nodes, seed);
    let mut series = vec![cluster_count(engine.nodes())];
    engine.run_observed(
        1_000_000,
        problem::everyone_knows_everyone,
        |round, nodes| {
            if round % PHASES == 0 {
                series.push(cluster_count(nodes));
            }
        },
    );
    series.push(cluster_count(engine.nodes()));
    series
}

/// Runs the experiment: one column per `n`, one row per super-round.
pub fn run(profile: Profile) -> Table {
    let ns: Vec<usize> = match profile {
        Profile::Quick => vec![256, 1024],
        Profile::Full => vec![1024, 4096, 16384],
    };
    let all: Vec<Vec<usize>> = ns.iter().map(|&n| cluster_series(n, 1)).collect();
    let depth = all.iter().map(Vec::len).max().unwrap_or(0);
    let mut headers = vec!["super-round".to_string()];
    headers.extend(ns.iter().map(|n| format!("clusters (n={n})")));
    let mut t = Table::new(headers);
    for sr in 0..depth {
        let mut row = vec![sr.to_string()];
        for series in &all {
            row.push(
                series
                    .get(sr)
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "1".into()),
            );
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_starts_at_n_and_collapses() {
        let series = cluster_series(128, 3);
        assert_eq!(series[0], 128);
        assert!(*series.last().unwrap() <= 2);
        // A handful of super-rounds erases almost all clusters...
        assert!(series.len() >= 4, "{series:?}");
        assert!(series[3] <= 128 / 8, "collapse too slow: {series:?}");
        // ...and the collapse *accelerates*: the later contraction factor
        // dominates the earlier one (the doubly-exponential signature).
        let f_early = series[0] as f64 / series[1].max(1) as f64;
        let f_late = series[2] as f64 / series[3].max(1) as f64;
        assert!(
            f_late > f_early,
            "no acceleration: early {f_early:.2}, late {f_late:.2}, {series:?}"
        );
    }

    #[test]
    fn table_has_one_row_per_super_round() {
        // Exercise the plumbing with a direct mini-series.
        let s = cluster_series(64, 1);
        assert!(s.len() >= 2);
    }
}
