//! Critical-path extraction and convergence attribution over the
//! causal section of a run archive.
//!
//! The provenance DAG stores, per `(id, node)` pair, the first delivery
//! that taught `node` about `id`. Chaining each edge to the edge by
//! which its *sender* learned the same id yields the causal history of
//! any fact; the longest such chain — the one ending at the last
//! delivery of the run — is the critical path, the constructive answer
//! to "why did this run take R rounds". When a run degrades or stalls,
//! the per-round fault tallies along the path's span attribute the slow
//! hops to their injected causes.

use crate::archive::Archive;
use crate::recorder::DropTally;
use crate::trace::ProvEdge;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The causal chain ending at the run's last recorded delivery, from
/// root hop to terminal hop. `None` when the archive has no provenance
/// edges (tracing was off, or sampled everything out).
///
/// The terminal edge is the retained edge with the highest delivery
/// round, ties broken toward the smallest `(id, node)` pair. Each
/// predecessor is the edge by which the current hop's sender learned
/// the id, accepted only if that learning landed no later than the
/// current hop was sent (`pred.round <= cur.sent`); otherwise the chain
/// roots there (the sender knew the id initially, or the linking edge
/// was sampled out).
pub fn critical_path(archive: &Archive) -> Option<Vec<ProvEdge>> {
    let terminal = archive
        .edges
        .iter()
        .reduce(|best, e| if e.round > best.round { e } else { best })?;
    Some(chain_to(archive, terminal))
}

/// The provenance chain for one `(id, node)` pair, root hop first.
/// `None` when no edge for the pair was retained.
pub fn id_chain(archive: &Archive, id: u32, node: u32) -> Option<Vec<ProvEdge>> {
    let by_pair: BTreeMap<(u32, u32), &ProvEdge> =
        archive.edges.iter().map(|e| ((e.id, e.node), e)).collect();
    let terminal = *by_pair.get(&(id, node))?;
    Some(chain_to(archive, terminal))
}

fn chain_to(archive: &Archive, terminal: &ProvEdge) -> Vec<ProvEdge> {
    let by_pair: BTreeMap<(u32, u32), &ProvEdge> =
        archive.edges.iter().map(|e| ((e.id, e.node), e)).collect();
    let mut chain = vec![*terminal];
    let mut cur = terminal;
    // `pred.round <= cur.sent < cur.round` makes delivery rounds
    // strictly decrease along the walk, so it always terminates.
    while let Some(&pred) = by_pair.get(&(cur.id, cur.src)) {
        if pred.round > cur.sent {
            break;
        }
        chain.push(*pred);
        cur = pred;
    }
    chain.reverse();
    chain
}

/// The cause with the most drops, or `None` when there are none. A tie
/// goes to the cause listed last of suppression, partition, crash,
/// link, coin.
pub fn dominant_cause(drops: &DropTally) -> Option<&'static str> {
    [
        (drops.suppression, "suppression"),
        (drops.partition, "partition"),
        (drops.crash, "crash"),
        (drops.link, "link"),
        (drops.coin, "coin"),
    ]
    .into_iter()
    .filter(|&(count, _)| count > 0)
    .max_by_key(|&(count, _)| count)
    .map(|(_, name)| name)
}

/// Fault drops over rounds `lo..=hi`, summed from the round records.
pub fn faults_in_span(archive: &Archive, lo: u64, hi: u64) -> DropTally {
    let span = lo..=hi;
    let rows = archive.rounds.iter().filter(|r| span.contains(&r.round));
    rows.map(|r| r.drops).sum()
}

fn hop_lines(out: &mut String, chain: &[ProvEdge]) {
    for e in chain {
        let _ = writeln!(
            out,
            "  round {:>4}: node {} learned id {} from node {} (sent round {}, seq {})",
            e.round, e.node, e.id, e.src, e.sent, e.seq
        );
    }
}

/// The `rd-inspect why` narrative: the critical path round by round,
/// and — for runs that did not end in a plain `complete` verdict — an
/// attribution of the slow hops to the fault causes active along them.
pub fn why(archive: &Archive) -> String {
    let mut out = String::new();
    let s = &archive.outcome;
    let Some(chain) = critical_path(archive) else {
        let _ = writeln!(
            out,
            "no causal trace in this archive: run with causal tracing enabled to attribute convergence"
        );
        return out;
    };
    let terminal = chain.last().expect("chain is never empty");
    let root = chain.first().expect("chain is never empty");
    let _ = writeln!(
        out,
        "critical path: {} hop(s) ending at round {} — verdict {} in {} rounds",
        chain.len(),
        terminal.round,
        s.verdict,
        s.rounds
    );
    let _ = writeln!(
        out,
        "chain root: node {} already knew id {} when round {} was sent (initial knowledge or unsampled edge)",
        root.src, root.id, root.sent
    );
    hop_lines(&mut out, &chain);
    let _ = writeln!(
        out,
        "last delivery on the path lands in round {} of {}; the final round of the run is round {}",
        terminal.round, s.rounds, s.rounds
    );

    if let Some(tm) = &archive.trace_meta {
        if tm.overflow > 0 {
            let _ = writeln!(
                out,
                "WARN: causal trace overflowed ({} offers dropped) — the true critical path may be longer",
                tm.overflow
            );
        }
        if tm.sampled_out > 0 {
            let _ = writeln!(
                out,
                "note: {} messages were sampled out; chains may root early",
                tm.sampled_out
            );
        }
    }

    // Attribution: where did the path wait, and which injected faults
    // were active while it waited?
    let span = faults_in_span(archive, root.sent, terminal.round);
    if s.verdict != "complete" || span.total() > 0 {
        let _ = writeln!(out, "\nattribution (verdict {}):", s.verdict);
        let _ = writeln!(
            out,
            "  path span rounds {}..={}: {} drops ({span})",
            root.sent,
            terminal.round,
            span.total()
        );
        // The largest wait: the hop whose id sat longest at a node
        // between being learned and being successfully forwarded.
        let mut worst: Option<(u64, &ProvEdge, &ProvEdge)> = None;
        for pair in chain.windows(2) {
            let (pred, e) = (&pair[0], &pair[1]);
            let gap = e.sent.saturating_sub(pred.round);
            if worst.as_ref().is_none_or(|&(g, _, _)| gap > g) {
                worst = Some((gap, pred, e));
            }
        }
        if let Some((gap, pred, e)) = worst.filter(|&(gap, _, _)| gap > 0) {
            let window = faults_in_span(archive, pred.round, e.sent);
            let _ = writeln!(
                out,
                "  slowest hop: id {} waited {} round(s) at node {} (learned round {}, forwarded round {})",
                e.id, gap, e.src, pred.round, e.sent
            );
            let _ = writeln!(
                out,
                "  during that window: {window} drops{}",
                dominant_cause(&window)
                    .map(|c| format!(" — dominant cause: {c}"))
                    .unwrap_or_default()
            );
        } else if let Some(cause) = dominant_cause(&span) {
            let _ = writeln!(out, "  dominant cause over the span: {cause}");
        }
    }
    out
}

/// The `rd-inspect path` narrative: the provenance chain for one id at
/// one node.
pub fn path_report(archive: &Archive, id: u32, node: u32) -> String {
    let mut out = String::new();
    match id_chain(archive, id, node) {
        Some(chain) => {
            let root = chain.first().expect("chain is never empty");
            let _ = writeln!(
                out,
                "provenance of id {id} at node {node}: {} hop(s)",
                chain.len()
            );
            let _ = writeln!(
                out,
                "chain root: node {} already knew id {} when round {} was sent",
                root.src, root.id, root.sent
            );
            hop_lines(&mut out, &chain);
        }
        None => {
            let _ = writeln!(
                out,
                "no recorded provenance for id {id} at node {node} (initially known, never learned, or sampled out)"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::TraceMeta;
    use crate::recorder::{RoundObs, RunOutcomeObs};

    fn edge(id: u32, node: u32, src: u32, sent: u64, round: u64) -> ProvEdge {
        ProvEdge {
            id,
            node,
            src,
            sent,
            round,
            seq: 0,
        }
    }

    fn archive(edges: Vec<ProvEdge>, rounds: Vec<RoundObs>, verdict: &str) -> Archive {
        Archive {
            rounds,
            trace_meta: Some(TraceMeta {
                capacity: 1024,
                sample_ppm: 1_000_000,
                edges: edges.len() as u64,
                ..TraceMeta::default()
            }),
            outcome: RunOutcomeObs {
                verdict: verdict.into(),
                rounds: edges.iter().map(|e| e.round).max().unwrap_or(0),
                ..RunOutcomeObs::default()
            },
            edges,
            ..Archive::default()
        }
    }

    fn round(round: u64, partition: u64) -> RoundObs {
        RoundObs {
            round,
            drops: DropTally {
                partition,
                ..DropTally::default()
            },
            ..RoundObs::default()
        }
    }

    #[test]
    fn critical_path_chains_back_to_the_root() {
        // id 9 travels 0 -> 1 -> 2 -> 3, one hop per round.
        let a = archive(
            vec![
                edge(9, 1, 0, 1, 2),
                edge(9, 2, 1, 2, 3),
                edge(9, 3, 2, 3, 4),
                // A shorter, unrelated chain.
                edge(5, 1, 0, 1, 2),
            ],
            vec![],
            "complete",
        );
        let path = critical_path(&a).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], edge(9, 1, 0, 1, 2));
        assert_eq!(path[2], edge(9, 3, 2, 3, 4));
    }

    #[test]
    fn predecessors_that_land_too_late_root_the_chain() {
        // The sender's own learning edge lands AFTER it sent (a
        // sampled-out true edge left this stale one): must not link.
        let a = archive(
            vec![edge(9, 1, 0, 5, 6), edge(9, 2, 1, 2, 3)],
            vec![],
            "complete",
        );
        let path = id_chain(&a, 9, 2).unwrap();
        assert_eq!(path.len(), 1);
    }

    #[test]
    fn terminal_ties_break_toward_smallest_pair() {
        let a = archive(
            vec![edge(3, 4, 0, 1, 2), edge(7, 1, 0, 1, 2)],
            vec![],
            "complete",
        );
        let path = critical_path(&a).unwrap();
        assert_eq!((path[0].id, path[0].node), (3, 4));
    }

    #[test]
    fn why_names_the_final_round_and_attributes_partitions() {
        let mut rounds: Vec<RoundObs> = (1..=6).map(|r| round(r, 0)).collect();
        rounds[3].drops.partition = 12; // round 4
        let a = archive(
            vec![edge(9, 1, 0, 1, 2), edge(9, 2, 1, 5, 6)],
            rounds,
            "degraded-complete",
        );
        let text = why(&a);
        assert!(text.contains("final round of the run is round 6"), "{text}");
        assert!(text.contains("verdict degraded-complete"), "{text}");
        assert!(text.contains("waited 3 round(s) at node 1"), "{text}");
        assert!(text.contains("dominant cause: partition"), "{text}");
    }

    #[test]
    fn why_attributes_suppression_when_it_dominates() {
        let mut rounds: Vec<RoundObs> = (1..=6).map(|r| round(r, 0)).collect();
        rounds[3].drops.suppression = 20; // round 4, inside the wait
        rounds[3].drops.partition = 3;
        rounds[2].drops.link = 5;
        let a = archive(
            vec![edge(9, 1, 0, 1, 2), edge(9, 2, 1, 5, 6)],
            rounds,
            "stalled",
        );
        let text = why(&a);
        assert!(text.contains("dominant cause: suppression"), "{text}");
        assert!(text.contains("suppression 20"), "{text}");
        assert!(text.contains("link 5"), "{text}");
    }

    #[test]
    fn why_degrades_gracefully_without_a_trace() {
        let a = Archive::default();
        assert!(why(&a).contains("no causal trace"));
    }

    #[test]
    fn path_report_handles_missing_pairs() {
        let a = archive(vec![edge(9, 1, 0, 1, 2)], vec![], "complete");
        assert!(path_report(&a, 9, 1).contains("1 hop(s)"));
        assert!(path_report(&a, 9, 3).contains("no recorded provenance"));
    }
}
