//! Deterministic randomness derivation.
//!
//! Every `(run seed, node, round)` triple deterministically yields an
//! independent random stream, so simulation results never depend on the
//! order in which the engine happens to step nodes, and a run can be
//! replayed bit-for-bit from its seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 — the standard 64-bit seed-scrambling finalizer. Used to
/// derive well-separated sub-seeds from structured inputs whose raw bit
/// patterns are highly correlated (consecutive node indices, consecutive
/// round numbers).
pub fn split_mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combines a run seed with a domain label, a node index, and a round
/// number into a single well-mixed sub-seed.
pub fn derive_seed(run_seed: u64, domain: u64, node: u64, round: u64) -> u64 {
    let mut s = split_mix64(run_seed ^ split_mix64(domain));
    s = split_mix64(s ^ split_mix64(node.wrapping_mul(0xa24b_aed4_963e_e407)));
    split_mix64(s ^ split_mix64(round.wrapping_mul(0x9fb2_1c65_1e98_df25)))
}

/// A random generator for one `(node, round)` step of a run.
pub fn node_round_rng(run_seed: u64, node: usize, round: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(run_seed, 0x6e6f_6465, node as u64, round))
}

/// A random generator for routing one message, derived from the run
/// seed, the sender, the round the message was sent in, and the
/// message's send-sequence number within that round (0 for the sender's
/// first send of the round, 1 for its second, …).
///
/// This is the *counter-based* randomness that lets the routing phase
/// run in parallel: the fault-drop coin of a message is a pure function
/// of `(seed, src, round, sequence)`, so routing
/// one envelope never advances any stream another envelope reads —
/// routing order (and therefore worker count) cannot change any coin.
pub fn message_route_rng(run_seed: u64, src: usize, round: u64, sequence: u64) -> StdRng {
    let s = derive_seed(run_seed, 0x726f_7574, src as u64, round);
    StdRng::seed_from_u64(split_mix64(
        s ^ split_mix64(sequence.wrapping_mul(0xd6e8_feb8_6659_fd93)),
    ))
}

/// A random generator for one *retransmission attempt* of a message,
/// derived from the run seed, the original sender, the round the message
/// was first sent in, its send-sequence number within that round, and
/// the attempt counter (1 for the first retransmission, 2 for the
/// second, …).
///
/// A separate domain keeps retry coins independent of the original
/// routing coins: enabling reliable delivery never perturbs the fate of
/// any first-attempt message, and each attempt's fate is a pure function
/// of `(seed, src, round, sequence, attempt)` — independent of engine
/// kind, worker count, or how many other messages are in flight.
pub fn message_retry_rng(
    run_seed: u64,
    src: usize,
    round: u64,
    sequence: u64,
    attempt: u32,
) -> StdRng {
    let s = derive_seed(run_seed, 0x7265_7472, src as u64, round);
    let seq = split_mix64(sequence.wrapping_mul(0xd6e8_feb8_6659_fd93));
    let att = split_mix64((attempt as u64).wrapping_mul(0xbea2_25f9_eb34_556d));
    StdRng::seed_from_u64(split_mix64(s ^ seq ^ att))
}

/// A random generator for drawing one message's *delivery latency*,
/// derived from the run seed, the sender, the round (simulated tick)
/// the message was sent in, its send-sequence number within that
/// round, and the transmission attempt (0 for the original send, 1 for
/// the first retransmission, …).
///
/// A separate domain keeps latency draws independent of the route,
/// retry, and provenance streams: switching latency models (or engines)
/// never perturbs any drop coin, and each draw is a pure function of
/// `(seed, src, round, sequence, attempt)` — independent of event
/// ordering, engine kind, or queue state.
pub fn message_latency_rng(
    run_seed: u64,
    src: usize,
    round: u64,
    sequence: u64,
    attempt: u32,
) -> StdRng {
    let s = derive_seed(run_seed, 0x6c61_7465, src as u64, round);
    let seq = split_mix64(sequence.wrapping_mul(0xd6e8_feb8_6659_fd93));
    let att = split_mix64((attempt as u64).wrapping_mul(0xbea2_25f9_eb34_556d));
    StdRng::seed_from_u64(split_mix64(s ^ seq ^ att))
}

/// The deterministic causal-trace sampling decision for one message,
/// derived — like [`message_route_rng`] — purely from `(seed, src,
/// round, sequence)` plus its own domain label. `sample_ppm` is the
/// acceptance rate in parts per million; rates `>= 1_000_000` accept
/// without drawing at all.
///
/// A separate domain keeps the sampling coin independent of the route
/// and retry streams: enabling (or re-rating) causal tracing can never
/// perturb any message fate, and the counter-based derivation makes the
/// decision identical on every engine and worker count.
pub fn prov_sample(run_seed: u64, src: usize, round: u64, sequence: u64, sample_ppm: u32) -> bool {
    if sample_ppm >= 1_000_000 {
        return true;
    }
    let base = derive_seed(run_seed, 0x7072_6f76, src as u64, round);
    let coin = split_mix64(base ^ split_mix64(sequence.wrapping_mul(0xd6e8_feb8_6659_fd93)));
    coin % 1_000_000 < sample_ppm as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn split_mix_is_deterministic_and_scrambles() {
        assert_eq!(split_mix64(1), split_mix64(1));
        assert_ne!(split_mix64(1), split_mix64(2));
        // Low-entropy inputs map to well-spread outputs.
        let outs: HashSet<u64> = (0..1000).map(split_mix64).collect();
        assert_eq!(outs.len(), 1000);
    }

    #[test]
    fn derived_seeds_separate_every_axis() {
        let base = derive_seed(7, 1, 2, 3);
        assert_ne!(base, derive_seed(8, 1, 2, 3), "run seed ignored");
        assert_ne!(base, derive_seed(7, 2, 2, 3), "domain ignored");
        assert_ne!(base, derive_seed(7, 1, 3, 3), "node ignored");
        assert_ne!(base, derive_seed(7, 1, 2, 4), "round ignored");
    }

    #[test]
    fn node_round_rng_replays_identically() {
        let mut a = node_round_rng(99, 5, 17);
        let mut b = node_round_rng(99, 5, 17);
        for _ in 0..32 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn adjacent_nodes_get_distinct_streams() {
        let mut a = node_round_rng(99, 5, 17);
        let mut b = node_round_rng(99, 6, 17);
        let va: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn message_route_rng_replays_identically() {
        let mut a = message_route_rng(99, 5, 17, 3);
        let mut b = message_route_rng(99, 5, 17, 3);
        for _ in 0..32 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn message_route_rng_separates_every_axis() {
        let first = |mut r: StdRng| r.random::<u64>();
        let base = first(message_route_rng(9, 4, 2, 0));
        assert_ne!(base, first(message_route_rng(8, 4, 2, 0)), "seed ignored");
        assert_ne!(base, first(message_route_rng(9, 5, 2, 0)), "src ignored");
        assert_ne!(base, first(message_route_rng(9, 4, 3, 0)), "round ignored");
        assert_ne!(
            base,
            first(message_route_rng(9, 4, 2, 1)),
            "sequence ignored"
        );
    }

    #[test]
    fn message_retry_rng_separates_every_axis() {
        let first = |mut r: StdRng| r.random::<u64>();
        let base = first(message_retry_rng(9, 4, 2, 0, 1));
        assert_ne!(
            base,
            first(message_retry_rng(8, 4, 2, 0, 1)),
            "seed ignored"
        );
        assert_ne!(base, first(message_retry_rng(9, 5, 2, 0, 1)), "src ignored");
        assert_ne!(
            base,
            first(message_retry_rng(9, 4, 3, 0, 1)),
            "round ignored"
        );
        assert_ne!(
            base,
            first(message_retry_rng(9, 4, 2, 1, 1)),
            "sequence ignored"
        );
        assert_ne!(
            base,
            first(message_retry_rng(9, 4, 2, 0, 2)),
            "attempt ignored"
        );
        // And the retry domain is distinct from the route domain.
        assert_ne!(base, first(message_route_rng(9, 4, 2, 0)));
    }

    #[test]
    fn message_latency_rng_separates_every_axis() {
        let first = |mut r: StdRng| r.random::<u64>();
        let base = first(message_latency_rng(9, 4, 2, 0, 0));
        assert_eq!(base, first(message_latency_rng(9, 4, 2, 0, 0)));
        assert_ne!(
            base,
            first(message_latency_rng(8, 4, 2, 0, 0)),
            "seed ignored"
        );
        assert_ne!(
            base,
            first(message_latency_rng(9, 5, 2, 0, 0)),
            "src ignored"
        );
        assert_ne!(
            base,
            first(message_latency_rng(9, 4, 3, 0, 0)),
            "round ignored"
        );
        assert_ne!(
            base,
            first(message_latency_rng(9, 4, 2, 1, 0)),
            "sequence ignored"
        );
        assert_ne!(
            base,
            first(message_latency_rng(9, 4, 2, 0, 1)),
            "attempt ignored"
        );
        // And the latency domain is distinct from the route and retry
        // domains.
        assert_ne!(base, first(message_route_rng(9, 4, 2, 0)));
        assert_ne!(base, first(message_retry_rng(9, 4, 2, 0, 0)));
    }

    #[test]
    fn prov_sample_is_deterministic_and_separates_every_axis() {
        let base = prov_sample(9, 4, 2, 0, 500_000);
        assert_eq!(base, prov_sample(9, 4, 2, 0, 500_000));
        // Full-rate sampling accepts everything without a coin.
        assert!(prov_sample(9, 4, 2, 0, 1_000_000));
        assert!(prov_sample(9, 4, 2, 0, 2_000_000));
        // Zero-rate sampling accepts nothing.
        assert!(!prov_sample(9, 4, 2, 0, 0));
        // Each axis changes the underlying coin: over many draws the
        // acceptance count tracks the rate, and axes decorrelate.
        let hits = |f: &dyn Fn(u64) -> bool| (0..4000).filter(|&i| f(i)).count();
        let by_seq = hits(&|i| prov_sample(1, 0, 0, i, 250_000));
        let by_round = hits(&|i| prov_sample(1, 0, i, 0, 250_000));
        let by_src = hits(&|i| prov_sample(1, i as usize, 0, 0, 250_000));
        for count in [by_seq, by_round, by_src] {
            assert!((800..1200).contains(&count), "rate off: {count}/4000");
        }
    }

    #[test]
    fn consecutive_sequences_are_well_spread() {
        // Counter-based derivation must not correlate the coins of a
        // sender's burst of sends within one round.
        let outs: HashSet<u64> = (0..1000)
            .map(|seq| {
                let mut r = message_route_rng(1, 0, 0, seq);
                r.random::<u64>()
            })
            .collect();
        assert_eq!(outs.len(), 1000);
    }
}
