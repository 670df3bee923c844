//! Phase-scoped wall-clock spans.
//!
//! A [`SpanEvent`] is one timed slice of engine work — "worker 3 spent
//! 410µs in `route_shard` during round 17". Timestamps are nanosecond
//! offsets from the [`Recorder`](crate::Recorder)'s epoch `Instant`,
//! so spans from different worker threads share one clock and can be
//! laid out on a common timeline (the Chrome trace exporter relies on
//! this).
//!
//! Spans are observation only: engines *produce* them from `Instant`
//! reads but never read them back, which is what keeps wall-clock out
//! of deterministic protocol state.

use std::time::Instant;

/// The engine phases that get timed. Serial engines emit every phase
/// from worker 0; the sharded engine emits `OnRound`, `RouteShard`,
/// and `MergeDestShard` once per worker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Detector schedule, delayed-delivery promotion, retransmissions.
    #[default]
    BeginRound,
    /// Node stepping: inbox drain + `Node::on_round`.
    OnRound,
    /// Fate coins, tallies, and per-destination-shard bucket fan-out.
    RouteShard,
    /// Canonical-order merge of route buckets into one shard's mailbox.
    MergeDestShard,
    /// Serial fold of per-shard metric/trace/retry deltas.
    ApplyDeltas,
    /// End-of-round bookkeeping (row close-out, pool returns).
    FinishRound,
    /// Recorder bookkeeping at round close (row assembly, sink fan-out).
    /// Emitted only when profiling is enabled, so the profiler's own
    /// cost shows up as an attributed phase instead of unexplained gap.
    Telemetry,
}

impl Phase {
    /// Every phase, in within-round execution order.
    pub const ALL: [Phase; 7] = [
        Phase::BeginRound,
        Phase::OnRound,
        Phase::RouteShard,
        Phase::MergeDestShard,
        Phase::ApplyDeltas,
        Phase::FinishRound,
        Phase::Telemetry,
    ];

    /// The snake_case name used in archives and trace events.
    pub fn name(self) -> &'static str {
        match self {
            Phase::BeginRound => "begin_round",
            Phase::OnRound => "on_round",
            Phase::RouteShard => "route_shard",
            Phase::MergeDestShard => "merge_dest_shard",
            Phase::ApplyDeltas => "apply_deltas",
            Phase::FinishRound => "finish_round",
            Phase::Telemetry => "telemetry",
        }
    }

    /// Inverse of [`Phase::name`], for archive parsing.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// One timed slice of engine work, relative to the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    pub phase: Phase,
    pub round: u64,
    /// Worker index (0 on serial engines; the shard index on parallel
    /// phases of the sharded engine).
    pub worker: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl SpanEvent {
    /// Builds a span from two `Instant` reads taken on any thread, as
    /// offsets from the shared `epoch`.
    pub fn from_instants(
        epoch: Instant,
        phase: Phase,
        round: u64,
        worker: u32,
        start: Instant,
        end: Instant,
    ) -> SpanEvent {
        let start_ns = end_ns_since(epoch, start);
        let end_ns = end_ns_since(epoch, end);
        SpanEvent {
            phase,
            round,
            worker,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
        }
    }
}

fn end_ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("unknown"), None);
    }

    #[test]
    fn spans_are_epoch_relative_and_non_negative() {
        let epoch = Instant::now();
        let start = Instant::now();
        let end = Instant::now();
        let s = SpanEvent::from_instants(epoch, Phase::RouteShard, 3, 1, start, end);
        assert_eq!(s.round, 3);
        assert_eq!(s.worker, 1);
        assert!(s.start_ns + s.dur_ns >= s.start_ns);
        // An end before the epoch saturates to zero rather than
        // panicking (possible if a worker read its clock before the
        // recorder was attached).
        let s = SpanEvent::from_instants(end, Phase::OnRound, 0, 0, epoch, start);
        assert_eq!(s.start_ns, 0);
    }
}
