//! Cost attribution: where the nanosecond goes.
//!
//! Every span-derived number of a run comes out of one `SpanFold`: a
//! single pass over the recorder's stored spans at
//! [`Recorder::finish`](crate::Recorder::finish) that yields each
//! phase's duration histogram, each `(worker, phase)` pair's busy time,
//! and each round's span time and per-worker parallel busy time. The
//! archive's `phase` and `worker` records, the `worker_imbalance`
//! gauge and the [`ProfileReport`] all read that fold, and
//! `imbalance` / `utilization` are its one pair of skew formulas.
//!
//! Profiling adds what spans cannot carry — message-kind sizes and the
//! driver's memory samples — and, like every
//! observability surface, lives strictly outside the determinism
//! boundary: nothing deterministic reads any of it back. When profiling
//! is off no extra clock is read and archives carry no profile section.

use crate::hist::Histogram;
use crate::recorder::{PhaseSummary, RoundObs, RunOutcomeObs, WorkerSummary};
use crate::registry::MetricsRegistry;
use crate::span::{Phase, SpanEvent};
use std::collections::BTreeMap;

/// Max/mean of per-lane busy time (1.0 = perfectly even); `None` with
/// fewer than two lanes or no busy time at all.
fn imbalance(busy: &[u64]) -> Option<f64> {
    let max = *busy.iter().max()? as f64;
    let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
    (busy.len() > 1 && mean > 0.0).then(|| max / mean)
}

/// Busy time over `lanes × wall`, clamped to 1; `None` with no lanes or
/// no wall time.
fn utilization(busy: &[u64], wall_ns: u64) -> Option<f64> {
    let total = busy.iter().sum::<u64>() as f64;
    (!busy.is_empty() && wall_ns > 0)
        .then(|| (total / (busy.len() as f64 * wall_ns as f64)).min(1.0))
}

/// One pass over a run's stored spans; see the module docs.
#[derive(Default)]
pub(crate) struct SpanFold {
    /// Span durations of each phase, in [`Phase::ALL`] order.
    phases: [Histogram; Phase::ALL.len()],
    /// `(worker, phase)` → `(spans, busy ns)`, by worker, then phase.
    cells: BTreeMap<(u32, Phase), (u64, u64)>,
    /// Round label → that round's share; filled only for a profiled
    /// run, the one reader.
    rounds: BTreeMap<u64, RoundFold>,
}

/// One round's share of the fold.
#[derive(Default)]
struct RoundFold {
    /// Time covered by the round's spans, every phase and worker.
    span_ns: u64,
    /// The workers that ran a parallel phase, and their busy time in it.
    workers: Vec<u32>,
    busy: Vec<u64>,
}

impl SpanFold {
    /// Folds `spans`; `per_round` also keeps each round's share, which
    /// only the profile reads.
    pub(crate) fn of(spans: &[SpanEvent], per_round: bool) -> Self {
        let mut fold = SpanFold::default();
        for s in spans {
            fold.phases[s.phase as usize].record(s.dur_ns);
            let cell = fold.cells.entry((s.worker, s.phase)).or_default();
            cell.0 += 1;
            cell.1 += s.dur_ns;
            if !per_round {
                continue;
            }
            let round = fold.rounds.entry(s.round).or_default();
            round.span_ns += s.dur_ns;
            if s.phase.is_parallel() {
                match round.workers.iter().position(|&w| w == s.worker) {
                    Some(i) => round.busy[i] += s.dur_ns,
                    None => {
                        round.workers.push(s.worker);
                        round.busy.push(s.dur_ns);
                    }
                }
            }
        }
        fold
    }

    /// The phases that have spans, in [`Phase::ALL`] order; each one's
    /// histogram also lands in `registry` as `span_<phase>_ns`.
    pub(crate) fn phases(&self, registry: &mut MetricsRegistry) -> Vec<PhaseSummary> {
        let mut out = Vec::new();
        for (phase, h) in Phase::ALL.into_iter().zip(&self.phases) {
            if h.count() > 0 {
                registry.record_hist_merge(&format!("span_{}_ns", phase.name()), h);
                out.push(PhaseSummary {
                    phase,
                    count: h.count(),
                    total_ns: self.phase_ns(phase),
                    p50_ns: h.quantile(0.5),
                    p99_ns: h.quantile(0.99),
                    max_ns: h.max(),
                });
            }
        }
        out
    }

    /// Total span time of `phase`.
    fn phase_ns(&self, phase: Phase) -> u64 {
        self.phases[phase as usize].sum() as u64
    }

    /// Span count and busy time per worker, by worker, over the phases
    /// `keep` admits.
    fn by_worker(&self, keep: fn(Phase) -> bool) -> Vec<WorkerSummary> {
        let mut out: Vec<WorkerSummary> = Vec::new();
        for (&(worker, phase), &(spans, busy_ns)) in &self.cells {
            if !keep(phase) {
                continue;
            }
            match out.last_mut() {
                Some(w) if w.worker == worker => {
                    w.spans += spans;
                    w.busy_ns += busy_ns;
                }
                _ => out.push(WorkerSummary {
                    worker,
                    spans,
                    busy_ns,
                }),
            }
        }
        out
    }

    /// Span count and busy time per worker, every phase.
    pub(crate) fn workers(&self) -> Vec<WorkerSummary> {
        self.by_worker(|_| true)
    }

    /// Max/mean of whole-run parallel busy time over the workers that
    /// ran a parallel phase: the `worker_imbalance` gauge.
    pub(crate) fn worker_imbalance(&self) -> Option<f64> {
        let busy: Vec<u64> = self
            .by_worker(Phase::is_parallel)
            .iter()
            .map(|w| w.busy_ns)
            .collect();
        imbalance(&busy)
    }
}

/// What profiling collects beyond the spans, turned into a
/// [`ProfileReport`] at finish. Enabled by
/// [`Recorder::with_profiling`](crate::Recorder::with_profiling), which
/// also takes the inputs in.
#[derive(Clone, Debug, Default)]
pub(crate) struct ProfileInputs {
    /// `(kind, envelope bytes, bytes per carried pointer)` of each
    /// message kind, registered once by the engine: sizes are
    /// compile-time facts, so registration has no per-round cost.
    pub(crate) msg_kinds: Vec<(String, u64, u64)>,
    /// Driver-sampled `(round, total resident knowledge bytes)`.
    pub(crate) mem_samples: Vec<(u64, u64)>,
}

/// One phase's share of the run in the attribution table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfilePhase {
    /// Which engine phase.
    pub phase: Phase,
    /// Total observed nanoseconds across all rounds and workers.
    pub total_ns: u64,
    /// `total_ns` as a percentage of summed round wall time. Parallel
    /// phases on multi-worker engines can exceed 100: shard busy time
    /// is summed across workers while wall time is not.
    pub round_pct: f64,
    /// `total_ns` divided by the run's delivered-envelope count.
    pub ns_per_envelope: f64,
}

/// Per-message-kind cost accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileMsg {
    /// Payload type name.
    pub kind: String,
    /// Envelopes sent over the whole run.
    pub envelopes: u64,
    /// Estimated bytes moved: `envelopes × env_bytes + pointers ×
    /// ptr_bytes`.
    pub payload_bytes: u64,
    /// Round wall nanoseconds per envelope — the end-to-end number
    /// that connects rounds/s back to the paper's message bounds.
    pub ns_per_envelope: f64,
}

/// One per-round memory sample.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileMem {
    /// Round the sample was taken after.
    pub round: u64,
    /// Total `KnowledgeSet` resident bytes across live nodes.
    pub knowledge_bytes: u64,
    /// Peak-RSS estimate: knowledge + telemetry buffers.
    pub rss_bytes: u64,
}

/// Everything the profiler attributed, ready for export.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    /// Percentage of summed round wall time covered by phase spans
    /// (per-round contributions are capped at that round's wall, so
    /// this never exceeds 100).
    pub coverage_pct: f64,
    /// Number of memory samples taken.
    pub samples: u64,
    /// Mean per-round shard utilization over the parallel phases
    /// (`OnRound` + `RouteShard`): busy time divided by `workers ×
    /// wall`, as a percentage.
    pub utilization_pct: f64,
    /// Mean over rounds of max/mean per-shard busy time (1.0 = even).
    pub imbalance_mean: f64,
    /// Worst round's imbalance factor.
    pub imbalance_max: f64,
    /// Largest knowledge-bytes sample.
    pub peak_knowledge_bytes: u64,
    /// Peak-RSS estimate: peak knowledge + telemetry buffers.
    pub peak_rss_bytes: u64,
    /// Per-phase attribution, in [`Phase::ALL`] order, phases with
    /// spans only.
    pub phases: Vec<ProfilePhase>,
    /// Per-message-kind accounting, in registration order.
    pub msgs: Vec<ProfileMsg>,
    /// The memory timeline, in sample order.
    pub mem: Vec<ProfileMem>,
}

impl ProfileInputs {
    /// The finished report: `fold`'s spans attributed against the round
    /// rows, the message-kind costs, and the memory timeline.
    pub(crate) fn report(
        self,
        fold: &SpanFold,
        spans: &[SpanEvent],
        rounds: &[RoundObs],
        outcome: &RunOutcomeObs,
    ) -> ProfileReport {
        let total_wall: u64 = rounds.iter().map(|r| r.wall_ns).sum();
        let envelopes = outcome.messages;
        let per = |part: f64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part / whole as f64
            }
        };

        let mut covered = 0u64;
        let (mut util_sum, mut util_rounds) = (0.0f64, 0u64);
        let (mut imb_sum, mut imb_max, mut imb_rounds) = (0.0f64, 1.0f64, 0u64);
        for r in rounds {
            let Some(round) = fold.rounds.get(&r.round) else {
                continue;
            };
            covered += round.span_ns.min(r.wall_ns);
            if let Some(u) = utilization(&round.busy, r.wall_ns) {
                util_sum += u;
                util_rounds += 1;
                if let Some(imb) = imbalance(&round.busy) {
                    imb_sum += imb;
                    imb_max = imb_max.max(imb);
                    imb_rounds += 1;
                }
            }
        }

        let phases: Vec<ProfilePhase> = Phase::ALL
            .into_iter()
            .map(|phase| (phase, fold.phase_ns(phase)))
            .filter(|&(_, total_ns)| total_ns > 0)
            .map(|(phase, total_ns)| ProfilePhase {
                phase,
                total_ns,
                round_pct: per(100.0 * total_ns as f64, total_wall),
                ns_per_envelope: per(total_ns as f64, envelopes),
            })
            .collect();

        let msgs: Vec<ProfileMsg> = self
            .msg_kinds
            .iter()
            .map(|(kind, env_bytes, ptr_bytes)| ProfileMsg {
                kind: kind.clone(),
                envelopes,
                payload_bytes: envelopes * env_bytes + outcome.pointers * ptr_bytes,
                ns_per_envelope: per(total_wall as f64, envelopes),
            })
            .collect();

        // Telemetry's own footprint, so the RSS estimate owns up to
        // the profiler: retained spans plus round rows.
        let telemetry_bytes = (std::mem::size_of_val(spans) + std::mem::size_of_val(rounds)) as u64;
        let peak_knowledge_bytes = self.mem_samples.iter().map(|&(_, b)| b).max().unwrap_or(0);
        let mem: Vec<ProfileMem> = self
            .mem_samples
            .iter()
            .map(|&(round, knowledge_bytes)| ProfileMem {
                round,
                knowledge_bytes,
                rss_bytes: knowledge_bytes + telemetry_bytes,
            })
            .collect();

        ProfileReport {
            coverage_pct: per(100.0 * covered as f64, total_wall),
            samples: mem.len() as u64,
            utilization_pct: per(100.0 * util_sum, util_rounds),
            imbalance_mean: if imb_rounds == 0 {
                1.0
            } else {
                imb_sum / imb_rounds as f64
            },
            imbalance_max: imb_max,
            peak_knowledge_bytes,
            peak_rss_bytes: peak_knowledge_bytes + telemetry_bytes,
            phases,
            msgs,
            mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{ObsReport, Recorder, RunMeta};
    use std::time::Instant;

    fn meta(workers: usize) -> RunMeta {
        RunMeta {
            algorithm: "test".into(),
            topology: "k-out-3".into(),
            n: 16,
            seed: 9,
            engine: if workers > 1 {
                format!("sharded:{workers}")
            } else {
                "sequential".into()
            },
            workers,
            latency_model: None,
        }
    }

    fn outcome(messages: u64, pointers: u64) -> RunOutcomeObs {
        RunOutcomeObs {
            verdict: "complete-sound".into(),
            completed: true,
            sound: true,
            rounds: 2,
            messages,
            pointers,
            trace_events: 0,
            trace_overflow: 0,
            last_progress: None,
        }
    }

    fn round_row(round: u64, messages: u64) -> RoundObs {
        RoundObs {
            round,
            messages,
            pointers: messages,
            ..RoundObs::default()
        }
    }

    /// A real profiled run through the recorder: two rounds of spans
    /// timed against the wall clock.
    fn profiled_report(workers: usize) -> ObsReport {
        let mut rec = Recorder::new(meta(workers)).with_profiling();
        rec.profile_msg_kind("Rumor", 48, 4);
        for r in 0..2u64 {
            rec.begin_round();
            let t = Instant::now();
            for w in 0..workers as u32 {
                rec.span_from(Phase::OnRound, r, w, t);
            }
            rec.span_from(Phase::RouteShard, r, 0, t);
            rec.profile_memory(r + 1, 1000 * (r + 1));
            rec.end_round(round_row(r, 50));
        }
        rec.finish(outcome(100, 100), &[], &[], &[], &[]).unwrap()
    }

    #[test]
    fn report_attributes_phases_msgs_and_memory() {
        let report = profiled_report(1);
        let prof = report.profile.as_ref().expect("profile assembled");
        assert!(prof.coverage_pct >= 0.0 && prof.coverage_pct <= 100.0);
        assert_eq!(prof.samples, 2);
        assert_eq!(prof.peak_knowledge_bytes, 2000);
        assert!(prof.peak_rss_bytes >= 2000);
        assert_eq!(prof.msgs.len(), 1);
        let msg = &prof.msgs[0];
        assert_eq!(msg.kind, "Rumor");
        assert_eq!(msg.envelopes, 100);
        assert_eq!(msg.payload_bytes, 100 * 48 + 100 * 4);
        assert!(prof.phases.iter().any(|p| p.phase == Phase::OnRound));
        // Memory timeline is in sample order.
        assert_eq!(prof.mem.len(), 2);
        assert_eq!(prof.mem[0].round, 1);
        assert_eq!(prof.mem[1].knowledge_bytes, 2000);
    }

    #[test]
    fn imbalance_and_utilization_need_parallel_lanes() {
        let seq = profiled_report(1);
        let prof = seq.profile.unwrap();
        assert_eq!(prof.imbalance_mean, 1.0);
        let par = profiled_report(4);
        let prof = par.profile.unwrap();
        assert!(prof.imbalance_mean >= 1.0);
        assert!(prof.imbalance_max >= prof.imbalance_mean);
        assert!(prof.utilization_pct <= 100.0);
    }

    #[test]
    fn per_round_shares_are_kept_only_when_asked_for() {
        let report = profiled_report(2);
        let with = SpanFold::of(&report.spans, true);
        let without = SpanFold::of(&report.spans, false);
        assert_eq!(with.rounds.len(), 2);
        assert!(without.rounds.is_empty());
        let mut reg = MetricsRegistry::new();
        assert_eq!(with.phases(&mut reg), without.phases(&mut reg));
        assert_eq!(with.workers(), without.workers());
        assert_eq!(with.worker_imbalance(), without.worker_imbalance());
    }

    #[test]
    fn the_shared_formulas() {
        assert_eq!(imbalance(&[]), None);
        assert_eq!(imbalance(&[7]), None, "one lane has no skew");
        assert_eq!(imbalance(&[0, 0]), None, "no busy time, no skew");
        assert_eq!(imbalance(&[100, 300]), Some(1.5));
        assert_eq!(utilization(&[], 10), None);
        assert_eq!(utilization(&[5, 5], 0), None);
        assert_eq!(utilization(&[5, 15], 20), Some(0.5));
        assert_eq!(utilization(&[50, 50], 20), Some(1.0), "clamped");
    }

    #[test]
    fn unprofiled_recorder_produces_no_profile() {
        let mut rec = Recorder::new(meta(1));
        rec.begin_round();
        rec.end_round(round_row(0, 5));
        let report = rec.finish(outcome(5, 5), &[], &[], &[], &[]).unwrap();
        assert!(report.profile.is_none());
    }

    #[test]
    fn a_single_lane_attributes_no_more_than_the_measured_wall() {
        let report = profiled_report(1);
        let workers = SpanFold::of(&report.spans, false).workers();
        assert_eq!(workers.len(), 1, "one lane: {workers:?}");
        let busy = workers[0].busy_ns;
        let phases: u64 = report.phases.iter().map(|p| p.total_ns).sum();
        assert_eq!(busy, phases, "the lane and the phases split one total");
        // Single lane: attributed phase time cannot exceed the summed
        // measured round wall time.
        let wall: u64 = report.rounds.iter().map(|r| r.wall_ns).sum();
        assert!(busy <= wall, "attributed {busy} > measured wall {wall}");
    }
}
