//! Cost-attribution profiling: where the nanosecond goes.
//!
//! The [`Recorder`](crate::Recorder) answers "how long did the run
//! take"; the [`Profiler`] answers "which phase, which shard, which
//! message type, and how many bytes". It lives strictly outside the
//! determinism boundary like every other observability surface:
//! engines feed it one-time facts (message-kind sizes) and the driver
//! feeds it per-round memory samples, but nothing deterministic ever
//! reads it back. When profiling is off, no profiler exists, no extra
//! clock is read, and archives carry no profile section.
//!
//! All the expensive work happens once, at
//! [`Recorder::finish`](crate::Recorder::finish): the profiler folds
//! the recorder's existing span stream into per-phase attribution
//! (with ns/envelope), per-round shard utilization and imbalance, and
//! a memory timeline — the assembled [`ProfileReport`] rides on the
//! [`ObsReport`](crate::ObsReport) and is exported as the archive's
//! `profile_*` records and (optionally) a folded-stack file for
//! standard flamegraph tooling.

use crate::recorder::{ObsReport, RoundObs, RunOutcomeObs};
use crate::sink::{write_atomic, ObsSink};
use crate::span::{Phase, SpanEvent};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The per-run byte cost of one protocol message kind, registered once
/// by the engine when profiling is enabled (sizes are compile-time
/// facts, so registration has zero per-round cost).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsgKindCost {
    /// Short type name of the envelope payload (last path segment of
    /// `std::any::type_name`).
    pub kind: String,
    /// In-memory bytes of one staged envelope of this kind.
    pub env_bytes: u64,
    /// Bytes per carried pointer (node identifier) beyond the envelope.
    pub ptr_bytes: u64,
}

/// Collects profiling inputs during a run; folded into a
/// [`ProfileReport`] at finish. Create via
/// [`Recorder::with_profiling`](crate::Recorder::with_profiling).
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    msg_kinds: Vec<MsgKindCost>,
    /// Driver-sampled `(round, total resident knowledge bytes)`.
    mem_samples: Vec<(u64, u64)>,
    /// End-of-run `(pool name, high-water bytes)` from every engine
    /// buffer pool.
    pool_high_water: Vec<(String, u64)>,
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
    /// Buffer-pool high-water bytes (end-of-run estimate, constant
    /// across samples).
    pub pool_bytes: u64,
    /// Peak-RSS estimate: knowledge + pools + telemetry buffers.
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
    /// Summed buffer-pool high-water bytes.
    pub peak_pool_bytes: u64,
    /// Peak-RSS estimate: peak knowledge + pools + telemetry buffers.
    pub peak_rss_bytes: u64,
    /// Per-phase attribution, in [`Phase::ALL`] order, phases with
    /// spans only.
    pub phases: Vec<ProfilePhase>,
    /// Per-message-kind accounting, in registration order.
    pub msgs: Vec<ProfileMsg>,
    /// The memory timeline, in sample order.
    pub mem: Vec<ProfileMem>,
}

impl Profiler {
    /// An empty profiler. Engines and the driver feed it; nothing is
    /// computed until [`assemble`](Self::assemble).
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Registers one message kind's byte costs (idempotent per kind).
    pub fn add_msg_kind(&mut self, kind: &str, env_bytes: u64, ptr_bytes: u64) {
        if self.msg_kinds.iter().any(|m| m.kind == kind) {
            return;
        }
        self.msg_kinds.push(MsgKindCost {
            kind: kind.to_string(),
            env_bytes,
            ptr_bytes,
        });
    }

    /// Records one per-round memory sample (driver-side: engines
    /// cannot see algorithm knowledge).
    pub fn add_mem_sample(&mut self, round: u64, knowledge_bytes: u64) {
        self.mem_samples.push((round, knowledge_bytes));
    }

    /// Records end-of-run buffer-pool high-water marks.
    pub fn set_pool_high_water(&mut self, pools: &[(&str, u64)]) {
        self.pool_high_water = pools
            .iter()
            .map(|&(name, bytes)| (name.to_string(), bytes))
            .collect();
    }

    /// Folds the recorder's span stream and round rows into the final
    /// attribution report. Called once from
    /// [`Recorder::finish`](crate::Recorder::finish).
    pub fn assemble(
        self,
        rounds: &[RoundObs],
        spans: &[SpanEvent],
        outcome: &RunOutcomeObs,
    ) -> ProfileReport {
        let total_wall: u64 = rounds.iter().map(|r| r.wall_ns).sum();
        let envelopes = outcome.messages;

        // Per-round aggregation over the span stream: total attributed
        // ns (for coverage) and per-worker busy ns over the parallel
        // phases (for utilization / imbalance).
        #[derive(Default)]
        struct RoundAgg {
            span_ns: u64,
            parallel: BTreeMap<u32, u64>,
        }
        let mut per_round: BTreeMap<u64, RoundAgg> = BTreeMap::new();
        let mut phase_totals = [0u64; Phase::ALL.len()];
        for s in spans {
            let agg = per_round.entry(s.round).or_default();
            agg.span_ns += s.dur_ns;
            if matches!(s.phase, Phase::OnRound | Phase::RouteShard) {
                *agg.parallel.entry(s.worker).or_default() += s.dur_ns;
            }
            let idx = Phase::ALL.iter().position(|&p| p == s.phase).unwrap();
            phase_totals[idx] += s.dur_ns;
        }

        let mut covered = 0u64;
        let mut util_sum = 0.0f64;
        let mut util_rounds = 0u64;
        let mut imb_sum = 0.0f64;
        let mut imb_max = 1.0f64;
        let mut imb_rounds = 0u64;
        for r in rounds {
            let Some(agg) = per_round.get(&r.round) else {
                continue;
            };
            covered += agg.span_ns.min(r.wall_ns);
            if r.wall_ns > 0 && !agg.parallel.is_empty() {
                let busy: u64 = agg.parallel.values().sum();
                let lanes = agg.parallel.len() as f64;
                util_sum += (busy as f64 / (lanes * r.wall_ns as f64)).min(1.0);
                util_rounds += 1;
                if agg.parallel.len() > 1 {
                    let max = *agg.parallel.values().max().unwrap() as f64;
                    let mean = busy as f64 / lanes;
                    if mean > 0.0 {
                        let imb = max / mean;
                        imb_sum += imb;
                        imb_max = imb_max.max(imb);
                        imb_rounds += 1;
                    }
                }
            }
        }
        let coverage_pct = if total_wall == 0 {
            0.0
        } else {
            100.0 * covered as f64 / total_wall as f64
        };
        let utilization_pct = if util_rounds == 0 {
            0.0
        } else {
            100.0 * util_sum / util_rounds as f64
        };
        let imbalance_mean = if imb_rounds == 0 {
            1.0
        } else {
            imb_sum / imb_rounds as f64
        };

        let phases: Vec<ProfilePhase> = Phase::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| phase_totals[i] > 0)
            .map(|(i, &phase)| ProfilePhase {
                phase,
                total_ns: phase_totals[i],
                round_pct: if total_wall == 0 {
                    0.0
                } else {
                    100.0 * phase_totals[i] as f64 / total_wall as f64
                },
                ns_per_envelope: if envelopes == 0 {
                    0.0
                } else {
                    phase_totals[i] as f64 / envelopes as f64
                },
            })
            .collect();

        let msgs: Vec<ProfileMsg> = self
            .msg_kinds
            .iter()
            .map(|m| ProfileMsg {
                kind: m.kind.clone(),
                envelopes,
                payload_bytes: envelopes * m.env_bytes + outcome.pointers * m.ptr_bytes,
                ns_per_envelope: if envelopes == 0 {
                    0.0
                } else {
                    total_wall as f64 / envelopes as f64
                },
            })
            .collect();

        let peak_pool_bytes: u64 = self.pool_high_water.iter().map(|&(_, b)| b).sum();
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
                pool_bytes: peak_pool_bytes,
                rss_bytes: knowledge_bytes + peak_pool_bytes + telemetry_bytes,
            })
            .collect();

        ProfileReport {
            coverage_pct,
            samples: mem.len() as u64,
            utilization_pct,
            imbalance_mean,
            imbalance_max: imb_max,
            peak_knowledge_bytes,
            peak_pool_bytes,
            peak_rss_bytes: peak_knowledge_bytes + peak_pool_bytes + telemetry_bytes,
            phases,
            msgs,
            mem,
        }
    }
}

/// Renders the span stream as folded stacks — one line per
/// `(worker, phase)` aggregate, `stack;frames count` — consumable by
/// standard flamegraph tooling (`flamegraph.pl`, inferno, speedscope).
pub fn folded_stacks(report: &ObsReport) -> String {
    let lane = if report.meta.workers > 1 {
        "shard"
    } else {
        "worker"
    };
    let mut agg: BTreeMap<(u32, usize), u64> = BTreeMap::new();
    for s in &report.spans {
        let idx = Phase::ALL.iter().position(|&p| p == s.phase).unwrap();
        *agg.entry((s.worker, idx)).or_default() += s.dur_ns;
    }
    let mut out = String::new();
    for (&(worker, idx), &ns) in &agg {
        let phase = Phase::ALL[idx].name();
        out.push_str(&format!(
            "{};{} {};{} {}\n",
            report.meta.engine, lane, worker, phase, ns
        ));
    }
    out
}

/// An [`ObsSink`] that writes the folded-stack file at run end.
pub struct FoldedStackSink {
    path: PathBuf,
}

impl FoldedStackSink {
    /// A sink writing to `path` (atomically, at finish).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FoldedStackSink { path: path.into() }
    }
}

impl ObsSink for FoldedStackSink {
    fn on_finish(&mut self, report: &ObsReport) -> io::Result<()> {
        write_atomic(&self.path, &folded_stacks(report))
    }
}

/// A rate-limited stderr progress line for long runs: round, rounds/s,
/// msgs/s, resident bytes. Strictly observational — it only *reads*
/// run state and prints to stderr so deterministic stdout reports stay
/// byte-stable.
///
/// The heartbeat is a *renderer* of
/// [`LiveSnapshot`](crate::LiveSnapshot)s: throughput accounting lives
/// solely in the [`LivePublisher`](crate::LivePublisher) that stamps the snapshot,
/// so the stderr line and the `/status` endpoint can never disagree
/// (the heartbeat used to recompute its own rounds/s — that duplicate
/// accounting is gone).
pub struct Heartbeat {
    label: String,
    interval: Duration,
    last_emit: Instant,
}

impl Heartbeat {
    /// A heartbeat printing at most once per second.
    pub fn new(label: impl Into<String>) -> Self {
        Heartbeat::with_interval(label, Duration::from_secs(1))
    }

    /// A heartbeat with an explicit minimum interval between lines.
    pub fn with_interval(label: impl Into<String>, interval: Duration) -> Self {
        Heartbeat {
            label: label.into(),
            interval,
            last_emit: Instant::now(),
        }
    }

    /// Whether a line is due. Cheap (one clock read); drivers gate
    /// snapshot assembly — resident-memory sampling in particular — on
    /// this for heartbeat-only runs, so the sampling cost is paid at
    /// the heartbeat rate, not the round rate.
    pub fn due(&self) -> bool {
        self.last_emit.elapsed() >= self.interval
    }

    /// Prints one line from `snap` if due.
    pub fn emit(&mut self, snap: &crate::live::LiveSnapshot) {
        if !self.due() {
            return;
        }
        eprintln!(
            "[{}] round {} | {:.1} rounds/s | {:.0} msgs/s | resident {:.1} MiB",
            self.label,
            snap.round,
            snap.rounds_per_sec,
            snap.msgs_per_sec,
            snap.resident_bytes as f64 / (1024.0 * 1024.0)
        );
        self.last_emit = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, RunMeta};
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
            wall_ns: 0,
            messages,
            pointers: messages,
            dropped_coin: 0,
            dropped_crash: 0,
            dropped_partition: 0,
            dropped_link: 0,
            dropped_suppression: 0,
            retransmissions: 0,
            knowledge_delta: None,
        }
    }

    /// A real profiled run through the recorder: two rounds of spans
    /// timed against the wall clock.
    fn profiled_report(workers: usize) -> ObsReport {
        let mut rec = Recorder::new(meta(workers)).with_profiling();
        rec.profile_msg_kind("Rumor", 48, 4);
        for r in 1..=2u64 {
            rec.begin_round();
            let t = Instant::now();
            for w in 0..workers as u32 {
                rec.span_from(Phase::OnRound, r, w, t);
            }
            rec.span_from(Phase::RouteShard, r, 0, t);
            rec.profile_memory(r, 1000 * r);
            rec.end_round(round_row(r, 50));
        }
        rec.profile_pool_high_water(&[("env", 4096)]);
        rec.finish(outcome(100, 100), &[], &[], &[], &[]).unwrap()
    }

    #[test]
    fn assemble_attributes_phases_msgs_and_memory() {
        let report = profiled_report(1);
        let prof = report.profile.as_ref().expect("profile assembled");
        assert!(prof.coverage_pct >= 0.0 && prof.coverage_pct <= 100.0);
        assert_eq!(prof.samples, 2);
        assert_eq!(prof.peak_knowledge_bytes, 2000);
        assert_eq!(prof.peak_pool_bytes, 4096);
        assert!(prof.peak_rss_bytes >= 2000 + 4096);
        assert_eq!(prof.msgs.len(), 1);
        let msg = &prof.msgs[0];
        assert_eq!(msg.kind, "Rumor");
        assert_eq!(msg.envelopes, 100);
        assert_eq!(msg.payload_bytes, 100 * 48 + 100 * 4);
        assert!(prof.phases.iter().any(|p| p.phase == Phase::OnRound));
        // Memory timeline is in sample order with constant pool bytes.
        assert_eq!(prof.mem.len(), 2);
        assert_eq!(prof.mem[0].round, 1);
        assert_eq!(prof.mem[1].knowledge_bytes, 2000);
        assert_eq!(prof.mem[0].pool_bytes, prof.mem[1].pool_bytes);
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
    fn unprofiled_recorder_produces_no_profile() {
        let mut rec = Recorder::new(meta(1));
        rec.begin_round();
        rec.end_round(round_row(1, 5));
        let report = rec.finish(outcome(5, 5), &[], &[], &[], &[]).unwrap();
        assert!(report.profile.is_none());
    }

    #[test]
    fn folded_stacks_parse_and_sum_within_measured_wall() {
        let report = profiled_report(1);
        let folded = folded_stacks(&report);
        assert!(!folded.is_empty());
        let mut total_ns = 0u64;
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("stack<space>value");
            let frames: Vec<&str> = stack.split(';').collect();
            assert_eq!(frames.len(), 3, "engine;lane;phase: {line}");
            assert_eq!(frames[0], "sequential");
            assert!(frames[1].starts_with("worker "));
            assert!(Phase::from_name(frames[2]).is_some());
            total_ns += value.parse::<u64>().expect("numeric leaf value");
        }
        // Single lane: attributed phase time cannot exceed the summed
        // measured round wall time.
        let wall: u64 = report.rounds.iter().map(|r| r.wall_ns).sum();
        assert!(
            total_ns <= wall,
            "folded total {total_ns} > measured wall {wall}"
        );
    }

    #[test]
    fn folded_stack_sink_writes_file() {
        let report = profiled_report(2);
        let dir = std::env::temp_dir().join("rd_obs_prof_test_folded");
        let path = dir.join("run.folded");
        FoldedStackSink::new(&path).on_finish(&report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() >= 2);
        assert!(text.contains("sharded:2;shard 0;on_round "));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heartbeat_rate_limits_and_renders_snapshots() {
        let hb = Heartbeat::with_interval("test", Duration::from_secs(3600));
        assert!(!hb.due(), "fresh heartbeat with a long interval not due");
        let mut hb = Heartbeat::with_interval("test", Duration::ZERO);
        assert!(hb.due());
        let snap = crate::live::LiveSnapshot {
            round: 5,
            rounds_per_sec: 12.5,
            resident_bytes: 1 << 20,
            ..Default::default()
        };
        hb.emit(&snap);
        // Emitting resets the rate limit (ZERO interval is immediately
        // due again, so pin with a real interval).
        let mut hb = Heartbeat::with_interval("test", Duration::from_secs(3600));
        hb.last_emit = Instant::now() - Duration::from_secs(7200);
        assert!(hb.due());
        hb.emit(&snap);
        assert!(!hb.due(), "emit resets the interval clock");
    }
}
