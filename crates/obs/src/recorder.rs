//! The [`Recorder`]: the one object an engine talks to when
//! observability is enabled.
//!
//! Engines hold an `Option<Recorder>`; when it is `None` no clock is
//! ever read and no branch beyond the `Option` check runs — that is
//! the zero-cost-when-disabled contract. When present, the recorder
//! accumulates spans, per-round rows, and registry metrics entirely
//! *outside* deterministic engine state: nothing an engine computes
//! ever depends on a recorder value, so enabling observability cannot
//! perturb a run (pinned by `tests/prop_engine_equivalence.rs`).
//!
//! Every round the recorder stores is numbered from 1. Engines report
//! spans and rows by the core's 0-based round counter; the recorder
//! labels core round `r` as round `r + 1`, the round whose end state the
//! driver observes after `r + 1` steps. That is the numbering of the
//! knowledge series, memory samples, provenance edges and
//! `summary.rounds`, so an archive joins across all of them.
//!
//! At run end the driver calls [`Recorder::finish`], which folds the
//! stored spans once (see [`prof`](crate::prof)), assembles the
//! [`ObsReport`] — distributions, phase timings, worker utilization,
//! hot nodes — and writes it to the attached
//! [`JsonlArchiveSink`], if any: the run archive is the one export.

use crate::prof::{ProfileInputs, ProfileReport, SpanFold};
use crate::registry::MetricsRegistry;
use crate::sink::JsonlArchiveSink;
use crate::span::{Phase, SpanEvent};
use crate::trace::CausalTrace;
use std::time::Instant;

/// Identity of a run, echoed into every exported artifact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMeta {
    pub algorithm: String,
    pub topology: String,
    pub n: usize,
    pub seed: u64,
    /// `"sequential"`, `"sharded:<workers>"`, or `"event:<model>"`.
    pub engine: String,
    pub workers: usize,
    /// The latency model's spec string for `event:<model>` runs
    /// (`None` for the others).
    pub latency_model: Option<String>,
}

/// One round's observed counters plus its wall-clock cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundObs {
    /// 1-based (see the module docs).
    pub round: u64,
    pub wall_ns: u64,
    pub messages: u64,
    pub pointers: u64,
    pub drops: DropTally,
    pub retransmissions: u64,
    /// New identifiers learned across all nodes this round; filled in
    /// at [`Recorder::finish`] from the driver's knowledge series
    /// (engines cannot see algorithm knowledge).
    pub knowledge_delta: Option<u64>,
}

/// Messages lost to fault injection, by cause: over a round, a run, or
/// a span of rounds. The engines tally their drops in it too (rd-sim
/// re-exports it). Archived flat, as `dropped_<cause>` fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropTally {
    /// Losses to the independent drop coin.
    pub coin: u64,
    /// Messages addressed to a dead node.
    pub crash: u64,
    /// Messages blocked by an active partition.
    pub partition: u64,
    /// Losses on lossy links (the per-link loss overlay's coin).
    pub link: u64,
    /// Sends suppressed by an adversarial campaign.
    pub suppression: u64,
}

impl DropTally {
    /// Each cause's count under its name, in archive order.
    pub fn by_cause(&self) -> [(&'static str, u64); 5] {
        [
            ("coin", self.coin),
            ("crash", self.crash),
            ("partition", self.partition),
            ("link", self.link),
            ("suppression", self.suppression),
        ]
    }

    /// Every cause together.
    pub fn total(&self) -> u64 {
        self.by_cause().iter().map(|&(_, n)| n).sum()
    }
}

impl std::iter::Sum for DropTally {
    fn sum<I: Iterator<Item = DropTally>>(iter: I) -> DropTally {
        iter.fold(DropTally::default(), |a, b| DropTally {
            coin: a.coin + b.coin,
            crash: a.crash + b.crash,
            partition: a.partition + b.partition,
            link: a.link + b.link,
            suppression: a.suppression + b.suppression,
        })
    }
}

/// `coin 1, crash 0, partition 3, link 0, suppression 0`.
impl std::fmt::Display for DropTally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (cause, n)) in self.by_cause().into_iter().enumerate() {
            write!(f, "{}{cause} {n}", if i > 0 { ", " } else { "" })?;
        }
        Ok(())
    }
}

/// The run verdict and totals as the driver saw them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOutcomeObs {
    pub verdict: String,
    pub completed: bool,
    pub sound: bool,
    pub rounds: u64,
    pub messages: u64,
    pub pointers: u64,
    pub trace_events: u64,
    pub trace_overflow: u64,
    /// The last round at which total knowledge still grew, when the
    /// driver's watchdog tracked it (surfaced for stalled runs).
    pub last_progress: Option<u64>,
}

/// Aggregate timing of one phase across the whole run: span count,
/// total, and the span-duration quantiles the archive keeps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseSummary {
    pub phase: Phase,
    pub count: u64,
    pub total_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// One worker's total observed busy time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    pub worker: u32,
    pub spans: u64,
    pub busy_ns: u64,
}

/// Everything the recorder learned about one run, ready for export.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsReport {
    pub meta: RunMeta,
    pub outcome: RunOutcomeObs,
    pub rounds: Vec<RoundObs>,
    pub registry: MetricsRegistry,
    pub phases: Vec<PhaseSummary>,
    pub workers: Vec<WorkerSummary>,
    /// Top senders/receivers as `(node id, message count)`, hottest
    /// first, ties broken toward lower ids.
    pub hot_senders: Vec<(u32, u64)>,
    pub hot_receivers: Vec<(u32, u64)>,
    pub spans: Vec<SpanEvent>,
    /// Spans dropped past the buffer cap (also the registry's
    /// `span_overflow_total`).
    pub span_overflow: u64,
    /// The knowledge-provenance DAG, when causal tracing was enabled
    /// (exported as the archive's causal section).
    pub causal: Option<CausalTrace>,
    /// Cost attribution, when profiling was enabled (exported as the
    /// archive's profile section).
    pub profile: Option<ProfileReport>,
}

/// How many hot senders/receivers the report keeps.
pub const HOT_NODES_K: usize = 8;

/// Spans pre-allocated at construction (≈ 16 phases × 1k rounds,
/// 512 KiB) so span recording is allocation-free for typical runs.
const SPAN_PREALLOC: usize = 1 << 14;

/// Round rows pre-allocated at construction.
const ROUND_PREALLOC: usize = 1 << 10;

/// Collects telemetry for one run. See the module docs for the
/// determinism contract.
pub struct Recorder {
    epoch: Instant,
    meta: RunMeta,
    spans: Vec<SpanEvent>,
    span_cap: usize,
    span_overflow: u64,
    round_start: Option<Instant>,
    rounds: Vec<RoundObs>,
    registry: MetricsRegistry,
    archive: Option<Box<JsonlArchiveSink>>,
    causal: Option<CausalTrace>,
    prof: Option<ProfileInputs>,
}

impl Recorder {
    /// A recorder with no archive: telemetry is still aggregated and
    /// the [`ObsReport`] still comes back from [`finish`](Self::finish),
    /// there is just no file export.
    pub fn new(meta: RunMeta) -> Self {
        Recorder {
            epoch: Instant::now(),
            meta,
            // Pre-sized so the steady-state hot path (a handful of
            // spans plus one round row per round) never reallocates
            // mid-run: buffer growth would be charged to whichever
            // round happens to cross a power of two, skewing both the
            // per-phase profile and the measured obs overhead.
            spans: Vec::with_capacity(SPAN_PREALLOC),
            span_cap: 1 << 20,
            span_overflow: 0,
            round_start: None,
            rounds: Vec::with_capacity(ROUND_PREALLOC),
            registry: MetricsRegistry::new(),
            archive: None,
            causal: None,
            prof: None,
        }
    }

    /// Enables cost-attribution profiling. Purely additive: a profiled
    /// run is bit-identical to an un-profiled one (wall-clock still
    /// only flows *into* the recorder), but the finished report gains
    /// a [`ProfileReport`] and archives gain
    /// their profile section. Chainable.
    pub fn with_profiling(mut self) -> Self {
        self.prof = Some(ProfileInputs::default());
        self
    }

    /// Whether profiling is enabled — engines and drivers gate their
    /// profiling-only work (extra spans, memory sampling) on this so
    /// un-profiled runs pay nothing.
    pub fn profiling_enabled(&self) -> bool {
        self.prof.is_some()
    }

    /// Registers one message kind's byte costs with the profiler
    /// (no-op when profiling is off). Engines call this once at
    /// construction; sizes are compile-time facts.
    pub fn profile_msg_kind(&mut self, kind: &str, env_bytes: u64, ptr_bytes: u64) {
        if let Some(prof) = &mut self.prof {
            if !prof.msg_kinds.iter().any(|(k, ..)| k == kind) {
                prof.msg_kinds
                    .push((kind.to_string(), env_bytes, ptr_bytes));
            }
        }
    }

    /// Records one per-round memory sample (no-op when profiling is
    /// off). Driver-side: engines cannot see algorithm knowledge.
    pub fn profile_memory(&mut self, round: u64, knowledge_bytes: u64) {
        if let Some(prof) = &mut self.prof {
            prof.mem_samples.push((round, knowledge_bytes));
        }
    }

    /// Records end-of-run buffer-pool high-water marks (no-op when
    /// profiling is off).
    pub fn profile_pool_high_water(&mut self, pools: &[(&str, u64)]) {
        if let Some(prof) = &mut self.prof {
            prof.pool_high_water = pools.iter().map(|&(n, b)| (n.to_string(), b)).collect();
        }
    }

    /// Hands the engine's finished causal trace to the recorder so the
    /// archive can export it as the provenance section.
    /// Called by the driver after the run, never during it — the trace
    /// is engine-collected but strictly observational.
    pub fn attach_causal(&mut self, causal: CausalTrace) {
        self.causal = Some(causal);
    }

    /// Writes the run archive at finish, replacing any archive attached
    /// before. Chainable. The argument is boxed so that existing callers
    /// keep compiling: the frozen `benchmark/` package passes
    /// `Box::new(JsonlArchiveSink::new(path))`.
    pub fn with_sink(mut self, archive: Box<JsonlArchiveSink>) -> Self {
        self.archive = Some(archive);
        self
    }

    /// Caps the retained span buffer (default 2²⁰ spans); further
    /// spans are counted in `span_overflow` but not stored.
    pub fn with_span_capacity(mut self, cap: usize) -> Self {
        self.span_cap = cap;
        self
    }

    /// The shared clock epoch: worker threads convert their `Instant`
    /// reads to offsets from this via [`SpanEvent::from_instants`].
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Direct access to the counter/gauge/histogram registry, for
    /// drivers that publish their own metrics (detector retractions)
    /// before `finish`.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Marks the wall-clock start of a round.
    pub fn begin_round(&mut self) {
        self.round_start = Some(Instant::now());
    }

    /// Records a span of the core's round `round` that started at
    /// `start` and ends now (the serial engine's "time this phase
    /// inline" helper).
    pub fn span_from(&mut self, phase: Phase, round: u64, worker: u32, start: Instant) {
        let span =
            SpanEvent::from_instants(self.epoch, phase, round, worker, start, Instant::now());
        self.record_span(span);
    }

    /// Records a pre-built span labelled with the core's round (the
    /// sharded engine folds per-worker spans in through here after
    /// joining its scope); it is stored 1-based.
    pub fn record_span(&mut self, mut span: SpanEvent) {
        span.round += 1;
        if self.spans.len() < self.span_cap {
            self.spans.push(span);
        } else {
            self.span_overflow += 1;
        }
    }

    /// Closes out a round: `obs` comes labelled with the core's round
    /// and is stored 1-based, its `wall_ns` overwritten with the time
    /// since the matching [`begin_round`](Self::begin_round).
    pub fn end_round(&mut self, mut obs: RoundObs) {
        obs.round += 1;
        obs.wall_ns = self
            .round_start
            .take()
            .map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.rounds.push(obs);
    }

    /// Assembles the [`ObsReport`] and writes the archive, if one is
    /// attached.
    ///
    /// `per_node_sent`/`per_node_recv` feed the hot-node top-k;
    /// `knowledge` is the driver's `(round, total known ids)` series,
    /// round 0 being the initial knowledge (empty when the driver does
    /// not observe knowledge); `pools` are `(name, takes, reuses)`
    /// counters from every buffer pool the engine exposes.
    pub fn finish(
        mut self,
        outcome: RunOutcomeObs,
        per_node_sent: &[u64],
        per_node_recv: &[u64],
        knowledge: &[(u64, u64)],
        pools: &[(&str, u64, u64)],
    ) -> std::io::Result<ObsReport> {
        // Knowledge deltas: row `r` learned known(r) − known(r − 1).
        // Rows and series both ascend by round, so one merge walk
        // joins them.
        let mut rows = self.rounds.iter_mut().peekable();
        for pair in knowledge.windows(2) {
            let ((_, prev_total), (round, total)) = (pair[0], pair[1]);
            while rows.next_if(|row| row.round < round).is_some() {}
            if let Some(row) = rows.next_if(|row| row.round == round) {
                row.knowledge_delta = Some(total.saturating_sub(prev_total));
            }
        }

        let mut reg = self.registry;
        reg.add_counter("messages_total", outcome.messages);
        reg.add_counter("pointers_total", outcome.pointers);
        let drops: DropTally = self.rounds.iter().map(|r| r.drops).sum();
        for (cause, n) in drops.by_cause() {
            reg.add_counter(&format!("dropped_{cause}_total"), n);
        }
        let retrans: u64 = self.rounds.iter().map(|r| r.retransmissions).sum();
        reg.add_counter("retransmissions_total", retrans);
        reg.add_counter("span_overflow_total", self.span_overflow);
        if let Some(causal) = &self.causal {
            reg.add_counter("causal_edges_total", causal.len() as u64);
            reg.add_counter("causal_candidates_total", causal.candidates());
            reg.add_counter("causal_sampled_out_total", causal.sampled_out());
            reg.add_counter("causal_overflow_total", causal.overflow());
        }
        for &(name, takes, reuses) in pools {
            reg.add_counter(&format!("pool_{name}_takes_total"), takes);
            reg.add_counter(&format!("pool_{name}_reuses_total"), reuses);
            let rate = if takes == 0 {
                0.0
            } else {
                reuses as f64 / takes as f64
            };
            reg.set_gauge(&format!("pool_{name}_hit_rate"), rate);
        }
        for row in &self.rounds {
            reg.record("round_messages", row.messages);
            reg.record("round_pointers", row.pointers);
            reg.record("round_wall_ns", row.wall_ns);
            if let Some(delta) = row.knowledge_delta {
                reg.record("knowledge_delta", delta);
            }
        }

        // One pass over the stored spans serves every span-derived view.
        let fold = SpanFold::of(&self.spans, self.prof.is_some());
        let phases = fold.phases(&mut reg);
        if let Some(imbalance) = fold.worker_imbalance() {
            reg.set_gauge("worker_imbalance", imbalance);
        }
        let wall_total: u64 = self.rounds.iter().map(|r| r.wall_ns).sum();
        reg.set_gauge("wall_seconds_total", wall_total as f64 / 1e9);
        let profile = self
            .prof
            .take()
            .map(|p| p.report(&fold, &self.spans, &self.rounds, &outcome));

        let report = ObsReport {
            meta: self.meta,
            outcome,
            rounds: self.rounds,
            registry: reg,
            phases,
            workers: fold.workers(),
            hot_senders: top_k(per_node_sent, HOT_NODES_K),
            hot_receivers: top_k(per_node_recv, HOT_NODES_K),
            spans: self.spans,
            span_overflow: self.span_overflow,
            causal: self.causal,
            profile,
        };
        if let Some(archive) = &self.archive {
            archive.write(&report)?;
        }
        Ok(report)
    }
}

/// Top `k` indices of `values` by value, descending, ties toward the
/// lower index. Zero entries are skipped.
fn top_k(values: &[u64], k: usize) -> Vec<(u32, u64)> {
    let mut ranked: Vec<(u32, u64)> = values
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v > 0)
        .map(|(i, &v)| (i as u32, v))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RunMeta {
        RunMeta {
            algorithm: "test".into(),
            topology: "k-out-3".into(),
            n: 8,
            seed: 1,
            engine: "sequential".into(),
            workers: 1,
            latency_model: None,
        }
    }

    fn round(round: u64, messages: u64) -> RoundObs {
        RoundObs {
            round,
            messages,
            pointers: messages * 2,
            drops: DropTally {
                coin: 1,
                ..DropTally::default()
            },
            ..RoundObs::default()
        }
    }

    #[test]
    fn finish_assembles_rounds_phases_and_hot_nodes() {
        let mut rec = Recorder::new(meta());
        // Three steps of the core, rounds 0..3.
        for r in 0..3u64 {
            rec.begin_round();
            rec.span_from(Phase::OnRound, r, 0, Instant::now());
            rec.span_from(Phase::RouteShard, r, 0, Instant::now());
            rec.end_round(round(r, 10 * (r + 1)));
        }
        let outcome = RunOutcomeObs {
            verdict: "complete-sound".into(),
            completed: true,
            sound: true,
            rounds: 3,
            messages: 60,
            pointers: 120,
            trace_events: 5,
            trace_overflow: 0,
            last_progress: None,
        };
        let report = rec
            .finish(
                outcome,
                &[5, 0, 9, 9],
                &[1, 2, 3, 4],
                &[(0, 100), (1, 130), (2, 160), (3, 200)],
                &[("delay", 10, 7)],
            )
            .unwrap();
        // Rows and spans count from 1, like the knowledge series, and
        // every step carries its own delta.
        let labels: Vec<u64> = report.rounds.iter().map(|r| r.round).collect();
        assert_eq!(labels, [1, 2, 3]);
        assert!(report.spans.iter().all(|s| (1..=3).contains(&s.round)));
        let deltas: Vec<Option<u64>> = report.rounds.iter().map(|r| r.knowledge_delta).collect();
        assert_eq!(deltas, [Some(30), Some(30), Some(40)]);
        assert_eq!(
            report
                .registry
                .histogram("knowledge_delta")
                .unwrap()
                .count(),
            3
        );
        assert_eq!(report.registry.counter("messages_total"), Some(60));
        assert_eq!(report.registry.counter("dropped_coin_total"), Some(3));
        assert_eq!(report.registry.counter("pool_delay_reuses_total"), Some(7));
        assert!((report.registry.gauge("pool_delay_hit_rate").unwrap() - 0.7).abs() < 1e-9);
        assert_eq!(report.hot_senders, vec![(2, 9), (3, 9), (0, 5)]);
        assert_eq!(report.hot_receivers[0], (3, 4));
        let on_round = report
            .phases
            .iter()
            .find(|p| p.phase == Phase::OnRound)
            .unwrap();
        assert_eq!(on_round.count, 3);
        assert_eq!(
            report.registry.histogram("round_messages").unwrap().count(),
            3
        );
    }

    #[test]
    fn span_capacity_overflows_are_counted() {
        let mut rec = Recorder::new(meta()).with_span_capacity(2);
        for r in 0..5 {
            rec.span_from(Phase::FinishRound, r, 0, Instant::now());
        }
        let report = rec
            .finish(RunOutcomeObs::default(), &[], &[], &[], &[])
            .unwrap();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.span_overflow, 3);
        assert_eq!(report.registry.counter("span_overflow_total"), Some(3));
    }
}

/// The fold against the accounting it replaced. Before it, spans were
/// summed in five places: three loops in `Recorder::finish`, a pass in
/// `Profiler::assemble`, and the folded-stack file's aggregation. The
/// first four are kept here verbatim (the file is gone), as free functions over the same inputs, and
/// random span streams must come out of both bit for bit.
#[cfg(test)]
mod fold_oracle {
    use super::*;
    use crate::hist::Histogram;
    use crate::prof::{ProfileMem, ProfileMsg, ProfilePhase};
    use std::collections::BTreeMap;

    /// `Recorder::finish`'s phase loop.
    fn phases_then(spans: &[SpanEvent], reg: &mut MetricsRegistry) -> Vec<PhaseSummary> {
        let mut phases = Vec::new();
        for phase in Phase::ALL {
            let mut hist = Histogram::new();
            let mut total_ns = 0u64;
            for s in spans.iter().filter(|s| s.phase == phase) {
                hist.record(s.dur_ns);
                total_ns += s.dur_ns;
            }
            if hist.count() > 0 {
                reg.record_hist_merge(&format!("span_{}_ns", phase.name()), &hist);
                phases.push(PhaseSummary {
                    phase,
                    count: hist.count(),
                    total_ns,
                    p50_ns: hist.quantile(0.5),
                    p99_ns: hist.quantile(0.99),
                    max_ns: hist.max(),
                });
            }
        }
        phases
    }

    /// `Recorder::finish`'s worker loop.
    fn workers_then(spans: &[SpanEvent]) -> Vec<WorkerSummary> {
        let mut workers: Vec<WorkerSummary> = Vec::new();
        for s in spans {
            match workers.iter_mut().find(|w| w.worker == s.worker) {
                Some(w) => {
                    w.spans += 1;
                    w.busy_ns += s.dur_ns;
                }
                None => workers.push(WorkerSummary {
                    worker: s.worker,
                    spans: 1,
                    busy_ns: s.dur_ns,
                }),
            }
        }
        workers.sort_by_key(|w| w.worker);
        workers
    }

    /// `Recorder::finish`'s imbalance loop: the gauge it set, if any.
    fn worker_imbalance_then(spans: &[SpanEvent]) -> Option<f64> {
        let mut parallel_busy: Vec<(u32, u64)> = Vec::new();
        for s in spans
            .iter()
            .filter(|s| matches!(s.phase, Phase::OnRound | Phase::RouteShard))
        {
            match parallel_busy.iter_mut().find(|(w, _)| *w == s.worker) {
                Some((_, ns)) => *ns += s.dur_ns,
                None => parallel_busy.push((s.worker, s.dur_ns)),
            }
        }
        if parallel_busy.len() > 1 {
            let max = parallel_busy.iter().map(|&(_, ns)| ns).max().unwrap_or(0);
            let mean: f64 = parallel_busy.iter().map(|&(_, ns)| ns as f64).sum::<f64>()
                / parallel_busy.len() as f64;
            if mean > 0.0 {
                return Some(max as f64 / mean);
            }
        }
        None
    }

    /// The profiler's inputs: `(kind, env_bytes, ptr_bytes)`, memory
    /// samples, pool high water.
    #[derive(Default)]
    struct Inputs {
        msg_kinds: Vec<(String, u64, u64)>,
        mem_samples: Vec<(u64, u64)>,
        pool_high_water: Vec<(String, u64)>,
    }

    /// `Profiler::assemble`.
    fn assemble_then(
        prof: &Inputs,
        rounds: &[RoundObs],
        spans: &[SpanEvent],
        outcome: &RunOutcomeObs,
    ) -> ProfileReport {
        let total_wall: u64 = rounds.iter().map(|r| r.wall_ns).sum();
        let envelopes = outcome.messages;

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

        let msgs: Vec<ProfileMsg> = prof
            .msg_kinds
            .iter()
            .map(|m| ProfileMsg {
                kind: m.0.clone(),
                envelopes,
                payload_bytes: envelopes * m.1 + outcome.pointers * m.2,
                ns_per_envelope: if envelopes == 0 {
                    0.0
                } else {
                    total_wall as f64 / envelopes as f64
                },
            })
            .collect();

        let peak_pool_bytes: u64 = prof.pool_high_water.iter().map(|&(_, b)| b).sum();
        let telemetry_bytes = (std::mem::size_of_val(spans) + std::mem::size_of_val(rounds)) as u64;
        let peak_knowledge_bytes = prof.mem_samples.iter().map(|&(_, b)| b).max().unwrap_or(0);
        let mem: Vec<ProfileMem> = prof
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

    /// splitmix64: the seeded stream a case is drawn from.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A duration: often zero or a few ns, sometimes large.
        fn ns(&mut self) -> u64 {
            match self.below(4) {
                0 => 0,
                1 => self.below(16),
                2 => self.below(100_000),
                _ => self.below(1 << 40),
            }
        }

        fn span(&mut self, round: u64, phase: Phase, workers: u64) -> SpanEvent {
            SpanEvent {
                phase,
                round,
                worker: self.below(workers) as u32,
                start_ns: self.next() >> 24,
                dur_ns: self.ns(),
            }
        }

        fn phase(&mut self) -> Phase {
            Phase::ALL[self.below(Phase::ALL.len() as u64) as usize]
        }
    }

    /// One random run: 1–4 workers, every phase, `Telemetry` spans after
    /// their round's row closed, spans of rounds no row closed, any wall
    /// (zero included) and a span cap that often overflows.
    fn case(seed: u64) {
        let mut rng = Rng(seed);
        let workers = 1 + rng.below(4);
        let meta = RunMeta {
            algorithm: "oracle".into(),
            topology: "k-out-3".into(),
            n: 64,
            seed,
            engine: format!("sharded:{workers}"),
            workers: workers as usize,
            latency_model: None,
        };
        let mut rec = Recorder::new(meta)
            .with_profiling()
            .with_span_capacity(rng.below(160) as usize);
        let mut inputs = Inputs::default();
        for kind in 0..rng.below(3) {
            let (kind, env, ptr) = (format!("Msg{kind}"), rng.below(512), rng.below(16));
            rec.profile_msg_kind(&kind, env, ptr);
            inputs.msg_kinds.push((kind, env, ptr));
        }
        let rounds = rng.below(12);
        for r in 0..rounds {
            for _ in 0..rng.below(12) {
                let phase = rng.phase();
                rec.record_span(rng.span(r, phase, workers));
            }
            rec.end_round(RoundObs {
                round: r,
                messages: rng.below(1000),
                ..RoundObs::default()
            });
            if rng.below(2) == 0 {
                rec.record_span(rng.span(r, Phase::Telemetry, workers));
            }
            let bytes = rng.below(1 << 30);
            rec.profile_memory(r + 1, bytes);
            inputs.mem_samples.push((r + 1, bytes));
        }
        for _ in 0..rng.below(3) {
            let (round, phase) = (rounds + rng.below(3), rng.phase());
            rec.record_span(rng.span(round, phase, workers));
        }
        let pools = [("env", rng.below(1 << 20)), ("delay", rng.below(1 << 20))];
        rec.profile_pool_high_water(&pools);
        inputs.pool_high_water = pools.iter().map(|&(n, b)| (n.to_string(), b)).collect();
        for row in &mut rec.rounds {
            row.wall_ns = rng.ns();
        }
        let (spans, rows) = (rec.spans.clone(), rec.rounds.clone());
        let outcome = RunOutcomeObs {
            messages: rng.below(100_000),
            pointers: rng.below(100_000),
            ..RunOutcomeObs::default()
        };
        let report = rec.finish(outcome.clone(), &[], &[], &[], &[]).unwrap();

        let mut reg = MetricsRegistry::new();
        assert_eq!(report.phases, phases_then(&spans, &mut reg), "seed {seed}");
        for phase in Phase::ALL {
            let name = format!("span_{}_ns", phase.name());
            assert_eq!(
                report.registry.histogram(&name),
                reg.histogram(&name),
                "seed {seed}"
            );
        }
        assert_eq!(report.workers, workers_then(&spans), "seed {seed}");
        assert_eq!(
            report.registry.gauge("worker_imbalance").map(f64::to_bits),
            worker_imbalance_then(&spans).map(f64::to_bits),
            "seed {seed}"
        );
        let then = assemble_then(&inputs, &rows, &spans, &outcome);
        assert_eq!(
            format!("{:?}", report.profile.as_ref().unwrap()),
            format!("{then:?}"),
            "seed {seed}"
        );
    }

    #[test]
    fn the_fold_matches_the_accounting_it_replaced() {
        let base = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0xF01D);
        for i in 0..256 {
            case(base.wrapping_add(i));
        }
    }
}
