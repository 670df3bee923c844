//! rd-live: the streaming telemetry bus.
//!
//! While a run executes, the driver publishes one [`LiveSnapshot`] per
//! round into a [`LiveBus`] — a seqlock-style double-buffer that HTTP
//! scrape threads read without ever blocking the round loop. The bus is
//! strictly outside the determinism boundary: snapshots are one-way
//! facts out of the run (the round loop never reads anything back), so
//! a run with a live server attached is bit-identical to a blind one
//! (pinned by `tests/prop_engine_equivalence.rs`).
//!
//! The writer side is *lock-light*, not lock-free: a true seqlock would
//! read the snapshot's heap payloads (`Vec`, `String`) through torn
//! pointers, which is undefined behaviour in safe Rust. Instead the bus
//! keeps two `Mutex`-guarded slots and an atomic index: the writer
//! `try_lock`s the back slot — if a slow reader still holds it the
//! publish is *skipped* (latest-wins; the next round overwrites it) —
//! then flips the index. Readers briefly lock the front slot and clone.
//! The round loop therefore never waits on a reader, which is the
//! property the name "seqlock-style" is claiming.

use crate::json::{escape, fmt_f64};
use crate::monitor::AlertRule;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One round's worth of live run state, as published to the bus and
/// rendered by `/status`, `/metrics`, the stderr heartbeat, and
/// `rd-inspect watch`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LiveSnapshot {
    /// Run identity (the same fields the archive header carries).
    pub algorithm: String,
    pub topology: String,
    pub engine: String,
    pub n: u64,
    pub seed: u64,
    pub workers: u64,
    /// Progress.
    pub round: u64,
    pub max_rounds: u64,
    /// Throughput, computed by the [`LivePublisher`] over a short
    /// wall-clock window (0.0 until the first window closes).
    pub rounds_per_sec: f64,
    pub msgs_per_sec: f64,
    /// Cumulative message totals from the engine's metrics.
    pub messages: u64,
    pub retransmissions: u64,
    /// Cumulative drops by cause.
    pub dropped_coin: u64,
    pub dropped_crash: u64,
    pub dropped_partition: u64,
    pub dropped_link: u64,
    pub dropped_suppression: u64,
    /// Convergence: the live population's total known identifiers, the
    /// target it converges towards (live² under the default completion
    /// notion), and the last round the total still grew.
    pub knowledge_total: u64,
    pub knowledge_target: u64,
    pub last_progress: u64,
    /// Parallel-phase busy time per worker over the last round, and the
    /// round's wall time (empty/0 when the run is not observed).
    pub shard_busy_ns: Vec<u64>,
    pub round_wall_ns: u64,
    /// Memory: resident knowledge bytes plus buffer-pool high water.
    pub resident_bytes: u64,
    pub pool_bytes: u64,
    /// Alerts fired so far by the online monitor.
    pub alerts: u64,
    /// Set on the final publish, together with the verdict name.
    pub finished: bool,
    pub verdict: String,
}

impl LiveSnapshot {
    /// Convergence progress in percent, clamped to 100 (crashed nodes
    /// retain knowledge the live target no longer counts, so the raw
    /// ratio can overshoot).
    pub fn convergence_pct(&self) -> f64 {
        if self.knowledge_target == 0 {
            return 0.0;
        }
        (self.knowledge_total as f64 / self.knowledge_target as f64 * 100.0).min(100.0)
    }

    /// Per-round shard imbalance: max/mean of per-worker parallel busy
    /// time (1.0 = perfectly even; 0.0 when fewer than two shards
    /// reported work).
    pub fn imbalance(&self) -> f64 {
        let busy = self.shard_busy_ns.to_vec();
        if busy.len() < 2 {
            return 0.0;
        }
        let max = busy.iter().copied().max().unwrap_or(0) as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    }

    /// Shard utilization over the last round: total parallel busy time
    /// over `workers × round wall time`, clamped to 1.
    pub fn utilization(&self) -> f64 {
        let lanes = self.shard_busy_ns.len() as u64;
        if lanes == 0 || self.round_wall_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self.shard_busy_ns.iter().sum();
        (busy as f64 / (lanes * self.round_wall_ns) as f64).min(1.0)
    }

    /// Total drops across every cause.
    pub fn dropped(&self) -> u64 {
        self.dropped_coin
            + self.dropped_crash
            + self.dropped_partition
            + self.dropped_link
            + self.dropped_suppression
    }

    /// The `/status` JSON document. Serde-free by construction — the
    /// matching parser is [`crate::json::Json::parse`], which
    /// `rd-inspect watch` uses, so this round-trips without any
    /// external dependency.
    pub fn status_json(&self) -> String {
        let mut out = String::with_capacity(640);
        let _ = write!(
            out,
            "{{\"algorithm\":{},\"topology\":{},\"engine\":{},\"n\":{},\"seed\":{},\"workers\":{}",
            escape(&self.algorithm),
            escape(&self.topology),
            escape(&self.engine),
            self.n,
            self.seed,
            self.workers
        );
        let _ = write!(
            out,
            ",\"round\":{},\"max_rounds\":{},\"rounds_per_sec\":{},\"msgs_per_sec\":{}",
            self.round,
            self.max_rounds,
            fmt_f64(self.rounds_per_sec),
            fmt_f64(self.msgs_per_sec)
        );
        let _ = write!(
            out,
            ",\"messages\":{},\"retransmissions\":{}",
            self.messages, self.retransmissions
        );
        let _ = write!(
            out,
            ",\"dropped\":{{\"coin\":{},\"crash\":{},\"partition\":{},\"link\":{},\"suppression\":{}}}",
            self.dropped_coin,
            self.dropped_crash,
            self.dropped_partition,
            self.dropped_link,
            self.dropped_suppression
        );
        let _ = write!(
            out,
            ",\"knowledge_total\":{},\"knowledge_target\":{},\"convergence_pct\":{},\"last_progress\":{}",
            self.knowledge_total,
            self.knowledge_target,
            fmt_f64(self.convergence_pct()),
            self.last_progress
        );
        let busy = self
            .shard_busy_ns
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(
            out,
            ",\"shard_busy_ns\":[{busy}],\"round_wall_ns\":{},\"imbalance\":{},\"utilization\":{}",
            self.round_wall_ns,
            fmt_f64(self.imbalance()),
            fmt_f64(self.utilization())
        );
        let _ = write!(
            out,
            ",\"resident_bytes\":{},\"pool_bytes\":{},\"alerts\":{},\"finished\":{},\"verdict\":{}}}",
            self.resident_bytes,
            self.pool_bytes,
            self.alerts,
            self.finished,
            escape(&self.verdict)
        );
        out
    }

    /// The `/metrics` Prometheus text exposition for this snapshot —
    /// the same conformant format (`# HELP`/`# TYPE` per family, label
    /// values escaped) [`crate::PrometheusSink`] writes at run end,
    /// rendered live instead.
    pub fn render_metrics(&self) -> String {
        use crate::sink::{prom_labels, prom_sample, prom_type};
        let labels = prom_labels(&[
            ("algorithm", &self.algorithm),
            ("topology", &self.topology),
            ("engine", &self.engine),
            ("n", &self.n.to_string()),
            ("seed", &self.seed.to_string()),
        ]);
        let mut out = String::with_capacity(2048);
        let gauges: &[(&str, &str, f64)] = &[
            (
                "rd_live_round",
                "Current round of the run.",
                self.round as f64,
            ),
            (
                "rd_live_rounds_per_sec",
                "Round throughput over the publisher's rate window.",
                self.rounds_per_sec,
            ),
            (
                "rd_live_msgs_per_sec",
                "Message throughput over the publisher's rate window.",
                self.msgs_per_sec,
            ),
            (
                "rd_live_convergence_pct",
                "Live-population knowledge as a percentage of its target.",
                self.convergence_pct(),
            ),
            (
                "rd_live_knowledge_total",
                "Total identifiers known across all nodes.",
                self.knowledge_total as f64,
            ),
            (
                "rd_live_last_progress_round",
                "Last round in which total knowledge still grew.",
                self.last_progress as f64,
            ),
            (
                "rd_live_shard_imbalance",
                "Max/mean per-worker parallel busy time over the last round.",
                self.imbalance(),
            ),
            (
                "rd_live_shard_utilization",
                "Parallel busy time over workers x wall time, last round.",
                self.utilization(),
            ),
            (
                "rd_live_resident_bytes",
                "Resident knowledge bytes across all nodes.",
                self.resident_bytes as f64,
            ),
            (
                "rd_live_pool_bytes",
                "Buffer-pool high-water bytes.",
                self.pool_bytes as f64,
            ),
            (
                "rd_live_finished",
                "1 once the run has finished, 0 while it executes.",
                if self.finished { 1.0 } else { 0.0 },
            ),
        ];
        for &(name, help, value) in gauges {
            prom_type(&mut out, name, help, "gauge");
            prom_sample(&mut out, name, &labels, value);
        }
        let counters: &[(&str, &str, u64)] = &[
            (
                "rd_live_messages_total",
                "Messages sent since the run started.",
                self.messages,
            ),
            (
                "rd_live_retransmissions_total",
                "Retransmission attempts by the reliable-delivery layer.",
                self.retransmissions,
            ),
            (
                "rd_live_alerts_total",
                "Alerts fired by the online monitor.",
                self.alerts,
            ),
        ];
        for &(name, help, value) in counters {
            prom_type(&mut out, name, help, "counter");
            prom_sample(&mut out, name, &labels, value as f64);
        }
        // Drops keyed by cause carry an extra label on the same family.
        prom_type(
            &mut out,
            "rd_live_dropped_total",
            "Messages lost to fault injection, by cause.",
            "counter",
        );
        for (cause, value) in [
            ("coin", self.dropped_coin),
            ("crash", self.dropped_crash),
            ("partition", self.dropped_partition),
            ("link", self.dropped_link),
            ("suppression", self.dropped_suppression),
        ] {
            let mut with_cause = labels.clone();
            with_cause.push_str(",cause=\"");
            with_cause.push_str(cause);
            with_cause.push('"');
            prom_sample(&mut out, "rd_live_dropped_total", &with_cause, value as f64);
        }
        prom_type(
            &mut out,
            "rd_live_shard_busy_ns",
            "Parallel-phase busy nanoseconds per worker, last round.",
            "gauge",
        );
        for (shard, busy) in self.shard_busy_ns.iter().enumerate() {
            let mut with_shard = labels.clone();
            let _ = write!(with_shard, ",shard=\"{shard}\"");
            prom_sample(&mut out, "rd_live_shard_busy_ns", &with_shard, *busy as f64);
        }
        out
    }
}

/// How a run's live telemetry is attached: where the loopback server
/// binds, which alert rules the online monitor evaluates, and an
/// optional shared log the caller can drain after the run (the
/// `scenario_runner --alerts-fatal` side-channel — alerts never touch
/// the deterministic `RunReport`).
#[derive(Clone, Debug, Default)]
pub struct LiveSpec {
    /// Bind address for the scrape endpoint; `None` means
    /// `127.0.0.1:0` (loopback, ephemeral port, printed to stderr).
    pub addr: Option<String>,
    /// Alert rules the monitor evaluates against each snapshot
    /// (empty disables the monitor).
    pub rules: Vec<AlertRule>,
    /// Shared alert log, cloned by the caller before the run.
    pub log: Option<crate::monitor::AlertLog>,
}

impl LiveSpec {
    /// A live spec with the default bind address and the default,
    /// deliberately generous alert rules.
    pub fn new() -> Self {
        LiveSpec {
            addr: None,
            rules: AlertRule::defaults(),
            log: None,
        }
    }

    /// Overrides the bind address (e.g. `127.0.0.1:19117`).
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = Some(addr.into());
        self
    }

    /// Replaces the alert rules.
    pub fn with_rules(mut self, rules: Vec<AlertRule>) -> Self {
        self.rules = rules;
        self
    }

    /// Attaches a shared alert log.
    pub fn with_log(mut self, log: crate::monitor::AlertLog) -> Self {
        self.log = Some(log);
        self
    }
}

/// The double-buffered snapshot bus. See the module docs for why this
/// is two mutexed slots rather than a hand-rolled seqlock.
#[derive(Debug, Default)]
pub struct LiveBus {
    slots: [Mutex<LiveSnapshot>; 2],
    /// Index of the slot readers should take.
    current: AtomicUsize,
    /// Publish count; 0 means nothing has been published yet.
    version: AtomicU64,
}

impl LiveBus {
    /// An empty bus (readers see `None` until the first publish).
    pub fn new() -> Self {
        LiveBus::default()
    }

    /// Publishes a snapshot without ever blocking: writes the back
    /// slot and flips the index. Returns `false` (snapshot dropped,
    /// latest-wins) if a reader still holds the back slot.
    pub fn publish(&self, snap: &LiveSnapshot) -> bool {
        let back = 1 - self.current.load(Ordering::Acquire);
        let Ok(mut guard) = self.slots[back].try_lock() else {
            return false;
        };
        guard.clone_from(snap);
        drop(guard);
        self.current.store(back, Ordering::Release);
        self.version.fetch_add(1, Ordering::Release);
        true
    }

    /// Publishes, waiting for the back slot if a reader holds it — for
    /// the final snapshot of a run, which must not be dropped.
    pub fn publish_blocking(&self, snap: &LiveSnapshot) {
        let back = 1 - self.current.load(Ordering::Acquire);
        let mut guard = self.slots[back]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.clone_from(snap);
        drop(guard);
        self.current.store(back, Ordering::Release);
        self.version.fetch_add(1, Ordering::Release);
    }

    /// The latest published snapshot, or `None` before the first
    /// publish. Readers hold the front-slot lock only long enough to
    /// clone.
    pub fn read(&self) -> Option<LiveSnapshot> {
        if self.version.load(Ordering::Acquire) == 0 {
            return None;
        }
        let front = self.current.load(Ordering::Acquire);
        let guard = self.slots[front]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Some(guard.clone())
    }

    /// Number of snapshots published so far.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

/// Minimum wall-clock window over which throughput rates are computed
/// — short enough to track regime changes, long enough that a
/// microsecond round does not turn the rate into noise.
const RATE_WINDOW: Duration = Duration::from_millis(200);

/// Computes throughput rates and pushes snapshots to a [`LiveBus`].
///
/// This is the *single* owner of wall-clock throughput accounting: the
/// stderr [`Heartbeat`](crate::Heartbeat) renders the same snapshot
/// rather than recomputing its own rounds/s (it used to).
pub struct LivePublisher {
    bus: Option<Arc<LiveBus>>,
    window_start: Instant,
    window_round: u64,
    window_messages: u64,
    rounds_per_sec: f64,
    msgs_per_sec: f64,
}

impl LivePublisher {
    /// A standalone publisher (rate computation only, no bus) — what a
    /// heartbeat-only run uses.
    pub fn new() -> Self {
        LivePublisher {
            bus: None,
            window_start: Instant::now(),
            window_round: 0,
            window_messages: 0,
            rounds_per_sec: 0.0,
            msgs_per_sec: 0.0,
        }
    }

    /// A publisher feeding `bus`.
    pub fn with_bus(bus: Arc<LiveBus>) -> Self {
        let mut p = LivePublisher::new();
        p.bus = Some(bus);
        p
    }

    /// Stamps throughput rates into `snap` and publishes it (non-
    /// blocking; a contended publish is skipped, latest-wins). Called
    /// once per round.
    pub fn publish(&mut self, snap: &mut LiveSnapshot) {
        let elapsed = self.window_start.elapsed();
        if elapsed >= RATE_WINDOW {
            let secs = elapsed.as_secs_f64().max(1e-9);
            self.rounds_per_sec = snap.round.saturating_sub(self.window_round) as f64 / secs;
            self.msgs_per_sec = snap.messages.saturating_sub(self.window_messages) as f64 / secs;
            self.window_start = Instant::now();
            self.window_round = snap.round;
            self.window_messages = snap.messages;
        }
        snap.rounds_per_sec = self.rounds_per_sec;
        snap.msgs_per_sec = self.msgs_per_sec;
        if let Some(bus) = &self.bus {
            bus.publish(snap);
        }
    }

    /// Final publish at run end: forces a rate computation over
    /// whatever window has elapsed and blocks until the snapshot lands
    /// (the terminal state must not be dropped).
    pub fn publish_final(&mut self, snap: &mut LiveSnapshot) {
        let secs = self.window_start.elapsed().as_secs_f64();
        if secs > 1e-3 {
            self.rounds_per_sec = snap.round.saturating_sub(self.window_round) as f64 / secs;
            self.msgs_per_sec = snap.messages.saturating_sub(self.window_messages) as f64 / secs;
        }
        snap.rounds_per_sec = self.rounds_per_sec;
        snap.msgs_per_sec = self.msgs_per_sec;
        if let Some(bus) = &self.bus {
            bus.publish_blocking(snap);
        }
    }
}

impl Default for LivePublisher {
    fn default() -> Self {
        LivePublisher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn snap(round: u64) -> LiveSnapshot {
        LiveSnapshot {
            algorithm: "hm".into(),
            topology: "k-out-3".into(),
            engine: "sharded:4".into(),
            n: 1024,
            seed: 42,
            workers: 4,
            round,
            max_rounds: 1000,
            messages: round * 100,
            knowledge_total: round * 10,
            knowledge_target: 1 << 20,
            shard_busy_ns: vec![100, 200, 300, 400],
            round_wall_ns: 500,
            resident_bytes: 1 << 20,
            ..LiveSnapshot::default()
        }
    }

    #[test]
    fn bus_read_sees_latest_publish() {
        let bus = LiveBus::new();
        assert_eq!(bus.read(), None, "empty bus reads None");
        assert!(bus.publish(&snap(1)));
        assert!(bus.publish(&snap(2)));
        let got = bus.read().unwrap();
        assert_eq!(got.round, 2);
        assert_eq!(bus.version(), 2);
    }

    #[test]
    fn publish_skips_when_back_slot_is_held() {
        let bus = LiveBus::new();
        assert!(bus.publish(&snap(1)));
        // A reader camping on the *back* slot blocks exactly one
        // publish; the front slot (current) stays readable.
        let back = 1 - bus.current.load(Ordering::Acquire);
        let _guard = bus.slots[back].lock().unwrap();
        assert!(!bus.publish(&snap(2)), "contended publish must skip");
        assert_eq!(bus.version(), 1, "skipped publish bumps no version");
    }

    #[test]
    fn derived_ratios() {
        let s = snap(5);
        assert!((s.imbalance() - 400.0 / 250.0).abs() < 1e-9);
        assert!((s.utilization() - 0.5).abs() < 1e-9);
        assert!(s.convergence_pct() > 0.0 && s.convergence_pct() < 100.0);
        let mut done = snap(5);
        done.knowledge_total = done.knowledge_target * 2;
        assert_eq!(done.convergence_pct(), 100.0, "overshoot clamps");
    }

    #[test]
    fn status_json_round_trips_through_the_serde_free_parser() {
        let s = snap(7);
        let doc = Json::parse(&s.status_json()).expect("valid JSON");
        assert_eq!(doc.get("round").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("algorithm").and_then(Json::as_str), Some("hm"));
        assert_eq!(
            doc.get("dropped")
                .and_then(|d| d.get("coin"))
                .and_then(Json::as_u64),
            Some(0)
        );
        let busy = doc.get("shard_busy_ns").and_then(Json::as_arr).unwrap();
        assert_eq!(busy.len(), 4);
        assert_eq!(busy[3].as_u64(), Some(400));
        assert_eq!(doc.get("finished").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn publisher_computes_rates_over_a_window() {
        let bus = Arc::new(LiveBus::new());
        let mut publisher = LivePublisher::with_bus(bus.clone());
        let mut s = snap(1);
        publisher.publish(&mut s);
        assert_eq!(s.rounds_per_sec, 0.0, "no window elapsed yet");
        // Force the window shut.
        publisher.window_start = Instant::now() - Duration::from_secs(1);
        publisher.window_round = 0;
        publisher.window_messages = 0;
        let mut s = snap(10);
        publisher.publish(&mut s);
        assert!(s.rounds_per_sec > 0.0, "window closed, rate computed");
        assert!(s.msgs_per_sec > s.rounds_per_sec);
        assert_eq!(bus.read().unwrap().round, 10);
    }

    #[test]
    fn final_publish_blocks_and_lands() {
        let bus = Arc::new(LiveBus::new());
        let mut publisher = LivePublisher::with_bus(bus.clone());
        let mut s = snap(3);
        s.finished = true;
        s.verdict = "complete".into();
        publisher.publish_final(&mut s);
        let got = bus.read().unwrap();
        assert!(got.finished);
        assert_eq!(got.verdict, "complete");
    }

    #[test]
    fn metrics_rendering_is_conformant() {
        let text = snap(3).render_metrics();
        crate::sink::prom_check_conformance(&text).expect("conformant exposition");
        assert!(text.contains("# TYPE rd_live_round gauge"));
        assert!(text.contains("# HELP rd_live_dropped_total"));
        assert!(text.contains("cause=\"partition\""));
        assert!(text.contains("shard=\"3\""));
    }
}
