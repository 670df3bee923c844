//! rd-live: the streaming telemetry of a run in progress.
//!
//! While a run executes, its [`Live`] value publishes one
//! [`LiveSnapshot`] per round into a [`LiveBus`] — a seqlock-style
//! double-buffer that HTTP scrape threads read without ever blocking
//! the round loop — judges it with the online monitor, and prints the
//! stderr heartbeat from it. All of it is strictly outside the
//! determinism boundary: snapshots are one-way facts out of the run
//! (the round loop never reads anything back), so a run with a live
//! server attached is bit-identical to a blind one (pinned by
//! `tests/prop_engine_equivalence.rs`).
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

use crate::http::LiveServer;
use crate::monitor::{Alert, AlertLog, AlertRule, MonitorEngine};
use crate::prof::{imbalance, utilization};
use crate::recorder::{DropTally, RunMeta};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One round's worth of live run state, as published to the bus and
/// rendered by `/status` (the archive writer's object, see
/// [`archive::render_status`](crate::archive::render_status)),
/// `/metrics`, the stderr heartbeat, and `rd-inspect watch`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LiveSnapshot {
    /// Run identity: the archive header's.
    pub meta: RunMeta,
    /// Progress.
    pub round: u64,
    pub max_rounds: u64,
    /// Throughput, computed by [`Live`] over a short wall-clock
    /// window (0.0 until the first window closes).
    pub rounds_per_sec: f64,
    pub msgs_per_sec: f64,
    /// Cumulative message totals from the engine's metrics.
    pub messages: u64,
    pub retransmissions: u64,
    /// Cumulative drops by cause.
    pub drops: DropTally,
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
        imbalance(&self.shard_busy_ns).unwrap_or(0.0)
    }

    /// Shard utilization over the last round: total parallel busy time
    /// over `workers × round wall time`, clamped to 1.
    pub fn utilization(&self) -> f64 {
        utilization(&self.shard_busy_ns, self.round_wall_ns).unwrap_or(0.0)
    }

    /// The `/metrics` Prometheus text exposition for this snapshot —
    /// the same conformant format (`# HELP`/`# TYPE` per family, label
    /// values escaped) [`crate::PrometheusSink`] writes at run end,
    /// rendered live instead.
    pub fn render_metrics(&self) -> String {
        use crate::sink::{prom_run_labels, prom_sample, prom_type};
        let labels = prom_run_labels(&self.meta);
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
        for (cause, value) in self.drops.by_cause() {
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

/// Minimum interval between two stderr heartbeat lines.
const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(1);

/// A run's live telemetry, built from its `ObsSpec`'s `live` and
/// `heartbeat` fields: the snapshot bus and its loopback server, the
/// throughput rate window, the online monitor, and the rate-limited
/// stderr heartbeat (round, rounds/s, msgs/s, resident bytes). The
/// driver asks [`due`](Self::due) after each round and hands a due
/// round's facts to [`publish`](Self::publish); [`finish`](Self::finish)
/// publishes the verdict, stops the server and returns the alerts that
/// fired. Throughput is computed here once, so the heartbeat, `/status`
/// and `/metrics` cannot disagree.
pub struct Live {
    /// Run identity, then whatever the last publish filled in.
    snap: LiveSnapshot,
    bus: Option<(Arc<LiveBus>, LiveServer)>,
    monitor: MonitorEngine,
    log: Option<AlertLog>,
    alerts: Vec<Alert>,
    /// When the heartbeat last printed; `None` without a heartbeat.
    heartbeat: Option<Instant>,
    /// Where the rate window opened: the instant, round and message
    /// count.
    window: (Instant, u64, u64),
}

impl Live {
    /// The live telemetry of the run `meta` names, or `None` when
    /// neither a live spec nor a heartbeat is asked for.
    /// `knowledge_target` is the known-id total that counts as
    /// converged. A bind failure degrades to a warning: the run goes
    /// ahead unserved.
    pub fn start(
        spec: Option<&LiveSpec>,
        heartbeat: bool,
        meta: &RunMeta,
        max_rounds: u64,
        knowledge_target: u64,
    ) -> Option<Live> {
        if spec.is_none() && !heartbeat {
            return None;
        }
        let bus = spec.and_then(|spec| {
            let addr = spec.addr.as_deref().unwrap_or("127.0.0.1:0");
            let bus = Arc::new(LiveBus::new());
            match LiveServer::start(addr, bus.clone()) {
                Ok(server) => {
                    eprintln!("[rd-live] serving http://{}", server.addr());
                    Some((bus, server))
                }
                Err(err) => {
                    eprintln!("warning: rd-live failed to bind {addr}: {err}");
                    None
                }
            }
        });
        let snap = LiveSnapshot {
            meta: meta.clone(),
            max_rounds,
            knowledge_target,
            ..LiveSnapshot::default()
        };
        Some(Live {
            snap,
            bus,
            monitor: MonitorEngine::new(spec.map_or_else(Vec::new, |s| s.rules.clone())),
            log: spec.and_then(|s| s.log.clone()),
            alerts: Vec::new(),
            heartbeat: heartbeat.then(Instant::now),
            window: (Instant::now(), 0, 0),
        })
    }

    /// Whether the run state after `round` should be published: every
    /// round while a server is up, at the heartbeat's rate otherwise,
    /// and never the initial state.
    pub fn due(&self, round: u64) -> bool {
        round > 0 && (self.bus.is_some() || self.heartbeat_due())
    }

    fn heartbeat_due(&self) -> bool {
        self.heartbeat
            .is_some_and(|last| last.elapsed() >= HEARTBEAT_INTERVAL)
    }

    /// Publishes a due round: `fill` writes the run's state into the
    /// snapshot, the monitor judges it (firings go to stderr and the
    /// alert log), throughput is stamped over the rate window, and the
    /// snapshot goes to the bus — never blocking: a contended publish
    /// is skipped, latest wins — and, once its interval has passed, to
    /// the heartbeat line.
    pub fn publish(&mut self, fill: impl FnOnce(&mut LiveSnapshot)) {
        fill(&mut self.snap);
        for alert in self.monitor.evaluate(&self.snap) {
            eprintln!("[rd-live] ALERT {}: {}", alert.rule, alert.message);
            if let Some(log) = &self.log {
                log.push(alert.clone());
            }
            self.alerts.push(alert);
        }
        self.snap.alerts = self.alerts.len() as u64;
        self.stamp_rates(RATE_WINDOW);
        if let Some((bus, _)) = &self.bus {
            bus.publish(&self.snap);
        }
        if self.heartbeat_due() {
            let s = &self.snap;
            eprintln!(
                "[{}] round {} | {:.1} rounds/s | {:.0} msgs/s | resident {:.1} MiB",
                s.meta.algorithm,
                s.round,
                s.rounds_per_sec,
                s.msgs_per_sec,
                s.resident_bytes as f64 / (1024.0 * 1024.0)
            );
            self.heartbeat = Some(Instant::now());
        }
    }

    /// Ends the run: with a server up, the final snapshot — `fill`ed
    /// like any other and marked finished with `verdict` — lands on the
    /// bus (blocking: the terminal state must not be dropped) before
    /// the server stops. Returns every alert the monitor fired, in
    /// firing order.
    pub fn finish(mut self, verdict: &str, fill: impl FnOnce(&mut LiveSnapshot)) -> Vec<Alert> {
        if let Some((bus, server)) = self.bus.take() {
            fill(&mut self.snap);
            self.snap.finished = true;
            self.snap.verdict = verdict.to_string();
            self.stamp_rates(Duration::from_millis(1));
            bus.publish_blocking(&self.snap);
            server.shutdown();
        }
        self.alerts
    }

    /// Recomputes the throughput rates once at least `min_window` has
    /// passed since the window opened, and opens the next window.
    fn stamp_rates(&mut self, min_window: Duration) {
        let (opened, round, messages) = self.window;
        let elapsed = opened.elapsed();
        if elapsed >= min_window {
            let secs = elapsed.as_secs_f64();
            self.snap.rounds_per_sec = self.snap.round.saturating_sub(round) as f64 / secs;
            self.snap.msgs_per_sec = self.snap.messages.saturating_sub(messages) as f64 / secs;
            self.window = (Instant::now(), self.snap.round, self.snap.messages);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{parse_status, render_status};

    fn snap(round: u64) -> LiveSnapshot {
        LiveSnapshot {
            meta: RunMeta {
                algorithm: "hm".into(),
                topology: "k-out-3".into(),
                engine: "sharded:4".into(),
                n: 1024,
                seed: 42,
                workers: 4,
                latency_model: None,
            },
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
    fn status_round_trips_through_the_archive_reader() {
        let mut s = snap(7);
        s.meta.seed = u64::MAX;
        s.meta.latency_model = Some("uniform:1:6".into());
        s.drops.partition = 3;
        s.verdict = "quote\" and \\".into();
        let text = render_status(&s);
        for derived in [
            "\"convergence_pct\":",
            "\"imbalance\":1.6",
            "\"utilization\":0.5",
        ] {
            assert!(text.contains(derived), "{derived} missing: {text}");
        }
        assert!(text.contains("\"dropped_partition\":3"), "{text}");
        assert_eq!(parse_status(&text), Ok(s));
        assert!(parse_status("[]").is_err());
        assert!(parse_status("{\"error\":\"no snapshot published yet\"}").is_err());
    }

    fn meta() -> RunMeta {
        RunMeta {
            algorithm: "hm".into(),
            topology: "k-out-3".into(),
            n: 1024,
            seed: 42,
            engine: "sequential".into(),
            workers: 1,
            latency_model: None,
        }
    }

    #[test]
    fn nothing_to_stream_builds_nothing() {
        assert!(Live::start(None, false, &meta(), 10, 100).is_none());
    }

    #[test]
    fn a_heartbeat_only_feed_publishes_at_its_own_rate() {
        let mut live = Live::start(None, true, &meta(), 10, 100).unwrap();
        assert!(!live.due(0), "the initial state is never published");
        assert!(!live.due(5), "a fresh heartbeat is not due");
        live.heartbeat = Some(Instant::now() - HEARTBEAT_INTERVAL);
        assert!(live.due(5));
        live.publish(|s| s.round = 5);
        assert!(!live.due(6), "a printed line resets the interval");
        assert_eq!(
            (
                live.snap.meta.algorithm.as_str(),
                live.snap.knowledge_target
            ),
            ("hm", 100)
        );
    }

    #[test]
    fn rates_are_stamped_over_the_window() {
        let mut live = Live::start(None, true, &meta(), 10, 100).unwrap();
        live.publish(|s| {
            s.round = 1;
            s.messages = 100;
        });
        assert_eq!(live.snap.rounds_per_sec, 0.0, "no window elapsed yet");
        live.window.0 = Instant::now() - Duration::from_secs(1);
        live.publish(|s| {
            s.round = 10;
            s.messages = 1000;
        });
        assert!(
            live.snap.rounds_per_sec > 0.0,
            "window closed, rate computed"
        );
        assert!(live.snap.msgs_per_sec > live.snap.rounds_per_sec);
    }

    #[test]
    fn a_served_feed_fires_alerts_and_lands_the_verdict() {
        let log = AlertLog::new();
        let spec = LiveSpec::new()
            .with_addr("127.0.0.1:0")
            .with_rules(vec![AlertRule::Stall { window: 2 }])
            .with_log(log.clone());
        let mut live = Live::start(Some(&spec), false, &meta(), 10, 100).unwrap();
        let bus = live.bus.as_ref().expect("loopback binds").0.clone();
        assert!(live.due(1), "a served feed publishes every round");
        live.publish(|s| {
            s.round = 3;
            s.last_progress = 1;
        });
        assert_eq!(bus.read().unwrap().alerts, 1);
        assert_eq!(log.snapshot().len(), 1);
        let alerts = live.finish("complete", |s| s.round = 4);
        let last = bus.read().unwrap();
        assert!(last.finished);
        assert_eq!((last.round, last.verdict.as_str()), (4, "complete"));
        assert_eq!(alerts, log.snapshot());
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
