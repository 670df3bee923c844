//! Online SLO monitors: declarative [`AlertRule`]s evaluated against
//! each [`LiveSnapshot`](crate::LiveSnapshot) as the run executes.
//!
//! Fired alerts become structured `alert` records in the run archive
//! and land in the shared [`AlertLog`] side-channel so
//! `scenario_runner --alerts-fatal` can exit non-zero — they NEVER
//! touch the deterministic `RunReport`, because two of the rules
//! (imbalance, RSS) observe wall-clock- and host-dependent facts.
//!
//! Each rule *latches*: it fires at most once per run, at the first
//! snapshot that violates it, so a sustained violation produces one
//! attributable record instead of one per round.

use crate::live::LiveSnapshot;
use std::sync::{Arc, Mutex};

/// Minimum send attempts (`dropped + messages`) before the drop-rate
/// rule is evaluated: a loss ratio over a double-digit sample is
/// noise, not an SLO violation.
pub const DROP_RATE_MIN_ATTEMPTS: u64 = 1_000;

/// One declarative alert rule.
#[derive(Clone, Debug, PartialEq)]
pub enum AlertRule {
    /// Fires when total knowledge has not grown for `window`
    /// consecutive rounds: the snapshot's round minus its
    /// `last_progress`, the driver's one progress tracker
    /// (deterministic — a pure function of the knowledge series).
    Stall {
        /// Rounds without knowledge growth before firing.
        window: u64,
    },
    /// Fires when the cumulative fraction of send *attempts* lost —
    /// `dropped / (dropped + messages)`, where `dropped` counts every
    /// failed attempt including retransmissions — exceeds `max_ratio`
    /// (deterministic). Evaluated only once at least
    /// [`DROP_RATE_MIN_ATTEMPTS`] attempts have been made, so a handful
    /// of unlucky early coins cannot trip it.
    DropRate {
        /// Ceiling on `dropped / (dropped + messages)`.
        max_ratio: f64,
    },
    /// Fires when the per-round shard imbalance (max/mean parallel
    /// busy time) exceeds `max_factor` for `window` consecutive rounds
    /// (host-dependent: reads wall clocks).
    Imbalance {
        /// Imbalance ceiling (1.0 = perfectly even shards).
        max_factor: f64,
        /// Consecutive violating rounds before firing — a single slow
        /// round on a noisy host is not an SLO violation.
        window: u64,
    },
    /// Fires when resident knowledge plus pool high-water exceeds
    /// `max_bytes` (host-dependent).
    RssBudget {
        /// Memory ceiling in bytes.
        max_bytes: u64,
    },
}

impl AlertRule {
    /// The rule's stable name (the archive record's `rule` field).
    pub fn name(&self) -> &'static str {
        match self {
            AlertRule::Stall { .. } => "stall",
            AlertRule::DropRate { .. } => "drop-rate",
            AlertRule::Imbalance { .. } => "imbalance",
            AlertRule::RssBudget { .. } => "rss-budget",
        }
    }

    /// The default monitor ruleset: one of each, with deliberately
    /// generous thresholds. A healthy run fires nothing — which keeps
    /// live-attached archives identical to blind ones — while a run
    /// that is genuinely wedged, drowning, skewed, or leaking still
    /// trips the matching rule.
    pub fn defaults() -> Vec<AlertRule> {
        vec![
            AlertRule::Stall { window: 10_000 },
            // 0.95 of *attempts*: the adversarial churn campaign peaks
            // at ~0.92 mid-regime (suppression drops most retransmit
            // attempts) and still completes, so the drowning ceiling
            // must sit above what a passing run reaches.
            AlertRule::DropRate { max_ratio: 0.95 },
            AlertRule::Imbalance {
                max_factor: 50.0,
                window: 64,
            },
            AlertRule::RssBudget {
                max_bytes: 64 << 30,
            },
        ]
    }
}

/// One fired alert.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Alert {
    /// Rule name (`stall`, `drop-rate`, `imbalance`, `rss-budget`).
    pub rule: String,
    /// Round at which the rule fired.
    pub round: u64,
    /// The observed value that violated the threshold.
    pub value: f64,
    /// The threshold it violated.
    pub threshold: f64,
    /// Human-readable one-liner.
    pub message: String,
}

/// Shared, thread-safe alert collection: the driver pushes, the caller
/// (e.g. `scenario_runner`) drains after the run.
#[derive(Clone, Debug, Default)]
pub struct AlertLog(Arc<Mutex<Vec<Alert>>>);

impl AlertLog {
    /// An empty log.
    pub fn new() -> Self {
        AlertLog::default()
    }

    /// Appends one alert.
    pub fn push(&self, alert: Alert) {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(alert);
    }

    /// A copy of everything fired so far.
    pub fn snapshot(&self) -> Vec<Alert> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

/// Per-rule evaluation state.
struct RuleState {
    rule: AlertRule,
    fired: bool,
    /// Consecutive violating rounds (windowed rules).
    streak: u64,
}

/// Evaluates a ruleset against the per-round snapshot stream.
pub(crate) struct MonitorEngine {
    rules: Vec<RuleState>,
}

impl MonitorEngine {
    /// A monitor over `rules`.
    pub(crate) fn new(rules: Vec<AlertRule>) -> Self {
        MonitorEngine {
            rules: rules
                .into_iter()
                .map(|rule| RuleState {
                    rule,
                    fired: false,
                    streak: 0,
                })
                .collect(),
        }
    }

    /// Evaluates every rule against `snap`; returns the alerts that
    /// fired *this* round (each rule latches after its first fire).
    pub(crate) fn evaluate(&mut self, snap: &LiveSnapshot) -> Vec<Alert> {
        let mut fired = Vec::new();
        for state in &mut self.rules {
            if state.fired {
                continue;
            }
            let alert = match state.rule {
                AlertRule::Stall { window } => {
                    let stagnant = snap.round.saturating_sub(snap.last_progress);
                    (stagnant >= window).then(|| Alert {
                        rule: "stall".into(),
                        round: snap.round,
                        value: stagnant as f64,
                        threshold: window as f64,
                        message: format!(
                            "no knowledge growth for {stagnant} rounds (window {window}); \
                             last progress at round {}",
                            snap.last_progress
                        ),
                    })
                }
                AlertRule::DropRate { max_ratio } => {
                    let dropped = snap.drops.total();
                    let attempts = dropped + snap.messages;
                    let ratio = dropped as f64 / attempts.max(1) as f64;
                    (attempts >= DROP_RATE_MIN_ATTEMPTS && ratio > max_ratio).then(|| Alert {
                        rule: "drop-rate".into(),
                        round: snap.round,
                        value: ratio,
                        threshold: max_ratio,
                        message: format!(
                            "drop rate {ratio:.3} exceeds ceiling {max_ratio:.3} \
                             ({} of {} send attempts lost)",
                            dropped, attempts
                        ),
                    })
                }
                AlertRule::Imbalance { max_factor, window } => {
                    let imbalance = snap.imbalance();
                    if imbalance > max_factor {
                        state.streak += 1;
                    } else {
                        state.streak = 0;
                    }
                    (state.streak >= window).then(|| Alert {
                        rule: "imbalance".into(),
                        round: snap.round,
                        value: imbalance,
                        threshold: max_factor,
                        message: format!(
                            "shard imbalance {imbalance:.2} above ceiling {max_factor:.2} \
                             for {} consecutive rounds",
                            state.streak
                        ),
                    })
                }
                AlertRule::RssBudget { max_bytes } => {
                    let rss = snap.resident_bytes + snap.pool_bytes;
                    (rss > max_bytes).then(|| Alert {
                        rule: "rss-budget".into(),
                        round: snap.round,
                        value: rss as f64,
                        threshold: max_bytes as f64,
                        message: format!("resident + pool bytes {rss} exceed budget {max_bytes}"),
                    })
                }
            };
            if let Some(alert) = alert {
                state.fired = true;
                fired.push(alert);
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The run state after `round`, with knowledge last growing at
    /// `last_progress`.
    fn snap(round: u64, last_progress: u64) -> LiveSnapshot {
        LiveSnapshot {
            round,
            messages: 100 * round,
            last_progress,
            ..LiveSnapshot::default()
        }
    }

    #[test]
    fn stall_fires_once_after_the_window_and_latches() {
        let mut mon = MonitorEngine::new(vec![AlertRule::Stall { window: 3 }]);
        assert!(mon.evaluate(&snap(1, 1)).is_empty());
        assert!(mon.evaluate(&snap(2, 2)).is_empty(), "still growing");
        for r in 3..5 {
            assert!(mon.evaluate(&snap(r, 2)).is_empty(), "inside window");
        }
        let fired = mon.evaluate(&snap(5, 2));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "stall");
        assert_eq!(fired[0].round, 5);
        assert_eq!(fired[0].threshold, 3.0);
        assert!(fired[0].message.contains("last progress at round 2"));
        assert!(mon.evaluate(&snap(6, 2)).is_empty(), "latched");
    }

    #[test]
    fn stall_resets_when_knowledge_grows_again() {
        let mut mon = MonitorEngine::new(vec![AlertRule::Stall { window: 4 }]);
        for r in 1..5 {
            assert!(mon.evaluate(&snap(r, 1)).is_empty());
        }
        // Growth at round 5 resets the stagnation clock.
        for r in 5..9 {
            assert!(mon.evaluate(&snap(r, 5)).is_empty());
        }
        assert_eq!(mon.evaluate(&snap(9, 5)).len(), 1);
    }

    #[test]
    fn drop_rate_fires_on_the_attempt_fraction() {
        let mut mon = MonitorEngine::new(vec![AlertRule::DropRate { max_ratio: 0.5 }]);
        let mut s = snap(1, 10);
        s.messages = 1_000;
        s.drops.coin = 600;
        // 600 of 1600 attempts lost = 0.375, under the ceiling.
        assert!(mon.evaluate(&s).is_empty());
        s.round = 2;
        s.drops.link = 1_000;
        // 1600 of 2600 attempts lost ≈ 0.615.
        let fired = mon.evaluate(&s);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "drop-rate");
        assert!((fired[0].value - 1600.0 / 2600.0).abs() < 1e-9);
        assert!(fired[0].message.contains("send attempts lost"));
    }

    #[test]
    fn drop_rate_needs_a_meaningful_sample() {
        // 92 of 102 attempts lost is a terrible ratio over a
        // meaningless volume — the rule must stay quiet below the
        // attempt floor, then judge once the sample is real.
        let mut mon = MonitorEngine::new(vec![AlertRule::DropRate { max_ratio: 0.9 }]);
        let mut s = snap(1, 10);
        s.messages = 10;
        s.drops.coin = 92;
        assert!(mon.evaluate(&s).is_empty(), "below DROP_RATE_MIN_ATTEMPTS");
        s.round = 2;
        s.drops.coin = 9_500;
        s.messages = 100;
        assert_eq!(mon.evaluate(&s).len(), 1, "above the floor it fires");
    }

    #[test]
    fn imbalance_needs_a_sustained_streak() {
        let mut mon = MonitorEngine::new(vec![AlertRule::Imbalance {
            max_factor: 2.0,
            window: 3,
        }]);
        let skewed = |round| LiveSnapshot {
            round,
            shard_busy_ns: vec![1000, 10, 10, 10],
            ..LiveSnapshot::default()
        };
        assert!(mon.evaluate(&skewed(1)).is_empty());
        assert!(mon.evaluate(&skewed(2)).is_empty());
        // One even round breaks the streak.
        let even = LiveSnapshot {
            round: 3,
            shard_busy_ns: vec![100, 100, 100, 100],
            ..LiveSnapshot::default()
        };
        assert!(mon.evaluate(&even).is_empty());
        assert!(mon.evaluate(&skewed(4)).is_empty());
        assert!(mon.evaluate(&skewed(5)).is_empty());
        assert_eq!(mon.evaluate(&skewed(6)).len(), 1);
    }

    #[test]
    fn rss_budget_fires_on_resident_plus_pool() {
        let mut mon = MonitorEngine::new(vec![AlertRule::RssBudget { max_bytes: 1000 }]);
        let mut s = snap(1, 10);
        s.resident_bytes = 600;
        s.pool_bytes = 300;
        assert!(mon.evaluate(&s).is_empty());
        s.pool_bytes = 500;
        let fired = mon.evaluate(&s);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "rss-budget");
        assert_eq!(fired[0].value, 1100.0);
    }

    #[test]
    fn alert_log_is_shared_across_clones() {
        let log = AlertLog::new();
        let clone = log.clone();
        clone.push(Alert {
            rule: "stall".into(),
            round: 9,
            value: 5.0,
            threshold: 3.0,
            message: "test".into(),
        });
        let alerts = log.snapshot();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].round, 9);
    }

    #[test]
    fn defaults_cover_all_four_rules() {
        let rules = AlertRule::defaults();
        let names: Vec<_> = rules.iter().map(AlertRule::name).collect();
        assert_eq!(names, ["stall", "drop-rate", "imbalance", "rss-budget"]);
    }
}
