//! Fault injection: independent message drops, crash-stop and
//! crash-recovery failures, network partitions, continuous churn,
//! per-link loss, targeted message suppression, and an optional perfect
//! failure detector.

use crate::rng::{derive_seed, split_mix64};
use std::collections::BTreeMap;

/// Why the fault layer discarded a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropCause {
    /// Lost to the independent per-message drop coin.
    Coin,
    /// Addressed to a node that is dead at delivery time.
    Crash,
    /// Blocked by an active network partition.
    Partition,
    /// Lost on a lossy link (the per-link loss overlay's coin).
    Link,
    /// Suppressed by the adversarial edge-suppression campaign.
    Suppression,
}

/// RNG domain labels for the campaign coins ("chur", "link", "supp").
/// Distinct from the node/route/retry/latency/provenance domains, so no
/// campaign can perturb any protocol or routing stream.
const CHURN_DOMAIN: u64 = 0x6368_7572;
const LINK_DOMAIN: u64 = 0x6c69_6e6b;
const SUPP_DOMAIN: u64 = 0x7375_7070;

/// Deterministic continuous churn: nodes independently nap (crash and
/// recover with state intact) in repeating cycles, so arrivals balance
/// departures in steady state.
///
/// Whether node `i` naps in cycle `c`, and where inside the cycle its
/// nap starts, are pure functions of `(spec seed, i, c)` via a dedicated
/// counter-based hash — no stream is consumed, so the generator is
/// bit-identical across engines and worker counts, and scheduling churn
/// never shifts any other coin. The spec carries its *own* seed (the
/// scenario layer typically passes the run seed through) because a
/// [`FaultPlan`] never sees the run seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    seed: u64,
    start: u64,
    end: u64,
    cycle: u64,
    down: u64,
    rate_ppm: u32,
}

impl ChurnSpec {
    /// A churn regime active over rounds `[start, end)`: each node, in
    /// each `cycle`-round slot, naps for `down` consecutive rounds with
    /// probability `rate_ppm` parts per million (the nap's offset inside
    /// the cycle is drawn uniformly so naps de-synchronize).
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`, `cycle == 0`, `down == 0`,
    /// `down > cycle`, or `rate_ppm > 1_000_000`.
    pub fn new(seed: u64, start: u64, end: u64, cycle: u64, down: u64, rate_ppm: u32) -> Self {
        assert!(
            start < end,
            "churn window [{start}, {end}) empty or inverted"
        );
        assert!(cycle >= 1, "churn cycle must be >= 1 round");
        assert!(
            (1..=cycle).contains(&down),
            "churn nap length {down} outside 1..={cycle}"
        );
        assert!(
            rate_ppm <= 1_000_000,
            "churn rate {rate_ppm} ppm above 1_000_000"
        );
        ChurnSpec {
            seed,
            start,
            end,
            cycle,
            down,
            rate_ppm,
        }
    }

    /// The round the regime starts (inclusive).
    pub fn start(&self) -> u64 {
        self.start
    }

    /// The round the regime ends (exclusive). Every nap is clipped here:
    /// after `end` the whole population is guaranteed up.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The per-`(node, cycle)` coin base. Purely a function of the spec
    /// seed, the node, and the cycle index.
    fn coin(&self, node: usize, cycle: u64) -> u64 {
        derive_seed(self.seed, CHURN_DOMAIN, node as u64, cycle)
    }

    /// The nap window of `node` in cycle `c`, as absolute rounds
    /// `[down_at, up_at)`, if the node naps that cycle at all.
    fn nap_window(&self, node: usize, c: u64) -> Option<(u64, u64)> {
        let base = self.coin(node, c);
        if base % 1_000_000 >= self.rate_ppm as u64 {
            return None;
        }
        // A second, independent draw positions the nap so the window
        // always fits inside the cycle (offset <= cycle - down).
        let offset = split_mix64(base) % (self.cycle - self.down + 1);
        let down_at = self.start + c * self.cycle + offset;
        let up_at = (down_at + self.down).min(self.end);
        (down_at < self.end).then_some((down_at, up_at))
    }

    /// Whether `node` is napping during `round`. O(1) and pure in
    /// `(spec, node, round)`.
    pub fn is_down(&self, node: usize, round: u64) -> bool {
        if round < self.start || round >= self.end {
            return false;
        }
        let c = (round - self.start) / self.cycle;
        self.nap_window(node, c)
            .is_some_and(|(down_at, up_at)| round >= down_at && round < up_at)
    }

    /// Every nap of `node` over the whole regime, as `(down, up)` round
    /// pairs in schedule order (the failure detector expands these into
    /// suspect/retract reports).
    pub fn naps(&self, node: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
        let cycles = (self.end - self.start).div_ceil(self.cycle);
        (0..cycles).filter_map(move |c| self.nap_window(node, c))
    }
}

/// A deterministic per-link loss overlay: a fixed fraction of *ordered*
/// `(src, dst)` node pairs is lossy, and messages on a lossy link drop
/// with an elevated probability. Which links are lossy is a pure
/// function of `(spec seed, src, dst)` — and since the two directions
/// of a pair hash independently, the overlay is asymmetric by
/// construction (one direction of a link can be lossy while the reverse
/// is clean).
///
/// The elevated probability *replaces* the plan's base drop probability
/// on lossy links when it is larger; the drop coin itself still comes
/// from the per-message route/retry streams, so enabling the overlay
/// never re-keys any fate and stays bit-identical across engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLossSpec {
    seed: u64,
    fraction_ppm: u32,
    loss_ppm: u32,
}

impl LinkLossSpec {
    /// Marks `fraction_ppm` parts per million of ordered links lossy,
    /// each dropping messages with probability `loss_ppm` ppm.
    ///
    /// # Panics
    ///
    /// Panics if `fraction_ppm` is 0 or above 1_000_000, or `loss_ppm`
    /// is 0 or not below 1_000_000 (a link that drops everything can
    /// never deliver, so it is rejected like a drop probability of 1).
    pub fn new(seed: u64, fraction_ppm: u32, loss_ppm: u32) -> Self {
        assert!(
            (1..=1_000_000).contains(&fraction_ppm),
            "lossy-link fraction {fraction_ppm} ppm outside 1..=1_000_000"
        );
        assert!(
            (1..1_000_000).contains(&loss_ppm),
            "link loss {loss_ppm} ppm outside 1..1_000_000"
        );
        LinkLossSpec {
            seed,
            fraction_ppm,
            loss_ppm,
        }
    }

    /// Whether the ordered link `src -> dst` is lossy. Pure in
    /// `(spec seed, src, dst)`.
    pub fn is_lossy(&self, src: usize, dst: usize) -> bool {
        let coin = derive_seed(self.seed, LINK_DOMAIN, src as u64, dst as u64);
        coin % 1_000_000 < self.fraction_ppm as u64
    }

    /// The drop probability on lossy links.
    pub fn loss_probability(&self) -> f64 {
        self.loss_ppm as f64 / 1e6
    }
}

/// An adversarial message-suppression campaign: an explicit set of
/// directed edges (typically the highest-degree contact edges of the
/// instance) on which sends are dropped during a round window.
///
/// With `drop_ppm = 1_000_000` (the default in scenario use) every send
/// on a targeted edge is suppressed; lower rates flip a per-`(edge,
/// round)` coin that is a pure function of `(spec seed, src, dst,
/// round)` — never of sequence numbers or stream state, so the
/// adversary's behaviour is identical on every engine and worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct SuppressionSpec {
    seed: u64,
    edges: Vec<(usize, usize)>,
    start: u64,
    end: u64,
    drop_ppm: u32,
}

impl SuppressionSpec {
    /// Suppresses sends on the given directed `edges` during rounds
    /// `[start, end)` with probability `drop_ppm` parts per million
    /// (values `>= 1_000_000` suppress every send without a coin).
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`, `edges` is empty, or `drop_ppm` is 0.
    pub fn new(
        seed: u64,
        edges: impl IntoIterator<Item = (usize, usize)>,
        start: u64,
        end: u64,
        drop_ppm: u32,
    ) -> Self {
        assert!(
            start < end,
            "suppression window [{start}, {end}) empty or inverted"
        );
        assert!(drop_ppm > 0, "a suppression rate of 0 suppresses nothing");
        let mut edges: Vec<(usize, usize)> = edges.into_iter().collect();
        edges.sort_unstable();
        edges.dedup();
        assert!(!edges.is_empty(), "suppression campaign without edges");
        SuppressionSpec {
            seed,
            edges,
            start,
            end,
            drop_ppm,
        }
    }

    /// The targeted directed edges, sorted.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Whether a send from `src` to `dst` in `round` is suppressed.
    /// Pure in `(spec seed, src, dst, round)`.
    pub fn blocks(&self, src: usize, dst: usize, round: u64) -> bool {
        if round < self.start || round >= self.end {
            return false;
        }
        if self.edges.binary_search(&(src, dst)).is_err() {
            return false;
        }
        if self.drop_ppm >= 1_000_000 {
            return true;
        }
        let coin = split_mix64(
            derive_seed(self.seed, SUPP_DOMAIN, src as u64, round)
                ^ split_mix64((dst as u64).wrapping_mul(0xa24b_aed4_963e_e407)),
        );
        coin % 1_000_000 < self.drop_ppm as u64
    }
}

/// One scheduled crash: the round the node dies and, optionally, the
/// round it comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CrashWindow {
    crash: u64,
    recovery: Option<u64>,
}

/// One partition window: between `start` (inclusive) and `end`
/// (exclusive), messages *sent* across group boundaries are dropped.
/// Nodes not named in any group share one implicit "rest" group.
#[derive(Debug, Clone, PartialEq)]
struct PartitionWindow {
    start: u64,
    end: u64,
    group_of: BTreeMap<usize, u32>,
}

/// The implicit group of nodes not named by a partition.
const REST_GROUP: u32 = u32::MAX;

impl PartitionWindow {
    fn blocks(&self, src: usize, dst: usize, round: u64) -> bool {
        if round < self.start || round >= self.end {
            return false;
        }
        let group = |node| self.group_of.get(&node).copied().unwrap_or(REST_GROUP);
        group(src) != group(dst)
    }
}

/// A fault schedule applied by the engine.
///
/// * **Message drops** — every message is lost independently with
///   probability [`drop_probability`](Self::drop_probability) (decided by
///   the engine's deterministic fault stream). The sender is still
///   charged for the message.
/// * **Crash failures** — each scheduled node stops executing and
///   receiving at its crash round; messages addressed to it while dead
///   vanish (and count as drops). [`with_crashes`](Self::with_crashes)
///   schedules crashes at round 0 (machines dead before the protocol
///   starts); [`with_crash_at`](Self::with_crash_at) kills a machine
///   mid-run; [`with_recovery_at`](Self::with_recovery_at) brings a
///   crashed machine back with its pre-crash state intact.
/// * **Partitions** — [`with_partition`](Self::with_partition) splits
///   the network into groups for a round window; messages sent across a
///   group boundary inside the window are dropped (cause
///   [`DropCause::Partition`]), and the split heals at the window's end.
/// * **Crash detection** — optionally, a perfect failure detector (in
///   the spirit of failure-informer services such as Falcon/Albatross)
///   reports each crash to every live node
///   [`detection_delay`](Self::detection_delay) rounds after it happens,
///   and *retracts* the report the same delay after a recovery.
///   Protocols read the report through
///   [`RoundContext::suspects`](crate::RoundContext::suspects); without
///   a detector configured, the report stays empty forever.
///
/// # Example
///
/// ```
/// use rd_sim::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .with_drop_probability(0.05)
///     .with_crashes([3])
///     .with_crash_at(9, 40)
///     .with_recovery_at(9, 60)
///     .with_partition([vec![0, 1], vec![2, 3]], 10, 20)
///     .with_crash_detection_after(20);
/// assert!(plan.is_crashed(3) && plan.is_crashed(9));
/// assert!(plan.is_crashed_at(3, 0));
/// assert!(!plan.is_crashed_at(9, 39));
/// assert!(plan.is_crashed_at(9, 40));
/// assert!(!plan.is_crashed_at(9, 60), "node 9 recovered");
/// assert!(plan.partition_blocks(0, 2, 10));
/// assert!(!plan.partition_blocks(0, 2, 20), "partition healed");
/// assert_eq!(plan.detection_delay(), Some(20));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    drop_probability: f64,
    crashes: BTreeMap<usize, CrashWindow>,
    partitions: Vec<PartitionWindow>,
    detection_delay: Option<u64>,
    churn: Option<ChurnSpec>,
    link_loss: Option<LinkLossSpec>,
    suppressions: Vec<SuppressionSpec>,
}

impl FaultPlan {
    /// A fault-free plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the independent per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0` (with `p = 1.0` no protocol can
    /// terminate, so it is rejected as a configuration error).
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability {p} outside [0, 1)"
        );
        self.drop_probability = p;
        self
    }

    /// Marks the given node indices as crashed from round 0.
    pub fn with_crashes(mut self, nodes: impl IntoIterator<Item = usize>) -> Self {
        for node in nodes {
            let entry = self.crashes.entry(node).or_insert(CrashWindow {
                crash: 0,
                recovery: None,
            });
            entry.crash = 0;
        }
        self
    }

    /// Schedules `node` to crash at the start of `round` (it executes
    /// rounds `0..round` normally, then stops). An earlier schedule for
    /// the same node wins; a recovery already scheduled is kept.
    pub fn with_crash_at(mut self, node: usize, round: u64) -> Self {
        let entry = self.crashes.entry(node).or_insert(CrashWindow {
            crash: round,
            recovery: None,
        });
        entry.crash = entry.crash.min(round);
        self
    }

    /// Schedules `node` — which must already have a crash scheduled — to
    /// recover at the start of `round`: from then on it executes and
    /// receives again, resuming from its pre-crash state. The last
    /// recovery scheduled for a node wins.
    ///
    /// # Panics
    ///
    /// Panics if `node` has no crash scheduled, or if `round` is not
    /// strictly after its crash round.
    pub fn with_recovery_at(mut self, node: usize, round: u64) -> Self {
        let entry = self
            .crashes
            .get_mut(&node)
            .unwrap_or_else(|| panic!("recovery for node {node} without a scheduled crash"));
        assert!(
            round > entry.crash,
            "recovery of node {node} at round {round} not after its crash at {}",
            entry.crash
        );
        entry.recovery = Some(round);
        self
    }

    /// Splits the network into the given `groups` from round `start`
    /// (inclusive) to round `end` (exclusive): messages *sent* in that
    /// window between nodes of different groups are dropped. Nodes not
    /// named in any group form one implicit extra group. The partition
    /// heals at `end`; multiple (even overlapping) windows may be
    /// scheduled.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` or a node appears in more than one
    /// group of this window.
    pub fn with_partition(
        mut self,
        groups: impl IntoIterator<Item = impl IntoIterator<Item = usize>>,
        start: u64,
        end: u64,
    ) -> Self {
        assert!(
            start < end,
            "partition window [{start}, {end}) is empty or inverted"
        );
        let mut group_of = BTreeMap::new();
        for (g, group) in groups.into_iter().enumerate() {
            for node in group {
                let prev = group_of.insert(node, g as u32);
                assert!(
                    prev.is_none(),
                    "node {node} appears in more than one partition group"
                );
            }
        }
        self.partitions.push(PartitionWindow {
            start,
            end,
            group_of,
        });
        self
    }

    /// Installs a continuous-churn regime (see [`ChurnSpec`]). Churned
    /// nodes behave exactly like crash/recovery windows — they stop
    /// executing and receiving while down, then resume with their
    /// pre-nap state — but the schedule is generated, not enumerated,
    /// so a million-node population churns in O(1) per lookup. At most
    /// one regime per plan; a second call replaces the first.
    pub fn with_churn(mut self, spec: ChurnSpec) -> Self {
        self.churn = Some(spec);
        self
    }

    /// Installs a per-link loss overlay (see [`LinkLossSpec`]). On
    /// lossy links the overlay's probability replaces the plan's base
    /// drop probability when larger, and drops attribute to
    /// [`DropCause::Link`]. A second call replaces the first.
    pub fn with_link_loss(mut self, spec: LinkLossSpec) -> Self {
        self.link_loss = Some(spec);
        self
    }

    /// Adds an adversarial suppression campaign (see
    /// [`SuppressionSpec`]). Campaigns accumulate: a send is suppressed
    /// when *any* campaign blocks it.
    pub fn with_suppression(mut self, spec: SuppressionSpec) -> Self {
        self.suppressions.push(spec);
        self
    }

    /// Enables the perfect failure detector: each crash is reported to
    /// every live node `delay` rounds after it happens, and each
    /// recovery retracts its report `delay` rounds after the node
    /// rejoins. A node whose recovery precedes its would-be report is
    /// never suspected at all.
    pub fn with_crash_detection_after(mut self, delay: u64) -> Self {
        self.detection_delay = Some(delay);
        self
    }

    /// The per-message drop probability.
    pub fn drop_probability(&self) -> f64 {
        self.drop_probability
    }

    /// Whether `node` crashes at any point of the run.
    pub fn is_crashed(&self, node: usize) -> bool {
        self.crashes.contains_key(&node)
    }

    /// Whether `node` crashes and never recovers.
    pub fn is_permanently_crashed(&self, node: usize) -> bool {
        self.crashes
            .get(&node)
            .is_some_and(|w| w.recovery.is_none())
    }

    /// Whether `node` is dead during `round` — either inside an
    /// explicit crash window or napping under the churn regime.
    pub fn is_crashed_at(&self, node: usize, round: u64) -> bool {
        self.crashes
            .get(&node)
            .is_some_and(|w| round >= w.crash && w.recovery.is_none_or(|r| round < r))
            || self.churn.is_some_and(|c| c.is_down(node, round))
    }

    /// The round at which `node` crashes, if scheduled.
    pub fn crash_round(&self, node: usize) -> Option<u64> {
        self.crashes.get(&node).map(|w| w.crash)
    }

    /// The round at which `node` recovers, if scheduled.
    pub fn recovery_round(&self, node: usize) -> Option<u64> {
        self.crashes.get(&node).and_then(|w| w.recovery)
    }

    /// All scheduled crashes as `(node, crash round)` pairs, by node
    /// index.
    pub fn crash_schedule(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.crashes.iter().map(|(&n, w)| (n, w.crash))
    }

    /// The nodes that crash at any point of the run.
    pub fn crashed_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.crashes.keys().copied()
    }

    /// The failure-detector latency, if a detector is configured.
    pub fn detection_delay(&self) -> Option<u64> {
        self.detection_delay
    }

    /// `true` when the plan schedules at least one crash or a churn
    /// regime (a cheap guard that lets the router and the stepping loop
    /// skip the per-message liveness lookup entirely on crash-free
    /// plans).
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty() || self.churn.is_some()
    }

    /// The continuous-churn regime, if one is installed.
    pub fn churn(&self) -> Option<&ChurnSpec> {
        self.churn.as_ref()
    }

    /// The per-link loss overlay, if one is installed.
    pub fn link_loss(&self) -> Option<&LinkLossSpec> {
        self.link_loss.as_ref()
    }

    /// `true` when a per-link loss overlay is installed (the router's
    /// cheap guard around the per-message link hash).
    pub fn has_link_loss(&self) -> bool {
        self.link_loss.is_some()
    }

    /// `true` when at least one suppression campaign is installed.
    pub fn has_suppression(&self) -> bool {
        !self.suppressions.is_empty()
    }

    /// Whether a send from `src` to `dst` in `round` is suppressed by
    /// any installed campaign. Like partitions, suppression is decided
    /// at the *send* round.
    pub fn suppression_blocks(&self, src: usize, dst: usize, round: u64) -> bool {
        self.suppressions.iter().any(|s| s.blocks(src, dst, round))
    }

    /// `true` when the plan schedules at least one partition window
    /// (the router's cheap guard around the per-message group lookup).
    pub fn has_partitions(&self) -> bool {
        !self.partitions.is_empty()
    }

    /// Whether a message sent from `src` to `dst` in `round` crosses an
    /// active partition boundary (and is therefore dropped). The check
    /// is made at the *send* round: a message sent inside the window is
    /// lost even if its delivery would land after the heal.
    pub fn partition_blocks(&self, src: usize, dst: usize, round: u64) -> bool {
        self.partitions.iter().any(|w| w.blocks(src, dst, round))
    }

    /// `true` when the plan injects no faults at all.
    pub fn is_fault_free(&self) -> bool {
        self.drop_probability == 0.0
            && self.crashes.is_empty()
            && self.partitions.is_empty()
            && self.churn.is_none()
            && self.link_loss.is_none()
            && self.suppressions.is_empty()
    }

    /// Checks the plan against a concrete run shape: every crash,
    /// recovery, and partition must name node indices below `n` and
    /// rounds within `max_rounds` — a schedule past the budget (or past
    /// the population) would silently never fire, so it is rejected as
    /// a configuration error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self, n: usize, max_rounds: u64) -> Result<(), String> {
        for (&node, w) in &self.crashes {
            if node >= n {
                return Err(format!("crash target {node} out of range for n={n}"));
            }
            if w.crash > max_rounds {
                return Err(format!(
                    "crash of node {node} at round {} past max_rounds {max_rounds}",
                    w.crash
                ));
            }
            if let Some(recovery) = w.recovery {
                if recovery > max_rounds {
                    return Err(format!(
                        "recovery of node {node} at round {recovery} past max_rounds {max_rounds}"
                    ));
                }
            }
        }
        for w in &self.partitions {
            if w.end > max_rounds {
                return Err(format!(
                    "partition window [{}, {}) past max_rounds {max_rounds}",
                    w.start, w.end
                ));
            }
            if let Some((&node, _)) = w.group_of.iter().next_back() {
                if node >= n {
                    return Err(format!("partition member {node} out of range for n={n}"));
                }
            }
        }
        // Two windows that are simultaneously active and both name the
        // same node give it two group labels at once; which one wins is
        // an accident of window order, so the shape is rejected outright.
        for (i, a) in self.partitions.iter().enumerate() {
            for b in &self.partitions[i + 1..] {
                if a.start >= b.end || b.start >= a.end {
                    continue;
                }
                if let Some(&node) = a.group_of.keys().find(|k| b.group_of.contains_key(k)) {
                    return Err(format!(
                        "node {node} named by overlapping partition windows [{}, {}) and [{}, {})",
                        a.start, a.end, b.start, b.end
                    ));
                }
            }
        }
        // A node that recovers while a partition it is named in is
        // still active rejoins into a split it never observed forming;
        // the schedule is almost certainly a mistake, so it is rejected.
        for (&node, w) in &self.crashes {
            let Some(recovery) = w.recovery else { continue };
            if let Some(p) = self
                .partitions
                .iter()
                .find(|p| recovery >= p.start && recovery < p.end && p.group_of.contains_key(&node))
            {
                return Err(format!(
                    "recovery of node {node} at round {recovery} falls inside partition window \
                     [{}, {}) that names it",
                    p.start, p.end
                ));
            }
        }
        if let Some(c) = &self.churn {
            if c.end > max_rounds {
                return Err(format!(
                    "churn regime [{}, {}) past max_rounds {max_rounds}",
                    c.start, c.end
                ));
            }
        }
        for s in &self.suppressions {
            if s.end > max_rounds {
                return Err(format!(
                    "suppression window [{}, {}) past max_rounds {max_rounds}",
                    s.start, s.end
                ));
            }
            if let Some(&(src, dst)) = s.edges.iter().find(|&&(src, dst)| src >= n || dst >= n) {
                return Err(format!(
                    "suppressed edge ({src}, {dst}) out of range for n={n}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_fault_free() {
        assert!(FaultPlan::new().is_fault_free());
    }

    #[test]
    fn builder_accumulates() {
        let p = FaultPlan::new()
            .with_drop_probability(0.1)
            .with_crashes([1])
            .with_crashes([5, 1]);
        assert_eq!(p.drop_probability(), 0.1);
        assert_eq!(p.crashed_nodes().collect::<Vec<_>>(), vec![1, 5]);
        assert!(!p.is_fault_free());
    }

    #[test]
    fn dynamic_crashes_respect_their_round() {
        let p = FaultPlan::new().with_crash_at(2, 10);
        assert!(p.is_crashed(2));
        assert!(!p.is_crashed_at(2, 9));
        assert!(p.is_crashed_at(2, 10));
        assert!(p.is_crashed_at(2, 99));
        assert_eq!(p.crash_round(2), Some(10));
        assert_eq!(p.crash_round(3), None);
    }

    #[test]
    fn earliest_crash_round_wins() {
        let p = FaultPlan::new().with_crash_at(2, 10).with_crash_at(2, 5);
        assert_eq!(p.crash_round(2), Some(5));
        let q = FaultPlan::new().with_crashes([2]).with_crash_at(2, 7);
        assert_eq!(q.crash_round(2), Some(0));
    }

    #[test]
    fn schedule_lists_all_crashes() {
        let p = FaultPlan::new().with_crashes([4]).with_crash_at(1, 30);
        let sched: Vec<_> = p.crash_schedule().collect();
        assert_eq!(sched, vec![(1, 30), (4, 0)]);
    }

    #[test]
    fn recovery_bounds_the_crash_window() {
        let p = FaultPlan::new()
            .with_crash_at(2, 10)
            .with_recovery_at(2, 15);
        assert!(p.is_crashed(2));
        assert!(!p.is_permanently_crashed(2));
        assert!(!p.is_crashed_at(2, 9));
        assert!(p.is_crashed_at(2, 10));
        assert!(p.is_crashed_at(2, 14));
        assert!(!p.is_crashed_at(2, 15));
        assert_eq!(p.recovery_round(2), Some(15));
        assert_eq!(p.recovery_round(3), None);
        let q = FaultPlan::new().with_crash_at(3, 5);
        assert!(q.is_permanently_crashed(3));
    }

    #[test]
    fn recovery_survives_a_lowered_crash_round() {
        let p = FaultPlan::new()
            .with_crash_at(2, 10)
            .with_recovery_at(2, 15)
            .with_crash_at(2, 4);
        assert_eq!(p.crash_round(2), Some(4));
        assert_eq!(p.recovery_round(2), Some(15));
    }

    #[test]
    #[should_panic(expected = "without a scheduled crash")]
    fn recovery_without_crash_rejected() {
        let _ = FaultPlan::new().with_recovery_at(2, 15);
    }

    #[test]
    #[should_panic(expected = "not after its crash")]
    fn recovery_before_crash_rejected() {
        let _ = FaultPlan::new()
            .with_crash_at(2, 10)
            .with_recovery_at(2, 10);
    }

    #[test]
    fn partition_blocks_cross_group_sends_inside_the_window() {
        let p = FaultPlan::new().with_partition([vec![0, 1], vec![2]], 5, 8);
        assert!(!p.is_fault_free());
        assert!(p.has_partitions());
        // Inside the window: cross-group blocked, intra-group open.
        assert!(p.partition_blocks(0, 2, 5));
        assert!(p.partition_blocks(2, 1, 7));
        assert!(!p.partition_blocks(0, 1, 6));
        // Unlisted nodes share the implicit rest group.
        assert!(!p.partition_blocks(7, 9, 6));
        assert!(p.partition_blocks(0, 9, 6));
        // Outside the window: everything flows.
        assert!(!p.partition_blocks(0, 2, 4));
        assert!(!p.partition_blocks(0, 2, 8));
    }

    #[test]
    fn overlapping_partition_windows_all_apply() {
        let p = FaultPlan::new()
            .with_partition([vec![0], vec![1]], 0, 4)
            .with_partition([vec![1], vec![2]], 2, 6);
        assert!(p.partition_blocks(0, 1, 1));
        assert!(p.partition_blocks(1, 2, 5));
        assert!(p.partition_blocks(0, 1, 3), "both windows active");
        // After the first window heals, 0 sits in the second window's
        // rest group: still split from 1, but not from fellow-rest 3.
        assert!(p.partition_blocks(0, 1, 5));
        assert!(!p.partition_blocks(0, 3, 5), "rest group is open");
    }

    #[test]
    #[should_panic(expected = "more than one partition group")]
    fn duplicate_partition_member_rejected() {
        let _ = FaultPlan::new().with_partition([vec![0, 1], vec![1]], 0, 4);
    }

    #[test]
    #[should_panic(expected = "empty or inverted")]
    fn empty_partition_window_rejected() {
        let _ = FaultPlan::new().with_partition([vec![0], vec![1]], 4, 4);
    }

    #[test]
    fn validate_checks_rounds_and_indices() {
        let ok = FaultPlan::new()
            .with_crash_at(2, 10)
            .with_recovery_at(2, 20)
            .with_partition([vec![0], vec![3]], 5, 30);
        assert_eq!(ok.validate(4, 100), Ok(()));

        let late_crash = FaultPlan::new().with_crash_at(1, 200);
        assert!(late_crash.validate(4, 100).unwrap_err().contains("crash"));

        let late_recovery = FaultPlan::new()
            .with_crash_at(1, 10)
            .with_recovery_at(1, 200);
        assert!(late_recovery
            .validate(4, 100)
            .unwrap_err()
            .contains("recovery"));

        let late_partition = FaultPlan::new().with_partition([vec![0], vec![1]], 50, 200);
        assert!(late_partition
            .validate(4, 100)
            .unwrap_err()
            .contains("partition window"));

        let bad_node = FaultPlan::new().with_crashes([9]);
        assert!(bad_node.validate(4, 100).unwrap_err().contains("range"));

        let bad_member = FaultPlan::new().with_partition([vec![0], vec![9]], 0, 10);
        assert!(bad_member.validate(4, 100).unwrap_err().contains("range"));
    }

    #[test]
    fn validate_rejects_overlapping_windows_sharing_a_node() {
        // Same shape as `overlapping_partition_windows_all_apply`:
        // node 1 is named by both of two time-overlapping windows.
        let p = FaultPlan::new()
            .with_partition([vec![0], vec![1]], 0, 4)
            .with_partition([vec![1], vec![2]], 2, 6);
        let err = p.validate(8, 100).unwrap_err();
        assert!(err.contains("overlapping partition windows"), "{err}");

        // Overlap in time alone is fine when the named sets are disjoint.
        let disjoint = FaultPlan::new()
            .with_partition([vec![0], vec![1]], 0, 4)
            .with_partition([vec![2], vec![3]], 2, 6);
        assert_eq!(disjoint.validate(8, 100), Ok(()));

        // A shared node is fine when the windows never coexist.
        let sequential = FaultPlan::new()
            .with_partition([vec![0], vec![1]], 0, 4)
            .with_partition([vec![1], vec![2]], 4, 8);
        assert_eq!(sequential.validate(8, 100), Ok(()));
    }

    #[test]
    fn validate_rejects_recovery_inside_an_active_partition() {
        let p = FaultPlan::new()
            .with_crash_at(1, 2)
            .with_recovery_at(1, 7)
            .with_partition([vec![0], vec![1]], 5, 10);
        let err = p.validate(8, 100).unwrap_err();
        assert!(err.contains("recovery of node 1"), "{err}");
        assert!(err.contains("inside partition window"), "{err}");

        // Recovering exactly at the heal, or while only the rest group
        // holds the node, is fine.
        let at_heal = FaultPlan::new()
            .with_crash_at(1, 2)
            .with_recovery_at(1, 10)
            .with_partition([vec![0], vec![1]], 5, 10);
        assert_eq!(at_heal.validate(8, 100), Ok(()));

        let unnamed = FaultPlan::new()
            .with_crash_at(6, 2)
            .with_recovery_at(6, 7)
            .with_partition([vec![0], vec![1]], 5, 10);
        assert_eq!(unnamed.validate(8, 100), Ok(()));
    }

    #[test]
    fn validate_checks_campaign_windows_and_edges() {
        let late_churn = FaultPlan::new().with_churn(ChurnSpec::new(7, 0, 500, 10, 4, 100_000));
        assert!(late_churn
            .validate(8, 100)
            .unwrap_err()
            .contains("churn regime"));

        let late_supp = FaultPlan::new().with_suppression(SuppressionSpec::new(
            7,
            [(0, 1)],
            50,
            500,
            1_000_000,
        ));
        assert!(late_supp
            .validate(8, 100)
            .unwrap_err()
            .contains("suppression window"));

        let bad_edge =
            FaultPlan::new().with_suppression(SuppressionSpec::new(7, [(0, 9)], 0, 10, 1_000_000));
        assert!(bad_edge
            .validate(8, 100)
            .unwrap_err()
            .contains("out of range"));

        let ok = FaultPlan::new()
            .with_churn(ChurnSpec::new(7, 0, 80, 10, 4, 100_000))
            .with_link_loss(LinkLossSpec::new(7, 200_000, 300_000))
            .with_suppression(SuppressionSpec::new(7, [(0, 1), (3, 2)], 5, 60, 1_000_000));
        assert_eq!(ok.validate(8, 100), Ok(()));
        assert!(!ok.is_fault_free());
        assert!(ok.has_crashes(), "churn counts as a liveness fault");
        assert!(ok.has_link_loss() && ok.has_suppression());
    }

    #[test]
    fn churn_naps_are_pure_and_bounded() {
        let spec = ChurnSpec::new(42, 10, 210, 20, 8, 400_000);
        for node in 0..64usize {
            let naps: Vec<_> = spec.naps(node).collect();
            for &(down, up) in &naps {
                assert!(down >= 10 && up <= 210, "nap [{down}, {up}) outside regime");
                assert!(up - down <= 8, "nap longer than the configured length");
                // `is_down` agrees with the enumerated schedule round by
                // round — two independent paths to the same pure function.
                for round in down..up {
                    assert!(spec.is_down(node, round));
                }
                assert!(!spec.is_down(node, down.saturating_sub(1)) || down == 10);
            }
            // Outside the regime nobody naps.
            assert!(!spec.is_down(node, 9));
            assert!(!spec.is_down(node, 210));
            // Same spec, same node: identical schedule on every query.
            assert!(spec.naps(node).eq(naps));
        }
        // The rate actually bites: at 40% per 20-round cycle over 10
        // cycles, out of 64 nodes *some* nap and *some* cycle is clean.
        let total: usize = (0..64).map(|i| spec.naps(i).count()).sum();
        assert!(total > 0, "nobody ever napped");
        assert!(total < 64 * 10, "everyone napped every cycle");
    }

    #[test]
    fn link_loss_is_asymmetric_and_pure() {
        let spec = LinkLossSpec::new(99, 300_000, 500_000);
        let mut lossy = 0;
        let mut asym = 0;
        for src in 0..40usize {
            for dst in 0..40usize {
                if src == dst {
                    continue;
                }
                assert_eq!(spec.is_lossy(src, dst), spec.is_lossy(src, dst));
                if spec.is_lossy(src, dst) {
                    lossy += 1;
                    if !spec.is_lossy(dst, src) {
                        asym += 1;
                    }
                }
            }
        }
        // ~30% of 1560 ordered links should be lossy; and because the
        // two directions hash independently, a healthy share of lossy
        // links must be one-directional.
        assert!((300..640).contains(&lossy), "lossy count {lossy}");
        assert!(asym > 0, "no asymmetric link found");
        assert!((spec.loss_probability() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn suppression_blocks_only_target_edges_inside_the_window() {
        let spec = SuppressionSpec::new(5, [(3, 1), (0, 2)], 4, 9, 1_000_000);
        assert_eq!(spec.edges(), &[(0, 2), (3, 1)], "sorted and deduped");
        assert!(spec.blocks(0, 2, 4));
        assert!(spec.blocks(3, 1, 8));
        assert!(!spec.blocks(2, 0, 5), "directed: reverse edge open");
        assert!(!spec.blocks(0, 1, 5), "untargeted edge open");
        assert!(!spec.blocks(0, 2, 3), "before the window");
        assert!(!spec.blocks(0, 2, 9), "after the window");

        // A sub-unit rate flips a coin that is pure in (seed, edge,
        // round): repeated queries agree, and over many rounds the edge
        // is sometimes open, sometimes blocked.
        let coin = SuppressionSpec::new(5, [(0, 2)], 0, 1000, 500_000);
        let fates: Vec<bool> = (0..1000).map(|r| coin.blocks(0, 2, r)).collect();
        assert_eq!(
            fates,
            (0..1000).map(|r| coin.blocks(0, 2, r)).collect::<Vec<_>>()
        );
        assert!(fates.iter().any(|&b| b) && fates.iter().any(|&b| !b));
    }

    #[test]
    fn churned_nodes_flow_through_the_liveness_queries() {
        let spec = ChurnSpec::new(11, 0, 100, 10, 5, 1_000_000);
        let plan = FaultPlan::new().with_churn(spec);
        assert!(plan.has_crashes());
        assert!(!plan.is_fault_free());
        // rate 100%: every node naps every cycle.
        assert!((0..10).any(|r| plan.is_crashed_at(0, r)));
        // Churn is transient: nobody is permanently crashed, and the
        // explicit-crash queries stay empty.
        assert!(!plan.is_permanently_crashed(0));
        assert!(!plan.is_crashed(0));
        assert_eq!(plan.crash_schedule().count(), 0);
        // After the regime everyone is up.
        assert!(!plan.is_crashed_at(0, 100));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn full_drop_rejected() {
        let _ = FaultPlan::new().with_drop_probability(1.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn negative_drop_rejected() {
        let _ = FaultPlan::new().with_drop_probability(-0.5);
    }
}
