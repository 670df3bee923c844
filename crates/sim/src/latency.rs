//! Pluggable message-latency models.
//!
//! A [`LatencyModel`] maps every transmission to a delivery latency in
//! whole simulated ticks (`>= 1`). Draws come from their own
//! counter-based stream ([`message_latency_rng`]): the latency of one
//! message is a pure function of `(seed, src, dst, tick, sequence,
//! attempt)` and the model, so delivery order can never feed back into
//! the draws and a run replays bit-for-bit from its seed. The routing
//! kernel makes this draw first for every transmission, a first send
//! and a retransmission alike, then checks the path for faults and
//! flips the drop coin ([`crate::fate`]).
//!
//! All model parameters are integers (the lognormal shape is given in
//! thousandths), which keeps the type `Copy + Eq + Hash` — it can ride
//! inside engine-selection enums and be compared for cache keys.

use crate::rng::{derive_seed, message_latency_rng, split_mix64};
use rand::Rng;

/// A deterministic message-latency model: how many simulated ticks a
/// transmission spends in flight.
///
/// The first two models are symmetric and memoryless; `LogNormal`
/// produces the heavy-tailed RTT distributions measured in deployed
/// P2P networks; `Asymmetric` gives the two directions of every link
/// different (constant) latencies, which no round-based engine can
/// express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyModel {
    /// Every message takes exactly `ticks` ticks. `Constant { ticks: 1 }`
    /// is the synchronous round model.
    Constant {
        /// Delivery latency of every message (`>= 1`).
        ticks: u64,
    },
    /// Every message independently takes `U{min..=max}` ticks.
    Uniform {
        /// Minimum latency in ticks (`>= 1`).
        min: u64,
        /// Maximum latency in ticks (`>= min`).
        max: u64,
    },
    /// Every message independently takes `round(exp(mu + sigma * Z))`
    /// ticks (`Z` standard normal), clamped to `[1, cap]` — the
    /// heavy-tailed straggler regime.
    LogNormal {
        /// Location parameter `mu`, in thousandths (`1200` = 1.2).
        mu_milli: u32,
        /// Shape parameter `sigma`, in thousandths (`800` = 0.8).
        sigma_milli: u32,
        /// Upper clamp on the drawn latency, in ticks (`>= 1`).
        cap: u64,
    },
    /// Links are directionally asymmetric: messages from a lower to a
    /// higher node index take `forward` ticks, the reverse direction
    /// takes `backward` ticks.
    Asymmetric {
        /// Latency of `src < dst` transmissions, in ticks (`>= 1`).
        forward: u64,
        /// Latency of `src > dst` transmissions, in ticks (`>= 1`).
        backward: u64,
    },
    /// Grey failure: a deterministic, seed-keyed subset of nodes is
    /// *slow* — not crashed, not lossy, just late. Every message that
    /// touches a slow node (as sender or receiver) takes `slow` ticks;
    /// all other traffic takes `base` ticks. Whether a node is slow is
    /// a pure function of `(seed, node)`, so the subset is stable for
    /// the whole run and replays bit-for-bit.
    Slow {
        /// Latency of healthy-to-healthy traffic, in ticks (`>= 1`).
        base: u64,
        /// Latency of traffic touching a slow node, in ticks (`>= base`).
        slow: u64,
        /// Fraction of nodes that are slow, in parts per million
        /// (`1..=1_000_000`).
        frac_ppm: u32,
    },
}

/// Domain tag of the slow-subset membership stream ("slow").
const SLOW_DOMAIN: u64 = 0x736c_6f77;

/// Whether `node` belongs to the grey-failure slow subset: a pure
/// function of `(seed, node)` via the dedicated counter-based domain.
fn is_slow_node(seed: u64, node: usize, frac_ppm: u32) -> bool {
    split_mix64(derive_seed(seed, SLOW_DOMAIN, node as u64, 0)) % 1_000_000 < u64::from(frac_ppm)
}

impl Default for LatencyModel {
    /// The synchronous baseline: every message takes exactly one tick.
    fn default() -> Self {
        LatencyModel::UNIT
    }
}

impl LatencyModel {
    /// The synchronous round: every message takes exactly one tick.
    pub const UNIT: LatencyModel = LatencyModel::Constant { ticks: 1 };

    /// Checks the model's parameters, returning a description of the
    /// first violation.
    /// [`RoundEngine::with_latency`](crate::RoundEngine::with_latency)
    /// calls this.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            LatencyModel::Constant { ticks: 0 } => Err("constant latency must be >= 1 tick".into()),
            LatencyModel::Uniform { min: 0, .. } => {
                Err("uniform latency minimum must be >= 1 tick".into())
            }
            LatencyModel::Uniform { min, max } if max < min => Err(format!(
                "uniform latency range empty: min {min} > max {max}"
            )),
            LatencyModel::LogNormal { cap: 0, .. } => {
                Err("lognormal latency cap must be >= 1 tick".into())
            }
            LatencyModel::Asymmetric { forward, backward } if forward == 0 || backward == 0 => {
                Err("asymmetric link latencies must be >= 1 tick".into())
            }
            LatencyModel::Slow { base: 0, .. } => {
                Err("slow-model base latency must be >= 1 tick".into())
            }
            LatencyModel::Slow { base, slow, .. } if slow < base => {
                Err(format!("slow-model slow latency {slow} below base {base}"))
            }
            LatencyModel::Slow { frac_ppm, .. } if frac_ppm == 0 || frac_ppm > 1_000_000 => Err(
                format!("slow-node fraction must be 1..=1000000 ppm, got {frac_ppm}"),
            ),
            _ => Ok(()),
        }
    }

    /// The model's canonical spec string, e.g. `const:1`,
    /// `uniform:1:8`, `lognormal:1200:800:32`, `asym:1:8`,
    /// `slow:1:16:50000`. [`parse`](Self::parse) accepts exactly these
    /// forms.
    pub fn name(&self) -> String {
        match *self {
            LatencyModel::Constant { ticks } => format!("const:{ticks}"),
            LatencyModel::Uniform { min, max } => format!("uniform:{min}:{max}"),
            LatencyModel::LogNormal {
                mu_milli,
                sigma_milli,
                cap,
            } => format!("lognormal:{mu_milli}:{sigma_milli}:{cap}"),
            LatencyModel::Asymmetric { forward, backward } => {
                format!("asym:{forward}:{backward}")
            }
            LatencyModel::Slow {
                base,
                slow,
                frac_ppm,
            } => format!("slow:{base}:{slow}:{frac_ppm}"),
        }
    }

    /// Parses a spec string produced by [`name`](Self::name):
    /// `const:TICKS`, `uniform:MIN:MAX`, `lognormal:MU_MILLI:SIGMA_MILLI:CAP`,
    /// `asym:FORWARD:BACKWARD`, or `slow:BASE:SLOW:FRAC_PPM`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        // Each field parses at its own width, so an out-of-range value
        // is an error rather than a silent truncation.
        fn int<T: std::str::FromStr>(s: &str, spec: &str) -> Result<T, String> {
            s.parse()
                .map_err(|_| format!("bad latency parameter {s:?} in {spec:?}"))
        }
        let model = match parts.as_slice() {
            ["const", t] => LatencyModel::Constant {
                ticks: int(t, spec)?,
            },
            ["uniform", lo, hi] => LatencyModel::Uniform {
                min: int(lo, spec)?,
                max: int(hi, spec)?,
            },
            ["lognormal", mu, sigma, cap] => LatencyModel::LogNormal {
                mu_milli: int(mu, spec)?,
                sigma_milli: int(sigma, spec)?,
                cap: int(cap, spec)?,
            },
            ["asym", f, b] => LatencyModel::Asymmetric {
                forward: int(f, spec)?,
                backward: int(b, spec)?,
            },
            ["slow", b, s, f] => LatencyModel::Slow {
                base: int(b, spec)?,
                slow: int(s, spec)?,
                frac_ppm: int(f, spec)?,
            },
            _ => {
                return Err(format!(
                    "unknown latency model {spec:?} \
                     (expected const:T | uniform:MIN:MAX | \
                     lognormal:MU_MILLI:SIGMA_MILLI:CAP | asym:F:B | \
                     slow:BASE:SLOW:FRAC_PPM)"
                ))
            }
        };
        model.validate()?;
        Ok(model)
    }

    /// Draws the delivery latency of one transmission, in ticks
    /// (`>= 1`). Pure in all arguments: the same
    /// `(seed, src, dst, tick, sequence, attempt)` always yields the
    /// same latency, via the dedicated counter-based stream.
    ///
    /// `attempt` is 0 for the original send and counts retransmission
    /// attempts from 1, mirroring [`crate::fate`]'s axis.
    pub fn sample(
        &self,
        seed: u64,
        src: usize,
        dst: usize,
        tick: u64,
        sequence: u64,
        attempt: u32,
    ) -> u64 {
        match *self {
            LatencyModel::Constant { ticks } => ticks,
            LatencyModel::Uniform { min, max } => {
                if min == max {
                    return min;
                }
                let mut rng = message_latency_rng(seed, src, tick, sequence, attempt);
                rng.random_range(min..=max)
            }
            LatencyModel::LogNormal {
                mu_milli,
                sigma_milli,
                cap,
            } => {
                let mut rng = message_latency_rng(seed, src, tick, sequence, attempt);
                // Box–Muller; `1 - u1` keeps the logarithm finite since
                // the uniform draw lives in `[0, 1)`.
                let u1: f64 = rng.random();
                let u2: f64 = rng.random();
                let z = (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let mu = mu_milli as f64 / 1000.0;
                let sigma = sigma_milli as f64 / 1000.0;
                let ticks = (mu + sigma * z).exp().round();
                if ticks.is_finite() {
                    (ticks as u64).clamp(1, cap)
                } else {
                    cap
                }
            }
            LatencyModel::Asymmetric { forward, backward } => {
                if src < dst {
                    forward
                } else {
                    backward
                }
            }
            LatencyModel::Slow {
                base,
                slow,
                frac_ppm,
            } => {
                // Grey failure affects all of a slow node's traffic:
                // both what it sends and what is sent to it.
                if is_slow_node(seed, src, frac_ppm) || is_slow_node(seed, dst, frac_ppm) {
                    slow
                } else {
                    base
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_strings_round_trip() {
        for model in [
            LatencyModel::Constant { ticks: 3 },
            LatencyModel::Uniform { min: 1, max: 8 },
            LatencyModel::LogNormal {
                mu_milli: 1200,
                sigma_milli: 800,
                cap: 32,
            },
            LatencyModel::Asymmetric {
                forward: 1,
                backward: 8,
            },
            LatencyModel::Slow {
                base: 1,
                slow: 16,
                frac_ppm: 50_000,
            },
        ] {
            assert_eq!(LatencyModel::parse(&model.name()), Ok(model));
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        for spec in [
            "bogus",
            "const:0",
            "const:x",
            "uniform:0:4",
            "uniform:5:2",
            "uniform:1",
            "lognormal:1000:800:0",
            "asym:0:3",
            "slow:0:4:1000",
            "slow:8:2:1000",
            "slow:1:4:0",
            "slow:1:4:2000000",
            // Would truncate to 1 ppm and to μ = 1.2 at 32 bits.
            "slow:1:4:4294967297",
            "lognormal:4294968496:800:32",
            "",
        ] {
            assert!(LatencyModel::parse(spec).is_err(), "accepted {spec:?}");
        }
    }

    #[test]
    fn draws_are_pure_and_in_range() {
        let models = [
            LatencyModel::Uniform { min: 2, max: 9 },
            LatencyModel::LogNormal {
                mu_milli: 1200,
                sigma_milli: 900,
                cap: 40,
            },
        ];
        for model in models {
            let (lo, hi) = match model {
                LatencyModel::Uniform { min, max } => (min, max),
                LatencyModel::LogNormal { cap, .. } => (1, cap),
                _ => unreachable!(),
            };
            for seq in 0..200 {
                let a = model.sample(7, 3, 5, 11, seq, 0);
                let b = model.sample(7, 3, 5, 11, seq, 0);
                assert_eq!(a, b, "draw not pure");
                assert!((lo..=hi).contains(&a), "draw {a} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn heavy_tail_actually_spreads() {
        // Across many draws a lognormal with sigma ~0.9 must produce
        // both short and long latencies — otherwise the model degraded
        // to a constant.
        let model = LatencyModel::LogNormal {
            mu_milli: 1000,
            sigma_milli: 900,
            cap: 64,
        };
        let draws: Vec<u64> = (0..2000).map(|s| model.sample(1, 0, 1, 0, s, 0)).collect();
        let min = *draws.iter().min().unwrap();
        let max = *draws.iter().max().unwrap();
        assert!(min <= 2, "no short draws (min {min})");
        assert!(max >= 10, "no tail draws (max {max})");
    }

    #[test]
    fn asymmetric_depends_only_on_direction() {
        let model = LatencyModel::Asymmetric {
            forward: 2,
            backward: 7,
        };
        assert_eq!(model.sample(1, 0, 5, 3, 0, 0), 2);
        assert_eq!(model.sample(1, 5, 0, 3, 0, 0), 7);
    }

    #[test]
    fn slow_subset_is_stable_and_slows_both_directions() {
        let model = LatencyModel::Slow {
            base: 1,
            slow: 16,
            frac_ppm: 300_000,
        };
        let seed = 9;
        let slow_nodes: Vec<usize> = (0..64)
            .filter(|&i| is_slow_node(seed, i, 300_000))
            .collect();
        assert!(!slow_nodes.is_empty(), "no slow nodes at 30%");
        assert!(slow_nodes.len() < 64, "every node slow at 30%");
        let s = slow_nodes[0];
        let healthy = (0..64).find(|i| !slow_nodes.contains(i)).unwrap();
        // Both directions of a slow node's traffic take the slow path,
        // at any tick/sequence (membership ignores those axes).
        for tick in 0..4 {
            assert_eq!(model.sample(seed, s, healthy, tick, 0, 0), 16);
            assert_eq!(model.sample(seed, healthy, s, tick, 7, 0), 16);
        }
        let other = (0..64)
            .find(|i| !slow_nodes.contains(i) && *i != healthy)
            .unwrap();
        assert_eq!(model.sample(seed, healthy, other, 0, 0, 0), 1);
        // A different seed re-keys the subset.
        let reseeded: Vec<usize> = (0..64)
            .filter(|&i| is_slow_node(seed ^ 0xdead, i, 300_000))
            .collect();
        assert_ne!(slow_nodes, reseeded, "subset ignores the seed");
    }

    #[test]
    fn attempt_axis_changes_jittered_draws() {
        let model = LatencyModel::Uniform { min: 1, max: 1000 };
        let by_attempt: Vec<u64> = (0..8).map(|a| model.sample(1, 0, 1, 0, 0, a)).collect();
        let distinct: std::collections::HashSet<_> = by_attempt.iter().collect();
        assert!(distinct.len() > 1, "attempt axis ignored: {by_attempt:?}");
    }
}
