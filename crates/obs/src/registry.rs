//! Counter / gauge / histogram registry.
//!
//! A flat, name-keyed metrics store: counters are monotone `u64`s,
//! gauges are last-write-wins `f64`s, histograms are
//! [`Histogram`](crate::hist::Histogram)s. Names are `snake_case`, with
//! a `_total` suffix on counters. `BTreeMap` keys keep every iteration
//! order — and therefore the archive — deterministic.

use crate::hist::Histogram;
use std::collections::BTreeMap;

/// The run-wide metrics store fed by the [`Recorder`](crate::Recorder)
/// and dumped into the run archive.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the counter `name`, creating it at zero.
    pub fn add_counter(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Sets the gauge `name` to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records `v` into the histogram `name`, creating it empty.
    pub fn record(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Merges a pre-built histogram into the one stored under `name`
    /// (used when timings are aggregated outside the registry first).
    pub fn record_hist_merge(&mut self, name: &str, hist: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(hist);
    }

    /// Current value of counter `name`, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Current value of gauge `name`, if it exists.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.add_counter("messages_total", 3);
        r.add_counter("messages_total", 4);
        r.set_gauge("pool_hit_rate", 0.5);
        r.set_gauge("pool_hit_rate", 0.75);
        assert_eq!(r.counter("messages_total"), Some(7));
        assert_eq!(r.gauge("pool_hit_rate"), Some(0.75));
        assert_eq!(r.counter("missing"), None);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut r = MetricsRegistry::new();
        r.add_counter("zeta_total", 1);
        r.add_counter("alpha_total", 1);
        r.record("z_hist", 1);
        r.record("a_hist", 2);
        let names: Vec<&str> = r.counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["alpha_total", "zeta_total"]);
        let hists: Vec<&str> = r.histograms().map(|(k, _)| k).collect();
        assert_eq!(hists, ["a_hist", "z_hist"]);
    }
}
