//! How a run's outcome is printed and written.

use crate::bench::{Metric, Outcome};
use crate::host::HostFacts;
use crate::spec::MetricSpec;
use resource_discovery::obs::json::{escape, fmt_f64};
use std::fmt::Write as _;

/// The outcome's metric called `spec.name`, checked against the unit
/// `BENCHMARK.json` gives it.
fn find<'a>(outcome: &'a Outcome, spec: &MetricSpec) -> Result<&'a Metric, String> {
    let metric = outcome
        .metrics
        .iter()
        .find(|m| m.name == spec.name)
        .ok_or_else(|| format!("BENCHMARK.json lists {}, which was not measured", spec.name))?;
    if metric.unit != spec.unit {
        return Err(format!(
            "{} is measured in {} but BENCHMARK.json says {}",
            spec.name, metric.unit, spec.unit
        ));
    }
    if !metric.value().is_finite() {
        return Err(format!("{} is not a number", spec.name));
    }
    Ok(metric)
}

/// The result as the one JSON object the benchmark's contract asks for:
/// exactly the `listed` metrics, each with its reported statistic as
/// `value`.
pub fn result_line(outcome: &Outcome, listed: &[MetricSpec]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for spec in listed {
        let metric = find(outcome, spec)?;
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            escape(metric.name),
            fmt_f64(metric.value()),
            escape(metric.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

/// The human-readable table: every measured metric with its unit, its
/// value (the minimum for end-to-end timings, else the median), median,
/// quartiles and sample size, and its bound where it has one.
pub fn table(outcome: &Outcome, listed: &[MetricSpec]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<38} {:<6} {:>14} {:>14} {:>14} {:>14} {:>4}  bound",
        "metric", "unit", "value", "median", "q1", "q3", "n"
    );
    for m in &outcome.metrics {
        let bound = listed
            .iter()
            .find(|s| s.name == m.name)
            .and_then(|s| s.bound)
            .map_or(String::new(), |b| format!("{:.0} %", b * 100.0));
        let s = m.summary();
        let _ = writeln!(
            out,
            "  {:<38} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}  {bound}",
            m.name,
            m.unit,
            m.value(),
            s.median,
            s.q1,
            s.q3,
            s.n
        );
    }
    for note in &outcome.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    let _ = writeln!(
        out,
        "  reps attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
    for problem in &outcome.problems {
        let _ = writeln!(out, "  FAILED {problem}");
    }
    out
}

/// The same as machine-readable JSON, stamped with the host's facts.
pub fn file_json(
    workload: &str,
    mode: &str,
    seed: u64,
    seconds: f64,
    host: &HostFacts,
    outcome: &Outcome,
) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let s = m.summary();
            let samples: Vec<String> = m.samples.iter().map(|&v| fmt_f64(v)).collect();
            format!(
                "    {}: {{\"unit\": {}, \"value\": {}, \"min\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}}",
                escape(m.name),
                escape(m.unit),
                fmt_f64(m.value()),
                fmt_f64(s.min),
                fmt_f64(s.median),
                fmt_f64(s.q1),
                fmt_f64(s.q3),
                s.n,
                samples.join(", ")
            )
        })
        .collect();
    let strings = |items: &[String]| -> String {
        items
            .iter()
            .map(|s| escape(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\n  \"workload\": {},\n  \"mode\": {},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"host\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [{}],\n  \"notes\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        escape(workload),
        escape(mode),
        host.to_json(),
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        strings(&outcome.problems),
        strings(&outcome.notes),
        metrics.join(",\n")
    )
}
