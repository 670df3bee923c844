//! The [`ObsSink`] trait and the built-in exporters.
//!
//! A sink sees a run once, at the end, with the fully assembled
//! [`ObsReport`] (`on_finish`): the most useful views (distributions,
//! knowledge deltas, worker imbalance) only exist once the run is
//! complete.

use crate::json::{escape, fmt_f64};
use crate::recorder::{ObsReport, RunMeta};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Where exported telemetry goes.
pub trait ObsSink: Send {
    /// The run ended; `report` is final. Exporters write here.
    fn on_finish(&mut self, _report: &ObsReport) -> io::Result<()> {
        Ok(())
    }
}

/// Writes the JSONL run archive (one file per run, one record per
/// line — see `crate::archive` for the schema).
pub struct JsonlArchiveSink {
    path: PathBuf,
}

impl JsonlArchiveSink {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonlArchiveSink { path: path.into() }
    }
}

impl ObsSink for JsonlArchiveSink {
    fn on_finish(&mut self, report: &ObsReport) -> io::Result<()> {
        write_atomic(&self.path, &crate::archive::render(report))
    }
}

/// Writes Chrome trace-event JSON (the "JSON object format"), loadable
/// in Perfetto / `chrome://tracing` for a flame-style view of a run:
/// one track per worker, one slice per span.
pub struct ChromeTraceSink {
    path: PathBuf,
}

impl ChromeTraceSink {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        ChromeTraceSink { path: path.into() }
    }
}

impl ObsSink for ChromeTraceSink {
    fn on_finish(&mut self, report: &ObsReport) -> io::Result<()> {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        // Metadata events first, so Perfetto labels the process and
        // every shard lane instead of showing bare pid/tid numbers.
        // Everything here derives from run identity and the span set,
        // so the trace stays deterministic for a deterministic run.
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":{}}}}}",
                escape(&format!(
                    "{} on {} (n={})",
                    report.meta.algorithm, report.meta.engine, report.meta.n
                ))
            ),
        );
        let lane = if report.meta.workers > 1 {
            "shard"
        } else {
            "worker"
        };
        for w in report.workers.iter().map(|w| w.worker) {
            push_event(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{w},\"args\":{{\"name\":\"{lane} {w}\"}}}}"
                ),
            );
        }
        for s in &report.spans {
            // Trace-event timestamps are microseconds; keep sub-µs
            // resolution as a fraction.
            push_event(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":{},\"cat\":\"engine\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"round\":{}}}}}",
                    escape(s.phase.name()),
                    fmt_f64(s.start_ns as f64 / 1e3),
                    fmt_f64(s.dur_ns as f64 / 1e3),
                    s.worker,
                    s.round
                ),
            );
        }
        let _ = write!(
            out,
            "\n],\"otherData\":{{\"algorithm\":{},\"engine\":{},\"n\":{},\"seed\":{},\"span_overflow\":{}}}}}\n",
            escape(&report.meta.algorithm),
            escape(&report.meta.engine),
            report.meta.n,
            escape(&report.meta.seed.to_string()),
            report.span_overflow
        );
        write_atomic(&self.path, &out)
    }
}

fn push_event(out: &mut String, first: &mut bool, event: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(event);
}

/// Writes Prometheus text exposition (format 0.0.4): every registry
/// counter and gauge as an `rd_`-prefixed metric with run-identity
/// labels, histograms as summaries with `quantile` labels. Every family
/// gets `# HELP`/`# TYPE` lines and label values are escaped per the
/// spec (a conformance check in this module's tests pins both).
pub struct PrometheusSink {
    path: PathBuf,
}

impl PrometheusSink {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        PrometheusSink { path: path.into() }
    }
}

impl ObsSink for PrometheusSink {
    fn on_finish(&mut self, report: &ObsReport) -> io::Result<()> {
        let labels = prom_run_labels(&report.meta);
        let mut out = String::new();
        for (name, v) in report.registry.counters() {
            let full = format!("rd_{name}");
            prom_type(
                &mut out,
                &full,
                "Run-total counter from the rd-obs registry.",
                "counter",
            );
            prom_sample(&mut out, &full, &labels, v as f64);
        }
        for (name, v) in report.registry.gauges() {
            let full = format!("rd_{name}");
            prom_type(
                &mut out,
                &full,
                "End-of-run gauge from the rd-obs registry.",
                "gauge",
            );
            prom_sample(&mut out, &full, &labels, v);
        }
        for (name, h) in report.registry.histograms() {
            let full = format!("rd_{name}");
            prom_type(
                &mut out,
                &full,
                "Per-round distribution, exported as a summary.",
                "summary",
            );
            for q in [0.5, 0.9, 0.99, 1.0] {
                let mut ql = labels.clone();
                let _ = write!(ql, ",quantile=\"{q}\"");
                prom_sample(&mut out, &full, &ql, h.quantile(q) as f64);
            }
            prom_sample(&mut out, &format!("{full}_sum"), &labels, h.sum() as f64);
            prom_sample(
                &mut out,
                &format!("{full}_count"),
                &labels,
                h.count() as f64,
            );
        }
        write_atomic(&self.path, &out)
    }
}

/// Escapes a label value for the text exposition format: backslash,
/// double quote, and newline are the three characters the spec requires
/// escaping inside `label="..."`.
fn prom_escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `pairs` as an escaped `key="value",...` label string (no
/// surrounding braces, so callers can append extra labels).
fn prom_labels(pairs: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (key, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"{}\"", prom_escape_label(value));
    }
    out
}

/// The run-identity labels every exposed sample carries.
fn prom_run_labels(meta: &RunMeta) -> String {
    prom_labels(&[
        ("algorithm", &meta.algorithm),
        ("topology", &meta.topology),
        ("engine", &meta.engine),
        ("n", &meta.n.to_string()),
        ("seed", &meta.seed.to_string()),
    ])
}

/// Writes a family's `# HELP`/`# TYPE` header. Help text escapes
/// backslash and newline (quotes are legal verbatim in HELP).
fn prom_type(out: &mut String, name: &str, help: &str, mtype: &str) {
    let help = help.replace('\\', "\\\\").replace('\n', "\\n");
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {mtype}");
}

/// Writes one sample line; `labels` comes pre-escaped from
/// [`prom_labels`] (pass `""` for a bare metric).
fn prom_sample(out: &mut String, name: &str, labels: &str, value: f64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {}", fmt_f64(value));
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {}", fmt_f64(value));
    }
}

/// Writes via a temp file + rename so a crashing run never leaves a
/// half-written artifact where a complete one is expected.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{DropTally, Recorder, RoundObs, RunMeta, RunOutcomeObs};
    use crate::span::Phase;
    use std::time::Instant;

    /// Validates text exposition: every sample's family must have `# HELP`
    /// and `# TYPE` lines before its first sample, label values must parse
    /// under the spec's escape rules, and sample values must be numbers.
    fn prom_check_conformance(text: &str) -> Result<(), String> {
        let mut helped: Vec<String> = Vec::new();
        let mut typed: Vec<String> = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest
                    .split_whitespace()
                    .next()
                    .ok_or_else(|| format!("line {lineno}: HELP without a metric name"))?;
                helped.push(name.to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a metric name"))?;
                let mtype = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a type"))?;
                if !["counter", "gauge", "summary", "histogram", "untyped"].contains(&mtype) {
                    return Err(format!("line {lineno}: unknown metric type {mtype:?}"));
                }
                typed.push(name.to_string());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let name = prom_check_sample(line).map_err(|e| format!("line {lineno}: {e}"))?;
            // A summary/histogram sample may carry a `_sum`/`_count`/
            // `_bucket` suffix; fold it back onto the base family unless
            // the raw name is itself a declared family.
            let family = if typed.iter().any(|t| t == &name) {
                name
            } else {
                ["_sum", "_count", "_bucket"]
                    .iter()
                    .find_map(|s| name.strip_suffix(s))
                    .filter(|base| !base.is_empty() && typed.iter().any(|t| t == base))
                    .map(str::to_string)
                    .unwrap_or(name)
            };
            if !typed.iter().any(|t| t == &family) {
                return Err(format!(
                    "line {lineno}: sample for {family:?} has no preceding # TYPE"
                ));
            }
            if !helped.iter().any(|h| h == &family) {
                return Err(format!(
                    "line {lineno}: sample for {family:?} has no preceding # HELP"
                ));
            }
        }
        Ok(())
    }

    /// Parses one sample line, returning the raw metric name.
    fn prom_check_sample(line: &str) -> Result<String, String> {
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len()
            && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b':')
        {
            i += 1;
        }
        if i == 0 || bytes[0].is_ascii_digit() {
            return Err("malformed metric name".into());
        }
        let name = &line[..i];
        if i < bytes.len() && bytes[i] == b'{' {
            i += 1;
            loop {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                if i == start {
                    return Err(format!("empty label name in {name}"));
                }
                if i >= bytes.len() || bytes[i] != b'=' {
                    return Err(format!("label without '=' in {name}"));
                }
                i += 1;
                if i >= bytes.len() || bytes[i] != b'"' {
                    return Err(format!("unquoted label value in {name}"));
                }
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(format!("unterminated label value in {name}"));
                    }
                    match bytes[i] {
                        b'"' => break,
                        b'\\' => {
                            i += 1;
                            if i >= bytes.len() || !matches!(bytes[i], b'\\' | b'"' | b'n') {
                                return Err(format!("bad escape in label value in {name}"));
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                i += 1;
                match bytes.get(i) {
                    Some(b',') => i += 1,
                    Some(b'}') => {
                        i += 1;
                        break;
                    }
                    _ => return Err(format!("label list not closed in {name}")),
                }
            }
        }
        let value = line[i..].trim();
        if value.is_empty() {
            return Err(format!("sample {name} has no value"));
        }
        if !matches!(value, "+Inf" | "-Inf" | "NaN") && value.parse::<f64>().is_err() {
            return Err(format!("sample {name} has non-numeric value {value:?}"));
        }
        Ok(name.to_string())
    }

    fn sample_report() -> ObsReport {
        let mut rec = Recorder::new(RunMeta {
            algorithm: "hm".into(),
            topology: "k-out-3".into(),
            n: 64,
            seed: 7,
            engine: "sharded:2".into(),
            workers: 2,
            latency_model: None,
        });
        rec.begin_round();
        rec.span_from(Phase::OnRound, 1, 0, Instant::now());
        rec.span_from(Phase::OnRound, 1, 1, Instant::now());
        rec.end_round(RoundObs {
            round: 1,
            wall_ns: 0,
            messages: 12,
            pointers: 30,
            drops: DropTally::default(),
            retransmissions: 0,
            knowledge_delta: None,
        });
        rec.finish(
            RunOutcomeObs {
                verdict: "complete-sound".into(),
                completed: true,
                sound: true,
                rounds: 1,
                messages: 12,
                pointers: 30,
                trace_events: 0,
                trace_overflow: 0,
                last_progress: None,
            },
            &[3, 1],
            &[2, 2],
            &[],
            &[("delay", 4, 2)],
        )
        .unwrap()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_slice_per_span() {
        let report = sample_report();
        let dir = std::env::temp_dir().join("rd_obs_sink_test_chrome");
        let path = dir.join("trace.json");
        ChromeTraceSink::new(&path).on_finish(&report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v = crate::json::Json::parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let slices = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .count();
        assert_eq!(slices, report.spans.len());
        // Perfetto labelling: one process_name metadata event, and one
        // thread_name per lane (meta.workers > 1 ⇒ lanes are shards).
        let meta_name = |event: &crate::json::Json| -> Option<String> {
            event.get("args")?.get("name")?.as_str().map(str::to_string)
        };
        let process = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .expect("process_name metadata event");
        assert_eq!(meta_name(process).unwrap(), "hm on sharded:2 (n=64)");
        let threads: Vec<String> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .map(|e| meta_name(e).unwrap())
            .collect();
        assert_eq!(threads, vec!["shard 0", "shard 1"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prometheus_exposition_has_counters_and_quantiles() {
        let report = sample_report();
        let dir = std::env::temp_dir().join("rd_obs_sink_test_prom");
        let path = dir.join("run.prom");
        PrometheusSink::new(&path).on_finish(&report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("# HELP rd_messages_total "));
        assert!(text.contains("# TYPE rd_messages_total counter"));
        assert!(text.contains("rd_messages_total{algorithm=\"hm\""));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("rd_pool_delay_hit_rate"));
        prom_check_conformance(&text).expect("end-of-run exposition is conformant");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prometheus_escapes_hostile_label_values() {
        let mut report = sample_report();
        // Hostile run identity: every character class the text format
        // requires escaping inside a label value.
        report.meta.algorithm = "evil\"quote".into();
        report.meta.topology = "back\\slash".into();
        report.meta.engine = "new\nline".into();
        let dir = std::env::temp_dir().join("rd_obs_sink_test_prom_hostile");
        let path = dir.join("run.prom");
        PrometheusSink::new(&path).on_finish(&report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("algorithm=\"evil\\\"quote\""));
        assert!(text.contains("topology=\"back\\\\slash\""));
        assert!(text.contains("engine=\"new\\nline\""));
        assert!(
            !text.contains("new\nline"),
            "raw newline must never reach a label value"
        );
        prom_check_conformance(&text).expect("hostile labels still conformant");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn conformance_checker_rejects_bad_expositions() {
        // Sample without HELP/TYPE.
        assert!(prom_check_conformance("rd_x{a=\"b\"} 1\n").is_err());
        // TYPE present but HELP missing.
        assert!(prom_check_conformance("# TYPE rd_x gauge\nrd_x 1\n").is_err());
        // Unescaped backslash (bad escape sequence).
        let bad = "# HELP rd_x h\n# TYPE rd_x gauge\nrd_x{a=\"b\\q\"} 1\n";
        assert!(prom_check_conformance(bad).is_err());
        // Non-numeric value.
        let bad = "# HELP rd_x h\n# TYPE rd_x gauge\nrd_x{a=\"b\"} zebra\n";
        assert!(prom_check_conformance(bad).is_err());
        // Unknown metric type.
        assert!(prom_check_conformance("# TYPE rd_x flimsy\n").is_err());
        // A healthy document, with summary suffixes folding onto the
        // declared family.
        let good = "# HELP rd_s h\n# TYPE rd_s summary\nrd_s{quantile=\"0.5\"} 1\nrd_s_sum 2\nrd_s_count 1\n";
        prom_check_conformance(good).expect("summary suffixes fold onto family");
    }

    #[test]
    fn prom_label_helpers_escape_and_join() {
        assert_eq!(prom_escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(
            prom_labels(&[("alg", "h\"m"), ("n", "64")]),
            "alg=\"h\\\"m\",n=\"64\""
        );
        let mut out = String::new();
        prom_sample(&mut out, "rd_bare", "", 1.5);
        assert_eq!(out, "rd_bare 1.5\n");
    }
}
