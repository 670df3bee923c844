//! Archive summarization and diffing — the library half of the
//! `rd-inspect` binary, kept here so it is unit-testable.

use crate::archive::Archive;
use crate::prof::{ProfileMsg, ProfileReport};
use crate::recorder::DropTally;
use crate::span::Phase;
use std::fmt::Write as _;

/// Renders a human-readable summary of one archive: run identity,
/// verdict, headline totals, per-round distributions, phase timings,
/// worker utilization, and hot nodes.
pub fn summarize(archive: &Archive) -> String {
    let h = &archive.meta;
    let s = &archive.outcome;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run: {} on {}, n={}, seed={}, engine={}",
        h.algorithm, h.topology, h.n, h.seed, h.engine
    );
    let _ = writeln!(
        out,
        "verdict: {} in {} rounds, {:.3}s wall",
        s.verdict,
        s.rounds,
        wall_ns(archive) as f64 / 1e9
    );
    let d = drops(archive);
    let retrans = count(archive, "retransmissions_total");
    // Mention the adversarial classes only when they fired, so
    // fault-free summaries keep their historical shape.
    let adversarial = if d.link + d.suppression > 0 {
        format!(", link {}, suppression {}", d.link, d.suppression)
    } else {
        String::new()
    };
    let _ = writeln!(
        out,
        "totals: {} messages, {} pointers, {} dropped (coin {}, crash {}, partition {}{adversarial}), {retrans} retransmitted",
        s.messages,
        s.pointers,
        d.total(),
        d.coin,
        d.crash,
        d.partition
    );
    if let Some(last) = s.last_progress {
        let _ = writeln!(
            out,
            "stall: last knowledge progress at round {last} (of {} run)",
            s.rounds
        );
    }
    if let Some(tm) = &archive.trace_meta {
        let _ = writeln!(
            out,
            "causal: {} provenance edges (capacity {}, sampling {} ppm), {} offers, {} messages sampled out",
            tm.edges, tm.capacity, tm.sample_ppm, tm.candidates, tm.sampled_out
        );
        if tm.overflow > 0 {
            let _ = writeln!(
                out,
                "WARN: CAUSAL TRACE TRUNCATED — {} offers dropped at capacity; the provenance DAG is partial",
                tm.overflow
            );
        }
    }
    let span_overflow = count(archive, "span_overflow_total");
    if span_overflow > 0 {
        let _ = writeln!(out, "spans: {span_overflow} overflowed the span buffer");
    }

    if !archive.hists.is_empty() {
        let _ = writeln!(out, "\ndistributions:");
        let _ = writeln!(
            out,
            "  {:<24} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "name", "count", "mean", "p50", "p99", "max"
        );
        for hist in &archive.hists {
            let _ = writeln!(
                out,
                "  {:<24} {:>10} {:>12.1} {:>12} {:>12} {:>12}",
                hist.name, hist.count, hist.mean, hist.p50, hist.p99, hist.max
            );
        }
    }

    if !archive.phases.is_empty() {
        let _ = writeln!(out, "\nphase timings:");
        let _ = writeln!(
            out,
            "  {:<18} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "phase", "spans", "total_ms", "p50_us", "p99_us", "max_us"
        );
        for p in &archive.phases {
            let _ = writeln!(
                out,
                "  {:<18} {:>8} {:>12.3} {:>12.1} {:>12.1} {:>12.1}",
                p.phase.name(),
                p.count,
                p.total_ns as f64 / 1e6,
                p.p50_ns as f64 / 1e3,
                p.p99_ns as f64 / 1e3,
                p.max_ns as f64 / 1e3
            );
        }
    }

    if let Some(pm) = &archive.profile {
        let _ = writeln!(
            out,
            "\nprofile: {:.1}% of round wall attributed, utilization {:.1}%, imbalance mean {:.2} / max {:.2}",
            pm.coverage_pct, pm.utilization_pct, pm.imbalance_mean, pm.imbalance_max
        );
        memory_line(&mut out, pm);
        msg_table(&mut out, &pm.msgs);
    }

    if archive.workers.len() > 1 {
        let _ = writeln!(out, "\nworkers:");
        let busiest = archive.workers.iter().map(|w| w.busy_ns).max().unwrap_or(0);
        for w in &archive.workers {
            let rel = if busiest == 0 {
                1.0
            } else {
                w.busy_ns as f64 / busiest as f64
            };
            let _ = writeln!(
                out,
                "  worker {:>3}: {:>8} spans, {:>10.3} ms busy ({:>5.1}% of busiest)",
                w.worker,
                w.spans,
                w.busy_ns as f64 / 1e6,
                rel * 100.0
            );
        }
        if let Some(imb) = archive.gauges.get("worker_imbalance") {
            let _ = writeln!(out, "  imbalance (max/mean busy): {imb:.3}");
        }
    }

    for (metric, label) in [("sent", "top senders"), ("recv", "top receivers")] {
        if let Some(top) = archive.hot.get(metric) {
            if !top.is_empty() {
                let items: Vec<String> = top
                    .iter()
                    .map(|&(node, value)| format!("{node} ({value})"))
                    .collect();
                let _ = writeln!(out, "{label}: {}", items.join(", "));
            }
        }
    }
    out
}

/// Renders a field-by-field comparison of two archives: identity
/// mismatches, summary deltas, phase-total deltas, and counters that
/// differ. `label_a`/`label_b` caption the columns.
pub fn diff(label_a: &str, a: &Archive, label_b: &str, b: &Archive) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "a: {label_a}\nb: {label_b}");

    let ha = &a.meta;
    let hb = &b.meta;
    let identity = [
        ("algorithm", ha.algorithm.clone(), hb.algorithm.clone()),
        ("topology", ha.topology.clone(), hb.topology.clone()),
        ("n", ha.n.to_string(), hb.n.to_string()),
        ("seed", ha.seed.to_string(), hb.seed.to_string()),
        ("engine", ha.engine.clone(), hb.engine.clone()),
    ];
    let mismatched: Vec<&(&str, String, String)> =
        identity.iter().filter(|(_, x, y)| x != y).collect();
    if mismatched.is_empty() {
        let _ = writeln!(out, "identity: same run shape on both sides");
    } else {
        let _ = writeln!(out, "identity differences:");
        for (name, x, y) in mismatched {
            let _ = writeln!(out, "  {name:<12} {x} -> {y}");
        }
    }

    let _ = writeln!(out, "\nsummary:");
    let _ = writeln!(
        out,
        "  {:<20} {:>16} {:>16} {:>10}",
        "field", "a", "b", "delta"
    );
    let (sa, sb) = (&a.outcome, &b.outcome);
    let (da, db) = (drops(a), drops(b));
    let retrans = "retransmissions_total";
    for (name, x, y) in [
        ("rounds", sa.rounds, sb.rounds),
        ("messages", sa.messages, sb.messages),
        ("pointers", sa.pointers, sb.pointers),
        ("retransmissions", count(a, retrans), count(b, retrans)),
        ("dropped_coin", da.coin, db.coin),
        ("dropped_crash", da.crash, db.crash),
        ("dropped_partition", da.partition, db.partition),
        ("dropped_link", da.link, db.link),
        ("dropped_suppression", da.suppression, db.suppression),
        ("wall_ns_total", wall_ns(a), wall_ns(b)),
    ] {
        let _ = writeln!(
            out,
            "  {:<20} {:>16} {:>16} {:>10}",
            name,
            x,
            y,
            delta_pct(x, y)
        );
    }
    if sa.verdict != sb.verdict {
        let _ = writeln!(
            out,
            "  verdict              {} -> {}",
            sa.verdict, sb.verdict
        );
    }

    // Every phase either side timed: one engine may time a step inside
    // another phase's span, so a phase one side lacks is still a row.
    let total = |x: &Archive, phase| {
        x.phases
            .iter()
            .find(|p| p.phase == phase)
            .map(|p| p.total_ns)
    };
    let rows: Vec<_> = Phase::ALL
        .into_iter()
        .map(|phase| (phase, total(a, phase), total(b, phase)))
        .filter(|&(_, x, y)| x.is_some() || y.is_some())
        .collect();
    if !rows.is_empty() {
        let ms = |ns: Option<u64>| ns.map_or("-".into(), |ns| format!("{:.3}", ns as f64 / 1e6));
        let _ = writeln!(out, "\nphase totals (ms):");
        for (phase, x, y) in rows {
            let delta = match (x, y) {
                (Some(x), Some(y)) => delta_pct(x, y),
                (Some(_), None) => "a only".into(),
                _ => "b only".into(),
            };
            let _ = writeln!(
                out,
                "  {:<18} {:>14} {:>14} {:>10}",
                phase.name(),
                ms(x),
                ms(y),
                delta
            );
        }
    }

    let mut divergent: Vec<String> = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        a.counters.keys().chain(b.counters.keys()).collect();
    for name in names {
        let x = a.counters.get(name).copied().unwrap_or(0);
        let y = b.counters.get(name).copied().unwrap_or(0);
        if x != y {
            divergent.push(format!(
                "  {name:<28} {x:>14} {y:>14} {:>10}",
                delta_pct(x, y)
            ));
        }
    }
    if divergent.is_empty() {
        let _ = writeln!(out, "\ncounters: identical on both sides");
    } else {
        let _ = writeln!(out, "\ncounters that differ:");
        for line in divergent {
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

/// Renders the top-down cost-attribution table of a profiled archive:
/// per-phase wall share and ns/envelope, message-kind costs, and memory
/// peaks. Errors when the archive carries no profile section.
pub fn profile_report(archive: &Archive) -> Result<String, String> {
    let pm = archive
        .profile
        .as_ref()
        .ok_or("archive has no profile section (run with profiling enabled)")?;
    let h = &archive.meta;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {} on {}, n={}, seed={}, engine={}",
        h.algorithm, h.topology, h.n, h.seed, h.engine
    );
    let _ = writeln!(
        out,
        "attribution: {:.1}% of round wall time covered across {} phases",
        pm.coverage_pct,
        pm.phases.len()
    );
    let _ = writeln!(
        out,
        "shards: utilization {:.1}%, imbalance mean {:.2} / max {:.2}",
        pm.utilization_pct, pm.imbalance_mean, pm.imbalance_max
    );
    let _ = writeln!(
        out,
        "  {:<18} {:>12} {:>11} {:>13}",
        "phase", "total_ms", "% of wall", "ns/envelope"
    );
    let mut total_ns = 0u64;
    let mut total_pct = 0.0f64;
    let mut total_nspe = 0.0f64;
    for p in &pm.phases {
        let _ = writeln!(
            out,
            "  {:<18} {:>12.3} {:>11.1} {:>13.1}",
            p.phase.name(),
            p.total_ns as f64 / 1e6,
            p.round_pct,
            p.ns_per_envelope
        );
        total_ns += p.total_ns;
        total_pct += p.round_pct;
        total_nspe += p.ns_per_envelope;
    }
    let _ = writeln!(
        out,
        "  {:<18} {:>12.3} {:>11.1} {:>13.1}",
        "(attributed)",
        total_ns as f64 / 1e6,
        total_pct,
        total_nspe
    );
    if !pm.msgs.is_empty() {
        let _ = writeln!(out, "\nmessage kinds:");
        msg_table(&mut out, &pm.msgs);
    }
    out.push('\n');
    memory_line(&mut out, pm);
    Ok(out)
}

/// Renders a profiled archive's phase attribution as folded stacks
/// (`engine;phase total_ns`, one line per phase) for flamegraph
/// tooling. Profile phase records carry no per-worker split; the
/// archive's `worker` records and the `worker_imbalance` gauge hold the
/// shard view.
pub fn flame(archive: &Archive) -> Result<String, String> {
    let pm = archive
        .profile
        .as_ref()
        .ok_or("archive has no profile section (run with profiling enabled)")?;
    let mut out = String::new();
    for p in &pm.phases {
        let _ = writeln!(
            out,
            "{};{} {}",
            archive.meta.engine,
            p.phase.name(),
            p.total_ns
        );
    }
    Ok(out)
}

/// The message-kind cost table (nothing without kinds).
fn msg_table(out: &mut String, msgs: &[ProfileMsg]) {
    if msgs.is_empty() {
        return;
    }
    let _ = writeln!(
        out,
        "  {:<20} {:>12} {:>14} {:>13}",
        "kind", "envelopes", "payload_bytes", "ns/envelope"
    );
    for m in msgs {
        let _ = writeln!(
            out,
            "  {:<20} {:>12} {:>14} {:>13.1}",
            m.kind, m.envelopes, m.payload_bytes, m.ns_per_envelope
        );
    }
}

/// The profile's memory peaks, one line.
fn memory_line(out: &mut String, pm: &ProfileReport) {
    let _ = writeln!(
        out,
        "memory: peak knowledge {}, est. peak RSS {} ({} samples)",
        fmt_bytes(pm.peak_knowledge_bytes),
        fmt_bytes(pm.peak_rss_bytes),
        pm.samples
    );
}

/// `12.3 KiB` / `4.0 MiB` style rendering for memory figures.
fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

fn count(a: &Archive, name: &str) -> u64 {
    a.counters.get(name).copied().unwrap_or(0)
}

/// The run's drops, from its `dropped_<cause>_total` counters.
fn drops(a: &Archive) -> DropTally {
    let total = |cause: &str| count(a, &format!("dropped_{cause}_total"));
    DropTally {
        coin: total("coin"),
        crash: total("crash"),
        partition: total("partition"),
        link: total("link"),
        suppression: total("suppression"),
    }
}

/// Summed round wall time.
fn wall_ns(a: &Archive) -> u64 {
    a.rounds.iter().map(|r| r.wall_ns).sum()
}

fn delta_pct(a: u64, b: u64) -> String {
    if a == b {
        return "=".to_string();
    }
    if a == 0 {
        return "new".to_string();
    }
    format!("{:+.1}%", (b as f64 - a as f64) / a as f64 * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive;

    fn archive_from(text: &str) -> Archive {
        archive::parse(text).unwrap()
    }

    fn sample(messages: u64) -> String {
        format!(
            concat!(
                "{{\"type\":\"header\",\"schema\":7,\"algorithm\":\"hm\",\"topology\":\"k-out-3\",\"n\":64,\"seed\":\"7\",\"engine\":\"sharded:2\",\"workers\":2,\"latency_model\":null}}\n",
                "{{\"type\":\"round\",\"round\":1,\"wall_ns\":1000,\"messages\":{m},\"pointers\":9,\"dropped_coin\":1,\"dropped_crash\":0,\"dropped_partition\":0,\"dropped_link\":0,\"dropped_suppression\":0,\"retransmissions\":0,\"knowledge_delta\":null}}\n",
                "{{\"type\":\"phase\",\"phase\":\"route_shard\",\"count\":2,\"total_ns\":800,\"p50_ns\":400,\"p99_ns\":500,\"max_ns\":500}}\n",
                "{{\"type\":\"worker\",\"worker\":0,\"spans\":2,\"busy_ns\":700}}\n",
                "{{\"type\":\"worker\",\"worker\":1,\"spans\":2,\"busy_ns\":500}}\n",
                "{{\"type\":\"counter\",\"name\":\"messages_total\",\"value\":{m}}}\n",
                "{{\"type\":\"counter\",\"name\":\"dropped_coin_total\",\"value\":1}}\n",
                "{{\"type\":\"gauge\",\"name\":\"worker_imbalance\",\"value\":1.17}}\n",
                "{{\"type\":\"hist\",\"name\":\"round_messages\",\"count\":1,\"mean\":{m},\"min\":{m},\"p50\":{m},\"p90\":{m},\"p99\":{m},\"max\":{m}}}\n",
                "{{\"type\":\"hot_nodes\",\"name\":\"sent\",\"value\":[{{\"node\":3,\"value\":5}}]}}\n",
                "{{\"type\":\"hot_nodes\",\"name\":\"recv\",\"value\":[]}}\n",
                "{{\"type\":\"summary\",\"verdict\":\"complete-sound\",\"completed\":true,\"sound\":true,\"rounds\":1,\"messages\":{m},\"pointers\":9,\"trace_events\":0,\"trace_overflow\":0,\"last_progress\":null}}\n",
            ),
            m = messages
        )
    }

    #[test]
    fn summarize_covers_the_headline_sections() {
        let text = summarize(&archive_from(&sample(42)));
        assert!(text.contains("hm on k-out-3, n=64"));
        assert!(text.contains("complete-sound in 1 rounds"));
        assert!(text.contains("route_shard"));
        assert!(text.contains("top senders: 3 (5)"));
        assert!(text.contains("imbalance"));
        assert!(!text.contains("TRUNCATED"));
    }

    #[test]
    fn summarize_surfaces_stall_watermark_and_adversarial_drops() {
        let text = sample(42)
            .replace("\"last_progress\":null", "\"last_progress\":7")
            .replace(
                "{\"type\":\"counter\",\"name\":\"dropped_coin_total\",\"value\":1}",
                concat!(
                    "{\"type\":\"counter\",\"name\":\"dropped_coin_total\",\"value\":1}\n",
                    "{\"type\":\"counter\",\"name\":\"dropped_link_total\",\"value\":4}\n",
                    "{\"type\":\"counter\",\"name\":\"dropped_suppression_total\",\"value\":2}"
                ),
            );
        let out = summarize(&archive_from(&text));
        assert!(out.contains("last knowledge progress at round 7"), "{out}");
        assert!(out.contains("link 4, suppression 2"), "{out}");
        assert!(out.contains("7 dropped"), "{out}");

        // Fault-free archives keep the historical two-class shape.
        let plain = summarize(&archive_from(&sample(42)));
        assert!(!plain.contains("link"), "{plain}");
        assert!(!plain.contains("stall:"), "{plain}");
    }

    #[test]
    fn summarize_reports_causal_sections_and_overflow() {
        let text = sample(42).replace(
                "{\"type\":\"summary\"",
                concat!(
                    "{\"type\":\"trace_meta\",\"capacity\":128,\"sample_ppm\":250000,",
                    "\"edges\":1,\"candidates\":9,\"sampled_out\":3,\"overflow\":2}\n",
                    "{\"type\":\"edge\",\"id\":1,\"node\":2,\"src\":0,\"sent\":1,\"round\":2,\"seq\":0}\n",
                    "{\"type\":\"summary\""
                ),
            );
        let out = summarize(&archive_from(&text));
        assert!(out.contains("causal: 1 provenance edges"), "{out}");
        assert!(out.contains("250000 ppm"), "{out}");
        assert!(out.contains("WARN: CAUSAL TRACE TRUNCATED"), "{out}");
    }

    fn profiled_sample() -> String {
        sample(42).replace(
                "{\"type\":\"summary\"",
                concat!(
                    "{\"type\":\"profile_meta\",\"coverage_pct\":95.5,\"samples\":2,\"utilization_pct\":80.2,",
                    "\"imbalance_mean\":1.05,\"imbalance_max\":1.2,\"peak_knowledge_bytes\":2097152,",
                    "\"peak_rss_bytes\":3145728}\n",
                    "{\"type\":\"profile_phase\",\"phase\":\"on_round\",\"total_ns\":600000,\"round_pct\":60,\"ns_per_envelope\":14.3}\n",
                    "{\"type\":\"profile_phase\",\"phase\":\"route_shard\",\"total_ns\":300000,\"round_pct\":30,\"ns_per_envelope\":7.1}\n",
                    "{\"type\":\"profile_msg\",\"kind\":\"Rumor\",\"envelopes\":42,\"payload_bytes\":2016,\"ns_per_envelope\":23.8}\n",
                    "{\"type\":\"profile_mem\",\"round\":1,\"knowledge_bytes\":1048576,\"rss_bytes\":2097152}\n",
                    "{\"type\":\"profile_mem\",\"round\":2,\"knowledge_bytes\":2097152,\"rss_bytes\":3145728}\n",
                    "{\"type\":\"summary\""
                ),
            )
    }

    #[test]
    fn summarize_gains_profile_and_memory_columns_when_present() {
        let out = summarize(&archive_from(&profiled_sample()));
        assert!(
            out.contains("profile: 95.5% of round wall attributed"),
            "{out}"
        );
        assert!(out.contains("imbalance mean 1.05 / max 1.20"), "{out}");
        assert!(
            out.contains("memory: peak knowledge 2.0 MiB, est. peak RSS 3.0 MiB"),
            "{out}"
        );
        assert!(out.contains("ns/envelope"), "{out}");
        assert!(out.contains("Rumor"), "{out}");

        // Un-profiled archives keep their historical shape.
        let plain = summarize(&archive_from(&sample(42)));
        assert!(!plain.contains("profile:"), "{plain}");
        assert!(!plain.contains("memory:"), "{plain}");
    }

    #[test]
    fn profile_report_renders_attribution_table() {
        let a = archive_from(&profiled_sample());
        let out = profile_report(&a).unwrap();
        assert!(
            out.contains("attribution: 95.5% of round wall time covered"),
            "{out}"
        );
        assert!(out.contains("on_round"), "{out}");
        assert!(out.contains("(attributed)"), "{out}");
        assert!(out.contains("message kinds:"), "{out}");
        assert!(out.contains("utilization 80.2%"), "{out}");
        assert!(out.contains("est. peak RSS 3.0 MiB (2 samples)"), "{out}");

        let plain = archive_from(&sample(42));
        assert!(profile_report(&plain).is_err());
    }

    #[test]
    fn flame_emits_one_stack_per_profiled_phase() {
        let a = archive_from(&profiled_sample());
        let out = flame(&a).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "sharded:2;on_round 600000");
        assert_eq!(lines[1], "sharded:2;route_shard 300000");

        let plain = archive_from(&sample(42));
        assert!(flame(&plain).is_err());
    }

    #[test]
    fn diff_reports_identical_and_divergent_runs() {
        let a = archive_from(&sample(100));
        let same = diff("a.jsonl", &a, "b.jsonl", &a);
        assert!(same.contains("counters: identical"));
        assert!(same.contains("same run shape"));

        let b = archive_from(&sample(150));
        let changed = diff("a.jsonl", &a, "b.jsonl", &b);
        assert!(changed.contains("+50.0%"));
        assert!(changed.contains("messages_total"));
    }

    #[test]
    fn diff_lists_phases_present_on_one_side_only() {
        let with_phase = |name: &str, ns: u64| {
            let row = format!(
                "{{\"type\":\"phase\",\"phase\":\"{name}\",\"count\":1,\"total_ns\":{ns},\"p50_ns\":{ns},\"p99_ns\":{ns},\"max_ns\":{ns}}}\n"
            );
            let worker = "{\"type\":\"worker\",\"worker\":0";
            archive_from(&sample(100).replace(worker, &(row + worker)))
        };
        let a = with_phase("on_round", 2_000_000);
        let b = with_phase("apply_deltas", 3_000_000);
        let out = diff("a.jsonl", &a, "b.jsonl", &b);
        let row = |name: &str| {
            let found = out.lines().find(|l| l.trim_start().starts_with(name));
            found.unwrap_or_else(|| panic!("no {name} row in {out}"))
        };
        assert!(row("route_shard").ends_with('='), "{out}");
        let a_only = row("on_round");
        assert!(a_only.contains("2.000") && a_only.contains(" - "), "{out}");
        assert!(a_only.ends_with("a only"), "{out}");
        let b_only = row("apply_deltas");
        assert!(
            b_only.contains("3.000") && b_only.ends_with("b only"),
            "{out}"
        );
    }
}
