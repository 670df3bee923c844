//! The JSONL run archive: one schema, optional sections.
//!
//! One file per run, one JSON object per line, `"type"` tagging the
//! record kind. Almost every line is one recorder value: the archive
//! writes the recorder's own types and parses back into them. Each type
//! lists its fields once, in its `Record::fields` walk; the writer walks
//! that list to render a line and the reader walks it to parse one.
//! Lines come in a fixed order, so archives diff cleanly as text:
//!
//! ```text
//! header          × 1          RunMeta, plus "schema"
//! round           × rounds     RoundObs
//! phase           × phases     PhaseSummary
//! worker          × workers    WorkerSummary
//! counter, gauge  × metrics    {"name", "value"}
//! hist            × metrics    HistSummary
//! hot_nodes       × 2          {"name": "sent" | "recv", "value": [{"node", "value"}, …]}
//! trace_meta      × 0..1       TraceMeta      ┐ the causal section,
//! edge            × edges      ProvEdge       ┘ when tracing was on
//! profile_meta    × 0..1       ProfileReport  ┐
//! profile_phase   × phases     ProfilePhase   │ the profile section,
//! profile_msg     × kinds      ProfileMsg     │ when profiling was on
//! profile_mem     × samples    ProfileMem     ┘
//! summary         × 1          RunOutcomeObs
//! ```
//!
//! Every archive declares [`SCHEMA_VERSION`]; a section is present or
//! absent, never versioned. Absent optional values render as `null`.
//! `seed` is a JSON *string*, because a full-range `u64` does not
//! survive the f64 number pipeline; every other integer must stay
//! within 2^53 for the same reason.
//!
//! [`validate`] reports every problem it finds: an unknown record type
//! or schema; a missing or malformed field (ids above `u32::MAX` and
//! unknown phase names included); a header that is not first or a
//! summary that is not last and unique; rounds, edges (by `(id, node)`)
//! or memory samples out of strictly ascending order; an edge or sample
//! count that disagrees with its meta record; and a section row before
//! its meta record.

use crate::hist::Histogram;
use crate::json::{escape, fmt_f64, Json};
use crate::prof::{ProfileMem, ProfileMsg, ProfilePhase, ProfileReport};
use crate::recorder::{
    DropTally, ObsReport, PhaseSummary, RoundObs, RunMeta, RunOutcomeObs, WorkerSummary,
};
use crate::span::Phase;
use crate::trace::{CausalTrace, ProvEdge};
use std::collections::BTreeMap;
use std::fmt::{Debug, Display, Write as _};

/// The one archive schema this crate reads and writes.
pub const SCHEMA_VERSION: u64 = 7;

/// A parsed archive, in the recorder's own types.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Archive {
    pub meta: RunMeta,
    pub rounds: Vec<RoundObs>,
    pub phases: Vec<PhaseSummary>,
    pub workers: Vec<WorkerSummary>,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub hists: Vec<HistSummary>,
    /// `"sent"`/`"recv"` → `(node, messages)`, hottest first.
    pub hot: BTreeMap<String, Vec<(u32, u64)>>,
    /// The causal section's meta record; `None` without causal tracing.
    pub trace_meta: Option<TraceMeta>,
    /// Provenance edges in ascending `(id, node)` order.
    pub edges: Vec<ProvEdge>,
    /// The profile section; `None` without profiling.
    pub profile: Option<ProfileReport>,
    pub outcome: RunOutcomeObs,
}

/// A registry histogram as archived: count, mean and quantiles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistSummary {
    pub name: String,
    pub count: u64,
    pub mean: f64,
    pub min: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

impl HistSummary {
    /// The archived summary of histogram `name`.
    pub fn of(name: &str, h: &Histogram) -> Self {
        HistSummary {
            name: name.to_string(),
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            max: h.max(),
        }
    }
}

/// The causal section's meta record: how the provenance DAG was bounded
/// and sampled. [`CausalTrace`] keeps these counters private.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceMeta {
    pub capacity: u64,
    pub sample_ppm: u32,
    /// How many `edge` records follow.
    pub edges: u64,
    pub candidates: u64,
    pub sampled_out: u64,
    pub overflow: u64,
}

impl TraceMeta {
    /// The meta record of `trace`.
    pub fn of(trace: &CausalTrace) -> Self {
        TraceMeta {
            capacity: trace.capacity() as u64,
            sample_ppm: trace.sample_ppm(),
            edges: trace.len() as u64,
            candidates: trace.candidates(),
            sampled_out: trace.sampled_out(),
            overflow: trace.overflow(),
        }
    }
}

/// Renders a finished run as the full archive text.
pub fn render(report: &ObsReport) -> String {
    let mut out = String::new();
    line(&mut out, "header", report.meta.clone());
    for r in &report.rounds {
        line(&mut out, "round", r.clone());
    }
    for p in &report.phases {
        line(&mut out, "phase", p.clone());
    }
    for w in &report.workers {
        line(&mut out, "worker", w.clone());
    }
    for (name, value) in report.registry.counters() {
        line(&mut out, "counter", (name.to_string(), value));
    }
    for (name, value) in report.registry.gauges() {
        line(&mut out, "gauge", (name.to_string(), value));
    }
    for (name, h) in report.registry.histograms() {
        line(&mut out, "hist", HistSummary::of(name, h));
    }
    for (name, top) in [
        ("sent", &report.hot_senders),
        ("recv", &report.hot_receivers),
    ] {
        line(&mut out, "hot_nodes", (name.to_string(), top.clone()));
    }
    if let Some(causal) = &report.causal {
        line(&mut out, "trace_meta", TraceMeta::of(causal));
        for e in causal.edges() {
            line(&mut out, "edge", *e);
        }
    }
    if let Some(prof) = &report.profile {
        // The meta record walks only the scalars, so copy only them.
        let scalars = ProfileReport {
            phases: Vec::new(),
            msgs: Vec::new(),
            mem: Vec::new(),
            ..*prof
        };
        line(&mut out, "profile_meta", scalars);
        for p in &prof.phases {
            line(&mut out, "profile_phase", p.clone());
        }
        for m in &prof.msgs {
            line(&mut out, "profile_msg", m.clone());
        }
        for s in &prof.mem {
            line(&mut out, "profile_mem", s.clone());
        }
    }
    line(&mut out, "summary", report.outcome.clone());
    out
}

/// Parses an archive strictly; the error is the first problem
/// [`validate`] would report.
pub fn parse(text: &str) -> Result<Archive, String> {
    let (archive, problems) = scan(text);
    match problems.into_iter().next() {
        None => Ok(archive),
        Some(p) => Err(p),
    }
}

/// Validates an archive, returning *every* problem found (empty =
/// valid).
pub fn validate(text: &str) -> Vec<String> {
    scan(text).1
}

fn scan(text: &str) -> (Archive, Vec<String>) {
    let mut a = Archive::default();
    let mut problems = Vec::new();
    let mut saw_header = false;
    let mut summary_at: Option<usize> = None;
    let mut records = 0usize;

    for (i, text) in text.lines().enumerate() {
        if text.trim().is_empty() {
            continue;
        }
        records += 1;
        let at = i + 1;
        let json = match Json::parse(text) {
            Ok(v) => v,
            Err(e) => {
                problems.push(format!("line {at}: invalid JSON: {e}"));
                continue;
            }
        };
        let Some(ty) = json.get("type").and_then(Json::as_str) else {
            problems.push(format!("line {at}: missing \"type\""));
            continue;
        };
        let mut line = Line {
            json: &json,
            at,
            ty,
            problems: &mut problems,
        };
        if records == 1 && ty != "header" {
            line.flag("first record must be the header");
        }
        let duplicate = match ty {
            "header" => saw_header,
            "summary" => summary_at.is_some(),
            "trace_meta" => a.trace_meta.is_some(),
            "profile_meta" => a.profile.is_some(),
            _ => false,
        };
        if duplicate {
            line.flag(format!("duplicate {ty}"));
            continue;
        }
        match ty {
            "header" => {
                saw_header = true;
                a.meta = line.read();
            }
            "round" => {
                let r: RoundObs = line.read();
                line.ascending(a.rounds.last().map(|p| p.round), r.round);
                a.rounds.push(r);
            }
            "phase" => a.phases.push(line.read()),
            "worker" => a.workers.push(line.read()),
            "counter" => {
                let (name, value) = line.read();
                a.counters.insert(name, value);
            }
            "gauge" => {
                let (name, value) = line.read();
                a.gauges.insert(name, value);
            }
            "hist" => a.hists.push(line.read()),
            "hot_nodes" => {
                let (name, top) = line.read();
                a.hot.insert(name, top);
            }
            "trace_meta" => a.trace_meta = Some(line.read()),
            "edge" => {
                let e: ProvEdge = line.read();
                if a.trace_meta.is_none() {
                    line.flag("edge record before any trace_meta");
                }
                let prev = a.edges.last().map(|p| (p.id, p.node));
                line.ascending(prev, (e.id, e.node));
                a.edges.push(e);
            }
            "profile_meta" => a.profile = Some(line.read()),
            "profile_phase" | "profile_msg" | "profile_mem" => {
                let Some(p) = a.profile.as_mut() else {
                    line.flag(format!("{ty} record before any profile_meta"));
                    continue;
                };
                match ty {
                    "profile_phase" => p.phases.push(line.read()),
                    "profile_msg" => p.msgs.push(line.read()),
                    _ => {
                        let s: ProfileMem = line.read();
                        line.ascending(p.mem.last().map(|m| m.round), s.round);
                        p.mem.push(s);
                    }
                }
            }
            "summary" => {
                summary_at = Some(records);
                a.outcome = line.read();
            }
            _ => line.flag(format!("unknown record type \"{ty}\"")),
        }
    }

    let mut declared = |meta: &str, what: &str, declared: u64, found: usize| {
        if declared != found as u64 {
            problems.push(format!(
                "{meta} declares {declared} {what}, archive contains {found}"
            ));
        }
    };
    if let Some(tm) = &a.trace_meta {
        declared("trace_meta", "edges", tm.edges, a.edges.len());
    }
    if let Some(p) = &a.profile {
        declared("profile_meta", "samples", p.samples, p.mem.len());
    }
    if records == 0 {
        problems.push("empty archive".to_string());
    } else {
        if !saw_header {
            problems.push("no header record".to_string());
        }
        match summary_at {
            None => problems.push("no summary record".to_string()),
            Some(at) if at != records => {
                problems.push("summary record is not the last record".to_string());
            }
            Some(_) => {}
        }
    }
    (a, problems)
}

/// One archive line being scanned, and where its problems go.
struct Line<'a> {
    json: &'a Json,
    at: usize,
    ty: &'a str,
    problems: &'a mut Vec<String>,
}

impl Line<'_> {
    fn flag(&mut self, problem: impl Display) {
        self.problems.push(format!("line {}: {problem}", self.at));
    }

    /// The line's record, with a problem for each bad field.
    fn read<R: Record>(&mut self) -> R {
        let (row, bad) = read(self.json);
        for p in bad {
            self.flag(format!("{} {p}", self.ty));
        }
        row
    }

    /// Flags `next` when it does not strictly follow `prev`.
    fn ascending<K: PartialOrd + Debug>(&mut self, prev: Option<K>, next: K) {
        match prev {
            Some(prev) if next <= prev => {
                self.flag(format!("{} {next:?} out of order after {prev:?}", self.ty));
            }
            _ => {}
        }
    }
}

/// Walks a record's fields, one `(key, place)` pair at a time.
trait Visit {
    fn field<T: Value>(&mut self, key: &'static str, place: &mut T);
}

/// A type archived as one JSON object. `fields` names each field once;
/// `Writer` walks it to render the object and `Reader` to parse it.
trait Record: Clone + Default {
    fn fields(&mut self, v: &mut impl Visit);
}

/// How one field's value is written and read.
trait Value: Sized {
    fn render(&self, out: &mut String);
    fn parse(json: &Json) -> Result<Self, String>;
}

/// Renders the fields it walks as JSON object members.
struct Writer<'a> {
    out: &'a mut String,
}

impl Visit for Writer<'_> {
    fn field<T: Value>(&mut self, key: &'static str, place: &mut T) {
        if !self.out.ends_with('{') {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        place.render(self.out);
    }
}

/// Parses the fields it walks out of a JSON object, keeping one
/// problem per missing or malformed field.
struct Reader<'a> {
    json: &'a Json,
    problems: Vec<String>,
}

impl Visit for Reader<'_> {
    fn field<T: Value>(&mut self, key: &'static str, place: &mut T) {
        match self.json.get(key).map_or(Err("missing".into()), T::parse) {
            Ok(value) => *place = value,
            Err(why) => self.problems.push(format!("\"{key}\": {why}")),
        }
    }
}

/// Writes `row` as one JSON object, tagged with `ty` when it is a line.
fn object(out: &mut String, ty: Option<&str>, mut row: impl Record) {
    out.push('{');
    if let Some(ty) = ty {
        let _ = write!(out, "\"type\":\"{ty}\"");
    }
    row.fields(&mut Writer { out });
    out.push('}');
}

fn line(out: &mut String, ty: &str, row: impl Record) {
    object(out, Some(ty), row);
    out.push('\n');
}

fn read<R: Record>(json: &Json) -> (R, Vec<String>) {
    let mut row = R::default();
    let mut reader = Reader {
        json,
        problems: Vec::new(),
    };
    row.fields(&mut reader);
    (row, reader.problems)
}

/// `json` as one record, or every problem with it.
fn record<R: Record>(json: &Json) -> Result<R, String> {
    match read(json) {
        (row, bad) if bad.is_empty() => Ok(row),
        (_, bad) => Err(bad.join(", ")),
    }
}

impl Record for RunMeta {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("schema", &mut Schema);
        v.field("algorithm", &mut self.algorithm);
        v.field("topology", &mut self.topology);
        v.field("n", &mut self.n);
        let mut seed = Seed(self.seed);
        v.field("seed", &mut seed);
        self.seed = seed.0;
        v.field("engine", &mut self.engine);
        v.field("workers", &mut self.workers);
        v.field("latency_model", &mut self.latency_model);
    }
}

impl Record for RoundObs {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("round", &mut self.round);
        v.field("wall_ns", &mut self.wall_ns);
        v.field("messages", &mut self.messages);
        v.field("pointers", &mut self.pointers);
        self.drops.fields(v);
        v.field("retransmissions", &mut self.retransmissions);
        v.field("knowledge_delta", &mut self.knowledge_delta);
    }
}

/// Flat, as `dropped_<cause>` fields of the record that holds it.
impl Record for DropTally {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("dropped_coin", &mut self.coin);
        v.field("dropped_crash", &mut self.crash);
        v.field("dropped_partition", &mut self.partition);
        v.field("dropped_link", &mut self.link);
        v.field("dropped_suppression", &mut self.suppression);
    }
}

impl Record for PhaseSummary {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("phase", &mut self.phase);
        v.field("count", &mut self.count);
        v.field("total_ns", &mut self.total_ns);
        v.field("p50_ns", &mut self.p50_ns);
        v.field("p99_ns", &mut self.p99_ns);
        v.field("max_ns", &mut self.max_ns);
    }
}

impl Record for WorkerSummary {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("worker", &mut self.worker);
        v.field("spans", &mut self.spans);
        v.field("busy_ns", &mut self.busy_ns);
    }
}

/// A named registry value: a counter, a gauge, or a hot-node list.
impl<T: Value + Clone + Default> Record for (String, T) {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("name", &mut self.0);
        v.field("value", &mut self.1);
    }
}

/// One hot node: `(node, messages)`.
impl Record for (u32, u64) {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("node", &mut self.0);
        v.field("value", &mut self.1);
    }
}

impl Record for HistSummary {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("name", &mut self.name);
        v.field("count", &mut self.count);
        v.field("mean", &mut self.mean);
        v.field("min", &mut self.min);
        v.field("p50", &mut self.p50);
        v.field("p90", &mut self.p90);
        v.field("p99", &mut self.p99);
        v.field("max", &mut self.max);
    }
}

impl Record for TraceMeta {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("capacity", &mut self.capacity);
        v.field("sample_ppm", &mut self.sample_ppm);
        v.field("edges", &mut self.edges);
        v.field("candidates", &mut self.candidates);
        v.field("sampled_out", &mut self.sampled_out);
        v.field("overflow", &mut self.overflow);
    }
}

impl Record for ProvEdge {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("id", &mut self.id);
        v.field("node", &mut self.node);
        v.field("src", &mut self.src);
        v.field("sent", &mut self.sent);
        v.field("round", &mut self.round);
        v.field("seq", &mut self.seq);
    }
}

/// The `profile_meta` record: the report's scalars. Its row lists
/// follow as records of their own.
impl Record for ProfileReport {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("coverage_pct", &mut self.coverage_pct);
        v.field("samples", &mut self.samples);
        v.field("utilization_pct", &mut self.utilization_pct);
        v.field("imbalance_mean", &mut self.imbalance_mean);
        v.field("imbalance_max", &mut self.imbalance_max);
        v.field("peak_knowledge_bytes", &mut self.peak_knowledge_bytes);
        v.field("peak_rss_bytes", &mut self.peak_rss_bytes);
    }
}

impl Record for ProfilePhase {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("phase", &mut self.phase);
        v.field("total_ns", &mut self.total_ns);
        v.field("round_pct", &mut self.round_pct);
        v.field("ns_per_envelope", &mut self.ns_per_envelope);
    }
}

impl Record for ProfileMsg {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("kind", &mut self.kind);
        v.field("envelopes", &mut self.envelopes);
        v.field("payload_bytes", &mut self.payload_bytes);
        v.field("ns_per_envelope", &mut self.ns_per_envelope);
    }
}

impl Record for ProfileMem {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("round", &mut self.round);
        v.field("knowledge_bytes", &mut self.knowledge_bytes);
        v.field("rss_bytes", &mut self.rss_bytes);
    }
}

impl Record for RunOutcomeObs {
    fn fields(&mut self, v: &mut impl Visit) {
        v.field("verdict", &mut self.verdict);
        v.field("completed", &mut self.completed);
        v.field("sound", &mut self.sound);
        v.field("rounds", &mut self.rounds);
        v.field("messages", &mut self.messages);
        v.field("pointers", &mut self.pointers);
        v.field("trace_events", &mut self.trace_events);
        v.field("trace_overflow", &mut self.trace_overflow);
        v.field("last_progress", &mut self.last_progress);
    }
}

impl Value for u64 {
    fn render(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn parse(json: &Json) -> Result<Self, String> {
        json.as_u64()
            .ok_or_else(|| "expected a non-negative integer".into())
    }
}

impl Value for u32 {
    fn render(&self, out: &mut String) {
        u64::from(*self).render(out);
    }
    fn parse(json: &Json) -> Result<Self, String> {
        narrow(json)
    }
}

impl Value for usize {
    fn render(&self, out: &mut String) {
        (*self as u64).render(out);
    }
    fn parse(json: &Json) -> Result<Self, String> {
        narrow(json)
    }
}

fn narrow<T: TryFrom<u64>>(json: &Json) -> Result<T, String> {
    let x = u64::parse(json)?;
    T::try_from(x).map_err(|_| format!("{x} is out of range"))
}

impl Value for f64 {
    fn render(&self, out: &mut String) {
        out.push_str(&fmt_f64(*self));
    }
    fn parse(json: &Json) -> Result<Self, String> {
        json.as_f64().ok_or_else(|| "expected a number".into())
    }
}

impl Value for bool {
    fn render(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn parse(json: &Json) -> Result<Self, String> {
        json.as_bool().ok_or_else(|| "expected a boolean".into())
    }
}

impl Value for String {
    fn render(&self, out: &mut String) {
        out.push_str(&escape(self));
    }
    fn parse(json: &Json) -> Result<Self, String> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".into())
    }
}

impl<T: Value> Value for Option<T> {
    fn render(&self, out: &mut String) {
        match self {
            Some(x) => x.render(out),
            None => out.push_str("null"),
        }
    }
    fn parse(json: &Json) -> Result<Self, String> {
        match json {
            Json::Null => Ok(None),
            j => T::parse(j).map(Some),
        }
    }
}

impl Value for Phase {
    fn render(&self, out: &mut String) {
        out.push_str(&escape(self.name()));
    }
    fn parse(json: &Json) -> Result<Self, String> {
        let name = String::parse(json)?;
        Phase::from_name(&name).ok_or_else(|| format!("unknown phase {name:?}"))
    }
}

/// A record nested in a value, as an object.
impl<R: Record> Value for R {
    fn render(&self, out: &mut String) {
        object(out, None, self.clone());
    }
    fn parse(json: &Json) -> Result<Self, String> {
        record(json)
    }
}

/// A list, as an array.
impl<T: Value> Value for Vec<T> {
    fn render(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            x.render(out);
        }
        out.push(']');
    }
    fn parse(json: &Json) -> Result<Self, String> {
        let items = json.as_arr().ok_or("expected an array")?;
        items.iter().map(T::parse).collect()
    }
}

/// A `u64` carried as a decimal string, so it survives f64 parsing.
struct Seed(u64);

impl Value for Seed {
    fn render(&self, out: &mut String) {
        self.0.to_string().render(out);
    }
    fn parse(json: &Json) -> Result<Self, String> {
        let text = String::parse(json)?;
        text.parse()
            .map(Seed)
            .map_err(|_| format!("{text:?} is not a decimal u64"))
    }
}

/// The header's declared schema: written as [`SCHEMA_VERSION`], read
/// only if it equals it.
struct Schema;

impl Value for Schema {
    fn render(&self, out: &mut String) {
        SCHEMA_VERSION.render(out);
    }
    fn parse(json: &Json) -> Result<Self, String> {
        match u64::parse(json)? {
            SCHEMA_VERSION => Ok(Schema),
            other => Err(format!(
                "unsupported schema {other} (this build reads {SCHEMA_VERSION})"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use std::time::Instant;

    /// A recorded run; with `sections`, also causal-traced and
    /// profiled.
    fn sample(sections: bool) -> ObsReport {
        let mut rec = Recorder::new(RunMeta {
            algorithm: "name-dropper".into(),
            topology: "k-out-3".into(),
            n: 128,
            seed: u64::MAX - 1,
            engine: "sharded:4".into(),
            workers: 4,
            latency_model: None,
        });
        if sections {
            rec = rec.with_profiling();
            rec.profile_msg_kind("Rumor", 40, 4);
        }
        // Core rounds 0..4, archived as rounds 1..=4.
        for r in 0..4u64 {
            rec.begin_round();
            for w in 0..4 {
                rec.span_from(Phase::OnRound, r, w, Instant::now());
                rec.span_from(Phase::RouteShard, r, w, Instant::now());
            }
            rec.span_from(Phase::FinishRound, r, 0, Instant::now());
            rec.profile_memory(r + 1, 512 * (r + 1));
            rec.end_round(RoundObs {
                round: r,
                messages: 100 + r,
                pointers: 300 + r,
                drops: DropTally {
                    coin: r % 2,
                    ..DropTally::default()
                },
                retransmissions: 1,
                ..RoundObs::default()
            });
        }
        if sections {
            let mut causal = CausalTrace::new(64, 1_000_000);
            for (id, node) in [(3, 1), (4, 2)] {
                causal.offer(ProvEdge {
                    id,
                    node,
                    src: 0,
                    sent: 1,
                    round: 2,
                    seq: 0,
                });
            }
            rec.attach_causal(causal);
        }
        rec.finish(
            RunOutcomeObs {
                verdict: "complete-sound".into(),
                completed: true,
                sound: true,
                rounds: 4,
                messages: 410,
                pointers: 1210,
                trace_events: 77,
                trace_overflow: 3,
                last_progress: sections.then_some(3),
            },
            &[9, 1, 4],
            &[2, 8, 4],
            &[(0, 500), (1, 600), (2, 640), (3, 680), (4, 700)],
            &[],
        )
        .unwrap()
    }

    fn without(text: &str, needle: &str) -> String {
        text.lines()
            .filter(|l| !l.contains(needle))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    fn swapped(text: &str, ty: &str) -> String {
        let mut lines: Vec<&str> = text.lines().collect();
        let first = lines
            .iter()
            .position(|l| l.contains(&format!("\"type\":\"{ty}\"")))
            .unwrap();
        lines.swap(first, first + 1);
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    fn flags(text: &str, problem: &str) -> bool {
        validate(text).iter().any(|p| p.contains(problem))
    }

    #[test]
    fn archives_parse_back_into_the_recorder_types() {
        for sections in [false, true] {
            let report = sample(sections);
            let text = render(&report);
            assert_eq!(validate(&text), Vec::<String>::new());
            assert!(text.starts_with("{\"type\":\"header\",\"schema\":7,"));
            let a = parse(&text).unwrap();
            assert_eq!(a.meta, report.meta);
            assert_eq!(a.rounds, report.rounds);
            assert_eq!(a.rounds[1].knowledge_delta, Some(40));
            assert_eq!(a.phases, report.phases);
            assert_eq!(a.workers, report.workers);
            assert_eq!(a.hot["sent"], report.hot_senders);
            assert_eq!(a.counters["retransmissions_total"], 4);
            if sections {
                assert_eq!(a.counters["causal_edges_total"], 2);
            }
            assert_eq!(
                a.edges,
                report
                    .causal
                    .iter()
                    .flat_map(|c| c.edges().copied())
                    .collect::<Vec<_>>()
            );
            assert_eq!(a.trace_meta, report.causal.as_ref().map(TraceMeta::of));
            assert_eq!(a.profile, report.profile);
            assert_eq!(a.outcome, report.outcome);
        }
    }

    #[test]
    fn validate_rejects_schema_drift() {
        let text = render(&sample(false));
        for other in ["999", "6", "\"7\""] {
            let drifted = text.replace("\"schema\":7", &format!("\"schema\":{other}"));
            assert!(parse(&drifted).is_err(), "schema {other}");
        }
        assert!(flags(
            &text.replace("\"schema\":7", "\"schema\":999"),
            "unsupported schema 999"
        ));
        assert!(flags(
            &text.replace("\"type\":\"worker\"", "\"type\":\"wurker\""),
            "unknown record type"
        ));
        // Schema 5's `alert` line is still an unknown record type.
        let alert = "{\"type\":\"alert\",\"rule\":\"stall\",\"round\":4}\n";
        let with_alert = text.replacen(
            "{\"type\":\"summary\"",
            &format!("{alert}{{\"type\":\"summary\""),
            1,
        );
        assert!(flags(&with_alert, "unknown record type \"alert\""));
    }

    #[test]
    fn validate_rejects_structural_damage() {
        let text = render(&sample(true));
        assert!(flags(
            &without(&text, "\"type\":\"summary\""),
            "no summary record"
        ));
        assert!(flags(&swapped(&text, "header"), "first record"));
        assert!(flags("", "empty archive"));
        let repeated = format!("{text}{}", text.lines().last().unwrap());
        assert!(flags(&repeated, "duplicate summary"));
        let unknown_phase = text.replace("\"phase\":\"on_round\"", "\"phase\":\"on_rund\"");
        assert!(flags(&unknown_phase, "unknown phase \"on_rund\""));
        let wide_id = text.replace("\"id\":3,", "\"id\":4294967296,");
        assert!(flags(&wide_id, "4294967296 is out of range"));
        let lenient = text.replace(",\"dropped_link\":0", "");
        assert!(flags(&lenient, "round \"dropped_link\": missing"));
    }

    #[test]
    fn section_order_and_counts_are_validated() {
        let text = render(&sample(true));
        assert!(flags(&swapped(&text, "edge"), "out of order"));
        assert!(flags(&swapped(&text, "profile_mem"), "out of order"));
        assert!(flags(&swapped(&text, "round"), "out of order"));
        assert!(flags(
            &without(&text, "\"id\":4,"),
            "declares 2 edges, archive contains 1"
        ));
        assert!(flags(
            &without(&text, "\"knowledge_bytes\":1024,"),
            "declares 4 samples, archive contains 3"
        ));
        assert!(flags(
            &without(&text, "\"type\":\"profile_meta\""),
            "before any profile_meta"
        ));
        assert!(flags(
            &without(&text, "\"type\":\"trace_meta\""),
            "before any trace_meta"
        ));
    }
}
