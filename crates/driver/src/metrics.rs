//! Pipeline telemetry: per-stage timers, per-rule obligation counters, and
//! the schema-versioned `hhl-report v1` JSON report.
//!
//! The registry follows the same contention-free pattern as
//! [`PoolStats`](crate::PoolStats): pool workers never touch shared state
//! while a phase is running. Each worker fills a plain [`LocalMetrics`]
//! buffer (returned alongside its per-file result) and the coordinating
//! thread merges the buffers into the [`MetricsRegistry`] **in input
//! order** once the phase ends, so aggregation order — and therefore every
//! deterministic counter — is independent of work-stealing schedules.
//!
//! Two kinds of data live here:
//!
//! * **Timers** — wall-clock spans keyed by [`Stage`] and by proof-rule
//!   name, aggregated Welford-style (count / mean / σ / min / max).
//!   Timings are measurements, not part of the determinism contract.
//! * **Counters** — the scheduling/cache statistics that used to be
//!   scattered across ad-hoc stderr lines (`[batch] store: ...`,
//!   memo hit counts, `[shard] ...`). They are registered as
//!   `(subsystem, key, value)` triples and rendered by one formatter:
//!   `[subsystem] key=value key=value ...`, stderr only.
//!
//! The JSON surface uses the workspace's one codec ([`crate::json`]):
//! [`render_report`] emits the `hhl-report v1` document from a fixed
//! template and [`parse_report`] reads it back by walking the parsed tree,
//! with `emit ∘ parse ∘ emit = emit` as the round-trip contract enforced by
//! tests and `hhl-bench report-check`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::json::{escape_json, parse_json, Json};
use crate::report::{BatchReport, FileStatus};

/// Schema tag on every JSON report; bumped on any layout change.
pub const REPORT_SCHEMA: &str = "hhl-report v1";

/// A pipeline stage with its own timer.
///
/// The set is fixed: parse (read + parse a spec), elaborate (compile a
/// certificate script into a derivation), shard (split a derivation into
/// obligation shards), check (run the semantic engine over a spec),
/// discharge (check obligation shards against the model), store (verdict
/// store lookups and writes), snapshot (memo snapshot import/export),
/// plus the four daemon stages of `hhl serve`: accept (waiting for and
/// reading one request line), decode (parsing it into a request), dispatch
/// (running the engine), respond (rendering and writing the response).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Reading and parsing a `.hhl` spec (includes file IO).
    Parse,
    /// Compiling a `.hhlp` certificate script into a derivation.
    Elaborate,
    /// Splitting a derivation into obligation shards.
    Shard,
    /// Running the semantic engine over a spec (check/prove/verify).
    Check,
    /// Discharging obligation shards against the model.
    Discharge,
    /// Verdict-store lookups and writes.
    Store,
    /// Memo snapshot import/export.
    Snapshot,
    /// Serve: blocking read of one request line from the transport.
    Accept,
    /// Serve: decoding a request line into a request document.
    Decode,
    /// Serve: executing the decoded request against the engine.
    Dispatch,
    /// Serve: rendering and writing the response document.
    Respond,
}

impl Stage {
    /// Every stage, in canonical report order.
    pub const ALL: [Stage; 11] = [
        Stage::Parse,
        Stage::Elaborate,
        Stage::Shard,
        Stage::Check,
        Stage::Discharge,
        Stage::Store,
        Stage::Snapshot,
        Stage::Accept,
        Stage::Decode,
        Stage::Dispatch,
        Stage::Respond,
    ];

    /// Stable lowercase name used in counter lines and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Elaborate => "elaborate",
            Stage::Shard => "shard",
            Stage::Check => "check",
            Stage::Discharge => "discharge",
            Stage::Store => "store",
            Stage::Snapshot => "snapshot",
            Stage::Accept => "accept",
            Stage::Decode => "decode",
            Stage::Dispatch => "dispatch",
            Stage::Respond => "respond",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Online mean/variance aggregation (Welford), plus exact min/max/total.
///
/// `merge` uses the parallel combination formula, so per-worker buffers can
/// be folded together without replaying individual samples.
#[derive(Clone, Debug)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: u64,
    max: u64,
    total: u128,
}

impl Default for Welford {
    fn default() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: u64::MAX,
            max: 0,
            total: 0,
        }
    }
}

impl Welford {
    /// Records one sample (a span in nanoseconds).
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        let x = ns as f64;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
        self.total += u128::from(ns);
    }

    /// Folds another aggregate into this one (Chan et al. parallel merge).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let (n1, n2) = (self.count as f64, other.count as f64);
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / (n1 + n2);
        self.m2 += other.m2 + delta * delta * n1 * n2 / (n1 + n2);
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.total += other.total;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples in nanoseconds.
    pub fn total_ns(&self) -> u128 {
        self.total
    }

    /// Sample mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation in nanoseconds (0 when empty).
    pub fn stddev_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0).sqrt()
        }
    }

    /// Smallest sample in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample in nanoseconds (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max
    }
}

/// Per-rule tally: obligations charged plus the Welford aggregate over the
/// discharge spans that were actually timed.
///
/// `count` and `timing.count()` may differ: shard deduplication means a
/// rule's obligations can be charged (counted) many times while only the
/// distinct representatives are discharged (timed) once.
#[derive(Clone, Debug, Default)]
struct RuleTally {
    count: u64,
    timing: Welford,
}

/// A plain per-worker (or per-file) metrics buffer.
///
/// Not shared: a worker fills its own buffer while running and the
/// coordinator merges buffers into the [`MetricsRegistry`] afterwards, in
/// input order.
#[derive(Clone, Debug, Default)]
pub struct LocalMetrics {
    stage_ns: [u64; Stage::ALL.len()],
    rules: BTreeMap<&'static str, RuleTally>,
}

impl LocalMetrics {
    /// Adds `ns` to the buffer's total for `stage`.
    pub fn record_stage(&mut self, stage: Stage, ns: u64) {
        self.stage_ns[stage.index()] += ns;
    }

    /// Records one timed obligation discharge under `rule`.
    pub fn record_rule(&mut self, rule: &'static str, ns: u64) {
        let tally = self.rules.entry(rule).or_default();
        tally.count += 1;
        tally.timing.record(ns);
    }

    /// Records `count` obligations charged under `rule` without a timing
    /// sample (used for shard censuses, where discharge happens later in a
    /// globally deduplicated phase).
    pub fn record_rule_count(&mut self, rule: &'static str, count: u64) {
        self.rules.entry(rule).or_default().count += count;
    }

    /// Folds another buffer into this one.
    pub fn merge(&mut self, other: &LocalMetrics) {
        for (i, ns) in other.stage_ns.iter().enumerate() {
            self.stage_ns[i] += ns;
        }
        for (rule, tally) in &other.rules {
            let mine = self.rules.entry(rule).or_default();
            mine.count += tally.count;
            mine.timing.merge(&tally.timing);
        }
    }

    /// Total nanoseconds recorded across all stages.
    pub fn total_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }
}

#[derive(Debug, Default)]
struct Inner {
    files: Vec<(String, LocalMetrics)>,
    stage_agg: [Welford; Stage::ALL.len()],
    rules: BTreeMap<&'static str, RuleTally>,
    counters: Vec<(String, Vec<(String, u64)>)>,
}

/// The merge point for all telemetry of one batch run.
///
/// `Send + Sync` (a mutex around plain data), but by convention only the
/// coordinating thread touches it — workers record into [`LocalMetrics`]
/// buffers that are merged here between phases, so the lock is never
/// contended and scheduling never influences aggregation order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges a per-file buffer. Files must be recorded in input order;
    /// per-file stage totals also feed the per-stage aggregates.
    pub fn record_file(&self, path: &str, local: LocalMetrics) {
        let mut inner = self.inner.lock().unwrap();
        for (i, &ns) in local.stage_ns.iter().enumerate() {
            if ns > 0 {
                inner.stage_agg[i].record(ns);
            }
        }
        for (rule, tally) in &local.rules {
            let agg = inner.rules.entry(rule).or_default();
            agg.count += tally.count;
            agg.timing.merge(&tally.timing);
        }
        inner.files.push((path.to_owned(), local));
    }

    /// Records a span that belongs to the whole run rather than one file
    /// (memo snapshot import/export, the global discharge phase).
    pub fn record_stage(&self, stage: Stage, ns: u64) {
        self.inner.lock().unwrap().stage_agg[stage.index()].record(ns);
    }

    /// Records one timed discharge span under `rule` without bumping its
    /// obligation count (the count was charged by a shard census).
    pub fn record_rule_time(&self, rule: &'static str, ns: u64) {
        self.inner
            .lock()
            .unwrap()
            .rules
            .entry(rule)
            .or_default()
            .timing
            .record(ns);
    }

    /// Registers (or replaces) one subsystem's counter group. Groups keep
    /// registration order; keys keep the given order.
    pub fn set_counters(&self, subsystem: &str, pairs: &[(&str, u64)]) {
        let mut inner = self.inner.lock().unwrap();
        let values: Vec<(String, u64)> = pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
        match inner.counters.iter_mut().find(|(s, _)| s == subsystem) {
            Some((_, existing)) => *existing = values,
            None => inner.counters.push((subsystem.to_owned(), values)),
        }
    }

    /// Renders every counter group as `[subsystem] key=value ...`, one
    /// line per subsystem, in registration order. Stderr only — callers
    /// must never print these to stdout.
    pub fn counter_lines(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        inner
            .counters
            .iter()
            .map(|(subsystem, pairs)| counter_line(subsystem, pairs))
            .collect()
    }

    /// Takes a deterministic snapshot: files in recorded (input) order,
    /// stages in canonical order, rules sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        let files = inner
            .files
            .iter()
            .map(|(path, local)| FileMetrics {
                path: path.clone(),
                stages: Stage::ALL
                    .iter()
                    .filter(|s| local.stage_ns[s.index()] > 0)
                    .map(|s| (s.name(), local.stage_ns[s.index()]))
                    .collect(),
                rules: local
                    .rules
                    .iter()
                    .map(|(rule, tally)| {
                        (
                            (*rule).to_owned(),
                            tally.count,
                            tally.timing.total_ns() as u64,
                        )
                    })
                    .collect(),
                total_ns: local.total_ns(),
            })
            .collect();
        let stages = Stage::ALL
            .iter()
            .filter(|s| inner.stage_agg[s.index()].count() > 0)
            .map(|s| StageAgg {
                stage: s.name(),
                timing: inner.stage_agg[s.index()].clone(),
            })
            .collect();
        let rules = inner
            .rules
            .iter()
            .map(|(rule, tally)| RuleAgg {
                rule: (*rule).to_owned(),
                count: tally.count,
                timing: tally.timing.clone(),
            })
            .collect();
        let counters = inner
            .counters
            .iter()
            .flat_map(|(subsystem, pairs)| {
                pairs
                    .iter()
                    .map(move |(key, value)| (subsystem.clone(), key.clone(), *value))
            })
            .collect();
        MetricsSnapshot {
            files,
            stages,
            rules,
            counters,
        }
    }
}

/// Renders one `[subsystem] key=value ...` stderr counter line.
pub fn counter_line(subsystem: &str, pairs: &[(String, u64)]) -> String {
    let mut line = format!("[{subsystem}]");
    for (key, value) in pairs {
        let _ = write!(line, " {key}={value}");
    }
    line
}

/// One file's recorded telemetry, as captured by [`MetricsRegistry::snapshot`].
#[derive(Clone, Debug)]
pub struct FileMetrics {
    /// Input path, as given on the command line.
    pub path: String,
    /// `(stage name, total ns)` for every stage this file exercised.
    pub stages: Vec<(&'static str, u64)>,
    /// `(rule, obligations charged, total timed ns)`, sorted by rule.
    pub rules: Vec<(String, u64, u64)>,
    /// Total nanoseconds across all stages.
    pub total_ns: u64,
}

/// Aggregate timing for one stage across the whole run.
#[derive(Clone, Debug)]
pub struct StageAgg {
    /// Stage name (see [`Stage::name`]).
    pub stage: &'static str,
    /// Welford aggregate over recorded spans.
    pub timing: Welford,
}

/// Aggregate obligation count and timing for one proof rule.
#[derive(Clone, Debug)]
pub struct RuleAgg {
    /// Rule name as charged by the proof checker.
    pub rule: String,
    /// Obligations charged under this rule.
    pub count: u64,
    /// Welford aggregate over timed discharge spans (may have fewer
    /// samples than `count`; see [`LocalMetrics::record_rule_count`]).
    pub timing: Welford,
}

/// A deterministic, ordered view of everything the registry recorded.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Per-file telemetry in input order.
    pub files: Vec<FileMetrics>,
    /// Per-stage aggregates in canonical stage order (exercised stages only).
    pub stages: Vec<StageAgg>,
    /// Per-rule aggregates sorted by rule name.
    pub rules: Vec<RuleAgg>,
    /// Flattened `(subsystem, key, value)` counters in registration order.
    pub counters: Vec<(String, String, u64)>,
}

impl MetricsSnapshot {
    /// The `n` files with the largest recorded total time, slowest first
    /// (ties keep input order).
    pub fn slowest_files(&self, n: usize) -> Vec<(&str, u64)> {
        let mut ranked: Vec<(&str, u64)> = self
            .files
            .iter()
            .map(|f| (f.path.as_str(), f.total_ns))
            .collect();
        ranked.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        ranked.truncate(n);
        ranked
    }

    /// The `n` rules with the largest total discharge time, slowest first
    /// (ties keep name order).
    pub fn slowest_rules(&self, n: usize) -> Vec<&RuleAgg> {
        let mut ranked: Vec<&RuleAgg> = self.rules.iter().collect();
        ranked.sort_by_key(|agg| std::cmp::Reverse(agg.timing.total_ns()));
        ranked.truncate(n);
        ranked
    }
}

// ---------------------------------------------------------------------------
// hhl-report v1: the structured document and its emitter/parser.
// ---------------------------------------------------------------------------

/// Build identification embedded in every report, so fleet logs can
/// attribute a report to the binary and on-disk schemas that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildInfo {
    /// Tool name (`hhl`).
    pub name: String,
    /// Crate version.
    pub version: String,
    /// Verdict-store schema tag (`hhl-verdict v2`).
    pub verdict_schema: String,
    /// Memo-snapshot schema tag (`hhl-memo v3`).
    pub memo_schema: String,
}

/// Per-file entry of a report document.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportFileEntry {
    /// Input path.
    pub path: String,
    /// `expected`, `unexpected`, or `error`.
    pub status: String,
    /// Verdict (`PASS`/`FAIL`) or the error message.
    pub detail: String,
    /// `(stage name, total ns)` pairs.
    pub stages: Vec<(String, u64)>,
    /// `(rule, obligations charged, total timed ns)` triples.
    pub rules: Vec<(String, u64, u64)>,
}

/// Per-stage aggregate entry of a report document.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportStageEntry {
    /// Stage name.
    pub stage: String,
    /// Number of recorded spans.
    pub samples: u64,
    /// Exact sum of spans in nanoseconds.
    pub total_ns: u128,
    /// Mean span in nanoseconds.
    pub mean_ns: f64,
    /// Population standard deviation in nanoseconds.
    pub stddev_ns: f64,
    /// Smallest span in nanoseconds.
    pub min_ns: u64,
    /// Largest span in nanoseconds.
    pub max_ns: u64,
}

/// Per-rule aggregate entry of a report document.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportRuleEntry {
    /// Rule name.
    pub rule: String,
    /// Obligations charged under this rule.
    pub count: u64,
    /// Number of timed discharge spans.
    pub samples: u64,
    /// Exact sum of timed spans in nanoseconds.
    pub total_ns: u128,
    /// Mean timed span in nanoseconds.
    pub mean_ns: f64,
    /// Population standard deviation in nanoseconds.
    pub stddev_ns: f64,
    /// Smallest timed span in nanoseconds.
    pub min_ns: u64,
    /// Largest timed span in nanoseconds.
    pub max_ns: u64,
}

/// Verdict tallies of a report document (mirrors the stdout batch summary).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReportSummary {
    /// Total files.
    pub files: u64,
    /// Expected passes.
    pub passed: u64,
    /// Expected failures.
    pub failed_as_expected: u64,
    /// Unexpected verdicts.
    pub unexpected: u64,
    /// Hard errors.
    pub errors: u64,
}

/// The complete, ordered content of an `hhl-report v1` document.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportDoc {
    /// Build identification.
    pub build: BuildInfo,
    /// Verdict tallies.
    pub summary: ReportSummary,
    /// Per-file entries in input order.
    pub files: Vec<ReportFileEntry>,
    /// Per-stage aggregates.
    pub stages: Vec<ReportStageEntry>,
    /// Per-rule aggregates.
    pub rules: Vec<ReportRuleEntry>,
    /// Flattened `(subsystem, key, value)` counters.
    pub counters: Vec<(String, String, u64)>,
}

impl ReportDoc {
    /// Assembles a document from a batch report and a metrics snapshot.
    ///
    /// The two are expected to list the same files in the same (input)
    /// order; file entries are zipped positionally.
    pub fn assemble(
        build: BuildInfo,
        report: &BatchReport,
        metrics: &MetricsSnapshot,
    ) -> ReportDoc {
        let files = report
            .files
            .iter()
            .enumerate()
            .map(|(i, file)| {
                let (status, detail) = match &file.status {
                    FileStatus::Expected { verdict } => ("expected", verdict.clone()),
                    FileStatus::Unexpected { verdict } => ("unexpected", verdict.clone()),
                    FileStatus::Error { message } => ("error", message.clone()),
                };
                let recorded = metrics.files.get(i).filter(|m| m.path == file.path);
                ReportFileEntry {
                    path: file.path.clone(),
                    status: status.to_owned(),
                    detail,
                    stages: recorded
                        .map(|m| {
                            m.stages
                                .iter()
                                .map(|(s, ns)| ((*s).to_owned(), *ns))
                                .collect()
                        })
                        .unwrap_or_default(),
                    rules: recorded.map(|m| m.rules.clone()).unwrap_or_default(),
                }
            })
            .collect();
        let stages = metrics
            .stages
            .iter()
            .map(|agg| ReportStageEntry {
                stage: agg.stage.to_owned(),
                samples: agg.timing.count(),
                total_ns: agg.timing.total_ns(),
                mean_ns: agg.timing.mean_ns(),
                stddev_ns: agg.timing.stddev_ns(),
                min_ns: agg.timing.min_ns(),
                max_ns: agg.timing.max_ns(),
            })
            .collect();
        let rules = metrics
            .rules
            .iter()
            .map(|agg| ReportRuleEntry {
                rule: agg.rule.clone(),
                count: agg.count,
                samples: agg.timing.count(),
                total_ns: agg.timing.total_ns(),
                mean_ns: agg.timing.mean_ns(),
                stddev_ns: agg.timing.stddev_ns(),
                min_ns: agg.timing.min_ns(),
                max_ns: agg.timing.max_ns(),
            })
            .collect();
        let tally = report.summary();
        ReportDoc {
            build,
            summary: ReportSummary {
                files: report.files.len() as u64,
                passed: tally.passed as u64,
                failed_as_expected: tally.failed_as_expected as u64,
                unexpected: tally.unexpected as u64,
                errors: tally.errors as u64,
            },
            files,
            stages,
            rules,
            counters: metrics.counters.clone(),
        }
    }
}

/// Renders a [`ReportDoc`] as the `hhl-report v1` JSON text.
///
/// Every array element is one line, which keeps the document greppable.
/// The layout is deterministic: re-rendering a parsed document reproduces
/// the input byte-for-byte.
pub fn render_report(doc: &ReportDoc) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{}\",", escape_json(REPORT_SCHEMA));
    let _ = writeln!(
        out,
        "  \"tool\": {{\"name\": \"{}\", \"version\": \"{}\", \"verdict_store\": \"{}\", \"memo_snapshot\": \"{}\"}},",
        escape_json(&doc.build.name),
        escape_json(&doc.build.version),
        escape_json(&doc.build.verdict_schema),
        escape_json(&doc.build.memo_schema),
    );
    let s = &doc.summary;
    let _ = writeln!(
        out,
        "  \"summary\": {{\"files\": {}, \"passed\": {}, \"failed_as_expected\": {}, \"unexpected\": {}, \"errors\": {}}},",
        s.files, s.passed, s.failed_as_expected, s.unexpected, s.errors,
    );
    out.push_str("  \"files\": [\n");
    for (i, file) in doc.files.iter().enumerate() {
        let stages: Vec<String> = file
            .stages
            .iter()
            .map(|(name, ns)| format!("[\"{}\",{}]", escape_json(name), ns))
            .collect();
        let rules: Vec<String> = file
            .rules
            .iter()
            .map(|(rule, count, ns)| format!("[\"{}\",{},{}]", escape_json(rule), count, ns))
            .collect();
        let _ = writeln!(
            out,
            "    {{\"path\": \"{}\", \"status\": \"{}\", \"detail\": \"{}\", \"stages\": [{}], \"rules\": [{}]}}{}",
            escape_json(&file.path),
            escape_json(&file.status),
            escape_json(&file.detail),
            stages.join(","),
            rules.join(","),
            comma(i, doc.files.len()),
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"stages\": [\n");
    for (i, stage) in doc.stages.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"stage\": \"{}\", \"samples\": {}, \"total_ns\": {}, \"mean_ns\": {:.1}, \"stddev_ns\": {:.1}, \"min_ns\": {}, \"max_ns\": {}}}{}",
            escape_json(&stage.stage),
            stage.samples,
            stage.total_ns,
            stage.mean_ns,
            stage.stddev_ns,
            stage.min_ns,
            stage.max_ns,
            comma(i, doc.stages.len()),
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"rules\": [\n");
    for (i, rule) in doc.rules.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"rule\": \"{}\", \"count\": {}, \"samples\": {}, \"total_ns\": {}, \"mean_ns\": {:.1}, \"stddev_ns\": {:.1}, \"min_ns\": {}, \"max_ns\": {}}}{}",
            escape_json(&rule.rule),
            rule.count,
            rule.samples,
            rule.total_ns,
            rule.mean_ns,
            rule.stddev_ns,
            rule.min_ns,
            rule.max_ns,
            comma(i, doc.rules.len()),
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"counters\": [\n");
    for (i, (subsystem, key, value)) in doc.counters.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"subsystem\": \"{}\", \"key\": \"{}\", \"value\": {}}}{}",
            escape_json(subsystem),
            escape_json(key),
            value,
            comma(i, doc.counters.len()),
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// The top-level keys of an `hhl-report v1` document, in render order.
const REPORT_KEYS: [&str; 7] = [
    "schema", "tool", "summary", "files", "stages", "rules", "counters",
];

/// Reads one `["name", n, ...]` tuple carrying exactly `N` numbers.
fn tuple<const N: usize>(element: &Json) -> Result<(String, [u64; N]), String> {
    let bad = || format!("bad tuple {element:?}");
    let Json::Arr(items) = element else {
        return Err(bad());
    };
    let name = match items.split_first() {
        Some((Json::Str(name), nums)) if nums.len() == N => name.clone(),
        _ => return Err(bad()),
    };
    let mut nums = [0; N];
    for (slot, item) in nums.iter_mut().zip(&items[1..]) {
        *slot = item.as_num().ok_or_else(bad)?;
    }
    Ok((name, nums))
}

/// Parses an `hhl-report v1` document produced by [`render_report`].
///
/// The reader walks the parsed JSON tree, so any layout of the same
/// document (re-indented, joined onto one line) yields the same
/// [`ReportDoc`]. Round-trip contract: `render_report(&parse_report(&text)?)
/// == text` for any `text` that [`render_report`] emitted; `mean_ns` and
/// `stddev_ns` are read back from their one-decimal spelling.
pub fn parse_report(text: &str) -> Result<ReportDoc, String> {
    let doc = parse_json(text)?;
    let Json::Obj(fields) = &doc else {
        return Err("report must be a JSON object".to_owned());
    };
    if let Some((key, _)) = fields
        .iter()
        .find(|(key, _)| !REPORT_KEYS.contains(&key.as_str()))
    {
        return Err(format!("unrecognised top-level key {key:?}"));
    }
    let schema = doc.str_at("schema")?;
    if schema != REPORT_SCHEMA {
        return Err(format!(
            "schema mismatch: expected {REPORT_SCHEMA:?}, found {schema:?}"
        ));
    }
    let tool = doc.get("tool").ok_or("missing \"tool\" object")?;
    let summary = doc.get("summary").ok_or("missing \"summary\" object")?;
    let files = doc.arr_at("files")?.iter().map(|file| {
        Ok(ReportFileEntry {
            path: file.str_at("path")?.to_owned(),
            status: file.str_at("status")?.to_owned(),
            detail: file.str_at("detail")?.to_owned(),
            stages: file
                .arr_at("stages")?
                .iter()
                .map(|t| tuple(t).map(|(name, [ns])| (name, ns)))
                .collect::<Result<_, String>>()?,
            rules: file
                .arr_at("rules")?
                .iter()
                .map(|t| tuple(t).map(|(name, [count, ns])| (name, count, ns)))
                .collect::<Result<_, String>>()?,
        })
    });
    let stages = doc.arr_at("stages")?.iter().map(|stage| {
        Ok(ReportStageEntry {
            stage: stage.str_at("stage")?.to_owned(),
            samples: stage.num_at("samples")?,
            total_ns: stage.num_at("total_ns")?,
            mean_ns: stage.num_at("mean_ns")?,
            stddev_ns: stage.num_at("stddev_ns")?,
            min_ns: stage.num_at("min_ns")?,
            max_ns: stage.num_at("max_ns")?,
        })
    });
    let rules = doc.arr_at("rules")?.iter().map(|rule| {
        Ok(ReportRuleEntry {
            rule: rule.str_at("rule")?.to_owned(),
            count: rule.num_at("count")?,
            samples: rule.num_at("samples")?,
            total_ns: rule.num_at("total_ns")?,
            mean_ns: rule.num_at("mean_ns")?,
            stddev_ns: rule.num_at("stddev_ns")?,
            min_ns: rule.num_at("min_ns")?,
            max_ns: rule.num_at("max_ns")?,
        })
    });
    let counters = doc.arr_at("counters")?.iter().map(|counter| {
        Ok((
            counter.str_at("subsystem")?.to_owned(),
            counter.str_at("key")?.to_owned(),
            counter.num_at("value")?,
        ))
    });
    Ok(ReportDoc {
        build: BuildInfo {
            name: tool.str_at("name")?.to_owned(),
            version: tool.str_at("version")?.to_owned(),
            verdict_schema: tool.str_at("verdict_store")?.to_owned(),
            memo_schema: tool.str_at("memo_snapshot")?.to_owned(),
        },
        summary: ReportSummary {
            files: summary.num_at("files")?,
            passed: summary.num_at("passed")?,
            failed_as_expected: summary.num_at("failed_as_expected")?,
            unexpected: summary.num_at("unexpected")?,
            errors: summary.num_at("errors")?,
        },
        files: files.collect::<Result<_, String>>()?,
        stages: stages.collect::<Result<_, String>>()?,
        rules: rules.collect::<Result<_, String>>()?,
        counters: counters.collect::<Result<_, String>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FileReport;

    fn sample_welford(values: &[u64]) -> Welford {
        let mut w = Welford::default();
        for &v in values {
            w.record(v);
        }
        w
    }

    #[test]
    fn welford_matches_direct_computation() {
        let values = [10u64, 20, 30, 40, 55];
        let w = sample_welford(&values);
        let n = values.len() as f64;
        let mean = values.iter().sum::<u64>() as f64 / n;
        let var = values
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert_eq!(w.count(), 5);
        assert_eq!(w.total_ns(), 155);
        assert!((w.mean_ns() - mean).abs() < 1e-9);
        assert!((w.stddev_ns() - var.sqrt()).abs() < 1e-9);
        assert_eq!(w.min_ns(), 10);
        assert_eq!(w.max_ns(), 55);
    }

    #[test]
    fn welford_merge_equals_sequential_recording() {
        let (a, b) = ([3u64, 9, 27], [1u64, 81, 243, 729]);
        let mut merged = sample_welford(&a);
        merged.merge(&sample_welford(&b));
        let all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let direct = sample_welford(&all);
        assert_eq!(merged.count(), direct.count());
        assert_eq!(merged.total_ns(), direct.total_ns());
        assert_eq!(merged.min_ns(), direct.min_ns());
        assert_eq!(merged.max_ns(), direct.max_ns());
        assert!((merged.mean_ns() - direct.mean_ns()).abs() < 1e-9);
        assert!((merged.stddev_ns() - direct.stddev_ns()).abs() < 1e-6);
    }

    #[test]
    fn empty_welford_reports_zeroes() {
        let w = Welford::default();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean_ns(), 0.0);
        assert_eq!(w.stddev_ns(), 0.0);
        assert_eq!(w.min_ns(), 0);
        assert_eq!(w.max_ns(), 0);
    }

    #[test]
    fn registry_merges_files_in_order_and_aggregates() {
        let registry = MetricsRegistry::new();
        let mut a = LocalMetrics::default();
        a.record_stage(Stage::Parse, 100);
        a.record_rule("Cons", 40);
        a.record_rule("Cons", 60);
        let mut b = LocalMetrics::default();
        b.record_stage(Stage::Parse, 300);
        b.record_rule_count("WhileSync", 3);
        registry.record_file("b.hhl", b);
        registry.record_file("a.hhl", a);
        registry.record_rule_time("WhileSync", 500);
        let snap = registry.snapshot();
        assert_eq!(snap.files.len(), 2);
        assert_eq!(snap.files[0].path, "b.hhl");
        let parse = snap.stages.iter().find(|s| s.stage == "parse").unwrap();
        assert_eq!(parse.timing.count(), 2);
        assert_eq!(parse.timing.total_ns(), 400);
        let cons = snap.rules.iter().find(|r| r.rule == "Cons").unwrap();
        assert_eq!(cons.count, 2);
        assert_eq!(cons.timing.count(), 2);
        let ws = snap.rules.iter().find(|r| r.rule == "WhileSync").unwrap();
        assert_eq!(ws.count, 3);
        assert_eq!(ws.timing.count(), 1);
        assert_eq!(ws.timing.total_ns(), 500);
    }

    #[test]
    fn counter_lines_use_key_value_format() {
        let registry = MetricsRegistry::new();
        registry.set_counters("pool", &[("workers", 4), ("steals", 7)]);
        registry.set_counters("memo", &[("hits", 10), ("misses", 2)]);
        registry.set_counters("pool", &[("workers", 4), ("steals", 9)]);
        assert_eq!(
            registry.counter_lines(),
            vec![
                "[pool] workers=4 steals=9".to_owned(),
                "[memo] hits=10 misses=2".to_owned(),
            ]
        );
    }

    #[test]
    fn slowest_files_and_rules_rank_by_total_time() {
        let registry = MetricsRegistry::new();
        for (path, ns) in [("a", 100u64), ("b", 900), ("c", 500)] {
            let mut local = LocalMetrics::default();
            local.record_stage(Stage::Check, ns);
            local.record_rule(path.to_string().leak(), ns);
            registry.record_file(path, local);
        }
        let snap = registry.snapshot();
        let files = snap.slowest_files(2);
        assert_eq!(files[0], ("b", 900));
        assert_eq!(files[1], ("c", 500));
        let rules = snap.slowest_rules(1);
        assert_eq!(rules[0].rule, "b");
    }

    fn sample_doc() -> ReportDoc {
        let report = BatchReport::new(vec![
            FileReport {
                path: "a.hhl".to_owned(),
                status: FileStatus::Expected {
                    verdict: "PASS".to_owned(),
                },
            },
            FileReport {
                path: "weird \"name\"\\x.hhl".to_owned(),
                status: FileStatus::Error {
                    message: "parse error: unexpected `\"`".to_owned(),
                },
            },
        ]);
        let registry = MetricsRegistry::new();
        let mut a = LocalMetrics::default();
        a.record_stage(Stage::Parse, 120);
        a.record_stage(Stage::Check, 480);
        a.record_rule("triple-validity", 333);
        registry.record_file("a.hhl", a);
        let mut b = LocalMetrics::default();
        b.record_stage(Stage::Parse, 77);
        registry.record_file("weird \"name\"\\x.hhl", b);
        registry.set_counters("pool", &[("workers", 1), ("steals", 0)]);
        let build = BuildInfo {
            name: "hhl".to_owned(),
            version: "0.1.0".to_owned(),
            verdict_schema: "hhl-verdict v2".to_owned(),
            memo_schema: "hhl-memo v3".to_owned(),
        };
        ReportDoc::assemble(build, &report, &registry.snapshot())
    }

    #[test]
    fn report_round_trips_through_parse_and_render() {
        let doc = sample_doc();
        let text = render_report(&doc);
        assert!(text.contains("\"schema\": \"hhl-report v1\""));
        let parsed = parse_report(&text).expect("parse emitted report");
        assert_eq!(parsed.summary, doc.summary);
        assert_eq!(parsed.files.len(), 2);
        assert_eq!(parsed.files[1].path, "weird \"name\"\\x.hhl");
        assert_eq!(render_report(&parsed), text, "emit ∘ parse ∘ emit = emit");
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let doc = sample_doc();
        let text = render_report(&doc).replace("hhl-report v1", "hhl-report v0");
        let err = parse_report(&text).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn parse_ignores_layout() {
        let doc = sample_doc();
        let text = render_report(&doc);
        // The whole document on one line, and the same document with extra
        // whitespace around every comma, colon and opening bracket (none of
        // the sample's strings contains a comma, a bracket or `": `).
        let joined: String = text.lines().map(str::trim).collect();
        let spaced = text
            .replace(',', " ,\n\t")
            .replace("\": ", "\" \r\n:  ")
            .replace('[', "[ \n")
            .replace('{', " {  ");
        for variant in [joined, spaced] {
            let parsed = parse_report(&variant).expect(&variant);
            assert_eq!(parsed, doc, "{variant}");
            assert_eq!(render_report(&parsed), text);
        }
    }

    #[test]
    fn parse_rejects_unknown_keys_and_missing_objects() {
        let text = render_report(&sample_doc());
        let extra = text.replacen("{\n", "{\n  \"extra\": 1,\n", 1);
        let err = parse_report(&extra).unwrap_err();
        assert!(
            err.contains("unrecognised top-level key \"extra\""),
            "{err}"
        );
        let no_tool: String = text.lines().filter(|l| !l.contains("\"tool\"")).collect();
        let err = parse_report(&no_tool).unwrap_err();
        assert!(err.contains("missing \"tool\""), "{err}");
        let no_summary: String = text
            .lines()
            .filter(|l| !l.contains("\"summary\""))
            .collect();
        let err = parse_report(&no_summary).unwrap_err();
        assert!(err.contains("missing \"summary\""), "{err}");
        let bad_tuple = text.replace("[\"parse\",120]", "[\"parse\"]");
        assert!(parse_report(&bad_tuple).unwrap_err().contains("bad tuple"));
    }
}
