//! Parallel batch verification: fan spec/certificate files across the
//! work-stealing pool with one shared extended-semantics memo cache.
//!
//! This module is the CLI side of the `hhl batch` subcommand and the
//! `--jobs N` flags: it loads each file, dispatches it to the engine its
//! mode selects (pairing `.hhlp` certificates with their sibling `.hhl`
//! specs), and aggregates per-file results **in input order** so the
//! rendered output is byte-identical for every job count.
//!
//! Under the daemon, a batch never has the resident pool to itself: the
//! pool's continuous-batching scheduler interleaves this batch's file
//! jobs with every other in-flight submission's shards round-robin
//! (see [`hhl_driver::pool`]), so a small concurrent request answers in
//! roughly a sweep instead of queueing behind the whole batch. The
//! input-order result slots above are what keep the rendered output
//! byte-identical regardless of that global schedule.
//!
//! Per-file errors (unreadable file, malformed spec, rejected certificate)
//! never abort the batch: the remaining files still run and the error is
//! carried in the aggregate as [`FileStatus::Error`], counted by the
//! summary and reflected in the exit code (`2`).
//!
//! All worker threads share a single [`SemCache`] behind an `Arc`
//! (installed into each spec's [`ValidityConfig`]), so repeated
//! subprograms — shared prefixes across corpus files, loop unrollings,
//! WP premises — are evaluated once, whichever worker gets there first.
//!
//! With a persistent [`VerdictStore`] configured (the `hhl batch`
//! default), that reuse extends *across processes*: each work unit is
//! fingerprinted ([`crate::spec_fingerprint`]) and fingerprint-matched
//! files replay their recorded verdict with zero engine work, while the
//! memo snapshot pre-warms the shared cache for the files that do
//! re-verify. Reports are byte-identical whether a verdict came from
//! cache or recomputation; only the stderr counters differ.
//!
//! [`ValidityConfig`]: hhl_core::ValidityConfig

use std::sync::Arc;
use std::time::Instant;

use hhl_assert::{EvalCache, EvalCacheStats};
use hhl_driver::metrics::{BuildInfo, LocalMetrics, MetricsRegistry, ReportDoc, Stage};
use hhl_driver::pool::{PoolStats, Scheduler};
use hhl_driver::report::{BatchReport, FileReport, FileStatus};
use hhl_driver::shard::{ShardCounters, ShardStats};
use hhl_driver::store::{StoreStats, VerdictRecord, VerdictStore, STORE_SCHEMA};
use hhl_lang::{MemoImportStats, MemoSnapshotStats, SemCache};

use crate::fingerprint::spec_fingerprint;
use crate::runner::{run_spec_metered, Outcome, Verdict};
use crate::shard::{discharge_pending, finish_replay, prepare_replay, PendingReplay, Staged};
use crate::spec::{parse_spec, Expect, Mode, Spec};

/// Cap on memo entries persisted per run: the verdict records already make
/// unchanged files free, so the snapshot only needs to warm the entries an
/// *edited* file is likely to share — a bounded, deterministic subset keeps
/// the snapshot proportional to that benefit instead of to the corpus.
pub(crate) const MEMO_SNAPSHOT_MAX_ENTRIES: usize = 8192;

/// How a batch invocation should run.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Worker threads (clamped to the number of files by the pool).
    pub jobs: usize,
    /// Force every `.hhl` spec through a fixed engine regardless of its
    /// `mode:` line (`hhl prove --jobs` forces [`Mode::Prove`], `hhl verify`
    /// forces [`Mode::Verify`]). `None` honours each spec's own mode.
    pub force_mode: Option<Mode>,
    /// Share an extended-semantics memo cache across all files/workers.
    /// Disabled by `--no-cache`; verdicts are identical either way.
    pub use_cache: bool,
    /// Persistent verdict/memo store (`hhl batch`'s `.hhl-cache/`). When
    /// set, fingerprint-matched files replay their recorded verdict instead
    /// of re-running the engine, and the memo snapshot warms the in-memory
    /// cache across processes. Verdicts and the compact [`BatchReport`] are
    /// byte-identical with and without a store; only the full per-file
    /// [`FileResult::report_text`] is absent on cache hits (the store keeps
    /// verdicts, not rendered reports), which is why the store is wired
    /// into `hhl batch` — whose output never uses `report_text` — and not
    /// into the full-report `check`/`prove`/`replay` paths.
    pub store: Option<Arc<VerdictStore>>,
    /// Obligation-level store for replay jobs (`hhl batch` points it at the
    /// same directory as [`store`](BatchOptions::store); `hhl replay
    /// --cache-dir` uses it alone). Unlike whole-file verdict records,
    /// obligation and replay-summary records can rebuild the *full* report,
    /// so this one is safe for the full-output replay paths.
    pub oblig_store: Option<Arc<VerdictStore>>,
    /// Store to load/save the memo snapshot through. `hhl batch` points it
    /// at the same directory as [`store`](BatchOptions::store); `hhl check
    /// --cache-dir` & friends use it *alone* (the snapshot warms the shared
    /// cache without the verdict store's report-text limitation, so it is
    /// safe for the full-report paths). `None` skips import/export.
    pub memo_store: Option<Arc<VerdictStore>>,
    /// Pre-existing memo caches to run against instead of fresh ones — the
    /// persistent [`Engine`](crate::api::Engine) passes its own so warmth
    /// survives across requests. Ignored under `--no-cache`.
    pub shared: Option<crate::api::EngineCaches>,
    /// Which executor runs the fan-out phases. `Resident` (the default)
    /// submits to the process-resident [`WorkerPool`](hhl_driver::pool::
    /// WorkerPool), so stage → discharge → finish reuse one set of parked
    /// threads across all three phases, across every file, and across
    /// daemon requests; `Burst` spawns a scoped set per call (the pre-pool
    /// behaviour, kept for the differential suites). Output is
    /// byte-identical either way.
    pub scheduler: Scheduler,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            jobs: 1,
            force_mode: None,
            use_cache: true,
            store: None,
            oblig_store: None,
            memo_store: None,
            shared: None,
            scheduler: Scheduler::Resident,
        }
    }
}

/// One file's full result: the classification for the aggregate report plus
/// the rendered texts the `check --jobs` style full output needs.
#[derive(Clone, Debug)]
pub struct FileResult {
    /// The path as given on the command line.
    pub path: String,
    /// Classification for [`BatchReport`].
    pub status: FileStatus,
    /// The full `Outcome` rendering (absent when the file errored).
    pub report_text: Option<String>,
    /// The error line (absent when a verdict was produced).
    pub error_text: Option<String>,
}

/// Everything a batch run produces: in-order per-file results plus the
/// (scheduling-dependent) pool and cache statistics for stderr.
#[derive(Debug)]
pub struct BatchRun {
    /// Per-file results, in input order.
    pub results: Vec<FileResult>,
    /// How the pool scheduled the work.
    pub pool: PoolStats,
    /// Memo-cache counters (zeros when the cache was disabled).
    pub cache: hhl_lang::CacheStats,
    /// Assertion-evaluation memo counters (zeros when disabled).
    pub eval_cache: EvalCacheStats,
    /// Persistent-store counters (`None` when no store was configured).
    pub store: Option<StoreStats>,
    /// Sharded-replay counters (all-zero when no certificate was sharded).
    pub shards: ShardStats,
    /// Memo-snapshot lines loaded/rejected at startup and materialized
    /// during the run.
    pub memo_import: MemoImportStats,
    /// Memo-snapshot entries exported/evicted at shutdown; `unchanged`
    /// when the snapshot on disk was left as it was.
    pub memo_export: MemoSnapshotStats,
    /// Per-stage/per-rule telemetry and the unified stderr counters.
    pub metrics: MetricsRegistry,
}

/// Build identification for reports and `hhl --version`: crate version
/// plus the schema tags of every on-disk format this binary reads/writes.
pub fn build_info() -> BuildInfo {
    BuildInfo {
        name: "hhl".to_owned(),
        version: env!("CARGO_PKG_VERSION").to_owned(),
        verdict_schema: STORE_SCHEMA.to_owned(),
        memo_schema: hhl_lang::memo::SNAPSHOT_SCHEMA.to_owned(),
    }
}

impl BatchRun {
    /// The compact aggregated report (`hhl batch` output).
    pub fn report(&self) -> BatchReport {
        BatchReport::new(
            self.results
                .iter()
                .map(|r| FileReport {
                    path: r.path.clone(),
                    status: r.status.clone(),
                })
                .collect(),
        )
    }

    /// The `[subsystem] key=value ...` stderr counter lines of this run
    /// (pool, memo, eval-memo, and — when configured — store, snapshot,
    /// shard subsystems), rendered by the registry's unified formatter.
    pub fn counter_lines(&self) -> Vec<String> {
        self.metrics.counter_lines()
    }

    /// The structured `hhl-report v1` document of this run
    /// (`hhl batch --report json`).
    pub fn report_doc(&self) -> ReportDoc {
        ReportDoc::assemble(build_info(), &self.report(), &self.metrics.snapshot())
    }
}

/// A unit of batch work: a spec on its own, or a certificate replayed
/// against its sibling spec.
enum Job {
    Spec {
        path: String,
    },
    Replay {
        spec_path: String,
        proof_path: String,
    },
}

/// Pairs a `.hhlp` certificate with its sibling spec: `dir/x.hhlp` replays
/// against `dir/x.hhl` (the same convention the example corpus and
/// `scripts/ci/replay_all.sh` use).
fn sibling_spec(proof_path: &str) -> String {
    let stem = proof_path
        .strip_suffix(".hhlp")
        .expect("caller checked the extension");
    format!("{stem}.hhl")
}

/// Classifies a file into a job. Under a forced mode everything is a spec
/// job — `hhl prove --jobs x.hhlp` must fail to parse the certificate as a
/// spec, exactly like the sequential `hhl prove x.hhlp` does, instead of
/// silently switching engines to replay.
fn classify(path: &str, force_mode: bool) -> Job {
    if path.ends_with(".hhlp") && !force_mode {
        Job::Replay {
            spec_path: sibling_spec(path),
            proof_path: path.to_owned(),
        }
    } else {
        Job::Spec {
            path: path.to_owned(),
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The shared memo caches of one batch run, installed into every loaded
/// spec's [`ValidityConfig`](hhl_core::ValidityConfig). Both are `None`
/// under `--no-cache`.
#[derive(Default)]
struct SharedCaches {
    sem: Option<Arc<SemCache>>,
    eval: Option<Arc<EvalCache>>,
}

fn load_spec(path: &str, caches: &SharedCaches) -> Result<Spec, String> {
    let src = read(path)?;
    let mut spec = parse_spec(&src).map_err(|e| format!("{path}: {e}"))?;
    if let Some(cache) = &caches.sem {
        spec.config.cache = Some(cache.clone());
    }
    if let Some(cache) = &caches.eval {
        spec.config.eval_cache = Some(cache.clone());
    }
    Ok(spec)
}

fn outcome_result(path: &str, outcome: Outcome) -> FileResult {
    let verdict = outcome.verdict.to_string();
    let status = if outcome.as_expected {
        FileStatus::Expected { verdict }
    } else {
        FileStatus::Unexpected { verdict }
    };
    FileResult {
        path: path.to_owned(),
        status,
        report_text: Some(outcome.to_string()),
        error_text: None,
    }
}

fn error_result(path: &str, message: String) -> FileResult {
    FileResult {
        path: path.to_owned(),
        status: FileStatus::Error {
            message: message.clone(),
        },
        report_text: None,
        error_text: Some(message),
    }
}

/// Rebuilds a [`FileResult`] from a stored verdict, re-deriving the
/// expected/unexpected classification from the *current* spec's `expect:`
/// line (which is excluded from the fingerprint: it compares verdicts, it
/// does not produce them). The compact report line is byte-identical to
/// what recomputation would print; `report_text` (unused by the batch
/// report) is `None` — see [`BatchOptions::store`].
fn cached_result(path: &str, spec: &Spec, record: &VerdictRecord) -> FileResult {
    let as_expected = match spec.expect {
        Expect::Pass => record.verdict == "PASS",
        Expect::Fail => record.verdict == "FAIL",
    };
    let status = if as_expected {
        FileStatus::Expected {
            verdict: record.verdict.clone(),
        }
    } else {
        FileStatus::Unexpected {
            verdict: record.verdict.clone(),
        }
    };
    FileResult {
        path: path.to_owned(),
        status,
        report_text: None,
        error_text: None,
    }
}

/// Records a freshly computed verdict under `fp`. Errors never reach here —
/// only real verdicts are cached, so a fixed file is always retried.
fn record_outcome(store: &VerdictStore, fp: &str, spec: &Spec, outcome: &Outcome) {
    let verdict = match outcome.verdict {
        Verdict::Pass => "PASS",
        Verdict::Fail => "FAIL",
    };
    store.record(
        fp,
        &VerdictRecord {
            mode: spec.mode.to_string(),
            verdict: verdict.to_owned(),
        },
    );
}

/// What phase 1 produced for one file: a finished result, or a replay
/// staged for the global shard-discharge phase.
enum StagedJob {
    Done(FileResult),
    Replay {
        proof_path: String,
        /// Boxed: a staged replay is the rare case, and an inline `Spec`
        /// would dominate the enum's footprint for every finished file.
        spec: Box<Spec>,
        /// Verdict-store fingerprint to record the final outcome under
        /// (`None` when no store is configured).
        verdict_fp: Option<String>,
        pending: Box<PendingReplay>,
    },
}

/// Times `f` and charges the span to `stage` in `local`.
fn timed<T>(local: &mut LocalMetrics, stage: Stage, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let result = f();
    local.record_stage(stage, start.elapsed().as_nanos() as u64);
    result
}

/// Phase 1 for one file: spec jobs run to completion; replay jobs run
/// through the verdict store and [`prepare_replay`] (compile + shard), and
/// either finish early (store hit, certificate error) or stage their
/// shards for the global discharge phase.
///
/// The returned [`LocalMetrics`] buffer is this worker's private telemetry
/// for the file — the coordinator merges the buffers into the registry in
/// input order after the pool drains, so aggregation never contends and
/// never depends on the schedule.
fn stage_job(
    job: &Job,
    opts: &BatchOptions,
    caches: &SharedCaches,
    counters: &ShardCounters,
) -> (StagedJob, LocalMetrics) {
    let mut local = LocalMetrics::default();
    let store = opts.store.as_deref();
    let staged = match job {
        Job::Spec { path } => {
            let loaded = timed(&mut local, Stage::Parse, || load_spec(path, caches));
            let mut spec = match loaded {
                Ok(s) => s,
                Err(e) => return (StagedJob::Done(error_result(path, e)), local),
            };
            if let Some(mode) = opts.force_mode {
                spec.mode = mode;
            }
            let fp = store.map(|s| (s, spec_fingerprint(&spec, None).to_string()));
            if let Some((store, fp)) = &fp {
                let record = timed(&mut local, Stage::Store, || store.lookup(fp));
                if let Some(record) = record {
                    return (StagedJob::Done(cached_result(path, &spec, &record)), local);
                }
            }
            let run = timed(&mut local, Stage::Check, || run_spec_metered(&spec));
            StagedJob::Done(match run {
                Ok((outcome, meter)) => {
                    for (rule, ns) in meter.samples {
                        local.record_rule(rule, ns);
                    }
                    if let Some((store, fp)) = &fp {
                        timed(&mut local, Stage::Store, || {
                            record_outcome(store, fp, &spec, &outcome)
                        });
                    }
                    outcome_result(path, outcome)
                }
                // Engine errors carry no location of their own (unlike the
                // read/parse errors above): prefix the path so the message
                // identifies the file wherever it surfaces.
                Err(e) => error_result(path, format!("{path}: {e}")),
            })
        }
        Job::Replay {
            spec_path,
            proof_path,
        } => {
            let loaded = timed(&mut local, Stage::Parse, || {
                load_spec(spec_path, caches).and_then(|spec| Ok((spec, read(proof_path)?)))
            });
            let (spec, certificate) = match loaded {
                Ok(pair) => pair,
                Err(e) => return (StagedJob::Done(error_result(proof_path, e)), local),
            };
            let fp = store.map(|s| (s, spec_fingerprint(&spec, Some(&certificate)).to_string()));
            // A whole-pair verdict hit needs no shard work at all — the
            // certificate is not even re-elaborated on warm store hits.
            if let Some((store, fp)) = &fp {
                let record = timed(&mut local, Stage::Store, || store.lookup(fp));
                if let Some(record) = record {
                    return (
                        StagedJob::Done(cached_result(proof_path, &spec, &record)),
                        local,
                    );
                }
            }
            let verdict_fp = fp.map(|(_, fp)| fp);
            match prepare_replay(
                &spec,
                &certificate,
                opts.oblig_store.as_deref(),
                counters,
                &mut local,
            ) {
                Ok(Staged::Done(outcome)) => {
                    if let (Some(store), Some(fp)) = (store, &verdict_fp) {
                        timed(&mut local, Stage::Store, || {
                            record_outcome(store, fp, &spec, &outcome)
                        });
                    }
                    StagedJob::Done(outcome_result(proof_path, *outcome))
                }
                Ok(Staged::Pending(pending)) => StagedJob::Replay {
                    proof_path: proof_path.clone(),
                    spec: Box::new(spec),
                    verdict_fp,
                    pending,
                },
                Err(e) => StagedJob::Done(error_result(proof_path, format!("{proof_path}: {e}"))),
            }
        }
    };
    (staged, local)
}

/// The shared dispatch tail: warm the shared cache from the persistent
/// store (when both are enabled), then run the three batch phases —
///
/// 1. fan the files across the pool (specs complete; replays compile and
///    shard, see [`stage_job`]);
/// 2. discharge every staged certificate's obligation shards on the *same*
///    pool, deduplicated globally by fingerprint ([`discharge_pending`]) —
///    one huge certificate's shards spread across all workers instead of
///    serializing on the worker that drew the file;
/// 3. aggregate each staged replay sequentially ([`finish_replay`]), in
///    input order.
///
/// Finally persist a fresh memo snapshot and assemble the run.
fn run_jobs(jobs: Vec<Job>, opts: &BatchOptions) -> BatchRun {
    let caches = if !opts.use_cache {
        SharedCaches::default()
    } else if let Some(shared) = &opts.shared {
        SharedCaches {
            sem: Some(shared.sem.clone()),
            eval: Some(shared.eval.clone()),
        }
    } else {
        SharedCaches {
            sem: Some(Arc::new(SemCache::new())),
            eval: Some(Arc::new(EvalCache::new())),
        }
    };
    let registry = MetricsRegistry::new();
    if let (Some(cache), Some(store)) = (&caches.sem, &opts.memo_store) {
        let start = Instant::now();
        if let Some(blob) = store.load_memo() {
            cache.import_snapshot(&blob);
        }
        registry.record_stage(Stage::Snapshot, start.elapsed().as_nanos() as u64);
    }
    let counters = ShardCounters::new();
    let (staged, pool) = opts.scheduler.run_ordered(&jobs, opts.jobs, |_, job| {
        stage_job(job, opts, &caches, &counters)
    });
    // Merge each worker's private buffer in input order: the registry's
    // aggregates come out identical regardless of how the pool scheduled
    // the files.
    let staged: Vec<StagedJob> = jobs
        .iter()
        .zip(staged)
        .map(|(job, (staged, local))| {
            let path = match job {
                Job::Spec { path } => path,
                Job::Replay { proof_path, .. } => proof_path,
            };
            registry.record_file(path, local);
            staged
        })
        .collect();

    let pendings: Vec<&PendingReplay> = staged
        .iter()
        .filter_map(|s| match s {
            StagedJob::Replay { pending, .. } => Some(&**pending),
            StagedJob::Done(_) => None,
        })
        .collect();
    let discharge_start = Instant::now();
    let verdicts = discharge_pending(
        &pendings,
        opts.jobs,
        opts.scheduler,
        opts.oblig_store.as_deref(),
        &counters,
        Some(&registry),
    );
    if !pendings.is_empty() {
        registry.record_stage(
            Stage::Discharge,
            discharge_start.elapsed().as_nanos() as u64,
        );
    }
    drop(pendings);

    let results = staged
        .into_iter()
        .map(|s| match s {
            StagedJob::Done(result) => result,
            StagedJob::Replay {
                proof_path,
                spec,
                verdict_fp,
                pending,
            } => match finish_replay(
                &spec,
                pending,
                &verdicts,
                opts.oblig_store.as_deref(),
                &counters,
            ) {
                Ok(outcome) => {
                    if let (Some(store), Some(fp)) = (opts.store.as_deref(), &verdict_fp) {
                        record_outcome(store, fp, &spec, &outcome);
                    }
                    outcome_result(&proof_path, outcome)
                }
                Err(e) => error_result(&proof_path, format!("{proof_path}: {e}")),
            },
        })
        .collect();

    let mut memo_import = MemoImportStats::default();
    let mut memo_export = MemoSnapshotStats::default();
    let mut saved = false;
    if let (Some(cache), Some(store)) = (&caches.sem, &opts.memo_store) {
        let start = Instant::now();
        let (blob, stats) = cache.export_snapshot(MEMO_SNAPSHOT_MAX_ENTRIES);
        saved = !stats.unchanged;
        if saved {
            store.save_memo(&blob);
        }
        memo_import = cache.snapshot_stats();
        memo_export = stats;
        registry.record_stage(Stage::Snapshot, start.elapsed().as_nanos() as u64);
    }

    let cache = caches.sem.map(|c| c.stats()).unwrap_or_default();
    let eval_cache = caches.eval.map(|c| c.stats()).unwrap_or_default();
    let store_stats = opts.store.as_ref().map(|s| s.stats());
    let shards = counters.snapshot();
    registry.set_counters(
        "pool",
        &[
            ("workers", pool.workers as u64),
            ("executed", pool.executed.iter().sum()),
            ("steals", pool.steals),
        ],
    );
    registry.set_counters(
        "memo",
        &[
            ("hits", cache.hits),
            ("misses", cache.misses),
            ("entries", cache.entries as u64),
        ],
    );
    registry.set_counters(
        "eval-memo",
        &[("hits", eval_cache.hits), ("misses", eval_cache.misses)],
    );
    if let Some(stats) = &store_stats {
        registry.set_counters(
            "store",
            &[
                ("cached", stats.hits),
                ("re-verified", stats.misses),
                ("written", stats.writes),
            ],
        );
    }
    if opts.memo_store.is_some() {
        registry.set_counters(
            "memo-snapshot",
            &[
                ("loaded", memo_import.loaded),
                ("rejected", memo_import.rejected),
                ("materialized", memo_import.materialized),
                ("exported", memo_export.exported),
                ("evicted", memo_export.evicted),
                ("saved", u64::from(saved)),
            ],
        );
    }
    if shards.any() {
        registry.set_counters(
            "shard",
            &[
                ("shards", shards.total),
                ("distinct", shards.distinct),
                ("cached", shards.cached),
                ("re-checked", shards.rechecked),
                ("written", shards.written),
                ("summary-hits", shards.summaries),
            ],
        );
    }
    BatchRun {
        results,
        pool,
        cache,
        eval_cache,
        store: store_stats,
        shards,
        memo_import,
        memo_export,
        metrics: registry,
    }
}

/// Runs a batch over spec (`.hhl`) and certificate (`.hhlp`) files.
///
/// Files run concurrently across `opts.jobs` workers; the returned results
/// are in input order and independent of the schedule. `.hhlp` files are
/// replayed against their sibling `.hhl` spec (same directory, same stem).
pub fn run_batch(files: &[String], opts: &BatchOptions) -> BatchRun {
    run_jobs(
        files
            .iter()
            .map(|f| classify(f, opts.force_mode.is_some()))
            .collect(),
        opts,
    )
}

/// Runs explicit `(spec, certificate)` pairs (`hhl replay --jobs N`).
pub fn run_replay_batch(pairs: &[(String, String)], opts: &BatchOptions) -> BatchRun {
    run_jobs(
        pairs
            .iter()
            .map(|(spec, proof)| Job::Replay {
                spec_path: spec.clone(),
                proof_path: proof.clone(),
            })
            .collect(),
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn specs_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs")
    }

    fn spec(name: &str) -> String {
        specs_dir().join(name).to_string_lossy().into_owned()
    }

    fn opts(jobs: usize) -> BatchOptions {
        BatchOptions {
            jobs,
            ..BatchOptions::default()
        }
    }

    #[test]
    fn batch_reports_are_identical_across_job_counts() {
        let files = vec![
            spec("ni_c1.hhl"),
            spec("ni_c2.hhl"),
            spec("while_sync.hhl"),
            spec("gni_c4_violation.hhl"),
            spec("minimum.hhl"),
        ];
        let baseline = run_batch(&files, &opts(1)).report();
        for jobs in [2, 8] {
            let run = run_batch(&files, &opts(jobs)).report();
            assert_eq!(
                baseline.to_string(),
                run.to_string(),
                "jobs = {jobs} diverged"
            );
            assert_eq!(baseline.exit_code(), run.exit_code());
        }
        assert_eq!(baseline.exit_code(), 0);
        assert_eq!(baseline.summary().passed, 4);
        assert_eq!(baseline.summary().failed_as_expected, 1); // ni_c2 expects fail
    }

    #[test]
    fn batch_continues_past_errors_and_counts_them() {
        // A missing file and a malformed spec must not stop the files after
        // them from being verified.
        let dir = std::env::temp_dir().join("hhl-batch-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let bad = dir.join("malformed.hhl");
        std::fs::write(&bad, "mode: check\nnot a key line\n").expect("write");
        let files = vec![
            dir.join("does_not_exist.hhl")
                .to_string_lossy()
                .into_owned(),
            bad.to_string_lossy().into_owned(),
            spec("ni_c1.hhl"),
        ];
        let run = run_batch(&files, &opts(2));
        let report = run.report();
        let summary = report.summary();
        assert_eq!(summary.errors, 2, "{report}");
        assert_eq!(summary.passed, 1, "later files must still run: {report}");
        assert_eq!(report.exit_code(), 2);
    }

    #[test]
    fn hhlp_files_pair_with_sibling_specs() {
        let proofs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/proofs");
        // The example proofs live next to specs in a *different* dir, so
        // exercise the explicit-pair API with the real corpus layout…
        let pairs = vec![(
            spec("while_sync.hhl"),
            proofs
                .join("while_sync.hhlp")
                .to_string_lossy()
                .into_owned(),
        )];
        let run = run_replay_batch(&pairs, &opts(2));
        assert_eq!(run.report().exit_code(), 0, "{}", run.report());
        // …and the sibling convention itself on a co-located copy.
        let dir = std::env::temp_dir().join("hhl-batch-sibling");
        std::fs::create_dir_all(&dir).expect("temp dir");
        for (from, to) in [
            (spec("while_sync.hhl"), dir.join("ws.hhl")),
            (
                proofs
                    .join("while_sync.hhlp")
                    .to_string_lossy()
                    .into_owned(),
                dir.join("ws.hhlp"),
            ),
        ] {
            std::fs::copy(from, to).expect("copy corpus file");
        }
        let files = vec![dir.join("ws.hhlp").to_string_lossy().into_owned()];
        let run = run_batch(&files, &opts(1));
        assert_eq!(run.report().exit_code(), 0, "{}", run.report());
    }

    #[test]
    fn force_prove_never_reclassifies_certificates() {
        // `hhl prove --jobs x.hhlp` must fail to parse the certificate as a
        // spec — exactly like sequential `hhl prove x.hhlp` — instead of
        // silently switching engines to replay-against-sibling.
        let cert = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/proofs/ni_c1.hhlp")
            .to_string_lossy()
            .into_owned();
        let run = run_batch(
            &[cert],
            &BatchOptions {
                jobs: 2,
                force_mode: Some(Mode::Prove),
                ..BatchOptions::default()
            },
        );
        assert_eq!(run.report().summary().errors, 1, "{}", run.report());
        assert_eq!(run.report().exit_code(), 2);
    }

    fn opts_with_store(jobs: usize, store: &Arc<VerdictStore>) -> BatchOptions {
        BatchOptions {
            jobs,
            store: Some(store.clone()),
            memo_store: Some(store.clone()),
            ..BatchOptions::default()
        }
    }

    fn temp_store(name: &str) -> Arc<VerdictStore> {
        let dir =
            std::env::temp_dir().join(format!("hhl-batch-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(VerdictStore::open(dir, false).expect("temp store"))
    }

    #[test]
    fn warm_store_replays_verdicts_without_reverification() {
        let files = vec![
            spec("ni_c1.hhl"),
            spec("ni_c2.hhl"),
            spec("while_sync.hhl"),
            spec("minimum.hhl"),
        ];
        let store = temp_store("warm");
        let cold = run_batch(&files, &opts_with_store(2, &store));
        let cold_stats = cold.store.expect("store configured");
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(cold_stats.misses, files.len() as u64);
        assert_eq!(cold_stats.writes, files.len() as u64);
        assert!(cold.memo_export.exported > 0);

        // Same process, fresh store handle (fresh counters), same files:
        // everything is answered from disk, reports byte-identical.
        let warm_handle = Arc::new(VerdictStore::open(store.dir(), false).unwrap());
        let warm = run_batch(&files, &opts_with_store(2, &warm_handle));
        let warm_stats = warm.store.expect("store configured");
        assert_eq!(warm_stats.hits, files.len() as u64, "{warm_stats:?}");
        assert_eq!(warm_stats.misses, 0, "{warm_stats:?}");
        assert_eq!(cold.report().to_string(), warm.report().to_string());
        assert!(warm.memo_import.loaded > 0, "{:?}", warm.memo_import);

        // --fresh ignores the records and re-verifies everything.
        let fresh_handle = Arc::new(VerdictStore::open(store.dir(), true).unwrap());
        let fresh = run_batch(&files, &opts_with_store(2, &fresh_handle));
        let fresh_stats = fresh.store.expect("store configured");
        assert_eq!(fresh_stats.hits, 0);
        assert_eq!(fresh_stats.misses, files.len() as u64);
        assert_eq!(cold.report().to_string(), fresh.report().to_string());
    }

    #[test]
    fn store_covers_replay_pairs_and_certificate_edits() {
        let proofs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/proofs");
        let dir =
            std::env::temp_dir().join(format!("hhl-batch-replay-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::fs::copy(spec("while_sync.hhl"), dir.join("ws.hhl")).unwrap();
        std::fs::copy(proofs.join("while_sync.hhlp"), dir.join("ws.hhlp")).unwrap();
        let files = vec![dir.join("ws.hhlp").to_string_lossy().into_owned()];

        let store = temp_store("replay");
        let cold = run_batch(&files, &opts_with_store(1, &store));
        assert_eq!(cold.report().exit_code(), 0, "{}", cold.report());
        let warm = run_batch(&files, &opts_with_store(1, &store));
        assert_eq!(warm.store.unwrap().hits, cold.store.unwrap().misses);
        assert_eq!(cold.report().to_string(), warm.report().to_string());

        // Editing the certificate (only) must re-verify the pair: append a
        // comment-free but content-changing byte to the script.
        let cert = std::fs::read_to_string(dir.join("ws.hhlp")).unwrap();
        std::fs::write(dir.join("ws.hhlp"), format!("{cert}\n")).unwrap();
        let edited = run_batch(&files, &opts_with_store(1, &store));
        let stats = edited.store.unwrap();
        // Counters are cumulative on the shared handle: cold miss + warm
        // hit + the edited pair's forced miss.
        assert_eq!((stats.hits, stats.misses), (1, 2), "{stats:?}");
    }

    #[test]
    fn errors_are_never_cached() {
        let dir = std::env::temp_dir().join(format!("hhl-batch-errstore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let _ = std::fs::remove_file(dir.join("absent.hhl"));
        let missing = dir.join("absent.hhl").to_string_lossy().into_owned();
        let store = temp_store("errors");
        let first = run_batch(std::slice::from_ref(&missing), &opts_with_store(1, &store));
        assert_eq!(first.report().exit_code(), 2);
        assert_eq!(first.store.unwrap().writes, 0, "no verdict, no record");
        // Fix the file: it runs (a miss), never a stale error replay.
        std::fs::write(
            dir.join("absent.hhl"),
            "mode: check\npre: low(l)\npost: low(l)\nvars: l in 0..1\nprogram:\nl := l * 2\n",
        )
        .unwrap();
        let second = run_batch(&[missing], &opts_with_store(1, &store));
        assert_eq!(second.report().exit_code(), 0, "{}", second.report());
    }

    #[test]
    fn cache_and_no_cache_verdicts_agree() {
        let files = vec![spec("ni_c1.hhl"), spec("ni_c2.hhl"), spec("minimum.hhl")];
        let cached = run_batch(&files, &opts(2));
        let uncached = run_batch(
            &files,
            &BatchOptions {
                jobs: 2,
                use_cache: false,
                ..BatchOptions::default()
            },
        );
        assert_eq!(cached.report().to_string(), uncached.report().to_string());
        assert_eq!(uncached.cache, hhl_lang::CacheStats::default());
    }
}
