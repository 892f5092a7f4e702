//! The traced run: each workload's inputs replayed in-process through the
//! public functions of every layer, in the order `hhl batch`, `hhl replay`
//! and `Engine::handle` call them, with fresh per-pass caches (as a new
//! process has), the persistent store, and the process-resident pool.
//!
//! Every call into a layer is wrapped in a span ([`crate::spans`]); counts
//! are taken at the same boundaries. Untraced passes of the program's own
//! entry points (`run_batch`, `run_replay_batch`, `Engine::handle`)
//! alternate with the traced ones over the same inputs: their verdicts must
//! agree with the traced verdicts and with the reference, and their wall
//! time is the base of `trace.overhead_frac`.
//!
//! The run fails (counts a failure) when the trace stops describing the
//! program: when the layer spans leave more than [`RESIDUAL_MAX`] of the
//! traced wall time uncovered, when tracing changes the pass time by more
//! than [`OVERHEAD_MAX`], when a replayed batch stage disagrees with the
//! program's own timer of that stage (`BatchRun::metrics`), or when the
//! trace and the program's timers disagree on the observations the
//! benchmark was built to check.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hhl_assert::{candidate_sets, Assertion, Env, EvalCache};
use hhl_cli::api::{parse_json, Frame, Response};
use hhl_cli::{
    parse_request, parse_spec, replay_summary_fingerprint, run_batch, run_replay_batch, run_spec,
    spec_fingerprint, BatchOptions, BatchRun, CacheOpts, Engine, Expect, Mode, Spec, Verdict,
};
use hhl_core::proof::{align_obligations, discharge_obligation, ProofContext, ProofError};
use hhl_core::{witness_triple, Triple, ValidityConfig};
use hhl_driver::pool::resident;
use hhl_driver::report::{BatchReport, FileReport, FileStatus};
use hhl_driver::store::{ReplaySummary, VerdictRecord, VerdictStore};
use hhl_lang::{Cmd, Fingerprint, SemCache, StateSet};
use hhl_proofs::{compile_script, shard_derivation, shard_fingerprint, ObligationShard, ShardPlan};

use crate::json::{get_strs, Obj};
use crate::load::{check_response, Planned, RequestMix, CONNS, JOBS};
use crate::spans::{self, root, span, under, Span};
use crate::{read_manifest, Args};

/// `hhl batch`'s memo snapshot cap (crate-private there; a change shows
/// as an `entries_exported` disagreement with the program).
const SNAPSHOT_CAP: usize = 8192;
/// At most this share of the traced wall time may lie outside every layer
/// span (`trace.residual_frac`).
const RESIDUAL_MAX: f64 = 0.12;
/// Tracing may change the mean pass or request time by at most this share
/// (`trace.overhead_frac`).
const OVERHEAD_MAX: f64 = 0.08;
/// A replayed stage agrees with the program's timer of the same stage when
/// their per-pass means differ by at most `STAGE_REL` of the larger plus
/// `STAGE_ABS` of the untraced pass time.
const STAGE_REL: f64 = 0.3;
const STAGE_ABS: f64 = 0.03;
/// Memo snapshot entry counts must agree within this share.
const ENTRIES_REL: f64 = 0.1;

/// Counters taken at layer boundaries, shared by all threads.
#[derive(Clone, Copy)]
enum K {
    Files,
    Triples,
    Sets,
    PreSat,
    SemCalls,
    EvalCalls,
    StoreReads,
    StoreHits,
    StoreWrites,
    VerdictMisses,
    Steps,
    Shards,
    Distinct,
    Obligations,
    Steals,
    Jobs,
    WaitNs,
    BusyNs,
    CapacityNs,
    Loaded,
    Loads,
    Exported,
    Saves,
    SemHits,
    SemLookups,
    EvalHits,
    EvalLookups,
    ResponseHits,
    /// Store calls of the stage phase, in ns: what `Stage::Store` times.
    StageStoreNs,
    /// Wall time of the batch-wide discharge phase, in ns.
    DischargeWallNs,
}
const COUNTERS: usize = K::DischargeWallNs as usize + 1;
static COUNTS: [AtomicU64; COUNTERS] = [const { AtomicU64::new(0) }; COUNTERS];

fn add(k: K, n: u64) {
    COUNTS[k as usize].fetch_add(n, Relaxed);
}

fn count(k: K) -> u64 {
    COUNTS[k as usize].load(Relaxed)
}

// ------------------------------------------------------------------ batch

enum Job {
    Spec(String),
    Replay { spec: String, proof: String },
}

fn classify(path: &str) -> Job {
    match path.strip_suffix(".hhlp") {
        Some(stem) => Job::Replay {
            spec: format!("{stem}.hhl"),
            proof: path.to_owned(),
        },
        None => Job::Spec(path.to_owned()),
    }
}

struct Caches {
    sem: Arc<SemCache>,
    eval: Arc<EvalCache>,
}

impl Caches {
    fn fresh() -> Caches {
        Caches {
            sem: Arc::new(SemCache::new()),
            eval: Arc::new(EvalCache::new()),
        }
    }

    /// Folds this pass's memo hit counts into the run's counters.
    fn tally(&self) {
        let sem = self.sem.stats();
        let eval = self.eval.stats();
        add(K::SemHits, sem.hits);
        add(K::SemLookups, sem.hits + sem.misses);
        add(K::EvalHits, eval.hits);
        add(K::EvalLookups, eval.hits + eval.misses);
    }
}

struct Pending {
    path: String,
    spec: Spec,
    triple: Triple,
    verdict_fp: Option<String>,
    summary_fp: String,
    ctx: ProofContext,
    plan: ShardPlan,
}

enum Staged {
    Done(FileReport),
    Pending(Box<Pending>),
}

fn report(path: &str, verdict: &str, expect: Expect) -> FileReport {
    let expected = matches!(
        (verdict, expect),
        ("PASS", Expect::Pass) | ("FAIL", Expect::Fail)
    );
    let verdict = verdict.to_owned();
    FileReport {
        path: path.to_owned(),
        status: if expected {
            FileStatus::Expected { verdict }
        } else {
            FileStatus::Unexpected { verdict }
        },
    }
}

fn error(path: &str, message: String) -> FileReport {
    FileReport {
        path: path.to_owned(),
        status: FileStatus::Error { message },
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load(path: &str, caches: &Caches) -> Result<Spec, String> {
    let mut spec = parse_spec(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    spec.config.cache = Some(caches.sem.clone());
    spec.config.eval_cache = Some(caches.eval.clone());
    add(K::Files, 1);
    Ok(spec)
}

/// Triple validity (Def. 5) through the public kernels, exactly as
/// `check_triple` sweeps: the candidate sets, `eval` of the precondition,
/// `sem` of the command, `eval` of the postcondition. Returns the first
/// violating set.
fn validity(
    pre: &Assertion,
    cmd: &Cmd,
    post: &Assertion,
    cfg: &ValidityConfig,
) -> Option<StateSet> {
    add(K::Triples, 1);
    let sets = span("candidate_sets", || {
        candidate_sets(&cfg.universe, &cfg.check)
    });
    add(K::Sets, sets.len() as u64);
    for set in sets {
        add(K::EvalCalls, 1);
        if !span("eval", || cfg.eval(pre, &set, &mut Env::new())) {
            continue;
        }
        add(K::PreSat, 1);
        add(K::SemCalls, 1);
        let out = span("sem", || cfg.sem(cmd, &set));
        add(K::EvalCalls, 1);
        if !span("eval", || cfg.eval(post, &out, &mut Env::new())) {
            return Some(set);
        }
    }
    None
}

/// `run_spec`'s check mode: validity, and on a refutation the Thm. 5
/// witness re-check.
fn check(spec: &Spec) -> &'static str {
    let t = Triple::new(spec.pre.clone(), spec.cmd.clone(), spec.post.clone());
    match validity(&t.pre, &t.cmd, &t.post, &spec.config) {
        None => "PASS",
        Some(violating) => {
            let w = witness_triple(&t, &violating);
            validity(&w.pre, &w.cmd, &w.post, &spec.config);
            "FAIL"
        }
    }
}

fn engine(spec: &Spec) -> Result<&'static str, String> {
    match run_spec(spec) {
        Ok(outcome) if outcome.verdict == Verdict::Pass => Ok("PASS"),
        Ok(_) => Ok("FAIL"),
        Err(e) => Err(e.to_string()),
    }
}

/// A store call in a span. `staged` calls are also charged to the stage
/// phase's store total, the calls `hhl batch` times as `Stage::Store`.
fn store_op<T>(name: &'static str, staged: bool, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = span(name, f);
    if staged {
        add(K::StageStoreNs, start.elapsed().as_nanos() as u64);
    }
    out
}

fn lookup(store: Option<&VerdictStore>, fp: &Option<String>) -> Option<VerdictRecord> {
    let (store, fp) = (store?, fp.as_ref()?);
    add(K::StoreReads, 1);
    let hit = store_op("store.read", true, || store.lookup(fp));
    if hit.is_some() {
        add(K::StoreHits, 1);
    } else {
        add(K::VerdictMisses, 1);
    }
    hit
}

fn record(
    store: Option<&VerdictStore>,
    fp: &Option<String>,
    spec: &Spec,
    verdict: &str,
    staged: bool,
) {
    if let (Some(store), Some(fp)) = (store, fp) {
        add(K::StoreWrites, 1);
        let rec = VerdictRecord {
            mode: spec.mode.to_string(),
            verdict: verdict.to_owned(),
        };
        store_op("store.write", staged, || store.record(fp, &rec));
    }
}

/// Phase 1 for one file (`stage_job` of `hhl batch`).
fn stage(job: &Job, store: Option<&VerdictStore>, caches: &Caches) -> Staged {
    match job {
        Job::Spec(path) => {
            let spec = match span("parse", || load(path, caches)) {
                Ok(spec) => spec,
                Err(e) => return Staged::Done(error(path, e)),
            };
            let fp =
                store.map(|_| span("fingerprint", || spec_fingerprint(&spec, None).to_string()));
            if let Some(rec) = lookup(store, &fp) {
                return Staged::Done(report(path, &rec.verdict, spec.expect));
            }
            let verdict = match spec.mode {
                Mode::Check => Ok(span("check", || check(&spec))),
                Mode::Prove => span("prove", || engine(&spec)),
                _ => span("verify", || engine(&spec)),
            };
            match verdict {
                Ok(verdict) => {
                    record(store, &fp, &spec, verdict, true);
                    Staged::Done(report(path, verdict, spec.expect))
                }
                Err(e) => Staged::Done(error(path, e)),
            }
        }
        Job::Replay { spec, proof } => {
            let loaded = span("parse", || {
                Ok::<_, String>((load(spec, caches)?, read(proof)?))
            });
            let (spec, cert) = match loaded {
                Ok(pair) => pair,
                Err(e) => return Staged::Done(error(proof, e)),
            };
            let verdict_fp = store.map(|_| {
                span("fingerprint", || {
                    spec_fingerprint(&spec, Some(&cert)).to_string()
                })
            });
            if let Some(rec) = lookup(store, &verdict_fp) {
                return Staged::Done(report(proof, &rec.verdict, spec.expect));
            }
            let summary_fp = span("fingerprint", || {
                replay_summary_fingerprint(&spec, &cert).to_string()
            });
            if let Some(store) = store {
                add(K::StoreReads, 1);
                if store_op("store.read", true, || store.lookup_replay(&summary_fp)).is_some() {
                    add(K::StoreHits, 1);
                    return Staged::Done(report(proof, "PASS", spec.expect));
                }
            }
            let derivation = match span("elaborate", || compile_script(&cert)) {
                Ok(d) => d,
                Err(e) => return Staged::Done(error(proof, e.to_string())),
            };
            add(
                K::Steps,
                cert.lines().filter(|l| l.starts_with("step ")).count() as u64,
            );
            let triple = Triple::new(spec.pre.clone(), spec.cmd.clone(), spec.post.clone());
            if derivation
                .claimed_cmd()
                .is_some_and(|cmd| cmd != triple.cmd)
            {
                return Staged::Done(error(proof, "certificate proves another program".into()));
            }
            let ctx = ProofContext::new(spec.config.clone());
            let plan = span("shard", || shard_derivation(&derivation, &ctx));
            add(K::Shards, plan.shards.len() as u64);
            Staged::Pending(Box::new(Pending {
                path: proof.clone(),
                spec,
                triple,
                verdict_fp,
                summary_fp,
                ctx,
                plan,
            }))
        }
    }
}

/// Runs `f` over `items` on the resident pool, one `pool.job` span per
/// item under a `pool` span, with wait and busy accounting.
fn pooled<I: Sync, T: Send>(items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    span("pool", || {
        let parent = spans::current();
        let submitted = Instant::now();
        let (out, stats) = resident().run_ordered(items, JOBS, |_, item| {
            let start = Instant::now();
            let result = under(parent, "pool.job", || f(item));
            (result, start - submitted, start.elapsed())
        });
        let span_ns = submitted.elapsed().as_nanos() as u64;
        add(K::Steals, stats.steals);
        add(K::Jobs, out.len() as u64);
        add(K::CapacityNs, stats.workers as u64 * span_ns);
        out.into_iter()
            .map(|(result, wait, busy)| {
                add(K::WaitNs, wait.as_nanos() as u64);
                add(K::BusyNs, busy.as_nanos() as u64);
                result
            })
            .collect()
    })
}

fn obligation_hit(store: Option<&VerdictStore>, fp: Fingerprint) -> bool {
    store.is_some_and(|s| {
        add(K::StoreReads, 1);
        let hit = span("store.read", || s.lookup_obligation(&fp.to_string()));
        add(K::StoreHits, u64::from(hit));
        hit
    })
}

fn record_obligation(store: Option<&VerdictStore>, shard: &ObligationShard) {
    if let Some(s) = store {
        add(K::StoreWrites, 1);
        span("store.write", || {
            s.record_obligation(&shard.fingerprint.to_string(), shard.obligation.rule)
        });
    }
}

/// Phase 2: every pending certificate's distinct shards, batch-wide, on
/// the pool (`discharge_pending`).
fn discharge(
    pendings: &[&Pending],
    store: Option<&VerdictStore>,
) -> HashMap<Fingerprint, Result<(), ProofError>> {
    let mut seen = HashSet::new();
    let mut distinct: Vec<(&ObligationShard, &ProofContext)> = Vec::new();
    for p in pendings {
        for shard in &p.plan.shards {
            if seen.insert(shard.fingerprint) {
                distinct.push((shard, &p.ctx));
            }
        }
    }
    add(K::Distinct, distinct.len() as u64);
    let mut verdicts = HashMap::new();
    let mut to_check = Vec::new();
    for (shard, ctx) in distinct {
        if obligation_hit(store, shard.fingerprint) {
            verdicts.insert(shard.fingerprint, Ok(()));
        } else {
            to_check.push((shard, ctx));
        }
    }
    add(K::Obligations, to_check.len() as u64);
    let results = pooled(&to_check, |(shard, ctx)| {
        span("discharge", || discharge_obligation(&shard.obligation, ctx))
    });
    for ((shard, _), result) in to_check.iter().zip(results) {
        if result.is_ok() {
            record_obligation(store, shard);
        }
        verdicts.insert(shard.fingerprint, result);
    }
    verdicts
}

/// Phase 3 for one certificate (`finish_replay`).
fn finish(
    p: Pending,
    verdicts: &HashMap<Fingerprint, Result<(), ProofError>>,
    store: Option<&VerdictStore>,
) -> FileReport {
    let rejected = |e: &ProofError| error(&p.path, format!("certificate rejected: {e}"));
    if let Some(Err(e)) = p
        .plan
        .shards
        .iter()
        .map(|s| &verdicts[&s.fingerprint])
        .find(|r| r.is_err())
    {
        return rejected(e);
    }
    let conclusion = match &p.plan.outcome {
        Ok(t) => t.clone(),
        Err(e) => return rejected(e),
    };
    let mut stats = p.plan.stats;
    let aligned = conclusion != p.triple;
    if aligned {
        if conclusion.cmd != p.triple.cmd {
            return error(&p.path, "certificate proves another program".into());
        }
        stats.rules += 1;
        for ob in align_obligations(&conclusion, &p.spec.pre, &p.spec.post, p.plan.shards.len()) {
            ob.kind.charge(&mut stats);
            let shard = ObligationShard {
                fingerprint: shard_fingerprint(&ob, &p.ctx),
                obligation: ob,
            };
            if !obligation_hit(store, shard.fingerprint) {
                add(K::Obligations, 1);
                if let Err(e) = span("discharge", || {
                    discharge_obligation(&shard.obligation, &p.ctx)
                }) {
                    return rejected(&e);
                }
                record_obligation(store, &shard);
            }
        }
    }
    if let Some(s) = store {
        let summary = ReplaySummary {
            rules: stats.rules as u64,
            entailments: stats.entailments as u64,
            oracles: stats.oracle_admissions as u64,
            aligned,
        };
        add(K::StoreWrites, 1);
        span("store.write", || s.record_replay(&p.summary_fp, &summary));
    }
    record(store, &p.verdict_fp, &p.spec, "PASS", false);
    report(&p.path, "PASS", p.spec.expect)
}

/// One traced `hhl batch` / `hhl replay` pass; returns the compact report.
fn batch_pass(jobs: &[Job], store: Option<&VerdictStore>) -> String {
    let caches = Caches::fresh();
    if let Some(s) = store {
        span("snapshot.load", || {
            if let Some(blob) = s.load_memo() {
                add(K::Loaded, caches.sem.import_snapshot(&blob).loaded);
            }
        });
        add(K::Loads, 1);
    }
    let staged = pooled(jobs, |job| stage(job, store, &caches));
    let pendings: Vec<&Pending> = staged
        .iter()
        .filter_map(|s| match s {
            Staged::Pending(p) => Some(&**p),
            Staged::Done(_) => None,
        })
        .collect();
    let verdicts = if pendings.is_empty() {
        HashMap::new()
    } else {
        let start = Instant::now();
        let verdicts = discharge(&pendings, store);
        add(K::DischargeWallNs, start.elapsed().as_nanos() as u64);
        verdicts
    };
    drop(pendings);
    let reports: Vec<FileReport> = staged
        .into_iter()
        .map(|s| match s {
            Staged::Done(r) => r,
            Staged::Pending(p) => finish(*p, &verdicts, store),
        })
        .collect();
    if let Some(s) = store {
        span("snapshot.save", || {
            let (blob, stats) = caches.sem.export_snapshot(SNAPSHOT_CAP);
            s.save_memo(&blob);
            add(K::Exported, stats.exported);
        });
        add(K::Saves, 1);
    }
    caches.tally();
    let out = span("render", || format!("{}\n", BatchReport::new(reports)));
    // Freeing the pass's memo caches is a tenth of a cold pass: a span of
    // its own, so it is not mistaken for untraced time.
    span("release", move || drop((caches, verdicts)));
    out
}

/// What one traced run measured.
#[derive(Default)]
struct Measured {
    /// Traced passes (traced requests on `serve-mixed`).
    passes: u64,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Traced requests per action (`serve-mixed`), for per-action means.
    actions: BTreeMap<&'static str, u64>,
    /// The program's own stage timers over the untraced batch passes.
    program: Option<Program>,
}

/// Stage times and memo counts summed over passes: the program's own
/// (`BatchRun::metrics`) or the traced replica's, grouped the same way.
#[derive(Default)]
struct Stages {
    /// Stage name (`Stage::name`) → total ns.
    ns: BTreeMap<&'static str, u64>,
    /// Triple-validity time inside the check stage, ns.
    validity_ns: u64,
    loaded: u64,
    exported: u64,
}

/// [`Stages`] of the untraced passes.
#[derive(Default)]
struct Program {
    stages: Stages,
    passes: u64,
}

impl Program {
    fn add(&mut self, run: &BatchRun) {
        let snapshot = run.metrics.snapshot();
        for agg in &snapshot.stages {
            *self.stages.ns.entry(agg.stage).or_default() += agg.timing.total_ns() as u64;
        }
        self.stages.validity_ns += snapshot
            .rules
            .iter()
            .filter(|r| r.rule == "triple-validity")
            .map(|r| r.timing.total_ns() as u64)
            .sum::<u64>();
        self.stages.loaded += run.memo_import.loaded;
        self.stages.exported += run.memo_export.exported;
        self.passes += 1;
    }
}

/// The replica's stages, from its spans' self times and the stage-phase
/// counters, grouped as `hhl batch` times them.
fn replica_stages(self_ns: &BTreeMap<&'static str, u64>) -> Stages {
    let t = |names: &[&str]| {
        names
            .iter()
            .map(|n| self_ns.get(n).copied().unwrap_or(0))
            .sum::<u64>()
    };
    let validity_ns = t(&["check", "candidate_sets", "sem", "eval"]);
    let ns = [
        ("snapshot", t(&["snapshot.load", "snapshot.save"])),
        ("parse", t(&["parse"])),
        ("check", validity_ns + t(&["prove", "verify"])),
        ("store", count(K::StageStoreNs)),
        ("elaborate", t(&["elaborate"])),
        ("shard", t(&["shard"])),
        ("discharge", count(K::DischargeWallNs)),
    ];
    Stages {
        ns: ns.into_iter().filter(|(_, ns)| *ns > 0).collect(),
        validity_ns,
        loaded: count(K::Loaded),
        exported: count(K::Exported),
    }
}

impl Stages {
    /// The memo snapshot is the largest stage: it dominates the pass.
    fn snapshot_is_largest(&self) -> bool {
        let snapshot = self.ns.get("snapshot").copied().unwrap_or(0);
        let others = self.ns.iter().filter(|(name, _)| **name != "snapshot");
        snapshot > others.map(|(_, ns)| *ns).max().unwrap_or(0)
    }

    /// Triple validity takes most of the check stage.
    fn validity_dominates_check(&self) -> bool {
        2 * self.validity_ns > self.ns.get("check").copied().unwrap_or(0)
    }
}

fn per(total: u64, passes: u64) -> f64 {
    total as f64 / passes.max(1) as f64
}

/// Per-pass means in ms of every stage either side timed, as (stage,
/// replica mean over its `passes` traced passes, program mean).
fn stage_means(replica: &Stages, passes: u64, program: &Program) -> Vec<(&'static str, f64, f64)> {
    let names: BTreeSet<&'static str> = replica
        .ns
        .keys()
        .chain(program.stages.ns.keys())
        .copied()
        .collect();
    let ms = |s: &Stages, name, n| per(s.ns.get(name).copied().unwrap_or(0), n) / 1e6;
    names
        .into_iter()
        .map(|name| {
            (
                name,
                ms(replica, name, passes),
                ms(&program.stages, name, program.passes),
            )
        })
        .collect()
}

/// Where the replica and the program (whose untraced passes took
/// `pass_ms` on average) disagree.
fn disagreements(replica: &Stages, passes: u64, program: &Program, pass_ms: f64) -> Vec<String> {
    let mut out = Vec::new();
    for (name, r, p) in stage_means(replica, passes, program) {
        if (r - p).abs() > STAGE_REL * r.max(p) + STAGE_ABS * pass_ms {
            out.push(format!(
                "stage {name}: replica {r:.3} ms/pass, program {p:.3} ms/pass"
            ));
        }
    }
    for (what, r, p) in [
        ("entries_loaded", replica.loaded, program.stages.loaded),
        (
            "entries_exported",
            replica.exported,
            program.stages.exported,
        ),
    ] {
        let (r, p) = (per(r, passes), per(p, program.passes));
        if (r - p).abs() > ENTRIES_REL * r.max(p) {
            out.push(format!(
                "snapshot {what}: replica {r:.1}/pass, program {p:.1}/pass"
            ));
        }
    }
    for (what, r, p) in [
        (
            "snapshot_is_largest_stage",
            replica.snapshot_is_largest(),
            program.stages.snapshot_is_largest(),
        ),
        (
            "validity_dominates_check",
            replica.validity_dominates_check(),
            program.stages.validity_dominates_check(),
        ),
    ] {
        if r != p {
            out.push(format!("observation {what}: replica {r}, program {p}"));
        }
    }
    out
}

fn open_store(dir: &str, fresh: bool) -> Result<VerdictStore, String> {
    if fresh && Path::new(dir).exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    VerdictStore::open(dir, false).map_err(|e| format!("cannot open {dir}: {e}"))
}

fn batch_options(store: Option<Arc<VerdictStore>>) -> BatchOptions {
    BatchOptions {
        jobs: JOBS,
        store: store.clone(),
        oblig_store: store.clone(),
        memo_store: store,
        ..BatchOptions::default()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `batch-cold` and `batch-edit`: untraced `run_batch` passes alternate
/// with traced passes until the deadline.
fn trace_batch(dir: &Path, cold: bool, deadline: Instant) -> Result<Measured, String> {
    let manifest = read_manifest(dir)?;
    let files = get_strs(&manifest, "files")?;
    let expected = read(&format!("{}/expected.stdout", dir.display()))?;
    let edits: Vec<(String, String, String, String)> = if cold {
        Vec::new()
    } else {
        read(&format!("{}/edits.jsonl", dir.display()))?
            .lines()
            .map(|line| {
                let doc = parse_json(line)?;
                let s = |k: &str| crate::json::get_str(&doc, k).map(str::to_owned);
                Ok((
                    s("semantic")?,
                    s("semantic_text")?,
                    s("comment")?,
                    s("comment_text")?,
                ))
            })
            .collect::<Result<_, String>>()?
    };
    let cache = if cold {
        format!("{}/trace-cache", dir.display())
    } else {
        format!("{}/cache", dir.display())
    };
    let jobs: Vec<Job> = files.iter().map(|f| classify(f)).collect();
    let mut m = Measured::default();
    let mut program = Program::default();
    let mut cycle = 0;
    while m.passes < 2 || Instant::now() < deadline {
        for traced in [false, true] {
            if let Some((sem, sem_text, comment, comment_text)) = edits.get(cycle) {
                std::fs::write(sem, sem_text).map_err(|e| e.to_string())?;
                std::fs::write(comment, comment_text).map_err(|e| e.to_string())?;
            } else if !cold {
                return Err("edit plan exhausted".to_owned());
            }
            cycle += 1;
            m.attempted += 1;
            let store = Arc::new(open_store(&cache, cold)?);
            let start = Instant::now();
            let (out, misses) = if traced {
                let before = count(K::VerdictMisses);
                let out = root("pass", m.passes + 1, || batch_pass(&jobs, Some(&store)));
                (out, count(K::VerdictMisses) - before)
            } else {
                let run = run_batch(&files, &batch_options(Some(store.clone())));
                program.add(&run);
                let misses = run.store.map_or(0, |s| s.misses);
                (format!("{}\n", run.report()), misses)
            };
            let elapsed = ms(start.elapsed());
            let state_ok = if cold { misses > 0 } else { misses == 1 };
            if out != expected || !state_ok {
                eprintln!(
                    "trace: pass {} (traced: {traced}) differs: {misses} misses",
                    m.attempted
                );
                m.failed += 1;
            }
            if traced {
                m.traced_ms.push(elapsed);
                m.passes += 1;
            } else {
                m.untraced_ms.push(elapsed);
            }
        }
    }
    m.program = Some(program);
    Ok(m)
}

/// `replay-sharded`: `run_replay_batch` without a store vs the traced
/// stage → discharge → finish replay of the same pairs.
fn trace_replay(dir: &Path, deadline: Instant) -> Result<Measured, String> {
    let manifest = read_manifest(dir)?;
    let flat = get_strs(&manifest, "pairs")?;
    let pairs: Vec<(String, String)> = flat
        .chunks(2)
        .map(|p| (p[0].clone(), p[1].clone()))
        .collect();
    let jobs: Vec<Job> = pairs
        .iter()
        .map(|(spec, proof)| Job::Replay {
            spec: spec.clone(),
            proof: proof.clone(),
        })
        .collect();
    let expected: Vec<FileReport> = pairs
        .iter()
        .map(|(_, p)| report(p, "PASS", Expect::Pass))
        .collect();
    let expected = format!("{}\n", BatchReport::new(expected));
    let mut m = Measured::default();
    let mut program = Program::default();
    while m.passes < 2 || Instant::now() < deadline {
        m.attempted += 2;
        let start = Instant::now();
        let run = run_replay_batch(&pairs, &batch_options(None));
        m.untraced_ms.push(ms(start.elapsed()));
        program.add(&run);
        let start = Instant::now();
        let traced = root("pass", m.passes + 1, || batch_pass(&jobs, None));
        m.traced_ms.push(ms(start.elapsed()));
        m.passes += 1;
        let untraced = format!("{}\n", run.report());
        m.failed += u64::from(untraced != expected) + u64::from(traced != expected);
    }
    m.program = Some(program);
    Ok(m)
}

/// Entries in the memo snapshot stored under `dir`.
fn snapshot_entries(dir: &str) -> Result<u64, String> {
    Ok(open_store(dir, false)?
        .load_memo()
        .map_or(0, |blob| SemCache::new().import_snapshot(&blob).loaded))
}

/// `serve-mixed`: one thread per connection ([`CONNS`]) replays its
/// request stream against one persistent engine warmed from the daemon's
/// snapshot. Every other request of each connection is traced, so traced
/// and untraced requests share the engine's cache states and the request
/// mix; their mean times give the tracing overhead.
fn trace_serve(dir: &Path, seed: u64, deadline: Instant) -> Result<Measured, String> {
    let cache_dir = format!("{}/cache", dir.display());
    let cache = CacheOpts {
        dir: Some(cache_dir.clone()),
        ..CacheOpts::default()
    };
    let mix = RequestMix::load(dir, seed)?;
    let frozen = Mutex::new(HashMap::new());
    add(K::Loaded, snapshot_entries(&cache_dir)?);
    add(K::Loads, 1);
    let (engine, _) = span("snapshot.load", || Engine::persistent(&cache));
    let per_conn: Vec<Result<ServeCounts, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let (mix, engine, frozen) = (&mix, &engine, &frozen);
                scope.spawn(move || serve_conn(mix, engine, frozen, seed, conn, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut m = Measured::default();
    for c in per_conn {
        let c = c?;
        m.attempted += c.requests;
        m.failed += c.failed;
        m.passes += c.traced_ms.len() as u64;
        m.traced_ms.extend(c.traced_ms);
        m.untraced_ms.extend(c.untraced_ms);
        add(K::ResponseHits, c.traced_cached);
        for (action, n) in c.actions {
            *m.actions.entry(action).or_default() += n;
        }
    }
    span("snapshot.save", || engine.save_state());
    add(K::Exported, snapshot_entries(&cache_dir)?);
    add(K::Saves, 1);
    Ok(m)
}

#[derive(Default)]
struct ServeCounts {
    requests: u64,
    failed: u64,
    traced_cached: u64,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    /// Traced requests per action.
    actions: BTreeMap<&'static str, u64>,
}

static REQUEST_IDS: AtomicU64 = AtomicU64::new(1);

fn dispatch_span(action: &str) -> &'static str {
    match action {
        "check" => "api.dispatch.check",
        "batch" => "api.dispatch.batch",
        _ => "api.dispatch.replay",
    }
}

/// [`span`] when `traced`, a plain call otherwise.
fn maybe<T>(traced: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
    if traced {
        span(name, f)
    } else {
        f()
    }
}

/// One request as the socket transport handles it: decode, dispatch
/// (streamed or buffered), render each response line.
fn handle(engine: &Engine, plan: &Planned, traced: bool) -> Result<Response, String> {
    let req = maybe(traced, "api.decode", || parse_request(&plan.line))?;
    if req.stream {
        let mut frames = Vec::new();
        maybe(traced, dispatch_span(plan.action), || {
            engine.handle_stream(&req, &mut |frame: Frame| {
                let line = maybe(traced, "api.respond", || frame.render());
                frames.push(Frame::parse(&line));
            })
        });
        Frame::reassemble(&frames.into_iter().collect::<Result<Vec<_>, _>>()?)
    } else {
        let response = maybe(traced, dispatch_span(plan.action), || engine.handle(&req));
        let line = maybe(traced, "api.respond", || response.render());
        Response::parse(&line)
    }
}

fn serve_conn(
    mix: &RequestMix,
    engine: &Engine,
    frozen: &Mutex<HashMap<String, String>>,
    seed: u64,
    conn: usize,
    until: Instant,
) -> Result<ServeCounts, String> {
    let mut c = ServeCounts::default();
    for plan in mix.stream(seed, conn) {
        if Instant::now() >= until {
            break;
        }
        c.requests += 1;
        let traced = c.requests % 2 == 0;
        let start = Instant::now();
        let response = if traced {
            root("request", REQUEST_IDS.fetch_add(1, Relaxed), || {
                handle(engine, &plan, true)
            })
        } else {
            handle(engine, &plan, false)
        };
        let elapsed = ms(start.elapsed());
        let cached = match response.and_then(|r| check_response(&plan, &r, frozen).map(|()| r)) {
            Ok(r) => r.cached,
            Err(e) => {
                eprintln!("trace: request {} failed: {e}", plan.key);
                c.failed += 1;
                false
            }
        };
        if traced {
            c.traced_ms.push(elapsed);
            c.traced_cached += u64::from(cached);
            *c.actions.entry(plan.action).or_default() += 1;
        } else {
            c.untraced_ms.push(elapsed);
        }
    }
    Ok(c)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Share of the traced wall time, measured around each pass or request
/// from outside its root span, that no layer span on the root's thread
/// accounts for.
fn residual_frac(spans: &[Span], m: &Measured, root_name: &str) -> f64 {
    let wall_ns = m.traced_ms.iter().sum::<f64>() * 1e6;
    1.0 - spans::covered_time(spans, root_name) as f64 / wall_ns.max(1.0)
}

/// Traced ÷ untraced mean pass (request) time, minus one.
fn overhead_frac(m: &Measured) -> f64 {
    mean(&m.traced_ms) / mean(&m.untraced_ms).max(1e-9) - 1.0
}

/// Per-layer metrics from the spans and counters. Times and counts are
/// per pass (per request on `serve-mixed`); dispatch times are per request
/// of that action.
fn layer_metrics(
    self_ns: &BTreeMap<&'static str, u64>,
    m: &Measured,
    root_name: &str,
    residual: f64,
    overhead: f64,
) -> Vec<(String, f64)> {
    let per = m.passes.max(1) as f64;
    let t = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / per;
    let n = |k: K| count(k) as f64 / per;
    let dispatch = |action: &str| {
        let ns = self_ns.get(dispatch_span(action)).copied().unwrap_or(0) as f64;
        ns / 1e6 / m.actions.get(action).copied().unwrap_or(0).max(1) as f64
    };
    // Snapshot figures are per load or save: once per pass in a batch,
    // once per engine start in the daemon.
    let per_op = |name: &str, ops: K| {
        self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / count(ops).max(1) as f64
    };
    let per_count = |k: K, ops: K| ratio(count(k), count(ops));
    vec![
        ("snapshot.load_ms".into(), per_op("snapshot.load", K::Loads)),
        ("snapshot.save_ms".into(), per_op("snapshot.save", K::Saves)),
        (
            "snapshot.entries_loaded".into(),
            per_count(K::Loaded, K::Loads),
        ),
        (
            "snapshot.entries_exported".into(),
            per_count(K::Exported, K::Saves),
        ),
        ("parse.ms".into(), t("parse")),
        ("parse.files".into(), n(K::Files)),
        ("fingerprint.ms".into(), t("fingerprint")),
        ("store.read_ms".into(), t("store.read")),
        ("store.write_ms".into(), t("store.write")),
        ("store.writes".into(), n(K::StoreWrites)),
        (
            "store.hit_ratio".into(),
            ratio(count(K::StoreHits), count(K::StoreReads)),
        ),
        ("check.ms".into(), t("check")),
        ("check.triples".into(), n(K::Triples)),
        (
            "check.pre_sat_ratio".into(),
            ratio(count(K::PreSat), count(K::Sets)),
        ),
        ("candidate_sets.ms".into(), t("candidate_sets")),
        ("candidate_sets.sets".into(), n(K::Sets)),
        ("sem.ms".into(), t("sem")),
        ("sem.calls".into(), n(K::SemCalls)),
        (
            "sem.memo_hit_ratio".into(),
            ratio(count(K::SemHits), count(K::SemLookups)),
        ),
        ("eval.ms".into(), t("eval")),
        ("eval.calls".into(), n(K::EvalCalls)),
        (
            "eval.memo_hit_ratio".into(),
            ratio(count(K::EvalHits), count(K::EvalLookups)),
        ),
        ("prove.ms".into(), t("prove")),
        ("verify.ms".into(), t("verify")),
        ("elaborate.ms".into(), t("elaborate")),
        ("elaborate.steps".into(), n(K::Steps)),
        ("shard.ms".into(), t("shard")),
        ("shard.shards".into(), n(K::Shards)),
        (
            "shard.distinct_ratio".into(),
            ratio(count(K::Distinct), count(K::Shards)),
        ),
        ("discharge.ms".into(), t("discharge")),
        ("discharge.obligations".into(), n(K::Obligations)),
        (
            "pool.busy_frac".into(),
            ratio(count(K::BusyNs), count(K::CapacityNs)),
        ),
        (
            "pool.wait_ms".into(),
            count(K::WaitNs) as f64 / 1e6 / count(K::Jobs).max(1) as f64,
        ),
        ("pool.steals".into(), n(K::Steals)),
        ("render.ms".into(), t("render")),
        ("release.ms".into(), t("release")),
        ("api.decode_ms".into(), t("api.decode")),
        ("api.dispatch_check_ms".into(), dispatch("check")),
        ("api.dispatch_batch_ms".into(), dispatch("batch")),
        ("api.dispatch_replay_ms".into(), dispatch("replay")),
        ("api.respond_ms".into(), t("api.respond")),
        (
            "api.response_cache_hit_ratio".into(),
            ratio(
                count(K::ResponseHits),
                m.passes * u64::from(root_name == "request"),
            ),
        ),
        ("trace.residual_frac".into(), residual),
        ("trace.overhead_frac".into(), overhead),
    ]
}

/// The ROADMAP observations, as the replica and the program each see them:
/// the memo snapshot dominates a warm cycle, and triple validity dominates
/// the check stage.
fn observations(replica: &Stages, program: Option<&Program>) -> Obj {
    let view = |s: &Stages| {
        Obj::default()
            .raw(
                "snapshot_is_largest_stage",
                s.snapshot_is_largest().to_string(),
            )
            .raw(
                "validity_dominates_check",
                s.validity_dominates_check().to_string(),
            )
            .render()
    };
    let total: u64 = replica.ns.values().sum();
    let snapshot = replica.ns.get("snapshot").copied().unwrap_or(0);
    let check = replica.ns.get("check").copied().unwrap_or(0);
    let mut obj = Obj::default()
        .num("snapshot_share_of_stages", ratio(snapshot, total))
        .num("validity_share_of_check", ratio(replica.validity_ns, check))
        .raw("replica", view(replica));
    if let Some(p) = program {
        obj = obj.raw("program", view(&p.stages));
    }
    obj
}

/// Per-pass stage means of the replica and the program, in ms.
fn stage_table(replica: &Stages, passes: u64, program: &Program) -> Obj {
    let mut obj = Obj::default();
    for (name, r, p) in stage_means(replica, passes, program) {
        obj = obj.raw(name, format!("[{r:.3},{p:.3}]"));
    }
    obj
}

/// `trace`: runs one workload traced and prints its per-layer metrics.
pub fn run(args: &Args) -> Result<(String, bool), String> {
    let workload = args.get("workload")?;
    let dir = Path::new(args.get("dir")?);
    let seconds: f64 = args.num("seconds")?;
    let seed: u64 = args.num("seed")?;
    let spans_path = args.get("spans")?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (m, root_name) = match workload {
        "batch-cold" => (trace_batch(dir, true, deadline)?, "pass"),
        "batch-edit" => (trace_batch(dir, false, deadline)?, "pass"),
        "replay-sharded" => (trace_replay(dir, deadline)?, "pass"),
        "serve-mixed" => (trace_serve(dir, seed, deadline)?, "request"),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let spans = spans::drain();
    spans::write_tsv(spans_path, &spans).map_err(|e| e.to_string())?;
    // Median traced time of a daemon request (decode + dispatch + respond):
    // the client's median latency minus this is the transport's share.
    // Medians, because both sides' means are dominated by the few heavy
    // requests, whose cost drifts between the two measuring windows.
    let mut request_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.duration() as f64 / 1e6)
        .collect();
    request_ms.sort_by(f64::total_cmp);
    let request_ms_median = request_ms.get(request_ms.len() / 2).copied().unwrap_or(0.0);
    let self_ns = spans::self_times(&spans);
    let replica = replica_stages(&self_ns);
    let residual = residual_frac(&spans, &m, root_name);
    let overhead = overhead_frac(&m);
    let mut problems = Vec::new();
    if residual > RESIDUAL_MAX {
        problems.push(format!(
            "residual {residual:.4} above {RESIDUAL_MAX}: layer spans miss wall time"
        ));
    }
    if overhead.abs() > OVERHEAD_MAX {
        problems.push(format!(
            "overhead {overhead:.4} beyond ±{OVERHEAD_MAX}: tracing changes the timing"
        ));
    }
    let mut stages = Obj::default();
    if let Some(program) = &m.program {
        problems.extend(disagreements(
            &replica,
            m.passes,
            program,
            mean(&m.untraced_ms),
        ));
        stages = stage_table(&replica, m.passes, program);
    }
    for p in &problems {
        eprintln!("trace: {p}");
    }
    let mut metrics = Obj::default();
    for (name, value) in layer_metrics(&self_ns, &m, root_name, residual, overhead) {
        metrics = metrics.num(&name, value);
    }
    Ok((
        Obj::default()
            .num("attempted", m.attempted)
            .num("failed", m.failed + problems.len() as u64)
            .num("passes", m.passes)
            .num("spans", spans.len())
            .num("traced_ms_mean", mean(&m.traced_ms))
            .num("untraced_ms_mean", mean(&m.untraced_ms))
            .num("request_ms_median", request_ms_median)
            .raw("stages_ms_replica_program", stages.render())
            .raw(
                "observations",
                observations(&replica, m.program.as_ref()).render(),
            )
            .raw("metrics", metrics.render())
            .render(),
        true,
    ))
}
