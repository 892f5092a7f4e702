//! Differential harness for the two pool executors: every fan-out entry
//! point — `run_batch` / `run_replay_batch`, the sharded replayer, and
//! the serve [`Engine`] — must produce **byte-identical** output whether
//! its workers come from the process-resident [`WorkerPool`] (the
//! default: threads parked on a condvar between submissions) or from a
//! per-call scoped burst (the pre-pool behaviour, kept as
//! [`Scheduler::Burst`]), at every job count. The scheduler is pure
//! dispatch policy: the deal, the stealing order, and the input-order
//! result aggregation are shared, so any divergence here means scheduling
//! state leaked into user-visible output.
//!
//! [`WorkerPool`]: hhl_driver::pool::WorkerPool

use std::path::{Path, PathBuf};

use hhl_bench::corpus::{self, CorpusEntry};
use hhl_cli::api::{Action, Engine, Request};
use hhl_cli::batch::{run_batch, run_replay_batch, BatchOptions};
use hhl_cli::{parse_spec, run_replay_sharded};
use hhl_driver::{Scheduler, ShardCounters};

const JOB_COUNTS: [usize; 3] = [1, 4, 8];

fn example(kind: &str, name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(kind)
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hhl-pool-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Writes the first `n` corpus entries to `dir` and returns the file list
/// the way `hhl batch` receives it (certificates as `.hhlp` siblings).
fn write_corpus(dir: &Path, n: usize) -> (Vec<String>, Vec<CorpusEntry>) {
    let entries: Vec<CorpusEntry> = corpus::generate(corpus::DEFAULT_SEED)
        .into_iter()
        .filter(|e| !e.name.contains("heavy_loop"))
        .take(n)
        .collect();
    let mut files = Vec::new();
    for entry in &entries {
        let spec = dir.join(format!("{}.hhl", entry.name));
        std::fs::write(&spec, &entry.spec).expect("write spec");
        files.push(spec.to_string_lossy().into_owned());
        if let Some(cert) = &entry.certificate {
            let proof = dir.join(format!("{}.hhlp", entry.name));
            std::fs::write(&proof, cert).expect("write certificate");
            files.push(proof.to_string_lossy().into_owned());
        }
    }
    (files, entries)
}

/// Everything user-visible a batch run produces: the compact aggregate
/// report, the exit code, and the full per-file renderings.
fn visible_output(
    files: &[String],
    jobs: usize,
    scheduler: Scheduler,
) -> (String, u8, Vec<String>) {
    let opts = BatchOptions {
        jobs,
        scheduler,
        ..BatchOptions::default()
    };
    let run = run_batch(files, &opts);
    let report = run.report();
    let per_file = run
        .results
        .iter()
        .map(|r| {
            format!(
                "{}|{}|{}",
                r.path,
                r.report_text.as_deref().unwrap_or("-"),
                r.error_text.as_deref().unwrap_or("-")
            )
        })
        .collect();
    (report.to_string(), report.exit_code(), per_file)
}

#[test]
fn batch_output_is_byte_identical_between_burst_and_resident() {
    let dir = scratch_dir("batch");
    let (files, _) = write_corpus(&dir, 24);
    for jobs in JOB_COUNTS {
        let resident = visible_output(&files, jobs, Scheduler::Resident);
        let burst = visible_output(&files, jobs, Scheduler::Burst);
        assert_eq!(
            resident, burst,
            "batch output diverged between executors at jobs={jobs}"
        );
    }
    // And across job counts: the executor must not reintroduce a
    // jobs-dependence either.
    let baseline = visible_output(&files, 1, Scheduler::Resident);
    for jobs in JOB_COUNTS {
        assert_eq!(
            visible_output(&files, jobs, Scheduler::Resident),
            baseline,
            "resident-pool batch output not jobs-invariant at jobs={jobs}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_batch_output_is_byte_identical_between_burst_and_resident() {
    let dir = scratch_dir("replay");
    let entries: Vec<CorpusEntry> = corpus::generate(corpus::DEFAULT_SEED)
        .into_iter()
        .filter(|e| e.certificate.is_some() && !e.name.contains("heavy_loop"))
        .take(12)
        .collect();
    let mut pairs = Vec::new();
    for entry in &entries {
        let spec = dir.join(format!("{}.hhl", entry.name));
        let proof = dir.join(format!("{}.hhlp", entry.name));
        std::fs::write(&spec, &entry.spec).expect("write spec");
        std::fs::write(&proof, entry.certificate.as_ref().unwrap()).expect("write certificate");
        pairs.push((
            spec.to_string_lossy().into_owned(),
            proof.to_string_lossy().into_owned(),
        ));
    }
    for jobs in JOB_COUNTS {
        let run = |scheduler: Scheduler| {
            let opts = BatchOptions {
                jobs,
                scheduler,
                ..BatchOptions::default()
            };
            let run = run_replay_batch(&pairs, &opts);
            (run.report().to_string(), run.report().exit_code())
        };
        assert_eq!(
            run(Scheduler::Resident),
            run(Scheduler::Burst),
            "replay batch output diverged between executors at jobs={jobs}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_replay_is_byte_identical_between_burst_and_resident() {
    let read = |kind: &str, name: &str| {
        let path = example(kind, name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };
    for (spec_name, proof_name) in [
        ("while_sync.hhl", "while_sync.hhlp"),
        ("ni_unrolled.hhl", "ni_unrolled.hhlp"),
    ] {
        let spec = parse_spec(&read("specs", spec_name)).expect(spec_name);
        let cert = read("proofs", proof_name);
        for jobs in JOB_COUNTS {
            let run = |scheduler: Scheduler| {
                let counters = ShardCounters::new();
                let outcome = run_replay_sharded(&spec, &cert, jobs, scheduler, None, &counters);
                let rendered = match outcome {
                    Ok(o) => o.to_string(),
                    Err(e) => format!("error: {e}"),
                };
                (rendered, counters.snapshot())
            };
            assert_eq!(
                run(Scheduler::Resident),
                run(Scheduler::Burst),
                "{proof_name}: sharded replay diverged between executors at jobs={jobs}"
            );
        }
    }
}

#[test]
fn engine_responses_are_byte_identical_between_burst_and_resident() {
    let spec = |name: &str| example("specs", name);
    let proof = |name: &str| example("proofs", name);
    let corpus = vec![
        spec("ni_c1.hhl"),
        spec("ni_c2.hhl"),
        spec("while_sync.hhl"),
        spec("minimum.hhl"),
    ];
    let mut requests = vec![
        Request::new(Action::Check, corpus.clone()),
        Request::new(Action::Prove, vec![spec("ni_c1.hhl")]),
        Request::new(
            Action::Replay,
            vec![spec("while_sync.hhl"), proof("while_sync.hhlp")],
        ),
    ];
    // A missing file keeps parity on the error path too.
    requests.push(Request::new(Action::Check, vec![spec("nope.hhl")]));
    for req in &requests {
        for jobs in JOB_COUNTS {
            let mut cell = req.clone();
            cell.jobs = Some(jobs);
            let resident = Engine::one_shot().handle(&cell);
            let mut burst_engine = Engine::one_shot();
            burst_engine.set_scheduler(Scheduler::Burst);
            let burst = burst_engine.handle(&cell);
            // stdout and exit code are the user-visible contract; stderr
            // must agree up to the counters that depend on the schedule.
            assert_eq!(
                resident.stdout, burst.stdout,
                "engine stdout diverged between executors at jobs={jobs} for {:?}",
                req.files
            );
            assert_eq!(resident.exit_code, burst.exit_code);
            assert_eq!(
                schedule_free(&resident.stderr),
                schedule_free(&burst.stderr),
                "engine stderr diverged between executors at jobs={jobs} for {:?}",
                req.files
            );
        }
    }
}

/// Engine stderr with the counter values that depend on the schedule
/// blanked: the pool's steal count, and the memo tables' hit/miss split
/// (workers racing on one key may both miss it). Every other line, and
/// every other counter, must agree exactly.
fn schedule_free(stderr: &[String]) -> Vec<String> {
    stderr
        .iter()
        .map(|line| {
            line.split(' ')
                .map(|field| match field.split_once('=') {
                    Some((key @ ("steals" | "hits" | "misses"), _)) => format!("{key}=*"),
                    _ => field.to_owned(),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}
