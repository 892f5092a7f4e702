//! # hhl-driver — parallel batch-verification scheduling
//!
//! The scaling primitive behind `hhl batch` and the `--jobs N` flags: a
//! dependency-free, work-stealing `std::thread` scheduler ([`pool`]) that
//! fans a corpus of verification jobs across worker threads, and a
//! deterministic aggregation layer ([`report`]) whose output is
//! byte-identical for every job count.
//!
//! The crate is deliberately generic — it schedules `Fn(usize, &I) -> T`
//! closures, aggregates [`report::FileStatus`] values, and persists
//! fingerprint-keyed verdict records ([`store`]) — so it carries no
//! dependency on the spec format or the verification engines. The CLI
//! supplies the per-file closure (parse → dispatch → verdict, sharing one
//! `hhl_lang::memo::SemCache` across workers via `Arc`) and the spec
//! fingerprints that key the persistent store, and the bench suite reuses
//! the same pool to measure 1-vs-N-thread throughput. The workspace's one
//! JSON codec ([`json`]) lives here too, since every crate that reads JSON
//! already depends on this one.
//!
//! Division of responsibility:
//!
//! * **scheduling is racy** — workers steal whatever is pending; which
//!   thread verifies which file is load-dependent;
//! * **aggregation is deterministic** — results return in input order and
//!   the report renders without timings or scheduling artefacts, so `diff`
//!   over two runs (different machines, different `--jobs`) is meaningful.

// `deny` rather than `forbid`: the sanctioned exceptions live in `pool`,
// each with its own scoped `allow` and safety argument — the glibc
// `mallopt` shim (`pool::tune_allocator`) and the lifetime-erased job
// pointer the resident `pool::WorkerPool` hands its parked workers (sound
// because the submitter blocks until every job has finished).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod pool;
pub mod report;
pub mod shard;
pub mod store;

pub use metrics::{
    BuildInfo, LocalMetrics, MetricsRegistry, MetricsSnapshot, ReportDoc, Stage, Welford,
    REPORT_SCHEMA,
};
pub use pool::{
    resident, run_ordered, run_ordered_burst, run_ordered_exact, tune_allocator, PoolStats,
    Scheduler, WorkerPool,
};
pub use report::{BatchReport, FileReport, FileStatus, Summary};
pub use shard::{ShardCounters, ShardStats};
pub use store::{ReplaySummary, StoreStats, VerdictRecord, VerdictStore};
