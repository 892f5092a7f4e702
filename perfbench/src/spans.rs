//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer: name, start, end, the span that
//! caused it, and the request it belongs to. Spans nest on their thread
//! (a per-thread stack supplies the parent); work handed to pool threads
//! names its parent explicitly ([`under`]). Each thread appends to its own
//! buffer, registered once, and [`drain`] collects them all when the run
//! ends.
//!
//! A layer's self time is its span's duration minus the durations of its
//! children *on the same thread*; children on other threads are separate
//! thread time. So the self times of every span add up exactly to the
//! durations of each thread's outermost spans ([`self_times`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u64,
    /// Request (pass or daemon request) the span belongs to.
    pub request: u64,
    /// Recording thread.
    pub thread: u32,
    /// Layer name.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

struct Local {
    buffer: Buffer,
    thread: u32,
    /// Open spans: (id, request).
    stack: Vec<(u64, u64)>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn with_local<T>(f: impl FnOnce(&mut Local) -> T) -> T {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let buffer: Buffer = Arc::default();
            let mut all = BUFFERS.lock().expect("span registry");
            all.push(buffer.clone());
            Local {
                buffer,
                thread: all.len() as u32,
                stack: Vec::new(),
            }
        });
        f(local)
    })
}

/// The innermost open span on this thread: `(id, request)`, or zeros.
pub fn current() -> (u64, u64) {
    with_local(|l| l.stack.last().copied().unwrap_or((0, 0)))
}

fn record<T>(name: &'static str, parent: u64, request: u64, f: impl FnOnce() -> T) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    with_local(|l| l.stack.push((id, request)));
    let start = now();
    let result = f();
    let end = now();
    with_local(|l| {
        l.stack.pop();
        let span = Span {
            id,
            parent,
            request,
            thread: l.thread,
            name,
            start,
            end,
        };
        l.buffer.lock().expect("span buffer").push(span);
    });
    result
}

/// Runs `f` inside a span named `name`, child of this thread's innermost
/// open span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let (parent, request) = current();
    record(name, parent, request, f)
}

/// Runs `f` in a root span of request `request`.
pub fn root<T>(name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    record(name, 0, request, f)
}

/// Runs `f` in a span whose parent is `(parent, request)` from another
/// thread (pool jobs name the span that submitted them).
pub fn under<T>(parent: (u64, u64), name: &'static str, f: impl FnOnce() -> T) -> T {
    record(name, parent.0, parent.1, f)
}

/// Takes every recorded span out of every thread's buffer, by start time.
pub fn drain() -> Vec<Span> {
    let mut out = Vec::new();
    for buffer in BUFFERS.lock().expect("span registry").iter() {
        out.append(&mut buffer.lock().expect("span buffer"));
    }
    out.sort_by_key(|s| (s.start, s.id));
    out
}

/// Self time per span id: duration minus same-thread children.
pub fn self_time_by_id(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut own: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.duration())).collect();
    let thread_of: BTreeMap<u64, u32> = spans.iter().map(|s| (s.id, s.thread)).collect();
    for s in spans {
        if thread_of.get(&s.parent) == Some(&s.thread) {
            let parent = own.get_mut(&s.parent).expect("parent recorded");
            *parent = parent.saturating_sub(s.duration());
        }
    }
    own
}

/// Total self time per layer name, in ns.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let by_id = self_time_by_id(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += by_id[&s.id];
    }
    out
}

/// Self time of the spans that ran on the thread of their request's root
/// span `root_name`, the roots themselves excluded: how much of the roots'
/// wall time the layers account for. Work on other threads is excluded, as
/// it overlaps that wall time.
pub fn covered_time(spans: &[Span], root_name: &str) -> u64 {
    let by_id = self_time_by_id(spans);
    let root_thread: BTreeMap<u64, u32> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == root_name)
        .map(|s| (s.request, s.thread))
        .collect();
    spans
        .iter()
        .filter(|s| s.parent != 0 && root_thread.get(&s.request) == Some(&s.thread))
        .map(|s| by_id[&s.id])
        .sum()
}

/// Writes spans as tab-separated lines:
/// `id parent request thread name start_ns end_ns`.
pub fn write_tsv(path: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tthread\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.thread, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total duration of each thread's outermost spans (roots, and spans
    /// whose parent ran on another thread): what the self times add up to.
    fn thread_root_time(spans: &[Span]) -> u64 {
        let thread_of: BTreeMap<u64, u32> = spans.iter().map(|s| (s.id, s.thread)).collect();
        spans
            .iter()
            .filter(|s| thread_of.get(&s.parent) != Some(&s.thread))
            .map(Span::duration)
            .sum()
    }

    fn s(id: u64, parent: u64, thread: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            thread,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        // pass [0,100) on thread 1 with a pool span [10,90); the pool's
        // job on thread 1 [10,50) and on thread 2 [12,88), each with a
        // check child.
        let spans = vec![
            s(1, 0, 1, "pass", 0, 100),
            s(2, 1, 1, "pool", 10, 90),
            s(3, 2, 1, "pool.job", 10, 50),
            s(4, 3, 1, "check", 11, 49),
            s(5, 2, 2, "pool.job", 12, 88),
            s(6, 5, 2, "check", 13, 80),
            s(7, 1, 1, "render", 90, 95),
        ];
        let times = self_times(&spans);
        assert_eq!(times["pass"], 100 - 80 - 5);
        assert_eq!(times["pool"], 80 - 40);
        assert_eq!(times["pool.job"], (40 - 38) + (76 - 67));
        assert_eq!(times["check"], 38 + 67);
        assert_eq!(times["render"], 5);
        // Self times reconcile exactly with the threads' outermost spans:
        // the pass on thread 1 plus the job that ran on thread 2.
        assert_eq!(times.values().sum::<u64>(), thread_root_time(&spans));
        assert_eq!(thread_root_time(&spans), 100 + 76);
        // On the pass's own thread the layers cover everything but the
        // pass's self time; the job on thread 2 overlaps and is left out.
        assert_eq!(covered_time(&spans, "pass"), 100 - times["pass"]);
        assert_eq!(covered_time(&spans, "pass"), 40 + 2 + 38 + 5);
        assert_eq!(covered_time(&spans, "request"), 0);
    }

    #[test]
    fn recorded_spans_nest_and_cross_threads() {
        let parent = root("pass", 9, || {
            span("parse", || {});
            let parent = current();
            std::thread::scope(|scope| {
                scope.spawn(|| under(parent, "pool.job", || span("check", || {})));
            });
            parent
        });
        let spans: Vec<Span> = drain().into_iter().filter(|s| s.request == 9).collect();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (pass, job, check) = (by_name("pass"), by_name("pool.job"), by_name("check"));
        assert_eq!(parent.0, pass.id);
        assert_eq!(by_name("parse").parent, pass.id);
        assert_eq!(job.parent, pass.id);
        assert_ne!(job.thread, pass.thread);
        assert_eq!(check.parent, job.id);
        let times = self_times(&spans);
        assert_eq!(times.values().sum::<u64>(), thread_root_time(&spans));
    }
}
