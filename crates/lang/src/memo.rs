//! Memoized extended semantics: a shared, thread-safe cache for `sem(C, S)`.
//!
//! Batch verification re-evaluates the extended semantics (Def. 4) for the
//! same `(command, state-set)` pairs over and over: the validity checker
//! sweeps every candidate set against every triple, WP premises repeat the
//! suffixes of sequenced programs, loop checking replays the same body on
//! the same frontier sets, and a corpus of related specs shares program
//! prefixes wholesale. [`SemCache`] memoizes those evaluations behind an
//! `Arc`, so worker threads of the batch driver (`hhl-driver`) compute each
//! distinct evaluation once and share the result.
//!
//! Keys are `(finitization id, hash-consed command id, state set)`:
//!
//! * the *finitization id* exactly interns the havoc domain and loop fuel
//!   within the cache, so specs with different finitizations never alias;
//! * the command is keyed by [`CmdId`] ([`crate::intern_cmd`]), making the
//!   lookup key compact and the comparison integer-cheap;
//! * the state set is the canonical [`StateSet`], whose `Hash` is stable.
//!
//! [`ExecConfig::sem_memo`] evaluates through the cache *recursively*:
//! sequences memoize both halves, choices both branches, and `C*` runs a
//! set-level reachability fixpoint whose per-round body images are themselves
//! memoized — so a loop unrolled over the same frontier twice pays once.
//! `sem_memo` computes exactly [`ExecConfig::sem`] (a property-tested
//! equivalence); the cache changes performance, never verdicts.
//!
//! The table is sharded `RwLock`s: lookups — the overwhelming majority of
//! operations once the cache warms up — take shared read locks and proceed
//! concurrently, while only insertions take a shard's exclusive write lock.
//! On machines where workers time-slice few cores this is the difference
//! between scaling and *anti*-scaling: exclusive-lock handoffs on the hot
//! read path force context switches, which is exactly the jobs>1 slowdown
//! the earlier `Mutex`-sharded table exhibited. Hit/miss counters are
//! lock-free, and [`SemCache::write_acquisitions`] exposes the number of
//! exclusive acquisitions so tests can pin down that warm lookups never
//! serialize.
//!
//! Cold caches get the complementary treatment: compound evaluations are
//! **deduplicated in flight**. When several workers miss the same
//! `Seq`/`Choice`/`Star` key simultaneously — the normal case at batch
//! start, where neighbouring files share their expensive loop sweeps and
//! the pool deals those files to different workers — exactly one claims
//! the key and evaluates; the rest block on its completion and answer from
//! the freshly published entry. Duplicate evaluation of a leaf is cheaper
//! than the bookkeeping, so leaves race freely.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use crate::cmd::Cmd;
use crate::exec::ExecConfig;
use crate::intern::{cmd_of, intern_cmd, CmdId};
use crate::parser::parse_cmd;
use crate::state::{ExtState, Store};
use crate::stateset::StateSet;
use crate::value::Value;

/// Number of independent lock shards. A power of two so the shard index is
/// a mask of the key hash. Generous relative to realistic worker counts:
/// shards are cheap (an empty map each), and over-provisioning keeps the
/// probability of two workers *writing* the same shard low.
const SHARDS: usize = 64;

/// The coarse half of a memo key: which finitization, which command. The
/// fine half (the input state set) indexes a nested map, so lookups borrow
/// the caller's set — the hit path never clones a `StateSet` key.
type Scope = (u64, CmdId);

/// Point-in-time counters of a [`SemCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that had to evaluate.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Imported snapshot lines not parsed yet (see
    /// [`SemCache::import_snapshot`]); each becomes an entry on the first
    /// lookup of its key.
    pub pending: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `0` when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit(s), {} miss(es), {} entr{} ({:.1}% hit rate)",
            self.hits,
            self.misses,
            self.entries,
            if self.entries == 1 { "y" } else { "ies" },
            self.hit_rate() * 100.0
        )
    }
}

/// One memoized evaluation: the result set plus the wall-clock cost of
/// computing it when it was first evaluated (children included — a
/// compound's cost dominates its subterms', so cost-ranked snapshot
/// retention keeps roots, which is exactly what a warm import wants).
struct Memoized {
    out: StateSet,
    cost_ns: u64,
}

/// One lock shard: the resident entries, plus the imported snapshot lines
/// of the same scopes that no lookup has asked for yet, keyed by the
/// canonical text ([`write_set`]) of their input set.
#[derive(Default)]
struct Shard {
    memo: HashMap<Scope, HashMap<StateSet, Memoized>>,
    pending: HashMap<Scope, HashMap<Box<str>, Pending>>,
}

/// An imported snapshot, kept whole while any of its lines is pending.
struct Blob {
    text: Box<str>,
    /// Its lines are in strictly ascending order, as the exporter writes
    /// them: their positions then order them as their texts do.
    sorted: bool,
}

/// An imported snapshot line, checked but not parsed: where it and its
/// output-set field sit in the imported blob, and its recorded cost.
struct Pending {
    blob: Arc<Blob>,
    line: Range<usize>,
    output: Range<usize>,
    cost_ns: u64,
}

impl Pending {
    fn text(&self) -> &str {
        &self.blob.text[self.line.clone()]
    }
}

/// A sharded, thread-safe memo table for extended-semantics evaluations.
///
/// Share one cache across threads with `Arc<SemCache>`; all methods take
/// `&self`.
///
/// # Examples
///
/// ```
/// use hhl_lang::{parse_cmd, ExecConfig, ExtState, SemCache, StateSet, Store, Value};
/// let cache = SemCache::new();
/// let cfg = ExecConfig::default();
/// let c = parse_cmd("x := x + 1; x := x * 2").unwrap();
/// let s = StateSet::singleton(ExtState::from_program(
///     Store::from_pairs([("x", Value::Int(1))]),
/// ));
/// let first = cfg.sem_memo(&c, &s, &cache);
/// let again = cfg.sem_memo(&c, &s, &cache);
/// assert_eq!(first, again);
/// assert_eq!(first, cfg.sem(&c, &s));
/// assert!(cache.stats().hits > 0);
/// ```
pub struct SemCache {
    shards: Vec<RwLock<Shard>>,
    /// Per-cache exact interning of finitizations (see [`SemCache::exec_id`]).
    execs: RwLock<ExecTable>,
    /// Compound evaluations currently being computed, for in-flight
    /// deduplication (see [`SemCache::claim`]). Touched only on misses.
    inflight: Mutex<HashMap<(Scope, StateSet), Arc<Flight>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Exclusive (write) lock acquisitions across all shards and the exec
    /// table — observable via [`SemCache::write_acquisitions`].
    writes: AtomicU64,
    /// The last imported snapshot: an export that reproduces it byte for
    /// byte reports itself [`unchanged`](MemoSnapshotStats::unchanged).
    imported: Mutex<Option<Arc<Blob>>>,
    /// Snapshot-line counters since construction or [`SemCache::clear`]
    /// (see [`SemCache::snapshot_stats`]).
    loaded: AtomicU64,
    rejected: AtomicU64,
    materialized: AtomicU64,
}

/// The marker for one in-flight compound evaluation: waiters sleep on the
/// condvar until the owner (or its unwinding stack) flips `done`.
#[derive(Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

/// Outcome of [`SemCache::claim`].
enum Claim {
    /// The caller owns the evaluation and must publish + [`SemCache::finish`].
    Owner,
    /// Another worker owned it and has finished; re-probe the table.
    Waited,
}

/// Unwind-safe completion of a claimed evaluation: marks the flight done on
/// drop, so a panicking owner releases its waiters (which then re-probe,
/// miss, re-claim and recompute) instead of stranding them.
struct FlightGuard<'a> {
    cache: &'a SemCache,
    scope: Scope,
    states: &'a StateSet,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.cache.finish(self.scope, self.states);
    }
}

impl Default for SemCache {
    fn default() -> SemCache {
        SemCache::new()
    }
}

impl fmt::Debug for SemCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SemCache({})", self.stats())
    }
}

impl SemCache {
    /// An empty cache.
    pub fn new() -> SemCache {
        SemCache {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            execs: RwLock::new(ExecTable::default()),
            inflight: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            imported: Mutex::new(None),
            loaded: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            materialized: AtomicU64::new(0),
        }
    }

    /// Claims the right to evaluate `(scope, states)`, or waits for the
    /// worker that already holds it.
    ///
    /// Without this, racing workers that miss the same key all compute it —
    /// harmless for leaves, but a corpus whose expensive loop sweeps repeat
    /// across neighbouring files hands every worker the *same* sweep at
    /// batch start, and on few-core machines those duplicates are pure
    /// added wall time (the jobs>1 slowdown). Waiting is deadlock-free:
    /// a worker only ever waits for a key whose command is a strict subterm
    /// of everything it currently owns, and strict subterm chains cannot
    /// cycle.
    fn claim(&self, scope: Scope, states: &StateSet) -> Claim {
        let existing = {
            let mut inflight = self.inflight.lock().expect("inflight table poisoned");
            match inflight.entry((scope, states.clone())) {
                std::collections::hash_map::Entry::Occupied(e) => Some(e.get().clone()),
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(Arc::new(Flight::default()));
                    None
                }
            }
        };
        match existing {
            None => Claim::Owner,
            Some(flight) => {
                let mut done = flight.done.lock().expect("flight poisoned");
                while !*done {
                    done = flight.cv.wait(done).expect("flight poisoned");
                }
                Claim::Waited
            }
        }
    }

    /// Releases a claimed key and wakes its waiters. Called via
    /// [`FlightGuard`] so it also runs on unwind. (`clear` deliberately
    /// leaves the in-flight table alone: removing an entry out from under
    /// its owner would strand that owner's waiters.)
    fn finish(&self, scope: Scope, states: &StateSet) {
        let flight = self
            .inflight
            .lock()
            .expect("inflight table poisoned")
            .remove(&(scope, states.clone()));
        if let Some(flight) = flight {
            *flight.done.lock().expect("flight poisoned") = true;
            flight.cv.notify_all();
        }
    }

    fn shard(&self, scope: &Scope) -> &RwLock<Shard> {
        let mut h = DefaultHasher::new();
        scope.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    /// Lookups take a shard's *read* lock: concurrent hits never block one
    /// another, so a warmed-up cache adds no serialization point. A miss in
    /// a scope with pending snapshot lines tries to [materialize] one.
    ///
    /// [materialize]: SemCache::materialize
    fn get(&self, scope: Scope, states: &StateSet) -> Option<StateSet> {
        let pending = {
            let shard = self.shard(&scope).read().expect("memo shard poisoned");
            let hit = shard.memo.get(&scope).and_then(|by_set| by_set.get(states));
            if let Some(m) = hit {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(m.out.clone());
            }
            shard.pending.contains_key(&scope)
        };
        let hit = if pending {
            self.materialize(scope, states)
        } else {
            None
        };
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Answers a miss from the scope's pending snapshot lines: renders the
    /// queried set canonically and, only if a line carries exactly that
    /// input text, parses that line's output set and makes it resident.
    /// A miss never parses anything else. It runs under the shard's write
    /// lock, so workers racing on one line materialize it once and the
    /// others find the resident entry.
    fn materialize(&self, scope: Scope, states: &StateSet) -> Option<StateSet> {
        let mut key = String::new();
        write_set(&mut key, states)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(&scope).write().expect("memo shard poisoned");
        if let Some(m) = shard.memo.get(&scope).and_then(|by_set| by_set.get(states)) {
            return Some(m.out.clone());
        }
        let lines = shard.pending.get_mut(&scope)?;
        let line = lines.remove(key.as_str())?;
        if lines.is_empty() {
            shard.pending.remove(&scope);
        }
        let Some(out) = parse_set(&line.blob.text[line.output.clone()]) else {
            self.loaded.fetch_sub(1, Ordering::Relaxed);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.materialized.fetch_add(1, Ordering::Relaxed);
        let memoized = Memoized {
            out: out.clone(),
            cost_ns: line.cost_ns,
        };
        shard
            .memo
            .entry(scope)
            .or_default()
            .insert(states.clone(), memoized);
        Some(out)
    }

    fn insert(&self, scope: Scope, states: StateSet, value: StateSet, cost_ns: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.shard(&scope)
            .write()
            .expect("memo shard poisoned")
            .memo
            .entry(scope)
            .or_default()
            .insert(
                states,
                Memoized {
                    out: value,
                    cost_ns,
                },
            );
    }

    /// Total exclusive (write) lock acquisitions so far, across the memo
    /// shards and the finitization table. Deterministically zero for any
    /// window in which every lookup hits a resident entry — the contract
    /// the concurrency regression tests assert instead of relying on
    /// wall-clock timing. (The first lookup of an imported snapshot line
    /// is a hit that writes once: it makes the line resident.)
    pub fn write_acquisitions(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Current counters. Counts are exact under single-threaded use; under
    /// concurrency two workers may both miss the same key (both then insert
    /// the identical value), so totals are scheduling-dependent while cached
    /// *values* never are.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let shard = shard.read().expect("memo shard poisoned");
            stats.entries += shard.memo.values().map(HashMap::len).sum::<usize>();
            stats.pending += shard.pending.values().map(HashMap::len).sum::<usize>();
        }
        stats
    }

    /// Snapshot-line counters over every import since construction or
    /// [`SemCache::clear`]: `loaded` lines were indexed, `rejected` lines
    /// will never be served (found at import, or when a lookup parses
    /// them), and `materialized` lines were parsed on demand.
    pub fn snapshot_stats(&self) -> MemoImportStats {
        MemoImportStats {
            loaded: self.loaded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            materialized: self.materialized.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry and pending snapshot line (including the
    /// finitization-interning table — ids are only meaningful against the
    /// entries they key) and resets the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.write().expect("memo shard poisoned") = Shard::default();
        }
        *self.execs.write().expect("exec table poisoned") = ExecTable::default();
        *self.imported.lock().expect("imported snapshot poisoned") = None;
        for counter in [
            &self.hits,
            &self.misses,
            &self.writes,
            &self.loaded,
            &self.rejected,
            &self.materialized,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// The exact interning id of a finitization (havoc domain + loop fuel)
    /// *within this cache*, used to key memo scopes so configurations never
    /// share results. Equal configurations get equal ids; distinct ones are
    /// guaranteed distinct (this is a table lookup, not a hash — the cache
    /// is soundness-bearing, so even a 2⁻⁶⁴ collision is not worth
    /// carrying).
    ///
    /// The table lives in the cache rather than in process-global state:
    /// its size is bounded by the cache's lifetime (and emptied by
    /// [`SemCache::clear`]) instead of growing for the life of the process,
    /// and the known-id fast path is a shared read lock, so concurrent
    /// evaluations resolving the same finitization never serialize.
    fn exec_id(&self, exec: &ExecConfig) -> u64 {
        let key = (exec.havoc_domain.clone(), exec.loop_fuel);
        if let Some(&id) = self
            .execs
            .read()
            .expect("exec table poisoned")
            .ids
            .get(&key)
        {
            return id;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        let mut table = self.execs.write().expect("exec table poisoned");
        if let Some(&id) = table.ids.get(&key) {
            return id; // another worker interned it between our locks
        }
        let id = table.by_id.len() as u64;
        table.by_id.push(key.clone());
        table.ids.insert(key, id);
        id
    }

    /// Resolves every interned finitization id back to its `(domain, fuel)`
    /// pair — one read-lock acquisition for a whole snapshot export.
    fn finitizations_by_id(&self) -> Vec<Finitization> {
        self.execs
            .read()
            .expect("exec table poisoned")
            .by_id
            .clone()
    }
}

/// Exact interning of finitizations, per cache: each distinct
/// `(havoc_domain, loop_fuel)` pair gets a unique id, with the reverse
/// table kept in allocation order so ids resolve back to their pair.
type Finitization = (Vec<Value>, u32);

#[derive(Default)]
struct ExecTable {
    ids: HashMap<Finitization, u64>,
    by_id: Vec<Finitization>,
}

impl ExecConfig {
    /// [`ExecConfig::sem`] evaluated through a [`SemCache`].
    ///
    /// Returns exactly what `sem` returns; the cache only changes how much
    /// work is re-done. `skip` is evaluated inline (cheaper than a lookup).
    pub fn sem_memo(&self, cmd: &Cmd, s: &StateSet, cache: &SemCache) -> StateSet {
        // Resolve the finitization id once per evaluation, not per node.
        self.sem_memo_at(cache.exec_id(self), cmd, s, cache)
    }

    fn sem_memo_at(&self, fp: u64, cmd: &Cmd, s: &StateSet, cache: &SemCache) -> StateSet {
        if matches!(cmd, Cmd::Skip) {
            return s.clone();
        }
        let scope: Scope = (fp, intern_cmd(cmd));
        if let Some(hit) = cache.get(scope, s) {
            return hit;
        }
        // Leaves are cheaper than in-flight bookkeeping: evaluate directly
        // (a racing duplicate costs less than the claim would).
        if !matches!(cmd, Cmd::Seq(..) | Cmd::Choice(..) | Cmd::Star(..)) {
            let started = std::time::Instant::now();
            let out = self.sem(cmd, s);
            let cost = started.elapsed().as_nanos() as u64;
            cache.insert(scope, s.clone(), out.clone(), cost);
            return out;
        }
        // Compound evaluations — including every loop fixpoint — are claimed
        // so racing workers wait for the one computation instead of running
        // their own copy of it.
        while let Claim::Waited = cache.claim(scope, s) {
            if let Some(hit) = cache.get(scope, s) {
                return hit;
            }
            // The owner unwound without publishing; claim and compute.
        }
        let guard = FlightGuard {
            cache,
            scope,
            states: s,
        };
        let started = std::time::Instant::now();
        let out = match cmd {
            Cmd::Seq(c1, c2) => {
                let mid = self.sem_memo_at(fp, c1, s, cache);
                self.sem_memo_at(fp, c2, &mid, cache)
            }
            Cmd::Choice(c1, c2) => self
                .sem_memo_at(fp, c1, s, cache)
                .union(&self.sem_memo_at(fp, c2, s, cache)),
            // Set-level reachability fixpoint. Equivalent to the per-state
            // fixpoint of `exec`: a state lies within `fuel` BFS rounds of
            // the set iff it lies within `fuel` rounds of *some* member
            // (set-level depth is the member-wise minimum), and each round's
            // body image is a memoized `sem` — so re-walking the same loop
            // over the same frontier is a hit.
            Cmd::Star(c) => {
                let mut reached = s.clone();
                let mut frontier = s.clone();
                for _ in 0..self.loop_fuel {
                    let image = self.sem_memo_at(fp, c, &frontier, cache);
                    let fresh = image.filter(|phi| !reached.contains(phi));
                    if fresh.is_empty() {
                        break;
                    }
                    reached = reached.union(&fresh);
                    frontier = fresh;
                }
                reached
            }
            leaf => self.sem(leaf, s),
        };
        // Publish before releasing the flight: woken waiters re-probe the
        // table and must find the value there.
        let cost = started.elapsed().as_nanos() as u64;
        cache.insert(scope, s.clone(), out.clone(), cost);
        drop(guard);
        out
    }
}

// ---------------------------------------------------------------------------
// Persistent snapshots
// ---------------------------------------------------------------------------
//
// A snapshot is a line-oriented textual dump of a *subset* of the memo
// table, written by the batch driver's persistent store so warm entries
// survive process exit. The cache is soundness-bearing, so keys are
// reconstructed **exactly** — every line carries the full finitization,
// command source and both state sets, never a hash of them — and every
// line ends in a checksum so disk corruption turns into a rejected line,
// not a wrong semantics result. Command sources round-trip through
// `Cmd::to_source` with an emit ∘ parse fixpoint check on both sides.
//
// Import is lazy: a warm run typically asks for a handful of the thousands
// of stored entries, so lines are checked and indexed but their sets are
// parsed only when a lookup asks for their key, and lines nobody asked for
// are exported again verbatim. A lookup matches a line only when the
// line's input text is exactly the canonical rendering of the queried set,
// so an entry is served under no key but the one its line names; and since
// the exporter writes every line in that canonical form, copying a line is
// byte-identical to re-serializing the entry it holds.

/// Snapshot header line; bumping it invalidates old snapshots wholesale.
/// v3: each line carries the entry's recompute cost (nanoseconds, measured
/// when the entry was first evaluated) as an extra field before the
/// checksum, and the entry cap retains the *most expensive* entries
/// instead of a lexicographic prefix — the cap exists to bound disk and
/// import time, so the budget should go to the evaluations that are worth
/// the most wall-clock to not redo.
pub const SNAPSHOT_SCHEMA: &str = "hhl-memo v3";

const SNAPSHOT_HEADER: &str = SNAPSHOT_SCHEMA;

/// Counters from one [`SemCache::export_snapshot`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoSnapshotStats {
    /// Entries written to the snapshot.
    pub exported: u64,
    /// Entries dropped: beyond the entry cap, or not exactly serializable
    /// (an unparseable variable name, an id the tables no longer resolve).
    pub evicted: u64,
    /// The snapshot is byte-identical to the one this cache last imported,
    /// so writing it back would change nothing.
    pub unchanged: bool,
}

/// Snapshot-line counters: from one [`SemCache::import_snapshot`] call, or
/// cumulative from [`SemCache::snapshot_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoImportStats {
    /// Lines accepted and indexed; each answers the first lookup of its key.
    pub loaded: u64,
    /// Lines that will never be served: at import, a bad header, a failed
    /// checksum, malformed or non-canonical fields, an emit ∘ parse
    /// mismatch, or a later line with the same key; on demand, an output
    /// set that does not parse. Rejection is always safe — a rejected
    /// entry is recomputed, never guessed.
    pub rejected: u64,
    /// Loaded lines parsed on demand, by the first lookup of their key.
    pub materialized: u64,
}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a/64 line checksum (corruption detection, not cryptography).
fn line_sum(body: &str) -> u64 {
    fnv(FNV64_OFFSET, body.as_bytes())
}

fn fnv(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |state, &b| fnv_step(state, b))
}

fn fnv_step(state: u64, b: u8) -> u64 {
    (state ^ u64::from(b)).wrapping_mul(FNV64_PRIME)
}

/// [`line_sum`] of every body. FNV-1a is one serial multiply chain per
/// input; hashing four bodies in lockstep overlaps their chains, which
/// makes the checksum pass of an import about three times faster.
fn line_sums(bodies: &[&str]) -> Vec<u64> {
    let mut sums = Vec::with_capacity(bodies.len());
    let mut quads = bodies.chunks_exact(4);
    for quad in &mut quads {
        let common = quad.iter().map(|b| b.len()).min().unwrap_or(0);
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| &quad[i].as_bytes()[..common]);
        let mut s = [FNV64_OFFSET; 4];
        for (((&w, &x), &y), &z) in a.iter().zip(b).zip(c).zip(d) {
            s = [
                fnv_step(s[0], w),
                fnv_step(s[1], x),
                fnv_step(s[2], y),
                fnv_step(s[3], z),
            ];
        }
        sums.extend((0..4).map(|i| fnv(s[i], &quad[i].as_bytes()[common..])));
    }
    sums.extend(quads.remainder().iter().map(|body| line_sum(body)));
    sums
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Int(i) => {
            let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
    }
}

/// Serializes a store as `name=value;name=value` in *name* order (the
/// store's own order follows process-local symbol ids). Returns `None` when
/// a variable name would collide with the grammar's delimiters.
fn write_store(out: &mut String, s: &Store) -> Option<()> {
    let mut entries: Vec<(String, &Value)> = s.iter().map(|(k, v)| (k.as_str(), v)).collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    for (i, (name, value)) in entries.iter().enumerate() {
        if name.is_empty()
            || name
                .chars()
                .any(|c| "=;,|{}[]\t\n".contains(c) || c.is_whitespace())
        {
            return None;
        }
        if i > 0 {
            out.push(';');
        }
        out.push_str(name);
        out.push('=');
        write_value(out, value);
    }
    Some(())
}

/// `{logical}{program}`.
fn write_state(out: &mut String, phi: &ExtState) -> Option<()> {
    out.push('{');
    write_store(out, &phi.logical)?;
    out.push('}');
    out.push('{');
    write_store(out, &phi.program)?;
    out.push('}');
    Some(())
}

/// States joined by `|`, in serialized-text order (canonical across
/// processes; the set's own order follows process-local symbol ids).
fn write_set(out: &mut String, s: &StateSet) -> Option<()> {
    let mut rendered: Vec<String> = Vec::with_capacity(s.len());
    for phi in s.iter() {
        let mut one = String::new();
        write_state(&mut one, phi)?;
        rendered.push(one);
    }
    rendered.sort_unstable();
    out.push_str(&rendered.join("|"));
    Some(())
}

/// A cursor over a snapshot field.
struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(src: &'a str) -> Scanner<'a> {
        Scanner {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.pos < self.src.len() && pred(self.src[self.pos]) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("")
    }

    fn parse_value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.parse_value()?);
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return None;
                        }
                    }
                }
                Some(Value::List(items))
            }
            b't' | b'f' => {
                let word = self.take_while(|b| b.is_ascii_alphabetic());
                match word {
                    "true" => Some(Value::Bool(true)),
                    "false" => Some(Value::Bool(false)),
                    _ => None,
                }
            }
            _ => {
                let start = self.pos;
                self.eat(b'-');
                let digits = self.take_while(|b| b.is_ascii_digit());
                if digits.is_empty() {
                    return None;
                }
                std::str::from_utf8(&self.src[start..self.pos])
                    .ok()?
                    .parse()
                    .ok()
                    .map(Value::Int)
            }
        }
    }

    fn parse_store(&mut self) -> Option<Store> {
        let mut store = Store::new();
        if self.peek() == Some(b'}') {
            return Some(store);
        }
        loop {
            let name = self.take_while(|b| b != b'=' && b != b'}');
            if name.is_empty() || !self.eat(b'=') {
                return None;
            }
            let value = self.parse_value()?;
            store.set(name, value);
            if self.peek() == Some(b'}') {
                return Some(store);
            }
            if !self.eat(b';') {
                return None;
            }
        }
    }

    fn parse_state(&mut self) -> Option<ExtState> {
        if !self.eat(b'{') {
            return None;
        }
        let logical = self.parse_store()?;
        if !self.eat(b'}') || !self.eat(b'{') {
            return None;
        }
        let program = self.parse_store()?;
        if !self.eat(b'}') {
            return None;
        }
        Some(ExtState { logical, program })
    }
}

fn parse_set(field: &str) -> Option<StateSet> {
    let mut set = StateSet::new();
    if field.is_empty() {
        return Some(set);
    }
    for part in field.split('|') {
        let mut sc = Scanner::new(part);
        let phi = sc.parse_state()?;
        if !sc.done() {
            return None;
        }
        set.insert(phi);
    }
    Some(set)
}

/// A decimal `u64` written without sign or leading zeros.
fn canonical_u64(field: &str) -> Option<u64> {
    let digits = field.as_bytes();
    let canonical =
        matches!(digits, [b'0'] | [b'1'..=b'9', ..]) && digits.iter().all(u8::is_ascii_digit);
    canonical.then(|| field.parse().ok())?
}

fn parse_domain(field: &str) -> Option<Vec<Value>> {
    let mut sc = Scanner::new(field);
    let mut out = Vec::new();
    if sc.done() {
        return Some(out);
    }
    loop {
        out.push(sc.parse_value()?);
        if sc.done() {
            return Some(out);
        }
        if !sc.eat(b',') {
            return None;
        }
    }
}

fn write_domain(out: &mut String, domain: &[Value]) {
    for (i, v) in domain.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_value(out, v);
    }
}

/// The fields of one checked snapshot line: its scope prefix
/// (`E`, domain, fuel, command source), its input-set text, where its
/// output-set field sits within the line, and its recorded cost.
struct LineFields<'a> {
    prefix: &'a str,
    input: &'a str,
    output: Range<usize>,
    cost_ns: u64,
}

/// Splits a line into its body and its checksum field: the last 16 bytes,
/// after a tab.
fn split_sum(line: &str) -> Option<(&str, &str)> {
    let at = line.len().checked_sub(17)?;
    let (body, sum_hex) = (line.get(..at)?, line.get(at..)?);
    Some((body, sum_hex.strip_prefix('\t')?))
}

/// Checks one line's checksum against `body_sum`, the [`line_sum`] of its
/// body ([`split_sum`]), and its field shape (the field count, and the
/// checksum and cost written as the exporter writes them). The scope
/// prefix is checked separately, once per distinct prefix
/// ([`SemCache::resolve_scope`]); the sets are parsed only on demand.
fn check_line(line: &str, body_sum: u64) -> Option<LineFields<'_>> {
    let (body, sum_hex) = split_sum(line)?;
    let lower_hex = sum_hex
        .bytes()
        .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    if !lower_hex || u64::from_str_radix(sum_hex, 16).ok()? != body_sum {
        return None;
    }
    // `E`, domain, fuel, source, input, output, cost: six tabs.
    let mut tabs = [0; 6];
    let mut found = body.match_indices('\t').map(|(at, _)| at);
    for tab in &mut tabs {
        *tab = found.next()?;
    }
    if found.next().is_some() {
        return None;
    }
    Some(LineFields {
        prefix: &body[..tabs[3]],
        input: &body[tabs[3] + 1..tabs[4]],
        output: tabs[4] + 1..tabs[5],
        cost_ns: canonical_u64(&body[tabs[5] + 1..])?,
    })
}

/// A candidate line of an export: a resident entry, rendered only if the
/// cap's cut reaches its cost, or an untouched pending line, copied as is.
enum Candidate<'a> {
    Entry {
        prefix: usize,
        input: &'a StateSet,
        out: &'a StateSet,
    },
    Line(&'a Pending),
}

/// A line an export retains: an untouched pending line, or a rendered
/// entry.
enum Kept<'a> {
    Line(&'a Pending),
    Rendered(String),
}

impl Kept<'_> {
    fn text(&self) -> &str {
        match self {
            Kept::Line(line) => line.text(),
            Kept::Rendered(text) => text,
        }
    }

    /// Text order. Lines of one sorted blob compare by position instead,
    /// which is the same order without reading their bytes.
    fn text_order(&self, other: &Kept) -> std::cmp::Ordering {
        match (self, other) {
            (Kept::Line(a), Kept::Line(b)) if a.blob.sorted && Arc::ptr_eq(&a.blob, &b.blob) => {
                a.line.start.cmp(&b.line.start)
            }
            _ => self.text().cmp(other.text()),
        }
    }
}

/// Renders one snapshot line: `prefix`, both sets, the cost, the checksum.
fn render_line(prefix: &str, input: &StateSet, out: &StateSet, cost_ns: u64) -> Option<String> {
    let mut body = String::from(prefix);
    write_set(&mut body, input)?;
    body.push('\t');
    write_set(&mut body, out)?;
    let _ = fmt::Write::write_fmt(&mut body, format_args!("\t{cost_ns}"));
    let sum = line_sum(&body);
    let _ = fmt::Write::write_fmt(&mut body, format_args!("\t{sum:016x}"));
    Some(body)
}

impl SemCache {
    /// Serializes up to `max_entries` memo entries as a textual snapshot.
    ///
    /// Every entry carries its **exact** key — the finitization, the
    /// command's canonical source ([`Cmd::to_source`], verified to re-parse
    /// to the identical tree before export), and the input set — plus the
    /// cached result, its recompute cost and a per-line checksum. Entries
    /// that cannot be serialized exactly are counted as `evicted`, as are
    /// entries beyond the cap: retention ranks by recompute cost
    /// (descending, ties broken by line text, so the choice is
    /// deterministic given the costs), keeping the entries that would be
    /// most expensive to re-evaluate. The retained lines are then sorted
    /// lexicographically, so the serialized form stays canonical for a
    /// given retained set.
    ///
    /// Imported lines no lookup asked for take part in the ranking with
    /// their recorded cost and are copied verbatim; resident entries are
    /// rendered only when they make the cut (or tie at it). The output is
    /// byte-identical to re-serializing every entry.
    ///
    /// # Examples
    ///
    /// ```
    /// use hhl_lang::{parse_cmd, ExecConfig, ExtState, SemCache, StateSet, Store, Value};
    /// let cache = SemCache::new();
    /// let cfg = ExecConfig::int_range(0, 1);
    /// let c = parse_cmd("x := x + 1").unwrap();
    /// let s = StateSet::singleton(ExtState::from_program(
    ///     Store::from_pairs([("x", Value::Int(1))]),
    /// ));
    /// cfg.sem_memo(&c, &s, &cache);
    /// let (snapshot, stats) = cache.export_snapshot(1024);
    /// assert_eq!(stats.exported, 1);
    ///
    /// let warm = SemCache::new();
    /// assert_eq!(warm.import_snapshot(&snapshot).loaded, 1);
    /// assert_eq!(cfg.sem_memo(&c, &s, &warm), cfg.sem(&c, &s));
    /// assert_eq!(warm.stats().hits, 1); // answered from the snapshot
    /// assert!(warm.export_snapshot(1024).1.unchanged);
    /// ```
    pub fn export_snapshot(&self, max_entries: usize) -> (String, MemoSnapshotStats) {
        let mut stats = MemoSnapshotStats::default();
        let finitizations = self.finitizations_by_id();
        let shards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.read().expect("memo shard poisoned"))
            .collect();
        let mut prefixes: Vec<String> = Vec::new();
        let mut ranked: Vec<(u64, Candidate)> = Vec::new();
        for shard in &shards {
            for (&(exec_id, cmd_id), by_set) in &shard.memo {
                let scope = finitizations
                    .get(exec_id as usize)
                    .and_then(|(domain, fuel)| {
                        let cmd = cmd_of(cmd_id)?;
                        let src = cmd.to_source();
                        // Exactness gate: only export commands whose canonical
                        // source re-parses to the identical tree.
                        (parse_cmd(&src).ok()? == cmd).then_some((domain, *fuel, src))
                    });
                let Some((domain, fuel, src)) = scope else {
                    stats.evicted += by_set.len() as u64;
                    continue;
                };
                let mut prefix = String::from("E\t");
                write_domain(&mut prefix, domain);
                let _ = fmt::Write::write_fmt(&mut prefix, format_args!("\t{fuel}\t{src}\t"));
                let at = prefixes.len();
                prefixes.push(prefix);
                ranked.extend(by_set.iter().map(|(input, m)| {
                    let entry = Candidate::Entry {
                        prefix: at,
                        input,
                        out: &m.out,
                    };
                    (m.cost_ns, entry)
                }));
            }
            for lines in shard.pending.values() {
                ranked.extend(lines.values().map(|l| (l.cost_ns, Candidate::Line(l))));
            }
        }
        // Walk the candidates by descending cost, one group of equal cost at
        // a time: only the group the cap cuts through needs its line texts
        // compared (ties break on line text, so the retained set is a
        // function of the costs), and no group past the cap is rendered.
        ranked.sort_unstable_by_key(|&(cost, _)| Reverse(cost));
        let mut kept: Vec<Kept> = Vec::new();
        for group in ranked.chunk_by(|a, b| a.0 == b.0) {
            let room = max_entries - kept.len();
            if room == 0 {
                stats.evicted += group.len() as u64;
                continue;
            }
            let start = kept.len();
            kept.extend(
                group
                    .iter()
                    .filter_map(|(cost, candidate)| match candidate {
                        Candidate::Entry { prefix, input, out } => {
                            render_line(&prefixes[*prefix], input, out, *cost).map(Kept::Rendered)
                        }
                        Candidate::Line(line) => Some(Kept::Line(line)),
                    }),
            );
            let added = kept.len() - start;
            stats.evicted += (group.len() - added) as u64;
            if added > room {
                kept[start..].sort_unstable_by(Kept::text_order);
                stats.evicted += (added - room) as u64;
                kept.truncate(start + room);
            }
        }
        kept.sort_unstable_by(Kept::text_order);
        stats.exported = kept.len() as u64;
        let size = kept.iter().map(|l| l.text().len() + 1).sum::<usize>();
        let mut out = String::with_capacity(SNAPSHOT_HEADER.len() + 1 + size);
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        for line in &kept {
            out.push_str(line.text());
            out.push('\n');
        }
        stats.unchanged = self
            .imported
            .lock()
            .expect("imported snapshot poisoned")
            .as_ref()
            .is_some_and(|blob| *blob.text == *out);
        (out, stats)
    }

    /// Loads a snapshot produced by [`SemCache::export_snapshot`], lazily.
    ///
    /// Each line's checksum and field shape are verified, and its scope is
    /// reconstructed exactly: the finitization, fuel, cost and checksum
    /// must be written as the exporter writes them, and the command source
    /// must re-emit to the same text it was parsed from. Any line that
    /// fails — truncation, bit flips, a foreign or future format — is
    /// counted as `rejected` and skipped: corruption can cost
    /// recomputation, never correctness.
    ///
    /// Accepted lines are indexed by scope and input-set text, not parsed:
    /// the first lookup whose set renders to exactly that text parses the
    /// line's output set and makes it an entry
    /// ([`MemoImportStats::materialized`]; an output set that does not
    /// parse is rejected then), and lines nobody asks for cost only their
    /// share of the scan.
    pub fn import_snapshot(&self, snapshot: &str) -> MemoImportStats {
        let mut stats = MemoImportStats::default();
        let mut lines = snapshot.lines();
        if lines.next() != Some(SNAPSHOT_HEADER) {
            stats.rejected = snapshot.lines().filter(|l| !l.is_empty()).count() as u64;
            self.rejected.fetch_add(stats.rejected, Ordering::Relaxed);
            return stats;
        }
        let lines: Vec<&str> = lines.filter(|l| !l.is_empty()).collect();
        let blob = Arc::new(Blob {
            text: snapshot.into(),
            sorted: lines.windows(2).all(|pair| pair[0] < pair[1]),
        });
        let bodies: Vec<&str> = lines
            .iter()
            .map(|line| split_sum(line).map_or("", |(body, _)| body))
            .collect();
        let mut scopes: HashMap<&str, Option<Scope>> = HashMap::new();
        // Lines of one scope are adjacent in a sorted snapshot: compare
        // with the previous prefix before hashing into the table.
        let mut last: Option<(&str, Option<Scope>)> = None;
        let mut indexed: HashMap<Scope, Vec<(Box<str>, Pending)>> = HashMap::new();
        for (line, sum) in lines.iter().zip(line_sums(&bodies)) {
            let start = line.as_ptr() as usize - snapshot.as_ptr() as usize;
            let checked = check_line(line, sum).and_then(|fields| {
                let scope = match last {
                    Some((prefix, scope)) if prefix == fields.prefix => scope,
                    _ => {
                        let scope = *scopes
                            .entry(fields.prefix)
                            .or_insert_with(|| self.resolve_scope(fields.prefix));
                        last = Some((fields.prefix, scope));
                        scope
                    }
                };
                Some((scope?, fields))
            });
            let Some((scope, fields)) = checked else {
                stats.rejected += 1;
                continue;
            };
            let pending = Pending {
                blob: Arc::clone(&blob),
                line: start..start + line.len(),
                output: start + fields.output.start..start + fields.output.end,
                cost_ns: fields.cost_ns,
            };
            stats.loaded += 1;
            indexed
                .entry(scope)
                .or_default()
                .push((fields.input.into(), pending));
        }
        for (scope, lines) in indexed {
            self.writes.fetch_add(1, Ordering::Relaxed);
            let mut shard = self.shard(&scope).write().expect("memo shard poisoned");
            let pending = shard.pending.entry(scope).or_default();
            pending.reserve(lines.len());
            for (input, line) in lines {
                // A later line with the same key supersedes an earlier one,
                // as the last write of that key would.
                if pending.insert(input, line).is_some() {
                    stats.loaded -= 1;
                    stats.rejected += 1;
                }
            }
            // Importing into a warm cache: a line supersedes the resident
            // entry under its key, as an overwrite would.
            let Shard { memo, pending } = &mut *shard;
            if let (Some(resident), Some(lines)) = (memo.get_mut(&scope), pending.get(&scope)) {
                resident.retain(|input, _| {
                    let mut key = String::new();
                    write_set(&mut key, input).is_none() || !lines.contains_key(key.as_str())
                });
            }
        }
        self.loaded.fetch_add(stats.loaded, Ordering::Relaxed);
        self.rejected.fetch_add(stats.rejected, Ordering::Relaxed);
        *self.imported.lock().expect("imported snapshot poisoned") = Some(blob);
        stats
    }

    /// Resolves a line's scope prefix (`E`, domain, fuel, command source)
    /// to its memo scope, or `None` unless every field is in the exact
    /// canonical form the exporter writes — in particular the command
    /// source must re-emit to the same text (an emit ∘ parse fixpoint), so
    /// a printer/parser mismatch can never smuggle a result under the
    /// wrong key.
    fn resolve_scope(&self, prefix: &str) -> Option<Scope> {
        let mut fields = prefix.split('\t');
        if fields.next() != Some("E") {
            return None;
        }
        let (domain_text, fuel, src) = (fields.next()?, fields.next()?, fields.next()?);
        if fields.next().is_some() {
            return None;
        }
        let domain = parse_domain(domain_text)?;
        let mut emitted = String::new();
        write_domain(&mut emitted, &domain);
        let fuel = u32::try_from(canonical_u64(fuel)?).ok()?;
        let cmd = parse_cmd(src).ok()?;
        if emitted != domain_text || cmd.to_source() != src {
            return None;
        }
        let exec = ExecConfig {
            havoc_domain: domain,
            loop_fuel: fuel,
        };
        Some((self.exec_id(&exec), intern_cmd(&cmd)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::parser::parse_cmd;
    use crate::rng::Rng;
    use crate::state::{ExtState, Store};
    use crate::value::Value;

    fn set(xs: &[i64]) -> StateSet {
        xs.iter()
            .map(|&x| ExtState::from_program(Store::from_pairs([("x", Value::Int(x))])))
            .collect()
    }

    #[test]
    fn memo_agrees_with_sem_on_all_constructs() {
        let cache = SemCache::new();
        let cfg = ExecConfig::int_range(0, 2).fuel(8);
        for src in [
            "skip",
            "x := x + 1",
            "x := nonDet()",
            "assume x > 0",
            "x := x + 1; x := x * 2",
            "if (x > 0) { x := 1 } else { x := 0 }",
            "while (x < 2) { x := x + 1 }",
            "{ x := x + 1 }*",
        ] {
            let cmd = parse_cmd(src).unwrap();
            for s in [set(&[]), set(&[0]), set(&[0, 1, 2])] {
                assert_eq!(
                    cfg.sem_memo(&cmd, &s, &cache),
                    cfg.sem(&cmd, &s),
                    "divergence on {src} with {s}"
                );
            }
        }
    }

    #[test]
    fn memo_agrees_with_sem_on_seeded_random_programs() {
        // The load-bearing equivalence: a cached evaluation must never
        // change a result, across random command shapes and input sets.
        let mut rng = Rng::seed_from_u64(0xB47C);
        let cache = SemCache::new();
        let cfg = ExecConfig::int_range(-1, 1).fuel(6);
        for _ in 0..60 {
            let cmd = random_cmd(&mut rng, 3);
            let states: Vec<i64> = (0..rng.gen_below(4))
                .map(|_| rng.gen_below(3) as i64 - 1)
                .collect();
            let s = set(&states);
            assert_eq!(cfg.sem_memo(&cmd, &s, &cache), cfg.sem(&cmd, &s), "{cmd}");
        }
    }

    fn random_cmd(rng: &mut Rng, depth: u32) -> Cmd {
        let leaf = depth == 0;
        match rng.gen_below(if leaf { 4 } else { 7 }) {
            0 => Cmd::Skip,
            1 => Cmd::assign("x", Expr::var("x") + Expr::int(rng.gen_below(3) as i64 - 1)),
            2 => Cmd::havoc("x"),
            3 => Cmd::assume(Expr::var("x").ge(Expr::int(rng.gen_below(3) as i64 - 1))),
            4 => Cmd::seq(random_cmd(rng, depth - 1), random_cmd(rng, depth - 1)),
            5 => Cmd::choice(random_cmd(rng, depth - 1), random_cmd(rng, depth - 1)),
            _ => Cmd::star(random_cmd(rng, depth - 1)),
        }
    }

    #[test]
    fn shared_subprograms_hit() {
        // Two sequences sharing the prefix `x := x + 1; x := x * 2`: the
        // second evaluation reuses the prefix entries.
        let cache = SemCache::new();
        let cfg = ExecConfig::default();
        let s = set(&[0, 1]);
        let a = parse_cmd("x := x + 1; x := x * 2; x := x - 1").unwrap();
        let b = parse_cmd("x := x + 1; x := x * 2; x := x + 5").unwrap();
        cfg.sem_memo(&a, &s, &cache);
        let before = cache.stats().hits;
        cfg.sem_memo(&b, &s, &cache);
        assert!(
            cache.stats().hits > before,
            "shared prefix must produce hits: {:?}",
            cache.stats()
        );
    }

    #[test]
    fn distinct_exec_configs_never_alias() {
        let cache = SemCache::new();
        let narrow = ExecConfig::int_range(0, 1);
        let wide = ExecConfig::int_range(0, 3);
        let s = set(&[0]);
        let havoc = Cmd::havoc("x");
        assert_eq!(cfg_len(&narrow, &havoc, &s, &cache), 2);
        assert_eq!(cfg_len(&wide, &havoc, &s, &cache), 4);
    }

    fn cfg_len(cfg: &ExecConfig, cmd: &Cmd, s: &StateSet, cache: &SemCache) -> usize {
        cfg.sem_memo(cmd, s, cache).len()
    }

    #[test]
    fn snapshot_roundtrips_exactly() {
        // Export from a populated cache, import into a fresh one, and the
        // warm cache must answer the same evaluations without recomputing.
        let cache = SemCache::new();
        let cfg = ExecConfig::int_range(0, 2).fuel(6);
        let programs = [
            "x := x + 1; x := x * 2",
            "if (x > 0) { x := 1 } else { x := 0 }",
            "while (x < 2) { x := x + 1 }",
            "{ x := x + 1 } + { x := nonDet() }",
        ];
        for src in programs {
            let cmd = parse_cmd(src).unwrap();
            for s in [set(&[]), set(&[0, 1]), set(&[0, 1, 2])] {
                cfg.sem_memo(&cmd, &s, &cache);
            }
        }
        let (snapshot, stats) = cache.export_snapshot(usize::MAX);
        assert!(stats.exported > 0, "{stats:?}");
        assert_eq!(stats.evicted, 0, "{stats:?}");

        let warm = SemCache::new();
        let imported = warm.import_snapshot(&snapshot);
        assert_eq!(imported.loaded, stats.exported, "{imported:?}");
        assert_eq!(imported.rejected, 0, "{imported:?}");

        // Every top-level evaluation is now a pure replay: results agree
        // with `sem` and the warm cache never misses on the roots.
        for src in programs {
            let cmd = parse_cmd(src).unwrap();
            for s in [set(&[]), set(&[0, 1]), set(&[0, 1, 2])] {
                assert_eq!(cfg.sem_memo(&cmd, &s, &warm), cfg.sem(&cmd, &s), "{src}");
            }
        }
        // Re-exporting the warm cache reproduces the same snapshot (the
        // serialized form is canonical).
        let (again, _) = warm.export_snapshot(usize::MAX);
        assert_eq!(snapshot, again);
    }

    #[test]
    fn snapshot_rejects_corruption_without_panicking() {
        let cache = SemCache::new();
        let cfg = ExecConfig::int_range(0, 1);
        let cmd = parse_cmd("x := x + 1; x := x - 1").unwrap();
        cfg.sem_memo(&cmd, &set(&[0, 1]), &cache);
        let (snapshot, stats) = cache.export_snapshot(usize::MAX);
        let entry_lines = stats.exported;

        // Wrong header: everything rejected.
        let foreign = snapshot.replacen(SNAPSHOT_SCHEMA, "hhl-memo v999", 1);
        let warm = SemCache::new();
        let imported = warm.import_snapshot(&foreign);
        assert_eq!(imported.loaded, 0);
        assert!(imported.rejected >= entry_lines);
        assert_eq!(warm.stats().entries, 0);

        // Bit flip in an entry body (inside the command source): that
        // line's checksum fails and the entry is rejected, not mis-keyed.
        let mut bytes = snapshot.clone().into_bytes();
        let target = snapshot.find("x - 1").expect("command source is on disk");
        bytes[target] ^= 0x01; // 'x' -> 'y'
        let flipped = String::from_utf8(bytes).expect("still utf-8");
        let warm = SemCache::new();
        let imported = warm.import_snapshot(&flipped);
        assert!(imported.rejected >= 1, "{imported:?}");

        // Truncation mid-line: the torn line is rejected, the rest loads.
        let truncated = &snapshot[..snapshot.len() - 10];
        let warm = SemCache::new();
        let imported = warm.import_snapshot(truncated);
        assert_eq!(imported.loaded + imported.rejected, entry_lines);
        assert!(imported.rejected >= 1, "{imported:?}");
    }

    #[test]
    fn snapshot_entry_cap_keeps_the_most_expensive_entries() {
        // Entries with controlled recompute costs: the cap must retain the
        // costliest ones, deterministically, and drop the cheap ones.
        let cache = SemCache::new();
        let cfg = ExecConfig::int_range(0, 1);
        let exec = cache.exec_id(&cfg);
        for i in 0..6u64 {
            let cmd = parse_cmd(&format!("x := x + {i}")).unwrap();
            let scope: Scope = (exec, intern_cmd(&cmd));
            let input = set(&[0]);
            let output = cfg.sem(&cmd, &input);
            cache.insert(scope, input, output, (i + 1) * 1_000);
        }
        let (full, full_stats) = cache.export_snapshot(usize::MAX);
        assert_eq!(full_stats.exported, 6);
        let (capped, capped_stats) = cache.export_snapshot(4);
        assert_eq!(capped_stats.exported, 4);
        assert_eq!(capped_stats.evicted, 2);
        // The two cheapest entries (costs 1000 and 2000: `x + 0`, `x + 1`)
        // are the evicted ones; every retained line is in the full export.
        let full_lines: Vec<&str> = full.lines().collect();
        for line in capped.lines().skip(1) {
            assert!(full_lines.contains(&line), "capped line missing: {line}");
        }
        assert!(!capped.contains("x + 0\t"));
        assert!(!capped.contains("x + 1\t"));
        for kept in 2..6 {
            assert!(capped.contains(&format!("x + {kept}\t")), "lost x + {kept}");
        }
    }

    #[test]
    fn warm_lookups_acquire_no_write_locks() {
        // The contention regression test, stated deterministically instead
        // of with wall-clock timing: once every key is cached, concurrent
        // re-evaluations (including finitization-id resolution) are pure
        // read traffic — zero exclusive acquisitions, so lookups cannot
        // serialize behind a writer.
        let cache = SemCache::new();
        let cfg = ExecConfig::int_range(0, 2).fuel(6);
        let cmd = parse_cmd("x := x + 1; { x := x + 1 }*").unwrap();
        let s = set(&[0, 1]);
        let expected = cfg.sem(&cmd, &s);
        cfg.sem_memo(&cmd, &s, &cache);
        let warmed = cache.write_acquisitions();
        assert!(warmed > 0, "warming must write");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        assert_eq!(cfg.sem_memo(&cmd, &s, &cache), expected);
                    }
                });
            }
        });
        assert_eq!(cache.write_acquisitions(), warmed);
    }

    #[test]
    fn racing_miss_waits_for_the_inflight_owner() {
        // One worker owns an expensive compound key; a second worker that
        // misses the same key must wait and answer from the published
        // entry instead of recomputing. Pinned via the write counter: the
        // waiter performs zero table writes.
        let cache = SemCache::new();
        let cfg = ExecConfig::int_range(0, 2).fuel(6);
        let cmd = parse_cmd("{ x := x + 1 }*").unwrap();
        let s = set(&[0]);
        let expected = cfg.sem(&cmd, &s);
        let scope: Scope = (cache.exec_id(&cfg), intern_cmd(&cmd));
        assert!(matches!(cache.claim(scope, &s), Claim::Owner));
        let flight = cache
            .inflight
            .lock()
            .unwrap()
            .get(&(scope, s.clone()))
            .unwrap()
            .clone();
        let writes_before = cache.write_acquisitions();
        std::thread::scope(|threads| {
            let waiter = threads.spawn(|| cfg.sem_memo(&cmd, &s, &cache));
            // Handshake: the waiter holds a clone of the flight only while
            // parked on it (map ref + ours + the waiter's = 3).
            let parked = std::time::Instant::now();
            while Arc::strong_count(&flight) < 3 {
                assert!(
                    parked.elapsed() < std::time::Duration::from_secs(10),
                    "waiter never parked on the in-flight key"
                );
                std::thread::yield_now();
            }
            cache.insert(scope, s.clone(), expected.clone(), 0);
            cache.finish(scope, &s);
            assert_eq!(waiter.join().expect("waiter panicked"), expected);
        });
        // The single write is the owner's publish; the waiter added none.
        assert_eq!(cache.write_acquisitions(), writes_before + 1);
    }

    #[test]
    fn exec_ids_are_per_cache_and_cleared() {
        // The finitization table lives in the cache: ids allocate
        // independently per cache, stay stable per (cache, finitization),
        // and clear() empties the table along with the entries it keys —
        // the table is bounded by the cache's lifetime, not the process's.
        let a = SemCache::new();
        let b = SemCache::new();
        let narrow = ExecConfig::int_range(0, 1);
        let wide = ExecConfig::int_range(0, 3);
        assert_eq!(a.exec_id(&wide), 0);
        assert_eq!(a.exec_id(&narrow), 1);
        assert_eq!(b.exec_id(&narrow), 0);
        assert_eq!(a.exec_id(&wide), 0);
        a.clear();
        assert_eq!(a.exec_id(&narrow), 0);
    }

    #[test]
    fn stats_and_clear() {
        let cache = SemCache::new();
        let cfg = ExecConfig::default();
        let s = set(&[0]);
        let c = parse_cmd("x := x + 1").unwrap();
        cfg.sem_memo(&c, &s, &cache);
        cfg.sem_memo(&c, &s, &cache);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.hit_rate() > 0.49);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    /// A cache warmed by seeded random programs over seeded input sets,
    /// and the queries that warmed it.
    fn seeded_warm_cache(seed: u64) -> (SemCache, ExecConfig, Vec<(Cmd, StateSet)>) {
        let mut rng = Rng::seed_from_u64(seed);
        let cache = SemCache::new();
        let cfg = ExecConfig::int_range(-1, 1).fuel(6);
        let queries: Vec<(Cmd, StateSet)> = (0..40)
            .map(|_| {
                let cmd = random_cmd(&mut rng, 3);
                let states: Vec<i64> = (0..rng.gen_below(4))
                    .map(|_| rng.gen_below(3) as i64 - 1)
                    .collect();
                (cmd, set(&states))
            })
            .collect();
        for (cmd, s) in &queries {
            cfg.sem_memo(cmd, s, &cache);
        }
        (cache, cfg, queries)
    }

    #[test]
    fn lazy_import_answers_exactly_the_hits_of_an_eager_warm_cache() {
        // The cache that wrote the snapshot holds every exported entry, so
        // it is what an eager import would have built: the lazy cache must
        // hit and miss exactly where it does, with results equal to `sem`.
        let (eager, cfg, warmup) = seeded_warm_cache(0x1A2E);
        let (snapshot, stats) = eager.export_snapshot(usize::MAX);
        assert_eq!(stats.evicted, 0, "the snapshot holds every entry");
        let lazy = SemCache::new();
        lazy.import_snapshot(&snapshot);
        assert!(lazy.stats().pending > 0);
        let (_, _, fresh) = seeded_warm_cache(0xF2E5);
        let before = eager.stats();
        for (cmd, s) in warmup.iter().chain(&fresh) {
            let expected = cfg.sem(cmd, s);
            assert_eq!(cfg.sem_memo(cmd, s, &eager), expected, "{cmd}");
            assert_eq!(cfg.sem_memo(cmd, s, &lazy), expected, "{cmd}");
        }
        let (after, got) = (eager.stats(), lazy.stats());
        assert_eq!(got.hits, after.hits - before.hits, "{got:?}");
        assert_eq!(got.misses, after.misses - before.misses, "{got:?}");
        assert!(lazy.snapshot_stats().materialized > 0);
    }

    #[test]
    fn untouched_lines_export_verbatim_and_unchanged() {
        let (cache, cfg, queries) = seeded_warm_cache(0x7E1);
        let (snapshot, stats) = cache.export_snapshot(usize::MAX);
        assert!(!stats.unchanged, "nothing was imported");

        // Import → export with no lookups reproduces the blob.
        let lazy = SemCache::new();
        lazy.import_snapshot(&snapshot);
        let (again, again_stats) = lazy.export_snapshot(usize::MAX);
        assert_eq!(again, snapshot);
        assert!(again_stats.unchanged);

        // Partial use: half the queries materialize their lines; the
        // export is still the same bytes.
        for (cmd, s) in queries.iter().step_by(2) {
            cfg.sem_memo(cmd, s, &lazy);
        }
        let used = lazy.stats();
        assert!(used.entries > 0 && used.pending > 0, "{used:?}");
        assert_eq!(used.misses, 0, "{used:?}");
        let (again, again_stats) = lazy.export_snapshot(usize::MAX);
        assert_eq!(again, snapshot);
        assert!(again_stats.unchanged);

        // A fresh result changes the bytes.
        cfg.sem_memo(&parse_cmd("x := x + 7").unwrap(), &set(&[1]), &lazy);
        assert!(!lazy.export_snapshot(usize::MAX).1.unchanged);
    }

    #[test]
    fn capped_export_of_resident_and_pending_lines_matches_the_resident_export() {
        // Costs with ties, so some caps cut through a tie group: the mixed
        // export (some lines materialized, some pending) must pick and
        // write exactly the lines the all-resident cache does.
        let cache = SemCache::new();
        let cfg = ExecConfig::int_range(0, 1);
        let exec = cache.exec_id(&cfg);
        let costs = [5, 5, 5, 3, 3, 1, 9, 3];
        let inputs: Vec<(Cmd, StateSet)> = (0..costs.len() as i64)
            .map(|i| (parse_cmd(&format!("x := x + {i}")).unwrap(), set(&[0])))
            .collect();
        for ((cmd, input), cost) in inputs.iter().zip(costs) {
            let scope: Scope = (exec, intern_cmd(cmd));
            cache.insert(scope, input.clone(), cfg.sem(cmd, input), cost);
        }
        let (full, _) = cache.export_snapshot(usize::MAX);
        let lazy = SemCache::new();
        lazy.import_snapshot(&full);
        for (cmd, input) in inputs.iter().step_by(3) {
            cfg.sem_memo(cmd, input, &lazy);
        }
        assert_eq!(lazy.snapshot_stats().materialized, 3);
        for cap in 0..=costs.len() + 1 {
            let (mixed, mixed_stats) = lazy.export_snapshot(cap);
            let (resident, resident_stats) = cache.export_snapshot(cap);
            assert_eq!(mixed, resident, "cap {cap}");
            assert_eq!(mixed_stats.exported, resident_stats.exported);
            assert_eq!(mixed_stats.evicted, resident_stats.evicted);
        }
    }

    #[test]
    fn a_line_that_fails_to_parse_on_demand_is_rejected_not_served() {
        // A checksummed line with a malformed output set passes the
        // import's shape check; the lookup that reaches it rejects it and
        // recomputes.
        let cache = SemCache::new();
        let cfg = ExecConfig::int_range(0, 1);
        let cmd = parse_cmd("x := x + 1").unwrap();
        let input = set(&[0]);
        cfg.sem_memo(&cmd, &input, &cache);
        let (snapshot, _) = cache.export_snapshot(usize::MAX);
        let line = snapshot.lines().nth(1).expect("one entry line");
        let fields: Vec<&str> = line.split('\t').collect();
        let mut body = fields[..5].join("\t");
        body.push_str("\t{x=1\t");
        body.push_str(fields[6]);
        let broken = format!("{SNAPSHOT_HEADER}\n{body}\t{:016x}\n", line_sum(&body));

        let lazy = SemCache::new();
        assert_eq!(lazy.import_snapshot(&broken).loaded, 1);
        assert_eq!(cfg.sem_memo(&cmd, &input, &lazy), cfg.sem(&cmd, &input));
        let counts = lazy.snapshot_stats();
        assert_eq!((counts.loaded, counts.rejected), (0, 1), "{counts:?}");
        assert_eq!(counts.materialized, 0);
        assert_eq!(lazy.stats().misses, 1);
        let (again, stats) = lazy.export_snapshot(usize::MAX);
        assert_eq!(stats.exported, 1, "the recomputed entry replaces the line");
        assert!(!again.contains("{x=1\t"), "{again}");
        assert!(!stats.unchanged);
    }

    #[test]
    fn malformed_line_shapes_are_rejected_without_panicking() {
        let cache = SemCache::new();
        let cfg = ExecConfig::int_range(0, 1);
        cfg.sem_memo(&parse_cmd("x := x + 1").unwrap(), &set(&[0]), &cache);
        let (snapshot, _) = cache.export_snapshot(usize::MAX);
        let line = snapshot.lines().nth(1).expect("one entry line");
        let (body, _) = line.rsplit_once('\t').unwrap();
        let (head, cost) = body.rsplit_once('\t').unwrap();
        let resum = |body: &str| format!("{body}\t{:016x}", line_sum(body));
        let bad_lines = [
            String::new(),
            "\t".repeat(20),
            format!("{body}\t{:016X}", line_sum(body)),
            resum(&format!("{head}\t")),
            resum(&format!("{head}\t+{cost}")),
            resum(&format!("{head}\t0{cost}")),
            resum(&format!("{head}\t{cost}\t1")),
            resum(&head.replacen("E\t", "E\t0", 1)),
            resum(&head.replacen("E\t", "F\t", 1)),
            resum(&head.replacen("\t32\t", "\t032\t", 1)),
        ];
        for bad in &bad_lines {
            let lazy = SemCache::new();
            let stats = lazy.import_snapshot(&format!("{SNAPSHOT_HEADER}\n{bad}\n"));
            assert_eq!(stats.loaded, 0, "accepted {bad:?}");
        }
        assert_eq!(SemCache::new().import_snapshot(&snapshot).loaded, 1);
    }

    #[test]
    fn importing_into_a_warm_cache_keeps_one_line_per_key() {
        // Every line supersedes the resident entry under its key, as an
        // overwrite would: the export names each key once.
        let (cache, _, _) = seeded_warm_cache(0x3A4);
        let (snapshot, stats) = cache.export_snapshot(usize::MAX);
        let imported = cache.import_snapshot(&snapshot);
        assert_eq!(imported.loaded, stats.exported);
        assert_eq!(cache.stats().pending as u64, stats.exported);
        let (again, again_stats) = cache.export_snapshot(usize::MAX);
        assert_eq!(again, snapshot);
        assert!(again_stats.unchanged);
    }

    #[test]
    fn clear_drops_pending_lines() {
        let (cache, cfg, queries) = seeded_warm_cache(0xC1EA);
        let (snapshot, _) = cache.export_snapshot(usize::MAX);
        let lazy = SemCache::new();
        lazy.import_snapshot(&snapshot);
        assert!(lazy.stats().pending > 0);
        lazy.clear();
        assert_eq!(lazy.stats(), CacheStats::default());
        assert_eq!(lazy.snapshot_stats(), MemoImportStats::default());
        let (cmd, s) = &queries[0];
        assert_eq!(cfg.sem_memo(cmd, s, &lazy), cfg.sem(cmd, s));
        assert_eq!(lazy.stats().hits, 0, "a cleared line must not answer");
        let (empty, stats) = lazy.export_snapshot(0);
        assert_eq!(empty, format!("{SNAPSHOT_HEADER}\n"));
        assert!(!stats.unchanged);
    }
}
