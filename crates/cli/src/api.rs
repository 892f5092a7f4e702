//! The unified request API behind every `hhl` entry point.
//!
//! Historically each subcommand (`check`, `prove`, `replay`, `batch`) had
//! its own argument plumbing, store wiring and rendering loop inside
//! `main.rs`. This module extracts all of it into a transport-agnostic
//! façade:
//!
//! * [`Request`] — one verification job: an [`Action`], a file list, a job
//!   count, the unified [`CacheOpts`], and a report format. Requests
//!   arrive either from the one-shot CLI (argv) or from `hhl serve`
//!   (JSON lines, see [`parse_request`]).
//! * [`Response`] — the complete result of a request: the exact bytes the
//!   one-shot CLI would print to stdout, the stderr lines, and the exit
//!   code. [`Response::render`] serializes it as a single-line
//!   schema-versioned [`RESPONSE_SCHEMA`] JSON document for the daemon.
//! * [`Engine`] — the execution context. [`Engine::one_shot`] behaves
//!   exactly like the classic CLI (fresh caches per invocation);
//!   [`Engine::persistent`] keeps one shared [`SemCache`]/[`EvalCache`]
//!   pair, a persistent [`VerdictStore`], a bounded response cache and a
//!   session table alive across requests — the state behind `hhl serve`.
//!
//! The contract that makes the two transports interchangeable: for any
//! request, `Response::stdout` and `Response::exit_code` are byte-identical
//! between a one-shot engine and a warm persistent engine, for every
//! `jobs` value. Warmth only changes *how fast* the bytes are produced
//! (and the stderr counters, which are performance facts, not verdicts).
//!
//! Sessions ([`Request::session`]) give a daemon client an isolated
//! workspace: per-session memo caches, no persistent store, and a
//! session-scoped interner arena ([`hhl_lang::begin_session`]) so symbols
//! minted by one client's (possibly hostile) certificates never leak into
//! another session's interner or outlive the session.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hhl_assert::EvalCache;
use hhl_driver::json::escape_json;
pub use hhl_driver::json::{parse_json, Json};
use hhl_driver::metrics::{counter_line, MetricsRegistry, Stage};
use hhl_driver::{Scheduler, ShardCounters, ShardStats, VerdictStore};
use hhl_lang::{
    begin_session, intern_sizes, MemoSnapshotStats, SemCache, SessionArena, StableHasher,
};

use crate::batch::{
    run_batch, run_replay_batch, BatchOptions, BatchRun, MEMO_SNAPSHOT_MAX_ENTRIES,
};
use crate::spec::{parse_spec, Mode, Spec};

/// Schema tag of the daemon's request documents (`hhl serve` input lines).
pub const REQUEST_SCHEMA: &str = "hhl-request v1";
/// Schema tag of the daemon's response documents (`hhl serve` output lines).
pub const RESPONSE_SCHEMA: &str = "hhl-response v1";
/// Default persistent cache directory (`hhl batch`, `hhl serve`).
pub const DEFAULT_CACHE_DIR: &str = ".hhl-cache";
/// Default `.verdict` record budget for `gc` (see [`VerdictStore::gc`]).
pub const DEFAULT_GC_KEEP_RECORDS: usize = 4096;
/// Rendered responses kept by a persistent engine. At the cap the entry
/// with the oldest *last hit* is evicted (LRU by hit recency), so the
/// requests a client keeps repeating stay warm however many one-off
/// requests flow past them.
const RESPONSE_CACHE_MAX_ENTRIES: usize = 512;

/// The persistent-store flags shared by every subcommand and by the serve
/// request schema: one struct, one set of defaults, one validation.
///
/// `dir: None` means "this command's default": `hhl batch` and `hhl serve`
/// fall back to [`DEFAULT_CACHE_DIR`]; `check`/`prove`/`verify`/`replay`
/// stay storeless (their classic behavior) unless a directory is given.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheOpts {
    /// `false` under `--no-cache`: disables the in-memory memo caches and
    /// the persistent store together.
    pub use_cache: bool,
    /// `--cache-dir DIR`.
    pub dir: Option<String>,
    /// `--fresh`: ignore (and rebuild) existing records.
    pub fresh: bool,
}

impl Default for CacheOpts {
    fn default() -> CacheOpts {
        CacheOpts {
            use_cache: true,
            dir: None,
            fresh: false,
        }
    }
}

impl CacheOpts {
    /// Rejects contradictory combinations; `command` names the subcommand
    /// in the message. Commands with a default directory (`batch`, `serve`)
    /// accept a bare `--fresh`; the storeless-by-default commands need an
    /// explicit `--cache-dir` for `--fresh` to act on.
    pub fn validate(&self, command: &str) -> Result<(), String> {
        if !self.use_cache && (self.dir.is_some() || self.fresh) {
            return Err(
                "--no-cache disables the persistent store; drop --cache-dir/--fresh".to_owned(),
            );
        }
        if self.fresh && self.dir.is_none() && !matches!(command, "batch" | "serve" | "gc") {
            return Err(format!("--fresh needs --cache-dir on `hhl {command}`"));
        }
        Ok(())
    }
}

/// What a [`Request`] asks the engine to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Run each spec under its own `mode:` line (`hhl check`).
    Check,
    /// Force the syntactic WP prover (`hhl prove`).
    Prove,
    /// Force the annotated-loop VC generator (`hhl verify`).
    Verify,
    /// Replay `(spec, certificate)` pairs (`hhl replay`).
    Replay,
    /// Corpus batch with the compact aggregate report (`hhl batch`).
    Batch,
    /// Daemon introspection: request/cache/session/interner/stage counts.
    Status,
    /// Prune the persistent store (LRU verdict records, cost-capped memo
    /// snapshot) and drop the response cache.
    Gc,
    /// Drop a session's caches and interner arena.
    EndSession,
    /// Persist the memo snapshot and stop the daemon.
    Shutdown,
}

impl Action {
    /// The wire name (`"command"` field of a request document).
    pub fn name(self) -> &'static str {
        match self {
            Action::Check => "check",
            Action::Prove => "prove",
            Action::Verify => "verify",
            Action::Replay => "replay",
            Action::Batch => "batch",
            Action::Status => "status",
            Action::Gc => "gc",
            Action::EndSession => "end-session",
            Action::Shutdown => "shutdown",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<Action> {
        Some(match name {
            "check" => Action::Check,
            "prove" => Action::Prove,
            "verify" => Action::Verify,
            "replay" => Action::Replay,
            "batch" => Action::Batch,
            "status" => Action::Status,
            "gc" => Action::Gc,
            "end-session" => Action::EndSession,
            "shutdown" => Action::Shutdown,
            _ => return None,
        })
    }

    fn tag(self) -> u8 {
        match self {
            Action::Check => 0,
            Action::Prove => 1,
            Action::Verify => 2,
            Action::Replay => 3,
            Action::Batch => 4,
            Action::Status => 5,
            Action::Gc => 6,
            Action::EndSession => 7,
            Action::Shutdown => 8,
        }
    }
}

/// One verification job, however it arrived (argv or a serve request line).
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response (`"-"` when
    /// absent — the one-shot CLI never sets one).
    pub id: String,
    /// What to do.
    pub action: Action,
    /// Input files. For [`Action::Replay`] these are `(spec, certificate)`
    /// pairs, flattened.
    pub files: Vec<String>,
    /// `--jobs N`. `None` keeps each command's classic default (1 for the
    /// full-report commands, all hardware threads for `batch`) and, like
    /// the flagless CLI, suppresses the stderr counter lines on the
    /// full-report commands.
    pub jobs: Option<usize>,
    /// Unified store/memo flags.
    pub cache: CacheOpts,
    /// `--report json`: replace the text report with the structured
    /// `hhl-report v1` document.
    pub report_json: bool,
    /// Daemon session name: run in that session's isolated caches and
    /// interner arena (no persistent store, no response cache).
    pub session: Option<String>,
    /// `gc`: keep at most this many `.verdict` records
    /// ([`DEFAULT_GC_KEEP_RECORDS`] when absent).
    pub gc_keep: Option<usize>,
    /// `gc`: cap the re-exported memo snapshot at this many entries
    /// (the batch snapshot cap when absent).
    pub gc_memo: Option<usize>,
    /// `"stream":true`: answer with incremental [`Frame`] chunk lines
    /// (one per file) and a terminal `end` frame instead of one buffered
    /// [`Response`] document. The concatenated chunk `stdout`s are
    /// byte-identical to the non-streamed `Response::stdout`.
    pub stream: bool,
}

impl Request {
    /// A request with every optional field at its CLI default.
    pub fn new(action: Action, files: Vec<String>) -> Request {
        Request {
            id: "-".to_owned(),
            action,
            files,
            jobs: None,
            cache: CacheOpts::default(),
            report_json: false,
            session: None,
            gc_keep: None,
            gc_memo: None,
            stream: false,
        }
    }
}

/// The complete result of one request: exactly what the one-shot CLI would
/// print, plus the exit code, bundled so transports only differ in how
/// they ship the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Echo of [`Request::id`].
    pub id: String,
    /// The process exit code the one-shot CLI would return (0/1/2).
    pub exit_code: u8,
    /// `true` when a persistent engine answered from its response cache
    /// without running any engine work.
    pub cached: bool,
    /// The full stdout byte stream (reports, headers, blank separators).
    pub stdout: String,
    /// Stderr lines, in print order (errors, warnings, counters) —
    /// without trailing newlines.
    pub stderr: Vec<String>,
}

impl Response {
    /// Serializes as a single [`RESPONSE_SCHEMA`] JSON line (no trailing
    /// newline).
    pub fn render(&self) -> String {
        let mut buf = String::new();
        let _ = write!(
            buf,
            "{{\"schema\":\"{}\",\"id\":\"{}\",\"exit\":{},\"cached\":{},\"stdout\":\"{}\"",
            RESPONSE_SCHEMA,
            escape_json(&self.id),
            self.exit_code,
            self.cached,
            escape_json(&self.stdout)
        );
        buf.push_str(",\"stderr\":[");
        for (i, line) in self.stderr.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let _ = write!(buf, "\"{}\"", escape_json(line));
        }
        buf.push_str("]}");
        buf
    }

    /// Parses a [`Response::render`] line back (used by the differential
    /// tests and by clients scripting against the daemon).
    pub fn parse(line: &str) -> Result<Response, String> {
        let (doc, id) = response_doc(line)?;
        Ok(Response {
            id,
            exit_code: doc.num_at("exit")?,
            cached: doc.get("cached") == Some(&Json::Bool(true)),
            stdout: doc.str_at("stdout")?.to_owned(),
            stderr: stderr_lines(&doc)?,
        })
    }
}

/// Parses a [`RESPONSE_SCHEMA`] line — a buffered [`Response`] or a
/// [`Frame`] — checks its schema tag and reads its `id`.
fn response_doc(line: &str) -> Result<(Json, String), String> {
    let doc = parse_json(line)?;
    match doc.get("schema") {
        Some(Json::Str(s)) if s == RESPONSE_SCHEMA => {}
        other => return Err(format!("unsupported response schema {other:?}")),
    }
    let id = doc.str_at("id")?.to_owned();
    Ok((doc, id))
}

/// The optional `stderr` array of a response or end frame.
fn stderr_lines(doc: &Json) -> Result<Vec<String>, String> {
    match doc.get("stderr") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| match item {
                Json::Str(s) => Ok(s.clone()),
                other => Err(format!("stderr entries must be strings, got {other:?}")),
            })
            .collect(),
        None => Ok(Vec::new()),
        _ => Err("`stderr` must be an array of strings".to_owned()),
    }
}

/// One line of a streamed response (`"stream":true` requests): a sequence
/// of `chunk` frames carrying stdout slices (one per rendered file),
/// closed by exactly one `end` frame carrying the exit code, the cached
/// flag and the stderr lines. Frames share the [`RESPONSE_SCHEMA`] tag
/// and are distinguished from buffered [`Response`] documents by the
/// `"frame"` field; `seq` numbers every frame of one response `0..=n` so
/// clients detect dropped lines. [`Frame::reassemble`] folds a full frame
/// sequence back into the byte-identical [`Response`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// One stdout slice. Concatenating every chunk's `stdout` in `seq`
    /// order yields exactly [`Response::stdout`].
    Chunk {
        /// Echo of [`Request::id`].
        id: String,
        /// Position in the frame sequence, starting at 0.
        seq: u64,
        /// This slice of the stdout byte stream.
        stdout: String,
    },
    /// The terminal frame: everything a [`Response`] carries besides
    /// stdout.
    End {
        /// Echo of [`Request::id`].
        id: String,
        /// Position in the frame sequence (always the highest).
        seq: u64,
        /// The process exit code the one-shot CLI would return (0/1/2).
        exit_code: u8,
        /// `true` when answered from the response cache.
        cached: bool,
        /// Stderr lines, in print order, without trailing newlines.
        stderr: Vec<String>,
    },
}

impl Frame {
    /// Serializes as a single [`RESPONSE_SCHEMA`] JSON line (no trailing
    /// newline).
    pub fn render(&self) -> String {
        let mut buf = String::new();
        match self {
            Frame::Chunk { id, seq, stdout } => {
                let _ = write!(
                    buf,
                    "{{\"schema\":\"{}\",\"id\":\"{}\",\"frame\":\"chunk\",\"seq\":{},\
                     \"stdout\":\"{}\"}}",
                    RESPONSE_SCHEMA,
                    escape_json(id),
                    seq,
                    escape_json(stdout)
                );
            }
            Frame::End {
                id,
                seq,
                exit_code,
                cached,
                stderr,
            } => {
                let _ = write!(
                    buf,
                    "{{\"schema\":\"{}\",\"id\":\"{}\",\"frame\":\"end\",\"seq\":{},\
                     \"exit\":{},\"cached\":{}",
                    RESPONSE_SCHEMA,
                    escape_json(id),
                    seq,
                    exit_code,
                    cached
                );
                buf.push_str(",\"stderr\":[");
                for (i, line) in stderr.iter().enumerate() {
                    if i > 0 {
                        buf.push(',');
                    }
                    let _ = write!(buf, "\"{}\"", escape_json(line));
                }
                buf.push_str("]}");
            }
        }
        buf
    }

    /// Parses a [`Frame::render`] line back. A buffered [`Response`] line
    /// (no `"frame"` field) is an error here — callers that accept both
    /// should try [`Response::parse`] first.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let (doc, id) = response_doc(line)?;
        let seq = doc.num_at("seq")?;
        match doc.get("frame") {
            Some(Json::Str(kind)) if kind == "chunk" => Ok(Frame::Chunk {
                id,
                seq,
                stdout: doc.str_at("stdout")?.to_owned(),
            }),
            Some(Json::Str(kind)) if kind == "end" => Ok(Frame::End {
                id,
                seq,
                exit_code: doc.num_at("exit")?,
                cached: doc.get("cached") == Some(&Json::Bool(true)),
                stderr: stderr_lines(&doc)?,
            }),
            other => Err(format!("bad `frame` discriminator {other:?}")),
        }
    }

    /// Folds one complete frame sequence back into the [`Response`] a
    /// non-streamed request would have returned: `seq` must run `0..=n`
    /// without gaps, every frame must share one id, and the single `end`
    /// frame must come last. The result is byte-identical whatever the
    /// chunk granularity was.
    pub fn reassemble(frames: &[Frame]) -> Result<Response, String> {
        let mut stdout = String::new();
        let mut terminal = None;
        for (i, frame) in frames.iter().enumerate() {
            let (id, seq) = match frame {
                Frame::Chunk { id, seq, .. } | Frame::End { id, seq, .. } => (id, *seq),
            };
            if seq != i as u64 {
                return Err(format!("frame {i} carries seq {seq} (dropped line?)"));
            }
            match frames.first() {
                Some(Frame::Chunk { id: first, .. } | Frame::End { id: first, .. })
                    if first != id =>
                {
                    return Err(format!("frame {i} switches id {first:?} -> {id:?}"));
                }
                _ => {}
            }
            match frame {
                Frame::Chunk { stdout: piece, .. } => {
                    if terminal.is_some() {
                        return Err(format!("chunk frame {i} after the end frame"));
                    }
                    stdout.push_str(piece);
                }
                Frame::End {
                    id,
                    exit_code,
                    cached,
                    stderr,
                    ..
                } => {
                    if terminal.is_some() {
                        return Err(format!("second end frame at {i}"));
                    }
                    terminal = Some(Response {
                        id: id.clone(),
                        exit_code: *exit_code,
                        cached: *cached,
                        stdout: String::new(),
                        stderr: stderr.clone(),
                    });
                }
            }
        }
        let mut response = terminal.ok_or("frame sequence has no end frame")?;
        response.stdout = stdout;
        Ok(response)
    }
}

/// Parses one serve request line (a [`REQUEST_SCHEMA`] document).
///
/// ```json
/// {"id":"r1","command":"check","files":["a.hhl"],"jobs":4,
///  "cache":{"dir":".hhl-cache","fresh":false,"no_cache":false},
///  "report":"text","session":null}
/// ```
///
/// Every field except `command` is optional and defaults to the one-shot
/// CLI's flagless behavior.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = parse_json(line)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("request must be a JSON object".to_owned());
    }
    let action = match doc.get("command") {
        Some(Json::Str(name)) => {
            Action::from_name(name).ok_or_else(|| format!("unknown command {name:?}"))?
        }
        Some(other) => return Err(format!("`command` must be a string, got {other:?}")),
        None => return Err("request needs a `command`".to_owned()),
    };
    let mut req = Request::new(action, Vec::new());
    match doc.get("id") {
        Some(Json::Str(id)) => req.id = id.clone(),
        Some(other) => return Err(format!("`id` must be a string, got {other:?}")),
        None => {}
    }
    match doc.get("files") {
        Some(Json::Arr(items)) => {
            for item in items {
                match item {
                    Json::Str(path) => req.files.push(path.clone()),
                    other => return Err(format!("`files` entries must be strings, got {other:?}")),
                }
            }
        }
        Some(other) => return Err(format!("`files` must be an array, got {other:?}")),
        None => {}
    }
    match doc.get("jobs") {
        Some(Json::Num(n)) => match n.parse::<usize>() {
            Ok(n) if n > 0 => req.jobs = Some(n),
            _ => return Err(format!("bad `jobs` value {n:?} (need a positive integer)")),
        },
        Some(Json::Null) | None => {}
        Some(other) => return Err(format!("`jobs` must be a number, got {other:?}")),
    }
    match doc.get("cache") {
        Some(cache @ Json::Obj(_)) => {
            match cache.get("dir") {
                Some(Json::Str(dir)) => req.cache.dir = Some(dir.clone()),
                Some(Json::Null) | None => {}
                Some(other) => return Err(format!("`cache.dir` must be a string, got {other:?}")),
            }
            if let Some(Json::Bool(fresh)) = cache.get("fresh") {
                req.cache.fresh = *fresh;
            }
            if let Some(Json::Bool(no_cache)) = cache.get("no_cache") {
                req.cache.use_cache = !no_cache;
            }
        }
        Some(other) => return Err(format!("`cache` must be an object, got {other:?}")),
        None => {}
    }
    match doc.get("report") {
        Some(Json::Str(format)) if format == "json" => req.report_json = true,
        Some(Json::Str(format)) if format == "text" => {}
        Some(other) => return Err(format!("bad `report` format {other:?} (json or text)")),
        None => {}
    }
    match doc.get("session") {
        Some(Json::Str(name)) => req.session = Some(name.clone()),
        Some(Json::Null) | None => {}
        Some(other) => return Err(format!("`session` must be a string, got {other:?}")),
    }
    for (key, slot) in [("keep", &mut req.gc_keep), ("memo", &mut req.gc_memo)] {
        match doc.get(key) {
            Some(Json::Num(n)) => match n.parse::<usize>() {
                Ok(n) => *slot = Some(n),
                Err(_) => return Err(format!("bad `{key}` value {n:?}")),
            },
            Some(Json::Null) | None => {}
            Some(other) => return Err(format!("`{key}` must be a number, got {other:?}")),
        }
    }
    match doc.get("stream") {
        Some(Json::Bool(stream)) => req.stream = *stream,
        Some(Json::Null) | None => {}
        Some(other) => return Err(format!("`stream` must be a boolean, got {other:?}")),
    }
    Ok(req)
}

/// The in-memory memo caches an [`Engine`] keeps warm across requests and
/// threads through [`BatchOptions::shared`].
#[derive(Clone)]
pub struct EngineCaches {
    /// Extended-semantics memo cache.
    pub sem: Arc<SemCache>,
    /// Assertion-evaluation memo cache.
    pub eval: Arc<EvalCache>,
}

impl EngineCaches {
    /// A fresh, empty pair.
    pub fn fresh() -> EngineCaches {
        EngineCaches {
            sem: Arc::new(SemCache::new()),
            eval: Arc::new(EvalCache::new()),
        }
    }
}

impl std::fmt::Debug for EngineCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCaches").finish_non_exhaustive()
    }
}

/// The persistent engine's bounded response cache: rendered responses
/// keyed by request fingerprint, evicted by *last hit* once the cap is
/// reached. A lookup refreshes the entry's recency, so steadily repeated
/// requests survive any number of one-off requests streaming past the cap
/// (the previous behaviour — clearing the whole table on overflow — threw
/// away all warm entries the moment one extra request arrived).
struct ResponseCache {
    entries: HashMap<u128, (Response, u64)>,
    /// Logical clock advanced on every hit and insertion; the entry with
    /// the smallest stamp is the eviction victim.
    clock: u64,
    cap: usize,
    evictions: u64,
}

impl ResponseCache {
    fn new(cap: usize) -> ResponseCache {
        ResponseCache {
            entries: HashMap::new(),
            clock: 0,
            cap,
            evictions: 0,
        }
    }

    /// Looks up a response, refreshing its hit recency.
    fn hit(&mut self, key: u128) -> Option<&Response> {
        self.clock += 1;
        let stamp = self.clock;
        self.entries.get_mut(&key).map(|(response, last_hit)| {
            *last_hit = stamp;
            &*response
        })
    }

    /// Inserts (or refreshes) a response, evicting the least-recently-hit
    /// entry when the table is full. The scan is linear, but runs only on
    /// overflow of a small bounded table — no LRU list to keep in sync.
    fn insert(&mut self, key: u128, response: Response) {
        if self.entries.len() >= self.cap && !self.entries.contains_key(&key) {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, last_hit))| *last_hit)
                .map(|(key, _)| *key);
            if let Some(victim) = victim {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.clock += 1;
        self.entries.insert(key, (response, self.clock));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops every entry (`gc`), returning how many were held. The
    /// evictions counter is lifetime telemetry and survives the clear.
    fn clear(&mut self) -> usize {
        let held = self.entries.len();
        self.entries.clear();
        held
    }
}

/// One daemon session: an isolated interner arena plus private memo
/// caches. Dropping the state (on `end-session`) releases both; the arena's
/// overlay entries are reclaimed as soon as no request pin is live.
struct SessionState {
    _arena: SessionArena,
    caches: EngineCaches,
}

/// The execution context shared by the one-shot CLI and `hhl serve`.
///
/// See the [module docs](self) for the transport contract. All shared
/// state is internally synchronized: `&Engine` is enough to serve
/// concurrent requests (the socket transport runs one thread per client).
pub struct Engine {
    /// Persistent engines keep caches warm across requests and may answer
    /// repeated requests from the response cache; one-shot engines run
    /// every request from scratch, exactly like the classic CLI.
    persistent: bool,
    /// `false` when the engine itself was started with `--no-cache`:
    /// disables cross-request warmth and the response cache, leaving each
    /// request to its own flags.
    share: bool,
    caches: EngineCaches,
    /// The daemon's own store (memo-snapshot warming at startup, snapshot
    /// save on shutdown, `gc`). Per-request verdict/obligation stores are
    /// opened per request from the request's own flags.
    store: Option<Arc<VerdictStore>>,
    /// Daemon-lifetime telemetry: request-loop stages recorded by the
    /// serve transport plus per-run stage totals folded in after every
    /// non-cached verification.
    metrics: MetricsRegistry,
    responses: Mutex<ResponseCache>,
    sessions: Mutex<HashMap<String, SessionState>>,
    requests: AtomicU64,
    response_hits: AtomicU64,
    /// Which executor runs this engine's fan-out phases. `Resident` (the
    /// default) submits every request to the process-resident
    /// [`WorkerPool`](hhl_driver::WorkerPool) — for a persistent engine
    /// that pool is the daemon's for its whole lifetime, so concurrent
    /// socket connections execute against shared parked workers instead of
    /// each spinning up private bursts. `Burst` is the differential
    /// baseline ([`Engine::set_scheduler`]).
    scheduler: Scheduler,
}

impl Engine {
    /// The classic CLI context: fresh caches per request, no response
    /// cache, no daemon store.
    pub fn one_shot() -> Engine {
        Engine {
            persistent: false,
            share: false,
            caches: EngineCaches::fresh(),
            store: None,
            metrics: MetricsRegistry::new(),
            responses: Mutex::new(ResponseCache::new(RESPONSE_CACHE_MAX_ENTRIES)),
            sessions: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            response_hits: AtomicU64::new(0),
            scheduler: Scheduler::Resident,
        }
    }

    /// Overrides which executor runs this engine's fan-out phases. Output
    /// is byte-identical either way (the differential suites assert it);
    /// production engines keep the default `Resident`.
    pub fn set_scheduler(&mut self, scheduler: Scheduler) {
        self.scheduler = scheduler;
    }

    /// The daemon context: opens (or creates) the persistent store at
    /// `cache.dir` (default [`DEFAULT_CACHE_DIR`]) and warms the shared
    /// memo cache from its snapshot once. Returns startup warnings (an
    /// unopenable store costs the warm start, never the daemon).
    pub fn persistent(cache: &CacheOpts) -> (Engine, Vec<String>) {
        let mut warnings = Vec::new();
        let mut engine = Engine::one_shot();
        engine.persistent = true;
        engine.share = cache.use_cache;
        if cache.use_cache {
            let dir = cache
                .dir
                .clone()
                .unwrap_or_else(|| DEFAULT_CACHE_DIR.to_owned());
            match VerdictStore::open(&dir, cache.fresh) {
                Ok(store) => {
                    let start = Instant::now();
                    if !cache.fresh {
                        if let Some(blob) = store.load_memo() {
                            engine.caches.sem.import_snapshot(&blob);
                        }
                    }
                    engine
                        .metrics
                        .record_stage(Stage::Snapshot, start.elapsed().as_nanos() as u64);
                    engine.store = Some(Arc::new(store));
                }
                Err(e) => warnings.push(format!(
                    "warning: cannot open cache dir {dir}: {e}; continuing without \
                     a persistent cache"
                )),
            }
        }
        (engine, warnings)
    }

    /// The daemon-lifetime metrics registry (the serve transport records
    /// its accept/decode/dispatch/respond stages here).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Exports the engine's memo cache into its store (shutdown, `gc`).
    /// No-op without a store, or when the snapshot on disk is already
    /// byte-identical.
    pub fn save_state(&self) {
        if let Some(store) = &self.store {
            let start = Instant::now();
            let (blob, stats) = self.caches.sem.export_snapshot(MEMO_SNAPSHOT_MAX_ENTRIES);
            if !stats.unchanged {
                store.save_memo(&blob);
            }
            self.metrics
                .record_stage(Stage::Snapshot, start.elapsed().as_nanos() as u64);
        }
    }

    /// Handles one request end-to-end and returns the complete response.
    /// Never panics on bad input: usage-level problems come back as
    /// exit-code-2 responses, mirroring the CLI.
    pub fn handle(&self, req: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.dispatch(req)
    }

    /// Handles one request as a stream of [`Frame`]s: `emit` receives the
    /// stdout chunks as they render (one per file on the full-report
    /// commands) and finally exactly one end frame. Reassembling the
    /// frames yields byte-for-byte the [`Engine::handle`] response for
    /// the same request, but a huge batch never materializes its whole
    /// report as one string. Streamed responses are never *inserted* into
    /// the response cache (that would re-buffer them); they still answer
    /// from an existing cached entry.
    pub fn handle_stream(&self, req: &Request, emit: &mut dyn FnMut(Frame)) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match req.action {
            Action::Check | Action::Prove | Action::Verify | Action::Replay | Action::Batch => {
                self.verify_stream(req, emit);
            }
            _ => {
                let response = self.dispatch(req);
                let mut seq = 0;
                if !response.stdout.is_empty() {
                    emit(Frame::Chunk {
                        id: req.id.clone(),
                        seq,
                        stdout: response.stdout,
                    });
                    seq = 1;
                }
                emit(Frame::End {
                    id: req.id.clone(),
                    seq,
                    exit_code: response.exit_code,
                    cached: response.cached,
                    stderr: response.stderr,
                });
            }
        }
    }

    fn dispatch(&self, req: &Request) -> Response {
        match req.action {
            Action::Status => self.status(req),
            Action::Gc => self.gc(req),
            Action::EndSession => self.end_session(req),
            Action::Shutdown => Response {
                id: req.id.clone(),
                exit_code: 0,
                cached: false,
                stdout: "shutting down\n".to_owned(),
                stderr: Vec::new(),
            },
            Action::Check | Action::Prove | Action::Verify | Action::Replay | Action::Batch => {
                self.verify_request(req)
            }
        }
    }

    fn verify_request(&self, req: &Request) -> Response {
        let command = req.action.name();
        if let Err(e) = req.cache.validate(command) {
            return usage(req, &e);
        }
        if req.files.is_empty() {
            return usage(req, &format!("`hhl {command}` needs at least one file"));
        }
        if req.action == Action::Replay && !req.files.len().is_multiple_of(2) {
            return usage(req, "`hhl replay` takes (spec, certificate) pairs");
        }
        if let Some(name) = &req.session {
            let caches = {
                let mut sessions = self.sessions.lock().unwrap();
                sessions
                    .entry(name.clone())
                    .or_insert_with(|| SessionState {
                        _arena: begin_session(),
                        caches: EngineCaches::fresh(),
                    })
                    .caches
                    .clone()
            };
            // Sessions are fully isolated: private caches, no persistent
            // store (verdicts computed from a hostile certificate must not
            // outlive the session), no response cache.
            return self.execute(req, Some(caches), false);
        }
        let reuse = self.persistent && self.share && req.cache.use_cache;
        let key = (reuse && !req.cache.fresh).then(|| response_key(req));
        if let Some(key) = key {
            if let Some(hit) = self.responses.lock().unwrap().hit(key) {
                self.response_hits.fetch_add(1, Ordering::Relaxed);
                let mut response = hit.clone();
                response.id = req.id.clone();
                response.cached = true;
                return response;
            }
        }
        let shared = reuse.then(|| self.caches.clone());
        let response = self.execute(req, shared, true);
        if let Some(key) = key {
            self.responses.lock().unwrap().insert(key, response.clone());
        }
        response
    }

    /// [`Engine::verify_request`] in streaming form: identical
    /// validation, session and cache-hit logic, but stdout leaves as one
    /// chunk frame per rendered piece instead of one buffered response.
    fn verify_stream(&self, req: &Request, emit: &mut dyn FnMut(Frame)) {
        let finish = |seq: u64, exit: u8, cached: bool, stderr: Vec<String>| Frame::End {
            id: req.id.clone(),
            seq,
            exit_code: exit,
            cached,
            stderr,
        };
        let command = req.action.name();
        if let Err(e) = req.cache.validate(command) {
            return emit(finish(0, 2, false, vec![format!("error: {e}")]));
        }
        if req.files.is_empty() {
            let message = format!("error: `hhl {command}` needs at least one file");
            return emit(finish(0, 2, false, vec![message]));
        }
        if req.action == Action::Replay && !req.files.len().is_multiple_of(2) {
            let message = "error: `hhl replay` takes (spec, certificate) pairs".to_owned();
            return emit(finish(0, 2, false, vec![message]));
        }
        let session_caches = req.session.as_ref().map(|name| {
            let mut sessions = self.sessions.lock().unwrap();
            sessions
                .entry(name.clone())
                .or_insert_with(|| SessionState {
                    _arena: begin_session(),
                    caches: EngineCaches::fresh(),
                })
                .caches
                .clone()
        });
        let (shared, allow_store) = match session_caches {
            Some(caches) => (Some(caches), false),
            None => {
                let reuse = self.persistent && self.share && req.cache.use_cache;
                let key = (reuse && !req.cache.fresh).then(|| response_key(req));
                if let Some(key) = key {
                    let hit = self.responses.lock().unwrap().hit(key).cloned();
                    if let Some(hit) = hit {
                        self.response_hits.fetch_add(1, Ordering::Relaxed);
                        let mut seq = 0;
                        if !hit.stdout.is_empty() {
                            emit(Frame::Chunk {
                                id: req.id.clone(),
                                seq,
                                stdout: hit.stdout,
                            });
                            seq = 1;
                        }
                        return emit(finish(seq, hit.exit_code, true, hit.stderr));
                    }
                }
                (reuse.then(|| self.caches.clone()), true)
            }
        };
        let mut seq = 0u64;
        let (exit_code, stderr) = self.execute_into(req, shared, allow_store, &mut |piece| {
            if !piece.is_empty() {
                emit(Frame::Chunk {
                    id: req.id.clone(),
                    seq,
                    stdout: piece.to_owned(),
                });
                seq += 1;
            }
        });
        emit(finish(seq, exit_code, false, stderr));
    }

    /// Runs a verification request for real, buffering the streamed
    /// chunks into one [`Response`]. `shared` supplies warm memo caches
    /// (engine-wide or session-scoped); `allow_store` is `false` for
    /// session requests.
    fn execute(&self, req: &Request, shared: Option<EngineCaches>, allow_store: bool) -> Response {
        let mut stdout = String::new();
        let (exit_code, stderr) = self.execute_into(req, shared, allow_store, &mut |piece| {
            stdout.push_str(piece)
        });
        Response {
            id: req.id.clone(),
            exit_code,
            cached: false,
            stdout,
            stderr,
        }
    }

    /// The execution core: runs the request and hands every rendered
    /// stdout piece to `sink` in order (for the full-report commands, one
    /// piece per file — the streaming granularity). Returns the exit code
    /// and the stderr lines, which only exist in full once the run ends.
    fn execute_into(
        &self,
        req: &Request,
        shared: Option<EngineCaches>,
        allow_store: bool,
        sink: &mut dyn FnMut(&str),
    ) -> (u8, Vec<String>) {
        let mut warnings = Vec::new();
        let mut open = |dir: &str, fresh: bool| -> Option<Arc<VerdictStore>> {
            match VerdictStore::open(dir, fresh) {
                Ok(store) => Some(Arc::new(store)),
                Err(e) => {
                    warnings.push(format!(
                        "warning: cannot open cache dir {dir}: {e}; continuing without \
                         a persistent cache"
                    ));
                    None
                }
            }
        };
        let want_store = allow_store && req.cache.use_cache;
        // Store roles per action: `batch` gets the full set (verdict,
        // obligation and memo records in one directory); the full-report
        // commands only take what can rebuild full output — the memo
        // snapshot for spec runs, obligation/summary records for replay.
        // Verdict records are excluded there: they carry verdicts, not
        // rendered reports. A persistent engine's own memo cache is warmed
        // from its store once, so per-request memo import is skipped.
        let (store, oblig_store, memo_store) = match req.action {
            Action::Batch if want_store => {
                let dir = req
                    .cache
                    .dir
                    .clone()
                    .unwrap_or_else(|| DEFAULT_CACHE_DIR.to_owned());
                let handle = open(&dir, req.cache.fresh);
                let memo = if self.persistent {
                    None
                } else {
                    handle.clone()
                };
                (handle.clone(), handle, memo)
            }
            Action::Check | Action::Prove | Action::Verify if want_store => {
                let memo = match &req.cache.dir {
                    Some(dir) if !self.persistent => open(dir, req.cache.fresh),
                    _ => None,
                };
                (None, None, memo)
            }
            Action::Replay if want_store => {
                let oblig = match &req.cache.dir {
                    Some(dir) => open(dir, req.cache.fresh),
                    None => None,
                };
                (None, oblig, None)
            }
            _ => (None, None, None),
        };
        let force_mode = match req.action {
            Action::Prove => Some(Mode::Prove),
            Action::Verify => Some(Mode::Verify),
            _ => None,
        };
        if req.action == Action::Replay && req.files.len() == 2 && !req.report_json {
            return self.replay_single(req, oblig_store.as_deref(), warnings, sink);
        }
        let opts = BatchOptions {
            jobs: req.jobs.unwrap_or_else(|| match req.action {
                Action::Batch => default_jobs(),
                _ => 1,
            }),
            force_mode,
            use_cache: req.cache.use_cache,
            store,
            oblig_store,
            memo_store: memo_store.clone(),
            shared,
            scheduler: self.scheduler,
        };
        let run = match req.action {
            Action::Replay => {
                let pairs: Vec<(String, String)> = req
                    .files
                    .chunks_exact(2)
                    .map(|pair| (pair[0].clone(), pair[1].clone()))
                    .collect();
                run_replay_batch(&pairs, &opts)
            }
            _ => run_batch(&req.files, &opts),
        };
        self.merge_run_metrics(&run);
        let (mut stderr, exit_code) = if req.report_json {
            let (stdout, stderr, exit_code) = render_report_doc(&run);
            sink(&stdout);
            (stderr, exit_code)
        } else {
            match req.action {
                Action::Batch => {
                    let (stdout, stderr, exit_code) = render_batch(&run);
                    sink(&stdout);
                    (stderr, exit_code)
                }
                Action::Replay => {
                    let headers: Vec<String> = req
                        .files
                        .chunks_exact(2)
                        .map(|pair| format!("{} ⊢ {}", pair[0], pair[1]))
                        .collect();
                    let (mut stderr, exit_code) = render_full(&run, Some(&headers), sink);
                    stderr.extend(run.counter_lines());
                    (stderr, exit_code)
                }
                _ => {
                    let (mut stderr, exit_code) = render_full(&run, None, sink);
                    // Counters only when asked for parallel/cached
                    // machinery — the flagless commands keep their classic
                    // quiet stderr.
                    if req.jobs.is_some() || memo_store.is_some() {
                        stderr.extend(run.counter_lines());
                    }
                    (stderr, exit_code)
                }
            }
        };
        stderr.splice(0..0, warnings);
        (exit_code, stderr)
    }

    /// The single-pair replay path, bit-compatible with classic
    /// `hhl replay <spec> <proof>`: one header, one outcome, shard
    /// counters only when sharding happened.
    fn replay_single(
        &self,
        req: &Request,
        store: Option<&VerdictStore>,
        warnings: Vec<String>,
        sink: &mut dyn FnMut(&str),
    ) -> (u8, Vec<String>) {
        let (spec_path, proof_path) = (&req.files[0], &req.files[1]);
        let mut stdout = String::new();
        let mut stderr = warnings;
        let mut all_expected = true;
        let mut hard_error = false;
        let _ = writeln!(stdout, "== {spec_path} ⊢ {proof_path}");
        let parse_start = Instant::now();
        let spec = match load_spec_text(spec_path) {
            Ok(spec) => Some(spec),
            Err(e) => {
                stderr.push(format!("error: {e}"));
                hard_error = true;
                None
            }
        };
        let certificate = match std::fs::read_to_string(proof_path) {
            Ok(text) => Some(text),
            Err(e) => {
                stderr.push(format!("error: cannot read {proof_path}: {e}"));
                hard_error = true;
                None
            }
        };
        if self.persistent {
            self.metrics
                .record_stage(Stage::Parse, parse_start.elapsed().as_nanos() as u64);
        }
        if let (Some(spec), Some(certificate)) = (&spec, &certificate) {
            let counters = ShardCounters::new();
            let check_start = Instant::now();
            match crate::shard::run_replay_sharded(
                spec,
                certificate,
                req.jobs.unwrap_or(1),
                self.scheduler,
                store,
                &counters,
            ) {
                Ok(outcome) => {
                    let _ = writeln!(stdout, "{outcome}");
                    all_expected &= outcome.as_expected;
                }
                Err(e) => {
                    stderr.push(format!("error: {proof_path}: {e}"));
                    hard_error = true;
                }
            }
            if self.persistent {
                self.metrics
                    .record_stage(Stage::Check, check_start.elapsed().as_nanos() as u64);
            }
            let stats = counters.snapshot();
            if stats.any() {
                stderr.push(shard_counter_line(&stats));
            }
        }
        sink(&stdout);
        (exit_code(all_expected, hard_error), stderr)
    }

    /// Folds one run's per-stage totals into the daemon-lifetime registry
    /// so `status` reflects cumulative parse/check/… time across requests.
    fn merge_run_metrics(&self, run: &BatchRun) {
        if !self.persistent {
            return;
        }
        for agg in &run.metrics.snapshot().stages {
            if let Some(stage) = Stage::ALL.iter().copied().find(|s| s.name() == agg.stage) {
                self.metrics
                    .record_stage(stage, agg.timing.total_ns() as u64);
            }
        }
    }

    fn status(&self, req: &Request) -> Response {
        let mut stdout = String::new();
        let _ = writeln!(stdout, "hhl serve status");
        let _ = writeln!(
            stdout,
            "requests: {}",
            self.requests.load(Ordering::Relaxed)
        );
        let (entries, evictions) = {
            let responses = self.responses.lock().unwrap();
            (responses.len(), responses.evictions())
        };
        let _ = writeln!(
            stdout,
            "response-cache: entries={} hits={} evictions={}",
            entries,
            self.response_hits.load(Ordering::Relaxed),
            evictions
        );
        let _ = writeln!(stdout, "sessions: {}", self.sessions.lock().unwrap().len());
        let memo = self.caches.sem.stats();
        let _ = writeln!(
            stdout,
            "memo: entries={} pending={} hits={} misses={}",
            memo.entries, memo.pending, memo.hits, memo.misses
        );
        let sizes = intern_sizes();
        let _ = writeln!(
            stdout,
            "interner: symbols={} cmds={} exprs={} overlay-symbols={} overlay-cmds={} \
             overlay-exprs={}",
            sizes.symbols,
            sizes.cmds,
            sizes.exprs,
            sizes.overlay_symbols,
            sizes.overlay_cmds,
            sizes.overlay_exprs
        );
        let snapshot = self.metrics.snapshot();
        for stage in Stage::ALL {
            let samples = snapshot
                .stages
                .iter()
                .find(|agg| agg.stage == stage.name())
                .map(|agg| agg.timing.count())
                .unwrap_or(0);
            let _ = writeln!(stdout, "stage {}: samples={}", stage.name(), samples);
        }
        Response {
            id: req.id.clone(),
            exit_code: 0,
            cached: false,
            stdout,
            stderr: Vec::new(),
        }
    }

    fn gc(&self, req: &Request) -> Response {
        if let Err(e) = req.cache.validate("gc") {
            return usage(req, &e);
        }
        if !req.cache.use_cache {
            return usage(req, "gc needs the persistent store; drop --no-cache");
        }
        let keep = req.gc_keep.unwrap_or(DEFAULT_GC_KEEP_RECORDS);
        let memo_cap = req.gc_memo.unwrap_or(MEMO_SNAPSHOT_MAX_ENTRIES);
        let mut stderr = Vec::new();
        let store = match &self.store {
            Some(store) => Some(store.clone()),
            None => {
                let dir = req
                    .cache
                    .dir
                    .clone()
                    .unwrap_or_else(|| DEFAULT_CACHE_DIR.to_owned());
                match VerdictStore::open(&dir, false) {
                    Ok(store) => Some(Arc::new(store)),
                    Err(e) => {
                        stderr.push(format!("error: cannot open cache dir {dir}: {e}"));
                        None
                    }
                }
            }
        };
        let Some(store) = store else {
            return Response {
                id: req.id.clone(),
                exit_code: 2,
                cached: false,
                stdout: String::new(),
                stderr,
            };
        };
        let stats = store.gc(keep);
        // Re-cap the memo snapshot: a persistent engine exports its own
        // (already cost-ranked) cache; one-shot gc rebuilds the ranking
        // from the stored blob so eviction keeps the most expensive
        // entries to recompute.
        let exported = if self.persistent {
            Some(self.caches.sem.export_snapshot(memo_cap))
        } else {
            store.load_memo().map(|blob| {
                let scratch = SemCache::new();
                scratch.import_snapshot(&blob);
                scratch.export_snapshot(memo_cap)
            })
        };
        let memo = match exported {
            Some((blob, memo)) => {
                if !memo.unchanged {
                    store.save_memo(&blob);
                }
                memo
            }
            None => MemoSnapshotStats::default(),
        };
        let mut stdout = String::new();
        let _ = writeln!(stdout, "gc: {stats}");
        let _ = writeln!(
            stdout,
            "memo: exported={} evicted={}",
            memo.exported, memo.evicted
        );
        if self.persistent {
            let cleared = self.responses.lock().unwrap().clear();
            let _ = writeln!(stdout, "response-cache: cleared {cleared} entries");
        }
        Response {
            id: req.id.clone(),
            exit_code: 0,
            cached: false,
            stdout,
            stderr,
        }
    }

    fn end_session(&self, req: &Request) -> Response {
        let Some(name) = &req.session else {
            return usage(req, "end-session needs a `session` name");
        };
        let removed = self.sessions.lock().unwrap().remove(name).is_some();
        let (stdout, exit_code) = if removed {
            (format!("session {name}: closed\n"), 0)
        } else {
            (format!("session {name}: not found\n"), 2)
        };
        Response {
            id: req.id.clone(),
            exit_code,
            cached: false,
            stdout,
            stderr: Vec::new(),
        }
    }
}

/// The classic exit-code contract: 2 on any hard error, 1 on unexpected
/// verdicts, 0 otherwise.
fn exit_code(all_expected: bool, hard_error: bool) -> u8 {
    if hard_error {
        2
    } else if all_expected {
        0
    } else {
        1
    }
}

/// Default worker count for `hhl batch`: the machine's hardware threads.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Formats replay shard accounting as the unified `[shard] key=value ...`
/// counter line (single-pair `hhl replay`; the batch path emits the same
/// line through the metrics registry).
pub fn shard_counter_line(stats: &ShardStats) -> String {
    let pairs = [
        ("shards".to_owned(), stats.total),
        ("distinct".to_owned(), stats.distinct),
        ("cached".to_owned(), stats.cached),
        ("re-checked".to_owned(), stats.rechecked),
        ("written".to_owned(), stats.written),
        ("summary-hits".to_owned(), stats.summaries),
    ];
    counter_line("shard", &pairs)
}

fn load_spec_text(path: &str) -> Result<Spec, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_spec(&src).map_err(|e| format!("{path}: {e}"))
}

fn usage(req: &Request, message: &str) -> Response {
    Response {
        id: req.id.clone(),
        exit_code: 2,
        cached: false,
        stdout: String::new(),
        stderr: vec![format!("error: {message}")],
    }
}

/// Renders per-file results in the full sequential format: `== path`
/// headers, outcome reports on stdout, errors on stderr, blank lines
/// between files — byte-identical to the classic streaming loop. Each
/// file's rendering goes to `sink` as one piece (the streaming chunk
/// granularity); buffering callers just concatenate.
fn render_full(
    run: &BatchRun,
    headers: Option<&[String]>,
    sink: &mut dyn FnMut(&str),
) -> (Vec<String>, u8) {
    let mut stderr = Vec::new();
    let mut all_expected = true;
    let mut hard_error = false;
    for (i, result) in run.results.iter().enumerate() {
        let mut piece = String::new();
        if i > 0 {
            let _ = writeln!(piece);
        }
        match headers {
            Some(headers) => {
                let _ = writeln!(piece, "== {}", headers[i]);
            }
            None => {
                let _ = writeln!(piece, "== {}", result.path);
            }
        }
        if let Some(report) = &result.report_text {
            let _ = writeln!(piece, "{report}");
        }
        sink(&piece);
        if let Some(error) = &result.error_text {
            stderr.push(format!("error: {error}"));
            hard_error = true;
        }
        if let hhl_driver::FileStatus::Unexpected { .. } = result.status {
            all_expected = false;
        }
    }
    (stderr, exit_code(all_expected, hard_error))
}

/// Renders the compact `hhl batch` report plus counter lines.
fn render_batch(run: &BatchRun) -> (String, Vec<String>, u8) {
    let report = run.report();
    let mut stdout = String::new();
    let _ = writeln!(stdout, "{report}");
    (stdout, run.counter_lines(), report.exit_code())
}

/// Renders the structured `hhl-report v1` JSON document plus counter
/// lines (`--report json` on any verification command).
fn render_report_doc(run: &BatchRun) -> (String, Vec<String>, u8) {
    let mut stdout = String::new();
    let _ = writeln!(
        stdout,
        "{}",
        hhl_driver::metrics::render_report(&run.report_doc()).trim_end()
    );
    (stdout, run.counter_lines(), run.report().exit_code())
}

/// The response-cache key: a stable fingerprint over everything that can
/// change the response bytes — the action, the report format, the cache
/// flags, and each input file's path *and current contents* (an edited
/// file must miss). `jobs` is deliberately excluded: stdout and the exit
/// code are jobs-invariant by contract, which is exactly what the cache
/// returns.
fn response_key(req: &Request) -> u128 {
    let mut hasher = StableHasher::new();
    hasher.write_str(RESPONSE_SCHEMA);
    hasher.write_u8(req.action.tag());
    hasher.write_u8(req.report_json as u8);
    hasher.write_u8(req.cache.use_cache as u8);
    hasher.write_u8(req.cache.fresh as u8);
    hasher.write_str(req.cache.dir.as_deref().unwrap_or(""));
    hasher.write_usize(req.files.len());
    for path in &req.files {
        hasher.write_str(path);
        match std::fs::read_to_string(path) {
            Ok(contents) => {
                hasher.write_u8(1);
                hasher.write_str(&contents);
            }
            Err(e) => {
                hasher.write_u8(0);
                hasher.write_str(&e.to_string());
            }
        }
    }
    hasher.finish().0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_hostile_strings() {
        let hostile = "a\"b\\c\nd\te\u{1}f ⊢ g";
        let response = Response {
            id: hostile.to_owned(),
            exit_code: 2,
            cached: true,
            stdout: format!("{hostile}\n"),
            stderr: vec![hostile.to_owned(), String::new()],
        };
        let parsed = Response::parse(&response.render()).expect("round trip");
        assert_eq!(parsed, response);
    }

    #[test]
    fn request_parser_defaults_match_the_flagless_cli() {
        let req = parse_request(r#"{"command":"check","files":["a.hhl"]}"#).expect("parse");
        assert_eq!(req.action, Action::Check);
        assert_eq!(req.files, vec!["a.hhl".to_owned()]);
        assert_eq!(req.id, "-");
        assert_eq!(req.jobs, None);
        assert_eq!(req.cache, CacheOpts::default());
        assert!(!req.report_json);
        assert_eq!(req.session, None);
    }

    #[test]
    fn request_parser_reads_every_field() {
        let req = parse_request(
            r#"{"id":"r7","command":"batch","files":["a.hhl","b.hhlp"],"jobs":4,
                "cache":{"dir":"/tmp/c","fresh":true,"no_cache":false},
                "report":"json","session":"alice","keep":10,"memo":20}"#,
        )
        .expect("parse");
        assert_eq!(req.id, "r7");
        assert_eq!(req.action, Action::Batch);
        assert_eq!(req.jobs, Some(4));
        assert_eq!(req.cache.dir.as_deref(), Some("/tmp/c"));
        assert!(req.cache.fresh);
        assert!(req.cache.use_cache);
        assert!(req.report_json);
        assert_eq!(req.session.as_deref(), Some("alice"));
        assert_eq!(req.gc_keep, Some(10));
        assert_eq!(req.gc_memo, Some(20));
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("@not json", "unexpected character"),
            ("[]", "must be a JSON object"),
            (r#"{"files":[]}"#, "needs a `command`"),
            (r#"{"command":"frobnicate"}"#, "unknown command"),
            (r#"{"command":"check","jobs":0}"#, "bad `jobs`"),
            (r#"{"command":"check","report":"xml"}"#, "bad `report`"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn cache_opts_validation_matches_the_cli_messages() {
        let conflicted = CacheOpts {
            use_cache: false,
            dir: Some("x".to_owned()),
            fresh: false,
        };
        let err = conflicted.validate("batch").expect_err("conflict");
        assert!(err.contains("--no-cache disables the persistent store"));
        let fresh_only = CacheOpts {
            use_cache: true,
            dir: None,
            fresh: true,
        };
        let err = fresh_only.validate("replay").expect_err("needs dir");
        assert_eq!(err, "--fresh needs --cache-dir on `hhl replay`");
        assert!(fresh_only.validate("batch").is_ok());
    }

    fn canned(tag: &str) -> Response {
        Response {
            id: "-".to_owned(),
            exit_code: 0,
            cached: false,
            stdout: tag.to_owned(),
            stderr: Vec::new(),
        }
    }

    #[test]
    fn response_cache_evicts_by_hit_recency_not_wholesale() {
        let mut cache = ResponseCache::new(3);
        for key in 0..3u128 {
            cache.insert(key, canned(&key.to_string()));
        }
        assert_eq!(cache.len(), 3);
        // Re-hit the oldest *insertion*: recency now protects it.
        assert_eq!(cache.hit(0).map(|r| r.stdout.as_str()), Some("0"));
        // Overflow: the least-recently-hit entry (1) goes; 0 and 2 stay.
        cache.insert(3, canned("3"));
        assert_eq!(cache.len(), 3, "cap unchanged on overflow");
        assert_eq!(cache.evictions(), 1);
        assert!(cache.hit(1).is_none(), "victim was the stalest entry");
        assert!(cache.hit(0).is_some(), "warm entries survive overflow");
        assert!(cache.hit(2).is_some());
        assert!(cache.hit(3).is_some());
    }

    #[test]
    fn response_cache_overflow_keeps_every_warm_entry_past_the_cap() {
        // The production-shaped scenario the old clear-on-full got wrong:
        // a working set of repeated requests must survive a stream of
        // one-off requests pushing the table past its cap over and over.
        let mut cache = ResponseCache::new(RESPONSE_CACHE_MAX_ENTRIES);
        let warm: Vec<u128> = (0..8).collect();
        for &key in &warm {
            cache.insert(key, canned(&key.to_string()));
        }
        let mut one_off = 1000u128;
        for round in 0..4 {
            // Fill to the cap, then push 64 inserts past it.
            while cache.len() < RESPONSE_CACHE_MAX_ENTRIES {
                cache.insert(one_off, canned("x"));
                one_off += 1;
            }
            for &key in &warm {
                assert!(cache.hit(key).is_some(), "round {round}: key {key}");
            }
            for _ in 0..64 {
                cache.insert(one_off, canned("x"));
                one_off += 1;
            }
            assert_eq!(cache.len(), RESPONSE_CACHE_MAX_ENTRIES);
            for &key in &warm {
                assert_eq!(
                    cache.hit(key).map(|r| r.stdout.as_str()),
                    Some(key.to_string().as_str()),
                    "round {round}: warm entry {key} must survive insertion past the cap"
                );
            }
        }
        assert_eq!(cache.evictions(), 4 * 64);
    }

    #[test]
    fn response_cache_refreshes_an_existing_key_without_eviction() {
        let mut cache = ResponseCache::new(2);
        cache.insert(7, canned("old"));
        cache.insert(9, canned("nine"));
        cache.insert(7, canned("new"));
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.evictions(),
            0,
            "re-insert of a held key evicts nothing"
        );
        assert_eq!(cache.hit(7).map(|r| r.stdout.as_str()), Some("new"));
        assert!(cache.hit(9).is_some());
    }

    #[test]
    fn response_cache_clear_reports_and_keeps_lifetime_evictions() {
        let mut cache = ResponseCache::new(2);
        cache.insert(1, canned("a"));
        cache.insert(2, canned("b"));
        cache.insert(3, canned("c"));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.clear(), 2);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.evictions(), 1, "gc clears entries, not telemetry");
    }
}
