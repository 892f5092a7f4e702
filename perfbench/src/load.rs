//! `serve-mixed`'s closed-loop client.
//!
//! Each of [`CONNS`] connections sends its next request only after the
//! previous response has fully arrived — the daemon's real callers (an
//! editor hook, a CI script) each wait for their reply. The request mix
//! is a pure function of the seed and the connection index
//! ([`RequestMix`]); the in-process trace replays the same sequence.
//!
//! Every response is checked: exit code 0, the verdict the reference
//! expects, and stdout byte-identical to the first response seen for the
//! same request (the digest frozen on first sight).
//!
//! One call is cut into [`WINDOWS`] equal windows. Each window opens its
//! own connections, and the daemon's CPU time is read between windows, so
//! the caller can report the median window over several calls, one per
//! daemon lifetime (`--lifetime L` numbers them). On the 2-vCPU machine
//! this benchmark was built on, a daemon's speed differed from one
//! lifetime to the next by up to ~15%; sampling several lifetimes per run
//! keeps whole runs from being fast or slow at random.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hhl_cli::api::{Frame, Response};
use hhl_lang::rng::Rng;

use crate::gen::{corpus_seed, expected_batch_stdout};
use crate::json::{get_strs, num_array, quote, str_array, Obj};
use crate::{read_manifest, Args};

/// `--jobs` of every `hhl` invocation and request: sized for two
/// hardware threads. The traced run replays with the same value.
pub const JOBS: usize = 2;
/// Closed-loop client connections of `serve-mixed`, here and in the
/// traced replay (`serve.transport_ms` compares the two at equal load).
/// One: with two, the two client threads, the daemon's two connection
/// threads and its pool worker shared two hardware threads, and window
/// speeds within one run ranged over 2x (8k–20k verdicts/s).
pub const CONNS: usize = 1;
/// Windows per call.
pub const WINDOWS: usize = 4;
/// Untimed closed loop before the windows, on a connection of its own.
/// A restarted daemon starts with an empty response cache, and without
/// this its first window ran about a quarter slower than the rest.
const WARMUP: Duration = Duration::from_secs(1);
/// Connection index of the warm-up streams: past every window's.
const WARMUP_CONN: usize = 1 << 20;

/// Share of single-file `check` requests and of `batch` requests, in
/// percent; the rest are streamed replays.
const CHECK_PCT: u64 = 85;
const BATCH_PCT: u64 = 10;
/// Files per `batch` request.
const BATCH_FILES: (u64, u64) = (8, 16);

/// One request of the mix, with what its response must show.
pub struct Planned {
    /// The action name (`check`, `batch`, `replay`).
    pub action: &'static str,
    /// The request line, without the trailing newline.
    pub line: String,
    /// Key under which the first response's stdout is frozen.
    pub key: String,
    /// Files judged by this request.
    pub verdicts: usize,
    /// Expected stdout when it is known up front (batch requests).
    pub expected_stdout: Option<String>,
    /// Lines that must appear in stdout (check and replay reports).
    pub expected_lines: Vec<String>,
}

/// The workload's request population and the seeded draw over it.
pub struct RequestMix {
    checks: Vec<(String, String)>,
    files: Vec<(String, String)>,
    pairs: Vec<(String, String)>,
    cache_dir: String,
}

impl RequestMix {
    /// Builds the populations from the workload directory's manifest.
    pub fn load(dir: &Path, seed: u64) -> Result<RequestMix, String> {
        let manifest = read_manifest(dir)?;
        let files = get_strs(&manifest, "files")?;
        let verdicts = get_strs(&manifest, "verdicts")?;
        let modes = get_strs(&manifest, "modes")?;
        let pairs = get_strs(&manifest, "pairs")?;
        let mut checks: Vec<(String, String)> = files
            .iter()
            .zip(&verdicts)
            .zip(&modes)
            .filter(|(_, m)| *m == "check")
            .map(|((f, v), _)| (f.clone(), v.clone()))
            .collect();
        // Popularity follows a seeded order, not file names.
        Rng::seed_from_u64(corpus_seed(seed) ^ 0x504F_5055).shuffle(&mut checks);
        let verdict_of: HashMap<&String, &String> = files.iter().zip(&verdicts).collect();
        let pairs = pairs
            .chunks(2)
            .map(|p| (p[0].clone(), p[1].clone()))
            .filter(|(s, _)| verdict_of.get(s).is_some_and(|v| *v == "PASS"))
            .collect();
        Ok(RequestMix {
            checks,
            files: files.into_iter().zip(verdicts).collect(),
            pairs,
            cache_dir: format!("{}/cache", dir.display()),
        })
    }

    /// Distinct files single-file `check` requests draw from.
    pub fn check_population(&self) -> usize {
        self.checks.len()
    }

    /// The request stream of connection `conn`.
    pub fn stream(&self, seed: u64, conn: usize) -> impl Iterator<Item = Planned> + '_ {
        let mut rng = Rng::seed_from_u64(corpus_seed(seed) ^ (0x434F_4E4E + conn as u64));
        let mut n = 0u64;
        std::iter::from_fn(move || {
            n += 1;
            Some(self.draw(&mut rng, format!("c{conn}-{n}")))
        })
    }

    fn draw(&self, rng: &mut Rng, id: String) -> Planned {
        let roll = rng.gen_below(100);
        if roll < CHECK_PCT {
            // Skewed popularity: density falls off as 1/sqrt(rank), so a
            // head of files repeats while the tail spans more distinct
            // files than the daemon's 512-entry response cache holds.
            let u = rng.next_u64() as f64 / u64::MAX as f64;
            let idx = ((u * u) * self.checks.len() as f64) as usize;
            let (file, verdict) = &self.checks[idx.min(self.checks.len() - 1)];
            Planned {
                action: "check",
                line: Obj::default()
                    .str("id", &id)
                    .str("command", "check")
                    .raw("files", str_array(&[file]))
                    .render(),
                key: format!("check {file}"),
                verdicts: 1,
                expected_stdout: None,
                expected_lines: vec![format!("verdict: {verdict} (as expected)")],
            }
        } else if roll < CHECK_PCT + BATCH_PCT {
            let k = rng.gen_range_inclusive(BATCH_FILES.0, BATCH_FILES.1) as usize;
            let start = rng.gen_below((self.files.len() - k) as u64) as usize;
            let chosen = &self.files[start..start + k];
            let (paths, verdicts): (Vec<String>, Vec<String>) = chosen.iter().cloned().unzip();
            Planned {
                action: "batch",
                line: Obj::default()
                    .str("id", &id)
                    .str("command", "batch")
                    .raw("files", str_array(&paths))
                    .num("jobs", JOBS)
                    .raw("cache", format!("{{\"dir\":{}}}", quote(&self.cache_dir)))
                    .render(),
                key: format!("batch {}", paths.join(" ")),
                verdicts: k,
                expected_stdout: Some(expected_batch_stdout(&paths, &verdicts)),
                expected_lines: Vec::new(),
            }
        } else {
            let (spec, cert) = &self.pairs[rng.gen_index(self.pairs.len())];
            Planned {
                action: "replay",
                line: Obj::default()
                    .str("id", &id)
                    .str("command", "replay")
                    .raw("files", str_array(&[spec, cert]))
                    .num("jobs", JOBS)
                    .raw("stream", "true")
                    .render(),
                key: format!("replay {spec} {cert}"),
                verdicts: 1,
                expected_stdout: None,
                expected_lines: vec!["verdict: PASS (as expected)".to_owned()],
            }
        }
    }
}

/// Checks one reassembled response against its plan and the frozen
/// stdout of earlier identical requests.
pub fn check_response(
    plan: &Planned,
    response: &Response,
    frozen: &Mutex<HashMap<String, String>>,
) -> Result<(), String> {
    if response.exit_code != 0 {
        return Err(format!("{}: exit {}", plan.key, response.exit_code));
    }
    if let Some(expected) = &plan.expected_stdout {
        if &response.stdout != expected {
            return Err(format!("{}: stdout differs from the reference", plan.key));
        }
    }
    for line in &plan.expected_lines {
        if !response.stdout.lines().any(|l| l == line) {
            return Err(format!("{}: missing {line:?}", plan.key));
        }
    }
    let mut frozen = frozen.lock().expect("no panics while held");
    let first = frozen
        .entry(plan.key.clone())
        .or_insert_with(|| response.stdout.clone());
    if *first != response.stdout {
        return Err(format!(
            "{}: stdout changed since its first response",
            plan.key
        ));
    }
    Ok(())
}

/// Reads one complete response: a single document, or chunk frames up to
/// the end frame (reassembled).
fn read_response(reader: &mut impl BufRead, stream: bool) -> Result<Response, String> {
    let mut line = String::new();
    let mut frames = Vec::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-response".to_owned());
        }
        let text = line.trim_end_matches('\n');
        if !stream {
            return Response::parse(text);
        }
        let frame = Frame::parse(text)?;
        let end = matches!(frame, Frame::End { .. });
        frames.push(frame);
        if end {
            return Frame::reassemble(&frames);
        }
    }
}

#[derive(Default)]
struct ConnResult {
    latencies_ms: Vec<f64>,
    attempted: usize,
    completed: usize,
    failed: usize,
    cached: usize,
    verdicts: usize,
    by_action: BTreeMap<&'static str, usize>,
}

impl ConnResult {
    fn merge(&mut self, other: ConnResult) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.cached += other.cached;
        self.verdicts += other.verdicts;
        for (action, n) in other.by_action {
            *self.by_action.entry(action).or_default() += n;
        }
    }
}

fn connection(
    mix: &RequestMix,
    socket: &str,
    seed: u64,
    conn: usize,
    deadline: Instant,
    frozen: &Mutex<HashMap<String, String>>,
) -> Result<ConnResult, String> {
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect {socket}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut out = ConnResult::default();
    for plan in mix.stream(seed, conn) {
        if Instant::now() >= deadline {
            break;
        }
        out.attempted += 1;
        let sent = Instant::now();
        writer
            .write_all(format!("{}\n", plan.line).as_bytes())
            .map_err(|e| e.to_string())?;
        let response = read_response(&mut reader, plan.action == "replay");
        let elapsed = sent.elapsed();
        *out.by_action.entry(plan.action).or_default() += 1;
        match response.and_then(|r| check_response(&plan, &r, frozen).map(|()| r)) {
            Ok(response) => {
                out.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                out.completed += 1;
                out.verdicts += plan.verdicts;
                out.cached += usize::from(response.cached);
            }
            Err(e) => {
                eprintln!("request {} failed: {e}", plan.key);
                out.failed += 1;
            }
        }
    }
    Ok(out)
}

/// utime + stime of process `pid`, in clock ticks.
fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read the daemon's CPU time: {e}"))?;
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (field(11), field(12)) {
        (Some(utime), Some(stime)) => Ok(utime + stime),
        _ => Err(format!("malformed /proc/{pid}/stat")),
    }
}

/// `serve-load`: runs the closed loop against the daemon `--pid`, after a
/// warm-up whose responses are checked but not timed, and prints, per
/// window, its wall time, the daemon's CPU ticks, the files judged and the
/// request latencies.
pub fn run(args: &Args) -> Result<(String, bool), String> {
    let dir = Path::new(args.get("dir")?);
    let socket = args.get("socket")?;
    let seconds: f64 = args.num("seconds")?;
    let seed: u64 = args.num("seed")?;
    let pid: u32 = args.num("pid")?;
    let first_window = args.num::<usize>("lifetime")? * WINDOWS;
    let mix = RequestMix::load(dir, seed)?;
    let frozen = Mutex::new(HashMap::new());
    let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let warm = connection(
        &mix,
        socket,
        seed,
        WARMUP_CONN + first_window,
        Instant::now() + WARMUP,
        &frozen,
    )?;
    // Warm-up requests count as attempted, and as failed when wrong.
    let mut total = ConnResult {
        attempted: warm.attempted,
        failed: warm.failed,
        ..ConnResult::default()
    };
    let mut windows = Vec::new();
    for k in 0..WINDOWS {
        let start = Instant::now();
        let ticks = cpu_ticks(pid)?;
        // Every window draws its own request streams, so no window
        // replays another's requests.
        let results: Vec<Result<ConnResult, String>> = std::thread::scope(|scope| {
            let window_index = first_window + k;
            let handles: Vec<_> = (window_index * CONNS..(window_index + 1) * CONNS)
                .map(|conn| {
                    let (mix, frozen) = (&mix, &frozen);
                    scope.spawn(move || connection(mix, socket, seed, conn, start + window, frozen))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
                })
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let ticks = cpu_ticks(pid)? - ticks;
        let mut w = ConnResult::default();
        for result in results {
            w.merge(result?);
        }
        windows.push(
            Obj::default()
                .num("wall_s", wall)
                .num("cpu_ticks", ticks)
                .num("verdicts", w.verdicts)
                .raw("latencies_ms", num_array(&w.latencies_ms))
                .render(),
        );
        total.merge(w);
    }
    let by_action = Obj(total
        .by_action
        .into_iter()
        .map(|(a, n)| (a.to_owned(), n.to_string()))
        .collect());
    // Failed requests are counted, not fatal: the caller reports them.
    Ok((
        Obj::default()
            .num("attempted", total.attempted)
            .num("completed", total.completed)
            .num("failed", total.failed)
            .num("cached", total.cached)
            .num("verdicts", total.verdicts)
            .num("distinct_check_files", mix.check_population())
            .raw("by_action", by_action.render())
            .raw("windows", format!("[{}]", windows.join(",")))
            .render(),
        true,
    ))
}
