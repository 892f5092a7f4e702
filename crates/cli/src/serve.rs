//! `hhl serve`: the persistent verification daemon.
//!
//! Reads newline-delimited [`REQUEST_SCHEMA`](crate::api::REQUEST_SCHEMA)
//! JSON documents — from stdin by default, or from a unix socket with
//! `--socket PATH` — and answers each with a single-line
//! [`RESPONSE_SCHEMA`](crate::api::RESPONSE_SCHEMA) document, all against
//! one warm [`Engine`]: the shared semantics/assertion memo caches, the
//! persistent verdict store and the bounded response cache live for the
//! whole daemon, so a request repeated against unchanged files is answered
//! with zero parse/elaborate/check work and byte-identical output.
//!
//! The request loop itself is metered into the daemon's registry — accept
//! (blocking on input), decode (request parse), dispatch (engine work),
//! respond (render + write) — and surfaces through the `status` command
//! next to the cumulative verification stages.
//!
//! Shutdown (`{"command":"shutdown"}`, or end-of-input on stdin) is
//! *draining*: the socket transport stops accepting, unblocks idle
//! connections (their read halves are shut down; requests already in
//! flight finish and their responses flush over the still-open write
//! halves), joins every connection thread, persists the memo snapshot
//! exactly once, and removes its own socket file. Binding refuses to
//! clobber a live daemon: an existing socket path is probe-connected
//! first and only replaced when nothing answers (a stale file from a dead
//! process).

use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hhl_driver::metrics::Stage;

use crate::api::{parse_request, Action, CacheOpts, Engine, Response};

/// Cap on one request line. A line is pure request metadata (file paths,
/// flags — file *contents* stay on disk), so 16 MiB is far beyond any
/// legitimate request; without a cap a hostile client could grow a single
/// newline-less line until the daemon OOMs.
const MAX_REQUEST_LINE_BYTES: usize = 16 << 20;

/// Flag parse result for `hhl serve`.
struct ServeFlags {
    socket: Option<String>,
    cache: CacheOpts,
}

fn parse_serve_flags(args: &[String]) -> Result<ServeFlags, String> {
    let mut flags = ServeFlags {
        socket: None,
        cache: CacheOpts::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => match it.next() {
                Some(path) => flags.socket = Some(path.clone()),
                None => return Err("--socket needs a path".to_owned()),
            },
            "--cache-dir" => match it.next() {
                Some(dir) => flags.cache.dir = Some(dir.clone()),
                None => return Err("--cache-dir needs a directory".to_owned()),
            },
            "--no-cache" => flags.cache.use_cache = false,
            "--fresh" => flags.cache.fresh = true,
            other => return Err(format!("unknown `hhl serve` argument {other:?}")),
        }
    }
    flags.cache.validate("serve")?;
    Ok(flags)
}

/// Runs the daemon. Returns the process exit code (`0` on clean shutdown,
/// `2` on usage or bind errors).
pub fn run(args: &[String]) -> u8 {
    let flags = match parse_serve_flags(args) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let (engine, warnings) = Engine::persistent(&flags.cache);
    for warning in &warnings {
        eprintln!("{warning}");
    }
    match flags.socket {
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            serve_stream(&engine, stdin.lock(), &mut stdout);
            engine.save_state();
            0
        }
        Some(path) => serve_socket(engine, &path),
    }
}

/// One attempt to read a request line off a connection.
enum RequestLine {
    /// A complete line within the cap, left in the caller's buffer
    /// (without the trailing newline).
    Line,
    /// A line that overran [`MAX_REQUEST_LINE_BYTES`]; the overflow was
    /// drained (not stored) through the next newline or end-of-input.
    Oversized,
    /// End of input, or an I/O error that ends the connection.
    Eof,
}

/// Reads one newline-terminated line into `buf`, never holding more than
/// [`MAX_REQUEST_LINE_BYTES`] of it in memory. Raw bytes, not `String`:
/// invalid UTF-8 must cost the *request* (the caller decodes lossily and
/// answers exit 2), not the connection — `read_line` would return `Err`
/// and a naive loop would kill the connection, which on the stdin
/// transport is the whole daemon.
fn read_request_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> RequestLine {
    buf.clear();
    let mut oversized = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => {
                // End of input: a trailing unterminated line still counts
                // as a line (matching `read_line`); the next call sees a
                // clean end-of-input.
                return match (buf.is_empty(), oversized) {
                    (true, false) => RequestLine::Eof,
                    (_, true) => RequestLine::Oversized,
                    (false, false) => RequestLine::Line,
                };
            }
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return RequestLine::Eof,
        };
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(newline) => (newline, true),
            None => (chunk.len(), false),
        };
        if buf.len() + take > MAX_REQUEST_LINE_BYTES {
            oversized = true;
            buf.clear();
        }
        if !oversized {
            buf.extend_from_slice(&chunk[..take]);
        }
        reader.consume(take + usize::from(done));
        if done {
            return if oversized {
                RequestLine::Oversized
            } else {
                RequestLine::Line
            };
        }
    }
}

/// Serves one connection: request lines in, response lines out (buffered
/// [`Response`] documents, or [`Frame`] chunk/end lines for
/// `"stream":true` requests). Returns `true` when the client asked for
/// shutdown (as opposed to end-of-input).
///
/// Malformed input — invalid UTF-8, unparsable JSON, an oversized line —
/// is answered with an exit-2 response and the connection keeps serving;
/// only end-of-input and genuine I/O errors end it.
fn serve_stream(engine: &Engine, mut reader: impl BufRead, writer: &mut impl Write) -> bool {
    let mut buf = Vec::new();
    loop {
        let accept_start = Instant::now();
        let line = read_request_line(&mut reader, &mut buf);
        engine
            .metrics()
            .record_stage(Stage::Accept, accept_start.elapsed().as_nanos() as u64);
        let oversized = match line {
            RequestLine::Eof => return false,
            RequestLine::Oversized => true,
            RequestLine::Line => false,
        };
        let text = String::from_utf8_lossy(&buf);
        let trimmed = text.trim();
        if !oversized && trimmed.is_empty() {
            continue;
        }
        // Hold a reclamation pin for the whole request: a concurrent
        // `end-session` must never invalidate interner ids this request
        // already resolved.
        let _pin = hhl_lang::pin_interner();
        let decode_start = Instant::now();
        let parsed = if oversized {
            Err(format!(
                "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"
            ))
        } else {
            parse_request(trimmed)
        };
        engine
            .metrics()
            .record_stage(Stage::Decode, decode_start.elapsed().as_nanos() as u64);
        match parsed {
            Ok(req) if req.stream => {
                // Streamed: frames flush as they render, so dispatch and
                // respond interleave; the write time inside the emitter is
                // metered as respond and subtracted from dispatch.
                let dispatch_start = Instant::now();
                let mut respond = Duration::ZERO;
                let mut failed = false;
                engine.handle_stream(&req, &mut |frame| {
                    let respond_start = Instant::now();
                    let sent = send_line(writer, frame.render());
                    respond += respond_start.elapsed();
                    failed |= sent.is_err();
                });
                engine.metrics().record_stage(
                    Stage::Dispatch,
                    dispatch_start.elapsed().saturating_sub(respond).as_nanos() as u64,
                );
                engine
                    .metrics()
                    .record_stage(Stage::Respond, respond.as_nanos() as u64);
                // A shutdown stops the daemon even when its reply could not
                // be delivered.
                if req.action == Action::Shutdown {
                    return true;
                }
                if failed {
                    return false;
                }
            }
            parsed => {
                let (action, response) = match parsed {
                    Ok(req) => {
                        let dispatch_start = Instant::now();
                        let response = engine.handle(&req);
                        engine.metrics().record_stage(
                            Stage::Dispatch,
                            dispatch_start.elapsed().as_nanos() as u64,
                        );
                        (Some(req.action), response)
                    }
                    Err(e) => (
                        None,
                        Response {
                            id: "-".to_owned(),
                            exit_code: 2,
                            cached: false,
                            stdout: String::new(),
                            stderr: vec![format!("error: bad request: {e}")],
                        },
                    ),
                };
                let respond_start = Instant::now();
                let sent = send_line(writer, response.render());
                engine
                    .metrics()
                    .record_stage(Stage::Respond, respond_start.elapsed().as_nanos() as u64);
                if action == Some(Action::Shutdown) {
                    return true;
                }
                if sent.is_err() {
                    return false;
                }
            }
        }
    }
}

/// Writes one protocol line — the document and its newline — with a single
/// `write_all`. `writeln!` on an unbuffered socket issues them as two
/// writes, and a client may act on the document before the newline lands.
fn send_line(writer: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Unix-socket transport: one thread per connection over the shared
/// engine (fan-out inside each request runs on the process-resident
/// worker pool, so concurrent connections share one set of workers).
///
/// A `shutdown` request *drains*: accepting stops, idle siblings are
/// unblocked by shutting down their read halves (a request already
/// dispatched keeps its open write half and flushes its response), every
/// connection thread is joined, state is saved exactly once, and the
/// daemon removes its own socket file.
#[cfg(unix)]
fn serve_socket(engine: Engine, path: &str) -> u8 {
    use std::collections::HashMap;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    // Never clobber a live daemon: probe an existing socket file and only
    // remove it when nothing answers (a stale leftover of a dead process).
    if std::fs::symlink_metadata(path).is_ok() {
        match UnixStream::connect(path) {
            Ok(_) => {
                eprintln!(
                    "error: {path} is already served by a responding daemon; \
                     refusing to replace it"
                );
                return 2;
            }
            Err(_) => {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    let listener = match UnixListener::bind(path) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("error: cannot bind {path}: {e}");
            return 2;
        }
    };
    let engine = Arc::new(engine);
    let shutdown = Arc::new(AtomicBool::new(false));
    // Read-halves of live connections, keyed per connection so a finished
    // handler can drop its own fd; the shutdown handler uses the rest to
    // unblock idle siblings without cutting off responses in flight.
    let conns: Arc<Mutex<HashMap<u64, UnixStream>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next_conn: u64 = 0;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            // The wake-up connection (or a client racing the shutdown):
            // stop accepting and drain.
            break;
        }
        let id = next_conn;
        next_conn += 1;
        // Both clones happen *before* the handler thread spawns: a
        // connection either ends up registered in `conns` with a live
        // reader, or is dropped here — never an unregistered thread parked
        // in a read that a draining shutdown could not unblock.
        let (registered, reader) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(registered), Ok(reader)) => (registered, reader),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("warning: dropping connection {id}: cannot clone socket: {e}");
                continue;
            }
        };
        conns.lock().unwrap().insert(id, registered);
        // Reap finished handlers by *joining* them, so a connection
        // thread's panic surfaces in the daemon log instead of vanishing
        // with the dropped handle.
        for handle in std::mem::take(&mut handles) {
            if !handle.is_finished() {
                handles.push(handle);
            } else if handle.join().is_err() {
                eprintln!("warning: a connection thread panicked");
            }
        }
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        let conns = Arc::clone(&conns);
        let path = path.to_owned();
        handles.push(std::thread::spawn(move || {
            let reader = BufReader::new(reader);
            let mut writer = stream;
            let requested_shutdown = serve_stream(&engine, reader, &mut writer);
            conns.lock().unwrap().remove(&id);
            if requested_shutdown {
                // The shutdown response is already flushed. Stop the
                // accept loop, then unblock idle siblings: shutting down
                // only the *read* half turns a parked `read_line` into
                // end-of-input while a dispatched request keeps its write
                // half to flush its response through.
                shutdown.store(true, Ordering::SeqCst);
                for conn in conns.lock().unwrap().values() {
                    let _ = conn.shutdown(std::net::Shutdown::Read);
                }
                // Wake the accept loop (it has no other shutdown signal).
                let _ = UnixStream::connect(&path);
            }
        }));
    }
    // Drain: every accepted connection finishes its in-flight request and
    // exits before the daemon persists and removes its socket.
    for handle in handles {
        if handle.join().is_err() {
            eprintln!("warning: a connection thread panicked");
        }
    }
    engine.save_state();
    let _ = std::fs::remove_file(path);
    0
}

#[cfg(not(unix))]
fn serve_socket(_engine: Engine, path: &str) -> u8 {
    eprintln!("error: --socket {path}: unix sockets are unavailable on this platform");
    2
}
