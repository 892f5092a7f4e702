//! Process-level tests for `hhl serve`: a real daemon process fed
//! JSON-lines requests over stdin (and, on unix, over a socket), checked
//! against the one-shot binary for byte-identical stdout payloads.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use hhl_cli::api::{Frame, Response, RESPONSE_SCHEMA};

fn example(kind: &str, name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(kind)
        .join(name)
        .canonicalize()
        .expect("example path")
        .to_string_lossy()
        .into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hhl-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(tag: &str) -> Daemon {
        let cache = temp_dir(tag);
        let mut child = Command::new(env!("CARGO_BIN_EXE_hhl"))
            .args(["serve", "--cache-dir"])
            .arg(&cache)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn hhl serve");
        let stdin = child.stdin.take().expect("daemon stdin");
        let stdout = BufReader::new(child.stdout.take().expect("daemon stdout"));
        Daemon {
            child,
            stdin,
            stdout,
        }
    }

    fn send_line(&mut self, line: &str) -> Response {
        self.send_raw(line.as_bytes())
    }

    /// Sends one newline-terminated request of raw bytes (not necessarily
    /// UTF-8, not necessarily small) and reads one buffered response.
    fn send_raw(&mut self, bytes: &[u8]) -> Response {
        self.stdin.write_all(bytes).expect("write request");
        self.stdin.write_all(b"\n").expect("terminate request");
        self.stdin.flush().expect("flush request");
        let mut reply = String::new();
        self.stdout.read_line(&mut reply).expect("read response");
        assert!(
            reply.contains(RESPONSE_SCHEMA),
            "response missing schema tag: {reply}"
        );
        Response::parse(reply.trim_end()).expect("parse response")
    }

    /// Sends one `"stream":true` request line and collects frames through
    /// the terminal `end` frame.
    fn send_streaming(&mut self, line: &str) -> Vec<Frame> {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().expect("flush request");
        let mut frames = Vec::new();
        loop {
            let mut reply = String::new();
            self.stdout.read_line(&mut reply).expect("read frame");
            let frame = Frame::parse(reply.trim_end()).expect("parse frame");
            let done = matches!(frame, Frame::End { .. });
            frames.push(frame);
            if done {
                return frames;
            }
        }
    }

    fn request(&mut self, id: &str, command: &str, files: &[&str], jobs: usize) -> Response {
        let files_json: Vec<String> = files.iter().map(|f| format!("\"{f}\"")).collect();
        self.send_line(&format!(
            "{{\"schema\":\"hhl-request v1\",\"id\":\"{id}\",\"command\":\"{command}\",\
             \"files\":[{}],\"jobs\":{jobs}}}",
            files_json.join(",")
        ))
    }

    fn shutdown(mut self) {
        let bye = self.send_line("{\"command\":\"shutdown\"}");
        assert_eq!(bye.exit_code, 0);
        let status = self.child.wait().expect("daemon exit");
        assert!(status.success(), "daemon exited with {status}");
    }
}

fn oneshot(args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_hhl"))
        .args(args)
        .output()
        .expect("run hhl");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn stdin_daemon_matches_the_oneshot_binary_byte_for_byte() {
    let spec = example("specs", "ni_c1.hhl");
    let proof = example("proofs", "ni_c1.hhlp");
    let mut daemon = Daemon::spawn("stdin");

    let reply = daemon.request("r1", "check", &[&spec], 2);
    let (cli_stdout, cli_exit) = oneshot(&["check", "--jobs", "2", &spec]);
    assert_eq!(reply.stdout, cli_stdout);
    assert_eq!(i32::from(reply.exit_code), cli_exit);
    assert_eq!(reply.id, "r1");
    assert!(!reply.cached);

    let replayed = daemon.request("r2", "replay", &[&spec, &proof], 1);
    let (replay_stdout, replay_exit) = oneshot(&["replay", &spec, &proof]);
    assert_eq!(replayed.stdout, replay_stdout);
    assert_eq!(i32::from(replayed.exit_code), replay_exit);

    daemon.shutdown();
}

#[test]
fn second_identical_request_is_answered_warm_with_no_new_parse_samples() {
    let spec = example("specs", "while_sync.hhl");
    let mut daemon = Daemon::spawn("warm");

    let first = daemon.request("a", "check", &[&spec], 2);
    assert!(!first.cached);
    let status_line = |stdout: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with("stage parse:"))
            .map(str::to_owned)
            .expect("status reports the parse stage")
    };
    let before = daemon.send_line("{\"command\":\"status\"}");
    let parse_before = status_line(&before.stdout);

    let second = daemon.request("b", "check", &[&spec], 2);
    assert!(second.cached, "identical warm request must be cached");
    assert_eq!(second.stdout, first.stdout);
    assert_eq!(second.exit_code, first.exit_code);
    assert_eq!(
        second.id, "b",
        "cached responses still carry the caller's id"
    );

    let after = daemon.send_line("{\"command\":\"status\"}");
    assert_eq!(
        status_line(&after.stdout),
        parse_before,
        "a cached response must not add parse samples"
    );

    daemon.shutdown();
}

#[test]
fn malformed_lines_get_an_error_response_and_the_daemon_keeps_serving() {
    let spec = example("specs", "minimum.hhl");
    let mut daemon = Daemon::spawn("hostile");

    let bad = daemon.send_line("@@@ not json @@@");
    assert_eq!(bad.exit_code, 2);
    assert!(
        bad.stderr.iter().any(|l| l.contains("bad request")),
        "{:?}",
        bad.stderr
    );

    let unknown = daemon.send_line("{\"command\":\"frobnicate\"}");
    assert_eq!(unknown.exit_code, 2);

    // The daemon survives both and still answers real work.
    let good = daemon.request("ok", "check", &[&spec], 1);
    let (cli_stdout, cli_exit) = oneshot(&["check", &spec]);
    assert_eq!(good.stdout, cli_stdout);
    assert_eq!(i32::from(good.exit_code), cli_exit);

    daemon.shutdown();
}

#[test]
fn escaped_non_bmp_ids_are_echoed_verbatim() {
    // `\ud83d\ude00` is how `json.dumps` (and most encoders) escape 😀: the
    // surrogate pair must decode to one character, not two U+FFFD.
    let mut daemon = Daemon::spawn("emoji");
    let reply = daemon.send_line(r#"{"command":"status","id":"\ud83d\ude00"}"#);
    assert_eq!(reply.exit_code, 0);
    assert_eq!(reply.id, "😀");
    daemon.shutdown();
}

#[test]
fn invalid_utf8_costs_the_request_not_the_daemon() {
    let spec = example("specs", "minimum.hhl");
    let mut daemon = Daemon::spawn("utf8");

    // A request line with invalid UTF-8 mid-stream: the old `read_line`
    // loop returned on the decode error, killing the stdin daemon.
    let mut hostile = Vec::from(&b"{\"command\":"[..]);
    hostile.extend_from_slice(&[0xff, 0xfe, 0x80]);
    hostile.extend_from_slice(b"}");
    let bad = daemon.send_raw(&hostile);
    assert_eq!(bad.exit_code, 2);
    assert!(
        bad.stderr.iter().any(|l| l.contains("bad request")),
        "{:?}",
        bad.stderr
    );

    // Bare garbage bytes too.
    let worse = daemon.send_raw(&[0xc3, 0x28, 0xa0, 0xa1]);
    assert_eq!(worse.exit_code, 2);

    // The daemon survives both and still answers real work.
    let good = daemon.request("ok", "check", &[&spec], 1);
    let (cli_stdout, cli_exit) = oneshot(&["check", &spec]);
    assert_eq!(good.stdout, cli_stdout);
    assert_eq!(i32::from(good.exit_code), cli_exit);

    daemon.shutdown();
}

#[test]
fn oversized_request_lines_are_rejected_and_drained() {
    let spec = example("specs", "minimum.hhl");
    let mut daemon = Daemon::spawn("oversize");

    // One 17 MiB line: past the 16 MiB cap, the daemon must answer exit 2
    // without buffering the line, then keep serving from the next newline.
    let mut huge = Vec::from(&b"{\"command\":\"check\",\"files\":[\""[..]);
    huge.resize(17 << 20, b'x');
    huge.extend_from_slice(b"\"]}");
    let rejected = daemon.send_raw(&huge);
    assert_eq!(rejected.exit_code, 2);
    assert!(
        rejected.stderr.iter().any(|l| l.contains("exceeds")),
        "{:?}",
        rejected.stderr
    );

    let good = daemon.request("ok", "check", &[&spec], 1);
    let (cli_stdout, cli_exit) = oneshot(&["check", &spec]);
    assert_eq!(good.stdout, cli_stdout);
    assert_eq!(i32::from(good.exit_code), cli_exit);

    daemon.shutdown();
}

#[test]
fn streamed_requests_arrive_as_frames_and_reassemble_to_the_cli_bytes() {
    let files = [
        example("specs", "ni_c1.hhl"),
        example("specs", "ni_c2.hhl"),
        example("specs", "while_sync.hhl"),
    ];
    let mut daemon = Daemon::spawn("stream");

    let files_json: Vec<String> = files.iter().map(|f| format!("\"{f}\"")).collect();
    let frames = daemon.send_streaming(&format!(
        "{{\"schema\":\"hhl-request v1\",\"id\":\"s1\",\"command\":\"check\",\
         \"files\":[{}],\"jobs\":2,\"stream\":true}}",
        files_json.join(",")
    ));
    assert_eq!(
        frames.len(),
        files.len() + 1,
        "one chunk per file plus the end frame"
    );
    let response = Frame::reassemble(&frames).expect("reassemble");
    assert_eq!(response.id, "s1");
    let mut args = vec!["check", "--jobs", "2"];
    args.extend(files.iter().map(String::as_str));
    let (cli_stdout, cli_exit) = oneshot(&args);
    assert_eq!(response.stdout, cli_stdout);
    assert_eq!(i32::from(response.exit_code), cli_exit);

    // Non-streamed requests on the same connection still get one
    // buffered response document.
    let buffered = daemon.request("s2", "check", &[files[0].as_str()], 1);
    let (one_stdout, one_exit) = oneshot(&["check", files[0].as_str()]);
    assert_eq!(buffered.stdout, one_stdout);
    assert_eq!(i32::from(buffered.exit_code), one_exit);

    daemon.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_round_trips_requests() {
    use std::os::unix::net::UnixStream;

    let spec = example("specs", "ni_c2.hhl");
    let dir = temp_dir("socket");
    let socket = dir.join("hhl.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_hhl"))
        .args(["serve", "--socket"])
        .arg(&socket)
        .args(["--cache-dir"])
        .arg(dir.join("cache"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn socket daemon");

    // Wait for the listener to come up.
    let mut stream = None;
    for _ in 0..200 {
        if let Ok(s) = UnixStream::connect(&socket) {
            stream = Some(s);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let stream = stream.expect("connect to daemon socket");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;

    writeln!(
        writer,
        "{{\"schema\":\"hhl-request v1\",\"id\":\"sock\",\"command\":\"check\",\"files\":[\"{spec}\"]}}"
    )
    .expect("send over socket");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read over socket");
    let response = Response::parse(reply.trim_end()).expect("parse socket response");
    assert_eq!(response.id, "sock");
    let (cli_stdout, cli_exit) = oneshot(&["check", &spec]);
    assert_eq!(response.stdout, cli_stdout);
    assert_eq!(i32::from(response.exit_code), cli_exit);

    writeln!(writer, "{{\"command\":\"shutdown\"}}").expect("send shutdown");
    let mut bye = String::new();
    reader.read_line(&mut bye).expect("read shutdown reply");
    assert!(bye.contains("shutting down"), "{bye}");
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "socket daemon exited with {status}");
}

/// Spawns a socket daemon on `<tempdir>/hhl.sock` with stderr inherited
/// for debuggability, returning the child and the socket path.
#[cfg(unix)]
fn spawn_socket_daemon(tag: &str) -> (Child, PathBuf) {
    let dir = temp_dir(tag);
    let socket = dir.join("hhl.sock");
    let child = Command::new(env!("CARGO_BIN_EXE_hhl"))
        .args(["serve", "--socket"])
        .arg(&socket)
        .args(["--cache-dir"])
        .arg(dir.join("cache"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn socket daemon");
    (child, socket)
}

/// Connects to `socket`, retrying while the daemon binds.
#[cfg(unix)]
fn connect_retry(socket: &Path) -> std::os::unix::net::UnixStream {
    for _ in 0..200 {
        if let Ok(s) = std::os::unix::net::UnixStream::connect(socket) {
            return s;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("cannot connect to daemon socket {socket:?}");
}

/// A `shutdown` on one connection must *drain* its siblings: a request
/// already dispatched on another connection keeps its write half and
/// flushes its complete response before the daemon exits — and the daemon
/// removes its own socket file on the way out.
#[cfg(unix)]
#[test]
fn shutdown_waits_for_a_slow_sibling_request_and_removes_the_socket() {
    let files = [
        example("specs", "ni_c1.hhl"),
        example("specs", "ni_c2.hhl"),
        example("specs", "while_sync.hhl"),
        example("specs", "minimum.hhl"),
    ];
    let (mut child, socket) = spawn_socket_daemon("drain");

    // Connection A: a multi-file check, sent but not yet awaited.
    let slow = connect_retry(&socket);
    let mut slow_reader = BufReader::new(slow.try_clone().expect("clone stream"));
    let mut slow_writer = slow;
    let files_json: Vec<String> = files.iter().map(|f| format!("\"{f}\"")).collect();
    writeln!(
        slow_writer,
        "{{\"schema\":\"hhl-request v1\",\"id\":\"slow\",\"command\":\"check\",\
         \"files\":[{}],\"jobs\":4}}",
        files_json.join(",")
    )
    .expect("send slow request");
    slow_writer.flush().expect("flush slow request");
    // Give the daemon time to read the request line, so the shutdown
    // below races the *dispatch*, not the read.
    std::thread::sleep(std::time::Duration::from_millis(150));

    // Connection B: shutdown while A is (likely still) in flight.
    let fast = connect_retry(&socket);
    let mut fast_reader = BufReader::new(fast.try_clone().expect("clone stream"));
    let mut fast_writer = fast;
    writeln!(fast_writer, "{{\"command\":\"shutdown\"}}").expect("send shutdown");
    let mut bye = String::new();
    fast_reader
        .read_line(&mut bye)
        .expect("read shutdown reply");
    assert!(bye.contains("shutting down"), "{bye}");

    // A still receives its complete, correct response.
    let mut reply = String::new();
    slow_reader
        .read_line(&mut reply)
        .expect("read slow response");
    let response = Response::parse(reply.trim_end())
        .expect("sibling response must be complete despite the shutdown");
    assert_eq!(response.id, "slow");
    let mut args = vec!["check", "--jobs", "4"];
    args.extend(files.iter().map(String::as_str));
    let (cli_stdout, cli_exit) = oneshot(&args);
    assert_eq!(response.stdout, cli_stdout);
    assert_eq!(i32::from(response.exit_code), cli_exit);

    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "drained daemon exited with {status}");
    assert!(
        !socket.exists(),
        "daemon must remove its own socket file on clean shutdown"
    );
}

/// A hostile line on one socket connection costs that request only: a
/// sibling connection's request is answered correctly and the daemon
/// keeps running.
#[cfg(unix)]
#[test]
fn hostile_lines_on_one_socket_leave_siblings_unaffected() {
    use std::io::Read;

    let spec = example("specs", "minimum.hhl");
    let (mut child, socket) = spawn_socket_daemon("hostile-sock");

    // Connection A: invalid UTF-8, then an oversized line.
    let hostile = connect_retry(&socket);
    let mut hostile_reader = BufReader::new(hostile.try_clone().expect("clone stream"));
    let mut hostile_writer = hostile;
    hostile_writer
        .write_all(&[0xff, 0xfe, 0x80, b'\n'])
        .expect("send invalid utf-8");
    let mut reply = String::new();
    hostile_reader.read_line(&mut reply).expect("read reply");
    let bad = Response::parse(reply.trim_end()).expect("parse reply");
    assert_eq!(bad.exit_code, 2);

    let mut huge = vec![b'x'; 17 << 20];
    huge.push(b'\n');
    hostile_writer.write_all(&huge).expect("send oversized");
    let mut reply = String::new();
    hostile_reader.read_line(&mut reply).expect("read reply");
    let rejected = Response::parse(reply.trim_end()).expect("parse reply");
    assert_eq!(rejected.exit_code, 2);
    assert!(
        rejected.stderr.iter().any(|l| l.contains("exceeds")),
        "{:?}",
        rejected.stderr
    );

    // Connection B: unaffected, byte-identical to the one-shot CLI.
    let good = connect_retry(&socket);
    let mut good_reader = BufReader::new(good.try_clone().expect("clone stream"));
    let mut good_writer = good;
    writeln!(
        good_writer,
        "{{\"schema\":\"hhl-request v1\",\"id\":\"sib\",\"command\":\"check\",\"files\":[\"{spec}\"]}}"
    )
    .expect("send sibling request");
    let mut reply = String::new();
    good_reader.read_line(&mut reply).expect("read sibling");
    let response = Response::parse(reply.trim_end()).expect("parse sibling");
    assert_eq!(response.id, "sib");
    let (cli_stdout, cli_exit) = oneshot(&["check", &spec]);
    assert_eq!(response.stdout, cli_stdout);
    assert_eq!(i32::from(response.exit_code), cli_exit);

    writeln!(good_writer, "{{\"command\":\"shutdown\"}}").expect("send shutdown");
    let mut bye = String::new();
    good_reader
        .read_line(&mut bye)
        .expect("read shutdown reply");
    assert!(bye.contains("shutting down"), "{bye}");
    // The drained hostile connection ends cleanly (EOF, not a hang).
    let mut rest = Vec::new();
    let _ = hostile_reader.read_to_end(&mut rest);
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited with {status}");
}

/// A connection that never sends a request (parked in its first read)
/// must not wedge a draining shutdown: every accepted connection is
/// registered before its handler thread exists, so the drain can always
/// unblock it.
#[cfg(unix)]
#[test]
fn shutdown_drains_an_idle_connection_without_hanging() {
    use std::io::Read;

    let (mut child, socket) = spawn_socket_daemon("idle-drain");

    // Connection A: accepted, then silent — its handler is parked reading.
    let idle = connect_retry(&socket);
    let mut idle_reader = BufReader::new(idle.try_clone().expect("clone stream"));
    // Give the daemon time to accept and park the handler.
    std::thread::sleep(std::time::Duration::from_millis(150));

    // Connection B: shutdown. The daemon must unblock A and exit.
    let fast = connect_retry(&socket);
    let mut fast_reader = BufReader::new(fast.try_clone().expect("clone stream"));
    let mut fast_writer = fast;
    writeln!(fast_writer, "{{\"command\":\"shutdown\"}}").expect("send shutdown");
    let mut bye = String::new();
    fast_reader
        .read_line(&mut bye)
        .expect("read shutdown reply");
    assert!(bye.contains("shutting down"), "{bye}");

    // Bounded wait: a drain that cannot unblock the idle reader hangs
    // forever, which is exactly the regression this guards against.
    let status = wait_within_30s(&mut child, "drain an idle connection");
    assert!(status.success(), "daemon exited with {status}");
    assert!(!socket.exists(), "socket file must be gone after shutdown");
    // The idle connection sees end-of-input, not a hang.
    let mut rest = Vec::new();
    let _ = idle_reader.read_to_end(&mut rest);
}

/// Waits for the daemon to exit, failing the test after 30 s.
#[cfg(unix)]
fn wait_within_30s(child: &mut Child, what: &str) -> std::process::ExitStatus {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            return status;
        }
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon failed to {what} within 30s");
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

/// A `shutdown` stops the daemon even when its reply cannot be delivered:
/// the client sends the request and closes at once, without reading.
#[cfg(unix)]
#[test]
fn shutdown_from_a_client_that_closes_without_reading_still_stops_the_daemon() {
    let (mut child, socket) = spawn_socket_daemon("hangup");
    let mut client = connect_retry(&socket);
    client
        .write_all(b"{\"command\":\"shutdown\"}\n")
        .expect("send shutdown");
    drop(client);

    let status = wait_within_30s(&mut child, "shut down for a departed client");
    assert!(status.success(), "daemon exited with {status}");
    assert!(!socket.exists(), "socket file must be gone after shutdown");
}

/// Binding refuses to clobber a *live* daemon: a second daemon pointed at
/// the same socket path exits with a usage error while the first keeps
/// answering.
#[cfg(unix)]
#[test]
fn second_daemon_refuses_a_live_socket_and_the_first_keeps_serving() {
    let spec = example("specs", "minimum.hhl");
    let (first, socket) = spawn_socket_daemon("live");
    let mut first = first;
    // Make sure the first daemon is up before contesting its socket.
    drop(connect_retry(&socket));

    let second = Command::new(env!("CARGO_BIN_EXE_hhl"))
        .args(["serve", "--socket"])
        .arg(&socket)
        .output()
        .expect("run second daemon");
    assert_eq!(
        second.status.code(),
        Some(2),
        "second daemon must refuse a responding socket"
    );
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(
        stderr.contains("refusing to replace"),
        "unexpected refusal message: {stderr}"
    );
    assert!(socket.exists(), "the live socket file must survive");

    // The incumbent is unharmed and still answers.
    let stream = connect_retry(&socket);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    writeln!(
        writer,
        "{{\"schema\":\"hhl-request v1\",\"id\":\"alive\",\"command\":\"check\",\"files\":[\"{spec}\"]}}"
    )
    .expect("send to incumbent");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read from incumbent");
    let response = Response::parse(reply.trim_end()).expect("parse incumbent response");
    assert_eq!(response.id, "alive");
    assert_eq!(response.exit_code, 0);

    writeln!(writer, "{{\"command\":\"shutdown\"}}").expect("send shutdown");
    let mut bye = String::new();
    reader.read_line(&mut bye).expect("read shutdown reply");
    let status = first.wait().expect("first daemon exit");
    assert!(status.success(), "incumbent exited with {status}");
}

/// A *stale* socket file — left by a dead process, nothing answering — is
/// replaced: the probe connect fails, the file is removed, and the new
/// daemon binds and serves.
#[cfg(unix)]
#[test]
fn stale_socket_file_is_replaced_by_a_new_daemon() {
    use std::os::unix::net::UnixListener;

    let spec = example("specs", "minimum.hhl");
    let dir = temp_dir("stale");
    let socket = dir.join("hhl.sock");
    // Bind and immediately drop: the filesystem entry outlives the
    // listener, exactly what a crashed daemon leaves behind.
    drop(UnixListener::bind(&socket).expect("bind stale socket"));
    assert!(socket.exists(), "stale socket file must exist");

    let mut child = Command::new(env!("CARGO_BIN_EXE_hhl"))
        .args(["serve", "--socket"])
        .arg(&socket)
        .args(["--cache-dir"])
        .arg(dir.join("cache"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon over stale socket");

    let stream = connect_retry(&socket);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    writeln!(
        writer,
        "{{\"schema\":\"hhl-request v1\",\"id\":\"fresh\",\"command\":\"check\",\"files\":[\"{spec}\"]}}"
    )
    .expect("send over reclaimed socket");
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .expect("read over reclaimed socket");
    let response = Response::parse(reply.trim_end()).expect("parse response");
    assert_eq!(response.id, "fresh");
    assert_eq!(response.exit_code, 0);

    writeln!(writer, "{{\"command\":\"shutdown\"}}").expect("send shutdown");
    let mut bye = String::new();
    reader.read_line(&mut bye).expect("read shutdown reply");
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited with {status}");
    assert!(!socket.exists(), "socket file must be gone after shutdown");
}
