#!/usr/bin/env python3
"""The repository benchmark: seeded workloads against the real `hhl` binary.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 15 --trace 0

It builds `hhl` and the benchmark's helper tool (`perfbench/`, a cargo
package of its own) into `$CARGO_TARGET_DIR` (default `.bench_build`),
generates the workload's inputs from the seed under `.perfbench_work/`,
checks them against the independent reference, sets up several times,
measures for `--seconds`, checks every output, and prints human-readable
lines followed by one JSON result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1` the per-layer metrics of a traced in-process replay of the
same inputs. Any wrong verdict, wrong stdout, wrong cache state or reference
disagreement makes the run fail: `correct` is false and the exit code is 1.
See perfbench/README.md for the workloads and the layer map.
"""

import argparse
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("batch-cold", "batch-edit", "replay-sharded", "serve-mixed")
# `--jobs` of every hhl invocation and the closed-loop connections of
# serve-mixed. The helper tool defines both (perfbench/src/load.rs JOBS and
# CONNS) for its own requests and traced replays; these copies must match.
JOBS = 2
CONNS = 1
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
# serve-mixed splits its timed phase over this many daemon lifetimes, four
# windows each (perfbench/src/load.rs): a daemon's speed differs from one
# lifetime to the next, so one daemon per run made whole runs fast or slow.
LIFETIMES = 5
# latency_tail_ms's percentile per workload. It is fixed, so that every run
# of a workload reports the same percentile whatever its speed; a run makes
# at least min_samples(q) operations, so that ten samples lie beyond it. The
# batch workloads fit only tens of operations into a run, so their tail is
# a low percentile: p60 of >= 25 cold passes, p80 of >= 50 edit cycles, p85
# of >= 67 replays. serve-mixed pools the latencies of its whole timed
# phase, tens of thousands of requests, far more than the 5000 p99.8 needs.
# Its slowest ~1-1.5% of requests are response-cache misses of expensive
# specs; p99 sat on the edge of that group and jumped by a third between
# seeds, while p99.8 lies inside it.
TAIL_Q = {"batch-cold": 60, "batch-edit": 80, "replay-sharded": 85, "serve-mixed": 99.8}
WORK = ".perfbench_work"
TOOL_MANIFEST = "perfbench/Cargo.toml"
GOLDEN = "examples/corpus_batch_golden.txt"
# The held-out seed: never used while tuning; later performance claims
# are checked on it as well (see README.md).
HELD_OUT_SEED = 20260417

# Units of the end-to-end metrics (BENCHMARK.json).
UNITS = {"latency_p50_ms": "ms", "latency_tail_ms": "ms", "verdicts_per_s": "1/s",
         "cpu_ms_per_verdict": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """A wrong output, exit code or cache state: the operation failed."""


# ---------------------------------------------------------------- statistics

def nearest_rank(sorted_xs, q):
    """The q-th percentile (0 < q < 100) by the nearest-rank rule."""
    rank = max(1, math.ceil(q * len(sorted_xs) / 100))
    return sorted_xs[rank - 1]


def beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q * n / 100))


def min_samples(q):
    """The fewest samples with at least ten beyond the q-th percentile."""
    n = 10
    while beyond(n, q) < 10:
        n += 1
    return n


def latency_summary(samples_ms, q):
    """Median and nearest-rank q-th percentile; fails when fewer than ten
    samples lie beyond the percentile."""
    xs = sorted(samples_ms)
    if beyond(len(xs), q) < 10:
        raise Failure(f"only {len(xs)} latency samples: p{q} needs {min_samples(q)}")
    return {"p50": statistics.median(xs), "tail": nearest_rank(xs, q), "q": q,
            "n": len(xs), "beyond": beyond(len(xs), q)}


# ---------------------------------------------------------------- processes

class Run:
    """One finished child process: exit code, wall time, rusage, output."""

    def __init__(self, code, wall_s, cpu_s, maxrss_kb, stdout, stderr):
        self.code, self.wall_s, self.cpu_s = code, wall_s, cpu_s
        self.maxrss_kb, self.stdout, self.stderr = maxrss_kb, stdout, stderr


def run_measured(argv, tag):
    """Runs argv to completion, reaping it with wait4 for its own rusage."""
    out_path = os.path.join(WORK, f"{tag}.stdout")
    err_path = os.path.join(WORK, f"{tag}.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read().decode("utf-8", "replace")
    return Run(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss, stdout, stderr)


def tool(bins, *args):
    """Runs the helper tool; returns its JSON result line."""
    proc = subprocess.run([bins["tool"], *args], capture_output=True, text=True)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0:
        raise Failure(f"hhl-perfbench {args[0]} exited {proc.returncode}: {result}")
    return result


def counters(stderr, subsystem):
    """Parses a `[subsystem] key=value ...` stderr line into a dict."""
    prefix = f"[{subsystem}] "
    for line in stderr.splitlines():
        if line.startswith(prefix):
            return {k: int(v) for k, v in (kv.split("=") for kv in line[len(prefix):].split())}
    raise Failure(f"no [{subsystem}] counter line on stderr")


def proc_peak_rss_kb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise Failure("no VmHWM in /proc status")


def log_threads(pid):
    """Logs each thread of a stuck process: name, state and kernel wait
    channel, for whoever looks into why it hangs."""
    try:
        for tid in sorted(os.listdir(f"/proc/{pid}/task"), key=int):
            base = f"/proc/{pid}/task/{tid}"
            with open(f"{base}/comm") as f:
                name = f.read().strip()
            with open(f"{base}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
            with open(f"{base}/wchan") as f:
                wchan = f.read().strip()
            log(f"  thread {tid} {name}: state {state}, waiting in {wchan or '-'}")
    except OSError as e:
        log(f"  cannot list the threads of {pid}: {e}")


# ---------------------------------------------------------------- build

def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for argv in (["cargo", "build", "--release", "--offline", "-p", "hhl-cli", "--bin", "hhl"],
                 ["cargo", "build", "--release", "--offline", "--manifest-path", TOOL_MANIFEST]):
        proc = subprocess.run(argv, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"error: build failed: {' '.join(argv)}")
            sys.exit(2)
    release = os.path.join(target, "release")
    return {"hhl": os.path.join(release, "hhl"), "tool": os.path.join(release, "hhl-perfbench")}


# ---------------------------------------------------------------- workloads

class Workload:
    """Set-up, one measured operation, and the checks each must pass."""

    def __init__(self, name, seed, bins):
        self.name, self.seed, self.bins = name, seed, bins
        self.dir = os.path.join(WORK, name)
        self.cache = os.path.join(self.dir, "cache")
        self.manifest = None
        self.expected = None
        self.digest = None
        self.notes = {}
        self.attempted = 0  # measured operations (requests on serve-mixed)
        self.failed = 0

    # -- set-up

    def generate(self):
        result = tool(self.bins, "gen", "--workload", self.name, "--seed", str(self.seed),
                      "--dir", self.dir, "--examples", "examples")
        if self.digest is not None and result["inputs_digest"] != self.digest:
            raise Failure("the same seed generated different inputs")
        self.digest = result["inputs_digest"]
        with open(os.path.join(self.dir, "manifest.json")) as f:
            self.manifest = json.load(f)
        self.load_expected()

    def load_expected(self):
        path = os.path.join(self.dir, "expected.stdout")
        if os.path.exists(path):
            with open(path, "rb") as f:
                self.expected = f.read()

    def prefill(self):
        """Fills the verdict store and memo snapshot with one cold batch."""
        shutil.rmtree(self.cache, ignore_errors=True)
        run = run_measured([self.bins["hhl"], "batch", "--jobs", str(JOBS), "--cache-dir",
                            self.cache, *self.manifest["files"]], f"{self.name}-prefill")
        self.check_batch_output(run)

    def prepare(self):
        """The rest of set-up after generation: one warm-up operation, so
        the timed phase starts with warm file and page caches."""
        self.operation(0)

    def reference(self):
        result = tool(self.bins, "reference", "--dir", self.dir, "--golden", GOLDEN)
        self.notes["reference"] = result
        self.load_expected()

    def teardown(self):
        pass

    def kill(self):
        """Stops anything still running after an error."""

    # -- checks

    def check_batch_output(self, run):
        if run.code != 0:
            raise Failure(f"hhl exited {run.code}: {run.stderr.strip()[:400]}")
        if run.stdout != self.expected:
            raise Failure("stdout differs from the reference")

    def batch_argv(self):
        return [self.bins["hhl"], "batch", "--jobs", str(JOBS), "--cache-dir", self.cache,
                *self.manifest["files"]]

    # -- measured operations: return (latency_ms, verdicts, cpu_s, maxrss_kb)

    def operation(self, index):
        raise NotImplementedError


class BatchCold(Workload):
    def operation(self, index):
        shutil.rmtree(self.cache, ignore_errors=True)
        run = run_measured(self.batch_argv(), self.name)
        self.check_batch_output(run)
        store = counters(run.stderr, "store")
        n = len(self.manifest["files"])
        if store["re-verified"] <= 0 or store["cached"] + store["re-verified"] != n:
            raise Failure(f"cold store in the wrong state: {store}")
        # On an empty store every hit is an in-run duplicate.
        self.notes["duplicate_share"] = store["cached"] / n
        return run.wall_s * 1e3, n, run.cpu_s, run.maxrss_kb


class BatchEdit(Workload):
    def prepare(self):
        self.prefill()
        with open(os.path.join(self.dir, "edits.jsonl")) as f:
            self.edits = [json.loads(line) for line in f]

    def operation(self, index):
        if index >= len(self.edits):
            raise Failure("edit plan exhausted")
        edit = self.edits[index]
        for key in ("semantic", "comment"):
            with open(edit[key], "w") as f:
                f.write(edit[key + "_text"])
        run = run_measured(self.batch_argv(), self.name)
        self.check_batch_output(run)
        store = counters(run.stderr, "store")
        n = len(self.manifest["files"])
        if store["re-verified"] != 1 or store["cached"] != n - 1 or store["written"] != 1:
            raise Failure(f"edit cycle {index} in the wrong cache state: {store}")
        self.notes["store_hit_ratio"] = store["cached"] / n
        return run.wall_s * 1e3, n, run.cpu_s, run.maxrss_kb


class ReplaySharded(Workload):
    def operation(self, index):
        run = run_measured([self.bins["hhl"], "replay", "--jobs", str(JOBS),
                            *self.manifest["pairs"]], self.name)
        self.check_batch_output(run)
        shard = counters(run.stderr, "shard")
        if shard["summary-hits"] != 0 or shard["cached"] != 0:
            raise Failure(f"replay found a store it must not have: {shard}")
        self.notes["shard_distinct_share"] = shard["distinct"] / shard["shards"]
        pairs = len(self.manifest["pairs"]) // 2
        return run.wall_s * 1e3, pairs, run.cpu_s, run.maxrss_kb


class ServeMixed(Workload):
    socket_path = os.path.join(WORK, "serve.sock")

    def __init__(self, *args):
        super().__init__(*args)
        self.daemon = None

    def start_daemon(self):
        if os.path.exists(self.socket_path):
            os.remove(self.socket_path)
        self.daemon_log = open(os.path.join(WORK, "daemon.log"), "wb")
        self.daemon = subprocess.Popen(
            [self.bins["hhl"], "serve", "--socket", self.socket_path, "--cache-dir", self.cache],
            stdout=self.daemon_log, stderr=self.daemon_log)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.daemon.poll() is not None:
                raise Failure(f"hhl serve exited {self.daemon.returncode} at start-up")
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect(self.socket_path)
                return
            except OSError:
                time.sleep(0.002)
        raise Failure("hhl serve did not start listening")

    def stop_daemon(self):
        """Draining shutdown; returns the daemon's exit code."""
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return 0
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.connect(self.socket_path)
                s.sendall(b'{"command":"shutdown"}\n')
                # Read the whole response line before closing: the daemon
                # writes it in more than one piece, and it does not shut
                # down when the last piece cannot be delivered.
                reply = b""
                while not reply.endswith(b"\n"):
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
            code = daemon.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"hhl serve shutdown: {e!r}; killing it")
            log_threads(daemon.pid)
            daemon.kill()
            code = daemon.wait()
        self.daemon_log.close()
        return code

    def prepare(self):
        self.prefill()
        self.start_daemon()

    def teardown(self):
        code = self.stop_daemon()
        if code != 0:
            raise Failure(f"hhl serve did not shut down cleanly (exit {code})")

    def kill(self):
        if self.daemon is not None:
            self.daemon.kill()
            self.daemon.wait()
            self.daemon = None

    def measure(self, seconds):
        """The closed loop for `seconds`, spread over LIFETIMES daemons (each
        after the first restarted untimed): the merged load result, with the
        daemons' CPU ticks per window, and the median daemon peak RSS."""
        total = {"attempted": 0, "completed": 0, "failed": 0, "cached": 0, "verdicts": 0,
                 "by_action": {}, "windows": []}
        rss_kb = []
        for life in range(LIFETIMES):
            if life > 0:
                self.teardown()
                self.start_daemon()
            pid = self.daemon.pid
            result = tool(self.bins, "serve-load", "--dir", self.dir, "--socket",
                          self.socket_path, "--seconds", str(seconds / LIFETIMES),
                          "--seed", str(self.seed), "--pid", str(pid), "--lifetime", str(life))
            rss_kb.append(proc_peak_rss_kb(pid))
            for key in ("attempted", "completed", "failed", "cached", "verdicts"):
                total[key] += result[key]
            for action, n in result["by_action"].items():
                total["by_action"][action] = total["by_action"].get(action, 0) + n
            total["windows"] += result["windows"]
        return total, statistics.median(rss_kb)


WORKLOAD_CLASSES = {"batch-cold": BatchCold, "batch-edit": BatchEdit,
                    "replay-sharded": ReplaySharded, "serve-mixed": ServeMixed}


# ---------------------------------------------------------------- runs

def timed_setups(w):
    """Sets up SETUP_REPEATS times (the last one stays). The reference runs
    once, after the first generation, and each earlier set-up is torn down
    (the daemon stopped) after its timer, so neither counts as set-up."""
    durations = []
    for i in range(SETUP_REPEATS):
        if i > 0:
            w.teardown()
        start = time.perf_counter()
        w.generate()
        elapsed = time.perf_counter() - start
        if i == 0:
            w.reference()
        start = time.perf_counter()
        w.prepare()
        durations.append(elapsed + time.perf_counter() - start)
    return durations


def measure_operations(w, seconds, min_ops):
    """Repeats the workload's operation for `seconds`, and on until
    `min_ops` succeeded (ten samples beyond the tail percentile); returns
    the samples and counts attempts and failures on `w`."""
    samples = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or (len(samples) < min_ops and w.failed == 0):
        w.attempted += 1
        try:
            samples.append(w.operation(w.attempted - 1))
        except Failure as e:
            w.failed += 1
            log(f"FAILED operation {w.attempted - 1}: {e}")
    return samples


def end_to_end(w, seconds):
    setups = timed_setups(w)
    q = TAIL_Q[w.name]
    if w.name == "serve-mixed":
        load, rss_kb = w.measure(seconds)
        w.attempted, w.failed = load["attempted"], load["failed"]
        metrics, lat = serve_metrics(load["windows"], q)
        metrics["peak_rss_mb"] = rss_kb / 1024.0
        w.notes["response_cache_hit_share"] = load["cached"] / max(load["completed"], 1)
        w.notes["requests"] = load["by_action"]
        w.notes["latency"] = {k: lat[k] for k in ("q", "n", "beyond")}
        w.notes["window_verdicts_per_s"] = [round(win["verdicts"] / win["wall_s"])
                                            for win in load["windows"]]
    else:
        samples = measure_operations(w, seconds, min_samples(q))
        if not samples:
            raise Failure("no operation completed")
        lat = latency_summary([s[0] for s in samples], q)
        metrics = {"verdicts_per_s": statistics.median(n / (ms / 1e3) for ms, n, _, _ in samples),
                   "cpu_ms_per_verdict": statistics.median(c * 1e3 / n for _, n, c, _ in samples),
                   "peak_rss_mb": statistics.median(r for _, _, _, r in samples) / 1024.0,
                   "latency_p50_ms": lat["p50"], "latency_tail_ms": lat["tail"]}
        w.notes["latency"] = {k: lat[k] for k in ("q", "n", "beyond")}
    w.teardown()
    metrics["setup_s"] = statistics.median(setups)
    w.notes["setup_samples_s"] = setups
    return metrics


def serve_metrics(windows, q):
    """serve-mixed's figures and latency summary. Throughput and CPU per
    verdict are medians over the timed phase's windows, each served over a
    connection of its own (see perfbench/src/load.rs). The latencies pool
    every request of the phase, which gives p`q` ten samples beyond it."""
    tick_s = 1.0 / os.sysconf("SC_CLK_TCK")
    lat = latency_summary([x for win in windows for x in win["latencies_ms"]], q)
    return {"verdicts_per_s": statistics.median(win["verdicts"] / win["wall_s"]
                                                for win in windows),
            "cpu_ms_per_verdict": statistics.median(win["cpu_ticks"] * tick_s * 1e3
                                                    / max(win["verdicts"], 1)
                                                    for win in windows),
            "latency_p50_ms": lat["p50"], "latency_tail_ms": lat["tail"]}, lat


def process_start_ms(bins, n=21):
    samples = []
    for i in range(n):
        run = run_measured([bins["hhl"], "--version"], "version")
        if run.code != 0:
            raise Failure("hhl --version failed")
        samples.append(run.wall_s * 1e3)
    return statistics.median(samples)


def traced(w, seconds):
    w.generate()
    w.reference()
    w.prepare()
    metrics = {"process.start_ms": process_start_ms(w.bins)}
    client_ms = None
    if w.name == "serve-mixed":
        # Client-side latency of the real daemon, for the transport share.
        load, _ = w.measure(max(1, seconds // 3))
        client_ms = statistics.median(x for win in load["windows"] for x in win["latencies_ms"])
        if load["failed"]:
            raise Failure(f"{load['failed']} daemon requests failed")
    w.teardown()
    result = tool(w.bins, "trace", "--workload", w.name, "--dir", w.dir,
                  "--seconds", str(max(1, seconds - seconds // 3)),
                  "--seed", str(w.seed), "--spans", os.path.join(WORK, f"{w.name}.spans"))
    metrics.update(result["metrics"])
    metrics["serve.transport_ms"] = (0.0 if client_ms is None
                                     else client_ms - result["request_ms_median"])
    w.notes["trace"] = {k: v for k, v in result.items() if k != "metrics"}
    w.attempted, w.failed = result["attempted"], result["failed"]
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/cli")
            and os.path.isfile(GOLDEN)):
        log("error: run from the root of a full checkout (Cargo.toml, crates/, examples/)")
        sys.exit(2)
    bins = build()
    os.makedirs(WORK, exist_ok=True)
    calibration = tool(bins, "calibrate")["calibration_ms"]
    w = WORKLOAD_CLASSES[args.workload](args.workload, args.seed, bins)
    try:
        if args.trace:
            metrics, units = traced(w, args.seconds), {}
        else:
            metrics, units = end_to_end(w, args.seconds), UNITS
    except Failure as e:
        # A run that cannot finish (reference disagreement, no operation
        # succeeded) still reports itself as incorrect.
        log(f"FAILED: {e}")
        print(json.dumps({"correct": False, "attempted": max(w.attempted, 1),
                          "failed": max(w.failed, 1), "metrics": {}}))
        sys.exit(1)
    finally:
        w.kill()
    calibration_after = tool(bins, "calibrate")["calibration_ms"]

    print(f"workload {w.name}  seed {w.seed}  held-out seed {HELD_OUT_SEED}  "
          f"hardware threads {os.cpu_count()}  jobs {JOBS}  connections "
          f"{CONNS if w.name == 'serve-mixed' else 0}  calibration_ms "
          f"{calibration:.2f}/{calibration_after:.2f}")
    for key, value in sorted(w.notes.items()):
        print(f"  {key}: {json.dumps(value)}")
    attempted, failed = w.attempted, w.failed
    print(f"  failed_frac: {failed / max(attempted, 1):.4f} ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}")
    out = {name: {"value": value, "unit": units.get(name) or unit_of(name)}
           for name, value in metrics.items()}
    ok = failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": out}))
    sys.exit(0 if ok else 1)


def unit_of(name):
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
