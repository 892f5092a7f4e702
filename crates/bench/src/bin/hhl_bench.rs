//! The `hhl-bench` tool: seeded corpus generation and the perf-regression
//! gate.
//!
//! * `hhl-bench corpus [--out DIR] [--seed N] [--entries N]` — write the
//!   deterministic batch corpus (specs + replay certificates) into `DIR`
//!   (default `examples/corpus`, 130 entries). Regenerating with the same
//!   seed is byte-identical, which CI uses to detect drift against the
//!   checked-in corpus; `--entries` scales the corpus prefix-stably (the
//!   first 130 entries never change), which CI uses for the 1000-entry
//!   scheduling workload.
//! * `hhl-bench compare [--full] [--max-regress PCT] <BENCH_*.json>…` —
//!   re-run each baseline's suite (fast mode unless `--full`), print a
//!   delta table, and exit `1` if any series regressed by more than `PCT`
//!   percent (default 35). Missing/new series are reported but never fail
//!   the gate (they mean the suite changed shape, not that it got slower).
//!   The driver suite additionally enforces the parallel-scaling gate on
//!   `speedup_jobs8_vs_jobs1`: the recorded baseline curve must satisfy
//!   the contract exactly (>= 1.0) and the fresh fast-mode re-measure
//!   must stay above a noise floor (0.90). The same two-check shape gates
//!   `speedup_pool_resident_vs_burst` — the resident worker pool must
//!   never be slower per submission than the scoped per-call burst — and
//!   `speedup_serve_concurrent_interleaved_vs_serial` — two requests
//!   dispatched concurrently against one engine must never be slower than
//!   draining them back-to-back.
//!
//! Exit codes: `0` clean, `1` regression detected, `2` usage/IO errors.

use std::path::PathBuf;
use std::process::ExitCode;

use hhl_bench::{corpus, suites};

const USAGE: &str = "usage: hhl-bench <command> [args]

  hhl-bench corpus [--out DIR] [--seed N] [--entries N]
      Generate the deterministic batch-verification corpus (.hhl specs,
      replay entries with sibling .hhlp certificates) into DIR (default
      examples/corpus, 130 entries). Same seed => byte-identical files;
      --entries scales the corpus with a byte-identical 130-entry prefix.

  hhl-bench compare [--full] [--max-regress PCT] <BENCH_*.json>...
      Re-run each baseline's measurement suite (fast mode by default) and
      diff medians against the checked-in baseline, failing on any series
      more than PCT percent slower (default 35). The driver suite also
      fails when the recorded speedup_jobs8_vs_jobs1,
      speedup_pool_resident_vs_burst or
      speedup_serve_concurrent_interleaved_vs_serial is below 1.0 or a
      fresh re-measure drops below 0.90, and prints slowest-file /
      slowest-rule telemetry tables from its instrumented batch pass.

  hhl-bench report-check <report.json>...
      Validate `hhl batch --report json` output: the document must carry
      the hhl-report v1 schema, round-trip byte-identically through the
      parser, and keep its summary consistent with its per-file entries.

  Exit codes: 0 clean, 1 regression, 2 usage/IO/validation errors.";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n\n{USAGE}");
    ExitCode::from(2)
}

fn cmd_corpus(args: &[String]) -> ExitCode {
    let mut out_dir = PathBuf::from("examples/corpus");
    let mut seed = corpus::DEFAULT_SEED;
    let mut entries_n = 130usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return usage_error("--out needs a directory"),
            },
            "--seed" => match it.next().map(|s| parse_seed(s)) {
                Some(Ok(s)) => seed = s,
                _ => return usage_error("--seed needs an integer (decimal or 0x-hex)"),
            },
            "--entries" => match it.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => entries_n = n,
                _ => return usage_error("--entries needs a positive integer"),
            },
            other => return usage_error(&format!("unknown corpus argument {other:?}")),
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let entries = corpus::generate_n(seed, entries_n);
    let (mut specs, mut certs) = (0usize, 0usize);
    for entry in &entries {
        let spec_path = out_dir.join(format!("{}.hhl", entry.name));
        if let Err(e) = std::fs::write(&spec_path, &entry.spec) {
            eprintln!("error: cannot write {}: {e}", spec_path.display());
            return ExitCode::from(2);
        }
        specs += 1;
        if let Some(cert) = &entry.certificate {
            let cert_path = out_dir.join(format!("{}.hhlp", entry.name));
            if let Err(e) = std::fs::write(&cert_path, cert) {
                eprintln!("error: cannot write {}: {e}", cert_path.display());
                return ExitCode::from(2);
            }
            certs += 1;
        }
    }
    println!(
        "corpus: {specs} spec(s) + {certs} certificate(s) written to {} (seed {seed:#x})",
        out_dir.display()
    );
    ExitCode::SUCCESS
}

fn parse_seed(s: &str) -> Result<u64, std::num::ParseIntError> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
}

/// Fresh `(name, ns)` series, `(key, value)` meta pairs, and rendered
/// telemetry table lines from a re-run.
type FreshSuite = (Vec<(String, u128)>, Vec<(String, String)>, Vec<String>);

/// Re-runs the suite a baseline belongs to and returns the fresh series
/// plus the fresh `meta` pairs and telemetry tables (both empty for
/// suites without them).
fn rerun(kind: &str, fast: bool) -> Option<FreshSuite> {
    match kind {
        "proofs" => Some((suites::proofs(fast), Vec::new(), Vec::new())),
        "driver" => {
            let suite = suites::driver(fast);
            Some((suite.results, suite.meta, suite.tables))
        }
        _ => None,
    }
}

/// Floor for the *freshly measured* `speedup_jobs8_vs_jobs1`: fast mode
/// re-measures with few repeats on a possibly loaded runner, so the fresh
/// point only fails on a real regression (the fixed jobs>1 slowdown sat at
/// 0.66–0.89), never on measurement noise around parity.
const FRESH_SCALING_FLOOR: f64 = 0.90;

/// The parallel-scaling gate, two checks on `speedup_jobs8_vs_jobs1`:
/// the **recorded baseline** curve is deterministic checked-in data and
/// must satisfy the scaling contract exactly (>= 1.0 — extra workers over
/// the contention-free caches may be a wash on a single hardware thread,
/// but they must never make the batch *slower*); the **fresh** fast-mode
/// re-measure must stay above [`FRESH_SCALING_FLOOR`]. Returns the number
/// of gate failures.
fn scaling_gate(baseline_meta: &[(String, String)], fresh_meta: &[(String, String)]) -> usize {
    let top = format!(
        "speedup_jobs{}_vs_jobs1",
        suites::SCALING_JOBS[suites::SCALING_JOBS.len() - 1]
    );
    let curve: Vec<&(String, String)> = fresh_meta
        .iter()
        .filter(|(k, _)| k.starts_with("speedup_jobs") && k.ends_with("_vs_jobs1"))
        .collect();
    if curve.is_empty() {
        // Not the driver suite: nothing to gate.
        return 0;
    }
    let rendered: Vec<String> = curve.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("scaling curve (fresh): {}", rendered.join(" "));
    two_point_gate(&top, "parallel scaling", baseline_meta, fresh_meta)
}

/// The pool-executor gate on `speedup_pool_resident_vs_burst`: submitting
/// to the resident pool must never cost more than spawning a scoped burst
/// (recorded >= 1.0 exactly; fresh re-measure above the same noise floor
/// as the scaling curve). Skipped for suites whose fresh meta lacks the
/// key (only the driver suite measures it).
fn pool_gate(baseline_meta: &[(String, String)], fresh_meta: &[(String, String)]) -> usize {
    let key = "speedup_pool_resident_vs_burst";
    let fresh = fresh_meta.iter().find(|(k, _)| k == key);
    let Some((_, value)) = fresh else {
        return 0;
    };
    println!("pool executor (fresh): {key}={value}");
    two_point_gate(key, "pool executor", baseline_meta, fresh_meta)
}

/// The cross-request scheduling gate on
/// `speedup_serve_concurrent_interleaved_vs_serial`: two requests
/// dispatched concurrently against one engine must never be slower than
/// draining them back-to-back (recorded >= 1.0 exactly; fresh
/// re-measure above the shared noise floor). Skipped for suites whose
/// fresh meta lacks the key (only the driver suite measures it).
fn serve_concurrent_gate(
    baseline_meta: &[(String, String)],
    fresh_meta: &[(String, String)],
) -> usize {
    let key = "speedup_serve_concurrent_interleaved_vs_serial";
    let fresh = fresh_meta.iter().find(|(k, _)| k == key);
    let Some((_, value)) = fresh else {
        return 0;
    };
    println!("serve concurrency (fresh): {key}={value}");
    two_point_gate(key, "serve concurrency", baseline_meta, fresh_meta)
}

/// The shared two-check gate shape: the **recorded baseline** point is
/// deterministic checked-in data and must satisfy its contract exactly
/// (>= 1.0); the **fresh** fast-mode re-measure only fails below
/// [`FRESH_SCALING_FLOOR`]. Returns the number of failures.
fn two_point_gate(
    key: &str,
    what: &str,
    baseline_meta: &[(String, String)],
    fresh_meta: &[(String, String)],
) -> usize {
    let point = |meta: &[(String, String)]| {
        meta.iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse::<f64>().ok())
    };
    let mut failures = 0;
    match point(baseline_meta) {
        Some(recorded) if recorded < 1.0 => {
            eprintln!("{what} contract broken: recorded {key} = {recorded:.2} < 1.00");
            failures += 1;
        }
        Some(_) => {}
        None => {
            eprintln!("{what} gate: baseline meta lacks {key} (regenerate the baseline)");
            failures += 1;
        }
    }
    match point(fresh_meta) {
        Some(fresh) if fresh < FRESH_SCALING_FLOOR => {
            eprintln!("{what} regressed: fresh {key} = {fresh:.2} < {FRESH_SCALING_FLOOR:.2}");
            failures += 1;
        }
        Some(_) => {}
        None => {
            eprintln!("{what} gate: fresh meta lacks {key}");
            failures += 1;
        }
    }
    failures
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut fast = true;
    let mut max_regress = 35.0f64;
    let mut baselines = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => fast = false,
            "--max-regress" => match it.next().map(|s| s.parse::<f64>()) {
                Some(Ok(pct)) if pct > 0.0 => max_regress = pct,
                _ => return usage_error("--max-regress needs a positive percentage"),
            },
            path => baselines.push(path.to_owned()),
        }
    }
    if baselines.is_empty() {
        return usage_error("`hhl-bench compare` needs at least one baseline file");
    }

    let mut regressions = 0usize;
    for path in &baselines {
        let json = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let parsed = suites::parse_bench_kind(&json).and_then(|kind| {
            Ok((
                kind,
                suites::parse_results(&json)?,
                suites::parse_meta(&json)?,
            ))
        });
        let (kind, old, baseline_meta) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("error: {path}: malformed baseline: {e}");
                return ExitCode::from(2);
            }
        };
        if old.is_empty() {
            eprintln!("error: {path}: no results to compare");
            return ExitCode::from(2);
        }
        let Some((new, new_meta, tables)) = rerun(&kind, fast) else {
            eprintln!("error: {path}: unknown bench kind {kind:?}");
            return ExitCode::from(2);
        };

        println!(
            "== {path} ({kind} suite, {} mode, gate {max_regress:.0}%)",
            if fast { "fast" } else { "full" }
        );
        println!(
            "{:<44} {:>12} {:>12} {:>9}",
            "series", "baseline", "now", "delta"
        );
        for (name, old_ns) in &old {
            match new.iter().find(|(n, _)| n == name) {
                Some((_, new_ns)) => {
                    let delta = (*new_ns as f64 / (*old_ns).max(1) as f64 - 1.0) * 100.0;
                    let flag = if delta > max_regress {
                        regressions += 1;
                        "  REGRESSED"
                    } else {
                        ""
                    };
                    println!("{name:<44} {old_ns:>10}ns {new_ns:>10}ns {delta:>+8.1}%{flag}");
                }
                None => println!("{name:<44} {old_ns:>10}ns {:>12} {:>9}", "gone", "-"),
            }
        }
        for (name, new_ns) in &new {
            if !old.iter().any(|(n, _)| n == name) {
                println!("{name:<44} {:>12} {new_ns:>10}ns {:>9}", "new", "-");
            }
        }
        regressions += scaling_gate(&baseline_meta, &new_meta);
        regressions += pool_gate(&baseline_meta, &new_meta);
        regressions += serve_concurrent_gate(&baseline_meta, &new_meta);
        // Telemetry tables from the fresh instrumented pass: where the
        // batch spent its time, by file and by rule. Informational only —
        // timings never gate.
        for line in &tables {
            println!("{line}");
        }
        println!();
    }

    if regressions > 0 {
        eprintln!("{regressions} series regressed beyond the gate");
        ExitCode::from(1)
    } else {
        println!("no regression beyond the gate");
        ExitCode::SUCCESS
    }
}

/// Validates one `hhl batch --report json` document: schema, parse ∘ emit
/// round-trip identity, and summary-vs-files consistency. Returns a
/// human-readable failure description on the first violated property.
fn check_report(json: &str) -> Result<hhl_driver::ReportDoc, String> {
    let doc = hhl_driver::metrics::parse_report(json)?;
    let rendered = hhl_driver::metrics::render_report(&doc);
    if json.trim_end() != rendered.trim_end() {
        return Err("document does not round-trip through parse ∘ render".to_owned());
    }
    let summary = &doc.summary;
    if summary.files != doc.files.len() as u64 {
        return Err(format!(
            "summary says {} file(s) but {} entries are listed",
            summary.files,
            doc.files.len()
        ));
    }
    let by_status = |status: &str| doc.files.iter().filter(|f| f.status == status).count() as u64;
    if summary.unexpected != by_status("unexpected") || summary.errors != by_status("error") {
        return Err("summary counts disagree with per-file statuses".to_owned());
    }
    for entry in &doc.files {
        for (stage, ns) in &entry.stages {
            if *ns == 0 {
                return Err(format!("{}: zero-span {stage} stage recorded", entry.path));
            }
        }
    }
    Ok(doc)
}

fn cmd_report_check(args: &[String]) -> ExitCode {
    if args.is_empty() {
        return usage_error("`hhl-bench report-check` needs at least one report file");
    }
    for path in args {
        let json = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match check_report(&json) {
            Ok(doc) => println!(
                "{path}: ok — {} file(s), {} stage serie(s), {} rule(s)",
                doc.summary.files,
                doc.stages.len(),
                doc.rules.len()
            ),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // `compare --fast` re-runs the driver suite in-process; cap malloc
    // arenas before its first pool burst so the gate measures scheduling,
    // not allocator page re-faulting (see hhl_driver::tune_allocator).
    hhl_driver::tune_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("report-check") => cmd_report_check(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
