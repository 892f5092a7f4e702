//! `hhl-perfbench`: the in-process half of the repository benchmark.
//!
//! `perfbench/run.py` drives the real `hhl` binary and `hhl serve`; this
//! tool does the work that needs the verifier's library API:
//!
//! * `gen --workload W --seed N --dir D --examples DIR` — write the
//!   workload's seeded inputs under `D/in/` plus the manifest, the expected
//!   batch stdout and the edit plan; prints the inputs digest.
//! * `reference --dir D --golden FILE` — judge every check-mode input with
//!   the independent reference evaluator, re-check certificates by
//!   whole-tree replay, check the 130-entry default-seed corpus against the
//!   golden report, and freeze the replay workload's expected stdout.
//!   Exit 1 on any disagreement.
//! * `serve-load --dir D --socket S --seconds T --seed N --pid P
//!   --lifetime L` — the closed-loop client of `serve-mixed`
//!   (`load::CONNS` connections) for the L-th daemon of a run, process id
//!   P, reported per `load::WINDOWS` window.
//! * `trace --workload W --dir D --seconds T --spans FILE` — the traced
//!   in-process replay of one workload; prints per-layer metrics.
//! * `calibrate` — a fixed CPU loop, timed, so results from different
//!   windows and machines can be normalised.
//!
//! Every command prints one JSON object as its last stdout line.

mod gen;
mod json;
mod load;
mod reference;
mod spans;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use hhl_bench::corpus::{generate_n, DEFAULT_SEED};
use hhl_cli::api::{parse_json, Json};
use hhl_cli::{parse_spec, run_replay, Action, Engine, Request, Verdict};

use crate::json::{get_str, get_strs, Obj};

/// Parsed `--key value` arguments.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("unexpected argument {key:?}"));
            };
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            out.push((name.to_owned(), value.clone()));
        }
        Ok(Args(out))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("--{key} needs a number"))
    }
}

/// Reads and parses `D/manifest.json`.
pub fn read_manifest(dir: &Path) -> Result<Json, String> {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_json(text.trim_end())
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn cmd_gen(args: &Args) -> Result<String, String> {
    let workload = args.get("workload")?;
    if !gen::WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed: u64 = args.num("seed")?;
    let dir = PathBuf::from(args.get("dir")?);
    let examples = PathBuf::from(args.get("examples")?);
    let start = Instant::now();
    let in_dir = format!("{}/in", dir.display());
    let generated = gen::generate(workload, seed, &in_dir, &examples);
    let digest = gen::write(workload, seed, &dir, &generated).map_err(|e| e.to_string())?;
    Ok(Obj::default()
        .str("inputs_digest", &digest)
        .num("files", generated.files.len())
        .num("gen_s", start.elapsed().as_secs_f64())
        .render())
}

/// Reference verdicts for a list of `(path, text)` check-mode specs:
/// returns the paths whose reference verdict differs from `expected`.
fn reference_mismatches<'a>(
    specs: impl Iterator<Item = (&'a str, String, &'a str)>,
) -> Result<(usize, Vec<String>), String> {
    let mut checked = 0;
    let mut mismatches = Vec::new();
    for (path, text, expected) in specs {
        let spec = parse_spec(&text).map_err(|e| format!("{path}: {e}"))?;
        let verdict = reference::check_verdict(&spec)?;
        checked += 1;
        if verdict != expected {
            mismatches.push(format!("{path}: reference {verdict}, expected {expected}"));
        }
    }
    Ok((checked, mismatches))
}

/// The golden check: the default-seed 130-entry corpus, judged by the
/// reference (check mode) and its frozen `expect:` lines (other modes),
/// must reproduce `examples/corpus_batch_golden.txt` byte for byte.
fn golden_mismatches(golden: &str) -> Result<Vec<String>, String> {
    let entries = generate_n(DEFAULT_SEED, 130);
    let mut rows: Vec<(String, String)> = Vec::new();
    for entry in &entries {
        let spec = parse_spec(&entry.spec).map_err(|e| format!("{}: {e}", entry.name))?;
        let verdict = match spec.mode {
            hhl_cli::Mode::Check => reference::check_verdict(&spec)?.to_owned(),
            _ if entry.spec.contains("expect: fail") => "FAIL".to_owned(),
            _ => "PASS".to_owned(),
        };
        rows.push((
            format!("examples/corpus/{}.hhl", entry.name),
            verdict.clone(),
        ));
        if entry.certificate.is_some() {
            rows.push((format!("examples/corpus/{}.hhlp", entry.name), verdict));
        }
    }
    rows.sort();
    let (files, verdicts): (Vec<String>, Vec<String>) = rows.into_iter().unzip();
    let built = gen::expected_batch_stdout(&files, &verdicts);
    Ok(built
        .lines()
        .zip(golden.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("golden: {b:?} but reference gives {a:?}"))
        .chain(
            (built.lines().count() != golden.lines().count())
                .then(|| "golden: line count differs from the reference corpus".to_owned()),
        )
        .collect())
}

fn cmd_reference(args: &Args) -> Result<(String, bool), String> {
    let dir = PathBuf::from(args.get("dir")?);
    let start = Instant::now();
    let manifest = read_manifest(&dir)?;
    let workload = get_str(&manifest, "workload")?.to_owned();
    let files = get_strs(&manifest, "files")?;
    let verdicts = get_strs(&manifest, "verdicts")?;
    let modes = get_strs(&manifest, "modes")?;
    let pairs = get_strs(&manifest, "pairs")?;

    let check_specs = files
        .iter()
        .zip(&verdicts)
        .zip(&modes)
        .filter(|(_, mode)| *mode == "check")
        .map(|((path, verdict), _)| Ok((path.as_str(), read(path)?, verdict.as_str())))
        .collect::<Result<Vec<_>, String>>()?;
    let (checked, mut mismatches) = reference_mismatches(check_specs.into_iter())?;

    // Certificates: whole-tree replay (no sharding, no store) must pass.
    let mut replays = 0;
    let mut whole_reports = Vec::new();
    for pair in pairs.chunks(2) {
        let spec = parse_spec(&read(&pair[0])?).map_err(|e| format!("{}: {e}", pair[0]))?;
        match run_replay(&spec, &read(&pair[1])?) {
            Ok(outcome) if outcome.verdict == Verdict::Pass && outcome.as_expected => {
                whole_reports.push(outcome.to_string());
            }
            Ok(outcome) => mismatches.push(format!("{}: replay {}", pair[1], outcome.verdict)),
            Err(e) => mismatches.push(format!("{}: replay error {e}", pair[1])),
        }
        replays += 1;
    }

    // `replay-sharded` prints full reports: freeze the expected stdout from
    // a one-shot engine and require every whole-tree report inside it.
    if workload == "replay-sharded" {
        let mut req = Request::new(Action::Replay, pairs.clone());
        req.jobs = Some(1);
        let response = Engine::one_shot().handle(&req);
        if response.exit_code != 0 {
            mismatches.push(format!("reference replay exited {}", response.exit_code));
        }
        for report in &whole_reports {
            if !response.stdout.contains(report.as_str()) {
                mismatches.push("sharded report differs from whole-tree replay".to_owned());
            }
        }
        std::fs::write(dir.join("expected.stdout"), &response.stdout).map_err(|e| e.to_string())?;
    }

    let golden_path = args.get("golden")?;
    let mut golden_checked = false;
    if workload != "replay-sharded" {
        mismatches.extend(golden_mismatches(&read(golden_path)?)?);
        golden_checked = true;
    }
    let ok = mismatches.is_empty();
    for m in &mismatches {
        eprintln!("reference mismatch: {m}");
    }
    Ok((
        Obj::default()
            .num("checked", checked)
            .num("replays", replays)
            .raw("golden_checked", golden_checked.to_string())
            .num("mismatches", mismatches.len())
            .num("reference_s", start.elapsed().as_secs_f64())
            .render(),
        ok,
    ))
}

/// A fixed integer loop (xorshift over 2^24 steps), timed. Its duration
/// tracks the machine's single-thread speed in the same window as the
/// measurement it accompanies.
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..(1u32 << 24) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

fn run(argv: &[String]) -> Result<(String, bool), String> {
    let (cmd, rest) = argv
        .split_first()
        .ok_or("usage: hhl-perfbench <command> [--key value]...")?;
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "gen" => cmd_gen(&args).map(|s| (s, true)),
        "reference" => cmd_reference(&args),
        "serve-load" => load::run(&args),
        "trace" => trace::run(&args),
        "calibrate" => {
            let mut samples: Vec<f64> = (0..5).map(|_| calibrate()).collect();
            samples.sort_by(f64::total_cmp);
            Ok((
                Obj::default().num("calibration_ms", samples[2]).render(),
                true,
            ))
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    hhl_driver::pool::tune_allocator();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok((line, ok)) => {
            println!("{line}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples");
        for workload in gen::WORKLOADS {
            let a = gen::generate(workload, 7, "w/in", &examples);
            let b = gen::generate(workload, 7, "w/in", &examples);
            let c = gen::generate(workload, 8, "w/in", &examples);
            assert_eq!(gen::inputs_digest(&a.files), gen::inputs_digest(&b.files));
            assert_eq!(a.edits, b.edits, "{workload}");
            assert_ne!(gen::inputs_digest(&a.files), gen::inputs_digest(&c.files));
        }
    }

    #[test]
    fn reference_agrees_with_check_triple_on_the_golden_prefix() {
        for entry in generate_n(DEFAULT_SEED, 130) {
            let spec = parse_spec(&entry.spec).unwrap();
            if spec.mode != hhl_cli::Mode::Check {
                continue;
            }
            let triple =
                hhl_core::Triple::new(spec.pre.clone(), spec.cmd.clone(), spec.post.clone());
            let checker = match hhl_core::check_triple(&triple, &spec.config) {
                Ok(()) => "PASS",
                Err(_) => "FAIL",
            };
            assert_eq!(
                reference::check_verdict(&spec).unwrap(),
                checker,
                "{}",
                entry.name
            );
        }
    }

    #[test]
    fn the_golden_report_is_reproduced() {
        let golden =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/corpus_batch_golden.txt");
        let golden = std::fs::read_to_string(golden).unwrap();
        assert_eq!(golden_mismatches(&golden).unwrap(), Vec::<String>::new());
        let flipped = golden.replacen("PASS (as expected)", "FAIL (as expected)", 1);
        assert_eq!(golden_mismatches(&flipped).unwrap().len(), 1);
    }
}
