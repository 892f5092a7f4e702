//! Seeded workload inputs.
//!
//! Everything the verifier receives is generated here from the workload
//! seed and written under `<dir>/in/`; the benchmark's own bookkeeping
//! (manifest, expected stdout, edit plan) sits beside it in `<dir>/`.
//! Corpora come from [`hhl_bench::corpus::generate_n`]; WP-chain
//! certificates from [`wp_derivation`] + [`emit_script`]. The same seed
//! always yields byte-identical files.

use std::fs;
use std::path::Path;

use hhl_bench::corpus::{generate_n, CorpusEntry};
use hhl_cli::{parse_spec, Mode};
use hhl_core::proof::wp_derivation;
use hhl_lang::rng::Rng;
use hhl_lang::StableHasher;
use hhl_proofs::emit_script;

use crate::json::{str_array, Obj};

/// The benchmark's workloads, in the order `run.py` documents them.
pub const WORKLOADS: [&str; 4] = ["batch-cold", "batch-edit", "replay-sharded", "serve-mixed"];

/// Corpus size of the batch and daemon workloads (1097 files with the
/// certificates).
pub const CORPUS_ENTRIES: usize = 1000;

/// WP-chain certificates per `replay-sharded` pass, and their length range.
pub const CHAINS: usize = 24;
const CHAIN_LEN: (u64, u64) = (16, 96);

/// Edit cycles planned for `batch-edit` — more than any run performs.
pub const EDIT_CYCLES: usize = 1000;

/// The hand-written and emitted example certificates every
/// `replay-sharded` pass replays next to the generated chains.
pub const EXAMPLE_PROOFS: [&str; 4] = ["ni_c1", "gni_c4_violation", "while_sync", "ni_unrolled"];

/// One generated input file.
pub struct InputFile {
    /// Path relative to the checkout root, as passed to `hhl`.
    pub path: String,
    /// File contents.
    pub text: String,
}

/// A workload's generated inputs plus what the benchmark expects of them.
#[derive(Default)]
pub struct Generated {
    /// Every file the verifier may read.
    pub files: Vec<InputFile>,
    /// The files in `hhl batch` argument order.
    pub batch_files: Vec<String>,
    /// Expected verdict (`PASS`/`FAIL`) per entry of `batch_files`.
    pub verdicts: Vec<String>,
    /// Mode per entry of `batch_files` (`check`, `prove`, `verify`,
    /// `replay`).
    pub modes: Vec<String>,
    /// `(spec, certificate)` pairs for `hhl replay` and streamed replays.
    pub pairs: Vec<(String, String)>,
    /// `batch-edit`'s edit plan, one JSON line per cycle.
    pub edits: Vec<String>,
}

/// Derives the corpus seed from the workload seed (a fixed odd-constant
/// mix, so nearby workload seeds give unrelated corpora).
pub fn corpus_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0048_484C
}

fn file_name(entry: &CorpusEntry, ext: &str) -> String {
    format!("{}.{ext}", entry.name)
}

fn spec_mode(text: &str) -> Mode {
    parse_spec(text)
        .unwrap_or_else(|e| panic!("generated spec does not parse: {e}"))
        .mode
}

fn expect_verdict(text: &str) -> &'static str {
    if text.lines().any(|l| l.trim() == "expect: fail") {
        "FAIL"
    } else {
        "PASS"
    }
}

/// Writes a corpus under `in_dir` and returns its files in sorted
/// (shell-glob) order with their expected verdicts and modes.
fn corpus_inputs(seed: u64, in_dir: &str, gen: &mut Generated) {
    let entries = generate_n(corpus_seed(seed), CORPUS_ENTRIES);
    let mut rows: Vec<(String, String, String, String)> = Vec::new();
    for entry in &entries {
        let spec_path = format!("{in_dir}/{}", file_name(entry, "hhl"));
        let mode = spec_mode(&entry.spec).to_string();
        let verdict = expect_verdict(&entry.spec).to_owned();
        rows.push((spec_path.clone(), entry.spec.clone(), verdict.clone(), mode));
        if let Some(cert) = &entry.certificate {
            let cert_path = format!("{in_dir}/{}", file_name(entry, "hhlp"));
            gen.pairs.push((spec_path, cert_path.clone()));
            rows.push((cert_path, cert.clone(), verdict, "replay".to_owned()));
        }
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    for (path, text, verdict, mode) in rows {
        gen.batch_files.push(path.clone());
        gen.verdicts.push(verdict);
        gen.modes.push(mode);
        gen.files.push(InputFile { path, text });
    }
}

/// The expected `hhl batch` stdout: one line per file, all as expected,
/// and the summary line.
pub fn expected_batch_stdout(files: &[String], verdicts: &[String]) -> String {
    let mut out = String::new();
    let mut pass = 0;
    for (path, verdict) in files.iter().zip(verdicts) {
        out.push_str(&format!("{path}: {verdict} (as expected)\n"));
        pass += usize::from(verdict == "PASS");
    }
    let n = files.len();
    out.push_str(&format!(
        "batch summary: {n} file(s): {n} as expected ({pass} pass, {} fail), 0 unexpected, 0 error(s)\n",
        n - pass
    ));
    out
}

/// A WP-chain spec of `len` assignments and its emitted certificate.
pub fn wp_chain(rng: &mut Rng, index: usize, seed: u64, len: usize) -> (String, String) {
    const OPS: [&str; 3] = ["x := x + 1", "x := x * 2", "x := x - 1"];
    let program: Vec<&str> = (0..len).map(|_| *rng.choose(&OPS)).collect();
    let spec = format!(
        "# perfbench WP chain {index} (seed {seed}, {len} steps)\nmode: prove\npre: low(x)\n\
         post: low(x)\nvars: x in 0..1\nexpect: pass\nprogram:\n{}\n",
        program.join("; ")
    );
    let parsed = parse_spec(&spec).expect("chain specs parse");
    let derivation =
        wp_derivation(&parsed.pre, &parsed.cmd, &parsed.post).expect("chains are loop-free");
    let certificate = emit_script(&derivation).expect("WP derivations have a textual form");
    (spec, certificate)
}

fn chain_inputs(seed: u64, in_dir: &str, examples: &Path, gen: &mut Generated) {
    let mut rng = Rng::seed_from_u64(corpus_seed(seed) ^ 0x5245_504C);
    // Stratified lengths: one draw from each of CHAINS equal slices of the
    // range, in seeded order, so every seed replays about the same total
    // number of steps while the individual chains still vary.
    let width = CHAIN_LEN.1 - CHAIN_LEN.0 + 1;
    let mut lens: Vec<usize> = (0..CHAINS as u64)
        .map(|i| {
            let lo = CHAIN_LEN.0 + i * width / CHAINS as u64;
            let hi = CHAIN_LEN.0 + (i + 1) * width / CHAINS as u64 - 1;
            rng.gen_range_inclusive(lo, hi) as usize
        })
        .collect();
    rng.shuffle(&mut lens);
    for (i, len) in lens.into_iter().enumerate() {
        let (spec, cert) = wp_chain(&mut rng, i, seed, len);
        let spec_path = format!("{in_dir}/w{i:03}_chain.hhl");
        let cert_path = format!("{in_dir}/w{i:03}_chain.hhlp");
        gen.files.push(InputFile {
            path: spec_path.clone(),
            text: spec,
        });
        gen.files.push(InputFile {
            path: cert_path.clone(),
            text: cert,
        });
        gen.pairs.push((spec_path, cert_path));
    }
    for name in EXAMPLE_PROOFS {
        let read = |p: std::path::PathBuf| {
            fs::read_to_string(&p).unwrap_or_else(|e| panic!("cannot read {}: {e}", p.display()))
        };
        let spec = read(examples.join("specs").join(format!("{name}.hhl")));
        let cert = read(examples.join("proofs").join(format!("{name}.hhlp")));
        let spec_path = format!("{in_dir}/x_{name}.hhl");
        let cert_path = format!("{in_dir}/x_{name}.hhlp");
        gen.files.push(InputFile {
            path: spec_path.clone(),
            text: spec,
        });
        gen.files.push(InputFile {
            path: cert_path.clone(),
            text: cert,
        });
        gen.pairs.push((spec_path, cert_path));
    }
}

/// `batch-edit`'s plan: cycle `k` makes one semantic edit (a check-mode
/// spec gains the no-op `assume k >= 0`, unique per cycle, so exactly one
/// file re-verifies) and one comment-only edit (another spec's header
/// comment changes; its fingerprint does not, so it must stay a hit).
/// Both edits start from the original text, so every cycle's contents are
/// new and verdicts never change.
fn edit_plan(seed: u64, gen: &mut Generated) {
    let specs: Vec<usize> = (0..gen.batch_files.len())
        .filter(|&i| gen.batch_files[i].ends_with(".hhl"))
        .collect();
    // Light check-mode specs: an edit re-verifies one file the way a user's
    // edit would, not one of the corpus's deliberately heavy sweeps.
    let semantic: Vec<usize> = specs
        .iter()
        .copied()
        .filter(|&i| gen.modes[i] == "check" && !gen.batch_files[i].contains("heavy_loop"))
        .collect();
    let original = |i: usize| -> &str {
        let path = &gen.batch_files[i];
        &gen.files
            .iter()
            .find(|f| &f.path == path)
            .expect("batch files were generated")
            .text
    };
    let mut rng = Rng::seed_from_u64(corpus_seed(seed) ^ 0x4544_4954);
    let mut lines = Vec::with_capacity(EDIT_CYCLES);
    for k in 0..EDIT_CYCLES {
        let f = *rng.choose(&semantic);
        let g = loop {
            let g = *rng.choose(&specs);
            if g != f {
                break g;
            }
        };
        let edited = format!("{}; assume {k} >= 0\n", original(f).trim_end());
        let text = original(g);
        let (header, rest) = text.split_once('\n').expect("specs have a header line");
        let commented = format!("{header} (comment edit {k})\n{rest}");
        lines.push(
            Obj::default()
                .num("cycle", k)
                .str("semantic", &gen.batch_files[f])
                .str("semantic_text", &edited)
                .str("comment", &gen.batch_files[g])
                .str("comment_text", &commented)
                .render(),
        );
    }
    gen.edits = lines;
}

/// Generates `workload`'s inputs for `seed`; `examples` is the checkout's
/// `examples/` directory (the example certificates are copied from it).
pub fn generate(workload: &str, seed: u64, in_dir: &str, examples: &Path) -> Generated {
    let mut gen = Generated::default();
    match workload {
        "batch-cold" | "serve-mixed" => corpus_inputs(seed, in_dir, &mut gen),
        "batch-edit" => {
            corpus_inputs(seed, in_dir, &mut gen);
            edit_plan(seed, &mut gen);
        }
        "replay-sharded" => chain_inputs(seed, in_dir, examples, &mut gen),
        other => panic!("unknown workload {other:?}"),
    }
    gen
}

/// Digest over every generated file's path and bytes.
pub fn inputs_digest(files: &[InputFile]) -> String {
    let mut h = StableHasher::new();
    for f in files {
        h.write_str(&f.path);
        h.write_str(&f.text);
    }
    h.finish().to_string()
}

/// Replaces `dir` with the inputs and the benchmark's bookkeeping:
/// `in/…` (the verifier's inputs), `manifest.json`, and for the batch
/// workloads `expected.stdout`; `edits.jsonl` for `batch-edit`.
pub fn write(workload: &str, seed: u64, dir: &Path, gen: &Generated) -> std::io::Result<String> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir.join("in"))?;
    for f in &gen.files {
        fs::write(&f.path, &f.text)?;
    }
    let digest = inputs_digest(&gen.files);
    let flat_pairs: Vec<String> = gen
        .pairs
        .iter()
        .flat_map(|(s, c)| [s.clone(), c.clone()])
        .collect();
    let manifest = Obj::default()
        .str("workload", workload)
        .num("seed", seed)
        .str("inputs_digest", &digest)
        .raw("files", str_array(&gen.batch_files))
        .raw("verdicts", str_array(&gen.verdicts))
        .raw("modes", str_array(&gen.modes))
        .raw("pairs", str_array(&flat_pairs))
        .num("edit_cycles", gen.edits.len());
    fs::write(dir.join("manifest.json"), manifest.render() + "\n")?;
    if !gen.batch_files.is_empty() {
        fs::write(
            dir.join("expected.stdout"),
            expected_batch_stdout(&gen.batch_files, &gen.verdicts),
        )?;
    }
    if !gen.edits.is_empty() {
        fs::write(dir.join("edits.jsonl"), gen.edits.join("\n") + "\n")?;
    }
    Ok(digest)
}
