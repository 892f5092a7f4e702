//! Differential test harness for incremental re-checking.
//!
//! The persistent verdict store converts "unchanged spec" into "replayed
//! verdict", so a wrong fingerprint silently converts *stale* verdicts into
//! unsoundness. This suite attacks that risk head-on with seeded
//! corpus-mutation loops: starting from a generated corpus on disk, each
//! round edits exactly one spec — a program tweak, an assertion tweak, a
//! model tweak, or a whitespace/comment-only tweak — then runs the batch
//! warm against the accumulated cache and cold from scratch, asserting:
//!
//! 1. the warm (incremental) report is **byte-identical** to the
//!    from-scratch report — caching never changes any output;
//! 2. only the semantically-changed file re-verifies (content-addressed:
//!    unchanged files replay their verdicts);
//! 3. whitespace/comment-only edits hit the cache (fingerprints cover
//!    parse trees, not bytes).
//!
//! A second group corrupts the on-disk store — truncation, bit flips,
//! wrong schema versions, torn memo snapshots — and asserts every case
//! degrades to a miss + re-verify with the exact same report and exit
//! code: never a panic, never a replayed stale verdict.

mod common;

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use hhl_bench::corpus::{self, CorpusEntry};
use hhl_cli::batch::{run_batch, BatchOptions, BatchRun};
use hhl_cli::{parse_spec, spec_fingerprint};
use hhl_driver::store::VerdictStore;

/// One shared corpus generation per test process (generation runs the real
/// engines for the light families, which is the expensive part in debug).
fn light_entries() -> &'static [CorpusEntry] {
    static ENTRIES: OnceLock<Vec<CorpusEntry>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        corpus::generate(corpus::DEFAULT_SEED)
            .into_iter()
            .filter(|e| !e.name.contains("heavy_loop"))
            .collect()
    })
}

/// A corpus instance on disk plus the file list handed to `hhl batch`.
struct DiskCorpus {
    dir: PathBuf,
    files: Vec<String>,
}

/// Writes a light slice of the generated corpus (heavy sweeps excluded to
/// keep debug-mode runs affordable), including replay pairs, spanning every
/// light family.
fn light_corpus(tag: &str) -> DiskCorpus {
    let dir = std::env::temp_dir().join(format!("hhl-incr-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("corpus dir");
    let mut files = Vec::new();
    for entry in light_entries().iter().step_by(4) {
        let spec = dir.join(format!("{}.hhl", entry.name));
        fs::write(&spec, &entry.spec).expect("write spec");
        files.push(spec.to_string_lossy().into_owned());
        if let Some(cert) = &entry.certificate {
            let path = dir.join(format!("{}.hhlp", entry.name));
            fs::write(&path, cert).expect("write certificate");
            files.push(path.to_string_lossy().into_owned());
        }
    }
    assert!(files.len() >= 20, "slice too small: {}", files.len());
    DiskCorpus { dir, files }
}

fn store_at(dir: &Path, fresh: bool) -> Arc<VerdictStore> {
    Arc::new(VerdictStore::open(dir, fresh).expect("store opens"))
}

fn batch_with(files: &[String], store: &Arc<VerdictStore>) -> BatchRun {
    run_batch(
        files,
        &BatchOptions {
            jobs: 2,
            store: Some(store.clone()),
            memo_store: Some(store.clone()),
            ..BatchOptions::default()
        },
    )
}

/// Runs the corpus with no store at all — the from-scratch ground truth
/// every incremental run must reproduce byte-for-byte.
fn ground_truth(files: &[String]) -> String {
    run_batch(
        files,
        &BatchOptions {
            jobs: 2,
            ..BatchOptions::default()
        },
    )
    .report()
    .to_string()
}

/// The fingerprint of one on-disk work unit, via the same public API the
/// batch driver uses (certificate siblings folded in for `.hhlp` files).
fn fingerprint_of(path: &str) -> String {
    if let Some(stem) = path.strip_suffix(".hhlp") {
        let spec_src = fs::read_to_string(format!("{stem}.hhl")).expect("sibling spec");
        let cert = fs::read_to_string(path).expect("certificate");
        let spec = parse_spec(&spec_src).expect("sibling parses");
        spec_fingerprint(&spec, Some(&cert)).to_string()
    } else {
        let src = fs::read_to_string(path).expect("spec");
        let spec = parse_spec(&src).expect("spec parses");
        spec_fingerprint(&spec, None).to_string()
    }
}

/// The four seeded edit kinds. All preserve parseability and verdicts;
/// the first three change the fingerprint, the last must not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Edit {
    Program,
    Assertion,
    Model,
    WhitespaceOnly,
}

impl Edit {
    fn pick(i: u64) -> Edit {
        match i % 4 {
            0 => Edit::Program,
            1 => Edit::Assertion,
            2 => Edit::Model,
            _ => Edit::WhitespaceOnly,
        }
    }

    fn apply(self, src: &str) -> String {
        match self {
            // `; skip` appends a Seq(_, Skip) node: a new program tree with
            // identical semantics — the fingerprint must move, the verdict
            // must not.
            Edit::Program => format!("{src}; skip\n"),
            // Conjoining `&& true` onto the postcondition: new tree, same
            // meaning.
            Edit::Assertion => {
                let line = src
                    .lines()
                    .find(|l| l.trim_start().starts_with("post:"))
                    .expect("specs have a post line")
                    .to_owned();
                let post = line.trim_start().strip_prefix("post:").unwrap().trim();
                src.replacen(&line, &format!("post: ({post}) && true"), 1)
            }
            // An extra fuel line before `program:` (later keys win in the
            // spec parser): the model fingerprint moves; fuel 9 is ample
            // for every light family, so verdicts hold.
            Edit::Model => src.replacen("program:", "fuel: 9\nprogram:", 1),
            // Comment + blank line + stretched key spacing: bytes change,
            // the parse tree does not.
            Edit::WhitespaceOnly => format!(
                "# touched, semantically inert\n\n{}",
                src.replacen("mode: ", "mode:   ", 1)
            ),
        }
    }
}

/// Picks a mutable standalone `.hhl` spec — never a member of a replay
/// pair (editing a spec out from under its certificate is a certificate
/// error by design, not a silent cache event).
fn pick_target(files: &[String], salt: u64) -> String {
    let standalone: Vec<&String> = files
        .iter()
        .filter(|f| f.ends_with(".hhl") && !files.contains(&format!("{f}p")))
        .collect();
    standalone[(salt as usize).wrapping_mul(7) % standalone.len()].clone()
}

#[test]
fn warm_run_is_fully_cached_and_byte_identical() {
    let corpus = light_corpus("warm");
    let cache = corpus.dir.join("cache");
    let truth = ground_truth(&corpus.files);

    let cold = batch_with(&corpus.files, &store_at(&cache, false));
    assert_eq!(cold.report().exit_code(), 0, "{}", cold.report());
    assert_eq!(cold.report().to_string(), truth);

    let memo = cache.join(hhl_driver::store::MEMO_FILE);
    let cold_memo = fs::read(&memo).expect("memo snapshot exists");
    let warm = batch_with(&corpus.files, &store_at(&cache, false));
    // Nothing was evaluated, so the snapshot is left as the cold run wrote it.
    assert!(warm.memo_export.unchanged, "{:?}", warm.memo_export);
    assert_eq!(fs::read(&memo).unwrap(), cold_memo);
    let stats = warm.store.expect("store configured");
    assert_eq!(
        stats.misses, 0,
        "warm run must re-verify nothing: {stats:?}"
    );
    assert_eq!(stats.hits, corpus.files.len() as u64);
    assert_eq!(warm.report().to_string(), truth);
    assert!(warm.memo_import.loaded > 0, "{:?}", warm.memo_import);
    assert_eq!(warm.memo_import.rejected, 0, "{:?}", warm.memo_import);
}

#[test]
fn seeded_mutation_loop_reverifies_only_semantic_changes() {
    let corpus = light_corpus("mutate");
    let cache = corpus.dir.join("cache");
    let cold = batch_with(&corpus.files, &store_at(&cache, false));
    assert_eq!(cold.report().exit_code(), 0, "{}", cold.report());

    // Content-addressing means "exactly one re-verification" really means
    // "exactly the never-before-seen fingerprints re-verify": track every
    // fingerprint the store has answered or recorded so far.
    let mut seen: HashSet<String> = corpus.files.iter().map(|f| fingerprint_of(f)).collect();

    common::run_cases(8, 0xD1FF, |rng, i| {
        let kind = Edit::pick(i);
        let target = pick_target(&corpus.files, rng.gen_below(1 << 16) ^ i);
        let before_fp = fingerprint_of(&target);
        let src = fs::read_to_string(&target).expect("target readable");
        fs::write(&target, kind.apply(&src)).expect("target writable");
        let after_fp = fingerprint_of(&target);

        if kind == Edit::WhitespaceOnly {
            assert_eq!(
                before_fp, after_fp,
                "case {i}: a whitespace/comment edit must not move the fingerprint ({target})"
            );
        } else {
            assert_ne!(
                before_fp, after_fp,
                "case {i}: a {kind:?} edit must move the fingerprint ({target})"
            );
        }
        let expected_misses = u64::from(!seen.contains(&after_fp));
        seen.insert(after_fp);

        // Warm incremental run: only the semantically-changed file (if its
        // new fingerprint is genuinely new) re-verifies…
        let warm = batch_with(&corpus.files, &store_at(&cache, false));
        let stats = warm.store.expect("store configured");
        assert_eq!(
            stats.misses, expected_misses,
            "case {i} ({kind:?} on {target}): {stats:?}"
        );
        assert_eq!(stats.hits, corpus.files.len() as u64 - expected_misses);

        // …and the report is byte-identical to a from-scratch run over the
        // mutated corpus, exit code included.
        let truth = ground_truth(&corpus.files);
        assert_eq!(
            warm.report().to_string(),
            truth,
            "case {i} ({kind:?} on {target}): incremental and from-scratch reports diverged"
        );
        assert_eq!(warm.report().exit_code(), 0, "{}", warm.report());
    });
}

#[test]
fn expect_flip_replays_the_verdict_and_flips_the_classification() {
    // `expect:` compares verdicts, it does not produce them — flipping it
    // must stay a cache hit (zero re-verifications) while the cached
    // verdict is re-classified as unexpected, exactly like a cold run.
    let corpus = light_corpus("expect");
    let cache = corpus.dir.join("cache");
    batch_with(&corpus.files, &store_at(&cache, false));

    let target = pick_target(&corpus.files, 3);
    let src = fs::read_to_string(&target).expect("target readable");
    let flipped = if src.contains("expect: fail") {
        src.replace("expect: fail", "expect: pass")
    } else {
        src.replace("expect: pass", "expect: fail")
    };
    assert_ne!(src, flipped, "target has an expect line");
    fs::write(&target, flipped).expect("target writable");

    let warm = batch_with(&corpus.files, &store_at(&cache, false));
    let stats = warm.store.expect("store configured");
    assert_eq!(
        stats.misses, 0,
        "expect: is outside the fingerprint: {stats:?}"
    );
    assert_eq!(warm.report().exit_code(), 1, "{}", warm.report());
    assert_eq!(warm.report().summary().unexpected, 1);
    assert_eq!(warm.report().to_string(), ground_truth(&corpus.files));
}

/// Shared scaffolding for the corruption cases: a cached corpus, the
/// from-scratch report, and one verdict-record path to attack.
fn corrupted_run(tag: &str, corrupt: impl Fn(&Path, &str)) -> (BatchRun, String, u64) {
    let corpus = light_corpus(tag);
    let cache = corpus.dir.join("cache");
    let cold = batch_with(&corpus.files, &store_at(&cache, false));
    assert_eq!(cold.report().exit_code(), 0, "{}", cold.report());
    let truth = ground_truth(&corpus.files);

    // Attack a file whose fingerprint is unique in the slice (duplicate
    // content shares records, which would turn one corrupt file into two
    // misses and muddy the counters).
    let fps: Vec<String> = corpus.files.iter().map(|f| fingerprint_of(f)).collect();
    let victim_fp = fps
        .iter()
        .find(|fp| fps.iter().filter(|o| o == fp).count() == 1)
        .expect("some fingerprint is unique")
        .clone();
    let victim = cache.join(format!("{victim_fp}.verdict"));
    let original = fs::read_to_string(&victim).expect("victim record exists");
    corrupt(&victim, &original);

    let warm = batch_with(&corpus.files, &store_at(&cache, false));
    (warm, truth, corpus.files.len() as u64)
}

#[test]
fn truncated_record_is_a_miss_never_a_verdict() {
    let (warm, truth, total) = corrupted_run("trunc", |path, original| {
        fs::write(path, &original[..original.len() / 2]).unwrap();
    });
    let stats = warm.store.expect("store configured");
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.hits, total - 1);
    assert_eq!(stats.writes, 1, "the re-verified verdict heals the record");
    assert_eq!(warm.report().to_string(), truth);
    assert_eq!(warm.report().exit_code(), 0);
}

#[test]
fn bit_flipped_record_is_a_miss_never_a_verdict() {
    let (warm, truth, total) = corrupted_run("flip", |path, original| {
        // Flip the verdict itself: without the checksum this would replay
        // a *wrong* verdict — the nightmare case.
        let flipped = if original.contains("verdict: PASS") {
            original.replace("verdict: PASS", "verdict: FAIL")
        } else {
            original.replace("verdict: FAIL", "verdict: PASS")
        };
        assert_ne!(&flipped, original);
        fs::write(path, flipped).unwrap();
    });
    let stats = warm.store.expect("store configured");
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(warm.report().to_string(), truth, "no stale verdict leaked");
    assert_eq!(warm.report().exit_code(), 0);
    let _ = total;
}

#[test]
fn wrong_schema_version_is_a_miss_never_a_verdict() {
    let (warm, truth, total) = corrupted_run("schema", |path, original| {
        fs::write(path, original.replace("hhl-verdict v2", "hhl-verdict v3")).unwrap();
    });
    let stats = warm.store.expect("store configured");
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.hits, total - 1);
    assert_eq!(warm.report().to_string(), truth);
    assert_eq!(warm.report().exit_code(), 0);
}

#[test]
fn corrupt_memo_snapshot_rejects_lines_and_changes_nothing() {
    let corpus = light_corpus("memo");
    let cache = corpus.dir.join("cache");
    batch_with(&corpus.files, &store_at(&cache, false));
    let truth = ground_truth(&corpus.files);

    let memo = cache.join(hhl_driver::store::MEMO_FILE);
    let blob = fs::read_to_string(&memo).expect("memo snapshot exists");
    // Flip digits in entry lines (keeping the header intact, so only the
    // touched lines' checksums fail).
    let (header, entries) = blob.split_once('\n').expect("snapshot has a header");
    let torn = format!("{header}\n{}", entries.replacen('1', "2", 30));
    assert_ne!(torn, blob, "some entry line was corrupted");
    fs::write(&memo, &torn).unwrap();

    let warm = batch_with(&corpus.files, &store_at(&cache, false));
    assert!(
        warm.memo_import.rejected > 0,
        "corrupted lines must be refused: {:?}",
        warm.memo_import
    );
    assert_eq!(warm.report().to_string(), truth, "verdicts unaffected");
    // Untouched lines are copied into the next snapshot verbatim; no
    // corrupted line may be among them.
    let intact: HashSet<&str> = blob.lines().collect();
    let corrupted: Vec<&str> = torn.lines().filter(|l| !intact.contains(l)).collect();
    assert!(!corrupted.is_empty());
    let next = fs::read_to_string(&memo).expect("memo snapshot rewritten");
    let next: HashSet<&str> = next.lines().collect();
    for line in corrupted {
        assert!(!next.contains(line), "corrupted line survived: {line}");
    }

    // Replacing the blob with garbage shifts everything to rejected and
    // still changes nothing.
    fs::write(&memo, "not a snapshot at all\n\u{0}\u{1}\n").unwrap();
    let warm = batch_with(&corpus.files, &store_at(&cache, false));
    assert_eq!(warm.memo_import.loaded, 0, "{:?}", warm.memo_import);
    assert_eq!(warm.report().to_string(), truth);
}
