//! Seeded concurrency stress for the extended-semantics memo table.
//!
//! The `SemCache` promises that memoization is invisible: under any
//! interleaving of racing inserts and lookups, `sem_memo` returns exactly
//! what an uncached `sem` evaluation returns. The unit tests pin this for
//! single keys; here a seeded workload races many threads over a shared
//! pool of (program, state set, finitization) triples — with overlapping
//! keys so threads genuinely contend on shards and on finitization-id
//! interning — and checks every result against the uncached oracle.
//!
//! The snapshot round-trip is exercised under the same racing layout: a
//! cache warmed concurrently must export a snapshot that a fresh cache
//! imports wholesale and re-exports byte-identically, and workers racing
//! on an imported line must parse it once.

use hhl_lang::rng::Rng;
use hhl_lang::{parse_cmd, Cmd, ExecConfig, ExtState, SemCache, StateSet, Store, Value};

const SEED: u64 = 0x5eed_cafe;

const PROGRAMS: &[&str] = &[
    "x := x + 1",
    "x := x + 1; y := x",
    "if (x > 0) { y := 1 } else { y := 0 }",
    "while (x < 2) { x := x + 1 }",
    "x := nonDet(); y := x ^ y",
    "skip; x := y + 1",
    "{ x := x + 1 } + { y := y + 1 }",
];

fn random_set(rng: &mut Rng) -> StateSet {
    let n = rng.gen_range_inclusive(0, 3);
    (0..n)
        .map(|_| {
            ExtState::from_program(Store::from_pairs([
                ("x", Value::Int(rng.gen_i64_inclusive(-1, 2))),
                ("y", Value::Int(rng.gen_i64_inclusive(-1, 2))),
            ]))
        })
        .collect()
}

/// The shared workload: every thread evaluates the same triples in its own
/// seeded order, so every key is raced by every thread.
fn workload(seed: u64) -> Vec<(ExecConfig, Cmd, StateSet)> {
    let mut rng = Rng::seed_from_u64(seed);
    let execs = [
        ExecConfig::int_range(-1, 1).fuel(4),
        ExecConfig::int_range(0, 2).fuel(6),
    ];
    let mut triples = Vec::new();
    for _ in 0..40 {
        let exec = rng.choose(&execs).clone();
        let program: &str = rng.choose::<&str>(PROGRAMS);
        let cmd = parse_cmd(program).expect("stress programs parse");
        triples.push((exec, cmd, random_set(&mut rng)));
    }
    triples
}

#[test]
fn racing_memoized_evaluation_matches_uncached_sem() {
    let triples = workload(SEED);
    let expected: Vec<StateSet> = triples
        .iter()
        .map(|(exec, cmd, s)| exec.sem(cmd, s))
        .collect();

    let cache = SemCache::new();
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let triples = &triples;
            let expected = &expected;
            let cache = &cache;
            scope.spawn(move || {
                // Per-thread visiting order: every thread hits every key,
                // but no two threads in the same order — inserts race
                // lookups on the same shards throughout the run.
                let mut order: Vec<usize> = (0..triples.len()).collect();
                Rng::seed_from_u64(SEED ^ t).shuffle(&mut order);
                for round in 0..3 {
                    for &i in &order {
                        let (exec, cmd, s) = &triples[i];
                        assert_eq!(
                            &exec.sem_memo(cmd, s, cache),
                            &expected[i],
                            "thread {t} round {round} triple {i} diverged"
                        );
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    assert!(stats.hits > 0, "repeat rounds must hit: {stats:?}");
    assert!(stats.entries > 0, "{stats:?}");
}

#[test]
fn snapshot_roundtrips_after_concurrent_warming() {
    let triples = workload(SEED ^ 1);
    let cache = SemCache::new();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let triples = &triples;
            let cache = &cache;
            scope.spawn(move || {
                for (exec, cmd, s) in triples {
                    exec.sem_memo(cmd, s, cache);
                }
            });
        }
    });

    let (snapshot, exported) = cache.export_snapshot(usize::MAX);
    assert!(exported.exported > 0);
    let fresh = SemCache::new();
    let imported = fresh.import_snapshot(&snapshot);
    assert_eq!(imported.rejected, 0, "{imported:?}");
    assert_eq!(imported.loaded, exported.exported);
    // emit ∘ parse is a fixpoint: the canonical (sorted-line) snapshot of
    // the imported cache is byte-identical, so finitization ids renumbered
    // by the per-cache exec table cannot leak into the format.
    let (again, _) = fresh.export_snapshot(usize::MAX);
    assert_eq!(snapshot, again);

    // And the imported entries answer without recomputation: every lookup
    // hits, and the only writes are the one-time materializations of the
    // lines asked for. Once resident, they answer without writes.
    let warmed = fresh.write_acquisitions();
    for (exec, cmd, s) in &triples {
        assert_eq!(&exec.sem_memo(cmd, s, &fresh), &exec.sem(cmd, s));
    }
    let materialized = fresh.snapshot_stats().materialized;
    assert!(materialized > 0);
    assert_eq!(fresh.stats().misses, 0, "{:?}", fresh.stats());
    assert_eq!(fresh.write_acquisitions(), warmed + materialized);
    for (exec, cmd, s) in &triples {
        assert_eq!(&exec.sem_memo(cmd, s, &fresh), &exec.sem(cmd, s));
    }
    assert_eq!(fresh.write_acquisitions(), warmed + materialized);
}

#[test]
fn racing_workers_materialize_each_pending_line_once() {
    let triples = workload(SEED ^ 2);
    let warm = SemCache::new();
    for (exec, cmd, s) in &triples {
        exec.sem_memo(cmd, s, &warm);
    }
    let (snapshot, _) = warm.export_snapshot(usize::MAX);
    let (exec, cmd, s) = triples
        .iter()
        .find(|(_, cmd, _)| !matches!(cmd, Cmd::Skip))
        .expect("a non-skip triple");
    let expected = exec.sem(cmd, s);

    // Eight workers released together on one imported key: one parses the
    // line, the rest find the entry it made resident.
    let lazy = SemCache::new();
    lazy.import_snapshot(&snapshot);
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                barrier.wait();
                assert_eq!(&exec.sem_memo(cmd, s, &lazy), &expected);
            });
        }
    });
    assert_eq!(lazy.snapshot_stats().materialized, 1);
    assert_eq!(lazy.stats().hits, 8, "{:?}", lazy.stats());

    // The whole workload raced: each line asked for is parsed exactly once,
    // as many as a single worker parses.
    let serial = SemCache::new();
    serial.import_snapshot(&snapshot);
    for (exec, cmd, s) in &triples {
        exec.sem_memo(cmd, s, &serial);
    }
    let raced = SemCache::new();
    raced.import_snapshot(&snapshot);
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let (triples, raced, barrier) = (&triples, &raced, &barrier);
            scope.spawn(move || {
                let mut order: Vec<usize> = (0..triples.len()).collect();
                Rng::seed_from_u64(SEED ^ t).shuffle(&mut order);
                barrier.wait();
                for &i in &order {
                    let (exec, cmd, s) = &triples[i];
                    assert_eq!(exec.sem_memo(cmd, s, raced), exec.sem(cmd, s));
                }
            });
        }
    });
    let (raced, serial) = (raced.snapshot_stats(), serial.snapshot_stats());
    assert_eq!(raced.materialized, serial.materialized, "{raced:?}");
    assert_eq!(raced.rejected, 0);
}
