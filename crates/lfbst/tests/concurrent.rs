//! Concurrency stress tests for the lock-free BST.
//!
//! These tests hammer the tree from multiple threads and then check the
//! linearizability-implied accounting invariant (for every key, successful
//! inserts minus successful removes equals its final presence) together with
//! the full structural validation of the quiescent tree.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread;

use lfbst::validate::validate;
use lfbst::{Config, HelpPolicy, LfBst, RestartPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_threads<F>(threads: usize, f: F)
where
    F: Fn(usize) + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let f = Arc::clone(&f);
            thread::spawn(move || f(t))
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
}

fn parallelism() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(2, 8)
}

#[test]
fn concurrent_disjoint_inserts() {
    let tree = Arc::new(LfBst::new());
    let threads = parallelism();
    let per_thread = 2_000u64;
    {
        let tree = Arc::clone(&tree);
        run_threads(threads, move |t| {
            let base = t as u64 * per_thread;
            for k in base..base + per_thread {
                assert!(tree.insert(k));
            }
        });
    }
    assert_eq!(tree.len(), threads * per_thread as usize);
    let keys: Vec<u64> = tree.range_iter(..).keys().collect();
    assert_eq!(keys.len(), threads * per_thread as usize);
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
    validate(&tree).unwrap();
}

#[test]
fn concurrent_overlapping_inserts_unique_success() {
    let tree = Arc::new(LfBst::new());
    let threads = parallelism();
    let keys = 1_000u64;
    let successes = Arc::new((0..keys).map(|_| AtomicI64::new(0)).collect::<Vec<_>>());
    {
        let tree = Arc::clone(&tree);
        let successes = Arc::clone(&successes);
        run_threads(threads, move |t| {
            let mut rng = StdRng::seed_from_u64(t as u64);
            for _ in 0..20_000 {
                let k = rng.gen_range(0..keys);
                if tree.insert(k) {
                    successes[k as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
    for k in 0..keys {
        let s = successes[k as usize].load(Ordering::Relaxed);
        assert!(s <= 1, "key {k} inserted successfully {s} times");
        assert_eq!(tree.contains(&k), s == 1, "key {k}");
    }
    validate(&tree).unwrap();
}

#[test]
fn concurrent_disjoint_removes() {
    let tree = Arc::new(LfBst::new());
    let threads = parallelism();
    let per_thread = 2_000u64;
    for k in 0..threads as u64 * per_thread {
        tree.insert(k);
    }
    {
        let tree = Arc::clone(&tree);
        run_threads(threads, move |t| {
            let base = t as u64 * per_thread;
            for k in base..base + per_thread {
                assert!(tree.remove(&k), "key {k} missing");
            }
        });
    }
    assert!(tree.is_empty());
    assert_eq!(tree.range_iter(..).next(), None);
    validate(&tree).unwrap();
}

/// `len()` sums per-thread counter slots.  Four threads insert and remove in
/// disjoint key ranges prefilled by the main thread, so most removals land in
/// a different slot from their key's insert; after join the sum must still
/// equal the per-thread models' total.
#[test]
fn len_matches_model_after_disjoint_insert_remove() {
    const THREADS: usize = 4;
    const RANGE: u64 = 512;
    let tree = Arc::new(LfBst::new());
    for k in (0..THREADS as u64 * RANGE).step_by(2) {
        tree.insert(k);
    }
    let handles: Vec<_> = (0..THREADS as u64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            thread::spawn(move || {
                let base = t * RANGE;
                let mut model: std::collections::BTreeSet<u64> =
                    (base..base + RANGE).step_by(2).collect();
                let mut rng = StdRng::seed_from_u64(t);
                for _ in 0..20_000 {
                    let k = base + rng.gen_range(0..RANGE);
                    if rng.gen_bool(0.5) {
                        assert_eq!(tree.insert(k), model.insert(k), "insert({k})");
                    } else {
                        assert_eq!(tree.remove(&k), model.remove(&k), "remove({k})");
                    }
                }
                model.len()
            })
        })
        .collect();
    let expected: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(tree.len(), expected);
    assert_eq!(tree.range_iter(..).count(), expected);
    validate(&tree).unwrap();
}

#[test]
fn concurrent_removers_race_on_same_keys() {
    // Several threads race to remove the same small key set: each key must be
    // removed successfully exactly once.
    let tree = Arc::new(LfBst::new());
    let keys = 500u64;
    for k in 0..keys {
        tree.insert(k);
    }
    let threads = parallelism();
    let removals = Arc::new((0..keys).map(|_| AtomicI64::new(0)).collect::<Vec<_>>());
    {
        let tree = Arc::clone(&tree);
        let removals = Arc::clone(&removals);
        run_threads(threads, move |_| {
            for k in 0..keys {
                if tree.remove(&k) {
                    removals[k as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
    for k in 0..keys {
        assert_eq!(
            removals[k as usize].load(Ordering::Relaxed),
            1,
            "key {k} removed a wrong number of times"
        );
        assert!(!tree.contains(&k));
    }
    assert!(tree.is_empty());
    validate(&tree).unwrap();
}

/// Mixed random workload; afterwards, per-key accounting must match membership.
fn mixed_workload(config: Config, key_range: u64, ops_per_thread: usize, threads: usize) {
    let tree = Arc::new(LfBst::with_config(config));
    // balance[k] = successful inserts - successful removes; must end up 0 or 1
    // and equal to final membership.
    let balance = Arc::new((0..key_range).map(|_| AtomicI64::new(0)).collect::<Vec<_>>());
    {
        let tree = Arc::clone(&tree);
        let balance = Arc::clone(&balance);
        run_threads(threads, move |t| {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ t as u64);
            for _ in 0..ops_per_thread {
                let k = rng.gen_range(0..key_range);
                match rng.gen_range(0..100) {
                    0..=39 => {
                        if tree.insert(k) {
                            balance[k as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    40..=79 => {
                        if tree.remove(&k) {
                            balance[k as usize].fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                    _ => {
                        tree.contains(&k);
                    }
                }
            }
        });
    }
    let mut expected_len = 0usize;
    for k in 0..key_range {
        let b = balance[k as usize].load(Ordering::Relaxed);
        assert!(b == 0 || b == 1, "key {k} has impossible balance {b}");
        assert_eq!(tree.contains(&k), b == 1, "membership mismatch for key {k}");
        expected_len += b as usize;
    }
    assert_eq!(tree.len(), expected_len);
    let report = validate(&tree).unwrap();
    assert_eq!(report.nodes, expected_len);
}

#[test]
fn mixed_workload_read_optimized_wide_range() {
    mixed_workload(Config::new(), 10_000, 30_000, parallelism());
}

#[test]
fn mixed_workload_read_optimized_narrow_range_high_contention() {
    mixed_workload(Config::new(), 64, 30_000, parallelism());
}

#[test]
fn mixed_workload_write_optimized_eager_helping() {
    mixed_workload(
        Config::new().help_policy(HelpPolicy::WriteOptimized),
        512,
        30_000,
        parallelism(),
    );
}

#[test]
fn mixed_workload_restart_from_root_ablation() {
    mixed_workload(Config::new().restart_policy(RestartPolicy::Root), 512, 20_000, parallelism());
}

#[test]
fn mixed_workload_tiny_range_adjacent_key_conflicts() {
    // A tiny key range maximises removals of adjacent nodes (predecessor /
    // successor conflicts, category-3 shifts) which are the hardest cases of
    // the protocol.
    mixed_workload(Config::new(), 8, 40_000, parallelism());
    mixed_workload(Config::new().help_policy(HelpPolicy::WriteOptimized), 8, 40_000, parallelism());
}

#[test]
fn inserts_race_removes_of_predecessors() {
    // One half of the threads constantly removes even keys while the other half
    // re-inserts them; odd keys stay put and must never be disturbed.
    let tree = Arc::new(LfBst::new());
    let keys = 1_024u64;
    for k in 0..keys {
        tree.insert(k);
    }
    let threads = parallelism().max(4);
    {
        let tree = Arc::clone(&tree);
        run_threads(threads, move |t| {
            let mut rng = StdRng::seed_from_u64(t as u64 * 7 + 1);
            for _ in 0..20_000 {
                let k = rng.gen_range(0..keys / 2) * 2;
                if t % 2 == 0 {
                    tree.remove(&k);
                } else {
                    tree.insert(k);
                }
            }
        });
    }
    for k in (1..keys).step_by(2) {
        assert!(tree.contains(&k), "odd key {k} disturbed");
    }
    validate(&tree).unwrap();
}

#[test]
fn removal_race_rounds_relaxed_orderings() {
    // PR 1's removal-race harness (`stress_validate.rs`), run un-ignored at
    // elevated thread counts with a bounded round budget.  Many short rounds
    // maximise flag/mark/swing interleavings across fresh trees — the pattern
    // that would expose a missing happens-before edge in the per-site
    // acquire/release orderings as a validation failure, a double removal, or
    // a count mismatch.  Scale up with LFBST_STRESS_ROUNDS for a longer hunt.
    let threads = parallelism() * 2;
    let rounds: u64 =
        std::env::var("LFBST_STRESS_ROUNDS").ok().and_then(|s| s.parse().ok()).unwrap_or(16);
    for seed in 0..rounds {
        let tree = Arc::new(LfBst::new());
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                let tree = Arc::clone(&tree);
                thread::spawn(move || {
                    let mut rng =
                        StdRng::seed_from_u64(seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let mut net = 0i64;
                    for _ in 0..3_000 {
                        let k = rng.gen_range(0..64u64);
                        if rng.gen_bool(0.5) {
                            if tree.insert(k) {
                                net += 1;
                            }
                        } else if tree.remove(&k) {
                            net -= 1;
                        }
                    }
                    net
                })
            })
            .collect();
        let mut net_total = 0i64;
        for h in handles {
            net_total += h.join().unwrap();
        }
        let report =
            validate(&*tree).unwrap_or_else(|e| panic!("seed {seed}: validation failed: {e}"));
        assert_eq!(report.nodes as i64, net_total, "seed {seed}: node count vs op accounting");
        assert_eq!(tree.len() as i64, net_total, "seed {seed}: len() vs op accounting");
    }
}

#[test]
fn mixed_workload_under_reusable_guards() {
    // The guard-amortized entry points must preserve the per-key accounting
    // invariant under the same contention as the plain entry points.
    let tree = Arc::new(LfBst::new());
    let key_range = 256u64;
    let balance = Arc::new((0..key_range).map(|_| AtomicI64::new(0)).collect::<Vec<_>>());
    let threads = parallelism().max(4);
    {
        let tree = Arc::clone(&tree);
        let balance = Arc::clone(&balance);
        run_threads(threads, move |t| {
            let mut rng = StdRng::seed_from_u64(0xBEEF ^ t as u64);
            let mut pinned = tree.pin();
            for i in 0..30_000usize {
                if i % 512 == 0 {
                    pinned.refresh();
                }
                let k = rng.gen_range(0..key_range);
                match rng.gen_range(0..100) {
                    0..=39 => {
                        if pinned.insert(k) {
                            balance[k as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    40..=79 => {
                        if pinned.remove(&k) {
                            balance[k as usize].fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                    _ => {
                        pinned.contains(&k);
                    }
                }
            }
        });
    }
    let mut expected_len = 0usize;
    for k in 0..key_range {
        let b = balance[k as usize].load(Ordering::Relaxed);
        assert!(b == 0 || b == 1, "key {k} has impossible balance {b}");
        assert_eq!(tree.contains(&k), b == 1, "membership mismatch for key {k}");
        expected_len += b as usize;
    }
    assert_eq!(tree.len(), expected_len);
    let report = validate(&tree).unwrap();
    assert_eq!(report.nodes, expected_len);
}

#[test]
fn contains_remains_consistent_during_churn() {
    // Readers must always see a key that is never removed, regardless of how
    // much churn happens around it.
    let tree = Arc::new(LfBst::new());
    let pinned: Vec<u64> = (0..1_000u64).map(|k| k * 10).collect();
    for &k in &pinned {
        tree.insert(k);
    }
    let threads = parallelism().max(4);
    let pinned = Arc::new(pinned);
    {
        let tree = Arc::clone(&tree);
        let pinned = Arc::clone(&pinned);
        run_threads(threads, move |t| {
            let mut rng = StdRng::seed_from_u64(t as u64);
            if t % 2 == 0 {
                // Churner: insert/remove keys that are never pinned.
                for _ in 0..30_000 {
                    let k = rng.gen_range(0..10_000u64) * 10 + 1 + rng.gen_range(0..9);
                    if rng.gen_bool(0.5) {
                        tree.insert(k);
                    } else {
                        tree.remove(&k);
                    }
                }
            } else {
                // Reader: pinned keys must always be visible.
                for _ in 0..30_000 {
                    let k = pinned[rng.gen_range(0..pinned.len())];
                    assert!(tree.contains(&k), "pinned key {k} became invisible");
                }
            }
        });
    }
    validate(&tree).unwrap();
}
