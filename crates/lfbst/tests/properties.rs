//! Property-style tests for the lock-free BST (single-threaded properties;
//! the concurrent properties are covered by `tests/concurrent.rs` and the
//! cross-crate conformance suite).
//!
//! Each property runs over many independently seeded random cases, so a
//! failure report (the printed seed) reproduces deterministically.

use std::collections::BTreeSet;

use lfbst::validate::validate;
use lfbst::{Config, HelpPolicy, LfBst, RestartPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases per property.
const CASES: u64 = 64;

/// An abstract set operation for property generation.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u16),
    Remove(u16),
    Contains(u16),
}

fn random_ops(rng: &mut StdRng, key_bits: u32, max_len: usize) -> Vec<Op> {
    let bound = 1u16 << key_bits;
    let len = rng.gen_range(1..=max_len);
    (0..len)
        .map(|_| {
            let k = rng.gen_range(0..bound);
            match rng.gen_range(0..3) {
                0 => Op::Insert(k),
                1 => Op::Remove(k),
                _ => Op::Contains(k),
            }
        })
        .collect()
}

fn apply_both(tree: &LfBst<u16>, model: &mut BTreeSet<u16>, op: Op, seed: u64) {
    match op {
        Op::Insert(k) => assert_eq!(tree.insert(k), model.insert(k), "insert({k}), seed {seed}"),
        Op::Remove(k) => assert_eq!(tree.remove(&k), model.remove(&k), "remove({k}), seed {seed}"),
        Op::Contains(k) => {
            assert_eq!(tree.contains(&k), model.contains(&k), "contains({k}), seed {seed}")
        }
    }
}

/// Any operation sequence leaves the tree behaving exactly like BTreeSet and
/// structurally valid.
#[test]
fn behaves_like_btreeset() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = random_ops(&mut rng, 8, 600);
        let tree = LfBst::new();
        let mut model = BTreeSet::new();
        for &op in &ops {
            apply_both(&tree, &mut model, op, seed);
        }
        assert_eq!(tree.len(), model.len(), "seed {seed}");
        assert_eq!(
            tree.range_iter(..).keys().collect::<Vec<_>>(),
            model.iter().copied().collect::<Vec<_>>(),
            "seed {seed}"
        );
        let report = validate(&tree).expect("structure invariants");
        assert_eq!(report.nodes, model.len(), "seed {seed}");
    }
}

/// The same property holds for the non-default configurations (eager helping
/// and the restart-from-root ablation share all structural code paths that
/// sequential execution can reach, but this guards regressions in the
/// configuration plumbing).
#[test]
fn configurations_behave_identically() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1000 + seed);
        let ops = random_ops(&mut rng, 7, 400);
        let default_tree = LfBst::new();
        let eager = LfBst::with_config(Config::new().help_policy(HelpPolicy::WriteOptimized));
        let root_restart = LfBst::with_config(Config::new().restart_policy(RestartPolicy::Root));
        let mut model = BTreeSet::new();
        for &op in &ops {
            apply_both(&default_tree, &mut model, op, seed);
            match op {
                Op::Insert(k) => {
                    eager.insert(k);
                    root_restart.insert(k);
                }
                Op::Remove(k) => {
                    eager.remove(&k);
                    root_restart.remove(&k);
                }
                Op::Contains(k) => {
                    eager.contains(&k);
                    root_restart.contains(&k);
                }
            }
        }
        let expected: Vec<u16> = model.iter().copied().collect();
        assert_eq!(default_tree.range_iter(..).keys().collect::<Vec<_>>(), expected, "seed {seed}");
        assert_eq!(eager.range_iter(..).keys().collect::<Vec<_>>(), expected, "seed {seed}");
        assert_eq!(root_restart.range_iter(..).keys().collect::<Vec<_>>(), expected, "seed {seed}");
        validate(&eager).expect("eager tree invariants");
        validate(&root_restart).expect("root-restart tree invariants");
    }
}

/// Inserting any permutation of a key set then removing another permutation of
/// the same keys always empties the tree, exercising every removal category
/// along the way.
#[test]
fn insert_all_then_remove_all() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2000 + seed);
        let len = rng.gen_range(1..200usize);
        let keys: BTreeSet<u16> = (0..len).map(|_| rng.gen_range(0..512u16)).collect();
        let tree = LfBst::new();
        for &k in &keys {
            assert!(tree.insert(k), "seed {seed}");
        }
        assert_eq!(tree.len(), keys.len(), "seed {seed}");
        validate(&tree).expect("after inserts");
        // Remove in reverse order so predecessors are exercised heavily.
        for &k in keys.iter().rev() {
            assert!(tree.remove(&k), "key {k} must be removable, seed {seed}");
        }
        assert!(tree.is_empty(), "seed {seed}");
        let report = validate(&tree).expect("after removes");
        assert_eq!(report.nodes, 0, "seed {seed}");
    }
}

/// The height never exceeds the number of stored keys and the snapshot is
/// always sorted and duplicate-free.
#[test]
fn snapshot_sorted_and_height_bounded() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3000 + seed);
        let len = rng.gen_range(1..300usize);
        let keys: Vec<u16> = (0..len).map(|_| rng.gen_range(0..1024u16)).collect();
        let tree = LfBst::new();
        for &k in &keys {
            tree.insert(k);
        }
        let snapshot = tree.range_iter(..).keys().collect::<Vec<_>>();
        assert!(
            snapshot.windows(2).all(|w| w[0] < w[1]),
            "snapshot must be strictly sorted, seed {seed}"
        );
        assert!(tree.height() <= tree.len(), "height cannot exceed node count, seed {seed}");
        assert_eq!(snapshot.len(), tree.len(), "seed {seed}");
    }
}

/// The sequential sanity check: 100 000 distinct keys inserted in one seeded
/// shuffled order leave exactly the contents a `BTreeSet` holds, and the
/// random-order tree stays within a small factor of the ideal height.
#[test]
fn shuffled_100k_keys_match_btreeset_and_stay_shallow() {
    use rand::seq::SliceRandom;
    const N: u64 = 100_000;
    let mut keys: Vec<u64> = (0..N).collect();
    keys.shuffle(&mut StdRng::seed_from_u64(42));
    let tree = LfBst::new();
    let mut model = BTreeSet::new();
    for &k in &keys {
        assert_eq!(tree.insert(k), model.insert(k), "insert {k}");
    }
    assert!(keys.iter().all(|k| tree.contains(k)));
    assert_eq!(tree.len(), model.len());
    assert!(tree.range_iter(..).keys().eq(model.iter().copied()));
    // Measured once: height 40, so height / log2(n) = 2.41 for this order.
    const MAX_HEIGHT_RATIO: f64 = 2.5;
    let ratio = tree.height() as f64 / (N as f64).log2();
    assert!(ratio < MAX_HEIGHT_RATIO, "height {} is {ratio:.2} x log2(n)", tree.height());
}
