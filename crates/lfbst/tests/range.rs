//! Tests for the ordered scans (`range_iter`, and `OrderedSet`'s `first` and
//! `last`) that the threaded representation makes cheap.

use std::collections::BTreeSet;
use std::ops::RangeBounds;
use std::sync::Arc;

use lfbst::{LfBst, OrderedSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The keys of `t` in `range`, collected from one streaming scan.
fn keys(t: &LfBst<u64>, range: impl RangeBounds<u64>) -> Vec<u64> {
    t.range_iter(range).keys().collect()
}

#[test]
fn empty_tree_ranges() {
    let t: LfBst<u64> = LfBst::new();
    assert_eq!(keys(&t, ..), Vec::<u64>::new());
    assert_eq!(keys(&t, 5..100), Vec::<u64>::new());
    assert_eq!(t.first(), None);
    assert_eq!(t.last(), None);
}

#[test]
fn range_bounds_semantics() {
    let t = LfBst::new();
    for k in [10u64, 20, 30, 40, 50] {
        t.insert(k);
    }
    assert_eq!(keys(&t, ..), vec![10, 20, 30, 40, 50]);
    assert_eq!(keys(&t, 20..40), vec![20, 30]);
    assert_eq!(keys(&t, 20..=40), vec![20, 30, 40]);
    assert_eq!(keys(&t, 15..45), vec![20, 30, 40]);
    assert_eq!(keys(&t, ..=30), vec![10, 20, 30]);
    assert_eq!(keys(&t, 51..), Vec::<u64>::new());
    assert_eq!(keys(&t, 0..10), Vec::<u64>::new());
    // Exclusive start bound on an existing key.
    use std::ops::Bound;
    assert_eq!(keys(&t, (Bound::Excluded(20u64), Bound::Unbounded)), vec![30, 40, 50]);
    assert_eq!(t.first(), Some(10));
    assert_eq!(t.last(), Some(50));
}

#[test]
fn range_matches_btreeset_on_random_data() {
    let mut rng = StdRng::seed_from_u64(9);
    let tree = LfBst::new();
    let mut model = BTreeSet::new();
    for _ in 0..2_000 {
        let k: u64 = rng.gen_range(0..5_000);
        tree.insert(k);
        model.insert(k);
    }
    for _ in 0..200 {
        let a: u64 = rng.gen_range(0..5_000);
        let b: u64 = rng.gen_range(0..5_000);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let expected: Vec<u64> = model.range(lo..hi).copied().collect();
        assert_eq!(keys(&tree, lo..hi), expected, "range {lo}..{hi}");
        let expected: Vec<u64> = model.range(lo..=hi).copied().collect();
        assert_eq!(keys(&tree, lo..=hi), expected, "range {lo}..={hi}");
    }
    assert_eq!(tree.first(), model.iter().next().copied());
    assert_eq!(tree.last(), model.iter().next_back().copied());
}

#[test]
fn range_scan_during_concurrent_churn_sees_pinned_keys() {
    // Keys divisible by 100 are never removed; a range scan must always report
    // every pinned key inside its bounds, whatever the churn on other keys.
    let tree = Arc::new(LfBst::new());
    for k in (0..10_000u64).step_by(100) {
        tree.insert(k);
    }
    let churn = {
        let tree = Arc::clone(&tree);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..60_000 {
                let k = rng.gen_range(0..10_000u64);
                if k % 100 == 0 {
                    continue;
                }
                if rng.gen_bool(0.5) {
                    tree.insert(k);
                } else {
                    tree.remove(&k);
                }
            }
        })
    };
    for _ in 0..50 {
        let scan = keys(&tree, 1_000..2_000);
        let pinned: Vec<u64> = scan.into_iter().filter(|k| k % 100 == 0).collect();
        assert_eq!(pinned, (1_000..2_000).step_by(100).collect::<Vec<u64>>());
    }
    churn.join().unwrap();
    lfbst::validate::validate(&*tree).unwrap();
}

#[test]
fn concurrent_scan_is_strictly_ordered_and_sound() {
    // Key universe 0..10_000 split by residue mod 10:
    //   residue 0       — "pinned": inserted up front, never removed;
    //   residues 1..=5  — "churn": writer threads insert/remove them freely;
    //   residues 6..=9  — "forbidden": never inserted by anyone.
    // While writers churn, every scan must (a) be strictly ascending, (b) stay
    // inside its bounds, (c) contain only keys that were live at some point
    // (pinned or churn — a forbidden key in the result would be a key the
    // scan invented), and (d) contain every pinned key in bounds.
    const UNIVERSE: u64 = 10_000;
    let tree = Arc::new(LfBst::new());
    for k in (0..UNIVERSE).step_by(10) {
        tree.insert(k);
    }
    let writers: Vec<_> = (0..3u64)
        .map(|w| {
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + w);
                for _ in 0..40_000 {
                    let k = rng.gen_range(0..UNIVERSE);
                    match k % 10 {
                        0 | 6..=9 => continue,
                        _ => {
                            if rng.gen_bool(0.5) {
                                tree.insert(k);
                            } else {
                                tree.remove(&k);
                            }
                        }
                    }
                }
            })
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(999);
    for _ in 0..60 {
        let a: u64 = rng.gen_range(0..UNIVERSE);
        let b: u64 = rng.gen_range(0..UNIVERSE);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let scan = keys(&tree, lo..=hi);
        assert!(
            scan.windows(2).all(|w| w[0] < w[1]),
            "scan of {lo}..={hi} not strictly ascending: {scan:?}"
        );
        for &k in &scan {
            assert!((lo..=hi).contains(&k), "scan of {lo}..={hi} returned out-of-bounds {k}");
            assert!(k % 10 <= 5, "scan returned key {k}, which was never inserted by any thread");
        }
        let pinned_seen: Vec<u64> = scan.iter().copied().filter(|k| k % 10 == 0).collect();
        let pinned_expected: Vec<u64> = (lo..=hi).filter(|k| k % 10 == 0).collect();
        assert_eq!(pinned_seen, pinned_expected, "pinned keys missing from {lo}..={hi}");
    }
    for w in writers {
        w.join().unwrap();
    }
    lfbst::validate::validate(&*tree).unwrap();
}
