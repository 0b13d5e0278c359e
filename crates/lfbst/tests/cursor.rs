//! Conformance tests for the streaming cursor pipeline (`range_cursor`,
//! `range_iter`, the `OrderedSet`/`OrderedMap` cursor methods) against the
//! `BTreeMap` oracle, over every `Bound` combination, plus concurrent-churn
//! tests pinning the documented weak-consistency contract.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use cset::{OrderedMap, OrderedSet};
use lfbst::{LfBst, REPIN_SCAN_EVERY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every (lo, hi) `Bound` combination over the probe points `a`, `b`,
/// including the degenerate and reversed cases.
fn bound_cases(a: u64, b: u64) -> Vec<(Bound<u64>, Bound<u64>)> {
    let lows = [Bound::Unbounded, Bound::Included(a), Bound::Excluded(a)];
    let highs = [Bound::Unbounded, Bound::Included(b), Bound::Excluded(b)];
    let mut cases = Vec::new();
    for lo in lows {
        for hi in highs {
            cases.push((lo, hi));
        }
    }
    // Degenerate single-point and empty-by-exclusion ranges.
    cases.push((Bound::Included(a), Bound::Included(a)));
    cases.push((Bound::Included(a), Bound::Excluded(a)));
    cases.push((Bound::Excluded(a), Bound::Included(a)));
    cases.push((Bound::Excluded(a), Bound::Excluded(a)));
    // Reversed bounds (b > a assumed by callers): must be empty, not a panic.
    cases.push((Bound::Included(b), Bound::Included(a)));
    cases.push((Bound::Excluded(b), Bound::Excluded(a)));
    cases
}

/// What the oracle yields for `(lo, hi)`, guarded the way the workspace
/// contract demands (inverted bounds are empty, never a panic).
fn oracle_range(model: &BTreeMap<u64, u64>, lo: Bound<u64>, hi: Bound<u64>) -> Vec<(u64, u64)> {
    if cset::range_is_empty(&lo, &hi) {
        return Vec::new();
    }
    model.range((lo, hi)).map(|(&k, &v)| (k, v)).collect()
}

#[test]
fn cursor_matches_oracle_for_all_bound_combinations() {
    let mut rng = StdRng::seed_from_u64(42);
    let map: LfBst<u64, u64> = LfBst::new();
    let mut model = BTreeMap::new();
    for _ in 0..2_000 {
        let k: u64 = rng.gen_range(0..4_000);
        map.insert_entry(k, k * 7);
        model.insert(k, k * 7);
    }
    for _ in 0..60 {
        let x: u64 = rng.gen_range(0..4_000);
        let y: u64 = rng.gen_range(0..4_000);
        let (a, b) = if x <= y { (x, y) } else { (y, x) };
        for (lo, hi) in bound_cases(a, b) {
            let expected = oracle_range(&model, lo, hi);
            let expected_keys: Vec<u64> = expected.iter().map(|&(k, _)| k).collect();

            // The guard-scoped cursor.
            let guard = crossbeam_epoch::pin();
            let mut cursor = map.range_cursor((lo, hi), &guard);
            let mut via_cursor = Vec::new();
            while let Some(e) = cursor.next() {
                via_cursor.push((*e.key(), e.value()));
            }
            assert_eq!(via_cursor, expected, "range_cursor {lo:?}..{hi:?}");
            drop(guard);

            // The owning iterator.
            let via_iter: Vec<(u64, u64)> = map.range_iter((lo, hi)).collect();
            assert_eq!(via_iter, expected, "range_iter {lo:?}..{hi:?}");

            // The trait-level streaming and collecting faces.
            let via_scan: Vec<(u64, u64)> = map.scan_entries(lo.as_ref(), hi.as_ref()).collect();
            assert_eq!(via_scan, expected, "scan_entries {lo:?}..{hi:?}");
            assert_eq!(
                map.entries_between(lo.as_ref(), hi.as_ref()),
                expected,
                "entries_between {lo:?}..{hi:?}"
            );
            let limited = map.entries_between_limited(lo.as_ref(), hi.as_ref(), 3);
            assert_eq!(
                limited,
                expected[..expected.len().min(3)].to_vec(),
                "entries_between_limited {lo:?}..{hi:?}"
            );

            // The set face of the same tree agrees on keys.
            assert_eq!(map.keys_in_range((lo, hi)), expected_keys, "keys_in_range {lo:?}..{hi:?}");
        }
    }
}

#[test]
fn cursor_on_empty_tree_is_empty_for_every_bound_shape() {
    let map: LfBst<u64, u64> = LfBst::new();
    for (lo, hi) in bound_cases(10, 20) {
        let guard = crossbeam_epoch::pin();
        let mut cursor = map.range_cursor((lo, hi), &guard);
        assert!(cursor.next().is_none(), "{lo:?}..{hi:?}");
        assert!(map.scan_entries(lo.as_ref(), hi.as_ref()).next().is_none(), "{lo:?}..{hi:?}");
    }
    assert_eq!(OrderedMap::first_entry(&map), None);
    assert_eq!(OrderedMap::last_entry(&map), None);
    assert_eq!(map.next_key_after(&0), None);
}

#[test]
fn successor_queries_match_oracle() {
    let mut rng = StdRng::seed_from_u64(7);
    let set = LfBst::new();
    let mut model = std::collections::BTreeSet::new();
    for _ in 0..500 {
        let k: u64 = rng.gen_range(0..1_000);
        set.insert(k);
        model.insert(k);
    }
    assert_eq!(OrderedSet::first(&set), model.iter().next().copied());
    assert_eq!(OrderedSet::last(&set), model.iter().next_back().copied());
    for probe in 0..1_000u64 {
        let expected = model.range((Bound::Excluded(probe), Bound::Unbounded)).next().copied();
        assert_eq!(set.next_key_after(&probe), expected, "successor of {probe}");
        assert_eq!(OrderedSet::next_after(&set, &probe), expected);
    }
}

#[test]
fn churn_scan_honours_weak_consistency_contract() {
    // Key universe split by residue mod 10:
    //   0       — pinned: present for the whole scan, must always appear;
    //   1..=5   — churn: writers insert/remove freely, may appear or not;
    //   6..=9   — forbidden: never inserted, absent for the whole scan, must
    //             never appear.
    // Scans run through the trait cursor (the boxed RangeIter path, repins
    // included) while three writers churn.
    const UNIVERSE: u64 = 20_000;
    let set = Arc::new(LfBst::new());
    for k in (0..UNIVERSE).step_by(10) {
        set.insert(k);
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..3u64)
        .map(|w| {
            let set = Arc::clone(&set);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(500 + w);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = rng.gen_range(0..UNIVERSE);
                    match k % 10 {
                        0 | 6..=9 => continue,
                        _ => {
                            if rng.gen_bool(0.5) {
                                set.insert(k);
                            } else {
                                set.remove(&k);
                            }
                        }
                    }
                }
            })
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(1234);
    for _ in 0..40 {
        let a: u64 = rng.gen_range(0..UNIVERSE);
        let b: u64 = rng.gen_range(0..UNIVERSE);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let scan: Vec<u64> = set.scan_keys(Bound::Included(&lo), Bound::Included(&hi)).collect();
        assert!(scan.windows(2).all(|w| w[0] < w[1]), "scan {lo}..={hi} not strictly ascending");
        for &k in &scan {
            assert!((lo..=hi).contains(&k), "scan {lo}..={hi} yielded out-of-bounds {k}");
            assert!(k % 10 <= 5, "scan yielded forbidden key {k} (never inserted)");
        }
        let pinned_seen: Vec<u64> = scan.iter().copied().filter(|k| k % 10 == 0).collect();
        let pinned_expected: Vec<u64> = (lo..=hi).filter(|k| k % 10 == 0).collect();
        assert_eq!(pinned_seen, pinned_expected, "pinned keys missing from {lo}..={hi}");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    lfbst::validate::validate(&*set).unwrap();
}

#[test]
fn long_scan_repins_without_skipping_pinned_keys() {
    // A full scan long enough to cross several repin windows, under churn on
    // the odd keys; every even (pinned) key must survive the re-seeks.
    let n = 3 * REPIN_SCAN_EVERY;
    let set = Arc::new(LfBst::new());
    for k in (0..2 * n).step_by(2) {
        set.insert(k);
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churn = {
        let set = Arc::clone(&set);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(77);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let k = rng.gen_range(0..n) * 2 + 1;
                if rng.gen_bool(0.5) {
                    set.insert(k);
                } else {
                    set.remove(&k);
                }
            }
        })
    };
    for _ in 0..5 {
        let evens: Vec<u64> = set.range_iter(..).keys().filter(|k| k % 2 == 0).collect();
        assert_eq!(evens, (0..2 * n).step_by(2).collect::<Vec<_>>());
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    churn.join().unwrap();
}

#[test]
fn cursors_skip_a_key_reinserted_behind_them() {
    // One thread, deterministic: the cursor stands on node 20 when 20 is
    // removed and reinserted, and the successor hop from the dead node
    // reaches the new one.  Neither cursor form may yield 20 twice.
    let map: LfBst<u64, u64> = LfBst::new();
    for k in [10u64, 20, 30] {
        map.insert_entry(k, k);
    }
    let guard = crossbeam_epoch::pin();
    let mut cursor = map.range_cursor(.., &guard);
    let mut seen = vec![*cursor.next().unwrap().key()];
    assert_eq!(map.remove_entry(&20), Some(20));
    assert!(map.insert_entry(20, 21));
    while let Some(e) = cursor.next() {
        seen.push(*e.key());
    }
    assert_eq!(seen, vec![10, 20, 30], "range_cursor");

    let mut iter = map.range_iter(..);
    let mut seen = vec![iter.next().unwrap().0];
    assert_eq!(map.remove_entry(&20), Some(21));
    assert!(map.insert_entry(20, 22));
    seen.extend(iter.map(|(k, _)| k));
    assert_eq!(seen, vec![10, 20, 30], "range_iter");
}

#[test]
fn scans_stay_strictly_ascending_under_hot_key_reinsertion() {
    // A second thread removes and reinserts a handful of hot keys as fast
    // as it can, and the scans dawdle between pulls, so a cursor keeps
    // standing on a node that dies and comes back.  Both cursor forms must
    // stay strictly ascending, and the cold keys around the hot ones must
    // all appear.
    const HOT: [u64; 4] = [10, 11, 20, 21];
    let map: Arc<LfBst<u64, u64>> = Arc::new(LfBst::new());
    for k in 0..32u64 {
        map.insert_entry(k, k);
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churn = {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let k = HOT[i % HOT.len()];
                map.remove_entry(&k);
                map.insert_entry(k, k);
                i += 1;
            }
        })
    };
    let dawdle = || (0..64).for_each(|_| std::hint::spin_loop());
    let cold: Vec<u64> = (0..32u64).filter(|k| !HOT.contains(k)).collect();
    for _ in 0..2_000 {
        let keys: Vec<u64> = map.range_iter(..).inspect(|_| dawdle()).map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "range_iter repeated a key: {keys:?}");
        let seen: Vec<u64> = keys.iter().copied().filter(|k| !HOT.contains(k)).collect();
        assert_eq!(seen, cold);

        let guard = crossbeam_epoch::pin();
        let mut cursor = map.range_cursor(.., &guard);
        let mut keys = Vec::new();
        while let Some(e) = cursor.next() {
            keys.push(*e.key());
            dawdle();
        }
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "range_cursor repeated a key: {keys:?}");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    churn.join().unwrap();
}
