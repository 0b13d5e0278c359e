//! Cross-implementation equivalence: feed the *same* operation sequence to all
//! implementations and require identical results at every step, then identical
//! final contents.  This catches semantic divergences that per-implementation
//! unit tests might miss.
//!
//! The second half is the **map-conformance suite**: the same step-by-step
//! equivalence discipline applied to the `ConcurrentMap` face (`LfBst<u64,
//! u64>` and its sharded compositions) against a `Mutex<BTreeMap>` oracle,
//! plus a concurrent upsert-vs-remove race battery asserting linearizable
//! `get` results.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Mutex;

use cset::{ConcurrentMap, ConcurrentSet, OrderedMap, OrderedSet};
use ellen_bst::EllenBst;
use lfbst::LfBst;
use locked_bst::{CoarseLockBst, CoarseLockMap, RwLockBst};
use natarajan_bst::NatarajanBst;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard::{BoundaryRouter, HashRouter, Sharded};

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64),
    Remove(u64),
    Contains(u64),
}

fn random_ops(n: usize, key_range: u64, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..key_range);
            match rng.gen_range(0..3) {
                0 => Op::Insert(k),
                1 => Op::Remove(k),
                _ => Op::Contains(k),
            }
        })
        .collect()
}

fn apply(set: &dyn ConcurrentSet<u64>, op: Op) -> bool {
    match op {
        Op::Insert(k) => set.insert(k),
        Op::Remove(k) => set.remove(&k),
        Op::Contains(k) => set.contains(&k),
    }
}

#[test]
fn all_implementations_agree_on_sequential_histories() {
    for seed in [1u64, 7, 99] {
        let ops = random_ops(30_000, 300, seed);
        let lfbst = LfBst::new();
        let ellen = EllenBst::new();
        let natarajan = NatarajanBst::new();
        let coarse = CoarseLockBst::new();
        let rwlock = RwLockBst::new();
        let sharded_hash = Sharded::new(HashRouter::new(8), |_| LfBst::new());
        let sharded_range = Sharded::new(BoundaryRouter::covering(8, 300), |_| LfBst::new());
        let sets: Vec<&dyn ConcurrentSet<u64>> =
            vec![&lfbst, &ellen, &natarajan, &coarse, &rwlock, &sharded_hash, &sharded_range];
        for (i, &op) in ops.iter().enumerate() {
            let expected = apply(sets[0], op);
            for set in &sets[1..] {
                assert_eq!(
                    apply(*set, op),
                    expected,
                    "{} diverged from lfbst at step {i} ({op:?}), seed {seed}",
                    set.name()
                );
            }
        }
        let reference_len = sets[0].len();
        for set in &sets[1..] {
            assert_eq!(set.len(), reference_len, "{} final size differs", set.name());
        }
        for k in 0..300u64 {
            let expected = sets[0].contains(&k);
            for set in &sets[1..] {
                assert_eq!(set.contains(&k), expected, "{} final membership of {k}", set.name());
            }
        }
    }
}

#[test]
fn snapshots_agree_after_identical_updates() {
    let ops = random_ops(20_000, 200, 1234);
    let lfbst = LfBst::new();
    let ellen = EllenBst::new();
    let natarajan = NatarajanBst::new();
    let sharded_range = Sharded::new(BoundaryRouter::covering(8, 200), |_| LfBst::new());
    for &op in &ops {
        if let Op::Contains(_) = op {
            continue;
        }
        apply(&lfbst, op);
        apply(&ellen, op);
        apply(&natarajan, op);
        apply(&sharded_range, op);
    }
    let reference: Vec<u64> = lfbst.range_iter(..).keys().collect();
    assert_eq!(reference, ellen.keys_between(Bound::Unbounded, Bound::Unbounded));
    assert_eq!(reference, natarajan.keys_between(Bound::Unbounded, Bound::Unbounded));
    // The order-preserving sharded scan must reproduce the global order.
    assert_eq!(reference, sharded_range.keys_between(Bound::Unbounded, Bound::Unbounded));
    lfbst::validate::validate(&lfbst).expect("lfbst structure must validate");
}

#[test]
fn streaming_cursors_agree_across_all_ordered_implementations() {
    // Every OrderedSet in the workspace — the native lfbst cursor, the
    // chunked fallback cursors of the external trees and the lock-based
    // baselines, and the sharded concatenated cursor — must stream the same keys in
    // the same order as the BTreeSet oracle, for collecting, limited and
    // cursor access alike.
    let ops = random_ops(15_000, 300, 4321);
    let lfbst = LfBst::new();
    let ellen = EllenBst::new();
    let natarajan = NatarajanBst::new();
    let coarse = CoarseLockBst::new();
    let rwlock = RwLockBst::new();
    let sharded_range = Sharded::new(BoundaryRouter::covering(8, 300), |_| LfBst::new());
    let mut model = std::collections::BTreeSet::new();
    for &op in &ops {
        match op {
            Op::Insert(k) => {
                model.insert(k);
            }
            Op::Remove(k) => {
                model.remove(&k);
            }
            Op::Contains(_) => continue,
        }
        apply(&lfbst, op);
        apply(&ellen, op);
        apply(&natarajan, op);
        apply(&coarse, op);
        apply(&rwlock, op);
        apply(&sharded_range, op);
    }
    let sets: [&dyn OrderedSet<u64>; 6] =
        [&lfbst, &ellen, &natarajan, &coarse, &rwlock, &sharded_range];
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..30 {
        let x: u64 = rng.gen_range(0..300);
        let y: u64 = rng.gen_range(0..300);
        let (a, b) = if x <= y { (x, y) } else { (y, x) };
        let (lo, hi) = (Bound::Included(&a), Bound::Excluded(&b));
        let expected: Vec<u64> = model.range((lo, hi)).copied().collect();
        for set in sets {
            let name = set.name();
            assert_eq!(set.keys_between(lo, hi), expected, "{name} keys_between {a}..{b}");
            let streamed: Vec<u64> = set.scan_keys(lo, hi).collect();
            assert_eq!(streamed, expected, "{name} scan_keys {a}..{b}");
            let paged: Vec<u64> = set.scan_keys(lo, hi).take(5).collect();
            assert_eq!(paged, expected[..expected.len().min(5)].to_vec(), "{name} take(5)");
            assert_eq!(
                set.keys_between_limited(lo, hi, 5),
                expected[..expected.len().min(5)].to_vec(),
                "{name} keys_between_limited {a}..{b}"
            );
        }
    }
    // Successor queries agree everywhere too.
    for set in sets {
        let name = set.name();
        assert_eq!(set.first(), model.iter().next().copied(), "{name} first");
        assert_eq!(set.last(), model.iter().next_back().copied(), "{name} last");
        for probe in (0..300u64).step_by(17) {
            let expected = model.range((Bound::Excluded(probe), Bound::Unbounded)).next().copied();
            assert_eq!(set.next_after(&probe), expected, "{name} next_after({probe})");
        }
    }
}

#[test]
fn remove_range_agrees_across_all_ordered_implementations() {
    // Every OrderedSet (native streaming sweep, chunked defaults, lock-based
    // single-hold overrides, sharded per-strip sweeps) must remove exactly the
    // keys the BTreeSet oracle says lie in the range, for every bound shape —
    // including empty, reversed and fully-missing ranges.
    let lfbst = LfBst::new();
    let ellen = EllenBst::new();
    let natarajan = NatarajanBst::new();
    let coarse = CoarseLockBst::new();
    let rwlock = RwLockBst::new();
    let sharded_range = Sharded::new(BoundaryRouter::covering(8, 400), |_| LfBst::new());
    let sets: [&dyn OrderedSet<u64>; 6] =
        [&lfbst, &ellen, &natarajan, &coarse, &rwlock, &sharded_range];
    let mut model = std::collections::BTreeSet::new();
    let mut rng = StdRng::seed_from_u64(0xE16);

    let bound_of = |which: u32, k: u64| match which {
        0 => Bound::Unbounded,
        1 => Bound::Included(k),
        _ => Bound::Excluded(k),
    };
    for round in 0..60 {
        // Repopulate, then cut a random range out of everything at once.
        for _ in 0..rng.gen_range(50..200) {
            let k = rng.gen_range(0..400u64);
            if model.insert(k) {
                for set in sets {
                    assert!(set.insert(k), "{} disagreed on inserting {k}", set.name());
                }
            }
        }
        let (a, b) = (rng.gen_range(0..400u64), rng.gen_range(0..400u64));
        let lo = bound_of(rng.gen_range(0..3), a);
        let hi = bound_of(rng.gen_range(0..3), b); // reversed/empty shapes included
        let in_range = |k: &u64| {
            (match lo {
                Bound::Unbounded => true,
                Bound::Included(b) => *k >= b,
                Bound::Excluded(b) => *k > b,
            }) && (match hi {
                Bound::Unbounded => true,
                Bound::Included(b) => *k <= b,
                Bound::Excluded(b) => *k < b,
            })
        };
        let doomed: Vec<u64> = model.iter().copied().filter(in_range).collect();
        for &k in &doomed {
            model.remove(&k);
        }
        for set in sets {
            let removed = set.remove_range(lo.as_ref(), hi.as_ref());
            assert_eq!(
                removed,
                doomed.len(),
                "{} removed a different count for {lo:?}..{hi:?} in round {round}",
                set.name()
            );
            assert_eq!(
                set.keys_between(Bound::Unbounded, Bound::Unbounded),
                model.iter().copied().collect::<Vec<_>>(),
                "{} contents diverged after {lo:?}..{hi:?} in round {round}",
                set.name()
            );
        }
    }
    lfbst::validate::validate(&lfbst).expect("lfbst must validate after the range battery");
}

// ---------------------------------------------------------------------------
// Map conformance: LfBst<u64, u64> and its compositions vs a Mutex<BTreeMap>.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum MapOp {
    Insert(u64, u64),
    Upsert(u64, u64),
    Remove(u64),
    Get(u64),
    ContainsKey(u64),
}

fn random_map_ops(n: usize, key_range: u64, seed: u64) -> Vec<MapOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let k = rng.gen_range(0..key_range);
            let v = (i as u64) << 16 | k; // unique per step, key-stamped
            match rng.gen_range(0..5) {
                0 => MapOp::Insert(k, v),
                1 => MapOp::Upsert(k, v),
                2 => MapOp::Remove(k),
                3 => MapOp::Get(k),
                _ => MapOp::ContainsKey(k),
            }
        })
        .collect()
}

/// The observable result of one map operation, for step-wise comparison.
#[derive(Debug, PartialEq, Eq)]
enum MapOutcome {
    Inserted(bool),
    Previous(Option<u64>),
    Value(Option<u64>),
    Present(bool),
}

fn apply_map(map: &dyn ConcurrentMap<u64, u64>, op: MapOp) -> MapOutcome {
    match op {
        MapOp::Insert(k, v) => MapOutcome::Inserted(map.insert(k, v)),
        MapOp::Upsert(k, v) => MapOutcome::Previous(map.upsert(k, v)),
        MapOp::Remove(k) => MapOutcome::Previous(map.remove(&k)),
        MapOp::Get(k) => MapOutcome::Value(map.get(&k)),
        MapOp::ContainsKey(k) => MapOutcome::Present(map.contains_key(&k)),
    }
}

/// The oracle: the sequential `BTreeMap` semantics lifted through a mutex.
fn apply_oracle(oracle: &Mutex<BTreeMap<u64, u64>>, op: MapOp) -> MapOutcome {
    let mut m = oracle.lock().unwrap();
    match op {
        MapOp::Insert(k, v) => MapOutcome::Inserted(match m.entry(k) {
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(v);
                true
            }
        }),
        MapOp::Upsert(k, v) => MapOutcome::Previous(m.insert(k, v)),
        MapOp::Remove(k) => MapOutcome::Previous(m.remove(&k)),
        MapOp::Get(k) => MapOutcome::Value(m.get(&k).copied()),
        MapOp::ContainsKey(k) => MapOutcome::Present(m.contains_key(&k)),
    }
}

#[test]
fn map_implementations_agree_with_btreemap_oracle_on_sequential_histories() {
    for seed in [2u64, 13, 101] {
        let ops = random_map_ops(30_000, 300, seed);
        let oracle: Mutex<BTreeMap<u64, u64>> = Mutex::new(BTreeMap::new());
        let lfbst: LfBst<u64, u64> = LfBst::new();
        let sharded_hash = Sharded::new(HashRouter::new(8), |_| LfBst::<u64, u64>::new());
        let sharded_range =
            Sharded::new(BoundaryRouter::covering(8, 300), |_| LfBst::<u64, u64>::new());
        let locked: CoarseLockMap<u64, u64> = CoarseLockMap::new();
        let maps: Vec<&dyn ConcurrentMap<u64, u64>> =
            vec![&lfbst, &sharded_hash, &sharded_range, &locked];
        for (i, &op) in ops.iter().enumerate() {
            let expected = apply_oracle(&oracle, op);
            for map in &maps {
                assert_eq!(
                    apply_map(*map, op),
                    expected,
                    "{} diverged from the BTreeMap oracle at step {i} ({op:?}), seed {seed}",
                    map.name()
                );
            }
        }
        let expected_len = oracle.lock().unwrap().len();
        for map in &maps {
            assert_eq!(map.len(), expected_len, "{} final size differs", map.name());
        }
        for k in 0..300u64 {
            let expected = oracle.lock().unwrap().get(&k).copied();
            for map in &maps {
                assert_eq!(map.get(&k), expected, "{} final value of {k}", map.name());
            }
        }
        lfbst::validate::validate(&lfbst).expect("map tree must validate");
    }
}

#[test]
fn map_ordered_scans_agree_with_the_oracle() {
    let ops = random_map_ops(20_000, 200, 4321);
    let oracle: Mutex<BTreeMap<u64, u64>> = Mutex::new(BTreeMap::new());
    let lfbst: LfBst<u64, u64> = LfBst::new();
    let sharded_range =
        Sharded::new(BoundaryRouter::covering(8, 200), |_| LfBst::<u64, u64>::new());
    let locked: CoarseLockMap<u64, u64> = CoarseLockMap::new();
    let maps: [&dyn OrderedMap<u64, u64>; 3] = [&lfbst, &sharded_range, &locked];
    // The end and successor queries: `first_entry` is one cursor step,
    // `last_entry` a rightmost-path walk and `next_entry_after` a seek plus
    // one hop on lfbst, each routed per strip on the sharded map.
    let probes: Vec<u64> = (0..20).map(|i| i * 11).collect();
    let check_ends = |model: &BTreeMap<u64, u64>, when: &str| {
        let entry = |(&k, &v): (&u64, &u64)| (k, v);
        for map in maps {
            let name = map.name();
            assert_eq!(map.first_entry(), model.iter().next().map(entry), "{name} first, {when}");
            assert_eq!(
                map.last_entry(),
                model.iter().next_back().map(entry),
                "{name} last, {when}"
            );
            for &p in &probes {
                let expected = model.range((Bound::Excluded(p), Bound::Unbounded)).next();
                assert_eq!(
                    map.next_entry_after(&p),
                    expected.map(entry),
                    "{name} after {p}, {when}"
                );
            }
        }
    };
    check_ends(&oracle.lock().unwrap(), "empty");
    for &op in &ops {
        if matches!(op, MapOp::Get(_) | MapOp::ContainsKey(_)) {
            continue;
        }
        apply_oracle(&oracle, op);
        for map in maps {
            apply_map(map, op);
        }
    }
    let model = oracle.lock().unwrap();
    check_ends(&model, "filled");
    let reference: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(lfbst.range_iter(..).collect::<Vec<_>>(), reference);
    assert_eq!(lfbst.entries_between(Bound::Unbounded, Bound::Unbounded), reference);
    assert_eq!(sharded_range.entries_between(Bound::Unbounded, Bound::Unbounded), reference);
    assert_eq!(OrderedMap::entries_between(&locked, Bound::Unbounded, Bound::Unbounded), reference);
    // Sub-range scans agree too, across all bound shapes.
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..50 {
        let a: u64 = rng.gen_range(0..200);
        let b: u64 = rng.gen_range(0..200);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let expected: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(lfbst.entries_between(Bound::Included(&lo), Bound::Included(&hi)), expected);
        assert_eq!(
            sharded_range.entries_between(Bound::Included(&lo), Bound::Included(&hi)),
            expected
        );
    }
}

#[test]
fn map_retain_and_remove_range_agree_with_the_oracle() {
    // The map-face bulk mutations: retain_range must evict exactly the
    // entries the oracle's predicate-over-range evicts, on the native
    // streaming sweep (lfbst), the per-strip sweeps (sharded range) and the
    // single-lock override alike.
    let oracle: Mutex<BTreeMap<u64, u64>> = Mutex::new(BTreeMap::new());
    let lfbst: LfBst<u64, u64> = LfBst::new();
    let sharded_range =
        Sharded::new(BoundaryRouter::covering(8, 300), |_| LfBst::<u64, u64>::new());
    let locked: CoarseLockMap<u64, u64> = CoarseLockMap::new();
    let maps: [&dyn OrderedMap<u64, u64>; 3] = [&lfbst, &sharded_range, &locked];
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for round in 0..40 {
        for _ in 0..rng.gen_range(40..160) {
            let k = rng.gen_range(0..300u64);
            let v = rng.gen_range(0..1000u64);
            oracle.lock().unwrap().insert(k, v);
            for map in maps {
                map.upsert(k, v);
            }
        }
        let (a, b) = (rng.gen_range(0..300u64), rng.gen_range(0..300u64));
        let (lo, hi) = (a.min(b), a.max(b));
        let modulus = rng.gen_range(2..5u64);
        let expected = {
            let mut m = oracle.lock().unwrap();
            let doomed: Vec<u64> =
                m.range(lo..=hi).filter(|(_, v)| *v % modulus != 0).map(|(&k, _)| k).collect();
            for k in &doomed {
                m.remove(k);
            }
            doomed.len()
        };
        for map in maps {
            let removed = map.retain_range(
                Bound::Included(&lo),
                Bound::Included(&hi),
                &move |_: &u64, v: &u64| v % modulus == 0,
            );
            assert_eq!(
                removed,
                expected,
                "{} evicted a different count in round {round} ([{lo}, {hi}] % {modulus})",
                map.name()
            );
        }
        let reference: Vec<(u64, u64)> =
            oracle.lock().unwrap().iter().map(|(&k, &v)| (k, v)).collect();
        for map in maps {
            assert_eq!(
                map.entries_between(Bound::Unbounded, Bound::Unbounded),
                reference,
                "{} contents diverged in round {round}",
                map.name()
            );
        }
    }
    // Drain everything through the map-face remove_range and confirm parity.
    let expected = oracle.lock().unwrap().len();
    for map in maps {
        assert_eq!(map.remove_range(Bound::Unbounded, Bound::Unbounded), expected);
        assert_eq!(map.len(), 0, "{} left residue after the full drain", map.name());
    }
    lfbst::validate::validate(&lfbst).expect("map tree must validate after the retain battery");
}

#[test]
fn map_as_set_bridge_matches_the_set_face_of_the_same_tree() {
    // `LfBst<u64>` is a set only through the blanket impls over its map face:
    // trait dispatch on one tree and the inherent set methods on another must
    // both agree step by step with a `BTreeSet` model.
    let ops = random_ops(20_000, 250, 777);
    let bridged: LfBst<u64> = LfBst::new();
    let native: LfBst<u64> = LfBst::new();
    let mut model = BTreeSet::new();
    for (i, &op) in ops.iter().enumerate() {
        let (expected, inherent) = match op {
            Op::Insert(k) => (model.insert(k), native.insert(k)),
            Op::Remove(k) => (model.remove(&k), native.remove(&k)),
            Op::Contains(k) => (model.contains(&k), native.contains(&k)),
        };
        assert_eq!(inherent, expected, "inherent face diverged at step {i} ({op:?})");
        assert_eq!(apply(&bridged, op), expected, "trait dispatch diverged at step {i} ({op:?})");
    }
    let keys = |model: &BTreeSet<u64>| model.iter().copied().collect::<Vec<_>>();
    let set: &dyn OrderedSet<u64> = &bridged;
    assert_eq!((set.len(), native.len()), (model.len(), model.len()));
    assert_eq!(set.keys_between(Bound::Unbounded, Bound::Unbounded), keys(&model));
    assert_eq!(native.range_iter(..).keys().collect::<Vec<_>>(), keys(&model));
    assert_eq!(set.first(), model.first().copied());
    assert_eq!(native.range_iter(..).keys().next(), model.first().copied());
    assert_eq!(set.last(), model.last().copied());
    let after_100 = model.range((Bound::Excluded(100), Bound::Unbounded)).next().copied();
    assert_eq!(set.next_after(&100), after_100);
    let native_after_100 =
        native.range_iter((Bound::Excluded(100), Bound::Unbounded)).keys().next();
    assert_eq!(native_after_100, after_100);
    let doomed = model.range(50..150).count();
    model.retain(|k| !(50..150).contains(k));
    assert_eq!(set.remove_range(Bound::Included(&50), Bound::Excluded(&150)), doomed);
    assert_eq!(native.remove_range(50..150), doomed);
    assert_eq!(set.keys_between(Bound::Unbounded, Bound::Unbounded), keys(&model));
    assert_eq!(native.range_iter(..).keys().collect::<Vec<_>>(), keys(&model));
}

/// The upsert-vs-remove race battery the map contract promises
/// (`integration_tests::upsert_vs_remove_race`): `get` stays linearizable
/// while writers replace values in place and removers evict the same keys.
fn upsert_vs_remove_keeps_gets_linearizable<V: integration_tests::Tagged + lfbst::MapValue>() {
    let map: std::sync::Arc<LfBst<u64, V>> = std::sync::Arc::new(LfBst::new());
    integration_tests::upsert_vs_remove_race(std::sync::Arc::clone(&map), 30_000);
    lfbst::validate::validate(&*map).expect("map tree must validate after the race");
}

/// Over the inline `u64` cell: a replace is one word swap.
#[test]
fn concurrent_upsert_vs_remove_keeps_gets_linearizable() {
    upsert_vs_remove_keeps_gets_linearizable::<u64>();
}

/// Over the boxed cell: a replace retires the old box under racing readers.
#[test]
fn concurrent_upsert_vs_remove_keeps_gets_linearizable_boxed() {
    upsert_vs_remove_keeps_gets_linearizable::<Box<u64>>();
}
