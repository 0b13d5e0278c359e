//! The structures under test, the calls the benchmark makes on them, and the
//! output checker behind `correct_op_share`.

use std::ops::Bound::{Excluded, Included};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use cset::{ConcurrentMap, ConcurrentSet, EntryCursor, OrderedMap, StatsSnapshot};
use lfbst::{Config, LfBst, MapValue, Pinned};
use shard::ElasticMap;

use crate::engine::{Kind, Ledger};
use crate::input::{stamp, stamped_for, Op, Spec, RANGE_SPAN, SCAN_SPAN, SCAN_TAKE};

pub type SetTree = LfBst<u64>;
pub type MapTree = LfBst<u64, u64>;

/// Strips of the map workload's `ElasticMap`.  Fixed: no rebalancer runs,
/// since a third thread would exceed the two CPUs.
pub const STRIPS: usize = 4;

/// Set calls shared by every set-face structure; the closures are the
/// structure's `contains`, `insert` and `remove`.
#[inline(always)]
fn set_calls(
    op: Op,
    l: &mut Ledger,
    contains: impl FnOnce(u64) -> bool,
    insert: impl FnOnce(u64) -> bool,
    remove: impl FnOnce(u64) -> bool,
) -> Kind {
    match op.point() {
        Op::Write(k) => {
            l.inserts += 1;
            l.insert_hits += u64::from(insert(k));
            Kind::Insert
        }
        Op::Remove(k) => {
            l.removes += 1;
            l.remove_hits += u64::from(remove(k));
            Kind::Remove
        }
        Op::Read(k) | Op::Scan(k) | Op::RemoveRange(k) => {
            std::hint::black_box(contains(k));
            Kind::Contains
        }
    }
}

#[inline(always)]
pub fn set_step<S: ConcurrentSet<u64>>(s: &S, op: Op, l: &mut Ledger) -> Kind {
    set_calls(op, l, |k| s.contains(&k), |k| s.insert(k), |k| s.remove(&k))
}

#[inline(always)]
pub fn pinned_set_step(p: &Pinned<'_, u64>, op: Op, l: &mut Ledger) -> Kind {
    set_calls(op, l, |k| p.contains(&k), |k| p.insert(k), |k| p.remove(&k))
}

/// Counts one failed call and describes the first few on stderr.
#[cold]
fn fail(l: &mut Ledger, what: std::fmt::Arguments<'_>) {
    static REPORTED: AtomicU32 = AtomicU32::new(0);
    l.failed += 1;
    if REPORTED.fetch_add(1, Ordering::Relaxed) < 10 {
        eprintln!("perfbench: failed call: {what}");
    }
}

/// Counts a returned map value that is not stamped for its key.
#[inline(always)]
fn check_value(key: u64, value: Option<u64>, l: &mut Ledger) {
    if let Some(v) = value.filter(|&v| !stamped_for(key, v)) {
        fail(l, format_args!("key {key} returned value {v:#x}"));
    }
}

/// Map point calls; the closures are `get`, `upsert` and `remove`.
#[inline(always)]
pub fn map_calls(
    op: Op,
    nonce: u64,
    l: &mut Ledger,
    get: impl FnOnce(u64) -> Option<u64>,
    upsert: impl FnOnce(u64, u64) -> Option<u64>,
    remove: impl FnOnce(u64) -> Option<u64>,
) -> Kind {
    match op.point() {
        Op::Write(k) => {
            l.inserts += 1;
            let prev = upsert(k, stamp(k, nonce));
            l.insert_hits += u64::from(prev.is_none());
            check_value(k, prev, l);
            Kind::Upsert
        }
        Op::Remove(k) => {
            l.removes += 1;
            let prev = remove(k);
            l.remove_hits += u64::from(prev.is_some());
            check_value(k, prev, l);
            Kind::Remove
        }
        Op::Read(k) | Op::Scan(k) | Op::RemoveRange(k) => {
            check_value(k, get(k), l);
            Kind::Get
        }
    }
}

#[inline(always)]
pub fn pinned_map_step(p: &Pinned<'_, u64, u64>, op: Op, nonce: u64, l: &mut Ledger) -> Kind {
    map_calls(op, nonce, l, |k| p.get(&k), |k, v| p.upsert(k, v), |k| p.remove_entry(&k))
}

/// Every map call, including the ordered ones; returns the kind and, for
/// scans and range removals, the keys they returned or removed.
#[inline(always)]
pub fn map_step<M: OrderedMap<u64, u64>>(m: &M, op: Op, nonce: u64, l: &mut Ledger) -> (Kind, u64) {
    match op {
        Op::Scan(lo) => {
            let hi = lo + SCAN_SPAN;
            let (mut n, mut bad, mut prev) = (0u64, None, None);
            for (k, v) in m.scan_entries(Included(&lo), Excluded(&hi)).take(SCAN_TAKE) {
                if k < lo || k >= hi || prev.is_some_and(|p| k <= p) || !stamped_for(k, v) {
                    bad = bad.or(Some((k, v, prev)));
                }
                prev = Some(k);
                n += 1;
            }
            if let Some((k, v, prev)) = bad {
                fail(l, format_args!("scan [{lo}, {hi}) yielded {k} -> {v:#x} after {prev:?}"));
            }
            (Kind::Scan, n)
        }
        Op::RemoveRange(lo) => {
            let n = m.remove_range(Included(&lo), Excluded(&(lo + RANGE_SPAN))) as u64;
            if n > RANGE_SPAN {
                fail(l, format_args!("remove_range of {RANGE_SPAN} keys at {lo} removed {n}"));
            }
            l.range_removed += n;
            (Kind::RemoveRange, n)
        }
        op => (map_calls(op, nonce, l, |k| m.get(&k), |k, v| m.upsert(k, v), |k| m.remove(&k)), 0),
    }
}

/// `lfbst::validate` as a failure count: a broken tree is one failed call.
pub fn validate<V: MapValue>(t: &LfBst<u64, V>) -> u64 {
    match lfbst::validate::validate(t) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("perfbench: tree failed validation: {e}");
            1
        }
    }
}

/// Size accounting: each key the structure gained or lost beyond what the
/// calls reported is one failed call.
pub fn size_violations(expected: i64, len: usize) -> u64 {
    let gap = expected.abs_diff(len as i64);
    if gap > 0 {
        eprintln!("perfbench: size accounting off by {gap} (expected {expected}, len {len})");
    }
    gap
}

/// A workload's structure as the end-to-end run sees it.
pub trait Subject: Sync {
    fn prefill(&self, spec: &Spec, seed: u64) -> usize;
    /// One call; returns its kind and the keys a bulk call returned or removed.
    fn step(&self, op: Op, nonce: u64, l: &mut Ledger) -> (Kind, u64);
    /// Quiescent check after a pass: returns the failed-call count.
    fn check(&self, expected_len: i64) -> u64;
    fn stats(&self) -> StatsSnapshot;
}

impl Subject for SetTree {
    fn prefill(&self, spec: &Spec, seed: u64) -> usize {
        spec.prefill(seed, |k| self.insert(k))
    }

    #[inline]
    fn step(&self, op: Op, _nonce: u64, l: &mut Ledger) -> (Kind, u64) {
        (set_step(self, op, l), 0)
    }

    fn check(&self, expected_len: i64) -> u64 {
        validate(self) + size_violations(expected_len, self.len())
    }

    fn stats(&self) -> StatsSnapshot {
        LfBst::stats(self)
    }
}

/// A strip tree of the map workload.  It shares its tree with a registry so
/// the checker can validate every strip after the run; `ElasticMap` keeps
/// its strips private.  Every call forwards to the tree, including the
/// ordered ones `LfBst` specialises.
pub struct Tracked(Arc<MapTree>);

impl ConcurrentMap<u64, u64> for Tracked {
    #[inline]
    fn insert(&self, key: u64, value: u64) -> bool {
        self.0.insert_entry(key, value)
    }
    #[inline]
    fn get(&self, key: &u64) -> Option<u64> {
        self.0.get(key)
    }
    #[inline]
    fn upsert(&self, key: u64, value: u64) -> Option<u64> {
        self.0.upsert(key, value)
    }
    #[inline]
    fn remove(&self, key: &u64) -> Option<u64> {
        self.0.remove_entry(key)
    }
    fn contains_key(&self, key: &u64) -> bool {
        self.0.contains(key)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn name(&self) -> &'static str {
        "lfbst"
    }
    fn stats(&self) -> StatsSnapshot {
        self.0.stats()
    }
}

impl OrderedMap<u64, u64> for Tracked {
    fn entries_between(
        &self,
        lo: std::ops::Bound<&u64>,
        hi: std::ops::Bound<&u64>,
    ) -> Vec<(u64, u64)> {
        self.0.entries_between(lo, hi)
    }
    fn entries_between_limited(
        &self,
        lo: std::ops::Bound<&u64>,
        hi: std::ops::Bound<&u64>,
        limit: usize,
    ) -> Vec<(u64, u64)> {
        self.0.entries_between_limited(lo, hi, limit)
    }
    fn scan_entries<'a>(
        &'a self,
        lo: std::ops::Bound<&u64>,
        hi: std::ops::Bound<&u64>,
    ) -> EntryCursor<'a, u64, u64>
    where
        u64: 'a,
    {
        self.0.scan_entries(lo, hi)
    }
    fn first_entry(&self) -> Option<(u64, u64)> {
        self.0.first_entry()
    }
    fn last_entry(&self) -> Option<(u64, u64)> {
        OrderedMap::last_entry(&*self.0)
    }
    fn next_entry_after(&self, key: &u64) -> Option<(u64, u64)> {
        OrderedMap::next_entry_after(&*self.0, key)
    }
    fn remove_range(&self, lo: std::ops::Bound<&u64>, hi: std::ops::Bound<&u64>) -> usize {
        OrderedMap::remove_range(&*self.0, lo, hi)
    }
    fn retain_range(
        &self,
        lo: std::ops::Bound<&u64>,
        hi: std::ops::Bound<&u64>,
        keep: &(dyn Fn(&u64, &u64) -> bool + Sync),
    ) -> usize {
        self.0.retain_range(lo, hi, keep)
    }
}

/// The map workload's structure: `ElasticMap` over [`STRIPS`] fixed strips.
pub struct ElasticSubject {
    pub map: ElasticMap<Tracked>,
    trees: Arc<Mutex<Vec<Arc<MapTree>>>>,
}

impl ElasticSubject {
    pub fn new(spec: &Spec, config: Config) -> Self {
        let trees = Arc::new(Mutex::new(Vec::new()));
        let registry = Arc::clone(&trees);
        let map = ElasticMap::covering(STRIPS, spec.key_space, move || {
            let tree = Arc::new(MapTree::with_config(config));
            registry.lock().expect("strip registry poisoned").push(Arc::clone(&tree));
            Tracked(tree)
        });
        ElasticSubject { map, trees }
    }

    /// Share of all calls that went to the busiest strip since the last
    /// `take_loads`.
    pub fn hot_strip_share(&self) -> f64 {
        let loads = self.map.load_per_shard();
        let total: u64 = loads.iter().sum();
        loads.iter().copied().max().unwrap_or(0) as f64 / total.max(1) as f64
    }
}

impl Subject for ElasticSubject {
    fn prefill(&self, spec: &Spec, seed: u64) -> usize {
        spec.prefill(seed, |k| self.map.insert(k, stamp(k, 0)))
    }

    #[inline]
    fn step(&self, op: Op, nonce: u64, l: &mut Ledger) -> (Kind, u64) {
        map_step(&self.map, op, nonce, l)
    }

    fn check(&self, expected_len: i64) -> u64 {
        let trees = self.trees.lock().expect("strip registry poisoned");
        let broken: u64 = trees.iter().map(|t| validate(t)).sum();
        broken + size_violations(expected_len, self.map.len())
    }

    fn stats(&self) -> StatsSnapshot {
        self.map.stats()
    }
}
