//! # shard — key-space partitioning over any concurrent map
//!
//! The paper's tree coordinates at the granularity of individual links, so
//! operations on disjoint parts of the tree do not obstruct each other — but
//! under heavy load the *upper levels* of a single tree are still a shared
//! hot path that every operation traverses.  The standard remedy in the
//! concurrent-search-structure literature is **key-space partitioning**: run
//! `N` independent structures and route each key to one of them, shrinking
//! both the contention domain and the search depth by a factor of `N`.
//!
//! This crate provides that layer for *any* [`cset::ConcurrentMap`] — and so
//! for any set, since a map with `()` values is a set (`cset`'s blanket
//! impls):
//!
//! * [`ShardRouter`] — the routing policy abstraction;
//! * [`HashRouter`] — uniform spread by hashing (order-destroying);
//! * [`RangeRouter`] — contiguous `u64` key ranges (order-preserving, so
//!   cross-shard ordered scans remain possible; see [`OrderedRouter`]);
//! * [`Sharded`] — the facade that owns the inner maps, implements
//!   [`cset::ConcurrentMap`] by routing each operation, aggregates
//!   `len`/statistics across shards, and (with an ordered router) serves
//!   cross-shard ordered scans as a **bounded-memory k-way merge** over
//!   per-shard paged cursors ([`cset::OrderedMap::scan_entries`]; see the
//!   [`merge`] module).  `Sharded<LfBst<K>, _>` is a set through the same
//!   impls, `Sharded<LfBst<K, V>, _>` a map; [`ShardedMap`] names the same
//!   type.
//!
//! Static partitioning loses its wins under a skewed key distribution (one
//! strip saturates while the rest idle), so the layer is also **elastic**:
//!
//! * [`BoundaryRouter`] — the general order-preserving router: explicit
//!   sorted split points instead of a fixed stride;
//! * [`ElasticMap`] — a range-sharded map whose strip layout is published
//!   through an epoch-switched routing-table pointer, so strips can be split
//!   and merged online (readers never block; writers to a migrating strip
//!   are briefly gated; superseded tables are retired through the pluggable
//!   reclamation backend — see the [`elastic`] module docs and DESIGN.md §9);
//! * [`Rebalancer`] / [`RebalancePolicy`] — the load-driven policy that
//!   watches the always-on per-strip tallies ([`Sharded::load_per_shard`],
//!   [`ElasticMap::load_per_shard`]) and splits hot strips / merges cold
//!   neighbours, step-by-step or from a background thread.
//!
//! The benchmark harness measures this layer as experiments **E11** (shard
//! count × thread count × operation mix) and **E18** (skew × rebalancing
//! on/off); see `EXPERIMENTS.md` at the repository root.
//!
//! ## Quick start
//!
//! ```
//! use cset::ConcurrentSet;
//! use lfbst::LfBst;
//! use shard::{HashRouter, Sharded};
//! use std::sync::Arc;
//!
//! // 16 lock-free trees behind one Set facade.
//! let set = Arc::new(Sharded::new(HashRouter::new(16), |_| LfBst::new()));
//! let handles: Vec<_> = (0..4)
//!     .map(|t| {
//!         let set = Arc::clone(&set);
//!         std::thread::spawn(move || {
//!             for i in 0..1000u64 {
//!                 set.insert(t * 1000 + i);
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(set.len(), 4000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod elastic;
pub mod merge;
mod rebalance;
mod router;
mod sharded;

pub use elastic::ElasticMap;
pub use merge::MergedEntries;
pub use rebalance::{RebalanceAction, RebalancePolicy, Rebalancer, RebalancerHandle};
pub use router::{BoundaryRouter, HashRouter, OrderedRouter, RangeRouter, ShardRouter};
pub use sharded::{config_name, Sharded, ShardedMap};

pub use cset::{ConcurrentMap, ConcurrentSet, OrderedMap, OrderedSet, StatsSnapshot};

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::ops::Bound::{self, Excluded, Included, Unbounded};
    use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    // Only the set traits are imported: a `V = ()` `Sharded` implements both
    // families, so the map-face tests import `ConcurrentMap` locally.
    use cset::{ConcurrentSet, OrderedSet};
    use lfbst::{Config, LfBst};
    use locked_bst::CoarseLockMap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::{HashRouter, RangeRouter, ShardRouter, Sharded, ShardedMap};

    #[test]
    fn routes_every_operation_to_exactly_one_shard() {
        let set = Sharded::new(HashRouter::new(8), |_| LfBst::new());
        for k in 0u64..1_000 {
            assert!(set.insert(k));
            assert!(!set.insert(k), "duplicate insert must fail");
        }
        assert_eq!(set.len(), 1_000);
        // Each key is visible through the facade and lives in its routed shard.
        for k in 0u64..1_000 {
            assert!(set.contains(&k));
            let routed = set.router().route(&k);
            assert!(set.shard(routed).contains(&k));
            for i in 0..set.shard_count() {
                if i != routed {
                    assert!(!set.shard(i).contains(&k), "key {k} leaked into shard {i}");
                }
            }
        }
        for k in 0u64..1_000 {
            assert!(set.remove(&k));
            assert!(!set.remove(&k));
        }
        assert!(set.is_empty());
    }

    #[test]
    fn agrees_with_model_under_random_ops() {
        let set = Sharded::new(HashRouter::new(4), |_| LfBst::new());
        let mut model = BTreeSet::new();
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        for step in 0..30_000 {
            let k: u64 = rng.gen_range(0..400);
            match rng.gen_range(0..3) {
                0 => assert_eq!(set.insert(k), model.insert(k), "insert {k} @ {step}"),
                1 => assert_eq!(set.remove(&k), model.remove(&k), "remove {k} @ {step}"),
                _ => assert_eq!(set.contains(&k), model.contains(&k), "contains {k} @ {step}"),
            }
        }
        assert_eq!(set.len(), model.len());
    }

    #[test]
    fn range_router_scan_matches_model() {
        let set = Sharded::new(RangeRouter::covering(8, 5_000), |_| LfBst::new());
        let mut model = BTreeSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..3_000 {
            let k: u64 = rng.gen_range(0..5_000);
            set.insert(k);
            model.insert(k);
        }
        for _ in 0..200 {
            let a: u64 = rng.gen_range(0..5_000);
            let b: u64 = rng.gen_range(0..5_000);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let expected: Vec<u64> = model.range(lo..hi).copied().collect();
            assert_eq!(set.keys_between(Included(&lo), Excluded(&hi)), expected, "{lo}..{hi}");
            let expected: Vec<u64> = model.range(lo..=hi).copied().collect();
            assert_eq!(set.keys_between(Included(&lo), Included(&hi)), expected, "{lo}..={hi}");
        }
        let all: Vec<u64> = model.iter().copied().collect();
        assert_eq!(set.keys_between(Unbounded, Unbounded), all);
    }

    #[test]
    fn inverted_range_is_empty_not_a_panic() {
        // Inverted bounds must behave like every inner implementation (an
        // empty result), not index shards backwards.
        let set = Sharded::new(RangeRouter::covering(4, 100), |_| LfBst::new());
        for k in [5u64, 30, 55, 80, 99] {
            set.insert(k);
        }
        assert_eq!(set.keys_between(Included(&80), Included(&10)), Vec::<u64>::new());
        assert_eq!(set.keys_between(Included(&90), Excluded(&10)), Vec::<u64>::new());
        assert_eq!(set.scan_keys(Included(&90), Excluded(&10)).count(), 0);
        assert_eq!(set.shard(0).keys_between(Included(&80), Included(&10)), Vec::<u64>::new());
    }

    #[test]
    fn streaming_scan_matches_collecting_scan() {
        let set = Sharded::new(RangeRouter::covering(8, 5_000), |_| LfBst::new());
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..2_000 {
            set.insert(rng.gen_range(0..5_000u64));
        }
        for _ in 0..50 {
            let a: u64 = rng.gen_range(0..5_000);
            let b: u64 = rng.gen_range(0..5_000);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let collected = set.keys_between(Included(&lo), Included(&hi));
            let streamed: Vec<u64> = set.scan_keys(Included(&lo), Included(&hi)).collect();
            assert_eq!(streamed, collected, "range {lo}..={hi}");
            // Limited pages are prefixes of the full scan.
            let page = set.keys_between_limited(Included(&lo), Included(&hi), 7);
            assert_eq!(page, collected[..collected.len().min(7)].to_vec());
        }
    }

    #[test]
    fn successor_queries_cross_shards() {
        let set = Sharded::new(RangeRouter::covering(4, 100), |_| LfBst::new());
        assert_eq!(set.first(), None);
        assert_eq!(set.last(), None);
        assert_eq!(set.next_after(&50), None);
        for k in [5u64, 30, 55, 80] {
            set.insert(k);
        }
        assert_eq!(set.first(), Some(5));
        assert_eq!(set.last(), Some(80));
        // Successors within a shard and across shard boundaries.
        assert_eq!(set.next_after(&5), Some(30));
        assert_eq!(set.next_after(&30), Some(55));
        assert_eq!(set.next_after(&31), Some(55));
        assert_eq!(set.next_after(&80), None);
        // Empty low shards are skipped.
        set.remove(&5);
        assert_eq!(set.first(), Some(30));
    }

    /// A `CoarseLockMap` inner map that records which bulk method each call
    /// reached and counts the entries its scans hand out.
    #[derive(Default)]
    struct Spy<V> {
        inner: CoarseLockMap<u64, V>,
        calls: Mutex<Vec<&'static str>>,
        handed_out: AtomicUsize,
    }

    impl<V> Spy<V> {
        fn calls(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.calls.lock().unwrap())
        }

        fn hand_out<T>(&self, entries: Vec<T>) -> Vec<T> {
            self.handed_out.fetch_add(entries.len(), Ordering::Relaxed);
            entries
        }
    }

    impl<V: Clone + Send + Sync> cset::ConcurrentMap<u64, V> for Spy<V> {
        fn insert(&self, key: u64, value: V) -> bool {
            cset::ConcurrentMap::insert(&self.inner, key, value)
        }
        fn get(&self, key: &u64) -> Option<V> {
            self.inner.get(key)
        }
        fn upsert(&self, key: u64, value: V) -> Option<V> {
            self.inner.upsert(key, value)
        }
        fn remove(&self, key: &u64) -> Option<V> {
            cset::ConcurrentMap::remove(&self.inner, key)
        }
        fn len(&self) -> usize {
            cset::ConcurrentMap::len(&self.inner)
        }
        fn name(&self) -> &'static str {
            "spy"
        }
    }

    impl<V: Clone + Send + Sync> cset::OrderedMap<u64, V> for Spy<V> {
        fn entries_between(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Vec<(u64, V)> {
            self.hand_out(self.inner.entries_between(lo, hi))
        }
        fn entries_between_limited(
            &self,
            lo: Bound<&u64>,
            hi: Bound<&u64>,
            limit: usize,
        ) -> Vec<(u64, V)> {
            self.hand_out(self.inner.entries_between_limited(lo, hi, limit))
        }
        fn remove_range(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> usize {
            self.calls.lock().unwrap().push("remove_range");
            cset::OrderedMap::remove_range(&self.inner, lo, hi)
        }
        fn retain_range(
            &self,
            lo: Bound<&u64>,
            hi: Bound<&u64>,
            keep: &(dyn Fn(&u64, &V) -> bool + Sync),
        ) -> usize {
            self.calls.lock().unwrap().push("retain_range");
            self.inner.retain_range(lo, hi, keep)
        }
    }

    #[test]
    fn merged_scan_memory_is_bounded_by_shards_plus_page() {
        // 4 shards x 1000 keys; an early-exit scan of 10 keys must not pull
        // the 4000-key result set through the merge.  The per-shard streams
        // are chunked pages, so the worst case is one SCAN_CHUNK page per
        // shard plus the emitted page — the documented bound.
        const SHARDS: usize = 4;
        const PER_SHARD: u64 = 1_000;
        let set = Sharded::new(RangeRouter::covering(SHARDS, SHARDS as u64 * PER_SHARD), |_| {
            Spy::<()>::default()
        });
        for k in 0..SHARDS as u64 * PER_SHARD {
            set.insert(k);
        }
        let top: Vec<u64> = set.scan_keys(Unbounded, Unbounded).take(10).collect();
        assert_eq!(top, (0..10).collect::<Vec<_>>());
        let pulled: usize =
            (0..SHARDS).map(|i| set.shard(i).handed_out.load(Ordering::Relaxed)).sum();
        let bound = SHARDS * cset::SCAN_CHUNK + 10;
        assert!(
            pulled <= bound,
            "early-exit merge pulled {pulled} keys from shards, bound is {bound} \
             (collect-everything would have pulled {})",
            SHARDS as u64 * PER_SHARD
        );
    }

    #[test]
    fn scan_composes_with_locked_inner_sets() {
        // The layer is generic: the same scan works over a lock-based inner map.
        let set = Sharded::new(RangeRouter::covering(4, 100), |_| CoarseLockMap::<u64, ()>::new());
        for k in [5u64, 30, 55, 80, 99] {
            set.insert(k);
        }
        assert_eq!(set.keys_between(Included(&10), Included(&90)), vec![30, 55, 80]);
        assert_eq!(set.keys_between(Unbounded, Excluded(&55)), vec![5, 30]);
        assert_eq!(set.name(), "coarse-mutex-btreemapx4-range");
    }

    #[test]
    fn remove_range_fans_out_to_each_shards_own_remove_range() {
        // The predicate-free sweep must reach each shard's own `remove_range`
        // (for `lfbst`, the sweep that reads no values), never a
        // `retain_range` with an always-false predicate.
        let map = Sharded::new(RangeRouter::covering(4, 400), |_| Spy::<u64>::default());
        for k in 0..400u64 {
            cset::ConcurrentMap::insert(&map, k, k);
        }
        let removed = cset::OrderedMap::remove_range(&map, Included(&50), Excluded(&250));
        assert_eq!(removed, 200);
        let calls: Vec<_> = (0..4).map(|i| map.shard(i).calls()).collect();
        assert_eq!(
            calls,
            [vec!["remove_range"], vec!["remove_range"], vec!["remove_range"], vec![]]
        );
        // A one-shard span stays on the calling thread but forwards the same way.
        assert_eq!(cset::OrderedMap::remove_range(&map, Included(&300), Excluded(&310)), 10);
        assert_eq!(map.shard(3).calls(), ["remove_range"]);
        // Eviction by predicate is the one path that reaches `retain_range`.
        let evicted =
            cset::OrderedMap::retain_range(&map, Unbounded, Unbounded, &|k, _| k % 2 == 0);
        assert_eq!(evicted, 95);
        assert!((0..4).all(|i| map.shard(i).calls() == ["retain_range"]));
    }

    #[test]
    fn set_and_map_faces_of_one_sharded_tree_agree_with_a_model() {
        // One `Sharded<LfBst<u64>, RangeRouter>`, driven step by step through
        // its set face (the blanket `ConcurrentSet`/`OrderedSet` impls) and
        // its map face (`OrderedMap::entries_between`, `remove_range`).
        use cset::OrderedMap;
        let set: Sharded<LfBst<u64>, RangeRouter> =
            Sharded::new(RangeRouter::covering(4, 512), |_| LfBst::new());
        let mut model = BTreeSet::new();
        let mut rng = StdRng::seed_from_u64(0x5E7);
        for step in 0..4_000 {
            let k: u64 = rng.gen_range(0..512);
            let hi = (k + rng.gen_range(0..64)).min(511);
            match rng.gen_range(0..8) {
                0..=2 => assert_eq!(set.insert(k), model.insert(k), "insert {k} @ {step}"),
                3 | 4 => assert_eq!(set.remove(&k), model.remove(&k), "remove {k} @ {step}"),
                5 => assert_eq!(set.contains(&k), model.contains(&k), "contains {k} @ {step}"),
                6 => {
                    let expected: Vec<u64> = model.range(k..=hi).copied().collect();
                    let entries = OrderedMap::entries_between(&set, Included(&k), Included(&hi));
                    assert_eq!(entries.into_iter().map(|(k, ())| k).collect::<Vec<_>>(), expected);
                    let keys: Vec<u64> = set.scan_keys(Included(&k), Included(&hi)).collect();
                    assert_eq!(keys, expected, "scan {k}..={hi} @ {step}");
                    assert_eq!(set.next_after(&k), model.range(k + 1..).next().copied());
                }
                _ => {
                    let expected = model.range(k..hi).count();
                    model.retain(|x| !(k..hi).contains(x));
                    let removed = OrderedMap::remove_range(&set, Included(&k), Excluded(&hi));
                    assert_eq!(removed, expected, "remove_range {k}..{hi} @ {step}");
                }
            }
        }
        assert_eq!(set.len(), model.len());
        assert_eq!(set.first(), model.first().copied());
        assert_eq!(set.last(), model.last().copied());
        assert_eq!(set.keys_between(Unbounded, Unbounded), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn len_is_exact_at_quiescence() {
        // Hammer the sharded set from several threads, join, then check that
        // the aggregated len equals ground truth — the quiescent-sum contract.
        let set = Arc::new(Sharded::new(HashRouter::new(8), |_| LfBst::new()));
        let present = Arc::new((0..512u64).map(|_| AtomicI64::new(0)).collect::<Vec<_>>());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let set = Arc::clone(&set);
                let present = Arc::clone(&present);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for _ in 0..20_000 {
                        let k = rng.gen_range(0..512u64);
                        if rng.gen_bool(0.5) {
                            if set.insert(k) {
                                present[k as usize].fetch_add(1, Ordering::Relaxed);
                            }
                        } else if set.remove(&k) {
                            present[k as usize].fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected: i64 = present.iter().map(|p| p.load(Ordering::Relaxed)).sum();
        assert_eq!(set.len() as i64, expected);
        assert_eq!(set.len_per_shard().iter().sum::<usize>(), set.len());
    }

    #[test]
    fn stats_aggregate_across_shards() {
        if !lfbst::stats_compiled() {
            // Counters are compiled out by default; the aggregation contract
            // is exercised by the stats-feature CI job.
            eprintln!("skipping: lfbst built without the `stats` feature");
            return;
        }
        let set = Sharded::new(HashRouter::new(4), |_| {
            LfBst::with_config(Config::new().record_stats(true))
        });
        for k in 0u64..2_000 {
            set.insert(k);
        }
        for k in 0u64..2_000 {
            set.remove(&k);
        }
        let merged = set.stats();
        // Every successful insert performs at least one CAS, and those CASes
        // are spread over the shards; the merge must see them all.
        assert!(merged.cas_successes >= 2_000, "merged CAS count {merged:?}");
        let per_shard: Vec<_> = (0..set.shard_count()).map(|i| set.shard(i).stats()).collect();
        assert!(per_shard.iter().all(|s| s.cas_successes > 0), "all shards saw traffic");
        assert_eq!(merged.cas_successes, per_shard.iter().map(|s| s.cas_successes).sum::<u64>());
    }

    #[test]
    fn single_shard_behaves_like_inner() {
        let sharded = Sharded::new(HashRouter::new(1), |_| LfBst::new());
        let plain = LfBst::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5_000 {
            let k: u64 = rng.gen_range(0..200);
            match rng.gen_range(0..3) {
                0 => assert_eq!(sharded.insert(k), plain.insert(k)),
                1 => assert_eq!(sharded.remove(&k), plain.remove(&k)),
                _ => assert_eq!(sharded.contains(&k), plain.contains(&k)),
            }
        }
        assert_eq!(sharded.len(), plain.len());
    }

    #[test]
    fn map_facade_routes_every_entry_to_exactly_one_shard() {
        use cset::ConcurrentMap;
        let map = Sharded::new(HashRouter::new(8), |_| LfBst::<u64, u64>::new());
        for k in 0u64..1_000 {
            assert!(map.insert(k, k * 10));
            assert!(!map.insert(k, k), "duplicate insert must fail and not overwrite");
        }
        assert_eq!(map.len(), 1_000);
        for k in 0u64..1_000 {
            assert_eq!(map.get(&k), Some(k * 10));
            let routed = map.router().route(&k);
            assert_eq!(map.shard(routed).get(&k), Some(k * 10));
        }
        for k in 0u64..1_000 {
            assert_eq!(map.upsert(k, k + 1), Some(k * 10));
            assert_eq!(map.remove(&k), Some(k + 1));
            assert_eq!(map.remove(&k), None);
        }
        assert!(map.is_empty());
    }

    #[test]
    fn map_facade_agrees_with_model_under_random_ops() {
        use cset::ConcurrentMap;
        use std::collections::BTreeMap;
        let map = Sharded::new(HashRouter::new(4), |_| LfBst::<u64, u64>::new());
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(0xFACE);
        for step in 0..20_000u64 {
            let k: u64 = rng.gen_range(0..400);
            let v: u64 = rng.gen_range(0..1_000_000);
            match rng.gen_range(0..4) {
                0 => {
                    let expected = match model.entry(k) {
                        std::collections::btree_map::Entry::Occupied(_) => false,
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(v);
                            true
                        }
                    };
                    assert_eq!(map.insert(k, v), expected, "insert {k} @ {step}");
                }
                1 => assert_eq!(map.upsert(k, v), model.insert(k, v), "upsert {k} @ {step}"),
                2 => assert_eq!(map.remove(&k), model.remove(&k), "remove {k} @ {step}"),
                _ => assert_eq!(map.get(&k), model.get(&k).copied(), "get {k} @ {step}"),
            }
        }
        assert_eq!(map.len(), model.len());
    }

    #[test]
    fn map_facade_ordered_scan_matches_model() {
        use cset::{ConcurrentMap, OrderedMap};
        use std::collections::BTreeMap;
        let map = Sharded::new(RangeRouter::covering(8, 5_000), |_| LfBst::<u64, u64>::new());
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..3_000 {
            let k: u64 = rng.gen_range(0..5_000);
            map.upsert(k, k * 3);
            model.insert(k, k * 3);
        }
        for _ in 0..100 {
            let a: u64 = rng.gen_range(0..5_000);
            let b: u64 = rng.gen_range(0..5_000);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let expected: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(
                map.entries_between(Included(&lo), Included(&hi)),
                expected,
                "range {lo}..={hi}"
            );
        }
        let all: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(map.entries_between(Unbounded, Unbounded), all);
    }

    #[test]
    fn map_facade_composes_with_the_locked_oracle() {
        use cset::{ConcurrentMap, OrderedMap};
        // `ShardedMap` is the same type, kept under its map-face name.
        let map: ShardedMap<_, _> =
            ShardedMap::new(RangeRouter::covering(4, 100), |_| CoarseLockMap::<u64, String>::new());
        for k in [5u64, 30, 55, 80] {
            map.insert(k, format!("v{k}"));
        }
        assert_eq!(map.get(&30).as_deref(), Some("v30"));
        assert_eq!(map.name(), "coarse-mutex-btreemapx4-range");
        let entries = map.entries_between(Included(&10), Excluded(&80));
        assert_eq!(entries, vec![(30, "v30".to_string()), (55, "v55".to_string())]);
    }

    #[test]
    fn names_encode_configuration() {
        let a = Sharded::new(HashRouter::new(4), |_| LfBst::<u64>::new());
        let b = Sharded::new(RangeRouter::covering(16, 100), |_| LfBst::<u64>::new());
        assert_eq!(a.name(), "lfbstx4-hash");
        assert_eq!(b.name(), "lfbstx16-range");
        // Interning: the same configuration yields the same static pointer.
        let c = Sharded::new(HashRouter::new(4), |_| LfBst::<u64>::new());
        assert!(std::ptr::eq(a.name(), c.name()));
    }

    #[test]
    fn concurrent_mixed_load_accounting() {
        // Per-key accounting across threads, the same invariant the workspace
        // conformance battery checks, applied to the sharded facade.
        let set: Arc<Sharded<LfBst<u64>, RangeRouter>> =
            Arc::new(Sharded::new(RangeRouter::covering(8, 256), |_| LfBst::new()));
        let balance = Arc::new((0..256u64).map(|_| AtomicI64::new(0)).collect::<Vec<_>>());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let set = Arc::clone(&set);
                let balance = Arc::clone(&balance);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xBEEF ^ t);
                    for _ in 0..15_000 {
                        let k = rng.gen_range(0..256u64);
                        match rng.gen_range(0..10) {
                            0..=3 => {
                                if set.insert(k) {
                                    balance[k as usize].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            4..=7 => {
                                if set.remove(&k) {
                                    balance[k as usize].fetch_sub(1, Ordering::Relaxed);
                                }
                            }
                            _ => {
                                set.contains(&k);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut expected = 0usize;
        for k in 0..256u64 {
            let b = balance[k as usize].load(Ordering::Relaxed);
            assert!(b == 0 || b == 1, "impossible balance {b} for key {k}");
            assert_eq!(set.contains(&k), b == 1, "membership mismatch for {k}");
            expected += b as usize;
        }
        assert_eq!(set.len(), expected);
        // Order-preserving router: the full scan is strictly ascending.
        let scan = set.keys_between(Unbounded, Unbounded);
        assert!(scan.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(scan.len(), expected);
    }

    #[test]
    fn load_counters_account_for_every_point_op() {
        let set = Sharded::new(RangeRouter::covering(4, 1_024), |_| LfBst::new());
        for k in 0u64..1_024 {
            set.insert(k);
        }
        for k in (0u64..1_024).step_by(2) {
            set.contains(&k);
        }
        for k in (0u64..1_024).step_by(4) {
            set.remove(&k);
        }
        let loads = set.load_per_shard();
        assert_eq!(loads.len(), 4);
        assert_eq!(loads.iter().sum::<u64>(), 1_024 + 512 + 256);
        // Uniform keys over an order-preserving router: every strip saw its
        // exact share.
        assert!(loads.iter().all(|&l| l == (1_024 + 512 + 256) / 4), "{loads:?}");
        // take_loads drains the window; load_per_shard alone does not.
        assert_eq!(set.load_per_shard(), loads);
        assert_eq!(set.take_loads(), loads);
        assert_eq!(set.load_per_shard(), vec![0; 4]);

        // The map face tallies the same way.
        {
            use cset::ConcurrentMap;
            let map =
                Sharded::new(RangeRouter::covering(2, 64), |_| CoarseLockMap::<u64, String>::new());
            map.insert(1, "a".into());
            map.upsert(40, "b".into());
            map.get(&1);
            map.contains_key(&40);
            map.remove(&1);
            assert_eq!(map.load_per_shard(), vec![3, 2]);
            assert_eq!(map.take_loads(), vec![3, 2]);
            assert_eq!(map.load_per_shard(), vec![0, 0]);
        }
    }
}
