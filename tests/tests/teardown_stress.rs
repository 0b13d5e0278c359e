//! Bulk-mutation sweeps under concurrent churn: the weak-consistency residue
//! contract, and the env-scaled teardown-under-churn stress round the nightly
//! deep hunt runs.
//!
//! The sweep contract is **weakly consistent as a whole, linearizable per
//! key**: every key's removal is one run of the removal protocol (exactly one
//! remover wins it), but keys inserted into the range while the sweep is in
//! flight may or may not be caught.  These tests pin down both halves: the
//! per-key accounting must partition perfectly, and the only allowed residue
//! after a full-range sweep is keys inserted during it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cset::{ConcurrentMap, ConcurrentSet};
use lfbst::LfBst;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard::{ElasticMap, RangeRouter, Sharded};

/// Keys inserted *while a full-range sweep runs* are the only residue the
/// weak-consistency contract allows, and nothing is lost or double-counted:
/// sweep removals plus a post-quiescence drain must account for every
/// successful insert exactly once.
#[test]
fn sweep_residue_is_only_what_churn_inserted_mid_flight() {
    const PREFILL: u64 = 1 << 14;
    const CHURN_THREADS: u64 = 3;
    const CHURN_INSERTS: u64 = 4_000;

    for round in 0..4u64 {
        let tree: Arc<LfBst<u64>> = Arc::new(LfBst::new());
        for k in 0..PREFILL {
            assert!(tree.insert(k));
        }
        let fresh_inserts = Arc::new(AtomicU64::new(0));

        let sweeper = {
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || tree.remove_range(..))
        };
        let churners: Vec<_> = (0..CHURN_THREADS)
            .map(|t| {
                let tree = Arc::clone(&tree);
                let fresh = Arc::clone(&fresh_inserts);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(round * 100 + t);
                    for _ in 0..CHURN_INSERTS {
                        // Same key space as the prefill: collisions with keys
                        // the sweep has not yet removed are expected and must
                        // report as failed inserts.
                        let k = rng.gen_range(0..PREFILL);
                        if tree.insert(k) {
                            fresh.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        let swept = sweeper.join().unwrap() as u64;
        for c in churners {
            c.join().unwrap();
        }

        // Residue = keys the churners slipped in behind the cursor.  Every
        // one of them was a successful fresh insert, so the quiescent drain
        // closes the books: prefill + fresh = swept + residue.
        let residue = tree.remove_range(..) as u64;
        let fresh = fresh_inserts.load(Ordering::Relaxed);
        assert_eq!(
            swept + residue,
            PREFILL + fresh,
            "round {round}: removal accounting does not partition \
             (swept {swept}, residue {residue}, prefill {PREFILL}, fresh {fresh})"
        );
        assert!(tree.is_empty(), "round {round}: drain left keys behind");
        lfbst::validate::validate(&tree).expect("tree validates after churned sweep");
    }
}

/// `retain` under churn obeys the same residue rule: survivors are exactly
/// the keys the predicate kept plus (possibly) keys inserted mid-sweep.
#[test]
fn retain_under_churn_never_evicts_a_kept_key() {
    const PREFILL: u64 = 1 << 13;
    let map: Arc<LfBst<u64, u64>> = Arc::new(LfBst::new());
    for k in 0..PREFILL {
        assert!(map.insert_entry(k, k));
    }
    let sweeper = {
        let map = Arc::clone(&map);
        // Keep even values only.
        std::thread::spawn(move || map.retain(|_, v| v % 2 == 0))
    };
    let churner = {
        let map = Arc::clone(&map);
        std::thread::spawn(move || {
            // Insert odd-valued entries at fresh keys while the sweep runs.
            for k in PREFILL..PREFILL + 2_000 {
                assert!(map.insert_entry(k, 1));
            }
        })
    };
    let evicted = sweeper.join().unwrap() as u64;
    churner.join().unwrap();

    assert!(evicted >= PREFILL / 2, "the sweep missed prefilled odd entries: {evicted}");
    for k in 0..PREFILL {
        // Every surviving prefill entry must satisfy the predicate: a kept
        // key is never evicted, an evicted key was odd-valued.
        if let Some(v) = map.get(&k) {
            assert_eq!(v % 2, 0, "retain evicted wrongly or kept an odd value at {k}");
        } else {
            assert_eq!(k % 2, 1, "even-valued entry {k} vanished");
        }
    }
    lfbst::validate::validate(&map).expect("map validates after churned retain");
}

/// The teardown-under-churn stress round (env-scaled, nightly deep hunt runs
/// it with `TEARDOWN_STRESS_ROUNDS=50`): refill/teardown cycles race range
/// sweeps, single-key removers and inserters on the sharded and elastic
/// compositions, asserting the per-key partition every round.
#[test]
#[ignore = "long-running; nightly CI runs it with TEARDOWN_STRESS_ROUNDS=50"]
fn teardown_under_churn_stress() {
    let rounds: u64 =
        std::env::var("TEARDOWN_STRESS_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(5);
    const KEYS: u64 = 1 << 13;
    const SHARDS: usize = 8;

    for round in 0..rounds {
        // Sharded: a sweep fanning out across strips races per-key removers.
        let set = Arc::new(Sharded::new(RangeRouter::covering(SHARDS, KEYS), |_| LfBst::new()));
        for k in 0..KEYS {
            assert!(ConcurrentSet::insert(&*set, k));
        }
        let hits = Arc::new(AtomicU64::new(0));
        let sweeper = {
            let set = Arc::clone(&set);
            std::thread::spawn(move || {
                cset::OrderedSet::remove_range(
                    &*set,
                    std::ops::Bound::Unbounded,
                    std::ops::Bound::Unbounded,
                ) as u64
            })
        };
        let removers: Vec<_> = (0..3u64)
            .map(|t| {
                let set = Arc::clone(&set);
                let hits = Arc::clone(&hits);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(round * 31 + t);
                    for _ in 0..KEYS / 2 {
                        let k = rng.gen_range(0..KEYS);
                        if ConcurrentSet::remove(&*set, &k) {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        let swept = sweeper.join().unwrap();
        for r in removers {
            r.join().unwrap();
        }
        let leftover = cset::OrderedSet::remove_range(
            &*set,
            std::ops::Bound::Unbounded,
            std::ops::Bound::Unbounded,
        ) as u64;
        assert_eq!(
            swept + hits.load(Ordering::Relaxed) + leftover,
            KEYS,
            "round {round}: sharded teardown lost or double-counted keys"
        );
        assert!(ConcurrentSet::is_empty(&*set), "round {round}: sharded teardown left residue");

        // Elastic: whole-strip swaps race inserters that immediately refill.
        let map: Arc<ElasticMap<LfBst<u64, u64>>> =
            Arc::new(ElasticMap::covering(SHARDS, KEYS, LfBst::new));
        for k in 0..KEYS {
            map.insert(k, k);
        }
        let clearer = {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                cset::OrderedMap::remove_range(
                    &*map,
                    std::ops::Bound::Unbounded,
                    std::ops::Bound::Unbounded,
                ) as u64
            })
        };
        let refiller = {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                let mut fresh = 0u64;
                for k in (0..KEYS).step_by(7) {
                    if map.insert(k, k + 1) {
                        fresh += 1;
                    }
                }
                fresh
            })
        };
        let cleared = clearer.join().unwrap();
        let fresh = refiller.join().unwrap();
        let leftover = cset::OrderedMap::remove_range(
            &*map,
            std::ops::Bound::Unbounded,
            std::ops::Bound::Unbounded,
        ) as u64;
        assert_eq!(
            cleared + leftover,
            KEYS + fresh,
            "round {round}: elastic teardown lost or double-counted entries"
        );
        assert_eq!(map.len(), 0, "round {round}: elastic teardown left residue");
    }
}
