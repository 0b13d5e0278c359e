//! Backend-generic conformance matrix: every behavioural contract the suite
//! checks for the default EBR backend must hold verbatim when the same
//! structure runs on interval-based reclamation, plus the one property that
//! separates the backends — bounded garbage under a stalled reader.
//!
//! The tests are generic over `R: Reclaimer` and instantiated for both
//! [`lfbst::Ebr`] and [`lfbst::Ibr`]; a reclamation bug that only manifests
//! on one backend (premature free, leaked bag, stuck era) fails exactly one
//! instantiation and names it.
//!
//! Reclamation statistics and the `GarbageBound` ceiling are process-global,
//! so every test here serialises on one mutex — each `.rs` file under
//! `tests/` is its own test binary, which makes the lock airtight.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crossbeam_epoch::{garbage_bound, set_garbage_bound};
use integration_tests::Tagged;
use lfbst::{Ebr, GarbageBound, Ibr, LfBst, MapValue, Reclaimer};
use lflist::LockFreeList;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Serialises the tests in this binary: they assert on process-wide
/// reclamation counters and mutate the global garbage ceiling.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default).lock().unwrap_or_else(|e| e.into_inner())
}

/// Sequential set conformance against a `BTreeSet` oracle, over whichever
/// structure the closure builds.
fn set_agrees_with_oracle(set: &dyn cset::ConcurrentSet<u64>, seed: u64) {
    let mut oracle = BTreeSet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..4_000 {
        let k = rng.gen_range(0..64u64);
        match rng.gen_range(0..3u8) {
            0 => assert_eq!(set.insert(k), oracle.insert(k), "insert({k}) on {}", set.name()),
            1 => assert_eq!(set.remove(&k), oracle.remove(&k), "remove({k}) on {}", set.name()),
            _ => assert_eq!(set.contains(&k), oracle.contains(&k), "contains({k})"),
        }
        assert_eq!(set.len(), oracle.len());
    }
}

fn set_conformance<R: Reclaimer>() {
    let tree: LfBst<u64, (), R> = LfBst::new_in();
    set_agrees_with_oracle(&tree, 0xC0FF_EE00);
    lfbst::validate::validate(&tree).expect("tree validates after oracle run");
    let list: LockFreeList<u64, R> = LockFreeList::new_in();
    set_agrees_with_oracle(&list, 0xC0FF_EE01);
}

fn map_conformance<R: Reclaimer>() {
    let map: LfBst<u64, u64, R> = LfBst::new_in();
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(0xABBA);
    for i in 0..4_000u64 {
        let k = rng.gen_range(0..64u64);
        match rng.gen_range(0..3u8) {
            0 => assert_eq!(map.upsert(k, i), oracle.insert(k, i), "upsert({k})"),
            1 => assert_eq!(map.remove_entry(&k), oracle.remove(&k), "remove_entry({k})"),
            _ => assert_eq!(map.get(&k), oracle.get(&k).copied(), "get({k})"),
        }
    }
    assert_eq!(
        map.entries_in_range(..).into_iter().collect::<Vec<_>>(),
        oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
        "final ordered snapshot diverged from the oracle"
    );
}

/// The upsert-vs-remove race battery (`integration_tests::upsert_vs_remove_race`)
/// on backend `R`: stale reads through a prematurely freed value box would
/// surface as a foreign tag.  Run over `u64` (inline cell, nothing retired on
/// replace) and `Box<u64>` (boxed cell, one retirement per replace).
fn upsert_vs_remove_race<V: Tagged + MapValue, R: Reclaimer>() {
    let map: Arc<LfBst<u64, V, R>> = Arc::new(LfBst::new_in());
    integration_tests::upsert_vs_remove_race(Arc::clone(&map), 15_000);
    lfbst::validate::validate(&*map).expect("tree validates after the race");
}

/// The bulk-mutation matrix row: the streaming `remove_range`/`retain`
/// sweeps must agree with the oracle on backend `R` exactly as single-key
/// removals do — the sweep drives the same removal protocol, but retires
/// victims through `retire_batch` windows, which is precisely the code path
/// a backend could get wrong (freeing a chunk the guard still references,
/// or never settling the window).
fn bulk_sweep_conformance<R: Reclaimer>() {
    let map: LfBst<u64, u64, R> = LfBst::new_in();
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(0xB01D);
    for round in 0..30 {
        for _ in 0..rng.gen_range(64..256) {
            let k = rng.gen_range(0..512u64);
            let v = rng.gen_range(0..100u64);
            map.upsert(k, v);
            oracle.insert(k, v);
        }
        if round % 3 == 0 {
            let cutoff = rng.gen_range(0..100u64);
            let expected = {
                let doomed: Vec<u64> =
                    oracle.iter().filter(|(_, &v)| v < cutoff).map(|(&k, _)| k).collect();
                for k in &doomed {
                    oracle.remove(k);
                }
                doomed.len()
            };
            assert_eq!(map.retain(|_, v| *v >= cutoff), expected, "retain<{cutoff} diverged");
        } else {
            let (a, b) = (rng.gen_range(0..512u64), rng.gen_range(0..512u64));
            let (lo, hi) = (a.min(b), a.max(b));
            let expected = {
                let doomed: Vec<u64> = oracle.range(lo..hi).map(|(&k, _)| k).collect();
                for k in &doomed {
                    oracle.remove(k);
                }
                doomed.len()
            };
            assert_eq!(map.remove_range(lo..hi), expected, "remove_range {lo}..{hi} diverged");
        }
        assert_eq!(
            map.entries_in_range(..).into_iter().collect::<Vec<_>>(),
            oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
            "contents diverged after round {round}"
        );
    }
    lfbst::validate::validate(&map).expect("tree validates after the sweep battery");
}

#[test]
fn bulk_sweep_conformance_on_ebr() {
    let _g = lock();
    bulk_sweep_conformance::<Ebr>();
}

#[test]
fn bulk_sweep_conformance_on_ibr() {
    let _g = lock();
    bulk_sweep_conformance::<Ibr>();
}

/// The `GarbageBound` interaction the bulk sweeps depend on: a batch-retire
/// window settles the bound **once per chunk**, not once per retired node.
/// With a ceiling far below one chunk's garbage, a sweep over many chunks
/// must trip the bound at most a handful of times (one settle per window) —
/// per-node enforcement would trip it thousands of times and pay the whole
/// futile ladder each time.
#[test]
fn bulk_retirement_checks_the_bound_once_per_chunk() {
    let _g = lock();
    // 4 full sweep windows of lfbst::bulk::BULK_CHUNK = 512 doomed keys.
    const N: u64 = 2048;
    const CHUNKS: u64 = N / lfbst::bulk::BULK_CHUNK as u64;
    let tree: LfBst<u64, ()> = LfBst::new();
    for k in 0..N {
        tree.insert(k);
    }
    <Ebr as Reclaimer>::collect();

    let saved = garbage_bound();
    set_garbage_bound(GarbageBound::nodes(64));
    let before = <Ebr as Reclaimer>::stats();
    assert_eq!(tree.remove_range(..), N as usize);
    let delta = <Ebr as Reclaimer>::stats().since(&before);
    set_garbage_bound(saved);

    assert!(delta.nodes_retired >= N, "the sweep retired fewer nodes than it removed: {delta:?}");
    assert!(delta.bound_trips >= 1, "the ceiling was never consulted: {delta:?}");
    assert!(
        delta.bound_trips <= 2 * CHUNKS,
        "bound checked per node, not per chunk ({} trips over {CHUNKS} chunks): {delta:?}",
        delta.bound_trips
    );
}

#[test]
fn set_conformance_on_ebr() {
    let _g = lock();
    set_conformance::<Ebr>();
}

#[test]
fn set_conformance_on_ibr() {
    let _g = lock();
    set_conformance::<Ibr>();
}

#[test]
fn map_conformance_on_ebr() {
    let _g = lock();
    map_conformance::<Ebr>();
}

#[test]
fn map_conformance_on_ibr() {
    let _g = lock();
    map_conformance::<Ibr>();
}

#[test]
fn upsert_vs_remove_race_on_ebr() {
    let _g = lock();
    upsert_vs_remove_race::<u64, Ebr>();
}

#[test]
fn upsert_vs_remove_race_on_ibr() {
    let _g = lock();
    upsert_vs_remove_race::<u64, Ibr>();
}

#[test]
fn upsert_vs_remove_race_boxed_on_ebr() {
    let _g = lock();
    upsert_vs_remove_race::<Box<u64>, Ebr>();
}

#[test]
fn upsert_vs_remove_race_boxed_on_ibr() {
    let _g = lock();
    upsert_vs_remove_race::<Box<u64>, Ibr>();
}

/// Churns a tree on backend `R` for `duration` while one thread holds a bare
/// reclamation guard the whole time, and returns the backend's bag-depth
/// high-water mark over the episode (peak unreclaimed nodes).
fn stalled_reader_peak_garbage<R: Reclaimer>(duration: Duration) -> u64 {
    let tree: Arc<LfBst<u64, (), R>> = Arc::new(LfBst::new_in());
    for k in 0..1024u64 {
        tree.insert(k);
    }
    R::collect();
    R::reset_bag_depth_hwm();

    let stop = Arc::new(AtomicBool::new(false));
    let stalled = {
        let stop = Arc::clone(&stop);
        let tree = Arc::clone(&tree);
        std::thread::spawn(move || {
            // Pin once, touch the tree, then sit on the guard until told to
            // stop: a reader descheduled mid-traversal.
            let guard = R::pin();
            assert!(tree.contains(&0));
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(guard);
        })
    };
    let churners: Vec<_> = (0..3u64)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.gen_range(0..1024u64);
                    tree.remove(&k);
                    tree.insert(k);
                }
            })
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    stalled.join().unwrap();
    for h in churners {
        h.join().unwrap();
    }
    R::stats().bag_depth_hwm
}

/// The property this PR's tentpole exists to buy: with a stalled reader in
/// the domain, IBR's peak unreclaimed garbage stays under the configured
/// `GarbageBound` (the escalation ladder can still free everything born
/// after the frozen reservation), while the EBR control — same workload,
/// same ceiling, same stall — blows through it because a pinned reader
/// freezes the global epoch and no amount of collect effort can free
/// anything at all.
#[test]
fn stalled_reader_garbage_is_bounded_on_ibr_but_not_ebr() {
    let _g = lock();
    const BOUND: usize = 4_000;
    let saved = garbage_bound();
    set_garbage_bound(GarbageBound::nodes(BOUND));

    let stall = Duration::from_millis(400);
    let ibr_peak = stalled_reader_peak_garbage::<Ibr>(stall);
    let ebr_peak = stalled_reader_peak_garbage::<Ebr>(stall);

    set_garbage_bound(saved);

    // IBR: the ladder holds the line at the ceiling.  The margin of 2x
    // absorbs enforcement granularity (the bound is checked per retirement,
    // and a whole era of stragglers can land between checks).
    assert!(
        ibr_peak <= (BOUND * 2) as u64,
        "IBR peak garbage {ibr_peak} blew through the {BOUND}-node ceiling"
    );
    // EBR: every retirement of the episode is stuck behind the stalled pin.
    assert!(
        ebr_peak > BOUND as u64,
        "EBR control peaked at {ebr_peak} <= {BOUND}: the stall injected no pressure, \
         so the IBR assertion above proved nothing"
    );
    assert!(
        ebr_peak > ibr_peak,
        "EBR ({ebr_peak}) should strand more garbage than IBR ({ibr_peak}) under a stall"
    );
}

/// Nightly stress hunt against the IBR backend (run `--ignored` by the CI
/// deep-hunt job): repeated rounds of the upsert-vs-remove race battery,
/// periodically overlapped with a stalled-reader churn episode so eras
/// freeze and thaw mid-race.  Rounds alternate boxed and inline values, so
/// half of them retire a value box per replace.  Round count via `IBR_STRESS_ROUNDS`
/// (default 25 so a local `--ignored` run stays minutes, not hours).
#[test]
#[ignore = "long-running; nightly CI runs it with IBR_STRESS_ROUNDS=200"]
fn ibr_stress_hunt() {
    let _g = lock();
    let rounds: u64 =
        std::env::var("IBR_STRESS_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(25);
    for round in 0..rounds {
        if round % 2 == 0 {
            upsert_vs_remove_race::<Box<u64>, Ibr>();
        } else {
            upsert_vs_remove_race::<u64, Ibr>();
        }
        if round % 8 == 0 {
            let peak = stalled_reader_peak_garbage::<Ibr>(Duration::from_millis(50));
            assert!(peak > 0, "round {round}: stalled churn retired nothing");
        }
    }
}
