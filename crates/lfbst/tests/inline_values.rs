//! Word-sized map values live inline in the node: an in-place `upsert` of a
//! present key swaps one word and hands nothing to the reclaimer.
//!
//! Its own test binary with a single test, because the reclamation counters
//! are process-global: no other test may retire while it measures.

use lfbst::{Ebr, LfBst, Reclaimer};

#[test]
fn scalar_upserts_of_present_keys_retire_nothing() {
    const KEYS: u64 = 100;
    let map: LfBst<u64, u64> = LfBst::new();
    for k in 0..KEYS {
        assert!(map.insert_entry(k, k));
    }
    let before = Ebr::stats().nodes_retired;
    for i in 0..1_000u64 {
        let k = i % KEYS;
        assert!(map.upsert(k, i).is_some(), "key {k} is present");
    }
    let retired = Ebr::stats().nodes_retired - before;
    assert_eq!(retired, 0, "1000 scalar upserts of present keys retired {retired} blocks");
    for k in 0..KEYS {
        assert_eq!(map.get(&k), Some(900 + k));
    }
}
