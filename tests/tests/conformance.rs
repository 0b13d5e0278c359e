//! Every concurrent set in the workspace must pass the same conformance
//! battery: sequential semantics, agreement with a `BTreeSet` model, and
//! concurrent per-key accounting.

use integration_tests::SetConformance;

use ellen_bst::EllenBst;
use lfbst::{Config, HelpPolicy, LfBst, RestartPolicy};
use locked_bst::{CoarseLockBst, CoarseLockMap, RwLockBst};
use natarajan_bst::NatarajanBst;
use shard::{BoundaryRouter, HashRouter, Sharded};

fn battery() -> SetConformance {
    SetConformance { threads: 4, ops_per_thread: 15_000, key_range: 256, seed: 0xFEED }
}

#[test]
fn lfbst_default_conformance() {
    battery().check_all(LfBst::<u64>::new);
}

#[test]
fn lfbst_write_optimized_conformance() {
    battery().check_all(|| {
        LfBst::<u64>::with_config(Config::new().help_policy(HelpPolicy::WriteOptimized))
    });
}

#[test]
fn lfbst_root_restart_conformance() {
    battery()
        .check_all(|| LfBst::<u64>::with_config(Config::new().restart_policy(RestartPolicy::Root)));
}

#[test]
fn ellen_bst_conformance() {
    battery().check_all(EllenBst::<u64>::new);
}

#[test]
fn natarajan_bst_conformance() {
    battery().check_all(NatarajanBst::<u64>::new);
}

#[test]
fn coarse_lock_conformance() {
    battery().check_all(CoarseLockBst::<u64>::new);
}

#[test]
fn sharded_hash_lfbst_conformance() {
    battery().check_all(|| Sharded::new(HashRouter::new(8), |_| LfBst::<u64>::new()));
}

#[test]
fn sharded_range_lfbst_conformance() {
    let c = battery();
    let key_range = c.key_range;
    c.check_all(move || {
        Sharded::new(BoundaryRouter::covering(8, key_range), |_| LfBst::<u64>::new())
    });
}

#[test]
fn sharded_layer_is_generic_over_inner_sets() {
    // The same facade must conform over a lock-based inner map with `()`
    // values, whose set face comes from the blanket impls alone.
    battery().check_all(|| Sharded::new(HashRouter::new(4), |_| CoarseLockMap::<u64, ()>::new()));
}

#[test]
fn rwlock_conformance() {
    battery().check_all(RwLockBst::<u64>::new);
}
