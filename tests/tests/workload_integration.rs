//! Integration of the workload driver with every set implementation: short
//! timed runs must complete, keep the structure near its prefill size for
//! balanced mixes, and leave the lock-free BST structurally valid.

use std::sync::Arc;
use std::time::Duration;

use ellen_bst::EllenBst;
use lfbst::LfBst;
use locked_bst::{CoarseLockBst, RwLockBst};
use natarajan_bst::NatarajanBst;
use workload::{run_workload, KeyDistribution, OperationMix, WorkloadSpec};

fn spec() -> WorkloadSpec {
    WorkloadSpec::new(1 << 10, OperationMix::updates(40)).seed(99)
}

#[test]
fn workload_driver_runs_every_structure() {
    let duration = Duration::from_millis(80);
    let threads = 3;

    let m = run_workload(Arc::new(LfBst::new()), &spec(), threads, duration);
    assert!(m.total_ops() > 0, "lfbst produced no operations");
    assert_eq!(m.set_name, "lfbst");

    let m = run_workload(Arc::new(EllenBst::new()), &spec(), threads, duration);
    assert!(m.total_ops() > 0, "ellen produced no operations");

    let m = run_workload(Arc::new(NatarajanBst::new()), &spec(), threads, duration);
    assert!(m.total_ops() > 0, "natarajan produced no operations");

    let m = run_workload(Arc::new(CoarseLockBst::new()), &spec(), threads, duration);
    assert!(m.total_ops() > 0, "coarse lock produced no operations");

    let m = run_workload(Arc::new(RwLockBst::new()), &spec(), threads, duration);
    assert!(m.total_ops() > 0, "rwlock produced no operations");
}

#[test]
fn lfbst_survives_timed_workload_and_validates() {
    let set = Arc::new(LfBst::new());
    let handle = Arc::clone(&set);
    let m = run_workload(set, &spec(), 4, Duration::from_millis(150));
    assert!(m.total_ops() > 0);
    let report = lfbst::validate::validate(&*handle).expect("tree must be valid after workload");
    assert_eq!(report.nodes, handle.len());
}

#[test]
fn zipf_workload_also_validates() {
    let spec = WorkloadSpec::new(1 << 12, OperationMix::updates(60))
        .distribution(KeyDistribution::Zipf { exponent: 0.99 })
        .seed(3);
    let set = Arc::new(LfBst::new());
    let handle = Arc::clone(&set);
    let m = run_workload(set, &spec, 4, Duration::from_millis(150));
    assert!(m.total_ops() > 0);
    lfbst::validate::validate(&*handle).expect("tree must be valid after zipf workload");
}

#[test]
fn balanced_mix_keeps_size_near_prefill() {
    // With equal insert and remove probability over a fixed key range the
    // population stays near half the range; allow generous slack.
    let set = Arc::new(CoarseLockBst::new());
    let m = run_workload(set, &spec(), 2, Duration::from_millis(120));
    let range = 1usize << 10;
    assert!(m.final_size > range / 8, "size collapsed: {}", m.final_size);
    assert!(m.final_size < range, "size exceeded key range: {}", m.final_size);
}
