//! The output checker must catch a structure that loses writes, and must
//! pass the structures as they are.

use std::sync::atomic::{AtomicU64, Ordering};

use cset::{ConcurrentSet, StatsSnapshot};
use lfbst::{Config, LfBst};
use perfbench::engine::{Kind, Ledger};
use perfbench::input::{spec, Op, Spec};
use perfbench::modes::end_to_end;
use perfbench::subject::{set_step, size_violations, validate, ElasticSubject, Subject};

/// An `LfBst` that reports every 1000th insert as done but drops it.
#[derive(Default)]
struct DropsEveryThousandth {
    tree: LfBst<u64>,
    inserts: AtomicU64,
}

impl ConcurrentSet<u64> for DropsEveryThousandth {
    fn insert(&self, key: u64) -> bool {
        if self.inserts.fetch_add(1, Ordering::Relaxed) % 1000 == 999 {
            return true;
        }
        self.tree.insert(key)
    }
    fn remove(&self, key: &u64) -> bool {
        self.tree.remove(key)
    }
    fn contains(&self, key: &u64) -> bool {
        self.tree.contains(key)
    }
    fn len(&self) -> usize {
        self.tree.len()
    }
    fn name(&self) -> &'static str {
        "drops-every-thousandth"
    }
}

impl Subject for DropsEveryThousandth {
    fn prefill(&self, spec: &Spec, seed: u64) -> usize {
        spec.prefill(seed, |k| self.tree.insert(k))
    }
    fn step(&self, op: Op, _nonce: u64, l: &mut Ledger) -> (Kind, u64) {
        (set_step(self, op, l), 0)
    }
    fn check(&self, expected_len: i64) -> u64 {
        validate(&self.tree) + size_violations(expected_len, self.tree.len())
    }
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }
}

fn workload(name: &str) -> &'static Spec {
    spec(name).expect("declared workload")
}

#[test]
fn dropped_inserts_are_failed_calls() {
    let report =
        end_to_end(workload("write-heavy-small"), 1, 0, 0.4, DropsEveryThousandth::default);
    assert!(report.attempted > 10_000, "the pass ran: {}", report.attempted);
    assert!(report.failed > 0, "a set that drops inserts passed the checker");
}

#[test]
fn the_structures_pass_the_checker() {
    let set = end_to_end(workload("write-heavy-small"), 2, 0, 0.4, LfBst::<u64>::new);
    assert_eq!(set.failed, 0);
    let map_spec = workload("map-skew-scan");
    let map = end_to_end(map_spec, 2, 0, 0.4, || ElasticSubject::new(map_spec, Config::default()));
    assert_eq!(map.failed, 0);
    assert!(map.attempted > 10_000);
}
