//! Shared helpers for the cross-crate integration tests.
//!
//! The heart of this crate is [`SetConformance`], a reusable battery of checks
//! that any [`ConcurrentSet`] implementation in the workspace must pass: basic
//! sequential semantics, agreement with `BTreeSet` on random operation
//! sequences, and concurrent accounting (for every key, successful inserts
//! minus successful removes equals final membership).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use cset::ConcurrentSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reusable conformance battery for concurrent set implementations.
#[derive(Debug, Clone, Copy)]
pub struct SetConformance {
    /// Number of worker threads for the concurrent checks.
    pub threads: usize,
    /// Operations per thread in the concurrent checks.
    pub ops_per_thread: usize,
    /// Key range for randomized checks.
    pub key_range: u64,
    /// RNG seed, so failures are reproducible.
    pub seed: u64,
}

impl Default for SetConformance {
    fn default() -> Self {
        SetConformance { threads: 4, ops_per_thread: 20_000, key_range: 512, seed: 0xDECAF }
    }
}

impl SetConformance {
    /// Runs every check against a fresh set produced by `make`.
    pub fn check_all<S, F>(&self, make: F)
    where
        S: ConcurrentSet<u64> + 'static,
        F: Fn() -> S,
    {
        self.check_sequential_semantics(&make());
        self.check_against_model(&make());
        self.check_concurrent_accounting(Arc::new(make()));
    }

    /// Basic single-threaded Set semantics.
    pub fn check_sequential_semantics<S: ConcurrentSet<u64>>(&self, set: &S) {
        assert!(set.is_empty(), "{}: new set must be empty", set.name());
        assert!(!set.contains(&1));
        assert!(!set.remove(&1));
        assert!(set.insert(1));
        assert!(!set.insert(1));
        assert!(set.contains(&1));
        assert_eq!(set.len(), 1);
        assert!(set.insert(0));
        assert!(set.insert(2));
        assert_eq!(set.len(), 3);
        assert!(set.remove(&1));
        assert!(!set.remove(&1));
        assert!(!set.contains(&1));
        assert!(set.contains(&0));
        assert!(set.contains(&2));
        assert_eq!(set.len(), 2);
    }

    /// Random single-threaded operation sequence compared against `BTreeSet`.
    pub fn check_against_model<S: ConcurrentSet<u64>>(&self, set: &S) {
        let mut model = BTreeSet::new();
        let mut rng = StdRng::seed_from_u64(self.seed);
        for i in 0..self.ops_per_thread {
            let k = rng.gen_range(0..self.key_range);
            match rng.gen_range(0..3) {
                0 => assert_eq!(
                    set.insert(k),
                    model.insert(k),
                    "{}: insert({k}) diverged at step {i}",
                    set.name()
                ),
                1 => assert_eq!(
                    set.remove(&k),
                    model.remove(&k),
                    "{}: remove({k}) diverged at step {i}",
                    set.name()
                ),
                _ => assert_eq!(
                    set.contains(&k),
                    model.contains(&k),
                    "{}: contains({k}) diverged at step {i}",
                    set.name()
                ),
            }
            if i % 1024 == 0 {
                assert_eq!(set.len(), model.len(), "{}: len diverged at step {i}", set.name());
            }
        }
        assert_eq!(set.len(), model.len());
        for k in 0..self.key_range {
            assert_eq!(
                set.contains(&k),
                model.contains(&k),
                "{}: final membership of {k}",
                set.name()
            );
        }
    }

    /// Concurrent mixed workload with per-key accounting: for every key the
    /// number of successful inserts minus successful removes must be 0 or 1 and
    /// must equal its final membership.
    pub fn check_concurrent_accounting<S>(&self, set: Arc<S>)
    where
        S: ConcurrentSet<u64> + 'static,
    {
        let balance = Arc::new((0..self.key_range).map(|_| AtomicI64::new(0)).collect::<Vec<_>>());
        let handles: Vec<_> = (0..self.threads)
            .map(|t| {
                let set = Arc::clone(&set);
                let balance = Arc::clone(&balance);
                let ops = self.ops_per_thread;
                let range = self.key_range;
                let seed = self.seed ^ (t as u64).wrapping_mul(0x9E3779B97F4A7C15);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    for _ in 0..ops {
                        let k = rng.gen_range(0..range);
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
            h.join().expect("conformance worker panicked");
        }
        let mut expected = 0usize;
        for k in 0..self.key_range {
            let b = balance[k as usize].load(Ordering::Relaxed);
            assert!(b == 0 || b == 1, "{}: impossible balance {b} for key {k}", set.name());
            assert_eq!(set.contains(&k), b == 1, "{}: membership mismatch for key {k}", set.name());
            expected += b as usize;
        }
        assert_eq!(set.len(), expected, "{}: len disagrees with accounting", set.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use locked_bst::{CoarseLockBst, CoarseLockMap};
    use workload::{prefill, run_map_workload, run_workload, MapSpec, OperationMix, WorkloadSpec};

    const RUN: Duration = Duration::from_millis(40);

    #[test]
    fn conformance_battery_accepts_a_correct_set() {
        let c = SetConformance { ops_per_thread: 2_000, ..Default::default() };
        c.check_all(CoarseLockBst::<u64>::new);
    }

    #[test]
    fn prefill_reaches_target() {
        let set = CoarseLockBst::new();
        let spec = WorkloadSpec::new(1024, OperationMix::updates(20)).prefill_fraction(0.5);
        prefill(&spec, |k| set.insert(k));
        assert_eq!(set.len(), 512);
    }

    #[test]
    fn timed_mixed_ops_runs_requested_work() {
        let set = Arc::new(CoarseLockBst::new());
        let spec = WorkloadSpec::new(128, OperationMix::updates(50)).seed(1);
        let m = run_workload(set, &spec, 2, RUN);
        assert_eq!(m.per_thread.len(), 2);
        assert!(m.prefill_size > 0);
        assert!(m.elapsed >= RUN);
        let updates: u64 = m.per_thread.iter().map(|t| t.inserts + t.removes).sum();
        assert!(updates > 0, "a 50% update mix issued no updates");
    }

    #[test]
    fn timed_sampled_ops_fills_histogram() {
        let spec = WorkloadSpec::new(128, OperationMix::updates(50)).seed(1);
        let m = run_workload(Arc::new(CoarseLockBst::new()), &spec.sample_every(16), 2, RUN);
        assert!(m.latency.count() > 0);
        // ~1/16 of the ops sampled (each thread rounds up by at most one).
        assert!(m.latency.count() <= m.total_ops() / 16 + m.threads as u64);
        let off = run_workload(Arc::new(CoarseLockBst::new()), &spec.sample_every(0), 2, RUN);
        assert!(off.total_ops() > 0);
        assert_eq!(off.latency.count(), 0);
    }

    #[test]
    fn timed_map_ops_runs_requested_work() {
        let map = Arc::new(CoarseLockMap::new());
        let spec = MapSpec::new(WorkloadSpec::new(128, OperationMix::updates(50)).seed(1), 16);
        let m = run_map_workload(map, &spec, 2, RUN);
        assert!(m.prefill_size > 0);
        assert!(m.elapsed >= RUN);
        assert!(m.total_ops() > 0);
    }
}
