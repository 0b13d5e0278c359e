//! Lightweight, contention-friendly operation counters.
//!
//! The complexity claim of the paper is about *extra steps caused by
//! contention* (`O(H(n) + c)` rather than `O(c · H(n))`).  To make that claim
//! measurable (experiment E6) the core tree and the benchmark harness count a
//! few well-defined events per operation: CAS failures, helping excursions,
//! traversal restarts and traversal link reads.  Counters are plain relaxed
//! atomics — they are diagnostics, not synchronization.

use std::sync::atomic::{AtomicU64, Ordering};

/// Event counters describing how much "extra" work contention induced.
///
/// All methods use relaxed atomics; the struct is cheap enough to embed in a
/// data structure unconditionally and to share across threads.
///
/// Which CASes count: in `lfbst`, every CAS on a tree node's child link —
/// insert's injection and each flag, mark, unflag and swing of the remove
/// protocol — records its outcome once.  Backlink and `prelink` hint CASes
/// and value-cell swaps are not protocol steps and are not counted.
///
/// These counters are **write-only diagnostics**: no implementation in this
/// workspace reads them back to make a protocol decision, so their relaxed
/// ordering (and their complete elision in stats-off builds of `lfbst`) can
/// never anchor a correctness argument.
#[derive(Debug, Default)]
pub struct OpStats {
    /// CAS instructions that failed because of a concurrent modification.
    pub cas_failures: AtomicU64,
    /// CAS instructions that succeeded.
    pub cas_successes: AtomicU64,
    /// Times an operation had to help a concurrent `Remove` finish.
    pub helps: AtomicU64,
    /// Times a modify operation restarted its injection after a failure
    /// (from the vicinity with backlinks, or from the root in ablation mode).
    pub restarts: AtomicU64,
    /// Links followed while traversing (a proxy for step count / path length).
    pub links_traversed: AtomicU64,
}

impl OpStats {
    /// Creates a zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a CAS outcome.
    #[inline]
    pub fn record_cas(&self, success: bool) {
        if success {
            self.cas_successes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cas_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one helping excursion.
    #[inline]
    pub fn record_help(&self) {
        self.helps.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one restart of a modify operation.
    #[inline]
    pub fn record_restart(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` traversed links.
    ///
    /// `n == 0` (a search that stops at the starting node, common in vicinity
    /// restarts) skips the `fetch_add` entirely — no shared-cache-line traffic
    /// on the empty case.
    #[inline]
    pub fn record_links(&self, n: u64) {
        if n > 0 {
            self.links_traversed.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Takes a consistent-enough snapshot of the counters (relaxed loads).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            cas_failures: self.cas_failures.load(Ordering::Relaxed),
            cas_successes: self.cas_successes.load(Ordering::Relaxed),
            helps: self.helps.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            links_traversed: self.links_traversed.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.cas_failures.store(0, Ordering::Relaxed);
        self.cas_successes.store(0, Ordering::Relaxed);
        self.helps.store(0, Ordering::Relaxed);
        self.restarts.store(0, Ordering::Relaxed);
        self.links_traversed.store(0, Ordering::Relaxed);
    }
}

/// A cache-line-padded relaxed operation tally — the always-on load signal
/// behind elastic sharding.
///
/// Unlike [`OpStats`] (feature-gated diagnostics), a `LoadTally` is meant to
/// be bumped on **every** operation of a shard unconditionally, so it must be
/// as close to free as a shared counter can be: one relaxed `fetch_add` on a
/// cache line no other shard's tally shares.  The padding matters — without
/// it, sixteen shards' tallies pack into two cache lines and every op on any
/// shard bounces lines between all cores.
///
/// `take()` is the rebalancer's read-and-reset: load observed since the last
/// call, atomically swapped to zero, so consecutive windows never double
/// count.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct LoadTally(AtomicU64);

impl LoadTally {
    /// Creates a zeroed tally.
    pub const fn new() -> Self {
        LoadTally(AtomicU64::new(0))
    }

    /// Records one operation (relaxed; never used for synchronization).
    #[inline]
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current count (relaxed load).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Returns the count accumulated since the last `take` and resets it.
    #[inline]
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A plain-value copy of [`OpStats`], convenient to subtract, print and store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// CAS instructions that failed because of a concurrent modification.
    pub cas_failures: u64,
    /// CAS instructions that succeeded.
    pub cas_successes: u64,
    /// Helping excursions performed.
    pub helps: u64,
    /// Modify-operation restarts.
    pub restarts: u64,
    /// Links traversed.
    pub links_traversed: u64,
}

impl StatsSnapshot {
    /// Component-wise difference `self - earlier`, saturating at zero.
    ///
    /// Useful for measuring a window: snapshot before, snapshot after, diff.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            cas_failures: self.cas_failures.saturating_sub(earlier.cas_failures),
            cas_successes: self.cas_successes.saturating_sub(earlier.cas_successes),
            helps: self.helps.saturating_sub(earlier.helps),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            links_traversed: self.links_traversed.saturating_sub(earlier.links_traversed),
        }
    }

    /// Total CAS instructions attempted in this window.
    pub fn cas_total(&self) -> u64 {
        self.cas_failures + self.cas_successes
    }

    /// Component-wise sum `self + other`, saturating at `u64::MAX`.
    ///
    /// # Aggregation contract
    ///
    /// This is how composed structures (e.g. the sharding layer's
    /// `Sharded::stats`) report statistics: each inner set's counters are
    /// snapshotted independently and the snapshots are summed.  Because every
    /// component is a monotone counter updated with relaxed atomics, the sum
    /// obeys the same guarantee as a single snapshot:
    ///
    /// * **quiescent exactness** — when no operation is in flight on any inner
    ///   set, the merged snapshot equals the true event totals;
    /// * **monotonicity under concurrency** — while operations are in flight
    ///   the merged value of each counter lies between the true total at the
    ///   start and at the end of the merge, so two successive merges never go
    ///   backwards;
    /// * **no torn invariants** — counters are summed independently, so no
    ///   cross-counter relation is invented: e.g. `cas_total()` of the merge
    ///   equals the sum of the per-shard `cas_total()`s.
    ///
    /// The same contract applies to the sharding layer's `len()` (a sum of
    /// per-shard quiescent counts).
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            cas_failures: self.cas_failures.saturating_add(other.cas_failures),
            cas_successes: self.cas_successes.saturating_add(other.cas_successes),
            helps: self.helps.saturating_add(other.helps),
            restarts: self.restarts.saturating_add(other.restarts),
            links_traversed: self.links_traversed.saturating_add(other.links_traversed),
        }
    }
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;

    /// Operator form of [`StatsSnapshot::merge`].
    fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
        self.merge(&rhs)
    }
}

impl std::iter::Sum for StatsSnapshot {
    /// Merges an iterator of snapshots (used by shard-aggregating wrappers).
    fn sum<I: Iterator<Item = StatsSnapshot>>(iter: I) -> StatsSnapshot {
        iter.fold(StatsSnapshot::default(), |acc, s| acc.merge(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_tally_bumps_and_takes() {
        let t = LoadTally::new();
        assert_eq!(t.get(), 0);
        t.bump();
        t.bump();
        assert_eq!(t.get(), 2);
        assert_eq!(t.take(), 2);
        assert_eq!(t.get(), 0);
        t.bump();
        assert_eq!(t.take(), 1);
        // The padding claim: each tally owns a full cache line.
        assert!(std::mem::align_of::<LoadTally>() >= 64);
        assert!(std::mem::size_of::<LoadTally>() >= 64);
    }

    #[test]
    fn load_tally_is_exact_at_quiescence() {
        use std::sync::Arc;
        let t = Arc::new(LoadTally::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        t.bump();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.take(), 40_000);
    }

    #[test]
    fn counters_accumulate() {
        let s = OpStats::new();
        s.record_cas(true);
        s.record_cas(false);
        s.record_cas(false);
        s.record_help();
        s.record_restart();
        s.record_links(10);
        s.record_links(0);
        let snap = s.snapshot();
        assert_eq!(snap.cas_successes, 1);
        assert_eq!(snap.cas_failures, 2);
        assert_eq!(snap.cas_total(), 3);
        assert_eq!(snap.helps, 1);
        assert_eq!(snap.restarts, 1);
        assert_eq!(snap.links_traversed, 10);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = OpStats::new();
        s.record_cas(true);
        s.record_help();
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn since_computes_window() {
        let s = OpStats::new();
        s.record_links(5);
        let before = s.snapshot();
        s.record_links(7);
        s.record_cas(false);
        let after = s.snapshot();
        let window = after.since(&before);
        assert_eq!(window.links_traversed, 7);
        assert_eq!(window.cas_failures, 1);
        assert_eq!(window.cas_successes, 0);
    }

    #[test]
    fn since_saturates() {
        let a = StatsSnapshot { helps: 1, ..Default::default() };
        let b = StatsSnapshot { helps: 3, ..Default::default() };
        assert_eq!(a.since(&b).helps, 0);
    }

    #[test]
    fn merge_sums_component_wise() {
        let a = StatsSnapshot {
            cas_failures: 1,
            cas_successes: 10,
            helps: 2,
            restarts: 3,
            links_traversed: 100,
        };
        let b = StatsSnapshot {
            cas_failures: 5,
            cas_successes: 20,
            helps: 0,
            restarts: 7,
            links_traversed: 50,
        };
        let m = a.merge(&b);
        assert_eq!(m.cas_failures, 6);
        assert_eq!(m.cas_successes, 30);
        assert_eq!(m.helps, 2);
        assert_eq!(m.restarts, 10);
        assert_eq!(m.links_traversed, 150);
        // No cross-counter relation is invented by the merge.
        assert_eq!(m.cas_total(), a.cas_total() + b.cas_total());
        assert_eq!(a + b, m);
    }

    #[test]
    fn merge_saturates() {
        let a = StatsSnapshot { helps: u64::MAX - 1, ..Default::default() };
        let b = StatsSnapshot { helps: 5, ..Default::default() };
        assert_eq!(a.merge(&b).helps, u64::MAX);
    }

    #[test]
    fn sum_merges_many_snapshots() {
        let parts = vec![
            StatsSnapshot { cas_successes: 1, ..Default::default() },
            StatsSnapshot { cas_successes: 2, helps: 1, ..Default::default() },
            StatsSnapshot { cas_successes: 3, ..Default::default() },
        ];
        let total: StatsSnapshot = parts.into_iter().sum();
        assert_eq!(total.cas_successes, 6);
        assert_eq!(total.helps, 1);
    }

    #[test]
    fn quiescent_merge_is_exact() {
        // Two counter blocks mutated from several threads; after joining
        // (quiescence) the merged snapshot must be the exact event total.
        use std::sync::Arc;
        let blocks: Vec<Arc<OpStats>> = (0..2).map(|_| Arc::new(OpStats::new())).collect();
        let mut handles = Vec::new();
        for block in &blocks {
            for _ in 0..2 {
                let block = Arc::clone(block);
                handles.push(std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        block.record_cas(true);
                        block.record_links(3);
                    }
                }));
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        let merged: StatsSnapshot = blocks.iter().map(|b| b.snapshot()).sum();
        assert_eq!(merged.cas_successes, 20_000);
        assert_eq!(merged.links_traversed, 60_000);
    }

    #[test]
    fn concurrent_updates_do_not_lose_too_much() {
        use std::sync::Arc;
        let s = Arc::new(OpStats::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_cas(true);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().cas_successes, 4000);
    }
}
