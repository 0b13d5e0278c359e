//! Bulk range mutations: streaming [`remove_range`](LfBst::remove_range) and
//! [`retain`](LfBst::retain) eviction sweeps.
//!
//! A single-key `remove` pays one epoch pin, one root-to-victim locate and one
//! individually enforced retirement.  Log-compaction, retention-window and
//! TTL-eviction workloads delete whole key ranges, so paying those fixed costs
//! per key is O(n) protocol overhead for what is logically one operation.
//! The sweep driver here amortizes all three:
//!
//! * **one reusable repinning guard** — the whole sweep runs under a single
//!   `R::pin()` that is refreshed between chunks (the same cadence the batch
//!   entry points in [`crate::guard`] use), instead of a pin per key;
//! * **a fused walk-and-remove pass** — the in-order successor walk and the
//!   removal protocol are interleaved in a single pass: the cursor reads a
//!   node's successor *first* (and prefetches it), then runs the protocol
//!   anchored at the node itself (`LfBst::remove_node_from`) while that
//!   line is in flight.  The anchored order-locate goes left on an equal
//!   key, so from the victim it lands directly on the victim's order link
//!   (the left self-thread, or its left subtree's rightmost node) in `O(1)`
//!   hops instead of an `O(log n)` root descent per key;
//! * **batch retirement** — each chunk's retirements run inside one
//!   [`ReclaimGuard::retire_batch`] window, so the garbage-bound ladder and
//!   the high-water collect are paid once per chunk, not once per node.
//!
//! The sweep is **weakly consistent as a whole, linearizable per key**: each
//! key's removal is an ordinary run of the paper's removal protocol, so a
//! concurrent single-key `remove` and the sweep agree on exactly one winner
//! per key, and the returned count is the number of keys *this* sweep
//! removed.  Keys inserted into the range while the sweep runs may or may not
//! be removed (the usual scan contract, see `DESIGN.md` §10).

use std::ops::{Bound, RangeBounds};

use crossbeam_epoch::{ReclaimGuard, Reclaimer, Shared};
use cset::KeyBound;

use crate::guard::REPIN_EVERY;
use crate::link::same_node;
use crate::node::Node;
use crate::tree::LfBst;
use crate::value::{MapValue, ValueCell};

/// Doomed keys removed per guard window.  Each chunk pays
/// one retire-batch settle and one repin; the value balances that amortization
/// against how much retired-but-pinned memory one window may hold.
pub const BULK_CHUNK: usize = 512;

/// Nodes a sweep will *visit* per guard window even if few match the
/// predicate, so a sparse `retain` over a huge tree still repins on the same
/// cadence as every other long scan in this crate.
const BULK_VISIT_CAP: usize = REPIN_EVERY as usize;

/// The survival predicate a `retain`-flavoured sweep threads through the
/// driver (`None` means every visited key is doomed, i.e. `remove_range`).
type KeepFn<'a, K, V> = &'a dyn Fn(&K, &V) -> bool;

impl<K: Ord, V: MapValue, R: Reclaimer> LfBst<K, V, R> {
    /// Removes every key in `range`; returns how many keys this call removed.
    ///
    /// Streaming and incremental: the sweep walks the range along successor
    /// threads in chunks of [`BULK_CHUNK`] doomed keys, removing each chunk
    /// under one batch-retire window and one (periodically refreshed) epoch
    /// pin — see the [module docs](self) for the amortization and consistency
    /// contract.  Empty and reversed ranges remove nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use lfbst::LfBst;
    ///
    /// let set = LfBst::new();
    /// for k in 0..100u64 {
    ///     set.insert(k);
    /// }
    /// assert_eq!(set.remove_range(10..90), 80);
    /// assert_eq!(set.len(), 20);
    /// assert!(set.contains(&90) && !set.contains(&89));
    /// ```
    pub fn remove_range<B: RangeBounds<K>>(&self, range: B) -> usize
    where
        K: Clone,
    {
        self.bulk_sweep(range.start_bound().cloned(), range.end_bound(), None)
    }

    /// Removes every entry for which `keep` returns `false`; returns how many
    /// entries were removed.  The TTL-style eviction sweep: one pass over the
    /// whole tree on the [`remove_range`](Self::remove_range) driver.
    ///
    /// # Examples
    ///
    /// ```
    /// use lfbst::LfBst;
    ///
    /// let map: LfBst<u64, u64> = LfBst::new();
    /// for k in 0..10u64 {
    ///     map.insert_entry(k, k * 100);
    /// }
    /// // Evict all entries whose value is below 500.
    /// assert_eq!(map.retain(|_, v| *v >= 500), 5);
    /// assert_eq!(map.len(), 5);
    /// ```
    pub fn retain(&self, keep: impl Fn(&K, &V) -> bool) -> usize
    where
        K: Clone,
    {
        self.bulk_sweep(Bound::Unbounded, Bound::Unbounded, Some(&keep))
    }

    /// [`retain`](Self::retain) restricted to `range`: entries outside the
    /// range are untouched, entries inside it survive iff `keep` says so.
    pub fn retain_in_range<B: RangeBounds<K>>(
        &self,
        range: B,
        keep: impl Fn(&K, &V) -> bool,
    ) -> usize
    where
        K: Clone,
    {
        self.bulk_sweep(range.start_bound().cloned(), range.end_bound(), Some(&keep))
    }

    /// The shared sweep driver behind [`remove_range`](Self::remove_range) and
    /// [`retain`](Self::retain): one fused walk-and-remove pass per guard
    /// window, then refresh the pin and resume past the last *visited* key
    /// (not the last doomed one — a sparse predicate must still make
    /// progress).
    ///
    /// The fusion is the point, not a convenience: an in-order walk is a
    /// serial pointer chase (each successor load depends on the previous
    /// node), so a separate gather pass pays the full cache-miss latency per
    /// node with nothing to overlap it against.  Interleaved, the successor
    /// load issues *before* the current victim's protocol CASes run, and
    /// those CASes (on lines the walk just warmed) retire under the miss.
    pub(crate) fn bulk_sweep(
        &self,
        lo: Bound<K>,
        hi: Bound<&K>,
        keep: Option<KeepFn<'_, K, V>>,
    ) -> usize
    where
        K: Clone,
    {
        let mut guard = R::pin();
        let mut start = lo;
        let mut removed = 0usize;
        loop {
            let mut last_visited: Shared<'_, Node<K, V>> = Shared::null();
            let mut exhausted = true;
            // ---- One fused walk-and-remove window under a batch retire. ----
            removed += guard.retire_batch(|| {
                let mut chunk_removed = 0usize;
                let mut visited = 0usize;
                let mut pos = self.seek_lower_bound(start.as_ref(), &guard);
                while chunk_removed < BULK_CHUNK && visited < BULK_VISIT_CAP {
                    if pos.is_null() || same_node(pos, self.root1()) {
                        return chunk_removed;
                    }
                    let node = unsafe { pos.deref() };
                    // The successor is read before the removal below touches
                    // the victim's links, and its node outlives the removal
                    // (it stays pinned): the walk never depends on a link the
                    // protocol is about to freeze.
                    let next = self.in_order_successor(pos, &guard);
                    // Start pulling the successor's line in now: the protocol
                    // CASes below are full fences on x86, so the *demand* load
                    // of `next` at the top of the next iteration cannot issue
                    // past them — but a prefetch is an unordered hint, so the
                    // miss overlaps the CAS work instead of serializing after
                    // it.
                    prefetch_node(next.as_raw());
                    match &node.key {
                        KeyBound::Key(k) => {
                            let past_end = match hi {
                                Bound::Unbounded => false,
                                Bound::Included(end) => k > end,
                                Bound::Excluded(end) => k >= end,
                            };
                            if past_end {
                                return chunk_removed;
                            }
                            visited += 1;
                            last_visited = pos;
                            let doom = match keep {
                                None => true,
                                Some(keep) => {
                                    // A keyed node always holds a value; a
                                    // node that retires mid-read stays
                                    // readable under the pin.
                                    !node
                                        .value
                                        .read_with(&guard, |v| keep(k, v))
                                        .expect("keyed node has a value")
                                }
                            };
                            // Anchor the removal at the doomed node itself.
                            // The order-locate goes left on an equal key, so
                            // from the victim it lands directly on the
                            // victim's own order link — the left self-thread
                            // when it has no left child, or its left
                            // subtree's rightmost node — in O(1) hops instead
                            // of a root descent.  If a racer already removed
                            // (or shifted) the node, the locate walks its
                            // frozen links into the live vicinity and the
                            // protocol's usual help/restart analysis takes
                            // over.
                            if doom && self.remove_node_from(pos, pos, k, &guard).is_some() {
                                chunk_removed += 1;
                            }
                        }
                        // A concurrent removal can briefly route a stale seek
                        // through `-inf`; skip it.  `+inf` ends the key space.
                        KeyBound::NegInf => {}
                        KeyBound::PosInf => {
                            return chunk_removed;
                        }
                    }
                    pos = next;
                }
                // The window filled before the range ended: more may remain.
                exhausted = pos.is_null() || same_node(pos, self.root1());
                chunk_removed
            });

            if exhausted {
                return removed;
            }
            // Resume strictly after the last node this window visited; the
            // reference is still pinned even if the node was just removed
            // (the repin below is what kills it), and keys are immutable.
            if let KeyBound::Key(k) = &unsafe { last_visited.deref() }.key {
                start = Bound::Excluded(k.clone());
            }
            guard.repin();
        }
    }
}

/// Best-effort prefetch of a node's cache line; a no-op on architectures
/// without a stable prefetch intrinsic.  Null (and any stale-but-pinned
/// pointer) is safe: prefetch never faults.
#[inline(always)]
fn prefetch_node<K, V: MapValue>(ptr: *const Node<K, V>) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(ptr.cast::<i8>(), _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

impl<K: Ord, V: MapValue, R: Reclaimer> crate::guard::Pinned<'_, K, V, R> {
    /// [`LfBst::remove_range`] on the pinned tree.
    ///
    /// The sweep manages its own repinning guard (a long-lived pin must not
    /// hold the whole range's garbage), so this is a convenience forward, not
    /// a pin elision like the single-key methods.
    pub fn remove_range<B: RangeBounds<K>>(&self, range: B) -> usize
    where
        K: Clone,
    {
        self.tree().remove_range(range)
    }

    /// [`LfBst::retain`] on the pinned tree; see
    /// [`remove_range`](Self::remove_range) for the guard caveat.
    pub fn retain(&self, keep: impl Fn(&K, &V) -> bool) -> usize
    where
        K: Clone,
    {
        self.tree().retain(keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    fn set_with(n: u64) -> LfBst<u64> {
        let t = LfBst::new();
        for k in 0..n {
            assert!(t.insert(k));
        }
        t
    }

    #[test]
    fn remove_range_bound_combinations() {
        use Bound::{Excluded, Included, Unbounded};
        let combos: [(Bound<u64>, Bound<u64>, std::ops::Range<u64>); 7] = [
            (Unbounded, Unbounded, 0..64),
            (Included(8), Excluded(16), 8..16),
            (Excluded(8), Included(16), 9..17),
            (Included(8), Included(8), 8..9),
            (Excluded(8), Excluded(9), 0..0), // empty open interval
            (Included(40), Unbounded, 40..64),
            (Unbounded, Excluded(8), 0..8),
        ];
        for (lo, hi, expect) in combos {
            let t = set_with(64);
            let n = t.remove_range((lo, hi));
            assert_eq!(n as u64, expect.end - expect.start, "bounds {lo:?}..{hi:?}");
            for k in 0..64 {
                assert_eq!(t.contains(&k), !expect.contains(&k), "key {k} under {lo:?}..{hi:?}");
            }
            validate(&t).unwrap();
        }
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // the reversed range is the point
    fn remove_range_reversed_and_missing_ranges_remove_nothing() {
        let t = set_with(32);
        assert_eq!(t.remove_range(20..10), 0);
        assert_eq!(t.remove_range(100..200), 0);
        assert_eq!(t.remove_range((Bound::Excluded(5), Bound::Included(5))), 0);
        assert_eq!(t.len(), 32);
        validate(&t).unwrap();
    }

    #[test]
    fn remove_range_spans_many_chunks() {
        let n = 3 * (BULK_CHUNK as u64) + 17;
        let t = set_with(n + 10);
        assert_eq!(t.remove_range(5..5 + n), n as usize);
        assert_eq!(t.len(), 10);
        assert_eq!(t.iter_keys(), (0..5).chain(5 + n..n + 10).collect::<Vec<_>>());
        validate(&t).unwrap();
    }

    #[test]
    fn retain_keeps_only_matching_entries() {
        let map: LfBst<u64, u64> = LfBst::new();
        for k in 0..100u64 {
            map.insert_entry(k, k);
        }
        assert_eq!(map.retain(|k, _| k % 3 == 0), 66);
        assert_eq!(map.len(), 34);
        for k in 0..100u64 {
            assert_eq!(map.contains(&k), k % 3 == 0, "key {k}");
        }
        validate(&map).unwrap();
    }

    #[test]
    fn sparse_retain_sweeps_past_the_visit_cap() {
        // Nothing matches in the first BULK_VISIT_CAP keys: the sweep must
        // advance its resume bound on visited (not doomed) keys.
        let n = 2 * (BULK_VISIT_CAP as u64) + 100;
        let t = set_with(n);
        let cutoff = n - 50;
        assert_eq!(t.retain(|k, _| *k < cutoff), 50);
        assert_eq!(t.len() as u64, cutoff);
        validate(&t).unwrap();
    }

    #[test]
    fn retain_in_range_leaves_outside_untouched() {
        let map: LfBst<u64, u64> = LfBst::new();
        for k in 0..30u64 {
            map.insert_entry(k, k % 2);
        }
        // Evict odd-valued entries, but only inside [10, 20).
        let removed = map.retain_in_range(10..20, |_, v| *v == 0);
        assert_eq!(removed, 5);
        for k in 0..30u64 {
            let expect = !(10..20).contains(&k) || k % 2 == 0;
            assert_eq!(map.contains(&k), expect, "key {k}");
        }
        validate(&map).unwrap();
    }

    #[test]
    fn pinned_forwards_bulk_mutations() {
        let t = set_with(20);
        let pinned = t.pin();
        assert_eq!(pinned.remove_range(0..10), 10);
        assert_eq!(pinned.retain(|k, _| *k >= 15), 5);
        drop(pinned);
        assert_eq!(t.iter_keys(), (15..20).collect::<Vec<_>>());
    }

    #[test]
    fn remove_range_races_with_single_key_removals() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        for _ in 0..8 {
            let n = 4096u64;
            let t = Arc::new(set_with(n));
            let hits = Arc::new(AtomicUsize::new(0));
            let sweeper = {
                let t = Arc::clone(&t);
                std::thread::spawn(move || t.remove_range(..))
            };
            let pickers: Vec<_> = (0..3)
                .map(|i| {
                    let t = Arc::clone(&t);
                    let hits = Arc::clone(&hits);
                    std::thread::spawn(move || {
                        for k in (i..n).step_by(3) {
                            if t.remove(&k) {
                                hits.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                })
                .collect();
            let swept = sweeper.join().unwrap();
            for p in pickers {
                p.join().unwrap();
            }
            // Exactly one remover wins each key: the counts must partition n.
            assert_eq!(swept + hits.load(Ordering::Relaxed), n as usize);
            assert!(t.is_empty());
            validate(&t).unwrap();
        }
    }
}
