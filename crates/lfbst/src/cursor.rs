//! Streaming range cursors over the threaded representation.
//!
//! The threaded BST's headline structural property is that ordered traversal
//! is a pointer chase: once a lower bound is located (one `Locate` descent),
//! every further step is a single successor-thread hop.  This module turns
//! that property into a first-class streaming API instead of the historical
//! collect-into-a-`Vec` scans:
//!
//! * [`Cursor`] — the zero-overhead form: borrows a caller-held reclamation
//!   guard ([`Reclaimer::Guard`]), seeks once, and streams [`Entry`] items
//!   (references into the live nodes) on demand.  Nothing is allocated and nothing beyond the
//!   current node is touched, so `take(k)`-style early exits pay O(log n + k).
//! * [`RangeIter`] — the owning form: manages its own epoch guard and, every
//!   [`REPIN_SCAN_EVERY`] items, momentarily unpins so a long scan cannot
//!   stall epoch reclamation.  A repin invalidates the saved position, so the
//!   iterator remembers the last key it yielded and re-seeks past it
//!   (`O(log n)` once per repin window); this is why it requires `K: Clone`
//!   and yields owned items.
//!
//! Both forms share the weak-consistency contract of every scan in this
//! workspace: keys are yielded in strictly ascending order; a key present for
//! the whole duration of the scan is yielded; a key absent for the whole
//! duration is not; keys inserted or removed mid-scan may go either way.  See
//! `DESIGN.md`, "Streaming scans on a threaded BST".

use std::ops::{Bound, RangeBounds};

use crossbeam_epoch::{ReclaimGuard, Reclaimer, Shared};
use cset::KeyBound;

use crate::guard::REPIN_EVERY;
use crate::link::same_node;
use crate::node::Node;
use crate::tree::LfBst;
use crate::value::{MapValue, ValueCell};

/// Items a [`RangeIter`] yields between guard repins.
///
/// The crate's `REPIN_EVERY`: long scans release the epoch at the same
/// cadence as bulk sweeps, bounding how much retired memory one scan can
/// pin.  Each repin costs one re-seek (`O(log n)`), which
/// amortises to nothing over the window.
pub const REPIN_SCAN_EVERY: u64 = REPIN_EVERY;

impl<K: Ord, V: MapValue, R: Reclaimer> LfBst<K, V, R> {
    /// Locates the first node whose key satisfies the lower bound `lo`
    /// (the seek step every range scan starts with).
    pub(crate) fn seek_lower_bound<'g>(
        &self,
        lo: Bound<&K>,
        guard: &'g R::Guard,
    ) -> Shared<'g, Node<K, V>> {
        match lo {
            Bound::Unbounded => self.in_order_successor(self.root0(), guard),
            Bound::Included(k) | Bound::Excluded(k) => {
                let loc = self.locate_from::<false>(self.root1(), self.root0(), k, false, guard);
                if loc.dir == 2 {
                    if matches!(lo, Bound::Included(_)) {
                        loc.curr
                    } else {
                        self.in_order_successor(loc.curr, guard)
                    }
                } else if loc.dir == 0 {
                    // Stopped at a threaded left link: `curr` is the first key
                    // greater than the bound.
                    loc.curr
                } else {
                    // Stopped at a threaded right link: its target is the
                    // first key greater than the bound.
                    loc.link.with_tag(0)
                }
            }
        }
    }

    /// Returns a guard-scoped streaming [`Cursor`] over the keys in `range`.
    ///
    /// The cursor seeks to the range's lower bound immediately (one tree
    /// descent) and then streams entries by following successor threads; it
    /// borrows `guard`, so it allocates nothing and the yielded [`Entry`]
    /// references stay valid for the guard's lifetime.  For scans that may
    /// run long (and for the trait-level API), prefer
    /// [`range_iter`](Self::range_iter), which manages its own guard.
    ///
    /// # Examples
    ///
    /// ```
    /// use lfbst::{Ebr, LfBst, Reclaimer};
    ///
    /// let set = LfBst::new();
    /// for k in [10u64, 20, 30, 40] {
    ///     set.insert(k);
    /// }
    /// let guard = Ebr::pin();
    /// let mut cursor = set.range_cursor(15.., &guard);
    /// assert_eq!(cursor.next().map(|e| *e.key()), Some(20));
    /// assert_eq!(cursor.next().map(|e| *e.key()), Some(30));
    /// // Early exit: the remaining keys are never touched.
    /// drop(cursor);
    /// ```
    pub fn range_cursor<'g, B>(&'g self, range: B, guard: &'g R::Guard) -> Cursor<'g, K, V, R>
    where
        K: Clone,
        B: RangeBounds<K>,
    {
        let next = self.seek_lower_bound(range.start_bound(), guard);
        Cursor {
            tree: self,
            guard,
            next,
            last: None,
            end: range.end_bound().cloned(),
            finished: false,
        }
    }

    /// Returns an owning streaming iterator over the `(key, value)` entries
    /// in `range`, with its own periodically refreshed epoch guard.
    ///
    /// This is the long-scan form of [`range_cursor`](Self::range_cursor):
    /// the iterator pins the epoch itself and unpins/repins every
    /// [`REPIN_SCAN_EVERY`] items so that an arbitrarily long scan never
    /// stalls memory reclamation.  The set alias can strip the unit values
    /// with [`RangeIter::keys`].
    ///
    /// # Examples
    ///
    /// ```
    /// use lfbst::LfBst;
    ///
    /// let map: LfBst<u64, u64> = LfBst::new();
    /// for k in [1u64, 2, 3] {
    ///     map.insert_entry(k, k * 10);
    /// }
    /// let entries: Vec<(u64, u64)> = map.range_iter(2..).collect();
    /// assert_eq!(entries, vec![(2, 20), (3, 30)]);
    /// ```
    pub fn range_iter<B>(&self, range: B) -> RangeIter<'_, K, V, R>
    where
        K: Clone,
        B: RangeBounds<K>,
    {
        RangeIter {
            tree: self,
            guard: R::pin(),
            pos: std::ptr::null(),
            last: std::ptr::null(),
            seeked: false,
            start: range.start_bound().cloned(),
            end: range.end_bound().cloned(),
            since_repin: 0,
            finished: false,
        }
    }
}

/// One entry yielded by a [`Cursor`]: references into the live node, valid
/// for the guard's lifetime `'g`.
///
/// The node may be concurrently removed while the entry is held; epoch
/// reclamation keeps the references valid until the guard is dropped (the
/// usual weak-consistency caveat applies to what the entry *means*, not to
/// its memory safety).
pub struct Entry<'g, K, V: MapValue = (), R: Reclaimer = crossbeam_epoch::Ebr> {
    node: &'g Node<K, V>,
    guard: &'g R::Guard,
}

impl<'g, K, V: MapValue, R: Reclaimer> Entry<'g, K, V, R> {
    /// The entry's key.
    pub fn key(&self) -> &'g K {
        match &self.node.key {
            KeyBound::Key(k) => k,
            // A cursor only yields interior nodes, and interior nodes carry
            // real keys by construction (see `LfBst::insert_core`).
            _ => unreachable!("cursor yielded a sentinel node"),
        }
    }

    /// A clone of the value currently in the entry's cell (the unit value for
    /// the set alias).
    ///
    /// Returned by value: a word-sized scalar lives in the cell itself, which
    /// a concurrent `upsert` may swap, so no reference can point into it.
    pub fn value(&self) -> V
    where
        V: Clone,
    {
        self.node.value.read_with(self.guard, V::clone).expect("keyed node has a value")
    }
}

impl<K: std::fmt::Debug, V: MapValue, R: Reclaimer> std::fmt::Debug for Entry<'_, K, V, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry").field("key", self.key()).finish_non_exhaustive()
    }
}

/// A guard-scoped streaming cursor; created by [`LfBst::range_cursor`].
///
/// Holds the seek position and streams [`Entry`] items via
/// [`next`](Self::next); see the [module docs](self) for the consistency
/// contract.  Intentionally **not** an [`Iterator`]: the entries borrow the
/// guard with lifetime `'g` rather than the cursor itself, which a
/// `Iterator::next(&mut self)` signature cannot express losslessly — use
/// [`LfBst::range_iter`] when an `Iterator` is needed.
pub struct Cursor<'g, K, V: MapValue = (), R: Reclaimer = crossbeam_epoch::Ebr> {
    tree: &'g LfBst<K, V, R>,
    guard: &'g R::Guard,
    /// The next node to consider (already at or past the lower bound).
    next: Shared<'g, Node<K, V>>,
    /// The key of the last yielded node, read in place under the guard.
    last: Option<&'g K>,
    end: Bound<K>,
    finished: bool,
}

impl<K: std::fmt::Debug, V: MapValue, R: Reclaimer> std::fmt::Debug for Cursor<'_, K, V, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cursor")
            .field("end", &self.end)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl<'g, K: Ord, V: MapValue, R: Reclaimer> Cursor<'g, K, V, R> {
    /// Advances to and returns the next in-range entry, or `None` once the
    /// range is exhausted (further calls keep returning `None`).
    #[allow(clippy::should_implement_trait)] // see the type docs: 'g outlives &mut self
    pub fn next(&mut self) -> Option<Entry<'g, K, V, R>> {
        while !self.finished {
            let curr = self.next;
            if curr.is_null() || same_node(curr, self.tree.root1()) {
                self.finished = true;
                break;
            }
            let node = unsafe { curr.deref() };
            // Hop to the successor first so an early `return` leaves the
            // cursor positioned for the next call.
            self.next = self.tree.in_order_successor(curr, self.guard);
            match &node.key {
                // The successor of a node removed mid-scan can be a node
                // reinserted at or below the last key yielded: skip it.
                KeyBound::Key(k) if self.last.is_some_and(|last| k <= last) => {}
                KeyBound::Key(k) => {
                    let past_end = match &self.end {
                        Bound::Unbounded => false,
                        Bound::Included(end) => k > end,
                        Bound::Excluded(end) => k >= end,
                    };
                    if past_end {
                        self.finished = true;
                        break;
                    }
                    self.last = Some(k);
                    return Some(Entry { node, guard: self.guard });
                }
                // A concurrent removal can briefly route a stale seek through
                // `-inf`; skip it.  `+inf` ends the key space.
                KeyBound::NegInf => {}
                KeyBound::PosInf => {
                    self.finished = true;
                }
            }
        }
        None
    }
}

/// An owning streaming iterator over a key range; created by
/// [`LfBst::range_iter`].
///
/// Yields owned `(key, value)` pairs in strictly ascending key order and
/// repins its epoch guard every [`REPIN_SCAN_EVERY`] items (re-seeking past
/// the last yielded key afterwards), so long scans do not stall reclamation.
pub struct RangeIter<'t, K, V: MapValue = (), R: Reclaimer = crossbeam_epoch::Ebr> {
    tree: &'t LfBst<K, V, R>,
    guard: R::Guard,
    /// The next node to consider.  Only valid while the current pin is held
    /// and `seeked` is `true`; cleared (and re-derived from `start`) after
    /// every repin.
    pos: *const Node<K, V>,
    /// The key of the last node yielded under the current pin (null until
    /// the first yield after a seek).
    last: *const K,
    seeked: bool,
    /// Advances to `Excluded(last yielded key)` as the scan progresses, so a
    /// re-seek resumes exactly where the stream left off.
    start: Bound<K>,
    end: Bound<K>,
    since_repin: u64,
    finished: bool,
}

impl<K: std::fmt::Debug, V: MapValue, R: Reclaimer> std::fmt::Debug for RangeIter<'_, K, V, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangeIter")
            .field("start", &self.start)
            .field("end", &self.end)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl<'t, K, V, R> RangeIter<'t, K, V, R>
where
    K: Ord + Clone,
    V: MapValue,
    R: Reclaimer,
{
    /// Strips the values, yielding keys only — the natural shape for the set
    /// alias (`V = ()`), where the iterator would otherwise yield `(K, ())`.
    ///
    /// # Examples
    ///
    /// ```
    /// use lfbst::LfBst;
    ///
    /// let set = LfBst::new();
    /// for k in [10u64, 20, 30, 40, 50] {
    ///     set.insert(k);
    /// }
    /// assert_eq!(set.range_iter(15..=40).keys().collect::<Vec<_>>(), vec![20, 30, 40]);
    /// assert_eq!(set.range_iter(..20).keys().collect::<Vec<_>>(), vec![10]);
    /// assert_eq!(set.range_iter(41..).keys().collect::<Vec<_>>(), vec![50]);
    /// ```
    pub fn keys(self) -> impl Iterator<Item = K> + 't
    where
        V: Clone,
    {
        self.map(|(k, _)| k)
    }
}

impl<K, V, R> Iterator for RangeIter<'_, K, V, R>
where
    K: Ord + Clone,
    V: MapValue + Clone,
    R: Reclaimer,
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        loop {
            if self.finished {
                return None;
            }
            if self.since_repin >= REPIN_SCAN_EVERY {
                // Release the epoch so reclamation can advance.  Every
                // pointer read under the old pin — `pos` included — is dead
                // after this; the re-seek below re-derives the position from
                // the last yielded key.
                self.guard.repin();
                self.last = std::ptr::null();
                self.seeked = false;
                self.since_repin = 0;
            }
            if !self.seeked {
                self.pos = self.tree.seek_lower_bound(self.start.as_ref(), &self.guard).as_raw();
                self.seeked = true;
            }
            let curr: Shared<'_, Node<K, V>> = Shared::from(self.pos);
            if curr.is_null() || same_node(curr, self.tree.root1()) {
                self.finished = true;
                return None;
            }
            let node = unsafe { curr.deref() };
            self.pos = self.tree.in_order_successor(curr, &self.guard).as_raw();
            // SAFETY: a non-null `last` was read under the current pin (a
            // repin nulls it), so its node cannot have been freed yet.
            let last = unsafe { self.last.as_ref() };
            match &node.key {
                // As in `Cursor::next`: never step back to or below the
                // last key yielded.
                KeyBound::Key(k) if last.is_some_and(|last| k <= last) => {}
                KeyBound::Key(k) => {
                    let past_end = match &self.end {
                        Bound::Unbounded => false,
                        Bound::Included(end) => k > end,
                        Bound::Excluded(end) => k >= end,
                    };
                    if past_end {
                        self.finished = true;
                        return None;
                    }
                    let key = k.clone();
                    let value = node
                        .value
                        .read_with(&self.guard, V::clone)
                        .expect("keyed node has a value");
                    // Only yielded items count toward the repin cadence, and
                    // the resume bound is needed only by the re-seek that
                    // follows a repin — so the extra key clone is paid once
                    // per window, not per item.
                    self.since_repin += 1;
                    if self.since_repin >= REPIN_SCAN_EVERY {
                        self.start = Bound::Excluded(key.clone());
                    }
                    self.last = k;
                    return Some((key, value));
                }
                KeyBound::NegInf => {}
                KeyBound::PosInf => {
                    self.finished = true;
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch::Ebr;
    use cset::{OrderedMap, OrderedSet};

    #[test]
    fn cursor_streams_in_range_ascending() {
        let set = LfBst::new();
        for k in [50u64, 10, 30, 20, 40] {
            set.insert(k);
        }
        let guard = Ebr::pin();
        let mut cursor = set.range_cursor(15..=40, &guard);
        let mut seen = Vec::new();
        while let Some(e) = cursor.next() {
            seen.push(*e.key());
        }
        assert_eq!(seen, vec![20, 30, 40]);
        // Exhausted cursors stay exhausted.
        assert!(cursor.next().is_none());
    }

    #[test]
    fn cursor_entries_read_values() {
        let map: LfBst<u64, u64> = LfBst::new();
        for k in [1u64, 2, 3] {
            map.insert_entry(k, k * 100);
        }
        let guard = Ebr::pin();
        let mut cursor = map.range_cursor(.., &guard);
        let e = cursor.next().unwrap();
        assert_eq!((*e.key(), e.value()), (1, 100));
        // The entry reference outlives further cursor advancement.
        let first_key = e.key();
        let e2 = cursor.next().unwrap();
        assert_eq!(*first_key, 1);
        assert_eq!(*e2.key(), 2);
    }

    #[test]
    fn range_iter_repins_and_resumes() {
        let set = LfBst::new();
        let n = 2 * REPIN_SCAN_EVERY + 37;
        for k in 0..n {
            set.insert(k);
        }
        // The scan crosses two repin boundaries and must not skip or repeat.
        let keys: Vec<u64> = set.range_iter(..).keys().collect();
        assert_eq!(keys, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn range_iter_bounds_and_early_exit() {
        let map: LfBst<u64, u64> = LfBst::new();
        for k in 0..100u64 {
            map.insert_entry(k, k);
        }
        let page: Vec<(u64, u64)> = map.range_iter(10..).take(3).collect();
        assert_eq!(page, vec![(10, 10), (11, 11), (12, 12)]);
        let empty: Vec<(u64, u64)> = map.range_iter(200..).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn successor_queries() {
        let set = LfBst::new();
        assert_eq!(set.next_after(&0u64), None);
        for k in [10u64, 20, 30] {
            set.insert(k);
        }
        assert_eq!(set.next_after(&0), Some(10));
        assert_eq!(set.next_after(&10), Some(20));
        assert_eq!(set.next_after(&25), Some(30));
        assert_eq!(set.next_after(&30), None);
        let map: LfBst<u64, u64> = LfBst::new();
        map.insert_entry(5, 50);
        assert_eq!(map.next_entry_after(&1), Some((5, 50)));
        assert_eq!(map.next_entry_after(&5), None);
    }
}
