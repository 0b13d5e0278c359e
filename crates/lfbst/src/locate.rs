//! Traversal: the paper's `Locate` (listing lines 8–25) and the predecessor
//! query used by `Remove` (the "`k − ε`" search of line 33), both implementing
//! the stopping criterion of Condition 1.
//!
//! Traversals follow the symmetric order of the threaded tree: at each node they
//! go left or right by key comparison; when they reach a *threaded* link they
//! either stop (the searched interval is associated with that thread) or hop to
//! the successor and continue (the interval may have shifted rightwards because
//! of a concurrent category-3 removal).  In `WriteOptimized` mode a traversal
//! that steps over a marked right link first helps the pending removal finish,
//! so that search paths do not accumulate logically removed nodes.

use std::cmp::Ordering as CmpOrdering;

use crossbeam_epoch::{Reclaimer, Shared};

use crate::link::{is_mark, is_thread, same_node};
use crate::node::Node;
use crate::trace_hooks::{dst_point, SpinBound};
use crate::tree::ord::LOAD;
use crate::tree::LfBst;
use crate::value::MapValue;

/// Where a traversal stopped.
pub(crate) struct Location<'g, K, V: MapValue = ()> {
    /// The node visited immediately before `curr` (used for vicinity restarts).
    pub(crate) prev: Shared<'g, Node<K, V>>,
    /// The node at which the traversal stopped.
    pub(crate) curr: Shared<'g, Node<K, V>>,
    /// `0` / `1`: the searched interval is associated with the threaded link
    /// `curr.child[dir]`; `2`: `curr` holds the searched key.
    pub(crate) dir: usize,
    /// The value of `curr.child[dir]` observed at the stopping point
    /// (meaningful when `dir != 2`).
    pub(crate) link: Shared<'g, Node<K, V>>,
}

impl<K: Ord, V: MapValue, R: Reclaimer> LfBst<K, V, R> {
    /// The paper's `Locate` (`ORDER = false`) and the predecessor query used
    /// by `Remove` (`ORDER = true`): one loop, searching for `key` from
    /// `(prev, curr)`.  The two differ only in how they break a tie, and each
    /// instantiation folds its tie-break at compile time.
    ///
    /// * `Locate` returns `dir == 2` when a node holding `key` is found;
    ///   otherwise the interval containing `key` is associated with the
    ///   threaded link `curr.child[dir]` of the returned location.
    /// * The predecessor query behaves like a search for "`key − ε`": it
    ///   treats equality as *go left*, and therefore terminates at the node
    ///   whose threaded link (the *order-link*) points at the node holding
    ///   `key`, if any.  Its `dir` is never `2`; the candidate victim is the
    ///   target of the returned `link`.
    pub(crate) fn locate_from<'g, const ORDER: bool>(
        &self,
        mut prev: Shared<'g, Node<K, V>>,
        mut curr: Shared<'g, Node<K, V>>,
        key: &K,
        eager: bool,
        guard: &'g R::Guard,
    ) -> Location<'g, K, V> {
        // Hoisted so the loop body carries no config loads; with the `stats`
        // feature off this is a compile-time `false` and every stats branch
        // below folds away.
        let record = self.record_stats();
        let mut links: u64 = 0;
        let mut spin = SpinBound::new(if ORDER { "locate_from::<ORDER>" } else { "locate_from" });
        loop {
            spin.tick();
            let curr_ref = unsafe { curr.deref() };
            // Sentinel-free comparison: root dummies by pointer, real keys via
            // `K::cmp` (see `LfBst::cmp_node_key`).  The order query goes
            // left on equal: it searches for key - epsilon.
            let dir = match self.cmp_node_key(curr, key) {
                CmpOrdering::Equal if !ORDER => {
                    if record {
                        self.stats.record_links(links);
                    }
                    return Location { prev, curr, dir: 2, link: Shared::null() };
                }
                CmpOrdering::Less => 1,
                _ => 0,
            };
            let link = curr_ref.child[dir].load(LOAD, guard);

            // Eager helping (lines 14-20): clean a node whose marked right link
            // we are about to step over, then resume from the vicinity.
            if eager && dir == 1 && is_mark(link) {
                let new_prev = unsafe { prev.deref() }.backlink.load(LOAD, guard).with_tag(0);
                self.note_help();
                dst_point!();
                self.clean_mark_right(curr, guard);
                prev = new_prev;
                curr = new_prev;
                links += 1;
                continue;
            }

            if is_thread(link) {
                // A threaded left link always stops the traversal.
                // Condition 1: on a threaded right link, stop only if the
                // searched key precedes the successor's key (`Locate`), or
                // does not follow it (the order query: key - epsilon precedes
                // it); otherwise the interval shifted right and the traversal
                // follows the thread.
                let next = link.with_tag(0);
                let follow = dir == 1
                    && match self.cmp_node_key(next, key) {
                        CmpOrdering::Less => true,
                        CmpOrdering::Equal => !ORDER,
                        CmpOrdering::Greater => false,
                    };
                if !follow {
                    if record {
                        self.stats.record_links(links);
                    }
                    return Location { prev, curr, dir, link };
                }
                prev = curr;
                curr = next;
            } else {
                prev = curr;
                curr = link.with_tag(0);
            }
            links += 1;
        }
    }

    /// Returns `true` if the exact node `victim` is still reachable from the
    /// root by a search for its key.
    ///
    /// Used on slow recovery paths to decide whether a removal that we are
    /// trying to help has already been completed (the victim physically
    /// unlinked) by other threads.
    pub(crate) fn find_exact<'g>(
        &self,
        key: &K,
        victim: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> bool {
        let loc = self.locate_from::<false>(self.root1(), self.root0(), key, false, guard);
        loc.dir == 2 && same_node(loc.curr, victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch as epoch;

    #[test]
    fn locate_on_empty_tree_stops_at_minus_inf_right_thread() {
        let t: LfBst<u64> = LfBst::new();
        let guard = &epoch::pin();
        let loc = t.locate_from::<false>(t.root1(), t.root0(), &5, false, guard);
        assert_eq!(loc.dir, 1);
        assert!(same_node(loc.curr, t.root0()));
        assert!(is_thread(loc.link));
        assert!(same_node(loc.link, t.root1()));
    }

    #[test]
    fn locate_finds_existing_key() {
        let t = LfBst::new();
        for k in [10u64, 5, 15, 3, 7] {
            t.insert(k);
        }
        let guard = &epoch::pin();
        let loc = t.locate_from::<false>(t.root1(), t.root0(), &7, false, guard);
        assert_eq!(loc.dir, 2);
        assert_eq!(unsafe { loc.curr.deref() }.key, cset::KeyBound::Key(7));
    }

    #[test]
    fn locate_missing_key_stops_at_covering_interval() {
        let t = LfBst::new();
        for k in [10u64, 5, 15] {
            t.insert(k);
        }
        let guard = &epoch::pin();
        // 7 lies in the interval (5, 10); 5's right thread points at 10.
        let loc = t.locate_from::<false>(t.root1(), t.root0(), &7, false, guard);
        assert_ne!(loc.dir, 2);
        let curr_key = &unsafe { loc.curr.deref() }.key;
        assert_eq!(*curr_key, cset::KeyBound::Key(5));
        assert_eq!(loc.dir, 1);
        assert!(is_thread(loc.link));
    }

    #[test]
    fn locate_order_terminates_at_order_node() {
        let t = LfBst::new();
        for k in [10u64, 5, 15, 7] {
            t.insert(k);
        }
        let guard = &epoch::pin();
        // The order node of 10 is 7 (rightmost node of its left subtree).
        let loc = t.locate_from::<true>(t.root1(), t.root0(), &10, false, guard);
        assert_eq!(unsafe { loc.curr.deref() }.key, cset::KeyBound::Key(7));
        assert_eq!(loc.dir, 1);
        assert_eq!(unsafe { loc.link.with_tag(0).deref() }.key, cset::KeyBound::Key(10));
        // The order node of 5 (no left child) is 5 itself via its left thread.
        let loc = t.locate_from::<true>(t.root1(), t.root0(), &5, false, guard);
        assert_eq!(unsafe { loc.curr.deref() }.key, cset::KeyBound::Key(5));
        assert_eq!(loc.dir, 0);
        // The order node of a missing key yields a non-matching target.
        let loc = t.locate_from::<true>(t.root1(), t.root0(), &8, false, guard);
        let target_key = &unsafe { loc.link.with_tag(0).deref() }.key;
        assert_ne!(*target_key, cset::KeyBound::Key(8));
    }

    #[test]
    fn sentinel_fast_path_boundary_searches() {
        // The sentinel-free comparison must preserve the traversal stopping
        // rules: equal-key stop for `locate`, "go left on equal" for the
        // order-locate, and correct behaviour at both ends of the key space.
        let t = LfBst::new();
        for k in [5u64, 10, 15] {
            t.insert(k);
        }
        let guard = &epoch::pin();
        for k in [5u64, 10, 15] {
            assert_eq!(
                t.locate_from::<false>(t.root1(), t.root0(), &k, false, guard).dir,
                2,
                "key {k}"
            );
        }
        // Order-locate treats equality as "go left": the order node of the
        // minimum is the minimum itself via its left self-thread.
        let loc = t.locate_from::<true>(t.root1(), t.root0(), &5, false, guard);
        assert_eq!(loc.dir, 0);
        assert!(same_node(loc.link.with_tag(0), loc.curr));
        // Searches past either end stop in the sentinel-bounded intervals.
        let lo = t.locate_from::<false>(t.root1(), t.root0(), &0, false, guard);
        assert_ne!(lo.dir, 2);
        let hi = t.locate_from::<false>(t.root1(), t.root0(), &100, false, guard);
        assert_ne!(hi.dir, 2);
        assert!(same_node(hi.link, t.root1()));
    }

    #[test]
    fn locate_and_order_query_differ_only_on_ties() {
        // The two instantiations share one loop and differ only in their
        // tie-break: off a tie (a missing key) they stop at the same
        // location; on a tie `Locate` stops at the key's node while the order
        // query stops at the threaded link that points to it.
        let t = LfBst::new();
        for k in [40u64, 20, 60, 10, 30, 50, 70] {
            t.insert(k);
        }
        let guard = &epoch::pin();
        for key in 0..=80u64 {
            let plain = t.locate_from::<false>(t.root1(), t.root0(), &key, false, guard);
            let order = t.locate_from::<true>(t.root1(), t.root0(), &key, false, guard);
            assert_ne!(order.dir, 2, "key {key}");
            if key % 10 == 0 && (10..=70).contains(&key) {
                assert_eq!(plain.dir, 2, "key {key}");
                assert!(is_thread(order.link), "key {key}");
                assert!(same_node(order.link.with_tag(0), plain.curr), "key {key}");
            } else {
                assert!(same_node(plain.curr, order.curr), "key {key}");
                assert_eq!(plain.dir, order.dir, "key {key}");
                assert_eq!(plain.link, order.link, "key {key}");
            }
        }
    }

    #[test]
    fn find_exact_distinguishes_nodes() {
        let t = LfBst::new();
        t.insert(1u64);
        t.insert(2);
        let guard = &epoch::pin();
        let loc = t.locate_from::<false>(t.root1(), t.root0(), &1, false, guard);
        assert!(t.find_exact(&1, loc.curr, guard));
        assert!(!t.find_exact(&2, loc.curr, guard));
    }
}
