//! # ellen-bst — the Ellen–Fatourou–Ruppert–van Breugel lock-free external BST
//!
//! An implementation of the non-blocking *external* binary search tree of
//! **Ellen, Fatourou, Ruppert and van Breugel** (PODC 2010) — reference \[10\]
//! of the paper reproduced by this workspace.  It is the canonical
//! "node-holding" design the paper argues against: every update *flags or marks
//! whole nodes* through a per-node `update` field that points at an operation
//! descriptor (`Info` record), and helpers complete the operation described by
//! the descriptor.  Because a `Delete` holds both the parent and the
//! grandparent, two updates that touch nearby nodes obstruct each other even
//! when they modify disjoint links — exactly the disjoint-access limitation the
//! threaded internal BST removes.
//!
//! Memory is reclaimed through the tree's `R: Reclaimer` backend (`Ebr` by
//! default, `Ibr` through [`EllenBst::new_in`]), and nothing is retired
//! while a thread that pins later could still reach it:
//!
//! * an operation descriptor is retired by the CAS that overwrites it in the
//!   `update` word that flagged it — not when its operation completes, since
//!   the word still holds it (CLEAN) afterwards and a thread pinned later may
//!   load it as a CAS expected value;
//! * a node a descriptor names (an insert's replaced leaf, a delete's parent
//!   and leaf) is retired only after that descriptor's flag is cleared, so a
//!   late helper can no longer reach it through the flagged word;
//! * an insert replaces its leaf with a fresh copy rather than re-linking it,
//!   as in the original paper, so a removed node can never become a child
//!   again and a stale helper's child CAS cannot succeed twice.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam_epoch::{self as epoch, Atomic, Ebr, Owned, ReclaimGuard, Reclaimer, Shared};
use cset::ConcurrentMap;

const ORD: Ordering = Ordering::SeqCst;

// States carried in the two low bits of the `update` word.
const CLEAN: usize = 0b00;
const IFLAG: usize = 0b01;
const DFLAG: usize = 0b10;
const MARK: usize = 0b11;

/// Key space with the two sentinel keys (`Inf1 < Inf2`) of the original paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EKey<K> {
    /// A real key (compares below both sentinels).
    Key(K),
    /// The key of the left dummy leaf.
    Inf1,
    /// The key of the root and the right dummy leaf.
    Inf2,
}

impl<K: Ord> EKey<K> {
    fn cmp_key(&self, key: &K) -> std::cmp::Ordering {
        match self {
            EKey::Key(k) => k.cmp(key),
            _ => std::cmp::Ordering::Greater,
        }
    }
    fn goes_left(&self, key: &K) -> bool {
        self.cmp_key(key) == std::cmp::Ordering::Greater
    }
}

/// Operation descriptor.
enum Info<K> {
    /// An in-flight insert: `p`'s child `l` is being replaced by `new_internal`.
    Insert { p: *const ENode<K>, l: *const ENode<K>, new_internal: *const ENode<K> },
    /// An in-flight delete of leaf `l` under parent `p` and grandparent `gp`.
    Delete {
        gp: *const ENode<K>,
        p: *const ENode<K>,
        l: *const ENode<K>,
        /// The descriptor in `p.update` when the delete was injected (the word
        /// was CLEAN, so its tag is 0).  A CAS expected value only: it came
        /// from no protected load of a helper, so it is never dereferenced.
        pupdate: *const Info<K>,
    },
}

struct ENode<K> {
    key: EKey<K>,
    /// `child[0]` = left, `child[1]` = right; both null for leaves.
    child: [Atomic<ENode<K>>; 2],
    /// `(Info*, state)` packed word; low two bits are the state.
    update: Atomic<Info<K>>,
}

impl<K> ENode<K> {
    /// A node with no children yet: a leaf, or an internal node before its
    /// children are stored.
    fn new(key: EKey<K>) -> Self {
        ENode { key, child: [Atomic::null(), Atomic::null()], update: Atomic::null() }
    }
}

/// The Ellen et al. lock-free external binary search tree.
///
/// # Examples
///
/// ```
/// use ellen_bst::EllenBst;
///
/// let set = EllenBst::new();
/// assert!(set.insert(7u64));
/// assert!(set.contains(&7));
/// assert!(set.remove(&7));
/// assert!(!set.remove(&7));
/// ```
pub struct EllenBst<K, R: Reclaimer = Ebr> {
    root: *mut ENode<K>,
    size: AtomicUsize,
    reclaimer: PhantomData<R>,
}

// SAFETY: `root` owns the node graph, which threads touch only through
// atomics under an `R` guard and free only through `R` or in `Drop`; keys are
// read from any thread, hence `K: Send + Sync`.  `size` is atomic and
// `reclaimer` is a zero-sized marker.
unsafe impl<K: Send + Sync, R: Reclaimer> Send for EllenBst<K, R> {}
unsafe impl<K: Send + Sync, R: Reclaimer> Sync for EllenBst<K, R> {}

impl<K, R: Reclaimer> fmt::Debug for EllenBst<K, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EllenBst").field("len", &self.size.load(Ordering::Relaxed)).finish()
    }
}

impl<K: Ord, R: Reclaimer> Default for EllenBst<K, R> {
    fn default() -> Self {
        Self::new_in()
    }
}

/// Result of the search phase.
struct EllenSearch<'g, K> {
    gp: Shared<'g, ENode<K>>,
    p: Shared<'g, ENode<K>>,
    l: Shared<'g, ENode<K>>,
    pupdate: Shared<'g, Info<K>>,
    gpupdate: Shared<'g, Info<K>>,
}

impl<K: Ord> EllenBst<K> {
    /// Creates an empty tree on the default epoch-based backend.
    pub fn new() -> Self {
        Self::new_in()
    }
}

impl<K: Ord, R: Reclaimer> EllenBst<K, R> {
    /// Creates an empty tree (root with key `Inf2` and two dummy leaves) on
    /// reclamation backend `R`; `EllenBst::new()` is the `R = Ebr` shorthand.
    pub fn new_in() -> Self {
        let l1 = epoch::alloc_raw(ENode::new(EKey::Inf1));
        let l2 = epoch::alloc_raw(ENode::new(EKey::Inf2));
        let root = epoch::alloc_raw(ENode::new(EKey::Inf2));
        unsafe {
            (*root).child[0].store(Shared::from(l1 as *const ENode<K>), ORD);
            (*root).child[1].store(Shared::from(l2 as *const ENode<K>), ORD);
        }
        EllenBst { root, size: AtomicUsize::new(0), reclaimer: PhantomData }
    }

    fn root_shared<'g>(&self) -> Shared<'g, ENode<K>> {
        Shared::from(self.root as *const ENode<K>)
    }

    /// Number of keys (exact at quiescence).
    pub fn len(&self) -> usize {
        self.size.load(Ordering::Acquire)
    }

    /// Returns `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Standard BST search down to a leaf, recording the parent, grandparent
    /// and their update fields.
    ///
    /// A search can pass through nodes that are already unlinked, so it
    /// loads with `try_load` and starts over from the root whenever the
    /// reclamation reservation had to grow (the interval backend's rule, see
    /// `ebr::ReclaimGuard::try_protect_load`); under EBR it never restarts.
    fn search<'g>(&self, key: &K, guard: &'g R::Guard) -> EllenSearch<'g, K> {
        loop {
            if let Some(s) = self.try_search(key, guard) {
                return s;
            }
        }
    }

    /// One search attempt from the root; `None` if a load was declined.
    fn try_search<'g>(&self, key: &K, guard: &'g R::Guard) -> Option<EllenSearch<'g, K>> {
        let (mut gp, mut gpupdate) = (Shared::null(), Shared::null());
        let (mut p, mut pupdate) = (Shared::null(), Shared::null());
        let mut l = self.root_shared();
        loop {
            // SAFETY: `l` is the never-retired root or came from a `try_load`
            // of this attempt, so the reservation covers it (see `search`).
            let l_ref = unsafe { l.deref() };
            if l_ref.child[0].try_load(ORD, guard)?.is_null() {
                return Some(EllenSearch { gp, p, l, pupdate, gpupdate });
            }
            (gp, gpupdate, p) = (p, pupdate, l);
            // The update word is read before the child: a successful flag
            // CAS on it then proves the child link did not change since.
            pupdate = l_ref.update.try_load(ORD, guard)?;
            let dir = usize::from(!l_ref.key.goes_left(key));
            l = l_ref.child[dir].try_load(ORD, guard)?.with_tag(0);
        }
    }

    /// Returns `true` if `key` is in the set.
    pub fn contains(&self, key: &K) -> bool {
        let guard = &R::pin();
        let s = self.search(key, guard);
        unsafe { s.l.deref() }.key.cmp_key(key) == std::cmp::Ordering::Equal
    }

    /// Inserts `key`; returns `true` if it was not already present.
    pub fn insert(&self, key: K) -> bool
    where
        K: Clone,
    {
        let guard = &R::pin();
        loop {
            let s = self.search(&key, guard);
            let l_ref = unsafe { s.l.deref() };
            if l_ref.key.cmp_key(&key) == std::cmp::Ordering::Equal {
                return false;
            }
            if s.pupdate.tag() != CLEAN {
                self.help_node(unsafe { s.p.deref() }, guard);
                continue;
            }
            // Build: new internal whose children are a fresh leaf for `key`
            // and a fresh copy of the existing leaf.  Reusing `l` itself would
            // let `l` become `p`'s child again (when the new leaf is deleted),
            // and a stale helper's child CAS would then re-link the removed
            // internal node.
            let new_leaf = epoch::alloc_raw(ENode::new(EKey::Key(key.clone())));
            let sibling = epoch::alloc_raw(ENode::new(l_ref.key.clone()));
            let (ikey, left, right): (EKey<K>, *const ENode<K>, *const ENode<K>) =
                if l_ref.key.goes_left(&key) {
                    (l_ref.key.clone(), new_leaf, sibling)
                } else {
                    (EKey::Key(key.clone()), sibling, new_leaf)
                };
            let new_internal = epoch::alloc_raw(ENode::new(ikey));
            unsafe {
                (*new_internal).child[0].store(Shared::from(left), ORD);
                (*new_internal).child[1].store(Shared::from(right), ORD);
            }
            let op = Owned::new(Info::Insert { p: s.p.as_raw(), l: s.l.as_raw(), new_internal })
                .into_shared(guard);
            match unsafe { s.p.deref() }.update.compare_exchange(
                s.pupdate,
                op.with_tag(IFLAG),
                ORD,
                ORD,
                guard,
            ) {
                Ok(_) => {
                    // SAFETY: this CAS replaced `s.pupdate` with `op`.
                    unsafe { retire_overwritten(s.pupdate, guard) };
                    self.help_insert(op, guard);
                    self.size.fetch_add(1, Ordering::AcqRel);
                    // SAFETY: the leaf left the tree in `help_insert`, and
                    // `p` is unflagged now, so no thread pinning from here on
                    // can reach it through the descriptor either.  Only the
                    // insert that flagged `p` retires it.
                    unsafe { guard.defer_destroy(s.l) };
                    return true;
                }
                Err(_) => {
                    // Whoever flagged `p` is helped by the next search's
                    // flag check, not here: allocating `op` may have grown
                    // the reservation since this search (see `search`).
                    unsafe {
                        drop(epoch::dealloc_raw(new_leaf));
                        drop(epoch::dealloc_raw(sibling));
                        drop(epoch::dealloc_raw(new_internal));
                        drop(op.into_owned());
                    }
                }
            }
        }
    }

    /// Removes `key`; returns `true` if it was present and this call removed it.
    pub fn remove(&self, key: &K) -> bool {
        let guard = &R::pin();
        loop {
            let s = self.search(key, guard);
            if unsafe { s.l.deref() }.key.cmp_key(key) != std::cmp::Ordering::Equal {
                return false;
            }
            if s.gp.is_null() {
                // The leaf hangs directly off the root: with the sentinel
                // skeleton this cannot hold a real key.
                return false;
            }
            if s.gpupdate.tag() != CLEAN {
                self.help_node(unsafe { s.gp.deref() }, guard);
                continue;
            }
            if s.pupdate.tag() != CLEAN {
                self.help_node(unsafe { s.p.deref() }, guard);
                continue;
            }
            let op = Owned::new(Info::Delete {
                gp: s.gp.as_raw(),
                p: s.p.as_raw(),
                l: s.l.as_raw(),
                pupdate: s.pupdate.as_raw(),
            })
            .into_shared(guard);
            match unsafe { s.gp.deref() }.update.compare_exchange(
                s.gpupdate,
                op.with_tag(DFLAG),
                ORD,
                ORD,
                guard,
            ) {
                Ok(_) => {
                    // SAFETY: this CAS replaced `s.gpupdate` with `op`.
                    unsafe { retire_overwritten(s.gpupdate, guard) };
                    if self.help_delete(op, guard) {
                        self.size.fetch_sub(1, Ordering::AcqRel);
                        return true;
                    }
                    // Backtracked: the descriptor was unflagged and stays in
                    // the grandparent's word until a later flag overwrites
                    // it; retry with a fresh search.
                }
                // As in `insert`, the next search helps whoever flagged `gp`.
                Err(_) => unsafe { drop(op.into_owned()) },
            }
        }
    }

    /// Helps the operation that currently flags or marks `node`, dispatching
    /// on the state bits of its update word.  The word is re-read here with
    /// `try_load`, never taken from a failed CAS: only a protected load
    /// licenses dereferencing the descriptor (a CAS failure word may name
    /// one born after the guard's interval-backend reservation).  Callers
    /// reach `node` by a search with no reservation growth since, or name it
    /// in a descriptor whose flag keeps it linked.
    fn help_node<'g>(&self, node: &'g ENode<K>, guard: &'g R::Guard) {
        // A declined load leaves the helping to the caller's next search.
        let Some(u) = node.update.try_load(ORD, guard) else { return };
        match u.tag() {
            IFLAG => self.help_insert(u, guard),
            DFLAG => {
                let _ = self.help_delete(u, guard);
            }
            MARK => self.help_marked(u, guard),
            _ => {}
        }
    }

    /// Completes an insert whose descriptor has been installed (IFLAG).
    fn help_insert<'g>(&self, op: Shared<'g, Info<K>>, guard: &'g R::Guard) {
        let Info::Insert { p, l, new_internal } = (unsafe { op.deref() }) else {
            return;
        };
        let p_ref = unsafe { &**p };
        // CAS-child: replace l with new_internal under p.
        let l_shared: Shared<'_, ENode<K>> = Shared::from(*l);
        let ni_shared: Shared<'_, ENode<K>> = Shared::from(*new_internal);
        for dir in 0..2 {
            let c = p_ref.child[dir].load(ORD, guard);
            if c.with_tag(0) == l_shared {
                let _ = p_ref.child[dir].compare_exchange(c, ni_shared, ORD, ORD, guard);
            }
        }
        // Unflag.
        let _ =
            p_ref.update.compare_exchange(op.with_tag(IFLAG), op.with_tag(CLEAN), ORD, ORD, guard);
    }

    /// Tries to complete a delete whose descriptor has been installed (DFLAG).
    /// Returns `false` if the operation had to backtrack (the parent could not
    /// be marked) and the caller must retry.
    fn help_delete<'g>(&self, op: Shared<'g, Info<K>>, guard: &'g R::Guard) -> bool {
        let Info::Delete { gp, p, pupdate, .. } = (unsafe { op.deref() }) else {
            return true;
        };
        let p_ref = unsafe { &**p };
        let expected = Shared::from(*pupdate);
        let result = p_ref.update.compare_exchange(expected, op.with_tag(MARK), ORD, ORD, guard);
        let marked_by_us = result.is_ok();
        if marked_by_us {
            // SAFETY: this CAS replaced `expected` with `op`.
            unsafe { retire_overwritten(expected, guard) };
        }
        let current = match result {
            Ok(_) => op.with_tag(MARK),
            Err(e) => e.current,
        };
        if marked_by_us || (current.with_tag(0) == op.with_tag(0) && current.tag() == MARK) {
            // The parent is marked with our descriptor: finish the splice.
            self.help_marked(op, guard);
            true
        } else {
            // Failed to mark: undo our flag on the grandparent (backtrack).
            // Whoever is in the way is helped by the caller's next search,
            // not here.  For the owner, the CAS that flagged the grandparent
            // grew the reservation only after publishing `op`: a helper may
            // have backtracked since and `p` been unlinked, with a marking
            // descriptor that a collect freed before the growth.
            let gp_ref = unsafe { &**gp };
            let _ = gp_ref.update.compare_exchange(
                op.with_tag(DFLAG),
                op.with_tag(CLEAN),
                ORD,
                ORD,
                guard,
            );
            false
        }
    }

    /// Final phase of a delete: splice the parent out from under the
    /// grandparent and unflag the grandparent.
    fn help_marked<'g>(&self, op: Shared<'g, Info<K>>, guard: &'g R::Guard) {
        let Info::Delete { gp, p, l, .. } = (unsafe { op.deref() }) else {
            return;
        };
        let gp_ref = unsafe { &**gp };
        let p_ref = unsafe { &**p };
        // The sibling of l under p survives.
        let l_shared: Shared<'_, ENode<K>> = Shared::from(*l);
        let left = p_ref.child[0].load(ORD, guard);
        let other =
            if left.with_tag(0) == l_shared { p_ref.child[1].load(ORD, guard) } else { left };
        let p_shared: Shared<'_, ENode<K>> = Shared::from(*p);
        let mut spliced = false;
        for dir in 0..2 {
            let c = gp_ref.child[dir].load(ORD, guard);
            if c.with_tag(0) == p_shared
                && gp_ref.child[dir].compare_exchange(c, other.with_tag(0), ORD, ORD, guard).is_ok()
            {
                spliced = true;
            }
        }
        let _ =
            gp_ref.update.compare_exchange(op.with_tag(DFLAG), op.with_tag(CLEAN), ORD, ORD, guard);
        if spliced {
            // SAFETY: the splice winner retires the removed parent and
            // leaf, exactly once, but only now that the grandparent is
            // unflagged: until then a thread that pins late could still
            // reach them through the flagged descriptor.
            unsafe {
                guard.defer_destroy(p_shared);
                guard.defer_destroy(l_shared);
            }
        }
    }

    /// Collects up to `limit` keys in `[lo, hi]`, ascending (weakly
    /// consistent; exact at quiescence, though a key whose removal is still
    /// in its physical-splice window may briefly be reported).
    ///
    /// A pruned in-order DFS: an internal node routes keys below its key to
    /// the left subtree and the rest to the right, so pushing the right child
    /// before the left yields leaves in ascending order, subtrees wholly
    /// outside the bounds are skipped, and the walk stops as soon as `limit`
    /// keys have been emitted — the bounded page primitive behind the chunked
    /// fallback cursor of [`cset::OrderedSet::scan_keys`].  A pass cut short
    /// by a declined load (see `search`) is resumed from the root above the
    /// last key emitted.
    pub fn keys_in_range_limited(&self, lo: Bound<&K>, hi: Bound<&K>, limit: usize) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        let guard = &R::pin();
        let mut resume = None;
        while !self.range_pass(
            resume.as_ref().map_or(lo, Bound::Excluded),
            hi,
            limit,
            &mut out,
            guard,
        ) {
            resume = out.last().cloned();
        }
        out
    }

    /// One DFS pass of [`keys_in_range_limited`](Self::keys_in_range_limited)
    /// from the root, appending to `out`; `false` if a load was declined.
    fn range_pass(
        &self,
        lo: Bound<&K>,
        hi: Bound<&K>,
        limit: usize,
        out: &mut Vec<K>,
        guard: &R::Guard,
    ) -> bool
    where
        K: Clone,
    {
        let mut stack = vec![self.root_shared()];
        while let Some(node) = stack.pop() {
            // SAFETY: the root, or a child from a `try_load` of this pass.
            let n = unsafe { node.deref() };
            let Some(left) = n.child[0].try_load(ORD, guard) else { return false };
            if left.is_null() {
                // A leaf: emit its key if it is real and within bounds.
                if let EKey::Key(k) = &n.key {
                    if (lo, hi).contains(k) {
                        out.push(k.clone());
                        if out.len() == limit {
                            return true;
                        }
                    }
                }
                continue;
            }
            let Some(right) = n.child[1].try_load(ORD, guard) else { return false };
            // Prune: the left subtree holds keys < n.key, the right subtree
            // keys >= n.key (sentinel routing keys compare above every real
            // key, so their pruned right subtrees hold only sentinel leaves).
            let skip_left = match lo {
                Bound::Unbounded => false,
                Bound::Included(b) | Bound::Excluded(b) => n.key.cmp_key(b) != CmpOrdering::Greater,
            };
            let skip_right = match hi {
                Bound::Unbounded => false,
                Bound::Included(b) => n.key.cmp_key(b) == CmpOrdering::Greater,
                Bound::Excluded(b) => n.key.cmp_key(b) != CmpOrdering::Less,
            };
            // LIFO: the right child goes first so the left subtree pops first.
            if !skip_right {
                stack.push(right.with_tag(0));
            }
            if !skip_left {
                stack.push(left.with_tag(0));
            }
        }
        true
    }
}

impl<K: Ord + Clone + Send + Sync, R: Reclaimer> cset::OrderedMap<K, ()> for EllenBst<K, R> {
    fn entries_between(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, ())> {
        self.entries_between_limited(lo, hi, usize::MAX)
    }

    fn entries_between_limited(&self, lo: Bound<&K>, hi: Bound<&K>, limit: usize) -> Vec<(K, ())> {
        self.keys_in_range_limited(lo, hi, limit).into_iter().map(|k| (k, ())).collect()
    }
}

/// Retires the descriptor an `update`-word CAS has just overwritten.
///
/// Every overwriting CAS expects a CLEAN word, so `old`'s operation is over,
/// and a descriptor is flagged into exactly one word (the MARK a delete
/// leaves on its parent is never overwritten), so each descriptor is retired
/// once, by the single CAS that replaced it.
///
/// # Safety
///
/// The caller's CAS must have succeeded in replacing `old` with a different
/// descriptor.
unsafe fn retire_overwritten<K, G: ReclaimGuard>(old: Shared<'_, Info<K>>, guard: &G) {
    if !old.is_null() {
        guard.defer_destroy(old.with_tag(0));
    }
}

impl<K, R: Reclaimer> Drop for EllenBst<K, R> {
    fn drop(&mut self) {
        let guard = unsafe { R::unprotected() };
        let mut stack = vec![self.root];
        while let Some(p) = stack.pop() {
            unsafe {
                // A reachable node's flag word owns its descriptor; a MARK
                // borrows the one its grandparent's word owns.
                let u = (*p).update.load(ORD, guard);
                if !u.is_null() && u.tag() != MARK {
                    drop(u.with_tag(0).into_owned());
                }
                for dir in 0..2 {
                    let c = (*p).child[dir].load(ORD, guard);
                    if !c.is_null() {
                        stack.push(c.with_tag(0).as_raw() as *mut ENode<K>);
                    }
                }
                drop(epoch::dealloc_raw(p));
            }
        }
    }
}

/// The Set ADT as a map with `()` values: the set face comes from `cset`'s
/// blanket impls.
impl<K: Ord + Clone + Send + Sync, R: Reclaimer> ConcurrentMap<K, ()> for EllenBst<K, R> {
    fn insert(&self, key: K, (): ()) -> bool {
        EllenBst::insert(self, key)
    }

    fn get(&self, key: &K) -> Option<()> {
        EllenBst::contains(self, key).then_some(())
    }

    fn upsert(&self, key: K, (): ()) -> Option<()> {
        (!EllenBst::insert(self, key)).then_some(())
    }

    fn remove(&self, key: &K) -> Option<()> {
        EllenBst::remove(self, key).then_some(())
    }

    fn contains_key(&self, key: &K) -> bool {
        EllenBst::contains(self, key)
    }

    fn len(&self) -> usize {
        EllenBst::len(self)
    }

    fn name(&self) -> &'static str {
        "ellen-bst"
    }
}

/// Size in bytes of one (internal or leaf) node for `u64` keys (footprint
/// reporting, `tests/tests/footprint.rs`).  An external tree needs `2n - 1` such nodes for
/// `n` keys, plus one operation descriptor per in-flight update.
pub fn node_size_bytes() -> usize {
    std::mem::size_of::<ENode<u64>>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cset::OrderedSet;
    use std::sync::atomic::AtomicI64;
    use std::sync::Arc;

    #[test]
    fn sequential_lifecycle() {
        let t = EllenBst::new();
        assert!(t.is_empty());
        assert!(t.insert(5u64));
        assert!(t.insert(3));
        assert!(t.insert(8));
        assert!(!t.insert(5));
        assert_eq!(t.len(), 3);
        assert!(t.contains(&3));
        assert!(!t.contains(&4));
        assert_eq!(t.keys_between(Bound::Unbounded, Bound::Unbounded), vec![3, 5, 8]);
        assert!(t.remove(&5));
        assert!(!t.remove(&5));
        assert_eq!(t.keys_between(Bound::Unbounded, Bound::Unbounded), vec![3, 8]);
        assert!(t.remove(&3));
        assert!(t.remove(&8));
        assert!(t.is_empty());
    }

    #[test]
    fn insert_remove_many_orders() {
        let t = EllenBst::new();
        for k in 0..300u64 {
            assert!(t.insert((k * 37) % 301));
        }
        assert_eq!(t.len(), 300);
        for k in 0..300u64 {
            assert!(t.remove(&((k * 91) % 301)) || !t.contains(&((k * 91) % 301)));
        }
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let t = Arc::new(EllenBst::new());
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for k in i * 1000..(i + 1) * 1000 {
                        assert!(t.insert(k));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 4000);
        assert_eq!(
            t.keys_between(Bound::Unbounded, Bound::Unbounded),
            (0..4000).collect::<Vec<_>>()
        );
    }

    #[test]
    fn string_keys_on_ebr() {
        string_keys::<Ebr>();
    }

    #[test]
    fn string_keys_on_ibr() {
        string_keys::<crossbeam_epoch::Ibr>();
    }

    /// Heap-owning keys: removes retire nodes whose `String` the backend
    /// drops later, and the tree's `Drop` frees the keys still in it.  A key
    /// dropped twice or read after its node is freed fails under ASAN.
    fn string_keys<R: Reclaimer>() {
        let t: EllenBst<String, R> = EllenBst::new_in();
        for k in 0..200u32 {
            assert!(t.insert(format!("k{:03}", (k * 37) % 200)));
        }
        assert!(!t.insert("k042".to_string()));
        assert_eq!(t.len(), 200);
        for k in (0..200u32).step_by(2) {
            assert!(t.remove(&format!("k{k:03}")));
        }
        assert!(!t.remove(&"k000".to_string()));
        assert!(t.contains(&"k001".to_string()));
        assert!(!t.contains(&"k002".to_string()));
        let keys = t.keys_between(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(
            keys,
            (0..200u32).filter(|k| k % 2 == 1).map(|k| format!("k{k:03}")).collect::<Vec<_>>()
        );
    }

    #[test]
    fn concurrent_mixed_accounting_on_ebr() {
        concurrent_mixed_accounting::<Ebr>();
    }

    #[test]
    fn concurrent_mixed_accounting_on_ibr() {
        concurrent_mixed_accounting::<crossbeam_epoch::Ibr>();
    }

    /// Four threads of random inserts and removes over 256 keys: for every
    /// key, successful inserts minus successful removes must be 0 or 1 and
    /// match its final membership.  Run on both backends, so a descriptor or
    /// node freed too early shows up on the one that frees it.
    fn concurrent_mixed_accounting<R: Reclaimer>() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let tree: Arc<EllenBst<u64, R>> = Arc::new(EllenBst::new_in());
        let range = 256u64;
        let balance = Arc::new((0..range).map(|_| AtomicI64::new(0)).collect::<Vec<_>>());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let tree = Arc::clone(&tree);
                let balance = Arc::clone(&balance);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t + 99);
                    for _ in 0..25_000 {
                        let k = rng.gen_range(0..range);
                        if rng.gen_bool(0.5) {
                            if tree.insert(k) {
                                balance[k as usize].fetch_add(1, Ordering::Relaxed);
                            }
                        } else if tree.remove(&k) {
                            balance[k as usize].fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut expected = 0usize;
        for k in 0..range {
            let b = balance[k as usize].load(Ordering::Relaxed);
            assert!(b == 0 || b == 1, "key {k} balance {b}");
            assert_eq!(tree.contains(&k), b == 1, "membership mismatch for {k}");
            expected += b as usize;
        }
        assert_eq!(tree.len(), expected);
        assert_eq!(tree.keys_between(Bound::Unbounded, Bound::Unbounded).len(), expected);
    }
}
