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
//! Memory is reclaimed through `crossbeam-epoch`, and nothing is retired
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

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use cset::ConcurrentMap;

const ORD: Ordering = Ordering::SeqCst;

// States carried in the two low bits of the `update` word.
const CLEAN: usize = 0b00;
const IFLAG: usize = 0b01;
const DFLAG: usize = 0b10;
const MARK: usize = 0b11;
const STATE_MASK: usize = 0b11;

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
        /// The value of `p.update` observed when the delete was injected.
        pupdate: usize,
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
    fn leaf(key: EKey<K>) -> Self {
        ENode { key, child: [Atomic::null(), Atomic::null()], update: Atomic::null() }
    }
    fn internal(key: EKey<K>) -> Self {
        ENode { key, child: [Atomic::null(), Atomic::null()], update: Atomic::null() }
    }
    fn is_leaf(&self, guard: &Guard) -> bool {
        self.child[0].load(ORD, guard).is_null()
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
pub struct EllenBst<K> {
    root: *mut ENode<K>,
    size: AtomicUsize,
}

unsafe impl<K: Send + Sync> Send for EllenBst<K> {}
unsafe impl<K: Send + Sync> Sync for EllenBst<K> {}

impl<K> fmt::Debug for EllenBst<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EllenBst").field("len", &self.size.load(Ordering::Relaxed)).finish()
    }
}

impl<K: Ord> Default for EllenBst<K> {
    fn default() -> Self {
        Self::new()
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
    /// Creates an empty tree (root with key `Inf2` and two dummy leaves).
    pub fn new() -> Self {
        let l1 = epoch::alloc_raw(ENode::leaf(EKey::Inf1));
        let l2 = epoch::alloc_raw(ENode::leaf(EKey::Inf2));
        let root = epoch::alloc_raw(ENode::internal(EKey::Inf2));
        unsafe {
            (*root).child[0].store(Shared::from(l1 as *const ENode<K>), ORD);
            (*root).child[1].store(Shared::from(l2 as *const ENode<K>), ORD);
        }
        EllenBst { root, size: AtomicUsize::new(0) }
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
    fn search<'g>(&self, key: &K, guard: &'g Guard) -> EllenSearch<'g, K> {
        let mut gp = Shared::null();
        let mut gpupdate = Shared::null();
        let mut p = self.root_shared();
        let mut pupdate = unsafe { p.deref() }.update.load(ORD, guard);
        let mut l = unsafe { p.deref() }.child
            [if unsafe { p.deref() }.key.goes_left(key) { 0 } else { 1 }]
        .load(ORD, guard)
        .with_tag(0);
        loop {
            let l_ref = unsafe { l.deref() };
            if l_ref.is_leaf(guard) {
                return EllenSearch { gp, p, l, pupdate, gpupdate };
            }
            gp = p;
            gpupdate = pupdate;
            p = l;
            pupdate = l_ref.update.load(ORD, guard);
            let dir = if l_ref.key.goes_left(key) { 0 } else { 1 };
            l = l_ref.child[dir].load(ORD, guard).with_tag(0);
        }
    }

    /// Returns `true` if `key` is in the set.
    pub fn contains(&self, key: &K) -> bool {
        let guard = &epoch::pin();
        let s = self.search(key, guard);
        unsafe { s.l.deref() }.key.cmp_key(key) == std::cmp::Ordering::Equal
    }

    /// Inserts `key`; returns `true` if it was not already present.
    pub fn insert(&self, key: K) -> bool
    where
        K: Clone,
    {
        let guard = &epoch::pin();
        loop {
            let s = self.search(&key, guard);
            let l_ref = unsafe { s.l.deref() };
            if l_ref.key.cmp_key(&key) == std::cmp::Ordering::Equal {
                return false;
            }
            if s.pupdate.tag() != CLEAN {
                self.help(s.pupdate, guard);
                continue;
            }
            // Build: new internal whose children are a fresh leaf for `key`
            // and a fresh copy of the existing leaf.  Reusing `l` itself would
            // let `l` become `p`'s child again (when the new leaf is deleted),
            // and a stale helper's child CAS would then re-link the removed
            // internal node.
            let new_leaf = epoch::alloc_raw(ENode::leaf(EKey::Key(key.clone())));
            let sibling = epoch::alloc_raw(ENode::leaf(clone_ekey(&l_ref.key)));
            let (ikey, left, right): (EKey<K>, *const ENode<K>, *const ENode<K>) =
                if l_ref.key.goes_left(&key) {
                    (clone_ekey(&l_ref.key), new_leaf, sibling)
                } else {
                    (EKey::Key(key.clone()), sibling, new_leaf)
                };
            let new_internal = epoch::alloc_raw(ENode::internal(ikey));
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
                Err(e) => {
                    unsafe {
                        drop(epoch::dealloc_raw(new_leaf));
                        drop(epoch::dealloc_raw(sibling));
                        drop(epoch::dealloc_raw(new_internal));
                        drop(op.into_owned());
                    }
                    self.help(e.current, guard);
                }
            }
        }
    }

    /// Removes `key`; returns `true` if it was present and this call removed it.
    pub fn remove(&self, key: &K) -> bool {
        let guard = &epoch::pin();
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
                self.help(s.gpupdate, guard);
                continue;
            }
            if s.pupdate.tag() != CLEAN {
                self.help(s.pupdate, guard);
                continue;
            }
            let op = Owned::new(Info::Delete {
                gp: s.gp.as_raw(),
                p: s.p.as_raw(),
                l: s.l.as_raw(),
                pupdate: pack(s.pupdate),
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
                Err(e) => {
                    unsafe { drop(op.into_owned()) };
                    self.help(e.current, guard);
                }
            }
        }
    }

    /// Dispatches helping according to the state bits of an update word.
    fn help<'g>(&self, u: Shared<'g, Info<K>>, guard: &'g Guard) {
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
    fn help_insert<'g>(&self, op: Shared<'g, Info<K>>, guard: &'g Guard) {
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
    fn help_delete<'g>(&self, op: Shared<'g, Info<K>>, guard: &'g Guard) -> bool {
        let Info::Delete { gp, p, pupdate, .. } = (unsafe { op.deref() }) else {
            return true;
        };
        let p_ref = unsafe { &**p };
        let expected = unpack::<K>(*pupdate, guard);
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
            // Failed to mark: help whoever is in the way, then undo our flag on
            // the grandparent (backtrack).
            self.help(current, guard);
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
    fn help_marked<'g>(&self, op: Shared<'g, Info<K>>, guard: &'g Guard) {
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

    /// Keys in ascending order (weakly consistent; exact at quiescence).
    pub fn iter_keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        let guard = &epoch::pin();
        let mut out = Vec::new();
        let mut stack = vec![self.root_shared()];
        while let Some(node) = stack.pop() {
            let n = unsafe { node.deref() };
            let left = n.child[0].load(ORD, guard).with_tag(0);
            if left.is_null() {
                if let EKey::Key(k) = &n.key {
                    out.push(k.clone());
                }
            } else {
                stack.push(left);
                stack.push(n.child[1].load(ORD, guard).with_tag(0));
            }
        }
        out.sort();
        out
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
    /// fallback cursor of [`cset::OrderedSet::scan_keys`].
    pub fn keys_in_range_limited(
        &self,
        lo: std::ops::Bound<&K>,
        hi: std::ops::Bound<&K>,
        limit: usize,
    ) -> Vec<K>
    where
        K: Clone,
    {
        use std::cmp::Ordering as CmpOrdering;
        use std::ops::Bound;
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        let guard = &epoch::pin();
        let mut stack = vec![self.root_shared()];
        while let Some(node) = stack.pop() {
            let n = unsafe { node.deref() };
            let left = n.child[0].load(ORD, guard).with_tag(0);
            if left.is_null() {
                // A leaf: emit its key if it is real and within bounds.
                if let EKey::Key(k) = &n.key {
                    let above = match lo {
                        Bound::Unbounded => true,
                        Bound::Included(b) => k >= b,
                        Bound::Excluded(b) => k > b,
                    };
                    let below = match hi {
                        Bound::Unbounded => true,
                        Bound::Included(b) => k <= b,
                        Bound::Excluded(b) => k < b,
                    };
                    if above && below {
                        out.push(k.clone());
                        if out.len() == limit {
                            return out;
                        }
                    }
                }
                continue;
            }
            let right = n.child[1].load(ORD, guard).with_tag(0);
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
            if !skip_right && !right.is_null() {
                stack.push(right);
            }
            if !skip_left {
                stack.push(left);
            }
        }
        out
    }
}

impl<K: Ord + Clone + Send + Sync> cset::OrderedMap<K, ()> for EllenBst<K> {
    fn entries_between(&self, lo: std::ops::Bound<&K>, hi: std::ops::Bound<&K>) -> Vec<(K, ())> {
        self.entries_between_limited(lo, hi, usize::MAX)
    }

    fn entries_between_limited(
        &self,
        lo: std::ops::Bound<&K>,
        hi: std::ops::Bound<&K>,
        limit: usize,
    ) -> Vec<(K, ())> {
        self.keys_in_range_limited(lo, hi, limit).into_iter().map(|k| (k, ())).collect()
    }
}

fn clone_ekey<K: Ord + Clone>(key: &EKey<K>) -> EKey<K> {
    match key {
        EKey::Key(k) => EKey::Key(k.clone()),
        EKey::Inf1 => EKey::Inf1,
        EKey::Inf2 => EKey::Inf2,
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
unsafe fn retire_overwritten<K>(old: Shared<'_, Info<K>>, guard: &Guard) {
    if !old.is_null() {
        guard.defer_destroy(old.with_tag(0));
    }
}

/// Packs an update word (pointer + state tag) into a plain usize for storage
/// inside a descriptor.
fn pack<K>(s: Shared<'_, Info<K>>) -> usize {
    s.as_raw() as usize | s.tag()
}

/// Unpacks a word stored by [`pack`].
fn unpack<'g, K>(word: usize, _guard: &'g Guard) -> Shared<'g, Info<K>> {
    let ptr = (word & !STATE_MASK) as *const Info<K>;
    let s: Shared<'g, Info<K>> = Shared::from(ptr);
    s.with_tag(word & STATE_MASK)
}

impl<K> Drop for EllenBst<K> {
    fn drop(&mut self) {
        let guard = unsafe { epoch::unprotected() };
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
impl<K: Ord + Clone + Send + Sync> ConcurrentMap<K, ()> for EllenBst<K> {
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
/// reporting, experiment E9).  An external tree needs `2n - 1` such nodes for
/// `n` keys, plus one operation descriptor per in-flight update.
pub fn node_size_bytes() -> usize {
    std::mem::size_of::<ENode<u64>>()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(t.iter_keys(), vec![3, 5, 8]);
        assert!(t.remove(&5));
        assert!(!t.remove(&5));
        assert_eq!(t.iter_keys(), vec![3, 8]);
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
        assert_eq!(t.iter_keys(), (0..4000).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_mixed_accounting() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let tree = Arc::new(EllenBst::new());
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
        assert_eq!(tree.iter_keys().len(), expected);
    }
}
