//! # natarajan-bst — lock-free external BST with edge-level marking
//!
//! An implementation of the lock-free *external* binary search tree of
//! **Natarajan and Mittal**, *Fast Concurrent Lock-free Binary Search Trees*
//! (PPoPP 2014) — reference \[19\] of the paper reproduced by this workspace and
//! its closest competitor: like the threaded internal BST it stores its
//! coordination bits (*flag* and *tag*) on **edges** rather than on nodes.
//!
//! Being an external tree, every key lives in a leaf and internal nodes are
//! routing nodes only, so the structure uses roughly `2n − 1` nodes for `n`
//! keys; deletions splice out one leaf and one routing node and never move
//! keys, which keeps the protocol short (one flag CAS, one tag bit, one splice
//! CAS) at the cost of the extra routing layer that the internal BST avoids.
//!
//! Memory is reclaimed through the tree's `R: Reclaimer` backend (`Ebr` by
//! default, `Ibr` through [`NatarajanBst::new_in`]).  When a single physical
//! splice finishes several logically deleted leaves at once (a chain of
//! tagged edges), the splice winner retires the whole chain: every routing
//! node on it and every deleted leaf hanging off it.

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
/// Edge bit: the leaf at the end of this edge is logically deleted.
const FLAG: usize = 0b01;
/// Edge bit: the edge is frozen while a sibling splice is in progress.
const TAG: usize = 0b10;

/// Key space extended with the three sentinel keys of the original algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ExtKey<K> {
    /// A real key; compares below every sentinel.
    Key(K),
    /// Sentinel occupying the initial left leaf.
    Inf0,
    /// Sentinel key of the lower routing node `S`.
    Inf1,
    /// Sentinel key of the root routing node `R`.
    Inf2,
}

impl<K: Ord> ExtKey<K> {
    fn cmp_key(&self, key: &K) -> std::cmp::Ordering {
        match self {
            ExtKey::Key(k) => k.cmp(key),
            _ => std::cmp::Ordering::Greater,
        }
    }
    /// `true` if a search for `key` should descend to the left child.
    fn goes_left(&self, key: &K) -> bool {
        // Search keys smaller than the node key go left.
        self.cmp_key(key) == std::cmp::Ordering::Greater
    }
}

struct ExtNode<K> {
    key: ExtKey<K>,
    /// `child[0]` = left, `child[1]` = right; null for leaves.
    child: [Atomic<ExtNode<K>>; 2],
}

impl<K> ExtNode<K> {
    /// A node with no children yet: a leaf, or a routing node before its
    /// children are stored.
    fn new(key: ExtKey<K>) -> Self {
        ExtNode { key, child: [Atomic::null(), Atomic::null()] }
    }
}

struct SeekRecord<'g, K> {
    ancestor: Shared<'g, ExtNode<K>>,
    successor: Shared<'g, ExtNode<K>>,
    parent: Shared<'g, ExtNode<K>>,
    leaf: Shared<'g, ExtNode<K>>,
}

/// The Natarajan–Mittal lock-free external binary search tree.
///
/// # Examples
///
/// ```
/// use natarajan_bst::NatarajanBst;
///
/// let set = NatarajanBst::new();
/// assert!(set.insert(5u64));
/// assert!(set.contains(&5));
/// assert!(set.remove(&5));
/// assert!(!set.contains(&5));
/// ```
pub struct NatarajanBst<K, R: Reclaimer = Ebr> {
    root: *mut ExtNode<K>,
    size: AtomicUsize,
    reclaimer: PhantomData<R>,
}

// SAFETY: `root` owns the node graph, which threads touch only through
// atomics under an `R` guard and free only through `R` or in `Drop`; keys are
// read from any thread, hence `K: Send + Sync`.  `size` is atomic and
// `reclaimer` is a zero-sized marker.
unsafe impl<K: Send + Sync, R: Reclaimer> Send for NatarajanBst<K, R> {}
unsafe impl<K: Send + Sync, R: Reclaimer> Sync for NatarajanBst<K, R> {}

impl<K, R: Reclaimer> fmt::Debug for NatarajanBst<K, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NatarajanBst").field("len", &self.size.load(Ordering::Relaxed)).finish()
    }
}

impl<K: Ord, R: Reclaimer> Default for NatarajanBst<K, R> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl<K: Ord> NatarajanBst<K> {
    /// Creates an empty tree on the default epoch-based backend.
    pub fn new() -> Self {
        Self::new_in()
    }
}

impl<K: Ord, R: Reclaimer> NatarajanBst<K, R> {
    /// Creates an empty tree (the sentinel skeleton of the original
    /// algorithm) on reclamation backend `R`; `NatarajanBst::new()` is the
    /// `R = Ebr` shorthand.
    pub fn new_in() -> Self {
        // R(inf2) -> { S(inf1), leaf(inf2) };  S(inf1) -> { leaf(inf0), leaf(inf1) }
        let leaf_inf0 = epoch::alloc_raw(ExtNode::new(ExtKey::Inf0));
        let leaf_inf1 = epoch::alloc_raw(ExtNode::new(ExtKey::Inf1));
        let leaf_inf2 = epoch::alloc_raw(ExtNode::new(ExtKey::Inf2));
        let s = epoch::alloc_raw(ExtNode::new(ExtKey::Inf1));
        let r = epoch::alloc_raw(ExtNode::new(ExtKey::Inf2));
        unsafe {
            (*s).child[0].store(Shared::from(leaf_inf0 as *const ExtNode<K>), ORD);
            (*s).child[1].store(Shared::from(leaf_inf1 as *const ExtNode<K>), ORD);
            (*r).child[0].store(Shared::from(s as *const ExtNode<K>), ORD);
            (*r).child[1].store(Shared::from(leaf_inf2 as *const ExtNode<K>), ORD);
        }
        NatarajanBst { root: r, size: AtomicUsize::new(0), reclaimer: PhantomData }
    }

    fn root_shared<'g>(&self) -> Shared<'g, ExtNode<K>> {
        Shared::from(self.root as *const ExtNode<K>)
    }

    /// Number of keys (exact at quiescence).
    pub fn len(&self) -> usize {
        self.size.load(Ordering::Acquire)
    }

    /// Returns `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn child_index(node: &ExtNode<K>, key: &K) -> usize {
        usize::from(!node.key.goes_left(key))
    }

    /// The seek phase: descends to the leaf for `key`, remembering the deepest
    /// untagged edge (`ancestor` → `successor`) on the way.
    ///
    /// The seek walks through spliced-out chains, i.e. nodes that are
    /// already unlinked, so it loads with `try_load` and starts over from
    /// the root whenever the reclamation reservation had to grow (the
    /// interval backend's rule, see `ebr::ReclaimGuard::try_protect_load`);
    /// under EBR it never restarts.
    fn seek<'g>(&self, key: &K, guard: &'g R::Guard) -> SeekRecord<'g, K> {
        loop {
            if let Some(record) = self.try_seek(key, guard) {
                return record;
            }
        }
    }

    /// One seek attempt from the root; `None` if a load was declined.
    fn try_seek<'g>(&self, key: &K, guard: &'g R::Guard) -> Option<SeekRecord<'g, K>> {
        // SAFETY (every `deref` below): each pointer is the never-retired
        // root or came from a `try_load` of this attempt (see `seek`).
        let r = self.root_shared();
        let s = unsafe { r.deref() }.child[0].try_load(ORD, guard)?.with_tag(0);
        // Edge from parent to leaf, as read at the parent.
        let mut parent_field = unsafe { s.deref() }.child[0].try_load(ORD, guard)?;
        let mut record =
            SeekRecord { ancestor: r, successor: s, parent: s, leaf: parent_field.with_tag(0) };
        let mut current_field = unsafe { record.leaf.deref() }.child
            [Self::child_index(unsafe { record.leaf.deref() }, key)]
        .try_load(ORD, guard)?;
        let mut current = current_field.with_tag(0);
        while !current.is_null() {
            if parent_field.tag() & TAG == 0 {
                record.ancestor = record.parent;
                record.successor = record.leaf;
            }
            record.parent = record.leaf;
            record.leaf = current;
            parent_field = current_field;
            let node = unsafe { current.deref() };
            current_field = node.child[Self::child_index(node, key)].try_load(ORD, guard)?;
            current = current_field.with_tag(0);
        }
        Some(record)
    }

    /// Returns `true` if `key` is in the set.
    pub fn contains(&self, key: &K) -> bool {
        let guard = &R::pin();
        let record = self.seek(key, guard);
        unsafe { record.leaf.deref() }.key.cmp_key(key) == std::cmp::Ordering::Equal
    }

    /// Inserts `key`; returns `true` if it was not already present.
    pub fn insert(&self, key: K) -> bool
    where
        K: Clone,
    {
        let guard = &R::pin();
        loop {
            let record = self.seek(&key, guard);
            let leaf_ref = unsafe { record.leaf.deref() };
            if leaf_ref.key.cmp_key(&key) == std::cmp::Ordering::Equal {
                return false;
            }
            let parent_ref = unsafe { record.parent.deref() };
            let dir = Self::child_index(parent_ref, &key);
            // Build the replacement subtree: a routing node whose children are
            // the existing leaf and a new leaf holding `key`.
            let new_leaf = Owned::new(ExtNode::new(ExtKey::Key(key.clone()))).into_shared(guard);
            let (internal_key, left, right) = if leaf_ref.key.goes_left(&key) {
                // existing leaf key > new key: new leaf on the left
                (leaf_ref.key.clone(), new_leaf, record.leaf)
            } else {
                (ExtKey::Key(key.clone()), record.leaf, new_leaf)
            };
            let internal = Owned::new(ExtNode::new(internal_key)).into_shared(guard);
            unsafe {
                internal.deref().child[0].store(left, ORD);
                internal.deref().child[1].store(right, ORD);
            }
            match parent_ref.child[dir].compare_exchange(
                record.leaf.with_tag(0),
                internal.with_tag(0),
                ORD,
                ORD,
                guard,
            ) {
                Ok(_) => {
                    self.size.fetch_add(1, Ordering::AcqRel);
                    return true;
                }
                Err(e) => {
                    // Reclaim the unpublished nodes and help an obstructing
                    // delete if that is what failed us.
                    unsafe {
                        drop(new_leaf.into_owned());
                        drop(internal.into_owned());
                    }
                    let current = e.current;
                    if current.with_tag(0) == record.leaf.with_tag(0)
                        && current.tag() & (FLAG | TAG) != 0
                    {
                        self.cleanup(&key, &record, guard);
                    }
                }
            }
        }
    }

    /// Removes `key`; returns `true` if it was present and this call removed it.
    pub fn remove(&self, key: &K) -> bool {
        let guard = &R::pin();
        let mut injecting = true;
        let mut target: Shared<'_, ExtNode<K>> = Shared::null();
        loop {
            let record = self.seek(key, guard);
            let leaf_ref = unsafe { record.leaf.deref() };
            if injecting {
                if leaf_ref.key.cmp_key(key) != std::cmp::Ordering::Equal {
                    return false;
                }
                let parent_ref = unsafe { record.parent.deref() };
                let dir = Self::child_index(parent_ref, key);
                match parent_ref.child[dir].compare_exchange(
                    record.leaf.with_tag(0),
                    record.leaf.with_tag(FLAG),
                    ORD,
                    ORD,
                    guard,
                ) {
                    Ok(_) => {
                        // Logical removal done; now splice physically.
                        injecting = false;
                        target = record.leaf;
                        self.size.fetch_sub(1, Ordering::AcqRel);
                        if self.cleanup(key, &record, guard) {
                            return true;
                        }
                    }
                    Err(e) => {
                        let current = e.current;
                        if current.with_tag(0) == record.leaf.with_tag(0)
                            && current.tag() & (FLAG | TAG) != 0
                        {
                            // Another operation holds this edge: help it.
                            self.cleanup(key, &record, guard);
                        }
                    }
                }
            } else {
                if record.leaf.with_tag(0) != target.with_tag(0) {
                    // Someone else performed the physical splice for us.
                    return true;
                }
                if self.cleanup(key, &record, guard) {
                    return true;
                }
            }
        }
    }

    /// The splice phase: tags the sibling edge and swings the deepest untagged
    /// ancestor edge over the whole flagged/tagged chain.
    fn cleanup<'g>(&self, key: &K, record: &SeekRecord<'g, K>, guard: &'g R::Guard) -> bool {
        let ancestor_ref = unsafe { record.ancestor.deref() };
        let parent_ref = unsafe { record.parent.deref() };
        let child_dir = Self::child_index(parent_ref, key);
        let mut sibling_dir = 1 - child_dir;
        let child_edge = parent_ref.child[child_dir].load(ORD, guard);
        if child_edge.tag() & FLAG == 0 {
            // The flag is on the sibling edge (we are helping a different
            // delete); the chain to remove is on the child side instead.
            sibling_dir = child_dir;
        }
        // Freeze the sibling edge.
        parent_ref.child[sibling_dir].fetch_or(TAG, ORD, guard);
        let sibling_edge = parent_ref.child[sibling_dir].load(ORD, guard);
        // Swing the ancestor edge: it must still point at the successor,
        // untagged and unflagged, for the splice to succeed.
        let succ_dir = Self::child_index(ancestor_ref, key);
        let result = ancestor_ref.child[succ_dir]
            .compare_exchange(
                record.successor.with_tag(0),
                sibling_edge.with_tag(sibling_edge.tag() & FLAG),
                ORD,
                ORD,
                guard,
            )
            .is_ok();
        if result {
            self.retire_chain(record, key, sibling_dir, guard);
        }
        result
    }

    /// Retires the spliced-out chain: the routing nodes from `successor` down
    /// to `parent` along the search path of `key`, the deleted leaf under
    /// `parent`, and the deleted leaf hanging off each routing node above
    /// `parent`.
    ///
    /// Every edge of the chain is frozen before the splice: the path edges
    /// above `parent` are tagged (that is why `ancestor` sits above them), a
    /// tagged edge's sibling is the flagged edge to a deleted leaf, and
    /// `cleanup` tagged `parent`'s surviving edge itself.  So the walk sees
    /// exactly the nodes the splice unlinked, and only the splice winner
    /// retires them.
    fn retire_chain<'g>(
        &self,
        record: &SeekRecord<'g, K>,
        key: &K,
        sibling_dir: usize,
        guard: &'g R::Guard,
    ) {
        let mut node = record.successor.with_tag(0);
        loop {
            // SAFETY: the chain's nodes are the ones `seek` loaded for
            // `record`, reached again through its frozen edges.
            let node_ref = unsafe { node.deref() };
            let off_path = if node == record.parent.with_tag(0) {
                1 - sibling_dir
            } else {
                1 - Self::child_index(node_ref, key)
            };
            let leaf = node_ref.child[off_path].load(ORD, guard).with_tag(0);
            // SAFETY: the splice unlinked the whole chain (see above).
            unsafe {
                guard.defer_destroy(leaf);
                guard.defer_destroy(node);
            }
            if node == record.parent.with_tag(0) {
                return;
            }
            node = node_ref.child[Self::child_index(node_ref, key)].load(ORD, guard).with_tag(0);
        }
    }

    /// Collects up to `limit` keys in `[lo, hi]`, ascending (weakly
    /// consistent; exact at quiescence, though a key whose removal is still
    /// in its physical-splice window may briefly be reported).
    ///
    /// A pruned in-order DFS over the external tree, identical in shape to
    /// `ellen_bst`'s: right child pushed before left for ascending pops,
    /// out-of-bounds subtrees pruned, early exit at `limit` — the bounded
    /// page primitive behind the chunked fallback cursor of
    /// [`cset::OrderedSet::scan_keys`].  A pass cut short by a declined load
    /// (see `seek`) is resumed from the root above the last key emitted.
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
                if let ExtKey::Key(k) = &n.key {
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
            // Left subtree holds keys < n.key, right subtree keys >= n.key
            // (sentinel routing keys compare above every real key).
            let skip_left = match lo {
                Bound::Unbounded => false,
                Bound::Included(b) | Bound::Excluded(b) => n.key.cmp_key(b) != CmpOrdering::Greater,
            };
            let skip_right = match hi {
                Bound::Unbounded => false,
                Bound::Included(b) => n.key.cmp_key(b) == CmpOrdering::Greater,
                Bound::Excluded(b) => n.key.cmp_key(b) != CmpOrdering::Less,
            };
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

impl<K: Ord + Clone + Send + Sync, R: Reclaimer> cset::OrderedMap<K, ()> for NatarajanBst<K, R> {
    fn entries_between(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, ())> {
        self.entries_between_limited(lo, hi, usize::MAX)
    }

    fn entries_between_limited(&self, lo: Bound<&K>, hi: Bound<&K>, limit: usize) -> Vec<(K, ())> {
        self.keys_in_range_limited(lo, hi, limit).into_iter().map(|k| (k, ())).collect()
    }
}

impl<K, R: Reclaimer> Drop for NatarajanBst<K, R> {
    fn drop(&mut self) {
        let guard = unsafe { R::unprotected() };
        let mut stack = vec![self.root];
        while let Some(p) = stack.pop() {
            unsafe {
                for dir in 0..2 {
                    let c = (*p).child[dir].load(ORD, guard);
                    if !c.is_null() {
                        stack.push(c.with_tag(0).as_raw() as *mut ExtNode<K>);
                    }
                }
                drop(epoch::dealloc_raw(p));
            }
        }
    }
}

/// The Set ADT as a map with `()` values: the set face comes from `cset`'s
/// blanket impls.
impl<K: Ord + Clone + Send + Sync, R: Reclaimer> ConcurrentMap<K, ()> for NatarajanBst<K, R> {
    fn insert(&self, key: K, (): ()) -> bool {
        NatarajanBst::insert(self, key)
    }

    fn get(&self, key: &K) -> Option<()> {
        NatarajanBst::contains(self, key).then_some(())
    }

    fn upsert(&self, key: K, (): ()) -> Option<()> {
        (!NatarajanBst::insert(self, key)).then_some(())
    }

    fn remove(&self, key: &K) -> Option<()> {
        NatarajanBst::remove(self, key).then_some(())
    }

    fn contains_key(&self, key: &K) -> bool {
        NatarajanBst::contains(self, key)
    }

    fn len(&self) -> usize {
        NatarajanBst::len(self)
    }

    fn name(&self) -> &'static str {
        "natarajan-mittal-bst"
    }
}

/// Size in bytes of one (internal or leaf) node for `u64` keys (footprint
/// reporting, `tests/tests/footprint.rs`).  An external tree needs `2n - 1` such nodes for
/// `n` keys.
pub fn node_size_bytes() -> usize {
    std::mem::size_of::<ExtNode<u64>>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cset::OrderedSet;
    use std::sync::atomic::AtomicI64;
    use std::sync::Arc;

    #[test]
    fn sequential_lifecycle() {
        let t = NatarajanBst::new();
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
    fn insert_ascending_descending() {
        let t = NatarajanBst::new();
        for k in 0..200u64 {
            assert!(t.insert(k));
        }
        for k in (200..400u64).rev() {
            assert!(t.insert(k));
        }
        assert_eq!(t.len(), 400);
        assert_eq!(
            t.keys_between(Bound::Unbounded, Bound::Unbounded),
            (0..400).collect::<Vec<_>>()
        );
        for k in 0..400u64 {
            assert!(t.remove(&k), "failed removing {k}");
        }
        assert!(t.is_empty());
    }

    #[test]
    fn concurrent_disjoint_inserts_and_removes() {
        let t = Arc::new(NatarajanBst::new());
        let threads = 4;
        let per = 2_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let base = i * per;
                    for k in base..base + per {
                        assert!(t.insert(k));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), (threads * per) as usize);
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let base = i * per;
                    for k in base..base + per {
                        assert!(t.remove(&k));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(t.is_empty());
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
        let t: NatarajanBst<String, R> = NatarajanBst::new_in();
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
        let tree: Arc<NatarajanBst<u64, R>> = Arc::new(NatarajanBst::new_in());
        let range = 256u64;
        let balance = Arc::new((0..range).map(|_| AtomicI64::new(0)).collect::<Vec<_>>());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let tree = Arc::clone(&tree);
                let balance = Arc::clone(&balance);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
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
