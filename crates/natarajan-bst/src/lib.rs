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
//! Memory reclamation uses `crossbeam-epoch`.  When a single physical splice
//! finishes several logically deleted leaves at once (a chain of tagged edges),
//! only the nodes on the spliced chain are retired; the rare additional leaves
//! hanging off the chain are left to the epoch collector at tree drop.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
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
    fn leaf(key: ExtKey<K>) -> Self {
        ExtNode { key, child: [Atomic::null(), Atomic::null()] }
    }
    fn internal(key: ExtKey<K>) -> Self {
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
pub struct NatarajanBst<K> {
    root: *mut ExtNode<K>,
    size: AtomicUsize,
}

unsafe impl<K: Send + Sync> Send for NatarajanBst<K> {}
unsafe impl<K: Send + Sync> Sync for NatarajanBst<K> {}

impl<K> fmt::Debug for NatarajanBst<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NatarajanBst").field("len", &self.size.load(Ordering::Relaxed)).finish()
    }
}

impl<K: Ord> Default for NatarajanBst<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord> NatarajanBst<K> {
    /// Creates an empty tree (the sentinel skeleton of the original algorithm).
    pub fn new() -> Self {
        // R(inf2) -> { S(inf1), leaf(inf2) };  S(inf1) -> { leaf(inf0), leaf(inf1) }
        let leaf_inf0 = epoch::alloc_raw(ExtNode::leaf(ExtKey::Inf0));
        let leaf_inf1 = epoch::alloc_raw(ExtNode::leaf(ExtKey::Inf1));
        let leaf_inf2 = epoch::alloc_raw(ExtNode::leaf(ExtKey::Inf2));
        let s = epoch::alloc_raw(ExtNode::internal(ExtKey::Inf1));
        let r = epoch::alloc_raw(ExtNode::internal(ExtKey::Inf2));
        unsafe {
            (*s).child[0].store(Shared::from(leaf_inf0 as *const ExtNode<K>), ORD);
            (*s).child[1].store(Shared::from(leaf_inf1 as *const ExtNode<K>), ORD);
            (*r).child[0].store(Shared::from(s as *const ExtNode<K>), ORD);
            (*r).child[1].store(Shared::from(leaf_inf2 as *const ExtNode<K>), ORD);
        }
        NatarajanBst { root: r, size: AtomicUsize::new(0) }
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
        if node.key.goes_left(key) {
            0
        } else {
            1
        }
    }

    /// The seek phase: descends to the leaf for `key`, remembering the deepest
    /// untagged edge (`ancestor` → `successor`) on the way.
    fn seek<'g>(&self, key: &K, guard: &'g Guard) -> SeekRecord<'g, K> {
        let r = self.root_shared();
        let s = unsafe { r.deref() }.child[0].load(ORD, guard).with_tag(0);
        // Edge from parent to leaf, as read at the parent.
        let mut parent_field = unsafe { s.deref() }.child[0].load(ORD, guard);
        let mut record =
            SeekRecord { ancestor: r, successor: s, parent: s, leaf: parent_field.with_tag(0) };
        let mut current_field = unsafe { record.leaf.deref() }.child
            [Self::child_index(unsafe { record.leaf.deref() }, key)]
        .load(ORD, guard);
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
            current_field = node.child[Self::child_index(node, key)].load(ORD, guard);
            current = current_field.with_tag(0);
        }
        record
    }

    /// Returns `true` if `key` is in the set.
    pub fn contains(&self, key: &K) -> bool {
        let guard = &epoch::pin();
        let record = self.seek(key, guard);
        unsafe { record.leaf.deref() }.key.cmp_key(key) == std::cmp::Ordering::Equal
    }

    /// Inserts `key`; returns `true` if it was not already present.
    pub fn insert(&self, key: K) -> bool
    where
        K: Clone,
    {
        let guard = &epoch::pin();
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
            let new_leaf = Owned::new(ExtNode::leaf(ExtKey::Key(key.clone()))).into_shared(guard);
            let (internal_key, left, right) = if leaf_ref.key.goes_left(&key) {
                // existing leaf key > new key: new leaf on the left
                (clone_ext_key(&leaf_ref.key), new_leaf, record.leaf)
            } else {
                (ExtKey::Key(key.clone()), record.leaf, new_leaf)
            };
            let internal = Owned::new(ExtNode::internal(internal_key)).into_shared(guard);
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
        let guard = &epoch::pin();
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
    fn cleanup<'g>(&self, key: &K, record: &SeekRecord<'g, K>, guard: &'g Guard) -> bool {
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
    /// to `parent` along the search path of `key`, plus the deleted leaf.
    fn retire_chain<'g>(
        &self,
        record: &SeekRecord<'g, K>,
        key: &K,
        sibling_dir: usize,
        guard: &'g Guard,
    ) {
        unsafe {
            let mut node = record.successor;
            // Walk the search path from successor to parent, retiring routing nodes.
            let mut hops = 0;
            while node.with_tag(0) != record.parent.with_tag(0) && hops < 64 {
                let node_ref = node.deref();
                let dir = Self::child_index(node_ref, key);
                let next = node_ref.child[dir].load(ORD, guard).with_tag(0);
                guard.defer_destroy(node.with_tag(0));
                if next.is_null() {
                    return;
                }
                node = next;
                hops += 1;
            }
            if node.with_tag(0) == record.parent.with_tag(0) {
                // Retire the parent routing node and the removed leaf (the
                // child on the non-surviving side).
                let removed =
                    record.parent.deref().child[1 - sibling_dir].load(ORD, guard).with_tag(0);
                if !removed.is_null() {
                    guard.defer_destroy(removed);
                }
                if record.parent.with_tag(0) != record.successor.with_tag(0) || hops == 0 {
                    guard.defer_destroy(record.parent.with_tag(0));
                }
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
                // A leaf.
                if let ExtKey::Key(k) = &n.key {
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
    /// A pruned in-order DFS over the external tree, identical in shape to
    /// `ellen_bst`'s: right child pushed before left for ascending pops,
    /// out-of-bounds subtrees pruned, early exit at `limit` — the bounded
    /// page primitive behind the chunked fallback cursor of
    /// [`cset::OrderedSet::scan_keys`].
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
                if let ExtKey::Key(k) = &n.key {
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

impl<K: Ord + Clone + Send + Sync> cset::OrderedMap<K, ()> for NatarajanBst<K> {
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

fn clone_ext_key<K>(key: &ExtKey<K>) -> ExtKey<K>
where
    K: Ord + Clone,
{
    match key {
        ExtKey::Key(k) => ExtKey::Key(k.clone()),
        ExtKey::Inf0 => ExtKey::Inf0,
        ExtKey::Inf1 => ExtKey::Inf1,
        ExtKey::Inf2 => ExtKey::Inf2,
    }
}

impl<K> Drop for NatarajanBst<K> {
    fn drop(&mut self) {
        let guard = unsafe { epoch::unprotected() };
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
impl<K: Ord + Clone + Send + Sync> ConcurrentMap<K, ()> for NatarajanBst<K> {
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
/// reporting, experiment E9).  An external tree needs `2n - 1` such nodes for
/// `n` keys.
pub fn node_size_bytes() -> usize {
    std::mem::size_of::<ExtNode<u64>>()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(t.iter_keys(), vec![3, 5, 8]);
        assert!(t.remove(&5));
        assert!(!t.remove(&5));
        assert_eq!(t.iter_keys(), vec![3, 8]);
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
        assert_eq!(t.iter_keys(), (0..400).collect::<Vec<_>>());
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
    fn concurrent_mixed_accounting() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let tree = Arc::new(NatarajanBst::new());
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
        assert_eq!(tree.iter_keys().len(), expected);
    }
}
