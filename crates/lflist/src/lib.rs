//! # lflist — lock-free ordered linked-list set (Harris / Fomitchev–Ruppert style)
//!
//! The paper builds its intuition on lock-free linked lists ("Add can be as
//! simple as that in a lock-free single linked-list \[11\]"): a threaded BST *is*
//! an ordered list with two incoming and two outgoing pointers per node.  This
//! crate provides the list itself, both as the conceptual substrate and as a
//! comparator for the evaluation at small key ranges, where a flat list with
//! `O(n)` searches can still beat trees thanks to its trivial memory layout.
//!
//! The implementation is the classic Harris algorithm: each node's `next`
//! pointer carries a *mark* bit (stolen low bit) that logically deletes the
//! node; traversals unlink marked nodes as they pass.  Memory reclamation uses
//! `crossbeam-epoch`, matching the other structures in this workspace.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam_epoch::{self as epoch, Atomic, Ebr, Owned, ReclaimGuard, Reclaimer, Shared};
use cset::{ConcurrentMap, KeyBound};

const MARK: usize = 1;
const ORD: Ordering = Ordering::SeqCst;

struct ListNode<K> {
    key: KeyBound<K>,
    next: Atomic<ListNode<K>>,
}

/// A lock-free sorted linked-list set (Harris's algorithm).
///
/// # Examples
///
/// ```
/// use lflist::LockFreeList;
///
/// let list = LockFreeList::new();
/// assert!(list.insert(2u64));
/// assert!(list.insert(1));
/// assert!(!list.insert(2));
/// assert!(list.contains(&1));
/// assert!(list.remove(&2));
/// assert_eq!(list.len(), 1);
/// ```
pub struct LockFreeList<K, R: Reclaimer = Ebr> {
    head: *mut ListNode<K>,
    size: AtomicUsize,
    reclaimer: std::marker::PhantomData<R>,
}

unsafe impl<K: Send + Sync, R: Reclaimer> Send for LockFreeList<K, R> {}
unsafe impl<K: Send + Sync, R: Reclaimer> Sync for LockFreeList<K, R> {}

impl<K, R: Reclaimer> fmt::Debug for LockFreeList<K, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockFreeList").field("len", &self.size.load(Ordering::Relaxed)).finish()
    }
}

impl<K: Ord, R: Reclaimer> Default for LockFreeList<K, R> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl<K: Ord> LockFreeList<K> {
    /// Creates an empty list (two permanent sentinel nodes) on the default
    /// epoch-based reclamation backend.
    pub fn new() -> Self {
        Self::new_in()
    }
}

impl<K: Ord, R: Reclaimer> LockFreeList<K, R> {
    /// Creates an empty list on reclamation backend `R` (see
    /// [`Reclaimer`]); `LockFreeList::new()` is the `R = Ebr` shorthand.
    pub fn new_in() -> Self {
        let tail = epoch::alloc_raw(ListNode { key: KeyBound::PosInf, next: Atomic::null() });
        let head = epoch::alloc_raw(ListNode { key: KeyBound::NegInf, next: Atomic::null() });
        unsafe {
            (*head).next.store(Shared::from(tail as *const ListNode<K>), ORD);
        }
        LockFreeList { head, size: AtomicUsize::new(0), reclaimer: std::marker::PhantomData }
    }

    fn head_shared<'g>(&self) -> Shared<'g, ListNode<K>> {
        Shared::from(self.head as *const ListNode<K>)
    }

    /// Number of keys currently stored (exact at quiescence).
    pub fn len(&self) -> usize {
        self.size.load(Ordering::Acquire)
    }

    /// Returns `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Harris `search`: returns adjacent `(pred, curr)` with
    /// `pred.key < key <= curr.key`, unlinking marked nodes on the way.
    fn search<'g>(
        &self,
        key: &K,
        guard: &'g R::Guard,
    ) -> (Shared<'g, ListNode<K>>, Shared<'g, ListNode<K>>) {
        'retry: loop {
            let mut pred = self.head_shared();
            let mut curr = unsafe { pred.deref() }.next.load(ORD, guard);
            loop {
                let curr_clean = curr.with_tag(0);
                let curr_ref = unsafe { curr_clean.deref() };
                let mut next = curr_ref.next.load(ORD, guard);
                // Unlink any marked nodes between pred and the first live node.
                let mut unlink_from = curr_clean;
                while next.tag() & MARK != 0 {
                    let next_clean = next.with_tag(0);
                    match unsafe { pred.deref() }.next.compare_exchange(
                        unlink_from,
                        next_clean,
                        ORD,
                        ORD,
                        guard,
                    ) {
                        Ok(_) => unsafe { guard.defer_destroy(unlink_from) },
                        Err(_) => continue 'retry,
                    }
                    unlink_from = next_clean;
                    next = unsafe { next_clean.deref() }.next.load(ORD, guard);
                }
                let live = unlink_from;
                let live_ref = unsafe { live.deref() };
                if live_ref.key.cmp_key(key) != std::cmp::Ordering::Less {
                    return (pred, live);
                }
                pred = live;
                curr = live_ref.next.load(ORD, guard);
            }
        }
    }

    /// Returns `true` if `key` is in the set.
    pub fn contains(&self, key: &K) -> bool {
        let guard = &R::pin();
        // Wait-free read-only traversal (no unlinking).
        let mut curr = unsafe { self.head_shared().deref() }.next.load(ORD, guard);
        loop {
            let node = unsafe { curr.with_tag(0).deref() };
            match node.key.cmp_key(key) {
                std::cmp::Ordering::Less => curr = node.next.load(ORD, guard),
                std::cmp::Ordering::Equal => {
                    return node.next.load(ORD, guard).tag() & MARK == 0;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
    }

    /// Inserts `key`; returns `true` if it was not present.
    pub fn insert(&self, key: K) -> bool {
        let guard = &R::pin();
        let mut node = Owned::new(ListNode { key: KeyBound::Key(key), next: Atomic::null() });
        loop {
            let key_ref = match &node.key {
                KeyBound::Key(k) => k,
                _ => unreachable!(),
            };
            let (pred, curr) = self.search(key_ref, guard);
            if unsafe { curr.deref() }.key.cmp_key(key_ref) == std::cmp::Ordering::Equal {
                return false;
            }
            node.next.store(curr, ORD);
            match unsafe { pred.deref() }.next.compare_exchange(curr, node, ORD, ORD, guard) {
                Ok(_) => {
                    self.size.fetch_add(1, Ordering::AcqRel);
                    return true;
                }
                Err(e) => node = e.new,
            }
        }
    }

    /// Removes `key`; returns `true` if it was present and this call removed it.
    pub fn remove(&self, key: &K) -> bool {
        let guard = &R::pin();
        loop {
            let (pred, curr) = self.search(key, guard);
            let curr_ref = unsafe { curr.deref() };
            if curr_ref.key.cmp_key(key) != std::cmp::Ordering::Equal {
                return false;
            }
            let next = curr_ref.next.load(ORD, guard);
            if next.tag() & MARK != 0 {
                // Already logically deleted by a racing remover; retry so the
                // search can clean it up and report absence.
                continue;
            }
            // Logical removal: mark the next pointer.
            if curr_ref.next.compare_exchange(next, next.with_tag(MARK), ORD, ORD, guard).is_err() {
                continue;
            }
            self.size.fetch_sub(1, Ordering::AcqRel);
            // Physical removal (best effort; search() cleans up on failure).
            if unsafe { pred.deref() }
                .next
                .compare_exchange(curr, next.with_tag(0), ORD, ORD, guard)
                .is_ok()
            {
                unsafe { guard.defer_destroy(curr) };
            }
            return true;
        }
    }

    /// Keys in ascending order (weakly consistent snapshot).
    pub fn iter_keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        let guard = &R::pin();
        let mut out = Vec::new();
        let mut curr = unsafe { self.head_shared().deref() }.next.load(ORD, guard);
        loop {
            let node = unsafe { curr.with_tag(0).deref() };
            match &node.key {
                KeyBound::PosInf => break,
                KeyBound::Key(k) => {
                    if node.next.load(ORD, guard).tag() & MARK == 0 {
                        out.push(k.clone());
                    }
                }
                KeyBound::NegInf => {}
            }
            curr = node.next.load(ORD, guard);
        }
        out
    }
}

impl<K, R: Reclaimer> Drop for LockFreeList<K, R> {
    fn drop(&mut self) {
        let guard = unsafe { R::unprotected() };
        unsafe {
            let mut curr = (*self.head).next.load(ORD, guard);
            while !curr.is_null() {
                let raw = curr.with_tag(0).as_raw() as *mut ListNode<K>;
                curr = (*raw).next.load(ORD, guard);
                drop(epoch::dealloc_raw(raw));
            }
            drop(epoch::dealloc_raw(self.head));
        }
    }
}

/// The Set ADT as a map with `()` values: the set face comes from `cset`'s
/// blanket impls.
impl<K: Ord + Send + Sync, R: Reclaimer> ConcurrentMap<K, ()> for LockFreeList<K, R> {
    fn insert(&self, key: K, (): ()) -> bool {
        LockFreeList::insert(self, key)
    }

    fn get(&self, key: &K) -> Option<()> {
        LockFreeList::contains(self, key).then_some(())
    }

    fn upsert(&self, key: K, (): ()) -> Option<()> {
        (!LockFreeList::insert(self, key)).then_some(())
    }

    fn remove(&self, key: &K) -> Option<()> {
        LockFreeList::remove(self, key).then_some(())
    }

    fn contains_key(&self, key: &K) -> bool {
        LockFreeList::contains(self, key)
    }

    fn len(&self) -> usize {
        LockFreeList::len(self)
    }

    fn name(&self) -> &'static str {
        "harris-list"
    }
}

/// Size in bytes of one list node for `u64` keys (footprint reporting, experiment E9).
pub fn node_size_bytes() -> usize {
    std::mem::size_of::<ListNode<u64>>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;
    use std::sync::Arc;

    #[test]
    fn sequential_lifecycle() {
        let l = LockFreeList::new();
        assert!(l.is_empty());
        assert!(l.insert(5u64));
        assert!(l.insert(1));
        assert!(l.insert(9));
        assert!(!l.insert(5));
        assert_eq!(l.iter_keys(), vec![1, 5, 9]);
        assert!(l.contains(&1));
        assert!(!l.contains(&2));
        assert!(l.remove(&5));
        assert!(!l.remove(&5));
        assert_eq!(l.len(), 2);
        assert_eq!(l.iter_keys(), vec![1, 9]);
    }

    #[test]
    fn remove_head_and_tail_elements() {
        let l = LockFreeList::new();
        for k in 0..10u64 {
            l.insert(k);
        }
        assert!(l.remove(&0));
        assert!(l.remove(&9));
        assert_eq!(l.iter_keys(), (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn string_keys() {
        let l = LockFreeList::new();
        assert!(l.insert("b".to_string()));
        assert!(l.insert("a".to_string()));
        assert_eq!(l.iter_keys(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn concurrent_mixed_accounting() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let list = Arc::new(LockFreeList::new());
        let range = 128u64;
        let balance = Arc::new((0..range).map(|_| AtomicI64::new(0)).collect::<Vec<_>>());
        let threads = 4;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let list = Arc::clone(&list);
                let balance = Arc::clone(&balance);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for _ in 0..20_000 {
                        let k = rng.gen_range(0..range);
                        if rng.gen_bool(0.5) {
                            if list.insert(k) {
                                balance[k as usize].fetch_add(1, Ordering::Relaxed);
                            }
                        } else if list.remove(&k) {
                            balance[k as usize].fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut expected = 0;
        for k in 0..range {
            let b = balance[k as usize].load(Ordering::Relaxed);
            assert!(b == 0 || b == 1);
            assert_eq!(list.contains(&k), b == 1);
            expected += b as usize;
        }
        assert_eq!(list.len(), expected);
        let keys = list.iter_keys();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys.len(), expected);
    }
}
