//! Per-thread retire bags and the double-retire audit, shared by both
//! backends.
//!
//! Every participating thread owns one bag behind its own mutex, registered
//! in its backend's [`BagList`] so any thread can run a *global* sweep — the
//! [`crate::GarbageBound`] ladder depends on that to free garbage a stalled
//! or exited peer left behind.  The owner never waits: it pushes with
//! `try_lock`, and when a sweep holds its bag the node goes to a
//! thread-local spill `Vec` that the next push drains.  A thread that exits
//! leaves its bag in the list as an orphan; sweeps drain it and drop it once
//! empty.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use crate::block;

/// A type-erased deferred destruction of a reclaimable block.
pub struct Deferred {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
}

// SAFETY: `ptr` is the only handle to a retired block (it was unlinked
// before retirement) and `drop_fn` is a plain function pointer; `run` consumes
// the item, so whichever thread runs it frees the block exactly once.
unsafe impl Send for Deferred {}

impl Deferred {
    /// Wraps the block behind `raw` for later destruction.
    ///
    /// Double-retire audit: a node retired twice would sit in a bag twice and
    /// be freed twice — silent UB whose crash surfaces arbitrarily far from
    /// the bug.  In debug builds (and release builds with the `retire-audit`
    /// feature) every pending pointer is kept in one set, and a second
    /// retirement panics here, at the offending call site, before anything
    /// is queued twice.
    pub(crate) fn new<T>(raw: *mut T, backend: &str) -> Deferred {
        #[cfg(any(feature = "retire-audit", debug_assertions))]
        if !audit::insert(raw.cast()) {
            panic!(
                "{backend}: double retire of {raw:p} — the node is already queued for \
                 reclamation, so a second `defer_destroy` would double-free it"
            );
        }
        let _ = backend;
        Deferred { ptr: raw.cast(), drop_fn: block::drop_block_erased::<T> }
    }

    /// Runs the destructor and frees the block.
    ///
    /// # Safety
    ///
    /// No thread may still hold a reference to the block.
    pub(crate) unsafe fn run(self) {
        // Leave the audit set before the block is freed: once it is, the
        // allocator may hand the address to a fresh node whose retirement
        // must not look like a duplicate.
        #[cfg(any(feature = "retire-audit", debug_assertions))]
        audit::remove(self.ptr);
        // SAFETY: `drop_fn` is the erased destructor for the block type `ptr`
        // was created with, and the caller guarantees no reader is left.
        unsafe { (self.drop_fn)(self.ptr) }
    }
}

#[cfg(any(feature = "retire-audit", debug_assertions))]
mod audit {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, PoisonError};

    /// Every pointer queued for reclamation and not yet freed, over all bags
    /// of both backends.
    static PENDING: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());

    /// Records `ptr` as pending; `false` if it already was.
    pub(super) fn insert(ptr: *mut u8) -> bool {
        PENDING.lock().unwrap_or_else(PoisonError::into_inner).insert(ptr as usize)
    }

    pub(super) fn remove(ptr: *mut u8) {
        PENDING.lock().unwrap_or_else(PoisonError::into_inner).remove(&(ptr as usize));
    }
}

/// What a scheme keeps in one thread's bag, and when it may free it.
pub trait Bag: Default + Send + 'static {
    /// One retired node with the scheme's reclamation stamps.
    type Item;

    /// What the collect predicate compares stamps against (see
    /// `Scheme::advance`).
    type Now: Copy;

    /// Queues one retirement.
    fn push(&mut self, item: Self::Item);

    /// Queued retirements.
    fn len(&self) -> usize;

    /// Frees every item no reader can still reach and returns how many.
    fn collect(&mut self, now: Self::Now) -> u64;
}

/// Every live and orphaned bag of one backend.
pub(crate) struct BagList<B>(Mutex<Vec<Arc<Mutex<B>>>>);

impl<B: Bag> BagList<B> {
    pub(crate) const fn new() -> Self {
        BagList(Mutex::new(Vec::new()))
    }

    /// Registers a fresh bag for the calling thread.
    pub(crate) fn register(&self) -> OwnBag<B> {
        let bag = Arc::new(Mutex::new(B::default()));
        // A destructor that panicked inside a sweep poisons the list, but
        // `retain` leaves the `Vec` valid at every step.
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(Arc::clone(&bag));
        OwnBag { bag, spill: RefCell::new(Vec::new()) }
    }

    /// Runs `collect` on every bag, orphans included, and prunes empty
    /// orphans.  Non-blocking throughout: a contended list or bag is skipped,
    /// not waited on.
    pub(crate) fn sweep(&self, collect: impl FnMut(&mut B)) {
        self.sweep_bags(true, collect);
    }

    /// [`sweep`](Self::sweep) restricted to the orphans of exited threads:
    /// live bags are left to their owners.
    pub(crate) fn sweep_orphans(&self, collect: impl FnMut(&mut B)) {
        self.sweep_bags(false, collect);
    }

    fn sweep_bags(&self, live_too: bool, mut collect: impl FnMut(&mut B)) {
        let Ok(mut bags) = self.0.try_lock() else { return };
        bags.retain(|bag| {
            // The owner's handle is the only other one, so a count of one
            // means its thread is gone.
            let orphan = Arc::strong_count(bag) == 1;
            if !(orphan || live_too) {
                return true;
            }
            let Ok(mut b) = bag.try_lock() else { return true };
            collect(&mut b);
            // An empty orphan has nothing more to deliver.
            !(orphan && b.len() == 0)
        });
    }
}

/// The calling thread's handle on its own bag.
pub(crate) struct OwnBag<B: Bag> {
    bag: Arc<Mutex<B>>,
    /// Retirements that found the bag held by a sweep; moved in by the next
    /// push or collect that gets the lock.
    spill: RefCell<Vec<B::Item>>,
}

impl<B: Bag> OwnBag<B> {
    /// The bag, unless a sweep holds it right now.
    fn try_lock(&self) -> Option<MutexGuard<'_, B>> {
        match self.bag.try_lock() {
            Ok(mut bag) => {
                for item in self.spill.borrow_mut().drain(..) {
                    bag.push(item);
                }
                Some(bag)
            }
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(_)) => panic!("retire bag poisoned"),
        }
    }

    /// Queues `item` without waiting on any lock and returns how many of
    /// this thread's retirements are queued where it put it.
    pub(crate) fn push(&self, item: B::Item) -> usize {
        match self.try_lock() {
            Some(mut bag) => {
                bag.push(item);
                bag.len()
            }
            None => {
                let mut spill = self.spill.borrow_mut();
                spill.push(item);
                spill.len()
            }
        }
    }

    /// This thread's queued retirements (0 while a sweep holds the bag).
    pub(crate) fn len(&self) -> usize {
        self.try_lock().map_or(0, |bag| bag.len())
    }

    /// Runs `collect` on this thread's bag, unless a sweep holds it (the
    /// sweep is collecting it anyway).
    pub(crate) fn collect(&self, collect: impl FnOnce(&mut B)) {
        if let Some(mut bag) = self.try_lock() {
            collect(&mut bag);
        }
    }
}

impl<B: Bag> Drop for OwnBag<B> {
    fn drop(&mut self) {
        // Thread exit: hand the spill to the bag, which stays in the list as
        // an orphan for sweeps to drain.
        let spill = self.spill.get_mut();
        if !spill.is_empty() {
            let mut bag = self.bag.lock().unwrap_or_else(PoisonError::into_inner);
            for item in spill.drain(..) {
                bag.push(item);
            }
        }
    }
}

/// Raises the high-water mark `hwm` to `depth`.  Loads first: an
/// unconditional `fetch_max` takes the shared line exclusive on every call.
pub(crate) fn raise_hwm(hwm: &AtomicU64, depth: u64) {
    if depth > hwm.load(Ordering::Relaxed) {
        hwm.fetch_max(depth, Ordering::Relaxed);
    }
}
