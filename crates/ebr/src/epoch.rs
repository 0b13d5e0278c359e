//! The epoch-based scheme (the crate's historical backend and the default).
//!
//! The classic three-epoch scheme (Fraser 2004):
//!
//! * A global epoch counter advances one step at a time.
//! * Every thread *pins* the current epoch before touching shared nodes
//!   (`Ebr::pin` returns a [`Guard`]; dropping the guard unpins).
//! * Retired nodes ([`Guard::defer_destroy`]) are stamped with the epoch at
//!   retirement and freed only once the global epoch has advanced **twice**
//!   past that stamp.  Advancing requires every pinned thread to have
//!   observed the current epoch, so two advancements form a grace period: no
//!   thread that could still hold a reference to the node remains pinned.
//!
//! A node retired at epoch `e` was unlinked from its structure before being
//! retired, therefore a thread that pins at epoch `e + 1` or later cannot
//! reach it, and threads pinned at `e` or earlier block both advancements.
//! Freeing at `e + 2` is safe.
//!
//! The known failure mode — one stalled reader freezes the global epoch and
//! garbage grows without bound — is what the [`crate::ibr`] scheme exists to
//! remove; here it is only *bounded* by the [`crate::GarbageBound`]
//! escalation ladder (which cannot free anything while the epoch is frozen,
//! but caps the cost of trying and counts the trips for observability).
//!
//! This module holds only the scheme; the participant, guard, retire path
//! and counters are the shared skeleton in [`crate::domain`].  Each thread
//! frees its own garbage on its pin cadence and at its bag's high-water
//! mark, and every fourth cadence collect also drains the orphaned bags of
//! exited threads; a global collect sweeps every bag.

use std::sync::atomic::{fence, AtomicUsize, Ordering};

use crate::bags::{Bag, Deferred};
use crate::domain::{Domain, Local, OwnLine, Scheme, Unprotected};
use crate::Guard;

/// Sentinel slot value meaning "this participant is not currently pinned".
const NOT_PINNED: usize = usize::MAX;

/// The epoch domain.  Its clock, the global epoch, advances only when every
/// pinned participant has observed the current value.  Every pin reads it
/// twice, so it sits on its own pair of cache lines: a retirement's counter
/// bump must not invalidate it.
static EBR: Domain<Ebr> = Domain::new(OwnLine(AtomicUsize::new(0)));

thread_local! {
    static LOCAL: Local<Ebr> = Local::register();
}

/// The current global epoch (diagnostic; free-running since process start).
pub fn global_epoch() -> usize {
    EBR.clock.load(Ordering::Relaxed)
}

/// One thread's retired nodes, stamped with the global epoch at retirement,
/// plus the smallest stamp present: a collection first checks the cached
/// minimum and returns in O(1) when no entry can be freed yet, so a burst of
/// retirements during a stalled epoch (pinned readers) does not degenerate
/// into an O(n) scan per retirement.
pub struct EpochBag {
    items: Vec<(usize, Deferred)>,
    min_stamp: usize,
}

impl Default for EpochBag {
    fn default() -> Self {
        EpochBag { items: Vec::new(), min_stamp: usize::MAX }
    }
}

impl Bag for EpochBag {
    type Item = (usize, Deferred);
    type Now = usize;

    fn push(&mut self, item: (usize, Deferred)) {
        self.min_stamp = self.min_stamp.min(item.0);
        self.items.push(item);
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    /// Frees every entry retired at least two epochs before `now`.
    fn collect(&mut self, now: usize) -> u64 {
        if self.min_stamp.saturating_add(2) > now {
            // Nothing is old enough yet: skip the scan entirely.
            EBR.health.min_stamp_skips.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        let mut new_min = usize::MAX;
        let mut freed = 0;
        let mut i = 0;
        while i < self.items.len() {
            if self.items[i].0 + 2 <= now {
                let (_, d) = self.items.swap_remove(i);
                // SAFETY: retired at least two epochs before `now`, so no
                // thread pinned then is still pinned (module docs).
                unsafe { d.run() };
                freed += 1;
            } else {
                new_min = new_min.min(self.items[i].0);
                i += 1;
            }
        }
        self.min_stamp = new_min;
        freed
    }
}

/// The epoch-based backend as a [`Reclaimer`](crate::Reclaimer) (the workspace default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ebr;

impl Scheme for Ebr {
    const NAME: &'static str = "ebr";

    /// Each cadence collect takes the registry lock (`try_lock`) and scans
    /// every slot.  256 keeps reclamation latency bounded by a few hundred
    /// pins while making the common pin a pure store + fence; the bag
    /// high-water mark still triggers eager collection under write bursts.
    const PINS_PER_COLLECT: u64 = 256;
    const BAG_HIGH_WATER: usize = 1024;
    const CADENCE_SWEEPS_LIVE_BAGS: bool = false;

    type Clock = OwnLine<AtomicUsize>;
    /// The epoch the thread is pinned at, or [`NOT_PINNED`].
    type Slot = AtomicUsize;
    type Cache = ();
    type Bag = EpochBag;

    fn domain() -> &'static Domain<Ebr> {
        &EBR
    }

    #[inline]
    fn with_local<R>(f: impl FnOnce(&Local<Ebr>) -> R) -> R {
        LOCAL.with(f)
    }

    fn unprotected_guard() -> &'static Guard {
        static UNPROTECTED: Unprotected<Ebr> = Unprotected::GUARD;
        &UNPROTECTED.0
    }

    fn new_slot() -> AtomicUsize {
        AtomicUsize::new(NOT_PINNED)
    }

    #[inline]
    fn publish(slot: &AtomicUsize, _: &()) {
        // Publish the epoch we claim to have observed, then re-check that it
        // is still current: if an advancement raced with the store, the stale
        // claim could otherwise let a second advancement free nodes this
        // thread is about to read.
        //
        // The store and the loads are relaxed; the SeqCst fence between them
        // is what matters.  It places the slot publication before the
        // re-check load in the fence total order, and the collector's SeqCst
        // slot scans order against the same fence — so a collector that
        // advances past this pin must have scanned the slot after the
        // publication (crossbeam's scheme).
        loop {
            let e = EBR.clock.load(Ordering::Relaxed);
            slot.store(e, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if EBR.clock.load(Ordering::Relaxed) == e {
                break;
            }
        }
    }

    #[inline]
    fn clear(slot: &AtomicUsize) {
        // Release: everything this thread read/wrote while pinned happens
        // before a collector that observes the slot as unpinned.
        slot.store(NOT_PINNED, Ordering::Release);
    }

    unsafe fn stamp<T>(_raw: *mut T, deferred: Deferred) -> (usize, Deferred) {
        (EBR.clock.load(Ordering::SeqCst), deferred)
    }

    /// Attempts one epoch advancement and returns the epoch after the
    /// attempt.  A contended registry skips the advance, so the caller never
    /// blocks on another thread's collection.
    fn advance() -> usize {
        let e = EBR.clock.load(Ordering::SeqCst);
        let can_advance = EBR.try_slots().is_some_and(|slots| {
            slots.iter().all(|s| {
                let st = s.load(Ordering::SeqCst);
                st == NOT_PINNED || st == e
            })
        });
        // A racing advance is fine; the epoch only needs to be monotonic.
        if can_advance
            && EBR.clock.compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst).is_ok()
        {
            EBR.health.epoch_advances.fetch_add(1, Ordering::Relaxed);
        }
        EBR.clock.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::NoteDrop;
    use crate::{Atomic, Owned, Reclaimer};
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    const PINS_PER_COLLECT: u64 = <Ebr as Scheme>::PINS_PER_COLLECT;

    #[test]
    fn global_epoch_owns_its_cache_lines() {
        let addr = &EBR.clock as *const OwnLine<AtomicUsize> as usize;
        assert_eq!(addr % 128, 0, "the global epoch starts a 128-byte block");
        assert_eq!(std::mem::size_of::<OwnLine<AtomicUsize>>(), 128, "and fills it");
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let _serial = crate::serial_test();
        use std::sync::mpsc;
        let a = Arc::new(Atomic::new(41u64));
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let reader = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let guard = Ebr::pin();
                let p = a.load(Ordering::SeqCst, &guard);
                ready_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                // The node must still be readable: the writer retired it while
                // this guard was live.
                assert_eq!(unsafe { *p.deref() }, 41);
            })
        };
        ready_rx.recv().unwrap();
        {
            let guard = Ebr::pin();
            let old = a.load(Ordering::SeqCst, &guard);
            let new = Owned::new(42u64).into_shared(&guard);
            a.compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst, &guard).unwrap();
            unsafe { guard.defer_destroy(old) };
        }
        for _ in 0..6 * PINS_PER_COLLECT {
            drop(Ebr::pin());
        }
        done_tx.send(()).unwrap();
        reader.join().unwrap();
        let guard = Ebr::pin();
        unsafe { drop(a.load(Ordering::SeqCst, &guard).into_owned()) };
    }

    /// No explicit collect: a live thread's own garbage drains on its pin
    /// cadence alone, through the cadence collect of its own bag (the
    /// every-fourth sweep here covers only orphans).
    #[test]
    fn own_garbage_drains_on_the_pin_cadence() {
        let _serial = crate::serial_test();
        let dropped = Arc::new(StdAtomicUsize::new(0));
        {
            let guard = Ebr::pin();
            // Fewer than the bag's high-water mark, so no eager collect.
            for _ in 0..100 {
                let p = Owned::new(NoteDrop(Arc::clone(&dropped))).into_shared(&guard);
                unsafe { guard.defer_destroy(p) };
            }
        }
        assert_eq!(dropped.load(Ordering::SeqCst), 0, "freed before two epoch advances");
        // Two cadence collects advance the epoch twice; the rest is margin
        // for a contended registry skipping an advance.
        for _ in 0..6 * PINS_PER_COLLECT {
            drop(Ebr::pin());
        }
        assert_eq!(dropped.load(Ordering::SeqCst), 100, "own garbage never drained");
    }

    /// No explicit collect: the surviving thread's pin cadence alone must
    /// drain the bag an exited thread left behind.  The test counts its own
    /// nodes: the orphan sweep also frees whatever earlier tests' exited
    /// threads left, so the process-global counters cannot pin it down.
    #[test]
    fn orphaned_garbage_drains_on_the_pin_cadence() {
        let _serial = crate::serial_test();
        let dropped = Arc::new(StdAtomicUsize::new(0));
        {
            let dropped = Arc::clone(&dropped);
            std::thread::spawn(move || {
                let guard = Ebr::pin();
                for _ in 0..100 {
                    let p = Owned::new(NoteDrop(Arc::clone(&dropped))).into_shared(&guard);
                    unsafe { guard.defer_destroy(p) };
                }
            })
            .join()
            .unwrap();
        }
        assert_eq!(dropped.load(Ordering::SeqCst), 0, "freed before the thread exited");
        for _ in 0..12 * PINS_PER_COLLECT {
            drop(Ebr::pin());
        }
        assert_eq!(dropped.load(Ordering::SeqCst), 100, "orphaned garbage never drained");
    }
}
