//! The interval-based scheme (2GE-style IBR).
//!
//! Epoch reclamation's failure mode is global: one stalled reader freezes the
//! epoch and **every** retirement after that accumulates.  Interval-based
//! reclamation (He/Wen et al., PPoPP 2018) makes the damage proportional to
//! the reader instead:
//!
//! * A global **era** counter advances on a retirement cadence.
//! * Every allocation is stamped with its **birth era** (the block header,
//!   see [`crate::block`]); every retirement stamps a **retire era**.  A
//!   node's lifespan is the interval `[birth, retire]`.
//! * A pinned thread publishes a **reservation** `[lo, hi]`: `lo` is fixed at
//!   pin time, `hi` grows as the thread performs protected loads
//!   ([`crate::ReclaimGuard::protect_load`] re-reads the era after each load
//!   and republishes `hi` until the load is covered).
//! * A retired node is freed once its lifespan overlaps **no** active
//!   reservation: free iff for every `[lo, hi]`, not
//!   (`birth <= hi && retire >= lo`).
//!
//! A stalled reader's `hi` stops growing, so it only pins nodes born before
//! its last protected load — garbage born *after* the stall is freed on the
//! normal cadence.  That is the property experiment E17 measures against the
//! epoch backend.
//!
//! ## Structure discipline
//!
//! The interval argument covers pointers loaded from cells of nodes that are
//! still *attached* (reachable) at load time: such a target cannot have been
//! retired before the load, so every collector scanning after its retirement
//! sees the reader's raised `hi` covering it.  Pointers read out of already
//! detached nodes carry no such guarantee: a detached node keeps pointing at
//! children that may have been born after the reader's `hi`, retired and
//! freed before the reader raised it.  Re-loading such a cell after the
//! raise returns the same freed pointer.  A traversal that can pass through
//! detached nodes must therefore restart from a root whenever its
//! reservation grows: [`crate::Atomic::try_load`] declines the word instead
//! of re-loading it.  The baseline trees traverse that way; `lfbst`'s
//! traversals still use the re-loading `load` (DESIGN.md §8).
//!
//! ## Bags and orphans
//!
//! This module holds only the scheme; the participant, guard, retire path
//! and counters are the shared skeleton in [`crate::domain`].  Retired nodes
//! go into per-thread bags, so any thread can run a *global* collect — the
//! [`crate::GarbageBound`] ladder depends on that to free garbage a stalled
//! or exited peer left behind.  Every fourth cadence collect is such a
//! global sweep, so the orphaned bags of exited threads drain on the pin
//! cadence too.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::bags::{Bag, Deferred};
use crate::domain::{Domain, Local, OwnLine, Scheme, Unprotected};
use crate::{block, Guard};

/// Reservation value meaning "this participant is not currently pinned".
const INACTIVE: u64 = u64::MAX;

/// Retirements between era advancements.  Smaller values give finer-grained
/// lifespans (less garbage pinned by a stalled reader) at the cost of more
/// era churn, and each era change costs every active reader one extra
/// republish-and-retry in its next protected load.
const RETIRES_PER_ERA: u64 = 64;

/// The interval scheme's clock.
pub struct Clock {
    /// The global era.  Starts at 1 so a zero birth stamp is visibly
    /// impossible.  Every pin and every protected load reads it, so it sits
    /// on its own pair of cache lines: a retirement's tick and counter bumps
    /// must not invalidate it.
    era: OwnLine<AtomicU64>,
    /// Retirement ticks driving the era cadence.
    retire_tick: AtomicU64,
}

/// The interval domain.
static IBR: Domain<Ibr> =
    Domain::new(Clock { era: OwnLine(AtomicU64::new(1)), retire_tick: AtomicU64::new(0) });

thread_local! {
    static LOCAL: Local<Ibr> = Local::register();
}

/// A pinned-reservation guard.
pub type IbrGuard = Guard<Ibr>;

/// The current era (birth stamp for new allocations; see [`crate::block`]).
pub(crate) fn current_era() -> u64 {
    IBR.clock.era.load(Ordering::Relaxed)
}

fn advance_era() {
    IBR.clock.era.fetch_add(1, Ordering::SeqCst);
    IBR.health.epoch_advances.fetch_add(1, Ordering::Relaxed);
}

/// One registered thread's reservation.  `lo == INACTIVE` means unpinned;
/// while pinned, `lo` is fixed and `hi` grows monotonically.
pub struct Reservation {
    lo: AtomicU64,
    hi: AtomicU64,
}

/// A retired node: its lifespan and the type-erased block destructor.
pub struct Retired {
    birth: u64,
    retire: u64,
    deferred: Deferred,
}

impl Bag for Vec<Retired> {
    type Item = Retired;
    type Now = ();

    fn push(&mut self, item: Retired) {
        Vec::push(self, item);
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }

    /// Frees every entry whose lifespan overlaps no active reservation (none
    /// if the registry was contended).
    fn collect(&mut self, (): ()) -> u64 {
        if self.is_empty() {
            return 0;
        }
        // Order the reservation snapshot after the retirements that queued
        // these items (their SeqCst era loads), matching the readers' pin
        // fences.  The snapshot is per bag for that reason.
        fence(Ordering::SeqCst);
        let reservations: Vec<(u64, u64)> = {
            let Some(slots) = IBR.try_slots() else { return 0 };
            slots
                .iter()
                .filter_map(|slot| {
                    let lo = slot.lo.load(Ordering::SeqCst);
                    // `hi` can move under us (unpin publishes INACTIVE =
                    // u64::MAX, repin a fresh era): every readable value is a
                    // superset of some instantaneous reservation, i.e. only
                    // conservative.
                    (lo != INACTIVE).then(|| (lo, slot.hi.load(Ordering::SeqCst)))
                })
                .collect()
        };
        let mut freed = 0;
        let mut i = 0;
        while i < self.len() {
            let n = &self[i];
            if reservations.iter().any(|&(lo, hi)| n.birth <= hi && n.retire >= lo) {
                i += 1;
            } else {
                // SAFETY: the node's lifespan overlaps no active reservation,
                // so no reader can still hold it (module docs).
                unsafe { self.swap_remove(i).deferred.run() };
                freed += 1;
            }
        }
        freed
    }
}

/// The interval-based backend as a [`crate::Reclaimer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ibr;

impl Scheme for Ibr {
    const NAME: &'static str = "ibr";
    const PINS_PER_COLLECT: u64 = 256;
    const BAG_HIGH_WATER: usize = 256;
    const CADENCE_SWEEPS_LIVE_BAGS: bool = true;

    type Clock = Clock;
    type Slot = Reservation;
    /// The published `hi`, so the protected-load fast path is one era load
    /// and a compare with no store.
    type Cache = Cell<u64>;
    type Bag = Vec<Retired>;

    fn domain() -> &'static Domain<Ibr> {
        &IBR
    }

    #[inline]
    fn with_local<R>(f: impl FnOnce(&Local<Ibr>) -> R) -> R {
        LOCAL.with(f)
    }

    fn unprotected_guard() -> &'static IbrGuard {
        static UNPROTECTED: Unprotected<Ibr> = Unprotected::GUARD;
        &UNPROTECTED.0
    }

    fn new_slot() -> Reservation {
        Reservation { lo: AtomicU64::new(INACTIVE), hi: AtomicU64::new(INACTIVE) }
    }

    fn publish(slot: &Reservation, hi_cache: &Cell<u64>) {
        // Publish the reservation, then re-check the era (the same
        // publication fence dance as the epoch scheme's pin).
        loop {
            let e = IBR.clock.era.load(Ordering::SeqCst);
            slot.lo.store(e, Ordering::SeqCst);
            slot.hi.store(e, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if IBR.clock.era.load(Ordering::SeqCst) == e {
                hi_cache.set(e);
                break;
            }
        }
    }

    fn clear(slot: &Reservation) {
        // `lo` is the collector's active gate; clear `hi` first so any torn
        // read is the conservative (INACTIVE = maximal) value.
        slot.hi.store(INACTIVE, Ordering::Release);
        slot.lo.store(INACTIVE, Ordering::Release);
    }

    /// The node's lifespan; every [`RETIRES_PER_ERA`]th retirement also
    /// advances the era.
    unsafe fn stamp<T>(raw: *mut T, deferred: Deferred) -> Retired {
        let birth = block::birth_of(raw);
        let retire = IBR.clock.era.load(Ordering::SeqCst);
        let t = IBR.clock.retire_tick.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        if t % RETIRES_PER_ERA == 0 {
            advance_era();
        }
        Retired { birth, retire, deferred }
    }

    /// Nothing: each bag snapshots the reservations itself.
    fn advance() {}

    /// Nudges the era forward so freshly retired garbage lands outside
    /// stalled reservations.
    fn escalate() {
        advance_era();
    }

    fn protect_load<F: FnMut() -> usize>(guard: &IbrGuard, mut load: F) -> usize {
        if !guard.protected {
            return load();
        }
        LOCAL.with(|local| loop {
            let word = load();
            let era = IBR.clock.era.load(Ordering::SeqCst);
            if era == local.cache.get() {
                // The era did not move across the load: the published
                // reservation covers the load's era, so the word carries a
                // dereference license.
                return word;
            }
            local.slot.hi.store(era, Ordering::SeqCst);
            local.cache.set(era);
            // Re-load under the extended reservation: the first read may have
            // caught a pointer born after the previously published `hi` that
            // a concurrent collect was entitled to free.
        })
    }

    fn try_protect_load<F: FnOnce() -> usize>(guard: &IbrGuard, load: F) -> Option<usize> {
        let word = load();
        if !guard.protected {
            return Some(word);
        }
        LOCAL.with(|local| {
            let era = IBR.clock.era.load(Ordering::SeqCst);
            if era == local.cache.get() {
                return Some(word);
            }
            // Extend for the restart, but do not hand out the word: its cell
            // may belong to a node unlinked before this extension.
            local.slot.hi.store(era, Ordering::SeqCst);
            local.cache.set(era);
            None
        })
    }

    fn protect_current_era(guard: &IbrGuard) {
        if !guard.protected {
            return;
        }
        LOCAL.with(|local| {
            let era = IBR.clock.era.load(Ordering::SeqCst);
            if era != local.cache.get() {
                local.slot.hi.store(era, Ordering::SeqCst);
                local.cache.set(era);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::NoteDrop;
    use crate::{Atomic, Owned, Reclaimer, Shared};
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    #[test]
    fn era_owns_its_cache_lines() {
        let addr = &IBR.clock.era as *const OwnLine<AtomicU64> as usize;
        assert_eq!(addr % 128, 0, "the era starts a 128-byte block");
        assert_eq!(std::mem::size_of::<OwnLine<AtomicU64>>(), 128, "and fills it");
    }

    /// One era-advancing churn round: retire filler under a short pin (a
    /// thread's own reservation covers its own retirements, so the pin must
    /// drop before anything it queued can free), then collect globally.
    fn churn_once() {
        {
            let guard = Ibr::pin();
            // Retirements advance the era; otherwise nothing ever moves.
            for _ in 0..RETIRES_PER_ERA {
                let p = Owned::new(0u8).into_shared(&guard);
                unsafe { guard.defer_destroy(p) };
            }
        }
        Ibr::collect();
    }

    /// Churn until `done` holds (or a generous cap, so a failure still
    /// terminates): a single round is not guaranteed to free anything.
    fn churn_until(done: impl Fn() -> bool) {
        for _ in 0..200 {
            if done() {
                return;
            }
            churn_once();
            std::thread::yield_now();
        }
    }

    #[test]
    fn stalled_reader_does_not_block_younger_garbage() {
        let _serial = crate::serial_test();
        use std::sync::mpsc;
        // A reader pins and stalls; a writer then allocates AND retires nodes
        // born after the reader's reservation.  Those must be freeable while
        // the reader is still stalled — the property EBR lacks.
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let a = Arc::new(Atomic::new(7u64));
        let reader = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let guard = Ibr::pin();
                let p = a.load(Ordering::SeqCst, &guard);
                ready_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                // The node loaded under the reservation stays readable.
                assert_eq!(unsafe { *p.deref() }, 7);
            })
        };
        ready_rx.recv().unwrap();

        let drops = Arc::new(StdAtomicUsize::new(0));
        // Force the era past the reader's frozen `hi` so the garbage below
        // is born strictly after its reservation.
        churn_once();
        churn_once();
        {
            let guard = Ibr::pin();
            for _ in 0..100 {
                let p = Owned::new(NoteDrop(Arc::clone(&drops))).into_shared(&guard);
                unsafe { guard.defer_destroy(p) };
            }
        }
        // Collect while the reader still stalls: every NoteDrop was born
        // after the reader's `hi`, so its reservation does not cover them.
        churn_until(|| drops.load(Ordering::SeqCst) == 100);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            100,
            "garbage born after the stalled reader's reservation must be freed"
        );
        done_tx.send(()).unwrap();
        reader.join().unwrap();
        let guard = Ibr::pin();
        unsafe { drop(a.load(Ordering::SeqCst, &guard).into_owned()) };
    }

    #[test]
    fn protected_node_survives_collection() {
        let _serial = crate::serial_test();
        use std::sync::mpsc;
        // The dual: a node loaded under the reader's reservation must NOT be
        // freed, however far the era advances.
        let a = Arc::new(Atomic::new(41u64));
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let reader = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let guard = Ibr::pin();
                let p = a.load(Ordering::SeqCst, &guard);
                ready_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                assert_eq!(unsafe { *p.deref() }, 41);
            })
        };
        ready_rx.recv().unwrap();
        {
            let guard = Ibr::pin();
            let old = a.load(Ordering::SeqCst, &guard);
            let new = Owned::new(42u64).into_shared(&guard);
            a.compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst, &guard).unwrap();
            unsafe { guard.defer_destroy(old) };
        }
        for _ in 0..8 {
            churn_once();
        }
        done_tx.send(()).unwrap();
        reader.join().unwrap();
        let guard = Ibr::pin();
        unsafe { drop(a.load(Ordering::SeqCst, &guard).into_owned()) };
    }

    /// The hazard `try_load` exists for.  A stalled reader holds node `x`.
    /// A writer then links a child born after the reader's `hi` into `x`,
    /// unlinks `x` and retires the child, and a collect frees it while `x`
    /// still points at it.  The reader's next load from `x` must be declined,
    /// not re-loaded: a re-load after extending `hi` returns the freed child.
    #[test]
    fn try_load_declines_a_cell_read_after_the_era_moved() {
        let _serial = crate::serial_test();
        use std::sync::mpsc;
        struct X {
            child: Atomic<NoteDrop>,
        }
        let root = Arc::new(Atomic::new(X { child: Atomic::null() }));
        let (ready_tx, ready_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let reader = {
            let root = Arc::clone(&root);
            std::thread::spawn(move || {
                let guard = Ibr::pin();
                let x = root.try_load(Ordering::SeqCst, &guard).expect("nothing moved yet");
                ready_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                let child = unsafe { x.deref() }.child.try_load(Ordering::SeqCst, &guard);
                assert!(child.is_none(), "a cell read after the era moved was handed out");
            })
        };
        ready_rx.recv().unwrap();
        churn_once();
        churn_once();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let x_raw = {
            let guard = Ibr::pin();
            let x = root.load(Ordering::SeqCst, &guard);
            let child = Owned::new(NoteDrop(Arc::clone(&drops))).into_shared(&guard);
            unsafe { x.deref() }.child.store(child, Ordering::SeqCst);
            // Unlink `x` (the reader still holds it), then retire the child
            // `x` still points at.
            root.store(Shared::null(), Ordering::SeqCst);
            unsafe { guard.defer_destroy(child) };
            x.as_raw()
        };
        churn_until(|| drops.load(Ordering::SeqCst) == 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "the young child was never freed");
        go_tx.send(()).unwrap();
        reader.join().unwrap();
        unsafe { drop(Shared::from(x_raw).into_owned()) };
    }

    #[test]
    fn garbage_bound_escalation_frees_under_pressure() {
        let _serial = crate::serial_test();
        // Install a small ceiling, retire well past it with no stalled
        // readers, and check the ladder both fired and recovered.
        let prev = crate::garbage_bound();
        crate::set_garbage_bound(crate::GarbageBound::nodes(64));
        let before = Ibr::stats();
        // Short pins: a thread's own reservation covers its own retirements,
        // so the ladder can only free garbage from already-dropped pins.
        for _ in 0..100 {
            let guard = Ibr::pin();
            for _ in 0..10 {
                let p = Owned::new([0u64; 4]).into_shared(&guard);
                unsafe { guard.defer_destroy(p) };
            }
            drop(guard);
        }
        crate::set_garbage_bound(prev);
        let delta = Ibr::stats().since(&before);
        assert!(delta.bound_trips >= 1, "ceiling never tripped: {delta:?}");
        assert!(delta.nodes_freed > 0, "escalation freed nothing: {delta:?}");
    }
}
