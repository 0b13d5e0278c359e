//! # ebr — pluggable lock-free memory reclamation
//!
//! A self-contained reclamation crate.  It keeps the `crossbeam-epoch`
//! pointer names the workspace was written against (`Atomic`, `Shared`,
//! `Owned`, `Guard`; the workspace maps the dependency name
//! `crossbeam-epoch` onto this crate, see the root `Cargo.toml`) and grows
//! them into *pluggable* schemes:
//!
//! * the [`Reclaimer`] / [`ReclaimGuard`] trait pair abstracts
//!   pin/retire/flush/collect/stats, so data structures are generic over the
//!   backend; it is the one way to pin (`R::pin()`, `R::unprotected()`);
//! * [`Ebr`] is the epoch-based backend and the default — the [`Guard`] type
//!   defaults to it, and [`global_epoch`] reads its clock;
//! * [`Ibr`] is an interval-based backend: per-node birth/retire era stamps
//!   and per-thread reservations mean a stalled reader only pins garbage
//!   retired *inside* its reservation, instead of freezing reclamation
//!   globally;
//! * [`GarbageBound`] is a process-global garbage ceiling with a writer-side
//!   escalation ladder, shared by both backends.
//!
//! Both backends run on one skeleton (module `domain`): the health counters,
//! the participant registry and per-thread pin state, the guard with its
//! retire path, batch window and garbage-bound settle, and the [`Reclaimer`]
//! impl are written once.  Each scheme (modules `epoch` and `ibr`) supplies
//! only its protection rule: what a pin publishes, how a retirement is
//! stamped, when a stamped node may be freed, and its cadence constants.
//! Each scheme keeps its own counters, so [`Reclaimer::stats`] never mixes
//! the two.
//!
//! Every reclaimable allocation shares one heap layout: a birth-era header
//! in front of the value.  Pointers from [`Owned::new`], [`Atomic::new`],
//! and [`alloc_raw`] are interchangeable across backends; pointers from a
//! bare `Box` are **not** — a bare `Box::into_raw` pointer must never reach
//! `defer_destroy`, `into_owned`, or [`dealloc_raw`].
//!
//! [`Shared`] packs a tag into the low bits of the pointer (as many bits as
//! the pointee's alignment leaves free), which the lock-free structures use
//! for link-level flag/mark/thread bits.

#![warn(missing_docs)]

mod bags;
mod block;
mod bound;
mod domain;
mod epoch;
mod ibr;
mod ptr;

pub use block::{alloc_raw, dealloc_raw};
pub use bound::{garbage_bound, set_garbage_bound, GarbageBound};
pub use domain::Guard;
pub use epoch::{global_epoch, Ebr};
pub use ibr::{Ibr, IbrGuard};
pub use ptr::{Atomic, CompareExchangeError, Owned, Pointer, Shared};

/// A pinned guard of some reclamation backend.
///
/// The methods mirror what the workspace's structures need from a guard;
/// [`Guard`] implements them for every backend ([`IbrGuard`] is the interval
/// backend's).  The two `protect_*` hooks exist for the interval backend and
/// compile to plain loads / nothing under the epoch backend — see the pointer
/// layer for where they are called.
pub trait ReclaimGuard: Sized + 'static {
    /// Retires the node behind `ptr`: its destructor runs once no reader can
    /// still hold a reference.
    ///
    /// # Safety
    ///
    /// `ptr` must have come from a block-aware constructor in this crate
    /// ([`Owned::new`], [`Atomic::new`], [`alloc_raw`]), must already be
    /// unreachable for threads that pin after this call, and must not be
    /// retired twice.
    unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>);

    /// Forces a collection attempt (best effort, non-blocking), including
    /// garbage other threads retired.
    fn flush(&self);

    /// Momentarily unpins and re-pins so reclamation can progress while a
    /// long-lived guard is held.  Any `Shared` pointers loaded before the
    /// call must not be dereferenced afterwards.
    fn repin(&mut self);

    /// Performs `load` under the backend's protection protocol and returns
    /// the loaded word with a dereference license attached.
    ///
    /// The backend may call `load` more than once (the interval backend
    /// retries until its reservation covers the load's era); `load` must be
    /// a plain re-loadable read with no side effects.
    fn protect_load<F: FnMut() -> usize>(&self, load: F) -> usize;

    /// Performs `load` once and returns the word only if the reservation
    /// already covers the load's era.  Otherwise it extends the reservation
    /// and returns `None`: the caller drops every pointer it loaded since it
    /// last started from a root, and starts again from one.
    ///
    /// [`protect_load`](Self::protect_load)'s re-load suffices for a cell of
    /// a linked node.  An unlinked node's cell keeps naming children that a
    /// collect may have freed before the extension, so traversals that pass
    /// through unlinked nodes use this hook.  The epoch backend always
    /// returns `Some`.
    fn try_protect_load<F: FnOnce() -> usize>(&self, load: F) -> Option<usize>;

    /// Runs `f` as one batch-retire window: every `defer_destroy` issued on
    /// this thread inside `f` skips the per-retirement [`GarbageBound`]
    /// check and high-water collection attempt, and the window settles
    /// **once** when `f` returns — a single collect-if-over-high-water plus a
    /// single bound-enforcement ladder for the whole batch, instead of one
    /// per node.
    ///
    /// Bulk mutations (range deletes, eviction sweeps) retire hundreds of
    /// nodes per guard window; without batching, each retirement over the
    /// ceiling pays a futile ladder of its own even though no collection can
    /// succeed until the batch's own guard repins.  Windows nest (the
    /// outermost settles), panics in `f` restore per-retirement enforcement,
    /// and the default implementation is a plain call for backends without a
    /// deferral notion.
    fn retire_batch<T, F: FnOnce() -> T>(&self, f: F) -> T {
        f()
    }

    /// Extends the backend's reservation over the current era, so an
    /// allocation born moments ago may be dereferenced through this guard.
    /// Called on the paths that publish fresh allocations.
    fn protect_current_era(&self);
}

/// A reclamation backend, usable as a type parameter on the workspace's
/// lock-free structures (e.g. `LfBst<K, V, R: Reclaimer>`).
///
/// Implementations are zero-sized markers ([`Ebr`], [`Ibr`]); all state is
/// process-global and per-thread inside the backend, and no two backends
/// share any of it.
pub trait Reclaimer: Copy + Default + Send + Sync + 'static {
    /// The backend's guard type.
    type Guard: ReclaimGuard;

    /// Short backend name for reports and experiment labels.
    const NAME: &'static str;

    /// Pins the current thread and returns a guard.
    fn pin() -> Self::Guard;

    /// Returns the backend's dummy guard for exclusive-access contexts
    /// (constructors and destructors); deferred destructions run immediately.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that no other thread is accessing the data
    /// structure concurrently.
    unsafe fn unprotected() -> &'static Self::Guard;

    /// Forces a global collection attempt (best effort, non-blocking).
    fn collect();

    /// Reads the backend's reclamation health counters.
    fn stats() -> ReclamationStats;

    /// Resets [`ReclamationStats::bag_depth_hwm`] to the *current* pending
    /// depth, so a subsequent snapshot reports the peak of one run rather
    /// than the peak since process start.
    fn reset_bag_depth_hwm();
}

/// A point-in-time reading of a backend's reclamation health counters.
///
/// The counters are process-global and monotone (free-running since process
/// start); consumers that want per-run numbers subtract two snapshots with
/// [`since`](ReclamationStats::since).  Exact at quiescence; under concurrent
/// activity each field is individually accurate but the set is not a single
/// atomic cut — fine for health reporting.
///
/// One schema serves both backends: for [`Ibr`], `epoch_advances` counts era
/// advancements and `min_stamp_skips` is always 0 (interval collection has no
/// min-stamp fast path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReclamationStats {
    /// Successful global epoch (or era) advancements.
    pub epoch_advances: u64,
    /// Nodes retired into a garbage bag (`defer_destroy` under a real pin).
    pub nodes_retired: u64,
    /// Retired nodes actually freed.
    pub nodes_freed: u64,
    /// Bag scans skipped because the cached minimum stamp proved nothing was
    /// old enough (the O(1) fast path of the epoch backend's collect).  One
    /// per bag: a global sweep over several bags can add several.
    pub min_stamp_skips: u64,
    /// Explicit guard repins.
    pub repins: u64,
    /// Peak retired-but-not-yet-freed node count observed at retirement
    /// time.  Monotone until explicitly lowered with
    /// [`Reclaimer::reset_bag_depth_hwm`]; adversarial runs read this — the
    /// peak, not the instantaneous depth, is what a stalled reader damages.
    pub bag_depth_hwm: u64,
    /// Retirements that found the pending depth over the configured
    /// [`GarbageBound`].
    pub bound_trips: u64,
    /// Yield-then-collect escalation rounds spent while over the bound (the
    /// ladder's step 3).
    pub bound_escalations: u64,
}

impl ReclamationStats {
    /// Retired-but-not-yet-freed node count — the garbage-bag depth implied
    /// by this snapshot.
    pub fn bag_depth(&self) -> u64 {
        self.nodes_retired.saturating_sub(self.nodes_freed)
    }

    /// Field-wise difference `self - earlier` (both from the same backend's
    /// stats reader), for per-run deltas.
    ///
    /// `bag_depth_hwm` is a level, not a counter: the later snapshot's value
    /// is reported as-is (pair with [`Reclaimer::reset_bag_depth_hwm`] at
    /// run start for a per-run peak).
    pub fn since(&self, earlier: &ReclamationStats) -> ReclamationStats {
        ReclamationStats {
            epoch_advances: self.epoch_advances.wrapping_sub(earlier.epoch_advances),
            nodes_retired: self.nodes_retired.wrapping_sub(earlier.nodes_retired),
            nodes_freed: self.nodes_freed.wrapping_sub(earlier.nodes_freed),
            min_stamp_skips: self.min_stamp_skips.wrapping_sub(earlier.min_stamp_skips),
            repins: self.repins.wrapping_sub(earlier.repins),
            bag_depth_hwm: self.bag_depth_hwm,
            bound_trips: self.bound_trips.wrapping_sub(earlier.bound_trips),
            bound_escalations: self.bound_escalations.wrapping_sub(earlier.bound_escalations),
        }
    }
}

/// Serializes the unit tests that pin, retire, or read and set the
/// process-global reclamation state.  A sibling test's live pin stalls epoch
/// advancement, and its retirements move the shared counters, so such tests
/// must not overlap under the parallel test runner.
#[cfg(test)]
pub(crate) fn serial_test() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the unit value it guards is always valid.
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Counts its own drops, so a test measures exactly its own nodes rather
    /// than the process-global counters other tests' garbage also moves.
    pub(crate) struct NoteDrop(pub(crate) Arc<AtomicUsize>);

    impl Drop for NoteDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Retires one `NoteDrop` counting into `dropped`.
    fn retire_note<G: ReclaimGuard>(guard: &G, dropped: &Arc<AtomicUsize>) {
        let p = Owned::new(NoteDrop(Arc::clone(dropped))).into_shared(guard);
        unsafe { guard.defer_destroy(p) };
    }

    /// Unpinned global collects until `done` holds.  Re-pinning between
    /// collects lets the epoch advance until every bag drains; the loop is
    /// capped so a stuck backend fails instead of hanging.
    fn collect_until<R: Reclaimer>(done: impl Fn() -> bool) {
        for _ in 0..256 {
            if done() {
                return;
            }
            drop(R::pin());
            R::collect();
        }
    }

    /// Each generic test below runs once per backend, serialized on the
    /// crate's shared reclamation state.
    macro_rules! under_both_backends {
        ($($(#[$attr:meta])* $test:ident => $ebr:ident, $ibr:ident;)*) => {$(
            $(#[$attr])*
            #[test]
            fn $ebr() {
                let _serial = crate::serial_test();
                $test::<Ebr>();
            }

            $(#[$attr])*
            #[test]
            fn $ibr() {
                let _serial = crate::serial_test();
                $test::<Ibr>();
            }
        )*};
    }

    under_both_backends! {
        pointer_ops_roundtrip => pointer_ops_roundtrip_under_ebr, pointer_ops_roundtrip_under_ibr;
        non_node_allocations_run_real_destructors =>
            non_node_allocations_run_real_destructors_under_ebr,
            non_node_allocations_run_real_destructors_under_ibr;
        retire_batch_frees_and_survives_panic =>
            retire_batch_frees_and_survives_panic_under_ebr,
            retire_batch_frees_and_survives_panic_under_ibr;
        exited_thread_garbage_is_freed_by_a_global_collect =>
            exited_thread_garbage_is_freed_by_a_global_collect_under_ebr,
            exited_thread_garbage_is_freed_by_a_global_collect_under_ibr;
        unprotected_defer_runs_immediately =>
            unprotected_defer_runs_immediately_under_ebr,
            unprotected_defer_runs_immediately_under_ibr;
        deferred_destruction_eventually_runs =>
            deferred_destruction_eventually_runs_under_ebr,
            deferred_destruction_eventually_runs_under_ibr;
        stats_track_retire_free_cycle =>
            stats_track_retire_free_cycle_under_ebr,
            stats_track_retire_free_cycle_under_ibr;
        #[cfg(any(feature = "retire-audit", debug_assertions))]
        double_retire_panics_under_audit =>
            double_retire_panics_under_audit_under_ebr,
            double_retire_panics_under_audit_under_ibr;
        concurrent_churn_is_safe => concurrent_churn_is_safe_under_ebr, concurrent_churn_is_safe_under_ibr;
    }

    /// The pointer-layer battery, run through the trait boundary only — what
    /// a generic structure sees.
    fn pointer_ops_roundtrip<R: Reclaimer>() {
        let guard = R::pin();
        let p = Owned::new(7u64).into_shared(&guard);
        assert_eq!(p.tag(), 0);
        let t = p.with_tag(0b101);
        assert_eq!(t.tag(), 0b101);
        assert_eq!(t.as_raw(), p.as_raw());
        assert_eq!(t.with_tag(0), p);
        assert_eq!(unsafe { *t.deref() }, 7);
        unsafe { drop(t.with_tag(0).into_owned()) };

        let s: Shared<'_, u64> = Shared::null();
        assert!(s.is_null());
        assert_eq!(s.tag(), 0);
        let a: Atomic<u64> = Atomic::null();
        assert!(a.load(Ordering::SeqCst, &guard).is_null());

        let one = Owned::new(1u64).into_shared(&guard);
        let two = Owned::new(2u64).into_shared(&guard);
        assert!(a
            .compare_exchange(Shared::null(), one, Ordering::SeqCst, Ordering::SeqCst, &guard)
            .is_ok());
        let err = a
            .compare_exchange(Shared::null(), two, Ordering::SeqCst, Ordering::SeqCst, &guard)
            .unwrap_err();
        assert_eq!(err.current, one);
        let prev = a.fetch_or(0b10, Ordering::SeqCst, &guard);
        assert_eq!(prev.tag(), 0);
        assert_eq!(a.load(Ordering::SeqCst, &guard).tag(), 0b10);
        let swapped = a.swap(Shared::null(), Ordering::SeqCst, &guard);
        assert_eq!(swapped.with_tag(0), one);
        unsafe {
            drop(two.into_owned());
            drop(swapped.with_tag(0).into_owned());
        }
        R::collect();
        let _ = R::stats();
    }

    /// The sharding layer retires whole routing tables — `Vec`-holding
    /// structs, not tree nodes — through `defer_destroy` under a real pin.
    /// The bag must run their genuine destructors (dropping the `Vec` and
    /// every `Arc` inside), not just free the outer allocation.
    fn non_node_allocations_run_real_destructors<R: Reclaimer>() {
        struct FakeTable {
            _strips: Vec<Arc<u64>>,
            alive: Arc<AtomicUsize>,
        }
        impl Drop for FakeTable {
            fn drop(&mut self) {
                self.alive.fetch_sub(1, Ordering::SeqCst);
            }
        }

        let alive = Arc::new(AtomicUsize::new(0));
        let payload = Arc::new(7u64);
        for _ in 0..16 {
            alive.fetch_add(1, Ordering::SeqCst);
            let guard = R::pin();
            let table =
                FakeTable { _strips: vec![Arc::clone(&payload); 8], alive: Arc::clone(&alive) };
            let p = Owned::new(table).into_shared(&guard);
            unsafe { guard.defer_destroy(p) };
        }
        collect_until::<R>(|| alive.load(Ordering::SeqCst) == 0);
        assert_eq!(alive.load(Ordering::SeqCst), 0, "{}: a retired table never dropped", R::NAME);
        assert_eq!(
            Arc::strong_count(&payload),
            1,
            "{}: table destructors did not release their strip handles",
            R::NAME
        );
    }

    /// Batch retirement must still free everything (the window defers
    /// *enforcement*, never the retirement itself), survive nesting, and a
    /// panic inside the window must not leave the thread stuck in deferral.
    fn retire_batch_frees_and_survives_panic<R: Reclaimer>() {
        let dropped = Arc::new(AtomicUsize::new(0));
        {
            let guard = R::pin();
            guard.retire_batch(|| {
                // Nested window: the inner close must not settle for the outer.
                guard.retire_batch(|| {
                    for _ in 0..8 {
                        retire_note(&guard, &dropped);
                    }
                });
                for _ in 0..8 {
                    retire_note(&guard, &dropped);
                }
            });
        }
        collect_until::<R>(|| dropped.load(Ordering::SeqCst) == 16);
        assert_eq!(dropped.load(Ordering::SeqCst), 16, "{}: batch retirements lost", R::NAME);

        // A panicking batch must restore per-retirement enforcement: the
        // window's RAII close runs during unwinding, so a later retirement
        // (and a later batch) behaves normally instead of deferring forever.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let guard = R::pin();
            guard.retire_batch(|| panic!("mid-batch panic"));
        }));
        assert!(caught.is_err());
        let guard = R::pin();
        retire_note(&guard, &dropped);
        guard.retire_batch(|| {});
        drop(guard);
        R::collect();
    }

    /// A thread that retires and exits leaves its garbage in an orphaned bag;
    /// only a global collect from another thread can free it.
    fn exited_thread_garbage_is_freed_by_a_global_collect<R: Reclaimer>() {
        // Fewer retirements than either backend's pin cadence or bag
        // high-water mark, so the thread never collects its own bag.
        const N: usize = 100;
        let dropped = Arc::new(AtomicUsize::new(0));
        {
            let dropped = Arc::clone(&dropped);
            std::thread::spawn(move || {
                for _ in 0..N {
                    retire_note(&R::pin(), &dropped);
                }
            })
            .join()
            .unwrap();
        }
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            0,
            "{}: freed before the thread exited",
            R::NAME
        );
        collect_until::<R>(|| dropped.load(Ordering::SeqCst) == N);
        assert_eq!(dropped.load(Ordering::SeqCst), N, "{}: orphaned garbage never freed", R::NAME);
    }

    fn unprotected_defer_runs_immediately<R: Reclaimer>() {
        let dropped = Arc::new(AtomicUsize::new(0));
        retire_note(unsafe { R::unprotected() }, &dropped);
        assert_eq!(dropped.load(Ordering::SeqCst), 1, "{}", R::NAME);
    }

    fn deferred_destruction_eventually_runs<R: Reclaimer>() {
        let dropped = Arc::new(AtomicUsize::new(0));
        {
            let guard = R::pin();
            retire_note(&guard, &dropped);
            // Still pinned: the retiring thread's own pin covers the node,
            // so even a global collect must not free it yet.
            guard.flush();
            assert_eq!(dropped.load(Ordering::SeqCst), 0, "{}: freed under a pin", R::NAME);
        }
        collect_until::<R>(|| dropped.load(Ordering::SeqCst) == 1);
        assert_eq!(dropped.load(Ordering::SeqCst), 1, "{}: never freed", R::NAME);
    }

    fn stats_track_retire_free_cycle<R: Reclaimer>() {
        // Counters are process-global and the orphan sweeps free other tests'
        // leftovers, so assert on deltas and lower bounds only.  More than
        // 64 retirements (the interval scheme's era cadence) in a row make
        // the interval scheme's era advance at least once.
        const N: usize = 100;
        let before = R::stats();
        let dropped = Arc::new(AtomicUsize::new(0));
        {
            let guard = R::pin();
            for _ in 0..N {
                retire_note(&guard, &dropped);
            }
        }
        collect_until::<R>(|| dropped.load(Ordering::SeqCst) == N);
        assert_eq!(dropped.load(Ordering::SeqCst), N, "{}: never drained", R::NAME);
        let mut guard = R::pin();
        guard.repin();
        drop(guard);
        let delta = R::stats().since(&before);
        assert!(delta.nodes_retired >= N as u64, "retired: {delta:?}");
        assert!(delta.nodes_freed >= N as u64, "freed: {delta:?}");
        // The epoch scheme frees a node only two advances after its
        // retirement.
        let min_advances = if R::NAME == Ebr::NAME { 2 } else { 1 };
        assert!(delta.epoch_advances >= min_advances, "advances: {delta:?}");
        assert!(delta.repins >= 1, "repins: {delta:?}");
        // All N were pending at once under the pin.
        assert!(delta.bag_depth_hwm >= N as u64, "hwm: {delta:?}");
        // Globally, frees never outrun retirements.
        let now = R::stats();
        assert!(now.nodes_freed <= now.nodes_retired);
        assert_eq!(now.bag_depth(), now.nodes_retired - now.nodes_freed);
    }

    /// The audit must catch the second retirement of one pointer (and must
    /// not have queued it, so nothing double-frees after the panic is caught).
    #[cfg(any(feature = "retire-audit", debug_assertions))]
    fn double_retire_panics_under_audit<R: Reclaimer>() {
        let dropped = Arc::new(AtomicUsize::new(0));
        let guard = R::pin();
        let p = Owned::new(NoteDrop(Arc::clone(&dropped))).into_shared(&guard);
        unsafe { guard.defer_destroy(p) };
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            guard.defer_destroy(p)
        }));
        let msg = *second.expect_err("double retire must panic").downcast::<String>().unwrap();
        assert!(msg.starts_with(R::NAME), "the panic names the backend: {msg}");
        assert!(msg.contains("double retire"), "unexpected panic message: {msg}");
        // The first retirement stays queued and frees exactly once.
        drop(guard);
        collect_until::<R>(|| dropped.load(Ordering::SeqCst) > 0);
        R::collect();
        assert_eq!(dropped.load(Ordering::SeqCst), 1, "{}", R::NAME);
    }

    /// Hammers one atomic from several threads with swap + retire, so
    /// advancement and reclamation run under contention.
    fn concurrent_churn_is_safe<R: Reclaimer>() {
        let a = Arc::new(Atomic::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        let guard = R::pin();
                        let new = Owned::new(t * 1_000_000 + i).into_shared(&guard);
                        loop {
                            let old = a.load(Ordering::SeqCst, &guard);
                            if a.compare_exchange(
                                old,
                                new,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                                &guard,
                            )
                            .is_ok()
                            {
                                unsafe { guard.defer_destroy(old) };
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Drain what the exited workers orphaned.
        R::collect();
        let guard = R::pin();
        unsafe { drop(a.load(Ordering::SeqCst, &guard).into_owned()) };
    }

    /// Retires `N` nodes under `R` and drains them; returns `N`.
    fn retire_and_drain<R: Reclaimer>() -> u64 {
        const N: usize = 50;
        let dropped = Arc::new(AtomicUsize::new(0));
        {
            let mut guard = R::pin();
            for _ in 0..N {
                retire_note(&guard, &dropped);
            }
            guard.repin();
        }
        collect_until::<R>(|| dropped.load(Ordering::SeqCst) == N);
        assert_eq!(dropped.load(Ordering::SeqCst), N, "{}: never drained", R::NAME);
        N as u64
    }

    /// Each backend counts into its own domain: retiring and collecting
    /// under one must not move the other's counters (experiment E17 reads
    /// them apart).
    #[test]
    fn backends_keep_separate_counters() {
        let _serial = crate::serial_test();
        let (ebr, ibr) = (Ebr::stats(), Ibr::stats());
        let n = retire_and_drain::<Ebr>();
        assert_eq!(Ibr::stats(), ibr, "EBR activity moved the IBR counters");
        let moved = Ebr::stats().since(&ebr);
        assert!(moved.nodes_retired >= n && moved.nodes_freed >= n, "{moved:?}");
        assert!(moved.repins >= 1, "{moved:?}");

        let ebr = Ebr::stats();
        let n = retire_and_drain::<Ibr>();
        assert_eq!(Ebr::stats(), ebr, "IBR activity moved the EBR counters");
        let moved = Ibr::stats().since(&ibr);
        assert!(moved.nodes_retired >= n && moved.nodes_freed >= n, "{moved:?}");
        assert!(moved.repins >= 1, "{moved:?}");
    }

    #[test]
    fn backend_names_differ() {
        assert_eq!(Ebr::NAME, "ebr");
        assert_eq!(Ibr::NAME, "ibr");
    }

    #[test]
    fn stats_since_keeps_hwm_and_diffs_counters() {
        let earlier = ReclamationStats {
            epoch_advances: 1,
            nodes_retired: 4,
            nodes_freed: 2,
            min_stamp_skips: 0,
            repins: 0,
            bag_depth_hwm: 9,
            bound_trips: 1,
            bound_escalations: 3,
        };
        let later = ReclamationStats {
            epoch_advances: 3,
            nodes_retired: 10,
            nodes_freed: 9,
            min_stamp_skips: 2,
            repins: 1,
            bag_depth_hwm: 12,
            bound_trips: 2,
            bound_escalations: 7,
        };
        let d = later.since(&earlier);
        assert_eq!(d.epoch_advances, 2);
        assert_eq!(d.nodes_retired, 6);
        assert_eq!(d.nodes_freed, 7);
        assert_eq!(d.bag_depth(), 0);
        // A level, not a counter: never subtracted.
        assert_eq!(d.bag_depth_hwm, 12);
        assert_eq!(d.bound_trips, 1);
        assert_eq!(d.bound_escalations, 4);
        assert_eq!(later.bag_depth(), 1);
    }
}
