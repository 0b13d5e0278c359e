//! Bounded-garbage backpressure.
//!
//! Reclamation in this crate is amortized: a stalled reader (or just an
//! unlucky collection cadence) lets retired-but-unfreed nodes accumulate.
//! [`GarbageBound`] turns that from "memory grows without bound" into a
//! graceful degradation: once the pending-garbage depth crosses the ceiling,
//! every retirement escalates collect effort on the *writer's* dime until the
//! depth is back under the bound or the bounded escalation budget is spent.
//!
//! The escalation ladder, per retirement while over the ceiling:
//!
//! 1. **Local collect** — drain what the retiring thread can free by itself.
//! 2. **Global collect** — sweep every thread's garbage (and, for the epoch
//!    backend, attempt an epoch advance).  This step is load-bearing: a busy
//!    writer with an empty bag of its own must not hide *other* threads'
//!    stuck garbage behind that emptiness.
//! 3. **Bounded force rounds** — up to [`GarbageBound::escalate_rounds`]
//!    iterations of yield-then-global-collect, giving pinned readers a
//!    scheduling window to advance past.  Each round also nudges the global
//!    epoch/era forward so freshly retired garbage lands outside stalled
//!    reservations.
//!
//! The ladder never blocks and never unpins: the retiring thread may hold
//! live `Shared` pointers, so the strongest lever (repin) stays with the
//! caller — the structures' batch APIs already repin on a cadence, and the
//! [`crate::ReclamationStats::bound_trips`] counter tells an operator the
//! cadence is losing.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// A garbage ceiling: the maximum retired-but-unfreed node count tolerated
/// before retirements start paying for collection.
///
/// Process-global and shared by both backends (each backend's own pending
/// depth is compared against it).  The default is [`GarbageBound::UNBOUNDED`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GarbageBound {
    /// Pending-garbage depth above which retirements escalate.
    pub max_nodes: usize,
    /// Yield-then-collect rounds a single retirement will spend trying to get
    /// back under the ceiling (step 3 of the ladder).
    pub escalate_rounds: u32,
}

impl GarbageBound {
    /// No ceiling: retirements never escalate.
    pub const UNBOUNDED: GarbageBound = GarbageBound { max_nodes: usize::MAX, escalate_rounds: 0 };

    /// A ceiling of `max_nodes` with the default escalation budget.
    pub fn nodes(max_nodes: usize) -> GarbageBound {
        GarbageBound { max_nodes, escalate_rounds: 8 }
    }
}

impl Default for GarbageBound {
    fn default() -> Self {
        GarbageBound::UNBOUNDED
    }
}

static MAX_NODES: AtomicUsize = AtomicUsize::new(usize::MAX);
static ESCALATE_ROUNDS: AtomicU32 = AtomicU32::new(0);

std::thread_local! {
    /// Nesting depth of open batch-retire windows on this thread (see
    /// [`crate::ReclaimGuard::retire_batch`]).  While positive, per-retirement
    /// enforcement is skipped: the window settles once at close.
    static BATCH_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// `true` while the current thread is inside a batch-retire window — the
/// per-retirement bound check and high-water collect are deferred to the
/// window's close.
pub(crate) fn deferring() -> bool {
    BATCH_DEPTH.with(|d| d.get()) > 0
}

/// RAII handle for one batch-retire window; dropping it (including on panic)
/// re-enables per-retirement enforcement for the thread.
pub(crate) struct BatchWindow {
    _not_send: std::marker::PhantomData<*mut ()>,
}

/// Opens a batch-retire window on the current thread.  Windows nest: the
/// outermost close re-enables enforcement.
pub(crate) fn enter_batch() -> BatchWindow {
    BATCH_DEPTH.with(|d| d.set(d.get() + 1));
    BatchWindow { _not_send: std::marker::PhantomData }
}

impl Drop for BatchWindow {
    fn drop(&mut self) {
        BATCH_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Installs `bound` as the process-global garbage ceiling.
pub fn set_garbage_bound(bound: GarbageBound) {
    MAX_NODES.store(bound.max_nodes, Ordering::Relaxed);
    ESCALATE_ROUNDS.store(bound.escalate_rounds, Ordering::Relaxed);
}

/// The current process-global garbage ceiling.
pub fn garbage_bound() -> GarbageBound {
    GarbageBound {
        max_nodes: MAX_NODES.load(Ordering::Relaxed),
        escalate_rounds: ESCALATE_ROUNDS.load(Ordering::Relaxed),
    }
}

/// Runs the escalation ladder for one retirement.
///
/// `depth` reports the backend's current pending-garbage count;
/// `collect_local` and `collect_global` are the backend's two collection
/// scopes; `trips`/`escalations` are the backend's health counters.  Cold
/// path by construction — called only after a cheap depth-vs-ceiling check
/// fails — so the `&dyn` indirection costs nothing that matters.
pub(crate) fn enforce(
    depth: &dyn Fn() -> usize,
    collect_local: &dyn Fn(),
    collect_global: &dyn Fn(),
    trips: &AtomicU64,
    escalations: &AtomicU64,
) {
    let max = MAX_NODES.load(Ordering::Relaxed);
    if depth() <= max {
        return;
    }
    trips.fetch_add(1, Ordering::Relaxed);
    collect_local();
    if depth() <= max {
        return;
    }
    // Step 2: the global sweep.  A thread whose own bag is empty still frees
    // other threads' stuck garbage here.
    collect_global();
    for _ in 0..ESCALATE_ROUNDS.load(Ordering::Relaxed) {
        if depth() <= max {
            return;
        }
        escalations.fetch_add(1, Ordering::Relaxed);
        // Back off: give whoever holds the blocking reservation a chance to
        // run (and unpin or repin) before sweeping again.
        std::thread::yield_now();
        collect_global();
    }
}

/// `true` when `depth` is over the configured ceiling (the cheap pre-check
/// retire paths use before reaching for [`enforce`]).
pub(crate) fn over(depth: usize) -> bool {
    depth > MAX_NODES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unbounded() {
        assert_eq!(GarbageBound::default(), GarbageBound::UNBOUNDED);
        assert!(!over(usize::MAX - 1));
    }

    #[test]
    fn nodes_constructor_sets_ceiling_with_budget() {
        let b = GarbageBound::nodes(512);
        assert_eq!(b.max_nodes, 512);
        assert!(b.escalate_rounds > 0);
    }

    #[test]
    fn enforce_runs_ladder_until_under_bound() {
        let _serial = crate::serial_test();
        use std::cell::Cell;
        // Not the global config (other tests share it): drive `enforce`'s
        // logic through a locally installed ceiling and restore after.
        let prev = garbage_bound();
        set_garbage_bound(GarbageBound { max_nodes: 10, escalate_rounds: 4 });
        let depth = Cell::new(100usize);
        let local_calls = Cell::new(0u32);
        let global_calls = Cell::new(0u32);
        let trips = AtomicU64::new(0);
        let escalations = AtomicU64::new(0);
        enforce(
            &|| depth.get(),
            &|| {
                local_calls.set(local_calls.get() + 1);
                depth.set(60); // local collect helps but not enough
            },
            &|| {
                global_calls.set(global_calls.get() + 1);
                depth.set(depth.get().saturating_sub(30));
            },
            &trips,
            &escalations,
        );
        set_garbage_bound(prev);
        assert_eq!(trips.load(Ordering::Relaxed), 1);
        assert_eq!(local_calls.get(), 1);
        // 60 -> 30 (step 2) -> 0 (one escalation round), then under bound.
        assert_eq!(global_calls.get(), 2);
        assert_eq!(escalations.load(Ordering::Relaxed), 1);
        assert!(depth.get() <= 10);
    }
}
