//! # lfbst — Efficient Lock-free Internal Binary Search Trees
//!
//! A faithful, production-oriented Rust implementation of the lock-free *internal*
//! (threaded) binary search tree of **Chatterjee, Nguyen and Tsigas**,
//! *Efficient Lock-free Binary Search Trees* (PODC 2014 / Chalmers TR 2014:05,
//! arXiv:1404.3272).
//!
//! ## What the data structure is
//!
//! [`LfBst`] implements a linearizable, lock-free **Set** abstract data type with
//! `insert` (the paper's `Add`), `remove` (`Remove`) and `contains` (`Contains`),
//! using only single-word atomic reads, writes and compare-and-swap.
//!
//! It is also a linearizable, lock-free **ordered Map**: `LfBst<K, V>` carries
//! a value beside each key (`LfBst<K>` is exactly `LfBst<K, ()>`, so the Set
//! face costs nothing) with [`insert_entry`](LfBst::insert_entry),
//! [`get`](LfBst::get), [`upsert`](LfBst::upsert) (atomic in-place value
//! replacement), [`remove_entry`](LfBst::remove_entry) (returns the evicted
//! value) and [`entries_in_range`](LfBst::entries_in_range).  See [`MapValue`]
//! for how value storage is chosen per type, and `DESIGN.md` ("Values on an
//! internal BST") for the linearization argument.
//!
//! ```
//! use lfbst::LfBst;
//!
//! let index: LfBst<u64, String> = LfBst::new();
//! index.insert_entry(7, "seven".into());
//! assert_eq!(index.upsert(7, "VII".into()).as_deref(), Some("seven"));
//! assert_eq!(index.get(&7).as_deref(), Some("VII"));
//! assert_eq!(index.remove_entry(&7).as_deref(), Some("VII"));
//! ```
//!
//! Ordered reads are **streaming**: the [`cursor`] module turns the threaded
//! representation's one-hop-per-successor property into a guard-scoped
//! [`Cursor`] (seek once, stream entries, zero allocation) and an owning
//! [`RangeIter`] that repins its epoch guard on long scans; the collecting
//! APIs ([`keys_in_range`](LfBst::keys_in_range),
//! [`entries_in_range`](LfBst::entries_in_range), [`iter_keys`](LfBst::iter_keys))
//! are thin adapters over it, and [`next_key_after`](LfBst::next_key_after) /
//! [`min_key`](LfBst::min_key) / [`max_key`](LfBst::max_key) serve successor
//! queries for pagination.
//!
//! ```
//! use lfbst::LfBst;
//!
//! let set = LfBst::new();
//! for k in [30u64, 10, 50, 20, 40] {
//!     set.insert(k);
//! }
//! // Top-2 keys at or above 15, without materialising the rest.
//! let top2: Vec<u64> = set.range_iter(15..).keys().take(2).collect();
//! assert_eq!(top2, vec![20, 30]);
//! ```
//!
//! Ordered *mutations* are streaming too: the [`bulk`] module drives the
//! removal protocol along successor threads in chunks —
//! [`remove_range`](LfBst::remove_range) deletes a whole key range and
//! [`retain`](LfBst::retain) runs TTL-style eviction sweeps, both under one
//! repinning guard with vicinity-anchored locates and batch retirement
//! (linearizable per key, weakly consistent as a whole).
//!
//! ```
//! use lfbst::LfBst;
//!
//! let set = LfBst::new();
//! for k in 0..100u64 {
//!     set.insert(k);
//! }
//! // Drop the retention window [0, 90) in one streaming sweep.
//! assert_eq!(set.remove_range(..90), 90);
//! assert_eq!(set.len(), 10);
//! ```
//!
//! The tree is an *internal* BST stored in **threaded** form (Perlis & Thornton):
//! a node's right child pointer, when there is no right child, is a *thread* to the
//! node's in-order successor, and a missing left child pointer is a thread to the
//! node itself.  This turns the tree into an ordered list with exactly two incoming
//! and two outgoing pointers per node and gives the algorithm its two headline
//! properties:
//!
//! * **`Contains` never restarts and never helps** (in the default
//!   [`HelpPolicy::ReadOptimized`] mode): traversals are oblivious to concurrent
//!   removals, like a search in a lock-free linked list.
//! * **Modify operations never restart from the root**: every node carries a
//!   *backlink* to a node in the vicinity of its parent, so after a failed CAS the
//!   operation recovers one link away from the failure spot.  This is what turns the
//!   usual `O(c · H(n))` amortized cost of lock-free BSTs into the paper's
//!   `O(H(n) + c)` (contention is additive, not multiplicative).
//!
//! Removal uses *link-level* flag and mark bits (three bits stolen from each child
//! pointer) instead of per-node operation descriptors, which improves
//! disjoint-access parallelism: two removals that touch disjoint links do not
//! obstruct each other.
//!
//! ## Quick start
//!
//! ```
//! use lfbst::LfBst;
//! use std::sync::Arc;
//!
//! let set = Arc::new(LfBst::new());
//! let handles: Vec<_> = (0..4)
//!     .map(|t| {
//!         let set = Arc::clone(&set);
//!         std::thread::spawn(move || {
//!             for i in 0..1000u64 {
//!                 set.insert(t * 1000 + i);
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(set.len(), 4000);
//! assert!(set.contains(&0));
//! assert!(set.remove(&0));
//! assert!(!set.contains(&0));
//! ```
//!
//! ## Memory reclamation
//!
//! The paper assumes an external safe memory reclamation scheme (hazard pointers).
//! This crate uses epoch-based reclamation via `crossbeam-epoch`: every operation
//! pins the current epoch and physically-removed nodes are retired with
//! `defer_destroy`.  This preserves lock freedom of the set operations and memory
//! safety for concurrent readers.
//!
//! ## Configuration knobs
//!
//! * [`HelpPolicy`] — the paper's *adaptive conservative helping*: in
//!   `WriteOptimized` mode traversals eagerly help pending removals they pass over
//!   (tighter *point* contention, shorter traversal paths under write-heavy load);
//!   in `ReadOptimized` mode they stay oblivious (cheapest reads).
//! * [`RestartPolicy`] — ablation switch: `Vicinity` (the paper's backlink-based
//!   recovery) vs `Root` (the restart-from-scratch behaviour of earlier lock-free
//!   BSTs), used by the benchmark suite to measure the `O(H + c)` claim.
//!
//! See `DESIGN.md` at the repository root for the full design, the list of
//! pseudocode disambiguations, and the experiment index.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bulk;
mod config;
pub mod cursor;
pub mod guard;
mod link;
mod locate;
mod node;
mod remove;
mod trace_hooks;
mod tree;
pub mod validate;
pub mod value;

pub use config::{Config, HelpPolicy, RestartPolicy};
pub use cursor::{Cursor, Entry, RangeIter, REPIN_SCAN_EVERY};
pub use guard::Pinned;
pub use tree::LfBst;
pub use value::{BoxedCell, InlineCell, InlineValue, MapValue, UnitCell, ValueCell};

/// The epoch guard type accepted by the `*_with` entry points of the default
/// backend ([`LfBst::insert_with`] and friends); obtain one from
/// [`LfBst::pin`] / [`Pinned::guard`] or from `crossbeam_epoch::pin` directly.
pub use crossbeam_epoch::Guard;
/// The pluggable reclamation surface: `LfBst<K, V, R>` is generic over a
/// [`Reclaimer`] backend — [`Ebr`] (epoch-based, the default) or [`Ibr`]
/// (interval-based, robust against stalled readers).  A backend's guard
/// implements [`ReclaimGuard`].
pub use crossbeam_epoch::{Ebr, GarbageBound, Ibr, ReclaimGuard, Reclaimer};
pub use cset::{
    ConcurrentMap, ConcurrentSet, KeyBound, OpStats, OrderedMap, OrderedSet, StatsSnapshot,
};

/// Returns `true` if this build of the crate records operation statistics
/// (the `stats` cargo feature).
///
/// Without the feature, [`Config::record_stats`] is accepted but ignored and
/// every [`StatsSnapshot`] is zero; tests and harnesses use this to skip
/// stats-dependent assertions.
pub const fn stats_compiled() -> bool {
    cfg!(feature = "stats")
}

/// Returns `true` if this build of the crate records remove-protocol trace
/// events (the `trace` cargo feature, forwarding `obs/trace`).
///
/// Without the feature every trace hook compiles to nothing; stress tests use
/// this to decide whether a flight-recorder dump can carry any evidence.
pub const fn trace_compiled() -> bool {
    cfg!(feature = "trace")
}

/// Flight-recorder access for test harnesses (`trace` feature only): dump or
/// reset the per-thread remove-protocol event rings recorded by this crate's
/// hooks.  Re-exported from [`obs::trace`].
#[cfg(feature = "trace")]
pub use obs::trace;
