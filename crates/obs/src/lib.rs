//! Observability primitives for the lock-free BST workspace.
//!
//! Two pieces, both built so that *measurement never serializes the
//! measured*:
//!
//! * [`Histogram`] / [`HistogramSnapshot`] — a mergeable, log-bucketed
//!   latency histogram (HdrHistogram shape: power-of-two groups split into
//!   [`SUB_BUCKETS`] linear sub-buckets, ≤ 1/32 relative error, fixed-size
//!   atomic arrays).  Workers record into private per-thread histograms;
//!   report time merges snapshots — the same shard-then-merge contract as
//!   `cset::StatsSnapshot`.
//! * [`trace`] — a feature-gated (default-off, zero-cost when disabled)
//!   per-thread flight recorder for remove-protocol step events, dumped by
//!   stress tests when a rare interleaving bug fires.
//!
//! The crate is a leaf: it depends on nothing in the workspace, so every
//! other crate (including `ebr` itself, in principle) can use it.

mod hist;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, BUCKETS, GROUPS, SUB_BUCKETS, SUB_BUCKET_BITS};
pub use trace::trace_compiled;
