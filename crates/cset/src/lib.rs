//! Common abstractions shared by every concurrent structure in this workspace:
//! the [`ConcurrentSet`] / [`ConcurrentMap`] trait families (every map with
//! `()` values is a set through blanket impls), the [`KeyBound`]
//! sentinel wrapper and lightweight operation statistics.
pub mod key;
pub mod stats;
pub mod traits;

pub use key::KeyBound;
pub use stats::{LoadTally, OpKind, OpStats, StatsSnapshot};
pub use traits::{
    chunked_scan_entries, range_is_empty, ConcurrentMap, ConcurrentSet, EntryCursor, KeyCursor,
    OrderedMap, OrderedSet, SCAN_CHUNK, SCAN_CHUNK_MAX,
};
