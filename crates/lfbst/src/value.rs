//! Value storage for the map face of [`LfBst`](crate::LfBst).
//!
//! The tree stores one value cell beside each key.  Two competing constraints
//! shape the design:
//!
//! * the **set alias** `LfBst<K>` (= `LfBst<K, ()>`) must keep the paper's
//!   node footprint — the `()` cell has to occupy **zero bytes**, so the
//!   5-words-per-node claim pinned by `node.rs` stays true;
//! * the **map** needs `upsert` to replace a value **in place**, atomically,
//!   without re-running the insert protocol, and `get` must be able to read
//!   concurrently with such replacements.
//!
//! Rust offers no stable way to make a single generic field zero-sized for
//! `()` and word-sized otherwise, so the cell type is chosen per value type
//! through the [`MapValue`] trait, in three kinds:
//!
//! * `()` maps to the zero-sized [`UnitCell`];
//! * every scalar that fits one word (`u8`–`u64`, `usize`, `i8`–`i64`,
//!   `isize`, `bool`, `char`, `f32`, `f64`) maps to [`InlineCell`] — one
//!   atomic word holding the value's bits, so an in-place update is a single
//!   swap that allocates nothing and retires nothing, like the paper's
//!   single-word CAS updates;
//! * everything else (`u128`, `i128`, `String`, `&'static str`, the `Box` /
//!   `Arc` / `Vec` / `Option` containers, custom payloads) maps to
//!   [`BoxedCell`] — one atomic word holding a pointer to the boxed value,
//!   replaced by pointer swap and reclaimed through the same epoch scheme as
//!   the nodes.
//!
//! The choice follows from the value type alone; the bit conversion behind
//! [`InlineCell`] ([`InlineValue`]) is sealed to the scalars above.  A custom
//! payload type opts in to [`BoxedCell`] with one line:
//!
//! ```
//! #[derive(Clone)]
//! struct Record { id: u64, payload: [u8; 16] }
//! impl lfbst::MapValue for Record {
//!     type Cell = lfbst::BoxedCell<Record>;
//! }
//!
//! let index: lfbst::LfBst<u64, Record> = lfbst::LfBst::new();
//! index.upsert(7, Record { id: 7, payload: [0; 16] });
//! assert_eq!(index.get(&7).map(|r| r.id), Some(7));
//! ```
//!
//! ## Synchronization
//!
//! The initial value is written into the cell **before** the node is
//! published; the insert's injection CAS (`Release`) makes it visible to any
//! traversal that acquires the link.  A later in-place replacement has no link
//! edge to piggyback on, so the cell itself synchronizes:
//! [`ValueCell::replace`] swaps the word with `AcqRel` and
//! [`ValueCell::read_with`] loads it with `Acquire`.  For a [`BoxedCell`] that
//! pairs the boxed value's initialisation with its readers, and the
//! swapped-out box is retired through the caller's epoch guard, so readers
//! that loaded the old pointer keep a valid referent until they unpin.  An
//! [`InlineCell`] hands its readers a copy of the loaded bits, so no reference
//! ever points into the swapped word and there is nothing to retire.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_epoch::{Atomic, Owned, ReclaimGuard};

/// A type usable as the value of an [`LfBst`](crate::LfBst) map.
///
/// The associated [`Cell`](Self::Cell) selects the in-node storage: zero bytes
/// for `()` (the set alias), one atomic word for everything else — the value's
/// own bits for word-sized scalars, a pointer to a box otherwise.  See the
/// [module docs](self) for the one-line impl custom types need.
pub trait MapValue: Send + Sync + Sized {
    /// The in-node storage for values of this type.
    type Cell: ValueCell<Self>;
}

/// In-node storage for a value: written once before its node is published,
/// then read and atomically replaced in place for the node's lifetime.
///
/// Implemented by [`UnitCell`], [`InlineCell`] and [`BoxedCell`]; the trait
/// is public so that `Node` layouts can be named in bounds, but there is no
/// reason to implement it outside this crate.
pub trait ValueCell<V>: Default + Send + Sync {
    /// Stores the initial value.
    ///
    /// Must only be called on a cell that no other thread can reach yet (the
    /// node is unpublished); the publishing CAS releases the write.
    fn init(&self, value: V);

    /// Applies `f` to the current value and returns its result.
    ///
    /// `f` sees the boxed referent itself for a [`BoxedCell`] (so a predicate
    /// clones nothing) and a loaded copy for an [`InlineCell`], whose word
    /// another thread may swap at any time.  Returns `None` only for a
    /// [`BoxedCell`] that was never initialised; a cell reached through a real
    /// key always holds a value.  The two sentinel root nodes never have their
    /// cells read, so an [`InlineCell`] has no empty state and always answers.
    fn read_with<G: ReclaimGuard, T>(&self, guard: &G, f: impl FnOnce(&V) -> T) -> Option<T>;

    /// Atomically replaces the value, returning a clone of the previous one.
    ///
    /// A boxed previous value stays readable by concurrently pinned threads
    /// and is reclaimed through `guard`'s reclamation domain; an inline one is
    /// returned by value and leaves nothing behind.
    fn replace<G: ReclaimGuard>(&self, value: V, guard: &G) -> V
    where
        V: Clone;

    /// Takes the value back out of a cell whose node was **never published**
    /// (an insert that lost to an existing key), leaving a boxed cell empty.
    fn take_unpublished(&self) -> Option<V>;
}

/// The zero-sized cell used by the set alias (`V = ()`).
///
/// Every operation is a no-op: a unit value carries no information, so the
/// set-flavoured node layout is byte-for-byte the paper's five-word record.
#[derive(Debug, Default)]
pub struct UnitCell;

impl ValueCell<()> for UnitCell {
    #[inline(always)]
    fn init(&self, (): ()) {}

    #[inline(always)]
    fn read_with<G: ReclaimGuard, T>(&self, _guard: &G, f: impl FnOnce(&()) -> T) -> Option<T> {
        Some(f(&()))
    }

    #[inline(always)]
    fn replace<G: ReclaimGuard>(&self, (): (), _guard: &G) {}

    #[inline(always)]
    fn take_unpublished(&self) -> Option<()> {
        Some(())
    }
}

/// The cell for every value that is not a word-sized scalar: one atomic word
/// pointing at the boxed value.
///
/// Replacement is a pointer swap (`AcqRel`), reads are `Acquire` loads; the
/// old box is retired through the epoch scheme, which is what lets `get` run
/// concurrently with `upsert` without locks or data races.
#[derive(Debug)]
pub struct BoxedCell<V> {
    ptr: Atomic<V>,
}

impl<V> Default for BoxedCell<V> {
    fn default() -> Self {
        BoxedCell { ptr: Atomic::null() }
    }
}

impl<V: Send + Sync> ValueCell<V> for BoxedCell<V> {
    fn init(&self, value: V) {
        // The node is unpublished: relaxed is enough, the injection CAS
        // releases the pointer together with the rest of the node.
        debug_assert!(
            self.ptr.load(Ordering::Relaxed, unsafe { crossbeam_epoch::unprotected() }).is_null(),
            "value cell initialised twice"
        );
        let owned = Owned::new(value);
        let guard = unsafe { crossbeam_epoch::unprotected() };
        self.ptr.store(owned.into_shared(guard), Ordering::Relaxed);
    }

    fn read_with<G: ReclaimGuard, T>(&self, guard: &G, f: impl FnOnce(&V) -> T) -> Option<T> {
        let p = self.ptr.load(Ordering::Acquire, guard);
        if p.is_null() {
            return None;
        }
        // The box outlives `guard`: a replacement retires it through the
        // epoch scheme, which waits for this pin.
        Some(f(unsafe { p.deref() }))
    }

    fn replace<G: ReclaimGuard>(&self, value: V, guard: &G) -> V
    where
        V: Clone,
    {
        let old = self.ptr.swap(Owned::new(value), Ordering::AcqRel, guard);
        debug_assert!(!old.is_null(), "replace on an uninitialised cell");
        let out = unsafe { old.deref() }.clone();
        // Readers pinned before the swap may still hold the old box.
        unsafe { guard.defer_destroy(old) };
        out
    }

    fn take_unpublished(&self) -> Option<V> {
        let guard = unsafe { crossbeam_epoch::unprotected() };
        let p = self.ptr.load(Ordering::Relaxed, guard);
        if p.is_null() {
            return None;
        }
        self.ptr.store(crossbeam_epoch::Shared::null(), Ordering::Relaxed);
        // The node never became reachable, so this thread owns the block the
        // pointer came from (`Owned::new` in `init`).
        Some(unsafe { p.into_owned() }.into_inner())
    }
}

impl<V> Drop for BoxedCell<V> {
    fn drop(&mut self) {
        // The cell is dropped together with its node, i.e. after the node has
        // become unreachable (epoch reclamation or exclusive teardown): the
        // pointer can no longer be raced.
        let guard = unsafe { crossbeam_epoch::unprotected() };
        let p = self.ptr.load(Ordering::Relaxed, guard);
        if !p.is_null() {
            unsafe { drop(p.into_owned()) };
        }
    }
}

/// A value that round-trips through one `u64` word, stored by
/// [`InlineCell`].
///
/// Sealed: implemented for the word-sized scalars only (`u8`–`u64`, `usize`,
/// `i8`–`i64`, `isize`, `bool`, `char`, `f32`, `f64`), whose [`MapValue`]
/// impls select [`InlineCell`].
pub trait InlineValue: Copy + Send + Sync + sealed::Sealed {
    /// The value's bits, zero- or sign-extended to one word.
    fn to_bits(self) -> u64;

    /// Rebuilds a value from bits produced by [`to_bits`](Self::to_bits).
    fn from_bits(bits: u64) -> Self;
}

mod sealed {
    pub trait Sealed {}
}

/// The scalar cell: one atomic word holding the value's bits.
///
/// Reads are `Acquire` loads that hand out a copy; replacement is an `AcqRel`
/// swap that returns the old bits.  Nothing is boxed, so an in-place `upsert`
/// allocates nothing and retires nothing.
#[derive(Debug)]
pub struct InlineCell<V> {
    bits: AtomicU64,
    value: PhantomData<V>,
}

impl<V> Default for InlineCell<V> {
    fn default() -> Self {
        InlineCell { bits: AtomicU64::new(0), value: PhantomData }
    }
}

impl<V: InlineValue> ValueCell<V> for InlineCell<V> {
    #[inline]
    fn init(&self, value: V) {
        // The node is unpublished: the injection CAS releases the word.
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    fn read_with<G: ReclaimGuard, T>(&self, _guard: &G, f: impl FnOnce(&V) -> T) -> Option<T> {
        Some(f(&V::from_bits(self.bits.load(Ordering::Acquire))))
    }

    #[inline]
    fn replace<G: ReclaimGuard>(&self, value: V, _guard: &G) -> V {
        V::from_bits(self.bits.swap(value.to_bits(), Ordering::AcqRel))
    }

    #[inline]
    fn take_unpublished(&self) -> Option<V> {
        Some(V::from_bits(self.bits.load(Ordering::Relaxed)))
    }
}

impl MapValue for () {
    type Cell = UnitCell;
}

/// Implements [`InlineValue`] and an [`InlineCell`]-backed [`MapValue`] for
/// each `type: to_bits(v), from_bits(b)` row.
macro_rules! inline_map_value {
    ($($t:ty: $v:ident => $to:expr, $b:ident => $from:expr;)*) => {
        $(
            impl sealed::Sealed for $t {}
            impl InlineValue for $t {
                #[inline(always)]
                fn to_bits(self) -> u64 {
                    let $v = self;
                    $to
                }
                #[inline(always)]
                fn from_bits($b: u64) -> Self {
                    $from
                }
            }
            impl MapValue for $t {
                type Cell = InlineCell<$t>;
            }
        )*
    };
}

// Signed integers sign-extend on the way in and truncate on the way out.
inline_map_value! {
    u8: v => v as u64, b => b as u8;
    u16: v => v as u64, b => b as u16;
    u32: v => v as u64, b => b as u32;
    u64: v => v, b => b;
    usize: v => v as u64, b => b as usize;
    i8: v => v as u64, b => b as i8;
    i16: v => v as u64, b => b as i16;
    i32: v => v as u64, b => b as i32;
    i64: v => v as u64, b => b as i64;
    isize: v => v as u64, b => b as isize;
    bool: v => v as u64, b => b != 0;
    char: v => v as u64, b => char::from_u32(b as u32).expect("inline cell holds a char");
    f32: v => u64::from(v.to_bits()), b => f32::from_bits(b as u32);
    f64: v => v.to_bits(), b => f64::from_bits(b);
}

macro_rules! boxed_map_value {
    ($($t:ty),* $(,)?) => {
        $(impl MapValue for $t { type Cell = BoxedCell<$t>; })*
    };
}

boxed_map_value!(u128, i128, String, &'static str);

impl<T: Send + Sync> MapValue for Box<T> {
    type Cell = BoxedCell<Box<T>>;
}

impl<T: Send + Sync> MapValue for std::sync::Arc<T> {
    type Cell = BoxedCell<std::sync::Arc<T>>;
}

impl<T: Send + Sync> MapValue for Vec<T> {
    type Cell = BoxedCell<Vec<T>>;
}

impl<T: Send + Sync> MapValue for Option<T> {
    type Cell = BoxedCell<Option<T>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch as epoch;

    fn read<V: Clone, C: ValueCell<V>>(cell: &C) -> Option<V> {
        cell.read_with(&epoch::pin(), V::clone)
    }

    #[test]
    fn unit_cell_is_zero_sized_and_total() {
        assert_eq!(std::mem::size_of::<UnitCell>(), 0);
        let cell = UnitCell;
        let guard = &epoch::pin();
        cell.init(());
        assert_eq!(read(&cell), Some(()));
        cell.replace((), guard);
        assert_eq!(cell.take_unpublished(), Some(()));
    }

    #[test]
    fn boxed_cell_is_one_word() {
        assert_eq!(std::mem::size_of::<BoxedCell<u64>>(), std::mem::size_of::<usize>());
        assert_eq!(std::mem::size_of::<BoxedCell<[u8; 256]>>(), std::mem::size_of::<usize>());
    }

    #[test]
    fn inline_cell_is_one_word() {
        assert_eq!(std::mem::size_of::<InlineCell<u8>>(), std::mem::size_of::<u64>());
        assert_eq!(std::mem::size_of::<InlineCell<f64>>(), std::mem::size_of::<u64>());
    }

    #[test]
    fn boxed_cell_init_read_replace_roundtrip() {
        let cell: BoxedCell<String> = BoxedCell::default();
        let guard = &epoch::pin();
        assert!(read(&cell).is_none(), "fresh cell is empty");
        cell.init("one".to_string());
        assert_eq!(cell.read_with(guard, |v| v.len()), Some(3), "f sees the boxed referent");
        let old = cell.replace("two".to_string(), guard);
        assert_eq!(old, "one");
        assert_eq!(read(&cell).as_deref(), Some("two"));
        // Drop frees the final box (checked by the leak-free test battery).
    }

    #[test]
    fn boxed_cell_take_unpublished_returns_ownership() {
        let cell: BoxedCell<Vec<u8>> = BoxedCell::default();
        assert_eq!(cell.take_unpublished(), None);
        cell.init(vec![1, 2, 3]);
        assert_eq!(cell.take_unpublished(), Some(vec![1, 2, 3]));
        assert_eq!(cell.take_unpublished(), None, "cell is empty after take");
        assert!(read(&cell).is_none());
    }

    /// Stores `first`, replaces it with `second`, and checks both come back
    /// bit for bit through every path out of the cell.
    fn inline_roundtrip<V>(first: V, second: V, same: impl Fn(&V, &V) -> bool)
    where
        V: InlineValue + MapValue<Cell = InlineCell<V>> + std::fmt::Debug,
    {
        let cell = InlineCell::<V>::default();
        cell.init(first);
        assert!(same(&read(&cell).unwrap(), &first), "read {first:?}");
        let old = cell.replace(second, &epoch::pin());
        assert!(same(&old, &first), "replace returned {old:?}, stored {first:?}");
        assert!(same(&read(&cell).unwrap(), &second), "read {second:?}");
        assert!(same(&cell.take_unpublished().unwrap(), &second), "take {second:?}");
    }

    #[test]
    fn inline_cell_roundtrips_edge_values() {
        fn eq<V: PartialEq>(a: &V, b: &V) -> bool {
            a == b
        }
        inline_roundtrip(u8::MAX, 0, eq);
        inline_roundtrip(u16::MAX, 1, eq);
        inline_roundtrip(u32::MAX, 1, eq);
        inline_roundtrip(u64::MAX, 0, eq);
        inline_roundtrip(usize::MAX, 0, eq);
        inline_roundtrip(i8::MIN, -1, eq);
        inline_roundtrip(i16::MIN, -1, eq);
        inline_roundtrip(i32::MIN, i32::MAX, eq);
        inline_roundtrip(i64::MIN, -1, eq);
        inline_roundtrip(isize::MIN, isize::MAX, eq);
        inline_roundtrip(true, false, eq);
        inline_roundtrip(false, true, eq);
        inline_roundtrip(char::MAX, '\0', eq);
        inline_roundtrip('é', char::MAX, eq);
        // Floats compare by bits: `-0.0 == 0.0` and `NaN != NaN` would hide
        // a lost sign or payload.
        let nan32 = f32::from_bits(0x7fc0_1234);
        let nan64 = f64::from_bits(0xfff8_0000_dead_beef);
        inline_roundtrip(-0.0f32, nan32, |a, b| a.to_bits() == b.to_bits());
        inline_roundtrip(f32::MIN_POSITIVE, f32::NEG_INFINITY, |a, b| a.to_bits() == b.to_bits());
        inline_roundtrip(-0.0f64, nan64, |a, b| a.to_bits() == b.to_bits());
        inline_roundtrip(f64::MAX, f64::MIN_POSITIVE, |a, b| a.to_bits() == b.to_bits());
    }

    /// Two writers replace the value with tagged counters while two readers
    /// check they only ever see the initial value or a value some writer
    /// stored.
    fn replace_under_readers<C: ValueCell<u64> + 'static>() {
        use std::sync::Arc;
        let cell = Arc::new(C::default());
        cell.init(0);
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        let guard = &epoch::pin();
                        let old = cell.replace(w * 1_000_000 + i, guard);
                        assert!(old == 0 || old % 1_000_000 < 5_000, "foreign old value {old}");
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        let v = read(&*cell).expect("initialised cell");
                        assert!(v == 0 || v % 1_000_000 < 5_000, "torn or stale value {v}");
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
    }

    #[test]
    fn replace_is_safe_under_concurrent_readers() {
        replace_under_readers::<BoxedCell<u64>>();
    }

    #[test]
    fn inline_replace_is_safe_under_concurrent_readers() {
        replace_under_readers::<InlineCell<u64>>();
    }
}
