//! Tagged pointer types shared by every reclamation backend.
//!
//! [`Atomic`], [`Shared`], and [`Owned`] are backend-neutral: the backend
//! enters only through the [`ReclaimGuard`] passed to each operation.  Two
//! hooks carry the interval-based backend's extra obligations (both compile
//! to nothing under the epoch backend):
//!
//! * every dereferenceable load goes through
//!   [`ReclaimGuard::protect_load`], so a backend that must extend its
//!   reservation before the pointer may be used gets to retry the load
//!   ([`Atomic::try_load`] declines instead, for traversals that must then
//!   restart from a root);
//! * operations that can publish a *fresh* allocation
//!   ([`Owned::into_shared`], a successful [`Atomic::compare_exchange`] or
//!   [`Atomic::swap`]) call [`ReclaimGuard::protect_current_era`], so the
//!   allocation's birth era is inside the caller's reservation.
//!   `into_shared` does so before the allocation is published; a CAS or swap
//!   only after, so a traversal must not read on through nodes it reached
//!   before such a raise (see [`ReclaimGuard::try_protect_load`]).
//!
//! The return values of [`Atomic::fetch_or`] and the failure arm of
//! [`Atomic::compare_exchange`] are *words*, not dereference licenses: they
//! are for tag inspection and pointer comparison.  Dereferencing demands a
//! pointer obtained from a protected load under the same pin (the in-tree
//! structures already follow this rule — they re-locate after every failed
//! CAS).

use std::fmt;
use std::marker::PhantomData;
use std::mem;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::block;
use crate::ReclaimGuard;

/// Low bits of a `*mut T` usable as a tag: everything below the alignment.
#[inline]
pub(crate) const fn low_bits<T>() -> usize {
    mem::align_of::<T>() - 1
}

/// An atomic tagged pointer to `T`, readable only under a guard.
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// A null pointer with tag 0.
    pub fn null() -> Atomic<T> {
        Atomic { data: AtomicUsize::new(0), _marker: PhantomData }
    }

    /// Allocates `value` on the heap (in the reclaimable block layout) and
    /// stores the pointer.
    pub fn new(value: T) -> Atomic<T> {
        let ptr = block::alloc_block(value);
        Atomic { data: AtomicUsize::new(ptr as usize), _marker: PhantomData }
    }

    /// Loads the current pointer.
    ///
    /// Routed through the guard's protected-load hook: the returned pointer
    /// is dereferenceable for the guard's lifetime under every backend.
    pub fn load<'g, G: ReclaimGuard>(&self, ord: Ordering, guard: &'g G) -> Shared<'g, T> {
        Shared { data: guard.protect_load(|| self.data.load(ord)), _marker: PhantomData }
    }

    /// Loads the current pointer if the guard's reservation already covers
    /// the load ([`ReclaimGuard::try_protect_load`]).  `None` means the
    /// reservation had to grow: restart the traversal from a root.
    pub fn try_load<'g, G: ReclaimGuard>(
        &self,
        ord: Ordering,
        guard: &'g G,
    ) -> Option<Shared<'g, T>> {
        let data = guard.try_protect_load(|| self.data.load(ord))?;
        Some(Shared { data, _marker: PhantomData })
    }

    /// Stores `new`.
    pub fn store(&self, new: Shared<'_, T>, ord: Ordering) {
        self.data.store(new.data, ord);
    }

    /// Single-word compare-and-swap on the full tagged word.
    ///
    /// `new` may be a [`Shared`] or an [`Owned`]; on failure an `Owned` is
    /// handed back through [`CompareExchangeError::new`] so the caller can
    /// retry without reallocating.
    pub fn compare_exchange<'g, G: ReclaimGuard, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        guard: &'g G,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_data = new.into_data();
        match self.data.compare_exchange(current.data, new_data, success, failure) {
            Ok(_) => {
                // The installed value may be a fresh allocation whose birth
                // era postdates the guard's reservation; cover it before the
                // caller dereferences the returned pointer.
                guard.protect_current_era();
                Ok(Shared { data: new_data, _marker: PhantomData })
            }
            Err(actual) => Err(CompareExchangeError {
                current: Shared { data: actual, _marker: PhantomData },
                new: unsafe { P::from_data(new_data) },
            }),
        }
    }

    /// Bitwise OR of `tag` into the tag bits; returns the previous value.
    ///
    /// The returned word is for tag inspection and comparison only — it does
    /// not extend any reservation (see the module docs).
    pub fn fetch_or<'g, G: ReclaimGuard>(
        &self,
        tag: usize,
        ord: Ordering,
        _guard: &'g G,
    ) -> Shared<'g, T> {
        let prev = self.data.fetch_or(tag & low_bits::<T>(), ord);
        Shared { data: prev, _marker: PhantomData }
    }

    /// Unconditionally exchanges the stored word for `new`, returning the
    /// previous value.
    ///
    /// The caller takes over responsibility for the returned pointer
    /// (typically retiring it with `defer_destroy` once it is unreachable).
    pub fn swap<'g, G: ReclaimGuard, P: Pointer<T>>(
        &self,
        new: P,
        ord: Ordering,
        guard: &'g G,
    ) -> Shared<'g, T> {
        let prev = self.data.swap(new.into_data(), ord);
        // Same fresh-allocation concern as a successful compare_exchange.
        guard.protect_current_era();
        Shared { data: prev, _marker: PhantomData }
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Atomic::null()
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = self.data.load(Ordering::Relaxed);
        write!(
            f,
            "Atomic({:p}, tag {})",
            (data & !low_bits::<T>()) as *const T,
            data & low_bits::<T>()
        )
    }
}

/// A tagged pointer word convertible to and from its raw representation
/// (implemented by [`Shared`] and [`Owned`]).
pub trait Pointer<T> {
    /// The raw tagged word.
    fn into_data(self) -> usize;
    /// Rebuilds the pointer from a raw tagged word.
    ///
    /// # Safety
    ///
    /// `data` must have come from `into_data` of the same pointer kind, and
    /// ownership must transfer exactly once.
    unsafe fn from_data(data: usize) -> Self;
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_data(self) -> usize {
        self.data
    }
    unsafe fn from_data(data: usize) -> Self {
        Shared { data, _marker: PhantomData }
    }
}

impl<T> Pointer<T> for Owned<T> {
    fn into_data(self) -> usize {
        let data = self.ptr as usize;
        mem::forget(self);
        data
    }
    unsafe fn from_data(data: usize) -> Self {
        Owned { ptr: (data & !low_bits::<T>()) as *mut T }
    }
}

/// A failed [`Atomic::compare_exchange`]: the value actually found.
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value the atomic held at the time of the failed CAS.
    pub current: Shared<'g, T>,
    /// The proposed value, handed back to the caller.
    pub new: P,
}

impl<T, P: Pointer<T>> fmt::Debug for CompareExchangeError<'_, T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompareExchangeError")
            .field("current", &self.current)
            .finish_non_exhaustive()
    }
}

/// A tagged shared pointer valid for the lifetime of a guard.
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl<T> Eq for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer with tag 0.
    pub fn null() -> Shared<'g, T> {
        Shared { data: 0, _marker: PhantomData }
    }

    /// The untagged raw pointer.
    pub fn as_raw(&self) -> *const T {
        (self.data & !low_bits::<T>()) as *const T
    }

    /// Returns `true` if the untagged pointer is null.
    pub fn is_null(&self) -> bool {
        self.as_raw().is_null()
    }

    /// The tag carried in the low bits.
    pub fn tag(&self) -> usize {
        self.data & low_bits::<T>()
    }

    /// The same pointer with the tag replaced by `tag`.
    pub fn with_tag(&self, tag: usize) -> Shared<'g, T> {
        Shared {
            data: (self.data & !low_bits::<T>()) | (tag & low_bits::<T>()),
            _marker: PhantomData,
        }
    }

    /// Dereferences the untagged pointer.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null, must point to a live `T` for `'g`, and
    /// must have been obtained under the current pin via a protected load (or
    /// point to a never-retired cell such as a structure root).
    pub unsafe fn deref(&self) -> &'g T {
        &*self.as_raw()
    }

    /// Reclaims ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The pointer must originate from a block-aware constructor in this
    /// crate ([`Owned::new`], [`Atomic::new`], [`crate::alloc_raw`]) and no
    /// other reference to it may remain.
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null(), "into_owned of null");
        Owned { ptr: self.as_raw() as *mut T }
    }
}

impl<T> From<*const T> for Shared<'_, T> {
    fn from(ptr: *const T) -> Self {
        Shared { data: ptr as usize, _marker: PhantomData }
    }
}

impl<T> fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared({:p}, tag {})", self.as_raw(), self.tag())
    }
}

/// An owned, heap-allocated `T` not yet published to other threads.
///
/// Allocated in the reclaimable block layout, so the pointer can flow into
/// any backend's retirement path.
pub struct Owned<T> {
    ptr: *mut T,
}

impl<T> Owned<T> {
    /// Heap-allocates `value` (block layout, birth-era stamped).
    pub fn new(value: T) -> Owned<T> {
        Owned { ptr: block::alloc_block(value) }
    }

    /// Converts into a [`Shared`], transferring ownership to the structure.
    ///
    /// Extends the guard's reservation over the allocation's birth era first,
    /// so the caller may keep dereferencing the result even after other
    /// threads can see (and retire) it.
    pub fn into_shared<'g, G: ReclaimGuard>(self, guard: &'g G) -> Shared<'g, T> {
        guard.protect_current_era();
        let data = self.ptr as usize;
        mem::forget(self);
        Shared { data, _marker: PhantomData }
    }

    /// Deallocates the block and returns the value it held.
    pub fn into_inner(self) -> T {
        let value = unsafe { block::dealloc_block(self.ptr) };
        mem::forget(self);
        value
    }
}

impl<T> std::ops::Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.ptr }
    }
}

impl<T> std::ops::DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.ptr }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        unsafe { drop(block::dealloc_block(self.ptr)) };
    }
}

impl<T: fmt::Debug> fmt::Debug for Owned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Owned").field(&**self).finish()
    }
}
