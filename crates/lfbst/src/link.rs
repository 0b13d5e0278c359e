//! Tagged-link helpers.
//!
//! Every child link of a [`Node`](crate::node::Node) is a `crossbeam_epoch`
//! pointer whose three low bits encode, from least significant to most
//! significant: **thread**, **mark**, **flag** (paper listing line 3).
//!
//! * `THREAD` — the link is a thread: a right thread points to the in-order
//!   successor, a left thread points to the node itself.
//! * `MARK`   — the link belongs to a node that is logically removed (right
//!   link) or whose outgoing pointer is frozen for a pending removal (left
//!   link); a marked link never changes again except when the removal's final
//!   pointer swing replaces the whole word.
//! * `FLAG`   — the link is held by a pending `Remove`: no `Add` or `Remove`
//!   may inject at a flagged link; helpers use the flag to discover and finish
//!   the pending removal.

use crossbeam_epoch::Shared;

/// Thread bit: the link is an in-order thread rather than a child pointer.
pub(crate) const THREAD: usize = 0b001;
/// Mark bit: the link is frozen by a removal of its source node.
pub(crate) const MARK: usize = 0b010;
/// Flag bit: the link is held by a pending removal of its target node.
pub(crate) const FLAG: usize = 0b100;

/// Claim bit, used on the `prelink` word only (never on child links): set by
/// the one `remove` call that gets to report this node's logical removal as
/// its own success.  A node's right link is marked at most once in its
/// lifetime (marked nodes are only ever retired, never revived), so a
/// once-ever bit on the node arbitrates success attribution exactly — see
/// `remove.rs::try_claim_removal` and DESIGN.md §7 (bug 7).
pub(crate) const CLAIMED: usize = 0b001;

/// Returns `true` if the link carries the thread bit.
#[inline]
pub(crate) fn is_thread<T>(s: Shared<'_, T>) -> bool {
    s.tag() & THREAD != 0
}

/// Returns `true` if the link carries the mark bit.
#[inline]
pub(crate) fn is_mark<T>(s: Shared<'_, T>) -> bool {
    s.tag() & MARK != 0
}

/// Returns `true` if the link carries the flag bit.
#[inline]
pub(crate) fn is_flag<T>(s: Shared<'_, T>) -> bool {
    s.tag() & FLAG != 0
}

/// Returns `true` if the link carries neither the mark nor the flag bit.
#[inline]
pub(crate) fn is_clean<T>(s: Shared<'_, T>) -> bool {
    s.tag() & (MARK | FLAG) == 0
}

/// Returns `true` if the two pointers refer to the same node, ignoring tags.
#[inline]
pub(crate) fn same_node<T>(a: Shared<'_, T>, b: Shared<'_, T>) -> bool {
    a.with_tag(0) == b.with_tag(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch::{Ebr, Owned, Reclaimer};

    #[test]
    fn tag_bits_are_distinct_and_fit_alignment() {
        assert_eq!(THREAD & MARK, 0);
        assert_eq!(THREAD & FLAG, 0);
        assert_eq!(MARK & FLAG, 0);
        assert_eq!(THREAD | MARK | FLAG, 0b111);
    }

    #[test]
    fn predicates_read_the_right_bits() {
        let guard = Ebr::pin();
        let p = Owned::new(0u64).into_shared(&guard);
        assert!(is_clean(p));
        assert!(!is_thread(p));
        let t = p.with_tag(THREAD);
        assert!(is_thread(t) && is_clean(t) && !is_mark(t) && !is_flag(t));
        let m = p.with_tag(THREAD | MARK);
        assert!(is_thread(m) && is_mark(m) && !is_flag(m) && !is_clean(m));
        let f = p.with_tag(FLAG);
        assert!(is_flag(f) && !is_mark(f) && !is_clean(f));
        unsafe {
            drop(p.into_owned());
        }
    }

    #[test]
    fn same_node_ignores_tags() {
        let guard = Ebr::pin();
        let a = Owned::new(1u64).into_shared(&guard);
        let b = Owned::new(1u64).into_shared(&guard);
        assert!(same_node(a, a.with_tag(FLAG | MARK | THREAD)));
        assert!(!same_node(a, b));
        unsafe {
            drop(a.into_owned());
            drop(b.into_owned());
        }
    }
}
