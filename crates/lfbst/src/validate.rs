//! Quiescent structural validation.
//!
//! These checks are meant for tests and debugging: they walk the tree without
//! synchronization and therefore must only be called while no other thread is
//! mutating it.  They verify every representation invariant the algorithm
//! relies on, in three passes:
//!
//! 1. a depth-first walk over unthreaded (parent) links from the topmost real
//!    node records each node's address and depth, rejects a residual flag or
//!    mark bit on any link it reads, and checks that a threaded right link
//!    points at the node that follows its subtree in order (the in-order
//!    successor), which the walk carries down.  Sorting the addresses then shows
//!    whether a node was reached through more than one parent link; the walk
//!    stops after `2 * len() + 64` visits, so a cycle of unthreaded links ends
//!    there as a repeated address instead of looping forever;
//! 2. an in-order walk over the threaded representation checks that keys
//!    strictly increase and that a threaded left link points to the node
//!    itself, and that the walk and the size counter both count the nodes
//!    pass 1 reached;
//! 3. every reachable node's backlink must name a reachable node or one of the
//!    two dummy roots, found by binary search over the sorted addresses; the
//!    backlink's target is never read, since it may already be freed.
//!
//! The only allocation that grows with the tree is that address vector, one
//! 8-byte word per node, reserved once at `len() + 2`; the walk's stack holds
//! O(height) entries.

use std::fmt;

use crossbeam_epoch::{Reclaimer, Shared};

use crate::link::{is_flag, is_mark, is_thread, same_node};
use crate::node::Node;
// Validation is quiescent-only, but acquire loads are used anyway so the walk
// also observes the final protocol steps of freshly joined worker threads.
use crate::tree::ord::LOAD as ORD;
use crate::tree::LfBst;
use crate::value::MapValue;
use cset::KeyBound;

/// A violated invariant discovered by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The in-order walk produced keys out of order or a duplicate.
    OrderViolation {
        /// Position in the in-order walk at which the violation was detected.
        position: usize,
    },
    /// A threaded left link does not point back at its own node.
    LeftThreadNotSelf,
    /// A threaded right link does not point at the in-order successor.
    RightThreadWrongSuccessor,
    /// A link still carries a flag or mark bit in a quiescent state.
    ResidualTag {
        /// `true` if the offending bit was a flag, `false` for a mark.
        flag: bool,
    },
    /// A node is reachable through more than one unthreaded (parent) link.
    MultipleParents,
    /// The size counter disagrees with the number of reachable nodes.
    SizeMismatch {
        /// Value reported by `len()`.
        counted: usize,
        /// Number of nodes reachable in the structure.
        reachable: usize,
    },
    /// A backlink refers to a node that is not reachable in the tree.
    DanglingBacklink,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::OrderViolation { position } => {
                write!(f, "in-order walk out of order at position {position}")
            }
            ValidationError::LeftThreadNotSelf => {
                write!(f, "threaded left link is not a self link")
            }
            ValidationError::RightThreadWrongSuccessor => {
                write!(f, "threaded right link does not point at the successor")
            }
            ValidationError::ResidualTag { flag } => {
                write!(f, "residual {} bit in quiescent state", if *flag { "flag" } else { "mark" })
            }
            ValidationError::MultipleParents => write!(f, "node has multiple parent links"),
            ValidationError::SizeMismatch { counted, reachable } => {
                write!(f, "size counter {counted} != reachable nodes {reachable}")
            }
            ValidationError::DanglingBacklink => write!(f, "backlink target not reachable"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Summary statistics produced by a successful [`validate`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidationReport {
    /// Number of (real) nodes reachable in the tree.
    pub nodes: usize,
    /// Height of the tree (longest unthreaded path from the topmost real node).
    pub height: usize,
}

/// Validates all structural invariants of `tree`.
///
/// # Errors
///
/// Returns the first [`ValidationError`] found.
///
/// # Examples
///
/// ```
/// use lfbst::LfBst;
/// use lfbst::validate::validate;
///
/// let t = LfBst::new();
/// for k in [3u64, 1, 4, 1, 5, 9, 2, 6] {
///     t.insert(k);
/// }
/// t.remove(&4);
/// let report = validate(&t).expect("structure is consistent");
/// assert_eq!(report.nodes, 6);
/// ```
pub fn validate<K: Ord + Clone + std::fmt::Debug, V: MapValue, R: Reclaimer>(
    tree: &LfBst<K, V, R>,
) -> Result<ValidationReport, ValidationError> {
    let guard = &R::pin();
    let root0 = tree.root0();
    let root1 = tree.root1();
    let addr = |s: Shared<'_, Node<K, V>>| s.with_tag(0).as_raw() as usize;
    let dummies = [addr(root0), addr(root1)];

    // Pass 1: DFS over unthreaded links, recording every address reached (the
    // two dummies first) and the deepest depth.  Each entry carries the node
    // that follows its subtree in order, which a right thread must name; a
    // node reached twice sees a wrong successor on one path, so that error
    // waits until the repeated address has been ruled out.
    let counted = tree.len();
    let max_visits = 2 * counted + 64;
    let mut nodes: Vec<usize> = Vec::with_capacity(counted + 2);
    nodes.extend(dummies);
    let mut height = 0usize;
    let mut wrong_thread = false;
    let top = unsafe { root0.deref() }.child[1].load(ORD, guard);
    if !is_thread(top) {
        let mut stack = vec![(top.with_tag(0), 1usize, root1)];
        while let Some((node, depth, successor)) = stack.pop() {
            if nodes.len() - 2 > max_visits {
                break;
            }
            nodes.push(addr(node));
            height = height.max(depth);
            let n = unsafe { node.deref() };
            for dir in 0..2 {
                let link = n.child[dir].load(ORD, guard);
                if is_flag(link) {
                    return Err(ValidationError::ResidualTag { flag: true });
                }
                if is_mark(link) {
                    return Err(ValidationError::ResidualTag { flag: false });
                }
                if !is_thread(link) {
                    let after = if dir == 0 { node } else { successor };
                    stack.push((link.with_tag(0), depth + 1, after));
                } else if dir == 1 && !same_node(link, successor) {
                    wrong_thread = true;
                }
            }
        }
    }
    let reachable = nodes.len() - 2;
    nodes.sort_unstable();
    if nodes.windows(2).any(|w| w[0] == w[1]) {
        return Err(ValidationError::MultipleParents);
    }
    if wrong_thread {
        return Err(ValidationError::RightThreadWrongSuccessor);
    }

    // Pass 2: in-order walk over the threaded representation, checking order
    // and threading invariants.
    let mut prev_key: Option<KeyBound<K>> = None;
    let mut position = 0usize;
    let mut in_order_nodes = 0usize;
    let mut curr = root0;
    loop {
        let n = unsafe { curr.deref() };
        // Check threading of this node's links.
        let left = n.child[0].load(ORD, guard);
        if is_thread(left) && !same_node(left, curr) {
            return Err(ValidationError::LeftThreadNotSelf);
        }
        let right = n.child[1].load(ORD, guard);
        // The in-order successor: the right thread (checked in pass 1), or the
        // leftmost node of the right subtree.
        let successor = if is_thread(right) {
            right.with_tag(0)
        } else {
            let mut s = right.with_tag(0);
            loop {
                let l = unsafe { s.deref() }.child[0].load(ORD, guard);
                if is_thread(l) {
                    break s;
                }
                s = l.with_tag(0);
            }
        };
        // Order check.
        if let Some(pk) = &prev_key {
            if *pk >= n.key {
                return Err(ValidationError::OrderViolation { position });
            }
        }
        prev_key = Some(n.key.clone());
        if n.key.is_key() {
            in_order_nodes += 1;
        }
        position += 1;
        if same_node(curr, root1) {
            break;
        }
        curr = successor;
        if position > reachable + 8 {
            // Defensive: a cycle in the threaded representation.
            return Err(ValidationError::OrderViolation { position });
        }
    }

    // A pass 1 cut off at `max_visits` without a repeated address counted more
    // than twice the size counter, so it fails the second check.
    if in_order_nodes != reachable {
        return Err(ValidationError::SizeMismatch {
            counted: reachable,
            reachable: in_order_nodes,
        });
    }
    if counted != reachable {
        return Err(ValidationError::SizeMismatch { counted, reachable });
    }

    // Pass 3: every reachable node's backlink must itself reference a reachable
    // node (or one of the two dummies).
    for &raw in nodes.iter().filter(|raw| !dummies.contains(raw)) {
        // SAFETY: `raw` is a node pass 1 reached through the tree's links, and
        // the quiescent caller frees nothing while `validate` runs.
        let b = unsafe { &*(raw as *const Node<K, V>) }.backlink.load(ORD, guard);
        if b.is_null() || nodes.binary_search(&addr(b)).is_err() {
            return Err(ValidationError::DanglingBacklink);
        }
    }

    Ok(ValidationReport { nodes: reachable, height })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{FLAG, MARK, THREAD};
    use crossbeam_epoch::{Atomic, Ebr, Owned};
    use std::sync::atomic::Ordering::SeqCst;

    type Guard = <Ebr as Reclaimer>::Guard;

    /// The tree `2` with children `1` and `3`: keys inserted 2, 1, 3.
    fn small_tree() -> LfBst<u64> {
        let t = LfBst::new();
        for k in [2, 1, 3] {
            assert!(t.insert(k));
        }
        validate(&t).expect("a freshly built tree is consistent");
        t
    }

    /// A node of a tree the test owns.
    fn node<'g>(s: Shared<'g, Node<u64>>) -> &'g Node<u64> {
        // SAFETY: the tests below corrupt only link words and keys, never
        // free a tree node, and drop the tree after their last use of it.
        unsafe { s.deref() }
    }

    /// The nodes holding keys 1, 2 and 3 of [`small_tree`].
    fn nodes<'g>(t: &LfBst<u64>, guard: &'g Guard) -> [Shared<'g, Node<u64>>; 3] {
        let two = node(t.root0()).child[1].load(SeqCst, guard);
        let (one, three) =
            (node(two).child[0].load(SeqCst, guard), node(two).child[1].load(SeqCst, guard));
        assert!(![one, two, three].into_iter().any(is_thread), "2 is the parent of 1 and 3");
        [one, two, three]
    }

    /// Runs `validate` with `bad` stored in `link`, then puts the old word back
    /// so that `Drop` frees each node exactly once.
    fn validate_with(
        t: &LfBst<u64>,
        link: &Atomic<Node<u64>>,
        bad: Shared<'_, Node<u64>>,
        guard: &Guard,
    ) -> Result<ValidationReport, ValidationError> {
        let good = link.load(SeqCst, guard);
        link.store(bad, SeqCst);
        let result = validate(t);
        link.store(good, SeqCst);
        validate(t).expect("the restored tree is consistent");
        result
    }

    #[test]
    fn second_parent_link_is_rejected() {
        let t = small_tree();
        let g = Ebr::pin();
        let [one, _, three] = nodes(&t, &g);
        // 3's left thread becomes a second parent link to 1.
        let link = &node(three).child[0];
        assert_eq!(validate_with(&t, link, one, &g), Err(ValidationError::MultipleParents));
    }

    #[test]
    fn cycle_of_parent_links_is_rejected_without_hanging() {
        let t = small_tree();
        let g = Ebr::pin();
        let [one, two, _] = nodes(&t, &g);
        // 1's left thread becomes a parent link back up to 2: 2 -> 1 -> 2 -> ...
        let link = &node(one).child[0];
        assert_eq!(validate_with(&t, link, two, &g), Err(ValidationError::MultipleParents));
    }

    #[test]
    fn backlink_outside_the_tree_is_rejected() {
        let t = small_tree();
        let g = Ebr::pin();
        let [_, _, three] = nodes(&t, &g);
        let stray = Owned::new(Node::<u64>::new(KeyBound::Key(9))).into_shared(&g);
        let link = &node(three).backlink;
        let result = validate_with(&t, link, stray, &g);
        // SAFETY: `stray` was never linked into the tree, so this is its only owner.
        drop(unsafe { stray.into_owned() });
        assert_eq!(result, Err(ValidationError::DanglingBacklink));
    }

    #[test]
    fn leftover_flag_and_mark_are_rejected() {
        let t = small_tree();
        let g = Ebr::pin();
        let [one, _, three] = nodes(&t, &g);
        let right = &node(three).child[1];
        let flagged = right.load(SeqCst, &g).with_tag(THREAD | FLAG);
        assert_eq!(
            validate_with(&t, right, flagged, &g),
            Err(ValidationError::ResidualTag { flag: true })
        );
        let left = &node(one).child[0];
        let marked = left.load(SeqCst, &g).with_tag(THREAD | MARK);
        assert_eq!(
            validate_with(&t, left, marked, &g),
            Err(ValidationError::ResidualTag { flag: false })
        );
    }

    #[test]
    fn left_thread_to_another_node_is_rejected() {
        let t = small_tree();
        let g = Ebr::pin();
        let [one, _, three] = nodes(&t, &g);
        let link = &node(three).child[0];
        assert_eq!(
            validate_with(&t, link, one.with_tag(THREAD), &g),
            Err(ValidationError::LeftThreadNotSelf)
        );
    }

    #[test]
    fn right_thread_to_a_non_successor_is_rejected() {
        let t = small_tree();
        let g = Ebr::pin();
        let [one, _, three] = nodes(&t, &g);
        // 1's successor is 2, not 3.
        let link = &node(one).child[1];
        assert_eq!(
            validate_with(&t, link, three.with_tag(THREAD), &g),
            Err(ValidationError::RightThreadWrongSuccessor)
        );
    }

    #[test]
    fn keys_out_of_order_are_rejected() {
        let t = small_tree();
        let g = Ebr::pin();
        let [one, _, three] = nodes(&t, &g);
        let (p1, p3) = (one.as_raw() as *mut Node<u64>, three.as_raw() as *mut Node<u64>);
        // SAFETY: two distinct live nodes of a tree no other thread can see,
        // and no reference to either key is held across the swap.
        let swap_keys = || unsafe {
            std::ptr::swap(std::ptr::addr_of_mut!((*p1).key), std::ptr::addr_of_mut!((*p3).key));
        };
        // In-order walk: -inf, 3, 2, 1, +inf; the first descent is at 2.
        swap_keys();
        let result = validate(&t);
        swap_keys();
        assert_eq!(result, Err(ValidationError::OrderViolation { position: 2 }));
        validate(&t).expect("the restored tree is consistent");
    }

    #[test]
    fn size_counter_off_by_one_is_rejected() {
        let t = small_tree();
        // `Drop` walks the links, not the counter, so nothing needs restoring.
        t.note_removal();
        assert_eq!(validate(&t), Err(ValidationError::SizeMismatch { counted: 2, reachable: 3 }));
    }

    #[test]
    fn empty_tree_validates() {
        let t: LfBst<u64> = LfBst::new();
        let r = validate(&t).unwrap();
        assert_eq!(r.nodes, 0);
        assert_eq!(r.height, 0);
    }

    #[test]
    fn populated_tree_validates() {
        let t = LfBst::new();
        for k in 0..100u64 {
            t.insert(k * 7 % 101);
        }
        let r = validate(&t).unwrap();
        assert_eq!(r.nodes, 100);
        assert!(r.height >= 7); // at least log2(100)
    }

    #[test]
    fn validation_after_mixed_operations() {
        let t = LfBst::new();
        for k in 0..512u64 {
            t.insert(k);
        }
        for k in (0..512u64).filter(|k| k % 3 == 0) {
            t.remove(&k);
        }
        for k in (0..512u64).filter(|k| k % 6 == 0) {
            t.insert(k);
        }
        let r = validate(&t).unwrap();
        assert_eq!(r.nodes, t.len());
        assert_eq!(r.height, t.height());
    }

    #[test]
    fn report_is_copy_and_debug() {
        let r = ValidationReport { nodes: 3, height: 2 };
        let r2 = r;
        assert_eq!(r, r2);
        assert!(format!("{r:?}").contains("nodes"));
    }

    #[test]
    fn error_display_messages() {
        let msgs = [
            ValidationError::OrderViolation { position: 3 }.to_string(),
            ValidationError::LeftThreadNotSelf.to_string(),
            ValidationError::RightThreadWrongSuccessor.to_string(),
            ValidationError::ResidualTag { flag: true }.to_string(),
            ValidationError::ResidualTag { flag: false }.to_string(),
            ValidationError::MultipleParents.to_string(),
            ValidationError::SizeMismatch { counted: 1, reachable: 2 }.to_string(),
            ValidationError::DanglingBacklink.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
