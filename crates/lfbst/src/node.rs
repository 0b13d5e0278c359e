//! Node layout for the lock-free threaded BST.
//!
//! A node is the paper's five-word record (listing lines 1–6): a key, two child
//! links (each carrying three stolen bits: *thread*, *mark*, *flag*), a
//! `backlink` used to recover from failed CAS steps without restarting from the
//! root, and a `prelink` that points a node under removal at its *order node*
//! (the node its incoming threaded link emanates from).
//!
//! The map face adds a value cell beside the key.  Its size is decided by the
//! value type's [`MapValue`] impl: zero bytes for the set alias (`V = ()`), so
//! the paper's footprint survives verbatim, and one extra atomic word for every
//! real value type — the value's own bits for a word-sized scalar, a pointer
//! to the boxed value otherwise; see `value.rs`.

use crossbeam_epoch::Atomic;
use cset::KeyBound;

use crate::value::MapValue;

/// A tree node.
///
/// The child links are tagged `crossbeam_epoch` pointers; the node is
/// over-aligned to 8 bytes so that the three low bits of a node address are
/// always zero and can carry the `THREAD`/`MARK`/`FLAG` bits.
#[repr(align(8))]
pub(crate) struct Node<K, V: MapValue = ()> {
    /// The key, extended with the `-inf` / `+inf` sentinels used by the two
    /// permanent dummy root nodes.
    pub(crate) key: KeyBound<K>,
    /// The value cell (zero-sized for the set alias).  Initialised before the
    /// node is published; the two sentinel roots leave it uninitialised and
    /// never read it.
    pub(crate) value: V::Cell,
    /// `child[0]` = left link, `child[1]` = right link.  Tagged.
    pub(crate) child: [Atomic<Node<K, V>>; 2],
    /// Recovery pointer to (a recent) parent.  Untagged, never used for traversal.
    pub(crate) backlink: Atomic<Node<K, V>>,
    /// Pointer from a node under removal to its order node.  Untagged; a hint
    /// validated before use (see `remove.rs`).
    pub(crate) prelink: Atomic<Node<K, V>>,
}

impl<K, V: MapValue> Node<K, V> {
    /// Creates a detached node with null links and an empty value cell.
    ///
    /// The caller is responsible for initialising the links (and, for real
    /// keys, the value cell) before publishing the node into the tree (see
    /// `LfBst::insert` and `LfBst::new`).
    pub(crate) fn new(key: KeyBound<K>) -> Self {
        Node {
            key,
            value: V::Cell::default(),
            child: [Atomic::null(), Atomic::null()],
            backlink: Atomic::null(),
            prelink: Atomic::null(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch::{Ebr, Reclaimer};

    #[test]
    fn node_alignment_leaves_three_tag_bits() {
        assert!(std::mem::align_of::<Node<u8>>() >= 8);
        assert!(std::mem::align_of::<Node<u64>>() >= 8);
        assert!(std::mem::align_of::<Node<String>>() >= 8);
        assert!(std::mem::align_of::<Node<u64, u64>>() >= 8);
    }

    #[test]
    fn node_is_five_words_for_word_sized_keys() {
        // The paper notes the design uses 5n memory words for n nodes.  With a
        // word-sized key and the KeyBound discriminant the Rust layout stays
        // within six words; this test documents (and pins) the footprint of
        // the set alias: the `()` value cell is zero-sized, so generalising
        // the node to `Node<K, V>` cost the Set face nothing.
        let words = std::mem::size_of::<Node<usize>>() / std::mem::size_of::<usize>();
        assert!((5..=6).contains(&words), "Node<usize> occupies {words} words, expected 5-6");
        assert_eq!(
            std::mem::size_of::<Node<usize>>(),
            std::mem::size_of::<Node<usize, ()>>(),
            "the set alias is exactly the unit-valued node"
        );
    }

    #[test]
    fn map_node_costs_exactly_one_extra_word() {
        // The map layout's documented cost over the paper's record: one atomic
        // word (a scalar's bits, or the pointer to the boxed value),
        // independent of the value type's own size — large payloads live
        // behind the pointer, not in the node.
        let set_words = std::mem::size_of::<Node<usize>>() / std::mem::size_of::<usize>();
        for (label, map_bytes) in [
            ("u64", std::mem::size_of::<Node<usize, u64>>()),
            ("String", std::mem::size_of::<Node<usize, String>>()),
            ("Vec<u8>", std::mem::size_of::<Node<usize, Vec<u8>>>()),
        ] {
            let map_words = map_bytes / std::mem::size_of::<usize>();
            assert_eq!(
                map_words,
                set_words + 1,
                "Node<usize, {label}> should cost exactly one word over the set node"
            );
        }
    }

    #[test]
    fn new_node_has_null_links() {
        let n: Node<u32> = Node::new(KeyBound::Key(7));
        let guard = Ebr::pin();
        assert!(n.child[0].load(std::sync::atomic::Ordering::SeqCst, &guard).is_null());
        assert!(n.child[1].load(std::sync::atomic::Ordering::SeqCst, &guard).is_null());
        assert!(n.backlink.load(std::sync::atomic::Ordering::SeqCst, &guard).is_null());
        assert!(n.prelink.load(std::sync::atomic::Ordering::SeqCst, &guard).is_null());
        assert_eq!(n.key, KeyBound::Key(7));
    }

    #[test]
    fn new_map_node_has_empty_value_cell() {
        use crate::value::ValueCell;
        // `String` is boxed, so a fresh cell is empty; an inline scalar cell
        // has no empty state.
        let n: Node<u32, String> = Node::new(KeyBound::Key(7));
        let guard = Ebr::pin();
        assert!(n.value.read_with(&guard, String::clone).is_none());
        n.value.init("seventy".into());
        assert_eq!(n.value.read_with(&guard, String::clone).as_deref(), Some("seventy"));
    }
}
