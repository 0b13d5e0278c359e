//! Bounded-memory k-way merge over per-shard streaming cursors.
//!
//! A cross-shard ordered scan used to collect every shard's result `Vec` and
//! concatenate — O(total result) memory before the caller saw the first key.
//! The merger here holds exactly **one pending item per shard cursor** in a
//! [`BinaryHeap`] and pull replacements lazily as items are consumed, so a
//! scan's resident cost is `O(shards)` plus whatever page the caller is
//! building, independent of the range size.  Early-exit consumers (top-k,
//! pagination) therefore never touch the tail of any shard.
//!
//! With an order-preserving router the per-shard streams are ascending *and*
//! key-disjoint, so the heap degenerates into "drain one cursor, then the
//! next" — the merge costs `O(log shards)` per item in the worst case and
//! behaves like plain concatenation in the common one.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

use cset::EntryCursor;

/// One pending item of the merge: the current head of cursor `src`.
///
/// Ordered by `key` (then `src` for determinism on duplicate keys), reversed
/// so that `BinaryHeap`'s max-heap pops the smallest key first.  The value is
/// payload only — it never participates in the comparison, so `V` needs no
/// bounds.
struct Head<K, V> {
    key: K,
    value: V,
    src: usize,
}

impl<K: Ord, V> PartialEq for Head<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}

impl<K: Ord, V> Eq for Head<K, V> {}

impl<K: Ord, V> PartialOrd for Head<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, V> Ord for Head<K, V> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: the heap is a max-heap, the merge needs the minimum.
        other.key.cmp(&self.key).then_with(|| other.src.cmp(&self.src))
    }
}

/// K-way merge over per-shard entry cursors; yields `(key, value)` pairs in
/// ascending key order.  A set scan is the `V = ()` case.
pub struct MergedEntries<'a, K, V> {
    heap: BinaryHeap<Head<K, V>>,
    /// Disjoint-run fast path: the overall minimum, kept out of the heap
    /// when it is known to precede every heap entry (see `Iterator::next`).
    front: Option<Head<K, V>>,
    cursors: Vec<EntryCursor<'a, K, V>>,
}

impl<'a, K: Ord, V> MergedEntries<'a, K, V> {
    /// Builds the merge, priming the heap with each cursor's first item
    /// (the only eager work; everything else is pulled on demand).
    pub fn new(mut cursors: Vec<EntryCursor<'a, K, V>>) -> Self {
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (src, cursor) in cursors.iter_mut().enumerate() {
            if let Some((key, value)) = cursor.next() {
                heap.push(Head { key, value, src });
            }
        }
        MergedEntries { heap, front: None, cursors }
    }
}

impl<K: Ord, V> Iterator for MergedEntries<'_, K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        let Head { key, value, src } = match self.front.take() {
            Some(head) => head,
            None => self.heap.pop()?,
        };
        if let Some((k, v)) = self.cursors[src].next() {
            let head = Head { key: k, value: v, src };
            // With an ordered router the per-shard runs are key-disjoint, so
            // the replacement usually still precedes every other stream's
            // head: keep it in `front` (one comparison) instead of paying a
            // heap round-trip per item.  `head < top` in the reversed
            // ordering means `top`'s key comes first.
            match self.heap.peek() {
                Some(top) if head < *top => self.heap.push(head),
                _ => self.front = Some(head),
            }
        }
        Some((key, value))
    }
}

impl<K, V> std::fmt::Debug for MergedEntries<'_, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergedEntries")
            .field("cursors", &self.cursors.len())
            .field("pending", &(self.heap.len() + usize::from(self.front.is_some())))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(keys: Vec<u64>) -> EntryCursor<'static, u64, ()> {
        Box::new(keys.into_iter().map(|k| (k, ())))
    }

    fn merged_keys(cursors: Vec<EntryCursor<'static, u64, ()>>) -> Vec<u64> {
        MergedEntries::new(cursors).map(|(k, ())| k).collect()
    }

    #[test]
    fn merges_disjoint_ascending_streams() {
        let merged = merged_keys(vec![boxed(vec![1, 2, 3]), boxed(vec![10, 11]), boxed(vec![20])]);
        assert_eq!(merged, vec![1, 2, 3, 10, 11, 20]);
    }

    #[test]
    fn merges_interleaved_streams() {
        let merged =
            merged_keys(vec![boxed(vec![1, 4, 7]), boxed(vec![2, 5, 8]), boxed(vec![3, 6, 9])]);
        assert_eq!(merged, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_uneven_streams() {
        let merged = merged_keys(vec![boxed(vec![]), boxed(vec![5]), boxed(vec![])]);
        assert_eq!(merged, vec![5]);
        assert!(merged_keys(Vec::new()).is_empty());
    }

    #[test]
    fn duplicate_keys_break_ties_by_source() {
        let merged: Vec<(u64, &str)> = MergedEntries::new(vec![
            Box::new(vec![(1u64, "a"), (3, "a")].into_iter()) as EntryCursor<'static, u64, &str>,
            Box::new(vec![(1u64, "b")].into_iter()),
        ])
        .collect();
        assert_eq!(merged, vec![(1, "a"), (1, "b"), (3, "a")]);
    }

    #[test]
    fn merge_is_lazy() {
        // An infinite cursor: the merge must never try to drain it.
        let mut merged =
            MergedEntries::new(vec![boxed(vec![100, 200]), Box::new((0u64..).map(|k| (k, ())))]);
        assert_eq!(merged.next(), Some((0, ())));
        assert_eq!(merged.next(), Some((1, ())));
        let next_three: Vec<u64> = merged.take(3).map(|(k, ())| k).collect();
        assert_eq!(next_three, vec![2, 3, 4]);
    }
}
