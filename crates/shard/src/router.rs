//! Key-to-shard routing policies.
//!
//! A [`ShardRouter`] maps every key to one of `N` shard indices.  Two
//! policies are provided:
//!
//! * [`HashRouter`] — spreads keys uniformly by hashing.  Best load balance
//!   under skewed key popularity, but destroys key order across shards.
//! * [`BoundaryRouter`] — partitions the `u64` key space into contiguous
//!   strips at sorted split points.  Strip `i` holds keys strictly below
//!   strip `i + 1`'s, so a cross-shard ordered scan is a concatenation of
//!   per-shard scans over [`BoundaryRouter::span`].

use std::hash::{Hash, Hasher};
use std::ops::{Bound, RangeInclusive};

/// Maps keys to shard indices.
///
/// Implementations must be pure: the same key always routes to the same shard
/// index, and every returned index is `< shard_count()`.
pub trait ShardRouter<K>: Send + Sync {
    /// The number of shards this router targets.
    fn shard_count(&self) -> usize;

    /// The shard index for `key`, in `0..shard_count()`.
    fn route(&self, key: &K) -> usize;

    /// A short static label used in benchmark row names (`"hash"`,
    /// `"boundary"`).
    fn policy_name(&self) -> &'static str;
}

/// A fast, fixed-key multiply-xor hasher (FxHash-style).
///
/// Routing runs on every operation, so the standard `DefaultHasher` (SipHash)
/// would tax the hot path; this hasher is two multiplies per word and is more
/// than uniform enough for shard selection.
#[derive(Default)]
struct FxHasher {
    state: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so that low-entropy keys (sequential integers)
        // spread over the full 64-bit range before shard reduction.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Routes by hashing the key: uniform spread, order-destroying.
///
/// # Examples
///
/// ```
/// use shard::{HashRouter, ShardRouter};
///
/// let r = HashRouter::new(16);
/// assert_eq!(ShardRouter::<u64>::shard_count(&r), 16);
/// assert!(r.route(&42u64) < 16);
/// assert_eq!(r.route(&42u64), r.route(&42u64));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct HashRouter {
    shards: usize,
}

impl HashRouter {
    /// Creates a router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        HashRouter { shards }
    }
}

impl<K: Hash> ShardRouter<K> for HashRouter {
    #[inline]
    fn shard_count(&self) -> usize {
        self.shards
    }

    #[inline]
    fn route(&self, key: &K) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        // Multiply-shift reduction: unbiased for power-of-two shard counts and
        // near-unbiased otherwise, without a divide.
        ((h.finish() as u128 * self.shards as u128) >> 64) as usize
    }

    fn policy_name(&self) -> &'static str {
        "hash"
    }
}

/// Routes `u64` keys by an **explicit sorted boundary vector**: the one
/// order-preserving router, used by the static [`Sharded`](crate::Sharded)
/// facade and as the routing table elastic sharding rebalances.
///
/// `bounds` holds `shards - 1` strictly ascending split points; shard `i`
/// covers the half-open strip `[bounds[i - 1], bounds[i])` (with `bounds[-1]`
/// read as `0` and `bounds[shards - 1]` as `u64::MAX + 1`).  Routing is a
/// binary search (`partition_point`), so arbitrary — including heavily
/// lopsided — strip widths cost `O(log N)` instead of forcing equal strides.
/// It is **monotone** (`a <= b` implies `route(a) <= route(b)`): the keys of
/// any range live in the contiguous strips [`span`](Self::span) names.
///
/// # Examples
///
/// ```
/// use shard::{BoundaryRouter, ShardRouter};
/// use std::ops::Bound;
///
/// // Three strips: [0, 10), [10, 1000), [1000, u64::MAX].
/// let r = BoundaryRouter::new(vec![10, 1000]);
/// assert_eq!(r.shard_count(), 3);
/// assert_eq!(r.route(&9u64), 0);
/// assert_eq!(r.route(&10u64), 1);
/// assert_eq!(r.route(&u64::MAX), 2);
/// assert_eq!(r.span(Bound::Included(&5), Bound::Excluded(&10)), Some(0..=1));
///
/// // Equal-width strips over the keys 0..1000.
/// let even = BoundaryRouter::covering(4, 1000);
/// assert_eq!(even.route(&249u64), 0);
/// assert_eq!(even.route(&250u64), 1);
/// assert_eq!(even.route(&5000u64), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundaryRouter {
    bounds: Vec<u64>,
}

impl BoundaryRouter {
    /// Creates a router from `shards - 1` strictly ascending split points.
    ///
    /// An empty vector is the trivial single-shard router.
    ///
    /// # Panics
    ///
    /// Panics if the split points are not strictly ascending, or if any is
    /// `0` (which would make the first strip empty).
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "split points must be strictly ascending");
        assert!(bounds.first() != Some(&0), "a split point of 0 would make strip 0 empty");
        BoundaryRouter { bounds }
    }

    /// Creates `shards` equal-width strips over `[0, span)`; keys at or above
    /// `span` land in the last strip.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `span == 0`.
    pub fn covering(shards: usize, span: u64) -> Self {
        assert!(shards > 0, "shard count must be positive");
        assert!(span > 0, "key span must be non-empty");
        let stride = (span / shards as u64).max(1);
        // Strides of width `stride` until the span (or u64 range) runs out;
        // a span narrower than `shards` keys degenerates gracefully to
        // fewer-than-asked strips of width >= 1, never an empty one.
        let bounds: Vec<u64> = (1..shards as u64)
            .map(|i| i.saturating_mul(stride))
            .take_while(|b| *b < span)
            .collect();
        BoundaryRouter { bounds }
    }

    /// The split points, strictly ascending (`shard_count() - 1` of them).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// The contiguous strip interval holding every key of `[lo, hi]` —
    /// from the strip of `lo` to the strip of `hi`, whether either bound is
    /// inclusive or exclusive — or `None` when no key satisfies both bounds
    /// (an inverted or pinched range).
    pub fn span(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Option<RangeInclusive<usize>> {
        if cset::range_is_empty(&lo, &hi) {
            return None;
        }
        let first = match lo {
            Bound::Unbounded => 0,
            Bound::Included(k) | Bound::Excluded(k) => self.route(k),
        };
        let last = match hi {
            Bound::Unbounded => self.bounds.len(),
            Bound::Included(k) | Bound::Excluded(k) => self.route(k),
        };
        Some(first..=last)
    }

    /// Inclusive lower key of `strip`.
    pub(crate) fn strip_lower(&self, strip: usize) -> u64 {
        if strip == 0 {
            0
        } else {
            self.bounds[strip - 1]
        }
    }

    /// Exclusive upper key of `strip`, or `None` for the last strip.
    pub(crate) fn strip_upper(&self, strip: usize) -> Option<u64> {
        self.bounds.get(strip).copied()
    }
}

impl ShardRouter<u64> for BoundaryRouter {
    #[inline]
    fn shard_count(&self) -> usize {
        self.bounds.len() + 1
    }

    #[inline]
    fn route(&self, key: &u64) -> usize {
        self.bounds.partition_point(|b| *b <= *key)
    }

    fn policy_name(&self) -> &'static str {
        "boundary"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_router_is_total_and_stable() {
        let r = HashRouter::new(7);
        for k in 0u64..10_000 {
            let s = r.route(&k);
            assert!(s < 7);
            assert_eq!(s, r.route(&k), "routing must be deterministic");
        }
    }

    #[test]
    fn hash_router_spreads_sequential_keys() {
        // Sequential integer keys (the workload generator's key space) must
        // not clump: every shard should receive within 2x of its fair share.
        let shards = 16;
        let r = HashRouter::new(shards);
        let n = 64_000u64;
        let mut counts = vec![0u64; shards];
        for k in 0..n {
            counts[ShardRouter::<u64>::route(&r, &k)] += 1;
        }
        let fair = n / shards as u64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > fair / 2 && c < fair * 2,
                "shard {i} got {c} of {n} keys (fair share {fair})"
            );
        }
    }

    #[test]
    fn hash_router_generic_over_key_types() {
        let r = HashRouter::new(4);
        assert!(r.route(&"some-key") < 4);
        assert!(r.route(&(17u32, 3u8)) < 4);
    }

    #[test]
    fn covering_router_is_monotone() {
        let r = BoundaryRouter::covering(8, 1 << 16);
        let mut last = 0;
        for k in (0u64..(1 << 16)).step_by(97) {
            let s = r.route(&k);
            assert!(s >= last, "monotonicity violated at key {k}");
            assert!(s < 8);
            last = s;
        }
        assert_eq!(r.route(&0), 0);
        assert_eq!(r.route(&((1 << 16) - 1)), 7);
    }

    #[test]
    fn covering_full_space_covers_extremes() {
        let r = BoundaryRouter::covering(4, u64::MAX);
        assert_eq!(r.shard_count(), 4);
        assert_eq!(r.route(&0), 0);
        assert_eq!(r.route(&u64::MAX), 3);
    }

    #[test]
    fn covering_out_of_span_keys_land_in_last_strip() {
        let r = BoundaryRouter::covering(4, 100);
        assert_eq!(r.route(&1_000_000), 3);
    }

    #[test]
    fn covering_balances_uniform_span() {
        let shards = 4;
        let r = BoundaryRouter::covering(shards, 4_000);
        let mut counts = vec![0u64; shards];
        for k in 0..4_000u64 {
            counts[r.route(&k)] += 1;
        }
        assert_eq!(counts, vec![1_000; 4]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shards_rejected() {
        let _ = HashRouter::new(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shards_rejected_for_covering() {
        let _ = BoundaryRouter::covering(0, 10);
    }

    #[test]
    fn single_shard_routers_are_trivial() {
        let h = HashRouter::new(1);
        let r = BoundaryRouter::covering(1, 1 << 20);
        for k in [0u64, 17, u64::MAX] {
            assert_eq!(ShardRouter::<u64>::route(&h, &k), 0);
            assert_eq!(r.route(&k), 0);
        }
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(ShardRouter::<u64>::policy_name(&HashRouter::new(2)), "hash");
        assert_eq!(BoundaryRouter::new(vec![7]).policy_name(), "boundary");
    }

    #[test]
    fn boundary_router_routes_by_partition() {
        let r = BoundaryRouter::new(vec![10, 1000, 5000]);
        assert_eq!(r.shard_count(), 4);
        assert_eq!(r.route(&0), 0);
        assert_eq!(r.route(&9), 0);
        assert_eq!(r.route(&10), 1);
        assert_eq!(r.route(&999), 1);
        assert_eq!(r.route(&1000), 2);
        assert_eq!(r.route(&4999), 2);
        assert_eq!(r.route(&5000), 3);
        assert_eq!(r.route(&u64::MAX), 3);
    }

    #[test]
    fn boundary_router_is_monotone() {
        let r = BoundaryRouter::new(vec![3, 17, 18, 4096, 70_000]);
        let mut last = 0;
        for k in (0u64..100_000).step_by(13) {
            let s = r.route(&k);
            assert!(s >= last, "monotonicity violated at key {k}");
            assert!(s < r.shard_count());
            last = s;
        }
    }

    #[test]
    fn boundary_covering_is_the_equal_stride_partition() {
        for (shards, span) in [(4, 1000u64), (8, 1 << 16), (3, 7), (1, 100)] {
            let b = BoundaryRouter::covering(shards, span);
            let stride = span / shards as u64;
            assert_eq!(b.shard_count(), shards);
            for k in
                (0..span).step_by((span as usize / 97).max(1)).chain([0, span - 1, span, span + 5])
            {
                let expected = ((k / stride) as usize).min(shards - 1);
                assert_eq!(b.route(&k), expected, "key {k} (shards {shards}, span {span})");
            }
        }
    }

    #[test]
    fn span_names_exactly_the_strips_a_range_touches() {
        use Bound::{Excluded, Included, Unbounded};
        let r = BoundaryRouter::new(vec![10, 20, 30]);
        assert_eq!(r.span(Unbounded, Unbounded), Some(0..=3));
        assert_eq!(r.span(Included(&10), Included(&19)), Some(1..=1));
        // A bound's own strip is in the span even when the bound excludes it.
        assert_eq!(r.span(Included(&10), Excluded(&20)), Some(1..=2));
        assert_eq!(r.span(Included(&9), Included(&20)), Some(0..=2));
        assert_eq!(r.span(Excluded(&25), Unbounded), Some(2..=3));
        assert_eq!(r.span(Unbounded, Excluded(&5)), Some(0..=0));
        // Inverted and pinched ranges touch nothing, even within one strip.
        assert_eq!(r.span(Included(&25), Included(&5)), None);
        assert_eq!(r.span(Included(&15), Excluded(&15)), None);
        assert_eq!(r.span(Excluded(&15), Excluded(&15)), None);
    }

    #[test]
    fn boundary_covering_degenerates_without_empty_strips() {
        // More shards than keys: strips shrink to the span, never empty.
        let b = BoundaryRouter::covering(16, 4);
        assert_eq!(b.shard_count(), 4);
        assert_eq!(b.bounds(), &[1, 2, 3]);
    }

    #[test]
    fn boundary_empty_bounds_is_single_shard() {
        let b = BoundaryRouter::new(Vec::new());
        assert_eq!(b.shard_count(), 1);
        assert_eq!(b.route(&0), 0);
        assert_eq!(b.route(&u64::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn boundary_rejects_unsorted_bounds() {
        let _ = BoundaryRouter::new(vec![10, 10]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn boundary_rejects_zero_split() {
        let _ = BoundaryRouter::new(vec![0, 10]);
    }
}
