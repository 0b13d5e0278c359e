//! Log-linear latency histogram: 64 sub-buckets per power of two (about
//! 1.6 % wide), exact below 128 ns, fixed 30 KiB per histogram whatever the
//! sample count, so recording never moves the reported resident set.
//! Quantiles interpolate inside their bucket by rank.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const EXACT: u64 = 2 * SUB;
const BUCKETS: usize = (EXACT + (64 - SUB_BITS as u64 - 1) * SUB) as usize;

#[derive(Clone, Debug)]
pub struct Hist {
    counts: Box<[u64]>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS].into_boxed_slice(), n: 0 }
    }
}

fn index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (EXACT + u64::from(shift - 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// Lower edge and width of bucket `i`.
fn bucket(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < EXACT {
        return (i as f64, 1.0);
    }
    let shift = (i - EXACT) / SUB + 1;
    let top = (i - EXACT) % SUB + SUB;
    ((top << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q` quantile (0..=1); 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut below = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if rank < below + c {
                let (low, width) = bucket(i);
                return low + width * (rank - below + 0.5) / c;
            }
            below += c;
        }
        let (low, width) = bucket(BUCKETS - 1);
        low + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1000, 65_535, 1 << 40, 3 << 61] {
            let (low, width) = bucket(index(v));
            assert!(low <= v as f64 && (v as f64) < low + width, "{v}");
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_a_bucket() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 5_000.0).abs() < 5_000.0 * 0.02, "{p50}");
        assert!((p99 - 9_900.0).abs() < 9_900.0 * 0.02, "{p99}");
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }
}
