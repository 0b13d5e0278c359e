//! Workload specifications: operation mixes and experiment parameters.

use crate::distribution::KeyDistribution;

/// Relative frequencies of the set operations, in percent.
///
/// The percentages of the paper's three point operations (`contains` /
/// `insert` / `remove`) must sum to 100.
///
/// # Examples
///
/// ```
/// use workload::OperationMix;
/// let mix = OperationMix::new(90, 9, 1);
/// assert_eq!(mix.contains_pct() + mix.insert_pct() + mix.remove_pct(), 100);
/// let updates = OperationMix::updates(20);
/// assert_eq!(updates.insert_pct(), 10);
/// assert_eq!(updates.remove_pct(), 10);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OperationMix {
    contains: u8,
    insert: u8,
    remove: u8,
}

impl OperationMix {
    /// Creates a mix from explicit percentages.
    ///
    /// # Panics
    ///
    /// Panics if the percentages do not sum to 100.
    pub fn new(contains: u8, insert: u8, remove: u8) -> Self {
        assert_eq!(
            contains as u32 + insert as u32 + remove as u32,
            100,
            "operation mix must sum to 100"
        );
        OperationMix { contains, insert, remove }
    }

    /// The conventional "x% updates" mix: updates are split evenly between
    /// inserts and removes (which keeps the structure size stable around its
    /// prefill level), the rest are lookups.
    ///
    /// # Panics
    ///
    /// Panics if `update_pct > 100`.
    pub fn updates(update_pct: u8) -> Self {
        assert!(update_pct <= 100);
        let insert = update_pct / 2;
        let remove = update_pct - insert;
        OperationMix { contains: 100 - update_pct, insert, remove }
    }

    /// Percentage of `contains` operations.
    pub fn contains_pct(&self) -> u8 {
        self.contains
    }

    /// Percentage of `insert` operations.
    pub fn insert_pct(&self) -> u8 {
        self.insert
    }

    /// Percentage of `remove` operations.
    pub fn remove_pct(&self) -> u8 {
        self.remove
    }

    /// Total update percentage (inserts plus removes).
    pub fn update_pct(&self) -> u8 {
        self.insert + self.remove
    }
}

impl Default for OperationMix {
    fn default() -> Self {
        OperationMix::updates(20)
    }
}

/// A complete workload description.
///
/// # Examples
///
/// ```
/// use workload::{KeyDistribution, OperationMix, WorkloadSpec};
/// let spec = WorkloadSpec::new(1 << 16, OperationMix::updates(50))
///     .distribution(KeyDistribution::Zipf { exponent: 0.99 })
///     .prefill_fraction(0.5)
///     .seed(7);
/// assert_eq!(spec.key_range(), 1 << 16);
/// assert_eq!(spec.prefill_target(), 1 << 15);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    key_range: u64,
    mix: OperationMix,
    distribution: KeyDistribution,
    prefill_fraction: f64,
    seed: u64,
    sample_every: u64,
}

/// Default latency sampling rate: one operation in every
/// `DEFAULT_SAMPLE_EVERY` is timed (see [`WorkloadSpec::sample_every`]).
///
/// Chosen so sampling overhead stays in the noise (two `Instant` reads per
/// sampled op, amortised over 64 ops) while a multi-second run still collects
/// hundreds of thousands of samples per thread.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

impl WorkloadSpec {
    /// Creates a spec over `[0, key_range)` with the given operation mix,
    /// uniform keys, 50% prefill and a fixed default seed.
    pub fn new(key_range: u64, mix: OperationMix) -> Self {
        WorkloadSpec {
            key_range,
            mix,
            distribution: KeyDistribution::Uniform,
            prefill_fraction: 0.5,
            seed: 0xBAD5EED,
            sample_every: DEFAULT_SAMPLE_EVERY,
        }
    }

    /// Sets the key popularity distribution.
    pub fn distribution(mut self, d: KeyDistribution) -> Self {
        self.distribution = d;
        self
    }

    /// Sets the fraction of the key range inserted before measurement starts.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= f <= 1.0`.
    pub fn prefill_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "prefill fraction must be in [0, 1]");
        self.prefill_fraction = f;
        self
    }

    /// Sets the RNG seed used for prefill and per-thread key streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the latency sampling rate: every `n`-th operation per thread is
    /// timed and recorded in the run's latency histogram.  `0` disables
    /// latency sampling entirely (no clock reads on the hot path).
    pub fn sample_every(mut self, n: u64) -> Self {
        self.sample_every = n;
        self
    }

    /// The latency sampling rate (`0` = sampling disabled).
    pub fn sample_rate(&self) -> u64 {
        self.sample_every
    }

    /// The key range `[0, key_range)`.
    pub fn key_range(&self) -> u64 {
        self.key_range
    }

    /// The operation mix.
    pub fn mix(&self) -> OperationMix {
        self.mix
    }

    /// The key distribution.
    pub fn key_distribution(&self) -> KeyDistribution {
        self.distribution
    }

    /// The configured seed.
    pub fn rng_seed(&self) -> u64 {
        self.seed
    }

    /// Number of keys the runner inserts before measuring.
    pub fn prefill_target(&self) -> u64 {
        (self.key_range as f64 * self.prefill_fraction) as u64
    }
}

/// A map workload: a [`WorkloadSpec`] plus the size of the value payload each
/// write carries.
///
/// The operation mix is reinterpreted for the map ADT — `contains` percent
/// becomes `get`, `insert` percent becomes `upsert` (the canonical map write:
/// it always installs its payload), `remove` stays `remove` — so set and map
/// rows of the same mix stay comparable.
///
/// # Examples
///
/// ```
/// use workload::{MapSpec, OperationMix, WorkloadSpec};
/// let spec = MapSpec::new(WorkloadSpec::new(1 << 16, OperationMix::updates(20)), 64);
/// assert_eq!(spec.value_bytes(), 64);
/// assert_eq!(spec.base().key_range(), 1 << 16);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapSpec {
    base: WorkloadSpec,
    value_bytes: usize,
}

impl MapSpec {
    /// Creates a map workload carrying `value_bytes`-sized payloads.
    pub fn new(base: WorkloadSpec, value_bytes: usize) -> Self {
        MapSpec { base, value_bytes }
    }

    /// The underlying key-space / mix / distribution spec.
    pub fn base(&self) -> &WorkloadSpec {
        &self.base
    }

    /// Size in bytes of the value payload each write installs.
    pub fn value_bytes(&self) -> usize {
        self.value_bytes
    }

    /// Builds one value payload for `key`: `value_bytes` bytes, stamped with
    /// the key so correctness checks can tie a value back to its key.
    pub fn payload_for(&self, key: u64) -> Vec<u8> {
        let mut v = vec![0u8; self.value_bytes];
        let stamp = key.to_le_bytes();
        for (i, b) in v.iter_mut().enumerate() {
            *b = stamp[i % stamp.len()];
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn mix_must_sum_to_100() {
        let _ = OperationMix::new(50, 40, 20);
    }

    /// 100 + 100 + 56 wraps to 0 in `u8`; the sum is checked wider.
    #[test]
    #[should_panic(expected = "sum to 100")]
    fn mix_sum_does_not_wrap_in_u8() {
        let _ = OperationMix::new(100, 100, 56);
    }

    #[test]
    fn map_spec_payloads_are_sized_and_stamped() {
        let spec = MapSpec::new(WorkloadSpec::new(100, OperationMix::updates(50)), 16);
        let p = spec.payload_for(0x0102_0304_0506_0708);
        assert_eq!(p.len(), 16);
        assert_eq!(&p[..8], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(&p[8..], &0x0102_0304_0506_0708u64.to_le_bytes());
        // Zero-byte payloads are legal (membership-only maps).
        let empty = MapSpec::new(WorkloadSpec::new(100, OperationMix::updates(50)), 0);
        assert!(empty.payload_for(7).is_empty());
    }

    #[test]
    fn updates_split_evenly() {
        let m = OperationMix::updates(0);
        assert_eq!(m.contains_pct(), 100);
        assert_eq!(m.update_pct(), 0);
        let m = OperationMix::updates(100);
        assert_eq!(m.contains_pct(), 0);
        assert_eq!(m.insert_pct(), 50);
        assert_eq!(m.remove_pct(), 50);
        let m = OperationMix::updates(25);
        assert_eq!(m.insert_pct(), 12);
        assert_eq!(m.remove_pct(), 13);
        assert_eq!(m.update_pct(), 25);
    }

    #[test]
    fn spec_builder_roundtrip() {
        let s = WorkloadSpec::new(1000, OperationMix::updates(10))
            .prefill_fraction(0.25)
            .seed(42)
            .distribution(KeyDistribution::Zipf { exponent: 1.1 });
        assert_eq!(s.key_range(), 1000);
        assert_eq!(s.prefill_target(), 250);
        assert_eq!(s.rng_seed(), 42);
        assert_eq!(s.mix().update_pct(), 10);
        assert!(matches!(s.key_distribution(), KeyDistribution::Zipf { .. }));
    }

    #[test]
    #[should_panic(expected = "prefill")]
    fn prefill_fraction_validated() {
        let _ = WorkloadSpec::new(10, OperationMix::default()).prefill_fraction(1.5);
    }

    #[test]
    fn sample_every_roundtrip() {
        let s = WorkloadSpec::new(10, OperationMix::default());
        assert_eq!(s.sample_rate(), DEFAULT_SAMPLE_EVERY);
        assert_eq!(s.sample_every(7).sample_rate(), 7);
        assert_eq!(s.sample_every(0).sample_rate(), 0);
    }

    #[test]
    fn default_mix_is_20pct_updates() {
        assert_eq!(OperationMix::default().update_pct(), 20);
    }
}
