//! The benchmark's own input generation: workload specs, seeded key streams
//! and operation mixes.  Everything a run feeds the structures derives from
//! the `--seed` argument and the constants below.

/// Splitmix64 finaliser: decorrelates seeds and stream lanes.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64* generator: a few cycles per draw, so input generation's share
/// of an operation stays small (see `driver.keygen_ns`).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(splitmix(seed) | 1)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (multiply-shift; bias is below 2^-40 for our `n`).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipf(`s`) over ranks `0..n` by rejection-inversion (Hörmann & Derflinger
/// 1996): O(1) per draw and no table, so the sampler adds nothing to the
/// resident set the benchmark reports.
#[derive(Clone, Debug)]
pub struct Zipf {
    s: f64,
    n: f64,
    h_x1: f64,
    h_n: f64,
    cut: f64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        let mut z = Zipf { s, n: n as f64, h_x1: 0.0, h_n: 0.0, cut: 0.0 };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(z.n + 0.5);
        z.cut = 2.0 - z.h_integral_inv(z.h_integral(2.5) - z.h(2.0));
        z
    }

    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    fn h_integral(&self, x: f64) -> f64 {
        let lx = x.ln();
        helper2((1.0 - self.s) * lx) * lx
    }

    fn h_integral_inv(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.s)).max(-1.0);
        (helper1(t) * x).exp()
    }

    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_n + rng.unit() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if k - x <= self.cut || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u64 - 1;
            }
        }
    }
}

/// `ln(1 + x) / x`, accurate near 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(e^x - 1) / x`, accurate near 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

/// One benchmark call.  On the set face `Read` is `contains` and `Write` is
/// `insert`; on the map face they are `get` and `upsert`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Read(u64),
    Write(u64),
    Remove(u64),
    /// Drain up to [`SCAN_TAKE`] entries of `[k, k + SCAN_SPAN)`.
    Scan(u64),
    /// `remove_range` over `[k, k + RANGE_SPAN)`.
    RemoveRange(u64),
}

impl Op {
    pub fn is_write(self) -> bool {
        !matches!(self, Op::Read(_) | Op::Scan(_))
    }

    pub fn key(self) -> u64 {
        match self {
            Op::Read(k) | Op::Write(k) | Op::Remove(k) | Op::Scan(k) | Op::RemoveRange(k) => k,
        }
    }

    /// The point-operation view used where a structure has no ordered
    /// operations (the cost ladder): scans read their first key, range
    /// removals remove it.
    pub fn point(self) -> Op {
        match self {
            Op::Scan(k) => Op::Read(k),
            Op::RemoveRange(k) => Op::Remove(k),
            op => op,
        }
    }
}

/// Key partitions of a partitioned workload: one per client.
pub const PARTITIONS: u64 = 2;

pub const SCAN_SPAN: u64 = 256;
pub const SCAN_TAKE: usize = 32;
pub const RANGE_SPAN: u64 = 16;

/// A workload: which face, how many keys, how they are drawn, and the mix.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Map face behind `ElasticMap` (`true`) or set face `LfBst<u64>`.
    pub map: bool,
    pub key_space: u64,
    /// Zipf exponent; `None` draws keys uniformly.
    pub zipf: Option<f64>,
    /// Per-10 000 weights of read, write, remove, scan, remove_range.
    pub mix: [u32; 5],
    /// Percent of the key space the prefill fills.
    pub occupancy_pct: u64,
    /// Client `t` draws uniform keys from partition `t % PARTITIONS` only:
    /// two clients writing the same keys can send `lfbst`'s helping into
    /// unbounded recursion (README.md).
    pub partitioned: bool,
    /// Keeps the workloads' streams apart for the same seed.
    tag: u64,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "read-mostly-large",
        map: false,
        key_space: 1 << 19,
        zipf: None,
        mix: [9_000, 900, 100, 0, 0],
        occupancy_pct: 90,
        partitioned: false,
        tag: 1,
    },
    Spec {
        name: "write-heavy-small",
        map: false,
        key_space: 1 << 16,
        zipf: None,
        mix: [0, 5_000, 5_000, 0, 0],
        occupancy_pct: 50,
        partitioned: true,
        tag: 2,
    },
    Spec {
        name: "map-skew-scan",
        map: true,
        key_space: 1 << 18,
        zipf: Some(0.99),
        mix: [7_490, 2_000, 300, 200, 10],
        occupancy_pct: 50,
        partitioned: false,
        tag: 3,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Independent generator lanes of one seed.
#[derive(Clone, Copy, Debug)]
enum Lane {
    Prefill,
    /// Worker `thread` of measured pass `pass`.
    Worker {
        pass: u64,
        thread: usize,
    },
}

impl Spec {
    fn seed_for(&self, seed: u64, lane: Lane) -> u64 {
        let lane = match lane {
            Lane::Prefill => 0,
            Lane::Worker { pass, thread } => 1 + pass * 64 + thread as u64,
        };
        splitmix(seed ^ splitmix(self.tag ^ splitmix(lane)))
    }

    pub fn prefill_len(&self) -> usize {
        (self.key_space * self.occupancy_pct / 100) as usize
    }

    /// Inserts [`prefill_len`](Self::prefill_len) distinct uniformly drawn
    /// keys through `insert`.  Random order keeps the unbalanced BST at
    /// logarithmic height; a sorted prefill would build a spine.  A bitmap
    /// of drawn keys skips redraws without a tree traversal, so a 90 %
    /// prefill costs no more traversals than keys.
    pub fn prefill(&self, seed: u64, mut insert: impl FnMut(u64) -> bool) -> usize {
        let mut rng = Rng::new(self.seed_for(seed, Lane::Prefill));
        let mut drawn = vec![0u64; self.key_space.div_ceil(64) as usize];
        let target = self.prefill_len();
        let mut len = 0;
        while len < target {
            let k = rng.below(self.key_space);
            let (word, bit) = ((k / 64) as usize, 1u64 << (k % 64));
            if drawn[word] & bit == 0 {
                drawn[word] |= bit;
                let inserted = insert(k);
                debug_assert!(inserted, "a fresh key is absent");
                len += 1;
            }
        }
        len
    }

    /// The op stream of client `thread` in pass `pass`.
    pub fn ops(&self, seed: u64, pass: u64, thread: usize) -> OpGen {
        let mut ops = OpGen::new(self, self.seed_for(seed, Lane::Worker { pass, thread }));
        if self.partitioned {
            ops.span = self.key_space / PARTITIONS;
            ops.offset = ops.span * (thread as u64 % PARTITIONS);
        }
        ops
    }
}

/// The per-thread operation stream of one workload.
#[derive(Clone, Debug)]
pub struct OpGen {
    rng: Rng,
    /// Uniform keys are drawn from `offset..offset + span`.
    offset: u64,
    span: u64,
    zipf: Option<Zipf>,
    /// Cumulative mix thresholds out of 10 000.
    cut: [u32; 4],
}

impl OpGen {
    fn new(spec: &Spec, seed: u64) -> Self {
        let m = spec.mix;
        let mut cut = [0u32; 4];
        let mut acc = 0;
        for (c, w) in cut.iter_mut().zip(m) {
            acc += w;
            *c = acc;
        }
        debug_assert_eq!(acc + m[4], 10_000, "mix weights sum to 10 000");
        OpGen {
            rng: Rng::new(seed),
            offset: 0,
            span: spec.key_space,
            zipf: spec.zipf.map(|s| Zipf::new(spec.key_space, s)),
            cut,
        }
    }

    #[inline]
    fn skewed_key(&mut self) -> u64 {
        match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.uniform_key(),
        }
    }

    #[inline]
    fn uniform_key(&mut self) -> u64 {
        self.offset + self.rng.below(self.span)
    }

    /// Removals draw uniform keys even when the rest is skewed: removing and
    /// reinserting Zipf-hot keys trips two `lfbst` bugs (README.md).
    #[inline]
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(10_000) as u32;
        if roll < self.cut[0] {
            Op::Read(self.skewed_key())
        } else if roll < self.cut[1] {
            Op::Write(self.skewed_key())
        } else if roll < self.cut[2] {
            Op::Remove(self.uniform_key())
        } else if roll < self.cut[3] {
            Op::Scan(self.skewed_key())
        } else {
            Op::RemoveRange(self.uniform_key())
        }
    }
}

/// Map values carry their key in the low 32 bits, so a `get` that returns
/// another key's value is caught.  Keys stay below 2^32 in every workload.
#[inline]
pub fn stamp(key: u64, nonce: u64) -> u64 {
    key | (nonce << 32)
}

#[inline]
pub fn stamped_for(key: u64, value: u64) -> bool {
    value & 0xFFFF_FFFF == key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let s = spec("map-skew-scan").unwrap();
        let a: Vec<Op> = (0..100).scan(s.ops(7, 0, 0), |g, _| Some(g.next_op())).collect();
        let b: Vec<Op> = (0..100).scan(s.ops(7, 0, 0), |g, _| Some(g.next_op())).collect();
        let c: Vec<Op> = (0..100).scan(s.ops(8, 0, 0), |g, _| Some(g.next_op())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1 << 18, 0.99);
        let mut rng = Rng::new(1);
        let draws: Vec<u64> = (0..100_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&k| k < 1 << 18));
        let top = draws.iter().filter(|&&k| k == 0).count() as f64 / draws.len() as f64;
        // 1 / H(2^18, 0.99) is about 0.075.
        assert!((0.06..0.09).contains(&top), "rank-0 share {top}");
    }

    #[test]
    fn mix_matches_weights() {
        let s = spec("read-mostly-large").unwrap();
        let mut g = s.ops(1, 0, 0);
        let reads = (0..100_000).filter(|_| matches!(g.next_op(), Op::Read(_))).count();
        assert!((89_000..91_000).contains(&reads), "reads {reads}");
    }
}
