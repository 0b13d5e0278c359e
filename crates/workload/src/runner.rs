//! The measurement drivers.  One closed-loop runner, [`run_closed_loop`],
//! owns the start barrier, stop flag, batching, latency sampling and join;
//! [`prefill`] builds every starting population.  The `run_*` entry points
//! are thin adapters that map an [`OpStream`] draw onto one ADT face —
//! [`run_workload`] for the Set ADT, [`run_map_workload`] for the Map ADT.
//! [`run_teardown_cycle`] is the single-threaded refill/teardown cycle of
//! experiment E16.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cset::{ConcurrentMap, ConcurrentSet, OrderedSet};
use obs::{Histogram, HistogramSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distribution::KeySampler;
use crate::spec::{MapSpec, OperationMix, WorkloadSpec};

/// Per-thread operation counts gathered during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// `contains` calls issued.
    pub contains: u64,
    /// `insert` calls issued (successful or not).
    pub inserts: u64,
    /// `remove` calls issued (successful or not).
    pub removes: u64,
    /// Successful inserts.
    pub insert_hits: u64,
    /// Successful removes.
    pub remove_hits: u64,
    /// Successful contains (key found).
    pub contains_hits: u64,
}

impl ThreadStats {
    /// Total operations issued by this thread.
    pub fn total(&self) -> u64 {
        self.contains + self.inserts + self.removes
    }

    /// Counts one issued operation of `kind` and whether it succeeded.
    pub fn count(&mut self, kind: OpKind, hit: bool) {
        let hit = u64::from(hit);
        match kind {
            OpKind::Contains => {
                self.contains += 1;
                self.contains_hits += hit;
            }
            OpKind::Insert => {
                self.inserts += 1;
                self.insert_hits += hit;
            }
            OpKind::Remove => {
                self.removes += 1;
                self.remove_hits += hit;
            }
        }
    }
}

/// How [`run_teardown_cycle`] serves each bulk delete.
///
/// Both modes remove the same keys in the same chunk order; they differ in
/// *what the API shape lets the structure amortize*:
///
/// * [`Bulk`](Self::Bulk) — one [`OrderedSet::remove_range`] call per chunk:
///   the structure may walk successor links instead of re-descending, batch
///   its retirements, or (sharded/elastic compositions) tear whole strips
///   down wholesale.
/// * [`PerKey`](Self::PerKey) — the historical baseline: one
///   [`ConcurrentSet::remove`] per key, a full locate plus removal protocol
///   run each time.
///
/// Comparing the two (experiment E16) quantifies what the streaming bulk
/// mutations buy, as a function of the chunk size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TeardownMode {
    /// One `remove` call per key.
    PerKey,
    /// One `remove_range` call per chunk of `bulk` keys.
    Bulk,
}

impl TeardownMode {
    /// A short label for benchmark rows (`"per-key"` / `"bulk"`).
    pub fn label(self) -> &'static str {
        match self {
            TeardownMode::PerKey => "per-key",
            TeardownMode::Bulk => "bulk",
        }
    }
}

/// The result of one [`run_teardown_cycle`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct TeardownMeasurement {
    /// Name reported by the set under test.
    pub set_name: String,
    /// How the teardown phases issued their deletes.
    pub mode: TeardownMode,
    /// Keys per delete chunk.
    pub bulk: usize,
    /// Refill/teardown cycles run.
    pub cycles: u64,
    /// Live keys per cycle.
    pub keys: u64,
    /// ID-space stride between live keys (1 = dense).
    pub stride: u64,
    /// Confirmed removals summed over all teardown phases (equals
    /// `cycles × keys` when nothing else touches the set).
    pub removed: u64,
    /// Wall-clock time spent in teardown phases only.
    pub teardown_time: Duration,
    /// Wall-clock time spent refilling between teardowns (not part of the
    /// headline metric; reported so refill cost stays visible).
    pub refill_time: Duration,
}

impl TeardownMeasurement {
    /// Teardown throughput in million removed keys per second.
    pub fn teardown_mkeys(&self) -> f64 {
        self.removed as f64 / self.teardown_time.as_secs_f64().max(1e-9) / 1.0e6
    }
}

/// Runs `cycles` refill/teardown cycles over `set` and reports the teardown
/// throughput: each cycle inserts `keys` live keys placed `stride` apart in
/// the ID space (`0, stride, 2·stride, …`, in a seed-shuffled order so
/// structures without rebalancing don't degenerate), then clears the whole ID
/// span again in ascending *ranges* covering `bulk` live keys each, timed
/// separately, with each range issued per `mode` — one `remove_range` call
/// ([`TeardownMode::Bulk`]) or one `remove` probe per candidate ID in the
/// span ([`TeardownMode::PerKey`]).
///
/// This mirrors the teardown-tree benchmark cycle: the measured quantity is
/// sustained *bulk delete* throughput on a structure that is repeatedly
/// refilled, as a function of the delete granularity.  `stride` models the
/// session-expiry / retention-window shape where live keys only sparsely
/// occupy the ID space and the evictor knows the *range* to clear, not the
/// membership: the per-key baseline must probe every candidate ID (paying a
/// full locate for the `stride − 1` misses per hit), while a range delete
/// walks only live keys.  `stride == 1` is the dense case where both modes
/// touch exactly the live keys.
///
/// # Examples
///
/// ```
/// use locked_bst::CoarseLockBst;
/// use workload::{run_teardown_cycle, TeardownMode};
///
/// let set = CoarseLockBst::new();
/// let m = run_teardown_cycle(&set, 512, 64, 2, 1, TeardownMode::Bulk, 7);
/// assert_eq!(m.removed, 1024);
/// assert!(m.teardown_mkeys() > 0.0);
/// ```
pub fn run_teardown_cycle<S>(
    set: &S,
    keys: u64,
    bulk: usize,
    cycles: u64,
    stride: u64,
    mode: TeardownMode,
    seed: u64,
) -> TeardownMeasurement
where
    S: OrderedSet<u64>,
{
    assert!(bulk > 0, "teardown chunks must hold at least one key");
    assert!(stride > 0, "the ID-space stride must be at least one");
    let mut order: Vec<u64> = (0..keys).map(|k| k * stride).collect();
    use rand::seq::SliceRandom;
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let span = keys * stride;

    let mut removed = 0u64;
    let mut teardown_time = Duration::ZERO;
    let mut refill_time = Duration::ZERO;
    for _ in 0..cycles {
        let t0 = Instant::now();
        for &k in &order {
            set.insert(k);
        }
        refill_time += t0.elapsed();

        let t0 = Instant::now();
        let mut start = 0u64;
        while start < span {
            let end = (start + (bulk as u64) * stride).min(span);
            match mode {
                TeardownMode::Bulk => {
                    removed += set.remove_range(
                        std::ops::Bound::Included(&start),
                        std::ops::Bound::Excluded(&end),
                    ) as u64;
                }
                TeardownMode::PerKey => {
                    for k in start..end {
                        if set.remove(&k) {
                            removed += 1;
                        }
                    }
                }
            }
            start = end;
        }
        teardown_time += t0.elapsed();
    }

    TeardownMeasurement {
        set_name: set.name().to_string(),
        mode,
        bulk,
        cycles,
        keys,
        stride,
        removed,
        teardown_time,
        refill_time,
    }
}

/// The result of one closed-loop run ([`run_closed_loop`] and the `run_*`
/// adapters built on it).
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Name reported by the set under test.
    pub set_name: String,
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock measurement window.
    pub elapsed: Duration,
    /// Per-thread counts.
    pub per_thread: Vec<ThreadStats>,
    /// Structure size after the run (quiescent).
    pub final_size: usize,
    /// Structure size after prefill, before the run.
    pub prefill_size: usize,
    /// Merged per-operation latency histogram (nanoseconds), built from every
    /// [`WorkloadSpec::sample_rate`]-th operation on each thread.  Empty when
    /// sampling was disabled (`sample_every(0)`).
    pub latency: HistogramSnapshot,
    /// The sampling rate the run used (`0` = latency sampling disabled).
    pub sample_rate: u64,
}

impl Measurement {
    /// Total operations across all threads.
    pub fn total_ops(&self) -> u64 {
        self.per_thread.iter().map(ThreadStats::total).sum()
    }

    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_secs_f64() / 1.0e6
    }

    /// Fraction of update operations (issued) that succeeded.
    pub fn update_success_rate(&self) -> f64 {
        let issued: u64 = self.per_thread.iter().map(|t| t.inserts + t.removes).sum();
        let hit: u64 = self.per_thread.iter().map(|t| t.insert_hits + t.remove_hits).sum();
        if issued == 0 {
            0.0
        } else {
            hit as f64 / issued as f64
        }
    }
}

/// The operation an [`OpStream`] drew.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A membership test (`get` on the map face).
    Contains,
    /// An insert (`upsert` on the map face).
    Insert,
    /// A remove.
    Remove,
}

/// One worker thread's seeded key and operation stream.
///
/// Thread `t` of every driver built on a [`WorkloadSpec`] draws from the same
/// stream, so two drivers that differ only in how they issue calls (say, a
/// per-operation pin against a reusable guard) see identical keys and mixes.
#[derive(Clone, Debug)]
pub struct OpStream {
    rng: StdRng,
    sampler: KeySampler,
    mix: OperationMix,
}

impl OpStream {
    /// The stream of worker `t` under `spec`.
    pub fn new(spec: &WorkloadSpec, t: usize) -> Self {
        let seed = spec.rng_seed() ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1));
        OpStream {
            rng: StdRng::seed_from_u64(seed),
            sampler: KeySampler::new(spec.key_distribution(), spec.key_range()),
            mix: spec.mix(),
        }
    }

    /// Draws the next operation and its key, then starts `tick`'s latency
    /// sample, so the draw itself is never timed.
    pub fn next(&mut self, tick: &mut Tick) -> (OpKind, u64) {
        let key = self.key();
        let op = self.rng.gen_range(0..100u8);
        let mix = self.mix;
        let kind = if op < mix.contains_pct() {
            OpKind::Contains
        } else if op < mix.contains_pct() + mix.insert_pct() {
            OpKind::Insert
        } else {
            OpKind::Remove
        };
        tick.start();
        (kind, key)
    }

    /// Draws one key from the stream (fault injection and storm bases).
    pub fn key(&mut self) -> u64 {
        self.sampler.sample(&mut self.rng)
    }
}

/// The runner's handle on one operation: its index on the thread, and the
/// latency sample a worker starts once the operation's inputs are drawn.
#[derive(Debug)]
pub struct Tick {
    n: u64,
    sampled: bool,
    started: Option<Instant>,
}

impl Tick {
    /// This operation's 1-based index among its thread's operations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Starts the latency sample if this operation is sampled; the runner
    /// stops it when the worker returns.
    pub fn start(&mut self) {
        if self.sampled {
            self.started = Some(Instant::now());
        }
    }
}

/// One worker thread of a [`run_closed_loop`] run.
///
/// Closures `FnMut(&mut ThreadStats, &mut Tick)` are workers that issue one
/// operation per call; implement the trait directly to also act between
/// batches.
pub trait Worker {
    /// Runs before every batch, outside any latency sample (guard refreshes,
    /// injected stalls).
    fn batch(&mut self, _stats: &mut ThreadStats) {}

    /// Issues one operation, tallies it in `stats`, and calls
    /// [`Tick::start`] once its inputs are drawn.
    fn op(&mut self, stats: &mut ThreadStats, tick: &mut Tick);
}

impl<F: FnMut(&mut ThreadStats, &mut Tick)> Worker for F {
    fn op(&mut self, stats: &mut ThreadStats, tick: &mut Tick) {
        self(stats, tick)
    }
}

/// Operations a [`run_closed_loop`] worker issues between checks of the stop
/// flag (and between [`Worker::batch`] calls).
const BATCH: usize = 64;

/// The one closed-loop driver: runs `threads` workers built by `worker(t)`
/// for `duration` and measures them.
///
/// Workers are built on their own threads (so they may hold thread-bound
/// state such as an epoch guard), then start together at a barrier.  Each
/// issues operations in batches of 64 between checks of the stop flag,
/// and every [`WorkloadSpec::sample_rate`]-th operation is timed into a
/// thread-private histogram, merged after the join.
///
/// The returned [`Measurement`] leaves `set_name`, `prefill_size` and
/// `final_size` empty: they belong to the structure, which the caller owns.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use cset::ConcurrentSet;
/// use locked_bst::CoarseLockBst;
/// use workload::{prefill, run_closed_loop, OpStream, OperationMix, ThreadStats, Tick, WorkloadSpec};
///
/// let set = CoarseLockBst::new();
/// let spec = WorkloadSpec::new(1024, OperationMix::new(100, 0, 0));
/// prefill(&spec, |k| set.insert(k));
/// let m = run_closed_loop(&spec, 2, Duration::from_millis(20), |t| {
///     let mut ops = OpStream::new(&spec, t);
///     let set = &set;
///     move |stats: &mut ThreadStats, tick: &mut Tick| {
///         let (kind, key) = ops.next(tick);
///         stats.count(kind, set.contains(&key));
///     }
/// });
/// assert!(m.total_ops() > 0);
/// ```
pub fn run_closed_loop<W, F>(
    spec: &WorkloadSpec,
    threads: usize,
    duration: Duration,
    worker: F,
) -> Measurement
where
    W: Worker,
    F: Fn(usize) -> W + Sync,
{
    let sample_every = spec.sample_rate();
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let mut per_thread = Vec::with_capacity(threads);
    let mut latency = HistogramSnapshot::empty();
    let elapsed = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (worker, stop, barrier) = (&worker, &stop, &barrier);
                s.spawn(move || {
                    let mut w = worker(t);
                    let mut stats = ThreadStats::default();
                    // Thread-private, so record() never contends.
                    let hist = Histogram::new();
                    let mut n = 0u64;
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        w.batch(&mut stats);
                        for _ in 0..BATCH {
                            let sampled = sample_every != 0 && n % sample_every == 0;
                            n = n.wrapping_add(1);
                            let mut tick = Tick { n, sampled, started: None };
                            w.op(&mut stats, &mut tick);
                            if let Some(t0) = tick.started {
                                hist.record(t0.elapsed().as_nanos() as u64);
                            }
                        }
                    }
                    (stats, hist.snapshot())
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let (stats, hist) = h.join().expect("workload thread panicked");
            per_thread.push(stats);
            latency.merge(&hist);
        }
        start.elapsed()
    });
    Measurement {
        set_name: String::new(),
        threads,
        elapsed,
        per_thread,
        final_size: 0,
        prefill_size: 0,
        latency,
        sample_rate: sample_every,
    }
}

/// Prefills a structure to the spec's target size, single-threaded and
/// untimed: keys come from the spec's distribution under a dedicated seeded
/// RNG (so the population is independent of the thread count) and go to
/// `insert`, which reports whether the key was new.  Gives up after about
/// `64 × target` attempts, so a skewed distribution cannot spin forever.
pub fn prefill(spec: &WorkloadSpec, mut insert: impl FnMut(u64) -> bool) {
    let sampler = KeySampler::new(spec.key_distribution(), spec.key_range());
    let mut rng = StdRng::seed_from_u64(spec.rng_seed());
    let target = spec.prefill_target() as usize;
    let mut inserted = 0usize;
    let mut attempts = 0usize;
    while inserted < target && attempts < target * 64 + 1024 {
        inserted += usize::from(insert(sampler.sample(&mut rng)));
        attempts += 1;
    }
}

/// Prefills `set` to the spec's target size and then runs the operation mix
/// from `threads` threads for `duration`.
///
/// The set is driven through the [`ConcurrentSet`] trait, so any structure in
/// this workspace (or outside it) can be measured.  Each thread uses its own
/// deterministic RNG stream derived from the spec seed ([`OpStream`]), so runs
/// are repeatable up to scheduling.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use workload::{run_workload, OperationMix, WorkloadSpec};
/// use locked_bst::CoarseLockBst;
///
/// let set = Arc::new(CoarseLockBst::new());
/// let spec = WorkloadSpec::new(1024, OperationMix::updates(50));
/// let m = run_workload(set, &spec, 2, std::time::Duration::from_millis(50));
/// assert!(m.total_ops() > 0);
/// assert_eq!(m.threads, 2);
/// ```
pub fn run_workload<S>(
    set: Arc<S>,
    spec: &WorkloadSpec,
    threads: usize,
    duration: Duration,
) -> Measurement
where
    S: ConcurrentSet<u64>,
{
    prefill(spec, |k| set.insert(k));
    let prefill_size = set.len();
    let m = run_closed_loop(spec, threads, duration, |t| {
        let mut ops = OpStream::new(spec, t);
        let set = &*set;
        move |stats: &mut ThreadStats, tick: &mut Tick| {
            let (kind, key) = ops.next(tick);
            let hit = match kind {
                OpKind::Contains => set.contains(&key),
                OpKind::Insert => set.insert(key),
                OpKind::Remove => set.remove(&key),
            };
            stats.count(kind, hit);
        }
    });
    Measurement { set_name: set.name().to_string(), prefill_size, final_size: set.len(), ..m }
}

/// Prefills `map` to the spec's target size and then runs the map operation
/// mix from `threads` threads for `duration`.
///
/// The map twin of [`run_workload`]: `contains` percent runs `get`, `insert`
/// percent runs `upsert` (counted as a hit when it inserted a **fresh**
/// entry, mirroring the set's successful-insert accounting), `remove` percent
/// runs `remove`.  Every write allocates and installs a fresh
/// [`MapSpec::value_bytes`]-sized payload, so the measured cost includes the
/// payload traffic a real index pays.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use workload::{run_map_workload, MapSpec, OperationMix, WorkloadSpec};
/// use locked_bst::CoarseLockMap;
///
/// let map = Arc::new(CoarseLockMap::new());
/// let spec = MapSpec::new(WorkloadSpec::new(1024, OperationMix::updates(50)), 32);
/// let m = run_map_workload(map, &spec, 2, std::time::Duration::from_millis(50));
/// assert!(m.total_ops() > 0);
/// ```
pub fn run_map_workload<S>(
    map: Arc<S>,
    spec: &MapSpec,
    threads: usize,
    duration: Duration,
) -> Measurement
where
    S: ConcurrentMap<u64, Vec<u8>>,
{
    let base = spec.base();
    prefill(base, |k| map.insert(k, spec.payload_for(k)));
    let prefill_size = map.len();
    let m = run_closed_loop(base, threads, duration, |t| {
        let mut ops = OpStream::new(base, t);
        let map = &*map;
        move |stats: &mut ThreadStats, tick: &mut Tick| {
            let (kind, key) = ops.next(tick);
            let hit = match kind {
                OpKind::Contains => map.get(&key).is_some(),
                OpKind::Insert => map.upsert(key, spec.payload_for(key)).is_none(),
                OpKind::Remove => map.remove(&key).is_some(),
            };
            stats.count(kind, hit);
        }
    });
    Measurement { set_name: map.name().to_string(), prefill_size, final_size: map.len(), ..m }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::OperationMix;
    use locked_bst::CoarseLockBst;

    #[test]
    fn run_produces_sane_measurement() {
        let set = Arc::new(CoarseLockBst::new());
        let spec = WorkloadSpec::new(512, OperationMix::updates(40)).seed(1);
        let m = run_workload(set, &spec, 3, Duration::from_millis(60));
        assert_eq!(m.threads, 3);
        assert_eq!(m.per_thread.len(), 3);
        assert!(m.total_ops() > 0);
        assert!(m.mops() > 0.0);
        assert!(m.prefill_size > 0);
        assert!(m.elapsed >= Duration::from_millis(50));
        // The mix keeps the size near the prefill level.
        assert!(m.final_size <= 512);
        assert!(m.update_success_rate() > 0.0);
        assert_eq!(m.set_name, "coarse-mutex-bst");
    }

    #[test]
    fn read_only_mix_never_changes_size() {
        let set = Arc::new(CoarseLockBst::new());
        let spec = WorkloadSpec::new(256, OperationMix::new(100, 0, 0)).seed(2);
        let m = run_workload(set, &spec, 2, Duration::from_millis(40));
        assert_eq!(m.final_size, m.prefill_size);
        let issued_updates: u64 = m.per_thread.iter().map(|t| t.inserts + t.removes).sum();
        assert_eq!(issued_updates, 0);
    }

    /// Every face, through the one runner: ops are counted, the latency
    /// histogram fills when sampling is on and stays empty when it is off,
    /// and the adversary's batch hook still injects its stalls.
    #[test]
    fn every_face_counts_ops_and_samples_latency() {
        use crate::adversary::{run_adversarial_workload, Adversary};
        use locked_bst::CoarseLockMap;
        const D: Duration = Duration::from_millis(40);
        type Face = fn(&WorkloadSpec) -> Measurement;
        let faces: [(&str, OperationMix, Face); 3] = [
            ("set", OperationMix::updates(20), |s| {
                run_workload(Arc::new(CoarseLockBst::new()), s, 2, D)
            }),
            ("map", OperationMix::updates(20), |s| {
                run_map_workload(Arc::new(CoarseLockMap::new()), &MapSpec::new(*s, 16), 2, D)
            }),
            ("adversary", OperationMix::updates(50), |s| {
                let set: Arc<lfbst::LfBst<u64>> = Arc::new(lfbst::LfBst::new());
                let adv = Adversary::default().stalls(5, 2);
                let r = run_adversarial_workload::<lfbst::Ebr, _>(set, s, 2, D, adv);
                assert!(r.stalls > 0, "adversary injected no stalls");
                r.measurement
            }),
        ];
        for (face, mix, run) in faces {
            let spec = WorkloadSpec::new(512, mix).seed(5);
            let m = run(&spec.sample_every(8));
            assert!(m.total_ops() > 0, "{face}: no ops");
            assert_eq!(m.sample_rate, 8, "{face}");
            assert!(m.latency.count() > 0, "{face}: sampling on but histogram empty");
            assert!(m.latency.p50() <= m.latency.p99(), "{face}");
            // Each thread samples every 8th op, so the merged count is about
            // 1/8 of the total (each thread may round up by one).
            assert!(m.latency.count() <= m.total_ops() / 8 + m.threads as u64, "{face}");
            let off = run(&spec.sample_every(0));
            assert!(off.total_ops() > 0, "{face}: no ops");
            assert_eq!(off.sample_rate, 0, "{face}");
            assert_eq!(off.latency.count(), 0, "{face}: sampling off but histogram non-empty");
        }
    }

    fn draw(ops: &mut OpStream) -> (OpKind, u64) {
        ops.next(&mut Tick { n: 0, sampled: false, started: None })
    }

    /// Each kind is drawn at its mix percentage; a pure mix draws only its
    /// own kind, so no percentage leaks into the fall-through branch.
    #[test]
    fn op_stream_draws_kinds_in_mix_proportions() {
        for (mix, only) in [
            (OperationMix::new(100, 0, 0), OpKind::Contains),
            (OperationMix::new(0, 100, 0), OpKind::Insert),
            (OperationMix::new(0, 0, 100), OpKind::Remove),
        ] {
            let mut ops = OpStream::new(&WorkloadSpec::new(64, mix).seed(6), 0);
            assert!((0..1_000).all(|_| draw(&mut ops).0 == only), "{mix:?}");
        }
        const N: u32 = 20_000;
        let mut ops = OpStream::new(&WorkloadSpec::new(64, OperationMix::new(50, 30, 20)), 0);
        let mut counts = [0u32; 3];
        for _ in 0..N {
            counts[draw(&mut ops).0 as usize] += 1;
        }
        for (count, pct) in counts.into_iter().zip([50u32, 30, 20]) {
            // Within 2 points of the mix: over 6 standard deviations at N.
            assert!(count.abs_diff(N * pct / 100) < N / 50, "{counts:?}");
        }
    }

    /// Thread `t` sees the same keys and kinds on every run with one seed,
    /// and distinct threads see distinct streams, all inside the key range.
    #[test]
    fn op_stream_is_reproducible_per_thread() {
        let spec = WorkloadSpec::new(1_000, OperationMix::updates(50)).seed(13);
        let stream = |t| {
            let mut ops = OpStream::new(&spec, t);
            (0..256).map(|_| draw(&mut ops)).collect::<Vec<_>>()
        };
        assert_eq!(stream(0), stream(0));
        assert_eq!(stream(3), stream(3));
        assert_ne!(stream(0), stream(1));
        assert!(stream(2).iter().all(|&(_, key)| key < 1_000));
        let reseeded = WorkloadSpec::new(1_000, OperationMix::updates(50)).seed(14);
        let mut ops = OpStream::new(&reseeded, 0);
        assert_ne!(stream(0), (0..256).map(|_| draw(&mut ops)).collect::<Vec<_>>());
    }

    #[test]
    fn thread_stats_total() {
        let t = ThreadStats { contains: 1, inserts: 2, removes: 3, ..Default::default() };
        assert_eq!(t.total(), 6);
    }

    #[test]
    fn teardown_cycle_drains_and_counts_in_both_modes() {
        for mode in [TeardownMode::PerKey, TeardownMode::Bulk] {
            let set = CoarseLockBst::new();
            let m = run_teardown_cycle(&set, 300, 64, 3, 1, mode, 42);
            assert_eq!(m.removed, 900, "{mode:?} lost removals");
            assert_eq!(m.cycles, 3);
            assert_eq!(m.keys, 300);
            assert_eq!(m.stride, 1);
            assert!(set.is_empty(), "{mode:?} left residue");
            assert!(m.teardown_mkeys() > 0.0);
            assert!(m.teardown_time > Duration::ZERO);
            assert!(m.refill_time > Duration::ZERO);
        }
        assert_ne!(TeardownMode::PerKey.label(), TeardownMode::Bulk.label());
    }

    #[test]
    fn teardown_cycle_sparse_stride_probes_the_whole_span() {
        for mode in [TeardownMode::PerKey, TeardownMode::Bulk] {
            let set = CoarseLockBst::new();
            let m = run_teardown_cycle(&set, 200, 50, 2, 4, mode, 9);
            // Only live keys count, no matter how many candidate IDs the
            // per-key baseline had to probe.
            assert_eq!(m.removed, 400, "{mode:?} miscounted live removals");
            assert_eq!(m.stride, 4);
            assert!(set.is_empty(), "{mode:?} left residue");
        }
    }

    #[test]
    fn map_run_produces_sane_measurement() {
        use locked_bst::CoarseLockMap;
        let map = Arc::new(CoarseLockMap::new());
        let spec = MapSpec::new(WorkloadSpec::new(512, OperationMix::updates(40)).seed(3), 32);
        let m = run_map_workload(map, &spec, 2, Duration::from_millis(60));
        assert_eq!(m.threads, 2);
        assert!(m.total_ops() > 0);
        assert!(m.mops() > 0.0);
        assert!(m.prefill_size > 0);
        assert!(m.final_size <= 512);
        assert_eq!(m.set_name, "coarse-mutex-btreemap");
    }

    #[test]
    fn map_get_only_mix_never_changes_size() {
        use locked_bst::CoarseLockMap;
        let map = Arc::new(CoarseLockMap::new());
        let spec = MapSpec::new(WorkloadSpec::new(256, OperationMix::new(100, 0, 0)).seed(4), 8);
        let m = run_map_workload(map, &spec, 2, Duration::from_millis(40));
        assert_eq!(m.final_size, m.prefill_size);
        let issued_updates: u64 = m.per_thread.iter().map(|t| t.inserts + t.removes).sum();
        assert_eq!(issued_updates, 0);
    }
}
