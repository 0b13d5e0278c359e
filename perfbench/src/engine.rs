//! The closed loop: each client thread issues its next call only after the
//! previous one returns.  Every [`SAMPLE_EVERY`]-th call is timed end to end.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use crate::hist::Hist;
use crate::input::{Op, OpGen};

/// Client threads: one per CPU of the 2-CPU machine the benchmark was
/// sized on.  A third thread would time-share and make runs depend on the
/// scheduler.
pub const THREADS: usize = 2;

/// One call in this many is timed.  Two clock reads cost about 40 ns, so
/// timing every call would tax a 300 ns operation by an eighth.
pub const SAMPLE_EVERY: u64 = 8;

/// Throughput is sampled per window and reported as the median window, which
/// a brief stall of the shared machine cannot move.
pub const WINDOW: Duration = Duration::from_millis(200);

/// What a call kind is, for the per-layer histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Contains,
    Insert,
    Remove,
    Get,
    Upsert,
    Scan,
    RemoveRange,
}

/// Outcome counts of one thread's calls, for the checker and the ratios.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    pub ops: u64,
    /// Calls whose result the checker rejected.
    pub failed: u64,
    pub inserts: u64,
    pub insert_hits: u64,
    pub removes: u64,
    pub remove_hits: u64,
    /// Keys removed by `remove_range` calls.
    pub range_removed: u64,
}

impl Ledger {
    /// Net change in the number of keys these calls made.
    pub fn size_delta(&self) -> i64 {
        self.insert_hits as i64 - self.remove_hits as i64 - self.range_removed as i64
    }

    fn add(&mut self, o: &Ledger) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.inserts += o.inserts;
        self.insert_hits += o.insert_hits;
        self.removes += o.removes;
        self.remove_hits += o.remove_hits;
        self.range_removed += o.range_removed;
    }
}

/// Per-thread recorder.  `timed` tells a traced step that this call is one
/// of the sampled ones, so it may time its parts into `layer`.
#[derive(Debug, Default)]
pub struct Rec {
    pub timed: bool,
    pub ledger: Ledger,
    /// End-to-end latency of every sampled call.
    pub all: Hist,
    /// End-to-end latency of sampled insert/upsert/remove/remove_range calls.
    pub writes: Hist,
    /// Per-layer spans recorded by traced steps, by name.
    pub layer: Vec<(&'static str, Hist)>,
    /// Summed nanoseconds and items of traced bulk calls, by name.
    pub bulk: Vec<(&'static str, u64, u64)>,
}

impl Rec {
    pub fn span(&mut self, name: &'static str, ns: u64) {
        match self.layer.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.record(ns),
            None => {
                let mut h = Hist::default();
                h.record(ns);
                self.layer.push((name, h));
            }
        }
    }

    pub fn bulk(&mut self, name: &'static str, ns: u64, items: u64) {
        match self.bulk.iter_mut().find(|(n, ..)| *n == name) {
            Some((_, t, k)) => {
                *t += ns;
                *k += items;
            }
            None => self.bulk.push((name, ns, items)),
        }
    }

    /// The named span histogram (empty if the run never recorded it).
    pub fn layer(&self, name: &str) -> Hist {
        self.layer.iter().find(|(n, _)| *n == name).map(|(_, h)| h.clone()).unwrap_or_default()
    }

    /// Nanoseconds per item of the named bulk call (0 if never recorded).
    pub fn per_item(&self, name: &str) -> f64 {
        self.bulk
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(0.0, |&(_, ns, items)| ns as f64 / items.max(1) as f64)
    }

    fn merge(&mut self, o: Rec) {
        self.ledger.add(&o.ledger);
        self.all.merge(&o.all);
        self.writes.merge(&o.writes);
        for (name, h) in o.layer {
            match self.layer.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => mine.merge(&h),
                None => self.layer.push((name, h)),
            }
        }
        for (name, ns, items) in o.bulk {
            self.bulk(name, ns, items);
        }
    }
}

/// Nanoseconds since `t0`, saturating.
#[inline]
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How long a pass runs.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// Wall time, measured in [`WINDOW`]s.
    Seconds(f64),
    /// A fixed number of calls per thread (the same stream on every rung).
    Ops(u64),
}

#[derive(Debug)]
pub struct LoopOut {
    pub rec: Rec,
    /// Mops/s of each window (empty for [`Until::Ops`]).
    pub window_mops: Vec<f64>,
    pub elapsed_s: f64,
}

#[repr(align(64))]
#[derive(Default)]
struct Progress(AtomicU64);

/// Runs `threads` closed-loop clients.  Client `t` draws calls from
/// `gen(t)` and executes them with `make(t)`, a step built on its own thread
/// so it may hold thread-bound state such as a pinned guard.  The step gets
/// the call, a nonce unique to the call, and the thread's recorder.
pub fn closed_loop<G, M, A>(threads: usize, gen: G, until: Until, make: M) -> LoopOut
where
    G: Fn(usize) -> OpGen + Sync,
    M: Fn(usize) -> A + Sync,
    A: FnMut(Op, u64, &mut Rec),
{
    let stop = AtomicBool::new(false);
    let progress: Vec<Progress> = (0..threads).map(|_| Progress::default()).collect();
    let barrier = Barrier::new(threads + 1);
    let max_ops = match until {
        Until::Ops(n) => n,
        Until::Seconds(_) => u64::MAX,
    };
    thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (stop, progress, barrier, gen, make) =
                    (&stop, &progress[t], &barrier, &gen, &make);
                s.spawn(move || {
                    let mut ops = gen(t);
                    let mut step = make(t);
                    let mut rec = Rec::default();
                    barrier.wait();
                    let mut i = 0u64;
                    while i < max_ops {
                        if i.is_multiple_of(64) {
                            progress.0.store(i, Ordering::Relaxed);
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        let op = ops.next_op();
                        let nonce = i * threads as u64 + t as u64;
                        if i.is_multiple_of(SAMPLE_EVERY) {
                            rec.timed = true;
                            let t0 = Instant::now();
                            step(op, nonce, &mut rec);
                            let ns = ns_since(t0);
                            rec.timed = false;
                            rec.all.record(ns);
                            if op.is_write() {
                                rec.writes.record(ns);
                            }
                        } else {
                            step(op, nonce, &mut rec);
                        }
                        i += 1;
                    }
                    rec.ledger.ops = i;
                    rec
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut window_mops = Vec::new();
        if let Until::Seconds(secs) = until {
            let windows = (secs / WINDOW.as_secs_f64()).round().max(1.0) as usize;
            let (mut last_t, mut last_ops) = (start, 0u64);
            for _ in 0..windows {
                thread::sleep(WINDOW);
                let now = Instant::now();
                let ops: u64 = progress.iter().map(|p| p.0.load(Ordering::Relaxed)).sum();
                window_mops.push((ops - last_ops) as f64 / (now - last_t).as_secs_f64() / 1e6);
                (last_t, last_ops) = (now, ops);
            }
            stop.store(true, Ordering::Relaxed);
        }
        let mut rec = Rec::default();
        for w in workers {
            rec.merge(w.join().expect("benchmark client thread panicked"));
        }
        LoopOut { rec, window_mops, elapsed_s: start.elapsed().as_secs_f64() }
    })
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}
