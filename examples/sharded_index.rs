//! A sharded concurrent index: the "millions of users" scaling story.
//!
//! One `LfBst` already allows operations on disjoint links to proceed in
//! parallel, but every operation still descends through the same upper tree
//! levels.  This scenario runs the same mixed reader/writer load against
//!
//! * a single `LfBst<u64>`, and
//! * the same tree behind `shard::Sharded` with 16 hash-routed shards,
//!
//! prints both throughputs, and then demonstrates what the *range* router
//! preserves that the hash router gives up: a globally ordered cross-shard
//! scan.
//!
//! Run with: `cargo run --release -p examples --bin sharded_index`

use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cset::{ConcurrentSet, OrderedSet};
use examples::format_rate;
use lfbst::LfBst;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard::{HashRouter, RangeRouter, Sharded};

const RUN_FOR: Duration = Duration::from_millis(600);
const ID_SPACE: u64 = 1 << 20;
const SHARDS: usize = 16;

/// Drives `readers + writers` threads of mixed load and returns total ops/sec.
fn drive<S: ConcurrentSet<u64> + 'static>(index: Arc<S>, readers: usize, writers: usize) -> f64 {
    // Same warm start for every candidate.  Insertion order is randomized: an
    // unbalanced BST degenerates under sorted bulk loads (see the height
    // discussion in E10), and a degenerate warm start would drown the
    // sharding comparison in O(n) search paths.
    let mut warm = StdRng::seed_from_u64(42);
    for _ in 0..100_000u64 {
        index.insert(warm.gen_range(0..ID_SPACE));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for w in 0..writers as u64 {
        let index = Arc::clone(&index);
        let stop = Arc::clone(&stop);
        let ops = Arc::clone(&ops);
        handles.push(thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(w);
            let mut local = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let id = rng.gen_range(0..ID_SPACE);
                if rng.gen_bool(0.5) {
                    index.insert(id);
                } else {
                    index.remove(&id);
                }
                local += 1;
            }
            ops.fetch_add(local, Ordering::Relaxed);
        }));
    }
    for r in 0..readers as u64 {
        let index = Arc::clone(&index);
        let stop = Arc::clone(&stop);
        let ops = Arc::clone(&ops);
        handles.push(thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1_000 + r);
            let mut local = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let id = rng.gen_range(0..ID_SPACE);
                std::hint::black_box(index.contains(&id));
                local += 1;
            }
            ops.fetch_add(local, Ordering::Relaxed);
        }));
    }
    let start = Instant::now();
    thread::sleep(RUN_FOR);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    ops.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let threads = thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let writers = (threads / 2).max(1);
    let readers = (threads - writers).max(1);
    println!("mixed load: {readers} readers + {writers} writers, id space 2^20\n");

    let plain = Arc::new(LfBst::new());
    let plain_rate = drive(Arc::clone(&plain), readers, writers);
    println!("single lfbst:              {}", format_rate(plain_rate));

    let sharded = Arc::new(Sharded::new(HashRouter::new(SHARDS), |_| LfBst::new()));
    let sharded_rate = drive(Arc::clone(&sharded), readers, writers);
    println!("lfbst x {SHARDS} (hash-routed): {}", format_rate(sharded_rate));
    println!("speedup: {:.2}x\n", sharded_rate / plain_rate);

    // Load balance across the hash-routed shards.
    let sizes = sharded.len_per_shard();
    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
    println!("shard sizes: min {min}, max {max}, total {}", sharded.len());

    // What the range router preserves: one globally ordered scan across all
    // shards, served as a streaming k-way merge over per-shard cursors —
    // keys arrive one at a time, nothing is collected up front.
    let ordered = Sharded::new(RangeRouter::covering(SHARDS, 1_000), |_| LfBst::new());
    for k in [907u64, 23, 501, 250, 999, 3, 777, 125] {
        ordered.insert(k);
    }
    println!("\nrange-routed streaming scan of 100..=950 over {} shards:", ordered.shard_count());
    let streamed: Vec<u64> =
        ordered.scan_keys(Bound::Included(&100), Bound::Included(&950)).collect();
    println!("  {streamed:?}");
    println!(
        "  (shards holding keys: {:?})",
        ordered
            .len_per_shard()
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
    );

    // Early exit through the same merge cursor: the top-3 keys cost three
    // heap pops, not a cross-shard collect of the whole range.
    let top3: Vec<u64> = ordered.scan_keys(Bound::Unbounded, Bound::Unbounded).take(3).collect();
    println!("  top-3 via early-exit merge cursor: {top3:?}");
    println!(
        "  cross-shard successor queries: first={:?} next_after(500)={:?} last={:?}",
        ordered.first(),
        ordered.next_after(&500),
        ordered.last(),
    );
}
