//! Quickstart: the two-minute tour of the lock-free BST Set API.
//!
//! Run with: `cargo run --release -p examples --bin quickstart`

use std::sync::Arc;
use std::thread;

use lfbst::{Config, HelpPolicy, LfBst};

fn main() {
    // 1. A set is created like any other collection; it is shared by reference
    //    (typically behind an Arc) and every method takes &self.
    let set: Arc<LfBst<u64>> = Arc::new(LfBst::new());

    // 2. The three Set operations of the paper: Add, Contains, Remove.
    assert!(set.insert(42));
    assert!(!set.insert(42), "duplicate inserts are rejected");
    assert!(set.contains(&42));
    assert!(set.remove(&42));
    assert!(!set.contains(&42));

    // 3. Concurrent use: spawn a few threads inserting disjoint ranges.
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let set = Arc::clone(&set);
            thread::spawn(move || {
                for k in (t * 10_000)..((t + 1) * 10_000) {
                    set.insert(k);
                }
            })
        })
        .collect();
    // ... while this thread reads concurrently (contains never blocks and never
    // helps in the default read-optimized mode).
    let mut seen = 0u64;
    for k in (0..40_000).step_by(97) {
        if set.contains(&k) {
            seen += 1;
        }
    }
    for w in writers {
        w.join().unwrap();
    }
    println!("observed {seen} keys while writers were running");
    assert_eq!(set.len(), 40_000);

    // 4. Ordered snapshot of the contents (quiescent), streamed and collected.
    let keys: Vec<u64> = set.range_iter(..).keys().collect();
    assert_eq!(keys.len(), 40_000);
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
    println!("smallest = {}, largest = {}", keys[0], keys[keys.len() - 1]);

    // 5. Tuning: a write-heavy deployment can opt into eager helping.
    let write_heavy: LfBst<u64> =
        LfBst::with_config(Config::new().help_policy(HelpPolicy::WriteOptimized));
    for k in 0..1_000 {
        write_heavy.insert(k);
    }
    for k in 0..1_000 {
        write_heavy.remove(&k);
    }
    assert!(write_heavy.is_empty());
    println!("quickstart finished: tree height with 40k keys = {}", set.height());
}
