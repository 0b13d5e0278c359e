//! A concurrent in-memory KV index: the workload the paper's introduction
//! motivates (a dictionary used as the index of a larger system, with a mixed
//! population of readers and writers) — now storing **real record payloads**
//! through the map face of the tree, `LfBst<u64, Record>`, instead of faking
//! an index with bare ids.
//!
//! Three roles run concurrently against one map:
//!
//! * *ingesters* upsert fresh records as data arrives (in-place value
//!   replacement when a record is re-ingested);
//! * *queriers* perform point lookups (the vast majority of traffic) and
//!   verify each fetched record's integrity stamp;
//! * a *reaper* evicts expired records in the background, accounting the
//!   payload bytes it reclaims from the returned values.
//!
//! `Record` is an ordinary user struct: one `impl lfbst::MapValue` line opts
//! it into the tree's value cells.  (Its sibling `stream_dedup` keeps using
//! the set alias `LfBst<u64>` — the two faces are the same type.)
//!
//! Run with: `cargo run --release -p examples --bin kv_index`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use examples::format_rate;
use lfbst::{LfBst, OrderedMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RUN_FOR: Duration = Duration::from_millis(800);
const ID_SPACE: u64 = 1 << 20;

/// A fixed-size record: what a real index row carries beside its key.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Record {
    /// The record id (mirrors the key; lets a lookup validate the mapping).
    id: u64,
    /// Monotonic ingest generation.
    generation: u64,
    /// Opaque payload.
    payload: [u8; 16],
}

impl Record {
    fn new(id: u64, generation: u64) -> Record {
        let mut payload = [0u8; 16];
        payload[..8].copy_from_slice(&id.to_le_bytes());
        payload[8..].copy_from_slice(&generation.to_le_bytes());
        Record { id, generation, payload }
    }

    /// The integrity check a querier runs on every fetched record.
    fn verify(&self, key: u64) -> bool {
        self.id == key
            && self.payload[..8] == key.to_le_bytes()
            && self.payload[8..] == self.generation.to_le_bytes()
    }
}

// The one-line opt-in: store `Record`s behind the tree's atomic value cells.
impl lfbst::MapValue for Record {
    type Cell = lfbst::BoxedCell<Record>;
}

fn main() {
    let index: Arc<LfBst<u64, Record>> = Arc::new(LfBst::new());
    let stop = Arc::new(AtomicBool::new(false));
    let lookups = Arc::new(AtomicU64::new(0));
    let hits = Arc::new(AtomicU64::new(0));
    let ingested = Arc::new(AtomicU64::new(0));
    let replaced = Arc::new(AtomicU64::new(0));
    let reaped = Arc::new(AtomicU64::new(0));
    let reaped_bytes = Arc::new(AtomicU64::new(0));

    // Pre-load yesterday's records (generation 0).
    for id in 0..100_000u64 {
        index.insert_entry(id * 8, Record::new(id * 8, 0));
    }
    println!("index pre-loaded with {} records", index.len());

    let mut handles = Vec::new();

    // Two ingesters upserting fresh records.
    for w in 0..2u64 {
        let index = Arc::clone(&index);
        let stop = Arc::clone(&stop);
        let ingested = Arc::clone(&ingested);
        let replaced = Arc::clone(&replaced);
        handles.push(thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(w);
            let mut generation = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let id = rng.gen_range(0..ID_SPACE);
                match index.upsert(id, Record::new(id, generation)) {
                    None => {
                        ingested.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(old) => {
                        // In-place replacement of a live record.
                        debug_assert!(old.verify(id));
                        replaced.fetch_add(1, Ordering::Relaxed);
                    }
                }
                generation += 1;
            }
        }));
    }

    // Four queriers doing point lookups with integrity checks.
    for w in 0..4u64 {
        let index = Arc::clone(&index);
        let stop = Arc::clone(&stop);
        let lookups = Arc::clone(&lookups);
        let hits = Arc::clone(&hits);
        handles.push(thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(100 + w);
            let mut local_lookups = 0u64;
            let mut local_hits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let id = rng.gen_range(0..ID_SPACE);
                local_lookups += 1;
                if let Some(record) = index.get(&id) {
                    assert!(record.verify(id), "corrupt record fetched for id {id}");
                    local_hits += 1;
                }
            }
            lookups.fetch_add(local_lookups, Ordering::Relaxed);
            hits.fetch_add(local_hits, Ordering::Relaxed);
        }));
    }

    // One reaper evicting expired records (the oldest block of the id space),
    // accounting the payload bytes each eviction returns.
    {
        let index = Arc::clone(&index);
        let stop = Arc::clone(&stop);
        let reaped = Arc::clone(&reaped);
        let reaped_bytes = Arc::clone(&reaped_bytes);
        handles.push(thread::spawn(move || {
            let mut cursor = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Some(evicted) = index.remove_entry(&cursor) {
                    assert!(evicted.verify(cursor), "corrupt record evicted for id {cursor}");
                    reaped.fetch_add(1, Ordering::Relaxed);
                    reaped_bytes.fetch_add(evicted.payload.len() as u64, Ordering::Relaxed);
                }
                cursor = (cursor + 1) % ID_SPACE;
            }
        }));
    }

    let start = Instant::now();
    thread::sleep(RUN_FOR);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let secs = start.elapsed().as_secs_f64();

    let lookups = lookups.load(Ordering::Relaxed);
    println!("ran for {secs:.2}s");
    println!(
        "lookups: {} ({}) — hit rate {:.1}%, every hit integrity-checked",
        lookups,
        format_rate(lookups as f64 / secs),
        100.0 * hits.load(Ordering::Relaxed) as f64 / lookups.max(1) as f64
    );
    println!(
        "ingested: {} new records, {} in-place replacements",
        ingested.load(Ordering::Relaxed),
        replaced.load(Ordering::Relaxed)
    );
    println!(
        "reaped: {} expired records ({} payload bytes reclaimed)",
        reaped.load(Ordering::Relaxed),
        reaped_bytes.load(Ordering::Relaxed)
    );
    println!("final index size: {} records, tree height {}", index.len(), index.height());

    // Keyset pagination over the live index: each page is an early-exit
    // streaming scan resuming strictly after the previous page's last id —
    // the access pattern a "list records after X" endpoint serves.  The
    // cursor stops after PAGE records, so a page costs O(log n + PAGE)
    // however many records the index holds.
    const PAGE: usize = 5;
    println!("\nkeyset pagination (pages of {PAGE} records):");
    let mut after: Option<u64> = None;
    for page_no in 1..=3 {
        let page: Vec<(u64, Record)> = match after {
            None => index.range_iter(..).take(PAGE).collect(),
            Some(last) => index
                .range_iter((std::ops::Bound::Excluded(last), std::ops::Bound::Unbounded))
                .take(PAGE)
                .collect(),
        };
        if page.is_empty() {
            println!("  page {page_no}: end of index");
            break;
        }
        let ids: Vec<u64> = page.iter().map(|(id, _)| *id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "page {page_no} not ascending: {ids:?}");
        for (id, record) in &page {
            assert!(record.verify(*id), "corrupt record paged for id {id}");
        }
        println!("  page {page_no}: ids {ids:?} (integrity-checked)");
        after = ids.last().copied();
    }
    if let Some((max_id, _)) = index.last_entry() {
        println!("largest id currently indexed: {max_id}");
    }
}
