//! The heap footprint of `lfbst::validate`: checking a tree of n nodes may
//! raise the live heap by one 8-byte address per node plus a small constant.
//!
//! A counting global allocator tracks live bytes and their high-water mark.
//! This file holds a single test so no other test allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use lfbst::validate::validate;
use lfbst::LfBst;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn validate_keeps_one_word_per_node() {
    const N: u64 = 1 << 16;
    let tree = LfBst::new();
    // An odd multiplier permutes u64, so the keys are distinct and arrive in
    // scattered order (a sorted load would build a spine).
    for k in 0..N {
        assert!(tree.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    }

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let report = validate(&tree).expect("a sequentially built tree is consistent");
    let rise = PEAK.load(Relaxed) - before;

    assert_eq!(report.nodes, N as usize);
    let budget = 8 * N as usize + 64 * 1024;
    assert!(rise <= budget, "validate raised the heap by {rise} bytes; budget {budget}");
}
