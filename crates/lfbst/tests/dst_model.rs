//! Deterministic-schedule model checking of the remove protocol
//! (`cargo test -p lfbst --features dst --test dst_model`).
//!
//! Each scenario is a tiny tree plus 2–3 virtual threads of insert/remove
//! operations over adjacent keys, run under `dst`'s controllable scheduler.
//! The verdict is full structural validation plus per-key accounting: for
//! every key, `initially present + successful inserts − successful removes`
//! must be 0 or 1 and must match the final tree — so a removal that reports
//! success twice for one key presence (the SizeMismatch race), a corrupt
//! structure, a protocol panic, and a livelock are all caught and tied to a
//! replayable schedule id.
//!
//! The `dst_hunt` test (ignored) sweeps every scenario exhaustively at an
//! env-controlled preemption depth; `dst_exhaustive_smoke` runs the same
//! sweep completely at 2 preemptions; the `regression_*` tests replay
//! checked-in schedules that were found by the hunt and fixed.

#![cfg(feature = "dst")]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dst::{explore, explore_random, run, ExploreOpts, Outcome, RandomOpts, Scenario, Schedule};
use lfbst::LfBst;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Insert(u64),
    Remove(u64),
    /// `remove_range(lo..=hi)` — the streaming bulk sweep.  Reports a count,
    /// not per-key success, so the verdict attributes each key's presence
    /// deficit to the ranges covering it and demands the totals balance.
    RemoveRange(u64, u64),
}
use Op::{Insert, Remove, RemoveRange};

/// A named scenario: initial keys (inserted in order by the unscheduled main
/// thread) and one op list per virtual thread.
struct Config {
    name: &'static str,
    setup: &'static [u64],
    threads: &'static [&'static [Op]],
}

/// The scenario zoo.  Shapes chosen to exercise every removal category and
/// the helper escape hatches:
///   * `[2,1,3]`     — removing 2 is category 2 (order node 1 is its left child);
///   * `[4,2,5,3]`   — removing 4 is category 3 (order node 3 is a distant
///     predecessor, right child of 2), and its completion *shifts* 3 upward,
///     which is exactly the window the `dir == 0` flag re-validation guards;
///   * duplicate removes of one key probe for double success;
///   * inserts into the interval under removal probe the injection CAS races.
const CONFIGS: &[Config] = &[
    Config { name: "cat1-vs-sibling", setup: &[2, 1, 3], threads: &[&[Remove(1)], &[Remove(3)]] },
    Config { name: "cat2-vs-order", setup: &[2, 1, 3], threads: &[&[Remove(2)], &[Remove(1)]] },
    Config { name: "cat2-vs-dup", setup: &[2, 1, 3], threads: &[&[Remove(2)], &[Remove(2)]] },
    Config {
        name: "cat2-vs-insert",
        setup: &[2, 1, 3],
        threads: &[&[Remove(2)], &[Insert(0), Remove(2)]],
    },
    Config { name: "cat3-vs-order", setup: &[4, 2, 5, 3], threads: &[&[Remove(4)], &[Remove(3)]] },
    Config { name: "cat3-vs-left", setup: &[4, 2, 5, 3], threads: &[&[Remove(4)], &[Remove(2)]] },
    Config { name: "cat3-vs-dup", setup: &[4, 2, 5, 3], threads: &[&[Remove(4)], &[Remove(4)]] },
    Config {
        name: "cat3-vs-shifted",
        setup: &[4, 2, 5, 3],
        threads: &[&[Remove(4)], &[Remove(3), Insert(3)]],
    },
    Config {
        name: "cat3-vs-reinsert",
        setup: &[4, 2, 5, 3],
        threads: &[&[Remove(4), Insert(4)], &[Remove(3)]],
    },
    Config {
        name: "cat3-three-way",
        setup: &[4, 2, 5, 3],
        threads: &[&[Remove(4)], &[Remove(3)], &[Remove(2)]],
    },
    Config {
        name: "cat3-deep-order",
        setup: &[8, 2, 9, 6, 4, 7, 5],
        threads: &[&[Remove(8)], &[Remove(7)]],
    },
    Config {
        name: "chain-shift",
        setup: &[4, 2, 5, 3],
        threads: &[&[Remove(4), Remove(3)], &[Remove(3), Remove(2)]],
    },
    // The category-1 flag-recurrence ABA: thread 0 flags 3's left self-thread
    // (`THREAD|FLAG→3`) and stalls; Remove(4) shifts 3 upward (consuming the
    // flag), Remove(2) drains the inherited left subtree (restoring the
    // *bit-identical* clean self-thread), and the second Remove(3) re-flags
    // with the very same word value before marking.
    Config {
        name: "cat1-reflag-aba",
        setup: &[4, 2, 5, 3],
        threads: &[&[Remove(3)], &[Remove(4), Remove(2), Remove(3)]],
    },
    // Insert-heavy soups.  The native stress wedge leaves a thread stuck from
    // its very first operations with *zero* remove-protocol trace events —
    // the profile of the untraced insert/traversal loops helping a stuck
    // removal — a surface the removal-centric scenarios above barely drive.
    // Each soup aims an injection CAS at a link the concurrent removal flags,
    // marks, or swings.
    Config {
        // Insert(0) injects at exactly the link Remove(1) flags: victim 1's
        // left self-thread (the category-1 flag link).
        name: "cat1-vs-insert",
        setup: &[2, 1, 3],
        threads: &[&[Remove(1)], &[Insert(0), Remove(3)]],
    },
    Config {
        // Insert(4) injects at the right edge while Remove(3) holds 3's
        // category-1 flag; the successor thread from 3 is being rewired.
        name: "cat1-right-vs-insert",
        setup: &[2, 1, 3],
        threads: &[&[Remove(3)], &[Insert(4), Remove(2)]],
    },
    Config {
        // Inserts land inside the subtree a category-3 shift is inheriting:
        // Remove(4) shifts 3 upward over [2 → thread] while Insert(1) grows
        // the left spine mid-shift.
        name: "shift-vs-insert",
        setup: &[4, 2, 5, 3],
        threads: &[&[Remove(4)], &[Insert(1), Remove(2)]],
    },
    Config {
        // Remove/reinsert/remove of one key racing a duplicate remover: the
        // reinserted key is a *fresh node* at the same key, probing that
        // success attribution never leaks across node lifetimes.
        name: "reinsert-double",
        setup: &[2, 1, 3],
        threads: &[&[Remove(2), Insert(2), Remove(2)], &[Remove(2)]],
    },
    Config {
        // Three-thread churn soup: every link around the root is contended
        // by an insert and a remove at once.
        name: "soup-churn",
        setup: &[4, 2, 6],
        threads: &[&[Remove(4), Insert(3)], &[Insert(5), Remove(2)], &[Remove(6), Insert(7)]],
    },
    // Bulk-sweep scenarios.  `remove_range` interleaves the in-order cursor
    // walk with anchored removal-protocol runs; racing it with single-key
    // removers probes the cursor's resume-after-victim logic against every
    // removal category, and the count-based verdict catches a sweep that
    // double-claims a key another remover already won.
    Config {
        // The sweep covers 2,3,4 — a cat-3 removal (4), its order node (3),
        // and a cat-2 shape (2) — while a single-key remover contends for the
        // mid-range key.  Exactly one of them may account for key 3.
        name: "range-vs-remove",
        setup: &[4, 2, 5, 3],
        threads: &[&[RemoveRange(2, 4)], &[Remove(3)]],
    },
    Config {
        // An insert lands *inside* the interval under sweep: the cursor may
        // or may not catch key 3 (weak consistency), but the books must
        // still balance and key 5's removal races the sweep's right edge.
        name: "range-vs-insert",
        setup: &[4, 2, 5],
        threads: &[&[RemoveRange(2, 4)], &[Insert(3), Remove(5)]],
    },
    Config {
        // Two overlapping sweeps contend for key 2; a double success would
        // push the attributed total past the reported counts.
        name: "range-vs-range",
        setup: &[2, 1, 3],
        threads: &[&[RemoveRange(1, 2)], &[RemoveRange(2, 3)]],
    },
    // DESIGN.md §7, bug 8: the category flip inside step IV.  Remove(5) is a
    // category-3 removal whose order node 4 hangs off 2; Remove(2) is a
    // category-1 removal that lifts 4 (with its left child 3) into 5's left
    // link, so a step-IV helper that read 5 as category 3 finds the order
    // node's parent to be the victim itself.
    Config {
        name: "cat3-category-flip",
        setup: &[5, 2, 6, 4, 3],
        threads: &[&[Remove(5)], &[Remove(2)]],
    },
];

/// Per-thread `(op, removed-or-inserted count)` logs, filled by the scenario
/// bodies and read by the quiescent check.  Point ops log 0/1; range sweeps
/// log their removal count.
type OpLog = Arc<Vec<Mutex<Vec<(Op, u64)>>>>;

/// Builds a fresh run of `config`: tree + bodies + verdict closure.
fn scenario(config: &Config) -> Scenario {
    let tree = Arc::new(LfBst::new());
    for &k in config.setup {
        assert!(tree.insert(k), "setup key {k} duplicated");
    }
    let results: OpLog = Arc::new(config.threads.iter().map(|_| Mutex::new(Vec::new())).collect());
    let bodies: Vec<Box<dyn FnOnce() + Send>> = config
        .threads
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            let tree = Arc::clone(&tree);
            let results = Arc::clone(&results);
            Box::new(move || {
                for &op in ops.iter() {
                    let n = match op {
                        Insert(k) => u64::from(tree.insert(k)),
                        Remove(k) => u64::from(tree.remove(&k)),
                        RemoveRange(lo, hi) => tree.remove_range(lo..=hi) as u64,
                    };
                    results[i].lock().unwrap().push((op, n));
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    let setup = config.setup;
    let check = Box::new(move || {
        let verdict = check_tree(&tree, setup, &results);
        if verdict.is_err() {
            // A tree that failed validation can be structurally corrupt (e.g.
            // a doubly-linked node); dropping it could double-free.  Leak it —
            // the schedule id is the artifact that matters.
            std::mem::forget(tree);
        }
        verdict
    });
    Scenario { bodies, check }
}

/// The quiescent verdict: structure + per-key operation accounting.
///
/// Point ops are attributed per key as before.  A range sweep reports only a
/// count, so its removals are recovered from each key's presence deficit:
/// `r_k = initial + inserts − point removes − finally present` must be
/// non-negative (negative means some op double-succeeded), may only be
/// positive for keys some range op covers, and the deficits must sum to
/// exactly the counts the sweeps reported — a sweep that over- or
/// under-counts, or double-claims a key a point remover won, breaks the
/// balance.
fn check_tree(tree: &Arc<LfBst<u64>>, setup: &[u64], results: &OpLog) -> Result<(), String> {
    let report = lfbst::validate::validate(tree).map_err(|e| format!("validation: {e}"))?;
    let mut net: BTreeMap<u64, i64> = setup.iter().map(|&k| (k, 1)).collect();
    let mut range_reported = 0i64;
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for per_thread in results.iter() {
        for &(op, n) in per_thread.lock().unwrap().iter() {
            match op {
                Insert(k) if n == 1 => *net.entry(k).or_insert(0) += 1,
                Remove(k) if n == 1 => *net.entry(k).or_insert(0) -= 1,
                RemoveRange(lo, hi) => {
                    range_reported += n as i64;
                    ranges.push((lo, hi));
                }
                _ => {}
            }
        }
    }
    let mut range_attributed = 0i64;
    let mut total = 0u64;
    for (&k, &n) in &net {
        let present = tree.contains(&k);
        let deficit = n - i64::from(present);
        if deficit < 0 {
            return Err(format!(
                "key {k}: net presence {n} but present={present} (a remove succeeded \
                 twice or an insert succeeded into a present key)"
            ));
        }
        if deficit > 0 && !ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&k)) {
            return Err(format!(
                "key {k}: {deficit} removal(s) unaccounted for and no range sweep covers it"
            ));
        }
        range_attributed += deficit;
        total += u64::from(present);
    }
    if range_attributed != range_reported {
        return Err(format!(
            "range sweeps reported {range_reported} removals but per-key deficits \
             attribute {range_attributed}"
        ));
    }
    if report.nodes as u64 != total || tree.len() as u64 != total {
        return Err(format!(
            "node count {} / len {} vs op accounting {total}",
            report.nodes,
            tree.len()
        ));
    }
    Ok(())
}

fn config_by_name(name: &str) -> &'static Config {
    CONFIGS.iter().find(|c| c.name == name).expect("unknown scenario name")
}

fn describe(report: &dst::RunReport) -> String {
    format!("schedule {} ({} steps): {:?}", report.schedule.id(), report.steps, report.outcome)
}

/// Exhaustive sweep of every scenario at 2 preemptions.  The run budget
/// (`DST_BUDGET`, default 20 000) is a cap, not a sample size: every scenario
/// must be explored completely within it, and one that hits it fails the
/// test, so a scenario that outgrows the budget cannot silently lose
/// coverage.  Post-fix this must find nothing.
#[test]
fn dst_exhaustive_smoke() {
    let max_runs: usize =
        std::env::var("DST_BUDGET").ok().and_then(|s| s.parse().ok()).unwrap_or(20_000);
    for config in CONFIGS {
        let opts = ExploreOpts { max_preemptions: 2, max_runs, ..ExploreOpts::default() };
        let result = explore(|| scenario(config), opts);
        assert!(
            result.violation.is_none(),
            "scenario {}: {}",
            config.name,
            describe(result.violation.as_ref().unwrap())
        );
        assert!(
            !result.budget_exhausted,
            "scenario {}: not fully explored within DST_BUDGET={max_runs} runs",
            config.name
        );
        eprintln!("dst smoke: {} clean over {} runs", config.name, result.runs);
    }
}

/// The deep hunt: exhaustive at `DST_DEPTH` preemptions (default 3) with a
/// large run budget, then a seeded random sweep at greater depth.  Prints
/// every failing schedule id; run with `--nocapture`.
#[test]
#[ignore = "long-running interleaving hunt; run explicitly"]
fn dst_hunt() {
    let depth: usize = std::env::var("DST_DEPTH").ok().and_then(|s| s.parse().ok()).unwrap_or(3);
    let max_runs: usize =
        std::env::var("DST_BUDGET").ok().and_then(|s| s.parse().ok()).unwrap_or(200_000);
    // Optional focus: when DST_SCENARIO is set, hunt only that scenario.
    let filter = std::env::var("DST_SCENARIO").ok();
    let mut found = Vec::new();
    for config in CONFIGS {
        if filter.as_deref().is_some_and(|f| f != config.name) {
            continue;
        }
        let opts = ExploreOpts { max_preemptions: depth, max_runs, ..ExploreOpts::default() };
        let result = explore(|| scenario(config), opts);
        eprintln!(
            "hunt[{}]: {} runs, exhausted={}, violation={}",
            config.name,
            result.runs,
            result.budget_exhausted,
            result.violation.as_ref().map_or("none".to_string(), describe),
        );
        if let Some(v) = result.violation {
            found.push((config.name, v));
            continue;
        }
        // Random deep sweep on top of the exhaustive frontier.
        let ropts = RandomOpts {
            seed: 0xC0FFEE,
            runs: max_runs / 20,
            preemptions: depth + 3,
            ..RandomOpts::default()
        };
        let result = explore_random(|| scenario(config), ropts);
        eprintln!(
            "hunt-random[{}]: {} runs, violation={}",
            config.name,
            result.runs,
            result.violation.as_ref().map_or("none".to_string(), describe),
        );
        if let Some(v) = result.violation {
            found.push((config.name, v));
        }
    }
    assert!(
        found.is_empty(),
        "{} failing schedules:\n{}",
        found.len(),
        found.iter().map(|(n, v)| format!("  {n}: {}", describe(v))).collect::<Vec<_>>().join("\n")
    );
}

/// Manual replay driver: replays `DST_SCHEDULE` against `DST_SCENARIO` and
/// prints the outcome (plus the flight recorder when built with `trace`).
///
/// ```text
/// DST_SCENARIO=cat2-vs-order DST_SCHEDULE=s2:13-1 \
///   cargo test -p lfbst --features "dst trace" --test dst_model dst_replay -- --ignored --nocapture
/// ```
#[test]
#[ignore = "manual replay driver; needs DST_SCENARIO/DST_SCHEDULE"]
fn dst_replay() {
    let name = std::env::var("DST_SCENARIO").expect("set DST_SCENARIO");
    let id = std::env::var("DST_SCHEDULE").expect("set DST_SCHEDULE");
    let config = config_by_name(&name);
    let sched = Schedule::parse(&id).expect("DST_SCHEDULE must parse");
    let budget: u32 = std::env::var("DST_STEP_BUDGET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(dst::DEFAULT_STEP_BUDGET);
    #[cfg(feature = "trace")]
    lfbst::trace::reset();
    let report = dst::run_with_budget(scenario(config), &sched, budget);
    eprintln!("replay {name} under {id}: {}", describe(&report));
    #[cfg(feature = "trace")]
    eprintln!("{}", lfbst::trace::dump_report(1024));
    assert!(matches!(report.outcome, Outcome::Pass), "{:?}", report.outcome);
}

/// Replays one checked-in schedule and demands a clean pass.
fn assert_schedule_passes(name: &str, id: &str) {
    let config = config_by_name(name);
    let sched = Schedule::parse(id).expect("checked-in schedule id must parse");
    let report = run(scenario(config), &sched);
    assert!(
        matches!(report.outcome, Outcome::Pass),
        "scenario {name} under {id}: {:?}",
        report.outcome
    );
}

// ---------------------------------------------------------------------------
// Checked-in failing schedules.  Each id below was printed by `dst_hunt` at
// pre-fix HEAD, minimized by hand, diagnosed against the paper's step I–VII +
// s1–s4 protocol, and fixed in `remove.rs`.  Post-fix they must replay clean
// forever.  Full write-ups: DESIGN.md §7.

/// Bug #1 — the order-link-swung escape.  Thread 1's `clean_flag_threaded`
/// of key 1 was preempted after flagging; thread 0's category-2 removal of
/// key 2 helped it to completion and swung the order link.  Resuming, thread
/// 1's `order_node_of` walked a spine whose order link no longer pointed at
/// its node and returned null — pre-fix `clean_mark_removal` spun on that
/// (livelock) instead of conceding to the helper via `finish_unlink`.
#[test]
fn regression_cat2_order_escape() {
    assert_schedule_passes("cat2-vs-order", "s2:13-1");
}

/// Bug #2 — the mid-shift parentless victim.  Thread 0's category-3 removal
/// of key 4 was preempted between s1 and s4: its order node 3 had been
/// spliced out of its old position but not yet linked under 4's parent, so 3
/// was reachable only through threads and had *no unthreaded parent*.
/// Thread 1, removing 3, spun in `flag_parent` — `find_parent_of` returned
/// `None` while `find_exact` kept confirming 3 was live, and nothing on its
/// retry path helped the pending s4 (livelock).  Fix: `help_shift_path`
/// walks the root-to-key path and helps the flagged parent link it finds.
#[test]
fn regression_cat3_shift_window() {
    assert_schedule_passes("cat3-vs-order", "s2:24-1");
}

/// Bug #3 — the stale straggler.  Thread 0's category-3 removal of key 4 was
/// preempted after step V; thread 1 helped the whole removal to completion
/// and then its own removal of key 2 restored the order node's left-link
/// *value* (value recurrence on a live node).  The resumed straggler's step
/// VII and s2 CASes matched the recurred value and corrupted the live tree
/// (residual flag + accounting mismatch).  Fix: the pending latch —
/// re-check `parent.child[pdir] == FLAG→victim` immediately before each
/// order-node-targeting CAS; that value holds continuously from step V to s4
/// and can never recur once the victim is retired.
#[test]
fn regression_cat3_stale_straggler() {
    assert_schedule_passes("cat3-vs-left", "s2:14-1");
}

/// Bug #3b — the owner wedged mid-shift.  With three removers, thread 1
/// (owner of the category-3 removal of 3's shifted instance) resumed while
/// its own order node was mid-shift: `find_parent_of(order)` returned `None`
/// and step IV's retry loop treated that as a transient miss and spun
/// (livelock).  A live node with no unthreaded parent is not transient — it
/// is the s1-done/s4-pending state; fix: `find_exact` confirms liveness and
/// breaks straight to the swing phase, with step VII additionally guarded on
/// the step-IV flag still standing.
#[test]
fn regression_cat3_three_way_wedge() {
    assert_schedule_passes("cat3-three-way", "s3:3-1.28-2");
}

/// Bug #5 — straggler wedged after the whole chain completed.  Three
/// removals in sequence finished (all three victims retired); a helper that
/// had entered `remove_cat3` before the dust settled spun in step IV:
/// `find_parent_of(order)` → `None` and `find_exact` → false forever,
/// because the shifted order node had since been removed *itself*.  Fix: the
/// order node's right link (`THREAD|FLAG→victim`) is an instance-unique
/// pre-s3 witness; its absence proves the removal is long done — break out
/// and let `flag_parent`'s unlinked-victim check conclude `Done`.
#[test]
fn regression_cat3_three_way_straggler() {
    assert_schedule_passes("cat3-three-way", "s3:22-2.35-0");
}

/// Bug #6 — the poisoned `prelink` hint.  A removal attempt passed its
/// step-II flag validation, was descheduled across an entire removal epoch
/// (its category-1 flag consumed by a shift, the victim re-targeted by a
/// category-2 removal with a different order node), then woke and blind-
/// stored its stale order node — the victim itself — over the live removal's
/// `prelink`.  A later helper trusted the hint in `finish_unlink` and
/// installed the victim as its own replacement: the parent swing degenerated
/// into a rollback of the step-V flag and the victim was retired *while
/// still linked* (latent use-after-free plus a permanent livelock, since the
/// clean parent link no longer had an owner to flag it).  Fix: step II is a
/// CAS on the value read after flag validation, so a stale write either
/// fails or rewrites the same node; `finish_unlink` additionally refuses a
/// replacement equal to the victim.
#[test]
fn regression_chain_shift_prelink_poison() {
    assert_schedule_passes("chain-shift", "s2:0-1.6-0.47-1");
}

/// Bug #4 — cross-instance flag confusion at s1.  A stale s1 re-read the
/// order node's backlink and found a `FLAG→order` link — but that flag
/// belonged to a *different* removal instance: step V of a later removal
/// *of* the order node itself.  The straggler's s1 spliced a live node out,
/// leaking its right subtree and leaving the newer removal's flag residual.
/// This falsified the assumption that s1's expected value is instance-unique;
/// fix: s1 now also sits behind the pending latch.
#[test]
fn regression_cat3_cross_instance_s1() {
    assert_schedule_passes("cat3-deep-order", "s2:14-1.53-0");
}

/// Bug #7 — the category-1 flag-recurrence ABA (double success).  An owner
/// flagged a victim's left self-thread (`THREAD|FLAG → victim`, category 1)
/// and stalled; the victim was shifted upward by its successor's category-3
/// removal (consuming the flag), inherited a left subtree, and that subtree
/// then drained — restoring a *bit-identical* clean self-thread.  A second
/// removal of the same key re-flagged with the very same word value and
/// marked.  The stale owner woke, found the mark under "its" flag, and both
/// owners reported success for a single key presence, leaving the size
/// counter one below the reachable-node count (the native-seed symptom:
/// `SizeMismatch`, ~1 in 25k rounds at 8×2000×64).  Fix: success attribution
/// is arbitrated by a once-ever claim CAS on the victim's `prelink` tag —
/// a node is marked at most once in its lifetime, so first-CAS-wins picks
/// exactly one owner; losers help completion and restart, finding the key
/// absent.
#[test]
fn regression_cat1_reflag_aba() {
    assert_schedule_passes("cat1-reflag-aba", "s2:3-1");
}

/// Bug #8 — the category flip inside step IV.  Thread 0's category-3
/// removal of key 5 (order node 4, whose parent is 2) passed step IV's
/// category re-check and was preempted before the parent search; thread 1
/// removed 2 (category 1), which lifted 4 into 5's left link.  Resuming,
/// `find_parent_of(4)` returned 5 itself.  With the `Reexamine` check
/// reverted, thread 0 flags 5's own left link as step IV, and every
/// dispatch then recurses through `remove_cat12` → `help_node(4)` →
/// `clean_mark_right(5)` until the stack overflows.
#[test]
fn regression_cat3_category_flip() {
    assert_schedule_passes("cat3-category-flip", "s2:12-1");
}

/// Bug #10 — a stale step-IV flag steals a later step V.  Thread 0's
/// category-3 removal of key 4 passed step IV's checks and was preempted
/// before the parent search; thread 1 finished that removal (3 replaced 4)
/// and began removing 3, marking it.  Resuming, thread 0 flagged 3's new
/// parent link — a clean link to the order node, the value it expected —
/// and thread 1 took that flag for its own step V.  Thread 0's rollback
/// then cleared it, so thread 1's swing found no flag and left 3 marked and
/// linked (the first id: a residual mark), or a later helper waited in
/// `finish_unlink` for a step V that never came (the second: livelock).
/// Fixes: the first id needs the pre-s3 witness check right before the
/// step-IV flag CAS; the second passes with either that check or
/// `finish_unlink` placing a missing step-V flag itself.
#[test]
fn regression_cat3_stale_step_iv_flag() {
    assert_schedule_passes("cat3-vs-order", "s2:12-1.52-0.53-1.56-0");
    assert_schedule_passes("cat3-three-way", "s3:12-1.53-0.55-1.56-0");
}
