//! What one process does: one pass of the untraced end-to-end run, the
//! traced per-layer run, one rung of the cost ladder, or the event-count
//! pass of the stats build.
//!
//! Every measured structure gets a process of its own.  A structure built
//! after another one was freed reuses the freed heap in the old tree's
//! teardown order, and on a 2^21-key tree that alone cost a third of the
//! throughput and half again the prefill time.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use cset::{ConcurrentMap, ConcurrentSet};
use lfbst::{Config, Ebr, Reclaimer};
use locked_bst::{CoarseLockBst, SeqBst};
use shard::{BoundaryRouter, ElasticMap, ShardRouter, ShardedMap};

use crate::engine::{closed_loop, median, ns_since, Kind, Ledger, LoopOut, Rec, Until, THREADS};
use crate::input::{stamp, Op, Spec};
use crate::report::{ratio, rung_metric, Report, COUNTS, END_TO_END, RUNGS, TRACED};
use crate::subject::{
    map_calls, pinned_map_step, pinned_set_step, set_step, size_violations, validate,
    ElasticSubject, MapTree, SetTree, Subject,
};

/// Op-stream numbers of the traced run; end-to-end pass `p` uses stream `p`.
const REFERENCE_PASS: u64 = 100;
const TRACED_PASS: u64 = 101;
const LADDER_PASS: u64 = 102;
const ROUTE_PASS: u64 = 103;
const KEYGEN_PASS: u64 = 104;

/// Calls per client on each ladder rung and in the counts pass, per second
/// of `--seconds`.
const FIXED_OPS_PER_SECOND: f64 = 20_000.0;

pub fn fixed_ops(seconds: f64) -> u64 {
    ((seconds * FIXED_OPS_PER_SECOND) as u64).max(10_000)
}

/// One pass of the untraced run behind the end-to-end metrics: build and
/// prefill (`setup_s`), run the closed loop for `seconds`, check.
pub fn end_to_end<S: Subject>(
    spec: &Spec,
    seed: u64,
    pass: u64,
    seconds: f64,
    build: impl Fn() -> S,
) -> Report {
    let mut r = Report::default();
    let t0 = Instant::now();
    let subject = build();
    let len = subject.prefill(spec, seed);
    let setup = t0.elapsed().as_secs_f64();

    let out = drive(&subject, spec, seed, pass, Until::Seconds(seconds));
    let l = out.rec.ledger;
    r.attempted = l.ops;
    r.failed = l.failed + subject.check(len as i64 + l.size_delta());
    let values = [
        median(&out.window_mops),
        out.rec.all.quantile(0.5),
        out.rec.all.quantile(0.99),
        out.rec.writes.quantile(0.99),
        setup,
    ];
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        r.set(name, v, unit);
    }
    r.info("latency_samples", out.rec.all.count() as f64);
    r.info("write_latency_samples", out.rec.writes.count() as f64);
    r.info("throughput_windows", out.window_mops.len() as f64);
    r
}

/// Mean cost of drawing one call from the workload's generator.
fn keygen_ns(spec: &Spec, seed: u64) -> f64 {
    let mut ops = spec.ops(seed, KEYGEN_PASS, 0);
    let n = 1u64 << 21;
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(ops.next_op());
    }
    ns_since(t0) as f64 / n as f64
}

/// The workload's calls on `s` from both clients, untraced.
fn drive<S: Subject>(s: &S, spec: &Spec, seed: u64, pass: u64, until: Until) -> LoopOut {
    closed_loop(
        THREADS,
        |t| spec.ops(seed, pass, t),
        until,
        |_| {
            move |op, nonce, rec: &mut Rec| {
                s.step(op, nonce, &mut rec.ledger);
            }
        },
    )
}

/// Reclamation deltas over a traced pass of `ops` calls.
fn ebr_metrics(r: &mut Report, before: &ebr::ReclamationStats, ops: u64) {
    let d = Ebr::stats().since(before);
    let kops = ops as f64 / 1000.0;
    r.put("ebr.retired_per_kop", ratio(d.nodes_retired as f64, kops));
    r.put("ebr.freed_per_kop", ratio(d.nodes_freed as f64, kops));
    r.put("ebr.epoch_advances_per_kop", ratio(d.epoch_advances as f64, kops));
    r.put("ebr.min_stamp_skips_per_kop", ratio(d.min_stamp_skips as f64, kops));
    r.put("ebr.bound_trips", d.bound_trips as f64);
    r.put("ebr.peak_unreclaimed_nodes", d.bag_depth_hwm as f64);
}

fn start_ebr_window() -> ebr::ReclamationStats {
    Ebr::reset_bag_depth_hwm();
    Ebr::stats()
}

fn success_ratios(r: &mut Report, l: &Ledger) {
    r.put("lfbst.insert_success_ratio", ratio(l.insert_hits as f64, l.inserts as f64));
    r.put("lfbst.remove_success_ratio", ratio(l.remove_hits as f64, l.removes as f64));
}

fn overhead_pct(reference: &LoopOut, traced: &LoopOut) -> f64 {
    let base = median(&reference.window_mops);
    ratio(base - median(&traced.window_mops), base) * 100.0
}

fn kind_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Contains => "lfbst.contains",
        Kind::Insert => "lfbst.insert",
        Kind::Remove => "lfbst.remove",
        Kind::Get => "value.get",
        Kind::Upsert => "value.upsert",
        Kind::Scan => "cursor.scan",
        Kind::RemoveRange => "bulk.remove_range",
    }
}

fn put_quantiles(r: &mut Report, rec: &Rec, span: &str, metric: &str, qs: &[(f64, &str)]) {
    let h = rec.layer(span);
    for (q, suffix) in qs {
        r.put(&format!("{metric}.{suffix}"), h.quantile(*q));
    }
}

const P50: (f64, &str) = (0.5, "p50");
const P99: (f64, &str) = (0.99, "p99");

/// The traced run of a set workload: the per-op pin is split from the
/// guarded call (`LfBst::pin` plus the `Pinned` calls).
pub fn trace_set(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut r = Report::with_names(&TRACED);
    let tree = SetTree::new();
    let len = tree.prefill(spec, seed) as i64;
    r.put("lfbst.height", tree.height() as f64);
    r.put("driver.keygen_ns", keygen_ns(spec, seed));
    r.info("node_bytes", SetTree::node_size_bytes() as f64);

    let reference = drive(&tree, spec, seed, REFERENCE_PASS, Until::Seconds(0.25 * seconds));
    let ebr0 = start_ebr_window();
    let t = &tree;
    let traced = closed_loop(
        THREADS,
        |th| spec.ops(seed, TRACED_PASS, th),
        Until::Seconds(0.4 * seconds),
        |_| {
            move |op, _, rec: &mut Rec| {
                if !rec.timed {
                    pinned_set_step(&t.pin(), op, &mut rec.ledger);
                    return;
                }
                let t0 = Instant::now();
                let pinned = t.pin();
                let t1 = Instant::now();
                let kind = pinned_set_step(&pinned, op, &mut rec.ledger);
                let t2 = Instant::now();
                drop(pinned);
                let t3 = Instant::now();
                rec.span("ebr.pin", ((t1 - t0) + (t3 - t2)).as_nanos() as u64);
                rec.span(kind_span(kind), (t2 - t1).as_nanos() as u64);
            }
        },
    );
    let l = traced.rec.ledger;
    ebr_metrics(&mut r, &ebr0, l.ops);
    put_quantiles(&mut r, &traced.rec, "ebr.pin", "ebr.pin_ns", &[P50, P99]);
    for op in ["contains", "insert", "remove"] {
        put_quantiles(
            &mut r,
            &traced.rec,
            &format!("lfbst.{op}"),
            &format!("lfbst.{op}_ns"),
            &[P50, P99],
        );
    }
    success_ratios(&mut r, &l);
    r.put("trace.overhead_pct", overhead_pct(&reference, &traced));

    let rl = reference.rec.ledger;
    r.attempted = rl.ops + l.ops;
    r.failed = rl.failed + l.failed + tree.check(len + rl.size_delta() + l.size_delta());
    r.info("latency_samples", traced.rec.all.count() as f64);
    r
}

/// The traced run of the map workload: the `ElasticMap` pass times the shard
/// calls, scans and range removals; a pass of the same stream over one bare
/// `LfBst<u64, u64>` with split pins times the value layer.
pub fn trace_map(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut r = Report::with_names(&TRACED);
    let subject = ElasticSubject::new(spec, Config::default());
    let len = subject.prefill(spec, seed) as i64;
    let bare = MapTree::new();
    let bare_len = spec.prefill(seed, |k| bare.insert_entry(k, stamp(k, 0))) as i64;
    r.put("lfbst.height", bare.height() as f64);
    r.put("driver.keygen_ns", keygen_ns(spec, seed));
    r.info("node_bytes", MapTree::node_size_bytes() as f64);

    let reference = drive(&subject, spec, seed, REFERENCE_PASS, Until::Seconds(0.2 * seconds));
    subject.map.take_loads();
    let ebr0 = start_ebr_window();
    let s = &subject;
    let traced = closed_loop(
        THREADS,
        |t| spec.ops(seed, TRACED_PASS, t),
        Until::Seconds(0.3 * seconds),
        |_| {
            move |op, nonce, rec: &mut Rec| {
                if !rec.timed {
                    s.step(op, nonce, &mut rec.ledger);
                    return;
                }
                let t0 = Instant::now();
                let (kind, items) = s.step(op, nonce, &mut rec.ledger);
                let ns = ns_since(t0);
                match kind {
                    Kind::Scan | Kind::RemoveRange => rec.bulk(kind_span(kind), ns, items),
                    Kind::Get => rec.span("shard.get", ns),
                    Kind::Upsert => rec.span("shard.upsert", ns),
                    _ => {}
                }
                if !matches!(kind, Kind::Scan | Kind::RemoveRange) {
                    rec.span("shard.point", ns);
                }
            }
        },
    );
    let l = traced.rec.ledger;
    ebr_metrics(&mut r, &ebr0, l.ops);
    r.put("shard.hot_strip_share", subject.hot_strip_share());

    let b = &bare;
    let bare_pass = closed_loop(
        THREADS,
        |t| spec.ops(seed, TRACED_PASS, t),
        Until::Seconds(0.2 * seconds),
        |_| {
            move |op, nonce, rec: &mut Rec| {
                if !rec.timed {
                    pinned_map_step(&b.pin(), op, nonce, &mut rec.ledger);
                    return;
                }
                let t0 = Instant::now();
                let pinned = b.pin();
                let t1 = Instant::now();
                let kind = pinned_map_step(&pinned, op, nonce, &mut rec.ledger);
                let t2 = Instant::now();
                drop(pinned);
                let t3 = Instant::now();
                rec.span("ebr.pin", ((t1 - t0) + (t3 - t2)).as_nanos() as u64);
                rec.span(kind_span(kind), (t2 - t1).as_nanos() as u64);
                rec.span("bare.point", (t3 - t0).as_nanos() as u64);
            }
        },
    );

    put_quantiles(&mut r, &bare_pass.rec, "ebr.pin", "ebr.pin_ns", &[P50, P99]);
    put_quantiles(&mut r, &bare_pass.rec, "value.get", "value.get_ns", &[P50]);
    put_quantiles(&mut r, &bare_pass.rec, "value.upsert", "value.upsert_ns", &[P50, P99]);
    put_quantiles(&mut r, &bare_pass.rec, "lfbst.remove", "lfbst.remove_ns", &[P50, P99]);
    r.put("cursor.scan_ns_per_key", traced.rec.per_item("cursor.scan"));
    r.put("bulk.remove_range_ns_per_key", traced.rec.per_item("bulk.remove_range"));
    put_quantiles(&mut r, &traced.rec, "shard.get", "shard.get_ns", &[P50]);
    put_quantiles(&mut r, &traced.rec, "shard.upsert", "shard.upsert_ns", &[P50]);
    r.put(
        "shard.overhead_ns",
        traced.rec.layer("shard.point").quantile(0.5)
            - bare_pass.rec.layer("bare.point").quantile(0.5),
    );
    r.put("shard.route_ns", route_ns(spec, seed));
    success_ratios(&mut r, &l);
    r.put("trace.overhead_pct", overhead_pct(&reference, &traced));

    let (rl, bl) = (reference.rec.ledger, bare_pass.rec.ledger);
    r.attempted = rl.ops + l.ops + bl.ops;
    r.failed = rl.failed
        + l.failed
        + bl.failed
        + subject.check(len + rl.size_delta() + l.size_delta())
        + validate(&bare)
        + size_violations(bare_len + bl.size_delta(), bare.len());
    r.info("latency_samples", traced.rec.all.count() as f64);
    r
}

/// Mean cost of one `BoundaryRouter::route` over the workload's keys, the
/// same split points the `ElasticMap` strips use.
fn route_ns(spec: &Spec, seed: u64) -> f64 {
    let router = BoundaryRouter::covering(crate::subject::STRIPS, spec.key_space);
    let mut ops = spec.ops(seed, ROUTE_PASS, 0);
    let keys: Vec<u64> = (0..1 << 16).map(|_| ops.next_op().key()).collect();
    let reps = 32;
    let t0 = Instant::now();
    for _ in 0..reps {
        for k in &keys {
            black_box(router.route(black_box(k)));
        }
    }
    ns_since(t0) as f64 / (reps * keys.len()) as f64
}

/// Map point calls for the ladder.  On a set workload a write is an
/// insert-if-absent, as on the set rungs; on the map workload it is an upsert.
#[inline(always)]
fn ladder_map_step<M: ConcurrentMap<u64, u64>>(
    m: &M,
    upsert: bool,
    op: Op,
    nonce: u64,
    l: &mut Ledger,
) {
    let write = |k, v| if upsert { m.upsert(k, v) } else { (!m.insert(k, v)).then_some(v) };
    map_calls(op, nonce, l, |k| m.get(&k), write, |k| m.remove(&k));
}

fn run_rung<M, A>(spec: &Spec, seed: u64, name: &str, n: u64, make: M) -> Report
where
    M: Fn(usize) -> A + Sync,
    A: FnMut(Op, u64, &mut Rec),
{
    let mut r = Report::default();
    let threads = RUNGS.iter().find(|(rung, _)| *rung == name).expect("rung is declared").1;
    for &t in threads {
        let out = closed_loop(t, |th| spec.ops(seed, LADDER_PASS, th), Until::Ops(n), &make);
        r.set(&rung_metric(name, t), out.elapsed_s * 1e9 / n as f64, "ns");
    }
    r
}

/// One rung of the cost ladder: the workload's prefill and the same `n`-call
/// stream per client through one layer stack.  Each rung adds one layer to
/// the one before it (see [`RUNGS`]), so adjacent rungs differ by that
/// layer's cost.  Reported per client: wall time over calls per client, so
/// perfect 2-thread scaling keeps it flat.  `None` for an unknown rung.
pub fn rung(spec: &Spec, seed: u64, name: &str, n: u64) -> Option<Report> {
    let upsert = spec.map;
    let report = match name {
        "seq" => {
            let seq = Mutex::new(SeqBst::new());
            spec.prefill(seed, |k| seq.lock().expect("unshared").insert(k));
            run_rung(spec, seed, name, n, |_| {
                let mut tree = seq.lock().expect("one client");
                move |op: Op, _, _: &mut Rec| match op.point() {
                    Op::Write(k) => {
                        tree.insert(k);
                    }
                    Op::Remove(k) => {
                        tree.remove(&k);
                    }
                    op => {
                        black_box(tree.contains(&op.key()));
                    }
                }
            })
        }
        "coarse" => {
            let coarse = CoarseLockBst::new();
            spec.prefill(seed, |k| coarse.insert(k));
            run_rung(spec, seed, name, n, |_| {
                let c = &coarse;
                move |op, _, rec: &mut Rec| {
                    set_step(c, op, &mut rec.ledger);
                }
            })
        }
        "lfbst-pin" => {
            let tree = SetTree::new();
            spec.prefill(seed, |k| tree.insert(k));
            run_rung(spec, seed, name, n, |_| {
                let t = &tree;
                move |op, _, rec: &mut Rec| {
                    set_step(t, op, &mut rec.ledger);
                }
            })
        }
        "lfbst-guard" => {
            let tree = SetTree::new();
            spec.prefill(seed, |k| tree.insert(k));
            run_rung(spec, seed, name, n, |_| {
                let mut pinned = tree.pin();
                let mut calls = 0u32;
                move |op, _, rec: &mut Rec| {
                    pinned_set_step(&pinned, op, &mut rec.ledger);
                    // Refresh as lfbst's own batch calls do, so reclamation advances.
                    calls += 1;
                    if calls.is_multiple_of(1024) {
                        pinned.refresh();
                    }
                }
            })
        }
        "lfbst-map" => {
            let tree = MapTree::new();
            spec.prefill(seed, |k| tree.insert_entry(k, stamp(k, 0)));
            run_rung(spec, seed, name, n, |_| {
                let m = &tree;
                move |op, nonce, rec: &mut Rec| {
                    ladder_map_step(m, upsert, op, nonce, &mut rec.ledger)
                }
            })
        }
        "sharded1" => {
            let sharded = ShardedMap::new(BoundaryRouter::new(vec![]), |_| MapTree::new());
            spec.prefill(seed, |k| sharded.insert(k, stamp(k, 0)));
            run_rung(spec, seed, name, n, |_| {
                let m = &sharded;
                move |op, nonce, rec: &mut Rec| {
                    ladder_map_step(m, upsert, op, nonce, &mut rec.ledger)
                }
            })
        }
        "elastic1" => {
            let elastic: ElasticMap<MapTree> = ElasticMap::with_boundaries(vec![], MapTree::new);
            spec.prefill(seed, |k| elastic.insert(k, stamp(k, 0)));
            run_rung(spec, seed, name, n, |_| {
                let m = &elastic;
                move |op, nonce, rec: &mut Rec| {
                    ladder_map_step(m, upsert, op, nonce, &mut rec.ledger)
                }
            })
        }
        _ => return None,
    };
    Some(report)
}

/// The event-count pass (stats build): the workload's structure with
/// `record_stats` on, a fixed number of calls per client, and the counters'
/// deltas per call.  Counting contends on shared counters, so nothing here
/// is timed.
pub fn counts(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let config = Config::new().record_stats(true);
    if spec.map {
        counts_of(&ElasticSubject::new(spec, config), spec, seed, seconds)
    } else {
        counts_of(&SetTree::with_config(config), spec, seed, seconds)
    }
}

fn counts_of<S: Subject>(s: &S, spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut r = Report::with_names(&COUNTS);
    let len = s.prefill(spec, seed) as i64;
    let before = s.stats();
    let out = drive(s, spec, seed, TRACED_PASS, Until::Ops(fixed_ops(seconds)));
    let d = s.stats().since(&before);
    let l = out.rec.ledger;
    let ops = l.ops as f64;
    r.put("lfbst.links_per_op", ratio(d.links_traversed as f64, ops));
    r.put("lfbst.cas_failures_per_kop", ratio(d.cas_failures as f64 * 1000.0, ops));
    r.put("lfbst.helps_per_kop", ratio(d.helps as f64 * 1000.0, ops));
    r.put("lfbst.restarts_per_kop", ratio(d.restarts as f64 * 1000.0, ops));
    r.put("lfbst.cas_success_ratio", ratio(d.cas_successes as f64, d.cas_total() as f64));
    r.attempted = l.ops;
    r.failed = l.failed + s.check(len + l.size_delta());
    r
}
