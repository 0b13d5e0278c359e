//! `experiments` — the evaluation driver.
//!
//! Reproduces the planned evaluation of *Efficient Lock-free Binary Search
//! Trees* (the paper defers experiments to future work; the suite below is the
//! standard concurrent-set methodology its comparators use, see `DESIGN.md`
//! and `EXPERIMENTS.md` for the experiment index E1–E18).
//!
//! Usage:
//!
//! ```text
//! experiments [e1|e2|...|e18|all|e1,e17,...] [--quick] [--duration-ms N]
//!             [--max-threads N] [--value-bytes N] [--sample-every N]
//!             [--dist uniform|zipf:<exp>] [--csv] [--json <path>]
//! ```
//!
//! Each experiment prints a markdown table (or CSV with `--csv`) whose rows are
//! the swept parameter and whose columns are the competing implementations,
//! reporting throughput in million operations per second unless stated
//! otherwise.  With `--json <path>` the throughput experiments additionally
//! write their machine-readable records (experiment id, implementation,
//! threads, key range, mix, ADT kind, value payload bytes, ops/s) to a JSON
//! file — one document per run, overwriting the path — so successive runs can
//! be committed as trajectory points (`BENCH_*.json`) and compared across PRs;
//! the `kind` / `value_bytes` fields keep set rows and map rows (E13)
//! machine-comparable in one schema.
//!
//! `--dist` overrides the key popularity distribution for every workload-
//! runner experiment (E11, E13, E14, E15, ... — anything built through
//! `Options::spec`): `uniform` (the default) or `zipf:<exponent>` (bare
//! `zipf` means the standard 0.99).  Experiments that *sweep* distributions
//! themselves (E17's adversary, E18's uniform-vs-zipf comparison) pin their
//! own and ignore the flag.
//!
//! Schema v3 (`lfbst-bench-v3`) extends v2 by **appending** fields only, so
//! v2 consumers keep working: every record now also carries the latency
//! sampling rate (`--sample-every`, default one op in 64, `0` = off), the
//! sampled per-op latency percentiles in nanoseconds (p50/p90/p99/p999/max),
//! and the epoch-reclamation deltas the run produced (epoch advances, nodes
//! retired/freed, min-stamp skips, repins — see `ebr::ReclamationStats`).
//! E15 sweeps those percentiles against thread count under two mixes, and a
//! final reclamation-health table reports the process-wide `ebr` counters.
//! The reclamation appendix further carries the bag-depth
//! high-water mark and the `GarbageBound` trip/escalation counters; E17 A/Bs
//! the EBR and IBR backends under a fault-injection adversary
//! (`workload::Adversary`) and reads its headline peak-garbage number from
//! that high-water mark.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

use cset::{ConcurrentMap, ConcurrentSet};
use ellen_bst::EllenBst;
use lfbst::{Config, HelpPolicy, LfBst, RestartPolicy};
use locked_bst::{CoarseLockBst, CoarseLockMap, RwLockBst};
use natarajan_bst::NatarajanBst;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard::{HashRouter, RangeRouter, Sharded};
use workload::{
    format_csv, format_markdown_table, prefill, run_adversarial_workload, run_closed_loop,
    run_map_workload, run_scan_workload, run_workload, Adversary, KeyDistribution, MapSpec,
    Measurement, OpKind, OpStream, OperationMix, ScanMode, ThreadStats, Tick, Worker, WorkloadSpec,
};

/// Which implementations an experiment measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SetKind {
    Lfbst,
    /// `lfbst` behind the sharding layer with a hash router (E11).
    LfbstShardedHash {
        shards: usize,
    },
    /// `lfbst` behind the sharding layer with a range router (E11).
    LfbstShardedRange {
        shards: usize,
    },
    Ellen,
    Natarajan,
    CoarseLock,
    RwLock,
}

/// Shard counts swept by E11.
const SHARD_COUNTS: &[usize] = &[1, 4, 16, 64];

impl SetKind {
    fn label(self) -> &'static str {
        match self {
            SetKind::Lfbst => "lfbst",
            // Interned to the exact string a `Sharded` of this configuration
            // reports from `name()`, for any shard count.
            SetKind::LfbstShardedHash { shards } => shard::config_name("lfbst", shards, "hash"),
            SetKind::LfbstShardedRange { shards } => shard::config_name("lfbst", shards, "range"),
            SetKind::Ellen => "ellen",
            SetKind::Natarajan => "natarajan",
            SetKind::CoarseLock => "coarse-lock",
            SetKind::RwLock => "rwlock",
        }
    }
}

/// The default competitor line-up for the throughput experiments.
const COMPETITORS: &[SetKind] =
    &[SetKind::Lfbst, SetKind::Ellen, SetKind::Natarajan, SetKind::CoarseLock, SetKind::RwLock];

/// Runs one (kind, spec, threads) cell and returns the measurement.
fn run_kind(kind: SetKind, spec: &WorkloadSpec, threads: usize, duration: Duration) -> Measurement {
    match kind {
        SetKind::Lfbst => run_workload(Arc::new(LfBst::new()), spec, threads, duration),
        SetKind::LfbstShardedHash { shards } => run_workload(
            Arc::new(Sharded::new(HashRouter::new(shards), |_| LfBst::new())),
            spec,
            threads,
            duration,
        ),
        SetKind::LfbstShardedRange { shards } => run_workload(
            // Partition only the populated key span so every shard sees load.
            Arc::new(Sharded::new(RangeRouter::covering(shards, spec.key_range()), |_| {
                LfBst::new()
            })),
            spec,
            threads,
            duration,
        ),
        SetKind::Ellen => run_workload(Arc::new(EllenBst::new()), spec, threads, duration),
        SetKind::Natarajan => run_workload(Arc::new(NatarajanBst::new()), spec, threads, duration),
        SetKind::CoarseLock => {
            run_workload(Arc::new(CoarseLockBst::new()), spec, threads, duration)
        }
        SetKind::RwLock => run_workload(Arc::new(RwLockBst::new()), spec, threads, duration),
    }
}

/// One machine-readable throughput data point, emitted by `--json`.
///
/// Set rows carry `kind: "set"` and `value_bytes: 0`; map rows (E13) carry
/// `kind: "map"` and the payload size they measured, so one schema covers
/// both ADT faces and trajectory files stay comparable across them.
#[derive(Clone, Debug, PartialEq)]
struct JsonRecord {
    experiment: String,
    impl_name: String,
    threads: usize,
    key_range: u64,
    mix: String,
    kind: &'static str,
    value_bytes: usize,
    mops: f64,
    latency: LatencyFields,
    reclamation: ReclamationFields,
}

/// Sampled per-op latency summary of one record (schema v3 appendix; all
/// zeros for rows measured outside the closed-loop runner, i.e. E16's
/// teardown cycles).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct LatencyFields {
    sample_rate: u64,
    samples: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    max_ns: u64,
}

impl LatencyFields {
    fn of(m: &Measurement) -> LatencyFields {
        LatencyFields {
            sample_rate: m.sample_rate,
            samples: m.latency.count(),
            p50_ns: m.latency.p50(),
            p90_ns: m.latency.p90(),
            p99_ns: m.latency.p99(),
            p999_ns: m.latency.p999(),
            max_ns: m.latency.max(),
        }
    }
}

/// Epoch-reclamation activity a run produced (schema v3 appendix).
///
/// The counters are process-wide (`ebr::reclamation_stats`), so each record
/// holds the delta across its own run; experiments execute sequentially, so a
/// delta attributes to its run plus whatever stragglers the previous run left
/// in the garbage bags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ReclamationFields {
    epoch_advances: u64,
    nodes_retired: u64,
    nodes_freed: u64,
    min_stamp_skips: u64,
    repins: u64,
    bag_depth_hwm: u64,
    bound_trips: u64,
    bound_escalations: u64,
}

impl ReclamationFields {
    fn of(delta: &crossbeam_epoch::ReclamationStats) -> ReclamationFields {
        ReclamationFields {
            epoch_advances: delta.epoch_advances,
            nodes_retired: delta.nodes_retired,
            nodes_freed: delta.nodes_freed,
            min_stamp_skips: delta.min_stamp_skips,
            repins: delta.repins,
            bag_depth_hwm: delta.bag_depth_hwm,
            bound_trips: delta.bound_trips,
            bound_escalations: delta.bound_escalations,
        }
    }
}

/// Runs one measurement closure bracketed by process-wide reclamation
/// snapshots, returning the measurement and the reclamation delta it caused.
fn with_reclamation(
    f: impl FnOnce() -> Measurement,
) -> (Measurement, crossbeam_epoch::ReclamationStats) {
    let before = crossbeam_epoch::reclamation_stats();
    let m = f();
    let delta = crossbeam_epoch::reclamation_stats().since(&before);
    (m, delta)
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes the collected records as a self-describing JSON document.
fn json_document(records: &[JsonRecord], duration: Duration, max_threads: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"lfbst-bench-v3\",\n");
    out.push_str(&format!("  \"duration_ms\": {},\n", duration.as_millis()));
    out.push_str(&format!("  \"max_threads\": {max_threads},\n"));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        // v3 appends fields after `ops_per_sec`; everything a v2 consumer
        // read is still present under the same name at the same meaning.
        out.push_str(&format!(
            "    {{\"experiment\": \"{}\", \"impl\": \"{}\", \"threads\": {}, \"key_range\": {}, \"mix\": \"{}\", \"kind\": \"{}\", \"value_bytes\": {}, \"mops\": {:.6}, \"ops_per_sec\": {:.1}, \"schema_version\": 3, \"sample_rate\": {}, \"latency_samples\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}, \"epoch_advances\": {}, \"nodes_retired\": {}, \"nodes_freed\": {}, \"min_stamp_skips\": {}, \"repins\": {}, \"bag_depth_hwm\": {}, \"bound_trips\": {}, \"bound_escalations\": {}}}{}\n",
            json_escape(&r.experiment),
            json_escape(&r.impl_name),
            r.threads,
            r.key_range,
            json_escape(&r.mix),
            r.kind,
            r.value_bytes,
            r.mops,
            r.mops * 1.0e6,
            r.latency.sample_rate,
            r.latency.samples,
            r.latency.p50_ns,
            r.latency.p90_ns,
            r.latency.p99_ns,
            r.latency.p999_ns,
            r.latency.max_ns,
            r.reclamation.epoch_advances,
            r.reclamation.nodes_retired,
            r.reclamation.nodes_freed,
            r.reclamation.min_stamp_skips,
            r.reclamation.repins,
            r.reclamation.bag_depth_hwm,
            r.reclamation.bound_trips,
            r.reclamation.bound_escalations,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Command-line options.
#[derive(Debug)]
struct Options {
    experiment: String,
    duration: Duration,
    max_threads: usize,
    csv: bool,
    quick: bool,
    json: Option<String>,
    /// Overrides E13's value payload sweep with a single size.
    value_bytes: Option<usize>,
    /// Overrides the workload's default latency sampling rate (`0` disables
    /// sampling — no clock reads at all on the measured hot paths).
    sample_every: Option<u64>,
    /// Overrides the key popularity distribution for every experiment built
    /// through [`Options::spec`] (`--dist uniform|zipf:<exp>`).
    dist: Option<KeyDistribution>,
    records: RefCell<Vec<JsonRecord>>,
}

impl Options {
    fn parse() -> Options {
        let mut experiment = "all".to_string();
        let mut duration_ms = 300u64;
        let mut max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let mut csv = false;
        let mut quick = false;
        let mut json = None;
        let mut value_bytes = None;
        let mut sample_every = None;
        let mut dist = None;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => quick = true,
                "--csv" => csv = true,
                "--duration-ms" => {
                    i += 1;
                    duration_ms = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(duration_ms);
                }
                "--max-threads" => {
                    i += 1;
                    max_threads = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(max_threads);
                }
                "--value-bytes" => {
                    i += 1;
                    value_bytes = args.get(i).and_then(|s| s.parse().ok());
                }
                "--sample-every" => {
                    i += 1;
                    sample_every = args.get(i).and_then(|s| s.parse().ok());
                }
                "--dist" => {
                    i += 1;
                    match args.get(i).map(String::as_str).and_then(KeyDistribution::parse) {
                        Some(d) => dist = Some(d),
                        None => {
                            eprintln!(
                                "--dist takes `uniform` or `zipf:<exponent>` (got {:?})",
                                args.get(i).map(String::as_str).unwrap_or("")
                            );
                            std::process::exit(2);
                        }
                    }
                }
                // Explicit form of the positional selector: `--experiments e1,e13`.
                "--experiments" => {
                    i += 1;
                    if let Some(e) = args.get(i) {
                        experiment = e.clone();
                    }
                }
                "--json" => {
                    i += 1;
                    json = args.get(i).cloned();
                }
                "--help" | "-h" => {
                    println!(
                        "usage: experiments [e1..e18|all|comma-list] [--quick] [--duration-ms N] [--max-threads N] [--value-bytes N] [--sample-every N] [--dist uniform|zipf:<exp>] [--csv] [--json <path>]"
                    );
                    std::process::exit(0);
                }
                other => experiment = other.to_string(),
            }
            i += 1;
        }
        if quick {
            duration_ms = duration_ms.min(120);
        }
        Options {
            experiment,
            duration: Duration::from_millis(duration_ms),
            max_threads: max_threads.max(1),
            csv,
            quick,
            json,
            value_bytes,
            sample_every,
            dist,
            records: RefCell::new(Vec::new()),
        }
    }

    /// Builds a [`WorkloadSpec`], applying the `--sample-every` and `--dist`
    /// overrides when given (otherwise the workload defaults hold: one
    /// latency sample per 64 ops, uniform keys).  Experiments that pin their
    /// own distribution call `.distribution(..)` *after* this and win.
    fn spec(&self, key_range: u64, mix: OperationMix) -> WorkloadSpec {
        let mut spec = WorkloadSpec::new(key_range, mix);
        if let Some(n) = self.sample_every {
            spec = spec.sample_every(n);
        }
        if let Some(d) = self.dist {
            spec = spec.distribution(d);
        }
        spec
    }

    /// Returns `true` if `name` was selected on the command line (`all`, a
    /// single experiment, or a comma-separated list).
    fn selected(&self, name: &str) -> bool {
        self.experiment == "all" || self.experiment.split(',').any(|e| e.trim() == name)
    }

    /// Collects one machine-readable **set** data point for `--json` from a
    /// raw throughput number (rows measured outside the closed-loop runner
    /// carry no latency or reclamation appendix — those fields stay zero).
    fn record(
        &self,
        experiment: &str,
        impl_name: &str,
        threads: usize,
        key_range: u64,
        mix: &str,
        mops: f64,
    ) {
        self.records.borrow_mut().push(JsonRecord {
            experiment: experiment.to_string(),
            impl_name: impl_name.to_string(),
            threads,
            key_range,
            mix: mix.to_string(),
            kind: "set",
            value_bytes: 0,
            mops,
            latency: LatencyFields::default(),
            reclamation: ReclamationFields::default(),
        });
    }

    /// Collects one full data point for `--json` from a runner
    /// [`Measurement`] plus the reclamation delta its run produced: the v2
    /// throughput fields and the v3 latency/reclamation appendix.
    #[allow(clippy::too_many_arguments)]
    fn record_run(
        &self,
        experiment: &str,
        impl_name: &str,
        key_range: u64,
        mix: &str,
        kind: &'static str,
        value_bytes: usize,
        m: &Measurement,
        reclamation: &crossbeam_epoch::ReclamationStats,
    ) {
        self.records.borrow_mut().push(JsonRecord {
            experiment: experiment.to_string(),
            impl_name: impl_name.to_string(),
            threads: m.threads,
            key_range,
            mix: mix.to_string(),
            kind,
            value_bytes,
            mops: m.mops(),
            latency: LatencyFields::of(m),
            reclamation: ReclamationFields::of(reclamation),
        });
    }

    /// Writes the collected records to the `--json` path, if one was given.
    fn write_json(&self) {
        let Some(path) = &self.json else { return };
        let doc = json_document(&self.records.borrow(), self.duration, self.max_threads);
        match std::fs::write(path, doc) {
            Ok(()) => println!("\nwrote {} JSON records to {path}", self.records.borrow().len()),
            Err(e) => eprintln!("failed to write --json {path}: {e}"),
        }
    }

    fn thread_counts(&self) -> Vec<usize> {
        let mut counts = vec![1usize];
        let mut t = 2;
        while t <= self.max_threads {
            counts.push(t);
            t *= 2;
        }
        if *counts.last().unwrap() != self.max_threads && self.max_threads > 1 {
            counts.push(self.max_threads);
        }
        counts
    }

    fn emit(&self, title: &str, row_label: &str, rows: &[(String, Vec<(String, f64)>)]) {
        println!("\n### {title}\n");
        if self.csv {
            println!("{}", format_csv(row_label, rows));
        } else {
            println!("{}", format_markdown_table(row_label, rows));
        }
    }
}

/// Generic "throughput vs thread count" experiment (E1, E2, E3).
fn thread_sweep(
    opts: &Options,
    exp: &str,
    title: &str,
    mix_label: &str,
    mix: OperationMix,
    key_range: u64,
) {
    let spec = opts.spec(key_range, mix);
    let mut rows = Vec::new();
    for &threads in &opts.thread_counts() {
        let mut cells = Vec::new();
        for &kind in COMPETITORS {
            let (m, rec) = with_reclamation(|| run_kind(kind, &spec, threads, opts.duration));
            opts.record_run(exp, kind.label(), key_range, mix_label, "set", 0, &m, &rec);
            cells.push((kind.label().to_string(), m.mops()));
        }
        rows.push((threads.to_string(), cells));
    }
    opts.emit(title, "threads", &rows);
}

fn e1(opts: &Options) {
    thread_sweep(
        opts,
        "e1",
        "E1 — throughput vs threads, read-dominated (90% contains / 9% insert / 1% remove, range 2^16)",
        "90/9/1",
        OperationMix::new(90, 9, 1),
        1 << 16,
    );
}

fn e2(opts: &Options) {
    thread_sweep(
        opts,
        "e2",
        "E2 — throughput vs threads, mixed (70% contains / 20% insert / 10% remove, range 2^16)",
        "70/20/10",
        OperationMix::new(70, 20, 10),
        1 << 16,
    );
}

fn e3(opts: &Options) {
    thread_sweep(
        opts,
        "e3",
        "E3 — throughput vs threads, write-heavy (50% insert / 50% remove, range 2^16)",
        "0/50/50",
        OperationMix::new(0, 50, 50),
        1 << 16,
    );
}

fn e4(opts: &Options) {
    // Contention sweep: smaller key ranges mean more conflicts on the same nodes.
    let threads = opts.max_threads;
    let ranges: &[u64] = if opts.quick {
        &[1 << 7, 1 << 11, 1 << 15]
    } else {
        &[1 << 7, 1 << 9, 1 << 11, 1 << 13, 1 << 15, 1 << 17, 1 << 20]
    };
    let mut rows = Vec::new();
    for &range in ranges {
        let spec = opts.spec(range, OperationMix::updates(50));
        let mut cells = Vec::new();
        for &kind in COMPETITORS {
            let (m, rec) = with_reclamation(|| run_kind(kind, &spec, threads, opts.duration));
            opts.record_run("e4", kind.label(), range, "50% updates", "set", 0, &m, &rec);
            cells.push((kind.label().to_string(), m.mops()));
        }
        rows.push((format!("2^{}", range.trailing_zeros()), cells));
    }
    opts.emit(
        &format!("E4 — throughput vs key range (50% updates, {threads} threads)"),
        "key range",
        &rows,
    );
}

fn e5(opts: &Options) {
    let threads = opts.max_threads;
    let ratios: &[u8] = if opts.quick { &[0, 50, 100] } else { &[0, 10, 20, 40, 60, 80, 100] };
    let mut rows = Vec::new();
    for &u in ratios {
        let spec = opts.spec(1 << 16, OperationMix::updates(u));
        let mut cells = Vec::new();
        for &kind in COMPETITORS {
            let (m, rec) = with_reclamation(|| run_kind(kind, &spec, threads, opts.duration));
            opts.record_run(
                "e5",
                kind.label(),
                1 << 16,
                &format!("{u}% updates"),
                "set",
                0,
                &m,
                &rec,
            );
            cells.push((kind.label().to_string(), m.mops()));
        }
        rows.push((format!("{u}%"), cells));
    }
    opts.emit(
        &format!("E5 — throughput vs update ratio (range 2^16, {threads} threads)"),
        "updates",
        &rows,
    );
}

fn e6(opts: &Options) {
    // Restart-from-vicinity vs restart-from-root under high contention: the
    // O(H + c) vs O(c * H) claim, measured as throughput plus contention
    // diagnostics per completed operation.
    if !lfbst::stats_compiled() {
        println!(
            "\n(note: lfbst built without the `stats` feature — E6's per-op \
             counters will read zero; rebuild with `--features stats`)"
        );
    }
    let threads = opts.max_threads;
    let spec = opts.spec(1 << 10, OperationMix::new(0, 50, 50));
    let mut rows = Vec::new();
    for (label, restart) in [("vicinity", RestartPolicy::Vicinity), ("root", RestartPolicy::Root)] {
        let set =
            Arc::new(LfBst::with_config(Config::new().restart_policy(restart).record_stats(true)));
        let handle = Arc::clone(&set);
        let m = run_workload(set, &spec, threads, opts.duration);
        let stats = handle.stats();
        let ops = m.total_ops() as f64;
        rows.push((
            label.to_string(),
            vec![
                ("mops".to_string(), m.mops()),
                ("cas_failures_per_op".to_string(), stats.cas_failures as f64 / ops),
                ("restarts_per_op".to_string(), stats.restarts as f64 / ops),
                ("helps_per_op".to_string(), stats.helps as f64 / ops),
                ("links_per_op".to_string(), stats.links_traversed as f64 / ops),
            ],
        ));
    }
    opts.emit(
        &format!("E6 — restart policy ablation (write-heavy, range 2^10, {threads} threads)"),
        "policy",
        &rows,
    );
}

fn e7(opts: &Options) {
    // Adaptive helping: eager helping should win on write-heavy mixes and cost
    // a little on read-heavy mixes.
    let threads = opts.max_threads;
    let mut rows = Vec::new();
    for (mix_label, mix) in [
        ("95% reads", OperationMix::new(95, 3, 2)),
        ("50% reads", OperationMix::new(50, 25, 25)),
        ("0% reads", OperationMix::new(0, 50, 50)),
    ] {
        let spec = opts.spec(1 << 12, mix);
        let mut cells = Vec::new();
        for (label, policy) in [
            ("read-optimized", HelpPolicy::ReadOptimized),
            ("write-optimized", HelpPolicy::WriteOptimized),
        ] {
            let set = Arc::new(LfBst::with_config(Config::new().help_policy(policy)));
            let m = run_workload(set, &spec, threads, opts.duration);
            cells.push((label.to_string(), m.mops()));
        }
        rows.push((mix_label.to_string(), cells));
    }
    opts.emit(
        &format!("E7 — helping policy adaptivity (range 2^12, {threads} threads)"),
        "workload",
        &rows,
    );
}

fn e8(opts: &Options) {
    // Disjoint-access parallelism: every thread works on its own key partition;
    // an algorithm with good disjoint-access parallelism should scale almost
    // linearly because operations touch disjoint links.
    let per_thread_range = 1u64 << 12;
    let mut rows = Vec::new();
    for &t in &opts.thread_counts() {
        // The partitions are the experiment, so keys stay uniform whatever
        // `--dist` says; the prefill fills about half of every partition.
        let spec = opts
            .spec(t as u64 * per_thread_range, OperationMix::updates(100))
            .distribution(KeyDistribution::Uniform);
        let mut cells = Vec::new();
        for kind in [SetKind::Lfbst, SetKind::Ellen, SetKind::Natarajan, SetKind::CoarseLock] {
            let (m, rec) = with_reclamation(|| match kind {
                SetKind::Lfbst => disjoint_access_run(&LfBst::new(), &spec, t, opts.duration),
                SetKind::Ellen => disjoint_access_run(&EllenBst::new(), &spec, t, opts.duration),
                SetKind::Natarajan => {
                    disjoint_access_run(&NatarajanBst::new(), &spec, t, opts.duration)
                }
                _ => disjoint_access_run(&CoarseLockBst::new(), &spec, t, opts.duration),
            });
            let range = spec.key_range();
            opts.record_run("e8", kind.label(), range, "0/50/50 disjoint", "set", 0, &m, &rec);
            cells.push((kind.label().to_string(), m.mops()));
        }
        rows.push((t.to_string(), cells));
    }
    opts.emit(
        "E8 — disjoint-access parallelism (each thread updates its own key partition)",
        "threads",
        &rows,
    );
}

/// Prefills `set`, then runs a partitioned-keys workload: thread `i` only
/// touches keys in the `i`-th of `threads` equal slices of the spec's key
/// range, so ideal structures scale linearly.
fn disjoint_access_run<S: ConcurrentSet<u64>>(
    set: &S,
    spec: &WorkloadSpec,
    threads: usize,
    duration: Duration,
) -> Measurement {
    prefill(spec, |k| set.insert(k));
    let per_thread = spec.key_range() / threads as u64;
    run_closed_loop(spec, threads, duration, |t| {
        let mut rng = StdRng::seed_from_u64(t as u64 + 17);
        let base = t as u64 * per_thread;
        move |stats: &mut ThreadStats, tick: &mut Tick| {
            let k = base + rng.gen_range(0..per_thread);
            let kind = if rng.gen_bool(0.5) { OpKind::Insert } else { OpKind::Remove };
            tick.start();
            let hit = if kind == OpKind::Insert { set.insert(k) } else { set.remove(&k) };
            stats.count(kind, hit);
        }
    })
}

fn e9(opts: &Options) {
    // Memory footprint: bytes per stored key, from the concrete node layouts.
    let sizes = [1_000usize, 100_000];
    let mut rows = Vec::new();
    for &n in &sizes {
        let n_f = n as f64;
        let lfbst = (n_f + 2.0) * LfBst::<u64>::node_size_bytes() as f64 / n_f;
        let external = (2.0 * n_f - 1.0) * natarajan_bst::node_size_bytes() as f64 / n_f;
        let ellen = (2.0 * n_f - 1.0) * ellen_bst::node_size_bytes() as f64 / n_f;
        let list = lflist::node_size_bytes() as f64;
        rows.push((
            n.to_string(),
            vec![
                ("lfbst".to_string(), lfbst),
                ("natarajan".to_string(), external),
                ("ellen".to_string(), ellen),
                ("harris-list".to_string(), list),
            ],
        ));
    }
    opts.emit("E9 — memory footprint (bytes per stored key, from node layouts)", "keys", &rows);
    println!(
        "lfbst node = {} bytes ({} words per key; the paper predicts 5 words plus the key-bound tag)",
        LfBst::<u64>::node_size_bytes(),
        LfBst::<u64>::node_size_bytes() / std::mem::size_of::<usize>()
    );
}

fn e10(opts: &Options) {
    // Sequential sanity: single-threaded behaviour against std::collections.
    use std::time::Instant;
    let n: u64 = if opts.quick { 100_000 } else { 1_000_000 };
    let mut rows = Vec::new();

    // Random insertion order.
    let keys: Vec<u64> = {
        use rand::seq::SliceRandom;
        let mut v: Vec<u64> = (0..n).collect();
        v.shuffle(&mut StdRng::seed_from_u64(42));
        v
    };

    let tree = LfBst::new();
    let start = Instant::now();
    for &k in &keys {
        tree.insert(k);
    }
    let lfbst_insert = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for &k in &keys {
        assert!(tree.contains(&k));
    }
    let lfbst_lookup = start.elapsed().as_secs_f64();

    let mut btree = std::collections::BTreeSet::new();
    let start = Instant::now();
    for &k in &keys {
        btree.insert(k);
    }
    let btree_insert = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for &k in &keys {
        assert!(btree.contains(&k));
    }
    let btree_lookup = start.elapsed().as_secs_f64();

    let height = tree.height() as f64;
    let ideal = (n as f64).log2();
    rows.push((
        "insert Mops".to_string(),
        vec![
            ("lfbst(1 thread)".to_string(), n as f64 / lfbst_insert / 1e6),
            ("BTreeSet".to_string(), n as f64 / btree_insert / 1e6),
        ],
    ));
    rows.push((
        "lookup Mops".to_string(),
        vec![
            ("lfbst(1 thread)".to_string(), n as f64 / lfbst_lookup / 1e6),
            ("BTreeSet".to_string(), n as f64 / btree_lookup / 1e6),
        ],
    ));
    rows.push((
        "height / log2(n)".to_string(),
        vec![("lfbst(1 thread)".to_string(), height / ideal), ("BTreeSet".to_string(), 1.0)],
    ));
    opts.emit(&format!("E10 — sequential sanity, n = {n} random keys"), "metric", &rows);
}

fn e11(opts: &Options) {
    // Sharding sweep: shard count x thread count x operation mix, for both
    // routing policies.  Rows are shard counts (1 = the unsharded baseline
    // modulo one routing call); columns are policy/thread-count cells, so one
    // table per mix shows whether partitioning pays off as threads grow.
    let mut thread_counts: Vec<usize> =
        if opts.quick { vec![1, opts.max_threads] } else { opts.thread_counts() };
    thread_counts.dedup();
    for (mix_label, mix) in [
        ("read-dominated 90/9/1", OperationMix::new(90, 9, 1)),
        ("write-heavy 0/50/50", OperationMix::new(0, 50, 50)),
    ] {
        let spec = opts.spec(1 << 16, mix);
        let mut rows = Vec::new();
        for &shards in SHARD_COUNTS {
            let mut cells = Vec::new();
            for &threads in &thread_counts {
                for kind in
                    [SetKind::LfbstShardedHash { shards }, SetKind::LfbstShardedRange { shards }]
                {
                    let (m, rec) =
                        with_reclamation(|| run_kind(kind, &spec, threads, opts.duration));
                    let policy = match kind {
                        SetKind::LfbstShardedHash { .. } => "hash",
                        _ => "range",
                    };
                    opts.record_run("e11", kind.label(), 1 << 16, mix_label, "set", 0, &m, &rec);
                    cells.push((format!("{policy}/{threads}t"), m.mops()));
                }
            }
            rows.push((shards.to_string(), cells));
        }
        opts.emit(
            &format!("E11 — sharding sweep over lfbst, {mix_label} (range 2^16)"),
            "shards",
            &rows,
        );
    }
}

/// E12's reusable-guard worker: `run_workload`'s key stream and op dispatch,
/// issued through one [`lfbst::Pinned`] handle instead of an epoch pin per
/// operation.
struct GuardWorker<'t> {
    pinned: lfbst::Pinned<'t, u64>,
    ops: OpStream,
}

impl Worker for GuardWorker<'_> {
    fn batch(&mut self, _stats: &mut ThreadStats) {
        // One refresh per batch keeps reclamation moving while amortizing
        // the pin across the batch.
        self.pinned.refresh();
    }

    fn op(&mut self, stats: &mut ThreadStats, tick: &mut Tick) {
        let (kind, key) = self.ops.next(tick);
        let hit = match kind {
            OpKind::Contains => self.pinned.contains(&key),
            OpKind::Insert => self.pinned.insert(key),
            _ => self.pinned.remove(&key),
        };
        stats.count(kind, hit);
    }
}

/// Prefills a fresh `lfbst` and runs `spec` on it through [`GuardWorker`]s.
fn run_lfbst_pinned(spec: &WorkloadSpec, threads: usize, duration: Duration) -> Measurement {
    let set = LfBst::new();
    prefill(spec, |k| set.insert(k));
    run_closed_loop(spec, threads, duration, |t| GuardWorker {
        pinned: set.pin(),
        ops: OpStream::new(spec, t),
    })
}

fn e12(opts: &Options) {
    // Hot-path microbenchmark over lfbst alone: the per-operation taxes this
    // experiment tracks (atomic ordering strength, stats branches, sentinel
    // comparisons, epoch pinning) are invisible in the cross-implementation
    // sweeps but dominate single-structure throughput.  Rows are workload
    // variant × key range; columns are thread counts × pinning modes.  The
    // 2^9 range keeps the traversal shallow so the per-operation pin is a
    // visible fraction of the cost (the reusable guard's best case); 2^16 is
    // the traversal-dominated canonical range of E1.
    let mut thread_counts = vec![1usize, opts.max_threads];
    thread_counts.dedup();
    let mut rows = Vec::new();
    for key_range in [1u64 << 9, 1u64 << 16] {
        for (variant, mix_label, mix) in [
            ("contains-only", "100/0/0", OperationMix::new(100, 0, 0)),
            ("read-dominated", "90/9/1", OperationMix::new(90, 9, 1)),
        ] {
            let spec = opts.spec(key_range, mix);
            let mut cells = Vec::new();
            for &threads in &thread_counts {
                let (m, rec) =
                    with_reclamation(|| run_kind(SetKind::Lfbst, &spec, threads, opts.duration));
                let impl_name = format!("lfbst-{variant}");
                opts.record_run("e12", &impl_name, key_range, mix_label, "set", 0, &m, &rec);
                cells.push((format!("{threads}t"), m.mops()));
                let (m, rec) = with_reclamation(|| run_lfbst_pinned(&spec, threads, opts.duration));
                let pinned_name = format!("lfbst-pinned-{variant}");
                opts.record_run("e12", &pinned_name, key_range, mix_label, "set", 0, &m, &rec);
                cells.push((format!("{threads}t guard"), m.mops()));
            }
            rows.push((format!("{variant}@2^{}", key_range.trailing_zeros()), cells));
        }
    }
    opts.emit(
        "E12 — hot-path throughput over lfbst (per-op pin vs reusable guard)",
        "workload",
        &rows,
    );
}

/// The value payload sizes E13 sweeps when `--value-bytes` is not given.
const E13_VALUE_BYTES: &[usize] = &[8, 64, 256];

fn e13(opts: &Options) {
    // Map mixed workload: the same tree carrying real payloads.  Rows are
    // value payload sizes; columns are the map-shaped implementations —
    // `lfbst` as LfBst<u64, Vec<u8>>, the sharded composition of the same,
    // and the mutex-BTreeMap oracle as the lock-based comparator.  The mix is
    // E2's 70/20/10 reinterpreted for the map ADT (get / upsert / remove), so
    // e2 set rows and e13 map rows of a trajectory file measure the same
    // traffic shape with and without payloads.
    let threads = opts.max_threads;
    let key_range = 1u64 << 16;
    let mix_label = "70/20/10";
    let mix = OperationMix::new(70, 20, 10);
    let sizes: Vec<usize> = match opts.value_bytes {
        Some(n) => vec![n],
        None if opts.quick => vec![8, 256],
        None => E13_VALUE_BYTES.to_vec(),
    };
    let mut rows = Vec::new();
    for &value_bytes in &sizes {
        let spec = MapSpec::new(opts.spec(key_range, mix), value_bytes);
        let mut cells = Vec::new();

        let (m, rec) = with_reclamation(|| {
            run_map_workload(Arc::new(LfBst::<u64, Vec<u8>>::new()), &spec, threads, opts.duration)
        });
        opts.record_run("e13", "lfbst", key_range, mix_label, "map", value_bytes, &m, &rec);
        cells.push(("lfbst".to_string(), m.mops()));

        let sharded = Sharded::new(HashRouter::new(16), |_| LfBst::<u64, Vec<u8>>::new());
        let label = sharded.name();
        let (m, rec) =
            with_reclamation(|| run_map_workload(Arc::new(sharded), &spec, threads, opts.duration));
        opts.record_run("e13", label, key_range, mix_label, "map", value_bytes, &m, &rec);
        cells.push((label.to_string(), m.mops()));

        let (m, rec) = with_reclamation(|| {
            run_map_workload(
                Arc::new(CoarseLockMap::<u64, Vec<u8>>::new()),
                &spec,
                threads,
                opts.duration,
            )
        });
        opts.record_run(
            "e13",
            "coarse-mutex-btreemap",
            key_range,
            mix_label,
            "map",
            value_bytes,
            &m,
            &rec,
        );
        cells.push(("coarse-mutex-btreemap".to_string(), m.mops()));

        rows.push((format!("{value_bytes} B"), cells));
    }
    opts.emit(
        &format!(
            "E13 — map mixed workload (get/upsert/remove {mix_label}, range 2^16, {threads} threads, value payload swept)"
        ),
        "value bytes",
        &rows,
    );
}

/// The scan lengths E14 sweeps (keys per scan operation).  The last row of a
/// full run uses the whole key range, where the cursor path degenerates into
/// exactly the collect path's work — the "at least matching" check.
const E14_SCAN_LENS: &[usize] = &[16, 256, 4096];

fn e14(opts: &Options) {
    // Scan-heavy mixed workload: the streaming-cursor architecture against
    // the historical collect-everything scans, over the single tree and the
    // range-sharded composition (whose cross-shard scans go through the
    // k-way merge cursor).  Rows are scan lengths; columns are
    // implementation x scan-serving mode.  Every scan reads up to `len` keys
    // from a sampled lower bound: the cursor rows stop there, the collect
    // rows first materialise the whole tail the way the pre-cursor API
    // forced, so short rows show the early-exit/top-k win and the full-range
    // row checks the cursor costs nothing when the scan consumes everything.
    let threads = opts.max_threads;
    let key_range = 1u64 << 16;
    let mix = OperationMix::with_scans(50, 15, 15, 20);
    let mix_label = "50/15/15+20%scan";
    let shards = 16usize;
    let mut lens: Vec<usize> = if opts.quick { vec![16, 4096] } else { E14_SCAN_LENS.to_vec() };
    if !opts.quick {
        lens.push(key_range as usize);
    }
    let mut rows = Vec::new();
    for &len in &lens {
        let spec = opts.spec(key_range, mix).scan_len(len);
        let row_mix = format!("{mix_label} len={len}");
        let mut cells = Vec::new();
        for mode in [ScanMode::Cursor, ScanMode::Collect] {
            let (m, rec) = with_reclamation(|| {
                run_scan_workload(Arc::new(LfBst::new()), &spec, threads, opts.duration, mode)
            });
            let name = format!("lfbst-{}", mode.label());
            opts.record_run("e14", &name, key_range, &row_mix, "set", 0, &m, &rec);
            cells.push((name, m.mops()));
        }
        for mode in [ScanMode::Cursor, ScanMode::Collect] {
            let set = Sharded::new(RangeRouter::covering(shards, key_range), |_| LfBst::new());
            let base = ConcurrentSet::<u64>::name(&set);
            let (m, rec) = with_reclamation(|| {
                run_scan_workload(Arc::new(set), &spec, threads, opts.duration, mode)
            });
            let name = format!("{base}-{}", mode.label());
            opts.record_run("e14", &name, key_range, &row_mix, "set", 0, &m, &rec);
            cells.push((name, m.mops()));
        }
        rows.push((len.to_string(), cells));
    }
    opts.emit(
        &format!(
            "E14 — scan-heavy mixed workload (get/insert/remove/scan {mix_label}, range 2^16, \
             {threads} threads; cursor = streaming, collect = materialise-the-tail)"
        ),
        "scan len",
        &rows,
    );
}

/// Appends one implementation's latency percentile columns to an E15 row.
fn push_latency_cells(cells: &mut Vec<(String, f64)>, name: &str, m: &Measurement) {
    cells.push((format!("{name} p50ns"), m.latency.p50() as f64));
    cells.push((format!("{name} p99ns"), m.latency.p99() as f64));
    cells.push((format!("{name} p999ns"), m.latency.p999() as f64));
    cells.push((format!("{name} maxns"), m.latency.max() as f64));
    cells.push((format!("{name} Mops"), m.mops()));
}

fn e15(opts: &Options) {
    // Latency under contention: the per-op latency distribution (sampled, see
    // --sample-every) as thread count grows, for the single tree against the
    // hash-sharded composition of the same tree.  Throughput sweeps (E1-E3)
    // hide tail behaviour entirely: a structure can keep its Mops while its
    // p999 collapses under helping storms.  Map ADT so the rows carry real
    // payload traffic; two mixes bracket the contention regimes.
    if opts.sample_every == Some(0) {
        println!("\n(note: --sample-every 0 disables latency sampling — E15 would be all zeros; skipping)");
        return;
    }
    let key_range = 1u64 << 16;
    let value_bytes = 8usize;
    let shards = 16usize;
    for (mix_label, mix) in
        [("90/9/1", OperationMix::new(90, 9, 1)), ("0/50/50", OperationMix::new(0, 50, 50))]
    {
        let mut rows = Vec::new();
        let mut sample_rate = 0u64;
        for &threads in &opts.thread_counts() {
            let spec = MapSpec::new(opts.spec(key_range, mix), value_bytes);
            sample_rate = spec.base().sample_rate();
            let mut cells = Vec::new();

            let (m, rec) = with_reclamation(|| {
                run_map_workload(
                    Arc::new(LfBst::<u64, Vec<u8>>::new()),
                    &spec,
                    threads,
                    opts.duration,
                )
            });
            opts.record_run("e15", "lfbst", key_range, mix_label, "map", value_bytes, &m, &rec);
            push_latency_cells(&mut cells, "lfbst", &m);

            let sharded = Sharded::new(HashRouter::new(shards), |_| LfBst::<u64, Vec<u8>>::new());
            let label = sharded.name();
            let (m, rec) = with_reclamation(|| {
                run_map_workload(Arc::new(sharded), &spec, threads, opts.duration)
            });
            opts.record_run("e15", label, key_range, mix_label, "map", value_bytes, &m, &rec);
            push_latency_cells(&mut cells, label, &m);

            rows.push((threads.to_string(), cells));
        }
        opts.emit(
            &format!(
                "E15 — per-op latency under contention ({mix_label} map mix, range 2^16, \
                 {value_bytes} B payloads; nanosecond percentiles from 1-in-{sample_rate} sampling)"
            ),
            "threads",
            &rows,
        );
    }
}

/// The teardown chunk sizes E16 sweeps (keys per `remove_range` call).
const E16_BULKS: &[usize] = &[10, 100, 1000];

fn e16(opts: &Options) {
    // Bulk range mutations (the rs_teardown_tree refill/teardown methodology,
    // in the session-expiry shape): fill a set with `keys` shuffled live keys
    // spaced `stride` apart in the ID space, then clear the span again in
    // ascending ID ranges covering `bulk` live keys each — one streaming
    // `remove_range` per range against the per-key baseline, which knows the
    // range but not the membership and so probes every candidate ID.  The
    // bulk path walks only live keys along successor threads and amortizes
    // pin/collect costs over the whole range, so its advantage grows with the
    // chunk size and the sparsity; the coarse-lock row bounds what a single
    // lock hold buys.  Single-threaded by design: teardown throughput is a
    // per-operation cost story, not a scalability one (E1–E3 cover that).
    use std::time::Instant;
    use workload::{run_teardown_cycle, TeardownMode};
    let keys: u64 = if opts.quick { 1 << 13 } else { 1 << 16 };
    let cycles: u64 = if opts.quick { 2 } else { 4 };
    let bulks: &[usize] = if opts.quick { &[10, 1000] } else { E16_BULKS };
    // Live sessions sparsely occupy the ID space (one in eight IDs): each
    // per-key probe that misses still pays a full locate, a range walk skips
    // it for free.  The occupancy sweep below shows the dense end too.
    let stride: u64 = 8;
    let span = keys * stride;
    let shards = 8usize;
    let seed = 0x16u64;
    let modes = [TeardownMode::PerKey, TeardownMode::Bulk];
    let mut rows = Vec::new();
    for &bulk in bulks {
        let mix_label = format!("teardown@{bulk}");
        let mut cells = Vec::new();
        let mut lfbst_mkeys = [0.0f64; 2];
        for (i, mode) in modes.into_iter().enumerate() {
            let set: LfBst<u64, ()> = LfBst::new();
            let m = run_teardown_cycle(&set, keys, bulk, cycles, stride, mode, seed);
            lfbst_mkeys[i] = m.teardown_mkeys();
            let name = format!("lfbst/{}", mode.label());
            opts.record("e16", &name, 1, span, &mix_label, lfbst_mkeys[i]);
            cells.push((name, lfbst_mkeys[i]));
        }
        // The headline ratio BENCH_10_teardown.json is judged on.
        cells.push(("lfbst speedup".to_string(), lfbst_mkeys[1] / lfbst_mkeys[0]));
        for mode in modes {
            // Range-routed shards: a chunk spanning one strip stays on the
            // calling thread; wider chunks fan out one scoped thread per
            // covered shard (the cross-shard parallel teardown path).
            let set = Sharded::new(RangeRouter::covering(shards, span), |_| LfBst::new());
            let m = run_teardown_cycle(&set, keys, bulk, cycles, stride, mode, seed);
            let name = format!("shard/{}", mode.label());
            opts.record("e16", &name, 1, span, &mix_label, m.teardown_mkeys());
            cells.push((name, m.teardown_mkeys()));
        }
        for mode in modes {
            let set = CoarseLockBst::new();
            let m = run_teardown_cycle(&set, keys, bulk, cycles, stride, mode, seed);
            let name = format!("lock/{}", mode.label());
            opts.record("e16", &name, 1, span, &mix_label, m.teardown_mkeys());
            cells.push((name, m.teardown_mkeys()));
        }
        rows.push((bulk.to_string(), cells));
    }
    opts.emit(
        &format!(
            "E16 — refill/teardown cycles ({keys} shuffled live keys at ID stride {stride}, \
             {cycles} cycles, ascending ranges; streaming remove_range vs per-key probing, \
             Mkeys/s torn down)"
        ),
        "bulk",
        &rows,
    );

    // How the bulk advantage scales with occupancy: at stride 1 (dense) both
    // modes touch exactly the live keys and the win is only the amortized
    // descent/pin; every halving of occupancy adds probe misses the range
    // walk never pays.
    let sweep_strides: &[u64] = if opts.quick { &[1, 4] } else { &[1, 2, 4, 8, 16] };
    let sweep_bulk = 1000usize;
    let mut srows = Vec::new();
    for &s in sweep_strides {
        let mix_label = format!("teardown@{sweep_bulk}/stride{s}");
        let mut cells = Vec::new();
        let mut mkeys = [0.0f64; 2];
        for (i, mode) in modes.into_iter().enumerate() {
            let set: LfBst<u64, ()> = LfBst::new();
            let m = run_teardown_cycle(&set, keys, sweep_bulk, cycles, s, mode, seed);
            mkeys[i] = m.teardown_mkeys();
            let name = format!("lfbst/{}", mode.label());
            opts.record("e16", &name, 1, keys * s, &mix_label, mkeys[i]);
            cells.push((name, mkeys[i]));
        }
        cells.push(("speedup".to_string(), mkeys[1] / mkeys[0]));
        srows.push((s.to_string(), cells));
    }
    opts.emit(
        &format!(
            "E16 — bulk advantage vs ID-space occupancy ({keys} live keys, bulk {sweep_bulk}, \
             {cycles} cycles; stride 1 = dense)"
        ),
        "stride",
        &srows,
    );

    // Full-strip clears: when a range covers whole strips, the elastic map
    // swaps in fresh empty trees through the epoch-switched table cutover
    // (PR 9's migration machinery) instead of walking nodes.  Clearing the
    // whole populated span A/Bs that wholesale swap against the per-key
    // baseline on an identical layout.
    use shard::ElasticMap;
    let mut erows = Vec::new();
    for strategy in ["strip-swap", "per-key"] {
        let map: ElasticMap<LfBst<u64, u64>> = ElasticMap::covering(shards, keys, LfBst::new);
        let mut removed = 0u64;
        let mut teardown = Duration::ZERO;
        for _ in 0..cycles {
            for k in 0..keys {
                map.insert(k, k);
            }
            let t0 = Instant::now();
            match strategy {
                "strip-swap" => {
                    use std::ops::Bound;
                    removed +=
                        cset::OrderedMap::remove_range(&map, Bound::Unbounded, Bound::Unbounded)
                            as u64;
                }
                _ => {
                    for k in 0..keys {
                        removed += u64::from(map.remove(&k).is_some());
                    }
                }
            }
            teardown += t0.elapsed();
        }
        assert_eq!(removed, keys * cycles, "every clear must drain the whole map");
        let mkeys = removed as f64 / teardown.as_secs_f64() / 1.0e6;
        let name = format!("elastic/{strategy}");
        opts.record("e16", &name, 1, keys, "full-clear", mkeys);
        erows.push((strategy.to_string(), vec![("Mkeys/s".to_string(), mkeys)]));
    }
    opts.emit(
        &format!(
            "E16 — full-strip clears on the elastic map ({shards} strips over {keys} keys, \
             {cycles} cycles; wholesale strip swap vs per-key removal)"
        ),
        "strategy",
        &erows,
    );
}

/// The garbage ceiling E17 configures for both backends, in nodes.
///
/// Sized so steady-state churn (a few thousand in-flight retirements at 8
/// threads) never trips it, while a 250 ms stall under EBR strands far more
/// than this — the ceiling separates "backpressure works" (IBR stays under)
/// from "backpressure can't help" (EBR's epoch is stuck; its peak scales
/// with stall duration regardless of collect effort).
const E17_GARBAGE_BOUND: usize = 20_000;

/// One E17 row: the adversarial workload over `LfBst<u64, (), R>`, reporting
/// peak unreclaimed nodes (the backend's bag-depth high-water mark across the
/// run), throughput, sampled p999 and the injected-fault counts.
fn e17_backend<R: crossbeam_epoch::Reclaimer>(
    opts: &Options,
    spec: &WorkloadSpec,
    threads: usize,
    adv: Adversary,
) -> (String, Vec<(String, f64)>) {
    // Drain stragglers from earlier experiments, then reset the high-water
    // mark so the peak attributes to this run alone.
    R::collect();
    R::reset_bag_depth_hwm();
    let before = R::stats();
    let set: Arc<LfBst<u64, (), R>> = Arc::new(LfBst::new_in());
    let r = run_adversarial_workload::<R, _>(set, spec, threads, opts.duration, adv);
    let delta = R::stats().since(&before);
    let impl_name = format!("lfbst-{}", R::NAME);
    opts.record_run(
        "e17",
        &impl_name,
        spec.key_range(),
        "50/25/25+adv",
        "set",
        0,
        &r.measurement,
        &delta,
    );
    (
        R::NAME.to_string(),
        vec![
            ("peak_garbage".to_string(), delta.bag_depth_hwm as f64),
            ("Mops".to_string(), r.measurement.mops()),
            ("p999ns".to_string(), r.measurement.latency.p999() as f64),
            ("bound_trips".to_string(), delta.bound_trips as f64),
            ("stalls".to_string(), r.stalls as f64),
            ("storms".to_string(), r.storms as f64),
        ],
    )
}

fn e17(opts: &Options) {
    // Reclamation under adversity: the same fault-injected churn workload
    // A/B'd between the EBR and IBR backends.  The headline number is
    // peak_garbage: EBR's grows with the stall duration (a pinned reader
    // freezes the global epoch, so *every* retirement in the domain piles
    // up), IBR's stays bounded near the GarbageBound ceiling (a frozen
    // reservation only pins garbage whose lifetime overlaps it; the
    // escalation ladder can still free everything younger).
    use crossbeam_epoch::{Ebr, GarbageBound, Ibr};
    let key_range = 1u64 << 16;
    let mix = OperationMix::updates(50);
    let threads = opts.max_threads.clamp(2, 8);
    let stall_ms: u64 = if opts.quick { 50 } else { 250 };
    let adv = Adversary::default().stalls(stall_ms, 4);
    let spec =
        opts.spec(key_range, mix).distribution(KeyDistribution::Zipf { exponent: 0.99 }).seed(0x17);
    let prev = crossbeam_epoch::garbage_bound();
    crossbeam_epoch::set_garbage_bound(GarbageBound::nodes(E17_GARBAGE_BOUND));
    let rows = vec![
        e17_backend::<Ebr>(opts, &spec, threads, adv),
        e17_backend::<Ibr>(opts, &spec, threads, adv),
    ];
    crossbeam_epoch::set_garbage_bound(prev);
    opts.emit(
        &format!(
            "E17 — reclamation under adversity (EBR vs IBR, {stall_ms} ms stalled reader \
             1-in-4 duty, 50/25/25 Zipf(0.99) mix, range 2^16, {threads} threads, \
             GarbageBound {E17_GARBAGE_BOUND} nodes)"
        ),
        "backend",
        &rows,
    );
}

fn e18(opts: &Options) {
    // Elastic sharding under skew: the same map workload over a 16-strip
    // ElasticMap<LfBst>, with the background rebalancer off (a static
    // range-partitioned table) versus on (policy-driven online split/merge).
    // Under uniform keys the two must tie — rebalancing has nothing to move
    // and must not cost throughput.  Under Zipf(0.99) the hot strips
    // serialize most operations onto a few trees; splitting them online
    // spreads the heat and buys back both Mops and tail latency.  The final
    // per-strip load tallies are reported as gauges so the skew (and what
    // the rebalancer did to it) is visible, not just its throughput effect.
    use crossbeam_epoch::{Ebr, Reclaimer};
    use shard::{ElasticMap, RebalancePolicy, Rebalancer, RebalancerHandle};
    let key_range = if opts.quick { 1u64 << 18 } else { 1u64 << 24 };
    let value_bytes = 8usize;
    let shards = 16usize;
    let mix = OperationMix::new(70, 20, 10);
    let threads = opts.max_threads;
    let mut rows = Vec::new();
    let mut strip_rows = Vec::new();
    for dist in [KeyDistribution::Uniform, KeyDistribution::Zipf { exponent: 0.99 }] {
        // The measured spec's own prefill is off (`prefill_fraction(0)`):
        // a zipf prefill is attempt-capped far below this density, and
        // the skew question needs a *dense* map — deep strips whose
        // access-weighted working set dwarfs the cache — not the sparse
        // resident set a short skewed run leaves behind.  So the map is
        // prefilled once from a uniform twin of the spec to 25% density,
        // in random order (sorted order would degenerate the
        // rebalancing-free trees into spines).
        //
        // One map serves BOTH the off and on rows (off measured first, then
        // the rebalancer is let loose on the same map): a paired comparison.
        // Building a second identical map would not be identical at all —
        // its nodes come out of the freed first map's fragmented allocations,
        // and on this DRAM-bound uniform workload that order effect alone
        // swings throughput more than the treatment under test.
        let spec = MapSpec::new(
            opts.spec(key_range, mix).distribution(dist).seed(0x18).prefill_fraction(0.0),
            value_bytes,
        );
        let map: Arc<ElasticMap<LfBst<u64, Vec<u8>>>> =
            Arc::new(ElasticMap::covering(shards, key_range, LfBst::new));
        let dense = spec.base().distribution(KeyDistribution::Uniform).prefill_fraction(0.25);
        prefill(&dense, |k| map.insert(k, vec![0u8; value_bytes]));
        map.take_loads(); // the prefill window is not load signal
        for rebalance in [false, true] {
            // Split-dominant policy: merging "cold" strips mid-run copies
            // entries for zero throughput benefit — the floor at the initial
            // strip count plus a near-zero cold factor keeps the run
            // split-only, letting the layout converge on isolating the hot
            // keys instead of thrashing.
            let balancer = rebalance.then(|| {
                Rebalancer::new(RebalancePolicy {
                    // hot_factor 2.5: high enough that the converged layout
                    // (whose residual peak is a single unsplittable hot key
                    // at ~2× the mean) stops triggering, so migrations
                    // cluster in the warmup round instead of stalling the
                    // steady state they already paid for.
                    hot_factor: 2.5,
                    cold_factor: 0.05,
                    min_shards: shards,
                    max_shards: 96,
                    min_window_ops: 1024,
                    interval: Duration::from_millis(10),
                    ..RebalancePolicy::default()
                })
                .spawn(Arc::clone(&map))
            });
            // Warm up in unmeasured rounds until the rebalancer quiesces (a
            // round applies no action), so every row is measured at its own
            // steady state: the static rows trivially quiesce after one
            // round, the rebalancing rows after the migration era the warmup
            // absorbs.  The rounds are reported — the convergence transient
            // is a documented cost, not a hidden one.
            // Two consecutive action-free rounds are required because a
            // single migration can straddle a round boundary: it bumps the
            // counter only on completion, so one clean round can still mean
            // "a split is in flight", two cannot.
            let mut warmup_rounds = 0u64;
            let mut clean_rounds = 0;
            while clean_rounds < 2 && warmup_rounds < 12 {
                let before = map.rebalances();
                let _ = run_map_workload(Arc::clone(&map), &spec, threads, opts.duration);
                warmup_rounds += 1;
                clean_rounds = if map.rebalances() == before { clean_rounds + 1 } else { 0 };
            }
            // Drain the migration era's garbage (retired routing tables and
            // drained strip trees — hundreds of thousands of nodes) before
            // measuring: left pending, those deferred frees amortize into
            // the measured round as latency the *layout* did not cause.
            loop {
                let pending = crossbeam_epoch::reclamation_stats().bag_depth();
                Ebr::collect();
                if crossbeam_epoch::reclamation_stats().bag_depth() >= pending {
                    break;
                }
            }
            let warmup_actions = map.rebalances();
            // Median-of-three measured rounds: this host's run-to-run noise
            // is larger than the uniform-row effect under test (on/off must
            // tie), and the median discards a single descheduled round
            // without averaging its stall into the row.
            let mut runs: Vec<_> = (0..3)
                .map(|_| {
                    with_reclamation(|| {
                        run_map_workload(Arc::clone(&map), &spec, threads, opts.duration)
                    })
                })
                .collect();
            runs.sort_by(|a, b| a.0.mops().total_cmp(&b.0.mops()));
            let (m, rec) = runs.swap_remove(1);
            let late_actions = map.rebalances() - warmup_actions;
            let actions = balancer.map(RebalancerHandle::stop).unwrap_or(0);
            let state = if rebalance { "rebal-on" } else { "rebal-off" };
            let row = format!("{}/{state}", dist.label());
            opts.record_run(
                "e18",
                &format!("elastic-{state}"),
                key_range,
                &format!("70/20/10@{}", dist.label()),
                "map",
                value_bytes,
                &m,
                &rec,
            );
            let mut cells = Vec::new();
            push_latency_cells(&mut cells, "elastic", &m);
            cells.push(("shards".to_string(), map.shard_count() as f64));
            cells.push(("rebalances".to_string(), actions as f64));
            cells.push(("late-rebal".to_string(), late_actions as f64));
            cells.push(("warmup-rounds".to_string(), warmup_rounds as f64));
            // Residual imbalance: the hottest strip's share of the run's
            // tail window, as a multiple of the mean (1.0 = perfectly flat).
            let loads = map.load_per_shard();
            let total: u64 = loads.iter().sum();
            let peak = loads.iter().copied().max().unwrap_or(0);
            let imbalance =
                if total == 0 { 0.0 } else { peak as f64 * loads.len() as f64 / total as f64 };
            cells.push(("peak/mean".to_string(), imbalance));
            for (i, &l) in loads.iter().enumerate() {
                strip_rows
                    .push((format!("shard.load.{row}.{i}"), vec![("ops".to_string(), l as f64)]));
            }
            rows.push((row, cells));
        }
    }
    opts.emit(
        &format!(
            "E18 — elastic sharding under skew (uniform vs Zipf(0.99), rebalancer off/on, \
             70/20/10 map mix, range 2^{}, 25% dense prefill, {value_bytes} B payloads, \
             {shards} initial strips, {threads} threads, warmed to quiescence)",
            key_range.trailing_zeros()
        ),
        "dist/rebalance",
        &rows,
    );
    opts.emit("E18 — final per-strip load tallies (last rebalancer window)", "gauge", &strip_rows);
}

/// Prints the process-wide reclamation health gauges (the `ebr` counters).
fn reclamation_report(opts: &Options) {
    let stats = crossbeam_epoch::reclamation_stats();
    if stats.nodes_retired == 0 && stats.epoch_advances == 0 {
        return; // nothing epoch-managed ran (e.g. an e9/e10-only invocation)
    }
    let mut gauges = vec![
        ("ebr.epoch_advances", stats.epoch_advances),
        ("ebr.nodes_retired", stats.nodes_retired),
        ("ebr.nodes_freed", stats.nodes_freed),
        ("ebr.bag_depth", stats.bag_depth()),
        ("ebr.bag_depth_hwm", stats.bag_depth_hwm),
        ("ebr.min_stamp_skips", stats.min_stamp_skips),
        ("ebr.repins", stats.repins),
        ("ebr.bound_trips", stats.bound_trips),
        ("ebr.bound_escalations", stats.bound_escalations),
        ("ebr.global_epoch", crossbeam_epoch::global_epoch() as u64),
    ];
    // The IBR rows only appear when something ran on that backend (E17 or an
    // explicitly `Ibr`-parameterised structure).
    let ibr = crossbeam_epoch::ibr_reclamation_stats();
    if ibr.nodes_retired > 0 || ibr.epoch_advances > 0 {
        gauges.extend([
            ("ibr.era_advances", ibr.epoch_advances),
            ("ibr.nodes_retired", ibr.nodes_retired),
            ("ibr.nodes_freed", ibr.nodes_freed),
            ("ibr.bag_depth", ibr.bag_depth()),
            ("ibr.bag_depth_hwm", ibr.bag_depth_hwm),
            ("ibr.bound_trips", ibr.bound_trips),
            ("ibr.bound_escalations", ibr.bound_escalations),
        ]);
    }
    let rows: Vec<(String, Vec<(String, f64)>)> = gauges
        .into_iter()
        .map(|(name, v)| (name.to_string(), vec![("value".to_string(), v as f64)]))
        .collect();
    opts.emit("Reclamation health (process totals over every experiment run)", "gauge", &rows);
}

fn main() {
    let opts = Options::parse();
    println!(
        "# Lock-free BST evaluation — {} threads max, {:?} per data point{}",
        opts.max_threads,
        opts.duration,
        if opts.quick { " (quick mode)" } else { "" }
    );
    type Experiment = (&'static str, fn(&Options));
    let experiments: [Experiment; 18] = [
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
        ("e13", e13),
        ("e14", e14),
        ("e15", e15),
        ("e16", e16),
        ("e17", e17),
        ("e18", e18),
    ];
    for (name, run) in experiments {
        if opts.selected(name) {
            run(&opts);
        }
    }
    reclamation_report(&opts);
    opts.write_json();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    fn test_opts(experiment: &str) -> Options {
        Options {
            experiment: experiment.to_string(),
            duration: Duration::from_millis(1),
            max_threads: 1,
            csv: false,
            quick: true,
            json: None,
            value_bytes: None,
            sample_every: None,
            dist: None,
            records: RefCell::new(Vec::new()),
        }
    }

    #[test]
    fn json_document_is_well_formed() {
        let records = vec![
            JsonRecord {
                experiment: "e1".into(),
                impl_name: "lfbst".into(),
                threads: 4,
                key_range: 65536,
                mix: "90/9/1".into(),
                kind: "set",
                value_bytes: 0,
                mops: 12.5,
                latency: LatencyFields {
                    sample_rate: 64,
                    samples: 1000,
                    p50_ns: 210,
                    p90_ns: 400,
                    p99_ns: 900,
                    p999_ns: 3000,
                    max_ns: 12000,
                },
                reclamation: ReclamationFields {
                    epoch_advances: 5,
                    nodes_retired: 100,
                    nodes_freed: 90,
                    min_stamp_skips: 2,
                    repins: 0,
                    bag_depth_hwm: 10,
                    bound_trips: 1,
                    bound_escalations: 0,
                },
            },
            JsonRecord {
                experiment: "e13".into(),
                impl_name: "lfbst".into(),
                threads: 1,
                key_range: 65536,
                mix: "70/20/10".into(),
                kind: "map",
                value_bytes: 64,
                mops: 8.0,
                latency: LatencyFields::default(),
                reclamation: ReclamationFields::default(),
            },
        ];
        let doc = json_document(&records, Duration::from_millis(300), 8);
        assert!(doc.contains("\"schema\": \"lfbst-bench-v3\""));
        assert!(doc.contains("\"duration_ms\": 300"));
        assert!(doc.contains("\"ops_per_sec\": 12500000.0"));
        // Every record is self-describing about its ADT face and payload.
        assert!(doc.contains("\"kind\": \"set\", \"value_bytes\": 0"));
        assert!(doc.contains("\"kind\": \"map\", \"value_bytes\": 64"));
        assert!(doc.contains("\"experiment\": \"e13\""));
        // The v3 appendix rides on every record (zeros when absent).
        assert!(doc.contains("\"schema_version\": 3"));
        assert!(doc.contains("\"sample_rate\": 64"));
        assert!(doc.contains("\"p999_ns\": 3000"));
        assert!(doc.contains("\"nodes_freed\": 90"));
        assert!(doc.contains("\"p50_ns\": 0"));
        // Exactly one comma separates the two records; the last has none.
        assert_eq!(doc.matches("},\n").count(), 1);
        // Balanced braces and brackets.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn set_and_map_records_share_one_schema() {
        let opts = test_opts("all");
        opts.record("e1", "lfbst", 2, 1 << 16, "90/9/1", 1.0);
        let m = Measurement {
            set_name: "lfbst".to_string(),
            threads: 2,
            elapsed: Duration::from_millis(10),
            per_thread: vec![ThreadStats {
                contains: 70,
                inserts: 20,
                removes: 10,
                ..Default::default()
            }],
            final_size: 10,
            prefill_size: 10,
            latency: obs::HistogramSnapshot::empty(),
            sample_rate: 64,
        };
        let rec = crossbeam_epoch::ReclamationStats {
            epoch_advances: 1,
            nodes_retired: 4,
            nodes_freed: 4,
            min_stamp_skips: 0,
            repins: 0,
            bag_depth_hwm: 2,
            bound_trips: 0,
            bound_escalations: 0,
        };
        opts.record_run("e13", "lfbst", 1 << 16, "70/20/10", "map", 256, &m, &rec);
        let records = opts.records.borrow();
        assert_eq!(records[0].kind, "set");
        assert_eq!(records[0].value_bytes, 0);
        assert_eq!(records[0].latency, LatencyFields::default());
        assert_eq!(records[1].kind, "map");
        assert_eq!(records[1].value_bytes, 256);
        assert_eq!(records[1].experiment, "e13");
        assert_eq!(records[1].threads, 2);
        assert_eq!(records[1].latency.sample_rate, 64);
        assert_eq!(records[1].reclamation.nodes_retired, 4);
    }

    #[test]
    fn selection_accepts_lists() {
        let opts = test_opts("e1,e13");
        assert!(opts.selected("e1"));
        assert!(opts.selected("e13"));
        assert!(!opts.selected("e2"));
    }

    #[test]
    fn sample_every_override_applies_to_specs() {
        let mut opts = test_opts("all");
        assert_eq!(
            opts.spec(100, OperationMix::default()).sample_rate(),
            workload::DEFAULT_SAMPLE_EVERY
        );
        opts.sample_every = Some(7);
        assert_eq!(opts.spec(100, OperationMix::default()).sample_rate(), 7);
        opts.sample_every = Some(0);
        assert_eq!(opts.spec(100, OperationMix::default()).sample_rate(), 0);
    }

    #[test]
    fn e8_and_e12_records_carry_the_latency_appendix() {
        let opts = test_opts("e8,e12");
        e8(&opts);
        e12(&opts);
        let records = opts.records.borrow();
        assert!(records.iter().any(|r| r.experiment == "e8"), "e8 emitted no records");
        assert!(records.iter().any(|r| r.impl_name.starts_with("lfbst-pinned-")));
        for r in records.iter() {
            assert!(r.latency.sample_rate > 0, "{}/{} lacks latency", r.experiment, r.impl_name);
        }
    }

    /// A set that records the lowest and highest key each thread touched.
    struct PartitionProbe {
        inner: CoarseLockBst<u64>,
        touched: std::sync::Mutex<std::collections::HashMap<std::thread::ThreadId, (u64, u64)>>,
    }

    impl PartitionProbe {
        fn touch(&self, k: u64) {
            let mut touched = self.touched.lock().unwrap();
            let span = touched.entry(std::thread::current().id()).or_insert((k, k));
            *span = (span.0.min(k), span.1.max(k));
        }
    }

    impl ConcurrentSet<u64> for PartitionProbe {
        fn insert(&self, key: u64) -> bool {
            self.touch(key);
            self.inner.insert(key)
        }
        fn remove(&self, key: &u64) -> bool {
            self.touch(*key);
            self.inner.remove(key)
        }
        fn contains(&self, key: &u64) -> bool {
            self.touch(*key);
            self.inner.contains(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn name(&self) -> &'static str {
            "partition-probe"
        }
    }

    #[test]
    fn disjoint_access_workers_stay_in_their_partitions() {
        let probe = PartitionProbe { inner: CoarseLockBst::new(), touched: Default::default() };
        let (threads, per_thread) = (3, 256u64);
        let spec = WorkloadSpec::new(threads as u64 * per_thread, OperationMix::updates(100));
        let m = disjoint_access_run(&probe, &spec, threads, Duration::from_millis(30));
        assert!(m.total_ops() > 0);
        let mut touched = probe.touched.into_inner().unwrap();
        touched.remove(&std::thread::current().id()); // the prefill
        let mut partitions: Vec<u64> = touched
            .values()
            .map(|&(lo, hi)| {
                assert_eq!(lo / per_thread, hi / per_thread, "a worker crossed partitions");
                lo / per_thread
            })
            .collect();
        assert!(!partitions.is_empty());
        partitions.sort_unstable();
        partitions.dedup();
        assert_eq!(partitions.len(), touched.len(), "two workers shared a partition");
    }
}
