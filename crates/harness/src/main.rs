//! `experiments` — the evaluation driver.
//!
//! Reproduces the planned evaluation of *Efficient Lock-free Binary Search
//! Trees* (the paper defers experiments to future work; the suite below is the
//! standard concurrent-set methodology its comparators use, see `DESIGN.md`
//! and `EXPERIMENTS.md` for the experiment index E1–E8 and E16–E18).
//! Per-layer costs on the benchmark's own key stream (value cells, cursors,
//! shard routing, latency percentiles) are priced by `perfbench`, not here.
//!
//! Usage:
//!
//! ```text
//! experiments [e1|...|e8|e16|e17|e18|all|e1,e17,...] [--quick] [--duration-ms N]
//!             [--max-threads N] [--dist uniform|zipf:<exp>] [--csv] [--json <path>]
//! ```
//!
//! An unknown flag, an unknown experiment id or a malformed number is an
//! error (exit code 2, with the valid ids listed), not a silent no-op.
//!
//! Each experiment prints a markdown table (or CSV with `--csv`) whose rows are
//! the swept parameter and whose columns are the competing implementations,
//! reporting throughput in million operations per second unless stated
//! otherwise.  With `--json <path>` the throughput experiments additionally
//! write their machine-readable records (experiment id, implementation,
//! threads, key range, mix, ADT kind, value payload bytes, ops/s) to a JSON
//! file — one document per run, overwriting the path — so successive runs can
//! be committed as trajectory points (`BENCH_*.json`) and compared across PRs;
//! the `kind` / `value_bytes` fields keep set rows and map rows (E18)
//! machine-comparable in one schema.  The document's header records the
//! machine and build it came from: `cpus` (available parallelism), `git_rev`
//! and `rustc` (both captured at build time, `"unknown"` without git).
//!
//! `--dist` overrides the key popularity distribution for every workload-
//! runner experiment (anything built through `Options::spec`): `uniform`
//! (the default) or `zipf:<exponent>` (bare `zipf` means the standard 0.99).
//! Experiments that *sweep* distributions themselves (E8's partitions, E17's
//! adversary, E18's uniform-vs-zipf comparison) pin their own and ignore the
//! flag.
//!
//! Schema v3 (`lfbst-bench-v3`) extends v2 by **appending** fields only, so
//! v2 consumers keep working: every record also carries the latency
//! sampling rate (one op in 64), the sampled per-op latency percentiles in
//! nanoseconds (p50/p90/p99/p999/max), and the epoch-reclamation deltas the
//! run produced (epoch advances, nodes retired/freed, min-stamp skips,
//! repins — see `ebr::ReclamationStats`).  A final reclamation-health table
//! reports the process-wide `ebr` counters.  The reclamation appendix further
//! carries the bag-depth high-water mark and the `GarbageBound`
//! trip/escalation counters; E17 A/Bs the EBR and IBR backends under a
//! fault-injection adversary (`workload::Adversary`) and reads its headline
//! peak-garbage number from that high-water mark.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

use crossbeam_epoch::{Ebr, Ibr, Reclaimer};
use cset::{ConcurrentMap, ConcurrentSet};
use ellen_bst::EllenBst;
use lfbst::{Config, HelpPolicy, LfBst, RestartPolicy};
use locked_bst::{CoarseLockBst, RwLockBst};
use natarajan_bst::NatarajanBst;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard::{BoundaryRouter, Sharded};
use workload::{
    format_csv, format_markdown_table, prefill, run_adversarial_workload, run_closed_loop,
    run_map_workload, run_workload, Adversary, KeyDistribution, MapSpec, Measurement, OpKind,
    OperationMix, ThreadStats, Tick, WorkloadSpec,
};

/// Which implementations an experiment measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SetKind {
    Lfbst,
    Ellen,
    Natarajan,
    CoarseLock,
    RwLock,
}

impl SetKind {
    fn label(self) -> &'static str {
        match self {
            SetKind::Lfbst => "lfbst",
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
/// Set rows carry `kind: "set"` and `value_bytes: 0`; map rows (E18) carry
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
/// The counters are process-wide (`Ebr::stats`), so each record
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
    let before = Ebr::stats();
    let m = f();
    let delta = Ebr::stats().since(&before);
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

/// Serializes the collected records as a self-describing JSON document whose
/// header names the machine and build that produced it.
fn json_document(records: &[JsonRecord], duration: Duration, max_threads: usize) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"lfbst-bench-v3\",\n");
    out.push_str(&format!("  \"cpus\": {cpus},\n"));
    out.push_str(&format!("  \"git_rev\": \"{}\",\n", json_escape(env!("HARNESS_GIT_REV"))));
    out.push_str(&format!("  \"rustc\": \"{}\",\n", json_escape(env!("HARNESS_RUSTC"))));
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
    /// Overrides the key popularity distribution for every experiment built
    /// through [`Options::spec`] (`--dist uniform|zipf:<exp>`).
    dist: Option<KeyDistribution>,
    records: RefCell<Vec<JsonRecord>>,
}

/// The one-line usage summary, listing every valid experiment id.
fn usage() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: experiments [{}|all|comma-list] [--quick] [--duration-ms N] [--max-threads N] \
         [--dist uniform|zipf:<exp>] [--csv] [--json <path>]",
        ids.join("|")
    )
}

/// Parses `flag`'s numeric value.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag} takes a number, got {value:?}"))
}

impl Options {
    /// Parses the command-line arguments (program name excluded).  Every
    /// token must be a known flag, a flag's value, or an experiment selector
    /// naming only known ids; anything else is an error.
    fn parse(args: &[&str]) -> Result<Options, String> {
        let mut experiment = "all".to_string();
        let mut duration_ms = 300u64;
        let mut max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let mut csv = false;
        let mut quick = false;
        let mut json = None;
        let mut dist = None;
        let mut args = args.iter().copied();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg {
                "--quick" => quick = true,
                "--csv" => csv = true,
                "--duration-ms" => duration_ms = number(arg, value()?)?,
                "--max-threads" => max_threads = number(arg, value()?)?,
                "--dist" => {
                    let v = value()?;
                    dist = Some(KeyDistribution::parse(v).ok_or_else(|| {
                        format!("--dist takes `uniform` or `zipf:<exponent>`, got {v:?}")
                    })?);
                }
                // Explicit form of the positional selector: `--experiments e1,e17`.
                "--experiments" => experiment = value()?.to_string(),
                "--json" => json = Some(value()?.to_string()),
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                selector => experiment = selector.to_string(),
            }
        }
        for id in experiment.split(',').map(str::trim) {
            if id != "all" && !EXPERIMENTS.iter().any(|(name, _)| *name == id) {
                return Err(format!("unknown experiment {id:?}"));
            }
        }
        if quick {
            duration_ms = duration_ms.min(120);
        }
        Ok(Options {
            experiment,
            duration: Duration::from_millis(duration_ms),
            max_threads: max_threads.max(1),
            csv,
            quick,
            json,
            dist,
            records: RefCell::new(Vec::new()),
        })
    }

    /// Builds a [`WorkloadSpec`], applying the `--dist` override when given
    /// (otherwise the workload defaults hold: uniform keys, one latency
    /// sample per 64 ops).  Experiments that pin their own distribution call
    /// `.distribution(..)` *after* this and win.
    fn spec(&self, key_range: u64, mix: OperationMix) -> WorkloadSpec {
        let spec = WorkloadSpec::new(key_range, mix);
        self.dist.map_or(spec, |d| spec.distribution(d))
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

    /// Writes the collected records to the `--json` path, if one was given;
    /// a failed write exits with code 1, so a lost result is not a success.
    fn write_json(&self) {
        let Some(path) = &self.json else { return };
        let doc = json_document(&self.records.borrow(), self.duration, self.max_threads);
        match std::fs::write(path, doc) {
            Ok(()) => println!("\nwrote {} JSON records to {path}", self.records.borrow().len()),
            Err(e) => {
                eprintln!("failed to write --json {path}: {e}");
                std::process::exit(1);
            }
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

/// One competitor-table row: its label, workload, thread count, and the mix
/// label its JSON records carry.
type Row = (String, WorkloadSpec, usize, String);

/// Runs every [`COMPETITORS`] entry on every row, records each run under
/// `exp`, and prints the table (E1–E5).
fn competitor_table(opts: &Options, exp: &str, title: &str, row_label: &str, rows: Vec<Row>) {
    let mut table = Vec::new();
    for (label, spec, threads, mix) in rows {
        let mut cells = Vec::new();
        for &kind in COMPETITORS {
            let (m, rec) = with_reclamation(|| run_kind(kind, &spec, threads, opts.duration));
            opts.record_run(exp, kind.label(), spec.key_range(), &mix, "set", 0, &m, &rec);
            cells.push((kind.label().to_string(), m.mops()));
        }
        table.push((label, cells));
    }
    opts.emit(title, row_label, &table);
}

/// E1–E3's rows: one per thread count, over key range 2^16.
fn thread_rows(opts: &Options, mix_label: &str, mix: OperationMix) -> Vec<Row> {
    let spec = opts.spec(1 << 16, mix);
    opts.thread_counts().into_iter().map(|t| (t.to_string(), spec, t, mix_label.into())).collect()
}

fn e1(opts: &Options) {
    competitor_table(
        opts,
        "e1",
        "E1 — throughput vs threads, read-dominated (90% contains / 9% insert / 1% remove, range 2^16)",
        "threads",
        thread_rows(opts, "90/9/1", OperationMix::new(90, 9, 1)),
    );
}

fn e2(opts: &Options) {
    competitor_table(
        opts,
        "e2",
        "E2 — throughput vs threads, mixed (70% contains / 20% insert / 10% remove, range 2^16)",
        "threads",
        thread_rows(opts, "70/20/10", OperationMix::new(70, 20, 10)),
    );
}

fn e3(opts: &Options) {
    competitor_table(
        opts,
        "e3",
        "E3 — throughput vs threads, write-heavy (50% insert / 50% remove, range 2^16)",
        "threads",
        thread_rows(opts, "0/50/50", OperationMix::new(0, 50, 50)),
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
    let spec = |range| opts.spec(range, OperationMix::updates(50));
    let rows = ranges
        .iter()
        .map(|&r| (format!("2^{}", r.trailing_zeros()), spec(r), threads, "50% updates".into()))
        .collect();
    competitor_table(
        opts,
        "e4",
        &format!("E4 — throughput vs key range (50% updates, {threads} threads)"),
        "key range",
        rows,
    );
}

fn e5(opts: &Options) {
    let threads = opts.max_threads;
    let ratios: &[u8] = if opts.quick { &[0, 50, 100] } else { &[0, 10, 20, 40, 60, 80, 100] };
    let spec = |u| opts.spec(1 << 16, OperationMix::updates(u));
    let rows = ratios
        .iter()
        .map(|&u| (format!("{u}%"), spec(u), threads, format!("{u}% updates")))
        .collect();
    competitor_table(
        opts,
        "e5",
        &format!("E5 — throughput vs update ratio (range 2^16, {threads} threads)"),
        "updates",
        rows,
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

/// Appends one implementation's latency percentile columns to an E18 row.
fn push_latency_cells(cells: &mut Vec<(String, f64)>, name: &str, m: &Measurement) {
    cells.push((format!("{name} p50ns"), m.latency.p50() as f64));
    cells.push((format!("{name} p99ns"), m.latency.p99() as f64));
    cells.push((format!("{name} p999ns"), m.latency.p999() as f64));
    cells.push((format!("{name} maxns"), m.latency.max() as f64));
    cells.push((format!("{name} Mops"), m.mops()));
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
            // Range-routed shards: each chunk is swept by the shards it
            // spans, one after another on the calling thread.
            let set = Sharded::new(BoundaryRouter::covering(shards, span), |_| LfBst::new());
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
fn e17_backend<R: Reclaimer>(
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
    use crossbeam_epoch::GarbageBound;
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
                let pending = Ebr::stats().bag_depth();
                Ebr::collect();
                if Ebr::stats().bag_depth() >= pending {
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
            // Residual imbalance: the hottest strip's share of one load
            // window, as a multiple of the mean (1.0 = perfectly flat).  A
            // live rebalancer drains the tallies every interval, so what it
            // leaves after the measured rounds can be an empty window; the
            // window is instead one unmeasured round of the same spec, run
            // after the rebalancer has stopped.
            map.take_loads();
            let _ = run_map_workload(Arc::clone(&map), &spec, threads, opts.duration);
            let loads = map.take_loads();
            let total: u64 = loads.iter().sum();
            assert!(total > 0, "E18 {row}: the load window after the measured rounds is empty");
            let peak = loads.iter().copied().max().unwrap_or(0);
            cells.push(("peak/mean".to_string(), peak as f64 * loads.len() as f64 / total as f64));
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
    opts.emit(
        "E18 — per-strip load tallies (one unmeasured round after the rebalancer stopped)",
        "gauge",
        &strip_rows,
    );
}

/// Prints the process-wide reclamation health gauges (the `ebr` counters).
fn reclamation_report(opts: &Options) {
    let stats = Ebr::stats();
    if stats.nodes_retired == 0 && stats.epoch_advances == 0 {
        return; // nothing epoch-managed ran
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
    let ibr = Ibr::stats();
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

/// The experiments, in run order: the one dispatch table, and the list of
/// ids the command line accepts.
type Experiment = (&'static str, fn(&Options));
const EXPERIMENTS: [Experiment; 11] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e16", e16),
    ("e17", e17),
    ("e18", e18),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let opts = Options::parse(&args).unwrap_or_else(|e| {
        eprintln!("experiments: {e}\n{}", usage());
        std::process::exit(2);
    });
    println!(
        "# Lock-free BST evaluation — {} threads max, {:?} per data point{}",
        opts.max_threads,
        opts.duration,
        if opts.quick { " (quick mode)" } else { "" }
    );
    for (name, run) in EXPERIMENTS {
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
                experiment: "e18".into(),
                impl_name: "elastic-rebal-off".into(),
                threads: 1,
                key_range: 65536,
                mix: "70/20/10@uniform".into(),
                kind: "map",
                value_bytes: 64,
                mops: 8.0,
                latency: LatencyFields::default(),
                reclamation: ReclamationFields::default(),
            },
        ];
        let doc = json_document(&records, Duration::from_millis(300), 8);
        assert!(doc.contains("\"schema\": \"lfbst-bench-v3\""));
        // The header names the machine and the build.
        let cpus = std::thread::available_parallelism().unwrap().get();
        assert!(doc.contains(&format!("\"cpus\": {cpus},")));
        assert!(doc.contains(&format!("\"git_rev\": \"{}\",", env!("HARNESS_GIT_REV"))));
        assert!(doc.contains(&format!("\"rustc\": \"{}\",", env!("HARNESS_RUSTC"))));
        assert!(!env!("HARNESS_GIT_REV").is_empty() && !env!("HARNESS_RUSTC").is_empty());
        assert!(doc.contains("\"duration_ms\": 300"));
        assert!(doc.contains("\"ops_per_sec\": 12500000.0"));
        // Every record is self-describing about its ADT face and payload.
        assert!(doc.contains("\"kind\": \"set\", \"value_bytes\": 0"));
        assert!(doc.contains("\"kind\": \"map\", \"value_bytes\": 64"));
        assert!(doc.contains("\"experiment\": \"e18\""));
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
        opts.record_run("e18", "elastic-rebal-off", 1 << 16, "70/20/10", "map", 256, &m, &rec);
        let records = opts.records.borrow();
        assert_eq!(records[0].kind, "set");
        assert_eq!(records[0].value_bytes, 0);
        assert_eq!(records[0].latency, LatencyFields::default());
        assert_eq!(records[1].kind, "map");
        assert_eq!(records[1].value_bytes, 256);
        assert_eq!(records[1].experiment, "e18");
        assert_eq!(records[1].threads, 2);
        assert_eq!(records[1].latency.sample_rate, 64);
        assert_eq!(records[1].reclamation.nodes_retired, 4);
    }

    #[test]
    fn selection_accepts_lists() {
        let opts = test_opts("e1,e18");
        assert!(opts.selected("e1"));
        assert!(opts.selected("e18"));
        assert!(!opts.selected("e2"));
    }

    #[test]
    fn parse_accepts_the_documented_command_lines() {
        let opts = Options::parse(&["e1,e17", "--quick", "--duration-ms", "500"]).unwrap();
        assert!(opts.selected("e17") && !opts.selected("e2"));
        assert_eq!(opts.duration, Duration::from_millis(120), "--quick caps the duration");
        let opts = Options::parse(&[
            "--experiments",
            "e8",
            "--max-threads",
            "3",
            "--dist",
            "zipf",
            "--csv",
            "--json",
            "out.json",
        ])
        .unwrap();
        assert!(opts.selected("e8") && opts.csv && opts.json.as_deref() == Some("out.json"));
        assert_eq!(opts.max_threads, 3);
        assert_eq!(opts.duration, Duration::from_millis(300));
        assert!(Options::parse(&[]).unwrap().selected("e18"), "no selector means all");
    }

    #[test]
    fn parse_rejects_unknown_ids_flags_and_malformed_numbers() {
        for args in [
            &["e13"][..],
            &["e9"],
            &["e10"],
            &["e1,e19"],
            &["--quik"],
            &["e8", "--duration-ms", "abc"],
            &["--max-threads", "-1"],
            &["--json"],
            &["--dist", "pareto"],
        ] {
            let err = Options::parse(args).expect_err(&format!("{args:?} parsed"));
            assert!(!err.is_empty(), "{args:?}");
        }
        // The error path lists what would have been accepted.
        let usage = usage();
        for (id, _) in EXPERIMENTS {
            assert!(usage.contains(id), "usage omits {id}");
        }
        for retired in ["e9", "e10", "e13"] {
            assert!(!usage.contains(retired), "usage still lists {retired}");
        }
    }

    /// `--value-bytes` and `--sample-every` fed only the retired E13 and
    /// E15; they are unknown flags now, not silently ignored ones.
    #[test]
    fn parse_rejects_the_retired_flags() {
        for flag in ["--value-bytes", "--sample-every"] {
            let err = Options::parse(&["e8", flag, "64"]).expect_err(flag);
            assert!(err.contains(flag), "{flag}: {err}");
            assert!(!usage().contains(flag), "usage still lists {flag}");
        }
    }

    #[test]
    fn competitor_tables_record_every_cell() {
        let opts = test_opts("e1,e4");
        e1(&opts);
        e4(&opts);
        let records = opts.records.borrow();
        // E1 at one thread, then E4's three quick-mode key ranges.
        assert_eq!(records.len(), (1 + 3) * COMPETITORS.len());
        let e4: Vec<_> = records.iter().filter(|r| r.experiment == "e4").collect();
        assert_eq!(e4[0].key_range, 1 << 7);
        assert_eq!(e4.last().unwrap().key_range, 1 << 15);
        for (r, kind) in e4.iter().zip(COMPETITORS.iter().cycle()) {
            assert_eq!((r.impl_name.as_str(), r.mix.as_str()), (kind.label(), "50% updates"));
        }
        assert!(records.iter().all(|r| r.threads == 1 && r.kind == "set"));
    }

    #[test]
    fn e8_records_carry_the_latency_appendix() {
        let opts = test_opts("e8");
        e8(&opts);
        let records = opts.records.borrow();
        assert!(records.iter().any(|r| r.experiment == "e8"), "e8 emitted no records");
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
