//! Metric names, units and the one-line JSON result a mode prints.

use std::fmt::Write as _;

/// End-to-end metrics of one untraced pass, with units.  `run.py` adds
/// `peak_rss_mib` (each pass process's peak resident set) and
/// `correct_op_share` (over all passes' calls).
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_mops", "Mops/s"),
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("write_p99_ns", "ns"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the `trace` mode.  A layer a workload never calls
/// reports 0 (for example `value.*` on the set workloads).
pub const TRACED: [(&str, &str); 29] = [
    ("driver.keygen_ns", "ns"),
    ("ebr.pin_ns.p50", "ns"),
    ("ebr.pin_ns.p99", "ns"),
    ("ebr.retired_per_kop", "1/kop"),
    ("ebr.freed_per_kop", "1/kop"),
    ("ebr.epoch_advances_per_kop", "1/kop"),
    ("ebr.min_stamp_skips_per_kop", "1/kop"),
    ("ebr.bound_trips", "count"),
    ("ebr.peak_unreclaimed_nodes", "count"),
    ("lfbst.contains_ns.p50", "ns"),
    ("lfbst.contains_ns.p99", "ns"),
    ("lfbst.height", "count"),
    ("lfbst.insert_ns.p50", "ns"),
    ("lfbst.insert_ns.p99", "ns"),
    ("lfbst.remove_ns.p50", "ns"),
    ("lfbst.remove_ns.p99", "ns"),
    ("lfbst.insert_success_ratio", "ratio"),
    ("lfbst.remove_success_ratio", "ratio"),
    ("value.get_ns.p50", "ns"),
    ("value.upsert_ns.p50", "ns"),
    ("value.upsert_ns.p99", "ns"),
    ("cursor.scan_ns_per_key", "ns"),
    ("bulk.remove_range_ns_per_key", "ns"),
    ("shard.route_ns", "ns"),
    ("shard.get_ns.p50", "ns"),
    ("shard.upsert_ns.p50", "ns"),
    ("shard.overhead_ns", "ns"),
    ("shard.hot_strip_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer event counts of the `counts` mode (stats build).
pub const COUNTS: [(&str, &str); 5] = [
    ("lfbst.links_per_op", "1/op"),
    ("lfbst.cas_failures_per_kop", "1/kop"),
    ("lfbst.helps_per_kop", "1/kop"),
    ("lfbst.restarts_per_kop", "1/kop"),
    ("lfbst.cas_success_ratio", "ratio"),
];

/// The cost ladder's rungs, cheapest layer stack first, and the thread
/// counts each runs at.  `seq` has no synchronisation, so it runs alone.
pub const RUNGS: [(&str, &[usize]); 7] = [
    ("seq", &[1]),
    ("coarse", &[1, 2]),
    ("lfbst-pin", &[1, 2]),
    ("lfbst-guard", &[1, 2]),
    ("lfbst-map", &[1, 2]),
    ("sharded1", &[1, 2]),
    ("elastic1", &[1, 2]),
];

pub fn rung_metric(rung: &str, threads: usize) -> String {
    format!("ladder.{rung}.{threads}t.ns_per_op")
}

/// A mode's result: metrics plus the checker's counts.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Extra numbers for the reader (sample counts), not metrics.
    info: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// A report preloaded with `names` at 0, so a layer a workload never
    /// calls still appears.
    pub fn with_names(names: &[(&str, &'static str)]) -> Self {
        let metrics = names.iter().map(|&(n, u)| (n.to_string(), 0.0, u)).collect();
        Report { metrics, ..Report::default() }
    }

    /// Sets (or adds) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(value.is_finite(), "{name} = {value}");
        match self.metrics.iter_mut().find(|(n, ..)| n == name) {
            Some(m) => *m = (name.to_string(), value, unit),
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// Sets a metric already declared by [`with_names`](Self::with_names).
    pub fn put(&mut self, name: &str, value: f64) {
        let m = self
            .metrics
            .iter_mut()
            .find(|(n, ..)| n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        m.1 = value;
    }

    pub fn info(&mut self, name: &'static str, value: f64) {
        self.info.push((name, value));
    }

    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"attempted\": {}, \"failed\": {}, \"stats_compiled\": {}, \"info\": {{",
            self.attempted,
            self.failed,
            lfbst::stats_compiled()
        );
        for (i, (name, v)) in self.info.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {}", num(*v));
        }
        s.push_str("}, \"metrics\": {");
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v));
        }
        s.push_str("}}");
        s
    }
}

/// JSON has no NaN or infinity; a ratio with an empty base reports 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
