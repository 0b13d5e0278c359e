//! # workload — workload generation and measurement for concurrent-set experiments
//!
//! The evaluation methodology of the concurrent-search-structure literature
//! (synchrobench / ASCYLIB style, the methodology the paper's comparators use)
//! is reproduced here as a small library:
//!
//! * [`WorkloadSpec`] — an operation mix (contains / insert / remove
//!   percentages), a key range, a key distribution and a prefill level;
//! * [`MapSpec`] — a [`WorkloadSpec`] plus a value payload size, for the map
//!   ADT (get / upsert / remove);
//! * [`KeyDistribution`] — uniform or Zipfian key popularity;
//! * [`run_closed_loop`] — the one closed-loop driver: `t` worker threads
//!   built per thread (any [`Worker`], usually a closure over an
//!   [`OpStream`]) run for a fixed duration behind a start barrier, with
//!   sampled per-op latency; [`prefill`] builds the starting population;
//! * [`run_workload`] — drives any [`cset::ConcurrentSet`] through the
//!   runner and reports throughput and per-operation counts;
//! * [`run_map_workload`] — the same driver over any
//!   [`cset::ConcurrentMap`]`<u64, Vec<u8>>`;
//! * [`run_scan_workload`] — the ordered driver: mixes built with
//!   [`OperationMix::with_scans`] issue range reads of
//!   [`WorkloadSpec::scan_len`] keys, served either through a streaming
//!   cursor or the historical collect-everything path ([`ScanMode`]);
//! * [`run_adversarial_workload`] — the fault-injection driver ([`Adversary`]):
//!   stalled readers, mid-retire pauses and retire storms, generic over the
//!   reclamation backend so EBR and IBR can be A/B'd (experiment E17);
//! * [`run_teardown_cycle`] — the refill/teardown driver: repeatedly fills a
//!   set and deletes it again in ascending chunks, either through streaming
//!   `remove_range` calls or a per-key baseline ([`TeardownMode`],
//!   experiment E16);
//! * [`Measurement`] / [`format_markdown_table`] — plain-value results that the
//!   experiment harness consumes.
//!
//! Keys are `u64`; every structure in this workspace is generic over `Ord`
//! keys, and a machine word is what the original evaluations use.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adversary;
mod distribution;
mod runner;
mod spec;

pub use adversary::{run_adversarial_workload, Adversary, AdversaryReport};
pub use distribution::{KeyDistribution, KeySampler};
pub use runner::{
    prefill, run_closed_loop, run_map_workload, run_scan_workload, run_teardown_cycle,
    run_workload, Measurement, OpKind, OpStream, ScanMode, TeardownMeasurement, TeardownMode,
    ThreadStats, Tick, Worker,
};
pub use spec::{MapSpec, OperationMix, WorkloadSpec, DEFAULT_SAMPLE_EVERY, DEFAULT_SCAN_LEN};

/// Formats a series of labelled measurements as a GitHub-flavoured markdown table.
///
/// The first column is the supplied row label (typically the thread count or a
/// swept parameter); one column per set name follows, holding throughput in
/// million operations per second.
///
/// # Examples
///
/// ```
/// use workload::format_markdown_table;
/// let rows = vec![
///     ("1".to_string(), vec![("lfbst".to_string(), 1.5), ("ellen".to_string(), 1.2)]),
///     ("2".to_string(), vec![("lfbst".to_string(), 2.9), ("ellen".to_string(), 2.2)]),
/// ];
/// let table = format_markdown_table("threads", &rows);
/// assert!(table.contains("| threads |"));
/// assert!(table.contains("lfbst"));
/// ```
pub fn format_markdown_table(row_label: &str, rows: &[(String, Vec<(String, f64)>)]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    let headers: Vec<&str> = rows[0].1.iter().map(|(name, _)| name.as_str()).collect();
    out.push_str(&format!("| {row_label} |"));
    for h in &headers {
        out.push_str(&format!(" {h} |"));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in &headers {
        out.push_str("---|");
    }
    out.push('\n');
    for (label, cells) in rows {
        out.push_str(&format!("| {label} |"));
        for (_, value) in cells {
            out.push_str(&format!(" {value:.3} |"));
        }
        out.push('\n');
    }
    out
}

/// Formats measurements as CSV with a header row.
///
/// # Examples
///
/// ```
/// use workload::format_csv;
/// let rows = vec![("1".to_string(), vec![("lfbst".to_string(), 1.5)])];
/// let csv = format_csv("threads", &rows);
/// assert!(csv.starts_with("threads,lfbst"));
/// ```
pub fn format_csv(row_label: &str, rows: &[(String, Vec<(String, f64)>)]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    out.push_str(row_label);
    for (name, _) in &rows[0].1 {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for (label, cells) in rows {
        out.push_str(label);
        for (_, value) in cells {
            out.push_str(&format!(",{value:.4}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shapes() {
        let rows = vec![
            ("1".to_string(), vec![("a".to_string(), 1.0), ("b".to_string(), 2.0)]),
            ("2".to_string(), vec![("a".to_string(), 3.0), ("b".to_string(), 4.0)]),
        ];
        let t = format_markdown_table("threads", &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("| a |"));
        assert!(lines[2].starts_with("| 1 |"));
    }

    #[test]
    fn empty_rows_produce_empty_output() {
        assert!(format_markdown_table("x", &[]).is_empty());
        assert!(format_csv("x", &[]).is_empty());
    }

    #[test]
    fn csv_shapes() {
        let rows = vec![("8".to_string(), vec![("lfbst".to_string(), 0.5)])];
        let c = format_csv("threads", &rows);
        assert_eq!(c, "threads,lfbst\n8,0.5000\n");
    }
}
