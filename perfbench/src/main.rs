//! `perfbench <mode> --workload <name> --seed <n> --seconds <s> [--pass <p>] [--rung <name>]`
//!
//! Modes: `e2e` (one end-to-end pass; `--pass` picks its op stream), `trace`
//! (the per-layer run), `rung` (one cost-ladder rung) and `counts` (the
//! stats build's event counts).  Prints one JSON line with the checker's
//! `attempted`/`failed` counts and the metrics.  `run.py` is the usual
//! entry point.

use std::process::ExitCode;

use lfbst::LfBst;
use perfbench::input::spec;
use perfbench::modes;
use perfbench::subject::ElasticSubject;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench <e2e|trace|rung|counts> --workload <name> --seed <n> --seconds <s> \
         [--pass <p>] [--rung <name>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        return usage("missing mode");
    };
    let (mut workload, mut seed, mut seconds, mut pass, mut rung) =
        (None, None, None, Some(0), None);
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let Some(value) = rest.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.as_str()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0)
            }
            "--pass" => pass = value.parse::<u64>().ok().filter(|p| *p < 100),
            "--rung" => rung = Some(value.as_str()),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(spec) = workload.and_then(spec) else {
        return usage("missing or unknown --workload");
    };
    let (Some(seed), Some(seconds), Some(pass)) = (seed, seconds, pass) else {
        return usage("--seed must be an integer, --seconds positive and --pass below 100");
    };
    let report = match (mode.as_str(), spec.map) {
        ("e2e", false) => modes::end_to_end(spec, seed, pass, seconds, LfBst::<u64>::new),
        ("e2e", true) => modes::end_to_end(spec, seed, pass, seconds, || {
            ElasticSubject::new(spec, Default::default())
        }),
        ("trace", false) => modes::trace_set(spec, seed, seconds),
        ("trace", true) => modes::trace_map(spec, seed, seconds),
        ("rung", _) => {
            match rung.and_then(|name| modes::rung(spec, seed, name, modes::fixed_ops(seconds))) {
                Some(report) => report,
                None => return usage("missing or unknown --rung"),
            }
        }
        ("counts", _) => modes::counts(spec, seed, seconds),
        _ => return usage(&format!("unknown mode {mode}")),
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
