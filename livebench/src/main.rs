//! Live-runtime benchmark of the Teechain reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path livebench/Cargo.toml -- \
//!     --workload direct --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload on `LiveCluster::over_reactor` with one scheduler
//! worker, driven by a load generator on the main thread; checks the
//! outputs against the generator's own ledger; prints a summary on
//! standard error and, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, computed from spans the benchmark
//! records around its own calls, which are also written to
//! `.bench_trace/`. A failed output check exits with code 1.

mod layers;
mod ledger;
mod load;
mod spans;
mod stats;
mod sys;
mod workloads;

use layers::Metric;
use spans::Spans;
use std::fmt::Write as _;
use workloads::{Measured, Params, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {NAMES:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        ("setup_s", m.setup_s(), "s"),
        ("cpu_us_per_tx", m.cpu_us_per_tx(), "us"),
        ("rss_mb", sys::peak_rss_mib(), "MiB"),
    ]
}

fn summary(a: &Args, m: &Measured, steal_pct: Option<f64>, spans: &Spans) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "workload {} seed {} seconds {} trace {} nodes {} channels {}",
        a.workload, a.seed, a.seconds, a.trace as u8, m.nodes, m.channels
    );
    for note in &m.notes {
        let _ = writeln!(s, "  {note}");
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(s, "  set-up s: [{}]", list(&m.setups_s));
    let _ = writeln!(s, "  set-up CPU s: [{}]", list(&m.setups_cpu_s));
    let _ = writeln!(
        s,
        "  closed loop: {:.0} tx/s (median slice; not a gated metric, it follows the host's wake-up latency)",
        m.tput()
    );
    for (tag, slices) in [("plain", &m.plain), ("traced", &m.traced)] {
        for sl in slices.iter() {
            let _ = writeln!(
                s,
                "  {tag} slice: {:.0} tx/s, {:.1} us CPU/tx, {} ok in {:.3} s",
                sl.tput(),
                sl.cpu_us_per_tx(),
                sl.ok,
                sl.wall_s
            );
        }
    }
    let h = &m.latency;
    let ms = |v: Option<u64>| v.map_or(f64::NAN, |v| v as f64 / 1e6);
    let _ = write!(
        s,
        "  closed-loop latency (not a gated metric, it follows the host's CPU steal): p50 {:.3} ms over {} samples",
        ms(h.quantile(0.5)),
        h.len()
    );
    match h.tail() {
        Some((label, v)) => {
            let _ = writeln!(s, ", {label} {:.3} ms", v as f64 / 1e6);
        }
        None => {
            let _ = writeln!(s, " (too few samples for a tail percentile)");
        }
    }
    let _ = writeln!(
        s,
        "  ops attempted {} failed {} {:?}",
        m.book.attempted,
        m.book.failed(),
        m.book.failures
    );
    if let Some(o) = m.trace_overhead_pct() {
        let _ = writeln!(
            s,
            "  tracing overhead: {o:+.1}% CPU per payment (spans on vs off)"
        );
    }
    if spans.dropped > 0 {
        let _ = writeln!(s, "  spans dropped past the cap: {}", spans.dropped);
    }
    if let Some(p) = steal_pct {
        let _ = writeln!(s, "  host CPU steal during the run: {p:.2}%");
    }
    for v in &m.checks.violations {
        let _ = writeln!(s, "  CHECK FAILED: {v}");
    }
    s
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("livebench: {e}");
            eprintln!(
                "usage: livebench --workload <{}> --seed <n> --seconds <1..60> --trace <0|1>",
                NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let ticks0 = sys::cpu_ticks();
    let mut spans = Spans::new(args.trace);
    let params = Params {
        seed: args.seed,
        seconds: args.seconds as f64,
    };
    let m = workloads::run(&args.workload, &params, &mut spans);
    let metrics = if args.trace {
        layers::measure(&args.workload, args.seed, &m, &mut spans)
    } else {
        end_to_end(&m)
    };
    let steal = ticks0
        .zip(sys::cpu_ticks())
        .map(|(a, b)| a.steal_pct_until(&b));
    eprint!("{}", summary(&args, &m, steal, &spans));
    if args.trace {
        let path = std::path::PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "  {} spans written to {}",
                spans.kept().len(),
                path.display()
            ),
            Err(e) => eprintln!("  could not write spans to {}: {e}", path.display()),
        }
        for (name, value, unit) in &metrics {
            eprintln!("  {name:<28} {value:>12.3} {unit}");
        }
    }
    let correct = m.checks.passed();
    println!(
        "{}",
        json(correct, m.book.attempted, m.book.failed(), &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let a = args("--workload hub --seed 9 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hub", 9, 12, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload direct --trace 2").is_err());
        assert!(args("--workload direct --seconds 0").is_err());
        assert!(args("--workload direct --seed").is_err());
        assert!(args("--seed 1").is_err());
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let line = json(true, 10, 1, &[("a_ms", 1.25, "ms"), ("b", f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
