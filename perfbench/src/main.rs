//! End-to-end and per-layer benchmark of the DHGCN serving and training
//! stack. One workload per run:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload net-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Inputs are generated from `--seed`. The run measures for `--seconds`,
//! checks every output it gets, and prints as its last stdout line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans to
//! `.bench_trace/<workload>-seed<seed>.json`. A wrong output, an untyped
//! failure or a bad training batch makes the run exit non-zero.

mod host;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{Config, Outcome};

const WORKLOADS: [&str; 2] = ["net-mixed", "train-epoch"];

struct Args {
    workload: String,
    cfg: Config,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace 0 or --trace 1 is required")?,
        },
    })
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(outcome: &Outcome) -> BTreeMap<String, f64> {
    let s = &outcome.stats;
    let unit = outcome.unit;
    let p50 = stats::percentile(&s.latencies_ms, 50.0);
    let tail = stats::tail(&s.latencies_ms, report::TAIL_CAP);
    let throughput = stats::median(&s.slice_rates);
    let setup = stats::median(&outcome.setup_s);
    let top = stats::tail(&s.latencies_ms, 100.0);
    for (name, q) in [("p50_ms", p50), ("tail_ms", tail), ("(not gated)", top)] {
        if let Some(q) = q {
            println!(
                "{name:<17} {:.4} ms per {unit} at p{} (n={}, {} beyond)",
                q.value, q.pct, q.n, q.beyond
            );
        }
    }
    let deciles: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0]
        .into_iter()
        .filter_map(|p| stats::percentile(&s.latencies_ms, p))
        .map(|q| format!("p{}={:.4}", q.pct, q.value))
        .collect();
    println!("distribution      {} ms", deciles.join(" "));
    println!(
        "throughput_per_s  {throughput:.4} {}s/s, median of {} slices ({:.4} over all {:.3} s)",
        outcome.work_unit,
        s.slice_rates.len(),
        s.work / s.elapsed_s.max(1e-9),
        s.elapsed_s
    );
    println!(
        "setup_s           {setup:.4} s (median of {:?})",
        outcome.setup_s
    );
    println!(
        "error_ratio       {} failed ({} shed) / {} attempted, {} succeeded",
        s.failed, s.shed, s.attempted, s.work
    );
    [
        ("setup_s", setup),
        ("p50_ms", p50.map_or(f64::NAN, |q| q.value)),
        ("tail_ms", tail.map_or(f64::NAN, |q| q.value)),
        ("throughput_per_s", throughput),
        ("peak_rss_mb", host::peak_rss_mb()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// The per-layer metrics of a traced run; a layer the workload's path
/// bypasses reads 0.
fn per_layer(outcome: &Outcome) -> BTreeMap<String, f64> {
    let mut values: BTreeMap<String, f64> = report::per_layer()
        .into_iter()
        .map(|(n, _)| (n, 0.0))
        .collect();
    values.extend(outcome.layers.iter().map(|(k, v)| (k.clone(), *v)));
    for (name, value) in &values {
        println!("{name:<40} {value}");
    }
    values
}

fn write_spans(
    workload: &str,
    cfg: &Config,
    fingerprint: &str,
    tracer: &trace::Tracer,
) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{}.json", cfg.seed));
    let header = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"host\":{fingerprint}}}",
        cfg.seed, cfg.seconds
    );
    std::fs::write(&path, trace::to_json(&header, &tracer.spans()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let fingerprint = host::Fingerprint::probe().to_json();
    let cfg = &args.cfg;
    println!("host {fingerprint}");
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let tracer = trace::Tracer::default();
    let run = match args.workload.as_str() {
        "net-mixed" => workloads::net_mixed::run(cfg, &tracer),
        _ => workloads::train_epoch::run(cfg, &tracer),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(why) => {
            eprintln!("perfbench: {} could not run: {why}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let (values, catalogue) = if cfg.trace {
        match write_spans(&args.workload, cfg, &fingerprint, &tracer) {
            Ok(path) => println!("spans written to {path}"),
            Err(why) => {
                eprintln!("perfbench: writing spans: {why}");
                return ExitCode::FAILURE;
            }
        }
        (per_layer(&outcome), report::per_layer())
    } else {
        let e2e = report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        (end_to_end(&outcome), e2e)
    };
    let s = &outcome.stats;
    for v in &s.violations {
        println!("VIOLATION {v}");
    }
    let correct = s.violation_count == 0 && s.attempted > 0;
    match report::summary(correct, s.attempted, s.failed, &catalogue, &values) {
        Ok(line) => println!("{line}"),
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} violation(s); see VIOLATION lines",
            s.violation_count
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload train-epoch --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.cfg.seed, a.cfg.seconds, a.cfg.trace),
            ("train-epoch", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve-burst --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload net-mixed --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload net-mixed --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload net-mixed --seed 1 --seconds 1").is_err());
    }
}
