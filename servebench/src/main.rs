//! Serving benchmark for the HisRect co-location service.
//!
//! ```text
//! servebench --workload <judge_hot|ingest_reload>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets up the served system in-process (world from the seed, a short
//! training run, the model registry with its ANN index, the HTTP server
//! on an ephemeral port), drives the named workload over HTTP, checks
//! every answer against a reference built from the same model file, and
//! prints one JSON object as the last line of standard output. With
//! `--trace 0` it holds the end-to-end metrics; with `--trace 1` the
//! per-layer metrics, timed by spans around the benchmark's calls into
//! each layer (written to `.servebench/trace-<workload>-<seed>.json`).
//! A human-readable report goes to standard error. The exit code is
//! non-zero on any wrong answer or failed run.

mod client;
mod layers;
mod load;
mod stats;
mod streams;
mod system;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use system::{Reference, SETUP_REPEATS};
use trace::Tracer;
use workloads::{Ctx, Workload};

const USAGE: &str = "usage: servebench --workload <judge_hot|ingest_reload> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where runs keep their model file and traces, relative to the
/// directory the benchmark runs in.
const WORK_DIR: &str = ".servebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (1.0..=600.0).contains(&s)) {
                    return Err("--seconds must be between 1 and 600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The process's peak resident set (VmHWM), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<layers::Metric>,
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let tracer = Tracer::new(args.trace);
    let (served, setup) = system::set_up(dir, SETUP_REPEATS, &tracer)?;
    let setup_s = stats::median(&setup.total_s);
    eprintln!(
        "set-up: {} profiles; {SETUP_REPEATS} set-ups {:?} s (median {setup_s:.3} s)",
        served.dataset.profiles.len(),
        setup.total_s
    );
    let reference = Reference::load(&served)?;
    let conns = load::max_connections();
    let mut ctx = Ctx::new(args.seed, args.seconds, &served, &reference, conns);
    workloads::warm_up(&ctx)?;

    let metrics = if args.trace {
        let metrics = layers::run_traced(&mut ctx, args.workload, &tracer, &setup)?;
        let spans = tracer.spans();
        eprintln!(
            "spans by name:\n{}",
            layers::describe(&trace::by_name(&spans))
        );
        let path = PathBuf::from(WORK_DIR).join(format!(
            "trace-{}-{}.json",
            args.workload.name(),
            args.seed
        ));
        trace::write_json(&spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{} spans written to {}", spans.len(), path.display());
        metrics
    } else {
        let e2e = workloads::run_end_to_end(&mut ctx, args.workload)?;
        report_end_to_end(args.workload, &e2e, setup_s, &ctx.tally);
        let ok_ratio = 1.0 - ctx.tally.failed_ratio();
        vec![
            ("setup_s", setup_s, "s"),
            ("latency_p50_ms", e2e.latency.p50.value, "ms"),
            ("throughput_per_s", e2e.throughput, "1/s"),
            ("recall_at_10", e2e.recall, "ratio"),
            ("ok_ratio", ok_ratio, "ratio"),
        ]
    };
    let tally = &ctx.tally;
    if let Some(p) = &tally.first_problem {
        eprintln!(
            "{} of {} attempted failed ({} wrong, {} shed); first: {p}",
            tally.failed, tally.attempted, tally.wrong, tally.shed
        );
    }
    let outcome = Outcome {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    };
    drop(ctx);
    served.server.shutdown();
    Ok(outcome)
}

/// The end-to-end figures under their per-workload names, for the report.
fn report_end_to_end(
    workload: Workload,
    e: &workloads::EndToEnd,
    setup_s: f64,
    t: &workloads::Tally,
) {
    let tput = match workload {
        Workload::JudgeHot => "judge_closed_loop_rps",
        Workload::IngestReload => "ingest_events_per_s",
    };
    eprintln!("{}:", workload.name());
    eprintln!("  setup_s = {setup_s:.4}");
    let (p50, p99) = (&e.latency.p50, &e.latency.p99);
    eprintln!("  judge_p50_ms = {:.4} ({})", p50.value, p50.describe());
    eprintln!("  judge_p99_ms = {:.4} ({})", p99.value, p99.describe());
    eprintln!("  {tput} = {:.2} ({})", e.throughput, e.throughput_label);
    eprintln!("  recall_at_10 = {:.4}", e.recall);
    if let Some(r) = e.reload_s {
        eprintln!("  reload_s = {r:.4}");
    }
    match peak_rss_mb() {
        Ok(mb) => eprintln!("  peak_rss_mb = {mb:.1}"),
        Err(err) => eprintln!("  peak_rss_mb unavailable: {err}"),
    }
    eprintln!(
        "  failed_ratio = {:.6} ({} of {})",
        t.failed_ratio(),
        t.failed,
        t.attempted
    );
    if e.lateness_growth_ms > stats::LATENESS_GROWTH_LIMIT_MS {
        eprintln!(
            "  warning: the open-loop generator fell {:.2} ms further behind its schedule \
             across the phase; its latencies include that backlog",
            e.lateness_growth_ms
        );
    }
}

fn result_line(o: &Outcome) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (k, (name, value, unit)) in o.metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    let result = run(&args, &dir).and_then(|o| Ok((result_line(&o)?, o.correct)));
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("servebench: answers differed from the reference");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload ingest_reload --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::IngestReload);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload judge_hot --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv(
            "--workload judge_hot --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn result_line_is_one_json_object_with_all_digits() {
        let o = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                ("setup_s", 1.234_567_891_2, "s"),
                ("ok_ratio", 1.0, "ratio"),
            ],
        };
        let line = result_line(&o).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 1.2345678912, \"unit\": \"s\"}, \
             \"ok_ratio\": {\"value\": 1.0, \"unit\": \"ratio\"}}}"
        );
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        assert!(v.get("metrics").is_some());
        let bad = Outcome {
            metrics: vec![("x", f64::NAN, "s")],
            ..o
        };
        assert!(result_line(&bad).is_err());
    }
}
