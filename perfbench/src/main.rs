//! End-to-end and per-layer benchmark of the dynamic-histogram serving
//! stack.
//!
//! ```text
//! perfbench --workload <ingest_wide|read_mix|wire_replicated> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root, e.g.
//! `cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload read_mix --seed 1 --seconds 10 --trace 0`.
//! Durable stores are written under `.bench_work/` in the working
//! directory and removed before exit.
//!
//! Standard output ends with two JSON lines: a report (run stamp, every
//! metric the workload measures, checks, spans, facts) and the result,
//! `{"correct", "attempted", "failed", "metrics"}`, whose metrics are
//! the end-to-end set with `--trace 0` and the per-layer set with
//! `--trace 1`. A traced run measures the workload untraced for half the
//! time and traced for the other half; per-layer metrics come from the
//! traced half and `trace.overhead_ratio` compares the two halves'
//! median commit latency. The exit code is 0 only when every check
//! passed and no operation failed.

mod common;
mod ingest_wide;
mod inputs;
mod read_mix;
mod stats;
mod trace;
mod wire;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use common::{Ctx, Metric, Outcome};

/// End-to-end metrics every workload measures and that hold steady
/// from run to run; the result line carries these with `--trace 0`.
/// The report line carries every end-to-end metric a workload measures.
const END_TO_END: [&str; 3] = ["setup_s", "commit_p50_us", "estimate_p50_ns"];

/// Per-layer metrics every workload's traced run measures; the result
/// line carries these with `--trace 1`. The report line carries every
/// per-layer metric a workload measures.
const PER_LAYER: [&str; 10] = [
    "core.apply_ns_per_op",
    "txn.commit_us",
    "txn.self_us",
    "txn.commits",
    "txn.epochs",
    "read.estimate_ns",
    "read.cache_hit_ratio",
    "read.cache_invalidations",
    "read.snapshot_set_us",
    "trace.overhead_ratio",
];

const WORKLOADS: [&str; 3] = ["ingest_wide", "read_mix", "wire_replicated"];

/// Where runs keep their durable stores, relative to the working
/// directory.
const WORK_ROOT: &str = ".bench_work";

/// A run's scratch directory, removed on drop — also when a workload
/// panics.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the root.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_workload(workload: &str, ctx: &Ctx) -> Outcome {
    match workload {
        "ingest_wide" => ingest_wide::run(ctx),
        "read_mix" => read_mix::run(ctx),
        "wire_replicated" => wire::run(ctx),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// First line of a command's output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    // Never report the revision of a repository that merely encloses
    // the working directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("unknown")
            .trim()
            .to_string(),
        _ => "unknown".to_string(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON: `null` when it is not finite.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

fn json_metrics<'a>(metrics: impl Iterator<Item = (&'a str, &'a Metric)>) -> String {
    let body: Vec<String> = metrics
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(PathBuf::from(WORK_ROOT).join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: cannot create {}: {e}", work.0.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: false,
        work: work.0.clone(),
    };

    let mut out = if args.trace {
        let half = Ctx {
            seconds: args.seconds / 2.0,
            ..ctx.clone()
        };
        let base = run_workload(&args.workload, &half);
        let mut traced = run_workload(
            &args.workload,
            &Ctx {
                trace: true,
                ..half
            },
        );
        let ratio = traced.e2e["commit_p50_us"].value / base.e2e["commit_p50_us"].value;
        traced.layer("trace.overhead_ratio", ratio, "ratio");
        traced.attempted += base.attempted;
        traced.failed += base.failed;
        for check in base.checks {
            traced.check(
                format!("untraced half: {}", check.name),
                check.ok,
                check.detail,
            );
        }
        for (name, m) in &base.e2e {
            traced.fact(format!("untraced.{name}"), json_num(m.value));
        }
        traced
    } else {
        run_workload(&args.workload, &ctx)
    };
    drop(work);

    out.check(
        "error_rate == 0",
        out.failed == 0,
        format!("{} failed of {} attempted", out.failed, out.attempted),
    );
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    // A copy: `out` still takes the check on what is missing.
    let measured = if args.trace {
        out.layers.clone()
    } else {
        out.e2e.clone()
    };
    let missing: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| !measured.get(n).is_some_and(|m| m.value.is_finite()))
        .collect();
    out.check(
        "every reported metric is measured",
        missing.is_empty(),
        format!("missing or not finite: {missing:?}"),
    );
    let correct = out.checks.iter().all(|c| c.ok);

    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect();
    let spans: Vec<String> = out
        .spans
        .spans()
        .iter()
        .map(|(name, s)| {
            format!(
                "{}: {{\"calls\": {}, \"busy_ns\": {}}}",
                json_str(name),
                s.calls,
                s.busy_ns
            )
        })
        .collect();
    let facts: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"rustc\": {}, \"git_head\": {}, \"attempted\": {}, \"failed\": {}, \
         \"error_rate\": {}, \"end_to_end\": {}, \"per_layer\": {}, \"checks\": [{}], \
         \"spans\": {{{}}}, \"facts\": {{{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&command_line("rustc", &["-V"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        json_metrics(out.e2e.iter().map(|(k, v)| (*k, v))),
        json_metrics(out.layers.iter().map(|(k, v)| (*k, v))),
        checks.join(", "),
        spans.join(", "),
        facts.join(", "),
    );
    let metrics = json_metrics(
        names
            .iter()
            .filter_map(|n| measured.get_key_value(n).map(|(k, v)| (*k, v))),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
