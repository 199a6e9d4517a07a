//! `grace-analyze` — post-process GRACE telemetry artefacts.
//!
//! ```text
//! grace-analyze report <trace.json | dir> [--out PATH] [--per-step] [--require-steps N]
//! grace-analyze --check-bench <current.json> --baseline <baseline.json> [--tolerance 0.25]
//! ```
//!
//! Exit codes: `0` ok, `1` bench regression / too few complete steps,
//! `2` usage or input error — so CI can gate directly on the process
//! status.

use grace_analyze::{bench, merge, report::Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  grace-analyze report <trace.json | dir> [--out PATH] [--per-step] [--require-steps N]
      Where a run's time went and whether its compression was healthy.
      A file is one trace export. A directory is a traced grace-launch run
      (rank<k>.trace.json + hub.trace.json) or a flight-recorder bundle
      (rank<k>.{trace.json,health.jsonl}): its ranks are rebased onto the
      hub clock into one Perfetto timeline (default <dir>/merged.trace.json)
      with health anomalies overlaid. Prints the complete steps, the
      cross-rank convoy, exposed network time and retransmits, the trip,
      last anomaly and quality trend, and the critical path: which stage's
      exposed time bounds each step (--per-step: every step). Exits 1 when
      fewer than N steps are complete (for a file: its step markers).

  grace-analyze --check-bench <current.json> --baseline <baseline.json> [--tolerance 0.25]
      Diff a bench result against a committed baseline; exits 1 when a
      gated ratio metric falls below baseline*(1 - tolerance).";

fn fail(msg: &str) -> ExitCode {
    eprintln!("grace-analyze: {msg}");
    ExitCode::from(2)
}

fn read(path: impl AsRef<Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn run_report(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut out = None;
    let mut per_step = false;
    let mut require_steps = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--per-step" => per_step = true,
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return fail("--out needs a path"),
            },
            "--require-steps" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => require_steps = n,
                _ => return fail("--require-steps needs a count"),
            },
            _ if path.is_none() => path = Some(PathBuf::from(a)),
            _ => return fail(USAGE),
        }
    }
    let Some(path) = path else {
        return fail(USAGE);
    };
    let is_dir = path.is_dir();
    if out.is_some() && !is_dir {
        return fail("--out names the merged timeline, which only a directory has");
    }
    let loaded = if is_dir {
        merge::load_dir(&path).map(|traces| (traces, merge::load_health_events(&path)))
    } else {
        read(&path).and_then(|text| {
            merge::parse_rank_trace(&text)
                .map(|trace| (vec![trace], Vec::new()))
                .map_err(|e| format!("{}: {e}", path.display()))
        })
    };
    let (traces, health) = match loaded {
        Ok(l) => l,
        Err(e) => return fail(&e),
    };
    let report = Report::build(&traces, &health);
    print!("{}", report.render(per_step));
    if is_dir {
        let out = out.unwrap_or_else(|| path.join("merged.trace.json"));
        if let Err(e) = std::fs::write(&out, merge::merged_trace_json(&traces, &health)) {
            return fail(&format!("cannot write {}: {e}", out.display()));
        }
        if !health.is_empty() {
            println!(
                "overlaid {} anomaly event(s) on the health track",
                health.len()
            );
        }
        println!("merged timeline: {}", out.display());
    }
    if report.complete_steps.len() < require_steps {
        eprintln!(
            "grace-analyze: only {} complete step(s), required {require_steps}",
            report.complete_steps.len()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn run_check_bench(args: &[String]) -> ExitCode {
    let mut current = None;
    let mut baseline = None;
    let mut tolerance = 0.25f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline = Some(p.clone()),
                None => return fail("--baseline needs a path"),
            },
            "--tolerance" => match it.next().map(|t| t.parse::<f64>()) {
                Some(Ok(t)) => tolerance = t,
                _ => return fail("--tolerance needs a number"),
            },
            _ if current.is_none() => current = Some(a.clone()),
            _ => return fail(USAGE),
        }
    }
    let (Some(current), Some(baseline)) = (current, baseline) else {
        return fail(USAGE);
    };
    let (cur_text, base_text) = match (read(&current), read(&baseline)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    match bench::check_bench_text(&cur_text, &base_text, tolerance) {
        Ok(report) => {
            print!("{}", report.render());
            if report.ok() {
                println!("check-bench: ok (tolerance {tolerance})");
                ExitCode::SUCCESS
            } else {
                let n = report.regressions().count();
                println!("check-bench: {n} regression(s) vs {baseline}");
                ExitCode::from(1)
            }
        }
        Err(e) => fail(&e),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => run_report(&args[1..]),
        Some("--check-bench" | "check-bench") => run_check_bench(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => fail(USAGE),
    }
}
