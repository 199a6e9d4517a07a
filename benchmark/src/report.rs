//! What the benchmark prints and writes: one workload's result line, the
//! suite's report of every workload, and the comparison of two reports.

use crate::metrics::{self, Better, MetricDef, SECTIONS, SETUP_ABS_FLOOR_S};
use crate::workloads::{Workload, WORKLOADS};
use crate::Outcome;
use grace_telemetry::json::{self, Value};
use std::fmt::Write as _;
use std::process::Stdio;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A number with all its digits; non-finite values (which also mark the
/// outcome incorrect) print as 0 to keep the line valid JSON.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn unit_of(name: &str) -> &'static str {
    metrics::find(name).map_or("", |m| m.unit)
}

/// Prints every metric by name with its unit, then the sample line the
/// suite reads, then — last — the result line of the driver's contract.
pub fn print_outcome(w: &Workload, o: &Outcome) {
    println!("# {} ({})", w.name, w.why);
    for (name, v) in &o.values {
        let note = o.samples.get(name).map_or(String::new(), |(n, spread)| {
            format!("  (median of {n}, quartile spread {:.2} %)", spread * 100.0)
        });
        println!("{name:<28} {v:>16.4} {}{note}", unit_of(name));
    }
    let samples: Vec<String> = o
        .samples
        .iter()
        .map(|(name, (n, spread))| {
            format!("\"{name}\":{{\"n\":{n},\"spread\":{}}}", number(*spread))
        })
        .collect();
    println!("{{\"samples\":{{{}}}}}", samples.join(","));
    let values: Vec<String> = o
        .values
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                number(*v),
                unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        values.join(",")
    );
}

/// One child run of one workload in one mode; returns its (samples, result)
/// lines parsed, or the reason there are none.
fn run_child(w: &Workload, seed: u64, seconds: f64, trace: u8) -> Result<(Value, Value), String> {
    let out = crate::job::child_command()
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stdout(Stdio::piped())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("no output")?;
    let samples = lines.next().ok_or("no samples line")?;
    let result = json::parse(result).map_err(|e| format!("result line: {e}"))?;
    let samples = json::parse(samples).map_err(|e| format!("samples line: {e}"))?;
    if !out.status.success() {
        eprintln!("[{}] child exited with {}", w.name, out.status);
    }
    Ok((samples, result))
}

/// A metric's value in a child's result line.
fn value_in(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn metric_section(defs: &[MetricDef], result: &Value, samples: &Value) -> String {
    let rows: Vec<String> = defs
        .iter()
        .filter_map(|m| {
            let value = value_in(result, m.name)?;
            let mut row = format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                m.name,
                number(value),
                m.unit
            );
            if let Some(s) = samples.get("samples").and_then(|s| s.get(m.name)) {
                let get = |k| s.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                let _ = write!(
                    row,
                    ",\"n\":{},\"spread\":{}",
                    get("n"),
                    number(get("spread"))
                );
            }
            row.push('}');
            Some(row)
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

/// Runs every workload in a fresh child process, untraced then traced,
/// prints every metric, and writes the report to `out` when given. Returns
/// the exit code: non-zero if any workload failed an operation.
pub fn suite(seed: u64, seconds: f64, out: Option<&str>) -> i32 {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut body = format!(
        "{{\"schema\":\"grace-e2e/1\",\"seed\":{seed},\"run_seconds\":{},\"host_cpus\":{host_cpus},\"rustc\":\"{}\",\"git_commit\":\"{}\",\"profile\":\"release\",\"workloads\":{{",
        number(seconds),
        escape(&env("E2E_RUSTC")),
        escape(&env("E2E_GIT_COMMIT")),
    );
    println!(
        "grace-e2e suite: seed {seed}, {seconds} s of timed jobs per workload, {host_cpus} cpus"
    );
    let mut all_correct = true;
    for (i, w) in WORKLOADS.iter().enumerate() {
        let modes: Vec<_> = [0u8, 1]
            .into_iter()
            .map(|trace| run_child(w, seed, seconds, trace))
            .collect();
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        let mut sections = Vec::new();
        println!("\n{} — {}", w.name, w.why);
        for (mode, (key, defs)) in modes.iter().zip(SECTIONS) {
            match mode {
                Ok((samples, result)) => {
                    let num = |k| result.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                    attempted += num("attempted");
                    failed += num("failed");
                    correct &= result.get("correct") == Some(&Value::Bool(true));
                    for m in defs {
                        if let Some(v) = value_in(result, m.name) {
                            println!("  {:<28} {v:>16.4} {}", m.name, m.unit);
                        }
                    }
                    sections.push(format!(
                        "\"{key}\":{}",
                        metric_section(defs, result, samples)
                    ));
                }
                Err(why) => {
                    eprintln!("[{}] {key} run gave no result: {why}", w.name);
                    attempted += 1.0;
                    failed += 1.0;
                    correct = false;
                }
            }
        }
        println!("  attempted {attempted}, failed {failed}");
        all_correct &= correct;
        let _ = write!(
            body,
            "{}\"{}\":{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed}{}{}}}",
            if i == 0 { "" } else { "," },
            w.name,
            if sections.is_empty() { "" } else { "," },
            sections.join(",")
        );
    }
    body.push_str("}}\n");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, &body) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        println!("\nreport written to {path}");
    }
    i32::from(!all_correct)
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// A's own run-to-run spread exceeds the bound: no change can be told
    /// from noise on this metric.
    Unresolved,
    /// Worse than A by more than the bound.
    Breach,
    /// An exact count differs between two runs that should be identical.
    Differs,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

pub fn verdict(m: &MetricDef, a: f64, a_spread: f64, b: f64, same_code: bool) -> Verdict {
    if m.exact && same_code {
        return if a == b {
            Verdict::Ok
        } else {
            Verdict::Differs
        };
    }
    let worse = worse_by(m.better, a, b);
    let abs_floor = if m.name == "setup_s" {
        SETUP_ABS_FLOOR_S
    } else {
        0.0
    };
    if worse > m.bound && (b - a).abs() > abs_floor {
        Verdict::Breach
    } else if a_spread > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compares report B against report A per workload and metric. With
/// `same_code` (two runs of one build and seed) every exact count must also
/// be identical. Returns the lines to print and whether anything breached.
pub fn compare(a: &Value, b: &Value, same_code: bool) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut breached = false;
    let metric = |doc: &Value, w: &str, section: &str, name: &str, field: &str| {
        doc.get("workloads")?
            .get(w)?
            .get(section)?
            .get(name)?
            .get(field)?
            .as_f64()
    };
    for w in WORKLOADS.iter() {
        for (section, defs) in SECTIONS {
            for m in defs {
                // Per-layer metrics carry no bound; only their exact counts
                // are held, and only between runs of the same code.
                let bounded = section == "end_to_end";
                if !(bounded || m.exact && same_code) {
                    continue;
                }
                let (Some(va), Some(vb)) = (
                    metric(a, w.name, section, m.name, "value"),
                    metric(b, w.name, section, m.name, "value"),
                ) else {
                    lines.push(format!(
                        "{:<14} {:<26} missing from a report",
                        w.name, m.name
                    ));
                    breached = true;
                    continue;
                };
                let spread = metric(a, w.name, section, m.name, "spread").unwrap_or(0.0);
                let v = verdict(m, va, spread, vb, same_code);
                breached |= matches!(v, Verdict::Breach | Verdict::Differs);
                if bounded || v != Verdict::Ok {
                    lines.push(format!(
                        "{:<14} {:<26} {va:>14.4} -> {vb:>14.4} {:<9} {:+7.2} % worse (bound {:.1} %, A spread {:.2} %)  {v:?}",
                        w.name,
                        m.name,
                        m.unit,
                        worse_by(m.better, va, vb) * 100.0,
                        m.bound * 100.0,
                        spread * 100.0,
                    ));
                }
            }
        }
    }
    (lines, breached)
}

/// `grace-e2e compare A.json B.json [--same-code]`: exit 1 on a breach.
pub fn compare_files(a: &str, b: &str, same_code: bool) -> i32 {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text))
            .unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            })
    };
    let (lines, breached) = compare(&load(a), &load(b), same_code);
    for line in &lines {
        println!("{line}");
    }
    println!(
        "{}",
        if breached {
            "compare: BREACH"
        } else {
            "compare: within bounds"
        }
    );
    i32::from(breached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn def(name: &str) -> &'static MetricDef {
        metrics::find(name).unwrap()
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn verdicts() {
        let rate = def("steps_per_s");
        assert_eq!(verdict(rate, 10.0, 0.01, 9.5, false), Verdict::Ok);
        assert_eq!(verdict(rate, 10.0, 0.01, 7.4, false), Verdict::Breach);
        assert_eq!(verdict(rate, 10.0, 0.01, 12.0, false), Verdict::Ok);
        // A's own spread is wider than the bound: unresolved, not unchanged.
        assert_eq!(verdict(rate, 10.0, 0.30, 9.5, false), Verdict::Unresolved);
        // Set-up may move by 10 ms however large that is as a share.
        let setup = def("setup_s");
        assert_eq!(verdict(setup, 0.020, 0.0, 0.028, false), Verdict::Ok);
        assert_eq!(verdict(setup, 0.200, 0.0, 0.280, false), Verdict::Breach);
        // Exact counts: bounded between two builds, identical within one.
        let wire = def("wire_bytes_per_step");
        assert_eq!(verdict(wire, 1000.0, 0.0, 1004.0, false), Verdict::Ok);
        assert_eq!(verdict(wire, 1000.0, 0.0, 1004.0, true), Verdict::Differs);
        assert_eq!(verdict(wire, 1000.0, 0.0, 1000.0, true), Verdict::Ok);
    }

    fn report(rate: f64, calls: f64) -> Value {
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "steps_per_s" { rate } else { 1.0 };
                format!(
                    "\"{}\":{{\"value\":{v},\"unit\":\"{}\",\"spread\":0.01}}",
                    m.name, m.unit
                )
            })
            .collect();
        let layers: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                let v = if m.name == "comm.collective_calls" {
                    calls
                } else {
                    1.0
                };
                format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "\"{}\":{{\"end_to_end\":{{{}}},\"per_layer\":{{{}}}}}",
                    w.name,
                    e2e.join(","),
                    layers.join(",")
                )
            })
            .collect();
        json::parse(&format!("{{\"workloads\":{{{}}}}}", workloads.join(","))).unwrap()
    }

    #[test]
    fn compare_flags_a_breach_and_a_differing_count() {
        let (lines, breached) = compare(&report(10.0, 14.0), &report(9.8, 14.0), true);
        assert!(!breached, "{lines:#?}");
        assert_eq!(lines.len(), WORKLOADS.len() * END_TO_END.len());
        let (_, breached) = compare(&report(10.0, 14.0), &report(7.0, 14.0), false);
        assert!(breached);
        // A per-layer count is held only between runs of the same code.
        let (_, breached) = compare(&report(10.0, 14.0), &report(10.0, 15.0), false);
        assert!(!breached);
        let (lines, breached) = compare(&report(10.0, 14.0), &report(10.0, 15.0), true);
        assert!(breached);
        assert!(lines
            .iter()
            .any(|l| l.contains("comm.collective_calls") && l.contains("Differs")));
    }

    #[test]
    fn compare_reports_a_missing_metric() {
        let empty = json::parse("{\"workloads\":{}}").unwrap();
        let (_, breached) = compare(&report(10.0, 14.0), &empty, false);
        assert!(breached);
    }

    #[test]
    fn escape_keeps_json_valid() {
        let s = escape("rustc \"1.95\" \\ \n");
        assert!(json::parse(&format!("\"{s}\"")).is_ok());
    }
}
