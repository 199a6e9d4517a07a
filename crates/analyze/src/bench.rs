//! Bench regression check: current `results/bench_*.json` vs a committed
//! baseline.
//!
//! Wall-clock milliseconds on a shared CI host are too noisy to gate on;
//! the *ratio* metrics each bench reports are not — they divide out the
//! host speed. So the check compares, per codec row:
//!
//! * `bench_pipeline_overlap.json` → `overlap_ratio` (encode hidden under
//!   backprop);
//! * `bench_socket_exchange.json` → `frame_efficiency` (payload ÷ raw wire
//!   bytes on the TCP transport — deterministic, catches wire-format
//!   bloat) and `calls_per_step` (collectives a step issues — a count); its
//!   one `uds_over_tcp` row gates that ratio (TCP's dense step wall over
//!   UDS's) alone.
//!
//! A ratio passes while `current ≥ baseline · (1 − tolerance)`; improving
//! is always fine. A count passes only while it *equals* the baseline: it
//! has no noise, and either direction means the program changed shape and
//! the baseline is to be re-recorded on purpose. Rows present in the
//! baseline must exist in the current file (a codec silently dropping out
//! of a bench is itself a regression).

use grace_telemetry::json::{self, Value};

/// Ratio metrics (higher is better) gated per bench kind.
fn gated_metrics(bench: &str) -> &'static [&'static str] {
    match bench {
        "pipeline_overlap" => &["overlap_ratio"],
        "socket_exchange" => &["frame_efficiency"],
        // Fraction of store-nothing throughput retained with the always-on
        // flight-recorder ring, and with full tracing. The bench interleaves
        // its arms so the ratios measure the event path, not run order; a
        // per-event allocation, lock or syscall regression craters them.
        "telemetry_overhead" => &["recorder_throughput_ratio", "tracing_throughput_ratio"],
        // `agg_cpu_speedup` is recorded but not gated: merge wall-clock on a
        // loaded CI host is too noisy; the deterministic byte ratio is the
        // claim worth pinning.
        "agg_strategies" => &["incast_reduction"],
        // reference/new wall-clock cancel host speed out of the ratio; the
        // committed baseline pins the vectorized kernels' advantage (the
        // packed-quantizer encode row is the ≥4× acceptance floor).
        "simd_kernels" => &["speedup"],
        _ => &[],
    }
}

/// Ratio metrics a bench gates only on the baseline rows that carry them; a
/// row that carries one gates only these, not the bench's other metrics.
fn row_metrics(bench: &str) -> &'static [&'static str] {
    match bench {
        // Shared-memory bodies against inline ones on the same dense step:
        // a wall-clock ratio, so host speed divides out.
        "socket_exchange" => &["uds_over_tcp"],
        _ => &[],
    }
}

/// Count metrics gated for equality per bench kind.
fn exact_metrics(bench: &str) -> &'static [&'static str] {
    match bench {
        "socket_exchange" => &["calls_per_step"],
        _ => &[],
    }
}

/// One metric comparison.
#[derive(Debug, Clone)]
pub struct Check {
    /// Row key (the codec name).
    pub row: String,
    /// Metric name.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Lowest passing value at the configured tolerance (the baseline
    /// itself for a count, which must match exactly).
    pub floor: f64,
    /// Whether the current value passes.
    pub ok: bool,
}

/// Outcome of one file comparison.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The bench kind (`bench` field shared by both files).
    pub bench: String,
    /// All metric comparisons, in baseline row order.
    pub checks: Vec<Check>,
}

impl BenchReport {
    /// Comparisons that failed.
    pub fn regressions(&self) -> impl Iterator<Item = &Check> {
        self.checks.iter().filter(|c| !c.ok)
    }

    /// Whether every comparison passed.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Renders the comparison table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "bench '{}':", self.bench);
        for c in &self.checks {
            let _ = writeln!(
                out,
                "  {:<4} {:<20} {:<16} baseline {:>8.4}  current {:>8.4}  floor {:>8.4}",
                if c.ok { "ok" } else { "FAIL" },
                c.row,
                c.metric,
                c.baseline,
                c.current,
                c.floor
            );
        }
        out
    }
}

fn rows_by_codec(doc: &Value) -> Result<Vec<(String, &Value)>, String> {
    doc.get("rows")
        .and_then(Value::as_array)
        .ok_or("missing rows array")?
        .iter()
        .map(|row| {
            row.get("codec")
                .and_then(Value::as_str)
                .map(|c| (c.to_string(), row))
                .ok_or_else(|| "row without codec key".to_string())
        })
        .collect()
}

/// Compares parsed bench documents.
///
/// # Errors
///
/// Returns a message when either document is malformed, the bench kinds
/// differ, or `tolerance` is not in `[0, 1)`.
pub fn check_bench(
    current: &Value,
    baseline: &Value,
    tolerance: f64,
) -> Result<BenchReport, String> {
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("tolerance {tolerance} outside [0, 1)"));
    }
    let bench = baseline
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("baseline missing bench field")?;
    let current_bench = current
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("current missing bench field")?;
    if bench != current_bench {
        return Err(format!(
            "bench mismatch: baseline '{bench}' vs current '{current_bench}'"
        ));
    }
    let metrics = gated_metrics(bench);
    if metrics.is_empty() {
        return Err(format!("no gated metrics defined for bench '{bench}'"));
    }
    let base_rows = rows_by_codec(baseline)?;
    let cur_rows = rows_by_codec(current)?;

    let ratios = metrics.iter().map(|m| (m, false));
    let gated: Vec<_> = ratios
        .chain(exact_metrics(bench).iter().map(|m| (m, true)))
        .collect();
    let mut checks = Vec::new();
    for (codec, base_row) in &base_rows {
        let cur_row = cur_rows.iter().find(|(c, _)| c == codec).map(|(_, r)| *r);
        let own: Vec<_> = row_metrics(bench)
            .iter()
            .filter(|m| base_row.get(m).is_some())
            .map(|m| (m, false))
            .collect();
        let gated = if own.is_empty() { &gated } else { &own };
        for &(metric, exact) in gated {
            let baseline_v = base_row
                .get(metric)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("baseline row '{codec}' missing {metric}"))?;
            let floor = if exact {
                baseline_v
            } else {
                baseline_v * (1.0 - tolerance)
            };
            // A missing row or metric reads as a hard fail, not an error:
            // the check's job is exactly to catch silent disappearance.
            let current_v = cur_row
                .and_then(|r| r.get(metric))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NEG_INFINITY);
            checks.push(Check {
                row: codec.clone(),
                metric: metric.to_string(),
                baseline: baseline_v,
                current: current_v,
                floor,
                ok: if exact {
                    current_v == baseline_v
                } else {
                    current_v >= floor
                },
            });
        }
    }
    Ok(BenchReport {
        bench: bench.to_string(),
        checks,
    })
}

/// Convenience: parse both documents from text and compare.
///
/// # Errors
///
/// Propagates parse errors and [`check_bench`] errors.
pub fn check_bench_text(
    current: &str,
    baseline: &str,
    tolerance: f64,
) -> Result<BenchReport, String> {
    let current = json::parse(current).map_err(|e| format!("current file: {e}"))?;
    let baseline = json::parse(baseline).map_err(|e| format!("baseline file: {e}"))?;
    check_bench(&current, &baseline, tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlap_doc(qsgd: f64, topk: Option<f64>) -> String {
        let mut rows =
            format!(r#"{{"codec": "qsgd", "overlap_ratio": {qsgd}, "pipelined_ms": 3.0}}"#);
        if let Some(t) = topk {
            rows.push_str(&format!(
                r#", {{"codec": "topk", "overlap_ratio": {t}, "pipelined_ms": 2.0}}"#
            ));
        }
        format!(r#"{{"bench": "pipeline_overlap", "workers": 4, "rows": [{rows}]}}"#)
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = overlap_doc(0.75, Some(0.70));
        let current = overlap_doc(0.70, Some(0.90));
        let report = check_bench_text(&current, &baseline, 0.25).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.checks.len(), 2);
    }

    #[test]
    fn regression_below_floor_fails() {
        let baseline = overlap_doc(0.75, None);
        let current = overlap_doc(0.40, None);
        let report = check_bench_text(&current, &baseline, 0.25).unwrap();
        assert!(!report.ok());
        let fail = report.regressions().next().unwrap();
        assert_eq!(fail.row, "qsgd");
        assert_eq!(fail.metric, "overlap_ratio");
        assert!((fail.floor - 0.5625).abs() < 1e-9);
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn missing_row_in_current_fails() {
        let baseline = overlap_doc(0.75, Some(0.70));
        let current = overlap_doc(0.75, None);
        let report = check_bench_text(&current, &baseline, 0.25).unwrap();
        assert!(!report.ok());
        assert!(report.regressions().any(|c| c.row == "topk"));
    }

    #[test]
    fn improvements_always_pass() {
        let baseline = overlap_doc(0.5, None);
        let current = overlap_doc(0.99, None);
        assert!(check_bench_text(&current, &baseline, 0.0).unwrap().ok());
    }

    #[test]
    fn mismatched_bench_kinds_error() {
        let baseline = overlap_doc(0.75, None);
        let current = r#"{"bench": "socket_exchange", "rows": []}"#;
        assert!(check_bench_text(current, &baseline, 0.25).is_err());
    }

    #[test]
    fn socket_exchange_gates_frame_efficiency_and_the_exact_call_count() {
        let doc = |calls: u32, eff: f64, wall: f64| {
            format!(
                r#"{{"bench": "socket_exchange", "rows": [{{"codec": "fused/per_bucket@2",
                "calls_per_step": {calls}, "frame_efficiency": {eff}, "wall_ms": {wall}}}]}}"#
            )
        };
        let base = doc(9, 0.979, 0.8);
        // wall_ms is informational and never gated; the deterministic
        // framing ratio is, and the call count must not move at all.
        assert!(check_bench_text(&doc(9, 0.95, 99.0), &base, 0.25)
            .unwrap()
            .ok());
        let report = check_bench_text(&doc(9, 0.60, 1.0), &base, 0.25).unwrap();
        assert!(!report.ok());
        assert_eq!(
            report.regressions().next().unwrap().metric,
            "frame_efficiency"
        );
        for calls in [68, 8] {
            let report = check_bench_text(&doc(calls, 0.979, 0.8), &base, 0.25).unwrap();
            let failed: Vec<_> = report.regressions().map(|c| c.metric.as_str()).collect();
            assert_eq!(failed, ["calls_per_step"], "{calls} calls against 9");
        }
        // A baseline row recorded before the count existed is an error to
        // fix by re-recording, not a silent pass.
        let old = r#"{"bench": "socket_exchange", "rows": [{"codec": "64KiB", "frame_efficiency": 0.999}]}"#;
        assert!(check_bench_text(old, old, 0.25).is_err());
    }

    #[test]
    fn the_uds_over_tcp_row_gates_its_ratio_alone() {
        let doc = |ratio: f64| {
            format!(
                r#"{{"bench": "socket_exchange", "rows": [{{"codec": "dense/uds_over_tcp@2",
                "uds_over_tcp": {ratio}}}]}}"#
            )
        };
        // Baseline 2.0 at tolerance 0.25: the floor is 1.5.
        let report = check_bench_text(&doc(1.6), &doc(2.0), 0.25).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.checks.len(), 1);
        assert!((report.checks[0].floor - 1.5).abs() < 1e-9);
        let report = check_bench_text(&doc(1.4), &doc(2.0), 0.25).unwrap();
        assert_eq!(report.regressions().next().unwrap().metric, "uds_over_tcp");
        // The row vanishing from the current file fails like any other.
        let empty = r#"{"bench": "socket_exchange", "rows": []}"#;
        assert!(!check_bench_text(empty, &doc(2.0), 0.25).unwrap().ok());
    }

    #[test]
    fn bad_tolerance_errors() {
        let doc = overlap_doc(0.75, None);
        assert!(check_bench_text(&doc, &doc, 1.0).is_err());
        assert!(check_bench_text(&doc, &doc, -0.1).is_err());
    }
}
