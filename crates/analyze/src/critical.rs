//! Per-step critical-path attribution over one trace file.
//!
//! The exchange pipeline records complete (`"X"`) spans on per-stage tracks
//! (`stage: encode`, `stage: decompress`, `stage: aggregate`, `stage: comm`)
//! and one instant marker per optimisation step on the `steps` track. This
//! module segments a file's timeline at those markers and, inside each step
//! window, computes for every stage:
//!
//! * **busy** — the union length of the stage's spans (self-overlap between
//!   concurrent workers collapses, so busy never exceeds the window);
//! * **hidden** — the part of busy covered by some *other* stage's spans;
//! * **exposed** — busy − hidden: wall-clock this stage alone accounts for.
//!
//! The stage with the largest exposed time is the step's **bound**: the
//! stage you must shrink to make the step faster. Hidden time is free —
//! optimising it moves nothing.

use crate::merge::RankTrace;
use std::collections::BTreeMap;

/// Stage-track label prefix in the trace metadata.
pub(crate) const STAGE_PREFIX: &str = "stage: ";
/// Step-boundary track label (`Track::Step`).
pub(crate) const STEPS_TRACK: &str = "steps";
/// Name of the per-step boundary marker. The track also carries the
/// flight recorder's per-step counter-delta instants, which are not
/// boundaries.
pub(crate) const STEP_MARKER: &str = "step";

/// One step window's attribution.
#[derive(Debug, Clone)]
pub struct StepAttribution {
    /// Step index from the marker's `args` (the window *ending* at that
    /// marker; work inside it produced this step).
    pub step: u64,
    /// Window length in microseconds.
    pub window_us: f64,
    /// Per-stage `(busy_us, exposed_us)`.
    pub stages: BTreeMap<String, (f64, f64)>,
    /// The stage with the largest exposed time (empty when the window has
    /// no stage activity).
    pub bound: String,
}

/// Whole-trace summary.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Steps analysed.
    pub steps: usize,
    /// Per-stage totals: `(busy_us, exposed_us)` summed over steps.
    pub totals: BTreeMap<String, (f64, f64)>,
    /// How many steps each stage bounds.
    pub bound_counts: BTreeMap<String, usize>,
}

/// Merges sorted `[start, end)` intervals into a disjoint union.
pub(crate) fn merge(intervals: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
    for &(s, e) in intervals {
        if e <= s {
            continue;
        }
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

pub(crate) fn total_len(union: &[(f64, f64)]) -> f64 {
    union.iter().map(|(s, e)| e - s).sum()
}

/// Length of the part of `a` (disjoint, sorted) covered by `b` (same).
pub(crate) fn overlap_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let mut total = 0.0;
    let mut j = 0;
    for &(s, e) in a {
        while j < b.len() && b[j].1 <= s {
            j += 1;
        }
        let mut k = j;
        while k < b.len() && b[k].0 < e {
            total += (e.min(b[k].1) - s.max(b[k].0)).max(0.0);
            k += 1;
        }
    }
    total
}

/// Clips a disjoint sorted union to `[lo, hi)`.
fn clip(union: &[(f64, f64)], lo: f64, hi: f64) -> Vec<(f64, f64)> {
    union
        .iter()
        .filter(|(s, e)| *e > lo && *s < hi)
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .collect()
}

/// Attributes each step window of one file, on that file's own clock. With
/// no step markers the whole trace is treated as a single window (step 0)
/// so short captures still analyse; a file without stage spans (the hub's)
/// has no windows.
pub fn critical_path(trace: &RankTrace) -> Vec<StepAttribution> {
    let tracks = trace.track_names();
    let mut stage_spans: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    for ev in trace.events.iter().filter(|e| e.ph == "X") {
        if let Some(stage) = tracks
            .get(&ev.tid)
            .and_then(|t| t.strip_prefix(STAGE_PREFIX))
        {
            stage_spans
                .entry(stage)
                .or_default()
                .push((ev.ts_us, ev.ts_us + ev.dur_us));
        }
    }
    // Disjoint per-stage unions over the whole trace, clipped per window.
    let unions: BTreeMap<&str, Vec<(f64, f64)>> = stage_spans
        .into_iter()
        .map(|(name, mut spans)| {
            spans.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            (name, merge(&spans))
        })
        .collect();
    if unions.is_empty() {
        return Vec::new();
    }

    // Window k ends at marker k; the first window starts at the timeline
    // origin. A trailing window past the last marker would hold no step.
    let marks = trace.step_marks();
    let mut windows: Vec<(u64, f64, f64)> = Vec::new();
    if marks.is_empty() {
        let t_end = unions
            .values()
            .flat_map(|u| u.iter().map(|(_, e)| *e))
            .fold(0.0f64, f64::max);
        windows.push((0, 0.0, t_end));
    } else {
        let mut lo = 0.0;
        for (&step, &ts) in &marks {
            windows.push((step, lo, ts));
            lo = ts;
        }
    }

    let mut out = Vec::with_capacity(windows.len());
    for (step, lo, hi) in windows {
        let mut stages: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        let clipped: BTreeMap<&str, Vec<(f64, f64)>> = unions
            .iter()
            .map(|(name, u)| (*name, clip(u, lo, hi)))
            .collect();
        for (name, own) in &clipped {
            let busy = total_len(own);
            // Union of every *other* stage, merged, to measure cover.
            let mut others: Vec<(f64, f64)> = clipped
                .iter()
                .filter(|(n, _)| n != &name)
                .flat_map(|(_, u)| u.iter().copied())
                .collect();
            others.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let hidden = overlap_len(own, &merge(&others));
            stages.insert(name.to_string(), (busy, (busy - hidden).max(0.0)));
        }
        let bound = stages
            .iter()
            .max_by(|a, b| {
                (a.1 .1, a.1 .0)
                    .partial_cmp(&(b.1 .1, b.1 .0))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .filter(|(_, (busy, _))| *busy > 0.0)
            .map(|(name, _)| name.clone())
            .unwrap_or_default();
        out.push(StepAttribution {
            step,
            window_us: (hi - lo).max(0.0),
            stages,
            bound,
        });
    }
    out
}

/// Folds per-step attributions into a whole-trace [`Summary`].
pub fn summarize(steps: &[StepAttribution]) -> Summary {
    let mut summary = Summary {
        steps: steps.len(),
        ..Summary::default()
    };
    for step in steps {
        for (name, (busy, exposed)) in &step.stages {
            let t = summary.totals.entry(name.clone()).or_insert((0.0, 0.0));
            t.0 += busy;
            t.1 += exposed;
        }
        if !step.bound.is_empty() {
            *summary.bound_counts.entry(step.bound.clone()).or_insert(0) += 1;
        }
    }
    summary
}

/// Renders the summary table (and optionally each step).
pub fn render(steps: &[StepAttribution], per_step: bool) -> String {
    use std::fmt::Write as _;
    let summary = summarize(steps);
    let mut out = String::new();
    let _ = writeln!(out, "critical path over {} step(s)", summary.steps);
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>12}",
        "stage", "busy ms", "exposed ms", "bounds steps"
    );
    for (name, (busy, exposed)) in &summary.totals {
        let _ = writeln!(
            out,
            "{:<12} {:>14.3} {:>14.3} {:>12}",
            name,
            busy / 1e3,
            exposed / 1e3,
            summary.bound_counts.get(name).copied().unwrap_or(0)
        );
    }
    if let Some((bound, n)) = summary.bound_counts.iter().max_by_key(|(_, n)| **n) {
        let _ = writeln!(
            out,
            "dominant bound: {bound} ({n}/{} steps) — hidden time is already free; shrink the exposed column",
            summary.steps
        );
    }
    if per_step {
        for step in steps {
            let _ = writeln!(
                out,
                "step {:>6}: window {:.3} ms, bound: {}",
                step.step,
                step.window_us / 1e3,
                if step.bound.is_empty() {
                    "(idle)"
                } else {
                    &step.bound
                }
            );
            for (name, (busy, exposed)) in &step.stages {
                if *busy > 0.0 {
                    let _ = writeln!(
                        out,
                        "    {:<12} busy {:>10.3} ms  exposed {:>10.3} ms  hidden {:>10.3} ms",
                        name,
                        busy / 1e3,
                        exposed / 1e3,
                        (busy - exposed) / 1e3
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::parse_rank_trace;
    use crate::report::Report;

    fn meta(tid: u64, name: &str) -> String {
        format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
        )
    }

    fn span(tid: u64, ts: f64, dur: f64) -> String {
        format!("{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"s\",\"ts\":{ts},\"dur\":{dur}}}")
    }

    fn mark(tid: u64, ts: f64, step: u64) -> String {
        format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"name\":\"step\",\"ts\":{ts},\"s\":\"t\",\"args\":{{\"step\":{step}}}}}"
        )
    }

    /// A flight-recorder counter delta: same track, same `step` arg, not a
    /// step boundary.
    fn delta(tid: u64, ts: f64, step: u64) -> String {
        mark(tid, ts, step).replace("\"name\":\"step\"", "\"name\":\"traffic.bytes_total\"")
    }

    fn doc(events: &[String]) -> String {
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    #[test]
    fn merge_and_overlap_primitives() {
        let m = merge(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]);
        assert_eq!(m, vec![(0.0, 3.0), (5.0, 6.0)]);
        assert_eq!(total_len(&m), 4.0);
        let cover = overlap_len(&m, &[(2.5, 5.5)]);
        assert!((cover - 1.0).abs() < 1e-12);
        assert_eq!(clip(&m, 1.0, 5.5), vec![(1.0, 3.0), (5.0, 5.5)]);
    }

    #[test]
    fn attributes_exposed_time_per_step() {
        // Step window [0, 100): encode busy 0..40, comm busy 30..90.
        // Encode hidden under comm: 10 → exposed 30; comm exposed 50.
        let text = doc(&[
            meta(1, "stage: encode"),
            meta(4, "stage: comm"),
            meta(7, "steps"),
            span(1, 0.0, 40.0),
            span(4, 30.0, 60.0),
            mark(7, 100.0, 0),
            delta(7, 101.0, 0),
            // Step 1 window [100, 200): only encode runs.
            span(1, 120.0, 30.0),
            mark(7, 200.0, 1),
        ]);
        let data = parse_rank_trace(&text).unwrap();
        let steps = critical_path(&data);
        assert_eq!(steps.len(), 2);

        let s0 = &steps[0];
        assert_eq!(s0.step, 0);
        let (enc_busy, enc_exposed) = s0.stages["encode"];
        let (comm_busy, comm_exposed) = s0.stages["comm"];
        assert!((enc_busy - 40.0).abs() < 1e-9);
        assert!((enc_exposed - 30.0).abs() < 1e-9);
        assert!((comm_busy - 60.0).abs() < 1e-9);
        assert!((comm_exposed - 50.0).abs() < 1e-9);
        assert_eq!(s0.bound, "comm");

        let s1 = &steps[1];
        assert_eq!(s1.bound, "encode");
        let (busy, exposed) = s1.stages["encode"];
        assert!((busy - 30.0).abs() < 1e-9 && (exposed - 30.0).abs() < 1e-9);

        let summary = summarize(&steps);
        assert_eq!(summary.bound_counts["comm"], 1);
        assert_eq!(summary.bound_counts["encode"], 1);
        let text = render(&steps, true);
        assert!(text.contains("critical path over 2 step(s)"));
        assert!(text.contains("step      0"));

        // The run report of this headerless file is its step count and the
        // table, byte for byte what the retired per-file command printed.
        let report = Report::build(&[data], &[]);
        assert_eq!(
            report.render(false),
            "complete steps: 2\n\
             critical path over 2 step(s)\n\
             stage               busy ms     exposed ms bounds steps\n\
             comm                  0.060          0.050            1\n\
             encode                0.070          0.060            1\n\
             dominant bound: encode (1/2 steps) — hidden time is already free; shrink the exposed column\n"
        );
    }

    #[test]
    fn no_markers_falls_back_to_one_window() {
        let text = doc(&[meta(1, "stage: encode"), span(1, 0.0, 10.0)]);
        let steps = critical_path(&parse_rank_trace(&text).unwrap());
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].bound, "encode");
        // A timeline without stage spans (the hub's) has no windows.
        let hub = doc(&[meta(7, "steps"), mark(7, 5.0, 0)]);
        assert!(critical_path(&parse_rank_trace(&hub).unwrap()).is_empty());
    }

    #[test]
    fn concurrent_lanes_collapse_in_busy_time() {
        // Two overlapping encode spans (two workers): busy is the union,
        // not the sum — 0..50 ∪ 25..75 = 75, not 100.
        let text = doc(&[
            meta(1, "stage: encode"),
            span(1, 0.0, 50.0),
            span(1, 25.0, 50.0),
        ]);
        let steps = critical_path(&parse_rank_trace(&text).unwrap());
        let (busy, exposed) = steps[0].stages["encode"];
        assert!((busy - 75.0).abs() < 1e-9);
        assert!((exposed - 75.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_trace_documents() {
        assert!(parse_rank_trace("[1,2,3]").is_err());
        assert!(parse_rank_trace("{\"rows\":[]}").is_err());
    }
}
