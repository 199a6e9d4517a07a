//! The one run report: where a run's time went, and whether compression
//! was healthy.
//!
//! [`Report::build`] distils loaded traces — one export, or every file of a
//! traced run's or a flight-recorder bundle's directory — plus their health
//! sidecar lines, and [`Report::render`] prints each section whose data is
//! present:
//!
//! 1. **Steps and convoy** — the steps every rank completed and, for each,
//!    which rank's request reached the wire last and by how much. Convoy
//!    attribution uses the **client-side** `net.roundtrip` span starts
//!    rebased onto the hub clock, not the hub's arrival stamps: the hub
//!    reads ranks in rank order, so a stalled early rank inflates the
//!    recorded arrival time of every later rank, while each client's own
//!    send timestamp is unaffected by its peers.
//! 2. **Network** — collective round-trip time *exposed* versus hidden
//!    under codec work (encode/decompress), and what frame corruption cost
//!    in NACKs and retransmitted bytes.
//! 3. **Health** — the trip (the first trigger instant fleet-wide:
//!    `recorder: anomaly trip`, `fault: drop`, `recorder: cluster error`;
//!    later ones are its consequences), the last anomaly, and how the
//!    sampled approximation error (`quality.bucket<b>.approx_error_ppm`)
//!    moved between the first and second half of the window.
//! 4. **Critical path** ([`critical`]) — over every file's own step
//!    windows, which stage's exposed time bounds each step.

use crate::critical::{
    self, merge as merge_intervals, overlap_len, total_len, StepAttribution, STAGE_PREFIX,
    STEPS_TRACK,
};
use crate::merge::{HealthEvent, RankTrace};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Per-rank wire tracks are labelled `net <rank>` (`Track::Net`).
const NET_PREFIX: &str = "net ";
/// Stage tracks counted as codec time when computing exposed network time.
const CODEC_STAGES: [&str; 2] = ["encode", "decompress"];
/// Trigger-instant names the recorder and fault layer emit.
const TRIGGER_PREFIXES: [&str; 2] = ["recorder: ", "fault: "];
/// Quality-sensor instant names: `quality.bucket<b>.approx_error_ppm`.
const QUALITY_PREFIX: &str = "quality.bucket";
const QUALITY_SUFFIX: &str = ".approx_error_ppm";

/// One step's convoy attribution across the fleet.
#[derive(Debug, Clone)]
pub struct StepConvoy {
    /// Step index.
    pub step: u64,
    /// Per-rank first `net.roundtrip` start this step, rebased (µs).
    pub arrivals_us: Vec<(usize, f64)>,
    /// The rank whose request hit the wire last.
    pub last_rank: usize,
    /// How far the last rank trailed the first, in µs.
    pub gap_us: f64,
}

/// Everything the report says about one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Rank files loaded (hub excluded; 0 for a headerless export).
    pub ranks: usize,
    /// Whether the hub's own timeline was present.
    pub has_hub: bool,
    /// Worst clock-offset estimate RTT across ranks (alignment error is
    /// bounded by half of this), in nanoseconds.
    pub worst_rtt_ns: u64,
    /// Steps every rank completed, ascending; for a headerless export, the
    /// steps it marked.
    pub complete_steps: Vec<u64>,
    /// Convoy attribution for each complete step.
    pub convoys: Vec<StepConvoy>,
    /// Union length of all ranks' `net.roundtrip` spans (µs, summed over
    /// ranks — wall-clock a rank spent inside a collective).
    pub net_busy_us: f64,
    /// Portion of `net_busy_us` not covered by codec work on the same
    /// rank: time the network alone accounts for.
    pub net_exposed_us: f64,
    /// Corrupted frames rejected fleet-wide (`net.nack` instants).
    pub nacks: u64,
    /// Bytes retransmitted verbatim after NACKs (`net.resend` args).
    pub resend_bytes: u64,
    /// Trigger instants, time-ordered: `(process label, reason, rebased µs)`.
    pub triggers: Vec<(String, String, f64)>,
    /// Sampled per-bucket approximation error, time-ordered:
    /// `(rebased µs, ppm)`.
    pub quality_ppm: Vec<(f64, f64)>,
    /// Anomaly lines from the health sidecars, step-ordered.
    pub health: Vec<HealthEvent>,
    /// Critical-path attribution of every file's step windows, file by file.
    pub critical: Vec<StepAttribution>,
}

impl Report {
    /// Distils loaded (unrebased) traces and their health sidecar lines.
    pub fn build(traces: &[RankTrace], health: &[HealthEvent]) -> Report {
        let mut report = Report {
            ranks: traces.iter().filter(|t| t.rank().is_some()).count(),
            has_hub: traces
                .iter()
                .any(|t| t.header.is_some() && t.rank().is_none()),
            health: health.to_vec(),
            ..Report::default()
        };
        // Per rank: step set, step → first roundtrip start, interval unions.
        let mut step_sets: Vec<BTreeSet<u64>> = Vec::new();
        let mut first_roundtrip: Vec<(usize, BTreeMap<u64, f64>)> = Vec::new();
        for trace in traces {
            report.critical.extend(critical::critical_path(trace));
            for ev in trace.events.iter().filter(|e| e.ph == "i") {
                let ts = trace.rebase_us(ev.ts_us);
                if TRIGGER_PREFIXES.iter().any(|p| ev.name.starts_with(p)) {
                    report.triggers.push((trace.label(), ev.name.clone(), ts));
                } else if ev.name.starts_with(QUALITY_PREFIX) && ev.name.ends_with(QUALITY_SUFFIX) {
                    if let Some(ppm) = ev.arg_num("ppm") {
                        report.quality_ppm.push((ts, ppm));
                    }
                }
            }
            let Some(rank) = trace.rank() else {
                continue;
            };
            report.worst_rtt_ns = report
                .worst_rtt_ns
                .max(trace.header.map_or(0, |h| h.clock_rtt_ns));
            let tracks = trace.track_names();
            let mut steps = BTreeSet::new();
            let mut firsts: BTreeMap<u64, f64> = BTreeMap::new();
            let mut net_spans: Vec<(f64, f64)> = Vec::new();
            let mut codec_spans: Vec<(f64, f64)> = Vec::new();
            for ev in &trace.events {
                let track = tracks.get(&ev.tid).copied().unwrap_or("");
                match ev.ph.as_str() {
                    "i" if track == STEPS_TRACK => {
                        if let Some(s) = ev.arg_num("step") {
                            steps.insert(s as u64);
                        }
                    }
                    "i" if ev.name == "net.nack" => report.nacks += 1,
                    "i" if ev.name == "net.resend" => {
                        report.resend_bytes += ev.arg_num("bytes").unwrap_or(0.0) as u64;
                    }
                    "X" if track.starts_with(NET_PREFIX) && ev.name == "net.roundtrip" => {
                        let start = trace.rebase_us(ev.ts_us);
                        net_spans.push((start, start + ev.dur_us));
                        if let Some(s) = ev.arg_num("step") {
                            let e = firsts.entry(s as u64).or_insert(start);
                            *e = e.min(start);
                        }
                    }
                    "X" => {
                        if let Some(stage) = track.strip_prefix(STAGE_PREFIX) {
                            if CODEC_STAGES.contains(&stage) {
                                let start = trace.rebase_us(ev.ts_us);
                                codec_spans.push((start, start + ev.dur_us));
                            }
                        }
                    }
                    _ => {}
                }
            }
            net_spans.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            codec_spans.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let net = merge_intervals(&net_spans);
            let codec = merge_intervals(&codec_spans);
            let busy = total_len(&net);
            report.net_busy_us += busy;
            report.net_exposed_us += (busy - overlap_len(&net, &codec)).max(0.0);
            step_sets.push(steps);
            first_roundtrip.push((rank, firsts));
        }
        // A step counts only when every rank both marked it and reached the
        // wire for it — partial steps (startup, teardown) are excluded.
        let mut complete: Option<BTreeSet<u64>> = None;
        for set in &step_sets {
            complete = Some(match complete {
                None => set.clone(),
                Some(acc) => acc.intersection(set).copied().collect(),
            });
        }
        for step in complete.unwrap_or_default() {
            let mut arrivals: Vec<(usize, f64)> = first_roundtrip
                .iter()
                .filter_map(|(rank, firsts)| firsts.get(&step).map(|ts| (*rank, *ts)))
                .collect();
            if arrivals.len() < report.ranks {
                continue;
            }
            arrivals.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            let (first_ts, last) = (arrivals[0].1, arrivals[arrivals.len() - 1]);
            report.complete_steps.push(step);
            report.convoys.push(StepConvoy {
                step,
                last_rank: last.0,
                gap_us: last.1 - first_ts,
                arrivals_us: arrivals,
            });
        }
        if report.ranks == 0 {
            // One process on its own clock has no fleet to wait for.
            report.complete_steps = traces
                .iter()
                .flat_map(|t| t.step_marks().into_keys())
                .collect();
        }
        report
            .triggers
            .sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
        report
            .quality_ppm
            .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        report
    }

    /// Renders each section whose data is present; `per_step` adds one line
    /// per step to the convoy and critical-path sections.
    pub fn render(&self, per_step: bool) -> String {
        let mut out = String::new();
        if self.ranks > 0 {
            let _ = writeln!(
                out,
                "merged {} rank timeline(s){} onto the hub clock (alignment error ≤ {:.1} µs)",
                self.ranks,
                if self.has_hub { " + hub" } else { "" },
                self.worst_rtt_ns as f64 / 2_000.0
            );
        }
        let _ = writeln!(out, "complete steps: {}", self.complete_steps.len());
        if self.ranks > 0 {
            self.render_fleet(&mut out, per_step);
        }
        // The first trigger instant is the root event — everything later
        // (peer timeouts, cascade dumps) is consequence.
        if let Some((label, reason, ts_us)) = self.triggers.first() {
            let _ = write!(
                out,
                "trip: \"{reason}\" on {label} at {:.3} ms",
                ts_us / 1e3
            );
            if self.triggers.len() > 1 {
                let _ = write!(out, " ({} follow-up trigger(s))", self.triggers.len() - 1);
            }
            out.push('\n');
        }
        if let Some(h) = self.health.last() {
            let _ = writeln!(
                out,
                "last anomaly: {} at step {} on {} (value {:.4}, threshold {:.4}; {} total)",
                h.kind,
                h.step,
                h.rank.map_or("hub".to_string(), |k| format!("rank {k}")),
                h.value,
                h.threshold,
                self.health.len()
            );
        }
        // Quality trend: first vs second half of the window (neither empty).
        if self.quality_ppm.len() >= 2 {
            let mean = |xs: &[(f64, f64)]| xs.iter().map(|(_, v)| v).sum::<f64>() / xs.len() as f64;
            let mid = self.quality_ppm.len() / 2;
            let (early, late) = (
                mean(&self.quality_ppm[..mid]),
                mean(&self.quality_ppm[mid..]),
            );
            let trend = if late > early * 1.1 {
                "rising"
            } else if late < early * 0.9 {
                "falling"
            } else {
                "steady"
            };
            let _ = writeln!(
                out,
                "quality: approx error {early:.0} → {late:.0} ppm ({trend}, {} sample(s))",
                self.quality_ppm.len()
            );
        }
        if !self.critical.is_empty() {
            out.push_str(&critical::render(&self.critical, per_step));
        }
        out
    }

    /// The cross-rank lines: convoy, network, retransmits.
    fn render_fleet(&self, out: &mut String, per_step: bool) {
        if !self.convoys.is_empty() {
            let mut last_counts: BTreeMap<usize, usize> = BTreeMap::new();
            let mut gap_sum = 0.0;
            for convoy in &self.convoys {
                *last_counts.entry(convoy.last_rank).or_insert(0) += 1;
                gap_sum += convoy.gap_us;
            }
            let (worst_rank, n) = last_counts
                .iter()
                .max_by_key(|(_, n)| **n)
                .map(|(r, n)| (*r, *n))
                .unwrap_or((0, 0));
            let _ = writeln!(
                out,
                "convoy: rank {worst_rank} arrived last in {n}/{} steps; mean last-arrival gap {:.3} ms",
                self.convoys.len(),
                gap_sum / self.convoys.len() as f64 / 1e3
            );
        }
        let hidden = (self.net_busy_us - self.net_exposed_us).max(0.0);
        let _ = writeln!(
            out,
            "network: busy {:.3} ms, exposed {:.3} ms, hidden under codec {:.3} ms",
            self.net_busy_us / 1e3,
            self.net_exposed_us / 1e3,
            hidden / 1e3
        );
        let _ = writeln!(
            out,
            "retransmits: {} NACK(s), {} byte(s) resent",
            self.nacks, self.resend_bytes
        );
        if per_step {
            for convoy in &self.convoys {
                let _ = writeln!(
                    out,
                    "step {:>6}: last arrival rank {} (+{:.3} ms behind rank {})",
                    convoy.step,
                    convoy.last_rank,
                    convoy.gap_us / 1e3,
                    convoy.arrivals_us.first().map(|(r, _)| *r).unwrap_or(0)
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::parse_rank_trace;
    use crate::merge::tests::{mark, meta, rank_doc, roundtrip, two_rank_traces};

    #[test]
    fn convoy_uses_rebased_client_send_times() {
        let report = Report::build(&two_rank_traces(), &[]);
        assert_eq!(report.ranks, 2);
        assert_eq!(report.complete_steps, vec![0]);
        let convoy = &report.convoys[0];
        // Raw timestamps say rank 1 sent first; the clock offset says
        // otherwise. Rebasing must win.
        assert_eq!(convoy.last_rank, 1);
        assert!(
            (convoy.gap_us - 4090.0).abs() < 1e-6,
            "gap {}",
            convoy.gap_us
        );
        assert_eq!(report.worst_rtt_ns, 1000);
    }

    #[test]
    fn incomplete_steps_are_excluded() {
        // Rank 1 never marked step 1: only step 0 is complete.
        let r0 = rank_doc(
            0,
            0,
            &[
                meta(4096, "net 0"),
                meta(7, "steps"),
                roundtrip(4096, 100.0, 10.0, 0),
                mark(7, 200.0, 0),
                roundtrip(4096, 300.0, 10.0, 1),
                mark(7, 400.0, 1),
            ],
        );
        let r1 = rank_doc(
            1,
            0,
            &[
                meta(4097, "net 1"),
                meta(7, "steps"),
                roundtrip(4097, 110.0, 10.0, 0),
                mark(7, 210.0, 0),
            ],
        );
        let report = Report::build(
            &[
                parse_rank_trace(&r0).unwrap(),
                parse_rank_trace(&r1).unwrap(),
            ],
            &[],
        );
        assert_eq!(report.complete_steps, vec![0]);
        let text = report.render(true);
        assert!(text.contains("complete steps: 1"));
        assert!(text.contains("step      0"));
    }

    #[test]
    fn exposed_network_excludes_codec_overlap() {
        // net busy [0,100); encode covers [60,100): exposed = 60.
        let r0 = rank_doc(
            0,
            0,
            &[
                meta(4096, "net 0"),
                meta(1, "stage: encode"),
                meta(7, "steps"),
                roundtrip(4096, 0.0, 100.0, 0),
                r#"{"ph":"X","pid":1,"tid":1,"name":"s","ts":60.0,"dur":40.0}"#.to_string(),
                mark(7, 120.0, 0),
            ],
        );
        let report = Report::build(&[parse_rank_trace(&r0).unwrap()], &[]);
        assert!((report.net_busy_us - 100.0).abs() < 1e-9);
        assert!((report.net_exposed_us - 60.0).abs() < 1e-9);
    }

    #[test]
    fn retransmit_cost_is_tallied() {
        let nack = "{\"ph\":\"i\",\"pid\":1,\"tid\":4096,\"name\":\"net.nack\",\"ts\":5.0,\"s\":\"t\",\"args\":{\"bytes\":64}}";
        let resend = "{\"ph\":\"i\",\"pid\":1,\"tid\":4096,\"name\":\"net.resend\",\"ts\":6.0,\"s\":\"t\",\"args\":{\"bytes\":128}}";
        let r0 = rank_doc(
            0,
            0,
            &[meta(4096, "net 0"), nack.to_string(), resend.to_string()],
        );
        let report = Report::build(&[parse_rank_trace(&r0).unwrap()], &[]);
        assert_eq!(report.nacks, 1);
        assert_eq!(report.resend_bytes, 128);
    }

    #[test]
    fn trip_and_quality_trend_are_extracted() {
        let r0 = rank_doc(
            0,
            0,
            &[
                "{\"ph\":\"i\",\"tid\":5,\"name\":\"recorder: anomaly trip\",\"ts\":900.0,\"s\":\"t\"}".into(),
                "{\"ph\":\"i\",\"tid\":6,\"name\":\"quality.bucket0.approx_error_ppm\",\"ts\":100.0,\"s\":\"t\",\"args\":{\"bucket\":0,\"ppm\":1000}}".into(),
                "{\"ph\":\"i\",\"tid\":6,\"name\":\"quality.bucket0.approx_error_ppm\",\"ts\":800.0,\"s\":\"t\",\"args\":{\"bucket\":0,\"ppm\":4000}}".into(),
            ],
        );
        let health = vec![HealthEvent {
            rank: Some(0),
            step: 7,
            kind: "grad_spike".into(),
            value: 12.0,
            threshold: 4.0,
        }];
        let report = Report::build(&[parse_rank_trace(&r0).unwrap()], &health);
        assert_eq!(report.triggers.len(), 1);
        assert_eq!(report.triggers[0].1, "recorder: anomaly trip");
        assert_eq!(report.quality_ppm.len(), 2);
        let text = report.render(false);
        assert!(text.contains("trip: \"recorder: anomaly trip\" on rank 0"));
        assert!(text.contains("grad_spike at step 7"));
        assert!(text.contains("rising"));
    }

    /// A section without data is not printed: a bundle dumped on demand
    /// has no trip, no anomaly and no quality samples to report.
    #[test]
    fn sections_without_data_are_left_out() {
        let report = Report::build(&[parse_rank_trace(&rank_doc(0, 0, &[])).unwrap()], &[]);
        let text = report.render(true);
        for absent in ["trip:", "anomaly", "quality:", "convoy:", "critical path"] {
            assert!(!text.contains(absent), "{absent:?} in {text}");
        }
        assert!(text.contains("complete steps: 0"));
    }
}
