//! Every metric the benchmark emits, declared once: name, unit, direction
//! and — for end-to-end metrics — the bound by which it may worsen before a
//! change counts as a regression. `BENCHMARK.json` lists the same names;
//! the schema tests hold the two together in both directions.

use crate::probe::RankProbe;
use crate::spans::{self, median, percentile};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's value by which the metric may get worse.
    pub bound: f64,
    /// A count that must repeat exactly between two runs of the same code
    /// and seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The same six names on every workload.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("steps_per_s", "1/s", Higher, 0.25, false),
    e2e("time_to_target_s", "s", Lower, 0.25, false),
    e2e("wire_bytes_per_step", "B", Lower, 0.005, true),
    e2e("final_quality", "accuracy", Higher, 0.02, true),
    e2e("peak_rss_mb", "MB", Lower, 0.10, false),
];

/// In `compare`, `setup_s` may also worsen by this much absolutely: at tens
/// of milliseconds a share alone would flag scheduler noise.
pub const SETUP_ABS_FLOOR_S: f64 = 0.010;

/// Rank 0, per step unless the name says otherwise; times are medians over
/// the traced steps, `*_tail_us` the percentile `step.tail_pct` names.
pub const PER_LAYER: [MetricDef; 34] = [
    layer("nn.batch_us", "us", Lower),
    layer("nn.backprop_us", "us", Lower),
    layer("nn.backprop_tail_us", "us", Lower),
    layer("nn.optimizer_us", "us", Lower),
    layer("nn.eval_ms", "ms", Lower),
    layer("exchange.encode_us", "us", Lower),
    layer("exchange.encode_tail_us", "us", Lower),
    count("exchange.encode_calls", "count", Lower),
    layer("exchange.decode_us", "us", Lower),
    count("exchange.ratio", "ratio", Higher),
    layer("payload.frame_us", "us", Lower),
    layer("payload.parse_us", "us", Lower),
    count("payload.frame_bytes", "B", Lower),
    layer("aggregation.merge_us", "us", Lower),
    layer("comm.collective_us", "us", Lower),
    layer("comm.collective_tail_us", "us", Lower),
    count("comm.collective_calls", "count", Lower),
    count("comm.payload_bytes", "B", Lower),
    count("comm.wire_bytes", "B", Lower),
    layer("comm.retries", "count", Lower),
    layer("comm.replay_us", "us", Lower),
    layer("comm.wait_us", "us", Lower),
    layer("comm.goodput_MBps", "MB/s", Higher),
    layer("comm.rendezvous_ms", "ms", Lower),
    layer("comm.model_over_measured", "ratio", Higher),
    layer("step.wall_us", "us", Lower),
    layer("step.wall_tail_us", "us", Lower),
    layer("step.tail_pct", "%", Higher),
    layer("step.other_us", "us", Lower),
    layer("trace.closure", "ratio", Higher),
    layer("trace.overhead", "ratio", Higher),
    layer("trace.fidelity", "ratio", Higher),
    layer("trace.crc_match", "count", Higher),
    count("quality.steps_to_target", "count", Lower),
];

/// The two metric lists under the keys `BENCHMARK.json` and the suite
/// report file them under.
pub const SECTIONS: [(&str, &[MetricDef]); 2] =
    [("end_to_end", &END_TO_END), ("per_layer", &PER_LAYER)];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Name → value, in name order.
pub type Values = BTreeMap<&'static str, f64>;

/// What the untraced run measured.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// Steps per second of each timed job that passed its check.
    pub job_rates: Vec<f64>,
    /// Peak resident set reached during each timed job, MB.
    pub job_peaks_mb: Vec<f64>,
    pub steps_to_target: Option<u64>,
    pub wire_bytes_per_step: f64,
    pub final_quality: f64,
}

impl EndToEnd {
    pub fn values(&self) -> Values {
        let rate = median(&self.job_rates);
        let time_to_target = match self.steps_to_target {
            Some(steps) if rate > 0.0 => steps as f64 / rate,
            _ => f64::NAN,
        };
        Values::from([
            ("setup_s", median(&self.setup_s)),
            ("steps_per_s", rate),
            ("time_to_target_s", time_to_target),
            ("wire_bytes_per_step", self.wire_bytes_per_step),
            ("final_quality", self.final_quality),
            ("peak_rss_mb", median(&self.job_peaks_mb)),
        ])
    }

    /// Sample count and quartile spread behind each timed metric, for the
    /// report (`compare` calls a metric unresolved when the baseline's own
    /// spread exceeds its bound).
    pub fn samples(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let rates = (self.job_rates.len(), spans::iqr_share(&self.job_rates));
        BTreeMap::from([
            (
                "setup_s",
                (self.setup_s.len(), spans::iqr_share(&self.setup_s)),
            ),
            ("steps_per_s", rates),
            ("time_to_target_s", rates),
            (
                "peak_rss_mb",
                (
                    self.job_peaks_mb.len(),
                    spans::iqr_share(&self.job_peaks_mb),
                ),
            ),
        ])
    }
}

/// What the traced run measured, beyond the spans themselves.
pub struct Traced<'a> {
    /// Rank 0 of the spans-on probe.
    pub probe: &'a RankProbe,
    /// Steps per second of the probe loop with spans on / off, and of the
    /// program's jobs.
    pub rate_on: f64,
    pub rate_off: f64,
    pub rate_program: f64,
    pub crc_match: bool,
    pub steps_to_target: Option<u64>,
}

impl Traced<'_> {
    pub fn values(&self) -> Values {
        let p = self.probe;
        let steps = p.totals.steps as usize;
        let rows = spans::per_step_self_ns(&p.spans, steps);
        let us = |name: &str| -> Vec<f64> {
            rows.get(name)
                .map(|r| r.iter().map(|&ns| ns as f64 / 1e3).collect())
                .unwrap_or_else(|| vec![0.0; steps])
        };
        let wall_us: Vec<f64> = p
            .spans
            .iter()
            .filter(|s| s.name == "step")
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        let other_us = us("step");
        let tail_pct = spans::tail_percent(steps);
        // With too few steps for a tail the "tail" is the median itself.
        let tail = |v: &[f64]| {
            if tail_pct == 50.0 {
                median(v)
            } else {
                percentile(v, tail_pct / 100.0)
            }
        };
        let per_step = |total: u64| total as f64 / p.totals.steps.max(1) as f64;
        let eval_ms = p
            .spans
            .iter()
            .find(|s| s.name == "nn.eval")
            .map_or(0.0, |s| s.dur_ns() as f64 / 1e6);

        let collective_us = us("comm.collective");
        let replay_us = median(&p.replay_s) * 1e6;
        let payload_bytes = per_step(p.totals.payload_bytes);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let wall_total: f64 = wall_us.iter().sum();
        let other_total: f64 = other_us.iter().sum();

        Values::from([
            ("nn.batch_us", median(&us("nn.batch"))),
            ("nn.backprop_us", median(&us("nn.backprop"))),
            ("nn.backprop_tail_us", tail(&us("nn.backprop"))),
            ("nn.optimizer_us", median(&us("nn.optimizer"))),
            ("nn.eval_ms", eval_ms),
            ("exchange.encode_us", median(&us("exchange.encode"))),
            ("exchange.encode_tail_us", tail(&us("exchange.encode"))),
            ("exchange.encode_calls", per_step(p.totals.encode_calls)),
            ("exchange.decode_us", median(&us("exchange.decode"))),
            (
                "exchange.ratio",
                ratio(p.totals.dense_bytes as f64, p.totals.encoded_bytes as f64),
            ),
            ("payload.frame_us", median(&us("payload.frame"))),
            ("payload.parse_us", median(&us("payload.parse"))),
            ("payload.frame_bytes", per_step(p.totals.frame_bytes)),
            ("aggregation.merge_us", median(&us("aggregation.merge"))),
            ("comm.collective_us", median(&collective_us)),
            ("comm.collective_tail_us", tail(&collective_us)),
            ("comm.collective_calls", per_step(p.totals.collective_calls)),
            ("comm.payload_bytes", payload_bytes),
            ("comm.wire_bytes", per_step(p.totals.wire_bytes)),
            ("comm.retries", per_step(p.totals.retries)),
            ("comm.replay_us", replay_us),
            (
                "comm.wait_us",
                (median(&collective_us) - replay_us).max(0.0),
            ),
            ("comm.goodput_MBps", ratio(payload_bytes, replay_us)),
            ("comm.rendezvous_ms", p.rendezvous_s * 1e3),
            (
                "comm.model_over_measured",
                ratio(p.model_s * 1e6, replay_us),
            ),
            ("step.wall_us", median(&wall_us)),
            ("step.wall_tail_us", tail(&wall_us)),
            ("step.tail_pct", tail_pct),
            ("step.other_us", median(&other_us)),
            ("trace.closure", 1.0 - ratio(other_total, wall_total)),
            ("trace.overhead", ratio(self.rate_on, self.rate_off)),
            ("trace.fidelity", ratio(self.rate_off, self.rate_program)),
            ("trace.crc_match", f64::from(u8::from(self.crc_match))),
            (
                "quality.steps_to_target",
                self.steps_to_target.map_or(0.0, |s| s as f64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Totals;
    use crate::spans::Span;
    use grace_telemetry::json;

    fn benchmark_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(doc: &json::Value, section: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(section)
            .and_then(json::Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} list"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(json::Value::as_str).unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(json::Value::as_f64),
                )
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.chars().next().unwrap().is_ascii_alphanumeric()
    }

    fn sample_probe() -> RankProbe {
        let span = |name, start_ns, end_ns, parent, step| Span {
            name,
            start_ns,
            end_ns,
            parent,
            step,
        };
        RankProbe {
            spans: vec![
                span("step", 0, 100_000, None, Some(0)),
                span("nn.backprop", 0, 60_000, Some(0), Some(0)),
                span("exchange.encode", 10_000, 30_000, Some(1), Some(0)),
                span("comm.collective", 60_000, 95_000, Some(0), Some(0)),
                span("nn.eval", 100_000, 2_100_000, None, None),
            ],
            checksum: 1,
            quality: 0.5,
            rendezvous_s: 0.002,
            done_s: 1.0,
            totals: Totals {
                steps: 1,
                encode_calls: 14,
                encoded_bytes: 500,
                dense_bytes: 1000,
                frame_bytes: 520,
                collective_calls: 14,
                payload_bytes: 1000,
                wire_bytes: 1100,
                retries: 0,
            },
            replay_s: vec![20e-6, 30e-6, 40e-6],
            model_s: 15e-6,
        }
    }

    fn sample_traced(probe: &RankProbe) -> Traced<'_> {
        Traced {
            probe,
            rate_on: 9.8,
            rate_off: 10.0,
            rate_program: 10.1,
            crc_match: true,
            steps_to_target: Some(40),
        }
    }

    fn sample_e2e() -> EndToEnd {
        EndToEnd {
            setup_s: vec![0.1, 0.2, 0.3],
            job_rates: vec![9.0, 10.0, 11.0, 12.0, 10.0],
            job_peaks_mb: vec![100.0, 101.0, 99.0],
            steps_to_target: Some(40),
            wire_bytes_per_step: 1000.0,
            final_quality: 0.6,
        }
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let workloads = crate::workloads::WORKLOADS.iter().map(|w| w.name);
        for name in workloads.chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name)) {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(ok));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let doc = benchmark_json();
        let probe = sample_probe();
        for (section, defs, emitted) in [
            ("end_to_end", &END_TO_END[..], sample_e2e().values()),
            ("per_layer", &PER_LAYER[..], sample_traced(&probe).values()),
        ] {
            let declared = declared(&doc, section);
            // Declared ⊆ emitted and emitted ⊆ declared, with equal units,
            // directions and bounds.
            let declared_names: Vec<&str> = declared.iter().map(|d| d.0.as_str()).collect();
            let emitted_names: Vec<&str> = emitted.keys().copied().collect();
            for name in &declared_names {
                assert!(emitted_names.contains(name), "{name} declared, not emitted");
            }
            for name in &emitted_names {
                assert!(
                    declared_names.contains(name),
                    "{name} emitted, not declared"
                );
            }
            assert_eq!(declared.len(), defs.len(), "{section} count");
            for (name, unit, better, bound) in &declared {
                let def = defs
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{name} is not in metrics.rs"));
                assert_eq!(def.unit, unit, "{name} unit");
                let direction = match def.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                assert_eq!(direction, better, "{name} direction");
                if section == "end_to_end" {
                    assert_eq!(Some(def.bound), *bound, "{name} bound");
                    assert!(def.bound > 0.0 && def.bound <= 0.25);
                } else {
                    assert_eq!(*bound, None, "{name} has no bound");
                }
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_workloads() {
        let doc = benchmark_json();
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(json::Value::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert_eq!(
            doc.get("run_seconds").and_then(json::Value::as_f64),
            Some(crate::RUN_SECONDS as f64)
        );
    }

    #[test]
    fn layer_values_follow_from_the_spans() {
        let probe = sample_probe();
        let v = sample_traced(&probe).values();
        assert_eq!(v["step.wall_us"], 100.0);
        assert_eq!(v["nn.backprop_us"], 40.0);
        assert_eq!(v["exchange.encode_us"], 20.0);
        assert_eq!(v["comm.collective_us"], 35.0);
        assert_eq!(v["step.other_us"], 5.0);
        assert!((v["trace.closure"] - 0.95).abs() < 1e-12);
        assert_eq!(v["nn.eval_ms"], 2.0);
        assert_eq!(v["exchange.ratio"], 2.0);
        assert_eq!(v["comm.collective_calls"], 14.0);
        assert_eq!(v["comm.replay_us"], 30.0);
        assert_eq!(v["comm.wait_us"], 5.0);
        assert!((v["comm.model_over_measured"] - 0.5).abs() < 1e-12);
        assert!((v["comm.goodput_MBps"] - 1000.0 / 30.0).abs() < 1e-9);
        assert_eq!(v["comm.rendezvous_ms"], 2.0);
        assert!((v["trace.overhead"] - 0.98).abs() < 1e-12);
        assert_eq!(v["trace.crc_match"], 1.0);
        assert_eq!(v["quality.steps_to_target"], 40.0);
        assert_eq!(v["step.tail_pct"], 50.0);
    }

    #[test]
    fn end_to_end_values_are_medians_and_time_to_target_divides() {
        let e = sample_e2e();
        let v = e.values();
        assert_eq!(v["setup_s"], 0.2);
        assert_eq!(v["steps_per_s"], 10.0);
        assert_eq!(v["time_to_target_s"], 4.0);
        let mut missed = sample_e2e();
        missed.steps_to_target = None;
        assert!(missed.values()["time_to_target_s"].is_nan());
        assert_eq!(e.samples()["steps_per_s"].0, 5);
    }
}
