//! Benchmark-owned spans: recorded in memory around each call into a layer,
//! reduced to per-step self times, written out as Chrome trace-event JSON
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Global training step the span belongs to; `None` outside the loop.
    pub step: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One rank's span buffer. When `on` is false `enter`/`exit` do nothing —
/// not even read the clock — so the same probe loop gives the spans-off
/// rate that `trace.overhead` compares against.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    step: Option<u32>,
    stack: Vec<SpanId>,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// All ranks of a run share `epoch` so their timelines line up.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Recorder {
            on,
            epoch,
            step: None,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_step(&mut self, step: Option<u32>) {
        self.step = step;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            step: self.step,
        });
        self.stack.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a child of the innermost open span that began where the
    /// parent began and lasted `dur_ns` — for a phase the callee timed
    /// itself (`MergeStats::decode_cpu_ns`).
    pub fn child_at_parent_start(&mut self, name: &'static str, dur_ns: u64) {
        if !self.on {
            return;
        }
        let parent = *self.stack.last().expect("child needs an open parent");
        let start_ns = self.spans[parent as usize].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            step: self.step,
        });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (children clipped to the parent, overlaps counted
/// once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per training step, the self time summed by span name, in nanoseconds:
/// `out[name][i]` is step `i`'s total. Steps are `0..n_steps`; a name that
/// did not occur in a step contributes 0 there.
pub fn per_step_self_ns(spans: &[Span], n_steps: usize) -> BTreeMap<&'static str, Vec<u64>> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if let Some(step) = s.step {
            let row = out.entry(s.name).or_insert_with(|| vec![0; n_steps]);
            row[step as usize] += self_ns;
        }
    }
    out
}

/// The value at quantile `q` (0..=1) by the nearest-rank rule on a sorted
/// copy; 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median
/// (the run-to-run spread `compare` holds against a bound); 0 below four
/// samples.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 4 || m == 0.0 {
        return 0.0;
    }
    (percentile(values, 0.75) - percentile(values, 0.25)) / m.abs()
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it, in percent; 50 when none has.
pub fn tail_percent(n: usize) -> f64 {
    // In permille, so the count beyond is exact integer arithmetic.
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|permille| (1000 - permille) * n >= 10_000)
        .map_or(50.0, |permille| permille as f64 / 10.0)
}

/// Writes every rank's spans as Chrome trace-event JSON (`ph: "X"`, one
/// `tid` per rank; `args` carry span id, parent and step).
pub fn write_chrome_trace<W: Write>(mut out: W, ranks: &[&[Span]]) -> std::io::Result<()> {
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut first = true;
    for (rank, spans) in ranks.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{rank},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            )?;
            if let Some(p) = s.parent {
                write!(out, ",\"parent\":{p}")?;
            }
            if let Some(step) = s.step {
                write!(out, ",\"step\":{step}")?;
            }
            out.write_all(b"}}")?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>, step: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            step: Some(step),
        }
    }

    /// step[0,100] ⊃ backprop[10,60] ⊃ {encode[20,30], encode[40,50]},
    /// step ⊃ comm[60,90].
    fn tree() -> Vec<Span> {
        vec![
            span("step", 0, 100, None, 0),
            span("backprop", 10, 60, Some(0), 0),
            span("encode", 20, 30, Some(1), 0),
            span("encode", 40, 50, Some(1), 0),
            span("comm", 60, 90, Some(0), 0),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_times_ns(&tree()), vec![20, 30, 10, 10, 30]);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let total: u64 = self_times_ns(&tree()).iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("p", 0, 100, None, 0),
            span("a", 10, 50, Some(0), 0),
            span("b", 40, 70, Some(0), 0),
            // Hangs over the parent's end: only [90,100] counts.
            span("c", 90, 130, Some(0), 0),
        ];
        // Covered: [10,70] ∪ [90,100] = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn per_step_sums_by_name_and_fills_missing_steps_with_zero() {
        let mut spans = tree();
        spans.push(span("step", 100, 150, None, 1));
        let rows = per_step_self_ns(&spans, 2);
        assert_eq!(rows["encode"], vec![20, 0]);
        assert_eq!(rows["step"], vec![20, 50]);
        assert_eq!(rows["comm"], vec![30, 0]);
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.set_step(Some(3));
        rec.enter("outer");
        rec.enter("inner");
        rec.child_at_parent_start("timed-by-callee", 5);
        rec.exit();
        rec.exit();
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(1));
        assert_eq!(rec.spans[2].start_ns, rec.spans[1].start_ns);
        assert_eq!(rec.spans[2].dur_ns(), 5);
        assert!(rec.spans.iter().all(|s| s.step == Some(3)));
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);

        let mut off = Recorder::new(false, Instant::now());
        off.enter("x");
        off.child_at_parent_start("y", 1);
        off.exit();
        assert!(off.spans.is_empty());
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn iqr_share_matches_hand_computation() {
        // Quartiles by nearest rank of 1..=8: q1 = 2, q3 = 6, median 4.5.
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert!((iqr_share(&v) - 4.0 / 4.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn tail_percent_keeps_ten_samples_beyond() {
        assert_eq!(tail_percent(12), 50.0);
        assert_eq!(tail_percent(40), 75.0);
        assert_eq!(tail_percent(64), 75.0);
        assert_eq!(tail_percent(100), 90.0);
        assert_eq!(tail_percent(200), 95.0);
        assert_eq!(tail_percent(1000), 99.0);
        assert_eq!(tail_percent(10_000), 99.9);
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let mut text = Vec::new();
        write_chrome_trace(&mut text, &[&tree(), &tree()]).unwrap();
        let doc = grace_telemetry::json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 10);
        assert_eq!(events[2].get("name").unwrap().as_str(), Some("encode"));
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[7].get("tid").unwrap().as_f64(), Some(1.0));
    }
}
