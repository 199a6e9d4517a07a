//! Run-health monitoring: per-step anomaly detection with hysteresis.
//!
//! Training failures rarely announce themselves — a diverging run shows up
//! as a gradient-norm spike, a broken error-feedback loop as unbounded
//! residual growth, a mis-tuned fusion threshold as an `overlap_ratio`
//! collapse, a slow worker as barrier-wait skew. The [`HealthMonitor`]
//! watches exactly these signals, fed once per optimisation step from the
//! exchange report and trainer state, and raises structured
//! [`AnomalyEvent`]s when a signal breaches its EWMA-relative threshold for
//! several consecutive steps.
//!
//! Detection is **hysteretic**: a signal must breach for
//! [`HealthConfig::trip_steps`] consecutive steps to fire (one event per
//! excursion, not one per step) and must then stay clean for
//! [`HealthConfig::clear_steps`] steps to re-arm. Every fired event is
//! mirrored three ways — a `health.*` counter bump in the metrics registry
//! (scrapeable via `telemetry::serve`), an instant marker on the fault
//! track of the trace timeline, and one JSON line appended to the health
//! log (default `results/telemetry/health.jsonl`).
//!
//! The monitor itself is allocation-free at steady state: all metric
//! handles are resolved at construction, EWMA state lives inline, and the
//! log file is only opened (and lines only formatted) when an anomaly
//! actually fires.

use crate::exchange::ExchangeReport;
use grace_telemetry::metrics::{self, Counter, Gauge};
use grace_telemetry::{recorder, trace, Stage, Track};
use std::io::Write as _;
use std::path::PathBuf;

/// Thresholds and hysteresis windows for the [`HealthMonitor`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// EWMA smoothing factor in `(0, 1]` (higher adapts faster).
    pub ewma_alpha: f64,
    /// Steps per signal that only build the baseline EWMA and can never
    /// breach — training start is legitimately turbulent.
    pub warmup_steps: u64,
    /// Gradient-norm spike: breach when `norm > factor · ewma`.
    pub grad_spike_factor: f64,
    /// Error-feedback residual growth: breach when `norm > factor · ewma`.
    pub residual_growth_factor: f64,
    /// Compression-ratio drift: breach when `|ratio − ewma| > frac · ewma`.
    pub ratio_drift_frac: f64,
    /// Overlap collapse: breach when `overlap < frac · ewma` while the
    /// baseline shows the pipeline actually overlapping (`ewma > 0.05`).
    pub overlap_collapse_frac: f64,
    /// Straggler skew: breach when the per-step skew exceeds
    /// `factor · ewma` **and** the absolute floor below.
    pub straggler_skew_factor: f64,
    /// Absolute straggler floor in seconds — scheduling noise on a busy
    /// host produces microsecond-scale skew that must never alert.
    pub straggler_floor_seconds: f64,
    /// Consecutive breaching steps required to fire an event.
    pub trip_steps: u32,
    /// Consecutive clean steps required to re-arm after firing.
    pub clear_steps: u32,
    /// Where fired events are appended as JSONL; `None` disables the log.
    pub log_path: Option<PathBuf>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            ewma_alpha: 0.2,
            warmup_steps: 8,
            grad_spike_factor: 8.0,
            residual_growth_factor: 8.0,
            ratio_drift_frac: 0.6,
            overlap_collapse_frac: 0.5,
            straggler_skew_factor: 4.0,
            straggler_floor_seconds: 2e-3,
            trip_steps: 3,
            clear_steps: 5,
            log_path: Some(PathBuf::from("results/telemetry/health.jsonl")),
        }
    }
}

impl HealthConfig {
    /// The default configuration with the JSONL log redirected (tests point
    /// it at a temp file; `None` disables it).
    pub fn with_log(mut self, path: Option<PathBuf>) -> Self {
        self.log_path = path;
        self
    }

    fn validate(&self) {
        assert!(
            self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
            "ewma_alpha must be in (0, 1]"
        );
        assert!(self.trip_steps >= 1, "trip_steps must be at least 1");
        assert!(self.clear_steps >= 1, "clear_steps must be at least 1");
    }
}

/// What went wrong. Labels are stable identifiers used for metric names,
/// trace markers and the JSONL log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// Gradient norm spiked far above its moving average (diverging run).
    GradNormSpike,
    /// Gradient norm went NaN/Inf (numerically dead run).
    GradNormNonFinite,
    /// Error-feedback residual norm is growing without bound (the
    /// compensation loop is not converging).
    ResidualGrowth,
    /// Compression ratio drifted far off its baseline (payload sizes
    /// changed regime mid-run).
    RatioDrift,
    /// Pipelined-exchange overlap collapsed (encode no longer hides under
    /// backprop).
    OverlapCollapse,
    /// One worker is consistently slower than its peers.
    StragglerSkew,
}

/// Number of distinct [`AnomalyKind`]s / monitored signals.
const N_SIGNALS: usize = 6;

impl AnomalyKind {
    /// All kinds, indexable by [`Self::index`].
    pub const ALL: [AnomalyKind; N_SIGNALS] = [
        AnomalyKind::GradNormSpike,
        AnomalyKind::GradNormNonFinite,
        AnomalyKind::ResidualGrowth,
        AnomalyKind::RatioDrift,
        AnomalyKind::OverlapCollapse,
        AnomalyKind::StragglerSkew,
    ];

    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            AnomalyKind::GradNormSpike => "grad_norm_spike",
            AnomalyKind::GradNormNonFinite => "grad_norm_non_finite",
            AnomalyKind::ResidualGrowth => "residual_growth",
            AnomalyKind::RatioDrift => "ratio_drift",
            AnomalyKind::OverlapCollapse => "overlap_collapse",
            AnomalyKind::StragglerSkew => "straggler_skew",
        }
    }

    fn index(self) -> usize {
        match self {
            AnomalyKind::GradNormSpike => 0,
            AnomalyKind::GradNormNonFinite => 1,
            AnomalyKind::ResidualGrowth => 2,
            AnomalyKind::RatioDrift => 3,
            AnomalyKind::OverlapCollapse => 4,
            AnomalyKind::StragglerSkew => 5,
        }
    }
}

/// One fired anomaly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyEvent {
    /// Global step at which the excursion tripped.
    pub step: u64,
    /// Which signal fired.
    pub kind: AnomalyKind,
    /// The observed value at trip time.
    pub value: f64,
    /// The threshold it breached.
    pub threshold: f64,
    /// The rank whose monitor fired (0 for single-process runs) — without
    /// it, collected multi-rank fleet logs are unattributable.
    pub rank: usize,
}

/// One step's worth of health signals. Optional fields are skipped (their
/// hysteresis state neither breaches nor clears) — lossless fleets have no
/// residual, a single-lane report has no lane skew.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepObservation {
    /// L2 norm of the aggregated gradient applied this step.
    pub grad_norm: f64,
    /// Mean stored-residual norm across error-feedback memories.
    pub residual_norm: Option<f64>,
    /// Volume compression ratio this step (uncompressed / compressed).
    pub compression_ratio: Option<f64>,
    /// The step's pipelined-exchange overlap ratio.
    pub overlap_ratio: Option<f64>,
    /// Per-worker skew this step, in seconds: slowest-vs-fastest encode
    /// lane (simulated mode), wire-arrival or barrier-wait spread (real
    /// backends).
    pub straggler_skew_seconds: Option<f64>,
}

impl StepObservation {
    /// Builds the observation every backend starts from out of one step's
    /// [`ExchangeReport`]: compression ratio from payload bytes, overlap
    /// from the report, straggler skew from the spread of per-lane encode
    /// seconds (real backends override it with the transport's view).
    pub fn from_report(
        report: &ExchangeReport,
        uncompressed_bytes: f64,
        grad_norm: f64,
        residual_norm: Option<f64>,
    ) -> Self {
        let workers = report.payload_bytes.len().max(1);
        let mean_payload = report.total_payload_bytes() as f64 / workers as f64;
        let compression_ratio = if mean_payload > 0.0 {
            Some(uncompressed_bytes / mean_payload)
        } else {
            None
        };
        let skew = if report.compress_seconds.len() > 1 {
            let max = report
                .compress_seconds
                .iter()
                .fold(0.0f64, |a, &b| a.max(b));
            let min = report
                .compress_seconds
                .iter()
                .fold(f64::INFINITY, |a, &b| a.min(b));
            Some((max - min).max(0.0))
        } else {
            None
        };
        StepObservation {
            grad_norm,
            residual_norm,
            compression_ratio,
            overlap_ratio: Some(report.overlap_ratio()),
            straggler_skew_seconds: skew,
        }
    }
}

/// Per-signal EWMA + hysteresis state.
#[derive(Debug, Clone, Copy, Default)]
struct SignalState {
    ewma: f64,
    /// Observations folded into the EWMA so far (drives warmup).
    seen: u64,
    breaches: u32,
    clears: u32,
    latched: bool,
}

impl SignalState {
    /// Folds a clean observation into the baseline.
    fn learn(&mut self, alpha: f64, value: f64) {
        if self.seen == 0 {
            self.ewma = value;
        } else {
            self.ewma += alpha * (value - self.ewma);
        }
        self.seen += 1;
    }
}

/// How many latched signals a monitor reports via the `health.tripped`
/// gauge (and the serve endpoint's `/health` status).
///
/// See the [module docs](self) for the full signal catalogue.
pub struct HealthMonitor {
    cfg: HealthConfig,
    signals: [SignalState; N_SIGNALS],
    events: Vec<AnomalyEvent>,
    step: u64,
    // Pre-resolved registry handles (recording is level-gated internally).
    anomalies_total: Counter,
    kind_counters: [Counter; N_SIGNALS],
    g_grad_norm: Gauge,
    g_grad_norm_ewma: Gauge,
    g_residual_norm: Gauge,
    g_compression_ratio: Gauge,
    g_overlap_ratio: Gauge,
    g_straggler_skew: Gauge,
    g_tripped: Gauge,
    log: Option<std::fs::File>,
    /// Identity stamped onto every fired event and JSONL line.
    rank: usize,
    run_tag: String,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("step", &self.step)
            .field("events", &self.events.len())
            .field("tripped", &self.tripped())
            .finish()
    }
}

/// Retained-event cap: enough for any sane run; an anomaly storm stops
/// growing the vector instead of reallocating forever.
const MAX_EVENTS: usize = 256;

impl HealthMonitor {
    /// Creates a monitor, resolving all metric handles up front.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`HealthConfig`].
    pub fn new(cfg: HealthConfig) -> Self {
        cfg.validate();
        HealthMonitor {
            cfg,
            signals: [SignalState::default(); N_SIGNALS],
            events: Vec::with_capacity(MAX_EVENTS.min(64)),
            step: 0,
            anomalies_total: metrics::counter("health.anomalies_total"),
            kind_counters: std::array::from_fn(|i| {
                metrics::counter(&format!("health.anomalies.{}", AnomalyKind::ALL[i].label()))
            }),
            g_grad_norm: metrics::gauge("health.grad_norm"),
            g_grad_norm_ewma: metrics::gauge("health.grad_norm_ewma"),
            g_residual_norm: metrics::gauge("health.residual_norm"),
            g_compression_ratio: metrics::gauge("health.compression_ratio"),
            g_overlap_ratio: metrics::gauge("health.overlap_ratio"),
            g_straggler_skew: metrics::gauge("health.straggler_skew_seconds"),
            g_tripped: metrics::gauge("health.tripped"),
            log: None,
            rank: 0,
            run_tag: String::new(),
        }
    }

    /// Stamps the monitor with the rank it runs on and the run tag, so
    /// fired events and `health.jsonl` lines stay attributable after
    /// multi-rank collection. Defaults to rank 0 with an empty tag.
    pub fn with_identity(mut self, rank: usize, run_tag: &str) -> Self {
        self.rank = rank;
        self.run_tag = run_tag.to_string();
        self
    }

    /// Events fired so far, in trip order (capped at an internal maximum).
    pub fn events(&self) -> &[AnomalyEvent] {
        &self.events
    }

    /// Total anomalies fired.
    pub fn anomaly_count(&self) -> u64 {
        self.events.len() as u64
    }

    /// Signals currently latched in the breached state.
    pub fn tripped(&self) -> usize {
        self.signals.iter().filter(|s| s.latched).count()
    }

    /// Feeds one step's signals. Call exactly once per optimisation step.
    pub fn observe_step(&mut self, step: u64, obs: &StepObservation) {
        self.step = step;
        self.g_grad_norm.set(obs.grad_norm);

        // Gradient norm: non-finite is its own signal (and must not poison
        // the EWMA); finite values check the spike factor.
        if obs.grad_norm.is_finite() {
            self.clear_signal(AnomalyKind::GradNormNonFinite);
            let factor = self.cfg.grad_spike_factor;
            self.drive_high_signal(AnomalyKind::GradNormSpike, obs.grad_norm, factor);
        } else {
            self.breach_signal(AnomalyKind::GradNormNonFinite, obs.grad_norm, 0.0);
        }
        self.g_grad_norm_ewma
            .set(self.signals[AnomalyKind::GradNormSpike.index()].ewma);

        if let Some(residual) = obs.residual_norm {
            self.g_residual_norm.set(residual);
            if residual.is_finite() {
                let factor = self.cfg.residual_growth_factor;
                self.drive_high_signal(AnomalyKind::ResidualGrowth, residual, factor);
            } else {
                self.breach_signal(AnomalyKind::ResidualGrowth, residual, 0.0);
            }
        }

        if let Some(ratio) = obs.compression_ratio {
            self.g_compression_ratio.set(ratio);
            if ratio.is_finite() {
                self.drive_drift_signal(AnomalyKind::RatioDrift, ratio);
            }
        }

        if let Some(overlap) = obs.overlap_ratio {
            self.g_overlap_ratio.set(overlap);
            self.drive_overlap_signal(overlap);
        }

        if let Some(skew) = obs.straggler_skew_seconds {
            self.g_straggler_skew.set(skew);
            self.drive_straggler_signal(skew);
        }

        self.g_tripped.set(self.tripped() as f64);
    }

    /// Feeds the threaded-mode straggler signal from per-rank cumulative
    /// barrier waits (this step's deltas, nanoseconds, one slot per rank):
    /// the skew is the spread between the rank that waited most and the one
    /// that waited least. Call before [`observe_step`](Self::observe_step)
    /// so the hysteresis advances once per step; passing the skew inside
    /// the step's [`StepObservation`] is equivalent.
    pub fn barrier_skew_seconds(deltas_ns: &[u64]) -> f64 {
        if deltas_ns.len() < 2 {
            return 0.0;
        }
        let max = *deltas_ns.iter().max().unwrap_or(&0);
        let min = *deltas_ns.iter().min().unwrap_or(&0);
        (max - min) as f64 * 1e-9
    }

    /// Breach when `value > factor · ewma` (after warmup).
    fn drive_high_signal(&mut self, kind: AnomalyKind, value: f64, factor: f64) {
        let s = &self.signals[kind.index()];
        let warm = s.seen >= self.cfg.warmup_steps;
        let threshold = factor * s.ewma;
        let breached = warm && s.ewma > 0.0 && value > threshold;
        self.advance(kind, value, threshold, breached);
    }

    /// Breach when `|value − ewma| > frac · ewma` (after warmup).
    fn drive_drift_signal(&mut self, kind: AnomalyKind, value: f64) {
        let s = &self.signals[kind.index()];
        let warm = s.seen >= self.cfg.warmup_steps;
        let band = self.cfg.ratio_drift_frac * s.ewma;
        let breached = warm && s.ewma > 0.0 && (value - s.ewma).abs() > band;
        self.advance(kind, value, band, breached);
    }

    /// Breach when overlap drops below `frac · ewma` while the baseline
    /// shows real overlap.
    fn drive_overlap_signal(&mut self, value: f64) {
        let kind = AnomalyKind::OverlapCollapse;
        let s = &self.signals[kind.index()];
        let warm = s.seen >= self.cfg.warmup_steps;
        let threshold = self.cfg.overlap_collapse_frac * s.ewma;
        let breached = warm && s.ewma > 0.05 && value < threshold;
        self.advance(kind, value, threshold, breached);
    }

    /// Breach when skew exceeds both the relative factor and the absolute
    /// floor — scheduling noise lives well under the floor.
    fn drive_straggler_signal(&mut self, value: f64) {
        let kind = AnomalyKind::StragglerSkew;
        let s = &self.signals[kind.index()];
        let warm = s.seen >= self.cfg.warmup_steps;
        let threshold =
            (self.cfg.straggler_skew_factor * s.ewma).max(self.cfg.straggler_floor_seconds);
        let breached = warm && value > threshold;
        self.advance(kind, value, threshold, breached);
    }

    /// Unconditional breach (non-finite signals have no meaningful EWMA).
    fn breach_signal(&mut self, kind: AnomalyKind, value: f64, threshold: f64) {
        self.advance(kind, value, threshold, true);
    }

    /// Unconditional clean step for a signal.
    fn clear_signal(&mut self, kind: AnomalyKind) {
        let s = &mut self.signals[kind.index()];
        s.breaches = 0;
        s.clears = s.clears.saturating_add(1);
        if s.latched && s.clears >= self.cfg.clear_steps {
            s.latched = false;
        }
    }

    /// Shared hysteresis: breaches must run `trip_steps` long to fire,
    /// clean steps must run `clear_steps` long to re-arm. The EWMA learns
    /// only from clean observations so an excursion cannot drag the
    /// baseline up after itself.
    fn advance(&mut self, kind: AnomalyKind, value: f64, threshold: f64, breached: bool) {
        let alpha = self.cfg.ewma_alpha;
        let trip = self.cfg.trip_steps;
        let clear = self.cfg.clear_steps;
        let fire = {
            let s = &mut self.signals[kind.index()];
            if breached {
                s.clears = 0;
                s.breaches = s.breaches.saturating_add(1);
                if !s.latched && s.breaches >= trip {
                    s.latched = true;
                    true
                } else {
                    false
                }
            } else {
                if value.is_finite() {
                    s.learn(alpha, value);
                }
                s.breaches = 0;
                s.clears = s.clears.saturating_add(1);
                if s.latched && s.clears >= clear {
                    s.latched = false;
                }
                false
            }
        };
        if fire {
            self.fire(kind, value, threshold);
        }
    }

    /// Emits one tripped anomaly everywhere it is observable — including
    /// the flight recorder, whose latched trigger drains a post-mortem
    /// bundle the first time any signal trips.
    fn fire(&mut self, kind: AnomalyKind, value: f64, threshold: f64) {
        let event = AnomalyEvent {
            step: self.step,
            kind,
            value,
            threshold,
            rank: self.rank,
        };
        self.anomalies_total.add(1);
        self.kind_counters[kind.index()].add(1);
        trace::instant_arg(
            kind.label(),
            Track::Stage(Stage::Fault),
            Some(("step", self.step)),
        );
        self.append_log(&event);
        if self.events.len() < MAX_EVENTS {
            self.events.push(event);
        }
        recorder::note_anomaly(self.step, kind.label(), value, threshold);
        recorder::trigger("recorder: anomaly trip");
    }

    fn append_log(&mut self, event: &AnomalyEvent) {
        let Some(path) = self.cfg.log_path.as_ref() else {
            return;
        };
        if self.log.is_none() {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            self.log = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| {
                    eprintln!(
                        "[grace-core] cannot open health log {}: {e}",
                        path.display()
                    );
                })
                .ok();
        }
        if let Some(file) = self.log.as_mut() {
            let value = if event.value.is_finite() {
                format!("{}", event.value)
            } else {
                "null".to_string()
            };
            let threshold = if event.threshold.is_finite() {
                format!("{}", event.threshold)
            } else {
                "null".to_string()
            };
            let line = format!(
                "{{\"step\":{},\"kind\":\"{}\",\"value\":{},\"threshold\":{},\"rank\":{},\"run_tag\":\"{}\"}}\n",
                event.step,
                event.kind.label(),
                value,
                threshold,
                event.rank,
                self.run_tag
            );
            let _ = file.write_all(line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cfg() -> HealthConfig {
        HealthConfig::default().with_log(None)
    }

    fn clean_obs() -> StepObservation {
        StepObservation {
            grad_norm: 1.0,
            residual_norm: Some(0.5),
            compression_ratio: Some(30.0),
            overlap_ratio: Some(0.7),
            straggler_skew_seconds: Some(1e-5),
        }
    }

    fn run_clean(mon: &mut HealthMonitor, from: u64, steps: u64) -> u64 {
        for i in 0..steps {
            mon.observe_step(from + i, &clean_obs());
        }
        from + steps
    }

    #[test]
    fn clean_run_never_fires() {
        let mut mon = HealthMonitor::new(quiet_cfg());
        run_clean(&mut mon, 0, 200);
        assert_eq!(mon.anomaly_count(), 0);
        assert_eq!(mon.tripped(), 0);
    }

    #[test]
    fn single_step_spike_is_filtered_by_hysteresis() {
        let mut mon = HealthMonitor::new(quiet_cfg());
        let next = run_clean(&mut mon, 0, 20);
        let mut spike = clean_obs();
        spike.grad_norm = 100.0;
        mon.observe_step(next, &spike);
        run_clean(&mut mon, next + 1, 20);
        assert_eq!(mon.anomaly_count(), 0, "one bad step must not alert");
    }

    #[test]
    fn sustained_spike_fires_once_then_rearms() {
        let cfg = quiet_cfg();
        let trip = cfg.trip_steps as u64;
        let clear = cfg.clear_steps as u64;
        let mut mon = HealthMonitor::new(cfg);
        let mut next = run_clean(&mut mon, 0, 20);

        let mut spike = clean_obs();
        spike.grad_norm = 100.0;
        for i in 0..trip + 5 {
            mon.observe_step(next + i, &spike);
        }
        next += trip + 5;
        assert_eq!(mon.anomaly_count(), 1, "one event per excursion");
        assert_eq!(mon.events()[0].kind, AnomalyKind::GradNormSpike);
        assert_eq!(mon.events()[0].step, 20 + trip - 1);
        assert!(mon.tripped() >= 1);

        // Re-arm, then a second excursion fires a second event.
        next = run_clean(&mut mon, next, clear + 5);
        assert_eq!(mon.tripped(), 0, "clean steps must unlatch");
        for i in 0..trip {
            mon.observe_step(next + i, &spike);
        }
        assert_eq!(mon.anomaly_count(), 2);
    }

    #[test]
    fn non_finite_gradient_fires() {
        let cfg = quiet_cfg();
        let trip = cfg.trip_steps as u64;
        let mut mon = HealthMonitor::new(cfg);
        let next = run_clean(&mut mon, 0, 10);
        let mut nan = clean_obs();
        nan.grad_norm = f64::NAN;
        for i in 0..trip {
            mon.observe_step(next + i, &nan);
        }
        assert!(mon
            .events()
            .iter()
            .any(|e| e.kind == AnomalyKind::GradNormNonFinite));
    }

    #[test]
    fn straggler_skew_needs_the_absolute_floor() {
        let cfg = quiet_cfg();
        let trip = cfg.trip_steps as u64;
        let floor = cfg.straggler_floor_seconds;
        let mut mon = HealthMonitor::new(cfg);
        let next = run_clean(&mut mon, 0, 20);

        // 20× relative jump but still far below the floor: noise, no alert.
        let mut noisy = clean_obs();
        noisy.straggler_skew_seconds = Some(2e-4);
        for i in 0..trip + 2 {
            mon.observe_step(next + i, &noisy);
        }
        assert_eq!(mon.anomaly_count(), 0, "sub-floor skew must not alert");

        // A real straggler: well above the floor.
        let mut straggle = clean_obs();
        straggle.straggler_skew_seconds = Some(20.0 * floor);
        for i in 0..trip {
            mon.observe_step(next + trip + 2 + i, &straggle);
        }
        assert_eq!(mon.anomaly_count(), 1);
        assert_eq!(mon.events()[0].kind, AnomalyKind::StragglerSkew);
    }

    #[test]
    fn overlap_collapse_fires_only_with_an_overlapping_baseline() {
        let cfg = quiet_cfg();
        let trip = cfg.trip_steps as u64;
        let mut mon = HealthMonitor::new(cfg.clone());
        // Baseline with healthy overlap, then a collapse to zero.
        let next = run_clean(&mut mon, 0, 20);
        let mut collapsed = clean_obs();
        collapsed.overlap_ratio = Some(0.0);
        for i in 0..trip {
            mon.observe_step(next + i, &collapsed);
        }
        assert!(mon
            .events()
            .iter()
            .any(|e| e.kind == AnomalyKind::OverlapCollapse));

        // A run that never overlapped (single bucket) stays silent.
        let mut flat = HealthMonitor::new(cfg);
        let mut obs = clean_obs();
        obs.overlap_ratio = Some(0.0);
        for i in 0..40 {
            flat.observe_step(i, &obs);
        }
        assert_eq!(flat.anomaly_count(), 0);
    }

    #[test]
    fn ratio_drift_fires_on_regime_change() {
        let cfg = quiet_cfg();
        let trip = cfg.trip_steps as u64;
        let mut mon = HealthMonitor::new(cfg);
        let next = run_clean(&mut mon, 0, 20);
        let mut drifted = clean_obs();
        drifted.compression_ratio = Some(2.0); // baseline is 30×
        for i in 0..trip {
            mon.observe_step(next + i, &drifted);
        }
        assert!(mon
            .events()
            .iter()
            .any(|e| e.kind == AnomalyKind::RatioDrift));
    }

    #[test]
    fn events_append_to_the_jsonl_log() {
        let dir = std::env::temp_dir().join("grace-health-log-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("health.jsonl");
        let cfg = HealthConfig::default().with_log(Some(path.clone()));
        let trip = cfg.trip_steps as u64;
        let mut mon = HealthMonitor::new(cfg);
        let next = run_clean(&mut mon, 0, 20);
        let mut spike = clean_obs();
        spike.grad_norm = 500.0;
        for i in 0..trip {
            mon.observe_step(next + i, &spike);
        }
        assert_eq!(mon.anomaly_count(), 1);
        let text = std::fs::read_to_string(&path).expect("health log written");
        let line = text.lines().next().expect("one event line");
        let doc = grace_telemetry::json::parse(line).expect("line is JSON");
        assert_eq!(
            doc.get("kind").and_then(|v| v.as_str()),
            Some("grad_norm_spike")
        );
        assert!(doc.get("step").is_some() && doc.get("value").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn barrier_skew_helper() {
        assert_eq!(HealthMonitor::barrier_skew_seconds(&[]), 0.0);
        assert_eq!(HealthMonitor::barrier_skew_seconds(&[5]), 0.0);
        let skew = HealthMonitor::barrier_skew_seconds(&[1_000_000, 21_000_000, 2_000_000]);
        assert!((skew - 0.02).abs() < 1e-12);
    }

    #[test]
    fn observation_from_report_derives_all_signals() {
        let report = ExchangeReport {
            buckets: Vec::new(),
            compress_seconds: vec![0.010, 0.002],
            decompress_seconds: 0.0,
            aggregate_seconds: 0.0,
            incast_bytes: 0,
            payload_bytes: vec![100, 100],
            hidden_encode_seconds: vec![0.006, 0.001],
        };
        let obs = StepObservation::from_report(&report, 4000.0, 1.5, Some(0.2));
        assert_eq!(obs.grad_norm, 1.5);
        assert_eq!(obs.residual_norm, Some(0.2));
        assert_eq!(obs.compression_ratio, Some(40.0));
        let skew = obs.straggler_skew_seconds.unwrap();
        assert!((skew - 0.008).abs() < 1e-12);
        let overlap = obs.overlap_ratio.unwrap();
        assert!((overlap - 7.0 / 12.0).abs() < 1e-12);
    }
}
