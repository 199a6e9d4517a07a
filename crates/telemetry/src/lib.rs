//! Observability substrate for the GRACE reproduction.
//!
//! The paper's central method is *quantifying* where compressed training
//! spends its time — model quality vs. throughput vs. transmitted volume vs.
//! compression compute overhead (§V). This crate is the single accounting
//! path behind all of those numbers:
//!
//! 1. [`trace`] — a low-overhead span/event tracer: the recording calls
//!    (`span`, `instant`, [`StageTimer`]) and the read side
//!    (`snapshot_events` / `take_events` / `clear`) of the one event store
//!    in [`recorder`]. When nothing is stored the recording calls are
//!    branch-out no-ops that never allocate.
//! 2. [`metrics`] — a registry of counters, gauges and fixed-bucket log₂
//!    [`Histogram`]s (per-stage latency, per-lane encode time, compression
//!    ratio, wire bytes per step, fault injections observed).
//! 3. [`export`] — writers for Chrome trace-event JSON (loadable in Perfetto
//!    or `chrome://tracing`; one track per worker lane plus one per exchange
//!    stage) and a JSONL metrics snapshot, both under `results/telemetry/`.
//! 4. [`json`] — a minimal JSON parser so tests and CI can validate the
//!    exported trace without external dependencies.
//! 5. [`serve`] — an opt-in live metrics endpoint (`GRACE_METRICS_ADDR`)
//!    exposing the registry in Prometheus text format plus a `/health`
//!    JSON view, with zero hot-path cost.
//! 6. [`recorder`] — the one event store (pooled per-thread segments)
//!    and the black-box flight recorder on top of it: below `Trace` a
//!    segment is a bounded, always-on ring of the most recent events that
//!    a trigger writes into a post-mortem bundle under `postmortem/`; at
//!    `Trace` the same segment keeps everything.
//!
//! # Levels
//!
//! The global [`Level`] is read from the `GRACE_TELEMETRY` environment
//! variable (`off` / `metrics` / `trace`, default `off`) and can be
//! overridden programmatically ([`set_level`]) or per training run via
//! `TrainConfig::telemetry` in `grace-core`.
//!
//! * `Off` — spans that feed structured reports (the exchange engine's
//!   `ExchangeReport`) still *measure* time, because the reports exist at
//!   every level; nothing is aggregated, only the flight recorder's
//!   bounded ring retains events (nothing at all after
//!   `recorder::set_enabled(false)`), and the hot path is allocation-free.
//! * `Metrics` — counters/gauges/histograms additionally aggregate.
//! * `Trace` — every span and instant event is retained for timeline
//!   export (the ring stops overwriting and grows instead).
//!
//! # Example
//!
//! ```
//! use grace_telemetry::{self as telemetry, Level, Stage, Track};
//!
//! telemetry::set_level(Level::Trace);
//! {
//!     let _span = telemetry::trace::span("compress", Track::Lane(0));
//!     // ... work ...
//! }
//! let events = telemetry::trace::snapshot_events();
//! assert!(events.iter().any(|e| e.name == "compress"));
//! assert_eq!(Track::Stage(Stage::Encode).tid(), 1);
//! telemetry::set_level(Level::Off);
//! # telemetry::trace::clear();
//! ```

pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod serve;
pub mod trace;

pub use export::{set_trace_header, TraceHeader};
pub use metrics::{Counter, Gauge, Histogram, HistogramHandle, MetricSnapshot};
pub use trace::{Stage, StageTimer, Track};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// How much the telemetry layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No aggregation; only the flight recorder's ring retains events.
    /// Report-feeding spans still measure.
    Off = 0,
    /// Counters, gauges and histograms aggregate.
    Metrics = 1,
    /// Metrics plus full span/event retention for timeline export.
    Trace = 2,
}

impl Level {
    /// Parses `off` / `metrics` / `trace` (case-insensitive). `1` is also
    /// accepted for `metrics` and `2` for `trace`, mirroring verbosity
    /// flags.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" | "none" | "false" => Some(Level::Off),
            "metrics" | "1" | "on" | "true" => Some(Level::Metrics),
            "trace" | "2" | "full" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// Sentinel meaning "not initialised yet — consult the environment".
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn level_from_env() -> Level {
    std::env::var("GRACE_TELEMETRY")
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(Level::Off)
}

/// The current global telemetry level (initialised from `GRACE_TELEMETRY`
/// on first use).
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Metrics,
        2 => Level::Trace,
        _ => {
            let l = level_from_env();
            // Racing initialisers all compute the same env-derived value.
            LEVEL.store(l as u8, Ordering::Relaxed);
            epoch(); // pin the timeline origin before any event is stamped
            l
        }
    }
}

/// Overrides the global level (used by `TrainConfig::telemetry` and tests).
pub fn set_level(l: Level) {
    epoch();
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Fast gate: is the given level (or a more verbose one) active?
#[inline]
pub fn enabled(at_least: Level) -> bool {
    level() >= at_least
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-wide timeline origin. All exported timestamps are relative
/// to the first telemetry call in the process.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`], saturating at zero for instants captured
/// before the epoch was pinned.
pub fn since_epoch_ns(at: Instant) -> u64 {
    at.checked_duration_since(epoch())
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Serialises tests that mutate the process-global level or count what is
/// in the process-global event store. `trace::tests`, `recorder::tests`
/// and `metrics::tests` run inside the same test binary; a module-local
/// mutex lets one module's test turn telemetry off, or record an event,
/// mid-window of another's. One crate-wide gate closes that.
#[cfg(test)]
pub(crate) fn test_level_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("Metrics"), Some(Level::Metrics));
        assert_eq!(Level::parse("TRACE"), Some(Level::Trace));
        assert_eq!(Level::parse("2"), Some(Level::Trace));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn levels_order() {
        assert!(Level::Trace > Level::Metrics);
        assert!(Level::Metrics > Level::Off);
    }

    #[test]
    fn epoch_is_monotone() {
        let e = epoch();
        assert_eq!(epoch(), e);
        let later = Instant::now();
        // `later` is at or after the pinned epoch.
        let _ = since_epoch_ns(later);
    }
}
