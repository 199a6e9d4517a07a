//! Span/event tracer: the recording front doors and the read side of the
//! one event store.
//!
//! Every [`span`], [`instant`] and [`StageTimer`] finish builds one
//! [`TraceEvent`] and hands it to the pooled per-thread segments in
//! [`crate::recorder`], which keep nothing (recorder off below
//! [`crate::Level::Trace`]), the most recent window (the always-on flight
//! recorder ring — allocation-free, lock-free in steady state) or
//! everything (`Level::Trace`). When nothing is kept the recording calls
//! are branch-out no-ops that never read the clock or allocate;
//! [`StageTimer`] still measures (structured reports need the duration at
//! every level). [`snapshot_events`], [`take_events`] and [`clear`] read
//! that store, and see every thread's events the moment they are recorded.

use crate::{recorder, since_epoch_ns};
use std::time::Instant;

/// The pipeline stages that get a dedicated timeline track (in addition to
/// one track per worker lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The per-worker compensate → compress → own-decode → memory-update
    /// fan-out (all lanes together).
    Encode,
    /// Decompression of gathered contributions for aggregation.
    Decompress,
    /// The method's `Agg` over decoded contributions.
    Aggregate,
    /// Collective communication (barriers, allreduce/allgather/broadcast).
    Comm,
    /// Fault-layer activity (injected and detected faults).
    Fault,
}

impl Stage {
    /// Stable display name (also the Perfetto track name).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Encode => "stage: encode",
            Stage::Decompress => "stage: decompress",
            Stage::Aggregate => "stage: aggregate",
            Stage::Comm => "stage: comm",
            Stage::Fault => "stage: fault",
        }
    }
}

/// Which timeline track an event lands on: one per worker lane plus one per
/// exchange stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// A worker lane (= worker rank in both execution modes).
    Lane(usize),
    /// A pipeline stage track.
    Stage(Stage),
    /// The fusion-bucket lifecycle track: seal markers and per-bucket
    /// encode/aggregate spans of the pipelined exchange (bucket index in
    /// the span's `args`).
    Bucket,
    /// Step-boundary track: one instant marker per optimisation step (step
    /// index in the marker's `args`) so post-processors can segment the
    /// timeline per step.
    Step,
    /// Hub-side wire activity (rendezvous, per-op aggregate rounds). Only
    /// the process hosting the socket hub records here.
    Hub,
    /// Per-rank wire-level track: frame round trips, NACKs and retransmits
    /// observed by rank `k`'s framed stream. Distinct from [`Track::Lane`]
    /// so cross-rank merge tooling can separate network time from compute.
    Net(usize),
}

/// First tid used for lane tracks; stage tracks sit below it so Perfetto
/// sorts the pipeline overview above the per-lane detail.
const LANE_TID_BASE: u32 = 16;

/// First tid used for per-rank wire tracks; far above the lane range so the
/// two per-rank families never collide for any realistic world size.
const NET_TID_BASE: u32 = 4096;

impl Track {
    /// Stable Chrome-trace thread id for this track.
    pub fn tid(self) -> u32 {
        match self {
            Track::Stage(Stage::Encode) => 1,
            Track::Stage(Stage::Decompress) => 2,
            Track::Stage(Stage::Aggregate) => 3,
            Track::Stage(Stage::Comm) => 4,
            Track::Stage(Stage::Fault) => 5,
            Track::Bucket => 6,
            Track::Step => 7,
            Track::Hub => 8,
            Track::Lane(rank) => LANE_TID_BASE + rank as u32,
            Track::Net(rank) => NET_TID_BASE + rank as u32,
        }
    }

    /// Human-readable track name for the exported metadata.
    pub fn label(self) -> String {
        match self {
            Track::Stage(s) => s.label().to_string(),
            Track::Bucket => "buckets".to_string(),
            Track::Step => "steps".to_string(),
            Track::Hub => "hub".to_string(),
            Track::Lane(rank) => format!("lane {rank}"),
            Track::Net(rank) => format!("net {rank}"),
        }
    }
}

/// Event flavour, mapping onto Chrome trace-event phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span (`ph: "X"`).
    Span,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// One recorded event. Names are `&'static str` so recording never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Event name (span or marker label).
    pub name: &'static str,
    /// Timeline track.
    pub track: Track,
    /// Start time, nanoseconds since [`crate::epoch`].
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Span or instant.
    pub kind: EventKind,
    /// Optional small argument rendered into the event's `args`.
    pub arg: Option<(&'static str, u64)>,
    /// Second optional argument (wire events carry `step` + `op`).
    pub arg2: Option<(&'static str, u64)>,
}

/// Builds the event and stores it; callers have checked
/// [`recorder::retains`] (before reading the clock, where they read one).
#[inline]
fn emit(
    kind: EventKind,
    name: &'static str,
    track: Track,
    start: Instant,
    dur_ns: u64,
    args: [Option<(&'static str, u64)>; 2],
) {
    recorder::record(TraceEvent {
        name,
        track,
        ts_ns: since_epoch_ns(start),
        dur_ns,
        kind,
        arg: args[0],
        arg2: args[1],
    });
}

/// Copies every stored event — all threads', exited ones included — in
/// completion order (per thread: recording order).
pub fn snapshot_events() -> Vec<TraceEvent> {
    recorder::events(false)
}

/// Removes and returns every stored event, ordered as
/// [`snapshot_events`].
pub fn take_events() -> Vec<TraceEvent> {
    recorder::events(true)
}

/// Discards every stored event and returns segments that grew under
/// `Level::Trace` to their ring size.
pub fn clear() {
    recorder::clear_events();
}

/// Records a point-in-time marker (no-op when nothing is stored: recorder
/// off and level below `Trace`).
#[inline]
pub fn instant(name: &'static str, track: Track) {
    instant_args(name, track, None, None);
}

/// Records a point-in-time marker with one small argument.
#[inline]
pub fn instant_arg(name: &'static str, track: Track, arg: Option<(&'static str, u64)>) {
    instant_args(name, track, arg, None);
}

/// Records a point-in-time marker with up to two small arguments.
#[inline]
pub fn instant_args(
    name: &'static str,
    track: Track,
    arg: Option<(&'static str, u64)>,
    arg2: Option<(&'static str, u64)>,
) {
    if recorder::retains() {
        let now = Instant::now();
        emit(EventKind::Instant, name, track, now, 0, [arg, arg2]);
    }
}

/// Opens a span closed by the guard's `Drop`. When nothing is stored
/// (recorder off and level below `Trace`) the guard is inert: no clock
/// read, no allocation.
#[inline]
pub fn span(name: &'static str, track: Track) -> SpanGuard {
    let timer = recorder::retains().then(StageTimer::start);
    SpanGuard { name, track, timer }
}

/// Guard returned by [`span`]; records the event when dropped.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    name: &'static str,
    track: Track,
    timer: Option<StageTimer>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(timer) = self.timer {
            timer.finish(self.name, self.track);
        }
    }
}

/// A timer that **always** measures — structured reports
/// (`ExchangeReport`) are built from its return value at every telemetry
/// level — and additionally records a span event whenever events are
/// stored (flight recorder on, or `Level::Trace`).
///
/// This is the single accounting path the exchange engine uses: timings in
/// reports and spans on the timeline come from the same clock reads and can
/// never disagree.
#[derive(Debug, Clone, Copy)]
pub struct StageTimer {
    start: Instant,
}

impl StageTimer {
    /// Starts the timer.
    #[inline]
    pub fn start() -> Self {
        StageTimer {
            start: Instant::now(),
        }
    }

    #[inline]
    fn finish_args(
        self,
        name: &'static str,
        track: Track,
        args: [Option<(&'static str, u64)>; 2],
    ) -> u64 {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        if recorder::retains() {
            emit(EventKind::Span, name, track, self.start, dur_ns, args);
        }
        dur_ns
    }

    /// Stops the timer, returning elapsed nanoseconds; records a span on
    /// `track` when events are stored.
    #[inline]
    pub fn finish(self, name: &'static str, track: Track) -> u64 {
        self.finish_args(name, track, [None; 2])
    }

    /// Like [`finish`](Self::finish) with one small argument attached to
    /// the recorded span.
    #[inline]
    pub fn finish_with(self, name: &'static str, track: Track, key: &'static str, val: u64) -> u64 {
        self.finish_args(name, track, [Some((key, val)), None])
    }

    /// Like [`finish`](Self::finish) with two small arguments — the wire
    /// path uses this to stamp round-trip spans with `(step, op)` so a
    /// cross-rank merge can line collectives up without string parsing.
    #[inline]
    pub fn finish_with2(
        self,
        name: &'static str,
        track: Track,
        arg: (&'static str, u64),
        arg2: (&'static str, u64),
    ) -> u64 {
        self.finish_args(name, track, [Some(arg), Some(arg2)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, Level};
    use std::sync::MutexGuard;

    /// Tests in this module mutate the global level and read the global
    /// event store; serialise them against every other test in the crate
    /// that does either, not just this module.
    fn serial() -> MutexGuard<'static, ()> {
        crate::test_level_gate()
    }

    #[test]
    fn spans_are_recorded_when_enabled() {
        let _g = serial();
        set_level(Level::Trace);
        clear();
        {
            let _s = span("outer", Track::Lane(1));
            let _i = span("inner", Track::Lane(1));
        }
        instant("marker", Track::Stage(Stage::Fault));
        let events = snapshot_events();
        set_level(Level::Off);
        clear();
        // Guards drop inner-first.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        assert!(events[1].dur_ns >= events[0].dur_ns);
        assert_eq!(events[2].kind, EventKind::Instant);
    }

    /// The retention table's `Off` row: nothing with the recorder off, the
    /// ring with it on.
    #[test]
    fn off_level_stores_only_what_the_recorder_keeps() {
        let _g = serial();
        set_level(Level::Off);
        for (recorder_on, kept) in [(true, 3), (false, 0)] {
            recorder::set_enabled(recorder_on);
            clear();
            {
                let _s = span("ghost", Track::Lane(0));
            }
            instant("ghost", Track::Lane(0));
            let t = StageTimer::start();
            let ns = t.finish("measured", Track::Stage(Stage::Encode));
            let _ = ns; // duration is still real
            assert_eq!(snapshot_events().len(), kept, "recorder on: {recorder_on}");
        }
        recorder::set_enabled(true);
        clear();
    }

    #[test]
    fn stage_timer_retains_span_under_trace() {
        let _g = serial();
        set_level(Level::Trace);
        clear();
        let t = StageTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let ns = t.finish_with("timed", Track::Stage(Stage::Decompress), "bytes", 7);
        let events = take_events();
        set_level(Level::Off);
        assert!(ns >= 1_000_000);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].dur_ns, ns);
        assert_eq!(events[0].arg, Some(("bytes", 7)));
    }

    /// A scoped thread's span is in the store — registered in the pool, not
    /// parked in the thread — the moment `scope` returns; no flush, no TLS
    /// teardown to wait for.
    #[test]
    fn scoped_thread_events_are_stored_when_scope_returns() {
        let _g = serial();
        set_level(Level::Trace);
        clear();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _sp = span("lane-work", Track::Lane(3));
            });
        });
        let events = snapshot_events();
        set_level(Level::Off);
        clear();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "lane-work");
        assert_eq!(events[0].track, Track::Lane(3));
    }

    #[test]
    fn track_ids_are_stable_and_disjoint() {
        let stages = [
            Stage::Encode,
            Stage::Decompress,
            Stage::Aggregate,
            Stage::Comm,
            Stage::Fault,
        ];
        let mut tids: Vec<u32> = stages.iter().map(|s| Track::Stage(*s).tid()).collect();
        tids.push(Track::Bucket.tid());
        tids.push(Track::Step.tid());
        tids.push(Track::Hub.tid());
        for lane in 0..8 {
            tids.push(Track::Lane(lane).tid());
        }
        for rank in 0..8 {
            tids.push(Track::Net(rank).tid());
        }
        assert!(Track::Bucket.tid() < LANE_TID_BASE);
        assert!(Track::Hub.tid() < LANE_TID_BASE);
        // Wire tracks live far above the lane block so up to ~4080 lanes
        // can never collide with them.
        assert!(Track::Net(0).tid() >= NET_TID_BASE);
        let mut dedup = tids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), tids.len(), "tids must be unique");
        assert_eq!(Track::Lane(0).label(), "lane 0");
        assert_eq!(Track::Net(2).label(), "net 2");
        assert_eq!(Track::Hub.label(), "hub");
    }
}
