//! Black-box flight recorder: an always-on, bounded ring of the most
//! recent telemetry events, drained into a post-mortem bundle on a
//! trigger.
//!
//! Tracing ([`crate::Level::Trace`]) retains *everything* and is therefore
//! opt-in; the recorder instead retains only the most recent events inside
//! a fixed byte budget (4 MiB per rank) so it can stay on for every run —
//! including `Level::Off` production runs — without growing memory or
//! allocating on the hot path. When a run dies
//! (anomaly trip, injected fault, `ClusterError` in a socket rank) the
//! seconds *leading up to* the failure are exactly what the exported-at-
//! clean-exit trace loses; the recorder preserves them.
//!
//! # Architecture
//!
//! * **Per-thread SPSC segments.** Each recording thread owns one
//!   [`Segment`]: a fixed-capacity ring of [`TraceEvent`] slots guarded by
//!   a `Mutex` that the owning thread only ever `try_lock`s. In steady
//!   state the lock is uncontended — one atomic CAS per event, no
//!   syscall, no allocation. The only other contender is a dump draining
//!   the ring; during that instant the producer *drops* the event rather
//!   than block (a flight recorder must never stall the plane).
//! * **Segment pool.** Worker lanes run on short-lived scoped threads
//!   (fresh threads every step), so segments are pooled: a thread acquires
//!   a segment lazily on first record and its TLS destructor returns it to
//!   the free list with contents intact. Allocation is bounded by the peak
//!   number of *concurrent* recording threads (hard-capped at
//!   [`MAX_SEGMENTS`]), not by thread churn, and late events from a
//!   returned segment survive into the dump.
//! * **Ring sizing.** [`BUDGET_BYTES`]` / 16 / size_of::<TraceEvent>()`
//!   slots per segment: the budget is honoured at the sizing target of 16
//!   concurrent threads and scales proportionally beyond it.
//!   [`set_enabled`]`(false)` turns the recorder off entirely.
//!
//! # Triggers
//!
//! | Trigger                         | Call site                         |
//! |---------------------------------|-----------------------------------|
//! | `AnomalyEvent` trip             | `HealthMonitor::fire`             |
//! | `FaultPlan` fault instant       | `FaultStats::observe_injected`    |
//! | `ClusterError` in a socket rank | `run_socket_rank` error path      |
//! | `grace-launch --dump-on-exit`   | [`dump`] at rank exit             |
//!
//! [`trigger`] is latched: the first trip dumps, later trips are ignored
//! (the interesting state is what led to the *first* failure). On-demand
//! [`dump`]s are not latched.
//!
//! # Bundle layout
//!
//! `postmortem/<run_tag>/rank<k>.{trace.json,metrics.jsonl,health.jsonl}`
//! (or directly under `GRACE_POSTMORTEM_DIR` when set). The trace carries
//! the same `"grace"` clock-offset header as a clean-exit export, so rank
//! bundles merge onto the hub clock with the existing tooling.

use crate::export::{self, sanitize};
use crate::metrics::{self, Counter};
use crate::since_epoch_ns;
use crate::trace::{EventKind, Stage, TraceEvent, Track};
use std::cell::RefCell;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Ring budget: ~4 MiB/rank.
const BUDGET_BYTES: usize = 4 << 20;

/// The byte budget is divided across this many segments; runs with more
/// concurrent recording threads use proportionally more memory.
const SIZING_SEGMENTS: usize = 16;

/// Hard cap on ever-allocated segments; threads beyond it record nothing.
const MAX_SEGMENTS: usize = 64;

/// Slots per segment.
const SEGMENT_SLOTS: usize = BUDGET_BYTES / SIZING_SEGMENTS / std::mem::size_of::<TraceEvent>();

/// Bounded anomaly side-buffer (mirrors `HealthMonitor`'s own cap).
const MAX_ANOMALIES: usize = 256;

/// Global counters whose per-step deltas are recorded as instants on the
/// step track (name → delta since the previous [`observe_step`]).
const WATCHED_COUNTERS: &[&str] = &[
    "traffic.bytes_total",
    "traffic.messages_total",
    "fault.injected_total",
    "fault.detected_total",
    "health.anomalies_total",
    "comm.net.frames",
    "comm.net.wire_bytes",
    "comm.net.frame_retries",
    "net.nack_total",
    "net.retransmit_bytes_total",
];

/// Sentinel filling unwritten ring slots; never observable in a drain
/// (drains stop at the write head).
const SENTINEL: TraceEvent = TraceEvent {
    name: "",
    track: Track::Step,
    ts_ns: 0,
    dur_ns: 0,
    kind: EventKind::Instant,
    arg: None,
    arg2: None,
};

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Fast gate: is the recorder retaining events? On by default; off after
/// [`set_enabled`]`(false)`.
#[inline]
pub fn active() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Overrides the recorder gate (benchmarks measure Off vs Recording with
/// this; tests restore the default with `set_enabled(true)`).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Ring segments + pool
// ---------------------------------------------------------------------------

struct Ring {
    slots: Box<[TraceEvent]>,
    /// Total events ever written; the next write lands at `head % cap`.
    head: u64,
}

/// One thread's ring. The owner `try_lock`s (uncontended in steady state);
/// a dump `lock`s briefly to drain.
struct Segment {
    ring: Mutex<Ring>,
}

impl Segment {
    fn with_capacity(cap: usize) -> Segment {
        Segment {
            ring: Mutex::new(Ring {
                slots: vec![SENTINEL; cap].into_boxed_slice(),
                head: 0,
            }),
        }
    }

    fn record(&self, ev: TraceEvent) {
        // Contended only while a dump drains this ring; dropping the event
        // there keeps the producer wait-free.
        if let Ok(mut r) = self.ring.try_lock() {
            let cap = r.slots.len() as u64;
            let idx = (r.head % cap) as usize;
            r.slots[idx] = ev;
            r.head += 1;
        }
    }

    fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        let r = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let cap = r.slots.len() as u64;
        if r.head <= cap {
            out.extend_from_slice(&r.slots[..r.head as usize]);
        } else {
            let at = (r.head % cap) as usize;
            out.extend_from_slice(&r.slots[at..]);
            out.extend_from_slice(&r.slots[..at]);
        }
    }

    fn clear(&self) {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).head = 0;
    }
}

struct Pool {
    /// Every segment ever allocated — dumps drain all of them, so events
    /// recorded by since-exited threads still make it into the bundle.
    all: Vec<Arc<Segment>>,
    /// Segments returned by exited threads, ready for reuse.
    free: Vec<Arc<Segment>>,
}

fn pool() -> &'static Mutex<Pool> {
    static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        Mutex::new(Pool {
            all: Vec::with_capacity(SIZING_SEGMENTS),
            free: Vec::with_capacity(SIZING_SEGMENTS),
        })
    })
}

fn lock_pool() -> MutexGuard<'static, Pool> {
    pool().lock().unwrap_or_else(|e| e.into_inner())
}

fn acquire_segment() -> Option<Arc<Segment>> {
    let mut p = lock_pool();
    if let Some(seg) = p.free.pop() {
        return Some(seg);
    }
    if p.all.len() >= MAX_SEGMENTS {
        return None;
    }
    let seg = Arc::new(Segment::with_capacity(SEGMENT_SLOTS));
    p.all.push(Arc::clone(&seg));
    Some(seg)
}

/// Returns the thread's segment to the free list on thread exit. Contents
/// stay drainable via `Pool::all`.
struct SegmentHandle(Arc<Segment>);

impl Drop for SegmentHandle {
    fn drop(&mut self) {
        lock_pool().free.push(Arc::clone(&self.0));
    }
}

enum Slot {
    /// Thread has not recorded yet.
    Unset,
    Active(SegmentHandle),
    /// Pool is at [`MAX_SEGMENTS`]; this thread records nothing.
    Exhausted,
}

thread_local! {
    static SLOT: RefCell<Slot> = const { RefCell::new(Slot::Unset) };
}

/// Records one event into this thread's ring (no-op when inactive).
/// After the first call on a thread — which may acquire/allocate a pooled
/// segment — the path is allocation-free and wait-free.
#[inline]
pub(crate) fn record(ev: TraceEvent) {
    if !active() {
        return;
    }
    // `try_with` so late events during TLS teardown degrade to drops.
    let _ = SLOT.try_with(|s| {
        let mut s = s.borrow_mut();
        if matches!(&*s, Slot::Unset) {
            *s = match acquire_segment() {
                Some(seg) => Slot::Active(SegmentHandle(seg)),
                None => Slot::Exhausted,
            };
        }
        if let Slot::Active(h) = &*s {
            h.0.record(ev);
        }
    });
}

fn drain_events() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    let p = lock_pool();
    for seg in &p.all {
        seg.drain_into(&mut out);
    }
    drop(p);
    out.sort_by_key(|e| e.ts_ns);
    out
}

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

struct Identity {
    run_tag: String,
    rank: Option<usize>,
}

static IDENTITY: Mutex<Identity> = Mutex::new(Identity {
    run_tag: String::new(),
    rank: None,
});

/// Stamps the run tag and rank onto subsequent bundles. Call once per run
/// before any trigger can fire (`None` rank writes `rank0.*`).
pub fn configure(run_tag: &str, rank: Option<usize>) {
    let mut id = IDENTITY.lock().unwrap_or_else(|e| e.into_inner());
    id.run_tag = run_tag.to_string();
    id.rank = rank;
}

// ---------------------------------------------------------------------------
// Health observations
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct AnomalyNote {
    step: u64,
    kind: &'static str,
    value: f64,
    threshold: f64,
}

fn anomalies() -> &'static Mutex<Vec<AnomalyNote>> {
    static NOTES: OnceLock<Mutex<Vec<AnomalyNote>>> = OnceLock::new();
    NOTES.get_or_init(|| Mutex::new(Vec::with_capacity(MAX_ANOMALIES)))
}

/// Retains one anomaly observation for the bundle's `health.jsonl`
/// (bounded; drops beyond [`MAX_ANOMALIES`]). `HealthMonitor::fire` calls
/// this alongside its own log append.
pub fn note_anomaly(step: u64, kind: &'static str, value: f64, threshold: f64) {
    if !active() {
        return;
    }
    let mut notes = anomalies().lock().unwrap_or_else(|e| e.into_inner());
    if notes.len() < MAX_ANOMALIES {
        notes.push(AnomalyNote {
            step,
            kind,
            value,
            threshold,
        });
    }
}

fn health_jsonl_string(rank: usize, run_tag: &str) -> String {
    use std::fmt::Write as _;
    let notes = anomalies().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::new();
    for n in notes.iter() {
        let _ = writeln!(
            out,
            "{{\"step\":{},\"kind\":\"{}\",\"value\":{:.6},\"threshold\":{:.6},\"rank\":{},\"run_tag\":\"{}\"}}",
            n.step,
            n.kind,
            n.value,
            n.threshold,
            rank,
            sanitize(run_tag),
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Counter deltas + step observation
// ---------------------------------------------------------------------------

struct Watch {
    name: &'static str,
    counter: Counter,
    last: u64,
}

fn watchlist() -> &'static Mutex<Vec<Watch>> {
    static WATCH: OnceLock<Mutex<Vec<Watch>>> = OnceLock::new();
    WATCH.get_or_init(|| {
        Mutex::new(
            WATCHED_COUNTERS
                .iter()
                .map(|&name| Watch {
                    name,
                    counter: metrics::counter(name),
                    last: 0,
                })
                .collect(),
        )
    })
}

/// Per-step bookkeeping: records a `(step, delta)` instant on the step
/// track for every watched counter that moved. Call once per optimisation
/// step from the rank's step-driving thread; after the first call the
/// steady state is allocation-free.
pub fn observe_step(step: u64) {
    if !active() {
        return;
    }
    let now_ns = since_epoch_ns(Instant::now());
    let mut watch = watchlist().lock().unwrap_or_else(|e| e.into_inner());
    for w in watch.iter_mut() {
        let now = w.counter.get();
        let delta = now.saturating_sub(w.last);
        w.last = now;
        if delta > 0 {
            record(TraceEvent {
                name: w.name,
                track: Track::Step,
                ts_ns: now_ns,
                dur_ns: 0,
                kind: EventKind::Instant,
                arg: Some(("step", step)),
                arg2: Some(("delta", delta)),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Triggers + dump
// ---------------------------------------------------------------------------

static TRIPPED: AtomicBool = AtomicBool::new(false);

/// Whether a latched trigger has already dumped (exit paths use this to
/// avoid writing the bundle twice).
pub fn tripped() -> bool {
    TRIPPED.load(Ordering::SeqCst)
}

/// Trips the recorder: records `reason` as an instant on the fault track
/// and drains a post-mortem bundle. Latched — only the first trip dumps;
/// the bundle then preserves the state that led to the *first* failure.
pub fn trigger(reason: &'static str) {
    if !active() {
        return;
    }
    record(TraceEvent {
        name: reason,
        track: Track::Stage(Stage::Fault),
        ts_ns: since_epoch_ns(Instant::now()),
        dur_ns: 0,
        kind: EventKind::Instant,
        arg: None,
        arg2: None,
    });
    if TRIPPED.swap(true, Ordering::SeqCst) {
        return;
    }
    if let Err(e) = dump() {
        eprintln!("[grace-telemetry] post-mortem bundle failed ({reason}): {e}");
    }
}

fn bundle_dir(run_tag: &str) -> PathBuf {
    match std::env::var("GRACE_POSTMORTEM_DIR") {
        Ok(d) if !d.trim().is_empty() => PathBuf::from(d.trim()),
        _ => {
            let tag = if run_tag.is_empty() { "run" } else { run_tag };
            PathBuf::from("postmortem").join(sanitize(tag))
        }
    }
}

/// Drains the ring into a self-contained bundle
/// (`rank<k>.{trace.json,metrics.jsonl,health.jsonl}`) and returns its
/// directory. On-demand — not latched; callable any number of times.
pub fn dump() -> io::Result<PathBuf> {
    let (rank, run_tag) = {
        let id = IDENTITY.lock().unwrap_or_else(|e| e.into_inner());
        (id.rank.unwrap_or(0), id.run_tag.clone())
    };
    let dir = bundle_dir(&run_tag);
    fs::create_dir_all(&dir)?;
    let events = drain_events();
    // Single-process modes never learn a hub-clock offset; synthesize an
    // identity header so the merge tool still accepts the bundle.
    let header = export::trace_header().unwrap_or(export::TraceHeader {
        rank: Some(rank),
        world: 1,
        clock_offset_ns: 0,
        clock_rtt_ns: 0,
    });
    fs::write(
        dir.join(format!("rank{rank}.trace.json")),
        export::trace_json_string_with_header(&events, Some(&header)),
    )?;
    fs::write(
        dir.join(format!("rank{rank}.metrics.jsonl")),
        export::metrics_jsonl_string(&metrics::snapshot_all()),
    )?;
    fs::write(
        dir.join(format!("rank{rank}.health.jsonl")),
        health_jsonl_string(rank, &run_tag),
    )?;
    Ok(dir)
}

/// Test/bench hook: unlatches triggers, empties every pooled ring and the
/// anomaly buffer, and re-bases counter deltas on the counters' current
/// values (call after `metrics::reset_all()` for a fully clean slate).
pub fn reset() {
    TRIPPED.store(false, Ordering::SeqCst);
    {
        let p = lock_pool();
        for seg in &p.all {
            seg.clear();
        }
    }
    anomalies()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    let mut watch = watchlist().lock().unwrap_or_else(|e| e.into_inner());
    for w in watch.iter_mut() {
        w.last = w.counter.get();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, ts_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            track: Track::Lane(0),
            ts_ns,
            dur_ns: 0,
            kind: EventKind::Instant,
            arg: None,
            arg2: None,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_drains_in_order() {
        let seg = Segment::with_capacity(4);
        for i in 0..6u64 {
            seg.record(ev("e", i));
        }
        let mut out = Vec::new();
        seg.drain_into(&mut out);
        // Capacity 4, 6 writes: the two oldest are gone, order retained.
        let ts: Vec<u64> = out.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![2, 3, 4, 5]);
        seg.clear();
        out.clear();
        seg.drain_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn partial_ring_drains_without_sentinels() {
        let seg = Segment::with_capacity(8);
        seg.record(ev("only", 42));
        let mut out = Vec::new();
        seg.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts_ns, 42);
    }

    #[test]
    fn pool_reuses_returned_segments() {
        // Exercised indirectly: spawn several short-lived threads that all
        // record; the pool must not grow past the concurrency level.
        set_enabled(true);
        for _ in 0..8 {
            std::thread::scope(|s| {
                s.spawn(|| record(ev("pooled", 1)));
            });
        }
        let p = lock_pool();
        // Other tests in the process may hold segments; the bound here is
        // generous but finite — churn must not leak one segment per thread.
        assert!(p.all.len() <= MAX_SEGMENTS);
        assert!(!p.all.is_empty());
    }

    #[test]
    fn health_lines_render_identity() {
        let text = {
            let mut notes = anomalies().lock().unwrap_or_else(|e| e.into_inner());
            notes.clear();
            notes.push(AnomalyNote {
                step: 7,
                kind: "ratio_collapse",
                value: 0.5,
                threshold: 0.25,
            });
            drop(notes);
            health_jsonl_string(3, "unit-w4")
        };
        let doc = crate::json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(doc.get("step").unwrap().as_f64(), Some(7.0));
        assert_eq!(doc.get("rank").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("run_tag").unwrap().as_str(), Some("unit-w4"));
        anomalies()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}
