//! The one event store — pooled per-thread segments holding every span and
//! instant the process retains — and the black-box flight recorder that
//! writes them into a post-mortem bundle on a trigger.
//!
//! The level and the recorder gate decide only *how much* a segment keeps:
//!
//! | level / recorder  | on (default) | off ([`set_enabled`]`(false)`) |
//! |-------------------|--------------|--------------------------------|
//! | `Off` / `Metrics` | bounded ring | nothing                        |
//! | `Trace`           | everything   | everything                     |
//!
//! The ring retains only the most recent events inside a fixed byte budget
//! (4 MiB per rank) so it can stay on for every run — including
//! `Level::Off` production runs — without growing memory or allocating on
//! the hot path. When a run dies (anomaly trip, injected fault,
//! `ClusterError` in a socket rank) the seconds *leading up to* the
//! failure are exactly what the exported-at-clean-exit trace loses; the
//! ring preserves them. Under `Level::Trace` the same segment stops
//! overwriting and grows, and [`crate::trace::take_events`] /
//! [`crate::export::export_run_to`] read the whole run out of it.
//!
//! # Architecture
//!
//! * **Per-thread SPSC segments.** Each recording thread owns one
//!   [`Segment`]: a pre-sized ring of [`TraceEvent`]s guarded by a `Mutex`
//!   that the owning thread `try_lock`s. In steady state the lock is
//!   uncontended — one atomic CAS per event, no syscall, no allocation.
//!   The only other contender is a reader copying the segment out; during
//!   that instant a ring-mode producer *drops* the event rather than
//!   block (a flight recorder must never stall the plane), while a traced
//!   producer waits (a trace must not lose one).
//! * **Segment pool.** Worker lanes run on short-lived scoped threads
//!   (fresh threads every step), so segments are pooled: a thread acquires
//!   a segment lazily on first record and its TLS destructor returns it to
//!   the free list with contents intact. Every segment stays registered in
//!   the pool, so a read sees all threads' events at any time, exited
//!   threads' included. Ring allocation is bounded by the peak number of
//!   *concurrent* recording threads (hard-capped at [`MAX_SEGMENTS`]), not
//!   by thread churn; a traced run allocates past the cap and
//!   [`crate::trace::clear`] hands the excess back.
//! * **Ring sizing.** [`BUDGET_BYTES`]` / 16 / size_of::<TraceEvent>()`
//!   slots per segment: the budget is honoured at the sizing target of 16
//!   concurrent threads and scales proportionally beyond it.
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
//! [`dump`]s are not latched, and no dump removes an event from the store.
//!
//! # Bundle layout
//!
//! `postmortem/<run_tag>/rank<k>.{trace.json,metrics.jsonl,health.jsonl}`
//! (or directly under `GRACE_POSTMORTEM_DIR` when set). The first two are
//! an [`crate::export::export_run_to`] of that instant, with the same
//! `"grace"` clock-offset header as a clean-exit export, so rank bundles
//! merge onto the hub clock with the existing tooling.

use crate::export::{self, sanitize};
use crate::metrics::{self, Counter};
use crate::trace::{self, Stage, TraceEvent, Track};
use crate::{enabled, Level};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Fast gate: is the flight recorder on? On by default; off after
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

/// Fast gate: would an event built now be stored anywhere? The recording
/// front doors in [`crate::trace`] skip the clock read when not.
#[inline]
pub(crate) fn retains() -> bool {
    active() || enabled(Level::Trace)
}

// ---------------------------------------------------------------------------
// Segments + pool
// ---------------------------------------------------------------------------

/// One thread's events, oldest first: a ring of [`SEGMENT_SLOTS`] while the
/// level is below `Trace`, a growing log while it is `Trace`. The owner
/// `try_lock`s (uncontended in steady state); a reader `lock`s briefly to
/// copy it out.
struct Segment(Mutex<VecDeque<TraceEvent>>);

impl Segment {
    fn new() -> Segment {
        Segment(Mutex::new(VecDeque::with_capacity(SEGMENT_SLOTS)))
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<TraceEvent>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn record(&self, ev: TraceEvent, keep_all: bool) {
        // Contended only while a reader copies this ring. Dropping the
        // event there keeps a ring-mode producer wait-free; a trace may
        // not lose an event, so a traced producer waits the copy out.
        let mut ring = match self.0.try_lock() {
            Ok(ring) => ring,
            Err(_) if keep_all => self.lock(),
            Err(_) => return,
        };
        // Below `Trace` the oldest event makes room (one for one, also in
        // a segment a fallen level left longer than a ring), so the push
        // stays inside the reserved capacity and never allocates.
        if !keep_all && ring.len() >= SEGMENT_SLOTS {
            ring.pop_front();
        }
        ring.push_back(ev);
    }
}

/// Empties a segment and gives back what it grew by under `Trace`.
fn clear(ring: &mut VecDeque<TraceEvent>) {
    ring.clear();
    ring.shrink_to(SEGMENT_SLOTS);
}

struct Pool {
    /// Every live segment — readers visit all of them, so events recorded
    /// by since-exited threads are still there to read.
    all: Vec<Arc<Segment>>,
    /// Segments returned by exited threads, ready for reuse.
    free: Vec<Arc<Segment>>,
}

/// The bookkeeping vectors are pre-sized: left to grow, their small blocks
/// land between the 256 KiB segments and fragment the allocator's arena
/// (measured: +0.75 MB peak RSS on the `solo-dense` benchmark workload).
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

/// `keep_all` lifts the cap: it bounds ring memory, not a trace.
fn acquire_segment(keep_all: bool) -> Option<Arc<Segment>> {
    let mut p = lock_pool();
    if let Some(seg) = p.free.pop() {
        return Some(seg);
    }
    if p.all.len() >= MAX_SEGMENTS && !keep_all {
        return None;
    }
    let seg = Arc::new(Segment::new());
    p.all.push(Arc::clone(&seg));
    Some(seg)
}

/// Returns the thread's segment to the free list on thread exit. Contents
/// stay readable via `Pool::all`.
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
    /// Pool was at [`MAX_SEGMENTS`]; this thread records nothing below
    /// `Trace`.
    Exhausted,
}

thread_local! {
    static SLOT: RefCell<Slot> = const { RefCell::new(Slot::Unset) };
}

/// Stores one event in this thread's segment; callers have checked
/// [`retains`]. After the first call on a thread — which may
/// acquire/allocate a pooled segment — the path below `Trace` is
/// allocation-free and wait-free.
#[inline]
pub(crate) fn record(ev: TraceEvent) {
    let keep_all = enabled(Level::Trace);
    // `try_with` so late events during TLS teardown degrade to drops.
    let _ = SLOT.try_with(|s| {
        let mut s = s.borrow_mut();
        if !matches!(&*s, Slot::Active(_)) && (keep_all || matches!(&*s, Slot::Unset)) {
            *s = match acquire_segment(keep_all) {
                Some(seg) => Slot::Active(SegmentHandle(seg)),
                None => Slot::Exhausted,
            };
        }
        if let Slot::Active(h) = &*s {
            h.0.record(ev, keep_all);
        }
    });
}

/// Every stored event, sorted by completion time (stable, so one thread's
/// events keep their recording order); `take` also removes them, each
/// segment under the same lock hold that copied it.
pub(crate) fn events(take: bool) -> Vec<TraceEvent> {
    let mut out: Vec<TraceEvent> = Vec::new();
    for seg in &lock_pool().all {
        let mut ring = seg.lock();
        out.extend(ring.iter());
        if take {
            clear(&mut ring);
        }
    }
    out.sort_by_key(|e| e.ts_ns + e.dur_ns);
    out
}

/// Discards every stored event, returns grown segments to ring size and
/// hands back the segments a traced run allocated past [`MAX_SEGMENTS`]
/// whose threads have exited.
pub(crate) fn clear_events() {
    let mut p = lock_pool();
    for seg in &p.all {
        clear(&mut seg.lock());
    }
    while p.all.len() > MAX_SEGMENTS {
        let Some(seg) = p.free.pop() else { break };
        p.all.retain(|s| !Arc::ptr_eq(s, &seg));
    }
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
    if !retains() {
        return;
    }
    let mut watch = watchlist().lock().unwrap_or_else(|e| e.into_inner());
    for w in watch.iter_mut() {
        let now = w.counter.get();
        let delta = now.saturating_sub(w.last);
        w.last = now;
        if delta > 0 {
            trace::instant_args(
                w.name,
                Track::Step,
                Some(("step", step)),
                Some(("delta", delta)),
            );
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
    trace::instant(reason, Track::Stage(Stage::Fault));
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

/// Writes the stored events into a self-contained bundle
/// (`rank<k>.{trace.json,metrics.jsonl,health.jsonl}`) and returns its
/// directory. On-demand — not latched; callable any number of times, and
/// the events stay in the store.
pub fn dump() -> io::Result<PathBuf> {
    let (rank, run_tag) = {
        let id = IDENTITY.lock().unwrap_or_else(|e| e.into_inner());
        (id.rank.unwrap_or(0), id.run_tag.clone())
    };
    let dir = bundle_dir(&run_tag);
    // Single-process modes never learn a hub-clock offset or the world;
    // synthesize an identity header (the smallest world holding this rank)
    // so the analyzer, which checks `rank < world`, still accepts the bundle.
    let header = export::trace_header().unwrap_or(export::TraceHeader {
        rank: Some(rank),
        world: rank + 1,
        clock_offset_ns: 0,
        clock_rtt_ns: 0,
    });
    export::write_run(&dir, &format!("rank{rank}"), Some(&header))?;
    fs::write(
        dir.join(format!("rank{rank}.health.jsonl")),
        health_jsonl_string(rank, &run_tag),
    )?;
    Ok(dir)
}

/// Test/bench hook: unlatches triggers, empties the event store
/// ([`crate::trace::clear`]) and the anomaly buffer, and re-bases counter
/// deltas on the counters' current values (call after
/// `metrics::reset_all()` for a fully clean slate).
pub fn reset() {
    TRIPPED.store(false, Ordering::SeqCst);
    clear_events();
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
    use crate::set_level;
    use crate::trace::EventKind;
    use std::sync::Barrier;

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

    /// While a reader holds a segment, a ring-mode producer drops the
    /// event instead of waiting, and a traced producer waits instead of
    /// dropping.
    #[test]
    fn contended_segment_drops_in_ring_mode_and_waits_under_trace() {
        let seg = Arc::new(Segment::new());
        let reader = seg.lock();
        seg.record(ev("ring", 1), false);
        let (started, has_started) = std::sync::mpsc::channel();
        let traced = std::thread::spawn({
            let seg = Arc::clone(&seg);
            move || {
                started.send(()).expect("main thread listens");
                seg.record(ev("trace", 2), true);
            }
        });
        has_started.recv().expect("producer thread started");
        assert!(reader.is_empty(), "nothing lands under the reader");
        drop(reader);
        traced.join().expect("traced producer");
        let stored: Vec<u64> = seg.lock().iter().map(|e| e.ts_ns).collect();
        assert_eq!(stored, vec![2]);
    }

    /// `THREADS` threads that all hold a segment at once, one event each;
    /// returns how many events were stored. Joined, not scoped: `join`
    /// also waits for the TLS destructors that return the segments.
    fn record_concurrently(name: &'static str) -> usize {
        const THREADS: usize = MAX_SEGMENTS + 6;
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|lane| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    trace::instant(name, Track::Lane(lane));
                    barrier.wait(); // nobody exits before everybody recorded
                })
            })
            .collect();
        for h in handles {
            h.join().expect("recording thread");
        }
        events(false).iter().filter(|e| e.name == name).count()
    }

    /// The segment cap bounds ring memory, never a trace: 70 concurrent
    /// threads all record under `Trace`, at most `MAX_SEGMENTS` of the
    /// same 70 under `Off`, and a clear hands the excess segments back.
    #[test]
    fn segment_cap_applies_to_the_ring_not_to_a_trace() {
        let _g = crate::test_level_gate();
        set_enabled(true);
        set_level(Level::Trace);
        clear_events();
        assert_eq!(record_concurrently("cap-trace"), MAX_SEGMENTS + 6);
        set_level(Level::Off);
        clear_events();
        assert!(lock_pool().all.len() <= MAX_SEGMENTS);
        let ringed = record_concurrently("cap-off");
        assert!((1..=MAX_SEGMENTS).contains(&ringed), "{ringed} stored");
        assert!(lock_pool().all.len() <= MAX_SEGMENTS);
        clear_events();
    }

    /// `Trace → Off → Trace` on one thread with a ring wrap in the middle:
    /// nothing panics, the ring overwrote its oldest events only, what
    /// survives is contiguous and in recording order, and a clear empties
    /// the grown segment and returns it to its ring size.
    #[test]
    fn level_flips_keep_order_and_clear_restores_ring_size() {
        let _g = crate::test_level_gate();
        set_enabled(true);
        clear_events();
        let slots = SEGMENT_SLOTS as u64;
        let mut seq = 0..;
        let mut mark = |n: u64| {
            for i in seq.by_ref().take(n as usize) {
                trace::instant_arg("flip", Track::Lane(0), Some(("seq", i)));
            }
        };
        set_level(Level::Trace);
        mark(10);
        set_level(Level::Off);
        mark(slots + 5); // fills the ring, then overwrites the 15 oldest
        set_level(Level::Trace);
        mark(7); // appends to the wrapped ring and grows past it
        let capacity = || {
            SLOT.with(|s| match &*s.borrow() {
                Slot::Active(h) => h.0.lock().capacity(),
                _ => panic!("this thread recorded, it owns a segment"),
            })
        };
        assert!(capacity() > SEGMENT_SLOTS);
        let kept: Vec<u64> = events(false)
            .iter()
            .filter(|e| e.name == "flip")
            .map(|e| e.arg.expect("seq arg").1)
            .collect();
        set_level(Level::Off);
        assert_eq!(kept, (15..slots + 22).collect::<Vec<_>>());
        clear_events();
        assert_eq!(capacity(), SEGMENT_SLOTS);
        assert!(events(false).iter().all(|e| e.name != "flip"));
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
