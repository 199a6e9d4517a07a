//! Multi-threaded collective operations.
//!
//! [`ThreadedCluster::run`] spawns one OS thread per worker and gives each a
//! [`WorkerHandle`] implementing [`Collective`]. The collectives follow SPMD
//! semantics: **every** worker must call the same sequence of collective
//! operations in the same order, like MPI ranks.
//!
//! The implementation exchanges payloads through a shared deposit board
//! guarded by a reusable barrier. This is semantically equivalent to
//! Horovod's ring algorithms (same results, same per-worker payloads); the
//! *timing* of ring algorithms is modelled analytically by
//! [`crate::model::NetworkModel`], so the in-memory data path here only needs
//! to be correct, not network-shaped.
//!
//! # Fault tolerance
//!
//! The barrier supports **dynamic membership**: a worker that leaves the
//! cluster ([`Collective::leave`], used by the fault layer in
//! [`crate::fault`]) shrinks the expected arrival count and releases any
//! current waiters, so survivors keep making progress instead of
//! deadlocking. A per-cluster [`ClusterOptions::timeout`] bounds every
//! barrier wait; expiry surfaces as [`ClusterError::Timeout`] rather than a
//! hang. The fallible `try_*` methods report which ranks actually
//! contributed to each collective, which is what lets callers rescale
//! aggregates by the surviving-worker count.

use crate::error::ClusterError;
use crate::traffic::TrafficCounter;
use grace_telemetry::metrics::{self, HistogramHandle};
use grace_telemetry::{trace, StageTimer, Track};
use grace_tensor::simd::sum_into;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Logical wire bytes one worker sends for a ring all-reduce of `elems`
/// `f32` elements across `n` workers: `2·(n−1)/n · 4·elems` (reduce-scatter
/// plus all-gather phase). The single source of truth for all-reduce traffic
/// accounting — [`WorkerHandle`] records exactly this, and the traffic tests
/// recompute it.
pub fn ring_allreduce_wire_bytes(n: usize, elems: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        (2 * (n - 1) * elems * 4 / n) as u64
    }
}

/// Gathered per-rank payloads backed by one contiguous pooled buffer.
///
/// [`Collective::try_allgather_frames`] fills one of these instead of
/// returning fresh per-rank `Vec<u8>`s: present ranks' payloads live as
/// sub-ranges of `body`, so steady-state gathers reuse the same backing
/// allocation and callers borrow `&[u8]` slices straight out of it — the
/// shape zero-copy payload decoding ([`grace-core`'s `PayloadReader`])
/// wants on the receive side.
#[derive(Debug, Default)]
pub struct GatherFrames {
    body: Vec<u8>,
    slots: Vec<Option<std::ops::Range<usize>>>,
}

impl GatherFrames {
    /// Empty frames; the backing buffer grows on first gather and is
    /// reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rank slots filled by the last gather.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Borrows rank `rank`'s payload; `None` for a departed rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is outside the last gather's slot range.
    pub fn slot(&self, rank: usize) -> Option<&[u8]> {
        self.slots[rank].clone().map(|r| &self.body[r])
    }

    /// Clears slots and body, keeping both allocations.
    pub fn clear(&mut self) {
        self.body.clear();
        self.slots.clear();
    }

    /// Swaps `body` in as the backing buffer and hands the previous one
    /// back in its place. Transport overrides that receive one verified
    /// response frame push slot ranges first
    /// ([`push_range`](Self::push_range)), then swap their read buffer in
    /// — no per-slot copy ever happens, and the buffer swapped out is the
    /// transport's next read buffer, so neither side allocates once warm.
    /// Ranges must lie within `body`; they are trusted here and
    /// bounds-checked on access.
    pub fn swap_body(&mut self, body: &mut Vec<u8>) {
        std::mem::swap(&mut self.body, body);
    }

    /// Appends a present slot covering `range` of the adopted body.
    pub fn push_range(&mut self, range: std::ops::Range<usize>) {
        self.slots.push(Some(range));
    }

    /// Appends an absent slot (a departed rank).
    pub fn push_absent(&mut self) {
        self.slots.push(None);
    }

    /// Refills every slot from `slots` in rank order (`None` for a departed
    /// rank), copying each present payload once into the backing buffer —
    /// the gather of the deposit board, and of an engine that holds every
    /// rank's lane.
    pub fn fill<'s>(&mut self, slots: impl Iterator<Item = Option<&'s [u8]>> + Clone) {
        self.clear();
        // Sized once, exactly: grown by doubling, the pooled buffer ends up
        // to 2× too large (+1.5 MB peak RSS on a 2-rank VGG19 run).
        let total = slots.clone().flatten().map(<[u8]>::len).sum();
        self.body.reserve_exact(total);
        for slot in slots {
            let start = self.body.len();
            self.body.extend_from_slice(slot.unwrap_or_default());
            self.slots.push(slot.map(|_| start..self.body.len()));
        }
    }
}

/// An all-reduce result plus how many workers actually contributed — the
/// denominator for mean-style rescaling under degraded membership.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    /// Elementwise sum over the contributing workers.
    pub sum: Vec<f32>,
    /// Number of live workers whose buffers were summed.
    pub contributors: usize,
}

impl Reduction {
    /// Sums contributions elementwise in rank order: `first` is the
    /// accumulator and each of `rest` is added in place by
    /// [`grace_tensor::simd::sum_into`]. The one summation order and NaN
    /// rule of the deposit board, of an engine that holds every rank's lane
    /// and of the socket hub, so all give the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the contributions' lengths differ.
    pub fn sum_in_rank_order<B: AsRef<[f32]>>(
        mut first: Vec<f32>,
        rest: impl IntoIterator<Item = B>,
    ) -> Reduction {
        let mut contributors = 1;
        for other in rest {
            sum_into(&mut first, other.as_ref());
            contributors += 1;
        }
        Reduction {
            sum: first,
            contributors,
        }
    }
}

/// SPMD collective operations available to each worker.
///
/// The two Horovod primitives GRACE's methods use (§IV-B), `Allreduce` and
/// `Allgather`, plus a barrier. A transport implements the three fallible
/// `try_*` operations, which surface membership and timeout failures as
/// [`ClusterError`] and report degraded membership; the infallible forms
/// and the owned-`Vec` gather are written once, on top.
pub trait Collective {
    /// Total number of workers in the job.
    fn n_workers(&self) -> usize;

    /// This worker's rank in `0..n_workers()`.
    fn rank(&self) -> usize;

    /// Fallible elementwise-sum all-reduce: the sum over live workers plus
    /// the contributor count. All workers pass buffers of identical length.
    fn try_allreduce_f32(&self, data: Vec<f32>) -> Result<Reduction, ClusterError>;

    /// Fallible all-gather into a pooled [`GatherFrames`]: each present
    /// rank's payload lands as a sub-range of one contiguous backing buffer
    /// the caller borrows from, instead of a fresh `Vec<u8>` per rank;
    /// departed ranks are absent slots. Payload sizes may differ.
    fn try_allgather_frames(
        &self,
        data: Vec<u8>,
        frames: &mut GatherFrames,
    ) -> Result<(), ClusterError>;

    /// Fallible barrier: blocks until every live worker reaches it.
    fn try_barrier(&self) -> Result<(), ClusterError>;

    /// Fallible all-gather returning owned payloads indexed by rank; `None`
    /// marks ranks that have left the cluster.
    fn try_allgather_bytes(&self, data: Vec<u8>) -> Result<Vec<Option<Vec<u8>>>, ClusterError> {
        let mut frames = GatherFrames::new();
        self.try_allgather_frames(data, &mut frames)?;
        Ok((0..frames.n_slots())
            .map(|rank| frames.slot(rank).map(<[u8]>::to_vec))
            .collect())
    }

    /// Elementwise-sum all-reduce; every worker receives the sum. Panics
    /// if the collective fails or buffer lengths differ across workers.
    fn allreduce_f32(&self, data: Vec<f32>) -> Vec<f32> {
        self.try_allreduce_f32(data).expect("collective failed").sum
    }

    /// Gathers every worker's byte payload, indexed by rank. Panics if the
    /// collective fails or a worker has departed.
    fn allgather_bytes(&self, data: Vec<u8>) -> Vec<Vec<u8>> {
        self.try_allgather_bytes(data)
            .expect("collective failed")
            .into_iter()
            .map(|slot| slot.expect("allgather with departed workers needs try_allgather_bytes"))
            .collect()
    }

    /// Blocks until every worker reaches the barrier. Panics if the
    /// collective fails.
    fn barrier(&self) {
        self.try_barrier().expect("collective failed");
    }

    /// Number of workers still participating (≤ [`Collective::n_workers`]).
    fn live_workers(&self) -> usize {
        self.n_workers()
    }

    /// Permanently removes this worker from the cluster, shrinking the
    /// barrier membership so the survivors keep making progress. Idempotent;
    /// a no-op for implementations without membership.
    fn leave(&self) {}
}

/// Monitoring hooks the training drivers read each step, factored out of
/// [`WorkerHandle`] so the same worker loop runs over any transport (shared
/// memory, TCP, Unix sockets) without caring which one it got.
///
/// All three accessors are observational: they never change collective
/// results, only what a run can report about itself.
pub trait ClusterIntrospect: Collective {
    /// Collective ops this endpoint has started (monotone, per-worker).
    fn ops_started(&self) -> u64;

    /// Copies each rank's cumulative barrier-wait nanoseconds into `out`
    /// (`out.len()` must equal [`Collective::n_workers`]). Transports
    /// without a shared view (sockets) fill only their own slot and zero
    /// the rest — the per-rank skew signal is then unavailable, not wrong.
    fn barrier_waits_into(&self, out: &mut [u64]);

    /// Payload-accounting bytes this rank has shipped so far (identical
    /// formulas across transports: gathered payload lengths plus the ring
    /// all-reduce model for dense reductions).
    fn sent_bytes(&self) -> u64;

    /// Tells the transport which training step subsequent collectives
    /// belong to, so it can stamp wire frames with a trace context.
    /// Default: ignored (shared-memory transports need no context).
    fn note_step(&self, _step: u64) {}

    /// The transport's current estimate of `reference_clock − local_clock`
    /// as `(offset_ns, rtt_ns)`, when it maintains one (socket ranks sync
    /// against the hub). `None` on transports that share a clock already.
    fn clock_sync(&self) -> Option<(i64, u64)> {
        None
    }

    /// Copies the latest per-rank request-arrival stamps (reference-clock
    /// nanoseconds, 0 for absent ranks) into `out`; returns false when the
    /// transport has no wire-level arrival view (then `out` is untouched).
    fn wire_arrivals_into(&self, _out: &mut [u64]) -> bool {
        false
    }
}

impl ClusterIntrospect for WorkerHandle {
    fn ops_started(&self) -> u64 {
        WorkerHandle::ops_started(self)
    }

    fn barrier_waits_into(&self, out: &mut [u64]) {
        WorkerHandle::barrier_waits_into(self, out);
    }

    fn sent_bytes(&self) -> u64 {
        self.traffic().bytes_sent(self.rank)
    }
}

/// Degenerate single-process "cluster" (rank 0 of 1): every collective is the
/// identity. Useful for running distributed code paths unmodified in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleWorker;

impl Collective for SingleWorker {
    fn n_workers(&self) -> usize {
        1
    }

    fn rank(&self) -> usize {
        0
    }

    fn try_allreduce_f32(&self, data: Vec<f32>) -> Result<Reduction, ClusterError> {
        Ok(Reduction {
            sum: data,
            contributors: 1,
        })
    }

    fn try_allgather_frames(
        &self,
        mut data: Vec<u8>,
        frames: &mut GatherFrames,
    ) -> Result<(), ClusterError> {
        frames.clear();
        frames.push_range(0..data.len());
        frames.swap_body(&mut data);
        Ok(())
    }

    fn try_barrier(&self) -> Result<(), ClusterError> {
        Ok(())
    }
}

/// A reusable barrier with dynamic membership and timeout support.
///
/// Unlike `std::sync::Barrier`, the expected arrival count can shrink while
/// waiters are blocked ([`DynBarrier::leave`]) — the survivors are released
/// as soon as the remaining membership has fully arrived — and waits can be
/// bounded by a deadline.
#[derive(Debug)]
struct DynBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Debug)]
struct BarrierState {
    expected: usize,
    arrived: usize,
    generation: u64,
}

impl DynBarrier {
    fn new(expected: usize) -> Self {
        DynBarrier {
            state: Mutex::new(BarrierState {
                expected,
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Waits for the current membership to arrive. `Err(())` on timeout, in
    /// which case this waiter has withdrawn its arrival.
    fn wait(&self, timeout: Option<Duration>) -> Result<(), ()> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut s = self.state.lock();
        s.arrived += 1;
        if s.arrived >= s.expected {
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = s.generation;
        loop {
            match deadline {
                None => self.cv.wait(&mut s),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d || self.cv.wait_for(&mut s, d - now).timed_out() {
                        if s.generation != gen {
                            return Ok(());
                        }
                        s.arrived -= 1;
                        return Err(());
                    }
                }
            }
            if s.generation != gen {
                return Ok(());
            }
        }
    }

    /// Removes one member. Releases current waiters if the shrunk
    /// membership has now fully arrived.
    fn leave(&self) {
        let mut s = self.state.lock();
        s.expected = s.expected.saturating_sub(1);
        if s.expected > 0 && s.arrived >= s.expected {
            s.arrived = 0;
            s.generation += 1;
        }
        self.cv.notify_all();
    }
}

#[derive(Debug)]
struct Board {
    f32_slots: Mutex<Vec<Vec<f32>>>,
    byte_slots: Mutex<Vec<Vec<u8>>>,
    /// Which ranks are still cluster members; stale slots of departed ranks
    /// are excluded from every aggregation.
    alive: Mutex<Vec<bool>>,
    /// Cumulative nanoseconds each rank has idled at barriers — the raw
    /// material for straggler-skew detection: a delayed rank waits *less*
    /// than its peers, who all stall behind it.
    barrier_wait_ns: Vec<AtomicU64>,
    barrier: DynBarrier,
    n: usize,
}

impl Board {
    fn new(n: usize) -> Self {
        Board {
            f32_slots: Mutex::new(vec![Vec::new(); n]),
            byte_slots: Mutex::new(vec![Vec::new(); n]),
            alive: Mutex::new(vec![true; n]),
            barrier_wait_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            barrier: DynBarrier::new(n),
            n,
        }
    }
}

/// Options for [`ThreadedCluster::run_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterOptions {
    /// Upper bound on any single barrier/collective wait. `None` waits
    /// forever (the fault-free default); with a timeout, a worker stuck
    /// waiting on a dead peer gets [`ClusterError::Timeout`] instead of
    /// deadlocking.
    pub timeout: Option<Duration>,
}

impl ClusterOptions {
    /// Options with a collective timeout.
    pub fn with_timeout(timeout: Duration) -> Self {
        ClusterOptions {
            timeout: Some(timeout),
        }
    }
}

/// A worker's endpoint into a [`ThreadedCluster`]; implements [`Collective`].
#[derive(Debug, Clone)]
pub struct WorkerHandle {
    board: Arc<Board>,
    rank: usize,
    traffic: TrafficCounter,
    timeout: Option<Duration>,
    /// Per-worker collective-op counter, for error context.
    ops: Arc<AtomicU64>,
    /// `comm.barrier_wait_ns` — how long workers idle at barriers (the
    /// straggler-skew signal on the threaded path).
    barrier_hist: HistogramHandle,
}

impl WorkerHandle {
    /// The shared traffic counter recording payload bytes per worker.
    pub fn traffic(&self) -> &TrafficCounter {
        &self.traffic
    }

    /// Collective operations this worker has started.
    pub fn ops_started(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Copies every rank's cumulative barrier-wait nanoseconds into `out`
    /// (allocation-free; `out` must hold [`Collective::n_workers`] slots).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the worker count.
    pub fn barrier_waits_into(&self, out: &mut [u64]) {
        assert_eq!(out.len(), self.board.n, "need one slot per rank");
        for (slot, w) in out.iter_mut().zip(self.board.barrier_wait_ns.iter()) {
            *slot = w.load(Ordering::Relaxed);
        }
    }

    fn next_op(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed)
    }

    fn wait_barrier(&self, op: u64) -> Result<(), ClusterError> {
        let timer = StageTimer::start();
        let result = self
            .board
            .barrier
            .wait(self.timeout)
            .map_err(|()| ClusterError::Timeout {
                rank: self.rank,
                op,
                waited: self.timeout.unwrap_or_default(),
            });
        let ns = timer.finish("barrier_wait", Track::Lane(self.rank));
        self.barrier_hist.record(ns);
        self.board.barrier_wait_ns[self.rank].fetch_add(ns, Ordering::Relaxed);
        result
    }
}

impl Collective for WorkerHandle {
    fn n_workers(&self) -> usize {
        self.board.n
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn live_workers(&self) -> usize {
        self.board.alive.lock().iter().filter(|a| **a).count()
    }

    fn leave(&self) {
        let mut alive = self.board.alive.lock();
        if alive[self.rank] {
            alive[self.rank] = false;
            // Mark membership before shrinking the barrier: any waiter the
            // shrink releases must already see this rank as dead.
            drop(alive);
            self.board.barrier.leave();
        }
    }

    fn try_allreduce_f32(&self, data: Vec<f32>) -> Result<Reduction, ClusterError> {
        let _span = trace::span("allreduce", Track::Lane(self.rank));
        let op = self.next_op();
        let len = data.len();
        self.traffic.record(
            self.rank,
            ring_allreduce_wire_bytes(self.live_workers(), len),
        );
        self.board.f32_slots.lock()[self.rank] = data;
        self.wait_barrier(op)?;
        let reduction = {
            let mut slots = self.board.f32_slots.lock();
            let alive = self.board.alive.lock();
            if alive[self.rank] && alive.iter().filter(|a| **a).count() == 1 {
                // The only live contributor: its deposit is the sum, and no
                // one else reads the slot — the buffer goes straight back.
                Reduction {
                    sum: std::mem::take(&mut slots[self.rank]),
                    contributors: 1,
                }
            } else {
                let mut live = slots.iter().zip(alive.iter()).filter(|(_, a)| **a);
                let (first, _) = live.next().expect("at least the caller is alive");
                Reduction::sum_in_rank_order(first.clone(), live.map(|(slot, _)| slot))
            }
        };
        // Second barrier: nobody deposits for the next round before all read.
        self.wait_barrier(op)?;
        Ok(reduction)
    }

    /// Present ranks' payloads are copied once, from the board straight
    /// into `frames`' pooled backing buffer.
    fn try_allgather_frames(
        &self,
        data: Vec<u8>,
        frames: &mut GatherFrames,
    ) -> Result<(), ClusterError> {
        let _span = trace::span("allgather", Track::Lane(self.rank));
        let op = self.next_op();
        self.traffic.record(self.rank, data.len() as u64);
        self.board.byte_slots.lock()[self.rank] = data;
        self.wait_barrier(op)?;
        {
            let slots = self.board.byte_slots.lock();
            let alive = self.board.alive.lock();
            let ranks = slots.iter().zip(alive.iter());
            frames.fill(ranks.map(|(slot, live)| live.then_some(&slot[..])));
        }
        self.wait_barrier(op)?;
        Ok(())
    }

    fn try_barrier(&self) -> Result<(), ClusterError> {
        let op = self.next_op();
        self.wait_barrier(op)
    }
}

/// Spawns `n` worker threads running the same SPMD function.
#[derive(Debug)]
pub struct ThreadedCluster;

impl ThreadedCluster {
    /// Runs `f(handle)` on `n` concurrent workers and returns the per-rank
    /// results in rank order.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or propagates the first worker panic.
    ///
    /// # Example
    ///
    /// ```
    /// use grace_comm::{Collective, ThreadedCluster};
    ///
    /// let sums = ThreadedCluster::run(4, |c| {
    ///     let mine = vec![c.rank() as f32 + 1.0];
    ///     c.allreduce_f32(mine)[0]
    /// });
    /// assert_eq!(sums, vec![10.0; 4]); // 1+2+3+4 on every worker
    /// ```
    pub fn run<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(WorkerHandle) -> T + Sync,
    {
        Self::run_with(n, ClusterOptions::default(), f)
    }

    /// Like [`ThreadedCluster::run`], with explicit [`ClusterOptions`]
    /// (notably a collective timeout for fault-tolerant runs).
    pub fn run_with<T, F>(n: usize, options: ClusterOptions, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(WorkerHandle) -> T + Sync,
    {
        assert!(n > 0, "need at least one worker");
        let board = Arc::new(Board::new(n));
        let traffic = TrafficCounter::new(n);
        let barrier_hist = metrics::histogram("comm.barrier_wait_ns");
        std::thread::scope(|s| {
            let mut joins = Vec::with_capacity(n);
            for rank in 0..n {
                let handle = WorkerHandle {
                    board: Arc::clone(&board),
                    rank,
                    traffic: traffic.clone(),
                    timeout: options.timeout,
                    ops: Arc::new(AtomicU64::new(0)),
                    barrier_hist: barrier_hist.clone(),
                };
                let f = &f;
                joins.push(s.spawn(move || f(handle)));
            }
            joins
                .into_iter()
                .map(|j| j.join().expect("worker thread panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_identities() {
        let c = SingleWorker;
        assert_eq!(c.n_workers(), 1);
        assert_eq!(c.rank(), 0);
        assert_eq!(c.allreduce_f32(vec![1.0, 2.0]), vec![1.0, 2.0]);
        assert_eq!(c.allgather_bytes(vec![7]), vec![vec![7]]);
        c.barrier();
        assert_eq!(c.live_workers(), 1);
        let r = c.try_allreduce_f32(vec![3.0]).unwrap();
        assert_eq!((r.sum, r.contributors), (vec![3.0], 1));
    }

    #[test]
    fn allreduce_sums_across_workers() {
        let results = ThreadedCluster::run(8, |c| {
            let data = vec![c.rank() as f32, 1.0];
            c.allreduce_f32(data)
        });
        for r in results {
            assert_eq!(r, vec![28.0, 8.0]);
        }
    }

    #[test]
    fn repeated_allreduces_do_not_cross_rounds() {
        let results = ThreadedCluster::run(4, |c| {
            let mut acc = 0.0;
            for round in 0..50 {
                let v = vec![(c.rank() + round) as f32];
                acc += c.allreduce_f32(v)[0];
            }
            acc
        });
        // Round r sum = 6 + 4r; total over 50 rounds = 300 + 4*1225.
        let expect = 300.0 + 4.0 * 1225.0;
        for r in results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn allgather_collects_variable_sized_payloads() {
        let results = ThreadedCluster::run(3, |c| {
            let payload = vec![c.rank() as u8; c.rank() + 1];
            c.allgather_bytes(payload)
        });
        for r in results {
            assert_eq!(r, vec![vec![0], vec![1, 1], vec![2, 2, 2]]);
        }
    }

    #[test]
    fn mixed_collective_sequence_is_consistent() {
        let results = ThreadedCluster::run(4, |c| {
            let s = c.allreduce_f32(vec![1.0])[0];
            let g = c.allgather_bytes(vec![c.rank() as u8]);
            c.barrier();
            g[3][0] + s as u8
        });
        for r in results {
            assert_eq!(r, 7); // 3 + 4
        }
    }

    #[test]
    fn traffic_counter_accounts_allgather_payloads() {
        let n = 4;
        let results = ThreadedCluster::run(n, |c| {
            let _ = c.allgather_bytes(vec![0u8; 100]);
            c.traffic().clone()
        });
        assert_eq!(results[0].total_bytes(), 400);
        assert_eq!(results[0].bytes_sent(2), 100);
    }

    #[test]
    fn traffic_counter_uses_ring_formula_for_allreduce() {
        let n = 4;
        let elems = 1000;
        let results = ThreadedCluster::run(n, |c| {
            let _ = c.allreduce_f32(vec![0.0; elems]);
            c.traffic().clone()
        });
        let per_worker = ring_allreduce_wire_bytes(n, elems);
        assert!(per_worker > 0);
        for rank in 0..n {
            assert_eq!(results[0].bytes_sent(rank), per_worker);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        let _ = ThreadedCluster::run(0, |_| ());
    }

    #[test]
    fn departed_worker_is_excluded_from_collectives() {
        let results = ThreadedCluster::run(4, |c| {
            if c.rank() == 2 {
                c.leave();
                return (Vec::new(), Vec::new());
            }
            let r = c.try_allreduce_f32(vec![c.rank() as f32 + 1.0]).unwrap();
            assert_eq!(r.contributors, 3);
            let g = c.try_allgather_bytes(vec![c.rank() as u8]).unwrap();
            (r.sum, g)
        });
        for (rank, (sum, gathered)) in results.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            assert_eq!(sum, &vec![1.0 + 2.0 + 4.0], "rank {rank}");
            assert_eq!(gathered.len(), 4);
            assert!(gathered[2].is_none(), "dead slot must be masked");
            assert_eq!(gathered[0].as_deref(), Some(&[0u8][..]));
        }
    }

    /// A lone live contributor gets its own buffer back as the sum — from a
    /// board of one, and from a board whose peers have left — not a copy.
    #[test]
    fn a_lone_contributor_gets_its_own_buffer_back() {
        for world in [1, 3] {
            let results = ThreadedCluster::run(world, |c| {
                if c.rank() > 0 {
                    c.leave();
                    return true;
                }
                (0..3).all(|round| {
                    let data = vec![round as f32; 4];
                    let sent = data.as_ptr();
                    let r = c.try_allreduce_f32(data).unwrap();
                    (r.sum.as_ptr(), r.sum, r.contributors) == (sent, vec![round as f32; 4], 1)
                })
            });
            assert!(results.iter().all(|&ok| ok), "world {world}");
        }
    }

    #[test]
    fn leave_mid_run_releases_current_waiters() {
        // Rank 1 leaves after a few rounds; the survivors keep reducing and
        // observe the shrunk membership, with no deadlock.
        let results = ThreadedCluster::run_with(
            3,
            ClusterOptions::with_timeout(Duration::from_secs(10)),
            |c| {
                let mut sums = Vec::new();
                for round in 0..6 {
                    if c.rank() == 1 && round == 3 {
                        c.leave();
                        return sums;
                    }
                    let r = c.try_allreduce_f32(vec![1.0]).unwrap();
                    sums.push((r.sum[0], r.contributors));
                }
                sums
            },
        );
        for rank in [0, 2] {
            let sums = &results[rank];
            assert_eq!(sums[..3], [(3.0, 3), (3.0, 3), (3.0, 3)], "rank {rank}");
            assert_eq!(sums[3..], [(2.0, 2), (2.0, 2), (2.0, 2)], "rank {rank}");
        }
        assert_eq!(results[1].len(), 3);
    }

    #[test]
    fn dead_worker_without_leave_times_out_with_structured_error() {
        let results = ThreadedCluster::run_with(
            3,
            ClusterOptions::with_timeout(Duration::from_millis(100)),
            |c| {
                if c.rank() == 0 {
                    // Dies silently: never reaches the collective, never
                    // calls leave().
                    return Ok(Reduction {
                        sum: Vec::new(),
                        contributors: 0,
                    });
                }
                c.try_allreduce_f32(vec![1.0])
            },
        );
        for rank in [1, 2] {
            match &results[rank] {
                Err(ClusterError::Timeout { rank: r, op, .. }) => {
                    assert_eq!(*r, rank);
                    assert_eq!(*op, 0);
                }
                other => panic!("rank {rank}: expected timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn barrier_waits_accumulate_per_rank() {
        let waits = ThreadedCluster::run(3, |c| {
            if c.rank() == 0 {
                // The straggler: peers stall at the barrier behind it.
                std::thread::sleep(Duration::from_millis(20));
            }
            c.barrier();
            // Second barrier: every rank's wait from round one is recorded
            // (and visible) before anyone reads the board.
            c.barrier();
            let mut out = vec![0u64; c.n_workers()];
            c.barrier_waits_into(&mut out);
            out
        });
        for out in &waits {
            assert_eq!(out.len(), 3);
            // The non-stragglers idled roughly the injected delay; the
            // straggler itself barely waited.
            let max = *out.iter().max().unwrap();
            assert!(max >= 10_000_000, "peers should stall ≥10ms, got {max}ns");
            assert!(out[0] < max / 2, "the straggler must wait least: {out:?}");
        }
    }

    #[test]
    fn ring_formula_edge_cases() {
        assert_eq!(ring_allreduce_wire_bytes(1, 1000), 0);
        assert_eq!(ring_allreduce_wire_bytes(2, 100), 400);
        // 2*(4-1)*1000*4/4 = 6000
        assert_eq!(ring_allreduce_wire_bytes(4, 1000), 6000);
    }
}
