//! Deterministic fault injection for the threaded cluster.
//!
//! Distributed gradient compression fails in characteristic ways — slow
//! stragglers, workers that die mid-step, payloads corrupted on the wire —
//! and the paper's testbed experiences all three on real hardware. This
//! module reproduces them **deterministically**: a [`FaultPlan`] is a pure
//! function of its seed, so a chaos test that fails replays bit-identically
//! from the same seed.
//!
//! [`FaultyCollective`] wraps any [`Collective`] and injects the planned
//! faults at collective-op boundaries. Because workers run in SPMD lockstep
//! (every worker issues the same op sequence), indexing faults by
//! `(rank, op)` makes the injection point identical across runs regardless
//! of thread scheduling. An op is one call on this wrapper; a training run
//! issues one per *fusion bucket* per step (`grace-core` ships a sealed
//! bucket as a single collective), so a run of `s` steps over a `b`-bucket
//! plan has ops `0..s·b` and `fusion_bytes = 1` makes an op a tensor.
//!
//! Fault model:
//!
//! * **Straggler** — the worker sleeps before entering the op; every peer
//!   observes the delay through the barrier. Surfaces timeout handling.
//! * **Drop** — the worker leaves the cluster at the op boundary; its
//!   `try_*` call returns [`ClusterError::Dropped`] and the survivors see
//!   shrunk membership ([`Collective::live_workers`]).
//! * **Bit-flip corruption** — one bit of the worker's *outgoing byte
//!   payload* is flipped before deposit, so every receiver observes the
//!   same corrupted stream and makes the identical degradation decision
//!   (detected in `grace-core`: a bit inside a tensor's frame fails that
//!   frame's CRC32 trailer and costs that tensor the sender's contribution;
//!   a bit in the bucket envelope around the frames fails the envelope
//!   check and costs the whole bucket that sender — one detection per
//!   receiver either way). Corruption targets byte-carrying ops
//!   (`allgather`/`broadcast`); raw `f32` all-reduce buffers carry no
//!   framing, so a corruption scheduled on a non-byte op is deferred to the
//!   worker's next byte op.

use crate::collectives::{Collective, GatherFrames, Reduction};
use crate::error::ClusterError;
use grace_telemetry::metrics::{self, Counter};
use grace_telemetry::{recorder, trace, Stage, Track};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep for the given delay before entering the op.
    Straggler {
        /// How long the worker stalls.
        delay: Duration,
    },
    /// Leave the cluster at this op boundary.
    Drop,
    /// Flip one bit of the outgoing byte payload (modulo its length).
    CorruptBit {
        /// Which bit to flip, taken modulo the payload's bit length.
        bit: u64,
    },
}

/// A deterministic schedule of faults, keyed by `(rank, collective op)`.
///
/// # Example
///
/// ```
/// use grace_comm::fault::{FaultKind, FaultPlan};
/// use std::time::Duration;
///
/// let plan = FaultPlan::empty()
///     .with_straggler(0, 3, Duration::from_millis(5))
///     .with_drop(2, 10);
/// assert_eq!(plan.fault_for(2, 10), Some(&FaultKind::Drop));
/// assert_eq!(plan.fault_for(2, 9), None);
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: BTreeMap<(usize, u64), FaultKind>,
}

/// Per-op fault probabilities for [`FaultPlan::seeded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability that a given (rank, op) straggles.
    pub straggler: f64,
    /// Probability that a given (rank, op) drops the worker.
    pub drop: f64,
    /// Probability that a given (rank, op) corrupts the outgoing payload.
    pub corrupt: f64,
    /// Upper bound for sampled straggler delays.
    pub max_delay: Duration,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            straggler: 0.01,
            drop: 0.001,
            corrupt: 0.005,
            max_delay: Duration::from_millis(5),
        }
    }
}

/// SplitMix64 step — the same deterministic generator family the tensor
/// crate's seeded RNG uses, inlined here so `grace-comm` stays
/// dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Samples a plan over `n_workers × ops` op slots from `seed`. The same
    /// `(seed, n_workers, ops, rates)` always yields the identical plan.
    ///
    /// At most one worker drops per plan: losing a second worker of a small
    /// test cluster says nothing new, and keeping survivors ≥ n−1 keeps
    /// degraded runs comparable.
    pub fn seeded(seed: u64, n_workers: usize, ops: u64, rates: &FaultRates) -> Self {
        let mut state = seed ^ 0xFA17_FA17_FA17_FA17;
        let mut events = BTreeMap::new();
        let mut dropped = false;
        for rank in 0..n_workers {
            for op in 0..ops {
                let roll = unit_f64(&mut state);
                // Sample delay/bit unconditionally so the stream position —
                // and therefore every later decision — is independent of
                // which faults fire.
                let delay_frac = unit_f64(&mut state);
                let bit = splitmix64(&mut state);
                if roll < rates.drop {
                    if !dropped {
                        dropped = true;
                        events.insert((rank, op), FaultKind::Drop);
                    }
                } else if roll < rates.drop + rates.straggler {
                    let nanos = (rates.max_delay.as_nanos() as f64 * delay_frac) as u64;
                    events.insert(
                        (rank, op),
                        FaultKind::Straggler {
                            delay: Duration::from_nanos(nanos),
                        },
                    );
                } else if roll < rates.drop + rates.straggler + rates.corrupt {
                    events.insert((rank, op), FaultKind::CorruptBit { bit });
                }
            }
        }
        FaultPlan { events }
    }

    /// Adds a straggler delay at `(rank, op)`.
    pub fn with_straggler(mut self, rank: usize, op: u64, delay: Duration) -> Self {
        self.events
            .insert((rank, op), FaultKind::Straggler { delay });
        self
    }

    /// Drops `rank` from the cluster at `op`.
    pub fn with_drop(mut self, rank: usize, op: u64) -> Self {
        self.events.insert((rank, op), FaultKind::Drop);
        self
    }

    /// Flips `bit` (modulo payload size) of `rank`'s outgoing payload at
    /// `op`.
    pub fn with_bit_flip(mut self, rank: usize, op: u64, bit: u64) -> Self {
        self.events
            .insert((rank, op), FaultKind::CorruptBit { bit });
        self
    }

    /// The fault scheduled for `(rank, op)`, if any.
    pub fn fault_for(&self, rank: usize, op: u64) -> Option<&FaultKind> {
        self.events.get(&(rank, op))
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over all scheduled faults in `(rank, op)` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64, &FaultKind)> {
        self.events
            .iter()
            .map(|((rank, op), kind)| (*rank, *op, kind))
    }
}

/// Fault plan plus runtime policy, threaded through training configs.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Collective timeout for the run (surfaces dead peers as
    /// [`ClusterError::Timeout`]).
    pub timeout: Option<Duration>,
}

/// A snapshot of fault counters, comparable across runs for determinism
/// assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Straggler delays injected, per rank.
    pub injected_stragglers: Vec<u64>,
    /// Drops injected, per rank.
    pub injected_drops: Vec<u64>,
    /// Payload corruptions injected, per rank (indexed by the *sender*).
    pub injected_corruptions: Vec<u64>,
    /// Corruptions detected via checksum, per rank (indexed by the
    /// *receiver* that rejected the payload).
    pub detected_corruptions: Vec<u64>,
}

impl FaultSummary {
    /// Total injected faults of all kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected_stragglers.iter().sum::<u64>()
            + self.injected_drops.iter().sum::<u64>()
            + self.injected_corruptions.iter().sum::<u64>()
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    injected_stragglers: Vec<u64>,
    injected_drops: Vec<u64>,
    injected_corruptions: Vec<u64>,
    detected_corruptions: Vec<u64>,
}

/// Shared per-worker fault counters (cloneable, like
/// [`crate::TrafficCounter`]).
///
/// Every `record_*` call also emits an instant marker on the fault timeline
/// track (visible as pins on the `stage: fault` Perfetto track) and bumps
/// the global `fault.injected_total` / `fault.detected_total` counters, so
/// chaos runs are observable without touching the per-run summary API.
#[derive(Debug, Clone)]
pub struct FaultStats {
    inner: Arc<Mutex<StatsInner>>,
    injected_total: Counter,
    detected_total: Counter,
}

impl FaultStats {
    /// Creates counters for `n` workers.
    pub fn new(n: usize) -> Self {
        FaultStats {
            inner: Arc::new(Mutex::new(StatsInner {
                injected_stragglers: vec![0; n],
                injected_drops: vec![0; n],
                injected_corruptions: vec![0; n],
                detected_corruptions: vec![0; n],
            })),
            injected_total: metrics::counter("fault.injected_total"),
            detected_total: metrics::counter("fault.detected_total"),
        }
    }

    fn observe_injected(&self, name: &'static str, rank: usize) {
        self.injected_total.add(1);
        trace::instant_arg(
            name,
            Track::Stage(Stage::Fault),
            Some(("rank", rank as u64)),
        );
        // A planned fault instant is a flight-recorder trigger: snapshot
        // the window leading up to it (latched — only the first fires).
        recorder::trigger(name);
    }

    /// Records an injected straggler delay at `rank`.
    pub fn record_straggler(&self, rank: usize) {
        self.inner.lock().injected_stragglers[rank] += 1;
        self.observe_injected("fault: straggler", rank);
    }

    /// Records an injected drop at `rank`.
    pub fn record_drop(&self, rank: usize) {
        self.inner.lock().injected_drops[rank] += 1;
        self.observe_injected("fault: drop", rank);
    }

    /// Records an injected payload corruption sent by `rank`.
    pub fn record_corruption(&self, rank: usize) {
        self.inner.lock().injected_corruptions[rank] += 1;
        self.observe_injected("fault: corrupt", rank);
    }

    /// Records a checksum-detected corruption observed by receiver `rank`.
    pub fn record_detected(&self, rank: usize) {
        self.inner.lock().detected_corruptions[rank] += 1;
        self.detected_total.add(1);
        trace::instant_arg(
            "fault: detected",
            Track::Stage(Stage::Fault),
            Some(("rank", rank as u64)),
        );
    }

    /// Snapshots all counters.
    pub fn summary(&self) -> FaultSummary {
        let g = self.inner.lock();
        FaultSummary {
            injected_stragglers: g.injected_stragglers.clone(),
            injected_drops: g.injected_drops.clone(),
            injected_corruptions: g.injected_corruptions.clone(),
            detected_corruptions: g.detected_corruptions.clone(),
        }
    }
}

/// Wraps any [`Collective`], injecting the faults a [`FaultPlan`] schedules
/// for this worker at each collective-op boundary.
///
/// Each worker wraps its own endpoint: `FaultyCollective` counts this
/// worker's ops locally (SPMD lockstep makes local counting globally
/// consistent) and consults the shared plan. After a drop fires, every
/// subsequent call returns [`ClusterError::Dropped`] without touching the
/// inner collective.
#[derive(Debug)]
pub struct FaultyCollective<C> {
    inner: C,
    plan: Arc<FaultPlan>,
    stats: FaultStats,
    next_op: AtomicU64,
    dropped: AtomicBool,
    /// A corruption scheduled on a non-byte op, deferred to the next byte
    /// op (raw f32 all-reduce buffers carry no checksummed framing).
    pending_corrupt: Mutex<Option<u64>>,
}

impl<C: Collective> FaultyCollective<C> {
    /// Wraps `inner`, injecting faults from `plan` and counting into
    /// `stats`.
    pub fn new(inner: C, plan: Arc<FaultPlan>, stats: FaultStats) -> Self {
        FaultyCollective {
            inner,
            plan,
            stats,
            next_op: AtomicU64::new(0),
            dropped: AtomicBool::new(false),
            pending_corrupt: Mutex::new(None),
        }
    }

    /// The shared fault counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The wrapped collective.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Enters op `n`: sleeps through stragglers, applies drops. Returns the
    /// op index, or the `Dropped` error this op triggers.
    fn enter_op(&self) -> Result<u64, ClusterError> {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        let rank = self.inner.rank();
        if self.dropped.load(Ordering::Relaxed) {
            return Err(ClusterError::Dropped { rank, op });
        }
        match self.plan.fault_for(rank, op) {
            Some(FaultKind::Straggler { delay }) => {
                self.stats.record_straggler(rank);
                std::thread::sleep(*delay);
            }
            Some(FaultKind::Drop) => {
                self.stats.record_drop(rank);
                self.dropped.store(true, Ordering::Relaxed);
                self.inner.leave();
                return Err(ClusterError::Dropped { rank, op });
            }
            Some(FaultKind::CorruptBit { bit }) => {
                // Applied by byte ops; deferred otherwise.
                *self.pending_corrupt.lock() = Some(*bit);
            }
            None => {}
        }
        Ok(op)
    }

    /// Flips the scheduled bit (if any) in an outgoing byte payload.
    fn corrupt_outgoing(&self, data: &mut [u8]) {
        let mut pending = self.pending_corrupt.lock();
        if let Some(bit) = *pending {
            if data.is_empty() {
                return; // keep it pending for the next non-empty payload
            }
            *pending = None;
            let idx = (bit % (data.len() as u64 * 8)) as usize;
            data[idx / 8] ^= 1 << (idx % 8);
            self.stats.record_corruption(self.inner.rank());
        }
    }
}

impl<C: Collective> Collective for FaultyCollective<C> {
    fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }

    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn live_workers(&self) -> usize {
        self.inner.live_workers()
    }

    fn leave(&self) {
        self.dropped.store(true, Ordering::Relaxed);
        self.inner.leave();
    }

    fn try_allreduce_f32(&self, data: Vec<f32>) -> Result<Reduction, ClusterError> {
        self.enter_op()?;
        self.inner.try_allreduce_f32(data)
    }

    fn try_allgather_frames(
        &self,
        mut data: Vec<u8>,
        frames: &mut GatherFrames,
    ) -> Result<(), ClusterError> {
        self.enter_op()?;
        self.corrupt_outgoing(&mut data);
        self.inner.try_allgather_frames(data, frames)
    }

    fn try_broadcast_bytes(&self, root: usize, mut data: Vec<u8>) -> Result<Vec<u8>, ClusterError> {
        self.enter_op()?;
        if self.inner.rank() == root {
            self.corrupt_outgoing(&mut data);
        }
        self.inner.try_broadcast_bytes(root, data)
    }

    fn try_barrier(&self) -> Result<(), ClusterError> {
        self.enter_op()?;
        self.inner.try_barrier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::SingleWorker;

    #[test]
    fn seeded_plans_are_reproducible() {
        let rates = FaultRates {
            straggler: 0.1,
            drop: 0.05,
            corrupt: 0.1,
            max_delay: Duration::from_millis(2),
        };
        let a = FaultPlan::seeded(42, 4, 100, &rates);
        let b = FaultPlan::seeded(42, 4, 100, &rates);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "rates this high must schedule something");
        let c = FaultPlan::seeded(43, 4, 100, &rates);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn seeded_plan_drops_at_most_one_worker() {
        let rates = FaultRates {
            straggler: 0.0,
            drop: 0.5,
            corrupt: 0.0,
            max_delay: Duration::ZERO,
        };
        let plan = FaultPlan::seeded(7, 8, 50, &rates);
        let drops = plan
            .iter()
            .filter(|(_, _, k)| **k == FaultKind::Drop)
            .count();
        assert_eq!(drops, 1);
    }

    #[test]
    fn builder_composes() {
        let plan = FaultPlan::empty()
            .with_straggler(1, 2, Duration::from_millis(1))
            .with_bit_flip(0, 5, 17)
            .with_drop(3, 9);
        assert_eq!(plan.len(), 3);
        assert_eq!(
            plan.fault_for(0, 5),
            Some(&FaultKind::CorruptBit { bit: 17 })
        );
        assert_eq!(plan.iter().count(), 3);
    }

    #[test]
    fn empty_plan_is_transparent() {
        let c = FaultyCollective::new(
            SingleWorker,
            Arc::new(FaultPlan::empty()),
            FaultStats::new(1),
        );
        assert_eq!(c.allreduce_f32(vec![2.0]), vec![2.0]);
        assert_eq!(c.allgather_bytes(vec![5]), vec![vec![5]]);
        assert_eq!(c.broadcast_bytes(0, vec![9]), vec![9]);
        c.barrier();
        let summary = c.stats().summary();
        assert_eq!(summary.total_injected(), 0);
        assert_eq!(summary.detected_corruptions, vec![0]);
    }

    #[test]
    fn drop_fires_at_the_scheduled_op_and_sticks() {
        let plan = Arc::new(FaultPlan::empty().with_drop(0, 1));
        let c = FaultyCollective::new(SingleWorker, plan, FaultStats::new(1));
        assert!(c.try_barrier().is_ok()); // op 0
        assert_eq!(
            c.try_barrier(),
            Err(ClusterError::Dropped { rank: 0, op: 1 })
        );
        assert_eq!(
            c.try_allreduce_f32(vec![1.0]),
            Err(ClusterError::Dropped { rank: 0, op: 2 })
        );
        assert_eq!(c.stats().summary().injected_drops, vec![1]);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let plan = Arc::new(FaultPlan::empty().with_bit_flip(0, 0, 3));
        let c = FaultyCollective::new(SingleWorker, plan, FaultStats::new(1));
        let out = c.try_allgather_bytes(vec![0u8, 0u8]).unwrap();
        assert_eq!(out[0].as_deref(), Some(&[0b0000_1000u8, 0][..]));
        assert_eq!(c.stats().summary().injected_corruptions, vec![1]);
    }

    #[test]
    fn corruption_on_f32_op_defers_to_next_byte_op() {
        let plan = Arc::new(FaultPlan::empty().with_bit_flip(0, 0, 0));
        let c = FaultyCollective::new(SingleWorker, plan, FaultStats::new(1));
        // Op 0 is an allreduce: raw f32s are not corruptible, fault defers.
        assert_eq!(c.allreduce_f32(vec![1.5]), vec![1.5]);
        // Op 1 ships bytes: the deferred flip lands here.
        let out = c.try_allgather_bytes(vec![0u8]).unwrap();
        assert_eq!(out[0].as_deref(), Some(&[1u8][..]));
    }

    #[test]
    fn straggler_delays_and_counts() {
        let plan = Arc::new(FaultPlan::empty().with_straggler(0, 0, Duration::from_millis(20)));
        let c = FaultyCollective::new(SingleWorker, plan, FaultStats::new(1));
        let t0 = std::time::Instant::now();
        c.barrier();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(c.stats().summary().injected_stragglers, vec![1]);
    }
}
