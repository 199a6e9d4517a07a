//! Algorithm 1 over real concurrent workers and real collectives.
//!
//! Each worker is an OS thread holding a full model replica; gradients are
//! exchanged through `grace-comm`'s [`Collective`] operations exactly as
//! Horovod would. The batch schedule, compressor state and aggregation order
//! are identical to [`crate::trainer::run_simulated`], so both modes produce
//! bit-identical parameters — which the integration tests assert. This is the
//! execution mode that validates that the deterministic simulator is not
//! quietly diverging from a real SPMD run.
//!
//! # Fault tolerance
//!
//! When [`TrainConfig::fault`] is set, each worker's endpoint is wrapped in a
//! [`FaultyCollective`] and the run degrades gracefully instead of dying:
//!
//! * a **dropped** worker returns [`ClusterError::Dropped`] from its loop and
//!   the survivors rescale every aggregate by the live-worker count;
//! * a **corrupted** or malformed gathered frame is rejected by
//!   [`crate::AggMerger::merge_frames`]; since the sender's bytes are
//!   damaged *before* deposit, every receiver rejects the identical frame
//!   and drops that contribution in lockstep — replicas stay bit-identical;
//! * a worker stuck waiting on a dead peer times out with a structured
//!   [`ClusterError::Timeout`] rather than deadlocking.

use crate::bucket::PlanBuilder;
use crate::compressor::{CommStrategy, Compressor};
use crate::exchange::{self, wire_bytes, EncodedTensor, QualitySensors, WorkerLane};
use crate::health::{HealthMonitor, StepObservation};
use crate::memory::Memory;
use crate::payload;
use crate::process::MakeWorker;
use crate::trainer::{
    gradient_l2, start_metrics_server, steps_per_epoch, worker_batch_indices, ExecBackend,
    TrainConfig,
};
use grace_comm::{
    net, ClusterError, ClusterIntrospect, ClusterOptions, Collective, FaultPlan, FaultStats,
    FaultSummary, FaultyCollective, GatherFrames, ThreadedCluster,
};
use grace_nn::data::Task;
use grace_nn::network::Network;
use grace_nn::optim::Optimizer;
use grace_telemetry::{recorder, StageTimer, Track};
use grace_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of a threaded run (as observed by the lowest surviving rank; in a
/// fault-free run all workers agree).
#[derive(Debug)]
pub struct ThreadedResult {
    /// Final model parameters (identical across surviving workers).
    pub final_params: Vec<(String, Tensor)>,
    /// Final quality on the task's held-out set.
    pub final_quality: f64,
    /// Compressed bytes this worker generated in total.
    pub bytes_sent: u64,
    /// Workers still alive at the end of the run.
    pub survivors: usize,
    /// Injected/detected fault counters (all zero in fault-free runs).
    pub faults: FaultSummary,
}

/// Runs data-parallel training with one thread per worker over the
/// in-process deposit board.
///
/// `make_worker` builds, for each rank, the worker's private
/// (network, optimizer, compressor, memory) — typically from the same seed so
/// replicas start identical.
///
/// With [`TrainConfig::fault`] set, planned faults are injected and the run
/// returns the lowest surviving rank's view plus fault counters.
///
/// # Panics
///
/// Panics if configuration is inconsistent, a worker thread panics, or no
/// worker survives the fault plan.
pub fn run_threaded<F>(cfg: &TrainConfig, task: &dyn Task, make_worker: F) -> ThreadedResult
where
    F: Fn(
            usize,
        ) -> (
            Network,
            Box<dyn Optimizer>,
            Box<dyn Compressor>,
            Box<dyn Memory>,
        ) + Sync,
{
    launch(cfg, task, &make_worker, ExecBackend::Threads)
}

/// The fault plan and collective options a run's [`TrainConfig::fault`]
/// asks for (an empty plan and the defaults without one).
pub(crate) fn plan_and_options(cfg: &TrainConfig) -> (Arc<FaultPlan>, ClusterOptions) {
    match &cfg.fault {
        Some(fc) => (
            Arc::new(fc.plan.clone()),
            ClusterOptions {
                timeout: fc.timeout,
            },
        ),
        None => (Arc::new(FaultPlan::empty()), ClusterOptions::default()),
    }
}

/// The in-process cluster launcher behind [`run_threaded`] and
/// [`crate::process::run_cluster`]: `n` worker threads of this process run
/// [`worker_loop`] over `backend`'s endpoints — the deposit board, or real
/// localhost sockets through a rendezvous hub. Fault semantics, survivor
/// counting and the lowest-surviving-rank result are the same on every
/// backend, which is what the equivalence suites pin.
///
/// # Panics
///
/// Panics if the hub cannot bind, a worker cannot join or panics, or no
/// worker survives the fault plan.
pub(crate) fn launch(
    cfg: &TrainConfig,
    task: &dyn Task,
    make_worker: &MakeWorker<'_>,
    backend: ExecBackend,
) -> ThreadedResult {
    if let Some(level) = cfg.telemetry {
        grace_telemetry::set_level(level);
    }
    let sockets = backend != ExecBackend::Threads;
    // All worker threads share one process (and one flight-recorder ring
    // pool); the bundle is tagged with the run, not a rank.
    recorder::configure(
        &cfg.run_tag(if sockets { "socket" } else { "threaded" }),
        None,
    );
    let n = cfg.n_workers;
    let stats = FaultStats::new(n);
    let (plan, options) = plan_and_options(cfg);
    // One endpoint for the whole cluster, alive until every worker joins.
    let metrics_server = start_metrics_server(cfg);
    let results = if sockets {
        #[cfg(unix)]
        let endpoint = (backend == ExecBackend::SocketUds).then(net::Endpoint::ephemeral_uds);
        #[cfg(not(unix))]
        let endpoint = None;
        net::run_socket_local(n, options, endpoint, |e| {
            let out = run_rank(e, cfg, task, make_worker, &plan, &stats);
            if out.is_err() {
                recorder::trigger("recorder: cluster error");
            }
            out
        })
    } else {
        ThreadedCluster::run_with(n, options, |e| {
            run_rank(e, cfg, task, make_worker, &plan, &stats)
        })
    };
    drop(metrics_server);
    // Worker-thread trace buffers drained on thread exit (Drop); pick up
    // anything recorded on the caller's thread too.
    grace_telemetry::trace::flush_thread();
    let survivors = results.iter().filter(|r| r.is_ok()).count();
    let first_ok = results
        .into_iter()
        .flatten()
        .next()
        .unwrap_or_else(|| panic!("no worker survived the fault plan"));
    ThreadedResult {
        final_params: first_ok.final_params,
        final_quality: first_ok.final_quality,
        bytes_sent: first_ok.bytes_sent,
        survivors,
        faults: stats.summary(),
    }
}

/// One in-process rank of [`launch`]: wraps the endpoint in the fault layer
/// and trains.
fn run_rank<C: ClusterIntrospect>(
    endpoint: C,
    cfg: &TrainConfig,
    task: &dyn Task,
    make_worker: &MakeWorker<'_>,
    plan: &Arc<FaultPlan>,
    stats: &FaultStats,
) -> Result<WorkerOut, ClusterError> {
    let comm = FaultyCollective::new(endpoint, Arc::clone(plan), stats.clone());
    let out = worker_loop(cfg, task, &make_worker, &comm, false);
    if out.is_err() {
        // Dead or wedged: withdraw from the barrier so survivors keep
        // making progress instead of timing out behind us.
        comm.leave();
    }
    out
}

pub(crate) struct WorkerOut {
    pub(crate) final_params: Vec<(String, Tensor)>,
    pub(crate) final_quality: f64,
    pub(crate) bytes_sent: u64,
}

/// One rank's full training loop over any introspectable collective — the
/// threaded deposit board and the socket transport run this code unchanged,
/// which is what keeps the backends bit-identical.
///
/// `per_rank_steps` makes *every* rank emit its own step markers (socket
/// processes each own a trace file, so each needs its own timeline); the
/// threaded board keeps the historical rank-0-only markers so per-process
/// critical-path windows stay unambiguous.
pub(crate) fn worker_loop<F, C>(
    cfg: &TrainConfig,
    task: &dyn Task,
    make_worker: &F,
    comm: &FaultyCollective<C>,
    per_rank_steps: bool,
) -> Result<WorkerOut, ClusterError>
where
    F: Fn(
            usize,
        ) -> (
            Network,
            Box<dyn Optimizer>,
            Box<dyn Compressor>,
            Box<dyn Memory>,
        ) + Sync,
    C: ClusterIntrospect,
{
    let n = cfg.n_workers;
    let rank = comm.rank();
    let spe = steps_per_epoch(task.train_len(), n, cfg.batch_per_worker);
    let (mut net, mut opt, mut compressor, mut memory) = make_worker(rank);
    // This worker's compression lane from the shared exchange engine: the
    // same compensate → compress → own-decode → memory-update sequence the
    // simulator's engine runs, so both modes stay bit-identical.
    let mut lane = WorkerLane::new(rank, compressor.as_mut(), Some(memory.as_mut()));
    // Per-bucket compression-quality sensors (sampled approximation error,
    // effective ratio), recorded at fusion-bucket boundaries. Replicas are
    // bit-identical, so concurrent ranks publish the same gauge values.
    let quality = QualitySensors::resolve();
    // Per-rank gather-side merge under the configured aggregation plan
    // (serial fold — each rank merges its own gathered contributions).
    let mut merger = crate::AggMerger::new(cfg.agg_plan);
    // Pooled gather buffer: every step's frames land as sub-ranges of one
    // backing allocation the decode path borrows from.
    let mut frames = GatherFrames::new();
    // Fusion plan over the streaming (reverse-layer) order. Boundaries
    // depend only on dense byte sizes, so every worker derives the same
    // plan and the per-tensor collective order stays rank-consistent.
    let plan = {
        let mut builder = PlanBuilder::new(cfg.fusion_bytes);
        for (name, len) in net.streaming_grad_sizes() {
            builder.push(&name, len);
        }
        builder.finish()
    };
    // Stream order for the exchange, forward (visit) order for the update.
    let forward_index: HashMap<String, usize> = net
        .gradient_names()
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, i))
        .collect();
    let base_lr = opt.learning_rate();
    // Rank 0 hosts the run-health monitor; peers do no monitoring work.
    // The straggler signal reads the cluster's per-rank cumulative barrier
    // waits: a delayed rank waits *less* at barriers than its stalled
    // peers, so the per-step spread (max − min of deltas) exposes it.
    let run_tag = cfg.run_tag(if per_rank_steps { "socket" } else { "threaded" });
    let mut monitor = if rank == 0 {
        cfg.health
            .clone()
            .map(|hc| HealthMonitor::new(hc).with_identity(rank, &run_tag))
    } else {
        None
    };
    let mut waits_now = vec![0u64; n];
    let mut waits_prev = vec![0u64; n];
    let mut wait_deltas = vec![0u64; n];
    let mut wire_arrivals = vec![0u64; n];
    // Fleet-health gauges, resolved once: per-rank wire-arrival lag behind
    // the round's first arrival (hub clock), published from rank 0 when the
    // transport exposes arrival stamps (sockets do).
    let arrival_gauges: Vec<grace_telemetry::Gauge> = if monitor.is_some() {
        (0..n)
            .map(|k| grace_telemetry::metrics::gauge(&format!("health.rank{k}.arrival_lag_ns")))
            .collect()
    } else {
        Vec::new()
    };
    let wait_gauges: Vec<grace_telemetry::Gauge> = if monitor.is_some() {
        (0..n)
            .map(|k| grace_telemetry::metrics::gauge(&format!("health.rank{k}.barrier_wait_ns")))
            .collect()
    } else {
        Vec::new()
    };
    let mut bytes_prev = 0u64;
    let uncompressed = 4.0 * net.param_count() as f64;
    let mut global_step = 0u64;
    for epoch in 0..cfg.epochs {
        if let Some(schedule) = &cfg.lr_schedule {
            schedule.apply(opt.as_mut(), epoch, base_lr);
        }
        for step in 0..spe {
            // Stamp this step onto every wire frame the transport sends
            // until the next call (no-op on shared-memory transports).
            comm.inner().note_step(global_step);
            let idx = worker_batch_indices(
                task.train_len(),
                rank,
                n,
                epoch,
                step,
                cfg.batch_per_worker,
                cfg.seed,
            );
            let (x, y) = task.train_batch(&idx);
            // Pipelined encode: compress each gradient the moment backprop
            // emits it — on this multi-threaded cluster a worker's encode
            // genuinely overlaps its peers' still-running backward passes.
            // The per-lane encode order (stream = plan order) matches the
            // simulator's session exactly, keeping RNG-bearing compressors
            // bit-identical across modes.
            let mut stream: Vec<(String, EncodedTensor, Shape)> =
                Vec::with_capacity(plan.n_tensors());
            let mut window: Option<StageTimer> = None;
            let mut bucket_elems = 0usize;
            let mut bucket_wire = 0usize;
            let _ = net.forward_backward_streaming(&x, &y, &mut |name, grad| {
                let idx = stream.len();
                debug_assert!(
                    plan.matches(idx, name, grad.len()),
                    "gradient stream diverged from the fusion plan at '{name}'"
                );
                if window.is_none() {
                    window = Some(StageTimer::start());
                }
                let encoded = lane.encode(name, grad);
                bucket_elems += grad.len();
                bucket_wire += wire_bytes(&encoded.payloads, &encoded.ctx);
                let b = plan.bucket_of(idx);
                if idx + 1 == plan.bucket_range(b).end {
                    if let Some(w) = window.take() {
                        w.finish_with("bucket", Track::Bucket, "bucket", b as u64);
                    }
                    if let Some(e) = lane.take_quality_error() {
                        quality.record_error(b, e);
                    }
                    quality.record_ratio(b, bucket_elems, bucket_wire);
                    bucket_elems = 0;
                    bucket_wire = 0;
                }
                stream.push((name.to_string(), encoded, grad.shape().clone()));
            });
            // Drain the collectives in stream order (identical across
            // ranks), then hand the optimizer forward-ordered gradients.
            let mut aggregated = Vec::with_capacity(stream.len());
            for (name, encoded, shape) in stream {
                let agg =
                    exchange_tensor(comm, &mut lane, &mut merger, &mut frames, encoded, &shape)?;
                aggregated.push((name, agg));
            }
            aggregated.sort_by_key(|(name, _)| forward_index[name.as_str()]);
            if per_rank_steps || rank == 0 {
                grace_telemetry::trace::instant_arg(
                    "step",
                    Track::Step,
                    Some(("step", global_step)),
                );
                // Flight recorder: fold this step's counter deltas into the
                // ring and poll the on-demand dump request. One caller per
                // process: rank 0 on the shared board, every rank when each
                // rank is its own process.
                recorder::observe_step(global_step);
            }
            if grace_telemetry::enabled(grace_telemetry::Level::Metrics) {
                if let Some(norm) = lane.residual_norm() {
                    quality.record_residual(norm);
                }
            }
            if let Some(mon) = monitor.as_mut() {
                let board = comm.inner();
                board.barrier_waits_into(&mut waits_now);
                for ((delta, now), prev) in wait_deltas.iter_mut().zip(&waits_now).zip(&waits_prev)
                {
                    *delta = now.saturating_sub(*prev);
                }
                waits_prev.copy_from_slice(&waits_now);
                for (gauge, &delta) in wait_gauges.iter().zip(&wait_deltas) {
                    gauge.set(delta as f64);
                }
                let bytes_now = board.sent_bytes();
                let step_bytes = bytes_now.saturating_sub(bytes_prev);
                bytes_prev = bytes_now;
                // Straggler skew: prefer the transport's aligned wire-
                // arrival stamps (the spread of when the hub saw each
                // rank's latest request, all on one clock) over the
                // rank-0-only barrier-wait deltas.
                let skew = if board.wire_arrivals_into(&mut wire_arrivals) {
                    let first = wire_arrivals
                        .iter()
                        .copied()
                        .filter(|&a| a != 0)
                        .min()
                        .unwrap_or(0);
                    let last = wire_arrivals.iter().copied().max().unwrap_or(0);
                    for (gauge, &a) in arrival_gauges.iter().zip(&wire_arrivals) {
                        gauge.set(a.saturating_sub(first) as f64);
                    }
                    last.saturating_sub(first) as f64 / 1e9
                } else {
                    HealthMonitor::barrier_skew_seconds(&wait_deltas)
                };
                let obs = StepObservation {
                    grad_norm: gradient_l2(&aggregated),
                    residual_norm: lane.residual_norm(),
                    compression_ratio: if step_bytes > 0 {
                        Some(uncompressed / step_bytes as f64)
                    } else {
                        None
                    },
                    // No per-step overlap accounting in this mode.
                    overlap_ratio: None,
                    straggler_skew_seconds: Some(skew),
                };
                mon.observe_step(global_step, &obs);
            }
            net.apply_gradients(&aggregated, opt.as_mut());
            global_step += 1;
        }
    }
    let quality = task.quality(&mut net);
    Ok(WorkerOut {
        final_params: net.export_params(),
        final_quality: quality,
        bytes_sent: comm.inner().sent_bytes(),
    })
}

/// Performs the collective exchange for one encoded tensor and returns the
/// aggregated gradient, degrading gracefully on dropped workers and
/// corrupted payloads.
fn exchange_tensor<C: ClusterIntrospect>(
    comm: &FaultyCollective<C>,
    lane: &mut WorkerLane<'_>,
    merger: &mut crate::AggMerger,
    frames: &mut GatherFrames,
    encoded: EncodedTensor,
    shape: &Shape,
) -> Result<Tensor, ClusterError> {
    match lane.strategy() {
        CommStrategy::Allreduce => {
            // Average each F32 payload across the live workers while
            // compressed; the contributor count the collective reports is
            // the degraded-membership denominator.
            let mut mean = Vec::with_capacity(encoded.payloads.len());
            for p in encoded.payloads {
                let reduction = comm.try_allreduce_f32(p.as_f32().to_vec())?;
                mean.push(exchange::average_sum(reduction.sum, reduction.contributors));
            }
            Ok(lane.compressor_mut().decompress(&mean, &encoded.ctx))
        }
        CommStrategy::Allgather | CommStrategy::Broadcast => {
            let (rank, op) = (comm.rank(), comm.inner().ops_started());
            let frame = payload::encode_frame(encoded.payloads, &encoded.ctx.meta);
            comm.try_allgather_frames(frame, frames)?;
            let slots = || (0..frames.n_slots()).filter_map(|r| frames.slot(r));
            let (merged, rejected) =
                match merger.merge_frames(lane.compressor_mut(), slots(), shape) {
                    Ok((out, _, rejected)) => (Ok(out), rejected),
                    Err(e) => {
                        let detail = e.to_string();
                        (
                            Err(ClusterError::Corrupted { rank, op, detail }),
                            slots().count(),
                        )
                    }
                };
            for _ in 0..rejected {
                comm.stats().record_detected(rank);
            }
            merged
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::NoCompression;
    use crate::memory::NoMemory;
    use crate::trainer::{run_simulated, CodecTiming};
    use grace_nn::data::ClassificationDataset;
    use grace_nn::models;
    use grace_nn::optim::Momentum;

    #[test]
    fn threaded_matches_simulated_exactly() {
        let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 21);
        let mut cfg = TrainConfig::new(3, 8, 2, 21);
        cfg.codec = CodecTiming::Free;

        // Simulated mode.
        let mut net = models::mlp_classifier("m", 8, &[12], 2, 21);
        let mut opt = Momentum::new(0.05, 0.9);
        let mut cs: Vec<Box<dyn Compressor>> = (0..3)
            .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
            .collect();
        let mut ms: Vec<Box<dyn Memory>> = (0..3)
            .map(|_| Box::new(NoMemory::new()) as Box<dyn Memory>)
            .collect();
        let sim = run_simulated(&cfg, &mut net, &task, &mut opt, &mut cs, &mut ms);
        let sim_params = net.export_params();

        // Threaded mode with identical replicas.
        let threaded = run_threaded(&cfg, &task, |_rank| {
            (
                models::mlp_classifier("m", 8, &[12], 2, 21),
                Box::new(Momentum::new(0.05, 0.9)) as Box<dyn Optimizer>,
                Box::new(NoCompression::new()) as Box<dyn Compressor>,
                Box::new(NoMemory::new()) as Box<dyn Memory>,
            )
        });
        assert_eq!(threaded.final_quality, sim.final_quality);
        for ((na, ta), (nb, tb)) in sim_params.iter().zip(threaded.final_params.iter()) {
            assert_eq!(na, nb);
            assert_eq!(ta.as_slice(), tb.as_slice(), "replica diverged at {na}");
        }
        assert!(threaded.bytes_sent > 0);
        assert_eq!(threaded.survivors, 3);
        assert_eq!(threaded.faults.total_injected(), 0);
    }
}
