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
//!   [`crate::AggMerger::merge_frames`], a damaged bucket envelope by
//!   [`crate::payload::split_bucket`] (the session's collective ending);
//!   since the sender's bytes are
//!   damaged *before* deposit, every receiver rejects the identical bytes
//!   and drops that contribution in lockstep — replicas stay bit-identical;
//! * a worker stuck waiting on a dead peer times out with a structured
//!   [`ClusterError::Timeout`] rather than deadlocking.

use crate::exchange::GradientExchange;
use crate::health::HealthMonitor;
use crate::process::{MakeWorker, Worker};
use crate::trainer::{start_metrics_server, ExecBackend, StepDriver, TrainConfig};
use grace_comm::{
    net, ClusterError, ClusterIntrospect, ClusterOptions, Collective, FaultPlan, FaultStats,
    FaultSummary, FaultyCollective, GatherFrames, ThreadedCluster,
};
use grace_nn::data::Task;
use grace_nn::Network;
use grace_telemetry::recorder;
use grace_tensor::{pack, pool, Tensor};
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
    F: Fn(usize) -> Worker + Sync,
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
    let cores = pool::width();
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
            let out = run_rank(e, cfg, task, make_worker, &plan, &stats, cores);
            if out.is_err() {
                recorder::trigger("recorder: cluster error");
            }
            out
        })
    } else {
        ThreadedCluster::run_with(n, options, |e| {
            run_rank(e, cfg, task, make_worker, &plan, &stats, cores)
        })
    };
    drop(metrics_server);
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
/// and trains on its share of the launching thread's `cores`.
fn run_rank<C: ClusterIntrospect>(
    endpoint: C,
    cfg: &TrainConfig,
    task: &dyn Task,
    make_worker: &MakeWorker<'_>,
    plan: &Arc<FaultPlan>,
    stats: &FaultStats,
    cores: usize,
) -> Result<WorkerOut, ClusterError> {
    let comm = FaultyCollective::new(endpoint, Arc::clone(plan), stats.clone());
    let out = worker_loop(cfg, task, make_worker, &comm, false, cores);
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

/// One rank's full training run over any introspectable collective: the
/// shared [`StepDriver`] over this rank's single engine lane, every session
/// ended through the collective — the threaded deposit board and the socket
/// transport run this code unchanged, which is what keeps the backends
/// bit-identical. What stays here is the transport's: the per-step wire
/// stamp, the barrier-wait / wire-arrival straggler signal and gauges.
///
/// `per_rank_steps` makes *every* rank emit its own step markers (socket
/// processes each own a trace file, so each needs its own timeline); the
/// threaded board keeps the historical rank-0-only markers so per-process
/// critical-path windows stay unambiguous.
///
/// The rank computes on its share of `cores` — the width of the thread that
/// launched the run — among the run's `cfg.n_workers` ranks, from set-up to
/// evaluation: every rank of a run computes on one host, in-process or as
/// its own process.
pub(crate) fn worker_loop<C: ClusterIntrospect>(
    cfg: &TrainConfig,
    task: &dyn Task,
    make_worker: &MakeWorker<'_>,
    comm: &FaultyCollective<C>,
    per_rank_steps: bool,
    cores: usize,
) -> Result<WorkerOut, ClusterError> {
    let n = cfg.n_workers;
    let rank = comm.rank();
    let _width = pool::take_share(cores, n);
    let (mut net, mut opt, mut compressor, mut memory) = make_worker(rank);
    let mut engine = GradientExchange::for_rank(rank, compressor.as_mut(), memory.as_mut())
        .with_aggregation(cfg.agg_plan);
    // Rank 0 hosts the run-health monitor; peers do no monitoring work.
    let run_tag = cfg.run_tag(if per_rank_steps { "socket" } else { "threaded" });
    let monitor = (rank == 0)
        .then(|| cfg.health.clone())
        .flatten()
        .map(|hc| HealthMonitor::new(hc).with_identity(rank, &run_tag));
    // Fleet-health gauges, resolved once and only where the monitor lives:
    // per-rank barrier waits, and per-rank wire-arrival lag behind the
    // round's first arrival (hub clock) when the transport exposes arrival
    // stamps (sockets do).
    let gauges = |what: &str| -> Vec<grace_telemetry::Gauge> {
        (0..if monitor.is_some() { n } else { 0 })
            .map(|k| grace_telemetry::metrics::gauge(&format!("health.rank{k}.{what}")))
            .collect()
    };
    let arrival_gauges = gauges("arrival_lag_ns");
    let wait_gauges = gauges("barrier_wait_ns");
    let mut waits_now = vec![0u64; n];
    let mut waits_prev = vec![0u64; n];
    let mut wait_deltas = vec![0u64; n];
    let mut wire_arrivals = vec![0u64; n];
    let board = comm.inner();
    let driver = StepDriver {
        cfg,
        task,
        net: &mut net,
        opt: opt.as_mut(),
        engine: &mut engine,
        monitor,
        marks_steps: per_rank_steps || rank == 0,
    };
    driver.run(
        |step, session| {
            // Stamp this step onto every wire frame the transport sends
            // until the next call (no-op on shared-memory transports).
            board.note_step(step);
            session.finish_over(comm)
        },
        |obs| {
            // The straggler signal reads the cluster's per-rank
            // cumulative barrier waits: a delayed rank waits *less* at
            // barriers than its stalled peers, so the per-step spread
            // (max − min of deltas) exposes it.
            board.barrier_waits_into(&mut waits_now);
            for ((delta, now), prev) in wait_deltas.iter_mut().zip(&waits_now).zip(&waits_prev) {
                *delta = now.saturating_sub(*prev);
            }
            waits_prev.copy_from_slice(&waits_now);
            for (gauge, &delta) in wait_gauges.iter().zip(&wait_deltas) {
                gauge.set(delta as f64);
            }
            // Prefer the transport's aligned wire-arrival stamps (the
            // spread of when the hub saw each rank's latest request,
            // all on one clock) over the rank-0-only barrier-wait
            // deltas.
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
            obs.straggler_skew_seconds = Some(skew);
        },
        |_| {},
    )?;
    // The exchange's pooled buffers must not sit under evaluation's
    // activations at the run's peak.
    drop(engine);
    let bytes_sent = board.sent_bytes();
    let final_quality = evaluate(task, &mut net, comm)?;
    Ok(WorkerOut {
        final_params: net.into_params(),
        final_quality,
        bytes_sent,
    })
}

/// The run's final quality, evaluated once across the live ranks rather
/// than once per rank: a gather names the live ranks, each computes its
/// [`grace_nn::data::shard_range`] of the held-out rows
/// ([`Network::split_quality`]), and a second gather hands every rank all
/// the outputs in row order — two collectives however many forward calls the
/// task makes. Each rank's outputs travel under a CRC; the rows of a rank
/// that left, or whose frame arrived damaged, every survivor computes
/// itself. The bits equal a serial [`Task::quality`] at every world size; a
/// 1-rank run, or a lone survivor, evaluates serially.
fn evaluate<C: Collective>(
    task: &dyn Task,
    net: &mut Network,
    comm: &FaultyCollective<C>,
) -> Result<f64, ClusterError> {
    if comm.n_workers() == 1 {
        return Ok(task.quality(net));
    }
    let rank = comm.rank();
    let mut frames = GatherFrames::new();
    comm.try_allgather_frames(Vec::new(), &mut frames)?;
    let live: Vec<usize> = (0..frames.n_slots())
        .filter(|&r| frames.slot(r).is_some())
        .collect();
    let part = live.iter().position(|&r| r == rank);
    let Some(part) = part.filter(|_| live.len() > 1) else {
        return Ok(task.quality(net));
    };
    net.split_quality(&|net| task.quality(net), part, live.len(), |mine| {
        let mut bytes = Vec::with_capacity(4 * mine.len() + 4);
        pack::extend_f32s_le(&mut bytes, &mine);
        bytes.extend_from_slice(&pack::crc32(&bytes).to_le_bytes());
        comm.try_allgather_frames(bytes, &mut frames)?;
        let decode = |frame: &[u8]| {
            let (rows, crc) = frame.split_at(frame.len().checked_sub(4)?);
            let intact = rows.len() % 4 == 0 && pack::crc32(rows).to_le_bytes() == crc;
            if !intact {
                comm.stats().record_detected(rank);
                return None;
            }
            let mut out = Vec::new();
            pack::read_f32s_le(rows, &mut out);
            Some(out)
        };
        Ok(live
            .iter()
            .map(|&r| frames.slot(r).and_then(decode))
            .collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{Compressor, NoCompression};
    use crate::memory::{Memory, NoMemory};
    use crate::trainer::{run_simulated, CodecTiming};
    use grace_nn::data::ClassificationDataset;
    use grace_nn::models;
    use grace_nn::optim::{Momentum, Optimizer};

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

    type Job<'j> = (
        &'j TrainConfig,
        &'j dyn Task,
        &'j MakeWorker<'j>,
        &'j Arc<FaultPlan>,
        &'j FaultStats,
    );

    /// Trains one rank to the end, then reads its endpoint's counter.
    fn ops_after_run<C: ClusterIntrospect>(endpoint: C, job: Job<'_>) -> u64 {
        let (cfg, task, make, faults, stats) = job;
        let comm = FaultyCollective::new(endpoint, Arc::clone(faults), stats.clone());
        worker_loop(cfg, task, make, &comm, false, pool::width()).expect("fault-free run");
        comm.inner().ops_started()
    }

    /// Every rank's collective count after a 2-rank run of `job`'s
    /// configuration, on the board and over TCP.
    fn ops_on_board_and_tcp(
        cfg: &TrainConfig,
        task: &dyn Task,
        make: &MakeWorker<'_>,
    ) -> [Vec<u64>; 2] {
        let (faults, options) = plan_and_options(cfg);
        let stats = FaultStats::new(2);
        let job: Job<'_> = (cfg, task, make, &faults, &stats);
        [
            ThreadedCluster::run_with(2, options, |e| ops_after_run(e, job)),
            net::run_socket_local(2, options, None, |e| ops_after_run(e, job)),
        ]
    }

    /// The sealed bucket is the wire unit: a run's endpoints have started
    /// steps × buckets + 2 collectives — 9 a step, not one per tensor (68),
    /// on the benchmark's resnet50 plan, and 2 for the evaluation —
    /// whichever collective the method uses and whichever transport carries
    /// it.
    #[test]
    fn a_run_issues_one_collective_per_bucket_per_step_on_every_transport() {
        use crate::compressor::Gathered;
        use crate::trainer::{fusion_plan, steps_per_epoch};

        let task = ClassificationDataset::synthetic(64, 48, 8, 0.4, 7);
        let mut cfg = TrainConfig::new(2, 8, 1, 7);
        cfg.codec = CodecTiming::Free;
        let mut model = models::resnet50_analog(48, 8, 7);
        cfg.fusion_bytes = model.param_count() * 4 / 8;
        let plan = fusion_plan(&cfg, &mut model);
        assert_eq!((plan.n_tensors(), plan.n_buckets()), (68, 9));
        let steps = steps_per_epoch(task.train_len(), 2, cfg.batch_per_worker);
        assert_eq!(steps, 4);

        for gathered in [false, true] {
            let make = |_rank: usize| -> Worker {
                let compressor: Box<dyn Compressor> = if gathered {
                    Box::new(Gathered::default())
                } else {
                    Box::new(NoCompression::new())
                };
                (
                    models::resnet50_analog(48, 8, 7),
                    Box::new(Momentum::new(0.05, 0.9)),
                    compressor,
                    Box::new(NoMemory::new()),
                )
            };
            let [board, tcp] = ops_on_board_and_tcp(&cfg, &task, &make);
            // Plus the final evaluation's two gathers: the live ranks, then
            // the outputs of each rank's held-out rows.
            let want = (steps * plan.n_buckets()) as u64 + 2;
            assert_eq!(board, vec![want; 2], "board, gathered {gathered}");
            assert_eq!(tcp, vec![want; 2], "tcp, gathered {gathered}");
        }
    }

    /// The evaluation takes its two gathers however many forward calls the
    /// task makes: the recommendation task makes one per user, 12 here.
    #[test]
    fn the_evaluation_takes_two_collectives_however_many_forward_calls() {
        use crate::trainer::{fusion_plan, steps_per_epoch};
        use grace_nn::data::RecommendationDataset;

        let task = RecommendationDataset::synthetic(12, 40, 4, 2, 9, 7);
        let mut cfg = TrainConfig::new(2, 8, 1, 7);
        cfg.codec = CodecTiming::Free;
        let make = |_rank: usize| -> Worker {
            (
                models::ncf_analog(task.vocab(), 4, 7),
                Box::new(Momentum::new(0.05, 0.9)),
                Box::new(NoCompression::new()),
                Box::new(NoMemory::new()),
            )
        };
        let buckets = fusion_plan(&cfg, &mut make(0).0).n_buckets();
        let steps = steps_per_epoch(task.train_len(), 2, cfg.batch_per_worker);
        let want = (steps * buckets) as u64 + 2;
        for (ops, on) in ops_on_board_and_tcp(&cfg, &task, &make)
            .iter()
            .zip(["board", "tcp"])
        {
            assert_eq!(ops, &vec![want; 2], "{on}");
        }
    }
}
