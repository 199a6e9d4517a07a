//! SPMD training over real OS processes (or socket-backed threads).
//!
//! [`crate::threaded::run_threaded`] proves the simulator honest against one
//! process full of worker threads; this module runs the *same*
//! [`worker_loop`] over `grace-comm`'s socket transport, either as N threads
//! talking through a localhost hub ([`run_cluster`] with a socket
//! [`crate::ExecBackend`] — what the equivalence tests drive) or as one rank
//! of a genuinely multi-process job ([`run_socket_rank`] — what each
//! `grace-launch rank` child drives, its place in the job given on argv).
//!
//! Because the loop, the batch schedule and the aggregation order are all
//! backend-independent, every backend must land on bit-identical parameters;
//! [`param_checksum`] gives the one-number digest the cross-process harness
//! compares.

use crate::compressor::Compressor;
use crate::memory::Memory;
use crate::threaded::{launch, plan_and_options, worker_loop, ThreadedResult};
use crate::trainer::{start_metrics_server, TrainConfig};
use grace_comm::net::{NetConfig, SocketCluster};
use grace_comm::{ClusterError, ClusterIntrospect, Collective, FaultStats, FaultyCollective};
use grace_nn::data::Task;
use grace_nn::network::Network;
use grace_nn::optim::Optimizer;
use grace_tensor::pack::crc32;
use grace_tensor::{pool, Tensor};

/// One rank's private (network, optimizer, compressor, memory).
pub type Worker = (
    Network,
    Box<dyn Optimizer>,
    Box<dyn Compressor>,
    Box<dyn Memory>,
);

/// Worker factory shared by every cluster entry point: builds, per rank, its
/// [`Worker`].
pub type MakeWorker<'a> = dyn Fn(usize) -> Worker + Sync + 'a;

/// One rank's result from a multi-process run.
#[derive(Debug)]
pub struct RankResult {
    /// This process's rank.
    pub rank: usize,
    /// Final model parameters.
    pub final_params: Vec<(String, Tensor)>,
    /// Final quality on the held-out set.
    pub final_quality: f64,
    /// Compressed bytes this rank shipped.
    pub bytes_sent: u64,
    /// Live-member count when this rank finished.
    pub live_at_exit: usize,
}

/// CRC32 digest of a parameter list: names and exact f32 bit patterns, in
/// export order. Two runs that trained bit-identically — and only those —
/// produce equal checksums, which lets OS processes compare models across
/// address spaces by printing 8 hex digits.
pub fn param_checksum(params: &[(String, Tensor)]) -> u32 {
    let mut bytes = Vec::new();
    for (name, tensor) in params {
        bytes.extend_from_slice(name.as_bytes());
        for v in tensor.as_slice() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    crc32(&bytes)
}

/// Runs one rank of a socket-backed job to completion: connect, rendezvous,
/// train, report. The hub must already be listening (the launcher binds it
/// before spawning ranks).
///
/// # Errors
///
/// Propagates connect/rendezvous failures and any [`ClusterError`] the
/// training loop hits (a planned drop, a timeout behind a dead peer, …).
pub fn run_socket_rank(
    cfg: &TrainConfig,
    task: &dyn Task,
    make_worker: &MakeWorker<'_>,
    net_cfg: &NetConfig,
) -> Result<RankResult, ClusterError> {
    if let Some(level) = cfg.telemetry {
        grace_telemetry::set_level(level);
    }
    assert_eq!(
        cfg.n_workers, net_cfg.world,
        "TrainConfig::n_workers must equal the job's world size"
    );
    let (plan, options) = plan_and_options(cfg);
    let mut net_cfg = net_cfg.clone();
    net_cfg.options = options;
    let cluster = SocketCluster::connect(&net_cfg)?;
    let stats = FaultStats::new(net_cfg.world);
    let comm = FaultyCollective::new(cluster, plan, stats);
    // Stamp this rank's trace identity *before* training starts: a mid-run
    // post-mortem dump (anomaly trip, fault, wedged peer) must already carry
    // the hub-clock offset header, or the merge tool cannot rebase it.
    let (clock_offset_ns, clock_rtt_ns) = comm.inner().clock_sync().unwrap_or((0, 0));
    grace_telemetry::set_trace_header(Some(grace_telemetry::TraceHeader {
        rank: Some(net_cfg.rank),
        world: net_cfg.world,
        clock_offset_ns,
        clock_rtt_ns,
    }));
    grace_telemetry::recorder::configure(&cfg.run_tag("socket"), Some(net_cfg.rank));
    // Only rank 0 serves the fleet /metrics endpoint — every child gets the
    // same GRACE_METRICS_ADDR from the launcher, and one listener per port
    // is plenty (rank 0 is also where the health gauges live).
    let metrics_server = if net_cfg.rank == 0 {
        start_metrics_server(cfg)
    } else {
        None
    };
    let out = worker_loop(cfg, task, make_worker, &comm, true, pool::width());
    if out.is_err() {
        comm.leave();
        // A wedged or dropped rank is exactly what the flight recorder
        // exists for: snapshot the last retained window before exiting.
        grace_telemetry::recorder::trigger("recorder: cluster error");
    }
    drop(metrics_server);
    let out = out?;
    Ok(RankResult {
        rank: net_cfg.rank,
        final_params: out.final_params,
        final_quality: out.final_quality,
        bytes_sent: out.bytes_sent,
        live_at_exit: comm.live_workers(),
    })
}

/// Dispatches on [`TrainConfig::backend`]: threads over the deposit board,
/// or threads over real sockets. One entry point, three wires, one model.
///
/// # Panics
///
/// Same contract as [`crate::threaded::run_threaded`], plus a hub that
/// cannot bind or a worker that cannot join.
pub fn run_cluster<F>(cfg: &TrainConfig, task: &dyn Task, make_worker: F) -> ThreadedResult
where
    F: Fn(usize) -> Worker + Sync,
{
    launch(cfg, task, &make_worker, cfg.backend)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_sensitive_to_bits_and_names() {
        let params = vec![("w".to_string(), Tensor::from_vec(vec![1.0, -2.0]))];
        let base = param_checksum(&params);
        let renamed = vec![("v".to_string(), Tensor::from_vec(vec![1.0, -2.0]))];
        assert_ne!(base, param_checksum(&renamed));
        // -0.0 == 0.0 as floats, but the bit patterns differ — and so must
        // the digest, because cross-backend equality is about bits.
        let pos = vec![("w".to_string(), Tensor::from_vec(vec![0.0]))];
        let neg = vec![("w".to_string(), Tensor::from_vec(vec![-0.0]))];
        assert_ne!(param_checksum(&pos), param_checksum(&neg));
        assert_eq!(base, param_checksum(&params));
    }
}
