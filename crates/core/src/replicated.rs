//! Per-replica training schedules: local SGD and compressed gossip.
//!
//! Algorithm 1 keeps every replica identical, which is why
//! [`crate::trainer::run_simulated`] can hold a single model. Two families
//! of related methods break that assumption and need *real* replicas:
//!
//! - **Local SGD / periodic averaging** (paper §VI "Fewer communication
//!   rounds"; the schedule Qsparse-local-SGD is built on): every worker
//!   takes `sync_every` local optimizer steps, then the workers exchange
//!   *compressed model deltas* and rebase on their average.
//! - **Compressed gossip** (paper §VI "Compression for ad-hoc P2P
//!   overlays", left as future work there): no global collective at all —
//!   each worker averages compressed parameters with its ring neighbours
//!   every step, and the replicas only *approach* consensus.
//!
//! Both are one replica loop (*n* replicas, each a local optimizer step per
//! step) with a different synchronization round. Local SGD's round *is*
//! Algorithm 1's exchange — `begin_step` → `submit` → `finish` over the
//! deltas — so they aggregate under the method's own strategy; gossip's
//! round has no collective, only each worker's own codec. Any registered
//! method drops in unchanged.

use crate::bucket::{BucketPlan, PlanBuilder, DEFAULT_FUSION_BYTES};
use crate::compressor::Compressor;
use crate::exchange::{wire_bytes, GradientExchange};
use crate::memory::Memory;
use crate::trainer::{steps_per_epoch, worker_batch_indices};
use grace_nn::data::Task;
use grace_nn::network::Network;
use grace_nn::optim::Optimizer;
use grace_tensor::Tensor;

/// Configuration shared by the replicated schedules.
#[derive(Debug, Clone)]
pub struct ReplicatedConfig {
    /// Number of worker replicas.
    pub n_workers: usize,
    /// Mini-batch size per worker.
    pub batch_per_worker: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Master seed (same schedule derivation as the synchronous trainer).
    pub seed: u64,
    /// Local steps between synchronizations (local SGD) — `1` synchronizes
    /// every step.
    pub sync_every: usize,
    /// Gossip averaging strength γ ∈ (0, 1] (gossip only).
    pub gossip_gamma: f32,
}

impl ReplicatedConfig {
    /// Creates a configuration with `sync_every = 1` and γ = 0.5.
    pub fn new(n_workers: usize, batch_per_worker: usize, epochs: usize, seed: u64) -> Self {
        ReplicatedConfig {
            n_workers,
            batch_per_worker,
            epochs,
            seed,
            sync_every: 1,
            gossip_gamma: 0.5,
        }
    }

    fn validate(&self) {
        assert!(self.n_workers > 0, "need at least one worker");
        assert!(self.batch_per_worker > 0, "batch must be positive");
        assert!(self.epochs > 0, "need at least one epoch");
        assert!(self.sync_every > 0, "sync interval must be positive");
        assert!(
            self.gossip_gamma > 0.0 && self.gossip_gamma <= 1.0,
            "gossip gamma must be in (0,1]"
        );
    }
}

/// Outcome of a replicated run.
#[derive(Debug, Clone)]
pub struct ReplicatedResult {
    /// Quality of the *averaged* model on the held-out set.
    pub final_quality: f64,
    /// Mean compressed bytes per worker per synchronization round.
    pub bytes_per_worker_per_sync: f64,
    /// Number of synchronization rounds performed.
    pub sync_rounds: u64,
    /// Replica disagreement at the end: the maximum ℓ₂ distance between any
    /// replica's parameters and the average (0 for exact-consensus
    /// schedules).
    pub consensus_gap: f64,
}

/// Builds the fusion plan for a parameter-shaped stream (forward/export
/// order — replicated schedules submit whole-model snapshots, not a
/// backprop stream, so plan order is simply export order).
fn param_plan(params: &[(String, Tensor)]) -> BucketPlan {
    let mut builder = PlanBuilder::new(DEFAULT_FUSION_BYTES);
    for (name, t) in params {
        builder.push(name, t.len());
    }
    builder.finish()
}

fn average_params(replicas: &mut [Network]) -> Vec<(String, Tensor)> {
    let n = replicas.len();
    let mut acc = replicas[0].export_params();
    for other in replicas.iter_mut().skip(1) {
        for (slot, (_, t)) in acc.iter_mut().zip(other.export_params()) {
            slot.1.add_assign(&t);
        }
    }
    for (_, t) in acc.iter_mut() {
        t.scale(1.0 / n as f32);
    }
    acc
}

fn consensus_gap(replicas: &mut [Network], mean: &[(String, Tensor)]) -> f64 {
    let mut worst = 0.0f64;
    for r in replicas.iter_mut() {
        let mut sq = 0.0f64;
        for ((_, m), (_, p)) in mean.iter().zip(r.export_params()) {
            let d = p.sub(m).norm2();
            sq += f64::from(d) * f64::from(d);
        }
        worst = worst.max(sq.sqrt());
    }
    worst
}

/// One local optimizer step on every replica, each on its own shard's batch.
fn local_step(
    cfg: &ReplicatedConfig,
    task: &dyn Task,
    replicas: &mut [Network],
    opts: &mut [Box<dyn Optimizer>],
    epoch: usize,
    step: usize,
) {
    let n = cfg.n_workers;
    for (w, (replica, opt)) in replicas.iter_mut().zip(opts).enumerate() {
        let idx = worker_batch_indices(
            task.train_len(),
            w,
            n,
            epoch,
            step,
            cfg.batch_per_worker,
            cfg.seed,
        );
        let (x, y) = task.train_batch(&idx);
        let _ = replica.forward_backward(&x, &y);
        let grads = replica.take_gradients();
        replica.apply_gradients(&grads, opt.as_mut());
    }
}

/// The one replica loop both schedules run: every step of every epoch is a
/// [`local_step`] on each replica followed by the schedule's `sync` round,
/// which is told whether this is the run's last step and returns the
/// payload bytes it moved per worker (`None` when it did not synchronize).
/// Ends by evaluating the replica average on a fresh `make_net(0)` and
/// reporting how far the replicas ended from it.
fn train_replicas(
    cfg: &ReplicatedConfig,
    make_net: impl Fn(usize) -> Network,
    make_opt: impl Fn(usize) -> Box<dyn Optimizer>,
    task: &dyn Task,
    mut sync: impl FnMut(&mut [Network], bool) -> Option<f64>,
) -> ReplicatedResult {
    let n = cfg.n_workers;
    let mut replicas: Vec<Network> = (0..n).map(&make_net).collect();
    let mut opts: Vec<Box<dyn Optimizer>> = (0..n).map(&make_opt).collect();
    let spe = steps_per_epoch(task.train_len(), n, cfg.batch_per_worker);
    let mut total_bytes = 0.0f64;
    let mut sync_rounds = 0u64;
    for epoch in 0..cfg.epochs {
        for step in 0..spe {
            local_step(cfg, task, &mut replicas, &mut opts, epoch, step);
            let last = epoch + 1 == cfg.epochs && step + 1 == spe;
            if let Some(bytes) = sync(&mut replicas, last) {
                total_bytes += bytes;
                sync_rounds += 1;
            }
        }
    }
    let mean = average_params(&mut replicas);
    let gap = consensus_gap(&mut replicas, &mean);
    let mut probe = make_net(0);
    probe.import_params(&mean);
    ReplicatedResult {
        final_quality: task.quality(&mut probe),
        bytes_per_worker_per_sync: total_bytes / sync_rounds.max(1) as f64,
        sync_rounds,
        consensus_gap: gap,
    }
}

/// Runs local SGD with compressed periodic synchronization.
///
/// Every `sync_every` steps (and after the last), each worker submits the
/// *delta* of its parameters since the last synchronization to Algorithm
/// 1's own exchange — per-worker error feedback, compression, and the
/// method's [`CommStrategy`](crate::CommStrategy): `Allreduce` methods
/// average the deltas while compressed and decode once, `Allgather` methods
/// decode each and combine them with `Agg`. All replicas then rebase to
/// `anchor + mean(Δ)` — exact consensus at every synchronization point.
///
/// # Panics
///
/// Panics on inconsistent configuration or fleet sizes.
#[allow(clippy::too_many_arguments)]
pub fn run_local_sgd(
    cfg: &ReplicatedConfig,
    make_net: impl Fn(usize) -> Network,
    make_opt: impl Fn(usize) -> Box<dyn Optimizer>,
    task: &dyn Task,
    compressors: &mut [Box<dyn Compressor>],
    memories: &mut [Box<dyn Memory>],
) -> ReplicatedResult {
    cfg.validate();
    let n = cfg.n_workers;
    assert_eq!(compressors.len(), n, "need one compressor per worker");
    assert_eq!(memories.len(), n, "need one memory per worker");
    let mut engine = GradientExchange::from_fleet(compressors, memories);
    // The first anchor is where replica 0 (`make_net(0)`) starts.
    let mut anchor = make_net(0).export_params();
    let plan = param_plan(&anchor);
    let mut since_sync = 0usize;
    train_replicas(cfg, make_net, make_opt, task, |replicas, last| {
        since_sync += 1;
        if since_sync < cfg.sync_every && !last {
            return None;
        }
        since_sync = 0;
        let mut session = engine.begin_step(&plan);
        for (w, r) in replicas.iter_mut().enumerate() {
            for ((name, p), (_, a)) in r.export_params().into_iter().zip(&anchor) {
                session.submit(w, &name, &p.sub(a));
            }
        }
        let (mean_delta, report) = session.finish();
        // Rebase every replica on anchor + mean delta (exact consensus).
        for ((_, a), (_, d)) in anchor.iter_mut().zip(&mean_delta) {
            a.add_assign(d);
        }
        for r in replicas.iter_mut() {
            r.import_params(&anchor);
        }
        Some(report.total_payload_bytes() as f64 / n as f64)
    })
}

/// Runs decentralized training with compressed ring gossip.
///
/// After each local step, worker `i` pulls the *compressed* parameters of
/// its ring neighbours `i±1` and moves toward their average:
/// `xᵢ ← xᵢ + γ·(mean(Q(x_{i−1}), Q(x_{i+1})) − Q(xᵢ))`.
/// There is no collective: each worker compresses its raw parameters (no
/// error feedback) and `Q(x)` is that worker's own compressor's decode.
/// Replicas never reach exact consensus; the result reports the residual
/// [`ReplicatedResult::consensus_gap`].
///
/// # Panics
///
/// Panics on inconsistent configuration or fleet sizes (needs ≥ 2 workers).
pub fn run_gossip(
    cfg: &ReplicatedConfig,
    make_net: impl Fn(usize) -> Network,
    make_opt: impl Fn(usize) -> Box<dyn Optimizer>,
    task: &dyn Task,
    compressors: &mut [Box<dyn Compressor>],
) -> ReplicatedResult {
    cfg.validate();
    let n = cfg.n_workers;
    assert!(n >= 2, "gossip needs at least two workers");
    assert_eq!(compressors.len(), n, "need one compressor per worker");
    train_replicas(cfg, make_net, make_opt, task, |replicas, _| {
        let mut bytes = 0usize;
        let views: Vec<Vec<Tensor>> = replicas
            .iter_mut()
            .zip(compressors.iter_mut())
            .map(|(r, c)| {
                r.export_params()
                    .into_iter()
                    .map(|(name, p)| {
                        let (payloads, ctx) = c.compress(&p, &name);
                        bytes += wire_bytes(&payloads, &ctx);
                        c.decompress(&payloads, &ctx)
                    })
                    .collect()
            })
            .collect();
        for (w, replica) in replicas.iter_mut().enumerate() {
            let (left, right) = (&views[(w + n - 1) % n], &views[(w + 1) % n]);
            let mut updated = replica.export_params();
            for (k, (_, p)) in updated.iter_mut().enumerate() {
                // neighbour mean of compressed views minus own view.
                let mut target = left[k].clone();
                target.add_assign(&right[k]);
                target.scale(0.5);
                target.sub_assign(&views[w][k]);
                p.axpy(cfg.gossip_gamma, &target);
            }
            replica.import_params(&updated);
        }
        Some(bytes as f64 / n as f64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::NoCompression;
    use crate::memory::{NoMemory, ResidualMemory};
    use crate::trainer::{run_simulated, CodecTiming, TrainConfig};
    use grace_nn::data::ClassificationDataset;
    use grace_nn::models;
    use grace_nn::optim::Sgd;

    fn task() -> ClassificationDataset {
        ClassificationDataset::synthetic(192, 8, 2, 0.3, 61)
    }

    fn net(_w: usize) -> Network {
        models::mlp_classifier("m", 8, &[16], 2, 61)
    }

    fn sgd(_w: usize) -> Box<dyn Optimizer> {
        Box::new(Sgd::new(0.05))
    }

    type Fleet = (Vec<Box<dyn Compressor>>, Vec<Box<dyn Memory>>);

    fn baseline_fleet(n: usize) -> Fleet {
        (
            (0..n)
                .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
                .collect(),
            (0..n)
                .map(|_| Box::new(NoMemory::new()) as Box<dyn Memory>)
                .collect(),
        )
    }

    #[test]
    fn local_sgd_with_h1_equals_synchronous_sgd() {
        // With plain SGD and H = 1, parameter averaging after one local step
        // is algebraically identical to synchronous gradient averaging.
        let t = task();
        let cfg = ReplicatedConfig::new(3, 8, 2, 61);
        let (mut cs, mut ms) = baseline_fleet(3);
        let local = run_local_sgd(&cfg, net, sgd, &t, &mut cs, &mut ms);

        let mut sync_net = net(0);
        let mut sync_cfg = TrainConfig::new(3, 8, 2, 61);
        sync_cfg.codec = CodecTiming::Free;
        let mut opt = Sgd::new(0.05);
        let (mut cs2, mut ms2) = baseline_fleet(3);
        let sync = run_simulated(&sync_cfg, &mut sync_net, &t, &mut opt, &mut cs2, &mut ms2);
        assert!(
            (local.final_quality - sync.final_quality).abs() < 1e-9,
            "H=1 local SGD {} vs synchronous {}",
            local.final_quality,
            sync.final_quality
        );
        // Replicas are bit-identical; the gap only reflects f32 rounding in
        // the (sum / n) averaging used by the gap computation itself.
        assert!(
            local.consensus_gap < 1e-5,
            "replicas must agree: gap {}",
            local.consensus_gap
        );
    }

    #[test]
    fn larger_sync_interval_cuts_rounds_and_still_learns() {
        let t = task();
        let mut cfg = ReplicatedConfig::new(3, 8, 4, 61);
        cfg.sync_every = 4;
        let (mut cs, mut ms) = baseline_fleet(3);
        let res = run_local_sgd(&cfg, net, sgd, &t, &mut cs, &mut ms);
        let spe = steps_per_epoch(t.train_len(), 3, 8) as u64;
        assert!(res.sync_rounds <= (4 * spe).div_ceil(4) + 1);
        assert!(res.final_quality > 0.8, "quality {}", res.final_quality);
    }

    #[test]
    fn compressed_local_sgd_converges() {
        use grace_compressors_stub::TopKStub;
        // A tiny in-module Top-k so grace-core needn't depend on the
        // compressors crate: keep the top 25% of the delta.
        mod grace_compressors_stub {
            use crate::compressor::{Compressor, Context};
            use crate::payload::Payload;
            use grace_tensor::select::{gather, top_k_indices};
            use grace_tensor::Tensor;

            pub struct TopKStub;

            impl Compressor for TopKStub {
                fn name(&self) -> String {
                    "TopKStub".into()
                }
                fn compress(&mut self, t: &Tensor, _n: &str) -> (Vec<Payload>, Context) {
                    let k = (t.len() / 4).max(1);
                    let idx = top_k_indices(t.as_slice(), k);
                    let vals = gather(t, &idx);
                    (
                        vec![Payload::F32(vals), Payload::U32(idx)],
                        Context::shape_only(t.shape().clone()),
                    )
                }
                fn decompress(&mut self, p: &[Payload], ctx: &Context) -> Tensor {
                    let mut out = Tensor::zeros(ctx.shape.clone());
                    for (&v, &i) in p[0].as_f32().iter().zip(p[1].as_u32()) {
                        out[i as usize] = v;
                    }
                    out
                }
            }
        }
        let t = task();
        let mut cfg = ReplicatedConfig::new(2, 8, 4, 61);
        cfg.sync_every = 2;
        let mut cs: Vec<Box<dyn Compressor>> = (0..2)
            .map(|_| Box::new(TopKStub) as Box<dyn Compressor>)
            .collect();
        let mut ms: Vec<Box<dyn Memory>> = (0..2)
            .map(|_| Box::new(ResidualMemory::new()) as Box<dyn Memory>)
            .collect();
        let res = run_local_sgd(&cfg, net, sgd, &t, &mut cs, &mut ms);
        assert!(res.final_quality > 0.8, "quality {}", res.final_quality);
        // Compressed deltas move fewer bytes than dense ones.
        let dense = 4.0 * net(0).param_count() as f64;
        assert!(res.bytes_per_worker_per_sync < dense);
    }

    #[test]
    fn gossip_approaches_consensus_and_learns() {
        let t = task();
        let mut cfg = ReplicatedConfig::new(4, 8, 4, 61);
        cfg.gossip_gamma = 0.6;
        let mut cs: Vec<Box<dyn Compressor>> = (0..4)
            .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
            .collect();
        let res = run_gossip(&cfg, net, sgd, &t, &mut cs);
        assert!(res.final_quality > 0.8, "quality {}", res.final_quality);
        // Consensus is approximate but bounded.
        assert!(
            res.consensus_gap < 1.0,
            "replicas too far apart: {}",
            res.consensus_gap
        );
        assert!(res.sync_rounds > 0);
    }

    #[test]
    fn gossip_gamma_zero_rejected() {
        let mut cfg = ReplicatedConfig::new(2, 8, 1, 61);
        cfg.gossip_gamma = 0.0;
        let t = task();
        let mut cs: Vec<Box<dyn Compressor>> = (0..2)
            .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
            .collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_gossip(&cfg, net, sgd, &t, &mut cs)
        }));
        assert!(result.is_err(), "gamma 0 must be rejected");
    }
}
