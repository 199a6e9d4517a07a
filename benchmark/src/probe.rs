//! The traced half of a run: a benchmark-owned SPMD loop that performs the
//! call sequence of `grace_core::threaded::worker_loop` through public
//! functions only, with a span around each call into a layer.
//!
//! This change may not touch the program, so the per-layer numbers come
//! from here. `trace.crc_match` (the loop's parameters are bit-equal to a
//! `run_cluster` job of the same extent) and `trace.fidelity` (its rate with
//! spans off against the program's) say whether the loop still mirrors the
//! program; when a later change restructures the step, fidelity drifting is
//! the signal for a benchmark-only follow-up.

use crate::job::Bench;
use crate::spans::{Recorder, Span};
use grace_comm::{
    ClusterIntrospect, ClusterOptions, Endpoint, GatherFrames, NetStats, SocketCluster,
    ThreadedCluster, WorkerHandle,
};
use grace_core::exchange::{average_sum, wire_bytes, EncodedTensor, WorkerLane};
use grace_core::trainer::{steps_per_epoch, worker_batch_indices, TrainConfig};
use grace_core::{payload, AggMerger, CommStrategy, Context, ExecBackend, Payload};
use grace_nn::data::Task;
use grace_tensor::Shape;
use std::collections::HashMap;
use std::time::Instant;

/// The transports a probe can run over; sockets add wire-level counters.
pub trait Wire: ClusterIntrospect {
    fn net_stats(&self) -> NetStats {
        NetStats::default()
    }
}

impl Wire for WorkerHandle {}

impl Wire for SocketCluster {
    fn net_stats(&self) -> NetStats {
        SocketCluster::net_stats(self)
    }
}

/// One collective of a step, with the buffer this rank handed in.
enum Call {
    Allreduce(Vec<f32>),
    Allgather(Vec<u8>),
}

/// Whole-loop totals of one rank (exact counts; divide by `steps`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    pub steps: u64,
    pub encode_calls: u64,
    /// Σ `wire_bytes` of every encoded tensor.
    pub encoded_bytes: u64,
    /// 4 · parameter count · steps.
    pub dense_bytes: u64,
    /// Σ length of every `payload::encode` output.
    pub frame_bytes: u64,
    pub collective_calls: u64,
    /// `ClusterIntrospect::sent_bytes` over the loop.
    pub payload_bytes: u64,
    /// `NetStats::wire_bytes_sent` over the loop (0 on the board).
    pub wire_bytes: u64,
    /// `NetStats::resends + nacks_sent` over the loop.
    pub retries: u64,
}

/// What one rank of the probe brings back.
pub struct RankProbe {
    pub spans: Vec<Span>,
    pub checksum: u32,
    pub quality: f64,
    /// Session start to this rank entering its loop (bind, connect, clock
    /// sync on sockets).
    pub rendezvous_s: f64,
    /// Session start to this rank finishing its final evaluation.
    pub done_s: f64,
    pub totals: Totals,
    /// Per replay round, Σ time in the last step's collectives replayed
    /// back-to-back.
    pub replay_s: Vec<f64>,
    /// α–β `NetworkModel` prediction for the same collective list.
    pub model_s: f64,
}

/// Runs the probe loop over the job's extent on the workload's backend;
/// results are in rank order.
pub fn run(b: &Bench, spans_on: bool, replay_rounds: usize) -> Vec<RankProbe> {
    let cfg = b.w.config(&b.bench, b.seed, b.w.job.epochs);
    let task = b.prefix(b.w.job);
    grace_telemetry::set_level(grace_telemetry::Level::Off);
    grace_telemetry::recorder::configure(&cfg.run_tag("probe"), None);
    let n = cfg.n_workers;
    let opts = ClusterOptions::default();
    let sh = Shared {
        b,
        cfg: &cfg,
        task: &task,
        spans_on,
        epoch: Instant::now(),
        replay_rounds,
    };
    match cfg.backend {
        ExecBackend::Threads => ThreadedCluster::run_with(n, opts, |c| probe_rank(&sh, &c)),
        ExecBackend::SocketTcp => {
            grace_comm::run_socket_local(n, opts, None, |c| probe_rank(&sh, &c))
        }
        ExecBackend::SocketUds => {
            grace_comm::run_socket_local(n, opts, Some(Endpoint::ephemeral_uds()), |c| {
                probe_rank(&sh, &c)
            })
        }
    }
}

/// What every rank of one probe run shares.
struct Shared<'a> {
    b: &'a Bench<'a>,
    cfg: &'a TrainConfig,
    task: &'a dyn Task,
    spans_on: bool,
    /// Session start; every rank's spans count from here.
    epoch: Instant,
    replay_rounds: usize,
}

fn probe_rank<C: Wire>(ctx: &Shared<'_>, comm: &C) -> RankProbe {
    let rendezvous_s = ctx.epoch.elapsed().as_secs_f64();
    let (cfg, task) = (ctx.cfg, ctx.task);
    let mut rec = Recorder::new(ctx.spans_on, ctx.epoch);
    let n = cfg.n_workers;
    let rank = comm.rank();
    let spe = steps_per_epoch(task.train_len(), n, cfg.batch_per_worker);
    let (mut net, mut opt, mut compressor, mut memory) =
        ctx.b.w.make_worker(&ctx.b.bench, ctx.b.seed, rank);
    let strategy = compressor.strategy();
    let mut lane = WorkerLane::new(rank, compressor.as_mut(), Some(memory.as_mut()));
    let mut merger = AggMerger::new(cfg.agg_plan);
    let mut frames = GatherFrames::new();
    let n_tensors = net.gradient_tensor_count();
    let forward_index: HashMap<String, usize> = net
        .gradient_names()
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, i))
        .collect();
    let dense_step_bytes = 4 * net.param_count() as u64;
    let total_steps = (cfg.epochs * spe) as u64;
    let mut totals = Totals::default();
    let (sent0, ops0, net0) = (comm.sent_bytes(), comm.ops_started(), comm.net_stats());
    // The last step's collectives, kept for the replay.
    let mut last_calls: Vec<Call> = Vec::new();
    let mut global_step = 0u64;
    for epoch in 0..cfg.epochs {
        for step in 0..spe {
            let keep_calls = global_step + 1 == total_steps;
            rec.set_step(Some(global_step as u32));
            rec.enter("step");
            comm.note_step(global_step);
            let idx = worker_batch_indices(
                task.train_len(),
                rank,
                n,
                epoch,
                step,
                cfg.batch_per_worker,
                cfg.seed,
            );
            rec.enter("nn.batch");
            let (x, y) = task.train_batch(&idx);
            rec.exit();

            let mut stream: Vec<(String, EncodedTensor, Shape)> = Vec::with_capacity(n_tensors);
            rec.enter("nn.backprop");
            let _ = net.forward_backward_streaming(&x, &y, &mut |name, grad| {
                rec.enter("exchange.encode");
                let encoded = lane.encode(name, grad);
                rec.exit();
                totals.encode_calls += 1;
                totals.encoded_bytes += wire_bytes(&encoded.payloads, &encoded.ctx) as u64;
                stream.push((name.to_string(), encoded, grad.shape().clone()));
            });
            rec.exit();

            let mut aggregated = Vec::with_capacity(stream.len());
            for (name, encoded, shape) in stream {
                let agg = match strategy {
                    CommStrategy::Allreduce => {
                        let mut mean = Vec::with_capacity(encoded.payloads.len());
                        for p in &encoded.payloads {
                            if keep_calls {
                                last_calls.push(Call::Allreduce(p.as_f32().to_vec()));
                            }
                            // The owned copy the call requires is charged
                            // to the collective, as in the program.
                            rec.enter("comm.collective");
                            let reduction = comm
                                .try_allreduce_f32(p.as_f32().to_vec())
                                .expect("fault-free allreduce");
                            rec.exit();
                            rec.enter("aggregation.merge");
                            mean.push(average_sum(reduction.sum, reduction.contributors));
                            rec.exit();
                        }
                        rec.enter("exchange.decode");
                        let out = lane.compressor_mut().decompress(&mean, &encoded.ctx);
                        rec.exit();
                        out
                    }
                    CommStrategy::Allgather | CommStrategy::Broadcast => {
                        let mut wire = encoded.payloads;
                        wire.push(Payload::F32(encoded.ctx.meta.clone()));
                        rec.enter("payload.frame");
                        let bytes = payload::encode(&wire);
                        rec.exit();
                        totals.frame_bytes += bytes.len() as u64;
                        if keep_calls {
                            last_calls.push(Call::Allgather(bytes.clone()));
                        }
                        rec.enter("comm.collective");
                        comm.try_allgather_frames(bytes, &mut frames)
                            .expect("fault-free allgather");
                        rec.exit();
                        rec.enter("payload.parse");
                        let parts: Vec<EncodedTensor> = (0..frames.n_slots())
                            .filter_map(|r| frames.slot(r))
                            .map(|bytes| {
                                let mut list =
                                    payload::decode_checked(bytes).expect("uncorrupted frame");
                                let meta = list
                                    .pop()
                                    .expect("wire format includes meta")
                                    .as_f32()
                                    .to_vec();
                                EncodedTensor {
                                    payloads: list,
                                    ctx: Context::with_meta(shape.clone(), meta),
                                }
                            })
                            .collect();
                        rec.exit();
                        rec.enter("aggregation.merge");
                        let (out, stats) = merger.merge_gathered(lane.compressor_mut(), &parts);
                        rec.child_at_parent_start("exchange.decode", stats.decode_cpu_ns);
                        rec.exit();
                        out
                    }
                };
                aggregated.push((name, agg));
            }
            aggregated.sort_by_key(|(name, _)| forward_index[name.as_str()]);
            if rank == 0 {
                grace_telemetry::recorder::observe_step(global_step);
            }
            rec.enter("nn.optimizer");
            net.apply_gradients(&aggregated, opt.as_mut());
            rec.exit();
            rec.exit();
            global_step += 1;
        }
    }
    rec.set_step(None);
    rec.enter("nn.eval");
    let quality = task.quality(&mut net);
    rec.exit();
    let done_s = ctx.epoch.elapsed().as_secs_f64();

    let net1 = comm.net_stats();
    totals.steps = total_steps;
    totals.dense_bytes = dense_step_bytes * total_steps;
    totals.collective_calls = comm.ops_started() - ops0;
    totals.payload_bytes = comm.sent_bytes() - sent0;
    totals.wire_bytes = net1.wire_bytes_sent - net0.wire_bytes_sent;
    totals.retries = (net1.resends + net1.nacks_sent) - (net0.resends + net0.nacks_sent);

    let model_s = last_calls
        .iter()
        .map(|call| match call {
            Call::Allreduce(v) => cfg.network.allreduce_seconds(n, v.len() * 4),
            Call::Allgather(b) => cfg.network.allgather_seconds(n, b.len()),
        })
        .sum();
    let replay_s = replay(comm, &last_calls, &mut frames, ctx.replay_rounds);

    RankProbe {
        spans: rec.spans,
        checksum: grace_core::param_checksum(&net.export_params()),
        quality,
        rendezvous_s,
        done_s,
        totals,
        replay_s,
        model_s,
    }
}

/// Replays one step's collectives back-to-back, every rank in lockstep, and
/// returns per round the time spent inside them: the wire's own cost with
/// no compute between, so `collective − replay` is time spent waiting for
/// the peer. Allreduce rounds include the owned copy, as the step does;
/// allgather buffers are cloned outside the timed region.
fn replay<C: Wire>(comm: &C, calls: &[Call], frames: &mut GatherFrames, rounds: usize) -> Vec<f64> {
    (0..rounds)
        .map(|_| {
            comm.try_barrier().expect("fault-free barrier");
            let mut inside = 0.0;
            for call in calls {
                match call {
                    Call::Allreduce(v) => {
                        let t = Instant::now();
                        let r = comm.try_allreduce_f32(v.to_vec());
                        inside += t.elapsed().as_secs_f64();
                        std::hint::black_box(r.expect("fault-free allreduce"));
                    }
                    Call::Allgather(b) => {
                        let owned = b.clone();
                        let t = Instant::now();
                        let r = comm.try_allgather_frames(owned, frames);
                        inside += t.elapsed().as_secs_f64();
                        r.expect("fault-free allgather");
                    }
                }
            }
            inside
        })
        .collect()
}
