//! The deterministic simulator and the real multi-threaded SPMD runtime must
//! produce bit-identical models for every communication strategy.

use grace::compressors::{PowerSgd, Qsgd, TopK};
use grace::core::threaded::run_threaded;
use grace::core::trainer::{run_simulated, CodecTiming};
use grace::core::{Compressor, Memory, NoMemory, ResidualMemory, TrainConfig};
use grace::nn::data::{ClassificationDataset, Task};
use grace::nn::models;
use grace::nn::network::Network;
use grace::nn::optim::{Momentum, Optimizer};
use grace::tensor::Tensor;

fn config(n: usize) -> TrainConfig {
    let mut cfg = TrainConfig::new(n, 8, 2, 31);
    cfg.codec = CodecTiming::Free;
    cfg
}

fn net() -> Network {
    models::mlp_classifier("m", 8, &[12], 2, 31)
}

fn opt() -> Box<dyn Optimizer> {
    Box::new(Momentum::new(0.05, 0.9))
}

fn simulate(
    task: &ClassificationDataset,
    n: usize,
    make_c: impl Fn(usize) -> Box<dyn Compressor>,
    make_m: impl Fn() -> Box<dyn Memory>,
) -> (f64, Vec<(String, Tensor)>) {
    let cfg = config(n);
    let mut network = net();
    let mut optimizer = opt();
    let mut cs: Vec<Box<dyn Compressor>> = (0..n).map(&make_c).collect();
    let mut ms: Vec<Box<dyn Memory>> = (0..n).map(|_| make_m()).collect();
    let res = run_simulated(
        &cfg,
        &mut network,
        task,
        optimizer.as_mut(),
        &mut cs,
        &mut ms,
    );
    (res.final_quality, network.export_params())
}

fn check_equivalence(
    make_c: impl Fn(usize) -> Box<dyn Compressor> + Sync + Copy,
    make_m: impl Fn() -> Box<dyn Memory> + Sync + Copy,
) {
    let n = 3;
    let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 31);
    let (sim_q, sim_params) = simulate(&task, n, |w| make_c(w), make_m);
    let threaded = run_threaded(&config(n), &task, |rank| {
        (net(), opt(), make_c(rank), make_m())
    });
    assert_eq!(threaded.final_quality, sim_q, "quality diverged");
    assert_eq!(sim_params.len(), threaded.final_params.len());
    for ((na, ta), (nb, tb)) in sim_params.iter().zip(threaded.final_params.iter()) {
        assert_eq!(na, nb);
        assert_eq!(ta.as_slice(), tb.as_slice(), "replica diverged at {na}");
    }
}

#[test]
fn topk_allgather_matches() {
    check_equivalence(
        |_w| Box::new(TopK::new(0.05)),
        || Box::new(ResidualMemory::new()),
    );
}

#[test]
fn qsgd_randomized_matches_with_per_worker_seeds() {
    // Randomized compressors agree across modes because worker `rank` uses
    // the same derived seed in both.
    check_equivalence(
        |w| Box::new(Qsgd::new(16, 1000 + w as u64)),
        || Box::new(NoMemory::new()),
    );
}

#[test]
fn powersgd_allreduce_matches() {
    check_equivalence(
        |_w| Box::new(PowerSgd::new(2)),
        || Box::new(ResidualMemory::new()),
    );
}

/// One rank's run written out from public primitives — no session engine,
/// no shared step loop, no buckets: it exchanges tensor by tensor — so
/// `run_threaded`, which ships one collective per fusion bucket, is checked
/// at every `fusion_bytes` against a reference that shares none of its
/// orchestration.
fn check_against_hand_rolled_ranks(
    make_c: impl Fn(usize) -> Box<dyn Compressor> + Sync,
    make_m: impl Fn() -> Box<dyn Memory> + Sync,
) {
    use grace::comm::{ClusterOptions, Collective, GatherFrames, ThreadedCluster};
    use grace::core::exchange::{average_sum, WorkerLane};
    use grace::core::payload::encode_frame;
    use grace::core::trainer::{fusion_plan, steps_per_epoch, worker_batch_indices};
    use grace::core::{param_checksum, AggMerger, CommStrategy, Payload};
    use std::collections::HashMap;

    let n = 3;
    let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 31);
    let cfg = config(n);
    let spe = steps_per_epoch(task.train_len(), n, cfg.batch_per_worker);
    let sums = ThreadedCluster::run_with(n, ClusterOptions::default(), |comm| {
        let rank = comm.rank();
        let (mut network, mut optimizer) = (net(), opt());
        let (mut compressor, mut memory) = (make_c(rank), make_m());
        let strategy = compressor.strategy();
        let mut lane = WorkerLane::new(rank, compressor.as_mut(), Some(memory.as_mut()));
        let mut merger = AggMerger::new(cfg.agg_plan);
        let mut frames = GatherFrames::new();
        let forward: HashMap<String, usize> = network
            .gradient_names()
            .into_iter()
            .enumerate()
            .map(|(i, name)| (name, i))
            .collect();
        for (epoch, step) in (0..cfg.epochs).flat_map(|e| (0..spe).map(move |s| (e, s))) {
            let batch = cfg.batch_per_worker;
            let idx = worker_batch_indices(task.train_len(), rank, n, epoch, step, batch, cfg.seed);
            let (x, y) = task.train_batch(&idx);
            let mut stream = Vec::new();
            let _ = network.forward_backward_streaming(&x, &y, &mut |name, grad| {
                stream.push((name.to_string(), lane.encode(name, grad)));
            });
            let mut aggregated = Vec::new();
            for (name, enc) in stream {
                let agg = if strategy == CommStrategy::Allreduce {
                    let mean: Vec<Payload> = enc
                        .payloads
                        .iter()
                        .map(|p| {
                            let r = comm.try_allreduce_f32(p.as_f32().to_vec()).unwrap();
                            average_sum(r.sum, r.contributors)
                        })
                        .collect();
                    lane.compressor_mut().decompress(&mean, &enc.ctx)
                } else {
                    let frame = encode_frame(enc.payloads, &enc.ctx.meta);
                    comm.try_allgather_frames(frame, &mut frames).unwrap();
                    let slots = (0..frames.n_slots()).filter_map(|r| frames.slot(r));
                    let merged = merger.merge_frames(lane.compressor_mut(), slots, &enc.ctx.shape);
                    merged.unwrap().0
                };
                aggregated.push((name, agg));
            }
            aggregated.sort_by_key(|(name, _)| forward[name.as_str()]);
            network.apply_gradients(&aggregated, optimizer.as_mut());
        }
        param_checksum(&network.export_params())
    });
    // The 4 gradient tensors stream as 96, 8, 384 and 48 dense bytes: one
    // bucket each, two mixed plans, and everything in one bucket.
    let plans = [
        (1, 4),
        (64, 4),
        (128, 3),
        (512, 2),
        (64 << 10, 1),
        (usize::MAX, 1),
    ];
    for (fusion_bytes, n_buckets) in plans {
        let mut cfg = cfg.clone();
        cfg.fusion_bytes = fusion_bytes;
        assert_eq!(fusion_plan(&cfg, &mut net()).n_buckets(), n_buckets);
        let threaded = run_threaded(&cfg, &task, |rank| (net(), opt(), make_c(rank), make_m()));
        let want = param_checksum(&threaded.final_params);
        assert!(
            sums.iter().all(|&s| s == want),
            "fusion_bytes {fusion_bytes}: {sums:x?} vs {want:x}"
        );
    }
}

#[test]
fn run_threaded_matches_a_hand_rolled_rank_step() {
    // Allreduce; sequential RNG; error feedback.
    check_against_hand_rolled_ranks(
        |_| Box::new(PowerSgd::new(2)),
        || Box::new(ResidualMemory::new()),
    );
    check_against_hand_rolled_ranks(
        |w| Box::new(Qsgd::new(16, 1000 + w as u64)),
        || Box::new(NoMemory::new()),
    );
    check_against_hand_rolled_ranks(
        |_| Box::new(TopK::new(0.05)),
        || Box::new(ResidualMemory::new()),
    );
    // The dense baseline: one F32 payload per tensor through all-reduce.
    check_against_hand_rolled_ranks(
        |_| Box::new(grace::core::NoCompression::new()),
        || Box::new(NoMemory::new()),
    );
}

#[test]
fn empty_fault_plan_is_bit_transparent() {
    // Satellite acceptance: wrapping every worker in a FaultyCollective
    // with an empty plan must change nothing — final parameters stay
    // bit-identical to both the unwrapped threaded run and the simulator.
    use grace::comm::{FaultConfig, FaultPlan};
    use std::time::Duration;

    let n = 3;
    let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 31);
    let make = |_rank: usize| {
        (
            net(),
            opt(),
            Box::new(TopK::new(0.05)) as Box<dyn Compressor>,
            Box::new(ResidualMemory::new()) as Box<dyn Memory>,
        )
    };
    let (sim_q, sim_params) = simulate(
        &task,
        n,
        |_w| Box::new(TopK::new(0.05)),
        || Box::new(ResidualMemory::new()),
    );
    let plain = run_threaded(&config(n), &task, make);
    let mut cfg = config(n);
    cfg.fault = Some(FaultConfig {
        plan: FaultPlan::empty(),
        timeout: Some(Duration::from_secs(30)),
    });
    let wrapped = run_threaded(&cfg, &task, make);

    assert_eq!(wrapped.final_quality, sim_q);
    assert_eq!(wrapped.final_quality, plain.final_quality);
    assert_eq!(wrapped.survivors, n);
    assert_eq!(wrapped.faults.total_injected(), 0);
    assert_eq!(wrapped.faults.detected_corruptions, vec![0; n]);
    for (((na, ta), (nb, tb)), (nc, tc)) in sim_params
        .iter()
        .zip(plain.final_params.iter())
        .zip(wrapped.final_params.iter())
    {
        assert_eq!(na, nb);
        assert_eq!(na, nc);
        assert_eq!(ta.as_slice(), tb.as_slice(), "plain run diverged at {na}");
        assert_eq!(ta.as_slice(), tc.as_slice(), "wrapped run diverged at {na}");
    }
}

#[test]
fn traffic_counter_totals_equal_shipped_wire_bytes_exactly() {
    // Satellite acceptance: TrafficCounter::total_bytes() equals the sum of
    // the wire bytes of every payload actually shipped — byte-exact, both
    // for allgathered codec frames and the ring all-reduce formula.
    use grace::comm::{ring_allreduce_wire_bytes, Collective, ThreadedCluster};
    use grace::core::payload::encode_frame;

    let n = 3;
    let rounds = 5;
    let per_worker = ThreadedCluster::run(n, |c| {
        let mut compressor = TopK::new(0.25);
        let mut expected = 0u64;
        for round in 0..rounds {
            // A deterministic per-(rank, round) gradient; no RNG needed.
            let g = Tensor::from_vec(
                (0..64)
                    .map(|i| ((i * (c.rank() + 2) + round * 7) as f32).sin())
                    .collect(),
            );
            let (payloads, ctx) = compressor.compress(&g, "t");
            let bytes = encode_frame(payloads, &ctx.meta);
            expected += bytes.len() as u64;
            let gathered = c.allgather_bytes(bytes);
            assert_eq!(gathered.len(), n);

            // And an uncompressed all-reduce leg, accounted by the ring
            // formula.
            let dense = vec![c.rank() as f32; 50];
            expected += ring_allreduce_wire_bytes(c.live_workers(), dense.len());
            let _ = c.allreduce_f32(dense);
        }
        (expected, c.traffic().clone())
    });
    let mut grand_total = 0u64;
    for (rank, (expected, traffic)) in per_worker.iter().enumerate() {
        assert_eq!(
            traffic.bytes_sent(rank),
            *expected,
            "rank {rank}: counter must equal shipped bytes exactly"
        );
        grand_total += expected;
    }
    assert_eq!(per_worker[0].1.total_bytes(), grand_total);
}

#[test]
fn threaded_traffic_matches_simulated_volume_up_to_codec_framing() {
    use grace::core::trainer::steps_per_epoch;
    let n = 3;
    let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 31);
    let cfg = config(n);
    // Simulated per-worker volume.
    let mut network = net();
    let mut optimizer = opt();
    let mut cs: Vec<Box<dyn Compressor>> = (0..n)
        .map(|_| Box::new(TopK::new(0.05)) as Box<dyn Compressor>)
        .collect();
    let mut ms: Vec<Box<dyn Memory>> = (0..n)
        .map(|_| Box::new(ResidualMemory::new()) as Box<dyn Memory>)
        .collect();
    let sim = run_simulated(
        &cfg,
        &mut network,
        &task,
        optimizer.as_mut(),
        &mut cs,
        &mut ms,
    );
    let threaded = run_threaded(&cfg, &task, |_rank| {
        (
            net(),
            opt(),
            Box::new(TopK::new(0.05)) as Box<dyn Compressor>,
            Box::new(ResidualMemory::new()) as Box<dyn Memory>,
        )
    });
    let steps = (cfg.epochs * steps_per_epoch(task.train_len(), n, cfg.batch_per_worker)) as f64;
    let sim_total = sim.bytes_per_worker_per_iter * steps;
    // The threaded wire adds self-describing codec framing (tags + lengths
    // + the meta payload header); allow a modest margin.
    let threaded_total = threaded.bytes_sent as f64;
    assert!(
        threaded_total >= sim_total,
        "threaded {threaded_total} < simulated {sim_total}"
    );
    assert!(
        threaded_total < sim_total * 1.5 + 1024.0,
        "framing overhead too large: {threaded_total} vs {sim_total}"
    );
}

/// The intra-op pool never shows in the bits: a 1-rank vgg19-analog run —
/// every product, optimizer step, the He-normal init and the final
/// evaluation on the pool — trains the same parameters at width 1 as at
/// width 2. A rank's width is its share of the launching thread's.
#[test]
fn vgg19_analog_run_is_bit_identical_at_widths_one_and_two() {
    use grace::core::param_checksum;
    use grace::core::NoCompression;
    use grace::tensor::pool;

    let task = ClassificationDataset::synthetic(32, 96, 10, 0.3, 5);
    let cfg = {
        let mut cfg = TrainConfig::new(1, 16, 1, 5);
        cfg.codec = CodecTiming::Free;
        cfg
    };
    let run = |width: usize| {
        pool::with_width(width, || {
            run_threaded(&cfg, &task, |_rank| {
                assert_eq!(pool::width(), width, "the rank's share");
                (
                    models::vgg19_analog(96, 10, 5),
                    opt(),
                    Box::new(NoCompression::new()) as Box<dyn Compressor>,
                    Box::new(NoMemory::new()) as Box<dyn Memory>,
                )
            })
        })
    };
    let (serial, pooled) = (run(1), run(2));
    assert_eq!(
        param_checksum(&pooled.final_params),
        param_checksum(&serial.final_params)
    );
    assert_eq!(pooled.final_quality, serial.final_quality);
}
