//! Cross-backend bit-equivalence: the deterministic simulator, the threaded
//! deposit board, and the real socket transport must train the *same bits*.
//!
//! This is the transport PR's centerpiece harness. The training loop is
//! backend-independent, so for every registered compression method (plus
//! the extension set), every aggregation plan and every fusion threshold, the
//! final parameter vector — digested to a CRC32 by
//! [`grace::core::param_checksum`] — must be identical whether the
//! collectives run over shared memory, crossbeam-style threads, localhost
//! TCP, or Unix-domain sockets. A handful of golden checksums are pinned so
//! a cross-backend *consistent* regression (all backends drifting together)
//! is caught too.

use grace::compressors::{extensions, registry};
use grace::core::aggregation::HomomorphicAggregate;
use grace::core::process::{run_cluster, Worker};
use grace::core::trainer::{run_simulated, CodecTiming};
use grace::core::{
    param_checksum, CommStrategy, Compressor, Context, ExecBackend, Memory, NoCompression,
    NoMemory, Payload, PayloadError, PayloadList, TrainConfig,
};
use grace::nn::data::{
    ClassificationDataset, RecommendationDataset, SegmentationDataset, Task, TextDataset,
};
use grace::nn::models;
use grace::nn::optim::{Momentum, Optimizer};
use grace::nn::Network;
use grace::tensor::simd::Fold;
use grace::tensor::Tensor;

const N: usize = 3;
const SEED: u64 = 31;

fn task() -> ClassificationDataset {
    ClassificationDataset::synthetic(96, 8, 2, 0.3, SEED)
}

fn config(backend: ExecBackend) -> TrainConfig {
    let mut cfg = TrainConfig::new(N, 8, 2, SEED);
    cfg.codec = CodecTiming::Free;
    cfg.backend = backend;
    cfg
}

fn worker_for(spec: &grace::core::CompressorSpec, rank: usize) -> Worker {
    let (mut cs, mut ms) = registry::build_fleet(spec, N, SEED);
    (
        models::mlp_classifier("m", 8, &[12], 2, SEED),
        Box::new(Momentum::new(0.05, 0.9)) as Box<dyn Optimizer>,
        cs.swap_remove(rank),
        ms.swap_remove(rank),
    )
}

fn run_backend(spec: &grace::core::CompressorSpec, cfg: &TrainConfig) -> (u32, f64) {
    let result = run_cluster(cfg, &task(), |rank| worker_for(spec, rank));
    assert_eq!(result.survivors, N);
    (param_checksum(&result.final_params), result.final_quality)
}

fn run_sim(spec: &grace::core::CompressorSpec, cfg: &TrainConfig) -> (u32, f64) {
    let t = task();
    let mut network = models::mlp_classifier("m", 8, &[12], 2, SEED);
    let mut optimizer: Box<dyn Optimizer> = Box::new(Momentum::new(0.05, 0.9));
    let (mut cs, mut ms) = registry::build_fleet(spec, N, SEED);
    let res = run_simulated(cfg, &mut network, &t, optimizer.as_mut(), &mut cs, &mut ms);
    (param_checksum(&network.export_params()), res.final_quality)
}

/// Every registered method and every extension trains bit-identically over
/// the threaded board and over real TCP sockets.
#[test]
fn every_method_is_bit_identical_threaded_vs_socket() {
    let mut specs = registry::all_specs();
    specs.extend(extensions::extension_specs());
    assert!(specs.len() >= 16, "registry shrank below the paper's table");
    for spec in &specs {
        let (threaded_crc, threaded_q) = run_backend(spec, &config(ExecBackend::Threads));
        let (socket_crc, socket_q) = run_backend(spec, &config(ExecBackend::SocketTcp));
        assert_eq!(
            threaded_crc, socket_crc,
            "'{}' diverged between threads and sockets",
            spec.id
        );
        assert_eq!(threaded_q, socket_q, "'{}' quality diverged", spec.id);
    }
}

/// The three-way check (simulated ↔ threaded ↔ socket ↔ unix-socket) on a
/// representative trio covering allgather (TopK), randomized quantization
/// (QSGD, per-worker seeds) and low-rank allreduce (PowerSGD) — swept over
/// fusion thresholds, which must never change bits.
#[test]
fn widths_and_fusion_thresholds_never_change_bits() {
    for id in ["topk", "qsgd", "powersgd"] {
        let spec = registry::find(id).unwrap();
        let mut reference: Option<u32> = None;
        for fusion in [1usize, grace::core::DEFAULT_FUSION_BYTES] {
            let mut backends = vec![ExecBackend::Threads, ExecBackend::SocketTcp];
            if cfg!(unix) {
                backends.push(ExecBackend::SocketUds);
            }
            for backend in backends {
                let mut cfg = config(backend);
                cfg.fusion_bytes = fusion;
                let (crc, _) = run_backend(&spec, &cfg);
                match reference {
                    None => {
                        // The deterministic simulator anchors the cell.
                        let mut sim_cfg = config(ExecBackend::Threads);
                        sim_cfg.fusion_bytes = fusion;
                        let (sim_crc, _) = run_sim(&spec, &sim_cfg);
                        assert_eq!(
                            sim_crc, crc,
                            "'{id}' diverged from the simulator (fusion {fusion})"
                        );
                        reference = Some(crc);
                    }
                    Some(r) => {
                        assert_eq!(r, crc, "'{id}' diverged at fusion {fusion}, {backend:?}")
                    }
                }
            }
        }
    }
}

/// Pinned golden checksums: catches the failure mode equivalence alone
/// cannot — every backend drifting together (a change to the schedule, the
/// RNG derivation, or the aggregation order). Bump these deliberately when
/// the training pipeline is *meant* to change bits.
#[test]
fn golden_checksums_are_stable() {
    let golden: [(&str, u32); 3] = [
        ("topk", 0x055c95df),
        ("qsgd", 0x05208a6e),
        ("powersgd", 0x10763297),
    ];
    for (id, expected) in golden {
        let spec = registry::find(id).unwrap();
        let (crc, _) = run_backend(&spec, &config(ExecBackend::Threads));
        assert_eq!(
            crc, expected,
            "golden checksum for '{id}' moved: got {crc:08x} — if the \
             training pipeline changed intentionally, re-pin"
        );
    }
}

/// Aggregation plans move *where* the merge happens — never *what* it
/// computes. For a representative cell of the method space (shared-scale
/// quantizer, sketch, selection-only, low-rank allreduce), every plan on
/// every backend must reproduce the reference `decode_then_merge` bits,
/// through the simulator and both socket transports alike.
#[test]
fn aggregation_plans_never_change_bits_on_any_backend() {
    use grace::core::AggregationPlan;

    for id in ["eightbit", "sketchml", "topk", "powersgd"] {
        let spec = registry::find(id)
            .or_else(|| {
                extensions::extension_specs()
                    .into_iter()
                    .find(|s| s.id == id)
            })
            .unwrap();
        let reference = {
            let (crc, _) = run_sim(&spec, &config(ExecBackend::Threads));
            crc
        };
        for plan in AggregationPlan::ALL {
            let mut sim_cfg = config(ExecBackend::Threads);
            sim_cfg.agg_plan = plan;
            let (sim_crc, _) = run_sim(&spec, &sim_cfg);
            assert_eq!(sim_crc, reference, "'{id}' simulator drifted under {plan}");

            let mut backends = vec![ExecBackend::Threads, ExecBackend::SocketTcp];
            if cfg!(unix) {
                backends.push(ExecBackend::SocketUds);
            }
            for backend in backends {
                let mut cfg = config(backend);
                cfg.agg_plan = plan;
                let (crc, _) = run_backend(&spec, &cfg);
                assert_eq!(crc, reference, "'{id}' drifted under {plan} on {backend:?}");
            }
        }
    }
}

/// Pinned goldens for the homomorphic shared-scale path specifically: the
/// codebook-space fold must keep producing the exact trained bits it
/// produced when the capability shipped, so a silent change to the shared
/// decode expression cannot hide behind self-consistent equivalence.
#[test]
fn homomorphic_shared_scale_goldens_are_stable() {
    use grace::core::AggregationPlan;

    let golden: [(&str, u32); 2] = [
        ("eightbit", GOLDEN_EIGHTBIT_HOM),
        ("lpcsvrg", GOLDEN_LPCSVRG_HOM),
    ];
    for (id, expected) in golden {
        let spec = registry::find(id)
            .or_else(|| {
                extensions::extension_specs()
                    .into_iter()
                    .find(|s| s.id == id)
            })
            .unwrap();
        let mut cfg = config(ExecBackend::Threads);
        cfg.agg_plan = AggregationPlan::HomomorphicSum;
        let (crc, _) = run_backend(&spec, &cfg);
        assert_eq!(
            crc, expected,
            "homomorphic golden for '{id}' moved: got {crc:08x} — re-pin only \
             if the fold expression changed deliberately"
        );
    }
}

const GOLDEN_EIGHTBIT_HOM: u32 = 0x4720_18d4;
const GOLDEN_LPCSVRG_HOM: u32 = 0x067e_7bc1;

/// Shuffled submission orders: stragglers make ranks submit to the hub at
/// scrambled wall-clock times; the socket hub (like the deposit board) must
/// aggregate in rank order regardless, leaving the bits untouched.
#[test]
fn scrambled_submission_timing_is_bit_transparent_on_sockets() {
    use grace::comm::{FaultConfig, FaultPlan};
    use std::time::Duration;

    let spec = registry::find("topk").unwrap();
    let (clean_crc, clean_q) = run_backend(&spec, &config(ExecBackend::SocketTcp));
    // One collective per bucket, one bucket per step here: ops 0..=7.
    let plan = FaultPlan::empty()
        .with_straggler(0, 2, Duration::from_millis(3))
        .with_straggler(2, 5, Duration::from_millis(2))
        .with_straggler(1, 7, Duration::from_millis(1));
    let mut cfg = config(ExecBackend::SocketTcp);
    cfg.fault = Some(FaultConfig {
        plan,
        timeout: Some(Duration::from_secs(30)),
    });
    let delayed = run_cluster(&cfg, &task(), |rank| worker_for(&spec, rank));
    assert_eq!(delayed.survivors, N);
    assert_eq!(delayed.faults.injected_stragglers, vec![1, 1, 1]);
    assert_eq!(param_checksum(&delayed.final_params), clean_crc);
    assert_eq!(delayed.final_quality, clean_q);
}

/// World-size sweep: at 2, 4 and 8 ranks an all-gather method and an
/// all-reduce method train the same bits on the deposit board, over TCP and
/// over Unix sockets as on the simulator — with the default threshold (the
/// whole model is one bucket, one collective a step) and with one bucket
/// per tensor.
#[test]
fn world_sizes_never_change_bits_across_backends() {
    for world in [2, 4, 8] {
        for id in ["topk", "powersgd"] {
            let spec = registry::find(id).unwrap();
            for fusion in [grace::core::DEFAULT_FUSION_BYTES, 1] {
                let config = |backend| {
                    let mut cfg = TrainConfig::new(world, 8, 2, SEED);
                    cfg.codec = CodecTiming::Free;
                    cfg.backend = backend;
                    cfg.fusion_bytes = fusion;
                    cfg
                };
                let sim_crc = {
                    let mut network = models::mlp_classifier("m", 8, &[12], 2, SEED);
                    let mut optimizer = Momentum::new(0.05, 0.9);
                    let (mut cs, mut ms) = registry::build_fleet(&spec, world, SEED);
                    let cfg = config(ExecBackend::Threads);
                    run_simulated(
                        &cfg,
                        &mut network,
                        &task(),
                        &mut optimizer,
                        &mut cs,
                        &mut ms,
                    );
                    param_checksum(&network.export_params())
                };
                let mut backends = vec![ExecBackend::Threads, ExecBackend::SocketTcp];
                if cfg!(unix) {
                    backends.push(ExecBackend::SocketUds);
                }
                for backend in backends {
                    let result = run_cluster(&config(backend), &task(), |rank| {
                        let (mut cs, mut ms) = registry::build_fleet(&spec, world, SEED);
                        (
                            models::mlp_classifier("m", 8, &[12], 2, SEED),
                            Box::new(Momentum::new(0.05, 0.9)) as Box<dyn Optimizer>,
                            cs.swap_remove(rank),
                            ms.swap_remove(rank),
                        )
                    });
                    assert_eq!(result.survivors, world);
                    assert_eq!(
                        param_checksum(&result.final_params),
                        sim_crc,
                        "'{id}' at {world} ranks, fusion {fusion}, diverged on {backend:?}"
                    );
                }
            }
        }
    }
}

/// A rank's compressor whose gradient, at one element of its
/// [`POISON_CALL`]th encode, holds a value a diverged rank would send; every
/// other call and method goes straight to the wrapped codec.
struct Poisoned {
    inner: Box<dyn Compressor>,
    value: Option<f32>,
    calls: usize,
}

/// The poisoned encode (step 5's second tensor: one bucket of four tensors
/// a step) and the element it overwrites (the last, if the tensor is
/// shorter).
const POISON_CALL: usize = 22;
const POISON_AT: usize = 3;

/// Rank 0's and rank 1's values in each poisoned row: NaNs of different
/// payloads and signs, then +∞ and −∞, which sum to a NaN.
const POISONS: [[u32; 2]; 2] = [[0x7fc0_0001, 0xffc0_0002], [0x7f80_0000, 0xff80_0000]];

impl Poisoned {
    /// Rank `rank`'s codec, poisoned with `poison[rank]` if there is one.
    fn wrap(inner: Box<dyn Compressor>, rank: usize, poison: &[u32]) -> Box<dyn Compressor> {
        let value = poison.get(rank).map(|&bits| f32::from_bits(bits));
        Box::new(Poisoned {
            inner,
            value,
            calls: 0,
        })
    }

    fn poison(&mut self, tensor: &mut Tensor) {
        self.calls += 1;
        if let (Some(value), POISON_CALL) = (self.value, self.calls) {
            let at = POISON_AT.min(tensor.len() - 1);
            tensor[at] = value;
        }
    }
}

impl Compressor for Poisoned {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn strategy(&self) -> CommStrategy {
        self.inner.strategy()
    }
    fn compress(&mut self, tensor: &Tensor, name: &str) -> (Vec<Payload>, Context) {
        let mut tensor = tensor.clone();
        self.poison(&mut tensor);
        self.inner.compress(&tensor, name)
    }
    fn compress_owned(&mut self, tensor: &mut Tensor, name: &str) -> (Vec<Payload>, Context) {
        self.poison(tensor);
        self.inner.compress_owned(tensor, name)
    }
    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        self.inner.decompress(payloads, ctx)
    }
    fn decompress_owned(&mut self, payloads: Vec<Payload>, ctx: &Context) -> Tensor {
        self.inner.decompress_owned(payloads, ctx)
    }
    fn fold_gathered(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut Vec<f32>,
        fold: Fold,
    ) {
        self.inner.fold_gathered(payloads, ctx, acc, fold);
    }
    fn check_gathered(&self, payloads: PayloadList<'_>, ctx: &Context) -> Result<(), PayloadError> {
        self.inner.check_gathered(payloads, ctx)
    }
    fn supports_error_feedback(&self) -> bool {
        self.inner.supports_error_feedback()
    }
    fn homomorphic(&mut self) -> Option<&mut dyn HomomorphicAggregate> {
        self.inner.homomorphic()
    }
}

/// Poisoned rows: where ranks 0 and 1 send a NaN at the same element —
/// each its own payload and sign — or +∞ and −∞, the trained bits and the
/// quality are the simulator's on the deposit board, over TCP and over
/// Unix sockets, for the dense all-reduce (no compression), a sparse
/// gather (top-k) and a quantized one (QSGD). Every cross-rank sum keeps
/// the lowest rank's NaN; before it was one rule, the board and the hub
/// kept different ones.
#[test]
fn poisoned_gradients_train_the_same_bits_on_every_backend() {
    for id in ["baseline", "topk", "qsgd"] {
        let spec = registry::resolve(id).unwrap();
        for poison in POISONS {
            let sim = {
                let t = task();
                let mut network = models::mlp_classifier("m", 8, &[12], 2, SEED);
                let mut optimizer = Momentum::new(0.05, 0.9);
                let (cs, mut ms) = registry::build_fleet(&spec, N, SEED);
                let mut cs: Vec<_> = (cs.into_iter().enumerate())
                    .map(|(rank, c)| Poisoned::wrap(c, rank, &poison))
                    .collect();
                let cfg = config(ExecBackend::Threads);
                let res = run_simulated(&cfg, &mut network, &t, &mut optimizer, &mut cs, &mut ms);
                let params = network.export_params();
                let nan = params
                    .iter()
                    .any(|(_, p)| p.as_slice().iter().any(|v| v.is_nan()));
                assert!(nan, "'{id}': the poison reaches the parameters");
                (param_checksum(&params), res.final_quality.to_bits())
            };
            let mut backends = vec![ExecBackend::Threads, ExecBackend::SocketTcp];
            if cfg!(unix) {
                backends.push(ExecBackend::SocketUds);
            }
            for backend in backends {
                let result = run_cluster(&config(backend), &task(), |rank| {
                    let (net, opt, c, m) = worker_for(&spec, rank);
                    (net, opt, Poisoned::wrap(c, rank, &poison), m)
                });
                assert_eq!(result.survivors, N);
                let got = (
                    param_checksum(&result.final_params),
                    result.final_quality.to_bits(),
                );
                assert_eq!(
                    got, sim,
                    "'{id}' poisoned with {poison:08x?} diverged on {backend:?}"
                );
            }
        }
    }
}

/// A model builder: every rank's replica, and the serial reference's.
type Model = fn() -> Network;

/// One task of each kind the paper measures, with the model its rows feed:
/// 19 held-out classification rows, 12 users' candidate lists (one forward
/// call each), 10 text windows (one call each, 4 output rows per input row)
/// and 8 segmentation images.
fn eval_tasks() -> Vec<(&'static str, Box<dyn Task>, Model)> {
    vec![
        ("classification", Box::new(task()), || {
            models::mlp_classifier("m", 8, &[12], 2, SEED)
        }),
        (
            "recommendation",
            Box::new(RecommendationDataset::synthetic(12, 40, 4, 2, 9, SEED)),
            || models::ncf_analog(52, 4, SEED),
        ),
        (
            "text",
            Box::new(TextDataset::synthetic(200, 16, 2, 4, SEED)),
            || models::lstm_analog(16, 4, 8, 4, SEED),
        ),
        (
            "segmentation",
            Box::new(SegmentationDataset::synthetic(40, 8, 8, 0.1, SEED)),
            || models::unet_analog(8, 8, SEED),
        ),
    ]
}

fn backends() -> Vec<ExecBackend> {
    let mut backends = vec![ExecBackend::Threads, ExecBackend::SocketTcp];
    if cfg!(unix) {
        backends.push(ExecBackend::SocketUds);
    }
    backends
}

/// Trains `model` on `task` for one epoch over `backend`, then returns the
/// run's quality bits beside those of a serial `Task::quality` of its final
/// parameters, the survivors and the corrupted frames they detected.
fn split_and_serial(task: &dyn Task, model: Model, cfg: &TrainConfig) -> ((u64, u64), usize, u64) {
    let result = run_cluster(cfg, task, |_rank| {
        (
            model(),
            Box::new(Momentum::new(0.05, 0.9)) as Box<dyn Optimizer>,
            Box::new(NoCompression::new()) as Box<dyn Compressor>,
            Box::new(NoMemory::new()) as Box<dyn Memory>,
        )
    });
    let mut net = model();
    net.import_params(&result.final_params);
    let serial = task.quality(&mut net);
    (
        (result.final_quality.to_bits(), serial.to_bits()),
        result.survivors,
        result.faults.detected_corruptions.iter().sum(),
    )
}

/// The final evaluation, split across the ranks, returns exactly the bits a
/// serial `Task::quality` of the trained parameters gives, for every task
/// kind, at 1, 2 and 3 ranks (3 ranks split 19 rows 7/6/6), on the board,
/// over TCP and over Unix sockets.
#[test]
fn the_split_evaluation_returns_the_serial_quality_bits() {
    for (kind, task, model) in eval_tasks() {
        for world in 1..=3 {
            for backend in backends() {
                let mut cfg = TrainConfig::new(world, 4, 1, SEED);
                cfg.codec = CodecTiming::Free;
                cfg.backend = backend;
                let ((split, serial), survivors, _) = split_and_serial(task.as_ref(), model, &cfg);
                assert_eq!(survivors, world);
                assert_eq!(
                    split,
                    serial,
                    "{kind} at {world} ranks on {backend:?}: split {} vs serial {}",
                    f64::from_bits(split),
                    f64::from_bits(serial)
                );
            }
        }
    }
}

/// A rank that leaves at the evaluation's first gather (so the other two
/// split the rows between them), one that leaves at its second (so each
/// survivor computes the missing rows itself), and a frame damaged on its
/// way (the CRC rejects it; every rank computes those rows) all end with the
/// survivors reporting the serial quality inside their deadline.
#[test]
fn survivors_of_a_fault_in_the_evaluation_report_the_serial_quality() {
    use grace::comm::{FaultConfig, FaultPlan};
    use grace::core::trainer::{fusion_plan, steps_per_epoch};

    let (world, timeout) = (3, std::time::Duration::from_secs(20));
    let cases = |eval_op: u64| {
        [
            (FaultPlan::empty().with_drop(1, eval_op), 2, 0),
            (FaultPlan::empty().with_drop(1, eval_op + 1), 2, 0),
            (FaultPlan::empty().with_bit_flip(2, eval_op + 1, 77), 3, 3),
        ]
    };
    for (kind, task, model) in eval_tasks() {
        let mut cfg = TrainConfig::new(world, 4, 1, SEED);
        cfg.codec = CodecTiming::Free;
        let steps = steps_per_epoch(task.train_len(), world, cfg.batch_per_worker);
        let eval_op = (steps * fusion_plan(&cfg, &mut model()).n_buckets()) as u64;
        for (plan, alive, detected) in cases(eval_op) {
            for backend in backends() {
                cfg.backend = backend;
                cfg.fault = Some(FaultConfig {
                    plan: plan.clone(),
                    timeout: Some(timeout),
                });
                let start = std::time::Instant::now();
                let ((split, serial), survivors, caught) =
                    split_and_serial(task.as_ref(), model, &cfg);
                assert!(start.elapsed() < timeout, "{kind} on {backend:?}: {plan:?}");
                assert_eq!(survivors, alive, "{kind} on {backend:?}: {plan:?}");
                assert_eq!(
                    caught, detected,
                    "{kind} on {backend:?}: every rank's CRC check"
                );
                assert_eq!(split, serial, "{kind} on {backend:?}: {plan:?}");
            }
        }
    }
}

/// The checksum digest itself must be order- and name-sensitive, or the
/// golden comparisons above prove nothing.
#[test]
fn param_checksum_distinguishes_real_differences() {
    let a = vec![
        ("w0".to_string(), Tensor::from_vec(vec![1.0, 2.0])),
        ("w1".to_string(), Tensor::from_vec(vec![3.0])),
    ];
    let mut swapped = a.clone();
    swapped.swap(0, 1);
    assert_ne!(param_checksum(&a), param_checksum(&swapped));
    let mut perturbed = a.clone();
    perturbed[0].1 = Tensor::from_vec(vec![1.0 + f32::EPSILON, 2.0]);
    assert_ne!(param_checksum(&a), param_checksum(&perturbed));
    assert_eq!(param_checksum(&a), param_checksum(&a.clone()));
}
