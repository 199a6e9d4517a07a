//! Bit-equivalence suite for the pipelined (bucketed) exchange.
//!
//! The PR-2 contract — compression results never depend on *how* the
//! exchange is executed — extends to tensor fusion: for every registered
//! method, streaming gradients through `begin_step`/`submit`/`finish` must
//! produce exactly the bytes of the unfused (single-bucket) step, at any
//! fusion threshold and under either aggregation plan. Each lane encodes in
//! plan order — the order backprop streams — which keeps the sequential-RNG
//! methods (QSGD dither, RandomK selection) on one draw schedule in every
//! mode.

use grace::compressors::extensions::extension_specs;
use grace::compressors::registry;
use grace::core::trainer::{run_simulated, CodecTiming};
use grace::core::{Compressor, CompressorSpec, GradientExchange, Memory, PlanBuilder, TrainConfig};
use grace::nn::data::ClassificationDataset;
use grace::nn::models;
use grace::nn::optim::Momentum;
use grace::tensor::pack::crc32;
use grace::tensor::Tensor;

/// The paper's 16 registry methods plus the extension methods.
fn all_specs() -> Vec<CompressorSpec> {
    let mut specs = registry::all_specs();
    specs.extend(extension_specs());
    specs
}

type Fleet = (Vec<Box<dyn Compressor>>, Vec<Box<dyn Memory>>);

const N_WORKERS: usize = 3;

/// Deterministic per-worker gradient streams: varied tensor sizes so small
/// fusion thresholds split the stream into several buckets.
fn worker_grads(step: u64) -> Vec<Vec<(String, Tensor)>> {
    let sizes = [33usize, 7, 128, 64, 5];
    (0..N_WORKERS)
        .map(|w| {
            sizes
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let data: Vec<f32> = (0..len)
                        .map(|j| {
                            let x = (w * 7919 + i * 611 + j) as f32 + step as f32 * 0.37;
                            (x * 0.01).sin() * 3.0
                        })
                        .collect();
                    (format!("l{i}/w"), Tensor::from_vec(data))
                })
                .collect()
        })
        .collect()
}

fn fleet(spec: &CompressorSpec) -> Fleet {
    (
        (0..N_WORKERS)
            .map(|w| (spec.build)(100 + w as u64))
            .collect(),
        (0..N_WORKERS).map(|_| (spec.build_memory)()).collect(),
    )
}

fn assert_bit_equal(a: &[(String, Tensor)], b: &[(String, Tensor)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: tensor count");
    for ((an, at), (bn, bt)) in a.iter().zip(b) {
        assert_eq!(an, bn, "{what}: name order");
        let ab: Vec<u32> = at.as_slice().iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = bt.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb, "{what}: '{an}' bits diverged");
    }
}

/// Streams `grads` through a pipelined session in plan order.
fn run_session(
    engine: &mut GradientExchange<'_>,
    fusion_bytes: usize,
    grads: &[Vec<(String, Tensor)>],
) -> (Vec<(String, Tensor)>, grace::core::ExchangeReport) {
    let mut builder = PlanBuilder::new(fusion_bytes);
    for (name, t) in &grads[0] {
        builder.push(name, t.len());
    }
    let plan = builder.finish();
    let mut session = engine.begin_step(&plan);
    for (w, stream) in grads.iter().enumerate() {
        for (name, t) in stream {
            session.submit(w, name, t);
        }
    }
    session.finish()
}

/// Every registered method, two steps (so error-feedback state carries
/// over): a fused session must reproduce the unfused single-bucket step
/// bit-for-bit, including the byte accounting. (The unfused session itself
/// is pinned by the trained-parameter goldens below and in
/// `tests/exchange_equivalence.rs`.)
#[test]
fn fused_session_matches_single_bucket_for_every_method() {
    for fusion_bytes in [1usize, 64 << 10] {
        for spec in all_specs() {
            let (mut c1, mut m1) = fleet(&spec);
            let mut unfused = GradientExchange::from_fleet(&mut c1, &mut m1);
            let (mut c2, mut m2) = fleet(&spec);
            let mut pipelined = GradientExchange::from_fleet(&mut c2, &mut m2);
            for step in 0..2 {
                let grads = worker_grads(step);
                let (base, base_rep) = run_session(&mut unfused, usize::MAX, &grads);
                let (piped, piped_rep) = run_session(&mut pipelined, fusion_bytes, &grads);
                assert_bit_equal(
                    &base,
                    &piped,
                    &format!("{} (fusion {fusion_bytes}, step {step})", spec.id),
                );
                assert_eq!(
                    base_rep.payload_bytes, piped_rep.payload_bytes,
                    "{}: payload bytes diverged",
                    spec.id
                );
                assert_eq!(
                    base_rep.wire_bytes(),
                    piped_rep.wire_bytes(),
                    "{}: wire bytes diverged",
                    spec.id
                );
                assert_eq!(
                    base_rep.elements(),
                    piped_rep.elements(),
                    "{}: element count diverged",
                    spec.id
                );
            }
        }
    }
}

/// Aggregation plans through the pipeline: for every registered method,
/// `homomorphic_sum` at every fusion threshold must reproduce the unfused
/// `decode_then_merge` reference bit-for-bit, with error-feedback state
/// carried across steps. This is the pipelined half of the plan-equivalence
/// contract (`tests/transport_equivalence.rs` covers the backend half).
#[test]
fn aggregation_plans_are_bit_identical_through_the_pipeline() {
    use grace::core::AggregationPlan;

    let plan = AggregationPlan::HomomorphicSum;
    for spec in all_specs() {
        for fusion_bytes in [64usize, usize::MAX] {
            let (mut c1, mut m1) = fleet(&spec);
            let mut reference = GradientExchange::from_fleet(&mut c1, &mut m1);
            let (mut c2, mut m2) = fleet(&spec);
            let mut planned = GradientExchange::from_fleet(&mut c2, &mut m2).with_aggregation(plan);
            for step in 0..2 {
                let grads = worker_grads(step);
                let (base, _) = run_session(&mut reference, usize::MAX, &grads);
                let (piped, _) = run_session(&mut planned, fusion_bytes, &grads);
                assert_bit_equal(
                    &base,
                    &piped,
                    &format!("{} ({plan}, fusion {fusion_bytes}, step {step})", spec.id),
                );
            }
        }
    }
}

/// The homomorphic fold's telemetry contract through the pipeline: with the
/// capability engaged, nothing is decoded (decode CPU stays zero) and the
/// incast accounting records compressed wire bytes, strictly below the
/// dense bytes the reference merge absorbs.
#[test]
fn homomorphic_fold_skips_decode_and_shrinks_incast() {
    use grace::core::AggregationPlan;

    let spec = all_specs()
        .into_iter()
        .find(|s| s.id == "eightbit")
        .expect("eightbit is registered");
    let (mut c1, mut m1) = fleet(&spec);
    let mut reference = GradientExchange::from_fleet(&mut c1, &mut m1);
    let (_, ref_rep) = run_session(&mut reference, 256, &worker_grads(0));
    let (mut c2, mut m2) = fleet(&spec);
    let mut hom = GradientExchange::from_fleet(&mut c2, &mut m2)
        .with_aggregation(AggregationPlan::HomomorphicSum);
    let (_, hom_rep) = run_session(&mut hom, 256, &worker_grads(0));

    assert!(ref_rep.decompress_seconds > 0.0);
    assert_eq!(
        hom_rep.decompress_seconds, 0.0,
        "the codebook-space fold must not decode"
    );
    assert!(hom_rep.aggregate_seconds > 0.0);
    assert!(
        hom_rep.incast_bytes < ref_rep.incast_bytes,
        "compressed fold must absorb fewer bytes: {} vs {}",
        hom_rep.incast_bytes,
        ref_rep.incast_bytes
    );
}

/// The Allgather aggregation path attributes its decode time to the report.
#[test]
fn gather_decode_time_is_recorded_in_the_report() {
    let spec = all_specs()
        .into_iter()
        .find(|s| s.id == "topk")
        .expect("topk is registered");
    let (mut cs, mut ms) = fleet(&spec);
    let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
    let (_, report) = run_session(&mut engine, 64, &worker_grads(0));
    assert!(
        report.decompress_seconds > 0.0,
        "decode wall time must be attributed"
    );
}

/// End-to-end golden: the trained parameters are invariant to the fusion
/// threshold. The constants equal `tests/exchange_equivalence.rs`'s goldens
/// — `fusion_bytes = usize::MAX` reproduces the whole-step exchange and
/// every other threshold only re-groups the same per-tensor work.
#[test]
fn trained_parameters_are_invariant_to_fusion_threshold() {
    use grace::compressors::{Qsgd, TopK};
    use grace::core::{NoMemory, ResidualMemory};

    const SEED: u64 = 17;
    const GOLDEN_QSGD: u32 = 0xaa5f_d836;
    const GOLDEN_TOPK: u32 = 0xe0ae_0255;

    fn golden_run(
        fusion_bytes: usize,
        make_c: impl Fn(usize) -> Box<dyn Compressor>,
        make_m: impl Fn() -> Box<dyn Memory>,
    ) -> u32 {
        let n = 4;
        let task = ClassificationDataset::synthetic(128, 8, 2, 0.3, SEED);
        let mut net = models::mlp_classifier("m", 8, &[16], 2, SEED);
        let mut opt = Momentum::new(0.05, 0.9);
        let mut cfg = TrainConfig::new(n, 8, 2, SEED);
        cfg.codec = CodecTiming::Free;
        cfg.fusion_bytes = fusion_bytes;
        let mut cs: Vec<Box<dyn Compressor>> = (0..n).map(&make_c).collect();
        let mut ms: Vec<Box<dyn Memory>> = (0..n).map(|_| make_m()).collect();
        let _ = run_simulated(&cfg, &mut net, &task, &mut opt, &mut cs, &mut ms);
        let mut bytes = Vec::new();
        for (name, t) in net.export_params() {
            bytes.extend_from_slice(name.as_bytes());
            for v in t.as_slice() {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        crc32(&bytes)
    }

    for fusion_bytes in [1usize, 64 << 10, 2 << 20, usize::MAX] {
        let qsgd = golden_run(
            fusion_bytes,
            |w| Box::new(Qsgd::new(16, 1000 + w as u64)),
            || Box::new(NoMemory::new()),
        );
        assert_eq!(
            qsgd, GOLDEN_QSGD,
            "qsgd diverged at fusion_bytes = {fusion_bytes}: {qsgd:#010x}"
        );
        let topk = golden_run(
            fusion_bytes,
            |_w| Box::new(TopK::new(0.05)),
            || Box::new(ResidualMemory::new()),
        );
        assert_eq!(
            topk, GOLDEN_TOPK,
            "topk diverged at fusion_bytes = {fusion_bytes}: {topk:#010x}"
        );
    }
}
