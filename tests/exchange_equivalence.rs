//! Bit-equivalence regression tests for the `grace_core::exchange` engine.
//!
//! The golden checksums below were captured from `run_simulated` *before* the
//! exchange loops were extracted into [`grace::core::exchange`]; the refactor
//! must keep the trained parameters bit-identical for one quantization, one
//! sparsification and one low-rank method, with tracing on or off.

use grace::compressors::{PowerSgd, Qsgd, TopK};
use grace::core::trainer::{run_simulated, CodecTiming};
use grace::core::{Compressor, Memory, NoMemory, ResidualMemory, TrainConfig};
use grace::nn::data::ClassificationDataset;
use grace::nn::models;
use grace::nn::optim::Momentum;
use grace::tensor::pack::crc32;

const SEED: u64 = 17;

type Fleet = (Vec<Box<dyn Compressor>>, Vec<Box<dyn Memory>>);

fn fleet(
    n: usize,
    make_c: impl Fn(usize) -> Box<dyn Compressor>,
    make_m: impl Fn() -> Box<dyn Memory>,
) -> Fleet {
    (
        (0..n).map(make_c).collect(),
        (0..n).map(|_| make_m()).collect(),
    )
}

/// Trains a small MLP with the given fleet and returns a CRC32 over the
/// little-endian bytes of every final parameter tensor (names included).
fn golden_run(
    make_c: impl Fn(usize) -> Box<dyn Compressor>,
    make_m: impl Fn() -> Box<dyn Memory>,
) -> u32 {
    let n = 4;
    let task = ClassificationDataset::synthetic(128, 8, 2, 0.3, SEED);
    let mut net = models::mlp_classifier("m", 8, &[16], 2, SEED);
    let mut opt = Momentum::new(0.05, 0.9);
    let mut cfg = TrainConfig::new(n, 8, 2, SEED);
    cfg.codec = CodecTiming::Free;
    let (mut cs, mut ms) = fleet(n, make_c, make_m);
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

#[test]
fn qsgd_parameters_match_pre_refactor_golden() {
    let crc = golden_run(
        |w| Box::new(Qsgd::new(16, 1000 + w as u64)),
        || Box::new(NoMemory::new()),
    );
    assert_eq!(crc, GOLDEN_QSGD, "quantization path diverged: {crc:#010x}");
}

#[test]
fn topk_parameters_match_pre_refactor_golden() {
    let crc = golden_run(
        |_w| Box::new(TopK::new(0.05)),
        || Box::new(ResidualMemory::new()),
    );
    assert_eq!(
        crc, GOLDEN_TOPK,
        "sparsification path diverged: {crc:#010x}"
    );
}

#[test]
fn powersgd_parameters_match_pre_refactor_golden() {
    let crc = golden_run(
        |_w| Box::new(PowerSgd::new(2)),
        || Box::new(ResidualMemory::new()),
    );
    assert_eq!(crc, GOLDEN_POWERSGD, "low-rank path diverged: {crc:#010x}");
}

/// `GOLDEN_TOPK`/`GOLDEN_POWERSGD` were captured from the pre-refactor
/// `run_simulated` at commit `bade74c` and have survived every refactor
/// since (Top-k is stateless per tensor; PowerSGD's q-state is name-keyed),
/// including the pipelined exchange: fusion order does not change what is
/// computed per tensor. `GOLDEN_QSGD` was re-captured when the trainer
/// switched to the streaming backward pass: QSGD draws its dither from one
/// sequential per-lane RNG substream, so feeding gradients in reverse layer
/// order (deepest first, the overlap-friendly order) permutes the draws.
/// The value is order-dependent but still fully deterministic — the
/// pipeline and transport equivalence suites pin it across fusion sizes.
const GOLDEN_QSGD: u32 = 0xaa5f_d836;
const GOLDEN_TOPK: u32 = 0xe0ae_0255;
const GOLDEN_POWERSGD: u32 = 0xfc95_aeee;

/// Telemetry must be bit-invisible: with full tracing enabled the trained
/// parameters still hash to the pre-refactor goldens, and the run leaves
/// spans behind (i.e. tracing was actually on, not silently disabled).
#[test]
fn trace_enabled_run_matches_goldens() {
    use grace::telemetry::{set_level, trace, Level};
    set_level(Level::Trace);
    let crc = golden_run(
        |_w| Box::new(TopK::new(0.05)),
        || Box::new(ResidualMemory::new()),
    );
    let spans = trace::take_events();
    set_level(Level::Off);
    assert_eq!(crc, GOLDEN_TOPK, "tracing changed the trained model");
    assert!(
        spans.iter().any(|e| e.name == "compress"),
        "tracing was enabled but no compress spans were recorded"
    );
    assert!(
        spans.iter().any(|e| e.name == "bucket"),
        "the pipelined exchange must leave per-bucket spans"
    );
}
