//! Implementing a **new** compression method against the GRACE API — the
//! paper's "researchers… easily implement novel methods using our API and
//! evaluate them on a standard testbed" use case (§I).
//!
//! The method below ("MeanTop") keeps the top-k magnitudes but transmits only
//! their shared mean (one scalar + indices + a sign bitmap), then is dropped
//! unmodified into the full distributed training loop next to Top-k.
//!
//! Run: `cargo run --release --example custom_compressor`

use grace::comm::NetworkModel;
use grace::compressors::TopK;
use grace::core::trainer::run_simulated;
use grace::core::{
    CommStrategy, Compressor, Context, Memory, Payload, ResidualMemory, TrainConfig,
};
use grace::nn::data::{ClassificationDataset, Task};
use grace::nn::models;
use grace::nn::optim::Momentum;
use grace::tensor::pack::bitmap;
use grace::tensor::select::top_k_indices;
use grace::tensor::Tensor;

/// Top-k selection + 1-bit magnitude quantization: indices, signs and one
/// mean scalar per tensor.
struct MeanTop {
    ratio: f64,
}

impl Compressor for MeanTop {
    fn name(&self) -> String {
        format!("MeanTop({})", self.ratio)
    }

    fn strategy(&self) -> CommStrategy {
        CommStrategy::Allgather
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        let k = ((tensor.len() as f64 * self.ratio).ceil() as usize).max(1);
        let indices = top_k_indices(tensor.as_slice(), k);
        let values: Vec<f32> = indices.iter().map(|&i| tensor[i as usize]).collect();
        let mean = values.iter().map(|v| v.abs()).sum::<f32>() / values.len() as f32;
        (
            vec![
                Payload::U32(indices),
                Payload::Packed {
                    data: bitmap(&values, |v| v < 0.0),
                    bits: 1,
                    count: values.len() as u32,
                },
            ],
            Context::with_meta(tensor.shape().clone(), vec![mean]),
        )
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        let mean = ctx.meta[0];
        let indices = payloads[0].as_u32();
        let Payload::Packed { data: signs, .. } = &payloads[1] else {
            unreachable!("wire format fixed above");
        };
        let mut out = Tensor::zeros(ctx.shape.clone());
        for (j, &i) in indices.iter().enumerate() {
            let neg = (signs[j / 8] >> (j % 8)) & 1 != 0;
            out[i as usize] = if neg { -mean } else { mean };
        }
        out
    }
}

fn train_with(label: &str, task: &dyn Task, make: impl Fn() -> Box<dyn Compressor>) -> (f64, f64) {
    let mut net = models::resnet20_analog(32, 4, 5);
    let mut cfg = TrainConfig::new(4, 16, 8, 5);
    cfg.network = NetworkModel::paper_default();
    let mut opt = Momentum::new(0.05, 0.9);
    let mut cs: Vec<Box<dyn Compressor>> = (0..4).map(|_| make()).collect();
    let mut ms: Vec<Box<dyn Memory>> = (0..4)
        .map(|_| Box::new(ResidualMemory::new()) as Box<dyn Memory>)
        .collect();
    let res = run_simulated(&cfg, &mut net, task, &mut opt, &mut cs, &mut ms);
    println!(
        "{label:<16} accuracy {:.4}  volume/iter {:>9.0} B  ({:.0}x compression)",
        res.best_quality,
        res.bytes_per_worker_per_iter,
        res.compression_ratio()
    );
    (res.best_quality, res.bytes_per_worker_per_iter)
}

fn main() {
    let task = ClassificationDataset::synthetic(640, 32, 4, 0.35, 5);
    println!("Custom method vs Top-k on the ResNet-20 analog, 4 workers:\n");
    let (_, topk_vol) = train_with("Topk(0.01)", &task, || Box::new(TopK::new(0.01)));
    let (_, mean_vol) = train_with("MeanTop(0.01)", &task, || Box::new(MeanTop { ratio: 0.01 }));
    println!(
        "\nMeanTop transmits {:.1}% of Top-k's bytes by replacing float values \
         with one mean + sign bits.",
        100.0 * mean_vol / topk_vol
    );
}
