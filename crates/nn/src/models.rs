//! Analog model architectures matching the gradient-tensor profile of the
//! paper's benchmark suite (Table II).
//!
//! The paper's conclusions hinge on two architectural properties, both
//! preserved here at laptop scale:
//!
//! 1. **compute-bound vs communication-bound** — the ratio of FLOPs per
//!    minibatch to gradient bytes (ResNet/DenseNet vs VGG/NCF);
//! 2. **tensor shape profile** — many small tensors (ResNet-20: 51 vectors)
//!    vs few huge ones (NCF: 10 vectors dominated by embeddings).
//!
//! Every builder takes a seed so that all workers can replicate the exact
//! same initial model (data-parallel training, §II).

use crate::layer::{
    Activation, ActivationKind, Conv2d, Dense, DenseConcat, Embedding, Layer, Lstm, Reshape,
    Residual,
};
use crate::loss::Loss;
use crate::network::Network;
use grace_tensor::rng::substream;

/// A generic MLP classifier: `in → hidden… → classes` with ReLU.
pub fn mlp_classifier(
    name: &str,
    in_dim: usize,
    hidden: &[usize],
    classes: usize,
    seed: u64,
) -> Network {
    let mut rng = substream(seed, 0x40de1);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut width = in_dim;
    for (i, &h) in hidden.iter().enumerate() {
        layers.push(Box::new(Dense::new(format!("fc{i}"), width, h, &mut rng)));
        layers.push(Box::new(Activation::new(
            format!("relu{i}"),
            ActivationKind::Relu,
        )));
        width = h;
    }
    layers.push(Box::new(Dense::new("head", width, classes, &mut rng)));
    Network::new(name, layers, Loss::SoftmaxCrossEntropy)
}

fn residual_block(idx: usize, width: usize, rng: &mut rand::rngs::StdRng) -> Box<dyn Layer> {
    // Down-scale the branch output at init (the "zero-gamma" trick) so deep
    // stacks start close to the identity and activations stay bounded.
    let mut fc2 = Dense::new(format!("res{idx}/fc2"), width, width, rng);
    fc2.visit_params(&mut |p| p.value.scale(0.1));
    let inner: Vec<Box<dyn Layer>> = vec![
        Box::new(Dense::new(format!("res{idx}/fc1"), width, width, rng)),
        Box::new(Activation::new(
            format!("res{idx}/relu"),
            ActivationKind::Relu,
        )),
        Box::new(fc2),
    ];
    Box::new(Residual::new(format!("res{idx}"), inner))
}

/// ResNet-20 analog: narrow stem + 9 residual blocks → many small gradient
/// tensors (compute-bound profile; 40 gradient vectors vs the paper's 51).
pub fn resnet20_analog(in_dim: usize, classes: usize, seed: u64) -> Network {
    let mut rng = substream(seed, 0x2e520);
    let width = 48;
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Dense::new("stem", in_dim, width, &mut rng)),
        Box::new(Activation::new("stem/relu", ActivationKind::Relu)),
    ];
    for b in 0..9 {
        layers.push(residual_block(b, width, &mut rng));
    }
    layers.push(Box::new(Dense::new("head", width, classes, &mut rng)));
    Network::new("resnet20-analog", layers, Loss::SoftmaxCrossEntropy)
}

/// ResNet-50 analog: deeper and wider residual stack (ImageNet-class profile).
pub fn resnet50_analog(in_dim: usize, classes: usize, seed: u64) -> Network {
    let mut rng = substream(seed, 0x2e550);
    let width = 96;
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Dense::new("stem", in_dim, width, &mut rng)),
        Box::new(Activation::new("stem/relu", ActivationKind::Relu)),
    ];
    for b in 0..16 {
        layers.push(residual_block(b, width, &mut rng));
    }
    layers.push(Box::new(Dense::new("head", width, classes, &mut rng)));
    Network::new("resnet50-analog", layers, Loss::SoftmaxCrossEntropy)
}

/// DenseNet40-K12 analog: 12 concatenative blocks with growth 12 → many
/// small, steadily-widening tensors.
pub fn densenet40_analog(in_dim: usize, classes: usize, seed: u64) -> Network {
    let mut rng = substream(seed, 0xde5e4);
    let growth = 12;
    let stem = 24;
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Dense::new("stem", in_dim, stem, &mut rng)),
        Box::new(Activation::new("stem/relu", ActivationKind::Relu)),
    ];
    let mut width = stem;
    for b in 0..12 {
        let inner: Vec<Box<dyn Layer>> = vec![
            Box::new(Dense::new(format!("dense{b}/fc"), width, growth, &mut rng)),
            Box::new(Activation::new(
                format!("dense{b}/relu"),
                ActivationKind::Relu,
            )),
        ];
        layers.push(Box::new(DenseConcat::new(format!("dense{b}"), inner)));
        width += growth;
    }
    layers.push(Box::new(Dense::new("head", width, classes, &mut rng)));
    Network::new("densenet40-analog", layers, Loss::SoftmaxCrossEntropy)
}

/// ResNet-9 analog: an actual small CNN (conv stem + two conv blocks + dense
/// head) over `[channels, h, w]` images — few, large tensors, the model of
/// the paper's Fig. 9 PyTorch throughput experiment.
pub fn resnet9_analog(channels: usize, h: usize, w: usize, classes: usize, seed: u64) -> Network {
    let mut rng = substream(seed, 0x2e509);
    let c1 = Conv2d::new("conv1", channels, h, w, 8, 3, 1, 1, &mut rng);
    let (h1, w1) = c1.out_spatial();
    let c2 = Conv2d::new("conv2", 8, h1, w1, 16, 3, 2, 1, &mut rng);
    let (h2, w2) = c2.out_spatial();
    let c3 = Conv2d::new("conv3", 16, h2, w2, 16, 3, 2, 1, &mut rng);
    let (h3, w3) = c3.out_spatial();
    let flat = 16 * h3 * w3;
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(c1),
        Box::new(Activation::new("relu1", ActivationKind::Relu)),
        Box::new(c2),
        Box::new(Activation::new("relu2", ActivationKind::Relu)),
        Box::new(c3),
        Box::new(Activation::new("relu3", ActivationKind::Relu)),
        Box::new(Dense::new("fc", flat, 64, &mut rng)),
        Box::new(Activation::new("relu4", ActivationKind::Relu)),
        Box::new(Dense::new("head", 64, classes, &mut rng)),
    ];
    Network::new("resnet9-analog", layers, Loss::SoftmaxCrossEntropy)
}

/// VGG-16 analog: a plain deep-and-wide MLP — few huge tensors, strongly
/// communication-bound (the model of the paper's Fig. 1).
pub fn vgg16_analog(in_dim: usize, classes: usize, seed: u64) -> Network {
    mlp_classifier_named(
        "vgg16-analog",
        in_dim,
        &[512, 512, 256, 256, 128],
        classes,
        seed,
    )
}

/// VGG-19 analog: the largest classifier in the suite.
pub fn vgg19_analog(in_dim: usize, classes: usize, seed: u64) -> Network {
    mlp_classifier_named(
        "vgg19-analog",
        in_dim,
        &[768, 768, 512, 512, 256, 256],
        classes,
        seed,
    )
}

fn mlp_classifier_named(
    name: &str,
    in_dim: usize,
    hidden: &[usize],
    classes: usize,
    seed: u64,
) -> Network {
    let mut net = mlp_classifier(name, in_dim, hidden, classes, seed);
    let _ = net.param_count();
    net
}

/// NCF analog: one shared user+item embedding table feeding an MLP scorer —
/// 8 gradient vectors, dominated by the embedding (the paper's
/// recommendation benchmark profile, 10 vectors).
pub fn ncf_analog(vocab: usize, embed_dim: usize, seed: u64) -> Network {
    let mut rng = substream(seed, 0x0cf);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Embedding::new("emb", vocab, embed_dim, &mut rng)),
        Box::new(Dense::new("mlp1", 2 * embed_dim, 64, &mut rng)),
        Box::new(Activation::new("relu1", ActivationKind::Relu)),
        Box::new(Dense::new("mlp2", 64, 32, &mut rng)),
        Box::new(Activation::new("relu2", ActivationKind::Relu)),
        Box::new(Dense::new("score", 32, 1, &mut rng)),
    ];
    Network::new("ncf-analog", layers, Loss::BinaryCrossEntropy)
}

/// LSTM language-model analog: embedding → LSTM → shared output projection —
/// exactly 6 gradient vectors (the paper's PTB benchmark has 7).
pub fn lstm_analog(
    vocab: usize,
    embed_dim: usize,
    hidden: usize,
    seq: usize,
    seed: u64,
) -> Network {
    let mut rng = substream(seed, 0x15f3);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Embedding::new("emb", vocab, embed_dim, &mut rng)),
        Box::new(Lstm::new("lstm", embed_dim, hidden, seq, &mut rng)),
        Box::new(Reshape::new("flatten", seq)),
        Box::new(Dense::new("proj", hidden, vocab, &mut rng)),
    ];
    Network::new("lstm-analog", layers, Loss::SoftmaxCrossEntropy)
}

/// U-Net analog: encoder, bottleneck, and a skip-connected decoder producing
/// one logit per pixel.
pub fn unet_analog(h: usize, w: usize, seed: u64) -> Network {
    let mut rng = substream(seed, 0x0e7);
    let dim = h * w;
    let enc = dim / 2;
    let bottleneck = dim / 4;
    // Decoder sees concat(input-features, decoded) through DenseConcat.
    let inner: Vec<Box<dyn Layer>> = vec![
        Box::new(Dense::new("enc2", enc, bottleneck, &mut rng)),
        Box::new(Activation::new("enc2/relu", ActivationKind::Relu)),
        Box::new(Dense::new("dec1", bottleneck, enc, &mut rng)),
        Box::new(Activation::new("dec1/relu", ActivationKind::Relu)),
    ];
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Dense::new("enc1", dim, enc, &mut rng)),
        Box::new(Activation::new("enc1/relu", ActivationKind::Relu)),
        Box::new(DenseConcat::new("skip", inner)),
        Box::new(Dense::new("dec2", 2 * enc, dim, &mut rng)),
    ];
    Network::new("unet-analog", layers, Loss::BinaryCrossEntropy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{
        ClassificationDataset, RecommendationDataset, SegmentationDataset, Task, TextDataset,
    };
    use crate::optim::{Momentum, Optimizer, Sgd};

    fn train_steps(
        net: &mut Network,
        task: &dyn Task,
        opt: &mut dyn Optimizer,
        batch: usize,
        steps: usize,
    ) -> (f32, f32) {
        let mut first = 0.0;
        let mut last = 0.0;
        for s in 0..steps {
            let idx: Vec<usize> = (0..batch)
                .map(|i| (s * batch + i) % task.train_len())
                .collect();
            let (x, y) = task.train_batch(&idx);
            let loss = net.forward_backward(&x, &y);
            if s == 0 {
                first = loss;
            }
            last = loss;
            let grads = net.take_gradients();
            net.apply_gradients(&grads, opt);
        }
        (first, last)
    }

    #[test]
    fn tensor_profiles_match_design() {
        let mut r20 = resnet20_analog(64, 10, 1);
        assert_eq!(r20.gradient_tensor_count(), 40);
        let mut d40 = densenet40_analog(64, 10, 1);
        assert_eq!(d40.gradient_tensor_count(), 28);
        let mut ncf = ncf_analog(1000, 16, 1);
        assert_eq!(ncf.gradient_tensor_count(), 7);
        let mut lstm = lstm_analog(50, 8, 16, 4, 1);
        assert_eq!(lstm.gradient_tensor_count(), 6);
        // Communication-bound analogs have far more params per tensor.
        let mut vgg = vgg16_analog(64, 10, 1);
        let vgg_ratio = vgg.param_count() / vgg.gradient_tensor_count();
        let r20_ratio = r20.param_count() / r20.gradient_tensor_count();
        assert!(vgg_ratio > 8 * r20_ratio, "{vgg_ratio} vs {r20_ratio}");
    }

    #[test]
    fn resnet20_learns_classification() {
        let ds = ClassificationDataset::synthetic(400, 32, 4, 0.3, 3);
        let mut net = resnet20_analog(32, 4, 3);
        let q0 = ds.quality(&mut net);
        let mut opt = Momentum::new(0.03, 0.9);
        let (first, last) = train_steps(&mut net, &ds, &mut opt, 32, 60);
        assert!(last < first, "loss should drop: {first} -> {last}");
        let q1 = ds.quality(&mut net);
        assert!(q1 > q0.max(0.5), "accuracy {q0} -> {q1}");
    }

    #[test]
    fn resnet9_cnn_learns_images() {
        let ds = ClassificationDataset::synthetic_images(240, 2, 8, 8, 3, 0.3, 4);
        let mut net = resnet9_analog(2, 8, 8, 3, 4);
        let mut opt = Momentum::new(0.03, 0.9);
        let (first, last) = train_steps(&mut net, &ds, &mut opt, 24, 50);
        assert!(
            last < first * 0.9,
            "CNN loss should drop: {first} -> {last}"
        );
        assert!(ds.quality(&mut net) > 0.5);
    }

    #[test]
    fn ncf_learns_recommendation() {
        let ds = RecommendationDataset::synthetic(30, 120, 4, 4, 30, 5);
        let mut net = ncf_analog(ds.vocab(), 8, 5);
        let q0 = ds.quality(&mut net);
        let mut opt = crate::optim::Adam::new(0.01);
        let (_, _) = train_steps(&mut net, &ds, &mut opt, 50, 80);
        let q1 = ds.quality(&mut net);
        assert!(q1 > q0, "hit rate should improve: {q0} -> {q1}");
    }

    #[test]
    fn lstm_reduces_perplexity_below_uniform() {
        let ds = TextDataset::synthetic(4000, 24, 2, 6, 6);
        let mut net = lstm_analog(24, 12, 24, 6, 6);
        let mut opt = Sgd::new(0.5);
        let _ = train_steps(&mut net, &ds, &mut opt, 16, 120);
        let ppl = ds.quality(&mut net);
        assert!(
            ppl < 20.0,
            "perplexity {ppl} should beat uniform (24) clearly"
        );
    }

    #[test]
    fn unet_learns_segmentation() {
        let ds = SegmentationDataset::synthetic(120, 8, 8, 0.2, 13);
        let mut net = unet_analog(8, 8, 13);
        let mut opt = crate::optim::RmsProp::new(0.005);
        let (first, last) = train_steps(&mut net, &ds, &mut opt, 16, 80);
        assert!(last < first, "loss should drop: {first} -> {last}");
        let q = ds.quality(&mut net);
        assert!(q > 0.5, "IoU {q}");
    }

    #[test]
    fn builders_are_seed_deterministic() {
        let mut a = vgg16_analog(32, 10, 9);
        let mut b = vgg16_analog(32, 10, 9);
        let pa = a.export_params();
        let pb = b.export_params();
        for ((na, ta), (nb, tb)) in pa.iter().zip(pb.iter()) {
            assert_eq!(na, nb);
            assert_eq!(ta.as_slice(), tb.as_slice());
        }
    }

    #[test]
    fn param_counts_span_orders_of_magnitude() {
        let mut small = resnet20_analog(64, 10, 1);
        let mut big = vgg19_analog(256, 10, 1);
        assert!(small.param_count() > 10_000);
        assert!(big.param_count() > 10 * small.param_count());
    }
}
