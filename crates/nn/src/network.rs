//! Feed-forward network container producing named per-layer gradients.

use crate::layer::{forward_stack, Layer};
use crate::loss::{Loss, Targets};
use crate::optim::Optimizer;
use crate::split::Split;
use grace_tensor::Tensor;

/// A stack of layers with a loss head.
///
/// `Network` is the unit the distributed trainer replicates per worker. After
/// [`forward_backward`](Network::forward_backward), each parameter holds its
/// gradient; [`take_gradients`](Network::take_gradients) exposes them as
/// *named tensors* — the layer-wise gradient stream that GRACE compresses
/// (paper Fig. 2). [`apply_gradients`](Network::apply_gradients) consumes the
/// aggregated (decompressed) gradients and performs the optimizer update of
/// Algorithm 1 line 15.
pub struct Network {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    loss: Loss,
    /// The pass of a split evaluation in progress ([`crate::split`]).
    pub(crate) split: Option<Split>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network({}, {} layers, loss {:?})",
            self.name,
            self.layers.len(),
            self.loss
        )
    }
}

impl Network {
    /// Assembles a network.
    ///
    /// # Panics
    ///
    /// Panics if two parameters share a name (error-feedback memory is keyed
    /// by name, so names must be unique).
    pub fn new(name: impl Into<String>, layers: Vec<Box<dyn Layer>>, loss: Loss) -> Self {
        let mut net = Network {
            name: name.into(),
            layers,
            loss,
            split: None,
        };
        let names = net.gradient_names();
        let mut seen = std::collections::HashSet::new();
        for n in &names {
            assert!(seen.insert(n.clone()), "duplicate parameter name '{n}'");
        }
        net
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The loss head.
    pub fn loss(&self) -> Loss {
        self.loss
    }

    /// Runs the forward pass in **inference mode** (dropout off, batch-norm
    /// running statistics) and returns the logits. No layer stores anything
    /// for a backward pass, and each layer's output is dropped once the next
    /// has read it. During a [`split_quality`](Network::split_quality) the
    /// call computes, counts or replays rows as that evaluation's pass asks.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        match &mut self.split {
            Some(split) => split.forward(&mut self.layers, x),
            None => forward_stack(&mut self.layers, x, false),
        }
    }

    /// Runs forward + loss + backward in **training mode**, filling every
    /// parameter gradient, and returns the scalar loss.
    pub fn forward_backward(&mut self, x: &Tensor, targets: &Targets) -> f32 {
        let logits = forward_stack(&mut self.layers, x, true);
        let (loss, mut grad) = self.loss.loss_and_grad(&logits, targets);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        loss
    }

    /// Like [`forward_backward`](Network::forward_backward), but emits each
    /// layer's gradients through `sink` **as soon as that layer's backward
    /// step completes** — i.e. in reverse layer order, which is the order the
    /// fusion pipeline seals buckets in so compression of early-emitted
    /// (deep) layers overlaps with backprop through the shallow ones.
    ///
    /// Within a layer, parameters are emitted in declaration order. The
    /// emitted set is exactly [`take_gradients`](Network::take_gradients)
    /// reversed layer-by-layer.
    ///
    /// The sink gets each parameter's gradient buffer itself and may take
    /// it, leaving the parameter's gradient empty; a gradient it leaves stays
    /// stored on the parameter. A backward pass writes into a buffer of the
    /// right length where it finds one, so a caller that hands the buffers
    /// back after the update ([`return_gradients`](Network::return_gradients))
    /// circulates one buffer per parameter across steps.
    pub fn forward_backward_streaming(
        &mut self,
        x: &Tensor,
        targets: &Targets,
        sink: &mut dyn FnMut(&str, &mut Tensor),
    ) -> f32 {
        let logits = forward_stack(&mut self.layers, x, true);
        let (loss, mut grad) = self.loss.loss_and_grad(&logits, targets);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
            layer.visit_params(&mut |p| sink(&p.name, &mut p.grad));
        }
        loss
    }

    /// Evaluates the loss in inference mode, without computing gradients.
    pub fn evaluate_loss(&mut self, x: &Tensor, targets: &Targets) -> f32 {
        let logits = self.forward(x);
        self.loss.loss_and_grad(&logits, targets).0
    }

    /// Returns the current gradients as `(name, tensor)` pairs, in layer
    /// order.
    pub fn take_gradients(&mut self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            layer.visit_params(&mut |p| out.push((p.name.clone(), p.grad.clone())));
        }
        out
    }

    /// Applies aggregated gradients through an optimizer (Algorithm 1 line
    /// 15: `x ← x − η·g` plus optimizer state).
    ///
    /// # Panics
    ///
    /// Panics if the gradient list does not match the parameter list.
    pub fn apply_gradients(&mut self, grads: &[(String, Tensor)], opt: &mut dyn Optimizer) {
        let mut idx = 0;
        for layer in &mut self.layers {
            layer.visit_params(&mut |p| {
                let (name, g) = grads
                    .get(idx)
                    .unwrap_or_else(|| panic!("missing gradient for '{}'", p.name));
                assert_eq!(name, &p.name, "gradient order mismatch at '{}'", p.name);
                assert_eq!(
                    g.len(),
                    p.value.len(),
                    "gradient size mismatch at '{}'",
                    p.name
                );
                opt.update(&p.name, &mut p.value, g);
                idx += 1;
            });
        }
        assert_eq!(idx, grads.len(), "extra gradients supplied");
    }

    /// Hands each gradient buffer back to its parameter — typically the
    /// aggregates [`apply_gradients`](Network::apply_gradients) has just
    /// read — so the next backward pass writes into it.
    ///
    /// # Panics
    ///
    /// As [`apply_gradients`](Network::apply_gradients), on a list that does
    /// not match the parameter list.
    pub fn return_gradients(&mut self, grads: Vec<(String, Tensor)>) {
        let mut grads = grads.into_iter();
        for layer in &mut self.layers {
            layer.visit_params(&mut |p| {
                let (name, g) = grads
                    .next()
                    .unwrap_or_else(|| panic!("missing gradient for '{}'", p.name));
                assert_eq!(name, p.name, "gradient order mismatch at '{}'", p.name);
                assert_eq!(
                    g.len(),
                    p.value.len(),
                    "gradient size mismatch at '{}'",
                    p.name
                );
                p.grad = g;
            });
        }
        assert!(grads.next().is_none(), "extra gradients supplied");
    }

    /// Drops every parameter's gradient buffer, e.g. before an evaluation
    /// that needs the memory; the next backward pass allocates them again.
    pub fn release_gradients(&mut self) {
        for layer in &mut self.layers {
            layer.visit_params(&mut |p| p.grad = Tensor::from_vec(Vec::new()));
        }
    }

    /// Number of trainable scalars.
    pub fn param_count(&mut self) -> usize {
        self.layers.iter_mut().map(|l| l.param_count()).sum()
    }

    /// Number of gradient tensors communicated per iteration ("Gradient
    /// vectors" column of the paper's Table II).
    pub fn gradient_tensor_count(&mut self) -> usize {
        let mut n = 0;
        for layer in &mut self.layers {
            layer.visit_params(&mut |_| n += 1);
        }
        n
    }

    /// The `(name, element-count)` sequence of the streaming backward pass —
    /// reverse layer order, parameters in declaration order within a layer —
    /// for pre-building fusion bucket plans that match
    /// [`forward_backward_streaming`](Network::forward_backward_streaming).
    pub fn streaming_grad_sizes(&mut self) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        for layer in self.layers.iter_mut().rev() {
            layer.visit_params(&mut |p| out.push((p.name.clone(), p.value.len())));
        }
        out
    }

    /// The parameter names in layer order.
    pub fn gradient_names(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            layer.visit_params(&mut |p| out.push(p.name.clone()));
        }
        out
    }

    /// Snapshots all parameter values (for replication / convergence checks).
    pub fn export_params(&mut self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            layer.visit_params(&mut |p| out.push((p.name.clone(), p.value.clone())));
        }
        out
    }

    /// The parameter values moved out of a network that is done with them —
    /// [`export_params`](Network::export_params) without the copy.
    pub fn into_params(mut self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            layer.visit_params(&mut |p| {
                let value = std::mem::replace(&mut p.value, Tensor::from_vec(Vec::new()));
                out.push((std::mem::take(&mut p.name), value));
            });
        }
        out
    }

    /// Restores parameter values from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics on any name/size mismatch.
    pub fn import_params(&mut self, params: &[(String, Tensor)]) {
        let mut idx = 0;
        for layer in &mut self.layers {
            layer.visit_params(&mut |p| {
                let (name, v) = &params[idx];
                assert_eq!(name, &p.name, "param order mismatch");
                assert_eq!(v.len(), p.value.len(), "param size mismatch");
                p.value = v.clone();
                idx += 1;
            });
        }
        assert_eq!(idx, params.len(), "extra parameters supplied");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{
        Activation, ActivationKind, BatchNorm, Conv2d, Dense, DenseConcat, Dropout, Embedding,
        LayerNorm, Lstm, Reshape, Residual,
    };
    use crate::optim::Sgd;
    use grace_tensor::rng::seeded;
    use grace_tensor::Shape;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = seeded(seed);
        Network::new(
            "tiny",
            vec![
                Box::new(Dense::new("fc1", 4, 8, &mut rng)),
                Box::new(Activation::new("act1", ActivationKind::Tanh)),
                Box::new(Dense::new("fc2", 8, 3, &mut rng)),
            ],
            Loss::SoftmaxCrossEntropy,
        )
    }

    fn tiny_batch() -> (Tensor, Targets) {
        let x = Tensor::new(
            vec![0.5, -0.2, 0.1, 0.9, -0.5, 0.3, 0.7, -0.1],
            Shape::matrix(2, 4),
        );
        (x, Targets::Classes(vec![0, 2]))
    }

    #[test]
    fn counts_and_names() {
        let mut net = tiny_net(1);
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(net.gradient_tensor_count(), 4);
        assert_eq!(
            net.gradient_names(),
            vec!["fc1/w", "fc1/b", "fc2/w", "fc2/b"]
        );
    }

    #[test]
    fn sgd_step_reduces_loss() {
        let mut net = tiny_net(2);
        let (x, y) = tiny_batch();
        let mut opt = Sgd::new(0.5);
        let l0 = net.forward_backward(&x, &y);
        let grads = net.take_gradients();
        net.apply_gradients(&grads, &mut opt);
        let l1 = net.evaluate_loss(&x, &y);
        assert!(l1 < l0, "loss did not decrease: {l0} -> {l1}");
    }

    #[test]
    fn into_params_moves_what_export_params_copies() {
        let mut net = tiny_net(5);
        let copied = net.export_params();
        assert_eq!(net.into_params(), copied);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut a = tiny_net(3);
        let mut b = tiny_net(4);
        let (x, y) = tiny_batch();
        let la = a.evaluate_loss(&x, &y);
        let snapshot = a.export_params();
        b.import_params(&snapshot);
        let lb = b.evaluate_loss(&x, &y);
        assert_eq!(la, lb, "imported network must match exactly");
    }

    #[test]
    fn same_seed_networks_are_identical() {
        let mut a = tiny_net(9);
        let mut b = tiny_net(9);
        let (x, y) = tiny_batch();
        assert_eq!(a.evaluate_loss(&x, &y), b.evaluate_loss(&x, &y));
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let mut rng = seeded(5);
        let _ = Network::new(
            "dup",
            vec![
                Box::new(Dense::new("fc", 2, 2, &mut rng)),
                Box::new(Dense::new("fc", 2, 2, &mut rng)),
            ],
            Loss::Mse,
        );
    }

    #[test]
    #[should_panic(expected = "gradient order mismatch")]
    fn apply_rejects_reordered_gradients() {
        let mut net = tiny_net(6);
        let (x, y) = tiny_batch();
        let _ = net.forward_backward(&x, &y);
        let mut grads = net.take_gradients();
        grads.swap(0, 2);
        let mut opt = Sgd::new(0.1);
        net.apply_gradients(&grads, &mut opt);
    }

    #[test]
    fn streaming_backward_emits_reverse_layer_order_bit_identically() {
        let mut a = tiny_net(8);
        let mut b = tiny_net(8);
        let (x, y) = tiny_batch();
        let mut streamed: Vec<(String, Tensor)> = Vec::new();
        let la = a.forward_backward_streaming(&x, &y, &mut |name, grad| {
            streamed.push((name.to_string(), grad.clone()));
        });
        let lb = b.forward_backward(&x, &y);
        assert_eq!(la, lb);
        assert_eq!(
            streamed.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["fc2/w", "fc2/b", "fc1/w", "fc1/b"],
            "streaming order must be reverse layer order"
        );
        let oneshot = b.take_gradients();
        for (name, grad) in &streamed {
            let (_, reference) = oneshot.iter().find(|(n, _)| n == name).unwrap();
            assert_eq!(grad.as_slice(), reference.as_slice(), "mismatch at {name}");
        }
        // Gradients stay on the params: take_gradients still works.
        assert_eq!(a.take_gradients().len(), streamed.len());
    }

    /// A sink that takes every buffer leaves the parameters empty; handed
    /// back, the buffers are the ones the next backward writes — Dense's
    /// weight and bias in place — with a fresh network's bits, and a
    /// released network allocates them again.
    #[test]
    fn taken_gradient_buffers_come_back_and_are_overwritten_in_place() {
        let (x, y) = tiny_batch();
        let mut net = tiny_net(8);
        let take = |net: &mut Network| {
            let mut taken = Vec::new();
            net.forward_backward_streaming(&x, &y, &mut |name, grad| {
                taken.push((
                    name.to_string(),
                    std::mem::replace(grad, Tensor::from_vec(vec![])),
                ));
            });
            let order = net.gradient_names();
            taken.sort_by_key(|(n, _)| order.iter().position(|o| o == n));
            taken
        };
        let first = take(&mut net);
        assert!(net.take_gradients().iter().all(|(_, g)| g.is_empty()));
        let mut poisoned = first.clone();
        for (_, g) in &mut poisoned {
            g.as_mut_slice().fill(f32::NAN);
        }
        let buffers: Vec<_> = poisoned
            .iter()
            .map(|(_, g)| g.as_slice().as_ptr())
            .collect();
        net.return_gradients(poisoned);
        let second = take(&mut net);
        let at: Vec<_> = second.iter().map(|(_, g)| g.as_slice().as_ptr()).collect();
        assert_eq!(at, buffers, "every buffer is written in place");
        net.release_gradients();
        let third = take(&mut net);
        for got in [&second, &third] {
            for ((n, want), (m, g)) in first.iter().zip(got) {
                assert_eq!(n, m);
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(want), bits(g), "{n}");
            }
        }
    }

    #[test]
    fn gradients_are_deterministic() {
        let mut a = tiny_net(7);
        let mut b = tiny_net(7);
        let (x, y) = tiny_batch();
        let _ = a.forward_backward(&x, &y);
        let _ = b.forward_backward(&x, &y);
        let (ga, gb) = (a.take_gradients(), b.take_gradients());
        for ((na, ta), (nb, tb)) in ga.iter().zip(gb.iter()) {
            assert_eq!(na, nb);
            assert_eq!(ta.as_slice(), tb.as_slice());
        }
    }

    /// Every layer kind in one stack, reading `[batch, 3]` token ids:
    /// embedding, LSTM, reshape to `[3·batch, 4]`, convolution over 2×2
    /// images, dense, activation, layer and batch norm, dropout, a residual
    /// and a dense-concat block, and a dense head of 5 logits.
    fn every_kind(seed: u64) -> Vec<Box<dyn Layer>> {
        let mut rng = seeded(seed);
        let block = |rng: &mut _, name: &str, out, kind| -> Vec<Box<dyn Layer>> {
            vec![
                Box::new(Dense::new(format!("{name}/fc"), 8, out, rng)),
                Box::new(Activation::new(format!("{name}/act"), kind)),
            ]
        };
        vec![
            Box::new(Embedding::new("emb", 10, 4, &mut rng)),
            Box::new(Lstm::new("lstm", 4, 4, 3, &mut rng)),
            Box::new(Reshape::new("rows", 3)),
            Box::new(Conv2d::new("conv", 1, 2, 2, 2, 2, 1, 1, &mut rng)),
            Box::new(Dense::new("fc", 18, 8, &mut rng)),
            Box::new(Activation::new("tanh", ActivationKind::Tanh)),
            Box::new(LayerNorm::new("ln", 8)),
            Box::new(BatchNorm::new("bn", 8)),
            Box::new(Dropout::new("drop", 0.5, seed)),
            Box::new(Residual::new(
                "res",
                block(&mut rng, "res", 8, ActivationKind::Relu),
            )),
            Box::new(DenseConcat::new(
                "cat",
                block(&mut rng, "cat", 4, ActivationKind::Sigmoid),
            )),
            Box::new(Dense::new("head", 12, 5, &mut rng)),
        ]
    }

    /// A batch of `batch` rows of 3 token ids, and its 3·batch class labels.
    fn tokens(batch: usize, seed: u64) -> (Tensor, Targets) {
        let ids = (0..3 * batch).map(|i| ((i as u64 * 7 + seed) % 10) as f32);
        let labels = (0..3 * batch).map(|i| ((i as u64 + seed) % 5) as u32);
        (
            Tensor::new(ids.collect(), Shape::matrix(batch, 3)),
            Targets::Classes(labels.collect()),
        )
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Each layer kind's inference forward gives its training forward's
    /// bits — except batch norm's and dropout's, whose modes differ in
    /// arithmetic by definition — and stores nothing: a backward after an
    /// inference forward on another batch gives the bits of a backward
    /// straight after the training forward, and a training step taken after
    /// an evaluation the bits of one taken without it.
    #[test]
    fn an_inference_forward_keeps_the_bits_and_no_backward_state() {
        let (x, y) = tokens(4, 1);
        let (z, _) = tokens(6, 2);
        let (mut train, mut infer) = (every_kind(3), every_kind(3));
        let mut h = x.clone();
        for (t, i) in train.iter_mut().zip(&mut infer) {
            let (trained, inferred) = (t.forward(&h, true), i.forward(&h, false));
            if !["bn", "drop"].contains(&t.name()) {
                assert_eq!(bits(&trained), bits(&inferred), "{}", t.name());
            }
            h = inferred;
        }

        let backward = |layers: &mut [Box<dyn Layer>], evaluate: bool| {
            let out = forward_stack(layers, &x, true);
            if evaluate {
                forward_stack(layers, &z, false);
            }
            let mut g = out.map(|v| v.sin());
            for layer in layers.iter_mut().rev() {
                g = layer.backward(&g);
            }
            let mut grads = vec![bits(&g)];
            for layer in layers.iter_mut() {
                layer.visit_params(&mut |p| grads.push(bits(&p.grad)));
            }
            grads
        };
        assert_eq!(
            backward(&mut every_kind(4), true),
            backward(&mut every_kind(4), false)
        );

        let step = |evaluate: bool| {
            let mut net = Network::new("every", every_kind(5), Loss::SoftmaxCrossEntropy);
            let mut opt = Sgd::new(0.1);
            net.forward_backward(&x, &y);
            let grads = net.take_gradients();
            net.apply_gradients(&grads, &mut opt);
            if evaluate {
                net.forward(&z);
                net.evaluate_loss(&x, &y);
            }
            let loss = net.forward_backward(&x, &y);
            let grads = net.take_gradients();
            net.apply_gradients(&grads, &mut opt);
            let params: Vec<_> = net.export_params().iter().map(|(_, p)| bits(p)).collect();
            (loss.to_bits(), params)
        };
        assert_eq!(step(true), step(false));
    }
}
