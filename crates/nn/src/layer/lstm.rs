//! Long short-term memory layer with full backpropagation through time.

use super::{sigmoid, Layer, Param};
use crate::init;
use grace_tensor::linalg::{matmul, matmul_transpose_a, matmul_transpose_b};
use grace_tensor::{Shape, Tensor};
use rand::rngs::StdRng;

/// A single-layer LSTM unrolled over a fixed sequence length.
///
/// Input rows are `[seq · in_dim]` concatenated timesteps
/// (`[batch, seq·in_dim]`); output rows are the hidden states of every
/// timestep (`[batch, seq·hidden]`). The hidden/cell state starts at zero for
/// every batch (stateless truncation, as in the paper's PTB benchmark loop).
///
/// Gate layout along the `4·hidden` axis is `[input, forget, cell, output]`.
#[derive(Debug)]
pub struct Lstm {
    name: String,
    wx: Param,
    wh: Param,
    bias: Param,
    in_dim: usize,
    hidden: usize,
    seq: usize,
    cache: Vec<StepCache>,
    cached_batch: usize,
}

#[derive(Debug, Default, Clone)]
struct StepCache {
    x: Vec<f32>,      // [batch, in_dim]
    h_prev: Vec<f32>, // [batch, hidden]
    c_prev: Vec<f32>, // [batch, hidden]
    i: Vec<f32>,      // post-sigmoid
    f: Vec<f32>,      // post-sigmoid
    g: Vec<f32>,      // post-tanh
    o: Vec<f32>,      // post-sigmoid
    c_tanh: Vec<f32>, // tanh(c_t)
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialised weight matrices and a
    /// forget-gate bias of 1 (standard practice for trainability).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        name: impl Into<String>,
        in_dim: usize,
        hidden: usize,
        seq: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            in_dim > 0 && hidden > 0 && seq > 0,
            "lstm dims must be positive"
        );
        let name = name.into();
        let wx = Param::new(
            format!("{name}/wx"),
            init::xavier_uniform(rng, Shape::matrix(in_dim, 4 * hidden), in_dim, hidden),
        );
        let wh = Param::new(
            format!("{name}/wh"),
            init::xavier_uniform(rng, Shape::matrix(hidden, 4 * hidden), hidden, hidden),
        );
        let mut b = Tensor::zeros(Shape::vector(4 * hidden));
        for j in hidden..2 * hidden {
            b[j] = 1.0; // forget-gate bias
        }
        let bias = Param::new(format!("{name}/b"), b);
        Lstm {
            name,
            wx,
            wh,
            bias,
            in_dim,
            hidden,
            seq,
            cache: Vec::new(),
            cached_batch: 0,
        }
    }

    /// Hidden-state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Unrolled sequence length.
    pub fn seq(&self) -> usize {
        self.seq
    }
}

impl Layer for Lstm {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let (batch, feat) = input.shape().as_matrix();
        assert_eq!(
            feat,
            self.seq * self.in_dim,
            "lstm '{}' expected {} features, got {feat}",
            self.name,
            self.seq * self.in_dim
        );
        let h4 = 4 * self.hidden;
        if training {
            self.cache.clear();
            self.cached_batch = batch;
        }
        let mut h = vec![0.0f32; batch * self.hidden];
        let mut c = vec![0.0f32; batch * self.hidden];
        let mut out = vec![0.0f32; batch * self.seq * self.hidden];
        for t in 0..self.seq {
            // Gather x_t: [batch, in_dim] from strided input rows.
            let mut x = vec![0.0f32; batch * self.in_dim];
            for bi in 0..batch {
                let src = &input.as_slice()
                    [bi * feat + t * self.in_dim..bi * feat + (t + 1) * self.in_dim];
                x[bi * self.in_dim..(bi + 1) * self.in_dim].copy_from_slice(src);
            }
            // pre = x·Wx + h·Wh + b
            let mut pre = matmul(&x, self.wx.value.as_slice(), batch, self.in_dim, h4);
            let hw = matmul(&h, self.wh.value.as_slice(), batch, self.hidden, h4);
            for (p, v) in pre.iter_mut().zip(hw.iter()) {
                *p += v;
            }
            for row in pre.chunks_exact_mut(h4) {
                for (p, b) in row.iter_mut().zip(self.bias.value.as_slice()) {
                    *p += b;
                }
            }
            let mut step = training.then(|| StepCache {
                x,
                h_prev: h.clone(),
                c_prev: c.clone(),
                i: vec![0.0; batch * self.hidden],
                f: vec![0.0; batch * self.hidden],
                g: vec![0.0; batch * self.hidden],
                o: vec![0.0; batch * self.hidden],
                c_tanh: vec![0.0; batch * self.hidden],
            });
            for bi in 0..batch {
                for j in 0..self.hidden {
                    let base = bi * h4;
                    let idx = bi * self.hidden + j;
                    let iv = sigmoid(pre[base + j]);
                    let fv = sigmoid(pre[base + self.hidden + j]);
                    let gv = pre[base + 2 * self.hidden + j].tanh();
                    let ov = sigmoid(pre[base + 3 * self.hidden + j]);
                    let cv = fv * c[idx] + iv * gv;
                    let ct = cv.tanh();
                    if let Some(step) = &mut step {
                        step.i[idx] = iv;
                        step.f[idx] = fv;
                        step.g[idx] = gv;
                        step.o[idx] = ov;
                        step.c_tanh[idx] = ct;
                    }
                    c[idx] = cv;
                    h[idx] = ov * ct;
                    out[bi * self.seq * self.hidden + t * self.hidden + j] = h[idx];
                }
            }
            self.cache.extend(step);
        }
        Tensor::new(out, Shape::matrix(batch, self.seq * self.hidden))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let batch = self.cached_batch;
        let h4 = 4 * self.hidden;
        assert_eq!(
            grad_output.len(),
            batch * self.seq * self.hidden,
            "backward size mismatch in '{}'",
            self.name
        );
        let mut dwx = vec![0.0f32; self.in_dim * h4];
        let mut dwh = vec![0.0f32; self.hidden * h4];
        let mut db = vec![0.0f32; h4];
        let feat = self.seq * self.in_dim;
        let mut dx_all = vec![0.0f32; batch * feat];
        let mut dh_next = vec![0.0f32; batch * self.hidden];
        let mut dc_next = vec![0.0f32; batch * self.hidden];
        for t in (0..self.seq).rev() {
            let step = &self.cache[t];
            let mut dpre = vec![0.0f32; batch * h4];
            for bi in 0..batch {
                for j in 0..self.hidden {
                    let idx = bi * self.hidden + j;
                    let dh = grad_output.as_slice()
                        [bi * self.seq * self.hidden + t * self.hidden + j]
                        + dh_next[idx];
                    let o = step.o[idx];
                    let ct = step.c_tanh[idx];
                    let dc = dh * o * (1.0 - ct * ct) + dc_next[idx];
                    let i = step.i[idx];
                    let f = step.f[idx];
                    let g = step.g[idx];
                    let base = bi * h4;
                    dpre[base + j] = dc * g * i * (1.0 - i);
                    dpre[base + self.hidden + j] = dc * step.c_prev[idx] * f * (1.0 - f);
                    dpre[base + 2 * self.hidden + j] = dc * i * (1.0 - g * g);
                    dpre[base + 3 * self.hidden + j] = dh * ct * o * (1.0 - o);
                    dc_next[idx] = dc * f;
                }
            }
            // Parameter gradients.
            let d1 = matmul_transpose_a(&step.x, &dpre, batch, self.in_dim, h4);
            for (a, v) in dwx.iter_mut().zip(d1.iter()) {
                *a += v;
            }
            let d2 = matmul_transpose_a(&step.h_prev, &dpre, batch, self.hidden, h4);
            for (a, v) in dwh.iter_mut().zip(d2.iter()) {
                *a += v;
            }
            for row in dpre.chunks_exact(h4) {
                for (a, v) in db.iter_mut().zip(row) {
                    *a += v;
                }
            }
            // Input and recurrent gradients.
            let dx = matmul_transpose_b(&dpre, self.wx.value.as_slice(), batch, h4, self.in_dim);
            for bi in 0..batch {
                let dst =
                    &mut dx_all[bi * feat + t * self.in_dim..bi * feat + (t + 1) * self.in_dim];
                dst.copy_from_slice(&dx[bi * self.in_dim..(bi + 1) * self.in_dim]);
            }
            dh_next = matmul_transpose_b(&dpre, self.wh.value.as_slice(), batch, h4, self.hidden);
        }
        self.wx.grad = Tensor::new(dwx, Shape::matrix(self.in_dim, h4));
        self.wh.grad = Tensor::new(dwh, Shape::matrix(self.hidden, h4));
        self.bias.grad = Tensor::new(db, Shape::vector(h4));
        Tensor::new(dx_all, Shape::matrix(batch, feat))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wx);
        f(&mut self.wh);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::*;
    use grace_tensor::rng::seeded;

    #[test]
    fn forward_shape() {
        let mut rng = seeded(1);
        let mut l = Lstm::new("lstm", 3, 5, 4, &mut rng);
        let x = random_input(2, 12, 8);
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), &Shape::matrix(2, 20));
        assert!(y.is_finite());
        assert!(
            y.norm_inf() <= 1.0 + 1e-6,
            "LSTM outputs are bounded by tanh"
        );
    }

    #[test]
    fn zero_weights_zero_output() {
        let mut rng = seeded(2);
        let mut l = Lstm::new("lstm", 2, 3, 2, &mut rng);
        l.visit_params(&mut |p| p.value.scale(0.0));
        let x = random_input(1, 4, 5);
        let y = l.forward(&x, true);
        assert_eq!(y.norm_inf(), 0.0); // tanh(0)·σ(0) = 0
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = seeded(3);
        let mut l = Lstm::new("lstm", 2, 3, 3, &mut rng);
        let input = random_input(2, 6, 13);
        check_input_gradient(&mut l, &input, 3e-2);
        check_param_gradients(&mut l, &input, 3e-2);
    }

    #[test]
    fn sequence_memory_carries_state() {
        let mut rng = seeded(4);
        let mut l = Lstm::new("lstm", 1, 2, 2, &mut rng);
        // Two inputs that differ only at t=0 must differ in h at t=1.
        let a = Tensor::new(vec![1.0, 0.0], Shape::matrix(1, 2));
        let b = Tensor::new(vec![-1.0, 0.0], Shape::matrix(1, 2));
        let ya = l.forward(&a, true);
        let h1_a = ya.as_slice()[2..4].to_vec();
        let yb = l.forward(&b, true);
        let h1_b = yb.as_slice()[2..4].to_vec();
        assert_ne!(h1_a, h1_b, "t=1 hidden state must depend on t=0 input");
    }

    #[test]
    fn param_names_and_count() {
        let mut rng = seeded(5);
        let mut l = Lstm::new("rnn", 4, 8, 3, &mut rng);
        let mut names = Vec::new();
        l.visit_params(&mut |p| names.push(p.name.clone()));
        assert_eq!(names, vec!["rnn/wx", "rnn/wh", "rnn/b"]);
        assert_eq!(l.param_count(), 4 * 32 + 8 * 32 + 32);
        assert_eq!(l.hidden(), 8);
        assert_eq!(l.seq(), 3);
    }
}
