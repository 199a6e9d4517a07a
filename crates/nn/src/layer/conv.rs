//! 2-D convolution via im2col.

use super::{Layer, Param};
use crate::init;
use grace_tensor::linalg::{matmul, matmul_transpose_a, matmul_transpose_b};
use grace_tensor::{Shape, Tensor};
use rand::rngs::StdRng;

/// A 2-D convolution layer with square kernels.
///
/// Input rows are flattened `[in_ch, h, w]` volumes (`[batch, in_ch·h·w]`);
/// output rows are `[out_ch, oh, ow]` volumes. The kernel is stored as an
/// `[out_ch, in_ch·k·k]` matrix and applied via im2col + matmul, which is the
/// standard CPU formulation.
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    weight: Param,
    bias: Param,
    in_ch: usize,
    h: usize,
    w: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    cached_cols: Vec<Vec<f32>>,
}

impl Conv2d {
    /// Creates a convolution over `[in_ch, h, w]` inputs.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, if `stride == 0`, or if the padded
    /// input is smaller than the kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        h: usize,
        w: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            in_ch > 0 && h > 0 && w > 0 && out_ch > 0 && k > 0,
            "conv dims must be positive"
        );
        assert!(stride > 0, "stride must be positive");
        assert!(
            h + 2 * pad >= k && w + 2 * pad >= k,
            "kernel larger than padded input"
        );
        let name = name.into();
        let fan_in = in_ch * k * k;
        let weight = Param::new(
            format!("{name}/w"),
            init::he_normal(rng, Shape::matrix(out_ch, fan_in), fan_in),
        );
        let bias = Param::new(format!("{name}/b"), Tensor::zeros(Shape::vector(out_ch)));
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        Conv2d {
            name,
            weight,
            bias,
            in_ch,
            h,
            w,
            out_ch,
            k,
            stride,
            pad,
            oh,
            ow,
            cached_cols: Vec::new(),
        }
    }

    /// Output volume size per item: `out_ch · oh · ow`.
    pub fn out_len(&self) -> usize {
        self.out_ch * self.oh * self.ow
    }

    /// Output spatial size `(oh, ow)`.
    pub fn out_spatial(&self) -> (usize, usize) {
        (self.oh, self.ow)
    }

    fn im2col(&self, item: &[f32]) -> Vec<f32> {
        let (k, s, pad) = (self.k, self.stride, self.pad);
        let cols = self.oh * self.ow;
        let rows = self.in_ch * k * k;
        let mut col = vec![0.0f32; rows * cols];
        for c in 0..self.in_ch {
            let plane = &item[c * self.h * self.w..(c + 1) * self.h * self.w];
            for ki in 0..k {
                for kj in 0..k {
                    let row = (c * k + ki) * k + kj;
                    for oi in 0..self.oh {
                        let yi = (oi * s + ki) as isize - pad as isize;
                        if yi < 0 || yi >= self.h as isize {
                            continue;
                        }
                        for oj in 0..self.ow {
                            let xj = (oj * s + kj) as isize - pad as isize;
                            if xj < 0 || xj >= self.w as isize {
                                continue;
                            }
                            col[row * cols + oi * self.ow + oj] =
                                plane[yi as usize * self.w + xj as usize];
                        }
                    }
                }
            }
        }
        col
    }

    fn col2im(&self, col: &[f32]) -> Vec<f32> {
        let (k, s, pad) = (self.k, self.stride, self.pad);
        let cols = self.oh * self.ow;
        let mut img = vec![0.0f32; self.in_ch * self.h * self.w];
        for c in 0..self.in_ch {
            for ki in 0..k {
                for kj in 0..k {
                    let row = (c * k + ki) * k + kj;
                    for oi in 0..self.oh {
                        let yi = (oi * s + ki) as isize - pad as isize;
                        if yi < 0 || yi >= self.h as isize {
                            continue;
                        }
                        for oj in 0..self.ow {
                            let xj = (oj * s + kj) as isize - pad as isize;
                            if xj < 0 || xj >= self.w as isize {
                                continue;
                            }
                            img[c * self.h * self.w + yi as usize * self.w + xj as usize] +=
                                col[row * cols + oi * self.ow + oj];
                        }
                    }
                }
            }
        }
        img
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let (batch, feat) = input.shape().as_matrix();
        let in_len = self.in_ch * self.h * self.w;
        assert_eq!(
            feat, in_len,
            "conv '{}' expected {} input features, got {feat}",
            self.name, in_len
        );
        let cols_n = self.oh * self.ow;
        let rows = self.in_ch * self.k * self.k;
        if training {
            self.cached_cols.clear();
        }
        let mut out = vec![0.0f32; batch * self.out_len()];
        for bi in 0..batch {
            let item = &input.as_slice()[bi * in_len..(bi + 1) * in_len];
            let col = self.im2col(item);
            // [out_ch, rows] x [rows, cols] -> [out_ch, cols]
            let y = matmul(
                self.weight.value.as_slice(),
                &col,
                self.out_ch,
                rows,
                cols_n,
            );
            let dst = &mut out[bi * self.out_len()..(bi + 1) * self.out_len()];
            dst.copy_from_slice(&y);
            for oc in 0..self.out_ch {
                let b = self.bias.value[oc];
                for v in &mut dst[oc * cols_n..(oc + 1) * cols_n] {
                    *v += b;
                }
            }
            if training {
                self.cached_cols.push(col);
            }
        }
        Tensor::new(out, Shape::matrix(batch, self.out_len()))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let batch = self.cached_cols.len();
        let cols_n = self.oh * self.ow;
        let rows = self.in_ch * self.k * self.k;
        assert_eq!(
            grad_output.len(),
            batch * self.out_len(),
            "backward size mismatch in '{}'",
            self.name
        );
        let mut dw = vec![0.0f32; self.out_ch * rows];
        let mut db = vec![0.0f32; self.out_ch];
        let in_len = self.in_ch * self.h * self.w;
        let mut dx = vec![0.0f32; batch * in_len];
        for bi in 0..batch {
            let dy = &grad_output.as_slice()[bi * self.out_len()..(bi + 1) * self.out_len()];
            let col = &self.cached_cols[bi];
            // dW += dY (out_ch×cols) · colᵀ (cols×rows)
            let d = matmul_transpose_b(dy, col, self.out_ch, cols_n, rows);
            for (a, v) in dw.iter_mut().zip(d.iter()) {
                *a += v;
            }
            for oc in 0..self.out_ch {
                db[oc] += dy[oc * cols_n..(oc + 1) * cols_n].iter().sum::<f32>();
            }
            // dcol = Wᵀ · dY : [rows, cols]
            let dcol =
                matmul_transpose_a(self.weight.value.as_slice(), dy, self.out_ch, rows, cols_n);
            let img = self.col2im(&dcol);
            dx[bi * in_len..(bi + 1) * in_len].copy_from_slice(&img);
        }
        self.weight.grad = Tensor::new(dw, Shape::matrix(self.out_ch, rows));
        self.bias.grad = Tensor::new(db, Shape::vector(self.out_ch));
        Tensor::new(dx, Shape::matrix(batch, in_len))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::*;
    use grace_tensor::rng::seeded;

    #[test]
    fn identity_kernel_preserves_input() {
        let mut rng = seeded(1);
        // 1x1 kernel, one channel, weight=1: output == input.
        let mut c = Conv2d::new("c", 1, 3, 3, 1, 1, 1, 0, &mut rng);
        c.visit_params(&mut |p| {
            if p.name.ends_with("/w") {
                p.value[0] = 1.0;
            }
        });
        let x = Tensor::new((1..=9).map(|v| v as f32).collect(), Shape::matrix(1, 9));
        let y = c.forward(&x, true);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut rng = seeded(2);
        // 3x3 all-ones kernel on a 3x3 all-ones image, no padding -> sum = 9.
        let mut c = Conv2d::new("c", 1, 3, 3, 1, 3, 1, 0, &mut rng);
        c.visit_params(&mut |p| {
            if p.name.ends_with("/w") {
                p.value.map_inplace(|_| 1.0);
            } else {
                p.value[0] = 0.5;
            }
        });
        let x = Tensor::filled(Shape::matrix(1, 9), 1.0);
        let y = c.forward(&x, true);
        assert_eq!(y.len(), 1);
        assert_eq!(y[0], 9.5);
    }

    #[test]
    fn padding_and_stride_shapes() {
        let mut rng = seeded(3);
        let c = Conv2d::new("c", 2, 8, 8, 4, 3, 2, 1, &mut rng);
        assert_eq!(c.out_spatial(), (4, 4));
        assert_eq!(c.out_len(), 64);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = seeded(4);
        let mut c = Conv2d::new("c", 2, 4, 4, 3, 3, 1, 1, &mut rng);
        let input = random_input(2, 32, 11);
        check_input_gradient(&mut c, &input, 2e-2);
        check_param_gradients(&mut c, &input, 2e-2);
    }

    #[test]
    fn multichannel_forward_sums_channels() {
        let mut rng = seeded(5);
        let mut c = Conv2d::new("c", 2, 2, 2, 1, 1, 1, 0, &mut rng);
        c.visit_params(&mut |p| {
            if p.name.ends_with("/w") {
                p.value[0] = 1.0; // channel 0 weight
                p.value[1] = 2.0; // channel 1 weight
            }
        });
        // channel0 = [1,1,1,1], channel1 = [2,2,2,2] -> out = 1 + 4 = 5.
        let x = Tensor::new(
            vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0],
            Shape::matrix(1, 8),
        );
        let y = c.forward(&x, true);
        assert_eq!(y.as_slice(), &[5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "kernel larger than padded input")]
    fn rejects_oversized_kernel() {
        let mut rng = seeded(6);
        let _ = Conv2d::new("c", 1, 2, 2, 1, 5, 1, 0, &mut rng);
    }
}
