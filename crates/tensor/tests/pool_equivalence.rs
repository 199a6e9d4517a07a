//! The intra-op pool never shows in the bits: every pooled kernel returns, at
//! widths 1, 2, 3 and 5, exactly what its serial body returns.
//!
//! * [`linalg::matmul`], [`linalg::matmul_transpose_b`] (`gemm_nt`, dX) and
//!   [`linalg::matmul_transpose_a`] (`gemm_tn`, dW) at `m ∈ {1, 7, 8, 9, 16,
//!   17, 204}` with `k` and `n` off the vector width, over inputs with zero
//!   rows, `−0.0`, NaN and ±∞. `0 · ∞` stays absent where the kernel skips
//!   zeros (`matmul`, `gemm_tn`) and propagates where it does not
//!   (`gemm_nt`).
//! * [`rng::fill_gaussian`] against sequential draws, generator state after
//!   the fill included.
//!
//! Widths are pinned with `pool::with_width`, whatever the host's core count,
//! and each width is compared with the same call at width 1 — the inline,
//! serial body — and with an independent oracle.

use grace_tensor::simd::{self, Level};
use grace_tensor::{linalg, pool, rng};
use rand::rngs::StdRng;
use rand_distr::{Distribution, Normal};

const WIDTHS: [usize; 4] = [1, 2, 3, 5];
const ROWS: [usize; 7] = [1, 7, 8, 9, 16, 17, 204];

/// Deterministic words: mostly small normals, with every fourth row of the
/// `cols`-wide matrix zero and `−0.0`, NaN and ±∞ sprinkled in.
fn words(len: usize, cols: usize, salt: u64, specials: bool) -> Vec<f32> {
    let mut state = salt;
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let row = i / cols.max(1);
            let draw = (state >> 40) as u32;
            if row % 4 == 3 {
                return 0.0;
            }
            match (specials, draw % 97) {
                (true, 0) => f32::NAN,
                (true, 1) => f32::INFINITY,
                (true, 2) => f32::NEG_INFINITY,
                (_, 3..=9) => -0.0,
                (_, 10..=30) => 0.0,
                _ => (draw % 2001) as f32 / 1000.0 - 1.0,
            }
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// `want` and `got` agree bit for bit, except that any NaN matches any NaN
/// (which payload survives `NaN · NaN` is the compiler's operand order).
fn same_up_to_nan_payload(want: &[f32], got: &[f32]) -> bool {
    want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|(w, g)| w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan()))
}

/// The reference order of `matmul`: per row, `p` ascending, zero `a`s
/// skipped, one `mul` + `add` per term.
fn matmul_oracle(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] += av * b[p * n + j];
            }
        }
    }
    c
}

/// Every width returns the width-1 bits of `f`.
fn at_every_width(what: &str, f: impl Fn() -> Vec<f32>) -> Vec<f32> {
    let serial = pool::with_width(1, &f);
    for width in WIDTHS {
        let got = pool::with_width(width, &f);
        assert_eq!(bits(&got), bits(&serial), "{what} at width {width}");
    }
    serial
}

#[test]
fn products_are_bit_identical_at_every_width() {
    // k and n off the vector width; m·k·n crosses the inline threshold at
    // m ≥ 2, so every width above 1 really splits the larger shapes.
    let (k, n) = (131, 211);
    for (at, &m) in ROWS.iter().enumerate() {
        let salt = at as u64 * 3 + 1;
        for specials in [false, true] {
            let a = words(m * k, k, salt, specials);
            let b = words(k * n, n, salt + 1, specials);
            let what = format!("matmul m {m} specials {specials}");
            let c = at_every_width(&what, || linalg::matmul(&a, &b, m, k, n));
            assert!(
                same_up_to_nan_payload(&matmul_oracle(&a, &b, m, k, n), &c),
                "{what}"
            );

            // dX = dY · Wᵀ: A is m×n, B is k×n.
            let dy = words(m * n, n, salt + 2, specials);
            let what = format!("gemm_nt m {m} specials {specials}");
            let dx = at_every_width(&what, || linalg::matmul_transpose_b(&dy, &b, m, n, k));
            let mut whole = vec![f32::NAN; m * k];
            simd::gemm_nt_at(simd::level(), &dy, &b, &mut whole, m, n, k);
            assert_eq!(bits(&dx), bits(&whole), "{what} against the whole kernel");
            let mut scalar = vec![f32::NAN; m * k];
            simd::gemm_nt_at(Level::Scalar, &dy, &b, &mut scalar, m, n, k);
            assert!(
                same_up_to_nan_payload(&scalar, &dx),
                "{what} against scalar"
            );

            // dW = Xᵀ · dY: A is m×k, B is m×n, C is k×n.
            let what = format!("gemm_tn m {m} specials {specials}");
            let dw = at_every_width(&what, || linalg::matmul_transpose_a(&a, &dy, m, k, n));
            let mut whole = vec![f32::NAN; k * n];
            simd::gemm_tn_at(simd::level(), &a, &dy, &mut whole, m, k, n);
            assert_eq!(bits(&dw), bits(&whole), "{what} against the whole kernel");
            let mut scalar = vec![f32::NAN; k * n];
            simd::gemm_tn_at(Level::Scalar, &a, &dy, &mut scalar, m, k, n);
            assert!(
                same_up_to_nan_payload(&scalar, &dw),
                "{what} against scalar"
            );
        }
    }
}

#[test]
fn zero_times_infinity_is_skipped_or_propagated_as_the_kernel_says() {
    let (m, k, n) = (17, 131, 211);
    // Column `p` of A is zero, and row `p` of the other operand infinite.
    let p = 5;
    let mut a = words(m * k, k, 7, false);
    for i in 0..m {
        a[i * k + p] = if i % 2 == 0 { 0.0 } else { -0.0 };
    }
    let mut b = words(k * n, n, 8, false);
    b[p * n..(p + 1) * n].fill(f32::INFINITY);
    for width in WIDTHS {
        let c = pool::with_width(width, || linalg::matmul(&a, &b, m, k, n));
        assert!(c.iter().all(|v| v.is_finite()), "matmul width {width}");
    }

    // gemm_tn: a[row][i] = 0 for every row, and B (m×n) infinite on row 3 —
    // every other term of row i of C is finite, the infinite one is absent.
    let mut x = words(m * k, k, 9, false);
    for row in 0..m {
        x[row * k + p] = 0.0;
    }
    let mut dy = words(m * n, n, 10, false);
    dy[3 * n..4 * n].fill(f32::NEG_INFINITY);
    for width in WIDTHS {
        let dw = pool::with_width(width, || linalg::matmul_transpose_a(&x, &dy, m, k, n));
        assert!(
            dw[p * n..(p + 1) * n].iter().all(|v| *v == 0.0),
            "gemm_tn width {width}"
        );
    }

    // gemm_nt has no skip: a zero of A against an infinite B is NaN.
    let mut dy = words(m * n, n, 11, false);
    for i in 0..m {
        dy[i * n + p] = 0.0;
    }
    let mut w = words(k * n, n, 12, false);
    for j in 0..k {
        w[j * n + p] = f32::INFINITY;
    }
    for width in WIDTHS {
        let dx = pool::with_width(width, || linalg::matmul_transpose_b(&dy, &w, m, n, k));
        assert!(dx.iter().all(|v| v.is_nan()), "gemm_nt width {width}");
    }
}

#[test]
fn gaussian_fill_matches_sequential_draws_and_leaves_the_same_state() {
    for len in [0usize, 1, 17, 1000, 5_003, 40_001] {
        for std in [1.0f32, 0.05] {
            let mut sequential = rng::seeded(len as u64 + 77);
            let normal = Normal::new(0.0f32, std).expect("finite std");
            let want: Vec<f32> = (0..len).map(|_| normal.sample(&mut sequential)).collect();
            for width in WIDTHS {
                let mut pooled: StdRng = rng::seeded(len as u64 + 77);
                let mut got = vec![f32::NAN; len];
                pool::with_width(width, || rng::fill_gaussian(&mut pooled, &mut got, std));
                assert_eq!(bits(&got), bits(&want), "len {len} std {std} width {width}");
                assert_eq!(
                    pooled, sequential,
                    "generator after len {len} width {width}"
                );
            }
        }
    }
}
