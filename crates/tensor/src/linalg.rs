//! Small dense linear algebra: the low-rank compressors' products (§III-D)
//! and the three GEMMs of every `grace-nn` layer.
//!
//! PowerSGD views each gradient tensor as an `m × l` matrix `M`, maintains a
//! rank-`r` sketch via one step of subspace (power) iteration, and transmits
//! the two factors `P = M Q` and `Qᵀ M`. The primitives required are plain
//! matmuls with optional transposes and Gram–Schmidt orthonormalization.
//!
//! Matrices are row-major `&[f32]` buffers with explicit dimensions, matching
//! [`crate::Tensor`] layout so gradients can be viewed without copies.
//!
//! # Summation order
//!
//! [`matmul`] is the forward pass and [`matmul_transpose_a`] the weight
//! gradient of `Dense`, `Conv2d` and `Lstm` (and PowerSGD's and the spectral
//! compressor's products); [`matmul_transpose_b`] is called by those three
//! backward passes only, for the input gradient `dX = dY · Wᵀ`. The order in
//! which each of them sums is therefore part of every trained model's bits:
//! every `param_checksum`, golden constant and cross-backend equivalence
//! suite downstream pins it. The rule for a faster body is:
//!
//! * lanes across *output elements* are free — an element's value depends
//!   only on its own chain of operations, not on what its neighbours do;
//! * lanes along the *reduction index* are forbidden (a lane tree
//!   reassociates the sum), and so is FMA (one rounding instead of two);
//! * [`matmul_transpose_b`] has no zero-skip, so `0 · ∞ = NaN` propagates;
//!   the other two skip `a == 0.0` rows of work, which makes that product
//!   *not* propagate — both behaviours are part of the contract.
//!
//! Two of the three have vector bodies: [`crate::simd::gemm_nt`] (dX) and
//! [`crate::simd::gemm_tn`] (dW). `gemm_tn` keeps the zero-skip without
//! any non-finite detector: its lanes run across columns of `C`, so the
//! skipped value `a[row][i]` is one scalar shared by every lane, and the
//! kernel simply compacts the nonzero rows into a list before it runs the
//! chains — the reference's terms, in the reference's order. [`matmul`]
//! keeps its `axpy` rows: its skip already halves the work on ReLU inputs,
//! and a register tile that kept it measured slower than the loop. It runs
//! them `p`-outer over a block of rows, which reads each row of `B` once per
//! block and leaves every element's chain as it was; the one portable loop
//! is compiled once per dispatch level and picked once per pool range.
//!
//! All three split their output rows across the calling thread's
//! [`crate::pool`]; an element is computed by one thread, in the order
//! above, so the width never shows in the bits.

use crate::pool;
use crate::simd::Level;
use std::ops::Range;

/// Rows of `C` one pass of [`matmul`] carries: each row of `B` is read once
/// per block, and the block's rows of `C` (8 × 768 floats at the widest
/// model layer) stay in L1 while it streams.
const MATMUL_ROW_BLOCK: usize = 8;

/// `C (m×n) = A (m×k) · B (k×n)`, its rows of `C` split across this
/// thread's [`crate::pool`].
///
/// # Panics
///
/// Panics if buffer sizes do not match the dimensions.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    matmul_at(crate::simd::level(), a, b, m, k, n)
}

/// [`matmul`] with an explicit dispatch level, checked once per pool range:
/// the vector levels run the one portable body compiled for their lanes.
///
/// # Panics
///
/// Panics if buffer sizes do not match the dimensions, or if the CPU
/// cannot run `lvl`.
pub fn matmul_at(lvl: Level, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A buffer size mismatch");
    assert_eq!(b.len(), k * n, "B buffer size mismatch");
    pool::fresh_rows(m * n, m, 1, m * k * n, |rows, c| {
        crate::simd::dispatch!(lvl,
            scalar: matmul_rows(a, b, c, rows, k, n),
            avx2: x86::matmul_rows_avx2(a, b, c, rows, k, n),
            avx512: x86::matmul_rows_avx512(a, b, c, rows, k, n))
    })
}

/// Rows `rows` of `A · B` into the zeroed `c`, a block of rows at a time
/// and `p` outermost within a block: `c[i] += a[i][p] * b[p]` for every
/// nonzero `a[i][p]`, one `mul` + `add` per element, `p` ascending — the
/// `axpy` rows' order, so every lane width gives the same bits (NaN
/// payloads aside: which one `c + a·b` keeps is codegen's choice).
#[inline(always)]
fn matmul_rows(a: &[f32], b: &[f32], c: &mut [f32], rows: Range<usize>, k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let blocks = c.chunks_mut(MATMUL_ROW_BLOCK * n);
    for (i0, block) in rows.step_by(MATMUL_ROW_BLOCK).zip(blocks) {
        for (p, brow) in b.chunks_exact(n).enumerate() {
            for (i, crow) in (i0..).zip(block.chunks_exact_mut(n)) {
                let aip = a[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                for (y, &x) in crow.iter_mut().zip(brow) {
                    *y += aip * x;
                }
            }
        }
    }
}

/// `C (k×n) = Aᵀ · B` where `A` is `m×k` and `B` is `m×n`: a fresh buffer
/// filled by [`crate::simd::gemm_tn`], its rows of `C` split across this
/// thread's [`crate::pool`].
///
/// # Panics
///
/// Panics if buffer sizes do not match the dimensions.
pub fn matmul_transpose_a(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A buffer size mismatch");
    assert_eq!(b.len(), m * n, "B buffer size mismatch");
    let lvl = crate::simd::level();
    pool::fresh_rows(k * n, k, 1, m * k * n, |rows, c| {
        crate::simd::gemm_tn_rows_at(lvl, a, b, c, m, k, n, rows);
    })
}

/// [`matmul_transpose_a`] into a buffer the caller already holds — the
/// weight gradient a backward pass writes over the last step's. `gemm_tn`
/// never reads `c`, so what it held cannot show in the bits.
///
/// # Panics
///
/// Panics if buffer sizes do not match the dimensions.
pub fn matmul_transpose_a_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A buffer size mismatch");
    assert_eq!(b.len(), m * n, "B buffer size mismatch");
    assert_eq!(c.len(), k * n, "C buffer size mismatch");
    let lvl = crate::simd::level();
    pool::split_rows(c, k, 1, m * k * n, |rows, c| {
        crate::simd::gemm_tn_rows_at(lvl, a, b, c, m, k, n, rows);
    });
}

/// `C (m×k) = A (m×n) · Bᵀ` where `B` is `k×n`: a fresh buffer filled by
/// [`crate::simd::gemm_nt`], eight-row blocks of `A` (the kernel's vector
/// panel) split across this thread's [`crate::pool`].
///
/// # Panics
///
/// Panics if buffer sizes do not match the dimensions.
pub fn matmul_transpose_b(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * n, "A buffer size mismatch");
    assert_eq!(b.len(), k * n, "B buffer size mismatch");
    let lvl = crate::simd::level();
    pool::fresh_rows(m * k, m, 8, m * n * k, |rows, c| {
        let a = &a[rows.start * n..rows.end * n];
        crate::simd::gemm_nt_at(lvl, a, b, c, rows.len(), n, k);
    })
}

/// Transposes an `m×n` row-major matrix.
pub fn transpose(a: &[f32], m: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * n, "buffer size mismatch");
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = a[i * n + j];
        }
    }
    out
}

/// Orthonormalizes the `r` columns of an `m×r` matrix in place via modified
/// Gram–Schmidt (the orthogonalization step of PowerSGD).
///
/// Columns that collapse to (near-)zero norm are replaced with a deterministic
/// unit basis vector so the result always has orthonormal columns when
/// `m >= r`.
pub fn orthonormalize_columns(a: &mut [f32], m: usize, r: usize) {
    assert_eq!(a.len(), m * r, "buffer size mismatch");
    for col in 0..r {
        let mut pre_norm = 0.0f32;
        for row in 0..m {
            pre_norm += a[row * r + col] * a[row * r + col];
        }
        let pre_norm = pre_norm.sqrt();
        // Subtract projections onto previous columns.
        for prev in 0..col {
            let mut dot = 0.0f32;
            for row in 0..m {
                dot += a[row * r + col] * a[row * r + prev];
            }
            for row in 0..m {
                a[row * r + col] -= dot * a[row * r + prev];
            }
        }
        let mut norm = 0.0f32;
        for row in 0..m {
            norm += a[row * r + col] * a[row * r + col];
        }
        let norm = norm.sqrt();
        // A column that collapses under projection (relative to its original
        // magnitude) is linearly dependent: normalizing it would amplify f32
        // cancellation noise into a bogus direction.
        if norm > 1e-4 * pre_norm.max(1e-30) && norm > 1e-12 {
            for row in 0..m {
                a[row * r + col] /= norm;
            }
        } else {
            // Degenerate column: fall back to the col-th unit vector.
            for row in 0..m {
                a[row * r + col] = if row == col % m { 1.0 } else { 0.0 };
            }
            // Re-orthogonalize the fallback against previous columns once.
            for prev in 0..col {
                let mut dot = 0.0f32;
                for row in 0..m {
                    dot += a[row * r + col] * a[row * r + prev];
                }
                for row in 0..m {
                    a[row * r + col] -= dot * a[row * r + prev];
                }
            }
            let mut n2 = 0.0f32;
            for row in 0..m {
                n2 += a[row * r + col] * a[row * r + col];
            }
            let n2 = n2.sqrt().max(1e-8);
            for row in 0..m {
                a[row * r + col] /= n2;
            }
        }
    }
}

/// Frobenius norm of a matrix buffer.
pub fn frobenius_norm(a: &[f32]) -> f32 {
    a.iter().map(|v| v * v).sum::<f32>().sqrt()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::ops::Range;

    /// [`super::matmul_rows`] at eight lanes per vector.
    #[target_feature(enable = "avx2")]
    pub fn matmul_rows_avx2(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        rows: Range<usize>,
        k: usize,
        n: usize,
    ) {
        super::matmul_rows(a, b, c, rows, k, n);
    }

    /// [`super::matmul_rows`] at sixteen lanes per vector.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub fn matmul_rows_avx512(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        rows: Range<usize>,
        k: usize,
        n: usize,
    ) {
        super::matmul_rows(a, b, c, rows, k, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = vec![1.0, 2.0, 3.0, 4.0]; // 2x2
        let eye = vec![1.0, 0.0, 0.0, 1.0];
        assert_eq!(matmul(&a, &eye, 2, 2, 2), a);
        assert_eq!(matmul(&eye, &a, 2, 2, 2), a);
    }

    /// Small integers: every sum is exact in any order, so the explicit
    /// transpose through `matmul` is an independent oracle for the indexing.
    fn small_ints(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 + salt * 3) % 11) as f32 - 5.0)
            .collect()
    }

    #[test]
    fn transpose_b_with_an_empty_dimension_is_zero_or_empty() {
        use crate::simd::{available_levels, gemm_nt_at};
        for (m, n, k) in [(0, 5, 3), (9, 0, 5), (16, 0, 4), (9, 5, 0), (0, 0, 0)] {
            let (a, b) = (small_ints(m * n, 1), small_ints(k * n, 2));
            assert_eq!(matmul_transpose_b(&a, &b, m, n, k), vec![0.0; m * k]);
            for lvl in available_levels() {
                // `c` sits inside a larger buffer: nothing around it moves.
                let mut buf = vec![7.0f32; m * k + 2];
                gemm_nt_at(lvl, &a, &b, &mut buf[1..m * k + 1], m, n, k);
                assert_eq!(buf[0], 7.0, "{lvl} ({m},{n},{k})");
                assert_eq!(buf[m * k + 1], 7.0, "{lvl} ({m},{n},{k})");
                assert!(buf[1..m * k + 1].iter().all(|v| v.to_bits() == 0));
            }
        }
    }

    #[test]
    fn transpose_a_with_an_empty_dimension_is_zero_or_empty() {
        use crate::simd::{available_levels, gemm_tn_at};
        for (m, k, n) in [(0, 5, 9), (0, 3, 40), (9, 0, 16), (4, 5, 0), (0, 0, 0)] {
            let (a, b) = (small_ints(m * k, 1), small_ints(m * n, 2));
            assert_eq!(matmul_transpose_a(&a, &b, m, k, n), vec![0.0; k * n]);
            for lvl in available_levels() {
                // `c` sits inside a larger buffer: nothing around it moves.
                let mut buf = vec![7.0f32; k * n + 2];
                gemm_tn_at(lvl, &a, &b, &mut buf[1..k * n + 1], m, k, n);
                assert_eq!(buf[0], 7.0, "{lvl} ({m},{k},{n})");
                assert_eq!(buf[k * n + 1], 7.0, "{lvl} ({m},{k},{n})");
                assert!(buf[1..k * n + 1].iter().all(|v| v.to_bits() == 0));
            }
        }
    }

    #[test]
    fn transpose_a_skips_zero_entries_of_a_even_against_inf_and_nan() {
        use crate::simd::{available_levels, gemm_tn_at};
        // Row 0 of A is ±0 and row 0 of B is ±∞/NaN: every term that pairs
        // them is skipped, not `0 · ∞ = NaN`, so C is row 1's products alone
        // — finite — at every level and on both sides of the 8-column strip.
        let (m, k, n) = (2, 3, 11);
        let a = [0.0, -0.0, 0.0, 2.0, -1.5, 0.25];
        let mut b = vec![f32::INFINITY; m * n];
        b[1] = f32::NEG_INFINITY;
        b[4] = f32::NAN;
        b[10] = -f32::NAN;
        b[n..].copy_from_slice(&small_ints(n, 5));
        let want: Vec<f32> = (0..k * n)
            .map(|at| 0.0 + a[k + at / n] * b[n + at % n])
            .collect();
        assert!(want.iter().all(|v| v.is_finite()));
        for lvl in available_levels() {
            let mut c = vec![f32::NAN; k * n];
            gemm_tn_at(lvl, &a, &b, &mut c, m, k, n);
            let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&c), bits(&want), "{lvl}");
        }
    }

    #[test]
    fn transpose_b_handles_every_row_remainder() {
        // m = 8q + r walks the 16-row panel, the 8-row panel and the
        // reference rows in every combination; k = 6 leaves a 4-column pass
        // plus two single columns.
        let (n, k) = (5, 6);
        let b = small_ints(k * n, 4);
        let bt = transpose(&b, k, n);
        for m in 0..=41 {
            let a = small_ints(m * n, m);
            assert_eq!(
                matmul_transpose_b(&a, &b, m, n, k),
                matmul(&a, &bt, m, n, k),
                "m = {m}"
            );
        }
    }

    #[test]
    fn matmul_rectangular() {
        // A: 2x3, B: 3x2
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let c = matmul(&a, &b, 2, 3, 2);
        assert_eq!(c, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_matmuls_agree_with_explicit_transpose() {
        let a = vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0]; // 3x2
        let b = vec![2.0, 0.0, 1.0, -1.0, 0.5, 2.0]; // 3x2
        let at = transpose(&a, 3, 2);
        let expect = matmul(&at, &b, 2, 3, 2);
        assert_eq!(matmul_transpose_a(&a, &b, 3, 2, 2), expect);

        let bt = transpose(&b, 3, 2);
        let expect2 = matmul(&a, &bt, 3, 2, 3);
        // a: 3x2 times bᵀ: 2x3 -> 3x3; matmul_transpose_b takes (m,n,k)=(3,2,3)
        assert_eq!(matmul_transpose_b(&a, &b, 3, 2, 3), expect2);
    }

    #[test]
    fn transpose_roundtrip() {
        let a: Vec<f32> = (0..12).map(|i| i as f32).collect();
        assert_eq!(transpose(&transpose(&a, 3, 4), 4, 3), a);
    }

    #[test]
    fn gram_schmidt_produces_orthonormal_columns() {
        let mut a = vec![
            1.0, 1.0, //
            1.0, 0.0, //
            0.0, 1.0, //
            2.0, -1.0,
        ]; // 4x2
        orthonormalize_columns(&mut a, 4, 2);
        let mut dot01 = 0.0;
        let mut n0 = 0.0;
        let mut n1 = 0.0;
        for row in 0..4 {
            dot01 += a[row * 2] * a[row * 2 + 1];
            n0 += a[row * 2] * a[row * 2];
            n1 += a[row * 2 + 1] * a[row * 2 + 1];
        }
        assert!(dot01.abs() < 1e-5);
        assert!((n0 - 1.0).abs() < 1e-5);
        assert!((n1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gram_schmidt_handles_degenerate_columns() {
        // Second column is a multiple of the first.
        let mut a = vec![
            1.0, 2.0, //
            0.0, 0.0, //
            0.0, 0.0,
        ]; // 3x2
        orthonormalize_columns(&mut a, 3, 2);
        let mut dot01 = 0.0;
        let mut n1 = 0.0;
        for row in 0..3 {
            dot01 += a[row * 2] * a[row * 2 + 1];
            n1 += a[row * 2 + 1] * a[row * 2 + 1];
        }
        assert!(dot01.abs() < 1e-5, "columns not orthogonal: {dot01}");
        assert!((n1 - 1.0).abs() < 1e-5, "second column not unit: {n1}");
    }

    #[test]
    fn frobenius() {
        assert_eq!(frobenius_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(frobenius_norm(&[]), 0.0);
    }
}
