//! The intra-op pool never shows in the bits: every pooled kernel returns, at
//! widths 1, 2, 3 and 5, exactly what its serial body returns.
//!
//! * [`linalg::matmul`], [`linalg::matmul_transpose_b`] (`gemm_nt`, dX) and
//!   [`linalg::matmul_transpose_a`] (`gemm_tn`, dW) — fresh, and in place
//!   over a NaN-filled destination — at `m ∈ {1, 7, 8, 9, 16,
//!   17, 204}` with `k` and `n` off the vector width, over inputs with zero
//!   rows, `−0.0`, NaN and ±∞. `0 · ∞` stays absent where the kernel skips
//!   zeros (`matmul`, `gemm_tn`) and propagates where it does not
//!   (`gemm_nt`).
//! * [`rng::fill_gaussian`] — and its kernel, [`simd::fill_gaussian_at`],
//!   at every level — against the per-element oracle, generator state
//!   after the fill included, on draws built to hit the kernel's edges.
//!
//! Widths are pinned with `pool::with_width`, whatever the host's core count,
//! and each width is compared with the same call at width 1 — the inline,
//! serial body — and with an independent oracle.

use grace_tensor::simd::{self, Level};
use grace_tensor::{linalg, pool, rng};
use rand::rngs::StdRng;
use rand::RngCore;

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
            // In place, over a destination that holds NaN: nothing it held
            // shows.
            let into = at_every_width(&format!("{what} in place"), || {
                let mut c = vec![f32::NAN; k * n];
                linalg::matmul_transpose_a_into(&a, &dy, m, k, n, &mut c);
                c
            });
            assert_eq!(bits(&into), bits(&dw), "{what}: in place against fresh");
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

/// SplitMix64's output function inverted — it is a bijection — so a test
/// can pick the state whose draw is a chosen word.
fn unmix(draw: u64) -> u64 {
    let unshift = |y: u64, s: u32| (0..64 / s).fold(y, |x, _| y ^ (x >> s));
    // Newton's iteration for the inverse of an odd multiplier mod 2⁶⁴.
    let inverse = |m: u64| {
        (0..6).fold(m, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)))
        })
    };
    let z = unshift(draw, 31).wrapping_mul(inverse(StdRng::MIX[1]));
    let z = unshift(z, 27).wrapping_mul(inverse(StdRng::MIX[0]));
    unshift(z, 30)
}

/// The generator state whose draw number `n` (from 1) is `draw`.
fn state_drawing(draw: u64, n: u64) -> u64 {
    unmix(draw).wrapping_sub(n.wrapping_mul(StdRng::GAMMA))
}

/// The standard deviations every Gaussian check runs: the clamp floor, a
/// tiny one, He init at fan-in 768, unit and a huge one.
fn gaussian_stds() -> [f32; 5] {
    [f32::MIN_POSITIVE, 1e-30, (2.0f32 / 768.0).sqrt(), 1.0, 1e30]
}

/// Fills `len` samples from `state` with the per-element oracle, then
/// requires the kernel at every level and `fill_gaussian` at every width to
/// return its bits — and the generator to end where the oracle's did.
/// Returns the kernel's fallback count (the same at every level).
fn check_gaussian(state: u64, len: usize, std: f32) -> usize {
    let mut oracle = rng::seeded(state);
    let mut want = vec![f32::NAN; len];
    rng::fill_gaussian_per_element(&mut oracle, &mut want, std);
    let mut fallbacks = None;
    for lvl in simd::available_levels() {
        let mut got = vec![f32::NAN; len];
        let taken = simd::fill_gaussian_at(lvl, state, std.max(f32::MIN_POSITIVE), &mut got);
        assert_eq!(
            bits(&got),
            bits(&want),
            "state {state:#x} len {len} std {std} at {lvl}"
        );
        assert_eq!(*fallbacks.get_or_insert(taken), taken, "fallbacks at {lvl}");
    }
    for width in WIDTHS {
        let mut pooled = rng::seeded(state);
        let mut got = vec![f32::NAN; len];
        pool::with_width(width, || rng::fill_gaussian(&mut pooled, &mut got, std));
        let what = format!("state {state:#x} len {len} std {std} width {width}");
        assert_eq!(bits(&got), bits(&want), "{what}");
        assert_eq!(pooled, oracle, "generator after {what}");
    }
    fallbacks.unwrap_or(0)
}

#[test]
fn unmix_inverts_the_generator() {
    for draw in [0, 1, 0x7FF, u64::MAX, 1 << 51, 0x0123_4567_89AB_CDEF] {
        for n in [1, 2, 131] {
            let mut g = rng::seeded(state_drawing(draw, n));
            let drawn = (0..n).map(|_| g.next_u64()).last();
            assert_eq!(drawn, Some(draw), "draw {draw:#x} at {n}");
        }
    }
}

/// Draws that sit on the edges of the kernel's derivation, each placed on
/// purpose at several positions of several fills: `u1 = 0` (`ln 1 = 0`),
/// `u1 = 1 − 2⁻⁵³`, the angles nearest π/2 and 3π/2 (`cos θ ≈ 0`) and a
/// spread around them across the 2⁻²⁰ guard, the quadrant boundaries,
/// `θ = 0` and `u2 → 1`. The ones that must decline are seen to.
#[test]
fn gaussian_kernel_matches_the_oracle_on_edge_draws() {
    const U1: u64 = 1; // element k's u1 is draw 2k + 1, its u2 draw 2k + 2
    const U2: u64 = 2;
    // The shim's uniform is the draw's top 53 bits.
    let word = |uniform: u64| uniform << 11;
    let top = (1u64 << 53) - 1;
    // (which draw, the draw itself, whether it must decline)
    let mut edges = vec![
        (U1, 0, true),
        (U1, 0x7FF, true), // u1 = 0 with the discarded bits set
        (U1, word(top), false),
        (U1, u64::MAX, false),
        (U1, word(1), false),
        (U2, 0, true),
        (U2, word(top), true),
        (U2, word(1 << 52), false), // θ = π
    ];
    for quarter in [1u64, 3] {
        let nearest = quarter << 51; // TAU·u2 = quarter·π/2, rounded
        edges.push((U2, word(nearest), true));
        // |r| ≈ 2π·2^(shift − 53): under the 2⁻²⁰ guard up to shift 30.
        for shift in [0, 1, 10, 20, 29, 30, 31, 32, 40] {
            edges.push((U2, word(nearest + (1 << shift)), shift <= 30));
            edges.push((U2, word(nearest - (1 << shift)), shift <= 30));
        }
    }
    for eighth in [1u64, 3, 5, 7] {
        for delta in [-1i64, 0, 1] {
            edges.push((U2, word((eighth << 50).wrapping_add_signed(delta)), false));
        }
    }
    for (draw, raw, declines) in edges {
        for len in [1usize, 63, 64, 65, 130, 4097] {
            for k in [0, len / 2, 63, 64, len - 1] {
                if k >= len {
                    continue;
                }
                let state = state_drawing(raw, 2 * k as u64 + draw);
                for std in gaussian_stds() {
                    let fallbacks = check_gaussian(state, len, std);
                    if declines {
                        assert!(fallbacks >= 1, "draw {draw} = {raw:#x} not declined");
                    }
                }
            }
        }
    }
}

/// Every length 0..=130 (every remainder of the kernel's 64-lane block and
/// of the pool's cut), one a page past 4 096, and vgg19-analog's 1 521 162
/// weights, from ordinary states and from states whose draws cross the
/// `u64` wrap.
#[test]
fn gaussian_kernel_matches_the_oracle_at_every_length() {
    let wrap = |n: u64| 0u64.wrapping_sub(n.wrapping_mul(StdRng::GAMMA));
    for len in (0..=130).chain([4097]) {
        for (at, state) in [len as u64 + 77, wrap(len as u64), wrap(1) ^ 1]
            .into_iter()
            .enumerate()
        {
            for std in gaussian_stds() {
                if at == 0 || std == 1.0 {
                    check_gaussian(state, len, std);
                }
            }
        }
    }
    for std in [(2.0f32 / 768.0).sqrt(), 1.0] {
        check_gaussian(11, 1_521_162, std);
    }
}
