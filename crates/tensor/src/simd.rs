//! Runtime-dispatched SIMD kernels for the codec and backward-pass hot
//! paths.
//!
//! Every compressor funnels through a handful of primitive loops: the ‖g‖∞
//! scan ([`abs_max_bits`], [`abs_bits_into`]), code-book binary search and
//! its decode ([`quantize_sign_mag`], [`dequant_sign_mag`]), byte-width bit
//! packing ([`narrow_to_bytes`], [`widen_from_bytes`]), sparse gather
//! ([`gather_f32`]), the axpy-shaped rows of PowerSGD ([`axpy`]), and the
//! QSGD / Qsparse level quantizer with its stochastic dither
//! ([`quantize_levels_at`], [`dequantize_levels_at`]). Beside them sit the
//! CRC32 under every payload and frame ([`crc32_update`]), the two
//! gradient products of every backward pass ([`gemm_nt`], [`gemm_tn`]) and
//! the Box–Muller fill under every weight init and synthetic dataset
//! ([`fill_gaussian_at`]), and the add of every cross-rank sum
//! ([`sum_into_at`]).
//! This module provides those kernels with `core::arch` x86-64 bodies (AVX2,
//! and AVX-512 when the CPU reports F, DQ and VL) behind one runtime
//! dispatch point, plus a portable scalar body used on other architectures,
//! on x86-64 hosts without AVX2 and when `GRACE_FORCE_SCALAR` is set. The
//! same dispatch point runs `linalg`'s forward product and `pack`'s byte
//! add, whose portable loops it recompiles for each level.
//!
//! # Bit identity
//!
//! The non-negotiable contract is that every vector path returns **bit
//! identical** results to the scalar path on *all* inputs — including NaN,
//! denormals and ±0 — so compressed payloads, pinned golden checksums and
//! the cross-backend equivalence suites cannot observe which path ran. The
//! kernels achieve this by construction:
//!
//! * integer and comparison kernels (`abs_bits`, packing, selection) are
//!   exact in any evaluation order;
//! * floating-point kernels vectorize across *independent output elements*
//!   only — each lane performs the same `mul`/`add`/`sub`/`cmp` sequence as
//!   one scalar iteration, and FMA is never used (fused rounding differs
//!   from `mul` + `add`);
//! * reductions that would need a lane-reassociated tree (`dot`, the f32
//!   sum) are deliberately **not** vectorized here — their sequential
//!   accumulation order is pinned by golden checksums; [`gemm_nt`] and
//!   [`gemm_tn`] are reductions per output element, so they keep every
//!   element's chain sequential and spread their lanes over *different*
//!   elements instead (the rule is stated once, in [`crate::linalg`]'s
//!   module docs); `gemm_tn`'s zero-skip is kept by compacting the
//!   nonzero rows before the chains run, a decision every lane shares;
//! * the max-reduction in [`abs_max_bits`] operates on absolute-value *bit
//!   patterns* (sign bit cleared, compared as integers), which is
//!   associative and exact, so the lane-parallel tree equals the scalar
//!   left fold bit-for-bit;
//! * the level quantizer's dither comes from a counter-based generator
//!   (SplitMix64: draw `k` is a pure function of `state + k·γ`), so the
//!   AVX2 body computes a group's eight draws side by side from the counter
//!   and leaves the generator where the scalar draws would;
//! * the Gaussian fill is the one kernel that does not replay its reference
//!   (libm's `ln` and `cos`): its lanes use polynomials, and keep a result
//!   only where an error bound *certifies* that libm rounds to the same
//!   `f32`, recomputing every other element by the reference itself.
//!
//! Each kernel is also exposed as an `*_at(Level, …)` variant so the
//! equivalence suite (and the bench harness) can pin a path explicitly and
//! compare levels inside one process, independently of the cached dispatch
//! decision.

use crate::coding::level_bits;
use crate::pack::packed_len;
use rand::rngs::StdRng;
use std::sync::OnceLock;

/// An instruction-set tier the dispatcher can select.
///
/// Ordered: a level is usable whenever the hardware level is `>=` it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Portable scalar Rust, the reference semantics.
    Scalar,
    /// AVX2 with 256-bit integer ops and gathers.
    Avx2,
    /// AVX-512 F, DQ and VL: the portable bodies at 512-bit lanes, the
    /// 64-bit lane multiply and the two gradient products at sixteen lanes;
    /// every other kernel runs its AVX2 body.
    Avx512,
}

impl Level {
    /// Stable lowercase name (used in logs and bench rows).
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The best level this CPU supports, ignoring `GRACE_FORCE_SCALAR`.
pub fn hw_level() -> Level {
    static HW: OnceLock<Level> = OnceLock::new();
    *HW.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx512f") && has!("avx512dq") && has!("avx512vl") {
                Level::Avx512
            } else if has!("avx2") {
                Level::Avx2
            } else {
                Level::Scalar
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Level::Scalar
        }
    })
}

/// The level auto-dispatch uses: [`hw_level`] unless `GRACE_FORCE_SCALAR`
/// is set to a non-empty value other than `0`, in which case `Scalar`.
///
/// Read once per process and cached; changing the environment variable
/// afterwards has no effect.
pub fn level() -> Level {
    static ACTIVE: OnceLock<Level> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let forced =
            std::env::var_os("GRACE_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0");
        if forced {
            Level::Scalar
        } else {
            hw_level()
        }
    })
}

/// Every level the current CPU can execute, in ascending order.
///
/// Unlike [`level`] this ignores `GRACE_FORCE_SCALAR`, so the equivalence
/// suite can cross-check vector bodies even in a forced-scalar run.
pub fn available_levels() -> Vec<Level> {
    [Level::Scalar, Level::Avx2, Level::Avx512]
        .into_iter()
        .filter(|&lvl| lvl <= hw_level())
        .collect()
}

#[track_caller]
pub(crate) fn checked(lvl: Level) -> Level {
    assert!(
        lvl <= hw_level(),
        "SIMD level {lvl} not supported by this CPU (max {})",
        hw_level()
    );
    lvl
}

/// Dispatches to a per-level body after validating hardware support. A
/// kernel without an `avx512:` body runs its AVX2 body at `Avx512`. On
/// non-x86-64 targets only the scalar arm is compiled. `linalg` and `pack`
/// dispatch their portable loops' forwarders through it too.
macro_rules! dispatch {
    ($lvl:expr, scalar: $s:expr, avx2: $a2:expr $(, avx512: $a5:expr)?) => {{
        let lvl = $crate::simd::checked($lvl);
        #[cfg(target_arch = "x86_64")]
        {
            use $crate::simd::Level;
            match lvl {
                Level::Scalar => $s,
                // SAFETY: `checked` proved the CPU supports AVX2, the feature
                // the `#[target_feature]` body was compiled for.
                Level::Avx2 => unsafe { $a2 },
                // SAFETY: `checked` proved the CPU reports AVX-512 F, DQ and
                // VL, the features the `avx512:` body was compiled for; F
                // implies AVX2 (the compiler's own implication), which is
                // all an AVX2 body needs.
                Level::Avx512 => unsafe { $crate::simd::dispatch!(@wide $a2 $(, $a5)?) },
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = lvl;
            $s
        }
    }};
    (@wide $a2:expr) => {
        $a2
    };
    (@wide $a2:expr, $a5:expr) => {
        $a5
    };
}
pub(crate) use dispatch;

// ---------------------------------------------------------------------------
// abs-max (‖g‖∞ as a bit pattern)
// ---------------------------------------------------------------------------

/// Maximum absolute-value **bit pattern** over `xs` (0 for an empty slice).
///
/// For finite floats, clearing the sign bit makes the IEEE-754 encoding
/// order-isomorphic to the magnitude order, so an integer max over the
/// masked bits equals `fold(0.0, |m, v| m.max(v.abs()))` — and, unlike the
/// float fold, it is exactly associative, so any lane tree gives the same
/// answer. NaN patterns compare above +∞: a NaN input yields a NaN result
/// rather than being skipped (callers already reject non-finite gradients).
pub fn abs_max_bits(xs: &[f32]) -> u32 {
    abs_max_bits_at(level(), xs)
}

/// [`abs_max_bits`] with an explicit dispatch level.
pub fn abs_max_bits_at(lvl: Level, xs: &[f32]) -> u32 {
    dispatch!(lvl,
        scalar: scalar::abs_max_bits(xs),
        avx2: x86::abs_max_bits_avx2(xs))
}

/// Writes `xs[i].to_bits() & 0x7FFF_FFFF` into `out` (abs-value bit
/// patterns, the integer key top-k selection sorts by).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn abs_bits_into(xs: &[f32], out: &mut [u32]) {
    abs_bits_into_at(level(), xs, out);
}

/// [`abs_bits_into`] with an explicit dispatch level.
pub fn abs_bits_into_at(lvl: Level, xs: &[f32], out: &mut [u32]) {
    assert_eq!(xs.len(), out.len(), "abs_bits_into length mismatch");
    dispatch!(lvl,
        scalar: scalar::abs_bits_into(xs, out),
        avx2: x86::abs_bits_into_avx2(xs, out))
}

// ---------------------------------------------------------------------------
// axpy (the inner row op of PowerSGD's matmuls and error-feedback updates)
// ---------------------------------------------------------------------------

/// `y[i] += a * x[i]`, elementwise.
///
/// Each output lane performs exactly one `mul` and one `add` (never FMA),
/// so the vector paths are bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    axpy_at(level(), y, a, x);
}

/// [`axpy`] with an explicit dispatch level.
pub fn axpy_at(lvl: Level, y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    dispatch!(lvl,
        scalar: scalar::axpy(y, a, x),
        avx2: x86::axpy_avx2(y, a, x),
        avx512: x86::axpy_avx512(y, a, x))
}

// ---------------------------------------------------------------------------
// gemm_nt (A·Bᵀ: the dX product of every backward pass)
// ---------------------------------------------------------------------------

/// `C (m×k) = A (m×n) · Bᵀ` where `B` is `k×n`; all three row-major. `c` is
/// overwritten, never read.
///
/// Every output element is the sequential chain `acc = 0.0; for p in 0..n
/// { acc = acc + a[i][p] * b[j][p] }` — one `mul` then one `add` per `p`,
/// `p` ascending, no zero-skip (so `0 · ∞ = NaN` propagates). The order
/// rule this kernel lives by, and who depends on it, is in
/// [`crate::linalg`]'s module docs. The vector bodies run eight (AVX2) or
/// sixteen (AVX-512) *rows of `A`* per vector — independent output
/// elements — and leave each element's chain exactly as written above, so
/// every level returns the scalar body's bits (a NaN is a NaN at every
/// level; which payload survives `NaN · NaN` is the compiler's
/// operand-order choice in any body, scalar included). Their panels return
/// every NaN as the default quiet NaN, so a row's bits do not depend on
/// which panel — where its pool range starts — computed it.
///
/// # Panics
///
/// Panics if a buffer size does not match the dimensions.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    gemm_nt_at(level(), a, b, c, m, n, k);
}

/// [`gemm_nt`] with an explicit dispatch level.
pub fn gemm_nt_at(lvl: Level, a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * n, "A buffer size mismatch");
    assert_eq!(b.len(), k * n, "B buffer size mismatch");
    assert_eq!(c.len(), m * k, "C buffer size mismatch");
    dispatch!(lvl,
        scalar: scalar::gemm_nt(a, b, c, m, n, k),
        avx2: x86::gemm_nt_avx2(a, b, c, m, n, k),
        avx512: x86::gemm_nt_avx512(a, b, c, m, n, k))
}

// ---------------------------------------------------------------------------
// gemm_tn (Aᵀ·B: the dW product of every backward pass)
// ---------------------------------------------------------------------------

/// `C (k×n) = Aᵀ · B` where `A` is `m×k` and `B` is `m×n`; all three
/// row-major. `c` is overwritten, never read.
///
/// Every output element is the sequential chain `acc = 0.0; for row in
/// 0..m { if a[row][i] != 0.0 { acc = acc + a[row][i] * b[row][j] } }` —
/// one `mul` then one `add` per term, rows ascending. The zero-skip means
/// `0 · ∞` does *not* propagate: an `a = ±0` term is absent, whatever `b`
/// holds. The vector bodies run eight (AVX2) or sixteen (AVX-512) columns
/// of `C` per vector, so the skipped value `a[row][i]` is one scalar shared
/// by every lane: they compact the nonzero rows of column `i` of `A` into a
/// list, ascending, and run each element's chain over that list — the
/// reference's terms in the reference's order, so every level returns the
/// scalar body's bits (NaN payloads aside, as in [`gemm_nt`]).
///
/// # Panics
///
/// Panics if a buffer size does not match the dimensions.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_tn_at(level(), a, b, c, m, k, n);
}

/// [`gemm_tn`] with an explicit dispatch level.
pub fn gemm_tn_at(lvl: Level, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_tn_rows_at(lvl, a, b, c, m, k, n, 0..k);
}

/// Rows `rows` of [`gemm_tn`]'s `C` into `c` (`rows.len() × n`): the same
/// per-element chains, for the output rows one thread of
/// [`crate::linalg::matmul_transpose_a`] owns. `c` is overwritten, never
/// read.
///
/// # Panics
///
/// Panics if a buffer size does not match the dimensions or `rows` is not
/// inside `0..k`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn_rows_at(
    lvl: Level,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    rows: std::ops::Range<usize>,
) {
    assert_eq!(a.len(), m * k, "A buffer size mismatch");
    assert_eq!(b.len(), m * n, "B buffer size mismatch");
    assert!(
        rows.start <= rows.end && rows.end <= k,
        "C rows outside 0..k"
    );
    assert_eq!(c.len(), rows.len() * n, "C buffer size mismatch");
    dispatch!(lvl,
        scalar: scalar::gemm_tn(a, b, c, m, k, n, rows),
        avx2: x86::gemm_tn_avx2(a, b, c, m, k, n, rows),
        avx512: x86::gemm_tn_avx512(a, b, c, m, k, n, rows))
}

// ---------------------------------------------------------------------------
// byte-width packing (the 8-bit quantizer family's wire format)
// ---------------------------------------------------------------------------

/// Truncates each `u32` to its low byte: `out[i] = values[i] as u8`.
///
/// This is the width-8 fast path of `pack_bits`; the caller has already
/// validated that every value fits. The kernel itself is total and
/// truncating, exactly like the scalar cast.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn narrow_to_bytes(values: &[u32], out: &mut [u8]) {
    narrow_to_bytes_at(level(), values, out);
}

/// [`narrow_to_bytes`] with an explicit dispatch level.
pub fn narrow_to_bytes_at(lvl: Level, values: &[u32], out: &mut [u8]) {
    assert_eq!(values.len(), out.len(), "narrow_to_bytes length mismatch");
    dispatch!(lvl,
        scalar: scalar::narrow_to_bytes(values, out),
        avx2: x86::narrow_to_bytes_avx2(values, out))
}

/// Zero-extends each byte to a `u32`: `out[i] = bytes[i] as u32` (the
/// width-8 unpack fast path).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn widen_from_bytes(bytes: &[u8], out: &mut [u32]) {
    widen_from_bytes_at(level(), bytes, out);
}

/// [`widen_from_bytes`] with an explicit dispatch level.
pub fn widen_from_bytes_at(lvl: Level, bytes: &[u8], out: &mut [u32]) {
    assert_eq!(bytes.len(), out.len(), "widen_from_bytes length mismatch");
    dispatch!(lvl,
        scalar: scalar::widen_from_bytes(bytes, out),
        avx2: x86::widen_from_bytes_avx2(bytes, out))
}

// ---------------------------------------------------------------------------
// code-book quantize / dequantize (8-bit sign + magnitude)
// ---------------------------------------------------------------------------

/// Quantizes each element against a sorted magnitude code-book:
/// `out[i] = (xs[i] < 0.0) << 7 | nearest(|xs[i]| * inv)`, where `nearest`
/// is the `partition_point(|v| v < x)` bin search with the
/// `(x - lo) <= (hi - x)` midpoint tie rule — byte-for-byte the 8-bit
/// quantizer's `find_bins`.
///
/// Both paths run the same fixed-shape branchless binary search (probe
/// schedule depends only on `table.len()`), so they make identical float
/// comparisons per element; the AVX2 body evaluates eight elements per
/// probe via gathers.
///
/// # Panics
///
/// Panics if the output length differs from the input length, or if the
/// code-book is empty or longer than 128 entries (the magnitude field is 7
/// bits).
pub fn quantize_sign_mag(table: &[f32], xs: &[f32], inv: f32, out: &mut [u32]) {
    quantize_sign_mag_at(level(), table, xs, inv, out);
}

/// [`quantize_sign_mag`] with an explicit dispatch level.
pub fn quantize_sign_mag_at(lvl: Level, table: &[f32], xs: &[f32], inv: f32, out: &mut [u32]) {
    assert_eq!(xs.len(), out.len(), "quantize_sign_mag length mismatch");
    assert!(
        !table.is_empty() && table.len() <= 128,
        "code-book must have 1..=128 entries, got {}",
        table.len()
    );
    dispatch!(lvl,
        scalar: scalar::quantize_sign_mag(table, xs, inv, out),
        avx2: x86::quantize_sign_mag_avx2(table, xs, inv, out))
}

/// Decodes sign + 7-bit magnitude codes:
/// `out[i] = sign(codes[i]) * table[codes[i] & 0x7F] * scale` with
/// `sign = -1.0` exactly when `codes[i] >> 7 == 1`. The multiplication
/// order matches the scalar decode expression, so `-0.0` cases survive.
///
/// # Panics
///
/// Panics if the output length differs from the code count, or if the
/// code-book has fewer than 128 entries (every masked index must be valid).
pub fn dequant_sign_mag(table: &[f32], codes: &[u32], scale: f32, out: &mut [f32]) {
    dequant_sign_mag_at(level(), table, codes, scale, out);
}

/// [`dequant_sign_mag`] with an explicit dispatch level.
pub fn dequant_sign_mag_at(lvl: Level, table: &[f32], codes: &[u32], scale: f32, out: &mut [f32]) {
    assert_eq!(codes.len(), out.len(), "dequant_sign_mag length mismatch");
    assert!(
        table.len() > 0x7F,
        "code-book must have at least 128 entries, got {}",
        table.len()
    );
    dispatch!(lvl,
        scalar: scalar::dequant_sign_mag(table, codes, scale, out),
        avx2: x86::dequant_sign_mag_avx2(table, codes, scale, out))
}

/// Accumulating variant of [`dequant_sign_mag`]:
/// `out[i] += sign(codes[i]) * table[codes[i] & 0x7F] * scale` — the
/// homomorphic fold's per-worker add, one `add` per element after the same
/// decode product (never FMA).
///
/// # Panics
///
/// Same contract as [`dequant_sign_mag`].
pub fn dequant_sign_mag_add(table: &[f32], codes: &[u32], scale: f32, out: &mut [f32]) {
    dequant_sign_mag_add_at(level(), table, codes, scale, out);
}

/// [`dequant_sign_mag_add`] with an explicit dispatch level.
pub fn dequant_sign_mag_add_at(
    lvl: Level,
    table: &[f32],
    codes: &[u32],
    scale: f32,
    out: &mut [f32],
) {
    assert_eq!(codes.len(), out.len(), "dequant_sign_mag length mismatch");
    assert!(
        table.len() > 0x7F,
        "code-book must have at least 128 entries, got {}",
        table.len()
    );
    dispatch!(lvl,
        scalar: scalar::dequant_sign_mag_add(table, codes, scale, out),
        avx2: x86::dequant_sign_mag_add_avx2(table, codes, scale, out))
}

// ---------------------------------------------------------------------------
// sparse gather
// ---------------------------------------------------------------------------

/// `out[j] = src[indices[j]]` (the sparsify gather).
///
/// The AVX2 body pre-validates every index with an integer max reduction
/// and only then issues hardware gathers; invalid indices fall back to the
/// scalar loop so the out-of-bounds panic is identical.
///
/// # Panics
///
/// Panics if the output length differs from the index count, or if an
/// index is out of bounds for `src`.
pub fn gather_f32(src: &[f32], indices: &[u32], out: &mut [f32]) {
    gather_f32_at(level(), src, indices, out);
}

/// [`gather_f32`] with an explicit dispatch level.
pub fn gather_f32_at(lvl: Level, src: &[f32], indices: &[u32], out: &mut [f32]) {
    assert_eq!(indices.len(), out.len(), "gather_f32 length mismatch");
    dispatch!(lvl,
        scalar: scalar::gather_f32(src, indices, out),
        avx2: x86::gather_f32_avx2(src, indices, out))
}

// ---------------------------------------------------------------------------
// level quantizer (QSGD's stochastic rounding and its decode)
// ---------------------------------------------------------------------------

/// [`crate::coding::quantize_levels`] with an explicit dispatch level: the
/// same contract, streams and RNG state at every level.
///
/// `Level::Avx2` runs codes 1..=8 bits wide (`s ≤ 255`: every QSGD and
/// Qsparse configuration) eight elements per vector, and draws a full
/// group's eight dither values as two 4×u64 SplitMix64 vectors from the
/// counter [`StdRng::skip`] hands over, so the draws are the scalar body's
/// in the scalar body's order. Wider codes, a zero norm, the last partial
/// group and the other levels take the scalar body.
///
/// # Panics
///
/// As [`crate::coding::quantize_levels`].
pub fn quantize_levels_at(
    lvl: Level,
    xs: &[f32],
    s: u32,
    rng: &mut StdRng,
    signs: &mut [u8],
    levels: &mut [u8],
) -> f32 {
    assert!(s >= 1, "need at least one level");
    assert_eq!(signs.len(), packed_len(xs.len(), 1), "sign bitmap length");
    assert_eq!(
        levels.len(),
        packed_len(xs.len(), level_bits(s)),
        "level stream length"
    );
    // The serial left fold's bits (goldens pin them), by whole ulps.
    let norm = sum_squares_at(lvl, xs).sqrt();
    dispatch!(lvl,
        scalar: scalar::quantize_levels(xs, norm, s, rng, signs, levels),
        avx2: x86::quantize_levels_avx2(xs, norm, s, rng, signs, levels),
        avx512: x86::quantize_levels_avx512(xs, norm, s, rng, signs, levels));
    norm
}

/// [`crate::coding::dequantize_levels`] with an explicit dispatch level.
///
/// `Level::Avx2` decodes codes 1..=8 bits wide eight per vector, each lane
/// evaluating the scalar body's `norm * l as f32 / s` (the expression its
/// table holds, for codes above `s` too); wider codes and the other levels
/// take the scalar body.
///
/// # Panics
///
/// As [`crate::coding::dequantize_levels`].
#[allow(clippy::too_many_arguments)]
pub fn dequantize_levels_at(
    lvl: Level,
    signs: &[u8],
    levels: &[u8],
    bits: u32,
    s: u32,
    norm: f32,
    count: usize,
    out: &mut Vec<f32>,
) {
    dequantize_levels_fold_at(lvl, signs, levels, bits, s, norm, count, out, Fold::Assign);
}

/// How one decoded contribution enters a merge accumulator. A gathered
/// merge is the elementwise mean in rank order: the first contribution
/// assigned, the others added, and the sum multiplied by `1/n` — here inside
/// the last contribution's pass, where `(acc + d) * (1/n)` is the add and
/// the multiply the two-pass mean runs on each element.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fold {
    /// `acc = d`: `acc` is cleared and refilled, its contents unread.
    Assign,
    /// `acc += d`, by [`sum_into`].
    Add,
    /// `acc = (acc + d) * scale`.
    AddScale(f32),
}

impl Fold {
    /// Folds decoded `values` into `acc`; [`Fold::Assign`] moves the buffer
    /// in.
    ///
    /// # Panics
    ///
    /// Panics if an adding pass meets lengths that differ.
    pub fn apply(self, acc: &mut Vec<f32>, values: Vec<f32>) {
        if self == Fold::Assign {
            *acc = values;
        } else {
            FoldSink::new(acc, self, values.len()).put(&values);
        }
    }

    /// Folds the first `count` values `values` yields — a decode, element
    /// by element — into `acc`: [`apply`](Self::apply) without a decoded
    /// buffer, the values passing through a stack chunk at a time.
    /// [`Fold::Assign`] refills `acc` in its own capacity.
    ///
    /// # Panics
    ///
    /// Panics if an adding pass meets an `acc` of another length than
    /// `count`, or if `values` yields fewer.
    pub fn apply_iter(
        self,
        acc: &mut Vec<f32>,
        count: usize,
        values: impl IntoIterator<Item = f32>,
    ) {
        let mut sink = FoldSink::new(acc, self, count);
        let mut values = values.into_iter().take(count);
        let mut chunk = [0.0f32; 64];
        loop {
            let mut n = 0;
            for (c, v) in chunk.iter_mut().zip(&mut values) {
                *c = v;
                n += 1;
            }
            if n == 0 {
                break;
            }
            sink.put(&chunk[..n]);
        }
        assert_eq!(sink.at, count, "decoded value count");
    }
}

/// The write side of a fold: appends under [`Fold::Assign`], and otherwise
/// combines each value with the accumulator element it lands on.
struct FoldSink<'a> {
    out: &'a mut Vec<f32>,
    fold: Fold,
    at: usize,
}

impl<'a> FoldSink<'a> {
    /// A sink for `count` values into `out`.
    #[track_caller]
    fn new(out: &'a mut Vec<f32>, fold: Fold, count: usize) -> Self {
        if fold == Fold::Assign {
            out.clear();
            out.reserve(count);
        } else {
            assert_eq!(out.len(), count, "accumulator length");
        }
        FoldSink { out, fold, at: 0 }
    }

    /// The next `values.len()` elements, in order.
    #[inline(always)]
    fn put(&mut self, values: &[f32]) {
        let at = self.at;
        self.at += values.len();
        if self.fold == Fold::Assign {
            return self.out.extend_from_slice(values);
        }
        let acc = &mut self.out[at..self.at];
        match self.fold {
            Fold::AddScale(scale) => {
                for (a, &d) in acc.iter_mut().zip(values) {
                    *a = fold_add(*a, d) * scale;
                }
            }
            _ => sum_into(acc, values),
        }
    }
}

/// `acc + d`, keeping `acc`'s NaN when both are NaN: the one NaN rule of
/// every cross-rank sum. Which NaN a plain add returns when both operands
/// are NaN is the compiler's choice — the operands commute, and a vector
/// loop and its scalar tail, or a debug and a release build, may choose
/// differently — so every sum pins it here, and a rank-ordered sum keeps
/// the lowest rank's NaN on every backend, level and build. The sum comes
/// first and the select after, so a loop of it vectorizes.
#[inline(always)]
pub fn fold_add(acc: f32, d: f32) -> f32 {
    let sum = acc + d;
    if acc.is_nan() {
        acc
    } else {
        sum
    }
}

/// `acc[i] = fold_add(acc[i], src[i])`: one contribution added onto a
/// rank-ordered sum. The board, the simulator's lanes, the fold's `Add`
/// pass and `Tensor::add_assign` all sum through it.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sum_into(acc: &mut [f32], src: &[f32]) {
    sum_into_at(level(), acc, src);
}

/// [`sum_into`] with an explicit dispatch level: the vector levels run the
/// portable loop compiled for their lanes, whose sum-then-select keeps the
/// bits.
pub fn sum_into_at(lvl: Level, acc: &mut [f32], src: &[f32]) {
    assert_eq!(acc.len(), src.len(), "sum_into length mismatch");
    dispatch!(lvl,
        scalar: scalar::sum_into(acc, src),
        avx2: x86::sum_into_avx2(acc, src),
        avx512: x86::sum_into_avx512(acc, src))
}

/// [`dequantize_levels_at`] folded straight into a merge accumulator: each
/// decoded value `d` enters `out` as `fold` says, so a gathered merge
/// decodes every contribution without materializing it. `Level::Avx2`
/// decodes as [`dequantize_levels_at`] does and adds eight lanes at a time;
/// every level evaluates the same `add` and `mul` per element.
///
/// # Panics
///
/// As [`dequantize_levels_at`], and if an adding `fold` meets an `out` that
/// does not hold `count` elements.
#[allow(clippy::too_many_arguments)]
pub fn dequantize_levels_fold_at(
    lvl: Level,
    signs: &[u8],
    levels: &[u8],
    bits: u32,
    s: u32,
    norm: f32,
    count: usize,
    out: &mut Vec<f32>,
    fold: Fold,
) {
    assert_eq!(signs.len(), packed_len(count, 1), "sign bitmap length");
    assert_eq!(levels.len(), packed_len(count, bits), "level stream length");
    let out = FoldSink::new(out, fold, count);
    dispatch!(lvl,
        scalar: scalar::dequantize_levels(signs, levels, bits, s, norm, count, out),
        avx2: x86::dequantize_levels_avx2(signs, levels, bits, s, norm, count, out))
}

// ---------------------------------------------------------------------------
// sum of squares (every ‖g‖₂)
// ---------------------------------------------------------------------------

/// Elements per block of [`sum_squares`]; a block that cannot add its ulps
/// as integers runs serially.
pub const SUM_SQUARES_BLOCK: usize = 256;

/// `xs.iter().map(|v| v * v).sum::<f32>()`, bit for bit — the serial left
/// fold from the toolchain's `Sum` neutral element — without its serial
/// dependency chain.
///
/// Every addend is `≥ +0`, so the running sum never falls. While it stays
/// in one binade, with ulp `u`, adding `q` adds exactly `round(q/u)` ulps,
/// whatever the sum is, unless `q/u` is a tie (ties round to the even
/// neighbour, which depends on the sum). So a block of
/// [`SUM_SQUARES_BLOCK`] elements adds its ulps as integers when the sum
/// entering it is normal and positive, every addend is below `2²²` ulps (so
/// below the binade's half: ∞ and NaN fail this), no addend is a tie, and
/// the integer total keeps the sum inside its binade. Each addend's ulps are
/// read off two sums the lanes form side by side: the binade's power of two
/// plus the addend, and its odd neighbour plus the addend; they differ by
/// one ulp exactly when the addend is not a tie. Every other block, a sum
/// that is zero or subnormal, and the tail run the serial loop. DESIGN.md
/// §14 gives the argument.
pub fn sum_squares(xs: &[f32]) -> f32 {
    sum_squares_at(level(), xs)
}

/// [`sum_squares`] with an explicit dispatch level. Every level runs the
/// same blocked walk; `Avx2` and `Avx512` test a block in eight lanes.
pub fn sum_squares_at(lvl: Level, xs: &[f32]) -> f32 {
    dispatch!(lvl,
        scalar: squares::sum(xs),
        avx2: x86::sum_squares_avx2(xs))
}

/// The blocked walk of [`super::sum_squares_at`] and its portable block
/// test (straight-line, branch-free lane loops); the AVX2 body brings its
/// own block test to the same walk.
mod squares {
    use super::SUM_SQUARES_BLOCK as BLOCK;

    const LANES: usize = 8;
    /// The mantissa field of an `f32`.
    const MANTISSA: u32 = 0x007F_FFFF;

    /// The portable body: [`sum_with`] over [`by_ulps`].
    #[inline(always)]
    pub fn sum(xs: &[f32]) -> f32 {
        sum_with(xs, by_ulps)
    }

    /// The blocked walk: each full block through `block`, or serially
    /// where it answers `None`, then the tail serially.
    #[inline(always)]
    pub fn sum_with(xs: &[f32], mut block: impl FnMut(f32, &[f32; BLOCK]) -> Option<f32>) -> f32 {
        // `Sum`'s own neutral element, whichever signed zero it is.
        let mut acc: f32 = std::iter::empty::<f32>().sum();
        let (blocks, tail) = xs.as_chunks::<BLOCK>();
        for b in blocks {
            acc = block(acc, b).unwrap_or_else(|| serial(acc, b));
        }
        serial(acc, tail)
    }

    /// The reference loop from `acc`. Which NaN an add keeps when both
    /// operands are NaN is up to codegen (x86 keeps the first operand's, and
    /// a three-operand AVX add may put either first), so the loop is never
    /// inlined into a vector forwarder: it is compiled as the reference is.
    #[inline(never)]
    fn serial(acc: f32, xs: &[f32]) -> f32 {
        xs.iter().fold(acc, |acc, v| acc + v * v)
    }

    /// For a normal, positive `acc`: its binade's power of two, that
    /// power's odd neighbour (one ulp up) and its half (`2²²` ulps).
    #[inline(always)]
    pub fn binade(acc: f32) -> Option<(f32, f32, f32)> {
        // The biased exponent; a set sign bit puts it past 255.
        let exponent = acc.to_bits() >> 23;
        let even = exponent << 23;
        (1..=254).contains(&exponent).then(|| {
            (
                f32::from_bits(even),
                f32::from_bits(even | 1),
                f32::from_bits(even) * 0.5,
            )
        })
    }

    /// `acc` moved up by the ulps whose sums from the binade's power of two
    /// total `from_even` (wrapping) over a block, or `None` when that would
    /// leave the binade. Each addend's ulps are its sum's bits above the
    /// power's; under `2²²` each, the block's total is below `2³⁰`.
    #[inline(always)]
    pub fn advance(acc: f32, from_even: u32) -> Option<f32> {
        let bits = acc.to_bits();
        let power = bits & !MANTISSA;
        let ulps = from_even.wrapping_sub((BLOCK as u32).wrapping_mul(power));
        ((bits & MANTISSA) + ulps <= MANTISSA).then(|| f32::from_bits(bits + ulps))
    }

    /// `acc` plus the block's squares as whole ulps of `acc`'s binade, or
    /// `None` when that would not be the serial loop's sum.
    #[inline(always)]
    fn by_ulps(acc: f32, block: &[f32; BLOCK]) -> Option<f32> {
        let (even, odd, half) = binade(acc)?;
        let mut sums = [0u32; LANES];
        let mut bad = [0u32; LANES];
        for group in block.as_chunks::<LANES>().0 {
            for i in 0..LANES {
                let q = group[i] * group[i];
                let from_even = (even + q).to_bits();
                let from_odd = (odd + q).to_bits();
                let good = (q < half) & (from_odd == from_even.wrapping_add(1));
                bad[i] |= u32::from(!good);
                sums[i] = sums[i].wrapping_add(from_even);
            }
        }
        if bad.iter().any(|&b| b != 0) {
            return None;
        }
        advance(acc, sums.iter().fold(0u32, |a, &s| a.wrapping_add(s)))
    }
}

// ---------------------------------------------------------------------------
// Gaussian fill (Box–Muller: every weight init and every synthetic dataset)
// ---------------------------------------------------------------------------

/// Fills `out` with `N(0, std²)` samples, element `k` being exactly what
/// `rand_distr::Normal::new(0.0, std)` samples from a generator at state
/// `counter + 2k·γ` — draws `2k + 1` and `2k + 2` after `counter` — and
/// returns how many elements took the fallback below. `std` must be finite
/// and positive (the caller validates it).
///
/// Every level runs the same blocked body (compiled for each level's lanes):
/// each lane evaluates Box–Muller with polynomial `ln` and `cos` within
/// 2⁻⁴⁶ of the true values, and keeps its `f32` only when that is
/// *certified* — the whole interval `y·(1 ± 2⁻⁴⁰)` rounds to one `f32`.
/// The libm path lies inside that interval whenever the platform `ln` and
/// `cos` are within 2⁻⁴⁴ (glibc documents 1–2 ulp), so it rounds to the
/// same bits. A lane that is not certified, or whose draw is an edge of the
/// derivation (`u1 = 0`, a reduced angle under 2⁻²⁰, a zero, tiny or
/// non-finite `y`), is recomputed by `Normal::sample` itself on its own two
/// draws. The argument is DESIGN.md §14's.
pub fn fill_gaussian_at(lvl: Level, counter: u64, std: f32, out: &mut [f32]) -> usize {
    dispatch!(lvl,
        scalar: gaussian::fill(counter, std, out),
        avx2: x86::fill_gaussian_avx2(counter, std, out),
        avx512: x86::fill_gaussian_avx512(counter, std, out))
}

// ---------------------------------------------------------------------------
// CRC32 (the trailer of every payload stream and every socket frame)
// ---------------------------------------------------------------------------

/// Advances a raw CRC32 state (IEEE 802.3, reflected polynomial
/// `0xEDB88320`; the register *before* the final inversion) over `bytes`.
/// [`crate::pack::Crc32`] wraps this with the `!0` seed and final inversion.
///
/// The scalar body is a slice-by-8 table walk. The x86-64 levels fold 64
/// bytes per iteration with carry-less multiplies when the CPU reports
/// `pclmulqdq` and `sse4.1` (every AVX2 part does; an SSE2-only part without
/// them takes the table). A CRC is a polynomial remainder, exact in any
/// evaluation order, so all paths agree on every input.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    crc32_update_at(level(), state, bytes)
}

/// [`crc32_update`] with an explicit dispatch level.
pub fn crc32_update_at(lvl: Level, state: u32, bytes: &[u8]) -> u32 {
    dispatch!(lvl,
        scalar: scalar::crc32_update(state, bytes),
        avx2: x86::crc32_update_fold(state, bytes))
}

/// Reflected IEEE CRC32 polynomial (bit 31 is the x^0 coefficient).
const CRC_POLY: u32 = 0xEDB8_8320;

/// One bit-step of the reflected CRC register: the residue times x, mod P.
const fn crc_step(r: u32) -> u32 {
    (r >> 1) ^ (CRC_POLY & (r & 1).wrapping_neg())
}

/// Portable scalar bodies — the reference semantics every vector path must
/// reproduce bit-for-bit.
mod scalar {
    use super::{crc_step, FoldSink};
    use crate::coding::level_bits;
    use crate::pack::{BitReader, BitWriter};
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    const ABS_MASK: u32 = 0x7FFF_FFFF;

    /// `CRC_TABLES[k][b]`: the register after byte `b` followed by `k` zero
    /// bytes — slice-by-8 consumes eight input bytes per step with one
    /// lookup each.
    static CRC_TABLES: [[u32; 256]; 8] = {
        let mut t = [[0u32; 256]; 8];
        let mut b = 0;
        while b < 256 {
            let mut r = b as u32;
            let mut bit = 0;
            while bit < 8 {
                r = crc_step(r);
                bit += 1;
            }
            t[0][b] = r;
            b += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut b = 0;
            while b < 256 {
                let prev = t[k - 1][b];
                t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                b += 1;
            }
            k += 1;
        }
        t
    };

    pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
        let t = &CRC_TABLES;
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in tail {
            crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }

    pub fn abs_max_bits(xs: &[f32]) -> u32 {
        let mut m = 0u32;
        for &v in xs {
            m = m.max(v.to_bits() & ABS_MASK);
        }
        m
    }

    pub fn abs_bits_into(xs: &[f32], out: &mut [u32]) {
        for (o, &v) in out.iter_mut().zip(xs) {
            *o = v.to_bits() & ABS_MASK;
        }
    }

    pub fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    }

    #[inline(always)]
    pub fn sum_into(acc: &mut [f32], src: &[f32]) {
        for (a, &d) in acc.iter_mut().zip(src) {
            *a = super::fold_add(*a, d);
        }
    }

    /// The reference order of [`super::gemm_nt`]: per output element one
    /// sequential `mul` + `add` chain from `0.0`, `p` ascending, no
    /// zero-skip.
    pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
        for i in 0..m {
            let arow = &a[i * n..(i + 1) * n];
            for j in 0..k {
                let brow = &b[j * n..(j + 1) * n];
                let mut acc = 0.0f32;
                for p in 0..n {
                    acc += arow[p] * brow[p];
                }
                c[i * k + j] = acc;
            }
        }
    }

    /// The reference order of [`super::gemm_tn`]: the loop
    /// `linalg::matmul_transpose_a` ran before it had a vector body — per
    /// row of `A`, one
    /// `axpy` of that row of `B` into every row `i` of `C` whose
    /// `a[row][i]` is nonzero — over the output rows `rows`.
    pub fn gemm_tn(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        rows: Range<usize>,
    ) {
        c.fill(0.0);
        for row in 0..m {
            let arow = &a[row * k..(row + 1) * k];
            let brow = &b[row * n..(row + 1) * n];
            for (i, crow) in rows.clone().zip(c.chunks_exact_mut(n.max(1))) {
                let av = arow[i];
                if av == 0.0 {
                    continue;
                }
                axpy(crow, av, brow);
            }
        }
    }

    pub fn narrow_to_bytes(values: &[u32], out: &mut [u8]) {
        for (o, &v) in out.iter_mut().zip(values) {
            *o = v as u8;
        }
    }

    pub fn widen_from_bytes(bytes: &[u8], out: &mut [u32]) {
        for (o, &b) in out.iter_mut().zip(bytes) {
            *o = u32::from(b);
        }
    }

    /// Branchless `table.partition_point(|v| *v < x)` for a sorted table.
    /// The probe schedule depends only on `table.len()`, so the AVX2 body
    /// can replay it lane-parallel with identical comparisons.
    pub fn lower_bound(table: &[f32], x: f32) -> usize {
        let mut base = 0usize;
        let mut n = table.len();
        while n > 1 {
            let half = n / 2;
            base += usize::from(table[base + half - 1] < x) * half;
            n -= half;
        }
        base + usize::from(n == 1 && table[base] < x)
    }

    pub fn quantize_sign_mag(table: &[f32], xs: &[f32], inv: f32, out: &mut [u32]) {
        let n = table.len();
        for (o, &v) in out.iter_mut().zip(xs) {
            let x = v.abs() * inv;
            let idx = lower_bound(table, x);
            let mag = if idx == 0 {
                0
            } else if idx >= n {
                (n - 1) as u32
            } else {
                let lo = table[idx - 1];
                let hi = table[idx];
                if (x - lo) <= (hi - x) {
                    (idx - 1) as u32
                } else {
                    idx as u32
                }
            };
            *o = (u32::from(v < 0.0) << 7) | mag;
        }
    }

    pub fn dequant_sign_mag(table: &[f32], codes: &[u32], scale: f32, out: &mut [f32]) {
        for (o, &code) in out.iter_mut().zip(codes) {
            let sign = if code >> 7 == 1 { -1.0f32 } else { 1.0 };
            *o = sign * table[(code & 0x7F) as usize] * scale;
        }
    }

    pub fn dequant_sign_mag_add(table: &[f32], codes: &[u32], scale: f32, out: &mut [f32]) {
        for (o, &code) in out.iter_mut().zip(codes) {
            let sign = if code >> 7 == 1 { -1.0f32 } else { 1.0 };
            *o += sign * table[(code & 0x7F) as usize] * scale;
        }
    }

    pub fn gather_f32(src: &[f32], indices: &[u32], out: &mut [f32]) {
        for (o, &i) in out.iter_mut().zip(indices) {
            *o = src[i as usize];
        }
    }

    /// `2^23`: from here to `2^24` the spacing of `f32` is exactly 1.
    pub const ROUND_MAGIC: f32 = 8_388_608.0;

    /// `2^22`: the bound below which [`floor_small`] is exact.
    pub const FLOOR_LIMIT: f32 = 4_194_304.0;

    /// Widest level code decoded through a value table (`2^8` entries on
    /// the stack); wider codes evaluate the expression per element.
    const TABLE_BITS: u32 = 8;

    /// `⌊x⌋` for `0 ≤ x < 2^22`, as the float and as the integer, without
    /// the libm `floorf` call (or a float → int conversion) per element:
    /// `x + 2^23` lands where the spacing is 1, so the addition itself
    /// rounds `x` to the nearest integer and the subtraction gives it back
    /// exactly; one step down where that rounded up is the floor.
    /// `⌊x⌋ + 2^23` is again exact, and its mantissa field *is* `⌊x⌋`.
    #[inline(always)]
    fn floor_small(x: f32) -> (f32, u32) {
        let nearest = (x + ROUND_MAGIC) - ROUND_MAGIC;
        let floor = if nearest > x { nearest - 1.0 } else { nearest };
        (floor, (floor + ROUND_MAGIC).to_bits() & 0x007F_FFFF)
    }

    /// Quantizes up to eight elements: their sign bits (`v < 0`, LSB first)
    /// and level codes `min(⌊x⌋ + [draw < x − ⌊x⌋], s)` for `x = |v|·s/norm`,
    /// one draw per element in element order. A zero norm yields level 0
    /// everywhere and draws nothing. `x` is never negative (`|v|`, a norm
    /// and `s` are not); a group holding an `x ≥ 2^22`, ∞ or NaN takes the
    /// libm expression.
    #[inline(always)]
    pub fn quantize_group<R: Rng + ?Sized>(
        group: &[f32],
        norm: f32,
        sf: f32,
        s: u32,
        rng: &mut R,
    ) -> (u8, [u32; 8]) {
        let mut sign_byte = 0u8;
        for (i, &v) in group.iter().enumerate() {
            sign_byte |= u8::from(v < 0.0) << i;
        }
        let mut levels = [0u32; 8];
        if norm == 0.0 {
            return (sign_byte, levels);
        }
        // Three straight-line passes, so the arithmetic ones vectorize
        // around the scalar generator.
        let mut scaled = [0f32; 8];
        for (x, &v) in scaled.iter_mut().zip(group) {
            *x = v.abs() / norm * sf;
        }
        let mut draws = [0f32; 8];
        for draw in &mut draws[..group.len()] {
            *draw = rng.gen();
        }
        // Branch-free over the group, so the test itself vectorizes.
        let small = scaled
            .iter()
            .fold(true, |small, &x| small & (x < FLOOR_LIMIT));
        for ((level, &x), &draw) in levels.iter_mut().zip(&scaled).zip(&draws) {
            let (floor, whole) = if small {
                floor_small(x)
            } else {
                (x.floor(), x.floor() as u32)
            };
            *level = (whole + u32::from(draw < x - floor)).min(s);
        }
        (sign_byte, levels)
    }

    /// The level quantizer's reference body over a precomputed norm: one
    /// [`quantize_group`] per eight elements, packed as it goes.
    pub fn quantize_levels(
        xs: &[f32],
        norm: f32,
        s: u32,
        rng: &mut StdRng,
        signs: &mut [u8],
        levels: &mut [u8],
    ) {
        let sf = s as f32;
        let mut level_out = BitWriter::new(levels, level_bits(s));
        let (groups, tail) = xs.as_chunks::<8>();
        for (group, sign_out) in groups.iter().zip(signs.iter_mut()) {
            let (sign_byte, codes) = quantize_group(group, norm, sf, s, rng);
            *sign_out = sign_byte;
            level_out.write8(&codes);
        }
        let (sign_byte, codes) = quantize_group(tail, norm, sf, s, rng);
        if let Some(sign_out) = signs.get_mut(groups.len()) {
            *sign_out = sign_byte;
        }
        level_out.finish(&codes[..tail.len()]);
    }

    /// The level decode's reference body. Codes at most [`TABLE_BITS`] wide
    /// go through a table holding `norm * l as f32 / s` for every possible
    /// code (including codes above `s`, which a well-formed stream never
    /// carries).
    pub fn dequantize_levels(
        signs: &[u8],
        levels: &[u8],
        bits: u32,
        s: u32,
        norm: f32,
        count: usize,
        out: FoldSink<'_>,
    ) {
        let sf = s as f32;
        if bits <= TABLE_BITS {
            let mut table = [0f32; 1 << TABLE_BITS];
            for (level, value) in table.iter_mut().enumerate().take(1 << bits) {
                *value = norm * level as f32 / sf;
            }
            decode_levels(signs, levels, bits, count, out, |code| {
                table[code as usize % table.len()]
            });
        } else {
            decode_levels(signs, levels, bits, count, out, |code| {
                norm * code as f32 / sf
            });
        }
    }

    /// The decode walk of [`dequantize_levels`] over a code → magnitude map.
    fn decode_levels(
        signs: &[u8],
        levels: &[u8],
        bits: u32,
        count: usize,
        mut out: FoldSink<'_>,
        value: impl Fn(u32) -> f32,
    ) {
        let mut reader = BitReader::new(levels, bits);
        let mut decode_group = |sign_byte: u8| -> [f32; 8] {
            let codes = reader.read8();
            std::array::from_fn(|i| {
                let sign_bit = u32::from(sign_byte >> i & 1) << 31;
                f32::from_bits(value(codes[i]).to_bits() ^ sign_bit)
            })
        };
        let (full, last) = signs.split_at(count / 8);
        for &sign_byte in full {
            out.put(&decode_group(sign_byte));
        }
        if let [sign_byte] = *last {
            out.put(&decode_group(sign_byte)[..count % 8]);
        }
    }
}

/// The blocked Box–Muller body of [`super::fill_gaussian_at`]. Everything is
/// `#[inline(always)]`, so the AVX2 and AVX-512 forwarders compile the same
/// code for their lanes; the passes over a block's lanes are straight-line,
/// so they vectorize at every level. `mul` and `add` only, never fused.
mod gaussian {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rand_distr::{Distribution, Normal};

    /// Lanes per block.
    const LANES: usize = 64;

    /// `(2l + 1)·γ` and `(2l + 2)·γ`: the counter offsets of lane `l`'s two
    /// draws within a block.
    const STEPS: [[u64; LANES]; 2] = {
        let mut t = [[0; LANES]; 2];
        let mut l = 0;
        while l < LANES {
            t[0][l] = (2 * l as u64 + 1).wrapping_mul(StdRng::GAMMA);
            t[1][l] = (2 * l as u64 + 2).wrapping_mul(StdRng::GAMMA);
            l += 1;
        }
        t
    };

    /// The certificate's relative half-width.
    const TAU: f64 = 1.0 / (1u64 << 40) as f64;

    /// Below this `|y|`, `|y|·τ` is no longer a normal `f64`.
    const TINY: f64 = f64::MIN_POSITIVE / TAU;

    /// Reduced angles below this are declined: there `cos θ` is a sine of
    /// a tiny argument, whose relative error the reduction does not bound.
    pub const MIN_REDUCED: f64 = 1.0 / (1u64 << 20) as f64;

    /// `2⁻⁵³`, the scale of the shim's 53-bit uniform.
    const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

    /// A `u64` of at most `2⁵³` as an `f64`, exactly, without an int →
    /// float instruction (AVX2 has none for 64-bit lanes): its
    /// high 22 and low 32 bits become the mantissas of `2⁸⁴ + hi·2³²` and
    /// `2⁵² + lo`, and the sum of those minus `2⁸⁴ + 2⁵²` is exact.
    #[inline(always)]
    fn exact_f64(v: u64) -> f64 {
        const BIAS: f64 = 19_342_813_118_337_666_422_669_312.0; // 2⁸⁴ + 2⁵²
        let hi = f64::from_bits(0x4530_0000_0000_0000 | (v >> 32));
        let lo = f64::from_bits(0x4330_0000_0000_0000 | (v & 0xFFFF_FFFF));
        (hi - BIAS) + lo
    }

    /// `ln x` for a normal `x > 0` (within 2⁻⁴⁹ of libm's, relative, on
    /// `1 − u1`'s range): `x = 2ᵏ·m` with `m ∈ [√½, √2)`, `ln m =
    /// 2·atanh(s)` for `s = (m − 1)/(m + 1)` (|s| ≤ 0.172) by its series
    /// through `s¹⁷`, and `k·ln 2` from a split whose high part times `k` is
    /// exact.
    #[inline(always)]
    pub fn ln(x: f64) -> f64 {
        const SQRT_HALF: u64 = 0x3FE6_A09E_667F_3BCD;
        // fdlibm's split of ln 2: the high part ends in 21 zero bits.
        const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
        const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
        // Adding `1.0 − √½` (as bits) carries into the exponent exactly
        // when the mantissa is ≥ √2; the low bits plus `√½` are then `m`.
        let ix = x.to_bits().wrapping_add(0x3FF0_0000_0000_0000 - SQRT_HALF);
        let m = f64::from_bits((ix & 0x000F_FFFF_FFFF_FFFF) + SQRT_HALF);
        // `k` as a float: the biased exponent in the mantissa of 2⁵², less
        // 2⁵² and the bias.
        let k = f64::from_bits(0x4330_0000_0000_0000 | (ix >> 52)) - 4_503_599_627_371_519.0;
        let f = m - 1.0;
        let s = f / (2.0 + f);
        let s2 = s * s;
        let series = 2.0 / 3.0
            + s2 * (2.0 / 5.0
                + s2 * (2.0 / 7.0
                    + s2 * (2.0 / 9.0
                        + s2 * (2.0 / 11.0
                            + s2 * (2.0 / 13.0 + s2 * (2.0 / 15.0 + s2 * (2.0 / 17.0)))))));
        let ln_m = s * (2.0 + s2 * series);
        k * LN2_HI + (k * LN2_LO + ln_m)
    }

    /// `cos θ` for `0 ≤ θ < 2π` (within 2⁻⁴⁹ of libm's, relative, where the
    /// reduced angle is at least [`MIN_REDUCED`]) and that angle: `θ =
    /// j·π/2 + r` with `j` rounded by the `1.5·2⁵²` shift and `r` by a
    /// three-part Cody–Waite reduction (each part times `j ≤ 4` is exact),
    /// then Taylor's `sin r` through `r¹⁵` or `cos r` through `r¹⁴` on
    /// `|r| ≤ π/4` and the quadrant's sign.
    #[inline(always)]
    pub fn cos(theta: f64) -> (f64, f64) {
        const SHIFT: f64 = 6_755_399_441_055_744.0;
        // fdlibm's three-part split of π/2: each part ends in 20 or more
        // zero bits, so `j` times it is exact.
        const PIO2_1: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
        const PIO2_2: f64 = f64::from_bits(0x3DD0_B461_1A60_0000);
        const PIO2_3: f64 = f64::from_bits(0x3BA3_198A_2E00_0000);
        let shifted = theta * std::f64::consts::FRAC_2_PI + SHIFT;
        let j = shifted - SHIFT;
        let quadrant = shifted.to_bits() & 3;
        let r = ((theta - j * PIO2_1) - j * PIO2_2) - j * PIO2_3;
        let r2 = r * r;
        let sin = r + r
            * r2
            * (-1.0 / 6.0
                + r2 * (1.0 / 120.0
                    + r2 * (-1.0 / 5040.0
                        + r2 * (1.0 / 362_880.0
                            + r2 * (-1.0 / 39_916_800.0
                                + r2 * (1.0 / 6_227_020_800.0
                                    + r2 * (-1.0 / 1_307_674_368_000.0)))))));
        let cos = 1.0
            + r2 * (-1.0 / 2.0
                + r2 * (1.0 / 24.0
                    + r2 * (-1.0 / 720.0
                        + r2 * (1.0 / 40_320.0
                            + r2 * (-1.0 / 3_628_800.0
                                + r2 * (1.0 / 479_001_600.0 + r2 * (-1.0 / 87_178_291_200.0)))))));
        // Quadrants 0..4 give cos r, −sin r, −cos r, sin r.
        let v = if quadrant & 1 == 0 { cos } else { sin };
        let negate = ((quadrant + 1) & 2) << 62;
        (f64::from_bits(v.to_bits() ^ negate), r)
    }

    /// One block: lane `l`'s `f32` sample of the generator at `base +
    /// 2l·γ`, and whether it is certified. Four straight-line passes over
    /// the lanes — the draws, `ln`, `cos`, the shim's finish — because one
    /// fused pass vectorizes to half the speed.
    #[inline(always)]
    fn block(base: u64, std: f64, y: &mut [f32; LANES], certified: &mut [bool; LANES]) {
        let (mut x, mut theta) = ([0f64; LANES], [0f64; LANES]);
        for l in 0..LANES {
            let a = StdRng::mix(base.wrapping_add(STEPS[0][l]));
            let b = StdRng::mix(base.wrapping_add(STEPS[1][l]));
            // `1 − u1 = (2⁵³ − (a >> 11))·2⁻⁵³`, exactly, as the shim's
            // subtraction also is; `max(MIN_POSITIVE)` never binds.
            x[l] = exact_f64((1 << 53) - (a >> 11)) * UNIT;
            theta[l] = 2.0 * std::f64::consts::PI * (exact_f64(b >> 11) * UNIT);
        }
        let mut log = [0f64; LANES];
        for l in 0..LANES {
            log[l] = ln(x[l]);
        }
        let (mut c, mut r) = ([0f64; LANES], [0f64; LANES]);
        for l in 0..LANES {
            (c[l], r[l]) = cos(theta[l]);
        }
        for l in 0..LANES {
            // The shim's sequence, operation for operation.
            let v = 0.0 + std * ((-2.0 * log[l]).sqrt() * c[l]);
            let (lo, hi) = (v - v.abs() * TAU, v + v.abs() * TAU);
            y[l] = v as f32;
            certified[l] = x[l] < 1.0
                && r[l].abs() >= MIN_REDUCED
                && v.abs() >= TINY
                && v.abs() <= f64::MAX
                && (lo as f32).to_bits() == (hi as f32).to_bits();
        }
    }

    /// The reference sample of the generator at `state`.
    #[cold]
    #[inline(never)]
    fn fallback(state: u64, std: f32) -> f32 {
        let normal = Normal::new(0.0f32, std).expect("std is validated by the caller");
        normal.sample(&mut StdRng::seed_from_u64(state))
    }

    /// [`super::fill_gaussian_at`]'s body: a block per 64 elements (the
    /// last one partly used), its certified lanes copied out and every other
    /// element recomputed by [`fallback`].
    #[inline(always)]
    pub fn fill(counter: u64, std: f32, out: &mut [f32]) -> usize {
        let stdf = f64::from(std);
        let mut fallbacks = 0;
        let mut base = counter;
        let (mut y, mut certified) = ([0f32; LANES], [false; LANES]);
        for chunk in out.chunks_mut(LANES) {
            block(base, stdf, &mut y, &mut certified);
            chunk.copy_from_slice(&y[..chunk.len()]);
            if !certified.iter().fold(true, |all, &c| all & c) {
                for (l, slot) in chunk.iter_mut().enumerate() {
                    if !certified[l] {
                        fallbacks += 1;
                        let state = base.wrapping_add((2 * l as u64).wrapping_mul(StdRng::GAMMA));
                        *slot = fallback(state, std);
                    }
                }
            }
            base = base.wrapping_add((2 * LANES as u64).wrapping_mul(StdRng::GAMMA));
        }
        fallbacks
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{scalar, squares, Fold, FoldSink};
    use crate::coding::level_bits;
    use crate::pack::BitWriter;
    use rand::rngs::StdRng;
    use std::arch::x86_64::*;
    use std::ops::Range;

    const ABS_MASK: i32 = 0x7FFF_FFFF;

    /// The portable Gaussian body, compiled for AVX2: four `f64` lanes per
    /// vector.
    #[target_feature(enable = "avx2")]
    pub fn fill_gaussian_avx2(counter: u64, std: f32, out: &mut [f32]) -> usize {
        super::gaussian::fill(counter, std, out)
    }

    /// The same body at eight `f64` lanes per vector.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub fn fill_gaussian_avx512(counter: u64, std: f32, out: &mut [f32]) -> usize {
        super::gaussian::fill(counter, std, out)
    }

    #[target_feature(enable = "avx2")]
    pub fn abs_max_bits_avx2(xs: &[f32]) -> u32 {
        let mask = _mm256_set1_epi32(ABS_MASK);
        let mut m = _mm256_setzero_si256();
        let mut chunks = xs.chunks_exact(8);
        for c in chunks.by_ref() {
            // SAFETY: `c` is 8 f32s = 32 readable bytes; loadu allows any
            // alignment.
            let v = unsafe { _mm256_loadu_si256(c.as_ptr().cast()) };
            m = _mm256_max_epu32(m, _mm256_and_si256(v, mask));
        }
        let lo = _mm256_castsi256_si128(m);
        let hi = _mm256_extracti128_si256::<1>(m);
        let mut q = _mm_max_epu32(lo, hi);
        q = _mm_max_epu32(q, _mm_srli_si128::<8>(q));
        q = _mm_max_epu32(q, _mm_srli_si128::<4>(q));
        let mut best = _mm_cvtsi128_si32(q) as u32;
        best = best.max(scalar::abs_max_bits(chunks.remainder()));
        best
    }

    /// The portable abs-bits loop at eight lanes per vector.
    #[target_feature(enable = "avx2")]
    pub fn abs_bits_into_avx2(xs: &[f32], out: &mut [u32]) {
        scalar::abs_bits_into(xs, out);
    }

    /// The portable `axpy` loop at eight lanes per vector.
    #[target_feature(enable = "avx2")]
    pub fn axpy_avx2(y: &mut [f32], a: f32, x: &[f32]) {
        scalar::axpy(y, a, x);
    }

    /// The portable `axpy` loop at sixteen lanes per vector.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub fn axpy_avx512(y: &mut [f32], a: f32, x: &[f32]) {
        scalar::axpy(y, a, x);
    }

    /// `super::sum_into`'s portable loop at eight lanes per vector.
    #[target_feature(enable = "avx2")]
    pub fn sum_into_avx2(acc: &mut [f32], src: &[f32]) {
        scalar::sum_into(acc, src);
    }

    /// The same loop at sixteen lanes per vector.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub fn sum_into_avx512(acc: &mut [f32], src: &[f32]) {
        scalar::sum_into(acc, src);
    }

    /// Reduction steps per transposed `A` panel: the panel is a stack
    /// buffer of `GEMM_P_CHUNK` × 16 floats — 16 KiB, whatever `n` is.
    const GEMM_P_CHUNK: usize = 256;

    #[target_feature(enable = "avx")]
    fn load8(lanes: &[f32; 8]) -> __m256 {
        debug_assert_eq!(size_of_val(lanes), size_of::<__m256>());
        // SAFETY: the array type guarantees 8 f32s = 32 readable bytes;
        // loadu allows any alignment.
        unsafe { _mm256_loadu_ps(lanes.as_ptr()) }
    }

    #[target_feature(enable = "avx")]
    fn store8(lanes: &mut [f32; 8], v: __m256) {
        debug_assert_eq!(size_of_val(lanes), size_of::<__m256>());
        // SAFETY: the array type guarantees 8 f32s = 32 writable bytes;
        // storeu allows any alignment.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) }
    }

    #[target_feature(enable = "avx512f")]
    fn load16(lanes: &[f32; 16]) -> __m512 {
        debug_assert_eq!(size_of_val(lanes), size_of::<__m512>());
        // SAFETY: the array type guarantees 16 f32s = 64 readable bytes;
        // loadu allows any alignment.
        unsafe { _mm512_loadu_ps(lanes.as_ptr()) }
    }

    #[target_feature(enable = "avx512f")]
    fn store16(lanes: &mut [f32; 16], v: __m512) {
        debug_assert_eq!(size_of_val(lanes), size_of::<__m512>());
        // SAFETY: the array type guarantees 16 f32s = 64 writable bytes;
        // storeu allows any alignment.
        unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), v) }
    }

    /// Every NaN lane of `v` as the default quiet NaN.
    #[target_feature(enable = "avx")]
    fn quiet8(v: __m256) -> __m256 {
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
        _mm256_blendv_ps(v, _mm256_set1_ps(f32::NAN), nan)
    }

    /// [`quiet8`] at sixteen lanes.
    #[target_feature(enable = "avx512f")]
    fn quiet16(v: __m512) -> __m512 {
        let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v);
        _mm512_mask_blend_ps(nan, v, _mm512_set1_ps(f32::NAN))
    }

    /// `gemm_nt`'s row panels at one lane width, stamped once per width so
    /// each body is compiled for its own level: `$panels::<V, J>` runs
    /// `LANES·V`-row panels from row `i0` while one fits and returns the
    /// first row it left, each pass carrying `J` rows of `B` against the
    /// panel in `J·V` accumulators.
    macro_rules! gemm_nt_lanes {
        ($panels:ident, $block:ident, $features:literal, $lanes:literal,
         $zero:ident, $set1:ident, $add:ident, $mul:ident,
         $load:ident, $store:ident, $quiet:ident) => {
            /// `c (LANES·V × k) = a · bᵀ` panel by panel. The panel of `A`
            /// is copied transposed (`panel[p][v][l] = a[LANES·v + l][p0 +
            /// p]`) one `p`-chunk at a time, so a step of the reduction is
            /// one contiguous vector load per `LANES` rows, and `B` is
            /// streamed once per panel instead of once per row of `A`.
            /// Between chunks the partial sums rest in `c` itself (an f32
            /// store and reload is exact), so the only scratch is the
            /// panel.
            #[target_feature(enable = $features)]
            #[allow(clippy::too_many_arguments)]
            fn $panels<const V: usize, const J: usize>(
                a: &[f32],
                b: &[f32],
                c: &mut [f32],
                m: usize,
                n: usize,
                k: usize,
                mut i0: usize,
            ) -> usize {
                let rows = $lanes * V;
                let mut panel = [[[0.0f32; $lanes]; V]; GEMM_P_CHUNK];
                while m - i0 >= rows {
                    let (a, c) = (&a[i0 * n..][..rows * n], &mut c[i0 * k..][..rows * k]);
                    let mut p0 = 0;
                    // Runs once for n == 0 too: every element is then the
                    // empty chain's 0.0, which still has to overwrite what
                    // `c` held.
                    loop {
                        let steps = (n - p0).min(GEMM_P_CHUNK);
                        for r in 0..rows {
                            let arow = &a[r * n + p0..][..steps];
                            for (slot, &x) in panel.iter_mut().zip(arow) {
                                slot[r / $lanes][r % $lanes] = x;
                            }
                        }
                        let panel = &panel[..steps];
                        let mut j0 = 0;
                        while k - j0 >= J {
                            $block::<V, J>(panel, b, c, j0, p0, n, k);
                            j0 += J;
                        }
                        while j0 < k {
                            $block::<V, 1>(panel, b, c, j0, p0, n, k);
                            j0 += 1;
                        }
                        p0 += steps;
                        if p0 >= n {
                            break;
                        }
                    }
                    i0 += rows;
                }
                i0
            }

            /// Advances columns `j0 .. j0 + J` of the panel's `c` by the
            /// panel's `p`-chunk: from `0.0` when the chunk starts at `p0 ==
            /// 0`, from the partial sums in `c` otherwise. `mul` then `add`,
            /// operands in the reference's order, never fused.
            #[target_feature(enable = $features)]
            #[inline]
            fn $block<const V: usize, const J: usize>(
                panel: &[[[f32; $lanes]; V]],
                b: &[f32],
                c: &mut [f32],
                j0: usize,
                p0: usize,
                n: usize,
                k: usize,
            ) {
                let mut brows: [&[f32]; J] = [&[]; J];
                for (jj, brow) in brows.iter_mut().enumerate() {
                    *brow = &b[(j0 + jj) * n + p0..][..panel.len()];
                }
                let mut acc = [[$zero(); V]; J];
                let mut lanes = [0.0f32; $lanes];
                if p0 > 0 {
                    for (jj, accj) in acc.iter_mut().enumerate() {
                        for (v, accjv) in accj.iter_mut().enumerate() {
                            for (l, lane) in lanes.iter_mut().enumerate() {
                                *lane = c[($lanes * v + l) * k + j0 + jj];
                            }
                            *accjv = $load(&lanes);
                        }
                    }
                }
                for (p, slot) in panel.iter().enumerate() {
                    let mut av = [$zero(); V];
                    for (avv, rows) in av.iter_mut().zip(slot) {
                        *avv = $load(rows);
                    }
                    for (accj, brow) in acc.iter_mut().zip(&brows) {
                        let bv = $set1(brow[p]);
                        for (accjv, &avv) in accj.iter_mut().zip(&av) {
                            *accjv = $add(*accjv, $mul(avv, bv));
                        }
                    }
                }
                // Which NaN survives `acc + a·b` is the compiler's operand
                // order, and that differs between panel shapes; a row's
                // panel depends on where its pool range starts. Every NaN
                // leaves as the default quiet NaN, so no width shows in the
                // bits.
                for (jj, accj) in acc.iter().enumerate() {
                    for (v, &accjv) in accj.iter().enumerate() {
                        $store(&mut lanes, $quiet(accjv));
                        for (l, &lane) in lanes.iter().enumerate() {
                            c[($lanes * v + l) * k + j0 + jj] = lane;
                        }
                    }
                }
            }
        };
    }

    gemm_nt_lanes!(
        gemm_nt_panels8,
        gemm_nt_block8,
        "avx2",
        8,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_add_ps,
        _mm256_mul_ps,
        load8,
        store8,
        quiet8
    );

    gemm_nt_lanes!(
        gemm_nt_panels16,
        gemm_nt_block16,
        "avx512f,avx512dq,avx512vl",
        16,
        _mm512_setzero_ps,
        _mm512_set1_ps,
        _mm512_add_ps,
        _mm512_mul_ps,
        load16,
        store16,
        quiet16
    );

    /// Lanes across rows of `A`: 16-row panels (two vectors a step, four
    /// rows of `B` a pass: eight independent chains hide the 4-cycle add
    /// latency), then one 8-row panel, then the reference loop for the last
    /// `m % 8` rows (and for all of a call with `m < 8`). Lane `l` of a
    /// panel's accumulator for column `j` *is* the scalar `acc` of the
    /// panel's `c[l][j]`: it starts at `0.0` and takes `acc + a[l][p] *
    /// b[j][p]` for `p = 0, 1, …` in that order.
    #[target_feature(enable = "avx2")]
    pub fn gemm_nt_avx2(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
        let i0 = gemm_nt_panels8::<2, 4>(a, b, c, m, n, k, 0);
        let i0 = gemm_nt_panels8::<1, 4>(a, b, c, m, n, k, i0);
        scalar::gemm_nt(&a[i0 * n..], b, &mut c[i0 * k..], m - i0, n, k);
    }

    /// [`gemm_nt_avx2`] at sixteen lanes: 16-row panels of one vector a
    /// step against eight rows of `B` a pass, then the AVX2 8-row panel and
    /// the reference loop for what is left.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub fn gemm_nt_avx512(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
        let i0 = gemm_nt_panels16::<1, 8>(a, b, c, m, n, k, 0);
        let i0 = gemm_nt_panels8::<1, 4>(a, b, c, m, n, k, i0);
        scalar::gemm_nt(&a[i0 * n..], b, &mut c[i0 * k..], m - i0, n, k);
    }

    /// Rows of `A` one compacted list covers: the list is a stack buffer of
    /// `GEMM_TN_CHUNK` values and row slices (5 KiB), whatever `m` is.
    const GEMM_TN_CHUNK: usize = 256;

    /// `gemm_tn` at one lane width, stamped once per width. For each
    /// output row `i` the nonzero `a[row][i]` of a `GEMM_TN_CHUNK`-row chunk
    /// are listed in ascending row order beside their rows of `B`; then
    /// `8·LANES`-column strips (eight accumulators: enough independent
    /// chains to cover the add latency), `LANES`-column strips, any
    /// narrower strips handed on, and the last columns each run every
    /// element's chain over that list, holding it in registers and storing
    /// it once. The first chunk starts each chain at `0.0`; later chunks
    /// resume from the partial sums in `c` (an f32 store and reload is
    /// exact). With `n < LANES` no strip fits and the whole call goes to
    /// the narrower body.
    macro_rules! gemm_tn_lanes {
        ($(#[$doc:meta])* $name:ident, $strips:ident, $features:literal, $lanes:literal,
         $narrow:path, $zero:ident, $set1:ident, $add:ident, $mul:ident,
         $load:ident, $store:ident $(, then $rest:ident)?) => {
            $(#[$doc])*
            #[target_feature(enable = $features)]
            pub fn $name(
                a: &[f32],
                b: &[f32],
                c: &mut [f32],
                m: usize,
                k: usize,
                n: usize,
                c_rows: Range<usize>,
            ) {
                if n < $lanes {
                    return $narrow(a, b, c, m, k, n, c_rows);
                }
                let mut vals = [0.0f32; GEMM_TN_CHUNK];
                let mut rows: [&[f32]; GEMM_TN_CHUNK] = [&[]; GEMM_TN_CHUNK];
                let mut r0 = 0;
                // Runs once for m == 0 too: every element is then the empty
                // chain's 0.0, which still has to overwrite what `c` held.
                loop {
                    let r1 = m.min(r0 + GEMM_TN_CHUNK);
                    let resume = r0 > 0;
                    for (i, crow) in c_rows.clone().zip(c.chunks_exact_mut(n)) {
                        let mut len = 0;
                        for row in r0..r1 {
                            let av = a[row * k + i];
                            if av == 0.0 {
                                continue;
                            }
                            vals[len] = av;
                            rows[len] = &b[row * n..][..n];
                            len += 1;
                        }
                        let (vals, rows) = (&vals[..len], &rows[..len]);
                        let j0 = $strips::<8>(vals, rows, crow, 0, resume);
                        let j0 = $strips::<1>(vals, rows, crow, j0, resume);
                        $(let j0 = $rest::<1>(vals, rows, crow, j0, resume);)?
                        for (j, out) in crow.iter_mut().enumerate().skip(j0) {
                            let mut acc = if resume { *out } else { 0.0 };
                            for (&av, brow) in vals.iter().zip(rows) {
                                acc += av * brow[j];
                            }
                            *out = acc;
                        }
                    }
                    r0 = r1;
                    if r0 >= m {
                        break;
                    }
                }
            }

            /// Runs the chains of `crow`'s `LANES·V`-column strips from
            /// column `j0` on while a whole strip fits; returns the first
            /// column it left. Lane `l` of accumulator `v` *is* the
            /// reference's `c[i][j + LANES·v + l]`: `mul` then `add`,
            /// operands in `axpy`'s order, never fused.
            #[target_feature(enable = $features)]
            #[inline]
            fn $strips<const V: usize>(
                vals: &[f32],
                rows: &[&[f32]],
                crow: &mut [f32],
                mut j0: usize,
                resume: bool,
            ) -> usize {
                while crow.len() - j0 >= $lanes * V {
                    let (out, _) = crow[j0..j0 + $lanes * V].as_chunks_mut::<$lanes>();
                    let mut acc = [$zero(); V];
                    if resume {
                        for (accv, lanes) in acc.iter_mut().zip(out.iter()) {
                            *accv = $load(lanes);
                        }
                    }
                    for (&av, brow) in vals.iter().zip(rows) {
                        let av = $set1(av);
                        let (strip, _) = brow[j0..j0 + $lanes * V].as_chunks::<$lanes>();
                        for (accv, lanes) in acc.iter_mut().zip(strip) {
                            *accv = $add(*accv, $mul(av, $load(lanes)));
                        }
                    }
                    for (lanes, &accv) in out.iter_mut().zip(&acc) {
                        $store(lanes, accv);
                    }
                    j0 += $lanes * V;
                }
                j0
            }
        };
    }

    gemm_tn_lanes!(
        /// Eight columns a vector: 64- then 8-column strips; `n < 8` is
        /// the reference.
        gemm_tn_avx2, gemm_tn_strips8, "avx2", 8, scalar::gemm_tn,
        _mm256_setzero_ps, _mm256_set1_ps, _mm256_add_ps, _mm256_mul_ps, load8, store8
    );

    gemm_tn_lanes!(
        /// Sixteen columns a vector: 128- then 16-column strips, then one
        /// AVX2 8-column strip; `n < 16` is the AVX2 body.
        gemm_tn_avx512, gemm_tn_strips16, "avx512f,avx512dq,avx512vl", 16, gemm_tn_avx2,
        _mm512_setzero_ps, _mm512_set1_ps, _mm512_add_ps, _mm512_mul_ps, load16, store16,
        then gemm_tn_strips8
    );

    #[target_feature(enable = "avx2")]
    pub fn narrow_to_bytes_avx2(values: &[u32], out: &mut [u8]) {
        let mask = _mm256_set1_epi32(0xFF);
        // packs/packus interleave their operands per 128-bit lane; this
        // permutation restores source order on the packed bytes.
        let fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let n = values.len();
        let mut i = 0;
        while i + 32 <= n {
            // SAFETY: i + 32 <= n bounds the four 32-byte loads and the
            // 32-byte store (out.len() == values.len()).
            unsafe {
                let p = values.as_ptr().add(i);
                let v0 = _mm256_and_si256(_mm256_loadu_si256(p.cast()), mask);
                let v1 = _mm256_and_si256(_mm256_loadu_si256(p.add(8).cast()), mask);
                let v2 = _mm256_and_si256(_mm256_loadu_si256(p.add(16).cast()), mask);
                let v3 = _mm256_and_si256(_mm256_loadu_si256(p.add(24).cast()), mask);
                let w = _mm256_packus_epi16(_mm256_packs_epi32(v0, v1), _mm256_packs_epi32(v2, v3));
                let w = _mm256_permutevar8x32_epi32(w, fix);
                _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), w);
            }
            i += 32;
        }
        scalar::narrow_to_bytes(&values[i..], &mut out[i..]);
    }

    /// The portable widening loop at eight lanes per vector.
    #[target_feature(enable = "avx2")]
    pub fn widen_from_bytes_avx2(bytes: &[u8], out: &mut [u32]) {
        scalar::widen_from_bytes(bytes, out);
    }

    /// Lane-parallel replay of the scalar branchless lower bound over an
    /// arbitrary-size table: same probe schedule, same `<` comparisons,
    /// one hardware gather per probe.
    #[target_feature(enable = "avx2")]
    fn quantize_sign_mag_avx2_generic(table: &[f32], xs: &[f32], inv: f32, out: &mut [u32]) {
        let n = table.len();
        let abs_mask = _mm256_set1_ps(f32::from_bits(0x7FFF_FFFF));
        let invv = _mm256_set1_ps(inv);
        let fzero = _mm256_setzero_ps();
        let izero = _mm256_setzero_si256();
        let ione = _mm256_set1_epi32(1);
        let nm1 = _mm256_set1_epi32((n - 1) as i32);
        let sign_bit = _mm256_set1_epi32(0x80);
        let len = xs.len();
        let mut i = 0;
        while i + 8 <= len {
            // SAFETY: i + 8 <= len bounds the 32-byte load; every gather
            // index stays in 0..table.len() by the lower-bound invariant
            // (base + rem <= table.len()) and the min/max clamps below.
            unsafe {
                let v = _mm256_loadu_ps(xs.as_ptr().add(i));
                let x = _mm256_mul_ps(_mm256_and_ps(v, abs_mask), invv);
                let mut base = izero;
                let mut rem = n;
                while rem > 1 {
                    let half = rem / 2;
                    let probe = _mm256_add_epi32(base, _mm256_set1_epi32((half - 1) as i32));
                    let t = _mm256_i32gather_ps::<4>(table.as_ptr(), probe);
                    let lt = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(t, x));
                    base = _mm256_sub_epi32(
                        base,
                        _mm256_and_si256(lt, _mm256_set1_epi32(-(half as i32))),
                    );
                    rem -= half;
                }
                let t = _mm256_i32gather_ps::<4>(table.as_ptr(), base);
                let lt = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(t, x));
                // lt is 0 or -1 per lane; idx = base + (table[base] < x).
                let idx = _mm256_sub_epi32(base, lt);
                // Midpoint tie rule on the clamped neighbours.
                let lo_idx = _mm256_sub_epi32(_mm256_max_epi32(idx, ione), ione);
                let hi_idx = _mm256_min_epi32(idx, nm1);
                let lo = _mm256_i32gather_ps::<4>(table.as_ptr(), lo_idx);
                let hi = _mm256_i32gather_ps::<4>(table.as_ptr(), hi_idx);
                let take_lo = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(
                    _mm256_sub_ps(x, lo),
                    _mm256_sub_ps(hi, x),
                ));
                // take_lo is -1 to pick idx-1, 0 to keep idx.
                let mut mag = _mm256_add_epi32(idx, take_lo);
                // idx >= n  ->  n-1 ; idx == 0  ->  0 (the two are exclusive).
                let ge_n = _mm256_cmpgt_epi32(idx, nm1);
                mag = _mm256_blendv_epi8(mag, nm1, ge_n);
                mag = _mm256_andnot_si256(_mm256_cmpeq_epi32(idx, izero), mag);
                let neg = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(v, fzero));
                let code = _mm256_or_si256(_mm256_and_si256(neg, sign_bit), mag);
                _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), code);
            }
            i += 8;
        }
        scalar::quantize_sign_mag(table, &xs[i..], inv, &mut out[i..]);
    }

    /// The 128-entry specialization (the 8-bit quantizer's code-book size).
    ///
    /// The probe schedule for `n = 128` is fixed: strides 64, 32, 16, 8, 4,
    /// 2, 1, then the final `rem == 1` probe. The first four probes have at
    /// most 8 distinct candidate positions (`base` is a multiple of the
    /// stride), so instead of gathering, the candidate table values are
    /// pre-loaded once and each lane *selects* its probe with a cross-lane
    /// permute keyed on `base >> log2(stride)`. The selected values are
    /// exactly the table entries the scalar search reads, and every
    /// comparison is the same `<` on the same operands, so bit identity is
    /// preserved; only four of the eight search probes still need a
    /// hardware gather, which roughly halves the latency-bound critical
    /// path per vector.
    #[target_feature(enable = "avx2")]
    fn quantize_sign_mag_avx2_128(table: &[f32], xs: &[f32], inv: f32, out: &mut [u32]) {
        debug_assert_eq!(table.len(), 128);
        let abs_mask = _mm256_set1_ps(f32::from_bits(0x7FFF_FFFF));
        let invv = _mm256_set1_ps(inv);
        let fzero = _mm256_setzero_ps();
        let izero = _mm256_setzero_si256();
        let ione = _mm256_set1_epi32(1);
        let nm1 = _mm256_set1_epi32(127);
        let sign_bit = _mm256_set1_epi32(0x80);
        // Probe candidates for the first four steps. Step 1 probes
        // table[63] for every lane; step k probes base + stride - 1 where
        // base ranges over multiples of 2*stride-ish positions listed here.
        let cand1 = _mm256_set1_ps(table[63]);
        let cand2 = _mm256_setr_ps(
            table[31], table[95], table[31], table[95], table[31], table[95], table[31], table[95],
        );
        let cand3 = _mm256_setr_ps(
            table[15], table[47], table[79], table[111], table[15], table[47], table[79],
            table[111],
        );
        let cand4 = _mm256_setr_ps(
            table[7], table[23], table[39], table[55], table[71], table[87], table[103], table[119],
        );
        let len = xs.len();
        let mut i = 0;
        while i + 8 <= len {
            // SAFETY: i + 8 <= len bounds the 32-byte load and store; every
            // gather index stays in 0..128 by the lower-bound invariant and
            // the min/max clamps below.
            unsafe {
                let v = _mm256_loadu_ps(xs.as_ptr().add(i));
                let x = _mm256_mul_ps(_mm256_and_ps(v, abs_mask), invv);
                // Step 1: probe table[63]; base += 64 where table[63] < x.
                let lt = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(cand1, x));
                let mut base = _mm256_and_si256(lt, _mm256_set1_epi32(64));
                // Step 2: probe table[base + 31]; base in {0, 64}.
                let t = _mm256_permutevar8x32_ps(cand2, _mm256_srli_epi32::<6>(base));
                let lt = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(t, x));
                base = _mm256_sub_epi32(base, _mm256_and_si256(lt, _mm256_set1_epi32(-32)));
                // Step 3: probe table[base + 15]; base in {0, 32, 64, 96}.
                let t = _mm256_permutevar8x32_ps(cand3, _mm256_srli_epi32::<5>(base));
                let lt = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(t, x));
                base = _mm256_sub_epi32(base, _mm256_and_si256(lt, _mm256_set1_epi32(-16)));
                // Step 4: probe table[base + 7]; base is a multiple of 16.
                let t = _mm256_permutevar8x32_ps(cand4, _mm256_srli_epi32::<4>(base));
                let lt = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(t, x));
                base = _mm256_sub_epi32(base, _mm256_and_si256(lt, _mm256_set1_epi32(-8)));
                // Steps 5-7: 16+ candidates, back to hardware gathers.
                for (off, neg_half) in [(3, -4), (1, -2), (0, -1)] {
                    let probe = _mm256_add_epi32(base, _mm256_set1_epi32(off));
                    let t = _mm256_i32gather_ps::<4>(table.as_ptr(), probe);
                    let lt = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(t, x));
                    base =
                        _mm256_sub_epi32(base, _mm256_and_si256(lt, _mm256_set1_epi32(neg_half)));
                }
                // Final rem == 1 probe: idx = base + (table[base] < x).
                let t = _mm256_i32gather_ps::<4>(table.as_ptr(), base);
                let lt = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(t, x));
                let idx = _mm256_sub_epi32(base, lt);
                // Midpoint tie rule on the clamped neighbours.
                let lo_idx = _mm256_sub_epi32(_mm256_max_epi32(idx, ione), ione);
                let hi_idx = _mm256_min_epi32(idx, nm1);
                let lo = _mm256_i32gather_ps::<4>(table.as_ptr(), lo_idx);
                let hi = _mm256_i32gather_ps::<4>(table.as_ptr(), hi_idx);
                let take_lo = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(
                    _mm256_sub_ps(x, lo),
                    _mm256_sub_ps(hi, x),
                ));
                let mut mag = _mm256_add_epi32(idx, take_lo);
                let ge_n = _mm256_cmpgt_epi32(idx, nm1);
                mag = _mm256_blendv_epi8(mag, nm1, ge_n);
                mag = _mm256_andnot_si256(_mm256_cmpeq_epi32(idx, izero), mag);
                let neg = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(v, fzero));
                let code = _mm256_or_si256(_mm256_and_si256(neg, sign_bit), mag);
                _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), code);
            }
            i += 8;
        }
        scalar::quantize_sign_mag(table, &xs[i..], inv, &mut out[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub fn quantize_sign_mag_avx2(table: &[f32], xs: &[f32], inv: f32, out: &mut [u32]) {
        if table.len() == 128 {
            quantize_sign_mag_avx2_128(table, xs, inv, out);
        } else {
            quantize_sign_mag_avx2_generic(table, xs, inv, out);
        }
    }

    #[target_feature(enable = "avx2")]
    pub fn dequant_sign_mag_avx2(table: &[f32], codes: &[u32], scale: f32, out: &mut [f32]) {
        let mag_mask = _mm256_set1_epi32(0x7F);
        let ione = _mm256_set1_epi32(1);
        let plus = _mm256_set1_ps(1.0);
        let minus = _mm256_set1_ps(-1.0);
        let sc = _mm256_set1_ps(scale);
        let n = codes.len();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n bounds the load and store; gather indices
            // are masked to 0..=0x7F and the caller asserted
            // table.len() > 0x7F.
            unsafe {
                let c = _mm256_loadu_si256(codes.as_ptr().add(i).cast());
                let mag = _mm256_i32gather_ps::<4>(table.as_ptr(), _mm256_and_si256(c, mag_mask));
                // sign = -1.0 exactly when code >> 7 == 1 (matches the
                // scalar decode on arbitrary wide codes too).
                let is_neg = _mm256_cmpeq_epi32(_mm256_srli_epi32::<7>(c), ione);
                let sign = _mm256_blendv_ps(plus, minus, _mm256_castsi256_ps(is_neg));
                let v = _mm256_mul_ps(_mm256_mul_ps(sign, mag), sc);
                _mm256_storeu_ps(out.as_mut_ptr().add(i), v);
            }
            i += 8;
        }
        scalar::dequant_sign_mag(table, &codes[i..], scale, &mut out[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub fn dequant_sign_mag_add_avx2(table: &[f32], codes: &[u32], scale: f32, out: &mut [f32]) {
        let mag_mask = _mm256_set1_epi32(0x7F);
        let ione = _mm256_set1_epi32(1);
        let plus = _mm256_set1_ps(1.0);
        let minus = _mm256_set1_ps(-1.0);
        let sc = _mm256_set1_ps(scale);
        let n = codes.len();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n bounds the loads and store; gather indices
            // are masked to 0..=0x7F and the caller asserted
            // table.len() > 0x7F.
            unsafe {
                let c = _mm256_loadu_si256(codes.as_ptr().add(i).cast());
                let mag = _mm256_i32gather_ps::<4>(table.as_ptr(), _mm256_and_si256(c, mag_mask));
                let is_neg = _mm256_cmpeq_epi32(_mm256_srli_epi32::<7>(c), ione);
                let sign = _mm256_blendv_ps(plus, minus, _mm256_castsi256_ps(is_neg));
                let v = _mm256_mul_ps(_mm256_mul_ps(sign, mag), sc);
                let acc = _mm256_loadu_ps(out.as_ptr().add(i));
                _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(acc, v));
            }
            i += 8;
        }
        scalar::dequant_sign_mag_add(table, &codes[i..], scale, &mut out[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub fn gather_f32_avx2(src: &[f32], indices: &[u32], out: &mut [f32]) {
        // Validate every index up front with an exact integer reduction;
        // hardware gathers have no bounds checks. Invalid input falls back
        // to the scalar loop so the panic (message and offset) is identical.
        let max = indices.iter().fold(0u32, |m, &i| m.max(i));
        if (max as usize) >= src.len() || src.len() > i32::MAX as usize {
            scalar::gather_f32(src, indices, out);
            return;
        }
        let n = indices.len();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n bounds the index load and the store; all
            // gather offsets were proven < src.len() above.
            unsafe {
                let idx = _mm256_loadu_si256(indices.as_ptr().add(i).cast());
                let v = _mm256_i32gather_ps::<4>(src.as_ptr(), idx);
                _mm256_storeu_ps(out.as_mut_ptr().add(i), v);
            }
            i += 8;
        }
        scalar::gather_f32(src, &indices[i..], &mut out[i..]);
    }

    /// `squares::sum` with its block test in eight lanes: the same two
    /// sums per addend, whose masks are all ones where a lane passes, so
    /// `movemask` (which reads sign bits only) sees every failure.
    #[target_feature(enable = "avx2")]
    pub fn sum_squares_avx2(xs: &[f32]) -> f32 {
        squares::sum_with(xs, |acc, block| {
            let (even, odd, half) = squares::binade(acc)?;
            let (even, odd, half) = (
                _mm256_set1_ps(even),
                _mm256_set1_ps(odd),
                _mm256_set1_ps(half),
            );
            let one = _mm256_set1_epi32(1);
            let mut sums = _mm256_setzero_si256();
            let mut good = _mm256_set1_epi32(-1);
            for group in block.as_chunks::<8>().0 {
                let v = load8(group);
                let q = _mm256_mul_ps(v, v);
                let from_even = _mm256_castps_si256(_mm256_add_ps(even, q));
                let from_odd = _mm256_castps_si256(_mm256_add_ps(odd, q));
                let small = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(q, half));
                let untied = _mm256_cmpeq_epi32(from_odd, _mm256_add_epi32(from_even, one));
                good = _mm256_and_si256(good, _mm256_and_si256(small, untied));
                sums = _mm256_add_epi32(sums, from_even);
            }
            if _mm256_movemask_ps(_mm256_castsi256_ps(good)) != 0xFF {
                return None;
            }
            let mut lanes = [0f32; 8];
            store8(&mut lanes, _mm256_castsi256_ps(sums));
            let from_even = lanes.iter().fold(0u32, |a, s| a.wrapping_add(s.to_bits()));
            squares::advance(acc, from_even)
        })
    }

    /// `x · m` modulo `2^64` in each u64 lane. AVX2 multiplies only 32 × 32
    /// → 64 bits, so the product is `lo·lo + ((hi·lo_m + lo·hi_m) << 32)`:
    /// three `vpmuludq`, the `hi·hi_m` term falling off the top. AVX-512 DQ
    /// has the whole product in one `vpmullq`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn mul_u64(x: __m256i, m: u64) -> __m256i {
        let m_lo = _mm256_set1_epi64x((m & 0xFFFF_FFFF) as i64);
        let m_hi = _mm256_set1_epi64x((m >> 32) as i64);
        let lo = _mm256_mul_epu32(x, m_lo);
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64::<32>(x), m_lo),
            _mm256_mul_epu32(x, m_hi),
        );
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    }

    /// [`StdRng::mix`] in each u64 lane, multiplying by `mul`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn mix_u64(z: __m256i, mul: impl Fn(__m256i, u64) -> __m256i) -> __m256i {
        let z = mul(
            _mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)),
            StdRng::MIX[0],
        );
        let z = mul(
            _mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)),
            StdRng::MIX[1],
        );
        _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z))
    }

    /// The eight `f32` draws `rng.gen()` would return next from a generator
    /// whose state is `counter`, in element order: draw `k` (from 1) is
    /// `mix(counter + k·GAMMA)`, and the shim's `f32` is its top 24 bits
    /// times `2^-24` — an integer below `2^24` converts exactly and the
    /// power-of-two scale is exact, so each lane holds the scalar value.
    /// Draws 1, 3, 5, 7 run in one vector and 2, 4, 6, 8 in the other; the
    /// second's values move to the high half of their u64 lanes, so one
    /// blend interleaves them into element order.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn dither8(counter: u64, mul: impl Fn(__m256i, u64) -> __m256i + Copy) -> __m256 {
        let step = |k: u64| k.wrapping_mul(StdRng::GAMMA) as i64;
        let base = _mm256_set1_epi64x(counter as i64);
        let odd = _mm256_add_epi64(base, _mm256_setr_epi64x(step(1), step(3), step(5), step(7)));
        let even = _mm256_add_epi64(base, _mm256_setr_epi64x(step(2), step(4), step(6), step(8)));
        let odd = _mm256_srli_epi64::<40>(mix_u64(odd, mul));
        let even = _mm256_slli_epi64::<32>(_mm256_srli_epi64::<40>(mix_u64(even, mul)));
        let top24 = _mm256_blend_epi32::<0b1010_1010>(odd, even);
        _mm256_mul_ps(
            _mm256_cvtepi32_ps(top24),
            _mm256_set1_ps(1.0 / (1u64 << 24) as f32),
        )
    }

    /// Lane-parallel replay of `scalar::quantize_group` over a full group:
    /// the sign byte from `v < 0.0` (so −0.0 and NaN are positive, whatever
    /// their sign bit), `x = |v| / norm · s` (`div` then `mul`, never
    /// fused), and either `floor_small`'s three exact steps or, when any
    /// lane fails `x < 2^22` (∞ and NaN included), the libm expression
    /// lane by lane — with the same eight draws either way.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn quantize_group_avx2(
        group: &[f32; 8],
        norm: __m256,
        sf: __m256,
        s: u32,
        draws: __m256,
    ) -> (u8, __m256i) {
        let magic = _mm256_set1_ps(scalar::ROUND_MAGIC);
        let v = load8(group);
        let sign_byte = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(v, _mm256_setzero_ps()));
        let abs = _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(ABS_MASK)));
        let x = _mm256_mul_ps(_mm256_div_ps(abs, norm), sf);
        let small = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(scalar::FLOOR_LIMIT));
        let codes = if _mm256_movemask_ps(small) == 0xFF {
            let nearest = _mm256_sub_ps(_mm256_add_ps(x, magic), magic);
            let above = _mm256_cmp_ps::<_CMP_GT_OQ>(nearest, x);
            let floor =
                _mm256_blendv_ps(nearest, _mm256_sub_ps(nearest, _mm256_set1_ps(1.0)), above);
            let whole = _mm256_and_si256(
                _mm256_castps_si256(_mm256_add_ps(floor, magic)),
                _mm256_set1_epi32(0x007F_FFFF),
            );
            // All ones (−1) where the draw rounds up.
            let up = _mm256_cmp_ps::<_CMP_LT_OQ>(draws, _mm256_sub_ps(x, floor));
            let level = _mm256_sub_epi32(whole, _mm256_castps_si256(up));
            _mm256_min_epu32(level, _mm256_set1_epi32(s as i32))
        } else {
            let (mut xs, mut ds) = ([0f32; 8], [0f32; 8]);
            store8(&mut xs, x);
            store8(&mut ds, draws);
            let c = libm_levels(&xs, &ds, s);
            _mm256_setr_epi32(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7])
        };
        (sign_byte as u8, codes)
    }

    /// The codes of a group some lane of which is not below `2^22`, by the
    /// libm expression: out of line and free of vector arguments, so the
    /// common group's body inlines into either level's loop.
    #[cold]
    fn libm_levels(xs: &[f32; 8], draws: &[f32; 8], s: u32) -> [i32; 8] {
        std::array::from_fn(|i| {
            let (floor, whole) = (xs[i].floor(), xs[i].floor() as u32);
            (whole + u32::from(draws[i] < xs[i] - floor)).min(s) as i32
        })
    }

    /// Where code `i` of a `bits`-wide group starts, for the packers below:
    /// bit `i·bits`, as the u64 shift counts of codes 0..4 and 4..8, and as
    /// the byte `i·bits / 8` plus the shift `i·bits % 8` within it.
    struct CodeLayout {
        shift_lo: __m256i,
        shift_hi: __m256i,
        byte_pick: __m256i,
        bit_shift: __m256i,
        mask: __m256i,
    }

    impl CodeLayout {
        #[target_feature(enable = "avx2")]
        fn new(bits: u32) -> Self {
            let at = |i: u32| i * bits;
            let shift = |i: u32| i64::from(at(i));
            // Bytes `k` and `k + 1` into the lane's low half, zeros above
            // (a `vpshufb` index with its top bit set writes zero). Both
            // 128-bit halves of the source hold the same word, so the
            // in-half indexes of lanes 4..8 read the same bytes.
            let pick = |i: u32| ((at(i) / 8) | ((at(i) / 8 + 1) << 8) | 0x8080_0000) as i32;
            let bit = |i: u32| (at(i) % 8) as i32;
            CodeLayout {
                shift_lo: _mm256_setr_epi64x(shift(0), shift(1), shift(2), shift(3)),
                shift_hi: _mm256_setr_epi64x(shift(4), shift(5), shift(6), shift(7)),
                byte_pick: _mm256_setr_epi32(
                    pick(0),
                    pick(1),
                    pick(2),
                    pick(3),
                    pick(4),
                    pick(5),
                    pick(6),
                    pick(7),
                ),
                bit_shift: _mm256_setr_epi32(
                    bit(0),
                    bit(1),
                    bit(2),
                    bit(3),
                    bit(4),
                    bit(5),
                    bit(6),
                    bit(7),
                ),
                mask: _mm256_set1_epi32((1 << bits) - 1),
            }
        }

        /// Eight codes, each below `2^bits`, packed LSB first into the low
        /// `8·bits` bits of a word: the `bits` bytes `pack8` writes for
        /// them.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn pack(&self, codes: __m256i) -> u64 {
            let lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(codes));
            let hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(codes));
            let v = _mm256_or_si256(
                _mm256_sllv_epi64(lo, self.shift_lo),
                _mm256_sllv_epi64(hi, self.shift_hi),
            );
            let v = _mm_or_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
            _mm_cvtsi128_si64(_mm_or_si128(v, _mm_unpackhi_epi64(v, v))) as u64
        }

        /// The eight codes a group's `bits` bytes (the low bytes of `word`)
        /// hold: a code spans at most `7 + 8` bits, so two bytes shifted
        /// down and masked give it.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn unpack(&self, word: u64) -> __m256i {
            let bytes = _mm256_shuffle_epi8(_mm256_set1_epi64x(word as i64), self.byte_pick);
            _mm256_and_si256(_mm256_srlv_epi32(bytes, self.bit_shift), self.mask)
        }
    }

    /// The level quantizer's vector body, once per dither multiply: full
    /// groups of eight lane-parallel, their draws computed from the counter
    /// one `skip` over all of them returned; then the last partial group
    /// through the scalar body, drawing from the advanced generator. A full
    /// group's codes fill exactly `bits` bytes, which one 8-byte store
    /// writes (its zero high bytes land where the next group's go, and that
    /// group overwrites them). A macro rather than a generic, so each body
    /// is compiled for its own level and its multiply inlines.
    macro_rules! quantize_levels_lanes {
        ($(#[$doc:meta])* $name:ident, $features:literal, $mul:expr) => {
            $(#[$doc])*
            #[target_feature(enable = $features)]
            pub fn $name(
                xs: &[f32],
                norm: f32,
                s: u32,
                rng: &mut StdRng,
                signs: &mut [u8],
                levels: &mut [u8],
            ) {
                let mul = $mul;
                let bits = level_bits(s);
                // A zero norm draws nothing; the scalar body writes its zeros.
                if bits > 8 || norm == 0.0 {
                    return scalar::quantize_levels(xs, norm, s, rng, signs, levels);
                }
                let sf = s as f32;
                let (normv, sfv) = (_mm256_set1_ps(norm), _mm256_set1_ps(sf));
                let layout = CodeLayout::new(bits);
                let width = bits as usize;
                let (groups, tail) = xs.as_chunks::<8>();
                let (packed, packed_tail) = levels.split_at_mut(groups.len() * width);
                let mut counter = rng.skip(8 * groups.len() as u64);
                for (g, (group, sign_out)) in groups.iter().zip(signs.iter_mut()).enumerate() {
                    let draws = dither8(counter, mul);
                    counter = counter.wrapping_add(StdRng::GAMMA.wrapping_mul(8));
                    let (sign_byte, codes) = quantize_group_avx2(group, normv, sfv, s, draws);
                    *sign_out = sign_byte;
                    let word = layout.pack(codes).to_le_bytes();
                    let at = g * width;
                    match packed[at..].first_chunk_mut::<8>() {
                        Some(out) => *out = word,
                        None => packed[at..at + width].copy_from_slice(&word[..width]),
                    }
                }
                let (sign_byte, codes) = scalar::quantize_group(tail, norm, sf, s, rng);
                if let Some(sign_out) = signs.get_mut(groups.len()) {
                    *sign_out = sign_byte;
                }
                BitWriter::new(packed_tail, bits).finish(&codes[..tail.len()]);
            }
        };
    }

    quantize_levels_lanes!(
        /// The AVX2 body: each dither multiply is [`mul_u64`].
        quantize_levels_avx2,
        "avx2",
        |x, m| mul_u64(x, m)
    );

    quantize_levels_lanes!(
        /// The AVX-512 body: each dither multiply is one `vpmullq`.
        quantize_levels_avx512,
        "avx512f,avx512dq,avx512vl",
        |x, m: u64| _mm256_mullo_epi64(x, _mm256_set1_epi64x(m as i64))
    );

    /// Eight decoded values: `norm * l as f32 / s` per lane (`mul` then
    /// `div`, the scalar operands; a code below `2^24` converts exactly),
    /// then sign bit `i` of the byte XORed into lane `i`'s bit 31.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn dequantize_group_avx2(codes: __m256i, sign_byte: u8, norm: __m256, sf: __m256) -> __m256 {
        let value = _mm256_div_ps(_mm256_mul_ps(norm, _mm256_cvtepi32_ps(codes)), sf);
        let to_bit31 = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
        let sign = _mm256_and_si256(
            _mm256_sllv_epi32(_mm256_set1_epi32(i32::from(sign_byte)), to_bit31),
            _mm256_set1_epi32(i32::MIN),
        );
        _mm256_xor_ps(value, _mm256_castsi256_ps(sign))
    }

    /// `super::fold_add` in eight lanes: the sum, or `acc` where it is NaN.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn fold_add8(acc: __m256, d: __m256) -> __m256 {
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(acc, acc);
        _mm256_blendv_ps(_mm256_add_ps(acc, d), acc, nan)
    }

    /// The scalar decode walk with the table lookup replaced by the
    /// expression the table holds, eight lanes at a time. Group `g`'s codes
    /// are the `bits` bytes at `g·bits`, read as one 8-byte word (zero
    /// padded past the end of the stream, as `BitReader` reads).
    #[target_feature(enable = "avx2")]
    pub fn dequantize_levels_avx2(
        signs: &[u8],
        levels: &[u8],
        bits: u32,
        s: u32,
        norm: f32,
        count: usize,
        mut out: FoldSink<'_>,
    ) {
        // Width 0 takes the scalar body too, whose reader rejects it.
        if !(1..=8).contains(&bits) {
            return scalar::dequantize_levels(signs, levels, bits, s, norm, count, out);
        }
        let (normv, sfv) = (_mm256_set1_ps(norm), _mm256_set1_ps(s as f32));
        let layout = CodeLayout::new(bits);
        let width = bits as usize;
        let word_at = |at: usize| match levels[at..].first_chunk::<8>() {
            Some(word) => u64::from_le_bytes(*word),
            None => {
                let mut padded = [0u8; 8];
                padded[..levels.len() - at].copy_from_slice(&levels[at..]);
                u64::from_le_bytes(padded)
            }
        };
        let group = |g: usize, sign_byte: u8| {
            let codes = layout.unpack(word_at(g * width));
            dequantize_group_avx2(codes, sign_byte, normv, sfv)
        };
        let (full, last) = signs.split_at(count / 8);
        // One loop per pass, so no group waits on a branch.
        match out.fold {
            Fold::Assign => {
                let mut lanes = [0f32; 8];
                for (g, &sign_byte) in full.iter().enumerate() {
                    store8(&mut lanes, group(g, sign_byte));
                    out.out.extend_from_slice(&lanes);
                }
            }
            Fold::Add => {
                let accs = out.out.as_chunks_mut::<8>().0;
                for (g, (acc, &sign_byte)) in accs.iter_mut().zip(full).enumerate() {
                    store8(acc, fold_add8(load8(acc), group(g, sign_byte)));
                }
            }
            Fold::AddScale(scale) => {
                let scale = _mm256_set1_ps(scale);
                let accs = out.out.as_chunks_mut::<8>().0;
                for (g, (acc, &sign_byte)) in accs.iter_mut().zip(full).enumerate() {
                    let sum = fold_add8(load8(acc), group(g, sign_byte));
                    store8(acc, _mm256_mul_ps(sum, scale));
                }
            }
        }
        out.at = full.len() * 8;
        if let [sign_byte] = *last {
            let mut lanes = [0f32; 8];
            store8(&mut lanes, group(full.len(), sign_byte));
            out.put(&lanes[..count % 8]);
        }
    }

    /// CLMUL and VPCLMULQDQ are CPU features of their own, not implied by a
    /// [`super::Level`]: both vector levels fold with the widest multiply
    /// the CPU reports, and take the table without one. Inputs under one
    /// 64-byte fold block are table work either way, and inputs under one
    /// 256-byte block fold 128 bits at a time.
    #[target_feature(enable = "avx2")]
    pub fn crc32_update_fold(state: u32, bytes: &[u8]) -> u32 {
        use std::arch::is_x86_feature_detected as has;
        if bytes.len() < 64 || !(has!("pclmulqdq") && has!("sse4.1")) {
            return scalar::crc32_update(state, bytes);
        }
        let wide = bytes.len() >= 256 && has!("vpclmulqdq") && has!("avx512f");
        // SAFETY: the features the chosen body is compiled for were just
        // detected on this CPU.
        unsafe {
            if wide {
                crc32_update_vpclmul(state, bytes)
            } else {
                crc32_update_clmul(state, bytes)
            }
        }
    }

    /// `x^n mod P` in the reflected domain, shifted one bit left: the form
    /// in which a carry-less multiply of reflected operands lands aligned
    /// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
    /// PCLMULQDQ Instruction", Intel 2009).
    const fn crc_fold_const(n: u32) -> i64 {
        let mut r = 0x8000_0000u32; // x^0
        let mut i = 0;
        while i < n {
            r = super::crc_step(r);
            i += 1;
        }
        (r as i64) << 1
    }

    /// A 33-bit polynomial (x^32 coefficient in bit 32) bit-reflected.
    const fn reflect33(p: u64) -> i64 {
        (p.reverse_bits() >> 31) as i64
    }

    /// The full CRC polynomial `P(x)`, x^32 term included.
    const CRC_P33: u64 = 0x1_04C1_1DB7;

    /// Barrett constant `⌊x^64 / P(x)⌋` by long division, reflected.
    const CRC_MU: i64 = {
        let mut rem: u128 = 1 << 64;
        let mut q = 0u64;
        let mut i = 33;
        while i > 0 {
            i -= 1;
            if (rem >> (i + 32)) & 1 == 1 {
                q |= 1 << i;
                rem ^= (CRC_P33 as u128) << i;
            }
        }
        reflect33(q)
    };

    /// Distances (in bits) a 128-bit lane is carried forward: sixteen lanes
    /// ahead (±32 for the high and low qword), four lanes, one lane, and the
    /// final 96 → 64 bit step.
    const FOLD_16X_LO: i64 = crc_fold_const(16 * 128 + 32);
    const FOLD_16X_HI: i64 = crc_fold_const(16 * 128 - 32);
    const FOLD_4X_LO: i64 = crc_fold_const(4 * 128 + 32);
    const FOLD_4X_HI: i64 = crc_fold_const(4 * 128 - 32);
    const FOLD_1X_LO: i64 = crc_fold_const(128 + 32);
    const FOLD_1X_HI: i64 = crc_fold_const(128 - 32);
    const FOLD_64: i64 = crc_fold_const(64);

    fn load128(block: &[u8; 16]) -> __m128i {
        // SAFETY: the array type guarantees 16 readable bytes; loadu allows
        // any alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Carries `acc` forward by the distance baked into `k` and absorbs the
    /// block it lands on: `acc.lo·k.lo ⊕ acc.hi·k.hi ⊕ next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold128(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Folds the input four 128-bit lanes at a time; the sub-16-byte tail
    /// goes through the table.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn crc32_update_clmul(state: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some((first, quads)) = quads.split_first() else {
            return scalar::crc32_update(state, bytes);
        };
        let x = [
            // The running register enters as an xor into the first 4 bytes.
            _mm_xor_si128(load128(&first[0]), _mm_cvtsi32_si128(state as i32)),
            load128(&first[1]),
            load128(&first[2]),
            load128(&first[3]),
        ];
        crc32_finish_clmul(x, quads, singles, tail)
    }

    /// Carries four running lanes over the remaining 64-byte `quads`, folds
    /// them and the `singles` into one lane, and reduces that lane to the
    /// 32-bit register, then runs the table over the `tail`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn crc32_finish_clmul(
        mut x: [__m128i; 4],
        quads: &[[[u8; 16]; 4]],
        singles: &[[u8; 16]],
        tail: &[u8],
    ) -> u32 {
        let k4 = _mm_set_epi64x(FOLD_4X_HI, FOLD_4X_LO);
        let k1 = _mm_set_epi64x(FOLD_1X_HI, FOLD_1X_LO);
        for q in quads {
            for (lane, block) in x.iter_mut().zip(q) {
                *lane = fold128(*lane, load128(block), k4);
            }
        }
        let mut acc = x[0];
        for &lane in &x[1..] {
            acc = fold128(acc, lane, k1);
        }
        for block in singles {
            acc = fold128(acc, load128(block), k1);
        }
        // 128 → 96 → 64 bits: the leading qword, then the leading dword, is
        // carried onto what follows it (the message's implicit 32 zero bits
        // included).
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k1),
            _mm_srli_si128::<8>(acc),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, FOLD_64)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett reduction, 64 → 32 bits: q = ⌊acc·μ / x^32⌋, then
        // acc ⊕ q·P leaves the remainder in the second dword.
        let p_mu = _mm_set_epi64x(CRC_MU, reflect33(CRC_P33));
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), p_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), p_mu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(acc, qp)) as u32;
        scalar::crc32_update(crc, tail)
    }

    #[target_feature(enable = "avx512f")]
    fn load512(blocks: &[[u8; 16]; 4]) -> __m512i {
        // SAFETY: the array type guarantees 64 readable bytes; loadu allows
        // any alignment.
        unsafe { _mm512_loadu_si512(blocks.as_ptr().cast()) }
    }

    /// [`fold128`] in each of the four 128-bit lanes of a 512-bit vector.
    #[target_feature(enable = "vpclmulqdq,avx512f")]
    fn fold512(acc: __m512i, next: __m512i, k: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(acc, k);
        let hi = _mm512_clmulepi64_epi128::<0x11>(acc, k);
        // 0x96: the three-way xor.
        _mm512_ternarylogic_epi64::<0x96>(lo, hi, next)
    }

    /// Folds 256-byte blocks as sixteen 128-bit lanes in four 512-bit
    /// vectors, carries the four vectors onto the last, and hands its four
    /// lanes to [`crc32_finish_clmul`] for what is left.
    #[target_feature(enable = "vpclmulqdq,avx512f,pclmulqdq,sse4.1")]
    fn crc32_update_vpclmul(state: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let (sixteens, quads) = quads.as_chunks::<4>();
        let Some((first, sixteens)) = sixteens.split_first() else {
            return crc32_update_clmul(state, bytes);
        };
        let lanes = |lo, hi| _mm512_broadcast_i32x4(_mm_set_epi64x(hi, lo));
        let (k16, k4) = (
            lanes(FOLD_16X_LO, FOLD_16X_HI),
            lanes(FOLD_4X_LO, FOLD_4X_HI),
        );
        let state = _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32));
        let mut z = [
            _mm512_xor_si512(load512(&first[0]), state),
            load512(&first[1]),
            load512(&first[2]),
            load512(&first[3]),
        ];
        for block in sixteens {
            for (lane, quad) in z.iter_mut().zip(block) {
                *lane = fold512(*lane, load512(quad), k16);
            }
        }
        let mut acc = z[0];
        for &lane in &z[1..] {
            acc = fold512(acc, lane, k4);
        }
        let x = [
            _mm512_extracti32x4_epi32::<0>(acc),
            _mm512_extracti32x4_epi32::<1>(acc),
            _mm512_extracti32x4_epi32::<2>(acc),
            _mm512_extracti32x4_epi32::<3>(acc),
        ];
        crc32_finish_clmul(x, quads, singles, tail)
    }

    #[cfg(test)]
    #[test]
    fn crc_fold_constants_match_the_published_values() {
        // zlib / Chromium `crc32_simd` (its AVX-512 `k1k2` and `k3k4`),
        // Linux `crc32-pclmul`.
        assert_eq!(FOLD_16X_LO, 0x1_1542_778a);
        assert_eq!(FOLD_16X_HI, 0x1_322d_1430);
        assert_eq!(FOLD_4X_LO, 0x1_5444_2bd4);
        assert_eq!(FOLD_4X_HI, 0x1_c6e4_1596);
        assert_eq!(FOLD_1X_LO, 0x1_7519_97d0);
        assert_eq!(FOLD_1X_HI, 0x0_ccaa_009e);
        assert_eq!(FOLD_64, 0x1_63cd_6124);
        assert_eq!(reflect33(CRC_P33), 0x1_db71_0641);
        assert_eq!(CRC_MU, 0x1_f701_1641);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tricky_floats() -> Vec<f32> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0e-42, // denormal
            -1.0e-42,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            0.5,
            -2.75,
            3.0e7,
        ]
    }

    /// The Gaussian kernel's one assumption, checked on this platform: its
    /// `ln` over every `1 − u1` (all 54 binades, the ends and the √½ / √2
    /// seams) and its `cos` over `[0, 2π)` wherever the guard lets a lane
    /// through (quadrant seams and the guard's edge included) are within
    /// 2⁻⁴⁶ of libm's, relative.
    #[test]
    fn gaussian_ln_and_cos_are_within_two_to_the_minus_46_of_libm() {
        use rand::{RngCore, SeedableRng};
        let bound = 1.0 / (1u64 << 46) as f64;
        let unit = 1.0 / (1u64 << 53) as f64;
        let rel = |fast: f64, libm: f64| ((fast - libm) / libm).abs();
        let mut g = StdRng::seed_from_u64(0x6a05);
        let mut xs = vec![unit, 1.0 - unit, 0.5, 1.0 - 2.0 * unit];
        for k in 0..54 {
            let binade = 2f64.powi(-k);
            for m in [
                1.0,
                std::f64::consts::SQRT_2,
                std::f64::consts::FRAC_1_SQRT_2,
            ] {
                xs.extend([m * binade, f64::from_bits((m * binade).to_bits() - 1)]);
            }
            for _ in 0..2_000 {
                let v = ((g.next_u64() >> 11) >> k).max(1);
                xs.push(v as f64 * unit);
            }
        }
        for x in xs.into_iter().filter(|x| *x > 0.0 && *x < 1.0) {
            let err = rel(gaussian::ln(x), x.ln());
            assert!(err <= bound, "ln({x:e}): relative error {err:e}");
        }
        let tau = 2.0 * std::f64::consts::PI;
        let mut thetas: Vec<f64> = (0..200_000)
            .map(|_| tau * ((g.next_u64() >> 11) as f64 * unit))
            .collect();
        for eighth in 1..16u64 {
            let seam = tau * ((eighth << 49) as f64 * unit);
            for d in [-3i64, -1, 0, 1, 3, 1 << 29, 1 << 31, -(1 << 31), 1 << 40] {
                thetas.push(f64::from_bits(seam.to_bits().wrapping_add_signed(d)));
            }
        }
        for theta in thetas.into_iter().filter(|t| (0.0..tau).contains(t)) {
            let (c, r) = gaussian::cos(theta);
            if r.abs() >= gaussian::MIN_REDUCED {
                let err = rel(c, theta.cos());
                assert!(err <= bound, "cos({theta:e}): relative error {err:e}");
            }
        }
    }

    #[test]
    fn levels_are_ordered_and_named() {
        assert!(Level::Scalar < Level::Avx2 && Level::Avx2 < Level::Avx512);
        assert_eq!(Level::Avx512.to_string(), "avx512");
        let avail = available_levels();
        assert_eq!(avail[0], Level::Scalar);
        assert!(avail.contains(&hw_level()));
        assert!(level() <= hw_level());
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn unsupported_level_is_rejected() {
        if hw_level() == Level::Avx512 {
            panic!("not supported (no level above avx512 to request)");
        }
        let _ = abs_max_bits_at(Level::Avx512, &[1.0]);
    }

    #[test]
    fn abs_max_matches_float_fold_on_finite_input() {
        let xs = vec![0.25f32, -3.5, 2.0, -0.0, 1.0e-40];
        let want = xs.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for lvl in available_levels() {
            assert_eq!(f32::from_bits(abs_max_bits_at(lvl, &xs)), want, "{lvl}");
        }
        assert_eq!(abs_max_bits(&[]), 0);
    }

    #[test]
    fn all_levels_agree_on_tricky_inputs() {
        let mut xs = tricky_floats();
        for rep in 0..4 {
            xs.extend(tricky_floats().iter().map(|v| v * (rep as f32 + 0.5)));
        }
        for lvl in available_levels() {
            assert_eq!(
                abs_max_bits_at(lvl, &xs),
                abs_max_bits_at(Level::Scalar, &xs),
                "abs_max {lvl}"
            );
            let mut a = vec![0u32; xs.len()];
            let mut b = vec![0u32; xs.len()];
            abs_bits_into_at(lvl, &xs, &mut a);
            abs_bits_into_at(Level::Scalar, &xs, &mut b);
            assert_eq!(a, b, "abs_bits {lvl}");
        }
    }

    #[test]
    fn lower_bound_matches_partition_point() {
        let table: Vec<f32> = (0..37).map(|i| i as f32 * 0.25).collect();
        for x in [-1.0, 0.0, 0.1, 0.25, 4.0, 9.0, 100.0, f32::NAN] {
            assert_eq!(
                scalar::lower_bound(&table, x),
                table.partition_point(|v| *v < x),
                "x = {x}"
            );
        }
        assert_eq!(scalar::lower_bound(&[], 1.0), 0);
    }

    #[test]
    fn narrow_widen_roundtrip_all_levels() {
        let values: Vec<u32> = (0..133).map(|i| (i * 7) % 256).collect();
        for lvl in available_levels() {
            let mut bytes = vec![0u8; values.len()];
            narrow_to_bytes_at(lvl, &values, &mut bytes);
            let mut back = vec![0u32; values.len()];
            widen_from_bytes_at(lvl, &bytes, &mut back);
            assert_eq!(back, values, "{lvl}");
        }
    }

    #[test]
    fn narrow_truncates_like_a_cast_on_all_levels() {
        let values: Vec<u32> = (0..67).map(|i| i * 0x0101_0101 + 0x1234).collect();
        let want: Vec<u8> = values.iter().map(|&v| v as u8).collect();
        for lvl in available_levels() {
            let mut got = vec![0u8; values.len()];
            narrow_to_bytes_at(lvl, &values, &mut got);
            assert_eq!(got, want, "{lvl}");
        }
    }

    #[test]
    fn axpy_levels_are_bit_identical() {
        let x = tricky_floats();
        let y0: Vec<f32> = x.iter().rev().copied().collect();
        for lvl in available_levels() {
            let mut y = y0.clone();
            axpy_at(lvl, &mut y, 1.5, &x);
            let mut want = y0.clone();
            axpy_at(Level::Scalar, &mut want, 1.5, &x);
            let got: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
            let exp: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, exp, "{lvl}");
        }
    }

    #[test]
    fn quantize_dequant_levels_agree() {
        let table: Vec<f32> = (0..128).map(|i| i as f32 / 127.0).collect();
        let xs = tricky_floats();
        let mut want = vec![0u32; xs.len()];
        quantize_sign_mag_at(Level::Scalar, &table, &xs, 1.0, &mut want);
        for lvl in available_levels() {
            let mut got = vec![0u32; xs.len()];
            quantize_sign_mag_at(lvl, &table, &xs, 1.0, &mut got);
            assert_eq!(got, want, "quantize {lvl}");
            let mut dec = vec![0f32; xs.len()];
            dequant_sign_mag_at(lvl, &table, &got, 2.0, &mut dec);
            let mut dec_ref = vec![0f32; xs.len()];
            dequant_sign_mag_at(Level::Scalar, &table, &want, 2.0, &mut dec_ref);
            let got_bits: Vec<u32> = dec.iter().map(|v| v.to_bits()).collect();
            let exp_bits: Vec<u32> = dec_ref.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, exp_bits, "dequant {lvl}");
            let mut acc = dec.clone();
            dequant_sign_mag_add_at(lvl, &table, &got, 0.5, &mut acc);
            let mut acc_ref = dec_ref.clone();
            dequant_sign_mag_add_at(Level::Scalar, &table, &want, 0.5, &mut acc_ref);
            let got_bits: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
            let exp_bits: Vec<u32> = acc_ref.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, exp_bits, "dequant_add {lvl}");
        }
    }

    #[test]
    fn gather_levels_agree() {
        let src: Vec<f32> = (0..97).map(|i| (i as f32).sin()).collect();
        let idx: Vec<u32> = (0..41).map(|i| (i * 13) % 97).collect();
        let mut want = vec![0f32; idx.len()];
        gather_f32_at(Level::Scalar, &src, &idx, &mut want);
        for lvl in available_levels() {
            let mut got = vec![0f32; idx.len()];
            gather_f32_at(lvl, &src, &idx, &mut got);
            assert_eq!(got, want, "{lvl}");
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn gather_oob_panics_on_every_level() {
        let src = [1.0f32, 2.0];
        let mut out = vec![0f32; 1];
        gather_f32_at(hw_level(), &src, &[5], &mut out);
    }
}
