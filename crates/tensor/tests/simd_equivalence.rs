//! SIMD-vs-scalar bit-identity equivalence suite.
//!
//! Every kernel in `grace_tensor::simd` promises that its vector paths are
//! **bit identical** to the portable scalar body on all inputs. This suite
//! enforces that promise with seeded property tests that sweep:
//!
//! * every level the CPU can execute (via `available_levels()`, which
//!   ignores `GRACE_FORCE_SCALAR` — so the CI forced-scalar run still
//!   cross-checks the vector bodies);
//! * unaligned lengths around every lane and block boundary (0, 1, lane−1,
//!   lane, lane+1 for the 4/8/16/32-element kernel blocks) plus
//!   MTU-straddling sizes (±1 around 375 f32s = 1500 bytes and around 1500
//!   elements);
//! * adversarial float bit patterns — NaN, ±∞, ±0, denormals, extreme
//!   magnitudes — injected into otherwise-random IEEE-754 words;
//! * all 32 bit-pack widths against the bit-cursor oracle, at every length
//!   0..=257 (all remainders mod 8 and mod 64) and on a 1 M-code buffer,
//!   rejection of an oversized code included;
//! * the level-quantizer kernel pair, at every level, against its retained
//!   per-element reference: payload bytes, decoded bits and the RNG state
//!   after every call, at every code width the vector body takes and one
//!   wider, every slice offset within a group, and groups holding −0.0,
//!   ±∞ or NaN or a zero norm — and its decode folded straight into a
//!   merge accumulator, every pass against decode-then-mean;
//! * the blocked sum of squares under every ‖g‖₂ against the serial fold:
//!   ulp ties, binade crossings inside a block, subnormal sums, and NaN, ±∞
//!   and oversized addends in every lane position;
//! * every cross-rank sum (`sum_into`, its byte form, the fold's adding
//!   passes, `Tensor::add_assign`) against the one NaN rule: where ranks
//!   hold NaNs of different payloads, the lowest rank's survives;
//! * the CRC32 kernels (table, CLMUL and VPCLMULQDQ) against the bit-at-a-time
//!   definition, every length up to 4 KiB at every load alignment.
//! * `gemm_nt` (A·Bᵀ) against its scalar body over every combination of
//!   row-tile remainders, the panel's `p`-chunk edge and the shapes the
//!   models' backward passes really produce, into a NaN-filled output.
//! * `gemm_tn` (Aᵀ·B) likewise: every strip remainder, reductions crossing
//!   its row-list chunk, ReLU-like zeros in either operand against ±∞ and
//!   NaN in the other, and the models' dW and low-rank shapes.
//! * top-k's candidate-set selection against the full quickselect it
//!   replaced, at every level: lengths around the chunk width, partial tail
//!   chunks and the `2k`-chunk switch, all-equal input, signed-zero runs,
//!   NaN and ±∞, and ties at the pivot that straddle a chunk boundary.
//!
//! Inputs are raw `u32` words reinterpreted with `from_bits`, so the float
//! space is sampled uniformly over *encodings* (heavy on denormals and NaN
//! payloads), not just over values. All comparisons are on bit patterns.

use grace_tensor::coding::{
    dequantize_levels, dequantize_levels_reference, level_bits, quantize_levels,
    quantize_levels_reference,
};
use grace_tensor::linalg;
use grace_tensor::pack::{
    crc32, crc32_bitwise, pack_bits, pack_bits_generic, packed_len, unpack_bits_generic_into,
    unpack_bits_into, BitReader, BitWriter, Crc32,
};
use grace_tensor::rng::seeded;
use grace_tensor::select::{
    top_k_indices, top_k_indices_quickselect_at, top_k_indices_with, CHUNK,
};
use grace_tensor::simd::{self, available_levels, Level};
use proptest::prelude::*;
use rand::Rng;

/// Lengths that straddle every vector-kernel boundary: the f32 lane counts
/// (8 AVX2, 16 AVX-512, and the 4× unrolled loops of either), the
/// byte-kernel block sizes (16, 32), and MTU-sized frames (1500 bytes = 375
/// f32s, and 1500 elements).
fn boundary_lengths() -> Vec<usize> {
    let mut out = vec![0, 1];
    for lane in [4usize, 8, 16, 32, 64] {
        out.extend([lane - 1, lane, lane + 1]);
    }
    out.extend([374, 375, 376, 1499, 1500, 1501]);
    out
}

/// The largest boundary length; the word pools are generated at this size
/// and sliced down.
const MAX_LEN: usize = 1501;

/// Adversarial IEEE-754 encodings: ±0, NaNs (quiet and payload-carrying),
/// ±∞, the smallest/largest denormals, the smallest normal, and both
/// extremes of the finite range.
const TRICKY_BITS: [u32; 14] = [
    0x0000_0000, // +0.0
    0x8000_0000, // -0.0
    0x7FC0_0000, // canonical quiet NaN
    0xFFC0_0001, // negative NaN with payload
    0x7F80_0000, // +inf
    0xFF80_0000, // -inf
    0x0000_0001, // smallest positive denormal
    0x8000_0001, // smallest negative denormal
    0x007F_FFFF, // largest denormal
    0x0080_0000, // f32::MIN_POSITIVE
    0x7F7F_FFFF, // f32::MAX
    0xFF7F_FFFF, // f32::MIN
    0x3F80_0000, // 1.0
    0xBF80_0000, // -1.0
];

/// Reinterprets a word slice as floats, splicing the tricky encodings in at
/// a generated stride so every boundary length sees some of them.
fn floats_with_tricky(words: &[u32], salt: usize) -> Vec<f32> {
    let mut out: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
    let n = out.len();
    for (j, &bits) in TRICKY_BITS.iter().enumerate() {
        if n > 0 {
            out[(salt + j * 5) % n] = f32::from_bits(bits);
        }
    }
    out
}

/// Bit patterns of a float slice (the only comparison this suite makes).
fn bits_of(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// A sorted 128-entry non-negative finite code-book built from random words
/// (sign and exponent MSB masked off keeps every entry finite and ≥ 0).
fn codebook(words: &[u32]) -> Vec<f32> {
    let mut table: Vec<f32> = words
        .iter()
        .take(128)
        .map(|&w| f32::from_bits(w & 0x3FFF_FFFF))
        .collect();
    table.resize(128, 0.0);
    table.sort_by(|a, b| a.partial_cmp(b).expect("masked entries are finite"));
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn abs_kernels_bit_identical_across_levels(
        words in proptest::collection::vec(any::<u32>(), MAX_LEN),
        salt in 0usize..1000,
    ) {
        let pool = floats_with_tricky(&words, salt);
        for len in boundary_lengths() {
            let xs = &pool[..len];
            let want_max = simd::abs_max_bits_at(Level::Scalar, xs);
            let mut want_bits = vec![0u32; len];
            simd::abs_bits_into_at(Level::Scalar, xs, &mut want_bits);
            for lvl in available_levels() {
                prop_assert_eq!(
                    simd::abs_max_bits_at(lvl, xs),
                    want_max,
                    "abs_max_bits {} len {}",
                    lvl,
                    len
                );
                let mut got = vec![0u32; len];
                simd::abs_bits_into_at(lvl, xs, &mut got);
                prop_assert_eq!(&got, &want_bits, "abs_bits_into {} len {}", lvl, len);
            }
        }
    }

    #[test]
    fn axpy_bit_identical_across_levels(
        xw in proptest::collection::vec(any::<u32>(), MAX_LEN),
        yw in proptest::collection::vec(any::<u32>(), MAX_LEN),
        aw in any::<u32>(),
        salt in 0usize..1000,
    ) {
        let x = floats_with_tricky(&xw, salt);
        let y0 = floats_with_tricky(&yw, salt.wrapping_add(7));
        let a = f32::from_bits(aw);
        for len in boundary_lengths() {
            let mut want = y0[..len].to_vec();
            simd::axpy_at(Level::Scalar, &mut want, a, &x[..len]);
            for lvl in available_levels() {
                let mut got = y0[..len].to_vec();
                simd::axpy_at(lvl, &mut got, a, &x[..len]);
                prop_assert_eq!(
                    bits_of(&got),
                    bits_of(&want),
                    "axpy {} len {} a {:#010x}",
                    lvl,
                    len,
                    aw
                );
            }
        }
    }

    #[test]
    fn quantize_dequant_bit_identical_across_levels(
        tw in proptest::collection::vec(any::<u32>(), 128),
        xw in proptest::collection::vec(any::<u32>(), MAX_LEN),
        invw in any::<u32>(),
        salt in 0usize..1000,
        small_n in 1usize..=127,
    ) {
        let table = codebook(&tw);
        let xs = floats_with_tricky(&xw, salt);
        // Any encoding is a valid scale: the kernels must agree even when
        // `inv` is NaN or infinite (the comparisons then all fail the same
        // way in every lane).
        let inv = f32::from_bits(invw);
        for len in boundary_lengths() {
            let mut want = vec![0u32; len];
            simd::quantize_sign_mag_at(Level::Scalar, &table, &xs[..len], inv, &mut want);
            let mut want_dec = vec![0f32; len];
            simd::dequant_sign_mag_at(Level::Scalar, &table, &want, 1.75, &mut want_dec);
            let mut want_acc = xs[..len].to_vec();
            simd::dequant_sign_mag_add_at(Level::Scalar, &table, &want, -0.5, &mut want_acc);
            for lvl in available_levels() {
                let mut got = vec![0u32; len];
                simd::quantize_sign_mag_at(lvl, &table, &xs[..len], inv, &mut got);
                prop_assert_eq!(&got, &want, "quantize {} len {}", lvl, len);
                let mut dec = vec![0f32; len];
                simd::dequant_sign_mag_at(lvl, &table, &got, 1.75, &mut dec);
                prop_assert_eq!(bits_of(&dec), bits_of(&want_dec), "dequant {} len {}", lvl, len);
                let mut acc = xs[..len].to_vec();
                simd::dequant_sign_mag_add_at(lvl, &table, &got, -0.5, &mut acc);
                prop_assert_eq!(
                    bits_of(&acc),
                    bits_of(&want_acc),
                    "dequant_add {} len {}",
                    lvl,
                    len
                );
            }
        }
        // The 128-entry code-book takes a specialized AVX2 path; any other
        // size goes through the generic gather loop. Cover both.
        let small = &table[..small_n];
        for len in boundary_lengths() {
            let mut want = vec![0u32; len];
            simd::quantize_sign_mag_at(Level::Scalar, small, &xs[..len], inv, &mut want);
            for lvl in available_levels() {
                let mut got = vec![0u32; len];
                simd::quantize_sign_mag_at(lvl, small, &xs[..len], inv, &mut got);
                prop_assert_eq!(&got, &want, "quantize {} table {} len {}", lvl, small_n, len);
            }
        }
    }

    #[test]
    fn byte_narrow_widen_bit_identical_across_levels(
        words in proptest::collection::vec(any::<u32>(), MAX_LEN),
    ) {
        for len in boundary_lengths() {
            let vals = &words[..len];
            let mut want = vec![0u8; len];
            simd::narrow_to_bytes_at(Level::Scalar, vals, &mut want);
            let mut want_wide = vec![0u32; len];
            simd::widen_from_bytes_at(Level::Scalar, &want, &mut want_wide);
            for lvl in available_levels() {
                let mut got = vec![0u8; len];
                simd::narrow_to_bytes_at(lvl, vals, &mut got);
                prop_assert_eq!(&got, &want, "narrow {} len {}", lvl, len);
                let mut wide = vec![0u32; len];
                simd::widen_from_bytes_at(lvl, &got, &mut wide);
                prop_assert_eq!(&wide, &want_wide, "widen {} len {}", lvl, len);
            }
        }
    }

    #[test]
    fn gather_bit_identical_across_levels(
        srcw in proptest::collection::vec(any::<u32>(), 977),
        idxw in proptest::collection::vec(any::<u32>(), MAX_LEN),
        salt in 0usize..1000,
    ) {
        // NaN/denormal payloads in the source must survive the gather
        // bit-exactly.
        let src = floats_with_tricky(&srcw, salt);
        let indices: Vec<u32> = idxw.iter().map(|&w| w % src.len() as u32).collect();
        for len in boundary_lengths() {
            let mut want = vec![0f32; len];
            simd::gather_f32_at(Level::Scalar, &src, &indices[..len], &mut want);
            for lvl in available_levels() {
                let mut got = vec![0f32; len];
                simd::gather_f32_at(lvl, &src, &indices[..len], &mut got);
                prop_assert_eq!(bits_of(&got), bits_of(&want), "gather {} len {}", lvl, len);
            }
        }
    }

    #[test]
    fn pack_unpack_all_widths_match_generic_reference(
        words in proptest::collection::vec(any::<u32>(), MAX_LEN),
        bits in 1u32..=32,
    ) {
        let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        for len in boundary_lengths() {
            let vals: Vec<u32> = words[..len].iter().map(|&w| w & mask).collect();
            let fast = pack_bits(&vals, bits);
            prop_assert_eq!(fast.len(), packed_len(len, bits));
            prop_assert_eq!(
                &fast,
                &pack_bits_generic(&vals, bits),
                "pack width {} len {}",
                bits,
                len
            );
            let mut unpacked = Vec::new();
            unpack_bits_into(&fast, bits, len, &mut unpacked);
            let mut reference = Vec::new();
            unpack_bits_generic_into(&fast, bits, len, &mut reference);
            prop_assert_eq!(&unpacked, &reference, "unpack width {} len {}", bits, len);
            prop_assert_eq!(&unpacked, &vals, "roundtrip width {} len {}", bits, len);
        }
    }

    #[test]
    fn top_k_matches_stable_sort_oracle(
        words in proptest::collection::vec(any::<u32>(), MAX_LEN),
        k_frac in 0.0f64..=1.0,
        salt in 0usize..1000,
    ) {
        // Oracle: stable sort of indices by descending abs-value bit
        // pattern. Stability gives lowest-index tie-breaking; the integer
        // key gives a total order that places NaN payloads above +inf —
        // exactly the documented selection contract.
        let pool = floats_with_tricky(&words, salt);
        let mut scratch = Vec::new();
        for len in boundary_lengths() {
            let xs = &pool[..len];
            let k = ((len as f64) * k_frac) as usize;
            let mut order: Vec<u32> = (0..len as u32).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(xs[i as usize].to_bits() & 0x7FFF_FFFF));
            let mut expect: Vec<u32> = order[..k.min(len)].to_vec();
            expect.sort_unstable();
            let got = top_k_indices_with(xs, k, &mut scratch);
            prop_assert_eq!(&got, &expect, "top_k len {} k {}", len, k);
            prop_assert_eq!(&got, &top_k_indices(xs, k), "pooled vs fresh len {}", len);
        }
    }
}

/// The dispatch controls themselves: the forced-scalar escape hatch must
/// constrain `level()` without hiding the vector paths from
/// `available_levels()`.
#[test]
fn dispatch_respects_force_scalar_contract() {
    let avail = available_levels();
    assert_eq!(avail[0], Level::Scalar);
    assert!(avail.contains(&simd::hw_level()));
    assert!(simd::level() <= simd::hw_level());
    let forced = std::env::var_os("GRACE_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0");
    if forced {
        assert_eq!(simd::level(), Level::Scalar, "GRACE_FORCE_SCALAR ignored");
    }
}

/// `Avx512` is available exactly when the CPU reports AVX-512 F, DQ and VL,
/// and `Avx2` whenever it reports AVX2 or `Avx512` is available.
#[test]
fn avx512_is_listed_exactly_when_its_three_features_are_detected() {
    let avail = available_levels();
    println!("available levels {avail:?}, dispatched {}", simd::level());
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        let wide = has!("avx512f") && has!("avx512dq") && has!("avx512vl");
        assert_eq!(avail.contains(&Level::Avx512), wide, "{avail:?}");
        assert_eq!(
            avail.contains(&Level::Avx2),
            wide || has!("avx2"),
            "{avail:?}"
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    assert_eq!(avail, [Level::Scalar]);
}

/// Deterministic non-periodic filler for the CRC buffers.
fn crc_fill(n: usize) -> Vec<u8> {
    let mut state = 0x9E37_79B9u32;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 24) as u8
        })
        .collect()
}

/// Every length 0..=4 KiB at every start offset 0..32 (all positions of a
/// 16-byte CLMUL lane and an 8-byte table word against the allocation), at
/// every level, against the bit-at-a-time definition. The lengths cross
/// every fold boundary: the 64-byte block of four 128-bit lanes, the
/// 256-byte block of four 512-bit vectors (where VPCLMULQDQ is present),
/// and several of each with every 64-byte, 16-byte and table remainder
/// behind them. The same bytes are re-laid at each offset, so the oracle
/// runs once per length.
#[test]
fn crc32_kernels_match_bitwise_oracle_at_every_length_and_alignment() {
    const MAX: usize = 4096;
    const _: () = assert!(MAX >= 3 * 256 + 3 * 64 + 16 + 15);
    let data = crc_fill(MAX);
    let want: Vec<u32> = (0..=MAX).map(|len| crc32_bitwise(&data[..len])).collect();
    let mut shifted = vec![0u8; MAX + 32];
    for offset in 0..32 {
        shifted[offset..offset + MAX].copy_from_slice(&data);
        for (len, &want) in want.iter().enumerate() {
            let input = &shifted[offset..offset + len];
            for lvl in available_levels() {
                let got = !simd::crc32_update_at(lvl, !0, input);
                assert_eq!(got, want, "{lvl}: offset {offset}, len {len}");
            }
        }
    }
}

/// Multi-megabyte buffers (a dense vgg19 frame is 6 MB): the 4-lane fold
/// loop runs tens of thousands of iterations and the odd length leaves a
/// 16-byte lane plus a table tail behind it.
#[test]
fn crc32_kernels_match_bitwise_oracle_on_large_buffers() {
    for len in [(1 << 20) + 3, 4 << 20] {
        let data = crc_fill(len + 1);
        for input in [&data[..len], &data[1..]] {
            let want = crc32_bitwise(input);
            assert_eq!(crc32(input), want, "dispatched, len {len}");
            for lvl in available_levels() {
                let got = !simd::crc32_update_at(lvl, !0, input);
                assert_eq!(got, want, "{lvl}: len {len}");
            }
        }
    }
}

/// zlib's reference values, through the dispatched path and every level.
#[test]
fn crc32_known_vectors_hold_at_every_level() {
    let vectors: [(&[u8], u32); 4] = [
        (b"", 0),
        (b"a", 0xE8B7_BE43),
        (b"123456789", 0xCBF4_3926),
        (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
    ];
    for (input, want) in vectors {
        assert_eq!(crc32(input), want);
        assert_eq!(crc32_bitwise(input), want);
        for lvl in available_levels() {
            assert_eq!(!simd::crc32_update_at(lvl, !0, input), want, "{lvl}");
        }
    }
    // 32 zero bytes and 32 0xFF bytes (iSCSI-style fixed patterns, IEEE
    // values): long enough to differ from the empty-string identity.
    assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding a buffer to `Crc32::update` in arbitrary pieces — across
    /// CLMUL/table thresholds in either direction — equals the one-shot.
    #[test]
    fn crc32_update_split_anywhere_equals_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..3000),
        cuts in proptest::collection::vec(any::<u16>(), 0..6),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut crc = Crc32::new();
        let mut at = 0;
        for cut in cuts {
            crc.update(&data[at..cut]);
            at = cut;
        }
        crc.update(&data[at..]);
        prop_assert_eq!(crc.finish(), crc32_bitwise(&data));
    }
}

/// Bit patterns with every NaN folded to one: which payload survives
/// `NaN · NaN` or `NaN + NaN` depends on operand order, which the compiler
/// is free to pick differently per body (scalar included).
fn bits_nan_folded(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|v| if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() })
        .collect()
}

/// Runs `gemm_nt_at` at every level into a NaN-filled `c` — the kernel
/// overwrites, it never accumulates into what it was handed — and requires
/// the `Scalar` body's bits.
fn assert_gemm_nt_matches_scalar(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) {
    let mut want = vec![f32::NAN; m * k];
    simd::gemm_nt_at(Level::Scalar, a, b, &mut want, m, n, k);
    for lvl in available_levels() {
        let mut got = vec![f32::NAN; m * k];
        simd::gemm_nt_at(lvl, a, b, &mut got, m, n, k);
        assert!(
            bits_nan_folded(&got) == bits_nan_folded(&want),
            "gemm_nt {lvl} m {m} n {n} k {k}"
        );
    }
}

/// Two input families per shape: raw IEEE-754 words (sums overflow, cancel
/// to NaN, sit in the denormals) and gradient-sized finite values, where a
/// reassociated or fused sum would show in the last bit — both with the
/// adversarial encodings spliced in.
fn gemm_inputs(len: usize, salt: usize) -> [Vec<f32>; 2] {
    let mut rng = seeded(salt as u64 ^ 0x6e74);
    let words: Vec<u32> = (0..len).map(|_| rng.gen()).collect();
    let small: Vec<u32> = (0..len)
        .map(|_| (rng.gen::<f32>() - 0.5).to_bits())
        .collect();
    [
        floats_with_tricky(&words, salt),
        floats_with_tricky(&small, salt + 1),
    ]
}

/// Every combination of row-tile remainder (m around 8 and 16), column
/// remainder (k around the 4-row pass) and reduction length, zero included;
/// then the panel's 256-step `p`-chunk edge and a three-chunk reduction.
#[test]
fn gemm_nt_matches_scalar_at_every_tile_remainder() {
    const DIMS: [usize; 11] = [0, 1, 3, 7, 8, 9, 15, 16, 17, 24, 33];
    let mut shapes = Vec::new();
    for m in DIMS {
        for n in DIMS {
            shapes.extend(DIMS.map(|k| (m, n, k)));
        }
        for n in [255, 256, 257, 768] {
            shapes.extend([0, 1, 4, 5, 9].map(|k| (m, n, k)));
        }
    }
    for (at, &(m, n, k)) in shapes.iter().enumerate() {
        let [a_words, a_small] = gemm_inputs(m * n, at);
        let [b_words, b_small] = gemm_inputs(k * n, at + 7);
        assert_gemm_nt_matches_scalar(&a_words, &b_words, m, n, k);
        assert_gemm_nt_matches_scalar(&a_small, &b_small, m, n, k);
        // A finite operand against the adversarial one: 0 · ∞ and ∞ − ∞
        // appear mid-chain instead of saturating the whole output.
        assert_gemm_nt_matches_scalar(&a_small, &b_words, m, n, k);
    }
}

/// The products the models' backward passes make: `Dense` dX for
/// vgg19-analog's seven layers and a resnet50-analog block at batch 16
/// (`m = batch, n = out, k = in`), a `Conv2d` input gradient
/// (`m = out_ch, n = output positions, k = in_ch·kh·kw`) and an LSTM step
/// (`m = batch, n = 4·hidden, k = in`).
#[test]
fn gemm_nt_matches_scalar_on_the_models_shapes() {
    let vgg19 = [96usize, 768, 768, 512, 512, 256, 256, 10];
    let mut shapes: Vec<(usize, usize, usize)> =
        vgg19.windows(2).map(|w| (16, w[1], w[0])).collect();
    shapes.extend([(16, 96, 96), (12, 36, 8 * 3 * 3), (20, 4 * 32, 24)]);
    for (at, &(m, n, k)) in shapes.iter().enumerate() {
        let [_, a] = gemm_inputs(m * n, at + 100);
        let [_, b] = gemm_inputs(k * n, at + 200);
        assert_gemm_nt_matches_scalar(&a, &b, m, n, k);
    }
}

/// The 16-lane body's edges: row counts around one and two 16-row panels
/// (where the AVX2 8-row panel and then the reference take the rest),
/// reductions around the panel's 256-step `p`-chunk, and column counts
/// around its 8-row pass of `B`.
#[test]
fn gemm_nt_matches_scalar_at_every_sixteen_lane_boundary() {
    let mut at = 900;
    for m in [1, 7, 8, 15, 16, 17, 31, 32, 33] {
        for n in [255, 256, 257] {
            for k in [1, 7, 8, 9, 17] {
                let [a_words, a_small] = gemm_inputs(m * n, at);
                let [b_words, b_small] = gemm_inputs(k * n, at + 7);
                assert_gemm_nt_matches_scalar(&a_words, &b_words, m, n, k);
                assert_gemm_nt_matches_scalar(&a_small, &b_small, m, n, k);
                assert_gemm_nt_matches_scalar(&a_small, &b_words, m, n, k);
                at += 1;
            }
        }
    }
}

/// Runs `gemm_tn_at` at every level into a NaN-filled `c` and requires the
/// `Scalar` body's bits.
fn assert_gemm_tn_matches_scalar(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut want = vec![f32::NAN; k * n];
    simd::gemm_tn_at(Level::Scalar, a, b, &mut want, m, k, n);
    for lvl in available_levels() {
        let mut got = vec![f32::NAN; k * n];
        simd::gemm_tn_at(lvl, a, b, &mut got, m, k, n);
        assert!(
            bits_nan_folded(&got) == bits_nan_folded(&want),
            "gemm_tn {lvl} m {m} k {k} n {n}"
        );
    }
}

/// Half of `xs` set to ±0 (ReLU's output, and the entries `gemm_tn` skips),
/// the adversarial encodings elsewhere left in place.
fn relu_like(mut xs: Vec<f32>, salt: usize) -> Vec<f32> {
    for (i, x) in xs.iter_mut().enumerate() {
        if (i * 7 + salt) % 4 < 2 {
            *x = if i % 3 == 0 { -0.0 } else { 0.0 };
        }
    }
    xs
}

/// Checks one `gemm_tn` shape over four input families: raw words against
/// raw words, gradient-sized values, finite `A` against the adversarial
/// `B`, and ReLU-like operands (half ±0) against the adversarial other side
/// — so `a = 0` meets `b = ±∞`/NaN (skipped: the term is absent) and
/// `a = ±∞`/NaN meets `b = 0` (not skipped: the term is NaN).
fn check_gemm_tn(m: usize, k: usize, n: usize, salt: usize) {
    let [a_words, a_small] = gemm_inputs(m * k, salt);
    let [b_words, b_small] = gemm_inputs(m * n, salt + 7);
    assert_gemm_tn_matches_scalar(&a_words, &b_words, m, k, n);
    assert_gemm_tn_matches_scalar(&a_small, &b_small, m, k, n);
    assert_gemm_tn_matches_scalar(&a_small, &b_words, m, k, n);
    let a_relu = relu_like(a_small, salt);
    assert_gemm_tn_matches_scalar(&a_relu, &b_words, m, k, n);
    assert_gemm_tn_matches_scalar(&a_words, &relu_like(b_small, salt), m, k, n);
}

/// Every combination of column remainder (n around the 8- and 64-column
/// strips, and under one vector, where the whole call is the reference),
/// output row count and reduction length, zero included; then reductions
/// that cross the kernel's 256-row list into a second and third chunk.
#[test]
fn gemm_tn_matches_scalar_at_every_tile_remainder() {
    const DIMS: [usize; 12] = [0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33];
    let mut shapes = Vec::new();
    for m in DIMS {
        for k in DIMS {
            shapes.extend(DIMS.map(|n| (m, k, n)));
            shapes.extend([63, 64, 65, 73].map(|n| (m, k, n)));
        }
    }
    for m in [255, 256, 257, 600] {
        for k in [1, 3] {
            shapes.extend([0, 7, 8, 9, 65, 75].map(|n| (m, k, n)));
        }
    }
    for (at, &(m, k, n)) in shapes.iter().enumerate() {
        check_gemm_tn(m, k, n, at);
    }
}

/// The products the models make: `Dense` dW for vgg19-analog's seven layers
/// and resnet50-analog's stem, block and head at batch 16 (`m = batch,
/// k = in, n = out`), the `Conv2d` input-column gradient `Wᵀ · dY`
/// (`m = out_ch, k = in_ch·kh·kw, n = output positions`), an LSTM step's
/// `d1`/`d2` (`m = batch, k = in` or `hidden, n = 4·hidden`) and
/// PowerSGD's `Mᵀ · P` at ranks 1, 2 and 4 (`n = r`: the reference path).
#[test]
fn gemm_tn_matches_scalar_on_the_models_shapes() {
    let vgg19 = [96usize, 768, 768, 512, 512, 256, 256, 10];
    let mut shapes: Vec<(usize, usize, usize)> =
        vgg19.windows(2).map(|w| (16, w[0], w[1])).collect();
    shapes.extend([(16, 48, 96), (16, 96, 96), (16, 96, 8)]);
    shapes.extend([(12, 8 * 3 * 3, 36), (20, 24, 4 * 32), (20, 32, 4 * 32)]);
    shapes.extend([1, 2, 4].map(|r| (64, 48, r)));
    for (at, &(m, k, n)) in shapes.iter().enumerate() {
        let [_, a] = gemm_inputs(m * k, at + 300);
        let [_, b] = gemm_inputs(m * n, at + 400);
        assert_gemm_tn_matches_scalar(&relu_like(a.clone(), at), &b, m, k, n);
        assert_gemm_tn_matches_scalar(&a, &b, m, k, n);
    }
}

/// The 16-lane body's edges: column counts around one 16-column strip (and
/// under it, where the AVX2 body runs) and around the 128-column strip,
/// reductions around the 256-row list, and the output rows of one pool
/// range (`gemm_tn_rows_at` over a sub-range of `0..k`) against the same
/// rows of the reference's whole product.
#[test]
fn gemm_tn_matches_scalar_at_every_sixteen_lane_boundary() {
    let mut at = 1200;
    for n in [7, 8, 15, 16, 17, 127, 128, 129] {
        for m in [1, 16, 255, 256, 257] {
            check_gemm_tn(m, 5, n, at);
            at += 1;
        }
        let (m, k, rows) = (257, 9, 2..7);
        let [a_words, a_small] = gemm_inputs(m * k, at);
        let [b_words, b_small] = gemm_inputs(m * n, at + 7);
        for (a, b) in [(relu_like(a_small, at), &b_words), (a_words, &b_small)] {
            let mut whole = vec![f32::NAN; k * n];
            simd::gemm_tn_at(Level::Scalar, &a, b, &mut whole, m, k, n);
            let want = &whole[rows.start * n..rows.end * n];
            for lvl in available_levels() {
                let mut got = vec![f32::NAN; rows.len() * n];
                simd::gemm_tn_rows_at(lvl, &a, b, &mut got, m, k, n, rows.clone());
                assert!(
                    bits_nan_folded(&got) == bits_nan_folded(want),
                    "gemm_tn_rows_at {lvl} m {m} k {k} n {n} rows {rows:?}"
                );
            }
        }
        at += 1;
    }
}

/// The forward product at every level against its `Scalar` body: the row
/// counts around the 8-row blocks and a pool range's edges, widths around
/// one and two vectors, ReLU-like `A` (the `a == 0` skip) against the
/// adversarial `B` and the other way round. NaN payloads aside, as for the
/// other products: which one `acc + a·b` keeps is the compiler's operand
/// order.
#[test]
fn matmul_matches_scalar_at_every_level() {
    let mut at = 1500;
    for m in [1, 7, 8, 15, 16, 17, 31, 32, 33] {
        for (k, n) in [(9, 7), (17, 16), (8, 33), (24, 129)] {
            let [a_words, a_small] = gemm_inputs(m * k, at);
            let [b_words, b_small] = gemm_inputs(k * n, at + 7);
            let pairs = [
                (a_words.clone(), b_words.clone()),
                (a_small.clone(), b_small.clone()),
                (relu_like(a_small, at), b_words),
                (a_words, relu_like(b_small, at)),
            ];
            for (a, b) in &pairs {
                let want = linalg::matmul_at(Level::Scalar, a, b, m, k, n);
                for lvl in available_levels() {
                    let got = linalg::matmul_at(lvl, a, b, m, k, n);
                    assert!(
                        bits_nan_folded(&got) == bits_nan_folded(&want),
                        "matmul {lvl} m {m} k {k} n {n}"
                    );
                }
            }
            at += 1;
        }
    }
}

/// `len` codes of width `bits` from a fixed multiplicative sequence.
fn codes_of(len: usize, bits: u32, salt: u32) -> Vec<u32> {
    let mask = u32::MAX >> (32 - bits);
    (0..len as u32)
        .map(|i| (i ^ salt).wrapping_mul(0x9E37_79B9).rotate_left(i % 32) & mask)
        .collect()
}

/// Packs and unpacks `vals` through the word body, the streaming
/// writer/reader and the bit-cursor oracle, and requires all three to agree.
fn assert_pack_matches_oracle(vals: &[u32], bits: u32) {
    let len = vals.len();
    let want = pack_bits_generic(vals, bits);
    assert_eq!(want.len(), packed_len(len, bits));
    assert!(pack_bits(vals, bits) == want, "pack {bits}-bit len {len}");

    let mut streamed = vec![0xAAu8; want.len()];
    let mut writer = BitWriter::new(&mut streamed, bits);
    let (groups, tail) = vals.as_chunks::<8>();
    groups.iter().for_each(|group| writer.write8(group));
    writer.finish(tail);
    assert!(streamed == want, "BitWriter {bits}-bit len {len}");

    let mut reference = Vec::new();
    unpack_bits_generic_into(&want, bits, len, &mut reference);
    assert!(reference == vals, "oracle roundtrip {bits}-bit len {len}");
    let mut unpacked = vec![7u32; 3];
    unpack_bits_into(&want, bits, len, &mut unpacked);
    assert!(unpacked == reference, "unpack {bits}-bit len {len}");

    let mut reader = BitReader::new(&want, bits);
    let mut read: Vec<u32> = (0..len.div_ceil(8)).flat_map(|_| reader.read8()).collect();
    assert!(read[len..].iter().all(|&c| c == 0), "padding reads as zero");
    read.truncate(len);
    assert!(read == reference, "BitReader {bits}-bit len {len}");
}

/// Every width × every length 0..=257: all remainders mod 8 (the group) and
/// mod 64 (the bit buffer), and every distance from the end of the buffer at
/// which the reader's loads stop fitting.
#[test]
fn pack_unpack_match_oracle_at_every_width_and_length() {
    for bits in 1..=32 {
        for len in 0..=257 {
            assert_pack_matches_oracle(&codes_of(len, bits, len as u32), bits);
        }
    }
}

/// A million codes (plus an odd tail) at the widths the codecs emit and the
/// extremes.
#[test]
fn pack_unpack_match_oracle_on_a_large_buffer() {
    for bits in [1, 2, 7, 8, 9, 16, 31, 32] {
        assert_pack_matches_oracle(&codes_of((1 << 20) + 5, bits, bits), bits);
    }
}

/// The panic message of a closure, or `None` if it returns.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> Option<String> {
    let payload = std::panic::catch_unwind(f).err()?;
    let text = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
    Some(text.expect("a string panic payload"))
}

/// An oversized code is rejected with the oracle's message, naming the
/// *first* offender — wherever it sits in its group of eight, in the bulk
/// or in the tail, and with a later offender behind it.
#[test]
fn oversized_codes_panic_at_the_same_first_offender_as_the_oracle() {
    for bits in [1u32, 2, 7, 8, 9, 16, 31] {
        let limit = 1u32 << bits;
        for len in [1usize, 7, 8, 9, 64, 77] {
            for at in [0, len / 2, len - 1] {
                let mut vals = codes_of(len, bits, 3);
                vals[at] = limit + at as u32;
                vals[len - 1] |= limit;
                let want = panic_message(|| drop(pack_bits_generic(&vals, bits)));
                assert!(want.as_deref().is_some_and(|m| m.contains("does not fit")));
                let got = panic_message(|| drop(pack_bits(&vals, bits)));
                assert_eq!(got, want, "{bits}-bit len {len} offender at {at}");
            }
        }
    }
    assert!(panic_message(|| drop(pack_bits(&[u32::MAX; 9], 32))).is_none());
}

/// Gradient-like values spliced with every adversarial encoding, plus a
/// magnitude far above the rest (its level saturates at `s`).
fn level_inputs(len: usize, salt: usize) -> Vec<f32> {
    let mut rng = seeded(salt as u64);
    let words: Vec<u32> = (0..len)
        .map(|_| (rng.gen::<f32>() - 0.5).to_bits())
        .collect();
    let mut xs = floats_with_tricky(&words, salt);
    if len > 40 {
        xs[len / 3] = 3.0e9;
    }
    xs
}

/// Finite gradient-like values: the norm is finite, so every group takes
/// the rounding's fast branch at widths up to 8.
fn finite_level_inputs(len: usize, salt: usize) -> Vec<f32> {
    level_inputs(len, salt)
        .iter()
        .map(|v| if v.is_finite() { v % 4.0 } else { 0.25 })
        .collect()
}

/// Level counts whose codes are 1, 2, …, 8 bits wide (the widths the
/// vector body takes, some at both ends of a width), one wider (10 bits,
/// past the decode table), and two so large that finite inputs reach the
/// rounding's libm branch.
const LEVEL_COUNTS: [u32; 14] = [
    1,
    2,
    3,
    4,
    7,
    15,
    16,
    31,
    63,
    64,
    255,
    1000,
    5_000_000,
    u32::MAX,
];

/// Lengths on both sides of the 4- and 8-lane boundaries and of a few
/// whole groups, and one that leaves a partial group after many.
const LEVEL_LENGTHS: [usize; 17] = [
    0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 63, 64, 65, 100, 1501,
];

/// Runs the kernel pair at every available level, and its reference, over
/// `xs` and then `more` from one RNG stream each, and requires identical
/// streams, norms, decoded bits and RNG state after every call.
fn assert_level_kernels_match_reference(xs: &[f32], more: &[f32], s: u32) {
    let bits = level_bits(s);
    let mut rng_ref = seeded(42);
    let want: Vec<_> = [xs, more]
        .iter()
        .map(|xs| {
            (
                quantize_levels_reference(xs, s, &mut rng_ref),
                rng_ref.clone(),
            )
        })
        .collect();
    for lvl in available_levels() {
        let mut rng = seeded(42);
        for (xs, ((want_signs, want_levels, want_norm), want_rng)) in [xs, more].iter().zip(&want) {
            let n = xs.len();
            let what = format!("{lvl} s {s} len {n}");
            let mut signs = vec![0x55u8; packed_len(n, 1)];
            let mut levels = vec![0x55u8; packed_len(n, bits)];
            let norm = simd::quantize_levels_at(lvl, xs, s, &mut rng, &mut signs, &mut levels);
            assert_eq!(norm.to_bits(), want_norm.to_bits(), "norm, {what}");
            assert!(signs == *want_signs, "sign bitmap, {what}");
            assert!(levels == *want_levels, "level stream, {what}");
            assert_eq!(rng, *want_rng, "RNG state afterwards, {what}");

            // A NaN norm must decode to the same NaN bits, so decode with
            // the real one and with a finite stand-in.
            for norm in [norm, 1.75] {
                let want = dequantize_levels_reference(&signs, &levels, bits, s, norm, n);
                let mut got = vec![9.0f32; 2];
                simd::dequantize_levels_at(lvl, &signs, &levels, bits, s, norm, n, &mut got);
                assert!(bits_of(&got) == bits_of(&want), "decode, {what}");
            }
        }
    }
    // The dispatched entry points take the cached level's body.
    let mut rng = seeded(42);
    let n = xs.len();
    let mut signs = vec![0u8; packed_len(n, 1)];
    let mut levels = vec![0u8; packed_len(n, bits)];
    let norm = quantize_levels(xs, s, &mut rng, &mut signs, &mut levels);
    let ((want_signs, want_levels, want_norm), want_rng) = &want[0];
    assert!(norm.to_bits() == want_norm.to_bits() && signs == *want_signs);
    assert!(
        levels == *want_levels && rng == *want_rng,
        "dispatched, s {s} len {n}"
    );
    let mut got = Vec::new();
    dequantize_levels(&signs, &levels, bits, s, norm, n, &mut got);
    let want = dequantize_levels_reference(&signs, &levels, bits, s, norm, n);
    assert!(
        bits_of(&got) == bits_of(&want),
        "dispatched decode, s {s} len {n}"
    );
}

/// The level-quantizer kernel pair at every level against the per-element
/// loops it replaced: every code width the vector body takes and one
/// wider, lengths around every lane and group boundary, slices starting at
/// every offset within a group, adversarial encodings (NaN and ∞ make the
/// norm non-finite, so every group takes the libm branch) and finite
/// inputs (the norm is finite and every branch of the rounding runs on
/// ordinary values).
#[test]
fn level_kernels_match_reference_on_adversarial_inputs() {
    for s in LEVEL_COUNTS {
        for len in LEVEL_LENGTHS {
            let more = finite_level_inputs(len + 11, len + 7);
            assert_level_kernels_match_reference(&level_inputs(len, len + 3), &more, s);
            let finite = finite_level_inputs(len + 7, len + 5);
            for offset in 0..8 {
                let xs = &finite[offset..][..len];
                assert_level_kernels_match_reference(xs, &more, s);
            }
        }
    }
}

/// Groups that hold a value the fast branch must not take, among finite
/// values: −0.0 (sign bit set, yet not `< 0.0`: its sign bit in the stream
/// is 0), +∞ (the norm is ∞, so that group's `x` is NaN and it alone takes
/// the libm branch, with the draws it would have had), NaN (a NaN norm:
/// every group takes it) and a zero norm (no draw at all).
#[test]
fn level_kernels_keep_signs_draws_and_branches_on_special_values() {
    for s in LEVEL_COUNTS {
        for len in [1usize, 7, 8, 9, 16, 17, 40] {
            for at in 0..len.min(17) {
                let more = finite_level_inputs(19, at);
                for special in [-0.0f32, f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                    let mut xs = finite_level_inputs(len, at + len);
                    xs[at] = special;
                    assert_level_kernels_match_reference(&xs, &more, s);
                }
                // Negative zeros among positive ones at a finite norm: every
                // sign bit in the stream stays 0.
                let mut xs: Vec<f32> = (0..len).map(|i| (i % 3) as f32 * 0.5).collect();
                xs[at] = -0.0;
                assert_level_kernels_match_reference(&xs, &more, s);
            }
        }
        // An all-zero tensor, signed zeros included: zero norm, no draw.
        let zeros: Vec<f32> = (0..77)
            .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
            .collect();
        assert_level_kernels_match_reference(&zeros, &zeros[..9], s);
        for lvl in available_levels() {
            let (mut rng, untouched) = (seeded(9), seeded(9));
            let mut signs = vec![0xFFu8; 10];
            let mut levels = vec![0xFFu8; packed_len(77, level_bits(s))];
            let norm = simd::quantize_levels_at(lvl, &zeros, s, &mut rng, &mut signs, &mut levels);
            assert_eq!(norm, 0.0);
            assert_eq!(rng, untouched, "a zero norm draws nothing, {lvl} s {s}");
            assert!(levels.iter().chain(&signs).all(|&b| b == 0), "{lvl} s {s}");
        }
    }
}

/// A stream is free to carry codes above `s` (a peer wrote it): every
/// possible code decodes to the reference's `norm * l as f32 / s`, at every
/// level.
#[test]
fn level_codes_above_s_decode_like_the_reference() {
    for (s, bits) in [
        (1u32, 1u32),
        (2, 2),
        (4, 3),
        (9, 4),
        (17, 5),
        (40, 6),
        (64, 7),
        (255, 8),
        (1000, 10),
        (5, 12),
    ] {
        let n = (1usize << bits) + 3;
        let codes: Vec<u32> = (0..n as u32).map(|i| i % (1 << bits)).collect();
        let levels = pack_bits_generic(&codes, bits);
        let signs = pack_bits_generic(&codes_of(n, 1, 11), 1);
        for norm in [0.0f32, 2.5, f32::INFINITY, f32::NAN, 1.0e-42] {
            let want = dequantize_levels_reference(&signs, &levels, bits, s, norm, n);
            for lvl in available_levels() {
                let mut got = Vec::new();
                simd::dequantize_levels_at(lvl, &signs, &levels, bits, s, norm, n, &mut got);
                assert!(
                    bits_of(&got) == bits_of(&want),
                    "{lvl} s {s} bits {bits} norm {norm}"
                );
            }
        }
    }
}

/// The serial left fold `sum_squares` must reproduce, as `norm2` and the
/// level quantizer wrote it.
fn serial_sum_squares(xs: &[f32]) -> f32 {
    xs.iter().map(|v| v * v).sum::<f32>()
}

fn assert_sum_squares_matches_serial(xs: &[f32], what: &str) {
    let want = serial_sum_squares(xs).to_bits();
    for lvl in available_levels() {
        let got = simd::sum_squares_at(lvl, xs).to_bits();
        assert_eq!(got, want, "{lvl}, {what}: {got:#x} vs {want:#x}");
    }
    assert_eq!(simd::sum_squares(xs).to_bits(), want, "dispatched, {what}");
}

/// The blocked sum of squares against the serial fold, bit for bit, at
/// every level: the empty and all-zero inputs (the toolchain's `Sum`
/// neutral element), −0.0, subnormal addends and subnormal sums, ulp ties,
/// sums that cross a binade inside a block, and lengths one short of, at
/// and one past one and two blocks.
#[test]
fn sum_squares_matches_the_serial_fold() {
    const BLOCK: usize = simd::SUM_SQUARES_BLOCK;
    assert_sum_squares_matches_serial(&[], "empty");
    for len in [
        1,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        2 * BLOCK - 1,
        2 * BLOCK,
        2 * BLOCK + 1,
    ] {
        let gradient = finite_level_inputs(len, len);
        assert_sum_squares_matches_serial(&gradient, &format!("gradient of {len}"));
        for zero in [0.0f32, -0.0] {
            assert_sum_squares_matches_serial(&vec![zero; len], &format!("{zero:?} x {len}"));
        }
        let mut signed = gradient.clone();
        signed.iter_mut().step_by(3).for_each(|v| *v = -0.0);
        assert_sum_squares_matches_serial(&signed, &format!("-0.0 among {len}"));
    }
    // Squares far under the sum's ulp, subnormal squares (a subnormal sum
    // that grows into the smallest normal binades), and subnormal inputs
    // whose squares are zero.
    let tiny: Vec<f32> = (0..5 * BLOCK).map(|i| (i % 7) as f32 * 1.0e-20).collect();
    assert_sum_squares_matches_serial(&tiny, "subnormal squares");
    let denormal: Vec<f32> = (0..3 * BLOCK)
        .map(|i| f32::from_bits(i as u32 + 1))
        .collect();
    assert_sum_squares_matches_serial(&denormal, "subnormal inputs");
    // 64² puts the sum in [2¹², 2¹³), whose ulp is 2⁻¹¹: (8j · 2⁻⁹)² is
    // j² · 2⁻¹² = j²/2 ulps, a tie for every odd j. Each 0.04² between
    // them adds 3 ulps, so the mantissas the ties meet are even and odd.
    for odd in [1u32, 3, 5, 7] {
        let mut xs = vec![0.04f32; 3 * BLOCK];
        xs[0] = 64.0;
        for (k, v) in xs.iter_mut().enumerate().skip(BLOCK).step_by(5) {
            *v = (8 * (odd + 2 * (k % 3) as u32)) as f32 / 512.0;
        }
        assert_sum_squares_matches_serial(&xs, &format!("ties from {odd}"));
    }
    // Sums that grow through many binades: each crossing lands inside some
    // block.
    let growing: Vec<f32> = (0..40 * BLOCK).map(|i| 0.5 + (i % 11) as f32).collect();
    assert_sum_squares_matches_serial(&growing, "growing");
    for start in [8191.5f32, 1.0e30, 3.0e38] {
        let mut xs = vec![1.0e-3f32; 4 * BLOCK];
        xs[0] = start.sqrt();
        xs[BLOCK + 17] = (start * 0.25).sqrt();
        assert_sum_squares_matches_serial(&xs, &format!("crossing from {start}"));
    }
    // Every lane position of a block the fast path would otherwise take:
    // NaN, ±∞ and addends of 2²² ulps or more (the sum is near 2¹²,
    // 2²² ulps of it are 2¹¹ = 45.25²).
    for lane in 0..8 {
        for at in [
            BLOCK + lane,
            2 * BLOCK + 8 * 17 + lane,
            3 * BLOCK - 8 + lane,
        ] {
            for special in [
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                45.25,
                46.0,
                -1.0e6,
                f32::MAX,
            ] {
                let mut xs = vec![0.01f32; 3 * BLOCK + 5];
                xs[0] = 64.0;
                xs[at] = special;
                assert_sum_squares_matches_serial(&xs, &format!("{special} at {at}"));
            }
        }
    }
}

/// Every pass of the level decode's fold against decode-then-mean — the
/// first contribution decoded, the others added, the sum scaled by `1/n` —
/// at every dispatch level: finite contributions, ones with a NaN norm (a
/// NaN added onto a NaN keeps the accumulator's), and lengths around every
/// group boundary.
#[test]
fn level_fold_matches_decode_then_mean() {
    use simd::Fold;
    for s in [1u32, 3, 15, 64, 255, 1000] {
        let bits = level_bits(s);
        for len in [0usize, 1, 7, 8, 9, 17, 64, 1501] {
            let encode = |xs: &[f32], seed: u64| {
                let mut signs = vec![0u8; packed_len(len, 1)];
                let mut levels = vec![0u8; packed_len(len, bits)];
                let norm = quantize_levels(xs, s, &mut seeded(seed), &mut signs, &mut levels);
                (signs, levels, norm)
            };
            let with_nan = |salt| {
                let mut xs = finite_level_inputs(len, salt);
                if len > 0 {
                    xs[len / 2] = f32::NAN;
                }
                xs
            };
            // NaN norms decode to NaNs whose signs are the elements' own,
            // so the last pass adds a NaN onto a NaN of another sign.
            let parts = [
                encode(&finite_level_inputs(len, 1), 11),
                encode(&with_nan(3), 12),
                encode(&finite_level_inputs(len, 2), 13),
                encode(&with_nan(4), 14),
            ];
            for n in 1..=parts.len() {
                let mut want = Vec::new();
                for (i, (signs, levels, norm)) in parts[..n].iter().enumerate() {
                    let decoded = dequantize_levels_reference(signs, levels, bits, s, *norm, len);
                    if i == 0 {
                        want = decoded;
                    } else {
                        // A NaN onto a NaN keeps the accumulator's: the fold
                        // pins the choice a plain add leaves to codegen.
                        for (a, d) in want.iter_mut().zip(&decoded) {
                            *a = if a.is_nan() { *a } else { *a + d };
                        }
                    }
                }
                let inv = 1.0 / n as f32;
                want.iter_mut().for_each(|a| *a *= inv);
                for lvl in available_levels() {
                    let mut got = vec![7.0f32; 3];
                    for (i, (signs, levels, norm)) in parts[..n].iter().enumerate() {
                        let fold = match (i, i + 1 == n) {
                            (0, _) => Fold::Assign,
                            (_, false) => Fold::Add,
                            (_, true) => Fold::AddScale(inv),
                        };
                        let out = &mut got;
                        simd::dequantize_levels_fold_at(
                            lvl, signs, levels, bits, s, *norm, len, out, fold,
                        );
                    }
                    if n == 1 {
                        got.iter_mut().for_each(|a| *a *= inv);
                    }
                    let what = format!("{lvl} s {s} len {len} n {n}");
                    assert!(bits_of(&got) == bits_of(&want), "{what}");
                }
            }
        }
    }
}

/// NaNs of distinct payloads and signs, one per rank.
const RANK_NANS: [u32; 3] = [0x7fc0_0001, 0xffc0_0002, 0x7fc0_0003];

/// Every cross-rank sum keeps the lowest rank's NaN where two or more ranks
/// hold one: `simd::sum_into` (the board, the simulator's lanes) and its
/// little-endian byte form at byte offsets 0–3 (the socket hub, the region
/// fold), both at every level, the fold's `Add` and `AddScale` passes through `apply` and
/// `apply_iter` (the gathered merge), and `Tensor::add_assign` under
/// `mean_of`'s two passes (add in rank order, then scale by `1/n`). Lengths
/// 1–64, the NaNs at every position, 2 and 3 contributors. Which NaN a
/// plain `+` keeps is codegen's choice, and debug and release builds choose
/// differently, so CI runs this in both.
#[test]
fn every_cross_rank_sum_keeps_the_lowest_ranks_nan() {
    use grace_tensor::pack::{add_f32s_le_at, bytes_to_f32s, extend_f32s_le};
    use grace_tensor::Tensor;
    use simd::Fold;

    // (contributors, the ranks holding a NaN)
    let cases: [(usize, &[usize]); 5] = [
        (2, &[0, 1]),
        (3, &[0, 1, 2]),
        (3, &[0, 1]),
        (3, &[0, 2]),
        (3, &[1, 2]),
    ];
    for (n, holders) in cases {
        let inv = 1.0 / n as f32;
        for len in 1..=64usize {
            for pos in 0..len {
                let parts: Vec<Vec<f32>> = (0..n)
                    .map(|r| {
                        let mut xs: Vec<f32> =
                            (0..len).map(|i| i as f32 * 0.75 - r as f32 * 1.5).collect();
                        if holders.contains(&r) {
                            xs[pos] = f32::from_bits(RANK_NANS[r]);
                        }
                        xs
                    })
                    .collect();
                let mut want_sum: Vec<u32> = (0..len)
                    .map(|i| parts.iter().map(|p| p[i]).reduce(|a, b| a + b).unwrap())
                    .map(f32::to_bits)
                    .collect();
                want_sum[pos] = RANK_NANS[holders[0]];
                let want_mean: Vec<u32> = want_sum
                    .iter()
                    .map(|&b| (f32::from_bits(b) * inv).to_bits())
                    .collect();
                let what =
                    format!("{n} contributors, NaNs at ranks {holders:?}, len {len} pos {pos}");

                for lvl in available_levels() {
                    let mut acc = parts[0].clone();
                    for p in &parts[1..] {
                        simd::sum_into_at(lvl, &mut acc, p);
                    }
                    assert!(bits_of(&acc) == want_sum, "sum_into {lvl}: {what}");

                    for offset in 0..4 {
                        let mut acc = vec![0u8; offset];
                        extend_f32s_le(&mut acc, &parts[0]);
                        for p in &parts[1..] {
                            let mut src = vec![0u8; 3 - offset];
                            extend_f32s_le(&mut src, p);
                            add_f32s_le_at(lvl, &mut acc[offset..], &src[3 - offset..]);
                        }
                        let got = bytes_to_f32s(&acc[offset..]);
                        assert!(
                            bits_of(&got) == want_sum,
                            "add_f32s_le {lvl} offset {offset}: {what}"
                        );
                    }
                }

                for (last, want) in [(Fold::Add, &want_sum), (Fold::AddScale(inv), &want_mean)] {
                    let fold = |r: usize| match r {
                        0 => Fold::Assign,
                        r if r + 1 == n => last,
                        _ => Fold::Add,
                    };
                    let (mut by_apply, mut by_iter) = (Vec::new(), Vec::new());
                    for (r, p) in parts.iter().enumerate() {
                        fold(r).apply(&mut by_apply, p.clone());
                        fold(r).apply_iter(&mut by_iter, len, p.iter().copied());
                    }
                    assert!(bits_of(&by_apply) == *want, "apply, last {last:?}: {what}");
                    assert!(
                        bits_of(&by_iter) == *want,
                        "apply_iter, last {last:?}: {what}"
                    );
                }

                let mut t = Tensor::from_vec(parts[0].clone());
                for p in &parts[1..] {
                    t.add_assign(&Tensor::from_vec(p.clone()));
                }
                assert!(
                    bits_of(t.as_slice()) == want_sum,
                    "Tensor::add_assign: {what}"
                );
                t.scale(inv);
                assert!(
                    bits_of(t.as_slice()) == want_mean,
                    "mean_of's passes: {what}"
                );
            }
        }
    }
}

/// Lengths for the top-k selection: around the chunk width, around partial
/// tail chunks, a few thousand (4 096 ± 1) and resnet50-analog's 96 × 96
/// weight.
fn top_k_lengths() -> Vec<usize> {
    let mut out = vec![0, 1, 2];
    for chunks in [1usize, 2, 3, 6, 48] {
        let len = chunks * CHUNK;
        out.extend([len - 1, len, len + 1]);
    }
    out.extend([100, 1501, 4095, 4096, 4097, 9216]);
    out
}

/// The `k`s every input is selected at: the edges, resnet50's 1 % and
/// heavier ratios, and both sides of the switch to the full quickselect
/// (fewer than `2k` chunks).
fn top_k_ks(len: usize) -> Vec<usize> {
    let half_chunks = len.div_ceil(CHUNK) / 2;
    let mut ks = vec![0, 1, 2, len / 100, len.div_ceil(100), len / 16, len / 2];
    ks.extend([half_chunks.saturating_sub(1), half_chunks, half_chunks + 1]);
    ks.extend([len.saturating_sub(1), len, len + 1]);
    ks
}

/// Requires the candidate-set selection to return what the full quickselect
/// returns at every level, and the stable-sort definition to agree.
fn assert_top_k_matches_oracle(xs: &[f32], k: usize, what: &str) {
    let mut scratch = vec![0xDEAD_BEEF; 3];
    let got = top_k_indices_with(xs, k, &mut scratch);
    for lvl in available_levels() {
        let want = top_k_indices_quickselect_at(lvl, xs, k, &mut Vec::new());
        assert!(got == want, "{what}: len {} k {k} at {lvl}", xs.len());
    }
    let mut order: Vec<u32> = (0..xs.len() as u32).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(xs[i as usize].to_bits() & 0x7FFF_FFFF));
    order.truncate(k);
    order.sort_unstable();
    assert!(
        got == order,
        "{what}: len {} k {k} vs stable sort",
        xs.len()
    );
    assert_eq!(got, top_k_indices(xs, k), "pooled vs fresh");
}

/// Named inputs of length `len`: random encodings with every tricky bit
/// pattern spliced in, gradient-like values, all-equal values, signed-zero
/// runs among a few values, NaN and ±∞ among gradient-like values, and a
/// handful of distinct magnitudes (ties everywhere).
fn top_k_inputs(len: usize) -> Vec<(&'static str, Vec<f32>)> {
    let mut rng = seeded(len as u64 + 17);
    let words: Vec<u32> = (0..len).map(|_| rng.gen()).collect();
    let gradient: Vec<f32> = (0..len)
        .map(|_| {
            let u = rng.gen::<f32>() * 2.0 - 1.0;
            u * u * u * 0.01
        })
        .collect();
    let mut specials = gradient.clone();
    for (j, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN]
        .into_iter()
        .enumerate()
    {
        if len > 0 {
            specials[(j * 37 + len / 3) % len] = v;
        }
    }
    let zeros = (0..len)
        .map(|i| match (i / 5) % 4 {
            0 => 0.0,
            1 => -0.0,
            2 => gradient[i],
            _ => {
                if i % 2 == 0 {
                    0.0
                } else {
                    -0.0
                }
            }
        })
        .collect();
    let few = (0..len)
        .map(|i| [0.5f32, -0.25, 0.5, 1.0, -0.0][(i * 7) % 5])
        .collect();
    vec![
        ("tricky encodings", floats_with_tricky(&words, len)),
        ("gradient", gradient),
        ("all equal", vec![-0.75; len]),
        ("signed-zero runs", zeros),
        ("NaN and infinities", specials),
        ("few magnitudes", few),
    ]
}

/// The candidate-set selection returns the full quickselect's indices, bit
/// for bit, on every input at every `k`.
#[test]
fn top_k_candidate_set_matches_quickselect_oracle() {
    for len in top_k_lengths() {
        for (what, xs) in top_k_inputs(len) {
            for k in top_k_ks(len) {
                assert_top_k_matches_oracle(&xs, k, what);
            }
        }
    }
}

/// Ties at the pivot that straddle a chunk boundary: `above` magnitudes
/// larger than the tie, `ties` equal magnitudes around the boundary of
/// chunks `c − 1` and `c` (some of them negative), and `k` taking some but
/// not all of them — the kept ties are the lowest-indexed, whichever chunk
/// they sit in. A second tie run in a later chunk, and ties spread over
/// every third chunk, must not be preferred over earlier ones.
#[test]
fn top_k_pivot_ties_straddling_a_chunk_boundary_keep_the_lowest_indices() {
    for len in [4 * CHUNK, 48 * CHUNK + 5, 4097, 9216] {
        let background: Vec<f32> = (0..len).map(|i| (i % 97) as f32 * 1.0e-4).collect();
        for c in [1, len / CHUNK / 2, len.div_ceil(CHUNK) - 1] {
            let boundary = c * CHUNK;
            for ties in [2usize, 3, 6, 9] {
                let mut xs = background.clone();
                let from = boundary.saturating_sub(ties / 2);
                for (j, x) in xs[from..(from + ties).min(len)].iter_mut().enumerate() {
                    *x = if j % 2 == 0 { 1.0 } else { -1.0 };
                }
                // Larger magnitudes, in earlier and later chunks.
                for at in [0, len - 1, len / 3] {
                    if !(from..from + ties).contains(&at) {
                        xs[at] = 2.0 + at as f32;
                    }
                }
                let above = xs.iter().filter(|v| v.abs() > 1.0).count();
                for take in 1..ties {
                    assert_top_k_matches_oracle(&xs, above + take, "tie run");
                }
                // A second run of the same magnitude in a later chunk, and
                // the same magnitude in every third chunk or so.
                let mut later = xs.clone();
                later[len - 1 - CHUNK / 2..len - 1]
                    .iter_mut()
                    .for_each(|x| *x = -1.0);
                assert_top_k_matches_oracle(&later, above + ties, "two tie runs");
                let mut spread = xs.clone();
                spread
                    .iter_mut()
                    .skip(2 * CHUNK + 5)
                    .step_by(3 * CHUNK + 1)
                    .for_each(|x| *x = 1.0);
                for take in [1, ties, ties + 2] {
                    assert_top_k_matches_oracle(&spread, above + take, "spread ties");
                }
            }
        }
    }
}
