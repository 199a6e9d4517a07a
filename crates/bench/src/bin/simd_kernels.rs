//! Measures the vectorized codec kernels against frozen pre-SIMD reference
//! implementations, and records the result to
//! `results/bench_simd_kernels.json`.
//!
//! Each row times one codec hot loop two ways over the same pooled buffers:
//!
//! * `reference` — a frozen copy of the scalar implementation the kernel
//!   replaced (per-element `partition_point` code-book search, the generic
//!   bit-cursor pack/unpack loop, the float `max` fold, the comparator
//!   top-k, QSGD's per-element quantize/dequantize loops) — byte-for-byte
//!   what the codecs ran before; for `gemm_nt`, `gemm_tn` and the CRC
//!   tables, the library's own retained reference body (`Level::Scalar`,
//!   `crc32_bitwise`), and for the `*_lanes` rows the level-quantizer
//!   pair's own scalar body (`Level::Scalar`) at the vgg19-analog size —
//!   except `qsgd_fold_lanes`, whose reference is the merge's old decode
//!   into a tensor per contribution followed by `mean_of`; for
//!   `sum_squares_vgg19`, the serial left fold every ‖g‖₂ ran before;
//!   for `gaussian_vgg19`, `rng::fill_gaussian_per_element`, the
//!   per-element Box–Muller loop `fill_gaussian` ran before its kernel;
//! * `new` — the runtime-dispatched `grace_tensor::simd` kernel, the pooled
//!   selection built on it, the word-at-a-time packer of
//!   `grace_tensor::pack` or the level-quantizer pair of
//!   `grace_tensor::coding`.
//!
//! The gated observable is `speedup = reference_ms / new_ms` — a ratio, so
//! it divides out host speed; `grace-analyze --check-bench` pins it against
//! the committed baseline in `crates/analyze/baselines/`. Outputs are
//! asserted bit-identical between the two paths every iteration, so the
//! binary doubles as a smoke test of the kernel contracts.
//!
//! Run: `cargo run --release -p grace-bench --bin simd_kernels`

use grace_bench::gradient_of_bytes;
use grace_nn::models;
use grace_tensor::rng::seeded;
use grace_tensor::{coding, linalg, pack, select, simd};
use std::time::Instant;

const TENSOR_BYTES: usize = 1 << 20;
const WARMUP: usize = 3;
const ITERS: usize = 20;

/// Frozen pre-SIMD reference implementations. These are deliberately *not*
/// shared with the library: they pin what the codecs used to execute, so
/// the speedup row keeps meaning even as the library paths evolve.
mod reference {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// The float `max` fold `Tensor::norm_inf` used to run.
    pub fn norm_inf(xs: &[f32]) -> f32 {
        xs.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Per-element `partition_point` code-book search with the midpoint tie
    /// rule — the old `EightBit::nearest_code`.
    fn nearest_code(table: &[f32], x: f32) -> u32 {
        let idx = table.partition_point(|v| *v < x);
        if idx == 0 {
            0
        } else if idx >= table.len() {
            (table.len() - 1) as u32
        } else {
            let lo = table[idx - 1];
            let hi = table[idx];
            if (x - lo) <= (hi - x) {
                (idx - 1) as u32
            } else {
                idx as u32
            }
        }
    }

    /// The old packed-quantizer encode: sign/magnitude per element, then
    /// the generic bit-cursor pack loop at width 8.
    pub fn encode_packed(table: &[f32], xs: &[f32], inv: f32, codes: &mut [u32], out: &mut [u8]) {
        for (o, &v) in codes.iter_mut().zip(xs) {
            let sign = u32::from(v < 0.0);
            let mag = nearest_code(table, v.abs() * inv);
            *o = (sign << 7) | mag;
        }
        out.fill(0);
        let mut bitpos = 0usize;
        for &v in codes.iter() {
            let mut remaining = 8usize;
            let mut val = v as u64;
            while remaining > 0 {
                let byte = bitpos / 8;
                let offset = bitpos % 8;
                let take = (8 - offset).min(remaining);
                out[byte] |= ((val & ((1u64 << take) - 1)) as u8) << offset;
                val >>= take;
                bitpos += take;
                remaining -= take;
            }
        }
    }

    /// The old decode: bit-cursor unpack at width 8, then the per-element
    /// sign-branch table lookup.
    pub fn decode_packed(
        table: &[f32],
        packed: &[u8],
        codes: &mut [u32],
        scale: f32,
        out: &mut [f32],
    ) {
        let mut bitpos = 0usize;
        for o in codes.iter_mut() {
            let mut val: u64 = 0;
            let mut got = 0usize;
            while got < 8 {
                let byte = bitpos / 8;
                let offset = bitpos % 8;
                let take = (8 - offset).min(8 - got);
                let chunk = ((packed[byte] >> offset) as u64) & ((1u64 << take) - 1);
                val |= chunk << got;
                got += take;
                bitpos += take;
            }
            *o = val as u32;
        }
        for (o, &code) in out.iter_mut().zip(codes.iter()) {
            let sign = if code >> 7 == 1 { -1.0f32 } else { 1.0 };
            *o = sign * table[(code & 0x7F) as usize] * scale;
        }
    }

    /// The bit-cursor packer every width outside 1/2/4/8/16/32 used to take
    /// (QSGD(64)'s 7-bit levels, Natural's 9-bit codes).
    pub fn pack_bit_cursor(values: &[u32], bits: u32, out: &mut [u8]) {
        let mask = (1u64 << bits) - 1;
        out.fill(0);
        let mut bitpos = 0usize;
        for &v in values {
            assert!((v as u64) <= mask, "value {v} does not fit in {bits} bits");
            let mut remaining = bits as usize;
            let mut val = v as u64;
            while remaining > 0 {
                let byte = bitpos / 8;
                let offset = bitpos % 8;
                let take = (8 - offset).min(remaining);
                out[byte] |= ((val & ((1u64 << take) - 1)) as u8) << offset;
                val >>= take;
                bitpos += take;
                remaining -= take;
            }
        }
    }

    /// The bit-cursor unpacker for those widths.
    pub fn unpack_bit_cursor(packed: &[u8], bits: u32, count: usize, out: &mut Vec<u32>) {
        out.clear();
        let mut bitpos = 0usize;
        for _ in 0..count {
            let mut val: u64 = 0;
            let mut got = 0usize;
            while got < bits as usize {
                let byte = bitpos / 8;
                let offset = bitpos % 8;
                let take = (8 - offset).min(bits as usize - got);
                let chunk = ((packed[byte] >> offset) as u64) & ((1u64 << take) - 1);
                val |= chunk << got;
                got += take;
                bitpos += take;
            }
            out.push(val as u32);
        }
    }

    /// The per-element arm width 1 used to take on unpack.
    pub fn unpack_1bit(packed: &[u8], count: usize, out: &mut Vec<u32>) {
        out.clear();
        for i in 0..count {
            out.push(u32::from((packed[i / 8] >> (i % 8)) & 1));
        }
    }

    /// The byte-fold arm width 1 used to take on pack.
    fn pack_1bit(values: &[u32]) -> Vec<u8> {
        let mut out = vec![0u8; values.len().div_ceil(8)];
        let mut chunks = values.chunks_exact(8);
        for (o, c) in out.iter_mut().zip(chunks.by_ref()) {
            *o = c
                .iter()
                .enumerate()
                .fold(0u8, |acc, (i, &v)| acc | ((v as u8) << i));
        }
        if let Some(last) = out.last_mut().filter(|_| !chunks.remainder().is_empty()) {
            for (i, &v) in chunks.remainder().iter().enumerate() {
                *last |= (v as u8) << i;
            }
        }
        out
    }

    /// The old `Qsgd::compress`: `floorf` per element, a `Vec<u32>` of signs
    /// and one of levels, then the packers above. Returns the sign bitmap,
    /// the level stream and the norm.
    pub fn qsgd_encode(xs: &[f32], s: u32, bits: u32, rng: &mut StdRng) -> (Vec<u8>, Vec<u8>, f32) {
        let norm = xs.iter().map(|v| v * v).sum::<f32>().sqrt();
        let sf = s as f32;
        let mut signs = Vec::with_capacity(xs.len());
        let mut levels = Vec::with_capacity(xs.len());
        for &v in xs {
            signs.push(u32::from(v < 0.0));
            if norm == 0.0 {
                levels.push(0u32);
                continue;
            }
            let scaled = v.abs() / norm * sf;
            let l = scaled.floor();
            let p = scaled - l;
            let level = l as u32 + u32::from(rng.gen::<f32>() < p);
            levels.push(level.min(s));
        }
        let mut level_bytes = vec![0u8; (xs.len() * bits as usize).div_ceil(8)];
        pack_bit_cursor(&levels, bits, &mut level_bytes);
        (pack_1bit(&signs), level_bytes, norm)
    }

    /// The old `Qsgd::decompress`: both streams unpacked to `Vec<u32>`, then
    /// the expression per element.
    pub fn qsgd_decode(
        signs: &[u8],
        levels: &[u8],
        bits: u32,
        s: u32,
        norm: f32,
        count: usize,
    ) -> Vec<f32> {
        let (mut sign_codes, mut level_codes) = (Vec::new(), Vec::new());
        unpack_1bit(signs, count, &mut sign_codes);
        unpack_bit_cursor(levels, bits, count, &mut level_codes);
        let sf = s as f32;
        sign_codes
            .into_iter()
            .zip(level_codes)
            .map(|(sign, level)| {
                let v = norm * level as f32 / sf;
                if sign == 1 {
                    -v
                } else {
                    v
                }
            })
            .collect()
    }

    /// The old comparator-driven top-k selection.
    pub fn top_k_indices(values: &[f32], k: usize) -> Vec<u32> {
        let d = values.len();
        if k >= d {
            return (0..d as u32).collect();
        }
        if k == 0 {
            return Vec::new();
        }
        let mut order: Vec<u32> = (0..d as u32).collect();
        order.select_nth_unstable_by(k - 1, |&a, &b| {
            let (x, y) = (values[a as usize].abs(), values[b as usize].abs());
            y.partial_cmp(&x)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut out: Vec<u32> = order[..k].to_vec();
        out.sort_unstable();
        out
    }

    /// The plain indexed gather loop.
    pub fn gather(src: &[f32], indices: &[u32], out: &mut [f32]) {
        for (o, &i) in out.iter_mut().zip(indices) {
            *o = src[i as usize];
        }
    }
}

fn time_ms(mut body: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        body();
    }
    let start = Instant::now();
    for _ in 0..ITERS {
        body();
    }
    start.elapsed().as_secs_f64() * 1e3 / ITERS as f64
}

/// Whether two runs wrote the same bits.
fn same_bits<'a>(
    got: impl IntoIterator<Item = &'a f32>,
    want: impl IntoIterator<Item = &'a f32>,
) -> bool {
    let bits = |xs: &'a f32| xs.to_bits();
    got.into_iter().map(bits).eq(want.into_iter().map(bits))
}

struct Row {
    name: &'static str,
    reference_ms: f64,
    new_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.new_ms.max(1e-9)
    }
}

/// The EightBit logarithmic code-book (reconstructed here so the bench does
/// not reach into codec internals).
fn codebook() -> Vec<f32> {
    let mut table = vec![0.0f32];
    for e in 0..7 {
        for m in 0..16 {
            table.push((2.0f32.powi(e - 7) * (1.0 + m as f32 / 16.0)).min(1.0));
        }
    }
    while table.len() < 128 {
        let k = table.len() - 113;
        table.push(0.5 + (k as f32 + 1.0) / 32.0);
    }
    table.truncate(128);
    table.sort_by(|a, b| a.partial_cmp(b).expect("finite table"));
    table
}

fn main() {
    let (level, cpu) = (simd::level(), simd::hw_level());
    println!("simd_kernels: dispatched level {level} (CPU: {cpu})");
    let g = gradient_of_bytes(TENSOR_BYTES, 17);
    let xs = g.as_slice();
    let n = xs.len();
    let table = codebook();
    let scale = f32::from_bits(simd::abs_max_bits(xs));
    let inv = 1.0 / scale;
    let mut rows = Vec::new();

    // norm_inf: float max fold vs the integer abs-bits max reduction.
    {
        let reference_ms = time_ms(|| {
            std::hint::black_box(reference::norm_inf(std::hint::black_box(xs)));
        });
        let new_ms = time_ms(|| {
            std::hint::black_box(simd::abs_max_bits(std::hint::black_box(xs)));
        });
        assert_eq!(
            f32::from_bits(simd::abs_max_bits(xs)),
            reference::norm_inf(xs)
        );
        rows.push(Row {
            name: "norm_inf",
            reference_ms,
            new_ms,
        });
    }

    // Packed-quantizer encode: the headline row (≥4× acceptance floor).
    {
        let mut codes = vec![0u32; n];
        let mut packed = vec![0u8; pack::packed_len(n, 8)];
        let reference_ms = time_ms(|| {
            reference::encode_packed(&table, xs, inv, &mut codes, &mut packed);
            std::hint::black_box(&packed);
        });
        let expect_packed = packed.clone();
        let expect_codes = codes.clone();
        let new_ms = time_ms(|| {
            simd::quantize_sign_mag(&table, xs, inv, &mut codes);
            simd::narrow_to_bytes(&codes, &mut packed);
            std::hint::black_box(&packed);
        });
        assert_eq!(codes, expect_codes, "encode codes diverged");
        assert_eq!(packed, expect_packed, "encode bytes diverged");
        rows.push(Row {
            name: "quantize_encode",
            reference_ms,
            new_ms,
        });
    }

    // Packed-quantizer decode.
    {
        let mut codes = vec![0u32; n];
        simd::quantize_sign_mag(&table, xs, inv, &mut codes);
        let mut packed = vec![0u8; pack::packed_len(n, 8)];
        simd::narrow_to_bytes(&codes, &mut packed);
        let mut scratch = vec![0u32; n];
        let mut out = vec![0f32; n];
        let reference_ms = time_ms(|| {
            reference::decode_packed(&table, &packed, &mut scratch, scale, &mut out);
            std::hint::black_box(&out);
        });
        let expect: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let new_ms = time_ms(|| {
            simd::widen_from_bytes(&packed, &mut scratch);
            simd::dequant_sign_mag(&table, &scratch, scale, &mut out);
            std::hint::black_box(&out);
        });
        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, expect, "decode diverged");
        rows.push(Row {
            name: "dequant_decode",
            reference_ms,
            new_ms,
        });
    }

    // Top-k selection (1% ratio, the paper's default).
    {
        let k = n / 100;
        let mut scratch = Vec::new();
        let reference_ms = time_ms(|| {
            std::hint::black_box(reference::top_k_indices(xs, k));
        });
        let new_ms = time_ms(|| {
            std::hint::black_box(select::top_k_indices_with(xs, k, &mut scratch));
        });
        assert_eq!(
            select::top_k_indices_with(xs, k, &mut scratch),
            reference::top_k_indices(xs, k),
            "top-k selection diverged"
        );
        rows.push(Row {
            name: "top_k",
            reference_ms,
            new_ms,
        });
    }

    // Top-k over resnet50-analog's 68 gradient shapes at ratio 0.01, the
    // selection `sparse-tcp`'s Top-k makes each step: the candidate-set body
    // against the full quickselect it replaced, kept as the oracle.
    {
        let shapes = models::resnet50_analog(48, 8, 1).streaming_grad_sizes();
        let total: usize = shapes.iter().map(|(_, len)| len).sum();
        let pool = gradient_of_bytes(4 * total.next_multiple_of(256), 53);
        let mut grads = Vec::new();
        let mut rest = pool.as_slice();
        for (_, len) in &shapes {
            let (grad, tail) = rest.split_at(*len);
            grads.push((grad, ((*len as f64) * 0.01).ceil() as usize));
            rest = tail;
        }
        let mut scratch = Vec::new();
        let mut run = |select: fn(&[f32], usize, &mut Vec<u32>) -> Vec<u32>| {
            let mut picked = Vec::new();
            let ms = time_ms(|| {
                picked.clear();
                for &(grad, k) in &grads {
                    picked.push(select(std::hint::black_box(grad), k, &mut scratch));
                }
                std::hint::black_box(&picked);
            });
            (ms, picked)
        };
        let (reference_ms, want) = run(|xs, k, scratch| {
            select::top_k_indices_quickselect_at(simd::level(), xs, k, scratch)
        });
        let (new_ms, got) = run(select::top_k_indices_with);
        assert!(got == want, "resnet50 top-k selection diverged");
        rows.push(Row {
            name: "top_k_resnet50",
            reference_ms,
            new_ms,
        });
    }

    // Sparse gather at the same 1% selection. The selection is small
    // (~2.6k indices), so each timed body repeats the gather to lift the
    // measurement well clear of timer noise.
    {
        const GATHER_REPS: usize = 256;
        let idx = select::top_k_indices(xs, n / 100);
        let mut out = vec![0f32; idx.len()];
        let reference_ms = time_ms(|| {
            for _ in 0..GATHER_REPS {
                reference::gather(xs, &idx, &mut out);
                std::hint::black_box(&out);
            }
        });
        let expect = out.clone();
        let new_ms = time_ms(|| {
            for _ in 0..GATHER_REPS {
                simd::gather_f32(xs, &idx, &mut out);
                std::hint::black_box(&out);
            }
        });
        assert_eq!(out, expect, "gather diverged");
        rows.push(Row {
            name: "gather",
            reference_ms,
            new_ms,
        });
    }

    // The word-at-a-time packer at QSGD(64)'s 7-bit level width and at the
    // sign bitmap's width 1, against the loops those widths used to take.
    {
        let codes7: Vec<u32> = xs.iter().map(|v| v.to_bits() >> 9 & 0x7F).collect();
        let mut packed = vec![0u8; pack::packed_len(n, 7)];
        let reference_ms = time_ms(|| {
            reference::pack_bit_cursor(std::hint::black_box(&codes7), 7, &mut packed);
            std::hint::black_box(&packed);
        });
        let mut fast = Vec::new();
        let new_ms = time_ms(|| {
            fast = pack::pack_bits(std::hint::black_box(&codes7), 7);
            std::hint::black_box(&fast);
        });
        assert_eq!(fast, packed, "7-bit pack diverged");
        rows.push(Row {
            name: "pack_7b",
            reference_ms,
            new_ms,
        });

        let packed1 = pack::pack_bits(&codes7.iter().map(|c| c & 1).collect::<Vec<_>>(), 1);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for (name, bits, packed) in [("unpack_7b", 7, &packed), ("unpack_1b", 1, &packed1)] {
            let reference_ms = time_ms(|| {
                if bits == 1 {
                    reference::unpack_1bit(std::hint::black_box(packed), n, &mut want);
                } else {
                    reference::unpack_bit_cursor(std::hint::black_box(packed), bits, n, &mut want);
                }
                std::hint::black_box(&want);
            });
            let new_ms = time_ms(|| {
                pack::unpack_bits_into(std::hint::black_box(packed), bits, n, &mut got);
                std::hint::black_box(&got);
            });
            assert_eq!(got, want, "{name} diverged");
            rows.push(Row {
                name,
                reference_ms,
                new_ms,
            });
        }
    }

    // QSGD(64) end to end: norm, quantize and pack into fresh payload
    // buffers (as `Qsgd::compress` allocates them), and back into a fresh
    // tensor buffer. Both sides continue one RNG stream each from the same
    // seed, so every timed call sees the same draws as its counterpart.
    {
        let (s, bits) = (64, coding::level_bits(64));
        let (mut rng_ref, mut rng_new) = (seeded(23), seeded(23));
        let mut want = (Vec::new(), Vec::new(), 0.0);
        let reference_ms = time_ms(|| {
            want = reference::qsgd_encode(std::hint::black_box(xs), s, bits, &mut rng_ref);
            std::hint::black_box(&want);
        });
        let mut got = (Vec::new(), Vec::new(), 0.0);
        let new_ms = time_ms(|| {
            let mut signs = vec![0u8; pack::packed_len(n, 1)];
            let mut levels = vec![0u8; pack::packed_len(n, bits)];
            let xs = std::hint::black_box(xs);
            let norm = coding::quantize_levels(xs, s, &mut rng_new, &mut signs, &mut levels);
            got = (signs, levels, norm);
            std::hint::black_box(&got);
        });
        assert_eq!(got, want, "QSGD encode diverged");
        assert_eq!(rng_new, rng_ref, "QSGD encode drew a different stream");
        rows.push(Row {
            name: "qsgd_encode",
            reference_ms,
            new_ms,
        });

        let (signs, levels, norm) = want;
        let mut want = Vec::new();
        let reference_ms = time_ms(|| {
            let signs = std::hint::black_box(&signs);
            want = reference::qsgd_decode(signs, &levels, bits, s, norm, n);
            std::hint::black_box(&want);
        });
        let mut got = Vec::new();
        let new_ms = time_ms(|| {
            let mut out = Vec::new();
            let signs = std::hint::black_box(&signs);
            coding::dequantize_levels(signs, &levels, bits, s, norm, n, &mut out);
            got = out;
            std::hint::black_box(&got);
        });
        let as_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(as_bits(&got), as_bits(&want), "QSGD decode diverged");
        rows.push(Row {
            name: "qsgd_decode",
            reference_ms,
            new_ms,
        });
    }

    // The level-quantizer pair's vector bodies against its scalar body
    // (`Level::Scalar`, what `GRACE_FORCE_SCALAR` runs), QSGD(64) over the
    // vgg19-analog gradient's 1 521 162 elements into warm buffers: the
    // lane-parallel SplitMix64 dither and level arithmetic on encode, the
    // per-lane `norm * l / s` on decode. Encode's norm is the blocked sum
    // of squares at the level each side times.
    {
        const VGG19_ELEMENTS: usize = 1_521_162;
        let g = gradient_of_bytes(4 * VGG19_ELEMENTS.next_multiple_of(256), 43);
        let xs = &g.as_slice()[..VGG19_ELEMENTS];
        let (n, s, bits) = (xs.len(), 64, coding::level_bits(64));
        let encode = |lvl: simd::Level, rng: &mut rand::rngs::StdRng| {
            let mut signs = vec![0u8; pack::packed_len(n, 1)];
            let mut levels = vec![0u8; pack::packed_len(n, bits)];
            let mut norm = 0.0;
            let ms = time_ms(|| {
                let xs = std::hint::black_box(xs);
                norm = simd::quantize_levels_at(lvl, xs, s, rng, &mut signs, &mut levels);
                std::hint::black_box((&signs, &levels));
            });
            (ms, (signs, levels, norm))
        };
        let (mut rng_ref, mut rng_new) = (seeded(47), seeded(47));
        let (reference_ms, want) = encode(simd::Level::Scalar, &mut rng_ref);
        let (new_ms, got) = encode(simd::level(), &mut rng_new);
        assert_eq!(got, want, "QSGD lane encode diverged");
        assert_eq!(rng_new, rng_ref, "QSGD lane encode drew a different stream");
        rows.push(Row {
            name: "qsgd_encode_lanes",
            reference_ms,
            new_ms,
        });

        let (signs, levels, norm) = want;
        let decode = |lvl: simd::Level| {
            let mut out = Vec::with_capacity(n);
            let ms = time_ms(|| {
                let signs = std::hint::black_box(&signs);
                simd::dequantize_levels_at(lvl, signs, &levels, bits, s, norm, n, &mut out);
                std::hint::black_box(&out);
            });
            (ms, out.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        let (reference_ms, want) = decode(simd::Level::Scalar);
        let (new_ms, got) = decode(simd::level());
        assert!(got == want, "QSGD lane decode diverged");
        rows.push(Row {
            name: "qsgd_decode_lanes",
            reference_ms,
            new_ms,
        });

        // A two-rank gathered merge of QSGD(64) contributions: each decoded
        // into a tensor of its own, then `mean_of`'s add and scale passes,
        // against both folded into one accumulator, `1/n` in the second
        // pass.
        let mut other = (vec![0u8; signs.len()], vec![0u8; levels.len()]);
        let other_norm =
            coding::quantize_levels(xs, s, &mut seeded(53), &mut other.0, &mut other.1);
        let parts = [(&signs, &levels, norm), (&other.0, &other.1, other_norm)];
        let mut want = Vec::new();
        let reference_ms = time_ms(|| {
            let decoded: Vec<grace_tensor::Tensor> = parts
                .iter()
                .map(|&(signs, levels, norm)| {
                    let mut out = Vec::new();
                    coding::dequantize_levels(signs, levels, bits, s, norm, n, &mut out);
                    grace_tensor::Tensor::from_vec(out)
                })
                .collect();
            want = grace_core::compressor::mean_of(std::hint::black_box(decoded)).into_vec();
        });
        let mut got = Vec::new();
        let new_ms = time_ms(|| {
            let mut acc = Vec::new();
            let passes = [simd::Fold::Assign, simd::Fold::AddScale(0.5)];
            for (&(signs, levels, norm), fold) in parts.iter().zip(passes) {
                coding::dequantize_levels_fold(signs, levels, bits, s, norm, n, &mut acc, fold);
            }
            got = std::hint::black_box(acc);
        });
        let as_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(as_bits(&got) == as_bits(&want), "QSGD fold diverged");
        rows.push(Row {
            name: "qsgd_fold_lanes",
            reference_ms,
            new_ms,
        });

        // ‖g‖₂'s sum of squares over the same gradient: the serial left
        // fold against the blocked kernel.
        let mut want = 0f32;
        let reference_ms = time_ms(|| {
            let xs = std::hint::black_box(xs);
            want = std::hint::black_box(xs.iter().map(|v| v * v).sum::<f32>());
        });
        let mut got = 0f32;
        let new_ms = time_ms(|| {
            got = std::hint::black_box(simd::sum_squares(std::hint::black_box(xs)));
        });
        assert_eq!(got.to_bits(), want.to_bits(), "sum of squares diverged");
        rows.push(Row {
            name: "sum_squares_vgg19",
            reference_ms,
            new_ms,
        });
    }

    // dX = dY · Wᵀ over vgg19-analog's seven layers — the product every
    // backward pass makes per layer — against the scalar body, which is the
    // loop `matmul_transpose_b` ran through PR 22. `gemm_nt` is the
    // benchmark's shape (batch 16: one 16-row panel); `gemm_nt_skinny` is a
    // batch under one vector (4: all reference, so ≈1×) plus one a row past
    // it (9: an 8-row panel and a reference row) and must never lose.
    {
        let widths = [96usize, 768, 768, 512, 512, 256, 256, 10];
        let (weights, dys) = (
            gradient_of_bytes(4 * 768 * 768, 29),
            gradient_of_bytes(4 * 16 * 768, 31),
        );
        let (weights, dys) = (weights.as_slice(), dys.as_slice());
        // One slot per (batch, layer) product, so the comparison below
        // covers every output either side wrote.
        let outputs = 16 * widths[..7].iter().sum::<usize>();
        let mut want = vec![0f32; outputs];
        let mut got = vec![f32::NAN; outputs];
        for (name, batches) in [("gemm_nt", &[16usize][..]), ("gemm_nt_skinny", &[4, 9])] {
            let run = |lvl: simd::Level, mut c: &mut [f32]| {
                for &m in batches {
                    for layer in widths.windows(2) {
                        let (k, n) = (layer[0], layer[1]);
                        let (a, b) = (&dys[..m * n], &weights[..k * n]);
                        let (slot, rest) = c.split_at_mut(m * k);
                        simd::gemm_nt_at(lvl, std::hint::black_box(a), b, slot, m, n, k);
                        std::hint::black_box(&slot);
                        c = rest;
                    }
                }
            };
            let reference_ms = time_ms(|| run(simd::Level::Scalar, &mut want));
            let new_ms = time_ms(|| run(simd::level(), &mut got));
            assert!(same_bits(&got, &want), "{name} diverged");
            rows.push(Row {
                name,
                reference_ms,
                new_ms,
            });
        }
    }

    // dW = Xᵀ · dY over the same seven layers at batch 16, X ReLU-like
    // (about half zeros, which both bodies skip), against the scalar body:
    // the loop `matmul_transpose_a` ran before it had a vector body.
    {
        let widths = [96usize, 768, 768, 512, 512, 256, 256, 10];
        let batch = 16;
        let xs: Vec<f32> = gradient_of_bytes(4 * batch * 768, 37)
            .as_slice()
            .iter()
            .map(|v| v.max(0.0))
            .collect();
        let dys = gradient_of_bytes(4 * batch * 768, 41);
        let outputs: usize = widths.windows(2).map(|w| w[0] * w[1]).sum();
        let mut want = vec![0f32; outputs];
        let mut got = vec![f32::NAN; outputs];
        let run = |lvl: simd::Level, mut c: &mut [f32]| {
            for layer in widths.windows(2) {
                let (k, n) = (layer[0], layer[1]);
                let (a, b) = (&xs[..batch * k], &dys.as_slice()[..batch * n]);
                let (slot, rest) = c.split_at_mut(k * n);
                simd::gemm_tn_at(lvl, std::hint::black_box(a), b, slot, batch, k, n);
                std::hint::black_box(&slot);
                c = rest;
            }
        };
        let reference_ms = time_ms(|| run(simd::Level::Scalar, &mut want));
        let new_ms = time_ms(|| run(simd::level(), &mut got));
        assert!(same_bits(&got, &want), "gemm_tn diverged");
        rows.push(Row {
            name: "gemm_tn",
            reference_ms,
            new_ms,
        });
    }

    // The forward products X · W over the same seven layers at batch 16, X
    // ReLU-like (the `a == 0` terms both bodies skip), at pool width 1: the
    // portable body at the dispatched level against its scalar build.
    {
        let widths = [96usize, 768, 768, 512, 512, 256, 256, 10];
        let batch = 16;
        let xs: Vec<f32> = gradient_of_bytes(4 * batch * 768, 53)
            .as_slice()
            .iter()
            .map(|v| v.max(0.0))
            .collect();
        let weights = gradient_of_bytes(4 * 768 * 768, 59);
        let run = |lvl: simd::Level, out: &mut Vec<Vec<f32>>| {
            grace_tensor::pool::with_width(1, || {
                out.clear();
                for layer in widths.windows(2) {
                    let (k, n) = (layer[0], layer[1]);
                    let (a, b) = (&xs[..batch * k], &weights.as_slice()[..k * n]);
                    let c = linalg::matmul_at(lvl, std::hint::black_box(a), b, batch, k, n);
                    out.push(c);
                }
            })
        };
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let reference_ms = time_ms(|| run(simd::Level::Scalar, &mut want));
        let new_ms = time_ms(|| run(simd::level(), &mut got));
        assert!(
            same_bits(got.iter().flatten(), want.iter().flatten()),
            "matmul diverged"
        );
        rows.push(Row {
            name: "matmul_vgg19",
            reference_ms,
            new_ms,
        });
    }

    // The add of a UDS rank's region fold (`shm::fold`) over the
    // vgg19-analog gradient's 6 MB: two ranks' little-endian bodies copied
    // into L1 an 8 KiB chunk at a time, the second added onto the first by
    // `pack::add_f32s_le_at`, and the sum decoded, against the scalar body.
    {
        const VGG19_ELEMENTS: usize = 1_521_162;
        const CHUNK: usize = 8 << 10;
        let len = VGG19_ELEMENTS.next_multiple_of(256);
        let mut regions = [Vec::new(), Vec::new()];
        for (region, seed) in regions.iter_mut().zip([61, 67]) {
            pack::extend_f32s_le(region, gradient_of_bytes(4 * len, seed).as_slice());
        }
        let fold = |lvl: simd::Level, out: &mut [f32]| {
            let (mut acc, mut next) = ([0u8; CHUNK], [0u8; CHUNK]);
            for (i, words) in out.chunks_mut(CHUNK / 4).enumerate() {
                let bytes = 4 * words.len();
                let (acc, next) = (&mut acc[..bytes], &mut next[..bytes]);
                acc.copy_from_slice(&regions[0][i * CHUNK..][..bytes]);
                next.copy_from_slice(&regions[1][i * CHUNK..][..bytes]);
                pack::add_f32s_le_at(lvl, acc, std::hint::black_box(next));
                for (w, b) in words.iter_mut().zip(acc.as_chunks::<4>().0) {
                    *w = f32::from_le_bytes(*b);
                }
            }
        };
        let mut want = vec![0f32; len];
        let mut got = vec![f32::NAN; len];
        let reference_ms = time_ms(|| fold(simd::Level::Scalar, &mut want));
        let new_ms = time_ms(|| fold(simd::level(), &mut got));
        assert!(same_bits(&got, &want), "region fold add diverged");
        rows.push(Row {
            name: "region_fold_add",
            reference_ms,
            new_ms,
        });
    }

    // `y += a·x` — the error-feedback update and the row op of PowerSGD's
    // products — against its scalar body, 256 times over 4 096 elements (an
    // L1-resident 32 KiB, so the row times the lanes, not the memory). Each
    // side runs the same updates from the same `y`.
    {
        const AXPY_LEN: usize = 4096;
        let (x, y0) = (&xs[..AXPY_LEN], &xs[AXPY_LEN..2 * AXPY_LEN]);
        let run = |lvl: simd::Level, y: &mut [f32]| {
            time_ms(|| {
                for _ in 0..256 {
                    simd::axpy_at(lvl, y, 0.75, std::hint::black_box(x));
                }
                std::hint::black_box(&y);
            })
        };
        let (mut want, mut got) = (y0.to_vec(), y0.to_vec());
        let reference_ms = run(simd::Level::Scalar, &mut want);
        let new_ms = run(simd::level(), &mut got);
        assert!(same_bits(&got, &want), "axpy diverged");
        rows.push(Row {
            name: "axpy",
            reference_ms,
            new_ms,
        });
    }

    // Gaussian init of vgg19-analog's seven layers, weights and biases at
    // He(fan-in) std (1 521 162 samples), at width 1: the certified
    // Box–Muller kernel against the per-element `Normal::sample` loop that
    // `fill_gaussian` ran before it, which it keeps as its oracle.
    {
        let widths = [96usize, 768, 768, 512, 512, 256, 256, 10];
        let layers: Vec<(usize, f32)> = widths
            .windows(2)
            .map(|w| ((w[0] + 1) * w[1], (2.0 / w[0] as f32).sqrt()))
            .collect();
        let total: usize = layers.iter().map(|(len, _)| len).sum();
        let mut want = vec![0f32; total];
        let mut got = vec![f32::NAN; total];
        let run = |fill: fn(&mut rand::rngs::StdRng, &mut [f32], f32), out: &mut [f32]| {
            time_ms(|| {
                let mut rng = seeded(19);
                let mut rest = &mut *out;
                for &(len, std) in &layers {
                    let (layer, tail) = rest.split_at_mut(len);
                    grace_tensor::pool::with_width(1, || fill(&mut rng, layer, std));
                    rest = tail;
                }
                std::hint::black_box(&out);
            })
        };
        let reference_ms = run(grace_tensor::rng::fill_gaussian_per_element, &mut want);
        let new_ms = run(grace_tensor::rng::fill_gaussian, &mut got);
        assert!(same_bits(&got, &want), "gaussian fill diverged");
        rows.push(Row {
            name: "gaussian_vgg19",
            reference_ms,
            new_ms,
        });
    }

    // CRC32, the trailer of every payload stream and socket frame: the
    // bit-at-a-time definition against the slice-by-8 table (`Scalar`) and
    // against whatever the dispatcher picks (CLMUL folding where the CPU
    // has it), at a frame header's, a small frame's and a dense tensor's
    // size. Small inputs repeat so every timed body is 4 MiB of work, and
    // these rows are reported as MB/s too.
    const CRC_BODY_BYTES: usize = 4 << 20;
    let crc_rows_from = rows.len();
    for (size, table_row, dispatched_row) in [
        (64usize, "crc32_table_64B", "crc32_64B"),
        (4 << 10, "crc32_table_4KiB", "crc32_4KiB"),
        (4 << 20, "crc32_table_4MiB", "crc32_4MiB"),
    ] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
        let reps = CRC_BODY_BYTES / size;
        let expect = pack::crc32_bitwise(&data);
        let reference_ms = time_ms(|| {
            for _ in 0..reps {
                std::hint::black_box(pack::crc32_bitwise(std::hint::black_box(&data)));
            }
        });
        for (name, lvl) in [
            (table_row, simd::Level::Scalar),
            (dispatched_row, simd::level()),
        ] {
            let new_ms = time_ms(|| {
                for _ in 0..reps {
                    let crc = simd::crc32_update_at(lvl, !0, std::hint::black_box(&data));
                    std::hint::black_box(crc);
                }
            });
            assert_eq!(!simd::crc32_update_at(lvl, !0, &data), expect, "{name}");
            rows.push(Row {
                name,
                reference_ms,
                new_ms,
            });
        }
    }

    let host_cpus = std::thread::available_parallelism()
        .map(|nn| nn.get())
        .unwrap_or(1);
    let mut json_rows = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        println!(
            "{:>16}  reference {:8.4} ms  new {:8.4} ms  speedup {:6.2}x",
            r.name,
            r.reference_ms,
            r.new_ms,
            r.speedup()
        );
        let mut mbps = String::new();
        if i >= crc_rows_from {
            let rate = |ms: f64| CRC_BODY_BYTES as f64 / 1e3 / ms.max(1e-9);
            let (reference, new) = (rate(r.reference_ms), rate(r.new_ms));
            println!(
                "{:>16}  reference {reference:8.0} MB/s new {new:8.0} MB/s",
                ""
            );
            mbps = format!(", \"reference_MBps\": {reference:.0}, \"new_MBps\": {new:.0}");
        }
        json_rows.push(format!(
            "    {{\"codec\": \"{}\", \"reference_ms\": {:.4}, \"new_ms\": {:.4}, \
             \"speedup\": {:.4}{mbps}}}",
            r.name,
            r.reference_ms,
            r.new_ms,
            r.speedup()
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"simd_kernels\",\n  \"elements\": {n},\n  \
         \"level\": \"{}\",\n  \"host_cpus\": {host_cpus},\n  \"iters\": {ITERS},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        simd::level(),
        json_rows.join(",\n")
    );
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("bench_simd_kernels.json");
    std::fs::write(&path, json).expect("write bench json");
    println!("[written] {} (host_cpus = {host_cpus})", path.display());
}
