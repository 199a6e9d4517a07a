//! Coding of quantized code-word streams: the level-quantizer kernel pair
//! and entropy coding.
//!
//! [`quantize_levels`] / [`dequantize_levels`] are the QSGD-style stochastic
//! level quantizer shared by every codec that rounds normalized magnitudes
//! onto `s` levels: one pass from gradient values to the packed sign bitmap
//! and level stream, and one pass back. Their bodies live in
//! [`crate::simd`] beside the other dispatched kernels (a scalar body, and
//! an AVX2 one for codes up to 8 bits wide); the dither is drawn a block at
//! a time there, still one draw per element in element order. Both are
//! bit-identical to the per-element loops they replaced, which stay as the
//! `#[doc(hidden)]` `*_reference` oracles (DESIGN.md §14 gives the
//! argument).
//!
//! Gajjala et al. (the paper's reference 81) show that Huffman-coding the
//! code-words of quantized gradients (QSGD levels, TernGrad trits, …) packs
//! them well below their fixed bit-width, because gradient code-words are
//! heavily skewed toward zero. [`HuffmanCode`] is a canonical Huffman
//! codec over `u32` symbols with a self-describing header, used by the
//! entropy-coded compressor variants.

use crate::pack::{pack_bits_generic, unpack_bits_generic_into};
use crate::simd;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BinaryHeap;

/// Bits per level code of an `s`-level quantizer: `⌈log₂(s+1)⌉` for the
/// code-words `0..=s`.
pub fn level_bits(s: u32) -> u32 {
    32 - s.leading_zeros()
}

/// Stochastic level quantization (QSGD, paper Fig. 3) of `xs` onto the
/// code-words `0..=s` of `|x|/‖xs‖₂`, written as two packed streams: one
/// sign bit per element into `signs` and one [`level_bits`]`(s)`-wide level
/// per element into `levels`. Returns `‖xs‖₂`.
///
/// The dither is one `rng.gen::<f32>()` per element, in element order, and
/// none at all when the norm is zero. A vector body draws it a block at a
/// time — it skips the generator past a whole block and computes the
/// block's draws from the counter — which yields the same values in the
/// same element order and leaves the same state behind. The body is picked
/// by [`crate::simd::level`]; [`crate::simd::quantize_levels_at`] pins one.
///
/// # Panics
///
/// Panics if `s == 0`, or unless `signs` and `levels` are exactly
/// `packed_len(xs.len(), 1)` and `packed_len(xs.len(), level_bits(s))`
/// bytes.
pub fn quantize_levels(
    xs: &[f32],
    s: u32,
    rng: &mut StdRng,
    signs: &mut [u8],
    levels: &mut [u8],
) -> f32 {
    simd::quantize_levels_at(simd::level(), xs, s, rng, signs, levels)
}

/// Inverse of [`quantize_levels`]: clears `out` and fills it with the
/// `count` values `±norm · level[i] / s`, the sign applied by flipping the
/// sign bit. Every possible code decodes to that expression, including
/// codes above `s`, which a well-formed stream never carries.
/// [`crate::simd::dequantize_levels_at`] pins the dispatch level.
///
/// # Panics
///
/// Panics unless `signs` and `levels` are exactly `packed_len(count, 1)`
/// and `packed_len(count, bits)` bytes, or if `bits` is outside 1..=32.
pub fn dequantize_levels(
    signs: &[u8],
    levels: &[u8],
    bits: u32,
    s: u32,
    norm: f32,
    count: usize,
    out: &mut Vec<f32>,
) {
    simd::dequantize_levels_at(simd::level(), signs, levels, bits, s, norm, count, out);
}

/// [`dequantize_levels`] folded into a merge accumulator: every decoded
/// value enters `out` as `fold` says ([`simd::Fold::Assign`] is
/// [`dequantize_levels`] itself). [`crate::simd::dequantize_levels_fold_at`]
/// pins the dispatch level.
///
/// # Panics
///
/// As [`dequantize_levels`], and if an adding `fold` meets an `out` that
/// does not hold `count` elements.
#[allow(clippy::too_many_arguments)]
pub fn dequantize_levels_fold(
    signs: &[u8],
    levels: &[u8],
    bits: u32,
    s: u32,
    norm: f32,
    count: usize,
    out: &mut Vec<f32>,
    fold: simd::Fold,
) {
    let lvl = simd::level();
    simd::dequantize_levels_fold_at(lvl, signs, levels, bits, s, norm, count, out, fold);
}

/// The per-element loop [`quantize_levels`] replaced (`floorf`, a `Vec<u32>`
/// per stream, the bit-cursor packer), kept as its oracle. Returns the sign
/// bitmap, the level stream and the norm.
#[doc(hidden)]
pub fn quantize_levels_reference<R: Rng + ?Sized>(
    xs: &[f32],
    s: u32,
    rng: &mut R,
) -> (Vec<u8>, Vec<u8>, f32) {
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
    (
        pack_bits_generic(&signs, 1),
        pack_bits_generic(&levels, level_bits(s)),
        norm,
    )
}

/// The per-element loop [`dequantize_levels`] replaced, kept as its oracle.
#[doc(hidden)]
pub fn dequantize_levels_reference(
    signs: &[u8],
    levels: &[u8],
    bits: u32,
    s: u32,
    norm: f32,
    count: usize,
) -> Vec<f32> {
    let (mut sign_codes, mut level_codes) = (Vec::new(), Vec::new());
    unpack_bits_generic_into(signs, 1, count, &mut sign_codes);
    unpack_bits_generic_into(levels, bits, count, &mut level_codes);
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

/// A canonical Huffman code over the symbols `0..=max_symbol`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanCode {
    /// Code length (bits) per symbol; 0 = symbol unused.
    lengths: Vec<u8>,
    /// Canonical code value per symbol (valid when length > 0).
    codes: Vec<u32>,
}

const MAX_CODE_LEN: u8 = 32;

impl HuffmanCode {
    /// Builds a canonical Huffman code from symbol frequencies.
    ///
    /// Symbols with zero frequency get no code. A single-symbol alphabet
    /// gets a 1-bit code.
    ///
    /// # Panics
    ///
    /// Panics if `freqs` is empty or all-zero.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        assert!(!freqs.is_empty(), "need at least one symbol");
        let used: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
        assert!(!used.is_empty(), "at least one symbol must occur");
        let mut lengths = vec![0u8; freqs.len()];
        if used.len() == 1 {
            lengths[used[0]] = 1;
            return Self::from_lengths(lengths);
        }
        // Standard Huffman tree by min-heap of (weight, node).
        #[derive(PartialEq, Eq)]
        struct Node {
            weight: u64,
            id: usize,
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse for a min-heap; tie-break on id for determinism.
                other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
            }
        }
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut heap = BinaryHeap::new();
        // Tree nodes: leaves are symbol ids, internal nodes appended after.
        let mut parents: Vec<usize> = vec![usize::MAX; used.len()];
        for (leaf, &s) in used.iter().enumerate() {
            heap.push(Node {
                weight: freqs[s],
                id: leaf,
            });
        }
        let mut next_id = used.len();
        while heap.len() > 1 {
            let a = heap.pop().expect("len > 1");
            let b = heap.pop().expect("len > 1");
            parents.push(usize::MAX);
            parents[a.id] = next_id;
            parents[b.id] = next_id;
            heap.push(Node {
                weight: a.weight + b.weight,
                id: next_id,
            });
            next_id += 1;
        }
        // Depth of each leaf = code length.
        for (leaf, &s) in used.iter().enumerate() {
            let mut depth = 0u8;
            let mut node = leaf;
            while parents[node] != usize::MAX {
                node = parents[node];
                depth += 1;
            }
            lengths[s] = depth.clamp(1, MAX_CODE_LEN);
        }
        Self::from_lengths(lengths)
    }

    /// Builds the canonical code from per-symbol lengths.
    fn from_lengths(lengths: Vec<u8>) -> Self {
        // Canonical assignment: sort by (length, symbol).
        let mut order: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
        order.sort_by_key(|&s| (lengths[s], s));
        let mut codes = vec![0u32; lengths.len()];
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for &s in &order {
            code <<= lengths[s] - prev_len;
            codes[s] = code;
            code += 1;
            prev_len = lengths[s];
        }
        HuffmanCode { lengths, codes }
    }

    /// The code lengths (the self-describing header content).
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Encodes a symbol stream. Returns `(bits, bit_count)`.
    ///
    /// # Panics
    ///
    /// Panics if a symbol has no code.
    pub fn encode(&self, symbols: &[u32]) -> (Vec<u8>, u64) {
        let mut out = Vec::new();
        let mut acc: u64 = 0;
        let mut nbits: u32 = 0;
        let mut total: u64 = 0;
        for &s in symbols {
            let s = s as usize;
            let len = self.lengths[s];
            assert!(len > 0, "symbol {s} has no code");
            acc = (acc << len) | self.codes[s] as u64;
            nbits += len as u32;
            total += len as u64;
            while nbits >= 8 {
                nbits -= 8;
                out.push((acc >> nbits) as u8);
            }
        }
        if nbits > 0 {
            out.push((acc << (8 - nbits)) as u8);
        }
        (out, total)
    }

    /// Decodes `count` symbols from a bit stream produced by [`encode`].
    ///
    /// # Panics
    ///
    /// Panics on a malformed stream (ran out of bits or no matching code).
    ///
    /// [`encode`]: HuffmanCode::encode
    pub fn decode(&self, bits: &[u8], count: usize) -> Vec<u32> {
        // Build a (length, code) -> symbol map; linear scan per bit is fine
        // for the ≤ 256-symbol alphabets used by gradient quantizers.
        let mut by_len: Vec<Vec<(u32, u32)>> = vec![Vec::new(); MAX_CODE_LEN as usize + 1];
        for (s, &len) in self.lengths.iter().enumerate() {
            if len > 0 {
                by_len[len as usize].push((self.codes[s], s as u32));
            }
        }
        let mut out = Vec::with_capacity(count);
        let mut acc: u32 = 0;
        let mut acc_len: u8 = 0;
        let mut pos = 0usize; // bit position
        let total_bits = bits.len() * 8;
        'outer: while out.len() < count {
            loop {
                assert!(pos < total_bits, "huffman stream truncated");
                let byte = bits[pos / 8];
                let bit = (byte >> (7 - (pos % 8))) & 1;
                pos += 1;
                acc = (acc << 1) | bit as u32;
                acc_len += 1;
                for &(code, sym) in &by_len[acc_len as usize] {
                    if code == acc {
                        out.push(sym);
                        acc = 0;
                        acc_len = 0;
                        continue 'outer;
                    }
                }
                assert!(acc_len < MAX_CODE_LEN, "no matching huffman code");
            }
        }
        out
    }

    /// Convenience: builds a code from a stream and encodes it, returning
    /// `(lengths header, payload bits, bit count)`.
    pub fn encode_stream(symbols: &[u32], alphabet: usize) -> (Vec<u8>, Vec<u8>, u64) {
        let mut freqs = vec![0u64; alphabet];
        for &s in symbols {
            freqs[s as usize] += 1;
        }
        if symbols.is_empty() {
            return (vec![0; alphabet], Vec::new(), 0);
        }
        let code = Self::from_frequencies(&freqs);
        let (bits, nbits) = code.encode(symbols);
        (code.lengths().to_vec(), bits, nbits)
    }

    /// Convenience: decodes a stream produced by [`encode_stream`].
    ///
    /// [`encode_stream`]: HuffmanCode::encode_stream
    pub fn decode_stream(lengths: &[u8], bits: &[u8], count: usize) -> Vec<u32> {
        if count == 0 {
            return Vec::new();
        }
        Self::from_lengths(lengths.to_vec()).decode(bits, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn roundtrip_skewed_stream() {
        // Gradient-like skew: mostly zeros.
        let mut rng = crate::rng::seeded(5);
        let symbols: Vec<u32> = (0..5000)
            .map(|_| {
                let r: f32 = rng.gen();
                if r < 0.85 {
                    0
                } else if r < 0.95 {
                    1
                } else {
                    rng.gen_range(2..8)
                }
            })
            .collect();
        let (lengths, bits, nbits) = HuffmanCode::encode_stream(&symbols, 8);
        let decoded = HuffmanCode::decode_stream(&lengths, &bits, symbols.len());
        assert_eq!(decoded, symbols);
        // Skewed stream beats the fixed 3-bit packing.
        assert!(
            nbits < 3 * symbols.len() as u64,
            "huffman {nbits} bits not below fixed {}",
            3 * symbols.len()
        );
    }

    #[test]
    fn roundtrip_uniform_stream_costs_at_most_fixed_width_plus_one() {
        let symbols: Vec<u32> = (0..4096).map(|i| i % 16).collect();
        let (lengths, bits, nbits) = HuffmanCode::encode_stream(&symbols, 16);
        assert_eq!(
            HuffmanCode::decode_stream(&lengths, &bits, symbols.len()),
            symbols
        );
        assert!(nbits <= 5 * symbols.len() as u64);
    }

    #[test]
    fn single_symbol_alphabet() {
        let symbols = vec![3u32; 100];
        let (lengths, bits, nbits) = HuffmanCode::encode_stream(&symbols, 4);
        assert_eq!(nbits, 100);
        assert_eq!(HuffmanCode::decode_stream(&lengths, &bits, 100), symbols);
    }

    #[test]
    fn empty_stream() {
        let (lengths, bits, nbits) = HuffmanCode::encode_stream(&[], 4);
        assert_eq!(nbits, 0);
        assert!(bits.is_empty());
        assert!(HuffmanCode::decode_stream(&lengths, &bits, 0).is_empty());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs = vec![50u64, 20, 10, 10, 5, 5];
        let code = HuffmanCode::from_frequencies(&freqs);
        let used: Vec<usize> = (0..6).collect();
        for &a in &used {
            for &b in &used {
                if a == b {
                    continue;
                }
                let (la, lb) = (code.lengths[a], code.lengths[b]);
                if la <= lb {
                    let prefix = code.codes[b] >> (lb - la);
                    assert!(prefix != code.codes[a], "code {a} is a prefix of code {b}");
                }
            }
        }
    }

    #[test]
    fn kraft_inequality_holds() {
        let freqs = vec![90u64, 5, 3, 1, 1];
        let code = HuffmanCode::from_frequencies(&freqs);
        let kraft: f64 = code
            .lengths()
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12, "kraft sum {kraft}");
    }

    #[test]
    fn deterministic_construction() {
        let freqs = vec![10u64, 10, 10, 10];
        let a = HuffmanCode::from_frequencies(&freqs);
        let b = HuffmanCode::from_frequencies(&freqs);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_stream_panics() {
        let symbols: Vec<u32> = (0..64).map(|i| i % 4).collect();
        let (lengths, bits, _) = HuffmanCode::encode_stream(&symbols, 4);
        let _ = HuffmanCode::decode_stream(&lengths, &bits[..1], symbols.len());
    }
}
