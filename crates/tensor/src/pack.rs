//! Bit-packing primitives (the `pack` / `unpack` helpers of the GRACE API).
//!
//! Quantization compressors reduce each gradient element to a small number of
//! bits; to measure transmitted data volume *byte-exactly* (paper §V-A) the
//! quantized code-words must actually be packed into a dense byte buffer
//! rather than stored one-per-`u32`. The paper notes its own Python
//! implementation does *not* pack ("the data volumes are inflated for
//! quantization methods"); we implement real packing and account both packed
//! and unpacked sizes, which preserves the paper's relative comparisons.

/// All-ones in the low `bits` bits (`bits` in 1..=32).
fn low_mask(bits: u32) -> u32 {
    u32::MAX >> (32 - bits)
}

/// Packs `values[i] < 2^bits` code-words of width `bits` (1..=32) into bytes,
/// little-endian within the stream.
///
/// # Panics
///
/// Panics if `bits == 0`, `bits > 32`, or any value needs more than `bits`
/// bits.
///
/// # Example
///
/// ```
/// use grace_tensor::pack::{pack_bits, unpack_bits};
///
/// let words = vec![3u32, 0, 2, 1];
/// let packed = pack_bits(&words, 2);
/// assert_eq!(packed.len(), 1); // 4 values x 2 bits = 1 byte
/// assert_eq!(unpack_bits(&packed, 2, 4), words);
/// ```
pub fn pack_bits(values: &[u32], bits: u32) -> Vec<u8> {
    assert!((1..=32).contains(&bits), "bit width must be in 1..=32");
    let mut out = vec![0u8; packed_len(values.len(), bits)];
    if bits == 8 {
        // One byte per code: the vector narrowing kernel still measures
        // faster than the word body (DESIGN.md §14).
        validate_fit(values, 8);
        crate::simd::narrow_to_bytes(values, &mut out);
        return out;
    }
    let mut writer = BitWriter::new(&mut out, bits);
    let (groups, tail) = values.as_chunks::<8>();
    for group in groups {
        writer.write8(group);
    }
    writer.finish(tail);
    out
}

/// Panics at the first of `values` that needs more than `bits` bits, with
/// the message every packing path shares. One OR-reduction decides; the
/// rescan only runs on failure.
#[inline(always)]
fn validate_fit(values: &[u32], bits: u32) {
    let mask = low_mask(bits);
    if values.iter().fold(0, |acc, &v| acc | v) > mask {
        let v = values.iter().find(|&&v| v > mask).expect("an offender");
        panic!("value {v} does not fit in {bits} bits");
    }
}

/// Bytes [`pack8`] may write: a 32-bit group's, in whole words.
const PACK_WINDOW: usize = 32;

/// The one packing body: eight `bits`-wide codes into the first `bits`
/// bytes of `window`, through a `u64` bit buffer drained a 32-bit word at a
/// time. Eight codes of any width end on a byte boundary, so groups are
/// independent. The last word goes out whole, so up to 4 bytes past the
/// group's are zeroed — bytes of a later group, which the writer has yet
/// to fill.
#[inline(always)]
fn pack8(codes: &[u32; 8], bits: u32, window: &mut [u8; PACK_WINDOW]) {
    validate_fit(codes, bits);
    let mut words = window.as_chunks_mut::<4>().0.iter_mut();
    let mut flush = |acc: u64| {
        if let Some(word) = words.next() {
            *word = (acc as u32).to_le_bytes();
        }
    };
    let (mut acc, mut fill) = (0u64, 0u32);
    for &code in codes {
        // `fill < 32` here, so the code lands below bit 64.
        acc |= u64::from(code) << fill;
        fill += bits;
        if fill >= 32 {
            flush(acc);
            acc >>= 32;
            fill -= 32;
        }
    }
    flush(acc);
}

/// Bytes [`unpack8`] may read: the last code of a 32-bit group starts at
/// byte 28 and is cut out of an 8-byte load.
const UNPACK_WINDOW: usize = 40;

/// The one unpacking body: the eight codes of the group that starts at
/// `window[0]`. Code `i` starts at bit `i * bits` and spans at most 7 + 32
/// bits, so one unaligned 8-byte load holds all of it. The fixed window and
/// the `min` (a no-op: every caller checked the width) let the compiler
/// prove each load in bounds.
#[inline(always)]
fn unpack8(window: &[u8; UNPACK_WINDOW], bits: u32) -> [u32; 8] {
    let bits = bits.min(32);
    let mask = low_mask(bits);
    std::array::from_fn(|i| {
        let bit = i * bits as usize;
        let word: [u8; 8] = window[bit / 8..bit / 8 + 8]
            .try_into()
            .expect("eight bytes");
        (u64::from_le_bytes(word) >> (bit % 8)) as u32 & mask
    })
}

/// Streaming form of [`pack_bits`]: a codec hands over its codes eight at a
/// time and they land in the payload buffer directly, with no `Vec<u32>`
/// of codes in between. Produces the bytes [`pack_bits`] would.
#[derive(Debug)]
pub struct BitWriter<'a> {
    out: &'a mut [u8],
    bits: u32,
}

impl<'a> BitWriter<'a> {
    /// Writes `bits`-wide codes into `out`, which must be
    /// `packed_len(count, bits)` bytes for the `count` codes to come.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside 1..=32.
    pub fn new(out: &'a mut [u8], bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "bit width must be in 1..=32");
        BitWriter { out, bits }
    }

    /// Packs the next eight codes into the next `bits` bytes.
    ///
    /// # Panics
    ///
    /// Panics if a code needs more than `bits` bits or the buffer is full.
    #[inline(always)]
    pub fn write8(&mut self, codes: &[u32; 8]) {
        let out = std::mem::take(&mut self.out);
        match out.first_chunk_mut() {
            Some(window) => pack8(codes, self.bits, window),
            None => {
                // The last few groups: whole words would run off the end.
                let mut window = [0u8; PACK_WINDOW];
                pack8(codes, self.bits, &mut window);
                out[..self.bits as usize].copy_from_slice(&window[..self.bits as usize]);
            }
        }
        self.out = &mut out[self.bits as usize..];
    }

    /// Packs the last `tail.len() < 8` codes into what is left of the
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if a code needs more than `bits` bits, or the bytes left are
    /// not exactly the tail's.
    pub fn finish(self, tail: &[u32]) {
        assert_eq!(
            self.out.len(),
            packed_len(tail.len(), self.bits),
            "packed buffer does not end with its last {} codes",
            tail.len()
        );
        let mut codes = [0u32; 8];
        codes[..tail.len()].copy_from_slice(tail);
        let mut window = [0u8; PACK_WINDOW];
        pack8(&codes, self.bits, &mut window);
        self.out.copy_from_slice(&window[..self.out.len()]);
    }
}

/// Streaming form of [`unpack_bits_into`]: yields the codes of a packed
/// buffer eight at a time, straight out of the payload bytes.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    bits: u32,
}

impl<'a> BitReader<'a> {
    /// Reads `bits`-wide codes from `data`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside 1..=32.
    pub fn new(data: &'a [u8], bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "bit width must be in 1..=32");
        BitReader { data, bits }
    }

    /// Unpacks the next eight codes. Bytes past the end of the buffer read
    /// as zero, so the last call may cover fewer than eight real codes.
    #[inline(always)]
    pub fn read8(&mut self) -> [u32; 8] {
        let codes = match self.data.first_chunk() {
            Some(window) => unpack8(window, self.bits),
            None => {
                // The last few groups: the loads would run off the buffer.
                let mut padded = [0u8; UNPACK_WINDOW];
                padded[..self.data.len()].copy_from_slice(self.data);
                unpack8(&padded, self.bits)
            }
        };
        self.data = self.data.get(self.bits as usize..).unwrap_or_default();
        codes
    }
}

/// The bit-cursor definition of [`pack_bits`], kept as the oracle the word
/// body is tested (and benchmarked) against.
#[doc(hidden)]
pub fn pack_bits_generic(values: &[u32], bits: u32) -> Vec<u8> {
    assert!((1..=32).contains(&bits), "bit width must be in 1..=32");
    let mask = u64::from(low_mask(bits));
    let mut out = vec![0u8; packed_len(values.len(), bits)];
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
    out
}

/// Unpacks `count` code-words of width `bits` from a buffer produced by
/// [`pack_bits`].
///
/// # Panics
///
/// Panics if the buffer is too short to contain `count` values.
pub fn unpack_bits(packed: &[u8], bits: u32, count: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(count);
    unpack_bits_into(packed, bits, count, &mut out);
    out
}

/// Non-allocating variant of [`unpack_bits`]: clears `out` and unpacks into
/// it, reusing its capacity. Steady-state callers (the aggregation merge
/// path) keep one scratch vector per stream and never allocate once it has
/// grown to the largest tensor's size.
///
/// # Panics
///
/// Panics if the buffer is too short to contain `count` values.
pub fn unpack_bits_into(packed: &[u8], bits: u32, count: usize, out: &mut Vec<u32>) {
    assert!((1..=32).contains(&bits), "bit width must be in 1..=32");
    let need = packed_len(count, bits);
    assert!(
        packed.len() >= need,
        "packed buffer too short: have {} bytes, need {need}",
        packed.len()
    );
    out.clear();
    out.reserve(count);
    if bits == 8 {
        // The mirror of `pack_bits`' width-8 shortcut.
        out.resize(count, 0);
        crate::simd::widen_from_bytes(&packed[..count], out);
        return;
    }
    let mut reader = BitReader::new(&packed[..need], bits);
    for _ in 0..count / 8 {
        out.extend_from_slice(&reader.read8());
    }
    out.extend_from_slice(&reader.read8()[..count % 8]);
}

/// The bit-cursor definition of [`unpack_bits_into`], kept as the oracle for
/// the word body. Assumes the caller already validated the width, buffer
/// length, and cleared `out`.
#[doc(hidden)]
pub fn unpack_bits_generic_into(packed: &[u8], bits: u32, count: usize, out: &mut Vec<u32>) {
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

/// One bit per value, set where `bit` holds — value `i` at bit `i % 8` of
/// byte `i / 8` — written straight from the values, `bit` called on each in
/// order: the bitmap the sign codecs send (§III-A).
pub fn bitmap(values: &[f32], mut bit: impl FnMut(f32) -> bool) -> Vec<u8> {
    let mut out = vec![0u8; values.len().div_ceil(8)];
    for (byte, chunk) in out.iter_mut().zip(values.chunks(8)) {
        for (i, &v) in chunk.iter().enumerate() {
            *byte |= u8::from(bit(v)) << i;
        }
    }
    out
}

/// Number of bytes needed to pack `count` values of width `bits`.
pub fn packed_len(count: usize, bits: u32) -> usize {
    (count * bits as usize).div_ceil(8)
}

/// Words whose in-memory image is plain bytes: no padding, every byte
/// initialised. Private, so the two impls below are the whole set.
#[cfg(target_endian = "little")]
trait PlainWord: Copy {}
#[cfg(target_endian = "little")]
impl PlainWord for f32 {}
#[cfg(target_endian = "little")]
impl PlainWord for u32 {}

/// Views words as their in-memory bytes (their little-endian encoding, on
/// the targets this is compiled for).
#[cfg(target_endian = "little")]
fn words_as_bytes<T: PlainWord>(words: &[T]) -> &[u8] {
    // SAFETY: `PlainWord` types have no padding and no uninitialised bytes,
    // `u8` has alignment 1, and the view covers exactly the borrowed slice
    // for the same lifetime.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), size_of_val(words)) }
}

/// Appends `values` to `out` as little-endian bytes — one bulk copy where
/// the target is little-endian, so serialising a tensor costs a `memcpy`.
pub fn extend_f32s_le(out: &mut Vec<u8>, values: &[f32]) {
    #[cfg(target_endian = "little")]
    out.extend_from_slice(words_as_bytes(values));
    #[cfg(not(target_endian = "little"))]
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
}

/// [`extend_f32s_le`] for `u32` words.
pub fn extend_u32s_le(out: &mut Vec<u8>, values: &[u32]) {
    #[cfg(target_endian = "little")]
    out.extend_from_slice(words_as_bytes(values));
    #[cfg(not(target_endian = "little"))]
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
}

/// Clears `out` and decodes little-endian bytes into it, reusing its
/// capacity.
///
/// # Panics
///
/// Panics if the byte length is not a multiple of 4.
pub fn read_f32s_le(bytes: &[u8], out: &mut Vec<f32>) {
    let (words, tail) = bytes.as_chunks::<4>();
    assert!(tail.is_empty(), "byte length must be a multiple of 4");
    out.clear();
    out.extend(words.iter().map(|w| f32::from_le_bytes(*w)));
}

/// [`read_f32s_le`] for `u32` words.
///
/// # Panics
///
/// Panics if the byte length is not a multiple of 4.
pub fn read_u32s_le(bytes: &[u8], out: &mut Vec<u32>) {
    let (words, tail) = bytes.as_chunks::<4>();
    assert!(tail.is_empty(), "byte length must be a multiple of 4");
    out.clear();
    out.extend(words.iter().map(|w| u32::from_le_bytes(*w)));
}

/// [`crate::simd::sum_into`] over two equally long buffers of
/// little-endian `f32` words held as bytes (no alignment assumed) — how the
/// socket hub and the shared-region fold sum requests straight out of
/// their buffers, with the same [`crate::simd::fold_add`] per word.
///
/// # Panics
///
/// Panics if the lengths differ or are not a multiple of 4.
pub fn add_f32s_le(acc: &mut [u8], src: &[u8]) {
    add_f32s_le_at(crate::simd::level(), acc, src);
}

/// [`add_f32s_le`] with an explicit dispatch level: the vector levels run
/// the portable loop compiled for their lanes.
///
/// # Panics
///
/// As [`add_f32s_le`], and if the CPU cannot run `lvl`.
pub fn add_f32s_le_at(lvl: crate::simd::Level, acc: &mut [u8], src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "add_f32s_le length mismatch");
    let (acc, tail) = acc.as_chunks_mut::<4>();
    assert!(tail.is_empty(), "byte length must be a multiple of 4");
    let src = src.as_chunks::<4>().0;
    crate::simd::dispatch!(lvl,
        scalar: add_words(acc, src),
        avx2: x86::add_words_avx2(acc, src),
        avx512: x86::add_words_avx512(acc, src))
}

/// [`add_f32s_le`]'s loop over whole words.
#[inline(always)]
fn add_words(acc: &mut [[u8; 4]], src: &[[u8; 4]]) {
    for (a, s) in acc.iter_mut().zip(src) {
        let sum = crate::simd::fold_add(f32::from_le_bytes(*a), f32::from_le_bytes(*s));
        *a = sum.to_le_bytes();
    }
}

/// Deserializes little-endian bytes back to `f32` values.
///
/// # Panics
///
/// Panics if the byte length is not a multiple of 4.
pub fn bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    let mut out = Vec::new();
    read_f32s_le(bytes, &mut out);
    out
}

/// Deserializes little-endian bytes back to `u32` values.
///
/// # Panics
///
/// Panics if the byte length is not a multiple of 4.
pub fn bytes_to_u32s(bytes: &[u8]) -> Vec<u32> {
    let mut out = Vec::new();
    read_u32s_le(bytes, &mut out);
    out
}

/// Incremental CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
///
/// Used by the payload codec and the socket framer to detect wire
/// corruption: a flipped bit in a framed stream must surface as an explicit
/// reject, never as silently divergent replicas. Matches the common
/// `crc32`/zlib checksum, so values can be cross-checked with external
/// tools. The byte loop is [`crate::simd::crc32_update`] (table, or CLMUL
/// folding on x86-64); feeding the input in any number of pieces gives the
/// same checksum as one call.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A checksum over no bytes yet.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = crate::simd::crc32_update(self.state, bytes);
    }

    /// The checksum of everything absorbed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot [`Crc32`] of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The bit-at-a-time definition of [`crc32`], kept as the oracle the table
/// and CLMUL kernels are tested (and benchmarked) against.
#[doc(hidden)]
pub fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    /// [`super::add_words`] at eight lanes per vector.
    #[target_feature(enable = "avx2")]
    pub fn add_words_avx2(acc: &mut [[u8; 4]], src: &[[u8; 4]]) {
        super::add_words(acc, src);
    }

    /// [`super::add_words`] at sixteen lanes per vector.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub fn add_words_avx512(acc: &mut [[u8; 4]], src: &[[u8; 4]]) {
        super::add_words(acc, src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard zlib/IEEE reference values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_split_updates_equal_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = crc32(&data);
        assert_eq!(whole, crc32_bitwise(&data));
        for cut in [0, 1, 7, 63, 64, 65, 500, 999, 1000] {
            let mut crc = Crc32::new();
            crc.update(&data[..cut]);
            crc.update(&data[cut..]);
            assert_eq!(crc.finish(), whole, "cut at {cut}");
        }
        assert_eq!(Crc32::default().finish(), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"gradient payload bytes".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn roundtrip_small_widths() {
        for bits in 1..=8u32 {
            let max = if bits == 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            };
            let values: Vec<u32> = (0..100).map(|i| (i * 7) as u32 % (max + 1)).collect();
            let packed = pack_bits(&values, bits);
            assert_eq!(packed.len(), packed_len(values.len(), bits));
            assert_eq!(unpack_bits(&packed, bits, values.len()), values);
        }
    }

    #[test]
    fn roundtrip_wide_widths() {
        let values = [u32::MAX, 0, 123_456_789, 42];
        for bits in [27u32, 31, 32] {
            let vals: Vec<u32> = values
                .iter()
                .map(|v| if bits == 32 { *v } else { v % (1 << bits) })
                .collect();
            let packed = pack_bits(&vals, bits);
            assert_eq!(unpack_bits(&packed, bits, vals.len()), vals);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pack_rejects_overflow() {
        let _ = pack_bits(&[4], 2);
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn pack_rejects_zero_width() {
        let _ = pack_bits(&[0], 0);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn unpack_rejects_short_buffer() {
        let _ = unpack_bits(&[0u8], 8, 2);
    }

    #[test]
    fn word_body_matches_the_bit_cursor_oracle() {
        for bits in 1..=32u32 {
            let max = if bits == 32 {
                u32::MAX
            } else {
                (1 << bits) - 1
            };
            for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100] {
                let values: Vec<u32> = (0..len)
                    .map(|i| (i as u32).wrapping_mul(0x9E37_79B9) & max)
                    .collect();
                let fast = pack_bits(&values, bits);
                let reference = pack_bits_generic(&values, bits);
                assert_eq!(fast, reference, "pack {bits}-bit len {len}");
                let mut a = Vec::new();
                unpack_bits_into(&fast, bits, len, &mut a);
                let mut b = Vec::new();
                unpack_bits_generic_into(&fast, bits, len, &mut b);
                assert_eq!(a, b, "unpack {bits}-bit len {len}");
                assert_eq!(a, values, "roundtrip {bits}-bit len {len}");
            }
        }
    }

    #[test]
    fn streaming_writer_and_reader_agree_with_the_slice_forms() {
        let values: Vec<u32> = (0..21).map(|i| (i * 37) % 128).collect();
        let mut streamed = vec![0u8; packed_len(values.len(), 7)];
        let mut writer = BitWriter::new(&mut streamed, 7);
        let (groups, tail) = values.as_chunks::<8>();
        for group in groups {
            writer.write8(group);
        }
        writer.finish(tail);
        assert_eq!(streamed, pack_bits(&values, 7));
        let mut reader = BitReader::new(&streamed, 7);
        let read: Vec<u32> = (0..3).flat_map(|_| reader.read8()).collect();
        assert_eq!(read[..21], values[..]);
        assert_eq!(read[21..], [0, 0, 0], "past the end reads as zero");
    }

    #[test]
    #[should_panic(expected = "does not end with its last 2 codes")]
    fn writer_rejects_a_buffer_sized_for_other_codes() {
        let mut out = [0u8; 3];
        BitWriter::new(&mut out, 7).finish(&[1, 2]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn width_8_shortcut_rejects_overflow_with_the_same_message() {
        let _ = pack_bits(&[1, 2, 300, 4], 8);
    }

    #[test]
    fn bitmap_sets_bit_i_of_byte_i_over_8() {
        let values = [-1.0, 2.0, 0.0, -0.5, -3.0, 1.0, -2.0, 4.0, -8.0];
        let mut order = Vec::new();
        let packed = bitmap(&values, |v| {
            order.push(v);
            v < 0.0
        });
        assert_eq!(packed, vec![0b0101_1001, 0b1]); // 9 bits -> 2 bytes
        assert_eq!(order, values, "one call per value, in order");
    }

    #[test]
    fn empty_inputs() {
        assert!(pack_bits(&[], 5).is_empty());
        assert!(unpack_bits(&[], 5, 0).is_empty());
        assert!(bitmap(&[], |_| true).is_empty());
    }

    #[test]
    fn le_word_helpers_roundtrip_and_append() {
        let fs = vec![1.5f32, -0.25, f32::MIN_POSITIVE, 1e30];
        let us = vec![0u32, 1, u32::MAX, 77];
        let mut bytes = vec![0xAA];
        extend_f32s_le(&mut bytes, &fs);
        extend_u32s_le(&mut bytes, &us);
        assert_eq!(bytes[0], 0xAA, "appends, never overwrites");
        assert_eq!(bytes[1..5], 1.5f32.to_le_bytes());
        assert_eq!(bytes_to_f32s(&bytes[1..17]), fs);
        assert_eq!(bytes_to_u32s(&bytes[17..]), us);
        let mut pooled = vec![9.0f32; 100];
        read_f32s_le(&bytes[1..17], &mut pooled);
        assert_eq!(pooled, fs, "clears before reading");
    }

    /// The sum, and where both words are NaN the accumulator's NaN: the
    /// first rank's, as every cross-rank sum keeps it.
    #[test]
    fn add_f32s_le_is_the_elementwise_sum_at_any_alignment() {
        let nan = |bits: u32| f32::from_bits(bits);
        let a = [
            1.5f32,
            -0.0,
            1e-40,
            f32::MAX,
            3.25,
            nan(0x7fc0_0001),
            2.0,
            nan(0xffc0_0003),
            f32::INFINITY,
        ];
        let b = [
            0.25f32,
            0.0,
            1e-40,
            f32::MAX,
            -3.25,
            nan(0xffc0_0002),
            nan(0x7fc0_0004),
            1.0,
            f32::NEG_INFINITY,
        ];
        // At run time, as the kernel adds: a constant-folded `∞ + −∞` is
        // another NaN than the hardware's.
        let add = |x: &f32, y: &f32| (std::hint::black_box(*x) + y).to_bits();
        let mut want: Vec<u32> = a.iter().zip(&b).map(|(x, y)| add(x, y)).collect();
        want[5] = 0x7fc0_0001;
        for offset in 0..4 {
            let mut acc = vec![0u8; offset];
            extend_f32s_le(&mut acc, &a);
            let mut src = vec![0u8; 3 - offset];
            extend_f32s_le(&mut src, &b);
            add_f32s_le(&mut acc[offset..], &src[3 - offset..]);
            let got: Vec<u32> = bytes_to_f32s(&acc[offset..])
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want, "offset {offset}");
        }
    }

    #[test]
    fn packed_len_matches_formula() {
        assert_eq!(packed_len(8, 1), 1);
        assert_eq!(packed_len(9, 1), 2);
        assert_eq!(packed_len(3, 8), 3);
        assert_eq!(packed_len(5, 3), 2);
        assert_eq!(packed_len(0, 7), 0);
    }
}
