//! Compressed wire payloads with byte-exact size accounting.
//!
//! A compressor turns one gradient tensor into a list of [`Payload`]s. Each
//! payload knows its exact transmitted size ([`Payload::encoded_bytes`]) using
//! the paper's data-volume convention (§V-A: "4 bytes for float32, 1 byte for
//! 256-level quantized data") — except that, unlike the paper's Python
//! implementation, bit-packed payloads here really are packed, so quantizer
//! volumes are not inflated.
//!
//! Payloads serialize to a self-describing byte stream so the threaded
//! runtime can ship them through `Allgather`. The stream ends with a CRC32
//! trailer ([`grace_tensor::pack::crc32`]): a corrupted stream surfaces as a
//! [`PayloadError`] from [`decode_checked`] instead of silently diverging
//! replicas.
//!
//! Two layouts sit on top of the stream, each written and parsed here and
//! nowhere else: a rank's contribution to one gathered **tensor**
//! ([`encode_frame`] / [`decode_frame`]: the payloads plus one trailing
//! `F32` payload of context scalars), and its contribution to one fusion
//! **bucket** — the wire unit of a gathered collective
//! ([`encode_bucket_into`] / [`split_bucket`]: a counted, length-prefixed
//! run of tensor frames).

use grace_tensor::pack;

/// Why a payload stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadError {
    /// The CRC32 trailer did not match the stream contents.
    ChecksumMismatch {
        /// Checksum carried in the trailer.
        expected: u32,
        /// Checksum recomputed over the received bytes.
        actual: u32,
    },
    /// The stream is structurally invalid (truncated, unknown tag, trailing
    /// bytes).
    Malformed(String),
}

impl std::fmt::Display for PayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PayloadError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum mismatch: trailer {expected:#010x}, computed {actual:#010x}"
            ),
            PayloadError::Malformed(why) => write!(f, "malformed payload stream: {why}"),
        }
    }
}

impl std::error::Error for PayloadError {}

/// One unit of compressed data.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Dense `f32` values (4 bytes each). Sum-compatible: `Allreduce`-able.
    F32(Vec<f32>),
    /// Indices or other `u32` data (4 bytes each).
    U32(Vec<u32>),
    /// `count` code-words bit-packed at `bits` bits each.
    Packed {
        /// Packed little-endian bit stream.
        data: Vec<u8>,
        /// Bits per code-word (1..=32).
        bits: u32,
        /// Number of code-words.
        count: u32,
    },
    /// Arbitrary encoded bytes.
    Bytes(Vec<u8>),
}

impl Payload {
    /// Builds a packed payload from code-words.
    ///
    /// # Panics
    ///
    /// Panics if a value does not fit in `bits` (see
    /// [`pack::pack_bits`]).
    pub fn packed(values: &[u32], bits: u32) -> Self {
        Payload::Packed {
            data: pack::pack_bits(values, bits),
            bits,
            count: values.len() as u32,
        }
    }

    /// Unpacks a [`Payload::Packed`] back into code-words.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not `Packed`.
    pub fn unpack(&self) -> Vec<u32> {
        match self {
            Payload::Packed { data, bits, count } => {
                pack::unpack_bits(data, *bits, *count as usize)
            }
            other => panic!("expected a packed payload, got {other:?}"),
        }
    }

    /// Non-allocating variant of [`unpack`](Self::unpack): clears `out` and
    /// unpacks into it, reusing its capacity — the aggregation merge path's
    /// pooled-scratch primitive.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not `Packed`.
    pub fn unpack_into(&self, out: &mut Vec<u32>) {
        match self {
            Payload::Packed { data, bits, count } => {
                pack::unpack_bits_into(data, *bits, *count as usize, out);
            }
            other => panic!("expected a packed payload, got {other:?}"),
        }
    }

    /// Exact transmitted size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        match self {
            Payload::F32(v) => v.len() * 4,
            Payload::U32(v) => v.len() * 4,
            Payload::Packed { data, .. } => data.len(),
            Payload::Bytes(b) => b.len(),
        }
    }

    /// Borrows the dense values of an [`Payload::F32`].
    ///
    /// # Panics
    ///
    /// Panics if the payload is not `F32`.
    pub fn as_f32(&self) -> &[f32] {
        match self {
            Payload::F32(v) => v,
            other => panic!("expected an f32 payload, got {other:?}"),
        }
    }

    /// Borrows the values of a [`Payload::U32`].
    ///
    /// # Panics
    ///
    /// Panics if the payload is not `U32`.
    pub fn as_u32(&self) -> &[u32] {
        match self {
            Payload::U32(v) => v,
            other => panic!("expected a u32 payload, got {other:?}"),
        }
    }
}

/// Total transmitted bytes of a payload list.
pub fn total_bytes(payloads: &[Payload]) -> usize {
    payloads.iter().map(Payload::encoded_bytes).sum()
}

/// A zero-copy view of one payload, borrowing either an owned [`Payload`]'s
/// buffers or a slice of a decoded frame body.
///
/// Wire-backed views (`F32Le`/`U32Le`) keep the little-endian bytes in
/// place: a frame body carries no alignment guarantee, so a `&[f32]`
/// reinterpretation would be unsound. Byte-backed variants (`Packed`,
/// `Bytes`) are identical in both worlds — and those are exactly the
/// variants the homomorphic folds consume, so the fold path never
/// rematerializes a `Vec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadView<'a> {
    /// Dense `f32` values borrowed from an owned payload.
    F32(&'a [f32]),
    /// Dense `f32` values as little-endian bytes in a frame body.
    F32Le(&'a [u8]),
    /// `u32` values borrowed from an owned payload.
    U32(&'a [u32]),
    /// `u32` values as little-endian bytes in a frame body.
    U32Le(&'a [u8]),
    /// `count` code-words bit-packed at `bits` bits each.
    Packed {
        /// Packed little-endian bit stream.
        data: &'a [u8],
        /// Bits per code-word (1..=32).
        bits: u32,
        /// Number of code-words.
        count: u32,
    },
    /// Arbitrary encoded bytes.
    Bytes(&'a [u8]),
}

impl<'a> PayloadView<'a> {
    /// Views an owned payload without copying.
    pub fn of(payload: &'a Payload) -> Self {
        match payload {
            Payload::F32(v) => PayloadView::F32(v),
            Payload::U32(v) => PayloadView::U32(v),
            Payload::Packed { data, bits, count } => PayloadView::Packed {
                data,
                bits: *bits,
                count: *count,
            },
            Payload::Bytes(b) => PayloadView::Bytes(b),
        }
    }

    /// Materializes the view into an owned [`Payload`].
    pub fn to_payload(self) -> Payload {
        match self {
            PayloadView::F32(v) => Payload::F32(v.to_vec()),
            PayloadView::F32Le(b) => Payload::F32(pack::bytes_to_f32s(b)),
            PayloadView::U32(v) => Payload::U32(v.to_vec()),
            PayloadView::U32Le(b) => Payload::U32(pack::bytes_to_u32s(b)),
            PayloadView::Packed { data, bits, count } => Payload::Packed {
                data: data.to_vec(),
                bits,
                count,
            },
            PayloadView::Bytes(b) => Payload::Bytes(b.to_vec()),
        }
    }

    /// Exact transmitted size in bytes (same convention as
    /// [`Payload::encoded_bytes`]).
    pub fn encoded_bytes(&self) -> usize {
        match self {
            PayloadView::F32(v) => v.len() * 4,
            PayloadView::F32Le(b) => b.len(),
            PayloadView::U32(v) => v.len() * 4,
            PayloadView::U32Le(b) => b.len(),
            PayloadView::Packed { data, .. } => data.len(),
            PayloadView::Bytes(b) => b.len(),
        }
    }

    /// Non-allocating unpack of a packed view into a pooled scratch vector
    /// (mirrors [`Payload::unpack_into`]).
    ///
    /// # Panics
    ///
    /// Panics if the view is not `Packed`.
    pub fn unpack_into(&self, out: &mut Vec<u32>) {
        match self {
            PayloadView::Packed { data, bits, count } => {
                pack::unpack_bits_into(data, *bits, *count as usize, out);
            }
            other => panic!("expected a packed payload, got {other:?}"),
        }
    }

    /// Borrows the raw bytes of a `Bytes` view.
    ///
    /// # Panics
    ///
    /// Panics if the view is not `Bytes`.
    pub fn as_bytes(&self) -> &'a [u8] {
        match self {
            PayloadView::Bytes(b) => b,
            other => panic!("expected a bytes payload, got {other:?}"),
        }
    }

    /// Reads the dense `f32` values of an `F32`/`F32Le` view into a pooled
    /// scratch vector (clears `out`, reuses its capacity).
    ///
    /// # Panics
    ///
    /// Panics if the view is not an `f32` payload.
    pub fn read_f32s_into(&self, out: &mut Vec<f32>) {
        out.clear();
        match self {
            PayloadView::F32(v) => out.extend_from_slice(v),
            PayloadView::F32Le(b) => pack::read_f32s_le(b, out),
            other => panic!("expected an f32 payload, got {other:?}"),
        }
    }

    /// Reads the values of a `U32`/`U32Le` view into a pooled scratch
    /// vector (clears `out`, reuses its capacity).
    ///
    /// # Panics
    ///
    /// Panics if the view is not a `u32` payload.
    pub fn read_u32s_into(&self, out: &mut Vec<u32>) {
        out.clear();
        match self {
            PayloadView::U32(v) => out.extend_from_slice(v),
            PayloadView::U32Le(b) => pack::read_u32s_le(b, out),
            other => panic!("expected a u32 payload, got {other:?}"),
        }
    }
}

/// A borrowed list of payloads handed to the homomorphic fold — either
/// owned [`Payload`]s (the in-process engine) or zero-copy
/// [`PayloadView`]s straight out of a decoded frame body (the socket
/// transport). `Copy`, so passing it around costs nothing.
#[derive(Debug, Clone, Copy)]
pub enum PayloadList<'a> {
    /// Owned payloads, viewed in place.
    Owned(&'a [Payload]),
    /// Zero-copy frame-body views.
    Views(&'a [PayloadView<'a>]),
}

impl<'a> PayloadList<'a> {
    /// Number of payloads in the list.
    pub fn len(&self) -> usize {
        match self {
            PayloadList::Owned(p) => p.len(),
            PayloadList::Views(v) => v.len(),
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Views the `i`-th payload.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> PayloadView<'a> {
        match self {
            PayloadList::Owned(p) => PayloadView::of(&p[i]),
            PayloadList::Views(v) => v[i],
        }
    }
}

impl<'a> From<&'a [Payload]> for PayloadList<'a> {
    fn from(payloads: &'a [Payload]) -> Self {
        PayloadList::Owned(payloads)
    }
}

const TAG_F32: u8 = 0;
const TAG_U32: u8 = 1;
const TAG_PACKED: u8 = 2;
const TAG_BYTES: u8 = 3;

/// Bytes the self-describing codec adds around one payload list: the count
/// word plus the CRC32 trailer (per-payload tag/length framing comes on top).
pub const FRAME_OVERHEAD: usize = 8;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, v: &[f32]) {
    out.push(TAG_F32);
    put_u32(out, v.len() as u32);
    pack::extend_f32s_le(out, v);
}

/// Exact length of the stream [`append_stream`] writes.
fn stream_len(payloads: &[Payload], meta: Option<&[f32]>) -> usize {
    // Tag and length words per payload (`Packed` also carries bits and
    // count), on top of the count word and the trailer.
    let framing = |p: &Payload| match p {
        Payload::Packed { .. } => 13,
        _ => 5,
    };
    FRAME_OVERHEAD
        + payloads
            .iter()
            .map(|p| framing(p) + p.encoded_bytes())
            .sum::<usize>()
        + meta.map_or(0, |m| 5 + m.len() * 4)
}

/// Appends one self-describing stream to `out`: `payloads`, then `meta` as
/// one more `F32` payload when given, then a CRC32 trailer over exactly the
/// bytes appended here.
fn append_stream(out: &mut Vec<u8>, payloads: &[Payload], meta: Option<&[f32]>) {
    let start = out.len();
    put_u32(out, (payloads.len() + usize::from(meta.is_some())) as u32);
    for p in payloads {
        match p {
            Payload::F32(v) => put_f32s(out, v),
            Payload::U32(v) => {
                out.push(TAG_U32);
                put_u32(out, v.len() as u32);
                pack::extend_u32s_le(out, v);
            }
            Payload::Packed { data, bits, count } => {
                out.push(TAG_PACKED);
                put_u32(out, *bits);
                put_u32(out, *count);
                put_u32(out, data.len() as u32);
                out.extend_from_slice(data);
            }
            Payload::Bytes(b) => {
                out.push(TAG_BYTES);
                put_u32(out, b.len() as u32);
                out.extend_from_slice(b);
            }
        }
    }
    if let Some(meta) = meta {
        put_f32s(out, meta);
    }
    let crc = pack::crc32(&out[start..]);
    put_u32(out, crc);
    debug_assert_eq!(
        out.len() - start,
        stream_len(payloads, meta),
        "encoded length formula drifted"
    );
}

/// Serializes a payload list to a self-describing byte stream (used by the
/// threaded runtime's `Allgather`), ending with a CRC32 trailer over
/// everything before it.
pub fn encode(payloads: &[Payload]) -> Vec<u8> {
    let mut out = Vec::with_capacity(stream_len(payloads, None));
    append_stream(&mut out, payloads, None);
    out
}

/// A streaming zero-copy parser over an encoded payload frame.
///
/// [`new_checked`](Self::new_checked) validates the frame envelope (length
/// and CRC32 trailer) once; [`next_view`](Self::next_view) then yields each
/// payload as a borrowed [`PayloadView`] without copying a single body
/// byte. This is the single source of format truth: [`decode_checked`] is
/// implemented on top of it by materializing every view.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    body: &'a [u8],
    pos: usize,
    remaining: u32,
}

impl<'a> PayloadReader<'a> {
    /// Validates the frame envelope and positions the reader at the first
    /// payload.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::ChecksumMismatch`] when the CRC32 trailer
    /// disagrees with the received bytes, and [`PayloadError::Malformed`]
    /// when the stream is too short to carry a frame.
    pub fn new_checked(bytes: &'a [u8]) -> Result<Self, PayloadError> {
        if bytes.len() < FRAME_OVERHEAD {
            return Err(PayloadError::Malformed(format!(
                "stream of {} bytes is shorter than the {FRAME_OVERHEAD}-byte frame",
                bytes.len()
            )));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let expected = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let actual = pack::crc32(body);
        if expected != actual {
            return Err(PayloadError::ChecksumMismatch { expected, actual });
        }
        let mut reader = PayloadReader {
            body,
            pos: 0,
            remaining: 0,
        };
        reader.remaining = reader.read_u32()?;
        Ok(reader)
    }

    /// Number of payloads not yet yielded.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PayloadError> {
        if self.pos + n > self.body.len() {
            return Err(PayloadError::Malformed(format!(
                "truncated stream: need {n} bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn read_u32(&mut self) -> Result<u32, PayloadError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Yields the next payload as a zero-copy view, or `Ok(None)` once the
    /// advertised payload count is exhausted (at which point the stream
    /// must also be fully consumed).
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::Malformed`] on truncation, an unknown tag,
    /// a `Packed` header whose width is outside 1..=32 or whose body is not
    /// `packed_len(count, bits)` bytes, or trailing bytes after the final
    /// payload.
    #[allow(clippy::should_implement_trait)] // Iterator can't return borrows tied to &mut self errors this way
    pub fn next_view(&mut self) -> Result<Option<PayloadView<'a>>, PayloadError> {
        if self.remaining == 0 {
            if self.pos != self.body.len() {
                return Err(PayloadError::Malformed(
                    "trailing bytes in payload stream".to_string(),
                ));
            }
            return Ok(None);
        }
        self.remaining -= 1;
        let tag = self.take(1)?[0];
        let view = match tag {
            TAG_F32 => {
                let len = self.read_u32()? as usize;
                PayloadView::F32Le(self.take(len * 4)?)
            }
            TAG_U32 => {
                let len = self.read_u32()? as usize;
                PayloadView::U32Le(self.take(len * 4)?)
            }
            TAG_PACKED => {
                let bits = self.read_u32()?;
                let count = self.read_u32()?;
                let len = self.read_u32()? as usize;
                // The header must describe its own body, or unpacking it
                // would run off the end (or past the width the packers
                // support) on the receiving rank.
                let body_bits = (1..=32)
                    .contains(&bits)
                    .then(|| (count as usize).checked_mul(bits as usize))
                    .flatten();
                if body_bits.map(|b| b.div_ceil(8)) != Some(len) {
                    return Err(PayloadError::Malformed(format!(
                        "packed payload of {count} {bits}-bit codes carries {len} bytes"
                    )));
                }
                PayloadView::Packed {
                    data: self.take(len)?,
                    bits,
                    count,
                }
            }
            TAG_BYTES => {
                let len = self.read_u32()? as usize;
                PayloadView::Bytes(self.take(len)?)
            }
            other => {
                return Err(PayloadError::Malformed(format!(
                    "unknown payload tag {other}"
                )));
            }
        };
        Ok(Some(view))
    }
}

/// Decodes a byte stream produced by [`encode`], verifying the CRC32
/// trailer first.
///
/// # Errors
///
/// Returns [`PayloadError::ChecksumMismatch`] when the trailer disagrees
/// with the received bytes (wire corruption), and
/// [`PayloadError::Malformed`] when the stream structure is invalid.
pub fn decode_checked(bytes: &[u8]) -> Result<Vec<Payload>, PayloadError> {
    let mut reader = PayloadReader::new_checked(bytes)?;
    let mut out = Vec::with_capacity((reader.remaining() as usize).min(1024));
    while let Some(view) = reader.next_view()? {
        out.push(view.to_payload());
    }
    Ok(out)
}

/// Most payloads one gathered frame may carry, trailing meta included — a
/// bound on wire input that also lets [`decode_frame`] parse into a stack
/// array, so the zero-copy fold allocates nothing per frame.
pub const FRAME_MAX_PAYLOADS: usize = 8;

/// Serializes one rank's contribution to a gathered tensor: the compressor's
/// payloads followed by one trailing `F32` payload carrying the context
/// scalars. [`decode_frame`] is the only other place that knows this layout.
pub fn encode_frame(payloads: Vec<Payload>, meta: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(stream_len(&payloads, Some(meta)));
    encode_frame_into(&mut out, &payloads, meta);
    out
}

/// Appends exactly the bytes [`encode_frame`] returns to `out` (own CRC32
/// included), so a bucket's frames land in one buffer with no per-tensor
/// `Vec`.
pub fn encode_frame_into(out: &mut Vec<u8>, payloads: &[Payload], meta: &[f32]) {
    append_stream(out, payloads, Some(meta));
}

/// Appends one rank's contribution to a fusion bucket — the wire unit of an
/// `Allgather` collective — to `out`:
///
/// ```text
/// u32 n ‖ n × ( u32 len ‖ <encode_frame bytes of tensor t, len of them> )
/// ```
///
/// `tensors` yields each tensor's `(payloads, meta)` in plan order. The
/// envelope carries no checksum of its own: every frame keeps its CRC32, and
/// a damaged count or length cannot pass [`split_bucket`], because the
/// lengths must tile the buffer exactly. `out` grows once, by the exact
/// total.
pub fn encode_bucket_into<'p>(
    out: &mut Vec<u8>,
    tensors: impl ExactSizeIterator<Item = (&'p [Payload], &'p [f32])> + Clone,
) {
    let total: usize = tensors
        .clone()
        .map(|(payloads, meta)| 4 + stream_len(payloads, Some(meta)))
        .sum();
    out.reserve(4 + total);
    put_u32(out, tensors.len() as u32);
    for (payloads, meta) in tensors {
        put_u32(out, stream_len(payloads, Some(meta)) as u32);
        encode_frame_into(out, payloads, meta);
    }
}

/// One rank's bucket contribution, already checked by [`split_bucket`]:
/// yields the tensors' frames in plan order.
#[derive(Debug, Clone)]
pub struct BucketFrames<'a> {
    rest: &'a [u8],
    remaining: usize,
}

impl<'a> Iterator for BucketFrames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.remaining = self.remaining.checked_sub(1)?;
        // `split_bucket` walked these exact lengths.
        let (len, rest) = self.rest.split_first_chunk::<4>()?;
        let (frame, rest) = rest.split_at(u32::from_le_bytes(*len) as usize);
        self.rest = rest;
        Some(frame)
    }
}

/// Splits bytes produced by [`encode_bucket_into`] into the `tensors` frames
/// the receiver's own plan puts in this bucket. The bytes come from a peer:
/// the walk is sized by the caller's count, never by the header, and every
/// disagreement is an error, not a panic.
///
/// # Errors
///
/// [`PayloadError::Malformed`] when the count word is missing or is not
/// `tensors`, a length word is cut short or overruns the buffer, or bytes
/// remain after the last frame. The frames themselves are not inspected —
/// [`decode_frame`] does that per tensor.
pub fn split_bucket(bytes: &[u8], tensors: usize) -> Result<BucketFrames<'_>, PayloadError> {
    let malformed = |why: String| Err(PayloadError::Malformed(why));
    let Some((count, body)) = bytes.split_first_chunk::<4>() else {
        return malformed(format!("bucket of {} bytes has no count word", bytes.len()));
    };
    let count = u32::from_le_bytes(*count);
    if count as usize != tensors {
        return malformed(format!(
            "bucket carries {count} tensor frames, the plan has {tensors}"
        ));
    }
    let mut rest = body;
    for t in 0..tensors {
        let Some((len, after)) = rest.split_first_chunk::<4>() else {
            return malformed(format!("bucket ends before tensor {t}'s length word"));
        };
        let len = u32::from_le_bytes(*len) as usize;
        if len > after.len() {
            return malformed(format!(
                "tensor {t}'s frame claims {len} bytes, {} remain",
                after.len()
            ));
        }
        rest = &after[len..];
    }
    if !rest.is_empty() {
        return malformed(format!(
            "{} trailing bytes after the bucket's last frame",
            rest.len()
        ));
    }
    Ok(BucketFrames {
        rest: body,
        remaining: tensors,
    })
}

/// One gathered frame parsed in place by [`decode_frame`].
#[derive(Debug)]
pub struct FrameView<'a> {
    views: [PayloadView<'a>; FRAME_MAX_PAYLOADS],
    n: usize,
}

impl<'a> FrameView<'a> {
    /// The compressor's payloads (the trailing meta payload excluded).
    pub fn payloads(&self) -> &[PayloadView<'a>] {
        &self.views[..self.n - 1]
    }

    /// Reads the sender's context scalars into a pooled vector.
    pub fn read_meta_into(&self, out: &mut Vec<f32>) {
        self.views[self.n - 1].read_f32s_into(out);
    }
}

/// Parses bytes produced by [`encode_frame`] into zero-copy views. The bytes
/// come from a peer, so every way they can disagree with the layout is an
/// error, never a panic.
///
/// # Errors
///
/// [`PayloadError::ChecksumMismatch`] on a CRC failure;
/// [`PayloadError::Malformed`] on structural damage, an empty payload list,
/// more than [`FRAME_MAX_PAYLOADS`] payloads, or a trailer that is not `F32`.
pub fn decode_frame(bytes: &[u8]) -> Result<FrameView<'_>, PayloadError> {
    let mut reader = PayloadReader::new_checked(bytes)?;
    let count = reader.remaining() as usize;
    if count == 0 || count > FRAME_MAX_PAYLOADS {
        return Err(PayloadError::Malformed(format!(
            "gathered frame carries {count} payloads, expected 1..={FRAME_MAX_PAYLOADS}"
        )));
    }
    let mut views = [PayloadView::Bytes(&[]); FRAME_MAX_PAYLOADS];
    let mut n = 0;
    while let Some(view) = reader.next_view()? {
        views[n] = view;
        n += 1;
    }
    if !matches!(views[n - 1], PayloadView::F32Le(_)) {
        return Err(PayloadError::Malformed(
            "gathered frame does not end with the f32 meta payload".to_string(),
        ));
    }
    Ok(FrameView { views, n })
}

/// Decodes a byte stream produced by [`encode`].
///
/// # Panics
///
/// Panics on a malformed or corrupted stream; fault-tolerant callers use
/// [`decode_checked`] instead.
pub fn decode(bytes: &[u8]) -> Vec<Payload> {
    match decode_checked(bytes) {
        Ok(payloads) => payloads,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_bytes_match_convention() {
        assert_eq!(Payload::F32(vec![0.0; 5]).encoded_bytes(), 20);
        assert_eq!(Payload::U32(vec![0; 3]).encoded_bytes(), 12);
        assert_eq!(Payload::Bytes(vec![0; 7]).encoded_bytes(), 7);
        // 10 two-bit code-words pack into 3 bytes.
        assert_eq!(Payload::packed(&[1; 10], 2).encoded_bytes(), 3);
    }

    #[test]
    fn pack_roundtrip_through_payload() {
        let words = vec![3, 1, 0, 2, 3, 3, 0];
        let p = Payload::packed(&words, 2);
        assert_eq!(p.unpack(), words);
    }

    #[test]
    fn total_bytes_sums() {
        let list = vec![Payload::F32(vec![0.0; 2]), Payload::U32(vec![1])];
        assert_eq!(total_bytes(&list), 12);
        assert_eq!(total_bytes(&[]), 0);
    }

    #[test]
    fn codec_roundtrip_all_variants() {
        let list = vec![
            Payload::F32(vec![1.5, -2.25, 0.0]),
            Payload::U32(vec![7, 0, u32::MAX]),
            Payload::packed(&[5, 2, 7, 0, 1], 3),
            Payload::Bytes(vec![9, 8, 7]),
        ];
        let encoded = encode(&list);
        assert_eq!(decode(&encoded), list);
    }

    #[test]
    fn codec_roundtrip_empty() {
        assert_eq!(decode(&encode(&[])), Vec::<Payload>::new());
        let empties = vec![Payload::F32(vec![]), Payload::Bytes(vec![])];
        assert_eq!(decode(&encode(&empties)), empties);
    }

    #[test]
    #[should_panic(expected = "expected an f32 payload")]
    fn as_f32_rejects_wrong_variant() {
        let _ = Payload::U32(vec![1]).as_f32();
    }

    #[test]
    #[should_panic(expected = "payload checksum mismatch")]
    fn decode_panics_on_corruption() {
        let mut bytes = encode(&[Payload::Bytes(vec![1])]);
        bytes[4] = 99; // corrupt the tag; the CRC trailer catches it first
        let _ = decode(&bytes);
    }

    #[test]
    fn decode_checked_flags_any_flipped_bit() {
        let clean = encode(&[
            Payload::F32(vec![1.0, -2.5]),
            Payload::packed(&[1, 2, 3], 2),
        ]);
        assert!(decode_checked(&clean).is_ok());
        for byte in 0..clean.len() {
            let mut corrupted = clean.clone();
            corrupted[byte] ^= 0x10;
            match decode_checked(&corrupted) {
                Err(PayloadError::ChecksumMismatch { expected, actual }) => {
                    assert_ne!(expected, actual)
                }
                other => panic!("flip at byte {byte} gave {other:?}"),
            }
        }
    }

    #[test]
    fn decode_checked_reports_structural_errors() {
        // Recompute a valid CRC over a structurally-bad body so the parser
        // itself must reject it.
        let mut bytes = encode(&[Payload::Bytes(vec![1])]);
        bytes[4] = 99; // unknown tag
        let body_len = bytes.len() - 4;
        let crc = grace_tensor::pack::crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        match decode_checked(&bytes) {
            Err(PayloadError::Malformed(why)) => assert!(why.contains("unknown payload tag")),
            other => panic!("expected malformed, got {other:?}"),
        }
        // Far too short to even carry a frame.
        assert!(matches!(
            decode_checked(&[0u8; 3]),
            Err(PayloadError::Malformed(_))
        ));
    }

    #[test]
    fn frame_overhead_is_exact_for_empty_list() {
        assert_eq!(encode(&[]).len(), FRAME_OVERHEAD);
    }

    #[test]
    fn bucket_envelope_holds_the_frames_encode_frame_writes() {
        let tensors = [
            (vec![Payload::packed(&[1, 0, 1], 1)], vec![0.5f32]),
            (vec![Payload::U32(vec![7]), Payload::F32(vec![2.0])], vec![]),
            (Vec::new(), vec![1.0, 2.0]),
        ];
        let frames: Vec<Vec<u8>> = tensors
            .iter()
            .map(|(payloads, meta)| encode_frame(payloads.clone(), meta))
            .collect();
        // Appending leaves what is already there alone and adds those bytes.
        let mut out = vec![0xEE];
        encode_frame_into(&mut out, &tensors[0].0, &tensors[0].1);
        assert_eq!(out[1..], frames[0][..]);

        let mut bucket = Vec::new();
        encode_bucket_into(&mut bucket, tensors.iter().map(|(p, m)| (&p[..], &m[..])));
        let framed: usize = frames.iter().map(|f| 4 + f.len()).sum();
        assert_eq!(bucket.len(), 4 + framed);
        assert_eq!(bucket.capacity(), bucket.len(), "one exact reservation");
        let split: Vec<&[u8]> = split_bucket(&bucket, 3).unwrap().collect();
        assert_eq!(split, frames.iter().map(Vec::as_slice).collect::<Vec<_>>());
        for frame in split {
            assert!(decode_frame(frame).is_ok());
        }
        // Every way the envelope can be wrong is `Malformed`; the integration
        // suite (tests/aggregation.rs) walks the hostile cases.
        for wrong in [2, 4] {
            assert!(matches!(
                split_bucket(&bucket, wrong),
                Err(PayloadError::Malformed(_))
            ));
        }
        assert!(split_bucket(&bucket[..bucket.len() - 1], 3).is_err());
    }

    #[test]
    fn accessors() {
        assert_eq!(Payload::F32(vec![1.0]).as_f32(), &[1.0]);
        assert_eq!(Payload::U32(vec![2]).as_u32(), &[2]);
    }

    #[test]
    fn reader_views_roundtrip_without_copying_bodies() {
        let list = vec![
            Payload::F32(vec![1.5, -2.25, 0.0]),
            Payload::U32(vec![7, 0, u32::MAX]),
            Payload::packed(&[5, 2, 7, 0, 1], 3),
            Payload::Bytes(vec![9, 8, 7]),
        ];
        let encoded = encode(&list);
        let mut reader = PayloadReader::new_checked(&encoded).unwrap();
        assert_eq!(reader.remaining(), 4);
        let mut seen = Vec::new();
        while let Some(view) = reader.next_view().unwrap() {
            // Every view borrows from within the encoded frame.
            let range = encoded.as_ptr_range();
            let ptr = match view {
                PayloadView::F32Le(b) | PayloadView::U32Le(b) | PayloadView::Bytes(b) => b.as_ptr(),
                PayloadView::Packed { data, .. } => data.as_ptr(),
                other => panic!("wire reader yielded an owned view {other:?}"),
            };
            assert!(range.contains(&ptr), "view does not borrow the frame");
            seen.push(view.to_payload());
        }
        assert_eq!(seen, list);
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn reader_reports_same_errors_as_decode_checked() {
        // CRC corruption caught at construction.
        let mut bytes = encode(&[Payload::Bytes(vec![1, 2, 3])]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let by_reader = PayloadReader::new_checked(&bytes).err().unwrap();
        let by_decode = decode_checked(&bytes).err().unwrap();
        assert_eq!(by_reader, by_decode);
        // Structural errors surface from next_view with identical messages.
        let mut bytes = encode(&[Payload::Bytes(vec![1])]);
        bytes[4] = 99; // unknown tag
        let body_len = bytes.len() - 4;
        let crc = grace_tensor::pack::crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        let mut reader = PayloadReader::new_checked(&bytes).unwrap();
        assert_eq!(reader.next_view().err(), decode_checked(&bytes).err());
    }

    #[test]
    fn view_of_owned_payload_borrows_and_unpacks() {
        let packed = Payload::packed(&[3, 0, 2, 1], 2);
        let view = PayloadView::of(&packed);
        assert_eq!(view.encoded_bytes(), packed.encoded_bytes());
        let mut scratch = Vec::new();
        view.unpack_into(&mut scratch);
        assert_eq!(scratch, vec![3, 0, 2, 1]);
        assert_eq!(view.to_payload(), packed);

        let f = Payload::F32(vec![1.0, -2.0]);
        let mut fs = Vec::new();
        PayloadView::of(&f).read_f32s_into(&mut fs);
        assert_eq!(fs, vec![1.0, -2.0]);
        let u = Payload::U32(vec![4, 5]);
        let mut us = Vec::new();
        PayloadView::of(&u).read_u32s_into(&mut us);
        assert_eq!(us, vec![4, 5]);
    }

    #[test]
    fn wire_views_read_into_scratch() {
        let list = vec![Payload::F32(vec![0.5, -1.5]), Payload::U32(vec![10, 11])];
        let encoded = encode(&list);
        let mut reader = PayloadReader::new_checked(&encoded).unwrap();
        let mut fs = Vec::new();
        reader.next_view().unwrap().unwrap().read_f32s_into(&mut fs);
        assert_eq!(fs, vec![0.5, -1.5]);
        let mut us = Vec::new();
        reader.next_view().unwrap().unwrap().read_u32s_into(&mut us);
        assert_eq!(us, vec![10, 11]);
    }

    #[test]
    fn payload_list_is_uniform_over_both_representations() {
        let owned = vec![Payload::packed(&[1, 2, 3], 4), Payload::Bytes(vec![7])];
        let views: Vec<PayloadView<'_>> = owned.iter().map(PayloadView::of).collect();
        let a = PayloadList::Owned(&owned);
        let b = PayloadList::Views(&views);
        assert_eq!(a.len(), 2);
        assert!(!b.is_empty());
        for i in 0..2 {
            assert_eq!(a.get(i), b.get(i));
        }
        let from: PayloadList<'_> = owned.as_slice().into();
        assert_eq!(from.len(), 2);
    }

    #[test]
    #[should_panic(expected = "expected a bytes payload")]
    fn view_as_bytes_rejects_wrong_variant() {
        let p = Payload::U32(vec![1]);
        let _ = PayloadView::of(&p).as_bytes();
    }
}
