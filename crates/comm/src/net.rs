//! `grace-net`: the [`Collective`] trait over real sockets.
//!
//! The paper's testbed runs Horovod collectives over TCP or RDMA between 8
//! machines; [`crate::collectives::ThreadedCluster`] substitutes OS threads
//! over a shared deposit board. This module closes the remaining gap: the
//! same SPMD collective API over **TCP** (plus a Unix-domain-socket fast
//! path), so the training loop runs unmodified as N real OS processes.
//!
//! # Topology
//!
//! A single **hub** socket is the rendezvous point and the deposit board in
//! one: every rank (the hub host included) connects as a client, introduces
//! itself with a `HELLO(rank, world)` frame, and blocks until the hub has
//! seen all `world` ranks and answers `WELCOME`. After rendezvous each
//! collective is one framed request/response round trip: the hub reads one
//! request per live rank (SPMD lockstep makes the per-rank streams advance
//! together), aggregates exactly like the threaded board — rank-order
//! summation for all-reduce, rank-indexed slots for all-gather — and
//! answers every live rank. (Over shared-memory regions the hub relays the
//! all-reduce descriptors instead, and every rank sums in rank order
//! itself.) Aggregation order matches the deposit board bit for bit, which
//! is what the cross-backend equivalence suite pins.
//!
//! # Wire format
//!
//! Every frame is length-prefixed and CRC-trailed:
//!
//! ```text
//! [len: u32 LE] [kind: u8] [body: len-1 bytes] [crc32(kind ‖ body): u32 LE]
//! ```
//!
//! The CRC is the same IEEE-802.3 polynomial the payload codec's trailer
//! uses ([`grace_tensor::pack::crc32`]), so a flipped bit anywhere in a
//! frame surfaces as an explicit reject. A receiver that rejects a frame
//! answers `NACK`; the sender retransmits its last frame verbatim from a
//! clean copy. This frame-level retry is invisible to the application —
//! *payload*-level corruption (a [`crate::FaultPlan`] bit flip applied
//! before framing) still passes the frame CRC and is rejected by every
//! receiver identically via the payload codec's own trailer, exactly as on
//! the threaded path.
//!
//! # Shared-memory bodies (UDS)
//!
//! On a Unix-domain endpoint all-reduce bodies travel through mmap'd regions
//! ([`crate::shm`]) and the socket carries descriptors. Each rank writes its
//! all-reduce round *t* into its region *t* mod 2 (`parity`); the hub relays
//! the descriptors without touching a body, and every rank folds every body,
//! its own included, in rank order into the buffer it sent:
//!
//! ```text
//! ALLREDUCE   ctx ‖ len u32 ‖ crc32(body) u32 ‖ parity u8
//! R_ALLREDUCE round header ‖ contributors u32 ‖
//!             world × (present u8 ‖ len u32 ‖ crc32(body) u32 ‖ parity u8)
//! ```
//!
//! `HELLO` carries a rank's two region names after `rank ‖ world`, space
//! separated; `WELCOME` carries every rank's, in rank order, as `len u32 ‖
//! name` after `world ‖ live` — only when every rank offered them, so a
//! cluster carries all its bodies one way. A rank opens its peers' regions
//! before it sends anything else, and the hub removes the names once every
//! rank has sent a frame, or when it exits. Without regions, bodies stay
//! inline, byte for byte the TCP format. [`NetStats`] counts logical bytes
//! either way: what the frame weighs with its body inline.
//!
//! # Trace context and clock sync
//!
//! Every collective *request* body leads with a fixed 20-byte [`TraceCtx`]
//! (collective seq ‖ training step ‖ origin rank, all LE) so the hub can
//! attribute each frame to a step without any side channel, and every
//! collective *response* body leads with a round header (`live u32`,
//! `h_send u64` hub send time, `n u32`, then `n` per-rank request-arrival
//! stamps on the hub clock). Together with the rank's own send/receive
//! times this yields an NTP-style clock sample per round trip (see
//! [`crate::clock`]); a dedicated `CLOCK_PING`/`CLOCK_PONG` burst during
//! rendezvous seeds the estimate before the first step. Wire activity is
//! traced onto per-rank [`Track::Net`] tracks (spans for round trips,
//! instants for NACKs and retransmits) and the hub's rounds onto
//! [`Track::Hub`] — none of which alters payload bytes, so trained bits
//! are identical with tracing on or off.
//!
//! # Fault semantics
//!
//! * `leave()` sends a `LEAVE` frame; the hub shrinks the membership and
//!   survivors see [`Collective::live_workers`] drop — the same dynamic
//!   membership the threaded `DynBarrier` provides.
//! * A killed process closes its socket; the hub reads EOF and treats it as
//!   an implicit leave, so survivors rescale instead of deadlocking.
//! * A wedged (silent but connected) rank trips the configured
//!   [`ClusterOptions::timeout`] on its peers, which surface
//!   [`ClusterError::Timeout`] exactly like threaded waiters.
//! * Connect/accept failures surface as typed [`ClusterError::Transport`]
//!   errors, never hangs: connects poll until a deadline, the hub's accept
//!   loop aborts rendezvous after its own deadline and tells every
//!   already-connected rank.
//! * Every rank checks every region-carried body it folds, so a torn body
//!   fails on every rank. Each sends `NACK(ctx ‖ rank u32)` naming the
//!   first; the hub `NACK`s its owner, which restores the body and resends,
//!   and the hub answers the round again. A fault-free round sends nothing
//!   extra. An owner that cannot resend is every rank's typed error, and a
//!   descriptor longer than its region, an entry for a rank without regions
//!   or a parity other than 0 or 1 is the reading rank's.

use crate::clock::{ClockEstimator, ClockSample};
use crate::collectives::{
    ring_allreduce_wire_bytes, ClusterIntrospect, ClusterOptions, Collective, GatherFrames,
    Reduction,
};
use crate::error::ClusterError;
use crate::shm::{self, Contribution, Region};
use crate::traffic::TrafficCounter;
use grace_telemetry::metrics::{self, Counter, HistogramHandle};
use grace_telemetry::{since_epoch_ns, trace, Track};
use grace_tensor::pack::{add_f32s_le, crc32, extend_f32s_le, read_f32s_le};
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frame kinds. Requests carry the sender's op index so the hub can assert
/// SPMD lockstep; responses carry the live-member count so clients track
/// degraded membership without a side channel.
pub const KIND_HELLO: u8 = 1;
/// Hub → client: rendezvous complete.
pub const KIND_WELCOME: u8 = 2;
/// Client → hub: all-reduce contribution (`op u64`, f32 LE buffer).
pub const KIND_ALLREDUCE: u8 = 3;
/// Client → hub: all-gather payload (`op u64`, raw bytes).
pub const KIND_ALLGATHER: u8 = 4;
/// Client → hub: barrier (`op u64`).
pub const KIND_BARRIER: u8 = 6;
/// Client → hub: permanent departure (implicit on socket close).
pub const KIND_LEAVE: u8 = 7;
/// Hub → client responses (mirror the request kinds).
pub const KIND_R_ALLREDUCE: u8 = 8;
/// Hub → client: all-gather slots.
pub const KIND_R_ALLGATHER: u8 = 9;
/// Hub → client: barrier release.
pub const KIND_R_BARRIER: u8 = 11;
/// Either direction: the last frame failed its CRC — retransmit it. With a
/// body (client → hub, `ctx ‖ rank u32`): that rank's region-carried body
/// failed its CRC.
pub const KIND_NACK: u8 = 12;
/// Hub → client: structured failure (code + context rank + detail).
pub const KIND_ERROR: u8 = 13;
/// Client → hub, rendezvous only: clock-sync probe (`t0 u64`, the sender's
/// nanoseconds since its telemetry epoch).
pub const KIND_CLOCK_PING: u8 = 14;
/// Hub → client: clock-sync reply (`t0 u64` echoed, `h1 u64` request
/// arrival and `h2 u64` response send, both on the hub clock).
pub const KIND_CLOCK_PONG: u8 = 15;

/// Pings exchanged per rank during rendezvous to seed the clock-offset
/// estimate before the first collective.
const CLOCK_PINGS: usize = 4;

const ERR_PROTOCOL: u8 = 1;
const ERR_RENDEZVOUS: u8 = 3;

/// Upper bound on a single frame; a corrupted length prefix must fail fast,
/// not allocate garbage. A region-carried body obeys the same bound.
const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Descriptor words a region-carried all-reduce request has in place of
/// its body (`len u32 ‖ crc u32 ‖ parity u8`).
const REQUEST_WORDS: usize = 9;

/// How much of a header's claimed length the reader reserves before any of
/// it has arrived. A header is four unauthenticated bytes: past this, the
/// read buffer grows only with bytes actually received.
const READ_AHEAD_BYTES: usize = 1 << 20;

/// How many corrupted frames / retransmit requests a single logical read
/// tolerates before giving up on the stream.
const RETRY_LIMIT: usize = 16;

/// Default deadline for connect + rendezvous when the caller does not pick
/// one.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------------

/// A rendezvous address: TCP (`tcp://host:port` or bare `host:port`) or a
/// Unix-domain socket path (`uds:///path`, Unix only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP `host:port`; port 0 binds an ephemeral port (read the resolved
    /// address back from [`HubServer::endpoint`]).
    Tcp(String),
    /// Unix-domain socket path (lower latency on localhost; the listener
    /// unlinks the path when it shuts down).
    #[cfg(unix)]
    Uds(PathBuf),
}

impl Endpoint {
    /// Parses `tcp://host:port`, bare `host:port`, or `uds:///path`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown schemes (including `uds://` on
    /// non-Unix platforms).
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(addr) = s.strip_prefix("tcp://") {
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        if let Some(path) = s.strip_prefix("uds://") {
            #[cfg(unix)]
            return Ok(Endpoint::Uds(PathBuf::from(path)));
            #[cfg(not(unix))]
            return Err(format!(
                "uds endpoint '{path}' unsupported on this platform"
            ));
        }
        if s.contains("://") {
            return Err(format!("unknown endpoint scheme in '{s}'"));
        }
        Ok(Endpoint::Tcp(s.to_string()))
    }

    /// A fresh, collision-free Unix-socket endpoint under the system temp
    /// directory (Unix only).
    #[cfg(unix)]
    pub fn ephemeral_uds() -> Endpoint {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Endpoint::Uds(
            std::env::temp_dir().join(format!("grace-hub-{}-{n}.sock", std::process::id())),
        )
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Uds(path) => write!(f, "uds://{}", path.display()),
        }
    }
}

// ---------------------------------------------------------------------------
// Streams and listeners (TCP / UDS behind one face)
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Stream {
    fn connect(endpoint: &Endpoint) -> io::Result<Stream> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                // Every collective is a small latency-bound round trip;
                // Nagle coalescing only adds delay.
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Endpoint::Uds(path) => Ok(Stream::Uds(UnixStream::connect(path)?)),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Stream::Uds(s) => s.set_read_timeout(t),
        }
    }

    /// Appends up to `limit` bytes to `buf`, stopping short only at end of
    /// stream. Dispatches to the socket types themselves so their native
    /// `read_to_end` fills `buf`'s spare capacity directly: no zero-fill,
    /// and `buf` grows only as bytes arrive.
    fn read_up_to(&mut self, limit: usize, buf: &mut Vec<u8>) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.take(limit as u64).read_to_end(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.take(limit as u64).read_to_end(buf),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Uds(s) => s.flush(),
        }
    }
}

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> io::Result<(Listener, Endpoint)> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let resolved = Endpoint::Tcp(l.local_addr()?.to_string());
                Ok((Listener::Tcp(l), resolved))
            }
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                // A stale socket file from a crashed run blocks rebinding.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                Ok((Listener::Uds(l, path.clone()), endpoint.clone()))
            }
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Uds(l, _) => l.set_nonblocking(nb),
        }
    }

    fn is_uds(&self) -> bool {
        match self {
            Listener::Tcp(_) => false,
            #[cfg(unix)]
            Listener::Uds(..) => true,
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Uds(l, _) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Stream::Uds(s))
            }
        }
    }
}

#[cfg(unix)]
impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Snapshot of one framed stream's counters (see
/// [`SocketCluster::net_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames written (NACKs and retransmits included).
    pub frames_sent: u64,
    /// Logical bytes written, framing overhead included: a frame whose body
    /// went through a shared-memory region counts as the inline frame would
    /// (descriptor plus body, without the descriptor's own words or the
    /// region names of rendezvous), so both carriers count alike.
    pub wire_bytes_sent: u64,
    /// Of `wire_bytes_sent`, the body bytes that went through a
    /// shared-memory region instead of the socket.
    pub carried_bytes: u64,
    /// CRC rejects observed on reads (each one sent a `NACK`).
    pub nacks_sent: u64,
    /// Retransmissions performed after the peer NACKed our frame.
    pub resends: u64,
}

/// Starts serialising a frame into `buf`, replacing its contents: the
/// length word is reserved and the kind written; the caller appends the
/// body in place and then calls [`seal_frame`].
fn begin_frame(buf: &mut Vec<u8>, kind: u8) {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    buf.push(kind);
}

/// Patches the length word in and appends the CRC: `buf` is now the wire
/// image, with no second copy.
fn seal_frame(buf: &mut Vec<u8>) {
    let len = buf.len() - 4;
    assert!(len <= MAX_FRAME_BYTES as usize, "frame too large: {len}");
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&buf[4..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// One length-prefixed, CRC-trailed frame stream over TCP or UDS.
///
/// A frame is delivered whole or errors — no short-read/short-write
/// truncation, which the loopback proptest pins for payloads from zero
/// bytes to multi-megabyte fused buckets. Each direction works out of one
/// pooled buffer that grows to the largest frame seen and is then reused,
/// so a steady-state frame allocates nothing.
#[derive(Debug)]
pub struct FramedStream {
    stream: Stream,
    /// Wire image of the last non-NACK frame, length word to CRC trailer:
    /// serialised in place, written from here and kept as the retransmit
    /// copy. Behind an `Arc` because the hub hands one response image to
    /// every stream of a round.
    tx: Arc<Vec<u8>>,
    /// `tx`'s logical size and the body bytes of it a region carries (see
    /// [`NetStats`]); a resend counts them again.
    tx_logical: u64,
    tx_carried: u64,
    /// `kind ‖ body` of the last frame read.
    rx: Vec<u8>,
    /// Test hook: corrupt one bit of the next outgoing frame *after* its
    /// CRC is computed, forcing the receiver down the NACK path (for a
    /// region-carried body: one bit of the body in the region).
    corrupt_next: bool,
    /// A rank's shared-memory body carrier, once rendezvous agreed on one
    /// (UDS).
    carrier: Option<Carrier>,
    stats: NetStats,
    /// Timeline track wire events land on: the owning rank's
    /// [`Track::Net`] lane, or [`Track::Hub`] until a peer is identified.
    track: Track,
    c_frames: Counter,
    c_bytes: Counter,
    c_retries: Counter,
    c_nacks: Counter,
    c_resend_bytes: Counter,
}

impl FramedStream {
    fn new(stream: Stream) -> FramedStream {
        FramedStream {
            stream,
            tx: Arc::default(),
            tx_logical: 0,
            tx_carried: 0,
            rx: Vec::new(),
            corrupt_next: false,
            carrier: None,
            stats: NetStats::default(),
            track: Track::Hub,
            c_frames: metrics::counter("comm.net.frames"),
            c_bytes: metrics::counter("comm.net.wire_bytes"),
            c_retries: metrics::counter("comm.net.frame_retries"),
            c_nacks: metrics::counter("net.nack_total"),
            c_resend_bytes: metrics::counter("net.retransmit_bytes_total"),
        }
    }

    /// Points this stream's wire events at a timeline track (the peer
    /// rank's [`Track::Net`] lane once the peer is known).
    pub fn set_track(&mut self, track: Track) {
        self.track = track;
    }

    /// Wraps a connected TCP stream.
    pub fn tcp(stream: TcpStream) -> FramedStream {
        let _ = stream.set_nodelay(true);
        FramedStream::new(Stream::Tcp(stream))
    }

    /// Wraps a connected Unix-domain stream.
    #[cfg(unix)]
    pub fn uds(stream: UnixStream) -> FramedStream {
        FramedStream::new(Stream::Uds(stream))
    }

    /// Sets the blocking-read deadline (`None` blocks forever).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    /// Arms the corruption hook for the next outgoing frame.
    pub fn corrupt_next_frame(&mut self) {
        self.corrupt_next = true;
    }

    /// Snapshot of this stream's counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Bytes of buffer capacity this stream retains between frames —
    /// bounded by the largest frame it has sent plus the largest it has
    /// fully received, never by what a header merely claims.
    pub fn retained_bytes(&self) -> usize {
        self.tx.capacity() + self.rx.capacity()
    }

    /// Puts `wire` on the socket; `flip` names a byte that goes out with
    /// one bit inverted. The flipped byte is its own write because `wire`
    /// is also the retransmit image (and may be shared): it stays clean.
    /// `(logical, carried)` are the frame's [`NetStats`] weights.
    fn send_raw(
        &mut self,
        wire: &[u8],
        flip: Option<usize>,
        (logical, carried): (u64, u64),
    ) -> io::Result<()> {
        match flip {
            None => self.stream.write_all(wire)?,
            Some(at) => {
                self.stream.write_all(&wire[..at])?;
                self.stream.write_all(&[wire[at] ^ 0x10])?;
                self.stream.write_all(&wire[at + 1..])?;
            }
        }
        self.stats.frames_sent += 1;
        self.stats.wire_bytes_sent += logical;
        self.stats.carried_bytes += carried;
        self.c_frames.add(1);
        self.c_bytes.add(logical);
        Ok(())
    }

    /// Sends a freshly built wire image, honouring the corruption hook.
    fn send_image(&mut self, wire: &[u8], weights: (u64, u64)) -> io::Result<()> {
        trace::instant_arg("net.frame.send", self.track, Some(("bytes", weights.0)));
        // Inside the checksummed region, so the receiver's CRC (not a
        // length mismatch) catches it.
        let flip = std::mem::take(&mut self.corrupt_next).then(|| 4 + (wire.len() - 8) / 2);
        self.send_raw(wire, flip, weights)
    }

    /// Writes one frame with `body` as its body. Non-NACK frames are kept
    /// for retransmission until the next write.
    pub fn write_frame(&mut self, kind: u8, body: &[u8]) -> io::Result<()> {
        self.write_frame_with(kind, |buf| buf.extend_from_slice(body))
    }

    /// Writes one frame whose body `fill` appends in place, so a caller
    /// holding typed data serialises it exactly once — into the buffer the
    /// frame is sent (and, if NACKed, re-sent) from.
    pub fn write_frame_with(
        &mut self,
        kind: u8,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> io::Result<()> {
        if kind == KIND_NACK {
            // Built aside: a NACK must not displace the frame the peer may
            // yet ask for again.
            let mut nack = Vec::new();
            begin_frame(&mut nack, kind);
            fill(&mut nack);
            seal_frame(&mut nack);
            let weights = (nack.len() as u64, 0);
            return self.send_image(&nack, weights);
        }
        self.write_tx(kind, 0, 0, fill)
    }

    /// [`Self::write_frame_with`] for a frame that has `carrier_words`
    /// bytes of carrier bookkeeping (a descriptor's words, a region name)
    /// in place of `carried` body bytes a region holds: the frame counts
    /// at its logical size.
    fn write_tx(
        &mut self,
        kind: u8,
        carrier_words: usize,
        carried: u64,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> io::Result<()> {
        if Arc::get_mut(&mut self.tx).is_none() {
            // The last image was a hub fan-out other streams still hold.
            self.tx = Arc::default();
        }
        let buf = Arc::get_mut(&mut self.tx).expect("sole handle checked above");
        begin_frame(buf, kind);
        fill(buf);
        seal_frame(buf);
        self.tx_logical = (buf.len() - carrier_words) as u64 + carried;
        self.tx_carried = carried;
        let image = Arc::clone(&self.tx);
        self.send_image(&image, (self.tx_logical, carried))
    }

    /// Sends a wire image built once for several streams (the hub's
    /// response fan-out); this stream keeps a handle as its retransmit
    /// copy.
    fn write_shared(&mut self, image: &ImageSlot) -> io::Result<()> {
        self.tx = Arc::clone(&image.frame);
        self.tx_logical = image.logical();
        self.tx_carried = image.carried;
        self.send_image(&image.frame, (self.tx_logical, self.tx_carried))
    }

    /// Sends `ctx ‖ data` as a `kind` request: through this rank's next
    /// request region with a descriptor on the socket when this stream has a
    /// carrier, inline otherwise.
    fn write_f32s(&mut self, kind: u8, ctx: &[u8], data: &[f32]) -> io::Result<()> {
        let Some(carrier) = &mut self.carrier else {
            return self.write_frame_with(kind, |body| {
                body.extend_from_slice(ctx);
                extend_f32s_le(body, data);
            });
        };
        let len = 4 * data.len();
        if len > MAX_FRAME_BYTES as usize {
            return Err(invalid(format!("body of {len} bytes too large")));
        }
        let parity = carrier.next;
        carrier.next ^= 1;
        carrier.flipped = None;
        let region = &mut carrier.regions[carrier.rank][parity];
        let crc = region.put_f32s(data)?;
        if len > 0 && std::mem::take(&mut self.corrupt_next) {
            // After the CRC: every reader's check fails and NACKs it; the
            // read path restores the bit before resending.
            region.flip(len / 2);
            carrier.flipped = Some((parity, len / 2));
        }
        self.write_tx(kind, REQUEST_WORDS, len as u64, |body| {
            body.extend_from_slice(ctx);
            put_u32(body, len as u32);
            put_u32(body, crc);
            body.push(parity as u8);
        })
    }

    /// Answers `NACK` for a frame that failed a check (its CRC here, when
    /// `body` is empty), or names a region-carried body that failed its CRC
    /// (`ctx ‖ rank`).
    fn send_nack(&mut self, bytes: u64, body: &[u8]) -> io::Result<()> {
        self.stats.nacks_sent += 1;
        self.c_retries.add(1);
        self.c_nacks.add(1);
        trace::instant_arg("net.nack", self.track, Some(("bytes", bytes)));
        self.write_frame(KIND_NACK, body)
    }

    /// Reads the next application frame as `(kind, body)`, transparently
    /// handling the frame-retry protocol: a CRC reject answers `NACK` and
    /// re-reads; an incoming `NACK` retransmits our last frame and re-reads.
    /// The body borrows this stream's pooled buffer ([`Self::body`] borrows
    /// it again) and is valid until the next read.
    pub fn read_frame(&mut self) -> io::Result<(u8, &[u8])> {
        for _ in 0..RETRY_LIMIT {
            let mut len_buf = [0u8; 4];
            self.stream.read_exact(&mut len_buf)?;
            let len = u32::from_le_bytes(len_buf);
            if len == 0 || len > MAX_FRAME_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame length {len} out of range"),
                ));
            }
            // `kind ‖ body ‖ crc` in one read. The header is four
            // unauthenticated bytes: trust it for a bounded reservation
            // only, and beyond that grow as bytes actually arrive.
            let len = len as usize;
            self.rx.clear();
            self.rx.reserve((len + 4).min(READ_AHEAD_BYTES));
            let got = self.stream.read_up_to(len + 4, &mut self.rx)?;
            if got < len + 4 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended {got} bytes into a {}-byte frame", len + 4),
                ));
            }
            let trailer = self.rx[len..].try_into().expect("4-byte trailer");
            self.rx.truncate(len);
            if crc32(&self.rx) != u32::from_le_bytes(trailer) {
                self.send_nack(len as u64, &[])?;
                continue;
            }
            // A NACK with a body names a torn body: the caller's business.
            if self.rx == [KIND_NACK] {
                if self.tx.is_empty() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "peer NACKed before any frame was sent",
                    ));
                }
                self.stats.resends += 1;
                if let Some(c) = &mut self.carrier {
                    if let Some((parity, at)) = c.flipped.take() {
                        c.regions[c.rank][parity].flip(at);
                    }
                }
                let image = Arc::clone(&self.tx);
                self.c_resend_bytes.add(self.tx_logical);
                trace::instant_arg("net.resend", self.track, Some(("bytes", self.tx_logical)));
                self.send_raw(&image, None, (self.tx_logical, self.tx_carried))?;
                continue;
            }
            trace::instant_arg(
                "net.frame.recv",
                self.track,
                Some(("bytes", len as u64 - 1)),
            );
            return Ok((self.rx[0], self.body()));
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame retry limit exhausted: persistently corrupted stream",
        ))
    }

    /// The body of the last frame [`Self::read_frame`] returned (empty
    /// before the first).
    pub fn body(&self) -> &[u8] {
        self.rx.get(1..).unwrap_or_default()
    }
}

/// A rank's shared-memory body carrier (see [`crate::shm`]).
#[derive(Debug)]
struct Carrier {
    /// This rank: its own pair in `regions` is the writable one.
    rank: usize,
    /// Every rank's two request regions, in rank order: this rank's own,
    /// and every peer's mapped read-only.
    regions: Vec<[Region; 2]>,
    /// Which of its two regions this rank writes next.
    next: usize,
    /// A bit the corruption hook flipped in this rank's region `(parity,
    /// at)`, restored before the resend.
    flipped: Option<(usize, usize)>,
}

impl Carrier {
    /// Folds a region-carried all-reduce response: checks every rank's
    /// entry against this rank's view, then sums every present body straight
    /// from its owner's region, in rank order, into `sum` ([`shm::fold`]).
    /// Returns the contributor count, or `Err(rank)` naming the first body
    /// that failed its CRC.
    fn fold(
        &mut self,
        payload: &[u8],
        world: usize,
        sum: &mut [f32],
    ) -> io::Result<Result<usize, usize>> {
        let mut r = Reader::new(payload);
        let contributors = read_contributors(&mut r, world)?;
        let len = 4 * sum.len();
        let mut present = Vec::with_capacity(contributors);
        for (rank, pair) in self.regions.iter_mut().enumerate() {
            let is_present = r.take(1)? == [1];
            let d = Descriptor::parse(r.take(REQUEST_WORDS)?)?;
            if is_present && d.len != len {
                return Err(invalid(format!("sum length {} bytes, not {len}", d.len)));
            }
            if is_present {
                pair[d.parity].expose(len)?;
                present.push((rank, d));
            }
        }
        if !r.rest().is_empty() {
            let n = self.regions.len();
            return Err(invalid(format!("rank {n} has no regions")));
        }
        if present.len() != contributors {
            return Err(invalid(format!("{} entries present", present.len())));
        }
        let contributions: Vec<Contribution<'_>> = present
            .iter()
            .map(|&(rank, d)| Contribution {
                region: &self.regions[rank][d.parity],
                crc: d.crc,
            })
            .collect();
        Ok(shm::fold(sum, &contributions)
            .map(|()| contributors)
            .map_err(|i| present[i].0))
    }
}

/// What a region-carried all-reduce request carries in place of its body,
/// and what the response relays per rank: the body's length and CRC, and
/// which of the owner's two regions holds it.
#[derive(Clone, Copy)]
struct Descriptor {
    len: usize,
    crc: u32,
    parity: usize,
}

impl Descriptor {
    /// Parses exactly one descriptor (`REQUEST_WORDS` bytes).
    fn parse(bytes: &[u8]) -> io::Result<Descriptor> {
        let mut r = Reader::new(bytes);
        let (len, crc, parity) = (r.u32()? as usize, r.u32()?, r.take(1)?[0] as usize);
        if !r.rest().is_empty() || len > MAX_FRAME_BYTES as usize || !len.is_multiple_of(4) {
            return Err(invalid(format!("malformed descriptor (length {len})")));
        }
        if parity > 1 {
            return Err(invalid(format!("region parity {parity}, not 0 or 1")));
        }
        Ok(Descriptor { len, crc, parity })
    }
}

// ---------------------------------------------------------------------------
// Body encoding helpers
// ---------------------------------------------------------------------------

fn put_u32(body: &mut Vec<u8>, v: u32) {
    body.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(body: &mut Vec<u8>, v: u64) {
    body.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.at + n > self.buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "truncated frame body",
            ));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.at..];
        self.at = self.buf.len();
        s
    }
}

/// Compact trace context leading every collective request body: the
/// sender's collective sequence number, the training step it belongs to,
/// and the origin rank. Fixed 20 bytes on the wire (`seq u64 ‖ step u64 ‖
/// origin u32`, LE), encoded and decoded without heap allocation so the
/// disabled-tracing fast path stays alloc-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Collective sequence number (the op index on the origin rank).
    pub seq: u64,
    /// Training step the collective belongs to (0 before the first step).
    pub step: u64,
    /// Rank that sent the frame.
    pub origin: u32,
}

impl TraceCtx {
    /// Encoded size on the wire.
    pub const WIRE_BYTES: usize = 20;

    /// Fixed-size wire image; no allocation.
    pub fn to_bytes(self) -> [u8; Self::WIRE_BYTES] {
        let mut out = [0u8; Self::WIRE_BYTES];
        out[..8].copy_from_slice(&self.seq.to_le_bytes());
        out[8..16].copy_from_slice(&self.step.to_le_bytes());
        out[16..].copy_from_slice(&self.origin.to_le_bytes());
        out
    }

    /// Decodes a fixed-size wire image; no allocation.
    pub fn from_bytes(b: &[u8; Self::WIRE_BYTES]) -> TraceCtx {
        TraceCtx {
            seq: u64::from_le_bytes(b[..8].try_into().expect("8 bytes")),
            step: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
            origin: u32::from_le_bytes(b[16..].try_into().expect("4 bytes")),
        }
    }
}

/// Consumes a [`TraceCtx`] from the front of a request body.
fn read_ctx(r: &mut Reader) -> io::Result<TraceCtx> {
    let b = r.take(TraceCtx::WIRE_BYTES)?;
    Ok(TraceCtx::from_bytes(
        b.try_into().expect("exact-size slice"),
    ))
}

/// Appends the header every collective response starts with: the live
/// count, the hub's send timestamp, and each rank's request-arrival stamp
/// for this round (0 for ranks that sent nothing) — everything a client
/// needs for an NTP-style clock sample plus fleet-wide arrival skew.
fn put_round_header(body: &mut Vec<u8>, live: u32, arrivals: &[u64]) {
    put_u32(body, live);
    put_u64(body, since_epoch_ns(Instant::now()));
    put_u32(body, arrivals.len() as u32);
    for &a in arrivals {
        put_u64(body, a);
    }
}

// ---------------------------------------------------------------------------
// Hub
// ---------------------------------------------------------------------------

/// The rendezvous listener plus per-op aggregation loop. Bind it, read the
/// resolved [`HubServer::endpoint`] (for ephemeral ports), then
/// [`HubServer::spawn`] it onto its own thread while every rank connects a
/// [`SocketCluster`].
#[derive(Debug)]
pub struct HubServer {
    listener: Listener,
    endpoint: Endpoint,
    world: usize,
    options: ClusterOptions,
    accept_timeout: Duration,
    /// Where the region names of `HELLO` are checked, and removed.
    shm_dir: PathBuf,
    /// Test hook: the hub exits after reading this round's requests.
    abort_after: Option<u64>,
}

impl HubServer {
    /// Binds the rendezvous listener for a `world`-rank cluster.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Transport`] when the address cannot be
    /// bound.
    pub fn bind(
        endpoint: &Endpoint,
        world: usize,
        options: ClusterOptions,
    ) -> Result<HubServer, ClusterError> {
        assert!(world > 0, "need at least one rank");
        let (listener, resolved) =
            Listener::bind(endpoint).map_err(|e| ClusterError::Transport {
                rank: 0,
                op: 0,
                detail: format!("bind {endpoint}: {e}"),
            })?;
        Ok(HubServer {
            listener,
            endpoint: resolved,
            world,
            options,
            accept_timeout: options.timeout.unwrap_or(DEFAULT_CONNECT_TIMEOUT),
            shm_dir: PathBuf::from(shm::SHM_DIR),
            abort_after: None,
        })
    }

    /// The resolved rendezvous address (with the real port when bound to
    /// port 0).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Overrides the rendezvous deadline (default: the collective timeout,
    /// or [`DEFAULT_CONNECT_TIMEOUT`] when none is set).
    pub fn with_accept_timeout(mut self, t: Duration) -> HubServer {
        self.accept_timeout = t;
        self
    }

    /// Test hook: the hub reads round `round`'s requests (0-based) and then
    /// exits without answering, as a hub process killed mid-round would.
    /// [`HubServer::serve`] then returns [`ClusterError::Transport`].
    #[doc(hidden)]
    pub fn abort_after_rounds(mut self, round: u64) -> HubServer {
        self.abort_after = Some(round);
        self
    }

    /// Runs the hub on a fresh thread; the returned handle joins it.
    pub fn spawn(self) -> HubHandle {
        HubHandle {
            join: Some(std::thread::spawn(move || self.serve())),
        }
    }

    /// Serves rendezvous plus the op loop until every rank has left.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Transport`] on rendezvous failure or an SPMD
    /// protocol violation; rank deaths are not errors (survivors continue).
    pub fn serve(self) -> Result<(), ClusterError> {
        let timer = trace::StageTimer::start();
        let mut names = RegionNames {
            dir: self.shm_dir.clone(),
            names: vec![None; self.world],
        };
        let mut streams = self.rendezvous(&mut names)?;
        timer.finish("hub.rendezvous", Track::Hub);
        // Regions carry all-reduce bodies only if every rank offered them;
        // otherwise every stream stays inline.
        let carried = names.names.iter().all(Option::is_some);
        let mut regions = Vec::new();
        for name in names.names.iter().flatten().flatten().filter(|_| carried) {
            put_u32(&mut regions, name.len() as u32);
            regions.extend_from_slice(name.as_bytes());
        }
        for s in streams.iter_mut() {
            let _ = s.set_read_timeout(self.options.timeout);
            let world = self.world as u32;
            s.write_tx(KIND_WELCOME, regions.len(), 0, |b| {
                put_u32(b, world);
                put_u32(b, world);
                b.extend_from_slice(&regions);
            })
            .map_err(|e| transport(0, 0, format!("welcome: {e}")))?;
        }
        let images = ResponseImages {
            carried,
            ..ResponseImages::default()
        };
        self.op_loop(&mut streams, names, images)
    }

    /// Accepts until every rank has said `HELLO`, or aborts rendezvous at
    /// the deadline, telling everyone already connected. Each rank's region
    /// names go into `names`. Empty polls sleep 20 µs, doubling to 2 ms.
    fn rendezvous(&self, names: &mut RegionNames) -> Result<Vec<FramedStream>, ClusterError> {
        let deadline = Instant::now() + self.accept_timeout;
        let mut slots: Vec<Option<FramedStream>> = (0..self.world).map(|_| None).collect();
        let (mut joined, mut nap) = (0usize, Duration::ZERO);
        self.listener
            .set_nonblocking(true)
            .map_err(|e| transport(0, 0, format!("listener: {e}")))?;
        while joined < self.world {
            match self.listener.accept() {
                Ok(stream) => {
                    nap = Duration::ZERO;
                    let mut framed = FramedStream::new(stream);
                    // A client that connects but never speaks must not
                    // wedge rendezvous past the deadline.
                    let _ = framed.set_read_timeout(Some(self.accept_timeout));
                    match self.greet(&mut framed, &slots) {
                        Ok((rank, regions)) => {
                            slots[rank] = Some(framed);
                            names.names[rank] = regions;
                            joined += 1;
                        }
                        Err(detail) => {
                            let _ =
                                framed.write_frame(KIND_ERROR, &error_body(ERR_PROTOCOL, &detail));
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        let detail =
                            format!("rendezvous timed out with {joined}/{} ranks", self.world);
                        let body = error_body(ERR_RENDEZVOUS, &detail);
                        for framed in slots.iter_mut().flatten() {
                            let _ = framed.write_frame(KIND_ERROR, &body);
                        }
                        return Err(transport(0, 0, detail));
                    }
                    nap = (nap * 2).clamp(Duration::from_micros(20), Duration::from_millis(2));
                    std::thread::sleep(nap);
                }
                Err(e) => return Err(transport(0, 0, format!("accept: {e}"))),
            }
        }
        Ok(slots.into_iter().map(|s| s.expect("all joined")).collect())
    }

    /// Reads one rank's `HELLO` and serves its clock burst; returns its
    /// rank and the two region names it offered, if any.
    fn greet(
        &self,
        framed: &mut FramedStream,
        slots: &[Option<FramedStream>],
    ) -> Result<(usize, Option<[String; 2]>), String> {
        let (kind, body) = framed.read_frame().map_err(|e| format!("hello: {e}"))?;
        if kind != KIND_HELLO {
            return Err(format!("expected HELLO, got kind {kind}"));
        }
        let mut r = Reader::new(body);
        let rank = r.u32().map_err(|e| e.to_string())? as usize;
        let client = r.u32().map_err(|e| e.to_string())? as usize;
        let world = self.world;
        if client != world {
            return Err(format!("world mismatch: hub {world} vs client {client}"));
        }
        if rank >= world {
            return Err(format!("rank {rank} out of range for world {world}"));
        }
        if slots[rank].is_some() {
            return Err(format!("duplicate rank {rank}"));
        }
        // A UDS rank names its two request regions after `rank ‖ world`;
        // the hub relays only names it checked, and opens none of them.
        let names = r.rest();
        let mut regions = None;
        if self.listener.is_uds() && !names.is_empty() {
            let names = std::str::from_utf8(names).map_err(|_| "region name is not UTF-8")?;
            let names: Vec<&str> = names.split(' ').collect();
            for name in &names {
                shm::check(&self.shm_dir, name).map_err(|e| format!("region: {e}"))?;
            }
            let [a, b] = names[..] else {
                return Err(format!("{} region names, expected 2", names.len()));
            };
            regions = Some([a.to_string(), b.to_string()]);
        }
        framed.set_track(Track::Net(rank));
        // Serve the rendezvous clock-sync burst: the client pipelines
        // exactly CLOCK_PINGS probes right behind its HELLO; answer each
        // with the two hub-side stamps the NTP midpoint needs.
        for _ in 0..CLOCK_PINGS {
            let (kind, body) = framed
                .read_frame()
                .map_err(|e| format!("clock ping: {e}"))?;
            let h1 = since_epoch_ns(Instant::now());
            if kind != KIND_CLOCK_PING {
                return Err(format!("expected CLOCK_PING, got kind {kind}"));
            }
            let t0 = Reader::new(body).u64().map_err(|e| e.to_string())?;
            framed
                .write_frame_with(KIND_CLOCK_PONG, |b| {
                    put_u64(b, t0);
                    put_u64(b, h1);
                    put_u64(b, since_epoch_ns(Instant::now()));
                })
                .map_err(|e| format!("clock pong: {e}"))?;
        }
        Ok((rank, regions))
    }

    /// One iteration per collective op: read one request per live rank,
    /// aggregate in rank order (bit-identical to the threaded deposit
    /// board), answer everyone still listening. Each request stays in its
    /// stream's read buffer; `kinds[rank]` says whose holds one this round.
    fn op_loop(
        &self,
        streams: &mut [FramedStream],
        names: RegionNames,
        mut images: ResponseImages,
    ) -> Result<(), ClusterError> {
        let mut names = Some(names);
        let world = self.world;
        let mut alive = vec![true; world];
        let mut hub_op = 0u64;
        let mut arrivals = vec![0u64; world];
        let mut kinds: Vec<Option<u8>> = vec![None; world];
        loop {
            kinds.fill(None);
            arrivals.fill(0);
            for rank in 0..world {
                if !alive[rank] {
                    continue;
                }
                match streams[rank].read_frame() {
                    Ok((KIND_LEAVE, _)) => alive[rank] = false,
                    Ok((kind, _)) => {
                        // Hub-side observation time of this rank's request.
                        // Reads happen in rank order, so a stalled earlier
                        // rank inflates later stamps; the clock filter's
                        // min-RTT rule discards such samples, and exact
                        // convoy attribution uses client-side span starts
                        // on the merged timeline instead.
                        arrivals[rank] = since_epoch_ns(Instant::now());
                        kinds[rank] = Some(kind);
                    }
                    // EOF (killed process), timeout (wedged rank) or a
                    // persistently corrupt stream: an implicit leave. The
                    // survivors' shrunk membership is the signal.
                    Err(_) => alive[rank] = false,
                }
            }
            // Every rank still here has sent a frame, and a rank sends
            // nothing before it has opened every peer's regions: the names
            // can go.
            drop(names.take());
            if self.abort_after == Some(hub_op) {
                return Err(transport(0, hub_op, "hub aborted mid-round".to_string()));
            }
            if kinds.iter().all(Option::is_none) {
                if alive.iter().any(|a| *a) {
                    // Everyone who was due this round left instead.
                    continue;
                }
                return Ok(());
            }
            match self.answer_round(streams, &alive, &kinds, hub_op, &arrivals, &mut images) {
                // A redo answers the same op again.
                Ok(redo) => hub_op += u64::from(!redo),
                Err(detail) => {
                    let body = error_body(ERR_PROTOCOL, &detail);
                    for rank in 0..world {
                        if alive[rank] && kinds[rank].is_some() {
                            let _ = streams[rank].write_frame(KIND_ERROR, &body);
                        }
                    }
                    return Err(transport(0, hub_op + 1, detail));
                }
            }
            fan_out(streams, &mut alive, &kinds, &images.pair[images.turn]);
        }
    }

    /// Builds the round's one response frame into the next of `images`,
    /// straight from the requests in the streams' read buffers — serialised
    /// and checksummed once, however many ranks it then goes to. Returns
    /// whether the round was a redo instead: every rank named a torn
    /// region-carried body (`NACK`), its owner resent it ([`resend_torn`]),
    /// and the last response goes out again.
    fn answer_round(
        &self,
        streams: &mut [FramedStream],
        alive: &[bool],
        kinds: &[Option<u8>],
        hub_op: u64,
        arrivals: &[u64],
        images: &mut ResponseImages,
    ) -> Result<bool, String> {
        let timer = trace::StageTimer::start();
        let kind = kinds.iter().flatten().next();
        let kind = *kind.expect("at least one request");
        // SPMD lockstep: every live rank must have issued the same op, and
        // each frame's trace context must agree with the stream it rode in
        // on. The step stamp feeds the hub's aggregate span.
        let mut step = 0u64;
        for (rank, k) in kinds.iter().enumerate() {
            let Some(k) = *k else { continue };
            if k != kind {
                return Err(format!(
                    "SPMD violation at hub op {hub_op}: rank {rank} sent kind {k}, expected {kind}"
                ));
            }
            let ctx =
                read_ctx(&mut Reader::new(streams[rank].body())).map_err(|e| e.to_string())?;
            if ctx.origin as usize != rank {
                return Err(format!(
                    "origin mismatch at hub op {hub_op}: rank {rank}'s stream carried a \
                     frame from rank {}",
                    ctx.origin
                ));
            }
            // Per-rank seq counters may trail the hub's after drops.
            step = step.max(ctx.step);
        }
        let carried = images.carried;
        if (kind, carried) == (KIND_NACK, true) {
            if images.pair[images.turn].frame.get(4) != Some(&KIND_R_ALLREDUCE) {
                return Err("a torn body with no all-reduce to answer again".to_string());
            }
            resend_torn(streams, kinds)?;
            return Ok(true);
        }
        let live = alive.iter().filter(|a| **a).count() as u32;
        let image = images.next();
        (image.words, image.carried) = (0, 0);
        let buf = Arc::get_mut(&mut image.frame).expect("ResponseImages hands out sole handles");
        // This round's requests in rank order (`None` for a rank that sent
        // nothing): what follows the trace context checked above, each
        // still in its stream's read buffer.
        let requests = || {
            let ranks = kinds.iter().zip(streams.iter());
            ranks.map(|(k, s)| k.map(|_| &s.body()[TraceCtx::WIRE_BYTES..]))
        };
        let name = match kind {
            KIND_ALLREDUCE if carried => {
                begin_frame(buf, KIND_R_ALLREDUCE);
                put_round_header(buf, live, arrivals);
                put_u32(buf, requests().flatten().count() as u32);
                // No sum: each rank's entry relays its checked descriptor,
                // and the ranks fold the bodies. The frame weighs what the
                // inline sum would.
                let mut len = None;
                for (rank, request) in requests().enumerate() {
                    let request = request.unwrap_or(&[0; REQUEST_WORDS]);
                    let n = Descriptor::parse(request)
                        .map_err(|e| format!("rank {rank}: {e}"))?
                        .len;
                    if kinds[rank].is_some() && *len.get_or_insert(n) != n {
                        let first = len.unwrap_or(0) / 4;
                        return Err(format!("allreduce length mismatch: {first} vs {}", n / 4));
                    }
                    buf.push(u8::from(kinds[rank].is_some()));
                    buf.extend_from_slice(request);
                }
                image.words = self.world * (1 + REQUEST_WORDS);
                image.carried = len.unwrap_or(0) as u64;
                "hub.allreduce"
            }
            KIND_ALLREDUCE => {
                begin_frame(buf, KIND_R_ALLREDUCE);
                put_round_header(buf, live, arrivals);
                put_u32(buf, requests().flatten().count() as u32);
                // The sum accumulates in the response itself: the first
                // contribution is copied in, later ones added in place in
                // rank order — the deposit board's summation order.
                let sum_at = buf.len();
                for (i, data) in requests().flatten().enumerate() {
                    if !data.len().is_multiple_of(4) {
                        return Err("f32 buffer length not a multiple of 4".to_string());
                    }
                    if i == 0 {
                        buf.extend_from_slice(data);
                    } else if data.len() != buf.len() - sum_at {
                        return Err(format!(
                            "allreduce length mismatch: {} vs {}",
                            (buf.len() - sum_at) / 4,
                            data.len() / 4
                        ));
                    } else {
                        add_f32s_le(&mut buf[sum_at..], data);
                    }
                }
                "hub.allreduce"
            }
            KIND_ALLGATHER => {
                begin_frame(buf, KIND_R_ALLGATHER);
                put_round_header(buf, live, arrivals);
                put_u32(buf, self.world as u32);
                for req in requests() {
                    match req {
                        Some(payload) => {
                            buf.push(1);
                            put_u32(buf, payload.len() as u32);
                            buf.extend_from_slice(payload);
                        }
                        None => buf.push(0),
                    }
                }
                "hub.allgather"
            }
            KIND_BARRIER => {
                begin_frame(buf, KIND_R_BARRIER);
                put_round_header(buf, live, arrivals);
                "hub.barrier"
            }
            other => return Err(format!("unexpected request kind {other}")),
        };
        seal_frame(buf);
        timer.finish_with2(name, Track::Hub, ("step", step), ("op", hub_op));
        Ok(false)
    }
}

/// A redo round: every rank sent `NACK(ctx ‖ rank)` naming the first torn
/// body of the last all-reduce. The hub `NACK`s that body's owner, which
/// restores the body and resends its request; the last response then goes
/// out again. An owner that cannot resend ends the run in a typed error.
fn resend_torn(streams: &mut [FramedStream], kinds: &[Option<u8>]) -> Result<(), String> {
    let first = kinds.iter().position(Option::is_some).expect("a report");
    let mut r = Reader::new(&streams[first].body()[TraceCtx::WIRE_BYTES..]);
    let torn = r.u32().map_err(|e| e.to_string())? as usize;
    if kinds.get(torn).copied().flatten().is_none() {
        return Err(format!("rank {torn} has no body to resend"));
    }
    let stream = &mut streams[torn];
    let resent = stream
        .send_nack(0, &[])
        .and_then(|()| stream.read_frame().map(|f| f.0));
    match resent {
        Ok(KIND_ALLREDUCE) => Ok(()),
        other => Err(format!("rank {torn} did not resend its body: {other:?}")),
    }
}

/// One of the hub's two response images: the frame every answered stream
/// sends (and keeps as its retransmit copy).
#[derive(Debug, Default)]
struct ImageSlot {
    frame: Arc<Vec<u8>>,
    /// Descriptor words the frame has in place of the `carried` sum bytes
    /// that ranks fold from regions (both 0 when the body is inline).
    words: usize,
    carried: u64,
}

impl ImageSlot {
    /// The frame's logical size (see [`NetStats`]).
    fn logical(&self) -> u64 {
        (self.frame.len() - self.words) as u64 + self.carried
    }
}

/// The hub's pooled response images. A round's response is built once and
/// every answered stream keeps a handle to it as its retransmit copy until
/// that stream's next send — so rounds alternate between two buffers, and
/// the one handed out is the image of two rounds ago.
#[derive(Debug, Default)]
struct ResponseImages {
    pair: [ImageSlot; 2],
    turn: usize,
    /// Regions carry the all-reduce bodies: a response relays descriptors.
    carried: bool,
}

impl ResponseImages {
    /// The next image to build a response in, its frame as sole handle.
    fn next(&mut self) -> &mut ImageSlot {
        self.turn ^= 1;
        let image = &mut self.pair[self.turn];
        if Arc::get_mut(&mut image.frame).is_none() {
            // The stream of a rank that has since departed still holds it.
            image.frame = Arc::default();
        }
        image
    }
}

/// The region names ranks offered in `HELLO`, per rank. Dropping it removes
/// them: once every rank still here has sent a frame (a rank opens every
/// peer's regions before it sends anything), or when the hub exits however
/// it exits, whichever comes first.
#[derive(Debug)]
struct RegionNames {
    dir: PathBuf,
    names: Vec<Option<[String; 2]>>,
}

impl Drop for RegionNames {
    fn drop(&mut self) {
        for name in self.names.iter().flatten().flatten() {
            let _ = std::fs::remove_file(self.dir.join(name));
        }
    }
}

/// Writes the round's response image to every rank that sent a request; a
/// rank that cannot be written to has left.
fn fan_out(
    streams: &mut [FramedStream],
    alive: &mut [bool],
    kinds: &[Option<u8>],
    image: &ImageSlot,
) {
    for (rank, stream) in streams.iter_mut().enumerate() {
        if kinds[rank].is_some() && stream.write_shared(image).is_err() {
            alive[rank] = false;
        }
    }
}

/// An `ERROR` frame's body: the code, context rank 0 and the detail.
fn error_body(code: u8, detail: &str) -> Vec<u8> {
    [&[code][..], &[0; 4], detail.as_bytes()].concat()
}

fn transport(rank: usize, op: u64, detail: String) -> ClusterError {
    ClusterError::Transport { rank, op, detail }
}

/// Join handle for a spawned [`HubServer`].
#[derive(Debug)]
pub struct HubHandle {
    join: Option<std::thread::JoinHandle<Result<(), ClusterError>>>,
}

impl HubHandle {
    /// Waits for the hub to finish serving.
    ///
    /// # Errors
    ///
    /// Propagates the hub's terminal error, if any.
    pub fn join(mut self) -> Result<(), ClusterError> {
        match self.join.take() {
            Some(j) => j
                .join()
                .unwrap_or_else(|_| Err(transport(0, 0, "hub thread panicked".to_string()))),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Everything a rank needs to join a socket cluster.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// This rank.
    pub rank: usize,
    /// Total ranks in the job.
    pub world: usize,
    /// The hub's rendezvous address.
    pub endpoint: Endpoint,
    /// Collective options (the timeout applies to every response wait).
    pub options: ClusterOptions,
    /// Deadline for connect + rendezvous.
    pub connect_timeout: Duration,
}

impl NetConfig {
    /// Config with default options and connect timeout.
    pub fn new(rank: usize, world: usize, endpoint: Endpoint) -> NetConfig {
        NetConfig {
            rank,
            world,
            endpoint,
            options: ClusterOptions::default(),
            connect_timeout: DEFAULT_CONNECT_TIMEOUT,
        }
    }
}

/// One rank's endpoint into a socket cluster; implements [`Collective`]
/// with the same dynamic-membership and degraded-mode semantics as the
/// threaded [`crate::WorkerHandle`], over a real wire.
#[derive(Debug)]
pub struct SocketCluster {
    rank: usize,
    world: usize,
    stream: Mutex<FramedStream>,
    traffic: TrafficCounter,
    live: AtomicUsize,
    ops: AtomicU64,
    left: AtomicBool,
    barrier_ns: AtomicU64,
    barrier_hist: HistogramHandle,
    timeout: Option<Duration>,
    /// Current training step, stamped into every frame's [`TraceCtx`].
    step: AtomicU64,
    /// Min-RTT clock filter fed by rendezvous pings and every round trip.
    clock: Mutex<ClockEstimator>,
    /// Latest per-rank request-arrival stamps (hub clock) from a response
    /// round header; empty until the first collective completes.
    arrivals: Mutex<Vec<u64>>,
}

impl SocketCluster {
    /// Connects to the hub and completes rendezvous; returns only once all
    /// `world` ranks have joined.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Transport`] when the hub is unreachable within the
    /// connect deadline or rejects the handshake;
    /// [`ClusterError::Timeout`] when rendezvous does not complete in time.
    pub fn connect(cfg: &NetConfig) -> Result<SocketCluster, ClusterError> {
        SocketCluster::connect_in(cfg, Path::new(shm::SHM_DIR))
    }

    /// [`SocketCluster::connect`], with regions (on a UDS endpoint) in
    /// `shm_dir`.
    fn connect_in(cfg: &NetConfig, shm_dir: &Path) -> Result<SocketCluster, ClusterError> {
        let rank = cfg.rank;
        let deadline = Instant::now() + cfg.connect_timeout;
        let stream = loop {
            match Stream::connect(&cfg.endpoint) {
                Ok(s) => break s,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(transport(rank, 0, format!("connect {}: {e}", cfg.endpoint)));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        metrics::counter("comm.net.connects").add(1);
        let mut framed = FramedStream::new(stream);
        framed.set_track(Track::Net(rank));
        framed
            .set_read_timeout(Some(cfg.connect_timeout))
            .map_err(|e| transport(rank, 0, format!("set timeout: {e}")))?;
        // On a UDS endpoint, offer two request regions (dropped — and their
        // files with them — on any early return); none if they cannot be
        // created.
        let mut own = match cfg.endpoint {
            Endpoint::Tcp(_) => None,
            #[cfg(unix)]
            Endpoint::Uds(_) => (|| {
                let create = |parity| Region::create(shm_dir, &format!("r{rank}-{parity}"));
                Some([create(0).ok()?, create(1).ok()?])
            })(),
        };
        let names = own
            .as_ref()
            .map_or(String::new(), |[a, b]| format!("{} {}", a.name(), b.name()));
        framed
            .write_tx(KIND_HELLO, names.len(), 0, |b| {
                put_u32(b, rank as u32);
                put_u32(b, cfg.world as u32);
                b.extend_from_slice(names.as_bytes());
            })
            .map_err(|e| transport(rank, 0, format!("hello: {e}")))?;
        // Rendezvous clock sync: a short ping burst right behind HELLO
        // seeds the hub-offset estimate before the first collective.
        let bad = |e: io::Error| transport(rank, 0, e.to_string());
        let mut clock = ClockEstimator::new();
        for _ in 0..CLOCK_PINGS {
            let t0 = since_epoch_ns(Instant::now());
            framed
                .write_frame(KIND_CLOCK_PING, &t0.to_le_bytes())
                .map_err(|e| transport(rank, 0, format!("clock ping: {e}")))?;
            let mut r = Reader::new(rendezvous_frame(&mut framed, KIND_CLOCK_PONG, cfg)?);
            let t3 = since_epoch_ns(Instant::now());
            let (echo, h1, h2) = (
                r.u64().map_err(bad)?,
                r.u64().map_err(bad)?,
                r.u64().map_err(bad)?,
            );
            if echo == t0 {
                clock.fold(ClockSample { t0, h1, h2, t3 });
            }
        }
        let mut r = Reader::new(rendezvous_frame(&mut framed, KIND_WELCOME, cfg)?);
        let world = r.u32().map_err(bad)? as usize;
        let live = r.u32().map_err(bad)? as usize;
        if world != cfg.world {
            return Err(transport(
                rank,
                0,
                format!("world mismatch: hub {world} vs local {}", cfg.world),
            ));
        }
        // Every rank's region names follow iff the hub agreed to carry
        // bodies in regions; this rank opens its peers' before it sends
        // anything else.
        let carrier = welcome_regions(&mut r, shm_dir, (rank, world), own.take())
            .map_err(|e| transport(rank, 0, format!("welcome: {e}")))?;
        framed.carrier = carrier;
        framed
            .set_read_timeout(cfg.options.timeout)
            .map_err(|e| transport(rank, 0, format!("set timeout: {e}")))?;
        Ok(SocketCluster {
            rank,
            world,
            stream: Mutex::new(framed),
            traffic: TrafficCounter::new(world),
            live: AtomicUsize::new(live),
            ops: AtomicU64::new(0),
            left: AtomicBool::new(false),
            barrier_ns: AtomicU64::new(0),
            barrier_hist: metrics::histogram("comm.barrier_wait_ns"),
            timeout: cfg.options.timeout,
            step: AtomicU64::new(0),
            clock: Mutex::new(clock),
            arrivals: Mutex::new(Vec::new()),
        })
    }

    /// The payload-accounting traffic counter (only this rank's row is
    /// populated — there is no shared board to read peers from).
    pub fn traffic(&self) -> &TrafficCounter {
        &self.traffic
    }

    /// Snapshot of the underlying stream's frame counters.
    pub fn net_stats(&self) -> NetStats {
        self.stream.lock().stats()
    }

    /// Test hook: corrupt one bit of the next outgoing *frame* (after its
    /// CRC), exercising the NACK/retransmit path end to end.
    pub fn inject_frame_corruption(&self) {
        self.stream.lock().corrupt_next_frame();
    }

    fn next_op(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed)
    }

    /// The [`TraceCtx`] stamped onto an outgoing request for op `seq`.
    fn ctx(&self, seq: u64) -> TraceCtx {
        TraceCtx {
            seq,
            step: self.step.load(Ordering::Relaxed),
            origin: self.rank as u32,
        }
    }

    /// One request/response round trip: `send` writes the request — this
    /// op's [`TraceCtx`], then the body — onto the stream. The blocked
    /// time is this rank's barrier wait. The response must be of kind
    /// `expect`; its round header (live count, hub send time, arrival
    /// stamps) is absorbed here, so callers see only the kind-specific
    /// remainder — still in the stream's read buffer, which the returned
    /// [`Response`] keeps locked.
    fn roundtrip(
        &self,
        op: u64,
        expect: u8,
        send: impl FnOnce(&mut FramedStream, &[u8]) -> io::Result<()>,
    ) -> Result<Response<'_>, ClusterError> {
        let step = self.step.load(Ordering::Relaxed);
        let ctx = self.ctx(op).to_bytes();
        let timer = trace::StageTimer::start();
        let mut stream = self.stream.lock();
        let t0 = since_epoch_ns(Instant::now());
        let sent =
            send(&mut stream, &ctx).map_err(|e| transport(self.rank, op, format!("send: {e}")));
        let out = sent.and_then(|()| {
            let wait = Instant::now();
            let result = stream.read_frame();
            let t3 = since_epoch_ns(Instant::now());
            let ns = wait.elapsed().as_nanos() as u64;
            self.barrier_ns.fetch_add(ns, Ordering::Relaxed);
            self.barrier_hist.record(ns);
            match result {
                Ok((KIND_ERROR, body)) => Err(decode_error(self.rank, op, body)),
                Ok((got, body)) if got == expect => self.absorb_round_header(op, body, t0, t3),
                Ok((got, _)) => Err(transport(self.rank, op, format!("bad response kind {got}"))),
                Err(e) if is_timeout(&e) => Err(ClusterError::Timeout {
                    rank: self.rank,
                    op,
                    waited: self.timeout.unwrap_or_default(),
                }),
                Err(e) => Err(transport(self.rank, op, format!("recv: {e}"))),
            }
        });
        timer.finish_with2(
            "net.roundtrip",
            Track::Net(self.rank),
            ("step", step),
            ("op", op),
        );
        out.map(|header| Response { stream, header })
    }

    /// Parses the round header off the front of a collective response body
    /// and returns its length: updates the live count, remembers the
    /// per-rank arrival stamps, and folds one clock sample from (local
    /// send, hub arrival, hub send, local receive).
    fn absorb_round_header(
        &self,
        op: u64,
        body: &[u8],
        t0: u64,
        t3: u64,
    ) -> Result<usize, ClusterError> {
        let mut r = Reader::new(body);
        let mut arrivals = self.arrivals.lock();
        let (live, h_send) = parse_round_header(&mut r, self.world, &mut arrivals)
            .map_err(|e| transport(self.rank, op, e.to_string()))?;
        if let Some(&h1) = arrivals.get(self.rank) {
            if h1 != 0 && h_send >= h1 {
                self.clock.lock().fold(ClockSample {
                    t0,
                    h1,
                    h2: h_send,
                    t3,
                });
            }
        }
        self.update_live(live);
        Ok(r.at)
    }

    fn enter(&self) -> Result<u64, ClusterError> {
        let op = self.next_op();
        if self.left.load(Ordering::Relaxed) {
            return Err(ClusterError::Dropped {
                rank: self.rank,
                op,
            });
        }
        Ok(op)
    }

    fn update_live(&self, live: u32) {
        self.live.store(live as usize, Ordering::Relaxed);
    }
}

/// A collective response still in its stream's read buffer: holds the
/// stream's lock, so the bytes stay put until the caller has decoded them.
struct Response<'a> {
    stream: parking_lot::MutexGuard<'a, FramedStream>,
    /// Length of the round header at the front of the frame body.
    header: usize,
}

impl Response<'_> {
    /// The kind-specific part of the response, past the round header.
    fn payload(&self) -> &[u8] {
        &self.stream.body()[self.header..]
    }
}

// The hub is another process and a CRC proves only an undamaged wire, so
// the parsers below check each count a response carries against the rank's.

fn invalid(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// Reads the round header [`put_round_header`] wrote: returns the live
/// count (at most `world`) and the hub's send time, and refills `arrivals`.
fn parse_round_header(
    r: &mut Reader<'_>,
    world: usize,
    arrivals: &mut Vec<u64>,
) -> io::Result<(u32, u64)> {
    let live = r.u32()?;
    if live as usize > world {
        return Err(invalid(format!("live count {live} exceeds world {world}")));
    }
    let h_send = r.u64()?;
    arrivals.clear();
    for _ in 0..r.u32()? {
        arrivals.push(r.u64()?);
    }
    Ok((live, h_send))
}

/// Reads an all-reduce response's contributor count, which must lie in
/// `1..=world`.
fn read_contributors(r: &mut Reader<'_>, world: usize) -> io::Result<usize> {
    let contributors = r.u32()? as usize;
    if !(1..=world).contains(&contributors) {
        return Err(invalid(format!(
            "contributors {contributors} outside 1..={world}"
        )));
    }
    Ok(contributors)
}

/// Reads the region names a `WELCOME` may end with — two per rank, in rank
/// order — and opens every peer's read-only beside this rank's `own`, whose
/// names the hub now removes; none means inline bodies (and `own` is
/// dropped, its files with it).
fn welcome_regions(
    r: &mut Reader<'_>,
    dir: &Path,
    (rank, world): (usize, usize),
    own: Option<[Region; 2]>,
) -> io::Result<Option<Carrier>> {
    if r.at == r.buf.len() {
        return Ok(None);
    }
    let mut own = own.ok_or_else(|| invalid("names for a rank without any".into()))?;
    own.iter_mut().for_each(Region::hand_over);
    let mut own = Some(own);
    let mut regions = Vec::with_capacity(world);
    for peer in 0..world {
        let mut name = || {
            let len = r.u32()? as usize;
            std::str::from_utf8(r.take(len)?).map_err(|_| invalid("a name is not UTF-8".into()))
        };
        let (a, b) = (name()?, name()?);
        regions.push(match own.take_if(|_| peer == rank) {
            Some(pair) => pair,
            None => [Region::open(dir, a)?, Region::open(dir, b)?],
        });
    }
    if r.at < r.buf.len() {
        return Err(invalid("more region names than ranks".into()));
    }
    Ok(Some(Carrier {
        rank,
        regions,
        next: 0,
        flipped: None,
    }))
}

/// Reads an inline all-reduce response into `sum`, which holds the request
/// and so fixes the length the reply must have; returns the contributor
/// count.
fn parse_reduction(payload: &[u8], world: usize, sum: &mut Vec<f32>) -> io::Result<usize> {
    let mut r = Reader::new(payload);
    let contributors = read_contributors(&mut r, world)?;
    let bytes = r.rest();
    if bytes.len() != 4 * sum.len() {
        return Err(invalid(format!(
            "sum length {} bytes, the request sent {} f32s",
            bytes.len(),
            sum.len()
        )));
    }
    read_f32s_le(bytes, sum);
    Ok(contributors)
}

/// Walks the rank slots of an all-gather response in rank order, handing
/// `slot` each present rank's payload as a byte range of `payload` and
/// `None` for a rank that has left. There must be exactly `world` slots.
fn gather_slots(
    payload: &[u8],
    world: usize,
    mut slot: impl FnMut(Option<std::ops::Range<usize>>),
) -> io::Result<()> {
    let mut r = Reader::new(payload);
    let n = r.u32()? as usize;
    if n != world {
        return Err(invalid(format!("slot count {n}, world {world}")));
    }
    for _ in 0..n {
        if r.take(1)?[0] == 1 {
            let len = r.u32()? as usize;
            r.take(len)?;
            slot(Some(r.at - len..r.at));
        } else {
            slot(None);
        }
    }
    Ok(())
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

fn decode_error(rank: usize, op: u64, body: &[u8]) -> ClusterError {
    let mut r = Reader::new(body);
    let code = r.take(1).map(|b| b[0]).unwrap_or(ERR_PROTOCOL);
    let _context_rank = r.u32();
    let detail = String::from_utf8_lossy(r.rest()).into_owned();
    let detail = if detail.is_empty() {
        format!("hub error code {code}")
    } else {
        detail
    };
    transport(rank, op, detail)
}

/// Reads a rendezvous frame of kind `want` and returns its body; an `ERROR`
/// frame, another kind, the connect deadline or a broken stream is the
/// rank's typed error.
fn rendezvous_frame<'a>(
    framed: &'a mut FramedStream,
    want: u8,
    cfg: &NetConfig,
) -> Result<&'a [u8], ClusterError> {
    let rank = cfg.rank;
    match framed.read_frame() {
        Ok((kind, body)) if kind == want => Ok(body),
        Ok((KIND_ERROR, body)) => Err(decode_error(rank, 0, body)),
        Ok((kind, _)) => Err(transport(
            rank,
            0,
            format!("got kind {kind}, expected {want}"),
        )),
        Err(e) if is_timeout(&e) => Err(ClusterError::Timeout {
            rank,
            op: 0,
            waited: cfg.connect_timeout,
        }),
        Err(e) => Err(transport(rank, 0, format!("rendezvous: {e}"))),
    }
}

impl Collective for SocketCluster {
    fn n_workers(&self) -> usize {
        self.world
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn live_workers(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    fn leave(&self) {
        if !self.left.swap(true, Ordering::Relaxed) {
            let mut stream = self.stream.lock();
            let _ = stream.write_frame(KIND_LEAVE, &[]);
            let _ = self
                .live
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                    Some(l.saturating_sub(1))
                });
        }
    }

    /// `data` is serialised once, straight into the frame that goes on the
    /// wire (or into this rank's request region, on UDS), and the response
    /// sum is decoded back into its allocation.
    fn try_allreduce_f32(&self, mut data: Vec<f32>) -> Result<Reduction, ClusterError> {
        let op = self.enter()?;
        self.traffic.record(
            self.rank,
            ring_allreduce_wire_bytes(self.live_workers(), data.len()),
        );
        let mut resp = self.roundtrip(op, KIND_R_ALLREDUCE, |s, ctx| {
            s.write_f32s(KIND_ALLREDUCE, ctx, &data)
        })?;
        for _ in 0..RETRY_LIMIT {
            let stream = &mut *resp.stream;
            let payload = &stream.rx[1 + resp.header..];
            let folded = match &mut stream.carrier {
                Some(carrier) => carrier.fold(payload, self.world, &mut data),
                None => parse_reduction(payload, self.world, &mut data).map(Ok),
            };
            let torn = match folded.map_err(|e| transport(self.rank, op, e.to_string()))? {
                Ok(contributors) => {
                    return Ok(Reduction {
                        sum: data,
                        contributors,
                    })
                }
                Err(torn) => (torn as u32).to_le_bytes(),
            };
            // A region-carried body failed its CRC here, and so on every
            // rank: name it, and fold again once its owner has resent it.
            drop(resp);
            let bytes = 4 * data.len() as u64;
            resp = self.roundtrip(op, KIND_R_ALLREDUCE, |s, ctx| {
                s.send_nack(bytes, &[ctx, &torn].concat())
            })?;
        }
        Err(transport(
            self.rank,
            op,
            "sum retry limit exhausted: persistently torn body".into(),
        ))
    }

    /// Zero-copy all-gather: the CRC-verified response frame is swapped out
    /// of the stream's read buffer to become `frames`' backing buffer (the
    /// previous backing buffer becomes the next read buffer), and each
    /// present rank's payload is recorded as a sub-range of it — no
    /// per-slot copy ever happens.
    fn try_allgather_frames(
        &self,
        data: Vec<u8>,
        frames: &mut GatherFrames,
    ) -> Result<(), ClusterError> {
        let op = self.enter()?;
        self.traffic.record(self.rank, data.len() as u64);
        let mut resp = self.roundtrip(op, KIND_R_ALLGATHER, |s, ctx| {
            s.write_frame_with(KIND_ALLGATHER, |body| {
                body.extend_from_slice(ctx);
                body.extend_from_slice(&data);
            })
        })?;
        frames.clear();
        // Ranges are relative to the whole read buffer: kind byte, round
        // header, then the slots.
        let base = 1 + resp.header;
        gather_slots(resp.payload(), self.world, |slot| match slot {
            Some(r) => frames.push_range(base + r.start..base + r.end),
            None => frames.push_absent(),
        })
        .map_err(|e| transport(self.rank, op, e.to_string()))?;
        frames.swap_body(&mut resp.stream.rx);
        Ok(())
    }

    fn try_barrier(&self) -> Result<(), ClusterError> {
        let op = self.enter()?;
        self.roundtrip(op, KIND_R_BARRIER, |s, ctx| {
            s.write_frame(KIND_BARRIER, ctx)
        })?;
        Ok(())
    }
}

impl ClusterIntrospect for SocketCluster {
    fn ops_started(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    fn barrier_waits_into(&self, out: &mut [u64]) {
        assert_eq!(out.len(), self.world, "need one slot per rank");
        out.fill(0);
        out[self.rank] = self.barrier_ns.load(Ordering::Relaxed);
    }

    fn sent_bytes(&self) -> u64 {
        self.traffic.bytes_sent(self.rank)
    }

    fn note_step(&self, step: u64) {
        self.step.store(step, Ordering::Relaxed);
    }

    fn clock_sync(&self) -> Option<(i64, u64)> {
        self.clock.lock().estimate()
    }

    fn wire_arrivals_into(&self, out: &mut [u64]) -> bool {
        let arrivals = self.arrivals.lock();
        if arrivals.len() != out.len() {
            return false;
        }
        out.copy_from_slice(&arrivals);
        true
    }
}

impl Drop for SocketCluster {
    fn drop(&mut self) {
        // A clean exit is indistinguishable from a crash without this: tell
        // the hub we are done so it can retire the rank and, once everyone
        // has left, shut down.
        self.leave();
    }
}

/// Runs `f(endpoint)` on `n` concurrent workers connected through a real
/// socket hub — the in-process analog of
/// [`crate::ThreadedCluster::run_with`], except every collective crosses
/// the wire. `endpoint = None` uses an ephemeral localhost TCP port.
///
/// # Panics
///
/// Panics when the hub cannot bind, a worker cannot connect, or a worker
/// thread panics.
pub fn run_socket_local<T, F>(
    n: usize,
    options: ClusterOptions,
    endpoint: Option<Endpoint>,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(SocketCluster) -> T + Sync,
{
    run_local_in(n, options, endpoint, Path::new(shm::SHM_DIR), f)
}

/// [`run_socket_local`] with every region (UDS) in `shm_dir`.
fn run_local_in<T, F>(
    n: usize,
    options: ClusterOptions,
    endpoint: Option<Endpoint>,
    shm_dir: &Path,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(SocketCluster) -> T + Sync,
{
    let endpoint = endpoint.unwrap_or_else(|| Endpoint::Tcp("127.0.0.1:0".to_string()));
    let mut hub = HubServer::bind(&endpoint, n, options).expect("bind hub");
    hub.shm_dir = shm_dir.to_path_buf();
    let endpoint = hub.endpoint().clone();
    let hub = hub.spawn();
    let connect_timeout = options.timeout.unwrap_or(DEFAULT_CONNECT_TIMEOUT);
    let results = std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(n);
        for rank in 0..n {
            let endpoint = endpoint.clone();
            let f = &f;
            joins.push(s.spawn(move || {
                let cfg = NetConfig {
                    rank,
                    world: n,
                    endpoint,
                    options,
                    connect_timeout,
                };
                let cluster = SocketCluster::connect_in(&cfg, shm_dir)
                    .unwrap_or_else(|e| panic!("rank {rank} failed to join: {e}"));
                f(cluster)
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("worker thread panicked"))
            .collect()
    });
    // Workers succeeded; a hub-side error at teardown is not actionable.
    let _ = hub.join();
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing_round_trips() {
        assert_eq!(
            Endpoint::parse("127.0.0.1:9000").unwrap(),
            Endpoint::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            Endpoint::parse("tcp://h:1").unwrap(),
            Endpoint::Tcp("h:1".into())
        );
        assert!(Endpoint::parse("rdma://x").is_err());
        #[cfg(unix)]
        {
            let e = Endpoint::parse("uds:///tmp/x.sock").unwrap();
            assert_eq!(e, Endpoint::Uds(PathBuf::from("/tmp/x.sock")));
            assert_eq!(e.to_string(), "uds:///tmp/x.sock");
        }
    }

    #[test]
    fn socket_collectives_match_threaded_semantics() {
        let out = run_socket_local(4, ClusterOptions::default(), None, |c| {
            let sum = c.allreduce_f32(vec![c.rank() as f32 + 1.0]);
            let gathered = c.allgather_bytes(vec![c.rank() as u8; c.rank() + 1]);
            c.barrier();
            (sum[0], gathered)
        });
        for (sum, gathered) in out {
            assert_eq!(sum, 10.0);
            assert_eq!(gathered.len(), 4);
            for (rank, slot) in gathered.iter().enumerate() {
                assert_eq!(slot, &vec![rank as u8; rank + 1]);
            }
        }
    }

    #[test]
    fn repeated_allreduces_do_not_cross_rounds() {
        let out = run_socket_local(3, ClusterOptions::default(), None, |c| {
            (0..5)
                .map(|round| c.allreduce_f32(vec![(c.rank() + round) as f32])[0])
                .collect::<Vec<f32>>()
        });
        for per_rank in out {
            for (round, v) in per_rank.iter().enumerate() {
                assert_eq!(*v, (3 * round + 3) as f32);
            }
        }
    }

    #[test]
    fn leave_shrinks_membership_for_survivors() {
        let out = run_socket_local(
            3,
            ClusterOptions::with_timeout(Duration::from_secs(10)),
            None,
            |c| {
                if c.rank() == 1 {
                    c.leave();
                    return (0, Vec::new());
                }
                let slots = c.try_allgather_bytes(vec![c.rank() as u8]).unwrap();
                (c.live_workers(), slots)
            },
        );
        for (rank, (live, slots)) in out.iter().enumerate() {
            if rank == 1 {
                continue;
            }
            assert_eq!(*live, 2, "rank {rank} must see the leaver gone");
            assert_eq!(slots.len(), 3);
            assert!(slots[1].is_none(), "left rank's slot must be None");
            assert_eq!(slots[0].as_deref(), Some(&[0u8][..]));
            assert_eq!(slots[2].as_deref(), Some(&[2u8][..]));
        }
    }

    #[test]
    fn frame_corruption_is_nacked_and_retransmitted() {
        let out = run_socket_local(2, ClusterOptions::default(), None, |c| {
            if c.rank() == 0 {
                c.inject_frame_corruption();
            }
            let slots = c.try_allgather_bytes(vec![7u8, 8, 9]).unwrap();
            (slots, c.net_stats())
        });
        for (slots, _) in &out {
            // The retry is invisible: everyone still gets clean bytes.
            assert_eq!(slots[0].as_deref(), Some(&[7u8, 8, 9][..]));
            assert_eq!(slots[1].as_deref(), Some(&[7u8, 8, 9][..]));
        }
        assert!(
            out[0].1.resends >= 1,
            "rank 0 must have retransmitted: {:?}",
            out[0].1
        );
    }

    /// The hub serialises a round's response once and every answered
    /// stream keeps a handle to that one image as its retransmit copy. With
    /// the copy to rank 1 corrupted in flight, rank 1 recovers from the
    /// shared image while rank 0 never notices.
    #[cfg(unix)]
    #[test]
    fn fan_out_retransmits_to_one_rank_from_the_shared_image() {
        let (mut hub_side, mut rank_side) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            let (h, r) = UnixStream::pair().unwrap();
            hub_side.push(FramedStream::uds(h));
            rank_side.push(FramedStream::uds(r));
        }
        let payload: Vec<u8> = (0..300_000).map(|i| (i * 31 % 251) as u8).collect();
        let mut images = ResponseImages::default();
        let image = images.next();
        let buf = Arc::get_mut(&mut image.frame).unwrap();
        begin_frame(buf, KIND_R_ALLGATHER);
        buf.extend_from_slice(&payload);
        seal_frame(buf);
        hub_side[1].corrupt_next_frame();

        let ranks: Vec<_> = rank_side
            .into_iter()
            .map(|mut stream| {
                std::thread::spawn(move || {
                    let (kind, body) = stream.read_frame().unwrap();
                    let got = (kind, body.to_vec());
                    // The hub services a NACK while waiting for this.
                    stream.write_frame(KIND_LEAVE, &[]).unwrap();
                    (got, stream.stats())
                })
            })
            .collect();
        let mut alive = vec![true; 2];
        fan_out(&mut hub_side, &mut alive, &[Some(KIND_ALLGATHER); 2], image);
        assert_eq!(alive, [true, true]);
        assert_eq!(
            Arc::strong_count(&image.frame),
            3,
            "one image, three handles"
        );
        for stream in hub_side.iter_mut() {
            assert_eq!(stream.read_frame().unwrap().0, KIND_LEAVE);
        }
        let wire = payload.len() as u64 + 9;
        for (rank, join) in ranks.into_iter().enumerate() {
            let ((kind, body), stats) = join.join().unwrap();
            assert_eq!(kind, KIND_R_ALLGATHER);
            assert!(body == payload, "rank {rank} got altered bytes");
            assert_eq!(stats.nacks_sent, rank as u64);
            let hub = hub_side[rank].stats();
            assert_eq!(hub.resends, rank as u64);
            assert_eq!(hub.wire_bytes_sent, wire * (1 + rank as u64));
        }
        // The next round builds in the other buffer; the round after gets
        // this one back as sole owner once the streams have moved on.
        assert_eq!(Arc::strong_count(&images.next().frame), 1);
    }

    /// The wire format is frozen: byte counts for a fixed call sequence are
    /// derived from the frame layout alone (9 bytes of framing, a 20-byte
    /// trace context per request) and must never move.
    #[test]
    fn wire_bytes_for_a_fixed_call_sequence_are_pinned() {
        let out = pinned_call_sequence(None);
        assert!(
            out.iter().all(|s| s.carried_bytes == 0),
            "TCP carries inline"
        );
    }

    /// The same pin over UDS, where the all-reduce body rides in a region:
    /// logical bytes are the same formula, and the region carried the body.
    #[cfg(unix)]
    #[test]
    fn uds_wire_bytes_for_a_fixed_call_sequence_are_pinned() {
        let out = pinned_call_sequence(Some(Endpoint::ephemeral_uds()));
        assert!(out.iter().all(|s| s.carried_bytes == 200), "{out:?}");
    }

    fn pinned_call_sequence(endpoint: Option<Endpoint>) -> Vec<NetStats> {
        let out = run_socket_local(2, ClusterOptions::default(), endpoint, |c| {
            let _ = c.try_allreduce_f32(vec![0.5; 50]).unwrap();
            let _ = c.try_allgather_bytes(vec![1u8; 100]).unwrap();
            let mut frames = GatherFrames::new();
            c.try_allgather_frames(vec![2u8; 10], &mut frames).unwrap();
            assert_eq!(frames.slot(1), Some(&[2u8; 10][..]));
            c.try_barrier().unwrap();
            c.net_stats()
        });
        for stats in &out {
            let hello = 9 + 8;
            let pings = CLOCK_PINGS as u64 * (9 + 8);
            let ctx = 9 + TraceCtx::WIRE_BYTES as u64;
            let requests = (ctx + 200) + (ctx + 100) + (ctx + 10) + ctx;
            assert_eq!(stats.wire_bytes_sent, hello + pings + requests);
            assert_eq!(stats.frames_sent, 1 + CLOCK_PINGS as u64 + 4);
            assert_eq!((stats.nacks_sent, stats.resends), (0, 0));
        }
        out
    }

    /// Without a region directory (no `/dev/shm`, or a platform without
    /// regions) a UDS cluster keeps inline bodies, with the same sums.
    #[cfg(unix)]
    #[test]
    fn a_missing_region_directory_falls_back_to_inline_bodies() {
        let run = |dir: &Path| {
            let ep = Endpoint::ephemeral_uds();
            run_local_in(2, ClusterOptions::default(), Some(ep), dir, |c| {
                let data: Vec<f32> = (0..3000)
                    .map(|i| (i * (c.rank() + 3)) as f32 / 7.0)
                    .collect();
                let sum = c.try_allreduce_f32(data).unwrap();
                (sum.sum, sum.contributors, c.net_stats())
            })
        };
        let carried = run(Path::new(shm::SHM_DIR));
        let inline = run(Path::new("/nonexistent/grace-shm"));
        for ((a, ca, sa), (b, cb, sb)) in carried.iter().zip(&inline) {
            assert_eq!((a, ca), (b, cb), "the carrier must not move a bit");
            assert_eq!((sa.carried_bytes, sb.carried_bytes), (12_000, 0));
            assert_eq!(sa.wire_bytes_sent, sb.wire_bytes_sent);
        }
    }

    /// A region that cannot grow (tmpfs full: `fallocate` says `ENOSPC`) is
    /// a typed error on its rank; the survivor's round goes on without it,
    /// and no region file is left behind.
    #[cfg(unix)]
    #[test]
    fn a_full_region_filesystem_is_a_typed_error() {
        let dir = Path::new(shm::SHM_DIR).join(format!("grace-enospc-{}", std::process::id()));
        std::fs::create_dir(&dir).unwrap();
        let opts = ClusterOptions::with_timeout(Duration::from_secs(10));
        let out = run_local_in(2, opts, Some(Endpoint::ephemeral_uds()), &dir, |c| {
            if c.rank() == 0 {
                shm::tests::fail_next_growth(28);
            }
            c.try_allreduce_f32(vec![1.5; 64]).map(|r| r.contributors)
        });
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        std::fs::remove_dir(&dir).unwrap();
        match &out[0] {
            Err(ClusterError::Transport {
                rank: 0,
                op: 0,
                detail,
            }) => {
                assert!(detail.contains("No space left"), "{detail}")
            }
            other => panic!("expected a transport error, got {other:?}"),
        }
        assert_eq!(out[1], Ok(1));
        assert!(left.is_empty(), "region files left: {left:?}");
    }

    #[test]
    fn traffic_accounting_matches_threaded_formulas() {
        let out = run_socket_local(4, ClusterOptions::default(), None, |c| {
            let payload = vec![1u8; 100 + c.rank()];
            let expected = payload.len() as u64 + ring_allreduce_wire_bytes(4, 50);
            let _ = c.try_allgather_bytes(payload).unwrap();
            let _ = c.try_allreduce_f32(vec![0.5; 50]).unwrap();
            (expected, c.sent_bytes())
        });
        for (expected, got) in out {
            assert_eq!(expected, got);
        }
    }

    /// A response whose counts disagree with the rank's own view is a typed
    /// error naming the field — not a panic in the engine, and not a mean
    /// over contributions that do not exist.
    #[test]
    fn hostile_response_counts_are_rejected_by_field() {
        let reduction = |contributors: u32, sum: &[f32]| {
            let mut body = contributors.to_le_bytes().to_vec();
            extend_f32s_le(&mut body, sum);
            body
        };
        let mut sum = vec![0.0f32; 2];
        let ok = parse_reduction(&reduction(2, &[1.0, 2.0]), 2, &mut sum);
        assert_eq!((ok.unwrap(), &sum[..]), (2, &[1.0, 2.0][..]));
        for (body, field) in [
            (reduction(0, &[1.0, 2.0]), "contributors"),
            (reduction(3, &[1.0, 2.0]), "contributors"),
            (reduction(2, &[1.0]), "sum length"),
            (reduction(2, &[1.0, 2.0, 3.0]), "sum length"),
        ] {
            let e = parse_reduction(&body, 2, &mut vec![0.0; 2]).unwrap_err();
            assert!(e.to_string().contains(field), "{e}");
        }

        // Slots in which every rank has left: a count word, then one 0 each.
        let gather = |n: u32| [&n.to_le_bytes()[..], &vec![0u8; n as usize]].concat();
        assert!(gather_slots(&gather(2), 2, |slot| assert!(slot.is_none())).is_ok());
        for n in [1, 3] {
            let e = gather_slots(&gather(n), 2, |_| {}).unwrap_err();
            assert!(e.to_string().contains("slot count"), "{e}");
        }

        let header = |live: u32| {
            let mut body = Vec::new();
            put_round_header(&mut body, live, &[5, 6]);
            body
        };
        let mut arrivals = Vec::new();
        let ok = parse_round_header(&mut Reader::new(&header(2)), 2, &mut arrivals);
        assert_eq!((ok.unwrap().0, &arrivals[..]), (2, &[5, 6][..]));
        let e = parse_round_header(&mut Reader::new(&header(3)), 2, &mut arrivals).unwrap_err();
        assert!(e.to_string().contains("live count"), "{e}");
    }

    #[test]
    fn connect_to_dead_port_is_a_typed_error() {
        // Bind-then-drop reserves a port nothing listens on.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let mut cfg = NetConfig::new(0, 2, Endpoint::Tcp(format!("127.0.0.1:{port}")));
        cfg.connect_timeout = Duration::from_millis(200);
        match SocketCluster::connect(&cfg) {
            Err(ClusterError::Transport { rank, op, detail }) => {
                assert_eq!((rank, op), (0, 0));
                assert!(detail.contains("connect"), "{detail}");
            }
            other => panic!("expected Transport error, got {other:?}"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn unix_domain_fast_path_round_trips() {
        let ep = Endpoint::ephemeral_uds();
        let out = run_socket_local(3, ClusterOptions::default(), Some(ep.clone()), |c| {
            c.allreduce_f32(vec![c.rank() as f32])[0]
        });
        assert_eq!(out, vec![3.0; 3]);
        if let Endpoint::Uds(path) = &ep {
            assert!(!path.exists(), "listener must unlink its socket file");
        }
    }
}
