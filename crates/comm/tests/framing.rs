//! Loopback framing properties: the length-prefixed, CRC-trailed framer
//! must round-trip payloads of *any* size — empty, single-byte,
//! MTU-straddling, and multi-megabyte fused buckets — with no
//! short-read/short-write truncation, over a real kernel TCP socket.

use grace_comm::net::{FramedStream, KIND_ALLGATHER};
use proptest::prelude::*;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

/// One echo round trip over a fresh loopback pair; returns what came back.
fn echo_roundtrip(payloads: Vec<Vec<u8>>) -> Vec<(u8, Vec<u8>)> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let count = payloads.len();
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut framed = FramedStream::tcp(stream);
        for _ in 0..count {
            let (kind, body) = framed.read_frame().expect("server read");
            let body = body.to_vec();
            framed.write_frame(kind, &body).expect("server write");
        }
    });
    let mut client = FramedStream::tcp(TcpStream::connect(addr).expect("connect"));
    let mut out = Vec::with_capacity(count);
    for p in &payloads {
        client.write_frame(KIND_ALLGATHER, p).expect("client write");
        let (kind, body) = client.read_frame().expect("client read");
        out.push((kind, body.to_vec()));
    }
    server.join().expect("server thread");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary payloads in arbitrary sequence round-trip byte-exact.
    #[test]
    fn arbitrary_payloads_round_trip_exactly(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..4096),
            1..5,
        ),
    ) {
        let echoed = echo_roundtrip(payloads.clone());
        prop_assert_eq!(echoed.len(), payloads.len());
        for (sent, (kind, got)) in payloads.iter().zip(&echoed) {
            prop_assert_eq!(*kind, KIND_ALLGATHER);
            prop_assert_eq!(got, sent);
        }
    }
}

/// The boundary sizes the proptest's uniform draw is unlikely to hit
/// exactly: empty, one byte, either side of a 1500-byte Ethernet MTU (the
/// frame adds 9 bytes of overhead), and a bucket larger than the 2 MiB
/// default fusion threshold — proving multi-`write(2)` frames reassemble
/// without truncation.
#[test]
fn boundary_sizes_round_trip_exactly() {
    let mtu_body = 1500usize - 9;
    let sizes = [
        0usize,
        1,
        mtu_body - 1,
        mtu_body,
        mtu_body + 1,
        3 << 20, // > DEFAULT_FUSION_BYTES (2 MiB)
    ];
    let payloads: Vec<Vec<u8>> = sizes
        .iter()
        .map(|&n| (0..n).map(|i| (i * 31 % 251) as u8).collect())
        .collect();
    let echoed = echo_roundtrip(payloads.clone());
    for (sent, (kind, got)) in payloads.iter().zip(&echoed) {
        assert_eq!(*kind, KIND_ALLGATHER);
        assert_eq!(got.len(), sent.len(), "length truncated");
        assert_eq!(got, sent, "bytes corrupted in flight");
    }
}

/// Every write is `write_all` and every read is `read_exact`: killing the
/// peer mid-frame surfaces an error, never a silently short frame.
#[test]
fn torn_stream_is_an_error_not_a_short_read() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // A frame header promising 64 KiB, then only 10 bytes, then EOF.
        let mut partial = Vec::new();
        partial.extend_from_slice(&(65536u32).to_le_bytes());
        partial.extend_from_slice(&[KIND_ALLGATHER; 10]);
        stream.write_all(&partial).unwrap();
        drop(stream);
    });
    let mut client = FramedStream::tcp(TcpStream::connect(addr).unwrap());
    let err = client.read_frame().expect_err("truncated frame must error");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    server.join().unwrap();
}

fn pattern(n: usize, salt: usize) -> Vec<u8> {
    (0..n).map(|i| ((i + salt) * 31 % 251) as u8).collect()
}

/// Both directions of a stream work out of one pooled buffer each. A big
/// frame followed by an empty, a one-byte and a mid-sized one must not leak
/// a stale tail of the big one into the small ones, on either side.
#[test]
fn shrinking_frames_over_reused_buffers_carry_no_stale_bytes() {
    let sizes = [4usize << 20, 0, 1, 64 << 10];
    let payloads: Vec<Vec<u8>> = sizes
        .iter()
        .enumerate()
        .map(|(salt, &n)| pattern(n, salt))
        .collect();
    let echoed = echo_roundtrip(payloads.clone());
    for (sent, (kind, got)) in payloads.iter().zip(&echoed) {
        assert_eq!(*kind, KIND_ALLGATHER);
        assert_eq!(got, sent, "{}-byte frame", sent.len());
    }
}

/// The send buffer *is* the retransmit image: a corrupted 4 MiB frame must
/// be NACKed and re-sent byte-identically from it, the bit flip never
/// having touched the buffer, and the stream must carry on afterwards.
#[test]
fn corrupted_large_frame_is_retransmitted_byte_identically() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let big = pattern(4 << 20, 7);
    let expect = big.clone();
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut framed = FramedStream::tcp(stream);
        for want in [&expect[..], &b"next"[..]] {
            let (kind, body) = framed.read_frame().expect("server read");
            assert_eq!(kind, KIND_ALLGATHER);
            assert!(body == want, "{}-byte frame arrived altered", want.len());
            framed.write_frame(kind, &[]).expect("ack");
        }
        framed.stats()
    });
    let mut client = FramedStream::tcp(TcpStream::connect(addr).unwrap());
    client.corrupt_next_frame();
    client.write_frame(KIND_ALLGATHER, &big).unwrap();
    // Waiting for the ack is what services the NACK.
    assert!(client.read_frame().unwrap().1.is_empty());
    client.write_frame(KIND_ALLGATHER, b"next").unwrap();
    assert!(client.read_frame().unwrap().1.is_empty());
    let server_stats = server.join().unwrap();
    let wire = big.len() as u64 + 9;
    assert_eq!(server_stats.nacks_sent, 1);
    assert_eq!(client.stats().resends, 1);
    assert_eq!(client.stats().frames_sent, 3);
    assert_eq!(client.stats().wire_bytes_sent, 2 * wire + 4 + 9);
}

/// A frame header is four unauthenticated bytes. One that claims the
/// 1 GiB maximum and is followed by nothing — the peer dies, or simply goes
/// quiet — must end in an `io::Error` with the reader having reserved a
/// bounded amount, not the claimed gigabyte.
#[test]
fn forged_gigabyte_header_allocates_a_bounded_buffer() {
    const BOUND: usize = 2 << 20;
    for stall in [false, true] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
            stream.write_all(&[KIND_ALLGATHER; 100]).unwrap();
            if stall {
                // Keep the connection open past the client's deadline.
                thread::sleep(Duration::from_millis(400));
            }
        });
        let mut client = FramedStream::tcp(TcpStream::connect(addr).unwrap());
        client
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let err = client.read_frame().expect_err("no frame ever arrives");
        if stall {
            assert!(
                matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "stalled peer: {err:?}"
            );
        } else {
            assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err:?}");
        }
        assert!(
            client.retained_bytes() <= BOUND,
            "reader holds {} bytes on the strength of a header",
            client.retained_bytes()
        );
        server.join().unwrap();
    }
}
