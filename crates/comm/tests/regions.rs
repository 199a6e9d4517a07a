//! Shared-memory bodies on a UDS endpoint, from the outside: a peer that
//! lies in a descriptor or names a file it should not gets a typed error
//! and never a panic or a stray access, and no `/dev/shm/grace-*` file of a
//! cluster outlives it — clean, with a rank gone mid-run, or after a
//! rendezvous that never completed.
#![cfg(target_os = "linux")]

use grace_comm::net::{
    run_socket_local, Endpoint, FramedStream, HubServer, NetConfig, SocketCluster, TraceCtx,
    KIND_ALLREDUCE, KIND_CLOCK_PING, KIND_CLOCK_PONG, KIND_ERROR, KIND_HELLO, KIND_R_ALLREDUCE,
    KIND_WELCOME,
};
use grace_comm::{ClusterError, ClusterOptions, Collective};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Every test here creates region files under this process's pid; one at a
/// time, so each can tell exactly which files it left.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// This process's region files still in `/dev/shm`.
fn leftovers() -> Vec<String> {
    let prefix = format!("grace-{}-", std::process::id());
    let Ok(dir) = std::fs::read_dir("/dev/shm") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

fn uds_path(ep: &Endpoint) -> PathBuf {
    match ep {
        Endpoint::Uds(path) => path.clone(),
        Endpoint::Tcp(_) => unreachable!("UDS endpoint"),
    }
}

/// A region-named file of `len` zero bytes, as a peer would make one.
fn region_file(tag: &str, len: u64) -> (String, PathBuf) {
    let name = format!("grace-{}-test-{tag}", std::process::id());
    let path = Path::new("/dev/shm").join(&name);
    std::fs::File::create(&path).unwrap().set_len(len).unwrap();
    (name, path)
}

/// A hand-driven rank: `HELLO(rank 0, world 1, region)` and the clock
/// burst; returns the stream and the `WELCOME` body.
fn hand_rank(path: &Path, region: &[u8]) -> (FramedStream, Vec<u8>) {
    let mut s = FramedStream::uds(UnixStream::connect(path).unwrap());
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = vec![0, 0, 0, 0, 1, 0, 0, 0];
    hello.extend_from_slice(region);
    s.write_frame(KIND_HELLO, &hello).unwrap();
    for _ in 0..4 {
        s.write_frame(KIND_CLOCK_PING, &[0; 8]).unwrap();
        assert_eq!(s.read_frame().unwrap().0, KIND_CLOCK_PONG);
    }
    let (kind, body) = s.read_frame().unwrap();
    assert_eq!(kind, KIND_WELCOME);
    let body = body.to_vec();
    (s, body)
}

fn ctx() -> [u8; TraceCtx::WIRE_BYTES] {
    TraceCtx {
        seq: 0,
        step: 0,
        origin: 0,
    }
    .to_bytes()
}

/// A request descriptor claiming a body past the end of the rank's region
/// is refused before the hub reads a byte: a typed error on both sides.
#[test]
fn a_request_length_beyond_the_region_is_a_typed_error() {
    let _guard = serial();
    let ep = Endpoint::ephemeral_uds();
    let hub = HubServer::bind(&ep, 1, ClusterOptions::default()).unwrap();
    let hub = hub.spawn();
    let (name, _) = region_file("req", 4096);
    let (mut s, welcome) = hand_rank(&uds_path(&ep), name.as_bytes());
    assert!(welcome.len() > 8, "the hub must answer with image names");

    let mut descriptor = ctx().to_vec();
    descriptor.extend_from_slice(&(1u32 << 20).to_le_bytes());
    descriptor.extend_from_slice(&0u32.to_le_bytes());
    s.write_frame(KIND_ALLREDUCE, &descriptor).unwrap();
    let (kind, body) = s.read_frame().unwrap();
    assert_eq!(kind, KIND_ERROR);
    assert!(
        String::from_utf8_lossy(body).contains("exceeds"),
        "{body:?}"
    );
    match hub.join() {
        Err(ClusterError::Transport { detail, .. }) => {
            assert!(detail.contains("exceeds"), "{detail}")
        }
        other => panic!("expected a transport error, got {other:?}"),
    }
    drop(s);
    assert_eq!(leftovers(), Vec::<String>::new());
}

/// A hub that answers with a sum descriptor past the end of its image, or
/// naming an image that does not exist: the rank's all-reduce is a typed
/// error.
#[test]
fn a_response_beyond_the_image_is_a_typed_error() {
    let _guard = serial();
    for (image, expect) in [(0u8, "exceeds"), (5, "image 5 does not exist")] {
        let ep = Endpoint::ephemeral_uds();
        let listener = UnixListener::bind(uds_path(&ep)).unwrap();
        let images = [region_file("img0", 4096), region_file("img1", 4096)];
        let names: Vec<String> = images.iter().map(|(n, _)| n.clone()).collect();
        let hub = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut s = FramedStream::uds(stream);
            assert_eq!(s.read_frame().unwrap().0, KIND_HELLO);
            for _ in 0..4 {
                let (_, ping) = s.read_frame().unwrap();
                let pong = [ping, &[0; 16]].concat();
                s.write_frame(KIND_CLOCK_PONG, &pong).unwrap();
            }
            let mut welcome = [1u32.to_le_bytes(), 1u32.to_le_bytes()].concat();
            for name in &names {
                welcome.extend_from_slice(&(name.len() as u32).to_le_bytes());
                welcome.extend_from_slice(name.as_bytes());
            }
            s.write_frame(KIND_WELCOME, &welcome).unwrap();
            let (kind, request) = s.read_frame().unwrap();
            assert_eq!(kind, KIND_ALLREDUCE);
            let len = &request[TraceCtx::WIRE_BYTES..TraceCtx::WIRE_BYTES + 4];
            // Round header (live 1, send time, one arrival), contributors,
            // then the lying descriptor: the request's length, image `image`.
            let mut resp = [
                &1u32.to_le_bytes()[..],
                &[0; 8],
                &1u32.to_le_bytes(),
                &[0; 8],
            ]
            .concat();
            resp.extend_from_slice(&1u32.to_le_bytes());
            resp.extend_from_slice(len);
            resp.extend_from_slice(&0u32.to_le_bytes());
            resp.push(image);
            s.write_frame(KIND_R_ALLREDUCE, &resp).unwrap();
            // The rank leaves (or closes) after its error.
            let _ = s.read_frame();
        });
        let mut cfg = NetConfig::new(0, 1, ep.clone());
        cfg.options = ClusterOptions::with_timeout(Duration::from_secs(10));
        let c = SocketCluster::connect(&cfg).unwrap();
        match c.try_allreduce_f32(vec![1.0; 2048]) {
            Err(ClusterError::Transport {
                rank: 0,
                op: 0,
                detail,
            }) => {
                assert!(detail.contains(expect), "{detail}")
            }
            other => panic!("expected a transport error, got {other:?}"),
        }
        drop(c);
        hub.join().unwrap();
        for (_, path) in images {
            std::fs::remove_file(path).unwrap();
        }
        assert_eq!(leftovers(), Vec::<String>::new());
    }
}

/// The hub opens only a region name it validated: a name outside the
/// `grace-` namespace, one with a path separator or a dot, or one naming
/// no file is refused in rendezvous with a typed error to that rank.
#[test]
fn region_names_the_hub_did_not_validate_are_refused() {
    let _guard = serial();
    for (name, expect) in [
        ("evil-region", "not a grace-"),
        ("grace-1/../../etc/passwd", "not a grace-"),
        ("../grace-1", "not a grace-"),
        ("grace-1.sock", "not a grace-"),
        ("grace-0-no-such-region", "No such file"),
    ] {
        let ep = Endpoint::ephemeral_uds();
        let hub = HubServer::bind(&ep, 1, ClusterOptions::default())
            .unwrap()
            .with_accept_timeout(Duration::from_millis(200))
            .spawn();
        let mut s = FramedStream::uds(UnixStream::connect(uds_path(&ep)).unwrap());
        let hello = [&[0u8, 0, 0, 0, 1, 0, 0, 0][..], name.as_bytes()].concat();
        s.write_frame(KIND_HELLO, &hello).unwrap();
        let (kind, body) = s.read_frame().unwrap();
        assert_eq!(kind, KIND_ERROR, "{name}");
        let detail = String::from_utf8_lossy(body).into_owned();
        assert!(detail.contains(expect), "{name}: {detail}");
        match hub.join() {
            Err(ClusterError::Transport { detail, .. }) => {
                assert!(detail.contains("rendezvous"), "{detail}")
            }
            other => panic!("{name}: expected an aborted rendezvous, got {other:?}"),
        }
    }
    assert_eq!(leftovers(), Vec::<String>::new());
}

#[test]
fn no_region_file_survives_a_clean_run() {
    let _guard = serial();
    let out = run_socket_local(
        3,
        ClusterOptions::default(),
        Some(Endpoint::ephemeral_uds()),
        |c| {
            let sum = c.allreduce_f32(vec![c.rank() as f32; 70_000]);
            let slots = c.allgather_bytes(vec![c.rank() as u8; 9]);
            (sum[69_999], slots.len(), c.net_stats().carried_bytes)
        },
    );
    assert_eq!(out, vec![(3.0, 3, 280_000); 3]);
    assert_eq!(leftovers(), Vec::<String>::new());
}

/// A rank that vanishes mid-run without a destructor running — as a killed
/// process would — leaves nothing behind either: every name is gone once
/// both sides hold the file.
#[test]
fn no_region_file_survives_a_rank_that_vanishes_mid_run() {
    let _guard = serial();
    let ep = Endpoint::ephemeral_uds();
    let hub = HubServer::bind(
        &ep,
        3,
        ClusterOptions::with_timeout(Duration::from_millis(300)),
    )
    .unwrap();
    let endpoint = hub.endpoint().clone();
    let hub = hub.spawn();
    let sums: Vec<Option<Vec<usize>>> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..3)
            .map(|rank| {
                let endpoint = endpoint.clone();
                s.spawn(move || {
                    let mut cfg = NetConfig::new(rank, 3, endpoint);
                    cfg.options = ClusterOptions::with_timeout(Duration::from_secs(10));
                    let c = SocketCluster::connect(&cfg).unwrap();
                    let mut contributors = Vec::new();
                    for round in 0..3 {
                        if rank == 2 && round == 1 {
                            // No LEAVE, no unmap, no unlink: only the hub's
                            // deadline notices.
                            std::mem::forget(c);
                            return None;
                        }
                        let r = c.try_allreduce_f32(vec![1.0; 5000]).unwrap();
                        contributors.push(r.contributors);
                    }
                    Some(contributors)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    assert_eq!(sums[0], Some(vec![3, 2, 2]));
    assert_eq!(sums[1], Some(vec![3, 2, 2]));
    hub.join().unwrap();
    assert_eq!(leftovers(), Vec::<String>::new());
}

#[test]
fn no_region_file_survives_a_rendezvous_timeout() {
    let _guard = serial();
    let ep = Endpoint::ephemeral_uds();
    let hub = HubServer::bind(&ep, 2, ClusterOptions::default())
        .unwrap()
        .with_accept_timeout(Duration::from_millis(300))
        .spawn();
    let mut cfg = NetConfig::new(0, 2, ep);
    cfg.connect_timeout = Duration::from_secs(10);
    match SocketCluster::connect(&cfg) {
        Err(ClusterError::Transport { detail, .. }) => {
            assert!(detail.contains("rendezvous"), "{detail}")
        }
        other => panic!("expected an aborted rendezvous, got {other:?}"),
    }
    assert!(hub.join().is_err());
    assert_eq!(leftovers(), Vec::<String>::new());
}
