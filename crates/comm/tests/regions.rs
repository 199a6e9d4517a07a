//! Shared-memory bodies on a UDS endpoint, from the outside: a peer or hub
//! that lies in a descriptor, or names a file it should not, gets a typed
//! error and never a panic or a stray access, and no `/dev/shm/grace-*`
//! file of a cluster outlives it — clean, with a rank gone mid-run, or after
//! a rendezvous that never completed.
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

/// A hand-driven rank: `HELLO(rank, world, region names)` and the clock
/// burst; returns the stream and the `WELCOME` body.
fn hand_rank(path: &Path, (rank, world): (u32, u32), names: &[u8]) -> (FramedStream, Vec<u8>) {
    let mut s = FramedStream::uds(UnixStream::connect(path).unwrap());
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = [rank.to_le_bytes(), world.to_le_bytes()].concat();
    hello.extend_from_slice(names);
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

fn ctx(origin: u32) -> [u8; TraceCtx::WIRE_BYTES] {
    TraceCtx {
        seq: 0,
        step: 0,
        origin,
    }
    .to_bytes()
}

fn options() -> ClusterOptions {
    ClusterOptions::with_timeout(Duration::from_secs(10))
}

/// A peer whose descriptor claims a body past the end of its region: the
/// hub relays it unread, and the rank that folds it refuses it before it
/// reads a byte — a typed error. The hub has removed the peer's names by
/// then, as every rank has sent a frame.
#[test]
fn a_descriptor_longer_than_its_owners_region_is_a_typed_error() {
    let _guard = serial();
    let ep = Endpoint::ephemeral_uds();
    let hub = HubServer::bind(&ep, 2, options()).unwrap().spawn();
    let files = [region_file("peer0", 4096), region_file("peer1", 4096)];
    let names = format!("{} {}", files[0].0, files[1].0);
    let rank0 = std::thread::spawn({
        let ep = ep.clone();
        move || {
            let mut cfg = NetConfig::new(0, 2, ep);
            cfg.options = options();
            let c = SocketCluster::connect(&cfg).unwrap();
            c.try_allreduce_f32(vec![1.0; 2048]).map(|r| r.contributors)
        }
    });
    let (mut s, welcome) = hand_rank(&uds_path(&ep), (1, 2), names.as_bytes());
    assert!(welcome.len() > 8, "the hub must answer with region names");

    let mut descriptor = ctx(1).to_vec();
    descriptor.extend_from_slice(&8192u32.to_le_bytes());
    descriptor.extend_from_slice(&0u32.to_le_bytes());
    descriptor.push(0);
    s.write_frame(KIND_ALLREDUCE, &descriptor).unwrap();
    assert_eq!(s.read_frame().unwrap().0, KIND_R_ALLREDUCE);
    match rank0.join().unwrap() {
        Err(ClusterError::Transport {
            rank: 0,
            op: 0,
            detail,
        }) => assert!(detail.contains("exceeds"), "{detail}"),
        other => panic!("expected a transport error, got {other:?}"),
    }
    drop(s);
    hub.join().unwrap();
    for (name, path) in files {
        assert!(!path.exists(), "the hub must have removed {name}");
    }
    assert_eq!(leftovers(), Vec::<String>::new());
}

/// A rank that joins and leaves at once must not take its region names
/// with it: a slower peer may not have opened them yet. The hub removes
/// them once every rank has sent a frame.
#[test]
fn a_ranks_names_outlive_it_until_every_peer_has_sent_a_frame() {
    let _guard = serial();
    let ep = Endpoint::ephemeral_uds();
    let hub = HubServer::bind(&ep, 2, options()).unwrap().spawn();
    let files = [region_file("peer0", 4096), region_file("peer1", 4096)];
    let names = format!("{} {}", files[0].0, files[1].0);
    let rank0 = std::thread::spawn({
        let ep = ep.clone();
        move || {
            let mut cfg = NetConfig::new(0, 2, ep);
            cfg.options = options();
            drop(SocketCluster::connect(&cfg).unwrap());
        }
    });
    let (s, welcome) = hand_rank(&uds_path(&ep), (1, 2), names.as_bytes());
    rank0.join().unwrap();
    // Rank 0's two names lead the list, after `world ‖ live`.
    let mut at = 8;
    for _ in 0..2 {
        let len = u32::from_le_bytes(welcome[at..at + 4].try_into().unwrap()) as usize;
        let name = std::str::from_utf8(&welcome[at + 4..at + 4 + len]).unwrap();
        assert!(Path::new("/dev/shm").join(name).exists(), "{name} is gone");
        at += 4 + len;
    }
    drop(s);
    hub.join().unwrap();
    assert_eq!(leftovers(), Vec::<String>::new());
}

/// A hub that relays an entry no region can back — one for a rank past the
/// world, or a parity naming a third region of its owner: the rank's
/// all-reduce is a typed error.
#[test]
fn a_response_entry_no_region_can_back_is_a_typed_error() {
    let _guard = serial();
    for (extra_rank, expect) in [
        (true, "rank 1 has no regions"),
        (false, "region parity 2, not 0 or 1"),
    ] {
        let ep = Endpoint::ephemeral_uds();
        let listener = UnixListener::bind(uds_path(&ep)).unwrap();
        let hub = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut s = FramedStream::uds(stream);
            let (kind, hello) = s.read_frame().unwrap();
            assert_eq!(kind, KIND_HELLO);
            let names = String::from_utf8(hello[8..].to_vec()).unwrap();
            for _ in 0..4 {
                let (_, ping) = s.read_frame().unwrap();
                let pong = [ping, &[0; 16]].concat();
                s.write_frame(KIND_CLOCK_PONG, &pong).unwrap();
            }
            let mut welcome = [1u32.to_le_bytes(), 1u32.to_le_bytes()].concat();
            for name in names.split(' ') {
                welcome.extend_from_slice(&(name.len() as u32).to_le_bytes());
                welcome.extend_from_slice(name.as_bytes());
            }
            s.write_frame(KIND_WELCOME, &welcome).unwrap();
            let (kind, request) = s.read_frame().unwrap();
            assert_eq!(kind, KIND_ALLREDUCE);
            let own = request[TraceCtx::WIRE_BYTES..].to_vec();
            // The rank has sent a frame: its names are the hub's to remove.
            for name in names.split(' ') {
                std::fs::remove_file(Path::new("/dev/shm").join(name)).unwrap();
            }
            // Round header (live 1, send time, one arrival), one
            // contributor, then the rank's own entry with the lie.
            let mut resp = [
                &1u32.to_le_bytes()[..],
                &[0; 8],
                &1u32.to_le_bytes(),
                &[0; 8],
                &1u32.to_le_bytes(),
                &[1],
            ]
            .concat();
            if extra_rank {
                resp.extend_from_slice(&own);
                resp.extend_from_slice(&[0; 10]);
            } else {
                resp.extend_from_slice(&own[..8]);
                resp.push(2);
            }
            s.write_frame(KIND_R_ALLREDUCE, &resp).unwrap();
            // The rank leaves (or closes) after its error.
            let _ = s.read_frame();
        });
        let mut cfg = NetConfig::new(0, 1, ep.clone());
        cfg.options = options();
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
