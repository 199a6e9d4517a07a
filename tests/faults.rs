//! Seeded chaos matrix for the fault-injection layer.
//!
//! Acceptance properties of the fault subsystem, exercised end-to-end
//! through `run_threaded`:
//!
//! * a corrupted payload is **detected** via the CRC32 trailer and dropped
//!   from the aggregate with explicit accounting — never silently folded in;
//! * a dropped worker surfaces as degraded membership (survivors rescale),
//!   not a deadlock — every test runs under a hard deadline;
//! * the same `FaultPlan` seed yields the identical injected-fault counters
//!   across runs;
//! * faults that only delay (stragglers) leave the trained model
//!   bit-identical to a fault-free run.

use grace::comm::{FaultConfig, FaultPlan, FaultRates};
use grace::compressors::TopK;
use grace::core::threaded::{run_threaded, ThreadedResult};
use grace::core::trainer::CodecTiming;
use grace::core::{Compressor, Memory, ResidualMemory, TrainConfig};
use grace::nn::data::ClassificationDataset;
use grace::nn::models;
use grace::nn::network::Network;
use grace::nn::optim::{Momentum, Optimizer};
use std::time::Duration;

const N: usize = 3;

fn config(fault: Option<FaultConfig>) -> TrainConfig {
    let mut cfg = TrainConfig::new(N, 8, 2, 31);
    cfg.codec = CodecTiming::Free;
    cfg.fault = fault;
    cfg
}

type Worker = (
    Network,
    Box<dyn Optimizer>,
    Box<dyn Compressor>,
    Box<dyn Memory>,
);

fn worker(_rank: usize) -> Worker {
    (
        models::mlp_classifier("m", 8, &[12], 2, 31),
        Box::new(Momentum::new(0.05, 0.9)) as Box<dyn Optimizer>,
        Box::new(TopK::new(0.05)) as Box<dyn Compressor>,
        Box::new(ResidualMemory::new()) as Box<dyn Memory>,
    )
}

/// Runs a faulty training job under a hard test-level deadline, so a
/// deadlock in the degraded path fails the test instead of hanging it.
fn run_with_deadline(fault: FaultConfig, limit: Duration) -> ThreadedResult {
    run_config_with_deadline(config(Some(fault)), limit)
}

fn run_config_with_deadline(cfg: TrainConfig, limit: Duration) -> ThreadedResult {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 31);
        let result = run_threaded(&cfg, &task, worker);
        let _ = tx.send(result);
    });
    match rx.recv_timeout(limit) {
        Ok(result) => {
            handle.join().expect("worker panicked after reporting");
            result
        }
        Err(_) => panic!("faulty run exceeded its {limit:?} deadline: deadlock"),
    }
}

fn assert_params_finite(result: &ThreadedResult) {
    for (name, t) in &result.final_params {
        assert!(t.is_finite(), "non-finite parameters in {name}");
    }
}

#[test]
fn dropped_worker_degrades_without_deadlock() {
    let fault = FaultConfig {
        plan: FaultPlan::empty().with_drop(1, 6),
        timeout: Some(Duration::from_secs(10)),
    };
    let result = run_with_deadline(fault, Duration::from_secs(60));
    assert_eq!(result.survivors, N - 1, "exactly one worker drops");
    assert_eq!(result.faults.injected_drops, vec![0, 1, 0]);
    assert_eq!(result.faults.injected_corruptions, vec![0; N]);
    assert_params_finite(&result);
    assert!(result.final_quality.is_finite());
}

#[test]
fn corrupted_payload_is_detected_by_every_receiver_and_excluded() {
    let fault = FaultConfig {
        plan: FaultPlan::empty().with_bit_flip(0, 5, 12_345),
        timeout: Some(Duration::from_secs(10)),
    };
    let result = run_with_deadline(fault, Duration::from_secs(60));
    assert_eq!(result.survivors, N, "corruption must not kill anyone");
    assert_eq!(result.faults.injected_corruptions, vec![1, 0, 0]);
    // The sender corrupts its stream before deposit, so all N receivers
    // (the sender included) reject the identical bytes via the checksum.
    assert_eq!(result.faults.detected_corruptions, vec![1; N]);
    assert_params_finite(&result);
}

#[test]
fn straggler_only_plan_is_bit_transparent() {
    // An op is one bucket's collective: the 4-tensor model fuses into one
    // bucket, so 2 epochs × 4 steps run ops 0..=7.
    let plan = FaultPlan::empty()
        .with_straggler(0, 2, Duration::from_millis(2))
        .with_straggler(2, 7, Duration::from_millis(1))
        .with_straggler(1, 5, Duration::from_millis(1));
    let fault = FaultConfig {
        plan,
        timeout: Some(Duration::from_secs(10)),
    };
    let delayed = run_with_deadline(fault, Duration::from_secs(60));
    assert_eq!(delayed.survivors, N);
    assert_eq!(delayed.faults.injected_stragglers, vec![1, 1, 1]);
    assert_eq!(delayed.faults.detected_corruptions, vec![0; N]);

    // Delays reorder nothing: the trained model matches a fault-free run
    // bit for bit.
    let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 31);
    let clean = run_threaded(&config(None), &task, worker);
    assert_eq!(clean.final_quality, delayed.final_quality);
    for ((na, ta), (nb, tb)) in clean.final_params.iter().zip(delayed.final_params.iter()) {
        assert_eq!(na, nb);
        assert_eq!(ta.as_slice(), tb.as_slice(), "straggler altered {na}");
    }
}

/// Chaos case for the pipelined exchange: with a tiny fusion threshold the
/// gradient stream splits into one bucket per tensor, and the victim dies
/// on a collective in the *middle* of a step — after some of its buckets
/// were already encoded and deposited. The survivors must drain every
/// in-flight bucket, rescale the aggregate over the reduced membership, and
/// finish the job without deadlocking.
#[test]
fn worker_killed_mid_step_drains_in_flight_buckets_and_rescales() {
    // mlp_classifier("m", 8, &[12], 2) has 4 gradient tensors, so each step
    // issues 4 per-bucket collectives; op index 6 is the third tensor of
    // step 1 — strictly inside a step, never on a step boundary.
    let fault = FaultConfig {
        plan: FaultPlan::empty().with_drop(2, 6),
        timeout: Some(Duration::from_secs(10)),
    };
    let mut cfg = config(Some(fault));
    cfg.fusion_bytes = 1; // isolate every tensor into its own bucket
    let result = run_config_with_deadline(cfg, Duration::from_secs(60));
    assert_eq!(result.survivors, N - 1, "exactly one worker dies");
    assert_eq!(result.faults.injected_drops, vec![0, 0, 1]);
    assert_params_finite(&result);
    assert!(result.final_quality.is_finite());
}

// --- Socket chaos matrix -------------------------------------------------
//
// The same fault plans, injected on the real TCP transport. Degradation
// must match the threaded cluster's survivor-rescaling semantics bit for
// bit, and every failure path must surface a typed `ClusterError` instead
// of a hang.

/// Like [`run_with_deadline`], but over localhost TCP sockets.
fn run_socket_with_deadline(mut cfg: TrainConfig, limit: Duration) -> ThreadedResult {
    cfg.backend = grace::core::ExecBackend::SocketTcp;
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 31);
        let _ = tx.send(grace::core::process::run_cluster(&cfg, &task, worker));
    });
    match rx.recv_timeout(limit) {
        Ok(result) => {
            handle.join().expect("worker panicked after reporting");
            result
        }
        Err(_) => panic!("faulty socket run exceeded its {limit:?} deadline: deadlock"),
    }
}

/// A worker killed in the middle of an allgather-laden step (one bucket per
/// tensor) must leave the socket survivors rescaling exactly like the
/// threaded survivors: same membership, same counters, same trained bits.
#[test]
fn socket_worker_killed_mid_allgather_rescales_like_threaded() {
    let fault = || FaultConfig {
        plan: FaultPlan::empty().with_drop(2, 6),
        timeout: Some(Duration::from_secs(10)),
    };
    let mut cfg = config(Some(fault()));
    cfg.fusion_bytes = 1; // op 6 lands strictly mid-step (4 tensors/step)
    let socket = run_socket_with_deadline(cfg.clone(), Duration::from_secs(60));
    assert_eq!(socket.survivors, N - 1, "exactly one worker dies");
    assert_eq!(socket.faults.injected_drops, vec![0, 0, 1]);
    assert_params_finite(&socket);

    let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 31);
    let threaded = run_threaded(&cfg, &task, worker);
    assert_eq!(threaded.survivors, socket.survivors);
    assert_eq!(threaded.final_quality, socket.final_quality);
    for ((na, ta), (nb, tb)) in threaded.final_params.iter().zip(socket.final_params.iter()) {
        assert_eq!(na, nb);
        assert_eq!(
            ta.as_slice(),
            tb.as_slice(),
            "degraded socket run diverged from degraded threaded run at {na}"
        );
    }
}

/// A payload bit flip on the socket path is caught by the CRC32 payload
/// trailer on **every** receiver — identical detection counters and
/// identical trained bits to the threaded path under the same plan.
#[test]
fn socket_payload_corruption_detected_by_every_rank_like_threaded() {
    let fault = || FaultConfig {
        plan: FaultPlan::empty().with_bit_flip(0, 5, 12_345),
        timeout: Some(Duration::from_secs(10)),
    };
    let socket = run_socket_with_deadline(config(Some(fault())), Duration::from_secs(60));
    assert_eq!(socket.survivors, N, "corruption must not kill anyone");
    assert_eq!(socket.faults.injected_corruptions, vec![1, 0, 0]);
    assert_eq!(socket.faults.detected_corruptions, vec![1; N]);

    let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 31);
    let threaded = run_threaded(&config(Some(fault())), &task, worker);
    assert_eq!(threaded.faults, socket.faults);
    assert_eq!(threaded.final_quality, socket.final_quality);
    for ((na, ta), (nb, tb)) in threaded.final_params.iter().zip(socket.final_params.iter()) {
        assert_eq!(na, nb);
        assert_eq!(
            ta.as_slice(),
            tb.as_slice(),
            "corrupted-run bits diverged at {na}"
        );
    }
}

/// A corrupted *frame* (wire-level, below the payload codec) must be
/// NACKed, retransmitted and never seen by the application: the gathered
/// bytes come through clean and only the stream counters betray the retry.
#[test]
fn socket_frame_corruption_is_rejected_then_resynced() {
    use grace::comm::net::run_socket_local;
    use grace::comm::{ClusterOptions, Collective};

    let out = run_socket_local(2, ClusterOptions::default(), None, |c| {
        if c.rank() == 0 {
            c.inject_frame_corruption();
        }
        let gathered = c.try_allgather_bytes(vec![0xAB; 512]).unwrap();
        (gathered, c.net_stats())
    });
    for (gathered, _) in &out {
        for slot in gathered {
            assert_eq!(
                slot.as_deref(),
                Some(&[0xAB; 512][..]),
                "payload must survive"
            );
        }
    }
    let stats = out[0].1;
    assert!(
        stats.resends >= 1,
        "rank 0 must retransmit after the NACK: {stats:?}"
    );
}

/// Same chaos, observed through the wire-health metrics: corrupting a
/// frame must increment `net.nack_total` and `net.retransmit_bytes_total`
/// while the application payload still round-trips byte-clean — the
/// counters are how a fleet dashboard sees retries the checksums hide.
#[test]
fn frame_corruption_increments_wire_counters_payload_stays_clean() {
    use grace::comm::net::run_socket_local;
    use grace::comm::{ClusterOptions, Collective};
    use grace::telemetry::{metrics, set_level, Level};

    let nacks = metrics::counter("net.nack_total");
    let resend_bytes = metrics::counter("net.retransmit_bytes_total");
    let (nacks_before, resend_before) = (nacks.get(), resend_bytes.get());
    set_level(Level::Metrics);
    let out = run_socket_local(2, ClusterOptions::default(), None, |c| {
        if c.rank() == 0 {
            c.inject_frame_corruption();
        }
        c.try_allgather_bytes(vec![0x5C; 256]).unwrap()
    });
    set_level(Level::Off);
    for gathered in &out {
        for slot in gathered {
            assert_eq!(
                slot.as_deref(),
                Some(&[0x5C; 256][..]),
                "payload must come through clean despite the frame chaos"
            );
        }
    }
    assert!(
        nacks.get() > nacks_before,
        "a corrupted frame must raise net.nack_total"
    );
    assert!(
        resend_bytes.get() > resend_before,
        "the verbatim retransmit must raise net.retransmit_bytes_total"
    );
}

/// Connecting to a dead endpoint returns a typed transport error within the
/// connect deadline — never a hang.
#[test]
fn socket_connect_refused_is_a_typed_error_not_a_hang() {
    use grace::comm::net::{Endpoint, NetConfig, SocketCluster};
    use grace::comm::ClusterError;

    // Bind-then-drop reserves a port with no listener behind it.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let mut net_cfg = NetConfig::new(0, 3, Endpoint::Tcp(format!("127.0.0.1:{port}")));
    net_cfg.connect_timeout = Duration::from_millis(250);
    let started = std::time::Instant::now();
    match SocketCluster::connect(&net_cfg) {
        Err(ClusterError::Transport {
            rank: 0,
            op: 0,
            detail,
        }) => {
            assert!(detail.contains("connect"), "unexpected detail: {detail}");
        }
        other => panic!("expected ClusterError::Transport, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "connect failure took too long: no deadline applied"
    );
}

/// A rendezvous that never completes (world = 2, one rank shows up) aborts
/// at the accept deadline: the hub returns a typed error and tells the
/// rank that *did* connect, which errors out instead of waiting forever.
#[test]
fn socket_rendezvous_timeout_is_a_typed_error_on_both_sides() {
    use grace::comm::net::{Endpoint, HubServer, NetConfig, SocketCluster};
    use grace::comm::{ClusterError, ClusterOptions};

    let hub = HubServer::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        2,
        ClusterOptions::default(),
    )
    .unwrap()
    .with_accept_timeout(Duration::from_millis(300));
    let endpoint = hub.endpoint().clone();
    let hub = hub.spawn();
    let mut net_cfg = NetConfig::new(0, 2, endpoint);
    net_cfg.connect_timeout = Duration::from_secs(10);
    let client = std::thread::spawn(move || SocketCluster::connect(&net_cfg));
    match hub.join() {
        Err(ClusterError::Transport { detail, .. }) => {
            assert!(detail.contains("rendezvous"), "hub detail: {detail}");
        }
        other => panic!("hub must report the aborted rendezvous, got {other:?}"),
    }
    match client.join().unwrap() {
        Err(ClusterError::Transport {
            rank: 0, detail, ..
        }) => {
            assert!(detail.contains("rendezvous"), "client detail: {detail}");
        }
        Err(ClusterError::Timeout { rank: 0, .. }) => {} // hub died before writing
        other => panic!("client must see a typed error, got {other:?}"),
    }
}

#[test]
fn same_fault_seed_yields_identical_counters_across_runs() {
    let rates = FaultRates {
        straggler: 0.06,
        drop: 0.02,
        corrupt: 0.12,
        max_delay: Duration::from_micros(500),
    };
    // An op is one bucket's collective. One bucket per tensor: 2 epochs ×
    // 4 steps × 4 tensors = 32 ops per worker; at the default threshold the
    // model is one bucket and the run reaches the plan's first 8.
    let plan = FaultPlan::seeded(0xC0FFEE, N, 32, &rates);
    assert!(!plan.is_empty(), "rates this high must schedule faults");
    assert_eq!(
        plan,
        FaultPlan::seeded(0xC0FFEE, N, 32, &rates),
        "plan must be a pure function of its seed"
    );

    for fusion_bytes in [1, grace::core::DEFAULT_FUSION_BYTES] {
        let run = |plan: FaultPlan| {
            let mut cfg = config(Some(FaultConfig {
                plan,
                timeout: Some(Duration::from_secs(10)),
            }));
            cfg.fusion_bytes = fusion_bytes;
            run_config_with_deadline(cfg, Duration::from_secs(60))
        };
        let first = run(plan.clone());
        let second = run(plan.clone());
        assert_eq!(
            first.faults, second.faults,
            "same seed, same injected and detected counters"
        );
        assert_eq!(first.survivors, second.survivors);
        assert!(first.faults.total_injected() > 0, "the matrix must inject");
        assert_params_finite(&first);
        assert_params_finite(&second);
    }
}
