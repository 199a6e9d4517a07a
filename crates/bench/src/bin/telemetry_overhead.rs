//! Measures what the one event store costs the socket transport at each
//! retention level, and records the result to
//! `results/bench_telemetry_overhead.json`.
//!
//! Four in-process ranks run a fixed allgather workload over the real
//! localhost-TCP hub under three arms: recorder off (nothing is stored),
//! the always-on flight-recorder ring (the production default, level
//! `Off`), and full `Trace` (per-frame send/recv instants, round-trip
//! spans, trace-context stamping, all kept). The gated observables are
//!
//! ```text
//! recorder_throughput_ratio = wall_off / wall_ring
//! tracing_throughput_ratio  = wall_off / wall_trace
//! ```
//!
//! — the fraction of store-nothing throughput each arm retains; near 1.0
//! means the arm is effectively free on the wire path. A process's first
//! runs are slower than its later ones (page faults, connection set-up),
//! so the arms run in the palindromic order off-ring-trace-trace-ring-off:
//! every arm sits at the same mean position and drift cancels instead of
//! reading as overhead. Each ratio is the median over `REPS` such passes,
//! after one unmeasured pass. CI gates both so an allocation, lock or
//! syscall sneaking into the per-event path fails the build.
//!
//! Run: `cargo run --release -p grace-bench --bin telemetry_overhead`

use grace_comm::net::run_socket_local;
use grace_comm::{ClusterOptions, Collective};
use grace_telemetry::{recorder, set_level, trace, Level};
use std::time::Instant;

const WORKERS: usize = 4;
const WARMUP: usize = 4;
const REPS: usize = 15;

/// `(level, recorder on)` per arm: store nothing, ring, everything.
const ARMS: [(Level, bool); 3] = [
    (Level::Off, false),
    (Level::Off, true),
    (Level::Trace, true),
];

/// Slowest-rank wall-clock of `rounds` allgather rounds under `arm`, in
/// milliseconds.
fn measure(arm: usize, payload_bytes: usize, rounds: usize) -> f64 {
    set_level(ARMS[arm].0);
    recorder::set_enabled(ARMS[arm].1);
    let results = run_socket_local(WORKERS, ClusterOptions::default(), None, |c| {
        let payload = vec![0xA5_u8; payload_bytes];
        for _ in 0..WARMUP {
            std::hint::black_box(c.allgather_bytes(payload.clone()));
        }
        let start = Instant::now();
        for _ in 0..rounds {
            let gathered = c.allgather_bytes(payload.clone());
            assert_eq!(gathered.len(), WORKERS);
            std::hint::black_box(gathered);
        }
        let wall = start.elapsed().as_secs_f64();
        c.leave();
        wall
    });
    // An arm that should store events did, and the next one starts empty.
    assert_eq!(trace::take_events().is_empty(), arm == 0, "arm {arm}");
    results.iter().fold(0.0, |a, w| f64::max(a, w * 1e3))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cells = [("4KiB", 4 << 10, 96), ("256KiB", 256 << 10, 24)];
    let mut rows = Vec::new();
    for (label, bytes, rounds) in cells {
        // One unmeasured pass, then `REPS` measured ones.
        let passes: Vec<[f64; 3]> = (0..=REPS)
            .map(|_| {
                let mut pass = [0.0; 3];
                for arm in [0, 1, 2, 2, 1, 0] {
                    pass[arm] += measure(arm, bytes, rounds);
                }
                pass
            })
            .skip(1)
            .collect();
        let med = |f: &dyn Fn(&[f64; 3]) -> f64| median(passes.iter().map(f).collect());
        let (ring, traced) = (med(&|p| p[0] / p[1]), med(&|p| p[0] / p[2]));
        let per_round = [0, 1, 2].map(|arm| med(&|p| p[arm]) / (2 * rounds) as f64);
        println!(
            "{label:>7}  off {:7.3} ms  ring {:7.3} ms  traced {:7.3} ms  \
             throughput ratio: ring {ring:.3}  traced {traced:.3}",
            per_round[0], per_round[1], per_round[2]
        );
        rows.push(format!(
            "    {{\"codec\": \"{label}\", \"recorder_throughput_ratio\": {ring:.4}, \
             \"tracing_throughput_ratio\": {traced:.4}, \"wall_off_ms\": {:.3}, \
             \"wall_ring_ms\": {:.3}, \"wall_trace_ms\": {:.3}}}",
            per_round[0], per_round[1], per_round[2]
        ));
    }
    set_level(Level::Off);
    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \"workers\": {WORKERS},\n  \
         \"host_cpus\": {host_cpus},\n  \"reps\": {REPS},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("bench_telemetry_overhead.json");
    std::fs::write(&path, json).expect("write bench json");
    println!("[written] {} (host_cpus = {host_cpus})", path.display());
}
