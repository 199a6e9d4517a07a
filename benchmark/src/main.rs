//! `grace-e2e` — the end-to-end benchmark of grace-rs.
//!
//! ```text
//! grace-e2e --workload NAME --seed N --seconds S --trace 0|1   one workload, one result line
//! grace-e2e suite [--seed N] [--seconds S] [--out FILE]        every workload, both modes, one report
//! grace-e2e compare A.json B.json [--same-code]                B against A, per metric and bound
//! grace-e2e job --workload NAME --seed N                       one job, one line (what the above spawn)
//! ```
//!
//! `benchmark/run.sh` builds this crate and runs it from `benchmark/out/`
//! with every `GRACE_*` variable removed; see `benchmark/README.md`.

mod job;
mod metrics;
mod probe;
mod report;
mod spans;
mod workloads;

use grace_core::ExecBackend;
use job::{failure, Bench};
use metrics::{EndToEnd, Traced, Values};
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::Workload;

/// `run_seconds` of `BENCHMARK.json`: how long the timed jobs of one run
/// last unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 18;
/// Timed jobs per run at least, however short `--seconds` is.
const MIN_JOBS: usize = 5;
/// Rounds of a traced run at least.
const MIN_ROUNDS: usize = 3;
/// Replays of the last step's collectives at most.
const MAX_REPLAY_ROUNDS: usize = 32;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Seed of the trajectory run. Quality is a property of the arithmetic, not
/// of the draw: across seeds steps-to-target spreads by a quarter and more
/// (README, "Quality and seeds"), so the trajectory is pinned and its
/// counts repeat exactly until a change alters the arithmetic.
const QUALITY_SEED: u64 = 1;

/// One workload's result in one mode, as the last stdout line reports it.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub values: Values,
    /// Sample count and quartile spread behind the timed metrics.
    pub samples: BTreeMap<&'static str, (usize, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.values.values().all(|v| v.is_finite())
    }
}

/// Holds one job against the reference; a failed one is reported and lost.
fn checked(w: &Workload, nth: usize, job: job::Job, reference: u32) -> Option<job::JobOutput> {
    match failure(&job, w.ranks, reference) {
        None => job.ok(),
        Some(why) => {
            eprintln!("[{}] job {nth} failed: {why}", w.name);
            None
        }
    }
}

/// What the timed jobs of one run gave.
struct Timed {
    /// Steps per second of each job that passed its check.
    rates: Vec<f64>,
    /// Peak resident set of each such job's process, MB.
    peaks_mb: Vec<f64>,
    attempted: usize,
    failed: usize,
}

/// Runs jobs, each in a fresh child process, until `seconds` have passed
/// and at least `min_jobs` ran. There is no warm-up job: no job shares a
/// process with another, and the reference run has already paged the
/// executable in.
fn timed_jobs(b: &Bench, reference: u32, seconds: f64, min_jobs: usize) -> Timed {
    let w = b.w;
    let mut t = Timed {
        rates: Vec::new(),
        peaks_mb: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    while t.attempted < min_jobs || start.elapsed().as_secs_f64() < seconds {
        t.attempted += 1;
        match checked(w, t.attempted, b.run_job_in_child(), reference) {
            Some(out) => {
                t.rates.push(w.job.steps() as f64 / out.wall_s);
                t.peaks_mb.push(out.peak_rss_mb);
            }
            None => t.failed += 1,
        }
    }
    let shown = |v: &[f64]| {
        let v: Vec<String> = v.iter().map(|x| format!("{x:.2}")).collect();
        v.join(" ")
    };
    eprintln!("[{}] job steps/s: {}", w.name, shown(&t.rates));
    eprintln!("[{}] job peak MB: {}", w.name, shown(&t.peaks_mb));
    t
}

fn run_workload(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let b = Bench::new(w, seed);
    // First, before anything is warm; traced runs report no set-up time.
    let setup_s: Vec<f64> = (0..if trace { 0 } else { SETUPS })
        .map(|_| b.time_setup())
        .collect();
    // The checksum every job of this workload and seed must reproduce: the
    // same configuration run once on the `Threads` backend.
    let reference = b.run_job(w.job, ExecBackend::Threads).checksum;
    let trajectory = Bench::new(w, QUALITY_SEED).trajectory();
    // The trajectory is one more attempted operation: a target the budget
    // never reaches fails the workload.
    let missed = usize::from(trajectory.steps_to_target.is_none());
    if missed == 1 {
        eprintln!(
            "[{}] accuracy {} not reached in {} steps",
            w.name, w.target, trajectory.budget_steps
        );
    }

    if !trace {
        let t = timed_jobs(&b, reference, seconds, MIN_JOBS);
        let e2e = EndToEnd {
            setup_s,
            job_rates: t.rates,
            job_peaks_mb: t.peaks_mb,
            steps_to_target: trajectory.steps_to_target,
            wire_bytes_per_step: trajectory.bytes_per_step,
            final_quality: trajectory.final_quality,
        };
        return Outcome {
            attempted: t.attempted + 1,
            failed: t.failed + missed,
            values: e2e.values(),
            samples: e2e.samples(),
        };
    }

    // Traced mode, all in this process so the three rates compare like with
    // like: rounds of (program job, probe loop without spans, probe loop
    // with spans) — interleaved so host drift hits all three alike — until
    // `seconds` have passed and at least MIN_ROUNDS ran. One more traced run
    // then replays its last step's collectives; its spans are the ones kept.
    let steps = w.job.steps();
    let rate = |ranks: &[probe::RankProbe]| {
        steps as f64 / ranks.iter().map(|r| r.done_s).fold(0.0, f64::max)
    };
    let (mut program, mut off, mut on) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while attempted < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        attempted += 1;
        match checked(w, attempted, Ok(b.run_job(w.job, w.backend)), reference) {
            Some(out) => program.push(steps as f64 / out.wall_s),
            None => failed += 1,
        }
        off.push(rate(&probe::run(&b, false, 0)));
        on.push(rate(&probe::run(&b, true, 0)));
    }
    let traced = probe::run(&b, true, steps.min(MAX_REPLAY_ROUNDS));
    on.push(rate(&traced));
    let all_spans: Vec<&[spans::Span]> = traced.iter().map(|r| &r.spans[..]).collect();
    let trace_path = format!("{}.trace.json", w.name);
    let written = std::fs::File::create(&trace_path)
        .and_then(|f| spans::write_chrome_trace(std::io::BufWriter::new(f), &all_spans));
    if let Err(e) = written {
        eprintln!("[{}] cannot write {trace_path}: {e}", w.name);
    }
    let crc_match = traced.iter().all(|r| r.checksum == reference) && traced[0].quality.is_finite();
    let values = Traced {
        probe: &traced[0],
        rate_on: spans::median(&on),
        rate_off: spans::median(&off),
        rate_program: spans::median(&program),
        crc_match,
        steps_to_target: trajectory.steps_to_target,
    }
    .values();
    // Beyond the jobs: the trajectory and the probe's bit-equivalence.
    Outcome {
        attempted: attempted + 2,
        failed: failed + missed + usize::from(!crc_match),
        values,
        samples: BTreeMap::new(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: grace-e2e --workload NAME --seed N --seconds S --trace 0|1\n       grace-e2e suite [--seed N] [--seconds S] [--out FILE]\n       grace-e2e compare A.json B.json [--same-code]\nworkloads: {}",
        workloads::WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

/// `--key value` pairs after the optional subcommand.
fn flags(args: &[String]) -> BTreeMap<&str, &str> {
    if !args.len().is_multiple_of(2) {
        usage();
    }
    args.chunks(2)
        .map(|kv| match kv[0].strip_prefix("--") {
            Some(key) => (key, kv[1].as_str()),
            None => usage(),
        })
        .collect()
}

fn workload_flag(flags: &BTreeMap<&str, &str>) -> &'static Workload {
    flags
        .get("workload")
        .and_then(|name| workloads::find(name))
        .unwrap_or_else(|| usage())
}

fn parsed<T: std::str::FromStr>(flags: &BTreeMap<&str, &str>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--{key}: cannot read {v:?}");
            usage()
        }),
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("grace-e2e measures optimized builds only; build with --release");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("suite") => {
            let f = flags(&args[1..]);
            report::suite(
                parsed(&f, "seed", 42),
                parsed(&f, "seconds", RUN_SECONDS as f64),
                f.get("out").copied(),
            )
        }
        Some("job") => {
            let f = flags(&args[1..]);
            let w = workload_flag(&f);
            let out = Bench::new(w, parsed(&f, "seed", 42)).run_job(w.job, w.backend);
            println!("{}", out.to_line());
            0
        }
        Some("compare") => match &args[1..] {
            [a, b] => report::compare_files(a, b, false),
            [a, b, flag] if flag == "--same-code" => report::compare_files(a, b, true),
            _ => usage(),
        },
        Some(first) if first.starts_with("--") => {
            let f = flags(&args);
            let w = workload_flag(&f);
            let outcome = run_workload(
                w,
                parsed(&f, "seed", 42),
                parsed(&f, "seconds", RUN_SECONDS as f64),
                parsed::<u8>(&f, "trace", 0) != 0,
            );
            report::print_outcome(w, &outcome);
            i32::from(!outcome.correct())
        }
        _ => usage(),
    };
    std::process::exit(code);
}
