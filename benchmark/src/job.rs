//! The untraced half of a run: set-up timing, timed jobs with their output
//! check, and the trajectory run.
//!
//! A job is one `grace_core::run_cluster` call of a fixed extent, rendezvous
//! and final evaluation included — the smallest unit the program exposes
//! without being touched. The loop is closed: each rank starts its next
//! collective only after the previous one returned. Every timed job runs in
//! a fresh child process, so its peak resident set is its own and a crash
//! is one failed job.

use crate::workloads::{Extent, Prefix, Workload, TRAJ_EVALS_PER_EPOCH};
use grace_comm::{ClusterOptions, Endpoint, ThreadedCluster};
use grace_core::trainer::{run_simulated, CodecTiming};
use grace_core::{param_checksum, run_cluster, ExecBackend};
use grace_experiments::suite::Benchmark;
use grace_nn::data::Task;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one job produced, reduced to what the benchmark reads.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Wall time of the `run_cluster` call.
    pub wall_s: f64,
    pub checksum: u32,
    pub quality: f64,
    pub survivors: usize,
    /// `VmHWM` of the process when the job ended, MB.
    pub peak_rss_mb: f64,
}

impl JobOutput {
    /// The line a `grace-e2e job` child prints last.
    pub fn to_line(&self) -> String {
        format!(
            "job {} {} {} {} {}",
            self.wall_s, self.checksum, self.quality, self.survivors, self.peak_rss_mb
        )
    }

    pub fn from_line(line: &str) -> Option<JobOutput> {
        let mut f = line.strip_prefix("job ")?.split(' ');
        let out = JobOutput {
            wall_s: f.next()?.parse().ok()?,
            checksum: f.next()?.parse().ok()?,
            quality: f.next()?.parse().ok()?,
            survivors: f.next()?.parse().ok()?,
            peak_rss_mb: f.next()?.parse().ok()?,
        };
        f.next().is_none().then_some(out)
    }
}

/// One job: its output, or why there is none (the child crashed).
pub type Job = Result<JobOutput, String>;

/// Why a job counts as failed, or `None` when it passes: its process crashed, it lost
/// a rank, produced a non-finite quality, or its parameters differ from the
/// same configuration run on the `Threads` backend (the house
/// bit-equivalence invariant doubles as the output check).
pub fn failure(job: &Job, ranks: usize, reference_checksum: u32) -> Option<String> {
    let out = match job {
        Ok(out) => out,
        Err(crash) => return Some(format!("crashed: {crash}")),
    };
    if out.survivors != ranks {
        return Some(format!("{} of {ranks} ranks survived", out.survivors));
    }
    if !out.quality.is_finite() {
        return Some(format!("quality is {}", out.quality));
    }
    if out.checksum != reference_checksum {
        return Some(format!(
            "param checksum {:08x} differs from the Threads reference {reference_checksum:08x}",
            out.checksum
        ));
    }
    None
}

/// Everything a workload's jobs share for one seed.
pub struct Bench<'a> {
    pub w: &'a Workload,
    pub bench: Benchmark,
    pub task: Box<dyn Task>,
    pub seed: u64,
}

impl<'a> Bench<'a> {
    pub fn new(w: &'a Workload, seed: u64) -> Self {
        let bench = w.bench();
        let task = (bench.build_task)(seed);
        Bench {
            w,
            bench,
            task,
            seed,
        }
    }

    pub fn prefix(&self, extent: Extent) -> Prefix<'_> {
        Prefix::for_steps(
            self.task.as_ref(),
            extent.epoch_steps,
            self.w.ranks,
            self.bench.batch,
        )
    }

    /// Runs one job of `extent` on `backend` in this process and times the
    /// whole call.
    pub fn run_job(&self, extent: Extent, backend: ExecBackend) -> JobOutput {
        let mut cfg = self.w.config(&self.bench, self.seed, extent.epochs);
        cfg.backend = backend;
        let task = self.prefix(extent);
        let start = Instant::now();
        let r = run_cluster(&cfg, &task, |rank| {
            self.w.make_worker(&self.bench, self.seed, rank)
        });
        JobOutput {
            wall_s: start.elapsed().as_secs_f64(),
            checksum: param_checksum(&r.final_params),
            quality: r.final_quality,
            survivors: r.survivors,
            peak_rss_mb: peak_rss_mb(),
        }
    }

    /// Runs the workload's job in a fresh child process (`grace-e2e job`).
    pub fn run_job_in_child(&self) -> Job {
        let out = child_command()
            .args(["job", "--workload", self.w.name])
            .args(["--seed", &self.seed.to_string()])
            .stdout(Stdio::piped())
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout
            .lines()
            .last()
            .and_then(JobOutput::from_line)
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("{}, no job line", out.status))
    }

    /// One set-up: dataset, every rank's worker (model, optimizer,
    /// compressor, memory) and an empty cluster session on the workload's
    /// backend (bind, connect, clock sync, leave). Work a later change moves
    /// out of the step into construction or rendezvous lands here.
    pub fn time_setup(&self) -> f64 {
        let start = Instant::now();
        let task = (self.bench.build_task)(self.seed);
        for rank in 0..self.w.ranks {
            std::hint::black_box(self.w.make_worker(&self.bench, self.seed, rank));
        }
        std::hint::black_box(task.train_len());
        let n = self.w.ranks;
        let opts = ClusterOptions::default();
        match self.w.backend {
            ExecBackend::Threads => {
                ThreadedCluster::run_with(n, opts, |_| ());
            }
            ExecBackend::SocketTcp => {
                grace_comm::run_socket_local(n, opts, None, |_| ());
            }
            ExecBackend::SocketUds => {
                grace_comm::run_socket_local(n, opts, Some(Endpoint::ephemeral_uds()), |_| ());
            }
        }
        start.elapsed().as_secs_f64()
    }

    /// The quality trajectory of the workload's (model, compressor, ranks,
    /// seed) on the deterministic simulator, over the full training set.
    pub fn trajectory(&self) -> Trajectory {
        let w = self.w;
        let mut cfg = w.config(&self.bench, self.seed, w.traj_epochs);
        cfg.evals_per_epoch = TRAJ_EVALS_PER_EPOCH;
        cfg.codec = CodecTiming::Free;
        // The exchange engine's executor width moves wall-clock only; one
        // lane per rank keeps the trajectory's cost independent of the host.
        cfg.exchange_threads = Some(1);
        let (mut net, mut opt, _, _) = w.make_worker(&self.bench, self.seed, 0);
        let (mut compressors, mut memories): (Vec<_>, Vec<_>) = (0..w.ranks)
            .map(|rank| {
                let (_, _, c, m) = w.make_worker(&self.bench, self.seed, rank);
                (c, m)
            })
            .unzip();
        let run = run_simulated(
            &cfg,
            &mut net,
            self.task.as_ref(),
            opt.as_mut(),
            &mut compressors,
            &mut memories,
        );
        Trajectory {
            steps_to_target: run
                .history
                .iter()
                .find(|e| e.quality >= w.target)
                .map(|e| e.step),
            final_quality: run.final_quality,
            bytes_per_step: run.bytes_per_worker_per_iter,
            budget_steps: run.steps,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// First evaluated step whose quality meets the workload's target;
    /// `None` when the budget ends first (the workload then fails).
    pub steps_to_target: Option<u64>,
    /// Test accuracy at the end of the budget.
    pub final_quality: f64,
    /// Compressed bytes one rank generates per step (the paper's
    /// data-volume axis; defined at world size 1 too).
    pub bytes_per_step: f64,
    pub budget_steps: u64,
}

/// This executable again, with every `GRACE_*` variable removed: allocator,
/// telemetry and recorder state belong to one child, and no knob of the
/// caller's environment reaches the program.
pub fn child_command() -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("path of this executable"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GRACE_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passing() -> JobOutput {
        JobOutput {
            wall_s: 1.5,
            checksum: 0xdead_beef,
            quality: 0.5,
            survivors: 2,
            peak_rss_mb: 77.25,
        }
    }

    #[test]
    fn a_job_matching_the_reference_passes() {
        assert_eq!(failure(&Ok(passing()), 2, 0xdead_beef), None);
    }

    #[test]
    fn a_wrong_reference_checksum_marks_the_job_failed() {
        let why = failure(&Ok(passing()), 2, 0xdead_beee).expect("checksum mismatch must fail");
        assert!(
            why.contains("deadbeef") && why.contains("deadbeee"),
            "{why}"
        );
    }

    #[test]
    fn lost_ranks_bad_quality_and_crashes_fail() {
        let mut out = passing();
        out.survivors = 1;
        assert!(failure(&Ok(out), 2, 0xdead_beef).is_some());
        let mut out = passing();
        out.quality = f64::NAN;
        assert!(failure(&Ok(out), 2, 0xdead_beef).is_some());
        assert!(failure(&Err("signal 11".into()), 2, 0xdead_beef)
            .unwrap()
            .contains("signal 11"));
    }

    #[test]
    fn the_job_line_round_trips() {
        let out = passing();
        assert_eq!(JobOutput::from_line(&out.to_line()), Some(out));
        assert_eq!(JobOutput::from_line("job 1.5 7 0.5 2"), None);
        assert_eq!(JobOutput::from_line("job 1.5 7 0.5 2 77.25 extra"), None);
        assert_eq!(JobOutput::from_line("thread 'main' panicked"), None);
    }

    /// The real thing, small: a wrong reference fails a real job and the
    /// right one passes it, on the control workload's first steps.
    #[test]
    fn real_job_is_checked_against_its_reference() {
        let w = crate::workloads::find("solo-dense").unwrap();
        let bench = Bench::new(w, 7);
        let extent = Extent {
            epoch_steps: 2,
            epochs: 1,
        };
        let checksum = bench.run_job(extent, ExecBackend::Threads).checksum;
        let job = Ok(bench.run_job(extent, w.backend));
        assert_eq!(failure(&job, w.ranks, checksum), None);
        assert!(failure(&job, w.ranks, checksum ^ 1).is_some());
    }
}
