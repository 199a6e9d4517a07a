//! The four workloads and how each one builds its task, workers and
//! configuration from `--seed`.
//!
//! Model, optimizer policy and batch size come from
//! `grace_experiments::suite`; compressors are registry defaults. World size
//! is fixed (2 ranks, 1 for the control) so every byte and call count
//! repeats exactly on any host.

use grace_compressors::registry;
use grace_core::trainer::TrainConfig;
use grace_core::{
    AggregationPlan, Compressor, ExecBackend, Memory, NoCompression, NoMemory, DEFAULT_FUSION_BYTES,
};
use grace_experiments::suite::{self, Benchmark};
use grace_nn::data::Task;
use grace_nn::network::Network;
use grace_nn::optim::Optimizer;
use grace_nn::Targets;
use grace_tensor::Tensor;

/// One benchmark workload: a (model, compressor, backend, world size) cell
/// plus the fixed sizes of its job and trajectory run.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// `grace_experiments::suite` benchmark id.
    pub model: &'static str,
    /// Registry compressor id; `None` is the no-compression baseline.
    pub compressor: Option<&'static str>,
    pub backend: ExecBackend,
    pub ranks: usize,
    /// One timed job (one `run_cluster` call); the traced probe loop covers
    /// the same extent, so its rate reads directly against the program's.
    pub job: Extent,
    /// Epoch budget of the trajectory run (full training set).
    pub traj_epochs: usize,
    /// Absolute test accuracy `quality.steps_to_target` waits for.
    pub target: f64,
}

/// A fixed amount of training: `epochs` passes over the prefix of the
/// training set on which one epoch is `epoch_steps` global steps.
#[derive(Debug, Clone, Copy)]
pub struct Extent {
    pub epoch_steps: usize,
    pub epochs: usize,
}

impl Extent {
    pub fn steps(&self) -> usize {
        self.epoch_steps * self.epochs
    }
}

const fn extent(epoch_steps: usize, epochs: usize) -> Extent {
    Extent {
        epoch_steps,
        epochs,
    }
}

/// Quality evaluations per epoch in the trajectory run.
pub const TRAJ_EVALS_PER_EPOCH: usize = 8;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dense-uds",
        why: "vgg19, no compression, 2 ranks over UDS: 14 dense allreduces (6 MB/rank/step), comm::net bytes are ~90% of the step",
        model: "vgg19",
        compressor: None,
        backend: ExecBackend::SocketUds,
        ranks: 2,
        job: extent(8, 1),
        traj_epochs: 2,
        target: 0.45,
    },
    Workload {
        name: "sparse-tcp",
        why: "resnet50, topk, 2 ranks over TCP: 68 tiny allgathers per step, per-call cost of comm::net beside nn and codec",
        model: "resnet50",
        compressor: Some("topk"),
        backend: ExecBackend::SocketTcp,
        ranks: 2,
        job: extent(30, 5),
        traj_epochs: 4,
        target: 0.40,
    },
    Workload {
        name: "quant-threads",
        why: "vgg19, qsgd, 2 ranks on the in-memory board: encode, payload framing and decode-and-merge are ~70% of the step",
        model: "vgg19",
        compressor: Some("qsgd"),
        backend: ExecBackend::Threads,
        ranks: 2,
        job: extent(24, 1),
        traj_epochs: 2,
        target: 0.45,
    },
    Workload {
        name: "solo-dense",
        why: "vgg19, no compression, 1 rank: the single-worker control, nn is ~90% of the step and comm changes predict no move",
        model: "vgg19",
        compressor: None,
        backend: ExecBackend::Threads,
        ranks: 1,
        job: extent(64, 1),
        traj_epochs: 2,
        target: 0.45,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One rank's private training state, as `run_cluster` wants it.
pub type Worker = (
    Network,
    Box<dyn Optimizer>,
    Box<dyn Compressor>,
    Box<dyn Memory>,
);

impl Workload {
    pub fn bench(&self) -> Benchmark {
        suite::find(self.model).expect("workload names a suite model")
    }

    /// Builds rank `rank`'s replica: same model seed everywhere, per-rank
    /// compressor streams as `registry::build_fleet` derives them.
    pub fn make_worker(&self, bench: &Benchmark, seed: u64, rank: usize) -> Worker {
        let net = (bench.build_net)(seed);
        let opt = bench.opt.build(self.compressor.unwrap_or("baseline"));
        let (compressor, memory) = match self.compressor {
            None => (
                Box::new(NoCompression::new()) as Box<dyn Compressor>,
                Box::new(NoMemory::new()) as Box<dyn Memory>,
            ),
            Some(id) => {
                let spec = registry::find(id).expect("workload names a registered compressor");
                let (mut cs, mut ms) = registry::build_fleet(&spec, self.ranks, seed);
                (cs.swap_remove(rank), ms.swap_remove(rank))
            }
        };
        (net, opt, compressor, memory)
    }

    /// Training configuration with everything the environment could change
    /// pinned: telemetry off, reference aggregation plan, model-scaled
    /// fusion threshold.
    pub fn config(&self, bench: &Benchmark, seed: u64, epochs: usize) -> TrainConfig {
        let mut cfg = TrainConfig::new(self.ranks, bench.batch, epochs, seed);
        cfg.backend = self.backend;
        cfg.telemetry = Some(grace_telemetry::Level::Off);
        cfg.agg_plan = AggregationPlan::DecodeThenMerge;
        let params = (bench.build_net)(seed).param_count();
        cfg.fusion_bytes = (params * 4 / 8).clamp(1, DEFAULT_FUSION_BYTES);
        cfg
    }
}

/// The first `len` training examples of a task — lets a job be a whole
/// number of steps shorter than one epoch of the full set (`TrainConfig`
/// counts epochs only). Evaluation still uses the full held-out set.
pub struct Prefix<'a> {
    pub task: &'a dyn Task,
    pub len: usize,
}

impl<'a> Prefix<'a> {
    /// A prefix on which one epoch is exactly `steps` global steps.
    pub fn for_steps(task: &'a dyn Task, steps: usize, ranks: usize, batch: usize) -> Self {
        let len = steps * ranks * batch;
        assert!(
            len <= task.train_len(),
            "{steps} steps need {len} examples, the task has {}",
            task.train_len()
        );
        Prefix { task, len }
    }
}

impl Task for Prefix<'_> {
    fn train_len(&self) -> usize {
        self.len
    }
    fn train_batch(&self, indices: &[usize]) -> (Tensor, Targets) {
        self.task.train_batch(indices)
    }
    fn quality(&self, net: &mut Network) -> f64 {
        self.task.quality(net)
    }
    fn quality_name(&self) -> &'static str {
        self.task.quality_name()
    }
    fn higher_is_better(&self) -> bool {
        self.task.higher_is_better()
    }
}
