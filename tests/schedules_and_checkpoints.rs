//! Integration: learning-rate schedules inside the distributed loop, model
//! checkpointing across runs, and replicated schedules with registry
//! compressors.

use grace::compressors::registry;
use grace::core::replicated::{run_gossip, run_local_sgd, ReplicatedConfig, ReplicatedResult};
use grace::core::trainer::{run_simulated, CodecTiming};
use grace::core::{Compressor, Memory, NoCompression, NoMemory, TrainConfig};
use grace::nn::data::ClassificationDataset;
use grace::nn::models;
use grace::nn::optim::{Momentum, Optimizer, Sgd};
use grace::nn::schedule::Schedule;

type Fleet = (Vec<Box<dyn Compressor>>, Vec<Box<dyn Memory>>);

fn baseline_fleet(n: usize) -> Fleet {
    (
        (0..n)
            .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
            .collect(),
        (0..n)
            .map(|_| Box::new(NoMemory::new()) as Box<dyn Memory>)
            .collect(),
    )
}

#[test]
fn lr_schedule_changes_the_trajectory_and_is_deterministic() {
    let task = ClassificationDataset::synthetic(192, 8, 2, 0.3, 71);
    let run = |schedule: Option<Schedule>| {
        let mut net = models::mlp_classifier("m", 8, &[16], 2, 71);
        let mut cfg = TrainConfig::new(3, 8, 6, 71);
        cfg.codec = CodecTiming::Free;
        cfg.lr_schedule = schedule;
        let mut opt = Momentum::new(0.1, 0.9);
        let (mut cs, mut ms) = baseline_fleet(3);
        let res = run_simulated(&cfg, &mut net, &task, &mut opt, &mut cs, &mut ms);
        (res.final_quality, net.export_params())
    };
    let (_, constant) = run(None);
    let decay = Schedule::StepDecay {
        milestones: vec![3],
        gamma: 0.1,
    };
    let (_, decayed) = run(Some(decay.clone()));
    let differs = constant
        .iter()
        .zip(decayed.iter())
        .any(|((_, a), (_, b))| a.as_slice() != b.as_slice());
    assert!(differs, "schedule must change the trajectory");
    let (_, decayed2) = run(Some(decay));
    for ((_, a), (_, b)) in decayed.iter().zip(decayed2.iter()) {
        assert_eq!(a.as_slice(), b.as_slice(), "schedule runs must reproduce");
    }
}

#[test]
fn checkpoint_resumes_training_bit_exactly() {
    let task = ClassificationDataset::synthetic(128, 8, 2, 0.3, 72);
    // Train 2 epochs, checkpoint, train 2 more.
    let run_epochs = |net: &mut grace::nn::network::Network, epochs: usize| {
        let mut cfg = TrainConfig::new(2, 8, epochs, 72);
        cfg.codec = CodecTiming::Free;
        let mut opt = Sgd::new(0.05); // stateless: restores exactly
        let (mut cs, mut ms) = baseline_fleet(2);
        run_simulated(&cfg, net, &task, &mut opt, &mut cs, &mut ms);
    };
    let dir = std::env::temp_dir().join("grace_resume_test");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("mid.ckpt");

    let mut full = models::mlp_classifier("m", 8, &[16], 2, 72);
    run_epochs(&mut full, 2);
    grace::nn::checkpoint::save(&mut full, &path).expect("save");

    let mut resumed = models::mlp_classifier("m", 8, &[16], 2, 999);
    grace::nn::checkpoint::load(&mut resumed, &path).expect("load");
    // The restored replica continues exactly where the original stopped:
    // same params => same subsequent quality under the same schedule. (Epoch
    // indices restart, so compare against a fresh run of the same 2 epochs
    // from the checkpoint.)
    let mut reference = models::mlp_classifier("m", 8, &[16], 2, 72);
    run_epochs(&mut reference, 2);
    run_epochs(&mut reference, 2);
    run_epochs(&mut resumed, 2);
    for ((na, a), (_, b)) in reference
        .export_params()
        .iter()
        .zip(resumed.export_params())
    {
        assert_eq!(a.as_slice(), b.as_slice(), "resume diverged at {na}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn local_sgd_accepts_registry_compressors() {
    let task = ClassificationDataset::synthetic(192, 8, 2, 0.3, 73);
    let spec = registry::find("qsgd").expect("registered");
    let (mut cs, mut ms) = registry::build_fleet(&spec, 3, 73);
    let mut cfg = ReplicatedConfig::new(3, 8, 4, 73);
    cfg.sync_every = 2;
    let res = run_local_sgd(
        &cfg,
        |_| models::mlp_classifier("m", 8, &[16], 2, 73),
        |_| Box::new(Sgd::new(0.05)) as Box<dyn Optimizer>,
        &task,
        &mut cs,
        &mut ms,
    );
    assert!(res.final_quality > 0.75, "quality {}", res.final_quality);
    assert!(res.bytes_per_worker_per_sync > 0.0);
}

/// Decoded sessions (local-SGD delta rounds, gossip views) pinned bit for
/// bit; recorded at 802d72f, while the one-shot decoded family still stood
/// beside them.
#[test]
fn decoded_session_goldens() {
    let task = ClassificationDataset::synthetic(192, 8, 2, 0.3, 74);
    let net = |_| models::mlp_classifier("m", 8, &[16], 2, 74);
    let opt = |_| Box::new(Sgd::new(0.05)) as Box<dyn Optimizer>;
    let pin = |r: &ReplicatedResult| {
        (
            r.final_quality.to_bits(),
            r.consensus_gap.to_bits(),
            r.bytes_per_worker_per_sync,
        )
    };
    let mut cfg = ReplicatedConfig::new(3, 8, 4, 74);
    cfg.sync_every = 2;
    let (mut cs, mut ms) = registry::build_fleet(&registry::find("topk").unwrap(), 3, 74);
    let local = run_local_sgd(&cfg, net, opt, &task, &mut cs, &mut ms);
    assert_eq!(
        pin(&local),
        (0x3fef286bca1af287, 0x3e918357730b64b3, 40.0),
        "local SGD, topk + residual"
    );
    cfg.sync_every = 1;
    let (mut cs, _) = registry::build_fleet(&registry::find("qsgd").unwrap(), 3, 74);
    let gossip = run_gossip(&cfg, net, opt, &task, &mut cs);
    assert_eq!(
        pin(&gossip),
        (0x3ff0000000000000, 0x3fcf92d10f5e0b75, 195.0),
        "gossip, qsgd"
    );
}

/// Local SGD under an `Allreduce` method: the deltas' PowerSGD factors are
/// averaged while compressed and decoded once — the method's own
/// aggregation rule — not averaged as per-worker reconstructions.
#[test]
fn local_sgd_allreduce_golden() {
    let task = ClassificationDataset::synthetic(192, 8, 2, 0.3, 74);
    let mut cfg = ReplicatedConfig::new(3, 8, 4, 74);
    cfg.sync_every = 2;
    let (mut cs, mut ms) = registry::build_fleet(&registry::find("powersgd").unwrap(), 3, 74);
    let r = run_local_sgd(
        &cfg,
        |_| models::mlp_classifier("m", 8, &[16], 2, 74),
        |_| Box::new(Sgd::new(0.05)) as Box<dyn Optimizer>,
        &task,
        &mut cs,
        &mut ms,
    );
    assert_eq!(
        (
            r.final_quality.to_bits(),
            r.consensus_gap.to_bits(),
            r.bytes_per_worker_per_sync
        ),
        (0x3ff0000000000000, 0x3e9194cb76890093, 648.0),
        "local SGD, powersgd"
    );
}
