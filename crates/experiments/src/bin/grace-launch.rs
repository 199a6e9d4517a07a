//! `grace-launch` — run GRACE training as N real OS processes.
//!
//! Parent mode binds the rendezvous hub, re-executes itself once per rank
//! as `grace-launch rank …` (the child's whole job — rank, world,
//! rendezvous, compressor, epochs, fault, trace directory — travels on its
//! argv; the mode is a function of argv alone), gathers each child's
//! parameter checksum from its stdout, and asserts all ranks agree; unless
//! `--no-verify` it then replays the identical workload on the in-process
//! `ThreadedCluster` and asserts the socket-trained bits match — the
//! acceptance criterion of the multi-process transport.
//!
//! Child mode (first argument `rank`) joins the hub, trains its rank to
//! completion and prints one machine-readable line:
//!
//! ```text
//! RANK_RESULT <rank> <param_crc32:08x> <quality> <live_at_exit>
//! ```
//!
//! Usage:
//!
//! ```text
//! grace-launch [--ranks N] [--compressor ID|baseline|all] [--epochs E]
//!              [--uds] [--no-verify] [--trace DIR]
//!              [--drop RANK@OP] [--dump-on-exit]
//! grace-launch rank --rank K --world N --rendezvous EP --compressor ID
//!              --epochs E [--drop RANK@OP] [--trace DIR] [--dump-on-exit]
//! ```
//!
//! `--trace DIR` turns on cross-rank tracing: every child runs at
//! `Level::Trace` and exports `DIR/<compressor>/rank<k>.trace.json`
//! (stamped with its hub-clock offset), the parent exports the hub's own
//! timeline as `DIR/<compressor>/hub.trace.json`, and
//! `grace-analyze report DIR/<compressor>` rebases them onto one clock.
//!
//! `--drop RANK@OP` seeds a mid-run drop fault (a post-mortem drill): the
//! victim leaves at its `OP`-th collective — one per fusion bucket per step,
//! and this workload's model is one bucket, so `OP` is a step index — its
//! flight recorder trips and leaves a bundle, the survivors degrade and
//! finish, and threaded verification is skipped. An `OP` the run never
//! reaches is refused up front (exit 2).
//! `--dump-on-exit` makes every child write its bundle at exit even
//! without a trigger; `grace-analyze report` reads the result.

use grace_comm::net::{Endpoint, HubServer, NetConfig};
use grace_comm::ClusterOptions;
use grace_compressors::{extensions, registry};
use grace_core::process::{self, param_checksum, Worker};
use grace_core::threaded::run_threaded;
use grace_core::trainer::{fusion_plan, steps_per_epoch, CodecTiming};
use grace_core::TrainConfig;
use grace_nn::data::{ClassificationDataset, Task};
use grace_nn::models;
use grace_nn::network::Network;
use grace_nn::optim::{Momentum, Optimizer};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

const SEED: u64 = 31;

/// The fixed cross-process workload. Small on purpose: the point is the
/// transport, and `--ranks 4 --compressor all` must stay CI-cheap.
/// `drop` seeds one mid-run drop fault (`(rank, op)`), identically in every
/// process that derives the plan.
fn workload(
    world: usize,
    epochs: usize,
    drop: Option<(usize, u64)>,
) -> (ClassificationDataset, TrainConfig) {
    let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, SEED);
    let mut cfg = TrainConfig::new(world, 8, epochs, SEED);
    cfg.codec = CodecTiming::Free;
    let plan = match drop {
        Some((rank, op)) => grace_comm::FaultPlan::empty().with_drop(rank, op),
        None => grace_comm::FaultPlan::empty(),
    };
    cfg.fault = Some(grace_comm::FaultConfig {
        plan,
        timeout: Some(Duration::from_secs(60)),
    });
    (task, cfg)
}

fn model() -> Network {
    models::mlp_classifier("m", 8, &[12], 2, SEED)
}

/// Collectives each rank issues over the whole workload: one per fusion
/// bucket per step — the range a fault's op index lives in.
fn run_ops(world: usize, epochs: usize) -> u64 {
    let (task, cfg) = workload(world, epochs, None);
    let steps = epochs * steps_per_epoch(task.train_len(), world, cfg.batch_per_worker);
    (steps * fusion_plan(&cfg, &mut model()).n_buckets()) as u64
}

/// Parses the `RANK@OP` form of `--drop`.
fn parse_drop(s: &str) -> Result<(usize, u64), String> {
    let err = || format!("--drop expects RANK@OP, got '{s}'");
    let (rank, op) = s.split_once('@').ok_or_else(err)?;
    Ok((
        rank.parse().map_err(|_| err())?,
        op.parse().map_err(|_| err())?,
    ))
}

fn make_worker(compressor_id: &str, world: usize, rank: usize) -> Worker {
    let net = model();
    let opt: Box<dyn Optimizer> = Box::new(Momentum::new(0.05, 0.9));
    let spec = grace_experiments::runner::resolve(compressor_id);
    let (mut cs, mut ms) = registry::build_fleet(&spec, world, SEED);
    let (compressor, memory) = (cs.swap_remove(rank), ms.swap_remove(rank));
    (net, opt, compressor, memory)
}

fn child_main(args: &Args, rank: usize, endpoint: &Endpoint) -> i32 {
    let net_cfg = NetConfig::new(rank, args.ranks, endpoint.clone());
    let (task, mut cfg) = workload(args.ranks, args.epochs, args.drop);
    if args.trace_dir.is_some() {
        cfg.telemetry = Some(grace_telemetry::Level::Trace);
    }
    let make = |rank: usize| make_worker(&args.compressor, args.ranks, rank);
    let out = process::run_socket_rank(&cfg, &task, &make, &net_cfg);
    // The hub-clock header is stamped when the rank connects, so the export
    // below and a mid-run bundle rebase onto the same timeline. A rank that
    // never connected has no header and nothing `grace-analyze report` could
    // place on the hub clock, so it leaves no file.
    let connected = grace_telemetry::export::trace_header().is_some();
    if let Some(dir) = args.trace_dir.as_ref().filter(|_| connected) {
        let label = format!("rank{rank}");
        if let Err(e) = grace_telemetry::export::export_run_to(dir, &label) {
            eprintln!(
                "grace-launch: cannot export trace to {}: {e}",
                dir.display()
            );
        }
    }
    // A tripped recorder already wrote its bundle.
    if args.dump_on_exit && !grace_telemetry::recorder::tripped() {
        if let Err(e) = grace_telemetry::recorder::dump() {
            eprintln!("grace-launch: dump-on-exit bundle failed: {e}");
        }
    }
    match out {
        Ok(res) => {
            println!(
                "RANK_RESULT {} {:08x} {} {}",
                res.rank,
                param_checksum(&res.final_params),
                res.final_quality,
                res.live_at_exit
            );
            0
        }
        Err(e) => {
            eprintln!("grace-launch child rank {rank}: {e}");
            1
        }
    }
}

#[derive(Debug)]
struct Args {
    /// `Some((rank, rendezvous))` in child mode (`grace-launch rank …`).
    child: Option<(usize, Endpoint)>,
    /// The world size: `--ranks` to the parent, `--world` to a child.
    ranks: usize,
    compressor: String,
    epochs: usize,
    uds: bool,
    verify: bool,
    trace_dir: Option<PathBuf>,
    /// Seeded mid-run drop fault (`--drop RANK@OP`): that rank leaves the
    /// cluster at collective `OP`, tripping its flight recorder.
    drop: Option<(usize, u64)>,
    /// Every child writes a post-mortem bundle at exit even without a
    /// trigger.
    dump_on_exit: bool,
}

/// Parses the argument list (program name already stripped). The mode is
/// decided here and by nothing else: a leading `rank` selects child mode.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let is_child = argv.first().is_some_and(|a| a == "rank");
    let mut args = Args {
        child: None,
        ranks: 4,
        compressor: "all".to_string(),
        epochs: 2,
        uds: false,
        verify: true,
        trace_dir: None,
        drop: None,
        dump_on_exit: false,
    };
    let (mut rank, mut rendezvous) = (None, None);
    let mut it = argv[usize::from(is_child)..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let count = |v: &String| v.parse::<usize>().map_err(|e| format!("{flag}: {e}"));
        match (flag.as_str(), is_child) {
            ("--ranks", false) | ("--world", true) => args.ranks = count(value()?)?,
            ("--rank", true) => rank = Some(count(value()?)?),
            ("--rendezvous", true) => {
                let ep = Endpoint::parse(value()?).map_err(|e| format!("{flag}: {e}"))?;
                rendezvous = Some(ep);
            }
            ("--compressor", _) => args.compressor = value()?.clone(),
            ("--epochs", _) => args.epochs = count(value()?)?,
            ("--uds", false) => args.uds = true,
            ("--no-verify", false) => args.verify = false,
            ("--trace", _) => args.trace_dir = Some(PathBuf::from(value()?)),
            ("--drop", _) => args.drop = Some(parse_drop(value()?)?),
            ("--dump-on-exit", _) => args.dump_on_exit = true,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if args.ranks == 0 || args.epochs == 0 {
        return Err("--ranks and --epochs must be positive".to_string());
    }
    if let Some((rank, op)) = args.drop {
        if rank >= args.ranks {
            return Err(format!(
                "--drop rank {rank} out of range for {} ranks",
                args.ranks
            ));
        }
        // Found here, not after the whole job as a rank that "was scheduled
        // to drop but exited cleanly".
        let ops = run_ops(args.ranks, args.epochs);
        if op >= ops {
            return Err(format!(
                "--drop op {op} is never reached: {} ranks × {} epochs run {ops} \
                 collectives per rank (one per fusion bucket per step), so the last \
                 valid op is {}",
                args.ranks,
                args.epochs,
                ops - 1
            ));
        }
        // A faulted run's parameters are legitimately different from the
        // clean threaded replay; the drop flag is for post-mortem drills.
        args.verify = false;
    }
    if is_child {
        let rank = rank.ok_or("--rank is required")?;
        let endpoint = rendezvous.ok_or("--rendezvous is required")?;
        if rank >= args.ranks {
            return Err(format!(
                "--rank {rank} out of range for --world {}",
                args.ranks
            ));
        }
        args.child = Some((rank, endpoint));
    }
    Ok(args)
}

/// Spawns `world` child ranks against a fresh hub and returns the agreed
/// checksum line parts `(checksum, quality)`. When `trace_dir` is set the
/// children export per-rank traces there and the parent adds the hub's.
fn launch_once(args: &Args, compressor_id: &str, trace_dir: Option<&Path>) -> (u32, f64) {
    let endpoint = if args.uds {
        #[cfg(unix)]
        {
            Endpoint::ephemeral_uds()
        }
        #[cfg(not(unix))]
        {
            eprintln!("--uds unsupported on this platform; using TCP");
            Endpoint::Tcp("127.0.0.1:0".to_string())
        }
    } else {
        Endpoint::Tcp("127.0.0.1:0".to_string())
    };
    let hub = HubServer::bind(&endpoint, args.ranks, ClusterOptions::default())
        .expect("bind rendezvous hub")
        .with_accept_timeout(Duration::from_secs(60));
    let endpoint = hub.endpoint().clone();
    let hub = hub.spawn();
    let exe = std::env::current_exe().expect("current_exe");
    let children: Vec<_> = (0..args.ranks)
        .map(|rank| {
            let mut cmd = Command::new(&exe);
            cmd.args(["rank", "--rank", &rank.to_string()])
                .args(["--world", &args.ranks.to_string()])
                .args(["--rendezvous", &endpoint.to_string()])
                .args(["--compressor", compressor_id])
                .args(["--epochs", &args.epochs.to_string()])
                .stdout(Stdio::piped());
            if let Some(dir) = trace_dir {
                cmd.arg("--trace").arg(dir);
            }
            if let Some((r, op)) = args.drop {
                cmd.args(["--drop", &format!("{r}@{op}")]);
            }
            if args.dump_on_exit {
                cmd.arg("--dump-on-exit");
            }
            cmd.spawn()
                .unwrap_or_else(|e| panic!("spawn rank {rank}: {e}"))
        })
        .collect();
    let outputs: Vec<_> = children
        .into_iter()
        .map(|child| child.wait_with_output().expect("wait for child"))
        .collect();
    // Every child has exited, so the hub sees every stream close and
    // returns. Join it before a check below can panic: its exit is what
    // removes its shared-memory images when no rank got as far as a first
    // collective.
    let _ = hub.join();
    let mut agreed: Option<(u32, f64)> = None;
    let dropped = args.drop.map(|(r, _)| r);
    for (rank, out) in outputs.into_iter().enumerate() {
        if Some(rank) == dropped {
            // The seeded fault makes this rank exit non-zero by design; its
            // post-mortem bundle is the artefact of interest, not a result
            // line.
            assert!(
                !out.status.success(),
                "rank {rank} was scheduled to drop but exited cleanly"
            );
            continue;
        }
        assert!(
            out.status.success(),
            "rank {rank} exited with {:?}",
            out.status
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("RANK_RESULT"))
            .unwrap_or_else(|| panic!("rank {rank} printed no result line:\n{stdout}"));
        let parts: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(parts.len(), 5, "malformed result line: {line}");
        assert_eq!(parts[1].parse::<usize>().unwrap(), rank);
        let checksum = u32::from_str_radix(parts[2], 16).expect("checksum hex");
        let quality: f64 = parts[3].parse().expect("quality");
        let live: usize = parts[4].parse().expect("live");
        if dropped.is_none() {
            assert_eq!(
                live, args.ranks,
                "rank {rank} saw departures in a clean run"
            );
        }
        match agreed {
            None => agreed = Some((checksum, quality)),
            Some((c, _)) => assert_eq!(
                c, checksum,
                "rank {rank} diverged: {checksum:08x} vs {c:08x}"
            ),
        }
    }
    if let Some(dir) = trace_dir {
        export_hub_trace(dir, args.ranks);
    }
    agreed.expect("at least one rank")
}

/// Exports the parent's (hub's) trace as `dir/hub.trace.json` and drains
/// the event store so the next compressor's run starts from an empty
/// timeline.
/// The hub *is* the reference clock, so its header offset is zero.
fn export_hub_trace(dir: &Path, world: usize) {
    grace_telemetry::set_trace_header(Some(grace_telemetry::TraceHeader {
        rank: None,
        world,
        clock_offset_ns: 0,
        clock_rtt_ns: 0,
    }));
    match grace_telemetry::export::export_run_to(dir, "hub") {
        Ok(paths) => println!("  hub trace: {}", paths.trace.display()),
        Err(e) => eprintln!("grace-launch: cannot export hub trace: {e}"),
    }
    let _ = grace_telemetry::trace::take_events();
}

fn verify_against_threaded(args: &Args, compressor_id: &str, socket_crc: u32) {
    let (task, cfg) = workload(args.ranks, args.epochs, None);
    let world = args.ranks;
    let threaded = run_threaded(&cfg, &task, |rank| make_worker(compressor_id, world, rank));
    let threaded_crc = param_checksum(&threaded.final_params);
    assert_eq!(
        socket_crc, threaded_crc,
        "'{compressor_id}': socket {socket_crc:08x} != threaded {threaded_crc:08x}"
    );
}

fn parent_main(args: &Args) -> i32 {
    let compressors: Vec<String> = if args.compressor == "all" {
        let specs = registry::all_specs()
            .into_iter()
            .chain(extensions::extension_specs());
        let ids = std::iter::once("baseline").chain(specs.map(|s| s.id));
        ids.map(String::from).collect()
    } else {
        vec![args.compressor.clone()]
    };
    println!(
        "grace-launch: {} ranks × {} compressors over {} ({} verify)",
        args.ranks,
        compressors.len(),
        if args.uds { "unix sockets" } else { "tcp" },
        if args.verify { "threaded" } else { "no" },
    );
    if args.trace_dir.is_some() {
        // The hub threads live in this process; keep every event of theirs.
        grace_telemetry::set_level(grace_telemetry::Level::Trace);
    }
    println!("{:<26} {:>10} {:>10}", "method", "crc32", "quality");
    for id in &compressors {
        // One directory per compressor run so rank files never collide.
        let run_dir = args.trace_dir.as_ref().map(|d| d.join(id));
        let (crc, quality) = launch_once(args, id, run_dir.as_deref());
        if args.verify {
            verify_against_threaded(args, id, crc);
        }
        println!("{id:<26} {:>10} {quality:>10.4}", format!("{crc:08x}"));
    }
    let (who, drill) = match args.drop {
        Some(_) => (": survivors", " (1 seeded drop)"),
        None => ("", ""),
    };
    println!(
        "all {} methods{who} bit-identical across {} OS-process ranks{drill}",
        compressors.len(),
        args.ranks
    );
    0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv) {
        Ok(args) => match &args.child {
            Some((rank, endpoint)) => child_main(&args, *rank, endpoint),
            None => parent_main(&args),
        },
        Err(e) => {
            eprintln!("grace-launch: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    /// A drop scheduled past the run's last collective is refused before
    /// anything is launched, naming the flag and the last op that exists —
    /// in the parent and, from the same argv, in a child.
    #[test]
    fn a_drop_the_run_never_reaches_is_refused_up_front() {
        // 96 examples ÷ (ranks × batch 8) steps an epoch, one bucket a step.
        assert_eq!(run_ops(4, 4), 12);
        assert_eq!(run_ops(2, 2), 12);
        assert_eq!(run_ops(3, 2), 8);
        assert_eq!(
            parse("--ranks 4 --epochs 4 --drop 1@11").unwrap().drop,
            Some((1, 11))
        );
        for line in [
            "--ranks 4 --epochs 4 --drop 1@12",
            "--ranks 4 --epochs 4 --drop 1@24",
            "rank --rank 0 --world 4 --rendezvous tcp://127.0.0.1:1 --epochs 4 --drop 1@12",
        ] {
            let e = parse(line).unwrap_err();
            assert!(
                e.contains("--drop op") && e.contains("never reached"),
                "{e}"
            );
            assert!(e.contains("last valid op is 11"), "{e}");
        }
        // The count follows the job: more epochs, more ops.
        assert!(parse("--ranks 4 --epochs 8 --drop 1@12").is_ok());
    }

    #[test]
    fn mode_and_job_come_from_argv_alone() {
        let parent = parse("--ranks 2 --compressor topk --drop 1@9 --dump-on-exit").unwrap();
        assert!(parent.child.is_none());
        assert_eq!((parent.ranks, parent.compressor.as_str()), (2, "topk"));
        assert_eq!(parent.drop, Some((1, 9)));
        assert!(parent.dump_on_exit && !parent.verify);

        let child = parse(
            "rank --rank 2 --world 4 --rendezvous tcp://127.0.0.1:7777 \
             --compressor qsgd --epochs 3 --trace out/qsgd",
        )
        .unwrap();
        assert_eq!(
            child.child,
            Some((2, Endpoint::Tcp("127.0.0.1:7777".into())))
        );
        assert_eq!(child.ranks, 4);
        assert_eq!((child.compressor.as_str(), child.epochs), ("qsgd", 3));
        assert_eq!(child.trace_dir, Some(PathBuf::from("out/qsgd")));

        let err = |line: &str| parse(line).unwrap_err();
        let ep = "--rendezvous tcp://127.0.0.1:1";
        assert!(err(&format!("rank --rank 9 --world 4 {ep}")).contains("--rank 9 out of range"));
        assert!(err("rank --rank 0 --world 2 --rendezvous ftp://x").contains("--rendezvous"));
        assert!(err(&format!("rank --world 2 {ep}")).contains("--rank is required"));
        assert!(err("--ranks 2 --drop 1-24").contains("--drop"));
        assert!(err("--ranks 2 --drop 2@5").contains("--drop"));
        assert!(err("--ranks 2 --epochs 0").contains("--epochs"));
        // Child-only flags are not parent flags, and vice versa.
        assert!(err("--rank 0").contains("unknown argument '--rank'"));
        assert!(err(&format!("rank --rank 0 --world 2 {ep} --uds")).contains("'--uds'"));
    }
}
