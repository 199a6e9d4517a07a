//! `grace-launch` — run GRACE training as N real OS processes.
//!
//! Parent mode (no `GRACE_RANK` in the environment) binds the rendezvous
//! hub, re-executes itself once per rank with `GRACE_RANK` / `GRACE_WORLD` /
//! `GRACE_RENDEZVOUS` set, gathers each child's parameter checksum from its
//! stdout, and asserts all ranks agree; unless `--no-verify` it then replays
//! the identical workload on the in-process `ThreadedCluster` and asserts
//! the socket-trained bits match — the acceptance criterion of the
//! multi-process transport.
//!
//! Child mode (`GRACE_RANK` set) joins the hub, trains its rank to
//! completion and prints one machine-readable line:
//!
//! ```text
//! GRACE_RANK_RESULT <rank> <param_crc32:08x> <quality> <live_at_exit>
//! ```
//!
//! Usage:
//!
//! ```text
//! grace-launch [--ranks N] [--compressor ID|baseline|all] [--epochs E]
//!              [--uds] [--no-verify] [--trace DIR]
//!              [--drop RANK@OP] [--dump-on-exit]
//! ```
//!
//! `--trace DIR` turns on cross-rank tracing: every child runs with
//! `GRACE_TELEMETRY=trace` and exports `DIR/<compressor>/rank<k>.trace.json`
//! (stamped with its hub-clock offset), the parent exports the hub's own
//! timeline as `DIR/<compressor>/hub.trace.json`, and
//! `grace-analyze merge DIR/<compressor>` rebases them onto one clock.
//!
//! `--drop RANK@OP` seeds a mid-run drop fault (a post-mortem drill): the
//! victim's flight recorder trips and leaves a bundle, the survivors
//! degrade and finish, and threaded verification is skipped.
//! `--dump-on-exit` makes every child write its bundle at exit even
//! without a trigger; `grace-analyze postmortem` reads the result.

use grace_comm::net::{Endpoint, HubServer};
use grace_comm::ClusterOptions;
use grace_compressors::{extensions, registry};
use grace_core::process::{
    self, net_config_from_env, param_checksum, Worker, ENV_RANK, ENV_RENDEZVOUS, ENV_WORLD,
};
use grace_core::threaded::run_threaded;
use grace_core::trainer::CodecTiming;
use grace_core::{Compressor, Memory, NoCompression, NoMemory, TrainConfig};
use grace_nn::data::ClassificationDataset;
use grace_nn::models;
use grace_nn::optim::{Momentum, Optimizer};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

const ENV_COMPRESSOR: &str = "GRACE_LAUNCH_COMPRESSOR";
const ENV_EPOCHS: &str = "GRACE_LAUNCH_EPOCHS";
const ENV_DROP: &str = "GRACE_LAUNCH_DROP";
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

/// Parses the `RANK@OP` form of `--drop` (also carried in [`ENV_DROP`]).
fn parse_drop(s: &str) -> (usize, u64) {
    let (rank, op) = s
        .split_once('@')
        .unwrap_or_else(|| panic!("--drop expects RANK@OP, got '{s}'"));
    (
        rank.parse().expect("--drop rank"),
        op.parse().expect("--drop op"),
    )
}

fn make_worker(compressor_id: &str, world: usize, rank: usize) -> Worker {
    let net = models::mlp_classifier("m", 8, &[12], 2, SEED);
    let opt: Box<dyn Optimizer> = Box::new(Momentum::new(0.05, 0.9));
    let (compressor, memory) = if compressor_id == "baseline" {
        (
            Box::new(NoCompression::new()) as Box<dyn Compressor>,
            Box::new(NoMemory::new()) as Box<dyn Memory>,
        )
    } else {
        let spec = registry::find(compressor_id)
            .or_else(|| {
                extensions::extension_specs()
                    .into_iter()
                    .find(|s| s.id == compressor_id)
            })
            .unwrap_or_else(|| panic!("unknown compressor id '{compressor_id}'"));
        let (mut cs, mut ms) = registry::build_fleet(&spec, world, SEED);
        (cs.swap_remove(rank), ms.swap_remove(rank))
    };
    (net, opt, compressor, memory)
}

fn child_main() -> i32 {
    let net_cfg = match net_config_from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("grace-launch child: {e}");
            return 2;
        }
    };
    let compressor_id = std::env::var(ENV_COMPRESSOR).unwrap_or_else(|_| "baseline".to_string());
    let epochs: usize = std::env::var(ENV_EPOCHS)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let drop = std::env::var(ENV_DROP).ok().map(|s| parse_drop(&s));
    let (task, cfg) = workload(net_cfg.world, epochs, drop);
    let world = net_cfg.world;
    let make = move |rank: usize| make_worker(&compressor_id, world, rank);
    match process::run_socket_rank(&cfg, &task, &make, &net_cfg) {
        Ok(res) => {
            println!(
                "GRACE_RANK_RESULT {} {:08x} {} {}",
                res.rank,
                param_checksum(&res.final_params),
                res.final_quality,
                res.live_at_exit
            );
            0
        }
        Err(e) => {
            eprintln!("grace-launch child rank {}: {e}", net_cfg.rank);
            1
        }
    }
}

struct Args {
    ranks: usize,
    compressor: String,
    epochs: usize,
    uds: bool,
    verify: bool,
    trace_dir: Option<PathBuf>,
    /// Seeded mid-run drop fault (`--drop RANK@OP`): that rank leaves the
    /// cluster at collective `OP`, tripping its flight recorder.
    drop: Option<(usize, u64)>,
    /// Ask every child to write a post-mortem bundle at exit even without
    /// a trigger (`GRACE_DUMP_ON_EXIT=1`).
    dump_on_exit: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        ranks: 4,
        compressor: "all".to_string(),
        epochs: 2,
        uds: false,
        verify: true,
        trace_dir: None,
        drop: None,
        dump_on_exit: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--ranks" => args.ranks = value("--ranks").parse().expect("--ranks"),
            "--compressor" => args.compressor = value("--compressor"),
            "--epochs" => args.epochs = value("--epochs").parse().expect("--epochs"),
            "--uds" => args.uds = true,
            "--no-verify" => args.verify = false,
            "--trace" => args.trace_dir = Some(PathBuf::from(value("--trace"))),
            "--drop" => args.drop = Some(parse_drop(&value("--drop"))),
            "--dump-on-exit" => args.dump_on_exit = true,
            other => panic!("unknown argument '{other}'"),
        }
    }
    assert!(args.ranks > 0, "--ranks must be positive");
    if let Some((rank, _)) = args.drop {
        assert!(rank < args.ranks, "--drop rank out of range");
        // A faulted run's parameters are legitimately different from the
        // clean threaded replay; the drop flag is for post-mortem drills.
        args.verify = false;
    }
    args
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
            cmd.env(ENV_RANK, rank.to_string())
                .env(ENV_WORLD, args.ranks.to_string())
                .env(ENV_RENDEZVOUS, endpoint.to_string())
                .env(ENV_COMPRESSOR, compressor_id)
                .env(ENV_EPOCHS, args.epochs.to_string())
                .stdout(Stdio::piped());
            if let Some(dir) = trace_dir {
                cmd.env("GRACE_TELEMETRY", "trace")
                    .env(process::ENV_TRACE_DIR, dir);
            }
            if let Some((r, op)) = args.drop {
                cmd.env(ENV_DROP, format!("{r}@{op}"));
            }
            if args.dump_on_exit {
                cmd.env("GRACE_DUMP_ON_EXIT", "1");
            }
            cmd.spawn()
                .unwrap_or_else(|e| panic!("spawn rank {rank}: {e}"))
        })
        .collect();
    let mut agreed: Option<(u32, f64)> = None;
    let dropped = args.drop.map(|(r, _)| r);
    for (rank, child) in children.into_iter().enumerate() {
        let out = child.wait_with_output().expect("wait for child");
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
            .find(|l| l.starts_with("GRACE_RANK_RESULT"))
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
    let _ = hub.join();
    if let Some(dir) = trace_dir {
        export_hub_trace(dir, args.ranks);
    }
    agreed.expect("at least one rank")
}

/// Exports the parent's (hub's) trace as `dir/hub.trace.json` and drains
/// the sink so the next compressor's run starts from an empty timeline.
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

fn parent_main() -> i32 {
    let args = parse_args();
    let compressors: Vec<String> = if args.compressor == "all" {
        let mut ids = vec!["baseline".to_string()];
        ids.extend(registry::all_specs().into_iter().map(|s| s.id.to_string()));
        ids.extend(
            extensions::extension_specs()
                .into_iter()
                .map(|s| s.id.to_string()),
        );
        ids
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
        // The hub threads live in this process; give them a trace sink.
        grace_telemetry::set_level(grace_telemetry::Level::Trace);
    }
    println!("{:<26} {:>10} {:>10}", "method", "crc32", "quality");
    for id in &compressors {
        // One directory per compressor run so rank files never collide.
        let run_dir = args.trace_dir.as_ref().map(|d| d.join(id));
        let (crc, quality) = launch_once(&args, id, run_dir.as_deref());
        if args.verify {
            verify_against_threaded(&args, id, crc);
        }
        println!("{id:<26} {:>10} {quality:>10.4}", format!("{crc:08x}"));
    }
    if args.drop.is_some() {
        println!(
            "all {} methods: survivors bit-identical across {} OS-process ranks (1 seeded drop)",
            compressors.len(),
            args.ranks
        );
    } else {
        println!(
            "all {} methods bit-identical across {} OS-process ranks",
            compressors.len(),
            args.ranks
        );
    }
    0
}

fn main() {
    let code = if std::env::var(ENV_RANK).is_ok() {
        child_main()
    } else {
        parent_main()
    };
    std::process::exit(code);
}
