//! `grace-exp` — every table, figure and extension experiment behind one
//! binary, one name → function table and one argument parser.
//!
//! ```text
//! grace-exp <name> [--scale PCT]
//! grace-exp fig8 [--large]
//! grace-exp sweep [--benchmark ID] [--compressor ID|baseline|all]
//!                 [--workers N] [--gbps F] [--transport tcp|rdma] [--seed N]
//! ```
//!
//! `--scale PCT` trains on `PCT` percent of each benchmark's epoch budget
//! (default 100; `--scale 25` is the quick pass); `table1`, `fig8` and
//! `schedules` train no benchmark cell and reject it. CSVs land in `results/`
//! under the current directory.

use grace_comm::Transport;
use grace_compressors::registry;
use grace_experiments::figures;
use grace_experiments::runner::RunnerConfig;
use grace_experiments::suite;

/// An experiment, reading its part of the command line.
type Experiment = fn(&Args);

/// Everything the command line can say.
struct Args {
    run: Experiment,
    /// `--scale` for every experiment; `sweep`'s `--workers`, `--gbps`,
    /// `--transport` and `--seed` too.
    rc: RunnerConfig,
    /// `fig8 --large`.
    large: bool,
    /// `sweep --benchmark`.
    bench: suite::Benchmark,
    /// `sweep --compressor`.
    compressor: String,
}

/// `(name, takes --scale, function)`: an experiment that never reads the
/// `RunnerConfig` has no epoch budget to scale.
const EXPERIMENTS: &[(&str, bool, Experiment)] = &[
    ("table1", false, |_| figures::table1::run()),
    ("table2", true, |a| figures::table2::run(&a.rc)),
    ("fig1", true, |a| figures::fig1::run(&a.rc)),
    ("fig6", true, |a| figures::fig6::run(&a.rc)),
    ("fig7", true, |a| figures::fig7::run(&a.rc)),
    ("fig8", false, |a| figures::fig8::run(a.large)),
    ("fig9", true, |a| figures::fig9::run(&a.rc)),
    ("fig10", true, |a| figures::fig10::run(&a.rc)),
    ("fig_agg", true, |a| figures::fig_agg::run(&a.rc)),
    ("ablations", true, |a| figures::ablations::run(&a.rc)),
    ("extensions", true, |a| figures::extensions::run(&a.rc)),
    ("topology", true, |a| figures::topology::run(&a.rc)),
    ("schedules", false, |_| figures::schedules::run()),
    ("sweep", true, |a| {
        figures::sweep::run(&a.bench, &a.compressor, &a.rc)
    }),
];

fn usage() -> String {
    let join = |ids: Vec<&str>| ids.join(", ");
    format!(
        "usage: grace-exp <name> [--scale PCT]\n\
         \x20      grace-exp fig8 [--large]\n\
         \x20      grace-exp sweep [--benchmark <id>] [--compressor <id>|baseline|all] \
         [--workers N] [--gbps F] [--transport tcp|rdma] [--seed N]\n\
         names: {}\nbenchmarks: {}\ncompressors: baseline, {}, \
         or an extension id (`grace-exp extensions` lists them)",
        join(EXPERIMENTS.iter().map(|(name, ..)| *name).collect()),
        join(suite::all_benchmarks().iter().map(|b| b.id).collect()),
        join(registry::all_specs().iter().map(|s| s.id).collect()),
    )
}

/// Parses a strictly positive number.
fn positive<T>(flag: &str, v: &str) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + Default,
{
    let n = v.parse().ok().filter(|n| *n > T::default());
    n.ok_or_else(|| format!("{flag}: bad value '{v}'"))
}

/// Parses the argument list (program name already stripped). A flag is
/// accepted only by the experiment it belongs to; every error names the
/// offending word.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (name, flags) = argv.split_first().ok_or("missing experiment name")?;
    let &(_, scaled, run) = EXPERIMENTS
        .iter()
        .find(|(n, ..)| n == name)
        .ok_or_else(|| format!("unknown experiment '{name}'"))?;
    let mut args = Args {
        run,
        rc: RunnerConfig::default(),
        large: false,
        bench: suite::find("resnet20").expect("registered"),
        compressor: "all".to_string(),
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: bad value '{v}'");
        match (flag.as_str(), name.as_str()) {
            ("--scale", _) if scaled => args.rc.epoch_scale_pct = positive(flag, value()?)?,
            ("--large", "fig8") => args.large = true,
            ("--benchmark", "sweep") => {
                let v = value()?;
                args.bench = suite::find(v).ok_or_else(|| format!("unknown benchmark '{v}'"))?;
            }
            ("--compressor", "sweep") => {
                let v = value()?;
                if v != "all" && registry::resolve(v).is_none() {
                    return Err(format!("unknown compressor '{v}'"));
                }
                args.compressor = v.clone();
            }
            ("--workers", "sweep") => args.rc.n_workers = positive(flag, value()?)?,
            ("--gbps", "sweep") => {
                let v = value()?;
                let gbps = positive(flag, v).ok().filter(|g: &f64| g.is_finite());
                args.rc.network.bandwidth_gbps = gbps.ok_or_else(|| bad(v))?;
            }
            ("--transport", "sweep") => {
                let v = value()?;
                args.rc.network.transport = match v.to_lowercase().as_str() {
                    "tcp" => Transport::Tcp,
                    "rdma" => Transport::Rdma,
                    _ => return Err(bad(v)),
                };
            }
            ("--seed", "sweep") => {
                let v = value()?;
                args.rc.seed = v.parse().map_err(|_| bad(v))?;
            }
            _ => return Err(format!("unknown flag '{flag}' for {name}")),
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(args) => (args.run)(&args),
        Err(e) => {
            eprintln!("grace-exp: {e}\n{}", usage());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn every_error_names_the_offender_and_flags_stay_with_their_experiment() {
        let err = |line: &str| parse(line).err().expect(line);
        assert!(err("").contains("missing experiment name"));
        assert!(err("fig11").contains("unknown experiment 'fig11'"));
        assert!(err("fig6 --fast").contains("unknown flag '--fast' for fig6"));
        assert!(err("fig6 --large").contains("unknown flag '--large' for fig6"));
        assert!(err("fig6 --workers 4").contains("unknown flag '--workers' for fig6"));
        assert!(err("topology --scale 0").contains("--scale: bad value '0'"));
        assert!(err("topology --scale").contains("--scale needs a value"));
        assert!(err("sweep --compressor bogus").contains("unknown compressor 'bogus'"));
        assert!(err("sweep --benchmark alexnet").contains("unknown benchmark 'alexnet'"));
        assert!(err("sweep --gbps -1").contains("--gbps: bad value '-1'"));
        assert!(err("sweep --gbps inf").contains("--gbps: bad value 'inf'"));
        for name in ["table1", "fig8", "schedules"] {
            let unknown = format!("unknown flag '--scale' for {name}");
            assert!(err(&format!("{name} --scale 25")).contains(&unknown));
        }

        let topology = parse("topology --scale 25").unwrap();
        assert_eq!(topology.rc.epoch_scale_pct, 25);
        assert_eq!(parse("topology").unwrap().rc.epoch_scale_pct, 100);
        assert!(parse("fig8 --large").unwrap().large);

        // An extension id is a compressor like any other.
        let sweep =
            parse("sweep --compressor atomo --workers 2 --transport rdma --seed 9").unwrap();
        assert_eq!(sweep.compressor, "atomo");
        assert_eq!((sweep.rc.n_workers, sweep.rc.seed), (2, 9));
        assert_eq!(sweep.rc.network.transport, Transport::Rdma);
    }
}
