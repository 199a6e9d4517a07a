//! The size budget is pinned from the sources: each crate's non-test lines
//! stay under a ceiling, and `grace-core`'s public surface, the transports
//! that implement the `Collective` contract and the SIMD dispatch levels
//! are counted. A change may lower a ceiling freely; one that raises a
//! ceiling or a count says in CHANGES.md which measured win pays for it, as
//! `tests/unsafe_audit.rs`' pin on `unsafe` blocks does.
//!
//! A file's non-test lines run from its start to its test module — the
//! first `#[cfg(test)]` whose next line opens a `mod` — or to its end.

use std::fs;
use std::path::Path;

/// Non-test lines of every `.rs` file under each crate's sources.
const CEILINGS: [(&str, usize); 10] = [
    ("crates/analyze/src", 1484),
    ("crates/bench/src", 1700),
    ("crates/comm/src", 4341),
    ("crates/compressors/src", 3615),
    ("crates/core/src", 5563),
    ("crates/experiments/src", 2231),
    ("crates/nn/src", 3475),
    ("crates/telemetry/src", 2386),
    ("crates/tensor/src", 5698),
    ("src", 18),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, with its text.
fn sources(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).expect("readable source");
            out.push((path.display().to_string(), text));
        }
    }
}

fn non_test_lines(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    let opens_mod = |l: &str| {
        let l = l.trim_start();
        ["mod ", "pub mod ", "pub(crate) mod "]
            .iter()
            .any(|p| l.starts_with(p))
    };
    lines
        .windows(2)
        .position(|w| w[0].trim() == "#[cfg(test)]" && opens_mod(w[1]))
        .unwrap_or(lines.len())
}

#[test]
fn each_crate_stays_under_its_line_ceiling() {
    let mut over = Vec::new();
    for (dir, ceiling) in CEILINGS {
        let mut files = Vec::new();
        sources(&root().join(dir), &mut files);
        let lines: usize = files.iter().map(|(_, text)| non_test_lines(text)).sum();
        if lines > ceiling {
            over.push(format!("{dir}: {lines} non-test lines, ceiling {ceiling}"));
        }
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
}

/// The names a `pub use` list re-exports: `a::B;` is one, `a::{B, C};` two.
fn reexported_names(text: &str) -> usize {
    text.split("pub use ")
        .skip(1)
        .map(|stmt| {
            let stmt = &stmt[..stmt.find(';').expect("a `pub use` ends in `;`")];
            match stmt.split_once('{') {
                Some((_, list)) => list
                    .split(',')
                    .filter(|n| !n.trim_matches([' ', '\n', '}']).is_empty())
                    .count(),
                None => 1,
            }
        })
        .sum()
}

#[test]
fn grace_core_public_surface_is_pinned() {
    let lib = fs::read_to_string(root().join("crates/core/src/lib.rs")).expect("lib.rs");
    let modules = lib.lines().filter(|l| l.starts_with("pub mod ")).count();
    assert_eq!(
        (modules, reexported_names(&lib)),
        (12, 47),
        "(public modules, re-exported names)"
    );
}

/// The type an `impl [<…>] Trait for Type` line names, if the line is one.
fn implementor<'a>(line: &'a str, tr: &str) -> Option<&'a str> {
    let rest = line
        .strip_prefix("impl ")?
        .strip_prefix(tr)?
        .strip_prefix(" for ")?;
    rest.split([' ', '<', '{']).next()
}

/// The transports a rank's exchange runs over: every type with its own
/// `Collective` implementation that also reports on its cluster
/// (`ClusterIntrospect`) — the deposit board and the socket hub's ranks,
/// not the one-worker stub or the fault wrapper.
#[test]
fn collective_transports_and_dispatch_levels_are_pinned() {
    let mut files = Vec::new();
    sources(&root().join("crates"), &mut files);
    let lines = || files.iter().flat_map(|(_, text)| text.lines());
    let introspected: Vec<&str> = lines()
        .filter_map(|l| implementor(l, "ClusterIntrospect"))
        .collect();
    let mut transports: Vec<&str> = lines()
        .filter_map(|l| implementor(l, "Collective"))
        .filter(|t| introspected.contains(t))
        .collect();
    transports.sort_unstable();
    assert_eq!(
        transports,
        ["SocketCluster", "WorkerHandle"],
        "Collective transports"
    );

    let simd = fs::read_to_string(root().join("crates/tensor/src/simd.rs")).expect("simd.rs");
    let body = simd.split("pub enum Level {").nth(1).expect("simd::Level");
    let body = &body[..body.find('}').expect("the enum closes")];
    let levels: Vec<&str> = body
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .collect();
    assert_eq!(
        levels,
        ["Scalar,", "Avx2,", "Avx512,"],
        "SIMD dispatch levels"
    );
}
