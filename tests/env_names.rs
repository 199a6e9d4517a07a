//! The environment-variable surface is pinned from both sides: every
//! prefixed name that appears under `crates/`, `src/`, `examples/`, `tests/`
//! or `.github/` has a row in README's "Environment variables" table, and
//! every row names something the sources still read.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const PREFIX: &str = "GRACE_";

/// Every `PREFIX[A-Z0-9_]+` token in `text`.
fn names_in(text: &str, out: &mut BTreeSet<String>) {
    let tail = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
    for (at, _) in text.match_indices(PREFIX) {
        let rest = &text[at + PREFIX.len()..];
        let len = rest.find(|c| !tail(c)).unwrap_or(rest.len());
        if len > 0 {
            out.insert(format!("{PREFIX}{}", &rest[..len]));
        }
    }
}

fn scan(path: &Path, out: &mut BTreeSet<String>) {
    if path.is_dir() {
        for entry in fs::read_dir(path).expect("readable source directory") {
            scan(&entry.expect("directory entry").path(), out);
        }
    } else if let Ok(text) = fs::read_to_string(path) {
        names_in(&text, out);
    }
}

#[test]
fn env_names_in_sources_equal_the_readme_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut used = BTreeSet::new();
    for rel in ["crates", "src", "examples", "tests", ".github"] {
        scan(&root.join(rel), &mut used);
    }

    let readme = fs::read_to_string(root.join("README.md")).expect("README.md");
    let section = readme
        .split("## Environment variables")
        .nth(1)
        .expect("README has an 'Environment variables' section");
    let section = section.split("\n## ").next().unwrap_or(section);
    let mut documented = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        names_in(row.split('|').nth(1).unwrap_or(""), &mut documented);
    }

    assert_eq!(
        used, documented,
        "left: names in sources/CI; right: rows of README's table"
    );
}
