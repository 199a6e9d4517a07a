//! The workspace's `unsafe` stays audited: every `.rs` file under
//! `crates/`, `shims/`, `src/` and `tests/` is walked, the `unsafe {` blocks
//! of each are counted against the pinned table below, every one carries a
//! `SAFETY:` comment in the comment lines directly above it, and no file
//! names a fused multiply-add intrinsic (one rounding where the scalar
//! reference has two — the bit-identity contract forbids it). A block added
//! to any file, listed or not, fails until the table says so. `pool.rs` is
//! the one place the intra-op pool hands a helper a borrowed job and
//! disjoint ranges of one output; `shm.rs` is the one place `grace-comm`
//! maps shared memory, and no other file of that crate says `unsafe` at all.
//! This file is not walked: its own strings spell the patterns it counts.

use std::fs;
use std::path::{Path, PathBuf};

const ROOTS: [&str; 4] = ["crates", "shims", "src", "tests"];

/// `unsafe {` blocks per file; a file not listed has none.
const PINNED: [(&str, usize); 6] = [
    ("crates/comm/src/shm.rs", 5),
    ("crates/tensor/src/pack.rs", 1),
    ("crates/tensor/src/pool.rs", 7),
    ("crates/tensor/src/simd.rs", 16),
    ("shims/parking_lot/src/lib.rs", 1),
    ("tests/telemetry_alloc.rs", 2),
];

const THIS_FILE: &str = "tests/unsafe_audit.rs";

/// `(unsafe blocks, blocks whose comment run above lacks SAFETY:)`.
fn audit(text: &str) -> (usize, Vec<usize>) {
    let lines: Vec<&str> = text.lines().collect();
    let mut blocks = 0;
    let mut bare = Vec::new();
    for (at, line) in lines.iter().enumerate() {
        if !line.contains("unsafe {") || line.trim_start().starts_with("//") {
            continue;
        }
        blocks += 1;
        let justified = lines[..at]
            .iter()
            .rev()
            .take_while(|above| above.trim_start().starts_with("//"))
            .any(|above| above.contains("SAFETY:"));
        if !justified {
            bare.push(at + 1);
        }
    }
    (blocks, bare)
}

/// Every `.rs` file under `dir`, build output directories skipped.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_unsafe_block_has_a_safety_comment_and_nothing_is_fused() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 100, "the walk found {} files", files.len());
    let mut counted = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        if rel == THIS_FILE {
            continue;
        }
        let text = fs::read_to_string(&path).expect("source file");
        let (blocks, bare) = audit(&text);
        assert!(
            bare.is_empty(),
            "{rel}: `unsafe {{` without SAFETY: above, lines {bare:?}"
        );
        assert!(!text.contains("fmadd"), "{rel} names an FMA intrinsic");
        if blocks > 0 {
            counted.push((rel, blocks));
        }
    }
    counted.sort();
    let pinned: Vec<(String, usize)> = PINNED.iter().map(|&(f, n)| (f.to_string(), n)).collect();
    // ROADMAP records these counts; a change to them is a change to the
    // audit surface and moves both.
    assert_eq!(counted, pinned, "unsafe blocks per file");
}

#[test]
fn grace_comm_says_unsafe_only_in_its_audited_module() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/comm/src");
    for entry in fs::read_dir(&src).expect("grace-comm sources") {
        let path = entry.expect("directory entry").path();
        if path.file_name().is_some_and(|n| n == "shm.rs") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("source file");
        assert!(!text.contains("unsafe"), "{} says unsafe", path.display());
    }
}

#[test]
fn the_audit_itself_sees_a_bare_block() {
    let bare = "fn f(p: *const u8) -> u8 {\n    // reads p\n    unsafe { *p }\n}\n";
    assert_eq!(audit(bare), (1, vec![3]));
    let fine = "    // SAFETY: caller passes a live pointer\n    // (see above).\n    let v = unsafe { *p };\n";
    assert_eq!(audit(fine), (1, vec![]));
}
