//! The kernels' `unsafe` stays audited: every `unsafe {` block in
//! `grace-tensor`'s `simd.rs`, `linalg.rs` and `pool.rs` and in
//! `grace-comm`'s `shm.rs` carries a `SAFETY:` comment in the comment lines
//! directly above it, and no file names a fused multiply-add intrinsic (one
//! rounding where the scalar reference has two — the bit-identity contract
//! forbids it). `pool.rs` is the one place the intra-op pool hands a helper
//! a borrowed job and disjoint ranges of one output; `shm.rs` is the one
//! place `grace-comm` maps shared memory, and no other file of that crate
//! says `unsafe` at all.

use std::fs;
use std::path::Path;

const FILES: [&str; 4] = [
    "crates/tensor/src/simd.rs",
    "crates/tensor/src/linalg.rs",
    "crates/tensor/src/pool.rs",
    "crates/comm/src/shm.rs",
];

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

#[test]
fn every_unsafe_block_has_a_safety_comment_and_nothing_is_fused() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut total = 0;
    for rel in FILES {
        let text = fs::read_to_string(root.join(rel)).expect("kernel source");
        let (blocks, bare) = audit(&text);
        assert!(
            bare.is_empty(),
            "{rel}: `unsafe {{` without SAFETY: above, lines {bare:?}"
        );
        assert!(!text.contains("fmadd"), "{rel} names an FMA intrinsic");
        total += blocks;
    }
    // ROADMAP records this total; a change to it is a change to the audit
    // surface and moves both.
    assert_eq!(total, 33, "unsafe blocks in {FILES:?}");
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
