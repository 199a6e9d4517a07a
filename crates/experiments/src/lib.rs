//! Experiment harness: the experiments that regenerate every table and
//! figure of the paper (see DESIGN.md §4 for the index) and the machinery
//! they share.
//!
//! - [`figures`] — one function per experiment, behind `grace-exp <name>`;
//! - [`suite`] — the benchmark definitions (Table II analogs): model
//!   builder, dataset builder, optimizer policy, paper-scaled compute model;
//! - [`runner`] — runs one (benchmark × compressor) cell and returns the
//!   trainer's [`grace_core::RunResult`];
//! - [`report`] — fixed-width table printing and CSV output under
//!   `results/`.

pub mod figures;
pub mod report;
pub mod runner;
pub mod suite;
