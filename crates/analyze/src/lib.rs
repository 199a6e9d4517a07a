//! Post-processing for GRACE telemetry artefacts.
//!
//! Two analyses, both offline (no serde — parsing goes through
//! `grace-telemetry`'s validation-grade JSON parser):
//!
//! 1. **The run report** ([`report`]): where a run's time went and whether
//!    its compression was healthy, from one trace export or from the
//!    directory a traced `grace-launch` run or a tripped flight recorder
//!    leaves behind. One loader ([`merge::parse_rank_trace`]) reads every
//!    file; a directory's ranks are rebased onto the hub clock via the
//!    NTP-style offsets stamped in each file's header and written out as
//!    one fleet-wide Perfetto timeline with the health anomalies overlaid
//!    ([`merge`]). The report's critical path ([`critical`]) says, per
//!    step, how long each pipeline stage ran, how much of that time was
//!    *hidden* under another stage, and which stage's **exposed** time
//!    bounds the step. "Compression takes 40 ms" is not actionable;
//!    "compression exposes 3 ms per step and the collective bounds the
//!    other 12" is.
//! 2. **Bench regression check** ([`bench`]): diffs a freshly produced
//!    `results/bench_*.json` against a committed baseline with a tolerance
//!    band, for CI to fail (exit ≠ 0) when a ratio metric regresses.

pub mod bench;
pub mod critical;
pub mod merge;
pub mod report;
