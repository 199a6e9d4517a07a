//! NTP-style clock-offset estimation between a socket rank and the hub.
//!
//! Every process in a socket run stamps trace events against its own
//! monotonic clock (its telemetry epoch), so per-rank traces cannot be laid
//! on one timeline without knowing each rank's offset from a reference.
//! The hub is the natural reference: every rank already exchanges framed
//! request/response pairs with it.
//!
//! A sample is the classic four-timestamp exchange:
//!
//! ```text
//! rank  t0 ──────▶ hub h1 (request arrival)
//!                  hub h2 (response send)
//! rank  t3 ◀────── hub
//! ```
//!
//! All four are nanoseconds since each side's own telemetry epoch. Assuming
//! symmetric network delay, the midpoint estimate of `hub − rank` is
//!
//! ```text
//! offset = ((h1 + h2) − (t0 + t3)) / 2
//! rtt    = (t3 − t0) − (h2 − h1)
//! ```
//!
//! and the estimate's error is bounded by `rtt / 2`. The estimator
//! therefore keeps the sample with the smallest RTT — the exchange least
//! disturbed by queueing — exactly as NTP's clock filter does. Samples are
//! gathered during rendezvous (a dedicated ping burst) and refreshed by
//! every collective round-trip thereafter, so the estimate tightens as the
//! run proceeds.

/// One four-timestamp offset sample. All values are nanoseconds since the
/// respective process's telemetry epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSample {
    /// Request send time on the local (rank) clock.
    pub t0: u64,
    /// Request arrival time on the hub clock.
    pub h1: u64,
    /// Response send time on the hub clock.
    pub h2: u64,
    /// Response arrival time on the local (rank) clock.
    pub t3: u64,
}

impl ClockSample {
    /// Midpoint estimate of `hub_clock − local_clock` in nanoseconds.
    ///
    /// Computed in `i128` so epochs that differ by minutes (u64 ns values
    /// far apart) cannot overflow or underflow.
    pub fn offset_ns(&self) -> i64 {
        let hub = self.h1 as i128 + self.h2 as i128;
        let local = self.t0 as i128 + self.t3 as i128;
        ((hub - local) / 2) as i64
    }

    /// Network round-trip time of the sample (total elapsed minus hub
    /// processing), in nanoseconds. Saturates at zero if the timestamps
    /// are inconsistent.
    pub fn rtt_ns(&self) -> u64 {
        let total = self.t3.saturating_sub(self.t0) as i128;
        let hub_hold = self.h2.saturating_sub(self.h1) as i128;
        (total - hub_hold).max(0) as u64
    }
}

/// Minimum-RTT clock filter: folds [`ClockSample`]s and keeps the offset
/// from the sample with the smallest round-trip time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockEstimator {
    best: Option<(i64, u64)>, // (offset_ns, rtt_ns)
    samples: u64,
}

impl ClockEstimator {
    /// A fresh estimator with no samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one sample; keeps it iff its RTT beats the current best.
    pub fn fold(&mut self, sample: ClockSample) {
        self.samples += 1;
        let rtt = sample.rtt_ns();
        match self.best {
            Some((_, best_rtt)) if best_rtt <= rtt => {}
            _ => self.best = Some((sample.offset_ns(), rtt)),
        }
    }

    /// The current `(offset_ns, rtt_ns)` estimate, if any sample was folded.
    pub fn estimate(&self) -> Option<(i64, u64)> {
        self.best
    }

    /// How many samples have been folded.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulated pair of clocks: the hub's epoch is `offset` ns ahead of
    /// the rank's, the one-way delays are asymmetric, and the hub holds
    /// the request for `hold` ns.
    fn simulate(t0: u64, offset: i64, up: u64, hold: u64, down: u64) -> ClockSample {
        let h1 = (t0 as i128 + up as i128 + offset as i128) as u64;
        let h2 = h1 + hold;
        let t3 = (h2 as i128 - offset as i128 + down as i128) as u64;
        ClockSample { t0, h1, h2, t3 }
    }

    #[test]
    fn symmetric_delay_recovers_exact_offset() {
        for &offset in &[0i64, 7_000_000, -3_000_000_000] {
            let s = simulate(1_000_000, offset, 40_000, 5_000, 40_000);
            assert_eq!(s.offset_ns(), offset);
            assert_eq!(s.rtt_ns(), 80_000);
        }
    }

    #[test]
    fn asymmetry_error_is_bounded_by_half_rtt() {
        let offset = 123_456_789;
        let s = simulate(5_000_000, offset, 10_000, 1_000, 70_000);
        let err = (s.offset_ns() - offset).unsigned_abs();
        assert!(
            err <= s.rtt_ns() / 2,
            "err {err} > rtt/2 {}",
            s.rtt_ns() / 2
        );
    }

    #[test]
    fn estimator_keeps_min_rtt_sample() {
        let offset = -42_000_000;
        let mut est = ClockEstimator::new();
        // Noisy sample first (asymmetric, long RTT), then a clean one,
        // then another noisy one: the clean sample must win and stay.
        est.fold(simulate(0, offset, 900_000, 0, 100_000));
        est.fold(simulate(2_000_000, offset, 20_000, 1_000, 20_000));
        est.fold(simulate(4_000_000, offset, 100_000, 0, 800_000));
        let (got, rtt) = est.estimate().unwrap();
        assert_eq!(got, offset);
        assert_eq!(rtt, 40_000);
        assert_eq!(est.samples(), 3);
    }

    #[test]
    fn huge_epoch_gap_does_not_overflow() {
        // Hub booted an hour before the rank: offset near +3.6e12 ns.
        let offset = 3_600_000_000_000i64;
        let s = simulate(10, offset, 1_000, 0, 1_000);
        assert_eq!(s.offset_ns(), offset);
        // And the reverse direction (rank ahead of hub).
        let s = simulate(4_000_000_000_000, -3_600_000_000_000, 1_000, 0, 1_000);
        assert_eq!(s.offset_ns(), -3_600_000_000_000);
    }

    #[test]
    fn inconsistent_sample_saturates_rtt() {
        // Hub "held" longer than the whole round trip (clock skew mid-
        // sample): rtt clamps to 0 rather than wrapping.
        let s = ClockSample {
            t0: 100,
            h1: 0,
            h2: 10_000,
            t3: 200,
        };
        assert_eq!(s.rtt_ns(), 0);
    }
}
