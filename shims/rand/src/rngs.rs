//! Concrete generators.

use crate::{RngCore, SeedableRng};

/// The workspace-standard seeded generator: SplitMix64.
///
/// Unlike upstream `rand`'s ChaCha12-based `StdRng` this is a tiny
/// non-cryptographic generator, but it passes the statistical bar for
/// simulation use and is bit-reproducible across platforms, which is what
/// the workspace requires of it.
///
/// SplitMix64 is counter-based: the state advances by [`StdRng::GAMMA`] per
/// draw, and a draw is [`StdRng::mix`] of the advanced state. Draw `k`
/// (counting from 1) of a generator whose state is `c` is therefore
/// `mix(c + k·GAMMA)`, which lets a vector kernel compute a block of draws
/// in parallel after one [`StdRng::skip`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    state: u64,
}

impl StdRng {
    /// The counter increment per draw (the golden-ratio constant).
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// The two multipliers of [`StdRng::mix`], in order.
    pub const MIX: [u64; 2] = [0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB];

    /// The output function: the draw whose advanced state is `z`.
    #[inline(always)]
    pub fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(Self::MIX[0]);
        z = (z ^ (z >> 27)).wrapping_mul(Self::MIX[1]);
        z ^ (z >> 31)
    }

    /// Skips the next `n` draws: returns the state `c` before them and
    /// leaves the generator as `n` calls of `next_u64` would. The skipped
    /// draws are `mix(c + k·GAMMA)` for `k` in `1..=n`, each computed with
    /// wrapping arithmetic.
    pub fn skip(&mut self, n: u64) -> u64 {
        let counter = self.state;
        self.state = counter.wrapping_add(n.wrapping_mul(Self::GAMMA));
        counter
    }
}

impl RngCore for StdRng {
    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        Self::mix(self.state)
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(state: u64) -> Self {
        StdRng { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// States whose next few counters cross the `u64` wrap, plus a spread of
    /// ordinary ones.
    fn states() -> Vec<u64> {
        let mut out = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
        for k in 0..=18u64 {
            // `state + k·GAMMA` lands exactly on 0, and one either side.
            let wrap = 0u64.wrapping_sub(k.wrapping_mul(StdRng::GAMMA));
            out.extend([wrap.wrapping_sub(1), wrap, wrap.wrapping_add(1)]);
        }
        let mut seeds = StdRng::seed_from_u64(0x5eed);
        out.extend((0..64).map(|_| seeds.next_u64()));
        out
    }

    #[test]
    fn skip_matches_sequential_draws() {
        for state in states() {
            for n in 0..=17u64 {
                let mut sequential = StdRng::seed_from_u64(state);
                let draws: Vec<u64> = (0..n).map(|_| sequential.next_u64()).collect();
                let mut skipped = StdRng::seed_from_u64(state);
                let counter = skipped.skip(n);
                assert_eq!(counter, state, "skip returns the state before");
                assert_eq!(skipped, sequential, "state {state:#x} after {n}");
                for (k, &draw) in (1u64..).zip(&draws) {
                    let z = counter.wrapping_add(k.wrapping_mul(StdRng::GAMMA));
                    assert_eq!(StdRng::mix(z), draw, "state {state:#x} draw {k}");
                }
            }
        }
    }
}
