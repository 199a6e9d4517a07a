//! Seeded random-number-generator helpers.
//!
//! Every stochastic component in the workspace (data generation, weight
//! initialisation, randomized compressors, mini-batch sampling) takes an
//! explicit RNG so experiments are bit-reproducible across runs and across
//! the sequential/threaded execution modes. This module centralises RNG
//! construction and the derivation of per-worker / per-tensor substreams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates the workspace-standard RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives an independent substream from `(seed, stream)`.
///
/// Used to give each worker (and each named tensor within a worker) its own
/// deterministic stream, so adding a worker does not perturb the randomness
/// that other workers observe.
///
/// # Example
///
/// ```
/// use grace_tensor::rng::substream;
/// use rand::Rng;
///
/// let mut a = substream(7, 0);
/// let mut b = substream(7, 1);
/// let (x, y): (f64, f64) = (a.gen(), b.gen());
/// assert_ne!(x, y);
/// ```
pub fn substream(seed: u64, stream: u64) -> StdRng {
    // SplitMix64 finalizer decorrelates nearby (seed, stream) pairs.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

/// Derives a substream keyed by a string name (e.g. a tensor name).
pub fn named_substream(seed: u64, name: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    substream(seed, h)
}

/// Estimated element-operations of one sample, for [`crate::pool`]: fills
/// under 4 096 samples — a dataset row, a low-rank factor — run inline. A
/// certified sample takes ≈11 ns with AVX2 (2-vCPU x86-64 host), so that is
/// ≈45 µs, about what a parked helper needs to wake and take its range.
const GAUSSIAN_WORK: usize = 8;

/// Fills a slice with samples from `N(0, std²)`.
///
/// Element `k` is `rand_distr::Normal`'s sample of draws `2k + 1` and
/// `2k + 2`, bit for bit, whichever thread of [`crate::pool`] computes it
/// and whichever [`crate::simd`] level runs: each range computes its draws
/// from the counter [`StdRng::skip`] returns, and `rng` ends as
/// `2 · out.len()` draws would leave it. The certified kernel is
/// [`crate::simd::fill_gaussian_at`]; [`fill_gaussian_per_element`] is the
/// loop it replaced.
///
/// # Panics
///
/// Panics if `std` is not finite.
pub fn fill_gaussian(rng: &mut StdRng, out: &mut [f32], std: f32) {
    let std = std.max(f32::MIN_POSITIVE);
    assert!(std.is_finite(), "std must be finite");
    let counter = rng.skip(2 * out.len() as u64);
    let lvl = crate::simd::level();
    let work = GAUSSIAN_WORK * out.len();
    crate::pool::split_rows(out, out.len(), 64, work, |range, out| {
        let at = counter.wrapping_add((2 * range.start as u64).wrapping_mul(StdRng::GAMMA));
        crate::simd::fill_gaussian_at(lvl, at, std, out);
    });
}

/// [`fill_gaussian`]'s oracle: `Normal::sample` per element, in order, on
/// `rng` itself.
#[doc(hidden)]
pub fn fill_gaussian_per_element(rng: &mut StdRng, out: &mut [f32], std: f32) {
    use rand_distr::Distribution;
    let normal =
        rand_distr::Normal::new(0.0f32, std.max(f32::MIN_POSITIVE)).expect("std must be finite");
    for v in out {
        *v = normal.sample(rng);
    }
}

/// Fills a slice with samples from `U(lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn fill_uniform<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32], lo: f32, hi: f32) {
    assert!(lo < hi, "uniform range must be non-empty");
    for v in out {
        *v = rng.gen_range(lo..hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(5);
        let mut b = seeded(5);
        let (x, y): (u64, u64) = (a.gen(), b.gen());
        assert_eq!(x, y);
    }

    #[test]
    fn substreams_are_independent_and_deterministic() {
        let mut a1 = substream(1, 0);
        let mut a2 = substream(1, 0);
        let mut b = substream(1, 1);
        let (x1, x2, y): (u64, u64, u64) = (a1.gen(), a2.gen(), b.gen());
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
    }

    #[test]
    fn named_substreams_differ_by_name() {
        let mut a = named_substream(1, "layer0/w");
        let mut b = named_substream(1, "layer0/b");
        let (x, y): (u64, u64) = (a.gen(), b.gen());
        assert_ne!(x, y);
    }

    #[test]
    fn gaussian_fill_has_plausible_moments() {
        let mut rng = seeded(11);
        let mut buf = vec![0.0f32; 20_000];
        fill_gaussian(&mut rng, &mut buf, 2.0);
        let mean = buf.iter().sum::<f32>() / buf.len() as f32;
        let var = buf.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / buf.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn uniform_fill_in_range() {
        let mut rng = seeded(3);
        let mut buf = vec![0.0f32; 1000];
        fill_uniform(&mut rng, &mut buf, -0.5, 0.5);
        assert!(buf.iter().all(|v| (-0.5..0.5).contains(v)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn uniform_rejects_empty_range() {
        let mut rng = seeded(3);
        fill_uniform(&mut rng, &mut [0.0], 1.0, 1.0);
    }
}
