//! Element selection: top-k, threshold, random-k, and the
//! `sparsify`/`desparsify` helpers of the GRACE API (§IV-B).
//!
//! Sparsification methods (§III-B) select a subset of gradient elements and
//! transmit two rank-1 tensors: the selected values and their indices.

use crate::simd::{self, Level};
use crate::{Shape, Tensor};
use rand::seq::index::sample;
use rand::Rng;

/// A sparse view of a tensor: selected values and their flat indices, plus the
/// original shape needed by `desparsify`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSelection {
    /// Selected element values.
    pub values: Vec<f32>,
    /// Flat (row-major) indices of the selected elements.
    pub indices: Vec<u32>,
    /// Shape of the original tensor.
    pub shape: Shape,
}

impl SparseSelection {
    /// Number of selected elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no elements were selected.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Returns the flat indices of the `k` elements of largest absolute value.
///
/// Ties are broken towards lower indices, matching a stable selection. If
/// `k >= len`, all indices are returned. The returned indices are sorted
/// ascending (the order the paper's Figure 4 example transmits them in).
///
/// Complexity is `O(d)` expected via `select_nth_unstable`, not `O(d log d)`.
pub fn top_k_indices(values: &[f32], k: usize) -> Vec<u32> {
    let mut scratch = Vec::new();
    top_k_indices_with(values, k, &mut scratch)
}

/// [`top_k_indices`] with a caller-pooled scratch buffer.
///
/// Steady-state callers (the per-bucket compress loop) keep the scratch on
/// the compressor, so the selection allocates nothing but the index vector
/// it returns (which is moved into the payload).
///
/// The selection key is the absolute-value *bit pattern* (sign bit cleared,
/// compared as an integer), which orders finite floats exactly like `|v|`
/// and places NaN above +∞. The selection works on a candidate set:
///
/// * the keys are cut into chunks of [`CHUNK`] and each chunk's largest key
///   is kept (the last chunk may be partial);
/// * `M`, the k-th largest chunk maximum, bounds the k-th largest key `P`
///   from below — the chunks holding the k largest maxima contribute k
///   distinct elements, each `≥ M`, so `P ≥ M`;
/// * every key `≥ P` therefore sits in a chunk whose maximum is `≥ M`, and
///   those chunks' keys `≥ M` are the candidates, collected in index order;
/// * `P` is selected exactly among the candidates, and an ascending sweep
///   over them keeps every key above `P` plus the lowest-index ties at `P`.
///
/// Every element the stable selection keeps is a candidate, so the result
/// is the same for every input. Where the candidate set cannot be small —
/// fewer than `2k` chunks, or more than half the chunks reaching `M` (an
/// all-equal input) — the full quickselect
/// ([`top_k_indices_quickselect_at`]) runs instead.
pub fn top_k_indices_with(values: &[f32], k: usize, scratch: &mut Vec<u32>) -> Vec<u32> {
    let d = values.len();
    if k >= d {
        return (0..d as u32).collect();
    }
    if k == 0 {
        return Vec::new();
    }
    let chunks = d.div_ceil(CHUNK);
    if chunks < 2 * k {
        return top_k_indices_quickselect_at(simd::level(), values, k, scratch);
    }
    scratch.clear();
    let (full, tail) = values.as_chunks::<CHUNK>();
    scratch.extend(full.iter().map(|c| chunk_max_key(c)));
    if !tail.is_empty() {
        scratch.push(chunk_max_key(tail));
    }
    // M, the k-th largest chunk maximum, selected on a copy so the maxima
    // stay in chunk order.
    scratch.extend_from_within(..chunks);
    let (_, &mut bound, _) = scratch[chunks..].select_nth_unstable(chunks - k);
    scratch.truncate(chunks);
    let hot = scratch.iter().filter(|&&m| m >= bound).count();
    if 2 * hot > chunks {
        return top_k_indices_quickselect_at(simd::level(), values, k, scratch);
    }

    // Candidate indices in index order beside their keys, which P is
    // selected on (and so permuted). Hot chunks and candidates are found
    // as bit masks: both are sparse, so a compare per key and a scan per
    // set bit beat a branch per key.
    let room = hot * CHUNK;
    scratch.resize(chunks + 2 * room, 0);
    let (maxima, rest) = scratch.split_at_mut(chunks);
    let (candidates, keys) = rest.split_at_mut(room);
    let mut n = 0;
    for (group, group_maxima) in maxima.chunks(64).enumerate() {
        let mut hot_chunks = mask_at_or_above(group_maxima.iter().copied(), bound);
        while hot_chunks != 0 {
            let start = (group * 64 + hot_chunks.trailing_zeros() as usize) * CHUNK;
            hot_chunks &= hot_chunks - 1;
            let chunk = &values[start..d.min(start + CHUNK)];
            let mut picked = mask_at_or_above(chunk.iter().map(|&v| abs_key(v)), bound);
            while picked != 0 {
                let j = picked.trailing_zeros() as usize;
                picked &= picked - 1;
                candidates[n] = (start + j) as u32;
                keys[n] = abs_key(chunk[j]);
                n += 1;
            }
        }
    }
    let (candidates, keys) = (&candidates[..n], &mut keys[..n]);
    let (_, &mut pivot, right) = keys.select_nth_unstable(n - k);
    let above = right.iter().filter(|&&b| b > pivot).count();
    let mut ties = k - above;
    let mut out = Vec::with_capacity(k);
    for &i in candidates.iter() {
        let b = abs_key(values[i as usize]);
        if b > pivot {
            out.push(i);
        } else if b == pivot && ties > 0 {
            out.push(i);
            ties -= 1;
        }
    }
    out
}

/// Keys per chunk in [`top_k_indices_with`]'s candidate-set selection.
pub const CHUNK: usize = 16;

/// The selection key: the absolute-value bit pattern.
fn abs_key(v: f32) -> u32 {
    v.to_bits() & 0x7FFF_FFFF
}

/// Bit `j` set where the `j`-th of at most 64 keys is `>= bound`.
fn mask_at_or_above(keys: impl Iterator<Item = u32>, bound: u32) -> u64 {
    keys.enumerate()
        .fold(0, |mask, (j, key)| mask | u64::from(key >= bound) << j)
}

/// The largest key of a chunk.
fn chunk_max_key(chunk: &[f32]) -> u32 {
    chunk.iter().fold(0, |m, &v| m.max(abs_key(v)))
}

/// Top-k by a full quickselect, with the key extraction's dispatch level
/// explicit: every key is extracted, `select_nth_unstable` runs over all
/// `d` of them, and a final ascending sweep collects the strictly-greater
/// elements plus the lowest-index ties. It is [`top_k_indices_with`]'s
/// fallback, and the oracle its candidate-set selection is tested and
/// benchmarked against.
#[doc(hidden)]
pub fn top_k_indices_quickselect_at(
    lvl: Level,
    values: &[f32],
    k: usize,
    scratch: &mut Vec<u32>,
) -> Vec<u32> {
    let d = values.len();
    if k >= d {
        return (0..d as u32).collect();
    }
    if k == 0 {
        return Vec::new();
    }
    scratch.clear();
    scratch.resize(d, 0);
    simd::abs_bits_into_at(lvl, values, scratch);
    // The k-th largest key is the (d-k)-th smallest. After partitioning,
    // every key strictly above the pivot sits in the right partition.
    let (_, &mut pivot, right) = scratch.select_nth_unstable(d - k);
    let above = right.iter().filter(|&&b| b > pivot).count();
    let mut ties = k - above;
    let mut out = Vec::with_capacity(k);
    for (i, &v) in values.iter().enumerate() {
        let b = v.to_bits() & 0x7FFF_FFFF;
        if b > pivot {
            out.push(i as u32);
        } else if b == pivot && ties > 0 {
            out.push(i as u32);
            ties -= 1;
        }
    }
    out
}

/// Returns the flat indices of elements with `|v| >= threshold`, ascending.
pub fn threshold_indices(values: &[f32], threshold: f32) -> Vec<u32> {
    values
        .iter()
        .enumerate()
        .filter(|(_, v)| v.abs() >= threshold)
        .map(|(i, _)| i as u32)
        .collect()
}

/// Returns `k` distinct random flat indices in `0..d`, ascending.
///
/// This is the selection step of Random-k (§III-B). The paper observes that
/// index generation is the dominant cost of Random-k on CPU (Fig. 8); this
/// function is intentionally the honest equivalent (Floyd-style sampling from
/// `rand`) whose cost is charged to the simulated clock.
///
/// # Panics
///
/// Panics if `k > d`.
pub fn random_k_indices<R: Rng + ?Sized>(rng: &mut R, d: usize, k: usize) -> Vec<u32> {
    assert!(k <= d, "cannot sample {k} indices from {d} elements");
    let mut idx: Vec<u32> = sample(rng, d, k).into_iter().map(|i| i as u32).collect();
    idx.sort_unstable();
    idx
}

/// Gathers the values at `indices` from a tensor (the `sparsify` helper).
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn gather(tensor: &Tensor, indices: &[u32]) -> Vec<f32> {
    let mut out = vec![0.0f32; indices.len()];
    crate::simd::gather_f32(tensor.as_slice(), indices, &mut out);
    out
}

/// Builds a [`SparseSelection`] from a tensor and selected indices.
pub fn sparsify(tensor: &Tensor, indices: Vec<u32>) -> SparseSelection {
    let values = gather(tensor, &indices);
    SparseSelection {
        values,
        indices,
        shape: tensor.shape().clone(),
    }
}

/// Restores a dense tensor from a sparse selection, filling zeros elsewhere
/// (the `desparsify` helper).
///
/// # Panics
///
/// Panics if values/indices lengths differ or an index is out of bounds.
pub fn desparsify(selection: &SparseSelection) -> Tensor {
    scatter(
        &selection.values,
        &selection.indices,
        selection.shape.clone(),
    )
}

/// [`desparsify`] from borrowed parts: a zero tensor of `shape` with
/// `values[j]` written at `indices[j]`. The output is the only allocation.
///
/// # Panics
///
/// Panics if values/indices lengths differ or an index is out of bounds.
pub fn scatter(values: &[f32], indices: &[u32], shape: Shape) -> Tensor {
    assert_eq!(
        values.len(),
        indices.len(),
        "values/indices length mismatch"
    );
    let mut out = Tensor::zeros(shape);
    let data = out.as_mut_slice();
    for (&i, &v) in indices.iter().zip(values) {
        data[i as usize] = v;
    }
    out
}

/// Estimates the `ratio`-quantile of `|values|` from a random sample of at
/// most `sample_size` elements.
///
/// DGC (§III-B) uses sampled top-k threshold estimation to avoid a full sort;
/// this is the equivalent primitive.
pub fn sampled_abs_threshold<R: Rng + ?Sized>(
    rng: &mut R,
    values: &[f32],
    keep_ratio: f64,
    sample_size: usize,
) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len().min(sample_size.max(1));
    let mut sampled: Vec<f32> = if values.len() <= n {
        values.iter().map(|v| v.abs()).collect()
    } else {
        sample(rng, values.len(), n)
            .into_iter()
            .map(|i| values[i].abs())
            .collect()
    };
    let keep = ((sampled.len() as f64) * keep_ratio).ceil().max(1.0) as usize;
    let keep = keep.min(sampled.len());
    // Threshold = the keep-th largest absolute value in the sample.
    sampled.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    sampled[keep - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn top_k_selects_largest_magnitudes() {
        // Figure 4 of the paper: top-3 of this vector is {-3.5, 4.9, 9.0}.
        let g = vec![
            -0.1, 1.2, 3.0, 0.0, -3.5, 4.9, 0.88, 0.0, 0.0, -0.7, 1.0, 0.0, 9.0, -0.3,
        ];
        let idx = top_k_indices(&g, 3);
        assert_eq!(idx, vec![4, 5, 12]);
    }

    #[test]
    fn top_k_edge_cases() {
        let g = vec![1.0, 2.0, 3.0];
        assert_eq!(top_k_indices(&g, 0), Vec::<u32>::new());
        assert_eq!(top_k_indices(&g, 3), vec![0, 1, 2]);
        assert_eq!(top_k_indices(&g, 10), vec![0, 1, 2]);
        assert_eq!(top_k_indices(&[], 2), Vec::<u32>::new());
    }

    #[test]
    fn top_k_partition_is_correct_on_random_data() {
        let mut rng = StdRng::seed_from_u64(7);
        use rand::Rng;
        let g: Vec<f32> = (0..500).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let k = 50;
        let idx = top_k_indices(&g, k);
        assert_eq!(idx.len(), k);
        let min_kept = idx
            .iter()
            .map(|&i| g[i as usize].abs())
            .fold(f32::INFINITY, f32::min);
        let selected: std::collections::HashSet<u32> = idx.iter().copied().collect();
        for (i, v) in g.iter().enumerate() {
            if !selected.contains(&(i as u32)) {
                assert!(v.abs() <= min_kept + 1e-6);
            }
        }
    }

    #[test]
    fn top_k_breaks_ties_towards_lower_indices() {
        let g = vec![1.0, -1.0, 1.0, -1.0];
        assert_eq!(top_k_indices(&g, 2), vec![0, 1]);
        assert_eq!(top_k_indices(&g, 3), vec![0, 1, 2]);
        // Mixed: one strictly larger element plus two-way ties at 1.0.
        let g = vec![1.0, 2.0, -1.0, 1.0];
        assert_eq!(top_k_indices(&g, 2), vec![0, 1]);
    }

    #[test]
    fn top_k_with_reuses_scratch_and_matches() {
        let mut rng = StdRng::seed_from_u64(11);
        use rand::Rng;
        let g: Vec<f32> = (0..300).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut scratch = Vec::new();
        for k in [1, 7, 50, 299] {
            let pooled = top_k_indices_with(&g, k, &mut scratch);
            assert_eq!(pooled, top_k_indices(&g, k), "k = {k}");
        }
        assert!(scratch.capacity() >= g.len());
    }

    #[test]
    fn top_k_handles_negative_zero_and_denormals() {
        let g = vec![-0.0, 1.0e-42, 0.0, -1.0e-42, 2.0e-42];
        // |2e-42| > |1e-42| == |-1e-42| > |±0|, ties to lower index.
        assert_eq!(top_k_indices(&g, 2), vec![1, 4]);
        assert_eq!(top_k_indices(&g, 3), vec![1, 3, 4]);
    }

    #[test]
    fn threshold_selection() {
        let g = vec![0.5, -2.0, 1.0, -0.1];
        assert_eq!(threshold_indices(&g, 1.0), vec![1, 2]);
        assert_eq!(threshold_indices(&g, 10.0), Vec::<u32>::new());
        assert_eq!(threshold_indices(&g, 0.0).len(), 4);
    }

    #[test]
    fn random_k_is_distinct_sorted_in_range() {
        let mut rng = StdRng::seed_from_u64(42);
        let idx = random_k_indices(&mut rng, 1000, 100);
        assert_eq!(idx.len(), 100);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.iter().all(|&i| (i as usize) < 1000));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn random_k_rejects_oversample() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = random_k_indices(&mut rng, 3, 4);
    }

    #[test]
    fn sparsify_desparsify_roundtrip() {
        let t = Tensor::new(vec![1.0, 0.0, -2.0, 3.0], Shape::matrix(2, 2));
        let sel = sparsify(&t, vec![0, 2, 3]);
        assert_eq!(sel.values, vec![1.0, -2.0, 3.0]);
        let restored = desparsify(&sel);
        assert_eq!(restored.shape(), t.shape());
        assert_eq!(restored.as_slice(), &[1.0, 0.0, -2.0, 3.0]);
    }

    #[test]
    fn desparsify_fills_zeros() {
        let sel = SparseSelection {
            values: vec![5.0],
            indices: vec![1],
            shape: Shape::vector(3),
        };
        assert_eq!(desparsify(&sel).as_slice(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn sampled_threshold_brackets_exact_quantile() {
        let mut rng = StdRng::seed_from_u64(3);
        let g: Vec<f32> = (0..10_000).map(|i| (i as f32) / 10_000.0).collect();
        // Keep top 10%: exact threshold is 0.9; sampling should land close.
        let t = sampled_abs_threshold(&mut rng, &g, 0.1, 2000);
        assert!((t - 0.9).abs() < 0.05, "threshold {t} too far from 0.9");
    }

    #[test]
    fn sampled_threshold_small_inputs() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(sampled_abs_threshold(&mut rng, &[], 0.5, 10), 0.0);
        let one = sampled_abs_threshold(&mut rng, &[-2.0], 0.01, 10);
        assert_eq!(one, 2.0);
    }
}
