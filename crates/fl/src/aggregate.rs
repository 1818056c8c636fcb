//! Model aggregation.

use fp_tensor::Tensor;

/// Weighted average of flat parameter vectors (FedAvg, paper Eq. 1).
///
/// Weights are renormalized over the participating clients. The vectors
/// are only read, so callers pass whatever they hold — owned `Vec`s or
/// slices borrowed from the updates.
///
/// # Panics
///
/// Panics if `updates` is empty, lengths disagree, or total weight is not
/// positive.
pub fn weighted_average<V: AsRef<[f32]>>(updates: &[(V, f32)]) -> Vec<f32> {
    assert!(!updates.is_empty(), "no updates to aggregate");
    let len = updates[0].0.as_ref().len();
    let total: f64 = updates.iter().map(|(_, w)| *w as f64).sum();
    assert!(total > 0.0, "total weight must be positive");
    let mut out = vec![0.0f64; len];
    for (vals, w) in updates {
        let vals = vals.as_ref();
        assert_eq!(vals.len(), len, "update length mismatch");
        let wn = *w as f64 / total;
        for (o, &v) in out.iter_mut().zip(vals.iter()) {
            *o += wn * v as f64;
        }
    }
    out.into_iter().map(|v| v as f32).collect()
}

/// Weighted mean of BatchNorm running statistics: one `(mean, var)` pair
/// per BN layer and update, every update listing the same layers in the
/// same order (`CascadeModel::bn_stats` / `bn_stats_range`). Weights are
/// renormalized over the given updates in `f32` and each update is folded
/// in with one `axpy(w / total, ·)` per tensor, in update order — the
/// arithmetic every FedAvg-style merge in the workspace has always used
/// for BN statistics, so model hashes do not depend on which caller
/// averaged them.
///
/// `None` when there is nothing to average: no updates, or models without
/// BN layers.
pub fn average_bn_stats<S: AsRef<[(Tensor, Tensor)]>>(
    updates: &[(S, f32)],
) -> Option<Vec<(Tensor, Tensor)>> {
    let template = updates.first()?.0.as_ref();
    if template.is_empty() {
        return None;
    }
    let total: f32 = updates.iter().map(|(_, w)| *w).sum();
    let mut out: Vec<(Tensor, Tensor)> = template
        .iter()
        .map(|(m, v)| (Tensor::zeros(m.shape()), Tensor::zeros(v.shape())))
        .collect();
    for (stats, w) in updates {
        let wn = *w / total;
        for ((mean, var), (m, v)) in out.iter_mut().zip(stats.as_ref()) {
            mean.axpy(wn, m);
            var.axpy(wn, v);
        }
    }
    Some(out)
}

// ------------------------------------------------------- robust statistics
//
// The math behind `crate::byz`'s `RobustRule`s, kept here as pure
// deterministic functions over flat vectors: f64 accumulation, `total_cmp`
// orderings with client-index tie-breaks, no RNG — so robust aggregation
// inherits the same thread-invariance guarantees as FedAvg.
//
// # Trimmed mean: sort once, in blocks
//
// The order a coordinate's `n` values are trimmed and summed in is
// `total_cmp`, ties by update index. Both halves fit one integer:
//
// * **key transform** — `total_cmp` is the signed order of the f32 bits
//   with the magnitude bits of negatives flipped; flipping the sign bit of
//   every value as well (`bits ^ (negative ? !0 : 1 << 31)`, `order_key`)
//   makes it the *unsigned* order. The map is a bijection (`key_value`
//   undoes it), so the value — NaN payload and zero sign included — is
//   read back from the key and the updates are touched once;
// * **why any sort is the same sort** — the update index rides in the low
//   word of a `u64` whose high word is that key, so no two keys of one
//   coordinate are equal and their ascending order is *the* permutation
//   `sort_by(total_cmp.then(index))` produces: stability, algorithm and
//   evaluation order cannot show. That frees the sort to be a fixed
//   comparator network (Batcher's merge exchange, generated once per call
//   for the actual `n`) with no data-dependent branch;
// * **block layout** — `BLOCK` coordinates at a time, update `i`'s slice is
//   read contiguously into row `i` of an `n × BLOCK` key matrix (16 KB at
//   n = 16: L1-resident, rows on cache lines). One comparator `(a, b)` is
//   then an elementwise `min` / `max` over rows `a` and `b` — `BLOCK`
//   independent coordinates per comparator, eight to a 512-bit vector —
//   and afterwards row `r` holds every coordinate's rank-`r` key.
//
// Trimmed counts and the two f64 sums then run down the ranks row by row,
// every column abreast: per column that is the chain `Iterator::sum`
// evaluates — from its `-0.0` identity, which is observable (an all-`-0.0`
// coordinate averages to `-0.0`) — in rank order. The whole block kernel is
// integer `min` / `max` plus IEEE `+ * /` in a fixed order, so compiling it
// for wider vectors (`trim_block_avx512` / `_avx2`) cannot change a bit of
// any number it returns; `tests::trimmed_mean_reference` is the old
// per-coordinate `sort_by` body it is held to.

/// Coordinates sorted together by [`trimmed_mean`].
const BLOCK: usize = 128;

/// Maps f32 bits to a `u32` whose unsigned order is `f32::total_cmp`.
#[inline(always)]
fn order_key(v: f32) -> u32 {
    let b = v.to_bits();
    b ^ (((b as i32 >> 31) as u32) | 0x8000_0000)
}

/// Inverse of [`order_key`] (bit-exact, NaN payloads included).
#[inline(always)]
fn key_value(k: u32) -> f32 {
    f32::from_bits(k ^ (((!k as i32 >> 31) as u32) | 0x8000_0000))
}

/// Batcher's merge-exchange sorting network for `n` wires (Knuth 5.2.2,
/// Algorithm M — valid for every `n`, not just powers of two): applying
/// the compare-exchanges `(a, b)`, `a < b`, in order leaves the minimum on
/// wire `a` each time and the wires ascending at the end.
fn merge_exchange_network(n: usize) -> Vec<(usize, usize)> {
    let mut net = Vec::new();
    if n < 2 {
        return net;
    }
    let top = n.next_power_of_two() / 2;
    let mut p = top;
    while p > 0 {
        let (mut q, mut r, mut d) = (top, 0, p);
        loop {
            net.extend((0..n - d).filter(|i| i & p == r).map(|i| (i, i + d)));
            if q == p {
                break;
            }
            (d, q, r) = (q - p, q / 2, p);
        }
        p /= 2;
    }
    net
}

/// Runs `net` over the rows of an `n × BLOCK` key matrix, `width` columns
/// of it: afterwards every column is ascending down the rows. Integer
/// `min` / `max` only, so every instruction set this is compiled for
/// computes the same keys.
#[inline(always)]
fn sort_columns(keys: &mut [u64], width: usize, net: &[(usize, usize)]) {
    for &(a, b) in net {
        let (head, tail) = keys.split_at_mut(b * BLOCK);
        let lo = &mut head[a * BLOCK..a * BLOCK + width];
        for (x, y) in lo.iter_mut().zip(&mut tail[..width]) {
            (*x, *y) = ((*x).min(*y), (*x).max(*y));
        }
    }
}

/// One block: packs `rows` (update `i`'s values from the block's first
/// coordinate on) into `keys`, sorts the columns, counts the trimmed ranks
/// into `trimmed` and averages the surviving ones into `outs`.
#[inline(always)]
fn trim_block(
    net: &[(usize, usize)],
    w64: &[f64],
    keys: &mut [u64],
    rows: &[&[f32]],
    g: usize,
    trimmed: &mut [usize],
    outs: &mut [f32],
) {
    let (n, width) = (rows.len(), outs.len());
    for (i, (row, src)) in keys.chunks_exact_mut(BLOCK).zip(rows).enumerate() {
        for (k, &v) in row.iter_mut().zip(&src[..width]) {
            *k = (order_key(v) as u64) << 32 | i as u64;
        }
    }
    sort_columns(keys, width, net);
    let ranks = || keys.chunks_exact(BLOCK);
    for row in ranks().take(g).chain(ranks().skip(n - g)) {
        for &k in &row[..width] {
            trimmed[k as u32 as usize] += 1;
        }
    }
    // `Iterator::sum` over f64 folds from -0.0, one column at a time; this
    // is the same chain per column, the block's columns abreast.
    let (mut wsum, mut sum) = ([-0.0f64; BLOCK], [-0.0f64; BLOCK]);
    for row in ranks().skip(g).take(n - 2 * g) {
        for ((ws, sm), &k) in wsum.iter_mut().zip(&mut sum).zip(&row[..width]) {
            // The low word is the row the key was packed in, so the lookup
            // cannot miss; spelling the miss as weight 0 rather than a
            // panic keeps the loop free of an exit edge, i.e. vectorisable.
            let w = *w64.get(k as u32 as usize).unwrap_or(&0.0);
            *ws += w;
            *sm += w * key_value((k >> 32) as u32) as f64;
        }
    }
    for ((o, sm), ws) in outs.iter_mut().zip(sum).zip(wsum) {
        *o = (sm / ws) as f32;
    }
}

/// Defines `$name` as [`trim_block`] compiled with `$feature` enabled (the
/// body is `#[inline(always)]`, so it is re-vectorised for the wider unit).
macro_rules! trim_block_for {
    ($name:ident, $feature:literal) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        fn $name(
            net: &[(usize, usize)],
            w64: &[f64],
            keys: &mut [u64],
            rows: &[&[f32]],
            g: usize,
            trimmed: &mut [usize],
            outs: &mut [f32],
        ) {
            trim_block(net, w64, keys, rows, g, trimmed, outs)
        }
    };
}
// 8-lane `u64` `min` / `max`; 4-lane compare + blend.
trim_block_for!(trim_block_avx512, "avx512f");
trim_block_for!(trim_block_avx2, "avx2");

/// The signature of [`trim_block`]; `unsafe` because an instance may need a
/// CPU feature.
type TrimBlock =
    unsafe fn(&[(usize, usize)], &[f64], &mut [u64], &[&[f32]], usize, &mut [usize], &mut [f32]);

/// The widest [`trim_block`] instance the running CPU supports.
fn trim_block_for_this_cpu() -> TrimBlock {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return trim_block_avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return trim_block_avx2;
        }
    }
    trim_block
}

/// Coordinate-wise trimmed mean: per coordinate, the `g` lowest and `g`
/// highest values are discarded and the survivors averaged with their
/// (renormalized) weights. Returns the robust vector plus, per update,
/// how many of its coordinates were trimmed away — the evidence trail the
/// ledger's `filtered` field is built from.
///
/// Ties are broken by update index, so the result is a pure function of
/// the inputs.
///
/// # Panics
///
/// Panics if `updates` is empty, lengths disagree, or trimming would
/// discard every value (`2g ≥ n`).
pub fn trimmed_mean(
    updates: &[(usize, Vec<f32>)],
    weights: &[f32],
    g: usize,
) -> (Vec<f32>, Vec<usize>) {
    assert!(!updates.is_empty(), "no updates to aggregate");
    assert_eq!(updates.len(), weights.len(), "weight length mismatch");
    let n = updates.len();
    assert!(2 * g < n, "trimming {g} from each end empties {n} updates");
    let len = updates[0].1.len();
    for (_, u) in updates {
        assert_eq!(u.len(), len, "update length mismatch");
    }
    assert!(
        u32::try_from(n).is_ok(),
        "update index must fit a key's low word"
    );
    let net = merge_exchange_network(n);
    let w64: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
    let mut out = vec![0.0f32; len];
    let mut trimmed = vec![0usize; n];
    // Rows start on cache lines: a 64-byte vector of keys that straddles
    // two halves the speed of every comparator.
    let mut buf = vec![0u64; n * BLOCK + 7];
    let lead = buf.as_ptr().align_offset(64).min(7);
    let keys = &mut buf[lead..lead + n * BLOCK];
    let kernel = trim_block_for_this_cpu();
    let mut rows: Vec<&[f32]> = Vec::with_capacity(n);
    for (block, outs) in out.chunks_mut(BLOCK).enumerate() {
        rows.clear();
        rows.extend(updates.iter().map(|(_, u)| &u[block * BLOCK..]));
        // SAFETY: `trim_block_for_this_cpu` hands out an instance compiled
        // for a CPU feature only after detecting that feature.
        unsafe { kernel(&net, &w64, keys, &rows, g, &mut trimmed, outs) };
    }
    (out, trimmed)
}

/// Krum scores (Blanchard et al. 2017): each update's score is the sum of
/// its squared distances to its `n − f − 2` nearest peers — honest
/// updates cluster, so poisoned outliers score high. Lower is better.
///
/// # Panics
///
/// Panics if `n ≤ f + 2` (the score is undefined) or lengths disagree.
pub fn krum_scores(updates: &[(usize, Vec<f32>)], f: usize) -> Vec<f64> {
    let n = updates.len();
    assert!(n > f + 2, "krum needs n > f + 2 (n = {n}, f = {f})");
    let closest = n - f - 2;
    let mut dist = vec![0.0f64; n * n];
    for a in 0..n {
        for b in (a + 1)..n {
            let d: f64 = updates[a]
                .1
                .iter()
                .zip(&updates[b].1)
                .map(|(&x, &y)| {
                    let d = x as f64 - y as f64;
                    d * d
                })
                .sum();
            dist[a * n + b] = d;
            dist[b * n + a] = d;
        }
    }
    (0..n)
        .map(|a| {
            let mut row: Vec<f64> = (0..n)
                .filter(|&b| b != a)
                .map(|b| dist[a * n + b])
                .collect();
            row.sort_by(f64::total_cmp);
            row[..closest].iter().sum()
        })
        .collect()
}

/// Clips each update's ℓ2 norm to `clip × median(norms)`, in place, and
/// reports how many updates were actually rescaled. The threshold scales
/// with the honest cluster (median is robust to a minority of inflated
/// norms), so no absolute magnitude needs tuning.
///
/// # Panics
///
/// Panics if `updates` is empty or `clip` is not positive and finite.
pub fn clip_to_median_norm(updates: &mut [(usize, Vec<f32>)], clip: f64) -> usize {
    assert!(!updates.is_empty(), "no updates to clip");
    assert!(clip.is_finite() && clip > 0.0, "clip must be positive");
    let mut norms: Vec<f64> = updates
        .iter()
        .map(|(_, u)| u.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt())
        .collect();
    let mut sorted = norms.clone();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    };
    let threshold = clip * median;
    let mut applied = 0;
    for ((_, u), norm) in updates.iter_mut().zip(&mut norms) {
        if *norm > threshold && *norm > 0.0 {
            let k = (threshold / *norm) as f32;
            for v in u.iter_mut() {
                *v *= k;
            }
            applied += 1;
        }
    }
    applied
}

/// Entry-wise partial averaging (paper Eq. 16–17, after
/// HeteroFL/FedRolex): each global entry is the weighted mean over the
/// clients that actually held it; uncovered entries keep their previous
/// value.
///
/// Clients deposit their (scattered) contributions with
/// [`PartialAccumulator::add`]; [`PartialAccumulator::finish`] divides by
/// accumulated weight.
#[derive(Debug, Clone)]
pub struct PartialAccumulator {
    sum: Vec<f64>,
    weight: Vec<f64>,
}

impl PartialAccumulator {
    /// Creates an accumulator for a flat global vector of length `len`.
    pub fn new(len: usize) -> Self {
        PartialAccumulator {
            sum: vec![0.0; len],
            weight: vec![0.0; len],
        }
    }

    /// Length of the underlying vector.
    pub fn len(&self) -> usize {
        self.sum.len()
    }

    /// Whether the accumulator is zero-length.
    pub fn is_empty(&self) -> bool {
        self.sum.is_empty()
    }

    /// Adds `value · weight` at global position `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn add(&mut self, idx: usize, value: f32, weight: f32) {
        self.sum[idx] += value as f64 * weight as f64;
        self.weight[idx] += weight as f64;
    }

    /// Adds a whole dense slice starting at `offset` (convenience for
    /// fully covered tensors).
    pub fn add_dense(&mut self, offset: usize, values: &[f32], weight: f32) {
        for (i, &v) in values.iter().enumerate() {
            self.add(offset + i, v, weight);
        }
    }

    /// Resolves the average: covered entries become
    /// `sum/weight`, uncovered entries copy `prev`.
    ///
    /// # Panics
    ///
    /// Panics if `prev` has the wrong length.
    pub fn finish(&self, prev: &[f32]) -> Vec<f32> {
        assert_eq!(prev.len(), self.sum.len(), "prev length mismatch");
        self.sum
            .iter()
            .zip(self.weight.iter())
            .zip(prev.iter())
            .map(|((&s, &w), &p)| if w > 0.0 { (s / w) as f32 } else { p })
            .collect()
    }

    /// Fraction of entries covered by at least one client.
    pub fn coverage(&self) -> f32 {
        if self.weight.is_empty() {
            return 0.0;
        }
        let covered = self.weight.iter().filter(|&&w| w > 0.0).count();
        covered as f32 / self.weight.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn weighted_average_respects_weights() {
        let avg = weighted_average(&[(vec![0.0, 10.0], 1.0), (vec![10.0, 0.0], 3.0)]);
        assert_eq!(avg, vec![7.5, 2.5]);
    }

    #[test]
    fn weighted_average_of_identical_is_identity() {
        let v = vec![1.0, -2.0, 3.5];
        let avg = weighted_average(&[(v.clone(), 0.3), (v.clone(), 0.7)]);
        for (a, b) in avg.iter().zip(&v) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn partial_average_keeps_uncovered_entries() {
        let mut acc = PartialAccumulator::new(3);
        acc.add(0, 4.0, 1.0);
        acc.add(0, 8.0, 1.0);
        acc.add(2, 5.0, 2.0);
        let out = acc.finish(&[9.0, 9.0, 9.0]);
        assert_eq!(out, vec![6.0, 9.0, 5.0]);
        assert!((acc.coverage() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn partial_average_weighted_entries() {
        let mut acc = PartialAccumulator::new(1);
        acc.add(0, 1.0, 1.0);
        acc.add(0, 4.0, 3.0);
        let out = acc.finish(&[0.0]);
        assert!((out[0] - 3.25).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "no updates")]
    fn empty_average_rejected() {
        weighted_average::<Vec<f32>>(&[]);
    }

    #[test]
    fn trimmed_mean_discards_extremes() {
        // One poisoned update (client 9) dominates both coordinates; the
        // g=1 trim removes it from every coordinate.
        let updates = vec![
            (3, vec![1.0, 2.0]),
            (5, vec![1.2, 2.2]),
            (7, vec![0.8, 1.8]),
            (9, vec![100.0, -100.0]),
        ];
        let (out, trimmed) = trimmed_mean(&updates, &[1.0; 4], 1);
        assert!(out[0] < 2.0, "poison must not drag the mean: {}", out[0]);
        assert!(out[1] > 0.0, "poison must not drag the mean: {}", out[1]);
        // The poisoned update is trimmed on every coordinate; one honest
        // update pays the other tail per coordinate.
        assert_eq!(trimmed[3], 2);
        assert_eq!(trimmed.iter().sum::<usize>(), 2 + 2);
    }

    #[test]
    fn trimmed_mean_with_zero_trim_is_weighted_average() {
        let updates = vec![(0, vec![0.0, 10.0]), (1, vec![10.0, 0.0])];
        let (out, trimmed) = trimmed_mean(&updates, &[1.0, 3.0], 0);
        assert_eq!(out, vec![7.5, 2.5]);
        assert_eq!(trimmed, vec![0, 0]);
    }

    /// The pre-blocking body, kept as the meaning of [`trimmed_mean`]:
    /// sort each coordinate's indices by `total_cmp`, ties by index.
    fn trimmed_mean_reference(
        updates: &[(usize, Vec<f32>)],
        weights: &[f32],
        g: usize,
    ) -> (Vec<f32>, Vec<usize>) {
        let n = updates.len();
        let mut out = vec![0.0f32; updates[0].1.len()];
        let mut trimmed = vec![0usize; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for (j, o) in out.iter_mut().enumerate() {
            order.clear();
            order.extend(0..n);
            order.sort_by(|&a, &b| updates[a].1[j].total_cmp(&updates[b].1[j]).then(a.cmp(&b)));
            for &i in order[..g].iter().chain(&order[n - g..]) {
                trimmed[i] += 1;
            }
            let survivors = &order[g..n - g];
            let wsum: f64 = survivors.iter().map(|&i| weights[i] as f64).sum();
            let sum: f64 = survivors
                .iter()
                .map(|&i| weights[i] as f64 * updates[i].1[j] as f64)
                .sum();
            *o = (sum / wsum) as f32;
        }
        (out, trimmed)
    }

    /// Values a robust rule must order without surprises: a few distinct
    /// finite values (ties everywhere), both zeros, both infinities, NaNs
    /// of both signs with distinct payloads, and the odd arbitrary pattern.
    fn awkward_value(rng: &mut impl Rng) -> f32 {
        const SPECIAL: [u32; 10] = [
            0x0000_0000, // +0.0
            0x8000_0000, // -0.0
            0x7F80_0000, // +inf
            0xFF80_0000, // -inf
            0x7FC0_0000, // +NaN
            0xFFC0_0001, // -NaN
            0x7FA5_5A5A, // +NaN, signalling payload
            0x0000_0001, // smallest subnormal
            0x3F80_0000, // 1.0
            0xBF80_0000, // -1.0
        ];
        match rng.gen_range(0..4u32) {
            0 => f32::from_bits(SPECIAL[rng.gen_range(0..SPECIAL.len())]),
            1 => (rng.gen_range(0..3i32) - 1) as f32 * 0.5,
            2 => f32::from_bits(rng.gen::<u32>()),
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    /// The bits of every number, `None` for a NaN: which operand's payload
    /// a NaN carries out of `a + b` is the code generator's choice (Rust
    /// leaves it unspecified), so that — and only that — may differ between
    /// two builds of even the same kernel.
    fn bits(v: &[f32]) -> Vec<Option<u32>> {
        v.iter()
            .map(|x| (!x.is_nan()).then_some(x.to_bits()))
            .collect()
    }

    #[test]
    fn plane_kernel_trimmed_mean_matches_reference_bitwise() {
        let mut rng = fp_tensor::seeded_rng(0x7219);
        for case in 0..120 {
            let n = rng.gen_range(2..41usize);
            // Short, one block exactly, and block multiples ± a ragged tail.
            let len = match case % 4 {
                0 => rng.gen_range(0..BLOCK),
                1 => BLOCK,
                2 => BLOCK + rng.gen_range(1..BLOCK),
                _ => 2 * BLOCK + rng.gen_range(0..3usize),
            };
            let plain = case % 3 == 0;
            let updates: Vec<(usize, Vec<f32>)> = (0..n)
                .map(|i| {
                    let v = (0..len).map(|_| match plain {
                        true => rng.gen_range(-1.0f32..1.0),
                        false => awkward_value(&mut rng),
                    });
                    (100 + i, v.collect())
                })
                .collect();
            let weights: Vec<f32> = (0..n)
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen_range(0.01f32..5.0),
                })
                .collect();
            for g in 0..n.div_ceil(2) {
                let (want, want_trimmed) = trimmed_mean_reference(&updates, &weights, g);
                let (got, got_trimmed) = trimmed_mean(&updates, &weights, g);
                assert_eq!(
                    got_trimmed, want_trimmed,
                    "case {case}: n {n} len {len} g {g}"
                );
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "case {case}: n {n} len {len} g {g}"
                );
            }
        }
    }

    #[test]
    fn plane_kernel_trimmed_mean_keeps_negative_zero() {
        // `Iterator::sum` starts from -0.0, so a coordinate whose survivors
        // are all -0.0 averages to -0.0 — a fold from 0.0 would lose it.
        let updates: Vec<(usize, Vec<f32>)> = (0..5).map(|i| (i, vec![-0.0; 3])).collect();
        let (out, _) = trimmed_mean(&updates, &[1.0; 5], 1);
        assert!(
            out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()),
            "{out:?}"
        );
    }

    #[test]
    fn plane_kernel_order_key_is_total_cmp_and_invertible() {
        let mut rng = fp_tensor::seeded_rng(5);
        let vals: Vec<f32> = (0..4000).map(|_| awkward_value(&mut rng)).collect();
        for pair in vals.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert_eq!(
                order_key(a).cmp(&order_key(b)),
                a.total_cmp(&b),
                "{a:?} vs {b:?}"
            );
            assert_eq!(key_value(order_key(a)).to_bits(), a.to_bits());
        }
    }

    #[test]
    fn plane_kernel_network_sorts_every_width() {
        let mut rng = fp_tensor::seeded_rng(11);
        for n in 1..=64usize {
            let net = merge_exchange_network(n);
            assert!(net.iter().all(|&(a, b)| a < b && b < n), "n {n}");
            let mut inputs: Vec<Vec<u64>> = vec![
                vec![7; n],
                (0..n as u64).rev().collect(),
                (0..n as u64).collect(),
            ];
            for _ in 0..24 {
                inputs.push((0..n).map(|_| rng.gen::<u64>()).collect());
                inputs.push((0..n).map(|_| rng.gen_range(0..3u64)).collect());
            }
            // One input per column of the block, so the test drives the
            // kernel's own row-wise comparator, ragged width included.
            let width = inputs.len();
            assert!(width < BLOCK);
            let mut keys = vec![u64::MAX; n * BLOCK];
            for (c, input) in inputs.iter().enumerate() {
                for (r, &v) in input.iter().enumerate() {
                    keys[r * BLOCK + c] = v;
                }
            }
            sort_columns(&mut keys, width, &net);
            for (c, input) in inputs.iter_mut().enumerate() {
                input.sort();
                let got: Vec<u64> = (0..n).map(|r| keys[r * BLOCK + c]).collect();
                assert_eq!(&got, input, "n {n} column {c}");
            }
            assert!(
                (0..n).all(|r| keys[r * BLOCK + width..(r + 1) * BLOCK]
                    .iter()
                    .all(|&k| k == u64::MAX)),
                "n {n}: columns past the width were touched"
            );
        }
    }

    #[test]
    fn krum_scores_isolate_the_outlier() {
        let updates = vec![
            (0, vec![1.0, 1.0]),
            (1, vec![1.1, 0.9]),
            (2, vec![0.9, 1.1]),
            (3, vec![1.0, 0.95]),
            (4, vec![-50.0, 50.0]),
        ];
        let scores = krum_scores(&updates, 1);
        let worst = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(worst, 4, "outlier must score highest: {scores:?}");
    }

    #[test]
    #[should_panic(expected = "krum needs n > f + 2")]
    fn krum_rejects_degenerate_population() {
        krum_scores(&[(0, vec![1.0]), (1, vec![2.0]), (2, vec![3.0])], 1);
    }

    #[test]
    fn median_norm_clip_rescales_only_outliers() {
        let mut updates = vec![
            (0, vec![3.0, 4.0]),   // norm 5
            (1, vec![0.0, 5.0]),   // norm 5
            (2, vec![30.0, 40.0]), // norm 50
        ];
        let applied = clip_to_median_norm(&mut updates, 2.0);
        assert_eq!(applied, 1);
        // Median norm 5, threshold 10: the outlier lands on the sphere.
        let n2: f32 = updates[2].1.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((n2 - 10.0).abs() < 1e-4, "clipped norm {n2}");
        assert_eq!(updates[0].1, vec![3.0, 4.0], "inliers untouched");
    }
}
