//! Vose alias tables for O(1) multinomial sampling.
//!
//! CuLDA_CGS itself samples with index trees (see [`crate::index_tree`]), but
//! two other sampler families in the workspace draw from alias tables that
//! are rebuilt on a cadence and left *stale* in between:
//!
//! * the WarpLDA and AliasLDA CPU baselines (Metropolis–Hastings samplers
//!   whose word-proposal distribution comes from a per-word alias table), and
//! * the `AliasHybridSampler` GPU kernel in `culda-core`, which replaces the
//!   per-word dense index tree with a stale alias table plus an MH
//!   correction against the fresh φ.
//!
//! Both share the [`AliasTable`] construction and the [`StaleAliasProposal`]
//! bundle (table + the stale weights and mass the MH acceptance ratio
//! needs), so there is exactly one Walker/Vose implementation in the tree.

use rand::Rng;

/// A Vose alias table over `n` buckets.
///
/// Construction is `O(n)`; each draw is `O(1)` (one uniform, one comparison,
/// at most one indirection).
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance probability of each bucket.
    prob: Vec<f32>,
    /// Alias bucket used when the acceptance test fails.
    alias: Vec<u32>,
    /// Total weight the table was built from (kept for diagnostics).
    total: f64,
}

impl AliasTable {
    /// Build an alias table from unnormalised, non-negative weights.
    ///
    /// Zero-weight buckets are valid and will (up to floating-point error)
    /// never be drawn.  An all-zero weight vector yields a uniform table,
    /// matching the convention of the reference WarpLDA implementation.
    ///
    /// # Panics
    /// Panics if `weights` is empty.
    pub fn new(weights: &[f32]) -> Self {
        let mut table = AliasTable {
            prob: Vec::new(),
            alias: Vec::new(),
            total: 0.0,
        };
        table.rebuild(weights);
        table
    }

    /// Rebuild the table in place over new weights, of any length: the
    /// table [`AliasTable::new`] builds, in the buffers this one already
    /// holds, so a caller that rebuilds per word allocates only when the
    /// table grows.
    ///
    /// # Panics
    /// Panics if `weights` is empty.
    pub fn rebuild(&mut self, weights: &[f32]) {
        assert!(
            !weights.is_empty(),
            "cannot build an alias table over no weights"
        );
        let n = weights.len();
        let total: f64 = weights.iter().map(|&w| w as f64).sum();
        self.total = total;
        self.prob.clear();
        self.prob.resize(n, 1.0);
        self.alias.clear();
        self.alias.extend(0..n as u32);
        if total <= 0.0 {
            self.total = 0.0;
            return;
        }
        let (prob, alias) = (&mut self.prob, &mut self.alias);
        // Scale weights so the average bucket has weight 1.
        let scale = n as f64 / total;
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w as f64 * scale).collect();

        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &w) in scaled.iter().enumerate() {
            if w < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }

        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s as usize] = scaled[s as usize] as f32;
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Whatever is left (numerical leftovers) gets probability 1.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
    }

    /// Number of buckets.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no buckets (never constructed in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// The total weight the table was built from.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Draw one bucket index.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let n = self.prob.len();
        let i = rng.gen_range(0..n);
        if rng.gen::<f32>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Draw one bucket index from two externally supplied uniforms in
    /// `[0, 1)`: `u_bucket` picks the bucket, `u_accept` runs the acceptance
    /// test.  A pure function of its inputs, so callers feeding counter-based
    /// draws (the determinism contract of `culda-core`'s samplers) get the
    /// same bucket no matter which thread block or device evaluates it.
    #[inline]
    pub fn sample_with(&self, u_bucket: f32, u_accept: f32) -> usize {
        let n = self.prob.len();
        let i = ((u_bucket * n as f32) as usize).min(n - 1);
        if u_accept < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// A per-word *stale* proposal distribution: an alias table over the word's
/// unnormalised per-topic weights, kept together with those weights and
/// their sum, which a Metropolis–Hastings correction step needs to evaluate
/// the proposal density of an arbitrary topic.
///
/// Built by the AliasLDA baseline and the `AliasHybridSampler` kernel from
/// the word term `(φ_{k,v} + β) / (n_k + Vβ)` of the collapsed conditional;
/// "stale" because the table is rebuilt on a cadence while the counts keep
/// moving, with the staleness corrected by an MH acceptance step against the
/// fresh counts.
#[derive(Debug, Clone)]
pub struct StaleAliasProposal {
    table: AliasTable,
    /// The unnormalised weights the table was built from, kept in f64 so the
    /// MH acceptance ratio evaluates them at full precision.
    weights: Vec<f64>,
    /// Sum of `weights` (the stale proposal mass).
    mass: f64,
}

impl StaleAliasProposal {
    /// Bundle a weight vector into a proposal (table construction casts the
    /// weights to f32, exactly as the reference AliasLDA implementation
    /// does; the retained weights stay f64).
    ///
    /// # Panics
    /// Panics if `weights` is empty (see [`AliasTable::new`]).
    pub fn from_weights(weights: Vec<f64>) -> Self {
        let mut proposal = StaleAliasProposal {
            table: AliasTable::new(&[0.0]),
            weights,
            mass: 0.0,
        };
        proposal.refresh();
        proposal
    }

    /// Rebuild the proposal in place over new weights: the proposal
    /// [`StaleAliasProposal::from_weights`] builds, in the buffers this one
    /// already holds.
    ///
    /// # Panics
    /// Panics if `weights` is empty.
    pub fn rebuild(&mut self, weights: impl IntoIterator<Item = f64>) {
        self.weights.clear();
        self.weights.extend(weights);
        self.refresh();
    }

    /// The mass and the table of the current weights.
    fn refresh(&mut self) {
        self.mass = self.weights.iter().sum();
        let as_f32: Vec<f32> = self.weights.iter().map(|&x| x as f32).collect();
        self.table.rebuild(&as_f32);
    }

    /// The alias table over the stale weights.
    #[inline]
    pub fn table(&self) -> &AliasTable {
        &self.table
    }

    /// The stale weight of bucket `k`.
    #[inline]
    pub fn weight(&self, k: usize) -> f64 {
        self.weights[k]
    }

    /// The stale proposal mass (sum of all weights).
    #[inline]
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// Number of buckets.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when the proposal has no buckets (never constructed in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn empirical(weights: &[f32], draws: usize) -> Vec<f64> {
        let table = AliasTable::new(weights);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn uniform_weights_draw_uniformly() {
        let freq = empirical(&[1.0, 1.0, 1.0, 1.0], 80_000);
        for f in freq {
            assert!((f - 0.25).abs() < 0.02, "frequency {f} too far from 0.25");
        }
    }

    #[test]
    fn skewed_weights_follow_distribution() {
        let w = [8.0, 1.0, 1.0];
        let freq = empirical(&w, 120_000);
        assert!((freq[0] - 0.8).abs() < 0.02);
        assert!((freq[1] - 0.1).abs() < 0.02);
        assert!((freq[2] - 0.1).abs() < 0.02);
    }

    #[test]
    fn zero_weight_bucket_is_never_drawn() {
        let freq = empirical(&[0.0, 1.0, 3.0], 50_000);
        assert_eq!(freq[0], 0.0);
        assert!((freq[2] - 0.75).abs() < 0.02);
    }

    #[test]
    fn all_zero_weights_fall_back_to_uniform() {
        let freq = empirical(&[0.0, 0.0], 10_000);
        assert!((freq[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn single_bucket_always_selected() {
        let table = AliasTable::new(&[0.4]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn total_is_preserved() {
        let table = AliasTable::new(&[2.0, 3.0, 5.0]);
        assert!((table.total() - 10.0).abs() < 1e-9);
        assert_eq!(table.len(), 3);
    }

    #[test]
    #[should_panic]
    fn empty_weights_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    fn sample_with_matches_the_distribution_and_is_pure() {
        let w = [6.0f32, 3.0, 1.0];
        let table = AliasTable::new(&w);
        // Purity: same uniforms, same bucket.
        assert_eq!(table.sample_with(0.4, 0.7), table.sample_with(0.4, 0.7));
        // Sweep a deterministic grid of uniforms; the empirical frequencies
        // must follow the weights.
        let mut counts = [0usize; 3];
        let n = 400;
        for a in 0..n {
            for b in 0..n {
                let u1 = (a as f32 + 0.5) / n as f32;
                let u2 = (b as f32 + 0.5) / n as f32;
                counts[table.sample_with(u1, u2)] += 1;
            }
        }
        let total = (n * n) as f64;
        assert!((counts[0] as f64 / total - 0.6).abs() < 0.01);
        assert!((counts[1] as f64 / total - 0.3).abs() < 0.01);
        assert!((counts[2] as f64 / total - 0.1).abs() < 0.01);
        // Edge uniforms stay in range.
        assert!(table.sample_with(0.9999999, 0.9999999) < 3);
        assert!(table.sample_with(0.0, 0.0) < 3);
    }

    #[test]
    fn stale_proposal_keeps_weights_mass_and_table_consistent() {
        let p = StaleAliasProposal::from_weights(vec![2.0, 3.0, 5.0]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!((p.mass() - 10.0).abs() < 1e-12);
        assert_eq!(p.weight(1), 3.0);
        assert!((p.table().total() - 10.0).abs() < 1e-6);
        assert_eq!(p.table().len(), 3);
    }
}
