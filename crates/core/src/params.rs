//! Algorithm parameters.

use crate::sample::SampleEngine;
use crate::select::SelectEngine;
use ripples_diffusion::{DiffusionModel, StorageConfig};

/// Parameters of one influence-maximization run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImmParams {
    /// Seed-set size `k`.
    pub k: u32,
    /// Accuracy parameter `ε` of the `(1 − 1/e − ε)` guarantee. Smaller is
    /// more accurate and more expensive (Figure 2). Must be in `(0, 1)`.
    pub epsilon: f64,
    /// Failure-probability exponent `ℓ`: the guarantee holds with
    /// probability `1 − 1/n^ℓ`. The paper (following Tang et al.) uses 1.
    pub ell: f64,
    /// The diffusion model.
    pub model: DiffusionModel,
    /// Master seed for all randomness in the run.
    pub seed: u64,
    /// Optional sketch-sizing override for serve mode: when set, θ estimation
    /// (and the estimation-round selections it runs) are sized for
    /// `max(k, k_max)` while the *final* selection still returns `k` seeds.
    /// A resident sketch built once at `k_max` can then answer any
    /// `topk(k ≤ k_max)` query bitwise-identically to a fresh batch run with
    /// the same `k_max`, because the sampled collection is identical.
    /// `None` (the default) preserves the historical behavior exactly.
    pub k_max: Option<u32>,
    /// Greedy max-cover engine of the shared-memory engines' selection
    /// passes (CLI `--select`). Default [`SelectEngine::Auto`], the
    /// cost-model dispatch; every eager engine returns the same seeds. The
    /// distributed engines aggregate counters collectively and TIM⁺ always
    /// selects with the fused index, so they ignore it.
    pub select: SelectEngine,
    /// RRR sampling kernel of the replicated-graph engines (CLI `--sample`).
    /// Default [`SampleEngine::Reference`]; the fused kernel draws a
    /// different RNG schedule, so its seeds are statistically (not bitwise)
    /// equivalent. The distributed engines always sample per index.
    pub sample: SampleEngine,
    /// RRR storage backend (CLI `--rrr-store` / `--rrr-budget`). Default
    /// flat; every backend returns the same seeds.
    pub storage: StorageConfig,
}

impl ImmParams {
    /// Creates parameters with the paper's default `ℓ = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `ε ∉ (0, 1)`, or `ℓ ≤ 0`.
    #[must_use]
    pub fn new(k: u32, epsilon: f64, model: DiffusionModel, seed: u64) -> Self {
        let p = Self {
            k,
            epsilon,
            ell: 1.0,
            model,
            seed,
            k_max: None,
            select: SelectEngine::Auto,
            sample: SampleEngine::Reference,
            storage: StorageConfig::default(),
        };
        p.validate();
        p
    }

    /// Overrides `ℓ`.
    #[must_use]
    pub fn with_ell(mut self, ell: f64) -> Self {
        self.ell = ell;
        self.validate();
        self
    }

    /// Sizes the sketch for `k_max` queries (serve mode). See
    /// [`ImmParams::k_max`].
    ///
    /// # Panics
    ///
    /// Panics if `k_max == 0`.
    #[must_use]
    pub fn with_k_max(mut self, k_max: u32) -> Self {
        assert!(k_max > 0, "k_max must be positive");
        self.k_max = Some(k_max);
        self
    }

    /// Sets the selection engine. See [`ImmParams::select`].
    #[must_use]
    pub fn with_select(mut self, select: SelectEngine) -> Self {
        self.select = select;
        self
    }

    /// Sets the sampling kernel. See [`ImmParams::sample`].
    #[must_use]
    pub fn with_sample(mut self, sample: SampleEngine) -> Self {
        self.sample = sample;
        self
    }

    /// Sets the RRR storage backend. See [`ImmParams::storage`].
    #[must_use]
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    fn validate(&self) {
        assert!(self.k > 0, "k must be positive");
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "epsilon must be in (0, 1), got {}",
            self.epsilon
        );
        assert!(self.ell > 0.0, "ell must be positive");
    }

    /// The effective `k` for a graph with `n` vertices: requests larger than
    /// the vertex count clamp to `n` (every vertex becomes a seed).
    #[must_use]
    pub fn effective_k(&self, n: u32) -> u32 {
        self.k.min(n)
    }

    /// The `k` used to *size* the sketch (θ schedule and estimation-round
    /// selections): `max(k, k_max)` clamped to `n`. Equals
    /// [`ImmParams::effective_k`] whenever `k_max` is unset or `≤ k`, so
    /// batch runs are unaffected.
    #[must_use]
    pub fn sizing_k(&self, n: u32) -> u32 {
        self.k.max(self.k_max.unwrap_or(0)).min(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_defaults() {
        let p = ImmParams::new(50, 0.5, DiffusionModel::IndependentCascade, 7);
        assert_eq!(p.ell, 1.0);
        assert_eq!(p.k, 50);
        assert_eq!(p.select, SelectEngine::Auto);
        assert_eq!(p.sample, SampleEngine::Reference);
        assert_eq!(p.storage, StorageConfig::default());
    }

    #[test]
    fn effective_k_clamps() {
        let p = ImmParams::new(50, 0.5, DiffusionModel::IndependentCascade, 7);
        assert_eq!(p.effective_k(10), 10);
        assert_eq!(p.effective_k(100), 50);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = ImmParams::new(0, 0.5, DiffusionModel::IndependentCascade, 7);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn bad_epsilon_panics() {
        let _ = ImmParams::new(5, 1.5, DiffusionModel::IndependentCascade, 7);
    }

    #[test]
    #[should_panic(expected = "ell must be positive")]
    fn bad_ell_panics() {
        let _ = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 7).with_ell(0.0);
    }

    #[test]
    fn sizing_k_defaults_to_effective_k() {
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 7);
        assert_eq!(p.k_max, None);
        assert_eq!(p.sizing_k(100), p.effective_k(100));
        assert_eq!(p.sizing_k(3), 3);
    }

    #[test]
    fn sizing_k_takes_k_max() {
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 7).with_k_max(40);
        assert_eq!(p.sizing_k(100), 40);
        assert_eq!(p.effective_k(100), 5);
        assert_eq!(p.sizing_k(8), 8);
        // k_max smaller than k is inert.
        let q = ImmParams::new(50, 0.5, DiffusionModel::IndependentCascade, 7).with_k_max(10);
        assert_eq!(q.sizing_k(100), 50);
    }

    #[test]
    #[should_panic(expected = "k_max must be positive")]
    fn zero_k_max_panics() {
        let _ = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 7).with_k_max(0);
    }
}
