//! A vendored, deterministic TPE-like sampler.
//!
//! Tree-structured Parzen Estimation in the unit hypercube, in the spirit
//! of Bergstra et al. (and of the Optuna samplers the OpenROAD
//! flow-tuning literature builds on), reduced to what a reproducible
//! offline workspace needs:
//!
//! - **Startup phase:** the first `n_startup` suggestions are uniform
//!   draws from the cube (stratified per dimension is unnecessary at this
//!   scale; plain uniform keeps the draw count per suggestion fixed).
//! - **Model phase:** observed trials are split into *good* and *bad* by
//!   constrained non-domination rank (the best ~γ-quantile is good — a
//!   multi-objective stand-in for TPE's single-objective quantile split).
//!   Each dimension gets a pair of Parzen estimators — truncated uniform
//!   kernels around the good/bad coordinates for ordered dimensions,
//!   smoothed histograms for categorical ones. `n_candidates` points are
//!   drawn from the good model and the one maximizing the density ratio
//!   `l(x)/g(x)` is suggested.
//! - **Determinism:** every random decision comes from the caller-seeded
//!   [`lumen_desim::Rng`] (splitmix-based), and the number of draws per
//!   suggestion depends only on the trial count and the space shape —
//!   never on wall-clock, thread count, or map iteration order. The same
//!   seed and the same observation sequence produce the same suggestion
//!   sequence, bit for bit.

use crate::pareto::{ranks, Goal};
use crate::space::{Scale, SearchSpace};
use lumen_desim::Rng;

/// Kernel half-width in cube coordinates for ordered dimensions. Fixed
/// rather than data-driven: the per-dimension sample counts here are
/// small enough that Silverman-style bandwidths would collapse noisily.
const KERNEL_HALF_WIDTH: f64 = 0.12;

/// One observed trial: where it ran and how it scored.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The cube point that was evaluated.
    pub point: Vec<f64>,
    /// Its constrained objectives.
    pub goal: Goal,
}

/// The deterministic TPE-like sampler.
#[derive(Debug)]
pub struct Tpe {
    space: SearchSpace,
    rng: Rng,
    observations: Vec<Observation>,
    /// Suggestions before the Parzen model activates.
    pub n_startup: usize,
    /// Candidate draws per model-phase suggestion.
    pub n_candidates: usize,
    /// Fraction of trials labelled good (γ).
    pub gamma: f64,
}

impl Tpe {
    /// A sampler over `space`, deterministic in `seed`.
    pub fn new(space: SearchSpace, seed: u64) -> Tpe {
        Tpe {
            space,
            rng: Rng::seed_from(seed),
            observations: Vec::new(),
            n_startup: 8,
            n_candidates: 24,
            gamma: 0.25,
        }
    }

    /// The trials observed so far.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Records a finished trial.
    pub fn observe(&mut self, point: Vec<f64>, goal: Goal) {
        assert_eq!(point.len(), self.space.len(), "observation dimensionality");
        self.observations.push(Observation { point, goal });
    }

    /// Suggests the next cube point to evaluate.
    ///
    /// The sequence of suggestions is a pure function of the seed, the
    /// space shape, and the observation history — two samplers fed
    /// identically stay bit-identical forever:
    ///
    /// ```
    /// use lumen_dse::pareto::Goal;
    /// use lumen_dse::space::SearchSpace;
    /// use lumen_dse::tpe::Tpe;
    ///
    /// let mut a = Tpe::new(SearchSpace::paper_policy(), 42);
    /// let mut b = Tpe::new(SearchSpace::paper_policy(), 42);
    /// for trial in 0..12 {
    ///     let (pa, pb) = (a.suggest(), b.suggest());
    ///     assert_eq!(pa, pb);
    ///     assert!(pa.iter().all(|&u| (0.0..=1.0).contains(&u)));
    ///     // Score the trial however the harness likes; the sampler only
    ///     // sees the cube point and its objective vector.
    ///     let goal = Goal {
    ///         power: pa[0],
    ///         avg_latency: 40.0 + trial as f64,
    ///         p99_latency: 90.0 + trial as f64,
    ///         violation: 0.0,
    ///     };
    ///     a.observe(pa, goal);
    ///     b.observe(pb, goal);
    /// }
    /// ```
    pub fn suggest(&mut self) -> Vec<f64> {
        if self.observations.len() < self.n_startup {
            return (0..self.space.len()).map(|_| self.rng.next_f64()).collect();
        }
        let (good, bad) = self.split();
        let mut best: Option<(f64, Vec<f64>)> = None;
        for _ in 0..self.n_candidates {
            let cand = self.draw_from(&good);
            let score = self.log_density(&cand, &good) - self.log_density(&cand, &bad);
            // Strictly-greater keeps the earliest best candidate on ties,
            // so the choice is independent of float noise ordering.
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, cand));
            }
        }
        best.expect("n_candidates >= 1").1
    }

    /// Splits observations into (good, bad) cube points by constrained
    /// non-domination rank; ties at the γ-boundary resolve by submission
    /// order (earlier trials first), keeping the split deterministic.
    /// Returns owned copies (the sets are tiny) so the model phase can
    /// keep drawing from the rng while holding them.
    fn split(&self) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let goals: Vec<Goal> = self.observations.iter().map(|o| o.goal).collect();
        let rank = ranks(&goals);
        let mut order: Vec<usize> = (0..self.observations.len()).collect();
        order.sort_by_key(|&i| (rank[i], i));
        let n_good = ((self.observations.len() as f64 * self.gamma).ceil() as usize)
            .clamp(1, self.observations.len().saturating_sub(1).max(1));
        let good: Vec<Vec<f64>> = order[..n_good]
            .iter()
            .map(|&i| self.observations[i].point.clone())
            .collect();
        let bad: Vec<Vec<f64>> = order[n_good..]
            .iter()
            .map(|&i| self.observations[i].point.clone())
            .collect();
        (good, bad)
    }

    /// Draws one candidate from the Parzen model built on `centers`.
    fn draw_from(&mut self, centers: &[Vec<f64>]) -> Vec<f64> {
        let mut point = Vec::with_capacity(self.space.len());
        for (d, dim) in self.space.dims().iter().enumerate() {
            // One center per dimension (TPE factorizes across dims).
            let c = centers[self.rng.index(centers.len())][d];
            let u = match dim.scale {
                Scale::Categorical { n } => {
                    // Smoothed histogram: re-draw the observed category
                    // with high probability, else uniform over all.
                    if self.rng.chance(0.8) {
                        c
                    } else {
                        self.rng.index(n) as f64 / n as f64 + 0.5 / n as f64
                    }
                }
                _ => {
                    // Truncated uniform kernel around the center.
                    let lo = (c - KERNEL_HALF_WIDTH).max(0.0);
                    let hi = (c + KERNEL_HALF_WIDTH).min(1.0);
                    lo + self.rng.next_f64() * (hi - lo)
                }
            };
            point.push(u);
        }
        point
    }

    /// Log Parzen density of `point` under the model on `centers`
    /// (factorized over dimensions; a floor keeps empty models finite).
    fn log_density(&self, point: &[f64], centers: &[Vec<f64>]) -> f64 {
        if centers.is_empty() {
            return 0.0;
        }
        let mut log_p = 0.0;
        for (d, dim) in self.space.dims().iter().enumerate() {
            let x = point[d];
            let p = match dim.scale {
                Scale::Categorical { n } => {
                    let cat = (x * n as f64) as usize;
                    let hits = centers
                        .iter()
                        .filter(|c| (c[d] * n as f64) as usize == cat)
                        .count();
                    // Laplace smoothing keeps unseen categories possible.
                    (hits as f64 + 1.0) / (centers.len() as f64 + n as f64)
                }
                _ => {
                    let mut density = 0.0;
                    for c in centers {
                        let lo = (c[d] - KERNEL_HALF_WIDTH).max(0.0);
                        let hi = (c[d] + KERNEL_HALF_WIDTH).min(1.0);
                        if x >= lo && x <= hi {
                            density += 1.0 / ((hi - lo) * centers.len() as f64);
                        }
                    }
                    density.max(1e-12)
                }
            };
            log_p += p.ln();
        }
        log_p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;

    fn goal(power: f64) -> Goal {
        Goal {
            power,
            avg_latency: 30.0,
            p99_latency: 60.0,
            violation: 0.0,
        }
    }

    fn drive(seed: u64, trials: usize) -> Vec<Vec<f64>> {
        let mut tpe = Tpe::new(SearchSpace::paper_policy(), seed);
        let mut suggested = Vec::new();
        for _ in 0..trials {
            let p = tpe.suggest();
            // A synthetic objective: power grows with the first knob.
            let g = goal(0.2 + 0.6 * p[0]);
            tpe.observe(p.clone(), g);
            suggested.push(p);
        }
        suggested
    }

    #[test]
    fn suggestions_are_seed_deterministic() {
        assert_eq!(drive(42, 20), drive(42, 20));
        assert_ne!(drive(42, 20), drive(43, 20));
    }

    #[test]
    fn suggestions_stay_in_the_cube() {
        for p in drive(7, 25) {
            assert_eq!(p.len(), SearchSpace::paper_policy().len());
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)), "{p:?}");
        }
    }

    #[test]
    fn model_phase_exploits_the_good_region() {
        // Objective favors small first-knob values; post-startup
        // suggestions should concentrate there versus uniform (mean 0.5).
        let all = drive(11, 40);
        let model_phase = &all[8..];
        let mean: f64 = model_phase.iter().map(|p| p[0]).sum::<f64>() / model_phase.len() as f64;
        assert!(mean < 0.45, "TPE failed to exploit: mean x0 = {mean}");
    }

    #[test]
    fn split_is_deterministic_and_sized_by_gamma() {
        let mut tpe = Tpe::new(SearchSpace::paper_policy(), 5);
        for i in 0..12 {
            let p = vec![i as f64 / 12.0; tpe.space.len()];
            tpe.observe(p, goal(0.2 + i as f64 * 0.05));
        }
        let (good, bad) = tpe.split();
        assert_eq!(good.len(), 3); // ceil(12 × 0.25)
        assert_eq!(bad.len(), 9);
        // Lowest-power observations (smallest i) are the good set.
        assert!(good.iter().all(|g| g[0] < 0.25));
    }

    #[test]
    fn infeasible_trials_are_labelled_bad() {
        let mut tpe = Tpe::new(SearchSpace::paper_policy(), 5);
        for i in 0..8 {
            let mut g = goal(0.5);
            let p = vec![i as f64 / 8.0; tpe.space.len()];
            if i < 6 {
                g.violation = 0.1; // delivery floor missed
            } else {
                g.power = 0.3 + i as f64 * 0.01;
            }
            tpe.observe(p, g);
        }
        let (good, _) = tpe.split();
        // The two feasible trials (i = 6, 7) outrank every infeasible one.
        assert!(good.iter().all(|g| g[0] >= 6.0 / 8.0));
    }
}
