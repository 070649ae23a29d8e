//! Forward cascade simulation and Monte-Carlo spread estimation.
//!
//! This is the "diffusion process … described as a probabilistic variant of
//! the Breadth First Search from S" of the paper's problem statement. The
//! Monte-Carlo estimator is used (a) to score the seed sets the algorithms
//! return — the y-axis of Figure 1 — and (b) as the oracle inside the
//! Kempe-greedy/CELF baseline in `ripples-core`.

use crate::model::DiffusionModel;
use rayon::prelude::*;
use ripples_graph::{Graph, Vertex};
use ripples_rng::{SplitMix64, StreamFactory};

/// Result of playing one cascade.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CascadeOutcome {
    /// Activated vertices, in activation order (seeds first).
    pub activated: Vec<Vertex>,
    /// Number of time steps until convergence (`t_c` in the paper).
    pub steps: u32,
}

impl CascadeOutcome {
    /// Size of the influence set `|I(S)|`.
    #[must_use]
    pub fn size(&self) -> usize {
        self.activated.len()
    }
}

/// Plays one cascade from `seeds` under `model`.
///
/// Duplicate seeds are ignored; out-of-range seeds panic in debug builds and
/// are ignored in release builds.
#[must_use]
pub fn simulate_cascade(
    graph: &Graph,
    model: DiffusionModel,
    seeds: &[Vertex],
    rng: &mut SplitMix64,
) -> CascadeOutcome {
    match model {
        DiffusionModel::IndependentCascade => simulate_ic(graph, seeds, rng),
        DiffusionModel::LinearThreshold => simulate_lt(graph, seeds, rng),
    }
}

fn simulate_ic(graph: &Graph, seeds: &[Vertex], rng: &mut SplitMix64) -> CascadeOutcome {
    let n = graph.num_vertices() as usize;
    let mut active = vec![false; n];
    let mut activated: Vec<Vertex> = Vec::with_capacity(seeds.len());
    for &s in seeds {
        debug_assert!((s as usize) < n, "seed out of range");
        if (s as usize) < n && !active[s as usize] {
            active[s as usize] = true;
            activated.push(s);
        }
    }
    let mut frontier_start = 0usize;
    let mut steps = 0u32;
    while frontier_start < activated.len() {
        let frontier_end = activated.len();
        for i in frontier_start..frontier_end {
            let u = activated[i];
            let targets = graph.out_neighbors(u);
            let probs = graph.out_probs(u);
            for (&v, &p) in targets.iter().zip(probs) {
                if !active[v as usize] && rng.unit_f64() < f64::from(p) {
                    active[v as usize] = true;
                    activated.push(v);
                }
            }
        }
        frontier_start = frontier_end;
        if activated.len() > frontier_start {
            steps += 1;
        }
    }
    CascadeOutcome { activated, steps }
}

fn simulate_lt(graph: &Graph, seeds: &[Vertex], rng: &mut SplitMix64) -> CascadeOutcome {
    let n = graph.num_vertices() as usize;
    let mut active = vec![false; n];
    // Thresholds are drawn lazily on first contact: a vertex's threshold is
    // only observable once an in-neighbor activates, and lazy drawing keeps
    // the per-cascade cost proportional to touched vertices, not n.
    let mut threshold = vec![f32::NAN; n];
    let mut acc_weight = vec![0.0f32; n];
    let mut activated: Vec<Vertex> = Vec::with_capacity(seeds.len());
    for &s in seeds {
        debug_assert!((s as usize) < n, "seed out of range");
        if (s as usize) < n && !active[s as usize] {
            active[s as usize] = true;
            activated.push(s);
        }
    }
    let mut frontier_start = 0usize;
    let mut steps = 0u32;
    while frontier_start < activated.len() {
        let frontier_end = activated.len();
        for i in frontier_start..frontier_end {
            let u = activated[i];
            let targets = graph.out_neighbors(u);
            let probs = graph.out_probs(u);
            for (&v, &w) in targets.iter().zip(probs) {
                let vi = v as usize;
                if active[vi] {
                    continue;
                }
                if threshold[vi].is_nan() {
                    threshold[vi] = rng.unit_f64() as f32;
                }
                acc_weight[vi] += w;
                if acc_weight[vi] >= threshold[vi] {
                    active[vi] = true;
                    activated.push(v);
                }
            }
        }
        frontier_start = frontier_end;
        if activated.len() > frontier_start {
            steps += 1;
        }
    }
    CascadeOutcome { activated, steps }
}

/// Monte-Carlo estimate of the expected influence `E[|I(S)|]` over `trials`
/// independent cascades.
///
/// Trials run in parallel (rayon) with per-trial RNG streams from
/// `factory`, so the estimate is a pure function of
/// `(graph, model, seeds, trials, factory)` regardless of thread count.
///
/// ```
/// use ripples_diffusion::{estimate_spread, DiffusionModel};
/// use ripples_graph::GraphBuilder;
/// use ripples_rng::StreamFactory;
///
/// // 0 → 1 with certainty: seeding {0} always activates both vertices.
/// let mut b = GraphBuilder::new(2);
/// b.add_edge(0, 1, 1.0).unwrap();
/// let g = b.build().unwrap();
/// let spread = estimate_spread(
///     &g, DiffusionModel::IndependentCascade, &[0], 64, &StreamFactory::new(1),
/// );
/// assert!((spread - 2.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn estimate_spread(
    graph: &Graph,
    model: DiffusionModel,
    seeds: &[Vertex],
    trials: u32,
    factory: &StreamFactory,
) -> f64 {
    if trials == 0 || graph.num_vertices() == 0 {
        return 0.0;
    }
    let total: u64 = spread_samples(graph, model, seeds, trials, factory)
        .into_iter()
        .sum();
    total as f64 / f64::from(trials)
}

/// The per-trial cascade sizes behind [`estimate_spread`]: trial `t` of
/// `trials` is one cascade driven by `factory.trial_stream(t)`, so
/// `estimate_spread` is exactly the mean of this vector.
///
/// The correctness oracle consumes the individual samples to compute the
/// estimator's empirical variance, which turns "forward Monte-Carlo agrees
/// with the RRR coverage estimate" into a CLT-calibrated check instead of a
/// hand-tuned tolerance.
#[must_use]
pub fn spread_samples(
    graph: &Graph,
    model: DiffusionModel,
    seeds: &[Vertex],
    trials: u32,
    factory: &StreamFactory,
) -> Vec<u64> {
    if graph.num_vertices() == 0 {
        return vec![0; trials as usize];
    }
    (0..trials)
        .into_par_iter()
        .map(|t| {
            let mut rng = factory.trial_stream(u64::from(t));
            simulate_cascade(graph, model, seeds, &mut rng).size() as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_graph::GraphBuilder;

    fn path(n: u32, p: f32) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n - 1 {
            b.add_edge(u, u + 1, p).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn ic_deterministic_edges() {
        let g = path(5, 1.0);
        let mut rng = SplitMix64::new(1);
        let out = simulate_cascade(&g, DiffusionModel::IndependentCascade, &[0], &mut rng);
        assert_eq!(out.activated, vec![0, 1, 2, 3, 4]);
        assert_eq!(out.steps, 4);
    }

    #[test]
    fn ic_zero_edges() {
        let g = path(5, 0.0);
        let mut rng = SplitMix64::new(1);
        let out = simulate_cascade(&g, DiffusionModel::IndependentCascade, &[2], &mut rng);
        assert_eq!(out.activated, vec![2]);
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn duplicate_seeds_ignored() {
        let g = path(3, 1.0);
        let mut rng = SplitMix64::new(1);
        let out = simulate_cascade(&g, DiffusionModel::IndependentCascade, &[0, 0, 1], &mut rng);
        assert_eq!(out.activated.len(), 3);
    }

    #[test]
    fn lt_certain_weights_cascade() {
        // Weight-1 edges always exceed any threshold in [0,1).
        let g = path(4, 1.0);
        let mut rng = SplitMix64::new(9);
        let out = simulate_cascade(&g, DiffusionModel::LinearThreshold, &[0], &mut rng);
        assert_eq!(out.activated, vec![0, 1, 2, 3]);
    }

    #[test]
    fn lt_half_weight_frequency() {
        // Single in-edge of weight 0.5: activation prob = P(threshold ≤ 0.5).
        let g = path(2, 0.5);
        let n = 4000;
        let mut hits = 0;
        for t in 0..n {
            let mut rng = SplitMix64::new(1000 + t as u64);
            let out = simulate_cascade(&g, DiffusionModel::LinearThreshold, &[0], &mut rng);
            if out.size() == 2 {
                hits += 1;
            }
        }
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.5).abs() < 0.05, "freq {freq}");
    }

    #[test]
    fn ic_quarter_probability_frequency() {
        let g = path(2, 0.25);
        let n = 8000;
        let mut hits = 0;
        for t in 0..n {
            let mut rng = SplitMix64::new(5000 + t as u64);
            if simulate_cascade(&g, DiffusionModel::IndependentCascade, &[0], &mut rng).size() == 2
            {
                hits += 1;
            }
        }
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.03, "freq {freq}");
    }

    #[test]
    fn estimate_spread_exact_on_certain_path() {
        let g = path(6, 1.0);
        let f = StreamFactory::new(7);
        let s = estimate_spread(&g, DiffusionModel::IndependentCascade, &[0], 32, &f);
        assert!((s - 6.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_spread_deterministic() {
        let g = path(8, 0.4);
        let f = StreamFactory::new(42);
        let a = estimate_spread(&g, DiffusionModel::IndependentCascade, &[0], 500, &f);
        let b = estimate_spread(&g, DiffusionModel::IndependentCascade, &[0], 500, &f);
        assert_eq!(a, b);
    }

    #[test]
    fn estimate_spread_monotone_in_seeds() {
        let g = path(8, 0.4);
        let f = StreamFactory::new(42);
        let one = estimate_spread(&g, DiffusionModel::IndependentCascade, &[4], 800, &f);
        let two = estimate_spread(&g, DiffusionModel::IndependentCascade, &[0, 4], 800, &f);
        assert!(
            two >= one,
            "adding a seed cannot reduce spread: {one} vs {two}"
        );
    }

    #[test]
    fn spread_samples_mean_is_estimate() {
        let g = path(8, 0.4);
        let f = StreamFactory::new(13);
        let samples = spread_samples(&g, DiffusionModel::IndependentCascade, &[0], 300, &f);
        assert_eq!(samples.len(), 300);
        let mean = samples.iter().sum::<u64>() as f64 / 300.0;
        let est = estimate_spread(&g, DiffusionModel::IndependentCascade, &[0], 300, &f);
        assert!((mean - est).abs() < 1e-12);
        // Every sample includes at least the seed.
        assert!(samples.iter().all(|&s| s >= 1));
    }

    #[test]
    fn zero_trials_zero_spread() {
        let g = path(3, 1.0);
        let f = StreamFactory::new(1);
        assert_eq!(
            estimate_spread(&g, DiffusionModel::IndependentCascade, &[0], 0, &f),
            0.0
        );
    }

    #[test]
    fn empty_seed_set_spreads_nothing() {
        let g = path(3, 1.0);
        let f = StreamFactory::new(1);
        assert_eq!(
            estimate_spread(&g, DiffusionModel::IndependentCascade, &[], 16, &f),
            0.0
        );
    }
}
