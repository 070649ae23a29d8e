//! Metamorphic checks: known input transformations with predictable effects
//! on the output, no second implementation required.
//!
//! * **Relabeling equivariance** — renaming vertices must not change what
//!   the algorithm computes. Exact at the selection layer (conjugating the
//!   tie-break through the permutation, see [`crate::reference`]), and
//!   statistical at the spread layer (same distribution, CLT tolerance).
//! * **Probability monotonicity** — raising IC edge probabilities can only
//!   increase expected influence of a fixed seed set (the coupling argument:
//!   every cascade realization on `G` embeds into one on the boosted graph).
//!   Checked statistically because per-edge draws are traversal-order
//!   dependent, so the coupling does not hold pathwise at fixed RNG seeds.
//! * **k-monotonicity** — greedy selection is incremental: the k-seed
//!   selection must be a prefix of the (k+1)-seed selection. Exact.
//! * **Submodularity** — marginal gains of greedy max-cover on a fixed
//!   collection are non-increasing. Exact.

use crate::config::OracleConfig;
use crate::differential::ENGINES;
use crate::reference::greedy_with_tie_order;
use crate::report::{CheckKind, OracleReport};
use ripples_core::select::select_with_engine;
use ripples_core::ImmParams;
use ripples_diffusion::{spread_samples, RrrCollection};
use ripples_graph::{permute_graph, Graph, GraphBuilder, Permutation, Vertex};
use ripples_rng::StreamFactory;

/// Applies `perm` to every set of `collection`, re-sorting each set so the
/// result honors the sorted-list invariant.
fn permute_collection(collection: &RrrCollection, perm: &Permutation) -> RrrCollection {
    let mut out = RrrCollection::new();
    let mut scratch: Vec<Vertex> = Vec::new();
    for set in collection.iter() {
        scratch.clear();
        scratch.extend(set.iter().map(|&v| perm.apply(v)));
        scratch.sort_unstable();
        out.push(&scratch);
    }
    out
}

/// Relabeling equivariance, exact half: for every engine,
/// `engine(π(R)) == π(greedy_ref(R, tie order conjugated by π))`.
pub(crate) fn check_relabeling_selection(
    report: &mut OracleReport,
    collection: &RrrCollection,
    n: u32,
    k: u32,
    cfg: &OracleConfig,
) {
    let kind = CheckKind::RelabelingEquivariance;
    let perm = Permutation::random(n, cfg.permutation_seed ^ report.master_seed);
    let relabeled = permute_collection(collection, &perm);
    let reference = greedy_with_tie_order(collection, n, k, |v| u64::from(perm.apply(v)));
    let expected_seeds = perm.apply_all(&reference.seeds);
    for engine in ENGINES {
        let (sel, _) = select_with_engine(engine, &relabeled, n, k, cfg.partitions[0]);
        report.check(
            kind,
            &format!("{}(π(R))", engine.tag()),
            sel.seeds == expected_seeds
                && sel.marginal_gains == reference.marginal_gains
                && sel.covered == reference.covered,
            || {
                format!(
                    "selection does not commute with relabeling: got {:?} gains {:?}, \
                     expected π(ref)={:?} gains {:?}",
                    sel.seeds, sel.marginal_gains, expected_seeds, reference.marginal_gains
                )
            },
        );
    }
}

/// Relabeling equivariance, statistical half: spread of `S` on `G` and of
/// `π(S)` on `π(G)` estimate the same expectation.
pub(crate) fn check_relabeling_spread(
    report: &mut OracleReport,
    graph: &Graph,
    params: &ImmParams,
    seeds: &[Vertex],
    cfg: &OracleConfig,
) {
    let kind = CheckKind::RelabelingEquivariance;
    if seeds.is_empty() {
        return;
    }
    let n = graph.num_vertices();
    let perm = Permutation::random(n, cfg.permutation_seed ^ report.master_seed);
    let relabeled = permute_graph(graph, &perm);
    let mapped = perm.apply_all(seeds);
    let base = spread_stats(graph, params, seeds, cfg, 0x5052_4541);
    let permuted = spread_stats(&relabeled, params, &mapped, cfg, 0x5052_4542);
    let tolerance = cfg.sigmas * (base.1 + permuted.1).sqrt() + 1e-9;
    report.check(
        kind,
        "spread(π(G), π(S))",
        (base.0 - permuted.0).abs() <= tolerance,
        || {
            format!(
                "spread not relabeling-invariant: {:.3} vs {:.3}, tolerance {tolerance:.3}",
                base.0, permuted.0
            )
        },
    );
}

/// Probability monotonicity: boosting every IC edge probability by
/// `p ← p + boost·(1 − p)` must not lower the spread of a fixed seed set.
pub(crate) fn check_probability_monotonicity(
    report: &mut OracleReport,
    graph: &Graph,
    params: &ImmParams,
    seeds: &[Vertex],
    cfg: &OracleConfig,
) {
    let kind = CheckKind::ProbabilityMonotonicity;
    if seeds.is_empty() || graph.num_edges() == 0 {
        return;
    }
    let mut builder = GraphBuilder::new(graph.num_vertices()).keep_self_loops();
    builder.reserve(graph.num_edges());
    for (u, v, p) in graph.edges() {
        let boosted = p + (cfg.boost as f32) * (1.0 - p);
        builder
            .add_edge(u, v, boosted.clamp(0.0, 1.0))
            .expect("boosted edge must stay valid");
    }
    let boosted = builder.build().expect("boosted graph must build");
    let base = spread_stats(graph, params, seeds, cfg, 0x424F_4F31);
    let high = spread_stats(&boosted, params, seeds, cfg, 0x424F_4F32);
    let tolerance = cfg.sigmas * (base.1 + high.1).sqrt() + 1e-9;
    report.check(
        kind,
        &format!("boost(+{:.2})", cfg.boost),
        high.0 >= base.0 - tolerance,
        || {
            format!(
                "raising edge probabilities lowered spread: {:.3} -> {:.3}, tolerance {tolerance:.3}",
                base.0, high.0
            )
        },
    );
}

/// k-monotonicity: for every engine, seeds(k) is a prefix of seeds(k+1),
/// and the shared gains agree.
pub(crate) fn check_k_prefix(
    report: &mut OracleReport,
    collection: &RrrCollection,
    n: u32,
    k: u32,
    cfg: &OracleConfig,
) {
    let kind = CheckKind::KPrefixMonotonicity;
    for engine in ENGINES {
        let (small, _) = select_with_engine(engine, collection, n, k, cfg.partitions[0]);
        let (large, _) = select_with_engine(engine, collection, n, k + 1, cfg.partitions[0]);
        let len = small.seeds.len();
        let prefix_holds = large.seeds.len() >= len
            && large.seeds[..len] == small.seeds[..]
            && large.marginal_gains[..len] == small.marginal_gains[..];
        report.check(kind, engine.tag(), prefix_holds, || {
            format!(
                "seeds(k={k}) not a prefix of seeds(k+1): {:?} vs {:?}",
                small.seeds, large.seeds
            )
        });
    }
}

/// Submodularity: marginal gains are non-increasing for every engine.
pub(crate) fn check_submodularity(
    report: &mut OracleReport,
    collection: &RrrCollection,
    n: u32,
    k: u32,
    cfg: &OracleConfig,
) {
    let kind = CheckKind::Submodularity;
    for engine in ENGINES {
        let (sel, _) = select_with_engine(engine, collection, n, k, cfg.partitions[0]);
        let sorted = sel.marginal_gains.windows(2).all(|w| w[0] >= w[1]);
        report.check(kind, engine.tag(), sorted, || {
            format!("marginal gains increased: {:?}", sel.marginal_gains)
        });
    }
}

/// `(mean, variance-of-the-mean)` of the Monte-Carlo spread estimator.
fn spread_stats(
    graph: &Graph,
    params: &ImmParams,
    seeds: &[Vertex],
    cfg: &OracleConfig,
    stream_label: u64,
) -> (f64, f64) {
    let factory = StreamFactory::new(params.seed).child(stream_label);
    let samples = spread_samples(graph, params.model, seeds, cfg.mc_trials, &factory);
    let trials = samples.len() as f64;
    let mean = samples.iter().sum::<u64>() as f64 / trials;
    let var = samples
        .iter()
        .map(|&s| (s as f64 - mean).powi(2))
        .sum::<f64>()
        / (trials * (trials - 1.0).max(1.0));
    (mean, var)
}
