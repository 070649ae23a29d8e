//! Differential checks: independent implementations of the same function
//! must produce the same answer.
//!
//! Three layers, matching the repo's redundancy:
//!
//! 1. **Select engines** — every [`SelectEngine`] on the same
//!    [`RrrCollection`] returns the [`Selection`] of the oracle's own
//!    reference greedy.
//! 2. **Pipelines** — the paper's four implementations (IMMOPT, the Tang
//!    baseline, IMMmt across thread counts, IMMdist across world sizes)
//!    return the identical seed set, θ, and coverage at a fixed master
//!    seed; the partitioned-graph engine (vertex-keyed sampling, a
//!    deliberately different but partition-invariant scheme) must match
//!    its own single-rank run at every world size.
//! 3. **Estimators** — the forward Monte-Carlo influence estimate and the
//!    RRR coverage estimate of the same seed set are independent unbiased
//!    estimators of `E[|I(S)|]`; they must agree within a CLT-derived
//!    tolerance computed from their empirical/binomial variances.

use crate::config::OracleConfig;
use crate::reference::greedy_with_tie_order;
use crate::report::{CheckKind, OracleReport};
use ripples_centrality::rank_biased_overlap;
use ripples_comm::{SelfComm, ThreadWorld};
use ripples_core::dist::{imm_distributed, imm_distributed_with_storage, DistSelectMode};
use ripples_core::dist_partitioned::imm_partitioned;
use ripples_core::dist_sharded::imm_sharded;
use ripples_core::mt::imm_multithreaded;
use ripples_core::select::{select_with_engine, Selection};
use ripples_core::seq::{imm_baseline, immopt_sequential, immopt_sequential_with_storage};
use ripples_core::{
    coverage_of, select_with_engine_store, ImmParams, ImmResult, SampleEngine, SelectEngine,
};
use ripples_diffusion::{
    sample_batch_fused, sample_batch_sequential, sample_root_of, spread_samples, DiffusionModel,
    DynRrrStore, MixedRrrCollection, RrrCollection, RrrStore, RrrStoreKind, StorageConfig,
};
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, WeightModel};
use ripples_rng::StreamFactory;
use ripples_serve::SketchService;

/// Every engine; all promise bitwise-identical [`Selection`]s.
pub(crate) const ENGINES: [SelectEngine; 4] = [
    SelectEngine::Auto,
    SelectEngine::Sequential,
    SelectEngine::Partitioned,
    SelectEngine::Fused,
];

/// Layer 1: every engine against the reference greedy on `collection`.
pub(crate) fn check_select_engines(
    report: &mut OracleReport,
    collection: &RrrCollection,
    n: u32,
    k: u32,
    cfg: &OracleConfig,
) {
    let kind = CheckKind::SelectEngineAgreement;
    let reference = greedy_with_tie_order(collection, n, k, u64::from);
    for engine in ENGINES {
        for &parts in &cfg.partitions {
            let (sel, _) = select_with_engine(engine, collection, n, k, parts);
            let subject = format!("{}(p={parts})", engine.tag());
            report.check(kind, &subject, sel == reference, || {
                format!(
                    "selection diverged from reference greedy: {:?} vs {:?}",
                    brief(&sel),
                    brief(&reference)
                )
            });
            // The sequential reference ignores `parts`; one pass is enough.
            if engine == SelectEngine::Sequential {
                break;
            }
        }
    }
}

fn brief(sel: &Selection) -> (Vec<u32>, usize, Vec<u64>) {
    (sel.seeds.clone(), sel.covered, sel.marginal_gains.clone())
}

/// Layer 2: the pipeline grid. Returns the reference (IMMOPT) result for
/// downstream checks.
pub(crate) fn check_engine_grid(
    report: &mut OracleReport,
    graph: &Graph,
    params: &ImmParams,
    cfg: &OracleConfig,
) -> ImmResult {
    let reference = immopt_sequential(graph, params);

    let baseline = imm_baseline(graph, params);
    compare_runs(report, "baseline", &baseline, &reference);
    for &threads in &cfg.mt_threads {
        let mt = imm_multithreaded(graph, params, threads);
        compare_runs(report, &format!("mt({threads})"), &mt, &reference);
    }
    // The partitioned-graph engine samples with vertex-keyed coin flips (so
    // its output is independent of the partitioning but deliberately *not*
    // bitwise-equal to the replicated sampler); its differential anchor is
    // its own single-rank run, not IMMOPT.
    let part_reference = imm_partitioned(&SelfComm::new(), graph, params);
    for &world in &cfg.world_sizes {
        let results = ThreadWorld::new(world).run(|comm| imm_distributed(comm, graph, params));
        for (rank, r) in results.iter().enumerate() {
            compare_runs(
                report,
                &format!("dist(world={world},rank={rank})"),
                r,
                &reference,
            );
        }
        let results = ThreadWorld::new(world).run(|comm| imm_partitioned(comm, graph, params));
        for (rank, r) in results.iter().enumerate() {
            compare_runs(
                report,
                &format!("dist_partitioned(world={world},rank={rank})"),
                r,
                &part_reference,
            );
        }
        // The vertex-cut sharded engine flips the same (sample, vertex)
        // coins as the partitioned engine, so it shares its anchor —
        // bitwise, at every world size.
        let results = ThreadWorld::new(world).run(|comm| imm_sharded(comm, graph, params));
        for (rank, r) in results.iter().enumerate() {
            compare_runs(
                report,
                &format!("dist_sharded(world={world},rank={rank})"),
                r,
                &part_reference,
            );
        }
    }
    reference
}

/// One pipeline run against its anchor: identical seeds, θ, and coverage.
fn compare_runs(report: &mut OracleReport, subject: &str, r: &ImmResult, reference: &ImmResult) {
    let kind = CheckKind::EngineGridAgreement;
    report.check(kind, subject, r.seeds == reference.seeds, || {
        format!("seed sets differ: {:?} vs {:?}", r.seeds, reference.seeds)
    });
    report.check(kind, subject, r.theta == reference.theta, || {
        format!("theta differs: {} vs {}", r.theta, reference.theta)
    });
    report.check(
        kind,
        subject,
        (r.coverage_fraction - reference.coverage_fraction).abs() < 1e-12,
        || {
            format!(
                "coverage differs: {} vs {}",
                r.coverage_fraction, reference.coverage_fraction
            )
        },
    );
    // Identical rankings have rank-biased overlap exactly 1 — exercises
    // the centrality cross-check the CLI reports use.
    if r.seeds == reference.seeds && !r.seeds.is_empty() {
        let rbo = rank_biased_overlap(&r.seeds, &reference.seeds, 0.9);
        report.check(kind, subject, (rbo - 1.0).abs() < 1e-12, || {
            format!("RBO of identical seed rankings is {rbo}, expected 1")
        });
    }
}

/// The compressed store the equivalence check exercises against the flat
/// reference, at two budgets so both payload locations are covered:
/// resident under the default budget, and a deliberately tiny one so it
/// seals, writes, and re-reads chunks even on oracle-sized inputs.
const COMPRESSED_STORES: [StorageConfig; 2] = [
    StorageConfig {
        kind: RrrStoreKind::Spill,
        budget: None,
    },
    StorageConfig {
        kind: RrrStoreKind::Spill,
        budget: Some(4096),
    },
];

/// A small graph whose RRR sets pass the flat store's density rule
/// (`32·len > n`), so that store holds them as bitmaps: under IC at p = 0.3
/// a reverse cascade spans most of the 96 vertices, and an LT walk over
/// normalized weights only ends by closing a cycle.
fn dense_graph(params: &ImmParams) -> Graph {
    erdos_renyi(
        96,
        1200,
        WeightModel::Constant(0.3),
        params.model == DiffusionModel::LinearThreshold,
        params.seed,
    )
}

/// Layer 2b: `--rrr-store` equivalence. The compressed backend, resident
/// and spilled, must return the identical seeds, θ, and coverage as the flat
/// reference —
/// end-to-end through the sequential pipeline, through a distributed run,
/// and at the selection layer across every eager engine on the reference
/// collection. The flat store itself changes representation on dense
/// sets, so a second, dense graph holds it (and the compressed one, fed
/// from bitmaps) to a reference that never touches a store: the Tang-layout
/// baseline and the tie-order greedy over plain lists.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_storage_equivalence(
    report: &mut OracleReport,
    graph: &Graph,
    params: &ImmParams,
    reference: &ImmResult,
    collection: &RrrCollection,
    n: u32,
    k: u32,
    cfg: &OracleConfig,
) {
    for storage in COMPRESSED_STORES {
        check_store(
            report, "", storage, graph, params, reference, collection, n, k, cfg,
        );
    }

    let dense = dense_graph(params);
    let n = dense.num_vertices();
    let k = params.effective_k(n);
    let reference = imm_baseline(&dense, params);
    let mut collection = RrrCollection::new();
    sample_batch_sequential(
        &dense,
        params.model,
        &StreamFactory::new(params.seed),
        0,
        reference.theta,
        &mut collection,
    );
    let mut flat = DynRrrStore::new(StorageConfig::default(), n);
    for s in collection.iter() {
        RrrStore::push(&mut flat, s);
    }
    let bitmaps = flat.as_mixed().map_or(0, MixedRrrCollection::bitmap_sets);
    report.check(
        CheckKind::StorageEquivalence,
        "dense:flat",
        bitmaps > 0 && flat.as_flat().is_none(),
        || format!("the dense case is vacuous: {bitmaps} bitmap sets in the flat store"),
    );
    for storage in [StorageConfig::default()]
        .into_iter()
        .chain(COMPRESSED_STORES)
    {
        check_store(
            report,
            "dense:",
            storage,
            &dense,
            params,
            &reference,
            &collection,
            n,
            k,
            cfg,
        );
    }
}

/// One backend against one reference run and its sample collection.
#[allow(clippy::too_many_arguments)]
fn check_store(
    report: &mut OracleReport,
    case: &str,
    storage: StorageConfig,
    graph: &Graph,
    params: &ImmParams,
    reference: &ImmResult,
    collection: &RrrCollection,
    n: u32,
    k: u32,
    cfg: &OracleConfig,
) {
    let kind = CheckKind::StorageEquivalence;
    let tag = match storage.budget {
        None => format!("{case}{}", storage.kind.tag()),
        Some(budget) => format!("{case}{}@{budget}", storage.kind.tag()),
    };

    // Full sequential pipeline.
    let r = immopt_sequential_with_storage(
        graph,
        params,
        SelectEngine::Auto,
        SampleEngine::Reference,
        storage,
    );
    let subject = format!("opt({tag})");
    report.check(kind, &subject, r.seeds == reference.seeds, || {
        format!("seed sets differ: {:?} vs {:?}", r.seeds, reference.seeds)
    });
    report.check(kind, &subject, r.theta == reference.theta, || {
        format!("theta differs: {} vs {}", r.theta, reference.theta)
    });
    report.check(
        kind,
        &subject,
        (r.coverage_fraction - reference.coverage_fraction).abs() < 1e-12,
        || {
            format!(
                "coverage differs: {} vs {}",
                r.coverage_fraction, reference.coverage_fraction
            )
        },
    );
    if storage.budget.is_some() {
        report.check(
            kind,
            &subject,
            r.report.counters.spill_bytes_written > 0,
            || "tiny-budget spill run never wrote its spill file".to_owned(),
        );
    }

    // One distributed run per backend: the decrement aggregation path.
    if let Some(&world) = cfg.world_sizes.first() {
        let results = ThreadWorld::new(world).run(|comm| {
            imm_distributed_with_storage(
                comm,
                graph,
                params,
                DistSelectMode::DenseAllReduce,
                storage,
            )
        });
        for (rank, r) in results.iter().enumerate() {
            let subject = format!("dist({tag},world={world},rank={rank})");
            report.check(
                kind,
                &subject,
                r.seeds == reference.seeds && r.theta == reference.theta,
                || {
                    format!(
                        "distributed run diverged: seeds {:?} θ {} vs {:?} θ {}",
                        r.seeds, r.theta, reference.seeds, reference.theta
                    )
                },
            );
        }
    }

    // Selection layer: refill the backend from the reference collection
    // and run every eager engine over the compressed blocks.
    let mut store = DynRrrStore::new(storage, n);
    for s in collection.iter() {
        RrrStore::push(&mut store, s);
    }
    let anchor = greedy_with_tie_order(collection, n, k, u64::from);
    for engine in ENGINES {
        let (sel, _) = select_with_engine_store(engine, &store, n, k, 2);
        let subject = format!("select({tag},{})", engine.tag());
        report.check(kind, &subject, sel == anchor, || {
            format!(
                "selection over {tag} diverged: {:?} vs {:?}",
                brief(&sel),
                brief(&anchor)
            )
        });
    }
}

/// Layer 2c: serve-vs-batch equivalence. A resident serve-mode sketch is
/// built **once**, sized for `k_max = k`, and must then answer `topk(k_q)`
/// for several `k_q ≤ k` bitwise-identically to *fresh* seq / mt / dist
/// batch runs at the same master seed and the same `k_max` — the core
/// guarantee that makes the build-once/serve-many mode trustworthy. The
/// served `spread_estimate` of each answer must also reproduce the batch
/// run's coverage fraction exactly (both are `covered/θ` on the same
/// samples).
pub(crate) fn check_query_equivalence(
    report: &mut OracleReport,
    graph: &Graph,
    params: &ImmParams,
    cfg: &OracleConfig,
) {
    let kind = CheckKind::QueryEquivalence;
    let n = graph.num_vertices();
    let k_cap = params.effective_k(n);
    if k_cap == 0 {
        return;
    }
    let sized = params.with_k_max(k_cap);
    let mut svc = SketchService::build(
        graph,
        sized,
        SelectEngine::Sequential,
        SampleEngine::Reference,
        StorageConfig::default(),
    );

    let mut ks = vec![1, k_cap.div_ceil(2), k_cap];
    ks.dedup();
    for k_q in ks {
        let (served, sreport) = match svc.topk(k_q) {
            Ok(x) => x,
            Err(e) => {
                report.check(kind, &format!("serve(k={k_q})"), false, || {
                    format!("query failed: {e}")
                });
                continue;
            }
        };
        let mut p = sized;
        p.k = k_q;

        // Fresh sequential batch run at the same master seed and k_max.
        let seq = immopt_sequential_with_storage(
            graph,
            &p,
            SelectEngine::Sequential,
            SampleEngine::Reference,
            StorageConfig::default(),
        );
        let subject = format!("seq(k={k_q})");
        report.check(kind, &subject, served == seq.seeds, || {
            format!("served {served:?} vs batch {:?}", seq.seeds)
        });
        report.check(kind, &subject, svc.theta() == seq.theta, || {
            format!("resident θ {} vs batch θ {}", svc.theta(), seq.theta)
        });
        report.check(
            kind,
            &subject,
            (sreport.coverage_fraction - seq.coverage_fraction).abs() < 1e-12,
            || {
                format!(
                    "served coverage {} vs batch {}",
                    sreport.coverage_fraction, seq.coverage_fraction
                )
            },
        );

        // One multithreaded and one distributed batch run per query size.
        if let Some(&threads) = cfg.mt_threads.first() {
            let mt = imm_multithreaded(graph, &p, threads);
            report.check(
                kind,
                &format!("mt(k={k_q},threads={threads})"),
                served == mt.seeds,
                || format!("served {served:?} vs mt {:?}", mt.seeds),
            );
        }
        if let Some(&world) = cfg.world_sizes.last() {
            let results = ThreadWorld::new(world).run(|comm| imm_distributed(comm, graph, &p));
            for (rank, r) in results.iter().enumerate() {
                report.check(
                    kind,
                    &format!("dist(k={k_q},world={world},rank={rank})"),
                    served == r.seeds,
                    || format!("served {served:?} vs dist {:?}", r.seeds),
                );
            }
        }
    }
}

/// Layer 3: forward Monte-Carlo vs RRR coverage estimate of `E[|I(S)|]`.
///
/// Fresh RRR samples (an independent stream, not the selection's own
/// collection) make the coverage estimate unbiased for the *fixed* seed set
/// `S`; reusing the selection samples would overestimate, because greedy
/// selection maximizes coverage on exactly those samples.
pub(crate) fn check_influence_agreement(
    report: &mut OracleReport,
    graph: &Graph,
    params: &ImmParams,
    seeds: &[u32],
    theta: usize,
    cfg: &OracleConfig,
) {
    let kind = CheckKind::InfluenceAgreement;
    let n = graph.num_vertices();
    if n == 0 || seeds.is_empty() || theta == 0 {
        return;
    }
    let est_samples = theta.max(1000);
    let factory = StreamFactory::new(params.seed).child(0x0E57_1A7E);
    let mut fresh = RrrCollection::new();
    sample_batch_sequential(graph, params.model, &factory, 0, est_samples, &mut fresh);
    let frac = coverage_of(&fresh, seeds) as f64 / est_samples as f64;
    let rrr_est = frac * f64::from(n);
    // Coverage is Binomial(θ', F)/θ' scaled by n.
    let rrr_var = f64::from(n) * f64::from(n) * frac * (1.0 - frac) / est_samples as f64;

    let mc_factory = StreamFactory::new(params.seed).child(0x4D43_7261);
    let samples = spread_samples(graph, params.model, seeds, cfg.mc_trials, &mc_factory);
    let trials = samples.len() as f64;
    let mc_est = samples.iter().sum::<u64>() as f64 / trials;
    let mc_var = samples
        .iter()
        .map(|&s| (s as f64 - mc_est).powi(2))
        .sum::<f64>()
        / (trials * (trials - 1.0));

    let tolerance = cfg.sigmas * (rrr_var + mc_var).sqrt() + 1e-9;
    report.check(
        kind,
        "mc-vs-rrr",
        (mc_est - rrr_est).abs() <= tolerance,
        || {
            format!(
                "forward MC estimate {mc_est:.3} vs RRR coverage estimate {rrr_est:.3} \
                 exceeds {:.1}σ tolerance {tolerance:.3} (θ'={est_samples}, trials={})",
                cfg.sigmas, cfg.mc_trials
            )
        },
    );
}

/// Layer 3b: the fused multi-cascade sampler against the reference sampler.
///
/// The fused kernel draws a *different RNG schedule* (full-width 64-lane
/// draws per edge), so its output cannot be compared bitwise — the contract
/// is distributional equality. Four assertions over two fresh collections
/// drawn from disjoint index ranges of the same child factory:
///
/// * **Influence**: the coverage estimates of the reference run's seed set
///   on the two collections are independent Binomial estimates of the same
///   influence; they must agree within the `cfg.sigmas`-σ CLT bound.
/// * **Mean set size**: sample means of `|RRR|` agree within the CLT bound
///   computed from the empirical variances.
/// * **Root containment**: every fused sample contains the root recomputed
///   from its index-keyed stream (exact — catches lane misassignment).
/// * **Root distribution**: binned root histograms of the two ranges pass a
///   two-sample chi-square at `df + sigmas·√(2·df)` (the normal
///   approximation of the χ² tail).
pub(crate) fn check_sampler_equivalence(
    report: &mut OracleReport,
    graph: &Graph,
    params: &ImmParams,
    seeds: &[u32],
    theta: usize,
    cfg: &OracleConfig,
) {
    let kind = CheckKind::SamplerEquivalence;
    let n = graph.num_vertices();
    if n == 0 || seeds.is_empty() || theta == 0 {
        return;
    }
    let s = theta.max(1000);
    let factory = StreamFactory::new(params.seed).child(0x5A4D_504C);
    let mut reference = RrrCollection::new();
    sample_batch_sequential(graph, params.model, &factory, 0, s, &mut reference);
    let mut fused = RrrCollection::new();
    sample_batch_fused(graph, params.model, &factory, s as u64, s, &mut fused);

    // Influence agreement on the anchor seed set.
    let fa = coverage_of(&reference, seeds) as f64 / s as f64;
    let fb = coverage_of(&fused, seeds) as f64 / s as f64;
    let var = (fa * (1.0 - fa) + fb * (1.0 - fb)) / s as f64;
    let tolerance = f64::from(n) * cfg.sigmas * var.sqrt() + 1e-9;
    let (est_a, est_b) = (fa * f64::from(n), fb * f64::from(n));
    report.check(
        kind,
        "influence",
        (est_a - est_b).abs() <= tolerance,
        || {
            format!(
                "reference influence {est_a:.3} vs fused {est_b:.3} exceeds \
                 {:.1}σ tolerance {tolerance:.3} (θ'={s})",
                cfg.sigmas
            )
        },
    );

    // Mean set size agreement (empirical-variance CLT).
    let mean_var = |c: &RrrCollection| {
        let mean = c.total_entries() as f64 / s as f64;
        let var = (0..s)
            .map(|j| (c.get(j).len() as f64 - mean).powi(2))
            .sum::<f64>()
            / (s as f64 * (s as f64 - 1.0));
        (mean, var)
    };
    let (mean_a, var_a) = mean_var(&reference);
    let (mean_b, var_b) = mean_var(&fused);
    let size_tol = cfg.sigmas * (var_a + var_b).sqrt() + 1e-9;
    report.check(
        kind,
        "mean-set-size",
        (mean_a - mean_b).abs() <= size_tol,
        || {
            format!(
                "reference mean |RRR| {mean_a:.3} vs fused {mean_b:.3} exceeds \
                 {:.1}σ tolerance {size_tol:.3} (θ'={s})",
                cfg.sigmas
            )
        },
    );

    // Root containment + binned root histograms of the two index ranges.
    let bins = (n as usize).min(32);
    let mut hist_a = vec![0u64; bins];
    let mut hist_b = vec![0u64; bins];
    let mut missing = 0u64;
    let mut first_missing = 0u64;
    for j in 0..s {
        let ra = sample_root_of(graph, &factory, j as u64);
        hist_a[ra as usize * bins / n as usize] += 1;
        let rb = sample_root_of(graph, &factory, (s + j) as u64);
        hist_b[rb as usize * bins / n as usize] += 1;
        if fused.get(j).binary_search(&rb).is_err() {
            if missing == 0 {
                first_missing = (s + j) as u64;
            }
            missing += 1;
        }
    }
    report.check(kind, "fused-root-containment", missing == 0, || {
        format!("{missing} fused samples lack their root (first: index {first_missing})")
    });
    let mut chi2 = 0.0f64;
    let mut occupied = 0.0f64;
    for j in 0..bins {
        let total = (hist_a[j] + hist_b[j]) as f64;
        if total > 0.0 {
            let d = hist_a[j] as f64 - hist_b[j] as f64;
            chi2 += d * d / total;
            occupied += 1.0;
        }
    }
    let df = (occupied - 1.0).max(1.0);
    let chi_bound = df + cfg.sigmas * (2.0 * df).sqrt();
    report.check(kind, "root-chi-square", chi2 <= chi_bound, || {
        format!(
            "two-sample root χ² {chi2:.2} exceeds bound {chi_bound:.2} \
             (df {df}, {:.1}σ, θ'={s})",
            cfg.sigmas
        )
    });
}
