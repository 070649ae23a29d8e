//! Output-quality cross-validation: IMM against the Monte-Carlo greedy
//! baseline and against centrality heuristics, mirroring the validation
//! methodology of the paper's §4 ("high rank-biased overlaps") and §5.

use ripples_centrality::{degree_ranking, rank_biased_overlap, DegreeKind};
use ripples_core::celf::celf_greedy;
use ripples_core::seq::immopt_sequential;
use ripples_core::ImmParams;
use ripples_diffusion::{estimate_spread, DiffusionModel};
use ripples_graph::generators::{barabasi_albert, erdos_renyi, standin};
use ripples_graph::WeightModel;
use ripples_rng::StreamFactory;

#[test]
fn imm_matches_celf_quality() {
    // On a graph small enough for the MC greedy, IMM at ε = 0.5 should be
    // within a few percent of the greedy's expected influence.
    let g = erdos_renyi(400, 3200, WeightModel::Constant(0.08), false, 21);
    let model = DiffusionModel::IndependentCascade;
    let k = 5;
    let celf = celf_greedy(&g, model, k, 300, 3);
    let imm = immopt_sequential(&g, &ImmParams::new(k, 0.5, model, 3));
    let factory = StreamFactory::new(404);
    let celf_spread = estimate_spread(&g, model, &celf.seeds, 2_000, &factory);
    let imm_spread = estimate_spread(&g, model, &imm.seeds, 2_000, &factory);
    assert!(
        imm_spread >= 0.9 * celf_spread,
        "IMM {imm_spread} below 90% of CELF {celf_spread}"
    );
}

#[test]
fn imm_at_least_matches_degree_heuristic() {
    // On hub-dominated networks the degree heuristic is strong; IMM must
    // not lose to it.
    let g = barabasi_albert(1500, 3, WeightModel::UniformRandom { seed: 8 }, false, 6);
    let model = DiffusionModel::IndependentCascade;
    let k = 8;
    let imm = immopt_sequential(&g, &ImmParams::new(k, 0.5, model, 11));
    let by_degree = degree_ranking(&g, DegreeKind::Out);
    let factory = StreamFactory::new(31);
    let imm_spread = estimate_spread(&g, model, &imm.seeds, 800, &factory);
    let deg_spread = estimate_spread(&g, model, &by_degree[..k as usize], 800, &factory);
    assert!(
        imm_spread >= 0.95 * deg_spread,
        "IMM {imm_spread} lost to degree heuristic {deg_spread}"
    );
}

#[test]
fn accuracy_improves_with_smaller_epsilon() {
    // The Figure 1 claim: smaller ε (feasible only with parallelism at
    // paper scale) buys equal-or-better activation. Verified in
    // expectation over an independent simulator.
    let g = barabasi_albert(800, 3, WeightModel::UniformRandom { seed: 2 }, false, 9);
    let model = DiffusionModel::IndependentCascade;
    let k = 10;
    let coarse = immopt_sequential(&g, &ImmParams::new(k, 0.7, model, 5));
    let fine = immopt_sequential(&g, &ImmParams::new(k, 0.3, model, 5));
    assert!(fine.theta > coarse.theta);
    let factory = StreamFactory::new(77);
    let coarse_spread = estimate_spread(&g, model, &coarse.seeds, 1_500, &factory);
    let fine_spread = estimate_spread(&g, model, &fine.seeds, 1_500, &factory);
    assert!(
        fine_spread >= 0.97 * coarse_spread,
        "ε=0.3 spread {fine_spread} fell below ε=0.7 spread {coarse_spread}"
    );
}

#[test]
fn independent_master_seeds_agree_in_substance() {
    // §4's validation methodology: independent randomized runs should agree
    // on the substance of the answer. Individual ranks swap freely among
    // near-tied vertices, so the robust checks are (a) overlapping seed
    // *sets* and (b) near-identical expected influence; RBO is reported for
    // the engine-identity case elsewhere (determinism tests give RBO = 1).
    let g = barabasi_albert(1200, 4, WeightModel::UniformRandom { seed: 3 }, false, 4);
    let model = DiffusionModel::IndependentCascade;
    let k = 20;
    let a = immopt_sequential(&g, &ImmParams::new(k, 0.4, model, 100));
    let b = immopt_sequential(&g, &ImmParams::new(k, 0.4, model, 200));
    let overlap = ripples_centrality::top_k_overlap(&a.seeds, &b.seeds, k as usize);
    assert!(
        overlap >= 3,
        "independent runs share only {overlap}/{k} seeds ({:?} vs {:?})",
        a.seeds,
        b.seeds
    );
    let factory = StreamFactory::new(606);
    let sa = estimate_spread(&g, model, &a.seeds, 1_000, &factory);
    let sb = estimate_spread(&g, model, &b.seeds, 1_000, &factory);
    let ratio = sa / sb.max(1.0);
    assert!(
        (0.9..=1.1).contains(&ratio),
        "independent runs differ in quality: {sa} vs {sb}"
    );
    // Identical runs must have RBO exactly 1 (sanity for the RBO metric).
    assert!((rank_biased_overlap(&a.seeds, &a.seeds, 0.9) - 1.0).abs() < 1e-9);
}

#[test]
fn imm_beats_or_matches_degree_discount() {
    // DegreeDiscount trades the guarantee for speed (paper §2, Chen et
    // al.); IMM must match or beat its spread.
    use ripples_core::heuristics::{degree_discount_ic, random_seeds};
    let g = barabasi_albert(1500, 3, WeightModel::WeightedCascade, false, 17);
    let model = DiffusionModel::IndependentCascade;
    let k = 10;
    let imm = immopt_sequential(&g, &ImmParams::new(k, 0.5, model, 8));
    let dd = degree_discount_ic(&g, k, 0.1);
    let rnd = random_seeds(&g, k, 8);
    let factory = StreamFactory::new(2025);
    let s_imm = estimate_spread(&g, model, &imm.seeds, 800, &factory);
    let s_dd = estimate_spread(&g, model, &dd, 800, &factory);
    let s_rnd = estimate_spread(&g, model, &rnd, 800, &factory);
    assert!(
        s_imm >= 0.95 * s_dd,
        "IMM {s_imm} lost to degree-discount {s_dd}"
    );
    assert!(s_dd > s_rnd, "degree-discount should beat random seeds");
}

#[test]
fn tim_plus_needs_more_samples_for_same_guarantee() {
    // The predecessor comparison at integration scale, and the figure
    // EXPERIMENTS.md § "Beyond the paper" quotes: on the cit-HepTh stand-in
    // TIM⁺ draws 7 940 samples against IMM's 2 097 (3.79×).
    use ripples_core::tim::tim_plus;
    let ic = DiffusionModel::IndependentCascade;
    let hep_th = standin("cit-HepTh").unwrap();
    for (g, p, min_ratio) in [
        (
            barabasi_albert(1000, 3, WeightModel::UniformRandom { seed: 4 }, false, 12),
            ImmParams::new(10, 0.5, ic, 5),
            1.5,
        ),
        (
            hep_th.build(32, WeightModel::UniformRandom { seed: 4 }, false),
            ImmParams::new(20, 0.5, ic, 2),
            3.78,
        ),
    ] {
        let tim = tim_plus(&g, &p);
        let imm = immopt_sequential(&g, &p);
        assert!(
            tim.theta as f64 > min_ratio * imm.theta as f64,
            "expected TIM θ ({}) > {min_ratio} × IMM θ ({})",
            tim.theta,
            imm.theta
        );
    }
}
