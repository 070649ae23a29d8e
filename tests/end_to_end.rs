//! End-to-end integration: full IMM pipeline on generated graphs spanning
//! all crates (graph generation → sampling → selection → forward-simulated
//! validation).

use ripples_core::mt::imm_multithreaded;
use ripples_core::seq::immopt_sequential;
use ripples_core::ImmParams;
use ripples_diffusion::{estimate_spread, DiffusionModel};
use ripples_graph::generators::{standin, standin_catalog};
use ripples_graph::WeightModel;
use ripples_rng::StreamFactory;

const TEST_DIVISOR_MULTIPLIER: u32 = 8;

#[test]
fn full_pipeline_on_every_standin() {
    // Every Table 2 graph, shrunk far below its default experiment size.
    for spec in standin_catalog() {
        let divisor = spec.default_divisor * TEST_DIVISOR_MULTIPLIER;
        let graph = spec.build(divisor, WeightModel::UniformRandom { seed: 1 }, false);
        let params = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 2);
        let result = imm_multithreaded(&graph, &params, 0);
        assert_eq!(result.seeds.len(), 4, "{}", spec.name);
        assert!(result.theta > 0, "{}", spec.name);
        assert!(
            result.coverage_fraction > 0.0 && result.coverage_fraction <= 1.0,
            "{}: coverage {}",
            spec.name,
            result.coverage_fraction
        );
        for &s in &result.seeds {
            assert!(s < graph.num_vertices(), "{}: seed out of range", spec.name);
        }
    }
}

#[test]
fn both_models_end_to_end() {
    let spec = standin("cit-HepTh").unwrap();
    for model in [
        DiffusionModel::IndependentCascade,
        DiffusionModel::LinearThreshold,
    ] {
        let lt = model == DiffusionModel::LinearThreshold;
        let graph = spec.build(32, WeightModel::UniformRandom { seed: 4 }, lt);
        let params = ImmParams::new(6, 0.5, model, 3);
        let result = immopt_sequential(&graph, &params);
        assert_eq!(result.seeds.len(), 6, "{model}");
        // LT cascades are smaller, so LT θ-coverage relations still hold.
        assert!(result.coverage_fraction > 0.0, "{model}");
    }
}

#[test]
fn imm_seeds_beat_random_seeds() {
    let spec = standin("soc-Epinions1").unwrap();
    let graph = spec.build(64, WeightModel::UniformRandom { seed: 9 }, false);
    let model = DiffusionModel::IndependentCascade;
    let params = ImmParams::new(8, 0.5, model, 5);
    let result = imm_multithreaded(&graph, &params, 0);

    let factory = StreamFactory::new(123);
    let imm_spread = estimate_spread(&graph, model, &result.seeds, 400, &factory);
    // Deterministic arbitrary picks, far from any hub bias.
    let random: Vec<u32> = (0..8u32)
        .map(|i| (i * 131 + 7) % graph.num_vertices())
        .collect();
    let random_spread = estimate_spread(&graph, model, &random, 400, &factory);
    assert!(
        imm_spread > random_spread,
        "IMM {imm_spread} should beat random {random_spread}"
    );
}

#[test]
fn coverage_estimator_tracks_forward_simulation() {
    // n·F_R(S) is an unbiased estimator of E[|I(S)|]; at ε = 0.5 the two
    // should agree within a loose factor.
    let spec = standin("cit-HepTh").unwrap();
    let graph = spec.build(32, WeightModel::UniformRandom { seed: 6 }, false);
    let model = DiffusionModel::IndependentCascade;
    let params = ImmParams::new(5, 0.5, model, 7);
    let result = imm_multithreaded(&graph, &params, 0);
    let rrr_estimate = result.coverage_influence_estimate(graph.num_vertices());
    let factory = StreamFactory::new(55);
    let simulated = estimate_spread(&graph, model, &result.seeds, 1_000, &factory);
    let ratio = rrr_estimate / simulated.max(1.0);
    assert!(
        (0.5..=2.0).contains(&ratio),
        "estimators diverged: RRR {rrr_estimate} vs MC {simulated}"
    );
}

#[test]
fn lt_produces_smaller_theta_work_than_ic() {
    // §4.2: "The LT model tends to produce very small RRR sets (when
    // compared to the IC model)". Compare total sampling work.
    let spec = standin("cit-HepTh").unwrap();
    let g_ic = spec.build(32, WeightModel::UniformRandom { seed: 6 }, false);
    let g_lt = spec.build(32, WeightModel::UniformRandom { seed: 6 }, true);
    let ic = immopt_sequential(
        &g_ic,
        &ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 7),
    );
    let lt = immopt_sequential(
        &g_lt,
        &ImmParams::new(5, 0.5, DiffusionModel::LinearThreshold, 7),
    );
    let ic_avg_work = ic.report.counters.edges_examined as f64 / ic.theta.max(1) as f64;
    let lt_avg_work = lt.report.counters.edges_examined as f64 / lt.theta.max(1) as f64;
    assert!(
        ic_avg_work > lt_avg_work,
        "IC per-sample work {ic_avg_work} should exceed LT {lt_avg_work}"
    );
}
