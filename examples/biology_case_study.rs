//! The paper's Section 5 case study, on a synthetic stand-in: apply
//! influence maximization to a co-expression-like network and compare the
//! seed set against classic topological measures (degree, betweenness).
//!
//! The omics datasets behind the paper's networks are not redistributable;
//! the generator reproduces their two structural ingredients (modules +
//! regulator hubs), which is what the comparison depends on. The paper's
//! headline observation — partial overlap (~30% of the top-30 degree hubs
//! also chosen by IMM) with complementary discoveries on both sides — is
//! printed at the end.
//!
//! Run with: `cargo run --release -p ripples-bench --example biology_case_study`

use ripples_centrality::{
    betweenness_centrality, degree_ranking, rank_biased_overlap, ranking_from_scores,
    top_k_overlap, DegreeKind,
};
use ripples_core::mt::imm_multithreaded;
use ripples_core::ImmParams;
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::{coexpression, CoexpressionConfig};
use ripples_graph::WeightModel;

fn main() {
    // "Soil microbiome" stand-in: modular co-expression network with
    // metabolite hubs. Weighted-cascade probabilities model co-expression
    // strength normalized per target, the usual IC setup for such data.
    let config = CoexpressionConfig {
        modules: 25,
        module_size: 80,
        hubs: 16,
        intra_density: 0.08,
        inter_edges_per_pair: 1.2,
        hub_coverage: 0.07,
        seed: 0x501,
    };
    let graph = coexpression(&config, WeightModel::WeightedCascade, false);
    println!(
        "co-expression stand-in: {} features, {} links, {} designated hubs",
        graph.num_vertices(),
        graph.num_edges(),
        config.hubs
    );

    // IMM with k = 200, the paper's case-study seed-set size.
    let k = 200u32;
    let params = ImmParams::new(k, 0.5, DiffusionModel::IndependentCascade, 11);
    let imm = imm_multithreaded(&graph, &params, 0);
    println!(
        "IMM: θ = {}, coverage {:.3}, time {}",
        imm.theta,
        imm.coverage_fraction,
        imm.report.phase_timers()
    );

    // Topological comparators.
    let by_degree = degree_ranking(&graph, DegreeKind::Total);
    let by_betweenness = ranking_from_scores(&betweenness_centrality(&graph));

    let k_us = k as usize;
    let deg_overlap = top_k_overlap(&imm.seeds, &by_degree, k_us);
    let btw_overlap = top_k_overlap(&imm.seeds, &by_betweenness, k_us);
    println!("\ntop-{k} agreement with IMM seeds:");
    println!("  degree centrality      : {deg_overlap:>4} / {k}");
    println!("  betweenness centrality : {btw_overlap:>4} / {k}");

    // The paper's specific §5 statistic: of the top-30 highest-degree
    // features, how many does IMM also pick?
    let top30_hits = top_k_overlap(&imm.seeds, &by_degree, 30.min(k_us));
    println!(
        "  of the 30 highest-degree features, IMM also selects {top30_hits} \
         ({:.0}%) — the paper reports 9/30 (30%) on the soil network",
        100.0 * top30_hits as f64 / 30.0
    );

    // Rank agreement between the two topological measures, for context.
    let rbo_deg_btw = rank_biased_overlap(&by_degree[..k_us], &by_betweenness[..k_us], 0.9);
    println!("  RBO(degree, betweenness) over top-{k}: {rbo_deg_btw:.3}");

    // How many designated hub vertices does each method surface?
    let hub_base = config.modules * config.module_size;
    let hub_count = |ranking: &[u32]| {
        ranking
            .iter()
            .take(k_us)
            .filter(|&&v| v >= hub_base)
            .count()
    };
    println!("\ndesignated regulator hubs recovered in top-{k}:");
    println!(
        "  IMM         : {:>3} / {}",
        hub_count(&imm.seeds),
        config.hubs
    );
    println!(
        "  degree      : {:>3} / {}",
        hub_count(&by_degree),
        config.hubs
    );
    println!(
        "  betweenness : {:>3} / {}",
        hub_count(&by_betweenness),
        config.hubs
    );
    println!(
        "\nInterpretation (mirrors §5): IMM overlaps the topological rankings \
         partially but not fully — it surfaces additional, complementary \
         features whose influence is structural rather than local."
    );
}
