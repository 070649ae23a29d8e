//! TIM/TIM⁺ (Tang et al., SIGMOD 2014) — IMM's direct predecessor.
//!
//! The CLUSTER'19 paper positions IMM as "a significant improvement over
//! its predecessors", of which TIM⁺ is the one IMM's own paper benchmarks
//! against. Implementing it makes that improvement *measurable* here:
//! TIM⁺'s KPT estimation is looser than IMM's martingale bound, so it
//! requests noticeably more RRR samples for the same `(ε, ℓ)` guarantee
//! (3.79× IMM's on the cit-HepTh stand-in at ε = 0.5, k = 20), which
//! `tests/quality.rs::tim_plus_needs_more_samples_for_same_guarantee`
//! checks.
//!
//! Structure (following the TIM paper, natural logs throughout):
//!
//! 1. **KPT estimation**: for `i = 1 .. log₂(n) − 1`, draw
//!    `cᵢ = (6ℓ·ln n + 6·ln log₂ n)·2ⁱ` RRR sets; each set `R` contributes
//!    `κ(R) = 1 − (1 − w(R)/m)ᵏ`, where the *width* `w(R)` is the number of
//!    edges entering `R`'s vertices. Stop when the mean κ exceeds `1/2ⁱ`;
//!    then `KPT = (mean κ)·n/2`.
//! 2. **Refinement (the ⁺)**: greedily select `k` seeds from the phase-1
//!    samples, measure their coverage fraction `f`, and take
//!    `KPT⁺ = max(KPT, f·n/(1+ε′))` — a cheap lower-bound tightening.
//! 3. **Selection**: draw `θ = λ/KPT⁺` samples with
//!    `λ = (8 + 2ε)·n·(ℓ·ln n + ln C(n,k) + ln 2)/ε²`, then run the
//!    standard greedy max-cover.

use crate::driver::{
    record_batch, record_graph_bytes, record_select_counters, record_store_counters,
};
use crate::memory::MemoryStats;
use crate::obs::{RunReport, SpanKind};
use crate::params::ImmParams;
use crate::phases::Phase;
use crate::result::ImmResult;
use crate::sample::{SampleEngine, SamplerDispatch};
use crate::select::{select_with_engine_store, SelectEngine, SelectStats};
use crate::theta::log_binomial;
use ripples_diffusion::{DynRrrStore, RrrStore, StorageConfig};
use ripples_graph::Graph;
use ripples_rng::StreamFactory;

/// The width of RRR set `i` in a store: the number of edges pointing into
/// its vertices (TIM's proxy for the cost/influence of the set).
fn width<S: RrrStore>(graph: &Graph, store: &S, i: usize) -> u64 {
    let mut w = 0u64;
    store.set(i).for_each(|v| w += graph.in_degree(v) as u64);
    w
}

/// Runs TIM⁺. Parameter semantics match [`crate::ImmParams`]; the returned
/// [`ImmResult`] is directly comparable with the IMM engines' output.
#[must_use]
pub fn tim_plus(graph: &Graph, params: &ImmParams) -> ImmResult {
    tim_plus_with_storage(
        graph,
        params,
        SampleEngine::Reference,
        StorageConfig::default(),
    )
}

/// [`tim_plus`] with an explicit sampling engine and RRR storage backend
/// (CLI `--sample` / `--rrr-budget`). The fused sampler
/// draws a different RNG schedule, so its output is statistically (not
/// bitwise) equivalent; compressed backends stream widths and greedy cover
/// through decode-on-touch, so the seed set and θ are identical for every
/// backend.
#[must_use]
pub fn tim_plus_with_storage(
    graph: &Graph,
    params: &ImmParams,
    sample: SampleEngine,
    storage: StorageConfig,
) -> ImmResult {
    let n = graph.num_vertices();
    if n < 2 {
        return crate::seq::immopt_sequential(graph, params);
    }
    let k = params.effective_k(n);
    let m = graph.num_edges().max(1) as f64;
    let nf = f64::from(n);
    let ln_n = nf.ln();
    let log2_n = nf.log2();
    let ell = params.ell * (1.0 + std::f64::consts::LN_2 / ln_n);
    let epsilon = params.epsilon;
    let factory = StreamFactory::new(params.seed);
    let mut sampler = SamplerDispatch::new(graph, params.model, &factory, sample, false);

    let mut report = RunReport::new("tim");
    let mut memory = MemoryStats {
        counter_bytes: n as usize * std::mem::size_of::<u64>(),
        ..MemoryStats::default()
    };
    let mut collection = DynRrrStore::new(storage, n);
    let mut next_index: u64 = 0;
    // Every selection pass of the run: the refinement's and the final one.
    let mut select_stats = SelectStats::default();

    // --- Phase 1 + 2: KPT estimation and refinement ----------------------
    let mut kpt = 1.0f64;
    {
        let collection = &mut collection;
        let next_index = &mut next_index;
        let memory = &mut memory;
        let kpt = &mut kpt;
        let sampler = &mut sampler;
        let select_stats = &mut select_stats;
        report.span(Phase::EstimateTheta, |report| {
            let c_base = 6.0 * ell * ln_n + 6.0 * log2_n.ln().max(0.0);
            let max_i = (log2_n.floor() as u32).saturating_sub(1).max(1);
            for i in 1..=max_i {
                let budget = (c_base * 2f64.powi(i as i32)).ceil() as usize;
                let stop = report.span(SpanKind::Round(i), |report| {
                    if budget > collection.len() {
                        let need = budget - collection.len();
                        let outcome = report.span(SpanKind::Sample, |_| {
                            sampler.sample_batch(*next_index, need, collection)
                        });
                        *next_index += need as u64;
                        record_batch(report, &outcome);
                    }
                    report.counters.theta_rounds += 1;
                    report.counters.round_budgets.push(budget as u64);
                    let mut kappa_sum = 0.0f64;
                    for j in 0..collection.len() {
                        let w = width(graph, &*collection, j) as f64;
                        kappa_sum += 1.0 - (1.0 - w / m).powi(k as i32);
                    }
                    let mean_kappa = kappa_sum / collection.len() as f64;
                    report.counters.round_coverage.push(mean_kappa);
                    if mean_kappa > 1.0 / 2f64.powi(i as i32) {
                        *kpt = mean_kappa * nf / 2.0;
                        true
                    } else {
                        false
                    }
                });
                if stop {
                    break;
                }
            }
            // TIM⁺ refinement: greedy coverage on the phase-1 samples gives
            // an alternative lower bound on OPT.
            if !collection.is_empty() {
                let (sel, refine_stats) = report.span(SpanKind::Other("refine"), |_| {
                    select_with_engine_store(SelectEngine::Sequential, &*collection, n, k, 1)
                });
                select_stats.absorb(refine_stats);
                let eps_prime = std::f64::consts::SQRT_2 * epsilon;
                let refined = sel.fraction * nf / (1.0 + eps_prime);
                *kpt = kpt.max(refined);
            }
            memory.observe_rrr(collection.resident_bytes());
        });
    }

    // --- Phase 3: sampling at θ = λ/KPT⁺ ---------------------------------
    let lambda = (8.0 + 2.0 * epsilon)
        * nf
        * (ell * ln_n + log_binomial(u64::from(n), u64::from(k)) + std::f64::consts::LN_2)
        / (epsilon * epsilon);
    let theta = (lambda / kpt.max(1.0)).ceil() as usize;
    if theta > collection.len() {
        let need = theta - collection.len();
        let collection_ref = &mut collection;
        let outcome = report.span(Phase::Sample, |_| {
            sampler.sample_batch(next_index, need, collection_ref)
        });
        record_batch(&mut report, &outcome);
    }
    memory.observe_rrr(collection.resident_bytes());

    // TIM's θ is the largest of any engine here, so its one final greedy
    // pass is exactly where the fused index pays for itself.
    let (final_sel, final_stats) = report.span(Phase::SelectSeeds, |_| {
        select_with_engine_store(SelectEngine::Fused, &collection, n, k, 1)
    });
    select_stats.absorb(final_stats);
    report.counters.theta_final = collection.len() as u64;
    record_select_counters(&mut report, &mut memory, select_stats);
    record_graph_bytes(&mut report, &mut memory, graph.resident_bytes());
    record_store_counters(&mut report, &collection);
    if crate::obs::trace::enabled() {
        report.trace = Some(crate::obs::trace::collect_all());
    }

    ImmResult {
        seeds: final_sel.seeds,
        theta: collection.len(),
        coverage_fraction: final_sel.fraction,
        opt_lower_bound: Some(kpt),
        memory,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::immopt_sequential;
    use ripples_diffusion::{estimate_spread, DiffusionModel, RrrStoreKind};
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    fn test_graph() -> Graph {
        erdos_renyi(
            400,
            3200,
            WeightModel::UniformRandom { seed: 12 },
            false,
            48,
        )
    }

    #[test]
    fn returns_k_distinct_seeds() {
        let g = test_graph();
        let p = ImmParams::new(6, 0.5, DiffusionModel::IndependentCascade, 4);
        let r = tim_plus(&g, &p);
        assert_eq!(r.seeds.len(), 6);
        let mut s = r.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 6);
        assert!(r.theta > 0);
    }

    #[test]
    fn imm_needs_no_more_samples_than_tim() {
        // The headline improvement: IMM's martingale bound is tighter, so
        // θ_IMM ≤ θ_TIM for the same guarantee (allow a small fudge for the
        // randomized lower bounds).
        let g = test_graph();
        let p = ImmParams::new(10, 0.5, DiffusionModel::IndependentCascade, 4);
        let tim = tim_plus(&g, &p);
        let imm = immopt_sequential(&g, &p);
        assert!(
            (imm.theta as f64) < 1.2 * tim.theta as f64,
            "IMM θ {} not better than TIM θ {}",
            imm.theta,
            tim.theta
        );
    }

    #[test]
    fn quality_matches_imm() {
        let g = test_graph();
        let model = DiffusionModel::IndependentCascade;
        let p = ImmParams::new(5, 0.5, model, 6);
        let tim = tim_plus(&g, &p);
        let imm = immopt_sequential(&g, &p);
        let factory = StreamFactory::new(99);
        let s_tim = estimate_spread(&g, model, &tim.seeds, 800, &factory);
        let s_imm = estimate_spread(&g, model, &imm.seeds, 800, &factory);
        let ratio = s_tim / s_imm.max(1.0);
        assert!(
            (0.9..=1.1).contains(&ratio),
            "TIM quality diverged: {s_tim} vs {s_imm}"
        );
    }

    #[test]
    fn lt_model_works() {
        let g = erdos_renyi(300, 2400, WeightModel::UniformRandom { seed: 2 }, true, 9);
        let p = ImmParams::new(4, 0.5, DiffusionModel::LinearThreshold, 3);
        let r = tim_plus(&g, &p);
        assert_eq!(r.seeds.len(), 4);
    }

    #[test]
    fn storage_backends_match_flat() {
        // On the uniform-probability graph the store holds bitmaps or
        // complements; on weighted cascade it holds mostly lists. TIM⁺
        // keeps its samples, so the spill kind holds the flat store's bytes.
        let dense = test_graph();
        let sparse = erdos_renyi(400, 3200, WeightModel::WeightedCascade, false, 48);
        for (g, is_dense) in [(&dense, true), (&sparse, false)] {
            let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 4);
            let flat = tim_plus(g, &p);
            let c = &flat.report.counters;
            assert!(!is_dense || c.rrr_sets_bitmap + c.rrr_sets_complement > 0);
            // The spill kind under its default budget and a tiny one.
            for budget in [None, Some(4096)] {
                let r = tim_plus_with_storage(
                    g,
                    &p,
                    SampleEngine::Reference,
                    StorageConfig {
                        kind: RrrStoreKind::Spill,
                        budget,
                    },
                );
                assert_eq!(r.seeds, flat.seeds, "{budget:?}");
                assert_eq!(r.theta, flat.theta, "{budget:?}");
                let (rc, fc) = (&r.report.counters, &flat.report.counters);
                assert_eq!(rc.rrr_bytes_peak, fc.rrr_bytes_peak, "{budget:?}");
                // A tiny budget spills what it bounds, the index's sealed
                // segments; the samples stay in RAM.
                let indexed = budget.is_some() && rc.index_bytes_peak > 0;
                assert_eq!(rc.spill_bytes_written > 0, indexed, "{budget:?}");
            }
        }
    }

    #[test]
    fn degenerate_graph() {
        let g = ripples_graph::GraphBuilder::new(1).build().unwrap();
        let p = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade, 1);
        assert_eq!(tim_plus(&g, &p).seeds, vec![0]);
    }
}
