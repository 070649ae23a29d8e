//! Sampling-engine dispatch: reference vs. fused multi-cascade kernels.
//!
//! PR 3 gave seed *selection* a cost-model dispatch ([`crate::SelectEngine`]);
//! this module does the same for the *sampling* phase. Two kernels produce
//! the RRR collection:
//!
//! * **Reference** — [`ripples_diffusion::sample_batch`] /
//!   [`ripples_diffusion::sample_batch_sequential`]: one cascade at a time,
//!   bitwise-deterministic layout keyed by global sample index. This is the
//!   oracle-checked kernel every engine defaults to.
//! * **Fused** — [`ripples_diffusion::sample_batch_fused`]: 64 cascades per
//!   frontier pass with per-vertex bitmask state (Göktürk & Kaya's fusing
//!   recipe). It draws a *different RNG schedule*, so its output is
//!   statistically equivalent to the reference (same root distribution,
//!   same influence estimates — see the `sampler-equivalence` oracle
//!   check), not bitwise equal.
//!
//! [`SampleEngine::Auto`] probes the first batch with the reference kernel
//! and switches to the fused kernel only when the measured mean RRR set
//! size says the fusing overhead will amortize (see
//! [`fused_sampling_is_profitable`]).

use ripples_diffusion::{
    sample_batch, sample_batch_fused, sample_batch_sequential, BatchOutcome, DiffusionModel,
    RrrStore, FUSED_LANES,
};
use ripples_graph::Graph;
use ripples_rng::StreamFactory;
use std::ops::Range;

/// Which sampling kernel a run uses for its RRR batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleEngine {
    /// Cost-model dispatch: probe with the reference kernel, then
    /// [`SampleEngine::Fused`] when [`fused_sampling_is_profitable`], else
    /// [`SampleEngine::Reference`] for the rest of the run.
    Auto,
    /// The one-cascade-at-a-time reference sampler (the default; bitwise
    /// deterministic layout, used by every cross-engine equality test).
    Reference,
    /// The 64-lane fused multi-cascade sampler.
    Fused,
}

impl SampleEngine {
    /// Parses a CLI tag (`--sample ENGINE`).
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "auto" => Some(SampleEngine::Auto),
            "reference" | "ref" => Some(SampleEngine::Reference),
            "fused" => Some(SampleEngine::Fused),
            _ => None,
        }
    }

    /// Canonical tag, the inverse of [`SampleEngine::from_tag`].
    #[must_use]
    pub const fn tag(self) -> &'static str {
        match self {
            SampleEngine::Auto => "auto",
            SampleEngine::Reference => "reference",
            SampleEngine::Fused => "fused",
        }
    }
}

/// Samples drawn with the reference kernel before [`SampleEngine::Auto`]
/// commits to a kernel — one full lane word, so the probe itself is exactly
/// the work a single fused block would cover.
pub const AUTO_PROBE_SAMPLES: usize = FUSED_LANES;

/// The measured cost model behind [`SampleEngine::Auto`].
///
/// The fused kernel advances 64 cascades per frontier pass but pays
/// full-width (64-lane) RNG draws on every examined edge, so it wins only
/// when cascades *overlap*: when a typical frontier vertex is live in
/// several lanes at once, one traversal amortizes across them. With RRR
/// sets of mean size `s̄` over `n` vertices, the expected number of lanes
/// touching a given sampled vertex is `64·s̄/n`; we require ≥ 4 so the
/// per-edge draw widening is repaid several times over:
///
/// ```text
/// fused  ⇔  64·s̄ ≥ 4·n  ⇔  s̄ ≥ n/16
/// ```
///
/// Sparse-cascade graphs (WC weights, s̄ ≲ 50) stay on the reference
/// kernel; dense synthetic graphs whose cascades span a large fraction of
/// the vertex set go fused.
#[must_use]
pub fn fused_sampling_is_profitable(n: u32, mean_set_size: f64) -> bool {
    n > 0 && FUSED_LANES as f64 * mean_set_size >= 4.0 * f64::from(n)
}

/// The stateful sampler behind the shared-memory engines' `grow_to` hook:
/// routes each batch to the reference or fused kernel according to the
/// requested [`SampleEngine`], resolving `Auto` once from a measured probe.
///
/// The resolution is deterministic for a fixed `(graph, params)` pair —
/// the probe samples are the collection's first `AUTO_PROBE_SAMPLES`
/// reference samples, whose sizes depend only on the seeded RNG streams —
/// so `Auto` runs are reproducible across thread counts like everything
/// else.
pub struct SamplerDispatch<'a> {
    graph: &'a Graph,
    model: DiffusionModel,
    factory: &'a StreamFactory,
    /// Reference batches run the streamed parallel sampler when true, the
    /// strictly sequential one when false (the fused kernel runs on the
    /// streamed block scheduler either way, with a thread-count-invariant layout).
    parallel: bool,
    /// `Some(true)` = fused, `Some(false)` = reference, `None` = `Auto`
    /// not yet resolved.
    fused: Option<bool>,
    /// The samples `Auto`'s probe drew with the reference kernel (empty
    /// for an explicit engine).
    probe: Range<u64>,
}

impl<'a> SamplerDispatch<'a> {
    /// The graph this dispatcher samples.
    #[must_use]
    pub(crate) fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Creates a dispatcher for one run.
    #[must_use]
    pub fn new(
        graph: &'a Graph,
        model: DiffusionModel,
        factory: &'a StreamFactory,
        engine: SampleEngine,
        parallel: bool,
    ) -> Self {
        Self {
            graph,
            model,
            factory,
            parallel,
            fused: match engine {
                SampleEngine::Auto => None,
                SampleEngine::Reference => Some(false),
                SampleEngine::Fused => Some(true),
            },
            probe: 0..0,
        }
    }

    /// The kernel this dispatcher has committed to: `Some(true)` fused,
    /// `Some(false)` reference, `None` while `Auto` is still unprobed.
    #[must_use]
    pub fn resolved_fused(&self) -> Option<bool> {
        self.fused
    }

    fn reference<S: RrrStore>(&self, first: u64, count: usize, out: &mut S) -> BatchOutcome {
        if self.parallel {
            sample_batch(self.graph, self.model, self.factory, first, count, out)
        } else {
            sample_batch_sequential(
                self.graph,
                self.model,
                self.factory,
                first..first + count as u64,
                out,
            )
        }
    }

    /// Appends samples `first..first+count` to `out` with the resolved
    /// kernel; on the first non-empty `Auto` batch, draws up to
    /// [`AUTO_PROBE_SAMPLES`] reference samples first and commits to a
    /// kernel based on their mean size.
    pub fn sample_batch<S: RrrStore>(
        &mut self,
        first: u64,
        count: usize,
        out: &mut S,
    ) -> BatchOutcome {
        let fused = match self.fused {
            Some(f) => f,
            None => {
                if count == 0 {
                    return BatchOutcome::default();
                }
                let probe = count.min(AUTO_PROBE_SAMPLES);
                self.probe = first..first + probe as u64;
                let mut outcome = self.reference(first, probe, out);
                // The sizes come from the batch itself: a store that keeps
                // only the inverted index holds no sample to ask afterwards.
                let mean = outcome.set_sizes.mean();
                let fused = fused_sampling_is_profitable(self.graph.num_vertices(), mean);
                self.fused = Some(fused);
                let rest = count - probe;
                if rest > 0 {
                    outcome.absorb(self.sample_batch(first + probe as u64, rest, out));
                }
                return outcome;
            }
        };
        if fused {
            sample_batch_fused(self.graph, self.model, self.factory, first, count, out)
        } else {
            self.reference(first, count, out)
        }
    }

    /// Draws samples `0..count` again into `out`, bitwise the samples the
    /// batches before drew: `Auto`'s probe with the reference kernel, every
    /// other sample with the kernel the dispatcher resolved to. Batches
    /// compose (both kernels key a sample's content by its global index),
    /// so one call per kernel redraws them all.
    pub(crate) fn redraw<S: RrrStore>(&self, count: usize, out: &mut S) -> BatchOutcome {
        let end = count as u64;
        let cuts = [0, self.probe.start, self.probe.end, end].map(|cut| cut.min(end));
        let mut outcome = BatchOutcome::default();
        for (i, run) in cuts.windows(2).enumerate() {
            let (first, count) = (run[0], (run[1] - run[0]) as usize);
            if count == 0 {
                continue;
            }
            outcome.absorb(if i != 1 && self.fused == Some(true) {
                sample_batch_fused(self.graph, self.model, self.factory, first, count, out)
            } else {
                self.reference(first, count, out)
            });
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_diffusion::RrrCollection;
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    fn dense_graph() -> Graph {
        // High constant IC probability → cascades span most of the graph,
        // so s̄ ≫ n/16 and the cost model goes fused.
        erdos_renyi(200, 3000, WeightModel::Constant(0.4), false, 5)
    }

    fn sparse_graph() -> Graph {
        // Weighted-cascade-like tiny probabilities → near-singleton sets.
        erdos_renyi(2000, 8000, WeightModel::Constant(0.005), false, 5)
    }

    #[test]
    fn engine_tags_round_trip() {
        for engine in [
            SampleEngine::Auto,
            SampleEngine::Reference,
            SampleEngine::Fused,
        ] {
            assert_eq!(SampleEngine::from_tag(engine.tag()), Some(engine));
        }
        assert_eq!(SampleEngine::from_tag("ref"), Some(SampleEngine::Reference));
        assert!(SampleEngine::from_tag("bogus").is_none());
    }

    #[test]
    fn cost_model_thresholds() {
        assert!(!fused_sampling_is_profitable(0, 10.0));
        // s̄ = n/16 exactly meets the bar.
        assert!(fused_sampling_is_profitable(1600, 100.0));
        assert!(!fused_sampling_is_profitable(1600, 99.0));
    }

    #[test]
    fn reference_dispatch_is_bitwise_identical() {
        let g = dense_graph();
        let f = StreamFactory::new(11);
        let model = DiffusionModel::IndependentCascade;
        let mut direct = RrrCollection::new();
        sample_batch_sequential(&g, model, &f, 0..150, &mut direct);
        let mut routed = RrrCollection::new();
        let mut d = SamplerDispatch::new(&g, model, &f, SampleEngine::Reference, false);
        d.sample_batch(0, 150, &mut routed);
        assert_eq!(direct.len(), routed.len());
        for j in 0..direct.len() {
            assert_eq!(direct.get(j), routed.get(j));
        }
    }

    #[test]
    fn fused_dispatch_is_bitwise_identical_to_fused_kernel() {
        let g = dense_graph();
        let f = StreamFactory::new(11);
        let model = DiffusionModel::IndependentCascade;
        let mut direct = RrrCollection::new();
        sample_batch_fused(&g, model, &f, 0, 150, &mut direct);
        let mut routed = RrrCollection::new();
        let mut d = SamplerDispatch::new(&g, model, &f, SampleEngine::Fused, true);
        let outcome = d.sample_batch(0, 150, &mut routed);
        assert_eq!(direct.len(), routed.len());
        for j in 0..direct.len() {
            assert_eq!(direct.get(j), routed.get(j));
        }
        assert!(outcome.fused_passes > 0);
    }

    #[test]
    fn redraw_repeats_the_batches_that_drew_the_samples() {
        let g = dense_graph();
        let f = StreamFactory::new(11);
        let model = DiffusionModel::IndependentCascade;
        for engine in [
            SampleEngine::Auto,
            SampleEngine::Reference,
            SampleEngine::Fused,
        ] {
            let mut d = SamplerDispatch::new(&g, model, &f, engine, true);
            let mut drawn = RrrCollection::new();
            d.sample_batch(0, 100, &mut drawn);
            d.sample_batch(100, 150, &mut drawn);
            let mut again = RrrCollection::new();
            let outcome = d.redraw(250, &mut again);
            assert_eq!(outcome.set_sizes.count(), 250, "{engine:?}");
            for j in 0..drawn.len() {
                assert_eq!(again.get(j), drawn.get(j), "{engine:?}: sample {j}");
            }
        }
    }

    #[test]
    fn auto_goes_fused_on_dense_cascades() {
        let g = dense_graph();
        let f = StreamFactory::new(11);
        let mut out = RrrCollection::new();
        let mut d = SamplerDispatch::new(
            &g,
            DiffusionModel::IndependentCascade,
            &f,
            SampleEngine::Auto,
            false,
        );
        assert_eq!(d.resolved_fused(), None);
        let outcome = d.sample_batch(0, 200, &mut out);
        assert_eq!(d.resolved_fused(), Some(true));
        assert_eq!(out.len(), 200);
        assert!(outcome.fused_passes > 0, "remainder did not run fused");
        // The probe prefix is the reference sampler's output, bitwise.
        let mut reference = RrrCollection::new();
        sample_batch_sequential(
            &g,
            DiffusionModel::IndependentCascade,
            &f,
            0..AUTO_PROBE_SAMPLES as u64,
            &mut reference,
        );
        for j in 0..AUTO_PROBE_SAMPLES {
            assert_eq!(out.get(j), reference.get(j));
        }
    }

    #[test]
    fn auto_stays_reference_on_sparse_cascades() {
        let g = sparse_graph();
        let f = StreamFactory::new(11);
        let mut out = RrrCollection::new();
        let mut d = SamplerDispatch::new(
            &g,
            DiffusionModel::IndependentCascade,
            &f,
            SampleEngine::Auto,
            false,
        );
        let outcome = d.sample_batch(0, 300, &mut out);
        assert_eq!(d.resolved_fused(), Some(false));
        assert_eq!(out.len(), 300);
        assert_eq!(outcome.fused_passes, 0);
        // A fully reference-resolved Auto run is bitwise the reference run.
        let mut reference = RrrCollection::new();
        sample_batch_sequential(
            &g,
            DiffusionModel::IndependentCascade,
            &f,
            0..300,
            &mut reference,
        );
        for j in 0..300 {
            assert_eq!(out.get(j), reference.get(j));
        }
    }

    #[test]
    fn auto_probe_smaller_than_batch_still_resolves() {
        let g = dense_graph();
        let f = StreamFactory::new(3);
        let mut out = RrrCollection::new();
        let mut d = SamplerDispatch::new(
            &g,
            DiffusionModel::IndependentCascade,
            &f,
            SampleEngine::Auto,
            false,
        );
        // Batch smaller than the probe width: decide on what we have.
        d.sample_batch(0, 10, &mut out);
        assert!(d.resolved_fused().is_some());
        assert_eq!(out.len(), 10);
        // Later batches reuse the committed kernel.
        d.sample_batch(10, 90, &mut out);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn empty_batch_does_not_resolve_auto() {
        let g = dense_graph();
        let f = StreamFactory::new(3);
        let mut out = RrrCollection::new();
        let mut d = SamplerDispatch::new(
            &g,
            DiffusionModel::IndependentCascade,
            &f,
            SampleEngine::Auto,
            false,
        );
        let outcome = d.sample_batch(0, 0, &mut out);
        assert_eq!(d.resolved_fused(), None);
        assert_eq!(outcome.fused_passes, 0);
        assert!(out.is_empty());
    }
}
