//! Resident influence-query service: build the RRR sketch **once**, answer
//! many queries.
//!
//! A batch IMM run pays the full sampling cost (estimation rounds + θ top-up)
//! for a single `(k, seed-set)` answer and then drops the collection. The
//! [`SketchService`] instead builds the sketch one time — sized via
//! [`ImmParams::with_k_max`] so θ covers the largest query it will ever be
//! asked — and keeps the sealed store resident. Each query then re-runs only
//! greedy selection (milliseconds) instead of sampling (seconds to minutes).
//!
//! Three query forms are served:
//!
//! - [`SketchService::topk`] — the top-`k` seed set, bitwise identical to a
//!   fresh batch run at the same master seed and `k_max` (asserted by
//!   `tests/serve.rs` across engine × store combinations).
//! - [`SketchService::topk_excluding`] — top-`k` with a banned-vertex set,
//!   equal to batch selection on a sketch with the banned vertices filtered
//!   out of every sample.
//! - [`SketchService::spread_estimate`] — the standard RRR influence
//!   estimate `n · covered / θ` for an arbitrary seed set, no graph
//!   traversal.
//!
//! The sealed sketch can be written to disk and restored with
//! [`SketchService::snapshot_to`] / [`SketchService::restore_from`] (see
//! [`snapshot`]): a restart restores in O(bytes) and skips sampling
//! entirely, and restored sketches answer queries bitwise-identically.

pub mod snapshot;

use std::time::Instant;

use ripples_core::obs::Histogram;
use ripples_core::{
    build_resident_sketch, coverage_of, select_with_engine_banned, ImmParams, ImmResult,
    SampleEngine, SelectEngine,
};
use ripples_diffusion::{DynRrrStore, RrrStore, RrrStoreKind, StorageConfig};
use ripples_graph::{Graph, Vertex};
use ripples_metrics::Metric;
use ripples_trace::TraceName;

pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

/// Per-query accounting returned alongside every answer, the serve-mode
/// analogue of a batch run's `RunReport`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryReport {
    /// Wall time of the query, nanoseconds.
    pub wall_nanos: u64,
    /// Entries the query's greedy pass read (`SelectStats::entries_touched`:
    /// index-row entries over the index, covered-sample entries without);
    /// 0 for `spread_estimate`, which selects nothing.
    pub entries_touched: u64,
    /// Samples covered by the returned/evaluated seed set.
    pub covered: usize,
    /// `covered / θ`.
    pub coverage_fraction: f64,
}

/// A built (or restored) resident sketch plus everything needed to answer
/// queries against it: the sealed store, the build parameters, and the
/// query-latency histogram behind the p50/p99 gauges.
pub struct SketchService {
    store: DynRrrStore,
    params: ImmParams,
    n: u32,
    graph_fingerprint: u64,
    select: SelectEngine,
    sample: SampleEngine,
    /// θ — the number of samples the sealed store holds.
    theta: usize,
    /// The build run's result, when the sketch was built in-process
    /// (`None` after a snapshot restore, which skips sampling).
    build_result: Option<ImmResult>,
    /// Wall seconds the build spent (sampling + estimation), for the
    /// snapshot-restore speedup report. 0.0 after a restore.
    build_wall_s: f64,
    latency: Histogram,
    queries_served: u64,
}

impl SketchService {
    /// Builds the sketch by running IMM's estimation + sampling phases once,
    /// sized for `params.sizing_k` (set [`ImmParams::with_k_max`] to the
    /// largest `k` the service must answer; queries beyond it are rejected).
    ///
    /// `select` chooses the engine used for every query's greedy pass;
    /// `sample` and `storage` pick the sampling kernel and store layout
    /// exactly as in batch mode.
    #[must_use]
    pub fn build(
        graph: &Graph,
        params: ImmParams,
        select: SelectEngine,
        sample: SampleEngine,
        storage: StorageConfig,
    ) -> Self {
        let start = Instant::now();
        let built = build_resident_sketch(graph, &params, select, sample, storage);
        let build_wall_s = start.elapsed().as_secs_f64();
        let theta = built.store.len();
        let svc = Self {
            store: built.store,
            n: graph.num_vertices(),
            graph_fingerprint: graph.fingerprint(),
            params,
            select,
            sample,
            theta,
            build_result: Some(built.result),
            build_wall_s,
            latency: Histogram::new(),
            queries_served: 0,
        };
        svc.publish_resident_gauges();
        svc
    }

    /// Wraps an already-restored store (the [`snapshot`] module's restore
    /// path); callers use [`SketchService::restore_from`] instead.
    fn from_parts(
        store: DynRrrStore,
        params: ImmParams,
        n: u32,
        graph_fingerprint: u64,
        select: SelectEngine,
        sample: SampleEngine,
    ) -> Self {
        let theta = store.len();
        let svc = Self {
            store,
            params,
            n,
            graph_fingerprint,
            select,
            sample,
            theta,
            build_result: None,
            build_wall_s: 0.0,
            latency: Histogram::new(),
            queries_served: 0,
        };
        svc.publish_resident_gauges();
        svc
    }

    fn publish_resident_gauges(&self) {
        ripples_metrics::set_max(Metric::SketchBytes, self.store.resident_bytes() as u64);
    }

    /// Largest `k` a query may request: the sizing `k` the sketch was built
    /// for. `topk(k ≤ k_max())` is bitwise-identical to a fresh batch run.
    #[must_use]
    pub fn k_max(&self) -> u32 {
        self.params.sizing_k(self.n)
    }

    /// θ — the number of RRR samples the resident store holds.
    #[must_use]
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// Number of graph vertices the sketch was built over.
    #[must_use]
    pub fn num_vertices(&self) -> u32 {
        self.n
    }

    /// Fingerprint of the graph the sketch was built over (see
    /// `Graph::fingerprint`); snapshots embed it so a restore against the
    /// wrong graph is a structured error, not a silent wrong answer.
    #[must_use]
    pub fn graph_fingerprint(&self) -> u64 {
        self.graph_fingerprint
    }

    /// Build parameters (master seed, ε, ℓ, model, `k`/`k_max`).
    #[must_use]
    pub fn params(&self) -> &ImmParams {
        &self.params
    }

    /// The sampling kernel the sketch was drawn with (snapshot provenance).
    #[must_use]
    pub fn sample_engine(&self) -> SampleEngine {
        self.sample
    }

    /// The engine answering queries.
    #[must_use]
    pub fn select_engine(&self) -> SelectEngine {
        self.select
    }

    /// Resident bytes of the sealed store.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    /// Wall seconds the in-process build took (0.0 after a restore).
    #[must_use]
    pub fn build_wall_s(&self) -> f64 {
        self.build_wall_s
    }

    /// The build run's full result, if the sketch was built in-process.
    #[must_use]
    pub fn build_result(&self) -> Option<&ImmResult> {
        self.build_result.as_ref()
    }

    /// Queries answered so far.
    #[must_use]
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Query-latency quantile in nanoseconds (power-of-two histogram
    /// resolution; the top bucket reports the observed max).
    #[must_use]
    pub fn latency_quantile_nanos(&self, q: f64) -> u64 {
        self.latency.quantile(q)
    }

    /// Borrows the resident store (read-only; snapshot + tests).
    #[must_use]
    pub fn store(&self) -> &DynRrrStore {
        self.store_ref()
    }

    fn store_ref(&self) -> &DynRrrStore {
        &self.store
    }

    fn check_k(&self, k: u32) -> Result<(), QueryError> {
        if k == 0 {
            return Err(QueryError::ZeroK);
        }
        if k > self.k_max() {
            return Err(QueryError::KTooLarge {
                k,
                k_max: self.k_max(),
            });
        }
        Ok(())
    }

    fn finish_query(&mut self, start: Instant, k: u32, entries: u64) -> u64 {
        let wall_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.latency.record(wall_nanos);
        self.queries_served += 1;
        if ripples_metrics::enabled() {
            ripples_metrics::add(Metric::QueriesServed, 1);
            ripples_metrics::set(Metric::QueryP50Nanos, self.latency.quantile(0.50));
            ripples_metrics::set(Metric::QueryP99Nanos, self.latency.quantile(0.99));
        }
        ripples_trace::mark(TraceName::QueryEnd, u64::from(k), entries);
        wall_nanos
    }

    /// One greedy pass for `k` seeds from the `banned` mask, through the
    /// engine the service was built with.
    fn select_seeds(&mut self, k: u32, banned: Vec<bool>) -> (Vec<Vertex>, QueryReport) {
        ripples_trace::mark(TraceName::QueryBegin, u64::from(k), 0);
        let start = Instant::now();
        let (selection, stats) =
            select_with_engine_banned(self.select, &self.store, self.n, k, 1, banned);
        let wall_nanos = self.finish_query(start, k, stats.entries_touched);
        (
            selection.seeds,
            QueryReport {
                wall_nanos,
                entries_touched: stats.entries_touched,
                covered: selection.covered,
                coverage_fraction: selection.fraction,
            },
        )
    }

    /// Answers a top-`k` query: greedy max-cover over the resident sketch,
    /// bitwise identical to the selection a fresh batch run (same master
    /// seed, same `k_max`) would return for this `k`.
    ///
    /// # Errors
    ///
    /// [`QueryError::ZeroK`] / [`QueryError::KTooLarge`] when `k` is 0 or
    /// exceeds the sketch's sizing `k`.
    pub fn topk(&mut self, k: u32) -> Result<(Vec<Vertex>, QueryReport), QueryError> {
        self.check_k(k)?;
        Ok(self.select_seeds(k, vec![false; self.n as usize]))
    }

    /// Answers a top-`k` query with a banned-vertex set: equivalent to
    /// greedy selection over a sketch whose samples had the banned vertices
    /// filtered out (banned vertices are never candidates and never count
    /// as covering a sample).
    ///
    /// # Errors
    ///
    /// As [`SketchService::topk`], plus [`QueryError::BannedOutOfRange`]
    /// when a banned id is not a vertex of the graph.
    pub fn topk_excluding(
        &mut self,
        k: u32,
        banned_vertices: &[Vertex],
    ) -> Result<(Vec<Vertex>, QueryReport), QueryError> {
        self.check_k(k)?;
        let mut banned = vec![false; self.n as usize];
        for &v in banned_vertices {
            *banned
                .get_mut(v as usize)
                .ok_or(QueryError::BannedOutOfRange { vertex: v })? = true;
        }
        Ok(self.select_seeds(k, banned))
    }

    /// Estimates the expected influence of an arbitrary seed set as
    /// `n · covered / θ` — the standard unbiased RRR estimator, answered
    /// from the resident sketch without touching the graph: the union of
    /// the seeds' index rows once a query has brought the store's index up
    /// to θ, one probe per sample and seed before.
    ///
    /// # Errors
    ///
    /// [`QueryError::BannedOutOfRange`] (reused for any out-of-range seed
    /// id) when a seed is not a vertex of the graph.
    pub fn spread_estimate(&mut self, seeds: &[Vertex]) -> Result<(f64, QueryReport), QueryError> {
        if let Some(&v) = seeds.iter().find(|&&v| v >= self.n) {
            return Err(QueryError::BannedOutOfRange { vertex: v });
        }
        let k = u32::try_from(seeds.len()).unwrap_or(u32::MAX);
        ripples_trace::mark(TraceName::QueryBegin, u64::from(k), 0);
        let start = Instant::now();
        let covered = coverage_of(&self.store, seeds);
        let fraction = if self.theta == 0 {
            0.0
        } else {
            covered as f64 / self.theta as f64
        };
        let estimate = f64::from(self.n) * fraction;
        let wall_nanos = self.finish_query(start, k, 0);
        Ok((
            estimate,
            QueryReport {
                wall_nanos,
                entries_touched: 0,
                covered,
                coverage_fraction: fraction,
            },
        ))
    }

    /// Serializes the sealed sketch (with provenance header) to `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure; every store layout
    /// snapshots.
    pub fn snapshot_to(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        snapshot::write_snapshot(path, self)
    }

    /// Restores a service from a snapshot written by
    /// [`SketchService::snapshot_to`], skipping sampling entirely. The
    /// provided graph must fingerprint-match the one the sketch was built
    /// over; `select` picks the query engine exactly as in
    /// [`SketchService::build`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on I/O failure, a corrupt/truncated file
    /// (structured, naming the offset and field), or a graph-fingerprint
    /// mismatch.
    pub fn restore_from(
        path: &std::path::Path,
        graph: &Graph,
        select: SelectEngine,
    ) -> Result<Self, SnapshotError> {
        let restored = snapshot::read_snapshot(path, graph)?;
        Ok(Self::from_parts(
            restored.store,
            restored.params,
            graph.num_vertices(),
            graph.fingerprint(),
            select,
            restored.sample,
        ))
    }

    /// The store layout of the resident sketch.
    #[must_use]
    pub fn store_kind(&self) -> RrrStoreKind {
        self.store.kind()
    }
}

/// A query the service cannot answer, reported to the client instead of
/// panicking the resident process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// `k = 0` requests nothing.
    ZeroK,
    /// `k` exceeds the sizing `k` the sketch was built for; answering would
    /// break the bitwise batch-equivalence guarantee.
    KTooLarge {
        /// The requested `k`.
        k: u32,
        /// The sketch's sizing `k`.
        k_max: u32,
    },
    /// A banned/seed vertex id is not a vertex of the graph.
    BannedOutOfRange {
        /// The offending id.
        vertex: Vertex,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::ZeroK => write!(f, "k must be positive"),
            QueryError::KTooLarge { k, k_max } => write!(
                f,
                "k = {k} exceeds the sketch's k_max = {k_max}; rebuild with a larger --k-max"
            ),
            QueryError::BannedOutOfRange { vertex } => {
                write!(f, "vertex id {vertex} is out of range for this graph")
            }
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_diffusion::DiffusionModel;
    use ripples_graph::GraphBuilder;

    fn test_graph() -> Graph {
        // A 12-vertex two-community graph with a bridge: non-degenerate
        // coverage counts so selections are traceable and unique.
        let edges: Vec<(Vertex, Vertex, f32)> = vec![
            (0, 1, 0.9),
            (0, 2, 0.9),
            (1, 2, 0.8),
            (2, 3, 0.7),
            (3, 0, 0.6),
            (3, 4, 0.5),
            (4, 5, 0.9),
            (5, 6, 0.9),
            (6, 7, 0.8),
            (7, 8, 0.8),
            (8, 9, 0.7),
            (9, 10, 0.6),
            (10, 11, 0.9),
            (11, 6, 0.8),
            (2, 8, 0.4),
        ];
        let mut b = GraphBuilder::new(12);
        for (u, v, p) in edges {
            b.add_edge(u, v, p).unwrap();
        }
        b.build().unwrap()
    }

    fn service(k_max: u32) -> SketchService {
        let graph = test_graph();
        let params =
            ImmParams::new(1, 0.5, DiffusionModel::IndependentCascade, 7).with_k_max(k_max);
        SketchService::build(
            &graph,
            params,
            SelectEngine::Sequential,
            SampleEngine::Reference,
            StorageConfig::default(),
        )
    }

    #[test]
    fn topk_is_k_stable_prefix() {
        let mut svc = service(6);
        let (full, _) = svc.topk(6).unwrap();
        for k in 1..=6u32 {
            let (seeds, report) = svc.topk(k).unwrap();
            assert_eq!(seeds.len(), k as usize);
            assert_eq!(&seeds[..], &full[..k as usize], "prefix property at k={k}");
            assert!(report.coverage_fraction > 0.0);
        }
        assert_eq!(svc.queries_served(), 7);
    }

    #[test]
    fn k_bounds_are_enforced() {
        let mut svc = service(4);
        assert_eq!(svc.topk(0).unwrap_err(), QueryError::ZeroK);
        assert_eq!(
            svc.topk(5).unwrap_err(),
            QueryError::KTooLarge { k: 5, k_max: 4 }
        );
        // Errors do not count as served queries.
        assert_eq!(svc.queries_served(), 0);
    }

    #[test]
    fn excluding_drops_banned_seeds() {
        let mut svc = service(4);
        let (seeds, _) = svc.topk(2).unwrap();
        let (filtered, _) = svc.topk_excluding(2, &seeds).unwrap();
        for s in &seeds {
            assert!(!filtered.contains(s), "banned seed {s} reappeared");
        }
        assert_eq!(
            svc.topk_excluding(1, &[99]).unwrap_err(),
            QueryError::BannedOutOfRange { vertex: 99 }
        );
    }

    #[test]
    fn spread_estimate_matches_coverage_identity() {
        let mut svc = service(3);
        let (seeds, report) = svc.topk(3).unwrap();
        let (estimate, sreport) = svc.spread_estimate(&seeds).unwrap();
        // Same seed set, same sketch: identical coverage either way.
        assert_eq!(sreport.covered, report.covered);
        let n = f64::from(svc.num_vertices());
        assert!((estimate - n * sreport.coverage_fraction).abs() < 1e-12);
        assert_eq!(
            svc.spread_estimate(&[1000]).unwrap_err(),
            QueryError::BannedOutOfRange { vertex: 1000 }
        );
    }

    #[test]
    fn latency_quantiles_populate() {
        let mut svc = service(2);
        for _ in 0..5 {
            svc.topk(2).unwrap();
        }
        assert!(svc.latency_quantile_nanos(0.5) > 0);
        assert!(svc.latency_quantile_nanos(0.99) >= svc.latency_quantile_nanos(0.5));
    }
}
