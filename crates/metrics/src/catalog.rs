//! The telemetry catalog: every named quantity the workspace records,
//! declared once.
//!
//! One `catalog!` row generates the [`Metric`] variant (the registry cell
//! index), its [`Row`] of metadata and — for rows in the `report` group —
//! the `u64` field of [`Counters`]. Every view is a loop over
//! [`Metric::ALL`]: the run report's JSON and pretty counters block, the
//! Prometheus exposition, the time-series header, the cross-rank sum
//! reduction and the determinism test. Adding a quantity costs one row here
//! plus its one record site. A report row is recorded once — a sampling
//! counter in the batch's `BatchOutcome`, a selection counter in the pass's
//! `SelectStats`, a peak where the report keeps it — and for a `LIVE` row
//! that site adds the same delta to the registry cell, so the report and
//! the live view read one record.

/// How a quantity evolves over a run; decides the Prometheus type and the
/// `_total` suffix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing; exported with a `_total` suffix.
    Counter,
    /// High-water mark of a level (`set_max`).
    Peak,
    /// Point-in-time level (`set`).
    Level,
}

impl Kind {
    /// `"counter"` or `"gauge"` — the Prometheus data model has no peaks.
    #[must_use]
    pub const fn exposition(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Peak | Kind::Level => "gauge",
        }
    }
}

/// How a distributed engine combines the per-rank values of a report row
/// into the one value every rank reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduce {
    /// Summed over ranks, all such rows in one All-Reduce in table order.
    Sum,
    /// Max-reduced over ranks (identical on live ranks by lockstep, or a
    /// true maximum; dead ranks contribute nothing).
    Max,
    /// Left as this process observed it.
    PerRank,
}

/// The declared properties of one catalog entry.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Stable snake_case name: the `Counters` field, the report's JSON key
    /// and pretty label, the Prometheus and time-series name.
    pub name: &'static str,
    /// Counter, peak or level.
    pub kind: Kind,
    /// Cross-rank reduction of the report value.
    pub reduce: Reduce,
    /// Identical across thread counts and rank counts for a fixed
    /// `(graph, params)` pair.
    pub deterministic: bool,
    /// Carried by `Counters`, and so by every report export.
    pub in_report: bool,
    /// Written to the live registry during a run, and so exported by
    /// Prometheus and the time series.
    pub live: bool,
    /// `"bytes"`, `"ns"`, or empty for a plain count.
    pub unit: &'static str,
    /// One-line description (rustdoc and Prometheus `# HELP`).
    pub help: &'static str,
}

// The two yes/no columns of a `report` row, spelled so a row reads aloud.
const STABLE: bool = true;
const VARIES: bool = false;
const LIVE: bool = true;
const FINAL: bool = false;

macro_rules! catalog {
    (
        report { $($rname:ident $RVar:ident: $rkind:ident $rreduce:ident $rdet:ident $rlive:ident $runit:literal $rhelp:literal;)* }
        live { $($lname:ident $LVar:ident: $lkind:ident $lunit:literal $lhelp:literal;)* }
    ) => {
        /// Every catalog entry. The discriminant is the registry cell index
        /// and the position in [`Metric::ALL`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Metric {
            $(#[doc = $rhelp] $RVar,)*
            $(#[doc = $lhelp] $LVar,)*
        }

        impl Metric {
            /// Every entry, in table (= cell) order.
            pub const ALL: [Metric; Self::COUNT] = [$(Metric::$RVar,)* $(Metric::$LVar,)*];
            /// Number of entries (cells in the registry).
            pub const COUNT: usize = Self::ROWS.len();
            const ROWS: &'static [Row] = &[
                $(Row {
                    name: stringify!($rname),
                    kind: Kind::$rkind,
                    reduce: Reduce::$rreduce,
                    deterministic: $rdet,
                    in_report: true,
                    live: $rlive,
                    unit: $runit,
                    help: $rhelp,
                },)*
                $(Row {
                    name: stringify!($lname),
                    kind: Kind::$lkind,
                    reduce: Reduce::PerRank,
                    deterministic: false,
                    in_report: false,
                    live: true,
                    unit: $lunit,
                    help: $lhelp,
                },)*
            ];
        }

        /// The counters of a run report: one `u64` per `report` row of the
        /// catalog plus the two per-round series.
        ///
        /// Rows the catalog flags deterministic, `round_budgets` and
        /// `round_coverage` are identical across thread counts and (for the
        /// indexed-stream RNG mode) across rank counts for a fixed
        /// `(graph, params)` pair; the rest are per-process observations.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct Counters {
            $(#[doc = $rhelp] pub $rname: u64,)*
            /// Per-round sample budgets `θ_x` requested by the schedule.
            pub round_budgets: Vec<u64>,
            /// Per-round coverage fraction achieved by the greedy selection.
            pub round_coverage: Vec<f64>,
        }

        impl Counters {
            /// The value of `metric`'s field; `None` for a live-only row.
            #[must_use]
            pub fn get(&self, metric: Metric) -> Option<u64> {
                match metric {
                    $(Metric::$RVar => Some(self.$rname),)*
                    _ => None,
                }
            }

            /// The field of `metric`; `None` for a live-only row.
            pub fn get_mut(&mut self, metric: Metric) -> Option<&mut u64> {
                match metric {
                    $(Metric::$RVar => Some(&mut self.$rname),)*
                    _ => None,
                }
            }
        }
    };
}

// name Variant: kind reduce STABLE|VARIES LIVE|FINAL unit help
//
// `report` rows are in the order `RunReport::to_json` has always written
// them; `live` rows exist only in the registry. A live cell is shared by the
// rank threads of an in-process world, so it sums (counters) or maxes
// (peaks) over them whatever the report's `reduce` says.
catalog! {
    report {
        samples_generated SamplesGenerated: Counter Sum STABLE LIVE ""
            "RRR samples generated (globally, for the distributed engines)";
        edges_examined EdgesExamined: Counter Sum STABLE LIVE ""
            "In-edges examined while generating those samples (globally, for the distributed engines)";
        rrr_entries RrrEntries: Counter Sum STABLE FINAL ""
            "Total vertex entries stored across all RRR sets (globally, for the distributed engines)";
        rrr_bytes_peak RrrBytesPeak: Peak PerRank VARIES LIVE "bytes"
            "Peak resident bytes of the RRR storage on this process: the sample-major store, or for a run that selects from the inverted index alone the stage its samples wait in until the index absorbs them";
        theta_rounds ThetaRounds: Counter PerRank STABLE FINAL ""
            "EstimateTheta martingale rounds executed";
        theta_final ThetaFinal: Level PerRank STABLE FINAL ""
            "The final sample count θ";
        select_iterations SelectIterations: Counter PerRank STABLE LIVE ""
            "Greedy seed-selection iterations, summed over every selection pass (estimation rounds + the final SelectSeeds)";
        unsorted_pushes UnsortedPushes: Counter Sum STABLE FINAL ""
            "Out-of-contract (unsorted) store pushes repaired by sorting; always 0 for the in-tree samplers";
        select_entries_touched SelectEntriesTouched: Counter Sum VARIES LIVE ""
            "Entries selection read, summed over every pass: index-row entries recounted by a pass over the inverted index (on shared memory or an indexed rank), or the entries of the samples each greedy step covered, which an index-free pass or rank decrements (globally, for the distributed engines)";
        index_build_nanos IndexBuildNanos: Counter PerRank VARIES FINAL "ns"
            "Wall time selection passes spent bringing the inverted index up to date, summed over every pass on this process; a run that selects from the index alone grows it while sampling, outside this count";
        index_bytes_peak IndexBytesPeak: Peak PerRank VARIES LIVE "bytes"
            "Peak resident bytes of a selection inverted index on this process: its degrees and resident segments, not the segments a spill-kind store's `--rrr-budget` sent to the spill file";
        arena_bytes_peak ArenaBytesPeak: Peak PerRank VARIES LIVE "bytes"
            "Peak transient bytes of the sampler's worker-local arenas on this process (0 for the sequential sampler, which has none)";
        fused_passes FusedPasses: Counter PerRank VARIES LIVE ""
            "Frontier passes executed by the fused multi-cascade sampler (0 for the reference sampler)";
        mask_bytes_peak MaskBytesPeak: Peak PerRank VARIES LIVE "bytes"
            "Peak transient bytes of the fused sampler's per-vertex activation masks on this process (0 for the reference sampler)";
        spill_bytes_written SpillBytesWritten: Counter PerRank VARIES FINAL "bytes"
            "Bytes written to spill files on this process: the inverted index's sealed segments under a spill-kind store's `--rrr-budget` (0 under no budget or below it)";
        rrr_sets_bitmap RrrSetsBitmap: Counter Sum STABLE FINAL ""
            "RRR sets the flat store holds as bitmaps rather than sorted lists: those spanning more than n/32 and at most 31n/32 vertices, the denser ones being complements (globally, for the distributed engines)";
        rrr_bitmap_bytes RrrBitmapBytes: Counter Sum STABLE FINAL "bytes"
            "Payload bytes of those bitmaps, ⌈n/64⌉ words each (globally, for the distributed engines)";
        rrr_sets_complement RrrSetsComplement: Counter Sum STABLE FINAL ""
            "RRR sets the flat store holds as complements, the sorted list of the vertices they leave out: those spanning more than 31n/32 vertices (globally, for the distributed engines)";
        rrr_complement_bytes RrrComplementBytes: Counter Sum STABLE FINAL "bytes"
            "Payload bytes of those complements, 4 per vertex left out (globally, for the distributed engines)";
        spill_write_failures SpillWriteFailures: Counter PerRank VARIES FINAL ""
            "Spill-file creations or writes that failed on this process; the index then keeps its segments resident beyond `--rrr-budget`";
        retries Retries: Counter Max VARIES LIVE ""
            "Collective attempts `FaultComm` retried after a fault; 0 on a reliable fabric";
        dropped_ops DroppedOps: Counter Max VARIES LIVE ""
            "Collective attempts the fault plan failed before they reached the backend (every one is retried)";
        degraded_ranks DegradedRanks: Level Max VARIES LIVE ""
            "Ranks declared dead and excluded from the run's collectives";
        graph_bytes_peak GraphBytesPeak: Peak Max VARIES LIVE "bytes"
            "Peak resident bytes of one process's share of the graph: for replicated engines the reverse CSR — its gap-varint coded rows and their u32 byte offsets — and its probabilities (one per vertex when every in-row is uniform, else one per edge with u32 edge offsets), plus the forward view only once a forward reader has built it; the vertex-cut shard, raw sources and one probability per edge, for `imm_sharded`";
        frontier_exchanges FrontierExchanges: Counter Max VARIES LIVE ""
            "Batched frontier exchanges (`alltoallv`) issued by the sharded engine; 0 for replicated engines";
        overlap_nanos OverlapNanos: Counter Max VARIES FINAL "ns"
            "Frontier-exchange latency hidden behind local sampling (post-to-wait gaps, summed); 0 for replicated engines";
        index_hot_rows IndexHotRows: Level PerRank VARIES FINAL ""
            "Vertices whose rows the inverted index keeps after the last selection pass of a run that selects from the index alone: every vertex but the cold ones, whose degree fell below `index_hot_tau` (0 for a run that keeps its samples)";
        index_hot_tau IndexHotTau: Level PerRank VARIES FINAL ""
            "The degree below which that last pass turned vertices cold: the least count c with c + 3·√c + 9 ≥ g_k/2, g_k being the pass's k-th marginal gain (0 for a run that keeps its samples)";
        index_regenerations IndexRegenerations: Counter PerRank VARIES LIVE ""
            "Times a selection pass of an index-only run popped a cold vertex and rebuilt the index from the run's samples drawn again, with the rows of every cold vertex whose degree reached the popped key";
        index_regeneration_edges IndexRegenerationEdges: Counter PerRank VARIES FINAL ""
            "In-edges examined while drawing samples again for those rebuilds; never part of `edges_examined`, and never added to the live registry's sampling rows";
        index_only_at_samples IndexOnlyAtSamples: Level PerRank VARIES LIVE ""
            "Samples the store held when a run that selects from the inverted index alone released them into it: the first batch's 64-sample prefix when that decided, the first round when its first selection pass did, 0 for a run that keeps its samples";
        load_nanos LoadNanos: Counter PerRank VARIES FINAL "ns"
            "Wall time the `ripples` CLI spent loading or generating the graph, its LT readjustment included; 0 outside the CLI";
        rss_hwm_after_load RssHwmAfterLoad: Peak PerRank VARIES FINAL "bytes"
            "The process's resident high-water mark (`VmHWM`) right after the `ripples` CLI loaded or generated the graph; 0 off Linux and outside the CLI";
        rss_hwm_after_solve RssHwmAfterSolve: Peak PerRank VARIES FINAL "bytes"
            "The process's resident high-water mark right after the solve: above `rss_hwm_after_load` when the solve set the run's peak, equal to it when the load did; 0 off Linux and outside the CLI";
    }
    live {
        phase Phase: Level ""
            "Current engine phase (0 idle, 1 estimate-theta, 2 sample, 3 select, 4 simulate)";
        round Round: Level ""
            "Current martingale estimation round (1-based, 0 outside estimation)";
        theta_target ThetaTarget: Level ""
            "RRR samples the current phase is working towards (round budget during estimation, final θ during the top-up)";
        sketch_bytes SketchBytes: Peak "bytes"
            "Resident sketch footprint held by the serve mode";
        query_p50_nanos QueryP50Nanos: Level "ns"
            "Median serve-query latency (power-of-two histogram upper bound)";
        query_p99_nanos QueryP99Nanos: Level "ns"
            "99th-percentile serve-query latency (power-of-two histogram upper bound)";
        comm_ops CommOps: Counter ""
            "Collective operations issued across all ranks";
        comm_bytes CommBytes: Counter "bytes"
            "Payload bytes moved by collectives across all ranks";
        queries_served QueriesServed: Counter ""
            "Queries answered by the resident serve mode";
    }
}

impl Metric {
    /// The declared properties of this entry.
    #[must_use]
    pub fn row(self) -> &'static Row {
        &Self::ROWS[self as usize]
    }

    /// Stable export name (snake_case, no namespace prefix).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The entries the registry records during a run, in cell order — the
    /// columns of every live export.
    pub fn live() -> impl Iterator<Item = Metric> {
        Self::ALL.into_iter().filter(|m| m.row().live)
    }
}

impl Counters {
    /// Every report row with its value, in table order.
    pub fn rows(&self) -> impl Iterator<Item = (Metric, u64)> + '_ {
        Metric::ALL
            .into_iter()
            .filter_map(|m| self.get(m).map(|v| (m, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_field_idents_and_unique() {
        assert_eq!(
            Metric::SelectEntriesTouched.name(),
            "select_entries_touched"
        );
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::COUNT);
    }
}
