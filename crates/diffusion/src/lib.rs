//! Diffusion kernels for influence maximization.
//!
//! Two families of kernels, matching §3 of the CLUSTER'19 paper:
//!
//! * **Forward simulation** ([`forward`]): the probabilistic BFS that plays
//!   a cascade out of a seed set under the Independent Cascade (IC) or
//!   Linear Threshold (LT) model, plus the Monte-Carlo spread estimator used
//!   to score seed sets (Figure 1's y-axis) and by the Kempe/CELF baseline.
//! * **Reverse-reachability sampling** ([`rrr`], [`sampler`]): Algorithm 3's
//!   `GenerateRR` — a probabilistic BFS over *incoming* edges from a random
//!   root, evaluated lazily so the sampled subgraph `g` is never
//!   materialized, returning the visited vertices **sorted by id** (the
//!   paper's §3.1 layout decision that enables binary-searched partition
//!   scans during seed selection).
//!
//! The sample collection is stored in the compact one-direction layout of
//! §3.1, [`rrr::RrrCollection`] (the paper's IMMOPT; Tang et al.'s
//! two-direction layout, the other side of Table 2, lives with its engine
//! in `ripples-core`). The engines hold it behind [`store::RrrStore`]; the
//! default backend ([`mixed::MixedRrrCollection`]) is the compact layout
//! with sets above n/32 vertices kept as bitmaps and those above 31n/32 as
//! complements, the ids they leave out. Selection may ask the
//! store for the one inverted index ([`sample_index::SampleIndex`]:
//! gap-varint rows, 1–2 bytes per association), which
//! [`store::DynRrrStore`] builds at the first indexed pass, grows as each
//! later batch ends, alone keeps once a run releases its samples, and
//! spills in sealed segments under a spill store's `--rrr-budget`.

#![warn(missing_docs)]

pub mod compressed;
pub mod forward;
pub mod fused;
pub mod intervals;
pub mod mixed;
pub mod model;
pub mod partitioned;
pub mod rrr;
pub mod sample_index;
pub mod sampler;
mod spill;
pub mod store;

pub use forward::{estimate_spread, simulate_cascade, spread_samples, CascadeOutcome};
pub use fused::{sample_batch_fused, FUSED_LANES};
pub use mixed::{FormCounts, MixedRrrCollection, RrrSetRef, SampleArena};
pub use model::DiffusionModel;
pub use rrr::{generate_rrr, generate_rrr_in_scratch, RrrCollection, RrrScratch};
pub use sample_index::SampleIndex;
pub use sampler::{
    ensure_lt_normalized, sample_batch, sample_batch_sequential, sample_root_of, BatchOutcome,
};
pub use store::{DynRrrStore, RrrStore, RrrStoreKind, StorageConfig};
