//! Live metrics for IMM runs.
//!
//! Re-exports the [`ripples_metrics`] registry (see that crate for the
//! catalog, the lock-free cell design, the background sampler, and the
//! JSON/Prometheus exports). The engine-side glue is
//! [`super::RunReport::enter`] / [`super::RunReport::exit`]: every span
//! sets the [`Metric::Phase`] / [`Metric::Round`] gauges from its
//! [`super::SpanKind`], so an engine that narrates itself through the span
//! tree gets live phase telemetry for free.

pub use ripples_metrics::{
    add, disable, enable, enabled, get, muted, observe_rrr_size, phase, prometheus_text, pulse,
    set, set_max, snapshot, start_sampler, start_sampler_with_cap, Kind, Metric, ProgressFn,
    Reduce, Sample, SamplerHandle, TimeSeries, HIST_BUCKETS, SCHEMA,
};
