//! Shared harness utilities for the crate's binaries.
//!
//! `repro` (`src/bin/repro.rs`) reproduces each of the paper's tables and
//! figures as one subcommand (see DESIGN.md §4 for the index); `ripples`
//! and `serve` run IMM on a graph the user names. This library holds what
//! they share: aligned table rendering, a minimal `--flag value` argument
//! parser, a timing helper, and the standard graph-preparation paths
//! (stand-in generation at a chosen divisor with the paper's weight
//! conventions, or a graph from `--input`, `--standin` or `--gen`).

#![warn(missing_docs)]

pub use ripples_trace::json;

use ripples_core::{SampleEngine, SelectEngine};
use ripples_diffusion::{DiffusionModel, RrrStoreKind, StorageConfig};
use ripples_graph::generators::{
    barabasi_albert, erdos_renyi, standin, standin_catalog, StandinSpec,
};
use ripples_graph::io::{read_edge_list_file, EdgeListOptions, VertexIds};
use ripples_graph::{Graph, WeightModel};
use std::time::{Duration, Instant};

/// Measures `f`, returning its output and the elapsed wall-clock.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The process's resident high-water mark, `VmHWM` in `/proc/self/status`,
/// in bytes; 0 where there is no such file (off Linux).
#[must_use]
pub fn rss_high_water_mark() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| {
            value
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        });
    kib.map_or(0, |kib| kib * 1024)
}

/// Builds the experiment input for `spec` under the paper's weighting
/// conventions: IC uses uniform-random probabilities in `[0, 1)` (§4), LT
/// additionally renormalizes each vertex's incoming mass to at most one.
#[must_use]
pub fn paper_graph(spec: &StandinSpec, divisor: u32, model: DiffusionModel) -> Graph {
    let weights = WeightModel::UniformRandom { seed: 0xEDCE };
    match model {
        DiffusionModel::IndependentCascade => spec.build(divisor, weights, false),
        DiffusionModel::LinearThreshold => spec.build(divisor, weights, true),
    }
}

/// The stand-in divisor to use: the spec's default multiplied by
/// `--scale-div` (a cheap way to shrink every experiment for smoke runs).
#[must_use]
pub fn effective_divisor(spec: &StandinSpec, extra: u32) -> u32 {
    spec.default_divisor.saturating_mul(extra.max(1))
}

/// The four biggest graphs of the catalogue — the paper's distributed
/// experiments (Figures 7–8) use only these ("smaller graphs do not produce
/// sufficient work to justify high processor count").
#[must_use]
pub fn big_four() -> Vec<&'static StandinSpec> {
    ["com-YouTube", "soc-Pokec", "soc-LiveJournal1", "com-Orkut"]
        .iter()
        .map(|n| {
            standin_catalog()
                .iter()
                .find(|s| s.name.eq_ignore_ascii_case(n))
                .expect("catalog entry")
        })
        .collect()
}

/// Minimal `--flag value` / `--flag` argument parser for the crate's
/// binaries (no external CLI crates offline).
#[derive(Clone, Debug, Default)]
pub struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `std::env::args` (skipping the binary name).
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses an explicit token stream (used by tests).
    #[allow(clippy::should_implement_trait)] // not an iterator-of-Args collection
    pub fn from_iter<I: IntoIterator<Item = String>>(tokens: I) -> Self {
        let mut pairs = Vec::new();
        let mut tokens = tokens.into_iter().peekable();
        while let Some(tok) = tokens.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value = match tokens.peek() {
                    Some(next) if !next.starts_with("--") => tokens.next(),
                    _ => None,
                };
                pairs.push((name.to_string(), value));
            } else {
                // Bare positional tokens are recorded under an empty name.
                pairs.push((String::new(), Some(tok)));
            }
        }
        Self { pairs }
    }

    /// The raw string value of `--name`, if present with a value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// True if `--name` appeared (with or without value).
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    /// The names of the `--flag`s given, in order (without the dashes).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.pairs
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| !n.is_empty())
    }

    /// Bare (non-`--flag`) tokens, in order. A token following a `--flag`
    /// is that flag's value, not a positional.
    #[must_use]
    pub fn positional(&self) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(n, _)| n.is_empty())
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    /// Parses `--name` as `T`: `Ok(None)` when the flag is absent.
    ///
    /// # Errors
    ///
    /// A message naming the flag and the value that failed to parse.
    pub fn try_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("invalid value `{raw}` for --{name}"))
            })
            .transpose()
    }
}

/// Why [`load_graph`] produced no graph.
#[derive(Debug)]
pub enum GraphSourceError {
    /// A flag value the user got wrong (exit status 2, with the usage
    /// line); nothing was read or generated.
    Usage(String),
    /// The `--input` file could not be read or parsed (exit status 1).
    Load(String),
}

/// The graph the `ripples` and `serve` binaries run on: `--input FILE
/// [--undirected]` (a SNAP-style edge list, ids remapped), `--standin NAME
/// [--scale-div D]` (the catalogue's stand-in for a paper input) or `--gen
/// ba:N:M|er:N:M [--gen-seed S]` (Barabási–Albert with `M` edges per new
/// vertex, or `G(n, m)` Erdős–Rényi), in that order of precedence, with
/// edge probabilities from `weights`.
///
/// # Errors
///
/// Every flag value is checked before anything is generated, so a bad one
/// is a [`GraphSourceError::Usage`] that cost no work.
pub fn load_graph(
    args: &Args,
    weights: WeightModel,
    lt_normalize: bool,
) -> Result<Graph, GraphSourceError> {
    use GraphSourceError::{Load, Usage};
    if let Some(path) = args.get("input") {
        let options = EdgeListOptions {
            vertex_ids: VertexIds::Remap,
            undirected: args.flag("undirected"),
            default_prob: 1.0,
            weights: Some(weights),
        };
        let mut g = read_edge_list_file(path, options)
            .map_err(|e| Load(format!("cannot load {path}: {e}")))?;
        if lt_normalize {
            g.normalize_for_lt();
        }
        Ok(g)
    } else if let Some(name) = args.get("standin") {
        let spec = standin(name).ok_or_else(|| {
            Usage(format!(
                "unknown --standin `{name}`; see ripples-graph's catalog"
            ))
        })?;
        let divisor = args.try_parse("scale-div").map_err(Usage)?;
        if divisor == Some(0) {
            return Err(Usage("--scale-div must be positive".to_string()));
        }
        Ok(spec.build(
            divisor.unwrap_or(spec.default_divisor),
            weights,
            lt_normalize,
        ))
    } else if let Some(spec) = args.get("gen") {
        let seed = args.try_parse("gen-seed").map_err(Usage)?.unwrap_or(42);
        // Parsed at the width the generator takes: a count that does not
        // fit is rejected here, never narrowed.
        fn count<T: std::str::FromStr>(spec: &str, s: &str) -> Result<T, GraphSourceError> {
            s.parse().map_err(|_| {
                Usage(format!(
                    "--gen `{spec}`: `{s}` is not a count this generator can take"
                ))
            })
        }
        match spec.split(':').collect::<Vec<_>>().as_slice() {
            ["ba", n, m] => {
                let (n, m): (u32, u32) = (count(spec, n)?, count(spec, m)?);
                if m == 0 || n <= m {
                    return Err(Usage(format!("--gen `{spec}`: ba:N:M needs N > M > 0")));
                }
                Ok(barabasi_albert(n, m, weights, lt_normalize, seed))
            }
            ["er", n, m] => {
                let (n, m): (u32, usize) = (count(spec, n)?, count(spec, m)?);
                if m > 0 && n < 2 {
                    return Err(Usage(format!(
                        "--gen `{spec}`: er:N:M with M > 0 needs N >= 2"
                    )));
                }
                Ok(erdos_renyi(n, m, weights, lt_normalize, seed))
            }
            _ => Err(Usage(format!(
                "--gen takes `ba:N:M` or `er:N:M`, got `{spec}`"
            ))),
        }
    } else {
        Err(Usage(
            "pass --input FILE, --standin NAME (e.g. --standin cit-HepTh), or --gen ba:N:M|er:N:M"
                .to_string(),
        ))
    }
}

/// Parses `--rrr-budget` for the `ripples` and `serve` binaries, which call
/// it before they load a graph: a budget makes the budgeted store, and
/// without one the store is flat.
///
/// # Errors
///
/// The message to print for a value that does not parse, or for the
/// removed `--rrr-store`.
pub fn parse_storage(args: &Args) -> Result<StorageConfig, String> {
    if args.flag("rrr-store") {
        return Err(
            "--rrr-store was removed: --rrr-budget BYTES makes the budgeted store, \
             and without it the store is flat"
                .to_string(),
        );
    }
    let budget = args.try_parse("rrr-budget")?;
    let kind = if budget.is_some() {
        RrrStoreKind::Spill
    } else {
        RrrStoreKind::Flat
    };
    Ok(StorageConfig { kind, budget })
}

/// Parses `--epsilon` for the `ripples` and `serve` binaries: the IMM
/// approximation slack, 0.5 when absent.
///
/// # Errors
///
/// The message to print for a value that does not parse or lies outside
/// `(0, 1)`.
pub fn parse_epsilon(args: &Args) -> Result<f64, String> {
    let epsilon = args.try_parse("epsilon")?.unwrap_or(0.5);
    if epsilon > 0.0 && epsilon < 1.0 {
        Ok(epsilon)
    } else {
        Err(format!("--epsilon must lie in (0, 1), got {epsilon}"))
    }
}

/// Parses a `--select` tag for the `ripples` and `serve` binaries.
///
/// # Errors
///
/// The message to print for an unknown tag.
pub fn parse_select(tag: &str) -> Result<SelectEngine, String> {
    SelectEngine::from_tag(tag)
        .ok_or_else(|| format!("unknown --select `{tag}` (try auto|sequential|partitioned|fused)"))
}

/// Parses a `--sample` tag for the `ripples` and `serve` binaries.
///
/// # Errors
///
/// The message to print for an unknown tag.
pub fn parse_sample(tag: &str) -> Result<SampleEngine, String> {
    SampleEngine::from_tag(tag)
        .ok_or_else(|| format!("unknown --sample `{tag}` (try auto|reference|fused)"))
}

/// An aligned plain-text table printer for experiment output.
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with right-aligned columns separated by two spaces.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String], widths: &[usize]| {
            row.iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as comma-separated values (for plotting scripts).
    #[must_use]
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.header).chain(&self.rows) {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_values_and_flags() {
        let a = Args::from_iter(
            ["--k", "50", "--csv", "--model", "ic"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.get("k"), Some("50"));
        assert_eq!(a.try_parse::<u32>("k"), Ok(Some(50)));
        assert!(a.flag("csv"));
        assert!(!a.flag("absent"));
        assert_eq!(a.try_parse::<u32>("missing"), Ok(None));
        assert_eq!(a.get("model"), Some("ic"));
        assert_eq!(
            a.try_parse::<u32>("model"),
            Err("invalid value `ic` for --model".to_string())
        );
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["x", "1"]);
        t.row(vec!["longer", "22"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
        let csv = t.render_csv();
        assert_eq!(csv.lines().next(), Some("name,value"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn big_four_are_the_paper_set() {
        let names: Vec<&str> = big_four().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["com-YouTube", "soc-Pokec", "soc-LiveJournal1", "com-Orkut"]
        );
    }

    #[test]
    fn paper_graph_lt_is_normalized() {
        let spec = ripples_graph::generators::standin("cit-HepTh").unwrap();
        let g = paper_graph(spec, 64, DiffusionModel::LinearThreshold);
        for v in 0..g.num_vertices() {
            assert!(g.in_weight_sum(v) <= 1.0 + 1e-5);
        }
    }
}
