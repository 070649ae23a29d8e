//! `rbo_check` — rank-biased-overlap gate for two seed rankings.
//!
//! Reads two seed files (one vertex id per line — the `ripples` binary's
//! stdout format), computes their extrapolated RBO, and exits non-zero
//! when it falls below `--min`. CI uses this to assert that the fused
//! sampling kernel and the reference sampler agree on the seed ranking
//! (statistically, not bitwise — see EXPERIMENTS.md § "Choosing a
//! sampling engine").
//!
//! ```text
//! rbo_check --a SEEDS_A --b SEEDS_B [--min 0.95] [--p 0.9]
//! ```
//!
//! - `--a`, `--b` — the two seed files to compare (required).
//! - `--min`      — minimum acceptable RBO in `[0, 1]` (default `0.95`).
//! - `--p`        — RBO persistence parameter in `(0, 1)` (default `0.9`).

use ripples_bench::Args;
use ripples_centrality::rank_biased_overlap;

fn read_ranking(path: &str) -> Vec<u32> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| {
            l.parse().unwrap_or_else(|e| {
                eprintln!("error: {path}: `{l}` is not a vertex id: {e}");
                std::process::exit(2);
            })
        })
        .collect()
}

const USAGE: &str = "usage: rbo_check --a SEEDS_A --b SEEDS_B [--min 0.95] [--p 0.9]";

/// `--name` as a number, `default` when absent; a bad value prints
/// `error: …` and the usage line and exits with status 2.
fn number(args: &Args, name: &str, default: f64) -> f64 {
    args.try_parse(name).map_or_else(
        |message| {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        },
        |value| value.unwrap_or(default),
    )
}

fn main() {
    let args = Args::from_env();
    let (Some(path_a), Some(path_b)) = (args.get("a"), args.get("b")) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let min = number(&args, "min", 0.95);
    let p = number(&args, "p", 0.9);

    let a = read_ranking(path_a);
    let b = read_ranking(path_b);
    let rbo = rank_biased_overlap(&a, &b, p);
    println!("rbo {rbo:.6} (|a|={}, |b|={}, p={p})", a.len(), b.len());
    if rbo < min {
        eprintln!("FAIL: rbo {rbo:.6} < required minimum {min}");
        std::process::exit(1);
    }
    eprintln!("OK: rbo {rbo:.6} >= {min}");
}
