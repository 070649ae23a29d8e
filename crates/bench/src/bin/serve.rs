//! `serve` — the resident influence-query service.
//!
//! Builds (or restores) an RRR sketch **once**, then answers any number of
//! top-k / exclusion / spread queries from it over a zero-dependency
//! NDJSON line protocol — stdin/stdout by default, TCP with `--tcp ADDR`,
//! or a batch replay of a query file with `--queries FILE`.
//!
//! ```text
//! serve --standin cit-HepTh --scale-div 96 --k-max 16 [--epsilon E]
//!       [--seed S] [--model ic|lt]
//!       [--select auto|sequential|partitioned|fused]
//!       [--sample auto|reference|fused]
//!       [--rrr-budget BYTES]
//!       [--snapshot-out FILE] [--snapshot-in FILE]
//!       [--queries FILE] [--tcp ADDR] [--read-timeout-ms MS]
//!       [--metrics FILE] [--no-timing]
//! ```
//!
//! Graph sources are the same as the `ripples` binary: `--input FILE`
//! (edge list), `--standin NAME [--scale-div D]`, or `--gen ba:N:M|er:N:M
//! [--gen-seed S]`.
//!
//! ## Protocol
//!
//! One JSON object per line in, one per line out (requests are parsed
//! with the bench JSON reader; every response is re-validated with the
//! trace crate's RFC 8259 validator before it is written):
//!
//! ```text
//! {"op":"topk","k":10}
//! {"op":"topk_excluding","k":10,"banned":[3,17]}
//! {"op":"spread","seeds":[3,17,40]}
//! {"op":"info"}
//! {"op":"quit"}
//! ```
//!
//! Responses carry `"ok":true` plus the answer and per-query accounting
//! (`wall_ns`, `entries_touched`, `covered`, `coverage`), or `"ok":false`
//! with an `"error"` string; the process never dies on a bad query.
//! `--no-timing` reports `wall_ns` as 0 — the one nondeterministic frame
//! field — so two replays of the same query file are byte-comparable
//! (CI's snapshot-restart parity gate relies on this).
//!
//! ## Snapshots
//!
//! `--snapshot-out FILE` writes the sealed sketch (versioned header with
//! graph fingerprint + RNG provenance, whole-file checksum) after the
//! build; `--snapshot-in FILE` restores it and **skips sampling
//! entirely** — the restored service answers bitwise-identically to the
//! one that wrote the file. A store with or without `--rrr-budget` writes
//! the same file, and a file an older varint store wrote still restores.
//! Restore refuses (with a structured error) on corrupt bytes or a
//! fingerprint mismatch with the loaded graph.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use ripples_bench::json::{parse, Value};
use ripples_bench::{
    load_graph, parse_epsilon, parse_sample, parse_select, parse_storage, Args, GraphSourceError,
};
use ripples_core::{ImmParams, SampleEngine, SelectEngine};
use ripples_diffusion::DiffusionModel;
use ripples_graph::{Vertex, WeightModel};
use ripples_serve::{QueryReport, SketchService};

const USAGE: &str = "usage: serve (--input FILE | --standin NAME | --gen ba:N:M|er:N:M) \
     [--k-max K] [--epsilon E] [--seed S] [--model ic|lt] \
     [--select auto|sequential|partitioned|fused] [--sample auto|reference|fused] \
     [--rrr-budget BYTES] [--snapshot-out FILE] \
     [--snapshot-in FILE] [--queries FILE] [--tcp ADDR] \
     (every flag is described at the top of crates/bench/src/bin/serve.rs)";

/// A flag the user got wrong: `error: …`, the usage line, exit status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

/// `--name` parsed as `T`, `default` when absent; a value that does not
/// parse is a usage error, not a panic.
fn flag_or<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> T {
    args.try_parse(name)
        .unwrap_or_else(|message| usage_error(&message))
        .unwrap_or(default)
}

fn render_seeds(seeds: &[Vertex]) -> String {
    let mut s = String::from("[");
    for (i, v) in seeds.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push(']');
    s
}

/// `--no-timing`: zero `wall_ns` in every frame so replay output is
/// byte-stable across runs.
static NO_TIMING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn report_fields(r: &QueryReport) -> String {
    let wall = if NO_TIMING.load(std::sync::atomic::Ordering::Relaxed) {
        0
    } else {
        r.wall_nanos
    };
    format!(
        "\"wall_ns\":{},\"entries_touched\":{},\"covered\":{},\"coverage\":{}",
        wall, r.entries_touched, r.covered, r.coverage_fraction
    )
}

/// Escapes a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn error_frame(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", escape(msg))
}

/// A JSON number that is an integer in `0..=u32::MAX`, as a `u32`.
fn as_u32(x: Option<f64>) -> Option<u32> {
    x.filter(|f| f.fract() == 0.0 && *f >= 0.0 && *f <= f64::from(u32::MAX))
        .map(|f| f as u32)
}

/// Extracts a `u32` vertex list from a JSON array field.
fn vertex_list(v: &Value, field: &str) -> Result<Vec<Vertex>, String> {
    let arr = v
        .get(field)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("`{field}` must be an array of vertex ids"))?;
    arr.iter()
        .map(|x| {
            as_u32(x.as_f64())
                .ok_or_else(|| format!("`{field}` entries must be integers in 0..={}", u32::MAX))
        })
        .collect()
}

/// The request's `k`.
fn k_of(req: &Value) -> Result<u32, String> {
    as_u32(req.num("k")).ok_or_else(|| format!("`k` must be an integer in 0..={}", u32::MAX))
}

/// Answers one request line; always returns a single JSON frame. `quit`
/// additionally signals the session loop to stop.
fn handle_line(svc: &mut SketchService, line: &str) -> (String, bool) {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return (error_frame("empty request line"), false);
    }
    let req = match parse(trimmed) {
        Ok(v) => v,
        Err(e) => return (error_frame(&format!("bad JSON: {e}")), false),
    };
    let op = match req.str("op") {
        Some(op) => op.to_string(),
        None => return (error_frame("missing `op` field"), false),
    };
    let frame = match op.as_str() {
        "topk" => match k_of(&req) {
            Err(e) => error_frame(&e),
            Ok(k) => match svc.topk(k) {
                Ok((seeds, r)) => format!(
                    "{{\"ok\":true,\"op\":\"topk\",\"k\":{},\"seeds\":{},{}}}",
                    k,
                    render_seeds(&seeds),
                    report_fields(&r)
                ),
                Err(e) => error_frame(&e.to_string()),
            },
        },
        "topk_excluding" => match (k_of(&req), vertex_list(&req, "banned")) {
            (Err(e), _) | (_, Err(e)) => error_frame(&e),
            (Ok(k), Ok(banned)) => match svc.topk_excluding(k, &banned) {
                Ok((seeds, r)) => format!(
                    "{{\"ok\":true,\"op\":\"topk_excluding\",\"k\":{},\"seeds\":{},{}}}",
                    k,
                    render_seeds(&seeds),
                    report_fields(&r)
                ),
                Err(e) => error_frame(&e.to_string()),
            },
        },
        "spread" => match vertex_list(&req, "seeds") {
            Err(e) => error_frame(&e),
            Ok(seeds) => match svc.spread_estimate(&seeds) {
                Ok((estimate, r)) => format!(
                    "{{\"ok\":true,\"op\":\"spread\",\"estimate\":{},{}}}",
                    estimate,
                    report_fields(&r)
                ),
                Err(e) => error_frame(&e.to_string()),
            },
        },
        "info" => {
            let no_timing = NO_TIMING.load(std::sync::atomic::Ordering::Relaxed);
            let quantile = |q| {
                if no_timing {
                    0
                } else {
                    svc.latency_quantile_nanos(q)
                }
            };
            format!(
                "{{\"ok\":true,\"op\":\"info\",\"n\":{},\"theta\":{},\"k_max\":{},\
                 \"store\":\"{}\",\"select\":\"{}\",\"sample\":\"{}\",\
                 \"resident_bytes\":{},\"queries_served\":{},\
                 \"query_p50_ns\":{},\"query_p99_ns\":{}}}",
                svc.num_vertices(),
                svc.theta(),
                svc.k_max(),
                svc.store_kind().tag(),
                svc.select_engine().tag(),
                svc.sample_engine().tag(),
                svc.resident_bytes(),
                svc.queries_served(),
                quantile(0.50),
                quantile(0.99),
            )
        }
        "quit" => return ("{\"ok\":true,\"op\":\"quit\"}".to_string(), true),
        other => error_frame(&format!("unknown op `{other}`")),
    };
    (frame, false)
}

/// Runs the request/response loop over any line source and sink.
fn session<R: BufRead, W: Write>(svc: &mut SketchService, reader: R, mut writer: W) {
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("serve: read error: {e}");
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let (frame, quit) = handle_line(svc, &line);
        debug_assert!(
            parse(&frame).is_ok(),
            "serve produced invalid JSON: {frame}"
        );
        if writeln!(writer, "{frame}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if quit {
            break;
        }
    }
}

fn main() {
    let args = Args::from_env();

    let model = DiffusionModel::from_tag(args.get("model").unwrap_or("ic"))
        .unwrap_or_else(|| usage_error("--model must be ic or lt"));
    let select = args.get("select").map_or(SelectEngine::Auto, |tag| {
        parse_select(tag).unwrap_or_else(|message| usage_error(&message))
    });
    let sample = args.get("sample").map_or(SampleEngine::Reference, |tag| {
        parse_sample(tag).unwrap_or_else(|message| usage_error(&message))
    });
    let storage = parse_storage(&args).unwrap_or_else(|message| usage_error(&message));
    let k_max: u32 = flag_or(&args, "k-max", 16);
    if k_max == 0 {
        usage_error("--k-max must be positive");
    }
    let epsilon = parse_epsilon(&args).unwrap_or_else(|message| usage_error(&message));
    let seed: u64 = flag_or(&args, "seed", 0);
    let read_timeout_ms: u64 = flag_or(&args, "read-timeout-ms", 5000);

    NO_TIMING.store(args.flag("no-timing"), std::sync::atomic::Ordering::Relaxed);

    let metrics_path = args.get("metrics").map(str::to_string);
    if metrics_path.is_some() {
        ripples_metrics::enable();
    }

    let lt_normalize = model == DiffusionModel::LinearThreshold;
    let weights = WeightModel::UniformRandom { seed: 7 };
    let graph = load_graph(&args, weights, lt_normalize).unwrap_or_else(|e| match e {
        GraphSourceError::Usage(message) => usage_error(&message),
        GraphSourceError::Load(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    });

    let mut svc = if let Some(snap) = args.get("snapshot-in") {
        // Restore path: the sketch comes off disk, sampling is skipped
        // entirely. Provenance (seed, ε, model, k_max) rides in the file.
        match SketchService::restore_from(Path::new(snap), &graph, select) {
            Ok(svc) => {
                eprintln!(
                    "serve: restored sketch from {snap}: θ={} k_max={} store={}",
                    svc.theta(),
                    svc.k_max(),
                    svc.store_kind().tag()
                );
                svc
            }
            Err(e) => {
                eprintln!("error: cannot restore {snap}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let params = ImmParams::new(1, epsilon, model, seed).with_k_max(k_max);
        let svc = SketchService::build(&graph, params, select, sample, storage);
        eprintln!(
            "serve: built sketch in {:.3}s: θ={} k_max={} store={} ({} resident bytes)",
            svc.build_wall_s(),
            svc.theta(),
            svc.k_max(),
            svc.store_kind().tag(),
            svc.resident_bytes()
        );
        svc
    };

    if let Some(out) = args.get("snapshot-out") {
        match svc.snapshot_to(Path::new(out)) {
            Ok(()) => eprintln!("serve: snapshot written to {out}"),
            Err(e) => {
                eprintln!("error: cannot snapshot to {out}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(qfile) = args.get("queries") {
        // Batch replay: answer the whole pinned query file, then exit.
        let file = std::fs::File::open(qfile).unwrap_or_else(|e| {
            eprintln!("error: cannot open --queries {qfile}: {e}");
            std::process::exit(1);
        });
        let stdout = std::io::stdout();
        session(&mut svc, BufReader::new(file), stdout.lock());
    } else if let Some(addr) = args.get("tcp") {
        let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "serve: listening on {}",
            listener
                .local_addr()
                .map_or_else(|_| addr.to_string(), |a| a.to_string())
        );
        // One client at a time: queries borrow the single resident sketch.
        // A per-connection read timeout bounds how long a wedged client
        // (connected but silent, never closing) can hold the session —
        // its read errors out, the session ends, and the loop accepts the
        // next connection instead of starving it. 0 disables the timeout.
        let read_timeout =
            (read_timeout_ms > 0).then(|| std::time::Duration::from_millis(read_timeout_ms));
        for stream in listener.incoming() {
            match stream {
                Ok(stream) => {
                    if let Err(e) = stream.set_read_timeout(read_timeout) {
                        eprintln!("serve: cannot set read timeout: {e}");
                        continue;
                    }
                    let reader = BufReader::new(match stream.try_clone() {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("serve: cannot clone stream: {e}");
                            continue;
                        }
                    });
                    // Client I/O errors (including the timeout) end this
                    // session, never the process.
                    session(&mut svc, reader, stream);
                }
                Err(e) => eprintln!("serve: accept failed: {e}"),
            }
        }
    } else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        session(&mut svc, stdin.lock(), stdout.lock());
    }

    if let Some(path) = &metrics_path {
        // A final one-sample metrics series of the serving session:
        // gauges (sketch bytes, latency quantiles) and counters, in the
        // same schema-v1 shape the batch binaries emit.
        let series = ripples_metrics::TimeSeries {
            interval_ms: 0,
            downsample_halvings: 0,
            samples: vec![ripples_metrics::snapshot()],
        };
        let json = series.to_json();
        if let Err(e) = parse(&json) {
            eprintln!("error: metrics snapshot is not valid JSON: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write --metrics {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("serve: metrics written to {path}");
    }
}
