//! Holds the load path's memory: reading an edge list and validating the
//! graph may raise the process's high-water mark by little more than the
//! builder's widest moment, whether or not the file arrives sorted.
//!
//! `VmHWM` belongs to a process and never falls, so this is a test binary
//! of its own with one test, and every measurement is taken in a fresh
//! child: this executable again, told through an environment variable which
//! file to load. Linux only (`/proc/self/status`).

#![cfg(target_os = "linux")]

use ripples_graph::generators::barabasi_albert;
use ripples_graph::io::{read_edge_list_file, write_edge_list, EdgeListOptions, VertexIds};
use ripples_graph::WeightModel;
use ripples_rng::SplitMix64;
use std::path::Path;
use std::process::Command;

const TEST: &str = "load_peak_stays_near_the_graph";
/// Set for a child: the file to load.
const CHILD_FILE: &str = "RIPPLES_LOAD_PEAK_FILE";
/// Set for a child that keeps the file's third column.
const CHILD_KEEPS_PROBS: &str = "RIPPLES_LOAD_PEAK_KEEPS_PROBS";
/// Allowed growth of `VmHWM` over each bound below.
const ALLOWED: f64 = 1.35;

/// The ceiling for every load: a two-CSR graph of `m` edges over `n`
/// vertices (16 bytes an edge, 16 a vertex), what the graph itself took
/// when it kept both directions.
fn two_csr_bytes(n: usize, m: usize) -> usize {
    16 * m + 16 * (n + 1)
}

/// The tighter ceiling when a weight model overwrites the file's
/// probabilities: the builder's scatter, input and forward arrays without
/// probabilities (12 bytes an edge) plus the forward offsets.
fn scatter_bytes(n: usize, m: usize) -> usize {
    12 * m + 8 * (n + 1)
}

fn vm_hwm_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .expect("VmHWM line");
    let kib: usize = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM in kB");
    kib * 1024
}

fn child(path: &Path) {
    let weights = match std::env::var_os(CHILD_KEEPS_PROBS) {
        Some(_) => None,
        None => Some(WeightModel::WeightedCascade),
    };
    let options = EdgeListOptions {
        vertex_ids: VertexIds::Literal,
        undirected: false,
        default_prob: 1.0,
        weights,
    };
    let before = vm_hwm_bytes();
    let graph = read_edge_list_file(path, options).expect("read the generated file");
    graph.validate().expect("loaded graph is valid");
    let grown = vm_hwm_bytes() - before;
    let (n, m) = (graph.num_vertices() as usize, graph.num_edges());
    let mut bounds = vec![("two-CSR graph", two_csr_bytes(n, m))];
    if weights.is_some() {
        bounds.push(("scatter", scatter_bytes(n, m)));
    }
    for (name, bytes) in bounds {
        let ratio = grown as f64 / bytes as f64;
        println!(
            "{}: VmHWM grew {grown} bytes against a {name} bound of {bytes} ({ratio:.2}x)",
            path.display()
        );
        assert!(
            ratio <= ALLOWED,
            "loading {} took {ratio:.2}x the {name} bound (allowed: {ALLOWED}x)",
            path.display()
        );
    }
}

fn run_child(path: &Path, keeps_probs: bool) {
    let exe = std::env::current_exe().expect("this test's executable");
    let mut command = Command::new(exe);
    command
        .args(["--exact", TEST, "--nocapture", "--test-threads=1"])
        .env(CHILD_FILE, path);
    if keeps_probs {
        command.env(CHILD_KEEPS_PROBS, "1");
    }
    let output = command.output().expect("run the child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "child failed on {} (keeps_probs: {keeps_probs}):\n{stdout}{}",
        path.display(),
        String::from_utf8_lossy(&output.stderr),
    );
    // What the child measured, for `--nocapture`.
    for line in stdout.lines().filter(|line| line.contains("VmHWM")) {
        println!("keeps_probs {keeps_probs}: {line}");
    }
}

#[test]
fn load_peak_stays_near_the_graph() {
    if let Some(path) = std::env::var_os(CHILD_FILE) {
        return child(Path::new(&path));
    }

    // The benchmark's dense input: BA, n = 50 000, 8 edges a vertex.
    let graph = barabasi_albert(50_000, 8, WeightModel::Constant(1.0), false, 1);
    let mut text = Vec::new();
    write_edge_list(&graph, &mut text).expect("write to memory");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let sorted = dir.join("load_peak_sorted.txt");
    std::fs::write(&sorted, &text).expect("write the sorted file");

    // Fisher–Yates over the edge lines; the `#` header stays first.
    let mut lines: Vec<&[u8]> = text.split_inclusive(|&b| b == b'\n').collect();
    let mut rng = SplitMix64::for_stream(1, 0x5348_5546);
    for i in (2..lines.len()).rev() {
        lines.swap(i, 1 + rng.bounded_u64(i as u64) as usize);
    }
    let shuffled = dir.join("load_peak_shuffled.txt");
    std::fs::write(&shuffled, lines.concat()).expect("write the shuffled file");

    run_child(&sorted, false);
    run_child(&shuffled, false);
    // The builder's widest moment: input and forward arrays both carry
    // probabilities.
    run_child(&shuffled, true);
    for path in [sorted, shuffled] {
        std::fs::remove_file(path).expect("remove the generated file");
    }
}
