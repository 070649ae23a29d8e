//! Holds the load path's memory: reading an edge list and validating the
//! graph may raise the process's high-water mark by little more than the
//! load's widest moment — the sorted load's for a file whose edges ascend
//! and a weight model's probabilities, the builder's otherwise.
//!
//! `VmHWM` belongs to a process and never falls, so this is a test binary
//! of its own with one test, and every measurement is taken in a fresh
//! child: this executable again, told through environment variables which
//! file to load and where its probabilities come from. Linux only
//! (`/proc/self/status`).

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
/// Set for a child: where the probabilities come from ([`Weights::tag`]).
const CHILD_WEIGHTS: &str = "RIPPLES_LOAD_PEAK_WEIGHTS";
/// Set for a child whose file ascends.
const CHILD_SORTED: &str = "RIPPLES_LOAD_PEAK_SORTED";
/// Allowed growth of `VmHWM` over [`Weights::load_bytes`].
const ALLOWED: f64 = 1.35;

/// Where a child's probabilities come from.
#[derive(Clone, Copy, Debug)]
enum Weights {
    /// Weighted cascade: one probability per vertex.
    Cascade,
    /// `UniformRandom`: one drawn per edge.
    Uniform,
    /// The file's third column, kept.
    File,
}

impl Weights {
    const ALL: [Weights; 3] = [Weights::Cascade, Weights::Uniform, Weights::File];

    fn tag(self) -> &'static str {
        match self {
            Weights::Cascade => "wc",
            Weights::Uniform => "uniform",
            Weights::File => "file",
        }
    }

    fn model(self) -> Option<WeightModel> {
        match self {
            Weights::Cascade => Some(WeightModel::WeightedCascade),
            Weights::Uniform => Some(WeightModel::UniformRandom { seed: 1 }),
            Weights::File => None,
        }
    }

    /// The load's widest moment for `m` edges over `n` vertices.
    ///
    /// A file that ascends, under a weight model: the targets coded as they
    /// arrive (~2.2 bytes an edge) beside the raw reverse sources they are
    /// scattered into (4), then the raw sources beside the coded rows, then
    /// the coded rows beside one `UniformRandom` draw an edge (4); and two
    /// `u32` offsets a vertex. 7 bytes an edge and 8 a vertex hold all
    /// three.
    ///
    /// Otherwise, the builder's records (8 bytes an edge, 16 with the
    /// file's probabilities) beside the reverse offsets and the bucket
    /// cursors (16 bytes a vertex, of which `u32`s take 8). A sorted file
    /// whose probabilities are kept holds them twice, in file order and in
    /// row order, beside the coded and the raw edges (~14.2 bytes an edge),
    /// and is held to that bound too. None is above a two-CSR graph (16
    /// bytes an edge, 16 a vertex), what the graph itself took when it kept
    /// both directions.
    fn load_bytes(self, n: usize, m: usize, sorted: bool) -> usize {
        match self {
            Weights::Cascade | Weights::Uniform if sorted => 7 * m + 8 * (n + 1),
            Weights::Cascade | Weights::Uniform => 8 * m + 16 * (n + 1),
            Weights::File => 16 * m + 16 * (n + 1),
        }
    }
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

fn child(path: &Path, weights: Weights, sorted: bool) {
    let options = EdgeListOptions {
        vertex_ids: VertexIds::Literal,
        undirected: false,
        default_prob: 1.0,
        weights: weights.model(),
    };
    let before = vm_hwm_bytes();
    let graph = read_edge_list_file(path, options).expect("read the generated file");
    graph.validate().expect("loaded graph is valid");
    let grown = vm_hwm_bytes() - before;
    let (n, m) = (graph.num_vertices() as usize, graph.num_edges());
    let bytes = weights.load_bytes(n, m, sorted);
    let ratio = grown as f64 / bytes as f64;
    println!(
        "{}: VmHWM grew {grown} bytes against a load bound of {bytes} ({ratio:.2}x)",
        path.display()
    );
    assert!(
        ratio <= ALLOWED,
        "loading {} under {weights:?} took {ratio:.2}x the load bound (allowed: {ALLOWED}x)",
        path.display()
    );
}

fn run_child(path: &Path, weights: Weights, sorted: bool) {
    let exe = std::env::current_exe().expect("this test's executable");
    let mut command = Command::new(exe);
    command
        .args(["--exact", TEST, "--nocapture", "--test-threads=1"])
        .env(CHILD_FILE, path)
        .env(CHILD_WEIGHTS, weights.tag());
    if sorted {
        command.env(CHILD_SORTED, "1");
    }
    let output = command.output().expect("run the child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "child failed on {} ({weights:?}):\n{stdout}{}",
        path.display(),
        String::from_utf8_lossy(&output.stderr),
    );
    // What the child measured, for `--nocapture`.
    for line in stdout.lines().filter(|line| line.contains("VmHWM")) {
        println!("{}: {line}", weights.tag());
    }
}

#[test]
fn load_peak_stays_near_the_graph() {
    if let Some(path) = std::env::var_os(CHILD_FILE) {
        let tag = std::env::var(CHILD_WEIGHTS).expect("a child is told its weights");
        let weights = Weights::ALL.into_iter().find(|w| w.tag() == tag);
        let sorted = std::env::var_os(CHILD_SORTED).is_some();
        return child(
            Path::new(&path),
            weights.expect("a known weights tag"),
            sorted,
        );
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

    for (path, ascends) in [(&sorted, true), (&shuffled, false)] {
        for weights in Weights::ALL {
            run_child(path, weights, ascends);
        }
    }
    for path in [sorted, shuffled] {
        std::fs::remove_file(path).expect("remove the generated file");
    }
}
