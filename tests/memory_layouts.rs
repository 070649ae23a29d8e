//! The Table 2 storage-layout invariants: the compact one-direction layout
//! (IMMOPT) must use substantially less RRR memory than the two-direction
//! hypergraph layout (IMM baseline), at identical output.

use ripples_core::seq::{imm_baseline, immopt_sequential};
use ripples_core::ImmParams;
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::standin;
use ripples_graph::WeightModel;

#[test]
fn immopt_saves_memory_on_standins() {
    // The paper reports 18–58% savings across Table 2. Exercise a couple of
    // stand-ins (at reduced size) and require savings in a generous band.
    for name in ["cit-HepTh", "com-DBLP"] {
        let spec = standin(name).unwrap();
        let g = spec.build(
            spec.default_divisor * 8,
            WeightModel::UniformRandom { seed: 3 },
            false,
        );
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 7);
        let baseline = imm_baseline(&g, &p);
        let opt = immopt_sequential(&g, &p);
        assert_eq!(baseline.seeds, opt.seeds, "{name}: outputs must agree");
        let savings =
            1.0 - opt.memory.peak_rrr_bytes as f64 / baseline.memory.peak_rrr_bytes as f64;
        assert!(
            savings > 0.10,
            "{name}: savings {:.1}% below the paper's band (baseline {} vs opt {})",
            100.0 * savings,
            baseline.memory.peak_rrr_bytes,
            opt.memory.peak_rrr_bytes
        );
    }
}

#[test]
fn selection_engines_trade_memory_for_speed_consistently() {
    // The hypergraph's raison d'être (Tang): selection via the inverted
    // index touches only the covered samples. Verify the outputs stay
    // identical while the two-direction layout pays for it in memory.
    let spec = standin("cit-HepTh").unwrap();
    let g = spec.build(64, WeightModel::UniformRandom { seed: 5 }, false);
    let p = ImmParams::new(8, 0.5, DiffusionModel::IndependentCascade, 4);
    let a = imm_baseline(&g, &p);
    let b = immopt_sequential(&g, &p);
    assert_eq!(a.seeds, b.seeds);
    assert_eq!(a.theta, b.theta);
    assert!(a.memory.peak_rrr_bytes > b.memory.peak_rrr_bytes);
}

/// A `dist` rank keeps its share of the samples in a store that gives its
/// growth slack back after every batch, as the shared-memory engine's does:
/// with one rank it holds the samples `mt --select partitioned` holds, in
/// the same bytes within 10 %, and returns the same seeds.
#[test]
fn a_dist_rank_holds_its_samples_as_tightly_as_mt() {
    let report = std::env::temp_dir().join(format!("ripples_rank_store_{}", std::process::id()));
    let spawn = |engine: &[&str], tag: &str| {
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_ripples"))
            .args(["--gen", "ba:60000:8", "--weights", "wc", "--k", "20"])
            .args(["--epsilon", "0.1", "--seed", "1", "--report", "json"])
            .args(engine)
            .arg("--report-out")
            .arg(report.with_extension(tag))
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn ripples");
        (child, report.with_extension(tag))
    };
    // Both at once: each is one busy thread.
    let runs = [
        spawn(&["--engine", "dist", "--ranks", "1"], "dist"),
        spawn(
            &[
                "--engine",
                "mt",
                "--select",
                "partitioned",
                "--threads",
                "1",
            ],
            "mt",
        ),
    ];
    let [(seeds, peak), (mt_seeds, mt_peak)] = runs.map(|(child, path)| {
        let out = child.wait_with_output().expect("ripples ran");
        assert!(out.status.success(), "{}", path.display());
        let json = std::fs::read_to_string(&path).expect("the report");
        std::fs::remove_file(&path).expect("remove the report");
        let field = "\"rrr_bytes_peak\":";
        let at = json.find(field).expect("rrr_bytes_peak in the report") + field.len();
        let digits: String = json[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        (out.stdout, digits.parse::<f64>().expect("a byte count"))
    });
    assert_eq!(seeds, mt_seeds);
    assert!(
        (peak / mt_peak - 1.0).abs() <= 0.1,
        "dist rank {peak} bytes against mt {mt_peak}"
    );
}
