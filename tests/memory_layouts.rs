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
