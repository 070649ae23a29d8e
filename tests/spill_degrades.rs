//! A spill file that cannot be written degrades the run, it does not end
//! it. Alone in its own test binary because it points `TMPDIR` — process
//! state — at a directory that does not exist.

use ripples_core::mt::{imm_multithreaded, imm_multithreaded_with_storage};
use ripples_core::{ImmParams, SampleEngine, SelectEngine};
use ripples_diffusion::{DiffusionModel, RrrStoreKind, StorageConfig};
use ripples_graph::generators::erdos_renyi;
use ripples_graph::WeightModel;

#[test]
fn unwritable_tmpdir_keeps_sets_resident_and_seeds_equal() {
    let missing =
        std::env::temp_dir().join(format!("ripples-no-such-dir-{}/nested", std::process::id()));
    assert!(!missing.exists());
    std::env::set_var("TMPDIR", &missing);

    let graph = erdos_renyi(300, 2400, WeightModel::UniformRandom { seed: 8 }, false, 21);
    let params = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 7);
    let flat = imm_multithreaded(&graph, &params, 2);
    let spill = imm_multithreaded_with_storage(
        &graph,
        &params,
        2,
        SelectEngine::Auto,
        SampleEngine::Reference,
        StorageConfig {
            kind: RrrStoreKind::Spill,
            budget: Some(4096),
        },
    );
    assert_eq!(spill.seeds, flat.seeds);
    assert_eq!(spill.theta, flat.theta);
    let counters = &spill.report.counters;
    assert_eq!(
        counters.spill_write_failures, 1,
        "spilling stops at the first failed write"
    );
    assert_eq!(counters.spill_bytes_written, 0);
    assert!(
        counters.rrr_bytes_peak > 4096,
        "the sets stayed resident, over budget"
    );
    assert!(spill
        .report
        .to_json()
        .contains("\"spill_write_failures\":1"));
    assert_eq!(flat.report.counters.spill_write_failures, 0);
}
