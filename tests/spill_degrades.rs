//! A spill file that cannot be written degrades the run, it does not end
//! it: the index keeps its segments resident, over budget. Alone in its own
//! test binary because it points `TMPDIR` — process state — at a directory
//! that does not exist.

use ripples_core::mt::{imm_multithreaded, imm_multithreaded_with_storage};
use ripples_core::{ImmParams, SampleEngine, SelectEngine};
use ripples_diffusion::{
    DiffusionModel, DynRrrStore, RrrCollection, RrrStore, RrrStoreKind, StorageConfig,
};
use ripples_graph::generators::barabasi_albert;
use ripples_graph::{Vertex, WeightModel};

/// Points `TMPDIR` at a directory that does not exist; every test here
/// sets the same one.
fn point_tmpdir_nowhere() {
    let missing =
        std::env::temp_dir().join(format!("ripples-no-such-dir-{}/nested", std::process::id()));
    assert!(!missing.exists());
    std::env::set_var("TMPDIR", &missing);
}

#[test]
fn unwritable_tmpdir_keeps_index_segments_resident_and_seeds_equal() {
    point_tmpdir_nowhere();
    // Under 64 KiB the first round's samples stay resident, and the index
    // of the released samples is what cannot spill.
    let graph = barabasi_albert(1500, 4, WeightModel::WeightedCascade, false, 3);
    let params = ImmParams::new(5, 0.3, DiffusionModel::LinearThreshold, 7);
    let flat = imm_multithreaded(&graph, &params, 2);
    let spill = imm_multithreaded_with_storage(
        &graph,
        &params,
        2,
        SelectEngine::Auto,
        SampleEngine::Reference,
        StorageConfig {
            kind: RrrStoreKind::Spill,
            budget: Some(65536),
        },
    );
    assert_eq!(spill.seeds, flat.seeds);
    assert_eq!(spill.theta, flat.theta);
    let counters = &spill.report.counters;
    assert!(counters.spill_write_failures > 0);
    assert_eq!(counters.spill_bytes_written, 0);
}

#[test]
fn an_index_that_cannot_spill_stays_whole_and_warns_once() {
    point_tmpdir_nowhere();
    let n = 50;
    let c: RrrCollection = (0..900u32)
        .map(|j| {
            (0..n)
                .filter(|v| (v * 7 + j) % 11 < 2)
                .collect::<Vec<Vertex>>()
        })
        .collect();
    let mut store = DynRrrStore::new(
        StorageConfig {
            kind: RrrStoreKind::Spill,
            budget: Some(4096),
        },
        n,
    );
    (0..100).for_each(|j| store.push(c.get(j)));
    store.finish_batch();
    assert_eq!(store.spill_write_failures(), 0, "100 samples fit 4 KiB");
    store.release_samples(n, 2);
    for end in [300, 600, 900] {
        (store.len()..end).for_each(|j| store.push(c.get(j)));
        store.finish_batch();
    }
    assert_eq!(
        store.spill_write_failures(),
        1,
        "spilling stops at the first failure"
    );
    assert_eq!(store.spill_bytes_written(), 0);
    store.with_current_index(|index| {
        let index = index.expect("the index holds every sample");
        for v in 0..n {
            let mut row = Vec::new();
            index.for_each_sample(v, |j| row.push(j));
            let expect: Vec<usize> = (0..c.len()).filter(|&j| c.get(j).contains(&v)).collect();
            assert_eq!(row, expect, "row of {v}");
        }
    });
}
