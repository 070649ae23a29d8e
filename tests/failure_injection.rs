//! Failure injection and degenerate inputs across the public API surface.

use ripples_comm::{Communicator, FaultComm, FaultPlan, ThreadWorld};
use ripples_core::mt::imm_multithreaded;
use ripples_core::seq::immopt_sequential;
use ripples_core::ImmParams;
use ripples_diffusion::{estimate_spread, DiffusionModel};
use ripples_graph::io::{read_binary, read_edge_list, EdgeListOptions};
use ripples_graph::{GraphBuilder, GraphError, WeightModel};
use ripples_rng::StreamFactory;

#[test]
fn malformed_edge_lists_are_rejected_not_panicked() {
    for bad in [
        "0\n",             // missing target
        "a b\n",           // non-numeric
        "0 1 nope\n",      // bad probability
        "0 1 0.5 extra\n", // too many fields
    ] {
        let err = read_edge_list(bad.as_bytes(), EdgeListOptions::default())
            .expect_err(&format!("{bad:?} should fail"));
        assert!(matches!(err, GraphError::Parse { .. }));
    }
}

#[test]
fn corrupt_binary_is_rejected() {
    assert!(matches!(
        read_binary(&b"garbage!"[..]),
        Err(GraphError::Corrupt(_))
    ));
    assert!(matches!(
        read_binary(&b"RIPGRPH1\x01"[..]),
        Err(GraphError::Io(_)) | Err(GraphError::Corrupt(_))
    ));
    // A 20-byte file claiming four billion edges: the count is a claim until
    // the edges arrive, so nothing is sized from it (it used to abort the
    // process on a 48 GB allocation).
    let mut header = b"RIPGRPH1".to_vec();
    header.extend_from_slice(&10u32.to_le_bytes());
    header.extend_from_slice(&4_000_000_000u64.to_le_bytes());
    assert_eq!(
        read_binary(header.as_slice()),
        Err(GraphError::Corrupt(
            "truncated at edge 0 of 4000000000".into()
        ))
    );
}

#[test]
fn imm_on_empty_and_tiny_graphs() {
    let p = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade, 1);
    let empty = GraphBuilder::new(0).build().unwrap();
    assert!(immopt_sequential(&empty, &p).seeds.is_empty());

    let one = GraphBuilder::new(1).build().unwrap();
    assert_eq!(immopt_sequential(&one, &p).seeds, vec![0]);

    let mut b = GraphBuilder::new(2);
    b.add_edge(0, 1, 0.5).unwrap();
    let two = b.build().unwrap();
    let r = immopt_sequential(&two, &p);
    assert_eq!(r.seeds.len(), 2);
}

#[test]
fn imm_on_edgeless_graph() {
    // No edges: every RRR set is a single root; greedy picks arbitrary but
    // valid distinct vertices.
    let g = GraphBuilder::new(50).build().unwrap();
    let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 2);
    let r = imm_multithreaded(&g, &p, 2);
    assert_eq!(r.seeds.len(), 5);
    let mut sorted = r.seeds.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 5, "duplicate seeds on edgeless graph");
}

#[test]
fn probability_extremes() {
    // All-certain and all-impossible edges must both terminate.
    for prob in [0.0f32, 1.0] {
        let mut b = GraphBuilder::new(30);
        for u in 0..29 {
            b.add_edge(u, u + 1, prob).unwrap();
        }
        let g = b.build().unwrap();
        let p = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade, 3);
        let r = immopt_sequential(&g, &p);
        assert_eq!(r.seeds.len(), 3, "p = {prob}");
        if prob == 1.0 {
            // With certain edges the chain head dominates.
            assert!(r.seeds.contains(&0), "p=1 chain should seed the head");
        }
    }
}

#[test]
fn disconnected_components_all_reachable() {
    // Two disjoint cliques: k = 2 should seed both (one each), not two in
    // one.
    let mut b = GraphBuilder::new(20);
    for base in [0u32, 10] {
        for i in 0..10u32 {
            for j in 0..10u32 {
                if i != j {
                    b.add_edge(base + i, base + j, 0.9).unwrap();
                }
            }
        }
    }
    let g = b.build().unwrap();
    let p = ImmParams::new(2, 0.5, DiffusionModel::IndependentCascade, 5);
    let r = immopt_sequential(&g, &p);
    let sides: Vec<bool> = r.seeds.iter().map(|&s| s < 10).collect();
    assert_ne!(
        sides[0], sides[1],
        "both seeds landed in one component: {:?}",
        r.seeds
    );
}

#[test]
fn spread_estimation_handles_empty_inputs() {
    let g = GraphBuilder::new(10).build().unwrap();
    let f = StreamFactory::new(1);
    assert_eq!(
        estimate_spread(&g, DiffusionModel::IndependentCascade, &[], 100, &f),
        0.0
    );
    let empty = GraphBuilder::new(0).build().unwrap();
    assert_eq!(
        estimate_spread(&empty, DiffusionModel::IndependentCascade, &[], 100, &f),
        0.0
    );
}

#[test]
fn truncated_payloads_never_reach_the_reduced_buffer() {
    // A truncated attempt is discarded whole and retried: the buffer that is
    // finally reduced equals the fault-free sum, and the backend performs
    // each logical all-reduce exactly once however many attempts failed.
    let plan = FaultPlan::new(77).with_truncate_rate(0.2);
    let results = ThreadWorld::new(3).run(|c| {
        let comm = FaultComm::new(c, plan.clone());
        let mut sums = Vec::new();
        for op in 0..12u64 {
            let mut buf = vec![3 + op, 5 * u64::from(comm.rank()), 8];
            comm.all_reduce_sum_u64(&mut buf);
            sums.push(buf);
        }
        (sums, comm.health(), c.stats().allreduce_calls)
    });
    for (sums, health, backend_calls) in results {
        for (op, buf) in sums.iter().enumerate() {
            assert_eq!(buf, &vec![3 * (3 + op as u64), 15, 24], "op {op}");
        }
        assert!(health.dropped_ops > 0, "a 0.2 truncation rate must bite");
        assert_eq!(health.retries, health.dropped_ops);
        assert!(health.dead_ranks.is_empty());
        assert_eq!(backend_calls, 12, "one backend call per logical op");
    }
}

#[test]
fn weight_models_survive_extreme_graphs() {
    // Trivalency / weighted-cascade on a graph with a universal sink.
    let mut b = GraphBuilder::new(100).assign_weights(WeightModel::WeightedCascade);
    for u in 1..100 {
        b.add_arc(u, 0).unwrap();
    }
    let g = b.build().unwrap();
    assert!((g.in_weight_sum(0) - 1.0).abs() < 1e-4);
    let p = ImmParams::new(3, 0.5, DiffusionModel::LinearThreshold, 1);
    let r = immopt_sequential(&g, &p);
    assert_eq!(r.seeds.len(), 3);
}

/// A flag the user got wrong is `error: …` plus the usage line and exit
/// status 2 — never a panic — and a removed `--rrr-store` value says what
/// replaced it, in both binaries. An unknown or removed `--engine` tag
/// lists exactly the engines README.md lists. A flag the engine ignores
/// warns.
#[test]
fn cli_usage_errors_exit_2_and_never_panic() {
    let run = |exe: &str, flags: &[&str]| {
        let out = std::process::Command::new(exe)
            // The first occurrence of a flag wins, so a case may bring its
            // own graph source.
            .args(flags)
            .args(["--gen", "er:60:240"])
            .stdin(std::process::Stdio::null())
            .output()
            .expect("spawn the binary");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let ripples = env!("CARGO_BIN_EXE_ripples");
    // The engines README.md lists are the ones the binary takes.
    let readme = include_str!("../README.md");
    let engines: Vec<&str> = readme
        .lines()
        .find_map(|line| line.strip_prefix("# engines: "))
        .expect("README.md lists the engines")
        .split(" | ")
        .collect();
    assert_eq!(
        engines.join("|"),
        "opt|baseline|mt|dist|partitioned|sharded|tim"
    );
    for flags in [
        &["--weights", "const:x"][..],
        &["--k", "many"],
        &["--epsilon", "small"],
        &["--seed", "-1"],
        &["--threads", "two"],
        &["--rrr-budget", "1GiB"],
        &["--chaos-seed", "q"],
        &["--model", "sir"],
        &["--simulate", "z"],
        &["--rrr-store", "nope"],
        &["--engine", "shraded"],
        &["--engine", "community"],
        &["--engine", "celf"],
        &["--engine", "degdiscount"],
        &["--metrics-interval", "soon"],
        &["--trace", "same.json", "--metrics", "same.json"],
        &["--k", "0"],
        &["--ranks", "0", "--engine", "dist"],
    ] {
        let (code, stderr) = run(ripples, flags);
        assert_eq!(code, Some(2), "{flags:?}: {stderr}");
        assert!(
            stderr.contains("error: ") && stderr.contains("usage: ripples"),
            "{flags:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(
            !stderr.contains("graph: "),
            "{flags:?} loaded the graph first: {stderr}"
        );
        if flags[0] == "--engine" {
            let listed = stderr
                .split_once("(expected ")
                .and_then(|(_, rest)| rest.split_once(')'))
                .map(|(tags, _)| tags.split('|').collect::<Vec<_>>());
            assert_eq!(listed, Some(engines.clone()), "{flags:?}: {stderr}");
        }
    }
    // A flag the chosen engine does not read is a warning, never silence
    // and never an error.
    for flags in [
        &["--engine", "tim", "--select", "fused"][..],
        &["--engine", "dist", "--select", "fused"],
        &["--engine", "baseline", "--select", "fused"],
        &["--engine", "baseline", "--sample", "fused"],
        &["--engine", "opt", "--threads", "2"],
        &["--engine", "dist", "--threads", "2"],
        &["--engine", "mt", "--ranks", "3"],
        &["--engine", "baseline", "--rrr-store", "spill"],
        &["--engine", "mt", "--chaos-seed", "3"],
    ] {
        let (code, stderr) = run(ripples, &[flags, &["--k", "2"]].concat());
        assert_eq!(code, Some(0), "{flags:?}: {stderr}");
        let warning = format!("warning: {} only affects", flags[2]);
        assert!(stderr.contains(&warning), "{flags:?}: {stderr}");
    }
    // A mistyped or removed engine tag is reported before the graph is
    // loaded (`ripples` prints the graph's statistics right after loading),
    // with the values that exist.
    for exe in [ripples, env!("CARGO_BIN_EXE_serve")] {
        for flags in [
            &["--select", "bogus"][..],
            &["--select", "lazy"],
            &["--select", "celf"],
            &["--select", "hypergraph"],
            &["--select", "hyper"],
            &["--sample", "bogus"],
        ] {
            let (code, stderr) = run(exe, flags);
            assert_eq!(code, Some(2), "{exe} {flags:?}: {stderr}");
            assert!(
                stderr.contains(&format!("error: unknown {} `{}`", flags[0], flags[1]))
                    && stderr.contains("usage: "),
                "{exe} {flags:?}: {stderr}"
            );
            assert!(
                flags[0] != "--select" || stderr.contains("auto|sequential|partitioned|fused)"),
                "{exe} {flags:?}: {stderr}"
            );
            assert!(
                !stderr.contains("graph: ") && !stderr.contains("serve: built"),
                "{exe} {flags:?} loaded the graph first: {stderr}"
            );
        }
    }
    let refused_before_loading = |exe: &str, flags: &[&str], message: &str| {
        let (code, stderr) = run(exe, flags);
        assert_eq!(code, Some(2), "{exe} {flags:?}: {stderr}");
        assert!(
            stderr.contains(message) && stderr.contains("usage: "),
            "{exe} {flags:?}: {stderr}"
        );
        assert!(
            !stderr.contains("graph: ") && !stderr.contains("serve: built"),
            "{exe} {flags:?} loaded the graph first: {stderr}"
        );
    };
    // Storage and graph-source flags go through one parser each in both
    // binaries, before the graph is loaded; a retired backend names its
    // replacement, and a `--gen` count that does not fit the generator's
    // 32 bits is refused, not narrowed (2^32 + 100 used to run on 100
    // vertices).
    for exe in [ripples, env!("CARGO_BIN_EXE_serve")] {
        for (flags, message) in [
            (
                &["--rrr-store", "bitpack"][..],
                "removed in PR 16: use flat (dense sets are stored as bitmaps) or spill",
            ),
            (
                &["--rrr-store", "varint"],
                "--rrr-store varint was removed in PR 21: use spill",
            ),
            (&["--rrr-store", "nope"], "(try flat|spill)"),
            (&["--rrr-budget", "x"], "invalid value `x` for --rrr-budget"),
            (
                &["--gen", "ba:4294967396:3"],
                "`4294967396` is not a count this generator can take",
            ),
            (
                &["--gen", "ba:x:3"],
                "`x` is not a count this generator can take",
            ),
            (&["--gen", "foo"], "--gen takes `ba:N:M` or `er:N:M`"),
            (&["--standin", "nope"], "unknown --standin `nope`"),
            // In range for the parser, out of range for the constructor:
            // these used to panic (exit 101) after the flags were read.
            (&["--gen", "ba:5:10"], "ba:N:M needs N > M > 0"),
            (&["--gen", "ba:2:0"], "ba:N:M needs N > M > 0"),
            (&["--gen", "er:1:5"], "er:N:M with M > 0 needs N >= 2"),
            (
                &["--standin", "cit-HepTh", "--scale-div", "0"],
                "--scale-div must be positive",
            ),
            (&["--epsilon", "0"], "--epsilon must lie in (0, 1), got 0"),
            (&["--epsilon", "2"], "--epsilon must lie in (0, 1), got 2"),
            (&["--model", "sir"], "--model must be ic or lt"),
        ] {
            refused_before_loading(exe, flags, message);
        }
    }
    for (flags, message) in [
        (&["--k-max", "0"][..], "--k-max must be positive"),
        (
            &["--read-timeout-ms", "x"],
            "invalid value `x` for --read-timeout-ms",
        ),
    ] {
        refused_before_loading(env!("CARGO_BIN_EXE_serve"), flags, message);
    }
}
