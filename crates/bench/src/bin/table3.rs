//! Table 3: the end-to-end speedup ladder relative to Tang et al.'s serial
//! IMM — IMM → IMMOPT → IMMmt → IMMdist — on the com-Orkut and
//! soc-LiveJournal1 stand-ins.
//!
//! The paper's ladder (their hardware):
//!
//! ```text
//! com-Orkut:        IMM 1.00x, IMMopt 3.10x, IMMmt 21.24x, IMMdist 586.61x
//! soc-LiveJournal1: IMM 1.00x, IMMopt 4.16x, IMMmt 16.02x, IMMdist 298.16x
//! ```
//!
//! The first three rows are measured here (on this host's cores); the
//! IMMdist row is measured on in-process ranks for correctness and its
//! cluster-scale runtime is *predicted* via the work-replay model at the
//! paper's 1024-node Edison configuration (ε = 0.13, k = 2·k as in the
//! paper). See DESIGN.md §1 for the substitution rationale.
//!
//! Usage: `cargo run --release -p ripples-bench --bin table3 -- \
//!            [--scale-div N] [--k K] [--csv]`

use ripples_bench::{effective_divisor, measure, paper_graph, Args, Table};
use ripples_comm::{ClusterSpec, ThreadWorld};
use ripples_core::dist::imm_distributed;
use ripples_core::mt::imm_multithreaded;
use ripples_core::scaling::{predict_distributed, WorkTrace};
use ripples_core::seq::{imm_baseline_with_options, immopt_sequential};
use ripples_core::ImmParams;
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::standin;

fn main() {
    let args = Args::from_env();
    let scale_div: u32 = args.parse_or("scale-div", 8);
    let k: u32 = args.parse_or("k", 100);
    let model = DiffusionModel::IndependentCascade;

    println!("# Table 3 reproduction: improvement in runtime relative to IMM [Tang et al.]");
    println!("# rows 1–3 measured on this host; row 4 executed on in-process ranks and");
    println!(
        "# projected to 1024 Edison nodes via the α–β replay model (ε: 0.5 → 0.13, k: {k} → {})\n",
        2 * k
    );

    let mut table = Table::new(vec![
        "graph", "variant", "epsilon", "k", "time_s", "speedup",
    ]);
    for name in ["com-Orkut", "soc-LiveJournal1"] {
        let spec = standin(name).expect("catalog");
        let divisor = effective_divisor(spec, scale_div);
        let graph = paper_graph(spec, divisor, model);
        let params = ImmParams::new(k, 0.5, model, 0x7AB3);

        let (base, t_base) = measure(|| imm_baseline_with_options(&graph, &params, true));
        let (_opt, t_opt) = measure(|| immopt_sequential(&graph, &params));
        let (_mt, t_mt) = measure(|| imm_multithreaded(&graph, &params, 0));
        let base_s = t_base.as_secs_f64();

        // Distributed at the paper's "parallel-enabled" setting.
        let dist_params = ImmParams::new(2 * k, 0.13, model, 0x7AB3);
        let world = ThreadWorld::new(2);
        let (dist_results, _t_dist_local) =
            measure(|| world.run(|comm| imm_distributed(comm, &graph, &dist_params)));
        let trace = WorkTrace::replay(&graph, &dist_params, dist_results[0].theta, 4);
        let projected = predict_distributed(&trace, &ClusterSpec::edison(), &[1024])[0];

        table.row(vec![
            name.to_string(),
            "IMM (hypergraph)".to_string(),
            "0.50".to_string(),
            k.to_string(),
            format!("{base_s:.2}"),
            "1.00x".to_string(),
        ]);
        table.row(vec![
            name.to_string(),
            "IMMopt".to_string(),
            "0.50".to_string(),
            k.to_string(),
            format!("{:.2}", t_opt.as_secs_f64()),
            format!("{:.2}x", base_s / t_opt.as_secs_f64()),
        ]);
        table.row(vec![
            name.to_string(),
            "IMMmt (all cores)".to_string(),
            "0.50".to_string(),
            k.to_string(),
            format!("{:.2}", t_mt.as_secs_f64()),
            format!("{:.2}x", base_s / t_mt.as_secs_f64()),
        ]);
        table.row(vec![
            name.to_string(),
            "IMMdist (1024 Edison nodes, projected)".to_string(),
            "0.13".to_string(),
            (2 * k).to_string(),
            format!("{:.2}", projected.total_s()),
            format!("{:.2}x", base_s / projected.total_s()),
        ]);
        eprintln!("done: {name} (baseline θ = {})", base.theta);
    }
    table.print(args.flag("csv"));
    println!("\n# paper: IMMopt 3.1–4.2x, IMMmt 16–21x (20 cores), IMMdist 298–587x (49k threads)");
    println!("# expected shape: a strictly monotone ladder; the projected distributed row");
    println!("# delivers orders-of-magnitude gains at twice the seed budget and higher accuracy");
}
