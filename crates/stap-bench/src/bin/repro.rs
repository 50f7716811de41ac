//! Regenerates every table and figure of the paper's evaluation section,
//! printing paper-vs-model comparisons.
//!
//! Usage: `repro [table1|fig11|comm|table7|table8|whatif|ablations|all]`

use stap::sim::experiments as ex;
use stap_bench::{constraint_sweep, forgetting_sweep, window_ablation};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if arg == "check" {
        let failures = ex::check();
        if failures.is_empty() {
            println!("reproduction gate: PASS (all paper-vs-model tolerances met)");
            return;
        }
        eprintln!("reproduction gate: FAIL");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    let run = |name: &str| arg == "all" || arg == name;
    if run("table1") {
        println!("{}", ex::table1());
    }
    if run("fig11") {
        println!("{}", ex::fig11());
    }
    if run("comm") {
        println!("{}", ex::tables2to6());
    }
    if run("table7") {
        println!("{}", ex::table7());
    }
    if run("table8") {
        println!("{}", ex::table8());
    }
    if run("whatif") {
        println!("{}", ex::tables9and10());
    }
    if run("ablations") {
        println!("{}", ex::ablations());
    }
    if run("replication") {
        println!("{}", ex::replication());
    }
    if run("optimizer") {
        println!("{}", ex::optimizer());
    }
    if run("windows") {
        println!("{}", window_ablation());
    }
    if run("baseline") {
        println!("{}", ex::rtmcarm_baseline());
    }
    if run("saturation") {
        println!("{}", ex::saturation());
    }
    if run("adaptive") {
        println!("{}", constraint_sweep());
        println!("{}", forgetting_sweep());
    }
    if run("gantt") {
        use stap::pipeline::{render_gantt, NodeAssignment};
        use stap::sim::{simulate_traced, SimConfig};
        let mut cfg = SimConfig::paper(NodeAssignment::case3());
        cfg.num_cpis = 8;
        let (_, trace) = simulate_traced(&cfg);
        println!("{}", render_gantt(&trace, 8, 110));
    }
}
