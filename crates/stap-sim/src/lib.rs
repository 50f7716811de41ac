//! Paragon-scale discrete-event simulation of the parallel pipeline.
//!
//! The container this reproduction was built in has one CPU core; the
//! paper's experiments used up to 236 Paragon nodes. This crate closes
//! that gap: it simulates the exact pipeline structure `stap-pipeline`
//! executes — per-node receive/compute/send phases, all-to-all
//! personalized redistribution with per-pair message volumes, double
//! buffering (a node starts its next CPI as soon as it finished sending
//! the previous one), and the temporal weight dependency — against the
//! calibrated `stap-machine` cost model.
//!
//! The simulation is a deterministic timestamp propagation, not a random
//! model: every (node, CPI) gets explicit phase start/end times, every
//! message an explicit arrival time, so idle-waiting, bottleneck
//! formation (paper Table 10) and the cross-task effect of adding nodes
//! (Table 9) all emerge rather than being assumed.
//!
//! * [`des`] — the simulator core; [`simulate_traced`] also returns the
//!   modelled timeline as a `stap_pipeline::trace::PipelineTrace`, the
//!   measured runs' own record, so one renderer draws both,
//! * [`experiments`] — one driver per paper table/figure, each rendering
//!   a paper-vs-model comparison.

pub mod des;
pub mod experiments;
pub mod lattice;
pub mod reconcile;

pub use des::{modeled_edge_bytes, simulate, simulate_traced, SimConfig, SimFaults, SimResult};
pub use lattice::{
    evaluate, explore, feasible, lattice_size, proportional_seed, Candidate, ExploreOptions,
    LatticeReport,
};
pub use reconcile::{reconcile, render_reconciliation, ReconRow, Reconciliation};

/// The modelled timeline's checks, on the span record it shares with
/// the runtime.
#[cfg(test)]
mod trace {
    mod tests {
        use crate::des::{simulate, simulate_traced, SimConfig};
        use stap_pipeline::trace::TaskSpan;
        use stap_pipeline::NodeAssignment;
        use std::collections::HashMap;

        fn cfg() -> SimConfig {
            let mut c = SimConfig::paper(NodeAssignment::case3());
            c.num_cpis = 8;
            c
        }

        #[test]
        fn trace_matches_plain_simulation() {
            let (traced, trace) = simulate_traced(&cfg());
            let plain = simulate(&cfg());
            assert_eq!(traced.measured_throughput, plain.measured_throughput);
            assert_eq!(traced.measured_latency, plain.measured_latency);
            // The CPI marks are the spans the rates are measured over.
            assert_eq!(trace.cpis.len(), trace.num_cpis);
            let lo = cfg().warmup;
            let hi = trace.num_cpis - cfg().cooldown;
            let lat = (trace.cpis[lo..hi].iter())
                .map(|m| m.complete_s - m.inject_s)
                .sum::<f64>()
                / (hi - lo) as f64;
            assert_eq!(lat, plain.measured_latency);
        }

        #[test]
        fn intervals_cover_every_task_node_cpi() {
            let c = cfg();
            let (_, trace) = simulate_traced(&c);
            let expect: usize = c.assign.0.iter().sum::<usize>() * c.num_cpis;
            assert_eq!(trace.tasks.len(), expect);
            assert!(trace.comm.is_empty());
            for s in &trace.tasks {
                assert!(s.node < c.assign.0[s.task] && s.cpi < c.num_cpis);
                assert!(s.start <= s.recv_end);
                assert!(s.recv_end <= s.comp_end);
                assert!(s.comp_end <= s.send_end);
            }
        }

        #[test]
        fn per_node_intervals_never_overlap() {
            let (_, trace) = simulate_traced(&cfg());
            // Group by (task, node); consecutive CPIs must not overlap.
            let mut by_node: HashMap<(usize, usize), Vec<&TaskSpan>> = HashMap::new();
            for s in &trace.tasks {
                by_node.entry((s.task, s.node)).or_default().push(s);
            }
            for ((task, node), mut spans) in by_node {
                spans.sort_by_key(|s| s.cpi);
                for w in spans.windows(2) {
                    assert!(
                        w[1].start >= w[0].send_end - 1e-12,
                        "task {task} node {node}: CPI {} starts before CPI {} ends",
                        w[1].cpi,
                        w[0].cpi
                    );
                }
            }
        }

        #[test]
        fn downstream_tasks_start_after_upstream_compute() {
            let (_, trace) = simulate_traced(&cfg());
            // CFAR's first compute cannot begin before Doppler's first ends.
            let first = |task| {
                (trace.tasks.iter())
                    .find(|s| s.task == task && s.node == 0 && s.cpi == 0)
                    .unwrap()
            };
            assert!(first(6).recv_end > first(0).comp_end);
        }
    }
}
