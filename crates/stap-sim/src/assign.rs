//! Processor-assignment optimization.
//!
//! Section 4.1.2 of the paper: "tradeoffs exist between assigning
//! processors to maximize the overall throughput and assigning
//! processors to minimize a single data set's response time", and the
//! conclusion calls for systems that "handle any changes in the
//! requirements on the response time by dynamically allocating or
//! re-allocating processors among tasks". This module does that
//! allocation against the simulator: greedy hill-climbing from a
//! work-proportional seed, with either throughput or latency as the
//! objective, optionally under a throughput floor (the paper's
//! "processing rate should not fall behind the input data rate").

use crate::des::{simulate, SimConfig, SimResult};
use stap_machine::ALL_TASKS;
use stap_pipeline::NodeAssignment;

/// A work-proportional seed: nodes split proportionally to each task's
/// single-node compute time, at least one each.
pub fn proportional_seed(cfg: &SimConfig, budget: usize) -> NodeAssignment {
    assert!(budget >= 7, "need at least one node per task");
    let work: Vec<f64> = (0..7)
        .map(|t| cfg.machine.compute_time(ALL_TASKS[t], cfg.flops.0[t], 1))
        .collect();
    let total: f64 = work.iter().sum();
    let mut counts = [1usize; 7];
    let mut used = 7usize;
    // Largest-remainder apportionment of the surplus.
    let surplus = budget - 7;
    let mut shares: Vec<(usize, f64)> = (0..7)
        .map(|t| (t, work[t] / total * surplus as f64))
        .collect();
    for (t, s) in &shares {
        counts[*t] += s.floor() as usize;
        used += s.floor() as usize;
    }
    shares.sort_by(|a, b| (b.1.fract()).total_cmp(&a.1.fract()));
    let mut i = 0;
    while used < budget {
        counts[shares[i % 7].0] += 1;
        used += 1;
        i += 1;
    }
    NodeAssignment(counts)
}

fn eval(cfg: &SimConfig, a: NodeAssignment) -> SimResult {
    let mut c = cfg.clone();
    c.assign = a;
    simulate(&c)
}

/// Objective for the hill climb.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// Maximize pipeline throughput (CPIs per second).
    MaxThroughput,
    /// Minimize CPI latency, subject to throughput >= the given floor
    /// (use 0.0 for unconstrained latency minimization).
    MinLatency {
        /// Required minimum throughput, CPI/s.
        throughput_floor: f64,
    },
}

/// Greedy hill-climb: repeatedly move one node between tasks while the
/// objective improves. Returns the best assignment found and its
/// simulation result.
pub fn optimize(
    cfg: &SimConfig,
    budget: usize,
    objective: Objective,
    max_moves: usize,
) -> (NodeAssignment, SimResult) {
    let mut current = proportional_seed(cfg, budget);
    let mut result = eval(cfg, current);
    let feasible = |r: &SimResult| match objective {
        Objective::MaxThroughput => true,
        Objective::MinLatency { throughput_floor } => r.measured_throughput >= throughput_floor,
    };
    let better = |a: &SimResult, b: &SimResult| -> bool {
        match objective {
            Objective::MaxThroughput => a.measured_throughput > b.measured_throughput * 1.0005,
            Objective::MinLatency { .. } => {
                feasible(a) && (!feasible(b) || a.measured_latency < b.measured_latency * 0.9995)
            }
        }
    };
    for _ in 0..max_moves {
        let mut best_move: Option<(NodeAssignment, SimResult)> = None;
        for from in 0..7 {
            if current.0[from] <= 1 {
                continue;
            }
            for to in 0..7 {
                if to == from {
                    continue;
                }
                let mut cand = current;
                cand.0[from] -= 1;
                cand.0[to] += 1;
                let r = eval(cfg, cand);
                let reference = best_move.as_ref().map(|(_, r)| r).unwrap_or(&result);
                if better(&r, reference) {
                    best_move = Some((cand, r));
                }
            }
        }
        match best_move {
            Some((a, r)) => {
                current = a;
                result = r;
            }
            None => break,
        }
    }
    (current, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfig {
        SimConfig::paper(NodeAssignment::case3())
    }

    #[test]
    fn proportional_seed_uses_entire_budget() {
        let cfg = base();
        for budget in [7usize, 59, 118, 236] {
            let a = proportional_seed(&cfg, budget);
            assert_eq!(a.total(), budget, "budget {budget}");
            assert!(a.0.iter().all(|&c| c >= 1));
        }
    }

    #[test]
    fn seed_gives_most_nodes_to_hard_weights() {
        // Hard weight is the heaviest task (Table 1); the seed must
        // reflect that, like the paper's hand-tuned cases do.
        let a = proportional_seed(&base(), 118);
        let max_task = (0..7).max_by_key(|&t| a.0[t]).unwrap();
        assert_eq!(max_task, 2, "hard weight should dominate: {:?}", a.0);
    }

    #[test]
    fn optimizer_matches_or_beats_paper_case2() {
        let cfg = base();
        let (a, r) = optimize(&cfg, 118, Objective::MaxThroughput, 15);
        let paper = eval(&cfg, NodeAssignment::case2());
        assert_eq!(a.total(), 118);
        assert!(
            r.measured_throughput >= paper.measured_throughput * 0.97,
            "optimized {:.3} vs paper case 2 {:.3} ({:?})",
            r.measured_throughput,
            paper.measured_throughput,
            a.0
        );
    }

    #[test]
    fn latency_objective_trades_throughput_for_latency() {
        let cfg = base();
        let (_, tp_opt) = optimize(&cfg, 59, Objective::MaxThroughput, 10);
        let (_, lat_opt) = optimize(
            &cfg,
            59,
            Objective::MinLatency {
                throughput_floor: 0.0,
            },
            10,
        );
        assert!(
            lat_opt.measured_latency <= tp_opt.measured_latency * 1.001,
            "latency objective should not be worse: {} vs {}",
            lat_opt.measured_latency,
            tp_opt.measured_latency
        );
    }

    #[test]
    fn throughput_floor_is_respected_when_feasible() {
        let cfg = base();
        let (_, r) = optimize(
            &cfg,
            118,
            Objective::MinLatency {
                throughput_floor: 3.0,
            },
            15,
        );
        assert!(
            r.measured_throughput >= 3.0,
            "floor violated: {}",
            r.measured_throughput
        );
    }
}
