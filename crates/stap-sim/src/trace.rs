//! Pipeline timeline traces — the fill/steady/drain picture.
//!
//! [`trace`] reruns the simulator capturing one interval per
//! (task, node, CPI, phase); [`render_gantt`] draws a per-task ASCII
//! Gantt chart (one row per task, averaged over its nodes) that makes
//! the pipeline's staggered execution, idle waits and bottleneck pacing
//! visible at a glance — the picture behind the paper's Figure 3.

use crate::des::{SimConfig, SimResult};
use stap_pipeline::assignment::TASK_NAMES;
use std::fmt::Write as _;

/// One phase interval of one (task, node, CPI).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Task index (paper numbering).
    pub task: usize,
    /// Node within the task.
    pub node: usize,
    /// CPI index.
    pub cpi: usize,
    /// Phase start, seconds.
    pub start: f64,
    /// Receive-phase end (compute start).
    pub recv_end: f64,
    /// Compute end (send start).
    pub comp_end: f64,
    /// Send end.
    pub send_end: f64,
}

/// Simulation result plus the full interval trace.
pub struct Traced {
    /// The ordinary simulation result.
    pub result: SimResult,
    /// Every (task, node, CPI) interval.
    pub intervals: Vec<Interval>,
}

/// Runs the simulator and captures the timeline. (Implemented as a
/// re-simulation with the same deterministic engine; see `des.rs`.)
pub fn trace(cfg: &SimConfig) -> Traced {
    crate::des::simulate_traced(cfg)
}

/// Renders an ASCII Gantt chart of the first `max_cpis` CPIs: one row
/// per task (node 0 shown — all nodes of a task run in near lockstep),
/// with `r`/`c`/`s` marking receive, compute and send time and digits
/// marking which CPI is being processed.
pub fn render_gantt(traced: &Traced, max_cpis: usize, columns: usize) -> String {
    let intervals: Vec<&Interval> = traced
        .intervals
        .iter()
        .filter(|iv| iv.node == 0 && iv.cpi < max_cpis)
        .collect();
    let t_end = intervals
        .iter()
        .map(|iv| iv.send_end)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let scale = columns as f64 / t_end;
    let mut out = String::new();
    writeln!(
        out,
        "timeline of node 0 of each task, first {max_cpis} CPIs ({t_end:.3} s across {columns} cols)"
    )
    .unwrap();
    writeln!(
        out,
        "legend: digit = CPI index during compute, 'r' = receive/wait, 's' = send/pack"
    )
    .unwrap();
    for (task, task_name) in TASK_NAMES.iter().enumerate() {
        let mut row = vec![' '; columns];
        for iv in intervals.iter().filter(|iv| iv.task == task) {
            let col = |t: f64| ((t * scale) as usize).min(columns - 1);
            for c in row.iter_mut().take(col(iv.recv_end)).skip(col(iv.start)) {
                *c = 'r';
            }
            let digit = char::from_digit((iv.cpi % 10) as u32, 10).unwrap();
            for c in row.iter_mut().take(col(iv.comp_end)).skip(col(iv.recv_end)) {
                *c = digit;
            }
            for c in row.iter_mut().take(col(iv.send_end)).skip(col(iv.comp_end)) {
                *c = 's';
            }
        }
        let line: String = row.into_iter().collect();
        writeln!(out, "{task_name:<15}|{line}|").unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_pipeline::NodeAssignment;

    fn cfg() -> SimConfig {
        let mut c = SimConfig::paper(NodeAssignment::case3());
        c.num_cpis = 8;
        c
    }

    #[test]
    fn trace_matches_plain_simulation() {
        let traced = trace(&cfg());
        let plain = crate::des::simulate(&cfg());
        assert_eq!(traced.result.measured_throughput, plain.measured_throughput);
        assert_eq!(traced.result.measured_latency, plain.measured_latency);
    }

    #[test]
    fn intervals_cover_every_task_node_cpi() {
        let c = cfg();
        let traced = trace(&c);
        let expect: usize = c.assign.0.iter().sum::<usize>() * c.num_cpis;
        assert_eq!(traced.intervals.len(), expect);
        for iv in &traced.intervals {
            assert!(iv.start <= iv.recv_end);
            assert!(iv.recv_end <= iv.comp_end);
            assert!(iv.comp_end <= iv.send_end);
        }
    }

    #[test]
    fn per_node_intervals_never_overlap() {
        let traced = trace(&cfg());
        // Group by (task, node); consecutive CPIs must not overlap.
        let mut by_node: std::collections::HashMap<(usize, usize), Vec<&Interval>> =
            std::collections::HashMap::new();
        for iv in &traced.intervals {
            by_node.entry((iv.task, iv.node)).or_default().push(iv);
        }
        for ((task, node), mut ivs) in by_node {
            ivs.sort_by_key(|iv| iv.cpi);
            for w in ivs.windows(2) {
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
        let traced = trace(&cfg());
        // CFAR's first compute cannot begin before Doppler's first ends.
        let dop_end = traced
            .intervals
            .iter()
            .find(|iv| iv.task == 0 && iv.node == 0 && iv.cpi == 0)
            .unwrap()
            .comp_end;
        let cfar_start = traced
            .intervals
            .iter()
            .find(|iv| iv.task == 6 && iv.node == 0 && iv.cpi == 0)
            .unwrap()
            .recv_end;
        assert!(cfar_start > dop_end);
    }

    #[test]
    fn gantt_renders_all_tasks() {
        let traced = trace(&cfg());
        let g = render_gantt(&traced, 4, 100);
        for name in TASK_NAMES {
            assert!(g.contains(name));
        }
        assert!(g.contains('0') && g.contains('3'));
        assert!(g.contains('r'));
    }
}
