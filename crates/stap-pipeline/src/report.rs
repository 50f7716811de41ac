//! Rendering pipeline timings as the paper's Table-7-style report.

use crate::assignment::{NodeAssignment, TASK_NAMES};
use crate::metrics::{latency_eq2, real_latency_eq3, throughput_eq1, PipelineTimings};
use std::fmt::Write as _;

/// Renders per-task recv/comp/send/total plus the throughput/latency
/// summary, in the layout of the paper's Table 7.
pub fn render_timings(timings: &PipelineTimings, assign: &NodeAssignment) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:>5} {:>9} {:>9} {:>9} {:>9}",
        "task", "nodes", "recv", "comp", "send", "total"
    )
    .unwrap();
    for (t, name) in TASK_NAMES.iter().enumerate() {
        let tt = timings.tasks[t];
        writeln!(
            out,
            "{:<16} {:>5} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
            name,
            assign.0[t],
            tt.recv,
            tt.comp,
            tt.send,
            tt.total()
        )
        .unwrap();
    }
    writeln!(
        out,
        "throughput {:.4} CPI/s (eq1 {:.4})",
        timings.measured_throughput,
        throughput_eq1(&timings.tasks)
    )
    .unwrap();
    writeln!(
        out,
        "latency    {:.4} s     (eq2 {:.4}, eq3 {:.4})",
        timings.measured_latency,
        latency_eq2(&timings.tasks),
        real_latency_eq3(&timings.tasks)
    )
    .unwrap();
    if timings.health.any() || !timings.outcomes.is_empty() {
        out.push_str(&render_health(timings));
    }
    out
}

/// Renders the fault-tolerance section: per-CPI outcome tallies and the
/// non-zero per-edge health counters. Empty-ish runs produce a single
/// "healthy" line so a fault campaign's log always states its verdict.
pub fn render_health(timings: &PipelineTimings) -> String {
    use crate::metrics::CpiOutcome;
    let mut out = String::new();
    let h = &timings.health;
    let total = timings.outcomes.len();
    let ok = timings
        .outcomes
        .iter()
        .filter(|o| **o == CpiOutcome::Ok)
        .count();
    writeln!(
        out,
        "health     {total} CPIs: {ok} ok, {} degraded (stale weights), {} dropped",
        h.degraded_cpis, h.dropped_cpis
    )
    .unwrap();
    let (mut retries, mut dropped, mut stale, mut quar, mut late) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for e in &h.edges {
        retries += e.retries;
        dropped += e.dropped;
        stale += e.stale_weights;
        quar += e.quarantined;
        late += e.late_or_dup;
    }
    if retries + dropped + stale + quar + late > 0 {
        writeln!(
            out,
            "edges      {retries} retries, {dropped} drops, {stale} stale-weight fallbacks, \
             {quar} quarantined, {late} late/dup discarded"
        )
        .unwrap();
    } else if total > 0 && ok == total {
        writeln!(out, "edges      healthy (no retries, drops or fallbacks)").unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TaskTiming;

    #[test]
    fn report_contains_every_task_and_summary() {
        let mut t = PipelineTimings::default();
        for (i, task) in t.tasks.iter_mut().enumerate() {
            *task = TaskTiming {
                recv: 0.01 * i as f64,
                comp: 0.1,
                send: 0.001,
                recv_idle: 0.005,
            };
        }
        t.measured_throughput = 3.5;
        t.measured_latency = 0.7;
        let s = render_timings(&t, &NodeAssignment::case2());
        for name in TASK_NAMES {
            assert!(s.contains(name), "missing {name}");
        }
        assert!(s.contains("throughput 3.5000"));
        assert!(s.contains("eq2"));
        assert!(s.contains("eq3"));
        // Healthy, non-FT run: no health section.
        assert!(!s.contains("health"));
    }

    #[test]
    fn report_renders_health_section_when_faulty() {
        use crate::metrics::CpiOutcome;
        let mut t = PipelineTimings {
            outcomes: vec![
                CpiOutcome::Ok,
                CpiOutcome::DegradedStaleWeights,
                CpiOutcome::Dropped,
            ],
            ..PipelineTimings::default()
        };
        t.health.degraded_cpis = 1;
        t.health.dropped_cpis = 1;
        t.health.edges[crate::msg::Edge::EasyWtToEasyBf as usize].stale_weights = 1;
        t.health.edges[crate::msg::Edge::Input as usize].dropped = 1;
        let s = render_timings(&t, &NodeAssignment::case2());
        assert!(s.contains("3 CPIs: 1 ok, 1 degraded"), "{s}");
        assert!(s.contains("1 drops"), "{s}");
        assert!(s.contains("1 stale-weight fallbacks"), "{s}");
    }

    #[test]
    fn all_ok_ft_run_reports_healthy() {
        use crate::metrics::CpiOutcome;
        let t = PipelineTimings {
            outcomes: vec![CpiOutcome::Ok; 4],
            ..PipelineTimings::default()
        };
        let s = render_health(&t);
        assert!(s.contains("4 CPIs: 4 ok"), "{s}");
        assert!(s.contains("healthy"), "{s}");
    }

    #[test]
    fn report_reflects_node_counts() {
        let t = PipelineTimings::default();
        let s = render_timings(&t, &NodeAssignment::case1());
        assert!(s.contains("112"), "hard weight node count missing:\n{s}");
    }
}
