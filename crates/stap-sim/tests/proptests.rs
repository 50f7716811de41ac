//! Property-based tests for the Paragon-scale simulator: structural
//! invariants that must hold for arbitrary configurations (in-tree
//! harness; see `stap_util::check`).

use stap_pipeline::NodeAssignment;
use stap_sim::des::{simulate, simulate_traced, SimConfig};
use stap_util::check::{check, Gen};

fn counts(g: &mut Gen) -> [usize; 7] {
    g.array(|g| g.int(1, 24))
}

#[test]
fn replication_never_reduces_throughput() {
    check("replication_never_reduces_throughput", 24, |g| {
        let counts = counts(g);
        let task = g.int(0, 7);
        let base = simulate(&SimConfig::paper(NodeAssignment(counts)));
        let mut cfg = SimConfig::paper(NodeAssignment(counts));
        cfg.replicas[task] = 2;
        let rep = simulate(&cfg);
        assert!(
            rep.measured_throughput >= base.measured_throughput * 0.98,
            "replicating task {task} hurt: {} -> {}",
            base.measured_throughput,
            rep.measured_throughput
        );
    });
}

#[test]
fn input_rate_caps_throughput_exactly() {
    check("input_rate_caps_throughput_exactly", 24, |g| {
        // Feed the pipeline at a fraction of its free-running rate: the
        // measured throughput must equal the input rate.
        let counts = counts(g);
        let rate_pct = g.int(20, 95) as f64;
        let free = simulate(&SimConfig::paper(NodeAssignment(counts)));
        let rate = free.measured_throughput * rate_pct / 100.0;
        let mut cfg = SimConfig::paper(NodeAssignment(counts));
        cfg.input_interval_s = Some(1.0 / rate);
        let limited = simulate(&cfg);
        let rel = (limited.measured_throughput - rate).abs() / rate;
        assert!(
            rel < 0.02,
            "wanted {rate}, got {}",
            limited.measured_throughput
        );
    });
}

#[test]
fn smp_speedup_bounded_by_amdahl() {
    check("smp_speedup_bounded_by_amdahl", 24, |g| {
        let counts = counts(g);
        let cpus = g.int(2, 4);
        let base = simulate(&SimConfig::paper(NodeAssignment(counts)));
        let mut cfg = SimConfig::paper(NodeAssignment(counts));
        cfg.cpus_per_node = cpus;
        let smp = simulate(&cfg);
        let gain = smp.measured_throughput / base.measured_throughput;
        let amdahl = cfg.machine.smp_speedup(cpus);
        assert!(gain <= amdahl * 1.01, "gain {gain} exceeds Amdahl {amdahl}");
        assert!(gain >= 0.99, "SMP made things worse: {gain}");
    });
}

#[test]
fn traced_intervals_are_causally_ordered() {
    check("traced_intervals_are_causally_ordered", 24, |g| {
        let counts: [usize; 7] = g.array(|g| g.int(1, 8));
        let mut cfg = SimConfig::paper(NodeAssignment(counts));
        cfg.num_cpis = 6;
        let (_, trace) = simulate_traced(&cfg);
        for s in &trace.tasks {
            assert!(s.start.is_finite() && s.start >= 0.0);
            assert!(s.start <= s.recv_end);
            assert!(s.recv_end <= s.comp_end);
            assert!(s.comp_end <= s.send_end);
        }
        // CFAR CPI i completes after Doppler CPI i computes, and its
        // mark spans exactly that CPI's spans.
        for cpi in 0..6 {
            let of = |task| (trace.tasks.iter()).filter(move |s| s.task == task && s.cpi == cpi);
            let dop = of(0).map(|s| s.comp_end).fold(f64::MAX, f64::min);
            let cfar = of(6).map(|s| s.send_end).fold(0.0f64, f64::max);
            assert!(cfar > dop, "cpi {cpi}: cfar {cfar} before doppler {dop}");
            let mark = trace.cpis[cpi];
            assert_eq!((mark.cpi, mark.complete_s), (cpi, cfar));
            assert!(mark.inject_s <= dop);
        }
    });
}

#[test]
fn eq_latency_dominates_real_latency() {
    check("eq_latency_dominates_real_latency", 24, |g| {
        let counts = counts(g);
        let r = simulate(&SimConfig::paper(NodeAssignment(counts)));
        assert!(r.eq_latency >= r.eq_real_latency - 1e-12);
        assert!(r.eq_real_latency > 0.0);
    });
}
