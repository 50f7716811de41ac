//! Cross-crate end-to-end tests: scenario generation -> sequential
//! reference -> parallel pipeline -> detections, at reduced geometry.

use stap::core::{SequentialStap, StapParams};
use stap::cube::CCube;
use stap::pipeline::{NodeAssignment, ParallelStap};
use stap::radar::{Scenario, Target};

fn collect_cpis(scenario: &Scenario, n: usize) -> Vec<CCube> {
    scenario.stream(n).map(|(_, _, c)| c).collect()
}

#[test]
fn detects_strong_target_in_clutter_sequential_and_parallel() {
    let params = StapParams::reduced();
    let mut scenario = Scenario::reduced(404);
    scenario.targets = vec![Target::fixed(40, 0.25, 1.0, 12.0)];
    let cpis = collect_cpis(&scenario, 5);

    let mut seq = SequentialStap::for_scenario(params.clone(), &scenario);
    let mut seq_hits = 0;
    for cpi in &cpis {
        let out = seq.process_cpi(0, cpi);
        seq_hits += out
            .detections
            .iter()
            .filter(|d| d.range.abs_diff(40) <= 1 && d.bin.abs_diff(8) <= 1)
            .count();
    }
    assert!(
        seq_hits >= 2,
        "sequential missed the target: {seq_hits} hits"
    );

    let par = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenario);
    let out = par.run(cpis);
    let par_hits: usize = out
        .detections
        .iter()
        .map(|d| {
            d.iter()
                .filter(|d| d.range.abs_diff(40) <= 1 && d.bin.abs_diff(8) <= 1)
                .count()
        })
        .sum();
    assert_eq!(par_hits, seq_hits, "parallel detection count differs");
}

#[test]
fn no_targets_means_sparse_detections_after_training() {
    let params = StapParams::reduced();
    let mut scenario = Scenario::reduced(505);
    scenario.targets.clear();
    let cpis = collect_cpis(&scenario, 5);
    let mut seq = SequentialStap::for_scenario(params.clone(), &scenario);
    let mut last = usize::MAX;
    for cpi in &cpis {
        last = seq.process_cpi(0, cpi).detections.len();
    }
    // Some CFAR false alarms are expected; an explosion is not.
    let cells = params.n_pulses * params.m_beams * params.k_range;
    assert!(
        last < cells / 100,
        "false alarm flood: {last} detections in {cells} cells"
    );
}

#[test]
fn pipeline_matches_reference_with_jammer_and_multiple_beams() {
    let params = StapParams::reduced();
    let mut scenario = Scenario::reduced(606);
    scenario.transmit_beams = vec![-15.0, 15.0];
    scenario.jammers = vec![stap::radar::clutter::Jammer {
        az_deg: 40.0,
        jnr_db: 30.0,
    }];
    let cpis = collect_cpis(&scenario, 6);

    let mut seq = SequentialStap::for_scenario(params.clone(), &scenario);
    let want: Vec<Vec<(usize, usize, usize)>> = cpis
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut d: Vec<(usize, usize, usize)> = seq
                .process_cpi(i % 2, c)
                .detections
                .iter()
                .map(|d| (d.bin, d.beam, d.range))
                .collect();
            d.sort_unstable();
            d
        })
        .collect();

    let par = ParallelStap::for_scenario(params, NodeAssignment([3, 2, 2, 1, 2, 2, 1]), &scenario);
    let got = par.run(cpis);
    for (i, (g, w)) in got.detections.iter().zip(&want).enumerate() {
        let gl: Vec<(usize, usize, usize)> = g.iter().map(|d| (d.bin, d.beam, d.range)).collect();
        assert_eq!(&gl, w, "CPI {i}");
    }
}

#[test]
fn single_node_everything_assignment_works() {
    // Degenerate parallelism must still be correct.
    let params = StapParams::reduced();
    let scenario = Scenario::reduced(707);
    let cpis = collect_cpis(&scenario, 3);
    let mut seq = SequentialStap::for_scenario(params.clone(), &scenario);
    let want: Vec<usize> = cpis
        .iter()
        .map(|c| seq.process_cpi(0, c).detections.len())
        .collect();
    let par = ParallelStap::for_scenario(params, NodeAssignment([1; 7]), &scenario);
    let got: Vec<usize> = par.run(cpis).detections.iter().map(|d| d.len()).collect();
    assert_eq!(got, want);
}

#[test]
fn oversubscribed_assignment_with_more_nodes_than_bins() {
    // More nodes than work items on some tasks (empty partitions) must
    // not wedge or corrupt results.
    let params = StapParams::reduced(); // n_easy = 18, n_hard = 14
    let scenario = Scenario::reduced(808);
    let cpis = collect_cpis(&scenario, 3);
    let mut seq = SequentialStap::for_scenario(params.clone(), &scenario);
    let want: Vec<usize> = cpis
        .iter()
        .map(|c| seq.process_cpi(0, c).detections.len())
        .collect();
    let par = ParallelStap::for_scenario(params, NodeAssignment([5, 4, 4, 4, 4, 5, 5]), &scenario);
    let got: Vec<usize> = par.run(cpis).detections.iter().map(|d| d.len()).collect();
    assert_eq!(got, want);
}

#[test]
fn driver_window_size_does_not_change_results() {
    // The injection window only bounds in-flight CPIs; any window must
    // produce identical detections.
    let params = StapParams::reduced();
    let scenario = Scenario::reduced(909);
    let cpis = collect_cpis(&scenario, 5);
    let run_with = |window: usize| -> Vec<usize> {
        let mut par = ParallelStap::for_scenario(params.clone(), NodeAssignment::tiny(), &scenario);
        par.window = window;
        par.run(cpis.clone())
            .detections
            .iter()
            .map(|d| d.len())
            .collect()
    };
    let w1 = run_with(1);
    let w4 = run_with(4);
    let w16 = run_with(16);
    assert_eq!(w1, w4);
    assert_eq!(w4, w16);
}

#[test]
fn range_migrating_target_is_detected_through_the_parallel_pipeline() {
    // The target walks two range cells per CPI at a fixed Doppler (bin
    // 8): the parallel run must find it at its current range cell, in
    // its Doppler bin, in at least half of the CPIs.
    let params = StapParams::reduced();
    let mut scenario = Scenario::reduced(1010);
    let target = Target {
        range_rate: 2.0,
        ..Target::fixed(15, 0.25, 2.0, 12.0)
    };
    scenario.targets = vec![target];
    let k_range = params.k_range;
    let cpis = collect_cpis(&scenario, 8);
    let out = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenario).run(cpis);
    let hits: Vec<usize> = (0..out.detections.len())
        .filter(|&i| {
            let range = target.range_at(i, k_range).expect("target stays in range");
            out.detections[i]
                .iter()
                .any(|d| d.bin.abs_diff(8) <= 1 && d.range.abs_diff(range) <= 1)
        })
        .collect();
    assert_eq!(out.detections.len(), 8);
    assert!(hits.len() >= 4, "target found only in CPIs {hits:?}");
}
