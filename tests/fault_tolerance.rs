//! Fault-injection integration tests: the pipeline under deterministic
//! message loss, duplication, delay, corruption, rank stalls and rank
//! panics. Every campaign is seeded and addressed by (rank, edge, CPI),
//! so outcome classifications are exactly reproducible.

use stap::core::{Detection, StapParams};
use stap::cube::CCube;
use stap::mp::FaultPlan;
use stap::pipeline::assignment::Partitions;
use stap::pipeline::msg::{tag, Edge};
use stap::pipeline::schedule::{Kind, Schedule};
use stap::pipeline::{
    CpiDone, CpiJob, CpiOutcome, NodeAssignment, ParallelStap, PipelineError, RuntimePolicy,
};
use stap::radar::Scenario;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Ranks in `NodeAssignment::tiny()` ([2,1,2,1,1,2,1]): doppler {0,1},
/// easy weight {2}, hard weight {3,4}, easy BF {5}, hard BF {6},
/// PC {7,8}, CFAR {9}, driver 10.
const DOPPLER0: usize = 0;
const EASY_WT: usize = 2;
const EASY_BF: usize = 5;

fn scenario_and_cpis(seed: u64, n: usize) -> (Scenario, Vec<CCube>) {
    let scenario = Scenario::reduced(seed);
    let cpis = scenario.stream(n).map(|(_, _, c)| c).collect();
    (scenario, cpis)
}

fn runner(scenario: &Scenario) -> ParallelStap {
    ParallelStap::for_scenario(StapParams::reduced(), NodeAssignment::tiny(), scenario)
}

/// `ms` milliseconds, scaled by `STAP_CI_SLACK` like every wall-clock
/// budget in CI: the classifications depend on the budgets' ratios, not
/// on their absolute lengths.
fn slacked(ms: u64) -> Duration {
    Duration::from_millis(ms).mul_f64(stap_util::ci_slack())
}

/// Short deadlines so lost-edge campaigns finish quickly.
fn fast_policy() -> RuntimePolicy {
    RuntimePolicy {
        fault_tolerant: true,
        edge_timeout: slacked(150),
        weight_grace: slacked(75),
    }
}

fn same_detections(a: &[Detection], b: &[Detection]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.bin, x.beam, x.range) == (y.bin, y.beam, y.range)
                && x.power.to_bits() == y.power.to_bits()
        })
}

/// An installed-but-empty fault plan (fault-tolerant receive paths
/// active everywhere) must be bit-identical to the plain pipeline.
#[test]
fn empty_plan_is_bit_identical_to_non_ft_run() {
    let (scenario, cpis) = scenario_and_cpis(31, 6);
    let baseline = runner(&scenario).run(cpis.clone());
    let ft = runner(&scenario)
        .with_policy(RuntimePolicy::fault_tolerant())
        .with_faults(FaultPlan::seeded(5))
        .run(cpis);
    assert_eq!(ft.detections.len(), baseline.detections.len());
    for (i, (f, b)) in ft.detections.iter().zip(&baseline.detections).enumerate() {
        assert!(same_detections(f, b), "CPI {i} diverged under FT mode");
    }
    assert!(
        !ft.timings.health.any(),
        "healthy run tripped counters: {:?}",
        ft.timings.health
    );
    assert_eq!(ft.timings.outcomes.len(), 6);
    assert!(ft.timings.outcomes.iter().all(|o| *o == CpiOutcome::Ok));
    // The non-FT baseline records no outcomes at all.
    assert!(baseline.timings.outcomes.is_empty());
}

/// Losing one Doppler->beamform data message drops exactly that CPI
/// end-to-end; every other CPI is untouched. Running the identical
/// campaign twice classifies identically, and serving it classifies it
/// the same way.
#[test]
fn dropped_data_message_drops_exactly_that_cpi() {
    let (scenario, cpis) = scenario_and_cpis(32, 6);
    let baseline = runner(&scenario).run(cpis.clone());
    let plan = FaultPlan::seeded(9).drop_message(DOPPLER0, EASY_BF, tag(Edge::DopplerToEasyBf, 2));
    let faulted = || {
        runner(&scenario)
            .with_policy(fast_policy())
            .with_faults(plan.clone())
    };
    let run_once = || faulted().run(cpis.clone());
    let out = run_once();
    assert_eq!(out.timings.outcomes[2], CpiOutcome::Dropped);
    assert_eq!(out.timings.health.dropped_cpis, 1);
    assert!(out.detections[2].is_empty(), "dropped CPI reported hits");
    for i in [0, 1, 3, 4, 5] {
        assert_eq!(out.timings.outcomes[i], CpiOutcome::Ok, "CPI {i}");
        assert!(
            same_detections(&out.detections[i], &baseline.detections[i]),
            "CPI {i} changed although only CPI 2 was attacked"
        );
    }
    // Determinism: the same seeded plan classifies identically again.
    let again = run_once();
    assert_eq!(again.timings.outcomes, out.timings.outcomes);
    assert_eq!(again.timings.health.dropped_cpis, 1);

    // Served one CPI per slot, with the feed idle for longer than the
    // deadline budget before the last CPI: no node may spend the budget
    // on a slot the driver has not sent. The session shuts down.
    let served = faulted();
    let (jobs_tx, jobs) = mpsc::sync_channel(cpis.len());
    let (done, done_rx) = mpsc::channel();
    let (list, pool) = (&cpis, served.pools().cx.clone());
    let summary = std::thread::scope(|s| {
        s.spawn(move || {
            for (i, cube) in list.iter().enumerate() {
                if i + 1 == list.len() {
                    std::thread::sleep(3 * fast_policy().edge_timeout);
                }
                let job = CpiJob {
                    stream: 0,
                    scpi: i as u32,
                    cube: pool.take_cube_from(cube),
                    submitted: Instant::now(),
                };
                jobs_tx.send(vec![job]).unwrap();
            }
        });
        served.serve(jobs, done).expect("served session shuts down")
    });
    let got: Vec<CpiDone> = done_rx.iter().collect();
    assert_eq!((got.len(), summary.health.dropped_cpis), (cpis.len(), 1));
    assert!(got[2].degraded && got[2].detections.is_empty());
    for i in [0, 1, 3, 4, 5] {
        let clean = same_detections(&got[i].detections, &baseline.detections[i]);
        assert!(clean && !got[i].degraded, "served CPI {i} changed");
    }
}

/// Losing a weight matrix does NOT drop the CPI: the beamformer falls
/// back to the last good weights for that azimuth and flags the CPI as
/// degraded. All other CPIs stay bit-identical.
#[test]
fn dropped_weight_message_degrades_not_drops() {
    let (scenario, cpis) = scenario_and_cpis(33, 6);
    let baseline = runner(&scenario).run(cpis.clone());
    // Weight messages are tagged by their source CPI: the set computed
    // from CPI 2 is what CPI 3 applies (one transmit beam).
    let plan = FaultPlan::seeded(10).drop_message(EASY_WT, EASY_BF, tag(Edge::EasyWtToEasyBf, 2));
    let out = runner(&scenario)
        .with_policy(fast_policy())
        .with_faults(plan)
        .run(cpis);
    assert_eq!(out.timings.outcomes[3], CpiOutcome::DegradedStaleWeights);
    assert_eq!(out.timings.health.degraded_cpis, 1);
    assert_eq!(out.timings.health.dropped_cpis, 0);
    assert!(
        out.timings.health.edges[Edge::EasyWtToEasyBf as usize].stale_weights >= 1,
        "stale fallback not counted: {:?}",
        out.timings.health
    );
    for i in [0, 1, 2, 4, 5] {
        assert_eq!(out.timings.outcomes[i], CpiOutcome::Ok, "CPI {i}");
        assert!(
            same_detections(&out.detections[i], &baseline.detections[i]),
            "CPI {i} changed although only CPI 3's weights were attacked"
        );
    }
}

/// The acceptance campaign: one weight-task stall plus one dropped
/// inter-task message over 10 CPIs. The pipeline completes without
/// deadlock and classifies exactly [..X....ddd].
#[test]
fn acceptance_campaign_stall_plus_drop_over_ten_cpis() {
    let (scenario, cpis) = scenario_and_cpis(7, 10);
    let plan = FaultPlan::seeded(7)
        .stall_rank(EASY_WT, 6, slacked(2000))
        .drop_message(DOPPLER0, EASY_BF, tag(Edge::DopplerToEasyBf, 2));
    let policy = RuntimePolicy {
        fault_tolerant: true,
        edge_timeout: slacked(200),
        weight_grace: slacked(50),
    };
    let out = runner(&scenario)
        .with_policy(policy)
        .with_faults(plan)
        .run(cpis);
    use CpiOutcome::{DegradedStaleWeights as D, Dropped as X, Ok as O};
    assert_eq!(
        out.timings.outcomes,
        vec![O, O, X, O, O, O, O, D, D, D],
        "health: {:?}",
        out.timings.health
    );
    assert_eq!(out.timings.health.dropped_cpis, 1);
    assert_eq!(out.timings.health.degraded_cpis, 3);
}

/// Payload corruption (a NaN flipped into a payload in flight) is
/// caught by the receive-side screen and quarantined on every edge, and
/// the loop behind it propagates the loss by explicit drop markers: no
/// deadline fires (the retry counters stay 0). Each row corrupts CPI 3
/// on its edge's first schedule entry that carries data. A lost data
/// edge drops CPI 3 alone (X); a lost weight input degrades CPI 4,
/// which pops the stale stand-in for CPI 3's weights (D). When the
/// weight task's own input is lost it leaves its history or QR state
/// untouched, so CPI 5 is `Ok` but beamformed with weights that differ
/// from a clean run's; everywhere else the unmarked CPIs are
/// bit-identical to the clean run.
#[test]
fn corrupted_payload_is_quarantined() {
    use CpiOutcome::{DegradedStaleWeights as D, Dropped as X, Ok as O};
    let (scenario, cpis) = scenario_and_cpis(34, 6);
    let baseline = runner(&scenario).run(cpis.clone());
    let (params, assign) = (StapParams::reduced(), NodeAssignment::tiny());
    let schedule = Schedule::new(&params, &assign, Partitions::new(&params, &assign)).unwrap();
    let weight_input = [O, O, O, O, D, O];
    let data = [O, O, O, X, O, O];
    // Per edge: its outcomes, and whether CPI 5 keeps the clean bits.
    let table = [
        (Edge::Input, [O, O, O, X, D, O], false),
        (Edge::DopplerToEasyWt, weight_input, false),
        (Edge::DopplerToHardWt, weight_input, false),
        (Edge::DopplerToEasyBf, data, true),
        (Edge::DopplerToHardBf, data, true),
        (Edge::EasyWtToEasyBf, weight_input, true),
        (Edge::HardWtToHardBf, weight_input, true),
        (Edge::EasyBfToPc, data, true),
        (Edge::HardBfToPc, data, true),
        (Edge::PcToCfar, data, true),
        (Edge::Output, data, true),
    ];
    for (edge, outcomes, clean_tail) in table {
        let e = (schedule.entries().iter())
            .find(|e| e.edge == edge && (e.kind == Kind::Detections || e.bytes_per_cpi() > 0))
            .expect("every edge carries data");
        let plan = FaultPlan::seeded(11).corrupt_message(e.src, e.dst, tag(edge, 3));
        let out = runner(&scenario)
            .with_policy(fast_policy())
            .with_faults(plan)
            .run(cpis.clone());
        let health = &out.timings.health;
        assert_eq!(out.timings.outcomes, outcomes, "{edge:?}: {health:?}");
        let quarantined: Vec<u64> = health.edges.iter().map(|h| h.quarantined).collect();
        let mut want = [0; 11];
        want[edge as usize] = 1;
        assert_eq!(quarantined, want, "{edge:?}: the screen missed the NaN");
        let retries: u64 = health.edges.iter().map(|h| h.retries).sum();
        assert_eq!(retries, 0, "{edge:?}: a deadline fired");
        assert!(out.detections[3].is_empty() || outcomes[3] != X, "{edge:?}");
        for (i, outcome) in outcomes.iter().enumerate() {
            let same = same_detections(&out.detections[i], &baseline.detections[i]);
            match (i, outcome) {
                (0..=2, _) => assert!(same, "{edge:?}: CPI {i} changed"),
                (5, O) => assert_eq!(same, clean_tail, "{edge:?}: CPI 5"),
                (_, O) => assert!(same, "{edge:?}: CPI {i} changed"),
                _ => {}
            }
        }
    }
}

/// A duplicated message must not corrupt CPI assembly: the second copy
/// is discarded (sequence checking / end-of-CPI purging) and the output
/// is bit-identical to the clean run.
#[test]
fn duplicated_message_is_discarded() {
    let (scenario, cpis) = scenario_and_cpis(35, 6);
    let baseline = runner(&scenario).run(cpis.clone());
    let plan =
        FaultPlan::seeded(12).duplicate_message(DOPPLER0, EASY_BF, tag(Edge::DopplerToEasyBf, 1));
    let out = runner(&scenario)
        .with_policy(fast_policy())
        .with_faults(plan)
        .run(cpis);
    assert!(out.timings.outcomes.iter().all(|o| *o == CpiOutcome::Ok));
    for (i, (f, b)) in out.detections.iter().zip(&baseline.detections).enumerate() {
        assert!(same_detections(f, b), "CPI {i} diverged under duplication");
    }
    let late: u64 = out.timings.health.edges.iter().map(|e| e.late_or_dup).sum();
    assert!(
        late >= 1,
        "duplicate was never purged: {:?}",
        out.timings.health
    );
}

/// A delayed message that is released before the edge deadline is
/// absorbed: no drop, no degradation, identical detections.
#[test]
fn delayed_message_is_absorbed_by_the_deadline_budget() {
    let (scenario, cpis) = scenario_and_cpis(36, 6);
    let baseline = runner(&scenario).run(cpis.clone());
    let plan =
        FaultPlan::seeded(13).delay_message(DOPPLER0, EASY_BF, tag(Edge::DopplerToEasyBf, 1), 2);
    // Generous deadlines: the delayed message (released two checkpoints
    // later at the sender) lands well inside the receive budget.
    let out = runner(&scenario)
        .with_policy(RuntimePolicy::fault_tolerant())
        .with_faults(plan)
        .run(cpis);
    assert!(
        out.timings.outcomes.iter().all(|o| *o == CpiOutcome::Ok),
        "outcomes: {:?}",
        out.timings.outcomes
    );
    assert_eq!(out.timings.health.dropped_cpis, 0);
    for (i, (f, b)) in out.detections.iter().zip(&baseline.detections).enumerate() {
        assert!(same_detections(f, b), "CPI {i} diverged under delay");
    }
}

/// A scheduled rank panic surfaces as a structured `WorldError` naming
/// the rank — not a hang, not an opaque unwind.
#[test]
fn scheduled_rank_panic_is_joined_as_structured_error() {
    let (scenario, cpis) = scenario_and_cpis(37, 4);
    let plan = FaultPlan::seeded(14).panic_rank(DOPPLER0, 1);
    let result = runner(&scenario)
        .with_policy(fast_policy())
        .with_faults(plan)
        .try_run(cpis);
    match result {
        Err(PipelineError::World(e)) => {
            assert_eq!(e.rank, DOPPLER0);
            assert!(
                e.message.contains("panicked at epoch 1"),
                "unexpected payload: {}",
                e.message
            );
        }
        Err(other) => panic!("expected World error, got {other}"),
        Ok(_) => panic!("a panicking rank must not produce output"),
    }
}

/// Input validation happens before any rank thread spawns.
#[test]
fn bad_cube_shapes_are_rejected_up_front() {
    let (scenario, _) = scenario_and_cpis(38, 1);
    let par = runner(&scenario);
    let err = par.try_run(vec![CCube::zeros([3, 3, 3])]).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("[3, 3, 3]"), "{msg}");
    assert!(msg.contains("k_range"), "{msg}");
}
