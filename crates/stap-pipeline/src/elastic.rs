//! Rank shifts toward the measured bottleneck: the triggers and the
//! planner a [`crate::session::Session`] applies between epochs.
//!
//! The paper picks its node assignment offline (Tables 7-10) from a
//! *predicted* load profile; a deployed radar sees the real one —
//! clutter-heavy dwells that inflate the hard-weight QR, CFAR windows
//! that widen with range extent, or a node dropping out mid-campaign.
//! [`plan_rebalance`] moves one rank from the least-loaded multi-rank
//! donor to the bottleneck, ranked by `busy[t] / nodes[t]`. A shift is
//! bit-identical because per-bin computations are partition-independent
//! (the differential matrix in `tests/pipeline_properties.rs`) and the
//! carried state is keyed by global bins ([`crate::ResidentState`]).

use crate::assignment::NodeAssignment;
use stap_core::params::StapParams;

/// A rebalance trigger, sent on a session's control channel.
#[derive(Clone, Debug)]
pub enum Rebalance {
    /// Rebalance once the count of slot groups the session has pulled
    /// from its feed reaches this value. Deterministic; the property
    /// tests use it to force a mid-campaign reassignment at an exact
    /// slot.
    At(u64),
    /// A task suffered a rank-loss / degradation event: shift a rank
    /// toward it immediately, bypassing the cooldown and the imbalance
    /// threshold.
    Degraded {
        /// Task index (0..7) that degraded.
        task: usize,
    },
}

/// How a rebalancing session admits and plans its shifts. A session or
/// server without one never changes its assignment.
#[derive(Clone, Copy, Debug)]
pub struct RebalancePolicy {
    /// Minimum slot groups between two shifts; a scheduled trigger
    /// inside it is dropped ([`Rebalance::Degraded`] bypasses it).
    pub cooldown: usize,
    /// Per-node busy-time ratio (bottleneck vs donor) that must be
    /// exceeded before a rank is moved; 1.0 would thrash on noise.
    pub imbalance: f64,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy {
            cooldown: 8,
            imbalance: 1.25,
        }
    }
}

/// Per-task partition-space capacities: a task cannot use more nodes
/// than it has units of its partitioned dimension (Doppler partitions
/// range cells, the weight/beamform pairs partition their bin spaces,
/// PC and CFAR partition natural bins).
pub fn task_capacity(params: &StapParams) -> [usize; 7] {
    [
        params.k_range,
        params.n_easy(),
        params.n_hard,
        params.n_easy(),
        params.n_hard,
        params.n_pulses,
        params.n_pulses,
    ]
}

/// Plans one rank shift from live busy telemetry: move one rank from
/// the least-loaded donor (per-node busy, `nodes > 1`) to the
/// bottleneck (`forced` task if given, else the per-node busiest).
///
/// Returns `None` when no shift is justified or feasible:
/// * the bottleneck is already at its partition-space capacity,
/// * every other task runs a single rank (nothing can shrink),
/// * (unforced only) the bottleneck/donor per-node busy ratio does not
///   exceed `imbalance` — shifting on noise would thrash.
pub fn plan_rebalance(
    busy: &[f64; 7],
    assign: NodeAssignment,
    forced: Option<usize>,
    imbalance: f64,
    caps: &[usize; 7],
) -> Option<NodeAssignment> {
    let per_node = |t: usize| busy[t] / assign.0[t].max(1) as f64;
    let hot = match forced {
        Some(t) => t,
        None => (0..7).max_by(|&a, &b| per_node(a).total_cmp(&per_node(b)))?,
    };
    if assign.0[hot] + 1 > caps[hot] {
        return None;
    }
    let donor = (0..7)
        .filter(|&t| t != hot && assign.0[t] > 1)
        .min_by(|&a, &b| per_node(a).total_cmp(&per_node(b)))?;
    if forced.is_none() {
        let d = per_node(donor);
        if d <= 0.0 || d.is_nan() || per_node(hot) / d < imbalance {
            return None;
        }
    }
    let mut next = assign;
    next.0[hot] += 1;
    next.0[donor] -= 1;
    Some(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{EASY_WT, HARD_WT};
    use crate::resident::{ChannelFeed, CpiJob};
    use crate::session::{Session, SessionSummary};
    use crate::ParallelStap;
    use stap_core::Detection;
    use stap_cube::CCube;
    use stap_radar::Scenario;
    use std::sync::mpsc;
    use std::time::Instant;

    fn caps7() -> [usize; 7] {
        [64; 7]
    }

    /// Runs `cubes` as one stream, one CPI per slot, on `tiny` through
    /// `session`, sending `trigger.2` on `trigger.1` just before CPI
    /// `trigger.0` is submitted. Returns the summary and every CPI's
    /// detections.
    fn run_session(
        session: Session,
        sc: &Scenario,
        cubes: &[CCube],
        trigger: Option<(usize, mpsc::Sender<Rebalance>, Rebalance)>,
    ) -> (SessionSummary, Vec<Vec<Detection>>) {
        let res = ParallelStap::for_scenario(StapParams::reduced(), NodeAssignment::tiny(), sc)
            .with_max_group(1);
        res.reserve(1, 2);
        let (jobs_tx, jobs_rx) = mpsc::sync_channel(2);
        let (done_tx, done_rx) = mpsc::channel();
        let pool = res.pools().cx.clone();
        let summary = std::thread::scope(|s| {
            s.spawn(move || {
                for (scpi, c) in cubes.iter().enumerate() {
                    if let Some((at, control, r)) = &trigger {
                        if *at == scpi {
                            control.send(r.clone()).unwrap();
                        }
                    }
                    let job = CpiJob {
                        stream: 0,
                        scpi: scpi as u32,
                        cube: pool.take_cube_from(c),
                        submitted: Instant::now(),
                    };
                    // The bounded channel throttles the feeder to the
                    // engine's pace, which keeps a trigger mid-campaign.
                    jobs_tx.send(vec![job]).unwrap();
                }
            });
            let mut feed = ChannelFeed {
                jobs: jobs_rx,
                done: done_tx,
            };
            session.run(&res, &mut feed).unwrap()
        });
        let mut got = vec![Vec::new(); cubes.len()];
        for d in done_rx {
            got[d.scpi as usize] = d.detections;
        }
        (summary, got)
    }

    /// A session that may shift a rank at the slot boundary after a
    /// trigger on `control`.
    fn rebalancing(control: mpsc::Receiver<Rebalance>) -> Session {
        Session {
            rebalance: Some((RebalancePolicy::default(), control)),
            reserve: (1, 2),
            ..Session::default()
        }
    }

    /// The acceptance property: a forced mid-campaign reassignment
    /// (rank-loss degradation on a weight task) produces *bit-identical*
    /// detections to a run that never rebalanced — the weight-history
    /// rings, QR recursion state and beamform FIFOs all migrate exactly
    /// across the epoch boundary. Degrading hard weight re-partitions
    /// its bins 7+7 -> 5+5+4: the recursion leaves lane layout as
    /// [`crate::ResidentState::hard_r`] and re-enters it in different
    /// groups. Degrading easy weight re-partitions 18 -> 9+9, which cuts
    /// the lane group of bins 8..12 in two: the history rings leave lane
    /// layout as [`crate::ResidentState::easy_history`] and re-enter it
    /// regrouped.
    #[test]
    fn rebalance_mid_campaign_is_bit_identical() {
        for task in [EASY_WT, HARD_WT] {
            rebalance_toward_is_bit_identical(task);
        }
    }

    fn rebalance_toward_is_bit_identical(task: usize) {
        let sc = Scenario::reduced(13);
        let per_stream = 12usize;
        let cubes: Vec<CCube> = sc.stream(per_stream).map(|(_, _, c)| c).collect();
        let (_, want) = run_session(Session::default(), &sc, &cubes, None);

        // Same slot structure, but a Degraded{task} event lands
        // mid-campaign (before CPI 6 is submitted), forcing a rank shift
        // toward that task at the next slot boundary.
        let (ctl_tx, ctl_rx) = mpsc::channel();
        let trigger = (6, ctl_tx, Rebalance::Degraded { task });
        let (summary, got) = run_session(rebalancing(ctl_rx), &sc, &cubes, Some(trigger));

        assert_eq!(summary.resident.cpis as usize, per_stream);
        assert_eq!(
            summary.rebalances.len(),
            1,
            "the degradation must force one shift"
        );
        assert_eq!(summary.checkpoints, 2, "two epochs");
        assert_eq!(
            summary.assign.0[task],
            NodeAssignment::tiny().0[task] + 1,
            "the degraded task gained a rank: {:?}",
            summary.assign
        );
        assert_eq!(summary.assign.total(), NodeAssignment::tiny().total());
        // Each epoch ran slots: the shift came after the first epoch's
        // and before the second's.
        let shifted_at = summary.rebalances[0];
        assert!(shifted_at >= 1);
        assert!(summary.resident.slots - shifted_at >= 1);

        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.len(), w.len(), "CPI {i} detection count");
            for (a, b) in g.iter().zip(w) {
                assert_eq!((a.bin, a.beam, a.range), (b.bin, b.beam, b.range));
                assert_eq!(
                    a.power.to_bits(),
                    b.power.to_bits(),
                    "CPI {i} bin {} power must be bit-identical across the rebalance",
                    a.bin
                );
            }
        }
    }

    /// With no triggers a rebalancing session is one epoch and applies
    /// no shifts — pure pass-through over the resident engine.
    #[test]
    fn quiet_session_is_single_epoch() {
        let sc = Scenario::reduced(5);
        let cubes: Vec<CCube> = sc.stream(3).map(|(_, _, c)| c).collect();
        let (_ctl_tx, ctl_rx) = mpsc::channel::<Rebalance>();
        let (summary, _) = run_session(rebalancing(ctl_rx), &sc, &cubes, None);
        assert_eq!(summary.resident.cpis, 3);
        assert!(summary.rebalances.is_empty());
        assert_eq!(summary.checkpoints, 1, "one epoch");
        assert_eq!(summary.assign, NodeAssignment::tiny());
        let m = &summary.resident;
        assert_eq!(m.cpis, 3);
        assert!(m.busy.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn plan_moves_rank_toward_per_node_bottleneck() {
        // Task 2 is busiest per node; task 0 is the idlest donor.
        let assign = NodeAssignment([4, 2, 2, 2, 2, 2, 2]);
        let busy = [0.4, 0.6, 2.0, 0.6, 0.6, 0.6, 0.6]; // per-node: 0.1 .. 1.0
        let next = plan_rebalance(&busy, assign, None, 1.25, &caps7()).expect("shift expected");
        assert_eq!(next.0, [3, 2, 3, 2, 2, 2, 2]);
        assert_eq!(next.total(), assign.total());
    }

    #[test]
    fn plan_refuses_when_every_donor_is_single_rank() {
        let assign = NodeAssignment([1, 1, 1, 1, 1, 1, 1]);
        let busy = [0.1, 0.1, 5.0, 0.1, 0.1, 0.1, 0.1];
        assert!(plan_rebalance(&busy, assign, None, 1.25, &caps7()).is_none());
        // Even a forced (rank-loss) trigger cannot shrink a single-rank
        // task to zero.
        assert!(plan_rebalance(&busy, assign, Some(2), 1.25, &caps7()).is_none());
    }

    #[test]
    fn plan_respects_imbalance_threshold_unless_forced() {
        let assign = NodeAssignment([2, 2, 2, 2, 2, 2, 2]);
        let busy = [1.0, 1.0, 1.2, 1.0, 1.0, 1.0, 1.0]; // ratio 1.2 < 1.25
        assert!(plan_rebalance(&busy, assign, None, 1.25, &caps7()).is_none());
        // A degradation event bypasses the threshold (and may target a
        // task that is not the busiest).
        let next = plan_rebalance(&busy, assign, Some(5), 1.25, &caps7()).expect("forced shift");
        assert_eq!(next.0[5], 3);
        assert_eq!(next.total(), assign.total());
    }

    #[test]
    fn plan_honors_partition_space_capacity() {
        let mut caps = caps7();
        caps[2] = 2; // bottleneck already saturates its bin space
        let assign = NodeAssignment([2, 2, 2, 2, 2, 2, 2]);
        let busy = [0.1, 0.1, 9.0, 0.1, 0.1, 0.1, 0.1];
        assert!(plan_rebalance(&busy, assign, None, 1.25, &caps).is_none());
    }

    #[test]
    fn plan_with_zero_telemetry_only_moves_when_forced() {
        let assign = NodeAssignment([2, 2, 2, 2, 2, 2, 2]);
        let busy = [0.0; 7];
        assert!(plan_rebalance(&busy, assign, None, 1.25, &caps7()).is_none());
        assert!(plan_rebalance(&busy, assign, Some(3), 1.25, &caps7()).is_some());
    }

    #[test]
    fn capacity_matches_partition_spaces() {
        let p = StapParams::reduced();
        let caps = task_capacity(&p);
        assert_eq!(caps[0], p.k_range);
        assert_eq!(caps[1], p.n_easy());
        assert_eq!(caps[2], p.n_hard);
        assert_eq!(caps[5], p.n_pulses);
    }
}
