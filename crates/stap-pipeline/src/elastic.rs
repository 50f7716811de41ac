//! Elastic runtime rebalancing: resident epochs with live rank shifts.
//!
//! The resident pipeline ([`crate::resident::ResidentStap`]) runs one
//! fixed [`NodeAssignment`] for its whole life. The paper picks that
//! assignment offline (Tables 7-10) from a *predicted* load profile; a
//! deployed radar sees the real one — clutter-heavy dwells that inflate
//! the hard-weight QR, CFAR windows that widen with range extent, or a
//! node dropping out mid-campaign. [`ElasticStap`] closes the loop: it
//! runs the resident world in **epochs**, watches the per-task busy
//! telemetry each epoch reports, and between epochs *shifts ranks
//! toward the measured bottleneck* — re-partitioning the carried
//! [`ResidentState`] so detections stay bit-identical to a run that
//! never rebalanced.
//!
//! Mechanics of one rebalance:
//!
//! 1. a trigger arrives on the control channel ([`Rebalance::Now`] from
//!    a load spike, [`Rebalance::Degraded`] from a rank-loss /
//!    degradation event, [`Rebalance::At`] from a test or schedule);
//! 2. the forwarder stops relaying slot groups and drops the epoch's
//!    inner job channel: the resident world drains in-flight slots
//!    through its normal shutdown cascade and exports its cross-slot
//!    state (weight history rings, QR recursion, weight FIFOs) keyed by
//!    global bin indices;
//! 3. [`plan_rebalance`] ranks tasks by `busy[t] / nodes[t]` and moves
//!    one rank from the least-loaded multi-rank donor to the
//!    bottleneck (capacity- and threshold-checked);
//! 4. a new epoch starts under the shifted assignment, importing the
//!    carried state re-partitioned to the new bin ranges, on the *same*
//!    shared buffer pools (no cold re-warm).
//!
//! The bit-identical guarantee rests on two invariants proven
//! elsewhere: per-bin computations are partition-independent (the
//! differential matrix in `tests/pipeline_properties.rs`), and the state
//! export/import round-trip preserves per-bin FIFO order exactly
//! ([`crate::resident`]).

use crate::assignment::{NodeAssignment, TASK_NAMES};
use crate::fault::RuntimePolicy;
use crate::resident::{CpiDone, CpiJob, ResidentStap, ResidentState, ResidentSummary};
use crate::runner::PipelineError;
use crate::tasks::PipelinePools;
use stap_core::params::StapParams;
use stap_math::CMat;
use stap_radar::Scenario;
use std::sync::mpsc::{sync_channel, Receiver, Sender, TryRecvError};

/// A rebalance trigger, sent on the elastic control channel.
#[derive(Clone, Debug)]
pub enum Rebalance {
    /// Rebalance at the next slot boundary (load spike, operator).
    Now {
        /// Human-readable trigger description, kept in the epoch report.
        reason: String,
    },
    /// Rebalance once the global forwarded-slot count reaches this
    /// value. Deterministic; the property tests use it to force a
    /// mid-campaign reassignment at an exact slot.
    At(u64),
    /// A task suffered a rank-loss / degradation event: shift a rank
    /// toward it immediately, bypassing the cooldown and the imbalance
    /// threshold.
    Degraded {
        /// Task index (0..7) that degraded.
        task: usize,
    },
}

/// One epoch of an elastic session: the assignment it ran, the resident
/// summary it produced, and what ended it.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Node assignment this epoch ran under.
    pub assign: NodeAssignment,
    /// The epoch's resident summary (busy telemetry, health, pools).
    pub summary: ResidentSummary,
    /// Why the epoch ended: `None` means the job stream drained; a
    /// string names the rebalance trigger.
    pub trigger: Option<String>,
}

/// What an elastic session reports after the job stream drains.
#[derive(Clone, Debug)]
pub struct ElasticSummary {
    /// CPIs fully processed, across all epochs.
    pub cpis: u64,
    /// Slots processed, across all epochs.
    pub slots: u64,
    /// Rank shifts actually applied (a trigger whose plan found no
    /// beneficial or feasible shift drains an epoch but does not count).
    pub rebalances: u64,
    /// Per-epoch reports, in order.
    pub epochs: Vec<EpochReport>,
    /// The assignment the final epoch ran under.
    pub final_assign: NodeAssignment,
}

impl ElasticSummary {
    /// Collapses the per-epoch resident summaries into one, for
    /// consumers (the ingestion server's summary) that report a single
    /// session: counters and busy seconds sum, health merges, pool
    /// stats come from the last epoch (the pools are shared, so the
    /// last epoch's stats already span the whole session).
    pub fn merged_resident(&self) -> ResidentSummary {
        let mut m = ResidentSummary::default();
        for e in &self.epochs {
            m.cpis += e.summary.cpis;
            m.slots += e.summary.slots;
            m.elapsed += e.summary.elapsed;
            m.health.merge(&e.summary.health);
            for t in 0..7 {
                m.busy[t] += e.summary.busy[t];
            }
        }
        if let Some(last) = self.epochs.last() {
            m.pool_cx = last.summary.pool_cx;
            m.pool_real = last.summary.pool_real;
        }
        m
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

/// The elastic resident pipeline: a sequence of [`ResidentStap`] epochs
/// sharing one pool family and carrying [`ResidentState`] across
/// assignment changes.
pub struct ElasticStap {
    /// Algorithm parameters.
    pub params: StapParams,
    /// Initial node assignment (epoch 0).
    pub assign: NodeAssignment,
    /// Steering matrices per transmit-beam position.
    pub steering: Vec<CMat>,
    /// Runtime policy; `rebalance`, `rebalance_cooldown` and
    /// `rebalance_imbalance` govern the elastic behavior.
    pub policy: RuntimePolicy,
    /// Slots each epoch's driver keeps in flight.
    pub window: usize,
    /// Maximum CPIs coalesced into one slot.
    pub max_group: usize,
    /// Stream-count hint for per-epoch pool reservation.
    pub streams_hint: usize,
    /// Queue-depth hint for per-epoch pool reservation.
    pub queue_depth_hint: usize,
    /// Soft mailbox high-water mark installed in every epoch (0 = off).
    pub mailbox_high_water: usize,
    pools: PipelinePools,
}

impl ElasticStap {
    /// Builds an elastic runner from explicit steering matrices.
    pub fn new(params: StapParams, assign: NodeAssignment, steering: Vec<CMat>) -> Self {
        params.validate().expect("invalid parameters");
        assert!(!steering.is_empty(), "need at least one steering matrix");
        ElasticStap {
            params,
            assign,
            steering,
            policy: RuntimePolicy::default(),
            window: 4,
            max_group: 4,
            streams_hint: 1,
            queue_depth_hint: 2,
            mailbox_high_water: 0,
            pools: PipelinePools::default(),
        }
    }

    /// Steering fans matching [`stap_core::SequentialStap::for_scenario`].
    pub fn for_scenario(params: StapParams, assign: NodeAssignment, scenario: &Scenario) -> Self {
        let steering = scenario
            .transmit_beams
            .iter()
            .map(|&c| {
                scenario
                    .geom
                    .beam_fan(c, scenario.beam_half_width_deg / 2.0, params.m_beams)
            })
            .collect();
        ElasticStap::new(params, assign, steering)
    }

    /// Sets the runtime policy (rebalance knobs included).
    pub fn with_policy(mut self, policy: RuntimePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the slot window (in-flight slots per epoch).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Sets the per-slot coalescing bound.
    pub fn with_max_group(mut self, max_group: usize) -> Self {
        self.max_group = max_group.max(1);
        self
    }

    /// Sets the pool-reservation hints (streams, per-stream queue depth).
    pub fn with_reserve_hints(mut self, streams: usize, queue_depth: usize) -> Self {
        self.streams_hint = streams.max(1);
        self.queue_depth_hint = queue_depth;
        self
    }

    /// Installs a soft mailbox high-water mark on every epoch's ranks.
    pub fn with_mailbox_high_water(mut self, high_water: usize) -> Self {
        self.mailbox_high_water = high_water;
        self
    }

    /// Replaces the buffer pools with an existing (shared) set, so an
    /// ingestion layer holding pool handles keeps them valid across
    /// rebalances.
    pub fn with_shared_pools(mut self, pools: PipelinePools) -> Self {
        self.pools = pools;
        self
    }

    /// The shared buffer pools, threaded through every epoch.
    pub fn pools(&self) -> &PipelinePools {
        &self.pools
    }

    /// Runs epochs until the `jobs` channel disconnects and the last
    /// epoch drains. Control messages on `control` trigger rebalances
    /// at slot boundaries; completions stream out on `done` exactly as
    /// in [`ResidentStap::serve`].
    pub fn serve(
        &self,
        jobs: Receiver<Vec<CpiJob>>,
        done: Sender<CpiDone>,
        control: Receiver<Rebalance>,
    ) -> Result<ElasticSummary, PipelineError> {
        let caps = task_capacity(&self.params);
        let mut assign = self.assign;
        let mut carry = ResidentState::default();
        let mut out = ElasticSummary {
            cpis: 0,
            slots: 0,
            rebalances: 0,
            epochs: Vec::new(),
            final_assign: assign,
        };
        // Global forwarded-slot count (for Rebalance::At) and slots
        // since the last applied shift (cooldown).
        let mut global_slot: u64 = 0;
        let mut since_shift: u64 = u64::MAX / 2; // first trigger is never cooldown-blocked
        let mut scheduled_at: Option<u64> = None;
        let mut jobs_open = true;

        while jobs_open {
            let runner = ResidentStap::new(self.params.clone(), assign, self.steering.clone())
                .with_window(self.window)
                .with_max_group(self.max_group)
                .with_mailbox_high_water(self.mailbox_high_water)
                .with_pools(self.pools.clone());
            runner.reserve(self.streams_hint, self.queue_depth_hint);
            let carried = std::mem::take(&mut carry);
            let done_tx = done.clone();
            let (inner_tx, inner_rx) = sync_channel::<Vec<CpiJob>>(self.window.max(1) * 2);
            let runner_ref = &runner;

            let mut trigger: Option<String> = None;
            let mut forced: Option<usize> = None;

            let epoch = std::thread::scope(|s| {
                let engine =
                    s.spawn(move || runner_ref.serve_with_state(inner_rx, done_tx, carried));
                // Forward slot groups until the outer stream drains or a
                // trigger fires at a slot boundary.
                loop {
                    let batch = match jobs.recv() {
                        Ok(b) => b,
                        Err(_) => {
                            jobs_open = false;
                            break;
                        }
                    };
                    if inner_tx.send(batch).is_err() {
                        // Engine exited early (error path); stop forwarding
                        // and surface whatever it returned.
                        break;
                    }
                    global_slot += 1;
                    since_shift += 1;
                    // Drain the control channel; the *last* imperative
                    // trigger wins, schedules persist until they fire.
                    loop {
                        match control.try_recv() {
                            Ok(Rebalance::Now { reason }) => {
                                trigger = Some(reason);
                                forced = None;
                            }
                            Ok(Rebalance::At(slot)) => scheduled_at = Some(slot),
                            Ok(Rebalance::Degraded { task }) => {
                                trigger = Some(format!(
                                    "degraded:{}",
                                    TASK_NAMES.get(task).copied().unwrap_or("?")
                                ));
                                forced = Some(task.min(6));
                            }
                            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                        }
                    }
                    if trigger.is_none() && scheduled_at.is_some_and(|at| global_slot >= at) {
                        trigger = Some(format!("scheduled@{global_slot}"));
                        scheduled_at = None;
                    }
                    if let Some(t) = &trigger {
                        let urgent = forced.is_some();
                        if self.policy.rebalance
                            && (urgent || since_shift >= self.policy.rebalance_cooldown as u64)
                        {
                            let _ = t;
                            break;
                        }
                        // Policy off or still cooling down: discard.
                        trigger = None;
                        forced = None;
                    }
                }
                drop(inner_tx);
                engine.join().expect("elastic engine panicked")
            });
            let (esum, estate) = epoch?;
            carry = estate;
            out.cpis += esum.cpis;
            out.slots += esum.slots;
            out.epochs.push(EpochReport {
                assign,
                summary: esum.clone(),
                trigger: trigger.clone(),
            });
            if trigger.is_some() && jobs_open {
                if let Some(next) = plan_rebalance(
                    &esum.busy,
                    assign,
                    forced,
                    self.policy.rebalance_imbalance,
                    &caps,
                ) {
                    assign = next;
                    out.rebalances += 1;
                    since_shift = 0;
                }
                // No feasible/beneficial shift: continue under the same
                // assignment (the epoch boundary itself is harmless).
            }
        }
        out.final_assign = assign;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{EASY_WT, HARD_WT};
    use stap_core::Detection;
    use stap_cube::CCube;
    use stap_radar::Scenario;
    use std::sync::mpsc;
    use std::time::Instant;

    fn caps7() -> [usize; 7] {
        [64; 7]
    }

    /// The acceptance property: a forced mid-campaign reassignment
    /// (rank-loss degradation on a weight task) produces *bit-identical*
    /// detections to a run that never rebalanced — the weight-history
    /// rings, QR recursion state and beamform FIFOs all migrate exactly
    /// across the epoch boundary. Degrading hard weight re-partitions
    /// its bins 7+7 -> 5+5+4: the recursion leaves lane layout as
    /// [`ResidentState::hard_r`] and re-enters it in different groups.
    /// Degrading easy weight re-partitions 18 -> 9+9, which cuts the lane
    /// group of bins 8..12 in two: the history rings leave lane layout as
    /// [`ResidentState::easy_history`] and re-enter it regrouped.
    #[test]
    fn rebalance_mid_campaign_is_bit_identical() {
        for task in [EASY_WT, HARD_WT] {
            rebalance_toward_is_bit_identical(task);
        }
    }

    fn rebalance_toward_is_bit_identical(task: usize) {
        let params = StapParams::reduced();
        let sc = Scenario::reduced(13);
        let per_stream = 12usize;
        let cubes: Vec<CCube> = sc.stream(per_stream).map(|(_, _, c)| c).collect();

        let run_straight = |cubes: &[CCube]| -> Vec<Vec<Detection>> {
            let res = ResidentStap::for_scenario(params.clone(), NodeAssignment::tiny(), &sc)
                .with_max_group(1);
            res.reserve(1, 2);
            let (jobs_tx, jobs_rx) = mpsc::sync_channel(2);
            let (done_tx, done_rx) = mpsc::channel();
            let pool = res.pools().cx.clone();
            let n = cubes.len();
            let feed = cubes.to_vec();
            let feeder = std::thread::spawn(move || {
                for (scpi, c) in feed.iter().enumerate() {
                    jobs_tx
                        .send(vec![CpiJob {
                            stream: 0,
                            scpi: scpi as u32,
                            cube: pool.take_cube(c.shape(), |i, j, k| c[(i, j, k)]),
                            submitted: Instant::now(),
                        }])
                        .unwrap();
                }
            });
            res.serve(jobs_rx, done_tx).unwrap();
            feeder.join().unwrap();
            let mut got = vec![Vec::new(); n];
            while let Ok(d) = done_rx.recv() {
                got[d.scpi as usize] = d.detections;
            }
            got
        };
        let want = run_straight(&cubes);

        // Elastic run: same slot structure, but a Degraded{task} event
        // lands mid-campaign (after slot 6 is submitted), forcing a rank
        // shift toward that task at the next slot boundary.
        let el = ElasticStap::for_scenario(params.clone(), NodeAssignment::tiny(), &sc)
            .with_max_group(1)
            .with_reserve_hints(1, 2)
            .with_policy(RuntimePolicy {
                rebalance: true,
                rebalance_cooldown: 1,
                ..RuntimePolicy::default()
            });
        let (jobs_tx, jobs_rx) = mpsc::sync_channel(2);
        let (done_tx, done_rx) = mpsc::channel();
        let (ctl_tx, ctl_rx) = mpsc::channel();
        let pool = el.pools().cx.clone();
        let cubes2 = cubes.clone();
        let feeder = std::thread::spawn(move || {
            for (scpi, c) in cubes2.iter().enumerate() {
                if scpi == 6 {
                    ctl_tx.send(Rebalance::Degraded { task }).unwrap();
                }
                jobs_tx
                    .send(vec![CpiJob {
                        stream: 0,
                        scpi: scpi as u32,
                        cube: pool.take_cube(c.shape(), |i, j, k| c[(i, j, k)]),
                        submitted: Instant::now(),
                    }])
                    .unwrap();
                // Keep the trigger mid-campaign: the bounded channel
                // already throttles the feeder to the engine's pace.
            }
        });
        let summary = el.serve(jobs_rx, done_tx, ctl_rx).unwrap();
        feeder.join().unwrap();

        assert_eq!(summary.cpis as usize, per_stream);
        assert_eq!(
            summary.rebalances, 1,
            "the degradation must force one shift"
        );
        assert_eq!(summary.epochs.len(), 2);
        assert_eq!(
            summary.final_assign.0[task],
            NodeAssignment::tiny().0[task] + 1,
            "the degraded task gained a rank: {:?}",
            summary.final_assign
        );
        assert_eq!(summary.final_assign.total(), NodeAssignment::tiny().total());
        assert!(summary.epochs[0].summary.slots >= 1);
        assert!(summary.epochs[1].summary.slots >= 1);

        let mut got = vec![Vec::new(); per_stream];
        while let Ok(d) = done_rx.recv() {
            got[d.scpi as usize] = d.detections;
        }
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

    /// With no triggers an elastic session is one epoch and applies no
    /// shifts — pure pass-through over the resident engine.
    #[test]
    fn quiet_session_is_single_epoch() {
        let params = StapParams::reduced();
        let sc = Scenario::reduced(5);
        let cubes: Vec<CCube> = sc.stream(3).map(|(_, _, c)| c).collect();
        let el = ElasticStap::for_scenario(params, NodeAssignment::tiny(), &sc)
            .with_max_group(1)
            .with_policy(RuntimePolicy {
                rebalance: true,
                rebalance_cooldown: 1,
                ..RuntimePolicy::default()
            });
        let (jobs_tx, jobs_rx) = mpsc::sync_channel(2);
        let (done_tx, done_rx) = mpsc::channel();
        let (_ctl_tx, ctl_rx) = mpsc::channel::<Rebalance>();
        let pool = el.pools().cx.clone();
        let feeder = std::thread::spawn(move || {
            for (scpi, c) in cubes.iter().enumerate() {
                jobs_tx
                    .send(vec![CpiJob {
                        stream: 0,
                        scpi: scpi as u32,
                        cube: pool.take_cube(c.shape(), |i, j, k| c[(i, j, k)]),
                        submitted: Instant::now(),
                    }])
                    .unwrap();
            }
        });
        let summary = el.serve(jobs_rx, done_tx, ctl_rx).unwrap();
        feeder.join().unwrap();
        drop(done_rx);
        assert_eq!(summary.cpis, 3);
        assert_eq!(summary.rebalances, 0);
        assert_eq!(summary.epochs.len(), 1);
        assert_eq!(summary.final_assign, NodeAssignment::tiny());
        let m = summary.merged_resident();
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
