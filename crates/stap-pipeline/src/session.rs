//! One session: the epoch loop behind the driver's feed.
//!
//! A [`Session`] runs the caller's [`ParallelStap`] as a sequence of
//! worlds — **epochs** — over the caller's [`Feed`]: on the driver's
//! own thread it wraps that feed for every world, passing slot groups
//! in and completions out. A world ends when the wrapper reports
//! `Disconnected` at a slot boundary: the caller's feed ended, a
//! **checkpoint** (every [`SupervisorConfig::checkpoint_every`] groups,
//! replays included), or a [`Rebalance`] trigger its [`RebalancePolicy`]
//! admits. The world drains, exports its cross-slot state
//! ([`ResidentState`], keyed by global bins), and the session launches
//! the next world from it — after a trigger under the assignment
//! [`plan_rebalance`] shifted, the paper's move of nodes to the
//! bottleneck (Tables 9-10).
//!
//! With supervision on, the wrapper keeps a pool-backed copy of every
//! group it feeds until the epoch banks. A failed world shows up as its
//! launch returning `Err`: the session relaunches from the banked state
//! and replays the retained groups in order, so detections stay
//! bit-identical, and drops completions the failed world had delivered.
//! Groups of streams the feed reports retired ([`Feed::is_retired`])
//! meanwhile are not replayed; each such CPI goes to [`Feed::lost`].
//!
//! A traced runner's worlds share one trace epoch, taken when the
//! session starts; the summary keeps every rank's report and comm
//! events.
//!
//! The session spawns no thread and knows nothing of the data.
//! [`Session::default`] triggers nothing: one epoch, no retained copies,
//! no export — a batch ([`ParallelStap::try_run`]) and
//! [`ParallelStap::serve`].

use crate::assignment::NodeAssignment;
use crate::elastic::{plan_rebalance, task_capacity, Rebalance, RebalancePolicy};
use crate::msg::SubCpi;
use crate::resident::{CpiJob, Feed, ResidentState, ResidentSummary};
use crate::runner::{ParallelStap, PipelineError, RankResult};
use stap_core::Detection;
use stap_cube::SharedBufferPool;
use stap_math::Cx;
use std::collections::HashSet;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::Instant;

/// Supervision knobs.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Slots per checkpoint epoch: the engine drains and exports its
    /// cross-slot state every this-many dispatched slot groups. Also
    /// the replay/lost-CPI exposure bound (in slots).
    pub checkpoint_every: u64,
    /// Recoveries before the session gives up and surfaces the engine
    /// error (a world that keeps dying is not a blip).
    pub max_recoveries: u32,
    /// Deterministic fault plans, indexed by world launch: launch 0
    /// (the first epoch) runs under `plans[0]`, the world launched for
    /// epoch N under `plans[N]`. Launches past the end run fault-free.
    /// Epoch counters inside a plan are slot indices *local to that
    /// launch*. The chaos harness uses this to schedule a panic in
    /// launch 0 and let the recovery world run clean.
    pub plans: Vec<stap_mp::FaultPlan>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            checkpoint_every: 8,
            max_recoveries: 2,
            plans: Vec::new(),
        }
    }
}

/// One recovery event.
#[derive(Clone, Debug)]
pub struct Recovered {
    /// Which world launch failed (0 = the first).
    pub epoch: u32,
    /// Global slot-dispatch count when the failure was detected.
    pub at_slot: u64,
    /// Sub-CPIs that could not be replayed (their stream disconnected
    /// between dispatch and recovery). Bounded by
    /// `checkpoint_every * max_group`.
    pub lost_cpis: u64,
    /// The engine error that triggered recovery.
    pub error: String,
}

/// What may end an epoch before the feed ends, and what the session
/// keeps to recover.
#[derive(Default)]
pub struct Session {
    /// Checkpoint/restore: retain fed groups, bank state every
    /// `checkpoint_every` groups and recover a failed world. `None` = a
    /// failed world ends the session with its error.
    pub supervise: Option<SupervisorConfig>,
    /// Rank shifts: the policy that admits and plans them, and the
    /// channel their triggers arrive on. `None` = the assignment never
    /// changes.
    pub rebalance: Option<(RebalancePolicy, Receiver<Rebalance>)>,
    /// `(streams, queue_depth)` as given to [`ParallelStap::reserve`]:
    /// the session re-reserves the pools with them for a new assignment
    /// and for its retained copies.
    pub reserve: (usize, usize),
}

/// What a session reports after its feed ends.
#[derive(Clone, Debug)]
pub struct SessionSummary {
    /// Every clean epoch's summary merged: counters, elapsed and busy
    /// seconds sum, health merges, pool stats are the last epoch's (the
    /// pools are shared, so they span the session). Replayed work
    /// counts once, in the epoch that banked it.
    pub resident: ResidentSummary,
    /// The assignment the last epoch ran under.
    pub assign: NodeAssignment,
    /// Rank shifts applied, each as the number of groups pulled from
    /// the feed before it (a trigger whose plan found no
    /// beneficial or feasible shift ends an epoch but is not listed).
    pub rebalances: Vec<u64>,
    /// Epochs that drained and banked their state (the final drain
    /// included); 0 when nothing can end an epoch early, because then
    /// nothing is exported.
    pub checkpoints: u64,
    /// Every recovery, in order.
    pub recoveries: Vec<Recovered>,
    /// Sub-CPIs lost across all recoveries.
    pub lost_cpis: u64,
    /// Every rank's result from every clean epoch, in order (slot
    /// indices restart at 0 in each epoch; the state has moved on).
    pub ranks: Vec<RankResult>,
    /// A traced runner's comm events from every clean epoch.
    pub comm: Vec<stap_mp::RankTrace>,
    /// What every span and comm event is measured from (traced only).
    pub trace_epoch: Option<Instant>,
}

/// Pool-backed copies of a slot group's jobs.
fn copy_of(jobs: &[CpiJob], pool: &SharedBufferPool<Cx>) -> Vec<CpiJob> {
    (jobs.iter())
        .map(|j| CpiJob {
            cube: pool.take_cube_from(&j.cube),
            ..*j
        })
        .collect()
}

/// The driver's feed for every epoch of one session: the caller's feed
/// behind checkpoints, triggers and replay.
struct SessionFeed<'a, F> {
    inner: &'a mut F,
    rebalance: Option<(RebalancePolicy, Receiver<Rebalance>)>,
    /// Recovery only: the pool retained copies are drawn from.
    pool: Option<SharedBufferPool<Cx>>,
    checkpoint_every: u64,
    /// Groups fed since the last banked epoch, oldest first.
    retained: Vec<Vec<CpiJob>>,
    /// How many of `retained` this epoch has fed.
    replayed: usize,
    /// Completions delivered since the last banked epoch.
    delivered: HashSet<(u16, u32)>,
    /// Groups fed this epoch, replays included.
    fed: u64,
    /// Completions this epoch, replays included.
    completed: u64,
    /// The caller's feed has not ended.
    open: bool,
    /// Groups pulled from the caller's feed over the session.
    pulled: u64,
    /// Groups pulled since the last applied shift (cooldown).
    since_shift: u64,
    scheduled_at: Option<u64>,
    /// An admitted trigger, which ends the epoch: `Some(forced task)`.
    trigger: Option<Option<usize>>,
}

impl<F: Feed> SessionFeed<'_, F> {
    /// Drains the control channel: the last degradation wins, a
    /// schedule persists until it fires, and a scheduled trigger inside
    /// the cooldown is discarded.
    fn poll_control(&mut self) {
        let Some((policy, control)) = &self.rebalance else {
            return;
        };
        while let Ok(r) = control.try_recv() {
            match r {
                Rebalance::At(slot) => self.scheduled_at = Some(slot),
                Rebalance::Degraded { task } => self.trigger = Some(Some(task.min(6))),
            }
        }
        if self.trigger.is_none() && self.scheduled_at.is_some_and(|at| self.pulled >= at) {
            self.trigger = Some(None);
            self.scheduled_at = None;
        }
        if self.trigger == Some(None) && self.since_shift < policy.cooldown as u64 {
            self.trigger = None;
        }
    }

    /// The epoch banked: nothing retained can need replay any more.
    fn bank(&mut self) {
        if let Some(pool) = &self.pool {
            for j in self.retained.drain(..).flatten() {
                pool.recycle(j.cube);
            }
        }
        self.delivered.clear();
    }

    /// Strips retired streams out of the replay: grouping invariance
    /// makes dropping one stream's subs safe for every other stream's
    /// bit-identity. Returns the CPIs lost.
    fn strip_retired(&mut self) -> u64 {
        let Some(pool) = &self.pool else {
            return 0;
        };
        let mut lost = 0;
        for group in &mut self.retained {
            let (gone, kept): (Vec<CpiJob>, Vec<CpiJob>) =
                (std::mem::take(group).into_iter()).partition(|j| self.inner.is_retired(j.stream));
            *group = kept;
            for j in gone {
                self.inner.lost(j.stream);
                pool.recycle(j.cube);
                lost += 1;
            }
        }
        self.retained.retain(|g| !g.is_empty());
        lost
    }
}

impl<F: Feed> Feed for SessionFeed<'_, F> {
    fn next(&mut self, wait: bool) -> Result<Vec<CpiJob>, TryRecvError> {
        // Replay first, feeding copies so a second failure can replay
        // again.
        if let Some(group) = self.retained.get(self.replayed) {
            let pool = (self.pool.as_ref()).expect("only a recovering session retains");
            self.replayed += 1;
            self.fed += 1;
            return Ok(copy_of(group, pool));
        }
        if !self.open || self.fed >= self.checkpoint_every || self.trigger.is_some() {
            return Err(TryRecvError::Disconnected);
        }
        match self.inner.next(wait) {
            Ok(jobs) if !jobs.is_empty() => {
                if let Some(pool) = &self.pool {
                    self.retained.push(copy_of(&jobs, pool));
                    self.replayed = self.retained.len();
                }
                self.fed += 1;
                self.pulled += 1;
                self.since_shift += 1;
                self.poll_control();
                Ok(jobs)
            }
            Err(TryRecvError::Disconnected) => {
                self.open = false;
                Err(TryRecvError::Disconnected)
            }
            other => other,
        }
    }

    fn complete(
        &mut self,
        sub: SubCpi,
        latency: f64,
        detections: Option<Vec<Detection>>,
        degraded: bool,
    ) {
        self.completed += 1;
        if self.pool.is_some() && !self.delivered.insert((sub.stream, sub.scpi)) {
            return; // a failed world delivered it before dying
        }
        self.inner.complete(sub, latency, detections, degraded);
    }

    fn slots(&self) -> Option<usize> {
        // Replays first, then what the caller's feed has left.
        (self.inner.slots()).map(|n| n + self.retained.len() - self.replayed)
    }
}

impl Session {
    /// Runs `runner` in epochs over `feed` until it ends and the last
    /// epoch drains. Every epoch launches from `runner` (window, group
    /// bound, policy, screen, tracing, pools); only the
    /// assignment, the carried state and the fault plan change between
    /// launches. Returns the merged summary, or a world's error when
    /// recovery is off or out of budget.
    pub fn run(
        self,
        runner: &ParallelStap,
        feed: &mut (impl Feed + Send),
    ) -> Result<SessionSummary, PipelineError> {
        let Session {
            supervise,
            rebalance,
            reserve: (streams, queue_depth),
        } = self;
        // Export only when something can end an epoch at a boundary.
        let exports = supervise.is_some() || rebalance.is_some();
        let mut feed = SessionFeed {
            inner: feed,
            rebalance,
            pool: supervise.as_ref().map(|_| runner.pools().cx.clone()),
            checkpoint_every: supervise
                .as_ref()
                .map_or(u64::MAX, |s| s.checkpoint_every.max(1)),
            retained: Vec::new(),
            replayed: 0,
            delivered: HashSet::new(),
            fed: 0,
            completed: 0,
            open: true,
            pulled: 0,
            since_shift: u64::MAX / 2, // the first trigger is never cooling down
            scheduled_at: None,
            trigger: None,
        };
        // Retained copies and replay copies live beside the in-flight
        // cubes: reserve them on top of the raw-cube count.
        let retained = supervise.as_ref().map_or(0, |s| {
            (s.checkpoint_every.max(1) as usize + runner.window) * runner.max_group
        });
        // Every span counts from the session's start (traced, its epoch).
        let origin = Instant::now();
        let trace_epoch = runner.tracing.then_some(origin);
        let mut out = SessionSummary {
            resident: ResidentSummary::default(),
            assign: runner.assign,
            rebalances: Vec::new(),
            checkpoints: 0,
            recoveries: Vec::new(),
            lost_cpis: 0,
            ranks: Vec::new(),
            comm: Vec::new(),
            trace_epoch,
        };
        if retained > 0 {
            runner.reserve_under(&out.assign, streams, queue_depth, retained);
        }
        let caps = task_capacity(&runner.params);
        let mut carry = ResidentState::default();
        for launch in 0u32.. {
            let faults = match &supervise {
                Some(s) => s.plans.get(launch as usize),
                None => runner.faults.as_ref().filter(|_| launch == 0),
            };
            feed.fed = 0;
            feed.completed = 0;
            feed.replayed = 0;
            let t0 = Instant::now();
            match runner.launch(out.assign, faults, &carry, exports, origin, &mut feed) {
                Ok((mut ranks, comm)) => {
                    let m = &mut out.resident;
                    m.cpis += feed.completed;
                    m.slots += feed.fed;
                    m.elapsed += t0.elapsed().as_secs_f64();
                    let mut busy = [0.0; 7];
                    carry = ResidentState::default();
                    for r in &mut ranks {
                        match r {
                            RankResult::Task { task, report, .. } => {
                                m.health.merge(&report.health);
                                busy[*task] += report.busy;
                                carry.merge(std::mem::take(&mut report.state));
                            }
                            RankResult::Driver(d) => m.health.merge(&d.health),
                        }
                    }
                    for (a, b) in m.busy.iter_mut().zip(busy) {
                        *a += b;
                    }
                    m.pool_cx = runner.pools().cx.stats();
                    m.pool_real = runner.pools().real.stats();
                    out.ranks.append(&mut ranks);
                    out.comm.extend(comm);
                    out.checkpoints += exports as u64;
                    feed.bank();
                    if !feed.open {
                        break;
                    }
                    let Some(forced) = feed.trigger.take() else {
                        continue;
                    };
                    let (policy, _) =
                        (feed.rebalance.as_ref()).expect("only a rebalancing session triggers");
                    if let Some(next) =
                        plan_rebalance(&busy, out.assign, forced, policy.imbalance, &caps)
                    {
                        out.assign = next;
                        out.rebalances.push(feed.pulled);
                        feed.since_shift = 0;
                        runner.reserve_under(&next, streams, queue_depth, retained);
                    }
                }
                Err(error) => {
                    let budget = supervise.as_ref().map_or(0, |s| s.max_recoveries as usize);
                    if out.recoveries.len() >= budget {
                        feed.bank();
                        return Err(error);
                    }
                    let lost = feed.strip_retired();
                    out.lost_cpis += lost;
                    out.recoveries.push(Recovered {
                        epoch: launch,
                        at_slot: feed.pulled,
                        lost_cpis: lost,
                        error: error.to_string(),
                    });
                    if !feed.open && feed.retained.is_empty() {
                        break;
                    }
                }
            }
        }
        Ok(out)
    }
}
