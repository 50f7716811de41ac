//! One serve session: the epoch loop behind the driver's feed.
//!
//! A [`Session`] runs the caller's [`ResidentStap`] as a sequence of
//! worlds — **epochs** — and is the driver's `Feed` for all of them, on
//! the driver's own thread: it pulls slot groups from the jobs channel
//! and hands completions to `done`. A world ends when the feed reports
//! `Disconnected` at a slot boundary: the jobs channel drained, a
//! **checkpoint** (every [`SupervisorConfig::checkpoint_every`] groups,
//! replays included), or a [`Rebalance`] trigger the policy admits. The
//! world drains, exports its cross-slot state ([`ResidentState`], keyed
//! by global bins), and the session launches the next world from it —
//! after a trigger under the assignment [`plan_rebalance`] shifted, the
//! paper's move of nodes to the bottleneck (Tables 9-10).
//!
//! With supervision on, the feed keeps a pool-backed copy of every group
//! it feeds until the epoch banks. A failed world shows up as its launch
//! returning `Err`: the session relaunches from the banked state and
//! replays the retained groups in order, so detections stay
//! bit-identical, and drops completions the failed world had delivered.
//! Groups of streams retired meanwhile are not replayed; each such CPI
//! is reported through [`SupervisorHooks::on_lost`].
//!
//! The session spawns no thread and knows nothing of the data.
//! [`Session::default`] triggers nothing: one epoch, no retained copies,
//! no export — [`ResidentStap::serve`].

use crate::assignment::NodeAssignment;
use crate::elastic::{plan_rebalance, task_capacity, Rebalance};
use crate::fault::RuntimePolicy;
use crate::msg::SubCpi;
use crate::resident::{CpiDone, CpiJob, Feed, ResidentStap, ResidentState, ResidentSummary};
use crate::runner::PipelineError;
use stap_core::Detection;
use stap_cube::SharedBufferPool;
use stap_math::Cx;
use std::collections::HashSet;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};

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

/// Callbacks wiring recovery to the admission layer without a
/// dependency cycle.
pub struct SupervisorHooks {
    /// True when the stream's id is retired (disconnected): its replay
    /// subs are dropped as lost instead of re-submitted, because a
    /// retired stream's sequence must not advance.
    pub is_retired: Box<dyn Fn(u16) -> bool + Send>,
    /// Invoked once per lost sub-CPI with the owning stream, so the
    /// health ledger can count it.
    pub on_lost: Box<dyn Fn(u16) + Send>,
}

impl Default for SupervisorHooks {
    fn default() -> Self {
        SupervisorHooks {
            is_retired: Box::new(|_| false),
            on_lost: Box::new(|_| {}),
        }
    }
}

/// What may end an epoch before the jobs channel drains, and what the
/// session keeps to recover.
#[derive(Default)]
pub struct Session {
    /// Checkpoint/restore: retain fed groups, bank state every
    /// `checkpoint_every` groups and recover a failed world. `None` = a
    /// failed world ends the session with its error.
    pub supervise: Option<SupervisorConfig>,
    /// The admission layer's view of retired streams, for replays.
    pub hooks: SupervisorHooks,
    /// Rebalance triggers (`None` = the assignment never changes).
    pub control: Option<Receiver<Rebalance>>,
    /// Its rebalance fields admit and plan the shifts: `rebalance`,
    /// `rebalance_cooldown`, `rebalance_imbalance`.
    pub policy: RuntimePolicy,
    /// `(streams, queue_depth)` as given to [`ResidentStap::reserve`]:
    /// the session re-reserves the pools with them for a new assignment
    /// and for its retained copies.
    pub reserve: (usize, usize),
}

/// What a session reports after the jobs channel drains.
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
    /// the jobs channel before it (a trigger whose plan found no
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

/// The driver's feed for every epoch of one session.
struct SessionFeed {
    jobs: Receiver<Vec<CpiJob>>,
    done: Sender<CpiDone>,
    control: Option<Receiver<Rebalance>>,
    policy: RuntimePolicy,
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
    /// The jobs channel has not disconnected.
    open: bool,
    /// Groups pulled from the jobs channel over the session.
    pulled: u64,
    /// Groups pulled since the last applied shift (cooldown).
    since_shift: u64,
    scheduled_at: Option<u64>,
    /// An admitted trigger, which ends the epoch: `Some(forced task)`.
    trigger: Option<Option<usize>>,
}

impl SessionFeed {
    /// Drains the control channel: the last imperative trigger wins, a
    /// schedule persists until it fires, and what the policy does not
    /// admit is discarded.
    fn poll_control(&mut self) {
        let Some(control) = &self.control else {
            return;
        };
        while let Ok(r) = control.try_recv() {
            match r {
                Rebalance::Now => self.trigger = Some(None),
                Rebalance::At(slot) => self.scheduled_at = Some(slot),
                Rebalance::Degraded { task } => self.trigger = Some(Some(task.min(6))),
            }
        }
        if self.trigger.is_none() && self.scheduled_at.is_some_and(|at| self.pulled >= at) {
            self.trigger = Some(None);
            self.scheduled_at = None;
        }
        if let Some(forced) = self.trigger {
            let cooled = self.since_shift >= self.policy.rebalance_cooldown as u64;
            if !(self.policy.rebalance && (forced.is_some() || cooled)) {
                self.trigger = None;
            }
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
    fn strip_retired(&mut self, hooks: &SupervisorHooks) -> u64 {
        let Some(pool) = &self.pool else {
            return 0;
        };
        let mut lost = 0;
        for group in &mut self.retained {
            let (gone, kept): (Vec<CpiJob>, Vec<CpiJob>) =
                (std::mem::take(group).into_iter()).partition(|j| (hooks.is_retired)(j.stream));
            *group = kept;
            for j in gone {
                (hooks.on_lost)(j.stream);
                pool.recycle(j.cube);
                lost += 1;
            }
        }
        self.retained.retain(|g| !g.is_empty());
        lost
    }
}

impl Feed for SessionFeed {
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
        let got = if wait {
            self.jobs.recv().map_err(|_| TryRecvError::Disconnected)
        } else {
            self.jobs.try_recv()
        };
        match got {
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
        if self.pool.is_some() && !self.delivered.insert((sub.stream, sub.scpi)) {
            return; // a failed world delivered it before dying
        }
        // A closed `done` receiver is fine: keep draining.
        let _ = self.done.send(CpiDone {
            stream: sub.stream,
            scpi: sub.scpi,
            degraded: degraded || detections.is_none(),
            detections: detections.unwrap_or_default(),
            latency,
        });
    }
}

impl Session {
    /// Runs `resident` in epochs until `jobs` disconnects and the last
    /// epoch drains; completions stream out on `done`. Every epoch
    /// launches from `resident` (window, group bound, mailbox mark,
    /// screen, pools); only the assignment, the carried state and the
    /// fault plan change between launches. Returns the merged summary,
    /// or a world's error when recovery is off or out of budget.
    pub fn run(
        self,
        resident: &ResidentStap,
        jobs: Receiver<Vec<CpiJob>>,
        done: Sender<CpiDone>,
    ) -> Result<SessionSummary, PipelineError> {
        let Session {
            supervise,
            hooks,
            control,
            policy,
            reserve: (streams, queue_depth),
        } = self;
        let control = control.filter(|_| policy.rebalance);
        // Export only when something can end an epoch at a boundary.
        let exports = supervise.is_some() || control.is_some();
        let mut feed = SessionFeed {
            jobs,
            done,
            control,
            policy,
            pool: supervise.as_ref().map(|_| resident.pools().cx.clone()),
            checkpoint_every: supervise
                .as_ref()
                .map_or(u64::MAX, |s| s.checkpoint_every.max(1)),
            retained: Vec::new(),
            replayed: 0,
            delivered: HashSet::new(),
            fed: 0,
            open: true,
            pulled: 0,
            since_shift: u64::MAX / 2, // the first trigger is never cooling down
            scheduled_at: None,
            trigger: None,
        };
        // Retained copies and replay copies live beside the in-flight
        // cubes: reserve them on top of the raw-cube count.
        let retained = supervise.as_ref().map_or(0, |s| {
            (s.checkpoint_every.max(1) as usize + resident.window) * resident.max_group
        });
        let mut out = SessionSummary {
            resident: ResidentSummary::default(),
            assign: resident.assign,
            rebalances: Vec::new(),
            checkpoints: 0,
            recoveries: Vec::new(),
            lost_cpis: 0,
        };
        if retained > 0 {
            resident.reserve_under(&out.assign, streams, queue_depth, retained);
        }
        let caps = task_capacity(&resident.params);
        let mut carry = ResidentState::default();
        for launch in 0u32.. {
            let faults = match &supervise {
                Some(s) => s.plans.get(launch as usize),
                None => resident.faults.as_ref().filter(|_| launch == 0),
            };
            feed.fed = 0;
            feed.replayed = 0;
            match resident.launch(out.assign, faults, &carry, exports, &mut feed) {
                Ok((summary, state)) => {
                    let m = &mut out.resident;
                    m.cpis += summary.cpis;
                    m.slots += summary.slots;
                    m.elapsed += summary.elapsed;
                    m.health.merge(&summary.health);
                    for (a, b) in m.busy.iter_mut().zip(summary.busy) {
                        *a += b;
                    }
                    m.pool_cx = summary.pool_cx;
                    m.pool_real = summary.pool_real;
                    out.checkpoints += exports as u64;
                    carry = state;
                    feed.bank();
                    if !feed.open {
                        break;
                    }
                    let Some(forced) = feed.trigger.take() else {
                        continue;
                    };
                    let imbalance = policy.rebalance_imbalance;
                    if let Some(next) =
                        plan_rebalance(&summary.busy, out.assign, forced, imbalance, &caps)
                    {
                        out.assign = next;
                        out.rebalances.push(feed.pulled);
                        feed.since_shift = 0;
                        resident.reserve_under(&next, streams, queue_depth, retained);
                    }
                }
                Err(error) => {
                    let budget = supervise.as_ref().map_or(0, |s| s.max_recoveries as usize);
                    if out.recoveries.len() >= budget {
                        feed.bank();
                        return Err(error);
                    }
                    let lost = feed.strip_retired(&hooks);
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
