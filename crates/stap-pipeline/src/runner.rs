//! The one runner: [`ParallelStap`] holds the pipeline's configuration
//! and its buffer pools, builds the world of the engine's seven task
//! loops plus driver, and runs every rank through one per-rank body. A
//! batch run is a [`Session`] whose driver reads a CPI list, folded by
//! [`ParallelStap::assemble`]; a served run is a session over any other
//! [`Feed`]; a cluster child process runs one rank of a batch
//! ([`ParallelStap::run_rank`]).

use crate::assignment::{NodeAssignment, Partitions};
use crate::fault::{nan_corruptor, RuntimePolicy};
use crate::metrics::{CpiOutcome, PipelineHealth, PipelineTimings, TaskTiming};
use crate::msg::{Msg, SubCpi};
use crate::resident::{
    drive, run_task, ChannelFeed, CpiDone, CpiJob, Feed, ResCtx, ResidentState, ResidentSummary,
};
use crate::schedule::Schedule;
use crate::session::Session;
use crate::tasks::PipelinePools;
use stap_core::{Detection, StapParams};
use stap_cube::{CCube, SharedBufferPool};
use stap_math::{CMat, Cx};
use stap_mp::{Comm, FaultPlan, RankTrace, World, WorldError};
use stap_radar::Scenario;
use std::fmt;
use std::sync::atomic::AtomicUsize;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Mutex;
use std::time::Instant;

/// Why a pipeline run could not produce output.
#[derive(Debug)]
pub enum PipelineError {
    /// The injected input was rejected before any rank was spawned
    /// (wrong cube shape, empty CPI list, a partition the schedule
    /// rejects).
    InvalidInput(String),
    /// A rank panicked and the failure was joined back (see
    /// [`stap_mp::WorldError`]).
    World(WorldError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidInput(m) => write!(f, "invalid pipeline input: {m}"),
            PipelineError::World(e) => write!(f, "pipeline {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<WorldError> for PipelineError {
    fn from(e: WorldError) -> Self {
        PipelineError::World(e)
    }
}

/// What a pipeline run returns.
#[derive(Debug)]
pub struct PipelineOutput {
    /// Detections per CPI, merged across CFAR nodes and sorted
    /// (bin, beam, range).
    pub detections: Vec<Vec<Detection>>,
    /// Per-task timings averaged over the measured CPIs plus measured
    /// pipeline rates. On a host with fewer cores than ranks these are
    /// functional timings, not Paragon performance — `stap-sim` models
    /// the latter.
    pub timings: PipelineTimings,
    /// Unified measured timeline (task spans + comm events + CPI
    /// marks). `None` unless the run was built with
    /// [`ParallelStap::with_tracing`].
    pub trace: Option<crate::trace::PipelineTrace>,
}

/// What a task node's loop hands back.
#[derive(Clone, Debug, Default)]
pub struct TaskReport {
    /// Per-slot phase timings (kept for a CPI list only).
    pub timings: Vec<TaskTiming>,
    /// This node's health counters (all zero without faults).
    pub health: PipelineHealth,
    /// Per-slot spans (empty unless the run was traced; `Vec::new` does
    /// not allocate, so the untraced path stays allocation-free).
    pub spans: Vec<crate::trace::TaskSpan>,
    /// Every slot's [`TaskTiming::total_without_idle`], summed.
    pub busy: f64,
    /// The node's exported cross-slot state (empty unless exported).
    pub state: ResidentState,
}

/// What one rank contributes to a run (in-process thread or cluster
/// child process), folded into a [`PipelineOutput`] by
/// [`ParallelStap::assemble`].
#[derive(Clone, Debug)]
pub enum RankResult {
    /// A task node's report.
    Task {
        /// Task index (0..7, paper order).
        task: usize,
        /// Local node index within the task.
        node: usize,
        /// The node's report.
        report: TaskReport,
    },
    /// The driver rank's collected output.
    Driver(DriverResult),
}

/// Everything the driver rank collects: its health counters and, over a
/// CPI list (empty otherwise), merged detections plus the raw per-CPI
/// timestamps the aggregation turns into throughput and latency.
#[derive(Clone, Debug, Default)]
pub struct DriverResult {
    /// Detections per CPI, merged across CFAR nodes and sorted.
    pub detections: Vec<Vec<Detection>>,
    /// Injection time of each CPI, seconds since the driver epoch.
    pub inject_t: Vec<f64>,
    /// Completion time of each CPI, seconds since the driver epoch.
    pub complete_t: Vec<f64>,
    /// Per-CPI outcome classification (fault-tolerant runs).
    pub outcomes: Vec<CpiOutcome>,
    /// Health counters observed at the driver.
    pub health: PipelineHealth,
}

/// The parallel pipelined STAP system: the one runner, batch and served.
pub struct ParallelStap {
    /// Algorithm parameters.
    pub params: StapParams,
    /// Node assignment.
    pub assign: NodeAssignment,
    /// Steering matrices per transmit-beam position.
    pub steering: Vec<CMat>,
    /// Slots the driver keeps in flight (pipeline window).
    pub window: usize,
    /// Leading CPIs excluded from timing averages (paper: first 3).
    pub warmup: usize,
    /// Trailing CPIs excluded from timing averages (paper: last 2).
    pub cooldown: usize,
    /// Maximum CPIs coalesced into one slot.
    pub max_group: usize,
    /// Soft mailbox high-water mark installed in every rank's comm
    /// (0 = disabled); crossings are counted in the health counters.
    pub mailbox_high_water: usize,
    /// Fault-tolerance policy for the task loops. Defaults to off
    /// (zero-overhead blocking receives, bit-identical to the non-FT
    /// pipeline).
    pub policy: RuntimePolicy,
    /// Deterministic fault-injection plan for a session's first world
    /// (a supervised [`Session`] installs its per-launch plans instead).
    pub faults: Option<FaultPlan>,
    /// Screen CFAR power lanes for non-finite samples and flag the
    /// owning sub-CPI as degraded (costs one pass over each power
    /// block; off by default).
    pub screen: bool,
    /// Record task spans and comm events against one trace epoch per
    /// session. Off by default: the untraced path performs no clock reads
    /// or allocations beyond the existing per-slot timing.
    pub tracing: bool,
    pools: PipelinePools,
}

impl ParallelStap {
    /// Builds a runner from explicit steering matrices.
    pub fn new(params: StapParams, assign: NodeAssignment, steering: Vec<CMat>) -> Self {
        params.validate().expect("invalid parameters");
        assert!(!steering.is_empty(), "need at least one steering matrix");
        ParallelStap {
            params,
            assign,
            steering,
            window: 4,
            warmup: 3,
            cooldown: 2,
            max_group: 4,
            mailbox_high_water: 0,
            policy: RuntimePolicy::default(),
            faults: None,
            screen: false,
            tracing: false,
            pools: PipelinePools::default(),
        }
    }

    /// Enables span tracing: a batch's output carries a
    /// [`crate::trace::PipelineTrace`], a session's summary the spans and
    /// comm events themselves.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Sets the runtime degradation policy (deadlines, retry budget,
    /// payload screening).
    pub fn with_policy(mut self, policy: RuntimePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a deterministic fault-injection plan. The policy stays
    /// as it is: a plan that loses or stalls messages is survived only
    /// under `with_policy(RuntimePolicy::fault_tolerant())`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds a runner whose steering fans match
    /// [`stap_core::SequentialStap::for_scenario`].
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
        ParallelStap::new(params, assign, steering)
    }

    /// Sets the slot window (in-flight slots).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Sets the per-slot coalescing bound.
    pub fn with_max_group(mut self, max_group: usize) -> Self {
        self.max_group = max_group.max(1);
        self
    }

    /// Installs a soft mailbox high-water mark on every rank.
    pub fn with_mailbox_high_water(mut self, high_water: usize) -> Self {
        self.mailbox_high_water = high_water;
        self
    }

    /// Enables non-finite screening at the CFAR boundary with per-sub
    /// degraded attribution.
    pub fn with_screen(mut self, screen: bool) -> Self {
        self.screen = screen;
        self
    }

    /// The buffer pools every world of this runner shares; ingestion
    /// draws raw CPI cubes from `pools().cx`.
    pub fn pools(&self) -> &PipelinePools {
        &self.pools
    }

    /// Runs the pipeline over `cpis`, one CPI per slot, one OS thread
    /// per node plus a driver thread. Panics on invalid input or a rank
    /// failure; use [`ParallelStap::try_run`] for recoverable errors.
    pub fn run(&self, cpis: Vec<CCube>) -> PipelineOutput {
        self.try_run(cpis).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`ParallelStap::run`] but validates the input cubes before
    /// any rank is spawned and joins rank panics back as structured
    /// [`PipelineError`]s instead of panicking the caller: a one-epoch
    /// [`Session`] over the CPI list, folded by [`ParallelStap::assemble`].
    pub fn try_run(&self, cpis: Vec<CCube>) -> Result<PipelineOutput, PipelineError> {
        self.validate_input(&cpis)?;
        let mut list = CpiList::new(&cpis, &self.pools.cx, Instant::now());
        let summary = Session::default().run(self, &mut list)?;
        // CPI marks count from the trace epoch, as the spans do.
        let shift = (summary.trace_epoch).map_or(0.0, |e| e.duration_since(list.t0).as_secs_f64());
        for t in list.out.inject_t.iter_mut().chain(&mut list.out.complete_t) {
            *t -= shift;
        }
        let mut out = Some(list.out);
        let results = (summary.ranks.into_iter())
            .map(|r| match r {
                RankResult::Driver(d) => RankResult::Driver(DriverResult {
                    health: d.health,
                    ..out.take().expect("one driver rank")
                }),
                task => task,
            })
            .collect();
        Ok(self.assemble(cpis.len(), results, summary.comm, &self.pools))
    }

    /// Checks that `cpis` is non-empty and every cube matches the
    /// configured `[k_range, j_channels, n_pulses]` shape. `try_run`
    /// calls this before spawning; the cluster parent calls it before
    /// launching rank processes.
    pub fn validate_input(&self, cpis: &[CCube]) -> Result<(), PipelineError> {
        if cpis.is_empty() {
            return Err(PipelineError::InvalidInput(
                "need at least one CPI".to_string(),
            ));
        }
        let want = [
            self.params.k_range,
            self.params.j_channels,
            self.params.n_pulses,
        ];
        for (i, c) in cpis.iter().enumerate() {
            if c.shape() != want {
                return Err(PipelineError::InvalidInput(format!(
                    "CPI {i} cube has shape {:?}, but StapParams requires \
                     [k_range, j_channels, n_pulses] = {want:?}",
                    c.shape()
                )));
            }
        }
        Ok(())
    }

    /// Runs one world until the `jobs` channel disconnects and every
    /// in-flight slot has drained. Each received `Vec<CpiJob>` is one
    /// slot group (1..=`max_group` CPIs, distinct or repeated streams);
    /// results stream out on `done` as slots complete. This is a
    /// [`Session`] with no triggers over a [`ChannelFeed`]: one epoch,
    /// no retained copies, no state export.
    pub fn serve(
        &self,
        jobs: Receiver<Vec<CpiJob>>,
        done: Sender<CpiDone>,
    ) -> Result<ResidentSummary, PipelineError> {
        Session::default()
            .run(self, &mut ChannelFeed { jobs, done })
            .map(|summary| summary.resident)
    }

    /// Runs one rank of a batch over `cpis` on `comm` through the
    /// per-rank body every in-process rank runs, so a cluster child
    /// process (one rank on a wire-backed `Comm`) runs the identical
    /// code. `epoch` is the trace epoch installed on `comm`, if any. Every
    /// rank derives the same schedule from `parts`, and panics on one that
    /// does not cover its space.
    pub fn run_rank(
        &self,
        comm: &mut Comm<Msg>,
        cpis: &[CCube],
        parts: &Partitions,
        pools: &PipelinePools,
        epoch: Option<Instant>,
    ) -> RankResult {
        // Over a wire fabric, frames decode into `pools` and sent blocks
        // return to them, as between the local fabric's threads.
        comm.install_wire_pool(Box::new(pools.clone()));
        let mut list = CpiList::new(cpis, &pools.cx, epoch.unwrap_or_else(Instant::now));
        let (carry, slots) = (ResidentState::default(), list.slots());
        let schedule = Schedule::new(&self.params, &self.assign, parts.clone())
            .unwrap_or_else(|e| panic!("{e}"));
        let mut ctx = self.ctx(&self.assign, &schedule, pools, &carry, false, epoch, slots);
        // The driver of a cluster runs in another process, so no send of
        // it reaches this counter: every slot of the list counts as sent.
        ctx.dispatched = AtomicUsize::new(usize::MAX);
        match self.rank(&ctx, comm, || &mut list) {
            RankResult::Driver(d) => RankResult::Driver(DriverResult {
                health: d.health,
                ..list.out
            }),
            task => task,
        }
    }

    /// The one world builder: `assign` with `faults`, the stateful tasks
    /// starting from `carry`, the driver reading `feed`, under this
    /// runner's settings and, traced, the session's `epoch`. Returns every
    /// rank's result (with its state when `export` is set) and comm
    /// events.
    pub(crate) fn launch<F: Feed + Send>(
        &self,
        assign: NodeAssignment,
        faults: Option<&FaultPlan>,
        carry: &ResidentState,
        export: bool,
        epoch: Option<Instant>,
        feed: &mut F,
    ) -> Result<(Vec<RankResult>, Vec<RankTrace>), PipelineError> {
        let parts = Partitions::new(&self.params, &assign);
        let schedule =
            Schedule::new(&self.params, &assign, parts).map_err(PipelineError::InvalidInput)?;
        let mut world: World<Msg> = World::new(assign.world_size());
        if self.mailbox_high_water > 0 {
            world = world.with_mailbox_high_water(self.mailbox_high_water);
        }
        if let Some(plan) = faults.filter(|plan| !plan.is_empty()) {
            world = world
                .with_faults(plan.clone())
                .with_corruptor(nan_corruptor());
        }
        let sink = stap_mp::TraceSink::new();
        if let Some(e) = epoch {
            world = world.with_tracing(e, &sink, crate::msg::wire_bytes);
        }
        let slots = feed.slots();
        let ctx = self.ctx(&assign, &schedule, &self.pools, carry, export, epoch, slots);
        // The SPMD closure is shared by reference across ranks, so the
        // driver rank takes the feed out of a mutex (it runs exactly once).
        let feed = Mutex::new(Some(feed));
        let ranks = world.try_run_collect(|mut comm| {
            self.rank(&ctx, &mut comm, || {
                (feed.lock().expect("held only to take the feed"))
                    .take()
                    .expect("driver rank runs once")
            })
        })?;
        Ok((ranks, sink.take()))
    }

    /// What every rank of one world shares.
    #[allow(clippy::too_many_arguments)]
    fn ctx<'a>(
        &'a self,
        assign: &'a NodeAssignment,
        schedule: &'a Schedule,
        pools: &'a PipelinePools,
        carry: &'a ResidentState,
        export: bool,
        epoch: Option<Instant>,
        slots: Option<usize>,
    ) -> ResCtx<'a> {
        ResCtx {
            params: &self.params,
            assign,
            parts: schedule.parts(),
            schedule,
            steering: &self.steering,
            pools,
            max_group: self.max_group,
            screen: self.screen,
            carry,
            export,
            policy: &self.policy,
            epoch,
            slots,
            // The driver publishes each slot as it sends it.
            dispatched: AtomicUsize::new(0),
        }
    }

    /// The one per-rank body: a task rank runs its node's loop, the
    /// driver rank drives the feed `feed` hands it.
    fn rank<'f, F: Feed + 'f>(
        &self,
        ctx: &ResCtx,
        comm: &mut Comm<Msg>,
        feed: impl FnOnce() -> &'f mut F,
    ) -> RankResult {
        match ctx.assign.task_of_rank(comm.rank()) {
            Some((task, node)) => RankResult::Task {
                task,
                node,
                report: run_task(ctx, comm, task, node),
            },
            None => RankResult::Driver(DriverResult {
                health: drive(ctx, comm, self.window.max(1), feed()),
                ..DriverResult::default()
            }),
        }
    }

    /// Folds per-rank results (however they were obtained: in-process
    /// threads or cluster child processes) plus the collected comm
    /// traces into the run's [`PipelineOutput`].
    pub fn assemble(
        &self,
        num_cpis: usize,
        results: Vec<RankResult>,
        comm_traces: Vec<stap_mp::RankTrace>,
        pools: &PipelinePools,
    ) -> PipelineOutput {
        let lo = self.warmup.min(num_cpis.saturating_sub(1));
        let hi = num_cpis.saturating_sub(self.cooldown).max(lo + 1);
        let measured: std::ops::Range<usize> = lo..hi;
        let mut tasks = [TaskTiming::default(); 7];
        let mut counts = [0usize; 7];
        let mut detections = Vec::new();
        let mut timings = PipelineTimings::default();
        let mut trace_tasks: Vec<crate::trace::TaskInterval> = Vec::new();
        let mut trace_cpis: Vec<crate::trace::CpiMark> = Vec::new();
        for r in results {
            match r {
                RankResult::Task {
                    task: t,
                    node: local,
                    report,
                } => {
                    for cpi in measured.clone() {
                        if let Some(tt) = report.timings.get(cpi) {
                            tasks[t].add(tt);
                            counts[t] += 1;
                        }
                    }
                    timings.health.merge(&report.health);
                    trace_tasks.extend(report.spans.iter().map(|&span| {
                        crate::trace::TaskInterval {
                            task: t,
                            node: local,
                            span,
                        }
                    }));
                }
                RankResult::Driver(DriverResult {
                    detections: d,
                    inject_t: inject,
                    complete_t: complete,
                    outcomes,
                    health,
                }) => {
                    let lat: Vec<f64> = measured.clone().map(|i| complete[i] - inject[i]).collect();
                    timings.measured_latency = mean(&lat);
                    let mut intervals: Vec<f64> = measured
                        .clone()
                        .skip(1)
                        .map(|i| complete[i] - complete[i - 1])
                        .collect();
                    if intervals.is_empty() && num_cpis > 1 {
                        // Too few measured CPIs to exclude warmup; use all.
                        intervals = (1..num_cpis)
                            .map(|i| complete[i] - complete[i - 1])
                            .collect();
                    }
                    let mean_int = mean(&intervals);
                    timings.measured_throughput = if mean_int > 0.0 { 1.0 / mean_int } else { 0.0 };
                    if self.tracing {
                        trace_cpis = (0..num_cpis)
                            .map(|cpi| crate::trace::CpiMark {
                                cpi,
                                inject_s: inject[cpi],
                                complete_s: complete[cpi],
                            })
                            .collect();
                    }
                    detections = d;
                    // The driver counted the dropped and degraded CPIs.
                    timings.health.merge(&health);
                    if self.policy.fault_tolerant {
                        timings.outcomes = outcomes;
                    }
                }
            }
        }
        for t in 0..7 {
            if counts[t] > 0 {
                tasks[t] = tasks[t].scale(1.0 / counts[t] as f64);
            }
        }
        timings.tasks = tasks;
        timings.pool_cx = pools.cx.stats();
        timings.pool_real = pools.real.stats();
        let trace = self.tracing.then(|| {
            trace_tasks.sort_by_key(|iv| (iv.task, iv.node, iv.span.cpi));
            crate::trace::PipelineTrace {
                assign: self.assign,
                num_cpis,
                tasks: trace_tasks,
                comm: comm_traces,
                cpis: trace_cpis,
            }
        });
        PipelineOutput {
            detections,
            timings,
            trace,
        }
    }
}

/// A batch's feed: the CPI list in order, one pooled copy per slot;
/// completions fill a [`DriverResult`], times measured from `t0`.
struct CpiList<'a> {
    cpis: &'a [CCube],
    pool: &'a SharedBufferPool<Cx>,
    t0: Instant,
    out: DriverResult,
}

impl<'a> CpiList<'a> {
    fn new(cpis: &'a [CCube], pool: &'a SharedBufferPool<Cx>, t0: Instant) -> Self {
        let out = DriverResult::default();
        CpiList {
            cpis,
            pool,
            t0,
            out,
        }
    }
}

impl Feed for CpiList<'_> {
    fn next(&mut self, _wait: bool) -> Result<Vec<CpiJob>, TryRecvError> {
        let i = self.out.inject_t.len();
        let cube = self.cpis.get(i).ok_or(TryRecvError::Disconnected)?;
        let now = Instant::now();
        self.out
            .inject_t
            .push(now.duration_since(self.t0).as_secs_f64());
        Ok(vec![CpiJob {
            stream: 0,
            scpi: i as u32,
            cube: self.pool.take_cube_from(cube),
            submitted: now,
        }])
    }

    fn complete(
        &mut self,
        sub: SubCpi,
        latency: f64,
        detections: Option<Vec<Detection>>,
        degraded: bool,
    ) {
        let i = sub.scpi as usize;
        self.out.complete_t.push(self.out.inject_t[i] + latency);
        self.out.outcomes.push(match (&detections, degraded) {
            (None, _) => CpiOutcome::Dropped,
            (Some(_), true) => CpiOutcome::DegradedStaleWeights,
            (Some(_), false) => CpiOutcome::Ok,
        });
        self.out.detections.push(detections.unwrap_or_default());
    }

    fn slots(&self) -> Option<usize> {
        Some(self.cpis.len() - self.out.inject_t.len())
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_populated() {
        let params = StapParams::reduced();
        let scenario = Scenario::reduced(3);
        let cpis: Vec<CCube> = scenario.stream(6).map(|(_, _, c)| c).collect();
        let par = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenario);
        let out = par.run(cpis);
        for t in 0..7 {
            assert!(
                out.timings.tasks[t].comp > 0.0,
                "task {t} compute time missing"
            );
        }
        assert!(out.timings.measured_throughput > 0.0);
        assert!(out.timings.measured_latency > 0.0);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;

    /// A wrong-shape CPI cube must be rejected with a descriptive error
    /// before any rank thread is spawned — not surface as a worker
    /// panic deep inside the Doppler task.
    #[test]
    fn invalid_cube_shape_is_rejected_before_spawn() {
        let params = StapParams::reduced();
        let scenario = Scenario::reduced(1);
        let bad = CCube::zeros([8, 2, 4]);
        let par = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenario);
        match par.try_run(vec![bad]) {
            Err(PipelineError::InvalidInput(msg)) => {
                assert!(msg.contains("CPI 0"), "unhelpful message: {msg}");
                assert!(msg.contains("[8, 2, 4]"), "missing got-shape: {msg}");
            }
            Err(other) => panic!("expected InvalidInput, got {other}"),
            Ok(_) => panic!("expected InvalidInput, got output"),
        }
        // The panicking `run` wrapper surfaces the same message.
        assert!(par.try_run(Vec::new()).is_err());
    }

    /// A panicking rank must surface as a panic from `run` (and an
    /// `Err` from `try_run`), not a silent hang: the liveness counter in
    /// stap-mp turns the dead rank into `Disconnected` errors on its
    /// peers, and the join layer converts the panic into a
    /// `WorldError` naming the rank.
    #[test]
    #[should_panic(expected = "panicked")]
    fn rank_panic_propagates_not_hangs() {
        let params = StapParams::reduced();
        let scenario = Scenario::reduced(1);
        let cpis: Vec<CCube> = scenario.stream(2).map(|(_, _, c)| c).collect();
        let par = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenario)
            .with_faults(stap_mp::FaultPlan::seeded(11).panic_rank(0, 0));
        let _ = par.run(cpis);
    }
}
