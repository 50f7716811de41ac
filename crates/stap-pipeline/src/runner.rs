//! World construction, CPI injection and result collection for batch
//! runs: a [`ParallelStap`] run is a session of the resident engine
//! whose driver reads a CPI list.

use crate::assignment::{NodeAssignment, Partitions};
use crate::fault::{nan_corruptor, RuntimePolicy};
use crate::metrics::{CpiOutcome, PipelineHealth, PipelineTimings, TaskTiming};
use crate::msg::{Msg, SubCpi};
use crate::resident::{drive, run_task, CpiJob, Feed, ResCtx, ResidentState};
use crate::tasks::PipelinePools;
use stap_core::{Detection, StapParams};
use stap_cube::{CCube, SharedBufferPool};
use stap_math::{CMat, Cx};
use stap_mp::{FaultPlan, World, WorldError};
use stap_radar::Scenario;
use std::fmt;
use std::sync::mpsc::TryRecvError;
use std::time::Instant;

/// Why a pipeline run could not produce output.
#[derive(Debug)]
pub enum PipelineError {
    /// The injected input was rejected before any rank was spawned
    /// (wrong cube shape, empty CPI list).
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

/// What a task node's loop hands back: per-CPI phase times plus the
/// node's fault-tolerance counters.
#[derive(Debug, Default)]
pub struct TaskReport {
    /// Per-CPI phase timings.
    pub timings: Vec<TaskTiming>,
    /// This node's health counters (all zero without faults).
    pub health: PipelineHealth,
    /// Per-CPI spans (empty unless the run was traced; `Vec::new` does
    /// not allocate, so the untraced path stays allocation-free).
    pub spans: Vec<crate::trace::TaskSpan>,
}

/// What one rank contributes to a run. Produced by
/// [`ParallelStap::run_rank`] on every rank (in-process thread or
/// cluster child process) and folded into a [`PipelineOutput`] by
/// [`ParallelStap::assemble`].
#[derive(Debug)]
pub enum RankResult {
    /// A task node's report: paper task index, local node index within
    /// the task, and its per-CPI report.
    Task {
        /// Task index (0..7, paper order).
        task: usize,
        /// Local node index within the task.
        node: usize,
        /// The node's timings, health counters and spans.
        report: TaskReport,
    },
    /// The driver rank's collected output.
    Driver(DriverResult),
}

/// Everything the driver rank collects: merged detections plus the
/// raw per-CPI timestamps the aggregation turns into throughput and
/// latency.
#[derive(Debug)]
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

/// The parallel pipelined STAP system.
pub struct ParallelStap {
    /// Algorithm parameters.
    pub params: StapParams,
    /// Node assignment.
    pub assign: NodeAssignment,
    /// Steering matrices per transmit-beam position.
    pub steering: Vec<CMat>,
    /// CPIs kept in flight by the driver (pipeline window).
    pub window: usize,
    /// Leading CPIs excluded from timing averages (paper: first 3).
    pub warmup: usize,
    /// Trailing CPIs excluded from timing averages (paper: last 2).
    pub cooldown: usize,
    /// Fault-tolerance policy for the task loops. Defaults to off
    /// (zero-overhead blocking receives, bit-identical to the non-FT
    /// pipeline).
    pub policy: RuntimePolicy,
    /// Deterministic fault-injection plan installed in the world.
    /// `None` (the default) builds a clean world.
    pub faults: Option<FaultPlan>,
    /// When true, the run records a full span timeline (task phases,
    /// comm events, CPI marks) into [`PipelineOutput::trace`]. Off by
    /// default: the untraced path performs no clock reads or
    /// allocations beyond the existing per-CPI timing.
    pub tracing: bool,
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
            policy: RuntimePolicy::default(),
            faults: None,
            tracing: false,
        }
    }

    /// Enables span tracing: the returned output carries a
    /// [`crate::trace::PipelineTrace`] merging every task node's
    /// per-CPI phase spans with every rank's communication events.
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

    /// Installs a deterministic fault-injection plan and, unless a
    /// policy was already set, switches the task loops to the
    /// fault-tolerant path (injecting faults into a non-tolerant
    /// pipeline would just panic it).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        if !self.policy.fault_tolerant {
            self.policy = RuntimePolicy::fault_tolerant();
        }
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

    /// Runs the pipeline over `cpis` (index, cube) pairs, one OS thread
    /// per node plus a driver thread. Panics on invalid input or a rank
    /// failure; use [`ParallelStap::try_run`] for recoverable errors.
    pub fn run(&self, cpis: Vec<CCube>) -> PipelineOutput {
        self.try_run(cpis).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`ParallelStap::run`] but validates the input cubes before
    /// any rank is spawned and joins rank panics back as structured
    /// [`PipelineError`]s instead of panicking the caller.
    pub fn try_run(&self, cpis: Vec<CCube>) -> Result<PipelineOutput, PipelineError> {
        self.validate_input(&cpis)?;
        let num_cpis = cpis.len();
        let parts = Partitions::new(&self.params, &self.assign);
        let mut world: World<Msg> = World::new(self.assign.world_size());
        if let Some(plan) = &self.faults {
            world = world
                .with_faults(plan.clone())
                .with_corruptor(nan_corruptor());
        }
        // One epoch shared by the comm recorder, the task spans and the
        // driver's CPI marks, so the merged timeline is coherent.
        let epoch = self.tracing.then(Instant::now);
        let sink = stap_mp::TraceSink::new();
        if let Some(e) = epoch {
            world = world.with_tracing(e, &sink, crate::msg::wire_bytes);
        }
        let parts_ref = &parts;
        let cpis_ref = &cpis;
        // One recycling pool per run, shared by every node thread:
        // receivers retire message buffers, senders draw packing buffers.
        let pools = PipelinePools::default();
        let pools_ref = &pools;

        let results = world.try_run_collect(|mut comm| {
            self.run_rank(&mut comm, cpis_ref, parts_ref, pools_ref, epoch)
        })?;
        Ok(self.assemble(num_cpis, results, sink.take(), &pools))
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

    /// Runs exactly one rank of the pipeline to completion over `comm`
    /// and returns its contribution. This is the whole per-rank body of
    /// [`ParallelStap::try_run`], exposed so a cluster child process
    /// (which *is* one rank, on a wire-backed `Comm`) can execute the
    /// identical code path the in-process threads run.
    ///
    /// Every rank runs the resident engine's loop for its task with one
    /// CPI per slot, this runner's [`RuntimePolicy`] and, traced, `epoch`;
    /// the driver rank feeds it `cpis` in order. Task ranks ignore `cpis`.
    pub fn run_rank(
        &self,
        comm: &mut stap_mp::Comm<Msg>,
        cpis: &[CCube],
        parts: &Partitions,
        pools: &PipelinePools,
        epoch: Option<Instant>,
    ) -> RankResult {
        // Over a wire fabric, frames decode into `pools` and sent blocks
        // return to them, as messages do between the local fabric's
        // threads.
        comm.install_wire_pool(Box::new(pools.clone()));
        let carry = ResidentState::default();
        let ctx = ResCtx {
            params: &self.params,
            assign: &self.assign,
            parts,
            steering: &self.steering,
            pools,
            max_group: 1,
            screen: false,
            carry: &carry,
            export: false,
            policy: &self.policy,
            epoch,
            slots: Some(cpis.len()),
        };
        match self.assign.task_of_rank(comm.rank()) {
            Some((task, node)) => RankResult::Task {
                task,
                node,
                report: run_task(&ctx, comm, task, node).report,
            },
            None => {
                let mut list = CpiList {
                    cpis,
                    pool: &pools.cx,
                    // Under tracing the driver clock shares the trace
                    // epoch so CPI marks line up with the spans.
                    t0: epoch.unwrap_or_else(Instant::now),
                    out: DriverResult {
                        detections: Vec::with_capacity(cpis.len()),
                        inject_t: Vec::with_capacity(cpis.len()),
                        complete_t: Vec::with_capacity(cpis.len()),
                        outcomes: Vec::with_capacity(cpis.len()),
                        health: PipelineHealth::default(),
                    },
                };
                let (health, _, _) = drive(&ctx, comm, self.window.max(1), &mut list);
                list.out.health = health;
                RankResult::Driver(list.out)
            }
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

/// A batch session's feed: the CPI list in order, one CPI per slot, each
/// a pooled copy; completions fill the driver's [`DriverResult`].
struct CpiList<'a> {
    cpis: &'a [CCube],
    pool: &'a SharedBufferPool<Cx>,
    t0: Instant,
    out: DriverResult,
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
