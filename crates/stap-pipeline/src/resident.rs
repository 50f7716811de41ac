//! Resident multi-stream pipeline: the long-running ingestion back end.
//!
//! The batch runner ([`crate::runner::ParallelStap`]) spawns a world,
//! streams a fixed CPI list through it and tears everything down. A
//! radar front end serving many concurrent *streams* cannot afford that:
//! per-arrival world spawns dominate, and each stream's CPIs arrive
//! interleaved with every other stream's. This module keeps the seven
//! task nodes resident and drives them with **slot groups**: the driver
//! coalesces up to `max_group` CPIs — from *different* streams — into
//! one slot, every cube on every edge carries the group concatenated
//! along axis 0, and the kernels run once per slot over all member
//! CPIs.
//!
//! The Doppler task makes **one pass** over a slot: for each
//! cache-sized tile of range rows `DopplerProcessor::process_tiles_with`
//! tapers and transforms the tile and [`BinBlock::scatter`] corner-turns
//! it, still cache-resident, straight into the four pooled out-blocks
//! (`[sub * bins + bin][row][channel]`, the order the wire has always
//! carried) — no staggered cube is ever materialised. The beamformers
//! consume those blocks in place: they keep the received blocks until
//! the slot is computed and pack each bin's `[row][channel]` plane,
//! transposed, directly into the GEMM's split-complex operand, one
//! block per Doppler node covering its own range columns.
//!
//! Downstream of the beamformers every edge costs one write and one
//! read. Beamforming, pulse compression and CFAR are all partitioned
//! along the Doppler-bin axis, so their blocks carry whole `[M][K]`
//! planes and nothing is reorganised: a beamformer draws the block each
//! PC node will receive before it computes and its GEMM stores every
//! bin's plane into it; pulse compression transforms each received block
//! in place, lane by lane, as it arrives and writes the power straight
//! into the blocks CFAR receives; CFAR runs its detector over those
//! blocks where they lie, in bin order. Every block taken for overwrite
//! is NaN-poisoned and coverage-checked in debug builds.
//!
//! Cross-stream batching is bit-exact with per-stream serial runs
//! because all per-CPI state is keyed by *stream*:
//!
//! * azimuth revisit: `beam = scpi % steering.len()` uses the
//!   per-stream CPI index, not the slot index;
//! * easy-weight history rings are keyed `(stream, beam)` and held in
//!   lane layout, four bins to a vector
//!   (`stap_core::weights::EasyWeightLanes`); they are `(stream, beam,
//!   bin)`-keyed matrices only as exported [`ResidentState`];
//! * hard-weight QR recursion state is keyed `(stream, beam)` and held
//!   in lane layout, four bins to a vector, per (bin group, segment)
//!   (`stap_core::weights::HardWeightLanes`); it is `(stream, beam,
//!   bin, seg)`-keyed matrices only as exported [`ResidentState`];
//! * the beamform tasks keep per-`(stream, beam)` weight FIFOs: every
//!   slot *consumes* for each member — popping the front of
//!   `fifo[(stream, scpi % beams)]` yields exactly the weights computed
//!   from `(stream, scpi - beams)`, the paper's TD(1,3)/TD(2,4)
//!   temporal dependency — sends, and only then receives and *pushes*
//!   the weight sets computed from its own member CPIs. A slot that
//!   carries `scpi - beams` and `scpi` of one stream finds that FIFO
//!   empty and pushes before it consumes.
//!
//! That order is how the loops honour the paper's eq. 2, latency = T0 +
//! max(T3, T4) + T5 + T6: the weights a slot is beamformed with were
//! computed from earlier slots, so neither weight task is on its path.
//! Doppler sends the beamformers' blocks before the weight tasks', the
//! weight ranks run at background priority (`run_at_background_priority`)
//! so a woken chain thread takes their core, and they trail the chain
//! by at most one slot — a beamformer does not start slot `s + 1` before
//! it has pushed slot `s`.
//!
//! The contract the admission layer (`stap-serve`) upholds: each
//! stream's CPIs are submitted in `scpi` order starting at 0, with no
//! gaps. Resident mode is the production fast path — non-fault-tolerant
//! (plain blocking receives), untraced, and steady-state
//! allocation-free for every cube that travels an edge (all drawn from
//! the shared [`PipelinePools`], pre-warmed by [`ResidentStap::reserve`]).

use crate::assignment::{overlap, NodeAssignment, Partitions, *};
use crate::metrics::PipelineHealth;
use crate::msg::{tag, Edge, Msg, Payload, SubCpi};
use crate::runner::PipelineError;
use crate::tasks::{
    easy_cells_in, expect_weights, hard_cells_in, sample_mailbox, weight_sources, PipelinePools,
};
use stap_core::params::StapParams;
use stap_core::weights::{EasyWeightLanes, HardWeightLanes};
use stap_core::{
    cfar,
    doppler::{DopplerProcessor, DopplerScratch},
    pulse::PulseCompressor,
    Detection,
};
use stap_cube::{BinBlock, CCube, Cube, PoolStats, RCube, SharedBufferPool};
use stap_math::fft::FftScratch;
use stap_math::gemm::{gemm_planar_into_strided, PlanarMat};
use stap_math::solve::normalize_columns;
use stap_math::{CMat, Cx};
use stap_mp::{Comm, World};
use stap_radar::Scenario;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::ops::Range;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One CPI submitted to the resident pipeline.
pub struct CpiJob {
    /// Ingestion stream id.
    pub stream: u16,
    /// Per-stream CPI index (must be contiguous from 0 per stream).
    pub scpi: u32,
    /// The raw data cube, `[k_range, j_channels, n_pulses]`. Draw it
    /// from [`ResidentStap::pools`] (`cx.take_cube`) to keep the steady
    /// state allocation-free — the driver recycles it after packing.
    pub cube: CCube,
    /// Submission instant (the latency clock starts here).
    pub submitted: Instant,
}

/// One CPI's completed result, delivered on the `done` channel.
pub struct CpiDone {
    /// Ingestion stream id.
    pub stream: u16,
    /// Per-stream CPI index.
    pub scpi: u32,
    /// Detections, sorted by (bin, beam, range).
    pub detections: Vec<Detection>,
    /// Submit-to-complete latency in seconds.
    pub latency: f64,
    /// True when screening flagged non-finite samples in this CPI's
    /// power lanes (upstream corruption reached the detector) — the
    /// detections are whatever CFAR salvaged from the finite cells. The
    /// serve layer folds this into per-stream health.
    pub degraded: bool,
}

/// What a resident session reports after shutdown.
#[derive(Clone, Debug, Default)]
pub struct ResidentSummary {
    /// CPIs fully processed.
    pub cpis: u64,
    /// Slots (coalesced groups) processed.
    pub slots: u64,
    /// Merged health counters (mailbox depth telemetry; the fault
    /// counters stay zero — resident mode is non-fault-tolerant).
    pub health: PipelineHealth,
    /// Complex pool traffic. `misses` beyond warmup means
    /// [`ResidentStap::reserve`] under-provisioned.
    pub pool_cx: PoolStats,
    /// Real pool traffic.
    pub pool_real: PoolStats,
    /// Wall-clock seconds from `serve` entry to return.
    pub elapsed: f64,
    /// Per-task busy seconds, summed over that task's nodes: wall-clock
    /// time spent assembling, computing and packing slots, excluding
    /// blocked receives (a beamformer's wait for weights included). On a
    /// host with fewer cores than rank threads that includes time spent
    /// runnable but waiting for a core, so it overstates tasks that
    /// share their core (`scripts/thread_cpu.sh` reads the CPU each rank
    /// thread actually used). The elastic scheduler ranks bottlenecks by
    /// `busy[t] / nodes[t]`.
    pub busy: [f64; 7],
}

/// Cross-slot task state exported when a resident session drains, keyed
/// by **global** bin indices (the task-local partition offsets are
/// rebased out), so a follow-on session may re-partition the same state
/// under a *different* node assignment and continue bit-identically.
///
/// * easy keys are `(stream, beam, easy-bin index in 0..n_easy)`;
/// * hard keys carry the hard-bin index in `0..n_hard` (and the range
///   segment for the QR recursion);
/// * FIFO/history order is preserved front-to-back exactly as the
///   per-node queues held it.
#[derive(Clone, Debug, Default)]
pub struct ResidentState {
    /// Easy-weight training history rings (task 1), front = oldest.
    pub easy_history: HashMap<(u16, usize, usize), VecDeque<CMat>>,
    /// Hard-weight QR recursion state (task 2), per segment.
    pub hard_r: HashMap<(u16, usize, usize, usize), CMat>,
    /// Easy-beamform pending weight FIFOs (task 3), front = next.
    pub easy_fifo: HashMap<(u16, usize, usize), VecDeque<CMat>>,
    /// Hard-beamform pending weight FIFOs (task 4), per-segment sets.
    pub hard_fifo: HashMap<(u16, usize, usize), VecDeque<Vec<CMat>>>,
}

impl ResidentState {
    /// True when no task carried any cross-slot state (a fresh world).
    pub fn is_empty(&self) -> bool {
        self.easy_history.is_empty()
            && self.hard_r.is_empty()
            && self.easy_fifo.is_empty()
            && self.hard_fifo.is_empty()
    }
}

/// What one resident task node hands back when its loop exits.
struct TaskExit {
    health: PipelineHealth,
    busy: f64,
    state: TaskState,
}

impl TaskExit {
    fn stateless(health: PipelineHealth, busy: f64) -> Self {
        TaskExit {
            health,
            busy,
            state: TaskState::Stateless,
        }
    }

    /// The exit of a task with cross-slot state, which is exported only
    /// for a caller that takes it ([`ResidentStap::serve_with_state`]):
    /// exporting copies every matrix out of the task's own layout.
    fn stateful(
        ctx: &ResCtx,
        health: PipelineHealth,
        busy: f64,
        export: impl FnOnce() -> TaskState,
    ) -> Self {
        let state = if ctx.export {
            export()
        } else {
            TaskState::Stateless
        };
        TaskExit {
            health,
            busy,
            state,
        }
    }
}

/// The node-local slice of [`ResidentState`], already rebased to global
/// bin keys by the exporting task.
enum TaskState {
    Stateless,
    EasyWt(HashMap<(u16, usize, usize), VecDeque<CMat>>),
    HardWt(HashMap<(u16, usize, usize, usize), CMat>),
    EasyBf(HashMap<(u16, usize, usize), VecDeque<CMat>>),
    HardBf(HashMap<(u16, usize, usize), VecDeque<Vec<CMat>>>),
}

/// The resident multi-stream STAP pipeline.
pub struct ResidentStap {
    /// Algorithm parameters.
    pub params: StapParams,
    /// Node assignment.
    pub assign: NodeAssignment,
    /// Steering matrices per transmit-beam position.
    pub steering: Vec<CMat>,
    /// Slots the driver keeps in flight.
    pub window: usize,
    /// Maximum CPIs coalesced into one slot.
    pub max_group: usize,
    /// Soft mailbox high-water mark installed in every rank's comm
    /// (0 = disabled); crossings are counted in the summary health.
    pub mailbox_high_water: usize,
    /// Deterministic fault schedule installed into the world on the
    /// next [`Self::serve_with_state`] launch (`None` = clean world,
    /// the production path). The supervisor re-arms this per launch so
    /// a fired panic is not re-injected into the recovery world.
    pub faults: Option<stap_mp::FaultPlan>,
    /// Screen CFAR power lanes for non-finite samples and flag the
    /// owning sub-CPI as degraded (costs one pass over each power
    /// block; off by default).
    pub screen: bool,
    pools: PipelinePools,
}

impl ResidentStap {
    /// Builds a resident runner from explicit steering matrices.
    pub fn new(params: StapParams, assign: NodeAssignment, steering: Vec<CMat>) -> Self {
        params.validate().expect("invalid parameters");
        assert!(!steering.is_empty(), "need at least one steering matrix");
        ResidentStap {
            params,
            assign,
            steering,
            window: 4,
            max_group: 4,
            mailbox_high_water: 0,
            faults: None,
            screen: false,
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
        ResidentStap::new(params, assign, steering)
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

    /// Installs a deterministic fault schedule for the next launch (the
    /// chaos harness and the supervisor's per-launch plans use this).
    pub fn with_faults(mut self, plan: stap_mp::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables non-finite screening at the CFAR boundary with per-sub
    /// degraded attribution.
    pub fn with_screen(mut self, screen: bool) -> Self {
        self.screen = screen;
        self
    }

    /// Replaces the buffer pools with an existing (shared) set. The
    /// elastic scheduler threads one pool family through successive
    /// epochs so a rebalance does not re-warm every size class from
    /// cold.
    pub fn with_pools(mut self, pools: PipelinePools) -> Self {
        self.pools = pools;
        self
    }

    /// The shared buffer pools. The ingestion side draws raw CPI cubes
    /// from `pools().cx` so submission is allocation-free too.
    pub fn pools(&self) -> &PipelinePools {
        &self.pools
    }

    /// Demand-driven pool sizing: pre-warms every size class the
    /// resident hot path will draw from, for `streams` concurrent
    /// streams with `queue_depth` admitted-and-waiting CPIs each, so
    /// even the first slot is miss-free. Derives the exact block sizes
    /// from the partitions (the same index arithmetic the task loops
    /// use). A block of one kind — one (edge, sender, receiver) — is
    /// live from the moment its producer draws it (the beamformers and
    /// pulse compression draw theirs before they compute into them)
    /// until its consumer has computed out of it. On the eq.-2 chain
    /// that is at most once per in-flight slot, so `window` bounds those
    /// kinds whatever the holding times. The two Doppler → weight kinds
    /// can be live once more: a slot completes without waiting for its
    /// weight tasks, so they may still hold its blocks while Doppler
    /// has drawn those of all `window` slots behind it — but no more
    /// than that, because a beamformer receives slot `s`'s weights
    /// before it starts slot `s + 1`, which keeps the weight tasks
    /// within one slot of the chain. Every kind gets `w = window + 2`:
    /// for those two kinds one of the two blocks over the window is
    /// the lagging slot's and one is margin; every other kind keeps
    /// both as margin. The batcher coalesces any group size
    /// up to the bound at any time — partial groups are not only a
    /// ramp-up affair under paced arrivals — and a smaller group draws
    /// from a smaller size class, so every class a kind's group sizes
    /// fall into gets the whole window.
    pub fn reserve(&self, streams: usize, queue_depth: usize) {
        let p = &self.params;
        let parts = Partitions::new(p, &self.assign);
        let b = self.max_group.min(streams.max(1)).max(1);
        let w = self.window + 2; // in-flight slots + a lagging weight slot + margin
        let mut cx: HashMap<usize, usize> = HashMap::new();
        let mut real: HashMap<usize, usize> = HashMap::new();
        // One block kind of `per_cpi` elements per member CPI, drawn for
        // the group sizes in `groups`.
        fn kind(
            m: &mut HashMap<usize, usize>,
            per_cpi: usize,
            groups: impl Iterator<Item = usize>,
            w: usize,
        ) {
            if per_cpi == 0 {
                return;
            }
            let classes: BTreeSet<usize> =
                groups.map(|g| (g * per_cpi).next_power_of_two()).collect();
            for class in classes {
                *m.entry(class).or_default() += w;
            }
        }
        // Raw CPI cubes: one held per producer, up to `queue_depth`
        // admitted per stream, plus in-flight groups.
        let raw = p.k_range * p.j_channels * p.n_pulses;
        cx.insert(raw.next_power_of_two(), streams * (queue_depth + 1) + b * w);
        let easy_bins = p.easy_bins();
        let hard_bins = p.hard_bins();
        for kr in &parts.doppler_k {
            // Driver input slabs (a lone admitted cube is forwarded).
            let slab_groups = (1..=b).filter(|&g| !forwards_admitted_cube(g, &parts));
            kind(
                &mut cx,
                kr.len() * p.j_channels * p.n_pulses,
                slab_groups,
                w,
            );
            let ec = easy_cells_in(p, kr).len();
            let fc: usize = (0..p.num_segments())
                .map(|s| hard_cells_in(p, s, kr).len())
                .sum();
            for bins in &parts.easy_wt_bins {
                kind(&mut cx, bins.len() * ec * p.j_channels, 1..=b, w);
            }
            for bins in &parts.hard_wt_bins {
                kind(&mut cx, bins.len() * fc * 2 * p.j_channels, 1..=b, w);
            }
            for bins in &parts.easy_bf_bins {
                kind(&mut cx, bins.len() * kr.len() * p.j_channels, 1..=b, w);
            }
            for bins in &parts.hard_bf_bins {
                kind(&mut cx, bins.len() * kr.len() * 2 * p.j_channels, 1..=b, w);
            }
        }
        // Beamform -> PC blocks: per (BF node, PC node) natural-bin
        // overlap, exactly as `PcBlocks` counts it.
        let plane = p.m_beams * p.k_range;
        for pc_bins in &parts.pc_bins {
            for (idx, bins) in (parts.easy_bf_bins.iter().map(|idx| (idx, &easy_bins)))
                .chain(parts.hard_bf_bins.iter().map(|idx| (idx, &hard_bins)))
            {
                let mine = (idx.clone().filter(|&bn| pc_bins.contains(&bins[bn]))).count();
                kind(&mut cx, mine * plane, 1..=b, w);
            }
            // PC -> CFAR real blocks.
            for cf in &parts.cfar_bins {
                kind(&mut real, overlap(pc_bins, cf).len() * plane, 1..=b, w);
            }
        }
        for (cap, count) in cx {
            self.pools.cx.reserve(cap, count);
        }
        for (cap, count) in real {
            self.pools.real.reserve(cap, count);
        }
    }

    /// Runs the resident world until the `jobs` channel disconnects and
    /// every in-flight slot has drained. Each received `Vec<CpiJob>` is
    /// one slot group (1..=`max_group` CPIs, distinct or repeated
    /// streams); results stream out on `done` as slots complete.
    pub fn serve(
        &self,
        jobs: Receiver<Vec<CpiJob>>,
        done: Sender<CpiDone>,
    ) -> Result<ResidentSummary, PipelineError> {
        self.run(jobs, done, &ResidentState::default(), false)
            .map(|(summary, _)| summary)
    }

    /// [`Self::serve`] with cross-session state carry: the stateful
    /// tasks (weight history rings, QR recursion, beamform weight
    /// FIFOs) start from `carry` — re-partitioned to this session's
    /// assignment — and the drained session's state comes back with the
    /// summary. This is the rebalance primitive: exporting under one
    /// assignment and importing under another is bit-identical to never
    /// having stopped.
    pub fn serve_with_state(
        &self,
        jobs: Receiver<Vec<CpiJob>>,
        done: Sender<CpiDone>,
        carry: ResidentState,
    ) -> Result<(ResidentSummary, ResidentState), PipelineError> {
        self.run(jobs, done, &carry, true)
    }

    /// One resident session; the drained tasks' state is exported (and
    /// returned) only when `export` is set.
    fn run(
        &self,
        jobs: Receiver<Vec<CpiJob>>,
        done: Sender<CpiDone>,
        carry: &ResidentState,
        export: bool,
    ) -> Result<(ResidentSummary, ResidentState), PipelineError> {
        let t0 = Instant::now();
        let parts = Partitions::new(&self.params, &self.assign);
        let mut world: World<Msg> = World::new(self.assign.world_size());
        if self.mailbox_high_water > 0 {
            world = world.with_mailbox_high_water(self.mailbox_high_water);
        }
        if let Some(plan) = &self.faults {
            if !plan.is_empty() {
                world = world
                    .with_faults(plan.clone())
                    .with_corruptor(crate::fault::nan_corruptor());
            }
        }
        let ctx = ResCtx {
            params: &self.params,
            assign: &self.assign,
            parts: &parts,
            steering: &self.steering,
            pools: &self.pools,
            max_group: self.max_group,
            screen: self.screen,
            carry,
            export,
        };
        let ctx_ref = &ctx;
        let window = self.window.max(1);
        // mpsc endpoints are Send but not Sync; the SPMD closure is
        // shared by reference across ranks, so the driver arm takes
        // them out of a mutex (it runs exactly once).
        let jobs_cell = Mutex::new(Some(jobs));
        let done_cell = Mutex::new(Some(done));

        enum Res {
            Task(usize, TaskExit),
            Driver {
                health: PipelineHealth,
                cpis: u64,
                slots: u64,
            },
        }

        let results = world.try_run_collect(|mut comm| {
            let rank = comm.rank();
            match ctx_ref.assign.task_of_rank(rank) {
                Some((t @ DOPPLER, local)) => {
                    Res::Task(t, resident_doppler(ctx_ref, &mut comm, local))
                }
                Some((t @ EASY_WT, local)) => {
                    Res::Task(t, resident_easy_weight(ctx_ref, &mut comm, local))
                }
                Some((t @ HARD_WT, local)) => {
                    Res::Task(t, resident_hard_weight(ctx_ref, &mut comm, local))
                }
                Some((t @ EASY_BF, local)) => {
                    Res::Task(t, resident_easy_bf(ctx_ref, &mut comm, local))
                }
                Some((t @ HARD_BF, local)) => {
                    Res::Task(t, resident_hard_bf(ctx_ref, &mut comm, local))
                }
                Some((t @ PC, local)) => Res::Task(t, resident_pc(ctx_ref, &mut comm, local)),
                Some((t @ CFAR, local)) => Res::Task(t, resident_cfar(ctx_ref, &mut comm, local)),
                Some(_) => unreachable!("unknown task"),
                None => {
                    let jobs = jobs_cell
                        .lock()
                        .unwrap()
                        .take()
                        .expect("driver rank runs once");
                    let done = done_cell.lock().unwrap().take().expect("driver rank once");
                    let (health, cpis, slots) =
                        resident_driver(ctx_ref, &mut comm, window, jobs, done);
                    Res::Driver {
                        health,
                        cpis,
                        slots,
                    }
                }
            }
        })?;

        let mut summary = ResidentSummary::default();
        let mut state = ResidentState::default();
        for r in results {
            match r {
                Res::Task(t, exit) => {
                    summary.health.merge(&exit.health);
                    summary.busy[t] += exit.busy;
                    match exit.state {
                        TaskState::Stateless => {}
                        TaskState::EasyWt(m) => state.easy_history.extend(m),
                        TaskState::HardWt(m) => state.hard_r.extend(m),
                        TaskState::EasyBf(m) => state.easy_fifo.extend(m),
                        TaskState::HardBf(m) => state.hard_fifo.extend(m),
                    }
                }
                Res::Driver {
                    health,
                    cpis,
                    slots,
                } => {
                    summary.health.merge(&health);
                    summary.cpis = cpis;
                    summary.slots = slots;
                }
            }
        }
        summary.pool_cx = self.pools.cx.stats();
        summary.pool_real = self.pools.real.stats();
        summary.elapsed = t0.elapsed().as_secs_f64();
        Ok((summary, state))
    }
}

/// Shared read-only context for the resident task loops.
struct ResCtx<'a> {
    params: &'a StapParams,
    assign: &'a NodeAssignment,
    parts: &'a Partitions,
    steering: &'a [CMat],
    pools: &'a PipelinePools,
    max_group: usize,
    screen: bool,
    carry: &'a ResidentState,
    /// Whether the tasks export their cross-slot state when they drain.
    export: bool,
}

fn expect_grouped_cube(m: Msg) -> Option<(Arc<[SubCpi]>, CCube)> {
    match m.payload {
        Payload::Shutdown => None,
        Payload::Cube(c) => Some((m.group.expect("resident messages carry a group"), c)),
        other => panic!("resident: expected grouped Cube or Shutdown, got {other:?}"),
    }
}

fn expect_grouped_real(m: Msg) -> Option<(Arc<[SubCpi]>, RCube)> {
    match m.payload {
        Payload::Shutdown => None,
        Payload::Real(c) => Some((m.group.expect("resident messages carry a group"), c)),
        other => panic!("resident: expected grouped Real or Shutdown, got {other:?}"),
    }
}

/// A pooled block whose every element is about to be overwritten. Debug
/// builds poison it first, so an element the producer left out cannot
/// pass for data downstream.
fn take_block_for_overwrite<T: Copy + Default>(
    pool: &SharedBufferPool<T>,
    shape: [usize; 3],
    poison: T,
) -> Cube<T> {
    let mut block = pool.take_cube_for_overwrite(shape);
    if cfg!(debug_assertions) {
        block.as_mut_slice().fill(poison);
    }
    block
}

/// The blocks one beamform node sends pulse compression in a slot, one
/// per PC node, `[member * bins + bin][M][K]` with the node's bins that
/// PC node owns in ascending order. They are taken from the pool before
/// the slot is computed and the GEMM stores each bin's `[M][K]` plane
/// into them directly — the one write of the edge.
struct PcBlocks {
    /// Per PC node, how many of this node's bins it owns.
    counts: Vec<usize>,
    /// Per bin of this node: its PC node and its row among that node's.
    dest: Vec<(usize, usize)>,
    /// `[M, K]`, one bin of one member CPI.
    plane: [usize; 2],
    blocks: Vec<CCube>,
}

impl PcBlocks {
    /// `bins` are this node's Doppler bins (natural numbering) in order.
    fn new(ctx: &ResCtx, bins: impl Iterator<Item = usize>) -> Self {
        let mut counts = vec![0usize; ctx.parts.pc_bins.len()];
        let dest = bins
            .map(|bin| {
                let t = (ctx.parts.pc_bins.iter())
                    .position(|r| r.contains(&bin))
                    .expect("the PC nodes partition the Doppler bins");
                counts[t] += 1;
                (t, counts[t] - 1)
            })
            .collect();
        PcBlocks {
            blocks: Vec::with_capacity(counts.len()),
            counts,
            dest,
            plane: [ctx.params.m_beams, ctx.params.k_range],
        }
    }

    /// Draws the slot's blocks for a group of `b` member CPIs.
    fn take(&mut self, pool: &SharedBufferPool<Cx>, b: usize) {
        let [m, k] = self.plane;
        for &count in &self.counts {
            let poison = Cx::new(f64::NAN, f64::NAN);
            self.blocks
                .push(take_block_for_overwrite(pool, [b * count, m, k], poison));
        }
    }

    /// The `[M][K]` plane of member `u`'s `bi`-th bin.
    fn plane_mut(&mut self, u: usize, bi: usize) -> &mut [Cx] {
        let (t, row) = self.dest[bi];
        let plane = self.plane[0] * self.plane[1];
        &mut self.blocks[t].as_mut_slice()[(u * self.counts[t] + row) * plane..][..plane]
    }

    /// Sends the finished blocks; `covered` is how many elements the
    /// slot stored into them.
    fn send(
        &mut self,
        ctx: &ResCtx,
        comm: &mut Comm<Msg>,
        edge: Edge,
        slot: usize,
        group: &Arc<[SubCpi]>,
        covered: usize,
    ) {
        debug_assert_eq!(
            covered,
            self.blocks.iter().map(CCube::len).sum::<usize>(),
            "beamformer left out-block elements unwritten"
        );
        let pc0 = ctx.assign.rank_range(PC).start;
        for (t, block) in self.blocks.drain(..).enumerate() {
            comm.send(
                pc0 + t,
                tag(edge, slot),
                Msg::grouped(slot, group.clone(), Payload::Cube(block)),
            );
        }
    }

    /// Cascades a shutdown to every PC node.
    fn shutdown(&self, ctx: &ResCtx, comm: &mut Comm<Msg>, edge: Edge, slot: usize) {
        let pc0 = ctx.assign.rank_range(PC).start;
        for t in 0..self.counts.len() {
            comm.send(pc0 + t, tag(edge, slot), Msg::new(slot, Payload::Shutdown));
        }
    }
}

/// Resident Doppler (task 0): one grouped slab in, one cache-tiled pass
/// (taper, FFT, corner turn) over it, four grouped redistribution
/// blocks out.
fn resident_doppler(ctx: &ResCtx, comm: &mut Comm<Msg>, local: usize) -> TaskExit {
    let p = ctx.params;
    let my_k = ctx.parts.doppler_k[local].clone();
    let (k0, klen) = (my_k.start, my_k.len());
    let jj = 2 * p.j_channels;
    let proc = DopplerProcessor::new(p);
    let driver = ctx.assign.driver_rank();
    let easy_bins = p.easy_bins();
    let hard_bins = p.hard_bins();
    let pool = &ctx.pools.cx;
    // Row offsets within one sub-CPI's slab: the weight tasks take their
    // training cells, the beamformers every row.
    let easy_rows: Vec<usize> = easy_cells_in(p, &my_k).iter().map(|&c| c - k0).collect();
    let flat_rows: Vec<usize> = (0..p.num_segments())
        .flat_map(|s| hard_cells_in(p, s, &my_k))
        .map(|c| c - k0)
        .collect();
    let all_rows: Vec<usize> = (0..klen).collect();
    // Every out-block of a slot, in send order: (destination rank, edge,
    // corner-turn layout). The beamformers are on the latency path
    // (eq. 2), the weight tasks are not, so the beamformers' blocks go
    // first.
    let mut outs: Vec<(usize, Edge, BinBlock)> = Vec::new();
    for (task, edge, node_bins, bins, rows, channels) in [
        (
            EASY_BF,
            Edge::DopplerToEasyBf,
            &ctx.parts.easy_bf_bins,
            &easy_bins,
            &all_rows,
            p.j_channels,
        ),
        (
            HARD_BF,
            Edge::DopplerToHardBf,
            &ctx.parts.hard_bf_bins,
            &hard_bins,
            &all_rows,
            jj,
        ),
        (
            EASY_WT,
            Edge::DopplerToEasyWt,
            &ctx.parts.easy_wt_bins,
            &easy_bins,
            &easy_rows,
            p.j_channels,
        ),
        (
            HARD_WT,
            Edge::DopplerToHardWt,
            &ctx.parts.hard_wt_bins,
            &hard_bins,
            &flat_rows,
            jj,
        ),
    ] {
        let dst0 = ctx.assign.rank_range(task).start;
        for (q, bins_idx) in node_bins.iter().enumerate() {
            let layout = BinBlock::new(&bins[bins_idx.clone()], rows, klen, channels);
            outs.push((dst0 + q, edge, layout));
        }
    }
    let mut blocks: Vec<CCube> = Vec::with_capacity(outs.len());
    let mut ws = DopplerScratch::new();
    let mut health = PipelineHealth::default();
    let mut busy = 0.0f64;
    let mut slot = 0usize;
    loop {
        sample_mailbox(comm, &mut health);
        comm.fault_checkpoint(slot as u64);
        let m = comm.recv(driver, tag(Edge::Input, slot)).unwrap();
        let t_busy = Instant::now();
        let Some((group, slab)) = expect_grouped_cube(m) else {
            // Cascade the shutdown on all four out-edges.
            for (dst, edge, _) in &outs {
                comm.send(*dst, tag(*edge, slot), Msg::new(slot, Payload::Shutdown));
            }
            break;
        };
        let b = group.len();
        for (_, _, layout) in &outs {
            let poison = Cx::new(f64::NAN, f64::NAN);
            blocks.push(take_block_for_overwrite(pool, layout.shape(b), poison));
        }
        // The perf core: each tile is tapered, transformed and scattered
        // into all out-blocks while it is cache-resident.
        let mut covered = 0usize;
        proc.process_tiles_with(&slab, k0, b, &mut ws, |row0, tile| {
            for ((_, _, layout), block) in outs.iter().zip(&mut blocks) {
                covered += layout.scatter(tile, jj, p.n_pulses, row0, block.as_mut_slice());
            }
        });
        debug_assert_eq!(
            covered,
            blocks.iter().map(CCube::len).sum::<usize>(),
            "corner turn left out-block elements unwritten"
        );
        pool.recycle(slab);
        for ((dst, edge, _), block) in outs.iter().zip(blocks.drain(..)) {
            comm.send(
                *dst,
                tag(*edge, slot),
                Msg::grouped(slot, group.clone(), Payload::Cube(block)),
            );
        }
        busy += t_busy.elapsed().as_secs_f64();
        slot += 1;
    }
    health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    TaskExit::stateless(health, busy)
}

/// Receives one grouped block per Doppler node; `None` means shutdown
/// (remaining Doppler shutdowns drained).
fn recv_doppler_blocks(
    comm: &mut Comm<Msg>,
    dop0: usize,
    p0: usize,
    edge: Edge,
    slot: usize,
    blocks: &mut Vec<CCube>,
) -> Option<Arc<[SubCpi]>> {
    let mut group: Option<Arc<[SubCpi]>> = None;
    for dp in 0..p0 {
        let m = comm.recv(dop0 + dp, tag(edge, slot)).unwrap();
        match expect_grouped_cube(m) {
            Some((g, c)) => {
                group.get_or_insert(g);
                blocks.push(c);
            }
            None => {
                for dp2 in dp + 1..p0 {
                    let m2 = comm.recv(dop0 + dp2, tag(edge, slot)).unwrap();
                    assert!(
                        matches!(m2.payload, Payload::Shutdown),
                        "mixed shutdown/data within a slot"
                    );
                }
                return None;
            }
        }
    }
    Some(group.expect("at least one Doppler node"))
}

/// Rebuilds a node-local `(stream, beam) -> queue of per-bin entries`
/// map from globally-keyed carried state: picks this node's `bins_idx`
/// slice and re-zips the per-bin queues back into per-slot-entry rows
/// (inner `Vec` indexed by local bin), preserving queue order exactly.
fn import_ring<T: Clone>(
    carried: &HashMap<(u16, usize, usize), VecDeque<T>>,
    bins_idx: &Range<usize>,
) -> HashMap<(u16, usize), VecDeque<Vec<T>>> {
    let nbins = bins_idx.len();
    let mut out: HashMap<(u16, usize), VecDeque<Vec<T>>> = HashMap::new();
    let keys: std::collections::HashSet<(u16, usize)> = carried
        .keys()
        .filter(|(_, _, g)| bins_idx.contains(g))
        .map(|&(s, b, _)| (s, b))
        .collect();
    for (stream, beam) in keys {
        let len = carried
            .get(&(stream, beam, bins_idx.start))
            .map_or(0, VecDeque::len);
        let mut q: VecDeque<Vec<T>> = (0..len).map(|_| Vec::with_capacity(nbins)).collect();
        for bin in bins_idx.clone() {
            let d = carried
                .get(&(stream, beam, bin))
                .expect("carried state covers every bin of a (stream, beam)");
            assert_eq!(d.len(), len, "ragged carried queue");
            for (qi, item) in d.iter().enumerate() {
                q[qi].push(item.clone());
            }
        }
        out.insert((stream, beam), q);
    }
    out
}

/// Inverse of [`import_ring`]: unzips each `(stream, beam)` queue into
/// per-bin queues rebased to global bin keys (`bin0` = this node's
/// partition start).
fn export_ring<T>(
    rings: HashMap<(u16, usize), VecDeque<Vec<T>>>,
    bin0: usize,
) -> HashMap<(u16, usize, usize), VecDeque<T>> {
    let mut out = HashMap::new();
    for ((stream, beam), q) in rings {
        let len = q.len();
        let mut per_bin: Vec<VecDeque<T>> = Vec::new();
        for entry in q {
            if per_bin.is_empty() {
                per_bin = entry.iter().map(|_| VecDeque::with_capacity(len)).collect();
            }
            for (bi, item) in entry.into_iter().enumerate() {
                per_bin[bi].push_back(item);
            }
        }
        for (bi, d) in per_bin.into_iter().enumerate() {
            out.insert((stream, beam, bin0 + bi), d);
        }
    }
    out
}

/// The slot loop of both weight tasks: one block per Doppler node in,
/// `member` called for every member CPI of the group with the received
/// blocks and that CPI's slice of the outgoing messages (one run of
/// `per_bin` matrices per owned bin, in bin order), one grouped weight
/// message per overlapping BF node out — `[member CPI][bin][per_bin]`,
/// the order the wire has always carried. `bf` names the beamform task
/// fed and its bin partition.
fn weight_slots(
    ctx: &ResCtx,
    comm: &mut Comm<Msg>,
    (in_edge, out_edge): (Edge, Edge),
    bins_idx: &Range<usize>,
    (bf_task, bf_parts): (usize, &[Range<usize>]),
    per_bin: usize,
    mut member: impl FnMut(usize, &SubCpi, &[CCube], &mut dyn Iterator<Item = &mut [CMat]>),
) -> (PipelineHealth, f64) {
    let p0 = ctx.assign.nodes(DOPPLER);
    let dop0 = ctx.assign.rank_range(DOPPLER).start;
    // Destination BF nodes with their bin overlaps (slot-invariant). The
    // BF nodes partition the bins, so these overlaps are this node's
    // bins in order, each bin in exactly one of them.
    let bf0 = ctx.assign.rank_range(bf_task).start;
    let targets: Vec<(usize, Range<usize>)> = bf_parts
        .iter()
        .enumerate()
        .filter_map(|(r, bf_bins)| {
            let ov = overlap(bins_idx, bf_bins);
            (!ov.is_empty()).then_some((bf0 + r, ov))
        })
        .collect();
    let mut per_node: Vec<Vec<CMat>> = targets.iter().map(|_| Vec::new()).collect();
    let mut blocks: Vec<CCube> = Vec::with_capacity(p0);
    let mut health = PipelineHealth::default();
    let mut busy = 0.0f64;
    let mut slot = 0usize;
    loop {
        sample_mailbox(comm, &mut health);
        comm.fault_checkpoint(slot as u64);
        let Some(group) = recv_doppler_blocks(comm, dop0, p0, in_edge, slot, &mut blocks) else {
            for (dst, _) in &targets {
                comm.send(*dst, tag(out_edge, slot), Msg::new(slot, Payload::Shutdown));
            }
            break;
        };
        let t_busy = Instant::now();
        for (w, (_, ov)) in per_node.iter_mut().zip(&targets) {
            w.resize(group.len() * ov.len() * per_bin, CMat::zeros(0, 0));
        }
        for (u, sub) in group.iter().enumerate() {
            let mut weights = per_node.iter_mut().zip(&targets).flat_map(|(w, (_, ov))| {
                w[u * ov.len() * per_bin..][..ov.len() * per_bin].chunks_mut(per_bin)
            });
            member(u, sub, &blocks, &mut weights);
        }
        for block in blocks.drain(..) {
            ctx.pools.cx.recycle(block);
        }
        for ((dst, _), w) in targets.iter().zip(&mut per_node) {
            comm.send(
                *dst,
                tag(out_edge, slot),
                Msg::grouped(slot, group.clone(), Payload::Weights(std::mem::take(w))),
            );
        }
        busy += t_busy.elapsed().as_secs_f64();
        slot += 1;
    }
    health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    (health, busy)
}

/// Drops the calling thread to the lowest scheduling priority (nice 19).
/// The weight tasks are off the latency path — their output is consumed
/// a slot late (eq. 2) — so a woken Doppler, beamform, pulse-compression
/// or CFAR thread should preempt them rather than queue behind them.
/// Best effort: nothing happens off Linux or when the call fails.
fn run_at_background_priority() {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_uint};
        extern "C" {
            fn setpriority(which: c_int, who: c_uint, prio: c_int) -> c_int;
        }
        const PRIO_PROCESS: c_int = 0;
        // SAFETY: `setpriority(2)` as libc (which std links) declares it:
        // three integers by value, no pointers, no memory touched. With
        // `PRIO_PROCESS` and `who` 0 Linux applies the nice value to the
        // calling thread only; raising one's own nice value needs no
        // privilege, and a failure (-1) leaves the thread as it was.
        let _ = unsafe { setpriority(PRIO_PROCESS, 0, 19) };
    }
}

/// Piece `dp`'s `[cell][channel]` plane of member `u`'s `bi`-th bin in
/// the blocks a weight task received.
fn member_plane<'a>(
    blocks: &'a [CCube],
    u: usize,
    nbins: usize,
) -> impl Fn(usize, usize) -> &'a [Cx] {
    move |dp, bi| {
        let [_, cells, channels] = blocks[dp].shape();
        &blocks[dp].as_slice()[(u * nbins + bi) * cells * channels..][..cells * channels]
    }
}

/// Resident easy weight (task 1): the lane-batched dense solve of this
/// node's bins over per-(stream, beam) history rings; the rings leave
/// lane layout only to be exported as [`ResidentState::easy_history`]
/// when the session drains.
fn resident_easy_weight(ctx: &ResCtx, comm: &mut Comm<Msg>, local: usize) -> TaskExit {
    run_at_background_priority();
    let p = ctx.params;
    let bins_idx = ctx.parts.easy_wt_bins[local].clone();
    let nbins = bins_idx.len();
    let beams = ctx.steering.len();
    // Each Doppler node's block holds its share of the training cells.
    let dp_cells: Vec<usize> = (ctx.parts.doppler_k.iter())
        .map(|kr| easy_cells_in(p, kr).len())
        .collect();
    let mut lanes = EasyWeightLanes::new(p, nbins, &dp_cells);
    for (&(stream, beam, bin), history) in &ctx.carry.easy_history {
        if bins_idx.contains(&bin) {
            lanes.import((stream, beam), bin - bins_idx.start, history);
        }
    }
    let (health, busy) = weight_slots(
        ctx,
        comm,
        (Edge::DopplerToEasyWt, Edge::EasyWtToEasyBf),
        &bins_idx,
        (EASY_BF, &ctx.parts.easy_bf_bins),
        1,
        |u, sub, blocks, weights| {
            let beam = sub.scpi as usize % beams;
            lanes.process(
                (sub.stream, beam),
                &ctx.steering[beam],
                member_plane(blocks, u, nbins),
                weights.map(|w| &mut w[0]),
            );
        },
    );
    TaskExit::stateful(ctx, health, busy, || {
        TaskState::EasyWt(
            lanes
                .export()
                .map(|((s, bm), bi, history)| ((s, bm, bins_idx.start + bi), history))
                .collect(),
        )
    })
}

/// Resident hard weight (task 2): the lane-batched QR recursion of this
/// node's bins, keyed (stream, beam); it leaves lane layout only to be
/// exported as [`ResidentState::hard_r`] when the session drains.
fn resident_hard_weight(ctx: &ResCtx, comm: &mut Comm<Msg>, local: usize) -> TaskExit {
    run_at_background_priority();
    let p = ctx.params;
    let bins_idx = ctx.parts.hard_wt_bins[local].clone();
    let nbins = bins_idx.len();
    let beams = ctx.steering.len();
    let segs = p.num_segments();
    // Each Doppler node's block holds its share of every segment's
    // training cells, segment after segment.
    let dp_counts: Vec<Vec<usize>> = (ctx.parts.doppler_k.iter())
        .map(|kr| (0..segs).map(|s| hard_cells_in(p, s, kr).len()).collect())
        .collect();
    let mut lanes = HardWeightLanes::new(p, &p.hard_bins()[bins_idx.clone()], &dp_counts);
    for (&(stream, beam, bin, seg), r) in &ctx.carry.hard_r {
        if bins_idx.contains(&bin) {
            lanes.import((stream, beam), bin - bins_idx.start, seg, r);
        }
    }
    let (health, busy) = weight_slots(
        ctx,
        comm,
        (Edge::DopplerToHardWt, Edge::HardWtToHardBf),
        &bins_idx,
        (HARD_BF, &ctx.parts.hard_bf_bins),
        segs,
        |u, sub, blocks, weights| {
            let beam = sub.scpi as usize % beams;
            lanes.process(
                (sub.stream, beam),
                &ctx.steering[beam],
                member_plane(blocks, u, nbins),
                weights,
            );
        },
    );
    TaskExit::stateful(ctx, health, busy, || {
        TaskState::HardWt(
            lanes
                .export()
                .map(|((s, bm), bi, seg, r)| ((s, bm, bins_idx.start + bi, seg), r))
                .collect(),
        )
    })
}

/// A beamform node's pending weights: per-(stream, beam) FIFOs of weight
/// sets, one `T` per bin of the node, fed from the weight messages of
/// the slots the node has beamformed. Popping the front of a member's
/// FIFO yields the set computed from `(stream, scpi - beams)`.
struct WeightFifos<T> {
    /// The weight nodes feeding this node, each with its overlap of the
    /// node's bins; the overlaps are the node's bins in order.
    sources: Vec<(usize, Range<usize>)>,
    edge: Edge,
    beams: usize,
    /// Matrices per bin in a weight message, and how they make a `T`.
    per_bin: usize,
    unpack: fn(&mut std::vec::IntoIter<CMat>, usize) -> T,
    queues: HashMap<(u16, usize), VecDeque<Vec<T>>>,
    /// Slots whose weight messages have been pushed.
    pushed: usize,
    /// Seconds blocked on a slot's own weights before its GEMM — idle
    /// time inside the node's busy timer.
    waited: f64,
}

impl<T> WeightFifos<T> {
    /// Push phase: receives slot `slot`'s weight messages
    /// (`[member][bin][per_bin]` each) and moves each member CPI's
    /// freshly-computed per-bin set to the back of that member's FIFO.
    /// Does nothing when the slot was already pushed.
    fn push_slot(&mut self, comm: &mut Comm<Msg>, slot: usize, group: &[SubCpi]) {
        if self.pushed > slot {
            return;
        }
        let mut fresh: Vec<std::vec::IntoIter<CMat>> = (self.sources.iter())
            .map(|(src, ov)| {
                let m = comm.recv(*src, tag(self.edge, slot)).unwrap();
                let w = expect_weights(m.payload);
                let want = group.len() * ov.len() * self.per_bin;
                assert_eq!(w.len(), want, "weights from overlap source");
                w.into_iter()
            })
            .collect();
        for sub in group {
            let set: Vec<T> = (fresh.iter_mut().zip(&self.sources))
                .flat_map(|(w, (_, ov))| ov.clone().map(|_| (self.unpack)(w, self.per_bin)))
                .collect();
            let key = (sub.stream, sub.scpi as usize % self.beams);
            self.queues.entry(key).or_default().push_back(set);
        }
        self.pushed = slot + 1;
    }

    /// The weights member `sub` (`scpi >= beams`) of slot `slot` is
    /// beamformed with. Every earlier slot's weights were pushed after
    /// that slot's send, so they wait in the FIFO and the slot's own
    /// weight messages are off its latency path (eq. 2) — unless the
    /// slot also carries `scpi - beams` of this stream: then the FIFO is
    /// empty and the slot is pushed here, before its GEMM.
    fn pop(&mut self, comm: &mut Comm<Msg>, slot: usize, group: &[SubCpi], sub: &SubCpi) -> Vec<T> {
        let key = (sub.stream, sub.scpi as usize % self.beams);
        let front = |queues: &mut HashMap<(u16, usize), VecDeque<Vec<T>>>| {
            queues.get_mut(&key).and_then(VecDeque::pop_front)
        };
        front(&mut self.queues).unwrap_or_else(|| {
            let t_wait = Instant::now();
            self.push_slot(comm, slot, group);
            self.waited += t_wait.elapsed().as_secs_f64();
            front(&mut self.queues)
                .expect("weight FIFO underflow: streams must submit CPIs in order")
        })
    }

    /// Drains the weight edge's shutdowns (the Doppler shutdowns of
    /// `slot` were received).
    fn drain_shutdown(&self, comm: &mut Comm<Msg>, slot: usize) {
        for (src, _) in &self.sources {
            let m = comm.recv(*src, tag(self.edge, slot)).unwrap();
            assert!(matches!(m.payload, Payload::Shutdown));
        }
    }
}

/// Resident easy beamform (task 3): per-(stream, beam) weight FIFOs,
/// consume, send, then push per slot.
fn resident_easy_bf(ctx: &ResCtx, comm: &mut Comm<Msg>, local: usize) -> TaskExit {
    let p = ctx.params;
    let bins_idx = ctx.parts.easy_bf_bins[local].clone();
    let nbins = bins_idx.len();
    let easy_bins = p.easy_bins();
    let p0 = ctx.assign.nodes(DOPPLER);
    let dop0 = ctx.assign.rank_range(DOPPLER).start;
    let beams = ctx.steering.len();
    let pool = &ctx.pools.cx;
    let mut wts = WeightFifos {
        sources: weight_sources(
            &ctx.parts.easy_wt_bins,
            &bins_idx,
            ctx.assign.rank_range(EASY_WT).start,
        ),
        edge: Edge::EasyWtToEasyBf,
        beams,
        per_bin: 1,
        unpack: |w, _| w.next().expect("length checked"),
        queues: import_ring(&ctx.carry.easy_fifo, &bins_idx),
        pushed: 0,
        waited: 0.0,
    };
    let mut outs = PcBlocks::new(ctx, bins_idx.clone().map(|bn| easy_bins[bn]));
    // The GEMM operands, packed once each: the bin's `J x K` data
    // straight from the wire blocks, the weights conjugate-transposed.
    let mut data = PlanarMat::zeros(p.j_channels, p.k_range);
    let mut wpack = PlanarMat::new();
    // One received block per Doppler node, kept until the slot is
    // computed: the GEMM operand is packed straight from them.
    let mut blocks: Vec<CCube> = Vec::with_capacity(p0);
    let mut health = PipelineHealth::default();
    let mut busy = 0.0f64;
    let mut slot = 0usize;
    loop {
        sample_mailbox(comm, &mut health);
        comm.fault_checkpoint(slot as u64);
        let Some(group) =
            recv_doppler_blocks(comm, dop0, p0, Edge::DopplerToEasyBf, slot, &mut blocks)
        else {
            // The Doppler shutdowns were drained; drain the weight-edge
            // shutdowns, cascade to PC and exit.
            wts.drain_shutdown(comm, slot);
            outs.shutdown(ctx, comm, Edge::EasyBfToPc, slot);
            break;
        };
        let t_busy = Instant::now();
        let b = group.len();

        // Consume phase: beamform each member with the weights computed
        // from its own stream's CPI `scpi - beams` (quiescent before the
        // first revisit), exactly the per-stream serial schedule.
        outs.take(pool, b);
        let mut covered = 0usize;
        for (u, sub) in group.iter().enumerate() {
            let weights: Vec<CMat> = if (sub.scpi as usize) < beams {
                let beam = sub.scpi as usize % beams;
                vec![normalize_columns(ctx.steering[beam].clone()); nbins]
            } else {
                wts.pop(comm, slot, &group, sub)
            };
            for (bi, w) in weights.iter().enumerate() {
                for (block, kr) in blocks.iter().zip(&ctx.parts.doppler_k) {
                    let plane = kr.len() * p.j_channels;
                    let rows = &block.as_slice()[(u * nbins + bi) * plane..][..plane];
                    data.pack_cols_transposed(kr.start, rows);
                }
                wpack.pack_hermitian_from(w);
                // The product lands in the bin's `[M][K]` plane of the
                // block its PC node receives.
                let plane = outs.plane_mut(u, bi);
                gemm_planar_into_strided(&wpack, &data, plane, p.k_range);
                covered += plane.len();
            }
        }
        for block in blocks.drain(..) {
            pool.recycle(block);
        }
        outs.send(ctx, comm, Edge::EasyBfToPc, slot, &group, covered);
        busy += t_busy.elapsed().as_secs_f64();
        // Push phase, after the send: the weight task may still be at
        // work on this slot, at most one slot behind the chain, and the
        // wait for it is idle time like any other blocked receive.
        wts.push_slot(comm, slot, &group);
        slot += 1;
    }
    health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    TaskExit::stateful(ctx, health, busy - wts.waited, || {
        TaskState::EasyBf(export_ring(wts.queues, bins_idx.start))
    })
}

/// Resident hard beamform (task 4): per-(bin, segment) weight sets in
/// per-(stream, beam) FIFOs.
fn resident_hard_bf(ctx: &ResCtx, comm: &mut Comm<Msg>, local: usize) -> TaskExit {
    let p = ctx.params;
    let bins_idx = ctx.parts.hard_bf_bins[local].clone();
    let nbins = bins_idx.len();
    let hard_bins = p.hard_bins();
    let p0 = ctx.assign.nodes(DOPPLER);
    let dop0 = ctx.assign.rank_range(DOPPLER).start;
    let beams = ctx.steering.len();
    let jj = 2 * p.j_channels;
    let segs = p.num_segments();
    let pool = &ctx.pools.cx;
    // A weight message is `[member][bin][segment]`.
    let mut wts = WeightFifos {
        sources: weight_sources(
            &ctx.parts.hard_wt_bins,
            &bins_idx,
            ctx.assign.rank_range(HARD_WT).start,
        ),
        edge: Edge::HardWtToHardBf,
        beams,
        per_bin: segs,
        unpack: |w, segs| w.take(segs).collect::<Vec<CMat>>(),
        queues: import_ring(&ctx.carry.hard_fifo, &bins_idx),
        pushed: 0,
        waited: 0.0,
    };
    let mut outs = PcBlocks::new(ctx, bins_idx.clone().map(|bn| hard_bins[bn]));
    let seg_ranges: Vec<Range<usize>> = (0..segs).map(|s| p.segment_range(s)).collect();
    let mut data: Vec<PlanarMat> = seg_ranges
        .iter()
        .map(|r| PlanarMat::zeros(jj, r.len()))
        .collect();
    let mut wpack = PlanarMat::new();
    let mut blocks: Vec<CCube> = Vec::with_capacity(p0);
    let mut health = PipelineHealth::default();
    let mut busy = 0.0f64;
    let mut slot = 0usize;

    let quiescent = |beam: usize| -> Vec<Vec<CMat>> {
        bins_idx
            .clone()
            .map(|bn| {
                let bin = hard_bins[bn];
                let phase = Cx::cis(
                    2.0 * std::f64::consts::PI * bin as f64 * p.stagger as f64 / p.n_pulses as f64,
                );
                let s = &ctx.steering[beam];
                let w = CMat::from_fn(jj, p.m_beams, |r, c| {
                    if r < p.j_channels {
                        s[(r, c)]
                    } else {
                        s[(r - p.j_channels, c)] * phase
                    }
                });
                vec![normalize_columns(w); segs]
            })
            .collect()
    };

    loop {
        sample_mailbox(comm, &mut health);
        comm.fault_checkpoint(slot as u64);
        let Some(group) =
            recv_doppler_blocks(comm, dop0, p0, Edge::DopplerToHardBf, slot, &mut blocks)
        else {
            wts.drain_shutdown(comm, slot);
            outs.shutdown(ctx, comm, Edge::HardBfToPc, slot);
            break;
        };
        let t_busy = Instant::now();
        let b = group.len();

        // Consume, send, then push, as in easy BF.
        outs.take(pool, b);
        let mut covered = 0usize;
        for (u, sub) in group.iter().enumerate() {
            let weights: Vec<Vec<CMat>> = if (sub.scpi as usize) < beams {
                quiescent(sub.scpi as usize % beams)
            } else {
                wts.pop(comm, slot, &group, sub)
            };
            for (bi, seg_weights) in weights.iter().enumerate() {
                for seg in 0..segs {
                    let r = &seg_ranges[seg];
                    for (block, kr) in blocks.iter().zip(&ctx.parts.doppler_k) {
                        let ov = overlap(kr, r);
                        if ov.is_empty() {
                            continue;
                        }
                        let plane = kr.len() * jj;
                        let rows = &block.as_slice()[(u * nbins + bi) * plane..][..plane];
                        data[seg].pack_cols_transposed(
                            ov.start - r.start,
                            &rows[(ov.start - kr.start) * jj..][..ov.len() * jj],
                        );
                    }
                    wpack.pack_hermitian_from(&seg_weights[seg]);
                    // The segment's `M x len` product lands in its
                    // columns of the bin's `[M][K]` plane.
                    let plane = outs.plane_mut(u, bi);
                    gemm_planar_into_strided(&wpack, &data[seg], &mut plane[r.start..], p.k_range);
                    covered += p.m_beams * r.len();
                }
            }
        }
        for block in blocks.drain(..) {
            pool.recycle(block);
        }
        outs.send(ctx, comm, Edge::HardBfToPc, slot, &group, covered);
        busy += t_busy.elapsed().as_secs_f64();
        wts.push_slot(comm, slot, &group);
        slot += 1;
    }
    health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    TaskExit::stateful(ctx, health, busy - wts.waited, || {
        TaskState::HardBf(export_ring(wts.queues, bins_idx.start))
    })
}

/// Resident pulse compression (task 5): each received beamform block is
/// compressed in place as it arrives, lane by lane, the power written
/// straight into the blocks CFAR receives.
fn resident_pc(ctx: &ResCtx, comm: &mut Comm<Msg>, local: usize) -> TaskExit {
    let p = ctx.params;
    let my_bins = ctx.parts.pc_bins[local].clone();
    let easy_bins = p.easy_bins();
    let hard_bins = p.hard_bins();
    let compressor = PulseCompressor::new(p);
    // Per feeding BF node: its rank, its edge and which of my bins its
    // block holds.
    let mut feeders: Vec<(usize, Edge, Vec<usize>)> = Vec::new();
    for (task, edge, parts, bins) in [
        (
            EASY_BF,
            Edge::EasyBfToPc,
            &ctx.parts.easy_bf_bins,
            &easy_bins,
        ),
        (
            HARD_BF,
            Edge::HardBfToPc,
            &ctx.parts.hard_bf_bins,
            &hard_bins,
        ),
    ] {
        for (r, idx) in parts.iter().enumerate() {
            let mine = (idx.clone().map(|bn| bins[bn]))
                .filter(|bn| my_bins.contains(bn))
                .collect();
            feeders.push((ctx.assign.rank_range(task).start + r, edge, mine));
        }
    }
    // Per CFAR node, the bins of mine it owns; per bin of mine, its CFAR
    // node and its row among that node's.
    let cfar0 = ctx.assign.rank_range(CFAR).start;
    let cfar_ov: Vec<Range<usize>> = (ctx.parts.cfar_bins.iter())
        .map(|c| overlap(&my_bins, c))
        .collect();
    let dest: Vec<(usize, usize)> = (my_bins.clone())
        .map(|bn| {
            let c = (cfar_ov.iter().position(|ov| ov.contains(&bn)))
                .expect("the CFAR nodes partition the Doppler bins");
            (c, bn - cfar_ov[c].start)
        })
        .collect();
    let plane = p.m_beams * p.k_range;
    let mut powers: Vec<RCube> = Vec::with_capacity(cfar_ov.len());
    let mut fft_ws = FftScratch::new();
    let mut health = PipelineHealth::default();
    let mut busy = 0.0f64;
    let mut slot = 0usize;
    'outer: loop {
        sample_mailbox(comm, &mut health);
        comm.fault_checkpoint(slot as u64);
        let mut group: Option<Arc<[SubCpi]>> = None;
        let mut covered = 0usize;
        for (fi, (src, edge, bins)) in feeders.iter().enumerate() {
            let m = comm.recv(*src, tag(*edge, slot)).unwrap();
            let Some((g, mut block)) = expect_grouped_cube(m) else {
                for (src2, edge2, _) in feeders.iter().skip(fi + 1) {
                    let m2 = comm.recv(*src2, tag(*edge2, slot)).unwrap();
                    assert!(matches!(m2.payload, Payload::Shutdown));
                }
                for c in 0..cfar_ov.len() {
                    comm.send(
                        cfar0 + c,
                        tag(Edge::PcToCfar, slot),
                        Msg::new(slot, Payload::Shutdown),
                    );
                }
                break 'outer;
            };
            let t_busy = Instant::now();
            let b = g.len();
            if group.is_none() {
                for ov in &cfar_ov {
                    let shape = [b * ov.len(), p.m_beams, p.k_range];
                    powers.push(take_block_for_overwrite(&ctx.pools.real, shape, f64::NAN));
                }
                group = Some(g);
            }
            let bl = bins.len();
            debug_assert_eq!(block.shape(), [b * bl, p.m_beams, p.k_range]);
            for (row, lanes) in block.as_mut_slice().chunks_exact_mut(plane).enumerate() {
                let (c, at) = dest[bins[row % bl] - my_bins.start];
                let at = (row / bl) * cfar_ov[c].len() + at;
                let power = &mut powers[c].as_mut_slice()[at * plane..][..plane];
                compressor.compress_in_place(lanes, power, &mut fft_ws);
                covered += plane;
            }
            ctx.pools.cx.recycle(block);
            busy += t_busy.elapsed().as_secs_f64();
        }
        let group = group.expect("at least one feeder");
        debug_assert_eq!(
            covered,
            powers.iter().map(RCube::len).sum::<usize>(),
            "pulse compression left power-block elements unwritten"
        );
        for (c, block) in powers.drain(..).enumerate() {
            comm.send(
                cfar0 + c,
                tag(Edge::PcToCfar, slot),
                Msg::grouped(slot, group.clone(), Payload::Real(block)),
            );
        }
        slot += 1;
    }
    health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    TaskExit::stateless(health, busy)
}

/// Resident CFAR (task 6): the detector runs over the received power
/// blocks where they lie, in bin order; per-member detection lists go to
/// the driver in one grouped `DetectionsGroup` message per slot.
fn resident_cfar(ctx: &ResCtx, comm: &mut Comm<Msg>, local: usize) -> TaskExit {
    let p = ctx.params;
    let my_bins = ctx.parts.cfar_bins[local].clone();
    let driver = ctx.assign.driver_rank();
    // One block per PC node, holding its ascending share of my bins.
    let feeders: Vec<(usize, Range<usize>)> = ctx
        .parts
        .pc_bins
        .iter()
        .enumerate()
        .map(|(t, r)| (ctx.assign.rank_range(PC).start + t, overlap(r, &my_bins)))
        .collect();
    let mut blocks: Vec<RCube> = Vec::with_capacity(feeders.len());
    let mut scratch = cfar::CfarScratch::for_task(p, my_bins.len());
    let mut health = PipelineHealth::default();
    let mut busy = 0.0f64;
    let mut slot = 0usize;
    'outer: loop {
        sample_mailbox(comm, &mut health);
        comm.fault_checkpoint(slot as u64);
        let mut group: Option<Arc<[SubCpi]>> = None;
        for (fi, (src, _)) in feeders.iter().enumerate() {
            let m = comm.recv(*src, tag(Edge::PcToCfar, slot)).unwrap();
            let Some((g, block)) = expect_grouped_real(m) else {
                for (src2, _) in feeders.iter().skip(fi + 1) {
                    let m2 = comm.recv(*src2, tag(Edge::PcToCfar, slot)).unwrap();
                    assert!(matches!(m2.payload, Payload::Shutdown));
                }
                break 'outer;
            };
            group.get_or_insert(g);
            blocks.push(block);
        }
        let group = group.expect("at least one PC node");
        let t_busy = Instant::now();
        let b = group.len();
        // The message to the driver: per member CPI its detections and,
        // when screening, whether its power held non-finite samples —
        // each member's lanes are disjoint rows of the blocks, so a
        // poisoned tenant degrades its own CPI, never its slot-mates'.
        let mut per_sub: Vec<Vec<Detection>> = Vec::with_capacity(b);
        let mut mask: Vec<bool> = Vec::with_capacity(if ctx.screen { b } else { 0 });
        for u in 0..b {
            scratch.begin_cpi();
            let mut poisoned = false;
            for (block, (_, ov)) in blocks.iter().zip(&feeders) {
                debug_assert_eq!(block.shape()[0], b * ov.len());
                for (i, bin) in ov.clone().enumerate() {
                    for m in 0..p.m_beams {
                        let lane = block.lane(u * ov.len() + i, m);
                        if ctx.screen && !lane.iter().all(|v| v.is_finite()) {
                            poisoned = true;
                        }
                        cfar::cfar_lane(p, lane, bin, m, &mut scratch.detections);
                    }
                }
            }
            if ctx.screen {
                mask.push(poisoned);
            }
            per_sub.push(scratch.take());
        }
        for block in blocks.drain(..) {
            ctx.pools.real.recycle(block);
        }
        comm.send(
            driver,
            tag(Edge::Output, slot),
            Msg::grouped(slot, group.clone(), Payload::DetectionsGroup(per_sub, mask)),
        );
        busy += t_busy.elapsed().as_secs_f64();
        slot += 1;
    }
    health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    TaskExit::stateless(health, busy)
}

/// One CPI for one Doppler node: the admitted cube *is* the input slab,
/// so the driver forwards it instead of copying it into a pooled slab
/// (and [`ResidentStap::reserve`] provisions no slab for that case).
fn forwards_admitted_cube(group_len: usize, parts: &Partitions) -> bool {
    group_len == 1 && parts.doppler_k.len() == 1
}

/// The driver arm of a resident session: windowed slot injection from
/// the jobs channel, completion collection, shutdown cascade.
fn resident_driver(
    ctx: &ResCtx,
    comm: &mut Comm<Msg>,
    window: usize,
    jobs: Receiver<Vec<CpiJob>>,
    done: Sender<CpiDone>,
) -> (PipelineHealth, u64, u64) {
    let p = ctx.params;
    let dop0 = ctx.assign.rank_range(DOPPLER).start;
    let cfar_ranks: Vec<usize> = ctx.assign.rank_range(CFAR).collect();
    let mut inflight: VecDeque<(Arc<[SubCpi]>, Vec<Instant>)> = VecDeque::with_capacity(window);
    let mut health = PipelineHealth::default();
    let mut next_slot = 0usize;
    let mut collected = 0usize;
    let mut cpis = 0u64;
    let mut open = true;
    while open || collected < next_slot {
        comm.fault_checkpoint(next_slot as u64);
        // Fill the window. Block for the first job only when nothing is
        // in flight; otherwise prefer draining completed slots.
        while open && next_slot - collected < window {
            let batch = if collected < next_slot {
                match jobs.try_recv() {
                    Ok(bt) => Some(bt),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            } else {
                match jobs.recv() {
                    Ok(bt) => Some(bt),
                    Err(_) => {
                        open = false;
                        break;
                    }
                }
            };
            let Some(batch) = batch else { break };
            if batch.is_empty() {
                continue;
            }
            assert!(
                batch.len() <= ctx.max_group,
                "slot group of {} exceeds max_group {}",
                batch.len(),
                ctx.max_group
            );
            let b = batch.len();
            let group: Arc<[SubCpi]> = batch
                .iter()
                .map(|j| SubCpi {
                    stream: j.stream,
                    scpi: j.scpi,
                })
                .collect();
            let submitted: Vec<Instant> = batch.iter().map(|j| j.submitted).collect();
            if forwards_admitted_cube(b, ctx.parts) {
                let job = batch.into_iter().next().expect("b == 1");
                assert_eq!(
                    job.cube.shape(),
                    [p.k_range, p.j_channels, p.n_pulses],
                    "CPI cube shape"
                );
                comm.send(
                    dop0,
                    tag(Edge::Input, next_slot),
                    Msg::grouped(next_slot, group.clone(), Payload::Cube(job.cube)),
                );
            } else {
                for (pn, kr) in ctx.parts.doppler_k.iter().enumerate() {
                    let klen = kr.len();
                    // Axis 0 is the slowest axis, so each sub-CPI's k-slab
                    // is one contiguous run: assemble the group slab with b
                    // slice copies rather than an element-wise rebuild.
                    let row = p.j_channels * p.n_pulses;
                    let mut buf = ctx.pools.cx.get(b * klen * row);
                    for job in &batch {
                        buf.extend_from_slice(&job.cube.as_slice()[kr.start * row..kr.end * row]);
                    }
                    let slab = CCube::from_vec([b * klen, p.j_channels, p.n_pulses], buf);
                    comm.send(
                        dop0 + pn,
                        tag(Edge::Input, next_slot),
                        Msg::grouped(next_slot, group.clone(), Payload::Cube(slab)),
                    );
                }
                for job in batch {
                    ctx.pools.cx.recycle(job.cube);
                }
            }
            inflight.push_back((group, submitted));
            next_slot += 1;
        }
        if collected < next_slot {
            sample_mailbox(comm, &mut health);
            let (group, submitted) = inflight.pop_front().unwrap();
            let b = group.len();
            let mut per_sub: Vec<Vec<Detection>> = (0..b).map(|_| Vec::new()).collect();
            let mut degraded = vec![false; b];
            for &src in &cfar_ranks {
                let m = comm.recv(src, tag(Edge::Output, collected)).unwrap();
                match m.payload {
                    Payload::DetectionsGroup(gs, mask) => {
                        debug_assert_eq!(gs.len(), b);
                        for (u, ds) in gs.into_iter().enumerate() {
                            per_sub[u].extend(ds);
                        }
                        for (u, &bad) in mask.iter().enumerate() {
                            degraded[u] |= bad;
                        }
                    }
                    other => panic!("resident driver: expected DetectionsGroup, got {other:?}"),
                }
            }
            let now = Instant::now();
            for (u, mut ds) in per_sub.into_iter().enumerate() {
                ds.sort_by_key(|d| (d.bin, d.beam, d.range));
                if degraded[u] {
                    health.degraded_cpis += 1;
                }
                // A closed `done` receiver is fine: keep draining.
                let _ = done.send(CpiDone {
                    stream: group[u].stream,
                    scpi: group[u].scpi,
                    detections: ds,
                    latency: now.duration_since(submitted[u]).as_secs_f64(),
                    degraded: degraded[u],
                });
            }
            cpis += b as u64;
            collected += 1;
        }
    }
    // Every slot drained: cascade the shutdown from the input edge.
    for pn in 0..ctx.parts.doppler_k.len() {
        comm.send(
            dop0 + pn,
            tag(Edge::Input, next_slot),
            Msg::new(next_slot, Payload::Shutdown),
        );
    }
    health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    (health, cpis, next_slot as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ParallelStap;
    use std::sync::mpsc;

    type Bits = Vec<(usize, usize, usize, u64)>;

    fn bits(ds: &[Detection]) -> Bits {
        ds.iter()
            .map(|d| (d.bin, d.beam, d.range, d.power.to_bits()))
            .collect()
    }

    /// One stream's detections from the sequential reference, bit for bit.
    fn sequential_bits(params: &StapParams, sc: &Scenario, cubes: &[CCube]) -> Vec<Bits> {
        let mut seq = stap_core::SequentialStap::for_scenario(params.clone(), sc);
        let beams = seq.steering.len();
        cubes
            .iter()
            .enumerate()
            .map(|(i, c)| bits(&seq.process_cpi(i % beams, c).detections))
            .collect()
    }

    /// Interleaved multi-stream resident processing must be
    /// bit-identical to running each stream through the batch pipeline
    /// on its own.
    #[test]
    fn interleaved_streams_match_per_stream_batch_runs() {
        let params = StapParams::reduced();
        let seeds = [11u64, 23u64, 47u64];
        let per_stream = 5usize;
        let scenarios: Vec<Scenario> = seeds.iter().map(|&s| Scenario::reduced(s)).collect();
        let streams: Vec<Vec<CCube>> = scenarios
            .iter()
            .map(|sc| sc.stream(per_stream).map(|(_, _, c)| c).collect())
            .collect();

        // Per-stream serial baselines (batch pipeline, same steering).
        let mut want: Vec<Vec<Vec<Detection>>> = Vec::new();
        for (sc, cubes) in scenarios.iter().zip(&streams) {
            let par = ParallelStap::for_scenario(params.clone(), NodeAssignment::tiny(), sc);
            want.push(par.run(cubes.clone()).detections);
        }

        // Resident run: one slot per CPI index carrying all three
        // streams' cubes (steering fans are per-scenario; use stream 0's
        // scenario for construction — all reduced scenarios share the
        // same transmit beams and geometry).
        let res = ResidentStap::for_scenario(params, NodeAssignment::tiny(), &scenarios[0])
            .with_max_group(seeds.len());
        res.reserve(seeds.len(), 1);
        let (jobs_tx, jobs_rx) = mpsc::sync_channel(4);
        let (done_tx, done_rx) = mpsc::channel();
        let pool = res.pools().cx.clone();
        let feeder = std::thread::spawn(move || {
            for scpi in 0..per_stream {
                let batch: Vec<CpiJob> = streams
                    .iter()
                    .enumerate()
                    .map(|(s, cubes)| {
                        let c = &cubes[scpi];
                        CpiJob {
                            stream: s as u16,
                            scpi: scpi as u32,
                            cube: pool.take_cube(c.shape(), |i, j, k| c[(i, j, k)]),
                            submitted: Instant::now(),
                        }
                    })
                    .collect();
                jobs_tx.send(batch).unwrap();
            }
        });
        let summary = res.serve(jobs_rx, done_tx).unwrap();
        feeder.join().unwrap();
        assert_eq!(summary.cpis as usize, seeds.len() * per_stream);
        assert_eq!(summary.slots as usize, per_stream);

        let mut got: Vec<Vec<Vec<Detection>>> = vec![vec![Vec::new(); per_stream]; seeds.len()];
        let mut n = 0;
        while let Ok(d) = done_rx.recv() {
            assert!(d.latency >= 0.0);
            got[d.stream as usize][d.scpi as usize] = d.detections;
            n += 1;
        }
        assert_eq!(n, seeds.len() * per_stream);
        for (s, (g, w)) in got.iter().zip(&want).enumerate() {
            for (i, (gd, wd)) in g.iter().zip(w).enumerate() {
                assert_eq!(gd.len(), wd.len(), "stream {s} CPI {i} detection count");
                for (a, b) in gd.iter().zip(wd) {
                    assert_eq!((a.bin, a.beam, a.range), (b.bin, b.beam, b.range));
                    assert!((a.power - b.power).abs() <= 1e-9 * b.power.abs().max(1.0));
                }
            }
        }
        // Demand-driven reserve: the steady state must be miss-free
        // (every class pre-warmed before the first slot).
        assert_eq!(
            summary.pool_cx.misses, 0,
            "reserve() under-provisioned the complex pool: {:?}",
            summary.pool_cx
        );
        assert_eq!(summary.pool_real.misses, 0);
    }

    /// Grouped slots on two-Doppler-node assignments against the
    /// sequential reference, bit for bit: every beamformer operand is
    /// packed from two received blocks, each covering its own range
    /// columns, every hard-weight training snapshot comes in two pieces,
    /// and every slot carries up to three CPIs. Neither assignment gives
    /// a hard-weight node a multiple of four bins, so every node's last
    /// lane group carries padding lanes; the second one also cuts a lane
    /// group in two between the hard-beamform nodes it feeds. All of them
    /// split a beamform node's bins across two PC blocks and have a CFAR
    /// node read its bins out of two power blocks; the last two also cut
    /// a lane group of easy bins (8..12 of 18) between two easy-beamform
    /// nodes, once with the PC and CFAR partitions aligned (a CFAR node's
    /// second block is empty) and once with three CFAR nodes across two
    /// PC nodes (each PC block compresses into two CFAR blocks). Every
    /// slot carries `scpi` and `scpi + beams` of the one stream, so every
    /// beamformer receives its slot's own weights before its GEMM.
    #[test]
    fn grouped_multi_node_slots_match_sequential_reference_bitwise() {
        for assign in [
            NodeAssignment::tiny(),
            NodeAssignment([2, 1, 1, 1, 2, 2, 1]),
            NodeAssignment([2, 1, 1, 2, 1, 2, 2]),
            NodeAssignment([2, 1, 1, 2, 1, 2, 3]),
        ] {
            grouped_slots_match_sequential_reference_bitwise(assign);
        }
    }

    fn grouped_slots_match_sequential_reference_bitwise(assign: NodeAssignment) {
        let params = StapParams::reduced();
        let sc = Scenario::reduced(19);
        let count = 14usize;
        let cubes: Vec<CCube> = sc.stream(count).map(|(_, _, c)| c).collect();
        let want = sequential_bits(&params, &sc, &cubes);

        assert_eq!(assign.nodes(DOPPLER), 2, "the multi-block operand pack");
        let parts = Partitions::new(&params, &assign);
        assert!(
            parts.hard_wt_bins.iter().all(|bins| bins.len() % 4 != 0),
            "padding lanes on every hard-weight node: {:?}",
            parts.hard_wt_bins
        );
        assert_eq!(assign.nodes(PC), 2, "beamform output in two PC blocks");
        if let [first, _] = &parts.easy_bf_bins[..] {
            assert!(first.end % 4 != 0, "a lane group of easy bins is cut");
        }
        let res = ResidentStap::for_scenario(params, assign, &sc).with_max_group(3);
        // Sized for three-CPI groups (`reserve` caps the group at the
        // stream count).
        res.reserve(3, 4);
        let (jobs_tx, jobs_rx) = mpsc::sync_channel(4);
        let (done_tx, done_rx) = mpsc::channel();
        let pool = res.pools().cx.clone();
        let feeder = std::thread::spawn(move || {
            // Slots of 3, 3, 3, 3, 2 CPIs of the one stream.
            for (slot, chunk) in cubes.chunks(3).enumerate() {
                let batch: Vec<CpiJob> = chunk
                    .iter()
                    .enumerate()
                    .map(|(i, c)| CpiJob {
                        stream: 0,
                        scpi: (slot * 3 + i) as u32,
                        cube: pool.take_cube_from(c),
                        submitted: Instant::now(),
                    })
                    .collect();
                jobs_tx.send(batch).unwrap();
            }
        });
        let summary = res.serve(jobs_rx, done_tx).unwrap();
        feeder.join().unwrap();
        assert_eq!((summary.cpis, summary.slots), (count as u64, 5));
        assert_eq!(summary.pool_cx.misses, 0, "{:?}", summary.pool_cx);
        assert_eq!(summary.pool_real.misses, 0, "{:?}", summary.pool_real);
        let mut got = vec![Vec::new(); count];
        while let Ok(d) = done_rx.recv() {
            got[d.scpi as usize] = bits(&d.detections);
        }
        assert!(want.iter().any(|w| !w.is_empty()), "scenario must detect");
        assert_eq!(got, want);
    }

    /// Variable group sizes (ramp-up and tail slots smaller than
    /// max_group) and same-stream multi-CPI slots keep the per-stream
    /// weight schedule intact, bit for bit. A slot that carries `scpi`
    /// and `scpi + beams` of the stream receives its own weights before
    /// its GEMM, a lone CPI after its send, and the session goes from
    /// one to the other and back; under `tiny` the hard beamformer is
    /// fed by two weight nodes.
    #[test]
    fn uneven_groups_and_same_stream_slots_match() {
        let params = StapParams::reduced();
        let sc = Scenario::reduced(7);
        let slots: [&[usize]; 6] = [&[0], &[1, 2], &[3, 4, 5], &[6], &[7], &[8, 9]];
        let count = 10usize;
        let cubes: Vec<CCube> = sc.stream(count).map(|(_, _, c)| c).collect();
        let want = sequential_bits(&params, &sc, &cubes);
        assert!(want.iter().any(|w| !w.is_empty()), "scenario must detect");

        for assign in [NodeAssignment::tiny(), NodeAssignment([1; 7])] {
            let res = ResidentStap::for_scenario(params.clone(), assign, &sc).with_max_group(3);
            assert!(
                res.max_group > res.steering.len(),
                "`scpi + beams` fits a slot"
            );
            res.reserve(3, 4);
            let (jobs_tx, jobs_rx) = mpsc::sync_channel(4);
            let (done_tx, done_rx) = mpsc::channel();
            let pool = res.pools().cx.clone();
            let summary = std::thread::scope(|s| {
                s.spawn(|| {
                    for slot in slots {
                        let batch = (slot.iter())
                            .map(|&scpi| CpiJob {
                                stream: 0,
                                scpi: scpi as u32,
                                cube: pool.take_cube_from(&cubes[scpi]),
                                submitted: Instant::now(),
                            })
                            .collect();
                        jobs_tx.send(batch).unwrap();
                    }
                    drop(jobs_tx);
                });
                res.serve(jobs_rx, done_tx).unwrap()
            });
            assert_eq!(summary.cpis as usize, count);
            assert_eq!(summary.slots as usize, slots.len());
            assert_eq!(summary.pool_cx.misses, 0, "{:?}", summary.pool_cx);

            let mut got = vec![Vec::new(); count];
            while let Ok(d) = done_rx.recv() {
                got[d.scpi as usize] = bits(&d.detections);
            }
            assert_eq!(got, want, "{assign:?}");
        }
    }

    /// Eq. 2 as a property: the weight tasks are off the latency path. A
    /// weight rank that sleeps a second before slot 3 delays slot 4 —
    /// the first slot beamformed with slot 3's weights — and not slot 3,
    /// and every slot's detections stay those of the sequential
    /// reference.
    #[test]
    fn stalled_weight_task_delays_the_next_slot_not_its_own() {
        let params = StapParams::reduced();
        let sc = Scenario::reduced(29);
        let count = 6usize;
        let cubes: Vec<CCube> = sc.stream(count).map(|(_, _, c)| c).collect();
        let want = sequential_bits(&params, &sc, &cubes);
        let stall = std::time::Duration::from_secs_f64(stap_util::ci_slack());

        for task in [EASY_WT, HARD_WT] {
            let assign = NodeAssignment([1; 7]);
            let plan =
                stap_mp::FaultPlan::seeded(1).stall_rank(assign.rank_range(task).start, 3, stall);
            let res = ResidentStap::for_scenario(params.clone(), assign, &sc)
                .with_max_group(1)
                .with_faults(plan);
            res.reserve(1, 1);
            let (jobs_tx, jobs_rx) = mpsc::sync_channel(1);
            let (done_tx, done_rx) = mpsc::channel();
            let pool = res.pools().cx.clone();
            // One CPI in the pipeline at a time.
            let (submitted, done): (Vec<Instant>, Vec<CpiDone>) = std::thread::scope(|s| {
                let engine = s.spawn(|| res.serve(jobs_rx, done_tx).unwrap());
                let timeline = (cubes.iter().enumerate())
                    .map(|(scpi, c)| {
                        let submitted = Instant::now();
                        let job = CpiJob {
                            stream: 0,
                            scpi: scpi as u32,
                            cube: pool.take_cube_from(c),
                            submitted,
                        };
                        jobs_tx.send(vec![job]).unwrap();
                        (submitted, done_rx.recv().expect("a completion per CPI"))
                    })
                    .unzip();
                drop(jobs_tx);
                engine.join().unwrap();
                timeline
            });

            let got: Vec<Bits> = done.iter().map(|d| bits(&d.detections)).collect();
            assert_eq!(got, want, "task {task}");
            let stall = stall.as_secs_f64();
            assert!(
                done[3].latency < stall / 2.0,
                "task {task}: slot 3 waited {:.3} s for its own weights",
                done[3].latency
            );
            // The rank stalls after it has received slot 2, and slot 4 is
            // not beamformed before slot 3's weights are pushed.
            let remainder = stall - submitted[4].duration_since(submitted[2]).as_secs_f64();
            assert!(
                done[4].latency >= remainder,
                "task {task}: slot 4 took {:.3} s of the {remainder:.3} s left of the stall",
                done[4].latency
            );
        }
    }

    /// Mailboxes stay bounded by the window when the driver is never
    /// short of jobs: a weight task trails the chain by one slot at
    /// most, so no edge queues more than a window of slots and one.
    #[test]
    fn saturated_session_keeps_mailboxes_within_the_window() {
        let params = StapParams::reduced();
        let sc = Scenario::reduced(31);
        let cubes: Vec<CCube> = sc.stream(4).map(|(_, _, c)| c).collect();
        let count = 48usize;
        let res = ResidentStap::for_scenario(params, NodeAssignment([1; 7]), &sc)
            .with_max_group(1)
            .with_window(3);
        res.reserve(1, 4);
        let (jobs_tx, jobs_rx) = mpsc::sync_channel(4);
        let (done_tx, done_rx) = mpsc::channel();
        let pool = res.pools().cx.clone();
        let summary = std::thread::scope(|s| {
            s.spawn(|| {
                for scpi in 0..count {
                    let job = CpiJob {
                        stream: 0,
                        scpi: scpi as u32,
                        cube: pool.take_cube_from(&cubes[scpi % cubes.len()]),
                        submitted: Instant::now(),
                    };
                    jobs_tx.send(vec![job]).unwrap();
                }
                drop(jobs_tx);
            });
            res.serve(jobs_rx, done_tx).unwrap()
        });
        assert_eq!(done_rx.iter().count(), count);
        assert_eq!(summary.pool_cx.misses, 0, "{:?}", summary.pool_cx);
        let depth = summary.health.max_mailbox_depth;
        assert!(
            depth.iter().all(|&d| d <= res.window as u64 + 1),
            "per-edge mailbox depth {depth:?} over window {} + 1",
            res.window
        );
    }

    /// Linux nice values are per thread: the helper lowers the calling
    /// thread (field 19 of its `stat` line) and no other.
    #[cfg(target_os = "linux")]
    #[test]
    fn background_priority_is_the_calling_threads_alone() {
        fn nice() -> i32 {
            let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
            // Fields counted from after the parenthesised comm: state is 3.
            let rest = &stat[stat.rfind(')').unwrap() + 2..];
            rest.split(' ').nth(19 - 3).unwrap().parse().unwrap()
        }
        let before = nice();
        let lowered = std::thread::spawn(|| {
            run_at_background_priority();
            nice()
        });
        assert_eq!(lowered.join().unwrap(), 19);
        assert_eq!(nice(), before);
    }
}
