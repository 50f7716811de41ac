//! The pipeline engine: the seven task loops, resident for a session.
//!
//! The batch runner ([`crate::runner::ParallelStap`]) runs these loops
//! for one fixed CPI list and tears everything down. A radar front end
//! serving many concurrent *streams* cannot afford that:
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
//! gaps. Every cube that travels an edge is drawn from the shared
//! [`PipelinePools`] (pre-warmed by [`ResidentStap::reserve`] on the
//! serve path), so the steady state is allocation-free.
//!
//! # One engine, two feeds
//!
//! Each task has exactly one loop function here, and every loop leaves
//! what is not its own to a `Node`: the receive (`recv_msg`), the
//! drop markers a lost input sends downstream, the end-of-slot purge,
//! and the slot's [`TaskTiming`] and span. The driver reads its slots
//! from a `Feed`, a CPI list or a session. Which front end turns what
//! on:
//!
//! * a [`Session`] — [`ResidentStap::serve`] is one with no triggers,
//!   and `stap-serve`'s `StapServer` runs one — feeds slot groups from a
//!   jobs channel with [`RuntimePolicy::default`] and no trace epoch:
//!   plain blocking receives, no spans, the per-slot timings only summed
//!   into [`ResidentSummary::busy`]. The feed ends an epoch at a
//!   checkpoint or rebalance boundary, and the session relaunches the
//!   world from the exported [`ResidentState`];
//! * [`crate::ParallelStap`] is a session whose driver reads its CPI
//!   list, one CPI per slot (`max_group = 1`). It passes its own policy
//!   — a fault-tolerant one turns on deadlines, retries, sequence checks,
//!   quarantine, drop markers, stale-weight fallback and purging — and,
//!   when traced, the trace epoch that turns on one [`TaskSpan`] per slot
//!   per node and Doppler's redistribution spans.

use crate::assignment::{overlap, NodeAssignment, Partitions, *};
use crate::fault::{payload_is_finite, RuntimePolicy};
use crate::metrics::{PipelineHealth, TaskTiming};
use crate::msg::{cpi_of_tag, edge_of_tag, tag, Edge, Msg, Payload, SubCpi};
use crate::runner::{PipelineError, TaskReport};
use crate::session::Session;
use crate::tasks::PipelinePools;
use crate::trace::TaskSpan;
use stap_core::params::StapParams;
use stap_core::training::{easy_training_cells, hard_training_cells};
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
use stap_mp::{Comm, RecvError, Tag, World};
use stap_radar::Scenario;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::ops::Range;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// counters stay zero — the serve front ends run the default,
    /// non-fault-tolerant policy).
    pub health: PipelineHealth,
    /// Complex pool traffic. `misses` beyond warmup means
    /// [`ResidentStap::reserve`] under-provisioned.
    pub pool_cx: PoolStats,
    /// Real pool traffic.
    pub pool_real: PoolStats,
    /// Wall-clock seconds from `serve` entry to return.
    pub elapsed: f64,
    /// Per-task busy seconds, summed over that task's nodes from the
    /// same per-slot [`TaskTiming`] records `ParallelStap` reports
    /// (`total_without_idle`): wall-clock time spent computing and
    /// sending slots, excluding every blocked receive (a beamformer's
    /// wait for weights included). On a
    /// host with fewer cores than rank threads that includes time spent
    /// runnable but waiting for a core, so it overstates tasks that
    /// share their core (`scripts/thread_cpu.sh` reads the CPU each rank
    /// thread actually used). A rebalancing [`Session`] ranks
    /// bottlenecks by `busy[t] / nodes[t]`.
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

/// What one task node hands back when its loop exits.
pub(crate) struct TaskExit {
    /// Health counters, and the per-slot timings and spans the session
    /// keeps.
    pub(crate) report: TaskReport,
    /// Every slot's compute and send seconds, summed.
    busy: f64,
    state: TaskState,
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
    /// Deterministic fault schedule for a session's first world (`None`
    /// = clean world, the production path); a supervised [`Session`]
    /// installs its per-launch plans instead.
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

    /// Installs a deterministic fault schedule for the first launch.
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
        self.reserve_under(&self.assign, streams, queue_depth, 0);
    }

    /// [`Self::reserve`] for `assign`, with a recovering [`Session`]'s
    /// `retained` copies added to the raw-cube count (a pool keeps the
    /// larger of two reservations, never their sum).
    pub(crate) fn reserve_under(
        &self,
        assign: &NodeAssignment,
        streams: usize,
        queue_depth: usize,
        retained: usize,
    ) {
        let p = &self.params;
        let parts = Partitions::new(p, assign);
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
        // admitted per stream, plus in-flight groups and retained copies.
        let raw = p.k_range * p.j_channels * p.n_pulses;
        let raw_cubes = streams * (queue_depth + 1) + b * w + retained;
        cx.insert(raw.next_power_of_two(), raw_cubes);
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
    /// streams); results stream out on `done` as slots complete. This is
    /// a [`Session`] with no triggers: one epoch, no retained copies, no
    /// state export.
    pub fn serve(
        &self,
        jobs: Receiver<Vec<CpiJob>>,
        done: Sender<CpiDone>,
    ) -> Result<ResidentSummary, PipelineError> {
        Session::default()
            .run(self, jobs, done)
            .map(|summary| summary.resident)
    }

    /// One world under `assign` with `faults` installed, its stateful
    /// tasks starting from `carry` and its driver reading `feed`. The
    /// drained tasks' state comes back only when `export` is set; it
    /// re-imports bit-identically under any assignment.
    pub(crate) fn launch<F: Feed + Send>(
        &self,
        assign: NodeAssignment,
        faults: Option<&stap_mp::FaultPlan>,
        carry: &ResidentState,
        export: bool,
        feed: &mut F,
    ) -> Result<(ResidentSummary, ResidentState), PipelineError> {
        let t0 = Instant::now();
        let parts = Partitions::new(&self.params, &assign);
        let mut world: World<Msg> = World::new(assign.world_size());
        if self.mailbox_high_water > 0 {
            world = world.with_mailbox_high_water(self.mailbox_high_water);
        }
        if let Some(plan) = faults.filter(|plan| !plan.is_empty()) {
            world = world
                .with_faults(plan.clone())
                .with_corruptor(crate::fault::nan_corruptor());
        }
        let policy = RuntimePolicy::default();
        let ctx = ResCtx {
            params: &self.params,
            assign: &assign,
            parts: &parts,
            steering: &self.steering,
            pools: &self.pools,
            max_group: self.max_group,
            screen: self.screen,
            carry,
            export,
            policy: &policy,
            epoch: None,
            slots: None,
        };
        let ctx_ref = &ctx;
        let window = self.window.max(1);
        // The SPMD closure is shared by reference across ranks, so the
        // driver arm takes the feed out of a mutex (it runs exactly once).
        let feed_cell = Mutex::new(Some(feed));

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
                Some((t, local)) => Res::Task(t, run_task(ctx_ref, &mut comm, t, local)),
                None => {
                    let feed = (feed_cell.lock().expect("held only to take the feed"))
                        .take()
                        .expect("driver rank runs once");
                    let (health, cpis, slots) = drive(ctx_ref, &mut comm, window, feed);
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
                    summary.health.merge(&exit.report.health);
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

/// The session every rank of one world shares, read-only.
pub(crate) struct ResCtx<'a> {
    pub(crate) params: &'a StapParams,
    pub(crate) assign: &'a NodeAssignment,
    pub(crate) parts: &'a Partitions,
    pub(crate) steering: &'a [CMat],
    pub(crate) pools: &'a PipelinePools,
    pub(crate) max_group: usize,
    pub(crate) screen: bool,
    pub(crate) carry: &'a ResidentState,
    /// Whether the tasks export their cross-slot state when they drain.
    pub(crate) export: bool,
    /// How every receive behaves (see [`recv_msg`]).
    pub(crate) policy: &'a RuntimePolicy,
    /// Trace epoch: each node records a [`TaskSpan`] per slot when set.
    pub(crate) epoch: Option<Instant>,
    /// The session's length in slots when it is known up front (the CPI
    /// list): each node then keeps every slot's [`TaskTiming`] (an
    /// open-ended session only sums them) and ends at that slot as on a
    /// shutdown, so no receive deadline can carry a node past the end.
    pub(crate) slots: Option<usize>,
}

/// The task loops, indexed by paper task number.
type TaskLoop = fn(&ResCtx, &mut Comm<Msg>, usize) -> TaskExit;

/// Runs node `local` of task `task` until its session shuts down.
pub(crate) fn run_task(ctx: &ResCtx, comm: &mut Comm<Msg>, task: usize, local: usize) -> TaskExit {
    let loops: [TaskLoop; 7] = [
        resident_doppler,
        resident_easy_weight,
        resident_hard_weight,
        resident_easy_bf,
        resident_hard_bf,
        resident_pc,
        resident_cfar,
    ];
    loops[task](ctx, comm, local)
}

fn expect_cube(p: Payload) -> CCube {
    match p {
        Payload::Cube(c) => c,
        other => panic!("expected Cube, got {other:?}"),
    }
}

fn expect_real(p: Payload) -> RCube {
    match p {
        Payload::Real(c) => c,
        other => panic!("expected Real, got {other:?}"),
    }
}

fn expect_weights(p: Payload) -> Vec<CMat> {
    match p {
        Payload::Weights(w) => w,
        other => panic!("expected Weights, got {other:?}"),
    }
}

/// Outcome of one receive on a pipeline edge.
pub(crate) enum Recvd {
    /// The slot's message.
    Msg(Msg),
    /// The input is gone: an explicit drop marker, an undecodable wire
    /// frame or, fault-tolerant, a deadline overrun after retries or a
    /// quarantined (non-finite) payload.
    Gone,
    /// Nothing more will come: the shutdown sentinel or, fault-tolerant,
    /// a disconnected world.
    Shutdown,
}

/// Retries (each of the receive's `timeout`) before a fault-tolerant
/// data edge is declared lost and the CPI is dropped.
const EDGE_RETRIES: u32 = 1;

/// One receive on edge-tag `t` for slot `slot` under `policy`.
///
/// The default policy is the plain blocking receive (an unexpected
/// `Disconnected` panics: fail fast, which the serve supervisor relies
/// on). The fault-tolerant path enforces `timeout` per attempt with
/// `EDGE_RETRIES` retries, discards messages whose `seq` does not match
/// `slot` (late/duplicate deliveries), and quarantines payloads holding
/// non-finite values. Under either policy a wire frame that failed to
/// decode is quarantined on its edge and the input is gone.
pub(crate) fn recv_msg(
    comm: &mut Comm<Msg>,
    src: usize,
    t: Tag,
    slot: usize,
    policy: &RuntimePolicy,
    timeout: Duration,
    health: &mut PipelineHealth,
) -> Recvd {
    let e = edge_of_tag(t);
    let m = if !policy.fault_tolerant {
        let m = comm.recv(src, t).unwrap();
        debug_assert!(
            m.seq as usize == slot || matches!(m.payload, Payload::Malformed),
            "tag/seq mismatch on edge {e}"
        );
        m
    } else {
        let mut retries = 0u32;
        loop {
            match comm.recv_timeout(src, t, timeout) {
                // An undecodable frame has no seq to check.
                Ok(m) if matches!(m.payload, Payload::Malformed) => break m,
                // A late or duplicated delivery matched this tag
                // (possible only under injection); discard and wait on.
                Ok(m) if m.seq as usize != slot => health.edges[e].late_or_dup += 1,
                Ok(m) if !payload_is_finite(&m.payload) => {
                    health.edges[e].quarantined += 1;
                    return Recvd::Gone;
                }
                Ok(m) => break m,
                Err(RecvError::Timeout) if retries < EDGE_RETRIES => {
                    retries += 1;
                    health.edges[e].retries += 1;
                }
                Err(RecvError::Timeout) => {
                    health.edges[e].dropped += 1;
                    return Recvd::Gone;
                }
                Err(RecvError::Disconnected) => {
                    health.edges[e].dropped += 1;
                    return Recvd::Shutdown;
                }
            }
        }
    };
    match m.payload {
        Payload::Dropped => Recvd::Gone,
        Payload::Shutdown => Recvd::Shutdown,
        Payload::Malformed => {
            health.edges[e].quarantined += 1;
            Recvd::Gone
        }
        _ => Recvd::Msg(m),
    }
}

/// End-of-slot hygiene for fault-tolerant loops: discards every buffered
/// message belonging to slot `slot` or earlier — late deliveries the
/// loop gave up on, and duplicate copies of messages already consumed —
/// attributing the discards to their edges. Without this the
/// unexpected-message queue would grow for the rest of the run.
pub(crate) fn purge_late(comm: &mut Comm<Msg>, slot: usize, health: &mut PipelineHealth) {
    let edges = &mut health.edges;
    comm.purge_pending(|_, t| {
        if cpi_of_tag(t) <= slot {
            edges[edge_of_tag(t)].late_or_dup += 1;
            false
        } else {
            true
        }
    });
}

/// Samples the receiver-side mailbox and max-merges the currently
/// buffered per-edge depths into `health.max_mailbox_depth`. Called once
/// per slot at the top of each loop: one inbox drain plus a bucket walk,
/// no allocation.
fn sample_mailbox(comm: &mut Comm<Msg>, health: &mut PipelineHealth) {
    let mut depth = [0u64; crate::msg::NUM_EDGES];
    comm.pending_counts(|_, t, n| {
        let e = edge_of_tag(t);
        if e < depth.len() {
            depth[e] += n as u64;
        }
    });
    for (a, b) in health.max_mailbox_depth.iter_mut().zip(depth) {
        *a = (*a).max(b);
    }
}

/// One slot's input on a set of edges.
enum Input {
    /// Every source delivered: the slot's group, and whether any sender
    /// computed its part in a degraded mode.
    Data(Arc<[SubCpi]>, bool),
    /// At least one source's message is gone; the group, when any
    /// source delivered.
    Lost(Option<Arc<[SubCpi]>>),
    /// The session is over.
    Shutdown,
}

/// What every task loop shares, one slot at a time: the receive, the
/// slot's phase clock and span, the end-of-slot purge, and the node's
/// report.
struct Node<'a> {
    ctx: &'a ResCtx<'a>,
    report: TaskReport,
    busy: f64,
    /// When the current slot began.
    started: Instant,
    /// Seconds of the current slot spent blocked in receives.
    idle: f64,
}

impl<'a> Node<'a> {
    fn new(ctx: &'a ResCtx<'a>) -> Self {
        Node {
            ctx,
            report: TaskReport::default(),
            busy: 0.0,
            started: Instant::now(),
            idle: 0.0,
        }
    }

    /// Top of slot `slot`: mailbox depth sample, fault checkpoint, and
    /// the slot clock.
    fn begin(&mut self, comm: &mut Comm<Msg>, slot: usize) {
        sample_mailbox(comm, &mut self.report.health);
        comm.fault_checkpoint(slot as u64);
        self.started = Instant::now();
        self.idle = 0.0;
    }

    /// Receives slot `slot`'s message from each `(rank, edge)` source in
    /// order, handing every delivered one to `take` with the source's
    /// position. After a shutdown the remaining sources' shutdowns are
    /// drained.
    fn recv(
        &mut self,
        comm: &mut Comm<Msg>,
        slot: usize,
        sources: impl IntoIterator<Item = (usize, Edge)>,
        timeout: Duration,
        mut take: impl FnMut(usize, Msg),
    ) -> Input {
        if self.ctx.slots.is_some_and(|n| slot >= n) {
            return Input::Shutdown;
        }
        let (mut group, mut degraded) = (None, false);
        let (mut lost, mut shutdown) = (false, false);
        for (i, (src, edge)) in sources.into_iter().enumerate() {
            let t = Instant::now();
            let got = recv_msg(
                comm,
                src,
                tag(edge, slot),
                slot,
                self.ctx.policy,
                timeout,
                &mut self.report.health,
            );
            self.idle += t.elapsed().as_secs_f64();
            match got {
                // Only a disconnected fault-tolerant world can still
                // hand over a message it had buffered.
                Recvd::Msg(_) if shutdown => debug_assert!(
                    self.ctx.policy.fault_tolerant,
                    "mixed shutdown/data within a slot"
                ),
                Recvd::Msg(m) => {
                    if group.is_none() {
                        group.clone_from(&m.group);
                    }
                    degraded |= m.degraded;
                    take(i, m);
                }
                Recvd::Gone => lost = true,
                Recvd::Shutdown => shutdown = true,
            }
        }
        if shutdown {
            Input::Shutdown
        } else if lost {
            Input::Lost(group)
        } else {
            Input::Data(group.expect("pipeline messages carry a group"), degraded)
        }
    }

    /// End of slot `slot`, after its push phase: records the slot's
    /// timing (and span) and, fault-tolerant, purges what came late.
    fn end(&mut self, comm: &mut Comm<Msg>, slot: usize, comp: f64, send: f64) {
        let t = TaskTiming {
            recv: self.idle,
            comp,
            send,
            recv_idle: self.idle,
        };
        self.busy += t.total_without_idle();
        if let Some(e) = self.ctx.epoch {
            let start = self.started.duration_since(e).as_secs_f64();
            self.report.spans.push(TaskSpan {
                cpi: slot,
                start,
                recv_end: start + t.recv,
                comp_end: start + t.recv + t.comp,
                send_end: start + t.recv + t.comp + t.send,
            });
        }
        if self.ctx.slots.is_some() {
            self.report.timings.push(t);
        }
        if self.ctx.policy.fault_tolerant {
            purge_late(comm, slot, &mut self.report.health);
        }
    }

    /// The node's exit; its cross-slot state is exported only for a
    /// session that can end an epoch at a boundary ([`Session`]):
    /// exporting copies every matrix out of the task's own layout.
    fn finish(mut self, comm: &mut Comm<Msg>, state: impl FnOnce() -> TaskState) -> TaskExit {
        self.report.health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
        TaskExit {
            report: self.report,
            busy: self.busy,
            state: if self.ctx.export {
                state()
            } else {
                TaskState::Stateless
            },
        }
    }
}

/// Sends `payload` (a shutdown or drop marker) for slot `slot` on every
/// `(rank, edge)` out-edge.
fn signal(
    comm: &Comm<Msg>,
    outs: impl IntoIterator<Item = (usize, Edge)>,
    slot: usize,
    payload: Payload,
) {
    for (dst, edge) in outs {
        comm.send(dst, tag(edge, slot), Msg::new(slot, payload.clone()));
    }
}

fn recycle<T: Copy + Default>(pool: &SharedBufferPool<T>, blocks: &mut Vec<Cube<T>>) {
    for block in blocks.drain(..) {
        pool.recycle(block);
    }
}

/// Global training cells for easy weights that fall inside `krange`.
fn easy_cells_in(params: &StapParams, krange: &Range<usize>) -> Vec<usize> {
    easy_training_cells(params)
        .into_iter()
        .filter(|c| krange.contains(c))
        .collect()
}

/// Global training cells for hard segment `seg` inside `krange`.
fn hard_cells_in(params: &StapParams, seg: usize, krange: &Range<usize>) -> Vec<usize> {
    hard_training_cells(params, seg)
        .into_iter()
        .filter(|c| krange.contains(c))
        .collect()
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
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        ctx: &ResCtx,
        comm: &mut Comm<Msg>,
        edge: Edge,
        slot: usize,
        group: &Arc<[SubCpi]>,
        covered: usize,
        degraded: bool,
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
                Msg {
                    degraded,
                    ..Msg::grouped(slot, group.clone(), Payload::Cube(block))
                },
            );
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
    let out_edges = || outs.iter().map(|&(dst, edge, _)| (dst, edge));
    let mut blocks: Vec<CCube> = Vec::with_capacity(outs.len());
    let mut ws = DopplerScratch::new();
    let mut node = Node::new(ctx);
    let mut slab = None;
    for slot in 0.. {
        node.begin(comm, slot);
        let input = node.recv(
            comm,
            slot,
            [(driver, Edge::Input)],
            ctx.policy.edge_timeout,
            |_, m| slab = Some(expect_cube(m.payload)),
        );
        let group = match input {
            Input::Data(group, _) => group,
            Input::Lost(_) => {
                // Keep the rest of the pipeline draining this slot.
                signal(comm, out_edges(), slot, Payload::Dropped);
                node.end(comm, slot, 0.0, 0.0);
                continue;
            }
            Input::Shutdown => {
                signal(comm, out_edges(), slot, Payload::Shutdown);
                break;
            }
        };
        let slab = slab.take().expect("the slot's slab");
        let t = Instant::now();
        // Doppler's "data collection and reorganization" happens inside
        // the tile pass; traced, each out-block is a `Redistribute` span
        // from the start of the pass to its send.
        let pack_t0 = comm.trace_now();
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
        let comp = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for ((dst, edge, _), block) in outs.iter().zip(blocks.drain(..)) {
            let (bytes, tg) = (8 * block.len() as u64, tag(*edge, slot));
            comm.send(
                *dst,
                tg,
                Msg::grouped(slot, group.clone(), Payload::Cube(block)),
            );
            comm.trace_redistribute(*dst, tg, bytes, pack_t0);
        }
        node.end(comm, slot, comp, t.elapsed().as_secs_f64());
    }
    node.finish(comm, || TaskState::Stateless)
}

/// The ranks of the Doppler nodes, each with `edge`: every weight and
/// beamform node's sources.
fn doppler_sources(ctx: &ResCtx, edge: Edge) -> impl Iterator<Item = (usize, Edge)> {
    ctx.assign.rank_range(DOPPLER).map(move |r| (r, edge))
}

/// A beamform node's per-(stream, beam) queues of per-bin weight sets,
/// each flagged stale or fresh.
type Fifos<T> = HashMap<(u16, usize), VecDeque<(Vec<T>, bool)>>;

/// Rebuilds a node-local `(stream, beam) -> queue of per-bin entries`
/// map from globally-keyed carried state: picks this node's `bins_idx`
/// slice and re-zips the per-bin queues back into per-slot-entry rows
/// (inner `Vec` indexed by local bin), preserving queue order exactly.
fn import_ring<T: Clone>(
    carried: &HashMap<(u16, usize, usize), VecDeque<T>>,
    bins_idx: &Range<usize>,
) -> Fifos<T> {
    let nbins = bins_idx.len();
    let mut out: Fifos<T> = HashMap::new();
    let keys: std::collections::HashSet<(u16, usize)> = carried
        .keys()
        .filter(|(_, _, g)| bins_idx.contains(g))
        .map(|&(s, b, _)| (s, b))
        .collect();
    for (stream, beam) in keys {
        let len = carried
            .get(&(stream, beam, bins_idx.start))
            .map_or(0, VecDeque::len);
        let mut q: VecDeque<(Vec<T>, bool)> = (0..len)
            .map(|_| (Vec::with_capacity(nbins), false))
            .collect();
        for bin in bins_idx.clone() {
            let d = carried
                .get(&(stream, beam, bin))
                .expect("carried state covers every bin of a (stream, beam)");
            assert_eq!(d.len(), len, "ragged carried queue");
            for (qi, item) in d.iter().enumerate() {
                q[qi].0.push(item.clone());
            }
        }
        out.insert((stream, beam), q);
    }
    out
}

/// Inverse of [`import_ring`]: unzips each `(stream, beam)` queue into
/// per-bin queues rebased to global bin keys (`bin0` = this node's
/// partition start); the stale flags stay behind.
fn export_ring<T>(rings: Fifos<T>, bin0: usize) -> HashMap<(u16, usize, usize), VecDeque<T>> {
    let mut out = HashMap::new();
    for ((stream, beam), q) in rings {
        let len = q.len();
        let mut per_bin: Vec<VecDeque<T>> = Vec::new();
        for (entry, _) in q {
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
/// fed and its bin partition. A slot with a lost input leaves the
/// weight state untouched and sends drop markers instead.
#[allow(clippy::too_many_arguments)]
fn weight_slots(
    ctx: &ResCtx,
    comm: &mut Comm<Msg>,
    node: &mut Node,
    (in_edge, out_edge): (Edge, Edge),
    bins_idx: &Range<usize>,
    (bf_task, bf_parts): (usize, &[Range<usize>]),
    per_bin: usize,
    mut member: impl FnMut(usize, &SubCpi, &[CCube], &mut dyn Iterator<Item = &mut [CMat]>),
) {
    let p0 = ctx.assign.nodes(DOPPLER);
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
    let out_edges = || targets.iter().map(|&(dst, _)| (dst, out_edge));
    let mut per_node: Vec<Vec<CMat>> = targets.iter().map(|_| Vec::new()).collect();
    let mut blocks: Vec<CCube> = Vec::with_capacity(p0);
    for slot in 0.. {
        node.begin(comm, slot);
        let input = node.recv(
            comm,
            slot,
            doppler_sources(ctx, in_edge),
            ctx.policy.edge_timeout,
            |_, m| blocks.push(expect_cube(m.payload)),
        );
        let group = match input {
            Input::Data(group, _) => group,
            Input::Lost(_) => {
                recycle(&ctx.pools.cx, &mut blocks);
                signal(comm, out_edges(), slot, Payload::Dropped);
                node.end(comm, slot, 0.0, 0.0);
                continue;
            }
            Input::Shutdown => {
                recycle(&ctx.pools.cx, &mut blocks);
                signal(comm, out_edges(), slot, Payload::Shutdown);
                return;
            }
        };
        let t = Instant::now();
        for (w, (_, ov)) in per_node.iter_mut().zip(&targets) {
            w.resize(group.len() * ov.len() * per_bin, CMat::zeros(0, 0));
        }
        for (u, sub) in group.iter().enumerate() {
            let mut weights = per_node.iter_mut().zip(&targets).flat_map(|(w, (_, ov))| {
                w[u * ov.len() * per_bin..][..ov.len() * per_bin].chunks_mut(per_bin)
            });
            member(u, sub, &blocks, &mut weights);
        }
        recycle(&ctx.pools.cx, &mut blocks);
        let comp = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for ((dst, _), w) in targets.iter().zip(&mut per_node) {
            comm.send(
                *dst,
                tag(out_edge, slot),
                Msg::grouped(slot, group.clone(), Payload::Weights(std::mem::take(w))),
            );
        }
        node.end(comm, slot, comp, t.elapsed().as_secs_f64());
    }
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
    let mut node = Node::new(ctx);
    weight_slots(
        ctx,
        comm,
        &mut node,
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
    node.finish(comm, || {
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
    let mut node = Node::new(ctx);
    weight_slots(
        ctx,
        comm,
        &mut node,
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
    node.finish(comm, || {
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
/// the slots the node has beamformed; each set is flagged stale when it
/// stands in for a lost weight message. Popping the front of a member's
/// FIFO yields the set computed from `(stream, scpi - beams)`.
struct WeightFifos<T, Q> {
    /// The weight nodes feeding this node, each with its overlap of the
    /// node's bins; the overlaps are the node's bins in order.
    sources: Vec<(usize, Range<usize>)>,
    edge: Edge,
    beams: usize,
    /// Matrices per bin in a weight message, and how they make a `T`.
    per_bin: usize,
    unpack: fn(&mut std::vec::IntoIter<CMat>, usize) -> T,
    /// The weights of each azimuth's first visit (`scpi < beams`) and of
    /// last resort.
    quiescent: Q,
    queues: Fifos<T>,
    /// The last set pushed fresh per (stream, beam): what a lost weight
    /// message is replaced with. Kept by fault-tolerant sessions only.
    last_good: HashMap<(u16, usize), Vec<T>>,
    /// Slots whose weight messages have been pushed.
    pushed: usize,
}

impl<T: Clone, Q: Fn(usize) -> Vec<T>> WeightFifos<T, Q> {
    /// The FIFOs of a node owning `bins_idx` of the bins `wt` (weight
    /// task, its partition) computes, starting from `carried`.
    #[allow(clippy::too_many_arguments)]
    fn new(
        ctx: &ResCtx,
        bins_idx: &Range<usize>,
        (wt_task, wt_parts): (usize, &[Range<usize>]),
        edge: Edge,
        per_bin: usize,
        unpack: fn(&mut std::vec::IntoIter<CMat>, usize) -> T,
        quiescent: Q,
        carried: &HashMap<(u16, usize, usize), VecDeque<T>>,
    ) -> Self {
        let wt0 = ctx.assign.rank_range(wt_task).start;
        WeightFifos {
            sources: (wt_parts.iter().enumerate())
                .filter_map(|(q, r)| {
                    let ov = overlap(r, bins_idx);
                    (!ov.is_empty()).then(|| (wt0 + q, ov))
                })
                .collect(),
            edge,
            beams: ctx.steering.len(),
            per_bin,
            unpack,
            quiescent,
            queues: import_ring(carried, bins_idx),
            last_good: HashMap::new(),
            pushed: 0,
        }
    }

    /// The stand-in for a lost set of `key`, counted as stale.
    fn stale(&self, node: &mut Node, key: (u16, usize)) -> Vec<T> {
        node.report.health.edges[self.edge as usize].stale_weights += 1;
        (self.last_good.get(&key).cloned()).unwrap_or_else(|| (self.quiescent)(key.1))
    }

    /// Push phase: receives slot `slot`'s weight messages
    /// (`[member][bin][per_bin]` each) and moves each member CPI's
    /// freshly-computed per-bin set to the back of that member's FIFO —
    /// or, when a message is lost, the last good set of that (stream,
    /// beam), flagged stale. Does nothing when the slot was already
    /// pushed. Returns the slot's group: `group` if the caller knows it,
    /// else the weight messages'.
    fn push_slot(
        &mut self,
        node: &mut Node,
        comm: &mut Comm<Msg>,
        slot: usize,
        group: Option<&Arc<[SubCpi]>>,
    ) -> Option<Arc<[SubCpi]>> {
        if self.pushed > slot {
            return group.cloned();
        }
        self.pushed = slot + 1;
        let mut fresh: Vec<std::vec::IntoIter<CMat>> = Vec::with_capacity(self.sources.len());
        let input = node.recv(
            comm,
            slot,
            self.sources.iter().map(|&(src, _)| (src, self.edge)),
            node.ctx.policy.weight_grace,
            |_, m| fresh.push(expect_weights(m.payload).into_iter()),
        );
        let (group, lost) = match input {
            Input::Data(g, _) => (group.cloned().unwrap_or(g), false),
            Input::Lost(g) => (group.cloned().or(g)?, true),
            Input::Shutdown => (group.cloned()?, true),
        };
        for (w, (_, ov)) in fresh.iter().zip(&self.sources).filter(|_| !lost) {
            let want = group.len() * ov.len() * self.per_bin;
            assert_eq!(w.len(), want, "weights from overlap source");
        }
        for sub in group.iter() {
            let key = (sub.stream, sub.scpi as usize % self.beams);
            let set = if lost {
                self.stale(node, key)
            } else {
                let set: Vec<T> = (fresh.iter_mut().zip(&self.sources))
                    .flat_map(|(w, (_, ov))| ov.clone().map(|_| (self.unpack)(w, self.per_bin)))
                    .collect();
                if node.ctx.policy.fault_tolerant {
                    self.last_good.insert(key, set.clone());
                }
                set
            };
            self.queues.entry(key).or_default().push_back((set, lost));
        }
        Some(group)
    }

    /// The weights member `sub` of slot `slot` is beamformed with, and
    /// whether they are stale: quiescent on the azimuth's first visit,
    /// else the front of its FIFO. Every earlier slot's weights were
    /// pushed after that slot's send, so they wait in the FIFO and the
    /// slot's own weight messages are off its latency path (eq. 2) —
    /// unless the slot also carries `scpi - beams` of this stream: then
    /// the FIFO is empty and the slot is pushed here, before its GEMM.
    fn take(
        &mut self,
        node: &mut Node,
        comm: &mut Comm<Msg>,
        slot: usize,
        group: &Arc<[SubCpi]>,
        sub: &SubCpi,
    ) -> (Vec<T>, bool) {
        let key = (sub.stream, sub.scpi as usize % self.beams);
        if (sub.scpi as usize) < self.beams {
            return ((self.quiescent)(key.1), false);
        }
        if self.queues.get(&key).is_none_or(VecDeque::is_empty) {
            self.push_slot(node, comm, slot, Some(group));
        }
        match self.queues.get_mut(&key).and_then(VecDeque::pop_front) {
            Some(set) => set,
            // Only a fault-tolerant session that lost everything about an
            // earlier slot gets here.
            None if node.ctx.policy.fault_tolerant => (self.stale(node, key), true),
            None => panic!("weight FIFO underflow: streams must submit CPIs in order"),
        }
    }

    /// Drains the weight edge's shutdowns (the Doppler shutdowns of
    /// `slot` were received).
    fn drain_shutdown(&self, node: &mut Node, comm: &mut Comm<Msg>, slot: usize) {
        let sources = self.sources.iter().map(|&(src, _)| (src, self.edge));
        let grace = node.ctx.policy.weight_grace;
        node.recv(comm, slot, sources, grace, |_, _| {
            panic!("weights after the last slot")
        });
    }
}

/// The slot loop of both beamform tasks: one block per Doppler node in,
/// and per slot *consume* (beamform every member with the weights its
/// FIFO holds; `gemm` computes member `u`'s bins from the blocks into the
/// PC blocks and says how many elements it stored), *send*, then *push*
/// the slot's own weights. A slot with lost data still pushes its
/// weights — the next revisit needs them — and retires what it would
/// have consumed.
fn beamform_slots<T: Clone, Q: Fn(usize) -> Vec<T>>(
    ctx: &ResCtx,
    comm: &mut Comm<Msg>,
    node: &mut Node,
    (in_edge, out_edge): (Edge, Edge),
    wts: &mut WeightFifos<T, Q>,
    outs: &mut PcBlocks,
    mut gemm: impl FnMut(usize, &[T], &[CCube], &mut PcBlocks) -> usize,
) {
    let pool = &ctx.pools.cx;
    let pc_edges = || ctx.assign.rank_range(PC).map(|r| (r, out_edge));
    let mut blocks: Vec<CCube> = Vec::with_capacity(ctx.assign.nodes(DOPPLER));
    for slot in 0.. {
        node.begin(comm, slot);
        let input = node.recv(
            comm,
            slot,
            doppler_sources(ctx, in_edge),
            ctx.policy.edge_timeout,
            |_, m| blocks.push(expect_cube(m.payload)),
        );
        let group = match input {
            Input::Data(group, _) => group,
            Input::Lost(group) => {
                recycle(pool, &mut blocks);
                signal(comm, pc_edges(), slot, Payload::Dropped);
                if let Some(group) = wts.push_slot(node, comm, slot, group.as_ref()) {
                    for sub in group.iter() {
                        wts.take(node, comm, slot, &group, sub);
                    }
                }
                node.end(comm, slot, 0.0, 0.0);
                continue;
            }
            Input::Shutdown => {
                recycle(pool, &mut blocks);
                wts.drain_shutdown(node, comm, slot);
                signal(comm, pc_edges(), slot, Payload::Shutdown);
                return;
            }
        };
        // Consume: beamform each member with the weights computed from its
        // own stream's CPI `scpi - beams` (quiescent before the first
        // revisit), exactly the per-stream serial schedule. A wait for the
        // slot's own weights (the early push) is idle, not compute.
        let (t, idle0) = (Instant::now(), node.idle);
        outs.take(pool, group.len());
        let (mut covered, mut degraded) = (0usize, false);
        for (u, sub) in group.iter().enumerate() {
            let (weights, stale) = wts.take(node, comm, slot, &group, sub);
            degraded |= stale;
            covered += gemm(u, &weights, &blocks, outs);
        }
        recycle(pool, &mut blocks);
        let comp = t.elapsed().as_secs_f64() - (node.idle - idle0);
        let t = Instant::now();
        outs.send(ctx, comm, out_edge, slot, &group, covered, degraded);
        let send = t.elapsed().as_secs_f64();
        // Push phase, after the send: the weight task may still be at
        // work on this slot, at most one slot behind the chain, and the
        // wait for it is idle time like any other blocked receive.
        wts.push_slot(node, comm, slot, Some(&group));
        node.end(comm, slot, comp, send);
    }
}

/// Resident easy beamform (task 3).
fn resident_easy_bf(ctx: &ResCtx, comm: &mut Comm<Msg>, local: usize) -> TaskExit {
    let p = ctx.params;
    let bins_idx = ctx.parts.easy_bf_bins[local].clone();
    let nbins = bins_idx.len();
    let easy_bins = p.easy_bins();
    let mut wts = WeightFifos::new(
        ctx,
        &bins_idx,
        (EASY_WT, &ctx.parts.easy_wt_bins),
        Edge::EasyWtToEasyBf,
        1,
        |w, _| w.next().expect("length checked"),
        |beam| vec![normalize_columns(ctx.steering[beam].clone()); nbins],
        &ctx.carry.easy_fifo,
    );
    let mut outs = PcBlocks::new(ctx, bins_idx.clone().map(|bn| easy_bins[bn]));
    // The GEMM operands, packed once each: the bin's `J x K` data
    // straight from the wire blocks, the weights conjugate-transposed.
    let mut data = PlanarMat::zeros(p.j_channels, p.k_range);
    let mut wpack = PlanarMat::new();
    let mut node = Node::new(ctx);
    beamform_slots(
        ctx,
        comm,
        &mut node,
        (Edge::DopplerToEasyBf, Edge::EasyBfToPc),
        &mut wts,
        &mut outs,
        |u, weights: &[CMat], blocks, outs| {
            let mut covered = 0;
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
            covered
        },
    );
    node.finish(comm, || {
        TaskState::EasyBf(export_ring(wts.queues, bins_idx.start))
    })
}

/// Resident hard beamform (task 4): per-(bin, segment) weight sets.
fn resident_hard_bf(ctx: &ResCtx, comm: &mut Comm<Msg>, local: usize) -> TaskExit {
    let p = ctx.params;
    let bins_idx = ctx.parts.hard_bf_bins[local].clone();
    let nbins = bins_idx.len();
    let hard_bins = p.hard_bins();
    let jj = 2 * p.j_channels;
    let segs = p.num_segments();
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
    // A weight message is `[member][bin][segment]`.
    let mut wts = WeightFifos::new(
        ctx,
        &bins_idx,
        (HARD_WT, &ctx.parts.hard_wt_bins),
        Edge::HardWtToHardBf,
        segs,
        |w, segs| w.take(segs).collect::<Vec<CMat>>(),
        quiescent,
        &ctx.carry.hard_fifo,
    );
    let mut outs = PcBlocks::new(ctx, bins_idx.clone().map(|bn| hard_bins[bn]));
    let seg_ranges: Vec<Range<usize>> = (0..segs).map(|s| p.segment_range(s)).collect();
    let mut data: Vec<PlanarMat> = seg_ranges
        .iter()
        .map(|r| PlanarMat::zeros(jj, r.len()))
        .collect();
    let mut wpack = PlanarMat::new();
    let mut node = Node::new(ctx);
    beamform_slots(
        ctx,
        comm,
        &mut node,
        (Edge::DopplerToHardBf, Edge::HardBfToPc),
        &mut wts,
        &mut outs,
        |u, weights: &[Vec<CMat>], blocks, outs| {
            let mut covered = 0;
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
            covered
        },
    );
    node.finish(comm, || {
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
    let cfar_edges = || ctx.assign.rank_range(CFAR).map(|r| (r, Edge::PcToCfar));
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
    let mut node = Node::new(ctx);
    for slot in 0.. {
        node.begin(comm, slot);
        let (mut covered, mut comp) = (0usize, 0.0f64);
        let input = node.recv(
            comm,
            slot,
            feeders.iter().map(|&(src, edge, _)| (src, edge)),
            ctx.policy.edge_timeout,
            |fi, m| {
                let t = Instant::now();
                let b = m
                    .group
                    .as_ref()
                    .expect("pipeline messages carry a group")
                    .len();
                if powers.is_empty() {
                    for ov in &cfar_ov {
                        let shape = [b * ov.len(), p.m_beams, p.k_range];
                        powers.push(take_block_for_overwrite(&ctx.pools.real, shape, f64::NAN));
                    }
                }
                let bins = &feeders[fi].2;
                let bl = bins.len();
                let mut block = expect_cube(m.payload);
                debug_assert_eq!(block.shape(), [b * bl, p.m_beams, p.k_range]);
                for (row, lanes) in block.as_mut_slice().chunks_exact_mut(plane).enumerate() {
                    let (c, at) = dest[bins[row % bl] - my_bins.start];
                    let at = (row / bl) * cfar_ov[c].len() + at;
                    let power = &mut powers[c].as_mut_slice()[at * plane..][..plane];
                    compressor.compress_in_place(lanes, power, &mut fft_ws);
                    covered += plane;
                }
                ctx.pools.cx.recycle(block);
                comp += t.elapsed().as_secs_f64();
            },
        );
        let (group, degraded) = match input {
            Input::Data(group, degraded) => (group, degraded),
            Input::Lost(_) => {
                recycle(&ctx.pools.real, &mut powers);
                signal(comm, cfar_edges(), slot, Payload::Dropped);
                node.end(comm, slot, comp, 0.0);
                continue;
            }
            Input::Shutdown => {
                recycle(&ctx.pools.real, &mut powers);
                signal(comm, cfar_edges(), slot, Payload::Shutdown);
                break;
            }
        };
        debug_assert_eq!(
            covered,
            powers.iter().map(RCube::len).sum::<usize>(),
            "pulse compression left power-block elements unwritten"
        );
        let t = Instant::now();
        for ((dst, edge), block) in cfar_edges().zip(powers.drain(..)) {
            comm.send(
                dst,
                tag(edge, slot),
                Msg {
                    degraded,
                    ..Msg::grouped(slot, group.clone(), Payload::Real(block))
                },
            );
        }
        node.end(comm, slot, comp, t.elapsed().as_secs_f64());
    }
    node.finish(comm, || TaskState::Stateless)
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
    let mut node = Node::new(ctx);
    for slot in 0.. {
        node.begin(comm, slot);
        let input = node.recv(
            comm,
            slot,
            feeders.iter().map(|&(src, _)| (src, Edge::PcToCfar)),
            ctx.policy.edge_timeout,
            |_, m| blocks.push(expect_real(m.payload)),
        );
        let (group, degraded) = match input {
            Input::Data(group, degraded) => (group, degraded),
            Input::Lost(_) => {
                // Tell the driver, so it classifies the slot as dropped
                // instead of waiting on detections that will never come.
                recycle(&ctx.pools.real, &mut blocks);
                signal(comm, [(driver, Edge::Output)], slot, Payload::Dropped);
                node.end(comm, slot, 0.0, 0.0);
                continue;
            }
            Input::Shutdown => {
                recycle(&ctx.pools.real, &mut blocks);
                break;
            }
        };
        let t = Instant::now();
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
        recycle(&ctx.pools.real, &mut blocks);
        let comp = t.elapsed().as_secs_f64();
        let t = Instant::now();
        comm.send(
            driver,
            tag(Edge::Output, slot),
            Msg {
                degraded,
                ..Msg::grouped(slot, group, Payload::DetectionsGroup(per_sub, mask))
            },
        );
        node.end(comm, slot, comp, t.elapsed().as_secs_f64());
    }
    node.finish(comm, || TaskState::Stateless)
}

/// One CPI for one Doppler node: the admitted cube *is* the input slab,
/// so the driver forwards it instead of copying it into a pooled slab
/// (and [`ResidentStap::reserve`] provisions no slab for that case).
fn forwards_admitted_cube(group_len: usize, parts: &Partitions) -> bool {
    group_len == 1 && parts.doppler_k.len() == 1
}

/// Where a session's slots come from and where their CPIs' results go.
pub(crate) trait Feed {
    /// The next slot group; blocks only when `wait`.
    /// `Err(Disconnected)` ends the world: its slots drain and the
    /// shutdown cascades.
    fn next(&mut self, wait: bool) -> Result<Vec<CpiJob>, TryRecvError>;
    /// Member `sub`'s result, `latency` seconds after its submission:
    /// its detections (`None` when the CPI was dropped) and whether a
    /// degraded mode touched it.
    fn complete(
        &mut self,
        sub: SubCpi,
        latency: f64,
        detections: Option<Vec<Detection>>,
        degraded: bool,
    );
}

/// The driver rank: windowed slot injection from `feed`, completion
/// collection, shutdown cascade. Returns the driver's health, the CPIs
/// completed and the slots run.
pub(crate) fn drive(
    ctx: &ResCtx,
    comm: &mut Comm<Msg>,
    window: usize,
    feed: &mut impl Feed,
) -> (PipelineHealth, u64, u64) {
    let p = ctx.params;
    let dop0 = ctx.assign.rank_range(DOPPLER).start;
    let mut inflight: VecDeque<(Arc<[SubCpi]>, Vec<Instant>)> = VecDeque::with_capacity(window);
    let mut node = Node::new(ctx);
    let mut next_slot = 0usize;
    let mut collected = 0usize;
    let mut cpis = 0u64;
    let mut open = true;
    while open || collected < next_slot {
        comm.fault_checkpoint(next_slot as u64);
        // Fill the window. Block for the first job only when nothing is
        // in flight; otherwise prefer draining completed slots.
        while open && next_slot - collected < window {
            let batch = match feed.next(collected == next_slot) {
                Ok(batch) => batch,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            };
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
            sample_mailbox(comm, &mut node.report.health);
            let (group, submitted) = inflight.pop_front().expect("a slot in flight");
            let b = group.len();
            let mut per_sub: Vec<Vec<Detection>> = (0..b).map(|_| Vec::new()).collect();
            let mut masked = vec![false; b];
            let input = node.recv(
                comm,
                collected,
                ctx.assign.rank_range(CFAR).map(|r| (r, Edge::Output)),
                ctx.policy.edge_timeout,
                |_, m| match m.payload {
                    Payload::DetectionsGroup(gs, mask) => {
                        debug_assert_eq!(gs.len(), b);
                        for (u, ds) in gs.into_iter().enumerate() {
                            per_sub[u].extend(ds);
                        }
                        for (u, &bad) in mask.iter().enumerate() {
                            masked[u] |= bad;
                        }
                    }
                    other => panic!("driver: expected DetectionsGroup, got {other:?}"),
                },
            );
            let (lost, degraded) = match input {
                Input::Data(_, degraded) => (false, degraded),
                Input::Lost(_) | Input::Shutdown => (true, false),
            };
            let now = Instant::now();
            for (u, mut ds) in per_sub.into_iter().enumerate() {
                let degraded = degraded || masked[u];
                let health = &mut node.report.health;
                if lost {
                    health.dropped_cpis += 1;
                } else if degraded {
                    health.degraded_cpis += 1;
                }
                ds.sort_by_key(|d| (d.bin, d.beam, d.range));
                let latency = now.duration_since(submitted[u]).as_secs_f64();
                feed.complete(group[u], latency, (!lost).then_some(ds), degraded);
            }
            if ctx.policy.fault_tolerant {
                purge_late(comm, collected, &mut node.report.health);
            }
            cpis += b as u64;
            collected += 1;
        }
    }
    // Every slot drained: cascade the shutdown from the input edge.
    let inputs = ctx.assign.rank_range(DOPPLER).map(|r| (r, Edge::Input));
    signal(comm, inputs, next_slot, Payload::Shutdown);
    let exit = node.finish(comm, || TaskState::Stateless);
    (exit.report.health, cpis, next_slot as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
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

#[cfg(test)]
mod seq_tests {
    use super::*;

    fn weights_msg(seq: usize) -> Msg {
        Msg::new(seq, Payload::Weights(Vec::new()))
    }

    /// A message whose `seq` disagrees with the slot being received (a
    /// late or duplicated delivery that landed on a reused tag) is
    /// discarded and counted, and the receive keeps waiting for the
    /// real message.
    #[test]
    fn out_of_order_seq_is_discarded_then_real_message_received() {
        let world: World<Msg> = World::new(2);
        let policy = RuntimePolicy::fault_tolerant();
        let counts = world.run_collect(move |mut comm| {
            if comm.rank() == 0 {
                // A stale slot-4 message mislabeled onto slot 5's tag,
                // then the genuine slot-5 message.
                comm.send(1, tag(Edge::Input, 5), weights_msg(4));
                comm.send(1, tag(Edge::Input, 5), weights_msg(5));
                0
            } else {
                let mut health = PipelineHealth::default();
                let got = recv_msg(
                    &mut comm,
                    0,
                    tag(Edge::Input, 5),
                    5,
                    &policy,
                    Duration::from_secs(2),
                    &mut health,
                );
                assert!(matches!(got, Recvd::Msg(Msg { seq: 5, .. })));
                health.edges[Edge::Input as usize].late_or_dup
            }
        });
        assert_eq!(counts[1], 1, "stale seq not counted");
    }

    /// Duplicated or late messages left in the mailbox are shed by the
    /// end-of-slot purge; messages for future slots survive it.
    #[test]
    fn purge_discards_current_and_earlier_cpis_only() {
        let world: World<Msg> = World::new(2);
        let policy = RuntimePolicy::fault_tolerant();
        let results = world.run_collect(move |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, tag(Edge::Input, 0), weights_msg(0)); // duplicate of a consumed slot
                comm.send(1, tag(Edge::Input, 1), weights_msg(1)); // late for the current slot
                comm.send(1, tag(Edge::Input, 2), weights_msg(2)); // next slot: must survive
                (0, true)
            } else {
                let mut health = PipelineHealth::default();
                // Give all three sends time to land in the mailbox.
                std::thread::sleep(Duration::from_millis(50));
                purge_late(&mut comm, 1, &mut health);
                // Slot 2 must still be receivable after the purge.
                let got = recv_msg(
                    &mut comm,
                    0,
                    tag(Edge::Input, 2),
                    2,
                    &policy,
                    Duration::from_secs(2),
                    &mut health,
                );
                let survived = matches!(got, Recvd::Msg(_));
                (health.edges[Edge::Input as usize].late_or_dup, survived)
            }
        });
        let (purged, survived) = results[1];
        assert!(purged >= 1, "nothing was purged");
        assert!(survived, "future slot was wrongly purged");
    }

    /// A TCP frame that does not decode reaches the loop as `Malformed`
    /// and, under either policy, is quarantined on its edge: the slot's
    /// input is gone and nothing panics.
    #[test]
    fn an_undecodable_wire_frame_is_quarantined_on_its_edge() {
        let (addr, coord) = stap_mp::spawn_coordinator(2).unwrap();
        let policies = [RuntimePolicy::default(), RuntimePolicy::fault_tolerant()];
        let t = |slot| tag(Edge::PcToCfar, slot);
        let quarantined: Vec<u64> = std::thread::scope(|s| {
            let ranks: Vec<_> = (0..2)
                .map(|rank| {
                    let (addr, policies) = (&addr, &policies);
                    s.spawn(move || {
                        let link = stap_mp::TcpLink::rendezvous(addr, rank, 2).unwrap();
                        let mut comm = Comm::over_wire(Box::new(link), crate::wire::msg_codec());
                        comm.install_wire_pool(Box::new(PipelinePools::default()));
                        let mut health = PipelineHealth::default();
                        for (slot, policy) in policies.iter().enumerate() {
                            if rank == 0 {
                                // Encodes to a frame of no decodable kind.
                                comm.send(1, t(slot), Msg::new(slot, Payload::Malformed));
                                continue;
                            }
                            let got = recv_msg(
                                &mut comm,
                                0,
                                t(slot),
                                slot,
                                policy,
                                Duration::from_secs(2),
                                &mut health,
                            );
                            assert!(matches!(got, Recvd::Gone), "slot {slot}");
                        }
                        health.edges[Edge::PcToCfar as usize].quarantined
                    })
                })
                .collect();
            ranks.into_iter().map(|r| r.join().unwrap()).collect()
        });
        coord.join().unwrap().unwrap();
        assert_eq!(quarantined, vec![0, 2]);
    }
}
