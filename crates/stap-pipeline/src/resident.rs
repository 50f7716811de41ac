//! The pipeline engine: seven task stages under one slot loop, resident
//! for a session.
//!
//! [`ParallelStap`] builds the world they run in, for one fixed
//! CPI list or for a session that serves many concurrent *streams*. A
//! served stream cannot afford a world per arrival, and each stream's
//! CPIs arrive interleaved with every other stream's, so the seven task
//! nodes stay resident and are driven with **slot groups**: the driver
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
//! That order is how the stages honour the paper's eq. 2, latency = T0 +
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
//! [`PipelinePools`] (pre-warmed by [`ParallelStap::reserve`] on the
//! serve path), so in the steady state no cube is allocated. The weight
//! sets are not pooled: `Weight::run` hands each target a fresh
//! `Vec<CMat>` every slot, and a beamformer's `push_slot` collects a new
//! `Vec` per member CPI.
//!
//! # One engine, one runner, any feed
//!
//! Every task node runs one slot loop, `run_node`, over its task's
//! *stage*: a value that keeps only what is the task's own — its
//! partition range, its cross-slot state and its kernel calls — and is
//! handed each message as it arrives (`take`), each complete slot
//! (`run`) and each lost or last one (`discard`). The loop owns the
//! rest, written once for all seven: the receive (`recv_msg`), the drop
//! markers a lost input sends on every out-entry, the shutdown cascade,
//! the slot's [`TaskTiming`] and span, the end-of-slot purge and the
//! export of the stage's state. Whom a node receives from and sends to,
//! and the kind and shape of each message, is the world's [`Schedule`]:
//! a node reads its entries once (`entries`). Every receive checks the delivered
//! payload against its entry and quarantines one that does not fit, so
//! a well-formed message of the wrong kind or shape costs its slot, not
//! the rank. The driver reads its slots
//! from a [`Feed`] that a session wraps: a batch's CPI list, a
//! [`ChannelFeed`] ([`ParallelStap::serve`]) or `stap-serve`'s
//! admission ledger. Whatever the feed, a world runs under the runner's
//! own settings:
//!
//! * its [`RuntimePolicy`]: plain blocking receives by default; a
//!   fault-tolerant one turns on deadlines, retries, sequence checks,
//!   quarantine, drop markers, stale-weight fallback and purging, with
//!   a deadline running only for a slot the driver has sent;
//! * traced, the session's trace epoch: one [`TaskSpan`] per slot per
//!   node and Doppler's redistribution spans;
//! * a feed that knows its length ([`Feed::slots`]: a CPI list) has
//!   every node keep each slot's timing and stop at the last slot; an
//!   open-ended one only sums them into [`ResidentSummary::busy`].

use crate::assignment::{overlap, NodeAssignment, Partitions, *};
use crate::fault::{payload_is_finite, RuntimePolicy};
use crate::metrics::{PipelineHealth, TaskTiming};
use crate::msg::{cpi_of_tag, edge_of_tag, tag, Edge, Msg, Payload, SubCpi};
use crate::runner::{ParallelStap, TaskReport};
use crate::schedule::{Entry, Kind, Schedule};
use crate::tasks::PipelinePools;
use crate::trace::TaskSpan;
use stap_core::params::StapParams;
use stap_core::training::hard_training_cells;
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
use stap_mp::{Comm, RecvError};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One CPI submitted to the resident pipeline.
pub struct CpiJob {
    /// Ingestion stream id.
    pub stream: u16,
    /// Per-stream CPI index (must be contiguous from 0 per stream).
    pub scpi: u32,
    /// The raw data cube, `[k_range, j_channels, n_pulses]`. Draw it
    /// from [`ParallelStap::pools`] (`cx.take_cube`) to keep the steady
    /// state allocation-free — the driver recycles it after packing.
    pub cube: CCube,
    /// Submission instant (the latency clock starts here).
    pub submitted: Instant,
}

/// One CPI's completed result, as a [`ChannelFeed`] delivers it on `done`.
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

impl CpiDone {
    /// The result a [`Feed`] is handed for `sub`: a dropped CPI
    /// (`detections` of `None`) is delivered degraded and empty.
    pub fn new(
        sub: SubCpi,
        latency: f64,
        detections: Option<Vec<Detection>>,
        degraded: bool,
    ) -> Self {
        CpiDone {
            stream: sub.stream,
            scpi: sub.scpi,
            degraded: degraded || detections.is_none(),
            detections: detections.unwrap_or_default(),
            latency,
        }
    }
}

/// What a resident session reports after shutdown.
#[derive(Clone, Debug, Default)]
pub struct ResidentSummary {
    /// CPIs fully processed.
    pub cpis: u64,
    /// Slots (coalesced groups) processed.
    pub slots: u64,
    /// Merged health counters: mailbox depth telemetry, and the fault
    /// counters of a runner with a fault-tolerant policy.
    pub health: PipelineHealth,
    /// Complex pool traffic. `misses` beyond warmup means
    /// [`ParallelStap::reserve`] under-provisioned.
    pub pool_cx: PoolStats,
    /// Real pool traffic.
    pub pool_real: PoolStats,
    /// Wall-clock seconds the session's worlds ran.
    pub elapsed: f64,
    /// Per-task busy seconds, summed over that task's nodes from the
    /// same per-slot [`TaskTiming`] records a batch reports
    /// (`total_without_idle`): wall-clock time spent computing and
    /// sending slots, excluding every blocked receive (a beamformer's
    /// wait for weights included). On a
    /// host with fewer cores than rank threads that includes time spent
    /// runnable but waiting for a core, so it overstates tasks that
    /// share their core (`scripts/thread_cpu.sh` reads the CPU each rank
    /// thread actually used). A rebalancing [`Session`](crate::Session) ranks
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
    /// Moves in the disjoint slice of another node.
    pub(crate) fn merge(&mut self, other: ResidentState) {
        self.easy_history.extend(other.easy_history);
        self.hard_r.extend(other.hard_r);
        self.easy_fifo.extend(other.easy_fifo);
        self.hard_fifo.extend(other.hard_fifo);
    }
}

impl ParallelStap {
    /// Demand-driven pool sizing: pre-warms every size class the
    /// resident hot path will draw from, for `streams` concurrent
    /// streams with `queue_depth` admitted-and-waiting CPIs each, so
    /// even the first slot is miss-free. Reads the exact block sizes from
    /// the [`Schedule`] the task loops route by: a block of one kind is
    /// one pooled entry — one (edge, sender, receiver) — and is
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
    /// both as margin. A feed may hand the driver any group size
    /// up to the bound at any time — partial groups are not only a
    /// ramp-up affair under paced arrivals — and a smaller group draws
    /// from a smaller size class, so every class a kind's group sizes
    /// fall into gets the whole window.
    pub fn reserve(&self, streams: usize, queue_depth: usize) {
        self.reserve_under(&self.assign, streams, queue_depth, 0);
    }

    /// [`Self::reserve`] for `assign`, with a recovering [`Session`](crate::Session)'s
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
        let schedule = Schedule::new(p, assign, Partitions::new(p, assign))
            .expect("block partitions cover their spaces");
        let b = self.max_group.min(streams.max(1)).max(1);
        let w = self.window + 2; // in-flight slots + a lagging weight slot + margin
        let mut cx: HashMap<usize, usize> = HashMap::new();
        let mut real: HashMap<usize, usize> = HashMap::new();
        // Raw CPI cubes: one held per producer, up to `queue_depth`
        // admitted per stream, plus in-flight groups and retained copies.
        let raw = p.k_range * p.j_channels * p.n_pulses;
        let raw_cubes = streams * (queue_depth + 1) + b * w + retained;
        cx.insert(raw.next_power_of_two(), raw_cubes);
        // One block kind per pooled entry, drawn for every group size
        // (a lone admitted cube is forwarded, not copied into a slab).
        for e in schedule.entries() {
            let pool = match e.kind {
                Kind::Cube => &mut cx,
                Kind::Real => &mut real,
                Kind::Weights | Kind::Detections => continue,
            };
            let per_cpi = e.block(1).iter().product::<usize>();
            let forwarded = |g| e.edge == Edge::Input && forwards_admitted_cube(g, assign);
            let classes: BTreeSet<usize> = (1..=b)
                .filter(|&g| per_cpi > 0 && !forwarded(g))
                .map(|g| (g * per_cpi).next_power_of_two())
                .collect();
            for class in classes {
                *pool.entry(class).or_default() += w;
            }
        }
        for (cap, count) in cx {
            self.pools().cx.reserve(cap, count);
        }
        for (cap, count) in real {
            self.pools().real.reserve(cap, count);
        }
    }
}

/// The session every rank of one world shares, read-only.
pub(crate) struct ResCtx<'a> {
    pub(crate) params: &'a StapParams,
    pub(crate) assign: &'a NodeAssignment,
    /// Each task's own range, for compute; routing reads `schedule`.
    pub(crate) parts: &'a Partitions,
    /// Every message of a slot: who sends what to whom.
    pub(crate) schedule: &'a Schedule,
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
    /// Slots the driver has sent. A receive deadline runs only for
    /// these: an idle node would otherwise drop a slot that does not
    /// exist yet, or step past the shutdown and hang, and a list's slot
    /// the driver holds back behind its window would be dropped by the
    /// wait for a late slot ahead of it. A rank whose driver runs in
    /// another process counts all of a list as sent. It publishes nothing
    /// else (the slot's data travels by message), so its accesses are
    /// relaxed.
    pub(crate) dispatched: AtomicUsize,
}

/// Runs node `local` of task `task` until its session shuts down: the
/// task's stage under the one slot loop.
pub(crate) fn run_task(
    ctx: &ResCtx,
    comm: &mut Comm<Msg>,
    task: usize,
    local: usize,
) -> TaskReport {
    match task {
        DOPPLER => run_node(ctx, comm, |_, outs| Doppler::new(ctx, local, outs)),
        EASY_WT => run_node(ctx, comm, |ins, outs| Weight::easy(ctx, local, ins, outs)),
        HARD_WT => run_node(ctx, comm, |_, outs| Weight::hard(ctx, local, outs)),
        EASY_BF => run_node(ctx, comm, |_, outs| easy_bf(ctx, local, outs)),
        HARD_BF => run_node(ctx, comm, |_, outs| hard_bf(ctx, local, outs)),
        PC => run_node(ctx, comm, |ins, outs| Pc::new(ctx, local, ins, outs)),
        _ => run_node(ctx, comm, |ins, _| Cfar::new(ctx, local, ins)),
    }
}

/// Outcome of one receive on a pipeline edge.
pub(crate) enum Recvd {
    /// The slot's message.
    Msg(Msg),
    /// The input is gone: an explicit drop marker, a quarantined payload
    /// or, fault-tolerant, a deadline overrun after retries.
    Gone,
    /// Nothing more will come: the shutdown sentinel or, fault-tolerant,
    /// a disconnected world.
    Shutdown,
}

/// Retries (each of the receive's `timeout`) before a fault-tolerant
/// data edge is declared lost and the CPI is dropped.
const EDGE_RETRIES: u32 = 1;

/// One receive of `entry`'s message for slot `slot` under `policy`.
///
/// The default policy is the plain blocking receive (an unexpected
/// `Disconnected` panics: fail fast, which the serve supervisor relies
/// on). The fault-tolerant path enforces `timeout` per attempt with
/// `EDGE_RETRIES` retries, discards messages whose `seq` does not match
/// `slot` (late/duplicate deliveries), and quarantines payloads holding
/// non-finite values; an attempt begun before the driver sent the slot
/// does not count. Under either policy a payload `entry` does not admit
/// for groups of up to `max_group` CPIs ([`Entry::admits`]: an
/// undecodable wire frame, a wrong kind or shape, a missing or oversized
/// group) is quarantined on its edge and the input is gone.
pub(crate) fn recv_msg(
    comm: &mut Comm<Msg>,
    (entry, max_group): (&Entry, usize),
    slot: usize,
    dispatched: &AtomicUsize,
    policy: &RuntimePolicy,
    timeout: Duration,
    health: &mut PipelineHealth,
) -> Recvd {
    let (src, e, t) = (entry.src, entry.edge as usize, tag(entry.edge, slot));
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
            let sent = slot < dispatched.load(Ordering::Relaxed);
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
                Err(RecvError::Timeout) if !sent => {}
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
        _ if entry.admits(&m, max_group) => Recvd::Msg(m),
        _ => {
            health.edges[e].quarantined += 1;
            Recvd::Gone
        }
    }
}

/// End-of-slot hygiene for fault-tolerant loops: discards every buffered
/// message belonging to slot `slot` or earlier — late deliveries the
/// loop gave up on, and duplicate copies of messages already consumed —
/// attributing the discards to their edges. Without this the
/// unexpected-message queue would grow for the rest of the run. A tag
/// of no pipeline edge is discarded whatever its slot.
pub(crate) fn purge_late(comm: &mut Comm<Msg>, slot: usize, health: &mut PipelineHealth) {
    let edges = &mut health.edges;
    comm.purge_pending(|_, t| match edges.get_mut(edge_of_tag(t)) {
        Some(edge) if cpi_of_tag(t) <= slot => {
            edge.late_or_dup += 1;
            false
        }
        Some(_) => true,
        None => false,
    });
}

/// Samples the receiver-side mailbox and max-merges the currently
/// buffered per-edge depths into `health.max_mailbox_depth`. Called once
/// per slot, at its top: one inbox drain plus a bucket walk,
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

/// What every task node and the driver share, one slot at a time: the
/// communicator, the receive, the slot's phase clock and span, the
/// end-of-slot purge, and the node's report.
struct Node<'a> {
    ctx: &'a ResCtx<'a>,
    comm: &'a mut Comm<Msg>,
    /// Its [`entries`]: those it receives a slot's data on, and those it
    /// sends on.
    ins: &'a [&'a Entry],
    outs: &'a [&'a Entry],
    report: TaskReport,
    /// The current slot, and when it began.
    slot: usize,
    started: Instant,
    /// Seconds of the current slot spent blocked in receives.
    idle: f64,
}

impl<'a> Node<'a> {
    fn new(ctx: &'a ResCtx<'a>, comm: &'a mut Comm<Msg>, io: &'a [Vec<&'a Entry>; 2]) -> Self {
        Node {
            ctx,
            comm,
            ins: &io[0],
            outs: &io[1],
            report: TaskReport::default(),
            slot: 0,
            started: Instant::now(),
            idle: 0.0,
        }
    }

    /// Top of slot `slot`: mailbox depth sample, fault checkpoint, and
    /// the slot clock.
    fn begin(&mut self, slot: usize) {
        sample_mailbox(self.comm, &mut self.report.health);
        self.comm.fault_checkpoint(slot as u64);
        self.slot = slot;
        self.started = Instant::now();
        self.idle = 0.0;
    }

    /// Receives slot `slot`'s message of each entry in `sources` in
    /// order, handing every delivered one to `take` with the entry's
    /// position. A message whose group is not as long as the first one's
    /// is quarantined. After a shutdown the remaining sources' shutdowns
    /// are drained.
    fn recv<'e>(
        &mut self,
        slot: usize,
        sources: impl IntoIterator<Item = &'e Entry>,
        timeout: Duration,
        mut take: impl FnMut(usize, Msg),
    ) -> Input {
        if self.ctx.slots.is_some_and(|n| slot >= n) {
            return Input::Shutdown;
        }
        let (mut group, mut degraded) = (None, false);
        let (mut lost, mut shutdown) = (false, false);
        for (i, entry) in sources.into_iter().enumerate() {
            let t = Instant::now();
            let got = recv_msg(
                self.comm,
                (entry, self.ctx.max_group),
                slot,
                &self.ctx.dispatched,
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
                    let len = |g: &Option<Arc<[SubCpi]>>| g.as_ref().map(|g| g.len());
                    if group.is_some() && len(&group) != len(&m.group) {
                        self.report.health.edges[entry.edge as usize].quarantined += 1;
                        lost = true;
                        continue;
                    }
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
        match group {
            _ if shutdown => Input::Shutdown,
            Some(group) if !lost => Input::Data(group, degraded),
            group => Input::Lost(group),
        }
    }

    /// End of the current slot, after its push phase: records the slot's
    /// timing (and span) and, fault-tolerant, purges what came late.
    fn end(&mut self, comp: f64, send: f64) {
        let t = TaskTiming {
            recv: self.idle,
            comp,
            send,
            recv_idle: self.idle,
        };
        self.report.busy += t.total_without_idle();
        if let Some(e) = self.ctx.epoch {
            let start = self.started.duration_since(e).as_secs_f64();
            self.report.spans.push(TaskSpan {
                cpi: self.slot,
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
            purge_late(self.comm, self.slot, &mut self.report.health);
        }
    }

    /// The node's exit; its cross-slot state is exported only for a
    /// session that can end an epoch at a boundary ([`Session`](crate::Session)):
    /// exporting copies every matrix out of the task's own layout.
    fn finish(mut self, state: impl FnOnce() -> ResidentState) -> TaskReport {
        self.report.health.mailbox_over_high_water = self.comm.mailbox_stats().over_high_water;
        if self.ctx.export {
            self.report.state = state();
        }
        self.report
    }
}

/// Sends `payload` (a shutdown or drop marker) for slot `slot` in place
/// of every entry of `outs`.
fn signal<'e>(
    comm: &Comm<Msg>,
    outs: impl IntoIterator<Item = &'e &'e Entry>,
    slot: usize,
    payload: Payload,
) {
    for e in outs {
        comm.send(e.dst, tag(e.edge, slot), Msg::new(slot, payload.clone()));
    }
}

fn recycle<T: Copy + Default>(pool: &SharedBufferPool<T>, blocks: &mut Vec<Cube<T>>) {
    for block in blocks.drain(..) {
        pool.recycle(block);
    }
}

/// The block of a cube-edge message, which the receive has checked.
fn cube(payload: Payload) -> Option<CCube> {
    match payload {
        Payload::Cube(c) => Some(c),
        _ => None,
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

/// The blocks a beamform or pulse-compression node sends in a slot, one
/// per receiver, `[member * bins + bin][M][K]` with the receiver's run
/// of this node's bins. They are drawn before the slot is computed and
/// the kernel stores each bin's `[M][K]` plane into them directly — the
/// GEMM's product, the compressed power: the one write of the edge.
struct RunBlocks<T> {
    /// Per receiver, its entry; the runs are this node's bins in order.
    outs: Vec<Entry>,
    /// Per bin of this node: its receiver and its row among that one's.
    dest: Vec<(usize, usize)>,
    blocks: Vec<Cube<T>>,
}

impl<T: Copy + Default> RunBlocks<T> {
    fn new<'e>(outs: impl Iterator<Item = &'e Entry>) -> Self {
        let outs: Vec<Entry> = outs.cloned().collect();
        let dest = (outs.iter().enumerate())
            .flat_map(|(t, e)| (0..e.shape[0]).map(move |row| (t, row)))
            .collect();
        let blocks = Vec::with_capacity(outs.len());
        RunBlocks { outs, dest, blocks }
    }

    /// Draws the slot's blocks for a group of `b` member CPIs.
    fn take(&mut self, pool: &SharedBufferPool<T>, b: usize, poison: T) {
        for e in &self.outs {
            (self.blocks).push(take_block_for_overwrite(pool, e.block(b), poison));
        }
    }

    /// The `[M][K]` plane of member `u`'s `bi`-th bin.
    fn plane_mut(&mut self, u: usize, bi: usize) -> &mut [T] {
        let (t, row) = self.dest[bi];
        let [count, m, k] = self.outs[t].shape;
        &mut self.blocks[t].as_mut_slice()[(u * count + row) * m * k..][..m * k]
    }

    /// Sends the finished blocks as `payload`s; `covered` is how many
    /// elements the slot stored into them.
    fn send(
        &mut self,
        node: &mut Node,
        group: &Arc<[SubCpi]>,
        (covered, degraded): (usize, bool),
        payload: fn(Cube<T>) -> Payload,
    ) {
        debug_assert_eq!(
            covered,
            self.blocks.iter().map(Cube::len).sum::<usize>(),
            "out-block elements left unwritten"
        );
        for (e, block) in self.outs.iter().zip(self.blocks.drain(..)) {
            let msg = Msg {
                degraded,
                ..Msg::grouped(node.slot, group.clone(), payload(block))
            };
            node.comm.send(e.dst, tag(e.edge, node.slot), msg);
        }
    }
}

/// What a task node does with its slots beyond what [`run_node`] does
/// for every node: its entries, its partition range, its cross-slot
/// state and its kernel calls.
trait Stage: Sized {
    /// Takes the slot's message from the `i`-th source, as it arrives.
    fn take(&mut self, i: usize, msg: Msg);

    /// Computes and sends the node's slot of `group`, which every source
    /// delivered (`degraded` when a sender computed its part in a
    /// degraded mode); returns the seconds spent computing and sending.
    fn run(&mut self, node: &mut Node, group: Arc<[SubCpi]>, degraded: bool) -> (f64, f64);

    /// Lets go of what the slot received when its `input` is lost or the
    /// session is over; returns the seconds it computed all the same.
    fn discard(&mut self, _: &mut Node, _: Input) -> f64 {
        0.0
    }

    /// The cross-slot state, keyed by global bins.
    fn export(self) -> ResidentState {
        ResidentState::default()
    }
}

/// Rank `me`'s entries, in schedule order: those it receives a slot's
/// data on (a beamformer receives its weights apart from the data), and
/// those it sends on. Doppler sends the beamformers' blocks first: they
/// are on the latency path (eq. 2), the weight tasks are not.
fn entries<'a>(ctx: &ResCtx<'a>, me: usize) -> [Vec<&'a Entry>; 2] {
    let all = ctx.schedule.entries().iter();
    let ins = (all.clone()).filter(|e| e.dst == me && e.kind != Kind::Weights);
    let mut outs: Vec<&Entry> = all.filter(|e| e.src == me).collect();
    outs.sort_by_key(|e| matches!(e.edge, Edge::DopplerToEasyWt | Edge::DopplerToHardWt));
    [ins.collect(), outs]
}

/// The slot loop of every task node: receives each slot on the node's
/// in-entries and hands a complete one to the stage, which `stage` builds
/// from its in- and out-entries. A lost input sends `Dropped` on every
/// out-entry, so the rest of the pipeline drains the slot at marker cost
/// instead of burning its own deadlines; a shutdown sends `Shutdown` on
/// every out-entry but the driver's (its feed told it) and ends the loop.
fn run_node<'a, S: Stage>(
    ctx: &ResCtx<'a>,
    comm: &mut Comm<Msg>,
    stage: impl FnOnce(&[&'a Entry], &[&'a Entry]) -> S,
) -> TaskReport {
    let io = entries(ctx, comm.rank());
    let (mut stage, mut node) = (stage(&io[0], &io[1]), Node::new(ctx, comm, &io));
    for slot in 0.. {
        node.begin(slot);
        let (ins, timeout) = (node.ins.iter().copied(), ctx.policy.edge_timeout);
        let input = node.recv(slot, ins, timeout, |i, m| stage.take(i, m));
        let (comp, send) = match input {
            Input::Data(group, degraded) => stage.run(&mut node, group, degraded),
            Input::Lost(_) => {
                signal(node.comm, node.outs, slot, Payload::Dropped);
                (stage.discard(&mut node, input), 0.0)
            }
            Input::Shutdown => {
                let outs = node.outs.iter().filter(|e| e.edge != Edge::Output);
                signal(node.comm, outs, slot, Payload::Shutdown);
                stage.discard(&mut node, input);
                break;
            }
        };
        node.end(comp, send);
    }
    node.finish(|| stage.export())
}

/// Doppler (task 0): one grouped slab in, one cache-tiled pass (taper,
/// FFT, corner turn) over it, four grouped redistribution blocks out.
struct Doppler {
    proc: DopplerProcessor,
    /// The node's first range cell.
    k0: usize,
    /// Per out-entry, its block's corner-turn layout.
    layouts: Vec<BinBlock>,
    blocks: Vec<CCube>,
    ws: DopplerScratch,
    slab: Option<CCube>,
}

impl Doppler {
    fn new(ctx: &ResCtx, local: usize, outs: &[&Entry]) -> Self {
        let p = ctx.params;
        let my_k = ctx.parts.doppler_k[local].clone();
        let (easy_bins, hard_bins) = (p.easy_bins(), p.hard_bins());
        let layouts = (outs.iter())
            .map(|e| {
                let easy = matches!(e.edge, Edge::DopplerToEasyBf | Edge::DopplerToEasyWt);
                let bins = &(if easy { &easy_bins } else { &hard_bins })[e.part.clone()];
                BinBlock::new(bins, &e.rows, my_k.len(), e.shape[2])
            })
            .collect();
        Doppler {
            proc: DopplerProcessor::new(p),
            k0: my_k.start,
            layouts,
            blocks: Vec::with_capacity(outs.len()),
            ws: DopplerScratch::new(),
            slab: None,
        }
    }
}

impl Stage for Doppler {
    fn take(&mut self, _: usize, m: Msg) {
        self.slab = cube(m.payload);
    }

    fn run(&mut self, node: &mut Node, group: Arc<[SubCpi]>, _: bool) -> (f64, f64) {
        let (p, pool, slot) = (node.ctx.params, &node.ctx.pools.cx, node.slot);
        let slab = self.slab.take().expect("the receive admits a cube");
        let t = Instant::now();
        // Doppler's "data collection and reorganization" happens inside
        // the tile pass; traced, each out-block is a `Redistribute` span
        // from the start of the pass to its send.
        let pack_t0 = node.comm.trace_now();
        let b = group.len();
        for layout in &self.layouts {
            let poison = Cx::new(f64::NAN, f64::NAN);
            (self.blocks).push(take_block_for_overwrite(pool, layout.shape(b), poison));
        }
        // The perf core: each tile is tapered, transformed and scattered
        // into all out-blocks while it is cache-resident.
        let (layouts, blocks, mut covered) = (&self.layouts, &mut self.blocks, 0usize);
        let (k0, jj) = (self.k0, 2 * p.j_channels);
        (self.proc).process_tiles_with(&slab, k0, b, &mut self.ws, |row0, tile| {
            for (layout, block) in layouts.iter().zip(blocks.iter_mut()) {
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
        for (e, block) in node.outs.iter().zip(blocks.drain(..)) {
            let (bytes, tg) = (8 * block.len() as u64, tag(e.edge, slot));
            let msg = Msg::grouped(slot, group.clone(), Payload::Cube(block));
            node.comm.send(e.dst, tg, msg);
            node.comm.trace_redistribute(e.dst, tg, bytes, pack_t0);
        }
        (comp, t.elapsed().as_secs_f64())
    }
}

/// A beamform node's per-(stream, beam) queues of per-bin weight sets,
/// each flagged stale or fresh.
type Fifos<T> = HashMap<(u16, usize), VecDeque<(Vec<T>, bool)>>;

/// The same queues as [`ResidentState`] keeps them: per
/// `(stream, beam, bin)`, with global bins.
type Rings<T> = HashMap<(u16, usize, usize), VecDeque<T>>;

/// Rebuilds a node-local `(stream, beam) -> queue of per-bin entries`
/// map from globally-keyed carried state: picks this node's `bins_idx`
/// slice and re-zips the per-bin queues back into per-slot-entry rows
/// (inner `Vec` indexed by local bin), preserving queue order exactly.
fn import_ring<T: Clone>(carried: &Rings<T>, bins_idx: &Range<usize>) -> Fifos<T> {
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
fn export_ring<T>(rings: Fifos<T>, bin0: usize) -> Rings<T> {
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

/// A weight task's lane-batched solver, keyed (stream, beam): it leaves
/// lane layout only to be exported when the session drains.
enum Lanes {
    /// Easy weight (task 1): the dense solve of the node's bins over
    /// history rings, exported as [`ResidentState::easy_history`].
    Easy(EasyWeightLanes<(u16, usize)>),
    /// Hard weight (task 2): the QR recursion of the node's bins,
    /// exported as [`ResidentState::hard_r`].
    Hard(HardWeightLanes<(u16, usize)>),
}

/// A weight task (1 or 2): one block per Doppler node in, the lanes'
/// solve for every member CPI of the slot, and one grouped weight message
/// per overlapping BF node out — `[member CPI][bin][per_bin]`, the order
/// the wire has always carried. A slot with a lost input leaves the
/// lanes' state untouched, so the next fresh weights differ from a clean
/// run's.
struct Weight {
    lanes: Lanes,
    bins: Range<usize>,
    /// Matrices per bin in a weight message.
    per_bin: usize,
    /// Per out-entry — a BF node whose bins overlap this node's — the
    /// slot's message. The overlaps are this node's bins in order, each
    /// bin in exactly one of them.
    per_node: Vec<Vec<CMat>>,
    blocks: Vec<CCube>,
}

impl Weight {
    fn easy(ctx: &ResCtx, local: usize, ins: &[&Entry], outs: &[&Entry]) -> Self {
        let bins = ctx.parts.easy_wt_bins[local].clone();
        // Each Doppler node's block holds its share of the training cells.
        let dp_cells: Vec<usize> = ins.iter().map(|e| e.shape[1]).collect();
        let mut lanes = EasyWeightLanes::new(ctx.params, bins.len(), &dp_cells);
        for (&(stream, beam, bin), history) in &ctx.carry.easy_history {
            if bins.contains(&bin) {
                lanes.import((stream, beam), bin - bins.start, history);
            }
        }
        Weight::new(Lanes::Easy(lanes), bins, 1, outs)
    }

    fn hard(ctx: &ResCtx, local: usize, outs: &[&Entry]) -> Self {
        let p = ctx.params;
        let bins = ctx.parts.hard_wt_bins[local].clone();
        let segs = p.num_segments();
        // Each Doppler node's block holds its share of every segment's
        // training cells, segment after segment.
        let dp_counts: Vec<Vec<usize>> = (ctx.parts.doppler_k.iter())
            .map(|kr| {
                let within =
                    |s| (hard_training_cells(p, s).iter().filter(|c| kr.contains(c))).count();
                (0..segs).map(within).collect()
            })
            .collect();
        let mut lanes = HardWeightLanes::new(p, &p.hard_bins()[bins.clone()], &dp_counts);
        for (&(stream, beam, bin, seg), r) in &ctx.carry.hard_r {
            if bins.contains(&bin) {
                lanes.import((stream, beam), bin - bins.start, seg, r);
            }
        }
        Weight::new(Lanes::Hard(lanes), bins, segs, outs)
    }

    /// The weight ranks run at background priority.
    fn new(lanes: Lanes, bins: Range<usize>, per_bin: usize, outs: &[&Entry]) -> Self {
        run_at_background_priority();
        Weight {
            lanes,
            bins,
            per_bin,
            per_node: vec![Vec::new(); outs.len()],
            blocks: Vec::new(),
        }
    }
}

impl Stage for Weight {
    fn take(&mut self, _: usize, m: Msg) {
        self.blocks.extend(cube(m.payload));
    }

    fn run(&mut self, node: &mut Node, group: Arc<[SubCpi]>, _: bool) -> (f64, f64) {
        let (ctx, t) = (node.ctx, Instant::now());
        for (w, e) in self.per_node.iter_mut().zip(node.outs) {
            w.resize(group.len() * e.shape[0], CMat::zeros(0, 0));
        }
        for (u, sub) in group.iter().enumerate() {
            let beam = sub.scpi as usize % ctx.steering.len();
            let (key, steering) = ((sub.stream, beam), &ctx.steering[beam]);
            let weights = (self.per_node.iter_mut().zip(node.outs))
                .flat_map(|(w, e)| w[u * e.shape[0]..][..e.shape[0]].chunks_mut(self.per_bin));
            let plane = member_plane(&self.blocks, u, self.bins.len());
            match &mut self.lanes {
                Lanes::Easy(l) => l.process(key, steering, plane, weights.map(|w| &mut w[0])),
                Lanes::Hard(l) => l.process(key, steering, plane, weights),
            }
        }
        recycle(&ctx.pools.cx, &mut self.blocks);
        let comp = t.elapsed().as_secs_f64();
        let (slot, t) = (node.slot, Instant::now());
        for (e, w) in node.outs.iter().zip(&mut self.per_node) {
            let msg = Msg::grouped(slot, group.clone(), Payload::Weights(std::mem::take(w)));
            node.comm.send(e.dst, tag(e.edge, slot), msg);
        }
        (comp, t.elapsed().as_secs_f64())
    }

    fn discard(&mut self, node: &mut Node, _: Input) -> f64 {
        recycle(&node.ctx.pools.cx, &mut self.blocks);
        0.0
    }

    fn export(self) -> ResidentState {
        let (bin0, mut state) = (self.bins.start, ResidentState::default());
        match self.lanes {
            Lanes::Easy(l) => {
                (state.easy_history).extend(l.export().map(|((s, b), i, h)| ((s, b, bin0 + i), h)))
            }
            Lanes::Hard(l) => {
                (state.hard_r).extend(l.export().map(|((s, b), i, g, r)| ((s, b, bin0 + i, g), r)))
            }
        }
        state
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

/// A beamform node's pending weights: per-(stream, beam) FIFOs of weight
/// sets, one `T` per bin of the node, fed from the weight messages of
/// the slots the node has beamformed; each set is flagged stale when it
/// stands in for a lost weight message. Popping the front of a member's
/// FIFO yields the set computed from `(stream, scpi - beams)`.
struct WeightFifos<T, Q> {
    /// The weight nodes feeding this node, each with its overlap of the
    /// node's bins; the overlaps are the node's bins in order.
    sources: Vec<Entry>,
    edge: Edge,
    beams: usize,
    /// Matrices per bin in a weight message, and how they make a `T`.
    per_bin: usize,
    unpack: fn(&mut std::vec::IntoIter<CMat>, usize) -> T,
    /// The weights of each azimuth's first visit (`scpi < beams`) and of
    /// last resort.
    quiescent: Q,
    queues: Fifos<T>,
    /// The node's first bin.
    bin0: usize,
    /// The last set pushed fresh per (stream, beam): what a lost weight
    /// message is replaced with. Kept by fault-tolerant sessions only.
    last_good: HashMap<(u16, usize), Vec<T>>,
    /// Slots whose weight messages have been pushed.
    pushed: usize,
}

impl<T: Clone, Q: Fn(usize) -> Vec<T>> WeightFifos<T, Q> {
    /// The FIFOs of node `rank`, owning `bins_idx` of the bins its weight
    /// messages on `edge` carry, starting from `carried`.
    fn new(
        ctx: &ResCtx,
        (rank, bins_idx): (usize, &Range<usize>),
        edge: Edge,
        per_bin: usize,
        unpack: fn(&mut std::vec::IntoIter<CMat>, usize) -> T,
        quiescent: Q,
        carried: &Rings<T>,
    ) -> Self {
        WeightFifos {
            sources: ctx.schedule.recvs(rank, edge).cloned().collect(),
            edge,
            beams: ctx.steering.len(),
            per_bin,
            unpack,
            quiescent,
            queues: import_ring(carried, bins_idx),
            bin0: bins_idx.start,
            last_good: HashMap::new(),
            pushed: 0,
        }
    }

    /// The stand-in for a lost set of `key`, counted as stale.
    fn stale(&self, node: &mut Node, key: (u16, usize)) -> Vec<T> {
        node.report.health.edges[self.edge as usize].stale_weights += 1;
        (self.last_good.get(&key).cloned()).unwrap_or_else(|| (self.quiescent)(key.1))
    }

    /// Push phase: receives the node's slot's weight messages
    /// (`[member][bin][per_bin]` each) and moves each member CPI's
    /// freshly-computed per-bin set to the back of that member's FIFO —
    /// or, when a message is lost, the last good set of that (stream,
    /// beam), flagged stale. Does nothing when the slot was already
    /// pushed. Returns the slot's group: `group` if the caller knows it,
    /// else the weight messages'.
    fn push_slot(
        &mut self,
        node: &mut Node,
        group: Option<&Arc<[SubCpi]>>,
    ) -> Option<Arc<[SubCpi]>> {
        let slot = node.slot;
        if self.pushed > slot {
            return group.cloned();
        }
        self.pushed = slot + 1;
        let mut fresh: Vec<std::vec::IntoIter<CMat>> = Vec::with_capacity(self.sources.len());
        let input = node.recv(slot, &self.sources, node.ctx.policy.weight_grace, |_, m| {
            if let Payload::Weights(w) = m.payload {
                fresh.push(w.into_iter());
            }
        });
        // Weights for a group of another length than the slot's data are
        // as good as lost.
        let (group, lost) = match (input, group) {
            (Input::Data(g, _), Some(known)) => (known.clone(), g.len() != known.len()),
            (Input::Data(g, _), None) => (g, false),
            (Input::Lost(g), known) => (known.cloned().or(g)?, true),
            (Input::Shutdown, known) => (known.cloned()?, true),
        };
        for sub in group.iter() {
            let key = (sub.stream, sub.scpi as usize % self.beams);
            let set = if lost {
                self.stale(node, key)
            } else {
                let set: Vec<T> = (fresh.iter_mut().zip(&self.sources))
                    .flat_map(|(w, e)| e.part.clone().map(|_| (self.unpack)(w, self.per_bin)))
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

    /// The weights member `sub` of the node's slot is beamformed with, and
    /// whether they are stale: quiescent on the azimuth's first visit,
    /// else the front of its FIFO. Every earlier slot's weights were
    /// pushed after that slot's send, so they wait in the FIFO and the
    /// slot's own weight messages are off its latency path (eq. 2) —
    /// unless the slot also carries `scpi - beams` of this stream: then
    /// the FIFO is empty and the slot is pushed here, before its GEMM.
    fn take(&mut self, node: &mut Node, group: &Arc<[SubCpi]>, sub: &SubCpi) -> (Vec<T>, bool) {
        let key = (sub.stream, sub.scpi as usize % self.beams);
        if (sub.scpi as usize) < self.beams {
            return ((self.quiescent)(key.1), false);
        }
        if self.queues.get(&key).is_none_or(VecDeque::is_empty) {
            self.push_slot(node, Some(group));
        }
        match self.queues.get_mut(&key).and_then(VecDeque::pop_front) {
            Some(set) => set,
            // Only a fault-tolerant session that lost everything about an
            // earlier slot gets here.
            None if node.ctx.policy.fault_tolerant => (self.stale(node, key), true),
            None => panic!("weight FIFO underflow: streams must submit CPIs in order"),
        }
    }

    /// Drains the weight edge's shutdowns (the Doppler shutdowns of the
    /// node's slot were received).
    fn drain_shutdown(&self, node: &mut Node) {
        let grace = node.ctx.policy.weight_grace;
        node.recv(node.slot, &self.sources, grace, |_, _| {
            panic!("weights after the last slot")
        });
    }
}

/// A beamform task (3 or 4): one block per Doppler node in, and per slot
/// *consume* (beamform every member with the weights its FIFO holds;
/// `gemm` computes member `u`'s bins from the blocks into the PC blocks
/// and says how many elements it stored), *send*, then *push* the slot's
/// own weights. A slot with lost data still pushes its weights — the next
/// revisit needs them — and retires what it would have consumed.
struct Beamform<T, Q, G> {
    wts: WeightFifos<T, Q>,
    outs: RunBlocks<Cx>,
    blocks: Vec<CCube>,
    gemm: G,
    /// Where the FIFOs go in the exported state.
    state: fn(Rings<T>) -> ResidentState,
}

impl<T, Q, G> Stage for Beamform<T, Q, G>
where
    T: Clone,
    Q: Fn(usize) -> Vec<T>,
    G: FnMut(usize, &[T], &[CCube], &mut RunBlocks<Cx>) -> usize,
{
    fn take(&mut self, _: usize, m: Msg) {
        self.blocks.extend(cube(m.payload));
    }

    fn run(&mut self, node: &mut Node, group: Arc<[SubCpi]>, _: bool) -> (f64, f64) {
        let ctx = node.ctx;
        let pool = &ctx.pools.cx;
        // Consume: beamform each member with the weights computed from its
        // own stream's CPI `scpi - beams` (quiescent before the first
        // revisit), exactly the per-stream serial schedule. A wait for the
        // slot's own weights (the early push) is idle, not compute.
        let (t, idle0) = (Instant::now(), node.idle);
        (self.outs).take(pool, group.len(), Cx::new(f64::NAN, f64::NAN));
        let (mut covered, mut degraded) = (0usize, false);
        for (u, sub) in group.iter().enumerate() {
            let (weights, stale) = self.wts.take(node, &group, sub);
            degraded |= stale;
            covered += (self.gemm)(u, &weights, &self.blocks, &mut self.outs);
        }
        recycle(pool, &mut self.blocks);
        let comp = t.elapsed().as_secs_f64() - (node.idle - idle0);
        let t = Instant::now();
        (self.outs).send(node, &group, (covered, degraded), Payload::Cube);
        let send = t.elapsed().as_secs_f64();
        // Push phase, after the send: the weight task may still be at
        // work on this slot, at most one slot behind the chain, and the
        // wait for it is idle time like any other blocked receive.
        self.wts.push_slot(node, Some(&group));
        (comp, send)
    }

    fn discard(&mut self, node: &mut Node, input: Input) -> f64 {
        recycle(&node.ctx.pools.cx, &mut self.blocks);
        match input {
            Input::Lost(group) => {
                if let Some(group) = self.wts.push_slot(node, group.as_ref()) {
                    for sub in group.iter() {
                        self.wts.take(node, &group, sub);
                    }
                }
            }
            _ => self.wts.drain_shutdown(node),
        }
        0.0
    }

    fn export(self) -> ResidentState {
        (self.state)(export_ring(self.wts.queues, self.wts.bin0))
    }
}

/// Easy beamform (task 3).
fn easy_bf<'a>(ctx: &'a ResCtx<'a>, local: usize, outs: &[&Entry]) -> impl Stage + 'a {
    // Every beamform node sends to every PC node.
    let (p, me) = (ctx.params, outs[0].src);
    let bins_idx = ctx.parts.easy_bf_bins[local].clone();
    let nbins = bins_idx.len();
    // The GEMM operands, packed once each: the bin's `J x K` data
    // straight from the wire blocks, the weights conjugate-transposed.
    let mut data = PlanarMat::zeros(p.j_channels, p.k_range);
    let mut wpack = PlanarMat::new();
    Beamform {
        wts: WeightFifos::new(
            ctx,
            (me, &bins_idx),
            Edge::EasyWtToEasyBf,
            1,
            |w, _| w.next().expect("length checked"),
            move |beam| vec![normalize_columns(ctx.steering[beam].clone()); nbins],
            &ctx.carry.easy_fifo,
        ),
        outs: RunBlocks::new(outs.iter().copied()),
        blocks: Vec::new(),
        gemm: move |u, weights: &[CMat], blocks: &[CCube], outs: &mut RunBlocks<Cx>| {
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
        state: |easy_fifo| ResidentState {
            easy_fifo,
            ..ResidentState::default()
        },
    }
}

/// Hard beamform (task 4): per-(bin, segment) weight sets.
fn hard_bf<'a>(ctx: &'a ResCtx<'a>, local: usize, outs: &[&Entry]) -> impl Stage + 'a {
    // Every beamform node sends to every PC node.
    let (p, me) = (ctx.params, outs[0].src);
    let bins_idx = ctx.parts.hard_bf_bins[local].clone();
    let nbins = bins_idx.len();
    let jj = 2 * p.j_channels;
    let segs = p.num_segments();
    let (hard_bins, bins) = (p.hard_bins(), bins_idx.clone());
    let quiescent = move |beam: usize| -> Vec<Vec<CMat>> {
        bins.clone()
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
    let seg_ranges: Vec<Range<usize>> = (0..segs).map(|s| p.segment_range(s)).collect();
    let mut data: Vec<PlanarMat> = seg_ranges
        .iter()
        .map(|r| PlanarMat::zeros(jj, r.len()))
        .collect();
    let mut wpack = PlanarMat::new();
    Beamform {
        // A weight message is `[member][bin][segment]`.
        wts: WeightFifos::new(
            ctx,
            (me, &bins_idx),
            Edge::HardWtToHardBf,
            segs,
            |w, segs| w.take(segs).collect::<Vec<CMat>>(),
            quiescent,
            &ctx.carry.hard_fifo,
        ),
        outs: RunBlocks::new(outs.iter().copied()),
        blocks: Vec::new(),
        gemm: move |u, weights: &[Vec<CMat>], blocks: &[CCube], outs: &mut RunBlocks<Cx>| {
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
        state: |hard_fifo| ResidentState {
            hard_fifo,
            ..ResidentState::default()
        },
    }
}

/// Pulse compression (task 5): each received beamform block is
/// compressed in place as it arrives, lane by lane, the power written
/// straight into the blocks CFAR receives.
struct Pc {
    pools: PipelinePools,
    compressor: PulseCompressor,
    /// Per feeding BF node, my bins its block holds, as offsets.
    bins: Vec<Vec<usize>>,
    outs: RunBlocks<f64>,
    ws: FftScratch,
    /// The slot's elements compressed and seconds spent so far.
    covered: usize,
    comp: f64,
}

impl Pc {
    fn new(ctx: &ResCtx, local: usize, ins: &[&Entry], outs: &[&Entry]) -> Self {
        let p = ctx.params;
        let (easy_bins, hard_bins) = (p.easy_bins(), p.hard_bins());
        let bin0 = ctx.parts.pc_bins[local].start;
        let bins = (ins.iter())
            .map(|e| {
                let easy = e.edge == Edge::EasyBfToPc;
                let bins = &(if easy { &easy_bins } else { &hard_bins })[e.part.clone()];
                bins.iter().map(|b| b - bin0).collect()
            })
            .collect();
        Pc {
            pools: ctx.pools.clone(),
            compressor: PulseCompressor::new(p),
            bins,
            outs: RunBlocks::new(outs.iter().copied()),
            ws: FftScratch::new(),
            covered: 0,
            comp: 0.0,
        }
    }
}

impl Stage for Pc {
    fn take(&mut self, fi: usize, m: Msg) {
        let t = Instant::now();
        if self.outs.blocks.is_empty() {
            let b = m.group.as_ref().map_or(0, |g| g.len());
            self.outs.take(&self.pools.real, b, f64::NAN);
        }
        let Some(mut block) = cube(m.payload) else {
            return;
        };
        let ([_, m, k], bins) = (block.shape(), &self.bins[fi]);
        let (plane, bl) = (m * k, bins.len());
        for (row, lanes) in block.as_mut_slice().chunks_exact_mut(plane).enumerate() {
            let power = self.outs.plane_mut(row / bl, bins[row % bl]);
            (self.compressor).compress_in_place(lanes, power, &mut self.ws);
            self.covered += plane;
        }
        self.pools.cx.recycle(block);
        self.comp += t.elapsed().as_secs_f64();
    }

    fn run(&mut self, node: &mut Node, group: Arc<[SubCpi]>, degraded: bool) -> (f64, f64) {
        let t = Instant::now();
        let covered = std::mem::take(&mut self.covered);
        (self.outs).send(node, &group, (covered, degraded), Payload::Real);
        (std::mem::take(&mut self.comp), t.elapsed().as_secs_f64())
    }

    fn discard(&mut self, _: &mut Node, _: Input) -> f64 {
        recycle(&self.pools.real, &mut self.outs.blocks);
        self.covered = 0;
        std::mem::take(&mut self.comp)
    }
}

/// CFAR (task 6): the detector runs over the received power blocks where
/// they lie, in bin order (one block per PC node, holding its ascending
/// share of the node's bins); per-member detection lists go to the driver
/// in one grouped `DetectionsGroup` message per slot.
struct Cfar {
    blocks: Vec<RCube>,
    scratch: cfar::CfarScratch,
}

impl Cfar {
    fn new(ctx: &ResCtx, local: usize, ins: &[&Entry]) -> Self {
        let scratch = cfar::CfarScratch::for_task(ctx.params, ctx.parts.cfar_bins[local].len());
        let blocks = Vec::with_capacity(ins.len());
        Cfar { blocks, scratch }
    }
}

impl Stage for Cfar {
    fn take(&mut self, _: usize, m: Msg) {
        if let Payload::Real(r) = m.payload {
            self.blocks.push(r);
        }
    }

    fn run(&mut self, node: &mut Node, group: Arc<[SubCpi]>, degraded: bool) -> (f64, f64) {
        let (ctx, t, slot) = (node.ctx, Instant::now(), node.slot);
        let (p, b) = (ctx.params, group.len());
        // The message to the driver: per member CPI its detections and,
        // when screening, whether its power held non-finite samples —
        // each member's lanes are disjoint rows of the blocks, so a
        // poisoned tenant degrades its own CPI, never its slot-mates'.
        let mut per_sub: Vec<Vec<Detection>> = Vec::with_capacity(b);
        let mut mask: Vec<bool> = Vec::with_capacity(if ctx.screen { b } else { 0 });
        for u in 0..b {
            self.scratch.begin_cpi();
            let mut poisoned = false;
            for (block, e) in self.blocks.iter().zip(node.ins) {
                for (i, bin) in e.part.clone().enumerate() {
                    for m in 0..p.m_beams {
                        let lane = block.lane(u * e.shape[0] + i, m);
                        if ctx.screen && !lane.iter().all(|v| v.is_finite()) {
                            poisoned = true;
                        }
                        cfar::cfar_lane(p, lane, bin, m, &mut self.scratch.detections);
                    }
                }
            }
            if ctx.screen {
                mask.push(poisoned);
            }
            per_sub.push(self.scratch.take());
        }
        recycle(&ctx.pools.real, &mut self.blocks);
        let comp = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (output, detections) = (node.outs[0], Payload::DetectionsGroup(per_sub, mask));
        let msg = Msg {
            degraded,
            ..Msg::grouped(slot, group, detections)
        };
        node.comm.send(output.dst, tag(output.edge, slot), msg);
        (comp, t.elapsed().as_secs_f64())
    }

    fn discard(&mut self, node: &mut Node, _: Input) -> f64 {
        recycle(&node.ctx.pools.real, &mut self.blocks);
        0.0
    }
}

/// One CPI for one Doppler node: the admitted cube *is* the input slab,
/// so the driver forwards it instead of copying it into a pooled slab
/// (and [`ParallelStap::reserve`] provisions no slab for that case).
fn forwards_admitted_cube(group_len: usize, assign: &NodeAssignment) -> bool {
    group_len == 1 && assign.nodes(DOPPLER) == 1
}

/// Where a session's slots come from and where their CPIs' results go:
/// a jobs channel ([`ChannelFeed`]), the batch engine's CPI list, or
/// `stap-serve`'s admission ledger. A [`Session`](crate::Session) wraps the caller's
/// feed for every world it launches, and the driver rank calls it on
/// its own thread.
pub trait Feed {
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
    /// True when `stream` has left for good: a recovering session drops
    /// its retained CPIs instead of replaying them, because a retired
    /// stream's sequence must not advance. No stream ever is, by default.
    fn is_retired(&self, _stream: u16) -> bool {
        false
    }
    /// One CPI of a retired `stream` that a recovery could not replay.
    fn lost(&mut self, _stream: u16) {}
    /// How many slots the feed has left to hand out, when that is known
    /// up front (a CPI list); `None`, open-ended, by default.
    fn slots(&self) -> Option<usize> {
        None
    }
}

/// The feed of [`ParallelStap::serve`]: slot groups from `jobs`,
/// results to `done` (a closed `done` receiver is ignored).
pub struct ChannelFeed {
    /// One slot group per message; disconnecting ends the session.
    pub jobs: Receiver<Vec<CpiJob>>,
    /// One [`CpiDone`] per member CPI, in slot order.
    pub done: Sender<CpiDone>,
}

impl Feed for ChannelFeed {
    fn next(&mut self, wait: bool) -> Result<Vec<CpiJob>, TryRecvError> {
        if wait {
            self.jobs.recv().map_err(|_| TryRecvError::Disconnected)
        } else {
            self.jobs.try_recv()
        }
    }

    fn complete(
        &mut self,
        sub: SubCpi,
        latency: f64,
        detections: Option<Vec<Detection>>,
        degraded: bool,
    ) {
        let _ = (self.done).send(CpiDone::new(sub, latency, detections, degraded));
    }
}

/// The driver rank: windowed slot injection from `feed`, completion
/// collection, shutdown cascade. Returns the driver's health.
pub(crate) fn drive(
    ctx: &ResCtx,
    comm: &mut Comm<Msg>,
    window: usize,
    feed: &mut impl Feed,
) -> PipelineHealth {
    let p = ctx.params;
    let io = entries(ctx, comm.rank());
    let (outputs, inputs) = (&io[0], &io[1]);
    let mut inflight: VecDeque<(Arc<[SubCpi]>, Vec<Instant>)> = VecDeque::with_capacity(window);
    let mut node = Node::new(ctx, comm, &io);
    let mut next_slot = 0usize;
    let mut collected = 0usize;
    let mut open = true;
    while open || collected < next_slot {
        node.comm.fault_checkpoint(next_slot as u64);
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
            if forwards_admitted_cube(b, ctx.assign) {
                let job = batch.into_iter().next().expect("b == 1");
                assert_eq!(
                    job.cube.shape(),
                    [p.k_range, p.j_channels, p.n_pulses],
                    "CPI cube shape"
                );
                node.comm.send(
                    inputs[0].dst,
                    tag(Edge::Input, next_slot),
                    Msg::grouped(next_slot, group.clone(), Payload::Cube(job.cube)),
                );
            } else {
                for e in inputs {
                    let kr = &e.part;
                    // Axis 0 is the slowest axis, so each sub-CPI's k-slab
                    // is one contiguous run: assemble the group slab with b
                    // slice copies rather than an element-wise rebuild.
                    let row = p.j_channels * p.n_pulses;
                    let mut buf = ctx.pools.cx.get(b * kr.len() * row);
                    for job in &batch {
                        buf.extend_from_slice(&job.cube.as_slice()[kr.start * row..kr.end * row]);
                    }
                    let slab = CCube::from_vec(e.block(b), buf);
                    node.comm.send(
                        e.dst,
                        tag(e.edge, next_slot),
                        Msg::grouped(next_slot, group.clone(), Payload::Cube(slab)),
                    );
                }
                for job in batch {
                    ctx.pools.cx.recycle(job.cube);
                }
            }
            inflight.push_back((group, submitted));
            next_slot += 1;
            ctx.dispatched.fetch_max(next_slot, Ordering::Relaxed);
        }
        if collected < next_slot {
            sample_mailbox(node.comm, &mut node.report.health);
            let (group, submitted) = inflight.pop_front().expect("a slot in flight");
            let b = group.len();
            let mut per_sub: Vec<Vec<Detection>> = (0..b).map(|_| Vec::new()).collect();
            let mut masked = vec![false; b];
            let input = node.recv(
                collected,
                outputs.iter().copied(),
                ctx.policy.edge_timeout,
                |_, m| {
                    if let Payload::DetectionsGroup(gs, mask) = m.payload {
                        for (acc, ds) in per_sub.iter_mut().zip(gs) {
                            acc.extend(ds);
                        }
                        for (acc, bad) in masked.iter_mut().zip(mask) {
                            *acc |= bad;
                        }
                    }
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
                purge_late(node.comm, collected, &mut node.report.health);
            }
            collected += 1;
        }
    }
    // Every slot drained: cascade the shutdown from the input edge.
    signal(node.comm, inputs, next_slot, Payload::Shutdown);
    node.finish(ResidentState::default).health
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_radar::Scenario;
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
        let res = ParallelStap::for_scenario(params, assign, &sc).with_max_group(3);
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
            let res = ParallelStap::for_scenario(params.clone(), assign, &sc).with_max_group(3);
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
            let res = ParallelStap::for_scenario(params.clone(), assign, &sc)
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
        let res = ParallelStap::for_scenario(params, NodeAssignment([1; 7]), &sc)
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
    use stap_mp::World;

    /// A list's slots: every one counts as sent.
    static ALL_SENT: AtomicUsize = AtomicUsize::new(usize::MAX);

    /// The reduced geometry's schedule under `assign`.
    fn schedule(assign: NodeAssignment) -> Schedule {
        let p = StapParams::reduced();
        Schedule::new(&p, &assign, Partitions::new(&p, &assign)).unwrap()
    }

    /// `edge`'s first entry with the largest payload, re-addressed from
    /// rank 0 to rank 1.
    fn entry(schedule: &Schedule, edge: Edge) -> Entry {
        let e = (schedule.entries().iter().filter(|e| e.edge == edge))
            .max_by_key(|e| e.shape.iter().product::<usize>())
            .expect("every edge has an entry");
        Entry {
            src: 0,
            dst: 1,
            ..e.clone()
        }
    }

    /// A group of `b` CPIs of one stream.
    fn group(b: usize) -> Arc<[SubCpi]> {
        (0..b as u32)
            .map(|scpi| SubCpi { stream: 0, scpi })
            .collect()
    }

    /// A zero payload of `kind` whose block (or matrix run) is `[n0, n1, n2]`.
    fn payload(kind: Kind, [n0, n1, n2]: [usize; 3]) -> Payload {
        match kind {
            Kind::Cube => Payload::Cube(CCube::zeros([n0, n1, n2])),
            Kind::Real => Payload::Real(RCube::zeros([n0, n1, n2])),
            Kind::Weights => Payload::Weights(vec![CMat::zeros(n1, n2); n0]),
            Kind::Detections => Payload::DetectionsGroup(vec![Vec::new(); n0], Vec::new()),
        }
    }

    /// The input edge's message for slot `seq`.
    fn slab(e: &Entry, seq: usize) -> Msg {
        Msg::grouped(seq, group(1), payload(e.kind, e.block(1)))
    }

    /// A message whose `seq` disagrees with the slot being received (a
    /// late or duplicated delivery that landed on a reused tag) is
    /// discarded and counted, and the receive keeps waiting for the
    /// real message.
    #[test]
    fn out_of_order_seq_is_discarded_then_real_message_received() {
        let world: World<Msg> = World::new(2);
        let policy = RuntimePolicy::fault_tolerant();
        let input = entry(&schedule(NodeAssignment::tiny()), Edge::Input);
        let counts = world.run_collect(move |mut comm| {
            if comm.rank() == 0 {
                // A stale slot-4 message mislabeled onto slot 5's tag,
                // then the genuine slot-5 message.
                comm.send(1, tag(Edge::Input, 5), slab(&input, 4));
                comm.send(1, tag(Edge::Input, 5), slab(&input, 5));
                0
            } else {
                let mut health = PipelineHealth::default();
                let got = recv_msg(
                    &mut comm,
                    (&input, 1),
                    5,
                    &ALL_SENT,
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
        let input = entry(&schedule(NodeAssignment::tiny()), Edge::Input);
        let results = world.run_collect(move |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, tag(Edge::Input, 0), slab(&input, 0)); // duplicate of a consumed slot
                comm.send(1, tag(Edge::Input, 1), slab(&input, 1)); // late for the current slot
                comm.send(1, tag(Edge::Input, 2), slab(&input, 2)); // next slot: must survive
                (0, true)
            } else {
                let mut health = PipelineHealth::default();
                // Give all three sends time to land in the mailbox.
                std::thread::sleep(Duration::from_millis(50));
                purge_late(&mut comm, 1, &mut health);
                // Slot 2 must still be receivable after the purge.
                let got = recv_msg(
                    &mut comm,
                    (&input, 1),
                    2,
                    &ALL_SENT,
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

    /// A buffered message whose tag names no pipeline edge (a peer can
    /// send one: it is below the reserved control tags) is discarded by
    /// the purge instead of indexing past the per-edge counters.
    #[test]
    fn purge_discards_a_tag_of_no_edge() {
        let world: World<Msg> = World::new(2);
        let depths = world.run_collect(|mut comm| {
            if comm.rank() == 0 {
                // Edge byte 0xFF, slot 0.
                comm.send(1, 0xFF << 48, Msg::new(0, Payload::Dropped));
                return 0;
            }
            let buffered = |comm: &mut Comm<Msg>| {
                let mut n = 0;
                comm.pending_counts(|_, _, k| n += k);
                n
            };
            while buffered(&mut comm) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            purge_late(&mut comm, 0, &mut PipelineHealth::default());
            comm.mailbox_stats().depth
        });
        assert_eq!(depths[1], 0);
    }

    /// Every edge's receive admits its entry's message and quarantines
    /// the same message with a payload of another kind, of another
    /// shape, with no group, or for a group longer than `max_group` —
    /// under either policy, without a panic.
    #[test]
    fn a_payload_its_entry_does_not_admit_is_quarantined_on_every_edge() {
        const MAX_GROUP: usize = 2;
        let edges = [
            Edge::Input,
            Edge::DopplerToEasyWt,
            Edge::DopplerToHardWt,
            Edge::DopplerToEasyBf,
            Edge::DopplerToHardBf,
            Edge::EasyWtToEasyBf,
            Edge::HardWtToHardBf,
            Edge::EasyBfToPc,
            Edge::HardBfToPc,
            Edge::PcToCfar,
            Edge::Output,
        ];
        let schedule = schedule(NodeAssignment([2, 1, 1, 2, 1, 2, 3]));
        // Per edge, its entry and the five messages of one slot each: the
        // admitted one first.
        let table: Vec<(Entry, Vec<Msg>)> = (edges.iter())
            .map(|&edge| {
                let e = entry(&schedule, edge);
                let [n0, n1, n2] = e.block(MAX_GROUP);
                let other = match e.kind {
                    Kind::Cube => Kind::Real,
                    _ => Kind::Cube,
                };
                let msgs = vec![
                    Msg::grouped(0, group(MAX_GROUP), payload(e.kind, [n0, n1, n2])),
                    Msg::grouped(0, group(MAX_GROUP), payload(other, [n0, n1, n2])),
                    Msg::grouped(0, group(MAX_GROUP), payload(e.kind, [n0 + 1, n1, n2])),
                    Msg::new(0, payload(e.kind, e.block(1))),
                    Msg::grouped(
                        0,
                        group(MAX_GROUP + 1),
                        payload(e.kind, e.block(MAX_GROUP + 1)),
                    ),
                ];
                (e, msgs)
            })
            .collect();
        let policies = [RuntimePolicy::default(), RuntimePolicy::fault_tolerant()];
        let world: World<Msg> = World::new(2);
        let healths = world.run_collect(|mut comm| {
            let mut health = PipelineHealth::default();
            let mut slot = 0;
            for policy in &policies {
                for (e, msgs) in &table {
                    for (i, m) in msgs.iter().enumerate() {
                        if comm.rank() == 0 {
                            let m = Msg {
                                seq: slot as u32,
                                ..m.clone()
                            };
                            comm.send(1, tag(e.edge, slot), m);
                        } else {
                            let got = recv_msg(
                                &mut comm,
                                (e, MAX_GROUP),
                                slot,
                                &ALL_SENT,
                                policy,
                                Duration::from_secs(2),
                                &mut health,
                            );
                            let admitted = matches!(got, Recvd::Msg(_));
                            assert_eq!(admitted, i == 0, "{:?} message {i}", e.edge);
                        }
                        slot += 1;
                    }
                }
            }
            health
        });
        for e in edges {
            assert_eq!(healths[1].edges[e as usize].quarantined, 8, "{e:?}");
        }
    }

    /// A wire frame that does not decode, a well-formed frame of the
    /// wrong kind, and one of the right kind but the wrong shape all reach
    /// the loop over real TCP and, under either policy, are quarantined
    /// on their edge: the slot's input is gone and nothing panics.
    #[test]
    fn an_undecodable_wire_frame_is_quarantined_on_its_edge() {
        let (addr, coord) = stap_mp::spawn_coordinator(2).unwrap();
        let policies = [RuntimePolicy::default(), RuntimePolicy::fault_tolerant()];
        let e = entry(&schedule(NodeAssignment::tiny()), Edge::PcToCfar);
        let [n0, n1, n2] = e.block(1);
        let frames = [
            // Encodes to a frame of no decodable kind.
            Payload::Malformed,
            Payload::Cube(CCube::zeros([n0, n1, n2])),
            Payload::Real(RCube::zeros([n0 + 1, n1, n2])),
        ];
        let t = |slot| tag(Edge::PcToCfar, slot);
        let quarantined: Vec<u64> = std::thread::scope(|s| {
            let ranks: Vec<_> = (0..2)
                .map(|rank| {
                    let (addr, policies, e, frames) = (&addr, &policies, &e, &frames);
                    s.spawn(move || {
                        let link = stap_mp::TcpLink::rendezvous(addr, rank, 2).unwrap();
                        let mut comm = Comm::over_wire(Box::new(link), crate::wire::msg_codec());
                        comm.install_wire_pool(Box::new(PipelinePools::default()));
                        let mut health = PipelineHealth::default();
                        let cases = policies
                            .iter()
                            .flat_map(|p| frames.iter().map(move |f| (p, f)));
                        for (slot, (policy, frame)) in cases.enumerate() {
                            if rank == 0 {
                                let m = Msg::grouped(slot, group(1), frame.clone());
                                comm.send(1, t(slot), m);
                                continue;
                            }
                            let got = recv_msg(
                                &mut comm,
                                (e, 1),
                                slot,
                                &ALL_SENT,
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
        assert_eq!(quarantined, vec![0, 6]);
    }
}
