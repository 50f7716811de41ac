//! Per-node SPMD loops for the seven pipeline tasks.
//!
//! Senders pack ("data collection and reorganization") and receivers
//! assemble; both sides compute the *same* deterministic index lists
//! from the shared parameters and partitions, so no index metadata
//! travels on the wire. All sends are asynchronous; receives block with
//! (source, tag) matching, and the tag carries the CPI index so
//! successive CPIs never cross-match.
//!
//! Bitwise equivalence with the sequential reference is maintained by
//! assembling exactly the matrices `stap_core` builds, in the same
//! element order, and calling the same kernels.
//!
//! # Steady-state allocation discipline
//!
//! Every per-CPI buffer whose size repeats exactly each cycle is either
//! hoisted out of the CPI loop (assembly cubes, beamforming scratch
//! matrices, FFT/pulse-compression workspaces) or drawn from the shared
//! [`PipelinePools`] recycling pools (every redistribution message).
//! Receivers retire consumed message buffers back into the pool, so
//! after one warmup CPI the hot path performs no heap allocation for
//! kernels or packing — only the small, variable-size weight matrices
//! and detection lists still allocate.

use crate::assignment::{overlap, NodeAssignment, Partitions, *};
use crate::fault::{payload_is_finite, RuntimePolicy};
use crate::metrics::{PipelineHealth, TaskTiming};
use crate::msg::{cpi_of_tag, edge_of_tag, tag, Edge, Msg, Payload};
use stap_core::params::StapParams;
use stap_core::training::{easy_training_cells, hard_training_cells};
use stap_core::weights::{hard_constraint, mean_abs};
use stap_core::{
    cfar,
    doppler::DopplerProcessor,
    pulse::{PulseCompressor, PulseScratch},
};
use stap_cube::{CCube, RCube, SharedBufferPool};
use stap_math::fft::FftScratch;
use stap_math::qr::qr_update;
use stap_math::solve::{constrained_lstsq, constrained_lstsq_from_r, normalize_columns};
use stap_math::{CMat, Cx};
use stap_mp::{Comm, RecvError, Tag};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Process-wide recycling pools for redistribution message buffers.
/// One instance is shared (by reference) across every node thread of a
/// pipeline run; senders draw packing buffers, receivers retire consumed
/// messages, and the global balance keeps the steady state allocation
/// free.
#[derive(Clone, Default)]
pub struct PipelinePools {
    /// Complex blocks: driver input slabs, Doppler and beamform edges.
    pub cx: SharedBufferPool<Cx>,
    /// Real blocks: the pulse compression to CFAR edge.
    pub real: SharedBufferPool<f64>,
}

/// Shared, read-only context every task node gets.
pub struct TaskCtx<'a> {
    /// Algorithm parameters.
    pub params: &'a StapParams,
    /// Node assignment (rank layout).
    pub assign: &'a NodeAssignment,
    /// Data partitions per task.
    pub parts: &'a Partitions,
    /// Steering matrix (`J x M`) per transmit-beam position.
    pub steering: &'a [CMat],
    /// Number of CPIs to process.
    pub num_cpis: usize,
    /// Shared send-buffer recycling pools.
    pub pools: &'a PipelinePools,
    /// Fault-tolerance policy (default: off, zero-overhead path).
    pub policy: &'a RuntimePolicy,
    /// Trace epoch when span tracing is on; `None` (the default) keeps
    /// the task loops on the untraced path — no extra clock reads, no
    /// span allocation.
    pub epoch: Option<Instant>,
}

impl TaskCtx<'_> {
    /// Transmit-beam index of CPI `i` (round-robin revisit).
    fn beam_of(&self, cpi: usize) -> usize {
        cpi % self.steering.len()
    }

    /// Whether weights computed from CPI `cpi` will ever be applied.
    fn weight_target(&self, cpi: usize) -> Option<usize> {
        let t = cpi + self.steering.len();
        (t < self.num_cpis).then_some(t)
    }
}

/// Measures one receive into idle/unpack split.
struct RecvPhase {
    start: Instant,
    idle: f64,
}

impl RecvPhase {
    fn begin() -> Self {
        RecvPhase {
            start: Instant::now(),
            idle: 0.0,
        }
    }

    fn blocking<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.idle += t.elapsed().as_secs_f64();
        out
    }

    fn finish(self) -> (f64, f64) {
        (self.start.elapsed().as_secs_f64(), self.idle)
    }
}

pub(crate) fn expect_cube(p: Payload) -> CCube {
    match p {
        Payload::Cube(c) => c,
        other => panic!("expected Cube, got {other:?}"),
    }
}

pub(crate) fn expect_real(p: Payload) -> RCube {
    match p {
        Payload::Real(c) => c,
        other => panic!("expected Real, got {other:?}"),
    }
}

pub(crate) fn expect_weights(p: Payload) -> Vec<CMat> {
    match p {
        Payload::Weights(w) => w,
        other => panic!("expected Weights, got {other:?}"),
    }
}

/// What a task's timing loop hands back: per-CPI phase times plus the
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

impl TaskReport {
    fn with_capacity(n: usize) -> Self {
        TaskReport {
            timings: Vec::with_capacity(n),
            health: PipelineHealth::default(),
            spans: Vec::new(),
        }
    }

    /// Records one CPI's phase timing, and — when `epoch` is set — the
    /// corresponding absolute span (phase boundaries reconstructed from
    /// the cumulative phase durations; inter-phase gaps on a node are
    /// nanoseconds).
    fn push_cpi(&mut self, epoch: Option<Instant>, cpi: usize, started: Instant, t: TaskTiming) {
        if let Some(e) = epoch {
            let start = started.duration_since(e).as_secs_f64();
            self.spans.push(crate::trace::TaskSpan {
                cpi,
                start,
                recv_end: start + t.recv,
                comp_end: start + t.recv + t.comp,
                send_end: start + t.recv + t.comp + t.send,
            });
        }
        self.timings.push(t);
    }
}

/// Outcome of one fault-aware edge receive.
pub(crate) enum Recvd {
    /// Healthy payload plus the sender's degraded flag.
    Data(Payload, bool),
    /// The input is gone: explicit drop marker, deadline overrun after
    /// retries, a dead peer, or a quarantined (non-finite) payload.
    Gone,
}

/// One receive on edge-tag `t` for CPI `cpi` under `policy`.
///
/// The non-fault-tolerant path is the original blocking receive (an
/// unexpected `Disconnected` still panics, preserving the fail-fast
/// behaviour production relies on). The fault-tolerant path enforces
/// `timeout` per attempt with `policy.max_retries` retries, discards
/// messages whose `seq` does not match `cpi` (late/duplicate CPIs), and
/// screens payloads for non-finite values.
pub(crate) fn recv_msg(
    comm: &mut Comm<Msg>,
    src: usize,
    t: Tag,
    cpi: usize,
    policy: &RuntimePolicy,
    timeout: Duration,
    health: &mut PipelineHealth,
) -> Recvd {
    let e = edge_of_tag(t);
    if !policy.fault_tolerant {
        let m = comm.recv(src, t).unwrap();
        debug_assert_eq!(m.seq as usize, cpi, "tag/seq mismatch on edge {e}");
        return match m.payload {
            Payload::Dropped => Recvd::Gone,
            p => Recvd::Data(p, m.degraded),
        };
    }
    let mut retries = 0u32;
    loop {
        match comm.recv_timeout(src, t, timeout) {
            Ok(m) => {
                if m.seq as usize != cpi {
                    // A late or duplicated CPI matched this tag (possible
                    // only under injection); discard and keep waiting.
                    health.edges[e].late_or_dup += 1;
                    continue;
                }
                if matches!(m.payload, Payload::Dropped) {
                    return Recvd::Gone;
                }
                if policy.screen_nonfinite && !payload_is_finite(&m.payload) {
                    health.edges[e].quarantined += 1;
                    return Recvd::Gone;
                }
                return Recvd::Data(m.payload, m.degraded);
            }
            Err(RecvError::Timeout) => {
                if retries < policy.max_retries {
                    retries += 1;
                    health.edges[e].retries += 1;
                    continue;
                }
                health.edges[e].dropped += 1;
                return Recvd::Gone;
            }
            Err(RecvError::Disconnected) => {
                health.edges[e].dropped += 1;
                return Recvd::Gone;
            }
        }
    }
}

/// End-of-CPI hygiene for fault-tolerant loops: discards every buffered
/// message belonging to CPI `cpi` or earlier — late deliveries the loop
/// gave up on, and duplicate copies of messages already consumed —
/// attributing the discards to their edges. Without this the
/// unexpected-message queue would grow for the rest of the run.
pub(crate) fn purge_late(comm: &mut Comm<Msg>, cpi: usize, health: &mut PipelineHealth) {
    let edges = &mut health.edges;
    comm.purge_pending(|_, t| {
        if cpi_of_tag(t) <= cpi {
            edges[edge_of_tag(t)].late_or_dup += 1;
            false
        } else {
            true
        }
    });
}

/// Samples the receiver-side mailbox and max-merges the currently
/// buffered per-edge depths into `health.max_mailbox_depth`. Called once
/// per CPI at the top of each task loop: one inbox drain plus a bucket
/// walk, no allocation, so the zero-alloc steady state is preserved.
pub(crate) fn sample_mailbox(comm: &mut Comm<Msg>, health: &mut PipelineHealth) {
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

/// Global training cells for easy weights that fall inside `krange`.
pub(crate) fn easy_cells_in(params: &StapParams, krange: &Range<usize>) -> Vec<usize> {
    easy_training_cells(params)
        .into_iter()
        .filter(|c| krange.contains(c))
        .collect()
}

/// Global training cells for hard segment `seg` inside `krange`.
pub(crate) fn hard_cells_in(params: &StapParams, seg: usize, krange: &Range<usize>) -> Vec<usize> {
    hard_training_cells(params, seg)
        .into_iter()
        .filter(|c| krange.contains(c))
        .collect()
}

/// The Doppler filter processing task (task 0).
pub fn run_doppler(ctx: &TaskCtx, comm: &mut Comm<Msg>, local: usize) -> TaskReport {
    let p = ctx.params;
    let my_k = ctx.parts.doppler_k[local].clone();
    let k0 = my_k.start;
    let proc = DopplerProcessor::new(p);
    let driver = ctx.assign.driver_rank();
    let easy_bins = p.easy_bins();
    let hard_bins = p.hard_bins();
    let pool = &ctx.pools.cx;
    // CPI-invariant packing metadata, computed once.
    let easy_cells = easy_cells_in(p, &my_k);
    let hard_cells: Vec<Vec<usize>> = (0..p.num_segments())
        .map(|s| hard_cells_in(p, s, &my_k))
        .collect();
    let flat_cells: Vec<usize> = hard_cells.iter().flatten().copied().collect();
    // Persistent workspaces: staggered cube and FFT scratch live across
    // CPIs (fully overwritten each cycle).
    let mut stag = CCube::zeros([my_k.len(), 2 * p.j_channels, p.n_pulses]);
    let mut fft_ws = FftScratch::new();
    let mut report = TaskReport::with_capacity(ctx.num_cpis);

    for cpi in 0..ctx.num_cpis {
        comm.fault_checkpoint(cpi as u64);
        sample_mailbox(comm, &mut report.health);
        // --- receive phase -------------------------------------------------
        let mut rp = RecvPhase::begin();
        let cpi_t0 = rp.start;
        let got = rp.blocking(|| {
            recv_msg(
                comm,
                driver,
                tag(Edge::Input, cpi),
                cpi,
                ctx.policy,
                ctx.policy.edge_timeout,
                &mut report.health,
            )
        });
        let (recv, recv_idle) = rp.finish();

        let slab = match got {
            Recvd::Data(p, _) => Some(expect_cube(p)),
            Recvd::Gone => None,
        };

        // --- compute phase -------------------------------------------------
        let t1 = Instant::now();
        if let Some(slab) = &slab {
            proc.process_rows_with(slab, k0, &mut stag, &mut fft_ws);
        }
        let comp = t1.elapsed().as_secs_f64();
        // The consumed input slab refills the send pool.
        if let Some(slab) = slab {
            pool.recycle(slab);
        } else {
            // Input lost: propagate the drop on every out-edge so the
            // rest of the pipeline keeps draining this CPI.
            for (q, _) in ctx.parts.easy_wt_bins.iter().enumerate() {
                let dst = ctx.assign.rank_range(EASY_WT).start + q;
                comm.send(dst, tag(Edge::DopplerToEasyWt, cpi), Msg::dropped(cpi));
            }
            for (q, _) in ctx.parts.hard_wt_bins.iter().enumerate() {
                let dst = ctx.assign.rank_range(HARD_WT).start + q;
                comm.send(dst, tag(Edge::DopplerToHardWt, cpi), Msg::dropped(cpi));
            }
            for (r, _) in ctx.parts.easy_bf_bins.iter().enumerate() {
                let dst = ctx.assign.rank_range(EASY_BF).start + r;
                comm.send(dst, tag(Edge::DopplerToEasyBf, cpi), Msg::dropped(cpi));
            }
            for (r, _) in ctx.parts.hard_bf_bins.iter().enumerate() {
                let dst = ctx.assign.rank_range(HARD_BF).start + r;
                comm.send(dst, tag(Edge::DopplerToHardBf, cpi), Msg::dropped(cpi));
            }
            report.push_cpi(
                ctx.epoch,
                cpi,
                cpi_t0,
                TaskTiming {
                    recv,
                    comp,
                    send: 0.0,
                    recv_idle,
                },
            );
            if ctx.policy.fault_tolerant {
                purge_late(comm, cpi, &mut report.health);
            }
            continue;
        }

        // --- send phase ----------------------------------------------------
        // Each pack below is also attributed as a `Redistribute` span
        // (pack + enqueue) when tracing is on: Doppler's "data
        // collection and reorganization" is the redistribution step the
        // paper singles out, so the trace shows its per-edge cost.
        let t2 = Instant::now();
        // Easy weight: gathered training cells, first window, its bins.
        for (q, bins_idx) in ctx.parts.easy_wt_bins.iter().enumerate() {
            let pack_t0 = comm.trace_now();
            let block = pool.take_cube(
                [bins_idx.len(), easy_cells.len(), p.j_channels],
                |bi, ci, ch| stag[(easy_cells[ci] - k0, ch, easy_bins[bins_idx.start + bi])],
            );
            let bytes = 8 * block.len() as u64;
            let dst = ctx.assign.rank_range(EASY_WT).start + q;
            let t = tag(Edge::DopplerToEasyWt, cpi);
            comm.send(dst, t, Msg::new(cpi, Payload::Cube(block)));
            comm.trace_redistribute(dst, t, bytes, pack_t0);
        }
        // Hard weight: per-segment gathered cells, both windows.
        for (q, bins_idx) in ctx.parts.hard_wt_bins.iter().enumerate() {
            let pack_t0 = comm.trace_now();
            let block = pool.take_cube(
                [bins_idx.len(), flat_cells.len(), 2 * p.j_channels],
                |bi, ci, ch| stag[(flat_cells[ci] - k0, ch, hard_bins[bins_idx.start + bi])],
            );
            let bytes = 8 * block.len() as u64;
            let dst = ctx.assign.rank_range(HARD_WT).start + q;
            let t = tag(Edge::DopplerToHardWt, cpi);
            comm.send(dst, t, Msg::new(cpi, Payload::Cube(block)));
            comm.trace_redistribute(dst, t, bytes, pack_t0);
        }
        // Easy BF: full local range, first window, reorganized to
        // (bin, k, channel) — the Fig. 8 reorganization.
        for (r, bins_idx) in ctx.parts.easy_bf_bins.iter().enumerate() {
            let pack_t0 = comm.trace_now();
            let block = pool.take_cube([bins_idx.len(), my_k.len(), p.j_channels], |bi, kc, ch| {
                stag[(kc, ch, easy_bins[bins_idx.start + bi])]
            });
            let bytes = 8 * block.len() as u64;
            let dst = ctx.assign.rank_range(EASY_BF).start + r;
            let t = tag(Edge::DopplerToEasyBf, cpi);
            comm.send(dst, t, Msg::new(cpi, Payload::Cube(block)));
            comm.trace_redistribute(dst, t, bytes, pack_t0);
        }
        // Hard BF: both windows.
        for (r, bins_idx) in ctx.parts.hard_bf_bins.iter().enumerate() {
            let pack_t0 = comm.trace_now();
            let block = pool.take_cube(
                [bins_idx.len(), my_k.len(), 2 * p.j_channels],
                |bi, kc, ch| stag[(kc, ch, hard_bins[bins_idx.start + bi])],
            );
            let bytes = 8 * block.len() as u64;
            let dst = ctx.assign.rank_range(HARD_BF).start + r;
            let t = tag(Edge::DopplerToHardBf, cpi);
            comm.send(dst, t, Msg::new(cpi, Payload::Cube(block)));
            comm.trace_redistribute(dst, t, bytes, pack_t0);
        }
        let send = t2.elapsed().as_secs_f64();
        report.push_cpi(
            ctx.epoch,
            cpi,
            cpi_t0,
            TaskTiming {
                recv,
                comp,
                send,
                recv_idle,
            },
        );
        if ctx.policy.fault_tolerant {
            purge_late(comm, cpi, &mut report.health);
        }
    }
    report.health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    report
}

/// The easy weight computation task (task 1).
pub fn run_easy_weight(ctx: &TaskCtx, comm: &mut Comm<Msg>, local: usize) -> TaskReport {
    let p = ctx.params;
    let bins_idx = ctx.parts.easy_wt_bins[local].clone();
    let p0 = ctx.assign.nodes(DOPPLER);
    let dop0 = ctx.assign.rank_range(DOPPLER).start;
    let constraint = CMat::identity(p.j_channels);
    // History per (beam, local bin): last `easy_history` snapshots.
    let mut history: HashMap<usize, VecDeque<Vec<CMat>>> = HashMap::new();
    let total_cells = easy_training_cells(p).len();
    // Snapshot matrices evicted from the history ring are recycled as
    // the next CPI's receive buffers (they are fully overwritten).
    let mut spare: Option<Vec<CMat>> = None;
    let mut report = TaskReport::with_capacity(ctx.num_cpis);

    for cpi in 0..ctx.num_cpis {
        comm.fault_checkpoint(cpi as u64);
        sample_mailbox(comm, &mut report.health);
        // --- receive: one block per Doppler node ---------------------------
        let mut rp = RecvPhase::begin();
        let cpi_t0 = rp.start;
        let mut snapshots: Vec<CMat> = spare.take().unwrap_or_else(|| {
            (0..bins_idx.len())
                .map(|_| CMat::zeros(total_cells, p.j_channels))
                .collect()
        });
        let mut row = 0usize;
        let mut lost = false;
        for dp in 0..p0 {
            let got = rp.blocking(|| {
                recv_msg(
                    comm,
                    dop0 + dp,
                    tag(Edge::DopplerToEasyWt, cpi),
                    cpi,
                    ctx.policy,
                    ctx.policy.edge_timeout,
                    &mut report.health,
                )
            });
            let block = match got {
                Recvd::Data(p, _) => expect_cube(p),
                Recvd::Gone => {
                    lost = true;
                    continue;
                }
            };
            let cells = block.shape()[1];
            for (bi, snap) in snapshots.iter_mut().enumerate() {
                for ci in 0..cells {
                    for ch in 0..p.j_channels {
                        // Conjugated rows (see stap_core::training).
                        snap[(row + ci, ch)] = block[(bi, ci, ch)].conj();
                    }
                }
            }
            row += cells;
            ctx.pools.cx.recycle(block);
        }
        debug_assert!(lost || row == total_cells);
        let (recv, recv_idle) = rp.finish();

        if lost {
            // Training data incomplete: do not touch the weight history
            // (it still holds the last good snapshots) and tell the
            // beamform nodes to fall back for the target CPI.
            spare = Some(snapshots);
            if let Some(target) = ctx.weight_target(cpi) {
                for (r, bf_bins) in ctx.parts.easy_bf_bins.iter().enumerate() {
                    if overlap(&bins_idx, bf_bins).is_empty() {
                        continue;
                    }
                    let dst = ctx.assign.rank_range(EASY_BF).start + r;
                    comm.send(dst, tag(Edge::EasyWtToEasyBf, target), Msg::dropped(target));
                }
            }
            report.push_cpi(
                ctx.epoch,
                cpi,
                cpi_t0,
                TaskTiming {
                    recv,
                    comp: 0.0,
                    send: 0.0,
                    recv_idle,
                },
            );
            if ctx.policy.fault_tolerant {
                purge_late(comm, cpi, &mut report.health);
            }
            continue;
        }

        // --- compute -------------------------------------------------------
        let t1 = Instant::now();
        let beam = ctx.beam_of(cpi);
        let q = history.entry(beam).or_default();
        q.push_back(snapshots);
        while q.len() > p.easy_history {
            spare = q.pop_front();
        }
        let steering = &ctx.steering[beam];
        let weights: Vec<CMat> = (0..bins_idx.len())
            .map(|bi| {
                let mut stacked = q[0][bi].clone();
                for older in q.iter().skip(1) {
                    stacked = stacked.vstack(&older[bi]);
                }
                let k = mean_abs(&stacked) * p.beam_constraint_wt;
                constrained_lstsq(&stacked, &constraint, k, steering)
            })
            .collect();
        let comp = t1.elapsed().as_secs_f64();

        // --- send: bins overlapping each easy-BF node ----------------------
        let t2 = Instant::now();
        if let Some(target) = ctx.weight_target(cpi) {
            for (r, bf_bins) in ctx.parts.easy_bf_bins.iter().enumerate() {
                let ov = overlap(&bins_idx, bf_bins);
                if ov.is_empty() {
                    continue;
                }
                let w: Vec<CMat> = ov
                    .clone()
                    .map(|b| weights[b - bins_idx.start].clone())
                    .collect();
                let dst = ctx.assign.rank_range(EASY_BF).start + r;
                comm.send(
                    dst,
                    tag(Edge::EasyWtToEasyBf, target),
                    Msg::new(target, Payload::Weights(w)),
                );
            }
        }
        let send = t2.elapsed().as_secs_f64();
        report.push_cpi(
            ctx.epoch,
            cpi,
            cpi_t0,
            TaskTiming {
                recv,
                comp,
                send,
                recv_idle,
            },
        );
        if ctx.policy.fault_tolerant {
            purge_late(comm, cpi, &mut report.health);
        }
    }
    report.health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    report
}

/// The hard weight computation task (task 2).
pub fn run_hard_weight(ctx: &TaskCtx, comm: &mut Comm<Msg>, local: usize) -> TaskReport {
    let p = ctx.params;
    let bins_idx = ctx.parts.hard_wt_bins[local].clone();
    let hard_bins = p.hard_bins();
    let p0 = ctx.assign.nodes(DOPPLER);
    let dop0 = ctx.assign.rank_range(DOPPLER).start;
    let jj = 2 * p.j_channels;
    let segs = p.num_segments();
    // R state per (beam, local bin, segment).
    let mut r_state: HashMap<(usize, usize, usize), CMat> = HashMap::new();
    let seg_cells: Vec<usize> = (0..segs).map(|s| hard_training_cells(p, s).len()).collect();
    // Per-sender segment cell counts are CPI-invariant.
    let dp_counts: Vec<Vec<usize>> = (0..p0)
        .map(|dp| {
            let kr = ctx.parts.doppler_k[dp].clone();
            (0..segs).map(|s| hard_cells_in(p, s, &kr).len()).collect()
        })
        .collect();
    // snapshots[bin local][seg] is (cells, 2J), rows in global order;
    // fully overwritten every CPI, so it persists across the loop.
    let mut snapshots: Vec<Vec<CMat>> = (0..bins_idx.len())
        .map(|_| (0..segs).map(|s| CMat::zeros(seg_cells[s], jj)).collect())
        .collect();
    let mut report = TaskReport::with_capacity(ctx.num_cpis);

    for cpi in 0..ctx.num_cpis {
        comm.fault_checkpoint(cpi as u64);
        sample_mailbox(comm, &mut report.health);
        // --- receive -------------------------------------------------------
        let mut rp = RecvPhase::begin();
        let cpi_t0 = rp.start;
        let mut seg_rows = vec![0usize; segs];
        let mut lost = false;
        for (dp, counts) in dp_counts.iter().enumerate() {
            let got = rp.blocking(|| {
                recv_msg(
                    comm,
                    dop0 + dp,
                    tag(Edge::DopplerToHardWt, cpi),
                    cpi,
                    ctx.policy,
                    ctx.policy.edge_timeout,
                    &mut report.health,
                )
            });
            let block = match got {
                Recvd::Data(p, _) => expect_cube(p),
                Recvd::Gone => {
                    lost = true;
                    continue;
                }
            };
            // The sender packed cells segment-major.
            let mut ci = 0usize;
            for (s, &cnt) in counts.iter().enumerate() {
                for c in 0..cnt {
                    for (bi, snap) in snapshots.iter_mut().enumerate() {
                        for ch in 0..jj {
                            snap[s][(seg_rows[s] + c, ch)] = block[(bi, ci + c, ch)].conj();
                        }
                    }
                }
                seg_rows[s] += cnt;
                ci += cnt;
            }
            ctx.pools.cx.recycle(block);
        }
        let (recv, recv_idle) = rp.finish();

        if lost {
            // Incomplete training data: leave the QR recursion state at
            // its last good value and signal fallback to the hard BF
            // nodes for the target CPI.
            if let Some(target) = ctx.weight_target(cpi) {
                for (r, bf_bins) in ctx.parts.hard_bf_bins.iter().enumerate() {
                    if overlap(&bins_idx, bf_bins).is_empty() {
                        continue;
                    }
                    let dst = ctx.assign.rank_range(HARD_BF).start + r;
                    comm.send(dst, tag(Edge::HardWtToHardBf, target), Msg::dropped(target));
                }
            }
            report.push_cpi(
                ctx.epoch,
                cpi,
                cpi_t0,
                TaskTiming {
                    recv,
                    comp: 0.0,
                    send: 0.0,
                    recv_idle,
                },
            );
            if ctx.policy.fault_tolerant {
                purge_late(comm, cpi, &mut report.health);
            }
            continue;
        }

        // --- compute -------------------------------------------------------
        let t1 = Instant::now();
        let beam = ctx.beam_of(cpi);
        let steering = &ctx.steering[beam];
        // weights in bin-major, segment-minor order.
        let mut weights: Vec<CMat> = Vec::with_capacity(bins_idx.len() * segs);
        for bi in 0..bins_idx.len() {
            let bin = hard_bins[bins_idx.start + bi];
            let constraint = hard_constraint(p, bin);
            for (s, snap) in snapshots[bi].iter().enumerate() {
                let r_prev = r_state
                    .entry((beam, bi, s))
                    .or_insert_with(|| CMat::zeros(jj, jj));
                let r_new = qr_update(r_prev, p.forgetting_factor, snap);
                let k = mean_abs(snap) * p.beam_constraint_wt;
                let w = constrained_lstsq_from_r(&r_new, &constraint, k, steering);
                *r_prev = r_new;
                weights.push(w);
            }
        }
        let comp = t1.elapsed().as_secs_f64();

        // --- send ----------------------------------------------------------
        let t2 = Instant::now();
        if let Some(target) = ctx.weight_target(cpi) {
            for (r, bf_bins) in ctx.parts.hard_bf_bins.iter().enumerate() {
                let ov = overlap(&bins_idx, bf_bins);
                if ov.is_empty() {
                    continue;
                }
                let mut w = Vec::with_capacity(ov.len() * segs);
                for b in ov.clone() {
                    let base = (b - bins_idx.start) * segs;
                    w.extend(weights[base..base + segs].iter().cloned());
                }
                let dst = ctx.assign.rank_range(HARD_BF).start + r;
                comm.send(
                    dst,
                    tag(Edge::HardWtToHardBf, target),
                    Msg::new(target, Payload::Weights(w)),
                );
            }
        }
        let send = t2.elapsed().as_secs_f64();
        report.push_cpi(
            ctx.epoch,
            cpi,
            cpi_t0,
            TaskTiming {
                recv,
                comp,
                send,
                recv_idle,
            },
        );
        if ctx.policy.fault_tolerant {
            purge_late(comm, cpi, &mut report.health);
        }
    }
    report.health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    report
}

/// Weight-source nodes whose bin range overlaps `my_bins`.
pub(crate) fn weight_sources(
    wt_parts: &[Range<usize>],
    my_bins: &Range<usize>,
    wt_rank0: usize,
) -> Vec<(usize, Range<usize>)> {
    wt_parts
        .iter()
        .enumerate()
        .filter_map(|(q, r)| {
            let ov = overlap(r, my_bins);
            (!ov.is_empty()).then(|| (wt_rank0 + q, ov))
        })
        .collect()
}

/// The easy beamforming task (task 3).
///
/// Degraded mode: when the weight edge overruns its grace deadline (or
/// carries a drop marker), the node beamforms with the *last good
/// weights for this azimuth* — the same matrices the paper would have
/// applied one revisit earlier — and flags its output `degraded`.
pub fn run_easy_bf(ctx: &TaskCtx, comm: &mut Comm<Msg>, local: usize) -> TaskReport {
    let p = ctx.params;
    let bins_idx = ctx.parts.easy_bf_bins[local].clone();
    let easy_bins = p.easy_bins();
    let p0 = ctx.assign.nodes(DOPPLER);
    let dop0 = ctx.assign.rank_range(DOPPLER).start;
    let pool = &ctx.pools.cx;
    let wt_sources = weight_sources(
        &ctx.parts.easy_wt_bins,
        &bins_idx,
        ctx.assign.rank_range(EASY_WT).start,
    );
    // My natural bins, ascending, owned by each PC node (CPI-invariant).
    let pc_mine: Vec<Vec<usize>> = ctx
        .parts
        .pc_bins
        .iter()
        .map(|pc_bins| {
            bins_idx
                .clone()
                .filter(|&b| pc_bins.contains(&easy_bins[b]))
                .collect()
        })
        .collect();
    // Persistent assembly cube, output cube and beamforming scratch
    // (all fully overwritten each CPI).
    let mut data = CCube::zeros([bins_idx.len(), p.k_range, p.j_channels]);
    let mut out = CCube::zeros([bins_idx.len(), p.m_beams, p.k_range]);
    let mut slab = CMat::zeros(p.j_channels, p.k_range);
    let mut y = CMat::zeros(p.m_beams, p.k_range);
    // Last-good weights per azimuth (fault-tolerant runs only): the
    // stale-weight fallback source. Guaranteed populated for a beam by
    // the time it is needed because each azimuth's first visit takes
    // the quiescent path below.
    let mut last_good: HashMap<usize, Vec<CMat>> = HashMap::new();
    let mut report = TaskReport::with_capacity(ctx.num_cpis);

    for cpi in 0..ctx.num_cpis {
        comm.fault_checkpoint(cpi as u64);
        sample_mailbox(comm, &mut report.health);
        let beam = ctx.beam_of(cpi);
        // --- receive -------------------------------------------------------
        let mut rp = RecvPhase::begin();
        let cpi_t0 = rp.start;
        let mut data_lost = false;
        for dp in 0..p0 {
            let got = rp.blocking(|| {
                recv_msg(
                    comm,
                    dop0 + dp,
                    tag(Edge::DopplerToEasyBf, cpi),
                    cpi,
                    ctx.policy,
                    ctx.policy.edge_timeout,
                    &mut report.health,
                )
            });
            match got {
                Recvd::Data(pl, _) => {
                    let block = expect_cube(pl);
                    let k0 = ctx.parts.doppler_k[dp].start;
                    data.place([0, k0, 0], &block);
                    pool.recycle(block);
                }
                Recvd::Gone => data_lost = true,
            }
        }
        if data_lost {
            // The data cube is incomplete: drop this CPI end-to-end.
            // Weight messages for this CPI (if any) are shed by the
            // end-of-CPI purge.
            let (recv, recv_idle) = rp.finish();
            for (t, _) in pc_mine.iter().enumerate() {
                let dst = ctx.assign.rank_range(PC).start + t;
                comm.send(dst, tag(Edge::EasyBfToPc, cpi), Msg::dropped(cpi));
            }
            report.push_cpi(
                ctx.epoch,
                cpi,
                cpi_t0,
                TaskTiming {
                    recv,
                    comp: 0.0,
                    send: 0.0,
                    recv_idle,
                },
            );
            if ctx.policy.fault_tolerant {
                purge_late(comm, cpi, &mut report.health);
            }
            continue;
        }
        // Weights: quiescent for the first visit of each azimuth.
        let mut stale = false;
        let weights: Vec<CMat> = if cpi < ctx.steering.len() {
            let q = normalize_columns(ctx.steering[beam].clone());
            let w = vec![q; bins_idx.len()];
            if ctx.policy.fault_tolerant {
                last_good.insert(beam, w.clone());
            }
            w
        } else {
            let mut per_bin: Vec<Option<CMat>> = vec![None; bins_idx.len()];
            for (src, ov) in &wt_sources {
                let got = rp.blocking(|| {
                    recv_msg(
                        comm,
                        *src,
                        tag(Edge::EasyWtToEasyBf, cpi),
                        cpi,
                        ctx.policy,
                        ctx.policy.weight_grace,
                        &mut report.health,
                    )
                });
                match got {
                    Recvd::Data(pl, _) => {
                        let w = expect_weights(pl);
                        for (i, b) in ov.clone().enumerate() {
                            per_bin[b - bins_idx.start] = Some(w[i].clone());
                        }
                    }
                    Recvd::Gone => stale = true,
                }
            }
            if stale {
                // Fall back to the last good weights for this azimuth —
                // the paper already applies weights one revisit late
                // (TD(1,3)); this widens the gap by one more revisit.
                report.health.edges[Edge::EasyWtToEasyBf as usize].stale_weights += 1;
                last_good.get(&beam).cloned().unwrap_or_else(|| {
                    vec![normalize_columns(ctx.steering[beam].clone()); bins_idx.len()]
                })
            } else {
                let w: Vec<CMat> = per_bin
                    .into_iter()
                    .map(|w| w.expect("missing weights"))
                    .collect();
                if ctx.policy.fault_tolerant {
                    last_good.insert(beam, w.clone());
                }
                w
            }
        };
        let (recv, recv_idle) = rp.finish();

        // --- compute -------------------------------------------------------
        let t1 = Instant::now();
        for bi in 0..bins_idx.len() {
            // Assemble (J, K) exactly as the sequential easy_bin_data.
            slab.fill_from_fn(|ch, kc| data[(bi, kc, ch)]);
            weights[bi].hermitian_matmul_into(&slab, &mut y);
            for m in 0..p.m_beams {
                out.lane_mut(bi, m).copy_from_slice(y.row(m));
            }
        }
        let comp = t1.elapsed().as_secs_f64();

        // --- send: natural-bin overlap with each PC node --------------------
        let t2 = Instant::now();
        for (t, mine) in pc_mine.iter().enumerate() {
            let block = pool.take_cube([mine.len(), p.m_beams, p.k_range], |i, m, kc| {
                out[(mine[i] - bins_idx.start, m, kc)]
            });
            let dst = ctx.assign.rank_range(PC).start + t;
            comm.send(
                dst,
                tag(Edge::EasyBfToPc, cpi),
                Msg::flagged(cpi, stale, Payload::Cube(block)),
            );
        }
        let send = t2.elapsed().as_secs_f64();
        report.push_cpi(
            ctx.epoch,
            cpi,
            cpi_t0,
            TaskTiming {
                recv,
                comp,
                send,
                recv_idle,
            },
        );
        if ctx.policy.fault_tolerant {
            purge_late(comm, cpi, &mut report.health);
        }
    }
    report.health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    report
}

/// The hard beamforming task (task 4). Same degraded mode as
/// [`run_easy_bf`], with per-(bin, segment) weight sets.
pub fn run_hard_bf(ctx: &TaskCtx, comm: &mut Comm<Msg>, local: usize) -> TaskReport {
    let p = ctx.params;
    let bins_idx = ctx.parts.hard_bf_bins[local].clone();
    let hard_bins = p.hard_bins();
    let p0 = ctx.assign.nodes(DOPPLER);
    let dop0 = ctx.assign.rank_range(DOPPLER).start;
    let jj = 2 * p.j_channels;
    let segs = p.num_segments();
    let pool = &ctx.pools.cx;
    let wt_sources = weight_sources(
        &ctx.parts.hard_wt_bins,
        &bins_idx,
        ctx.assign.rank_range(HARD_WT).start,
    );
    let pc_mine: Vec<Vec<usize>> = ctx
        .parts
        .pc_bins
        .iter()
        .map(|pc_bins| {
            bins_idx
                .clone()
                .filter(|&b| pc_bins.contains(&hard_bins[b]))
                .collect()
        })
        .collect();
    // Persistent assembly/output cubes and per-segment scratch matrices.
    let seg_ranges: Vec<Range<usize>> = (0..segs).map(|s| p.segment_range(s)).collect();
    let mut data = CCube::zeros([bins_idx.len(), p.k_range, jj]);
    let mut out = CCube::zeros([bins_idx.len(), p.m_beams, p.k_range]);
    let mut slabs: Vec<CMat> = seg_ranges
        .iter()
        .map(|r| CMat::zeros(jj, r.len()))
        .collect();
    let mut ys: Vec<CMat> = seg_ranges
        .iter()
        .map(|r| CMat::zeros(p.m_beams, r.len()))
        .collect();
    // Last-good per-(bin, segment) weights per azimuth (stale fallback).
    let mut last_good: HashMap<usize, Vec<Vec<CMat>>> = HashMap::new();
    let mut report = TaskReport::with_capacity(ctx.num_cpis);

    // Quiescent weights for `beam` (each azimuth's first visit, and the
    // fallback of last resort).
    let quiescent = |beam: usize| -> Vec<Vec<CMat>> {
        bins_idx
            .clone()
            .map(|b| {
                let bin = hard_bins[b];
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

    for cpi in 0..ctx.num_cpis {
        comm.fault_checkpoint(cpi as u64);
        sample_mailbox(comm, &mut report.health);
        let beam = ctx.beam_of(cpi);
        // --- receive -------------------------------------------------------
        let mut rp = RecvPhase::begin();
        let cpi_t0 = rp.start;
        let mut data_lost = false;
        for dp in 0..p0 {
            let got = rp.blocking(|| {
                recv_msg(
                    comm,
                    dop0 + dp,
                    tag(Edge::DopplerToHardBf, cpi),
                    cpi,
                    ctx.policy,
                    ctx.policy.edge_timeout,
                    &mut report.health,
                )
            });
            match got {
                Recvd::Data(pl, _) => {
                    let block = expect_cube(pl);
                    let k0 = ctx.parts.doppler_k[dp].start;
                    data.place([0, k0, 0], &block);
                    pool.recycle(block);
                }
                Recvd::Gone => data_lost = true,
            }
        }
        if data_lost {
            let (recv, recv_idle) = rp.finish();
            for (t, _) in pc_mine.iter().enumerate() {
                let dst = ctx.assign.rank_range(PC).start + t;
                comm.send(dst, tag(Edge::HardBfToPc, cpi), Msg::dropped(cpi));
            }
            report.push_cpi(
                ctx.epoch,
                cpi,
                cpi_t0,
                TaskTiming {
                    recv,
                    comp: 0.0,
                    send: 0.0,
                    recv_idle,
                },
            );
            if ctx.policy.fault_tolerant {
                purge_late(comm, cpi, &mut report.health);
            }
            continue;
        }
        let mut stale = false;
        let weights: Vec<Vec<CMat>> = if cpi < ctx.steering.len() {
            let w = quiescent(beam);
            if ctx.policy.fault_tolerant {
                last_good.insert(beam, w.clone());
            }
            w
        } else {
            let mut per_bin: Vec<Option<Vec<CMat>>> = vec![None; bins_idx.len()];
            for (src, ov) in &wt_sources {
                let got = rp.blocking(|| {
                    recv_msg(
                        comm,
                        *src,
                        tag(Edge::HardWtToHardBf, cpi),
                        cpi,
                        ctx.policy,
                        ctx.policy.weight_grace,
                        &mut report.health,
                    )
                });
                match got {
                    Recvd::Data(pl, _) => {
                        let w = expect_weights(pl);
                        for (i, b) in ov.clone().enumerate() {
                            per_bin[b - bins_idx.start] =
                                Some(w[i * segs..(i + 1) * segs].to_vec());
                        }
                    }
                    Recvd::Gone => stale = true,
                }
            }
            if stale {
                report.health.edges[Edge::HardWtToHardBf as usize].stale_weights += 1;
                last_good
                    .get(&beam)
                    .cloned()
                    .unwrap_or_else(|| quiescent(beam))
            } else {
                let w: Vec<Vec<CMat>> = per_bin
                    .into_iter()
                    .map(|w| w.expect("missing weights"))
                    .collect();
                if ctx.policy.fault_tolerant {
                    last_good.insert(beam, w.clone());
                }
                w
            }
        };
        let (recv, recv_idle) = rp.finish();

        // --- compute -------------------------------------------------------
        let t1 = Instant::now();
        for bi in 0..bins_idx.len() {
            for seg in 0..segs {
                let r = &seg_ranges[seg];
                slabs[seg].fill_from_fn(|ch, kc| data[(bi, r.start + kc, ch)]);
                weights[bi][seg].hermitian_matmul_into(&slabs[seg], &mut ys[seg]);
                for m in 0..p.m_beams {
                    out.lane_mut(bi, m)[r.clone()].copy_from_slice(ys[seg].row(m));
                }
            }
        }
        let comp = t1.elapsed().as_secs_f64();

        // --- send ----------------------------------------------------------
        let t2 = Instant::now();
        for (t, mine) in pc_mine.iter().enumerate() {
            let block = pool.take_cube([mine.len(), p.m_beams, p.k_range], |i, m, kc| {
                out[(mine[i] - bins_idx.start, m, kc)]
            });
            let dst = ctx.assign.rank_range(PC).start + t;
            comm.send(
                dst,
                tag(Edge::HardBfToPc, cpi),
                Msg::flagged(cpi, stale, Payload::Cube(block)),
            );
        }
        let send = t2.elapsed().as_secs_f64();
        report.push_cpi(
            ctx.epoch,
            cpi,
            cpi_t0,
            TaskTiming {
                recv,
                comp,
                send,
                recv_idle,
            },
        );
        if ctx.policy.fault_tolerant {
            purge_late(comm, cpi, &mut report.health);
        }
    }
    report.health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    report
}

/// The pulse compression task (task 5).
pub fn run_pc(ctx: &TaskCtx, comm: &mut Comm<Msg>, local: usize) -> TaskReport {
    let p = ctx.params;
    let my_bins = ctx.parts.pc_bins[local].clone();
    let easy_bins = p.easy_bins();
    let hard_bins = p.hard_bins();
    let compressor = PulseCompressor::new(p);
    let mut report = TaskReport::with_capacity(ctx.num_cpis);

    // Which (sender rank, natural-bin list) pairs feed me.
    let mut feeders: Vec<(usize, Vec<usize>)> = Vec::new();
    for (r, idx) in ctx.parts.easy_bf_bins.iter().enumerate() {
        let bins: Vec<usize> = idx
            .clone()
            .map(|b| easy_bins[b])
            .filter(|b| my_bins.contains(b))
            .collect();
        feeders.push((ctx.assign.rank_range(EASY_BF).start + r, bins));
    }
    for (r, idx) in ctx.parts.hard_bf_bins.iter().enumerate() {
        let bins: Vec<usize> = idx
            .clone()
            .map(|b| hard_bins[b])
            .filter(|b| my_bins.contains(b))
            .collect();
        feeders.push((ctx.assign.rank_range(HARD_BF).start + r, bins));
    }
    let easy_edge = |src: usize| src < ctx.assign.rank_range(HARD_BF).start;
    // CFAR overlap ranges are CPI-invariant.
    let cfar_ov: Vec<Range<usize>> = ctx
        .parts
        .cfar_bins
        .iter()
        .map(|c| overlap(&my_bins, c))
        .collect();
    // Persistent assembly cube, power cube and compression workspace.
    let mut data = CCube::zeros([my_bins.len(), p.m_beams, p.k_range]);
    let mut power = RCube::zeros([my_bins.len(), p.m_beams, p.k_range]);
    let mut pc_ws = PulseScratch::new();

    for cpi in 0..ctx.num_cpis {
        comm.fault_checkpoint(cpi as u64);
        sample_mailbox(comm, &mut report.health);
        // --- receive -------------------------------------------------------
        let mut rp = RecvPhase::begin();
        let cpi_t0 = rp.start;
        let mut lost = false;
        let mut degraded = false;
        for (src, bins) in &feeders {
            let edge = if easy_edge(*src) {
                Edge::EasyBfToPc
            } else {
                Edge::HardBfToPc
            };
            let got = rp.blocking(|| {
                recv_msg(
                    comm,
                    *src,
                    tag(edge, cpi),
                    cpi,
                    ctx.policy,
                    ctx.policy.edge_timeout,
                    &mut report.health,
                )
            });
            let block = match got {
                Recvd::Data(pl, d) => {
                    degraded |= d;
                    expect_cube(pl)
                }
                Recvd::Gone => {
                    lost = true;
                    continue;
                }
            };
            debug_assert_eq!(block.shape()[0], bins.len());
            for (i, &b) in bins.iter().enumerate() {
                for m in 0..p.m_beams {
                    data.lane_mut(b - my_bins.start, m)
                        .copy_from_slice(block.lane(i, m));
                }
            }
            ctx.pools.cx.recycle(block);
        }
        let (recv, recv_idle) = rp.finish();

        if lost {
            // At least one beamformed block is gone: the assembled cube
            // would be a mix of CPIs, so drop this CPI downstream.
            for u in 0..ctx.parts.cfar_bins.len() {
                let dst = ctx.assign.rank_range(CFAR).start + u;
                comm.send(dst, tag(Edge::PcToCfar, cpi), Msg::dropped(cpi));
            }
            report.push_cpi(
                ctx.epoch,
                cpi,
                cpi_t0,
                TaskTiming {
                    recv,
                    comp: 0.0,
                    send: 0.0,
                    recv_idle,
                },
            );
            if ctx.policy.fault_tolerant {
                purge_late(comm, cpi, &mut report.health);
            }
            continue;
        }

        // --- compute -------------------------------------------------------
        let t1 = Instant::now();
        compressor.process_into_with(&data, &mut power, &mut pc_ws);
        let comp = t1.elapsed().as_secs_f64();

        // --- send ----------------------------------------------------------
        let t2 = Instant::now();
        for (u, ov) in cfar_ov.iter().enumerate() {
            let block = ctx
                .pools
                .real
                .take_cube([ov.len(), p.m_beams, p.k_range], |i, m, kc| {
                    power[(ov.start + i - my_bins.start, m, kc)]
                });
            let dst = ctx.assign.rank_range(CFAR).start + u;
            comm.send(
                dst,
                tag(Edge::PcToCfar, cpi),
                Msg::flagged(cpi, degraded, Payload::Real(block)),
            );
        }
        let send = t2.elapsed().as_secs_f64();
        report.push_cpi(
            ctx.epoch,
            cpi,
            cpi_t0,
            TaskTiming {
                recv,
                comp,
                send,
                recv_idle,
            },
        );
        if ctx.policy.fault_tolerant {
            purge_late(comm, cpi, &mut report.health);
        }
    }
    report.health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    report
}

/// The CFAR task (task 6).
pub fn run_cfar(ctx: &TaskCtx, comm: &mut Comm<Msg>, local: usize) -> TaskReport {
    let p = ctx.params;
    let my_bins = ctx.parts.cfar_bins[local].clone();
    let driver = ctx.assign.driver_rank();
    // PC nodes that overlap my bins, with the overlap ranges.
    let feeders: Vec<(usize, Range<usize>)> = ctx
        .parts
        .pc_bins
        .iter()
        .enumerate()
        .map(|(t, r)| (ctx.assign.rank_range(PC).start + t, overlap(r, &my_bins)))
        .collect();
    // Persistent power assembly cube (fully overwritten each CPI) and
    // CFAR workspace: the detection list is reserved once, so the
    // steady-state CFAR round performs no heap allocation (the handoff
    // at the send boundary swaps in an equally-reserved buffer).
    let mut power = RCube::zeros([my_bins.len(), p.m_beams, p.k_range]);
    let mut scratch = cfar::CfarScratch::for_task(p, my_bins.len());
    let mut report = TaskReport::with_capacity(ctx.num_cpis);

    for cpi in 0..ctx.num_cpis {
        comm.fault_checkpoint(cpi as u64);
        sample_mailbox(comm, &mut report.health);
        // --- receive -------------------------------------------------------
        let mut rp = RecvPhase::begin();
        let cpi_t0 = rp.start;
        let mut lost = false;
        let mut degraded = false;
        for (src, ov) in &feeders {
            let got = rp.blocking(|| {
                recv_msg(
                    comm,
                    *src,
                    tag(Edge::PcToCfar, cpi),
                    cpi,
                    ctx.policy,
                    ctx.policy.edge_timeout,
                    &mut report.health,
                )
            });
            let block = match got {
                Recvd::Data(pl, d) => {
                    degraded |= d;
                    expect_real(pl)
                }
                Recvd::Gone => {
                    lost = true;
                    continue;
                }
            };
            debug_assert_eq!(block.shape()[0], ov.len());
            if !ov.is_empty() {
                power.place([ov.start - my_bins.start, 0, 0], &block);
            }
            ctx.pools.real.recycle(block);
        }
        let (recv, recv_idle) = rp.finish();

        if lost {
            // Report the loss to the driver so it can classify the CPI
            // as dropped instead of waiting on detections that will
            // never come.
            comm.send(driver, tag(Edge::Output, cpi), Msg::dropped(cpi));
            report.push_cpi(
                ctx.epoch,
                cpi,
                cpi_t0,
                TaskTiming {
                    recv,
                    comp: 0.0,
                    send: 0.0,
                    recv_idle,
                },
            );
            if ctx.policy.fault_tolerant {
                purge_late(comm, cpi, &mut report.health);
            }
            continue;
        }

        // --- compute -------------------------------------------------------
        let t1 = Instant::now();
        scratch.begin_cpi();
        for bi in 0..my_bins.len() {
            for m in 0..p.m_beams {
                cfar::cfar_lane(
                    p,
                    power.lane(bi, m),
                    my_bins.start + bi,
                    m,
                    &mut scratch.detections,
                );
            }
        }
        let comp = t1.elapsed().as_secs_f64();

        // --- send ----------------------------------------------------------
        let t2 = Instant::now();
        comm.send(
            driver,
            tag(Edge::Output, cpi),
            Msg::flagged(cpi, degraded, Payload::Detections(scratch.take())),
        );
        let send = t2.elapsed().as_secs_f64();
        report.push_cpi(
            ctx.epoch,
            cpi,
            cpi_t0,
            TaskTiming {
                recv,
                comp,
                send,
                recv_idle,
            },
        );
        if ctx.policy.fault_tolerant {
            purge_late(comm, cpi, &mut report.health);
        }
    }
    report.health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    report
}

#[cfg(test)]
mod seq_tests {
    use super::*;
    use stap_mp::World;

    fn det_msg(cpi: usize) -> Msg {
        Msg::new(cpi, Payload::Detections(Vec::new()))
    }

    /// A message whose `seq` disagrees with the CPI being assembled
    /// (a late or duplicated delivery that landed on a reused tag) is
    /// discarded and counted, and the receive keeps waiting for the
    /// real message.
    #[test]
    fn out_of_order_seq_is_discarded_then_real_message_received() {
        let world: World<Msg> = World::new(2);
        let policy = RuntimePolicy::fault_tolerant();
        let counts = world.run_collect(move |mut comm| {
            if comm.rank() == 0 {
                // A stale CPI-4 message mislabeled onto CPI 5's tag,
                // then the genuine CPI-5 message.
                comm.send(
                    1,
                    tag(Edge::Input, 5),
                    Msg::flagged(4, false, Payload::Detections(Vec::new())),
                );
                comm.send(1, tag(Edge::Input, 5), det_msg(5));
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
                assert!(matches!(got, Recvd::Data(Payload::Detections(_), false)));
                health.edges[Edge::Input as usize].late_or_dup
            }
        });
        assert_eq!(counts[1], 1, "stale seq not counted");
    }

    /// Duplicated or late messages left in the mailbox are shed by the
    /// end-of-CPI purge; messages for future CPIs survive it.
    #[test]
    fn purge_discards_current_and_earlier_cpis_only() {
        let world: World<Msg> = World::new(2);
        let policy = RuntimePolicy::fault_tolerant();
        let results = world.run_collect(move |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, tag(Edge::Input, 0), det_msg(0)); // duplicate of a consumed CPI
                comm.send(1, tag(Edge::Input, 1), det_msg(1)); // late for the current CPI
                comm.send(1, tag(Edge::Input, 2), det_msg(2)); // next CPI: must survive
                (0, true)
            } else {
                let mut health = PipelineHealth::default();
                // Give all three sends time to land in the mailbox.
                std::thread::sleep(Duration::from_millis(50));
                purge_late(&mut comm, 1, &mut health);
                // CPI 2 must still be receivable after the purge.
                let got = recv_msg(
                    &mut comm,
                    0,
                    tag(Edge::Input, 2),
                    2,
                    &policy,
                    Duration::from_secs(2),
                    &mut health,
                );
                let survived = matches!(got, Recvd::Data(Payload::Detections(_), _));
                (health.edges[Edge::Input as usize].late_or_dup, survived)
            }
        });
        let (purged, survived) = results[1];
        assert!(purged >= 1, "nothing was purged");
        assert!(survived, "future CPI was wrongly purged");
    }
}
