//! The simulator core: deterministic timestamp propagation over the
//! pipeline's dataflow graph.

use stap_core::flops::TaskFlops;
use stap_core::training::{easy_training_cells, hard_training_cells};
use stap_core::StapParams;
use stap_machine::{Mesh, Paragon, ALL_TASKS};
use stap_pipeline::assignment::{overlap, NodeAssignment, Partitions};
use stap_pipeline::fault::RuntimePolicy;
use stap_pipeline::metrics::{
    latency_eq2, real_latency_eq3, throughput_eq1, CpiOutcome, TaskTiming,
};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Deterministic fault events for the simulator, mirroring the runtime
/// fault plane of `stap-mp`/`stap-pipeline` at the granularity the
/// timestamp model can express.
#[derive(Clone, Debug, Default)]
pub struct SimFaults {
    /// `(task, node, cpi, seconds)`: the node stalls that long between
    /// its receive and compute phases of that CPI (a page fault, a
    /// competing process, a slow link retrain).
    pub stalls: Vec<(usize, usize, usize, f64)>,
    /// CPIs lost on some data edge: the pipeline forwards drop markers
    /// instead of data, so the CPI traverses the graph at marker cost
    /// (per-message startup only) and produces no detections.
    pub dropped_cpis: Vec<usize>,
    /// CPIs explicitly beamformed with last-good weights (in addition to
    /// those derived from weight-task stalls below).
    pub stale_weight_cpis: Vec<usize>,
    /// Weight-receive grace (seconds) used to *derive* degradation: a
    /// stall on a weight task (1 or 2) at CPI `c` longer than this makes
    /// the target CPI `c + beams` degraded — the beamformers would have
    /// fallen back to stale weights rather than wait. Mirrors
    /// `RuntimePolicy::weight_grace`.
    pub weight_grace_s: f64,
}

impl SimFaults {
    /// True when no fault event is scheduled.
    pub fn is_empty(&self) -> bool {
        self.stalls.is_empty() && self.dropped_cpis.is_empty() && self.stale_weight_cpis.is_empty()
    }
}

/// Derives the runtime degradation policy the real pipeline should use
/// on the modeled machine: deadlines scaled from the model's predicted
/// CPI interval (equation (1)).
pub fn derive_policy(result: &SimResult) -> RuntimePolicy {
    let interval = if result.eq_throughput.is_finite() && result.eq_throughput > 0.0 {
        1.0 / result.eq_throughput
    } else {
        0.1
    };
    RuntimePolicy::from_cpi_interval(interval)
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Algorithm parameters (geometry drives message volumes).
    pub params: StapParams,
    /// Node counts per task.
    pub assign: NodeAssignment,
    /// Per-task total flops for one CPI (drives compute times).
    pub flops: TaskFlops,
    /// Machine cost model.
    pub machine: Paragon,
    /// Number of transmit-beam positions in the revisit cycle.
    pub beams: usize,
    /// CPIs to simulate (paper: 25).
    pub num_cpis: usize,
    /// Leading CPIs excluded from averages (paper: 3).
    pub warmup: usize,
    /// Trailing CPIs excluded (paper: 2).
    pub cooldown: usize,
    /// When set, wire times are multiplied by the mesh link-contention
    /// factor of each all-to-all exchange (ablation knob; the endpoint
    /// serialization the base model always applies dominates in
    /// practice).
    pub mesh_contention: Option<Mesh>,
    /// Stage replication (the technique of the paper's reference \[13\]
    /// and its "multiple pipelines" future work): task `t` runs
    /// `replicas[t]` independent groups of `assign[t]` nodes each, with
    /// CPI `i` handled by group `i % replicas[t]`. Raises throughput of
    /// a replicated bottleneck stage without touching latency.
    pub replicas: [usize; 7],
    /// Radar input rate: CPI `i` becomes available at `i * interval`
    /// seconds (`None` = data always ready, the paper's maximum-rate
    /// measurement mode). The RTMCARM radar delivered 5-10 CPIs per
    /// second; a pipeline faster than the input rate idles in Doppler
    /// receive, never the other way around.
    pub input_interval_s: Option<f64>,
    /// Shared-memory processors used per node (paper future work:
    /// "multiple processors on each compute node"; each Paragon node has
    /// three i860s). Compute times scale by the machine model's Amdahl
    /// curve; communication is unaffected (one NIC per node).
    pub cpus_per_node: usize,
    /// Disable the Doppler task's "data collection" (Section 4.1.1
    /// ablation): ship the *full* range extent to the weight tasks
    /// instead of only the gathered training cells. The paper: "Data
    /// collection is performed to avoid sending redundant data and hence
    /// reduces the communication costs."
    pub no_data_collection: bool,
    /// Deterministic fault events (`None` = healthy run).
    pub faults: Option<SimFaults>,
}

impl SimConfig {
    /// The paper's experimental setup on a given node assignment.
    pub fn paper(assign: NodeAssignment) -> Self {
        SimConfig {
            params: StapParams::paper(),
            assign,
            flops: stap_core::flops::paper_table1(),
            machine: Paragon::afrl_calibrated(),
            beams: 5,
            num_cpis: 25,
            warmup: 3,
            cooldown: 2,
            mesh_contention: None,
            replicas: [1; 7],
            input_interval_s: None,
            cpus_per_node: 1,
            no_data_collection: false,
            faults: None,
        }
    }
}

/// Simulation output.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-task phase times averaged over nodes and measured CPIs.
    pub tasks: [TaskTiming; 7],
    /// Throughput measured from pipeline completion intervals (CPI/s).
    pub measured_throughput: f64,
    /// Latency measured from input availability to detection report (s).
    pub measured_latency: f64,
    /// Equation (1) applied to the per-task times.
    pub eq_throughput: f64,
    /// Equation (2) applied to the per-task times.
    pub eq_latency: f64,
    /// Equation (3) (idle-excluded) latency.
    pub eq_real_latency: f64,
    /// Per-CPI outcome under the configured fault events. Empty for a
    /// healthy (faultless) simulation.
    pub outcomes: Vec<CpiOutcome>,
}

impl SimResult {
    /// A JSON rendering of the result (field order matches the struct),
    /// used by `stapctl simulate --json`.
    pub fn to_json(&self) -> stap_util::Json {
        use stap_util::Json;
        Json::obj([
            (
                "tasks",
                Json::arr(self.tasks.iter().map(|t| {
                    Json::obj([
                        ("recv", Json::Num(t.recv)),
                        ("comp", Json::Num(t.comp)),
                        ("send", Json::Num(t.send)),
                        ("recv_idle", Json::Num(t.recv_idle)),
                    ])
                })),
            ),
            ("measured_throughput", Json::Num(self.measured_throughput)),
            ("measured_latency", Json::Num(self.measured_latency)),
            ("eq_throughput", Json::Num(self.eq_throughput)),
            ("eq_latency", Json::Num(self.eq_latency)),
            ("eq_real_latency", Json::Num(self.eq_real_latency)),
            (
                "degraded_cpis",
                Json::Num(self.count(CpiOutcome::DegradedStaleWeights) as f64),
            ),
            (
                "dropped_cpis",
                Json::Num(self.count(CpiOutcome::Dropped) as f64),
            ),
        ])
    }

    /// Number of simulated CPIs with the given outcome.
    pub fn count(&self, o: CpiOutcome) -> usize {
        self.outcomes.iter().filter(|x| **x == o).count()
    }
}

/// Per-pair message volumes in bytes (complex samples are 8 bytes, the
/// pulse-compressed power 4 bytes per cell, as on the Paragon).
struct Volumes {
    /// Indexed `[src_dop_node][dst_node]`, one table per edge out of
    /// Doppler.
    d_to_ew: Vec<Vec<u64>>,
    d_to_hw: Vec<Vec<u64>>,
    d_to_ebf: Vec<Vec<u64>>,
    d_to_hbf: Vec<Vec<u64>>,
    ew_to_ebf: Vec<Vec<u64>>,
    hw_to_hbf: Vec<Vec<u64>>,
    ebf_to_pc: Vec<Vec<u64>>,
    hbf_to_pc: Vec<Vec<u64>>,
    pc_to_cfar: Vec<Vec<u64>>,
    input_slab: Vec<u64>,
}

fn cells_in(cells: &[usize], r: &Range<usize>) -> usize {
    cells.iter().filter(|c| r.contains(c)).count()
}

impl Volumes {
    #[cfg(test)]
    fn new(p: &StapParams, parts: &Partitions) -> Self {
        Volumes::with_collection(p, parts, true)
    }

    fn with_collection(p: &StapParams, parts: &Partitions, collect: bool) -> Self {
        let cx = 8u64; // bytes per complex sample
        let (j, m, k) = (p.j_channels as u64, p.m_beams as u64, p.k_range as u64);
        let easy_cells = easy_training_cells(p);
        let hard_cells: Vec<Vec<usize>> = (0..p.num_segments())
            .map(|s| hard_training_cells(p, s))
            .collect();
        let easy_bins = p.easy_bins();
        let hard_bins = p.hard_bins();
        let segs = p.num_segments() as u64;

        let per_pair = |src: &Vec<Range<usize>>,
                        dst: &Vec<Range<usize>>,
                        f: &dyn Fn(&Range<usize>, &Range<usize>) -> u64|
         -> Vec<Vec<u64>> {
            src.iter()
                .map(|s| dst.iter().map(|d| f(s, d)).collect())
                .collect()
        };

        Volumes {
            d_to_ew: per_pair(&parts.doppler_k, &parts.easy_wt_bins, &|kr, bq| {
                let cells = if collect {
                    cells_in(&easy_cells, kr) as u64
                } else {
                    kr.len() as u64
                };
                bq.len() as u64 * cells * j * cx
            }),
            d_to_hw: per_pair(&parts.doppler_k, &parts.hard_wt_bins, &|kr, bq| {
                let cells: u64 = if collect {
                    hard_cells.iter().map(|c| cells_in(c, kr) as u64).sum()
                } else {
                    (p.num_segments() * kr.len()) as u64
                };
                bq.len() as u64 * cells * 2 * j * cx
            }),
            d_to_ebf: per_pair(&parts.doppler_k, &parts.easy_bf_bins, &|kr, br| {
                br.len() as u64 * kr.len() as u64 * j * cx
            }),
            d_to_hbf: per_pair(&parts.doppler_k, &parts.hard_bf_bins, &|kr, br| {
                br.len() as u64 * kr.len() as u64 * 2 * j * cx
            }),
            ew_to_ebf: per_pair(&parts.easy_wt_bins, &parts.easy_bf_bins, &|a, b| {
                overlap(a, b).len() as u64 * j * m * cx
            }),
            hw_to_hbf: per_pair(&parts.hard_wt_bins, &parts.hard_bf_bins, &|a, b| {
                overlap(a, b).len() as u64 * segs * 2 * j * m * cx
            }),
            ebf_to_pc: per_pair(&parts.easy_bf_bins, &parts.pc_bins, &|a, b| {
                let n = a.clone().filter(|&x| b.contains(&easy_bins[x])).count();
                n as u64 * m * k * cx
            }),
            hbf_to_pc: per_pair(&parts.hard_bf_bins, &parts.pc_bins, &|a, b| {
                let n = a.clone().filter(|&x| b.contains(&hard_bins[x])).count();
                n as u64 * m * k * cx
            }),
            pc_to_cfar: per_pair(&parts.pc_bins, &parts.cfar_bins, &|a, b| {
                overlap(a, b).len() as u64 * m * k * 4
            }),
            input_slab: parts
                .doppler_k
                .iter()
                .map(|kr| kr.len() as u64 * j * p.n_pulses as u64 * cx)
                .collect(),
        }
    }
}

/// Modeled wire bytes for one CPI on each logical pipeline edge,
/// indexed by the [`stap_pipeline::msg::Edge`] discriminant. This is
/// the model-side half of the measured-vs-modeled reconciliation: the
/// runtime traces attribute the same Paragon byte encoding (8 bytes per
/// complex sample, 4 per real) to every message, so on a healthy run
/// the per-edge comparison is an exact-match check. The output edge
/// (detection reports) is unmodeled by the paper and reported as 0.
pub fn modeled_edge_bytes(cfg: &SimConfig) -> [u64; stap_pipeline::msg::NUM_EDGES] {
    let parts = Partitions::new(&cfg.params, &cfg.assign);
    let vols = Volumes::with_collection(&cfg.params, &parts, !cfg.no_data_collection);
    let sum = |m: &Vec<Vec<u64>>| -> u64 { m.iter().flatten().sum() };
    [
        vols.input_slab.iter().sum(),
        sum(&vols.d_to_ew),
        sum(&vols.d_to_hw),
        sum(&vols.d_to_ebf),
        sum(&vols.d_to_hbf),
        sum(&vols.ew_to_ebf),
        sum(&vols.hw_to_hbf),
        sum(&vols.ebf_to_pc),
        sum(&vols.hbf_to_pc),
        sum(&vols.pc_to_cfar),
        0,
    ]
}

/// Task indices in pipeline order.
const TASK_ORDER: [usize; 7] = [0, 1, 2, 3, 4, 5, 6];

/// Runs the simulation.
pub fn simulate(cfg: &SimConfig) -> SimResult {
    simulate_inner(cfg, None)
}

/// Runs the simulation capturing the full per-(task, node, CPI) phase
/// timeline (see [`crate::trace`]).
pub fn simulate_traced(cfg: &SimConfig) -> crate::trace::Traced {
    let mut intervals = Vec::new();
    let result = simulate_inner(cfg, Some(&mut intervals));
    crate::trace::Traced { result, intervals }
}

fn simulate_inner(
    cfg: &SimConfig,
    mut trace_out: Option<&mut Vec<crate::trace::Interval>>,
) -> SimResult {
    let p = &cfg.params;
    let parts = Partitions::new(p, &cfg.assign);
    let vols = Volumes::with_collection(p, &parts, !cfg.no_data_collection);
    let mach = &cfg.machine;
    let n = cfg.num_cpis;

    // Fault-event lookups (all empty in a healthy run).
    let faults = cfg.faults.clone().unwrap_or_default();
    let stall_at: HashMap<(usize, usize, usize), f64> = faults
        .stalls
        .iter()
        .map(|&(t, nd, c, s)| ((t, nd, c), s))
        .collect();
    let dropped: HashSet<usize> = faults.dropped_cpis.iter().copied().collect();
    let mut stale: HashSet<usize> = faults.stale_weight_cpis.iter().copied().collect();
    // A weight-task stall past the grace deadline degrades the CPI its
    // weights were destined for: the beamformers fall back rather than
    // wait (the runtime's stale-weight policy).
    for &(t, _, c, s) in &faults.stalls {
        if (t == 1 || t == 2) && s > faults.weight_grace_s {
            let target = c + cfg.beams;
            if target < n {
                stale.insert(target);
            }
        }
    }

    // Contention factor per (src task, dst task) pair, if enabled.
    let contention = |src_task: usize, dst_task: usize| -> f64 {
        match &cfg.mesh_contention {
            None => 1.0,
            Some(mesh) => {
                let placement = Mesh::contiguous_placement(&cfg.assign.0);
                mesh.alltoall_contention(&placement[src_task], &placement[dst_task]) as f64
            }
        }
    };

    // arrivals[(task, node, cpi)] -> list of (arrival_time, unpack_time)
    let mut arrivals: HashMap<(usize, usize, usize), Vec<(f64, f64)>> = HashMap::new();
    // node_free[task][replica][node]
    let replicas = cfg.replicas;
    assert!(replicas.iter().all(|&r| r >= 1), "replicas must be >= 1");
    let mut node_free: Vec<Vec<Vec<f64>>> = cfg
        .assign
        .0
        .iter()
        .zip(&replicas)
        .map(|(&c, &r)| vec![vec![0.0; c]; r])
        .collect();
    // recv_end[(task, node, cpi)] — when a node finished consuming a
    // CPI's inputs; used for the double-buffering back-pressure below.
    let mut recv_end_at: HashMap<(usize, usize, usize), f64> = HashMap::new();
    // Per (task, cpi): accumulated phase times over nodes and the span
    // of phase end times for pipeline metrics.
    let mut acc: Vec<Vec<TaskTiming>> = (0..7).map(|_| vec![TaskTiming::default(); n]).collect();
    let mut task_done: Vec<Vec<f64>> = (0..7).map(|_| vec![0.0f64; n]).collect();
    let mut doppler_start: Vec<f64> = vec![f64::MAX; n];

    // Pre-seed Doppler input arrivals: with no input-rate limit the CPI
    // data is available immediately (the front end outpaces the
    // pipeline); otherwise CPI i arrives at i * interval. Unpack is
    // charged either way.
    for cpi in 0..n {
        let avail = cfg.input_interval_s.map_or(0.0, |dt| cpi as f64 * dt);
        for (node, &bytes) in vols.input_slab.iter().enumerate() {
            arrivals
                .entry((0, node, cpi))
                .or_default()
                .push((avail, mach.unpack_time(bytes / mach.bytes_per_sample)));
        }
    }

    // (src task, volumes, dst task, weight_edge, strided_pack). Edges out
    // of Doppler require data collection/reorganization (strided pack);
    // everything downstream keeps the same bin partitioning and ships
    // contiguous buffers ("no data collection or reorganization").
    type SendEdge<'a> = (usize, &'a Vec<Vec<u64>>, usize, bool, bool);
    let send_edges: [SendEdge<'_>; 9] = [
        (0, &vols.d_to_ew, 1, false, true),
        (0, &vols.d_to_hw, 2, false, true),
        (0, &vols.d_to_ebf, 3, false, true),
        (0, &vols.d_to_hbf, 4, false, true),
        (1, &vols.ew_to_ebf, 3, true, false),
        (2, &vols.hw_to_hbf, 4, true, false),
        (3, &vols.ebf_to_pc, 5, false, false),
        (4, &vols.hbf_to_pc, 5, false, false),
        (5, &vols.pc_to_cfar, 6, false, false),
    ];

    for cpi in 0..n {
        for &t in &TASK_ORDER {
            let nodes = cfg.assign.0[t];
            let comp_time = mach.compute_time(ALL_TASKS[t], cfg.flops.0[t], nodes)
                / mach.smp_speedup(cfg.cpus_per_node);
            // With stage replication, CPI `cpi` runs on replica group
            // `cpi % replicas[t]`; groups are fully independent.
            let rep = cpi % replicas[t];
            for node in 0..nodes {
                // ---- receive phase ----
                // Double-buffering back-pressure (Fig. 10 line 14): the
                // loop for CPI i waits for the sends of CPI i-1 to
                // complete, i.e. for every receiver to have consumed
                // them — a producer runs at most one CPI ahead of its
                // consumers.
                let mut phase_start = node_free[t][rep][node];
                {
                    for (src_task, vol, dst_task, is_weight, _strided) in &send_edges {
                        if *src_task != t {
                            continue;
                        }
                        // The same replica group last ran CPI
                        // `cpi - replicas[t]`; its sends are the ones
                        // double buffering waits on.
                        let stride = replicas[t];
                        if cpi < stride {
                            continue;
                        }
                        let prev_cpi = cpi - stride;
                        let prev_target = if *is_weight {
                            prev_cpi + cfg.beams
                        } else {
                            prev_cpi
                        };
                        if prev_target >= n || (*is_weight && prev_target >= cpi) {
                            // Weight messages target a future CPI whose
                            // consumption hasn't been simulated yet; the
                            // tiny weight volumes never exert pressure.
                            continue;
                        }
                        for (dst_node, &bytes) in vol[node].iter().enumerate() {
                            if bytes == 0 {
                                continue;
                            }
                            if let Some(&e) = recv_end_at.get(&(*dst_task, dst_node, prev_target)) {
                                phase_start = phase_start.max(e);
                            }
                        }
                    }
                }
                if t == 0 {
                    // Latency is measured from "the arrival of the CPI
                    // data cube at the system input": the later of the
                    // data becoming available and the first task being
                    // ready to read it.
                    let avail = cfg.input_interval_s.map_or(0.0, |dt| cpi as f64 * dt);
                    doppler_start[cpi] = doppler_start[cpi].min(phase_start.max(avail));
                }
                let mut msgs = arrivals.remove(&(t, node, cpi)).unwrap_or_default();
                msgs.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut tcur = phase_start;
                let mut unpack_total = 0.0;
                for (arr, unp) in &msgs {
                    tcur = tcur.max(*arr) + unp;
                    unpack_total += unp;
                }
                let recv_end = tcur;
                let recv = recv_end - phase_start;
                let recv_idle = recv - unpack_total;
                recv_end_at.insert((t, node, cpi), recv_end);

                // ---- compute phase ----
                // An injected stall delays the node; a dropped CPI flows
                // through at zero compute (drop markers skip the kernels).
                let drop_this = dropped.contains(&cpi);
                let stall_s = stall_at.get(&(t, node, cpi)).copied().unwrap_or(0.0);
                let comp_this = if drop_this { 0.0 } else { comp_time } + stall_s;
                let comp_end = recv_end + comp_this;

                // ---- send phase ----
                let mut send_cursor = comp_end;
                for (src_task, vol, dst_task, is_weight, strided) in &send_edges {
                    if *src_task != t {
                        continue;
                    }
                    // Weight tasks' output for this CPI is consumed at
                    // cpi + beams; beyond the horizon nothing is sent.
                    let target_cpi = if *is_weight { cpi + cfg.beams } else { cpi };
                    if target_cpi >= n {
                        continue;
                    }
                    let cf = contention(t, *dst_task);
                    for (dst_node, &bytes) in vol[node].iter().enumerate() {
                        if bytes == 0 {
                            continue;
                        }
                        // Dropped CPIs ship zero-volume markers: the edge
                        // still costs a message startup, nothing more.
                        let samples = if drop_this {
                            0
                        } else {
                            bytes / mach.bytes_per_sample
                        };
                        let pack = if *strided {
                            mach.pack_time(samples)
                        } else {
                            mach.contiguous_send_time(samples)
                        };
                        send_cursor += pack + mach.msg_startup_s;
                        let arrive = send_cursor + mach.wire_time(samples) * cf;
                        arrivals
                            .entry((*dst_task, dst_node, target_cpi))
                            .or_default()
                            .push((arrive, mach.unpack_time(samples)));
                    }
                }
                let send = send_cursor - comp_end;
                node_free[t][rep][node] = send_cursor;
                task_done[t][cpi] = task_done[t][cpi].max(send_cursor);
                if let Some(tr) = trace_out.as_deref_mut() {
                    tr.push(crate::trace::Interval {
                        task: t,
                        node,
                        cpi,
                        start: phase_start,
                        recv_end,
                        comp_end,
                        send_end: send_cursor,
                    });
                }

                acc[t][cpi].add(&TaskTiming {
                    recv,
                    comp: comp_this,
                    send,
                    recv_idle,
                });
            }
        }
    }

    // Average per task over nodes and the measured CPI window.
    let lo = cfg.warmup.min(n.saturating_sub(1));
    let hi = (n - cfg.cooldown.min(n - 1)).max(lo + 1);
    let mut tasks = [TaskTiming::default(); 7];
    for t in 0..7 {
        let mut sum = TaskTiming::default();
        for a in &acc[t][lo..hi] {
            sum.add(&a.scale(1.0 / cfg.assign.0[t] as f64));
        }
        tasks[t] = sum.scale(1.0 / (hi - lo) as f64);
    }

    // Measured rates from the CFAR task's completion times.
    let completions = &task_done[6];
    let intervals: Vec<f64> = (lo.max(1)..hi)
        .map(|i| completions[i] - completions[i - 1])
        .collect();
    let mean_interval = intervals.iter().sum::<f64>() / intervals.len().max(1) as f64;
    let latencies: Vec<f64> = (lo..hi)
        .map(|i| completions[i] - doppler_start[i])
        .collect();
    let mean_latency = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;

    let outcomes = if cfg.faults.is_some() {
        (0..n)
            .map(|c| {
                if dropped.contains(&c) {
                    CpiOutcome::Dropped
                } else if stale.contains(&c) {
                    CpiOutcome::DegradedStaleWeights
                } else {
                    CpiOutcome::Ok
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    SimResult {
        tasks,
        measured_throughput: if mean_interval > 0.0 {
            1.0 / mean_interval
        } else {
            f64::INFINITY
        },
        measured_latency: mean_latency,
        eq_throughput: throughput_eq1(&tasks),
        eq_latency: latency_eq2(&tasks),
        eq_real_latency: real_latency_eq3(&tasks),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(assign: NodeAssignment) -> SimResult {
        simulate(&SimConfig::paper(assign))
    }

    #[test]
    fn case3_reproduces_paper_magnitudes() {
        // Paper Table 7 case 3: throughput 1.99 CPI/s, latency 1.35 s.
        let r = run(NodeAssignment::case3());
        assert!(
            (r.measured_throughput - 1.99).abs() < 0.4,
            "throughput {}",
            r.measured_throughput
        );
        assert!(
            (r.measured_latency - 1.35).abs() < 0.5,
            "latency {}",
            r.measured_latency
        );
    }

    #[test]
    fn scaling_cases_order_correctly() {
        let t3 = run(NodeAssignment::case3()).measured_throughput;
        let t2 = run(NodeAssignment::case2()).measured_throughput;
        let t1 = run(NodeAssignment::case1()).measured_throughput;
        assert!(t1 > t2 && t2 > t3, "{t1} {t2} {t3}");
        // Near-linear speedup: 4x nodes -> ~3.2x+ throughput.
        assert!(t1 / t3 > 3.0, "case1/case3 = {}", t1 / t3);
    }

    #[test]
    fn latency_improves_with_more_nodes() {
        let l3 = run(NodeAssignment::case3()).measured_latency;
        let l1 = run(NodeAssignment::case1()).measured_latency;
        assert!(l1 < 0.5 * l3, "latency {l1} vs {l3}");
    }

    #[test]
    fn equation_latency_upper_bounds_measured() {
        for assign in [
            NodeAssignment::case1(),
            NodeAssignment::case2(),
            NodeAssignment::case3(),
        ] {
            let r = run(assign);
            assert!(
                r.eq_latency >= r.measured_latency * 0.95,
                "eq {} measured {}",
                r.eq_latency,
                r.measured_latency
            );
        }
    }

    #[test]
    fn table9_effect_adding_doppler_nodes_helps_everything() {
        // Paper: +4 Doppler nodes to case 2 improves throughput ~32% and
        // latency ~19%.
        let base = run(NodeAssignment::case2());
        let plus = run(NodeAssignment::table9());
        let tp_gain = plus.measured_throughput / base.measured_throughput;
        let lat_gain = 1.0 - plus.measured_latency / base.measured_latency;
        assert!(tp_gain > 1.1, "throughput gain {tp_gain}");
        assert!(lat_gain > 0.05, "latency gain {lat_gain}");
    }

    #[test]
    fn table10_effect_weight_bottleneck_caps_throughput() {
        // Paper: adding 16 more nodes to PC/CFAR does NOT improve
        // throughput over Table 9 (weights are the bottleneck) but DOES
        // improve latency.
        let t9 = run(NodeAssignment::table9());
        let t10 = run(NodeAssignment::table10());
        assert!(
            t10.measured_throughput <= t9.measured_throughput * 1.05,
            "throughput should not improve: {} vs {}",
            t10.measured_throughput,
            t9.measured_throughput
        );
        assert!(
            t10.measured_latency < t9.measured_latency,
            "latency should improve: {} vs {}",
            t10.measured_latency,
            t9.measured_latency
        );
    }

    #[test]
    fn communication_scales_superlinearly_with_doppler_nodes() {
        // Paper Table 2's observation: doubling sender and receiver
        // nodes improves inter-task communication more than linearly.
        let mut small = NodeAssignment::case2();
        small.0[0] = 8;
        let r8 = simulate(&SimConfig::paper(small));
        let mut big = NodeAssignment::case2();
        big.0[0] = 32;
        let r32 = simulate(&SimConfig::paper(big));
        let send8 = r8.tasks[0].send;
        let send32 = r32.tasks[0].send;
        assert!(send8 / send32 > 3.5, "send {send8} vs {send32}");
    }

    #[test]
    fn contention_mode_only_slows_communication() {
        let base = run(NodeAssignment::case3());
        let mut cfg = SimConfig::paper(NodeAssignment::case3());
        cfg.mesh_contention = Some(Mesh::afrl());
        let cont = simulate(&cfg);
        assert!(cont.measured_throughput <= base.measured_throughput * 1.001);
        assert!(cont.measured_latency >= base.measured_latency * 0.999);
    }

    #[test]
    fn determinism() {
        let a = run(NodeAssignment::case2());
        let b = run(NodeAssignment::case2());
        assert_eq!(a.measured_latency, b.measured_latency);
        assert_eq!(a.measured_throughput, b.measured_throughput);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    #[test]
    fn empty_faults_change_nothing_and_report_no_outcomes() {
        let base = simulate(&SimConfig::paper(NodeAssignment::case3()));
        let mut cfg = SimConfig::paper(NodeAssignment::case3());
        cfg.faults = Some(SimFaults::default());
        let r = simulate(&cfg);
        assert_eq!(r.measured_throughput, base.measured_throughput);
        assert_eq!(r.measured_latency, base.measured_latency);
        assert!(base.outcomes.is_empty());
        assert_eq!(r.outcomes.len(), cfg.num_cpis);
        assert!(r.outcomes.iter().all(|o| *o == CpiOutcome::Ok));
    }

    #[test]
    fn dropped_cpi_is_classified_and_cheap() {
        let mut cfg = SimConfig::paper(NodeAssignment::case3());
        cfg.faults = Some(SimFaults {
            dropped_cpis: vec![10],
            ..SimFaults::default()
        });
        let r = simulate(&cfg);
        assert_eq!(r.outcomes[10], CpiOutcome::Dropped);
        assert_eq!(r.count(CpiOutcome::Dropped), 1);
        // Dropping a CPI frees its compute; the pipeline must not slow.
        let base = simulate(&SimConfig::paper(NodeAssignment::case3()));
        assert!(r.measured_throughput >= base.measured_throughput * 0.99);
    }

    #[test]
    fn weight_stall_past_grace_degrades_the_target_cpi() {
        let mut cfg = SimConfig::paper(NodeAssignment::case3());
        cfg.faults = Some(SimFaults {
            stalls: vec![(1, 0, 6, 2.0)], // easy-weight node 0 stalls 2 s at CPI 6
            weight_grace_s: 0.5,
            ..SimFaults::default()
        });
        let r = simulate(&cfg);
        // Weights from CPI 6 target CPI 6 + beams = 11.
        assert_eq!(r.outcomes[6 + cfg.beams], CpiOutcome::DegradedStaleWeights);
        assert_eq!(r.count(CpiOutcome::DegradedStaleWeights), 1);
    }

    #[test]
    fn short_weight_stall_within_grace_stays_ok() {
        let mut cfg = SimConfig::paper(NodeAssignment::case3());
        cfg.faults = Some(SimFaults {
            stalls: vec![(1, 0, 6, 0.1)],
            weight_grace_s: 0.5,
            ..SimFaults::default()
        });
        let r = simulate(&cfg);
        assert_eq!(r.count(CpiOutcome::DegradedStaleWeights), 0);
        assert_eq!(r.count(CpiOutcome::Dropped), 0);
    }

    #[test]
    fn data_task_stall_slows_but_does_not_degrade() {
        let base = simulate(&SimConfig::paper(NodeAssignment::case3()));
        let mut cfg = SimConfig::paper(NodeAssignment::case3());
        cfg.faults = Some(SimFaults {
            stalls: vec![(0, 0, 12, 1.5)], // Doppler node 0 stalls mid-run
            ..SimFaults::default()
        });
        let r = simulate(&cfg);
        assert!(r.outcomes.iter().all(|o| *o == CpiOutcome::Ok));
        assert!(
            r.measured_throughput < base.measured_throughput,
            "a stall inside the measured window must cost throughput: {} vs {}",
            r.measured_throughput,
            base.measured_throughput
        );
    }

    #[test]
    fn derived_policy_scales_with_modeled_interval() {
        let fast = simulate(&SimConfig::paper(NodeAssignment::case1()));
        let slow = simulate(&SimConfig::paper(NodeAssignment::case3()));
        let pf = derive_policy(&fast);
        let ps = derive_policy(&slow);
        assert!(pf.fault_tolerant && ps.fault_tolerant);
        assert!(
            ps.edge_timeout >= pf.edge_timeout,
            "slower machine must get looser deadlines: {:?} vs {:?}",
            ps.edge_timeout,
            pf.edge_timeout
        );
    }

    #[test]
    fn derived_policy_enables_rebalancing_with_bounded_cooldown() {
        let r = simulate(&SimConfig::paper(NodeAssignment::case1()));
        let p = derive_policy(&r);
        assert!(p.rebalance, "derived policies opt into elastic rebalancing");
        assert!(
            (4..=64).contains(&p.rebalance_cooldown),
            "cooldown must stay in the clamp band: {}",
            p.rebalance_cooldown
        );
        assert!(p.rebalance_imbalance > 1.0);
        // Faster modeled machines need more slots to accumulate the same
        // telemetry window.
        let slow = simulate(&SimConfig::paper(NodeAssignment::case3()));
        let pslow = derive_policy(&slow);
        assert!(
            p.rebalance_cooldown >= pslow.rebalance_cooldown,
            "faster machine gets a longer (in slots) cooldown: {} vs {}",
            p.rebalance_cooldown,
            pslow.rebalance_cooldown
        );
    }

    #[test]
    fn derived_policy_survives_degenerate_throughput() {
        use std::time::Duration;
        // A result with zero/non-finite modeled throughput (e.g. a
        // single-rank world that never completed the measured window)
        // must still yield usable, clamped deadlines rather than a
        // divide-by-zero policy.
        let mut r = simulate(&SimConfig::paper(NodeAssignment::case1()));
        for bad in [0.0, f64::NAN, f64::INFINITY, -3.0] {
            r.eq_throughput = bad;
            let p = derive_policy(&r);
            assert!(p.fault_tolerant);
            assert!(p.edge_timeout >= Duration::from_millis(200));
            assert!(p.edge_timeout <= Duration::from_secs(5));
            assert!(p.rebalance_cooldown >= 4);
        }
    }
}

#[cfg(test)]
mod collection_tests {
    use super::*;

    #[test]
    fn skipping_data_collection_hurts_throughput() {
        // Section 4.1.1's claim, quantified: shipping full range extents
        // to the weight tasks instead of gathered training cells
        // inflates the Doppler task's send volume and slows the system.
        let base = simulate(&SimConfig::paper(NodeAssignment::case3()));
        let mut cfg = SimConfig::paper(NodeAssignment::case3());
        cfg.no_data_collection = true;
        let r = simulate(&cfg);
        assert!(
            r.measured_throughput < 0.9 * base.measured_throughput,
            "no-collection should cost >10%: {} vs {}",
            r.measured_throughput,
            base.measured_throughput
        );
        assert!(r.tasks[0].send > 1.3 * base.tasks[0].send);
    }
}

#[cfg(test)]
mod volume_tests {
    use super::*;
    use stap_core::volumes;

    /// The per-pair message volumes must sum exactly to the aggregate
    /// inter-task volumes `stap-core` derives from the parameters —
    /// regardless of node counts.
    #[test]
    fn per_pair_volumes_sum_to_aggregates() {
        let p = StapParams::paper();
        for assign in [
            NodeAssignment::case1(),
            NodeAssignment::case3(),
            NodeAssignment([5, 3, 9, 2, 6, 7, 1]),
        ] {
            let parts = Partitions::new(&p, &assign);
            let v = Volumes::new(&p, &parts);
            let sum = |m: &Vec<Vec<u64>>| -> u64 { m.iter().flatten().sum() };
            assert_eq!(sum(&v.d_to_ew), volumes::doppler_to_easy_weight(&p) * 8);
            assert_eq!(sum(&v.d_to_hw), volumes::doppler_to_hard_weight(&p) * 8);
            assert_eq!(sum(&v.d_to_ebf), volumes::doppler_to_easy_bf(&p) * 8);
            assert_eq!(sum(&v.d_to_hbf), volumes::doppler_to_hard_bf(&p) * 8);
            assert_eq!(sum(&v.ew_to_ebf), volumes::easy_weight_to_easy_bf(&p) * 8);
            assert_eq!(sum(&v.hw_to_hbf), volumes::hard_weight_to_hard_bf(&p) * 8);
            assert_eq!(sum(&v.ebf_to_pc), volumes::easy_bf_to_pc(&p) * 8);
            assert_eq!(sum(&v.hbf_to_pc), volumes::hard_bf_to_pc(&p) * 8);
            assert_eq!(sum(&v.pc_to_cfar), volumes::pc_to_cfar_real(&p) * 4);
            let input: u64 = v.input_slab.iter().sum();
            assert_eq!(input, (p.k_range * p.j_channels * p.n_pulses) as u64 * 8);
        }
    }
}

#[cfg(test)]
mod smp_tests {
    use super::*;

    #[test]
    fn three_cpus_per_node_lift_throughput_sublinearly() {
        let base = simulate(&SimConfig::paper(NodeAssignment::case3()));
        let mut cfg = SimConfig::paper(NodeAssignment::case3());
        cfg.cpus_per_node = 3;
        let r = simulate(&cfg);
        let gain = r.measured_throughput / base.measured_throughput;
        assert!(
            gain > 1.5 && gain < 2.4,
            "3 CPUs/node: compute shrinks 2.4x but communication does not; gain {gain}"
        );
        assert!(r.measured_latency < base.measured_latency);
    }

    #[test]
    fn smp_gain_is_smaller_where_communication_dominates() {
        // At a large node count the per-node work is mostly pack/wire;
        // extra CPUs help relatively less than at small counts.
        let gain_at = |assign: NodeAssignment| {
            let base = simulate(&SimConfig::paper(assign));
            let mut cfg = SimConfig::paper(assign);
            cfg.cpus_per_node = 3;
            simulate(&cfg).measured_throughput / base.measured_throughput
        };
        let small = gain_at(NodeAssignment::case3());
        let big = gain_at(NodeAssignment::case1());
        assert!(
            big < small,
            "SMP gain should shrink with scale: {big} vs {small}"
        );
    }
}

#[cfg(test)]
mod input_rate_tests {
    use super::*;

    #[test]
    fn throughput_is_capped_by_the_input_rate() {
        // Case 1 can do ~7.4 CPI/s; feed it 5 CPI/s and it must deliver
        // exactly 5.
        let mut cfg = SimConfig::paper(NodeAssignment::case1());
        cfg.input_interval_s = Some(0.2);
        let r = simulate(&cfg);
        assert!(
            (r.measured_throughput - 5.0).abs() < 0.05,
            "throughput {} != input rate 5",
            r.measured_throughput
        );
    }

    #[test]
    fn slow_input_shows_up_as_doppler_receive_idle() {
        let mut cfg = SimConfig::paper(NodeAssignment::case1());
        cfg.input_interval_s = Some(0.25); // 4 CPI/s into a 7.4 CPI/s pipe
        let r = simulate(&cfg);
        assert!(
            r.tasks[0].recv_idle > 0.05,
            "Doppler should wait on input: idle {}",
            r.tasks[0].recv_idle
        );
    }

    #[test]
    fn fast_input_changes_nothing() {
        let base = simulate(&SimConfig::paper(NodeAssignment::case2()));
        let mut cfg = SimConfig::paper(NodeAssignment::case2());
        cfg.input_interval_s = Some(0.01); // 100 CPI/s >> pipeline
        let r = simulate(&cfg);
        assert!((r.measured_throughput - base.measured_throughput).abs() < 0.05);
    }

    #[test]
    fn latency_is_unaffected_by_a_slower_input() {
        // A under-loaded pipeline processes each CPI as it arrives;
        // per-CPI latency should not grow (and typically shrinks, since
        // queues never build).
        let base = simulate(&SimConfig::paper(NodeAssignment::case2()));
        let mut cfg = SimConfig::paper(NodeAssignment::case2());
        cfg.input_interval_s = Some(0.5); // 2 CPI/s into a 3.8 CPI/s pipe
        let r = simulate(&cfg);
        assert!(
            r.measured_latency <= base.measured_latency * 1.05,
            "latency grew: {} vs {}",
            r.measured_latency,
            base.measured_latency
        );
    }
}

#[cfg(test)]
mod replication_tests {
    use super::*;

    #[test]
    fn replicating_the_bottleneck_stage_raises_throughput() {
        // In the Table-10 configuration the model's busy-time bottleneck
        // is the Doppler stage (0.205 s vs 0.165 s for the weights).
        // Running two Doppler replicas on alternating CPIs must lift
        // throughput toward the next bottleneck.
        let base_cfg = SimConfig::paper(NodeAssignment::table10());
        let base = simulate(&base_cfg);
        let mut rep_cfg = base_cfg.clone();
        rep_cfg.replicas[0] = 2;
        let rep = simulate(&rep_cfg);
        assert!(
            rep.measured_throughput > base.measured_throughput * 1.15,
            "replication gain too small: {} -> {}",
            base.measured_throughput,
            rep.measured_throughput
        );
    }

    #[test]
    fn replication_keeps_latency_roughly_fixed() {
        // The cited technique "focused on increasing the throughput
        // while keeping the latency fixed".
        let base_cfg = SimConfig::paper(NodeAssignment::table10());
        let base = simulate(&base_cfg);
        let mut rep_cfg = base_cfg.clone();
        rep_cfg.replicas[0] = 2;
        let rep = simulate(&rep_cfg);
        assert!(
            rep.measured_latency < base.measured_latency * 1.15,
            "latency blew up: {} -> {}",
            base.measured_latency,
            rep.measured_latency
        );
    }

    #[test]
    fn replicating_a_non_bottleneck_stage_changes_nothing_much() {
        let base_cfg = SimConfig::paper(NodeAssignment::case2());
        let base = simulate(&base_cfg);
        let mut rep_cfg = base_cfg.clone();
        rep_cfg.replicas[6] = 3; // CFAR is nowhere near the bottleneck
        let rep = simulate(&rep_cfg);
        let ratio = rep.measured_throughput / base.measured_throughput;
        assert!(
            (0.95..1.2).contains(&ratio),
            "unexpected effect: ratio {ratio}"
        );
    }

    #[test]
    fn full_pipeline_replication_doubles_throughput() {
        // Two complete pipelines on double the hardware: the paper's
        // "multiple pipelines" future work.
        let base = simulate(&SimConfig::paper(NodeAssignment::case3()));
        let mut rep_cfg = SimConfig::paper(NodeAssignment::case3());
        rep_cfg.replicas = [2; 7];
        let rep = simulate(&rep_cfg);
        let gain = rep.measured_throughput / base.measured_throughput;
        assert!(
            (1.8..2.2).contains(&gain),
            "2x pipelines should give ~2x throughput, got {gain}"
        );
        assert!(
            rep.measured_latency < base.measured_latency * 1.1,
            "latency must stay put: {} vs {}",
            rep.measured_latency,
            base.measured_latency
        );
    }
}
