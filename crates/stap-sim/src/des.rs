//! The simulator core: deterministic timestamp propagation over the
//! pipeline's dataflow graph.

use stap_core::flops::TaskFlops;
use stap_core::StapParams;
use stap_machine::{Mesh, Paragon, ALL_TASKS};
use stap_pipeline::assignment::{NodeAssignment, Partitions, DOPPLER};
use stap_pipeline::metrics::{
    latency_eq2, real_latency_eq3, throughput_eq1, CpiOutcome, TaskTiming,
};
use stap_pipeline::msg::{Edge, NUM_EDGES};
use stap_pipeline::schedule::{Entry, Schedule};
use stap_pipeline::trace::{CpiMark, PipelineTrace, TaskSpan};
use std::collections::{HashMap, HashSet};

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

/// The messages of `cfg`'s schedule, priced by [`Entry::bytes_per_cpi`]
/// (8 bytes per complex sample, 4 per real, as on the Paragon). Without
/// data collection a Doppler node ships each weight node its whole range
/// extent — once per segment to the hard weights — instead of the
/// training cells.
fn modeled_messages(cfg: &SimConfig) -> Vec<Entry> {
    let p = &cfg.params;
    let schedule = Schedule::new(p, &cfg.assign, Partitions::new(p, &cfg.assign))
        .expect("block partitions cover their spaces");
    let dop0 = cfg.assign.rank_range(DOPPLER).start;
    let mut messages = schedule.entries().to_vec();
    for e in messages.iter_mut().filter(|_| cfg.no_data_collection) {
        let segments = match e.edge {
            Edge::DopplerToEasyWt => 1,
            Edge::DopplerToHardWt => p.num_segments(),
            _ => continue,
        };
        e.shape[1] = schedule.parts().doppler_k[e.src - dop0].len() * segments;
    }
    messages
}

/// Modeled wire bytes for one CPI on each logical pipeline edge,
/// indexed by the [`stap_pipeline::msg::Edge`] discriminant: the sum of
/// the schedule's messages. This is the model-side half of the
/// measured-vs-modeled reconciliation: the runtime traces attribute the
/// same Paragon byte encoding (8 bytes per complex sample, 4 per real)
/// to every message, so on a healthy run the per-edge comparison is an
/// exact-match check. The output edge (detection reports) is unmodeled
/// by the paper and reported as 0.
pub fn modeled_edge_bytes(cfg: &SimConfig) -> [u64; NUM_EDGES] {
    let mut bytes = [0; NUM_EDGES];
    for e in modeled_messages(cfg) {
        bytes[e.edge as usize] += e.bytes_per_cpi();
    }
    bytes
}

/// Task indices in pipeline order.
const TASK_ORDER: [usize; 7] = [0, 1, 2, 3, 4, 5, 6];

/// Runs the simulation.
pub fn simulate(cfg: &SimConfig) -> SimResult {
    simulate_inner(cfg, None)
}

/// Runs the simulation capturing the modelled timeline: one
/// [`TaskSpan`] per (task, node, CPI), the record a measured run's
/// nodes push, and per CPI a mark from its first Doppler receive to its
/// last CFAR send. Its comm events are empty: the model keeps no
/// per-message timeline.
pub fn simulate_traced(cfg: &SimConfig) -> (SimResult, PipelineTrace) {
    let mut trace = PipelineTrace {
        assign: cfg.assign,
        num_cpis: cfg.num_cpis,
        tasks: Vec::new(),
        comm: Vec::new(),
        cpis: Vec::new(),
    };
    let result = simulate_inner(cfg, Some(&mut trace));
    (result, trace)
}

fn simulate_inner(cfg: &SimConfig, mut trace: Option<&mut PipelineTrace>) -> SimResult {
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
    // The schedule's messages: the input slab per Doppler node, and per
    // sending rank its non-empty sends in schedule order as (dst task,
    // dst node, bytes, weight edge). Edges out of Doppler require data
    // collection/reorganization (strided pack); everything downstream
    // keeps the same bin partitioning and ships contiguous buffers ("no
    // data collection or reorganization"). Detections are unmodeled.
    let mut input_slab = Vec::new();
    let mut sends: Vec<Vec<(usize, usize, u64, bool)>> = vec![Vec::new(); cfg.assign.total()];
    for e in modeled_messages(cfg) {
        let bytes = e.bytes_per_cpi();
        let Some((dst_task, dst_node)) = cfg.assign.task_of_rank(e.dst) else {
            continue;
        };
        if e.edge == Edge::Input {
            input_slab.push(bytes);
        } else if bytes > 0 {
            let weight = matches!(e.edge, Edge::EasyWtToEasyBf | Edge::HardWtToHardBf);
            sends[e.src].push((dst_task, dst_node, bytes, weight));
        }
    }
    for cpi in 0..n {
        let avail = cfg.input_interval_s.map_or(0.0, |dt| cpi as f64 * dt);
        for (node, &bytes) in input_slab.iter().enumerate() {
            arrivals
                .entry((0, node, cpi))
                .or_default()
                .push((avail, mach.unpack_time(bytes / mach.bytes_per_sample)));
        }
    }

    for cpi in 0..n {
        for &t in &TASK_ORDER {
            let nodes = cfg.assign.0[t];
            let comp_time = mach.compute_time(ALL_TASKS[t], cfg.flops.0[t], nodes)
                / mach.smp_speedup(cfg.cpus_per_node);
            // With stage replication, CPI `cpi` runs on replica group
            // `cpi % replicas[t]`; groups are fully independent.
            let rep = cpi % replicas[t];
            for (node, rank) in cfg.assign.rank_range(t).enumerate() {
                // ---- receive phase ----
                // Double-buffering back-pressure (Fig. 10 line 14): the
                // loop for CPI i waits for the sends of CPI i-1 to
                // complete, i.e. for every receiver to have consumed
                // them — a producer runs at most one CPI ahead of its
                // consumers.
                let mut phase_start = node_free[t][rep][node];
                for &(dst_task, dst_node, _, is_weight) in &sends[rank] {
                    // The same replica group last ran CPI
                    // `cpi - replicas[t]`; its sends are the ones
                    // double buffering waits on.
                    let stride = replicas[t];
                    if cpi < stride {
                        continue;
                    }
                    let prev_cpi = cpi - stride;
                    let prev_target = if is_weight {
                        prev_cpi + cfg.beams
                    } else {
                        prev_cpi
                    };
                    if prev_target >= n || (is_weight && prev_target >= cpi) {
                        // Weight messages target a future CPI whose
                        // consumption hasn't been simulated yet; the
                        // tiny weight volumes never exert pressure.
                        continue;
                    }
                    if let Some(&e) = recv_end_at.get(&(dst_task, dst_node, prev_target)) {
                        phase_start = phase_start.max(e);
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
                for &(dst_task, dst_node, bytes, is_weight) in &sends[rank] {
                    // Weight tasks' output for this CPI is consumed at
                    // cpi + beams; beyond the horizon nothing is sent.
                    let target_cpi = if is_weight { cpi + cfg.beams } else { cpi };
                    if target_cpi >= n {
                        continue;
                    }
                    let cf = contention(t, dst_task);
                    // Dropped CPIs ship zero-volume markers: the edge
                    // still costs a message startup, nothing more.
                    let samples = if drop_this {
                        0
                    } else {
                        bytes / mach.bytes_per_sample
                    };
                    let pack = if t == DOPPLER {
                        mach.pack_time(samples)
                    } else {
                        mach.contiguous_send_time(samples)
                    };
                    send_cursor += pack + mach.msg_startup_s;
                    let arrive = send_cursor + mach.wire_time(samples) * cf;
                    arrivals
                        .entry((dst_task, dst_node, target_cpi))
                        .or_default()
                        .push((arrive, mach.unpack_time(samples)));
                }
                let send = send_cursor - comp_end;
                node_free[t][rep][node] = send_cursor;
                task_done[t][cpi] = task_done[t][cpi].max(send_cursor);
                if let Some(tr) = trace.as_deref_mut() {
                    tr.tasks.push(TaskSpan {
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
    if let Some(tr) = trace {
        tr.cpis = (0..n)
            .map(|cpi| CpiMark {
                cpi,
                inject_s: doppler_start[cpi],
                complete_s: completions[cpi],
            })
            .collect();
    }
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
    use crate::lattice::{explore, ExploreOptions};
    use stap_core::volumes;

    /// The schedule's per-edge totals are the aggregate inter-task
    /// volumes `stap-core` derives from the parameters, whatever the node
    /// counts — the paper's cases, two tiny ones and the searched
    /// frontiers at 59 and 118 nodes — and its input edge carries one raw
    /// CPI.
    #[test]
    fn schedule_edge_totals_equal_the_aggregate_volumes() {
        let p = StapParams::paper();
        let cfg = SimConfig::paper(NodeAssignment::case3());
        let frontier = [59, 118].into_iter().flat_map(|budget| {
            let opts = ExploreOptions {
                eval_budget: 100,
                ..ExploreOptions::default()
            };
            explore(&cfg, budget, &opts)
                .frontier
                .into_iter()
                .map(|c| c.assign)
        });
        let cases = [
            NodeAssignment::case1(),
            NodeAssignment::case2(),
            NodeAssignment::case3(),
            NodeAssignment::table9(),
            NodeAssignment::table10(),
            NodeAssignment::tiny(),
            NodeAssignment([1; 7]),
        ];
        for assign in cases.into_iter().chain(frontier) {
            let schedule = Schedule::new(&p, &assign, Partitions::new(&p, &assign)).unwrap();
            let want = [
                (p.k_range * p.j_channels * p.n_pulses) as u64 * 8,
                volumes::doppler_to_easy_weight(&p) * 8,
                volumes::doppler_to_hard_weight(&p) * 8,
                volumes::doppler_to_easy_bf(&p) * 8,
                volumes::doppler_to_hard_bf(&p) * 8,
                volumes::easy_weight_to_easy_bf(&p) * 8,
                volumes::hard_weight_to_hard_bf(&p) * 8,
                volumes::easy_bf_to_pc(&p) * 8,
                volumes::hard_bf_to_pc(&p) * 8,
                volumes::pc_to_cfar_real(&p) * 4,
                0,
            ];
            let mut totals = [0; NUM_EDGES];
            for e in schedule.entries() {
                totals[e.edge as usize] += e.bytes_per_cpi();
            }
            assert_eq!(totals, want, "{assign:?}");
            assert_eq!(
                modeled_edge_bytes(&SimConfig {
                    assign,
                    ..cfg.clone()
                }),
                want
            );
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
