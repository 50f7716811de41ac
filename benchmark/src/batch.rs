//! The batch engine over loopback TCP: `ParallelStap::run_rank` on one
//! in-process thread per rank, every rank on its own
//! `Comm::over_wire(TcpLink::rendezvous(..), msg_codec())`. Sockets, the
//! wire codec and per-message syscalls are real; no child process is
//! spawned, so no spawn cost is measured.

use crate::host;
use crate::workload::{digest, Inputs, Workload};
use stap_cube::CCube;
use stap_mp::{spawn_coordinator, Comm, TcpLink, TraceSink};
use stap_pipeline::assignment::Partitions;
use stap_pipeline::msg::{wire_bytes, Msg};
use stap_pipeline::runner::RankResult;
use stap_pipeline::tasks::PipelinePools;
use stap_pipeline::wire::msg_codec;
use stap_pipeline::{ParallelStap, PipelineTimings, PipelineTrace};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The paper excludes the last two CPIs of a run from its timings.
const COOLDOWN_CPIS: usize = 2;
/// Pool misses are counted from this long after the ranks start.
const POOL_WARM: Duration = Duration::from_millis(500);

pub struct Batch {
    /// `host::now()` at the start of building, when every rank was
    /// connected, and when the last rank returned.
    pub marks: [f64; 3],
    /// Start of building to the W-th completion.
    pub setup_s: f64,
    /// Completions per second between the W-th and the last measured CPI.
    pub throughput: f64,
    /// Injection-to-completion of every measured CPI, ms.
    pub latency_ms: Vec<f64>,
    /// Process CPU from the moment every rank is connected to the end of
    /// the batch, seconds (all of the batch's CPIs, warm-up included).
    pub cpu_s: f64,
    pub digests: Vec<u64>,
    pub lost_cpis: u64,
    pub timings: PipelineTimings,
    pub pool_misses_after_warm: u64,
    pub pool_hits: u64,
    pub trace: Option<PipelineTrace>,
}

/// The batch's input: the stream's ring replayed cyclically.
pub fn replay(w: &Workload, inputs: &Inputs, cpis: usize) -> Vec<CCube> {
    assert_eq!(w.streams, 1);
    (0..cpis).map(|i| inputs.cube(0, i).clone()).collect()
}

pub fn run_batch(w: &Workload, inputs: &Inputs, cpis: &[CCube], tracing: bool) -> Batch {
    let built_at = host::now();
    let mut par =
        ParallelStap::for_scenario(w.geometry.params(), w.assignment(), &inputs.scenarios[0]);
    par.window = w.window;
    par.warmup = w.warmup_cpis;
    par.cooldown = COOLDOWN_CPIS;
    if tracing {
        par = par.with_tracing();
    }
    let parts = Partitions::new(&par.params, &par.assign);
    let pools = PipelinePools::default();
    let size = par.assign.world_size();
    let (coord_addr, coordinator) = spawn_coordinator(size).expect("bind rendezvous listener");
    let connected = Barrier::new(size + 1);
    let sink = TraceSink::new();
    let epoch = tracing.then(Instant::now);

    let (results, cpu_s, misses_warm, marks) = std::thread::scope(|scope| {
        let ranks: Vec<_> = (0..size)
            .map(|rank| {
                let (par, parts, pools, sink) = (&par, &parts, &pools, &sink);
                let (coord_addr, connected) = (&coord_addr, &connected);
                scope.spawn(move || {
                    let link = TcpLink::rendezvous(coord_addr, rank, size).expect("tcp rendezvous");
                    let mut comm: Comm<Msg> = Comm::over_wire(Box::new(link), msg_codec());
                    if let Some(e) = epoch {
                        comm.install_tracing(e, sink, wire_bytes);
                    }
                    connected.wait();
                    let result = par.run_rank(&mut comm, cpis, parts, pools, epoch);
                    // Dropping the endpoint says goodbye to every peer
                    // and flushes its trace into the sink.
                    drop(comm);
                    result
                })
            })
            .collect();
        connected.wait();
        let (go_at, cpu0) = (host::now(), host::cpu_seconds());
        std::thread::sleep(POOL_WARM);
        let misses_warm = pools.cx.stats().misses + pools.real.stats().misses;
        let results: Vec<RankResult> = ranks
            .into_iter()
            .map(|r| r.join().expect("rank panicked"))
            .collect();
        let marks = [built_at, go_at, host::now()];
        (results, host::cpu_seconds() - cpu0, misses_warm, marks)
    });
    coordinator
        .join()
        .expect("coordinator panicked")
        .expect("rendezvous failed");

    let (inject, complete) = results
        .iter()
        .find_map(|r| match r {
            RankResult::Driver(d) => Some((d.inject_t.clone(), d.complete_t.clone())),
            RankResult::Task { .. } => None,
        })
        .expect("the driver rank reports");
    let n = cpis.len();
    let mut out = par.assemble(n, results, sink.take(), &pools);
    let (lo, hi) = (w.warmup_cpis, n - COOLDOWN_CPIS);
    assert!(hi > lo + 1, "batch too short to measure");
    let verified = w.geometry.verified_cpis().min(n);
    let misses = out.timings.pool_cx.misses + out.timings.pool_real.misses;
    Batch {
        marks,
        setup_s: (marks[1] - marks[0]) + complete[lo - 1] - inject[0],
        throughput: (hi - lo - 1) as f64 / (complete[hi - 1] - complete[lo]),
        latency_ms: (lo..hi).map(|i| (complete[i] - inject[i]) * 1e3).collect(),
        cpu_s,
        digests: out.detections[..verified]
            .iter_mut()
            .map(|d| digest(d))
            .collect(),
        lost_cpis: out.detections.len().abs_diff(n) as u64
            + out.timings.health.dropped_cpis
            + out.timings.health.degraded_cpis,
        pool_misses_after_warm: misses.saturating_sub(misses_warm),
        pool_hits: out.timings.pool_cx.hits + out.timings.pool_real.hits,
        timings: out.timings,
        trace: out.trace,
    }
}
