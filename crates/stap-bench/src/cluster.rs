//! Multi-process cluster launcher for the pipelined STAP runtime.
//!
//! The in-process pipeline (`ParallelStap::try_run`, one world built by
//! the runner's `launch`) runs every rank as a thread over the channel
//! fabric. This module runs the *same* ranks
//! as separate OS processes over loopback TCP: the parent process owns
//! the rendezvous coordinator and the driver rank on threads, spawns one
//! child process per task rank (a hidden `stapctl _rank` re-exec), and
//! supervises them. A child that dies takes its world down at once: the
//! parent kills the other ranks, so the driver's comm sees every peer's
//! EOF, and aborts the rendezvous, so a death during wire-up fails the
//! launch instead of waiting out the wire-up timeout. This mirrors the
//! serve session's fail-detect-relaunch discipline (see
//! `stap_pipeline::session`; [`run_supervised`] is the cluster analogue
//! of its `max_recoveries` loop, restarting from scratch rather than
//! from a checkpoint).
//!
//! The entire pipeline code path is shared with the in-process runner:
//! children call [`stap::pipeline::ParallelStap::run_rank`] — the one
//! per-rank body every in-process rank of `try_run` and of a served
//! session runs — over a wire-backed `Comm` with the
//! bit-exact [`stap::pipeline::wire::msg_codec`]. That is what makes
//! transport parity a *testable* property instead of a hope: same
//! kernels, same matching, same fault rules, only the byte transport
//! differs.
//!
//! Everything a child needs to reconstruct its identical
//! [`ClusterConfig`] travels on argv. A child's stdout carries exactly
//! one report frame in the same binary codec as its messages
//! ([`stap::pipeline::wire::encode_report`]: its task report and comm
//! events); the parent reads it to the end and knows from the rank which
//! task and node it came from. Detections flow to the parent's driver
//! rank over the wire like any other edge.

use stap::cube::CCube;
use stap::mp::{
    abort_rendezvous, spawn_coordinator, Comm, RankTrace, TcpLink, TraceSink, TransportKind,
};
use stap::pipeline::assignment::Partitions;
use stap::pipeline::fault::nan_corruptor;
use stap::pipeline::msg::Msg;
use stap::pipeline::runner::RankResult;
use stap::pipeline::tasks::PipelinePools;
use stap::pipeline::wire::{decode_report, encode_report, msg_codec};
use stap::pipeline::{NodeAssignment, ParallelStap, PipelineOutput, RuntimePolicy};
use stap::radar::Scenario;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Deterministic fault campaign riding on a cluster run: the canonical
/// `stapctl faults` plan (one dropped Doppler->easyBF message, one
/// easy-weight stall of 2 s x `STAP_CI_SLACK`), reconstructed
/// identically in every rank process from these two indices.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// CPI whose Doppler->easyBF message is dropped.
    pub drop_cpi: usize,
    /// CPI at which the easy-weight rank stalls.
    pub stall_cpi: usize,
}

/// Everything needed to rebuild the identical pipeline in the parent
/// and in every child rank process. All fields are exactly
/// reconstructable from argv strings, so parent and children agree
/// bit-for-bit on scenario data, steering and fault plans.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// `Tcp` runs every rank as a process; `InProc` short-circuits to
    /// the thread runner.
    pub transport: TransportKind,
    /// Node counts per task.
    pub nodes: [usize; 7],
    /// CPIs to stream.
    pub cpis: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Use the canonical two-azimuth trace scenario
    /// (`transmit_beams = [-20, 20]`) instead of the scenario default.
    pub two_beam: bool,
    /// Record span traces (children ship theirs back in their reports).
    pub tracing: bool,
    /// Optional fault campaign (implies the fault-tolerant policy).
    pub faults: Option<FaultSpec>,
    /// The `stapctl` binary to re-exec for child ranks. Defaults to
    /// the current executable.
    pub exe: PathBuf,
    /// Extra environment for child rank processes only (test hooks like
    /// `STAP_TEST_ABORT_ONCE` ride here instead of mutating the parent
    /// process environment, which would race parallel tests).
    pub child_env: Vec<(String, String)>,
}

impl ClusterConfig {
    /// The canonical reduced config on `transport` (tiny assignment,
    /// two-azimuth revisit — the same configuration `stapctl trace`
    /// runs and the parity gate compares across transports).
    pub fn canonical(transport: TransportKind) -> ClusterConfig {
        ClusterConfig {
            transport,
            nodes: NodeAssignment::tiny().0,
            cpis: 6,
            seed: 42,
            two_beam: true,
            tracing: false,
            faults: None,
            exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("stapctl")),
            child_env: Vec::new(),
        }
    }
}

/// Builds the runner and input stream for `cfg` — the single source of
/// truth both the parent and every child rank process execute, so any
/// two processes with the same argv hold bit-identical configurations.
pub fn build_runner(cfg: &ClusterConfig) -> (ParallelStap, Vec<CCube>) {
    use stap::core::StapParams;
    use stap::mp::FaultPlan;
    use stap::pipeline::assignment::{DOPPLER, EASY_BF, EASY_WT};
    use stap::pipeline::msg::{tag, Edge};

    let params = StapParams::reduced();
    let mut scenario = Scenario::reduced(cfg.seed);
    if cfg.two_beam {
        scenario.transmit_beams = vec![-20.0, 20.0];
    }
    let assign = NodeAssignment(cfg.nodes);
    let mut runner = ParallelStap::for_scenario(params, assign, &scenario);
    if cfg.tracing {
        runner = runner.with_tracing();
    }
    if let Some(f) = cfg.faults {
        let easy_wt_rank = assign.rank_range(EASY_WT).start;
        let doppler0 = assign.rank_range(DOPPLER).start;
        let easy_bf_rank = assign.rank_range(EASY_BF).start;
        // The stall and both deadlines scale by `STAP_CI_SLACK` together
        // (rank children inherit it): the classification depends on
        // their ratios, not on their absolute lengths.
        let slack = stap_util::ci_slack();
        let plan = FaultPlan::seeded(cfg.seed)
            .stall_rank(
                easy_wt_rank,
                f.stall_cpi as u64,
                Duration::from_secs(2).mul_f64(slack),
            )
            .drop_message(
                doppler0,
                easy_bf_rank,
                tag(Edge::DopplerToEasyBf, f.drop_cpi),
            );
        runner = runner
            .with_policy(RuntimePolicy {
                fault_tolerant: true,
                edge_timeout: Duration::from_millis(200).mul_f64(slack),
                weight_grace: Duration::from_millis(50).mul_f64(slack),
            })
            .with_faults(plan);
    }
    let data: Vec<CCube> = scenario.stream(cfg.cpis).map(|(_, _, c)| c).collect();
    (runner, data)
}

fn child_args(cfg: &ClusterConfig, rank: usize, endpoint: &str) -> Vec<String> {
    let mut a = vec![
        "_rank".to_string(),
        "--rank".into(),
        rank.to_string(),
        "--endpoint".into(),
        endpoint.to_string(),
        "--nodes".into(),
        cfg.nodes.map(|n| n.to_string()).join(","),
        "--cpis".into(),
        cfg.cpis.to_string(),
        "--seed".into(),
        cfg.seed.to_string(),
    ];
    if cfg.two_beam {
        a.push("--two-beam".into());
    }
    if cfg.tracing {
        a.push("--trace".into());
    }
    if let Some(f) = cfg.faults {
        a.push("--fault-drop".into());
        a.push(f.drop_cpi.to_string());
        a.push("--fault-stall".into());
        a.push(f.stall_cpi.to_string());
    }
    a
}

/// Entry point for the hidden `stapctl _rank` subcommand: parses the
/// flags `child_args` built, runs exactly one task rank over TCP, and
/// writes its report frame to stdout.
pub fn child_main(flags: &HashMap<String, String>) -> Result<(), String> {
    let get = |k: &str| -> Result<&String, String> { flags.get(k).ok_or(format!("--{k} missing")) };
    let rank: usize = get("rank")?.parse().map_err(|e| format!("--rank: {e}"))?;
    let endpoint = get("endpoint")?.clone();
    let nodes: Vec<usize> = get("nodes")?
        .split(',')
        .map(|p| p.parse().map_err(|e| format!("--nodes: {e}")))
        .collect::<Result<_, String>>()?;
    let nodes: [usize; 7] = nodes
        .try_into()
        .map_err(|_| "--nodes needs 7 counts".to_string())?;
    let cfg = ClusterConfig {
        transport: TransportKind::Tcp,
        nodes,
        cpis: get("cpis")?.parse().map_err(|e| format!("--cpis: {e}"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        two_beam: flags.contains_key("two-beam"),
        tracing: flags.contains_key("trace"),
        faults: match (flags.get("fault-drop"), flags.get("fault-stall")) {
            (Some(d), Some(s)) => Some(FaultSpec {
                drop_cpi: d.parse().map_err(|e| format!("--fault-drop: {e}"))?,
                stall_cpi: s.parse().map_err(|e| format!("--fault-stall: {e}"))?,
            }),
            (None, None) => None,
            _ => return Err("--fault-drop and --fault-stall come together".into()),
        },
        exe: PathBuf::new(),
        child_env: Vec::new(),
    };

    // Test hook: `STAP_TEST_ABORT_ONCE=<rank>:<marker-path>` makes that
    // rank die on its first launch (writing the marker as the been-here
    // flag), so the supervised relaunch path is testable end to end.
    // The variable arrives via `ClusterConfig::child_env`, never the
    // parent's environment.
    if let Ok(spec) = std::env::var("STAP_TEST_ABORT_ONCE") {
        if let Some((r, marker)) = spec.split_once(':') {
            if r.parse() == Ok(rank) && !std::path::Path::new(marker).exists() {
                let _ = std::fs::write(marker, b"aborted");
                std::process::exit(101);
            }
        }
    }

    let (runner, cpis) = build_runner(&cfg);
    let sink = TraceSink::new();
    let (mut comm, epoch) = join_world(&runner, &endpoint, rank, &sink)?;
    let parts = Partitions::new(&runner.params, &runner.assign);
    let pools = PipelinePools::default();
    let result = runner.run_rank(&mut comm, &cpis, &parts, &pools, epoch);
    // Dropping the comm waves goodbye to every peer and flushes the
    // tracer into the sink — the trace must be harvested after.
    drop(comm);
    let RankResult::Task { report, .. } = result else {
        return Err(format!(
            "rank {rank} is the driver rank, which runs in the parent"
        ));
    };
    let events: Vec<_> = sink.take().into_iter().flat_map(|t| t.events).collect();
    let mut frame = Vec::new();
    encode_report(&report, &events, &mut frame);
    let mut out = std::io::stdout().lock();
    (out.write_all(&frame).and_then(|()| out.flush()))
        .map_err(|e| format!("rank {rank} report: {e}"))
}

/// Joins the TCP mesh at `endpoint` as `rank` and builds its comm with
/// the runner's fault plan and, when it traces, `sink` installed; the
/// epoch is `Some` exactly when it traces.
fn join_world(
    runner: &ParallelStap,
    endpoint: &str,
    rank: usize,
    sink: &TraceSink,
) -> Result<(Comm<Msg>, Option<Instant>), String> {
    let link = TcpLink::rendezvous(endpoint, rank, runner.assign.world_size())
        .map_err(|e| format!("rank {rank} rendezvous at {endpoint}: {e}"))?;
    let mut comm: Comm<Msg> = Comm::over_wire(Box::new(link), msg_codec());
    if let Some(plan) = runner.faults.clone() {
        comm.install_fault_plan(plan, Some(nan_corruptor()));
    }
    let epoch = runner.tracing.then(Instant::now);
    if let Some(e) = epoch {
        comm.install_tracing(e, sink, stap::pipeline::msg::wire_bytes);
    }
    Ok((comm, epoch))
}

/// Runs the configured pipeline as a process cluster and returns the
/// assembled output — or, for [`TransportKind::InProc`], delegates to
/// the thread runner so callers can sweep both transports through one
/// entry point.
pub fn run_cluster(cfg: &ClusterConfig) -> Result<PipelineOutput, String> {
    let (runner, cpis) = build_runner(cfg);
    if cfg.transport == TransportKind::InProc {
        return runner.try_run(cpis).map_err(|e| e.to_string());
    }
    runner.validate_input(&cpis).map_err(|e| e.to_string())?;
    let size = runner.assign.world_size();
    let driver_rank = size - 1;

    // The rendezvous coordinator serves this run's wire-up only and is
    // joined on every path out: it ends once every rank has its port
    // table, when a failed launch aborts it, or at its own deadline.
    let (endpoint, coordinator) =
        spawn_coordinator(size).map_err(|e| format!("rendezvous listener: {e}"))?;
    let kill_all = |children: &mut Vec<Option<Child>>| {
        for c in children.iter_mut().flatten() {
            let _ = c.kill();
        }
        for c in children.iter_mut() {
            if let Some(mut c) = c.take() {
                let _ = c.wait();
            }
        }
        abort_rendezvous(&endpoint);
    };

    // Children first (they block in rendezvous until everyone,
    // including the parent's driver rank, arrives). Each child's reader
    // and the driver report on one channel, so the supervisor below
    // sleeps until something happens.
    let (events, happened) = mpsc::channel();
    let mut children: Vec<Option<Child>> = Vec::with_capacity(driver_rank);
    let mut readers = Vec::with_capacity(driver_rank);
    let mut failure: Option<String> = None;
    for rank in 0..driver_rank {
        let spawned = Command::new(&cfg.exe)
            .args(child_args(cfg, rank, &endpoint))
            .envs(cfg.child_env.iter().map(|(k, v)| (k, v)))
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        let mut child = match spawned {
            Ok(c) => c,
            Err(e) => {
                failure = Some(format!("spawn rank {rank} ({}): {e}", cfg.exe.display()));
                break;
            }
        };
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let events = events.clone();
        readers.push(std::thread::spawn(move || {
            let mut report = Vec::new();
            let report = stdout.read_to_end(&mut report).map(|_| report);
            // After a failure the supervisor stops listening and the
            // report is dropped unread.
            let _ = events.send(Event::Report(rank, report));
        }));
        children.push(Some(child));
    }
    if let Some(why) = failure {
        kill_all(&mut children);
        let _ = coordinator.join();
        for r in readers {
            let _ = r.join();
        }
        return Err(why);
    }

    let sink = TraceSink::new();
    let parts = Partitions::new(&runner.params, &runner.assign);
    let pools = PipelinePools::default();
    let num_cpis = cpis.len();
    // The driver rank joins the wire and runs on a scoped thread (it
    // borrows the runner), so the scope's own thread is already
    // reaping children while the driver waits in the rendezvous.
    let mut reports: Vec<Vec<u8>> = vec![Vec::new(); driver_rank];
    let mut driver_result = None;
    std::thread::scope(|s| {
        s.spawn(|| {
            let run = || {
                let (mut comm, epoch) = join_world(&runner, &endpoint, driver_rank, &sink)?;
                let r = runner.run_rank(&mut comm, &cpis, &parts, &pools, epoch);
                drop(comm);
                Ok::<_, String>(r)
            };
            // A panic is the driver's result too: the supervisor hears of it.
            let _ = events.send(Event::Driver(Box::new(panic::catch_unwind(
                AssertUnwindSafe(run),
            ))));
        });

        // Supervision: sleep until a child's stdout closes (reap it, fail
        // fast on a dead rank) or the driver ends, and bound the whole
        // run with a slack-scaled watchdog (a hung wire must not hang CI).
        let deadline = Instant::now() + Duration::from_secs(stap_util::slacked_secs(120));
        let mut running = children.len();
        while failure.is_none() && (running > 0 || driver_result.is_none()) {
            let left = deadline.saturating_duration_since(Instant::now());
            failure = match happened.recv_timeout(left) {
                Ok(Event::Driver(result)) => {
                    driver_result = Some(*result);
                    None
                }
                Ok(Event::Report(rank, report)) => {
                    running -= 1;
                    let mut child = children[rank].take().expect("one report per child");
                    match (child.wait(), report) {
                        (Ok(status), Ok(report)) if status.success() => {
                            reports[rank] = report;
                            None
                        }
                        (Ok(status), Err(e)) if status.success() => {
                            Some(format!("rank {rank} report: {e}"))
                        }
                        (Ok(status), _) => {
                            Some(format!("rank {rank} process exited with {status}"))
                        }
                        (Err(e), _) => Some(format!("waiting on rank {rank}: {e}")),
                    }
                }
                Err(RecvTimeoutError::Timeout) => Some("cluster watchdog expired".to_string()),
                Err(RecvTimeoutError::Disconnected) => unreachable!("this thread holds a sender"),
            };
        }
        if failure.is_some() {
            // Take the rest of the world down with the failed rank: the
            // driver's comm sees every peer's EOF, and its rendezvous,
            // if it is still in one, fails with the coordinator's.
            kill_all(&mut children);
        }
    });
    // Joined for its thread, not its result: the rendezvous either
    // wired every rank or failed one of them, which reported it.
    let _ = coordinator.join();
    for r in readers {
        r.join().expect("a report reader does not panic");
    }
    if let Some(why) = failure {
        return Err(why);
    }
    let driver_result = match driver_result.expect("the supervisor waits for the driver") {
        Ok(r) => r?,
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "driver panicked".to_string());
            return Err(format!("driver rank failed: {msg}"));
        }
    };

    let mut results = Vec::with_capacity(size);
    let mut traces = Vec::new();
    for (rank, report) in reports.into_iter().enumerate() {
        let (result, trace) = child_result(&runner.assign, rank, &report)?;
        results.push(result);
        if runner.tracing {
            traces.push(trace);
        }
    }
    results.push(driver_result);
    traces.extend(sink.take());
    traces.sort_by_key(|t| t.rank);
    Ok(runner.assemble(num_cpis, results, traces, &pools))
}

/// What the cluster supervisor waits for.
enum Event {
    /// A child's stdout closed: its rank and the report read from it.
    Report(usize, std::io::Result<Vec<u8>>),
    /// The driver rank's thread ended, with its result or its panic.
    Driver(Box<std::thread::Result<Result<RankResult, String>>>),
}

/// The result and comm trace of task rank `rank` from its report frame;
/// a report that is empty, cut short or followed by more bytes is an
/// error naming the rank.
fn child_result(
    assign: &NodeAssignment,
    rank: usize,
    report: &[u8],
) -> Result<(RankResult, RankTrace), String> {
    let (task, node) = (assign.task_of_rank(rank)).expect("the parent spawns task ranks only");
    let (report, events) = decode_report(report).map_err(|e| format!("rank {rank} report: {e}"))?;
    let result = RankResult::Task { task, node, report };
    Ok((result, RankTrace { rank, events }))
}

/// [`run_cluster`] under relaunch supervision: a run that fails (a
/// killed rank process, a poisoned driver, a watchdog trip) is
/// relaunched from scratch up to `max_relaunches` times — the cluster
/// analogue of the serve supervisor's `max_recoveries` world-relaunch
/// loop. Returns the output and how many relaunches it took.
pub fn run_supervised(
    cfg: &ClusterConfig,
    max_relaunches: usize,
) -> Result<(PipelineOutput, usize), String> {
    let mut relaunches = 0;
    loop {
        match run_cluster(cfg) {
            Ok(out) => return Ok((out, relaunches)),
            Err(e) if relaunches < max_relaunches => {
                eprintln!("cluster run failed ({e}); relaunching ({relaunches} so far)");
                relaunches += 1;
            }
            Err(e) => return Err(format!("{e} (after {relaunches} relaunch(es))")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap::pipeline::runner::TaskReport;

    #[test]
    fn a_report_decodes_to_its_ranks_task_and_a_bad_one_names_the_rank() {
        let assign = NodeAssignment::tiny();
        let mut frame = Vec::new();
        encode_report(&TaskReport::default(), &[], &mut frame);
        let (result, trace) = child_result(&assign, 3, &frame).unwrap();
        let RankResult::Task { task, node, .. } = result else {
            panic!("a task rank's report is a task result");
        };
        assert_eq!(Some((task, node)), assign.task_of_rank(3));
        assert_eq!((trace.rank, trace.events.len()), (3, 0));
        let mut long = frame.clone();
        long.push(0);
        for bad in [&[][..], &frame[..frame.len() - 1], &long] {
            let e = child_result(&assign, 3, bad).unwrap_err();
            assert!(e.starts_with("rank 3 report: "), "{e}");
        }
    }
}
