//! Seeded chaos campaigns over the supervised serve runtime.
//!
//! One campaign = one deterministic fault schedule driven against a
//! live multi-stream server, gated on invariants rather than outputs:
//!
//! * **engine kill** — a scheduled rank panic poisons the world mid
//!   epoch; the session must recover and the campaign must complete
//!   (no deadlock, bounded wall clock);
//! * **rank shift** — once the recovery world is serving, an easy-weight
//!   degradation event shifts a rank toward that task at the next slot
//!   boundary, in the same session;
//! * **stream churn** — one stream disconnects mid-run and reconnects
//!   under a fresh id while slots are in flight;
//! * **corrupt tenant** — one stream submits NaN cubes; the admission
//!   screen must reject them and the quarantine state machine must
//!   fire, while healthy tenants keep completing;
//! * **in-transit corruption + stall** — a masked-tag corrupt rule and
//!   a short rank stall exercise degraded-completion attribution and
//!   the schedule's tolerance for jitter.
//!
//! The gates: at least one recovery, quarantine fired, lost CPIs within
//! the checkpoint bound (`checkpoint_every * max_group`), every healthy
//! stream's CPIs all completed, and healthy p99 within the (structural,
//! generous) degradation budget. `stapctl chaos` runs a campaign and
//! `--expect` asserts on the emitted JSON; check.sh stage 11 and CI
//! gate on it.

use crate::server::{ServerConfig, StapServer};
use crate::SupervisorConfig;
use stap_core::params::StapParams;
use stap_math::Cx;
use stap_mp::{FaultAction, FaultPlan, FaultRule, TagPattern};
use stap_pipeline::msg::Edge;
use stap_pipeline::{assignment, NodeAssignment, ParallelStap};
use stap_radar::Scenario;
use stap_util::Json;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Campaign knobs. Everything is derived from `seed` — two runs with
/// the same config inject the same faults at the same slots.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Master seed for fault schedule and scenario data.
    pub seed: u64,
    /// CPIs each healthy stream submits.
    pub cpis_per_stream: usize,
    /// Supervisor checkpoint cadence (slots); also sets the scheduled
    /// panic slot (`checkpoint_every - 1`, the last slot before the
    /// first checkpoint would have banked) and the lost-CPI bound.
    pub checkpoint_every: u64,
    /// Healthy-stream p99 degradation budget in milliseconds. This is a
    /// structural bound (catches stalls and recovery storms), not a
    /// performance target — default is deliberately generous.
    pub p99_budget_ms: f64,
    /// Whole-campaign watchdog; exceeding it reports a deadlock.
    pub deadline_s: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        // Both wall-clock gates scale with STAP_CI_SLACK (1 unless CI
        // sets it): shared runners can be arbitrarily slow, and a slack
        // multiplier on the budget beats a flaky deadline.
        ChaosConfig {
            seed: 7,
            cpis_per_stream: 10,
            checkpoint_every: 3,
            p99_budget_ms: 30_000.0 * stap_util::ci_slack(),
            deadline_s: stap_util::slacked_secs(120),
        }
    }
}

/// Campaign outcome: the invariant gates plus the numbers behind them.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// True when the campaign overran its watchdog deadline.
    pub deadlock: bool,
    /// Supervisor recoveries performed.
    pub recovered: u64,
    /// True when at least one quarantine fired.
    pub quarantine_fired: bool,
    /// Quarantine firings (re-offenses under backoff count again).
    pub quarantine_events: u64,
    /// Sub-CPIs lost across recoveries.
    pub lost_cpis: u64,
    /// The configured recovery bound (`checkpoint_every * max_group`).
    pub lost_bound: u64,
    /// Worst p99 among the never-faulted streams, milliseconds.
    pub healthy_p99_ms: f64,
    /// The configured budget it is gated against.
    pub p99_budget_ms: f64,
    /// CPIs completed across all streams.
    pub cpis: u64,
    /// CPIs that completed degraded (in-transit corruption screened at
    /// the detector).
    pub degraded_cpis: u64,
    /// True when the churned tenant's reconnect (under a fresh id)
    /// completed CPIs.
    pub reconnect_ok: bool,
    /// Checkpoints banked by the session.
    pub checkpoints: u64,
    /// Rank shifts the session applied.
    pub rebalances: u64,
    /// Every gate that failed, human-readable; empty = campaign passed.
    pub failures: Vec<String>,
    /// All gates held.
    pub passed: bool,
}

impl ChaosReport {
    /// Flat JSON for `stapctl chaos --expect` and the CI artifact.
    /// Boolean gates render as 0/1 so `--expect quarantined=1` works.
    pub fn to_json(&self) -> Json {
        let b = |v: bool| Json::Num(if v { 1.0 } else { 0.0 });
        Json::obj([
            ("deadlock", b(self.deadlock)),
            ("recovered", Json::Num(self.recovered as f64)),
            ("quarantined", b(self.quarantine_fired)),
            (
                "quarantine_events",
                Json::Num(self.quarantine_events as f64),
            ),
            ("lost_cpis", Json::Num(self.lost_cpis as f64)),
            ("lost_bound", Json::Num(self.lost_bound as f64)),
            ("healthy_p99_ms", Json::Num(self.healthy_p99_ms)),
            ("p99_budget_ms", Json::Num(self.p99_budget_ms)),
            ("cpis", Json::Num(self.cpis as f64)),
            ("degraded_cpis", Json::Num(self.degraded_cpis as f64)),
            ("reconnect_ok", b(self.reconnect_ok)),
            ("checkpoints", Json::Num(self.checkpoints as f64)),
            ("rebalanced", Json::Num(self.rebalances as f64)),
            (
                "failures",
                Json::arr(self.failures.iter().map(|f| Json::Str(f.clone()))),
            ),
            ("passed", b(self.passed)),
        ])
    }
}

/// Stream ids used by the campaign.
const HEALTHY: [u16; 2] = [0, 2];
const CHURN: u16 = 1;
const CHURN_REBORN: u16 = 4;
const CORRUPT: u16 = 3;
const MAX_GROUP: usize = 2;

/// Runs one seeded campaign on the reduced geometry and gates the
/// result. Never panics on gate failure — failures are reported in the
/// returned [`ChaosReport`] so the CLI can render them and exit
/// non-zero.
pub fn run_chaos(cfg: ChaosConfig) -> ChaosReport {
    let (tx, rx) = mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        let _ = tx.send(campaign(cfg));
    });
    match rx.recv_timeout(Duration::from_secs(cfg.deadline_s.max(1))) {
        Ok(report) => {
            let _ = watchdog.join();
            report
        }
        Err(_) => {
            // The campaign is wedged; leak its threads (the process is
            // about to exit) and report the deadlock — this IS the
            // no-deadlock gate failing.
            ChaosReport {
                deadlock: true,
                p99_budget_ms: cfg.p99_budget_ms,
                lost_bound: cfg.checkpoint_every * MAX_GROUP as u64,
                failures: vec![format!(
                    "deadlock: campaign exceeded the {} s watchdog",
                    cfg.deadline_s
                )],
                ..ChaosReport::default()
            }
        }
    }
}

fn campaign(cfg: ChaosConfig) -> ChaosReport {
    let checkpoint_every = cfg.checkpoint_every.max(2);
    let assign = NodeAssignment::tiny();
    // Kill a pulse-compression rank on the last slot before the first
    // checkpoint would bank — maximizing the replayed trajectory.
    let pc_rank = assign.rank_range(assignment::PC).start;
    let panic_slot = checkpoint_every - 1;
    let plan0 = FaultPlan::seeded(cfg.seed)
        .panic_rank(pc_rank, panic_slot)
        // A short stall on a Doppler rank adds jitter ahead of the kill.
        .stall_rank(0, 0, Duration::from_millis(15))
        // One in-transit corruption on the pc->cfar power edge: the
        // detector's screen must flag the owning sub-CPI degraded.
        .rule(FaultRule {
            src: None,
            dst: None,
            tag: TagPattern::masked(0xFFFFu64 << 48, (Edge::PcToCfar as u64) << 48),
            action: FaultAction::Corrupt,
            max_hits: 1,
        });

    let params = StapParams::reduced();
    let scenario = Scenario::reduced(cfg.seed);
    let resident = ParallelStap::for_scenario(params, assign, &scenario);
    let (tap_tx, tap_rx) = mpsc::channel();
    let server = Arc::new(StapServer::start_with_tap(
        resident,
        ServerConfig {
            window: 2,
            max_group: MAX_GROUP,
            queue_depth: 4,
            streams_hint: 5,
            warmup_cpis: 0,
            supervised: Some(SupervisorConfig {
                checkpoint_every,
                max_recoveries: 3,
                plans: vec![plan0],
            }),
            screen: true,
            quarantine_streak: 2,
            probation_ms: 40,
            rebalance: true,
        },
        Some(tap_tx),
    ));

    let mut producers = Vec::new();

    // Healthy tenants: full load, retrying through quarantine windows
    // (they should never see one) and queue pressure.
    for &stream in &HEALTHY {
        let srv = server.clone();
        let n = cfg.cpis_per_stream;
        let seed = cfg.seed + stream as u64;
        producers.push(std::thread::spawn(move || {
            drive_stream(&srv, stream, seed, n);
        }));
    }

    // Churn tenant: half its CPIs, a mid-flight disconnect (slots still
    // in the pipeline), then — once the rank shift has been asked for —
    // a reconnect under a fresh id.
    let (shift_asked_tx, shift_asked_rx) = mpsc::channel::<()>();
    {
        let srv = server.clone();
        let n = cfg.cpis_per_stream;
        let seed = cfg.seed + CHURN as u64;
        producers.push(std::thread::spawn(move || {
            drive_stream(&srv, CHURN, seed, n / 2);
            srv.disconnect(CHURN);
            std::thread::sleep(Duration::from_millis(20));
            let _ = shift_asked_rx.recv();
            drive_stream(&srv, CHURN_REBORN, seed + 100, n.div_ceil(2));
        }));
    }

    // Corrupt tenant: NaN cubes until quarantine has demonstrably
    // fired (bounded attempts — the gate reports if it never does).
    {
        let srv = server.clone();
        producers.push(std::thread::spawn(move || {
            srv.register(CORRUPT);
            let mut quarantined = 0u32;
            for _ in 0..16 {
                let cube = srv.take_cube(|_, _, _| Cx::new(f64::NAN, 0.0));
                match srv.submit(CORRUPT, cube) {
                    Err(crate::Reject::Quarantined { .. }) => quarantined += 1,
                    Err(crate::Reject::Closed) => break,
                    _ => {}
                }
                if quarantined >= 2 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }));
    }

    // The rank shift, after the first recovery (a trigger in launch 0
    // would end it before its kill): launch 0 delivers at most the
    // `panic_slot` slots before the kill, so one completion more came
    // from a recovery world. The reconnect is pulled after the trigger.
    let recovered_after = panic_slot as usize * MAX_GROUP + 1;
    if cfg.cpis_per_stream * HEALTHY.len() >= recovered_after
        && tap_rx.iter().take(recovered_after).count() == recovered_after
    {
        server.degrade(assignment::EASY_WT);
    }
    drop(tap_rx);
    let _ = shift_asked_tx.send(());

    for p in producers {
        p.join().expect("chaos producer panicked");
    }
    let server = Arc::into_inner(server).expect("producers released the server");
    let summary = match server.shutdown() {
        Ok(s) => s,
        Err(e) => {
            return ChaosReport {
                p99_budget_ms: cfg.p99_budget_ms,
                lost_bound: checkpoint_every * MAX_GROUP as u64,
                failures: vec![format!("engine unrecoverable: {e}")],
                ..ChaosReport::default()
            }
        }
    };

    let lost_bound = checkpoint_every * MAX_GROUP as u64;
    let healthy_p99_ms = HEALTHY
        .iter()
        .filter_map(|&id| summary.streams.iter().find(|s| s.stream == id))
        .map(|s| s.latency.p99_ms)
        .fold(0.0_f64, f64::max);
    let reconnect_ok = summary
        .streams
        .iter()
        .any(|s| s.stream == CHURN_REBORN && s.cpis > 0);

    let mut failures = Vec::new();
    if summary.recoveries < 1 {
        failures.push("no recovery: the scheduled panic did not trigger one".into());
    }
    if summary.quarantines < 1 {
        failures.push("quarantine never fired for the corrupt stream".into());
    }
    if summary.lost_cpis > lost_bound {
        failures.push(format!(
            "lost {} CPIs, recovery bound is {lost_bound}",
            summary.lost_cpis
        ));
    }
    if healthy_p99_ms > cfg.p99_budget_ms {
        failures.push(format!(
            "healthy p99 {healthy_p99_ms:.1} ms over the {:.1} ms budget",
            cfg.p99_budget_ms
        ));
    }
    for &id in &HEALTHY {
        let got = summary
            .streams
            .iter()
            .find(|s| s.stream == id)
            .map_or(0, |s| s.cpis);
        if got != cfg.cpis_per_stream as u64 {
            failures.push(format!(
                "healthy stream {id} completed {got}/{} CPIs",
                cfg.cpis_per_stream
            ));
        }
    }
    if !reconnect_ok {
        failures.push("churned tenant's reconnect completed no CPIs".into());
    }

    ChaosReport {
        deadlock: false,
        recovered: summary.recoveries,
        quarantine_fired: summary.quarantines > 0,
        quarantine_events: summary.quarantines,
        lost_cpis: summary.lost_cpis,
        lost_bound,
        healthy_p99_ms,
        p99_budget_ms: cfg.p99_budget_ms,
        cpis: summary.cpis,
        degraded_cpis: summary.resident.health.degraded_cpis,
        reconnect_ok,
        checkpoints: summary.checkpoints,
        rebalances: summary.rebalances,
        passed: failures.is_empty(),
        failures,
    }
}

/// Submits `n` scenario CPIs on `stream`, riding out transient rejects.
fn drive_stream(srv: &StapServer, stream: u16, seed: u64, n: usize) {
    srv.register(stream);
    let cubes: Vec<_> = Scenario::reduced(seed)
        .stream(n)
        .map(|(_, _, c)| c)
        .collect();
    'cpis: for c in &cubes {
        for _ in 0..64 {
            srv.wait_ready(stream);
            let cube = srv.take_cube_from(c);
            match srv.submit(stream, cube) {
                Ok(_) => continue 'cpis,
                Err(crate::Reject::Closed) => return,
                Err(crate::Reject::Quarantined { retry_ms, .. }) => {
                    std::thread::sleep(Duration::from_millis(retry_ms.clamp(1, 50)));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        return; // give up on a stream that cannot get a CPI admitted
    }
}
