//! Supervised serve runtime: checkpoint/restore recovery properties.
//!
//! The headline property: a serve session whose engine is killed by a
//! scheduled rank panic, recovered from the last checkpoint and
//! replayed, produces — per stream, per CPI — detections *bit-identical*
//! to an unfaulted serial baseline, modulo only the explicitly-reported
//! lost CPIs (zero when no stream disconnects). Recovery is not allowed
//! to be approximately right.

use stap::pipeline::{assignment, NodeAssignment, ParallelStap};
use stap::radar::Scenario;
use stap::serve::{Reject, ServerConfig, StapServer, SupervisorConfig};
use stap_core::params::StapParams;
use stap_core::Detection;

fn kill_plan(assign: &NodeAssignment, slot: u64, seed: u64) -> stap_mp::FaultPlan {
    // Kill a pulse-compression rank: it is downstream of every weight
    // FIFO, so the replay must rebuild the full temporal dependency
    // chain to stay bit-identical.
    stap_mp::FaultPlan::seeded(seed).panic_rank(assign.rank_range(assignment::PC).start, slot)
}

/// Round-robin submits `per_stream` CPIs for each stream and returns
/// the tap-collected detections indexed `[stream][scpi]`.
fn run_streams(
    server: StapServer,
    tap_rx: std::sync::mpsc::Receiver<stap::pipeline::CpiDone>,
    streams: &[Vec<stap::cube::CCube>],
) -> (stap::serve::ServeSummary, Vec<Vec<Vec<Detection>>>) {
    let per_stream = streams[0].len();
    for s in 0..streams.len() {
        server.register(s as u16);
    }
    for i in 0..per_stream {
        for (s, cubes) in streams.iter().enumerate() {
            loop {
                server.wait_ready(s as u16);
                let cube = server.take_cube_from(&cubes[i]);
                match server.submit(s as u16, cube) {
                    Ok(scpi) => {
                        assert_eq!(scpi as usize, i, "per-stream sequencing");
                        break;
                    }
                    Err(Reject::QueueFull { .. }) => continue,
                    Err(e) => panic!("unexpected rejection: {e}"),
                }
            }
        }
    }
    let summary = server.shutdown().expect("supervised serve session");
    let mut got = vec![vec![Vec::new(); per_stream]; streams.len()];
    while let Ok(d) = tap_rx.recv() {
        got[d.stream as usize][d.scpi as usize] = d.detections;
    }
    (summary, got)
}

#[test]
fn kill_and_restore_is_bit_identical_to_an_unfaulted_run() {
    let params = StapParams::reduced();
    let seeds = [11u64, 23u64];
    let per_stream = 8usize;
    let scenarios: Vec<Scenario> = seeds.iter().map(|&s| Scenario::reduced(s)).collect();
    let streams: Vec<Vec<stap::cube::CCube>> = scenarios
        .iter()
        .map(|sc| sc.stream(per_stream).map(|(_, _, c)| c).collect())
        .collect();

    // Unfaulted serial baselines through the batch pipeline.
    let mut want: Vec<Vec<Vec<Detection>>> = Vec::new();
    for (sc, cubes) in scenarios.iter().zip(&streams) {
        let par = ParallelStap::for_scenario(params.clone(), NodeAssignment::tiny(), sc);
        want.push(par.run(cubes.clone()).detections);
    }

    // The same CPIs through a supervised server whose first world is
    // killed at slot 2 — before the first checkpoint (cadence 3), so
    // recovery replays the whole trajectory from genesis state.
    let assign = NodeAssignment::tiny();
    let res = ParallelStap::for_scenario(params, assign, &scenarios[0]);
    let (tap_tx, tap_rx) = std::sync::mpsc::channel();
    let server = StapServer::start_with_tap(
        res,
        ServerConfig {
            window: 2,
            max_group: 2,
            queue_depth: 4,
            streams_hint: seeds.len(),
            supervised: Some(SupervisorConfig {
                checkpoint_every: 3,
                max_recoveries: 2,
                plans: vec![kill_plan(&assign, 2, 11)],
            }),
            ..ServerConfig::default()
        },
        Some(tap_tx),
    );
    let (summary, got) = run_streams(server, tap_rx, &streams);

    assert_eq!(summary.recoveries, 1, "the scheduled kill must recover");
    assert_eq!(summary.lost_cpis, 0, "no stream left: nothing may be lost");
    assert_eq!(summary.cpis as usize, seeds.len() * per_stream);
    assert!(summary.checkpoints >= 1);
    assert_eq!(
        summary.recovery_log.len(),
        1,
        "recovery log mirrors the count"
    );
    assert!(
        summary.recovery_log[0].error.contains("fault injection"),
        "recovery must attribute the injected panic, got: {}",
        summary.recovery_log[0].error
    );

    for (s, (g, w)) in got.iter().zip(&want).enumerate() {
        for (i, (gd, wd)) in g.iter().zip(w).enumerate() {
            assert_eq!(gd.len(), wd.len(), "stream {s} CPI {i}: detection count");
            for (a, b) in gd.iter().zip(wd) {
                assert_eq!((a.bin, a.beam, a.range), (b.bin, b.beam, b.range));
                assert_eq!(
                    a.power.to_bits(),
                    b.power.to_bits(),
                    "stream {s} CPI {i}: power must survive recovery bit-identically"
                );
            }
        }
    }

    // Health ledger: every completion clean, nothing quarantined.
    for h in &summary.stream_health {
        assert_eq!(h.ok as usize, per_stream);
        assert_eq!(h.dropped, 0);
        assert_eq!(h.quarantines, 0);
    }
}

/// A fault-free supervised session is pure overhead accounting: same
/// results, zero recoveries, and checkpoints at the configured cadence.
#[test]
fn clean_supervised_run_checkpoints_and_loses_nothing() {
    let params = StapParams::reduced();
    let sc = Scenario::reduced(3);
    let cubes: Vec<_> = sc.stream(7).map(|(_, _, c)| c).collect();
    let res = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &sc);
    let server = StapServer::start(
        res,
        ServerConfig {
            window: 2,
            max_group: 1,
            supervised: Some(SupervisorConfig {
                checkpoint_every: 2,
                ..SupervisorConfig::default()
            }),
            ..ServerConfig::default()
        },
    );
    server.register(0);
    for c in &cubes {
        server.wait_ready(0);
        let cube = server.take_cube_from(c);
        server.submit(0, cube).expect("admission");
    }
    let s = server.shutdown().unwrap();
    assert_eq!(s.cpis, 7);
    assert_eq!(s.recoveries, 0);
    assert_eq!(s.lost_cpis, 0);
    // 7 slots at cadence 2 → at least 3 full checkpoints plus the
    // final drain.
    assert!(s.checkpoints >= 3, "got {} checkpoints", s.checkpoints);
    assert_eq!(s.stream_health.len(), 1);
    assert_eq!(s.stream_health[0].ok, 7);

    // Two streams four deep: the retained copies are reserved on top of
    // the raw cubes admission and the window hold, so a clean session
    // never misses the pool.
    let cubes: Vec<_> = sc.stream(24).map(|(_, _, c)| c).collect();
    let res = ParallelStap::for_scenario(StapParams::reduced(), NodeAssignment::tiny(), &sc);
    let (tap_tx, tap_rx) = std::sync::mpsc::channel();
    let server = StapServer::start_with_tap(
        res,
        ServerConfig {
            window: 1,
            max_group: 1,
            queue_depth: 4,
            streams_hint: 2,
            supervised: Some(SupervisorConfig {
                checkpoint_every: 8,
                ..SupervisorConfig::default()
            }),
            ..ServerConfig::default()
        },
        Some(tap_tx),
    );
    let (s, _) = run_streams(server, tap_rx, &[cubes.clone(), cubes]);
    assert_eq!((s.cpis, s.recoveries, s.lost_cpis), (48, 0, 0));
    assert_eq!(s.resident.pool_cx.misses, 0, "{:?}", s.resident.pool_cx);
}

/// A stream leaving mid-flight drains as `Dropped` in its health row:
/// in-pipeline CPIs complete without a consumer, queued ones are
/// purged, and the session never hangs.
#[test]
fn disconnect_mid_flight_drains_as_dropped() {
    let params = StapParams::reduced();
    let sc = Scenario::reduced(13);
    let cubes: Vec<_> = sc.stream(6).map(|(_, _, c)| c).collect();
    let res = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &sc);
    let server = StapServer::start(
        res,
        ServerConfig {
            queue_depth: 16,
            window: 1,
            max_group: 1,
            streams_hint: 2,
            ..ServerConfig::default()
        },
    );
    server.register(0);
    server.register(1);
    for c in &cubes {
        let cube = server.take_cube_from(c);
        server.submit(0, cube).expect("stream 0 admission");
        let cube = server.take_cube_from(c);
        server.submit(1, cube).expect("stream 1 admission");
    }
    let purged = server.disconnect(0);
    let summary = server.shutdown().expect("serve session");

    let h0 = summary
        .stream_health
        .iter()
        .find(|h| h.stream == 0)
        .expect("health survives disconnect");
    // Every stream-0 CPI is accounted for exactly once: completed clean
    // before the disconnect, or dropped (purged from the queue, or
    // drained from the pipeline after the stream left).
    assert_eq!(h0.ok + h0.dropped, cubes.len() as u64);
    assert!(h0.dropped as usize >= purged, "purged CPIs count dropped");
    assert!(purged > 0, "nothing was pending at disconnect");
    let h1 = summary
        .stream_health
        .iter()
        .find(|h| h.stream == 1)
        .unwrap();
    assert_eq!(h1.ok, cubes.len() as u64, "stream 1 must be untouched");
    assert_eq!(h1.dropped, 0);
}

/// Non-finite submissions bounce at admission and repeat offenders are
/// quarantined with a typed reject carrying the retry hint.
#[test]
fn corrupt_stream_is_screened_and_quarantined() {
    let params = StapParams::reduced();
    let sc = Scenario::reduced(19);
    let cubes: Vec<_> = sc.stream(4).map(|(_, _, c)| c).collect();
    let res = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &sc);
    let server = StapServer::start(
        res,
        ServerConfig {
            screen: true,
            quarantine_streak: 2,
            probation_ms: 5_000,
            streams_hint: 2,
            ..ServerConfig::default()
        },
    );
    server.register(0);
    server.register(1);
    // Stream 1 feeds garbage: two non-finite rejects trip quarantine.
    for _ in 0..2 {
        let bad = server.take_cube(|_, _, _| stap::math::Cx::new(f64::NAN, 0.0));
        assert_eq!(server.submit(1, bad), Err(Reject::NonFinite(1)));
    }
    let bad = server.take_cube(|_, _, _| stap::math::Cx::new(f64::INFINITY, 0.0));
    match server.submit(1, bad) {
        Err(Reject::Quarantined {
            stream: 1,
            retry_ms,
        }) => {
            assert!(retry_ms > 0 && retry_ms <= 5_000)
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    // Healthy stream 0 is unaffected throughout.
    for c in &cubes {
        server.wait_ready(0);
        let cube = server.take_cube_from(c);
        server.submit(0, cube).expect("healthy stream admission");
    }
    let s = server.shutdown().unwrap();
    assert_eq!(s.quarantines, 1);
    let h1 = s.stream_health.iter().find(|h| h.stream == 1).unwrap();
    assert_eq!(h1.rejects.non_finite, 2);
    assert_eq!(h1.rejects.quarantined, 1);
    assert!(
        h1.quarantined_now,
        "probation window still open at shutdown"
    );
    let h0 = s.stream_health.iter().find(|h| h.stream == 0).unwrap();
    assert_eq!(h0.ok, cubes.len() as u64);
    assert_eq!(h0.rejects.total(), 0);
}

/// The full seeded chaos campaign — kill, churn, corrupt tenant,
/// in-transit corruption — passes its own gates.
#[test]
fn seeded_chaos_campaign_passes() {
    let report = stap::serve::run_chaos(stap::serve::ChaosConfig {
        seed: 7,
        cpis_per_stream: 8,
        ..stap::serve::ChaosConfig::default()
    });
    assert!(
        report.passed,
        "chaos campaign failed gates: {:?}",
        report.failures
    );
    assert!(!report.deadlock);
    assert!(report.recovered >= 1);
    assert!(report.quarantine_fired);
    assert!(report.lost_cpis <= report.lost_bound);
}
