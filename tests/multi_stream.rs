//! Multi-stream ingestion: end-to-end properties of the serve front end.
//!
//! The headline property: N concurrent streams interleaved through the
//! server — admission, cross-stream slot batching, the resident
//! pipeline — produce, per stream, detections *bit-identical* to
//! running that stream alone through the batch pipeline. Cross-stream
//! batching is a pure throughput optimization; it must never change a
//! single detection.

use stap::pipeline::assignment::Partitions;
use stap::pipeline::msg::{EDGE_NAMES, NUM_EDGES};
use stap::pipeline::schedule::Schedule;
use stap::pipeline::{NodeAssignment, ParallelStap};
use stap::radar::Scenario;
use stap::serve::{LoadgenConfig, Reject, ServerConfig, StapServer};
use stap_core::params::StapParams;
use stap_core::Detection;

fn reduced_server(streams_hint: usize, cfg: ServerConfig) -> (StapServer, Scenario) {
    let params = StapParams::reduced();
    let scenario = Scenario::reduced(1);
    let res = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenario);
    let cfg = ServerConfig {
        streams_hint,
        ..cfg
    };
    (StapServer::start(res, cfg), scenario)
}

#[test]
fn interleaved_streams_are_bit_identical_to_serial_runs() {
    let params = StapParams::reduced();
    let seeds = [3u64, 17u64, 29u64, 31u64];
    let per_stream = 4usize;
    let scenarios: Vec<Scenario> = seeds.iter().map(|&s| Scenario::reduced(s)).collect();
    let streams: Vec<Vec<stap::cube::CCube>> = scenarios
        .iter()
        .map(|sc| sc.stream(per_stream).map(|(_, _, c)| c).collect())
        .collect();

    // Serial per-stream baselines through the batch pipeline.
    let mut want: Vec<Vec<Vec<Detection>>> = Vec::new();
    for (sc, cubes) in scenarios.iter().zip(&streams) {
        let par = ParallelStap::for_scenario(params.clone(), NodeAssignment::tiny(), sc);
        want.push(par.run(cubes.clone()).detections);
    }

    // The same CPIs, interleaved through the server.
    let res = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenarios[0]);
    let (tap_tx, tap_rx) = std::sync::mpsc::channel();
    let server = StapServer::start_with_tap(
        res,
        ServerConfig {
            max_group: seeds.len(),
            streams_hint: seeds.len(),
            ..ServerConfig::default()
        },
        Some(tap_tx),
    );
    for s in 0..seeds.len() {
        server.register(s as u16);
    }
    // Round-robin submission: CPI i of every stream before CPI i+1 of
    // any, so slots genuinely mix streams.
    for i in 0..per_stream {
        for (s, cubes) in streams.iter().enumerate() {
            let c = &cubes[i];
            let cube = server.take_cube(|a, b, k| c[(a, b, k)]);
            let scpi = server.submit(s as u16, cube).expect("admission");
            assert_eq!(scpi as usize, i, "per-stream sequencing");
        }
    }
    let summary = server.shutdown().expect("serve session");
    assert_eq!(summary.cpis as usize, seeds.len() * per_stream);
    assert!(
        summary.slots < summary.cpis,
        "cross-stream batching must coalesce: {} slots for {} CPIs",
        summary.slots,
        summary.cpis
    );
    assert_eq!(summary.rejected, 0);

    let mut got: Vec<Vec<Vec<Detection>>> = vec![vec![Vec::new(); per_stream]; seeds.len()];
    while let Ok(d) = tap_rx.recv() {
        assert!(d.latency >= 0.0);
        got[d.stream as usize][d.scpi as usize] = d.detections;
    }
    for (s, (g, w)) in got.iter().zip(&want).enumerate() {
        for (i, (gd, wd)) in g.iter().zip(w).enumerate() {
            assert_eq!(gd.len(), wd.len(), "stream {s} CPI {i}: detection count");
            for (a, b) in gd.iter().zip(wd) {
                assert_eq!((a.bin, a.beam, a.range), (b.bin, b.beam, b.range));
                assert_eq!(
                    a.power.to_bits(),
                    b.power.to_bits(),
                    "stream {s} CPI {i}: power must be bit-identical"
                );
            }
        }
    }

    // Per-stream accounting matches what actually completed.
    for st in &summary.streams {
        assert_eq!(st.cpis as usize, per_stream);
        assert!(st.latency.p99_ms >= st.latency.p50_ms);
        assert!(st.latency.max_ms >= st.latency.p99_ms);
    }
}

/// The window is the one bound on the mailboxes of the path that serves
/// traffic: several streams coalesced into groups over a `[2,1,2,1,1,2,1]`
/// assignment never buffer more than `window + 1` slots from each sender,
/// so no edge's depth passes `window + 1` times the most senders any of
/// its receivers has.
#[test]
fn grouped_streams_keep_each_edge_within_the_window() {
    const STREAMS: usize = 4;
    const PER_STREAM: usize = 6;
    const WINDOW: usize = 2;
    let (server, scenario) = reduced_server(
        STREAMS,
        ServerConfig {
            window: WINDOW,
            max_group: STREAMS,
            ..ServerConfig::default()
        },
    );
    let cubes: Vec<_> = scenario.stream(PER_STREAM).map(|(_, _, c)| c).collect();
    for s in 0..STREAMS {
        server.register(s as u16);
    }
    for c in &cubes {
        for s in 0..STREAMS {
            server
                .submit(s as u16, server.take_cube_from(c))
                .expect("admission");
        }
    }
    let summary = server.shutdown().expect("serve session");
    assert_eq!(summary.cpis as usize, STREAMS * PER_STREAM);
    assert!(summary.slots < summary.cpis, "no group coalesced");

    let (params, assign) = (StapParams::reduced(), NodeAssignment::tiny());
    let schedule = Schedule::new(&params, &assign, Partitions::new(&params, &assign)).unwrap();
    let mut bound = [0u64; NUM_EDGES];
    for e in schedule.entries() {
        let senders = schedule.recvs(e.dst, e.edge).count() as u64;
        let b = &mut bound[e.edge as usize];
        *b = (*b).max((WINDOW as u64 + 1) * senders);
    }
    let depth = summary.resident.health.max_mailbox_depth;
    for (edge, (d, b)) in depth.iter().zip(bound).enumerate() {
        assert!(
            *d <= b,
            "{}: mailbox depth {d} over {b} (window {WINDOW})",
            EDGE_NAMES[edge]
        );
    }
}

#[test]
fn queue_full_rejects_beyond_high_water_mark() {
    let (server, scenario) = reduced_server(
        1,
        ServerConfig {
            queue_depth: 2,
            window: 1,
            max_group: 1,
            ..ServerConfig::default()
        },
    );
    server.register(0);
    let (_, _, c) = scenario.stream(1).next().unwrap();
    // Unregistered stream and bad shape bounce with their own reasons.
    let cube = server.take_cube(|i, j, k| c[(i, j, k)]);
    assert_eq!(server.submit(9, cube), Err(Reject::UnknownStream(9)));
    let shape = server.shape();
    let bad = stap::cube::CCube::zeros([1, shape[1], shape[2]]);
    assert!(matches!(
        server.submit(0, bad),
        Err(Reject::BadShape { .. })
    ));
    // Flood one stream: with depth 2, some submission in the first few
    // must bounce QueueFull (the pipeline can't drain instantly).
    let mut saw_full = false;
    for _ in 0..32 {
        let cube = server.take_cube(|i, j, k| c[(i, j, k)]);
        match server.submit(0, cube) {
            Ok(_) => {}
            Err(Reject::QueueFull {
                stream: 0,
                depth: 2,
            }) => {
                saw_full = true;
                break;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(saw_full, "depth-2 stream never hit its high-water mark");
    let summary = server.shutdown().expect("serve session");
    assert!(summary.rejected >= 3);
}

#[test]
fn disconnect_mid_stream_purges_undispatched_cpis() {
    // Tiny window + group so queued CPIs sit in admission while the
    // pipeline is busy, then vanish when the stream disconnects.
    let (server, scenario) = reduced_server(
        2,
        ServerConfig {
            queue_depth: 16,
            window: 1,
            max_group: 1,
            ..ServerConfig::default()
        },
    );
    server.register(0);
    server.register(1);
    let cubes: Vec<_> = scenario.stream(6).map(|(_, _, c)| c).collect();
    for c in &cubes {
        let cube = server.take_cube(|i, j, k| c[(i, j, k)]);
        server.submit(0, cube).expect("stream 0 admission");
        let cube = server.take_cube(|i, j, k| c[(i, j, k)]);
        server.submit(1, cube).expect("stream 1 admission");
    }
    let purged = server.disconnect(0);
    // Disconnected stream is gone from admission immediately.
    let cube = server.take_cube(|i, j, k| cubes[0][(i, j, k)]);
    assert_eq!(server.submit(0, cube), Err(Reject::UnknownStream(0)));
    let summary = server.shutdown().expect("serve session");
    assert_eq!(summary.purged as usize, purged);
    // Stream 1 is untouched; stream 0 completed exactly the CPIs that
    // were already past admission when it disconnected.
    let s1 = summary.streams.iter().find(|s| s.stream == 1).unwrap();
    assert_eq!(s1.cpis as usize, cubes.len());
    let s0_done = summary
        .streams
        .iter()
        .find(|s| s.stream == 0)
        .map_or(0, |s| s.cpis as usize);
    assert_eq!(s0_done + purged, cubes.len());
    assert!(purged > 0, "nothing was pending at disconnect");
}

#[test]
fn loadgen_smoke_reports_backpressure_and_slo() {
    let report = stap::serve::run_loadgen(
        || {
            let params = StapParams::reduced();
            let scenario = Scenario::reduced(5);
            let res = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenario);
            StapServer::start(
                res,
                ServerConfig {
                    queue_depth: 2,
                    window: 2,
                    max_group: 2,
                    streams_hint: 2,
                    ..ServerConfig::default()
                },
            )
        },
        LoadgenConfig {
            streams: 2,
            cpis_per_stream: 5,
            seed: 5,
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen");
    let s = &report.summary;
    assert_eq!(s.cpis, 10);
    assert_eq!(s.streams.len(), 2);
    assert!(s.cpis_per_sec > 0.0);
    assert!(s.aggregate.p99_ms >= s.aggregate.p50_ms);
    assert!(!s.resident.health.any(), "loadgen run must be fault-free");
    // Happy path: backpressure is absorbed by wait_ready, so no
    // submission is ever rejected and no CPI abandoned.
    assert_eq!(report.abandoned_cpis, 0);
    assert_eq!(s.quarantines, 0);
    for h in &s.stream_health {
        assert_eq!(h.rejects.total(), 0, "stream {} saw rejects", h.stream);
    }
}
