//! Property-based tests over the parallel pipeline and redistribution
//! machinery: for arbitrary geometries and node assignments, structural
//! invariants must hold (in-tree harness; see `stap_util::check`).

use stap::core::{Detection, SequentialStap, StapParams};
use stap::cube::{block_ranges, AxisPartition, CCube, RedistPlan, SharedBufferPool};
use stap::math::Cx;
use stap::mp::{spawn_coordinator, Comm, FaultPlan, TcpLink};
use stap::pipeline::assignment::{Partitions, PC};
use stap::pipeline::msg::Msg;
use stap::pipeline::runner::RankResult;
use stap::pipeline::tasks::PipelinePools;
use stap::pipeline::wire::msg_codec;
use stap::pipeline::{
    ChannelFeed, CpiJob, NodeAssignment, ParallelStap, Rebalance, RebalancePolicy, Session,
    SupervisorConfig,
};
use stap::radar::Scenario;
use stap::sim::{simulate, SimConfig};
use stap_util::check::check;
use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Instant;

fn small_params(k: usize, j: usize, n: usize, n_hard: usize) -> StapParams {
    let mut p = StapParams::reduced();
    p.k_range = k;
    p.j_channels = j;
    p.n_pulses = n;
    p.n_hard = n_hard;
    p.range_segments = vec![0, k / 2, k];
    p.easy_samples_per_cpi = (k / 4).max(j);
    p.hard_samples = (k / 3).max(1);
    p.replica_len = (k / 8).max(1);
    p.cfar_window = 8;
    p
}

#[test]
fn block_ranges_partition_exactly() {
    check("block_ranges_partition_exactly", 32, |g| {
        let len = g.int(1, 500);
        let parts = g.int(1, 40);
        let rs = block_ranges(len, parts);
        assert_eq!(rs.len(), parts);
        let mut next = 0;
        for r in &rs {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, len);
        let min = rs.iter().map(|r| r.len()).min().unwrap();
        let max = rs.iter().map(|r| r.len()).max().unwrap();
        assert!(max - min <= 1);
    });
}

#[test]
fn redistribution_conserves_every_element() {
    check("redistribution_conserves_every_element", 32, |g| {
        let d0 = g.int(2, 10);
        let d1 = g.int(2, 6);
        let d2 = g.int(2, 10);
        let src_n = g.int(1, 5);
        let dst_n = g.int(1, 5);
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let perm = perms[g.int(0, 6)];
        let src_axis = g.int(0, 3);
        let dst_axis = g.int(0, 3);
        let shape = [d0, d1, d2];
        let dst_shape = [shape[perm[0]], shape[perm[1]], shape[perm[2]]];
        let plan = RedistPlan::new(
            shape,
            AxisPartition::block(src_axis, shape[src_axis], src_n),
            AxisPartition::block(dst_axis, dst_shape[dst_axis], dst_n),
            perm,
        );
        let total: usize = plan.blocks.iter().map(|b| b.elements).sum();
        assert_eq!(total, d0 * d1 * d2, "elements conserved");

        // Execute it in-memory and verify full reassembly.
        let global = CCube::from_fn(shape, |i, j, k| {
            Cx::new((i * 1000 + j * 50 + k) as f64, 0.0)
        });
        let mut assembled = CCube::zeros(dst_shape);
        for block in &plan.blocks {
            let mut r = [0..shape[0], 0..shape[1], 0..shape[2]];
            r[plan.src_part.axis] = plan.src_part.range_of(block.src);
            let local = global.extract(r[0].clone(), r[1].clone(), r[2].clone());
            let msg = plan.pack(block, &local);
            let own = plan.dst_part.range_of(block.dst);
            let mut offset = block.dst_offset;
            offset[plan.dst_part.axis] += own.start;
            assembled.place(offset, &msg);
        }
        assert!(assembled.max_abs_diff(&global.permute(perm)) == 0.0);
    });
}

#[test]
fn pooled_redistribution_is_byte_identical_to_plain_path() {
    check(
        "pooled_redistribution_is_byte_identical_to_plain_path",
        32,
        |g| {
            let d0 = g.int(2, 10);
            let d1 = g.int(2, 6);
            let d2 = g.int(2, 10);
            let src_n = g.int(1, 5);
            let dst_n = g.int(1, 5);
            let perms = [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ];
            let perm = perms[g.int(0, 6)];
            let src_axis = g.int(0, 3);
            let dst_axis = g.int(0, 3);
            let shape = [d0, d1, d2];
            let dst_shape = [shape[perm[0]], shape[perm[1]], shape[perm[2]]];
            let plan = RedistPlan::new(
                shape,
                AxisPartition::block(src_axis, shape[src_axis], src_n),
                AxisPartition::block(dst_axis, dst_shape[dst_axis], dst_n),
                perm,
            );
            let global = CCube::from_fn(shape, |i, j, k| {
                Cx::new(
                    (i * 977 + j * 53 + k) as f64 * 0.375,
                    (i + 7 * j + 31 * k) as f64 * -1.5,
                )
            });
            let pool: SharedBufferPool<Cx> = SharedBufferPool::new();
            let bits = |x: Cx| (x.re.to_bits(), x.im.to_bits());
            // Two rounds: the second draws its packing buffers entirely from
            // buffers recycled by the first, and must stay bit-identical.
            for round in 0..2 {
                let mut plain = CCube::zeros(dst_shape);
                let mut pooled = CCube::zeros(dst_shape);
                for block in &plan.blocks {
                    let mut r = [0..shape[0], 0..shape[1], 0..shape[2]];
                    r[plan.src_part.axis] = plan.src_part.range_of(block.src);
                    let local = global.extract(r[0].clone(), r[1].clone(), r[2].clone());
                    let msg_plain = plan.pack(block, &local);
                    let msg_pooled = plan.pack_with(block, &local, &pool);
                    assert_eq!(msg_plain.shape(), msg_pooled.shape());
                    assert!(
                        msg_plain
                            .as_slice()
                            .iter()
                            .zip(msg_pooled.as_slice())
                            .all(|(&a, &b)| bits(a) == bits(b)),
                        "pooled pack differs (round {round})"
                    );
                    let own = plan.dst_part.range_of(block.dst);
                    let mut offset = block.dst_offset;
                    offset[plan.dst_part.axis] += own.start;
                    // Same as unpack()/unpack_recycling() but the receivers
                    // here share one global cube instead of local slabs.
                    plain.place(offset, &msg_plain);
                    pooled.place(offset, &msg_pooled);
                    pool.recycle(msg_pooled);
                }
                assert!(
                    plain
                        .as_slice()
                        .iter()
                        .zip(pooled.as_slice())
                        .all(|(&a, &b)| bits(a) == bits(b)),
                    "assembled cubes differ (round {round})"
                );
                assert!(plain.max_abs_diff(&global.permute(perm)) == 0.0);
            }
            let s = pool.stats();
            assert!(
                s.hits >= plan.blocks.len() as u64,
                "round 2 must recycle round 1's buffers: {s:?}"
            );
        },
    );
}

#[test]
fn partitions_cover_all_work_for_any_assignment() {
    check("partitions_cover_all_work_for_any_assignment", 32, |g| {
        let counts: [usize; 7] = g.array(|g| g.int(1, 20));
        let p = StapParams::paper();
        let a = NodeAssignment(counts);
        let parts = Partitions::new(&p, &a);
        assert_eq!(
            parts.doppler_k.iter().map(|r| r.len()).sum::<usize>(),
            p.k_range
        );
        assert_eq!(
            parts.easy_wt_bins.iter().map(|r| r.len()).sum::<usize>(),
            p.n_easy()
        );
        assert_eq!(
            parts.hard_wt_bins.iter().map(|r| r.len()).sum::<usize>(),
            p.n_hard
        );
        assert_eq!(
            parts.pc_bins.iter().map(|r| r.len()).sum::<usize>(),
            p.n_pulses
        );
        assert_eq!(
            parts.cfar_bins.iter().map(|r| r.len()).sum::<usize>(),
            p.n_pulses
        );
    });
}

#[test]
fn simulator_is_sane_for_arbitrary_assignments() {
    check("simulator_is_sane_for_arbitrary_assignments", 32, |g| {
        let counts: [usize; 7] = g.array(|g| g.int(1, 30));
        let r = simulate(&SimConfig::paper(NodeAssignment(counts)));
        assert!(r.measured_throughput.is_finite() && r.measured_throughput > 0.0);
        assert!(r.measured_latency.is_finite() && r.measured_latency > 0.0);
        for t in &r.tasks {
            assert!(t.recv >= 0.0 && t.comp > 0.0 && t.send >= 0.0);
            assert!(t.recv_idle <= t.recv + 1e-12);
        }
        // Measured throughput tracks the bottleneck equation closely.
        // It may slightly exceed it (the paper's own Table 8 shows real
        // 7.2659 vs equation 7.1019 — averaging task totals over CPIs is
        // not the same as averaging completion intervals).
        assert!(r.measured_throughput <= r.eq_throughput * 1.10);
        assert!(r.measured_throughput >= r.eq_throughput * 0.80);
    });
}

#[test]
fn adding_nodes_never_hurts_throughput_much() {
    check("adding_nodes_never_hurts_throughput_much", 32, |g| {
        let seed_counts: [usize; 7] = g.array(|g| g.int(1, 12));
        let task = g.int(0, 7);
        let base = NodeAssignment(seed_counts);
        let mut more = base;
        more.0[task] += 4;
        let r0 = simulate(&SimConfig::paper(base));
        let r1 = simulate(&SimConfig::paper(more));
        // Monotonicity within tolerance (communication effects can eat a
        // little, but adding nodes must not collapse performance).
        assert!(
            r1.measured_throughput >= 0.9 * r0.measured_throughput,
            "throughput collapsed: {} -> {} adding to task {}",
            r0.measured_throughput,
            r1.measured_throughput,
            task
        );
    });
}

#[test]
fn reduced_geometry_params_validate() {
    check("reduced_geometry_params_validate", 32, |g| {
        let k = g.int(16, 96);
        let n = 1usize << g.int(4, 7);
        let p = small_params(k, 4, n, (n / 4) & !1);
        if p.n_hard >= 2 {
            assert!(p.validate().is_ok(), "{:?}", p.validate());
            assert_eq!(p.easy_bins().len() + p.hard_bins().len(), n);
        }
    });
}

// ---------------------------------------------------------------------
// The differential matrix: every front end of the one engine against
// the sequential reference, bit for bit.
// ---------------------------------------------------------------------

/// A CPI's detections as (bin, beam, range, power bits), sorted.
type Bits = Vec<(usize, usize, usize, u64)>;

fn bits(ds: &[Detection]) -> Bits {
    let mut b: Bits = ds
        .iter()
        .map(|d| (d.bin, d.beam, d.range, d.power.to_bits()))
        .collect();
    b.sort_unstable();
    b
}

/// How a cell drives the engine.
#[derive(Clone, Copy, Debug)]
enum FrontEnd {
    /// `ParallelStap::run`: in-process ranks over channels.
    Batch,
    /// `ParallelStap::run_rank` on one thread per rank, each over its
    /// own loopback `TcpLink` and the wire codec (what the benchmark's
    /// `red_tcp_batch` runs).
    BatchOverTcp,
    /// A one-epoch `Session` over a `ChannelFeed` (what
    /// `ParallelStap::serve` runs), traced: one stream, one CPI per slot.
    Serve,
    /// The same session untraced: three streams coalesced three to a
    /// slot.
    ServeGrouped,
    /// A supervised, rebalancing `Session`: three streams three to a
    /// slot, a checkpoint every two slots, `Rebalance::At(REBALANCE_AT)`,
    /// and a PC-rank panic at global slot `kill`.
    Session { kill: u64 },
}

/// The `Session` cells' scheduled rebalance: after the third slot.
const REBALANCE_AT: u64 = 3;
/// The `Session` cells' checkpoint cadence, in slots.
const CHECKPOINT_EVERY: u64 = 2;

/// The launch that runs global slot `slot`, and its local slot index,
/// in a session that has not failed yet: epochs end every
/// `CHECKPOINT_EVERY` slots and after slot `REBALANCE_AT - 1`.
fn launch_of(slot: u64) -> (usize, u64) {
    let (mut start, mut launch) = (0, 0);
    loop {
        let mut end = start + CHECKPOINT_EVERY;
        if start < REBALANCE_AT {
            end = end.min(REBALANCE_AT);
        }
        if slot < end {
            return (launch, slot - start);
        }
        (start, launch) = (end, launch + 1);
    }
}

/// PC's ranks under `assign` and under every assignment one rank shift
/// away: a world after the rebalance runs one of them.
fn pc_ranks_within_one_shift(assign: NodeAssignment) -> BTreeSet<usize> {
    let mut ranks: BTreeSet<usize> = assign.rank_range(PC).collect();
    for hot in 0..7 {
        for donor in (0..7).filter(|&d| d != hot && assign.0[d] > 1) {
            let mut next = assign;
            next.0[hot] += 1;
            next.0[donor] -= 1;
            ranks.extend(next.rank_range(PC));
        }
    }
    ranks
}

/// Runs `streams` (one cube list per stream) through `front` and returns
/// every stream's detections per CPI.
fn run_front(
    front: FrontEnd,
    assign: NodeAssignment,
    scenario: &Scenario,
    streams: &[Vec<CCube>],
) -> Vec<Vec<Bits>> {
    let params = StapParams::reduced();
    match front {
        FrontEnd::Batch => {
            let out = ParallelStap::for_scenario(params, assign, scenario).run(streams[0].clone());
            vec![out.detections.iter().map(|d| bits(d)).collect()]
        }
        FrontEnd::BatchOverTcp => {
            let par = ParallelStap::for_scenario(params, assign, scenario);
            let parts = Partitions::new(&par.params, &par.assign);
            let pools = PipelinePools::default();
            let size = assign.world_size();
            let (coord, coordinator) = spawn_coordinator(size).expect("rendezvous listener");
            let results: Vec<RankResult> = std::thread::scope(|s| {
                let ranks: Vec<_> = (0..size)
                    .map(|rank| {
                        let (par, parts, pools, coord) = (&par, &parts, &pools, &coord);
                        s.spawn(move || {
                            let link = TcpLink::rendezvous(coord, rank, size).expect("rendezvous");
                            let mut comm: Comm<Msg> = Comm::over_wire(Box::new(link), msg_codec());
                            par.run_rank(&mut comm, &streams[0], parts, pools, None)
                        })
                    })
                    .collect();
                ranks.into_iter().map(|r| r.join().unwrap()).collect()
            });
            coordinator.join().unwrap().expect("rendezvous");
            let out = par.assemble(streams[0].len(), results, Vec::new(), &pools);
            vec![out.detections.iter().map(|d| bits(d)).collect()]
        }
        FrontEnd::Serve | FrontEnd::ServeGrouped => {
            let group = if matches!(front, FrontEnd::Serve) {
                1
            } else {
                3
            };
            let streams = &streams[..group];
            let traced = matches!(front, FrontEnd::Serve);
            let mut res = ParallelStap::for_scenario(params, assign, scenario);
            (res.max_group, res.tracing) = (group, traced);
            res.reserve(group, 4);
            let (jobs_tx, jobs_rx) = mpsc::sync_channel(2);
            let (done_tx, done_rx) = mpsc::channel();
            let pool = res.pools().cx.clone();
            let summary = std::thread::scope(|s| {
                s.spawn(move || send_slots(streams, &pool, jobs_tx));
                let mut feed = ChannelFeed {
                    jobs: jobs_rx,
                    done: done_tx,
                };
                Session::default().run(&res, &mut feed).unwrap()
            });
            // Demand-driven reserve: the steady state is miss-free.
            let pools = (summary.resident.pool_cx, summary.resident.pool_real);
            assert_eq!((pools.0.misses, pools.1.misses), (0, 0), "{pools:?}");
            // Traced, every task node reports one span per slot.
            let slots: Vec<usize> = (0..streams[0].len()).filter(|_| traced).collect();
            assert_eq!(summary.ranks.len(), assign.world_size());
            for r in &summary.ranks {
                if let RankResult::Task { task, node, report } = r {
                    let spans: Vec<usize> = report.spans.iter().map(|s| s.cpi).collect();
                    assert_eq!(spans, slots, "task {task} node {node}");
                }
            }
            assert_eq!(summary.trace_epoch.is_some(), traced);
            assert_eq!(
                summary.comm.len(),
                usize::from(traced) * assign.world_size()
            );
            collect(done_rx, group, streams[0].len())
        }
        FrontEnd::Session { kill } => {
            let res = ParallelStap::for_scenario(params, assign, scenario).with_max_group(3);
            res.reserve(3, 4);
            let (launch, local) = launch_of(kill);
            let ranks = if kill < REBALANCE_AT {
                assign.rank_range(PC).collect()
            } else {
                pc_ranks_within_one_shift(assign)
            };
            let mut plans = vec![FaultPlan::default(); launch + 1];
            plans[launch] = (ranks.into_iter()).fold(FaultPlan::seeded(kill), |plan, rank| {
                plan.panic_rank(rank, local)
            });
            let (ctl_tx, ctl_rx) = mpsc::channel();
            ctl_tx.send(Rebalance::At(REBALANCE_AT)).unwrap();
            let session = Session {
                supervise: Some(SupervisorConfig {
                    checkpoint_every: CHECKPOINT_EVERY,
                    max_recoveries: 1,
                    plans,
                }),
                // Any imbalance admits the shift: the bottleneck is never
                // less busy per node than the donor.
                rebalance: Some((
                    RebalancePolicy {
                        cooldown: 1,
                        imbalance: 1.0,
                    },
                    ctl_rx,
                )),
                reserve: (3, 4),
            };
            let (jobs_tx, jobs_rx) = mpsc::sync_channel(2);
            let (done_tx, done_rx) = mpsc::channel();
            let pool = res.pools().cx.clone();
            let summary = std::thread::scope(|s| {
                s.spawn(move || send_slots(streams, &pool, jobs_tx));
                let mut feed = ChannelFeed {
                    jobs: jobs_rx,
                    done: done_tx,
                };
                session.run(&res, &mut feed).unwrap()
            });
            assert_eq!(summary.recoveries.len(), 1, "{:?}", summary.recoveries);
            assert_eq!(summary.lost_cpis, 0);
            // `[1; 7]` has no donor: its boundary runs an epoch without
            // a shift.
            let shifts = usize::from(assign != NodeAssignment([1; 7]));
            assert_eq!(summary.rebalances.len(), shifts, "{assign:?}");
            collect(done_rx, streams.len(), streams[0].len())
        }
    }
}

/// Sends one slot per CPI index, carrying that CPI of every stream.
fn send_slots(
    streams: &[Vec<CCube>],
    pool: &SharedBufferPool<Cx>,
    jobs: mpsc::SyncSender<Vec<CpiJob>>,
) {
    for scpi in 0..streams[0].len() {
        let slot = (streams.iter().enumerate())
            .map(|(stream, cubes)| CpiJob {
                stream: stream as u16,
                scpi: scpi as u32,
                cube: pool.take_cube_from(&cubes[scpi]),
                submitted: Instant::now(),
            })
            .collect();
        jobs.send(slot).unwrap();
    }
}

/// Every stream's detections per CPI, each CPI delivered exactly once
/// and clean.
fn collect(
    done_rx: mpsc::Receiver<stap::pipeline::CpiDone>,
    streams: usize,
    cpis: usize,
) -> Vec<Vec<Bits>> {
    let mut got = vec![vec![None; cpis]; streams];
    for d in done_rx {
        assert!(d.latency >= 0.0 && !d.degraded);
        let cell = &mut got[d.stream as usize][d.scpi as usize];
        assert!(
            cell.is_none(),
            "stream {} CPI {} delivered twice",
            d.stream,
            d.scpi
        );
        *cell = Some(bits(&d.detections));
    }
    (got.into_iter())
        .map(|s| {
            s.into_iter()
                .map(|b| b.expect("every CPI delivered"))
                .collect()
        })
        .collect()
}

/// The acceptance matrix of the one engine: four assignments (from one
/// node per task to four Doppler nodes, so operands are packed from up
/// to four blocks and hard-weight lane groups are padded and cut) × one
/// and three transmit beams (so weights are applied one revisit late
/// per azimuth) × six front ends, every cell compared bit for bit with
/// `SequentialStap` per stream. The two `Session` cells kill a world
/// before and after the scheduled rebalance.
#[test]
fn every_front_end_matches_the_sequential_reference_bitwise() {
    let params = StapParams::reduced();
    let cpis = 7;
    for beams in [vec![0.0], vec![-20.0, 0.0, 20.0]] {
        let scenarios: Vec<Scenario> = [41u64, 43, 47]
            .iter()
            .map(|&seed| Scenario {
                transmit_beams: beams.clone(),
                ..Scenario::reduced(seed)
            })
            .collect();
        let streams: Vec<Vec<CCube>> = (scenarios.iter())
            .map(|sc| sc.stream(cpis).map(|(_, _, c)| c).collect())
            .collect();
        let want: Vec<Vec<Bits>> = (scenarios.iter().zip(&streams))
            .map(|(sc, cubes)| {
                let mut seq = SequentialStap::for_scenario(params.clone(), sc);
                (cubes.iter().enumerate())
                    .map(|(i, c)| bits(&seq.process_cpi(i % beams.len(), c).detections))
                    .collect()
            })
            .collect();
        assert!(
            want[0].iter().any(|w| !w.is_empty()),
            "scenario must detect"
        );
        for assign in [
            NodeAssignment::tiny(),
            NodeAssignment([1; 7]),
            NodeAssignment([2, 1, 1, 2, 1, 2, 3]),
            NodeAssignment([4, 2, 3, 2, 2, 3, 2]),
        ] {
            for front in [
                FrontEnd::Batch,
                FrontEnd::BatchOverTcp,
                FrontEnd::Serve,
                FrontEnd::ServeGrouped,
                FrontEnd::Session { kill: 1 },
                FrontEnd::Session { kill: 6 },
            ] {
                let got = run_front(front, assign, &scenarios[0], &streams);
                assert_eq!(
                    got,
                    want[..got.len()],
                    "{front:?} on {assign:?}, {} beam(s)",
                    beams.len()
                );
            }
        }
    }
}
