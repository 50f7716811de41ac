//! Per-layer probes: single-threaded timings of one public call each, at
//! the workload's geometry, taken in the traced run while nothing else
//! runs. The reported value is the median over repetitions.

use crate::host;
use crate::ledger::Ledger;
use crate::spans::SpanLog;
use crate::stats;
use crate::workload::{Geometry, Inputs, Workload};
use stap_core::beamform::{easy_beamform, hard_beamform, interleave_bins};
use stap_core::doppler::DopplerProcessor;
use stap_core::pulse::PulseCompressor;
use stap_core::reference::CpiWorkspace;
use stap_core::weights::{EasyWeightComputer, HardWeightComputer};
use stap_core::{cfar, SequentialStap};
use stap_cube::{AxisPartition, CCube, RedistPlan, SharedBufferPool};
use stap_math::fft::{Fft, FftScratch};
use stap_math::qr::{qr_r, qr_update_with, QrScratch};
use stap_math::{CMat, Cx};
use stap_mp::{run_spmd, spawn_coordinator, Comm, TcpLink, WireCodec};
use stap_pipeline::assignment::{DOPPLER, EASY_BF, HARD_BF};
use stap_pipeline::msg::{Msg, Payload};
use stap_pipeline::wire::msg_codec;
use stap_pipeline::NodeAssignment;
use stap_serve::{AdmissionConfig, Ingest};
use stap_util::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Seconds of repetitions a cheap probe accumulates.
const PROBE_S: f64 = 0.1;

pub struct Probes<'a> {
    pub w: &'a Workload,
    pub inputs: &'a Inputs,
    pub spans: SpanLog,
    pub ledger: &'a mut Ledger,
}

fn det_cx(rng: &mut Rng) -> Cx {
    Cx::new(rng.gen_range_f64(-1.0, 1.0), rng.gen_range_f64(-1.0, 1.0))
}

impl Probes<'_> {
    /// Times `f` once as a span and returns its seconds.
    fn timed<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = host::now();
        let out = black_box(f());
        let t1 = host::now();
        self.spans.record(name, layer, t0, t1, parent, None);
        (out, t1 - t0)
    }

    /// Median seconds of `f` over at least `min_reps` repetitions and
    /// `PROBE_S` seconds, after one untimed call. One span covers them
    /// all: a probe of a microsecond call would otherwise write tens of
    /// thousands.
    fn median_of<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        min_reps: usize,
        mut f: impl FnMut() -> R,
    ) -> f64 {
        black_box(f());
        let started = host::now();
        let mut secs = Vec::new();
        let mut t0 = started;
        while secs.len() < min_reps || t0 - started < PROBE_S {
            black_box(f());
            let t1 = host::now();
            secs.push(t1 - t0);
            t0 = t1;
        }
        self.spans.record(name, layer, started, t0, None, None);
        stats::median(&mut secs)
    }

    pub fn run_all(&mut self) {
        self.math();
        self.core();
        self.cube();
        self.mp();
        self.wire();
        self.ingest();
        self.sim();
    }

    fn math(&mut self) {
        let p = self.w.geometry.params();
        let mut rng = Rng::seed_from_u64(1);

        // The Doppler task's transform: N-point lanes, 32 at a time.
        let fft = Fft::new(p.n_pulses);
        let mut scratch = FftScratch::for_plan(&fft);
        let mut lanes: Vec<Cx> = (0..p.n_pulses * 32).map(|_| det_cx(&mut rng)).collect();
        let s = self.median_of("fft_lanes", "stap-math", 20, || {
            fft.forward_lanes(&mut lanes, &mut scratch)
        });
        self.ledger.set("stap-math.fft_lanes_us", s * 1e6);

        // One bin's beamforming product: (M x J) weights on a (J x K) slab.
        let a = CMat::from_fn(p.m_beams, p.j_channels, |_, _| det_cx(&mut rng));
        let b = CMat::from_fn(p.j_channels, p.k_range, |_, _| det_cx(&mut rng));
        let mut out = CMat::zeros(p.m_beams, p.k_range);
        let s = self.median_of("gemm", "stap-math", 20, || a.matmul_into(&b, &mut out));
        let flops = 8.0 * (p.m_beams * p.j_channels * p.k_range) as f64;
        self.ledger.set("stap-math.gemm_gflops", flops / s / 1e9);

        // One hard-weight recursion step: a 2J x 2J factor absorbs
        // `hard_samples` new snapshots.
        let jj = 2 * p.j_channels;
        let r_old = qr_r(&CMat::from_fn(3 * jj, jj, |_, _| det_cx(&mut rng)));
        let rows = CMat::from_fn(p.hard_samples, jj, |_, _| det_cx(&mut rng));
        let mut r_new = CMat::zeros(jj, jj);
        let mut ws = QrScratch::new();
        let s = self.median_of("qr_update", "stap-math", 20, || {
            qr_update_with(&r_old, p.forgetting_factor, &rows, &mut r_new, &mut ws)
        });
        self.ledger.set("stap-math.qr_update_us", s * 1e6);

        let flops = stap_core::flops::measure(&p, 1).total();
        self.ledger.set("stap-math.flops_per_cpi", flops as f64);
    }

    /// The seven public per-task calls chained on one CPI, and the
    /// single-threaded baseline over the same cubes.
    fn core(&mut self) {
        let p = self.w.geometry.params();
        let sc = &self.inputs.scenarios[0];
        let beams = sc.transmit_beams.len();
        let reps = match self.w.geometry {
            Geometry::Paper => 5, // ~0.1 s per chain
            Geometry::Reduced => 32,
        };
        let seq = SequentialStap::for_scenario(p.clone(), sc);
        let steering = seq.steering.clone();
        let doppler = DopplerProcessor::new(&p);
        let pulse = PulseCompressor::new(&p);
        let mut easy = EasyWeightComputer::new(&p);
        let mut hard = HardWeightComputer::new(&p);
        // Fill the weight history so the timings are steady-state ones.
        for i in 0..beams * p.easy_history {
            let stag = doppler.process(self.inputs.cube(0, i));
            easy.process(i % beams, &stag, &steering[i % beams]);
            hard.process(i % beams, &stag, &steering[i % beams]);
        }
        let mut secs: [Vec<f64>; 7] = Default::default();
        for rep in 0..reps {
            let i = beams * p.easy_history + rep;
            let (beam, cube) = (i % beams, self.inputs.cube(0, i));
            let t0 = host::now();
            let root = self
                .spans
                .record("probe_cpi", "harness", t0, t0, None, Some((0, i as u32)));
            let parent = Some(root);
            let (stag, t) = self.timed("doppler", "stap-core", parent, || doppler.process(cube));
            secs[0].push(t);
            let (we, t) = self.timed("easy_weight", "stap-core", parent, || {
                easy.process(beam, &stag, &steering[beam])
            });
            secs[1].push(t);
            let (wh, t) = self.timed("hard_weight", "stap-core", parent, || {
                hard.process(beam, &stag, &steering[beam])
            });
            secs[2].push(t);
            let (ebf, t) = self.timed("easy_bf", "stap-core", parent, || {
                easy_beamform(&p, &stag, &we)
            });
            secs[3].push(t);
            let (hbf, t) = self.timed("hard_bf", "stap-core", parent, || {
                hard_beamform(&p, &stag, &wh)
            });
            secs[4].push(t);
            let all = interleave_bins(&p, &ebf, &hbf);
            let (power, t) = self.timed("pulse", "stap-core", parent, || pulse.process(&all));
            secs[5].push(t);
            let (_, t) = self.timed("cfar", "stap-core", parent, || cfar::cfar(&p, &power));
            secs[6].push(t);
            self.spans.spans[root].end = host::now();
        }
        let names = [
            "doppler",
            "easy_weight",
            "hard_weight",
            "easy_bf",
            "hard_bf",
            "pulse",
            "cfar",
        ];
        for (name, s) in names.iter().zip(secs.iter_mut()) {
            self.ledger
                .set(&format!("stap-core.{name}_ms"), stats::median(s) * 1e3);
        }

        let mut seq = seq;
        let mut ws = CpiWorkspace::new(&p);
        for i in 0..beams {
            seq.process_cpi_reusing(i % beams, self.inputs.cube(0, i), &mut ws);
        }
        let mut i = beams;
        let s = self.median_of("seq_cpi", "stap-core", reps, || {
            seq.process_cpi_reusing(i % beams, self.inputs.cube(0, i), &mut ws);
            i += 1;
        });
        self.ledger.set("stap-core.seq_cpi_ms", s * 1e3);
        let flops = self.ledger.get("stap-math.flops_per_cpi").unwrap_or(0.0);
        self.ledger.set("stap-core.seq_gflops", flops / s / 1e9);
    }

    /// The Doppler -> beamform reorganization for this workload's
    /// partitions: (K, 2J, N) split along K over the Doppler nodes
    /// becomes (N, K, 2J) split along N over the beamforming nodes.
    fn cube(&mut self) {
        let p = self.w.geometry.params();
        let a = NodeAssignment(self.w.nodes);
        let shape = [p.k_range, 2 * p.j_channels, p.n_pulses];
        let plan = RedistPlan::new(
            shape,
            AxisPartition::block(0, p.k_range, a.nodes(DOPPLER)),
            AxisPartition::block(0, p.n_pulses, a.nodes(EASY_BF) + a.nodes(HARD_BF)),
            [2, 0, 1],
        );
        let mut rng = Rng::seed_from_u64(2);
        let local = CCube::from_fn(plan.src_local_shape(0), |_, _, _| det_cx(&mut rng));
        let pool: SharedBufferPool<Cx> = SharedBufferPool::new();
        let sends: Vec<_> = plan.sends_of(0).collect();
        // Sender 0's blocks that land on receiver 0, and where.
        let mut landing = CCube::zeros(plan.dst_local_shape(0));
        let bytes = |elements: usize| (elements * std::mem::size_of::<Cx>()) as f64;
        let packed_bytes = bytes(sends.iter().map(|b| b.elements).sum());
        let unpacked_bytes = bytes(
            sends
                .iter()
                .filter(|b| b.dst == 0)
                .map(|b| b.elements)
                .sum(),
        );
        let (mut pack_s, mut unpack_s) = (Vec::new(), Vec::new());
        let started = host::now();
        let mut t0 = started;
        while pack_s.len() < 5 || t0 - started < 2.0 * PROBE_S {
            let msgs: Vec<_> = sends
                .iter()
                .map(|b| plan.pack_with(b, &local, &pool))
                .collect();
            let t1 = host::now();
            for (b, msg) in sends.iter().zip(msgs) {
                if b.dst == 0 {
                    plan.unpack_recycling(b, msg, &mut landing, &pool);
                } else {
                    pool.recycle(msg);
                }
            }
            let t2 = host::now();
            pack_s.push(t1 - t0);
            unpack_s.push(t2 - t1);
            t0 = t2;
        }
        black_box(&landing);
        self.spans
            .record("pack_unpack", "stap-cube", started, t0, None, None);
        // The first round allocates; the median does not see it.
        self.ledger.set(
            "stap-cube.pack_mb_s",
            packed_bytes / stats::median(&mut pack_s) / 1e6,
        );
        self.ledger.set(
            "stap-cube.unpack_mb_s",
            unpacked_bytes / stats::median(&mut unpack_s) / 1e6,
        );
    }

    /// 64-byte ping-pong between two ranks on each fabric, and one-way
    /// TCP bandwidth at the reduced (1 MiB) and paper (16 MiB) frame sizes.
    fn mp(&mut self) {
        const PINGS: usize = 2000;
        let rtt = run_spmd::<Vec<u8>, f64>(2, |comm| ping_pong(comm, PINGS));
        self.ledger.set("stap-mp.inproc_rtt_us", rtt[0] * 1e6);
        let t0 = host::now();
        let rtt = over_tcp(|comm| ping_pong(comm, PINGS));
        self.ledger.set("stap-mp.tcp_rtt_us", rtt[0] * 1e6);
        let bw_1m = over_tcp(|comm| one_way(comm, 1 << 20, 64));
        self.ledger.set("stap-mp.tcp_bw_1m_mb_s", bw_1m[0] / 1e6);
        let bw_16m = over_tcp(|comm| one_way(comm, 16 << 20, 8));
        self.ledger.set("stap-mp.tcp_bw_16m_mb_s", bw_16m[0] / 1e6);
        let t1 = host::now();
        self.spans
            .record("tcp_probes", "stap-mp", t0, t1, None, None);
    }

    /// `msg_codec()` on the message the Doppler task sends an easy
    /// beamformer: its bins, this node's range cells, J channels.
    fn wire(&mut self) {
        let p = self.w.geometry.params();
        let a = NodeAssignment(self.w.nodes);
        let shape = [
            p.n_easy() / a.nodes(EASY_BF),
            p.k_range / a.nodes(DOPPLER),
            p.j_channels,
        ];
        let mut rng = Rng::seed_from_u64(3);
        let msg = Msg::new(
            0,
            Payload::Cube(CCube::from_fn(shape, |_, _, _| det_cx(&mut rng))),
        );
        let codec = msg_codec();
        let mut frame = Vec::new();
        let s = self.median_of("wire_encode", "stap-pipeline", 5, || {
            frame.clear();
            (codec.encode)(&msg, &mut frame);
        });
        let bytes = frame.len() as f64;
        self.ledger
            .set("stap-pipeline.wire_encode_mb_s", bytes / s / 1e6);
        let s = self.median_of("wire_decode", "stap-pipeline", 5, || (codec.decode)(&frame));
        self.ledger
            .set("stap-pipeline.wire_decode_mb_s", bytes / s / 1e6);
    }

    /// One CPI through the admission ledger and back:
    /// `Ingest::submit` -> `next_group_into` -> `complete`.
    fn ingest(&mut self) {
        let p = self.w.geometry.params();
        let shape = [p.k_range, p.j_channels, p.n_pulses];
        let mut ing = Ingest::new(AdmissionConfig {
            queue_depth: 4,
            shape,
            quarantine_streak: 0,
            probation_ms: 250,
        });
        ing.register(0);
        let mut cube = Some(CCube::zeros(shape));
        let mut group = Vec::with_capacity(1);
        const CYCLES: usize = 1000;
        let s = self.median_of("ingest_cycles", "stap-serve", 5, || {
            for _ in 0..CYCLES {
                let now = Instant::now();
                let admitted = ing.submit(0, cube.take().expect("cube comes back"), now);
                assert!(admitted.is_ok(), "admission refused the probe");
                ing.next_group_into(1, &mut group);
                cube = group.pop().map(|pending| pending.cube);
                ing.complete(0, false, now);
            }
        });
        self.ledger
            .set("stap-serve.ingest_cycle_ns", s / CYCLES as f64 * 1e9);
    }

    fn sim(&mut self) {
        let cfg = stap_sim::SimConfig::paper(NodeAssignment::case3());
        let s = self.median_of("des_case3", "stap-sim", 5, || stap_sim::simulate(&cfg));
        self.ledger.set("stap-sim.des_case3_ms", s * 1e3);
    }
}

fn byte_codec() -> WireCodec<Vec<u8>> {
    WireCodec {
        encode: |m, out| out.extend_from_slice(m),
        decode: |b| b.to_vec(),
    }
}

/// Runs `f` on both ranks of a two-rank loopback TCP world.
fn over_tcp<R: Send>(f: impl Fn(Comm<Vec<u8>>) -> R + Sync) -> Vec<R> {
    let (addr, coordinator) = spawn_coordinator(2).expect("bind rendezvous listener");
    let out = std::thread::scope(|scope| {
        let ranks: Vec<_> = (0..2)
            .map(|rank| {
                let (addr, f) = (&addr, &f);
                scope.spawn(move || {
                    let link = TcpLink::rendezvous(addr, rank, 2).expect("tcp rendezvous");
                    f(Comm::over_wire(Box::new(link), byte_codec()))
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|r| r.join().expect("probe rank panicked"))
            .collect()
    });
    coordinator
        .join()
        .expect("coordinator panicked")
        .expect("rendezvous failed");
    out
}

/// Median round trip of a 64-byte message, seconds (rank 0's view).
fn ping_pong(mut comm: Comm<Vec<u8>>, rounds: usize) -> f64 {
    let peer = 1 - comm.rank();
    let mut secs = Vec::with_capacity(rounds);
    for i in 0..rounds as u64 {
        if comm.rank() == 0 {
            let t = Instant::now();
            comm.send(peer, i, vec![0u8; 64]);
            black_box(comm.recv(peer, i).expect("pong"));
            secs.push(t.elapsed().as_secs_f64());
        } else {
            let ping = comm.recv(peer, i).expect("ping");
            comm.send(peer, i, ping);
        }
    }
    if secs.is_empty() {
        0.0
    } else {
        stats::median(&mut secs)
    }
}

/// Bytes per second of `frames` frames of `size` bytes sent rank 0 ->
/// rank 1, timed by the sender up to the receiver's acknowledgement.
fn one_way(mut comm: Comm<Vec<u8>>, size: usize, frames: u64) -> f64 {
    let peer = 1 - comm.rank();
    if comm.rank() == 0 {
        let payloads: Vec<Vec<u8>> = (0..frames).map(|_| vec![7u8; size]).collect();
        let t = Instant::now();
        for (i, payload) in payloads.into_iter().enumerate() {
            comm.send(peer, i as u64, payload);
        }
        comm.recv(peer, frames).expect("ack");
        (size as u64 * frames) as f64 / t.elapsed().as_secs_f64()
    } else {
        for i in 0..frames {
            black_box(comm.recv(peer, i).expect("frame"));
        }
        comm.send(peer, frames, Vec::new());
        0.0
    }
}
