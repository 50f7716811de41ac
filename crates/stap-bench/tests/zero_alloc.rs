//! Zero-allocation regression test for the steady-state CPI hot path.
//!
//! Installs the counting allocator as the global allocator for this test
//! binary, warms each kernel once so lazily-created state exists (FFT
//! scratch sizing, flop thread-locals, pool freelists), then asserts
//! that subsequent rounds of the paper-size kernels perform **zero**
//! heap allocations:
//!
//! - Doppler filtering of a node slab (`process_rows_with`)
//! - pulse compression of a node's bin group (`process_into_with`)
//! - CFAR detection over a node's bin group (rolling `cfar_lane` into a
//!   reserved `CfarScratch` — the take() handoff is the one permitted
//!   send-boundary allocation)
//! - redistribution packing + recycling through the shared buffer pool
//! - the serve path's slot round: ingest copy, slot assembly, the
//!   one-pass Doppler corner turn (`process_tiles_with` +
//!   `BinBlock::scatter` into length-preserving pool blocks), the
//!   lane-batched hard and easy weights read straight from the weight
//!   blocks (`HardWeightLanes::process`, `EasyWeightLanes::process`,
//!   allocating only on first sight of a (stream, beam)), the
//!   beamformer's operand pack from the beamform block and its GEMM
//!   store into the PC-bound block, pulse compression of that block in
//!   place into the CFAR-bound block, and CFAR over that block
//! - easy beamforming of one Doppler bin (`hermitian_matmul_into`)
//! - hard weight computation for one azimuth (`process_into`: snapshot
//!   gather, recursive planar QR update, constrained solve)
//! - hard beamforming of every (bin, segment) (`hard_beamform_into_with`)
//!
//! Everything lives in ONE `#[test]` because the counters are global:
//! libtest runs tests on separate threads, and a concurrent test's
//! allocations would show up in our deltas.

use stap::core::beamform::{hard_beamform_into_with, HardBeamformScratch};
use stap::core::cfar::{self, CfarScratch};
use stap::core::doppler::{DopplerProcessor, DopplerScratch};
use stap::core::pulse::{PulseCompressor, PulseScratch};
use stap::core::weights::{
    EasyWeightLanes, HardWeightComputer, HardWeightLanes, HardWeightScratch, HardWeights,
};
use stap::core::StapParams;
use stap::cube::{AxisPartition, BinBlock, CCube, RCube, RedistPlan, SharedBufferPool};
use stap::math::fft::FftScratch;
use stap::math::gemm::{gemm_planar_into_strided, PlanarMat};
use stap::math::{CMat, Cx};
use stap_bench::alloc_count::{self, CountingAllocator};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const ROUNDS: usize = 5;

fn det_cx(i: usize, j: usize, k: usize) -> Cx {
    Cx::new(
        ((i * 131 + j * 31 + k * 7) % 23) as f64 - 11.0,
        ((i + j * 5 + k * 3) % 17) as f64 - 8.0,
    )
}

/// Asserts `f` allocates nothing over `ROUNDS` repetitions (after the
/// caller has warmed it).
fn assert_zero_alloc(what: &str, mut f: impl FnMut()) {
    let (_, d) = alloc_count::count_in(|| {
        for _ in 0..ROUNDS {
            f();
        }
    });
    assert_eq!(
        d.allocs, 0,
        "{what}: {} allocations ({} bytes) in {ROUNDS} steady-state rounds",
        d.allocs, d.bytes
    );
}

#[test]
fn steady_state_cpi_kernels_do_not_allocate() {
    let p = StapParams::paper();

    // --- Doppler: one node's slab at case-3 size (K/8 = 64 rows). ------
    {
        let proc = DopplerProcessor::new(&p);
        let slab = CCube::from_fn([64, p.j_channels, p.n_pulses], det_cx);
        let mut out = CCube::zeros([64, 2 * p.j_channels, p.n_pulses]);
        let mut scratch = FftScratch::new();
        // Warmup: flop thread-local registration, scratch sizing.
        proc.process_rows_with(&slab, 0, &mut out, &mut scratch);
        assert_zero_alloc("doppler process_rows_with", || {
            proc.process_rows_with(&slab, 0, &mut out, &mut scratch);
            black_box(out[(0, 0, 0)]);
        });
    }

    // --- Pulse compression: one node's bin group (8 bins). -------------
    {
        let pc = PulseCompressor::new(&p);
        let cube = CCube::from_fn([8, p.m_beams, p.k_range], det_cx);
        let mut power = RCube::zeros(cube.shape());
        let mut ws = PulseScratch::new();
        pc.process_into_with(&cube, &mut power, &mut ws);
        assert_zero_alloc("pulse process_into_with", || {
            pc.process_into_with(&cube, &mut power, &mut ws);
            black_box(power[(0, 0, 0)]);
        });
    }

    // --- CFAR: one node's bin group through the rolling detector. ------
    {
        let bins = 8usize;
        // Positive power floor with two strong cells per lane, so the
        // detection-push path runs without outgrowing the reserved
        // capacity (`for_task` budgets 4 detections per (bin, beam)).
        let power = RCube::from_fn([bins, p.m_beams, p.k_range], |i, j, r| {
            let base = ((i * 131 + j * 31 + r * 7) % 23) as f64 + 1.0;
            if r % 256 == 7 {
                base * 1000.0
            } else {
                base
            }
        });
        let mut scratch = CfarScratch::for_task(&p, bins);
        let round = |scratch: &mut CfarScratch| {
            scratch.begin_cpi();
            for bin in 0..bins {
                for beam in 0..p.m_beams {
                    cfar::cfar_lane(
                        &p,
                        power.lane(bin, beam),
                        bin,
                        beam,
                        &mut scratch.detections,
                    );
                }
            }
        };
        round(&mut scratch); // warmup: flop thread-local, branch history
        let found = scratch.detections.len();
        assert!(found > 0, "CFAR round found nothing");
        // The compute phase is allocation-free; `take()` at the send
        // boundary swaps in a fresh reserved buffer and is the one
        // permitted steady-state allocation (it ships with the message).
        assert_zero_alloc("cfar begin_cpi + cfar_lane rounds", || {
            round(&mut scratch);
            black_box(scratch.detections.len());
        });
        assert_eq!(scratch.detections.len(), found);
        assert_eq!(scratch.take().len(), found);
    }

    // --- Redistribution packing through the shared pool. ---------------
    {
        // Doppler -> beamform reorganization: (K, 2J, N) on 8 nodes
        // along K to (N, K, 2J) on 4 nodes along N.
        let shape = [p.k_range, 2 * p.j_channels, p.n_pulses];
        let plan = RedistPlan::new(
            shape,
            AxisPartition::block(0, p.k_range, 8),
            AxisPartition::block(0, p.n_pulses, 4),
            [2, 0, 1],
        );
        let local = CCube::from_fn(plan.src_local_shape(0), det_cx);
        let blocks: Vec<_> = plan.sends_of(0).collect();
        let pool: SharedBufferPool<Cx> = SharedBufferPool::new();
        // Warmup round populates the freelist (all misses).
        for blk in &blocks {
            let msg = plan.pack_with(blk, &local, &pool);
            pool.recycle(msg);
        }
        assert_zero_alloc("redistribution pack_with + recycle", || {
            for blk in &blocks {
                let msg = plan.pack_with(blk, &local, &pool);
                black_box(msg.as_slice()[0]);
                pool.recycle(msg);
            }
        });
        let s = pool.stats();
        // Misses can only happen during warmup (a miss allocates, and
        // the zero-alloc assertion above already rules that out for the
        // measured rounds). Blocks recycle within a round too — pack,
        // recycle, pack reuses the same buffer — so warmup may miss as
        // few as one time.
        assert!(
            1 <= s.misses && s.misses as usize <= blocks.len(),
            "warmup misses out of range: {s:?}"
        );
        assert_eq!(
            (s.hits + s.misses) as usize,
            (ROUNDS + 1) * blocks.len(),
            "every pack must go through the pool: {s:?}"
        );
    }

    // --- Easy beamforming of one Doppler bin. --------------------------
    {
        let w = CMat::from_fn(p.j_channels, p.m_beams, |i, j| det_cx(i, j, 3));
        let data = CCube::from_fn([1, p.k_range, p.j_channels], det_cx);
        let mut slab = CMat::zeros(p.j_channels, p.k_range);
        let mut y = CMat::zeros(p.m_beams, p.k_range);
        slab.fill_from_fn(|ch, kc| data[(0, kc, ch)]);
        w.hermitian_matmul_into(&slab, &mut y);
        assert_zero_alloc("easy beamform hermitian_matmul_into", || {
            slab.fill_from_fn(|ch, kc| data[(0, kc, ch)]);
            w.hermitian_matmul_into(&slab, &mut y);
            black_box(y[(0, 0)]);
        });
    }

    // --- Hard weight computation + hard beamforming for one azimuth. ---
    {
        let staggered = CCube::from_fn([p.k_range, 2 * p.j_channels, p.n_pulses], det_cx);
        let steering = CMat::from_fn(p.j_channels, p.m_beams, |i, j| det_cx(i, j, 9));
        let mut computer = HardWeightComputer::new(&p);
        let mut weights = HardWeights::zeros(&p, p.m_beams);
        let mut wws = HardWeightScratch::new(&p);
        let beam = 0;
        // Warmup inserts the per-(beam, bin, segment) recursion state and
        // sizes every grow-only scratch (QR transpose planes, bordered
        // solve buffers, the thread-local GEMM pack buffers).
        computer.process_into(beam, &staggered, &steering, &mut weights, &mut wws);
        assert_zero_alloc("hard weights process_into", || {
            computer.process_into(beam, &staggered, &steering, &mut weights, &mut wws);
            black_box(weights.per_bin[0][0][(0, 0)]);
        });

        let mut out = CCube::zeros([p.hard_bins().len(), p.m_beams, p.k_range]);
        let mut bws = HardBeamformScratch::new(&p);
        hard_beamform_into_with(&p, &staggered, &weights, &mut out, &mut bws);
        assert_zero_alloc("hard beamform into_with", || {
            hard_beamform_into_with(&p, &staggered, &weights, &mut out, &mut bws);
            black_box(out[(0, 0, 0)]);
        });
    }

    // --- Multi-stream slot round: ingest-copy, cross-stream slot -------
    // assembly, the one-pass Doppler corner turn and every downstream
    // task's in-place block consumption, all through pools warmed by
    // `reserve` the way `ResidentStap::reserve` pre-warms the serve
    // pools. This is the serve path's per-slot hot path: B submitted
    // CPIs (different streams) coalesce into one stacked slab; every
    // cache-resident FFT tile is scattered straight into the pooled
    // wire blocks; the weight tasks fold each member's training rows
    // into their lane-layout state and solve, reading the weight blocks
    // where they lie; the beamformer packs each bin's plane out of the
    // received block into its GEMM operand and the GEMM stores into the
    // block pulse compression receives; pulse compression transforms
    // that block in place, lane by lane, into the block CFAR receives;
    // CFAR runs over that block.
    {
        let b = 4usize; // group size: CPIs per slot
        let klen = 64usize; // one node's k-rows per sub-CPI
        let jj = 2 * p.j_channels;
        let sub_shape = [p.k_range, p.j_channels, p.n_pulses];
        let sub_len = sub_shape.iter().product::<usize>();
        let row = p.j_channels * p.n_pulses;
        let proc = DopplerProcessor::new(&p);
        let mut dws = DopplerScratch::new();
        // One weight-style block (training rows only) and one
        // beamform-style block (every row), eight hard bins each.
        let bins: Vec<usize> = p.hard_bins()[..8].to_vec();
        let all_rows: Vec<usize> = (0..klen).collect();
        let train_rows: Vec<usize> = (0..klen).step_by(3).collect();
        let easy: Vec<usize> = p.easy_bins()[..8].to_vec();
        let layouts = [
            BinBlock::new(&bins, &train_rows, klen, jj),
            BinBlock::new(&bins, &all_rows, klen, jj),
            BinBlock::new(&easy, &train_rows, klen, p.j_channels),
        ];
        let w = CMat::from_fn(jj, p.m_beams, |i, j| det_cx(i, j, 5));
        let mut data = PlanarMat::zeros(jj, klen);
        let mut wpack = PlanarMat::new();
        let pc = PulseCompressor::new(&p);
        let mut fft_ws = FftScratch::new();
        // Room for a detection in every cell: the round must not depend
        // on how many this data happens to raise.
        let bf_shape = [b * bins.len(), p.m_beams, p.k_range];
        let mut cfar_ws = CfarScratch::with_capacity(bf_shape.iter().product());
        // The training rows dealt out over the range segments; eight
        // bins are two full lane groups per segment.
        let segs = p.num_segments();
        let seg_rows: Vec<usize> = (0..segs).map(|s| (train_rows.len() + s) / segs).collect();
        assert_eq!(seg_rows.iter().sum::<usize>(), train_rows.len());
        let mut lanes = HardWeightLanes::<(u16, usize)>::new(&p, &bins, &[seg_rows]);
        let steering = CMat::from_fn(p.j_channels, p.m_beams, |i, j| det_cx(i, j, 9));
        let mut hard_weights: Vec<Vec<CMat>> = (0..b)
            .map(|_| vec![CMat::zeros(jj, p.m_beams); bins.len() * segs])
            .collect();
        // Eight easy bins are two full lane groups too.
        let mut easy_lanes =
            EasyWeightLanes::<(u16, usize)>::new(&p, easy.len(), &[train_rows.len()]);
        let mut easy_weights: Vec<Vec<CMat>> = (0..b)
            .map(|_| vec![CMat::zeros(p.j_channels, p.m_beams); easy.len()])
            .collect();
        let pool: SharedBufferPool<Cx> = SharedBufferPool::new();
        let real_pool: SharedBufferPool<f64> = SharedBufferPool::new();
        // Demand-driven pre-warm: B producer-held cubes, the group slab,
        // the Doppler out-blocks, the PC-bound and the CFAR-bound block,
        // exactly what one in-flight slot needs.
        pool.reserve(sub_len, b);
        pool.reserve(b * klen * row, 1);
        for layout in &layouts {
            pool.reserve(layout.shape(b).iter().product(), 1);
        }
        pool.reserve(bf_shape.iter().product(), 1);
        real_pool.reserve(bf_shape.iter().product(), 1);
        let sources: Vec<CCube> = (0..b)
            .map(|s| CCube::from_fn(sub_shape, |i, j, k| det_cx(i + s, j, k)))
            .collect();
        // Reused across rounds so the round itself allocates nothing.
        let mut held: Vec<CCube> = Vec::with_capacity(b);
        let mut blocks: Vec<CCube> = Vec::with_capacity(layouts.len());
        let mut slot = |pool: &SharedBufferPool<Cx>| {
            // Producers: one memcpy ingest per stream (take_cube_from).
            for c in &sources {
                held.push(pool.take_cube_from(c));
            }
            // Driver: concatenate each sub-CPI's k-slab into the slot
            // group slab (axis 0 is slowest, so b slice copies).
            let mut buf = pool.get(b * klen * row);
            for cube in held.iter() {
                buf.extend_from_slice(&cube.as_slice()[..klen * row]);
            }
            let slab = CCube::from_vec([b * klen, p.j_channels, p.n_pulses], buf);
            for cube in held.drain(..) {
                pool.recycle(cube);
            }
            // Doppler node: taper, FFT and corner turn, tile by tile.
            for layout in &layouts {
                blocks.push(pool.take_cube_for_overwrite(layout.shape(b)));
            }
            let mut covered = 0;
            proc.process_tiles_with(&slab, 0, b, &mut dws, |row0, tile| {
                for (layout, block) in layouts.iter().zip(&mut blocks) {
                    covered += layout.scatter(tile, jj, p.n_pulses, row0, block.as_mut_slice());
                }
            });
            assert_eq!(covered, blocks.iter().map(CCube::len).sum::<usize>());
            pool.recycle(slab);
            // Hard weight: each member stream's recursion takes its
            // `[bin][row][2J]` planes of the weight block as they lie.
            let wt = blocks[0].as_slice();
            let plane = train_rows.len() * jj;
            for (u, weights) in hard_weights.iter_mut().enumerate() {
                lanes.process(
                    (u as u16, 0),
                    &steering,
                    |_, bin| &wt[(u * bins.len() + bin) * plane..][..plane],
                    weights.chunks_mut(segs),
                );
            }
            black_box(hard_weights[0][0][(0, 0)]);
            // Easy weight: the same, over `[bin][row][J]` planes into
            // each stream's history ring.
            let wt = blocks[2].as_slice();
            let plane = train_rows.len() * p.j_channels;
            for (u, weights) in easy_weights.iter_mut().enumerate() {
                easy_lanes.process(
                    (u as u16, 0),
                    &steering,
                    |_, bin| &wt[(u * easy.len() + bin) * plane..][..plane],
                    weights.iter_mut(),
                );
            }
            black_box(easy_weights[0][0][(0, 0)]);
            // Beamformer: each (sub, bin) plane of the received block
            // is packed straight into the GEMM operand, and the product
            // stored into that bin's `[M][K]` plane of the PC-bound
            // block — once per `klen` range columns, as the K / klen
            // Doppler nodes' (or a hard bin's segments') products land.
            let mut to_pc = pool.take_cube_for_overwrite(bf_shape);
            let bf = &blocks[1];
            wpack.pack_hermitian_from(&w);
            let planes = bf.as_slice().chunks_exact(klen * jj);
            let outs = to_pc.as_mut_slice().chunks_exact_mut(p.m_beams * p.k_range);
            for (plane, out) in planes.zip(outs) {
                data.pack_cols_transposed(0, plane);
                for col0 in (0..p.k_range).step_by(klen) {
                    gemm_planar_into_strided(&wpack, &data, &mut out[col0..], p.k_range);
                }
            }
            for block in blocks.drain(..) {
                pool.recycle(block);
            }
            // Pulse compression: the received block in place, lane by
            // lane, into the CFAR-bound block.
            let mut to_cfar = real_pool.take_cube_for_overwrite(bf_shape);
            pc.compress_in_place(to_pc.as_mut_slice(), to_cfar.as_mut_slice(), &mut fft_ws);
            pool.recycle(to_pc);
            // CFAR: over the received block where it lies.
            cfar_ws.begin_cpi();
            for row in 0..bf_shape[0] {
                for beam in 0..p.m_beams {
                    let lane = to_cfar.lane(row, beam);
                    cfar::cfar_lane(&p, lane, row, beam, &mut cfar_ws.detections);
                }
            }
            black_box(cfar_ws.detections.len());
            real_pool.recycle(to_cfar);
        };
        // Warmup: FFT scratch sizing, flop thread-locals, first sight
        // of the four (stream, beam) recursions and history rings.
        slot(&pool);
        let (before, real_before) = (pool.stats(), real_pool.stats());
        assert_zero_alloc(
            "multi-stream slot: assembly, corner turn, lane weights, beamform into the PC \
             block, pulse compression in place, CFAR over the block",
            || slot(&pool),
        );
        let (after, real_after) = (pool.stats(), real_pool.stats());
        assert_eq!(
            after.misses, before.misses,
            "steady-state slots must not miss the reserved pool: {after:?}"
        );
        // The reserve pre-warm means even the warmup slot never missed.
        assert_eq!(
            after.misses, 0,
            "reserve must cover the first slot: {after:?}"
        );
        assert_eq!(
            (after.hits - before.hits) as usize,
            ROUNDS * (b + 1 + layouts.len() + 1),
            "every buffer of a slot goes through the pool: {after:?}"
        );
        assert_eq!(
            (real_after.misses, real_after.hits - real_before.hits),
            (0, ROUNDS as u64),
            "one reserved power block per slot: {real_after:?}"
        );
    }

    // Sanity: the counter itself is live (construction above allocated).
    assert!(alloc_count::snapshot().allocs > 0);
}
