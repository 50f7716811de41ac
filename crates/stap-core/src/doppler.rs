//! Task 0: Doppler filter processing.
//!
//! For every range cell and channel: apply the per-cell range correction
//! and the Doppler taper, then transform two PRI-staggered pulse windows
//! (`0..N-s` and `s..N`, both zero-padded to `N`) with `N`-point FFTs.
//! The second window keeps its absolute pulse timing (leading zeros), so
//! a target at Doppler bin `d` appears in the staggered channels with the
//! extra phase `e^{-2 pi i d s / N}` — exactly the phase the hard-weight
//! constraint (and the MATLAB reference's `computeRecurHardWts`) aligns.
//!
//! Input: raw CPI `(K, J, N)` (pulses unit-stride). Output: staggered
//! CPI `(K, 2J, N)`; channel `j` holds window 0 of receive channel `j`,
//! channel `J + j` holds window 1.

use crate::params::StapParams;
use stap_cube::CCube;
use stap_math::fft::{Fft, FftScratch};
use stap_math::{flops, simd, Cx};

/// Cache budget of one `[rows, 2J, N]` tile of the kernel loop: a tile
/// is tapered, transformed and handed on while it still sits in L2
/// (4 range rows at the paper geometry, 32 at the reduced one).
const TILE_L2_BYTES: usize = 256 * 1024;

/// Reusable Doppler-filtering state (FFT plan and taper samples).
pub struct DopplerProcessor {
    n: usize,
    stagger: usize,
    window: Vec<f64>,
    correction: Vec<f64>,
    fft: Fft,
    j_channels: usize,
}

/// Workspace of [`DopplerProcessor::process_tiles_with`]: the one
/// cache-resident tile every finished tile is staged in, and the FFT
/// scratch. Grow-only, so the steady state allocates nothing.
#[derive(Default)]
pub struct DopplerScratch {
    tile: Vec<Cx>,
    fft: FftScratch,
}

impl DopplerScratch {
    /// An empty workspace; it is sized on first use.
    pub fn new() -> Self {
        DopplerScratch::default()
    }
}

impl DopplerProcessor {
    /// Builds the processor for the given parameters.
    pub fn new(params: &StapParams) -> Self {
        let n = params.n_pulses;
        let wlen = n - params.stagger;
        let window = params.window.sample(wlen);
        let correction = (0..params.k_range)
            .map(|k| {
                ((k + 1) as f64 / params.k_range as f64).powf(params.range_correction_exponent)
            })
            .collect();
        DopplerProcessor {
            n,
            stagger: params.stagger,
            window,
            correction,
            fft: Fft::new(n),
            j_channels: params.j_channels,
        }
    }

    /// Processes a full raw CPI into the staggered Doppler cube.
    pub fn process(&self, cpi: &CCube) -> CCube {
        let [k_range, j_ch, n] = cpi.shape();
        let mut out = CCube::zeros([k_range, 2 * j_ch, n]);
        self.process_rows(cpi, 0, &mut out);
        out
    }

    /// Processes range rows of a *local slab* of the CPI (rows
    /// `0..slab.shape()[0]`), writing into `out` at the same rows.
    /// `k_offset` is the slab's global starting range cell, needed for
    /// the per-cell range correction. This is the exact kernel each
    /// Doppler-task node runs on its partition.
    ///
    /// Convenience wrapper around [`DopplerProcessor::process_rows_with`]
    /// using a transient [`FftScratch`] (no allocation for power-of-two
    /// pulse counts — the paper's N = 128 steady state is allocation-free
    /// either way, given a preallocated `out`).
    pub fn process_rows(&self, slab: &CCube, k_offset: usize, out: &mut CCube) {
        let mut scratch = FftScratch::new();
        self.process_rows_with(slab, k_offset, out, &mut scratch);
    }

    /// The zero-allocation steady-state kernel: every tile of range rows
    /// is tapered straight into its rows of `out` and transformed there
    /// while it is cache-hot (the output layout is `(k_local, 2J, N)`
    /// row-major, so every lane is unit-stride).
    pub fn process_rows_with(
        &self,
        slab: &CCube,
        k_offset: usize,
        out: &mut CCube,
        scratch: &mut FftScratch,
    ) {
        self.process_groups_with(slab, k_offset, 1, out, scratch);
    }

    /// Multi-CPI variant of [`DopplerProcessor::process_rows_with`]:
    /// `slab` stacks `groups` same-shaped range slabs (each covering
    /// global cells `k_offset..k_offset + k_local/groups`) along axis 0.
    /// Bit-identical per group to processing each slab alone.
    pub fn process_groups_with(
        &self,
        slab: &CCube,
        k_offset: usize,
        groups: usize,
        out: &mut CCube,
        scratch: &mut FftScratch,
    ) {
        let [rows, j_ch, n] = slab.shape();
        assert_eq!(out.shape(), [rows, 2 * j_ch, n], "output shape mismatch");
        // Staged in place: tile `row0..` is rows `row0..` of `out`.
        self.tiles_with(
            slab,
            k_offset,
            groups,
            self.tile_rows(),
            out.as_mut_slice(),
            2 * j_ch * n,
            scratch,
            |_, _| {},
        );
    }

    /// The serve path's one-pass form: instead of materialising the
    /// staggered cube, every finished tile is handed to `sink(row0,
    /// tile)` while it is cache-resident — `tile` is the `[rows, 2J, N]`
    /// staggered output of slab rows `row0..row0 + rows`, all inside one
    /// of the `groups` stacked sub-CPIs — so the caller can corner-turn
    /// it straight into its out-blocks. The tiles are, bit for bit, the
    /// rows [`DopplerProcessor::process_groups_with`] would write.
    pub fn process_tiles_with(
        &self,
        slab: &CCube,
        k_offset: usize,
        groups: usize,
        ws: &mut DopplerScratch,
        sink: impl FnMut(usize, &[Cx]),
    ) {
        let rows_per_tile = self.tile_rows();
        ws.tile
            .resize(rows_per_tile * 2 * self.j_channels * self.n, Cx::default());
        // Staged in the one reused tile (stage row stride 0).
        self.tiles_with(
            slab,
            k_offset,
            groups,
            rows_per_tile,
            &mut ws.tile,
            0,
            &mut ws.fft,
            sink,
        );
    }

    /// Range rows per tile under [`TILE_L2_BYTES`].
    fn tile_rows(&self) -> usize {
        let row_bytes = 2 * self.j_channels * self.n * std::mem::size_of::<Cx>();
        (TILE_L2_BYTES / row_bytes).max(1)
    }

    /// The Doppler kernel loop. For each tile of at most `rows_per_tile`
    /// range rows (never straddling two sub-CPIs of the group): taper
    /// both stagger windows of every channel into the tile, transform
    /// its `2J * rows` lanes through one [`Fft::forward_lanes`] call,
    /// and pass `(row0, tile)` to `sink`. The tile of slab rows `row0..`
    /// is staged at `stage[row0 * stage_row..]`: `stage_row = 2J * N`
    /// makes `stage` the output cube itself, `stage_row = 0` reuses one
    /// cache-resident tile.
    #[allow(clippy::too_many_arguments)]
    fn tiles_with(
        &self,
        slab: &CCube,
        k_offset: usize,
        groups: usize,
        rows_per_tile: usize,
        stage: &mut [Cx],
        stage_row: usize,
        fft_ws: &mut FftScratch,
        mut sink: impl FnMut(usize, &[Cx]),
    ) {
        let [rows, j_ch, n] = slab.shape();
        assert_eq!(j_ch, self.j_channels, "channel count mismatch");
        assert_eq!(n, self.n, "pulse count mismatch");
        assert!(
            groups > 0 && rows % groups == 0,
            "rows {rows} / groups {groups}"
        );
        assert!(rows_per_tile > 0, "empty tile");
        let k_local = rows / groups;
        let row_len = 2 * j_ch * n;
        let s = self.stagger;
        let wlen = n - s;
        for group_row0 in (0..rows).step_by(k_local.max(1)) {
            for r0 in (0..k_local).step_by(rows_per_tile) {
                let tile_rows = rows_per_tile.min(k_local - r0);
                let row0 = group_row0 + r0;
                let tile = &mut stage[row0 * stage_row..][..tile_rows * row_len];
                for (t, row) in tile.chunks_exact_mut(row_len).enumerate() {
                    let corr = self.correction[k_offset + r0 + t];
                    let (win0, win1) = row.split_at_mut(j_ch * n);
                    for j in 0..j_ch {
                        let lane = slab.lane(row0 + t, j);
                        // Window 0: pulses 0..N-s, zero-padded at the
                        // tail. The taper product runs through the
                        // dispatched SIMD kernel (bit-identical to the
                        // scalar loop).
                        let w0 = &mut win0[j * n..(j + 1) * n];
                        simd::taper_into(w0, lane, &self.window, corr);
                        w0[wlen..].fill(Cx::default());
                        // Window 1: pulses s..N re-indexed from zero, so
                        // a tone at bin d shows the PRI-stagger phase
                        // e^{2 pi i d s / N} relative to window 0 — the
                        // phase the hard-weight constraint aligns.
                        let w1 = &mut win1[j * n..(j + 1) * n];
                        simd::taper_into(w1, &lane[s..], &self.window, corr);
                        w1[wlen..].fill(Cx::default());
                    }
                }
                self.fft.forward_lanes(tile, fft_ws);
                sink(row0, tile);
            }
        }
        // Taper+correction cost: 2 windows x wlen x (2 mul + 1
        // correction mul) real ops per (cell, channel); FFT costs are
        // counted by the batched transforms.
        flops::add(3 * 2 * wlen as u64 * (rows * j_ch) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_math::window::Window;
    use std::f64::consts::PI;

    fn test_params() -> StapParams {
        StapParams::reduced()
    }

    fn tone_cpi(p: &StapParams, bin: usize) -> CCube {
        // A pure Doppler tone across all cells/channels.
        CCube::from_fn([p.k_range, p.j_channels, p.n_pulses], |_, _, n| {
            Cx::cis(2.0 * PI * bin as f64 * n as f64 / p.n_pulses as f64)
        })
    }

    #[test]
    fn output_shape_doubles_channels() {
        let p = test_params();
        let proc = DopplerProcessor::new(&p);
        let out = proc.process(&tone_cpi(&p, 3));
        assert_eq!(out.shape(), [p.k_range, 2 * p.j_channels, p.n_pulses]);
    }

    #[test]
    fn tone_concentrates_in_its_bin() {
        let p = test_params();
        let proc = DopplerProcessor::new(&p);
        let bin = 9;
        let out = proc.process(&tone_cpi(&p, bin));
        let lane = out.lane(5, 2);
        let (max_bin, _) = lane
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
            .unwrap();
        assert_eq!(max_bin, bin);
        // Hanning sidelobes: neighbours may hold energy, far bins must not.
        let peak = lane[bin].abs();
        let far = lane[(bin + p.n_pulses / 2) % p.n_pulses].abs();
        assert!(far < 0.01 * peak, "far leakage {far} vs peak {peak}");
    }

    #[test]
    fn staggered_window_carries_stagger_phase() {
        // For a tone exactly at bin d, window 1's output at bin d equals
        // window 0's multiplied by e^{+2 pi i d s / N}: the same taper
        // integrates identical samples, but the data starts s pulses
        // later while the FFT re-indexes it from zero.
        let p = test_params();
        let proc = DopplerProcessor::new(&p);
        let bin = 8;
        let out = proc.process(&tone_cpi(&p, bin));
        let w0 = out[(0, 0, bin)];
        let w1 = out[(0, p.j_channels, bin)];
        let expected_phase = Cx::cis(2.0 * PI * bin as f64 * p.stagger as f64 / p.n_pulses as f64);
        assert!(
            w1.approx_eq(w0 * expected_phase, 1e-6 * w0.abs().max(1.0)),
            "w0={w0:?} w1={w1:?}"
        );
    }

    #[test]
    fn rectangular_window_preserves_tone_amplitude() {
        let mut p = test_params();
        p.window = Window::Rectangular;
        let proc = DopplerProcessor::new(&p);
        let bin = 10;
        let out = proc.process(&tone_cpi(&p, bin));
        // Window 0 integrates N - s unit samples coherently at bin `bin`.
        let peak = out[(0, 0, bin)].abs();
        assert!((peak - (p.n_pulses - p.stagger) as f64).abs() < 1e-6);
    }

    #[test]
    fn process_rows_matches_full_process() {
        let p = test_params();
        let proc = DopplerProcessor::new(&p);
        let cpi = CCube::from_fn([p.k_range, p.j_channels, p.n_pulses], |k, j, n| {
            Cx::new(
                ((k * 31 + j * 7 + n) % 17) as f64 - 8.0,
                ((k + j + n * 3) % 13) as f64 - 6.0,
            )
        });
        let full = proc.process(&cpi);
        // Process rows 16..32 as a slab.
        let slab = cpi.extract(16..32, 0..p.j_channels, 0..p.n_pulses);
        let mut out = CCube::zeros([16, 2 * p.j_channels, p.n_pulses]);
        proc.process_rows(&slab, 16, &mut out);
        let want = full.extract(16..32, 0..2 * p.j_channels, 0..p.n_pulses);
        assert!(out.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn grouped_slabs_match_individual_processing() {
        let p = test_params();
        let proc = DopplerProcessor::new(&p);
        let kr = 16..32;
        let klen = kr.len();
        let groups = 3;
        // Three distinct "stream" slabs over the same global k-range.
        let subs: Vec<CCube> = (0..groups)
            .map(|g| {
                CCube::from_fn([klen, p.j_channels, p.n_pulses], |k, j, n| {
                    Cx::new(
                        ((g * 97 + k * 31 + j * 7 + n) % 19) as f64 - 9.0,
                        ((g * 13 + k + j + n * 3) % 11) as f64 - 5.0,
                    )
                })
            })
            .collect();
        let stacked = CCube::from_fn([groups * klen, p.j_channels, p.n_pulses], |r, j, n| {
            subs[r / klen][(r % klen, j, n)]
        });
        let mut got = CCube::zeros([groups * klen, 2 * p.j_channels, p.n_pulses]);
        let mut ws = FftScratch::new();
        proc.process_groups_with(&stacked, kr.start, groups, &mut got, &mut ws);
        for (g, sub) in subs.iter().enumerate() {
            let mut want = CCube::zeros([klen, 2 * p.j_channels, p.n_pulses]);
            proc.process_rows(sub, kr.start, &mut want);
            let part = got.extract(g * klen..(g + 1) * klen, 0..2 * p.j_channels, 0..p.n_pulses);
            assert_eq!(part, want, "group {g} must be bit-identical");
        }
    }

    /// The serve path's pre-tiling gather, kept as the oracle: one walk
    /// over the whole staggered cube per bin, output order
    /// `(sub, bin, row, channel)`.
    fn gather_bins_block(
        stag: &CCube,
        b: usize,
        klen: usize,
        bins: &[usize],
        rows: &[usize],
        channels: usize,
    ) -> Vec<Cx> {
        let mut out = Vec::new();
        for u in 0..b {
            for &bin in bins {
                for &row in rows {
                    for ch in 0..channels {
                        out.push(stag[(u * klen + row, ch, bin)]);
                    }
                }
            }
        }
        out
    }

    /// Tile by tile into corner-turn blocks — any tile size, any group
    /// size, any k-partition, any bin/row selection — must reproduce,
    /// `to_bits` for `to_bits`, the whole staggered cube gathered in
    /// the wire's element order.
    #[test]
    fn tiled_corner_turn_matches_whole_cube_gather() {
        use stap_cube::BinBlock;
        use stap_util::check::{check, Gen};

        /// A random ascending selection of `0..len`, with skips and
        /// (when `repeats`) duplicates.
        fn pick(g: &mut Gen, len: usize, repeats: bool) -> Vec<usize> {
            let mut out = Vec::new();
            for i in 0..len {
                let copies: &[usize] = if repeats { &[0, 1, 1, 2] } else { &[0, 1] };
                out.extend(std::iter::repeat_n(i, g.choose(copies)));
            }
            out
        }

        check("tiled doppler corner turn", 120, |g| {
            let mut p = test_params();
            // Power-of-two and Bluestein pulse counts.
            p.n_pulses = g.choose(&[4usize, 8, 16, 32, 5, 6, 12, 20]);
            p.stagger = g.int(0, 4);
            p.j_channels = g.int(1, 5);
            p.k_range = g.int(1, 40);
            p.range_correction_exponent = g.choose(&[0.0, 1.0]);
            let (j, n, jj) = (p.j_channels, p.n_pulses, 2 * p.j_channels);
            let proc = DopplerProcessor::new(&p);
            // One Doppler node's k-partition and a slot group on it.
            let k0 = g.int(0, p.k_range);
            let klen = g.int(1, p.k_range - k0 + 1);
            let b = g.int(1, 5);
            let slab = CCube::from_fn([b * klen, j, n], |_, _, _| {
                Cx::new(g.float(-1.0, 1.0), g.float(-1.0, 1.0))
            });
            let mut stag = CCube::zeros([b * klen, jj, n]);
            proc.process_groups_with(&slab, k0, b, &mut stag, &mut FftScratch::new());

            // The four out-blocks of one destination node each: weight
            // blocks take training rows, beamform blocks every row.
            let all_rows: Vec<usize> = (0..klen).collect();
            let layouts: Vec<(Vec<usize>, Vec<usize>, usize)> = vec![
                (pick(g, n, false), pick(g, klen, true), j),
                (pick(g, n, false), pick(g, klen, true), jj),
                (pick(g, n, false), all_rows.clone(), j),
                (pick(g, n, false), all_rows, jj),
            ];
            let blocks: Vec<BinBlock> = layouts
                .iter()
                .map(|(bins, rows, ch)| BinBlock::new(bins, rows, klen, *ch))
                .collect();
            let poison = Cx::new(f64::NAN, f64::NAN);
            let mut got: Vec<Vec<Cx>> = blocks
                .iter()
                .map(|bl| vec![poison; bl.shape(b).iter().product()])
                .collect();

            let rows_per_tile = g.choose(&[1, 2, 3, 5, klen, klen + 3]);
            let mut stage = vec![Cx::default(); rows_per_tile * jj * n];
            let mut covered = vec![0usize; blocks.len()];
            proc.tiles_with(
                &slab,
                k0,
                b,
                rows_per_tile,
                &mut stage,
                0,
                &mut FftScratch::new(),
                |row0, tile| {
                    assert!(tile.len() <= rows_per_tile * jj * n);
                    assert_eq!(
                        row0 / klen,
                        (row0 + tile.len() / (jj * n) - 1) / klen,
                        "tile straddles two sub-CPIs"
                    );
                    for (i, bl) in blocks.iter().enumerate() {
                        covered[i] += bl.scatter(tile, jj, n, row0, &mut got[i]);
                    }
                },
            );

            for (i, (bins, rows, ch)) in layouts.iter().enumerate() {
                let want = gather_bins_block(&stag, b, klen, bins, rows, *ch);
                assert_eq!(covered[i], want.len(), "block {i} coverage");
                let bits = |v: &[Cx]| -> Vec<(u64, u64)> {
                    v.iter().map(|x| (x.re.to_bits(), x.im.to_bits())).collect()
                };
                assert_eq!(bits(&got[i]), bits(&want), "block {i}");
            }
        });
    }

    /// The public tiled entry derives its tile size and hands out
    /// exactly the rows `process_groups_with` writes.
    #[test]
    fn process_tiles_with_reassembles_the_full_cube() {
        let p = test_params();
        let proc = DopplerProcessor::new(&p);
        let (b, klen) = (2, p.k_range);
        let slab = CCube::from_fn([b * klen, p.j_channels, p.n_pulses], |k, j, n| {
            Cx::new(
                ((k * 31 + j * 7 + n) % 17) as f64 - 8.0,
                ((k + j + n * 3) % 13) as f64 - 6.0,
            )
        });
        let shape = [b * klen, 2 * p.j_channels, p.n_pulses];
        let mut want = CCube::zeros(shape);
        proc.process_groups_with(&slab, 0, b, &mut want, &mut FftScratch::new());
        let row_len = shape[1] * shape[2];
        let mut got = CCube::zeros(shape);
        let mut ws = DopplerScratch::new();
        proc.process_tiles_with(&slab, 0, b, &mut ws, |row0, tile| {
            got.as_mut_slice()[row0 * row_len..][..tile.len()].copy_from_slice(tile);
        });
        assert_eq!(got, want);
    }

    #[test]
    fn range_correction_scales_cells() {
        let mut p = test_params();
        p.range_correction_exponent = 1.0;
        let proc = DopplerProcessor::new(&p);
        let cpi = tone_cpi(&p, 4);
        let out = proc.process(&cpi);
        // Cell k is scaled by (k+1)/K relative to flat processing.
        let flat = DopplerProcessor::new(&test_params()).process(&cpi);
        let k = 10;
        let expect = (k as f64 + 1.0) / p.k_range as f64;
        let ratio = out[(k, 0, 4)].abs() / flat[(k, 0, 4)].abs();
        assert!(
            (ratio - expect).abs() < 1e-9,
            "ratio {ratio} expect {expect}"
        );
    }

    #[test]
    fn range_correction_flattens_attenuated_clutter() {
        // Generate clutter with range^-2 power decay and undo it with the
        // matching correction exponent: the staggered cube's range power
        // profile must come out roughly flat (no trend), while without
        // correction it is strongly sloped.
        use stap_radar::clutter::ClutterConfig;
        use stap_radar::Scenario;
        let mut scenario = Scenario::reduced(777);
        scenario.targets.clear();
        scenario.clutter = Some(ClutterConfig {
            range_attenuation_exponent: 2.0,
            ..Default::default()
        });
        let cpi = scenario.generate_cpi(0);
        let profile = |p: &StapParams| -> (f64, f64) {
            let proc = DopplerProcessor::new(p);
            let stag = proc.process(&cpi);
            let half = p.k_range / 2;
            let power = |r: std::ops::Range<usize>| -> f64 {
                r.map(|k| {
                    (0..p.j_channels)
                        .map(|j| stag.lane(k, j).iter().map(|x| x.norm_sqr()).sum::<f64>())
                        .sum::<f64>()
                })
                .sum()
            };
            (power(0..half), power(half..p.k_range))
        };
        let mut p = test_params();
        p.range_correction_exponent = 0.0;
        let (near_u, far_u) = profile(&p);
        p.range_correction_exponent = 1.0; // amplitude ~ r, power ~ r^2
        let (near_c, far_c) = profile(&p);
        let slope_u = near_u / far_u;
        let slope_c = near_c / far_c;
        assert!(slope_u > 4.0, "uncorrected profile should slope: {slope_u}");
        assert!(
            slope_c < slope_u / 3.0 && slope_c < 3.0,
            "corrected profile should flatten: {slope_c} (uncorrected {slope_u})"
        );
    }

    #[test]
    fn doppler_flops_scale_with_cube_size() {
        let p = test_params();
        let proc = DopplerProcessor::new(&p);
        let cpi = tone_cpi(&p, 1);
        let ((), counted) = flops::count(|| {
            let _ = proc.process(&cpi);
        });
        // 2J * K FFTs of 5 N log2 N plus taper work.
        let nlog = (p.n_pulses as f64).log2() as u64;
        let fft_part = (2 * p.j_channels * p.k_range) as u64 * 5 * p.n_pulses as u64 * nlog;
        assert!(counted > fft_part, "must include taper cost");
        assert!(counted < fft_part + fft_part / 4, "taper cost too large");
    }
}
