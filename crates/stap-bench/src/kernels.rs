//! Frozen seed-path kernels, kept as test oracles.
//!
//! Each is a faithful re-implementation of the seed tree's kernel: one
//! radix-2 FFT dispatch per lane, a freshly allocated buffer per
//! window/lane/message, per-element packing, interleaved recursive QR,
//! a CFAR that recomputes both half-windows per cell. The tests below
//! hold the current hot path (batched mixed-radix FFTs, persistent
//! workspaces, run-fused packing, planar QR, rolling-window CFAR) to
//! them.

use stap::core::cfar::{CfarKind, Detection};
use stap::core::params::StapParams;
use stap::core::pulse::chirp;
use stap::cube::{CCube, RCube, RedistBlock, RedistPlan};
use stap::math::fft::Fft;
use stap::math::{flops, CMat, Cx};

/// Deterministic complex test data.
pub fn det_cx(i: usize, j: usize, k: usize) -> Cx {
    let mut s = (i as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((j as u64).wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(k as u64)
        | 1;
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    Cx::new(
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
        (s >> 17) as f64 / (1u64 << 47) as f64 - 0.5,
    )
}

/// The seed tree's Doppler kernel: per-lane windowing into freshly
/// allocated buffers and one radix-2 FFT dispatch per staggered window.
pub struct ReferenceDoppler {
    n: usize,
    stagger: usize,
    window: Vec<f64>,
    correction: Vec<f64>,
    fft: Fft,
}

impl ReferenceDoppler {
    /// Builds the reference processor for `params`.
    pub fn new(params: &StapParams) -> Self {
        let n = params.n_pulses;
        let wlen = n - params.stagger;
        ReferenceDoppler {
            n,
            stagger: params.stagger,
            window: params.window.sample(wlen),
            correction: (0..params.k_range)
                .map(|k| {
                    ((k + 1) as f64 / params.k_range as f64).powf(params.range_correction_exponent)
                })
                .collect(),
            fft: Fft::new_radix2(n),
        }
    }

    /// The pre-optimization `process_rows`: allocates two window buffers
    /// per `(cell, channel)` lane and runs each through its own FFT call.
    pub fn process_rows(&self, slab: &CCube, k_offset: usize, out: &mut CCube) {
        let [k_local, j_ch, n] = slab.shape();
        assert_eq!(out.shape(), [k_local, 2 * j_ch, n]);
        let s = self.stagger;
        let wlen = n - s;
        for k in 0..k_local {
            let corr = self.correction[k_offset + k];
            for j in 0..j_ch {
                let lane = slab.lane(k, j);
                let mut w0 = vec![Cx::default(); self.n];
                for i in 0..wlen {
                    w0[i] = lane[i].scale(self.window[i] * corr);
                }
                self.fft.forward(&mut w0);
                out.lane_mut(k, j).copy_from_slice(&w0);
                let mut w1 = vec![Cx::default(); self.n];
                for i in 0..wlen {
                    w1[i] = lane[s + i].scale(self.window[i] * corr);
                }
                self.fft.forward(&mut w1);
                out.lane_mut(k, j_ch + j).copy_from_slice(&w1);
            }
        }
    }
}

/// The seed tree's pulse compression: per-lane buffer clone, radix-2
/// forward/inverse dispatches, and a freshly allocated output cube.
pub struct ReferencePulse {
    k: usize,
    fft: Fft,
    filter: Vec<Cx>,
}

impl ReferencePulse {
    /// Builds the reference compressor for `params`.
    pub fn new(params: &StapParams) -> Self {
        let k = params.k_range;
        let fft = Fft::new_radix2(k);
        let replica = chirp(params.replica_len);
        let mut padded = vec![Cx::default(); k];
        padded[..replica.len()].copy_from_slice(&replica);
        fft.forward(&mut padded);
        let filter = padded.iter().map(|x| x.conj()).collect();
        ReferencePulse { k, fft, filter }
    }

    /// The pre-optimization `process`: allocates the output cube and one
    /// spectrum buffer per `(bin, beam)` lane.
    pub fn process(&self, beamformed: &CCube) -> RCube {
        let [n, m, k] = beamformed.shape();
        assert_eq!(k, self.k);
        let mut out = RCube::zeros([n, m, k]);
        for bin in 0..n {
            for beam in 0..m {
                let mut buf = beamformed.lane(bin, beam).to_vec();
                self.fft.forward(&mut buf);
                for (x, f) in buf.iter_mut().zip(&self.filter) {
                    *x *= *f;
                }
                self.fft.inverse(&mut buf);
                let lane = out.lane_mut(bin, beam);
                for (o, v) in lane.iter_mut().zip(&buf) {
                    *o = v.norm_sqr();
                }
            }
        }
        out
    }
}

/// The seed tree's redistribution pack: a per-element strided gather
/// (one 3-D index computation and one push per element), before the run
/// fusion / transpose blocking of `Cube::extract_permuted_into`.
pub fn reference_pack(plan: &RedistPlan, block: &RedistBlock, local: &CCube) -> Vec<Cx> {
    let own = plan.src_part.range_of(block.src);
    let mut r = block.src_ranges.clone();
    r[plan.src_part.axis] =
        (r[plan.src_part.axis].start - own.start)..(r[plan.src_part.axis].end - own.start);
    let perm = plan.perm;
    let out_shape = [r[perm[0]].len(), r[perm[1]].len(), r[perm[2]].len()];
    let mut data = Vec::with_capacity(block.elements);
    for y0 in 0..out_shape[0] {
        for y1 in 0..out_shape[1] {
            for y2 in 0..out_shape[2] {
                let mut x = [0usize; 3];
                x[perm[0]] = r[perm[0]].start + y0;
                x[perm[1]] = r[perm[1]].start + y1;
                x[perm[2]] = r[perm[2]].start + y2;
                data.push(local[(x[0], x[1], x[2])]);
            }
        }
    }
    data
}

/// The seed tree's recursive QR update: interleaved `Cx` storage, a
/// fresh `R` clone, a fresh column snapshot per reflector, and
/// strided column walks through the new-row block.
pub fn reference_qr_update(r_old: &CMat, forget: f64, new_rows: &CMat) -> CMat {
    let n = r_old.rows();
    let cols = r_old.cols();
    assert!(
        cols >= n,
        "r_old must have at least as many columns as rows"
    );
    assert_eq!(new_rows.cols(), cols, "new_rows column mismatch");
    let s = new_rows.rows();

    let mut r = r_old.scale(forget);
    let mut x = new_rows.clone();
    flops::add(2 * (n * n) as u64);

    for k in 0..n {
        let mut norm_sqr = r[(k, k)].norm_sqr();
        for i in 0..s {
            norm_sqr += x[(i, k)].norm_sqr();
        }
        let norm = norm_sqr.sqrt();
        if norm == 0.0 {
            continue;
        }
        let d = r[(k, k)];
        let phase = if d.abs() == 0.0 {
            Cx::real(1.0)
        } else {
            d.scale(1.0 / d.abs())
        };
        let alpha = -phase.scale(norm);
        let v0 = d - alpha;
        let vx: Vec<Cx> = (0..s).map(|i| x[(i, k)]).collect();
        let mut vnorm_sqr = v0.norm_sqr();
        for v in &vx {
            vnorm_sqr += v.norm_sqr();
        }
        if vnorm_sqr == 0.0 {
            continue;
        }
        let beta = 2.0 / vnorm_sqr;
        for j in k + 1..cols {
            let mut w = v0.conj() * r[(k, j)];
            for (i, v) in vx.iter().enumerate() {
                w = w.mul_add(v.conj(), x[(i, j)]);
            }
            let wb = w.scale(beta);
            r[(k, j)] -= v0 * wb;
            for (i, v) in vx.iter().enumerate() {
                x[(i, j)] -= *v * wb;
            }
        }
        r[(k, k)] = alpha;
        for i in 0..s {
            x[(i, k)] = Cx::default();
        }
        flops::add((cols - k) as u64 * (2 * flops::CMAC * s as u64 + 20) + 4 * s as u64 + 30);
    }
    r
}

/// The seed tree's CFAR detector, frozen verbatim: both reference
/// half-windows are *recomputed* for every test cell — O(K·W) per lane
/// — where the live [`stap::core::cfar::cfar_lane_kind`] maintains
/// rolling sums (initial sum + slide, O(K + W)). Kept as the oracle for
/// the rolling-window equivalence test: the set of reference cells per
/// test cell is identical, so thresholds agree to rounding for all three
/// [`CfarKind`] variants including clamped edges. (No flop accounting
/// here — this is a reference, not a modeled kernel.)
pub fn reference_cfar_lane(
    params: &StapParams,
    kind: CfarKind,
    lane: &[f64],
    bin: usize,
    beam: usize,
    out: &mut Vec<Detection>,
) {
    let k = lane.len();
    let half = params.cfar_window / 2;
    let g = params.cfar_guard;
    for t in 0..k {
        // Reference cells: [t-g-half, t-g) and (t+g, t+g+half], clamped.
        let mut lo_sum = 0.0;
        let mut lo_count = 0usize;
        let lo_end = t.saturating_sub(g);
        let lo_start = t.saturating_sub(g + half);
        for &v in &lane[lo_start..lo_end] {
            lo_sum += v;
            lo_count += 1;
        }
        let mut hi_sum = 0.0;
        let mut hi_count = 0usize;
        let hi_start = (t + g + 1).min(k);
        let hi_end = (t + g + 1 + half).min(k);
        for &v in &lane[hi_start..hi_end] {
            hi_sum += v;
            hi_count += 1;
        }
        if lo_count + hi_count == 0 {
            continue;
        }
        let stat = match kind {
            CfarKind::CellAveraging => (lo_sum + hi_sum) / (lo_count + hi_count) as f64,
            CfarKind::GreatestOf | CfarKind::SmallestOf => {
                // Means of each half; a fully clamped-away half defers
                // to the other.
                let lo = (lo_count > 0).then(|| lo_sum / lo_count as f64);
                let hi = (hi_count > 0).then(|| hi_sum / hi_count as f64);
                match (lo, hi, kind) {
                    (Some(a), Some(b), CfarKind::GreatestOf) => a.max(b),
                    (Some(a), Some(b), CfarKind::SmallestOf) => a.min(b),
                    (Some(a), None, _) | (None, Some(a), _) => a,
                    _ => unreachable!("one side is non-empty"),
                }
            }
        };
        let threshold = params.cfar_scale * stat;
        if lane[t] > threshold {
            out.push(Detection {
                bin,
                beam,
                range: t,
                power: lane[t],
                threshold,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap::core::cfar;
    use stap::core::doppler::DopplerProcessor;
    use stap::core::pulse::PulseCompressor;
    use stap::cube::AxisPartition;
    use stap::math::qr::{qr_r, qr_update_with, QrScratch};

    fn doppler_slab(p: &StapParams, rows: usize) -> CCube {
        CCube::from_fn([rows, p.j_channels, p.n_pulses], det_cx)
    }

    /// The reference (seed-path) kernels and the optimized kernels must
    /// agree numerically — different FFT factorizations, same transform.
    #[test]
    fn reference_doppler_matches_optimized() {
        let p = StapParams::reduced();
        let rows = 8;
        let slab = doppler_slab(&p, rows);
        let shape = [rows, 2 * p.j_channels, p.n_pulses];
        let mut want = CCube::zeros(shape);
        ReferenceDoppler::new(&p).process_rows(&slab, 0, &mut want);
        let mut got = CCube::zeros(shape);
        DopplerProcessor::new(&p).process_rows(&slab, 0, &mut got);
        assert!(
            got.max_abs_diff(&want) < 1e-9,
            "{}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn reference_pulse_matches_optimized() {
        let p = StapParams::reduced();
        let cube = CCube::from_fn([2, p.m_beams, p.k_range], det_cx);
        let want = ReferencePulse::new(&p).process(&cube);
        let got = PulseCompressor::new(&p).process(&cube);
        let diff = want
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-9, "max power diff {diff}");
    }

    /// The frozen per-element pack must agree byte-for-byte with the
    /// run-fused / transpose-blocked live pack.
    #[test]
    fn reference_pack_matches_optimized() {
        let shape = [32, 8, 12];
        for perm in [[2, 0, 1], [0, 1, 2], [1, 2, 0]] {
            let plan = RedistPlan::new(
                shape,
                AxisPartition::block(0, shape[0], 4),
                AxisPartition::block(0, shape[perm[0]], 3),
                perm,
            );
            for src in 0..4 {
                let local = CCube::from_fn(plan.src_local_shape(src), det_cx);
                for blk in plan.sends_of(src) {
                    let want = reference_pack(&plan, blk, &local);
                    let got = plan.pack(blk, &local);
                    assert_eq!(got.as_slice(), &want[..], "perm {perm:?} src {src}");
                }
            }
        }
    }

    /// The frozen interleaved QR update must agree bit-for-bit with the
    /// planar scratch-based update (identical IEEE operation order).
    #[test]
    fn reference_qr_update_matches_optimized() {
        let seed_block = CMat::from_fn(20, 8, |i, j| det_cx(i, j, 23));
        let r0 = qr_r(&seed_block);
        let new_rows = CMat::from_fn(5, 8, |i, j| det_cx(i, j, 29));
        let want = reference_qr_update(&r0, 0.9, &new_rows);
        let mut got = CMat::zeros(8, 8);
        qr_update_with(&r0, 0.9, &new_rows, &mut got, &mut QrScratch::new());
        assert_eq!(got.as_slice(), want.as_slice());
    }

    /// The rolling-window detector must agree with the frozen
    /// recomputing reference for every `CfarKind`, including lanes
    /// shorter than the window (both edges fully clamped) and guard
    /// widths that collapse one half-window entirely.
    #[test]
    fn rolling_cfar_matches_frozen_reference() {
        // (lane length, window, guard): normal interior windows, a
        // window wider than the lane, guard swallowing the low half,
        // and a degenerate two-cell lane.
        let compare = |p: &StapParams, kind: CfarKind, lane: &[f64], what: &str| -> usize {
            let mut want = Vec::new();
            reference_cfar_lane(p, kind, lane, 3, 1, &mut want);
            let mut got = Vec::new();
            cfar::cfar_lane_kind(p, kind, lane, 3, 1, &mut got);
            assert_eq!(got.len(), want.len(), "{what}: {got:?} vs {want:?}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!((a.bin, a.beam, a.range), (b.bin, b.beam, b.range), "{what}");
                assert_eq!(a.power, b.power, "{what}");
                // Rolling sums accumulate the same cells in a
                // different association order: equal to rounding.
                assert!(
                    (a.threshold - b.threshold).abs() <= 1e-12 * b.threshold.abs().max(1.0),
                    "{what} range {}: threshold {} vs {}",
                    a.range,
                    a.threshold,
                    b.threshold
                );
            }
            got.len()
        };
        let kinds = [
            CfarKind::CellAveraging,
            CfarKind::GreatestOf,
            CfarKind::SmallestOf,
        ];
        for (k, w, g) in [
            (64usize, 16usize, 2usize),
            (64, 16, 0),
            (16, 32, 1),
            (8, 64, 0),
            (5, 4, 3),
            (2, 2, 0),
        ] {
            let mut p = StapParams::reduced();
            p.cfar_window = w;
            p.cfar_guard = g;
            // A near-zero scale makes every cell with a non-empty
            // reference window a detection, so the comparison pins the
            // threshold statistic at *every* range cell — interior,
            // clamped, and degenerate — not just at planted targets.
            p.cfar_scale = 1e-9;
            let lane: Vec<f64> = (0..k).map(|i| det_cx(i, w, g).norm_sqr() + 1e-3).collect();
            for kind in kinds {
                let n = compare(&p, kind, &lane, &format!("k={k} w={w} g={g} {kind:?}"));
                assert!(n > 0, "k={k} w={w} g={g}: no cells compared");
            }
        }
        // And one realistic pass: sparse 1000x spikes (spacing wider
        // than the reference span) at the paper's false-alarm scale, so
        // the actual detect/no-detect boundary is exercised too.
        {
            let p = StapParams::reduced(); // K = 64, W = 16, g = 2
            let lane: Vec<f64> = (0..p.k_range)
                .map(|i| {
                    let v = det_cx(i, 5, 9).norm_sqr() + 1e-3;
                    if i % 17 == 0 {
                        v * 1000.0
                    } else {
                        v
                    }
                })
                .collect();
            for kind in kinds {
                let n = compare(&p, kind, &lane, &format!("spikes {kind:?}"));
                assert!(n >= 3, "spiked lane should fire, got {n}");
            }
        }
    }
}
