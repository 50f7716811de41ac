//! Tasks 3 and 4: beamforming (weight application).
//!
//! Per Doppler bin, beamforming is a matrix-matrix product between the
//! adapted weights and the channel-by-range data slab:
//!
//! * easy: `(M x J) . (J x K)` using the first stagger window only,
//! * hard: `(M x 2J) . (2J x K_seg)` per range segment, both windows.
//!
//! We apply weights as an adjoint (`y = W^H x`), the standard adaptive
//! beamforming convention (the MATLAB reference uses a plain transpose;
//! the difference is a conjugate in the weight definition, invariant to
//! everything downstream since pulse compression takes magnitudes).

use crate::params::StapParams;
use crate::weights::{EasyWeights, HardWeights};
use stap_cube::CCube;
use stap_math::gemm::{gemm_planar_into, PlanarMat};
use stap_math::CMat;

/// Reusable easy-beamforming workspace: the bin slab is gathered
/// **straight into split-complex planes** (skipping the interleaved
/// intermediate and the engine's pack pass), the weights are packed
/// conjugate-transposed once per bin, and one `M x K` product matrix
/// serves every bin of every CPI.
pub struct EasyBeamformScratch {
    /// `J x K` gather slab, planar.
    data: PlanarMat,
    /// `M x J` conjugate-transposed weight pack, planar.
    wpack: PlanarMat,
    /// `M x K` product.
    y: CMat,
    /// Easy Doppler bins, cached so the steady state never re-derives
    /// (and re-allocates) the list from the parameters.
    bins: Vec<usize>,
}

impl EasyBeamformScratch {
    /// Builds the workspace for a local range extent of `k` cells.
    pub fn new(params: &StapParams, k: usize) -> Self {
        EasyBeamformScratch {
            data: PlanarMat::zeros(params.j_channels, k),
            wpack: PlanarMat::zeros(params.m_beams, params.j_channels),
            y: CMat::zeros(params.m_beams, k),
            bins: params.easy_bins(),
        }
    }
}

/// Reusable hard-beamforming workspace: per segment, one planar
/// `2J x K_seg` gather slab and one `M x K_seg` product matrix, plus a
/// shared `M x 2J` weight pack.
pub struct HardBeamformScratch {
    per_seg: Vec<(PlanarMat, CMat)>,
    wpack: PlanarMat,
    /// Hard Doppler bins, cached (see [`EasyBeamformScratch::bins`]).
    bins: Vec<usize>,
}

impl HardBeamformScratch {
    /// Builds the workspace for the full range extent (segments are
    /// defined globally by `params.range_segments`).
    pub fn new(params: &StapParams) -> Self {
        let per_seg = (0..params.num_segments())
            .map(|seg| {
                let r = params.segment_range(seg);
                (
                    PlanarMat::zeros(2 * params.j_channels, r.len()),
                    CMat::zeros(params.m_beams, r.len()),
                )
            })
            .collect();
        HardBeamformScratch {
            per_seg,
            wpack: PlanarMat::zeros(params.m_beams, 2 * params.j_channels),
            bins: params.hard_bins(),
        }
    }
}

/// One bin of easy beamforming: `weights` is `J x M`, `data` is `J x K`;
/// returns `M x K`.
pub fn beamform_bin_easy(weights: &CMat, data: &CMat) -> CMat {
    weights.hermitian_matmul(data)
}

/// Sequential easy beamforming of a full staggered CPI: returns a
/// `(N_easy, M, K)` cube indexed by easy-bin order.
pub fn easy_beamform(params: &StapParams, staggered: &CCube, w: &EasyWeights) -> CCube {
    let k = staggered.shape()[0];
    let mut out = CCube::zeros([params.n_easy(), params.m_beams, k]);
    easy_beamform_into(params, staggered, w, &mut out);
    out
}

/// Like [`easy_beamform`] but writing into a caller-provided cube
/// (shape `(N_easy, M, K)`). Uses a transient workspace; prefer
/// [`easy_beamform_into_with`] in hot loops.
pub fn easy_beamform_into(
    params: &StapParams,
    staggered: &CCube,
    w: &EasyWeights,
    out: &mut CCube,
) {
    let mut ws = EasyBeamformScratch::new(params, staggered.shape()[0]);
    easy_beamform_into_with(params, staggered, w, out, &mut ws);
}

/// The zero-allocation steady-state easy-beamforming kernel: gathers
/// each bin's `J x K` slab and forms `W^H X` entirely inside the reused
/// workspace matrices.
pub fn easy_beamform_into_with(
    params: &StapParams,
    staggered: &CCube,
    w: &EasyWeights,
    out: &mut CCube,
    ws: &mut EasyBeamformScratch,
) {
    let k = staggered.shape()[0];
    let bins = &ws.bins;
    assert_eq!(out.shape(), [bins.len(), params.m_beams, k], "output shape");
    assert_eq!(ws.data.shape(), (params.j_channels, k), "scratch shape");
    for (bi, &bin) in bins.iter().enumerate() {
        ws.data
            .fill_from_fn(params.j_channels, k, |ch, kc| staggered[(kc, ch, bin)]);
        ws.wpack.pack_hermitian_from(&w.per_bin[bi]);
        gemm_planar_into(&ws.wpack, &ws.data, &mut ws.y);
        for m in 0..params.m_beams {
            out.lane_mut(bi, m).copy_from_slice(ws.y.row(m));
        }
    }
}

/// Sequential hard beamforming: returns a `(N_hard, M, K)` cube indexed
/// by hard-bin order (segments concatenated along range).
pub fn hard_beamform(params: &StapParams, staggered: &CCube, w: &HardWeights) -> CCube {
    let k = staggered.shape()[0];
    let mut out = CCube::zeros([params.n_hard, params.m_beams, k]);
    hard_beamform_into(params, staggered, w, &mut out);
    out
}

/// Like [`hard_beamform`] but writing into a caller-provided cube.
/// Uses a transient workspace; prefer [`hard_beamform_into_with`] in
/// hot loops.
pub fn hard_beamform_into(
    params: &StapParams,
    staggered: &CCube,
    w: &HardWeights,
    out: &mut CCube,
) {
    let mut ws = HardBeamformScratch::new(params);
    hard_beamform_into_with(params, staggered, w, out, &mut ws);
}

/// The zero-allocation steady-state hard-beamforming kernel: per-segment
/// gather and product matrices live in the reused workspace.
pub fn hard_beamform_into_with(
    params: &StapParams,
    staggered: &CCube,
    w: &HardWeights,
    out: &mut CCube,
    ws: &mut HardBeamformScratch,
) {
    let k = staggered.shape()[0];
    let bins = &ws.bins;
    assert_eq!(out.shape(), [bins.len(), params.m_beams, k], "output shape");
    let jj = 2 * params.j_channels;
    for (bi, &bin) in bins.iter().enumerate() {
        for seg in 0..params.num_segments() {
            let r = params.segment_range(seg);
            let (data, y) = &mut ws.per_seg[seg];
            data.fill_from_fn(jj, r.len(), |ch, kc| staggered[(r.start + kc, ch, bin)]);
            ws.wpack.pack_hermitian_from(&w.per_bin[bi][seg]);
            gemm_planar_into(&ws.wpack, data, y);
            for m in 0..params.m_beams {
                out.lane_mut(bi, m)[r.clone()].copy_from_slice(y.row(m));
            }
        }
    }
}

/// Interleaves easy and hard beamformed cubes back into natural Doppler
/// order: returns `(N, M, K)` where bin `b` comes from whichever cube
/// owns it.
pub fn interleave_bins(params: &StapParams, easy: &CCube, hard: &CCube) -> CCube {
    let m = easy.shape()[1];
    let k = easy.shape()[2];
    let mut out = CCube::zeros([params.n_pulses, m, k]);
    interleave_bins_into(params, easy, hard, &mut out);
    out
}

/// Like [`interleave_bins`] but writing into a caller-provided cube.
pub fn interleave_bins_into(params: &StapParams, easy: &CCube, hard: &CCube, out: &mut CCube) {
    let [n_easy, m, k] = easy.shape();
    let [n_hard, m2, k2] = hard.shape();
    assert_eq!((m, k), (m2, k2), "easy/hard shape mismatch");
    assert_eq!(n_easy, params.n_easy(), "easy bin count mismatch");
    assert_eq!(n_hard, params.n_hard, "hard bin count mismatch");
    assert_eq!(out.shape(), [params.n_pulses, m, k], "output shape");
    for (bi, &bin) in params.easy_bins().iter().enumerate() {
        for bm in 0..m {
            out.lane_mut(bin, bm).copy_from_slice(easy.lane(bi, bm));
        }
    }
    for (bi, &bin) in params.hard_bins().iter().enumerate() {
        for bm in 0..m {
            out.lane_mut(bin, bm).copy_from_slice(hard.lane(bi, bm));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{EasyWeightComputer, HardWeightComputer};
    use stap_math::Cx;
    use stap_radar::ArrayGeometry;

    fn cube_with_pattern(p: &StapParams) -> CCube {
        CCube::from_fn([p.k_range, 2 * p.j_channels, p.n_pulses], |k, c, n| {
            Cx::new(
                ((k * 7 + c * 3 + n) % 11) as f64 - 5.0,
                ((k + c + n) % 9) as f64 - 4.0,
            )
        })
    }

    #[test]
    fn easy_beamform_matches_manual_inner_product() {
        let p = StapParams::reduced();
        let geom = ArrayGeometry::small(p.j_channels);
        let steering = geom.beam_fan(0.0, 10.0, p.m_beams);
        let w = EasyWeightComputer::new(&p).quiescent(&steering);
        let cube = cube_with_pattern(&p);
        let out = easy_beamform(&p, &cube, &w);
        assert_eq!(out.shape(), [p.n_easy(), p.m_beams, p.k_range]);
        // Check one element manually: y[m, k] = sum_j conj(w[j,m]) x[j,k].
        let bi = 3;
        let bin = p.easy_bins()[bi];
        let (m, k) = (1, 17);
        let mut want = Cx::new(0.0, 0.0);
        for j in 0..p.j_channels {
            want += w.per_bin[bi][(j, m)].conj() * cube[(k, j, bin)];
        }
        assert!(out[(bi, m, k)].approx_eq(want, 1e-10));
    }

    #[test]
    fn hard_beamform_covers_all_segments() {
        let p = StapParams::reduced();
        let geom = ArrayGeometry::small(p.j_channels);
        let steering = geom.beam_fan(0.0, 10.0, p.m_beams);
        let w = HardWeightComputer::new(&p).quiescent(&steering);
        let cube = cube_with_pattern(&p);
        let out = hard_beamform(&p, &cube, &w);
        assert_eq!(out.shape(), [p.n_hard, p.m_beams, p.k_range]);
        // Element in the last segment, using both windows.
        let bi = 2;
        let bin = p.hard_bins()[bi];
        let seg = p.num_segments() - 1;
        let r = p.segment_range(seg);
        let (m, k) = (0, r.start + 2);
        let mut want = Cx::new(0.0, 0.0);
        for c in 0..2 * p.j_channels {
            want += w.per_bin[bi][seg][(c, m)].conj() * cube[(k, c, bin)];
        }
        assert!(out[(bi, m, k)].approx_eq(want, 1e-10));
    }

    #[test]
    fn interleave_restores_natural_bin_order() {
        let p = StapParams::reduced();
        let easy = CCube::from_fn([p.n_easy(), p.m_beams, p.k_range], |b, _, _| {
            Cx::real(1000.0 + b as f64)
        });
        let hard = CCube::from_fn([p.n_hard, p.m_beams, p.k_range], |b, _, _| {
            Cx::real(2000.0 + b as f64)
        });
        let all = interleave_bins(&p, &easy, &hard);
        assert_eq!(all.shape(), [p.n_pulses, p.m_beams, p.k_range]);
        for (bi, &bin) in p.easy_bins().iter().enumerate() {
            assert_eq!(all[(bin, 0, 0)], Cx::real(1000.0 + bi as f64));
        }
        for (bi, &bin) in p.hard_bins().iter().enumerate() {
            assert_eq!(all[(bin, 0, 0)], Cx::real(2000.0 + bi as f64));
        }
    }

    #[test]
    fn beamforming_is_linear_in_data() {
        let p = StapParams::reduced();
        let w = CMat::from_fn(p.j_channels, p.m_beams, |j, m| {
            Cx::new((j + m) as f64 * 0.1, (j as f64 - m as f64) * 0.05)
        });
        let a = CMat::from_fn(p.j_channels, 8, |j, k| Cx::new(j as f64, k as f64));
        let b = CMat::from_fn(p.j_channels, 8, |j, k| Cx::new(k as f64, -(j as f64)));
        let sum = beamform_bin_easy(&w, &a.add(&b));
        let parts = beamform_bin_easy(&w, &a).add(&beamform_bin_easy(&w, &b));
        assert!(sum.max_abs_diff(&parts) < 1e-10);
    }
}
