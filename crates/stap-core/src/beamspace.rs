//! Beam-space post-Doppler STAP — the related-work comparison.
//!
//! The paper's references [11–13] parallelize a *beam-space* post-Doppler
//! STAP: instead of adapting all `J` element channels, the data is first
//! projected onto a small fan of `B < J` conventional beams around the
//! look direction, and adaptation happens in that `B`-dimensional space.
//! The appeal is cost — weight computation scales with `B^2`–`B^3`
//! instead of `J^2`–`J^3` — at the price of only being able to null
//! interference that lies within the beam fan's span. Implementing it
//! makes that tradeoff *measurable* against the paper's element-space
//! PRI-staggered algorithm (see the tests and the `ls_vs_smi`/beamspace
//! benches).

use crate::params::StapParams;
use crate::training::easy_snapshot;
use crate::weights::mean_abs;
use stap_cube::CCube;
use stap_math::solve::constrained_lstsq;
use stap_math::{CMat, Cx};
use stap_radar::ArrayGeometry;

/// Beam-space configuration.
#[derive(Clone, Debug)]
pub struct BeamSpaceConfig {
    /// Number of conventional beams in the fan (`B < J`; typical 3–5).
    pub num_beams: usize,
    /// Fan half-width, degrees (beams spread over `center +/- half`).
    pub half_width_deg: f64,
}

impl Default for BeamSpaceConfig {
    fn default() -> Self {
        BeamSpaceConfig {
            num_beams: 4,
            half_width_deg: 8.0,
        }
    }
}

/// The `J x B` beam-space transform: columns are unit steering vectors
/// of `B` conventional beams around `center_az_deg`.
pub fn beamspace_transform(
    geom: &ArrayGeometry,
    center_az_deg: f64,
    cfg: &BeamSpaceConfig,
) -> CMat {
    geom.beam_fan(center_az_deg, cfg.half_width_deg, cfg.num_beams)
}

/// Projects conjugated element-space snapshot rows (`S x J`, rows `x^H`)
/// into beam space (`S x B`): row `x^H T`.
pub fn to_beamspace(snapshots: &CMat, t: &CMat) -> CMat {
    snapshots.matmul(t)
}

/// Beam-space easy-bin weights: one `B`-vector per easy Doppler bin,
/// adapted against beam-space training data with a unit-response
/// constraint on the look direction.
pub struct BeamSpaceWeights {
    /// `J x B` transform.
    pub t: CMat,
    /// Per-easy-bin beam-space weights (`B x 1`).
    pub per_bin: Vec<CMat>,
}

impl BeamSpaceWeights {
    /// Effective element-space weight for easy-bin index `bi`:
    /// `T w`, unit normalized — directly comparable to the element-space
    /// algorithm's weights.
    pub fn element_weight(&self, bi: usize) -> Vec<Cx> {
        let w = self.t.matmul(&self.per_bin[bi]);
        let norm: f64 = (0..w.rows())
            .map(|i| w[(i, 0)].norm_sqr())
            .sum::<f64>()
            .sqrt();
        (0..w.rows())
            .map(|i| w[(i, 0)].scale(1.0 / norm.max(1e-300)))
            .collect()
    }
}

/// Computes beam-space weights for all easy bins from one staggered CPI
/// (first stagger window, like the element-space easy task).
/// `look_az_deg` is the beam-fan center and the constrained look
/// direction.
pub fn beamspace_easy_weights(
    params: &StapParams,
    geom: &ArrayGeometry,
    staggered: &CCube,
    look_az_deg: f64,
    cfg: &BeamSpaceConfig,
) -> BeamSpaceWeights {
    assert!(
        cfg.num_beams <= params.j_channels,
        "beam space must not exceed element space"
    );
    let t = beamspace_transform(geom, look_az_deg, cfg);
    // Beam-space steering: the look direction expressed in beam space.
    let s_look = geom.steering(look_az_deg);
    let s_col = CMat::from_fn(params.j_channels, 1, |i, _| s_look[i]);
    let steer_bs = t.hermitian_matmul(&s_col); // B x 1
    let constraint = CMat::identity(cfg.num_beams);
    let per_bin = params
        .easy_bins()
        .iter()
        .map(|&bin| {
            let x = easy_snapshot(staggered, params, bin);
            let x_bs = to_beamspace(&x, &t);
            let k = mean_abs(&x_bs) * params.beam_constraint_wt;
            constrained_lstsq(&x_bs, &constraint, k, &steer_bs)
        })
        .collect();
    BeamSpaceWeights { t, per_bin }
}

/// Closed-form weight-computation cost ratio vs element space for one
/// bin: QR on `S x n` costs ~`8 n^2 (S - n/3)` flops, so beam space wins
/// by roughly `(J/B)^2`.
pub fn expected_cost_ratio(j: usize, b: usize, samples: usize) -> f64 {
    let cost = |n: usize| 8.0 * (n * n) as f64 * (samples as f64 - n as f64 / 3.0);
    cost(j) / cost(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_math::flops;

    fn fixture(az_int: f64) -> (StapParams, ArrayGeometry, CCube) {
        let p = StapParams::reduced();
        let geom = ArrayGeometry::small(p.j_channels);
        let s = geom.steering(az_int);
        let mut state = 0xD00Du64;
        let mut rngf = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut cube = CCube::zeros([p.k_range, 2 * p.j_channels, p.n_pulses]);
        for k in 0..p.k_range {
            for bin in 0..p.n_pulses {
                let g = Cx::new(rngf(), rngf()).scale(16.0);
                for j in 0..p.j_channels {
                    cube[(k, j, bin)] = g * s[j] + Cx::new(rngf(), rngf()).scale(0.05);
                }
            }
        }
        (p, geom, cube)
    }

    fn resp(w: &[Cx], dir: &[Cx]) -> f64 {
        let mut acc = Cx::new(0.0, 0.0);
        for (wi, di) in w.iter().zip(dir) {
            acc += wi.conj() * *di;
        }
        acc.abs()
    }

    #[test]
    fn transform_is_orthonormal_ish() {
        let geom = ArrayGeometry::small(8);
        let t = beamspace_transform(&geom, 0.0, &BeamSpaceConfig::default());
        assert_eq!(t.shape(), (8, 4));
        for b in 0..4 {
            let n: f64 = (0..8).map(|j| t[(j, b)].norm_sqr()).sum();
            assert!((n - 1.0).abs() < 1e-12, "beam {b} norm {n}");
        }
    }

    #[test]
    fn nulls_interference_inside_the_fan() {
        // Interferer at 6 deg: inside a fan spanning +/-8 deg.
        let (p, geom, cube) = fixture(6.0);
        let cfg = BeamSpaceConfig::default();
        let w = beamspace_easy_weights(&p, &geom, &cube, 0.0, &cfg);
        let ew = w.element_weight(p.n_easy() / 2);
        let s_int = geom.steering(6.0);
        let s_look = geom.steering(0.0);
        assert!(
            resp(&ew, &s_int) < 0.1,
            "in-fan interferer response {}",
            resp(&ew, &s_int)
        );
        assert!(
            resp(&ew, &s_look) > 0.3,
            "look direction collapsed: {}",
            resp(&ew, &s_look)
        );
    }

    #[test]
    fn cannot_null_interference_outside_the_fan_span() {
        // Interferer at 50 deg: far outside the 4-beam fan. Element-space
        // adaptation nulls it; beam space (mostly) cannot — the known
        // beam-space limitation.
        let (p, geom, cube) = fixture(50.0);
        let cfg = BeamSpaceConfig::default();
        let w_bs = beamspace_easy_weights(&p, &geom, &cube, 0.0, &cfg);
        let ew = w_bs.element_weight(p.n_easy() / 2);
        let s_int = geom.steering(50.0);
        let bs_resp = resp(&ew, &s_int);

        let mut elem = crate::weights::EasyWeightComputer::new(&p);
        let steering = geom.beam_fan(0.0, 8.0, p.m_beams);
        let w_es = elem.process(0, &cube, &steering);
        let wm = &w_es.per_bin[p.n_easy() / 2];
        let es_w: Vec<Cx> = (0..p.j_channels).map(|j| wm[(j, 0)]).collect();
        let es_resp = resp(&es_w, &s_int);
        assert!(
            es_resp < 0.3 * bs_resp.max(0.02),
            "element space ({es_resp}) should null far better than beam space ({bs_resp})"
        );
    }

    #[test]
    fn beam_space_weight_computation_is_cheaper() {
        let (p, geom, cube) = fixture(6.0);
        let cfg = BeamSpaceConfig::default();
        let steering = geom.beam_fan(0.0, 8.0, p.m_beams);
        let ((), f_bs) = flops::count(|| {
            let _ = beamspace_easy_weights(&p, &geom, &cube, 0.0, &cfg);
        });
        let mut elem = crate::weights::EasyWeightComputer::new(&p);
        let ((), f_es) = flops::count(|| {
            let _ = elem.process(0, &cube, &steering);
        });
        // Beam space includes the projection cost but the QR shrinks
        // from J=8 to B=4 columns; expect a clear saving even at this
        // small J (paper-scale J=16 -> ~4x).
        assert!(
            f_bs < f_es,
            "beam space {f_bs} flops vs element space {f_es}"
        );
    }

    #[test]
    fn cost_ratio_grows_quadratically() {
        let r8 = expected_cost_ratio(16, 8, 96);
        let r4 = expected_cost_ratio(16, 4, 96);
        assert!(r4 > 2.5 * r8, "r4 {r4} vs r8 {r8}");
        assert!(r4 > 10.0, "16 -> 4 channels should save >10x: {r4}");
    }
}
