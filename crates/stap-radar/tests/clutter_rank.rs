//! Brennan's rule on the synthetic clutter: the space-time covariance of
//! a pure clutter ridge has about `J + beta (P - 1)` significant
//! eigenvalues for a `J`-element, `P`-pulse aperture, far below its
//! dimension `J P`. This is the one physics check on the clutter
//! generator.
//!
//! The covariance estimate and the Jacobi eigenvalue solver below are
//! test-only oracles. The pipeline never forms a covariance: its weights
//! come from QR least squares (the paper's Appendix A).

use stap_cube::CCube;
use stap_math::{CMat, Cx};
use stap_radar::Scenario;

/// The `(J*P) x (J*P)` space-time covariance of a raw CPI `(K, J, N)`,
/// from length-`P` pulse windows at stride `P` over every range cell
/// (pulse-major stacking: element `p * J + j`).
fn space_time_covariance(cpi: &CCube, pulse_window: usize) -> CMat {
    let [k_cells, j_ch, n_pulses] = cpi.shape();
    let dim = j_ch * pulse_window;
    let mut r = CMat::zeros(dim, dim);
    let mut count = 0usize;
    for k in 0..k_cells {
        for start in (0..=n_pulses - pulse_window).step_by(pulse_window) {
            let x: Vec<Cx> = (0..pulse_window)
                .flat_map(|p| (0..j_ch).map(move |j| cpi[(k, j, start + p)]))
                .collect();
            for a in 0..dim {
                for b in 0..dim {
                    r[(a, b)] += x[a] * x[b].conj();
                }
            }
            count += 1;
        }
    }
    r.scale(1.0 / count as f64)
}

/// Eigenvalues of Hermitian `a`, descending, by cyclic complex Jacobi
/// rotations (no eigenvectors are accumulated).
fn eigenvalues(a: &CMat) -> Vec<f64> {
    let n = a.rows();
    let mut m = CMat::from_fn(n, n, |i, j| {
        if i == j {
            Cx::real(a[(i, i)].re)
        } else if i > j {
            a[(i, j)]
        } else {
            a[(j, i)].conj()
        }
    });
    let off = |m: &CMat| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s += m[(i, j)].norm_sqr();
                }
            }
        }
        s
    };
    let scale = (0..n).map(|i| m[(i, i)].re.abs()).fold(1e-300, f64::max);
    let tol = (scale * 1e-14).powi(2) * (n * n) as f64;
    for _sweep in 0..60 {
        if off(&m) <= tol {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.norm_sqr() <= tol / (n * n) as f64 {
                    continue;
                }
                // Rotate columns and rows p, q so the 2x2 Hermitian block
                // [app, apq; conj(apq), aqq] becomes diagonal.
                let abs_apq = apq.abs();
                let theta = 0.5 * (2.0 * abs_apq).atan2(m[(q, q)].re - m[(p, p)].re);
                let (c, s) = (theta.cos(), theta.sin());
                let se = apq.scale(s / abs_apq);
                for i in 0..n {
                    let (mip, miq) = (m[(i, p)], m[(i, q)]);
                    m[(i, p)] = mip.scale(c) - miq * se.conj();
                    m[(i, q)] = mip * se + miq.scale(c);
                }
                for j in 0..n {
                    let (mpj, mqj) = (m[(p, j)], m[(q, j)]);
                    m[(p, j)] = mpj.scale(c) - mqj * se;
                    m[(q, j)] = mpj * se.conj() + mqj.scale(c);
                }
            }
        }
    }
    let mut values: Vec<f64> = (0..n).map(|i| m[(i, i)].re).collect();
    values.sort_by(|a, b| b.total_cmp(a));
    values
}

/// Brennan's rule: the expected clutter rank of a `J`-element,
/// `P`-pulse aperture with ridge slope `beta`, rounded up.
fn brennan_rank(j_channels: usize, pulse_window: usize, beta: f64) -> usize {
    (j_channels as f64 + beta * (pulse_window as f64 - 1.0)).ceil() as usize
}

/// The generator's ridge slope in Brennan-rule units: it writes Doppler
/// `ridge_slope * sin(az)` against spatial frequency
/// `spacing * sin(az)`, so `beta = ridge_slope / spacing`.
fn beta_of(ridge_slope: f64, spacing_wavelengths: f64) -> f64 {
    ridge_slope / spacing_wavelengths
}

/// Number of eigenvalues within `db_down` decibels of the largest.
fn effective_rank(values: &[f64], db_down: f64) -> usize {
    let floor = values[0] * 10f64.powf(-db_down / 10.0);
    values.iter().filter(|&&v| v > floor).count()
}

#[test]
fn clutter_rank_follows_brennans_rule() {
    // The synthetic ridge's eigenrank must land near J + beta (P - 1),
    // far below the full dimension.
    let mut sc = Scenario::reduced(31);
    sc.targets.clear();
    if let Some(c) = sc.clutter.as_mut() {
        c.doppler_spread = 0.0; // pure ridge
        c.cnr_db = 50.0;
    }
    let cpi = sc.generate_cpi(0);
    let p = 4usize;
    let values = eigenvalues(&space_time_covariance(&cpi, p));
    let beta = beta_of(
        sc.clutter.as_ref().unwrap().ridge_slope,
        sc.geom.spacing_wavelengths,
    );
    let predicted = brennan_rank(sc.geom.channels, p, beta);
    // Count eigenvalues within 30 dB of the peak (clutter vs noise
    // floor is ~50 dB here).
    let rank = effective_rank(&values, 30.0);
    let dim = sc.geom.channels * p;
    assert!(
        rank.abs_diff(predicted) <= 2,
        "rank {rank} vs Brennan {predicted} (dim {dim})"
    );
    assert!(rank < dim / 2, "clutter must be low-rank: {rank} of {dim}");
}

#[test]
fn covariance_is_hermitian_psd() {
    // Checks the oracles themselves: a Hermitian estimate whose
    // eigenvalues are non-negative and sum to its trace.
    let mut sc = Scenario::reduced(4);
    sc.targets.clear();
    let r = space_time_covariance(&sc.generate_cpi(0), 4);
    let dim = r.rows();
    assert_eq!(dim, 8 * 4);
    let tol = 1e-10 * r.fro_norm();
    for i in 0..dim {
        for j in 0..dim {
            assert!(r[(i, j)].approx_eq(r[(j, i)].conj(), tol));
        }
    }
    let values = eigenvalues(&r);
    assert!(*values.last().unwrap() > -tol);
    let trace: f64 = (0..dim).map(|i| r[(i, i)].re).sum();
    let sum: f64 = values.iter().sum();
    assert!((trace - sum).abs() < 1e-9 * trace);
}

#[test]
fn brennan_rank_formula() {
    assert_eq!(brennan_rank(16, 1, 0.6), 16);
    assert_eq!(brennan_rank(16, 18, 1.0), 33);
    assert_eq!(brennan_rank(8, 4, 0.6), 10); // 8 + 1.8 -> ceil
}
