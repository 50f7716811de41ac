//! Experiment helpers that need the full stack (radar + core), used by
//! the `repro` binary alongside the simulator-only experiments in
//! `stap-sim`.

pub mod alloc_count;
pub mod cluster;
pub mod kernels;

use stap::core::doppler::DopplerProcessor;
use stap::core::weights::EasyWeightComputer;
use stap::core::StapParams;
use stap::cube::CCube;
use stap::math::window::Window;
use stap::math::{CMat, Cx};
use stap::radar::{ArrayGeometry, Scenario};
use std::fmt::Write as _;

/// Doppler-window ablation: "Selectable window functions are applied to
/// the data prior to the Doppler FFT's to control sidelobe levels. The
/// selection of a window is a key parameter in that it impacts the
/// leakage of clutter returns across Doppler bins, traded off against
/// the width of the clutter passband."
///
/// Measures, per taper, the clutter power leaking into the easy Doppler
/// bins (relative to total clutter power) and the count of bins needed
/// to contain 99% of clutter energy — the leakage-vs-passband tradeoff
/// in one table.
pub fn window_ablation() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Doppler window ablation (clutter-only scene, reduced geometry)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} {:>16} {:>22}",
        "window", "easy-bin leakage", "bins for 99% clutter"
    )
    .unwrap();
    for w in [
        Window::Rectangular,
        Window::Hamming,
        Window::Hanning,
        Window::Blackman,
    ] {
        let (leak_db, bins99) = window_metrics(w);
        writeln!(
            out,
            "{:<14} {:>15.2}dB {:>22}",
            format!("{w:?}"),
            leak_db,
            bins99
        )
        .unwrap();
    }
    writeln!(
        out,
        "lower leakage keeps easy bins cheap to process; the price is a\n\
         wider clutter passband (more bins classified as hard)."
    )
    .unwrap();
    out
}

/// Narrow-clutter test scene shared by the window metrics: the ridge
/// collapses to (almost) one Doppler frequency, so easy-bin energy is
/// pure window sidelobe leakage.
fn narrow_clutter_cpi(params: &StapParams) -> CCube {
    let mut scenario = Scenario::reduced(3001);
    scenario.targets.clear();
    if let Some(c) = scenario.clutter.as_mut() {
        c.extent_deg = 2.0;
        c.doppler_spread = 0.0;
        c.cnr_db = 60.0;
    }
    assert_eq!(scenario.range_cells, params.k_range);
    scenario.generate_cpi(0)
}

/// `(easy-bin leakage dB, bins holding 99% of clutter)` for one taper.
pub fn window_metrics(w: Window) -> (f64, usize) {
    let mut params = StapParams::reduced();
    params.window = w;
    let cpi = narrow_clutter_cpi(&params);
    let proc = DopplerProcessor::new(&params);
    let stag = proc.process(&cpi);
    let mut bin_power = vec![0.0f64; params.n_pulses];
    for k in 0..params.k_range {
        for j in 0..params.j_channels {
            for (b, p) in bin_power.iter_mut().enumerate() {
                *p += stag[(k, j, b)].norm_sqr();
            }
        }
    }
    let total: f64 = bin_power.iter().sum();
    let easy: f64 = params.easy_bins().iter().map(|&b| bin_power[b]).sum();
    let mut sorted = bin_power.clone();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut acc = 0.0;
    let mut bins99 = 0;
    for p in &sorted {
        acc += p;
        bins99 += 1;
        if acc >= 0.99 * total {
            break;
        }
    }
    (10.0 * (easy / total).log10(), bins99)
}

/// Easy-bin clutter leakage (dB) for one taper (see [`window_metrics`]).
pub fn window_leakage_db(w: Window) -> f64 {
    window_metrics(w).0
}

/// Builds a staggered cube dominated by one spatial interferer (the
/// shared fixture of the adaptive ablations below).
fn interferer_staggered(
    p: &StapParams,
    geom: &ArrayGeometry,
    az: f64,
    power: f64,
    noise: f64,
    seed: u64,
) -> CCube {
    let s = geom.steering(az);
    let mut state = seed | 1;
    let mut rngf = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut cube = CCube::zeros([p.k_range, 2 * p.j_channels, p.n_pulses]);
    for k in 0..p.k_range {
        for bin in 0..p.n_pulses {
            let g = Cx::new(rngf(), rngf()).scale(2.0 * power);
            let phase = Cx::cis(
                2.0 * std::f64::consts::PI * bin as f64 * p.stagger as f64 / p.n_pulses as f64,
            );
            for j in 0..p.j_channels {
                cube[(k, j, bin)] = g * s[j] + Cx::new(rngf(), rngf()).scale(noise);
                cube[(k, p.j_channels + j, bin)] =
                    g * s[j] * phase + Cx::new(rngf(), rngf()).scale(noise);
            }
        }
    }
    cube
}

fn response(w: &CMat, dir: &[Cx], m: usize) -> f64 {
    let mut acc = Cx::new(0.0, 0.0);
    for (j, d) in dir.iter().enumerate() {
        acc += w[(j, m)].conj() * *d;
    }
    acc.abs()
}

/// Appendix A's beam-constraint tradeoff: "The choice of k directs the
/// least squares solution for w to adhere more closely to the steering
/// vector when k is large, and emphasize clutter cancellation at the
/// expense of beam shape when k is small." Sweeps `k` and reports
/// interferer rejection vs mainbeam preservation.
pub fn constraint_sweep() -> String {
    let mut p = StapParams::reduced();
    let geom = ArrayGeometry::small(p.j_channels);
    let steering = geom.beam_fan(0.0, 10.0, p.m_beams);
    let az_int = 35.0;
    let cube = interferer_staggered(&p, &geom, az_int, 8.0, 0.05, 0xBEEF);
    let s_int = geom.steering(az_int);
    // Measure the mainbeam where beam 0 actually points.
    let beam0_az = stap::radar::steering::beam_azimuths(0.0, 10.0, p.m_beams)[0];
    let s_main = geom.steering(beam0_az);
    let mut out = String::new();
    writeln!(
        out,
        "Beam-constraint weight sweep (Appendix A): interferer at {az_int} deg"
    )
    .unwrap();
    writeln!(
        out,
        "{:>8} {:>18} {:>18}",
        "k", "interferer (dB)", "mainbeam (dB)"
    )
    .unwrap();
    for k in [0.01f64, 0.1, 0.5, 2.0, 10.0, 100.0] {
        p.beam_constraint_wt = k;
        let mut c = EasyWeightComputer::new(&p);
        let w = c.process(0, &cube, &steering);
        let bin = p.n_easy() / 2;
        let wm = &w.per_bin[bin];
        let int_db = 20.0 * response(wm, &s_int, 0).max(1e-9).log10();
        let main_db = 20.0 * response(wm, &s_main, 0).max(1e-9).log10();
        writeln!(out, "{:>8.2} {:>17.1} {:>17.1}", k, int_db, main_db).unwrap();
    }
    writeln!(
        out,
        "small k: deepest nulls, degraded mainbeam; large k: quiescent-like\n\
         beam, shallow nulls — the compromise Appendix A describes."
    )
    .unwrap();
    out
}

/// The forgetting factor's memory decay in the recursive hard-weight QR:
/// after the interferer jumps from 25 to 40 degrees, how much of the old
/// direction's energy remains in the recursion state `R` after each
/// update? (`||R v_old|| / ||R||_F`; 0 dB would mean `R` is entirely
/// about the old direction.) The per-update decay rate is the forgetting
/// factor itself — the paper's "older, exponentially forgotten, data".
pub fn forgetting_sweep() -> String {
    use stap::core::training::hard_snapshot;
    use stap::math::qr::qr_update;
    let mut out = String::new();
    writeln!(
        out,
        "Forgetting-factor sweep: old-direction energy remaining in the\n\
         recursive R state after the interferer jumps from 25 to 40 deg\n\
         (||R v_old|| / ||R||_F, dB)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "forget", "after 1 CPI", "2 CPIs", "4 CPIs", "8 CPIs"
    )
    .unwrap();
    let mut p = StapParams::reduced();
    p.hard_samples = 8;
    let geom = ArrayGeometry::small(p.j_channels);
    let bin = p.hard_bins()[0];
    // Space-time signature of the old interferer at this bin.
    let v_old: Vec<Cx> = {
        let sp = geom.steering(25.0);
        let phase =
            Cx::cis(2.0 * std::f64::consts::PI * bin as f64 * p.stagger as f64 / p.n_pulses as f64);
        let mut v: Vec<Cx> = sp
            .iter()
            .cloned()
            .chain(sp.iter().map(|x| *x * phase))
            .collect();
        let n = (v.iter().map(|x| x.norm_sqr()).sum::<f64>()).sqrt();
        for x in v.iter_mut() {
            *x = x.scale(1.0 / n);
        }
        v
    };
    let old = interferer_staggered(&p, &geom, 25.0, 8.0, 1.0, 0xA11CE);
    let new = interferer_staggered(&p, &geom, 40.0, 8.0, 1.0, 0xB0B);
    for forget in [0.2f64, 0.4, 0.6, 0.8, 0.95] {
        // Build up memory on the old direction.
        let jj = 2 * p.j_channels;
        let mut r = CMat::zeros(jj, jj);
        for _ in 0..4 {
            r = qr_update(&r, forget, &hard_snapshot(&old, &p, bin, 0));
        }
        let mut traj = Vec::new();
        for step in 1..=8 {
            r = qr_update(&r, forget, &hard_snapshot(&new, &p, bin, 0));
            if [1, 2, 4, 8].contains(&step) {
                let rv = r.matvec(&v_old);
                let num = (rv.iter().map(|x| x.norm_sqr()).sum::<f64>()).sqrt();
                traj.push(20.0 * (num / r.fro_norm()).max(1e-12).log10());
            }
        }
        writeln!(
            out,
            "{:>10.2} {:>10.1}dB {:>10.1}dB {:>10.1}dB {:>10.1}dB",
            forget, traj[0], traj[1], traj[2], traj[3]
        )
        .unwrap();
    }
    writeln!(
        out,
        "low forget flushes stale training within a CPI or two; high forget\n\
         holds it for many — stability vs agility, why the paper pairs 0.6\n\
         with a 1-2 Hz azimuth revisit."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_ablation_shows_the_tradeoff() {
        let s = window_ablation();
        assert!(s.contains("Rectangular"));
        assert!(s.contains("Hanning"));
        assert!(s.contains("dB"));
    }

    #[test]
    fn hanning_leaks_far_less_clutter_than_rectangular() {
        // The paper's reason for tapering: sidelobe control. At least
        // 20 dB between no taper and the Hanning default.
        let rect = window_leakage_db(Window::Rectangular);
        let hann = window_leakage_db(Window::Hanning);
        assert!(
            rect - hann > 20.0,
            "rect {rect:.1} dB vs hanning {hann:.1} dB"
        );
    }

    #[test]
    fn rectangular_needs_more_bins_for_the_clutter_passband() {
        // The other side of the tradeoff: worse sidelobes spread the 99%
        // energy set over more bins.
        let (_, rect_bins) = window_metrics(Window::Rectangular);
        let (_, hann_bins) = window_metrics(Window::Hanning);
        assert!(
            rect_bins > hann_bins,
            "rect {rect_bins} bins vs hanning {hann_bins}"
        );
    }

    #[test]
    fn small_constraint_weight_gives_deeper_nulls() {
        let s = constraint_sweep();
        assert!(s.contains("interferer"));
        // Extract first and last interferer columns loosely: just check
        // the rendered table is present with 6 sweep rows.
        assert_eq!(
            s.lines()
                .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
                .count(),
            6
        );
    }

    #[test]
    fn forgetting_memory_decays_monotonically() {
        let s = forgetting_sweep();
        // For every forget factor the trajectory must be non-increasing,
        // and at any step lower forget must retain less old energy.
        let rows: Vec<Vec<f64>> = s
            .lines()
            .filter(|l| l.contains("dB") && l.trim_start().starts_with('0'))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|t| t.trim_end_matches("dB").parse::<f64>().ok())
                    .collect()
            })
            .collect();
        assert_eq!(rows.len(), 5, "expected 5 sweep rows:\n{s}");
        for r in &rows {
            assert_eq!(r.len(), 5, "forget + 4 trajectory points: {r:?}");
            for w in r[1..].windows(2) {
                assert!(w[1] <= w[0] + 0.5, "memory must decay: {r:?}");
            }
        }
        // Cross-row: at the 2-CPI mark, forget 0.2 holds less than 0.95.
        assert!(
            rows[0][2] < rows[4][2] - 3.0,
            "low forget must flush faster: {:?} vs {:?}",
            rows[0],
            rows[4]
        );
    }
}
