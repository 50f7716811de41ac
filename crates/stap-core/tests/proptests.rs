//! Property-based tests over the STAP signal-processing chain
//! (in-tree harness; see `stap_util::check`).

use stap_core::cfar::{cfar, Detection};
use stap_core::doppler::DopplerProcessor;
use stap_core::params::StapParams;
use stap_core::pulse::PulseCompressor;
use stap_core::training::{easy_training_cells, hard_training_cells};
use stap_core::weights::{
    EasyWeightComputer, EasyWeightLanes, HardWeightComputer, HardWeightLanes, HardWeightScratch,
    HardWeights,
};
use stap_cube::{CCube, RCube};
use stap_math::{CMat, Cx};
use stap_util::check::{check, Gen};

fn params() -> StapParams {
    StapParams::reduced()
}

fn cx(g: &mut Gen) -> Cx {
    Cx::new(g.float(-10.0, 10.0), g.float(-10.0, 10.0))
}

fn cpi_cube(g: &mut Gen, p: &StapParams) -> CCube {
    let shape = [p.k_range, p.j_channels, p.n_pulses];
    let v = g.vec(shape[0] * shape[1] * shape[2], cx);
    CCube::from_vec(shape, v)
}

#[test]
fn doppler_processing_is_linear() {
    check("doppler_processing_is_linear", 12, |g| {
        let p = params();
        let cpi = cpi_cube(g, &p);
        let proc = DopplerProcessor::new(&p);
        let doubled = cpi.map(|x| x.scale(2.0));
        let a = proc.process(&cpi);
        let b = proc.process(&doubled);
        // Output scales exactly with input.
        let mut max_err = 0.0f64;
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            max_err = max_err.max((x.scale(2.0) - *y).abs());
        }
        assert!(max_err < 1e-9);
    });
}

#[test]
fn doppler_energy_bounded_by_input() {
    check("doppler_energy_bounded_by_input", 12, |g| {
        // The taper has coefficients <= 1 and the FFT is energy-
        // preserving up to a factor N, so output energy is bounded by
        // 2N x input energy (two windows).
        let p = params();
        let cpi = cpi_cube(g, &p);
        let proc = DopplerProcessor::new(&p);
        let out = proc.process(&cpi);
        let ein: f64 = cpi.as_slice().iter().map(|x| x.norm_sqr()).sum();
        let eout: f64 = out.as_slice().iter().map(|x| x.norm_sqr()).sum();
        assert!(eout <= 2.0 * p.n_pulses as f64 * ein + 1e-6);
    });
}

#[test]
fn pulse_compression_output_power_matches_parseval() {
    check("pulse_compression_output_power_matches_parseval", 12, |g| {
        // Matched filter has unit-energy taps; total output energy
        // equals sum |X(f)|^2 |H(f)|^2 / K <= max|H|^2 * input energy.
        let p = params();
        let lanes = g.vec(64, cx);
        let pc = PulseCompressor::new(&p);
        let cube = CCube::from_vec([1, 1, 64], lanes);
        let out = pc.process(&cube);
        let ein: f64 = cube.as_slice().iter().map(|x| x.norm_sqr()).sum();
        let eout: f64 = out.as_slice().iter().sum();
        let hmax: f64 = pc
            .filter_spectrum()
            .iter()
            .map(|h| h.norm_sqr())
            .fold(0.0, f64::max);
        assert!(eout <= hmax * ein * (1.0 + 1e-9) + 1e-9);
    });
}

#[test]
fn cfar_detections_are_scale_invariant() {
    check("cfar_detections_are_scale_invariant", 12, |g| {
        // Multiplying the whole power cube by a positive constant must
        // not change the detection set (threshold is relative).
        let p = params();
        let seeds = g.vec(32, |g| g.float(0.1, 100.0));
        let scale = g.float(0.01, 1000.0);
        let cube = RCube::from_fn([p.n_pulses, p.m_beams, p.k_range], |a, b, c| {
            seeds[(a * 13 + b * 7 + c) % 32] * (1.0 + ((a + b + c) % 5) as f64)
        });
        let scaled = cube.map(|v| v * scale);
        let key = |d: &Detection| (d.bin, d.beam, d.range);
        let a: Vec<_> = cfar(&p, &cube).iter().map(key).collect();
        let b: Vec<_> = cfar(&p, &scaled).iter().map(key).collect();
        assert_eq!(a, b);
    });
}

#[test]
fn cfar_monotone_in_threshold_scale() {
    check("cfar_monotone_in_threshold_scale", 12, |g| {
        let mut p = params();
        let seeds = g.vec(16, |g| g.float(0.5, 50.0));
        let cube = RCube::from_fn([p.n_pulses, p.m_beams, p.k_range], |a, b, c| {
            seeds[(a * 5 + b * 3 + c) % 16] * (1.0 + ((a * c + b) % 7) as f64)
        });
        p.cfar_scale = 2.0;
        let many = cfar(&p, &cube).len();
        p.cfar_scale = 8.0;
        let few = cfar(&p, &cube).len();
        assert!(few <= many, "{few} > {many}");
    });
}

#[test]
fn detections_lie_within_cube_bounds() {
    check("detections_lie_within_cube_bounds", 12, |g| {
        let p = params();
        let seeds = g.vec(8, |g| g.float(0.1, 10.0));
        let cube = RCube::from_fn([p.n_pulses, p.m_beams, p.k_range], |a, b, c| {
            seeds[(a + b + c) % 8] * if (a * b + c) % 97 == 0 { 100.0 } else { 1.0 }
        });
        for d in cfar(&p, &cube) {
            assert!(d.bin < p.n_pulses);
            assert!(d.beam < p.m_beams);
            assert!(d.range < p.k_range);
            assert!(d.power > d.threshold);
        }
    });
}

#[test]
fn stagger_windows_agree_on_magnitude_for_tones() {
    check("stagger_windows_agree_on_magnitude_for_tones", 12, |g| {
        // Both windows see the same tone power; only phase differs.
        let p = params();
        let bin = g.int(0, p.n_pulses);
        let proc = DopplerProcessor::new(&p);
        let cpi = CCube::from_fn([4, p.j_channels, p.n_pulses], |_, _, n| {
            Cx::cis(2.0 * std::f64::consts::PI * bin as f64 * n as f64 / p.n_pulses as f64)
        });
        let mut out = CCube::zeros([4, 2 * p.j_channels, p.n_pulses]);
        proc.process_rows(&cpi, 0, &mut out);
        let w0 = out[(0, 0, bin)].abs();
        let w1 = out[(0, p.j_channels, bin)].abs();
        assert!((w0 - w1).abs() < 1e-6 * w0.max(1.0), "{w0} vs {w1}");
    });
}

mod weight_properties {
    use super::*;
    use stap_core::weights::{EasyWeightComputer, HardWeightComputer};
    use stap_radar::ArrayGeometry;

    fn staggered_cube(g: &mut Gen, p: &StapParams) -> CCube {
        let shape = [p.k_range, 2 * p.j_channels, p.n_pulses];
        let v = g.vec(shape[0] * shape[1] * shape[2], |g| {
            Cx::new(g.float(-50.0, 50.0), g.float(-50.0, 50.0))
        });
        CCube::from_vec(shape, v)
    }

    fn tiny_params() -> StapParams {
        let mut p = StapParams::reduced();
        // Shrink so the many weight solves stay fast.
        p.k_range = 24;
        p.n_pulses = 16;
        p.n_hard = 6;
        p.range_segments = vec![0, 12, 24];
        p.easy_samples_per_cpi = 8;
        p.hard_samples = 8;
        p.replica_len = 4;
        p.cfar_window = 8;
        p.validate().unwrap();
        p
    }

    #[test]
    fn easy_weights_always_unit_norm_and_finite() {
        check("easy_weights_always_unit_norm_and_finite", 8, |g| {
            let p = tiny_params();
            let cube = staggered_cube(g, &p);
            let geom = ArrayGeometry::small(p.j_channels);
            let steering = geom.beam_fan(0.0, 10.0, p.m_beams);
            let mut c = EasyWeightComputer::new(&p);
            let w = c.process(0, &cube, &steering);
            for wb in &w.per_bin {
                assert!(wb.is_finite());
                for m in 0..p.m_beams {
                    let n: f64 = (0..p.j_channels).map(|j| wb[(j, m)].norm_sqr()).sum();
                    assert!((n - 1.0).abs() < 1e-8, "norm {n}");
                }
            }
        });
    }

    #[test]
    fn hard_weights_always_unit_norm_and_finite() {
        check("hard_weights_always_unit_norm_and_finite", 8, |g| {
            let p = tiny_params();
            let cube = staggered_cube(g, &p);
            let geom = ArrayGeometry::small(p.j_channels);
            let steering = geom.beam_fan(0.0, 10.0, p.m_beams);
            let mut c = HardWeightComputer::new(&p);
            // Two updates to exercise the recursion too.
            let _ = c.process(0, &cube, &steering);
            let w = c.process(0, &cube, &steering);
            for per_seg in &w.per_bin {
                for wm in per_seg {
                    assert!(wm.is_finite());
                    for m in 0..p.m_beams {
                        let n: f64 = (0..2 * p.j_channels).map(|r| wm[(r, m)].norm_sqr()).sum();
                        assert!((n - 1.0).abs() < 1e-8, "norm {n}");
                    }
                }
            }
        });
    }

    #[test]
    fn weight_scale_invariance() {
        check("weight_scale_invariance", 8, |g| {
            // Scaling the training data leaves the (normalized) weights
            // unchanged: the constraint k tracks mean_abs, so the whole
            // system is homogeneous.
            let p = tiny_params();
            let cube = staggered_cube(g, &p);
            let scale = g.float(0.1, 10.0);
            let geom = ArrayGeometry::small(p.j_channels);
            let steering = geom.beam_fan(0.0, 10.0, p.m_beams);
            let scaled = cube.map(|x| x.scale(scale));
            let mut a = EasyWeightComputer::new(&p);
            let mut b = EasyWeightComputer::new(&p);
            let wa = a.process(0, &cube, &steering);
            let wb = b.process(0, &scaled, &steering);
            for (ma, mb) in wa.per_bin.iter().zip(&wb.per_bin) {
                // Up to a unit phase per column.
                for m in 0..p.m_beams {
                    let mut dot = Cx::new(0.0, 0.0);
                    for j in 0..p.j_channels {
                        dot += ma[(j, m)].conj() * mb[(j, m)];
                    }
                    assert!((dot.abs() - 1.0).abs() < 1e-6, "|dot| {}", dot.abs());
                }
            }
        });
    }
}

/// The lane-batched hard recursion against the sequential one, bit for
/// bit: ten CPIs revisiting five azimuths, owned-bin counts that fill a
/// vector exactly, leave one to three padding lanes or are a single bin,
/// and training rows arriving in two pieces that cut through a segment.
/// Half way, the factors are exported and carried into a fresh owner.
#[test]
fn hard_weight_lanes_match_sequential_recursion_bitwise() {
    let mut p = params();
    (p.n_pulses, p.n_hard) = (64, 56);
    p.validate().unwrap();
    let (beams, cpis, jj) = (5usize, 10usize, 2 * p.j_channels);
    let segs = p.num_segments();
    let hard_bins = p.hard_bins();
    let mut g = Gen::from_seed(0x1998);
    let steering: Vec<CMat> = (0..beams)
        .map(|_| CMat::from_fn(p.j_channels, p.m_beams, |_, _| cx(&mut g)))
        .collect();
    let cubes: Vec<CCube> = (0..cpis)
        .map(|_| CCube::from_fn([p.k_range, jj, p.n_pulses], |_, _, _| cx(&mut g)))
        .collect();

    let mut seq = HardWeightComputer::new(&p);
    let mut ws = HardWeightScratch::new(&p);
    let want: Vec<HardWeights> = cubes
        .iter()
        .enumerate()
        .map(|(i, cube)| {
            let mut w = HardWeights::zeros(&p, p.m_beams);
            seq.process_into(i % beams, cube, &steering[i % beams], &mut w, &mut ws);
            w
        })
        .collect();

    // Two Doppler nodes' worth of pieces: range cells below and from 24,
    // which splits the second segment's training rows between them.
    let cut = 24;
    let cells: [Vec<Vec<usize>>; 2] = [0..cut, cut..p.k_range].map(|kr| {
        (0..segs)
            .map(|s| {
                let mut c = hard_training_cells(&p, s);
                c.retain(|k| kr.contains(k));
                c
            })
            .collect()
    });
    assert!(
        cells.iter().all(|piece| !piece[1].is_empty()),
        "segment 1 is split"
    );
    let piece_rows: Vec<Vec<usize>> = cells
        .iter()
        .map(|piece| piece.iter().map(Vec::len).collect())
        .collect();

    for (first, count) in [(0, 56), (3, 1), (9, 3), (20, 4), (41, 7)] {
        let bins = &hard_bins[first..first + count];
        // The wire form of one CPI: per piece, `[bin][cell][2J]`.
        let wire = |cube: &CCube| -> [Vec<Cx>; 2] {
            [0, 1].map(|piece| {
                let mut block = Vec::new();
                for &bin in bins {
                    for &k in cells[piece].iter().flatten() {
                        block.extend((0..jj).map(|ch| cube[(k, ch, bin)]));
                    }
                }
                block
            })
        };
        let mut lanes = HardWeightLanes::<usize>::new(&p, bins, &piece_rows);
        for (i, cube) in cubes.iter().enumerate() {
            if i == cpis / 2 {
                let mut carried = HardWeightLanes::new(&p, bins, &piece_rows);
                for (key, bin, seg, r) in lanes.export() {
                    carried.import(key, bin, seg, &r);
                }
                lanes = carried;
            }
            let blocks = wire(cube);
            let mut got: Vec<Vec<CMat>> = vec![vec![CMat::zeros(0, 0); segs]; count];
            lanes.process(
                i % beams,
                &steering[i % beams],
                |piece, b| {
                    let plane = blocks[piece].len() / count;
                    &blocks[piece][b * plane..(b + 1) * plane]
                },
                got.iter_mut().map(Vec::as_mut_slice),
            );
            for (b, per_seg) in got.iter().enumerate() {
                for (seg, w) in per_seg.iter().enumerate() {
                    let reference = &want[i].per_bin[first + b][seg];
                    assert_eq!(w.shape(), reference.shape());
                    for (a, r) in w.as_slice().iter().zip(reference.as_slice()) {
                        assert!(
                            a.re.to_bits() == r.re.to_bits() && a.im.to_bits() == r.im.to_bits(),
                            "{count} bins from {first}: CPI {i} bin {b} segment {seg}: {a:?} != {r:?}"
                        );
                    }
                }
            }
        }
    }
}

/// The lane-batched easy weights against `EasyWeightComputer::process`,
/// bit for bit: twenty CPIs revisiting five azimuths, so every history
/// warms up through one, two and three CPIs and then evicts; owned-bin
/// counts that fill a vector exactly, leave one to three padding lanes,
/// are a single bin or all 72; training rows arriving in two pieces.
/// Half way (histories two deep) the rings are exported and carried into
/// a fresh owner.
#[test]
fn easy_weight_lanes_match_sequential_history_bitwise() {
    let mut p = params();
    (p.n_pulses, p.n_hard) = (80, 8);
    p.validate().unwrap();
    assert_eq!(p.n_easy(), 72);
    let (beams, cpis, j) = (5usize, 20usize, p.j_channels);
    let easy_bins = p.easy_bins();
    let mut g = Gen::from_seed(0x1998_0330);
    let steering: Vec<CMat> = (0..beams)
        .map(|_| CMat::from_fn(j, p.m_beams, |_, _| cx(&mut g)))
        .collect();
    let cubes: Vec<CCube> = (0..cpis)
        .map(|_| CCube::from_fn([p.k_range, 2 * j, p.n_pulses], |_, _, _| cx(&mut g)))
        .collect();

    let mut seq = EasyWeightComputer::new(&p);
    let want: Vec<Vec<CMat>> = cubes
        .iter()
        .enumerate()
        .map(|(i, cube)| seq.process(i % beams, cube, &steering[i % beams]).per_bin)
        .collect();

    // Two Doppler nodes' worth of pieces.
    let cut = 10;
    let cells: [Vec<usize>; 2] = [0..cut, cut..p.k_range].map(|kr| {
        let mut c = easy_training_cells(&p);
        c.retain(|k| kr.contains(k));
        c
    });
    assert!(
        cells.iter().all(|piece| !piece.is_empty()),
        "rows are split"
    );
    let piece_rows: Vec<usize> = cells.iter().map(Vec::len).collect();

    for (first, count) in [(0, 72), (5, 1), (9, 3), (20, 4), (41, 7)] {
        let bins = &easy_bins[first..first + count];
        // The wire form of one CPI: per piece, `[bin][cell][J]`.
        let wire = |cube: &CCube| -> [Vec<Cx>; 2] {
            [0, 1].map(|piece| {
                let mut block = Vec::new();
                for &bin in bins {
                    for &k in &cells[piece] {
                        block.extend((0..j).map(|ch| cube[(k, ch, bin)]));
                    }
                }
                block
            })
        };
        let mut lanes = EasyWeightLanes::<usize>::new(&p, count, &piece_rows);
        for (i, cube) in cubes.iter().enumerate() {
            if i == cpis / 2 {
                let mut carried = EasyWeightLanes::new(&p, count, &piece_rows);
                for (key, bin, history) in lanes.export() {
                    assert_eq!(history.len(), 2, "two CPIs per azimuth so far");
                    carried.import(key, bin, &history);
                }
                lanes = carried;
            }
            let blocks = wire(cube);
            let mut got = vec![CMat::zeros(0, 0); count];
            lanes.process(
                i % beams,
                &steering[i % beams],
                |piece, b| {
                    let plane = blocks[piece].len() / count;
                    &blocks[piece][b * plane..(b + 1) * plane]
                },
                got.iter_mut(),
            );
            for (b, w) in got.iter().enumerate() {
                let reference = &want[i][first + b];
                assert_eq!(w.shape(), reference.shape());
                for (a, r) in w.as_slice().iter().zip(reference.as_slice()) {
                    assert!(
                        a.re.to_bits() == r.re.to_bits() && a.im.to_bits() == r.im.to_bits(),
                        "{count} bins from {first}: CPI {i} bin {b}: {a:?} != {r:?}"
                    );
                }
            }
        }
    }
}
