//! Task 5: pulse compression.
//!
//! "Pulse compression involves convolution of the received signal with a
//! replica of the transmit pulse waveform. This is accomplished by first
//! performing K-point FFTs on the two inputs, point-wise multiplication
//! of the intermediate result and then computing the inverse FFT." The
//! replica spectrum is precomputed once, so each `(bin, beam)` lane costs
//! one forward FFT, one point-wise multiply, one inverse FFT and a
//! magnitude-squared — the paper's `2 * 5 K log2 K + 6K + 3K` flops.
//!
//! The mainbeam constraint preserves target phase across range, which is
//! why compressing the *beamformed* output (M lanes) instead of every
//! receive channel (J lanes) is legal — the computational saving the
//! paper highlights in Section 3.

use crate::params::StapParams;
use stap_cube::{CCube, RCube};
use stap_math::fft::{Fft, FftScratch};
use stap_math::{flops, simd, Cx};

/// Reusable pulse-compression workspace: one range lane for callers
/// whose input must survive (the in-place form needs none) plus an
/// [`FftScratch`] for non-power-of-two range lengths. Grows on first
/// use and is reused across CPIs.
#[derive(Default)]
pub struct PulseScratch {
    lane: Vec<Cx>,
    fft: FftScratch,
}

impl PulseScratch {
    /// An empty workspace; it grows on first use.
    pub fn new() -> Self {
        PulseScratch::default()
    }
}

/// Reusable pulse-compression state: FFT plan and matched-filter
/// spectrum.
pub struct PulseCompressor {
    k: usize,
    fft: Fft,
    /// Conjugated replica spectrum (matched filter), length `K`.
    filter: Vec<Cx>,
}

impl PulseCompressor {
    /// Builds the compressor for `params`, using a linear-FM (chirp)
    /// replica of `params.replica_len` samples.
    pub fn new(params: &StapParams) -> Self {
        let k = params.k_range;
        let fft = Fft::new(k);
        let replica = chirp(params.replica_len);
        let mut padded = vec![Cx::default(); k];
        padded[..replica.len()].copy_from_slice(&replica);
        fft.forward(&mut padded);
        let filter = padded.iter().map(|x| x.conj()).collect();
        PulseCompressor { k, fft, filter }
    }

    /// The matched-filter spectrum (for inspection/tests).
    pub fn filter_spectrum(&self) -> &[Cx] {
        &self.filter
    }

    /// Compresses a beamformed cube `(N, M, K)` into real power
    /// `(N, M, K)`.
    pub fn process(&self, beamformed: &CCube) -> RCube {
        let mut out = RCube::zeros(beamformed.shape());
        self.process_into_with(beamformed, &mut out, &mut PulseScratch::new());
        out
    }

    /// [`PulseCompressor::process`] into a caller-provided cube of the
    /// same shape, leaving `beamformed` intact: each lane is copied into
    /// the workspace and run through [`Self::compress_in_place`].
    /// Allocates nothing once the workspace is warm.
    pub fn process_into_with(&self, beamformed: &CCube, out: &mut RCube, ws: &mut PulseScratch) {
        let k = self.k;
        assert_eq!(beamformed.shape()[2], k, "range length mismatch");
        assert_eq!(out.shape(), beamformed.shape(), "output shape");
        ws.lane.resize(k, Cx::default());
        let PulseScratch { lane, fft } = ws;
        let lanes = beamformed.as_slice().chunks_exact(k);
        for (src, power) in lanes.zip(out.as_mut_slice().chunks_exact_mut(k)) {
            lane.copy_from_slice(src);
            self.compress_in_place(lane, power, fft);
        }
    }

    /// The pulse-compression kernel loop: every `K`-long range lane of
    /// `lanes` goes forward FFT, matched-filter multiply, inverse FFT
    /// and magnitude-squared into the matching lane of `power` while it
    /// is cache-resident. `lanes` is consumed as scratch (it is left
    /// holding the compressed complex lanes). A lane's result does not
    /// depend on which other lanes it is processed with.
    pub fn compress_in_place(&self, lanes: &mut [Cx], power: &mut [f64], fft: &mut FftScratch) {
        let k = self.k;
        assert_eq!(lanes.len() % k, 0, "range length mismatch");
        assert_eq!(power.len(), lanes.len(), "output shape");
        for (lane, power) in lanes.chunks_exact_mut(k).zip(power.chunks_exact_mut(k)) {
            self.fft.forward_with_scratch(lane, fft);
            simd::cmul_in_place(lane, &self.filter);
            self.fft.inverse_with_scratch(lane, fft);
            simd::norm_sqr_into(power, lane);
        }
        // The matched-filter multiply and |.|^2 per cell.
        flops::add((flops::CMUL + 3) * lanes.len() as u64);
    }
}

pub use stap_radar::waveform::chirp;

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> StapParams {
        StapParams::reduced()
    }

    /// The whole-cube sequence the kernel loop replaced, kept as its
    /// oracle: every pass crosses all lanes before the next starts.
    fn whole_cube_passes(pc: &PulseCompressor, beamformed: &CCube) -> RCube {
        let mut spec = beamformed.as_slice().to_vec();
        let mut fft = FftScratch::new();
        pc.fft.forward_lanes(&mut spec, &mut fft);
        for lane in spec.chunks_exact_mut(pc.k) {
            simd::cmul_in_place(lane, &pc.filter);
        }
        pc.fft.inverse_lanes(&mut spec, &mut fft);
        let mut out = RCube::zeros(beamformed.shape());
        simd::norm_sqr_into(out.as_mut_slice(), &spec);
        out
    }

    #[test]
    fn per_lane_loop_matches_whole_cube_passes_bitwise() {
        use stap_util::check::check;
        check("per_lane_loop_matches_whole_cube_passes_bitwise", 24, |g| {
            let mut p = params();
            // Radix-4, radix-2 and Bluestein range lengths.
            p.k_range = g.choose(&[64, 32, 48]);
            p.replica_len = 8;
            let pc = PulseCompressor::new(&p);
            let (n, m) = (g.int(0, 6), g.int(1, 5));
            let cube = CCube::from_fn([n, m, p.k_range], |_, _, _| {
                Cx::new(g.float(-10.0, 10.0), g.float(-10.0, 10.0))
            });
            let want = whole_cube_passes(&pc, &cube);
            let bits =
                |c: &RCube| -> Vec<u64> { c.as_slice().iter().map(|v| v.to_bits()).collect() };
            let mut ws = PulseScratch::new();
            let mut got = RCube::zeros(cube.shape());
            pc.process_into_with(&cube, &mut got, &mut ws);
            assert_eq!(bits(&got), bits(&want), "copying form, {n}x{m} lanes");
            // In place, the lanes in two runs cut anywhere: a lane
            // processed alone is the lane processed in a cube.
            let mut data = cube.clone();
            let mut got = RCube::zeros(cube.shape());
            let cut = g.int(0, n * m + 1) * p.k_range;
            let (d0, d1) = data.as_mut_slice().split_at_mut(cut);
            let (p0, p1) = got.as_mut_slice().split_at_mut(cut);
            pc.compress_in_place(d1, p1, &mut ws.fft);
            pc.compress_in_place(d0, p0, &mut ws.fft);
            assert_eq!(bits(&got), bits(&want), "in place, cut at {cut}");
        });
    }

    #[test]
    fn chirp_has_unit_energy_and_flat_magnitude() {
        let c = chirp(16);
        let e: f64 = c.iter().map(|x| x.norm_sqr()).sum();
        assert!((e - 1.0).abs() < 1e-12);
        for x in &c {
            assert!((x.abs() - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn point_echo_compresses_to_a_peak_at_its_range() {
        let p = params();
        let pc = PulseCompressor::new(&p);
        // Synthesize an echo: the replica starting at range cell r0.
        let r0 = 20;
        let replica = chirp(p.replica_len);
        let mut cube = CCube::zeros([1, 1, p.k_range]);
        for (i, v) in replica.iter().enumerate() {
            cube[(0, 0, r0 + i)] = *v;
        }
        let out = pc.process(&cube);
        let lane = out.lane(0, 0);
        let (peak_idx, peak) = lane
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert_eq!(peak_idx, r0, "matched filter must peak at echo start");
        // Peak equals replica energy squared = 1; sidelobes well below.
        assert!((peak - 1.0).abs() < 1e-9);
        let side = lane
            .iter()
            .enumerate()
            .filter(|(i, _)| i.abs_diff(r0) > 2)
            .map(|(_, v)| *v)
            .fold(0.0, f64::max);
        assert!(side < 0.5 * peak, "sidelobe {side} vs peak {peak}");
    }

    #[test]
    fn compression_gain_against_noise() {
        // A full-length echo at SNR 1 should emerge with ~replica_len
        // gain after compression.
        let p = params();
        let pc = PulseCompressor::new(&p);
        let mut state = 99u64;
        let mut rngf = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let replica = chirp(p.replica_len);
        let amp = (1.0 / replica[0].norm_sqr()).sqrt(); // per-sample SNR 1 vs noise var ~1/12*2
        let r0 = 30;
        let mut cube = CCube::from_fn([1, 1, p.k_range], |_, _, _| {
            Cx::new(rngf(), rngf()).scale(0.5)
        });
        for (i, v) in replica.iter().enumerate() {
            cube[(0, 0, r0 + i)] += v.scale(amp);
        }
        let out = pc.process(&cube);
        let lane = out.lane(0, 0);
        let peak = lane[r0];
        let mean: f64 = lane
            .iter()
            .enumerate()
            .filter(|(i, _)| i.abs_diff(r0) > p.replica_len)
            .map(|(_, v)| *v)
            .sum::<f64>()
            / (p.k_range - 2 * p.replica_len) as f64;
        assert!(
            peak / mean > 5.0,
            "integration gain too small: {}",
            peak / mean
        );
    }

    #[test]
    fn output_is_nonnegative_power() {
        let p = params();
        let pc = PulseCompressor::new(&p);
        let cube = CCube::from_fn([p.n_pulses, p.m_beams, p.k_range], |a, b, c| {
            Cx::new(((a + b + c) % 5) as f64 - 2.0, ((a * b + c) % 3) as f64)
        });
        let out = pc.process(&cube);
        assert!(out.as_slice().iter().all(|&v| v >= 0.0));
        assert_eq!(out.shape(), cube.shape());
    }

    #[test]
    fn flop_count_matches_paper_formula() {
        let p = params();
        let pc = PulseCompressor::new(&p);
        let cube = CCube::zeros([2, 3, p.k_range]);
        let ((), counted) = flops::count(|| {
            let _ = pc.process(&cube);
        });
        let k = p.k_range as u64;
        let logk = (p.k_range as f64).log2() as u64;
        let per_lane = 2 * 5 * k * logk + 6 * k + 3 * k;
        assert_eq!(counted, 6 * per_lane);
    }
}
