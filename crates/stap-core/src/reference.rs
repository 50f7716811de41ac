//! The sequential reference pipeline.
//!
//! One object that runs the whole STAP chain CPI by CPI, with the
//! paper's temporal dependency: the weights applied to CPI `i` were
//! computed from data up to CPI `i-1` in the same azimuth (quiescent
//! steering weights until an azimuth has history). The parallel pipeline
//! must match this implementation's output exactly — that equivalence is
//! the core integration invariant of the reproduction.

use crate::beamform::{
    easy_beamform, easy_beamform_into, hard_beamform, hard_beamform_into, interleave_bins,
    interleave_bins_into,
};
use crate::cfar::{cfar, cfar_lane, Detection};
use crate::doppler::DopplerProcessor;
use crate::params::StapParams;
use crate::pulse::{PulseCompressor, PulseScratch};
use crate::weights::{EasyWeightComputer, EasyWeights, HardWeightComputer, HardWeights};
use stap_cube::{CCube, RCube};
use stap_math::CMat;
use stap_radar::Scenario;
use std::collections::HashMap;

/// Everything one CPI produces (detections plus the intermediates tests
/// and diagnostics want).
pub struct CpiOutput {
    /// CFAR detections in (bin, beam, range) order.
    pub detections: Vec<Detection>,
    /// Pulse-compressed power, `(N, M, K)`.
    pub power: RCube,
    /// Beamformed cube in natural bin order, `(N, M, K)`.
    pub beamformed: CCube,
    /// Staggered Doppler cube, `(K, 2J, N)`.
    pub staggered: CCube,
}

/// Reusable buffers for allocation-free steady-state processing (the
/// "workhorse collections" idiom): create once with
/// [`CpiWorkspace::new`], then call
/// [`SequentialStap::process_cpi_reusing`] per CPI.
pub struct CpiWorkspace {
    staggered: CCube,
    easy_out: CCube,
    hard_out: CCube,
    beamformed: CCube,
    power: RCube,
    pulse: PulseScratch,
    detections: Vec<Detection>,
}

impl CpiWorkspace {
    /// Allocates all buffers for the given parameters.
    pub fn new(params: &StapParams) -> Self {
        let (k, j, n, m) = (
            params.k_range,
            params.j_channels,
            params.n_pulses,
            params.m_beams,
        );
        CpiWorkspace {
            staggered: CCube::zeros([k, 2 * j, n]),
            easy_out: CCube::zeros([params.n_easy(), m, k]),
            hard_out: CCube::zeros([params.n_hard, m, k]),
            beamformed: CCube::zeros([n, m, k]),
            power: RCube::zeros([n, m, k]),
            pulse: PulseScratch::new(),
            detections: Vec::new(),
        }
    }

    /// Detections of the most recent `process_cpi_reusing` call.
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Power cube of the most recent call.
    pub fn power(&self) -> &RCube {
        &self.power
    }
}

/// The sequential STAP processor.
pub struct SequentialStap {
    /// Algorithm parameters.
    pub params: StapParams,
    /// Steering matrix (`J x M`) per transmit-beam index.
    pub steering: Vec<CMat>,
    doppler: DopplerProcessor,
    pulse: PulseCompressor,
    easy: EasyWeightComputer,
    hard: HardWeightComputer,
    /// Weights to apply to the *next* CPI of each azimuth.
    pending: HashMap<usize, (EasyWeights, HardWeights)>,
}

impl SequentialStap {
    /// Builds the processor from explicit steering matrices (one per
    /// transmit-beam position).
    pub fn new(params: StapParams, steering: Vec<CMat>) -> Self {
        params.validate().expect("invalid parameters");
        assert!(!steering.is_empty(), "need at least one steering matrix");
        for s in &steering {
            assert_eq!(
                s.shape(),
                (params.j_channels, params.m_beams),
                "steering must be J x M"
            );
        }
        SequentialStap {
            doppler: DopplerProcessor::new(&params),
            pulse: PulseCompressor::new(&params),
            easy: EasyWeightComputer::new(&params),
            hard: HardWeightComputer::new(&params),
            pending: HashMap::new(),
            params,
            steering,
        }
    }

    /// Convenience: derive the steering fans from a scenario (one fan of
    /// `M` receive beams per transmit-beam position, spanning half the
    /// transmit beamwidth).
    pub fn for_scenario(params: StapParams, scenario: &Scenario) -> Self {
        assert_eq!(
            scenario.geom.channels, params.j_channels,
            "scenario channels must match params"
        );
        assert_eq!(scenario.range_cells, params.k_range);
        assert_eq!(scenario.pulses, params.n_pulses);
        let steering = scenario
            .transmit_beams
            .iter()
            .map(|&c| {
                scenario
                    .geom
                    .beam_fan(c, scenario.beam_half_width_deg / 2.0, params.m_beams)
            })
            .collect();
        SequentialStap::new(params, steering)
    }

    /// Weights that will be applied to the next CPI of `beam`
    /// (quiescent until that azimuth has history).
    pub fn weights_for(&self, beam: usize) -> (EasyWeights, HardWeights) {
        match self.pending.get(&beam) {
            Some(w) => w.clone(),
            None => (
                self.easy.quiescent(&self.steering[beam]),
                self.hard.quiescent(&self.steering[beam]),
            ),
        }
    }

    /// Processes one CPI for transmit-beam index `beam`, returning
    /// detections and intermediates, and updating the weight state for
    /// this azimuth's next CPI.
    pub fn process_cpi(&mut self, beam: usize, cpi: &CCube) -> CpiOutput {
        assert!(beam < self.steering.len(), "beam index out of range");
        let staggered = self.doppler.process(cpi);

        // Apply the weights computed from *previous* CPIs of this azimuth.
        let (we, wh) = self.weights_for(beam);
        let easy_out = easy_beamform(&self.params, &staggered, &we);
        let hard_out = hard_beamform(&self.params, &staggered, &wh);
        let beamformed = interleave_bins(&self.params, &easy_out, &hard_out);

        let power = self.pulse.process(&beamformed);
        let detections = cfar(&self.params, &power);

        // Update the weight state with this CPI's data (for the next
        // visit to this azimuth).
        let steering = &self.steering[beam];
        let new_easy = self.easy.process(beam, &staggered, steering);
        let new_hard = self.hard.process(beam, &staggered, steering);
        self.pending.insert(beam, (new_easy, new_hard));

        CpiOutput {
            detections,
            power,
            beamformed,
            staggered,
        }
    }

    /// Allocation-free variant of [`SequentialStap::process_cpi`]: all
    /// intermediates live in `ws` (results via [`CpiWorkspace::detections`]
    /// / [`CpiWorkspace::power`]). Produces identical results.
    pub fn process_cpi_reusing(&mut self, beam: usize, cpi: &CCube, ws: &mut CpiWorkspace) {
        assert!(beam < self.steering.len(), "beam index out of range");
        self.doppler.process_rows(cpi, 0, &mut ws.staggered);

        let (we, wh) = self.weights_for(beam);
        easy_beamform_into(&self.params, &ws.staggered, &we, &mut ws.easy_out);
        hard_beamform_into(&self.params, &ws.staggered, &wh, &mut ws.hard_out);
        interleave_bins_into(&self.params, &ws.easy_out, &ws.hard_out, &mut ws.beamformed);

        self.pulse
            .process_into_with(&ws.beamformed, &mut ws.power, &mut ws.pulse);
        ws.detections.clear();
        for bin in 0..self.params.n_pulses {
            for m in 0..self.params.m_beams {
                cfar_lane(
                    &self.params,
                    ws.power.lane(bin, m),
                    bin,
                    m,
                    &mut ws.detections,
                );
            }
        }

        let steering = &self.steering[beam];
        let new_easy = self.easy.process(beam, &ws.staggered, steering);
        let new_hard = self.hard.process(beam, &ws.staggered, steering);
        self.pending.insert(beam, (new_easy, new_hard));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_radar::Target;

    fn setup() -> (SequentialStap, Scenario) {
        let params = StapParams::reduced();
        let scenario = Scenario::reduced(42);
        let stap = SequentialStap::for_scenario(params, &scenario);
        (stap, scenario)
    }

    #[test]
    fn detects_injected_target_after_training() {
        let (mut stap, mut scenario) = setup();
        scenario.targets = vec![Target::fixed(30, 0.25, 2.0, 10.0)];
        // Expected Doppler bin: 0.25 cycles/pulse * 32 pulses = bin 8.
        let mut hit = false;
        for (i, _beam, cpi) in scenario.stream(6) {
            let out = stap.process_cpi(0, &cpi);
            if i >= 2 {
                hit |= out
                    .detections
                    .iter()
                    .any(|d| d.range.abs_diff(30) <= 1 && d.bin.abs_diff(8) <= 1);
            }
        }
        assert!(hit, "target never detected after training CPIs");
    }

    #[test]
    fn clutter_is_suppressed_relative_to_quiescent() {
        // Compare adapted vs quiescent beamformed power in the hard bins:
        // after training, clutter power must drop.
        let (mut stap, scenario) = setup();
        let mut first_power = 0.0;
        let mut later_power = 0.0;
        for (i, _beam, cpi) in scenario.stream(5) {
            let out = stap.process_cpi(0, &cpi);
            // Hard bins are 0..7 and 25..32 in the reduced geometry.
            let hard_power: f64 = stap
                .params
                .hard_bins()
                .iter()
                .map(|&b| {
                    (0..stap.params.m_beams)
                        .map(|m| out.power.lane(b, m).iter().sum::<f64>())
                        .sum::<f64>()
                })
                .sum();
            if i == 0 {
                first_power = hard_power; // quiescent weights
            }
            later_power = hard_power;
        }
        assert!(
            later_power < 0.2 * first_power,
            "adaptive weights did not suppress clutter: first {first_power:.3e}, later {later_power:.3e}"
        );
    }

    #[test]
    fn azimuths_keep_independent_weight_state() {
        let params = StapParams::reduced();
        let mut scenario = Scenario::reduced(11);
        scenario.transmit_beams = vec![-20.0, 20.0];
        let mut stap = SequentialStap::for_scenario(params, &scenario);
        let cpi0 = scenario.generate_cpi(0); // beam 0
        let _ = stap.process_cpi(0, &cpi0);
        // Beam 1 has no history: weights must be quiescent.
        let (we1, _) = stap.weights_for(1);
        let q = stap.easy.quiescent(&stap.steering[1]);
        assert!(we1.per_bin[0].max_abs_diff(&q.per_bin[0]) < 1e-12);
        // Beam 0 has history: weights must differ from quiescent.
        let (we0, _) = stap.weights_for(0);
        let q0 = stap.easy.quiescent(&stap.steering[0]);
        assert!(we0.per_bin[0].max_abs_diff(&q0.per_bin[0]) > 1e-6);
    }

    #[test]
    fn output_shapes_are_consistent() {
        let (mut stap, scenario) = setup();
        let cpi = scenario.generate_cpi(0);
        let out = stap.process_cpi(0, &cpi);
        let p = &stap.params;
        assert_eq!(
            out.staggered.shape(),
            [p.k_range, 2 * p.j_channels, p.n_pulses]
        );
        assert_eq!(out.beamformed.shape(), [p.n_pulses, p.m_beams, p.k_range]);
        assert_eq!(out.power.shape(), [p.n_pulses, p.m_beams, p.k_range]);
    }

    #[test]
    fn reusing_workspace_matches_allocating_path() {
        let (mut a, scenario) = setup();
        let (mut b, _) = setup();
        let mut ws = CpiWorkspace::new(&a.params);
        for (_i, _beam, cpi) in scenario.stream(4) {
            let alloc = a.process_cpi(0, &cpi);
            b.process_cpi_reusing(0, &cpi, &mut ws);
            assert_eq!(alloc.detections.as_slice(), ws.detections());
            assert_eq!(
                alloc.power.as_slice(),
                ws.power().as_slice(),
                "power cubes must match exactly"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (mut a, scenario) = setup();
        let (mut b, _) = setup();
        for (_i, _beam, cpi) in scenario.stream(3) {
            let oa = a.process_cpi(0, &cpi);
            let ob = b.process_cpi(0, &cpi);
            assert_eq!(oa.detections, ob.detections);
            assert!(oa.beamformed.max_abs_diff(&ob.beamformed) == 0.0);
        }
    }
}
