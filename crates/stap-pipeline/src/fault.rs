//! Runtime degradation policy and fault-plane glue for the pipeline.
//!
//! The paper's pipeline sustains one CPI every `1/throughput` seconds
//! (equation (1)); a real-time radar cannot stop when a node stalls or
//! a message is lost. [`RuntimePolicy`] makes every inter-task receive
//! deadline-aware and defines what happens on overrun:
//!
//! * **data edges** — bounded retry, then the CPI is *dropped
//!   end-to-end*: the receiver forwards an explicit
//!   [`crate::msg::Payload::Dropped`] marker downstream so the pipeline
//!   keeps draining instead of stalling on a hole;
//! * **weight edges** — the beamform tasks fall back to the *last good
//!   weights for that azimuth*. This degraded mode is algorithmically
//!   faithful: the paper's temporal dependency (TD(1,3)/TD(2,4),
//!   Fig. 4) already applies weights computed from CPI `i` to CPI
//!   `i + beams`, so reusing the previous revisit's weights merely
//!   widens that gap by one revisit;
//! * **payload screening** — task boundaries reject non-finite payloads
//!   (NaN/Inf from corruption or a diverged solve) with a quarantine
//!   counter instead of silently propagating poison into the recursive
//!   QR state.

use std::time::Duration;

/// Per-run fault-tolerance policy. `Default` is the production
/// configuration with fault tolerance *off*: every receive is the plain
/// blocking receive and results are bit-identical to the non-FT
/// pipeline.
#[derive(Clone, Copy, Debug)]
pub struct RuntimePolicy {
    /// Master switch: when false, task loops take the zero-overhead
    /// blocking path (no timeouts, no screening, no purging).
    pub fault_tolerant: bool,
    /// Deadline for one receive on a data edge.
    pub edge_timeout: Duration,
    /// Deadline for the weight-matrix receive in the beamform tasks;
    /// on overrun the task falls back to stale weights rather than
    /// stalling the latency path.
    pub weight_grace: Duration,
    /// Retries (each of `edge_timeout`) before a data edge is declared
    /// lost and the CPI is dropped.
    pub max_retries: u32,
    /// Screen received payloads for NaN/Inf and quarantine offenders.
    pub screen_nonfinite: bool,
    /// Allow the elastic runner to shift ranks between tasks at slot
    /// boundaries when live telemetry shows a sustained bottleneck.
    pub rebalance: bool,
    /// Minimum slots between two rebalances; also the telemetry window a
    /// bottleneck must persist for before a shift is considered.
    pub rebalance_cooldown: usize,
    /// Per-node busy-time ratio (bottleneck vs donor) that must be
    /// exceeded before a rank is moved; 1.0 would thrash on noise.
    pub rebalance_imbalance: f64,
}

impl Default for RuntimePolicy {
    fn default() -> Self {
        RuntimePolicy {
            fault_tolerant: false,
            edge_timeout: Duration::from_secs(1),
            weight_grace: Duration::from_millis(300),
            max_retries: 1,
            screen_nonfinite: true,
            rebalance: false,
            rebalance_cooldown: 8,
            rebalance_imbalance: 1.25,
        }
    }
}

impl RuntimePolicy {
    /// The fault-tolerant configuration with default deadlines.
    pub fn fault_tolerant() -> Self {
        RuntimePolicy {
            fault_tolerant: true,
            ..RuntimePolicy::default()
        }
    }

    /// Derives deadlines from a modeled CPI interval (seconds per CPI,
    /// i.e. `1 / throughput` from equation (1) or the machine model in
    /// `stap-machine`/`stap-sim`): a data edge may slip by four CPI
    /// intervals before the CPI is abandoned, while weights get one
    /// interval of grace — they are off the latency path, so waiting
    /// longer than a pipeline beat only delays the *next* stage's
    /// deadline budget.
    pub fn from_cpi_interval(seconds_per_cpi: f64) -> Self {
        let clamp = |s: f64, lo: f64, hi: f64| Duration::from_secs_f64(s.clamp(lo, hi));
        RuntimePolicy {
            fault_tolerant: true,
            edge_timeout: clamp(4.0 * seconds_per_cpi, 0.2, 5.0),
            weight_grace: clamp(seconds_per_cpi, 0.05, 2.0),
            max_retries: 1,
            screen_nonfinite: true,
            rebalance: true,
            // Cooldown long enough that ~2 s of telemetry (or at least
            // 4 slots) back a shift; bounded so a very slow machine can
            // still adapt within a campaign.
            rebalance_cooldown: ((2.0 / seconds_per_cpi).ceil() as usize).clamp(4, 64),
            rebalance_imbalance: 1.25,
        }
    }
}

/// Payload corruptor installed via `World::with_corruptor` when a fault
/// plan is active: flips one element of the payload to NaN (cubes,
/// weights) or poisons a detection's power, using the fault plane's
/// deterministic per-message corruption word to pick the element. This
/// models payload bit-corruption at exactly the granularity the
/// receive-side screening detects.
pub fn nan_corruptor() -> stap_mp::Corruptor<crate::msg::Msg> {
    use crate::msg::Payload;
    std::sync::Arc::new(|m: &mut crate::msg::Msg, word: u64| match &mut m.payload {
        Payload::Cube(c) => {
            let s = c.as_mut_slice();
            if !s.is_empty() {
                let i = (word as usize) % s.len();
                s[i] = stap_math::Cx::new(f64::NAN, s[i].im);
            }
        }
        Payload::Real(c) => {
            let s = c.as_mut_slice();
            if !s.is_empty() {
                s[(word as usize) % s.len()] = f64::NAN;
            }
        }
        Payload::Weights(ws) => {
            let n = ws.len().max(1);
            if let Some(w) = ws.get_mut((word as usize) % n) {
                let s = w.as_mut_slice();
                if !s.is_empty() {
                    let i = (word as usize >> 8) % s.len();
                    s[i] = stap_math::Cx::new(s[i].re, f64::NAN);
                }
            }
        }
        Payload::DetectionsGroup(gs, _) => {
            if let Some(d) = gs.iter_mut().flatten().next() {
                d.power = f64::NAN;
            }
        }
        Payload::Dropped | Payload::Shutdown => {}
    })
}

/// True when every numeric element of the payload is finite. `Dropped`
/// markers are vacuously clean (they carry no data).
pub fn payload_is_finite(p: &crate::msg::Payload) -> bool {
    use crate::msg::Payload;
    match p {
        Payload::Cube(c) => c.is_finite(),
        Payload::Real(c) => c.is_finite(),
        Payload::Weights(ws) => ws.iter().all(|w| w.is_finite()),
        Payload::DetectionsGroup(gs, _) => gs.iter().flatten().all(|d| d.power.is_finite()),
        Payload::Dropped | Payload::Shutdown => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Msg, Payload};
    use stap_cube::CCube;

    #[test]
    fn default_policy_is_production_off() {
        assert!(!RuntimePolicy::default().fault_tolerant);
        assert!(RuntimePolicy::fault_tolerant().fault_tolerant);
    }

    #[test]
    fn derived_deadlines_clamp_and_scale() {
        let p = RuntimePolicy::from_cpi_interval(0.25);
        assert!(p.fault_tolerant);
        assert_eq!(p.edge_timeout, Duration::from_secs_f64(1.0));
        assert_eq!(p.weight_grace, Duration::from_secs_f64(0.25));
        // Tiny intervals clamp up, huge ones clamp down.
        assert_eq!(
            RuntimePolicy::from_cpi_interval(1e-6).edge_timeout,
            Duration::from_secs_f64(0.2)
        );
        assert_eq!(
            RuntimePolicy::from_cpi_interval(100.0).edge_timeout,
            Duration::from_secs_f64(5.0)
        );
    }

    #[test]
    fn corruptor_introduces_exactly_detectable_nan() {
        let cube = CCube::from_fn([2, 3, 4], |i, j, k| {
            stap_math::Cx::new((i + j + k) as f64, 1.0)
        });
        let mut m = Msg::new(0, Payload::Cube(cube));
        assert!(payload_is_finite(&m.payload));
        (nan_corruptor())(&mut m, 0x1234_5678_9abc_def0);
        assert!(!payload_is_finite(&m.payload));
        assert!(payload_is_finite(&Payload::Dropped));
    }
}
