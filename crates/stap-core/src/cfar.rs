//! Task 6: sliding-window cell-averaging CFAR.
//!
//! "The sliding window constant false alarm rate (CFAR) processing
//! compares the value of a test cell at a given range to the average of a
//! set of reference cells around it times a probability of false alarm
//! factor." The window slides along range within each `(Doppler bin,
//! beam)` lane; guard cells around the test cell are excluded; at lane
//! edges the window clamps to the available cells and the average adapts
//! to the actual reference count.

use crate::params::StapParams;
use stap_cube::RCube;
use stap_math::flops;

/// How the two reference half-windows combine into a threshold
/// statistic. The paper's algorithm is cell-averaging ([`CfarKind::CellAveraging`]);
/// the greatest-of and smallest-of variants are standard hardenings for
/// clutter edges and multiple targets respectively.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CfarKind {
    /// Average of all reference cells (CA-CFAR) — the paper's choice.
    #[default]
    CellAveraging,
    /// Greatest of the two half-window means (GO-CFAR): robust at
    /// clutter edges, slightly lower detection probability.
    GreatestOf,
    /// Smallest of the two half-window means (SO-CFAR): resists masking
    /// by a second target in one half-window.
    SmallestOf,
}

/// One CFAR detection: "a list of targets at specified ranges, Doppler
/// frequencies, and look directions".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detection {
    /// Doppler bin (natural order, 0..N).
    pub bin: usize,
    /// Receive beam index (0..M).
    pub beam: usize,
    /// Range cell (0..K).
    pub range: usize,
    /// Cell power.
    pub power: f64,
    /// Threshold the cell exceeded.
    pub threshold: f64,
}

/// Runs CFAR on a `(N, M, K)` power cube, returning all detections in
/// (bin, beam, range) order.
pub fn cfar(params: &StapParams, power: &RCube) -> Vec<Detection> {
    let [n, m, _k] = power.shape();
    let mut out = Vec::new();
    for bin in 0..n {
        for beam in 0..m {
            cfar_lane(params, power.lane(bin, beam), bin, beam, &mut out);
        }
    }
    out
}

/// CFAR over one range lane, appending detections. Exposed so the
/// parallel task can run on its local bins only.
pub fn cfar_lane(
    params: &StapParams,
    lane: &[f64],
    bin: usize,
    beam: usize,
    out: &mut Vec<Detection>,
) {
    cfar_lane_kind(params, CfarKind::CellAveraging, lane, bin, beam, out)
}

/// CFAR over one range lane with an explicit detector variant.
///
/// **Rolling-window implementation** (initial sum + slide): the two
/// reference half-window sums are maintained incrementally as the test
/// cell advances — each of the four window bounds moves by at most one
/// cell per step, so the per-cell cost is O(1) and the whole lane is
/// O(K + W), exactly the accounting [`crate::flops::closed_form`] has always
/// billed (`W - 1` initial adds + 4 slide ops per cell). Edge clamping
/// is preserved: the same `saturating_sub`/`min(k)` bounds as the
/// original recomputing detector define each window, so the *set* of
/// reference cells per test cell is identical for all three
/// [`CfarKind`] variants (the equivalence test in `stap-bench` pins
/// this against a frozen copy of the recomputing detector; thresholds
/// agree to rounding because a rolling sum accumulates the same values
/// in a different association order).
pub fn cfar_lane_kind(
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
    let scale = params.cfar_scale;
    // Initial-sum + slide accounting (see flops::cfar in `flops`).
    flops::add(params.cfar_window as u64 - 1 + 4 * k as u64);
    if k == 0 {
        return;
    }
    // Reference cells for test cell t: lo = [t-g-half, t-g) and
    // hi = [t+g+1, t+g+1+half), both clamped to [0, k). State below is
    // the window for t = 0: lo is empty, hi is summed once up front.
    let mut lo_start = 0usize;
    let mut lo_end = 0usize;
    let mut lo_sum = 0.0f64;
    let mut hi_start = (g + 1).min(k);
    let mut hi_end = (g + 1 + half).min(k);
    let mut hi_sum = 0.0f64;
    for &v in &lane[hi_start..hi_end] {
        hi_sum += v;
    }
    // General (edge-clamped) per-cell step: threshold from the current
    // window state, then slide every bound to its position for t + 1
    // (each moves by at most one cell; the while loops cover the
    // clamped phases where a bound holds still).
    macro_rules! general_cell {
        ($t:expr) => {{
            let t: usize = $t;
            let lo_count = lo_end - lo_start;
            let hi_count = hi_end - hi_start;
            if lo_count + hi_count > 0 {
                match kind {
                    CfarKind::CellAveraging => {
                        let count = (lo_count + hi_count) as f64;
                        let threshold = scale * ((lo_sum + hi_sum) / count);
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
                    CfarKind::GreatestOf | CfarKind::SmallestOf => {
                        // Means of each half; a fully clamped-away half
                        // defers to the other.
                        let lo = (lo_count > 0).then(|| lo_sum / lo_count as f64);
                        let hi = (hi_count > 0).then(|| hi_sum / hi_count as f64);
                        let stat = match (lo, hi, kind) {
                            (Some(a), Some(b), CfarKind::GreatestOf) => a.max(b),
                            (Some(a), Some(b), CfarKind::SmallestOf) => a.min(b),
                            (Some(a), None, _) | (None, Some(a), _) => a,
                            _ => unreachable!("one side is non-empty"),
                        };
                        let threshold = scale * stat;
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
            }
            let nt = t + 1;
            let new_lo_end = nt.saturating_sub(g);
            while lo_end < new_lo_end {
                lo_sum += lane[lo_end];
                lo_end += 1;
            }
            let new_lo_start = nt.saturating_sub(g + half);
            while lo_start < new_lo_start {
                lo_sum -= lane[lo_start];
                lo_start += 1;
            }
            let new_hi_end = (nt + g + 1 + half).min(k);
            while hi_end < new_hi_end {
                hi_sum += lane[hi_end];
                hi_end += 1;
            }
            let new_hi_start = (nt + g + 1).min(k);
            while hi_start < new_hi_start {
                hi_sum -= lane[hi_start];
                hi_start += 1;
            }
        }};
    }

    // Interior cells have both half-windows completely unclamped (lo
    // full needs t >= g + half; hi full through the *slide* needs
    // t + g + half + 1 < k), so the counts are constant and every bound
    // advances by exactly one cell per step: the per-cell work is four
    // sum updates, one multiply by a phase-constant threshold factor,
    // and one compare — the single divide is hoisted out of the loop.
    // (Multiplying by the hoisted `scale / count` instead of dividing
    // per cell moves thresholds by at most an ulp or two; the frozen-
    // reference equivalence test bounds the difference.)
    let int_start = g + half;
    let int_end = k.saturating_sub(g + half + 1);
    let mut t = 0usize;
    if int_start < int_end {
        // Lead phase (t < g + half): the lo window's left edge is
        // pinned at 0 and its right edge only advances once t >= g; the
        // hi window never touches the right boundary (the interior
        // exists, so k > 2g + 2·half + 1), keeping its count at `half`
        // and both of its bounds advancing every step. The general
        // slide's four clamp computations reduce to one branch.
        while t < int_start {
            let lo_count = lo_end; // lo_start == 0 throughout
            match kind {
                CfarKind::CellAveraging => {
                    let count = (lo_count + half) as f64;
                    let threshold = scale * ((lo_sum + hi_sum) / count);
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
                CfarKind::GreatestOf | CfarKind::SmallestOf => {
                    let hi_mean = hi_sum / half as f64;
                    let stat = if lo_count > 0 {
                        let lo_mean = lo_sum / lo_count as f64;
                        match kind {
                            CfarKind::GreatestOf => lo_mean.max(hi_mean),
                            _ => lo_mean.min(hi_mean),
                        }
                    } else {
                        hi_mean
                    };
                    let threshold = scale * stat;
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
            if t >= g {
                lo_sum += lane[lo_end];
                lo_end += 1;
            }
            // Add-then-subtract (not the delta form) so the edge cells
            // round bit-identically to the general slide.
            hi_sum += lane[hi_end];
            hi_end += 1;
            hi_sum -= lane[hi_start];
            hi_start += 1;
            t += 1;
        }
        debug_assert_eq!((lo_start, lo_end), (t - g - half, t - g));
        debug_assert_eq!((hi_start, hi_end), (t + g + 1, t + g + 1 + half));
        // Pre-sliced enter/leave windows, all of equal length: the
        // zipped iteration carries no per-cell bounds checks (the last
        // hi-enter cell is lane[k - 1] by construction of `int_end`).
        let n_int = int_end - t;
        let cells = &lane[t..int_end];
        let lo_enter = &lane[t - g..int_end - g];
        let lo_leave = &lane[t - g - half..int_end - g - half];
        let hi_enter = &lane[t + g + half + 1..int_end + g + half + 1];
        let hi_leave = &lane[t + g + 1..int_end + g + 1];
        debug_assert!([lo_enter, lo_leave, hi_enter, hi_leave]
            .iter()
            .all(|s| s.len() == n_int));
        macro_rules! interior {
            ($threshold:expr) => {
                for (i, ((((&c, &le), &ll), &he), &hl)) in cells
                    .iter()
                    .zip(lo_enter)
                    .zip(lo_leave)
                    .zip(hi_enter)
                    .zip(hi_leave)
                    .enumerate()
                {
                    let threshold = $threshold;
                    if c > threshold {
                        out.push(Detection {
                            bin,
                            beam,
                            range: t + i,
                            power: c,
                            threshold,
                        });
                    }
                    // Delta form: the (enter - leave) difference is
                    // independent of the running sum, so the loop-
                    // carried dependency is one add per half, not two.
                    lo_sum += le - ll;
                    hi_sum += he - hl;
                }
            };
        }
        match kind {
            CfarKind::CellAveraging => {
                let mul = scale / (2 * half) as f64;
                interior!(mul * (lo_sum + hi_sum));
            }
            // Equal counts: the greater/smaller *mean* is the
            // greater/smaller *sum*.
            CfarKind::GreatestOf => {
                let mul = scale / half as f64;
                interior!(mul * lo_sum.max(hi_sum));
            }
            CfarKind::SmallestOf => {
                let mul = scale / half as f64;
                interior!(mul * lo_sum.min(hi_sum));
            }
        }
        // Trail phase (t >= int_end): lo is full (count = half) and
        // both of its bounds advance every step; hi_end is pinned at k,
        // so only hi_start moves, shrinking the hi window until it
        // empties at the last few cells.
        t = int_end;
        lo_start = t - g - half;
        lo_end = t - g;
        hi_start = (t + g + 1).min(k);
        // By construction int_end + g + half + 1 == k: the hi window is
        // [hi_start, k) from here on (hi_end would be pinned at k).
        debug_assert_eq!(t + g + half + 1, k);
        let _ = hi_end;
        while t < k {
            let hi_count = k - hi_start;
            match kind {
                CfarKind::CellAveraging => {
                    let count = (half + hi_count) as f64;
                    let threshold = scale * ((lo_sum + hi_sum) / count);
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
                CfarKind::GreatestOf | CfarKind::SmallestOf => {
                    let lo_mean = lo_sum / half as f64;
                    let stat = if hi_count > 0 {
                        let hi_mean = hi_sum / hi_count as f64;
                        match kind {
                            CfarKind::GreatestOf => lo_mean.max(hi_mean),
                            _ => lo_mean.min(hi_mean),
                        }
                    } else {
                        lo_mean
                    };
                    let threshold = scale * stat;
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
            // Add-then-subtract slide, matching the general loop's
            // rounding exactly.
            lo_sum += lane[lo_end];
            lo_end += 1;
            lo_sum -= lane[lo_start];
            lo_start += 1;
            if hi_start < k {
                hi_sum -= lane[hi_start];
                hi_start += 1;
            }
            t += 1;
        }
    } else {
        // No interior (tiny lane or a window spanning the whole lane):
        // every cell is edge-clamped, so the general step covers all.
        while t < k {
            general_cell!(t);
            t += 1;
        }
    }
}

/// Reusable workspace for the CFAR task: the detection list is
/// reserved once and reused across CPIs, extending the zero-allocation
/// steady state to task 6 (policed by the counting-allocator
/// regression in `stap-bench`). The per-CPI pattern is
/// [`CfarScratch::begin_cpi`] → [`cfar_lane`] per (bin, beam) →
/// [`CfarScratch::take`] to hand the detections to the output message
/// (the handoff swaps in an equally-reserved buffer so the next CPI
/// stays allocation-free up to the reserved capacity).
#[derive(Default)]
pub struct CfarScratch {
    /// Detections accumulated for the CPI in flight.
    pub detections: Vec<Detection>,
    /// Capacity restored by [`CfarScratch::take`].
    reserve: usize,
}

impl CfarScratch {
    /// A workspace with room for `capacity` detections before any
    /// reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        CfarScratch {
            detections: Vec::with_capacity(capacity),
            reserve: capacity,
        }
    }

    /// Sizes the workspace for a task owning `bins` Doppler bins: a
    /// generous per-(bin, beam) detection budget so steady-state target
    /// scenes never outgrow it.
    pub fn for_task(params: &StapParams, bins: usize) -> Self {
        Self::with_capacity((bins * params.m_beams * 4).max(64))
    }

    /// Clears the detection list for a new CPI (keeps capacity).
    pub fn begin_cpi(&mut self) {
        self.detections.clear();
    }

    /// Hands the accumulated detections off (for the output message),
    /// leaving a fresh buffer with the original reserved capacity.
    pub fn take(&mut self) -> Vec<Detection> {
        std::mem::replace(&mut self.detections, Vec::with_capacity(self.reserve))
    }
}

/// Groups detections that are adjacent in range within the same
/// (bin, beam) into single reports, keeping the strongest cell — a
/// common post-CFAR clustering step used by the examples.
pub fn cluster(detections: &[Detection]) -> Vec<Detection> {
    let mut out: Vec<Detection> = Vec::new();
    for d in detections {
        match out.last_mut() {
            Some(prev) if prev.bin == d.bin && prev.beam == d.beam && d.range <= prev.range + 2 => {
                if d.power > prev.power {
                    *prev = *d;
                }
            }
            _ => out.push(*d),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> StapParams {
        StapParams::reduced()
    }

    fn flat_cube(p: &StapParams, level: f64) -> RCube {
        RCube::from_fn([p.n_pulses, p.m_beams, p.k_range], |_, _, _| level)
    }

    #[test]
    fn flat_noise_produces_no_detections() {
        let p = params();
        let cube = flat_cube(&p, 1.0);
        assert!(cfar(&p, &cube).is_empty());
    }

    #[test]
    fn isolated_spike_is_detected_exactly_once() {
        let p = params();
        let mut cube = flat_cube(&p, 1.0);
        cube[(5, 2, 40)] = 100.0;
        let dets = cfar(&p, &cube);
        assert_eq!(dets.len(), 1);
        let d = dets[0];
        assert_eq!((d.bin, d.beam, d.range), (5, 2, 40));
        assert!(d.power > d.threshold);
    }

    #[test]
    fn guard_cells_protect_spread_targets() {
        // Energy spilling into the cell next to the peak must not raise
        // the peak's own threshold (it's inside the guard).
        let p = params();
        let mut cube = flat_cube(&p, 1.0);
        cube[(3, 0, 30)] = 50.0;
        cube[(3, 0, 31)] = 30.0; // spill within guard distance
        let dets = cfar(&p, &cube);
        assert!(
            dets.iter().any(|d| d.range == 30),
            "main peak suppressed by its own spill"
        );
    }

    #[test]
    fn threshold_scales_with_local_clutter() {
        let p = params();
        let mut cube = flat_cube(&p, 1.0);
        // Raise the local background near range 40 by 20x; a spike that
        // would trigger on quiet background must not trigger there.
        for r in 28..=52 {
            cube[(0, 0, r)] = 20.0;
        }
        cube[(0, 0, 40)] = 100.0; // only 5x local background
        cube[(0, 0, 10)] = 100.0; // 100x quiet background
        let dets = cfar(&p, &cube);
        assert!(dets.iter().any(|d| d.range == 10));
        assert!(!dets.iter().any(|d| d.range == 40));
    }

    #[test]
    fn edges_use_clamped_window() {
        let p = params();
        let mut cube = flat_cube(&p, 1.0);
        cube[(0, 0, 0)] = 100.0; // first cell: only right-side reference
        cube[(0, 0, p.k_range - 1)] = 100.0;
        let dets = cfar(&p, &cube);
        assert!(dets.iter().any(|d| d.range == 0));
        assert!(dets.iter().any(|d| d.range == p.k_range - 1));
    }

    #[test]
    fn cluster_merges_adjacent_cells() {
        let dets = vec![
            Detection {
                bin: 1,
                beam: 0,
                range: 10,
                power: 5.0,
                threshold: 1.0,
            },
            Detection {
                bin: 1,
                beam: 0,
                range: 11,
                power: 9.0,
                threshold: 1.0,
            },
            Detection {
                bin: 1,
                beam: 0,
                range: 12,
                power: 4.0,
                threshold: 1.0,
            },
            Detection {
                bin: 1,
                beam: 0,
                range: 40,
                power: 3.0,
                threshold: 1.0,
            },
            Detection {
                bin: 2,
                beam: 0,
                range: 12,
                power: 2.0,
                threshold: 1.0,
            },
        ];
        let grouped = cluster(&dets);
        assert_eq!(grouped.len(), 3);
        assert_eq!(grouped[0].range, 11, "keeps strongest cell");
        assert_eq!(grouped[1].range, 40);
        assert_eq!(grouped[2].bin, 2);
    }

    #[test]
    fn go_cfar_resists_clutter_edges() {
        // A clutter edge: quiet on the left, hot on the right. A cell
        // just inside the quiet side sees half its reference cells hot;
        // CA-CFAR's average is dragged up less than GO's max-of-halves,
        // so GO fires less at the edge (fewer edge false alarms).
        let p = params();
        let mut lane = vec![1.0; p.k_range];
        for v in lane.iter_mut().skip(32) {
            *v = 50.0;
        }
        // Cells just inside the hot region, whose left window is quiet:
        // CA threshold ~ scale * 25; GO threshold ~ scale * 50.
        let mut out_ca = Vec::new();
        cfar_lane_kind(&p, CfarKind::CellAveraging, &lane, 0, 0, &mut out_ca);
        let mut out_go = Vec::new();
        cfar_lane_kind(&p, CfarKind::GreatestOf, &lane, 0, 0, &mut out_go);
        assert!(
            out_go.len() <= out_ca.len(),
            "GO must not fire more at a clutter edge: GO {} vs CA {}",
            out_go.len(),
            out_ca.len()
        );
    }

    #[test]
    fn so_cfar_recovers_a_masked_target() {
        // Two targets within one window: the stronger raises the weaker
        // one's CA threshold; SO uses the quieter half and recovers it.
        let p = params();
        let mut lane = vec![1.0; p.k_range];
        lane[30] = 14.0; // weak target
        lane[35] = 400.0; // strong neighbour inside the hi window
        let mut ca = Vec::new();
        cfar_lane_kind(&p, CfarKind::CellAveraging, &lane, 0, 0, &mut ca);
        let mut so = Vec::new();
        cfar_lane_kind(&p, CfarKind::SmallestOf, &lane, 0, 0, &mut so);
        assert!(
            !ca.iter().any(|d| d.range == 30),
            "CA should be masked here: {ca:?}"
        );
        assert!(
            so.iter().any(|d| d.range == 30),
            "SO should recover the weak target: {so:?}"
        );
    }

    #[test]
    fn variants_agree_on_homogeneous_noise() {
        let p = params();
        let mut lane = vec![2.0; p.k_range];
        lane[20] = 120.0;
        for kind in [
            CfarKind::CellAveraging,
            CfarKind::GreatestOf,
            CfarKind::SmallestOf,
        ] {
            let mut out = Vec::new();
            cfar_lane_kind(&p, kind, &lane, 0, 0, &mut out);
            assert_eq!(out.len(), 1, "{kind:?}");
            assert_eq!(out[0].range, 20);
        }
    }

    #[test]
    fn false_alarm_rate_matches_ca_cfar_theory() {
        // CA-CFAR on exponential (Rayleigh-power) noise has
        // Pfa = (1 + scale/W)^-W for W reference cells. Monte-Carlo the
        // interior cells and compare.
        let mut p = params();
        p.cfar_scale = 5.0;
        p.cfar_guard = 1;
        let w = p.cfar_window as f64;
        let theory = (1.0 + p.cfar_scale / w).powf(-w);
        let mut state = 0xFACEu64;
        let mut rngf = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut fires = 0usize;
        let mut cells = 0usize;
        for _trial in 0..12 {
            let cube = RCube::from_fn([p.n_pulses, p.m_beams, p.k_range], |_, _, _| {
                -(rngf().max(1e-12)).ln()
            });
            let dets = cfar(&p, &cube);
            // Interior cells only (full windows).
            let margin = p.cfar_window / 2 + p.cfar_guard;
            fires += dets
                .iter()
                .filter(|d| d.range >= margin && d.range < p.k_range - margin)
                .count();
            cells += p.n_pulses * p.m_beams * (p.k_range - 2 * margin);
        }
        let empirical = fires as f64 / cells as f64;
        assert!(
            (empirical - theory).abs() < 0.4 * theory,
            "Pfa empirical {empirical:.5} vs theory {theory:.5} ({fires}/{cells})"
        );
    }

    #[test]
    fn detection_rate_on_noise_tracks_scale() {
        // With a low threshold multiplier, exponential-ish noise should
        // trigger often; with a high one, rarely. (Smoke check of the
        // threshold logic rather than an exact Pfa computation.)
        let mut p = params();
        let mut state = 7u64;
        let mut rngf = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let cube = RCube::from_fn([p.n_pulses, p.m_beams, p.k_range], |_, _, _| {
            -((rngf()).max(1e-12)).ln()
        });
        p.cfar_scale = 1.5;
        let many = cfar(&p, &cube).len();
        p.cfar_scale = 30.0;
        let few = cfar(&p, &cube).len();
        assert!(many > 100 * (few + 1), "many={many} few={few}");
    }
}
