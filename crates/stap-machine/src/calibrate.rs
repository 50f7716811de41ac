//! Calibration provenance: the machine model's constants derived, in
//! code, from the paper's published numbers.
//!
//! DESIGN.md's protocol: every calibrated constant comes from the
//! paper's *case 3* (59-node) column of Table 7 plus the Doppler send
//! anchors of Table 2 — nothing else. This module embeds those published
//! numbers, performs the derivation, and the tests pin
//! [`crate::Paragon::afrl_calibrated`]'s hard-coded constants to the
//! derivation (so the model can never silently drift from its stated
//! provenance).

#[cfg(test)]
use crate::model::Paragon;
use crate::model::NUM_TASKS;

/// Paper Table 1: flops per task.
pub const PAPER_TABLE1_FLOPS: [u64; NUM_TASKS] = [
    79_691_776,
    13_851_792,
    197_038_464,
    28_311_552,
    44_040_192,
    38_928_384,
    1_690_368,
];

/// Paper Table 7, case 3: node counts per task.
pub const CASE3_NODES: [usize; NUM_TASKS] = [8, 4, 28, 4, 7, 4, 4];

/// Paper Table 7, case 3: computation seconds per task.
pub const CASE3_COMP_S: [f64; NUM_TASKS] = [0.3509, 0.3254, 0.3265, 0.2529, 0.1636, 0.3067, 0.1723];

/// Paper Table 7 / Table 2: the Doppler task's send time at 8 nodes
/// (case 3), the strided-pack anchor.
pub const CASE3_DOPPLER_SEND_S: f64 = 0.1296;

/// Derives the per-task sustained flop rates from the case-3 column:
/// `rate = flops / (nodes * comp_time)`.
pub fn derive_task_rates() -> [f64; NUM_TASKS] {
    let mut rates = [0.0; NUM_TASKS];
    for t in 0..NUM_TASKS {
        rates[t] = PAPER_TABLE1_FLOPS[t] as f64 / (CASE3_NODES[t] as f64 * CASE3_COMP_S[t]);
    }
    rates
}

/// Derives the strided-pack byte rate from the Doppler send anchor:
/// the bytes one of 8 Doppler nodes reorganizes per CPI (its full
/// staggered slab for the beamformers plus the gathered weight-task
/// cells), divided by the published send time net of message startups.
///
/// Volumes (paper parameters, 8-byte complex): per node,
/// `N_easy*J*K/8 + N_hard*2J*K/8` to the beamformers and the training
/// subsets to the weight tasks; message count from case-3 successor
/// sizes (4 + 28 + 4 + 7).
pub fn derive_pack_rate(machine_startup_s: f64) -> f64 {
    let (k, j, n_easy, n_hard) = (512u64, 16u64, 72u64, 56u64);
    let cx = 8u64;
    let per_node_bf = (n_easy * j * k + n_hard * 2 * j * k) * cx / 8;
    // Weight-task training subsets: 16 easy cells and 6 x 32 hard cells
    // across 512 range cells -> per node at 8 nodes: 2 easy cells, 24
    // hard cells on average.
    let per_node_wt = (n_easy * j * 16 + n_hard * 2 * j * 192) * cx / 8;
    let bytes = per_node_bf + per_node_wt;
    let messages = 4 + 28 + 4 + 7;
    let pack_time = CASE3_DOPPLER_SEND_S - messages as f64 * machine_startup_s;
    bytes as f64 / pack_time
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardcoded_rates_match_the_derivation() {
        let derived = derive_task_rates();
        let model = Paragon::afrl_calibrated();
        for (t, (&rate, &want)) in model.task_flop_rate.iter().zip(&derived).enumerate() {
            let rel = (rate - want).abs() / want;
            assert!(
                rel < 0.01,
                "task {t}: model {rate} vs derived {want} ({:.2}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn hardcoded_pack_rate_matches_the_derivation() {
        let model = Paragon::afrl_calibrated();
        let derived = derive_pack_rate(model.msg_startup_s);
        let rel = (model.pack_bytes_per_s - derived).abs() / derived;
        assert!(
            rel < 0.05,
            "pack rate: model {} vs derived {} ({:.1}% off)",
            model.pack_bytes_per_s,
            derived,
            rel * 100.0
        );
    }

    #[test]
    fn derivation_reproduces_case3_comp_times() {
        // Round trip: rates applied back to case 3 give the inputs.
        let rates = derive_task_rates();
        for t in 0..NUM_TASKS {
            let time = PAPER_TABLE1_FLOPS[t] as f64 / (CASE3_NODES[t] as f64 * rates[t]);
            assert!((time - CASE3_COMP_S[t]).abs() < 1e-12);
        }
    }

    #[test]
    fn rates_stay_below_peak() {
        // The i860's peak is 100 Mflop/s; every sustained rate must be
        // well under it (sanity of the whole calibration).
        for (t, r) in derive_task_rates().iter().enumerate() {
            assert!(*r < 60e6, "task {t} rate {r} implausibly high");
            assert!(*r > 1e6, "task {t} rate {r} implausibly low");
        }
    }
}
