//! Quickstart: process a short stream of synthetic CPIs through the full
//! STAP chain and print the detections.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! A single 5-dB target sits at range cell 30, Doppler 0.25 cycles/pulse
//! (bin 8 of 32), azimuth 2 degrees, buried under 40 dB ground clutter.
//! The first CPI uses quiescent (steering-only) weights; once the
//! adaptive weights train on preceding CPIs the clutter is nulled and
//! the target pops out.

use stap::core::cfar::cluster;
use stap::core::{SequentialStap, StapParams};
use stap::radar::Scenario;

fn main() {
    let params = StapParams::reduced();
    let scenario = Scenario::reduced(2024);
    let mut stap = SequentialStap::for_scenario(params, &scenario);

    println!(
        "geometry: K={} range cells, J={} channels, N={} pulses, M={} beams",
        stap.params.k_range, stap.params.j_channels, stap.params.n_pulses, stap.params.m_beams
    );
    println!("target truth: range 30, Doppler bin 8, azimuth 2 deg, SNR 5 dB\n");

    for (i, _beam_deg, cpi) in scenario.stream(6) {
        let out = stap.process_cpi(0, &cpi);
        let reports = cluster(&out.detections);
        println!(
            "CPI {i}: {} raw detections, {} clustered",
            out.detections.len(),
            reports.len()
        );
        for d in reports.iter().take(8) {
            println!(
                "    bin {:>3}  beam {}  range {:>3}  power {:>9.1} (threshold {:>8.1})",
                d.bin, d.beam, d.range, d.power, d.threshold
            );
        }
    }
    println!("\nnote: CPI 0 runs with quiescent weights (no training history);");
    println!("adaptive clutter nulling kicks in from CPI 1 onward.");
}
