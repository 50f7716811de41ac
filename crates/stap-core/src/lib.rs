//! The PRI-staggered post-Doppler STAP algorithm.
//!
//! This crate is a faithful Rust port of the algorithm the paper
//! parallelizes (its Appendix B gives the MATLAB reference): Doppler
//! filter processing with PRI-stagger, beam-constrained adaptive weight
//! computation split into easy and hard Doppler bins, beamforming, pulse
//! compression and CFAR detection.
//!
//! Everything here is *sequential*; the parallel pipelined execution
//! (`stap-pipeline`) reuses these kernels on partitioned data and must
//! produce bit-compatible results, which the integration suite checks.
//!
//! Module map:
//!
//! * [`params`] — CPI geometry and algorithm parameters (Section 7's
//!   values are [`params::StapParams::paper`]),
//! * [`doppler`] — task 0: range correction, taper, two staggered
//!   128-point FFT windows per channel,
//! * [`training`] — training-sample selection and per-azimuth history,
//! * [`weights`] — tasks 1 and 2: easy (3-CPI training + QR) and hard
//!   (recursive QR with exponential forgetting, 6 range segments),
//! * [`beamform`] — tasks 3 and 4: weight application,
//! * [`pulse`] — task 5: fast convolution with the transmit replica,
//! * [`cfar`] — task 6: sliding-window cell-averaging CFAR,
//! * `reference` — the end-to-end sequential pipeline with the paper's
//!   temporal dependency (weights from CPI *i-1* applied to CPI *i*),
//! * [`flops`] — Table 1: closed-form and measured operation counts,
//! * [`volumes`] — inter-task message volumes for the machine model.

pub mod beamform;
pub mod cfar;
pub mod doppler;
pub mod flops;
pub mod params;
pub mod pulse;
pub mod reference;
pub mod training;
pub mod volumes;
pub mod weights;

pub use cfar::Detection;
pub use params::StapParams;
pub use reference::SequentialStap;
