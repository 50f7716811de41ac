//! Paragon-scale discrete-event simulation of the parallel pipeline.
//!
//! The container this reproduction was built in has one CPU core; the
//! paper's experiments used up to 236 Paragon nodes. This crate closes
//! that gap: it simulates the exact pipeline structure `stap-pipeline`
//! executes — per-node receive/compute/send phases, all-to-all
//! personalized redistribution with per-pair message volumes, double
//! buffering (a node starts its next CPI as soon as it finished sending
//! the previous one), and the temporal weight dependency — against the
//! calibrated `stap-machine` cost model.
//!
//! The simulation is a deterministic timestamp propagation, not a random
//! model: every (node, CPI) gets explicit phase start/end times, every
//! message an explicit arrival time, so idle-waiting, bottleneck
//! formation (paper Table 10) and the cross-task effect of adding nodes
//! (Table 9) all emerge rather than being assumed.
//!
//! * [`des`] — the simulator core,
//! * [`experiments`] — one driver per paper table/figure, each rendering
//!   a paper-vs-model comparison.

pub mod des;
pub mod experiments;
pub mod lattice;
pub mod reconcile;
pub mod trace;

pub use des::{modeled_edge_bytes, simulate, simulate_traced, SimConfig, SimFaults, SimResult};
pub use lattice::{
    evaluate, explore, feasible, lattice_size, proportional_seed, Candidate, ExploreOptions,
    LatticeReport,
};
pub use reconcile::{reconcile, render_reconciliation, ReconRow, Reconciliation};
pub use trace::{render_gantt, Traced};
