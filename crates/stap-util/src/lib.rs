//! Dependency-free utilities shared across the workspace.
//!
//! The build must work in fully hermetic (no-network) environments, so
//! everything an external crate used to provide lives here instead:
//!
//! - [`rng`]: a small, fast, deterministic PRNG (splitmix64-seeded
//!   xorshift64*) replacing `rand::rngs::SmallRng`.
//! - [`json`]: an insertion-ordered JSON value and pretty-printer
//!   replacing `serde_json` for report/CLI output.
//! - [`check`]: a minimal property-testing loop replacing `proptest`:
//!   run a property over many seeded random cases and report the
//!   failing seed so a failure reproduces exactly.
//! - [`slack`]: the `STAP_CI_SLACK` deadline multiplier CI uses to
//!   widen wall-clock gates on slow shared runners.

pub mod check;
pub mod json;
pub mod rng;
pub mod slack;

pub use json::Json;
pub use rng::Rng;
pub use slack::{ci_slack, slacked_secs};
