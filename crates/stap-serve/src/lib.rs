//! Multi-stream ingestion front end for the resident STAP pipeline.
//!
//! The paper evaluates the pipeline on one CPI stream; an operational
//! radar processor serves *many* — one per active surveillance sector,
//! each submitting CPIs concurrently. This crate is the long-running
//! front end over [`stap_pipeline::ParallelStap`]:
//!
//! * [`admission`] — per-stream registration, in-order sequencing,
//!   bounded per-stream depth with reject-with-reason beyond the
//!   high-water mark, and purge-on-disconnect;
//! * [`server`] — [`server::StapServer`]: a background resident
//!   pipeline whose driver takes slot groups straight from the
//!   admission ledger, at most `window` slots in flight, with
//!   cross-stream batching — CPIs from different streams coalesce into
//!   one pipeline slot so the FFT/GEMM kernels amortize across streams.
//!   Its engine is one [`stap_pipeline::Session`], which checkpoints,
//!   recovers a failed world by replay (bit-identical for surviving
//!   streams, typed [`Recovered`] events) and shifts ranks between
//!   epochs, as configured;
//! * [`slo`] — latency percentile math for p50/p99 service objectives;
//! * [`loadgen`] — a synthetic multi-stream load generator used by
//!   `stapctl loadgen`, `stapctl serve` and the smoke tests;
//! * [`health`] — per-stream outcome/reject counters, fault streaks,
//!   and the quarantine bookkeeping surfaced in [`ServeSummary`];
//! * [`chaos`] — a seeded, deterministic fault campaign
//!   (`stapctl chaos`) that kills a rank mid-run, shifts a rank after
//!   the recovery, corrupts a tenant, churns another, and gates on
//!   recovery/quarantine/lost-CPI invariants.

pub mod admission;
pub mod chaos;
pub mod health;
pub mod loadgen;
pub mod server;
pub mod slo;

pub use admission::{AdmissionConfig, Ingest, Reject};
pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use health::{LastOutcome, RejectCounts, StreamHealth};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use server::{ServeSummary, ServerConfig, StapServer, StreamStats};
pub use slo::{percentile, LatencyProfile};
pub use stap_pipeline::session::{Recovered, SupervisorConfig};
