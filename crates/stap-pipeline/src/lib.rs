//! The parallel pipelined STAP system (the paper's core contribution).
//!
//! Seven tasks — Doppler filtering, easy/hard weight computation,
//! easy/hard beamforming, pulse compression, CFAR — each data-parallel
//! over its own set of nodes, connected by all-to-all personalized
//! redistribution, with the temporal weight dependency off the latency
//! path (Figure 4 of the paper). This crate executes that structure for
//! real on the `stap-mp` thread-backed runtime:
//!
//! * [`assignment`] — node counts per task (the paper's case 1/2/3) and
//!   the partitioning of each task's data dimension,
//! * [`msg`] — the wire messages and tag scheme,
//! * [`schedule`] — every message of a slot (edge, sender, receiver,
//!   payload kind and shape), derived once from the partitions and read
//!   by the loops, the pools, the checked receive and the simulator,
//! * [`resident`] — the engine: one stage per task under one slot loop,
//!   each node receiving, computing and sending one slot of CPIs at a
//!   time, and the driver that feeds it (fault tolerance and spans live
//!   in that loop),
//! * [`runner`] — [`ParallelStap`], the one runner: its configuration
//!   and pools, the one world builder and per-rank body, a batch over
//!   a CPI list (detection collection, timing aggregation) and a
//!   served session over any feed,
//! * [`tasks`] — the buffer pools every rank of a session shares,
//! * [`session`] — [`Session`], the epoch loop behind the driver's
//!   feed: checkpoints, recovery by replay, and rank shifts between
//!   epochs,
//! * [`elastic`] — the rank-shift planner a session applies,
//! * [`metrics`] — per-task recv/comp/send timing and the paper's
//!   throughput/latency equations (1)-(3).
//!
//! The task graph (paper Figure 4; `SD` spatial, `TD` temporal
//! dependencies, `P_i` nodes per task):
//!
//! ```text
//!                       +--------------+   TD(1,3): weights for CPI i
//!                  +--> | easy weight  | ----------------+
//!   CPI i         |    | P1 (bins)    |                  v
//! +-----------+   |    +--------------+          +--------------+
//! | Doppler   | --+  gathered training cells --> | easy beamform| --+
//! | filter    |   |                              | P3 (bins)    |   |
//! | P0 (range)| --+--> full range, reorganized ->+--------------+   |
//! +-----------+   |                                                 v
//!       |         |    +--------------+          +--------------+ +-----------+ +------+
//!       |         +--> | hard weight  |  TD(2,4) | hard beamform| | pulse     | | CFAR |
//!       |              | P2 (bins,6   | -------> | P4 (bins,    | | compress  | | P6   |
//!       |              | range segs)  |          | segments)    | | P5 (bins) | |(bins)|
//!       |              +--------------+          +--------------+ +-----------+ +------+
//!       |                                                |             ^    |      ^
//!       +--- full range, both stagger windows -----------+             |    +------+
//!                                                        +-------------+  same-bin blocks
//! ```
//!
//! Tasks 1 and 2 consume CPI `i`'s Doppler output but their weights
//! apply to the *next* CPI of the same azimuth — the temporal dependency
//! that keeps ~52% of the total computation (Table 1) off the latency
//! path.
//!
//! The defining integration property: for identical inputs the parallel
//! pipeline produces *bitwise identical* detections to
//! `stap_core::SequentialStap` — every kernel runs on identically
//! assembled matrices in the same order.

pub mod assignment;
pub mod elastic;
pub mod fault;
pub mod metrics;
pub mod msg;
pub mod report;
pub mod resident;
pub mod runner;
pub mod schedule;
pub mod session;
pub mod tasks;
pub mod trace;
pub mod wire;

pub use assignment::NodeAssignment;
pub use elastic::{plan_rebalance, task_capacity, Rebalance, RebalancePolicy};
pub use fault::RuntimePolicy;
pub use metrics::{
    latency_eq2, real_latency_eq3, throughput_eq1, CpiOutcome, EdgeHealth, PipelineHealth,
    PipelineTimings, TaskTiming,
};
pub use report::{render_health, render_timings};
pub use resident::{ChannelFeed, CpiDone, CpiJob, Feed, ResidentState, ResidentSummary};
pub use runner::{ParallelStap, PipelineError, PipelineOutput};

/// An alias of [`ParallelStap`] for the `benchmark/` package, its only
/// user; everything else names the runner itself.
pub type ResidentStap = ParallelStap;
pub use session::{Recovered, Session, SessionSummary, SupervisorConfig};
pub use trace::{
    chrome_trace_json, render_breakdown, render_gantt, CpiMark, EdgeStat, PipelineTrace, TaskSpan,
    TraceStats,
};
