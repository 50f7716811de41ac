//! A thread-backed message-passing runtime standing in for MPI.
//!
//! The paper's implementation is "ANSI C and MPI" on the Intel Paragon.
//! This crate reproduces the subset of that programming model the STAP
//! pipeline uses, with logical ranks running on OS threads:
//!
//! * point-to-point `send` / `recv` with **tag and source matching**
//!   (out-of-order arrivals are buffered, as MPI's unexpected-message
//!   queue does),
//! * asynchronous sends: `send` enqueues and returns immediately, the
//!   exact semantics the paper's double-buffered `MPI_Isend` loop
//!   (Fig. 10) relies on,
//! * `recv_timeout` for deadline-bounded receives, and a per-CPI
//!   `fault_checkpoint` for the deterministic fault plane.
//!
//! The runtime is deliberately *transport only*: redistribution planning
//! lives in `stap-cube`, the pipeline loop in `stap-pipeline`, and
//! modeled wire time in `stap-machine`. Everything here moves real bytes
//! between real threads — or, via the [`transport`] layer, between real
//! *processes*: the same [`Comm`] endpoint runs over in-process channels
//! (`inproc`, ranks as threads) or length-prefixed TCP frames (`tcp`,
//! one OS process per rank, loopback or a real network). The parallel
//! decomposition is therefore testable on any host, and measurable on
//! real multi-process machines.

pub mod comm;
pub mod fault;
pub mod tcp;
pub mod trace;
pub mod transport;
pub mod world;

pub use comm::{Comm, RecvError, Tag};
pub use fault::{Corruptor, FaultAction, FaultPlan, FaultRule, TagPattern};
pub use tcp::{abort_rendezvous, spawn_coordinator, TcpLink};
pub use trace::{CommEvent, RankTrace, SpanRecorder, TraceKind, TraceSink};
pub use transport::{
    LinkError, TransportKind, WireCodec, WireFrame, WireLink, WirePool, CTRL_RESERVED_BASE,
};
pub use world::{run_spmd, World, WorldError};
