//! Per-rank communication tracing.
//!
//! The paper's evaluation (Tables 2–10) is a timing story: per-task
//! compute, per-edge communication, throughput and latency under three
//! node assignments. Reproducing that story requires *seeing* where a
//! CPI spends its time, not just aggregate counters. This module adds a
//! span recorder to every [`crate::Comm`] endpoint:
//!
//! * **Per-rank and lock-free on the hot path.** Each rank appends to
//!   its own buffer through a `RefCell`; no atomics, no mutex, no
//!   cross-thread contention while the pipeline runs. The only lock is
//!   taken once per rank at flush time (endpoint drop), when the rank's
//!   buffer is moved into the shared [`TraceSink`].
//! * **One off-switch.** An endpoint's tracer is an `Option`: a world
//!   without tracing pays exactly one branch per instrumented call and
//!   performs no allocation and takes no clock reading, so the
//!   zero-allocation steady state holds unchanged (regression tested by
//!   the counting-allocator suite in `stap-bench`).
//!
//! Events carry `(kind, peer, tag, bytes)` attribution plus start/end
//! offsets in seconds from a caller-supplied epoch, so the pipeline
//! layer can merge communication spans with task spans into one
//! timeline and export it as Chrome trace-event JSON.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a [`CommEvent`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Message enqueued to `peer` (asynchronous; the span is an instant).
    Send,
    /// Blocking receive that matched a message from `peer`.
    Recv,
    /// Time spent blocked without obtaining a message (a receive
    /// timeout).
    Wait,
    /// Application-attributed redistribution work (pack/unpack for a
    /// cube exchange), recorded via [`crate::Comm::trace_redistribute`].
    Redistribute,
}

impl TraceKind {
    /// Stable lowercase name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Send => "send",
            TraceKind::Recv => "recv",
            TraceKind::Wait => "wait",
            TraceKind::Redistribute => "redistribute",
        }
    }
}

/// One recorded communication event on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct CommEvent {
    /// Event class.
    pub kind: TraceKind,
    /// The other endpoint: destination for sends, source for receives
    /// and waits.
    pub peer: usize,
    /// Message tag.
    pub tag: u64,
    /// Payload size attribution in wire bytes (0 when unknown, e.g.
    /// timed-out waits).
    pub bytes: u64,
    /// Span start, seconds since the trace epoch.
    pub start_s: f64,
    /// Span end, seconds since the trace epoch (`== start_s` for
    /// instant events such as asynchronous sends).
    pub end_s: f64,
}

/// All events recorded by one rank, in record order.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    /// The recording rank.
    pub rank: usize,
    /// Events in the order they completed on this rank.
    pub events: Vec<CommEvent>,
}

/// Collection point for per-rank traces.
///
/// Cloned into every endpooint by [`crate::World::with_tracing`]; each
/// rank pushes its buffer exactly once, when its `Comm` drops. After
/// the world joins, call [`TraceSink::take`] to obtain the merged
/// per-rank traces.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Arc<Mutex<Vec<RankTrace>>>,
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn push(&self, trace: RankTrace) {
        self.inner.lock().expect("trace sink poisoned").push(trace);
    }

    /// Drains the sink, returning one [`RankTrace`] per flushed rank,
    /// sorted by rank.
    pub fn take(&self) -> Vec<RankTrace> {
        let mut out = std::mem::take(&mut *self.inner.lock().expect("trace sink poisoned"));
        out.sort_by_key(|t| t.rank);
        out
    }
}

/// A span recorder: timestamps events relative to `epoch` and buffers
/// them in a `RefCell<Vec<_>>` (single-threaded interior mutability:
/// each rank owns its recorder).
pub struct SpanRecorder {
    epoch: Instant,
    events: RefCell<Vec<CommEvent>>,
}

impl SpanRecorder {
    /// A recorder timestamping against `epoch`. (`Vec::new` does not
    /// allocate; the first recorded event does.)
    pub fn new(epoch: Instant) -> Self {
        SpanRecorder {
            epoch,
            events: RefCell::new(Vec::new()),
        }
    }

    /// Records a closed span begun at `started` (an `Instant` read by
    /// the caller). No-op when `started` is `None`.
    #[inline]
    pub fn record_span(
        &self,
        kind: TraceKind,
        peer: usize,
        tag: u64,
        bytes: u64,
        started: Option<Instant>,
    ) {
        let Some(t0) = started else { return };
        let start_s = t0.duration_since(self.epoch).as_secs_f64();
        let end_s = self.epoch.elapsed().as_secs_f64();
        self.events.borrow_mut().push(CommEvent {
            kind,
            peer,
            tag,
            bytes,
            start_s,
            end_s,
        });
    }

    /// Records an instant (zero-duration) event at "now".
    #[inline]
    pub fn record_instant(&self, kind: TraceKind, peer: usize, tag: u64, bytes: u64) {
        let now_s = self.epoch.elapsed().as_secs_f64();
        self.events.borrow_mut().push(CommEvent {
            kind,
            peer,
            tag,
            bytes,
            start_s: now_s,
            end_s: now_s,
        });
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves the buffered events out.
    pub fn drain(&self) -> Vec<CommEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
    }
}

/// Per-endpoint tracing state installed by [`crate::World::with_tracing`].
pub(crate) struct CommTracer<M> {
    pub(crate) recorder: SpanRecorder,
    sink: TraceSink,
    bytes_of: fn(&M) -> u64,
}

impl<M> CommTracer<M> {
    pub(crate) fn new(epoch: Instant, sink: TraceSink, bytes_of: fn(&M) -> u64) -> Self {
        CommTracer {
            recorder: SpanRecorder::new(epoch),
            sink,
            bytes_of,
        }
    }

    #[inline]
    pub(crate) fn bytes(&self, msg: &M) -> u64 {
        (self.bytes_of)(msg)
    }

    /// Flushes this rank's buffer into the sink. Called from
    /// `Comm::drop`, i.e. exactly once per rank, after the rank's
    /// communication is complete.
    pub(crate) fn flush(&self, rank: usize) {
        self.sink.push(RankTrace {
            rank,
            events: self.recorder.drain(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_recorder_orders_and_timestamps() {
        let epoch = Instant::now();
        let r = SpanRecorder::new(epoch);
        let t0 = Some(Instant::now());
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.record_span(TraceKind::Recv, 4, 9, 128, t0);
        r.record_instant(TraceKind::Send, 5, 10, 64);
        let ev = r.drain();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, TraceKind::Recv);
        assert!(ev[0].end_s >= ev[0].start_s);
        assert!(
            ev[0].end_s - ev[0].start_s >= 0.001,
            "span covers the sleep"
        );
        assert_eq!(ev[1].kind, TraceKind::Send);
        assert_eq!(ev[1].start_s, ev[1].end_s, "sends are instants");
        assert!(
            ev[1].start_s >= ev[0].end_s - 1e-9,
            "record order is time order"
        );
        assert!(r.is_empty(), "drain moves the buffer out");
    }

    #[test]
    fn traced_world_records_sends_recvs_and_flushes_per_rank() {
        use crate::world::World;
        let sink = TraceSink::new();
        let epoch = Instant::now();
        let world: World<Vec<u8>> = World::new(2).with_tracing(epoch, &sink, |m| m.len() as u64);
        // Each rank times out on a tag nobody sends, then trades a done
        // message with its peer, so the peer is alive for the whole wait
        // and the wait ends in `Timeout`, not `Disconnected`.
        const NEVER: u64 = 8;
        const DONE: u64 = 9;
        world.run(|mut comm| {
            let peer = 1 - comm.rank();
            if comm.rank() == 0 {
                comm.send(1, 7, vec![0u8; 16]);
            } else {
                let m = comm.recv(0, 7).unwrap();
                assert_eq!(m.len(), 16);
            }
            let r = comm.recv_timeout(peer, NEVER, std::time::Duration::from_millis(1));
            assert_eq!(r.unwrap_err(), crate::comm::RecvError::Timeout);
            comm.send(peer, DONE, vec![]);
            comm.recv(peer, DONE).unwrap();
        });
        let traces = sink.take();
        assert_eq!(traces.len(), 2, "both ranks flushed");
        assert!(traces[0]
            .events
            .iter()
            .any(|e| e.kind == TraceKind::Send && e.peer == 1 && e.tag == 7 && e.bytes == 16));
        assert!(traces[1]
            .events
            .iter()
            .any(|e| e.kind == TraceKind::Recv && e.peer == 0 && e.tag == 7 && e.bytes == 16));
        for t in &traces {
            assert!(
                t.events
                    .iter()
                    .any(|e| e.kind == TraceKind::Wait && e.peer == 1 - t.rank && e.tag == NEVER),
                "rank {} recorded its timed-out wait",
                t.rank
            );
        }
    }

    #[test]
    fn untraced_world_leaves_sink_empty() {
        use crate::world::World;
        let world: World<u32> = World::new(2);
        world.run(|mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 9);
            } else {
                assert_eq!(comm.recv(0, 1).unwrap(), 9);
            }
        });
        // Nothing to flush anywhere: tracing never existed.
    }

    #[test]
    fn sink_collects_and_sorts_by_rank() {
        let sink = TraceSink::new();
        for rank in [2usize, 0, 1] {
            sink.push(RankTrace {
                rank,
                events: vec![],
            });
        }
        let traces = sink.take();
        assert_eq!(traces.iter().map(|t| t.rank).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(sink.take().is_empty(), "take drains");
    }
}
