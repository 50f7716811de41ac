//! Per-rank communicator with tag/source matching.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::transport::{
    LinkError, WireCodec, WireLink, WirePool, CTRL_GOODBYE, CTRL_RESERVED_BASE,
};

/// Message tag. The STAP pipeline encodes `(task pair, CPI index, phase)`
/// into tags so successive CPIs never cross-match.
pub type Tag = u64;

/// Errors surfaced by receive operations.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvError {
    /// All senders disconnected and no matching message is buffered.
    Disconnected,
    /// `recv_timeout` elapsed before a matching message arrived.
    Timeout,
}

pub(crate) struct Envelope<M> {
    pub src: usize,
    pub tag: Tag,
    pub msg: M,
}

/// The unexpected-message queue, indexed by `(src, tag)` bucket.
///
/// A receive on an out-of-order tag is a hash lookup and a `pop_front`,
/// not a scan over every buffered envelope. Each bucket is a FIFO in
/// arrival order. Tags encode the CPI index, so drained buckets are
/// removed eagerly to keep the map from growing without bound.
pub(crate) struct Mailbox<M> {
    buckets: HashMap<(usize, Tag), VecDeque<M>>,
    /// Messages currently buffered across every bucket.
    depth: usize,
    /// High-water mark of `depth` over the mailbox lifetime.
    max_depth: usize,
    /// Configurable soft bound; 0 disables the check. Crossing it only
    /// counts (hard shedding on a blocking-receive runtime would
    /// deadlock the pipeline) — the count is the backpressure signal
    /// admission control acts on.
    high_water: usize,
    /// Pushes observed while `depth` already sat at or above
    /// `high_water`.
    over_high_water: u64,
}

/// Buffered-depth accounting of one rank's unexpected-message queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MailboxStats {
    /// Messages buffered right now.
    pub depth: usize,
    /// Largest depth ever observed.
    pub max_depth: usize,
    /// Configured soft high-water mark (0 = unbounded).
    pub high_water: usize,
    /// Pushes that landed while at or above the high-water mark.
    pub over_high_water: u64,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox {
            buckets: HashMap::new(),
            depth: 0,
            max_depth: 0,
            high_water: 0,
            over_high_water: 0,
        }
    }
}

impl<M> Mailbox<M> {
    /// Buffers an envelope at the back of its `(src, tag)` bucket.
    fn push(&mut self, e: Envelope<M>) {
        if self.high_water > 0 && self.depth >= self.high_water {
            self.over_high_water += 1;
        }
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        self.buckets
            .entry((e.src, e.tag))
            .or_default()
            .push_back(e.msg);
    }

    /// Pops the oldest buffered message from `(src, tag)`, removing the
    /// bucket when it drains.
    fn take(&mut self, src: usize, tag: Tag) -> Option<M> {
        let q = self.buckets.get_mut(&(src, tag))?;
        let msg = q.pop_front().expect("empty buckets are removed eagerly");
        if q.is_empty() {
            self.buckets.remove(&(src, tag));
        }
        self.depth -= 1;
        Some(msg)
    }

    /// Discards every buffered message whose `(src, tag)` fails `keep`,
    /// returning how many messages were dropped. Used by fault-tolerant
    /// task loops to shed late/duplicate traffic for completed CPIs so
    /// the unexpected-message queue cannot grow without bound.
    fn purge(&mut self, mut keep: impl FnMut(usize, Tag) -> bool) -> usize {
        let mut dropped = 0;
        self.buckets.retain(|&(src, tag), q| {
            if keep(src, tag) {
                true
            } else {
                dropped += q.len();
                false
            }
        });
        self.depth -= dropped;
        dropped
    }

    /// Current depth accounting.
    fn stats(&self) -> MailboxStats {
        MailboxStats {
            depth: self.depth,
            max_depth: self.max_depth,
            high_water: self.high_water,
            over_high_water: self.over_high_water,
        }
    }
}

/// What a local rank's channel carries.
pub(crate) enum Delivery<M> {
    /// A data message.
    Data(Envelope<M>),
    /// A peer's endpoint dropped: re-check liveness and poison. Never
    /// reaches the mailbox, the fault plane or the tracer.
    Wake,
}

/// The in-process channel fabric: one mpsc channel per rank, shared
/// liveness/poison state. This is the original (and default)
/// backend; it moves typed messages with no serialization.
pub(crate) struct LocalFabric<M> {
    pub(crate) senders: Arc<Vec<Sender<Delivery<M>>>>,
    pub(crate) inbox: Receiver<Delivery<M>>,
    /// Number of endpoints still alive. Every rank shares one `Arc` to the
    /// sender table, so a blocked receiver keeps its own channel open and
    /// channel closure never signals an exit. Instead a dropping endpoint
    /// decrements this counter and then sends [`Delivery::Wake`] to every
    /// peer, which re-reads it.
    pub(crate) alive: Arc<AtomicUsize>,
    /// Set when any rank panicked (by its endpoint's `Drop`, while the
    /// rank unwinds, before the wakes go out): a poisoned world can never
    /// complete its communication pattern, so receivers fail fast with
    /// `Disconnected` instead of waiting on a dead peer.
    pub(crate) poisoned: Arc<AtomicBool>,
}

/// Mutable state of a wire-backed endpoint. Wrapped in a `RefCell` so
/// `Comm::send(&self)` keeps its signature; `Comm` is owned by one
/// thread, so no borrow is ever contended.
pub(crate) struct WireState<M> {
    pub(crate) link: Box<dyn WireLink>,
    pub(crate) codec: WireCodec<M>,
    /// Decodes into, and takes sent messages back to, the rank's buffer
    /// pool (see [`Comm::install_wire_pool`]); `None` uses the codec.
    pool: Option<Box<dyn WirePool<M>>>,
    /// Reused encode scratch so steady-state sends do not allocate.
    encode_buf: Vec<u8>,
    /// Self-sends loop back here without touching the link (mirroring
    /// the channel backend, which also skips serialization for them).
    loopback: VecDeque<Envelope<M>>,
    /// Goodbye control frames received; `size - 1` of them means every
    /// peer exited cleanly (the wire analogue of the `alive` counter).
    goodbyes: usize,
    /// The link reported `Disconnected`; no frame can ever arrive.
    link_down: bool,
}

/// A multi-process fabric: a [`WireLink`] moving encoded frames plus
/// the control-plane state `Comm` layers on top.
pub(crate) struct WireFabric<M> {
    pub(crate) size: usize,
    pub(crate) state: RefCell<WireState<M>>,
    /// External kill switch: a supervisor sets this to turn blocked
    /// receives into `Disconnected`, mirroring world poisoning on the
    /// local fabric.
    pub(crate) poisoned: Arc<AtomicBool>,
}

/// Which fabric this endpoint runs on. Everything above this enum —
/// mailbox, matching, fault injection, tracing — is shared, which is
/// what makes behavior identical across transports.
pub(crate) enum Fabric<M> {
    Local(LocalFabric<M>),
    Wire(WireFabric<M>),
}

/// One step of the fabric poll loop.
enum Step<M> {
    /// A data envelope arrived.
    Got(Envelope<M>),
    /// A peer's exit woke the wait: liveness may have changed.
    Woken,
    /// Nothing arrived within the wait.
    Idle,
    /// The underlying channel/link can never deliver again.
    Down,
}

/// The longest a wire receive waits on its link before it re-reads the
/// supervisor's poison flag, which no frame announces.
const WIRE_CHUNK: Duration = Duration::from_millis(2);

/// One rank's endpoint into a [`crate::World`].
///
/// Sending is asynchronous (enqueue-and-return); receiving blocks until a
/// message with the requested source and tag is available. Out-of-order
/// arrivals are buffered internally, mirroring MPI's unexpected-message
/// queue, so a rank may receive tag `B` before tag `A` even when `A`
/// arrived first.
///
/// Endpoints are fabric-agnostic: [`crate::World`] builds them over
/// in-process channels, [`Comm::over_wire`] builds them over a
/// [`WireLink`] (TCP between processes). All matching, buffering, fault
/// injection and tracing behavior is identical across fabrics.
pub struct Comm<M> {
    pub(crate) rank: usize,
    pub(crate) fabric: Fabric<M>,
    pub(crate) pending: Mailbox<M>,
    /// Fault-injection state (see [`crate::fault`]). `None` in production
    /// worlds: the send hot path then pays exactly one branch.
    pub(crate) faults: Option<crate::fault::FaultState<M>>,
    /// Span-tracing state (see [`crate::trace`]). `None` in production
    /// worlds: every instrumented call then pays exactly one branch and
    /// performs no allocation or clock read.
    pub(crate) tracer: Option<crate::trace::CommTracer<M>>,
}

impl<M> Drop for Comm<M> {
    fn drop(&mut self) {
        // Flush this rank's span buffer before announcing exit, so the
        // sink is complete once every endpoint has dropped.
        if let Some(t) = &self.tracer {
            t.flush(self.rank);
        }
        match &self.fabric {
            Fabric::Local(l) => {
                // Poison before the wakes go out, so a woken peer sees it.
                if std::thread::panicking() {
                    l.poisoned.store(true, Ordering::SeqCst);
                }
                l.alive.fetch_sub(1, Ordering::SeqCst);
                for (dst, tx) in l.senders.iter().enumerate() {
                    if dst != self.rank {
                        let _ = tx.send(Delivery::Wake);
                    }
                }
            }
            Fabric::Wire(w) => {
                let mut st = w.state.borrow_mut();
                // A panicking rank must *not* wave goodbye: peers would
                // mistake the death for a clean drain. Process exit (TCP
                // EOF) or the supervisor's poison handle reports it.
                if !st.link_down && !std::thread::panicking() {
                    for dst in (0..w.size).filter(|&d| d != self.rank) {
                        st.link.send_frame(dst, CTRL_GOODBYE, &[]);
                    }
                }
                st.link.close();
            }
        }
    }
}

impl<M: Send> Comm<M> {
    /// Builds a standalone endpoint over a wire transport. The link
    /// determines rank and world size; `codec` turns messages into
    /// frames. Install fault plans and tracing with
    /// [`Comm::install_fault_plan`] / [`Comm::install_tracing`].
    pub fn over_wire(link: Box<dyn WireLink>, codec: WireCodec<M>) -> Comm<M> {
        let (rank, size) = (link.rank(), link.size());
        assert!(rank < size, "link rank {rank} outside world of {size}");
        Comm {
            rank,
            fabric: Fabric::Wire(WireFabric {
                size,
                state: RefCell::new(WireState {
                    link,
                    codec,
                    pool: None,
                    encode_buf: Vec::new(),
                    loopback: VecDeque::new(),
                    goodbyes: 0,
                    link_down: false,
                }),
                poisoned: Arc::new(AtomicBool::new(false)),
            }),
            pending: Mailbox::default(),
            faults: None,
            tracer: None,
        }
    }

    /// The poison flag that turns this endpoint's blocked receives into
    /// `Disconnected`. On the local fabric this is the world-shared flag a
    /// rank's endpoint sets when it drops during a panic, just before it
    /// wakes its peers; a store from elsewhere wakes no one there. On wire
    /// fabrics it is per-endpoint, for a supervisor to fire when the rank
    /// waits on a peer that will never send while the link stays up (the
    /// link reports `Disconnected` only once every peer has closed); a
    /// blocked wire receive re-reads it every few milliseconds.
    pub fn poison_handle(&self) -> Arc<AtomicBool> {
        match &self.fabric {
            Fabric::Local(l) => Arc::clone(&l.poisoned),
            Fabric::Wire(w) => Arc::clone(&w.poisoned),
        }
    }

    /// Installs a deterministic fault plan on this endpoint (the
    /// standalone analogue of [`crate::World::with_faults`], for wire
    /// endpoints that never pass through a `World`).
    pub fn install_fault_plan(
        &mut self,
        plan: crate::fault::FaultPlan,
        corruptor: Option<crate::fault::Corruptor<M>>,
    ) where
        M: Clone,
    {
        let mut state = crate::fault::FaultState::new(Arc::new(plan), None);
        if let Some(c) = corruptor {
            state.set_corruptor(c);
        }
        self.faults = Some(state);
    }

    /// Installs span tracing on this endpoint (the standalone analogue
    /// of [`crate::World::with_tracing`]). Events flush into `sink` when
    /// the endpoint drops.
    pub fn install_tracing(
        &mut self,
        epoch: Instant,
        sink: &crate::trace::TraceSink,
        bytes_of: fn(&M) -> u64,
    ) {
        self.tracer = Some(crate::trace::CommTracer::new(epoch, sink.clone(), bytes_of));
    }

    /// Routes this endpoint's message buffers through `pool`: received
    /// frames decode into buffers drawn from it and sent messages return
    /// to it once encoded, so a wire rank recycles like a thread of the
    /// local fabric. Does nothing on the local fabric, which moves
    /// messages by value.
    pub fn install_wire_pool(&mut self, pool: Box<dyn WirePool<M>>) {
        if let Fabric::Wire(w) = &self.fabric {
            w.state.borrow_mut().pool = Some(pool);
        }
    }

    /// This endpoint's rank in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        match &self.fabric {
            Fabric::Local(l) => l.senders.len(),
            Fabric::Wire(w) => w.size,
        }
    }

    /// Asynchronously sends `msg` to `dst` with `tag`. Never blocks; the
    /// message is buffered until the receiver matches it. Sending to a
    /// rank whose endpoint has been dropped silently discards (the
    /// pipeline's drain phase relies on this).
    pub fn send(&self, dst: usize, tag: Tag, msg: M) {
        assert!(dst < self.size(), "send to rank {dst} of {}", self.size());
        if matches!(self.fabric, Fabric::Wire(_)) {
            assert!(
                tag < CTRL_RESERVED_BASE,
                "tag {tag:#x} is reserved for the wire control plane"
            );
        }
        if let Some(t) = &self.tracer {
            t.recorder
                .record_instant(crate::trace::TraceKind::Send, dst, tag, t.bytes(&msg));
        }
        let msg = match &self.faults {
            None => msg,
            Some(f) => match f.on_send(self.rank, dst, tag, msg) {
                crate::fault::SendVerdict::Deliver(m) => m,
                crate::fault::SendVerdict::DeliverTwice(a, b) => {
                    self.raw_send(dst, tag, a);
                    self.raw_send(dst, tag, b);
                    return;
                }
                crate::fault::SendVerdict::Consumed => return,
            },
        };
        self.raw_send(dst, tag, msg);
    }

    /// Enqueues an envelope directly, bypassing the fault plane. Used for
    /// delayed-message release and duplicate delivery.
    pub(crate) fn raw_send(&self, dst: usize, tag: Tag, msg: M) {
        match &self.fabric {
            Fabric::Local(l) => {
                let _ = l.senders[dst].send(Delivery::Data(Envelope {
                    src: self.rank,
                    tag,
                    msg,
                }));
            }
            Fabric::Wire(w) => {
                let mut st = w.state.borrow_mut();
                if dst == self.rank {
                    st.loopback.push_back(Envelope {
                        src: self.rank,
                        tag,
                        msg,
                    });
                    return;
                }
                let st = &mut *st;
                st.encode_buf.clear();
                (st.codec.encode)(&msg, &mut st.encode_buf);
                st.link.send_frame(dst, tag, &st.encode_buf);
                if let Some(pool) = &st.pool {
                    pool.retire(msg);
                }
            }
        }
    }

    /// Blocking receive of a message from `src` with `tag`.
    pub fn recv(&mut self, src: usize, tag: Tag) -> Result<M, RecvError> {
        let started = self.trace_now();
        let r = self.recv_inner(src, tag);
        if let (Some(t), Ok(m)) = (&self.tracer, &r) {
            t.recorder
                .record_span(crate::trace::TraceKind::Recv, src, tag, t.bytes(m), started);
        }
        r
    }

    fn recv_inner(&mut self, src: usize, tag: Tag) -> Result<M, RecvError> {
        if let Some(m) = self.pending.take(src, tag) {
            return Ok(m);
        }
        loop {
            let e = self.blocking_next()?;
            if e.tag == tag && e.src == src {
                return Ok(e.msg);
            }
            self.pending.push(e);
        }
    }

    /// Waits for one envelope from the fabric, up to `wait` (`None`: for
    /// as long as it takes), absorbing wire control frames along the way.
    /// A local wait ends only on a delivery; a wire wait also ends after
    /// [`WIRE_CHUNK`].
    fn poll_step(&self, wait: Option<Duration>) -> Step<M> {
        match &self.fabric {
            Fabric::Local(l) => {
                let got = match wait {
                    None => l.inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    Some(d) => l.inbox.recv_timeout(d),
                };
                match got {
                    Ok(Delivery::Data(e)) => Step::Got(e),
                    Ok(Delivery::Wake) => Step::Woken,
                    Err(RecvTimeoutError::Timeout) => Step::Idle,
                    Err(RecvTimeoutError::Disconnected) => Step::Down,
                }
            }
            Fabric::Wire(w) => {
                let chunk = wait.map_or(WIRE_CHUNK, |d| d.min(WIRE_CHUNK));
                let mut st = w.state.borrow_mut();
                let st = &mut *st;
                if let Some(e) = st.loopback.pop_front() {
                    return Step::Got(e);
                }
                if st.link_down {
                    return Step::Down;
                }
                let deadline = Instant::now() + chunk;
                let mut first = true;
                loop {
                    let now = Instant::now();
                    if !first && now >= deadline {
                        return Step::Idle;
                    }
                    first = false;
                    let remaining = deadline.saturating_duration_since(now);
                    // A goodbye is counted and any other reserved-range
                    // frame is discarded undecoded: no receive can match
                    // it, and a purge would keep it forever. A data frame
                    // is decoded out of the link's buffer before the next
                    // call reuses it.
                    match st.link.recv_frame(remaining) {
                        Ok(f) => match f.tag {
                            CTRL_GOODBYE => st.goodbyes += 1,
                            tag if tag >= CTRL_RESERVED_BASE => {}
                            tag => {
                                let msg = match &st.pool {
                                    Some(pool) => pool.decode(f.payload),
                                    None => (st.codec.decode)(f.payload),
                                };
                                return Step::Got(Envelope {
                                    src: f.src,
                                    tag,
                                    msg,
                                });
                            }
                        },
                        Err(LinkError::Timeout) => return Step::Idle,
                        Err(LinkError::Disconnected) => {
                            st.link_down = true;
                            return Step::Down;
                        }
                    }
                }
            }
        }
    }

    /// True when no peer can ever send to this endpoint again.
    fn disconnected_now(&self) -> bool {
        match &self.fabric {
            Fabric::Local(l) => {
                l.poisoned.load(Ordering::SeqCst) || l.alive.load(Ordering::SeqCst) <= 1
            }
            Fabric::Wire(w) => {
                w.poisoned.load(Ordering::SeqCst) || {
                    let st = w.state.borrow();
                    st.link_down || st.goodbyes + 1 >= w.size
                }
            }
        }
    }

    /// Non-blocking pull of one envelope, if immediately available.
    /// Discards wake items on the way.
    fn try_next(&self) -> Option<Envelope<M>> {
        loop {
            match self.poll_step(Some(Duration::ZERO)) {
                Step::Got(e) => return Some(e),
                Step::Woken => {}
                Step::Idle | Step::Down => return None,
            }
        }
    }

    /// Waits for the next envelope, detecting the "everyone else exited"
    /// condition via the fabric's liveness signal (the shared `alive`
    /// counter and poison flag in-process; goodbye frames, link teardown
    /// and the poison flag on the wire).
    ///
    /// Liveness is checked before every wait: an exit whose wake item an
    /// earlier drain discarded is seen there, and one after the check
    /// sends its wake into the inbox this wait reads. A local wait has no
    /// timeout; a wire wait re-checks every [`WIRE_CHUNK`].
    fn blocking_next(&mut self) -> Result<Envelope<M>, RecvError> {
        loop {
            if self.disconnected_now() {
                // No other endpoint can ever send again; drain any
                // message that raced with the liveness update.
                return self.try_next().ok_or(RecvError::Disconnected);
            }
            match self.poll_step(None) {
                Step::Got(e) => return Ok(e),
                Step::Down => return Err(RecvError::Disconnected),
                Step::Woken | Step::Idle => {}
            }
        }
    }

    /// Like [`Comm::recv`] but gives up after `timeout`.
    ///
    /// Observes world poisoning and peer exit like [`Comm::recv`] does,
    /// instead of burning the whole timeout waiting on a peer that can
    /// never send. A local receive sleeps once, until its deadline, and
    /// sleeps again only after a wake-up that did not match.
    pub fn recv_timeout(
        &mut self,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<M, RecvError> {
        let started = self.trace_now();
        let r = self.recv_timeout_inner(src, tag, timeout);
        if let Some(t) = &self.tracer {
            match &r {
                Ok(m) => t.recorder.record_span(
                    crate::trace::TraceKind::Recv,
                    src,
                    tag,
                    t.bytes(m),
                    started,
                ),
                Err(RecvError::Timeout) => {
                    // The whole window was spent blocked with nothing
                    // to show for it: a scheduling gap, not a receive.
                    t.recorder
                        .record_span(crate::trace::TraceKind::Wait, src, tag, 0, started)
                }
                Err(RecvError::Disconnected) => {}
            }
        }
        r
    }

    fn recv_timeout_inner(
        &mut self,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<M, RecvError> {
        if let Some(m) = self.pending.take(src, tag) {
            return Ok(m);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::Timeout);
            }
            // Checked before each wait, as in `blocking_next`.
            if self.disconnected_now() {
                self.drain_inbox();
                return self.pending.take(src, tag).ok_or(RecvError::Disconnected);
            }
            match self.poll_step(Some(deadline - now)) {
                Step::Got(e) => {
                    if e.tag == tag && e.src == src {
                        return Ok(e.msg);
                    }
                    self.pending.push(e);
                }
                Step::Down => return Err(RecvError::Disconnected),
                Step::Woken | Step::Idle => {}
            }
        }
    }

    /// Marks an application progress point for the fault plane: releases
    /// delayed messages that have come due, then applies any rank stall
    /// or rank panic the plan schedules at `(rank, epoch)`. A no-op (one
    /// branch) in worlds without a fault plan.
    ///
    /// The STAP pipeline calls this once per CPI from every task loop.
    pub fn fault_checkpoint(&mut self, epoch: u64) {
        let Some(f) = &self.faults else { return };
        let (due, stall, should_panic) = f.on_checkpoint(self.rank, epoch);
        for (dst, tag, msg) in due {
            // Released messages bypass the rules: they already matched.
            self.raw_send(dst, tag, msg);
        }
        if let Some(d) = stall {
            std::thread::sleep(d);
        }
        if should_panic {
            panic!(
                "fault injection: rank {} panicked at epoch {epoch}",
                self.rank
            );
        }
    }

    /// Discards buffered unexpected messages whose `(src, tag)` fails
    /// `keep`, returning the number of messages dropped. Fault-tolerant
    /// receivers use this to shed late or duplicate traffic belonging to
    /// CPIs that already completed (or were abandoned).
    pub fn purge_pending(&mut self, keep: impl FnMut(usize, Tag) -> bool) -> usize {
        self.drain_inbox();
        self.pending.purge(keep)
    }

    /// Depth accounting of this rank's unexpected-message queue. Drains
    /// the delivery channel first so "buffered" means every message that
    /// has arrived but not been consumed, not just those a receive
    /// already parked.
    pub fn mailbox_stats(&mut self) -> MailboxStats {
        self.drain_inbox();
        self.pending.stats()
    }

    /// Sets the mailbox's soft high-water mark (0 disables). Crossing it
    /// increments [`MailboxStats::over_high_water`] instead of shedding:
    /// on a blocking-receive runtime, dropping buffered messages would
    /// deadlock the consumers expecting them, so the bound is a
    /// backpressure *signal* for the layer that admits work.
    pub fn set_mailbox_high_water(&mut self, high_water: usize) {
        self.pending.high_water = high_water;
    }

    /// Visits every buffered `(src, tag)` bucket with its current depth
    /// (draining the delivery channel first). Lets the application
    /// attribute queue depth to its own tag structure — e.g. per
    /// pipeline edge — without stap-mp knowing the tag encoding.
    pub fn pending_counts(&mut self, mut visit: impl FnMut(usize, Tag, usize)) {
        self.drain_inbox();
        for (&(src, tag), q) in &self.pending.buckets {
            visit(src, tag, q.len());
        }
    }

    /// Reads the clock only when tracing is enabled; pair with
    /// [`Comm::trace_redistribute`] to attribute application-side
    /// redistribution work (cube pack/unpack) without paying a clock
    /// read in production worlds.
    #[inline]
    pub fn trace_now(&self) -> Option<std::time::Instant> {
        self.tracer.as_ref().map(|_| Instant::now())
    }

    /// Records a [`crate::trace::TraceKind::Redistribute`] span begun at
    /// `started` (from [`Comm::trace_now`]) covering `bytes` moved
    /// between this rank and `peer` under `tag`. One branch, no-op when
    /// tracing is disabled or `started` is `None`.
    #[inline]
    pub fn trace_redistribute(
        &self,
        peer: usize,
        tag: Tag,
        bytes: u64,
        started: Option<std::time::Instant>,
    ) {
        if let Some(t) = &self.tracer {
            t.recorder.record_span(
                crate::trace::TraceKind::Redistribute,
                peer,
                tag,
                bytes,
                started,
            );
        }
    }

    fn drain_inbox(&mut self) {
        while let Some(e) = self.try_next() {
            self.pending.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    /// A spare tag for FIFO fences: once a receiver has matched a fence
    /// from a sender, everything that sender sent before it is already
    /// buffered, because delivery is FIFO per sender on every fabric.
    const FENCE: Tag = 99;

    #[test]
    fn ping_pong() {
        let world: World<u32> = World::new(2);
        world.run(|mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, 42);
                assert_eq!(comm.recv(1, 8).unwrap(), 43);
            } else {
                let x = comm.recv(0, 7).unwrap();
                comm.send(0, 8, x + 1);
            }
        });
    }

    #[test]
    fn out_of_order_tag_arrival_pops_fifo_per_bucket() {
        // One sender interleaves two tags; the receiver drains them in
        // the opposite tag order. Within a (src, tag) bucket, messages
        // must come out in arrival (FIFO) order.
        let world: World<u32> = World::new(2);
        world.run(|mut comm| {
            if comm.rank() == 0 {
                for &(tag, v) in &[(2u64, 20u32), (1, 10), (2, 21), (1, 11), (2, 22)] {
                    comm.send(1, tag, v);
                }
                comm.send(1, FENCE, 0);
            } else {
                comm.recv(0, FENCE).unwrap(); // everything is buffered out of order now
                assert_eq!(comm.recv(0, 1).unwrap(), 10);
                assert_eq!(comm.recv(0, 1).unwrap(), 11);
                assert_eq!(comm.recv(0, 2).unwrap(), 20);
                assert_eq!(comm.recv(0, 2).unwrap(), 21);
                assert_eq!(comm.recv(0, 2).unwrap(), 22);
            }
        });
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let world: World<&'static str> = World::new(2);
        world.run(|mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, "first");
                comm.send(1, 2, "second");
            } else {
                // Receive in reverse order of arrival.
                assert_eq!(comm.recv(0, 2).unwrap(), "second");
                assert_eq!(comm.recv(0, 1).unwrap(), "first");
            }
        });
    }

    #[test]
    fn source_matching_separates_senders() {
        let world: World<usize> = World::new(3);
        world.run(|mut comm| match comm.rank() {
            0 => comm.send(2, 5, 100),
            1 => comm.send(2, 5, 200),
            _ => {
                // Match rank 1 first even if rank 0's message arrived first.
                assert_eq!(comm.recv(1, 5).unwrap(), 200);
                assert_eq!(comm.recv(0, 5).unwrap(), 100);
            }
        });
    }

    #[test]
    fn disconnected_world_errors_cleanly() {
        let world: World<()> = World::new(2);
        world.run(|mut comm| {
            if comm.rank() == 0 {
                // Exit immediately; rank 1's recv must not hang forever.
            } else {
                assert_eq!(comm.recv(0, 1).unwrap_err(), RecvError::Disconnected);
            }
        });
    }

    #[test]
    fn timeout_fires_when_no_message() {
        // Rank 0 stays alive until rank 1 reports back, so the wait can
        // only end in a timeout.
        let world: World<()> = World::new(2);
        world.run(|mut comm| {
            if comm.rank() == 1 {
                let r = comm.recv_timeout(0, 1, Duration::from_millis(20));
                assert_eq!(r.unwrap_err(), RecvError::Timeout);
                comm.send(0, FENCE, ());
            } else {
                comm.recv(1, FENCE).unwrap();
            }
        });
    }

    /// This thread's voluntary context switches so far: one per sleep
    /// that ended, whatever woke it.
    #[cfg(target_os = "linux")]
    fn voluntary_switches() -> u64 {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let line = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .expect("a voluntary_ctxt_switches line");
        line.trim().parse().unwrap()
    }

    /// A wait of about 200 ms sleeps through it: a timer tick of a few
    /// ms would wake it about 100 times.
    #[cfg(target_os = "linux")]
    const MAX_WAKES: u64 = 10;

    #[cfg(target_os = "linux")]
    #[test]
    fn blocked_recv_sleeps_until_its_message() {
        let world: World<u32> = World::new(2);
        world.run(|mut comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(200));
                comm.send(1, 1, 7);
                comm.recv(1, FENCE).unwrap();
            } else {
                let before = voluntary_switches();
                assert_eq!(comm.recv(0, 1).unwrap(), 7);
                let wakes = voluntary_switches() - before;
                assert!(wakes <= MAX_WAKES, "{wakes} wake-ups in one receive");
                comm.send(0, FENCE, 0);
            }
        });
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn recv_timeout_sleeps_until_its_deadline() {
        let world: World<()> = World::new(2);
        world.run(|mut comm| {
            if comm.rank() == 1 {
                let before = voluntary_switches();
                let r = comm.recv_timeout(0, 1, Duration::from_millis(200));
                let wakes = voluntary_switches() - before;
                assert_eq!(r.unwrap_err(), RecvError::Timeout);
                assert!(wakes <= MAX_WAKES, "{wakes} wake-ups in one timed receive");
                comm.send(0, FENCE, ());
            } else {
                comm.recv(1, FENCE).unwrap();
            }
        });
    }

    #[test]
    fn self_send_works() {
        let world: World<u64> = World::new(1);
        world.run(|mut comm| {
            comm.send(0, 11, 77);
            assert_eq!(comm.recv(0, 11).unwrap(), 77);
        });
    }

    #[test]
    fn mailbox_depth_tracks_buffered_messages() {
        let world: World<u32> = World::new(2);
        world.run(|mut comm| {
            if comm.rank() == 0 {
                for t in 0..5u64 {
                    comm.send(1, t, t as u32);
                }
                comm.send(1, FENCE, 0);
            } else {
                comm.recv(0, FENCE).unwrap(); // all five are buffered now
                let s = comm.mailbox_stats();
                assert_eq!(s.depth, 5);
                assert_eq!(s.max_depth, 5);
                assert_eq!(s.over_high_water, 0, "no high-water configured");
                let mut seen = 0;
                comm.pending_counts(|src, _t, n| {
                    assert_eq!(src, 0);
                    seen += n;
                });
                assert_eq!(seen, 5);
                for t in 0..5u64 {
                    let _ = comm.recv(0, t).unwrap();
                }
                let s = comm.mailbox_stats();
                assert_eq!(s.depth, 0, "consumed messages leave the mailbox");
                assert_eq!(s.max_depth, 5, "high-water mark persists");
            }
        });
    }

    #[test]
    fn high_water_crossings_are_counted_not_shed() {
        let world: World<u32> = World::new(2);
        world.run(|mut comm| {
            if comm.rank() == 0 {
                for t in 0..6u64 {
                    comm.send(1, t, t as u32);
                }
                comm.send(1, FENCE, 0);
            } else {
                comm.set_mailbox_high_water(2);
                comm.recv(0, FENCE).unwrap();
                let s = comm.mailbox_stats();
                assert_eq!(s.depth, 6, "soft bound must not drop messages");
                assert_eq!(s.high_water, 2);
                assert_eq!(s.over_high_water, 4, "pushes at/above the mark");
                // Every message is still receivable.
                for t in 0..6u64 {
                    assert_eq!(comm.recv(0, t).unwrap(), t as u32);
                }
            }
        });
    }

    #[test]
    fn heavy_all_to_all_stress() {
        // Every rank sends to every rank, then receives from all sources
        // in a seeded random order, yielding at random points. A rank can
        // run at most one round ahead (it needs everyone's current-round
        // message first), so a round ends with only next-round arrivals
        // buffered, and the last round ends with an empty mailbox.
        const P: usize = 8;
        const ROUNDS: u64 = 20;
        let world: World<Vec<u64>> = World::new(P);
        world.run(|mut comm| {
            let me = comm.rank();
            let mut rng = stap_util::rng::Rng::seed_from_u64(0x5eed ^ me as u64);
            for round in 0..ROUNDS {
                for dst in 0..P {
                    comm.send(dst, round, vec![me as u64, round, dst as u64]);
                }
                let mut order: Vec<usize> = (0..P).collect();
                for i in (1..P).rev() {
                    order.swap(i, rng.gen_range_usize(0, i + 1));
                }
                for src in order {
                    if rng.gen_bool(0.25) {
                        std::thread::yield_now();
                    }
                    let m = comm.recv(src, round).unwrap();
                    assert_eq!(m, vec![src as u64, round, me as u64]);
                }
                let mut early = 0;
                comm.pending_counts(|_, tag, n| {
                    assert_eq!(tag, round + 1, "rank {me} round {round}");
                    early += n;
                });
                // Depth accounting agrees with the buckets just counted
                // (read without draining again: a fresh arrival would race).
                assert_eq!(comm.pending.stats().depth, early);
            }
            assert_eq!(comm.mailbox_stats().depth, 0, "rank {me}");
        });
    }
}
