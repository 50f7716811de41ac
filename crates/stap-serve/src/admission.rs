//! Admission control: who may submit, how much, and in what order.
//!
//! Every stream must be registered before it can submit; submissions
//! are sequenced per stream (the resident pipeline's weight FIFOs
//! require contiguous `scpi` from 0) and bounded per stream: once a
//! stream has `queue_depth` CPIs admitted-but-incomplete, further
//! submissions are rejected with [`Reject::QueueFull`] rather than
//! buffered without bound. Disconnecting a stream purges its
//! undispatched CPIs so a mid-flight producer failure cannot wedge the
//! pipeline's driver — and *retires* the id: per-stream pipeline state
//! (weight FIFOs, QR recursion) is keyed by stream id and may outlive
//! the disconnect inside a supervisor checkpoint, so a re-registered id
//! would inherit a stale weight schedule. Reconnecting tenants take a
//! fresh id.
//!
//! Admission is also where the quarantine state machine lives: a stream
//! whose consecutive-failure streak (non-finite submissions, degraded
//! completions) crosses [`AdmissionConfig::quarantine_streak`] is
//! refused with [`Reject::Quarantined`] for a timed probation window
//! that doubles on each re-offense (exponential backoff, reset by a
//! clean completion), so one tenant feeding garbage cannot keep burning
//! shared slots.

use crate::health::{LastOutcome, StreamHealth};
use stap_cube::CCube;
use stap_pipeline::{CpiDone, CpiJob};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The stream has `queue_depth` CPIs in flight; shed load or wait.
    QueueFull {
        /// The offending stream.
        stream: u16,
        /// The configured per-stream bound that was hit.
        depth: usize,
    },
    /// The stream was never registered, already disconnected, or is a
    /// retired id (disconnected ids are never re-admitted).
    UnknownStream(u16),
    /// The cube's shape does not match the pipeline's `[K, J, N]`.
    BadShape {
        /// What the pipeline expects.
        expected: [usize; 3],
        /// What the caller submitted.
        got: [usize; 3],
    },
    /// The cube contains NaN/Inf samples (pre-admission screen); it
    /// never reached the pipeline. Repeated offenses quarantine the
    /// stream.
    NonFinite(u16),
    /// The stream is quarantined; retry after `retry_ms`.
    Quarantined {
        /// The quarantined stream.
        stream: u16,
        /// Milliseconds until the probation window opens.
        retry_ms: u64,
    },
    /// The server is shutting down.
    Closed,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::QueueFull { stream, depth } => {
                write!(f, "stream {stream}: queue full (depth {depth})")
            }
            Reject::UnknownStream(s) => write!(f, "stream {s}: not registered"),
            Reject::BadShape { expected, got } => {
                write!(f, "bad cube shape {got:?}, expected {expected:?}")
            }
            Reject::NonFinite(s) => write!(f, "stream {s}: non-finite samples"),
            Reject::Quarantined { stream, retry_ms } => {
                write!(f, "stream {stream}: quarantined (retry in {retry_ms} ms)")
            }
            Reject::Closed => write!(f, "server closed"),
        }
    }
}

/// Admission limits.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Per-stream high-water mark: admitted-but-incomplete CPIs beyond
    /// which submissions bounce with [`Reject::QueueFull`].
    pub queue_depth: usize,
    /// Required cube shape `[k_range, j_channels, n_pulses]`.
    pub shape: [usize; 3],
    /// Consecutive failures (non-finite rejects or degraded
    /// completions) before a stream is quarantined. 0 disables
    /// quarantine.
    pub quarantine_streak: u32,
    /// First quarantine window in milliseconds; doubles on each
    /// re-offense (capped at 30 s) and resets on a clean completion.
    pub probation_ms: u64,
}

/// Where a stream stands with admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Standing {
    /// Seen only through a rejected submission; never registered.
    Unregistered,
    /// Registered and connected: may submit.
    Active,
    /// Disconnected; the id is never re-admitted (see module docs).
    Retired,
}

/// One stream's row in the ledger: its admission state, its health and
/// its completion record. Rows survive disconnect.
pub struct StreamRow {
    standing: Standing,
    next_scpi: u32,
    /// Admitted and not yet completed (spans the ready queue and the
    /// pipeline itself).
    in_flight: usize,
    /// Quarantine gate: submissions bounce until this instant.
    quarantined_until: Option<Instant>,
    /// Current backoff window (ms); doubles per re-offense.
    backoff_ms: u64,
    /// Outcome and reject counters, failure streak, quarantine record.
    pub(crate) health: StreamHealth,
    /// Completions, warm-up included, whatever the stream's standing.
    pub(crate) completed: u64,
    /// Steady-state latency samples in seconds (warm-up excluded).
    pub(crate) latencies: Vec<f64>,
    /// Detections reported across every completion.
    pub(crate) detections: u64,
}

impl StreamRow {
    fn new(stream: u16) -> Self {
        StreamRow {
            standing: Standing::Unregistered,
            next_scpi: 0,
            in_flight: 0,
            quarantined_until: None,
            backoff_ms: 0,
            health: StreamHealth {
                stream,
                ..StreamHealth::default()
            },
            completed: 0,
            latencies: Vec::new(),
            detections: 0,
        }
    }

    fn reject(&mut self, r: Reject) -> Reject {
        self.health.rejects.bump(&r);
        self.health.last = if matches!(r, Reject::Quarantined { .. }) {
            LastOutcome::Quarantined
        } else {
            LastOutcome::Rejected
        };
        r
    }

    /// Adds a completed CPI's result to the row: its detections and,
    /// past the stream's first `warmup` CPIs, its latency sample.
    pub fn record(&mut self, done: &CpiDone, warmup: u32) {
        self.detections += done.detections.len() as u64;
        if done.scpi >= warmup {
            self.latencies.push(done.latency);
        }
    }

    /// Fires the quarantine gate when the streak crosses the threshold.
    fn maybe_quarantine(&mut self, cfg: &AdmissionConfig, now: Instant) {
        let threshold = cfg.quarantine_streak;
        if threshold == 0 || self.health.streak < threshold || self.quarantined_until.is_some() {
            return;
        }
        let window = if self.backoff_ms == 0 {
            cfg.probation_ms.max(1)
        } else {
            (self.backoff_ms * 2).min(MAX_BACKOFF_MS)
        };
        self.backoff_ms = window;
        self.quarantined_until = Some(now + Duration::from_millis(window));
        self.health.quarantines += 1;
        self.health.last = LastOutcome::Quarantined;
    }

    /// Quarantine gate: `Some(reject)` while the window is closed,
    /// clearing the gate (probation) once it has elapsed.
    fn quarantine_gate(&mut self, now: Instant) -> Option<Reject> {
        let until = self.quarantined_until?;
        if now < until {
            let retry_ms = until.duration_since(now).as_millis() as u64;
            return Some(Reject::Quarantined {
                stream: self.health.stream,
                retry_ms,
            });
        }
        // Probation: the gate opens but the backoff window is retained,
        // so a re-offense doubles it. A clean completion resets it.
        self.quarantined_until = None;
        None
    }
}

/// Backoff growth cap: one offense can never lock a tenant out for
/// more than 30 s at a time.
const MAX_BACKOFF_MS: u64 = 30_000;

/// The shared admission ledger (lives under the server's mutex). Public
/// so embedders and the counting-allocator tests can drive admission
/// without a full server.
pub struct Ingest {
    cfg: AdmissionConfig,
    /// One row per stream ever seen, by id.
    rows: BTreeMap<u16, StreamRow>,
    /// Admitted CPIs the pipeline's driver has not taken yet, in
    /// arrival order across streams.
    pub ready: VecDeque<CpiJob>,
    /// False once shutdown begins: all submissions bounce `Closed`.
    pub open: bool,
    /// Undispatched CPIs purged by disconnects.
    pub purged: u64,
}

impl Ingest {
    /// A fresh ledger with no streams.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Ingest {
            cfg,
            rows: BTreeMap::new(),
            ready: VecDeque::new(),
            open: true,
            purged: 0,
        }
    }

    fn row(&mut self, stream: u16) -> &mut StreamRow {
        self.rows
            .entry(stream)
            .or_insert_with(|| StreamRow::new(stream))
    }

    /// Every stream's row, sorted by id.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &StreamRow> {
        self.rows.values()
    }

    /// Registers a stream id. Idempotent for an already-active stream;
    /// a no-op for a retired id (its submissions keep bouncing
    /// [`Reject::UnknownStream`]).
    pub fn register(&mut self, stream: u16) {
        let row = self.row(stream);
        if row.standing == Standing::Unregistered {
            row.standing = Standing::Active;
        }
    }

    /// True when `stream` was disconnected (its id is retired).
    pub fn is_retired(&self, stream: u16) -> bool {
        self.rows
            .get(&stream)
            .is_some_and(|r| r.standing == Standing::Retired)
    }

    fn reject(&mut self, stream: u16, r: Reject) -> Reject {
        self.row(stream).reject(r)
    }

    /// The row of `stream` when it may submit now: registered, connected
    /// and out of quarantine.
    fn admitting(&mut self, stream: u16, now: Instant) -> Result<&mut StreamRow, Reject> {
        let row = (self.rows.get_mut(&stream))
            .filter(|r| r.standing == Standing::Active)
            .ok_or(Reject::UnknownStream(stream))?;
        match row.quarantine_gate(now) {
            Some(r) => Err(r),
            None => Ok(row),
        }
    }

    /// Admits one CPI, assigning its per-stream sequence number. On
    /// rejection the cube rides back with the reason so the caller can
    /// recycle it into the pool instead of dropping the buffer.
    pub fn submit(
        &mut self,
        stream: u16,
        cube: CCube,
        now: Instant,
    ) -> Result<u32, (Reject, CCube)> {
        if !self.open {
            return Err((self.reject(stream, Reject::Closed), cube));
        }
        if cube.shape() != self.cfg.shape {
            let got = cube.shape();
            let r = Reject::BadShape {
                expected: self.cfg.shape,
                got,
            };
            return Err((self.reject(stream, r), cube));
        }
        let depth = self.cfg.queue_depth;
        let row = match self.admitting(stream, now) {
            Ok(row) => row,
            Err(r) => return Err((self.reject(stream, r), cube)),
        };
        if row.in_flight >= depth {
            return Err((row.reject(Reject::QueueFull { stream, depth }), cube));
        }
        let scpi = row.next_scpi;
        row.next_scpi += 1;
        row.in_flight += 1;
        self.ready.push_back(CpiJob {
            stream,
            scpi,
            cube,
            submitted: now,
        });
        Ok(scpi)
    }

    /// Records a pre-admission non-finite screen hit: counts the
    /// failure against the stream's streak (possibly firing quarantine)
    /// and returns the reject the caller should surface. The cube never
    /// entered the ledger, so there is no depth/sequence effect.
    pub fn note_nonfinite(&mut self, stream: u16, now: Instant) -> Reject {
        if !self.open {
            return self.reject(stream, Reject::Closed);
        }
        let cfg = self.cfg;
        let row = match self.admitting(stream, now) {
            Ok(row) => row,
            Err(r) => return self.reject(stream, r),
        };
        let r = row.reject(Reject::NonFinite(stream));
        row.health.streak += 1;
        row.maybe_quarantine(&cfg, now);
        r
    }

    /// Cheap admission probe: would a submission for `stream` be
    /// admitted right now? With one producer per stream (the sequencing
    /// contract), a `true` answer cannot be invalidated concurrently —
    /// other threads only *complete* CPIs, which frees depth.
    /// Quarantined streams stay "ready" so their producers keep probing
    /// and collecting the typed reject (with its retry hint) instead of
    /// parking forever on a condvar nobody signals for them.
    pub fn ready_for(&self, stream: u16) -> bool {
        self.open
            && self.rows.get(&stream).is_some_and(|r| {
                r.standing == Standing::Active && r.in_flight < self.cfg.queue_depth
            })
    }

    /// Removes a stream, retires its id and purges its undispatched
    /// CPIs (CPIs already handed to the pipeline still complete, and
    /// drain as `Dropped` in the stream's health). Returns cubes purged
    /// so the caller can recycle them into the pool outside the lock.
    pub fn disconnect(&mut self, stream: u16) -> Vec<CCube> {
        let mut dropped = Vec::new();
        self.ready.retain_mut(|p| {
            if p.stream == stream {
                dropped.push(std::mem::replace(&mut p.cube, CCube::zeros([0, 0, 0])));
                false
            } else {
                true
            }
        });
        self.purged += dropped.len() as u64;
        let row = self.row(stream);
        row.standing = Standing::Retired;
        row.health.dropped += dropped.len() as u64;
        if !dropped.is_empty() {
            row.health.last = LastOutcome::Dropped;
        }
        dropped
    }

    /// Takes up to `max` ready CPIs for one pipeline slot. The driver
    /// takes them in arrival order, so a slot naturally mixes streams.
    pub fn next_group_into(&mut self, max: usize, out: &mut Vec<CpiJob>) {
        while out.len() < max {
            match self.ready.pop_front() {
                Some(p) => out.push(p),
                None => break,
            }
        }
    }

    /// Marks one CPI complete in its stream's row and returns the row,
    /// for the caller to [`record`](StreamRow::record) the result in.
    /// An active stream gets a unit of depth back and the outcome in its
    /// health; a completion for a disconnected stream is a *drain* — the
    /// result has no consumer — and counts as `Dropped`.
    pub fn complete(&mut self, stream: u16, degraded: bool, now: Instant) -> &mut StreamRow {
        let cfg = self.cfg;
        let row = self.row(stream);
        row.completed += 1;
        if row.standing != Standing::Active {
            row.health.dropped += 1;
            row.health.last = LastOutcome::Dropped;
            return row;
        }
        row.in_flight = row.in_flight.saturating_sub(1);
        if degraded {
            row.health.degraded += 1;
            row.health.streak += 1;
            row.health.last = LastOutcome::Degraded;
            row.maybe_quarantine(&cfg, now);
        } else {
            row.backoff_ms = 0;
            row.health.ok += 1;
            row.health.streak = 0;
            row.health.last = LastOutcome::Ok;
        }
        row
    }

    /// Records a CPI lost across a supervisor recovery (its stream left
    /// while the slot was pending replay).
    pub fn note_lost(&mut self, stream: u16) {
        let h = &mut self.row(stream).health;
        h.dropped += 1;
        h.last = LastOutcome::Dropped;
    }

    /// Snapshot of every stream's health, sorted by id, with the live
    /// quarantine flag folded in.
    pub fn stream_health(&self, now: Instant) -> Vec<StreamHealth> {
        self.rows()
            .map(|r| StreamHealth {
                quarantined_now: r.standing == Standing::Active
                    && r.quarantined_until.is_some_and(|until| now < until),
                ..r.health.clone()
            })
            .collect()
    }

    /// Submissions refused, across every stream and reason.
    pub fn rejected(&self) -> u64 {
        self.rows().map(|r| r.health.rejects.total()).sum()
    }

    /// Total quarantine firings across every stream.
    pub fn quarantines(&self) -> u64 {
        self.rows().map(|r| r.health.quarantines as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(depth: usize) -> AdmissionConfig {
        AdmissionConfig {
            queue_depth: depth,
            shape: [2, 2, 2],
            quarantine_streak: 0,
            probation_ms: 10,
        }
    }

    fn ingest(depth: usize) -> Ingest {
        Ingest::new(config(depth))
    }

    fn cube() -> CCube {
        CCube::zeros([2, 2, 2])
    }

    #[test]
    fn sequences_per_stream_and_bounds_depth() {
        let mut ing = ingest(2);
        ing.register(7);
        let t = Instant::now();
        assert_eq!(ing.submit(7, cube(), t).unwrap(), 0);
        assert_eq!(ing.submit(7, cube(), t).unwrap(), 1);
        assert_eq!(
            ing.submit(7, cube(), t).unwrap_err().0,
            Reject::QueueFull {
                stream: 7,
                depth: 2
            }
        );
        assert_eq!(ing.rejected(), 1);
        ing.complete(7, false, t);
        assert_eq!(ing.submit(7, cube(), t).unwrap(), 2);
        let rows = ing.stream_health(t);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].ok, 1);
        assert_eq!(rows[0].rejects.queue_full, 1);
    }

    #[test]
    fn rejects_unknown_stream_and_bad_shape() {
        let mut ing = ingest(4);
        ing.register(1);
        let t = Instant::now();
        assert_eq!(
            ing.submit(2, cube(), t).unwrap_err().0,
            Reject::UnknownStream(2)
        );
        assert_eq!(
            ing.submit(1, CCube::zeros([1, 2, 2]), t).unwrap_err().0,
            Reject::BadShape {
                expected: [2, 2, 2],
                got: [1, 2, 2]
            }
        );
        ing.open = false;
        assert_eq!(ing.submit(1, cube(), t).unwrap_err().0, Reject::Closed);
        assert_eq!(ing.rejected(), 3);
    }

    #[test]
    fn disconnect_purges_and_retires_the_id() {
        let mut ing = ingest(8);
        ing.register(1);
        ing.register(2);
        let t = Instant::now();
        for _ in 0..3 {
            ing.submit(1, cube(), t).unwrap();
            ing.submit(2, cube(), t).unwrap();
        }
        let purged = ing.disconnect(1);
        assert_eq!(purged.len(), 3);
        assert_eq!(ing.purged, 3);
        assert_eq!(ing.ready.len(), 3);
        assert!(ing.ready.iter().all(|p| p.stream == 2));
        assert!(ing.is_retired(1));
        // The id is retired: re-registration is a no-op and submissions
        // keep bouncing (per-stream pipeline state may still reference
        // the old sequence). Reconnecting tenants take a fresh id.
        ing.register(1);
        assert_eq!(
            ing.submit(1, cube(), t).unwrap_err().0,
            Reject::UnknownStream(1)
        );
        let rows = ing.stream_health(t);
        let h1 = rows.iter().find(|h| h.stream == 1).unwrap();
        assert_eq!(h1.dropped, 3, "purged CPIs count as dropped");
        // A fresh id works normally.
        ing.register(3);
        assert_eq!(ing.submit(3, cube(), t).unwrap(), 0);
    }

    #[test]
    fn batcher_mixes_streams_in_arrival_order() {
        let mut ing = ingest(8);
        ing.register(1);
        ing.register(2);
        let t = Instant::now();
        ing.submit(1, cube(), t).unwrap();
        ing.submit(2, cube(), t).unwrap();
        ing.submit(1, cube(), t).unwrap();
        let mut g = Vec::new();
        ing.next_group_into(2, &mut g);
        assert_eq!(
            g.iter().map(|p| (p.stream, p.scpi)).collect::<Vec<_>>(),
            vec![(1, 0), (2, 0)]
        );
        g.clear();
        ing.next_group_into(4, &mut g);
        assert_eq!(
            g.iter().map(|p| (p.stream, p.scpi)).collect::<Vec<_>>(),
            vec![(1, 1)]
        );
    }

    #[test]
    fn nonfinite_streak_quarantines_with_exponential_backoff() {
        let mut ing = Ingest::new(AdmissionConfig {
            quarantine_streak: 2,
            probation_ms: 100,
            ..config(8)
        });
        ing.register(5);
        let t0 = Instant::now();
        assert_eq!(ing.note_nonfinite(5, t0), Reject::NonFinite(5));
        // Second consecutive offense trips the gate.
        assert_eq!(ing.note_nonfinite(5, t0), Reject::NonFinite(5));
        match ing.submit(5, cube(), t0).unwrap_err().0 {
            Reject::Quarantined {
                stream: 5,
                retry_ms,
            } => assert!(retry_ms <= 100),
            other => panic!("expected Quarantined, got {other:?}"),
        }
        assert!(ing.stream_health(t0)[0].quarantined_now);
        assert_eq!(ing.stream_health(t0)[0].quarantines, 1);

        // Probation: after the window the gate opens...
        let t1 = t0 + Duration::from_millis(150);
        assert_eq!(ing.submit(5, cube(), t1).unwrap(), 0);
        assert!(!ing.stream_health(t1)[0].quarantined_now);
        // ...but the streak is still over threshold, so one more
        // offense re-fires with a doubled window.
        assert_eq!(ing.note_nonfinite(5, t1), Reject::NonFinite(5));
        match ing.submit(5, cube(), t1).unwrap_err().0 {
            Reject::Quarantined { retry_ms, .. } => {
                assert!(retry_ms > 100, "backoff must double, got {retry_ms}")
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
        assert_eq!(ing.stream_health(t1)[0].quarantines, 2);

        // A clean completion resets streak and backoff.
        let t2 = t1 + Duration::from_millis(250);
        ing.complete(5, false, t2);
        let h = &ing.stream_health(t2)[0];
        assert_eq!(h.streak, 0);
        assert_eq!(h.ok, 1);
        assert!(!h.quarantined_now);
    }

    #[test]
    fn degraded_completions_feed_the_streak() {
        let mut ing = Ingest::new(AdmissionConfig {
            quarantine_streak: 3,
            probation_ms: 50,
            ..config(8)
        });
        ing.register(9);
        let t = Instant::now();
        for _ in 0..3 {
            ing.submit(9, cube(), t).unwrap();
        }
        // Dispatch all three (they are in flight, not queued).
        let mut g = Vec::new();
        ing.next_group_into(8, &mut g);
        ing.complete(9, true, t);
        ing.complete(9, true, t);
        assert_eq!(ing.stream_health(t)[0].streak, 2);
        ing.complete(9, true, t);
        assert!(ing.stream_health(t)[0].quarantined_now);
        // Drained completions for a disconnected stream count Dropped.
        ing.disconnect(9);
        ing.complete(9, false, t);
        let h = &ing.stream_health(t)[0];
        assert_eq!(h.dropped, 1);
        assert_eq!(h.last, LastOutcome::Dropped);
    }

    /// One row holds what the summary reads of a stream: every
    /// completion (a drained one after disconnect included), the
    /// detections, the latency samples past warm-up and the health, and
    /// the reject total is the rows' sum.
    #[test]
    fn a_completion_fills_its_streams_one_row() {
        let mut ing = ingest(8);
        ing.register(4);
        let t = Instant::now();
        for _ in 0..3 {
            ing.submit(4, cube(), t).unwrap();
        }
        assert!(ing.submit(5, cube(), t).is_err());
        let mut g = Vec::new();
        ing.next_group_into(3, &mut g);
        for (scpi, job) in g.iter().enumerate() {
            let done = CpiDone {
                stream: job.stream,
                scpi: job.scpi,
                detections: Vec::new(),
                latency: 0.5 + scpi as f64,
                degraded: false,
            };
            ing.complete(done.stream, false, t).record(&done, 1);
            if scpi == 1 {
                ing.disconnect(4);
            }
        }
        let row = ing.rows().find(|r| r.health.stream == 4).unwrap();
        assert_eq!(row.completed, 3, "a drained completion still counts");
        assert_eq!(row.latencies, [1.5, 2.5], "the warm-up CPI has no sample");
        assert_eq!((row.health.ok, row.health.dropped), (2, 1));
        assert_eq!(ing.rejected(), 1);
        assert_eq!(
            ing.stream_health(t).len(),
            2,
            "the unknown stream has a row"
        );
    }
}
