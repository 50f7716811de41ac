//! The long-running ingestion server over the resident pipeline.
//!
//! One background thread per server, `stap-serve`, runs one
//! [`stap_pipeline::Session`]: the seven resident task nodes plus
//! driver, in epochs that end at a checkpoint (`supervised`) or a rank
//! shift (`rebalance`); a failed world is recovered from the last
//! checkpoint when supervised. With neither, the session is one world,
//! as [`stap_pipeline::ParallelStap::serve`] runs it.
//!
//! The admission ledger is the session's [`Feed`], called on the
//! driver rank's own thread:
//!
//! * **next** takes up to `max_group` admitted CPIs in arrival order
//!   (naturally mixing streams) as one slot group. The driver asks only
//!   while fewer than `window` slots are in flight, and parks on the
//!   ledger only when none are: `window` slots are the whole credit
//!   supply. With the window full, admitted CPIs pile up against each
//!   stream's queue depth and further submissions bounce with
//!   [`Reject::QueueFull`] — backpressure propagates to producers
//!   instead of growing queues without bound;
//! * **complete** records per-stream latency samples, releases the
//!   CPI's admission credit, wakes parked producers and forwards the
//!   result to the tap.
//!
//! Submission is allocation-free in steady state: producers draw cubes
//! from the server's shared pool ([`StapServer::take_cube`]) and the
//! pipeline recycles every block it consumes.

use crate::admission::{AdmissionConfig, Ingest, Reject};
use crate::health::StreamHealth;
use crate::slo::LatencyProfile;
use stap_core::Detection;
use stap_cube::CCube;
use stap_math::Cx;
use stap_pipeline::msg::SubCpi;
use stap_pipeline::runner::PipelineError;
use stap_pipeline::{
    CpiDone, CpiJob, Feed, ParallelStap, Rebalance, RebalancePolicy, Recovered, ResidentSummary,
    Session, SessionSummary, SupervisorConfig,
};
use std::collections::HashMap;
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server limits and batching knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Pipeline slots in flight: the whole credit supply.
    pub window: usize,
    /// Maximum CPIs coalesced into one slot.
    pub max_group: usize,
    /// Per-stream admission bound (see [`AdmissionConfig`]).
    pub queue_depth: usize,
    /// Soft mailbox high-water mark inside the pipeline (0 = off).
    pub mailbox_high_water: usize,
    /// Expected concurrent streams; sizes the pool pre-warm
    /// ([`ParallelStap::reserve`]). More streams than the hint still
    /// work — the pool grows on (counted) misses.
    pub streams_hint: usize,
    /// Rank shifts: when set, the engine shifts a rank toward the task
    /// [`StapServer::degrade`] names, at a slot boundary. That is
    /// the server's only trigger, and a forced one skips the cooldown
    /// and the imbalance threshold, so the session needs no
    /// [`RebalancePolicy`] values of the server's own.
    pub rebalance: bool,
    /// Per-stream completions treated as warm-up/ramp: excluded from
    /// the latency percentiles and reported separately.
    pub warmup_cpis: u32,
    /// Run the engine under checkpoint/restore supervision (see
    /// [`stap_pipeline::session`]); composes with `rebalance`.
    pub supervised: Option<SupervisorConfig>,
    /// Screen submissions and CFAR power lanes for non-finite samples:
    /// a NaN/Inf cube bounces at admission with [`Reject::NonFinite`]
    /// (feeding the quarantine streak) instead of poisoning the
    /// pipeline's recursive state, and in-transit corruption surfaces
    /// as a `degraded` completion.
    pub screen: bool,
    /// Consecutive per-stream failures before quarantine (0 = off); see
    /// [`AdmissionConfig::quarantine_streak`].
    pub quarantine_streak: u32,
    /// Initial quarantine window in milliseconds (doubles per
    /// re-offense, capped); see [`AdmissionConfig::probation_ms`].
    pub probation_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            window: 4,
            max_group: 4,
            queue_depth: 8,
            mailbox_high_water: 64,
            streams_hint: 4,
            rebalance: false,
            warmup_cpis: 2,
            supervised: None,
            screen: false,
            quarantine_streak: 0,
            probation_ms: 250,
        }
    }
}

/// Per-stream completion statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Stream id.
    pub stream: u16,
    /// CPIs completed.
    pub cpis: u64,
    /// Total detections reported.
    pub detections: u64,
    /// Latency percentiles over this stream's completions.
    pub latency: LatencyProfile,
}

/// Everything a serve session reports at shutdown.
#[derive(Clone, Debug, Default)]
pub struct ServeSummary {
    /// Per-stream stats, sorted by stream id.
    pub streams: Vec<StreamStats>,
    /// CPIs completed across all streams.
    pub cpis: u64,
    /// Pipeline slots processed (`cpis / slots` = achieved batching).
    pub slots: u64,
    /// Wall-clock seconds from server start to engine shutdown.
    pub elapsed: f64,
    /// Aggregate sustained throughput.
    pub cpis_per_sec: f64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// CPIs purged by stream disconnects.
    pub purged: u64,
    /// Latency percentiles over all steady-state completions (each
    /// stream's first `warmup_cpis` completions are excluded).
    pub aggregate: LatencyProfile,
    /// Warm-up/ramp completions excluded from the percentiles.
    pub warmup_cpis: u64,
    /// Rank shifts the engine applied (0 without `rebalance`).
    pub rebalances: u64,
    /// Per-stream health rows (outcomes, rejects by reason, quarantine
    /// record), sorted by stream id.
    pub stream_health: Vec<StreamHealth>,
    /// Quarantine firings across all streams.
    pub quarantines: u64,
    /// Supervisor recoveries performed (0 for an unsupervised server).
    pub recoveries: u64,
    /// Every recovery event, in order.
    pub recovery_log: Vec<Recovered>,
    /// Sub-CPIs lost across recoveries (streams that disconnected
    /// before their retained slots could be replayed).
    pub lost_cpis: u64,
    /// Epochs the engine banked at a boundary (0 for a plain server).
    pub checkpoints: u64,
    /// The resident pipeline's own summary (health, pool traffic).
    pub resident: ResidentSummary,
}

impl ServeSummary {
    /// JSON rendering for `stapctl serve`/`loadgen` and the CI smoke
    /// stage (which asserts the SLO fields exist and the pools stayed
    /// miss-free in steady state).
    pub fn to_json(&self) -> stap_util::Json {
        use stap_util::Json;
        let profile = |p: &LatencyProfile| {
            Json::obj([
                ("p50_ms", Json::Num(p.p50_ms)),
                ("p99_ms", Json::Num(p.p99_ms)),
                ("max_ms", Json::Num(p.max_ms)),
            ])
        };
        Json::obj([
            ("cpis", Json::Num(self.cpis as f64)),
            ("slots", Json::Num(self.slots as f64)),
            ("elapsed_s", Json::Num(self.elapsed)),
            ("cpis_per_sec", Json::Num(self.cpis_per_sec)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("purged", Json::Num(self.purged as f64)),
            ("warmup_cpis", Json::Num(self.warmup_cpis as f64)),
            ("rebalances", Json::Num(self.rebalances as f64)),
            ("latency", profile(&self.aggregate)),
            (
                "streams",
                Json::arr(self.streams.iter().map(|s| {
                    Json::obj([
                        ("stream", Json::Num(s.stream as f64)),
                        ("cpis", Json::Num(s.cpis as f64)),
                        ("detections", Json::Num(s.detections as f64)),
                        ("latency", profile(&s.latency)),
                    ])
                })),
            ),
            (
                "pool",
                Json::obj([
                    ("cx_hits", Json::Num(self.resident.pool_cx.hits as f64)),
                    ("cx_misses", Json::Num(self.resident.pool_cx.misses as f64)),
                    ("real_hits", Json::Num(self.resident.pool_real.hits as f64)),
                    (
                        "real_misses",
                        Json::Num(self.resident.pool_real.misses as f64),
                    ),
                ]),
            ),
            (
                "health",
                Json::obj([
                    ("faults", Json::Bool(self.resident.health.any())),
                    (
                        "dropped_cpis",
                        Json::Num(self.resident.health.dropped_cpis as f64),
                    ),
                    (
                        "degraded_cpis",
                        Json::Num(self.resident.health.degraded_cpis as f64),
                    ),
                    (
                        "mailbox_over_high_water",
                        Json::Num(self.resident.health.mailbox_over_high_water as f64),
                    ),
                    (
                        "max_mailbox_depth",
                        Json::Num(
                            self.resident
                                .health
                                .max_mailbox_depth
                                .iter()
                                .copied()
                                .max()
                                .unwrap_or(0) as f64,
                        ),
                    ),
                    (
                        "edges",
                        Json::arr(stap_pipeline::msg::EDGE_NAMES.iter().enumerate().map(
                            |(i, name)| {
                                let e = &self.resident.health.edges[i];
                                Json::obj([
                                    ("edge", Json::Str((*name).to_string())),
                                    ("retries", Json::Num(e.retries as f64)),
                                    ("dropped", Json::Num(e.dropped as f64)),
                                    ("stale_weights", Json::Num(e.stale_weights as f64)),
                                    ("quarantined", Json::Num(e.quarantined as f64)),
                                    ("late_or_dup", Json::Num(e.late_or_dup as f64)),
                                ])
                            },
                        )),
                    ),
                ]),
            ),
            (
                "stream_health",
                Json::arr(self.stream_health.iter().map(StreamHealth::to_json)),
            ),
            ("quarantines", Json::Num(self.quarantines as f64)),
            (
                "recovery",
                Json::obj([
                    ("recoveries", Json::Num(self.recoveries as f64)),
                    ("lost_cpis", Json::Num(self.lost_cpis as f64)),
                    ("checkpoints", Json::Num(self.checkpoints as f64)),
                    (
                        "log",
                        Json::arr(self.recovery_log.iter().map(|r| {
                            Json::obj([
                                ("epoch", Json::Num(r.epoch as f64)),
                                ("at_slot", Json::Num(r.at_slot as f64)),
                                ("lost_cpis", Json::Num(r.lost_cpis as f64)),
                                ("error", Json::Str(r.error.clone())),
                            ])
                        })),
                    ),
                ]),
            ),
        ])
    }
}

/// Per-stream completion counts, kept by the engine's feed.
#[derive(Default)]
struct Collected {
    /// Steady-state latency samples (warm-up completions excluded).
    latencies: HashMap<u16, Vec<f64>>,
    /// All completions per stream, warm-up included.
    completed: HashMap<u16, u64>,
    detections: HashMap<u16, u64>,
}

struct Shared {
    ing: Mutex<Ingest>,
    /// Wakes the driver parked in [`Admission::next`]: a CPI was
    /// admitted, or admission closed.
    work: Condvar,
    /// Wakes the producers parked in [`StapServer::wait_ready`]: a
    /// completion freed a unit of depth, or admission closed.
    room: Condvar,
}

/// The admission ledger as the engine session's feed.
struct Admission {
    shared: Arc<Shared>,
    max_group: usize,
    /// Per-stream completions excluded from the latency samples.
    warmup: u32,
    tap: Option<mpsc::Sender<CpiDone>>,
    collected: Collected,
}

impl Feed for Admission {
    fn next(&mut self, wait: bool) -> Result<Vec<CpiJob>, TryRecvError> {
        let mut ing = self.shared.ing.lock().unwrap();
        loop {
            if !ing.ready.is_empty() {
                let mut group = Vec::with_capacity(self.max_group);
                ing.next_group_into(self.max_group, &mut group);
                return Ok(group);
            }
            if !ing.open {
                return Err(TryRecvError::Disconnected);
            }
            if !wait {
                return Err(TryRecvError::Empty);
            }
            ing = self.shared.work.wait(ing).unwrap();
        }
    }

    fn complete(
        &mut self,
        sub: SubCpi,
        latency: f64,
        detections: Option<Vec<Detection>>,
        degraded: bool,
    ) {
        let d = CpiDone::new(sub, latency, detections, degraded);
        let out = &mut self.collected;
        *out.completed.entry(d.stream).or_default() += 1;
        if d.scpi >= self.warmup {
            out.latencies.entry(d.stream).or_default().push(d.latency);
        }
        *out.detections.entry(d.stream).or_default() += d.detections.len() as u64;
        (self.shared.ing.lock().unwrap()).complete(d.stream, d.degraded, Instant::now());
        self.shared.room.notify_all();
        if let Some(t) = &self.tap {
            let _ = t.send(d);
        }
    }

    fn is_retired(&self, stream: u16) -> bool {
        self.shared.ing.lock().unwrap().is_retired(stream)
    }

    fn lost(&mut self, stream: u16) {
        self.shared.ing.lock().unwrap().note_lost(stream);
    }
}

/// A running multi-stream STAP server. Construct with
/// [`StapServer::start`], feed it with [`StapServer::submit`], stop it
/// with [`StapServer::shutdown`].
pub struct StapServer {
    shared: Arc<Shared>,
    pool: stap_cube::SharedBufferPool<Cx>,
    shape: [usize; 3],
    screen: bool,
    t0: Instant,
    engine: JoinHandle<Result<(SessionSummary, Collected), PipelineError>>,
    control: Option<mpsc::Sender<Rebalance>>,
}

impl StapServer {
    /// Sets `runner`'s window, group bound, mailbox mark and screen from
    /// `cfg`, pre-warms its pools for `cfg.streams_hint` streams and
    /// starts the engine thread. The runner's policy, fault plan and
    /// tracing carry over to the session as they are.
    pub fn start(runner: ParallelStap, cfg: ServerConfig) -> StapServer {
        StapServer::start_with_tap(runner, cfg, None)
    }

    /// Like [`StapServer::start`], but every completion is also
    /// forwarded (detections and all) to `tap` — the hook consumers use
    /// to receive results; a dropped tap is ignored.
    pub fn start_with_tap(
        runner: ParallelStap,
        cfg: ServerConfig,
        tap: Option<mpsc::Sender<CpiDone>>,
    ) -> StapServer {
        let resident = runner
            .with_window(cfg.window)
            .with_max_group(cfg.max_group)
            .with_mailbox_high_water(cfg.mailbox_high_water)
            .with_screen(cfg.screen);
        resident.reserve(cfg.streams_hint, cfg.queue_depth);
        let p = &resident.params;
        let shape = [p.k_range, p.j_channels, p.n_pulses];
        let pool = resident.pools().cx.clone();
        let shared = Arc::new(Shared {
            ing: Mutex::new(Ingest::new(AdmissionConfig {
                queue_depth: cfg.queue_depth,
                shape,
                quarantine_streak: cfg.quarantine_streak,
                probation_ms: cfg.probation_ms,
            })),
            work: Condvar::new(),
            room: Condvar::new(),
        });
        let mut feed = Admission {
            shared: shared.clone(),
            max_group: resident.max_group,
            warmup: cfg.warmup_cpis,
            tap,
            collected: Collected::default(),
        };
        let (control, rebalance) = if cfg.rebalance {
            let (tx, rx) = mpsc::channel();
            (Some(tx), Some((RebalancePolicy::default(), rx)))
        } else {
            (None, None)
        };
        let session = Session {
            supervise: cfg.supervised,
            rebalance,
            reserve: (cfg.streams_hint, cfg.queue_depth),
        };
        let engine = std::thread::Builder::new()
            .name("stap-serve".into())
            .spawn(move || {
                let summary = session.run(&resident, &mut feed)?;
                Ok((summary, feed.collected))
            })
            .expect("spawn the stap-serve engine thread");

        StapServer {
            shared,
            pool,
            shape,
            screen: cfg.screen,
            t0: Instant::now(),
            engine,
            control,
        }
    }

    /// Reports a rank-loss / degradation event on `task` (0..7): with
    /// [`ServerConfig::rebalance`] set the engine shifts a rank toward it
    /// at the slot boundary after the next group it takes, bypassing
    /// cooldown and imbalance checks. A no-op otherwise.
    pub fn degrade(&self, task: usize) {
        if let Some(c) = &self.control {
            let _ = c.send(Rebalance::Degraded { task });
        }
    }

    /// The cube shape this server accepts (`[K, J, N]`).
    pub fn shape(&self) -> [usize; 3] {
        self.shape
    }

    /// Draws a correctly-shaped cube from the server's pool, filled by
    /// `f(k, j, n)`. Submitting pool cubes keeps the steady state
    /// allocation-free end to end.
    pub fn take_cube(&self, f: impl FnMut(usize, usize, usize) -> Cx) -> CCube {
        self.pool.take_cube(self.shape, f)
    }

    /// Draws a pool cube pre-filled from `src` in one slice copy — the
    /// fast path for producers that already hold a CPI cube (A/D
    /// buffers, replayed captures) and only need it in pool-recycled
    /// memory for submission.
    pub fn take_cube_from(&self, src: &CCube) -> CCube {
        self.pool.take_cube_from(src)
    }

    /// Registers a stream id (idempotent while connected).
    pub fn register(&self, stream: u16) {
        self.shared.ing.lock().unwrap().register(stream);
    }

    /// Cheap admission probe: true when a [`StapServer::submit`] for
    /// `stream` would be admitted right now. Producers use this to
    /// avoid filling a cube they are about to have bounced (with one
    /// producer per stream, a `true` answer only gets *more* true until
    /// that producer submits).
    pub fn ready_for(&self, stream: u16) -> bool {
        self.shared.ing.lock().unwrap().ready_for(stream)
    }

    /// Blocks until `stream` has admission headroom (a completion freed
    /// a unit of its queue depth) or the server stops accepting. Returns
    /// the number of times the producer had to wait — the backpressure
    /// event count. The stream must be registered: waiting on an
    /// unregistered stream only ends at shutdown.
    pub fn wait_ready(&self, stream: u16) -> u64 {
        let mut waits = 0;
        let mut ing = self.shared.ing.lock().unwrap();
        while ing.open && !ing.ready_for(stream) {
            waits += 1;
            ing = self.shared.room.wait(ing).unwrap();
        }
        waits
    }

    /// Submits one CPI for `stream`. Returns the assigned per-stream
    /// sequence number, or the rejection reason (admission is
    /// non-blocking: on [`Reject::QueueFull`] the producer decides
    /// whether to retry, shed or fail over).
    pub fn submit(&self, stream: u16, cube: CCube) -> Result<u32, Reject> {
        let now = Instant::now();
        // Screen outside the admission lock: the finiteness scan is one
        // pass over the cube and must not serialize other producers.
        if self.screen && !cube.is_finite() {
            let reject = self.shared.ing.lock().unwrap().note_nonfinite(stream, now);
            self.pool.recycle(cube);
            return Err(reject);
        }
        let r = self.shared.ing.lock().unwrap().submit(stream, cube, now);
        match r {
            Ok(scpi) => {
                self.shared.work.notify_one();
                Ok(scpi)
            }
            Err((reject, cube)) => {
                // Rejected cubes go back to the pool, not the allocator.
                self.pool.recycle(cube);
                Err(reject)
            }
        }
    }

    /// Disconnects a stream: deregisters it and purges its
    /// not-yet-dispatched CPIs (in-pipeline CPIs still complete).
    /// Returns the number purged.
    pub fn disconnect(&self, stream: u16) -> usize {
        let cubes = self.shared.ing.lock().unwrap().disconnect(stream);
        let n = cubes.len();
        for c in cubes {
            self.pool.recycle(c);
        }
        n
    }

    /// Stops admission, drains everything in flight and returns the
    /// session summary.
    pub fn shutdown(self) -> Result<ServeSummary, PipelineError> {
        self.shared.ing.lock().unwrap().open = false;
        self.shared.work.notify_all();
        self.shared.room.notify_all();
        let (out, collected) = self.engine.join().expect("engine panicked")?;
        let SessionSummary {
            resident,
            rebalances,
            recoveries,
            checkpoints,
            lost_cpis,
            ..
        } = out;
        let elapsed = self.t0.elapsed().as_secs_f64();

        let (rejected, purged, stream_health, quarantines) = {
            let ing = self.shared.ing.lock().unwrap();
            (
                ing.rejected,
                ing.purged,
                ing.stream_health(Instant::now()),
                ing.quarantines(),
            )
        };
        let mut streams: Vec<StreamStats> = Vec::new();
        let mut all: Vec<f64> = Vec::new();
        let mut warmup_cpis: u64 = 0;
        for (&stream, &completed) in &collected.completed {
            let mut sample = collected
                .latencies
                .get(&stream)
                .cloned()
                .unwrap_or_default();
            warmup_cpis += completed - sample.len() as u64;
            all.extend_from_slice(&sample);
            streams.push(StreamStats {
                stream,
                cpis: completed,
                detections: collected.detections.get(&stream).copied().unwrap_or(0),
                latency: LatencyProfile::from_seconds(&mut sample),
            });
        }
        streams.sort_by_key(|s| s.stream);
        let aggregate = LatencyProfile::from_seconds(&mut all);
        Ok(ServeSummary {
            streams,
            cpis: resident.cpis,
            slots: resident.slots,
            elapsed,
            cpis_per_sec: if elapsed > 0.0 {
                resident.cpis as f64 / elapsed
            } else {
                0.0
            },
            rejected,
            purged,
            aggregate,
            warmup_cpis,
            rebalances: rebalances.len() as u64,
            stream_health,
            quarantines,
            recoveries: recoveries.len() as u64,
            recovery_log: recoveries,
            lost_cpis,
            checkpoints,
            resident,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_core::params::StapParams;
    use stap_pipeline::NodeAssignment;
    use stap_radar::Scenario;

    fn submit_stream(server: &StapServer, cubes: &[stap_cube::CCube]) {
        server.register(0);
        for c in cubes {
            server.wait_ready(0);
            let cube = server.take_cube_from(c);
            server.submit(0, cube).expect("admission");
        }
    }

    /// Warm-up completions are excluded from the percentiles but still
    /// counted, and the split is reported.
    #[test]
    fn warmup_completions_are_reported_separately() {
        let params = StapParams::reduced();
        let sc = Scenario::reduced(3);
        let cubes: Vec<_> = sc.stream(6).map(|(_, _, c)| c).collect();
        let res = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &sc);
        let server = StapServer::start(
            res,
            ServerConfig {
                max_group: 1,
                warmup_cpis: 2,
                ..ServerConfig::default()
            },
        );
        submit_stream(&server, &cubes);
        let s = server.shutdown().unwrap();
        assert_eq!(s.cpis, 6);
        assert_eq!(s.warmup_cpis, 2);
        assert_eq!(s.rebalances, 0);
        assert_eq!(s.streams[0].cpis, 6, "per-stream count includes warm-up");
        assert!(s.aggregate.p50_ms > 0.0);
        assert!(s.aggregate.p99_ms >= s.aggregate.p50_ms);
    }

    /// A rebalancing server that is also supervised and screens: a
    /// degradation event shifts a rank toward the degraded task, the
    /// world after the shift screens a corrupted pc->cfar message as one
    /// degraded CPI, and a later world's panic is recovered, all in one
    /// session. Launches are deterministic: epochs end every four slots
    /// and at the shift, and the trigger is sent while launch 1 waits
    /// for CPI 6 — so the shifted world is launch 2 and the one that
    /// panics launch 3 (slots 11 and on).
    #[test]
    fn elastic_server_rebalances_on_degradation() {
        use stap_mp::{FaultAction, FaultPlan, FaultRule, TagPattern};
        use stap_pipeline::msg::{tag, Edge};
        let params = StapParams::reduced();
        let sc = Scenario::reduced(9);
        let cubes: Vec<_> = sc.stream(14).map(|(_, _, c)| c).collect();
        let res = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &sc);
        // Slot 0 of the shifted world: one corrupted power block per PC
        // rank, all of one CPI.
        let corrupt = FaultPlan::seeded(3).rule(FaultRule {
            src: None,
            dst: None,
            tag: TagPattern::exact(tag(Edge::PcToCfar, 0)),
            action: FaultAction::Corrupt,
            max_hits: 1,
        });
        // Rank 0 is a Doppler rank under every assignment.
        let panic = FaultPlan::seeded(4).panic_rank(0, 1);
        let (tap_tx, tap_rx) = mpsc::channel();
        let server = StapServer::start_with_tap(
            res,
            ServerConfig {
                max_group: 1,
                window: 2,
                screen: true,
                rebalance: true,
                supervised: Some(SupervisorConfig {
                    checkpoint_every: 4,
                    max_recoveries: 1,
                    plans: vec![FaultPlan::default(), FaultPlan::default(), corrupt, panic],
                }),
                ..ServerConfig::default()
            },
            Some(tap_tx),
        );
        server.register(0);
        for (scpi, c) in cubes.iter().enumerate() {
            if scpi == 6 {
                // Launch 0 banked slots 0..4; launch 1 ran 4 and 5 and
                // waits for the next group.
                assert_eq!(tap_rx.iter().take(6).count(), 6);
                server.degrade(stap_pipeline::assignment::EASY_WT);
            }
            server.wait_ready(0);
            let cube = server.take_cube_from(c);
            server.submit(0, cube).expect("admission");
        }
        let s = server.shutdown().unwrap();
        assert_eq!(s.cpis, 14);
        assert_eq!(s.rebalances, 1, "degradation must force one rank shift");
        assert_eq!(
            s.resident.health.degraded_cpis, 1,
            "{:?}",
            s.resident.health
        );
        assert_eq!(s.recoveries, 1, "{:?}", s.recovery_log);
        assert_eq!(s.recovery_log[0].epoch, 3);
        assert_eq!(s.lost_cpis, 0);
        assert_eq!(s.streams[0].cpis, 14, "every CPI delivered once");
        assert!(s.resident.busy.iter().sum::<f64>() > 0.0);
    }

    /// A server that was never fed starts, parks its driver on the
    /// ledger and shuts down: `shutdown` must wake it.
    #[test]
    fn idle_server_shuts_down() {
        let params = StapParams::reduced();
        let sc = Scenario::reduced(5);
        let res = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &sc);
        let server = StapServer::start(res, ServerConfig::default());
        server.register(0);
        let s = server.shutdown().unwrap();
        assert_eq!((s.cpis, s.slots), (0, 0));
    }

    /// CPIs that arrive while the window has room but the driver is
    /// waiting on a slot wait in the ledger and leave as one group. Doppler
    /// stalls at slot 0, so the first CPI is in flight alone while
    /// `max_group` more arrive a few ms apart on distinct streams; when
    /// slot 0 completes they form one full slot.
    #[test]
    fn groups_form_when_the_driver_has_room() {
        use std::time::Duration;
        let params = StapParams::reduced();
        let sc = Scenario::reduced(17);
        let cube = sc.stream(1).next().unwrap().2;
        let stall = Duration::from_secs_f64(stap_util::ci_slack());
        let assign = NodeAssignment::tiny();
        let doppler = assign.rank_range(stap_pipeline::assignment::DOPPLER).start;
        let res = ParallelStap::for_scenario(params, assign, &sc)
            .with_faults(stap_mp::FaultPlan::seeded(1).stall_rank(doppler, 0, stall));
        let cfg = ServerConfig::default();
        let max_group = cfg.max_group;
        let server = StapServer::start(res, cfg);
        for stream in 0..=max_group as u16 {
            server.register(stream);
            server.submit(stream, server.take_cube_from(&cube)).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let s = server.shutdown().unwrap();
        assert_eq!(s.cpis, max_group as u64 + 1);
        assert_eq!(s.slots, 2, "one CPI alone, then one full group");
    }
}
