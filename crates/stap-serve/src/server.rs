//! The long-running ingestion server over the resident pipeline.
//!
//! Three background threads per server:
//!
//! * **batcher** — pulls admitted CPIs off the admission queue in
//!   arrival order, coalesces up to `max_group` of them (naturally
//!   mixing streams) into one slot group and pushes it down a *bounded*
//!   slot channel. The bound is the credit supply: when `window` slots
//!   are in flight the batcher blocks, admitted CPIs pile up against
//!   each stream's queue depth, and further submissions bounce with
//!   [`Reject::QueueFull`] — backpressure propagates to producers
//!   instead of growing queues without bound;
//! * **engine** — one [`stap_pipeline::Session`] on the slot channel:
//!   the seven resident task nodes plus driver, in epochs that end at a
//!   checkpoint (`supervised`) or a rank shift (`policy.rebalance`); a
//!   failed world is recovered from the last checkpoint when supervised.
//!   With neither, the session is one world, as
//!   [`stap_pipeline::ResidentStap::serve`] runs it;
//! * **collector** — drains per-CPI completions, records per-stream
//!   latency samples and releases admission credits.
//!
//! Submission is allocation-free in steady state: producers draw cubes
//! from the server's shared pool ([`StapServer::take_cube`]) and the
//! pipeline recycles every block it consumes.

use crate::admission::{AdmissionConfig, Ingest, Pending, Reject};
use crate::health::StreamHealth;
use crate::slo::LatencyProfile;
use stap_cube::CCube;
use stap_math::Cx;
use stap_pipeline::runner::PipelineError;
use stap_pipeline::{
    CpiJob, Rebalance, Recovered, ResidentStap, ResidentSummary, RuntimePolicy, Session,
    SessionSummary, SupervisorConfig, SupervisorHooks,
};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server limits and batching knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Pipeline slots in flight (the slot channel bound / credit supply).
    pub window: usize,
    /// Maximum CPIs coalesced into one slot.
    pub max_group: usize,
    /// Per-stream admission bound (see [`AdmissionConfig`]).
    pub queue_depth: usize,
    /// Soft mailbox high-water mark inside the pipeline (0 = off).
    pub mailbox_high_water: usize,
    /// Expected concurrent streams; sizes the pool pre-warm
    /// ([`ResidentStap::reserve`]). More streams than the hint still
    /// work — the pool grows on (counted) misses.
    pub streams_hint: usize,
    /// Rank shifts: with `rebalance` set the engine shifts a rank
    /// toward the measured bottleneck at a slot boundary when a load
    /// spike ([`Self::spike_backlog`]) or [`StapServer::degrade`] asks,
    /// within the cooldown and imbalance threshold; typically `stap_sim::derive_policy` output.
    pub policy: RuntimePolicy,
    /// Admission backlog (ready, undispatched CPIs) at which the
    /// batcher raises a load-spike rebalance trigger (0 = off; only
    /// meaningful with `policy.rebalance`).
    pub spike_backlog: usize,
    /// Per-stream completions treated as warm-up/ramp: excluded from
    /// the latency percentiles and reported separately.
    pub warmup_cpis: u32,
    /// Run the engine under checkpoint/restore supervision (see
    /// [`stap_pipeline::session`]); composes with `policy.rebalance`.
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
            policy: RuntimePolicy::default(),
            spike_backlog: 0,
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
    /// Rank shifts the engine applied (0 without `policy.rebalance`).
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

struct Collected {
    /// Steady-state latency samples (warm-up completions excluded).
    latencies: HashMap<u16, Vec<f64>>,
    /// All completions per stream, warm-up included.
    completed: HashMap<u16, u64>,
    detections: HashMap<u16, u64>,
}

struct Shared {
    ing: Mutex<Ingest>,
    /// Wakes the batcher: a CPI was admitted, or admission closed.
    work: Condvar,
    /// Wakes the producers parked in [`StapServer::wait_ready`]: a
    /// completion freed a unit of depth, or admission closed.
    room: Condvar,
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
    batcher: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<Result<SessionSummary, PipelineError>>>,
    collector: Option<JoinHandle<Collected>>,
    control: Option<mpsc::Sender<Rebalance>>,
}

impl StapServer {
    /// Builds the resident pipeline, pre-warms its pools for
    /// `cfg.streams_hint` streams and starts the background threads.
    pub fn start(resident: ResidentStap, cfg: ServerConfig) -> StapServer {
        StapServer::start_with_tap(resident, cfg, None)
    }

    /// Like [`StapServer::start`], but every completion is also
    /// forwarded (detections and all) to `tap` — the hook consumers use
    /// to receive results; a dropped tap is ignored.
    pub fn start_with_tap(
        resident: ResidentStap,
        cfg: ServerConfig,
        tap: Option<mpsc::Sender<stap_pipeline::CpiDone>>,
    ) -> StapServer {
        let resident = resident
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

        // Credit-based backpressure: the slot channel holds at most
        // `window` undelivered groups; a full channel blocks the batcher.
        let (jobs_tx, jobs_rx) = mpsc::sync_channel::<Vec<CpiJob>>(cfg.window);
        let (done_tx, done_rx) = mpsc::channel();

        let max_group = cfg.max_group.max(1);
        // Without `policy.rebalance` nothing reads the control channel:
        // `degrade` is a no-op and no spike is raised.
        let (ctl_tx, ctl_rx) = mpsc::channel::<Rebalance>();
        let rebalance = cfg.policy.rebalance;
        let spike_backlog = if rebalance { cfg.spike_backlog } else { 0 };
        let spike_tx = ctl_tx.clone();
        let sh = shared.clone();
        let batcher = std::thread::spawn(move || {
            let mut batch: Vec<Pending> = Vec::with_capacity(max_group);
            let mut over = false;
            loop {
                batch.clear();
                let backlog;
                {
                    let mut ing = sh.ing.lock().unwrap();
                    loop {
                        ing.next_group_into(max_group, &mut batch);
                        if !batch.is_empty() {
                            break;
                        }
                        if !ing.open {
                            return; // drops jobs_tx -> engine drains and exits
                        }
                        ing = sh.work.wait(ing).unwrap();
                    }
                    backlog = ing.ready.len();
                }
                // Load-spike trigger on the rising edge: admitted CPIs
                // piling up faster than slots drain them means the
                // current assignment is under-serving the bottleneck.
                if spike_backlog > 0 {
                    let now_over = backlog >= spike_backlog;
                    if now_over && !over {
                        let _ = spike_tx.send(Rebalance::Now);
                    }
                    over = now_over;
                }
                let jobs: Vec<CpiJob> = batch
                    .drain(..)
                    .map(|p| CpiJob {
                        stream: p.stream,
                        scpi: p.scpi,
                        cube: p.cube,
                        submitted: p.submitted,
                    })
                    .collect();
                if jobs_tx.send(jobs).is_err() {
                    return; // engine died; shutdown() will surface the error
                }
            }
        });

        let (retired, lost) = (shared.clone(), shared.clone());
        let session = Session {
            supervise: cfg.supervised.clone(),
            hooks: SupervisorHooks {
                is_retired: Box::new(move |s| retired.ing.lock().unwrap().is_retired(s)),
                on_lost: Box::new(move |s| lost.ing.lock().unwrap().note_lost(s)),
            },
            control: rebalance.then_some(ctl_rx),
            policy: cfg.policy,
            reserve: (cfg.streams_hint, cfg.queue_depth),
        };
        let engine = std::thread::spawn(move || session.run(&resident, jobs_rx, done_tx));

        let sh = shared.clone();
        let warmup = cfg.warmup_cpis;
        let collector = std::thread::spawn(move || {
            let mut out = Collected {
                latencies: HashMap::new(),
                completed: HashMap::new(),
                detections: HashMap::new(),
            };
            while let Ok(d) = done_rx.recv() {
                *out.completed.entry(d.stream).or_default() += 1;
                if d.scpi >= warmup {
                    out.latencies.entry(d.stream).or_default().push(d.latency);
                }
                *out.detections.entry(d.stream).or_default() += d.detections.len() as u64;
                sh.ing
                    .lock()
                    .unwrap()
                    .complete(d.stream, d.degraded, Instant::now());
                sh.room.notify_all();
                if let Some(t) = &tap {
                    let _ = t.send(d);
                }
            }
            out
        });

        StapServer {
            shared,
            pool,
            shape,
            screen: cfg.screen,
            t0: Instant::now(),
            batcher: Some(batcher),
            engine: Some(engine),
            collector: Some(collector),
            control: rebalance.then_some(ctl_tx),
        }
    }

    /// Reports a rank-loss / degradation event on `task` (0..7): with
    /// `policy.rebalance` the engine shifts a rank toward it at the next
    /// slot boundary, bypassing cooldown and imbalance checks. A no-op
    /// otherwise.
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
    pub fn shutdown(mut self) -> Result<ServeSummary, PipelineError> {
        {
            let mut ing = self.shared.ing.lock().unwrap();
            ing.open = false;
        }
        self.shared.work.notify_all();
        self.shared.room.notify_all();
        self.batcher
            .take()
            .unwrap()
            .join()
            .expect("batcher panicked");
        let out = self
            .engine
            .take()
            .unwrap()
            .join()
            .expect("engine panicked")?;
        let SessionSummary {
            resident,
            rebalances,
            recoveries,
            checkpoints,
            lost_cpis,
            ..
        } = out;
        let collected = self
            .collector
            .take()
            .unwrap()
            .join()
            .expect("collector panicked");
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
        let res = ResidentStap::for_scenario(params, NodeAssignment::tiny(), &sc);
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
        let res = ResidentStap::for_scenario(params, NodeAssignment::tiny(), &sc);
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
                policy: stap_pipeline::RuntimePolicy {
                    rebalance: true,
                    rebalance_cooldown: 1,
                    ..stap_pipeline::RuntimePolicy::default()
                },
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

    /// A submission wakes the batcher, never a producer parked on a
    /// full depth. The pipeline is stalled, so stream 0 stays full with
    /// its producer parked in `wait_ready` for the whole test; each of
    /// stream 1's CPIs must leave the ready queue for the engine long
    /// before the stall ends. Two CPIs, because a `notify_one` that
    /// producers can also receive goes to whichever waiter has waited
    /// longest: the first CPI re-queues the batcher behind the producer
    /// and the second is the one left in the ready queue.
    #[test]
    fn submit_wakes_the_batcher_past_a_parked_producer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;
        let params = StapParams::reduced();
        let sc = Scenario::reduced(17);
        let cube = sc.stream(1).next().unwrap().2;
        let stall = Duration::from_secs_f64(stap_util::ci_slack());
        let assign = NodeAssignment::tiny();
        let doppler = assign.rank_range(stap_pipeline::assignment::DOPPLER).start;
        let res = ResidentStap::for_scenario(params, assign, &sc)
            .with_faults(stap_mp::FaultPlan::seeded(1).stall_rank(doppler, 0, stall));
        let server = StapServer::start(
            res,
            ServerConfig {
                max_group: 1,
                queue_depth: 2,
                streams_hint: 2,
                ..ServerConfig::default()
            },
        );
        let t0 = Instant::now();
        server.register(0);
        server.register(1);
        let dispatched = |what: &str| {
            while !server.shared.ing.lock().unwrap().ready.is_empty() {
                assert!(
                    t0.elapsed() < stall / 2,
                    "{what} still in the ready queue with the batcher asleep"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        for _ in 0..2 {
            server.submit(0, server.take_cube_from(&cube)).unwrap();
        }
        dispatched("stream 0");
        let released = AtomicBool::new(false);
        let (parking_tx, parking_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                parking_tx.send(()).unwrap();
                server.wait_ready(0);
                released.store(true, Ordering::SeqCst);
            });
            parking_rx.recv().unwrap();
            for scpi in 0..2 {
                // Not for correctness: gives the producer, then the
                // batcher, time to be the one parked last.
                std::thread::sleep(Duration::from_millis(20));
                server.submit(1, server.take_cube_from(&cube)).unwrap();
                dispatched(&format!("stream 1 CPI {scpi}"));
            }
            assert!(!released.load(Ordering::SeqCst), "stream 0 stayed full");
        });
        let s = server.shutdown().unwrap();
        assert_eq!(s.cpis, 4);
    }
}
