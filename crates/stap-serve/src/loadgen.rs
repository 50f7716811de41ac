//! Synthetic multi-stream load generation.
//!
//! One producer thread per simulated stream, each submitting its
//! pre-generated seeded [`Scenario`] CPI sequence as fast as admission
//! allows. Queue-depth backpressure is the pacing signal: producers
//! block in [`StapServer::wait_ready`] until a completion frees
//! headroom, so the server runs at its sustained rate with bounded
//! queues rather than unbounded buffering.

use crate::admission::Reject;
use crate::server::{ServeSummary, StapServer};
use stap_cube::CCube;
use stap_pipeline::runner::PipelineError;
use stap_radar::Scenario;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Load shape.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenConfig {
    /// Concurrent simulated streams.
    pub streams: usize,
    /// CPIs each stream submits.
    pub cpis_per_stream: usize,
    /// Base RNG seed; stream `s` uses `seed + s`.
    pub seed: u64,
    /// Scenario factory: stream `s` replays `scenario(seed + s)`. Must
    /// produce cubes matching the server's pipeline geometry.
    pub scenario: fn(u64) -> Scenario,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            streams: 4,
            cpis_per_stream: 8,
            seed: 42,
            scenario: Scenario::reduced,
        }
    }
}

/// What the load run produced.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// The server's session summary.
    pub summary: ServeSummary,
    /// Backpressure events: times a producer blocked in
    /// [`StapServer::wait_ready`] for admission headroom.
    pub backpressure_retries: u64,
    /// CPIs a producer gave up on after a terminal reject (bad shape,
    /// retired id) or exhausted retries.
    pub abandoned_cpis: u64,
}

/// Pre-generates every stream's CPI sequence, *then* builds the server
/// via `mk_server` and drives `cfg.streams` producer threads against
/// it. Building the server after generation keeps simulator time off
/// the server's clock, so the reported rate is the pipeline's.
pub fn run_loadgen(
    mk_server: impl FnOnce() -> StapServer,
    cfg: LoadgenConfig,
) -> Result<LoadgenReport, PipelineError> {
    let loads: Vec<Vec<CCube>> = (0..cfg.streams)
        .map(|s| {
            (cfg.scenario)(cfg.seed + s as u64)
                .stream(cfg.cpis_per_stream)
                .map(|(_, _, c)| c)
                .collect()
        })
        .collect();
    let server = Arc::new(mk_server());
    let retries = Arc::new(AtomicU64::new(0));
    let abandoned = Arc::new(AtomicU64::new(0));
    let mut producers = Vec::new();
    for (s, cubes) in loads.into_iter().enumerate() {
        let stream = s as u16;
        server.register(stream);
        let srv = server.clone();
        let rt = retries.clone();
        let ab = abandoned.clone();
        producers.push(std::thread::spawn(move || {
            'cpis: for c in &cubes {
                // Bounded retry per CPI: transient rejects (queue
                // pressure, a closing quarantine window) are retried,
                // terminal ones abandon just this CPI — a reject must
                // never kill the producer: the ledger's per-stream
                // reject counts are there to observe it.
                let mut attempts = 0u32;
                loop {
                    // Wait before filling: a bounced submit wastes a
                    // full cube copy, so block until admission has
                    // headroom.
                    let waits = srv.wait_ready(stream);
                    if waits > 0 {
                        rt.fetch_add(waits, Ordering::Relaxed);
                    }
                    let cube = srv.take_cube_from(c);
                    match srv.submit(stream, cube) {
                        Ok(_) => continue 'cpis,
                        Err(r) => {
                            attempts += 1;
                            match r {
                                Reject::Closed => break 'cpis,
                                Reject::Quarantined { retry_ms, .. } if attempts < 8 => {
                                    std::thread::sleep(Duration::from_millis(
                                        retry_ms.clamp(1, 50),
                                    ));
                                }
                                Reject::QueueFull { .. } if attempts < 8 => {}
                                _ => {
                                    ab.fetch_add(1, Ordering::Relaxed);
                                    continue 'cpis;
                                }
                            }
                        }
                    }
                }
            }
        }));
    }
    for p in producers {
        p.join().expect("producer panicked");
    }
    let server = Arc::into_inner(server).expect("producers released the server");
    let summary = server.shutdown()?;
    Ok(LoadgenReport {
        summary,
        backpressure_retries: retries.load(Ordering::Relaxed),
        abandoned_cpis: abandoned.load(Ordering::Relaxed),
    })
}
