//! The load generator for the serve path (`StapServer` over
//! `ResidentStap`): one submitter (the calling thread) and one collector
//! draining the `start_with_tap` channel. Every other thread belongs to
//! the program under test.

use crate::host;
use crate::spans::SpanLog;
use crate::stats;
use crate::workload::{digest, Inputs, Load, Workload};
use stap_pipeline::tasks::PipelinePools;
use stap_pipeline::{CpiDone, ResidentStap};
use stap_serve::{ServeSummary, ServerConfig, StapServer};
use stap_util::Rng;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A completion that does not come within this long is a hang, not load.
const STUCK: Duration = Duration::from_secs(60);
/// Seconds of the workload's own load pattern before anything is
/// measured (the closed-loop set-up has already warmed pools and caches).
pub const SETTLE_S: f64 = 2.0;
/// Throughput is the mid-mean over windows of this many seconds.
pub const WINDOW_S: f64 = 2.0;
/// CPIs sent one at a time for the unloaded latency.
const UNLOADED_CPIS: usize = 30;
/// The diagnostic rate ladder of the open-loop workload, CPI/s.
pub const LADDER: [f64; 4] = [150.0, 300.0, 450.0, 600.0];
/// A rung holds its rate when its median latency stays within this.
const LADDER_P50_LIMIT_MS: f64 = 10.0;

/// What the submitter knows about one submitted CPI. All times are
/// `host::now()` seconds.
#[derive(Clone, Copy)]
pub struct Sent {
    /// Where this CPI's latency clock starts: the `submit` call in a
    /// closed loop, the scheduled due time in an open loop.
    pub t_ref: f64,
    /// When the generator turned to this CPI (before `take_cube_from`).
    pub t_start: f64,
    /// Just before the `submit` call, which stamps admission first thing.
    pub t_submit: f64,
}

/// What the collector saw of one completion.
pub struct Done {
    pub stream: u16,
    pub scpi: u32,
    pub t_done: f64,
    /// `CpiDone::latency`: admission to completion inside the server.
    pub server_latency: f64,
    /// Digest of the detections, for the leading verified CPIs only.
    pub digest: Option<u64>,
    pub degraded: bool,
}

/// A time interval of the session with the process counters at its ends.
#[derive(Clone, Copy)]
pub struct Period {
    pub t0: f64,
    pub t1: f64,
    pub cpu_s: f64,
    pub pool_misses: u64,
    pub pool_hits: u64,
}

#[derive(Clone, Copy)]
pub struct Rung {
    pub rate: f64,
    pub t0: f64,
    pub t1: f64,
    pub rejected: u64,
    pub in_flight_mid: usize,
    pub in_flight_end: usize,
}

/// Everything one session produced, for the analysis that follows.
pub struct Session {
    pub setup_s: f64,
    pub sent: Vec<Vec<Sent>>,
    pub done: Vec<Done>,
    pub summary: ServeSummary,
    /// Submissions the server refused, outside the rate ladder (whose
    /// upper rungs overload it on purpose and count their own).
    pub rejected: u64,
    pub backpressure_waits: u64,
    /// Untraced measured period (absent from a set-up-only session).
    pub measured: Option<Period>,
    /// Traced measured period (`--trace 1` only).
    pub traced: Option<Period>,
    /// Per-stream CPI indices `[from, to)` sent one at a time on stream 0.
    pub unloaded: Option<(u32, u32)>,
    pub ladder: Vec<Rung>,
    pub spans: SpanLog,
}

/// What to do between set-up and shutdown.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Seconds of untraced measurement (0 = set-up only).
    pub measure_s: f64,
    /// Seconds of traced measurement after it.
    pub traced_s: f64,
    pub unloaded: bool,
    /// Seconds per ladder rung (0 = no ladder).
    pub rung_s: f64,
}

impl Plan {
    pub const SETUP_ONLY: Plan = Plan {
        measure_s: 0.0,
        traced_s: 0.0,
        unloaded: false,
        rung_s: 0.0,
    };
}

struct Driver<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    server: StapServer,
    pools: PipelinePools,
    credits: Receiver<u16>,
    sent: Vec<Vec<Sent>>,
    in_flight: usize,
    completions: usize,
    rejected: u64,
    waits: u64,
    /// Rate ladder only: submit without waiting for admission headroom,
    /// so that an overloaded rung sheds instead of stretching.
    shed: bool,
    tracing: bool,
    spans: SpanLog,
}

fn collect(tap: Receiver<CpiDone>, credit: mpsc::Sender<u16>, verified: u32) -> Vec<Done> {
    let mut done = Vec::new();
    while let Ok(mut d) = tap.recv() {
        let t_done = host::now();
        done.push(Done {
            stream: d.stream,
            scpi: d.scpi,
            t_done,
            server_latency: d.latency,
            digest: (d.scpi < verified).then(|| digest(&mut d.detections)),
            degraded: d.degraded,
        });
        // The submitter may already be gone during the final drain.
        let _ = credit.send(d.stream);
    }
    done
}

impl Driver<'_> {
    /// Submits stream `s`'s next CPI. `due` is the scheduled send time of
    /// an open loop; a closed loop's clock starts at the `submit` call.
    fn submit(&mut self, s: usize, due: Option<f64>) {
        let stream = s as u16;
        let scpi = self.sent[s].len();
        let t_start = host::now();
        if !self.shed {
            // The documented producer protocol: block for admission
            // headroom. A closed loop, with one credit per completion,
            // never waits; an open loop waits only behind a backlog of
            // `queue_depth` CPIs per stream, and since its latency clock
            // runs from the due time the wait is charged to latency (and
            // to the generator lag) instead of failing the CPI.
            self.waits += self.server.wait_ready(stream);
        }
        let t_take = host::now();
        let cube = self.server.take_cube_from(self.inputs.cube(s, scpi));
        let t_submit = host::now();
        let admitted = self.server.submit(stream, cube);
        if self.tracing {
            let t_end = host::now();
            let id = Some((stream, scpi as u32));
            self.spans
                .record("take_cube", "stap-serve", t_take, t_submit, None, id);
            self.spans
                .record("submit", "stap-serve", t_submit, t_end, None, id);
        }
        match admitted {
            Ok(assigned) => {
                assert_eq!(assigned as usize, scpi, "stream {s}: sequence gap");
                self.sent[s].push(Sent {
                    t_ref: due.unwrap_or(t_submit),
                    t_start,
                    t_submit,
                });
                self.in_flight += 1;
            }
            // A refused CPI is a failed one (outside the ladder, which
            // sheds on purpose); the loop moves on.
            Err(_) => self.rejected += 1,
        }
    }

    fn on_credit(&mut self) {
        self.in_flight -= 1;
        self.completions += 1;
    }

    fn next_credit(&mut self, wait: Duration) -> Option<usize> {
        match self.credits.recv_timeout(wait) {
            Ok(stream) => {
                self.on_credit();
                Some(stream as usize)
            }
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => panic!("the server stopped mid-run"),
        }
    }

    fn credit_or_stuck(&mut self) -> usize {
        self.next_credit(STUCK)
            .unwrap_or_else(|| panic!("no completion within {STUCK:?}"))
    }

    /// Closed loop: fill every stream to its in-flight count.
    fn prime(&mut self, in_flight: usize) {
        for s in 0..self.w.streams {
            for _ in 0..in_flight {
                self.submit(s, None);
            }
        }
    }

    /// Closed loop until `total` completions have been seen.
    fn closed_until_completions(&mut self, total: usize) {
        while self.completions < total {
            let s = self.credit_or_stuck();
            self.submit(s, None);
        }
    }

    /// Closed loop until the session clock reads `until`.
    fn closed_until(&mut self, until: f64) {
        loop {
            let left = until - host::now();
            if left <= 0.0 {
                return;
            }
            if let Some(s) = self.next_credit(Duration::from_secs_f64(left)) {
                self.submit(s, None);
            }
        }
    }

    /// Open loop at `rate` CPI/s in aggregate until `until`, every stream
    /// periodic from a seeded phase. Ends at `until` even when a backlog
    /// has made it late (the CPIs still scheduled are then not sent).
    ///
    /// The streams' clocks are independent, as separate radars' are:
    /// their periods differ by `CLOCK_SKEW` from one stream to the next,
    /// so over a 20 s period every pair of streams slides through all
    /// relative phases at least three times. With equal periods the
    /// seeded phases alone decided how often two CPIs arrive together,
    /// and the median latency with them (2.3 to 3.8 ms from seed to seed).
    ///
    /// Returns the number in flight at the middle of the interval.
    fn open_until(&mut self, rate: f64, until: f64, rng: &mut Rng) -> usize {
        const CLOCK_SKEW: f64 = 0.002;
        let centre = 0.5 * (self.w.streams - 1) as f64;
        let skew: Vec<f64> = (0..self.w.streams)
            .map(|s| 1.0 + CLOCK_SKEW * (s as f64 - centre))
            .collect();
        let start = host::now();
        let nominal = self.w.streams as f64 / rate;
        let mut due: Vec<f64> = skew
            .iter()
            .map(|k| start + rng.gen_f64() * nominal * k)
            .collect();
        let half = 0.5 * (start + until);
        let mut in_flight_mid = None;
        loop {
            let (s, &t) = due
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("at least one stream");
            if t >= until || host::now() >= until {
                break;
            }
            self.sleep_until(t);
            while self.credits.try_recv().is_ok() {
                self.on_credit();
            }
            if t >= half {
                in_flight_mid.get_or_insert(self.in_flight);
            }
            self.submit(s, Some(t));
            due[s] += nominal * skew[s];
        }
        self.sleep_until(until);
        while self.credits.try_recv().is_ok() {
            self.on_credit();
        }
        in_flight_mid.unwrap_or(self.in_flight)
    }

    fn sleep_until(&self, t: f64) {
        let left = t - host::now();
        if left > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(left));
        }
    }

    /// Waits for everything in flight.
    fn drain(&mut self) {
        while self.in_flight > 0 {
            self.credit_or_stuck();
        }
    }

    /// The workload's own load for `seconds`, with the process counters
    /// read at both ends.
    fn load_for(&mut self, seconds: f64, rng: &mut Rng) -> Period {
        let pool = |p: &PipelinePools| {
            let (cx, real) = (p.cx.stats(), p.real.stats());
            (cx.misses + real.misses, cx.hits + real.hits)
        };
        let (t0, cpu0, (miss0, hit0)) = (host::now(), host::cpu_seconds(), pool(&self.pools));
        match self.w.load {
            Load::Closed { .. } => self.closed_until(t0 + seconds),
            Load::Open { rate } => {
                self.open_until(rate, t0 + seconds, rng);
            }
            Load::TcpBatch { .. } => unreachable!("not a serve workload"),
        }
        let (t1, cpu1, (miss1, hit1)) = (host::now(), host::cpu_seconds(), pool(&self.pools));
        Period {
            t0,
            t1,
            cpu_s: cpu1 - cpu0,
            pool_misses: miss1 - miss0,
            pool_hits: hit1 - hit0,
        }
    }
}

/// Builds the system under test, warms it up, runs `plan` and shuts
/// down. `setup_s` runs from the first line here to the W-th completion.
pub fn run_session(w: &Workload, inputs: &Inputs, seed: u64, plan: Plan) -> Session {
    let t_build = host::now();
    let resident =
        ResidentStap::for_scenario(w.geometry.params(), w.assignment(), &inputs.scenarios[0]);
    let pools = resident.pools().clone();
    let (tap_tx, tap_rx) = mpsc::channel();
    let server = StapServer::start_with_tap(
        resident,
        ServerConfig {
            window: w.window,
            max_group: w.max_group,
            queue_depth: w.queue_depth,
            streams_hint: w.streams,
            warmup_cpis: 0,
            ..ServerConfig::default()
        },
        Some(tap_tx),
    );
    for s in 0..w.streams {
        server.register(s as u16);
    }
    let (credit_tx, credits) = mpsc::channel();
    let verified = w.geometry.verified_cpis() as u32;
    let collector: JoinHandle<Vec<Done>> =
        std::thread::spawn(move || collect(tap_rx, credit_tx, verified));
    let mut d = Driver {
        w,
        inputs,
        server,
        pools,
        credits,
        sent: vec![Vec::new(); w.streams],
        in_flight: 0,
        completions: 0,
        rejected: 0,
        waits: 0,
        shed: false,
        tracing: false,
        spans: SpanLog::default(),
    };

    // Set-up ends at the W-th completion with every stream's admission
    // queue filled to its depth: the time to a warm system, and every
    // buffer the deepest backlog can touch touched once — so that
    // `peak_rss_mb` is the footprint at full admission depth, not a
    // record of how deep this run's worst host stall happened to reach
    // (the open loop read 34 to 65 MB before).
    match w.load {
        Load::Closed { in_flight } => {
            d.prime(in_flight);
            d.closed_until_completions(w.warmup_cpis);
        }
        Load::Open { .. } => {
            assert!(w.streams * w.queue_depth >= w.warmup_cpis);
            d.prime(w.queue_depth);
            while d.completions < w.warmup_cpis {
                d.credit_or_stuck();
            }
        }
        Load::TcpBatch { .. } => unreachable!("not a serve workload"),
    }
    let setup_s = host::now() - t_build;

    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut out_unloaded = None;
    let mut measured = None;
    let mut traced = None;
    let mut ladder = Vec::new();
    if plan.unloaded {
        d.drain();
        let from = d.sent[0].len() as u32;
        for _ in 0..UNLOADED_CPIS {
            d.submit(0, None);
            d.drain();
        }
        out_unloaded = Some((from, d.sent[0].len() as u32));
    }
    if plan.measure_s > 0.0 {
        match w.load {
            Load::Closed { in_flight } if d.in_flight == 0 => d.prime(in_flight),
            Load::Closed { .. } => {}
            _ => d.drain(),
        }
        d.load_for(SETTLE_S, &mut rng);
        measured = Some(d.load_for(plan.measure_s, &mut rng));
    }
    if plan.traced_s > 0.0 {
        d.tracing = true;
        traced = Some(d.load_for(plan.traced_s, &mut rng));
        d.tracing = false;
    }
    if let (Load::Open { .. }, true) = (w.load, plan.rung_s > 0.0) {
        d.shed = true;
        for rate in LADDER {
            d.drain();
            let (t0, rejected0) = (host::now(), d.rejected);
            let in_flight_mid = d.open_until(rate, t0 + plan.rung_s, &mut rng);
            ladder.push(Rung {
                rate,
                t0,
                t1: host::now(),
                rejected: d.rejected - rejected0,
                in_flight_mid,
                in_flight_end: d.in_flight,
            });
        }
    }
    d.drain();

    let Driver {
        server,
        sent,
        rejected,
        waits,
        spans,
        credits,
        ..
    } = d;
    let rejected = rejected - ladder.iter().map(|r| r.rejected).sum::<u64>();
    let summary = server.shutdown().expect("serve session failed");
    drop(credits);
    let done = collector.join().expect("collector panicked");
    Session {
        setup_s,
        sent,
        done,
        summary,
        rejected,
        backpressure_waits: waits,
        measured,
        traced,
        unloaded: out_unloaded,
        ladder,
        spans,
    }
}

/// What one period of a session looked like from the client.
pub struct PeriodStats {
    pub window_rates: Vec<f64>,
    pub throughput: f64,
    /// Client latencies of the period's completions, ascending, ms.
    pub latency_ms: Vec<f64>,
    pub server_p50_ms: f64,
    pub client_overhead_ms: f64,
    /// Open loop: actual minus due send time of the CPIs sent in the
    /// period, p95, ms. 0 in a closed loop.
    pub gen_lag_p95_ms: f64,
    pub cpu_ms_per_cpi: f64,
}

impl Session {
    fn sent_of(&self, d: &Done) -> &Sent {
        &self.sent[d.stream as usize][d.scpi as usize]
    }

    pub fn period_stats(&self, p: &Period) -> PeriodStats {
        let inside: Vec<&Done> = self
            .done
            .iter()
            .filter(|d| d.t_done >= p.t0 && d.t_done < p.t1)
            .collect();
        assert!(!inside.is_empty(), "nothing completed in the period");
        let stamps: Vec<f64> = inside.iter().map(|d| d.t_done).collect();
        // The period as it actually ran, cut into equal windows of about
        // `WINDOW_S` seconds.
        let windows = ((p.t1 - p.t0) / WINDOW_S).round().max(1.0) as usize;
        let width = (p.t1 - p.t0) / windows as f64;
        let window_rates = stats::window_rates(&stamps, p.t0, width, windows);
        let mut latency_ms: Vec<f64> = inside
            .iter()
            .map(|d| (d.t_done - self.sent_of(d).t_ref) * 1e3)
            .collect();
        latency_ms.sort_by(f64::total_cmp);
        let mut server_ms: Vec<f64> = inside.iter().map(|d| d.server_latency * 1e3).collect();
        let mut overhead_ms: Vec<f64> = inside
            .iter()
            .map(|d| (d.t_done - self.sent_of(d).t_submit - d.server_latency) * 1e3)
            .collect();
        let mut lag_ms: Vec<f64> = self
            .sent
            .iter()
            .flatten()
            .filter(|s| s.t_start >= p.t0 && s.t_start < p.t1)
            .map(|s| (s.t_start - s.t_ref).max(0.0) * 1e3)
            .collect();
        lag_ms.sort_by(f64::total_cmp);
        PeriodStats {
            throughput: stats::mid_mean(&mut window_rates.clone()),
            window_rates,
            latency_ms,
            server_p50_ms: stats::median(&mut server_ms),
            client_overhead_ms: stats::median(&mut overhead_ms),
            gen_lag_p95_ms: if lag_ms.is_empty() {
                0.0
            } else {
                stats::percentile(&lag_ms, 0.95)
            },
            cpu_ms_per_cpi: p.cpu_s * 1e3 / inside.len() as f64,
        }
    }

    /// Median client latency of the CPIs sent one at a time, ms.
    pub fn unloaded_latency_ms(&self) -> Option<f64> {
        let (from, to) = self.unloaded?;
        let mut ms: Vec<f64> = self
            .done
            .iter()
            .filter(|d| d.stream == 0 && (from..to).contains(&d.scpi))
            .map(|d| (d.t_done - self.sent_of(d).t_ref) * 1e3)
            .collect();
        (!ms.is_empty()).then(|| stats::median(&mut ms))
    }

    /// Median latency on each rung, and the highest rate that held:
    /// median within the limit, nothing refused, and no more in flight at
    /// the end of the rung than at its middle (`slack` absorbs the
    /// arrivals of one scheduling round).
    pub fn ladder_stats(&self, slack: usize) -> (Vec<(f64, f64)>, f64) {
        let mut sustained = 0.0;
        let p50s = self
            .ladder
            .iter()
            .map(|r| {
                let mut ms: Vec<f64> = self
                    .done
                    .iter()
                    .filter(|d| d.t_done >= r.t0 && d.t_done < r.t1)
                    .map(|d| (d.t_done - self.sent_of(d).t_ref) * 1e3)
                    .collect();
                let p50 = if ms.is_empty() {
                    f64::MAX
                } else {
                    stats::median(&mut ms)
                };
                let held = p50 <= LADDER_P50_LIMIT_MS
                    && r.rejected == 0
                    && r.in_flight_end <= r.in_flight_mid + slack;
                println!(
                    "ladder {:>4.0} CPI/s: p50 {:.3} ms, refused {}, in flight mid {} end {} -> {}",
                    r.rate,
                    p50,
                    r.rejected,
                    r.in_flight_mid,
                    r.in_flight_end,
                    if held { "held" } else { "not held" }
                );
                if held {
                    sustained = r.rate.max(sustained);
                }
                (r.rate, p50)
            })
            .collect();
        (p50s, sustained)
    }

    /// Failures of the whole session against the oracle and the
    /// exactly-once, in-order rule. Returns `(attempted, failed, correct)`.
    pub fn verdict(&self, oracle: &[Vec<u64>]) -> (u64, u64, bool) {
        let submitted: usize = self.sent.iter().map(Vec::len).sum();
        let attempted = submitted as u64 + self.rejected;
        let mut next = vec![0u32; self.sent.len()];
        let mut out_of_order = 0u64;
        let mut mismatched = 0u64;
        let mut degraded = 0u64;
        for d in &self.done {
            let s = d.stream as usize;
            if d.scpi != next[s] {
                out_of_order += 1;
            }
            next[s] = d.scpi + 1;
            if let Some(got) = d.digest {
                if oracle[s].get(d.scpi as usize) != Some(&got) {
                    mismatched += 1;
                }
            }
            degraded += d.degraded as u64;
        }
        let never_completed = submitted.saturating_sub(self.done.len()) as u64;
        let health = &self.summary.resident.health;
        let failed = self.rejected
            + never_completed
            + mismatched
            + out_of_order
            + degraded
            + health.dropped_cpis;
        let verified: usize = self.done.iter().filter(|d| d.digest.is_some()).count();
        let expected: usize = oracle.iter().map(Vec::len).sum();
        if mismatched + out_of_order + never_completed > 0 || verified != expected {
            println!(
                "ORACLE: {mismatched} digest mismatches, {out_of_order} out of order, \
                 {never_completed} never completed, {verified}/{expected} verified"
            );
        }
        let correct =
            mismatched == 0 && out_of_order == 0 && never_completed == 0 && verified == expected;
        (attempted, failed, correct)
    }

    /// Adds the spans only derivable after the fact — `in_server` from
    /// `CpiDone::latency`, `tap_delivery` from there to the collector's
    /// stamp — for the CPIs of the traced period, and roots each CPI.
    pub fn finish_spans(&mut self) {
        let Some(p) = self.traced else { return };
        let mut spans = std::mem::take(&mut self.spans);
        for d in &self.done {
            let sent = self.sent_of(d);
            if sent.t_start < p.t0 || sent.t_start >= p.t1 {
                continue;
            }
            let id = Some((d.stream, d.scpi));
            let served = sent.t_submit + d.server_latency;
            spans.record("in_server", "stap-serve", sent.t_submit, served, None, id);
            spans.record("tap_delivery", "stap-serve", served, d.t_done, None, id);
        }
        spans.link_cpi_roots();
        self.spans = spans;
    }
}
