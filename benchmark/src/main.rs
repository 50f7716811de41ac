//! One end-to-end and per-layer performance ledger for the STAP pipeline.
//!
//! ```text
//! stap-benchmark --workload <name> [--seed S] [--seconds N] [--trace [0|1]]
//! stap-benchmark --all [--quick] [...]      one child process per workload
//! stap-benchmark --selfcheck [--quick]      --all twice, compared (A/A gate)
//! ```
//!
//! `--workload <name> --setup-only` is what a run starts for each further
//! sample of `setup_s`: a fresh process that builds the system, warms it
//! up, prints the seconds that took and exits.
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with tracing off, the per-layer metrics with `--trace 1`.
//! See `README.md` beside this package for what each number means.

mod batch;
mod host;
mod ledger;
mod probes;
mod serve;
mod spans;
mod stats;
mod workload;

use ledger::{Ledger, END_TO_END, PER_LAYER};
use serve::{Plan, Session};
use spans::SpanLog;
use stap_core::volumes;
use stap_pipeline::assignment::TASK_NAMES;
use stap_pipeline::TraceStats;
use stap_util::Json;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Inputs, Load, Workload, WORKLOADS};

/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;
const QUICK_SECONDS: f64 = 5.0;
/// `setup_s` is the fastest of several set-ups, each the first of its
/// process: the run's own and those of `--setup-only` children, started
/// one after the other until this many samples exist and this many
/// seconds have gone into them (3 to 5 samples on the serve workloads,
/// some 10 of the 30 ms batch set-up). A set-up repeated inside one
/// process finds the allocator holding the freed pools with their pages
/// already touched and takes half as long, so it would hide a regression
/// in pool reserve or first-touch cost. The fastest, not the median: on
/// this virtual machine a process that touches memory the guest has
/// handed back to the host (after a pause, or after a large process
/// ends) pays the host's page faults as well, 0.65 s against 0.34 s for
/// the same `red_open` set-up, and which of the two a sample lands in is
/// the host's doing. Every sample still faults its own pages in.
const MIN_SETUP_SAMPLES: usize = 3;
const SETUP_CHILDREN_S: f64 = 2.0;
/// CPIs of a `--setup-only` batch: enough to get past the warm-up and
/// the excluded tail.
const SETUP_BATCH_CPIS: usize = 16;
/// Open loop: the generator must send within this of the schedule (p95).
const GEN_LAG_LIMIT_MS: f64 = 2.0;
/// At most this share of the throughput windows may be stalled.
const STALLED_LIMIT: f64 = 0.25;
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<String>,
    all: bool,
    selfcheck: bool,
    quick: bool,
    setup_only: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        selfcheck: false,
        quick: false,
        setup_only: false,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--all" => a.all = true,
            "--selfcheck" => a.selfcheck = true,
            "--quick" => a.quick = true,
            "--setup-only" => a.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.quick && !seconds_given {
        a.seconds = QUICK_SECONDS;
    }
    if !(a.seconds >= 1.0 && a.seconds <= 60.0) {
        return Err("--seconds must be within 1..=60".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    host::now(); // starts the run's clock
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: --workload <{}> [--seed S] [--seconds N] [--trace [0|1]] \
                 | --all [--quick] | --selfcheck [--quick]",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck(&args);
    }
    if args.all {
        let ok = WORKLOADS
            .iter()
            .all(|w| run_child(w, &args).is_some_and(|r| r.ok));
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(w) = args.workload.as_deref().and_then(Workload::by_name) else {
        eprintln!(
            "--workload must be one of: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    if args.setup_only {
        return setup_only(w, &args);
    }
    run_workload(w, &args)
}

// ---------------------------------------------------------------- one run

/// What a run hands to the result line.
struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn run_workload(w: &Workload, args: &Args) -> ExitCode {
    let gated = if args.quick { " (quick: ungated)" } else { "" };
    println!(
        "== {} seed {} seconds {} trace {}{gated}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let inputs = Inputs::generate(w, args.seed);
    let mut ledger = Ledger::default();
    ledger.set("harness.gen_s", inputs.gen_s);
    ledger.set(
        "stap-radar.gen_cpi_ms",
        stats::median(&mut inputs.gen_cpi_s.clone()) * 1e3,
    );
    let outcome = match w.load {
        Load::TcpBatch { cpis } => run_tcp_batch(w, &inputs, cpis, args, &mut ledger),
        _ => run_serve(w, &inputs, args, &mut ledger),
    };
    ledger.set(
        "harness.failed_frac",
        outcome.failed as f64 / outcome.attempted as f64,
    );
    computed_metrics(w, &mut ledger);

    let mut host = host::host_block();
    host.push("workload", Json::Str(w.name.to_string()));
    host.push("transport", Json::Str(w.transport().to_string()));
    host.push("geometry", Json::Str(w.geometry.name().to_string()));
    host.push("nodes", Json::arr(w.nodes.iter().map(|&n| Json::from(n))));
    host.push("seed", Json::Num(args.seed as f64));
    for key in ["harness.latency_samples", "harness.throughput_windows"] {
        host.push(key, Json::Num(ledger.get(key).unwrap_or(0.0)));
    }
    println!("host {}", host.to_string_compact());
    ledger.print(if args.trace {
        "ledger (traced run: per-layer metrics; end-to-end ones are informative here)"
    } else {
        "ledger (tracing off)"
    });

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let ok = outcome.correct && outcome.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", ledger.metrics_json(table)),
    ]);
    println!("{}", result.to_string_compact());
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAILED: correct={} failed={}/{}",
            outcome.correct, outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

/// A run is disturbed when the host, not the program, shaped it. The run
/// still reports what it measured (`harness.disturbed` says so): the
/// driver's time for all its runs leaves none to repeat one.
fn disturbed(window_rates: &[f64], gen_lag_p95_ms: f64) -> Option<String> {
    let stalled = stats::stalled_window_share(window_rates);
    if gen_lag_p95_ms > GEN_LAG_LIMIT_MS {
        Some(format!(
            "generator lag p95 {gen_lag_p95_ms:.3} ms > {GEN_LAG_LIMIT_MS} ms"
        ))
    } else if stalled > STALLED_LIMIT {
        Some(format!(
            "{:.0} % of the windows below half the median window",
            stalled * 100.0
        ))
    } else {
        None
    }
}

fn print_windows(rates: &[f64], verdict: &Option<String>) {
    let rates: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    println!(
        "window CPI/s [{}] -> {}",
        rates.join(" "),
        match verdict {
            Some(why) => format!("DISTURBED: {why}"),
            None => "valid".to_string(),
        }
    );
}

/// The `--setup-only` child: one set-up, the first of its process.
fn setup_only(w: &Workload, args: &Args) -> ExitCode {
    let inputs = Inputs::generate(w, args.seed);
    let setup_s = match w.load {
        Load::TcpBatch { .. } => {
            let replayed = batch::replay(w, &inputs, SETUP_BATCH_CPIS);
            batch::run_batch(w, &inputs, &replayed, false).setup_s
        }
        _ => serve::run_session(w, &inputs, args.seed, Plan::SETUP_ONLY).setup_s,
    };
    println!("{setup_s}");
    ExitCode::SUCCESS
}

/// Fastest of the run's own first set-up and those of fresh processes.
fn setup_fastest(w: &Workload, args: &Args, own: f64) -> f64 {
    let mut samples = vec![own];
    let started = Instant::now();
    while samples.len() < MIN_SETUP_SAMPLES || started.elapsed().as_secs_f64() < SETUP_CHILDREN_S {
        let exe = std::env::current_exe().expect("own path");
        let out = Command::new(exe)
            .args(["--workload", w.name, "--setup-only"])
            .args(["--seed", &args.seed.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("start a set-up child");
        let text = String::from_utf8_lossy(&out.stdout);
        let sample = text.lines().last().and_then(|l| l.parse().ok());
        samples.push(sample.expect("a set-up child prints its seconds"));
    }
    println!("set-up samples (s): {samples:?}");
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

fn run_serve(w: &Workload, inputs: &Inputs, args: &Args, ledger: &mut Ledger) -> Outcome {
    let s = args.seconds;
    let plan = if args.trace {
        Plan {
            measure_s: s / 2.0,
            traced_s: s / 2.0,
            unloaded: true,
            rung_s: if matches!(w.load, Load::Open { .. }) {
                0.3 * s
            } else {
                0.0
            },
        }
    } else {
        Plan {
            measure_s: s,
            ..Plan::SETUP_ONLY
        }
    };
    // Pools and fabric buffers, not the input ring, are the program's
    // memory: the baseline is read with the inputs already resident.
    let rss0 = host::rss_mb();
    let mut session = serve::run_session(w, inputs, args.seed, plan);
    let peak_rss_mb = host::rss_peak_mb() - rss0;
    let period = session.measured.expect("the plan measures");
    let measured = session.period_stats(&period);
    let verdict = disturbed(&measured.window_rates, measured.gen_lag_p95_ms);
    print_windows(&measured.window_rates, &verdict);
    let (attempted, failed, correct) = session.verdict(&inputs.oracle(w));

    ledger.set("setup_s", setup_fastest(w, args, session.setup_s));
    ledger.set("throughput_cpi_s", measured.throughput);
    ledger.set(
        "latency_p50_ms",
        stats::percentile(&measured.latency_ms, 0.50),
    );
    ledger.set("cpu_ms_per_cpi", measured.cpu_ms_per_cpi);
    ledger.set("peak_rss_mb", peak_rss_mb);
    ledger.set("harness.latency_samples", measured.latency_ms.len() as f64);
    ledger.set(
        "harness.throughput_windows",
        measured.window_rates.len() as f64,
    );
    ledger.set("harness.disturbed", verdict.is_some() as u8 as f64);
    ledger.set("harness.gen_lag_p95_ms", measured.gen_lag_p95_ms);
    ledger.set("harness.client_overhead_ms", measured.client_overhead_ms);
    ledger.set("stap-serve.server_latency_p50_ms", measured.server_p50_ms);
    ledger.set(
        "stap-serve.latency_p95_ms",
        stats::percentile(&measured.latency_ms, 0.95),
    );
    ledger.set(
        "stap-serve.latency_p99_ms",
        stats::percentile(&measured.latency_ms, 0.99),
    );
    ledger.set(
        "stap-serve.backpressure_waits",
        session.backpressure_waits as f64,
    );
    ledger.set("stap-serve.rejected", session.rejected as f64);
    ledger.set("stap-cube.pool_misses", period.pool_misses as f64);
    ledger.set(
        "stap-cube.pool_hit_ratio",
        period.pool_hits as f64 / (period.pool_hits + period.pool_misses).max(1) as f64,
    );
    let resident = &session.summary.resident;
    record_busy(
        ledger,
        std::array::from_fn(|t| resident.busy[t] / w.nodes[t] as f64 / resident.elapsed),
    );
    ledger.set(
        "stap-pipeline.cpis_per_slot",
        resident.cpis as f64 / resident.slots.max(1) as f64,
    );
    let depth = resident.health.max_mailbox_depth.iter().max();
    ledger.set("stap-mp.max_mailbox_depth", *depth.unwrap_or(&0) as f64);

    if args.trace {
        traced_serve(w, inputs, &mut session, &measured, ledger);
    }
    Outcome {
        attempted,
        failed,
        correct,
    }
}

/// The per-layer part of a traced serve run: probes, the traced period
/// against the untraced one, unloaded latency, the rate ladder.
fn traced_serve(
    w: &Workload,
    inputs: &Inputs,
    session: &mut Session,
    untraced: &serve::PeriodStats,
    ledger: &mut Ledger,
) {
    let traced_period = session.traced.expect("the plan traces");
    let traced = session.period_stats(&traced_period);
    println!(
        "traced period: {:.3} CPI/s against {:.3} untraced",
        traced.throughput, untraced.throughput
    );
    ledger.set(
        "harness.trace_overhead_frac",
        1.0 - traced.throughput / untraced.throughput,
    );
    if !session.ladder.is_empty() {
        let (p50s, sustained) = session.ladder_stats(2 * w.streams);
        for (rate, p50) in p50s {
            ledger.set(&format!("stap-serve.ladder_{rate:.0}_p50_ms"), p50.min(1e9));
        }
        ledger.set("stap-serve.sustained_rate_cpi_s", sustained);
    }

    let mut probes = probes::Probes {
        w,
        inputs,
        spans: SpanLog::default(),
        ledger,
    };
    probes.run_all();
    let probe_spans = probes.spans;

    // Latency ledger: what the eq.-2 chain of kernels explains of the
    // unloaded latency, and what is left for everything around them.
    let unloaded = session
        .unloaded_latency_ms()
        .expect("the plan sends unloaded CPIs");
    let ms = |name: &str| ledger.get(name).expect("probed");
    let chain = ms("stap-core.doppler_ms")
        + ms("stap-core.easy_bf_ms").max(ms("stap-core.hard_bf_ms"))
        + ms("stap-core.pulse_ms")
        + ms("stap-core.cfar_ms");
    ledger.set("stap-pipeline.unloaded_latency_ms", unloaded);
    ledger.set("stap-pipeline.latency_unexplained_ms", unloaded - chain);
    println!(
        "latency ledger: T0 + max(T3,T4) + T5 + T6 = {chain:.3} ms, \
         unexplained {:.3} ms, unloaded {unloaded:.3} ms",
        unloaded - chain
    );
    record_parallel_efficiency(w, untraced.throughput, ledger);

    session.finish_spans();
    let mut spans = std::mem::take(&mut session.spans);
    let median_us = |name: &str| {
        let mut us: Vec<f64> = spans
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) * 1e6)
            .collect();
        stats::median(&mut us)
    };
    ledger.set("stap-serve.submit_us", median_us("submit"));
    ledger.set("stap-serve.take_cube_us", median_us("take_cube"));
    spans.absorb(probe_spans);
    write_trace(w, &spans, ledger);
}

fn run_tcp_batch(
    w: &Workload,
    inputs: &Inputs,
    cpis: usize,
    args: &Args,
    ledger: &mut Ledger,
) -> Outcome {
    let replayed = batch::replay(w, inputs, cpis);
    let rss0 = host::rss_mb();
    // Batches until the measured seconds are used up, at least three (the
    // issue's "three runs"); a traced run alternates plain and traced
    // batches.
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
        plain.push(batch::run_batch(w, inputs, &replayed, false));
        if args.trace {
            traced.push(batch::run_batch(w, inputs, &replayed, true));
        }
    }
    let rates: Vec<f64> = plain.iter().map(|b| b.throughput).collect();
    let verdict = disturbed(&rates, 0.0);
    print_windows(&rates, &verdict);
    let peak_rss_mb = host::rss_peak_mb() - rss0;

    let oracle = inputs.oracle(w);
    let mut failed = 0;
    let mut correct = true;
    for b in plain.iter().chain(&traced) {
        let mismatched = b
            .digests
            .iter()
            .zip(&oracle[0])
            .filter(|(g, w)| g != w)
            .count();
        if mismatched > 0 || b.digests.len() != oracle[0].len() {
            println!("ORACLE: {mismatched} digest mismatches in a batch");
            correct = false;
        }
        failed += mismatched as u64 + b.lost_cpis;
    }
    let attempted = ((plain.len() + traced.len()) * cpis) as u64;

    let mut latency_ms: Vec<f64> = plain.iter().flat_map(|b| b.latency_ms.clone()).collect();
    latency_ms.sort_by(f64::total_cmp);
    let throughput = stats::mid_mean(&mut plain.iter().map(|b| b.throughput).collect::<Vec<_>>());
    // Summed over the batches: one batch's CPU is only ~150 clock ticks.
    let cpu_s: f64 = plain.iter().map(|b| b.cpu_s).sum();
    ledger.set("setup_s", setup_fastest(w, args, plain[0].setup_s));
    ledger.set("throughput_cpi_s", throughput);
    ledger.set("latency_p50_ms", stats::percentile(&latency_ms, 0.50));
    ledger.set("cpu_ms_per_cpi", cpu_s * 1e3 / (plain.len() * cpis) as f64);
    ledger.set("peak_rss_mb", peak_rss_mb);
    ledger.set("harness.latency_samples", latency_ms.len() as f64);
    ledger.set("harness.throughput_windows", plain.len() as f64);
    ledger.set("harness.disturbed", verdict.is_some() as u8 as f64);
    ledger.set(
        "stap-serve.latency_p95_ms",
        stats::percentile(&latency_ms, 0.95),
    );
    ledger.set(
        "stap-serve.latency_p99_ms",
        stats::percentile(&latency_ms, 0.99),
    );
    let misses: u64 = plain.iter().map(|b| b.pool_misses_after_warm).sum();
    let hits: u64 = plain.iter().map(|b| b.pool_hits).sum();
    ledger.set("stap-cube.pool_misses", misses as f64);
    ledger.set(
        "stap-cube.pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let depth = plain
        .iter()
        .flat_map(|b| b.timings.health.max_mailbox_depth)
        .max();
    ledger.set("stap-mp.max_mailbox_depth", depth.unwrap_or(0) as f64);

    // The paper's Tables 7-10 columns, and how busy each task's node is.
    let mean = |t: usize, f: fn(&stap_pipeline::TaskTiming) -> f64| {
        plain.iter().map(|b| f(&b.timings.tasks[t])).sum::<f64>() / plain.len() as f64
    };
    for t in 0..7 {
        for (phase, f) in [
            (
                "recv",
                (|x| x.recv) as fn(&stap_pipeline::TaskTiming) -> f64,
            ),
            ("comp", |x| x.comp),
            ("send", |x| x.send),
        ] {
            ledger.set(&format!("stap-pipeline.t{t}_{phase}_ms"), mean(t, f) * 1e3);
        }
    }
    record_busy(
        ledger,
        std::array::from_fn(|t| mean(t, |x| x.total_without_idle()) * throughput),
    );
    ledger.set("stap-pipeline.cpis_per_slot", 1.0);

    if args.trace {
        let traced_rate =
            stats::mid_mean(&mut traced.iter().map(|b| b.throughput).collect::<Vec<f64>>());
        println!("traced batches: {traced_rate:.3} CPI/s against {throughput:.3} untraced");
        ledger.set(
            "harness.trace_overhead_frac",
            1.0 - traced_rate / throughput,
        );
        let trace = traced
            .last()
            .and_then(|b| b.trace.as_ref())
            .expect("traced batch");
        let stats = TraceStats::from_trace(trace);
        println!(
            "per-edge traffic of the last traced batch (model bytes: 8 B per complex sample):"
        );
        for (name, e) in stap_pipeline::msg::EDGE_NAMES.iter().zip(&stats.edges) {
            println!(
                "  {name:<18} {:>8.3} msgs/CPI {:>10} B/CPI  recv {:.3} s",
                e.msgs as f64 / cpis as f64,
                e.bytes_per_cpi,
                e.recv_s
            );
        }
        let mut probes = probes::Probes {
            w,
            inputs,
            spans: SpanLog::default(),
            ledger,
        };
        probes.run_all();
        let mut spans = probes.spans;
        // The harness's own calls into the batch engine.
        for b in plain.iter().chain(&traced) {
            let [built, go, end] = b.marks;
            let root = spans.record("tcp_batch", "harness", built, end, None, None);
            spans.record("rendezvous", "stap-mp", built, go, Some(root), None);
            spans.record("run_rank", "stap-pipeline", go, end, Some(root), None);
        }
        record_parallel_efficiency(w, throughput, ledger);
        write_trace(w, &spans, ledger);
    }
    Outcome {
        attempted,
        failed,
        correct,
    }
}

/// Each task's busy share of its nodes' time, and the busiest task (eq. 1:
/// it alone sets the throughput).
fn record_busy(ledger: &mut Ledger, busy_frac: [f64; 7]) {
    let mut busiest = 0;
    for (t, &frac) in busy_frac.iter().enumerate() {
        ledger.set(&format!("stap-pipeline.busy_frac_t{t}"), frac);
        if frac > busy_frac[busiest] {
            busiest = t;
        }
    }
    println!("bottleneck: task {busiest} ({})", TASK_NAMES[busiest]);
    ledger.set("stap-pipeline.bottleneck_task", busiest as f64);
}

/// Throughput against what `min(nproc, ranks)` perfectly used cores would
/// give the single-threaded reference.
fn record_parallel_efficiency(w: &Workload, throughput: f64, ledger: &mut Ledger) {
    let seq_s = ledger.get("stap-core.seq_cpi_ms").expect("probed") / 1e3;
    let ranks = w.nodes.iter().sum::<usize>();
    ledger.set(
        "stap-pipeline.parallel_efficiency",
        throughput * seq_s / host::nproc().min(ranks) as f64,
    );
}

/// Exact counts from `stap-core::{flops, volumes}` and the assignment:
/// computed, not measured.
fn computed_metrics(w: &Workload, ledger: &mut Ledger) {
    let p = w.geometry.params();
    let complex = volumes::doppler_to_easy_weight(&p)
        + volumes::doppler_to_hard_weight(&p)
        + volumes::doppler_to_easy_bf(&p)
        + volumes::doppler_to_hard_bf(&p)
        + volumes::easy_weight_to_easy_bf(&p)
        + volumes::hard_weight_to_hard_bf(&p)
        + volumes::easy_bf_to_pc(&p)
        + volumes::hard_bf_to_pc(&p)
        + (p.k_range * p.j_channels * p.n_pulses) as u64;
    // Host encoding: 16 bytes per complex sample, 8 per real one.
    let bytes = 16 * complex + 8 * volumes::pc_to_cfar_real(&p);
    ledger.set("stap-mp.bytes_per_cpi", bytes as f64);
    // Every edge is all-to-all between its two tasks' nodes; a slot of
    // several CPIs shares one set of messages.
    let n = w.nodes;
    let edges = [
        n[0],
        n[0] * n[1],
        n[0] * n[2],
        n[0] * n[3],
        n[0] * n[4],
        n[1] * n[3],
        n[2] * n[4],
        n[3] * n[5],
        n[4] * n[5],
        n[5] * n[6],
        n[6],
    ];
    let per_slot = edges.iter().sum::<usize>() as f64;
    let cpis_per_slot = ledger.get("stap-pipeline.cpis_per_slot").unwrap_or(1.0);
    ledger.set("stap-mp.msgs_per_cpi", per_slot / cpis_per_slot.max(1.0));
}

/// Writes the Chrome trace and prints the per-layer self-time table.
fn write_trace(w: &Workload, spans: &SpanLog, ledger: &mut Ledger) {
    ledger.set("harness.traced_spans", spans.spans.len() as f64);
    println!("-- self time per layer and span (span minus what its children cover)");
    println!(
        "{:<14} {:<14} {:>9} {:>12} {:>12}",
        "layer", "span", "count", "total s", "self s"
    );
    for row in spans.self_time_table() {
        println!(
            "{:<14} {:<14} {:>9} {:>12.6} {:>12.6}",
            row.layer, row.name, row.count, row.total_s, row.self_s
        );
    }
    let path = format!("{OUT_DIR}/trace_{}.json", w.name);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, spans.chrome_trace().to_string_compact()));
    match written {
        Ok(()) => println!("trace: {} spans -> {path}", spans.spans.len()),
        Err(e) => panic!("cannot write {path}: {e}"),
    }
}

// ------------------------------------------------- --all and --selfcheck

struct ChildResult {
    ok: bool,
    /// The child's end-to-end metrics by name.
    metrics: Vec<(String, f64)>,
}

/// Re-executes this program for one workload, so that `VmHWM` is that
/// workload's own. The child's output is passed through.
fn run_child(w: &Workload, args: &Args) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.stderr(std::process::Stdio::inherit()).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let metrics = text
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|j| match j.get("metrics") {
            Some(Json::Obj(pairs)) => Some(
                pairs
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect(),
            ),
            _ => None,
        })
        .unwrap_or_default();
    Some(ChildResult {
        ok: out.status.success(),
        metrics,
    })
}

/// The A/A gate: the same tree measured twice must agree within the
/// bounds `BENCHMARK.json` sets, on every end-to-end metric and workload.
fn selfcheck(args: &Args) -> ExitCode {
    let bounds = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(doc) => match doc.get("end_to_end") {
            Some(Json::Arr(items)) => items.clone(),
            _ => Vec::new(),
        },
        Err(e) => {
            eprintln!("selfcheck reads BENCHMARK.json in the current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_ok = true;
    let mut report = Vec::new();
    for w in &WORKLOADS {
        let (Some(a), Some(b)) = (run_child(w, args), run_child(w, args)) else {
            eprintln!("{}: cannot re-execute", w.name);
            return ExitCode::FAILURE;
        };
        all_ok &= a.ok && b.ok;
        for m in &bounds {
            let (Some(Json::Str(name)), Some(Json::Str(better)), Some(bound)) = (
                m.get("name"),
                m.get("better"),
                m.get("bound").and_then(Json::as_f64),
            ) else {
                continue;
            };
            let find = |r: &ChildResult| r.metrics.iter().find(|x| &x.0 == name).map(|x| x.1);
            let (Some(va), Some(vb)) = (find(&a), find(&b)) else {
                report.push(format!("{:<18} {name:<18} missing", w.name));
                all_ok = false;
                continue;
            };
            // Either run may be the "parent": the difference against the
            // better of the two.
            let best = if better == "lower" {
                va.min(vb)
            } else {
                va.max(vb)
            };
            let change = (va - vb).abs() / best.abs();
            let within = change <= bound;
            all_ok &= within || args.quick;
            report.push(format!(
                "{:<18} {name:<18} {va:>14.4} {vb:>14.4} {:>7.2} % (bound {:.0} %) {}",
                w.name,
                change * 100.0,
                bound * 100.0,
                if within {
                    "ok"
                } else if args.quick {
                    "over (ungated)"
                } else {
                    "OVER"
                }
            ));
        }
    }
    println!("== selfcheck: two runs of the same tree");
    for line in report {
        println!("{line}");
    }
    if all_ok {
        println!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck FAILED");
        ExitCode::FAILURE
    }
}
