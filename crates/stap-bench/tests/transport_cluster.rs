//! Cross-transport integration tests for the multi-process cluster
//! launcher: the same canonical configuration must produce bit-identical
//! detections, the same trace event multiset, and the same fault
//! classification whether the ranks are threads over channels (inproc)
//! or separate OS processes over loopback TCP — and a killed rank
//! process must fail its launch promptly and be recovered by the
//! relaunch supervisor.
//!
//! Child ranks re-exec the real `stapctl` binary (Cargo builds it for
//! integration tests and exposes the path via `CARGO_BIN_EXE_stapctl`),
//! so these tests exercise exactly the code path `stapctl cluster` and
//! the CI transport matrix run.

use stap::mp::{TraceKind, TransportKind, CTRL_RESERVED_BASE};
use stap::pipeline::wire::detections_digest;
use stap::pipeline::PipelineOutput;
use stap_bench::cluster::{run_cluster, run_supervised, ClusterConfig, FaultSpec};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn canonical(transport: TransportKind) -> ClusterConfig {
    let mut cfg = ClusterConfig::canonical(transport);
    cfg.exe = PathBuf::from(env!("CARGO_BIN_EXE_stapctl"));
    cfg
}

/// Every test here launches eight rank processes, and the fault
/// campaign classifies by wall-clock deadlines: run at once (cargo's
/// default) they starve each other on a two-core host, so each test
/// holds this lock for its whole body. The lock guards no data, so a
/// test that failed while holding it must not fail the others through
/// poisoning.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The canonical in-process run, computed once for the tests that
/// compare a wire run against it.
fn inproc_baseline() -> &'static PipelineOutput {
    static BASE: OnceLock<PipelineOutput> = OnceLock::new();
    BASE.get_or_init(|| run_cluster(&canonical(TransportKind::InProc)).expect("inproc run"))
}

#[test]
fn detections_bit_identical_across_transports() {
    let _serial = serial();
    let base = inproc_baseline();
    let out = run_cluster(&canonical(TransportKind::Tcp)).expect("tcp run");
    assert_eq!(
        out.detections, base.detections,
        "tcp detections differ from inproc"
    );
    assert_eq!(
        detections_digest(&out.detections),
        detections_digest(&base.detections)
    );
}

/// The application-level trace events — sends and receives of tagged
/// pipeline messages, with their on-wire byte sizes — as a sorted
/// multiset. Wall-clock spans and wait events differ run to run, and
/// control traffic (goodbyes) differs by fabric, but *which*
/// messages flow, between whom, and how many bytes each carries is a
/// deterministic property of the configuration alone.
fn data_event_multiset(out: &PipelineOutput) -> Vec<(usize, u8, usize, u64, u64)> {
    let trace = out.trace.as_ref().expect("tracing enabled");
    let mut events: Vec<(usize, u8, usize, u64, u64)> = trace
        .comm
        .iter()
        .flat_map(|rt| {
            rt.events.iter().filter_map(move |e| {
                let kind = match e.kind {
                    TraceKind::Send => 0u8,
                    TraceKind::Recv => 1,
                    _ => return None,
                };
                (e.tag < CTRL_RESERVED_BASE).then_some((rt.rank, kind, e.peer, e.tag, e.bytes))
            })
        })
        .collect();
    events.sort_unstable();
    events
}

/// Which (task, node, CPI) spans a traced run recorded.
fn span_keys(out: &PipelineOutput) -> Vec<(usize, usize, usize)> {
    let trace = out.trace.as_ref().expect("tracing enabled");
    (trace.tasks.iter())
        .map(|iv| (iv.task, iv.node, iv.span.cpi))
        .collect()
}

/// Also checks that every child's report reached the parent: its spans
/// and its measured compute times.
#[test]
fn trace_event_multiset_deterministic_across_transports() {
    let _serial = serial();
    let mut cfg = canonical(TransportKind::InProc);
    cfg.tracing = true;
    let base = run_cluster(&cfg).expect("inproc run");
    assert!(
        !data_event_multiset(&base).is_empty(),
        "traced run recorded no data events"
    );
    let mut cfg = canonical(TransportKind::Tcp);
    cfg.tracing = true;
    let out = run_cluster(&cfg).expect("tcp run");
    assert_eq!(
        data_event_multiset(&out),
        data_event_multiset(&base),
        "tcp trace event multiset differs from inproc"
    );
    assert_eq!(span_keys(&out), span_keys(&base), "tcp task spans");
    for (t, timing) in out.timings.tasks.iter().enumerate() {
        assert!(timing.comp > 0.0, "task {t} reported no compute time");
    }
}

#[test]
fn fault_classification_parity_across_transports() {
    let _serial = serial();
    let campaign = |transport| {
        let mut cfg = canonical(transport);
        cfg.two_beam = false;
        cfg.cpis = 10;
        cfg.seed = 7;
        cfg.faults = Some(FaultSpec {
            drop_cpi: 2,
            stall_cpi: 6,
        });
        cfg
    };
    let base = run_cluster(&campaign(TransportKind::InProc)).expect("inproc campaign");
    assert_eq!(base.timings.health.degraded_cpis, 3);
    assert_eq!(base.timings.health.dropped_cpis, 1);
    let out = run_cluster(&campaign(TransportKind::Tcp)).expect("tcp campaign");
    assert_eq!(
        out.timings.outcomes, base.timings.outcomes,
        "tcp per-CPI fault classification differs from inproc"
    );
    assert_eq!(out.timings.health.degraded_cpis, 3);
    assert_eq!(out.timings.health.dropped_cpis, 1);
}

#[test]
fn killed_rank_process_is_relaunched_and_completes() {
    let _serial = serial();
    let marker = std::env::temp_dir().join(format!("stap_abort_once_{}", std::process::id()));
    let _ = std::fs::remove_file(&marker);

    // Rank 3 dies on the first launch, before it joins the rendezvous.
    // The supervisor must see the dead process, abort the wire-up the
    // parent's driver is waiting in, tear the world down and relaunch;
    // the relaunched run must still produce the bit-exact canonical
    // detections. The first launch fails well inside the rendezvous
    // timeout (30 s), and a clean launch takes well under a second, so
    // the whole supervised run fits in 5 s (slack-scaled). `run_cluster`
    // joins its coordinator on every path, so a coordinator left in its
    // accept loop would hang the failed launch instead of passing.
    let mut cfg = canonical(TransportKind::Tcp);
    cfg.child_env = vec![(
        "STAP_TEST_ABORT_ONCE".to_string(),
        format!("3:{}", marker.display()),
    )];
    let started = Instant::now();
    let result = run_supervised(&cfg, 2);
    let took = started.elapsed();
    let _ = std::fs::remove_file(&marker);
    let (out, relaunches) = result.expect("supervised run");
    assert_eq!(relaunches, 1, "exactly one relaunch after the rank kill");
    let bound = Duration::from_secs(5).mul_f64(stap_util::ci_slack());
    assert!(
        took < bound,
        "failed launch plus relaunch took {took:?} (bound {bound:?})"
    );

    assert_eq!(
        detections_digest(&out.detections),
        detections_digest(&inproc_baseline().detections),
        "post-recovery detections must match the clean run bit-for-bit"
    );
}
