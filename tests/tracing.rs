//! Integration tests for the measured-timeline tracing subsystem:
//! structural span invariants, run-to-run determinism of the recorded
//! event multiset, tracing transparency (identical detections), the
//! pinned Chrome trace-event schema, and the CI workflow's structural
//! validity (the workflow is data, so it is tested like data).

use stap::pipeline::trace::{chrome_trace_json, CpiMark, PipelineTrace, TaskInterval, TaskSpan};
use stap::pipeline::{NodeAssignment, ParallelStap};
use stap::radar::Scenario;
use stap_util::Json;

fn traced_run(seed: u64, cpis: usize) -> (stap::pipeline::PipelineOutput, PipelineTrace) {
    let scenario = Scenario::reduced(seed);
    let runner = ParallelStap::for_scenario(
        stap::core::StapParams::reduced(),
        NodeAssignment::tiny(),
        &scenario,
    )
    .with_tracing();
    let data: Vec<_> = scenario.stream(cpis).map(|(_, _, c)| c).collect();
    let mut out = runner.run(data);
    let trace = out.trace.take().expect("tracing enabled");
    (out, trace)
}

#[test]
fn task_spans_nest_and_cover_every_cpi() {
    let cpis = 3;
    let (_, trace) = traced_run(11, cpis);
    assert_eq!(trace.num_cpis, cpis);

    // Phase boundaries are ordered within every span (recv ⊂ compute ⊂
    // send partition the span: nesting in the flamegraph sense).
    for iv in &trace.tasks {
        let s = iv.span;
        assert!(
            0.0 <= s.start
                && s.start <= s.recv_end
                && s.recv_end <= s.comp_end
                && s.comp_end <= s.send_end,
            "unordered span {iv:?}"
        );
    }
    // Every task node recorded exactly one span per CPI.
    let assign = NodeAssignment::tiny();
    for t in 0..7 {
        for node in 0..assign.0[t] {
            let mut got: Vec<usize> = trace
                .tasks
                .iter()
                .filter(|iv| iv.task == t && iv.node == node)
                .map(|iv| iv.span.cpi)
                .collect();
            got.sort_unstable();
            assert_eq!(
                got,
                (0..cpis).collect::<Vec<_>>(),
                "task {t} node {node} span coverage"
            );
        }
    }
    // Comm spans are well-formed; driver CPI marks bracket properly and
    // contain their CPI's first task span.
    for rt in &trace.comm {
        for ev in &rt.events {
            assert!(ev.end_s >= ev.start_s, "negative comm span {ev:?}");
        }
    }
    assert_eq!(trace.cpis.len(), cpis);
    for m in &trace.cpis {
        assert!(m.inject_s <= m.complete_s, "inverted CPI mark {m:?}");
    }
    // Every rank (tasks + driver) flushed a comm trace.
    assert_eq!(trace.comm.len(), assign.total() + 1);
}

#[test]
fn event_multiset_is_deterministic_across_seeded_runs() {
    // Thread scheduling may reorder events between runs, but the
    // *multiset* of (rank, kind, peer, tag, bytes) — and hence every
    // per-CPI, per-edge event count — must be identical for identical
    // seeds. Timestamps are excluded: they are the one nondeterministic
    // attribute.
    let key = |trace: &PipelineTrace| -> Vec<(usize, &'static str, usize, u64, u64)> {
        let mut v: Vec<_> = trace
            .comm
            .iter()
            .flat_map(|rt| {
                rt.events
                    .iter()
                    .map(move |e| (rt.rank, e.kind.name(), e.peer, e.tag, e.bytes))
            })
            .collect();
        v.sort_unstable();
        v
    };
    let (out_a, trace_a) = traced_run(7, 4);
    let (out_b, trace_b) = traced_run(7, 4);
    assert_eq!(key(&trace_a), key(&trace_b), "comm event multiset differs");
    assert_eq!(
        trace_a.tasks.len(),
        trace_b.tasks.len(),
        "task span count differs"
    );
    assert_eq!(out_a.detections, out_b.detections, "detections differ");
}

#[test]
fn tracing_does_not_change_detections() {
    let seed = 23;
    let cpis = 3;
    let scenario = Scenario::reduced(seed);
    let data: Vec<_> = scenario.stream(cpis).map(|(_, _, c)| c).collect();
    let untraced = ParallelStap::for_scenario(
        stap::core::StapParams::reduced(),
        NodeAssignment::tiny(),
        &scenario,
    )
    .run(data.clone());
    let (traced, _) = traced_run(seed, cpis);
    assert_eq!(
        untraced.detections, traced.detections,
        "tracing must be observationally transparent"
    );
    assert!(untraced.trace.is_none(), "untraced runs carry no trace");
}

/// Every message the traced run sent is its schedule's: for each CPI,
/// each entry (edge, sender, receiver) is sent exactly once, with the
/// entry's wire bytes on every modeled edge, and nothing else is sent.
#[test]
fn every_traced_message_is_its_schedule_entry() {
    use stap::mp::TraceKind;
    use stap::pipeline::assignment::Partitions;
    use stap::pipeline::msg::{cpi_of_tag, edge_of_tag};
    use stap::pipeline::schedule::{Kind, Schedule};
    use std::collections::BTreeMap;
    let cpis = 3;
    let (_, trace) = traced_run(5, cpis);
    let p = stap::core::StapParams::reduced();
    let schedule = Schedule::new(&p, &trace.assign, Partitions::new(&p, &trace.assign)).unwrap();
    // (edge, sender, receiver, cpi) -> (messages, bytes)
    let mut sent: BTreeMap<(usize, usize, usize, usize), (usize, u64)> = BTreeMap::new();
    for rt in &trace.comm {
        for ev in rt.events.iter().filter(|ev| ev.kind == TraceKind::Send) {
            if cpi_of_tag(ev.tag) < cpis {
                let key = (edge_of_tag(ev.tag), rt.rank, ev.peer, cpi_of_tag(ev.tag));
                let slot = sent.entry(key).or_default();
                *slot = (slot.0 + 1, slot.1 + ev.bytes);
            }
        }
    }
    for e in schedule.entries() {
        for cpi in 0..cpis {
            let key = (e.edge as usize, e.src, e.dst, cpi);
            let (msgs, bytes) = sent.remove(&key).unwrap_or_default();
            assert_eq!(msgs, 1, "{e:?} at CPI {cpi}");
            if e.kind != Kind::Detections {
                assert_eq!(bytes, e.bytes_per_cpi(), "{e:?} at CPI {cpi}");
            }
        }
    }
    assert!(sent.is_empty(), "messages outside the schedule: {sent:?}");
}

// ---------------------------------------------------------------------
// Golden: the Chrome trace-event schema. These strings are what
// Perfetto / chrome://tracing parse; field names, phase letters and the
// pid/tid layout are pinned exactly so exporter drift is caught here,
// not in a browser.
// ---------------------------------------------------------------------

fn synthetic_trace() -> PipelineTrace {
    use stap::mp::{CommEvent, RankTrace, TraceKind};
    use stap::pipeline::msg::{tag, Edge};
    // Times are exact binary fractions so µs values render as integers.
    PipelineTrace {
        assign: NodeAssignment::tiny(),
        num_cpis: 1,
        tasks: vec![TaskInterval {
            task: 0,
            node: 0,
            span: TaskSpan {
                cpi: 0,
                start: 0.25,
                recv_end: 0.5,
                comp_end: 0.75,
                send_end: 1.0,
            },
        }],
        comm: vec![RankTrace {
            rank: 0,
            events: vec![CommEvent {
                kind: TraceKind::Send,
                peer: 1,
                tag: tag(Edge::DopplerToEasyWt, 0),
                bytes: 256,
                start_s: 0.5,
                end_s: 0.5,
            }],
        }],
        cpis: vec![CpiMark {
            cpi: 0,
            inject_s: 0.0,
            complete_s: 1.0,
        }],
    }
}

#[test]
fn golden_chrome_trace_event_schema() {
    let j = chrome_trace_json(&synthetic_trace());
    let events = match j.get("traceEvents") {
        Some(Json::Arr(v)) => v,
        other => panic!("traceEvents missing: {other:?}"),
    };
    // 8 process metadata + 3 task phases + 1 comm + 1 cpi mark.
    assert_eq!(events.len(), 13);

    // Top-level envelope.
    let top = j.to_string_compact();
    assert!(
        top.starts_with(r#"{"traceEvents":["#),
        "envelope: {top:.40}"
    );
    assert!(
        top.ends_with(r#"],"displayTimeUnit":"ms"}"#),
        "envelope tail"
    );

    // Process-name metadata (ph "M").
    assert_eq!(
        events[0].to_string_compact(),
        r#"{"name":"process_name","ph":"M","pid":0,"args":{"name":"task 0 Doppler filter"}}"#
    );
    assert_eq!(
        events[7].to_string_compact(),
        r#"{"name":"process_name","ph":"M","pid":7,"args":{"name":"driver"}}"#
    );

    // Task phase complete events (ph "X", tid = node).
    assert_eq!(
        events[8].to_string_compact(),
        r#"{"name":"recv","cat":"task","ph":"X","pid":0,"tid":0,"ts":250000,"dur":250000,"args":{"cpi":0}}"#
    );
    assert_eq!(
        events[10].to_string_compact(),
        r#"{"name":"send","cat":"task","ph":"X","pid":0,"tid":0,"ts":750000,"dur":250000,"args":{"cpi":0}}"#
    );

    // Comm event: same process as the owning task, tid = 1000 + node.
    assert_eq!(
        events[11].to_string_compact(),
        r#"{"name":"send","cat":"comm","ph":"X","pid":0,"tid":1000,"ts":500000,"dur":0,"args":{"edge":"doppler->easy_wt","peer":1,"bytes":256}}"#
    );

    // Driver CPI lifetime on pid 7.
    assert_eq!(
        events[12].to_string_compact(),
        r#"{"name":"cpi 0","cat":"cpi","ph":"X","pid":7,"tid":0,"ts":0,"dur":1000000,"args":{"cpi":0}}"#
    );
}

// ---------------------------------------------------------------------
// CI workflow validity. The workspace is hermetic (no YAML crate), so
// this is a YAML-lite structural check: indentation discipline plus the
// semantic anchors the workflow must keep (the check.sh stages).
// ---------------------------------------------------------------------

fn repo_file(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn ci_workflow_is_structurally_valid() {
    let text = repo_file(".github/workflows/ci.yml");

    // Indentation discipline: no tabs, even indents, and outside of
    // literal blocks every line is a mapping entry or a list item.
    let mut literal_indent: Option<usize> = None;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        assert!(!line.contains('\t'), "ci.yml:{n}: tab character");
        if line.trim().is_empty() {
            continue;
        }
        let indent = line.len() - line.trim_start().len();
        if let Some(li) = literal_indent {
            if indent > li {
                continue; // body of a `|` literal block: free-form
            }
            literal_indent = None;
        }
        assert_eq!(indent % 2, 0, "ci.yml:{n}: odd indent {indent}");
        let t = line.trim_start();
        if t.starts_with('#') {
            continue;
        }
        let body = t.strip_prefix("- ").unwrap_or(t);
        assert!(
            body.split_once(':').is_some_and(|(k, v)| {
                !k.is_empty()
                    && k.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_-.${}() ".contains(c))
                    && (v.is_empty() || v.starts_with(' '))
            }) || t.starts_with("- "),
            "ci.yml:{n}: not a mapping entry or list item: {t:?}"
        );
        if body.trim_end().ends_with(": |") {
            literal_indent = Some(indent);
        }
    }

    // Semantic anchors: the fixed jobs plus the matrixed smoke job —
    // the smoke stages live in one `smoke:` job whose matrix entries
    // name their check.sh stages, artifact and transport.
    for job in ["lint:", "build-test:", "scalar-fallback:", "smoke:"] {
        assert!(text.contains(job), "missing job {job}");
    }
    assert!(text.contains("jobs:"));
    for key in ["strategy:", "matrix:", "include:"] {
        assert!(text.contains(key), "smoke job must be matrixed ({key})");
    }
    for entry in [
        "- name: fault-smoke",
        "- name: benchmark-smoke",
        "- name: trace-smoke",
        "- name: serve-smoke",
        "- name: assign-smoke",
        "- name: chaos-smoke",
        "- name: transport-smoke-tcp",
    ] {
        assert!(text.contains(entry), "missing matrix entry {entry:?}");
    }
    // The fault smoke is gated three times per push (check.sh --repeat).
    let fault_entry = text
        .split("- name: fault-smoke")
        .nth(1)
        .and_then(|rest| rest.split("- name:").next())
        .expect("fault-smoke entry");
    assert!(
        fault_entry.contains("repeat: \"3\""),
        "fault-smoke runs stage 5 three times: {fault_entry}"
    );
    assert!(
        text.contains("--repeat \"${{ matrix.repeat || 1 }}\""),
        "the smoke step passes each entry's repeat count"
    );
    // The transport entry runs the wire backend.
    assert!(text.contains("transport: tcp"), "tcp transport entry");
    // Wall-clock gates are slack-scaled on shared runners — in CI only.
    assert!(
        text.contains("STAP_CI_SLACK:"),
        "workflow sets the CI slack multiplier"
    );

    // Stage coverage: every check.sh stage is run somewhere — either as
    // a literal `--stage N` step or via a matrix entry's `stages:` list.
    let mut covered = std::collections::BTreeSet::new();
    for line in text.lines() {
        let t = line.trim();
        if let Some(rest) = t.split("scripts/check.sh --stage ").nth(1) {
            if let Ok(n) = rest.trim().parse::<u32>() {
                covered.insert(n);
            }
        }
        if let Some(list) = t
            .strip_prefix("stages:")
            .map(|v| v.trim().trim_matches('"'))
        {
            for part in list.split_whitespace() {
                if let Ok(n) = part.parse::<u32>() {
                    covered.insert(n);
                }
            }
        }
    }
    for stage in 1..=12 {
        assert!(
            covered.contains(&stage),
            "workflow must run check.sh stage {stage} (covered: {covered:?})"
        );
    }
    assert!(text.contains("actions/checkout@v4"));
    assert!(text.contains("actions/cache@v4"));
    assert!(text.contains("actions/upload-artifact@v4"));
    assert!(
        text.contains("hashFiles('Cargo.lock')"),
        "cache keyed on the lockfile"
    );
}

#[test]
fn check_script_stage_list_matches_workflow() {
    let script = repo_file("scripts/check.sh");
    assert!(
        script.contains("NUM_STAGES=12"),
        "check.sh declares 12 stages"
    );
    for anchor in [
        "rustfmt",
        "clippy",
        "fault smoke",
        "benchmark smoke",
        "trace smoke",
        "scalar fallback",
        "serve smoke",
        "assign smoke",
        "chaos smoke",
        "transport parity",
        "STAP_TRANSPORT",
    ] {
        assert!(script.contains(anchor), "check.sh names stage {anchor:?}");
    }
    assert!(
        script.contains("--stage"),
        "check.sh supports single-stage selection"
    );
    assert!(
        script.contains("--repeat") && script.contains("passed\""),
        "check.sh supports the repeat (flake-gate) mode"
    );
}
