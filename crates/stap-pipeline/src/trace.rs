//! Pipeline timelines: the one per-slot span record, comm spans,
//! exporters.
//!
//! A [`TaskSpan`] is one task node's receive/compute/send span for one
//! slot, and it is the only per-slot phase record on either side of the
//! paper's measured-vs-modelled comparison. Every task node of a run
//! over a CPI list, and of any traced session, pushes one per slot; the
//! batch aggregates ([`PipelineTimings::tasks`]) are folded from them.
//! The simulator (`stap_sim::simulate_traced`) pushes the same record
//! for the model. A traced run also records every rank's send / recv /
//! wait / redistribute events with `(peer, tag, bytes)` attribution, all
//! against the session's one trace epoch — on a batch and on a served
//! session alike. A served session returns the spans and events on its
//! [`crate::SessionSummary`]; a batch's [`PipelineTrace`] merges both,
//! with the driver's CPI marks, into one timeline, which this module
//! exports four ways:
//!
//! * [`chrome_trace_json`] — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` or Perfetto (`ui.perfetto.dev`),
//! * [`render_gantt`] — the paper's Figure 3 as an ASCII Gantt chart,
//!   measured or modelled,
//! * [`render_breakdown`] — a flamegraph-style per-task text view plus
//!   paper-style tables (per-task compute, per-edge communication, CPI
//!   throughput and end-to-end latency — the Tables 2–8 shape),
//! * [`TraceStats`] — the per-edge message/byte aggregation the
//!   measured-vs-modeled reconciliation in `stap-sim` consumes.

use crate::assignment::{NodeAssignment, TASK_NAMES};
use crate::metrics::{PipelineTimings, TaskTiming};
use crate::msg::{cpi_of_tag, edge_of_tag, EDGE_NAMES, NUM_EDGES};
use stap_mp::{RankTrace, TraceKind};
use stap_util::Json;
use std::fmt::Write as _;

/// One task node's receive/compute/send span for one slot, in seconds:
/// since the trace epoch on a traced run, since the session's start on
/// an untraced one, and simulated seconds from the model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskSpan {
    /// Task index (paper numbering, 0..7).
    pub task: usize,
    /// Node within the task.
    pub node: usize,
    /// CPI (slot) index.
    pub cpi: usize,
    /// Span start (receive begin).
    pub start: f64,
    /// Receive end / compute begin.
    pub recv_end: f64,
    /// Compute end / send begin.
    pub comp_end: f64,
    /// Send end.
    pub send_end: f64,
}

impl TaskSpan {
    /// The span's phase lengths as a runtime node measures them: its
    /// receive phase is all blocked waiting, so `recv_idle` is `recv`.
    pub fn timing(&self) -> TaskTiming {
        let recv = self.recv_end - self.start;
        TaskTiming {
            recv,
            comp: self.comp_end - self.recv_end,
            send: self.send_end - self.comp_end,
            recv_idle: recv,
        }
    }
}

/// Driver-side CPI lifetime marker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpiMark {
    /// CPI index.
    pub cpi: usize,
    /// When the driver injected the CPI's input slabs.
    pub inject_s: f64,
    /// When the driver collected the CPI's detections.
    pub complete_s: f64,
}

/// The timeline of one traced pipeline run, measured or modelled.
#[derive(Clone, Debug)]
pub struct PipelineTrace {
    /// Node assignment of the run (maps ranks to (task, node)).
    pub assign: NodeAssignment,
    /// Number of CPIs processed.
    pub num_cpis: usize,
    /// Every task node's per-CPI spans.
    pub tasks: Vec<TaskSpan>,
    /// Every rank's communication events (from the `stap-mp` recorder;
    /// empty for the model).
    pub comm: Vec<RankTrace>,
    /// Driver-side CPI inject/complete markers.
    pub cpis: Vec<CpiMark>,
}

/// Per-edge communication aggregation of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EdgeStat {
    /// Messages sent on this edge over the whole run.
    pub msgs: u64,
    /// Total wire bytes sent on this edge over the whole run.
    pub total_bytes: u64,
    /// Steady-state per-CPI wire bytes: the maximum over CPIs of the
    /// edge's per-CPI byte sum (warmup/drain CPIs carry partial
    /// traffic; the steady state carries the full redistribution).
    pub bytes_per_cpi: u64,
    /// Total seconds receivers spent inside receives on this edge.
    pub recv_s: f64,
}

/// Aggregated per-edge statistics (the reconciliation input).
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Per-edge stats, indexed by `Edge as usize`.
    pub edges: [EdgeStat; NUM_EDGES],
}

impl TraceStats {
    /// Aggregates the comm events of `trace`.
    pub fn from_trace(trace: &PipelineTrace) -> TraceStats {
        let mut edges = [EdgeStat::default(); NUM_EDGES];
        // bytes per (edge, cpi), to find the steady-state maximum.
        let mut per_cpi: Vec<std::collections::HashMap<usize, u64>> =
            vec![std::collections::HashMap::new(); NUM_EDGES];
        for rt in &trace.comm {
            for ev in &rt.events {
                let e = edge_of_tag(ev.tag);
                if e >= NUM_EDGES || cpi_of_tag(ev.tag) >= trace.num_cpis {
                    // Out-of-scheme tag, or a shutdown frame
                    // (tagged with the slot after the last CPI).
                    continue;
                }
                match ev.kind {
                    TraceKind::Send => {
                        edges[e].msgs += 1;
                        edges[e].total_bytes += ev.bytes;
                        *per_cpi[e].entry(cpi_of_tag(ev.tag)).or_insert(0) += ev.bytes;
                    }
                    TraceKind::Recv => edges[e].recv_s += ev.end_s - ev.start_s,
                    TraceKind::Wait | TraceKind::Redistribute => {}
                }
            }
        }
        for (e, m) in per_cpi.iter().enumerate() {
            edges[e].bytes_per_cpi = m.values().copied().max().unwrap_or(0);
        }
        TraceStats { edges }
    }

    /// Steady-state per-CPI bytes per edge (reconciliation input).
    pub fn bytes_per_cpi(&self) -> [u64; NUM_EDGES] {
        let mut out = [0u64; NUM_EDGES];
        for (o, e) in out.iter_mut().zip(&self.edges) {
            *o = e.bytes_per_cpi;
        }
        out
    }
}

const US: f64 = 1e6; // seconds -> microseconds (Chrome trace unit)

/// Chrome trace-event JSON for `trace`.
///
/// Layout: one *process* per task (pid 0–6, named from
/// [`TASK_NAMES`]) plus pid 7 for the driver. Task phases (recv /
/// compute / send) are `ph: "X"` complete events on `tid = node`;
/// communication events ride on `tid = 1000 + node` so they render as a
/// separate track under the same process; driver CPI lifetimes are
/// `cpi N` spans on pid 7. Load the file in `chrome://tracing` or
/// Perfetto.
pub fn chrome_trace_json(trace: &PipelineTrace) -> Json {
    let mut events: Vec<Json> = Vec::new();
    // Process-name metadata: seven tasks + the driver.
    for (t, name) in TASK_NAMES.iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(t as f64)),
            (
                "args",
                Json::obj([("name", Json::Str(format!("task {t} {name}")))]),
            ),
        ]));
    }
    events.push(Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Num(7.0)),
        ("args", Json::obj([("name", Json::Str("driver".into()))])),
    ]));
    // Task phase spans.
    for s in &trace.tasks {
        for (name, t0, t1) in [
            ("recv", s.start, s.recv_end),
            ("compute", s.recv_end, s.comp_end),
            ("send", s.comp_end, s.send_end),
        ] {
            if t1 < t0 {
                continue;
            }
            events.push(complete_event(
                name,
                "task",
                s.task,
                s.node as f64,
                t0,
                t1,
                [("cpi", Json::Num(s.cpi as f64))],
            ));
        }
    }
    // Communication events, attributed to the owning task's process.
    for rt in &trace.comm {
        let (pid, node) = match trace.assign.task_of_rank(rt.rank) {
            Some((t, n)) => (t, n),
            None => (7, 0), // driver
        };
        for ev in &rt.events {
            // Every pipeline tag names an edge; skip anything else, as
            // the per-edge ledger above does.
            let Some(edge) = EDGE_NAMES.get(edge_of_tag(ev.tag)) else {
                continue;
            };
            events.push(complete_event(
                ev.kind.name(),
                "comm",
                pid,
                1000.0 + node as f64,
                ev.start_s,
                ev.end_s,
                [
                    ("edge", Json::Str((*edge).into())),
                    ("peer", Json::Num(ev.peer as f64)),
                    ("bytes", Json::Num(ev.bytes as f64)),
                ],
            ));
        }
    }
    // Driver CPI lifetimes.
    for m in &trace.cpis {
        events.push(complete_event(
            &format!("cpi {}", m.cpi),
            "cpi",
            7,
            0.0,
            m.inject_s,
            m.complete_s,
            [("cpi", Json::Num(m.cpi as f64))],
        ));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

fn complete_event<const N: usize>(
    name: &str,
    cat: &str,
    pid: usize,
    tid: f64,
    t0: f64,
    t1: f64,
    args: [(&str, Json); N],
) -> Json {
    Json::obj([
        ("name", Json::Str(name.into())),
        ("cat", Json::Str(cat.into())),
        ("ph", Json::Str("X".into())),
        ("pid", Json::Num(pid as f64)),
        ("tid", Json::Num(tid)),
        ("ts", Json::Num(t0 * US)),
        ("dur", Json::Num((t1 - t0).max(0.0) * US)),
        ("args", Json::obj(args)),
    ])
}

/// Renders an ASCII Gantt chart of the first `max_cpis` CPIs of a
/// measured or modelled timeline — the picture behind the paper's
/// Figure 3: one row per task (node 0 shown — all nodes of a task run
/// in near lockstep), with `r`/`s` marking receive and send time and
/// digits marking which CPI is being computed, so the pipeline's
/// staggered execution, idle waits and bottleneck pacing show at a
/// glance.
pub fn render_gantt(trace: &PipelineTrace, max_cpis: usize, columns: usize) -> String {
    let spans: Vec<&TaskSpan> = (trace.tasks.iter())
        .filter(|s| s.node == 0 && s.cpi < max_cpis)
        .collect();
    let t_end = (spans.iter())
        .map(|s| s.send_end)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let scale = columns as f64 / t_end;
    let mut out = String::new();
    writeln!(
        out,
        "timeline of node 0 of each task, first {max_cpis} CPIs ({t_end:.3} s across {columns} cols)"
    )
    .unwrap();
    writeln!(
        out,
        "legend: digit = CPI index during compute, 'r' = receive/wait, 's' = send/pack"
    )
    .unwrap();
    for (task, task_name) in TASK_NAMES.iter().enumerate() {
        let mut row = vec![' '; columns];
        for s in spans.iter().filter(|s| s.task == task) {
            let col = |t: f64| ((t * scale) as usize).min(columns - 1);
            let digit = char::from_digit((s.cpi % 10) as u32, 10).unwrap();
            for (mark, t0, t1) in [
                ('r', s.start, s.recv_end),
                (digit, s.recv_end, s.comp_end),
                ('s', s.comp_end, s.send_end),
            ] {
                for c in row.iter_mut().take(col(t1)).skip(col(t0)) {
                    *c = mark;
                }
            }
        }
        let line: String = row.into_iter().collect();
        writeln!(out, "{task_name:<15}|{line}|").unwrap();
    }
    out
}

/// Flamegraph-style per-task breakdown plus paper-style tables.
///
/// Three sections, mirroring how the paper reports its evaluation:
/// per-task compute (Tables 2–4 shape: recv / comp / send / idle per
/// CPI), per-edge communication (Tables 5–8 shape: messages and bytes
/// per CPI, receive time) and the pipeline rates (throughput, latency).
pub fn render_breakdown(trace: &PipelineTrace, timings: &PipelineTimings) -> String {
    let stats = TraceStats::from_trace(trace);
    let mut out = String::new();
    writeln!(
        out,
        "measured pipeline timeline — {} CPIs on {:?} ({} ranks + driver)",
        trace.num_cpis,
        trace.assign.0,
        trace.assign.total()
    )
    .unwrap();

    // --- flamegraph-style per-task bars (mean per CPI per node) -----------
    writeln!(
        out,
        "\nper-task time per CPI (r = recv wait+unpack, c = compute, s = send/pack)"
    )
    .unwrap();
    let widest = timings
        .tasks
        .iter()
        .map(TaskTiming::total)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    const COLS: usize = 44;
    let names = TASK_NAMES.iter().map(|n| n.len()).max().unwrap_or(0);
    for (t, name) in TASK_NAMES.iter().enumerate() {
        let tt = &timings.tasks[t];
        let cols = |x: f64| ((x / widest) * COLS as f64).round() as usize;
        let bar: String = std::iter::repeat_n('r', cols(tt.recv))
            .chain(std::iter::repeat_n('c', cols(tt.comp)))
            .chain(std::iter::repeat_n('s', cols(tt.send)))
            .collect();
        writeln!(
            out,
            "  {name:<names$} |{bar:<COLS$}| {:9.3} ms",
            tt.total() * 1e3
        )
        .unwrap();
    }

    // --- paper-style per-task compute table --------------------------------
    writeln!(out, "\nper-task phase times, mean per CPI per node (ms)").unwrap();
    writeln!(
        out,
        "  {:<names$} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "task", "recv", "comp", "send", "idle", "total"
    )
    .unwrap();
    for (t, name) in TASK_NAMES.iter().enumerate() {
        let tt = &timings.tasks[t];
        writeln!(
            out,
            "  {name:<names$} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            tt.recv * 1e3,
            tt.comp * 1e3,
            tt.send * 1e3,
            tt.recv_idle * 1e3,
            tt.total() * 1e3
        )
        .unwrap();
    }

    // --- per-edge communication table --------------------------------------
    writeln!(
        out,
        "\nper-edge communication (wire bytes in the machine-model encoding)"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<18} {:>6} {:>12} {:>12} {:>10}",
        "edge", "msgs", "bytes/CPI", "total bytes", "recv (ms)"
    )
    .unwrap();
    for (e, name) in EDGE_NAMES.iter().enumerate() {
        let st = &stats.edges[e];
        if st.msgs == 0 {
            continue;
        }
        writeln!(
            out,
            "  {:<18} {:>6} {:>12} {:>12} {:>10.3}",
            name,
            st.msgs,
            st.bytes_per_cpi,
            st.total_bytes,
            st.recv_s * 1e3
        )
        .unwrap();
    }

    // --- pipeline rates -----------------------------------------------------
    writeln!(out, "\npipeline rates (measured on this host)").unwrap();
    writeln!(
        out,
        "  throughput {:.2} CPI/s   end-to-end latency {:.3} ms",
        timings.measured_throughput,
        timings.measured_latency * 1e3
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_mp::CommEvent;

    fn tiny_trace() -> PipelineTrace {
        PipelineTrace {
            assign: NodeAssignment::tiny(),
            num_cpis: 1,
            tasks: vec![TaskSpan {
                task: 0,
                node: 0,
                cpi: 0,
                start: 0.0,
                recv_end: 0.001,
                comp_end: 0.003,
                send_end: 0.004,
            }],
            comm: vec![RankTrace {
                rank: 0,
                events: vec![CommEvent {
                    kind: TraceKind::Send,
                    peer: 1,
                    tag: crate::msg::tag(crate::msg::Edge::DopplerToEasyWt, 0),
                    bytes: 256,
                    start_s: 0.003,
                    end_s: 0.003,
                }],
            }],
            cpis: vec![CpiMark {
                cpi: 0,
                inject_s: 0.0,
                complete_s: 0.005,
            }],
        }
    }

    /// Every task's node 0 staggered one phase behind its predecessor,
    /// each CPI one millisecond-long step behind the last.
    #[test]
    fn gantt_renders_all_tasks() {
        let step = |cpi: usize, task: usize| 1e-3 * (cpi + task) as f64;
        let tasks = (0..4)
            .flat_map(|cpi| (0..7).map(move |task| (cpi, task)))
            .map(|(cpi, task)| TaskSpan {
                task,
                node: 0,
                cpi,
                start: step(cpi, task),
                recv_end: step(cpi, task) + 2e-4,
                comp_end: step(cpi, task) + 8e-4,
                send_end: step(cpi, task) + 1e-3,
            })
            .collect();
        let trace = PipelineTrace {
            tasks,
            ..tiny_trace()
        };
        let g = render_gantt(&trace, 4, 100);
        for name in TASK_NAMES {
            assert!(g.contains(&format!("{name:<15}|")), "missing row {name}");
        }
        assert!(g.contains('0') && g.contains('3'));
        assert!(g.contains('r') && g.contains('s'));
        assert!(g.contains("(0.010 s across 100 cols)"), "{g}");
    }

    #[test]
    fn stats_aggregate_send_bytes_per_edge() {
        let stats = TraceStats::from_trace(&tiny_trace());
        let e = crate::msg::Edge::DopplerToEasyWt as usize;
        assert_eq!(stats.edges[e].msgs, 1);
        assert_eq!(stats.edges[e].bytes_per_cpi, 256);
        assert_eq!(stats.edges[e].total_bytes, 256);
        assert_eq!(stats.bytes_per_cpi()[e], 256);
    }

    #[test]
    fn chrome_json_has_required_shape() {
        let j = chrome_trace_json(&tiny_trace());
        let events = match j.get("traceEvents") {
            Some(Json::Arr(v)) => v,
            other => panic!("traceEvents missing or not an array: {other:?}"),
        };
        // 8 process_name metadata + 3 task phases + 1 comm + 1 cpi.
        assert_eq!(events.len(), 8 + 3 + 1 + 1);
        for ev in events {
            let ph = match ev.get("ph") {
                Some(Json::Str(s)) => s.as_str(),
                _ => panic!("event without ph"),
            };
            assert!(matches!(ph, "M" | "X"), "unexpected phase {ph}");
            if ph == "X" {
                for key in ["name", "cat", "pid", "tid", "ts", "dur", "args"] {
                    assert!(ev.get(key).is_some(), "X event missing {key}");
                }
            }
        }
    }

    #[test]
    fn breakdown_names_tasks_edges_and_rates() {
        let trace = tiny_trace();
        let mut timings = PipelineTimings::default();
        timings.tasks[0] = TaskTiming {
            recv: 0.001,
            comp: 0.002,
            send: 0.001,
            recv_idle: 0.0005,
        };
        timings.measured_throughput = 100.0;
        timings.measured_latency = 0.005;
        let text = render_breakdown(&trace, &timings);
        for name in TASK_NAMES {
            assert!(text.contains(name), "missing task {name}");
        }
        assert!(text.contains("doppler->easy_wt"));
        assert!(text.contains("throughput"));
        assert!(text.contains("latency"));
    }

    /// Every task row of the bar chart opens its bar at one column, and
    /// every task row of the phase table starts its figures at one
    /// column, however long the task's name.
    #[test]
    fn breakdown_aligns_every_task_row() {
        let mut timings = PipelineTimings::default();
        for (t, tt) in timings.tasks.iter_mut().enumerate() {
            *tt = TaskTiming {
                recv: 1e-3 * (t + 1) as f64,
                comp: 2e-3,
                send: 1e-3,
                recv_idle: 5e-4,
            };
        }
        let text = render_breakdown(&tiny_trace(), &timings);
        // The task rows under a section's title (and, for the table, its
        // header), each with the column `at` finds in it.
        let columns = |title: &str, skip: usize, at: fn(&str) -> Option<usize>| {
            let start = text.find(title).expect(title);
            let rows = text[start..].lines().skip(1 + skip).take(TASK_NAMES.len());
            rows.map(at).collect::<Vec<_>>()
        };
        let bars = columns("per-task time per CPI", 0, |l| l.find('|'));
        assert!(bars.iter().all(|c| c.is_some() && *c == bars[0]), "{text}");
        // Every recv figure is `x.000` ms, so they start where the column does.
        let figures = columns("per-task phase times", 1, |l| {
            l.find(|c: char| c.is_ascii_digit())
        });
        assert!(
            figures.iter().all(|c| c.is_some() && *c == figures[0]),
            "{text}"
        );
    }
}
