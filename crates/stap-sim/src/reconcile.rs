//! Measured-vs-modeled reconciliation.
//!
//! The paper's evaluation is a dialogue between two columns: what the
//! Paragon actually did (Tables 2–8) and what the analytical model said
//! it would do (equations (1)–(3), Table 9–10). This module replays
//! that dialogue for the *reproduction*: it takes a traced host run of
//! the real pipeline (per-task compute from [`PipelineTimings`],
//! per-edge wire bytes from the communication trace) and the simulator
//! run of the *same configuration*, and lines them up row by row.
//!
//! Two very different kinds of agreement are being checked:
//!
//! * **Bytes must match exactly.** The runtime traces messages in the
//!   Paragon encoding (8 bytes per complex sample, 4 per real — see
//!   `stap_pipeline::msg::wire_bytes`), and the loops and the model
//!   both read their messages from one `stap_pipeline::Schedule`. A
//!   modeled edge whose measured bytes differ from the model's at all
//!   means a loop sent something its schedule does not say, so it is
//!   flagged.
//! * **Compute matches only up to a machine constant.** The host is
//!   not an i860; absolute task times are off by a large, roughly
//!   common factor. So task rows are judged *relative to the median
//!   host/model ratio*: a task whose ratio deviates more than 2x from
//!   the median is flagged as disproportionately slow (or fast)
//!   compared to its siblings — the signal that one kernel's
//!   implementation quality diverges from the others'.
//!
//! Throughput and latency rows are informational (they inherit the
//! machine constant and the scheduling differences) and never flagged.

use crate::des::{modeled_edge_bytes, simulate, SimConfig};
use stap_pipeline::assignment::TASK_NAMES;
use stap_pipeline::metrics::PipelineTimings;
use stap_pipeline::msg::{EDGE_NAMES, NUM_EDGES};
use stap_util::Json;

/// One reconciliation row: a measured quantity next to its modeled
/// counterpart.
#[derive(Debug, Clone)]
pub struct ReconRow {
    /// Row label (task name, edge name, or rate name).
    pub name: &'static str,
    /// Host-measured value.
    pub measured: f64,
    /// Model-predicted value.
    pub modeled: f64,
    /// `measured / modeled`. `NaN` when the model has nothing to say
    /// (the unmodeled output edge, or a zero-valued denominator).
    pub ratio: f64,
    /// True when the row diverges beyond its tolerance (see module
    /// docs for the per-section rules).
    pub flagged: bool,
}

/// The full measured-vs-modeled report.
#[derive(Debug, Clone)]
pub struct Reconciliation {
    /// Per-task compute seconds per CPI (flagged >2x from the median
    /// host/model ratio).
    pub tasks: Vec<ReconRow>,
    /// Per-edge wire bytes per CPI (flagged unless measured equals
    /// modeled).
    pub edges: Vec<ReconRow>,
    /// Throughput / latency (informational, never flagged).
    pub rates: Vec<ReconRow>,
    /// Median of the per-task host/model compute ratios — the
    /// machine-speed constant the task flags are judged against.
    pub median_task_ratio: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.retain(|x| x.is_finite());
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn ratio_of(measured: f64, modeled: f64) -> f64 {
    if modeled > 0.0 {
        measured / modeled
    } else {
        f64::NAN
    }
}

/// Reconciles a traced host run against the simulator's prediction for
/// the same configuration.
///
/// * `measured` — the host run's per-task phase times and rates.
/// * `measured_edge_bytes` — per-edge wire bytes for one steady-state
///   CPI, as aggregated from the communication trace
///   (`stap_pipeline::TraceStats::bytes_per_cpi`).
/// * `cfg` — the simulator configuration mirroring the host run; the
///   simulation itself is run in here.
pub fn reconcile(
    measured: &PipelineTimings,
    measured_edge_bytes: &[u64; NUM_EDGES],
    cfg: &SimConfig,
) -> Reconciliation {
    let sim = simulate(cfg);
    let modeled_bytes = modeled_edge_bytes(cfg);

    // Per-task compute, judged against the median host/model ratio.
    let ratios: Vec<f64> = (0..7)
        .map(|t| ratio_of(measured.tasks[t].comp, sim.tasks[t].comp))
        .collect();
    let med = median(ratios.clone());
    let tasks = (0..7)
        .map(|t| {
            let r = ratios[t];
            let flagged =
                med.is_finite() && med > 0.0 && r.is_finite() && (r > 2.0 * med || r < 0.5 * med);
            ReconRow {
                name: TASK_NAMES[t],
                measured: measured.tasks[t].comp,
                modeled: sim.tasks[t].comp,
                ratio: r,
                flagged,
            }
        })
        .collect();

    // Per-edge bytes: an exact match on every modeled edge.
    let edges = (0..NUM_EDGES)
        .map(|e| {
            let m = measured_edge_bytes[e] as f64;
            let p = modeled_bytes[e] as f64;
            let r = ratio_of(m, p);
            // The output edge is unmodeled (modeled 0): never flag it.
            // A modeled-but-unmeasured edge *is* a divergence.
            let flagged = p > 0.0 && measured_edge_bytes[e] != modeled_bytes[e];
            ReconRow {
                name: EDGE_NAMES[e],
                measured: m,
                modeled: p,
                ratio: r,
                flagged,
            }
        })
        .collect();

    let rates = vec![
        ReconRow {
            name: "throughput (CPI/s)",
            measured: measured.measured_throughput,
            modeled: sim.eq_throughput,
            ratio: ratio_of(measured.measured_throughput, sim.eq_throughput),
            flagged: false,
        },
        ReconRow {
            name: "latency (s)",
            measured: measured.measured_latency,
            modeled: sim.eq_latency,
            ratio: ratio_of(measured.measured_latency, sim.eq_latency),
            flagged: false,
        },
    ];

    Reconciliation {
        tasks,
        edges,
        rates,
        median_task_ratio: med,
    }
}

impl Reconciliation {
    /// Rows flagged as divergent, across every section.
    pub fn flagged(&self) -> Vec<&ReconRow> {
        self.tasks
            .iter()
            .chain(&self.edges)
            .chain(&self.rates)
            .filter(|r| r.flagged)
            .collect()
    }

    /// JSON rendering (used by `stapctl trace --json`). Non-finite
    /// ratios become `null`.
    pub fn to_json(&self) -> Json {
        fn num(x: f64) -> Json {
            if x.is_finite() {
                Json::Num(x)
            } else {
                Json::Null
            }
        }
        fn rows(rs: &[ReconRow]) -> Json {
            Json::arr(rs.iter().map(|r| {
                Json::obj([
                    ("name", Json::Str(r.name.to_string())),
                    ("measured", num(r.measured)),
                    ("modeled", num(r.modeled)),
                    ("ratio", num(r.ratio)),
                    ("flagged", Json::Bool(r.flagged)),
                ])
            }))
        }
        Json::obj([
            ("median_task_ratio", num(self.median_task_ratio)),
            ("tasks", rows(&self.tasks)),
            ("edges", rows(&self.edges)),
            ("rates", rows(&self.rates)),
        ])
    }
}

fn fmt_ratio(r: f64) -> String {
    if r.is_finite() {
        format!("{r:10.3}x")
    } else {
        format!("{:>11}", "-")
    }
}

/// Text rendering of the reconciliation report.
pub fn render_reconciliation(rec: &Reconciliation) -> String {
    let mut s = String::new();
    s.push_str("measured vs modeled reconciliation\n");
    s.push_str(&format!(
        "  median host/model compute ratio: {}\n\n",
        fmt_ratio(rec.median_task_ratio).trim_start()
    ));

    s.push_str("  per-task compute (s/CPI; flag: >2x from median ratio)\n");
    s.push_str(&format!(
        "    {:<10} {:>12} {:>12} {:>11}\n",
        "task", "measured", "modeled", "ratio"
    ));
    for r in &rec.tasks {
        s.push_str(&format!(
            "    {:<10} {:>12.6} {:>12.6} {} {}\n",
            r.name,
            r.measured,
            r.modeled,
            fmt_ratio(r.ratio),
            if r.flagged { "<-- FLAG" } else { "" }
        ));
    }

    s.push_str("\n  per-edge wire bytes per CPI (exact match expected)\n");
    s.push_str(&format!(
        "    {:<18} {:>12} {:>12} {:>11}\n",
        "edge", "measured", "modeled", "ratio"
    ));
    for r in &rec.edges {
        let note = if r.flagged {
            "<-- FLAG"
        } else if r.modeled <= 0.0 {
            "(unmodeled)"
        } else {
            ""
        };
        s.push_str(&format!(
            "    {:<18} {:>12.0} {:>12.0} {} {}\n",
            r.name,
            r.measured,
            r.modeled,
            fmt_ratio(r.ratio),
            note
        ));
    }

    s.push_str("\n  rates (informational; model assumes Paragon speeds)\n");
    for r in &rec.rates {
        s.push_str(&format!(
            "    {:<18} measured {:>12.4}  modeled {:>12.4}  ratio {}\n",
            r.name,
            r.measured,
            r.modeled,
            fmt_ratio(r.ratio).trim_start()
        ));
    }

    let flags = rec.flagged().len();
    if flags == 0 {
        s.push_str("\n  no rows flagged\n");
    } else {
        s.push_str(&format!("\n  {flags} row(s) flagged\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_pipeline::assignment::NodeAssignment;
    use stap_pipeline::metrics::TaskTiming;

    fn measured_matching(cfg: &SimConfig, comp_scale: f64) -> PipelineTimings {
        let sim = simulate(cfg);
        let mut tasks = [TaskTiming::default(); 7];
        for (m, s) in tasks.iter_mut().zip(&sim.tasks) {
            m.comp = s.comp * comp_scale;
            m.recv = s.recv;
            m.send = s.send;
        }
        PipelineTimings {
            tasks,
            measured_throughput: sim.eq_throughput * comp_scale.recip(),
            measured_latency: sim.eq_latency * comp_scale,
            health: Default::default(),
            outcomes: Vec::new(),
            pool_cx: Default::default(),
            pool_real: Default::default(),
        }
    }

    fn cfg() -> SimConfig {
        SimConfig::paper(NodeAssignment::tiny())
    }

    #[test]
    fn uniform_scale_flags_nothing() {
        let cfg = cfg();
        let measured = measured_matching(&cfg, 37.0);
        let edges = modeled_edge_bytes(&cfg);
        let rec = reconcile(&measured, &edges, &cfg);
        assert!(
            (rec.median_task_ratio - 37.0).abs() < 1e-6,
            "median captures the machine constant, got {}",
            rec.median_task_ratio
        );
        assert!(rec.flagged().is_empty(), "uniform scaling is healthy");
        // Every modeled edge matched exactly.
        for e in &rec.edges {
            if e.modeled > 0.0 {
                assert!(
                    (e.ratio - 1.0).abs() < 1e-12,
                    "{} ratio {}",
                    e.name,
                    e.ratio
                );
            }
        }
    }

    #[test]
    fn disproportionate_task_is_flagged() {
        let cfg = cfg();
        let mut measured = measured_matching(&cfg, 10.0);
        measured.tasks[5].comp *= 5.0; // pc now 5x the sibling ratio
        let edges = modeled_edge_bytes(&cfg);
        let rec = reconcile(&measured, &edges, &cfg);
        assert!(rec.tasks[5].flagged, "pc should be flagged");
        assert!(
            rec.tasks
                .iter()
                .enumerate()
                .all(|(t, r)| t == 5 || !r.flagged),
            "only pc is flagged"
        );
    }

    #[test]
    fn divergent_edge_bytes_are_flagged_but_output_is_not() {
        let cfg = cfg();
        let measured = measured_matching(&cfg, 1.0);
        let mut edges = modeled_edge_bytes(&cfg);
        edges[1] *= 3; // doppler->easy_wt ships 3x the modeled bytes
        edges[10] = 640; // output edge carries detections (unmodeled)
        let rec = reconcile(&measured, &edges, &cfg);
        assert!(rec.edges[1].flagged, "3x edge divergence flagged");
        assert!(!rec.edges[10].flagged, "unmodeled output edge never flags");
        assert!(rec.edges[10].ratio.is_nan());
    }

    #[test]
    fn report_renders_all_tasks_edges_and_roundtrips_json() {
        let cfg = cfg();
        let measured = measured_matching(&cfg, 20.0);
        let edges = modeled_edge_bytes(&cfg);
        let rec = reconcile(&measured, &edges, &cfg);
        let text = render_reconciliation(&rec);
        for t in TASK_NAMES {
            assert!(text.contains(t), "missing task {t}");
        }
        for e in EDGE_NAMES {
            assert!(text.contains(e), "missing edge {e}");
        }
        assert!(text.contains("no rows flagged"));
        let js = rec.to_json().to_string_compact();
        let back = Json::parse(&js).expect("valid JSON");
        let arr_len = |j: &Json| match j {
            Json::Arr(v) => v.len(),
            _ => panic!("expected array"),
        };
        assert_eq!(
            arr_len(back.get("tasks").unwrap()),
            7,
            "seven task rows survive the JSON round trip"
        );
        assert_eq!(arr_len(back.get("edges").unwrap()), NUM_EDGES);
    }
}
