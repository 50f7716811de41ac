//! The metric tables and the result a run prints.
//!
//! The names, units and order here are the ones `BENCHMARK.json`
//! declares; a unit test keeps the two in step.

use stap_util::Json;

/// Every workload reports all of these, with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_cpi_s", "CPI/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_cpi", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every traced run reports all of these; one that does not exist on a
/// workload (no serve layer under `red_tcp_batch`, no rate ladder off
/// `red_open`) reads 0 there.
pub const PER_LAYER: [(&str, &str); 83] = [
    ("stap-radar.gen_cpi_ms", "ms"),
    ("stap-math.fft_lanes_us", "us"),
    ("stap-math.gemm_gflops", "GFLOP/s"),
    ("stap-math.qr_update_us", "us"),
    ("stap-math.flops_per_cpi", "count"),
    ("stap-core.doppler_ms", "ms"),
    ("stap-core.easy_weight_ms", "ms"),
    ("stap-core.hard_weight_ms", "ms"),
    ("stap-core.easy_bf_ms", "ms"),
    ("stap-core.hard_bf_ms", "ms"),
    ("stap-core.pulse_ms", "ms"),
    ("stap-core.cfar_ms", "ms"),
    ("stap-core.seq_cpi_ms", "ms"),
    ("stap-core.seq_gflops", "GFLOP/s"),
    ("stap-cube.pack_mb_s", "MB/s"),
    ("stap-cube.unpack_mb_s", "MB/s"),
    ("stap-cube.pool_misses", "count"),
    ("stap-cube.pool_hit_ratio", "ratio"),
    ("stap-mp.inproc_rtt_us", "us"),
    ("stap-mp.tcp_rtt_us", "us"),
    ("stap-mp.tcp_bw_1m_mb_s", "MB/s"),
    ("stap-mp.tcp_bw_16m_mb_s", "MB/s"),
    ("stap-mp.msgs_per_cpi", "count"),
    ("stap-mp.bytes_per_cpi", "count"),
    ("stap-mp.max_mailbox_depth", "count"),
    ("stap-pipeline.wire_encode_mb_s", "MB/s"),
    ("stap-pipeline.wire_decode_mb_s", "MB/s"),
    ("stap-pipeline.busy_frac_t0", "ratio"),
    ("stap-pipeline.busy_frac_t1", "ratio"),
    ("stap-pipeline.busy_frac_t2", "ratio"),
    ("stap-pipeline.busy_frac_t3", "ratio"),
    ("stap-pipeline.busy_frac_t4", "ratio"),
    ("stap-pipeline.busy_frac_t5", "ratio"),
    ("stap-pipeline.busy_frac_t6", "ratio"),
    ("stap-pipeline.bottleneck_task", "task"),
    ("stap-pipeline.cpis_per_slot", "count"),
    ("stap-pipeline.unloaded_latency_ms", "ms"),
    ("stap-pipeline.latency_unexplained_ms", "ms"),
    ("stap-pipeline.parallel_efficiency", "ratio"),
    ("stap-pipeline.t0_recv_ms", "ms"),
    ("stap-pipeline.t0_comp_ms", "ms"),
    ("stap-pipeline.t0_send_ms", "ms"),
    ("stap-pipeline.t1_recv_ms", "ms"),
    ("stap-pipeline.t1_comp_ms", "ms"),
    ("stap-pipeline.t1_send_ms", "ms"),
    ("stap-pipeline.t2_recv_ms", "ms"),
    ("stap-pipeline.t2_comp_ms", "ms"),
    ("stap-pipeline.t2_send_ms", "ms"),
    ("stap-pipeline.t3_recv_ms", "ms"),
    ("stap-pipeline.t3_comp_ms", "ms"),
    ("stap-pipeline.t3_send_ms", "ms"),
    ("stap-pipeline.t4_recv_ms", "ms"),
    ("stap-pipeline.t4_comp_ms", "ms"),
    ("stap-pipeline.t4_send_ms", "ms"),
    ("stap-pipeline.t5_recv_ms", "ms"),
    ("stap-pipeline.t5_comp_ms", "ms"),
    ("stap-pipeline.t5_send_ms", "ms"),
    ("stap-pipeline.t6_recv_ms", "ms"),
    ("stap-pipeline.t6_comp_ms", "ms"),
    ("stap-pipeline.t6_send_ms", "ms"),
    ("stap-serve.submit_us", "us"),
    ("stap-serve.take_cube_us", "us"),
    ("stap-serve.ingest_cycle_ns", "ns"),
    ("stap-serve.backpressure_waits", "count"),
    ("stap-serve.rejected", "count"),
    ("stap-serve.server_latency_p50_ms", "ms"),
    ("stap-serve.latency_p95_ms", "ms"),
    ("stap-serve.latency_p99_ms", "ms"),
    ("stap-serve.ladder_150_p50_ms", "ms"),
    ("stap-serve.ladder_300_p50_ms", "ms"),
    ("stap-serve.ladder_450_p50_ms", "ms"),
    ("stap-serve.ladder_600_p50_ms", "ms"),
    ("stap-serve.sustained_rate_cpi_s", "CPI/s"),
    ("stap-sim.des_case3_ms", "ms"),
    ("harness.gen_s", "s"),
    ("harness.gen_lag_p95_ms", "ms"),
    ("harness.client_overhead_ms", "ms"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.disturbed", "count"),
    ("harness.failed_frac", "ratio"),
    ("harness.latency_samples", "count"),
    ("harness.throughput_windows", "count"),
    ("harness.traced_spans", "count"),
];

/// Metrics by name, in the order they were measured.
#[derive(Default)]
pub struct Ledger {
    rows: Vec<(String, f64, String)>,
}

impl Ledger {
    /// Records a metric; its unit comes from the tables above. A later
    /// value for the same name replaces the earlier one.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(row) => row.1 = value,
            None => self.rows.push((name.to_string(), value, unit.to_string())),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// One line per metric: name, value, unit.
    pub fn print(&self, title: &str) {
        println!("-- {title}");
        for (name, value, unit) in &self.rows {
            println!("{name:<42} {value:>16.6} {unit}");
        }
    }

    /// The `metrics` object of the result line: exactly the metrics of
    /// `table`, in its order.
    pub fn metrics_json(&self, table: &[(&str, &str)]) -> Json {
        Json::obj(table.iter().map(|&(name, unit)| {
            let value = self.get(name).unwrap_or(0.0);
            (
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        }))
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names_units = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} is not an array");
            };
            let text = |m: &Json, k: &str| match m.get(k) {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{key}: {k} is {other:?}"),
            };
            items
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units("end_to_end"), own(&END_TO_END));
        assert_eq!(names_units("per_layer"), own(&PER_LAYER));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads is not an array");
        };
        let declared: Vec<&Json> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let own: Vec<Json> = WORKLOADS
            .iter()
            .map(|w| Json::Str(w.name.to_string()))
            .collect();
        assert_eq!(declared, own.iter().collect::<Vec<_>>());
    }
}
