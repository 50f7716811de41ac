//! The four workloads, their inputs and the correctness oracle.
//!
//! Why each workload exists is recorded in `BENCHMARK.json` and
//! `README.md`; this file holds only what the harness needs to run them.

use crate::stats::Fnv;
use stap_core::{Detection, SequentialStap, StapParams};
use stap_cube::CCube;
use stap_pipeline::NodeAssignment;
use stap_radar::Scenario;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Geometry {
    /// `StapParams::paper()` + `Scenario::rtmcarm`: K=512, J=16, N=128,
    /// 16 MiB per CPI, five transmit beams.
    Paper,
    /// `StapParams::reduced()` + `Scenario::reduced`: K=64, J=8, N=32,
    /// 256 KiB per CPI, one transmit beam.
    Reduced,
}

impl Geometry {
    pub fn name(self) -> &'static str {
        match self {
            Geometry::Paper => "paper(K=512,J=16,N=128)",
            Geometry::Reduced => "reduced(K=64,J=8,N=32)",
        }
    }

    pub fn params(self) -> StapParams {
        match self {
            Geometry::Paper => StapParams::paper(),
            Geometry::Reduced => StapParams::reduced(),
        }
    }

    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Geometry::Paper => Scenario::rtmcarm(seed),
            Geometry::Reduced => Scenario::reduced(seed),
        }
    }

    /// CPIs in a stream's replay ring: a multiple of the transmit-beam
    /// count, so ring slot `r` is always revisited with beam `r % beams`.
    pub fn ring_len(self) -> usize {
        match self {
            Geometry::Paper => 10,
            Geometry::Reduced => 16,
        }
    }

    /// Leading CPIs of every stream whose detections are checked against
    /// `SequentialStap`.
    pub fn verified_cpis(self) -> usize {
        match self {
            Geometry::Paper => 10,
            Geometry::Reduced => 32,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Serve path, closed loop: this many CPIs in flight per stream; the
    /// next is submitted when one completes.
    Closed { in_flight: usize },
    /// Serve path, open loop: every stream periodic with a seeded phase,
    /// this many CPI/s in aggregate, with latency counted from the
    /// schedule whatever the server does.
    Open { rate: f64 },
    /// Batch engine over loopback TCP: `ParallelStap::run_rank` on one
    /// in-process thread per rank, batches of this many CPIs.
    TcpBatch { cpis: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub geometry: Geometry,
    pub nodes: [usize; 7],
    pub streams: usize,
    pub load: Load,
    pub max_group: usize,
    /// Pipeline slots (serve) or CPIs (batch) in flight.
    pub window: usize,
    pub queue_depth: usize,
    /// Set-up ends at this many completions.
    pub warmup_cpis: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_closed",
        geometry: Geometry::Paper,
        nodes: [1; 7],
        streams: 1,
        load: Load::Closed { in_flight: 4 },
        max_group: 1,
        window: 4,
        queue_depth: 4,
        warmup_cpis: 12,
    },
    Workload {
        name: "red_multi_closed",
        geometry: Geometry::Reduced,
        nodes: [2, 1, 2, 1, 1, 2, 1],
        streams: 8,
        load: Load::Closed { in_flight: 4 },
        max_group: 8,
        window: 4,
        queue_depth: 4,
        warmup_cpis: 256,
    },
    Workload {
        name: "red_open",
        geometry: Geometry::Reduced,
        nodes: [1; 7],
        streams: 4,
        load: Load::Open { rate: 100.0 },
        max_group: 4,
        window: 4,
        // 2.5 s of arrivals per stream; behind a full queue the
        // generator waits, it is not refused.
        queue_depth: 64,
        warmup_cpis: 256,
    },
    Workload {
        name: "red_tcp_batch",
        geometry: Geometry::Reduced,
        nodes: [1; 7],
        streams: 1,
        load: Load::TcpBatch { cpis: 500 },
        max_group: 1,
        window: 4,
        queue_depth: 0,
        // The paper's own warm-up: the first three CPIs.
        warmup_cpis: 3,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn assignment(&self) -> NodeAssignment {
        NodeAssignment(self.nodes)
    }

    pub fn transport(&self) -> &'static str {
        match self.load {
            Load::TcpBatch { .. } => "tcp-loopback(in-process ranks)",
            _ => "inproc",
        }
    }
}

/// Everything the program under test is given: per stream, a ring of
/// generated cubes replayed cyclically.
pub struct Inputs {
    pub scenarios: Vec<Scenario>,
    pub rings: Vec<Vec<CCube>>,
    /// Wall time of the whole generation, seconds.
    pub gen_s: f64,
    /// Wall time of each `Scenario::generate_cpi` call, seconds.
    pub gen_cpi_s: Vec<f64>,
}

impl Inputs {
    /// Stream `s` replays `scenario(seed + s)`.
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let t0 = Instant::now();
        let mut gen_cpi_s = Vec::new();
        let scenarios: Vec<Scenario> = (0..w.streams)
            .map(|s| w.geometry.scenario(seed.wrapping_add(s as u64)))
            .collect();
        let rings = scenarios
            .iter()
            .map(|sc| {
                (0..w.geometry.ring_len())
                    .map(|i| {
                        let t = Instant::now();
                        let cube = sc.generate_cpi(i);
                        gen_cpi_s.push(t.elapsed().as_secs_f64());
                        cube
                    })
                    .collect()
            })
            .collect();
        Inputs {
            scenarios,
            rings,
            gen_s: t0.elapsed().as_secs_f64(),
            gen_cpi_s,
        }
    }

    /// The cube stream `s` submits as its CPI number `scpi`.
    pub fn cube(&self, s: usize, scpi: usize) -> &CCube {
        let ring = &self.rings[s];
        &ring[scpi % ring.len()]
    }

    /// What `SequentialStap` detects on the first `verified_cpis()` CPIs
    /// of every stream, as digests.
    pub fn oracle(&self, w: &Workload) -> Vec<Vec<u64>> {
        self.scenarios
            .iter()
            .enumerate()
            .map(|(s, sc)| {
                let mut seq = SequentialStap::for_scenario(w.geometry.params(), sc);
                let beams = sc.transmit_beams.len();
                (0..w.geometry.verified_cpis())
                    .map(|i| digest(&mut seq.process_cpi(i % beams, self.cube(s, i)).detections))
                    .collect()
            })
            .collect()
    }
}

/// FNV-1a over the bit patterns of a CPI's detections in
/// (bin, beam, range) order. Sorts in place.
pub fn digest(detections: &mut [Detection]) -> u64 {
    detections.sort_by_key(|d| (d.bin, d.beam, d.range));
    let mut h = Fnv::new();
    h.word(detections.len() as u64);
    for d in detections.iter() {
        h.word(d.bin as u64);
        h.word(d.beam as u64);
        h.word(d.range as u64);
        h.word(d.power.to_bits());
    }
    h.0
}
