//! The benchmark's workloads: what each one simulates, how a benchmark
//! seed becomes the model's inputs, and the outputs a run must reproduce.
//!
//! Every workload is open-loop traffic over a fixed simulated horizon, so
//! the amount of simulated work does not depend on how fast the host is.

use lumen_core::exec::derive_seed;
use lumen_core::prelude::*;
use lumen_core::RunResult;
use lumen_desim::Rng;
use lumen_traffic::{DatacenterSource, TrafficSource};

/// The seed whose outputs are pinned in [`reference`]; with it,
/// `fig5_mqw_r4` is exactly the MQW-5-10 rate-4.0 point of `fig5_load`.
pub const DEFAULT_SEED: u64 = 1;

/// Names accepted by `--workload`, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "fig5_mqw_r4",
    "dc_mesh32",
    "dc_mesh32_2shard",
    "longrun_ckpt",
];

/// Stream key `lumen-core`'s executor uses for a datacenter source's RNG;
/// the benchmark derives the source seed the same way the harnesses do.
const DATACENTER_SOURCE_STREAM: u64 = u64::MAX - 1;

/// The traffic a workload drives through the system.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// Uniform-random destinations at a constant network-wide rate.
    Uniform { rate: f64, size: PacketSize },
    /// Request/response datacenter traffic with incast and a diurnal ramp.
    Datacenter(DatacenterConfig),
}

/// One benchmark workload, fully resolved for one benchmark seed.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub config: SystemConfig,
    pub warmup: u64,
    pub measure: u64,
    pub traffic: Traffic,
    /// Shard count the workload requests (1 = sequential engine).
    pub shards: usize,
    pub telemetry: TelemetryConfig,
    /// Whether the run audits flit/credit conservation at its end.
    pub audit: bool,
    /// Cycle at which the run saves a checkpoint (the resumed run then
    /// replays from it); `None` for workloads that never checkpoint.
    pub save_at: Option<u64>,
}

/// Counters-only telemetry: the end-of-run registry (`flits_sent` and the
/// other model work counts) is a sum over state the simulator keeps
/// anyway, so it costs one pass at report time and nothing per event.
const COUNTERS: TelemetryConfig = TelemetryConfig {
    counters: true,
    link_series: false,
    retain_windows: None,
};

/// `ext_longrun`'s telemetry: counters and the per-link window series,
/// the last 8 windows kept dense and older ones decimated.
pub const RETAINED_TELEMETRY: TelemetryConfig = TelemetryConfig {
    counters: true,
    link_series: true,
    retain_windows: Some(8),
};

/// The 32×32 single-node-per-rack mesh of `ext_datacenter`.
fn mesh32() -> NocConfig {
    let mut noc = NocConfig::paper_default();
    noc.width = 32;
    noc.height = 32;
    noc.nodes_per_rack = 1;
    noc
}

impl Workload {
    /// Resolves workload `name` for benchmark seed `seed`, or `None` for
    /// an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        match name {
            // fig5_load's MQW-5-10 curve at 4.0 pkt/cycle: rate index 4 is
            // comparison group 5, which is what seeds the point there.
            "fig5_mqw_r4" => {
                let mut config = SystemConfig::paper_default();
                config.seed = derive_seed(seed, 5);
                Some(Workload {
                    name: "fig5_mqw_r4",
                    config,
                    warmup: 10_000,
                    measure: 60_000,
                    traffic: Traffic::Uniform {
                        rate: 4.0,
                        size: PacketSize::Fixed(5),
                    },
                    shards: 1,
                    telemetry: COUNTERS,
                    audit: false,
                    save_at: None,
                })
            }
            "dc_mesh32" | "dc_mesh32_2shard" => {
                let noc = mesh32();
                let mut dc = DatacenterConfig::web_like(noc.node_count() / 4);
                dc.request_rate = noc.node_count() as f64 * 0.004;
                // ext_datacenter's full-scale shape, shortened so the
                // measured window holds one diurnal peak and one trough.
                dc.diurnal_period_cycles = DC_MEASURE;
                dc.incast_period_cycles = DC_MEASURE / 5;
                let mut config = SystemConfig::paper_default();
                config.noc = noc;
                config.seed = derive_seed(seed, 0);
                let sharded = name == "dc_mesh32_2shard";
                Some(Workload {
                    name: if sharded {
                        "dc_mesh32_2shard"
                    } else {
                        "dc_mesh32"
                    },
                    config,
                    warmup: DC_WARMUP,
                    measure: DC_MEASURE,
                    traffic: Traffic::Datacenter(dc),
                    shards: if sharded { 2 } else { 1 },
                    telemetry: COUNTERS,
                    audit: true,
                    save_at: None,
                })
            }
            // ext_longrun's diurnal serving workload on the paper fabric,
            // at its retention setting, split by a checkpoint at mid-run.
            "longrun_ckpt" => {
                let config = SystemConfig {
                    seed: derive_seed(seed, 0),
                    ..SystemConfig::paper_default()
                };
                let noc = &config.noc;
                let mut dc = DatacenterConfig::web_like(noc.node_count() / 4);
                dc.request_rate = noc.node_count() as f64 * 0.001;
                dc.diurnal_period_cycles = LONGRUN_MEASURE / 2;
                dc.incast_period_cycles = LONGRUN_MEASURE / 12;
                let warmup = 10_000;
                Some(Workload {
                    name: "longrun_ckpt",
                    config,
                    warmup,
                    measure: LONGRUN_MEASURE,
                    traffic: Traffic::Datacenter(dc),
                    shards: 1,
                    telemetry: RETAINED_TELEMETRY,
                    audit: true,
                    save_at: Some((warmup + LONGRUN_MEASURE) / 2),
                })
            }
            _ => None,
        }
    }

    /// Simulated core cycles of one run, warmup included.
    pub fn total_cycles(&self) -> u64 {
        self.warmup + self.measure
    }

    /// The experiment as a user would configure it (without the
    /// checkpoint split, which a timed sample adds).
    pub fn experiment(&self) -> Experiment {
        let exp = Experiment::new(self.config.clone())
            .warmup_cycles(self.warmup)
            .measure_cycles(self.measure)
            .shards(self.shards)
            .telemetry(self.telemetry);
        if self.audit {
            exp.audit_conservation()
        } else {
            exp
        }
    }

    /// A fresh traffic source, seeded exactly as `Experiment`'s own entry
    /// points and the executor's datacenter workload seed theirs.
    pub fn source(&self) -> Box<dyn TrafficSource + Send> {
        let noc = &self.config.noc;
        match &self.traffic {
            Traffic::Uniform { rate, size } => Box::new(SyntheticSource::new(
                noc,
                Pattern::Uniform,
                RateProfile::Constant(*rate),
                *size,
                Rng::seed_from(self.config.seed),
            )),
            Traffic::Datacenter(dc) => Box::new(DatacenterSource::new(
                noc,
                *dc,
                Rng::seed_from(derive_seed(self.config.seed, DATACENTER_SOURCE_STREAM)),
            )),
        }
    }
}

/// `dc_mesh32` horizon: warmup, then one diurnal period of measurement.
const DC_WARMUP: u64 = 2_000;
const DC_MEASURE: u64 = 10_000;

/// `longrun_ckpt` measured horizon (ext_longrun's 1× horizon).
const LONGRUN_MEASURE: u64 = 100_000;

/// The simulated outputs a run must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    pub delivered: u64,
    /// `avg_latency_cycles.to_bits()`.
    pub latency_bits: u64,
    /// `normalized_power.to_bits()`.
    pub power_bits: u64,
    pub transitions: u64,
    /// Flit link traversals over the whole run, warmup included.
    pub flits_sent: u64,
}

impl Outputs {
    /// Reads the outputs of a run made with counters telemetry on.
    pub fn of(result: &RunResult) -> Outputs {
        let counters = &result
            .telemetry
            .as_ref()
            .expect("benchmark runs record counters telemetry")
            .counters;
        Outputs {
            delivered: result.packets_delivered,
            latency_bits: result.avg_latency_cycles.to_bits(),
            power_bits: result.normalized_power.to_bits(),
            transitions: result.transitions,
            flits_sent: counters.flits_sent,
        }
    }

    pub fn latency_cycles(&self) -> f64 {
        f64::from_bits(self.latency_bits)
    }

    pub fn norm_power(&self) -> f64 {
        f64::from_bits(self.power_bits)
    }
}

/// The outputs `workload` produces on [`DEFAULT_SEED`], or `None` for
/// other seeds (whose runs are checked against each other instead).
pub fn reference(workload: &str, seed: u64) -> Option<Outputs> {
    if seed != DEFAULT_SEED {
        return None;
    }
    REFERENCE
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|&(_, outputs)| outputs)
}

/// Outputs on [`DEFAULT_SEED`]. `dc_mesh32_2shard` shares `dc_mesh32`'s
/// row: shard count must not change a single bit.
const REFERENCE: [(&str, Outputs); 4] = [
    ("fig5_mqw_r4", FIG5_REF),
    ("dc_mesh32", DC_REF),
    ("dc_mesh32_2shard", DC_REF),
    ("longrun_ckpt", LONGRUN_REF),
];

/// `results/fig5_load.txt`, MQW-5-10 at rate 4.0: 85.9 cycles, 0.344.
const FIG5_REF: Outputs = Outputs {
    delivered: 239713,
    latency_bits: 4635743110365781125,
    power_bits: 4599875752318948039,
    transitions: 5810,
    flits_sent: 10165889,
};

const DC_REF: Outputs = Outputs {
    delivered: 20221,
    latency_bits: 4651268699860138302,
    power_bits: 4600101700428011449,
    transitions: 31775,
    flits_sent: 4855239,
};

const LONGRUN_REF: Outputs = Outputs {
    delivered: 30801,
    latency_bits: 4645564602639394739,
    power_bits: 4597816514863120236,
    transitions: 8460,
    flits_sent: 2517402,
};
