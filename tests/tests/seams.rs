//! Tick-edge seam fixture.
//!
//! With `propagation` and `credit_delay` at 0 or one router cycle, and
//! flits serialized in exactly one cycle at the top rate, flit and
//! credit arrivals land on core-clock edges. Whether such an arrival is
//! handled before or after the tick at the same timestamp then decides
//! every result: the engine's rule is that an arrival scheduled before
//! that tick was itself scheduled is handled first, and one scheduled
//! later is handled after it.
//!
//! `fixtures/seams.fingerprint` pins one line per case: the run's
//! outputs, its counters, a hash of its exported trace, and a hash of a
//! checkpoint saved mid-run (with the processed-event count zeroed, the
//! one field that depends on how deliveries are dispatched). The
//! checkpoint hash pins the full simulator state and the pending
//! deliveries at a tick-aligned horizon. Every case with a one-cycle
//! credit delay also runs on two shards and must print the same line.
//! With no credit delay a cross-cut credit lands at the very tick that
//! returned it, which the sharded engine's credit lookahead does not
//! cover: its 2-shard runs diverge from the sequential engine, so those
//! cases run on one shard only. A change to how arrivals are
//! delivered must reproduce the file bit for bit; regenerate it only on
//! purpose, with `cargo test --test seams -- --ignored
//! regenerate_seam_fixture`.

use lumen_core::prelude::*;
use lumen_core::Checkpoint;
use lumen_desim::Picos;
use lumen_policy::OnOffConfig;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/seams.fingerprint");
const WARMUP: u64 = 300;
const MEASURE: u64 = 1_500;
const SAVE_AT: u64 = WARMUP + MEASURE / 2;
const CYCLE_PS: u64 = 1_600;

#[derive(Clone, Copy, Debug)]
enum Policy {
    Dvs,
    DvsFaults,
    OnOff,
}

struct Case {
    name: String,
    config: SystemConfig,
    /// Whether the 2-shard run must match the sequential one.
    sharded: bool,
}

/// Every case: three fabrics × two policies × {0, 1} cycle of
/// propagation × {0, 1} cycle of credit delay, plus DVS with outages and
/// laser dropouts on the mesh.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let fabrics = [
        ("mesh", TopologyKind::Mesh),
        ("torus", TopologyKind::Torus),
        ("clos", TopologyKind::FoldedClos { spines: 2 }),
    ];
    for (fabric, kind) in fabrics {
        let policies: &[Policy] = if matches!(kind, TopologyKind::Mesh) {
            &[Policy::Dvs, Policy::DvsFaults, Policy::OnOff]
        } else {
            &[Policy::Dvs, Policy::OnOff]
        };
        for &policy in policies {
            for prop in [0, 1] {
                for credit in [0, 1] {
                    let mut c = SystemConfig::paper_default().with_seed(17);
                    c.noc = NocConfig::small_for_tests();
                    c.noc.topology = kind;
                    c.noc.width = 4;
                    c.noc.height = 4;
                    c.noc.vcs = 2;
                    c.noc.buffer_depth = 8;
                    c.noc.propagation = Picos::from_ps(prop * CYCLE_PS);
                    c.noc.credit_delay = Picos::from_ps(credit * CYCLE_PS);
                    c.policy.timing.tw_cycles = 200;
                    match policy {
                        Policy::Dvs => {}
                        Policy::DvsFaults => {
                            c.faults = FaultConfig {
                                outage_mtbf_cycles: 1_500,
                                outage_mean_duration_cycles: 150,
                                dropout_mtbf_cycles: 1_200,
                                dropout_mean_duration_cycles: 300,
                                ..FaultConfig::disabled()
                            };
                        }
                        Policy::OnOff => {
                            c.policy = c.policy.with_onoff(OnOffConfig::reference_default());
                            c.policy.timing.tw_cycles = 200;
                        }
                    }
                    out.push(Case {
                        name: format!("{fabric}-{policy:?}-prop{prop}-credit{credit}"),
                        config: c,
                        sharded: credit > 0,
                    });
                }
            }
        }
    }
    out
}

fn experiment(config: &SystemConfig) -> Experiment {
    Experiment::new(config.clone())
        .warmup_cycles(WARMUP)
        .measure_cycles(MEASURE)
        .sample_every(300)
        .audit_conservation()
        .telemetry(TelemetryConfig::full())
}

fn run(exp: Experiment) -> RunResult {
    exp.run_uniform(1.2, PacketSize::Fixed(4))
}

/// FNV-1a, 64-bit: a stable digest for the fixture file.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The run's outputs and counters as one line of `key=value` pairs.
fn outputs(r: &RunResult) -> String {
    let t = r.telemetry.as_ref().expect("telemetry enabled");
    let c = &t.counters;
    format!(
        "inj={} del={} lat={} p99={} max={} pow={} trans={} drop={} corrupt={} faults={} \
         sent={} won={} lost={} rates={} series={} trace={:016x}",
        r.packets_injected,
        r.packets_delivered,
        r.avg_latency_cycles.to_bits(),
        r.p99_latency_cycles.to_bits(),
        r.max_latency_cycles.to_bits(),
        r.avg_power_mw.to_bits(),
        r.transitions,
        r.packets_dropped,
        r.flits_corrupted,
        r.link_faults,
        c.flits_sent,
        c.alloc_won,
        c.alloc_lost,
        c.rate_changes,
        r.power_series.len(),
        fnv64(t.to_jsonl().as_bytes()),
    )
}

/// One fixture line: the sequential run's outputs plus the digest of a
/// checkpoint saved at [`SAVE_AT`]. Asserts that the saving run, and the
/// 2-shard run where one is made, print the same outputs as the plain
/// sequential run.
fn fingerprint(case: &Case) -> String {
    let exp = experiment(&case.config);
    let seq = outputs(&run(exp.clone()));
    if case.sharded {
        let sharded = outputs(&run(exp.clone().shards(2)));
        assert_eq!(sharded, seq, "{}: 2 shards diverged", case.name);
    }
    let path = std::env::temp_dir().join(format!(
        "lumen-seam-{}-{}.ckpt",
        std::process::id(),
        case.name
    ));
    let saving = outputs(&run(exp.save_at(SAVE_AT, &path)));
    assert_eq!(saving, seq, "{}: the saving run diverged", case.name);
    let mut ckpt = Checkpoint::read_from(&path).expect("read checkpoint");
    std::fs::remove_file(&path).ok();
    ckpt.events = 0;
    format!(
        "{} {seq} ckpt={:016x}\n",
        case.name,
        fnv64(&ckpt.to_bytes())
    )
}

#[test]
#[ignore = "rewrites the committed fixture"]
fn regenerate_seam_fixture() {
    let text: String = cases().iter().map(fingerprint).collect();
    std::fs::write(FIXTURE, text).expect("write seam fixture");
}

#[test]
fn tick_edge_seams_reproduce_their_fingerprints() {
    let want = std::fs::read_to_string(FIXTURE).expect("seam fixture");
    let want: Vec<&str> = want.lines().collect();
    let cases = cases();
    assert_eq!(want.len(), cases.len(), "fixture has one line per case");
    for (case, want) in cases.iter().zip(want) {
        assert_eq!(fingerprint(case).trim_end(), want, "{}", case.name);
    }
}
