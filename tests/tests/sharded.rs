//! Differential tests for the sharded conservative-parallel backend.
//!
//! The contract under test: for every configuration and shard count, the
//! sharded engine produces results **bit-identical** to the sequential
//! engine — same deliveries, same latencies, same energy, same policy
//! transitions. These tests sweep random small meshes, link policies
//! (DVS, on/off gating, none), optical modes, transmitters (MQW, VCSEL),
//! and traffic families (uniform, hotspot, SPLASH, datacenter), and
//! compare shard counts {1, 2, 4} (clamped to the mesh height) against
//! the sequential run, plus a fault-injection run whose outages span
//! shard boundaries, with the flit/credit conservation auditor on.

use lumen_core::prelude::*;
use lumen_policy::OnOffConfig;
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;

/// A small mesh with randomized geometry, derived from the unit-test
/// config so clocks and delays stay in the tested envelope.
fn mesh_config(seed: u64, width: u8, height: u8, npr: u8, vcs: u8, pa: bool) -> SystemConfig {
    let mut c = SystemConfig::paper_default().with_seed(seed);
    c.noc = NocConfig::small_for_tests();
    c.noc.width = width;
    c.noc.height = height;
    c.noc.nodes_per_rack = npr;
    c.noc.vcs = vcs;
    c.noc.buffer_depth = 4 * u16::from(vcs);
    c.power_aware = pa;
    c.policy.timing.tw_cycles = 200;
    c
}

/// Runs `config` under `workload` at every shard count in {1, 2, 4}
/// (clamped to the mesh height) and asserts each sharded result is
/// bit-identical to the sequential one. Debug builds (all `cargo test`
/// runs) also run the conservation auditor on every run.
fn assert_shard_invariant(config: SystemConfig, workload: Workload) {
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(2_500)
        .audit_conservation();
    let run = |shards: usize| {
        Point::new("differential", exp.clone().shards(shards), workload.clone()).run_at_index(0)
    };
    let seq = run(1);
    let height = exp.config().noc.height;
    for shards in [2usize, 4] {
        let eff = lumen_core::effective_shards(&exp.config().noc, shards);
        if eff == 1 {
            continue; // single-row mesh: nothing to split
        }
        let par = run(shards);
        let tag = format!("shards {shards} (eff {eff}, height {height}, {workload:?})");
        assert_eq!(par.packets_injected, seq.packets_injected, "{tag}");
        assert_eq!(par.packets_delivered, seq.packets_delivered, "{tag}");
        assert_eq!(par.packets_dropped, seq.packets_dropped, "{tag}");
        assert_eq!(
            par.avg_latency_cycles.to_bits(),
            seq.avg_latency_cycles.to_bits(),
            "{tag}: {} vs {}",
            par.avg_latency_cycles,
            seq.avg_latency_cycles
        );
        assert_eq!(
            par.p99_latency_cycles.to_bits(),
            seq.p99_latency_cycles.to_bits(),
            "{tag}"
        );
        assert_eq!(
            par.avg_power_mw.to_bits(),
            seq.avg_power_mw.to_bits(),
            "{tag}: {} vs {}",
            par.avg_power_mw,
            seq.avg_power_mw
        );
        assert_eq!(par.transitions, seq.transitions, "{tag}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random small meshes, link policies, optical modes, transmitters,
    /// and traffic sources (uniform, hotspot, SPLASH, datacenter):
    /// sharded == sequential, bit for bit. The 10 fixed cases reach all
    /// four sources and both transmitters (reordering the inputs changes
    /// the draws, so re-check coverage if you do).
    #[test]
    fn sharded_matches_sequential_on_random_meshes(
        seed in 0u64..1_000,
        width in 2u8..4,
        height in 2u8..5,
        npr in 1u8..3,
        vcs in 1u8..3,
        rate_milli in 20u64..300,
        pa in 0u8..2,
        onoff in 0u8..2,
        three_level in 0u8..2,
        source in 0u8..4,
        vcsel in 0u8..2,
    ) {
        let mut config = mesh_config(seed, width, height, npr, vcs, pa == 1);
        if onoff == 1 {
            config.policy = config.policy.with_onoff(OnOffConfig::reference_default());
        }
        if three_level == 1 {
            config.policy.optical_mode = OpticalMode::ThreeLevel;
        }
        if vcsel == 1 {
            config = config.with_transmitter(TransmitterKind::Vcsel);
        }
        let size = PacketSize::Fixed(4);
        let workload = match source {
            0 => Workload::Uniform {
                rate: rate_milli as f64 / 1_000.0,
                size,
            },
            1 => Workload::Hotspot { size },
            2 => Workload::Splash(SplashApp::ALL[(seed % 3) as usize]),
            _ => {
                let nodes = config.noc.node_count();
                Workload::Datacenter {
                    config: DatacenterConfig {
                        diurnal_period_cycles: 1_500,
                        incast_period_cycles: 500,
                        ..DatacenterConfig::web_like(nodes / 4)
                    },
                }
            }
        };
        assert_shard_invariant(config, workload);
    }
}

/// Time-series sampling crosses the merge too: the sampled series must
/// be identical, not just the end-of-run summaries.
#[test]
fn sharded_time_series_match_sequential() {
    let config = mesh_config(7, 2, 4, 2, 1, true);
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(3_000)
        .sample_every(500)
        .audit_conservation();
    let seq = exp.clone().shards(1).run_uniform(0.1, PacketSize::Fixed(4));
    let par = exp.shards(4).run_uniform(0.1, PacketSize::Fixed(4));
    assert_eq!(par.latency_series, seq.latency_series);
    assert_eq!(par.power_series, seq.power_series);
    assert_eq!(par.injection_series, seq.injection_series);
}

/// Fault injection with outages that span shard boundaries: faults fire
/// on links crossing the row-band cut, flits are dropped mid-route, and
/// the merged network must still pass the flit/credit conservation audit
/// while matching the sequential run exactly.
#[test]
fn sharded_faults_across_boundaries_match_and_conserve() {
    let mut config = mesh_config(11, 3, 4, 2, 1, true);
    config.faults = FaultConfig {
        outage_mtbf_cycles: 600,
        outage_mean_duration_cycles: 40,
        ..FaultConfig::disabled()
    };
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(4_000)
        .audit_conservation();
    let seq = exp.clone().shards(1).run_uniform(0.1, PacketSize::Fixed(4));
    // Faults must actually occur for this test to mean anything.
    assert!(seq.link_faults > 0, "no faults fired; tighten mtbf");
    for shards in [2usize, 4] {
        let par = exp
            .clone()
            .shards(shards)
            .run_uniform(0.1, PacketSize::Fixed(4));
        assert_eq!(par.link_faults, seq.link_faults, "shards {shards}");
        assert_eq!(par.flits_dropped, seq.flits_dropped, "shards {shards}");
        assert_eq!(par.packets_dropped, seq.packets_dropped, "shards {shards}");
        assert_eq!(
            par.packets_delivered, seq.packets_delivered,
            "shards {shards}"
        );
        assert_eq!(
            par.avg_latency_cycles.to_bits(),
            seq.avg_latency_cycles.to_bits(),
            "shards {shards}"
        );
        assert_eq!(
            par.avg_power_mw.to_bits(),
            seq.avg_power_mw.to_bits(),
            "shards {shards}"
        );
    }
}

/// The sequential fallback: shard counts above the mesh height clamp
/// rather than panic, and `--shards 1` is exactly the sequential engine.
#[test]
fn shard_counts_clamp_to_mesh_height() {
    let config = mesh_config(3, 2, 2, 1, 1, false);
    assert_eq!(lumen_core::effective_shards(&config.noc, 64), 2);
    assert_eq!(lumen_core::effective_shards(&config.noc, 0), 1);
    let exp = Experiment::new(config)
        .warmup_cycles(200)
        .measure_cycles(1_000);
    let seq = exp.clone().shards(1).run_uniform(0.2, PacketSize::Fixed(4));
    let par = exp.shards(64).run_uniform(0.2, PacketSize::Fixed(4));
    assert_eq!(par.packets_delivered, seq.packets_delivered);
    assert_eq!(
        par.avg_latency_cycles.to_bits(),
        seq.avg_latency_cycles.to_bits()
    );
}
