//! End-to-end integration tests: the full stack (traffic → network →
//! policy → power accounting) wired exactly as the benchmark harnesses
//! wire it, checked for conservation and sanity invariants.

use lumen_core::prelude::*;
use lumen_desim::{Picos, Rng};
use lumen_noc::ids::LinkId;
use lumen_noc::Topology;
use lumen_traffic::TrafficSource;

/// The small fabrics every test here runs on: the 2×2 mesh and the
/// 2×2 torus (wrap channels on every port).
const FABRICS: [TopologyKind; 2] = [TopologyKind::Mesh, TopologyKind::Torus];

fn small_config(kind: TopologyKind, power_aware: bool) -> SystemConfig {
    let mut c = SystemConfig::paper_default();
    c.noc = NocConfig::small_for_tests();
    c.noc.topology = kind;
    c.power_aware = power_aware;
    c.policy.timing.tw_cycles = 200;
    c
}

fn small_experiment(kind: TopologyKind, power_aware: bool) -> Experiment {
    Experiment::new(small_config(kind, power_aware))
        .warmup_cycles(1_000)
        .measure_cycles(5_000)
}

#[test]
fn flit_conservation_after_drain() {
    for kind in FABRICS {
        // Inject a finite burst, then let the network drain completely:
        // every packet injected must be delivered, nothing may linger.
        let config = small_config(kind, true);
        let source = Box::new(SyntheticSource::new(
            &config.noc,
            Pattern::Uniform,
            RateProfile::Phases(vec![(500, 1.0), (100_000, 0.0)]),
            PacketSize::Uniform(1, 6),
            Rng::seed_from(11),
        ));
        let mut engine = PowerAwareSim::build_engine(config, source, None);
        engine.run_until(Picos::from_ps(1600 * 11_000));
        let net = engine.model().network();
        assert!(net.is_quiescent(), "network must drain");
        assert_eq!(
            net.packets_delivered(),
            engine.model().packets_injected_measured(),
            "every injected packet must be delivered"
        );
        assert!(
            net.packets_delivered() > 0,
            "burst must have carried packets"
        );
    }
}

#[test]
fn energy_is_exactly_power_times_time_for_baseline() {
    for kind in FABRICS {
        // The non-power-aware system draws constant power, so the integral is
        // analytic: links × 290 mW × duration.
        let config = small_config(kind, false);
        let source = Box::new(SyntheticSource::new(
            &config.noc,
            Pattern::Uniform,
            RateProfile::Constant(0.05),
            PacketSize::Fixed(4),
            Rng::seed_from(3),
        ));
        // Injection + ejection per node, plus the topology's own directed
        // inter-router channels (8 on the 2×2 mesh; 16 on the 2×2 torus).
        let mut channels = Vec::new();
        config.noc.topo().channels(&mut channels);
        let links = 2 * config.noc.node_count() + channels.len();
        let mut engine = PowerAwareSim::build_engine(config, source, None);
        let horizon = Picos::from_us(10);
        engine.run_until(horizon);
        let sim = engine.model();
        assert_eq!(sim.network().link_count(), links);
        let expect_nj = links as f64 * 290.0 * horizon.as_us_f64() * 1e-3 * 1e3;
        let got = sim.energy_nj(horizon);
        assert!(
            (got - expect_nj).abs() / expect_nj < 1e-9,
            "energy {got} nJ vs analytic {expect_nj} nJ"
        );
    }
}

#[test]
fn power_bounded_by_ladder_extremes() {
    for kind in FABRICS {
        // A power-aware run can never dip below the ladder floor or exceed
        // the baseline.
        let r = small_experiment(kind, true).run_uniform(0.2, PacketSize::Fixed(4));
        let config = small_config(kind, true);
        let floor = config
            .link_model()
            .normalized_power(config.policy.ladder.point_at(0));
        assert!(r.normalized_power >= floor - 1e-9, "below physical floor");
        assert!(r.normalized_power <= 1.0 + 1e-9, "above baseline");
    }
}

#[test]
fn policy_controllers_hold_when_disabled() {
    for kind in FABRICS {
        let r = small_experiment(kind, false).run_uniform(0.2, PacketSize::Fixed(4));
        assert_eq!(r.transitions, 0);
        assert!((r.normalized_power - 1.0).abs() < 1e-12);
    }
}

#[test]
fn three_level_optics_only_adds_latency() {
    for kind in FABRICS {
        let single = small_experiment(kind, true).run_uniform(0.2, PacketSize::Fixed(4));
        let mut config = small_config(kind, true);
        config.policy.optical_mode = OpticalMode::ThreeLevel;
        let three = Experiment::new(config)
            .warmup_cycles(1_000)
            .measure_cycles(5_000)
            .run_uniform(0.2, PacketSize::Fixed(4));
        // Same traffic reaches its destinations either way.
        assert_eq!(three.packets_injected, single.packets_injected);
        assert!(three.packets_delivered > 0);
        // Optical gating can only delay rate increases, never speed them up.
        assert!(
            three.avg_latency_cycles >= single.avg_latency_cycles * 0.95,
            "three-level {0} vs single {1}",
            three.avg_latency_cycles,
            single.avg_latency_cycles
        );
    }
}

#[test]
fn trace_source_matches_synthetic_workload() {
    for kind in FABRICS {
        // Replaying a recorded workload injects the same number of packets.
        let config = small_config(kind, true);
        let mut synth = SyntheticSource::new(
            &config.noc,
            Pattern::Uniform,
            RateProfile::Constant(0.3),
            PacketSize::Fixed(3),
            Rng::seed_from(7),
        );
        let cycle_ps = config.noc.cycle().as_ps();
        let mut packets = Vec::new();
        for c in 0..3_000u64 {
            synth.packets_for_cycle(c, Picos::from_ps(c * cycle_ps), &mut packets);
        }
        let trace = lumen_traffic::Trace::from_records(
            packets
                .iter()
                .map(|p| lumen_traffic::TraceRecord {
                    at_ps: p.created_at.as_ps(),
                    src: p.src.index(),
                    dst: p.dst.index(),
                    size_flits: p.size_flits,
                })
                .collect(),
        );
        let replay = lumen_traffic::TraceSource::new(trace);
        let mut engine = PowerAwareSim::build_engine(config, Box::new(replay), None);
        engine.run_until(Picos::from_ps(cycle_ps * 10_000));
        assert_eq!(
            engine.model().network().packets_delivered() as usize,
            packets.len()
        );
        assert!(engine.model().network().is_quiescent());
    }
}

#[test]
fn manual_rate_change_mid_flight_is_safe() {
    for kind in FABRICS {
        // Externally forcing rate changes while traffic flows must not break
        // conservation (exercises the link-disable / drain interaction).
        let config = small_config(kind, false);
        let source = Box::new(SyntheticSource::new(
            &config.noc,
            Pattern::Uniform,
            RateProfile::Phases(vec![(2_000, 0.5), (100_000, 0.0)]),
            PacketSize::Fixed(5),
            Rng::seed_from(21),
        ));
        let mut engine = PowerAwareSim::build_engine(config, source, None);
        for step in 1..=4u64 {
            engine.run_until(Picos::from_ps(1600 * 500 * step));
            let sim = engine.model_mut();
            let n = sim.network().link_count();
            for l in 0..n {
                let rate = if step % 2 == 0 { 5.0 } else { 10.0 };
                let now = Picos::from_ps(1600 * 500 * step);
                sim.network_mut()
                    .link_mut(LinkId(l as u32))
                    .begin_rate_change(
                        now,
                        lumen_opto::Gbps::from_gbps(rate),
                        Picos::from_ps(32_000),
                    );
            }
        }
        engine.run_until(Picos::from_ps(1600 * 12_000));
        let net = engine.model().network();
        assert!(net.is_quiescent(), "network must still drain");
        assert_eq!(
            net.packets_delivered(),
            engine.model().packets_injected_measured()
        );
    }
}
