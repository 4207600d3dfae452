//! Differential and bit-identity tests for the precomputed route table.
//!
//! The [`lumen_noc::RouteTable`] bakes `route_inter` into a dense flat
//! array at build time so the router's RC stage becomes one indexed
//! load; it is the only routing path at run time. These tests pin the
//! two promises that make that safe:
//!
//! - **differential** — for random mesh/torus/Clos geometries and every
//!   routing algorithm, the table's `candidates(here, dst)` equals the
//!   `route_candidates` oracle for *every* `(router, node)` pair, spine
//!   routers included, in the same candidate order (adaptive tie-breaks
//!   select by position, so order equality — not set equality — is the
//!   contract). All router code after the lookup is shared, so this is
//!   what makes table routing equal to routing on the fly;
//! - **bit identity** — a full system run produces bit-identical
//!   results whether each network builds its own table (`Auto`) or
//!   adopts a pre-built one (`Shared`), sequential and sharded, on every
//!   fabric, link policy, optical mode, fault schedule, and traffic
//!   family the suite uses.

use std::sync::Arc;

use lumen_core::prelude::*;
use lumen_core::{run_sharded_with, ShardedOutcome};
use lumen_desim::Rng;
use lumen_noc::routing::{route_candidates, RoutingAlgorithm};
use lumen_noc::{NocConfig, NodeId, PortId, RouteTable, RouterId, TopologyKind};
use lumen_policy::OnOffConfig;
use lumen_traffic::{DatacenterSource, TrafficSource};
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;

/// A small geometry of the given kind on the unit-test clock envelope.
fn noc(kind: TopologyKind, width: u8, height: u8, npr: u8) -> NocConfig {
    let mut c = NocConfig::small_for_tests();
    c.width = width;
    c.height = height;
    c.nodes_per_rack = npr;
    c.topology = kind;
    c
}

/// Asserts `RouteTable::build` agrees with the `route_candidates` oracle
/// for every `(here, dst)` pair of `config` under each algorithm, from
/// every router (Clos spines included).
fn assert_table_matches_oracle(config: &NocConfig, algos: &[RoutingAlgorithm]) {
    let mut scratch: Vec<PortId> = Vec::new();
    for &algo in algos {
        let table = RouteTable::build(config, algo);
        assert!(table.matches(config, algo));
        for here in 0..config.router_count() {
            let here = RouterId(here as u32);
            for dst in 0..config.node_count() {
                let dst = NodeId(dst as u32);
                route_candidates(config, algo, here, dst, &mut scratch);
                assert_eq!(
                    table.candidates(here, dst).as_slice(),
                    scratch.as_slice(),
                    "{algo:?} table != oracle at {here:?} -> {dst:?}"
                );
                assert_eq!(table.router_of_node(dst), config.router_of_node(dst));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random meshes: the table reproduces the oracle for all three
    /// algorithms, all routers, all destination nodes.
    #[test]
    fn mesh_table_matches_oracle(
        width in 1u8..6,
        height in 1u8..6,
        npr in 1u8..3,
    ) {
        let config = noc(TopologyKind::Mesh, width, height, npr);
        assert_table_matches_oracle(
            &config,
            &[RoutingAlgorithm::XY, RoutingAlgorithm::YX, RoutingAlgorithm::WestFirst],
        );
    }

    /// Random tori: XY and YX (west-first deliberately routes mesh-style
    /// on tori and is exercised by the mesh cases above).
    #[test]
    fn torus_table_matches_oracle(
        width in 1u8..6,
        height in 1u8..6,
        npr in 1u8..3,
    ) {
        let config = noc(TopologyKind::Torus, width, height, npr);
        assert_table_matches_oracle(
            &config,
            &[RoutingAlgorithm::XY, RoutingAlgorithm::YX],
        );
    }

    /// Random folded-Clos fabrics: up/down routing tables match the
    /// oracle from every leaf and every spine.
    #[test]
    fn folded_clos_table_matches_oracle(
        width in 1u8..4,
        height in 1u8..3,
        spines in 1u8..4,
        npr in 1u8..3,
    ) {
        let config = noc(TopologyKind::FoldedClos { spines }, width, height, npr);
        assert_table_matches_oracle(
            &config,
            &[RoutingAlgorithm::XY, RoutingAlgorithm::WestFirst],
        );
    }
}

/// The traffic a bit-identity case drives.
#[derive(Clone, Copy, Debug)]
enum Traffic {
    /// Uniform-random synthetic traffic at this rate (packets/cycle).
    Uniform(f64),
    /// Request/response datacenter traffic with incast bursts.
    Datacenter,
}

impl Traffic {
    fn source(self, config: &SystemConfig) -> Box<dyn TrafficSource + Send> {
        let rng = Rng::seed_from(config.seed);
        match self {
            Traffic::Uniform(rate) => Box::new(SyntheticSource::new(
                &config.noc,
                Pattern::Uniform,
                RateProfile::Constant(rate),
                PacketSize::Fixed(4),
                rng,
            )),
            Traffic::Datacenter => Box::new(DatacenterSource::new(
                &config.noc,
                DatacenterConfig {
                    diurnal_period_cycles: 2_000,
                    incast_period_cycles: 500,
                    ..DatacenterConfig::web_like(8)
                },
                rng,
            )),
        }
    }
}

/// One bit-identity case: a small full system (power policy on unless
/// the case says otherwise) and what runs through it.
struct Case {
    tag: &'static str,
    config: SystemConfig,
    traffic: Traffic,
    telemetry: TelemetryConfig,
    sample_every: Option<u64>,
}

fn case(tag: &'static str, kind: TopologyKind, seed: u64) -> Case {
    let mut config = SystemConfig::paper_default().with_seed(seed);
    config.noc = noc(kind, 4, 4, 2);
    config.policy.timing.tw_cycles = 200;
    Case {
        tag,
        config,
        traffic: Traffic::Uniform(0.15),
        telemetry: TelemetryConfig::default(),
        sample_every: None,
    }
}

/// Every feature the rest of the suite drives through `Experiment`:
/// each fabric, each link policy, both optical modes, faults,
/// telemetry, sampling, and both traffic families.
fn cases() -> Vec<Case> {
    let mut onoff = case("on/off gating", TopologyKind::Mesh, 37);
    onoff.config.policy = onoff
        .config
        .policy
        .with_onoff(OnOffConfig::reference_default());
    let mut non_pa = case("non-power-aware", TopologyKind::Mesh, 41);
    non_pa.config.power_aware = false;
    let mut observed = case(
        "three-level optics, faults, telemetry",
        TopologyKind::Mesh,
        43,
    );
    observed.config.policy.optical_mode = OpticalMode::ThreeLevel;
    observed.config.faults = FaultConfig {
        outage_mtbf_cycles: 600,
        outage_mean_duration_cycles: 40,
        dropout_mtbf_cycles: 900,
        dropout_mean_duration_cycles: 60,
        ..FaultConfig::disabled()
    };
    observed.telemetry = TelemetryConfig::full();
    observed.sample_every = Some(500);
    let mut datacenter = case("datacenter traffic", TopologyKind::Mesh, 47);
    datacenter.traffic = Traffic::Datacenter;
    vec![
        case("mesh", TopologyKind::Mesh, 29),
        case("torus", TopologyKind::Torus, 29),
        case("folded clos", TopologyKind::FoldedClos { spines: 2 }, 31),
        onoff,
        non_pa,
        observed,
        datacenter,
    ]
}

/// Everything a run reports, in comparable form: exact counters, float
/// bits (mean and p99 latency, power), the latency histogram, sampled
/// series, and the exported trace bytes.
fn fingerprint(outcome: ShardedOutcome) -> (Vec<u64>, String) {
    let ShardedOutcome {
        mut sim,
        end,
        events,
        ..
    } = outcome;
    lumen_noc::audit(sim.network()).assert_ok();
    let trace = sim
        .take_telemetry_report(end, events)
        .map_or_else(String::new, |t| t.to_jsonl());
    let latency = sim.latency_summary();
    let histogram = sim.latency_histogram();
    let series = format!("{histogram:?}{:?}", sim.series());
    (
        vec![
            sim.packets_injected_measured(),
            sim.network().packets_delivered(),
            latency.count(),
            latency.mean().to_bits(),
            histogram.percentile_clamped(99.0).0.to_bits(),
            sim.average_power(end).as_mw().to_bits(),
            sim.normalized_power(end).to_bits(),
            sim.transitions(),
            sim.packets_dropped_measured(),
            sim.flits_dropped_measured(),
            sim.flits_corrupted_measured(),
            sim.link_faults_measured(),
        ],
        trace + &series,
    )
}

/// Runs `case` at `shards` under both route-table modes and asserts a
/// pre-built `Shared` table replays the `Auto` run bit for bit.
fn assert_modes_identical(case: &Case, shards: usize) {
    let table = Arc::new(RouteTable::build(&case.config.noc, case.config.noc.routing));
    let run = |mode: RouteTableMode| {
        fingerprint(run_sharded_with(
            case.config.clone(),
            case.traffic.source(&case.config),
            case.sample_every,
            case.telemetry,
            400,
            3_000,
            shards,
            None,
            mode,
        ))
    };
    let auto = run(RouteTableMode::Auto);
    assert!(auto.0[2] > 0, "{}: nothing delivered", case.tag);
    assert_eq!(
        run(RouteTableMode::Shared(table)),
        auto,
        "{}: shared vs auto at {shards} shards",
        case.tag
    );
}

/// Adopting a pre-built table never changes results on the sequential
/// engine.
#[test]
fn table_modes_replay_bit_identically_sequential() {
    for case in cases() {
        assert_modes_identical(&case, 1);
    }
}

/// Same contract through the sharded conservative-parallel engine, whose
/// workers share one `Arc`'d table in both modes.
#[test]
fn table_modes_replay_bit_identically_sharded() {
    for case in cases() {
        assert_modes_identical(&case, 2);
    }
}
