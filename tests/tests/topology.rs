//! Property tests for the `lumen-noc` topology layer.
//!
//! The [`lumen_noc::Topology`] contract (see TOPOLOGIES.md) promises
//! that `route_inter` is deterministic, minimal, and livelock-free on
//! every built-in geometry. These tests generate random rectangular
//! meshes and tori with random endpoint pairs and walk the advertised
//! routes hop by hop, asserting:
//!
//! - **determinism** — the same `(topology, algorithm, here, dst)` query
//!   always returns the same candidate list;
//! - **minimality** — every candidate port leads to a router whose
//!   [`Topology::min_hops`] to the destination is exactly one less, so
//!   any selection policy over the candidates is livelock-free;
//! - **hop bounds** — the walked path length equals `min_hops(src, dst)`
//!   and stays within the geometry's diameter.
//!
//! West-first is checked on meshes only: on a torus it deliberately
//! routes mesh-style (the wrap channels stay idle; see the `Torus` docs),
//! so its paths are mesh-minimal, not torus-minimal.
//!
//! A differential test then runs a full system on a torus at shard
//! counts {1, 2} and asserts bit-identical results — the shard cuts a
//! topology provides must compose with the conservative-parallel engine
//! exactly like the mesh row bands do.

use lumen_core::prelude::*;
use lumen_noc::routing::RoutingAlgorithm;
use lumen_noc::{NocConfig, PortId, RouterId, Topology, TopologyKind};
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

/// `port → next router` maps, one per router, built from the topology's
/// own channel list (the same list the network wires links from).
fn next_hop_maps(topo: &dyn Topology) -> Vec<Vec<Option<RouterId>>> {
    let mut maps = vec![vec![None; topo.ports_per_router()]; topo.router_count()];
    let mut channels = Vec::new();
    topo.channels(&mut channels);
    for ch in &channels {
        let slot = &mut maps[ch.from.index()][ch.from_port.0 as usize];
        assert!(
            slot.is_none(),
            "two channels leave {:?} {:?}",
            ch.from,
            ch.from_port
        );
        *slot = Some(ch.to);
    }
    maps
}

/// Walks from `src` to `dst` following the *first* candidate at every
/// hop, asserting the per-hop invariants for **all** candidates; returns
/// the path length.
fn walk_and_check(
    topo: &dyn Topology,
    maps: &[Vec<Option<RouterId>>],
    algo: RoutingAlgorithm,
    src: RouterId,
    dst: RouterId,
) -> u32 {
    let mut here = src;
    let mut hops = 0u32;
    let mut out: Vec<PortId> = Vec::new();
    let mut again: Vec<PortId> = Vec::new();
    while here != dst {
        let remaining = topo.min_hops(here, dst);
        // `route_inter` appends (its caller owns clearing — see the
        // trait contract), so clear between hops.
        out.clear();
        again.clear();
        topo.route_inter(algo, here, dst, &mut out);
        assert!(!out.is_empty(), "no route {here:?} -> {dst:?}");
        topo.route_inter(algo, here, dst, &mut again);
        assert_eq!(out, again, "non-deterministic at {here:?} -> {dst:?}");
        for &port in &out {
            let next = maps[here.index()][port.0 as usize]
                .unwrap_or_else(|| panic!("{here:?} {port:?} leads nowhere"));
            assert_eq!(
                topo.min_hops(next, dst),
                remaining - 1,
                "{algo:?}: candidate {port:?} at {here:?} -> {dst:?} is not minimal"
            );
        }
        here = maps[here.index()][out[0].0 as usize].expect("checked above");
        hops += 1;
    }
    hops
}

/// Asserts the routing invariants for every endpoint pair of `config`'s
/// topology under `algos`, and that path lengths respect `diameter`.
fn assert_routing_invariants(config: &NocConfig, algos: &[RoutingAlgorithm], diameter: u32) {
    let topo = config.topo();
    let maps = next_hop_maps(&topo);
    for &algo in algos {
        for a in 0..topo.router_count() {
            for b in 0..topo.router_count() {
                if a == b {
                    continue;
                }
                let (src, dst) = (RouterId(a as u32), RouterId(b as u32));
                let hops = walk_and_check(&topo, &maps, algo, src, dst);
                assert_eq!(hops, topo.min_hops(src, dst), "{algo:?} {src:?} -> {dst:?}");
                assert!(
                    hops <= diameter,
                    "{algo:?} {src:?} -> {dst:?}: {hops} > {diameter}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random meshes: all three algorithms route minimally,
    /// deterministically, within the mesh diameter, between all pairs.
    #[test]
    fn mesh_routes_minimally_between_all_pairs(
        width in 1u8..6,
        height in 1u8..6,
    ) {
        let config = noc(TopologyKind::Mesh, width, height, 1);
        let diameter = (width as u32 - 1) + (height as u32 - 1);
        assert_routing_invariants(
            &config,
            &[RoutingAlgorithm::XY, RoutingAlgorithm::YX, RoutingAlgorithm::WestFirst],
            diameter,
        );
    }

    /// Random tori: XY and YX route minimally *in torus distance* (wrap
    /// links shorten paths), within the torus diameter.
    #[test]
    fn torus_routes_minimally_between_all_pairs(
        width in 1u8..6,
        height in 1u8..6,
    ) {
        let config = noc(TopologyKind::Torus, width, height, 1);
        let diameter = (width as u32 / 2) + (height as u32 / 2);
        assert_routing_invariants(
            &config,
            &[RoutingAlgorithm::XY, RoutingAlgorithm::YX],
            diameter,
        );
    }

    /// Random torus endpoint pairs never route *longer* than the same
    /// pair on the equally-sized mesh.
    #[test]
    fn torus_never_loses_to_mesh(
        width in 2u8..6,
        height in 2u8..6,
        a in 0u32..25,
        b in 0u32..25,
    ) {
        let routers = width as u32 * height as u32;
        let (a, b) = (RouterId(a % routers), RouterId(b % routers));
        let mesh = noc(TopologyKind::Mesh, width, height, 1).topo();
        let torus = noc(TopologyKind::Torus, width, height, 1).topo();
        prop_assert!(torus.min_hops(a, b) <= mesh.min_hops(a, b));
    }
}

/// The folded Clos routes every leaf pair up-then-down in exactly two
/// hops, regardless of algorithm (the turn models have no meaning there).
#[test]
fn folded_clos_routes_up_then_down() {
    let config = noc(TopologyKind::FoldedClos { spines: 3 }, 3, 2, 2);
    let topo = config.topo();
    let maps = next_hop_maps(&topo);
    let leaves = config.rack_count();
    for algo in [RoutingAlgorithm::XY, RoutingAlgorithm::WestFirst] {
        for a in 0..leaves {
            for b in 0..leaves {
                if a == b {
                    continue;
                }
                let (src, dst) = (RouterId(a as u32), RouterId(b as u32));
                assert_eq!(walk_and_check(&topo, &maps, algo, src, dst), 2);
            }
        }
    }
}

/// The shard bit-identity contract extends to topology-provided cuts: a
/// full power-aware system on a 4×4 torus produces bit-identical results
/// sharded and sequential (same assertions as `tests/sharded.rs` makes
/// for the mesh row bands).
#[test]
fn sharded_torus_matches_sequential_bit_for_bit() {
    let mut config = SystemConfig::paper_default().with_seed(17);
    config.noc = noc(TopologyKind::Torus, 4, 4, 2);
    config.policy.timing.tw_cycles = 200;
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(3_000)
        .audit_conservation();
    let seq = exp
        .clone()
        .shards(1)
        .run_uniform(0.15, PacketSize::Fixed(4));
    assert!(seq.packets_delivered > 0);
    let par = exp.shards(2).run_uniform(0.15, PacketSize::Fixed(4));
    assert_eq!(par.packets_injected, seq.packets_injected);
    assert_eq!(par.packets_delivered, seq.packets_delivered);
    assert_eq!(
        par.avg_latency_cycles.to_bits(),
        seq.avg_latency_cycles.to_bits()
    );
    assert_eq!(
        par.p99_latency_cycles.to_bits(),
        seq.p99_latency_cycles.to_bits()
    );
    assert_eq!(par.avg_power_mw.to_bits(), seq.avg_power_mw.to_bits());
    assert_eq!(par.transitions, seq.transitions);
}

/// Same contract on the folded Clos (cuts are leaf row bands with the
/// spines appended to the last band).
#[test]
fn sharded_folded_clos_matches_sequential_bit_for_bit() {
    let mut config = SystemConfig::paper_default().with_seed(23);
    config.noc = noc(TopologyKind::FoldedClos { spines: 2 }, 2, 2, 2);
    config.policy.timing.tw_cycles = 200;
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(3_000)
        .audit_conservation();
    let seq = exp.clone().shards(1).run_uniform(0.1, PacketSize::Fixed(4));
    assert!(seq.packets_delivered > 0);
    let par = exp.shards(2).run_uniform(0.1, PacketSize::Fixed(4));
    assert_eq!(par.packets_delivered, seq.packets_delivered);
    assert_eq!(
        par.avg_latency_cycles.to_bits(),
        seq.avg_latency_cycles.to_bits()
    );
    assert_eq!(par.avg_power_mw.to_bits(), seq.avg_power_mw.to_bits());
}

/// A datacenter-workload end-to-end run on a torus delivers traffic and
/// conserves flits (the `ext_datacenter` machinery is topology-agnostic).
#[test]
fn datacenter_workload_runs_on_a_torus() {
    let mut config = SystemConfig::paper_default().with_seed(5);
    config.noc = noc(TopologyKind::Torus, 4, 4, 2);
    config.policy.timing.tw_cycles = 200;
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(4_000)
        .audit_conservation();
    let point = Point::new(
        "dc-torus",
        exp,
        Workload::Datacenter {
            config: DatacenterConfig {
                diurnal_period_cycles: 2_000,
                incast_period_cycles: 500,
                ..DatacenterConfig::web_like(8)
            },
        },
    );
    let r = point.run_at_index(0);
    assert!(r.packets_delivered > 0);
    assert_eq!(r.packets_dropped, 0);
}
