//! Precomputed flat routing tables.
//!
//! PR 6's [`Topology`] trait made arbitrary
//! fabrics possible, but it left a dispatched `route_inter` call — per-hop
//! coordinate arithmetic plus a candidate-`Vec` rebuild — inside the RC
//! stage of every head flit. Routing is a pure function of
//! `(algo, here, dst_router)` for a fixed topology, so this module
//! enumerates it **once at build time** into a dense flat array and serves
//! the flit hot path with a single indexed load: no dispatch, no
//! allocation, no division.
//!
//! ## Layout
//!
//! One [`RouteSet`] (4 bytes: a length byte plus up to
//! [`MAX_ROUTE_CANDIDATES`] packed port indices — port indices always fit
//! a `u8` because [`NocConfig::validate`] caps `ports × vcs` at 64) per
//! conceptual `(here_router, dst_rack)` pair. Two physical layouts store
//! that array:
//!
//! - **Per-pair** (folded Clos): indexed
//!   `here.index() * rack_count + dst_rack.index()`. Spine routers
//!   appear as sources but never as destinations, so the table is
//!   `router_count × rack_count` entries — a 4×4-leaf Clos costs
//!   20 × 16 × 4 B = 1.25 KB.
//! - **Delta-compressed** (mesh, torus): dimension-order routing is
//!   *translation-invariant* — the candidate set is a pure function of
//!   the signed coordinate delta `(dx, dy) = dst − here` — so the
//!   per-pair array compresses to `(2W−1) × (2H−1)` distinct rows,
//!   indexed `(dy + H−1) · (2W−1) + (dx + W−1)` after two L1-resident
//!   `router → (x, y)` lookups. The paper's 8×8 mesh costs
//!   15 × 15 × 4 B = 900 B; a 32×32 datacenter mesh costs
//!   63 × 63 × 4 B ≈ 15.9 KB, where the uncompressed per-pair array
//!   would be 1024² × 4 B = 4 MB. That difference is not just memory:
//!   per-pair rows at datacenter scale get evicted between one router's
//!   RC lookups (measured ~7% *slower* end-to-end than on-the-fly
//!   routing on a 32×32 mesh), while the delta table stays cache-hot.
//!
//! Entries with zero delta / on the diagonal (`here == dst` rack) are
//! unused — ejection depends on the destination *node*, served by the
//! node maps below.
//!
//! Alongside the port table sit two node-indexed maps,
//! `node → dst_router` and `node → local ejection port`, which replace the
//! per-flit `router_of_node` division/modulo on the hot path.
//!
//! ## Build-time oracle contract
//!
//! [`RouteTable::build`] calls the topology's `route_inter` for every
//! pair and stores the candidates **in the exact order the topology
//! pushed them**. Candidate order is load-bearing: the router's adaptive
//! selection breaks ties by position, so a reordered table would change
//! tie-breaks and break bit-reproducibility. This is why entries store
//! explicit ordered ports rather than a port bitmask — `WestFirst`
//! pushes East (port `npr+2`) before South/North (`npr+1`/`npr+0`), an
//! order no ascending bitmask walk can reproduce. The table is the only
//! routing path at run time; `route_inter` survives as the function the
//! table is built from and the oracle tests compare it against.
//!
//! ## Size bound
//!
//! Every configuration that passes [`NocConfig::validate`] gets a table.
//! `width` and `height` are `u8`, so a delta table holds at most
//! 509 × 509 entries ≈ 1 MiB. A folded-Clos router has
//! `max(nodes_per_rack + spines, leaves)` ports, so the `ports × vcs ≤ 64`
//! check caps it at 64 leaves and 63 spines: at most 127 × 64 per-pair
//! entries ≈ 32 KB.

use crate::config::NocConfig;
use crate::ids::{NodeId, PortId, RouterId};
use crate::routing::RoutingAlgorithm;
use crate::topology::{Topology, TopologyKind};
use std::sync::Arc;

/// Maximum number of minimal-route candidates any built-in algorithm
/// yields (`WestFirst` on a mesh: up to East + South/North… bounded by 3).
pub const MAX_ROUTE_CANDIDATES: usize = 3;

/// A packed, ordered candidate set: the output ports a head flit at one
/// router may take toward one destination rack, in the exact order the
/// routing algorithm proposed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteSet {
    len: u8,
    ports: [PortId; MAX_ROUTE_CANDIDATES],
}

impl RouteSet {
    /// The empty candidate set (diagonal table entries).
    pub const EMPTY: RouteSet = RouteSet {
        len: 0,
        ports: [PortId(0); MAX_ROUTE_CANDIDATES],
    };

    /// A single-candidate set.
    #[inline]
    pub fn single(port: PortId) -> RouteSet {
        let mut s = RouteSet::EMPTY;
        s.push(port);
        s
    }

    /// Packs a candidate slice (at most [`MAX_ROUTE_CANDIDATES`] ports),
    /// preserving order.
    pub fn from_slice(ports: &[PortId]) -> RouteSet {
        let mut s = RouteSet::EMPTY;
        for &p in ports {
            s.push(p);
        }
        s
    }

    #[inline]
    fn push(&mut self, port: PortId) {
        assert!(
            (self.len as usize) < MAX_ROUTE_CANDIDATES,
            "more than {MAX_ROUTE_CANDIDATES} route candidates"
        );
        self.ports[self.len as usize] = port;
        self.len += 1;
    }

    /// The candidates, in algorithm order.
    #[inline]
    pub fn as_slice(&self) -> &[PortId] {
        &self.ports[..self.len as usize]
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set holds no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// How a [`Network`](crate::network::Network) acquires its route table.
#[derive(Debug, Clone, Default)]
pub enum RouteTableMode {
    /// Build a table for the configured topology/algorithm. The default
    /// everywhere.
    #[default]
    Auto,
    /// Adopt a table built elsewhere. The sharded backend builds one
    /// table per run and hands the same `Arc` to every shard replica, so
    /// replicas never rebuild it.
    Shared(Arc<RouteTable>),
}

impl RouteTableMode {
    /// Resolves the mode against a configuration: the table the network
    /// should route through.
    pub fn resolve(self, config: &NocConfig) -> Arc<RouteTable> {
        match self {
            RouteTableMode::Auto => RouteTable::shared(config, config.routing),
            RouteTableMode::Shared(table) => {
                assert!(
                    table.matches(config, config.routing),
                    "shared route table was built for a different geometry or algorithm"
                );
                table
            }
        }
    }
}

/// How the conceptual `(here, dst_rack)` candidate array is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// One entry per `(here, dst_rack)` pair:
    /// `entries[here * racks + dst_rack]`. The general form; used by the
    /// folded Clos, whose up/down routes are not translation-invariant.
    PerPair,
    /// Mesh/torus compression: routing is a pure function of the signed
    /// coordinate delta, so
    /// `entries[(dy + h−1) * (2w−1) + (dx + w−1)]` after two
    /// `coords` lookups. Keeps datacenter-scale tables cache-resident.
    Delta { width: i32, height: i32 },
}

/// A dense precomputed routing table for one `(topology, algorithm)`
/// pair. Immutable once built; share across shard replicas via `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteTable {
    kind: TopologyKind,
    algo: RoutingAlgorithm,
    layout: Layout,
    racks: usize,
    routers: usize,
    /// Packed candidate sets, indexed per [`Layout`].
    entries: Vec<RouteSet>,
    /// `router → (x, y)` grid coordinate (delta layout only; empty for
    /// per-pair).
    coords: Vec<(u8, u8)>,
    /// `node → serving router` (replaces the hot-path division).
    node_router: Vec<RouterId>,
    /// `node → local ejection port` (replaces the hot-path modulo).
    node_local: Vec<PortId>,
}

impl RouteTable {
    /// Enumerates `route_inter` into the packed table for the configured
    /// topology, preserving candidate order exactly: per signed
    /// coordinate delta on the translation-invariant mesh/torus, per
    /// `(here, dst_rack)` pair on the folded Clos.
    pub fn build(config: &NocConfig, algo: RoutingAlgorithm) -> RouteTable {
        let topo = config.topo();
        let routers = topo.router_count();
        let racks = topo.rack_count();
        let mut scratch = Vec::with_capacity(MAX_ROUTE_CANDIDATES);
        let (layout, entries, coords) = match config.topology {
            TopologyKind::Mesh | TopologyKind::Torus => {
                let (w, h) = (config.width as i32, config.height as i32);
                let mut entries = vec![RouteSet::EMPTY; ((2 * w - 1) * (2 * h - 1)) as usize];
                for dy in -(h - 1)..=(h - 1) {
                    for dx in -(w - 1)..=(w - 1) {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        // A representative pair realizing this delta;
                        // translation invariance (asserted exhaustively
                        // below in debug builds, and differentially by
                        // tests/tests/route_table.rs) makes any choice
                        // equivalent.
                        let (x0, y0) = (dx.min(0).unsigned_abs(), dy.min(0).unsigned_abs());
                        let here = RouterId(y0 * config.width as u32 + x0);
                        let dst = RouterId(
                            (y0 as i32 + dy) as u32 * config.width as u32 + (x0 as i32 + dx) as u32,
                        );
                        scratch.clear();
                        topo.route_inter(algo, here, dst, &mut scratch);
                        debug_assert!(!scratch.is_empty(), "no route for delta ({dx}, {dy})");
                        entries[((dy + h - 1) * (2 * w - 1) + (dx + w - 1)) as usize] =
                            RouteSet::from_slice(&scratch);
                    }
                }
                let coords = (0..routers)
                    .map(|r| {
                        let c = config.coord_of(RouterId(r as u32));
                        (c.x, c.y)
                    })
                    .collect();
                (
                    Layout::Delta {
                        width: w,
                        height: h,
                    },
                    entries,
                    coords,
                )
            }
            TopologyKind::FoldedClos { .. } => {
                let mut entries = vec![RouteSet::EMPTY; routers * racks];
                for here in 0..routers {
                    let here_id = RouterId(here as u32);
                    for dst in 0..racks {
                        if here == dst {
                            continue;
                        }
                        scratch.clear();
                        topo.route_inter(algo, here_id, RouterId(dst as u32), &mut scratch);
                        debug_assert!(!scratch.is_empty(), "no route r{here} -> r{dst}");
                        entries[here * racks + dst] = RouteSet::from_slice(&scratch);
                    }
                }
                (Layout::PerPair, entries, Vec::new())
            }
        };
        let nodes = config.node_count();
        let node_router = (0..nodes)
            .map(|n| config.router_of_node(NodeId(n as u32)))
            .collect();
        let node_local = (0..nodes)
            .map(|n| PortId(config.local_index(NodeId(n as u32))))
            .collect();
        let table = RouteTable {
            kind: config.topology,
            algo,
            layout,
            racks,
            routers,
            entries,
            coords,
            node_router,
            node_local,
        };
        // Debug builds re-check the whole table against the oracle — for
        // the delta layout this is the exhaustive translation-invariance
        // proof, one `route_inter` per (here, dst_rack) pair.
        #[cfg(debug_assertions)]
        for here in 0..routers {
            let here_id = RouterId(here as u32);
            for dst in 0..racks {
                if here == dst {
                    continue;
                }
                scratch.clear();
                topo.route_inter(algo, here_id, RouterId(dst as u32), &mut scratch);
                debug_assert_eq!(
                    table.inter(here_id, RouterId(dst as u32)).as_slice(),
                    &scratch[..],
                    "table disagrees with route_inter at r{here} -> r{dst}"
                );
            }
        }
        table
    }

    /// Builds a table behind an `Arc`, ready to share across replicas.
    pub fn shared(config: &NocConfig, algo: RoutingAlgorithm) -> Arc<RouteTable> {
        Arc::new(RouteTable::build(config, algo))
    }

    /// The algorithm this table was built for.
    pub fn algorithm(&self) -> RoutingAlgorithm {
        self.algo
    }

    /// Whether this table serves the given configuration/algorithm
    /// (topology kind, grid shape, and entry and node counts).
    pub fn matches(&self, config: &NocConfig, algo: RoutingAlgorithm) -> bool {
        let shape_matches = match self.layout {
            Layout::PerPair => true,
            Layout::Delta { width, height } => {
                width == config.width as i32 && height == config.height as i32
            }
        };
        self.kind == config.topology
            && self.algo == algo
            && shape_matches
            && self.routers == config.router_count()
            && self.racks == config.rack_count()
            && self.node_router.len() == config.node_count()
    }

    /// Heap footprint of the packed tables, in bytes.
    pub fn bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<RouteSet>()
            + self.coords.len() * 2
            + self.node_router.len() * std::mem::size_of::<RouterId>()
            + self.node_local.len() * std::mem::size_of::<PortId>()
    }

    /// The inter-router table row for `here → dst_router` (`here` must
    /// differ from `dst_router`).
    #[inline]
    fn inter(&self, here: RouterId, dst_router: RouterId) -> RouteSet {
        let idx = match self.layout {
            Layout::PerPair => here.index() * self.racks + dst_router.index(),
            Layout::Delta { width, height } => {
                let (hx, hy) = self.coords[here.index()];
                let (dx, dy) = self.coords[dst_router.index()];
                let dx = dx as i32 - hx as i32 + (width - 1);
                let dy = dy as i32 - hy as i32 + (height - 1);
                (dy * (2 * width - 1) + dx) as usize
            }
        };
        self.entries[idx]
    }

    /// The flit-hot-path lookup: every permitted output port at `here`
    /// for a packet addressed to node `dst`, in algorithm order. At the
    /// destination rack this is the node's ejection port; elsewhere it is
    /// one indexed load from the packed table (after the L1-resident
    /// coordinate lookups in the delta layout). Returns by value (4
    /// bytes) so the caller keeps no borrow on the table.
    #[inline]
    pub fn candidates(&self, here: RouterId, dst: NodeId) -> RouteSet {
        let dst_router = self.node_router[dst.index()];
        if here == dst_router {
            RouteSet::single(self.node_local[dst.index()])
        } else {
            self.inter(here, dst_router)
        }
    }

    /// The router serving `dst` (table-backed [`NocConfig::router_of_node`]).
    #[inline]
    pub fn router_of_node(&self, dst: NodeId) -> RouterId {
        self.node_router[dst.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::route_candidates;
    use crate::topology::TopologyKind;

    fn all_configs() -> Vec<NocConfig> {
        let mut configs = vec![NocConfig::paper_default(), NocConfig::small_for_tests()];
        let mut torus = NocConfig::paper_default();
        torus.topology = TopologyKind::Torus;
        configs.push(torus);
        let mut clos = NocConfig::paper_default();
        clos.width = 4;
        clos.height = 4;
        clos.nodes_per_rack = 4;
        clos.topology = TopologyKind::FoldedClos { spines: 4 };
        configs.push(clos);
        configs
    }

    #[test]
    fn table_matches_oracle_on_every_pair() {
        let mut oracle = Vec::new();
        for config in all_configs() {
            for algo in [
                RoutingAlgorithm::XY,
                RoutingAlgorithm::YX,
                RoutingAlgorithm::WestFirst,
            ] {
                if algo == RoutingAlgorithm::WestFirst && config.topology == TopologyKind::Torus {
                    continue; // rejected by validate() without opt-in
                }
                let table = RouteTable::build(&config, algo);
                for here in 0..config.router_count() {
                    let here = RouterId(here as u32);
                    for node in 0..config.node_count() {
                        let dst = NodeId(node as u32);
                        route_candidates(&config, algo, here, dst, &mut oracle);
                        let got = table.candidates(here, dst);
                        assert_eq!(
                            got.as_slice(),
                            &oracle[..],
                            "{here} -> {dst} under {algo:?} on {:?}",
                            config.topology
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn route_set_preserves_order() {
        // WestFirst pushes East before South; a bitmask would invert this.
        let ports = [PortId(10), PortId(9)];
        let s = RouteSet::from_slice(&ports);
        assert_eq!(s.as_slice(), &ports);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(RouteSet::EMPTY.is_empty());
    }

    #[test]
    fn route_set_is_small() {
        assert_eq!(std::mem::size_of::<RouteSet>(), 4);
    }

    #[test]
    fn memory_math() {
        let c = NocConfig::paper_default();
        let t = RouteTable::build(&c, RoutingAlgorithm::XY);
        // Delta-compressed 8×8 mesh: 15 × 15 entries × 4 B + 64 router
        // coords × 2 B + 512-node maps (4 B router + 1 B port).
        assert_eq!(t.bytes(), 15 * 15 * 4 + 64 * 2 + 512 * 4 + 512);
        assert!(t.matches(&c, RoutingAlgorithm::XY));
        assert!(!t.matches(&c, RoutingAlgorithm::YX));
        assert!(!t.matches(&NocConfig::small_for_tests(), RoutingAlgorithm::XY));

        // The Clos keeps the per-pair layout: routers × racks entries.
        let mut clos = c.clone();
        clos.width = 4;
        clos.height = 4;
        clos.nodes_per_rack = 4;
        clos.topology = TopologyKind::FoldedClos { spines: 4 };
        let t = RouteTable::build(&clos, RoutingAlgorithm::XY);
        assert_eq!(t.bytes(), 20 * 16 * 4 + 64 * 4 + 64);
    }

    #[test]
    fn same_geometry_different_kind_is_a_mismatch() {
        // A mesh table must not serve a torus of the same dimensions:
        // entry counts agree, routes do not.
        let mesh = NocConfig::paper_default();
        let mut torus = NocConfig::paper_default();
        torus.topology = TopologyKind::Torus;
        let t = RouteTable::build(&mesh, RoutingAlgorithm::XY);
        assert!(!t.matches(&torus, RoutingAlgorithm::XY));
    }

    #[test]
    fn node_maps_kill_the_division() {
        let c = NocConfig::paper_default();
        let t = RouteTable::build(&c, RoutingAlgorithm::XY);
        for n in 0..c.node_count() {
            let n = NodeId(n as u32);
            assert_eq!(t.router_of_node(n), c.router_of_node(n));
            let at_home = t.candidates(c.router_of_node(n), n);
            assert_eq!(at_home.as_slice(), &[PortId(c.local_index(n))]);
        }
    }

    #[test]
    fn mode_resolution() {
        let c = NocConfig::small_for_tests();
        let table = Arc::new(RouteTable::build(&c, c.routing));
        let resolved = RouteTableMode::Shared(Arc::clone(&table)).resolve(&c);
        assert!(Arc::ptr_eq(&resolved, &table));
        assert!(RouteTableMode::Auto.resolve(&c).matches(&c, c.routing));
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn mismatched_shared_table_rejected() {
        let c = NocConfig::paper_default();
        let small = Arc::new(RouteTable::build(&NocConfig::small_for_tests(), c.routing));
        let _ = RouteTableMode::Shared(small).resolve(&c);
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn transposed_shared_table_rejected() {
        // A 4×2 mesh and a 2×4 mesh agree on every count the table keeps,
        // but their delta rows are laid out on different strides.
        let mut wide = NocConfig::small_for_tests();
        wide.width = 4;
        let mut tall = NocConfig::small_for_tests();
        tall.height = 4;
        let table = Arc::new(RouteTable::build(&wide, wide.routing));
        let _ = RouteTableMode::Shared(table).resolve(&tall);
    }
}
