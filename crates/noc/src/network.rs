//! The assembled network.
//!
//! [`Network`] owns the routers, nodes and links of the paper's system
//! (Fig. 3(a) / Fig. 4) — or of whichever fabric the configuration's
//! [`Topology`] describes — and exposes a *passive* stepping interface: the
//! caller owns the event loop and invokes [`Network::tick`] once per router
//! cycle. The tick returns [`Effect`]s; the caller puts each flit and
//! credit on its link's wire ([`Network::send_flit`] /
//! [`Network::send_credit`]), and the network delivers them from there
//! around the next ticks ([`Network::deliver_before`] /
//! [`Network::deliver_held`]). Links are FIFO wires, so each link's
//! in-flight traffic is a time-ordered queue and needs no event calendar.
//! Flits on ejection links are the exception: the caller delivers them
//! itself through [`Network::flit_arrived`], because the order in which
//! packets complete at different sinks is observable. The power-aware
//! layer manipulates link rates between ticks through
//! [`Network::link_mut`].

use crate::config::NocConfig;
use crate::flit::{Flit, Packet};
use crate::ids::{LinkId, NodeId, PacketId, PortId, RouterId, VcId};
use crate::link::{Endpoint, Link, LinkKind};
use crate::node::{SinkNode, SourceNode};
use crate::route_table::{RouteTable, RouteTableMode};
use crate::router::Router;
use crate::routing::RoutingAlgorithm;
use crate::topology::Topology;
use lumen_desim::Picos;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// An externally-visible consequence of stepping the network; the driver
/// hands each back for delivery at its `at` time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// A flit finishes traversing `link` (put it on the wire with
    /// [`Network::send_flit`], or on an ejection link deliver it via
    /// [`Network::flit_arrived`]).
    Flit {
        /// The traversed link.
        link: LinkId,
        /// The downstream VC the flit occupies.
        vc: VcId,
        /// The flit itself.
        flit: Flit,
        /// Arrival time at the downstream endpoint.
        at: Picos,
    },
    /// A credit travels back to the upstream side of `link` (put it on
    /// the wire with [`Network::send_credit`]).
    Credit {
        /// The link whose upstream endpoint regains a buffer slot.
        link: LinkId,
        /// The VC the credit belongs to.
        vc: VcId,
        /// Credit arrival time.
        at: Picos,
    },
    /// A packet fully left the network at its destination.
    Ejected {
        /// The packet.
        packet: PacketId,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Packet length in flits.
        size_flits: u32,
        /// When the packet was created (latency start).
        created_at: Picos,
        /// When the tail flit arrived (latency end).
        at: Picos,
    },
}

/// A flit or credit still on a link's wire (see [`Network::take_in_flight`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlight {
    /// When it reaches the far end of the link.
    pub at: Picos,
    /// Its place among same-time events (see [`Network::send_flit`]).
    pub seq: u64,
    /// The link it travels on.
    pub link: LinkId,
    /// The VC it belongs to.
    pub vc: VcId,
    /// The flit travelling downstream, or `None` for a credit travelling
    /// back upstream.
    pub flit: Option<Flit>,
}

/// A flit on a link's wire.
#[derive(Debug, Clone, Copy)]
struct WireFlit {
    at: Picos,
    seq: u64,
    vc: VcId,
    flit: Flit,
}

/// A credit on a link's return path.
#[derive(Debug, Clone, Copy)]
struct WireCredit {
    at: Picos,
    seq: u64,
    vc: VcId,
}

/// Arrivals on links that another shard replica sends on (see
/// [`Network::set_foreign_links`]).
#[derive(Debug, Clone)]
struct ForeignLinks {
    links: ActiveSet,
    arrivals: Vec<u64>,
}

/// Everything in flight: per link, a FIFO of the flits travelling down
/// it and one of the credits travelling back, each in `(at, seq)` order
/// because a link delivers in send order. Queues start unallocated and
/// grow to the link's in-flight peak (a few entries), so idle links cost
/// nothing.
#[derive(Debug, Clone)]
struct Wires {
    flits: Vec<VecDeque<WireFlit>>,
    credits: Vec<VecDeque<WireCredit>>,
    // Links whose queue is non-empty.
    flit_links: ActiveSet,
    credit_links: ActiveSet,
    // Links whose queue head is due at the latest sweep's time but after
    // its tick (see `Network::deliver_held`).
    held_flits: Vec<u32>,
    held_credits: Vec<u32>,
    // Time of the latest `deliver_before` sweep.
    swept: Option<Picos>,
    foreign: Option<Box<ForeignLinks>>,
}

impl Wires {
    fn new(links: usize) -> Self {
        Wires {
            flits: (0..links).map(|_| VecDeque::new()).collect(),
            credits: (0..links).map(|_| VecDeque::new()).collect(),
            flit_links: ActiveSet::from_fn(links, |_| false),
            credit_links: ActiveSet::from_fn(links, |_| false),
            held_flits: Vec::new(),
            held_credits: Vec::new(),
            swept: None,
            foreign: None,
        }
    }

    /// Re-marks the non-empty queues (after queues are replaced).
    fn rebuild_sets(&mut self) {
        let (flits, credits) = (&self.flits, &self.credits);
        self.flit_links = ActiveSet::from_fn(flits.len(), |l| !flits[l].is_empty());
        self.credit_links = ActiveSet::from_fn(credits.len(), |l| !credits[l].is_empty());
    }
}

/// The whole simulated network system.
#[derive(Debug, Clone)]
pub struct Network {
    config: NocConfig,
    routers: Vec<Router>,
    sources: Vec<SourceNode>,
    sinks: Vec<SinkNode>,
    links: Vec<Link>,
    // Precomputed flat routing table serving the RC stage (see
    // `crate::route_table`). Shared by `Arc` so shard replicas adopt one
    // build instead of each redoing the all-pairs enumeration.
    route_table: Arc<RouteTable>,
    // Dense copies of each link's endpoints (fixed at construction).
    // `Link` is a large struct (rate ladder state, window statistics), so
    // the delivery paths — ~2 lookups per flit hop, tens of
    // millions per run — read these 8-byte entries instead of pulling a
    // whole `Link` through the cache for the destination alone.
    to_ep: Vec<Endpoint>,
    from_ep: Vec<Endpoint>,
    inter_router_links: usize,
    ticks: u64,
    // The sweep's work lists: routers that are not idle and sources with
    // queued flits. See `ActiveSet`.
    active_routers: ActiveSet,
    active_sources: ActiveSet,
    wires: Wires,
}

/// A bitset over component indices (routers or sources) that marks the
/// ones a tick must visit.
///
/// A bit is set when its component gains work (a router accepts a flit, a
/// source is handed a packet) and cleared when a tick leaves the component
/// with none. Idle components' ticks change no state, so visiting only set
/// bits, in ascending index order, is the full in-order scan minus no-ops.
#[derive(Debug, Clone, Default)]
struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// A set over `n` indices with index `i` marked iff `busy(i)`.
    fn from_fn(n: usize, busy: impl Fn(usize) -> bool) -> Self {
        let mut words = vec![0u64; n.div_ceil(64)];
        for i in (0..n).filter(|&i| busy(i)) {
            words[i >> 6] |= 1 << (i & 63);
        }
        ActiveSet { words }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }

    /// Calls `step(i)` on every marked index in `range`, ascending, and
    /// unmarks `i` when `step` returns false (the component went idle).
    /// `step` must not mark other indices.
    #[inline]
    fn sweep(&mut self, range: std::ops::Range<usize>, mut step: impl FnMut(usize) -> bool) {
        if range.is_empty() {
            return;
        }
        let (first, last) = (range.start >> 6, (range.end - 1) >> 6);
        for wi in first..=last {
            let mut w = self.words[wi];
            if wi == first {
                w &= !0u64 << (range.start & 63);
            }
            if wi == last && range.end & 63 != 0 {
                w &= (1u64 << (range.end & 63)) - 1;
            }
            while w != 0 {
                let bit = w.trailing_zeros();
                w &= w - 1;
                if !step(wi << 6 | bit as usize) {
                    self.words[wi] &= !(1u64 << bit);
                }
            }
        }
    }
}

impl Network {
    /// Builds the network with the configuration's routing discipline.
    pub fn new(config: &NocConfig) -> Self {
        Network::with_routing(config, config.routing)
    }

    /// Builds the network with an explicit routing algorithm (overriding
    /// the configuration's choice).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`NocConfig::validate`]).
    pub fn with_routing(config: &NocConfig, routing: RoutingAlgorithm) -> Self {
        Network::with_route_table(config, routing, RouteTableMode::Auto)
    }

    /// Builds the network with an explicit routing algorithm and route-
    /// table mode: [`RouteTableMode::Auto`] precomputes the flat table,
    /// and [`RouteTableMode::Shared`] adopts a table built once for many
    /// replicas (the sharded backend).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`NocConfig::validate`])
    /// or a shared table does not match it.
    pub fn with_route_table(
        config: &NocConfig,
        routing: RoutingAlgorithm,
        mode: RouteTableMode,
    ) -> Self {
        config.validate();
        // Resolve against the *effective* algorithm: `with_routing` may
        // override the config's choice, and the table must serve the
        // algorithm the routers actually run.
        let mut effective = config.clone();
        effective.routing = routing;
        let route_table = mode.resolve(&effective);
        let topo = config.topo();
        let mut routers: Vec<Router> = (0..topo.router_count())
            .map(|r| Router::new(RouterId(r as u32), routing, config))
            .collect();
        let mut links = Vec::new();

        // Inter-router channels, in the topology's enumeration order
        // (grouped by source router ascending; see `crate::topology`).
        let mut channels = Vec::new();
        topo.channels(&mut channels);
        for ch in channels {
            let id = LinkId(links.len() as u32);
            links.push(Link::new(
                id,
                LinkKind::InterRouter,
                Endpoint::RouterPort {
                    router: ch.from,
                    port: ch.from_port,
                },
                Endpoint::RouterPort {
                    router: ch.to,
                    port: ch.to_port,
                },
                config.flit_bits,
                topo.channel_latency(&ch, config.propagation),
                config.max_rate,
            ));
            routers[ch.from.index()].connect_output(ch.from_port, id);
            routers[ch.to.index()].connect_input(ch.to_port, id);
        }
        let inter_router_links = links.len();

        // Injection and ejection channels.
        let mut sources = Vec::with_capacity(config.node_count());
        let mut sinks = Vec::with_capacity(config.node_count());
        for n in 0..config.node_count() {
            let node = NodeId(n as u32);
            let router = config.router_of_node(node);
            let local = PortId(config.local_index(node));

            let inj = LinkId(links.len() as u32);
            links.push(Link::new(
                inj,
                LinkKind::Injection,
                Endpoint::Node(node),
                Endpoint::RouterPort {
                    router,
                    port: local,
                },
                config.flit_bits,
                config.propagation,
                config.max_rate,
            ));
            routers[router.index()].connect_input(local, inj);
            sources.push(SourceNode::new(
                node,
                inj,
                config.vcs,
                config.depth_per_vc(),
            ));

            let ej = LinkId(links.len() as u32);
            links.push(Link::new(
                ej,
                LinkKind::Ejection,
                Endpoint::RouterPort {
                    router,
                    port: local,
                },
                Endpoint::Node(node),
                config.flit_bits,
                config.propagation,
                config.max_rate,
            ));
            routers[router.index()].connect_output(local, ej);
            sinks.push(SinkNode::new(node, ej));
        }

        let to_ep = links.iter().map(Link::to).collect();
        let from_ep = links.iter().map(Link::from).collect();
        let active_routers = ActiveSet::from_fn(routers.len(), |_| false);
        let active_sources = ActiveSet::from_fn(sources.len(), |_| false);
        let wires = Wires::new(links.len());
        Network {
            config: config.clone(),
            routers,
            sources,
            sinks,
            links,
            route_table,
            to_ep,
            from_ep,
            inter_router_links,
            ticks: 0,
            active_routers,
            active_sources,
            wires,
        }
    }

    /// Rebuilds both active sets from component state (after state is
    /// replaced wholesale: restore and shard merge).
    fn rebuild_active_sets(&mut self) {
        let (routers, sources) = (&self.routers, &self.sources);
        self.active_routers = ActiveSet::from_fn(routers.len(), |r| !routers[r].is_idle());
        self.active_sources = ActiveSet::from_fn(sources.len(), |n| sources[n].backlog_flits() > 0);
    }

    /// Whether the active sets mark exactly the non-idle routers in
    /// `routers` and the backlogged sources in `nodes` — the invariant
    /// every [`Network::tick_range`] leaves behind for its region.
    fn active_sets_match(
        &self,
        routers: std::ops::Range<usize>,
        nodes: std::ops::Range<usize>,
    ) -> bool {
        routers
            .into_iter()
            .all(|r| self.active_routers.contains(r) != self.routers[r].is_idle())
            && nodes
                .into_iter()
                .all(|n| self.active_sources.contains(n) == (self.sources[n].backlog_flits() > 0))
    }

    /// The precomputed route table serving this network's RC stage.
    pub fn route_table(&self) -> &Arc<RouteTable> {
        &self.route_table
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Number of processing nodes.
    pub fn node_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of links of all kinds.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of inter-router (mesh) links.
    pub fn inter_router_links(&self) -> usize {
        self.inter_router_links
    }

    /// Core cycles executed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Immutable access to a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutable access to a link (the power-aware layer's rate-change hook).
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }

    /// Iterates over all links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Immutable access to a router.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }

    /// The per-VC credit counters of the output port feeding `link`. The
    /// sharded backend reads these on boundary inter-router links at every
    /// barrier to bound how far the next window may stretch before a
    /// missing cross-cut credit could change a switch-allocation decision.
    ///
    /// # Panics
    ///
    /// Panics if `link` is an injection link (no upstream router port).
    pub fn output_credits(&self, link: LinkId) -> &[u16] {
        match self.from_ep[link.index()] {
            Endpoint::RouterPort { router, port } => {
                self.routers[router.index()].output_credits(port)
            }
            Endpoint::Node(_) => panic!("{link:?} has no upstream router port"),
        }
    }

    /// Iterates over all routers (conservation auditor).
    pub fn routers(&self) -> impl Iterator<Item = &Router> {
        self.routers.iter()
    }

    /// Iterates over all source nodes (conservation auditor).
    pub fn sources(&self) -> impl Iterator<Item = &SourceNode> {
        self.sources.iter()
    }

    /// Iterates over all sink nodes (conservation auditor).
    pub fn sinks(&self) -> impl Iterator<Item = &SinkNode> {
        self.sinks.iter()
    }

    /// Queues a packet at its source node.
    pub fn inject(&mut self, packet: Packet) {
        let src = packet.src.index();
        self.sources[src].enqueue(packet);
        self.active_sources.insert(src);
    }

    /// One router-core cycle: all sources try to inject, all routers step
    /// their pipelines. Effects are appended to `effects`.
    pub fn tick(&mut self, now: Picos, effects: &mut Vec<Effect>) {
        let (routers, nodes) = (0..self.routers.len(), 0..self.sources.len());
        self.tick_range(now, effects, routers, nodes);
    }

    /// One router-core cycle restricted to a contiguous region: the
    /// sources in `nodes` step, then the routers in `routers`, each in
    /// ascending index order. [`Network::tick`] is the whole-network
    /// region; the sharded runtime ticks each replica's own rows, so
    /// effect emission order within a shard matches the sequential
    /// engine's order restricted to that region.
    ///
    /// Only components in the active sets are visited: an idle router or
    /// an empty source would do nothing.
    pub fn tick_range(
        &mut self,
        now: Picos,
        effects: &mut Vec<Effect>,
        routers: std::ops::Range<usize>,
        nodes: std::ops::Range<usize>,
    ) {
        self.ticks += 1;
        let Network {
            config,
            routers: all_routers,
            sources,
            links,
            route_table,
            active_routers,
            active_sources,
            ..
        } = self;
        active_sources.sweep(nodes.clone(), |n| {
            sources[n].tick(now, links, effects);
            sources[n].backlog_flits() > 0
        });
        let table: &RouteTable = route_table;
        active_routers.sweep(routers.clone(), |r| {
            all_routers[r].tick(now, config, table, links, effects);
            !all_routers[r].is_idle()
        });
        debug_assert!(
            self.active_sets_match(routers, nodes),
            "active sets disagree with router/source state after a tick"
        );
    }

    /// Whether `link` is an ejection link (router to sink). Its flits are
    /// not wired: the caller delivers them with [`Network::flit_arrived`].
    #[inline]
    pub fn is_ejection(&self, link: LinkId) -> bool {
        matches!(self.to_ep[link.index()], Endpoint::Node(_))
    }

    /// Delivers a flit that finished traversing ejection link `link` to
    /// its sink (an [`Effect::Flit`] whose time has come). The sink's
    /// credit return and, for a tail flit, the packet's
    /// [`Effect::Ejected`] are appended to `effects`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not an ejection link: every other flit arrives
    /// from its wire ([`Network::send_flit`]).
    pub fn flit_arrived(
        &mut self,
        now: Picos,
        link: LinkId,
        vc: VcId,
        flit: Flit,
        effects: &mut Vec<Effect>,
    ) {
        let Endpoint::Node(n) = self.to_ep[link.index()] else {
            panic!("{link} is wired: its flits arrive through send_flit");
        };
        self.links[link.index()].note_arrival();
        self.sinks[n.index()].receive(now, vc, flit, self.config.credit_delay, effects);
    }

    /// Puts a flit on `link`'s wire, due at the downstream router at `at`.
    ///
    /// `seq` places the arrival among events of the caller's calendar
    /// that share its timestamp: [`Network::deliver_before`] hands it over
    /// ahead of a calendar event with a higher number. A driver reserves
    /// it from its calendar's counter
    /// ([`lumen_desim::EventQueue::reserve_seq`]) at the moment the
    /// calendar version would have scheduled the arrival, which keeps
    /// every same-time order of a calendar-driven run.
    ///
    /// Sends on one link must come in `(at, seq)` order — a FIFO wire
    /// delivers in send order. Ejection links are not wired.
    pub fn send_flit(&mut self, link: LinkId, at: Picos, seq: u64, vc: VcId, flit: Flit) {
        debug_assert!(
            !self.is_ejection(link),
            "{link}: ejection flits are not wired"
        );
        let queue = &mut self.wires.flits[link.index()];
        debug_assert!(
            queue.back().is_none_or(|b| (b.at, b.seq) < (at, seq)),
            "{link}: flit sent out of arrival order"
        );
        queue.push_back(WireFlit { at, seq, vc, flit });
        self.wires.flit_links.insert(link.index());
    }

    /// Puts a credit on `link`'s return path, due at the upstream end at
    /// `at`; `seq` as for [`Network::send_flit`].
    ///
    /// A credit due at or before the latest [`Network::deliver_before`]
    /// time (zero credit delay, or a late credit from another shard) is
    /// returned at once: a calendar would hand it over before the next
    /// tick, and nothing else reads credit counters.
    pub fn send_credit(&mut self, link: LinkId, at: Picos, seq: u64, vc: VcId) {
        if self.wires.swept.is_some_and(|swept| at <= swept) {
            self.land_credit(link.index(), vc);
            return;
        }
        let queue = &mut self.wires.credits[link.index()];
        debug_assert!(
            queue.back().is_none_or(|b| (b.at, b.seq) < (at, seq)),
            "{link}: credit sent out of arrival order"
        );
        queue.push_back(WireCredit { at, seq, vc });
        self.wires.credit_links.insert(link.index());
    }

    /// Delivers everything on the wires that a calendar would have handled
    /// before its event `(now, seq)` — the caller's core tick: arrivals
    /// due before `now`, and arrivals due at `now` whose `seq` is lower.
    /// Arrivals due at `now` with a higher `seq` are held for
    /// [`Network::deliver_held`].
    ///
    /// Arrivals on different links touch disjoint buffers and counters, so
    /// visiting links in index order reproduces the calendar's state.
    pub fn deliver_before(&mut self, now: Picos, seq: u64) {
        self.wires.swept = Some(now);
        let n = self.links.len();
        let mut queues = std::mem::take(&mut self.wires.flits);
        let mut marked = std::mem::take(&mut self.wires.flit_links);
        marked.sweep(0..n, |l| {
            let queue = &mut queues[l];
            while let Some(&e) = queue.front() {
                if e.at > now || (e.at == now && e.seq > seq) {
                    if e.at == now {
                        self.wires.held_flits.push(l as u32);
                    }
                    break;
                }
                queue.pop_front();
                self.land_flit(l, e.vc, e.flit);
            }
            !queue.is_empty()
        });
        self.wires.flits = queues;
        self.wires.flit_links = marked;

        let mut queues = std::mem::take(&mut self.wires.credits);
        let mut marked = std::mem::take(&mut self.wires.credit_links);
        marked.sweep(0..n, |l| {
            let queue = &mut queues[l];
            while let Some(&e) = queue.front() {
                if e.at > now || (e.at == now && e.seq > seq) {
                    if e.at == now {
                        self.wires.held_credits.push(l as u32);
                    }
                    break;
                }
                queue.pop_front();
                self.land_credit(l, e.vc);
            }
            !queue.is_empty()
        });
        self.wires.credits = queues;
        self.wires.credit_links = marked;
    }

    /// Delivers the arrivals [`Network::deliver_before`] held back: due at
    /// `now`, but ordered after the caller's tick. Call it once the tick
    /// is done.
    pub fn deliver_held(&mut self, now: Picos) {
        for i in 0..self.wires.held_flits.len() {
            let l = self.wires.held_flits[i] as usize;
            while let Some(&e) = self.wires.flits[l].front() {
                if e.at > now {
                    break;
                }
                self.wires.flits[l].pop_front();
                self.land_flit(l, e.vc, e.flit);
            }
            if self.wires.flits[l].is_empty() {
                self.wires.flit_links.remove(l);
            }
        }
        self.wires.held_flits.clear();
        for i in 0..self.wires.held_credits.len() {
            let l = self.wires.held_credits[i] as usize;
            while let Some(&e) = self.wires.credits[l].front() {
                if e.at > now {
                    break;
                }
                self.wires.credits[l].pop_front();
                self.land_credit(l, e.vc);
            }
            if self.wires.credits[l].is_empty() {
                self.wires.credit_links.remove(l);
            }
        }
        self.wires.held_credits.clear();
    }

    /// A wired flit reaches the downstream router.
    #[inline]
    fn land_flit(&mut self, l: usize, vc: VcId, flit: Flit) {
        match self.wires.foreign.as_deref_mut() {
            Some(f) if f.links.contains(l) => f.arrivals[l] += 1,
            _ => self.links[l].note_arrival(),
        }
        let Endpoint::RouterPort { router, port } = self.to_ep[l] else {
            unreachable!("ejection flits are not wired");
        };
        self.routers[router.index()].accept_flit(port, vc, flit);
        self.active_routers.insert(router.index());
    }

    /// A credit reaches the upstream router port or source.
    #[inline]
    fn land_credit(&mut self, l: usize, vc: VcId) {
        let depth = self.config.depth_per_vc();
        match self.from_ep[l] {
            Endpoint::RouterPort { router, port } => {
                self.routers[router.index()].return_credit(port, vc, depth);
            }
            Endpoint::Node(n) => {
                self.sources[n.index()].return_credit(vc, depth);
            }
        }
    }

    /// The VCs of the flits on `link`'s wire, earliest first.
    pub(crate) fn wired_flits(&self, link: LinkId) -> impl Iterator<Item = VcId> + '_ {
        // The marks are a few cache lines; the queue headers are not.
        static NONE: VecDeque<WireFlit> = VecDeque::new();
        let l = link.index();
        let queue = if self.wires.flit_links.contains(l) {
            &self.wires.flits[l]
        } else {
            &NONE
        };
        queue.iter().map(|e| e.vc)
    }

    /// The VCs of the credits on `link`'s return path, earliest first.
    pub(crate) fn wired_credits(&self, link: LinkId) -> impl Iterator<Item = VcId> + '_ {
        static NONE: VecDeque<WireCredit> = VecDeque::new();
        let l = link.index();
        let queue = if self.wires.credit_links.contains(l) {
            &self.wires.credits[l]
        } else {
            &NONE
        };
        queue.iter().map(|e| e.vc)
    }

    /// Removes everything on the wires and returns it in `(at, seq)`
    /// order: the order a calendar would have handled it in. Checkpoints
    /// merge this with the calendar's own pending events and send it all
    /// back in that order.
    pub fn take_in_flight(&mut self) -> Vec<InFlight> {
        let mut out = Vec::new();
        for (l, queue) in self.wires.flits.iter_mut().enumerate() {
            out.extend(queue.drain(..).map(|e| InFlight {
                at: e.at,
                seq: e.seq,
                link: LinkId(l as u32),
                vc: e.vc,
                flit: Some(e.flit),
            }));
        }
        for (l, queue) in self.wires.credits.iter_mut().enumerate() {
            out.extend(queue.drain(..).map(|e| InFlight {
                at: e.at,
                seq: e.seq,
                link: LinkId(l as u32),
                vc: e.vc,
                flit: None,
            }));
        }
        self.wires.rebuild_sets();
        out.sort_by_key(|e| (e.at, e.seq));
        out
    }

    /// Marks `links` as sent on by another shard replica: this replica
    /// receives their flits but holds no `flits_sent` for them, so their
    /// arrivals are tallied in [`Network::foreign_arrivals`] instead of on
    /// the links, and folded into the sending replica's counters with
    /// [`Network::absorb_link_arrivals`] when the replicas merge.
    pub fn set_foreign_links(&mut self, links: impl IntoIterator<Item = LinkId>) {
        let n = self.links.len();
        let mut set = ActiveSet::from_fn(n, |_| false);
        for l in links {
            set.insert(l.index());
        }
        self.wires.foreign = Some(Box::new(ForeignLinks {
            links: set,
            arrivals: vec![0; n],
        }));
    }

    /// Per-link arrivals tallied for [`Network::set_foreign_links`]
    /// (empty when none were set).
    pub fn foreign_arrivals(&self) -> &[u64] {
        self.wires.foreign.as_deref().map_or(&[], |f| &f.arrivals)
    }

    /// Folds `n` externally-counted arrivals into `link`'s counter (shard
    /// merge reconciliation; see [`Network::set_foreign_links`]).
    pub fn absorb_link_arrivals(&mut self, link: LinkId, n: u64) {
        self.links[link.index()].absorb_arrivals(n);
    }

    /// Average occupancy (in flits) of the input port downstream of `link`
    /// since last sampled, over `cycles` observation cycles. `None` for
    /// ejection links (the sink drains instantly, so `Bu` is zero there).
    pub fn take_downstream_occupancy(&mut self, link: LinkId, cycles: u64) -> Option<f64> {
        match self.links[link.index()].to() {
            Endpoint::RouterPort { router, port } => {
                let accum = self.routers[router.index()].take_occupancy_accum(port);
                (cycles > 0).then(|| accum as f64 / cycles as f64)
            }
            Endpoint::Node(_) => None,
        }
    }

    /// Takes (and resets) the raw occupancy accumulator of the input port
    /// downstream of `link`. Returns 0 for ejection links. The sharded
    /// runtime uses this on the *ticking* replica of a boundary link's
    /// downstream router to publish occupancy to the link's owner at
    /// policy barriers; the paired [`Network::set_input_occupancy`] installs
    /// it on the owner's (never-ticked, zero-accumulator) replica so
    /// [`Network::take_downstream_occupancy`] then reads the true value.
    pub fn take_input_occupancy(&mut self, link: LinkId) -> u64 {
        match self.to_ep[link.index()] {
            Endpoint::RouterPort { router, port } => {
                self.routers[router.index()].take_occupancy_accum(port)
            }
            Endpoint::Node(_) => 0,
        }
    }

    /// Installs a raw occupancy accumulator on the input port downstream of
    /// `link` (see [`Network::take_input_occupancy`]). No-op for ejection
    /// links.
    pub fn set_input_occupancy(&mut self, link: LinkId, accum: u64) {
        match self.to_ep[link.index()] {
            Endpoint::RouterPort { router, port } => {
                self.routers[router.index()].set_occupancy_accum(port, accum);
            }
            Endpoint::Node(_) => {}
        }
    }

    /// Adopts a contiguous region of `donor`'s state: the routers, source/
    /// sink nodes, and link ranges given. The sharded runtime reassembles
    /// one coherent network after a parallel run by adopting each shard's
    /// owned region into a single replica; endpoints and topology are
    /// construction-deterministic, so only the mutable component state
    /// moves.
    pub fn adopt_region(
        &mut self,
        donor: &Network,
        routers: std::ops::Range<usize>,
        nodes: std::ops::Range<usize>,
        link_ranges: [std::ops::Range<usize>; 2],
    ) {
        for r in routers.clone() {
            self.routers[r].clone_from(&donor.routers[r]);
        }
        for n in nodes.clone() {
            self.sources[n].clone_from(&donor.sources[n]);
            self.sinks[n].clone_from(&donor.sinks[n]);
        }
        // Credits travel back to a link's sender and flits on to its
        // receiver, so a region takes the credit queues of the links it
        // sends on and the flit queues of the links it receives from.
        for range in link_ranges {
            for l in range {
                self.links[l].clone_from(&donor.links[l]);
                self.wires.credits[l].clone_from(&donor.wires.credits[l]);
            }
        }
        for l in 0..self.links.len() {
            let receives = match self.to_ep[l] {
                Endpoint::RouterPort { router, .. } => routers.contains(&router.index()),
                Endpoint::Node(n) => nodes.contains(&n.index()),
            };
            if receives {
                self.wires.flits[l].clone_from(&donor.wires.flits[l]);
            }
        }
        self.wires.rebuild_sets();
        self.rebuild_active_sets();
    }

    /// Serializes the network's *mutable* state for a checkpoint: routers,
    /// source/sink nodes, links, and the tick counter. Everything else —
    /// topology wiring, endpoint tables, the route table — is a pure
    /// function of the configuration and is rebuilt by the constructor at
    /// resume (see `CHECKPOINTS.md` for the serialized-vs-recomputed
    /// contract). Traffic on the wires is not included: checkpoints keep
    /// it with the calendar's pending events
    /// ([`Network::take_in_flight`]).
    pub fn checkpoint_state(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("routers".into(), self.routers.serialize_value()),
            ("sources".into(), self.sources.serialize_value()),
            ("sinks".into(), self.sinks.serialize_value()),
            ("links".into(), self.links.serialize_value()),
            ("ticks".into(), self.ticks.serialize_value()),
        ])
    }

    /// Restores mutable state captured by [`Network::checkpoint_state`]
    /// into a freshly constructed network of the *same configuration*.
    ///
    /// # Errors
    ///
    /// Fails if the value is malformed or the component counts do not
    /// match this network's topology (a checkpoint from a different
    /// configuration).
    pub fn restore_state(&mut self, v: &serde::Value) -> Result<(), serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "Network"))?;
        let field = |name: &str| serde::map_field(map, name, "Network");
        let routers: Vec<Router> = Vec::deserialize_value(field("routers")?)?;
        let sources: Vec<SourceNode> = Vec::deserialize_value(field("sources")?)?;
        let sinks: Vec<SinkNode> = Vec::deserialize_value(field("sinks")?)?;
        let links: Vec<Link> = Vec::deserialize_value(field("links")?)?;
        let ticks = u64::deserialize_value(field("ticks")?)?;
        if routers.len() != self.routers.len()
            || sources.len() != self.sources.len()
            || sinks.len() != self.sinks.len()
            || links.len() != self.links.len()
        {
            return Err(serde::Error::custom(format!(
                "checkpoint topology mismatch: {} routers / {} nodes / {} links \
                 vs configured {} / {} / {}",
                routers.len(),
                sources.len(),
                links.len(),
                self.routers.len(),
                self.sources.len(),
                self.links.len()
            )));
        }
        self.routers = routers;
        self.sources = sources;
        self.sinks = sinks;
        self.links = links;
        self.ticks = ticks;
        self.wires = Wires::new(self.links.len());
        self.rebuild_active_sets();
        Ok(())
    }

    /// Total flits queued at source nodes (offered-load backlog).
    pub fn source_backlog(&self) -> usize {
        self.sources.iter().map(SourceNode::backlog_flits).sum()
    }

    /// Packets fully delivered so far.
    pub fn packets_delivered(&self) -> u64 {
        self.sinks.iter().map(|s| s.packets_received).sum()
    }

    /// Flits injected so far across all sources.
    pub fn flits_injected(&self) -> u64 {
        self.sources.iter().map(|s| s.flits_injected).sum()
    }

    /// Packets dropped at sinks because a flit arrived corrupted.
    pub fn packets_dropped(&self) -> u64 {
        self.sinks.iter().map(|s| s.packets_dropped).sum()
    }

    /// Flits belonging to dropped packets.
    pub fn flits_dropped(&self) -> u64 {
        self.sinks.iter().map(|s| s.flits_dropped).sum()
    }

    /// Flits that reached a sink with the corruption flag set.
    pub fn flits_corrupted(&self) -> u64 {
        self.sinks.iter().map(|s| s.flits_corrupted).sum()
    }

    /// Whether the network holds no traffic anywhere (sources drained,
    /// routers idle, no partial packets at sinks).
    pub fn is_quiescent(&self) -> bool {
        self.source_backlog() == 0
            && self.routers.iter().all(Router::is_quiescent)
            && self.sinks.iter().all(|s| s.partial_packets() == 0)
    }
}

#[cfg(test)]
pub(crate) mod driver {
    use super::*;
    use lumen_desim::EventQueue;

    /// A minimal driver for the passive network model: one tick every core
    /// cycle, with wired traffic delivered around it and ejection flits
    /// replayed from a calendar, the way the full simulator drives it.
    pub(crate) struct Driver {
        pub(crate) net: Network,
        queue: EventQueue<Effect>,
        effects: Vec<Effect>,
        pub(crate) ejected: Vec<Effect>,
        pub(crate) now: Picos,
        /// Marks a launched flit corrupted when it returns true (each flit
        /// once per link it crosses); `corrupted` counts the marks.
        pub(crate) corrupt: Option<fn(&Flit) -> bool>,
        pub(crate) corrupted: u64,
    }

    impl Driver {
        pub(crate) fn new(config: &NocConfig) -> Self {
            Driver::with_network(Network::new(config))
        }

        pub(crate) fn with_network(net: Network) -> Self {
            Driver {
                net,
                queue: EventQueue::new(),
                effects: Vec::new(),
                ejected: Vec::new(),
                now: Picos::ZERO,
                corrupt: None,
                corrupted: 0,
            }
        }

        /// Runs `cycles` core cycles.
        pub(crate) fn run(&mut self, cycles: u64) {
            for _ in 0..cycles {
                self.step();
            }
        }

        /// One core cycle: arrivals due before the tick, the tick, then
        /// arrivals held for after it.
        pub(crate) fn step(&mut self) {
            let tick_seq = self.queue.reserve_seq();
            self.net.deliver_before(self.now, tick_seq);
            while let Some((at, eff)) = self.queue.pop_if_at_or_before(self.now) {
                let Effect::Flit { link, vc, flit, .. } = eff else {
                    unreachable!("only ejection flits are scheduled");
                };
                self.net.flit_arrived(at, link, vc, flit, &mut self.effects);
                self.dispatch();
            }
            self.net.tick(self.now, &mut self.effects);
            self.dispatch();
            self.net.deliver_held(self.now);
            self.now += self.net.config().cycle();
        }

        /// Routes pending effects: ejection flits onto the calendar, all
        /// other flits and every credit onto the wires.
        fn dispatch(&mut self) {
            for mut eff in self.effects.drain(..) {
                if let (Effect::Flit { flit, .. }, Some(corrupt)) = (&mut eff, self.corrupt) {
                    if !flit.corrupted && corrupt(flit) {
                        flit.corrupted = true;
                        self.corrupted += 1;
                    }
                }
                match eff {
                    Effect::Ejected { .. } => self.ejected.push(eff),
                    Effect::Flit { link, at, .. } if self.net.is_ejection(link) => {
                        self.queue.schedule(at, eff);
                    }
                    Effect::Flit { link, vc, flit, at } => {
                        let seq = self.queue.reserve_seq();
                        self.net.send_flit(link, at, seq, vc, flit);
                    }
                    Effect::Credit { link, vc, at } => {
                        let seq = self.queue.reserve_seq();
                        self.net.send_credit(link, at, seq, vc);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Direction;
    use crate::routing::direction_port;
    use crate::topology::TopologyKind;
    use lumen_opto::Gbps;

    pub(crate) use driver::Driver;

    fn packet(id: u64, src: usize, dst: usize, size: u32, at: Picos) -> Packet {
        Packet::new(
            PacketId(id),
            NodeId(src as u32),
            NodeId(dst as u32),
            size,
            at,
        )
    }

    #[test]
    fn topology_counts() {
        let net = Network::new(&NocConfig::paper_default());
        assert_eq!(net.router_count(), 64);
        assert_eq!(net.node_count(), 512);
        // 2 × (2 × 8 × 7) directed mesh links + 2 links per node.
        assert_eq!(net.inter_router_links(), 224);
        assert_eq!(net.link_count(), 224 + 2 * 512);
    }

    #[test]
    fn torus_topology_counts_and_delivery() {
        let mut config = NocConfig::small_for_tests();
        config.topology = TopologyKind::Torus;
        let mut d = Driver::new(&config);
        // A 2×2 torus wires all four ports of every router: 16 directed
        // channels vs the mesh's 8.
        assert_eq!(d.net.router_count(), 4);
        assert_eq!(d.net.inter_router_links(), 16);
        assert_eq!(d.net.link_count(), 16 + 2 * 8);
        let n = d.net.node_count();
        let mut id = 0;
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    id += 1;
                    d.net.inject(packet(id, s, t, 2, Picos::ZERO));
                }
            }
        }
        d.run(3000);
        assert_eq!(d.ejected.len() as u64, id);
        assert!(d.net.is_quiescent());
    }

    #[test]
    fn folded_clos_topology_counts_and_delivery() {
        let mut config = NocConfig::small_for_tests();
        config.topology = TopologyKind::FoldedClos { spines: 2 };
        let mut d = Driver::new(&config);
        // 4 leaves + 2 spines; 2 × 4 × 2 directed up/down channels.
        assert_eq!(d.net.router_count(), 6);
        assert_eq!(d.net.node_count(), 8);
        assert_eq!(d.net.inter_router_links(), 16);
        let n = d.net.node_count();
        let mut id = 0;
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    id += 1;
                    d.net.inject(packet(id, s, t, 2, Picos::ZERO));
                }
            }
        }
        d.run(3000);
        assert_eq!(d.ejected.len() as u64, id);
        assert!(d.net.is_quiescent());
    }

    #[test]
    fn all_ports_wired() {
        let config = NocConfig::paper_default();
        let net = Network::new(&config);
        for r in 0..net.router_count() {
            let router = net.router(RouterId(r as u32));
            let coord = config.coord_of(RouterId(r as u32));
            // Local ports always wired both ways.
            for p in 0..config.nodes_per_rack {
                assert!(router.output_link(PortId(p)).is_some());
                assert!(router.feeder(PortId(p)).is_some());
            }
            // Mesh ports wired exactly when a neighbor exists.
            for dir in Direction::ALL {
                let port = direction_port(&config, dir);
                let has = coord.neighbor(dir, config.width, config.height).is_some();
                assert_eq!(router.output_link(port).is_some(), has);
                assert_eq!(router.feeder(port).is_some(), has);
            }
        }
    }

    #[test]
    fn intra_rack_delivery() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        d.net.inject(packet(1, 0, 1, 4, Picos::ZERO));
        d.run(100);
        assert_eq!(d.ejected.len(), 1);
        let Effect::Ejected {
            packet: pid,
            src,
            dst,
            at,
            ..
        } = d.ejected[0]
        else {
            panic!("expected ejection");
        };
        assert_eq!(pid, PacketId(1));
        assert_eq!(src, NodeId(0));
        assert_eq!(dst, NodeId(1));
        assert!(at > Picos::ZERO);
        assert!(d.net.is_quiescent());
        assert_eq!(d.net.packets_delivered(), 1);
    }

    #[test]
    fn cross_mesh_delivery_latency_reasonable() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        // Node 0 (rack (0,0)) to node 7 (rack (1,1), local 1): 2 hops.
        d.net.inject(packet(1, 0, 7, 4, Picos::ZERO));
        d.run(200);
        assert_eq!(d.ejected.len(), 1);
        let Effect::Ejected { at, created_at, .. } = d.ejected[0] else {
            panic!()
        };
        let latency = at - created_at;
        // 3 routers × ~4-cycle pipeline + 4 link traversals (ser+prop) +
        // 3 extra flits of serialization: comfortably under 40 cycles.
        let cycle = config.cycle();
        assert!(latency >= cycle * 10, "latency {latency} too small");
        assert!(latency <= cycle * 40, "latency {latency} too large");
    }

    #[test]
    fn every_pair_delivers() {
        // Exhaustive pairwise reachability on the small mesh.
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        let n = d.net.node_count();
        let mut id = 0;
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    id += 1;
                    d.net.inject(packet(id, s, t, 2, Picos::ZERO));
                }
            }
        }
        d.run(3000);
        assert_eq!(d.ejected.len() as u64, id);
        assert!(d.net.is_quiescent());
    }

    #[test]
    fn west_first_every_pair_delivers() {
        // On the torus this exercises the (opt-in) mesh-order fallback;
        // the delivery guarantee must still hold.
        for topology in [TopologyKind::Mesh, TopologyKind::Torus] {
            let mut config = NocConfig::small_for_tests();
            config.topology = topology;
            config.allow_torus_mesh_routing = true;
            let mut d = Driver::with_network(Network::with_routing(
                &config,
                crate::routing::RoutingAlgorithm::WestFirst,
            ));
            let n = d.net.node_count();
            let mut id = 0;
            for s in 0..n {
                for t in 0..n {
                    if s != t {
                        id += 1;
                        d.net.inject(packet(id, s, t, 3, Picos::ZERO));
                    }
                }
            }
            d.run(4000);
            assert_eq!(d.ejected.len() as u64, id);
            assert!(d.net.is_quiescent());
        }
    }

    #[test]
    fn routing_override_routes_through_a_table_for_the_override() {
        // The routers run the overriding algorithm, so the table must be
        // built for it, not for the configuration's XY.
        let config = NocConfig::paper_default();
        assert_eq!(config.routing, RoutingAlgorithm::XY);
        let mut west_first = config.clone();
        west_first.routing = RoutingAlgorithm::WestFirst;
        let net = Network::with_routing(&config, RoutingAlgorithm::WestFirst);
        let table = net.route_table();
        assert_eq!(table.algorithm(), RoutingAlgorithm::WestFirst);
        assert!(table.matches(&west_first, RoutingAlgorithm::WestFirst));

        let shared = RouteTable::shared(&west_first, RoutingAlgorithm::WestFirst);
        let mode = RouteTableMode::Shared(Arc::clone(&shared));
        let net = Network::with_route_table(&config, RoutingAlgorithm::WestFirst, mode);
        let table = net.route_table();
        assert!(Arc::ptr_eq(table, &shared));
        assert_eq!(table.algorithm(), RoutingAlgorithm::WestFirst);
        assert!(table.matches(&west_first, RoutingAlgorithm::WestFirst));
    }

    #[test]
    #[should_panic(expected = "different geometry or algorithm")]
    fn shared_table_for_the_config_algorithm_rejected_under_override() {
        let config = NocConfig::paper_default();
        let xy = RouteTable::shared(&config, RoutingAlgorithm::XY);
        let _ = Network::with_route_table(
            &config,
            RoutingAlgorithm::WestFirst,
            RouteTableMode::Shared(xy),
        );
    }

    #[test]
    fn west_first_adversarial_hotspot_drains() {
        // Heavy many-to-one plus cross traffic: a deadlock hazard for
        // non-turn-model adaptive schemes; west-first must drain.
        let mut config = NocConfig::small_for_tests();
        config.allow_torus_mesh_routing = true;
        let mut d = Driver::with_network(Network::with_routing(
            &config,
            crate::routing::RoutingAlgorithm::WestFirst,
        ));
        let mut id = 0;
        for s in 0..d.net.node_count() {
            for k in 0..6 {
                let t = (s + 1 + k) % d.net.node_count();
                if t != s {
                    id += 1;
                    d.net.inject(packet(id, s, t, 6, Picos::ZERO));
                }
            }
        }
        d.run(8000);
        assert_eq!(d.ejected.len() as u64, id);
        assert!(d.net.is_quiescent());
    }

    #[test]
    fn slow_link_still_delivers() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        // Slow every link to 5 Gb/s with a transition penalty.
        for l in 0..d.net.link_count() {
            d.net.link_mut(LinkId(l as u32)).begin_rate_change(
                Picos::ZERO,
                Gbps::from_gbps(5.0),
                Picos::from_ps(32_000),
            );
        }
        d.net.inject(packet(1, 0, 7, 6, Picos::ZERO));
        d.run(400);
        assert_eq!(d.ejected.len(), 1);
        assert!(d.net.is_quiescent());
    }

    #[test]
    fn backpressure_does_not_lose_flits() {
        // Many nodes target one destination; everything must still arrive.
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        let mut id = 0;
        for s in 0..d.net.node_count() {
            if s == 3 {
                continue;
            }
            for k in 0..5 {
                id += 1;
                d.net.inject(packet(id, s, 3, 8, Picos::from_ns(k as u64)));
            }
        }
        d.run(5000);
        assert_eq!(d.ejected.len() as u64, id);
        assert!(d.net.is_quiescent());
    }

    #[test]
    fn occupancy_sampling() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        d.net.inject(packet(1, 0, 7, 8, Picos::ZERO));
        d.run(50);
        // The injection link of node 0 feeds router 0 port 0.
        let inj = d.net.sources[0].injection_link();
        let occ = d.net.take_downstream_occupancy(inj, 50);
        assert!(occ.is_some());
        // Ejection links report None.
        let ej = d.net.sinks[7].ejection_link();
        assert_eq!(d.net.take_downstream_occupancy(ej, 50), None);
    }

    #[test]
    fn active_sets_track_work_under_random_traffic() {
        for topology in [
            TopologyKind::Mesh,
            TopologyKind::Torus,
            TopologyKind::FoldedClos { spines: 2 },
        ] {
            let mut config = NocConfig::small_for_tests();
            config.topology = topology;
            config.vcs = 2;
            config.buffer_depth = 8;
            let mut d = Driver::new(&config);
            let (routers, nodes) = (d.net.router_count(), d.net.node_count());
            let links = d.net.link_count();
            let mut lcg: u64 = 0x853C_49E6_748F_EA9B;
            let (mut id, mut peak_active) = (0u64, 0u32);
            for cycle in 0..1_500 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (src, dst) = ((lcg >> 20) as usize % nodes, (lcg >> 40) as usize % nodes);
                if cycle < 600 && src != dst && (lcg >> 60) < 10 {
                    id += 1;
                    let size = 1 + (lcg >> 8) as u32 % 6;
                    d.net.inject(packet(id, src, dst, size, d.now));
                }
                d.run(1);
                assert!(
                    d.net.active_sets_match(0..routers, 0..nodes),
                    "{topology:?} cycle {cycle}"
                );
                let active: u32 = d
                    .net
                    .active_routers
                    .words
                    .iter()
                    .map(|w| w.count_ones())
                    .sum();
                peak_active = peak_active.max(active);

                if cycle == 300 {
                    // A checkpoint restore rebuilds the sets from state.
                    let mut restored = Network::new(&config);
                    restored.restore_state(&d.net.checkpoint_state()).unwrap();
                    assert!(restored.active_sets_match(0..routers, 0..nodes));
                    assert_eq!(restored.active_routers.words, d.net.active_routers.words);
                    assert_eq!(restored.active_sources.words, d.net.active_sources.words);

                    // So does a shard merge, one region at a time.
                    let mut merged = Network::new(&config);
                    let (hr, hn) = (routers / 2, nodes / 2);
                    merged.adopt_region(&d.net, 0..hr, 0..hn, [0..links, 0..0]);
                    assert!(merged.active_sets_match(0..routers, 0..nodes));
                    merged.adopt_region(&d.net, hr..routers, hn..nodes, [0..0, 0..0]);
                    assert_eq!(merged.active_routers.words, d.net.active_routers.words);
                    assert_eq!(merged.active_sources.words, d.net.active_sources.words);
                }
            }
            assert_eq!(d.ejected.len() as u64, id, "{topology:?}");
            assert!(d.net.is_quiescent());
            assert!(
                peak_active > 1,
                "{topology:?}: traffic never kept two routers busy"
            );
            assert!(d.net.active_routers.words.iter().all(|&w| w == 0));
            assert!(d.net.active_sources.words.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn active_set_sweep_respects_range_edges() {
        // 130 indices span three words; every range must visit exactly
        // its marked members, ascending, and unmark only those that
        // report idle.
        let marked = |i: usize| i.is_multiple_of(3) || i == 63 || i == 64 || i == 127;
        for (start, end) in [
            (0, 130),
            (0, 64),
            (63, 65),
            (64, 128),
            (1, 127),
            (5, 5),
            (129, 130),
        ] {
            let mut set = ActiveSet::from_fn(130, marked);
            let mut seen = Vec::new();
            set.sweep(start..end, |i| {
                seen.push(i);
                i % 2 == 0
            });
            let want: Vec<usize> = (start..end).filter(|&i| marked(i)).collect();
            assert_eq!(seen, want, "{start}..{end}");
            for i in 0..130 {
                let kept = marked(i) && (!(start..end).contains(&i) || i % 2 == 0);
                assert_eq!(set.contains(i), kept, "{start}..{end} index {i}");
            }
        }
    }

    #[test]
    fn utilization_counters_track_traffic() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        d.net.inject(packet(1, 0, 7, 4, Picos::ZERO));
        d.run(200);
        let inj = d.net.sources[0].injection_link();
        assert_eq!(d.net.link(inj).flits_sent(), 4);
        let busy = d.net.link_mut(inj).take_window_busy();
        assert_eq!(busy, config.flit_time(config.max_rate) * 4);
    }
}
