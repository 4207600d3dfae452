//! The 5-stage pipelined router (paper Fig. 4(b)).
//!
//! Each router has `nodes_per_rack` local injection/ejection ports plus
//! North/South/East/West, a crossbar, and per-port policy hooks. The
//! pipeline is modeled at stage-per-cycle granularity:
//!
//! 1. **RC** — a head flit at the front of an idle VC computes its output
//!    port (dimension-order routing).
//! 2. **VA** — the packet acquires a free virtual channel on that output.
//! 3. **SA** — per-output round-robin switch allocation among active input
//!    VCs holding flits and downstream credits.
//! 4. **ST** — the winning flit crosses the crossbar (one cycle).
//! 5. **LT** — the flit serializes onto the output link at the link's own
//!    bit rate (possibly several core cycles at reduced rates).
//!
//! Credit-based flow control: each output port tracks free buffer slots in
//! the downstream input port per VC; a credit returns upstream when a flit
//! leaves an input buffer.

use crate::arbiter::RoundRobinArbiter;
use crate::buffer::InputBuffer;
use crate::config::NocConfig;
use crate::flit::FlitKind;
use crate::ids::{LinkId, PortId, RouterId, VcId};
use crate::link::Link;
use crate::network::Effect;
use crate::route_table::RouteTable;
use crate::routing::RoutingAlgorithm;
use lumen_desim::Picos;
use serde::{Deserialize, Serialize, Value};

/// Per-input-VC pipeline state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VcState {
    /// No packet in flight; awaiting a head flit.
    Idle,
    /// Route computed; waiting for an output VC.
    VcAlloc {
        /// The computed output port.
        out_port: PortId,
    },
    /// Output VC held; flits compete in switch allocation.
    Active {
        /// The output port the packet traverses.
        out_port: PortId,
        /// The output VC the packet holds.
        out_vc: VcId,
    },
}

/// One input port: its buffer, the link that feeds it, and its occupancy
/// statistic. The port's per-VC pipeline state lives in the router's
/// slot-indexed `vc_state` array.
#[derive(Debug, Clone)]
struct InputPort {
    buffer: InputBuffer,
    // The upstream link filling this port (None on mesh-edge ports).
    feeder: Option<LinkId>,
    // Sum of per-cycle occupancy samples (numerator of the paper's `Bu`).
    occupancy_accum: u64,
}

/// One output port: its link and arbiters. The port's per-VC credits and
/// ownership live in the router's slot-indexed arrays.
#[derive(Debug, Clone)]
struct OutputPort {
    // The outgoing link (None on mesh-edge ports).
    link: Option<LinkId>,
    sa_arbiter: RoundRobinArbiter,
    va_arbiter: RoundRobinArbiter,
}

/// A rack's communication router.
///
/// Its state is a few fixed-size arrays allocated once at construction.
/// Per-VC state is indexed by *slot* `port * vcs + vc`, the same numbering
/// as the 64-bit stage masks (`NocConfig::validate` bounds `ports × vcs`
/// by 64), so a mask bit addresses the arrays directly.
#[derive(Debug, Clone)]
pub struct Router {
    id: RouterId,
    // The algorithm the route table serves; recorded in checkpoints.
    routing: RoutingAlgorithm,
    vcs: usize,
    inputs: Box<[InputPort]>,
    outputs: Box<[OutputPort]>,
    // Pipeline state of each input VC.
    vc_state: Box<[VcState]>,
    // Free downstream buffer slots of each output VC.
    credits: Box<[u16]>,
    // The input (port, VC) currently holding each output VC.
    vc_owner: Box<[Option<(PortId, VcId)>]>,
    sa_rotate: usize,
    // Scratch reused across ticks to avoid per-cycle allocation.
    // Requesters are bucketed per output port as a slot mask, so
    // allocation iterates set bits instead of pushing through Vecs.
    scratch_port_mask: Box<[u64]>,
    /// Flits this router has switched over its lifetime.
    pub flits_switched: u64,
    /// Flits accepted into input buffers over its lifetime. The invariant
    /// `flits_accepted == flits_switched + buffered` holds at every event
    /// boundary (checked by the conservation auditor).
    pub flits_accepted: u64,
    /// Switch-allocation requests denied over its lifetime: a requester
    /// whose output link was mid-rate-change, that lost arbitration, or
    /// was crossbar/credit-ineligible. A flit requests once per cycle
    /// until granted, so this counts request-cycles, not distinct flits.
    pub sa_denials: u64,
    // Fast-path counters: flits buffered and VCs not in Idle. When both
    // are zero the router has nothing to do this cycle.
    buffered_flits: u32,
    active_vcs: u32,
    // Incrementally maintained pipeline-stage membership, one bit per
    // slot, so each stage visits only live VCs instead of scanning every
    // slot every cycle, in ascending (port, vc) order:
    // - `sa_ready`: state Active and buffer non-empty (SA requesters)
    // - `va_set`:   state VcAlloc (VA requesters)
    // - `rc_ready`: state Idle and buffer non-empty (RC candidates)
    sa_ready: u64,
    va_set: u64,
    rc_ready: u64,
}

impl Router {
    /// Creates a router with unwired ports (the network builder attaches
    /// links and feeders afterwards).
    pub fn new(id: RouterId, routing: RoutingAlgorithm, config: &NocConfig) -> Self {
        let p = config.ports_per_router();
        let vcs = config.vcs as usize;
        let slots = p * vcs;
        assert!(
            slots <= 64,
            "mask-based switch/VC allocation supports at most 64 input-VC \
             slots per router (got {slots})"
        );
        let input = InputPort {
            buffer: InputBuffer::new(config.vcs, config.depth_per_vc()),
            feeder: None,
            occupancy_accum: 0,
        };
        let output = OutputPort {
            link: None,
            sa_arbiter: RoundRobinArbiter::new(slots),
            va_arbiter: RoundRobinArbiter::new(slots),
        };
        Router {
            id,
            routing,
            vcs,
            inputs: vec![input; p].into_boxed_slice(),
            outputs: vec![output; p].into_boxed_slice(),
            vc_state: vec![VcState::Idle; slots].into_boxed_slice(),
            credits: vec![config.depth_per_vc(); slots].into_boxed_slice(),
            vc_owner: vec![None; slots].into_boxed_slice(),
            sa_rotate: 0,
            scratch_port_mask: vec![0; p].into_boxed_slice(),
            flits_switched: 0,
            flits_accepted: 0,
            sa_denials: 0,
            buffered_flits: 0,
            active_vcs: 0,
            sa_ready: 0,
            va_set: 0,
            rc_ready: 0,
        }
    }

    /// The router's id.
    pub fn id(&self) -> RouterId {
        self.id
    }

    /// Wires output `port` to the link it drives.
    pub fn connect_output(&mut self, port: PortId, link: LinkId) {
        self.outputs[port.0 as usize].link = Some(link);
    }

    /// Wires input `port` to the upstream link that fills it.
    pub fn connect_input(&mut self, port: PortId, feeder: LinkId) {
        self.inputs[port.0 as usize].feeder = Some(feeder);
    }

    /// The link output `port` drives (None on mesh-edge ports).
    pub fn output_link(&self, port: PortId) -> Option<LinkId> {
        self.outputs[port.0 as usize].link
    }

    /// The upstream link filling input `port` (None on mesh-edge ports).
    pub fn feeder(&self, port: PortId) -> Option<LinkId> {
        self.inputs[port.0 as usize].feeder
    }

    /// Input `port`'s per-VC flit FIFOs.
    pub fn input_buffer(&self, port: PortId) -> &InputBuffer {
        &self.inputs[port.0 as usize].buffer
    }

    /// Every input port's buffer, in port order.
    pub fn input_buffers(&self) -> impl Iterator<Item = &InputBuffer> {
        self.inputs.iter().map(|p| &p.buffer)
    }

    /// The pipeline state of input VC `vc` on `port`.
    pub fn vc_state(&self, port: PortId, vc: VcId) -> VcState {
        self.vc_state[self.slot(port, vc)]
    }

    /// Free downstream buffer slots per VC of output `port`.
    pub fn output_credits(&self, port: PortId) -> &[u16] {
        let base = port.0 as usize * self.vcs;
        &self.credits[base..base + self.vcs]
    }

    /// Drains input `port`'s accumulated occupancy counter.
    pub fn take_occupancy_accum(&mut self, port: PortId) -> u64 {
        std::mem::take(&mut self.inputs[port.0 as usize].occupancy_accum)
    }

    /// Installs input `port`'s accumulated occupancy counter.
    pub fn set_occupancy_accum(&mut self, port: PortId, accum: u64) {
        self.inputs[port.0 as usize].occupancy_accum = accum;
    }

    #[inline]
    fn slot(&self, port: PortId, vc: VcId) -> usize {
        debug_assert!((vc.0 as usize) < self.vcs, "{vc} out of range");
        port.0 as usize * self.vcs + vc.0 as usize
    }

    /// Whether a tick would do nothing: no flit buffered and no packet in
    /// flight. Only [`Router::accept_flit`] ends idleness.
    pub fn is_idle(&self) -> bool {
        self.buffered_flits == 0 && self.active_vcs == 0
    }

    /// One core-clock cycle: SA/ST, then VA, then RC, then statistics.
    ///
    /// `links` is the network-global link table; emitted flit departures
    /// and credit returns are appended to `effects`. `route_table` serves
    /// RC and must be built for this router's algorithm.
    pub fn tick(
        &mut self,
        now: Picos,
        config: &NocConfig,
        route_table: &RouteTable,
        links: &mut [Link],
        effects: &mut Vec<Effect>,
    ) {
        if self.is_idle() {
            return; // idle fast path: nothing buffered, no packet in flight
        }
        self.switch_allocation(now, config, links, effects);
        self.vc_allocation();
        self.route_computation(route_table);
        for input in self.inputs.iter_mut() {
            input.occupancy_accum += input.buffer.total_occupancy() as u64;
        }
    }

    /// SA + ST: for each output port (rotating start for fairness), grant
    /// one input VC and launch its flit onto the link one cycle later.
    fn switch_allocation(
        &mut self,
        now: Picos,
        config: &NocConfig,
        links: &mut [Link],
        effects: &mut Vec<Effect>,
    ) {
        let ports = self.outputs.len();
        let vcs = self.vcs;
        if self.sa_ready == 0 {
            // No Active VC holds a flit: nothing to allocate, but the
            // rotating priority still advances exactly as it always did.
            self.sa_rotate = if self.sa_rotate + 1 == ports {
                0
            } else {
                self.sa_rotate + 1
            };
            return;
        }
        let st_time = now + config.cycle();
        let mut input_used: u64 = 0;
        // Bucket requesters by output port once; `sa_ready` walks the same
        // ascending (port, vc) order the full scan did, visiting only VCs
        // that are Active with a flit buffered.
        self.scratch_port_mask.fill(0);
        let mut w = self.sa_ready;
        while w != 0 {
            let req = w.trailing_zeros() as usize;
            w &= w - 1;
            let VcState::Active { out_port, .. } = self.vc_state[req] else {
                unreachable!("sa_ready slot not in Active state");
            };
            debug_assert!(self.inputs[req / vcs]
                .buffer
                .front(VcId((req % vcs) as u8))
                .is_some());
            self.scratch_port_mask[out_port.0 as usize] |= 1u64 << req;
        }
        // Rotating scan over output ports without a modulo per step.
        let mut next_op = self.sa_rotate;
        for _ in 0..ports {
            let op = next_op;
            next_op = if op + 1 == ports { 0 } else { op + 1 };
            let req_mask = self.scratch_port_mask[op];
            if req_mask == 0 {
                continue;
            }
            let Some(link_id) = self.outputs[op].link else {
                continue;
            };
            links[link_id.index()].note_demand();
            if !links[link_id.index()].ready_at(st_time) {
                // Link busy serializing or relocking: every requester for
                // this output port loses the cycle.
                self.sa_denials += req_mask.count_ones() as u64;
                continue;
            }
            // An input port already granted this cycle (crossbar conflict)
            // or an output VC out of credits disqualifies a requester.
            let op_credits = &self.credits[op * vcs..(op + 1) * vcs];
            let mut eligible: u64 = 0;
            let mut m = req_mask;
            while m != 0 {
                let req = m.trailing_zeros() as usize;
                m &= m - 1;
                let ok = input_used >> (req / vcs) & 1 == 0
                    && match self.vc_state[req] {
                        VcState::Active { out_vc, .. } => op_credits[out_vc.0 as usize] > 0,
                        _ => false,
                    };
                eligible |= (ok as u64) << req;
            }
            let Some(req) = self.outputs[op].sa_arbiter.grant_masked(eligible) else {
                // Nothing eligible (crossbar conflicts or exhausted
                // credits): all requesters lose.
                self.sa_denials += req_mask.count_ones() as u64;
                continue;
            };
            let (ip, vc) = (req / vcs, VcId((req % vcs) as u8));
            let VcState::Active { out_vc, .. } = self.vc_state[req] else {
                unreachable!("eligibility mask admitted a non-active VC");
            };
            let out_slot = op * vcs + out_vc.0 as usize;
            let input = &mut self.inputs[ip];
            let flit = input
                .buffer
                .pop(vc)
                .expect("eligibility mask admitted an empty VC");
            let drained = input.buffer.is_empty(vc);
            let feeder = input.feeder;
            self.credits[out_slot] -= 1;
            self.flits_switched += 1;
            // One requester won; its co-requesters for this port lost.
            self.sa_denials += (req_mask.count_ones() - 1) as u64;
            self.buffered_flits -= 1;
            if drained {
                // Last buffered flit left; the VC stops requesting the
                // switch until another flit arrives (or, for a tail, until
                // a new packet restarts the pipeline below).
                self.sa_ready &= !(1u64 << req);
            }
            let arrival = links[link_id.index()].start_flit(st_time);
            effects.push(Effect::Flit {
                link: link_id,
                vc: out_vc,
                flit,
                at: arrival,
            });
            if let Some(feeder) = feeder {
                effects.push(Effect::Credit {
                    link: feeder,
                    vc,
                    at: now + config.credit_delay,
                });
            }
            if flit.kind.is_tail() {
                self.vc_owner[out_slot] = None;
                self.vc_state[req] = VcState::Idle;
                self.active_vcs -= 1;
                self.sa_ready &= !(1u64 << req);
                if !drained {
                    // The next packet's head is already waiting: it becomes
                    // an RC candidate this very cycle (RC runs after SA).
                    self.rc_ready |= 1u64 << req;
                }
            }
            input_used |= 1u64 << ip;
        }
        self.sa_rotate = if self.sa_rotate + 1 == ports {
            0
        } else {
            self.sa_rotate + 1
        };
    }

    /// VA: hand free output VCs to packets whose route is computed.
    fn vc_allocation(&mut self) {
        if self.va_set == 0 {
            return;
        }
        let ports = self.outputs.len();
        let vcs = self.vcs;
        // Bucket VC-allocation requesters by requested output port, in the
        // same ascending (port, vc) order the full scan produced.
        self.scratch_port_mask.fill(0);
        let mut w = self.va_set;
        while w != 0 {
            let req = w.trailing_zeros() as usize;
            w &= w - 1;
            let VcState::VcAlloc { out_port } = self.vc_state[req] else {
                unreachable!("va_set slot not in VcAlloc state");
            };
            self.scratch_port_mask[out_port.0 as usize] |= 1u64 << req;
        }
        for op in 0..ports {
            let mut req_mask = self.scratch_port_mask[op];
            if req_mask == 0 || self.outputs[op].link.is_none() {
                continue;
            }
            for out_vc in 0..vcs {
                let out_slot = op * vcs + out_vc;
                if self.vc_owner[out_slot].is_some() {
                    continue;
                }
                let Some(req) = self.outputs[op].va_arbiter.grant_masked(req_mask) else {
                    break; // no remaining requester for this output
                };
                req_mask &= !(1u64 << req);
                let (ip, vc) = (req / vcs, req % vcs);
                self.vc_owner[out_slot] = Some((PortId(ip as u8), VcId(vc as u8)));
                self.vc_state[req] = VcState::Active {
                    out_port: PortId(op as u8),
                    out_vc: VcId(out_vc as u8),
                };
                self.va_set &= !(1u64 << req);
                if !self.inputs[ip].buffer.is_empty(VcId(vc as u8)) {
                    self.sa_ready |= 1u64 << req;
                }
            }
        }
    }

    /// RC: idle VCs with a head flit at the front compute their route.
    /// Deterministic algorithms yield one output; under west-first the
    /// router selects adaptively among the permitted minimal outputs,
    /// preferring ready links (not mid-transition) with the most
    /// downstream credits — which makes routing *power-aware*: traffic
    /// steers around links parked at low rates or disabled for relock.
    fn route_computation(&mut self, table: &RouteTable) {
        let vcs = self.vcs;
        // Every rc_ready VC (Idle with a buffered head flit) computes its
        // route this cycle, so the whole set empties; take it up front.
        let mut w = std::mem::take(&mut self.rc_ready);
        while w != 0 {
            let req = w.trailing_zeros() as usize;
            w &= w - 1;
            let (ip, vc) = (req / vcs, req % vcs);
            debug_assert_eq!(self.vc_state[req], VcState::Idle);
            let front = self.inputs[ip]
                .buffer
                .front(VcId(vc as u8))
                .expect("rc_ready VC with an empty buffer");
            debug_assert!(
                front.kind.is_head(),
                "non-head flit {front} at front of idle VC: wormhole order violated"
            );
            // One indexed load from the precomputed table, candidates in
            // the algorithm's order (selection below breaks ties by it).
            let candidates = table.candidates(self.id, front.dst);
            let cands = candidates.as_slice();
            let out_port = if cands.len() == 1 {
                cands[0]
            } else {
                let mut best = cands[0];
                let mut best_score = -1i64;
                for &cand in cands {
                    let out_vcs = cand.0 as usize * vcs..(cand.0 as usize + 1) * vcs;
                    let free_vc = self.vc_owner[out_vcs.clone()]
                        .iter()
                        .filter(|o| o.is_none())
                        .count() as i64;
                    let credits: i64 = self.credits[out_vcs].iter().map(|&c| c as i64).sum();
                    let score = free_vc * 1_000 + credits;
                    if score > best_score {
                        best_score = score;
                        best = cand;
                    }
                }
                best
            };
            self.vc_state[req] = VcState::VcAlloc { out_port };
            self.va_set |= 1u64 << req;
            self.active_vcs += 1;
        }
    }

    /// Accepts a flit delivered by an upstream link into an input buffer.
    pub fn accept_flit(&mut self, port: PortId, vc: VcId, flit: crate::flit::Flit) {
        let slot = self.slot(port, vc);
        self.inputs[port.0 as usize].buffer.push(vc, flit);
        // A previously-empty VC becomes a pipeline candidate: Idle VCs go
        // to RC, Active ones back into SA contention. VcAlloc VCs are
        // already tracked in va_set and need nothing here.
        match self.vc_state[slot] {
            VcState::Idle => self.rc_ready |= 1u64 << slot,
            VcState::Active { .. } => self.sa_ready |= 1u64 << slot,
            VcState::VcAlloc { .. } => {}
        }
        self.buffered_flits += 1;
        self.flits_accepted += 1;
    }

    /// Returns a credit to an output port's VC.
    ///
    /// # Panics
    ///
    /// Panics if the credit would exceed the downstream buffer capacity
    /// (a flow-control accounting bug).
    pub fn return_credit(&mut self, port: PortId, vc: VcId, depth_per_vc: u16) {
        let slot = self.slot(port, vc);
        let c = &mut self.credits[slot];
        assert!(
            *c < depth_per_vc,
            "credit overflow on {}:{port}:{vc}",
            self.id
        );
        *c += 1;
    }

    /// Whether every input buffer and pipeline state is empty/idle (used
    /// for drain detection in tests and experiments).
    pub fn is_quiescent(&self) -> bool {
        self.inputs.iter().all(|p| p.buffer.total_occupancy() == 0)
            && self.vc_state.iter().all(|s| *s == VcState::Idle)
    }

    /// The flit kind at the front of an input VC (testing aid).
    pub fn front_kind(&self, port: PortId, vc: VcId) -> Option<FlitKind> {
        self.inputs[port.0 as usize]
            .buffer
            .front(vc)
            .map(|f| f.kind)
    }
}

// --- checkpoint layout ------------------------------------------------------
//
// `lumen-ckpt/1` stores a router as per-port records that carry their
// per-VC state as lists, and each stage mask as a one-word set. The
// records below are that layout, field for field; the router converts to
// and from them at checkpoint time only.

#[derive(Serialize, Deserialize)]
struct RouterRecord {
    id: RouterId,
    routing: RoutingAlgorithm,
    vcs: usize,
    inputs: Vec<InputPortRecord>,
    outputs: Vec<OutputPortRecord>,
    sa_rotate: usize,
    scratch_port_mask: Vec<u64>,
    // Always written empty and ignored on read: the routers no longer
    // keep a route scratch, but the `lumen-ckpt/1` record still has it.
    scratch_routes: Vec<PortId>,
    flits_switched: u64,
    flits_accepted: u64,
    sa_denials: u64,
    buffered_flits: u32,
    active_vcs: u32,
    sa_ready: SlotSetRecord,
    va_set: SlotSetRecord,
    rc_ready: SlotSetRecord,
}

#[derive(Serialize, Deserialize)]
struct InputPortRecord {
    buffer: InputBuffer,
    vc_state: Vec<VcState>,
    feeder: Option<LinkId>,
    occupancy_accum: u64,
}

#[derive(Serialize, Deserialize)]
struct OutputPortRecord {
    link: Option<LinkId>,
    credits: Vec<u16>,
    vc_owner: Vec<Option<(PortId, VcId)>>,
    sa_arbiter: RoundRobinArbiter,
    va_arbiter: RoundRobinArbiter,
}

#[derive(Serialize, Deserialize)]
struct SlotSetRecord {
    words: Vec<u64>,
}

impl SlotSetRecord {
    fn word(self) -> Result<u64, serde::Error> {
        match self.words[..] {
            [w] => Ok(w),
            _ => Err(serde::Error::custom(
                "router slot set must be one 64-bit word",
            )),
        }
    }
}

impl Serialize for Router {
    fn serialize_value(&self) -> Value {
        let vcs = self.vcs;
        let per_port = |a: usize| a * vcs..(a + 1) * vcs;
        RouterRecord {
            id: self.id,
            routing: self.routing,
            vcs,
            inputs: (self.inputs.iter().enumerate())
                .map(|(p, input)| InputPortRecord {
                    buffer: input.buffer.clone(),
                    vc_state: self.vc_state[per_port(p)].to_vec(),
                    feeder: input.feeder,
                    occupancy_accum: input.occupancy_accum,
                })
                .collect(),
            outputs: (self.outputs.iter().enumerate())
                .map(|(p, output)| OutputPortRecord {
                    link: output.link,
                    credits: self.credits[per_port(p)].to_vec(),
                    vc_owner: self.vc_owner[per_port(p)].to_vec(),
                    sa_arbiter: output.sa_arbiter.clone(),
                    va_arbiter: output.va_arbiter.clone(),
                })
                .collect(),
            sa_rotate: self.sa_rotate,
            scratch_port_mask: self.scratch_port_mask.to_vec(),
            scratch_routes: Vec::new(),
            flits_switched: self.flits_switched,
            flits_accepted: self.flits_accepted,
            sa_denials: self.sa_denials,
            buffered_flits: self.buffered_flits,
            active_vcs: self.active_vcs,
            sa_ready: SlotSetRecord {
                words: vec![self.sa_ready],
            },
            va_set: SlotSetRecord {
                words: vec![self.va_set],
            },
            rc_ready: SlotSetRecord {
                words: vec![self.rc_ready],
            },
        }
        .serialize_value()
    }
}

impl Deserialize for Router {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        let r = RouterRecord::deserialize_value(v)?;
        let (ports, vcs) = (r.inputs.len(), r.vcs);
        let shaped = ports >= 1
            && vcs >= 1
            && ports * vcs <= 64
            && r.outputs.len() == ports
            && r.scratch_port_mask.len() == ports
            && r.inputs
                .iter()
                .all(|i| i.buffer.vcs() as usize == vcs && i.vc_state.len() == vcs)
            && r.outputs
                .iter()
                .all(|o| o.credits.len() == vcs && o.vc_owner.len() == vcs);
        if !shaped {
            return Err(serde::Error::custom(format!(
                "router {} checkpoint does not have {ports} ports of {vcs} VCs throughout",
                r.id
            )));
        }
        let vc_state = r
            .inputs
            .iter()
            .flat_map(|i| i.vc_state.iter().copied())
            .collect();
        let credits = r
            .outputs
            .iter()
            .flat_map(|o| o.credits.iter().copied())
            .collect();
        let vc_owner = r
            .outputs
            .iter()
            .flat_map(|o| o.vc_owner.iter().copied())
            .collect();
        Ok(Router {
            id: r.id,
            routing: r.routing,
            vcs,
            inputs: (r.inputs.into_iter())
                .map(|i| InputPort {
                    buffer: i.buffer,
                    feeder: i.feeder,
                    occupancy_accum: i.occupancy_accum,
                })
                .collect(),
            outputs: (r.outputs.into_iter())
                .map(|o| OutputPort {
                    link: o.link,
                    sa_arbiter: o.sa_arbiter,
                    va_arbiter: o.va_arbiter,
                })
                .collect(),
            vc_state,
            credits,
            vc_owner,
            sa_rotate: r.sa_rotate,
            scratch_port_mask: r.scratch_port_mask.into_boxed_slice(),
            flits_switched: r.flits_switched,
            flits_accepted: r.flits_accepted,
            sa_denials: r.sa_denials,
            buffered_flits: r.buffered_flits,
            active_vcs: r.active_vcs,
            sa_ready: r.sa_ready.word()?,
            va_set: r.va_set.word()?,
            rc_ready: r.rc_ready.word()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Packet;
    use crate::ids::{NodeId, PacketId};
    use crate::link::{Endpoint, LinkKind};
    use lumen_opto::Gbps;

    /// A 1-router harness: router 0 of a 2×2 mesh with 2 local ports,
    /// with an ejection link on local port 0 and an East link.
    struct Harness {
        config: NocConfig,
        router: Router,
        table: RouteTable,
        links: Vec<Link>,
        effects: Vec<Effect>,
        now: Picos,
    }

    impl Harness {
        fn new() -> Self {
            let config = NocConfig::small_for_tests();
            let mut router = Router::new(RouterId(0), RoutingAlgorithm::XY, &config);
            let eject = Link::new(
                LinkId(0),
                LinkKind::Ejection,
                Endpoint::RouterPort {
                    router: RouterId(0),
                    port: PortId(0),
                },
                Endpoint::Node(NodeId(0)),
                config.flit_bits,
                config.propagation,
                Gbps::from_gbps(10.0),
            );
            let east = Link::new(
                LinkId(1),
                LinkKind::InterRouter,
                Endpoint::RouterPort {
                    router: RouterId(0),
                    port: PortId(4), // East = 2 locals + index 2
                },
                Endpoint::RouterPort {
                    router: RouterId(1),
                    port: PortId(5), // West on the neighbor
                },
                config.flit_bits,
                config.propagation,
                Gbps::from_gbps(10.0),
            );
            router.connect_output(PortId(0), LinkId(0));
            router.connect_output(PortId(4), LinkId(1));
            router.connect_input(PortId(1), LinkId(7)); // pretend injection feeder
            let table = RouteTable::build(&config, RoutingAlgorithm::XY);
            Harness {
                config,
                router,
                table,
                links: vec![eject, east],
                effects: Vec::new(),
                now: Picos::ZERO,
            }
        }

        fn tick(&mut self) {
            self.router.tick(
                self.now,
                &self.config,
                &self.table,
                &mut self.links,
                &mut self.effects,
            );
            self.now += self.config.cycle();
        }
    }

    fn packet_to(dst: NodeId, size: u32) -> Packet {
        Packet::new(PacketId(1), NodeId(1), dst, size, Picos::ZERO)
    }

    #[test]
    fn head_flit_pipeline_latency() {
        let mut h = Harness::new();
        // Destination node 0 lives on this router → ejection port 0.
        let pkt = packet_to(NodeId(0), 1);
        for f in pkt.into_flits() {
            h.router.accept_flit(PortId(1), VcId(0), f);
        }
        // Cycle 1: RC, cycle 2: VA, cycle 3: SA (flit pops), ST at cycle 4.
        h.tick();
        assert!(h.effects.is_empty());
        assert_eq!(
            h.router.vc_state(PortId(1), VcId(0)),
            VcState::VcAlloc {
                out_port: PortId(0)
            }
        );
        h.tick();
        assert!(matches!(
            h.router.vc_state(PortId(1), VcId(0)),
            VcState::Active { .. }
        ));
        h.tick();
        // SA granted during the 3rd tick; flit departure scheduled.
        let flit_events: Vec<&Effect> = h
            .effects
            .iter()
            .filter(|e| matches!(e, Effect::Flit { .. }))
            .collect();
        assert_eq!(flit_events.len(), 1);
        if let Effect::Flit { link, at, .. } = flit_events[0] {
            assert_eq!(*link, LinkId(0));
            // ST at cycle 3 start + 1 cycle, + 1 cycle serialization + prop.
            let expect = h.config.cycle() * 3 + h.config.cycle() + h.config.propagation;
            assert_eq!(*at, expect);
        }
        // Credit returned to the feeder.
        assert!(h
            .effects
            .iter()
            .any(|e| matches!(e, Effect::Credit { link, .. } if *link == LinkId(7))));
        // Tail flit released everything.
        assert_eq!(h.router.vc_state(PortId(1), VcId(0)), VcState::Idle);
        assert!(h.router.is_quiescent());
    }

    #[test]
    fn multi_flit_packet_streams_one_per_cycle() {
        let mut h = Harness::new();
        for f in packet_to(NodeId(0), 3).into_flits() {
            h.router.accept_flit(PortId(1), VcId(0), f);
        }
        for _ in 0..6 {
            h.tick();
        }
        let departures: Vec<Picos> = h
            .effects
            .iter()
            .filter_map(|e| match e {
                Effect::Flit { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(departures.len(), 3);
        // Consecutive flits leave one cycle apart (full-rate link).
        assert_eq!(departures[1] - departures[0], h.config.cycle());
        assert_eq!(departures[2] - departures[1], h.config.cycle());
    }

    #[test]
    fn credits_block_when_exhausted() {
        let mut h = Harness::new();
        // Drain all credits from output 0 (depth 4 in the test config),
        // feeding flits in only as buffer space allows (as a credit-
        // respecting upstream would).
        let depth = h.config.depth_per_vc();
        let mut pending: Vec<_> = packet_to(NodeId(0), 16).into_flits().take(8).collect();
        pending.reverse();
        for _ in 0..24 {
            if let Some(&next) = pending.last() {
                if h.router.input_buffer(PortId(1)).free_slots(VcId(0)) > 0 {
                    h.router.accept_flit(PortId(1), VcId(0), next);
                    pending.pop();
                }
            }
            h.tick();
        }
        let sent = h
            .effects
            .iter()
            .filter(|e| matches!(e, Effect::Flit { .. }))
            .count();
        // Only `depth` flits may leave before credits run out.
        assert_eq!(sent, depth as usize);
        // Returning one credit lets exactly one more through.
        h.router
            .return_credit(PortId(0), VcId(0), h.config.depth_per_vc() as u16);
        h.effects.clear();
        h.tick();
        h.tick();
        let sent_after = h
            .effects
            .iter()
            .filter(|e| matches!(e, Effect::Flit { .. }))
            .count();
        assert_eq!(sent_after, 1);
    }

    #[test]
    fn disabled_link_blocks_switch_allocation() {
        let mut h = Harness::new();
        h.links[0].disable_until(Picos::from_us(1));
        for f in packet_to(NodeId(0), 1).into_flits() {
            h.router.accept_flit(PortId(1), VcId(0), f);
        }
        for _ in 0..10 {
            h.tick();
        }
        assert!(h.effects.iter().all(|e| !matches!(e, Effect::Flit { .. })));
        // After the disable window the flit flows.
        while h.now < Picos::from_us(1) {
            h.tick();
        }
        h.tick();
        h.tick();
        assert!(h.effects.iter().any(|e| matches!(e, Effect::Flit { .. })));
    }

    #[test]
    fn slow_link_spaces_flits_by_serialization_time() {
        let mut h = Harness::new();
        h.links[0].begin_rate_change(Picos::ZERO, Gbps::from_gbps(5.0), Picos::ZERO);
        for f in packet_to(NodeId(0), 2).into_flits() {
            h.router.accept_flit(PortId(1), VcId(0), f);
        }
        for _ in 0..10 {
            h.tick();
        }
        let departures: Vec<Picos> = h
            .effects
            .iter()
            .filter_map(|e| match e {
                Effect::Flit { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(departures.len(), 2);
        // At 5 Gb/s a 16-bit flit takes 3200 ps = 2 cycles.
        assert_eq!(departures[1] - departures[0], Picos::from_ps(3200));
    }

    #[test]
    fn occupancy_accumulates() {
        let mut h = Harness::new();
        for f in packet_to(NodeId(0), 2).into_flits() {
            h.router.accept_flit(PortId(1), VcId(0), f);
        }
        h.tick();
        assert_eq!(h.router.take_occupancy_accum(PortId(1)), 2);
        assert_eq!(h.router.take_occupancy_accum(PortId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn credit_overflow_detected() {
        let mut h = Harness::new();
        let depth = h.config.depth_per_vc() as u16;
        h.router.return_credit(PortId(0), VcId(0), depth);
    }
}
