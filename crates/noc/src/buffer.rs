//! Input buffers: one fixed-capacity ring per virtual channel, all of a
//! port's rings in a single allocation.

use crate::flit::{Flit, FlitKind};
use crate::ids::{NodeId, PacketId, VcId};
use lumen_desim::Picos;
use serde::{Deserialize, Serialize, Value};

/// What an unused ring slot holds. Slots are overwritten before they are
/// read, so the value is never observed; it only keeps the storage
/// initialized without `unsafe`.
const EMPTY_SLOT: Flit = Flit {
    packet: PacketId(0),
    kind: FlitKind::HeadTail,
    seq: 0,
    src: NodeId(0),
    dst: NodeId(0),
    size_flits: 0,
    created_at: Picos::ZERO,
    corrupted: false,
};

/// One VC's ring: its oldest flit sits at slot `head` of the VC's
/// `depth_per_vc` slots, and it holds `len` flits.
#[derive(Debug, Clone, Copy, Default)]
struct Ring {
    head: u16,
    len: u16,
}

/// One router input port's buffering: a fixed-capacity FIFO per virtual
/// channel. Capacity is enforced — an overflow indicates a credit
/// accounting bug upstream, so it panics rather than dropping flits.
///
/// The FIFOs are rings over one `vcs × depth_per_vc` slot array (VC `v`
/// owns slots `v * depth_per_vc ..`), so a port's flits sit in one
/// allocation and never move or reallocate after construction.
#[derive(Debug, Clone)]
pub struct InputBuffer {
    slots: Box<[Flit]>,
    rings: Box<[Ring]>,
    depth_per_vc: u16,
    // Flits across all VCs, kept in sync by push/pop so the per-cycle
    // occupancy statistic is O(1) instead of a walk over every VC.
    occupancy: u32,
}

impl InputBuffer {
    /// Creates a buffer with `vcs` virtual channels of `depth_per_vc` flits
    /// each.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` or `depth_per_vc` is zero.
    pub fn new(vcs: u8, depth_per_vc: u16) -> Self {
        assert!(vcs >= 1, "need at least one VC");
        assert!(depth_per_vc >= 1, "VC depth must be positive");
        InputBuffer {
            slots: vec![EMPTY_SLOT; vcs as usize * depth_per_vc as usize].into_boxed_slice(),
            rings: vec![Ring::default(); vcs as usize].into_boxed_slice(),
            depth_per_vc,
            occupancy: 0,
        }
    }

    /// Number of virtual channels.
    pub fn vcs(&self) -> u8 {
        self.rings.len() as u8
    }

    /// Capacity per VC, in flits.
    pub fn depth_per_vc(&self) -> usize {
        self.depth_per_vc as usize
    }

    /// Pushes a flit into a VC.
    ///
    /// # Panics
    ///
    /// Panics if the VC is full (credit protocol violation) or the VC index
    /// is out of range.
    pub fn push(&mut self, vc: VcId, flit: Flit) {
        let v = vc.0 as usize;
        let depth = self.depth_per_vc;
        let ring = &mut self.rings[v];
        assert!(
            ring.len < depth,
            "buffer overflow on {vc}: credit protocol violated"
        );
        let mut tail = ring.head as usize + ring.len as usize;
        if tail >= depth as usize {
            tail -= depth as usize;
        }
        ring.len += 1;
        self.slots[v * depth as usize + tail] = flit;
        self.occupancy += 1;
    }

    /// The head-of-line flit of a VC, if any.
    pub fn front(&self, vc: VcId) -> Option<&Flit> {
        let v = vc.0 as usize;
        let ring = self.rings[v];
        (ring.len > 0).then(|| &self.slots[v * self.depth_per_vc as usize + ring.head as usize])
    }

    /// Pops the head-of-line flit of a VC.
    pub fn pop(&mut self, vc: VcId) -> Option<Flit> {
        let v = vc.0 as usize;
        let depth = self.depth_per_vc;
        let ring = &mut self.rings[v];
        if ring.len == 0 {
            return None;
        }
        let flit = self.slots[v * depth as usize + ring.head as usize];
        ring.head = if ring.head + 1 == depth {
            0
        } else {
            ring.head + 1
        };
        ring.len -= 1;
        self.occupancy -= 1;
        Some(flit)
    }

    /// Occupancy of one VC, in flits.
    pub fn len(&self, vc: VcId) -> usize {
        self.rings[vc.0 as usize].len as usize
    }

    /// Whether one VC is empty.
    pub fn is_empty(&self, vc: VcId) -> bool {
        self.rings[vc.0 as usize].len == 0
    }

    /// Total occupancy across all VCs, in flits (the `F(t)` of the paper's
    /// buffer-utilization statistic, Eq. 10).
    pub fn total_occupancy(&self) -> usize {
        debug_assert_eq!(
            self.occupancy as usize,
            self.rings.iter().map(|r| r.len as usize).sum::<usize>()
        );
        self.occupancy as usize
    }

    /// Total capacity across all VCs, in flits (the `B` of Eq. 10).
    pub fn total_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Free slots in one VC.
    pub fn free_slots(&self, vc: VcId) -> usize {
        (self.depth_per_vc - self.rings[vc.0 as usize].len) as usize
    }

    /// One VC's live flits, oldest first.
    fn live(&self, v: usize) -> impl Iterator<Item = &Flit> {
        let depth = self.depth_per_vc as usize;
        let ring = self.rings[v];
        let vc_slots = &self.slots[v * depth..(v + 1) * depth];
        let (wrapped, first) = vc_slots.split_at(ring.head as usize);
        first.iter().chain(wrapped).take(ring.len as usize)
    }
}

/// The checkpoint layout (`lumen-ckpt/1`): per-VC lists of the live flits,
/// oldest first, then `depth_per_vc` and `occupancy`. Free slots are not
/// written; a restored buffer is rebuilt through [`InputBuffer::new`].
impl Serialize for InputBuffer {
    fn serialize_value(&self) -> Value {
        let queues = (0..self.rings.len())
            .map(|v| Value::Seq(self.live(v).map(Serialize::serialize_value).collect()))
            .collect();
        Value::Map(vec![
            ("queues".into(), Value::Seq(queues)),
            ("depth_per_vc".into(), self.depth_per_vc.serialize_value()),
            ("occupancy".into(), self.occupancy.serialize_value()),
        ])
    }
}

impl Deserialize for InputBuffer {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "InputBuffer"))?;
        let field = |name: &str| serde::map_field(map, name, "InputBuffer");
        let queues: Vec<Vec<Flit>> = Vec::deserialize_value(field("queues")?)?;
        let depth_per_vc = u16::deserialize_value(field("depth_per_vc")?)?;
        let occupancy = usize::deserialize_value(field("occupancy")?)?;
        let vcs = u8::try_from(queues.len())
            .ok()
            .filter(|&n| n >= 1 && depth_per_vc >= 1)
            .ok_or_else(|| {
                serde::Error::custom(format!(
                    "InputBuffer with {} VCs of depth {depth_per_vc}",
                    queues.len()
                ))
            })?;
        if queues.iter().any(|q| q.len() > depth_per_vc as usize)
            || queues.iter().map(Vec::len).sum::<usize>() != occupancy
        {
            return Err(serde::Error::custom(
                "InputBuffer queues exceed their depth or disagree with its occupancy",
            ));
        }
        let mut buffer = InputBuffer::new(vcs, depth_per_vc);
        for (v, queue) in queues.into_iter().enumerate() {
            for flit in queue {
                buffer.push(VcId(v as u8), flit);
            }
        }
        Ok(buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Packet;

    fn flit(seq: u32) -> Flit {
        Packet::new(PacketId(1), NodeId(0), NodeId(1), 8, Picos::ZERO)
            .into_flits()
            .nth(seq as usize)
            .unwrap()
    }

    /// A flit tagged with its VC and a running number, so ordering and
    /// cross-VC leaks are both visible.
    fn tagged(vc: u8, n: u32) -> Flit {
        Flit {
            packet: PacketId(u64::from(vc)),
            seq: n,
            ..flit(0)
        }
    }

    fn per_vc_lists(b: &InputBuffer) -> Vec<Vec<Flit>> {
        (0..b.rings.len())
            .map(|v| b.live(v).copied().collect())
            .collect()
    }

    #[test]
    fn fifo_order() {
        let mut b = InputBuffer::new(1, 4);
        b.push(VcId(0), flit(0));
        b.push(VcId(0), flit(1));
        assert_eq!(b.len(VcId(0)), 2);
        assert_eq!(b.front(VcId(0)).unwrap().seq, 0);
        assert_eq!(b.pop(VcId(0)).unwrap().seq, 0);
        assert_eq!(b.pop(VcId(0)).unwrap().seq, 1);
        assert!(b.pop(VcId(0)).is_none());
    }

    #[test]
    fn per_vc_isolation() {
        let mut b = InputBuffer::new(2, 2);
        b.push(VcId(0), flit(0));
        b.push(VcId(1), flit(1));
        assert_eq!(b.len(VcId(0)), 1);
        assert_eq!(b.len(VcId(1)), 1);
        assert_eq!(b.total_occupancy(), 2);
        assert_eq!(b.total_capacity(), 4);
        assert_eq!(b.pop(VcId(1)).unwrap().seq, 1);
        assert!(b.is_empty(VcId(1)));
        assert!(!b.is_empty(VcId(0)));
    }

    #[test]
    fn free_slots_track_occupancy() {
        let mut b = InputBuffer::new(1, 3);
        assert_eq!(b.free_slots(VcId(0)), 3);
        b.push(VcId(0), flit(0));
        assert_eq!(b.free_slots(VcId(0)), 2);
        b.pop(VcId(0));
        assert_eq!(b.free_slots(VcId(0)), 3);
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn overflow_panics() {
        let mut b = InputBuffer::new(1, 1);
        b.push(VcId(0), flit(0));
        b.push(VcId(0), flit(1));
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn overflow_after_wrap_panics() {
        // A full VC whose ring has wrapped still refuses a push, and a
        // neighbouring VC's free slots do not absorb it.
        let mut b = InputBuffer::new(2, 3);
        for n in 0..5 {
            b.push(VcId(1), tagged(1, n));
            b.pop(VcId(1));
        }
        for n in 0..3 {
            b.push(VcId(1), tagged(1, n));
        }
        b.push(VcId(1), tagged(1, 3));
    }

    #[test]
    fn kind_structure_preserved() {
        let mut b = InputBuffer::new(1, 8);
        for f in Packet::new(PacketId(2), NodeId(0), NodeId(1), 3, Picos::ZERO).into_flits() {
            b.push(VcId(0), f);
        }
        assert_eq!(b.pop(VcId(0)).unwrap().kind, FlitKind::Head);
        assert_eq!(b.pop(VcId(0)).unwrap().kind, FlitKind::Body);
        assert_eq!(b.pop(VcId(0)).unwrap().kind, FlitKind::Tail);
    }

    #[test]
    fn interleaved_vcs_stay_fifo_across_many_wraps() {
        // Three VCs of depth 5 driven by a fixed pseudo-random schedule
        // of pushes and pops, checked against one reference deque per VC.
        let (vcs, depth) = (3u8, 5u16);
        let mut b = InputBuffer::new(vcs, depth);
        let mut model: Vec<std::collections::VecDeque<Flit>> = vec![Default::default(); 3];
        let mut next = [0u32; 3];
        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..5_000 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((lcg >> 33) % u64::from(vcs)) as usize;
            let push = (lcg >> 40) & 1 == 0;
            if push && model[v].len() < depth as usize {
                let f = tagged(v as u8, next[v]);
                next[v] += 1;
                b.push(VcId(v as u8), f);
                model[v].push_back(f);
            } else {
                assert_eq!(b.pop(VcId(v as u8)), model[v].pop_front());
            }
            for (u, q) in model.iter().enumerate() {
                let vc = VcId(u as u8);
                assert_eq!(b.len(vc), q.len());
                assert_eq!(b.free_slots(vc), depth as usize - q.len());
                assert_eq!(b.front(vc), q.front());
            }
            assert_eq!(
                b.total_occupancy(),
                model.iter().map(|q| q.len()).sum::<usize>()
            );
        }
        // Each VC went round its ring many times.
        assert!(next.iter().all(|&n| n > 20 * u32::from(depth)), "{next:?}");
    }

    #[test]
    fn accessors_at_the_wrap_point() {
        let mut b = InputBuffer::new(2, 4);
        // Advance VC 1's head to the last slot, leaving it empty.
        for n in 0..3 {
            b.push(VcId(1), tagged(1, n));
            assert_eq!(b.pop(VcId(1)).unwrap().seq, n);
        }
        assert_eq!(b.len(VcId(1)), 0);
        assert_eq!(b.free_slots(VcId(1)), 4);
        assert!(b.front(VcId(1)).is_none());
        // The first push lands in the last slot, the next three wrap to
        // the start of the VC's slots.
        b.push(VcId(1), tagged(1, 3));
        assert_eq!(b.front(VcId(1)).unwrap().seq, 3);
        for n in 4..7 {
            b.push(VcId(1), tagged(1, n));
            assert_eq!(b.front(VcId(1)).unwrap().seq, 3);
        }
        assert_eq!(b.len(VcId(1)), 4);
        assert_eq!(b.free_slots(VcId(1)), 0);
        // VC 0 is untouched by VC 1's wrap.
        assert!(b.is_empty(VcId(0)));
        assert_eq!(b.free_slots(VcId(0)), 4);
        // Popping across the wrap keeps FIFO order.
        let seqs: Vec<u32> = (0..4).map(|_| b.pop(VcId(1)).unwrap().seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6]);
        assert!(b.pop(VcId(1)).is_none());
    }

    #[test]
    fn serde_round_trip_of_a_wrapped_partly_full_buffer() {
        let mut b = InputBuffer::new(3, 4);
        // VC 0: wrapped, 3 live flits. VC 1: empty after wrapping.
        // VC 2: never wrapped, 1 live flit.
        for n in 0..3 {
            b.push(VcId(0), tagged(0, n));
            b.pop(VcId(0));
        }
        for n in 3..6 {
            b.push(VcId(0), tagged(0, n));
        }
        for n in 0..5 {
            b.push(VcId(1), tagged(1, n));
            b.pop(VcId(1));
        }
        b.push(VcId(2), tagged(2, 0));
        let want = per_vc_lists(&b);
        assert_eq!(
            want[0].iter().map(|f| f.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );

        let v = b.serialize_value();
        // Only live flits are written: one list per VC.
        let queues = serde::map_field(v.as_map().unwrap(), "queues", "test").unwrap();
        let lens: Vec<usize> = queues
            .as_seq()
            .unwrap()
            .iter()
            .map(|q| q.as_seq().unwrap().len())
            .collect();
        assert_eq!(lens, vec![3, 0, 1]);

        let mut back = InputBuffer::deserialize_value(&v).unwrap();
        assert_eq!(per_vc_lists(&back), want);
        assert_eq!(back.total_occupancy(), 4);
        assert_eq!(back.depth_per_vc(), 4);
        assert_eq!(back.serialize_value(), v);
        // The restored buffer has its full capacity back.
        back.push(VcId(0), tagged(0, 6));
        assert_eq!(back.free_slots(VcId(0)), 0);
        assert_eq!(back.free_slots(VcId(1)), 4);
    }

    #[test]
    fn malformed_checkpoint_buffers_are_rejected() {
        let mut b = InputBuffer::new(1, 2);
        b.push(VcId(0), flit(0));
        let Value::Map(mut fields) = b.serialize_value() else {
            unreachable!()
        };
        fields[2].1 = Value::U64(2); // occupancy disagrees with the lists
        assert!(InputBuffer::deserialize_value(&Value::Map(fields.clone())).is_err());
        fields[1].1 = Value::U64(0); // zero depth
        assert!(InputBuffer::deserialize_value(&Value::Map(fields)).is_err());
    }
}
