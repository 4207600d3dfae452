//! Event-core equivalence tests: the bucketed cycle wheel and the
//! reference binary-heap calendar must be indistinguishable through the
//! `EventQueue` API, and the engine seam (zero-delay scheduling during
//! `handle`) must survive the two-tier structure.

use lumen_core::prelude::*;
use lumen_desim::queue::WHEEL_SLOTS;
use lumen_desim::{Engine, EventQueue, Picos, RunOutcome, SimModel};
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;

/// One scripted operation against both queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule(Picos),
    Pop,
}

/// Decodes a raw `(kind, magnitude)` pair into an operation. Encoded this
/// way so the vendored proptest's integer-range strategies can drive it.
fn decode(kind: u64, raw: u64) -> Op {
    match kind % 4 {
        // Same-instant bursts: coarse 1600 ps buckets force heavy ties.
        0 => Op::Schedule(Picos::from_ps((raw % 32) * 1600)),
        // Near future, sub-cycle offsets (non-integral flit serialization).
        1 => Op::Schedule(Picos::from_ps(raw % 500_000)),
        // Far future: beyond the wheel horizon, lands in overflow
        // (transition completions, laser decisions, fault onsets).
        2 => Op::Schedule(Picos::from_ps(
            (raw % (1 << 22)) + 1600 * WHEEL_SLOTS as u64,
        )),
        _ => Op::Pop,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bucketed queue and the reference heap deliver identical
    /// `(time, seq)` sequences for arbitrary schedules, including
    /// same-instant bursts, interleaved pops, and far-future overflow.
    #[test]
    fn wheel_and_heap_deliver_identical_sequences(
        kinds in proptest::collection::vec(0u64..4, 50..600),
        raws in proptest::collection::vec(0u64..(1 << 42), 50..600),
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: EventQueue<u64> = EventQueue::reference_heap();
        let mut seq = 0u64;
        for (i, (&kind, &raw)) in kinds.iter().zip(raws.iter()).enumerate() {
            match decode(kind, raw) {
                Op::Schedule(at) => {
                    wheel.schedule(at, seq);
                    heap.schedule(at, seq);
                    seq += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "peek diverged at op {}", i);
                    prop_assert_eq!(wheel.pop(), heap.pop(), "pop diverged at op {}", i);
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain both to the end: the full remaining sequence must match.
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w, h, "drain diverged");
            if w.is_none() {
                break;
            }
        }
    }

    /// Horizon-bounded popping agrees between backends for arbitrary
    /// schedules and horizons (the engine's actual access pattern).
    #[test]
    fn horizon_pops_agree(
        kinds in proptest::collection::vec(0u64..3, 20..200),
        raws in proptest::collection::vec(0u64..(1 << 42), 20..200),
        horizon_raw in 0u64..(1 << 22),
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: EventQueue<u64> = EventQueue::reference_heap();
        for (i, (&kind, &raw)) in kinds.iter().zip(raws.iter()).enumerate() {
            if let Op::Schedule(at) = decode(kind, raw) {
                wheel.schedule(at, i as u64);
                heap.schedule(at, i as u64);
            }
        }
        let horizon = Picos::from_ps(horizon_raw);
        loop {
            let (w, h) = (
                wheel.pop_if_at_or_before(horizon),
                heap.pop_if_at_or_before(horizon),
            );
            prop_assert_eq!(w, h, "horizon pop diverged");
            if w.is_none() {
                break;
            }
        }
        // Whatever remains is strictly beyond the horizon, on both.
        prop_assert_eq!(wheel.len(), heap.len());
        if let Some(t) = wheel.peek_time() {
            prop_assert!(t > horizon);
        }
    }
}

/// A model exercising the exact rewrite seam: handling an event at `t`
/// schedules more work at `t` (zero delay), at `t` + one bucket, and far
/// beyond the wheel horizon — all of which must be delivered in global
/// `(time, seq)` order.
struct SeamModel {
    cycle: Picos,
    log: Vec<(Picos, u32)>,
}

impl SimModel for SeamModel {
    type Event = u32;
    fn handle(&mut self, now: Picos, ev: u32, queue: &mut EventQueue<u32>) {
        self.log.push((now, ev));
        match ev {
            // First event: a zero-delay follow-up at `now` must run after
            // the already-queued event 2 (FIFO among equal timestamps)
            // but within the same run_until horizon.
            1 => queue.schedule(now, 10),
            // The zero-delay follow-up fans out near and far.
            10 => {
                queue.schedule(now + self.cycle, 20);
                queue.schedule(now + self.cycle * (WHEEL_SLOTS as u64 * 3), 30);
            }
            _ => {}
        }
    }
}

#[test]
fn engine_seam_zero_delay_and_overflow_ordering() {
    let cycle = Picos::from_ps(1600);
    for reference in [false, true] {
        let queue = if reference {
            EventQueue::reference_heap()
        } else {
            EventQueue::with_bucket_width(cycle)
        };
        let mut eng = Engine::with_queue(
            SeamModel {
                cycle,
                log: Vec::new(),
            },
            queue,
        );
        let t = cycle * 5;
        eng.queue_mut().schedule(t, 1);
        eng.queue_mut().schedule(t, 2);
        // Horizon exactly at t: the zero-delay event 10 (scheduled during
        // handling) must still be delivered this cycle, after event 2.
        assert_eq!(eng.run_until(t), RunOutcome::HorizonReached);
        assert_eq!(
            eng.model().log,
            vec![(t, 1), (t, 2), (t, 10)],
            "reference={reference}"
        );
        // The rest drains in order: next cycle, then the overflow event.
        assert_eq!(eng.run_to_completion(), RunOutcome::QueueDrained);
        assert_eq!(
            eng.model().log[3..],
            [(t + cycle, 20), (t + cycle * (WHEEL_SLOTS as u64 * 3), 30)],
            "reference={reference}"
        );
    }
}

/// Full-system differential: a power-aware run with sampling produces the
/// same `RunResult`-level numbers on both calendars. (A finer-grained
/// version with faults lives in `lumen-core::sim::tests`.)
#[test]
fn full_sim_outputs_identical_on_both_calendars() {
    let run = |reference: bool| {
        let mut config = SystemConfig::paper_default();
        config.noc = NocConfig::small_for_tests();
        config.power_aware = true;
        config.policy.timing.tw_cycles = 200;
        let source = Box::new(SyntheticSource::new(
            &config.noc,
            Pattern::Uniform,
            RateProfile::Constant(0.12),
            PacketSize::Fixed(4),
            lumen_desim::Rng::seed_from(config.seed),
        ));
        let mut engine = PowerAwareSim::build_engine(config, source, None);
        if reference {
            // Move the cold-start calendar onto the heap in drain order,
            // which keeps same-time events in their order.
            let pending = engine.drain_pending();
            *engine.queue_mut() = EventQueue::reference_heap();
            for (at, ev) in pending {
                engine.queue_mut().schedule(at, ev);
            }
        }
        let horizon = Picos::from_ps(1600 * 15_000);
        engine.run_until(horizon);
        let sim = engine.model();
        (
            engine.processed(),
            engine.queue().scheduled_total(),
            sim.latency_summary().count(),
            sim.latency_summary().mean(),
            sim.energy_nj(horizon),
            sim.transitions(),
            sim.network().packets_delivered(),
        )
    };
    assert_eq!(run(false), run(true));
}
