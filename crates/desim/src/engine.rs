//! The event loop.

use crate::queue::EventQueue;
use crate::time::Picos;

/// A simulation model driven by the [`Engine`].
///
/// The model handles one event at a time and may schedule further events on
/// the queue it is handed. Events delivered to `handle` are guaranteed to be
/// in non-decreasing time order, with FIFO ordering among simultaneous
/// events.
pub trait SimModel {
    /// The event alphabet of this model.
    type Event;

    /// Handles a single event occurring at `now`.
    fn handle(&mut self, now: Picos, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Why a call to [`Engine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon was reached.
    QueueDrained,
    /// The time horizon was reached; later events remain pending.
    HorizonReached,
    /// The event budget was exhausted (see [`Engine::set_event_budget`]).
    BudgetExhausted,
}

/// A generic discrete-event simulation engine.
///
/// Owns the model, the clock, and the event calendar; see the crate-level
/// example for typical usage.
pub struct Engine<M: SimModel> {
    model: M,
    queue: EventQueue<M::Event>,
    now: Picos,
    processed: u64,
    event_budget: Option<u64>,
}

impl<M: SimModel> Engine<M> {
    /// Creates an engine at time zero with an empty calendar.
    pub fn new(model: M) -> Self {
        Self::with_queue(model, EventQueue::new())
    }

    /// Creates an engine whose calendar pre-allocates room for `capacity`
    /// pending events. Simulations that schedule tens of millions of
    /// events should size this from their fan-out —
    /// e.g. links × events-per-link-per-cycle × in-flight cycles — to
    /// avoid reallocation churn in the hot path.
    pub fn with_capacity(model: M, capacity: usize) -> Self {
        Self::with_queue(model, EventQueue::with_capacity(capacity))
    }

    /// Creates an engine over a caller-built calendar (custom bucket
    /// width, capacity, or the reference heap backend).
    pub fn with_queue(model: M, queue: EventQueue<M::Event>) -> Self {
        Engine {
            model,
            queue,
            now: Picos::ZERO,
            processed: 0,
            event_budget: None,
        }
    }

    /// Current simulation time (the timestamp of the last handled event).
    pub fn now(&self) -> Picos {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutably borrows the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Mutably borrows the event calendar (e.g. to seed initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<M::Event> {
        &mut self.queue
    }

    /// Borrows the event calendar.
    pub fn queue(&self) -> &EventQueue<M::Event> {
        &self.queue
    }

    /// Borrows the model and the calendar together (e.g. so an external
    /// coordinator can run a model step that schedules further events).
    pub fn model_and_queue_mut(&mut self) -> (&mut M, &mut EventQueue<M::Event>) {
        (&mut self.model, &mut self.queue)
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Removes every pending event and returns them in the order this
    /// engine would have delivered them: nondecreasing time, FIFO among
    /// same-time events ([`EventQueue::drain_pending`]). The calendar is
    /// empty afterwards, while `now` and `processed` are untouched.
    pub fn drain_pending(&mut self) -> Vec<(Picos, M::Event)> {
        self.queue.drain_pending()
    }

    /// Caps the total number of events this engine will ever process; a
    /// safety valve against runaway self-scheduling models.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = Some(budget);
    }

    /// Runs until the queue drains, the budget is exhausted, or the next
    /// event would occur strictly after `horizon` (events *at* the horizon
    /// are processed).
    pub fn run_until(&mut self, horizon: Picos) -> RunOutcome {
        loop {
            if self.budget_spent() {
                return RunOutcome::BudgetExhausted;
            }
            // One call decides "in range?" and pops — no separate peek
            // pass over the calendar on the per-event hot path.
            match self.queue.pop_if_at_or_before(horizon) {
                Some((time, event)) => {
                    debug_assert!(time >= self.now, "event calendar went backwards");
                    self.now = time;
                    self.processed += 1;
                    self.model.handle(time, event, &mut self.queue);
                }
                None => {
                    return if self.queue.is_empty() {
                        RunOutcome::QueueDrained
                    } else {
                        RunOutcome::HorizonReached
                    };
                }
            }
        }
    }

    /// Runs until the queue is fully drained (or the budget is exhausted).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(Picos::MAX)
    }

    /// Processes exactly one event, if any is pending. Returns its time.
    ///
    /// Returns `None` once the event budget is spent (the same cap
    /// [`Engine::run_until`] enforces): a budget-exhausted engine cannot
    /// be stepped past its cap. Use [`Engine::processed`] against the
    /// budget to distinguish exhaustion from an empty calendar.
    pub fn step(&mut self) -> Option<Picos> {
        if self.budget_spent() {
            return None;
        }
        let (time, event) = self.queue.pop()?;
        debug_assert!(time >= self.now);
        self.now = time;
        self.processed += 1;
        self.model.handle(time, event, &mut self.queue);
        Some(time)
    }

    fn budget_spent(&self) -> bool {
        self.event_budget
            .is_some_and(|budget| self.processed >= budget)
    }
}

impl<M: SimModel + std::fmt::Debug> std::fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("pending", &self.queue.len())
            .field("model", &self.model)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Echo {
        seen: Vec<(Picos, u32)>,
        respawn: bool,
    }

    impl SimModel for Echo {
        type Event = u32;
        fn handle(&mut self, now: Picos, ev: u32, queue: &mut EventQueue<u32>) {
            self.seen.push((now, ev));
            if self.respawn && ev < 5 {
                queue.schedule(now + Picos::from_ns(1), ev + 1);
            }
        }
    }

    #[test]
    fn drains_queue() {
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: false,
        });
        eng.queue_mut().schedule(Picos::from_ns(2), 20);
        eng.queue_mut().schedule(Picos::from_ns(1), 10);
        assert_eq!(eng.run_to_completion(), RunOutcome::QueueDrained);
        assert_eq!(
            eng.model().seen,
            vec![(Picos::from_ns(1), 10), (Picos::from_ns(2), 20)]
        );
        assert_eq!(eng.now(), Picos::from_ns(2));
        assert_eq!(eng.processed(), 2);
    }

    #[test]
    fn respects_horizon_inclusive() {
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: false,
        });
        eng.queue_mut().schedule(Picos::from_ns(1), 1);
        eng.queue_mut().schedule(Picos::from_ns(2), 2);
        eng.queue_mut().schedule(Picos::from_ns(3), 3);
        assert_eq!(eng.run_until(Picos::from_ns(2)), RunOutcome::HorizonReached);
        assert_eq!(eng.model().seen.len(), 2);
        // The event at 3ns is still pending.
        assert_eq!(eng.queue().len(), 1);
    }

    #[test]
    fn self_scheduling_chain() {
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: true,
        });
        eng.queue_mut().schedule(Picos::ZERO, 0);
        assert_eq!(eng.run_to_completion(), RunOutcome::QueueDrained);
        assert_eq!(eng.model().seen.len(), 6); // events 0..=5
        assert_eq!(eng.now(), Picos::from_ns(5));
    }

    #[test]
    fn event_budget_stops_runaway() {
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: true,
        });
        eng.set_event_budget(3);
        eng.queue_mut().schedule(Picos::ZERO, 0);
        assert_eq!(eng.run_to_completion(), RunOutcome::BudgetExhausted);
        assert_eq!(eng.processed(), 3);
    }

    #[test]
    fn step_processes_one() {
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: false,
        });
        eng.queue_mut().schedule(Picos::from_ns(4), 7);
        assert_eq!(eng.step(), Some(Picos::from_ns(4)));
        assert_eq!(eng.step(), None);
    }

    #[test]
    fn step_respects_event_budget() {
        // A budget-exhausted engine must not be steppable past its cap,
        // whether the budget was spent by run_until or by step itself.
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: true,
        });
        eng.set_event_budget(3);
        eng.queue_mut().schedule(Picos::ZERO, 0);
        assert_eq!(eng.run_to_completion(), RunOutcome::BudgetExhausted);
        assert_eq!(eng.processed(), 3);
        assert!(!eng.queue().is_empty(), "respawned event still pending");
        assert_eq!(eng.step(), None, "step must honor the spent budget");
        assert_eq!(eng.processed(), 3);

        // Spending the budget via step alone hits the same wall.
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: true,
        });
        eng.set_event_budget(2);
        eng.queue_mut().schedule(Picos::ZERO, 0);
        assert!(eng.step().is_some());
        assert!(eng.step().is_some());
        assert_eq!(eng.step(), None);
        assert_eq!(eng.processed(), 2);
    }

    #[test]
    fn with_capacity_runs_identically() {
        let run = |mut eng: Engine<Echo>| {
            eng.queue_mut().schedule(Picos::ZERO, 0);
            eng.run_to_completion();
            eng.into_model().seen
        };
        let plain = run(Engine::new(Echo {
            seen: vec![],
            respawn: true,
        }));
        let sized = run(Engine::with_capacity(
            Echo {
                seen: vec![],
                respawn: true,
            },
            1 << 12,
        ));
        assert_eq!(plain, sized);
    }

    /// A model that, on its first event at time t, schedules another event
    /// at exactly t — the seam the wheel's drain path must keep intact.
    #[derive(Debug)]
    struct SameInstant {
        seen: Vec<(Picos, u32)>,
    }

    impl SimModel for SameInstant {
        type Event = u32;
        fn handle(&mut self, now: Picos, ev: u32, queue: &mut EventQueue<u32>) {
            self.seen.push((now, ev));
            if ev == 1 {
                queue.schedule(now, 99); // zero-delay follow-up at `now`
            }
        }
    }

    #[test]
    fn zero_delay_event_delivered_within_horizon_after_queued_peers() {
        // Two events are queued at t; handling the first schedules a third
        // at t. run_until(t) must deliver all three this cycle — the
        // zero-delay event after the already-queued peers (FIFO), never
        // left pending past the horizon.
        let t = Picos::from_ns(3);
        for reference in [false, true] {
            let queue = if reference {
                EventQueue::reference_heap()
            } else {
                EventQueue::new()
            };
            let mut eng = Engine::with_queue(SameInstant { seen: vec![] }, queue);
            eng.queue_mut().schedule(t, 1);
            eng.queue_mut().schedule(t, 2);
            assert_eq!(eng.run_until(t), RunOutcome::QueueDrained);
            assert_eq!(
                eng.model().seen,
                vec![(t, 1), (t, 2), (t, 99)],
                "reference={reference}"
            );
        }
    }
}
