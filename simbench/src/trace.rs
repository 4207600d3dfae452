//! The outside-in traced run: the benchmark drives the engine with its own
//! loop and times each call it makes into a layer, from outside the
//! library.
//!
//! One timestamp closes each span and opens the next, so a pop span runs
//! from the end of the previous handler to the end of the pop, and a
//! handler span from there to the end of the handler. Two clock reads per
//! event then cover the whole event loop; only engine construction,
//! `begin_measurement` and end-of-run collection stay unattributed.

use crate::workloads::{Outputs, Workload};
use lumen_core::sim::SimEvent;
use lumen_core::{MetricsRegistry, PowerAwareSim, TelemetryReport};
use lumen_desim::{Engine, Picos, SimModel};
use lumen_noc::Packet;
use lumen_traffic::TrafficSource;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time and calls spent in one kind of span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub time: Duration,
    pub calls: u64,
}

impl Span {
    fn add(&mut self, time: Duration) {
        self.time += time;
        self.calls += 1;
    }
}

/// Everything one traced run measured.
#[derive(Debug)]
pub struct Trace {
    /// Wall time of the whole run, construction and collection included.
    pub wall: Duration,
    /// `EventQueue::pop_if_at_or_before`, including the loop's own
    /// bookkeeping between handler calls.
    pub pop: Span,
    pub tick: Span,
    pub flit_arrive: Span,
    pub credit_arrive: Span,
    /// RateChange, PowerPoint, TransitionComplete and LaserDecision (and
    /// fault events, which no workload enables).
    pub policy: Span,
    /// `TrafficSource::packets_for_cycle`, nested inside `tick`.
    pub gen: Span,
    pub packets: u64,
    pub scheduled: u64,
    pub peak_pending: usize,
    pub outputs: Outputs,
    pub counters: MetricsRegistry,
}

impl Trace {
    /// Time covered by top-level spans (`gen` is nested inside `tick`).
    pub fn attributed(&self) -> Duration {
        self.pop.time
            + self.tick.time
            + self.flit_arrive.time
            + self.credit_arrive.time
            + self.policy.time
    }
}

/// Counters shared with the [`TimedSource`] that the simulator owns.
/// The traced loop is single-threaded; atomics only satisfy `Send`.
#[derive(Debug, Default)]
struct GenStats {
    nanos: AtomicU64,
    calls: AtomicU64,
    packets: AtomicU64,
}

/// A traffic source that times every call into the wrapped source.
struct TimedSource {
    inner: Box<dyn TrafficSource + Send>,
    stats: Arc<GenStats>,
}

impl TrafficSource for TimedSource {
    fn packets_for_cycle(&mut self, cycle: u64, now: Picos, out: &mut Vec<Packet>) {
        let before = out.len();
        let start = Instant::now();
        self.inner.packets_for_cycle(cycle, now, out);
        let nanos = start.elapsed().as_nanos() as u64;
        self.stats.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats
            .packets
            .fetch_add((out.len() - before) as u64, Ordering::Relaxed);
    }

    fn generated(&self) -> u64 {
        self.inner.generated()
    }

    fn checkpoint_state(&self) -> Option<serde::Value> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        self.inner.restore_state(state)
    }
}

/// Per-kind accumulators of the event loop.
#[derive(Default)]
struct Loop {
    pop: Span,
    tick: Span,
    flit_arrive: Span,
    credit_arrive: Span,
    policy: Span,
    peak_pending: usize,
    now: Picos,
}

impl Loop {
    /// Processes every event at or before `horizon`, exactly as
    /// `Engine::run_until` does for a sequential engine.
    fn run_until(&mut self, engine: &mut Engine<PowerAwareSim>, horizon: Picos) {
        let (model, queue) = engine.model_and_queue_mut();
        let mut last = Instant::now();
        loop {
            let popped = queue.pop_if_at_or_before(horizon);
            let popped_at = Instant::now();
            self.pop.time += popped_at - last;
            let Some((at, event)) = popped else {
                break;
            };
            self.pop.calls += 1;
            let span = match event {
                SimEvent::CoreTick => &mut self.tick,
                SimEvent::FlitArrive { .. } => &mut self.flit_arrive,
                SimEvent::CreditArrive { .. } => &mut self.credit_arrive,
                _ => &mut self.policy,
            };
            self.now = at;
            model.handle(at, event, queue);
            last = Instant::now();
            span.add(last - popped_at);
            self.peak_pending = self.peak_pending.max(queue.len());
        }
    }
}

/// Runs `workload` unbroken on the sequential engine under the traced
/// loop. Its outputs must equal the untraced run's bit for bit.
pub fn traced_run(workload: &Workload) -> Trace {
    let start = Instant::now();
    let stats = Arc::new(GenStats::default());
    let source = TimedSource {
        inner: workload.source(),
        stats: Arc::clone(&stats),
    };
    let mut engine = PowerAwareSim::build_engine_telemetry(
        workload.config.clone(),
        Box::new(source),
        None,
        workload.telemetry,
    );
    let cycle = workload.config.noc.cycle();
    let end = cycle * workload.total_cycles();
    let mut lp = Loop::default();
    lp.run_until(&mut engine, cycle * workload.warmup);
    let now = lp.now;
    engine.model_mut().begin_measurement(now);
    lp.run_until(&mut engine, end);
    let scheduled = engine.queue().scheduled_total();
    let events = lp.pop.calls;
    let mut sim = engine.into_model();
    if workload.audit {
        lumen_noc::audit(sim.network()).assert_ok();
    }
    let report = sim
        .take_telemetry_report(end, events)
        .expect("benchmark runs record telemetry");
    let outputs = outputs_of(&sim, end, &report);
    let wall = start.elapsed();
    Trace {
        wall,
        pop: lp.pop,
        tick: lp.tick,
        flit_arrive: lp.flit_arrive,
        credit_arrive: lp.credit_arrive,
        policy: lp.policy,
        gen: Span {
            time: Duration::from_nanos(stats.nanos.load(Ordering::Relaxed)),
            calls: stats.calls.load(Ordering::Relaxed),
        },
        packets: stats.packets.load(Ordering::Relaxed),
        scheduled,
        peak_pending: lp.peak_pending,
        outputs,
        counters: report.counters,
    }
}

/// The [`Outputs`] of a finished model, read the way `Experiment` reads
/// them into a `RunResult`.
pub fn outputs_of(sim: &PowerAwareSim, end: Picos, report: &TelemetryReport) -> Outputs {
    let summary = sim.latency_summary();
    Outputs {
        delivered: summary.count(),
        latency_bits: summary.mean().to_bits(),
        power_bits: sim.normalized_power(end).to_bits(),
        transitions: sim.transitions(),
        flits_sent: report.counters.flits_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Traffic;
    use lumen_core::prelude::{DatacenterConfig, NocConfig, PacketSize};

    /// Shrinks `name` to a small fabric and a short horizon.
    fn small(name: &str, traffic: Traffic) -> Workload {
        let mut w = Workload::new(name, 7).expect("known workload");
        w.config.noc = NocConfig::small_for_tests();
        w.warmup = 300;
        w.measure = 1_200;
        w.traffic = traffic;
        w
    }

    #[test]
    fn traced_loop_reproduces_the_untraced_run() {
        let uniform = Traffic::Uniform {
            rate: 0.3,
            size: PacketSize::Fixed(5),
        };
        let noc = NocConfig::small_for_tests();
        let mut dc = DatacenterConfig::web_like(noc.node_count() / 4);
        dc.diurnal_period_cycles = 1_000;
        dc.incast_period_cycles = 300;
        for w in [
            small("fig5_mqw_r4", uniform),
            small("longrun_ckpt", Traffic::Datacenter(dc)),
        ] {
            let trace = traced_run(&w);
            let untraced = Outputs::of(&w.experiment().run(w.source()));
            assert_eq!(trace.outputs, untraced, "{}", w.name);
            assert!(trace.outputs.delivered > 0, "{}", w.name);
            assert_eq!(trace.tick.calls, w.total_cycles() + 1, "{}", w.name);
            assert_eq!(trace.counters.flits_sent, untraced.flits_sent, "{}", w.name);
            assert!(trace.attributed() <= trace.wall, "{}", w.name);
        }
    }
}
