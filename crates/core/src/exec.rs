//! Parallel experiment executor: fan independent experiment points out
//! across worker threads without giving up determinism.
//!
//! Every evaluation artifact of the paper (§4) is a batch of *independent*
//! simulation runs — a load sweep is one run per injection rate, Table 3 is
//! one power-aware and one baseline run per SPLASH trace, and so on. Those
//! points share nothing, so they parallelize perfectly; what must **not**
//! change with the thread count is the answer. This module guarantees that
//! with three rules:
//!
//! 1. **Per-point seeds are keyed by submission data.** Each [`Point`]
//!    runs with a seed derived from `(base seed, stream key)` via
//!    [`derive_seed`] — never from scheduling order, thread identity, or
//!    time. The stream key defaults to the point's submission index, so
//!    distinct points of a sweep see distinct traffic; points that a
//!    harness intends to *compare* (a power-aware run against its
//!    baseline, a variant panel against the reference) should share an
//!    explicit comparison group via [`Point::in_group`], which makes them
//!    share one traffic realization (common random numbers) so their
//!    normalized metrics measure the policy, not sampling noise. Either
//!    way a batch run with `jobs = 1` is bit-identical to the same batch
//!    with `jobs = N` (asserted in `tests/tests/determinism.rs`).
//! 2. **Results return in submission order**, regardless of which worker
//!    finished first.
//! 3. **A panicking point is isolated**: it yields a [`PointError`] entry
//!    in its slot instead of tearing down the batch, so one diverging
//!    configuration cannot destroy an hour-long sweep.
//!
//! Workers are plain [`std::thread::scope`] threads claiming points off a
//! shared atomic counter — no external concurrency crates.
//!
//! # Example
//!
//! ```
//! use lumen_core::prelude::*;
//! use lumen_core::exec::{Executor, Point, Workload};
//!
//! let mut config = SystemConfig::paper_default();
//! config.noc = NocConfig::small_for_tests();
//! let experiment = Experiment::new(config).warmup_cycles(500).measure_cycles(2_000);
//!
//! // Two independent points (two injection rates), run on two threads.
//! let points: Vec<Point> = [0.1, 0.3]
//!     .iter()
//!     .map(|&rate| {
//!         Point::new(
//!             format!("rate {rate}"),
//!             experiment.clone(),
//!             Workload::Uniform { rate, size: PacketSize::Fixed(4) },
//!         )
//!     })
//!     .collect();
//! let results = Executor::new(2).run(&points);
//!
//! // Submission order is preserved and every point delivered packets.
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.label.starts_with("rate ")));
//! assert!(results[0].run_result().unwrap().packets_delivered > 0);
//!
//! // The thread count never changes the numbers.
//! let serial = Executor::new(1).run(&points);
//! assert_eq!(
//!     serial[1].run_result().unwrap().avg_latency_cycles,
//!     results[1].run_result().unwrap().avg_latency_cycles,
//! );
//! ```

use crate::results::RunResult;
use crate::runner::{Experiment, ZERO_LOAD_RATE};
use lumen_desim::Rng;
use lumen_traffic::{
    DatacenterConfig, DatacenterSource, PacketSize, Pattern, RateProfile, SelfSimilarConfig,
    SelfSimilarSource, SplashApp,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Derives the seed for the point whose stream key is `stream` (its
/// comparison group if set, its submission index otherwise) in a batch
/// whose experiments carry `base` as their configured seed.
///
/// The mix is splitmix64 over `base ^ f(stream)` — cheap, stateless, and
/// well-spread, so neighbouring keys get unrelated streams. Key 0 does
/// **not** map to `base` itself: every point of a batch, including the
/// first, runs on a derived stream by design, making "same batch, same
/// thread count or not" the only identity that holds.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base
        ^ stream
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stream constant separating the [`Workload::SelfSimilar`] source RNG
/// from the experiment's own derived streams (which seed directly from
/// the per-point seed); any fixed key no submission index can reach works.
const SELF_SIMILAR_SOURCE_STREAM: u64 = u64::MAX;

/// Stream constant for the [`Workload::Datacenter`] source RNG; distinct
/// from [`SELF_SIMILAR_SOURCE_STREAM`] and unreachable by submission
/// indices for the same reason.
const DATACENTER_SOURCE_STREAM: u64 = u64::MAX - 1;

/// The traffic driven through one experiment point.
///
/// This mirrors the run entry points on [`Experiment`]; keeping it as data
/// (rather than a closure) keeps points `Send`, cheaply cloneable, and
/// self-describing in logs.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Uniform-random traffic at a constant network-wide rate.
    Uniform {
        /// Offered rate, packets/cycle.
        rate: f64,
        /// Packet size distribution.
        size: PacketSize,
    },
    /// The near-idle run anchoring the paper's saturation definition
    /// (rate = [`ZERO_LOAD_RATE`]).
    ZeroLoad {
        /// Packet size distribution.
        size: PacketSize,
    },
    /// An arbitrary pattern / rate-profile / size combination.
    Synthetic {
        /// Spatial destination pattern.
        pattern: Pattern,
        /// Temporal rate profile.
        profile: RateProfile,
        /// Packet size distribution.
        size: PacketSize,
    },
    /// The paper's time-varying hotspot workload (Fig. 6).
    Hotspot {
        /// Packet size distribution.
        size: PacketSize,
    },
    /// A synthetic SPLASH2-like trace (Fig. 7, Table 3).
    Splash(SplashApp),
    /// Pareto ON/OFF self-similar traffic (the `ext_selfsimilar` harness).
    SelfSimilar {
        /// Burst structure parameters.
        config: SelfSimilarConfig,
        /// Spatial destination pattern.
        pattern: Pattern,
        /// Packet size distribution.
        size: PacketSize,
    },
    /// Request/response datacenter traffic with incast bursts, ON/OFF
    /// flows, and a diurnal ramp (the `ext_datacenter` harness).
    Datacenter {
        /// Workload parameters (server split, rates, incast, diurnal).
        config: DatacenterConfig,
    },
}

/// One independent experiment point of a batch: a label for humans, a
/// configured [`Experiment`], and the [`Workload`] to drive through it.
#[derive(Debug, Clone)]
pub struct Point {
    /// Human-readable name, used in progress lines and error reports.
    pub label: String,
    /// The configured system + horizons to run.
    pub experiment: Experiment,
    /// The traffic to drive.
    pub workload: Workload,
    /// Comparison group, if this point's metrics will be compared against
    /// other points of the same group (see [`Point::in_group`]).
    pub group: Option<u64>,
}

impl Point {
    /// Builds a point. Its traffic stream is keyed by its submission
    /// index; use [`Point::in_group`] for points meant to be compared.
    pub fn new(label: impl Into<String>, experiment: Experiment, workload: Workload) -> Point {
        Point {
            label: label.into(),
            experiment,
            workload,
            group: None,
        }
    }

    /// Assigns this point to comparison group `group`: all points of a
    /// batch sharing a group (and a configured base seed) run on the
    /// *same* derived traffic stream, so paired metrics — normalized
    /// latency/power of a power-aware run against its baseline, a variant
    /// against the reference — compare the systems under one traffic
    /// realization (common random numbers) instead of adding sampling
    /// noise. Points that are *not* compared should keep distinct groups
    /// (or none, which keys the stream by submission index).
    pub fn in_group(mut self, group: u64) -> Point {
        self.group = Some(group);
        self
    }

    /// Runs this point as the `index`-th entry of a batch, seeding it via
    /// [`derive_seed`] from its comparison group (or `index` if ungrouped).
    pub fn run_at_index(&self, index: usize) -> RunResult {
        let seed = derive_seed(
            self.experiment.config().seed,
            self.group.unwrap_or(index as u64),
        );
        let exp = self.experiment.clone().with_seed(seed);
        match &self.workload {
            Workload::Uniform { rate, size } => exp.run_uniform(*rate, *size),
            Workload::ZeroLoad { size } => exp.run_uniform(ZERO_LOAD_RATE, *size),
            Workload::Synthetic {
                pattern,
                profile,
                size,
            } => exp.run_synthetic(pattern.clone(), profile.clone(), *size),
            Workload::Hotspot { size } => exp.run_hotspot(*size),
            Workload::Splash(app) => exp.run_splash(*app),
            Workload::SelfSimilar {
                config,
                pattern,
                size,
            } => {
                // The per-point seed already drives the experiment's own
                // streams (runner.rs seeds synthetic sources from it), so
                // the ON/OFF source draws from a further derivation to
                // stay decorrelated from them.
                let source = SelfSimilarSource::new(
                    &exp.config().noc,
                    *config,
                    pattern.clone(),
                    *size,
                    Rng::seed_from(derive_seed(exp.config().seed, SELF_SIMILAR_SOURCE_STREAM)),
                );
                exp.run(Box::new(source))
            }
            Workload::Datacenter { config } => {
                // Same decorrelation as SelfSimilar, on its own stream.
                let source = DatacenterSource::new(
                    &exp.config().noc,
                    *config,
                    Rng::seed_from(derive_seed(exp.config().seed, DATACENTER_SOURCE_STREAM)),
                );
                exp.run(Box::new(source))
            }
        }
    }
}

/// Why a point failed: the stringified panic payload.
#[derive(Debug, Clone)]
pub struct PointError {
    /// The panic message (or a placeholder for non-string payloads).
    pub message: String,
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "point panicked: {}", self.message)
    }
}

impl std::error::Error for PointError {}

/// The outcome of one point: its label, its submission index, how long it
/// took, and either the run result or the panic that killed it.
#[derive(Debug)]
pub struct PointResult {
    /// The point's label, copied from the submission.
    pub label: String,
    /// The point's position in the submitted batch.
    pub index: usize,
    /// Wall-clock time this point took on its worker.
    pub elapsed: Duration,
    /// The run result, or the captured panic.
    pub outcome: Result<RunResult, PointError>,
}

impl PointResult {
    /// The run result, if the point completed.
    pub fn run_result(&self) -> Option<&RunResult> {
        self.outcome.as_ref().ok()
    }

    /// The run result; panics with the point's label and error otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the point failed.
    pub fn expect_ok(&self) -> &RunResult {
        match &self.outcome {
            Ok(r) => r,
            Err(e) => panic!("point `{}` failed: {e}", self.label),
        }
    }
}

/// A fixed-width pool of scoped worker threads for experiment batches.
///
/// See the [module docs](self) for the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with exactly `jobs` worker threads (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Executor {
        Executor { jobs: jobs.max(1) }
    }

    /// An executor sized to the machine's available parallelism.
    pub fn available() -> Executor {
        Executor::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every point and returns their results in submission order.
    pub fn run(&self, points: &[Point]) -> Vec<PointResult> {
        self.run_with_progress(points, |_| {})
    }

    /// Like [`Executor::run`], additionally calling `on_done` from the
    /// worker thread as each point finishes (in completion order — use
    /// `PointResult::index` to relate back to the submission). A panic in
    /// the callback is caught and ignored; it does not affect the batch
    /// or the point's stored result.
    pub fn run_with_progress<F>(&self, points: &[Point], on_done: F) -> Vec<PointResult>
    where
        F: Fn(&PointResult) + Sync,
    {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<PointResult>>> =
            points.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.jobs.min(points.len()).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= points.len() {
                        break;
                    }
                    let result = run_point(&points[index], index);
                    // The callback runs on the worker thread; a panic in
                    // it (say a formatting or I/O failure) must not tear
                    // down the scope and lose the rest of the batch.
                    let _ = catch_unwind(AssertUnwindSafe(|| on_done(&result)));
                    *slots[index].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every claimed point stores a result")
            })
            .collect()
    }
}

fn run_point(point: &Point, index: usize) -> PointResult {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| point.run_at_index(index))).map_err(|payload| {
        PointError {
            message: panic_message(payload),
        }
    });
    PointResult {
        label: point.label.clone(),
        index,
        elapsed: start.elapsed(),
        outcome,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use lumen_noc::NocConfig;
    use lumen_opto::Gbps;

    fn small_experiment() -> Experiment {
        let mut config = SystemConfig::paper_default();
        config.noc = NocConfig::small_for_tests();
        config.policy.timing.tw_cycles = 200;
        Experiment::new(config)
            .warmup_cycles(500)
            .measure_cycles(2_000)
    }

    fn rate_points(rates: &[f64]) -> Vec<Point> {
        rates
            .iter()
            .map(|&rate| {
                Point::new(
                    format!("rate {rate}"),
                    small_experiment(),
                    Workload::Uniform {
                        rate,
                        size: PacketSize::Fixed(4),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let points = rate_points(&[0.05, 0.1, 0.2, 0.4, 0.6]);
        let results = Executor::new(4).run(&points);
        assert_eq!(results.len(), points.len());
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.label, points[i].label);
            assert!(r.expect_ok().packets_delivered > 0, "{}", r.label);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let points = rate_points(&[0.1, 0.3, 0.5]);
        let serial = Executor::new(1).run(&points);
        let parallel = Executor::new(4).run(&points);
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.expect_ok(), p.expect_ok());
            assert_eq!(s.packets_injected, p.packets_injected);
            assert_eq!(s.packets_delivered, p.packets_delivered);
            assert_eq!(s.avg_latency_cycles, p.avg_latency_cycles);
            assert_eq!(s.avg_power_mw, p.avg_power_mw);
            assert_eq!(s.transitions, p.transitions);
        }
    }

    #[test]
    fn points_at_different_indices_differ() {
        // Same experiment, same workload, different batch positions: the
        // positional seed must give them different traffic streams.
        let points = rate_points(&[0.3, 0.3]);
        let results = Executor::new(1).run(&points);
        assert_ne!(
            results[0].expect_ok().packets_injected,
            results[1].expect_ok().packets_injected
        );
    }

    #[test]
    fn grouped_points_share_a_traffic_stream() {
        // A paired comparison: identical workload at different batch
        // positions, both in group 0, must see the same traffic (common
        // random numbers) — here with identical systems, so the whole
        // result is identical.
        let points: Vec<Point> = rate_points(&[0.3, 0.3])
            .into_iter()
            .map(|p| p.in_group(0))
            .collect();
        let results = Executor::new(2).run(&points);
        let (a, b) = (results[0].expect_ok(), results[1].expect_ok());
        assert_eq!(a.packets_injected, b.packets_injected);
        assert_eq!(a.avg_latency_cycles, b.avg_latency_cycles);
        assert_eq!(a.avg_power_mw, b.avg_power_mw);
    }

    #[test]
    fn grouped_baseline_pair_is_driven_by_identical_traffic() {
        // The harness pattern the groups exist for: a power-aware point
        // and its non-power-aware baseline share a group, so their
        // normalized metrics compare the policy under one traffic
        // realization. Identical injected-packet counts witness the
        // shared stream even though the systems differ.
        let pa = small_experiment();
        let mut base_config = pa.config().clone();
        base_config.power_aware = false;
        let base = Experiment::new(base_config)
            .warmup_cycles(500)
            .measure_cycles(2_000);
        let workload = Workload::Uniform {
            rate: 0.2,
            size: PacketSize::Fixed(4),
        };
        let points = vec![
            Point::new("PA", pa, workload.clone()).in_group(7),
            Point::new("baseline", base, workload).in_group(7),
        ];
        let results = Executor::new(2).run(&points);
        let (pa, base) = (results[0].expect_ok(), results[1].expect_ok());
        assert_eq!(pa.packets_injected, base.packets_injected);
        assert!(base.normalized_power > pa.normalized_power);
    }

    #[test]
    fn panicking_progress_callback_does_not_kill_the_batch() {
        let points = rate_points(&[0.1, 0.2, 0.3]);
        let results = Executor::new(2).run_with_progress(&points, |_| {
            panic!("progress callbacks must be survivable");
        });
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.outcome.is_ok()));
    }

    #[test]
    fn panicking_point_is_isolated() {
        let mut bad = small_experiment();
        // A ladder whose maximum differs from the network rate fails
        // SystemConfig::validate inside the run — a realistic panic.
        let mut config = bad.config().clone();
        config.noc.max_rate = Gbps::from_gbps(7.5);
        bad = Experiment::new(config)
            .warmup_cycles(500)
            .measure_cycles(2_000);

        let mut points = rate_points(&[0.1, 0.2]);
        points.insert(
            1,
            Point::new(
                "bad ladder",
                bad,
                Workload::Uniform {
                    rate: 0.1,
                    size: PacketSize::Fixed(4),
                },
            ),
        );
        let results = Executor::new(2).run(&points);
        assert!(results[0].outcome.is_ok());
        assert!(results[2].outcome.is_ok(), "good points must survive");
        let err = results[1].outcome.as_ref().unwrap_err();
        assert!(
            err.message.contains("ladder max"),
            "panic message captured: {err}"
        );
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        // No short-range collisions for a typical sweep.
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| derive_seed(1, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn executor_clamps_to_one_job() {
        assert_eq!(Executor::new(0).jobs(), 1);
        assert!(Executor::available().jobs() >= 1);
    }

    #[test]
    fn zero_load_workload_runs_near_idle() {
        let points = vec![Point::new(
            "zero-load",
            small_experiment(),
            Workload::ZeroLoad {
                size: PacketSize::Fixed(4),
            },
        )];
        let r = Executor::new(2).run(&points);
        let rr = r[0].expect_ok();
        assert!(rr.packets_delivered > 0);
        assert!(rr.injection_rate() < 0.05, "{}", rr.injection_rate());
    }
}
