//! Differential tests for lookahead-stretched barrier windows.
//!
//! The sharded backend sizes its barrier windows from the topology's
//! minimum cross-cut flit latency and a per-window credit-slack bound
//! (see `lumen-core/src/shard.rs` and DESIGN.md §6f). The contract under
//! test: window length is a pure performance knob — for every topology,
//! shard count, and lookahead cap, deliveries, latencies, energy, and
//! the exported telemetry trace bytes are **bit-identical** to the
//! sequential engine. A forced `lookahead_cap(1)` run pins the original
//! one-cycle-window protocol as a regression anchor.

use lumen_core::prelude::*;
use lumen_core::run_sharded_with;
use lumen_desim::Rng;
use lumen_noc::TopologyKind;
use lumen_policy::OnOffConfig;
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;

/// A small fabric of the given kind on the unit-test clock envelope.
fn config_for(kind: u8, seed: u64, width: u8, height: u8, vcs: u8, pa: bool) -> SystemConfig {
    let mut c = SystemConfig::paper_default().with_seed(seed);
    c.noc = NocConfig::small_for_tests();
    c.noc.width = width;
    c.noc.height = height;
    c.noc.nodes_per_rack = 2;
    c.noc.vcs = vcs;
    c.noc.buffer_depth = 4 * u16::from(vcs);
    c.noc.topology = match kind % 3 {
        0 => TopologyKind::Mesh,
        1 => TopologyKind::Torus,
        _ => TopologyKind::FoldedClos { spines: 2 },
    };
    c.power_aware = pa;
    c.policy.timing.tw_cycles = 200;
    c
}

/// Runs `config` sequentially and sharded-with-cap, then asserts the
/// two runs are indistinguishable: same deliveries and drops, bit-equal
/// latency/power summaries, and byte-equal telemetry trace exports.
fn assert_cap_invariant(config: SystemConfig, shards: usize, cap: u64, rate: f64) {
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(2_000)
        .audit_conservation()
        .telemetry(TelemetryConfig::full());
    let eff = lumen_core::effective_shards(&exp.config().noc, shards);
    if eff == 1 {
        return; // nothing to split
    }
    let seq = exp.clone().shards(1).run_uniform(rate, PacketSize::Fixed(4));
    let par = exp
        .shards(shards)
        .lookahead_cap(cap)
        .run_uniform(rate, PacketSize::Fixed(4));
    let tag = format!("shards {shards} (eff {eff}), cap {cap}");
    assert_eq!(par.packets_injected, seq.packets_injected, "{tag}");
    assert_eq!(par.packets_delivered, seq.packets_delivered, "{tag}");
    assert_eq!(par.packets_dropped, seq.packets_dropped, "{tag}");
    assert_eq!(par.flits_dropped, seq.flits_dropped, "{tag}");
    assert_eq!(
        par.avg_latency_cycles.to_bits(),
        seq.avg_latency_cycles.to_bits(),
        "{tag}: {} vs {}",
        par.avg_latency_cycles,
        seq.avg_latency_cycles
    );
    assert_eq!(
        par.p99_latency_cycles.to_bits(),
        seq.p99_latency_cycles.to_bits(),
        "{tag}"
    );
    assert_eq!(
        par.avg_power_mw.to_bits(),
        seq.avg_power_mw.to_bits(),
        "{tag}: {} vs {}",
        par.avg_power_mw,
        seq.avg_power_mw
    );
    assert_eq!(par.transitions, seq.transitions, "{tag}");
    let ts = seq.telemetry.expect("sequential trace");
    let tp = par.telemetry.expect("sharded trace");
    assert_eq!(
        ts.to_jsonl(),
        tp.to_jsonl(),
        "{tag}: JSONL trace bytes differ"
    );
    assert_eq!(ts.to_csv(), tp.to_csv(), "{tag}: CSV trace bytes differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random topology × shard count × lookahead cap × link policy ×
    /// optical mode × faults: the stretched protocol is bit-identical to
    /// the sequential engine. Caps above
    /// the static bound clamp to it, so high caps exercise the
    /// automatic window sizing and cap 1 the degenerate protocol.
    #[test]
    fn stretched_windows_match_sequential_everywhere(
        seed in 0u64..1_000,
        kind in 0u8..3,
        width in 2u8..4,
        height in 2u8..4,
        vcs in 1u8..3,
        shards in 2usize..5,
        cap in 1u64..8,
        rate_milli in 20u64..250,
        pa in 0u8..2,
        onoff in 0u8..2,
        three_level in 0u8..2,
        faults in 0u8..2,
    ) {
        let mut config = config_for(kind, seed, width, height, vcs, pa == 1);
        if onoff == 1 {
            config.policy = config.policy.with_onoff(OnOffConfig::reference_default());
        }
        if three_level == 1 {
            config.policy.optical_mode = OpticalMode::ThreeLevel;
        }
        if faults == 1 {
            config.faults = FaultConfig {
                outage_mtbf_cycles: 400,
                outage_mean_duration_cycles: 3,
                dropout_mtbf_cycles: 400,
                dropout_mean_duration_cycles: 3,
                ..FaultConfig::disabled()
            };
        }
        assert_cap_invariant(config, shards, cap, rate_milli as f64 / 1_000.0);
    }
}

/// Regression anchor: `lookahead_cap(1)` reproduces the original
/// one-cycle-window protocol, and the automatic scheduler matches it
/// bit for bit — including sampled time series — so stretching can
/// never drift from the pinned behavior.
#[test]
fn forced_single_cycle_windows_pin_the_old_protocol() {
    let config = config_for(0, 7, 3, 4, 2, true);
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(3_000)
        .sample_every(500)
        .audit_conservation();
    let seq = exp.clone().shards(1).run_uniform(0.12, PacketSize::Fixed(4));
    let capped = exp
        .clone()
        .shards(2)
        .lookahead_cap(1)
        .run_uniform(0.12, PacketSize::Fixed(4));
    let auto = exp.shards(2).run_uniform(0.12, PacketSize::Fixed(4));
    for (tag, run) in [("cap 1", &capped), ("auto", &auto)] {
        assert_eq!(run.packets_delivered, seq.packets_delivered, "{tag}");
        assert_eq!(
            run.avg_latency_cycles.to_bits(),
            seq.avg_latency_cycles.to_bits(),
            "{tag}"
        );
        assert_eq!(
            run.avg_power_mw.to_bits(),
            seq.avg_power_mw.to_bits(),
            "{tag}"
        );
        assert_eq!(run.transitions, seq.transitions, "{tag}");
        assert_eq!(run.latency_series, seq.latency_series, "{tag}");
        assert_eq!(run.power_series, seq.power_series, "{tag}");
        assert_eq!(run.injection_series, seq.injection_series, "{tag}");
    }
}

/// Barriers the one-cycle-window protocol crossed on a run of
/// `total + 1` ticks: one per tick, plus a second on every DVS close
/// `(k + 1) % tw == 0` and on the warmup and end publish ticks unless
/// they already coincided with a close.
fn one_cycle_window_barriers(warmup: u64, total: u64, tw: Option<u64>) -> u64 {
    let closes = tw.map_or(0, |w| (total + 1) / w);
    let publishes = [warmup, total]
        .iter()
        .filter(|&&k| tw.is_none_or(|w| (k + 1) % w != 0))
        .count() as u64;
    (total + 1) + closes + publishes
}

/// The point of stretching: at 2 shards the clock-gated protocol stops
/// only at mandatory stops, so it crosses at least 4× fewer barriers
/// than the one-cycle-window protocol did. Barrier counts are
/// deterministic (one per stop, at any cap), so this is exact
/// arithmetic, not a timing measurement.
#[test]
fn stretched_windows_cross_4x_fewer_barriers() {
    let (warmup, measure) = (400, 3_000);
    for pa in [false, true] {
        let config = config_for(0, 7, 3, 4, 2, pa);
        let tw = pa.then_some(config.policy.timing.tw_cycles);
        let run = |cap: Option<u64>| {
            let source = Box::new(SyntheticSource::new(
                &config.noc,
                Pattern::Uniform,
                RateProfile::Constant(0.12),
                PacketSize::Fixed(4),
                Rng::seed_from(config.seed),
            ));
            run_sharded_with(
                config.clone(),
                source,
                None,
                TelemetryConfig::default(),
                warmup,
                measure,
                2,
                cap,
                RouteTableMode::Auto,
            )
        };
        let stretched = run(None);
        assert_eq!(stretched.barriers, run(Some(1)).barriers, "pa {pa}");
        let old = one_cycle_window_barriers(warmup, warmup + measure, tw);
        assert!(
            old >= 4 * stretched.barriers,
            "pa {pa}: {} barriers vs {old} for one-cycle windows",
            stretched.barriers
        );
    }
}
