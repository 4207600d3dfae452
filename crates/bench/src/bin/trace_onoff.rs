//! Telemetry showcase — the on/off gate-thrash instability, as a trace.
//!
//! `ablation_onoff` shows the *aggregate* cost of on/off link gating under
//! idle-heavy bursts (latency blows up, transitions soar). This harness
//! records the same bursty workload with full telemetry and writes the
//! per-link window series, so the instability is visible as data: during
//! each burst the gated links flap between 0 mW and full power window
//! after window, while the DVS ladder glides between intermediate rates.
//! OBSERVABILITY.md walks through reading the output.
//!
//! Telemetry is always on here; `--trace PATH` only overrides the output
//! path (default `trace_onoff.jsonl`; a `.csv` suffix switches format).
//!
//! Run: `cargo run --release -p lumen-bench --bin trace_onoff -- \
//!       [--quick] [--jobs N] [--shards N] [--trace PATH]`

use lumen_bench::{banner, defaults, run_points, write_trace, BenchArgs};
use lumen_core::prelude::*;
use lumen_policy::OnOffConfig;

fn main() {
    let mut args = BenchArgs::parse();
    if args.trace.is_none() {
        args.trace = Some("trace_onoff.jsonl".into());
    }
    let scale = args.scale;
    banner("trace_onoff", "per-link telemetry of on/off gate thrash");

    let size = PacketSize::Fixed(defaults::SYNTHETIC_PACKET_FLITS);
    // 5% duty cycle: 2k-cycle bursts at rate 2.0 separated by 38k near-idle
    // cycles — the workload where on/off gating thrashes (PR-2 ablation).
    let bursty = RateProfile::Phases(vec![(2_000, 2.0), (38_000, 0.02)]);
    let workload = Workload::Synthetic {
        pattern: Pattern::Uniform,
        profile: bursty,
        size,
    };
    let experiment = |config: SystemConfig| {
        Experiment::new(config)
            .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
            .measure_cycles(scale.cycles(60_000))
            .telemetry(TelemetryConfig::full())
    };
    let onoff = {
        let mut c = SystemConfig::paper_default();
        c.policy = c.policy.with_onoff(OnOffConfig::reference_default());
        c
    };
    let points = vec![
        Point::new(
            "bursty DVS",
            experiment(SystemConfig::paper_default()),
            workload.clone(),
        )
        .in_group(0),
        Point::new("bursty on/off", experiment(onoff), workload).in_group(0),
    ];

    println!("\n{} points on {} threads:", points.len(), args.jobs);
    let results = run_points(&args, &points);

    println!("\nWhat the trace records (per discipline):");
    for (point, result) in points.iter().zip(&results) {
        let t = result.telemetry.as_ref().expect("telemetry was enabled");
        let c = &t.counters;
        let gated_windows = t
            .rows
            .iter()
            .filter(|r| !r.closing && r.power_mw == 0.0)
            .count();
        let windows = t.rows.iter().filter(|r| !r.closing).count();
        println!(
            "  {:<14} {:>6} windows x {} links, {} gated-off; \
             sleeps {} / wakes {}, rate changes {} (DVS {} up / {} down)",
            point.label,
            windows / t.links.max(1) as usize,
            t.links,
            gated_windows,
            c.onoff_sleeps,
            c.onoff_wakes,
            c.rate_changes,
            c.dvs_ups,
            c.dvs_downs,
        );
        let sum = t.rows_energy_nj();
        let err = (sum - t.energy_nj).abs() / t.energy_nj.max(1e-12);
        assert!(
            err < 1e-9,
            "per-link energy column does not telescope to total energy \
             ({sum} vs {} nJ, rel err {err:e})",
            t.energy_nj
        );
    }
    println!(
        "\nReading: the on/off row shows thousands of sleep/wake flips — every \
         burst re-wakes the gated links and every idle gap re-sleeps them — \
         while DVS makes an order of magnitude fewer moves between adjacent \
         ladder rungs. The per-window `power_mw` column flaps between 0 and \
         full on gated links; see OBSERVABILITY.md for the worked example."
    );
    write_trace(&args, &points, &results);
}
