//! Fig. 5(g,h) — latency and power vs injection rate.
//!
//! Sweeps the offered load under uniform-random traffic for:
//!
//! - the non-power-aware network (all links 10 Gb/s),
//! - power-aware networks with 5–10 Gb/s and 3.3–10 Gb/s ladders
//!   (both transmitter technologies for the power panel),
//! - a static network pinned at 3.3 Gb/s.
//!
//! Paper shapes to reproduce (Fig. 5(g)): the 5–10 Gb/s power-aware
//! network saturates essentially where the non-power-aware one does; the
//! 3.3–10 Gb/s ladder loses some throughput; statically-3.3 Gb/s links
//! collapse below 2 pkt/cycle. (Fig. 5(h)): power rises with load before
//! saturation; VCSEL consistently edges out MQW; the wider ladder saves
//! more (>90% possible at light load).
//!
//! Run: `cargo run --release -p lumen-bench --bin fig5_load [--quick] [--jobs N]`

use lumen_bench::{banner, defaults, run_points, write_trace, BenchArgs};
use lumen_core::prelude::*;
use lumen_opto::{Gbps, Volts};
use lumen_stats::csv::CsvBuilder;

fn ladder(min: f64, max: f64) -> BitRateLadder {
    BitRateLadder::evenly_spaced(
        Gbps::from_gbps(min),
        Gbps::from_gbps(max),
        6,
        Volts::from_v(1.8),
    )
}

fn config_for(kind: &str) -> SystemConfig {
    let mut c = SystemConfig::paper_default();
    match kind {
        "non-PA-10G" => {
            c.power_aware = false;
        }
        "static-3.3G" => {
            c.power_aware = false;
            c.noc.max_rate = Gbps::from_gbps(3.3);
            c.policy.ladder = BitRateLadder::evenly_spaced(
                Gbps::from_gbps(1.65),
                Gbps::from_gbps(3.3),
                2,
                Volts::from_v(1.8),
            );
        }
        "MQW-5-10" => {}
        "MQW-3.3-10" => {
            c.policy.ladder = ladder(3.3, 10.0);
        }
        "VCSEL-5-10" => {
            c.transmitter = TransmitterKind::Vcsel;
        }
        "VCSEL-3.3-10" => {
            c.transmitter = TransmitterKind::Vcsel;
            c.policy.ladder = ladder(3.3, 10.0);
        }
        other => panic!("unknown config {other}"),
    }
    c
}

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    banner("Fig 5(g,h)", "latency and power vs injection rate");

    let configs = [
        "non-PA-10G",
        "MQW-5-10",
        "MQW-3.3-10",
        "static-3.3G",
        "VCSEL-5-10",
        "VCSEL-3.3-10",
    ];
    let rates: &[f64] = &[0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
    let size = PacketSize::Fixed(defaults::SYNTHETIC_PACKET_FLITS);

    // One batch over every (config, rate) point, plus each config's
    // zero-load anchor: config c owns the slice starting at
    // c * (1 + rates.len()). The six configs are compared at each rate,
    // so points share a comparison group per rate (group 0 = zero-load,
    // group 1 + i = rates[i]) and every curve is driven by the same
    // traffic realizations.
    let mut points = Vec::new();
    for name in configs {
        let exp = Experiment::new(config_for(name))
            .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
            .measure_cycles(scale.cycles(60_000))
            .telemetry(args.telemetry());
        points.push(
            Point::new(
                format!("{name} zero-load"),
                exp.clone(),
                Workload::ZeroLoad { size },
            )
            .in_group(0),
        );
        points.extend(rates.iter().enumerate().map(|(i, &rate)| {
            Point::new(
                format!("{name} rate {rate}"),
                exp.clone(),
                Workload::Uniform { rate, size },
            )
            .in_group(1 + i as u64)
        }));
    }
    println!("\n{} points on {} threads:", points.len(), args.jobs);
    let results = run_points(&args, &points);

    let mut csv = CsvBuilder::new(vec![
        "config".into(),
        "rate_pkts_per_cycle".into(),
        "throughput_pkts_per_cycle".into(),
        "avg_latency_cycles".into(),
        "norm_power".into(),
    ]);

    let stride = 1 + rates.len();
    for (c, name) in configs.into_iter().enumerate() {
        let zero_load = results[c * stride].avg_latency_cycles;
        println!("\n{name}: zero-load latency {zero_load:.1} cycles");
        println!(
            "  {:>5} {:>11} {:>14} {:>11} {:>10}",
            "rate", "throughput", "latency (cyc)", "saturated?", "norm power"
        );
        for (i, &rate) in rates.iter().enumerate() {
            let r = &results[c * stride + 1 + i];
            let sat = if r.is_saturated(zero_load) {
                "yes"
            } else {
                "no"
            };
            println!(
                "  {rate:>5.1} {:>11.2} {:>14.1} {:>11} {:>10.3}",
                r.throughput(),
                r.avg_latency_cycles,
                sat,
                r.normalized_power
            );
            csv.row(vec![
                name.into(),
                format!("{rate:.2}"),
                format!("{:.4}", r.throughput()),
                format!("{:.2}", r.avg_latency_cycles),
                format!("{:.4}", r.normalized_power),
            ]);
        }
    }
    println!("\nCSV:\n{}", csv.as_str());
    write_trace(&args, &points, &results);
}
