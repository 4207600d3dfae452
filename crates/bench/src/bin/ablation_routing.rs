//! Ablation — deterministic XY vs west-first adaptive routing.
//!
//! The paper's acknowledged related work (its ref. \[25\], Silla et al.)
//! studies how adaptivity changes network behaviour under bursty traffic.
//! Our west-first implementation is additionally *power-aware*: the
//! adaptive choice prefers outputs with free VCs and credits, which
//! steers traffic around links that the DVS policy has parked at low
//! rates or disabled for relock.
//!
//! Workloads where adaptivity should matter: the paper's hotspot (one 4×
//! destination) and tornado (structured half-width offset); uniform
//! random is the control where XY is already load-balanced.
//!
//! Run: `cargo run --release -p lumen-bench --bin ablation_routing [--quick] [--jobs N]`

use lumen_bench::{banner, defaults, run_points, BenchArgs};
use lumen_core::prelude::*;
use lumen_noc::routing::RoutingAlgorithm;
use lumen_stats::csv::CsvBuilder;

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    banner(
        "Ablation",
        "XY deterministic vs west-first adaptive routing",
    );
    let size = PacketSize::Fixed(defaults::SYNTHETIC_PACKET_FLITS);
    let measure = scale.cycles(60_000);

    let noc = SystemConfig::paper_default().noc;
    let workloads: Vec<(&str, Pattern, RateProfile)> = vec![
        ("uniform", Pattern::Uniform, RateProfile::Constant(3.0)),
        (
            "hotspot",
            Pattern::paper_hotspot(&noc),
            RateProfile::Constant(3.0),
        ),
        ("tornado", Pattern::Tornado, RateProfile::Constant(1.5)),
    ];

    // Point order: workload-major, then routing, then power-aware. The
    // four variants of one workload share a comparison group (= the
    // workload's index): their latencies/throughputs are compared head to
    // head, so they must see the same traffic realization.
    let variants = [
        (RoutingAlgorithm::XY, false),
        (RoutingAlgorithm::XY, true),
        (RoutingAlgorithm::WestFirst, false),
        (RoutingAlgorithm::WestFirst, true),
    ];
    let points: Vec<Point> = workloads
        .iter()
        .enumerate()
        .flat_map(|(k, (name, pattern, profile))| {
            variants.into_iter().map(move |(routing, pa)| {
                let mut config = SystemConfig::paper_default();
                config.noc.routing = routing;
                config.power_aware = pa;
                let exp = Experiment::new(config)
                    .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
                    .measure_cycles(measure);
                Point::new(
                    format!("{name} {routing:?} PA={pa}"),
                    exp,
                    Workload::Synthetic {
                        pattern: pattern.clone(),
                        profile: profile.clone(),
                        size,
                    },
                )
                .in_group(k as u64)
            })
        })
        .collect();
    println!("\n{} points on {} threads:", points.len(), args.jobs);
    let results = run_points(&args, &points);

    let mut csv = CsvBuilder::new(vec![
        "workload".into(),
        "routing".into(),
        "power_aware".into(),
        "avg_latency_cycles".into(),
        "throughput".into(),
        "norm_power".into(),
    ]);

    for (k, (name, _, _)) in workloads.iter().enumerate() {
        println!("\n{name}:");
        println!(
            "  {:>11} {:>9} {:>14} {:>11} {:>10}",
            "routing", "PA", "latency (cyc)", "throughput", "norm power"
        );
        for (i, (routing, pa)) in variants.into_iter().enumerate() {
            let r = &results[k * variants.len() + i];
            let routing_name = format!("{routing:?}");
            println!(
                "  {:>11} {:>9} {:>14.1} {:>11.2} {:>10.3}",
                routing_name,
                if pa { "yes" } else { "no" },
                r.avg_latency_cycles,
                r.throughput(),
                r.normalized_power
            );
            csv.row(vec![
                (*name).into(),
                routing_name,
                pa.to_string(),
                format!("{:.2}", r.avg_latency_cycles),
                format!("{:.4}", r.throughput()),
                format!("{:.4}", r.normalized_power),
            ]);
        }
    }
    println!("\nCSV:\n{}", csv.as_str());
}
