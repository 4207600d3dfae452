//! Extension — power-aware behaviour under self-similar traffic.
//!
//! The paper motivates power-aware networks with the observation that
//! "real-life network traffic exhibits substantial temporal and spatial
//! variance", citing the Leland et al. self-similar Ethernet study (its
//! ref. \[14\]) — but its evaluation uses synthetic/SPLASH traffic. This
//! extension closes that loop: Pareto ON/OFF sources (Hurst ≈ 0.75) drive
//! the full 64-rack system and we measure how much of the idealized
//! savings survive long-range-dependent burstiness, across the policy's
//! window sizes.
//!
//! Run: `cargo run --release -p lumen-bench --bin ext_selfsimilar [--quick] [--jobs N]`

use lumen_bench::{banner, defaults, run_points, BenchArgs};
use lumen_core::prelude::*;
use lumen_stats::csv::CsvBuilder;
use lumen_traffic::SelfSimilarConfig;

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    banner("Extension", "power-aware links under self-similar traffic");

    let ss = SelfSimilarConfig::ethernet_like();
    println!(
        "\nPareto ON/OFF sources: α = {}, H = {:.2}, duty {:.0}%, mean load ≈ {:.2} pkt/cycle",
        ss.alpha,
        ss.hurst(),
        ss.duty_cycle() * 100.0,
        512.0 * ss.duty_cycle() * ss.on_rate
    );

    let measure = scale.cycles(200_000);
    let size = PacketSize::Fixed(defaults::SYNTHETIC_PACKET_FLITS);
    let workload = || Workload::SelfSimilar {
        config: ss,
        pattern: Pattern::Uniform,
        size,
    };

    // Point 0 is the non-power-aware baseline; points 1.. sweep Tw. Every
    // point is normalized against the baseline, so all share comparison
    // group 0 (one burst realization drives the whole table).
    let windows = [500u64, 1_000, 2_000, 5_000];
    let mut points = vec![Point::new(
        "baseline",
        Experiment::new(SystemConfig::paper_default().non_power_aware())
            .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
            .measure_cycles(measure),
        workload(),
    )
    .in_group(0)];
    points.extend(windows.iter().map(|&tw| {
        let mut config = SystemConfig::paper_default();
        config.policy.timing.tw_cycles = tw;
        Point::new(
            format!("Tw {tw}"),
            Experiment::new(config)
                .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
                .measure_cycles(measure),
            workload(),
        )
        .in_group(0)
    }));
    println!("\n{} points on {} threads:", points.len(), args.jobs);
    let results = run_points(&args, &points);

    let baseline = &results[0];
    println!(
        "baseline: latency {:.1} cy at {:.2} pkt/cycle delivered",
        baseline.avg_latency_cycles,
        baseline.throughput()
    );

    let mut csv = CsvBuilder::new(vec![
        "tw_cycles".into(),
        "norm_latency".into(),
        "norm_power".into(),
        "plp".into(),
        "transitions".into(),
    ]);
    println!(
        "\n  {:>9} {:>12} {:>10} {:>8} {:>11}",
        "Tw", "norm latency", "norm power", "PLP", "transitions"
    );
    for (i, &tw) in windows.iter().enumerate() {
        let r = &results[1 + i];
        let nl = r.normalized_latency(baseline);
        println!(
            "  {tw:>9} {nl:>12.2} {:>10.3} {:>8.3} {:>11}",
            r.normalized_power,
            nl * r.normalized_power,
            r.transitions
        );
        csv.row_f64(&[
            tw as f64,
            nl,
            r.normalized_power,
            nl * r.normalized_power,
            r.transitions as f64,
        ]);
    }
    println!(
        "\nReading: long-memory bursts are harder to predict than the\n\
         paper's phase-structured traces, but the large idle fraction still\n\
         yields deep savings — variance hurts latency, not the power win."
    );
    println!("\nCSV:\n{}", csv.as_str());
}
