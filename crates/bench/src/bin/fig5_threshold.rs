//! Fig. 5(d,e,f) — sensitivity to the link-utilization thresholds.
//!
//! Uniform-random traffic at light / medium / heavy rates with the average
//! threshold swept (TH − TL fixed at 0.1, as in the paper). Higher
//! thresholds scale links down more aggressively: more power saved, more
//! latency paid — except at light load (few transitions either way) and at
//! saturation (queueing masks link delay).
//!
//! Run: `cargo run --release -p lumen-bench --bin fig5_threshold [--quick] [--jobs N]`

use lumen_bench::{banner, baseline_experiment, defaults, run_points, BenchArgs};
use lumen_core::prelude::*;
use lumen_policy::ThresholdTable;
use lumen_stats::csv::CsvBuilder;

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    banner(
        "Fig 5(d,e,f)",
        "latency / power / PLP vs utilization threshold",
    );

    let averages: &[f64] = &[0.35, 0.45, 0.55, 0.65];
    let rates: &[f64] = &[1.25, 3.3, 5.05];
    let size = PacketSize::Fixed(defaults::SYNTHETIC_PACKET_FLITS);

    // Per rate: one baseline point, then one point per threshold. Each
    // rate's baseline and variants share a comparison group so the
    // normalized columns see one traffic realization.
    let mut points = Vec::new();
    for (k, &rate) in rates.iter().enumerate() {
        points.push(
            Point::new(
                format!("rate {rate} baseline"),
                baseline_experiment(scale),
                Workload::Uniform { rate, size },
            )
            .in_group(k as u64),
        );
        points.extend(averages.iter().map(|&avg| {
            let mut config = SystemConfig::paper_default();
            config.policy.thresholds = ThresholdTable::uniform(avg, 0.1);
            let exp = Experiment::new(config)
                .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
                .measure_cycles(scale.cycles(defaults::MEASURE_CYCLES));
            Point::new(
                format!("rate {rate} thresh {avg}"),
                exp,
                Workload::Uniform { rate, size },
            )
            .in_group(k as u64)
        }));
    }
    println!("\n{} points on {} threads:", points.len(), args.jobs);
    let results = run_points(&args, &points);

    let mut csv = CsvBuilder::new(vec![
        "avg_threshold".into(),
        "rate_pkts_per_cycle".into(),
        "norm_latency".into(),
        "norm_power".into(),
        "power_latency_product".into(),
    ]);

    let stride = 1 + averages.len();
    for (k, &rate) in rates.iter().enumerate() {
        let baseline = &results[k * stride];
        println!(
            "\nrate {rate} pkt/cycle — baseline latency {:.1} cycles",
            baseline.avg_latency_cycles
        );
        println!(
            "  {:>10} {:>12} {:>10} {:>8}",
            "threshold", "norm latency", "norm power", "PLP"
        );
        for (i, &avg) in averages.iter().enumerate() {
            let r = &results[k * stride + 1 + i];
            let nl = r.normalized_latency(baseline);
            let np = r.normalized_power;
            println!("  {avg:>10.2} {nl:>12.3} {np:>10.3} {:>8.3}", nl * np);
            csv.row_f64(&[avg, rate, nl, np, nl * np]);
        }
    }
    println!("\nCSV:\n{}", csv.as_str());
}
