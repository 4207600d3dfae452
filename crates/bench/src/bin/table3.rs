//! Table 3 — power-performance under SPLASH2 traces, normalized against
//! the non-power-aware network.
//!
//! For each application (FFT, LU, Radix) runs the power-aware MQW system
//! and the non-power-aware baseline over the same workload and reports the
//! paper's three rows: normalized average latency, normalized average
//! power, and their product.
//!
//! Paper values (Table 3):
//!
//! | metric        | FFT  | LU   | Radix |
//! |---------------|------|------|-------|
//! | latency       | 1.08 | 1.50 | 1.60  |
//! | power         | 0.22 | 0.25 | 0.23  |
//! | power-latency | 0.24 | 0.38 | 0.37  |
//!
//! Headline claim: >75% average power savings at less than doubled
//! latency, >60% savings in power-latency product.
//!
//! Run: `cargo run --release -p lumen-bench --bin table3 [--quick] [--jobs N]`

use lumen_bench::{banner, defaults, run_points, BenchArgs};
use lumen_core::prelude::*;
use lumen_stats::csv::CsvBuilder;

const PAPER: [(SplashApp, f64, f64, f64); 3] = [
    (SplashApp::Fft, 1.08, 0.22, 0.24),
    (SplashApp::Lu, 1.50, 0.25, 0.38),
    (SplashApp::Radix, 1.60, 0.23, 0.37),
];

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    banner("Table 3", "normalized power-performance on SPLASH2 traces");

    // Per app: a power-aware point, then its baseline. The pair shares a
    // comparison group (= the app's index) so each normalized row divides
    // two runs of the *same* traffic realization.
    let mut points = Vec::new();
    for (i, (app, _, _, _)) in PAPER.into_iter().enumerate() {
        let total = scale.cycles(2 * app.period_cycles());
        points.push(
            Point::new(
                format!("{app} PA"),
                Experiment::new(SystemConfig::paper_default())
                    .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
                    .measure_cycles(total),
                Workload::Splash(app),
            )
            .in_group(i as u64),
        );
        points.push(
            Point::new(
                format!("{app} baseline"),
                Experiment::new(SystemConfig::paper_default().non_power_aware())
                    .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
                    .measure_cycles(total),
                Workload::Splash(app),
            )
            .in_group(i as u64),
        );
    }
    println!("\n{} points on {} threads:", points.len(), args.jobs);
    let results = run_points(&args, &points);

    let mut csv = CsvBuilder::new(vec![
        "app".into(),
        "norm_latency".into(),
        "norm_power".into(),
        "power_latency_product".into(),
        "paper_latency".into(),
        "paper_power".into(),
        "paper_plp".into(),
    ]);

    println!(
        "\n{:<7} {:>12} {:>12} {:>8}   (paper: latency / power / PLP)",
        "trace", "norm latency", "norm power", "PLP"
    );
    let mut savings = Vec::new();
    for (i, (app, p_lat, p_pow, p_plp)) in PAPER.into_iter().enumerate() {
        let pa = &results[2 * i];
        let base = &results[2 * i + 1];
        let nl = pa.normalized_latency(base);
        let np = pa.normalized_power;
        let plp = pa.power_latency_product(base);
        println!(
            "{:<7} {nl:>12.2} {np:>12.2} {plp:>8.2}   ({p_lat:.2} / {p_pow:.2} / {p_plp:.2})",
            app.to_string()
        );
        csv.row(vec![
            app.to_string(),
            format!("{nl:.4}"),
            format!("{np:.4}"),
            format!("{plp:.4}"),
            format!("{p_lat:.2}"),
            format!("{p_pow:.2}"),
            format!("{p_plp:.2}"),
        ]);
        savings.push((nl, np, plp));
    }

    let avg_power: f64 = savings.iter().map(|s| s.1).sum::<f64>() / savings.len() as f64;
    let avg_lat: f64 = savings.iter().map(|s| s.0).sum::<f64>() / savings.len() as f64;
    let avg_plp: f64 = savings.iter().map(|s| s.2).sum::<f64>() / savings.len() as f64;
    println!(
        "\nHeadline: {:.0}% average power savings (paper: >75%), \
         {:.2}x latency (paper: <2x), {:.0}% PLP savings (paper: >60%)",
        (1.0 - avg_power) * 100.0,
        avg_lat,
        (1.0 - avg_plp) * 100.0
    );
    println!("\nCSV:\n{}", csv.as_str());
}
