//! Ablation — DVS ladder vs on/off gating vs no power management.
//!
//! The paper's introduction positions its DVS-link design against networks
//! whose links are "turned completely on and off" (its ref. \[26\]). This
//! harness runs both disciplines over the same workloads:
//!
//! - **steady uniform load** at several rates — DVS matches intermediate
//!   loads; on/off can only choose full-power or asleep, so its savings
//!   collapse once links see steady traffic;
//! - **idle-heavy bursts** — on/off wins on power (off ≈ 0 beats the
//!   ladder floor ≈ 21%) but pays heavily in latency through wake-up
//!   penalties and gate thrash.
//!
//! Run: `cargo run --release -p lumen-bench --bin ablation_onoff [--quick] [--jobs N]`

use lumen_bench::{banner, defaults, run_points, write_trace, BenchArgs};
use lumen_core::prelude::*;
use lumen_policy::OnOffConfig;
use lumen_stats::csv::CsvBuilder;

fn dvs_config() -> SystemConfig {
    SystemConfig::paper_default()
}

fn onoff_config() -> SystemConfig {
    let mut c = SystemConfig::paper_default();
    c.policy = c.policy.with_onoff(OnOffConfig::reference_default());
    c
}

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    banner("Ablation", "DVS bit-rate ladder vs on/off link gating");
    let size = PacketSize::Fixed(defaults::SYNTHETIC_PACKET_FLITS);
    let measure = scale.cycles(60_000);
    let experiment = |config: SystemConfig| {
        Experiment::new(config)
            .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
            .measure_cycles(measure)
            .telemetry(args.telemetry())
    };
    let disciplines = [
        ("DVS", dvs_config as fn() -> SystemConfig),
        ("on/off", onoff_config),
    ];

    // Per workload: one baseline point, then one point per discipline.
    // Each workload's baseline and disciplines share a comparison group
    // so the normalized columns compare policies under one traffic
    // realization.
    let steady_rates = [0.25, 1.25, 3.0];
    let bursty = RateProfile::Phases(vec![(2_000, 2.0), (38_000, 0.02)]);
    let mut points = Vec::new();
    for (k, rate) in steady_rates.into_iter().enumerate() {
        points.push(
            Point::new(
                format!("uniform {rate} baseline"),
                experiment(SystemConfig::paper_default().non_power_aware()),
                Workload::Uniform { rate, size },
            )
            .in_group(k as u64),
        );
        points.extend(disciplines.iter().map(|(name, config)| {
            Point::new(
                format!("uniform {rate} {name}"),
                experiment(config()),
                Workload::Uniform { rate, size },
            )
            .in_group(k as u64)
        }));
    }
    let bursty_group = steady_rates.len() as u64;
    let bursty_workload = |profile: &RateProfile| Workload::Synthetic {
        pattern: Pattern::Uniform,
        profile: profile.clone(),
        size,
    };
    points.push(
        Point::new(
            "bursty baseline",
            experiment(SystemConfig::paper_default().non_power_aware()),
            bursty_workload(&bursty),
        )
        .in_group(bursty_group),
    );
    points.extend(disciplines.iter().map(|(name, config)| {
        Point::new(
            format!("bursty {name}"),
            experiment(config()),
            bursty_workload(&bursty),
        )
        .in_group(bursty_group)
    }));
    println!("\n{} points on {} threads:", points.len(), args.jobs);
    let results = run_points(&args, &points);
    write_trace(&args, &points, &results);

    let mut csv = CsvBuilder::new(vec![
        "workload".into(),
        "discipline".into(),
        "norm_latency".into(),
        "norm_power".into(),
        "transitions".into(),
    ]);

    let stride = 1 + disciplines.len();
    println!("\nSteady uniform load:");
    println!(
        "  {:>5} {:>10} {:>12} {:>10} {:>11}",
        "rate", "discipline", "norm latency", "norm power", "transitions"
    );
    for (k, rate) in steady_rates.into_iter().enumerate() {
        let base = &results[k * stride];
        for (i, (name, _)) in disciplines.iter().enumerate() {
            let r = &results[k * stride + 1 + i];
            let nl = r.normalized_latency(base);
            println!(
                "  {rate:>5.2} {name:>10} {nl:>12.2} {:>10.3} {:>11}",
                r.normalized_power, r.transitions
            );
            csv.row(vec![
                format!("uniform-{rate}"),
                (*name).into(),
                format!("{nl:.4}"),
                format!("{:.4}", r.normalized_power),
                r.transitions.to_string(),
            ]);
        }
    }

    println!("\nIdle-heavy bursts (5% duty cycle):");
    let bursty_start = steady_rates.len() * stride;
    let base = &results[bursty_start];
    for (i, (name, _)) in disciplines.iter().enumerate() {
        let r = &results[bursty_start + 1 + i];
        let nl = r.normalized_latency(base);
        println!(
            "  {name:>10}: norm latency {nl:>6.2}, norm power {:>6.3}, transitions {}",
            r.normalized_power, r.transitions
        );
        csv.row(vec![
            "bursty-5pct".into(),
            (*name).into(),
            format!("{nl:.4}"),
            format!("{:.4}", r.normalized_power),
            r.transitions.to_string(),
        ]);
    }

    println!(
        "\nReading: DVS holds latency near baseline at every load and saves \
         ~4-5x; on/off approaches zero power on dead links but pays wake \
         penalties the moment traffic returns — the trade-off that motivates \
         the paper's ladder design."
    );
    println!("\nCSV:\n{}", csv.as_str());
}
