//! The lumen simulator benchmark. See `README.md` for the workloads, the
//! metrics and how to read them.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload fig5_mqw_r4 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` it times the workload end to end; with `--trace 1`
//! it makes the outside-in traced run and prints per-layer metrics. The
//! last line of standard output is one JSON object with the result.

mod gate;
mod run;
mod stats;
mod trace;
mod workloads;

use gate::Gate;
use lumen_noc::RouteTable;
use run::{Mode, Record};
use stats::{time_median, Reps};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{reference, Workload};

/// Where child runs write checkpoint files, relative to the working
/// directory (the root of the checkout).
const RUN_DIR: &str = ".simbench-run";

/// Fewest timed runs per invocation, however long each takes.
const MIN_SAMPLES: usize = 3;

/// Repetitions of sub-second set-up work: set-up on the paper fabric is
/// under a millisecond, so it is timed many times and the median kept.
const SETUP_REPS: Reps = Reps {
    min: 9,
    max: 201,
    budget: Duration::from_millis(1_500),
};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<Mode>,
}

const USAGE: &str = "usage: simbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--child" => {
                let name = value()?;
                let mode = Mode::ALL.into_iter().find(|m| m.name() == name);
                child = Some(mode.ok_or_else(|| format!("unknown child mode {name}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("simbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::new(&args.workload, args.seed) else {
        eprintln!(
            "simbench: unknown workload {} (expected one of {:?})",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    // An explicit shard count is never host-clamped, but the fabric could
    // still cut into fewer shards; refuse rather than time a different run.
    let shards = lumen_core::effective_shards(&workload.config.noc, workload.shards);
    if shards != workload.shards {
        eprintln!(
            "simbench: {} needs {} shards but its fabric cuts into {shards}",
            workload.name, workload.shards
        );
        return ExitCode::FAILURE;
    }
    let dir = PathBuf::from(RUN_DIR);
    std::fs::create_dir_all(&dir).expect("create the run directory");
    if let Some(mode) = args.child {
        println!("{}", run::child(&workload, mode, &dir).to_line());
        return ExitCode::SUCCESS;
    }
    let mut parent = Parent {
        args: &args,
        gate: Gate::new(reference(workload.name, args.seed)),
    };
    let metrics = if args.trace {
        parent.traced(&workload)
    } else {
        parent.timed(&workload)
    };
    // Best effort: other invocations may share the directory.
    let _ = std::fs::remove_dir(&dir);
    let Some(metrics) = metrics else {
        eprintln!("simbench: no run of {} completed", workload.name);
        return ExitCode::FAILURE;
    };
    let gate = &parent.gate;
    for m in &metrics {
        println!(
            "{:<32} {:>18} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    println!(
        "{:<32} {:>18} of {} runs",
        "runs_failed", gate.failed, gate.attempted
    );
    println!("{}", result_json(gate, &metrics));
    ExitCode::SUCCESS
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_json(gate: &Gate, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        body.join(", ")
    )
}

/// Median of `f` over the successful records.
fn median_of(records: &[Record], f: impl Fn(&Record) -> f64) -> f64 {
    stats::median(&mut records.iter().map(f).collect::<Vec<_>>())
}

struct Parent<'a> {
    args: &'a Args,
    gate: Gate,
}

impl Parent<'_> {
    /// Runs one child process for `workload` in `mode` and checks its
    /// outputs. `None` if it crashed.
    fn child(&mut self, workload: &Workload, mode: Mode) -> Option<Record> {
        let exe = std::env::current_exe().expect("own executable path");
        let out = Command::new(exe)
            .args(["--workload", workload.name])
            .args(["--seed", &self.args.seed.to_string()])
            .args(["--child", mode.name()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                self.gate
                    .crashed(&format!("cannot start a {} child: {e}", mode.name()));
                return None;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let record = stdout.lines().rev().find_map(Record::parse);
        match record {
            Some(record) if out.status.success() => {
                // A wrong run still took the time it took: it is timed,
                // and the gate counts it as failed.
                self.gate.check(&record);
                Some(record)
            }
            _ => {
                self.gate
                    .crashed(&format!("{} child exited with {}", mode.name(), out.status));
                None
            }
        }
    }

    /// The end-to-end run: set-up time, then timed runs until the
    /// deadline, each in a fresh child.
    fn timed(&mut self, workload: &Workload) -> Option<Vec<Metric>> {
        let zero = workload.experiment().warmup_cycles(0).measure_cycles(0);
        let setup_s = time_median(SETUP_REPS, || zero.run(workload.source()));

        let mut samples = Vec::new();
        let mut rounds = Rounds::new(self.args.seconds, MIN_SAMPLES);
        while rounds.another() {
            samples.extend(self.child(workload, Mode::Sample));
        }
        if samples.is_empty() {
            return None;
        }
        let hops = flit_hops(workload);
        let per_cycle = |r: &Record| r.get_float("wall_s") * 1e9 / r.get_int("cycles") as f64;
        let per_hop = |r: &Record| r.get_float("wall_s") * 1e9 / hops(r) as f64;
        let rss = |r: &Record| r.get_int("rss_kib") as f64 / 1024.0;
        describe("host_ns_per_cycle", &samples, per_cycle);
        Some(vec![
            metric("setup_s", setup_s, "s"),
            metric("host_ns_per_cycle", median_of(&samples, per_cycle), "ns"),
            metric("host_ns_per_flit_hop", median_of(&samples, per_hop), "ns"),
            metric("peak_rss_mib", median_of(&samples, rss), "MiB"),
        ])
    }

    /// The traced run: outside-in layer spans, each traced run paired
    /// with an untraced one for the overhead, then the probes.
    fn traced(&mut self, workload: &Workload) -> Option<Vec<Metric>> {
        let noc = &workload.config.noc;
        let route_build_s = time_median(SETUP_REPS, || RouteTable::build(noc, noc.routing));

        let (mut plain, mut sharded, mut traced) = (Vec::new(), Vec::new(), Vec::new());
        let mut rounds = Rounds::new(self.args.seconds, 1);
        while rounds.another() {
            plain.extend(self.child(workload, Mode::Plain));
            if workload.shards > 1 {
                // The sequential and sharded engines alternate; both must
                // produce the same outputs, on any seed.
                sharded.extend(self.child(workload, Mode::Sample));
            }
            traced.extend(self.child(workload, Mode::Traced));
        }
        let probe = self.child(workload, Mode::Probe)?;
        if traced.is_empty() || plain.is_empty() || (workload.shards > 1 && sharded.is_empty()) {
            return None;
        }
        // Model work counts must repeat exactly from run to run.
        let counts = |r: &Record| TRACED_COUNTS.map(|k| r.get_int(k));
        if traced.iter().any(|r| counts(r) != counts(&traced[0])) {
            self.gate
                .crashed("traced runs disagree on model work counts");
        }

        let t = &traced[0];
        let outputs = t.all_outputs()[0].1;
        let wall = |rs: &[Record]| median_of(rs, |r| r.get_float("wall_s"));
        let int = |r: &Record, key: &str| r.get_int(key) as f64;
        let tick_self = |r: &Record| r.get_float("core.tick.s") - r.get_float("traffic.gen.s");
        let (won, lost) = (int(t, "noc.alloc_won"), int(t, "noc.alloc_lost"));
        let speedup = if workload.shards > 1 {
            wall(&plain) / wall(&sharded)
        } else {
            1.0
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut metrics: Vec<Metric> = TRACED_TIMES
            .iter()
            .map(|&k| metric(k, median_of(&traced, |r| r.get_float(k)), "s"))
            .chain(TRACED_COUNTS.iter().map(|&k| metric(k, int(t, k), "count")))
            .chain(
                PROBE_TIMES
                    .iter()
                    .map(|&k| metric(k, probe.get_float(k), "s")),
            )
            .chain(
                PROBE_COUNTS
                    .iter()
                    .map(|&(k, unit)| metric(k, int(&probe, k), unit)),
            )
            .collect();
        metrics.extend([
            metric("core.tick.self_s", median_of(&traced, tick_self), "s"),
            metric(
                "core.tick.self_ns_per_call",
                median_of(&traced, |r| tick_self(r) * 1e9 / int(r, "core.tick.calls")),
                "ns",
            ),
            metric("noc.alloc_win_ratio", won / (won + lost), "ratio"),
            metric("sim_avg_latency_cycles", outputs.latency_cycles(), "cycles"),
            metric("sim_norm_power", outputs.norm_power(), "ratio"),
            metric("core.shard.speedup_vs_seq", speedup, "x"),
            metric("host.cores", cores as f64, "count"),
            metric("noc.route_table.build_s", route_build_s, "s"),
            metric(
                "trace.overhead_pct",
                (wall(&traced) / wall(&plain) - 1.0) * 100.0,
                "%",
            ),
            metric(
                "trace.unattributed_pct",
                median_of(&traced, |r| {
                    (1.0 - r.get_float("attributed_s") / r.get_float("wall_s")) * 100.0
                }),
                "%",
            ),
        ]);
        Some(metrics)
    }
}

/// Span times of the traced runs, reported as their median.
const TRACED_TIMES: [&str; 6] = [
    "desim.calendar.pop_s",
    "core.flit_arrive.s",
    "core.credit_arrive.s",
    "core.tick.s",
    "traffic.gen.s",
    "core.policy_events.s",
];

/// Counts of the traced runs: work the model did, which must repeat
/// exactly from run to run.
const TRACED_COUNTS: [&str; 17] = [
    "desim.calendar.pops",
    "desim.calendar.scheduled",
    "desim.calendar.peak_pending",
    "core.flit_arrive.calls",
    "core.credit_arrive.calls",
    "core.tick.calls",
    "traffic.gen.calls",
    "traffic.packets",
    "core.policy_events.calls",
    "noc.flits_sent",
    "noc.flits_injected",
    "noc.alloc_won",
    "noc.alloc_lost",
    "policy.dvs_decisions",
    "policy.rate_changes",
    "policy.laser_pincs",
    "policy.laser_pdecs",
];

/// Times from the probe run, each already a median of repeated calls.
const PROBE_TIMES: [&str; 4] = [
    "core.checkpoint.encode_s",
    "core.checkpoint.decode_s",
    "core.checkpoint.read_s",
    "core.telemetry.export_s",
];

/// Counts from the probe run, with their units.
const PROBE_COUNTS: [(&str, &str); 6] = [
    ("core.checkpoint.bytes", "bytes"),
    ("core.telemetry.rows_kept", "count"),
    ("core.shard.count", "count"),
    ("core.shard.barriers", "count"),
    ("core.shard.windows", "count"),
    ("core.shard.lookahead", "cycles"),
];

/// Decides how many rounds of child runs one invocation makes: at least
/// `min`, then more while the next round is expected to end by the
/// deadline (so an invocation lasts about `--seconds`, not a round more).
struct Rounds {
    start: Instant,
    limit: Duration,
    min: u32,
    done: u32,
}

impl Rounds {
    fn new(seconds: u64, min: usize) -> Rounds {
        Rounds {
            start: Instant::now(),
            limit: Duration::from_secs(seconds),
            min: min as u32,
            done: 0,
        }
    }

    fn another(&mut self) -> bool {
        let elapsed = self.start.elapsed();
        let fits = self.done == 0 || elapsed + elapsed / (2 * self.done) <= self.limit;
        let go = self.done < self.min || fits;
        self.done += u32::from(go);
        go
    }
}

/// Prints the sample count and range of a per-run metric to stderr.
fn describe(name: &str, records: &[Record], f: impl Fn(&Record) -> f64) {
    let values: Vec<f64> = records.iter().map(f).collect();
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    eprintln!(
        "simbench: {name} over {} runs: min {min:.1}, max {max:.1}",
        values.len()
    );
}

/// Flit link traversals one timed run simulates. A checkpointing workload
/// simulates its first half once and its second half twice (saved run,
/// then resumed run); its hops before the split come from a prefix run
/// that stops there.
fn flit_hops(workload: &Workload) -> impl Fn(&Record) -> u64 {
    let prefix = workload.save_at.map_or(0, |at| {
        let result = workload
            .experiment()
            .measure_cycles(at - workload.warmup)
            .run(workload.source());
        workloads::Outputs::of(&result).flits_sent
    });
    move |r: &Record| {
        let full = r.get_int("run.flits_sent");
        if r.0.contains_key("resumed.flits_sent") {
            full + (full - prefix)
        } else {
            full
        }
    }
}
