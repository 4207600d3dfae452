//! What one child process measures. Each timed run executes in a fresh
//! child so its peak resident set (`VmHWM`) is that run's alone.
//!
//! A child prints one `SIMBENCH key=value ...` line; the parent parses it
//! back into a [`Record`].

use crate::stats::{time_median, Reps};
use crate::trace::{outputs_of, traced_run};
use crate::workloads::{Outputs, Workload, RETAINED_TELEMETRY};
use lumen_core::{run_sharded_with, Checkpoint};
use lumen_noc::RouteTableMode;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// What a child process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One timed run of the workload as defined: through `Experiment`,
    /// on its shard count, split by a checkpoint if it has one.
    Sample,
    /// The same run unbroken on the sequential engine.
    Plain,
    /// The unbroken sequential run under the outside-in trace.
    Traced,
    /// Checkpoint, telemetry and shard probes.
    Probe,
}

impl Mode {
    pub const ALL: [Mode; 4] = [Mode::Sample, Mode::Plain, Mode::Traced, Mode::Probe];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Sample => "sample",
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Probe => "probe",
        }
    }
}

/// A flat key → value record, printed with full float precision.
#[derive(Debug, Default, Clone)]
pub struct Record(pub BTreeMap<String, String>);

const PREFIX: &str = "SIMBENCH ";

impl Record {
    pub fn int(&mut self, key: &str, value: u64) {
        self.0.insert(key.into(), value.to_string());
    }

    pub fn float(&mut self, key: &str, value: f64) {
        self.0.insert(key.into(), format!("{value:?}"));
    }

    pub fn get_int(&self, key: &str) -> u64 {
        self.0
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("child record lacks integer `{key}`"))
    }

    pub fn get_float(&self, key: &str) -> f64 {
        self.0
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("child record lacks number `{key}`"))
    }

    /// Stores outputs under `prefix.`-qualified keys.
    pub fn outputs(&mut self, prefix: &str, o: &Outputs) {
        self.int(&format!("{prefix}.delivered"), o.delivered);
        self.int(&format!("{prefix}.latency_bits"), o.latency_bits);
        self.int(&format!("{prefix}.power_bits"), o.power_bits);
        self.int(&format!("{prefix}.transitions"), o.transitions);
        self.int(&format!("{prefix}.flits_sent"), o.flits_sent);
    }

    /// Every output set stored in the record, by prefix.
    pub fn all_outputs(&self) -> Vec<(String, Outputs)> {
        self.0
            .keys()
            .filter_map(|k| k.strip_suffix(".delivered"))
            .map(|p| {
                let g = |f: &str| self.get_int(&format!("{p}.{f}"));
                let o = Outputs {
                    delivered: g("delivered"),
                    latency_bits: g("latency_bits"),
                    power_bits: g("power_bits"),
                    transitions: g("transitions"),
                    flits_sent: g("flits_sent"),
                };
                (p.to_string(), o)
            })
            .collect()
    }

    pub fn to_line(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{PREFIX}{}", fields.join(" "))
    }

    pub fn parse(line: &str) -> Option<Record> {
        let mut map = BTreeMap::new();
        for kv in line.strip_prefix(PREFIX)?.split_whitespace() {
            let (k, v) = kv.split_once('=')?;
            map.insert(k.to_string(), v.to_string());
        }
        Some(Record(map))
    }
}

/// Peak resident set size of this process, KiB, from `/proc/self/status`.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// Runs `mode` for `workload` in this process. `dir` is where checkpoint
/// files go; each child names its own files after its process id.
pub fn child(workload: &Workload, mode: Mode, dir: &Path) -> Record {
    let mut rec = match mode {
        Mode::Sample => sample(workload, dir),
        Mode::Plain => plain(workload),
        Mode::Traced => traced(workload),
        Mode::Probe => probe(workload, dir),
    };
    rec.int("rss_kib", peak_rss_kib());
    rec
}

fn ckpt_path(dir: &Path, tag: &str) -> std::path::PathBuf {
    dir.join(format!("{tag}-{}.ckpt", std::process::id()))
}

/// The timed run. A checkpointing workload saves at its split cycle and
/// finishes, then a second run resumes from the file; both are timed.
fn sample(w: &Workload, dir: &Path) -> Record {
    let mut rec = Record::default();
    let exp = w.experiment();
    let total = w.total_cycles();
    match w.save_at {
        None => {
            let start = Instant::now();
            let result = exp.run(w.source());
            rec.float("wall_s", start.elapsed().as_secs_f64());
            rec.int("cycles", total);
            rec.outputs("run", &Outputs::of(&result));
        }
        Some(at) => {
            let path = ckpt_path(dir, "sample");
            let start = Instant::now();
            let saved = exp.clone().save_at(at, &path).run(w.source());
            let resumed = exp.resume(&path).run(w.source());
            rec.float("wall_s", start.elapsed().as_secs_f64());
            std::fs::remove_file(&path).expect("remove checkpoint file");
            assert!(resumed.resumed, "resumed run did not report resuming");
            rec.int("cycles", total + (total - at));
            rec.outputs("run", &Outputs::of(&saved));
            rec.outputs("resumed", &Outputs::of(&resumed));
        }
    }
    rec
}

/// The workload's run unbroken on the sequential engine: the untraced
/// twin of [`traced`], and the sequential side of the shard speed-up.
fn plain(w: &Workload) -> Record {
    let mut rec = Record::default();
    let start = Instant::now();
    let result = w.experiment().shards(1).run(w.source());
    rec.float("wall_s", start.elapsed().as_secs_f64());
    rec.int("cycles", w.total_cycles());
    rec.outputs("run", &Outputs::of(&result));
    rec
}

fn traced(w: &Workload) -> Record {
    let t = traced_run(w);
    let mut rec = Record::default();
    rec.outputs("run", &t.outputs);
    rec.float("wall_s", t.wall.as_secs_f64());
    rec.float("attributed_s", t.attributed().as_secs_f64());
    for (time, calls, span) in [
        ("desim.calendar.pop_s", "desim.calendar.pops", t.pop),
        ("core.tick.s", "core.tick.calls", t.tick),
        (
            "core.flit_arrive.s",
            "core.flit_arrive.calls",
            t.flit_arrive,
        ),
        (
            "core.credit_arrive.s",
            "core.credit_arrive.calls",
            t.credit_arrive,
        ),
        ("core.policy_events.s", "core.policy_events.calls", t.policy),
        ("traffic.gen.s", "traffic.gen.calls", t.gen),
    ] {
        rec.float(time, span.time.as_secs_f64());
        rec.int(calls, span.calls);
    }
    rec.int("traffic.packets", t.packets);
    rec.int("desim.calendar.scheduled", t.scheduled);
    rec.int("desim.calendar.peak_pending", t.peak_pending as u64);
    let c = &t.counters;
    rec.int("noc.flits_sent", c.flits_sent);
    rec.int("noc.flits_injected", c.flits_injected);
    rec.int("noc.alloc_won", c.alloc_won);
    rec.int("noc.alloc_lost", c.alloc_lost);
    rec.int("policy.dvs_decisions", c.dvs_decisions);
    rec.int("policy.rate_changes", c.rate_changes);
    rec.int("policy.laser_pincs", c.laser_pincs);
    rec.int("policy.laser_pdecs", c.laser_pdecs);
    rec
}

/// Each probe call is timed 5 times and the median kept.
const PROBE_REPS: Reps = Reps {
    min: 5,
    max: 5,
    budget: Duration::ZERO,
};

/// Probe horizon for workloads that do not checkpoint themselves: a short
/// run of the same system, saved at its midpoint.
const PROBE_WARMUP: u64 = 1_000;
const PROBE_MEASURE: u64 = 1_000;

/// Checkpoint and telemetry probes on a save/resume pair, and shard
/// probes from the sharded engine's own outcome.
fn probe(w: &Workload, dir: &Path) -> Record {
    let mut rec = Record::default();
    // `longrun_ckpt` probes its own split; any other workload probes a
    // short run of its system with the same telemetry retention.
    let split = match w.save_at {
        Some(_) => w.clone(),
        None => Workload {
            warmup: PROBE_WARMUP,
            measure: PROBE_MEASURE,
            telemetry: RETAINED_TELEMETRY,
            save_at: Some(PROBE_WARMUP),
            ..w.clone()
        },
    };
    let exp = split.experiment();
    let at = split.save_at.expect("the probe run has a split cycle");
    let path = ckpt_path(dir, "probe");
    let saved = exp.clone().save_at(at, &path).run(w.source());
    let resumed = exp.resume(&path).run(w.source());
    let prefix = if w.save_at.is_some() { "run" } else { "probe" };
    rec.outputs(prefix, &Outputs::of(&saved));
    rec.outputs(&format!("{prefix}_resumed"), &Outputs::of(&resumed));

    let bytes = std::fs::read(&path).expect("read checkpoint file");
    rec.int("core.checkpoint.bytes", bytes.len() as u64);
    rec.float(
        "core.checkpoint.read_s",
        time_median(PROBE_REPS, || {
            Checkpoint::read_from(&path).expect("read checkpoint")
        }),
    );
    let ckpt = Checkpoint::from_bytes(&bytes).expect("decode checkpoint");
    rec.float(
        "core.checkpoint.decode_s",
        time_median(PROBE_REPS, || {
            Checkpoint::from_bytes(&bytes).expect("decode checkpoint")
        }),
    );
    rec.float(
        "core.checkpoint.encode_s",
        time_median(PROBE_REPS, || ckpt.to_bytes()),
    );
    std::fs::remove_file(&path).expect("remove checkpoint file");

    let report = saved
        .telemetry
        .as_ref()
        .expect("probe runs record telemetry");
    rec.int("core.telemetry.rows_kept", report.rows.len() as u64);
    rec.float(
        "core.telemetry.export_s",
        time_median(PROBE_REPS, || report.to_jsonl()),
    );

    let shards = w.shards;
    rec.int("core.shard.count", shards as u64);
    if shards > 1 {
        let start = Instant::now();
        let outcome = run_sharded_with(
            w.config.clone(),
            w.source(),
            None,
            w.telemetry,
            w.warmup,
            w.measure,
            shards,
            None,
            RouteTableMode::Auto,
        );
        rec.float("shard_wall_s", start.elapsed().as_secs_f64());
        assert!(
            outcome.barriers > 0 && outcome.windows > 0,
            "a {shards}-shard run reported no barriers: it ran sequentially"
        );
        let mut sim = outcome.sim;
        let report = sim
            .take_telemetry_report(outcome.end, outcome.events)
            .expect("benchmark runs record telemetry");
        rec.outputs("shard_run", &outputs_of(&sim, outcome.end, &report));
        rec.int("core.shard.barriers", outcome.barriers);
        rec.int("core.shard.windows", outcome.windows);
        rec.int("core.shard.lookahead", outcome.lookahead);
    } else {
        rec.int("core.shard.barriers", 0);
        rec.int("core.shard.windows", 0);
        rec.int("core.shard.lookahead", 0);
    }
    rec
}
