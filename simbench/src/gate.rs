//! The correctness gate: every run's simulated outputs must equal the
//! workload's stored reference (on the default seed) and each other (on
//! every seed), bit for bit.

use crate::run::Record;
use crate::workloads::Outputs;

/// Tallies runs and checks each one's outputs.
#[derive(Debug)]
pub struct Gate {
    /// Outputs every workload run must produce: the stored reference, or
    /// else the first run's.
    expected: Option<Outputs>,
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn new(reference: Option<Outputs>) -> Gate {
        Gate {
            expected: reference,
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts a run that crashed or printed no record.
    pub fn crashed(&mut self, why: &str) {
        eprintln!("simbench: run failed: {why}");
        self.attempted += 1;
        self.failed += 1;
    }

    /// Checks one child's record and counts it; returns whether it passed.
    ///
    /// Output sets named `probe*` come from the short checkpoint probe run,
    /// a different horizon: they must only agree with each other (the
    /// resumed half with the unbroken save run). Every other set is a run
    /// of the workload itself and must equal the expected outputs.
    pub fn check(&mut self, record: &Record) -> bool {
        self.attempted += 1;
        let mut ok = true;
        let mut probe: Option<Outputs> = None;
        for (name, outputs) in record.all_outputs() {
            let expected = if name.starts_with("probe") {
                *probe.get_or_insert(outputs)
            } else {
                *self.expected.get_or_insert(outputs)
            };
            if outputs != expected {
                eprintln!("simbench: `{name}` outputs {outputs:?} differ from {expected:?}");
                ok = false;
            }
        }
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{reference, Workload, DEFAULT_SEED};

    fn record_of(sets: &[(&str, Outputs)]) -> Record {
        let mut rec = Record::default();
        for (name, outputs) in sets {
            rec.outputs(name, outputs);
        }
        rec
    }

    fn outputs(delivered: u64) -> Outputs {
        Outputs {
            delivered,
            latency_bits: 85.9f64.to_bits(),
            power_bits: 0.344f64.to_bits(),
            transitions: 7,
            flits_sent: 1_000,
        }
    }

    #[test]
    fn matching_runs_pass() {
        let mut gate = Gate::new(Some(outputs(10)));
        assert!(gate.check(&record_of(&[("run", outputs(10))])));
        assert!(gate.check(&record_of(&[
            ("run", outputs(10)),
            ("resumed", outputs(10))
        ])));
        assert_eq!((gate.attempted, gate.failed), (2, 0));
    }

    #[test]
    fn perturbed_reference_is_a_failure() {
        let run = outputs(10);
        for perturbed in [
            Outputs {
                delivered: run.delivered + 1,
                ..run
            },
            Outputs {
                latency_bits: run.latency_bits ^ 1,
                ..run
            },
            Outputs {
                power_bits: run.power_bits ^ 1,
                ..run
            },
            Outputs {
                transitions: run.transitions + 1,
                ..run
            },
            Outputs {
                flits_sent: run.flits_sent - 1,
                ..run
            },
        ] {
            let mut gate = Gate::new(Some(perturbed));
            assert!(!gate.check(&record_of(&[("run", run)])));
            assert_eq!((gate.attempted, gate.failed), (1, 1));
        }
    }

    #[test]
    fn runs_must_agree_without_a_reference() {
        let mut gate = Gate::new(None);
        assert!(gate.check(&record_of(&[("run", outputs(10))])));
        assert!(!gate.check(&record_of(&[("run", outputs(11))])));
        assert!(!gate.check(&record_of(&[("run", outputs(10)), ("resumed", outputs(9))])));
        assert_eq!((gate.attempted, gate.failed), (3, 2));
    }

    #[test]
    fn probe_halves_must_agree_with_each_other_only() {
        let mut gate = Gate::new(Some(outputs(10)));
        let probe = outputs(3);
        assert!(gate.check(&record_of(&[("probe", probe), ("probe_resumed", probe)])));
        let broken = Outputs {
            flits_sent: 1,
            ..probe
        };
        assert!(!gate.check(&record_of(&[("probe", probe), ("probe_resumed", broken)])));
    }

    #[test]
    fn crashes_count_as_failures() {
        let mut gate = Gate::new(None);
        gate.crashed("test");
        assert_eq!((gate.attempted, gate.failed), (1, 1));
    }

    #[test]
    fn every_workload_has_a_default_seed_reference() {
        for name in crate::workloads::NAMES {
            assert!(Workload::new(name, DEFAULT_SEED).is_some());
            assert!(reference(name, DEFAULT_SEED).is_some(), "{name}");
            assert!(reference(name, DEFAULT_SEED + 1).is_none(), "{name}");
        }
    }
}
