//! The `lumen-dse/1` Pareto report: schema-versioned, deterministic JSON.
//!
//! Everything a reader needs to reproduce or audit a search lands here:
//! the scenario and base seed, both fidelity horizons, every sampled
//! point (decoded knobs, the derived per-point seed it actually ran
//! under, its validated objectives, feasibility and dominated-or-not),
//! and the Table-1 / non-power-aware reference rows at both fidelities.
//! Serialization goes through the vendored `serde_json`, which prints
//! floats as shortest-round-trip strings and rejects non-finite values —
//! together with [`lumen_core::results::RunResult::objectives`] gating every
//! number on the way in, a report is byte-identical across reruns of the
//! same seed and cannot contain `NaN`/`inf`.

use crate::space::PolicyDraw;
use lumen_core::results::Objectives;
use serde::{Deserialize, Serialize};

/// The schema tag every report carries.
pub const DSE_SCHEMA: &str = "lumen-dse/1";

/// One fidelity's simulated horizons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fidelity {
    /// Warmup cycles before measurement.
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
}

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportPoint {
    /// Trial index within the search (quick trials first, then the
    /// full-fidelity survivor re-evaluations, which repeat the id of the
    /// quick trial they re-run).
    pub id: usize,
    /// `"quick"` or `"full"`.
    pub fidelity: String,
    /// The derived per-point seed the simulation actually ran under.
    pub seed: u64,
    /// The decoded policy knobs.
    pub params: PolicyDraw,
    /// Validated (finite) objectives.
    pub objectives: Objectives,
    /// Whether the delivery constraint held.
    pub feasible: bool,
    /// Whether another point of the same fidelity cohort constrained-
    /// dominates this one.
    pub dominated: bool,
}

/// A reference row (Table 1 or the non-power-aware baseline) at both
/// fidelities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceRow {
    /// Quick-fidelity objectives.
    pub quick: Objectives,
    /// Full-fidelity objectives.
    pub full: Objectives,
}

/// The complete result of one scenario's search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseReport {
    /// Always [`DSE_SCHEMA`].
    pub schema: String,
    /// Scenario name (`fig5-uniform`, `fig6-hotspot`, `dc-folded-clos`).
    pub scenario: String,
    /// The base seed of the search (per-point seeds derive from it).
    pub base_seed: u64,
    /// The comparison group shared by every point of the scenario
    /// (common random numbers: one traffic realization for all policies).
    pub group: u64,
    /// The delivery-ratio floor applied as a constraint.
    pub min_delivery: f64,
    /// Quick-fidelity horizons.
    pub quick: Fidelity,
    /// Full-fidelity horizons.
    pub full: Fidelity,
    /// The paper's Table 1 policy under this scenario's traffic.
    pub table1: ReferenceRow,
    /// The non-power-aware baseline (links pinned at max rate).
    pub baseline_non_pa: ReferenceRow,
    /// Every evaluated point, quick trials then full survivors.
    pub points: Vec<ReportPoint>,
}

impl DseReport {
    /// The full-fidelity survivor points, in report order.
    pub fn full_points(&self) -> impl Iterator<Item = &ReportPoint> {
        self.points.iter().filter(|p| p.fidelity == "full")
    }

    /// Whether any full-fidelity, feasible, non-dominated point beats
    /// Table 1 on `(normalized power, delivery)`: no worse on both and
    /// strictly better on power. The acceptance question the harness
    /// table answers per scenario.
    pub fn any_policy_dominates_table1(&self) -> bool {
        let t1 = &self.table1.full;
        self.full_points().any(|p| {
            p.feasible
                && !p.dominated
                && p.objectives.normalized_power < t1.normalized_power
                && p.objectives.delivery_ratio >= t1.delivery_ratio
        })
    }

    /// Serializes to the deterministic `lumen-dse/1` JSON string.
    ///
    /// # Panics
    ///
    /// Panics if a non-finite value slipped past objective validation
    /// (the serializer refuses `NaN`/`inf` by design).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report contains only finite numbers")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::PolicyDraw;

    fn objectives(power: f64) -> Objectives {
        Objectives {
            normalized_power: power,
            avg_latency_cycles: 30.0,
            p99_latency_cycles: 60.0,
            p99_saturated: false,
            delivery_ratio: 1.0,
        }
    }

    fn report() -> DseReport {
        DseReport {
            schema: DSE_SCHEMA.into(),
            scenario: "fig5-uniform".into(),
            base_seed: 7,
            group: 0,
            min_delivery: 0.99,
            quick: Fidelity {
                warmup_cycles: 1000,
                measure_cycles: 10_000,
            },
            full: Fidelity {
                warmup_cycles: 10_000,
                measure_cycles: 100_000,
            },
            table1: ReferenceRow {
                quick: objectives(0.5),
                full: objectives(0.5),
            },
            baseline_non_pa: ReferenceRow {
                quick: objectives(1.0),
                full: objectives(1.0),
            },
            points: vec![ReportPoint {
                id: 0,
                fidelity: "full".into(),
                seed: 99,
                params: PolicyDraw::paper_table1(),
                objectives: objectives(0.45),
                feasible: true,
                dominated: false,
            }],
        }
    }

    #[test]
    fn json_round_trips_and_is_deterministic() {
        let r = report();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b, "same report, same bytes");
        assert!(a.contains("\"schema\""));
        assert!(a.contains("lumen-dse/1"));
        let back: DseReport = serde_json::from_str(&a).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn dominance_check_against_table1() {
        let mut r = report();
        assert!(
            r.any_policy_dominates_table1(),
            "0.45 < 0.5 at equal delivery"
        );
        r.points[0].objectives.normalized_power = 0.6;
        assert!(!r.any_policy_dominates_table1());
        r.points[0].objectives.normalized_power = 0.45;
        r.points[0].feasible = false;
        assert!(
            !r.any_policy_dominates_table1(),
            "infeasible points don't count"
        );
    }
}
