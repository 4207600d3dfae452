//! Constrained Pareto dominance over the run objectives.
//!
//! The search minimizes `(normalized power, average latency, p99
//! latency)` subject to a delivery-ratio floor. Feasibility is handled by
//! *constrained dominance* (Deb's rule): a feasible point beats every
//! infeasible one, two infeasible points compare by violation, and two
//! feasible points compare by plain Pareto dominance. All comparisons are
//! exact `f64` comparisons on [`lumen_core::results::Objectives`] values that the
//! extraction path has already guaranteed finite, so the ranking is a
//! total deterministic function of the trial set.

use lumen_core::results::Objectives;

/// The objective vector as the minimizer sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Goal {
    /// Normalized power (minimize).
    pub power: f64,
    /// Average latency, cycles (minimize).
    pub avg_latency: f64,
    /// p99 latency, cycles (minimize).
    pub p99_latency: f64,
    /// Delivery-constraint violation: `max(0, min_delivery − delivery)`.
    pub violation: f64,
}

impl Goal {
    /// Builds a goal from validated objectives and the delivery floor.
    pub fn new(obj: &Objectives, min_delivery: f64) -> Goal {
        Goal {
            power: obj.normalized_power,
            avg_latency: obj.avg_latency_cycles,
            p99_latency: obj.p99_latency_cycles,
            violation: (min_delivery - obj.delivery_ratio).max(0.0),
        }
    }

    /// Whether the delivery constraint holds.
    pub fn feasible(&self) -> bool {
        self.violation == 0.0
    }

    fn objectives(&self) -> [f64; 3] {
        [self.power, self.avg_latency, self.p99_latency]
    }

    /// Constrained dominance: does `self` dominate `other`?
    pub fn dominates(&self, other: &Goal) -> bool {
        match (self.feasible(), other.feasible()) {
            (true, false) => true,
            (false, true) => false,
            (false, false) => self.violation < other.violation,
            (true, true) => {
                let (a, b) = (self.objectives(), other.objectives());
                let no_worse = a.iter().zip(&b).all(|(x, y)| x <= y);
                let better = a.iter().zip(&b).any(|(x, y)| x < y);
                no_worse && better
            }
        }
    }
}

/// Non-dominated rank of every goal: rank 0 is the Pareto front, rank 1
/// the front of what remains, and so on. Stable and deterministic for a
/// given input order.
pub fn ranks(goals: &[Goal]) -> Vec<usize> {
    let n = goals.len();
    let mut rank = vec![usize::MAX; n];
    let mut assigned = 0;
    let mut current = 0;
    while assigned < n {
        let mut front = Vec::new();
        for i in 0..n {
            if rank[i] != usize::MAX {
                continue;
            }
            let dominated =
                (0..n).any(|j| j != i && rank[j] == usize::MAX && goals[j].dominates(&goals[i]));
            if !dominated {
                front.push(i);
            }
        }
        assert!(!front.is_empty(), "dominance must be irreflexive");
        for i in front {
            rank[i] = current;
            assigned += 1;
        }
        current += 1;
    }
    rank
}

/// Indices of the rank-0 (non-dominated) goals, in input order.
pub fn pareto_front(goals: &[Goal]) -> Vec<usize> {
    ranks(goals)
        .into_iter()
        .enumerate()
        .filter_map(|(i, r)| (r == 0).then_some(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goal(power: f64, avg: f64, p99: f64) -> Goal {
        Goal {
            power,
            avg_latency: avg,
            p99_latency: p99,
            violation: 0.0,
        }
    }

    #[test]
    fn plain_dominance() {
        let a = goal(0.5, 30.0, 60.0);
        let b = goal(0.6, 35.0, 70.0);
        let c = goal(0.4, 40.0, 60.0); // trades power for latency vs a
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
        assert!(!a.dominates(&a), "irreflexive");
    }

    #[test]
    fn feasible_beats_infeasible() {
        let ok = goal(0.9, 100.0, 500.0);
        let mut bad = goal(0.1, 10.0, 20.0);
        bad.violation = 0.05;
        assert!(ok.dominates(&bad));
        assert!(!bad.dominates(&ok));
        let mut worse = bad;
        worse.violation = 0.2;
        assert!(bad.dominates(&worse), "smaller violation wins");
    }

    #[test]
    fn ranks_partition_into_fronts() {
        let goals = vec![
            goal(0.5, 30.0, 60.0), // front 0
            goal(0.4, 40.0, 60.0), // front 0 (trade-off)
            goal(0.6, 35.0, 70.0), // dominated by 0
            goal(0.7, 45.0, 90.0), // dominated by 2 as well
        ];
        let r = ranks(&goals);
        assert_eq!(r, vec![0, 0, 1, 2]);
        assert_eq!(pareto_front(&goals), vec![0, 1]);
    }

    #[test]
    fn identical_points_share_a_front() {
        let goals = vec![goal(0.5, 30.0, 60.0); 3];
        assert_eq!(ranks(&goals), vec![0, 0, 0]);
    }
}
