//! Temporal injection-rate profiles.
//!
//! A [`RateProfile`] maps a router-core cycle index to a *network-wide*
//! injection rate in packets per cycle (the unit the paper's figures use).

use crate::splash::SplashApp;
use serde::{Deserialize, Serialize};

/// A time-varying network-wide injection rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RateProfile {
    /// A constant rate (the paper's uniform-random experiments).
    Constant(f64),
    /// A repeating sequence of `(duration_cycles, rate)` phases; cycles
    /// past the last phase wrap around to the beginning.
    Phases(Vec<(u64, f64)>),
    /// A SPLASH2-like application profile (paper Fig. 7).
    Splash(SplashApp),
}

impl RateProfile {
    /// The time-varying hotspot schedule of Fig. 6(a): long quiet valleys,
    /// small steps, and large jumps that force optical-level changes.
    /// Rates are network-wide packets/cycle for 5-flit packets.
    pub fn paper_hotspot_schedule() -> RateProfile {
        RateProfile::Phases(vec![
            (100_000, 1.0),
            (100_000, 1.5),
            (100_000, 1.0),
            (100_000, 3.5), // large jump: crosses an optical band
            (100_000, 4.0), // small step: same band
            (100_000, 3.5),
            (100_000, 1.5),
            (100_000, 1.0),
        ])
    }

    /// The rate at a given cycle.
    ///
    /// # Panics
    ///
    /// Panics if a phase list is empty.
    pub fn rate_at(&self, cycle: u64) -> f64 {
        match self {
            RateProfile::Constant(r) => *r,
            RateProfile::Phases(phases) => {
                assert!(!phases.is_empty(), "phase schedule must be non-empty");
                let total: u64 = phases.iter().map(|&(d, _)| d).sum();
                let mut t = cycle % total.max(1);
                for &(d, r) in phases {
                    if t < d {
                        return r;
                    }
                    t -= d;
                }
                phases[phases.len() - 1].1
            }
            RateProfile::Splash(app) => app.rate_at(cycle),
        }
    }

    /// Total cycles in one period of the profile (`None` if constant).
    pub fn period_cycles(&self) -> Option<u64> {
        match self {
            RateProfile::Constant(_) => None,
            RateProfile::Phases(phases) => Some(phases.iter().map(|&(d, _)| d).sum()),
            RateProfile::Splash(app) => Some(app.period_cycles()),
        }
    }

    /// Mean rate over one period (or the constant itself).
    pub fn mean_rate(&self) -> f64 {
        match self {
            RateProfile::Constant(r) => *r,
            RateProfile::Phases(phases) => {
                let total: u64 = phases.iter().map(|&(d, _)| d).sum();
                if total == 0 {
                    return 0.0;
                }
                phases.iter().map(|&(d, r)| d as f64 * r).sum::<f64>() / total as f64
            }
            RateProfile::Splash(app) => app.mean_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile() {
        let p = RateProfile::Constant(3.3);
        assert_eq!(p.rate_at(0), 3.3);
        assert_eq!(p.rate_at(1_000_000), 3.3);
        assert_eq!(p.period_cycles(), None);
        assert_eq!(p.mean_rate(), 3.3);
    }

    #[test]
    fn phases_step_and_wrap() {
        let p = RateProfile::Phases(vec![(10, 1.0), (20, 2.0)]);
        assert_eq!(p.rate_at(0), 1.0);
        assert_eq!(p.rate_at(9), 1.0);
        assert_eq!(p.rate_at(10), 2.0);
        assert_eq!(p.rate_at(29), 2.0);
        assert_eq!(p.rate_at(30), 1.0); // wraps
        assert_eq!(p.period_cycles(), Some(30));
        let mean = p.mean_rate();
        assert!((mean - (10.0 * 1.0 + 20.0 * 2.0) / 30.0).abs() < 1e-12);
    }

    #[test]
    fn hotspot_schedule_has_large_jump() {
        let p = RateProfile::paper_hotspot_schedule();
        let period = p.period_cycles().unwrap();
        assert_eq!(period, 800_000);
        // The schedule crosses from a low-rate valley to a high plateau.
        let low = p.rate_at(50_000);
        let high = p.rate_at(350_000);
        assert!(high / low >= 3.0, "jump {low} → {high}");
    }
}
