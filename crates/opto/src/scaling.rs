//! Power-scaling trends under dynamic bit-rate and voltage control
//! (paper Table 2).
//!
//! Each link component's power follows a characteristic trend as the
//! operating point scales below nominal:
//!
//! | Component        | Trend      |
//! |------------------|------------|
//! | VCSEL            | ∼ Vdd      |
//! | VCSEL driver     | Vdd² · BR  |
//! | Modulator driver | BR         |
//! | TIA              | Vdd · BR   |
//! | CDR              | Vdd² · BR  |
//!
//! The modulator driver's supply is pinned (voltage scaling would collapse
//! the contrast ratio), hence its bit-rate-only trend.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How a component's power scales with the supply-voltage ratio `v` and
/// bit-rate ratio `b` relative to its calibration point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScalingTrend {
    /// No scaling: power is fixed regardless of operating point.
    Constant,
    /// Power ∝ Vdd (the VCSEL: modulation current tracks the driver rail).
    Vdd,
    /// Power ∝ BR (the modulator driver: fixed supply, rate-only scaling).
    Br,
    /// Power ∝ Vdd · BR (the TIA: bias current tracks bandwidth and rail).
    VddBr,
    /// Power ∝ Vdd² · BR (digital switching: VCSEL driver and CDR).
    Vdd2Br,
}

impl ScalingTrend {
    /// The multiplicative power factor at voltage ratio `v` and bit-rate
    /// ratio `b` (both relative to the calibration point, in `[0, 1]` for
    /// down-scaling).
    ///
    /// # Panics
    ///
    /// Panics if either ratio is negative or non-finite.
    pub fn factor(self, v: f64, b: f64) -> f64 {
        assert!(
            v.is_finite() && v >= 0.0,
            "voltage ratio must be non-negative"
        );
        assert!(
            b.is_finite() && b >= 0.0,
            "bit-rate ratio must be non-negative"
        );
        match self {
            ScalingTrend::Constant => 1.0,
            ScalingTrend::Vdd => v,
            ScalingTrend::Br => b,
            ScalingTrend::VddBr => v * b,
            ScalingTrend::Vdd2Br => v * v * b,
        }
    }

    /// Whether this trend responds to supply-voltage scaling at all.
    pub fn voltage_sensitive(self) -> bool {
        matches!(
            self,
            ScalingTrend::Vdd | ScalingTrend::VddBr | ScalingTrend::Vdd2Br
        )
    }

    /// Whether this trend responds to bit-rate scaling at all.
    pub fn rate_sensitive(self) -> bool {
        matches!(
            self,
            ScalingTrend::Br | ScalingTrend::VddBr | ScalingTrend::Vdd2Br
        )
    }
}

impl fmt::Display for ScalingTrend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalingTrend::Constant => "const",
            ScalingTrend::Vdd => "~Vdd",
            ScalingTrend::Br => "BR",
            ScalingTrend::VddBr => "Vdd*BR",
            ScalingTrend::Vdd2Br => "Vdd^2*BR",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_at_half_point() {
        // v = b = 0.5 (the paper's 5 Gb/s / 0.9 V point)
        assert_eq!(ScalingTrend::Constant.factor(0.5, 0.5), 1.0);
        assert_eq!(ScalingTrend::Vdd.factor(0.5, 0.5), 0.5);
        assert_eq!(ScalingTrend::Br.factor(0.5, 0.5), 0.5);
        assert_eq!(ScalingTrend::VddBr.factor(0.5, 0.5), 0.25);
        assert_eq!(ScalingTrend::Vdd2Br.factor(0.5, 0.5), 0.125);
    }

    #[test]
    fn nominal_point_is_identity() {
        for t in [
            ScalingTrend::Constant,
            ScalingTrend::Vdd,
            ScalingTrend::Br,
            ScalingTrend::VddBr,
            ScalingTrend::Vdd2Br,
        ] {
            assert_eq!(t.factor(1.0, 1.0), 1.0, "{t}");
        }
    }

    #[test]
    fn sensitivity_flags() {
        assert!(!ScalingTrend::Constant.voltage_sensitive());
        assert!(!ScalingTrend::Constant.rate_sensitive());
        assert!(ScalingTrend::Vdd.voltage_sensitive());
        assert!(!ScalingTrend::Vdd.rate_sensitive());
        assert!(!ScalingTrend::Br.voltage_sensitive());
        assert!(ScalingTrend::Br.rate_sensitive());
        assert!(ScalingTrend::VddBr.voltage_sensitive());
        assert!(ScalingTrend::Vdd2Br.rate_sensitive());
    }

    #[test]
    fn modulator_driver_ignores_voltage() {
        // Fixed-supply driver: halving "voltage" must not change power.
        assert_eq!(
            ScalingTrend::Br.factor(0.5, 0.8),
            ScalingTrend::Br.factor(1.0, 0.8)
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(ScalingTrend::Vdd2Br.to_string(), "Vdd^2*BR");
        assert_eq!(ScalingTrend::Vdd.to_string(), "~Vdd");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_ratio_rejected() {
        let _ = ScalingTrend::Vdd.factor(-0.1, 0.5);
    }
}
