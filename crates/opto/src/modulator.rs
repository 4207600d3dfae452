//! Multiple-quantum-well (MQW) electro-absorption modulator (paper §2.1.2).
//!
//! In the external-laser transmitter scheme, continuous light from a central
//! mode-locked laser reaches each link transmitter, where an MQW modulator
//! either absorbs it (0-bit, "off") or passes it (1-bit, "on") depending on
//! the voltage applied by the driver. The modulator is characterized by its
//! insertion loss `IL` (fraction of light lost in the "on" state), contrast
//! ratio `CR` (on/off transmitted power ratio), and capacitance.
//!
//! Power dissipated in the modulator is the absorbed optical power times the
//! photocurrent conversion acting against the applied voltage (paper Eq. 4,
//! equal 1/0 probabilities):
//!
//! ```text
//! P = 0.5 · Rs · PI · [ IL·(Vbias − Vdd)  +  (1 − (1−IL)/CR)·Vbias ]
//! ```
//!
//! where `Rs` is the optical-to-current conversion efficiency, `PI` the
//! input optical power, `Vbias` the bias voltage and `Vdd` the driver
//! supply (a 1-bit applies `Vbias − Vdd`, a 0-bit applies `Vbias`).
//!
//! Crucially for power-aware operation, lowering the driver supply shrinks
//! the voltage swing, which collapses the contrast ratio (paper ref. \[7\]) —
//! so the modulator driver is only *bit-rate* scaled, never voltage scaled.
//! [`MqwModulator::contrast_at_swing`] models that degradation.

use crate::units::{MicroWatts, MilliWatts, Volts};
use serde::{Deserialize, Serialize};

/// An MQW electro-absorption modulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MqwModulator {
    insertion_loss: f64,
    contrast_ratio: f64,
    responsivity_a_per_w: f64,
    bias_voltage: Volts,
    nominal_swing: Volts,
    capacitance_f: f64,
}

impl MqwModulator {
    /// Creates a modulator model.
    ///
    /// * `insertion_loss` — fraction of light absorbed in the "on" state,
    ///   in `(0, 1)`.
    /// * `contrast_ratio` — on/off transmitted-power ratio, `> 1`.
    /// * `responsivity_a_per_w` — optical-to-photocurrent conversion `Rs`.
    /// * `bias_voltage` — reverse bias `Vbias`.
    /// * `nominal_swing` — the driver swing at which `contrast_ratio` holds.
    /// * `capacitance_f` — device capacitance in farads (driver load).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of its physical range.
    pub fn new(
        insertion_loss: f64,
        contrast_ratio: f64,
        responsivity_a_per_w: f64,
        bias_voltage: Volts,
        nominal_swing: Volts,
        capacitance_f: f64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&insertion_loss) && insertion_loss > 0.0,
            "insertion loss must be in (0,1)"
        );
        assert!(contrast_ratio > 1.0, "contrast ratio must exceed 1");
        assert!(responsivity_a_per_w > 0.0, "responsivity must be positive");
        assert!(bias_voltage.as_v() > 0.0, "bias voltage must be positive");
        assert!(nominal_swing.as_v() > 0.0, "swing must be positive");
        assert!(capacitance_f > 0.0, "capacitance must be positive");
        MqwModulator {
            insertion_loss,
            contrast_ratio,
            responsivity_a_per_w,
            bias_voltage,
            nominal_swing,
            capacitance_f,
        }
    }

    /// A strained InGaAs/InAlAs MQW modulator in the spirit of the paper's
    /// reference \[7\]: ~1 dB on-state loss (≈20%), 10:1 contrast at a 1.8 V
    /// swing, 0.8 A/W conversion.
    pub fn ingaas_10g() -> Self {
        MqwModulator::new(
            0.2,
            10.0,
            0.8,
            Volts::from_v(2.5),
            Volts::from_v(1.8),
            0.3e-12,
        )
    }

    /// On-state insertion loss as a fraction.
    pub fn insertion_loss(&self) -> f64 {
        self.insertion_loss
    }

    /// Nominal contrast ratio.
    pub fn contrast_ratio(&self) -> f64 {
        self.contrast_ratio
    }

    /// Device capacitance in farads.
    pub fn capacitance_f(&self) -> f64 {
        self.capacitance_f
    }

    /// Bias voltage `Vbias`.
    pub fn bias_voltage(&self) -> Volts {
        self.bias_voltage
    }

    /// Transmitted optical power in the "on" (1-bit) state.
    pub fn transmitted_on(&self, input: MicroWatts) -> MicroWatts {
        input * (1.0 - self.insertion_loss)
    }

    /// Transmitted optical power in the "off" (0-bit) state.
    pub fn transmitted_off(&self, input: MicroWatts) -> MicroWatts {
        self.transmitted_on(input) / self.contrast_ratio
    }

    /// Optical power absorbed in the "on" state.
    pub fn absorbed_on(&self, input: MicroWatts) -> MicroWatts {
        input * self.insertion_loss
    }

    /// Optical power absorbed in the "off" state.
    pub fn absorbed_off(&self, input: MicroWatts) -> MicroWatts {
        input * (1.0 - (1.0 - self.insertion_loss) / self.contrast_ratio)
    }

    /// Eq. 4 — average dissipated power with equal 1/0 probabilities, for a
    /// given input optical power and driver supply voltage.
    pub fn average_power(&self, input: MicroWatts, vdd: Volts) -> MilliWatts {
        let rs = self.responsivity_a_per_w;
        let pi_w = input.as_uw() / 1e6;
        let on_term = self.insertion_loss * (self.bias_voltage.as_v() - vdd.as_v()).abs();
        let off_term =
            (1.0 - (1.0 - self.insertion_loss) / self.contrast_ratio) * self.bias_voltage.as_v();
        MilliWatts::from_mw(0.5 * rs * pi_w * (on_term + off_term) * 1e3)
    }

    /// The contrast ratio achieved at a reduced driver swing.
    ///
    /// Electro-absorption contrast falls off steeply as the swing shrinks
    /// (paper ref. \[7\]); we model extinction in dB as proportional to swing,
    /// which makes the linear contrast ratio collapse exponentially — this
    /// is why the paper keeps the modulator driver's supply fixed.
    pub fn contrast_at_swing(&self, swing: Volts) -> f64 {
        let ratio = (swing.as_v() / self.nominal_swing.as_v()).clamp(0.0, 1.0);
        let nominal_db = 10.0 * self.contrast_ratio.log10();
        10f64.powf(nominal_db * ratio / 10.0)
    }

    /// Whether a receiver needing `required_cr` can still detect data when
    /// the driver swing is `swing`.
    pub fn swing_supports(&self, swing: Volts, required_cr: f64) -> bool {
        self.contrast_at_swing(swing) >= required_cr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> MqwModulator {
        MqwModulator::ingaas_10g()
    }

    #[test]
    fn energy_conservation_on_state() {
        let input = MicroWatts::from_uw(100.0);
        let t = m().transmitted_on(input);
        let a = m().absorbed_on(input);
        assert!((t.as_uw() + a.as_uw() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn energy_conservation_off_state() {
        let input = MicroWatts::from_uw(100.0);
        let t = m().transmitted_off(input);
        let a = m().absorbed_off(input);
        assert!((t.as_uw() + a.as_uw() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn contrast_ratio_definition() {
        let input = MicroWatts::from_uw(50.0);
        let on = m().transmitted_on(input).as_uw();
        let off = m().transmitted_off(input).as_uw();
        assert!((on / off - 10.0).abs() < 1e-9);
    }

    #[test]
    fn off_state_absorbs_more() {
        let input = MicroWatts::from_uw(100.0);
        assert!(m().absorbed_off(input) > m().absorbed_on(input));
    }

    #[test]
    fn average_power_positive_and_linear_in_light() {
        let p1 = m().average_power(MicroWatts::from_uw(100.0), Volts::from_v(1.8));
        let p2 = m().average_power(MicroWatts::from_uw(200.0), Volts::from_v(1.8));
        assert!(p1.as_mw() > 0.0);
        assert!((p2.as_mw() / p1.as_mw() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn average_power_magnitude_is_small() {
        // With tens of µW of light, dissipation is well under a milliwatt —
        // consistent with the paper treating it as minor next to the driver.
        let p = m().average_power(MicroWatts::from_uw(50.0), Volts::from_v(1.8));
        assert!(p.as_mw() < 1.0, "{p}");
    }

    #[test]
    fn contrast_degrades_with_swing() {
        let full = m().contrast_at_swing(Volts::from_v(1.8));
        let half = m().contrast_at_swing(Volts::from_v(0.9));
        assert!((full - 10.0).abs() < 1e-9);
        // 10 dB → 5 dB extinction: CR drops from 10 to ~3.16
        assert!((half - 10f64.powf(0.5)).abs() < 1e-9);
        assert!(m().swing_supports(Volts::from_v(1.8), 8.0));
        assert!(!m().swing_supports(Volts::from_v(0.9), 8.0));
    }

    #[test]
    fn contrast_never_below_unity() {
        assert!(m().contrast_at_swing(Volts::ZERO) >= 1.0);
    }

    #[test]
    #[should_panic(expected = "contrast ratio")]
    fn bad_contrast_rejected() {
        let _ = MqwModulator::new(0.2, 0.9, 0.8, Volts::from_v(2.5), Volts::from_v(1.8), 1e-13);
    }
}
