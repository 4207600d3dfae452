//! Paper-calibrated link configurations (0.18 µm CMOS, Table 2).
//!
//! These presets reproduce the paper's component powers at the 10 Gb/s /
//! 1.8 V operating point and their Table-2 scaling trends:
//!
//! | Component        | Power (mW) | Trend      |
//! |------------------|-----------:|------------|
//! | VCSEL            |         30 | ∼ Vdd      |
//! | VCSEL driver     |         10 | Vdd² · BR  |
//! | Modulator driver |         40 | BR         |
//! | TIA              |        100 | Vdd · BR   |
//! | CDR              |        150 | Vdd² · BR  |
//!
//! Both transmitter stacks total 290 mW per unidirectional link at full
//! rate (Tx ≈ 40 mW, Rx = 250 mW).

use crate::link::{
    CalibratedComponent, ComponentId, LinkPowerModel, OperatingPoint, TransmitterKind,
};
use crate::scaling::ScalingTrend;
use crate::units::MilliWatts;

/// Table 2 power: VCSEL laser, 30 mW.
pub const VCSEL_MW: f64 = 30.0;
/// Table 2 power: VCSEL driver, 10 mW.
pub const VCSEL_DRIVER_MW: f64 = 10.0;
/// Table 2 power: modulator driver, 40 mW.
pub const MODULATOR_DRIVER_MW: f64 = 40.0;
/// Table 2 power: TIA, 100 mW.
pub const TIA_MW: f64 = 100.0;
/// Table 2 power: CDR, 150 mW.
pub const CDR_MW: f64 = 150.0;

/// The paper's VCSEL-based link: laser + driver + TIA + CDR, 290 mW at
/// 10 Gb/s / 1.8 V, with Table 2 scaling trends.
pub fn paper_vcsel_link() -> LinkPowerModel {
    LinkPowerModel::new(
        TransmitterKind::Vcsel,
        OperatingPoint::paper_max(),
        vec![
            CalibratedComponent::new(
                ComponentId::Vcsel,
                MilliWatts::from_mw(VCSEL_MW),
                ScalingTrend::Vdd,
            ),
            CalibratedComponent::new(
                ComponentId::VcselDriver,
                MilliWatts::from_mw(VCSEL_DRIVER_MW),
                ScalingTrend::Vdd2Br,
            ),
            CalibratedComponent::new(
                ComponentId::Tia,
                MilliWatts::from_mw(TIA_MW),
                ScalingTrend::VddBr,
            ),
            CalibratedComponent::new(
                ComponentId::Cdr,
                MilliWatts::from_mw(CDR_MW),
                ScalingTrend::Vdd2Br,
            ),
        ],
    )
}

/// The paper's MQW-modulator-based link: modulator driver (fixed supply,
/// bit-rate-only scaling) + TIA + CDR, 290 mW at 10 Gb/s.
pub fn paper_modulator_link() -> LinkPowerModel {
    LinkPowerModel::new(
        TransmitterKind::MqwModulator,
        OperatingPoint::paper_max(),
        vec![
            CalibratedComponent::new(
                ComponentId::ModulatorDriver,
                MilliWatts::from_mw(MODULATOR_DRIVER_MW),
                ScalingTrend::Br,
            ),
            CalibratedComponent::new(
                ComponentId::Tia,
                MilliWatts::from_mw(TIA_MW),
                ScalingTrend::VddBr,
            ),
            CalibratedComponent::new(
                ComponentId::Cdr,
                MilliWatts::from_mw(CDR_MW),
                ScalingTrend::Vdd2Br,
            ),
        ],
    )
}

/// The link model for a given transmitter technology.
pub fn paper_link(kind: TransmitterKind) -> LinkPowerModel {
    match kind {
        TransmitterKind::Vcsel => paper_vcsel_link(),
        TransmitterKind::MqwModulator => paper_modulator_link(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_stacks_total_290() {
        assert!((paper_vcsel_link().max_power().as_mw() - 290.0).abs() < 1e-9);
        assert!((paper_modulator_link().max_power().as_mw() - 290.0).abs() < 1e-9);
    }

    #[test]
    fn tx_rx_split_matches_paper() {
        // Paper §4.1: transmitter ≈40 mW, receiver ≈250 mW.
        let link = paper_vcsel_link();
        let op = OperatingPoint::paper_max();
        let tx = link.component_power(ComponentId::Vcsel, op).unwrap()
            + link.component_power(ComponentId::VcselDriver, op).unwrap();
        let rx = link.component_power(ComponentId::Tia, op).unwrap()
            + link.component_power(ComponentId::Cdr, op).unwrap();
        assert!((tx.as_mw() - 40.0).abs() < 1e-9);
        assert!((rx.as_mw() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn paper_link_dispatch() {
        assert_eq!(
            paper_link(TransmitterKind::Vcsel).transmitter(),
            TransmitterKind::Vcsel
        );
        assert_eq!(
            paper_link(TransmitterKind::MqwModulator).transmitter(),
            TransmitterKind::MqwModulator
        );
    }
}
