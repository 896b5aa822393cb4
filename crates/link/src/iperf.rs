//! iperf-style throughput measurement.
//!
//! The paper measures "for every 50 ms time window ... the average
//! throughput (using iperf) as well as the linear speed (using VRH-T
//! reports)" (§5.3). [`windows_50ms`] reproduces that over a session's
//! per-slot records.

use crate::engine::EngineSlot;

/// One of the paper's 50 ms measurement windows.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Mean linear speed (m/s).
    pub lin: f64,
    /// Mean angular speed (rad/s).
    pub ang: f64,
    /// Mean goodput (Gbps).
    pub goodput: f64,
    /// Minimum received power (dBm).
    pub min_power: f64,
    /// Fraction of slots with the SFP link up.
    pub up_frac: f64,
    /// Fraction of slots where optical signal was present but the SFP was
    /// still re-locking — the §5.3 "takes a few seconds to regain the link"
    /// deadtime, which the paper's plots show as recovery gaps.
    pub relink_frac: f64,
}

/// Aggregates slot records into the paper's 50 ms windows.
///
/// An empty record list yields no windows, and a trailing partial window
/// (fewer than 50 ms of slots) is dropped rather than averaged over a
/// shorter denominator — both pinned by unit tests.
pub fn windows_50ms(records: &[EngineSlot], slot_s: f64, sensitivity_dbm: f64) -> Vec<Window> {
    assert!(
        slot_s > 0.0 && slot_s <= 0.050,
        "slots must fit inside the 50 ms window"
    );
    let per = (0.050 / slot_s).round() as usize;
    records
        .chunks(per)
        .filter(|c| c.len() == per)
        .map(|c| {
            let n = c.len() as f64;
            let lin = c.iter().map(|r| r.lin_speed).sum::<f64>() / n;
            let ang = c.iter().map(|r| r.ang_speed).sum::<f64>() / n;
            let tp = c.iter().map(|r| r.goodput_gbps).sum::<f64>() / n;
            let pmin = c.iter().map(|r| r.power_dbm).fold(f64::INFINITY, f64::min);
            let up = c.iter().filter(|r| r.link_up).count() as f64 / n;
            let relink = c
                .iter()
                .filter(|r| !r.link_up && r.power_dbm >= sensitivity_dbm)
                .count() as f64
                / n;
            Window {
                lin,
                ang,
                goodput: tp,
                min_power: pmin,
                up_frac: up,
                relink_frac: relink,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` 1 ms slots with goodput `gbps(i)` and link-up iff it is nonzero.
    fn slots(n: usize, gbps: impl Fn(usize) -> f64) -> Vec<EngineSlot> {
        (0..n)
            .map(|i| EngineSlot {
                t: (i + 1) as f64 * 1e-3,
                active: 0,
                los: true,
                power_dbm: -20.0,
                link_up: gbps(i) > 0.0,
                rf_active: false,
                goodput_gbps: gbps(i),
                lin_speed: 0.1,
                ang_speed: 0.2,
            })
            .collect()
    }

    #[test]
    fn constant_rate_measures_exactly() {
        // 9.4 Gbps for one second in 1 ms slots.
        let w = windows_50ms(&slots(1000, |_| 9.4), 1e-3, -25.0);
        assert_eq!(w.len(), 20);
        for w in &w {
            assert!((w.goodput - 9.4).abs() < 1e-9, "window {w:?}");
        }
    }

    #[test]
    fn outage_shows_as_zero_windows() {
        // A 100 ms outage in the middle of 200 ms.
        let recs = slots(200, |i| if (50..150).contains(&i) { 0.0 } else { 1.0 });
        let w = windows_50ms(&recs, 1e-3, -25.0);
        assert_eq!(w.len(), 4);
        assert!(w[0].goodput > 0.9 && w[3].goodput > 0.9);
        assert!(w[1].goodput < 1e-9 && w[2].goodput < 1e-9);
    }

    #[test]
    fn windows_aggregate_correctly() {
        // The second window is a relink window.
        let recs = slots(100, |i| if i < 50 { 9.4 } else { 0.0 });
        let w = windows_50ms(&recs, 1e-3, -25.0);
        assert_eq!(w.len(), 2);
        assert!((w[0].lin - 0.1).abs() < 1e-12);
        assert!((w[0].ang - 0.2).abs() < 1e-12);
        assert!((w[0].goodput - 9.4).abs() < 1e-12);
        assert!((w[0].min_power + 20.0).abs() < 1e-12);
        assert!((w[0].up_frac - 1.0).abs() < 1e-12);
        assert_eq!(w[0].relink_frac, 0.0);
        // Second window: signal present (−20 ≥ −25) but link down → relink.
        assert!((w[1].relink_frac - 1.0).abs() < 1e-12);
        assert_eq!(w[1].up_frac, 0.0);
    }

    #[test]
    fn windows_of_empty_records_are_empty() {
        assert!(windows_50ms(&[], 1e-3, -25.0).is_empty());
    }

    #[test]
    fn windows_drop_trailing_partial_window() {
        // 80 slots at 1 ms = one full 50 ms window + 30 leftover slots: the
        // partial tail must be dropped, not averaged over a short window.
        let recs = slots(80, |_| 9.4);
        let w = windows_50ms(&recs, 1e-3, -25.0);
        assert_eq!(w.len(), 1);
        // Exactly one full window must also survive intact.
        let w = windows_50ms(&recs[..50], 1e-3, -25.0);
        assert_eq!(w.len(), 1);
        // And fewer slots than one window yields nothing.
        let w = windows_50ms(&recs[..49], 1e-3, -25.0);
        assert!(w.is_empty());
    }
}
