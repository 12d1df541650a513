//! Virtual time and RAPL-style energy accounting.
//!
//! The Fig. 5 experiment replays 300 seconds of application time; the
//! [`VirtualClock`] advances by simulated kernel durations so the whole
//! trace costs milliseconds of host time. The [`EnergyMeter`] mimics a
//! RAPL energy counter: monotonically increasing joules.

use serde::{Deserialize, Serialize};

/// A virtual clock measured in seconds since session start.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VirtualClock {
    now_s: f64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current time in seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Advances the clock by a non-negative duration.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or not finite.
    pub fn advance(&mut self, dt_s: f64) {
        assert!(dt_s.is_finite() && dt_s >= 0.0, "bad time step {dt_s}");
        self.now_s += dt_s;
    }
}

/// A monotonically increasing energy counter (joules), RAPL-style.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyMeter {
    total_j: f64,
}

impl EnergyMeter {
    /// A meter at zero joules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total accumulated energy in joules.
    pub fn total_j(&self) -> f64 {
        self.total_j
    }

    /// Accounts `power_w` watts drawn for `dt_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if either argument is negative or not finite.
    pub fn accumulate(&mut self, power_w: f64, dt_s: f64) {
        assert!(power_w.is_finite() && power_w >= 0.0, "bad power {power_w}");
        assert!(dt_s.is_finite() && dt_s >= 0.0, "bad time step {dt_s}");
        self.total_j += power_w * dt_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates() {
        let mut c = VirtualClock::new();
        c.advance(1.5);
        c.advance(0.25);
        assert!((c.now_s() - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bad time step")]
    fn clock_rejects_negative_steps() {
        VirtualClock::new().advance(-1.0);
    }

    #[test]
    fn meter_integrates_power() {
        let mut m = EnergyMeter::new();
        m.accumulate(100.0, 2.0);
        m.accumulate(50.0, 1.0);
        assert!((m.total_j() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn meter_is_monotone() {
        let mut m = EnergyMeter::new();
        let mut last = m.total_j();
        for i in 0..10 {
            m.accumulate(f64::from(i), 0.1);
            assert!(m.total_j() >= last);
            last = m.total_j();
        }
    }
}
