//! Bench power supplies and the board's power-delivery network.
//!
//! The Piton test board can power each of the three rails (VDD, VCS,
//! VIO) from on-board regulators or bench supplies; the paper uses bench
//! supplies everywhere because they offer fine-grained voltage control
//! and **remote voltage sense**, which compensates the drop across
//! cables and board planes so the programmed voltage actually appears at
//! the socket pins (§III-A).
//!
//! # Examples
//!
//! ```
//! use piton_board::supply::BenchSupply;
//! use piton_arch::units::{Amps, Volts};
//!
//! let psu = BenchSupply::with_remote_sense(Volts(1.0));
//! // Remote sense holds the socket at the setpoint regardless of load.
//! assert_eq!(psu.pin_voltage(Amps(2.0)), Volts(1.0));
//! ```

use piton_arch::units::{Amps, Ohms, Volts};

/// One bench power supply channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchSupply {
    setpoint: Volts,
    remote_sense: bool,
    /// Cable + board plane resistance between supply and socket.
    cable_resistance: Ohms,
}

impl BenchSupply {
    /// A supply with remote sense (the measurement configuration).
    #[must_use]
    pub fn with_remote_sense(setpoint: Volts) -> Self {
        Self {
            setpoint,
            remote_sense: true,
            cable_resistance: Ohms(0.015),
        }
    }

    /// A supply without remote sense (the on-board-regulator fallback).
    #[must_use]
    pub fn without_remote_sense(setpoint: Volts, cable_resistance: Ohms) -> Self {
        Self {
            setpoint,
            remote_sense: false,
            cable_resistance,
        }
    }

    /// The programmed voltage.
    #[must_use]
    pub fn setpoint(&self) -> Volts {
        self.setpoint
    }

    /// Reprograms the output voltage.
    pub fn set_voltage(&mut self, v: Volts) {
        self.setpoint = v;
    }

    /// Whether remote sense is wired.
    #[must_use]
    pub fn has_remote_sense(&self) -> bool {
        self.remote_sense
    }

    /// Voltage at the socket pins while drawing `current`.
    ///
    /// With remote sense the supply regulates the *sense point* to the
    /// setpoint; without it, cable IR drop subtracts from the pins.
    #[must_use]
    pub fn pin_voltage(&self, current: Amps) -> Volts {
        if self.remote_sense {
            self.setpoint
        } else {
            self.setpoint - current * self.cable_resistance
        }
    }
}

/// The three supply channels of the test board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerRails {
    /// Core rail.
    pub vdd: BenchSupply,
    /// SRAM rail.
    pub vcs: BenchSupply,
    /// I/O rail.
    pub vio: BenchSupply,
}

impl PowerRails {
    /// The Table III default rails, bench-supplied with remote sense.
    #[must_use]
    pub fn table_iii() -> Self {
        Self {
            vdd: BenchSupply::with_remote_sense(Volts(1.00)),
            vcs: BenchSupply::with_remote_sense(Volts(1.05)),
            vio: BenchSupply::with_remote_sense(Volts(1.80)),
        }
    }

    /// Programs VDD and tracks `VCS = VDD + 0.05 V` (the paper's sweep
    /// convention).
    pub fn set_vdd_tracked(&mut self, vdd: Volts) {
        self.vdd.set_voltage(vdd);
        self.vcs.set_voltage(Volts(vdd.0 + 0.05));
    }
}

impl Default for PowerRails {
    fn default() -> Self {
        Self::table_iii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_sense_cancels_cable_drop() {
        let psu = BenchSupply::with_remote_sense(Volts(0.9));
        assert_eq!(psu.pin_voltage(Amps(0.0)), Volts(0.9));
        assert_eq!(psu.pin_voltage(Amps(3.0)), Volts(0.9));
        assert!(psu.has_remote_sense());
    }

    #[test]
    fn without_remote_sense_pins_sag_under_load() {
        let psu = BenchSupply::without_remote_sense(Volts(1.0), Ohms(0.02));
        let loaded = psu.pin_voltage(Amps(2.0));
        assert!((loaded.0 - 0.96).abs() < 1e-12);
    }

    #[test]
    fn tracked_vcs_follows_vdd() {
        let mut rails = PowerRails::table_iii();
        rails.set_vdd_tracked(Volts(0.8));
        assert_eq!(rails.vdd.setpoint(), Volts(0.8));
        assert!((rails.vcs.setpoint().0 - 0.85).abs() < 1e-12);
        // VIO untouched.
        assert_eq!(rails.vio.setpoint(), Volts(1.8));
    }
}
