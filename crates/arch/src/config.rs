//! Architectural and experimental configuration.
//!
//! [`ChipConfig`] mirrors Table I of the paper (the Piton parameter
//! summary), [`SystemFrequencies`] mirrors Table II (experimental system
//! interface frequencies), and [`MeasurementDefaults`] mirrors Table III
//! (the default supply voltages and core clock used for every study
//! unless stated otherwise).
//!
//! # Examples
//!
//! ```
//! use piton_arch::config::{ChipConfig, MeasurementDefaults};
//!
//! let cfg = ChipConfig::default();
//! assert_eq!(cfg.l2.size_bytes * cfg.tile_count() as u64, 1_638_400); // 1.6 MB aggregate
//!
//! let defaults = MeasurementDefaults::default();
//! assert!((defaults.core_clock.as_mhz() - 500.05).abs() < 1e-9);
//! ```

use crate::topology::Mesh;
use crate::units::{Hertz, Volts};

/// Geometry of one cache in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Creates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics unless size, associativity and line size are non-zero,
    /// powers of two where required, and consistent (`size` divisible by
    /// `associativity * line`).
    #[must_use]
    pub fn new(size_bytes: u64, associativity: u64, line_bytes: u64) -> Self {
        assert!(size_bytes > 0 && associativity > 0 && line_bytes > 0);
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert_eq!(
            size_bytes % (associativity * line_bytes),
            0,
            "cache size must divide evenly into sets"
        );
        let sets = size_bytes / (associativity * line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            size_bytes,
            associativity,
            line_bytes,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.associativity * self.line_bytes)
    }

    /// Number of lines.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }
}

/// Which address bits select the L2 slice a line maps to.
///
/// §IV-F: "modifying the line to L2 slice mapping, which is configurable
/// to the low, middle, or high order address bits through software". The
/// memory-system energy experiment uses this to steer loads at a local or
/// a remote L2 slice.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceMapping {
    /// Address bits just above the line offset (the default).
    #[default]
    Low,
    /// Middle-order address bits.
    Mid,
    /// High-order address bits.
    High,
}

/// The complete architectural parameter set of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// Process name (informational).
    pub process: String,
    /// Die edge in millimetres (the die is square: 6 mm × 6 mm).
    pub die_edge_mm: f64,
    /// Transistor count (informational, "> 460 million").
    pub transistor_count: u64,
    /// Nominal core supply voltage (VDD).
    pub nominal_vdd: Volts,
    /// Nominal SRAM supply voltage (VCS).
    pub nominal_vcs: Volts,
    /// Nominal I/O supply voltage (VIO).
    pub nominal_vio: Volts,
    /// Off-chip interface width in bits, each direction.
    pub off_chip_width_bits: u32,
    /// Tile mesh.
    mesh: Mesh,
    /// Number of physical NoCs.
    pub noc_count: u32,
    /// NoC flit width in bits, each direction.
    pub noc_width_bits: u32,
    /// Hardware threads per core.
    pub threads_per_core: u32,
    /// Core pipeline depth in stages.
    pub pipeline_depth: u32,
    /// Store buffer entries per core.
    pub store_buffer_entries: u32,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache (write-through).
    pub l1d: CacheConfig,
    /// L1.5 data cache (write-back, private).
    pub l15: CacheConfig,
    /// One L2 slice (per tile; distributed shared).
    pub l2: CacheConfig,
    /// Line-to-L2-slice mapping mode.
    pub slice_mapping: SliceMapping,
}

impl ChipConfig {
    /// The Piton configuration of Table I.
    #[must_use]
    pub fn piton() -> Self {
        Self {
            process: "IBM 32nm SOI".to_owned(),
            die_edge_mm: 6.0,
            transistor_count: 460_000_000,
            nominal_vdd: Volts(1.0),
            nominal_vcs: Volts(1.05),
            nominal_vio: Volts(1.8),
            off_chip_width_bits: 32,
            mesh: Mesh::piton(),
            noc_count: 3,
            noc_width_bits: 64,
            threads_per_core: 2,
            pipeline_depth: 6,
            store_buffer_entries: 8,
            l1i: CacheConfig::new(16 * 1024, 4, 32),
            l1d: CacheConfig::new(8 * 1024, 4, 16),
            l15: CacheConfig::new(8 * 1024, 4, 16),
            l2: CacheConfig::new(64 * 1024, 4, 64),
            slice_mapping: SliceMapping::Low,
        }
    }

    /// The tile mesh topology.
    #[must_use]
    pub fn topology(&self) -> &Mesh {
        &self.mesh
    }

    /// Number of tiles (= cores; one core per tile).
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.mesh.tile_count()
    }

    /// Total hardware thread count (50 for Piton).
    #[must_use]
    pub fn total_thread_count(&self) -> usize {
        self.tile_count() * self.threads_per_core as usize
    }

    /// Aggregate L2 capacity per chip in bytes (1.6 MB for Piton).
    #[must_use]
    pub fn l2_total_bytes(&self) -> u64 {
        self.l2.size_bytes * self.tile_count() as u64
    }

    /// Die area in square millimetres (36 mm² for Piton).
    #[must_use]
    pub fn die_area_mm2(&self) -> f64 {
        self.die_edge_mm * self.die_edge_mm
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::piton()
    }
}

/// Interface frequencies of the experimental system (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemFrequencies {
    /// Gateway FPGA ↔ Piton link.
    pub gateway_to_piton: Hertz,
    /// Gateway FPGA ↔ FMC ↔ chipset FPGA link.
    pub gateway_to_chipset: Hertz,
    /// Chipset FPGA logic clock.
    pub chipset_logic: Hertz,
    /// DDR3 PHY clock (800 MHz → 1600 MT/s).
    pub dram_phy: Hertz,
    /// DDR3 DRAM controller clock.
    pub dram_controller: Hertz,
    /// SD-card SPI clock.
    pub sd_spi: Hertz,
    /// UART baud rate in bits per second.
    pub uart_bps: u64,
}

impl SystemFrequencies {
    /// The values of Table II.
    #[must_use]
    pub fn piton_system() -> Self {
        Self {
            gateway_to_piton: Hertz::from_mhz(180.0),
            gateway_to_chipset: Hertz::from_mhz(180.0),
            chipset_logic: Hertz::from_mhz(280.0),
            dram_phy: Hertz::from_mhz(800.0),
            dram_controller: Hertz::from_mhz(200.0),
            sd_spi: Hertz::from_mhz(20.0),
            uart_bps: 115_200,
        }
    }
}

impl Default for SystemFrequencies {
    fn default() -> Self {
        Self::piton_system()
    }
}

/// Default Piton measurement parameters (Table III).
///
/// Every study in §IV runs at this operating point at room temperature
/// unless it states otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementDefaults {
    /// Core supply voltage.
    pub vdd: Volts,
    /// SRAM supply voltage.
    pub vcs: Volts,
    /// I/O supply voltage.
    pub vio: Volts,
    /// Core clock frequency.
    pub core_clock: Hertz,
    /// Ambient (room) temperature.
    pub ambient_c: f64,
}

impl MeasurementDefaults {
    /// The values of Table III (room temperature per §IV-J: 20.0 °C).
    #[must_use]
    pub fn table_iii() -> Self {
        Self {
            vdd: Volts(1.00),
            vcs: Volts(1.05),
            vio: Volts(1.80),
            core_clock: Hertz::from_mhz(500.05),
            ambient_c: 20.0,
        }
    }

    /// The paper's convention for sweeps: `VCS = VDD + 0.05 V`.
    #[must_use]
    pub fn vcs_for(vdd: Volts) -> Volts {
        Volts(vdd.0 + 0.05)
    }
}

impl Default for MeasurementDefaults {
    fn default() -> Self {
        Self::table_iii()
    }
}

/// Which experiment engine produces a run's numbers.
///
/// The cycle backend drives the bit-deterministic simulator through the
/// virtual bench (the historical, oracle path); the analytic backend
/// evaluates a closed-form model calibrated against cycle-level runs;
/// `Both` runs the two on the same grid and reports their disagreement.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Cycle-level simulation through the virtual bench (default).
    #[default]
    Cycle,
    /// Closed-form analytic model, calibrated against the cycle engine.
    Analytic,
    /// Both engines on the same grid, with a cross-backend error table.
    Both,
}

impl Backend {
    /// Stable lower-case label used in CLI flags, journal context
    /// strings and run manifests.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Cycle => "cycle",
            Self::Analytic => "analytic",
            Self::Both => "both",
        }
    }

    /// Parses a CLI/label spelling; the error lists the accepted forms.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "cycle" => Ok(Self::Cycle),
            "analytic" => Ok(Self::Analytic),
            "both" => Ok(Self::Both),
            other => Err(format!(
                "unknown backend {other:?}: expected cycle, analytic or both"
            )),
        }
    }

    /// Whether this backend runs the cycle-level engine.
    #[must_use]
    pub fn runs_cycle(self) -> bool {
        matches!(self, Self::Cycle | Self::Both)
    }

    /// Whether this backend runs the analytic model.
    #[must_use]
    pub fn runs_analytic(self) -> bool {
        matches!(self, Self::Analytic | Self::Both)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_parameters() {
        let c = ChipConfig::piton();
        assert_eq!(c.tile_count(), 25);
        assert_eq!(c.total_thread_count(), 50);
        assert_eq!(c.noc_count, 3);
        assert_eq!(c.noc_width_bits, 64);
        assert_eq!(c.pipeline_depth, 6);
        assert_eq!(c.threads_per_core, 2);
        assert!((c.die_area_mm2() - 36.0).abs() < 1e-12);
        assert_eq!(c.l1i.size_bytes, 16 * 1024);
        assert_eq!(c.l1i.associativity, 4);
        assert_eq!(c.l1i.line_bytes, 32);
        assert_eq!(c.l1d.size_bytes, 8 * 1024);
        assert_eq!(c.l1d.line_bytes, 16);
        assert_eq!(c.l15.size_bytes, 8 * 1024);
        assert_eq!(c.l2.size_bytes, 64 * 1024);
        assert_eq!(c.l2.line_bytes, 64);
        // 1.6 MB aggregate L2.
        assert_eq!(c.l2_total_bytes(), 1_638_400);
    }

    #[test]
    fn cache_set_arithmetic() {
        let l1d = CacheConfig::new(8 * 1024, 4, 16);
        assert_eq!(l1d.sets(), 128);
        assert_eq!(l1d.lines(), 512);
        let l2 = CacheConfig::new(64 * 1024, 4, 64);
        assert_eq!(l2.sets(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = CacheConfig::new(8 * 1024, 4, 24);
    }

    #[test]
    fn table_ii_frequencies() {
        let f = SystemFrequencies::piton_system();
        assert!((f.gateway_to_piton.as_mhz() - 180.0).abs() < 1e-9);
        assert!((f.chipset_logic.as_mhz() - 280.0).abs() < 1e-9);
        assert!((f.dram_phy.as_mhz() - 800.0).abs() < 1e-9);
        assert_eq!(f.uart_bps, 115_200);
    }

    #[test]
    fn table_iii_defaults() {
        let d = MeasurementDefaults::table_iii();
        assert_eq!(d.vdd, Volts(1.0));
        assert_eq!(d.vcs, Volts(1.05));
        assert_eq!(d.vio, Volts(1.8));
        assert!((d.core_clock.as_mhz() - 500.05).abs() < 1e-9);
    }

    #[test]
    fn vcs_tracks_vdd_plus_50mv() {
        let vcs = MeasurementDefaults::vcs_for(Volts(0.8));
        assert!((vcs.0 - 0.85).abs() < 1e-12);
    }

    #[test]
    fn backend_labels_round_trip() {
        for b in [Backend::Cycle, Backend::Analytic, Backend::Both] {
            assert_eq!(Backend::parse(b.label()), Ok(b));
        }
        assert!(Backend::parse("fast").is_err());
        assert_eq!(Backend::default(), Backend::Cycle);
        assert!(Backend::Both.runs_cycle() && Backend::Both.runs_analytic());
        assert!(!Backend::Analytic.runs_cycle());
        assert!(!Backend::Cycle.runs_analytic());
    }
}
