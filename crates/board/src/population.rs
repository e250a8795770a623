//! The chip population: process variation, defects, and yield.
//!
//! The paper received 118 Piton die from a two-wafer multi-project run,
//! packaged 45, and tested a random selection of 32, classifying them as
//! (Table IV): 19 good, 7 deterministically unstable (bad SRAM cells,
//! possibly repairable by row/column remap), 4 bad with high VCS current
//! (short), 1 bad with high VDD current (short), and 1
//! nondeterministically unstable (marginal SRAM cells).
//!
//! This module generates a seeded synthetic population with per-die
//! process corners (speed/leakage/dynamic multipliers, correlated the
//! way real silicon is: fast dies leak more) and defect classes drawn at
//! the empirical Table IV rates. The three *named* chips of the paper
//! are fixed corners: Chip #1 fast-but-leaky (thermally limited at high
//! voltage in Figure 9), Chip #2 typical (used for most studies), and
//! Chip #3 slightly slow and cool (used for the microbenchmarks, with
//! its own Table V row: 364.8 mW static, 1906.2 mW idle).

use piton_arch::error::PitonError;
use piton_power::model::ChipCorner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Health classification of one tested die (Table IV rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipStatus {
    /// Stable operation.
    Good,
    /// Consistently fails deterministically — bad SRAM cells, possibly
    /// fixable with SRAM row/column repair.
    UnstableDeterministic,
    /// High VCS current draw — likely short.
    BadVcsShort,
    /// High VDD current draw — likely short.
    BadVddShort,
    /// Consistently fails nondeterministically — unstable SRAM cells.
    UnstableNondeterministic,
}

impl ChipStatus {
    /// All classes in Table IV row order.
    pub const ALL: [ChipStatus; 5] = [
        ChipStatus::Good,
        ChipStatus::UnstableDeterministic,
        ChipStatus::BadVcsShort,
        ChipStatus::BadVddShort,
        ChipStatus::UnstableNondeterministic,
    ];

    /// The symptom column of Table IV.
    #[must_use]
    pub fn symptom(self) -> &'static str {
        match self {
            ChipStatus::Good => "Stable operation",
            ChipStatus::UnstableDeterministic => "Consistently fails deterministically",
            ChipStatus::BadVcsShort => "High VCS current draw",
            ChipStatus::BadVddShort => "High VDD current draw",
            ChipStatus::UnstableNondeterministic => "Consistently fails nondeterministically",
        }
    }

    /// The possible-cause column of Table IV.
    #[must_use]
    pub fn possible_cause(self) -> &'static str {
        match self {
            ChipStatus::Good => "N/A",
            ChipStatus::UnstableDeterministic => "Bad SRAM cells",
            ChipStatus::BadVcsShort | ChipStatus::BadVddShort => "Short",
            ChipStatus::UnstableNondeterministic => "Unstable SRAM cells",
        }
    }

    /// Whether the die is usable for characterization (only stable,
    /// fully-functional chips are, §IV-A).
    #[must_use]
    pub fn is_usable(self) -> bool {
        self == ChipStatus::Good
    }
}

/// One physical die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Die {
    /// Die serial (position in the population).
    pub serial: u32,
    /// Process corner.
    pub corner: ChipCorner,
    /// Health classification, determined at test time.
    pub status: ChipStatus,
    /// Whether this die was packaged (45 of 118 were).
    pub packaged: bool,
}

impl Die {
    /// Which cores this die's defects fuse off (bit *i* = tile *i*),
    /// mapping the Table IV classes onto degraded-but-runnable machines
    /// the way the paper ran chips with faulty cores as 24-core parts
    /// (the core is disabled, its router still forwards):
    ///
    /// * `Good` — nothing fused off;
    /// * `UnstableDeterministic` — one or two cores with bad SRAM
    ///   cells, chosen deterministically from the serial;
    /// * `UnstableNondeterministic` — one marginal core;
    /// * rail shorts — the whole array is unusable.
    #[must_use]
    pub fn faulty_core_mask(&self) -> u32 {
        const ALL_25: u32 = (1 << 25) - 1;
        // SplitMix64 finalizer on the serial: deterministic per die,
        // decorrelated across serials.
        let mut z = u64::from(self.serial).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let first = 1u32 << (z % 25);
        let second = 1u32 << ((z >> 32) % 25);
        match self.status {
            ChipStatus::Good => 0,
            ChipStatus::UnstableNondeterministic => first,
            // One bad SRAM macro usually takes out one core; sometimes
            // the defect spans two.
            ChipStatus::UnstableDeterministic => first | second,
            ChipStatus::BadVcsShort | ChipStatus::BadVddShort => ALL_25,
        }
    }
}

/// The named reference chips of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedChip {
    /// Fast but leaky; thermally limited at high VDD (Figure 9).
    Chip1,
    /// Typical; used for all default-parameter studies (Table V).
    Chip2,
    /// Slightly slow and cool; used for the microbenchmark studies.
    Chip3,
}

impl NamedChip {
    /// The fitted process corner of the named die.
    #[must_use]
    pub fn corner(self) -> ChipCorner {
        match self {
            NamedChip::Chip1 => ChipCorner {
                speed: 1.06,
                leakage: 1.45,
                dynamic: 1.12,
            },
            NamedChip::Chip2 => ChipCorner {
                speed: 1.0,
                leakage: 1.0,
                dynamic: 1.0,
            },
            // Chip #3: static 364.8/389.3 ≈ 0.937, idle dynamic
            // (1906.2-364.8)/(2015.3-389.3) ≈ 0.948.
            NamedChip::Chip3 => ChipCorner {
                speed: 0.99,
                leakage: 0.937,
                dynamic: 0.948,
            },
        }
    }
}

/// Empirical defect rates of the Table IV test campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectRates {
    /// P(deterministically bad SRAM cells).
    pub sram_bad: f64,
    /// P(VCS short).
    pub vcs_short: f64,
    /// P(VDD short).
    pub vdd_short: f64,
    /// P(marginal SRAM cells).
    pub sram_marginal: f64,
}

impl DefectRates {
    /// The rates observed in Table IV (7, 4, 1, 1 of 32).
    #[must_use]
    pub fn table_iv() -> Self {
        Self {
            sram_bad: 7.0 / 32.0,
            vcs_short: 4.0 / 32.0,
            vdd_short: 1.0 / 32.0,
            sram_marginal: 1.0 / 32.0,
        }
    }
}

/// A seeded synthetic wafer population.
#[derive(Debug, Clone)]
pub struct ChipPopulation {
    dies: Vec<Die>,
}

impl ChipPopulation {
    /// Generates the paper's population: `total` dies, the first
    /// `packaged` of them packaged, with Table IV defect rates.
    #[must_use]
    pub fn generate(total: u32, packaged: u32, rates: DefectRates, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dies = (0..total)
            .map(|serial| {
                // Correlated process variation: one "global speed" draw;
                // leakage rises superlinearly with speed, dynamic mildly.
                let z: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
                let speed = 1.0 + 0.04 * z;
                let leakage = (1.0 + 0.25 * z + 0.05 * rng.gen_range(-1.0..1.0)).max(0.5);
                let dynamic = 1.0 + 0.06 * z + 0.02 * rng.gen_range(-1.0..1.0);

                let roll: f64 = rng.gen_range(0.0..1.0);
                let status = if roll < rates.vdd_short {
                    ChipStatus::BadVddShort
                } else if roll < rates.vdd_short + rates.vcs_short {
                    ChipStatus::BadVcsShort
                } else if roll < rates.vdd_short + rates.vcs_short + rates.sram_bad {
                    ChipStatus::UnstableDeterministic
                } else if roll
                    < rates.vdd_short + rates.vcs_short + rates.sram_bad + rates.sram_marginal
                {
                    ChipStatus::UnstableNondeterministic
                } else {
                    ChipStatus::Good
                };
                Die {
                    serial,
                    corner: ChipCorner {
                        speed,
                        leakage,
                        dynamic,
                    },
                    status,
                    packaged: serial < packaged,
                }
            })
            .collect();
        Self { dies }
    }

    /// The paper's wafer run: 118 dies, 45 packaged, Table IV rates.
    ///
    /// The seed is chosen so that testing the default 32-chip selection
    /// reproduces the exact Table IV counts (19/7/4/1/1).
    #[must_use]
    pub fn piton_run() -> Self {
        Self::generate(118, 45, DefectRates::table_iv(), PITON_RUN_SEED)
    }

    /// All dies.
    #[must_use]
    pub fn dies(&self) -> &[Die] {
        &self.dies
    }

    /// The packaged dies.
    pub fn packaged(&self) -> impl Iterator<Item = &Die> {
        self.dies.iter().filter(|d| d.packaged)
    }

    /// Tests the first `n` packaged chips (the paper's random selection
    /// of 32), returning the count per Table IV class.
    #[must_use]
    pub fn test_campaign(&self, n: usize) -> YieldCounts {
        let mut counts = YieldCounts::default();
        for die in self.packaged().take(n) {
            counts.record(die.status);
        }
        counts
    }

    /// Re-runs the campaign assuming the SRAM row/column repair flow
    /// (§IV-A: "Piton has the ability to remap rows and columns in
    /// SRAMs to repair such errors, but a repair flow is still in
    /// development"). Deterministically-failing SRAM defects repair
    /// with probability `success_rate`; marginal cells and shorts do
    /// not. Returns the post-repair counts.
    #[must_use]
    pub fn repair_campaign(&self, n: usize, success_rate: f64, seed: u64) -> YieldCounts {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = YieldCounts::default();
        for die in self.packaged().take(n) {
            let status = match die.status {
                ChipStatus::UnstableDeterministic if rng.gen_range(0.0..1.0) < success_rate => {
                    ChipStatus::Good
                }
                s => s,
            };
            counts.record(status);
        }
        counts
    }
}

/// Yield counts per class (the Table IV numbers).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct YieldCounts {
    /// Stable, fully functional.
    pub good: u32,
    /// Deterministically unstable (bad SRAM cells).
    pub unstable_deterministic: u32,
    /// High VCS current.
    pub bad_vcs_short: u32,
    /// High VDD current.
    pub bad_vdd_short: u32,
    /// Nondeterministically unstable.
    pub unstable_nondeterministic: u32,
}

impl YieldCounts {
    fn record(&mut self, s: ChipStatus) {
        match s {
            ChipStatus::Good => self.good += 1,
            ChipStatus::UnstableDeterministic => self.unstable_deterministic += 1,
            ChipStatus::BadVcsShort => self.bad_vcs_short += 1,
            ChipStatus::BadVddShort => self.bad_vdd_short += 1,
            ChipStatus::UnstableNondeterministic => self.unstable_nondeterministic += 1,
        }
    }

    /// Total chips tested.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.good
            + self.unstable_deterministic
            + self.bad_vcs_short
            + self.bad_vdd_short
            + self.unstable_nondeterministic
    }

    /// Percentage of the total for one class count.
    #[must_use]
    pub fn percent(&self, count: u32) -> f64 {
        100.0 * f64::from(count) / f64::from(self.total())
    }
}

/// Seed reproducing the exact Table IV counts for the default
/// 32-chip campaign (found by search; see the `seed_reproduces_table_iv`
/// test).
pub const PITON_RUN_SEED: u64 = 132;

/// Searches `range` for a population seed whose default 32-chip
/// campaign reproduces the exact Table IV counts (19/7/4/1/1). This is
/// how [`PITON_RUN_SEED`] was found.
///
/// # Errors
///
/// [`PitonError::SeedNotFound`] naming the exhausted range.
pub fn find_table_iv_seed(range: std::ops::Range<u64>) -> Result<u64, PitonError> {
    let (lo, hi) = (range.start, range.end);
    for seed in range {
        let pop = ChipPopulation::generate(118, 45, DefectRates::table_iv(), seed);
        let c = pop.test_campaign(32);
        if (
            c.good,
            c.unstable_deterministic,
            c.bad_vcs_short,
            c.bad_vdd_short,
            c.unstable_nondeterministic,
        ) == (19, 7, 4, 1, 1)
        {
            return Ok(seed);
        }
    }
    Err(PitonError::SeedNotFound { lo, hi })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_chip_corners_are_ordered() {
        let c1 = NamedChip::Chip1.corner();
        let c2 = NamedChip::Chip2.corner();
        let c3 = NamedChip::Chip3.corner();
        assert!(c1.speed > c2.speed && c2.speed > c3.speed);
        assert!(c1.leakage > c2.leakage && c2.leakage > c3.leakage);
    }

    #[test]
    fn population_sizes_match_the_run() {
        let pop = ChipPopulation::piton_run();
        assert_eq!(pop.dies().len(), 118);
        assert_eq!(pop.packaged().count(), 45);
    }

    #[test]
    fn seed_reproduces_table_iv() {
        let counts = ChipPopulation::piton_run().test_campaign(32);
        assert_eq!(counts.total(), 32);
        assert_eq!(
            (
                counts.good,
                counts.unstable_deterministic,
                counts.bad_vcs_short,
                counts.bad_vdd_short,
                counts.unstable_nondeterministic
            ),
            (19, 7, 4, 1, 1),
            "PITON_RUN_SEED does not reproduce Table IV"
        );
    }

    #[test]
    fn percentages_match_table_iv() {
        let counts = ChipPopulation::piton_run().test_campaign(32);
        assert!((counts.percent(counts.good) - 59.4).abs() < 0.1);
        assert!((counts.percent(counts.unstable_deterministic) - 21.9).abs() < 0.1);
        assert!((counts.percent(counts.bad_vcs_short) - 12.5).abs() < 0.1);
    }

    #[test]
    fn sram_repair_recovers_only_deterministic_failures() {
        let pop = ChipPopulation::piton_run();
        let before = pop.test_campaign(32);
        // A perfect repair flow recovers all 7 deterministic failures.
        let perfect = pop.repair_campaign(32, 1.0, 1);
        assert_eq!(perfect.good, before.good + before.unstable_deterministic);
        assert_eq!(perfect.unstable_deterministic, 0);
        assert_eq!(perfect.bad_vcs_short, before.bad_vcs_short);
        assert_eq!(perfect.unstable_nondeterministic, 1);
        // A useless flow changes nothing.
        let none = pop.repair_campaign(32, 0.0, 1);
        assert_eq!(none, before);
        // Totals always preserved.
        for rate in [0.0, 0.3, 0.7, 1.0] {
            assert_eq!(pop.repair_campaign(32, rate, 2).total(), 32);
        }
    }

    #[test]
    fn fast_dies_leak_more_on_average() {
        let pop = ChipPopulation::generate(2_000, 2_000, DefectRates::table_iv(), 99);
        let (mut fast_leak, mut slow_leak) = (0.0, 0.0);
        let (mut fast_n, mut slow_n) = (0u32, 0u32);
        for d in pop.dies() {
            if d.corner.speed > 1.0 {
                fast_leak += d.corner.leakage;
                fast_n += 1;
            } else {
                slow_leak += d.corner.leakage;
                slow_n += 1;
            }
        }
        assert!(fast_leak / f64::from(fast_n) > slow_leak / f64::from(slow_n));
    }

    #[test]
    fn only_good_chips_are_usable() {
        assert!(ChipStatus::Good.is_usable());
        for s in ChipStatus::ALL {
            if s != ChipStatus::Good {
                assert!(!s.is_usable(), "{s:?}");
            }
        }
    }

    #[test]
    fn faulty_core_masks_map_table_iv_classes() {
        let die = |serial, status| Die {
            serial,
            corner: ChipCorner::default(),
            status,
            packaged: true,
        };
        assert_eq!(die(0, ChipStatus::Good).faulty_core_mask(), 0);
        assert_eq!(
            die(1, ChipStatus::BadVddShort).faulty_core_mask(),
            (1 << 25) - 1
        );
        assert_eq!(
            die(1, ChipStatus::BadVcsShort).faulty_core_mask(),
            (1 << 25) - 1
        );
        for serial in 0..64 {
            let m = die(serial, ChipStatus::UnstableNondeterministic).faulty_core_mask();
            assert_eq!(m.count_ones(), 1, "serial {serial}: {m:#x}");
            let m = die(serial, ChipStatus::UnstableDeterministic).faulty_core_mask();
            assert!((1..=2).contains(&m.count_ones()), "serial {serial}: {m:#x}");
            assert!(m < 1 << 25, "mask must stay within the 25-tile array");
            // Deterministic per serial.
            assert_eq!(
                m,
                die(serial, ChipStatus::UnstableDeterministic).faulty_core_mask()
            );
        }
        // Defects land on different tiles for different dies.
        let distinct: std::collections::HashSet<u32> = (0..16)
            .map(|s| die(s, ChipStatus::UnstableNondeterministic).faulty_core_mask())
            .collect();
        assert!(distinct.len() > 8, "only {} distinct masks", distinct.len());
    }

    #[test]
    fn table_iv_metadata_strings() {
        assert_eq!(ChipStatus::BadVcsShort.possible_cause(), "Short");
        assert_eq!(
            ChipStatus::UnstableDeterministic.possible_cause(),
            "Bad SRAM cells"
        );
        assert_eq!(ChipStatus::Good.symptom(), "Stable operation");
    }
}

#[cfg(test)]
mod seed_search {
    use super::*;

    #[test]
    #[ignore = "one-off seed search utility"]
    fn find_seed() {
        // The error path names the searched range, so an exhausted
        // search reports exactly what was tried instead of panicking.
        match find_table_iv_seed(0..1_000_000) {
            Ok(seed) => println!("SEED={seed}"),
            Err(e) => panic!("seed search failed: {e}"),
        }
    }

    #[test]
    fn exhausted_search_names_its_range() {
        // A range too small to contain a Table IV seed: the error says
        // exactly what was searched.
        let err = find_table_iv_seed(0..3).unwrap_err();
        assert_eq!(err, PitonError::SeedNotFound { lo: 0, hi: 3 });
        assert_eq!(
            err.to_string(),
            "no seed in 0..3 reproduces the Table IV counts"
        );
        // And the known-good seed is inside any range covering it.
        assert_eq!(
            find_table_iv_seed(PITON_RUN_SEED..PITON_RUN_SEED + 1).unwrap(),
            PITON_RUN_SEED
        );
    }
}
