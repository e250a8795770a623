//! Helpers shared across the root integration-test suite: golden-file
//! comparison with `PITON_BLESS=1` regeneration, and the hand-pinned
//! proptest shrink inputs replayed as plain tests (the vendored
//! proptest stub does not replay `*.proptest-regressions` files, so
//! each recorded input lives here once instead of being copy-pasted
//! into every suite that replays it).
//!
//! Each integration-test binary compiles its own copy of this module
//! (`mod common;`), so helpers unused by a given binary are expected.
#![allow(dead_code)]

use std::path::PathBuf;

/// Shrunk proptest inputs recorded in `tests/*.proptest-regressions`,
/// pinned as constants so the replaying tests and the regression files
/// stay in sync from one place.
pub mod pinned {
    /// `coherence_properties`: `Store { tile: 3, addr: 8388800, value: 0 }`
    /// then `Load { tile: 14, addr: 8388800 }` — a stored zero must be
    /// observed remotely even though it equals the never-written default.
    pub const COHERENCE_STORE_TILE: usize = 3;
    /// See [`COHERENCE_STORE_TILE`].
    pub const COHERENCE_LOAD_TILE: usize = 14;
    /// See [`COHERENCE_STORE_TILE`] (address 0x80_0040).
    pub const COHERENCE_ADDR: u64 = 8_388_800;
    /// `measurement_properties`: `p_mw = 1417.6274120739997, eff = 0.0`
    /// — the thermal transient must converge even with a dead fan.
    pub const THERMAL_P_MW: f64 = 1_417.627_412_073_999_7;
    /// See [`THERMAL_P_MW`].
    pub const THERMAL_FAN_EFFECTIVENESS: f64 = 0.0;
    /// `model_properties`: the leakiest corner a hair under the thermal
    /// knee — the shrunk capability-monotonicity input, where IR drop
    /// is steepest and a sign slip in the derate flips the curve.
    pub const VF_MONOTONE_LEAKAGE: f64 = 1.49;
    /// See [`VF_MONOTONE_LEAKAGE`].
    pub const VF_MONOTONE_T_J: f64 = 94.99;
    /// `governor_properties`: junction exactly at the boot limit
    /// (95.0 °C) with the PLL-ladder-base start frequency — the
    /// boundary between the hot and hold control branches at the
    /// saturating bottom rung, where an off-by-one survives any random
    /// sweep that misses exact equality.
    pub const GOVERNOR_T_LIMIT: f64 = 95.0;
    /// See [`GOVERNOR_T_LIMIT`].
    pub const GOVERNOR_VDD: f64 = 0.8;
    /// See [`GOVERNOR_T_LIMIT`] (the `PllLadder::piton` base step).
    pub const GOVERNOR_START_MHZ: f64 = 50.0;
}

/// Path of a committed golden fixture.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the committed fixture `tests/golden/<name>`.
///
/// With `PITON_BLESS=1` in the environment the fixture is rewritten
/// instead and the test passes — the regeneration path after an
/// intentional output change. On mismatch, panics with a readable
/// first-difference report (line number, expected/actual lines, and
/// the bless instructions).
pub fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("PITON_BLESS").is_some() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create tests/golden");
        }
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("blessing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with PITON_BLESS=1",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mut exp_lines = expected.lines();
    let mut act_lines = actual.lines();
    let mut line_no = 1usize;
    loop {
        match (exp_lines.next(), act_lines.next()) {
            (Some(e), Some(a)) if e == a => line_no += 1,
            (e, a) => {
                panic!(
                    "golden mismatch against {} at line {line_no}:\n\
                     expected: {}\n\
                     actual:   {}\n\
                     (re-run with PITON_BLESS=1 to accept the new output)",
                    path.display(),
                    e.unwrap_or("<end of fixture>"),
                    a.unwrap_or("<end of output>"),
                );
            }
        }
    }
}
