//! Seeded, deterministic bench-fault injection.
//!
//! The real measurement campaign ran on fallible hardware: I²C monitor
//! reads glitch (which is why §III-A averages 128 samples per reported
//! number), bench supplies brown out, and individual grid points of a
//! sweep crash. A [`FaultPlan`] reproduces that fallibility
//! *deterministically*: every injected fault is drawn from a seeded
//! stream derived from the plan seed and the victim's own identity, so
//! the same plan produces byte-identical output at any `--jobs` level.
//!
//! Three fault classes are modelled:
//!
//! * **Monitor faults** (`drop`/`stuck`/`glitch` rates) — applied per
//!   I²C sample by [`FaultState`]: a dropped read fails outright (the
//!   channel retries with bounded backoff), a stuck ADC repeats the
//!   previous conversion, and a glitch returns a wildly out-of-range
//!   value (rejected later by window outlier rejection).
//! * **Supply brownouts** ([`Brownout`]) — a contiguous window of
//!   samples during which VDD/VCS sag to `factor` of their setpoints.
//! * **Sweep sabotage** ([`Sabotage`]) — named grid points of an
//!   experiment sweep that panic outright (`kill`) or fail transiently
//!   for their first attempts (`flaky`), exercising the runner's
//!   `catch_unwind` isolation and retry path.
//!
//! Plans are plain values: the caller owns one and lends it by
//! reference to every sweep it should perturb.
//!
//! # Examples
//!
//! ```
//! use piton_board::fault::FaultPlan;
//!
//! let sections = ["epi", "noc"];
//! let plan = FaultPlan::parse("seed=42,drop=0.05,glitch=0.02,kill=epi:3", &sections).unwrap();
//! assert_eq!(plan.seed, 42);
//! assert_eq!(plan.sabotage.len(), 1);
//! // Same spec, same plan — fault injection is reproducible.
//! assert_eq!(plan, FaultPlan::parse("seed=42,drop=0.05,glitch=0.02,kill=epi:3", &sections).unwrap());
//! ```

use piton_arch::error::PitonError;
use piton_arch::units::Watts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bounded retries per monitor sample before it is declared lost.
pub const MAX_SAMPLE_RETRIES: u32 = 3;

/// A supply brownout: for `samples` consecutive monitor samples
/// starting at `start_sample`, VDD and VCS sag to `factor` of their
/// programmed setpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brownout {
    /// First affected sample index within each measurement window.
    pub start_sample: usize,
    /// Number of consecutive affected samples.
    pub samples: usize,
    /// Voltage multiplier during the event (e.g. 0.9 = 10 % sag).
    pub factor: f64,
}

impl Brownout {
    /// Whether sample index `i` of a window falls inside the event.
    #[must_use]
    pub fn covers(&self, i: usize) -> bool {
        i >= self.start_sample && i < self.start_sample + self.samples
    }
}

/// How a sabotaged grid point fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SabotageKind {
    /// The point panics on every attempt — a permanent hole.
    Kill,
    /// The point fails transiently for its first `failing_attempts`
    /// attempts, then succeeds — exercises retry with reseeding.
    Flaky {
        /// Attempts that fail before the point recovers.
        failing_attempts: u32,
    },
}

/// One sabotaged grid point of a named experiment sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sabotage {
    /// Sweep section tag (one the plan was parsed against).
    pub section: String,
    /// Grid-point index within that sweep.
    pub index: usize,
    /// Failure mode.
    pub kind: SabotageKind,
}

/// A deterministic process-kill point: the process hard-aborts right
/// after the named grid point completes (and, when a result journal is
/// active, after its record is durably on disk). Exercises the
/// crash/resume path end to end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPoint {
    /// Sweep section tag (one the plan was parsed against).
    pub section: String,
    /// Grid-point index within that sweep.
    pub index: usize,
}

/// A complete, deterministic fault-injection plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed all fault streams derive from.
    pub seed: u64,
    /// P(one monitor read fails and must be retried).
    pub drop_rate: f64,
    /// P(the ADC repeats its previous conversion).
    pub stuck_rate: f64,
    /// P(a read returns a wildly out-of-range value).
    pub glitch_rate: f64,
    /// Optional supply brownout within each measurement window.
    pub brownout: Option<Brownout>,
    /// Sweep grid points to sabotage.
    pub sabotage: Vec<Sabotage>,
    /// Grid points after which the process hard-aborts.
    pub crash: Vec<CrashPoint>,
}

impl FaultPlan {
    /// A plan with moderate monitor fault rates (3 % drop, 2 % stuck,
    /// 2 % glitch) drawn from `seed`: no brownout, no sabotage.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.03,
            stuck_rate: 0.02,
            glitch_rate: 0.02,
            brownout: None,
            sabotage: Vec::new(),
            crash: Vec::new(),
        }
    }

    /// Whether the plan injects per-sample monitor faults.
    #[must_use]
    pub fn has_monitor_faults(&self) -> bool {
        self.drop_rate > 0.0 || self.stuck_rate > 0.0 || self.glitch_rate > 0.0
    }

    /// Whether the plan changes any measured value or sweep result.
    /// Crash points are deliberately *not* effects: they only decide
    /// when the process dies, never what it computes, so a crash-only
    /// plan must produce output byte-identical to no plan at all.
    #[must_use]
    pub fn has_effects(&self) -> bool {
        self.has_monitor_faults() || self.brownout.is_some() || !self.sabotage.is_empty()
    }

    /// The sabotage entry for a grid point, if any.
    #[must_use]
    pub fn sabotage_for(&self, section: &str, index: usize) -> Option<&Sabotage> {
        self.sabotage
            .iter()
            .find(|s| s.section == section && s.index == index)
    }

    /// Whether the process should hard-abort after this grid point.
    #[must_use]
    pub fn crash_for(&self, section: &str, index: usize) -> bool {
        self.crash
            .iter()
            .any(|c| c.section == section && c.index == index)
    }

    /// Parses the `--fault-plan` spec: a
    /// comma-separated `key=value` list.
    ///
    /// | key | value | meaning |
    /// |---|---|---|
    /// | `seed` | u64 | stream seed (default 0) |
    /// | `drop` | 0..1 | dropped-read probability |
    /// | `stuck` | 0..1 | stuck-ADC probability |
    /// | `glitch` | 0..1 | out-of-range-read probability |
    /// | `brownout` | `START+LEN@FACTOR` | supply sag window |
    /// | `kill` | `SECTION:IDX` | grid point that panics |
    /// | `flaky` | `SECTION:IDX[@N]` | point failing its first N (default 2) attempts |
    /// | `crash` | `SECTION:IDX` | process hard-aborts after the point completes |
    ///
    /// `SECTION` must be one of `sections` (the experiment registry's
    /// names); a typo'd section is rejected at parse time instead of
    /// silently no-opping.
    ///
    /// # Errors
    ///
    /// Returns [`PitonError::BadPlan`] naming the offending entry.
    pub fn parse(spec: &str, sections: &[&str]) -> Result<Self, PitonError> {
        let mut plan = Self {
            seed: 0,
            drop_rate: 0.0,
            stuck_rate: 0.0,
            glitch_rate: 0.0,
            brownout: None,
            sabotage: Vec::new(),
            crash: Vec::new(),
        };
        let bad = |entry: &str, why: &str| PitonError::BadPlan {
            what: format!("{entry:?}: {why}"),
        };
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| bad(entry, "expected key=value"))?;
            let rate = |v: &str| -> Result<f64, PitonError> {
                let r: f64 = v.parse().map_err(|_| bad(entry, "expected a number"))?;
                if (0.0..=1.0).contains(&r) {
                    Ok(r)
                } else {
                    Err(bad(entry, "rate must be within 0..=1"))
                }
            };
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| bad(entry, "expected a u64"))?;
                }
                "drop" => plan.drop_rate = rate(value)?,
                "stuck" => plan.stuck_rate = rate(value)?,
                "glitch" => plan.glitch_rate = rate(value)?,
                "brownout" => {
                    let (range, factor) = value
                        .split_once('@')
                        .ok_or_else(|| bad(entry, "expected START+LEN@FACTOR"))?;
                    let (start, len) = range
                        .split_once('+')
                        .ok_or_else(|| bad(entry, "expected START+LEN@FACTOR"))?;
                    plan.brownout = Some(Brownout {
                        start_sample: start.parse().map_err(|_| bad(entry, "bad start sample"))?,
                        samples: len.parse().map_err(|_| bad(entry, "bad sample count"))?,
                        factor: rate(factor)?,
                    });
                }
                "kill" | "flaky" | "crash" => {
                    let (section, rest) = value
                        .split_once(':')
                        .ok_or_else(|| bad(entry, "expected SECTION:IDX"))?;
                    if !sections.contains(&section) {
                        return Err(bad(
                            entry,
                            &format!("unknown section {section:?} (known: {sections:?})"),
                        ));
                    }
                    if key == "crash" {
                        plan.crash.push(CrashPoint {
                            section: section.to_owned(),
                            index: rest.parse().map_err(|_| bad(entry, "bad point index"))?,
                        });
                        continue;
                    }
                    let (idx, attempts) = match rest.split_once('@') {
                        Some((i, n)) => (
                            i,
                            n.parse()
                                .map_err(|_| bad(entry, "bad failing-attempt count"))?,
                        ),
                        None => (rest, 2),
                    };
                    plan.sabotage.push(Sabotage {
                        section: section.to_owned(),
                        index: idx.parse().map_err(|_| bad(entry, "bad point index"))?,
                        kind: if key == "kill" {
                            SabotageKind::Kill
                        } else {
                            SabotageKind::Flaky {
                                failing_attempts: attempts,
                            }
                        },
                    });
                }
                _ => return Err(bad(entry, "unknown key")),
            }
        }
        Ok(plan)
    }

    /// Renders the plan back into a canonical [`FaultPlan::parse`] spec
    /// string: `FaultPlan::parse(&plan.render(), ..)` reconstructs an equal
    /// plan (rates rely on `f64`'s shortest-round-trip `Display`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        if self.drop_rate > 0.0 {
            parts.push(format!("drop={}", self.drop_rate));
        }
        if self.stuck_rate > 0.0 {
            parts.push(format!("stuck={}", self.stuck_rate));
        }
        if self.glitch_rate > 0.0 {
            parts.push(format!("glitch={}", self.glitch_rate));
        }
        if let Some(b) = &self.brownout {
            parts.push(format!(
                "brownout={}+{}@{}",
                b.start_sample, b.samples, b.factor
            ));
        }
        for s in &self.sabotage {
            parts.push(match s.kind {
                SabotageKind::Kill => format!("kill={}:{}", s.section, s.index),
                SabotageKind::Flaky { failing_attempts } => {
                    format!("flaky={}:{}@{failing_attempts}", s.section, s.index)
                }
            });
        }
        for c in &self.crash {
            parts.push(format!("crash={}:{}", c.section, c.index));
        }
        parts.join(",")
    }

    /// Renders only the plan entries that change measured values —
    /// crash points are omitted (they never affect a result, see
    /// [`FaultPlan::has_effects`]), and a plan with no effects
    /// normalizes to `None`. Two runs whose `render_effects` agree must
    /// produce byte-identical results, which is exactly the contract
    /// the result journal and the deterministic manifest projection
    /// key on.
    #[must_use]
    pub fn render_effects(&self) -> Option<String> {
        if !self.has_effects() {
            return None;
        }
        let mut stripped = self.clone();
        stripped.crash.clear();
        Some(stripped.render())
    }
}

/// Gate the journaled sweep runner calls before every attempt at a grid
/// point it computes: panics for `kill` points (exercising the runner's
/// `catch_unwind`) and returns a transient error for `flaky` points
/// still inside their failing window.
///
/// # Errors
///
/// Returns [`PitonError::Transient`] while a flaky point is failing.
///
/// # Panics
///
/// Panics for `kill` points, on every attempt.
pub fn sabotage_gate(
    plan: &FaultPlan,
    section: &str,
    index: usize,
    attempt: u32,
) -> Result<(), PitonError> {
    match plan.sabotage_for(section, index).map(|s| s.kind) {
        Some(SabotageKind::Kill) => {
            panic!("injected grid-point fault ({section}:{index})")
        }
        Some(SabotageKind::Flaky { failing_attempts }) if attempt < failing_attempts => Err(
            PitonError::transient(format!("injected flaky grid point ({section}:{index})")),
        ),
        _ => Ok(()),
    }
}

/// What one monitor read does under the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleFault {
    /// The read fails; the channel must retry.
    Dropped,
    /// The ADC repeats its previous conversion.
    Stuck,
    /// The read returns an out-of-range value.
    Glitch,
}

/// The per-channel deterministic fault stream.
///
/// Seeded from the plan seed mixed with the channel's own seed, so
/// every channel of every independently-built system draws an
/// independent — but fully reproducible — sequence.
#[derive(Debug, Clone)]
pub struct FaultState {
    rng: StdRng,
    drop_rate: f64,
    stuck_rate: f64,
    glitch_rate: f64,
}

/// SplitMix64 finalizer: decorrelates the per-channel stream seed from
/// the plan seed.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultState {
    /// The fault stream of one channel under `plan`.
    #[must_use]
    pub fn for_channel(plan: &FaultPlan, channel_seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(mix(plan.seed, channel_seed)),
            drop_rate: plan.drop_rate,
            stuck_rate: plan.stuck_rate,
            glitch_rate: plan.glitch_rate,
        }
    }

    /// Rolls the fault outcome of one read attempt.
    pub fn roll(&mut self) -> Option<SampleFault> {
        let r: f64 = self.rng.gen_range(0.0..1.0);
        if r < self.drop_rate {
            Some(SampleFault::Dropped)
        } else if r < self.drop_rate + self.stuck_rate {
            Some(SampleFault::Stuck)
        } else if r < self.drop_rate + self.stuck_rate + self.glitch_rate {
            Some(SampleFault::Glitch)
        } else {
            None
        }
    }

    /// A glitched conversion of `truth`: several multiples off, in
    /// either direction — unambiguously outside the paper's ±1.5 mW
    /// noise band, so window outlier rejection can catch it.
    pub fn glitch_value(&mut self, truth: Watts) -> Watts {
        let scale: f64 = self.rng.gen_range(2.0..8.0);
        let sign = if self.rng.gen_range(0.0..1.0) < 0.5 {
            -1.0
        } else {
            1.0
        };
        Watts(truth.0 + sign * scale * truth.0.abs().max(0.05))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sections these tests name.
    const SECTIONS: &[&str] = &["epi", "noc", "scaling", "design_space"];

    fn parse(spec: &str) -> Result<FaultPlan, PitonError> {
        FaultPlan::parse(spec, SECTIONS)
    }

    #[test]
    fn parse_full_spec() {
        let p = parse(
            "seed=7,drop=0.1,stuck=0.05,glitch=0.02,brownout=40+8@0.9,kill=epi:3,flaky=noc:5@1",
        )
        .unwrap();
        assert_eq!(p.seed, 7);
        assert!((p.drop_rate - 0.1).abs() < 1e-12);
        let b = p.brownout.unwrap();
        assert_eq!((b.start_sample, b.samples), (40, 8));
        assert!(b.covers(40) && b.covers(47) && !b.covers(48) && !b.covers(39));
        assert_eq!(p.sabotage_for("epi", 3).unwrap().kind, SabotageKind::Kill);
        assert_eq!(
            p.sabotage_for("noc", 5).unwrap().kind,
            SabotageKind::Flaky {
                failing_attempts: 1
            }
        );
        assert!(p.sabotage_for("epi", 4).is_none());
    }

    #[test]
    fn parse_rejects_bad_entries() {
        for bad in [
            "drop=2.0",
            "nonsense=1",
            "drop",
            "brownout=40@0.9",
            "kill=epi",
            "seed=abc",
            "crash=epi",
            "crash=epi:x",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(matches!(e, PitonError::BadPlan { .. }), "{bad} gave {e:?}");
        }
    }

    #[test]
    fn design_space_points_can_be_named() {
        let p = parse("kill=design_space:3,crash=design_space:0").unwrap();
        assert_eq!(
            p.sabotage_for("design_space", 3).map(|s| s.kind),
            Some(SabotageKind::Kill)
        );
        assert!(p.crash_for("design_space", 0));
    }

    #[test]
    fn crash_points_round_trip_and_are_not_effects() {
        let p = parse("crash=noc:7,crash=epi:0").unwrap();
        assert!(p.crash_for("noc", 7) && p.crash_for("epi", 0));
        assert!(!p.crash_for("noc", 8) && !p.crash_for("scaling", 7));
        assert_eq!(parse(&p.render()).unwrap(), p);
        // Crash-only plans have no effects: byte-identical results.
        assert!(!p.has_effects());
        assert_eq!(p.render_effects(), None);
        // Mixed plans keep their effects but shed the crash entries.
        let mixed = parse("seed=3,drop=0.1,kill=epi:2,crash=noc:1").unwrap();
        assert!(mixed.has_effects());
        let effects = mixed.render_effects().unwrap();
        assert_eq!(effects, "seed=3,drop=0.1,kill=epi:2");
        assert_eq!(parse(&effects).unwrap().render_effects().unwrap(), effects,);
    }

    #[test]
    fn empty_spec_is_a_no_fault_plan() {
        let p = parse("").unwrap();
        assert!(!p.has_monitor_faults());
        assert!(p.brownout.is_none() && p.sabotage.is_empty());
    }

    #[test]
    fn fault_stream_is_deterministic_per_channel() {
        let plan = FaultPlan::with_seed(99);
        let mut a = FaultState::for_channel(&plan, 5);
        let mut b = FaultState::for_channel(&plan, 5);
        let mut c = FaultState::for_channel(&plan, 6);
        let sa: Vec<_> = (0..256).map(|_| a.roll()).collect();
        let sb: Vec<_> = (0..256).map(|_| b.roll()).collect();
        let sc: Vec<_> = (0..256).map(|_| c.roll()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc, "channels must draw independent streams");
        // Rates roughly honoured.
        let faults = sa.iter().filter(|f| f.is_some()).count();
        assert!((2..=45).contains(&faults), "{faults} faults in 256 rolls");
    }

    #[test]
    fn glitches_are_far_outside_the_noise_band() {
        let plan = FaultPlan::with_seed(1);
        let mut s = FaultState::for_channel(&plan, 0);
        for _ in 0..32 {
            let g = s.glitch_value(Watts(2.0));
            assert!((g.0 - 2.0).abs() > 1.0, "glitch {g} too plausible");
        }
    }

    #[test]
    fn sabotage_gate_flaky_then_recovers() {
        let mut plan = FaultPlan::with_seed(0);
        plan.sabotage.push(Sabotage {
            section: "epi".into(),
            index: 2,
            kind: SabotageKind::Flaky {
                failing_attempts: 2,
            },
        });
        assert!(sabotage_gate(&plan, "epi", 2, 0).is_err());
        assert!(sabotage_gate(&plan, "epi", 2, 1).is_err());
        assert!(sabotage_gate(&plan, "epi", 2, 2).is_ok());
        assert!(sabotage_gate(&plan, "epi", 3, 0).is_ok());
        assert!(sabotage_gate(&plan, "noc", 2, 0).is_ok());
    }

    #[test]
    #[should_panic(expected = "injected grid-point fault (epi:3)")]
    fn sabotage_gate_kill_panics() {
        let plan = parse("kill=epi:3").unwrap();
        let _ = sabotage_gate(&plan, "epi", 3, 0);
    }
}
