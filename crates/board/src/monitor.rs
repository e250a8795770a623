//! Sense resistors and I²C voltage/current monitors.
//!
//! The Piton board dedicates three PCB layers to split power planes with
//! sense resistors bridging the planes that feed each chip rail; I²C
//! voltage monitors track the socket-pin voltage and the drop across
//! each sense resistor. The monitors poll at ≈ 17 Hz (a limitation of
//! the devices and host), and every reported measurement in the paper is
//! the mean of **128 samples (≈ 7.5 s)** at steady state with the sample
//! standard deviation as the error bar (§III-A). This module reproduces
//! that pipeline, including measurement noise and ADC quantization.
//!
//! # Examples
//!
//! ```
//! use piton_board::monitor::{MonitorChannel, MeasurementWindow};
//! use piton_arch::units::Watts;
//!
//! let mut chan = MonitorChannel::piton_board(42);
//! let window: MeasurementWindow =
//!     (0..128).map(|_| chan.sample(Watts(2.0153))).collect();
//! assert!((window.mean().unwrap().as_mw() - 2015.3).abs() < 3.0);
//! assert!(window.stddev().unwrap().as_mw() < 5.0);
//! ```

use crate::fault::{FaultPlan, FaultState, SampleFault, MAX_SAMPLE_RETRIES};
use piton_arch::error::PitonError;
use piton_arch::units::{Seconds, Watts};
use piton_obs::metrics;
use piton_obs::trace::{self, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Monitor poll rate in hertz (§III-A: "approximately 17Hz").
pub const POLL_HZ: f64 = 17.0;

/// Default samples per reported measurement (§III-A: 128 samples,
/// "about a 7.5 second time window").
pub const DEFAULT_SAMPLES: usize = 128;

/// Wall time spanned by one default measurement window.
#[must_use]
pub fn window_duration(samples: usize) -> Seconds {
    Seconds(samples as f64 / POLL_HZ)
}

/// One I²C-monitored rail channel: the monitor's noise and
/// quantization across its sense resistor.
#[derive(Debug, Clone)]
pub struct MonitorChannel {
    /// Additive Gaussian noise floor in watts.
    noise_floor_w: f64,
    /// Proportional noise (fraction of reading).
    noise_fraction: f64,
    /// ADC least-significant-bit size in watts.
    lsb_w: f64,
    rng: StdRng,
    /// The channel's own seed; identifies its fault stream under a plan.
    seed: u64,
    /// Injected-fault stream, when a plan is attached.
    fault: Option<FaultState>,
    /// Previous conversion — what a stuck ADC re-reports.
    last: Option<Watts>,
    /// Conversions taken so far — the sample index stamped on ADC
    /// trace events.
    samples: u64,
}

impl MonitorChannel {
    /// The Piton board channel: 2 mΩ sense resistor, ±1.5 mW noise floor
    /// (the Table V error), 0.05% proportional noise, 0.5 mW LSB.
    #[must_use]
    pub fn piton_board(seed: u64) -> Self {
        Self {
            noise_floor_w: 1.5e-3,
            noise_fraction: 5.0e-4,
            lsb_w: 0.5e-3,
            rng: StdRng::seed_from_u64(seed),
            seed,
            fault: None,
            last: None,
            samples: 0,
        }
    }

    /// Attaches a fault plan: subsequent [`Self::sample_with_retry`]
    /// calls draw injected faults from a stream seeded by the plan and
    /// this channel's own seed. Plans with no monitor-fault rates leave
    /// the channel fault-free (and its noise stream untouched).
    pub fn attach_faults(&mut self, plan: &FaultPlan) {
        self.fault = if plan.has_monitor_faults() {
            Some(FaultState::for_channel(plan, self.seed))
        } else {
            None
        };
    }

    /// Takes one monitor sample of a true rail power.
    pub fn sample(&mut self, true_power: Watts) -> Watts {
        let sigma = self.noise_floor_w + self.noise_fraction * true_power.0.abs();
        // Box-Muller from two uniforms keeps the dependency surface tiny.
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let noisy = true_power.0 + sigma * gauss;
        // ADC quantization.
        let w = Watts((noisy / self.lsb_w).round() * self.lsb_w);
        self.last = Some(w);
        if trace::active() {
            self.trace_conversion(w);
        }
        self.samples += 1;
        w
    }

    /// Outlined ADC trace emission; power is stamped in integer
    /// microwatts so the event round-trips exactly through JSONL.
    #[cold]
    fn trace_conversion(&self, w: Watts) {
        trace::emit(TraceEvent::Adc {
            channel: self.seed,
            sample: self.samples,
            microwatts: (w.0 * 1e6).round() as i64,
        });
    }

    /// Takes one sample under the attached fault plan, retrying dropped
    /// reads up to [`MAX_SAMPLE_RETRIES`] times with deterministic
    /// backoff (each retry burns one poll slot, tallied in `quality`).
    /// Returns `None` when every attempt dropped — the sample is lost
    /// and the window simply gets one fewer entry, exactly like the real
    /// bench script skipping a failed I²C transaction.
    ///
    /// Without an attached plan this is byte-identical to [`Self::sample`].
    pub fn sample_with_retry(&mut self, true_power: Watts, quality: &mut Quality) -> Option<Watts> {
        let before = *quality;
        let out = self.sample_with_retry_inner(true_power, quality);
        if metrics::enabled() {
            publish_quality_delta(&before, quality);
        }
        out
    }

    fn sample_with_retry_inner(
        &mut self,
        true_power: Watts,
        quality: &mut Quality,
    ) -> Option<Watts> {
        let Some(mut fault) = self.fault.take() else {
            quality.kept += 1;
            return Some(self.sample(true_power));
        };
        let mut outcome = None;
        for attempt in 0..=MAX_SAMPLE_RETRIES {
            match fault.roll() {
                Some(SampleFault::Dropped) => {
                    // Failed transaction: no conversion happened. Back
                    // off one poll slot and retry, deterministically.
                    if attempt < MAX_SAMPLE_RETRIES {
                        quality.retried += 1;
                    }
                }
                Some(SampleFault::Stuck) => {
                    // The ADC re-reports its previous conversion.
                    quality.stuck += 1;
                    quality.kept += 1;
                    let w = self
                        .last
                        .unwrap_or_else(|| Watts((true_power.0 / self.lsb_w).round() * self.lsb_w));
                    outcome = Some(w);
                    break;
                }
                Some(SampleFault::Glitch) => {
                    quality.glitched += 1;
                    quality.kept += 1;
                    let w = fault.glitch_value(true_power);
                    self.last = Some(w);
                    outcome = Some(w);
                    break;
                }
                None => {
                    quality.kept += 1;
                    outcome = Some(self.sample(true_power));
                    break;
                }
            }
        }
        if outcome.is_none() {
            quality.dropped += 1;
        }
        self.fault = Some(fault);
        outcome
    }
}

/// Outlined metrics publication of one retry-loop outcome — the delta
/// between the caller's [`Quality`] before and after a sample. Callers
/// gate on [`metrics::enabled`].
#[cold]
fn publish_quality_delta(before: &Quality, after: &Quality) {
    let d = |name: &str, b: u32, a: u32| {
        if a > b {
            metrics::counter_add(name, u64::from(a - b));
        }
    };
    d("monitor.kept", before.kept, after.kept);
    d("monitor.dropped", before.dropped, after.dropped);
    d("monitor.retried", before.retried, after.retried);
    d("monitor.stuck", before.stuck, after.stuck);
    d("monitor.glitched", before.glitched, after.glitched);
}

/// Bench-side health report of one measurement window: how many samples
/// survived, and what the fault-handling machinery had to do to get
/// them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    /// Samples that made it into the window (including stuck/glitched
    /// ones later subject to outlier rejection).
    pub kept: u32,
    /// Samples lost outright after exhausting retries.
    pub dropped: u32,
    /// Extra poll slots burned retrying dropped reads.
    pub retried: u32,
    /// Stuck-ADC repeats of a previous conversion.
    pub stuck: u32,
    /// Out-of-range glitch reads injected into the window.
    pub glitched: u32,
    /// Samples discarded by window outlier rejection.
    pub rejected: u32,
}

impl Quality {
    /// Whether any fault handling fired at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.dropped == 0
            && self.retried == 0
            && self.stuck == 0
            && self.glitched == 0
            && self.rejected == 0
    }
}

impl std::fmt::Display for Quality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} kept, {} dropped, {} retried, {} stuck, {} glitched, {} rejected",
            self.kept, self.dropped, self.retried, self.stuck, self.glitched, self.rejected
        )
    }
}

/// A collected window of power samples with the paper's statistics.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MeasurementWindow {
    samples: Vec<Watts>,
}

impl MeasurementWindow {
    /// An empty window.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, w: Watts) {
        self.samples.push(w);
    }

    /// The raw samples.
    #[must_use]
    pub fn samples(&self) -> &[Watts] {
        &self.samples
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean power over the window (what the paper reports).
    ///
    /// # Errors
    ///
    /// [`PitonError::EmptyWindow`] if every sample was dropped or the
    /// window was never filled.
    pub fn mean(&self) -> Result<Watts, PitonError> {
        if self.is_empty() {
            return Err(PitonError::EmptyWindow {
                context: "window mean",
            });
        }
        Ok(Watts(
            self.samples.iter().map(|w| w.0).sum::<f64>() / self.samples.len() as f64,
        ))
    }

    /// Sample standard deviation — the paper's error bars.
    ///
    /// # Errors
    ///
    /// [`PitonError::EmptyWindow`] if every sample was dropped or the
    /// window was never filled.
    pub fn stddev(&self) -> Result<Watts, PitonError> {
        if self.is_empty() {
            return Err(PitonError::EmptyWindow {
                context: "window stddev",
            });
        }
        let n = self.samples.len() as f64;
        if n < 2.0 {
            return Ok(Watts(0.0));
        }
        let mean = self.mean()?.0;
        let var = self
            .samples
            .iter()
            .map(|w| (w.0 - mean) * (w.0 - mean))
            .sum::<f64>()
            / (n - 1.0);
        Ok(Watts(var.sqrt()))
    }

    /// Median of the window — the robust centre outlier rejection pivots
    /// on.
    ///
    /// # Errors
    ///
    /// [`PitonError::EmptyWindow`] on an empty window.
    pub fn median(&self) -> Result<Watts, PitonError> {
        if self.is_empty() {
            return Err(PitonError::EmptyWindow {
                context: "window median",
            });
        }
        let mut v: Vec<f64> = self.samples.iter().map(|w| w.0).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite power samples"));
        let n = v.len();
        Ok(Watts(if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        }))
    }

    /// Statistics after rejecting glitch outliers: samples further from
    /// the window median than max(5 % of the median, 20 mW) — far
    /// outside the board's ±1.5 mW noise band but tight enough to catch
    /// every injected glitch — are discarded; the paper's mean ± stddev
    /// is computed over the survivors and the rejection count recorded
    /// in `quality`.
    ///
    /// # Errors
    ///
    /// [`PitonError::EmptyWindow`] on an empty window (the median
    /// itself always survives, so a non-empty window never rejects to
    /// empty).
    pub fn robust_stats(&self, quality: &mut Quality) -> Result<Measured, PitonError> {
        let median = self.median()?.0;
        let tolerance = (0.05 * median.abs()).max(0.02);
        let survivors: MeasurementWindow = self
            .samples
            .iter()
            .copied()
            .filter(|w| (w.0 - median).abs() <= tolerance)
            .collect();
        let rejected = self.len() - survivors.len();
        let rejected = u32::try_from(rejected).expect("window fits in u32");
        quality.rejected += rejected;
        quality.kept = quality.kept.saturating_sub(rejected);
        Measured::from_window(&survivors)
    }
}

impl FromIterator<Watts> for MeasurementWindow {
    fn from_iter<T: IntoIterator<Item = Watts>>(iter: T) -> Self {
        Self {
            samples: iter.into_iter().collect(),
        }
    }
}

impl Extend<Watts> for MeasurementWindow {
    fn extend<T: IntoIterator<Item = Watts>>(&mut self, iter: T) {
        self.samples.extend(iter);
    }
}

/// A mean ± standard-deviation result, the unit every experiment
/// reports.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Mean over the window.
    pub mean: Watts,
    /// Sample standard deviation.
    pub stddev: Watts,
}

impl Measured {
    /// Collapses a window into its statistics.
    ///
    /// # Errors
    ///
    /// [`PitonError::EmptyWindow`] on an empty window.
    pub fn from_window(w: &MeasurementWindow) -> Result<Self, PitonError> {
        Ok(Self {
            mean: w.mean()?,
            stddev: w.stddev()?,
        })
    }
}

impl std::fmt::Display for Measured {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}±{:.1} mW", self.mean.as_mw(), self.stddev.as_mw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_duration_matches_paper() {
        // 128 samples at ~17 Hz ≈ 7.5 s.
        let d = window_duration(DEFAULT_SAMPLES);
        assert!((d.0 - 7.5).abs() < 0.05, "{d}");
    }

    #[test]
    fn sampling_is_unbiased_and_tight() {
        let mut chan = MonitorChannel::piton_board(7);
        let truth = Watts(2.0153);
        let window: MeasurementWindow = (0..2_000).map(|_| chan.sample(truth)).collect();
        assert!((window.mean().unwrap().0 - truth.0).abs() < 0.001);
        // Noise floor ~1.5 mW + 1 mW proportional: stddev in range.
        let s = window.stddev().unwrap().as_mw();
        assert!((0.5..6.0).contains(&s), "stddev {s}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = MonitorChannel::piton_board(1);
        let mut b = MonitorChannel::piton_board(1);
        for _ in 0..10 {
            assert_eq!(a.sample(Watts(1.0)), b.sample(Watts(1.0)));
        }
        let mut c = MonitorChannel::piton_board(2);
        let same: Vec<_> = (0..10).map(|_| c.sample(Watts(1.0))).collect();
        let mut d = MonitorChannel::piton_board(1);
        let other: Vec<_> = (0..10).map(|_| d.sample(Watts(1.0))).collect();
        assert_ne!(same, other);
    }

    #[test]
    fn quantization_snaps_to_lsb() {
        let mut chan = MonitorChannel::piton_board(3);
        let s = chan.sample(Watts(1.0));
        let lsbs = s.0 / 0.5e-3;
        assert!((lsbs - lsbs.round()).abs() < 1e-9);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        let w: MeasurementWindow = (0..16).map(|_| Watts(1.0)).collect();
        assert_eq!(w.stddev().unwrap(), Watts(0.0));
        assert_eq!(w.mean().unwrap(), Watts(1.0));
    }

    #[test]
    fn empty_window_reports_an_error_not_a_panic() {
        let w = MeasurementWindow::new();
        assert_eq!(
            w.mean().unwrap_err(),
            PitonError::EmptyWindow {
                context: "window mean"
            }
        );
        assert_eq!(
            w.stddev().unwrap_err(),
            PitonError::EmptyWindow {
                context: "window stddev"
            }
        );
        assert!(Measured::from_window(&w).is_err());
        assert!(w.median().is_err());
        assert!(w.robust_stats(&mut Quality::default()).is_err());
    }

    #[test]
    fn fault_free_retry_path_matches_plain_sampling() {
        let mut plain = MonitorChannel::piton_board(11);
        let mut retried = MonitorChannel::piton_board(11);
        let mut q = Quality::default();
        for i in 0..64 {
            let truth = Watts(1.0 + 0.01 * f64::from(i));
            let a = plain.sample(truth);
            let b = retried.sample_with_retry(truth, &mut q).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(q.kept, 64);
        assert!(q.is_clean());
    }

    #[test]
    fn faulty_sampling_is_deterministic_and_tallied() {
        let plan = FaultPlan {
            drop_rate: 0.2,
            stuck_rate: 0.1,
            glitch_rate: 0.1,
            ..FaultPlan::with_seed(5)
        };
        let run = |()| {
            let mut chan = MonitorChannel::piton_board(11);
            chan.attach_faults(&plan);
            let mut q = Quality::default();
            let samples: Vec<_> = (0..256)
                .filter_map(|_| chan.sample_with_retry(Watts(2.0), &mut q))
                .collect();
            (samples, q)
        };
        let (sa, qa) = run(());
        let (sb, qb) = run(());
        assert_eq!(sa, sb, "fault-injected stream must be reproducible");
        assert_eq!(qa, qb);
        assert!(!qa.is_clean(), "rates this high must fire: {qa}");
        assert!(qa.stuck > 0 && qa.glitched > 0 && qa.retried > 0, "{qa}");
        assert_eq!(qa.kept as usize, sa.len());
    }

    #[test]
    fn robust_stats_reject_injected_glitches() {
        let plan = FaultPlan {
            glitch_rate: 0.08,
            ..FaultPlan::with_seed(9)
        };
        let mut chan = MonitorChannel::piton_board(21);
        chan.attach_faults(&plan);
        let mut q = Quality::default();
        let truth = Watts(2.0153);
        let window: MeasurementWindow = (0..128)
            .filter_map(|_| chan.sample_with_retry(truth, &mut q))
            .collect();
        // Raw mean is polluted by multi-watt glitches…
        let raw = window.mean().unwrap();
        assert!((raw.0 - truth.0).abs() > 0.05, "raw mean {raw} too clean");
        // …robust stats land back in the paper's noise band.
        let m = window.robust_stats(&mut q).unwrap();
        assert!((m.mean.0 - truth.0).abs() < 0.003, "robust mean {}", m.mean);
        assert!(m.stddev.as_mw() < 5.0);
        assert_eq!(q.rejected, q.glitched, "every glitch rejected, no more");
    }

    #[test]
    fn measured_formats_like_the_paper() {
        let m = Measured {
            mean: Watts::from_mw(389.3),
            stddev: Watts::from_mw(1.5),
        };
        assert_eq!(m.to_string(), "389.3±1.5 mW");
    }
}
