//! The virtual lab bench as the power experiments see it: the handful
//! of §IV measurement idioms every power figure is derived from.
//!
//! [`Bench`] lists those calls — a warmed measurement window, the idle
//! baseline, static power fresh and settled, a NoC traffic window, a
//! captured window evaluated at any junction, a fixed-iteration run
//! time. [`CycleBench`] answers each call by simulating the rig;
//! [`crate::analytic::AnalyticBench`] answers from the rate library. An
//! experiment written against `&dyn Bench` derives its figure once, for
//! both backends.

use piton_arch::config::ChipConfig;
use piton_arch::error::PitonError;
use piton_arch::isa::OperandPattern;
use piton_arch::topology::{Mesh, TileId};
use piton_arch::units::{Hertz, Seconds, Volts, Watts};
use piton_board::fault::FaultPlan;
use piton_board::monitor::MeasurementWindow;
use piton_board::population::NamedChip;
use piton_board::system::{PitonSystem, RailMeasurement};
use piton_power::model::{ChipCorner, OperatingPoint, RailPower};
use piton_power::thermal::ROOM_AMBIENT_C;
use piton_sim::machine::SwitchPattern;
use piton_workloads::epi::{epi_test, EpiCase};
use piton_workloads::micro::{load_microbenchmark, Microbenchmark, RunLength, ThreadsPerCore};

use crate::experiments::Fidelity;

/// A workload the bench can run: what one rate-library probe
/// exercises, and what the power experiments measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeKind {
    /// Clocks running, threads parked.
    Idle,
    /// One Figure 11 assembly test on all 25 cores.
    Epi(EpiCase, OperandPattern),
    /// Figure 12 invalidation traffic at one hop distance (driven by
    /// the chipset; nothing is loaded on the cores).
    Noc(SwitchPattern, usize),
    /// One microbenchmark configuration on a core count.
    Micro(Microbenchmark, ThreadsPerCore, usize),
    /// The Figure 17 thermal-study workload (HP, 2 T/C) at one thread
    /// count.
    Fig17(usize),
}

impl ProbeKind {
    fn load(self, sys: &mut PitonSystem, length: RunLength) {
        match self {
            Self::Idle | Self::Noc(..) => {}
            Self::Epi(case, pattern) => {
                for t in 0..25 {
                    sys.machine_mut()
                        .load_thread(TileId::new(t), 0, epi_test(case, pattern, t));
                }
            }
            Self::Micro(bench, tpc, cores) => {
                load_microbenchmark(sys.machine_mut(), bench, cores * tpc.count(), tpc, length);
            }
            Self::Fig17(threads) => {
                if threads > 0 {
                    let (hp, two) = (Microbenchmark::Hp, ThreadsPerCore::Two);
                    load_microbenchmark(sys.machine_mut(), hp, threads, two, length);
                }
            }
        }
    }
}

/// The rig a workload runs on: the die's corner, the seed of the
/// bench's monitor noise, and the VDD (VCS tracking) and core clock,
/// which default to Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rig {
    /// Process corner of the socketed die.
    pub corner: ChipCorner,
    /// Monitor-noise seed.
    pub seed: u64,
    /// Programmed VDD, if not Table III's.
    pub vdd: Option<Volts>,
    /// Core clock, if not Table III's.
    pub freq: Option<Hertz>,
}

impl Rig {
    /// A die at the Table III defaults.
    #[must_use]
    pub fn new(corner: ChipCorner, seed: u64) -> Self {
        Self {
            corner,
            seed,
            vdd: None,
            freq: None,
        }
    }

    /// The bench of [`PitonSystem::reference_chip_1`] (`_2`, `_3`).
    #[must_use]
    pub fn chip(chip: NamedChip) -> Self {
        Self::new(chip.corner(), chip as u64 + 1)
    }

    /// The same rig at another VDD and clock.
    #[must_use]
    pub fn at(self, vdd: Volts, freq: Hertz) -> Self {
        Self {
            vdd: Some(vdd),
            freq: Some(freq),
            ..self
        }
    }

    /// The §IV-J thermal-study rig: a fourth chip, "not presented in
    /// this paper thus far" (a slightly leaky mid corner), at 0.9 V and
    /// 100.01 MHz.
    #[must_use]
    pub fn thermal_study(seed: u64) -> Self {
        let corner = ChipCorner {
            speed: 1.01,
            leakage: 0.95,
            dynamic: 1.02,
        };
        Self::new(corner, seed).at(Volts(0.9), Hertz::from_mhz(100.01))
    }

    /// A fresh system on this rig, nothing loaded.
    #[must_use]
    pub fn system(&self) -> PitonSystem {
        let mut sys = PitonSystem::new(&ChipConfig::piton(), self.corner, self.seed);
        if let Some(vdd) = self.vdd {
            sys.set_vdd_tracked(vdd);
        }
        if let Some(freq) = self.freq {
            sys.set_frequency(freq);
        }
        sys
    }

    /// The operating point of a fresh [`Self::system`]: its setpoints
    /// at the ambient junction.
    #[must_use]
    pub fn op(&self) -> OperatingPoint {
        let op = OperatingPoint::table_iii().with_junction(ROOM_AMBIENT_C);
        let op = self.vdd.map_or(op, |vdd| op.with_vdd_tracked(vdd));
        self.freq.map_or(op, |freq| op.with_freq(freq))
    }
}

/// A measurement one backend cannot make: the analytic bench has power
/// rates but no notion of time to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsupported;

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("measurement unsupported by this bench")
    }
}

impl std::error::Error for Unsupported {}

/// The measurement calls the power experiments make. Each call builds
/// its own system from the rig, so calls are independent and a sweep
/// may issue them from any worker.
pub trait Bench: Sync {
    /// A warmed measurement window of `work` on `rig`: warm-up, then
    /// `fidelity.samples` monitor polls. `faults` attaches a fault plan
    /// whose seed is mixed with the given per-attempt seed.
    ///
    /// # Errors
    ///
    /// Whatever the window loses to the fault plan.
    fn measure(
        &self,
        rig: &Rig,
        work: ProbeKind,
        fidelity: Fidelity,
        faults: Option<(&FaultPlan, u64)>,
    ) -> Result<RailMeasurement, PitonError>;

    /// The idle baseline ([`PitonSystem::measure_idle_power`]).
    fn idle_power(&self, rig: &Rig, fidelity: Fidelity) -> Watts;

    /// Static power with clocks grounded, at the fresh system's
    /// junction.
    fn static_power(&self, rig: &Rig) -> RailPower;

    /// Table V on one system: static power at the leakage-only
    /// fixed point ([`PitonSystem::measure_static_power`]), then the
    /// idle baseline.
    fn table_v(&self, rig: &Rig, fidelity: Fidelity) -> (Watts, Watts);

    /// Mean model power (VDD + VCS) of Figure 12 invalidation traffic
    /// `hops` away from tile 0; the thermal state never advances.
    fn traffic_power(
        &self,
        rig: &Rig,
        pattern: SwitchPattern,
        hops: usize,
        fidelity: Fidelity,
    ) -> Watts;

    /// The Figure 17 capture: `work`'s activity over one plain window
    /// after warm-up, as the model power (VDD + VCS) it draws at any
    /// junction temperature.
    fn window(
        &self,
        rig: &Rig,
        work: ProbeKind,
        fidelity: Fidelity,
    ) -> Box<dyn Fn(f64) -> Watts + '_>;

    /// Time to complete `iterations` of `work`'s fixed-length variant.
    ///
    /// # Errors
    ///
    /// [`Unsupported`] on a bench that cannot time a run.
    fn run_time(
        &self,
        rig: &Rig,
        work: ProbeKind,
        iterations: u32,
        fidelity: Fidelity,
    ) -> Result<Seconds, Unsupported>;
}

/// The cycle-level bench: every call simulates its rig.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleBench;

impl CycleBench {
    /// `work` loaded on a fresh system of `rig`, simulating
    /// `fidelity.chunk_cycles` per monitor poll. Every rig-and-workload
    /// system of the power experiments and of the rate library is
    /// built here.
    #[must_use]
    pub fn system(
        rig: &Rig,
        work: ProbeKind,
        length: RunLength,
        fidelity: Fidelity,
    ) -> PitonSystem {
        let mut sys = rig.system();
        sys.set_chunk_cycles(fidelity.chunk_cycles);
        work.load(&mut sys, length);
        sys
    }
}

impl Bench for CycleBench {
    fn measure(
        &self,
        rig: &Rig,
        work: ProbeKind,
        fidelity: Fidelity,
        faults: Option<(&FaultPlan, u64)>,
    ) -> Result<RailMeasurement, PitonError> {
        let mut sys = Self::system(rig, work, RunLength::Forever, fidelity);
        if let Some((plan, seed)) = faults {
            let mut plan = plan.clone();
            plan.seed ^= seed;
            sys.inject_faults(&plan);
        }
        sys.warm_up(fidelity.warmup_cycles);
        sys.try_measure(fidelity.samples)
    }

    fn idle_power(&self, rig: &Rig, fidelity: Fidelity) -> Watts {
        Self::system(rig, ProbeKind::Idle, RunLength::Forever, fidelity)
            .measure_idle_power()
            .mean
    }

    fn static_power(&self, rig: &Rig) -> RailPower {
        let sys = rig.system();
        sys.power_model().static_power(sys.operating_point())
    }

    fn table_v(&self, rig: &Rig, fidelity: Fidelity) -> (Watts, Watts) {
        let mut sys = Self::system(rig, ProbeKind::Idle, RunLength::Forever, fidelity);
        let static_w = sys.measure_static_power().mean;
        (static_w, sys.measure_idle_power().mean)
    }

    fn traffic_power(
        &self,
        rig: &Rig,
        pattern: SwitchPattern,
        hops: usize,
        fidelity: Fidelity,
    ) -> Watts {
        let dst = Mesh::piton()
            .tile_at_distance(TileId::new(0), hops)
            .expect("5x5 mesh covers 0..=8 hops");
        let work = ProbeKind::Noc(pattern, hops);
        let mut sys = Self::system(rig, work, RunLength::Forever, fidelity);
        // Warm the link wire state, then sample power per chunk of
        // traffic.
        sys.machine_mut()
            .run_invalidation_traffic(dst, pattern, fidelity.warmup_cycles / 4);
        let mut window = MeasurementWindow::new();
        for _ in 0..fidelity.samples {
            let before = sys.machine().counters().clone();
            sys.machine_mut()
                .run_invalidation_traffic(dst, pattern, fidelity.chunk_cycles);
            let delta = sys.machine().counters().delta_since(&before);
            window.push(
                sys.power_model()
                    .power(&delta, sys.operating_point())
                    .total(),
            );
        }
        window.mean().expect("traffic window is never empty")
    }

    fn window(
        &self,
        rig: &Rig,
        work: ProbeKind,
        fidelity: Fidelity,
    ) -> Box<dyn Fn(f64) -> Watts + '_> {
        let mut sys = Self::system(rig, work, RunLength::Forever, fidelity);
        sys.warm_up(fidelity.warmup_cycles);
        let before = sys.machine().counters().clone();
        sys.machine_mut()
            .run(fidelity.chunk_cycles * fidelity.samples as u64);
        let delta = sys.machine().counters().delta_since(&before);
        let model = sys.power_model().clone();
        let op0 = sys.operating_point();
        Box::new(move |t| model.power(&delta, op0.with_junction(t)).total())
    }

    fn run_time(
        &self,
        rig: &Rig,
        work: ProbeKind,
        iterations: u32,
        fidelity: Fidelity,
    ) -> Result<Seconds, Unsupported> {
        let length = RunLength::Iterations(iterations);
        let run = Self::system(rig, work, length, fidelity).run_measured(400_000_000);
        assert!(run.completed, "{work:?} did not finish");
        Ok(run.elapsed)
    }
}
