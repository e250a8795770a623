//! One experiment per table and figure of the paper's evaluation.
//!
//! | module | reproduces |
//! |---|---|
//! | [`yield_stats`] | Table IV — chip testing statistics |
//! | [`area`] | Figure 8 — chip/tile/core area breakdown |
//! | [`vf_sweep`] | Figure 9 — maximum frequency vs VDD, three chips |
//! | [`static_idle`] | Figure 10 + Table V — static and idle power |
//! | [`epi`] | Figure 11 + Table VI — energy per instruction |
//! | [`memory_energy`] | Table VII — memory-system energy ladder |
//! | [`noc_energy`] | Figure 12 — NoC energy per flit vs hops |
//! | [`core_scaling`] | Figure 13 — power scaling with core count |
//! | [`mt_vs_mc`] | Figure 14 — multithreading vs multicore |
//! | [`specint`] | Tables VIII & IX + Figure 16 — SPECint study |
//! | [`mem_latency`] | Figure 15 — memory latency breakdown |
//! | [`thermal`] | Figures 17 & 18 — thermal characterization |
//! | [`governor`] | Figures 9 & 18, closed-loop — DVFS/thermal governor |
//! | [`design_space`] | beyond the paper — analytic VDD × f × cores × mix mega-sweep |
//!
//! Every module implements [`Section`] for each section it renders:
//! a grid that depends on the [`Fidelity`] alone, the inputs its points
//! share, the computation of one point, and the assembly and rendering
//! of the swept points. [`each`] is the ordered registry of all twenty;
//! their names are the journal sections, the `kill=`/`flaky=`/`crash=`
//! addresses and the `piton-serve` section names. Every grid runs
//! through [`runner::try_sweep_journaled`], so every section is
//! resumable, servable and fault-addressable. `reproduce` and its
//! `--backend both` comparison walk the registry with a [`Visit`]
//! ([`pass`] per backend); `piton-serve` looks a name up among its
//! [`Experiment`] trait objects ([`registry`], [`find`]), which carry
//! only what serving a point needs, so the daemon does not link every
//! section's assembly and rendering. The power experiments
//! ([`static_idle`], [`epi`], [`noc_energy`], [`core_scaling`],
//! [`mt_vs_mc`] and Figure 17 of [`thermal`]) measure through the
//! [`Env`]'s [`crate::bench::Bench`], so each runs unchanged on the
//! cycle engine or the analytic backend. Beyond the paper's artifacts,
//! [`ablations`] sweeps the modelled design choices (slice mapping,
//! store-buffer depth, thread-switch overhead, NoC router-versus-wire
//! split) the insights depend on.

pub mod ablations;
pub mod area;
pub mod core_scaling;
pub mod design_space;
pub mod epi;
pub mod governor;
pub mod mem_latency;
pub mod memory_energy;
pub mod mt_vs_mc;
pub mod noc_energy;
pub mod specint;
pub mod static_idle;
pub mod thermal;
pub mod vf_sweep;
pub mod yield_stats;

use std::any::Any;
use std::sync::{Arc, Mutex};

use piton_arch::error::PitonError;
use piton_board::fault::FaultPlan;

use crate::analytic::compare::FigureComparison;
use crate::analytic::Calibrated;
use crate::bench::{Bench, CycleBench};
use crate::journal::{Journal, JournalPayload};
use crate::report::{self, render_holes, Hole};
use crate::runner::{self, PointError};

pub use piton_arch::config::Backend;

/// Measurement effort knob: how many monitor samples back each reported
/// number and how many simulated cycles back each sample. A plain value:
/// fault plans and result journals are passed beside it by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fidelity {
    /// Monitor samples per measurement window (the paper uses 128).
    pub samples: usize,
    /// Simulated cycles behind each sample.
    pub chunk_cycles: u64,
    /// Warm-up cycles before sampling ("after the system reaches a
    /// steady state", §III-A).
    pub warmup_cycles: u64,
    /// Worker threads for independent sweep points (see
    /// [`crate::runner`]). `1` runs sweeps serially; results are
    /// byte-identical at every setting because each grid point builds
    /// its own isolated system.
    pub jobs: usize,
}

impl Fidelity {
    /// Paper-grade fidelity: 128 samples, long chunks.
    #[must_use]
    pub fn full() -> Self {
        Self {
            samples: 128,
            chunk_cycles: 20_000,
            warmup_cycles: 300_000,
            jobs: 1,
        }
    }

    /// Reduced fidelity for unit/integration tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            samples: 12,
            chunk_cycles: 3_000,
            warmup_cycles: 30_000,
            jobs: 1,
        }
    }

    /// Whether this is below paper grade (fewer samples than
    /// [`Fidelity::full`]): a reduced run sweeps the smaller Figure 13
    /// and 14 grids and the shorter Figure 16 and 18 series.
    #[must_use]
    pub fn is_reduced(&self) -> bool {
        self.samples < Self::full().samples
    }

    /// Same fidelity with `jobs` sweep workers.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }
}

impl Default for Fidelity {
    fn default() -> Self {
        Self::full()
    }
}

/// The backends a section runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runs {
    /// Reads no bench: once per run, whatever the backend.
    Always,
    /// Measures through the bench: once per selected backend, and
    /// compared across the two under `--backend both`.
    Bench,
    /// The cycle engine only.
    Cycle,
    /// The cycle engine only, and only under a `--governor` policy.
    Governed,
    /// The analytic backend only.
    Analytic,
}

impl Runs {
    /// The backend whose pass journals the section, meets the fault
    /// plan and answers `piton-serve`.
    #[must_use]
    pub fn natural(self) -> Backend {
        if self == Self::Analytic {
            Backend::Analytic
        } else {
            Backend::Cycle
        }
    }
}

/// What a section's points read besides their grid.
#[derive(Clone, Copy)]
pub struct Env<'a> {
    /// Measurement effort and sweep workers.
    pub fidelity: Fidelity,
    /// The bench that answers the power experiments' measurements.
    pub bench: &'a dyn Bench,
    /// The fault plan; a point meets it through the runner's sabotage
    /// gate, and the sections that measure under monitor faults (`epi`,
    /// `scaling`) also seed their windows from it.
    pub plan: Option<&'a FaultPlan>,
    /// The run's analytic rate library, when it built one.
    pub cal: Option<&'a Calibrated>,
}

impl<'a> Env<'a> {
    /// An environment without a rate library.
    #[must_use]
    pub fn new(bench: &'a dyn Bench, fidelity: Fidelity, plan: Option<&'a FaultPlan>) -> Self {
        Self {
            fidelity,
            bench,
            plan,
            cal: None,
        }
    }
}

/// A rendered section.
#[derive(Debug, Default)]
pub struct Rendered {
    /// The section body printed under its title.
    pub body: String,
    /// Grid points lost to faults.
    pub holes: Vec<Hole>,
    /// `(file name, contents)` of the section's CSV export.
    pub csv: Option<(&'static str, String)>,
}

impl Rendered {
    /// A body with no holes and no CSV.
    #[must_use]
    pub fn body(body: String) -> Self {
        Self {
            body,
            ..Self::default()
        }
    }
}

/// One swept point: its grid index, its grid point and its outcome.
pub type Measured<'a, S> = (
    usize,
    &'a <S as Section>::Point,
    Result<<S as Section>::Payload, PointError>,
);

/// One section of the evaluation, typed: what each experiment module
/// implements. [`Experiment`] is its object-safe face.
pub trait Section: Copy + std::fmt::Debug + Send + Sync + 'static {
    /// One grid point.
    type Point: std::fmt::Debug + Send + Sync + 'static;
    /// What every point of one fidelity shares (baselines, a rate
    /// library), built before the first point is computed.
    type Inputs: Send + Sync + 'static;
    /// The computed point, as journaled and served.
    type Payload: JournalPayload + Send;
    /// The section's typed result.
    type Output: 'static;
    /// Journal section, fault-plan address and serve name.
    const NAME: &'static str;
    /// The title printed above the section.
    const TITLE: &'static str;
    /// The backends the section runs on.
    const RUNS: Runs;
    /// Whether [`Section::assemble`] marks lost points in place. A
    /// section that does not is rendered as its hole list when a point
    /// is lost.
    const HOLE_AWARE: bool = false;

    /// The addressable grid: a function of the fidelity alone, so
    /// `reproduce` and `piton-serve` index the same points.
    fn grid(&self, fidelity: Fidelity) -> Vec<Self::Point>;

    /// The grid's length, without building it where that is cheaper.
    fn grid_len(&self, fidelity: Fidelity) -> usize {
        self.grid(fidelity).len()
    }

    /// The grid indices `reproduce` sweeps, when not all of them.
    fn shown(&self, _fidelity: Fidelity) -> Option<Vec<usize>> {
        None
    }

    /// A point's label in the hole list.
    fn label(&self, point: &Self::Point) -> String {
        format!("{point:?}")
    }

    /// Builds the inputs, fault-free.
    ///
    /// # Errors
    ///
    /// When an input cannot be built (a rate library's probe failed).
    fn prepare(&self, env: &Env) -> Result<Self::Inputs, PitonError>;

    /// Computes one point on one attempt.
    ///
    /// # Errors
    ///
    /// The point's measurement error.
    fn compute(&self, at: &At<Self>) -> Result<Self::Payload, PitonError>;

    /// Builds the result from the swept points, in index order. Without
    /// [`Section::HOLE_AWARE`] every point is `Ok`.
    fn assemble(
        &self,
        env: &Env,
        inputs: &Self::Inputs,
        points: Vec<Measured<'_, Self>>,
    ) -> Self::Output;

    /// Renders the result.
    fn render(&self, out: &Self::Output) -> Rendered;

    /// The analytic-vs-cycle comparison of a `--backend both` run.
    fn compare(
        &self,
        _cycle: Option<&Self::Output>,
        _analytic: &Self::Output,
        _env: &Env,
    ) -> Vec<FigureComparison> {
        Vec::new()
    }
}

/// One point to compute: what [`Section::compute`] reads.
pub struct At<'a, S: Section> {
    /// The run's environment.
    pub env: &'a Env<'a>,
    /// The section's inputs.
    pub inputs: &'a S::Inputs,
    /// The point's grid index.
    pub index: usize,
    /// The grid point.
    pub point: &'a S::Point,
    /// The attempt, from 0.
    pub attempt: u32,
}

/// Unwraps a point of a section without hole-aware cells.
pub(crate) fn whole<T>(r: Result<T, PointError>) -> T {
    r.expect("a section without hole-aware cells assembles only whole sweeps")
}

/// Groups consecutive `(key, item)` pairs by key, in order.
pub(crate) fn grouped<K: PartialEq, T>(
    pairs: impl IntoIterator<Item = (K, T)>,
) -> Vec<(K, Vec<T>)> {
    let mut out: Vec<(K, Vec<T>)> = Vec::new();
    for (k, t) in pairs {
        match out.last_mut() {
            Some((last, items)) if *last == k => items.push(t),
            _ => out.push((k, vec![t])),
        }
    }
    out
}

/// A section's result, or the holes of a section without hole-aware
/// cells that lost points.
pub type Outcome<T> = Result<T, Vec<Hole>>;

/// Sweeps `indices` of `grid` — by default the indices the section
/// shows — through [`runner::try_sweep_journaled`] and assembles the
/// section's result.
///
/// # Errors
///
/// When the section's inputs cannot be built.
pub fn sweep<S: Section>(
    s: &S,
    env: &Env,
    journal: Option<&Mutex<Journal>>,
    grid: &[S::Point],
    indices: Option<Vec<usize>>,
) -> Result<Outcome<S::Output>, PitonError> {
    let indices = indices
        .or_else(|| s.shown(env.fidelity))
        .unwrap_or_else(|| (0..grid.len()).collect());
    let inputs = s.prepare(&Env { plan: None, ..*env })?;
    let results = runner::try_sweep_journaled(
        env.fidelity.jobs,
        indices.iter().map(|&i| (i, ())).collect(),
        S::NAME,
        env.plan,
        journal,
        |index, (), attempt| {
            s.compute(&At {
                env,
                inputs: &inputs,
                index,
                point: &grid[index],
                attempt,
            })
        },
    );
    let measured: Vec<Measured<S>> = indices
        .into_iter()
        .zip(results)
        .map(|(i, r)| (i, &grid[i], r))
        .collect();
    if !S::HOLE_AWARE {
        let holes: Vec<Hole> = measured
            .iter()
            .filter_map(|(_, p, r)| {
                let e = r.as_ref().err()?;
                Some(report::hole(S::NAME, s.label(p), e))
            })
            .collect();
        if !holes.is_empty() {
            return Ok(Err(holes));
        }
    }
    Ok(Ok(s.assemble(env, &inputs, measured)))
}

/// Sweeps the section's shown grid: the typed `run` functions.
///
/// # Panics
///
/// When the inputs cannot be built or a section without hole-aware
/// cells lost a point.
pub fn run<S: Section>(s: S, env: &Env, journal: Option<&Mutex<Journal>>) -> S::Output {
    run_points(s, env, journal, &s.grid(env.fidelity), None)
}

/// [`run`] over an explicit grid and selection.
///
/// # Panics
///
/// As [`run`].
pub fn run_points<S: Section>(
    s: S,
    env: &Env,
    journal: Option<&Mutex<Journal>>,
    grid: &[S::Point],
    indices: Option<Vec<usize>>,
) -> S::Output {
    match sweep(&s, env, journal, grid, indices) {
        Ok(Ok(out)) => out,
        Ok(Err(holes)) => panic!("{}: {} point(s) lost", S::NAME, holes.len()),
        Err(e) => panic!("{}: inputs: {e}", S::NAME),
    }
}

/// Sweeps the section's shown grid and renders it: one pass of a
/// driver. Returns the rendering and, when the section assembled, its
/// typed result (a section without hole-aware cells that lost points
/// renders as its hole list).
///
/// # Errors
///
/// When the inputs cannot be built.
pub fn pass<S: Section>(
    s: &S,
    env: &Env,
    journal: Option<&Mutex<Journal>>,
) -> Result<(Rendered, Option<S::Output>), PitonError> {
    Ok(match sweep(s, env, journal, &s.grid(env.fidelity), None)? {
        Ok(out) => (s.render(&out), Some(out)),
        Err(holes) => {
            let body = render_holes(&holes);
            let rendered = Rendered {
                body,
                holes,
                csv: None,
            };
            (rendered, None)
        }
    })
}

/// A per-point compute closure: (index, attempt) → the point's journal
/// payload text. The journaled sweep that calls it owns the fault gate.
pub type PointFn = Box<dyn Fn(usize, u32) -> Result<String, PitonError> + Send + Sync>;

/// A section's inputs, type-erased.
pub type Prepared = Arc<dyn Any + Send + Sync>;

/// A [`Section`] as a trait object: what `piton-serve` looks up by name.
/// A driver that sweeps and renders whole sections walks the registry
/// with [`each`] instead, so a binary that only serves points does not
/// link every section's assembly and rendering.
pub trait Experiment: std::fmt::Debug + Sync {
    /// Journal section, fault-plan address and serve name.
    fn name(&self) -> &'static str;
    /// The backends the section runs on.
    fn runs(&self) -> Runs;
    /// The addressable grid's length at `fidelity`.
    fn len(&self, fidelity: Fidelity) -> usize;
    /// Builds the inputs of the natural backend at `fidelity`.
    ///
    /// # Errors
    ///
    /// When the inputs cannot be built.
    fn inputs(&self, fidelity: Fidelity) -> Result<Prepared, PitonError>;
    /// The closure that computes one point on the natural backend from
    /// inputs [`Experiment::inputs`] built at the same fidelity.
    fn point_fn(&self, fidelity: Fidelity, plan: Option<FaultPlan>, inputs: Prepared) -> PointFn;
}

impl<S: Section> Experiment for S {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn runs(&self) -> Runs {
        S::RUNS
    }

    fn len(&self, fidelity: Fidelity) -> usize {
        self.grid_len(fidelity)
    }

    fn inputs(&self, fidelity: Fidelity) -> Result<Prepared, PitonError> {
        let env = Env::new(&CycleBench, fidelity, None);
        Ok(Arc::new(self.prepare(&env)?))
    }

    fn point_fn(&self, fidelity: Fidelity, plan: Option<FaultPlan>, inputs: Prepared) -> PointFn {
        let s = *self;
        let grid = s.grid(fidelity);
        let inputs = inputs
            .downcast::<S::Inputs>()
            .unwrap_or_else(|_| panic!("{}: inputs of another section", S::NAME));
        Box::new(move |index, attempt| {
            let env = Env::new(&CycleBench, fidelity, plan.as_ref());
            let at = At {
                env: &env,
                inputs: &*inputs,
                index,
                point: &grid[index],
                attempt,
            };
            s.compute(&at).map(|p| p.to_text())
        })
    }
}

/// What a driver does with each section of the registry.
pub trait Visit {
    /// Called once per section, in report order.
    fn visit<S: Section>(&mut self, s: &'static S);
}

/// The registry: visits every section of the evaluation, in report
/// order.
pub fn each(v: &mut impl Visit) {
    v.visit(&yield_stats::Yield);
    v.visit(&area::Area);
    v.visit(&vf_sweep::Vf);
    v.visit(&static_idle::StaticIdle);
    v.visit(&epi::Epi);
    v.visit(&memory_energy::MemoryEnergy);
    v.visit(&noc_energy::Noc);
    v.visit(&core_scaling::Scaling);
    v.visit(&mt_vs_mc::MtMc);
    v.visit(&specint::TableViii);
    v.visit(&specint::Specint);
    v.visit(&mem_latency::MemLatency);
    v.visit(&specint::TimeSeries);
    v.visit(&thermal::ThermalPower);
    v.visit(&thermal::Scheduling);
    v.visit(&governor::Boundary);
    v.visit(&governor::Hysteresis);
    v.visit(&governor::Frontier);
    v.visit(&ablations::Ablations);
    v.visit(&design_space::DesignSpace);
}

/// The registry's sections as trait objects, in report order.
#[must_use]
pub fn registry() -> Vec<&'static dyn Experiment> {
    struct List(Vec<&'static dyn Experiment>);
    impl Visit for List {
        fn visit<S: Section>(&mut self, s: &'static S) {
            self.0.push(s);
        }
    }
    let mut list = List(Vec::new());
    each(&mut list);
    list.0
}

/// The section named `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    registry().into_iter().find(|e| e.name() == name)
}

/// The registry's section names: the journal sections and fault-plan
/// addresses.
#[must_use]
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|e| e.name()).collect()
}

/// Parses a fault plan whose grid-point entries must name registry
/// sections.
///
/// # Errors
///
/// [`PitonError::BadPlan`] naming the offending entry.
pub fn parse_plan(spec: &str) -> Result<FaultPlan, PitonError> {
    FaultPlan::parse(spec, &names())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_unknown_sections_naming_the_token() {
        for bad in ["kill=epy:3", "flaky=nock:5", "crash=scalin:0"] {
            let e = parse_plan(bad).unwrap_err();
            let msg = e.to_string();
            assert!(matches!(e, PitonError::BadPlan { .. }), "{bad} gave {e:?}");
            assert!(msg.contains(bad), "{msg:?} should name the token {bad:?}");
            assert!(msg.contains("unknown section"), "{msg:?}");
        }
        // All registry sections are accepted by every grid-point key.
        for section in names() {
            for key in ["kill", "flaky", "crash"] {
                parse_plan(&format!("{key}={section}:0")).unwrap();
            }
        }
    }

    #[test]
    fn registry_names_are_unique_and_keep_the_journaled_four() {
        let mut names = names();
        for old in ["epi", "noc", "scaling", "design_space"] {
            assert!(names.contains(&old), "{old}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len());
    }
}
