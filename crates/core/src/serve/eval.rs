//! Resolves a run request to a serveable section: the grid length and
//! the derived cache context, plus — only when a point must be
//! computed — a per-point compute closure that is bit-identical to the
//! full experiment sweep.
//!
//! Three journal sections are serveable — the ones whose grids are
//! pure functions of (index, context):
//!
//! | section | grid | backend | payload |
//! |---|---|---|---|
//! | `noc` | 4 patterns × 9 hop counts = 36 | cycle | watts |
//! | `scaling` | 3 benches × 2 T/C × 25 cores = 150 | cycle | watts (f64) |
//! | `design_space` | 105,000 V/f/cores/mix points | analytic | power/EPI/junction |
//!
//! The `design_space` section needs the analytic model's rate library:
//! the 21 probes [`design_space::probe_specs`] names, which depend on
//! the request's fidelity alone. The daemon runs them on the first miss
//! at each fidelity and keeps the result in a map the
//! [`super::Server`] owns. A request whose every point is cached never
//! asks for a compute closure, so it never calibrates. A served point
//! is bit-identical to the one `reproduce` computes from the full
//! library, because the sweep reads only those 21 probes.

use std::sync::Arc;

use piton_arch::config::Backend;
use piton_arch::error::PitonError;
use piton_board::fault::FaultPlan;
use piton_obs::json::{self, Value};

use super::{Calibrations, ServeCounters};
use crate::analytic::{self, Calibrated};
use crate::bench::CycleBench;
use crate::experiments::{core_scaling, design_space, noc_energy};
use crate::journal::{self, JournalPayload};
use crate::serve::request::{FidelitySpec, RunRequest};

/// The serveable journal sections.
pub const SECTIONS: [&str; 3] = ["noc", "scaling", "design_space"];

/// A per-point compute closure: (index, attempt) → journal payload.
pub type PointFn = Box<dyn Fn(usize, u32) -> Result<PayloadText, PitonError> + Send + Sync>;

/// A journal payload held as its point-line text: a cached point is
/// served as the stored bytes and a computed one is rendered once, so
/// neither is parsed or re-rendered on its way to a result frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadText(pub String);

impl JournalPayload for PayloadText {
    fn to_value(&self) -> Value {
        json::parse(&self.0).expect("payload text is the JSON it was rendered as")
    }

    fn from_value(v: &Value) -> Result<Self, PitonError> {
        Ok(Self(v.render()))
    }

    fn to_text(&self) -> String {
        self.0.clone()
    }

    fn from_text(text: &str) -> Result<Self, PitonError> {
        Ok(Self(text.to_owned()))
    }
}

#[derive(Debug, Clone, Copy)]
enum Section {
    Noc,
    Scaling,
    DesignSpace,
}

/// A resolved section: everything the serving loop needs to answer a
/// run request from the cache, and what [`SectionEval::compute_fn`]
/// needs to compute its misses.
#[derive(Debug)]
pub struct SectionEval {
    /// The cache-key context string this request resolved to.
    pub context: String,
    /// The engine that computes misses.
    pub backend: Backend,
    /// Grid length (requests index `0..len`).
    pub len: usize,
    section: Section,
    fidelity: FidelitySpec,
    plan: Option<FaultPlan>,
}

impl SectionEval {
    /// The closure that computes one grid point (cache-miss path) on a
    /// given attempt, already encoded as its journal payload. For
    /// `design_space` this is where the rate library is built, on the
    /// first call at each fidelity; every build counts in
    /// `serve.calibrations`.
    ///
    /// # Errors
    ///
    /// Calibration failures for `design_space`. The closure itself
    /// propagates measurement and injected-sabotage failures.
    pub fn compute_fn(
        &self,
        calibrations: &Calibrations,
        counters: &ServeCounters,
    ) -> Result<PointFn, PitonError> {
        let fidelity = self.fidelity.to_fidelity();
        let plan = self.plan.clone();
        Ok(match self.section {
            Section::Noc => {
                let grid = noc_energy::grid();
                Box::new(move |idx, attempt| {
                    noc_energy::compute_point(
                        &CycleBench,
                        idx,
                        &grid[idx],
                        fidelity,
                        plan.as_ref(),
                        attempt,
                    )
                    .map(|w| PayloadText(w.to_text()))
                })
            }
            Section::Scaling => {
                let grid = core_scaling::grid();
                Box::new(move |idx, attempt| {
                    core_scaling::compute_point(
                        &CycleBench,
                        idx,
                        &grid[idx],
                        fidelity,
                        plan.as_ref(),
                        attempt,
                    )
                    .map(|w| PayloadText(w.to_text()))
                })
            }
            Section::DesignSpace => {
                let cal = calibration_for(calibrations, &self.fidelity, counters)?;
                let table = design_space::mix_table(&cal);
                let grid = design_space::grid();
                Box::new(move |idx, attempt| {
                    design_space::compute_point(
                        &cal,
                        &table,
                        idx,
                        grid[idx],
                        plan.as_ref(),
                        attempt,
                    )
                    .map(|d| PayloadText(d.to_text()))
                })
            }
        })
    }
}

/// The `design_space` rate library at fidelity `spec`, built on first
/// use and kept in the daemon's `calibrations` map. The map is keyed by
/// the fidelity alone because the probes read nothing else: they run
/// fault-free, so every fault plan at one fidelity shares a library.
fn calibration_for(
    calibrations: &Calibrations,
    spec: &FidelitySpec,
    counters: &ServeCounters,
) -> Result<Arc<Calibrated>, PitonError> {
    let key = spec.render();
    if let Some(cal) = calibrations.lock().expect("calibration map lock").get(&key) {
        return Ok(Arc::clone(cal));
    }
    // Calibrate outside the lock: it is expensive, and a concurrent
    // duplicate is benign — calibration is deterministic, so whichever
    // copy lands in the map serves identical numbers.
    counters.calibrations(1);
    let cal = Arc::new(analytic::calibrate(
        spec.to_fidelity(),
        design_space::probe_specs(),
    )?);
    Ok(Arc::clone(
        calibrations
            .lock()
            .expect("calibration map lock")
            .entry(key)
            .or_insert(cal),
    ))
}

/// Resolves a run request against the section registry. Computes
/// nothing: misses get their closure from [`SectionEval::compute_fn`].
///
/// # Errors
///
/// [`PitonError::Codec`] for an unknown section or a section/backend
/// mismatch.
pub fn resolve(req: &RunRequest) -> Result<SectionEval, PitonError> {
    let (section, natural, len) = match req.section.as_str() {
        "noc" => (Section::Noc, Backend::Cycle, noc_energy::grid().len()),
        "scaling" => (Section::Scaling, Backend::Cycle, core_scaling::grid().len()),
        "design_space" => (
            Section::DesignSpace,
            Backend::Analytic,
            design_space::GRID_POINTS,
        ),
        other => {
            return Err(PitonError::codec(format!(
                "unknown section {other:?} (serveable: {})",
                SECTIONS.join(", ")
            )))
        }
    };
    let backend = req.backend.unwrap_or(natural);
    if backend != natural {
        return Err(PitonError::codec(format!(
            "section {:?} is served by the {} backend only, not {}",
            req.section,
            natural.label(),
            backend.label()
        )));
    }
    Ok(SectionEval {
        context: journal::run_context(&req.fidelity.render(), req.fault.as_ref(), backend),
        backend,
        len,
        section,
        fidelity: req.fidelity,
        plan: req.fault.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::request::Request;

    fn resolve_run(json: &str) -> Result<SectionEval, PitonError> {
        match Request::parse(json).unwrap() {
            Request::Run(r) => resolve(&r),
            other => panic!("expected a run request, got {other:?}"),
        }
    }

    #[test]
    fn sections_resolve_with_natural_backends_and_grid_lengths() {
        let noc = resolve_run(r#"{"op":"run","section":"noc"}"#).unwrap();
        assert_eq!((noc.backend, noc.len), (Backend::Cycle, 36));
        let scaling = resolve_run(r#"{"op":"run","section":"scaling"}"#).unwrap();
        assert_eq!((scaling.backend, scaling.len), (Backend::Cycle, 150));
        let ds = resolve_run(r#"{"op":"run","section":"design_space"}"#).unwrap();
        assert_eq!((ds.backend, ds.len), (Backend::Analytic, 105_000));
        assert!(noc.context.contains("backend=cycle"), "{}", noc.context);
        assert!(noc.context.contains("fidelity=quick"), "{}", noc.context);
    }

    #[test]
    fn unknown_sections_and_backend_mismatches_are_refused() {
        assert!(resolve_run(r#"{"op":"run","section":"epi"}"#).is_err());
        let err = resolve_run(r#"{"op":"run","section":"noc","backend":"analytic"}"#).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
        assert!(resolve_run(r#"{"op":"run","section":"design_space","backend":"cycle"}"#).is_err());
    }

    #[test]
    fn context_discriminates_every_knob() {
        let base = resolve_run(r#"{"op":"run","section":"noc"}"#)
            .unwrap()
            .context;
        for variant in [
            r#"{"op":"run","section":"noc","fidelity":"full"}"#,
            r#"{"op":"run","section":"noc","fidelity":"s=4,c=1000,w=4000"}"#,
            r#"{"op":"run","section":"noc","fault":"seed=7,drop=0.25"}"#,
        ] {
            let ctx = resolve_run(variant).unwrap().context;
            assert_ne!(ctx, base, "{variant}");
        }
        // Crash points decide when the process dies, never what it
        // computes: they must NOT shift the context.
        let crash = resolve_run(r#"{"op":"run","section":"noc","fault":"crash=noc:3"}"#)
            .unwrap()
            .context;
        assert_eq!(crash, base);
    }

    #[test]
    fn computed_points_match_the_experiment_sweep_exactly() {
        let counters = ServeCounters::default();
        let compute = resolve_run(r#"{"op":"run","section":"noc","fidelity":"s=2,c=500,w=2000"}"#)
            .unwrap()
            .compute_fn(&Calibrations::default(), &counters)
            .unwrap();
        let grid = noc_energy::grid();
        let fidelity = FidelitySpec::parse("s=2,c=500,w=2000")
            .unwrap()
            .to_fidelity();
        for idx in [0usize, 5, 17, 35] {
            let direct =
                noc_energy::compute_point(&CycleBench, idx, &grid[idx], fidelity, None, 0).unwrap();
            assert_eq!(compute(idx, 0).unwrap().0, direct.to_text(), "{idx}");
        }
        assert_eq!(counters.value("serve.calibrations"), 0);
    }
}
