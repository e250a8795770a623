//! Resolves a run request to a registry section
//! ([`experiments::find`]): the grid length and the derived cache
//! context, plus — only when a point must be computed — a per-point
//! compute closure that is bit-identical to the section's sweep in
//! `reproduce`.
//!
//! Every registry section is servable on its natural backend
//! ([`Runs::natural`](crate::experiments::Runs::natural)): the analytic
//! backend for `design_space`, the cycle engine for the rest. A
//! section's grid is a function of the request's fidelity alone, so a
//! served index is the point `reproduce` journals under that index.
//!
//! | section | grid | backend | payload |
//! |---|---|---|---|
//! | `noc` | 4 patterns × 9 hop counts = 36 | cycle | watts |
//! | `scaling` | 3 benches × 2 T/C × 25 cores = 150 | cycle | watts (f64) |
//! | `design_space` | 105,000 V/f/cores/mix points | analytic | power/EPI/junction |
//! | the other 17 | the section's grid | cycle | the section's payload |
//!
//! A section's inputs (`epi`'s idle and `nop` baselines, `mt_mc`'s chip
//! idle, `design_space`'s rate library — the 21 probes
//! [`probe_specs`](crate::experiments::design_space::probe_specs) names) depend on the request's
//! fidelity alone. The daemon builds them on the first miss at each
//! fidelity and keeps them in a map the [`super::Server`] owns; each
//! rate-library build counts in `serve.calibrations`. A request whose
//! every point is cached never asks for a compute closure, so it never
//! builds inputs. A served `design_space` point is bit-identical to the
//! one `reproduce` computes from the full library, because the sweep
//! reads only those 21 probes.

use std::sync::Arc;

use piton_arch::config::Backend;
use piton_arch::error::PitonError;
use piton_board::fault::FaultPlan;

use super::{SectionInputs, ServeCounters};
use crate::experiments::{self, Experiment, PointFn, Prepared, Runs};
use crate::journal;
use crate::serve::request::{FidelitySpec, RunRequest};

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
    experiment: &'static dyn Experiment,
    fidelity: FidelitySpec,
    plan: Option<FaultPlan>,
}

impl SectionEval {
    /// The closure that computes one grid point (cache-miss path) on a
    /// given attempt, already encoded as its journal payload. This is
    /// where the section's inputs are built, on the first call at each
    /// fidelity.
    ///
    /// # Errors
    ///
    /// Input failures (a rate-library probe). The closure itself
    /// propagates measurement failures.
    pub fn compute_fn(
        &self,
        inputs: &SectionInputs,
        counters: &ServeCounters,
    ) -> Result<PointFn, PitonError> {
        let prepared = inputs_for(inputs, self.experiment, &self.fidelity, counters)?;
        Ok(self
            .experiment
            .point_fn(self.fidelity.to_fidelity(), self.plan.clone(), prepared))
    }
}

/// The section's inputs at fidelity `spec`, built on first use and kept
/// in the daemon's map. The map is keyed by section and fidelity alone
/// because inputs are built fault-free, so every fault plan at one
/// fidelity shares them.
fn inputs_for(
    inputs: &SectionInputs,
    experiment: &dyn Experiment,
    spec: &FidelitySpec,
    counters: &ServeCounters,
) -> Result<Prepared, PitonError> {
    let key = (experiment.name(), spec.render());
    if let Some(prepared) = inputs.lock().expect("inputs map lock").get(&key) {
        return Ok(Arc::clone(prepared));
    }
    // Build outside the lock: it is expensive, and a concurrent
    // duplicate is benign — inputs are deterministic, so whichever copy
    // lands in the map serves identical numbers.
    if experiment.runs() == Runs::Analytic {
        counters.calibrations(1);
    }
    let prepared = experiment.inputs(spec.to_fidelity())?;
    Ok(Arc::clone(
        inputs
            .lock()
            .expect("inputs map lock")
            .entry(key)
            .or_insert(prepared),
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
    let experiment = experiments::find(&req.section).ok_or_else(|| {
        PitonError::codec(format!(
            "unknown section {:?} (serveable: {})",
            req.section,
            experiments::names().join(", ")
        ))
    })?;
    let natural = experiment.runs().natural();
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
        len: experiment.len(req.fidelity.to_fidelity()),
        experiment,
        fidelity: req.fidelity,
        plan: req.fault.clone(),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::analytic::Calibrated;
    use crate::bench::CycleBench;
    use crate::experiments::{design_space, Env, Section, Visit};
    use crate::journal::Journal;
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
        assert!(resolve_run(r#"{"op":"run","section":"figure_99"}"#).is_err());
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

    /// A served point equals the point the section's sweep journals,
    /// for every registry section: the last grid index at a tiny
    /// fidelity (`design_space` swept from a rate library of its own 21
    /// probes, served from the one the daemon builds).
    #[test]
    fn computed_points_match_the_experiment_sweep_exactly() {
        struct ServedIsSwept {
            cal: Calibrated,
            inputs: SectionInputs,
            counters: ServeCounters,
        }
        impl Visit for ServedIsSwept {
            fn visit<S: Section>(&mut self, s: &'static S) {
                let spec = "s=2,c=500,w=2000";
                let fidelity = FidelitySpec::parse(spec).unwrap().to_fidelity();
                let env = Env {
                    cal: Some(&self.cal),
                    ..Env::new(&CycleBench, fidelity, None)
                };
                let path = std::env::temp_dir().join(format!(
                    "piton-eval-{}-{}",
                    S::NAME,
                    std::process::id()
                ));
                let _ = std::fs::remove_file(&path);
                let journal = Mutex::new(Journal::open(&path, "eval-test").unwrap());
                experiments::pass(s, &env, Some(&journal)).unwrap();
                let req = format!(
                    r#"{{"op":"run","section":"{}","fidelity":"{spec}"}}"#,
                    S::NAME
                );
                let compute = resolve_run(&req)
                    .unwrap()
                    .compute_fn(&self.inputs, &self.counters)
                    .unwrap();
                let idx = s.len(fidelity) - 1;
                let mut j = journal.lock().unwrap();
                let swept = j.serve(S::NAME, idx).expect("the last point is swept");
                assert_eq!(compute(idx, 0).unwrap(), swept, "{}:{idx}", S::NAME);
                let _ = std::fs::remove_file(&path);
            }
        }
        let fidelity = FidelitySpec::parse("s=2,c=500,w=2000")
            .unwrap()
            .to_fidelity();
        let mut check = ServedIsSwept {
            cal: crate::analytic::calibrate(fidelity, design_space::probe_specs()).unwrap(),
            inputs: SectionInputs::default(),
            counters: ServeCounters::default(),
        };
        experiments::each(&mut check);
        assert_eq!(check.counters.value("serve.calibrations"), 1);
    }
}
