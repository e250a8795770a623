//! The request side of the `piton-serve` wire protocol: one JSON
//! object per line, parsed into a typed [`Request`].
//!
//! A request either runs an experiment grid subset (`op: "run"`) or is
//! one of the control operations (`ping`, `metrics`, `shutdown`). The
//! run payload reuses the workspace's one-line spec grammars as string
//! fields: [`GridSpec`] for the index selection, the fault-plan
//! grammar for sabotage/crash injection, and the [`FidelitySpec`]
//! grammar (`quick`, `full`, or `s=N,c=N,w=N`) for measurement effort:
//!
//! ```text
//! {"op":"run","section":"scaling","grid":"0-11","fidelity":"quick"}
//! {"op":"run","id":"warm-1","section":"noc","grid":"all","fault":"seed=7,kill=noc:3"}
//! {"op":"metrics"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```

use piton_arch::config::Backend;
use piton_arch::error::PitonError;
use piton_arch::request::GridSpec;
use piton_board::fault::FaultPlan;
use piton_obs::json::{self, Value};

use crate::experiments::Fidelity;

/// Measurement-effort selector: the two named presets, or an explicit
/// `s=<samples>,c=<chunk cycles>,w=<warmup cycles>` triple (used by
/// tests to keep served grids cheap without losing cache-key
/// discrimination — a custom spec renders canonically and feeds the
/// context string verbatim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FidelitySpec {
    /// The `Fidelity::quick` preset.
    Quick,
    /// The `Fidelity::full` preset.
    Full,
    /// Explicit knobs over the quick preset's defaults.
    Custom {
        /// Monitor samples per measurement window.
        samples: usize,
        /// Simulated cycles behind each sample.
        chunk_cycles: u64,
        /// Warm-up cycles before sampling.
        warmup_cycles: u64,
    },
}

fn bad(what: impl Into<String>) -> PitonError {
    PitonError::BadPlan { what: what.into() }
}

impl FidelitySpec {
    /// Parses `quick`, `full`, or `s=N,c=N,w=N` (all three keys
    /// required, any order, each exactly once).
    ///
    /// # Errors
    ///
    /// [`PitonError::BadPlan`] naming the offending term.
    pub fn parse(spec: &str) -> Result<Self, PitonError> {
        match spec {
            "quick" => return Ok(Self::Quick),
            "full" => return Ok(Self::Full),
            _ => {}
        }
        let mut samples: Option<usize> = None;
        let mut chunk: Option<u64> = None;
        let mut warmup: Option<u64> = None;
        for term in spec.split(',') {
            let (key, val) = term
                .split_once('=')
                .ok_or_else(|| bad(format!("fidelity spec term {term:?} is not key=value")))?;
            let num = |what: &str| -> Result<u64, PitonError> {
                val.parse::<u64>()
                    .map_err(|_| bad(format!("fidelity spec {what} {val:?} is not a number")))
            };
            let slot_taken = |key: &str| bad(format!("fidelity spec repeats '{key}'"));
            match key {
                "s" => {
                    if samples.replace(num("samples")? as usize).is_some() {
                        return Err(slot_taken("s"));
                    }
                }
                "c" => {
                    if chunk.replace(num("chunk cycles")?).is_some() {
                        return Err(slot_taken("c"));
                    }
                }
                "w" => {
                    if warmup.replace(num("warmup cycles")?).is_some() {
                        return Err(slot_taken("w"));
                    }
                }
                other => {
                    return Err(bad(format!(
                        "unknown fidelity key {other:?} (expected s, c, or w)"
                    )))
                }
            }
        }
        match (samples, chunk, warmup) {
            (Some(s), Some(c), Some(w)) if s > 0 && c > 0 => Ok(Self::Custom {
                samples: s,
                chunk_cycles: c,
                warmup_cycles: w,
            }),
            (Some(_), Some(_), Some(_)) => {
                Err(bad("fidelity spec needs s > 0 and c > 0".to_owned()))
            }
            _ => Err(bad(format!(
                "fidelity spec {spec:?} must name all of s=, c=, w= (or be 'quick'/'full')"
            ))),
        }
    }

    /// The canonical spelling — what the cache-key context string
    /// embeds, so `parse(render(f)) == f` holds exactly.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Self::Quick => "quick".to_owned(),
            Self::Full => "full".to_owned(),
            Self::Custom {
                samples,
                chunk_cycles,
                warmup_cycles,
            } => format!("s={samples},c={chunk_cycles},w={warmup_cycles}"),
        }
    }

    /// The resolved measurement knobs (serial; the serving layer sets
    /// its own worker count at the sweep, not per-point).
    #[must_use]
    pub fn to_fidelity(self) -> Fidelity {
        match self {
            Self::Quick => Fidelity::quick(),
            Self::Full => Fidelity::full(),
            Self::Custom {
                samples,
                chunk_cycles,
                warmup_cycles,
            } => Fidelity {
                samples,
                chunk_cycles,
                warmup_cycles,
                ..Fidelity::quick()
            },
        }
    }
}

/// One `op: "run"` request: which section, which grid subset, and the
/// context-defining knobs (fidelity, backend, fault plan).
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Caller-chosen correlation tag, echoed in the hello/done frames.
    pub id: Option<String>,
    /// Journal section name (`noc`, `scaling`, `design_space`).
    pub section: String,
    /// Grid-point selection.
    pub grid: GridSpec,
    /// Measurement effort.
    pub fidelity: FidelitySpec,
    /// Requested engine; `None` uses the section's natural backend.
    pub backend: Option<Backend>,
    /// Parsed fault plan, if any.
    pub fault: Option<FaultPlan>,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run (or serve from cache) a grid subset.
    Run(Box<RunRequest>),
    /// Report the `serve.*` counters.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Drain connections and exit cleanly.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] on malformed JSON or missing/ill-typed
    /// fields; [`PitonError::BadPlan`] from the embedded grid, fault
    /// and fidelity grammars.
    pub fn parse(line: &str) -> Result<Self, PitonError> {
        let v = json::parse(line).map_err(|e| PitonError::codec(format!("request: {e}")))?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| PitonError::codec("request missing string 'op'"))?;
        match op {
            "ping" => Ok(Self::Ping),
            "metrics" => Ok(Self::Metrics),
            "shutdown" => Ok(Self::Shutdown),
            "run" => {
                let text = |key: &str| -> Result<Option<String>, PitonError> {
                    match v.get(key) {
                        None | Some(Value::Null) => Ok(None),
                        Some(Value::Str(s)) => Ok(Some(s.clone())),
                        Some(_) => Err(PitonError::codec(format!(
                            "request field '{key}' must be a string"
                        ))),
                    }
                };
                let section = text("section")?
                    .ok_or_else(|| PitonError::codec("run request missing 'section'"))?;
                let grid = match text("grid")? {
                    None => GridSpec::all(),
                    Some(s) => GridSpec::parse(&s)?,
                };
                let fidelity = match text("fidelity")? {
                    None => FidelitySpec::Quick,
                    Some(s) => FidelitySpec::parse(&s)?,
                };
                let backend = match text("backend")? {
                    None => None,
                    Some(s) => Some(Backend::parse(&s).map_err(PitonError::codec)?),
                };
                let fault = match text("fault")? {
                    None => None,
                    Some(s) => Some(crate::experiments::parse_plan(&s)?),
                };
                Ok(Self::Run(Box::new(RunRequest {
                    id: text("id")?,
                    section,
                    grid,
                    fidelity,
                    backend,
                    fault,
                })))
            }
            other => Err(PitonError::codec(format!(
                "unknown request op {other:?} (expected run, metrics, ping, shutdown)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_parses_with_defaults() {
        let r = Request::parse(r#"{"op":"run","section":"scaling"}"#).unwrap();
        let Request::Run(run) = r else {
            panic!("expected a run request")
        };
        assert_eq!(run.section, "scaling");
        assert!(run.grid.is_all());
        assert_eq!(run.fidelity, FidelitySpec::Quick);
        assert!(run.backend.is_none() && run.fault.is_none() && run.id.is_none());
    }

    #[test]
    fn run_request_parses_every_field() {
        let r = Request::parse(
            r#"{"op":"run","id":"x1","section":"noc","grid":"0-8,12",
                "fidelity":"s=4,c=1000,w=4000","backend":"cycle","fault":"seed=7,kill=noc:3"}"#,
        )
        .unwrap();
        let Request::Run(run) = r else {
            panic!("expected a run request")
        };
        assert_eq!(run.id.as_deref(), Some("x1"));
        assert_eq!(run.grid.render(), "0-8,12");
        assert_eq!(
            run.fidelity,
            FidelitySpec::Custom {
                samples: 4,
                chunk_cycles: 1000,
                warmup_cycles: 4000
            }
        );
        assert_eq!(run.backend, Some(Backend::Cycle));
        assert!(run.fault.is_some());
    }

    #[test]
    fn control_ops_parse() {
        assert!(matches!(
            Request::parse(r#"{"op":"ping"}"#).unwrap(),
            Request::Ping
        ));
        assert!(matches!(
            Request::parse(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        ));
        assert!(matches!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        for bad in [
            "not json",
            "{}",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"run"}"#,
            r#"{"op":"run","section":"noc","grid":"5-2"}"#,
            r#"{"op":"run","section":"noc","fidelity":"s=0,c=1,w=1"}"#,
            r#"{"op":"run","section":"noc","backend":"warp"}"#,
            r#"{"op":"run","section":"noc","fault":"bogus"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn fidelity_spec_round_trips_canonically() {
        for spec in ["quick", "full", "s=4,c=1000,w=4000"] {
            let f = FidelitySpec::parse(spec).unwrap();
            assert_eq!(f.render(), spec);
            assert_eq!(FidelitySpec::parse(&f.render()).unwrap(), f);
        }
        // Key order normalizes.
        let f = FidelitySpec::parse("w=9,s=2,c=3").unwrap();
        assert_eq!(f.render(), "s=2,c=3,w=9");
    }

    #[test]
    fn fidelity_specs_resolve_the_presets() {
        assert_eq!(FidelitySpec::Quick.to_fidelity(), Fidelity::quick());
        assert_eq!(FidelitySpec::Full.to_fidelity(), Fidelity::full());
        let f = FidelitySpec::parse("s=4,c=1000,w=4000")
            .unwrap()
            .to_fidelity();
        assert_eq!(
            (f.samples, f.chunk_cycles, f.warmup_cycles),
            (4, 1000, 4000)
        );
    }
}
