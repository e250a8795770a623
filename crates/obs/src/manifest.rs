//! The `piton-run-manifest/v1` document: a machine-readable record of
//! one `reproduce` invocation, emitted alongside the human tables.
//!
//! Schema (all times in seconds as JSON floats, counts as integers):
//!
//! ```text
//! {
//!   "schema": "piton-run-manifest/v1",
//!   "fidelity": "quick" | "full",
//!   "jobs": <usize>,
//!   "fault_plan": null | "<spec string>",
//!   "fault_effects": "<spec string>",    // only present when the plan affects results
//!   "governor": "<policy label>",        // only present on governed runs
//!   "backend": "cycle" | "analytic" | "both",
//!                                        // only present when a backend was chosen
//!   "journal": { "served": n, "appended": n, "recovered": n, "torn": n },
//!                                        // only present on --journal runs
//!   "calibration": {                     // only present on analytic/both runs
//!     "probes": n,
//!     "residuals": [ { "rail": "...", "max_rel": f, "mean_rel": f } ],
//!     "worst": { "probe": "...", "rail": "...", "rel": f },   // omitted when empty
//!     "coefficients": [ { "name": "...", "pj": f } ]
//!   },
//!   "total_wall_s": <f64>,
//!   "sections": [
//!     { "title": "...", "wall_s": f, "busy_s": f, "sweeps": n, "points": n }
//!   ],
//!   "holes": [
//!     { "section": "...", "index": n, "point": "...", "attempts": n, "error": "..." }
//!   ],
//!   "metrics": { "counters": {..}, "gauges": {..}, "histograms": {..} }
//! }
//! ```

use std::cell::Cell;
use std::time::Duration;

use piton_arch::error::PitonError;

use crate::json::{self, ObjectBuilder, Value};
use crate::metrics::MetricsSnapshot;

/// The schema identifier every valid manifest must carry.
pub const MANIFEST_SCHEMA: &str = "piton-run-manifest/v1";

/// The schema identifier of the deterministic projection
/// ([`RunManifest::deterministic_json`]).
pub const DETERMINISTIC_SCHEMA: &str = "piton-run-manifest/v1-deterministic";

/// Per-section sweep accounting (from [`SweepStats`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SectionRecord {
    pub title: String,
    pub wall_s: f64,
    pub busy_s: f64,
    pub sweeps: u64,
    pub points: u64,
}

/// Accumulated sweep timing: how much point work ran (`busy`) versus
/// how long the sweeps took end to end (`wall`).
#[derive(Debug, Default, Clone, Copy)]
pub struct SweepStats {
    /// Completed sweeps.
    pub sweeps: usize,
    /// Grid points measured.
    pub points: usize,
    /// Sum of per-point execution times.
    pub busy: Duration,
    /// Sum of sweep wall-clock times.
    pub wall: Duration,
}

thread_local! {
    /// The tally of sweeps called from this thread. A sweep records on
    /// its calling thread after joining its workers, so the tally needs
    /// no [`crate::Scope`].
    static SWEEP_STATS: Cell<SweepStats> = const {
        Cell::new(SweepStats {
            sweeps: 0,
            points: 0,
            busy: Duration::ZERO,
            wall: Duration::ZERO,
        })
    };
}

impl SweepStats {
    /// Achieved parallel speedup: busy time divided by wall time
    /// (1.0 when serial, approaching `jobs` under perfect scaling).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.wall.is_zero() {
            1.0
        } else {
            self.busy.as_secs_f64() / self.wall.as_secs_f64()
        }
    }

    /// Adds one finished sweep to this thread's tally.
    pub fn record(points: usize, busy: Duration, wall: Duration) {
        SWEEP_STATS.with(|tally| {
            let mut t = tally.get();
            t.sweeps += 1;
            t.points += points;
            t.busy += busy;
            t.wall += wall;
            tally.set(t);
        });
    }

    /// Returns this thread's tally since the last call and resets it.
    #[must_use]
    pub fn take() -> SweepStats {
        SWEEP_STATS.with(Cell::take)
    }
}

/// One permanently-failed sweep point (mirrors `report::Hole`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HoleRecord {
    pub section: String,
    pub index: usize,
    pub point: String,
    pub attempts: u32,
    pub error: String,
}

/// Auto-calibration record of an analytic-backend run: fit quality and
/// the fitted coefficient vector, so a manifest is enough to audit (or
/// reconstruct) the closed-form model that produced the numbers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CalibrationRecord {
    /// Number of cycle-level probes fitted against.
    pub probes: u64,
    /// Per-rail fit residuals: `(rail, max relative, mean relative)`.
    pub residuals: Vec<(String, f64, f64)>,
    /// The single worst probe: `(probe label, rail, relative residual)`.
    pub worst: Option<(String, String, f64)>,
    /// Fitted nominal energies: `(rail-qualified feature name, pJ)`.
    pub coefficients: Vec<(String, f64)>,
}

/// Result-journal accounting for a durable (`--journal`) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Points served from the journal without recomputation.
    pub served: u64,
    /// Points computed this run and appended to the journal.
    pub appended: u64,
    /// Complete records recovered from a pre-existing journal file.
    pub recovered: u64,
    /// Torn/corrupt trailing bytes discarded during recovery.
    pub torn: u64,
}

/// A complete run manifest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunManifest {
    pub fidelity: String,
    pub jobs: usize,
    pub fault_plan: Option<String>,
    /// The result-affecting subset of `fault_plan` (crash points
    /// stripped, effect-free plans normalized to `None`) — what the
    /// deterministic projection keys on. Omitted when `None` so
    /// historical manifests stay byte-identical.
    pub fault_effects: Option<String>,
    /// DVFS governor policy label, when a governor drove the run. The
    /// field is *omitted* (not null) on ungoverned runs so historical
    /// manifests stay byte-identical.
    pub governor: Option<String>,
    /// Which engine produced the numbers (`"cycle"`, `"analytic"`,
    /// `"both"`). Omitted when `None` so pre-backend manifests — and
    /// plain cycle runs — stay byte-identical.
    pub backend: Option<String>,
    /// Result-journal accounting, when the run was durable. Omitted
    /// when `None` for the same byte-compatibility reason.
    pub journal: Option<JournalStats>,
    /// Auto-calibration record, when the analytic backend ran. Omitted
    /// when `None`.
    pub calibration: Option<CalibrationRecord>,
    pub total_wall_s: f64,
    pub sections: Vec<SectionRecord>,
    pub holes: Vec<HoleRecord>,
    pub metrics: MetricsSnapshot,
}

impl RunManifest {
    /// Renders the manifest as a JSON document (with trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let sections = Value::Array(
            self.sections
                .iter()
                .map(|s| {
                    ObjectBuilder::new()
                        .field("title", Value::Str(s.title.clone()))
                        .field("wall_s", Value::Float(s.wall_s))
                        .field("busy_s", Value::Float(s.busy_s))
                        .field("sweeps", Value::Int(i128::from(s.sweeps)))
                        .field("points", Value::Int(i128::from(s.points)))
                        .build()
                })
                .collect(),
        );
        let holes = Value::Array(
            self.holes
                .iter()
                .map(|h| {
                    ObjectBuilder::new()
                        .field("section", Value::Str(h.section.clone()))
                        .field("index", Value::Int(h.index as i128))
                        .field("point", Value::Str(h.point.clone()))
                        .field("attempts", Value::Int(i128::from(h.attempts)))
                        .field("error", Value::Str(h.error.clone()))
                        .build()
                })
                .collect(),
        );
        let mut builder = ObjectBuilder::new()
            .field("schema", Value::Str(MANIFEST_SCHEMA.to_owned()))
            .field("fidelity", Value::Str(self.fidelity.clone()))
            .field("jobs", Value::Int(self.jobs as i128))
            .field(
                "fault_plan",
                self.fault_plan
                    .as_ref()
                    .map_or(Value::Null, |p| Value::Str(p.clone())),
            );
        if let Some(e) = &self.fault_effects {
            builder = builder.field("fault_effects", Value::Str(e.clone()));
        }
        if let Some(g) = &self.governor {
            builder = builder.field("governor", Value::Str(g.clone()));
        }
        if let Some(b) = &self.backend {
            builder = builder.field("backend", Value::Str(b.clone()));
        }
        if let Some(j) = &self.journal {
            builder = builder.field(
                "journal",
                ObjectBuilder::new()
                    .field("served", Value::Int(i128::from(j.served)))
                    .field("appended", Value::Int(i128::from(j.appended)))
                    .field("recovered", Value::Int(i128::from(j.recovered)))
                    .field("torn", Value::Int(i128::from(j.torn)))
                    .build(),
            );
        }
        if let Some(c) = &self.calibration {
            let residuals = Value::Array(
                c.residuals
                    .iter()
                    .map(|(rail, max_rel, mean_rel)| {
                        ObjectBuilder::new()
                            .field("rail", Value::Str(rail.clone()))
                            .field("max_rel", Value::Float(*max_rel))
                            .field("mean_rel", Value::Float(*mean_rel))
                            .build()
                    })
                    .collect(),
            );
            let coefficients = Value::Array(
                c.coefficients
                    .iter()
                    .map(|(name, pj)| {
                        ObjectBuilder::new()
                            .field("name", Value::Str(name.clone()))
                            .field("pj", Value::Float(*pj))
                            .build()
                    })
                    .collect(),
            );
            let mut cb = ObjectBuilder::new()
                .field("probes", Value::Int(i128::from(c.probes)))
                .field("residuals", residuals);
            if let Some((probe, rail, rel)) = &c.worst {
                cb = cb.field(
                    "worst",
                    ObjectBuilder::new()
                        .field("probe", Value::Str(probe.clone()))
                        .field("rail", Value::Str(rail.clone()))
                        .field("rel", Value::Float(*rel))
                        .build(),
                );
            }
            builder = builder.field(
                "calibration",
                cb.field("coefficients", coefficients).build(),
            );
        }
        let doc = builder
            .field("total_wall_s", Value::Float(self.total_wall_s))
            .field("sections", sections)
            .field("holes", holes)
            .field("metrics", self.metrics.to_json())
            .build();
        let mut out = doc.render();
        out.push('\n');
        out
    }

    /// Renders the *deterministic projection* of the manifest: only the
    /// fields two byte-equivalent runs must agree on — schema,
    /// fidelity, fault effects, governor, per-section sweep
    /// accounting (titles, sweep and point counts — no wall-clock
    /// times) and holes. Journal accounting, timings, engine metrics
    /// *and the jobs level* are excluded: results are jobs-invariant,
    /// and an interrupted-then-resumed run must produce a projection
    /// byte-identical to an uninterrupted one at any `--jobs` — the
    /// contract the crash/resume harness diffs.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        let sections = Value::Array(
            self.sections
                .iter()
                .map(|s| {
                    ObjectBuilder::new()
                        .field("title", Value::Str(s.title.clone()))
                        .field("sweeps", Value::Int(i128::from(s.sweeps)))
                        .field("points", Value::Int(i128::from(s.points)))
                        .build()
                })
                .collect(),
        );
        let holes = Value::Array(
            self.holes
                .iter()
                .map(|h| {
                    ObjectBuilder::new()
                        .field("section", Value::Str(h.section.clone()))
                        .field("index", Value::Int(h.index as i128))
                        .field("point", Value::Str(h.point.clone()))
                        .field("attempts", Value::Int(i128::from(h.attempts)))
                        .field("error", Value::Str(h.error.clone()))
                        .build()
                })
                .collect(),
        );
        let mut builder = ObjectBuilder::new()
            .field("schema", Value::Str(DETERMINISTIC_SCHEMA.to_owned()))
            .field("fidelity", Value::Str(self.fidelity.clone()))
            .field(
                "fault_effects",
                self.fault_effects
                    .as_ref()
                    .map_or(Value::Null, |e| Value::Str(e.clone())),
            );
        if let Some(g) = &self.governor {
            builder = builder.field("governor", Value::Str(g.clone()));
        }
        if let Some(b) = &self.backend {
            builder = builder.field("backend", Value::Str(b.clone()));
        }
        let doc = builder
            .field("sections", sections)
            .field("holes", holes)
            .build();
        let mut out = doc.render();
        out.push('\n');
        out
    }

    /// Parses and validates a manifest document.
    ///
    /// Total over arbitrary input — truncated, torn, or garbage bytes
    /// produce a structured error, never a panic.
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] naming what failed: malformed JSON, a
    /// wrong/missing schema identifier, or ill-typed fields.
    pub fn from_json(doc: &str) -> Result<Self, PitonError> {
        Self::from_json_inner(doc).map_err(|e| PitonError::codec(format!("run manifest: {e}")))
    }

    fn from_json_inner(doc: &str) -> Result<Self, String> {
        let v = json::parse(doc)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("manifest missing 'schema'")?;
        if schema != MANIFEST_SCHEMA {
            return Err(format!(
                "schema mismatch: got '{schema}', expected '{MANIFEST_SCHEMA}'"
            ));
        }
        let text = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("manifest missing string '{key}'"))
        };
        let float = |val: &Value, key: &str| -> Result<f64, String> {
            val.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number '{key}'"))
        };
        let mut out = RunManifest {
            fidelity: text("fidelity")?,
            jobs: v
                .get("jobs")
                .and_then(Value::as_u64)
                .ok_or("manifest missing 'jobs'")? as usize,
            fault_plan: match v.get("fault_plan") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(s.clone()),
                Some(_) => return Err("'fault_plan' must be null or a string".to_owned()),
            },
            fault_effects: match v.get("fault_effects") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(s.clone()),
                Some(_) => return Err("'fault_effects' must be a string".to_owned()),
            },
            governor: match v.get("governor") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(s.clone()),
                Some(_) => return Err("'governor' must be a string".to_owned()),
            },
            backend: match v.get("backend") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(s.clone()),
                Some(_) => return Err("'backend' must be a string".to_owned()),
            },
            calibration: match v.get("calibration") {
                None | Some(Value::Null) => None,
                Some(c) => {
                    let mut record = CalibrationRecord {
                        probes: c
                            .get("probes")
                            .and_then(Value::as_u64)
                            .ok_or("calibration missing 'probes'")?,
                        ..CalibrationRecord::default()
                    };
                    for r in c
                        .get("residuals")
                        .and_then(Value::as_array)
                        .ok_or("calibration missing 'residuals'")?
                    {
                        record.residuals.push((
                            r.get("rail")
                                .and_then(Value::as_str)
                                .ok_or("residual missing 'rail'")?
                                .to_owned(),
                            r.get("max_rel")
                                .and_then(Value::as_f64)
                                .ok_or("residual missing 'max_rel'")?,
                            r.get("mean_rel")
                                .and_then(Value::as_f64)
                                .ok_or("residual missing 'mean_rel'")?,
                        ));
                    }
                    record.worst = match c.get("worst") {
                        None | Some(Value::Null) => None,
                        Some(w) => Some((
                            w.get("probe")
                                .and_then(Value::as_str)
                                .ok_or("worst missing 'probe'")?
                                .to_owned(),
                            w.get("rail")
                                .and_then(Value::as_str)
                                .ok_or("worst missing 'rail'")?
                                .to_owned(),
                            w.get("rel")
                                .and_then(Value::as_f64)
                                .ok_or("worst missing 'rel'")?,
                        )),
                    };
                    for k in c
                        .get("coefficients")
                        .and_then(Value::as_array)
                        .ok_or("calibration missing 'coefficients'")?
                    {
                        record.coefficients.push((
                            k.get("name")
                                .and_then(Value::as_str)
                                .ok_or("coefficient missing 'name'")?
                                .to_owned(),
                            k.get("pj")
                                .and_then(Value::as_f64)
                                .ok_or("coefficient missing 'pj'")?,
                        ));
                    }
                    Some(record)
                }
            },
            journal: match v.get("journal") {
                None | Some(Value::Null) => None,
                Some(j) => {
                    let count = |key: &str| -> Result<u64, String> {
                        j.get(key)
                            .and_then(Value::as_u64)
                            .ok_or_else(|| format!("journal missing count '{key}'"))
                    };
                    Some(JournalStats {
                        served: count("served")?,
                        appended: count("appended")?,
                        recovered: count("recovered")?,
                        torn: count("torn")?,
                    })
                }
            },
            total_wall_s: float(&v, "total_wall_s")?,
            ..RunManifest::default()
        };
        for s in v
            .get("sections")
            .and_then(Value::as_array)
            .ok_or("manifest missing 'sections'")?
        {
            out.sections.push(SectionRecord {
                title: s
                    .get("title")
                    .and_then(Value::as_str)
                    .ok_or("section missing 'title'")?
                    .to_owned(),
                wall_s: float(s, "wall_s")?,
                busy_s: float(s, "busy_s")?,
                sweeps: s
                    .get("sweeps")
                    .and_then(Value::as_u64)
                    .ok_or("section missing 'sweeps'")?,
                points: s
                    .get("points")
                    .and_then(Value::as_u64)
                    .ok_or("section missing 'points'")?,
            });
        }
        for h in v
            .get("holes")
            .and_then(Value::as_array)
            .ok_or("manifest missing 'holes'")?
        {
            let txt = |key: &str| -> Result<String, String> {
                h.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("hole missing '{key}'"))
            };
            out.holes.push(HoleRecord {
                section: txt("section")?,
                index: h
                    .get("index")
                    .and_then(Value::as_u64)
                    .ok_or("hole missing 'index'")? as usize,
                point: txt("point")?,
                attempts: h
                    .get("attempts")
                    .and_then(Value::as_u64)
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or("hole missing 'attempts'")?,
                error: txt("error")?,
            });
        }
        out.metrics =
            MetricsSnapshot::from_json(v.get("metrics").ok_or("manifest missing 'metrics'")?)?;
        Ok(out)
    }
}

/// The schema identifier of a `piton-serve` cache manifest.
pub const SERVE_MANIFEST_SCHEMA: &str = "piton-serve-manifest/v1";

/// One cached context in a [`ServeManifest`]: the context spec, the
/// journal file in the cache directory that holds its results, and
/// that journal's accounting at shutdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeContextRecord {
    pub context: String,
    pub file: String,
    pub stats: JournalStats,
}

/// The `piton-serve-manifest/v1` document the daemon writes into its
/// cache directory on clean shutdown: the serving configuration, the
/// `serve.*` counters, and one record per cached context so the cache
/// contents are auditable without replaying the journals.
///
/// ```text
/// {
///   "schema": "piton-serve-manifest/v1",
///   "jobs": <usize>,
///   "shard_points": <usize>,
///   "counters": { "serve.cache_hits": n, ... },           // sorted by name
///   "contexts": [                                         // sorted by file
///     { "context": "...", "file": "ctx-<hash>.journal",
///       "journal": { "served": n, "appended": n, "recovered": n, "torn": n } }
///   ]
/// }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeManifest {
    pub jobs: usize,
    pub shard_points: usize,
    /// `serve.*` counter values, sorted by counter name.
    pub counters: Vec<(String, u64)>,
    /// One record per cached context, sorted by journal file name.
    pub contexts: Vec<ServeContextRecord>,
}

impl ServeManifest {
    /// Renders the manifest as a JSON document (with trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut counters = ObjectBuilder::new();
        for (name, v) in &self.counters {
            counters = counters.field(name, Value::Int(i128::from(*v)));
        }
        let contexts = Value::Array(
            self.contexts
                .iter()
                .map(|c| {
                    ObjectBuilder::new()
                        .field("context", Value::Str(c.context.clone()))
                        .field("file", Value::Str(c.file.clone()))
                        .field(
                            "journal",
                            ObjectBuilder::new()
                                .field("served", Value::Int(i128::from(c.stats.served)))
                                .field("appended", Value::Int(i128::from(c.stats.appended)))
                                .field("recovered", Value::Int(i128::from(c.stats.recovered)))
                                .field("torn", Value::Int(i128::from(c.stats.torn)))
                                .build(),
                        )
                        .build()
                })
                .collect(),
        );
        let doc = ObjectBuilder::new()
            .field("schema", Value::Str(SERVE_MANIFEST_SCHEMA.to_owned()))
            .field("jobs", Value::Int(self.jobs as i128))
            .field("shard_points", Value::Int(self.shard_points as i128))
            .field("counters", counters.build())
            .field("contexts", contexts)
            .build();
        let mut out = doc.render();
        out.push('\n');
        out
    }

    /// Parses and validates a serve manifest document.
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] naming what failed: malformed JSON, a
    /// wrong/missing schema identifier, or ill-typed fields.
    pub fn from_json(doc: &str) -> Result<Self, PitonError> {
        Self::from_json_inner(doc).map_err(|e| PitonError::codec(format!("serve manifest: {e}")))
    }

    fn from_json_inner(doc: &str) -> Result<Self, String> {
        let v = json::parse(doc)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("serve manifest missing 'schema'")?;
        if schema != SERVE_MANIFEST_SCHEMA {
            return Err(format!(
                "schema mismatch: got '{schema}', expected '{SERVE_MANIFEST_SCHEMA}'"
            ));
        }
        let count = |val: &Value, key: &str| -> Result<u64, String> {
            val.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing count '{key}'"))
        };
        let mut out = ServeManifest {
            jobs: count(&v, "jobs")? as usize,
            shard_points: count(&v, "shard_points")? as usize,
            ..ServeManifest::default()
        };
        let Some(Value::Object(counters)) = v.get("counters") else {
            return Err("serve manifest missing 'counters' object".to_owned());
        };
        for (name, val) in counters {
            out.counters.push((
                name.clone(),
                val.as_u64()
                    .ok_or_else(|| format!("counter '{name}' is not a count"))?,
            ));
        }
        for c in v
            .get("contexts")
            .and_then(Value::as_array)
            .ok_or("serve manifest missing 'contexts'")?
        {
            let text = |key: &str| -> Result<String, String> {
                c.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("context record missing '{key}'"))
            };
            let j = c.get("journal").ok_or("context record missing 'journal'")?;
            out.contexts.push(ServeContextRecord {
                context: text("context")?,
                file: text("file")?,
                stats: JournalStats {
                    served: count(j, "served")?,
                    appended: count(j, "appended")?,
                    recovered: count(j, "recovered")?,
                    torn: count(j, "torn")?,
                },
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn sample() -> RunManifest {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("engine.steps".to_owned(), 12_345);
        metrics.gauges.insert("sweep.speedup".to_owned(), 3.75);
        let mut h = Histogram::default();
        h.observe(4);
        h.observe(900);
        metrics.histograms.insert("engine.duty".to_owned(), h);
        RunManifest {
            fidelity: "quick".to_owned(),
            jobs: 4,
            fault_plan: Some("seed=7,drop=0.25,kill=epi:3".to_owned()),
            fault_effects: Some("seed=7,drop=0.25,kill=epi:3".to_owned()),
            governor: None,
            backend: None,
            journal: None,
            calibration: None,
            total_wall_s: 12.25,
            sections: vec![SectionRecord {
                title: "Figure 11: EPI".to_owned(),
                wall_s: 1.5,
                busy_s: 5.25,
                sweeps: 2,
                points: 40,
            }],
            holes: vec![HoleRecord {
                section: "epi".to_owned(),
                index: 3,
                point: "Add/Random".to_owned(),
                attempts: 3,
                error: "monitor dropped sample".to_owned(),
            }],
            metrics,
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample();
        let doc = m.to_json();
        assert_eq!(RunManifest::from_json(&doc).unwrap(), m);
    }

    #[test]
    fn rejects_wrong_schema() {
        let doc = sample().to_json().replace("piton-run-manifest/v1", "v0");
        let err = RunManifest::from_json(&doc).unwrap_err();
        assert!(matches!(err, PitonError::Codec { .. }), "{err:?}");
        assert!(err.to_string().contains("schema mismatch"), "{err}");
    }

    #[test]
    fn journal_stats_round_trip_and_are_omitted_when_absent() {
        let off = sample();
        assert!(
            !off.to_json().contains("journal"),
            "journal-less manifests must not mention the journal"
        );
        let on = RunManifest {
            journal: Some(JournalStats {
                served: 12,
                appended: 30,
                recovered: 13,
                torn: 1,
            }),
            ..sample()
        };
        let doc = on.to_json();
        assert!(doc.contains("\"journal\":{\"served\":12"), "{doc}");
        assert_eq!(RunManifest::from_json(&doc).unwrap(), on);
    }

    #[test]
    fn deterministic_projection_ignores_timing_metrics_and_journal() {
        let a = sample();
        let mut b = sample();
        b.total_wall_s = 99.0;
        b.jobs = 16; // results are jobs-invariant
        b.sections[0].wall_s = 42.0;
        b.sections[0].busy_s = 17.0;
        b.journal = Some(JournalStats {
            served: 5,
            appended: 1,
            recovered: 5,
            torn: 1,
        });
        b.metrics.counters.insert("extra.counter".to_owned(), 9);
        // Same logical run → same projection, despite every volatile
        // field differing.
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        assert!(a.deterministic_json().contains(DETERMINISTIC_SCHEMA));
        // A result-affecting difference does show up.
        let mut c = sample();
        c.holes.clear();
        assert_ne!(a.deterministic_json(), c.deterministic_json());
    }

    #[test]
    fn governor_field_is_omitted_when_absent_and_kept_when_present() {
        let off = sample();
        assert!(
            !off.to_json().contains("governor"),
            "ungoverned manifests must not mention the governor"
        );
        let on = RunManifest {
            governor: Some("throttle-on-boot".to_owned()),
            ..sample()
        };
        let doc = on.to_json();
        assert!(doc.contains("\"governor\":\"throttle-on-boot\""), "{doc}");
        assert_eq!(RunManifest::from_json(&doc).unwrap(), on);
    }

    #[test]
    fn backend_field_is_omitted_when_absent_and_kept_when_present() {
        let off = sample();
        assert!(
            !off.to_json().contains("backend"),
            "cycle-only manifests must not mention the backend"
        );
        assert!(!off.deterministic_json().contains("backend"));
        let on = RunManifest {
            backend: Some("both".to_owned()),
            ..sample()
        };
        let doc = on.to_json();
        assert!(doc.contains("\"backend\":\"both\""), "{doc}");
        assert_eq!(RunManifest::from_json(&doc).unwrap(), on);
        // The backend changes what the run computes, so it belongs to
        // the deterministic projection too.
        assert!(on.deterministic_json().contains("\"backend\":\"both\""));
        assert_ne!(off.deterministic_json(), on.deterministic_json());
    }

    #[test]
    fn calibration_record_round_trips_and_is_omitted_when_absent() {
        let off = sample();
        assert!(
            !off.to_json().contains("calibration"),
            "cycle-only manifests must not mention calibration"
        );
        let on = RunManifest {
            calibration: Some(CalibrationRecord {
                probes: 111,
                residuals: vec![
                    ("VDD".to_owned(), 0.00137, 0.00021),
                    ("VCS".to_owned(), 0.01074, 0.00188),
                    ("VIO".to_owned(), 0.01667, 0.00354),
                ],
                worst: Some(("idle".to_owned(), "VIO".to_owned(), 0.01667)),
                coefficients: vec![
                    ("vdd.core_active".to_owned(), 112.5),
                    ("vcs.l2_read".to_owned(), 38.25),
                ],
            }),
            ..sample()
        };
        let doc = on.to_json();
        assert!(doc.contains("\"calibration\":{\"probes\":111"), "{doc}");
        assert_eq!(RunManifest::from_json(&doc).unwrap(), on);
        // Fit quality is diagnostic, not part of the logical result.
        assert_eq!(off.deterministic_json(), on.deterministic_json());
        // An absent worst probe is simply omitted.
        let mut no_worst = on.clone();
        no_worst.calibration.as_mut().unwrap().worst = None;
        let doc = no_worst.to_json();
        assert!(!doc.contains("worst"), "{doc}");
        assert_eq!(RunManifest::from_json(&doc).unwrap(), no_worst);
    }

    #[test]
    fn no_fault_plan_is_null() {
        let m = RunManifest {
            fault_plan: None,
            fidelity: "full".to_owned(),
            ..sample()
        };
        let doc = m.to_json();
        assert!(doc.contains("\"fault_plan\":null"), "{doc}");
        assert_eq!(RunManifest::from_json(&doc).unwrap().fault_plan, None);
    }

    #[test]
    fn serve_manifest_round_trips() {
        let m = ServeManifest {
            jobs: 4,
            shard_points: 512,
            counters: vec![
                ("serve.cache_hits".to_owned(), 36),
                ("serve.points_computed".to_owned(), 12),
                ("serve.requests".to_owned(), 3),
            ],
            contexts: vec![ServeContextRecord {
                context: "piton/0.1.0|fidelity=quick|effects=none|backend=cycle".to_owned(),
                file: "ctx-0123456789abcdef.journal".to_owned(),
                stats: JournalStats {
                    served: 36,
                    appended: 12,
                    recovered: 12,
                    torn: 0,
                },
            }],
        };
        let doc = m.to_json();
        assert!(doc.contains(SERVE_MANIFEST_SCHEMA), "{doc}");
        assert_eq!(ServeManifest::from_json(&doc).unwrap(), m);
        // Wrong schema and garbage are structured errors, not panics.
        assert!(ServeManifest::from_json("{\"schema\":\"nope\"}").is_err());
        assert!(ServeManifest::from_json("torn {").is_err());
    }
}
