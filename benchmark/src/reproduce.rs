//! Driving the `reproduce` command line: one process per operation,
//! its stdout checked against the committed goldens, its numbers read
//! from `piton-run-manifest/v1`.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

use crate::child::{self, Finished};
use crate::json::{self, Value};
use crate::Env;

/// The goldens `reproduce quick` must print verbatim.
pub const GOLDENS: [&str; 6] = [
    "table4_yield",
    "figure11_epi",
    "figure12_noc",
    "figure13_scaling",
    "figure14_mt_mc",
    "table9_specint",
];

/// `reproduce quick` takes ~3 s untraced and ~6 s traced on the
/// authoring host; a run ten times slower than that is a hang.
const DEADLINE: Duration = Duration::from_secs(60);

pub fn load_goldens(root: &Path) -> Result<Vec<(String, String)>, String> {
    GOLDENS
        .iter()
        .map(|name| {
            let path = root.join("tests/golden").join(format!("{name}.txt"));
            std::fs::read_to_string(&path)
                .map(|text| ((*name).to_owned(), text))
                .map_err(|e| format!("golden {}: {e}", path.display()))
        })
        .collect()
}

/// Mean |vs paper| over Figure 13's six "vs paper" cells and Figure
/// 12's four trendline deviations: the model's stated error, read from
/// the same stdout whose speed is being measured.
pub fn paper_dev_pct(stdout: &str) -> Option<f64> {
    let percent = |cell: &str| -> Option<f64> {
        cell.trim()
            .strip_suffix('%')?
            .trim_start_matches('+')
            .parse::<f64>()
            .ok()
            .map(f64::abs)
    };
    let fig13: Vec<f64> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("## Figure 13:"))
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .filter_map(|row| percent(row.trim_end_matches('|').rsplit('|').next()?))
        .collect();
    let fig12: Vec<f64> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("Trendlines (pJ/hop):"))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .filter_map(|l| percent(l.rsplit_once(", ")?.1.strip_suffix(')')?))
        .collect();
    if fig13.len() != 6 || fig12.len() != 4 {
        return None;
    }
    Some(fig13.iter().chain(&fig12).sum::<f64>() / 10.0)
}

/// Which per-layer bucket a manifest section belongs to.
pub fn section_bucket(title: &str) -> &'static str {
    const BUCKETS: [(&str, &str); 8] = [
        ("Figure 11", "fig11_epi"),
        ("Figure 13", "fig13_scaling"),
        ("Figure 14", "fig14_mt_mc"),
        ("Figure 17", "fig17_thermal"),
        ("Figure 18", "fig18_hysteresis"),
        ("Ablations", "ablations"),
        ("Table IX", "table9_specint"),
        ("Figure 16", "fig16_timeseries"),
    ];
    BUCKETS
        .iter()
        .find(|(prefix, _)| title.starts_with(prefix))
        .map_or("other", |(_, bucket)| bucket)
}

/// The fields of `piton-run-manifest/v1` the benchmark reads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Manifest {
    pub total_wall_s: f64,
    /// `(title, wall_s)` in run order.
    pub sections: Vec<(String, f64)>,
    /// Grid points over all sections' sweeps.
    pub points: u64,
    /// `engine.*` counters, prefix stripped.
    pub engine: Vec<(String, u64)>,
}

impl Manifest {
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("run manifest: {e}"))?;
        if v.get("schema").and_then(Value::as_str) != Some("piton-run-manifest/v1") {
            return Err("run manifest: schema is not piton-run-manifest/v1".to_owned());
        }
        let total_wall_s = v
            .get("total_wall_s")
            .and_then(Value::as_f64)
            .ok_or("run manifest: no total_wall_s")?;
        let mut sections = Vec::new();
        let mut points = 0;
        for s in v
            .get("sections")
            .and_then(Value::as_array)
            .ok_or("run manifest: no sections")?
        {
            let field = |k: &str| s.get(k).ok_or(format!("run manifest: section lacks {k}"));
            sections.push((
                field("title")?.as_str().unwrap_or_default().to_owned(),
                field("wall_s")?.as_f64().unwrap_or_default(),
            ));
            points += field("points")?.as_u64().unwrap_or_default();
        }
        let holes = v
            .get("holes")
            .and_then(Value::as_array)
            .map_or(0, <[Value]>::len);
        if holes != 0 {
            return Err(format!("run manifest: {holes} hole(s)"));
        }
        let engine = match v.path("metrics/counters") {
            Some(Value::Object(fields)) => fields
                .iter()
                .filter_map(|(k, v)| Some((k.strip_prefix("engine.")?.to_owned(), v.as_u64()?)))
                .collect(),
            _ => return Err("run manifest: no metrics/counters".to_owned()),
        };
        Ok(Self {
            total_wall_s,
            sections,
            points,
            engine,
        })
    }

    /// An `engine.*` counter; 0 when this run never touched it (the
    /// scalar dense engine of a traced run batches nothing).
    pub fn engine(&self, name: &str) -> u64 {
        self.engine
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Machine cycles the run advanced, whichever engine advanced them.
    pub fn sim_cycles(&self) -> u64 {
        ["event_cycles", "dense_cycles", "batched_cycles"]
            .iter()
            .map(|k| self.engine(k))
            .sum()
    }
}

/// What is wrong with one run's stdout, if anything.
pub fn stdout_failures(
    stdout: &str,
    goldens: &[(String, String)],
    reference: Option<&str>,
) -> Vec<String> {
    let mut failures: Vec<String> = goldens
        .iter()
        .filter(|(_, text)| !stdout.contains(text.as_str()))
        .map(|(name, _)| format!("stdout does not contain tests/golden/{name}.txt verbatim"))
        .collect();
    if reference.is_some_and(|r| r != stdout) {
        failures.push("stdout differs from the run's first stdout".to_owned());
    }
    failures
}

/// One finished `reproduce quick --jobs 1` process.
pub struct Run {
    pub wall_s: f64,
    pub peak_rss_kb: u64,
    pub stdout: String,
    pub manifest: Manifest,
    /// Bytes the run left on disk: manifest, plus the trace when on.
    pub disk_bytes: u64,
}

/// Runs one process in the current (scratch) directory. Any failure —
/// spawn, deadline, exit code, unreadable outputs — is one failed op.
pub fn run(env: &Env, tag: &str, trace_on: bool) -> Result<Run, String> {
    let manifest_path = format!("manifest-{tag}.json");
    let trace_path = format!("trace-{tag}.jsonl");
    let stdout_path = format!("stdout-{tag}.txt");
    let stderr_path = format!("stderr-{tag}.txt");
    let mut cmd = Command::new(&env.reproduce);
    cmd.args(["quick", "--jobs", "1", "--metrics", &manifest_path]);
    if trace_on {
        cmd.args(["--trace", &format!("engine,cap=4096,out={trace_path}")]);
    }
    child::scrub_env(&mut cmd);
    let file = |p: &str| File::create(p).map_err(|e| format!("{p}: {e}"));
    cmd.stdin(Stdio::null())
        .stdout(file(&stdout_path)?)
        .stderr(file(&stderr_path)?);
    let Finished {
        wall_s,
        peak_rss_kb,
        status,
    } = child::run_to_exit(&mut cmd, DEADLINE).map_err(|e| format!("reproduce: {e}"))?;
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match status {
        None => return Err(format!("reproduce: killed at the {DEADLINE:?} deadline")),
        Some(s) if !s.success() => {
            let stderr = read(&stderr_path).unwrap_or_default();
            let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
            return Err(format!("reproduce: {s}: {}", tail.join(" | ")));
        }
        Some(_) => {}
    }
    let manifest_text = read(&manifest_path)?;
    let mut disk_bytes = manifest_text.len() as u64;
    if trace_on {
        disk_bytes += std::fs::metadata(&trace_path)
            .map_err(|e| format!("{trace_path}: {e}"))?
            .len();
    }
    Ok(Run {
        wall_s,
        peak_rss_kb: peak_rss_kb.ok_or("reproduce: no VmHWM sample")?,
        stdout: read(&stdout_path)?,
        manifest: Manifest::parse(&manifest_text)?,
        disk_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden(name: &str) -> String {
        let path = format!("{}/../tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).expect("committed golden")
    }

    #[test]
    fn paper_dev_is_39_on_the_committed_goldens() {
        let stdout = format!(
            "# Figure 12 — NoC energy per flit\n\n{}\n\n# Figure 13 — power scaling with core count\n\n{}\n",
            golden("figure12_noc"),
            golden("figure13_scaling")
        );
        let dev = paper_dev_pct(&stdout).expect("ten deviations found");
        assert!((dev - 39.0).abs() < 1e-9, "{dev}");
        // Either table missing means the number cannot be stated.
        assert_eq!(paper_dev_pct(&golden("figure12_noc")), None);
        assert_eq!(paper_dev_pct(""), None);
    }

    #[test]
    fn manifest_fields_are_extracted_from_a_committed_sample() {
        let m = Manifest::parse(include_str!("../testdata/run-manifest.json")).unwrap();
        assert_eq!(m.sections.len(), 16);
        assert_eq!(m.points, 201);
        assert_eq!(m.engine("batched_cycles"), 13_943_857);
        assert_eq!(m.engine("calendar_pops"), 3_969_292);
        assert_eq!(m.engine("dense_cycles"), 0);
        assert_eq!(m.sim_cycles(), 19_985_000);
        let in_sections: f64 = m.sections.iter().map(|(_, w)| w).sum();
        assert!(in_sections <= m.total_wall_s && in_sections > 0.99 * m.total_wall_s);
        assert_eq!(section_bucket(&m.sections[4].0), "fig11_epi");
        assert_eq!(section_bucket(&m.sections[7].0), "fig13_scaling");
        assert_eq!(section_bucket(&m.sections[0].0), "other");
        assert_eq!(section_bucket(&m.sections[15].0), "ablations");
    }

    #[test]
    fn manifests_with_holes_or_the_wrong_schema_are_refused() {
        let good = include_str!("../testdata/run-manifest.json");
        assert!(Manifest::parse(&good.replace("manifest/v1", "manifest/v2")).is_err());
        let holed = good.replace(
            "\"holes\":[]",
            "\"holes\":[{\"section\":\"epi\",\"index\":3,\"point\":\"p\",\"attempts\":3,\"error\":\"e\"}]",
        );
        assert!(Manifest::parse(&holed).unwrap_err().contains("1 hole"));
        assert!(Manifest::parse("{").is_err());
    }

    #[test]
    fn a_corrupted_golden_or_a_drifting_stdout_is_a_failure() {
        let goldens = vec![("figure12_noc".to_owned(), golden("figure12_noc"))];
        let stdout = format!("preamble\n{}\ntrailer\n", goldens[0].1);
        assert!(stdout_failures(&stdout, &goldens, Some(&stdout)).is_empty());
        let corrupt = vec![(
            "figure12_noc".to_owned(),
            goldens[0].1.replace("3.65", "3.66"),
        )];
        assert_eq!(stdout_failures(&stdout, &corrupt, None).len(), 1);
        assert_eq!(stdout_failures(&stdout, &goldens, Some("other")).len(), 1);
    }
}
