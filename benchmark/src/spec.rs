//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end
//! number each one should move. `BENCHMARK.json` at the repo root lists
//! the same names, units and bounds; a unit test keeps the two in step.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line: which layers do the work, which are bypassed.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "reproduce_quick",
        why: "The literal user path: all 16 sections, render, manifest; Fig 11/13/14 are ~85% of it, so both engine regimes mix.",
    },
    Workload {
        name: "reproduce_quick_trace_on",
        why: "Same run with a trace collector installed: forces the scalar dense engine, so untraced-vs-traced trade-offs show.",
    },
    Workload {
        name: "scaling_saturated",
        why: "Cold piton-serve request, 25 busy cores x Int/HP/Hist x 1,2 T/C: the batched dense engine does nearly all the work.",
    },
    Workload {
        name: "scaling_sparse",
        why: "Same request shape with 1 of 25 tiles busy: calendar-engine regime, the bypass for dense-engine work.",
    },
    Workload {
        name: "noc_stream",
        why: "Cold Figure 12 request: chipset-driven planned NoC sends, no cores, bypasses both engines; proves the trace gate is free when off.",
    },
    Workload {
        name: "design_space_serve",
        why: "Calibrate, 105000 analytic points, journal append+fsync, warm streams and windows, restart: analytic, journal, codec, socket.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Simulated statistics and byte counts repeat exactly; `--selfcheck`
    /// demands equality for them on the workloads where they are exact.
    pub exact: bool,
}

/// Bound used for metrics that must not move at all. The driver
/// compares against a share of the median, so "exact" is written as a
/// bound far below the metric's resolution rather than as zero.
pub const EXACT_BOUND: f64 = 0.001;

pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "sim_mcycles_per_s",
        unit: "Mcycles/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    },
    EndToEnd {
        name: "ok_ops_pct",
        unit: "%",
        better: Better::Higher,
        bound: EXACT_BOUND,
        exact: true,
    },
    EndToEnd {
        name: "paper_dev_pct",
        unit: "%",
        better: Better::Lower,
        bound: EXACT_BOUND,
        exact: true,
    },
    EndToEnd {
        name: "warm_stream_kframes_per_s",
        unit: "kframes/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "warm_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "warm_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "restart_first_request_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "cache_bytes_per_point",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
        exact: false,
    },
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Spans and manifest fields of the `reproduce_quick*` workloads.
    Reproduce,
    /// Client spans, `metrics` frames and `serve-manifest.json` of the
    /// four `piton-serve` workloads.
    Serve,
    /// A probe binary under `probes/` (named without the `probe_` prefix).
    Probe(&'static str),
    /// Computed by the harness itself.
    Harness,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// The end-to-end metric and workload this layer should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

const REPRO_WALL: &str = "wall_s on reproduce_quick and reproduce_quick_trace_on";
const PERF_ONLY: &str = "nothing: a perf-only change must repeat these exactly";
const DENSE: &str =
    "sim_mcycles_per_s on scaling_saturated; wall_s on reproduce_quick; not scaling_sparse, noc_stream";
const CALENDAR: &str =
    "sim_mcycles_per_s on scaling_sparse; wall_s (calibration share) on design_space_serve; not scaling_saturated";
const TRACED: &str = "wall_s on reproduce_quick_trace_on only";
const MEMSYS: &str = "sim_mcycles_per_s on scaling_saturated (Hist/HP points)";
const NOC: &str =
    "sim_mcycles_per_s on noc_stream (planned sends) and scaling_saturated (unplanned)";
const POWER: &str = "wall_s on reproduce_quick (3k-cycle chunks); about none elsewhere";
const STARTUP: &str = "wall_s on reproduce_quick (startup and 'other' sections); setup_s";
const ANALYTIC: &str = "wall_s and restart_first_request_s on design_space_serve";
const JOURNAL: &str =
    "wall_s, restart_first_request_s, warm_* and cache_bytes_per_point on design_space_serve";
const SERVE: &str =
    "warm_p50_ms, warm_p90_ms, warm_stream_kframes_per_s on design_space_serve; ttff_ms is about all of wall_s on the three cycle workloads";

use Better::{Higher, Lower};
use Source::{Harness, Probe, Reproduce, Serve};

pub const PER_LAYER: &[Layer] = &[
    // Child spans from piton-run-manifest.json.
    layer(
        "bench.reproduce.section_wall_s.fig11_epi",
        "s",
        Lower,
        Reproduce,
        REPRO_WALL,
    ),
    layer(
        "bench.reproduce.section_wall_s.fig13_scaling",
        "s",
        Lower,
        Reproduce,
        REPRO_WALL,
    ),
    layer(
        "bench.reproduce.section_wall_s.fig14_mt_mc",
        "s",
        Lower,
        Reproduce,
        REPRO_WALL,
    ),
    layer(
        "bench.reproduce.section_wall_s.fig17_thermal",
        "s",
        Lower,
        Reproduce,
        REPRO_WALL,
    ),
    layer(
        "bench.reproduce.section_wall_s.fig18_hysteresis",
        "s",
        Lower,
        Reproduce,
        REPRO_WALL,
    ),
    layer(
        "bench.reproduce.section_wall_s.ablations",
        "s",
        Lower,
        Reproduce,
        REPRO_WALL,
    ),
    layer(
        "bench.reproduce.section_wall_s.table9_specint",
        "s",
        Lower,
        Reproduce,
        REPRO_WALL,
    ),
    layer(
        "bench.reproduce.section_wall_s.fig16_timeseries",
        "s",
        Lower,
        Reproduce,
        REPRO_WALL,
    ),
    layer(
        "bench.reproduce.section_wall_s.other",
        "s",
        Lower,
        Reproduce,
        REPRO_WALL,
    ),
    layer(
        "bench.reproduce.startup_manifest_s",
        "s",
        Lower,
        Reproduce,
        REPRO_WALL,
    ),
    // Exact engine.* counts from the manifest.
    layer(
        "sim.machine.batched_cycles",
        "count",
        Lower,
        Reproduce,
        PERF_ONLY,
    ),
    layer("sim.machine.batches", "count", Lower, Reproduce, PERF_ONLY),
    layer(
        "sim.machine.event_cycles",
        "count",
        Lower,
        Reproduce,
        PERF_ONLY,
    ),
    layer(
        "sim.machine.calendar_pops",
        "count",
        Lower,
        Reproduce,
        PERF_ONLY,
    ),
    layer("sim.machine.steps", "count", Lower, Reproduce, PERF_ONLY),
    layer(
        "sim.machine.handovers",
        "count",
        Lower,
        Reproduce,
        PERF_ONLY,
    ),
    // Machine::new/load_thread/run on 25 busy tiles.
    layer(
        "sim.machine.dense_int_ns_per_cycle",
        "ns",
        Lower,
        Probe("sim_machine"),
        DENSE,
    ),
    layer(
        "sim.machine.dense_hist_ns_per_cycle",
        "ns",
        Lower,
        Probe("sim_machine"),
        DENSE,
    ),
    layer(
        "sim.machine.dense_2tpc_ns_per_cycle",
        "ns",
        Lower,
        Probe("sim_machine"),
        DENSE,
    ),
    layer(
        "sim.core.ns_per_retired_instr",
        "ns",
        Lower,
        Probe("sim_machine"),
        DENSE,
    ),
    layer(
        "sim.machine.new_us",
        "us",
        Lower,
        Probe("sim_machine"),
        DENSE,
    ),
    // One busy tile.
    layer(
        "sim.machine.calendar_ns_per_cycle",
        "ns",
        Lower,
        Probe("sim_machine"),
        CALENDAR,
    ),
    // Under trace::capture.
    layer(
        "sim.machine.traced_dense_ns_per_cycle",
        "ns",
        Lower,
        Probe("sim_trace"),
        TRACED,
    ),
    layer("obs.trace.emit_ns", "ns", Lower, Probe("sim_trace"), TRACED),
    layer(
        "sim.memsys.load_l1_hit_ns",
        "ns",
        Lower,
        Probe("sim_memsys"),
        MEMSYS,
    ),
    layer(
        "sim.memsys.load_l2_hit_ns",
        "ns",
        Lower,
        Probe("sim_memsys"),
        MEMSYS,
    ),
    layer(
        "sim.memsys.load_miss_ns",
        "ns",
        Lower,
        Probe("sim_memsys"),
        MEMSYS,
    ),
    layer(
        "sim.memsys.store_drain_ns",
        "ns",
        Lower,
        Probe("sim_memsys"),
        MEMSYS,
    ),
    layer(
        "sim.memsys.cas_ns",
        "ns",
        Lower,
        Probe("sim_memsys"),
        MEMSYS,
    ),
    layer(
        "sim.noc.send_ns_per_flit_hop",
        "ns",
        Lower,
        Probe("sim_noc"),
        NOC,
    ),
    layer(
        "sim.noc.send_planned_ns_per_flit_hop",
        "ns",
        Lower,
        Probe("sim_noc"),
        NOC,
    ),
    layer(
        "sim.machine.invalidation_ns_per_cycle",
        "ns",
        Lower,
        Probe("sim_noc"),
        NOC,
    ),
    layer("power.model.power_ns", "ns", Lower, Probe("power"), POWER),
    layer(
        "power.model.static_power_ns",
        "ns",
        Lower,
        Probe("power"),
        POWER,
    ),
    layer("power.thermal.step_ns", "ns", Lower, Probe("power"), POWER),
    layer(
        "power.thermal.equilibrium_us",
        "us",
        Lower,
        Probe("power"),
        POWER,
    ),
    layer(
        "board.monitor.sample_ns",
        "ns",
        Lower,
        Probe("board"),
        POWER,
    ),
    layer(
        "board.system.sample_overhead_ns",
        "ns",
        Lower,
        Probe("board"),
        POWER,
    ),
    layer("board.system.new_us", "us", Lower, Probe("board"), POWER),
    layer(
        "board.system.warm_up_us",
        "us",
        Lower,
        Probe("board"),
        POWER,
    ),
    layer(
        "workloads.assemble_us",
        "us",
        Lower,
        Probe("startup"),
        STARTUP,
    ),
    layer(
        "arch.topology.route_ns",
        "ns",
        Lower,
        Probe("startup"),
        STARTUP,
    ),
    layer(
        "core.report.render_us",
        "us",
        Lower,
        Probe("startup"),
        STARTUP,
    ),
    layer(
        "core.runner.sweep_ns_per_point",
        "ns",
        Lower,
        Probe("startup"),
        STARTUP,
    ),
    layer(
        "core.runner.try_sweep_ns_per_point",
        "ns",
        Lower,
        Probe("startup"),
        STARTUP,
    ),
    layer(
        "obs.metrics.counter_add_ns",
        "ns",
        Lower,
        Probe("startup"),
        STARTUP,
    ),
    layer(
        "obs.manifest.to_json_us",
        "us",
        Lower,
        Probe("startup"),
        STARTUP,
    ),
    layer(
        "core.analytic.battery_s",
        "s",
        Lower,
        Probe("analytic"),
        ANALYTIC,
    ),
    layer(
        "core.analytic.battery_mcycles",
        "Mcycles",
        Lower,
        Probe("analytic"),
        PERF_ONLY,
    ),
    layer(
        "core.analytic.fit_ms",
        "ms",
        Lower,
        Probe("analytic"),
        ANALYTIC,
    ),
    layer(
        "core.analytic.mix_table_ms",
        "ms",
        Lower,
        Probe("analytic"),
        ANALYTIC,
    ),
    layer(
        "core.analytic.predict_ns_per_point",
        "ns",
        Lower,
        Probe("analytic"),
        ANALYTIC,
    ),
    layer(
        "core.journal.record_ns_per_point",
        "ns",
        Lower,
        Probe("journal"),
        JOURNAL,
    ),
    layer(
        "core.journal.sync_ms",
        "ms",
        Lower,
        Probe("journal"),
        JOURNAL,
    ),
    layer(
        "core.journal.recover_ns_per_point",
        "ns",
        Lower,
        Probe("journal"),
        JOURNAL,
    ),
    layer(
        "core.journal.serve_ns_per_point",
        "ns",
        Lower,
        Probe("journal"),
        JOURNAL,
    ),
    // Exact, from serve-manifest.json and the cache directory.
    layer("core.journal.appended", "count", Lower, Serve, PERF_ONLY),
    layer("core.journal.served", "count", Higher, Serve, PERF_ONLY),
    layer("core.journal.recovered", "count", Higher, Serve, PERF_ONLY),
    layer("core.journal.torn_bytes", "bytes", Lower, Serve, PERF_ONLY),
    layer(
        "core.journal.file_bytes",
        "bytes",
        Lower,
        Serve,
        "cache_bytes_per_point",
    ),
    // Client spans: connect -> write -> first frame -> done.
    layer("core.serve.connect_ms", "ms", Lower, Serve, SERVE),
    layer("core.serve.ttff_ms", "ms", Lower, Serve, SERVE),
    layer("core.serve.stream_ms", "ms", Lower, Serve, SERVE),
    layer(
        "core.serve.warm_kframes_per_s",
        "kframes/s",
        Higher,
        Serve,
        SERVE,
    ),
    layer("core.serve.warm_p50_ms", "ms", Lower, Serve, SERVE),
    layer("core.serve.warm_p90_ms", "ms", Lower, Serve, SERVE),
    layer("core.serve.warm_p99_ms", "ms", Lower, Serve, SERVE),
    layer(
        "core.serve.frame_encode_ns",
        "ns",
        Lower,
        Probe("serve_codec"),
        SERVE,
    ),
    layer(
        "core.serve.frame_decode_ns",
        "ns",
        Lower,
        Probe("serve_codec"),
        SERVE,
    ),
    layer(
        "core.serve.request_parse_ns",
        "ns",
        Lower,
        Probe("serve_codec"),
        SERVE,
    ),
    // The daemon's own counters (`metrics` op).
    layer("core.serve.requests", "count", Higher, Serve, PERF_ONLY),
    layer("core.serve.cache_hits", "count", Higher, Serve, PERF_ONLY),
    layer(
        "core.serve.points_computed",
        "count",
        Lower,
        Serve,
        PERF_ONLY,
    ),
    layer("core.serve.recovered", "count", Higher, Serve, PERF_ONLY),
    layer("core.serve.hit_ratio", "ratio", Higher, Serve, PERF_ONLY),
    layer(
        "harness.trace_overhead_pct",
        "%",
        Lower,
        Harness,
        "nothing: the cost of the harness's own spans",
    ),
];

/// The probe binaries, in the order they are built and run.
pub fn probe_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for l in PER_LAYER {
        if let Probe(p) = l.source {
            if !names.contains(&p) {
                names.push(p);
            }
        }
    }
    names
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Renders `BENCHMARK.json` from the tables above (`--spec`).
pub fn benchmark_json() -> String {
    use crate::json::{number, quote};
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|s| quote(s)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.label()),
                number(m.bound)
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|l| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(l.name),
                quote(l.unit),
                quote(l.better.label())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        number(crate::DEFAULT_SECONDS),
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        assert!(WORKLOADS
            .iter()
            .all(|w| is_name(w.name) && w.why.len() <= 200));
        assert!(END_TO_END
            .iter()
            .all(|m| is_name(m.name) && is_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        assert!(PER_LAYER.iter().all(|l| is_name(l.name) && is_unit(l.unit)));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|l| l.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the harness prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = json::parse(&text).expect("BENCHMARK.json parses");
        let rendered = json::parse(&benchmark_json()).expect("rendered spec parses");
        assert_eq!(
            committed, rendered,
            "regenerate with `piton-benchmark --spec > BENCHMARK.json`"
        );
        let Value::Object(fields) = &committed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
