//! The small fixed costs around a run: assembling a workload, routing,
//! rendering a table, the sweep runner's per-point overhead, a metrics
//! counter, and serialising the run manifest.

#[path = "../timing.rs"]
mod timing;

use piton_arch::topology::{Mesh, TileId};
use piton_core::report::Table;
use piton_core::runner::{self, RetryPolicy};
use piton_obs::manifest::{RunManifest, SectionRecord};
use piton_obs::metrics;
use piton_workloads::micro::{hist_program, RunLength};

fn main() {
    timing::report(
        "workloads.assemble_us",
        timing::ns_per_call(5, 200, |i| {
            hist_program(i as usize % 25, 25, RunLength::Forever)
        }) / 1e3,
    );

    let mesh = Mesh::piton();
    timing::report(
        "arch.topology.route_ns",
        timing::ns_per_call(5, 200_000, |i| {
            mesh.route(
                TileId::new(i as usize % 25),
                TileId::new((i as usize * 7 + 3) % 25),
            )
        }),
    );

    // A table the size of Figure 14's: 26 rows of 7 cells.
    let mut table = Table::new("probe");
    table.header(["a", "b", "c", "d", "e", "f", "g"]);
    for r in 0..26 {
        table.row((0..7).map(|c| format!("{:.3}", f64::from(r * 7 + c) * 1.37)));
    }
    timing::report(
        "core.report.render_us",
        timing::ns_per_call(5, 2_000, |_| table.render()) / 1e3,
    );

    let points = 10_000u64;
    let secs = timing::median_secs(5, || {
        std::hint::black_box(runner::sweep(1, (0..points).collect(), |_, p: u64| p + 1));
    });
    timing::report("core.runner.sweep_ns_per_point", secs * 1e9 / points as f64);
    let secs = timing::median_secs(5, || {
        std::hint::black_box(runner::try_sweep(
            1,
            (0..points).collect(),
            RetryPolicy::default(),
            |_, p: &u64, _| Ok(p + 1),
        ));
    });
    timing::report(
        "core.runner.try_sweep_ns_per_point",
        secs * 1e9 / points as f64,
    );
    let _ = runner::take_stats();

    metrics::enable();
    timing::report(
        "obs.metrics.counter_add_ns",
        timing::ns_per_call(5, 200_000, |i| metrics::counter_add("probe.counter", i & 1)),
    );

    // A manifest shaped like `reproduce quick`'s: 16 sections plus the
    // registry snapshot.
    let manifest = RunManifest {
        fidelity: "quick".to_owned(),
        jobs: 1,
        total_wall_s: 2.5,
        sections: (0..16)
            .map(|i| SectionRecord {
                title: format!("Figure {i} — probe section"),
                wall_s: 0.1 * f64::from(i),
                busy_s: 0.09 * f64::from(i),
                sweeps: 1,
                points: 12,
            })
            .collect(),
        metrics: metrics::snapshot(),
        ..RunManifest::default()
    };
    timing::report(
        "obs.manifest.to_json_us",
        timing::ns_per_call(5, 2_000, |_| manifest.to_json()) / 1e3,
    );
}
