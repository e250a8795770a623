//! The analytic backend: `battery::run_battery`, `battery::fit`,
//! `design_space::mix_table`, `design_space::compute_point`.

#[path = "../timing.rs"]
mod timing;

use std::time::Instant;

use piton_core::analytic::{battery, Calibrated};
use piton_core::experiments::{design_space, Fidelity};
use piton_obs::metrics;

fn main() {
    // What a cold `design_space` request pays before its first point.
    metrics::enable();
    let start = Instant::now();
    let probes = battery::run_battery(Fidelity::quick()).expect("battery");
    timing::report("core.analytic.battery_s", start.elapsed().as_secs_f64());
    // The cycles behind `sim_mcycles_per_s` on design_space_serve.
    let counters = metrics::snapshot().counters;
    let cycles: u64 = [
        "engine.event_cycles",
        "engine.dense_cycles",
        "engine.batched_cycles",
    ]
    .iter()
    .filter_map(|k| counters.get(*k))
    .sum();
    timing::report("core.analytic.battery_mcycles", cycles as f64 / 1e6);

    timing::report(
        "core.analytic.fit_ms",
        timing::ns_per_call(5, 5, |_| battery::fit(&probes).expect("fit")) / 1e6,
    );
    let (model, report) = battery::fit(&probes).expect("fit");
    let cal = Calibrated {
        model,
        report,
        probes,
    };

    timing::report(
        "core.analytic.mix_table_ms",
        timing::ns_per_call(5, 5, |_| design_space::mix_table(&cal)) / 1e6,
    );
    let table = design_space::mix_table(&cal);
    let grid = design_space::grid();
    let secs = timing::median_secs(5, || {
        for (idx, p) in grid.iter().enumerate() {
            std::hint::black_box(
                design_space::compute_point(&cal, &table, idx, *p, None, 0).expect("point"),
            );
        }
    });
    timing::report(
        "core.analytic.predict_ns_per_point",
        secs * 1e9 / grid.len() as f64,
    );
}
