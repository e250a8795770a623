//! `PowerModel::{power, static_power}` on a busy activity window, and
//! `ThermalModel::{step, equilibrium}`.

#[path = "../timing.rs"]
mod timing;

use piton_arch::config::ChipConfig;
use piton_arch::units::{Seconds, Watts};
use piton_power::model::{OperatingPoint, PowerModel};
use piton_power::thermal::{Cooling, ThermalModel};
use piton_sim::machine::Machine;
use piton_workloads::micro::{load_microbenchmark, Microbenchmark, RunLength, ThreadsPerCore};

fn main() {
    // A real 3000-cycle activity window (the `quick` chunk) of HP on
    // 25 cores: every counter class is non-zero.
    let mut m = Machine::new(&ChipConfig::piton());
    load_microbenchmark(
        &mut m,
        Microbenchmark::Hp,
        25,
        ThreadsPerCore::One,
        RunLength::Forever,
    );
    m.run(30_000);
    let before = m.counters().clone();
    m.run(3_000);
    let window = m.counters().delta_since(&before);

    let model = PowerModel::nominal();
    let op = OperatingPoint::table_iii();
    timing::report(
        "power.model.power_ns",
        timing::ns_per_call(5, 100_000, |i| {
            model.power(&window, op.with_junction(40.0 + (i % 8) as f64))
        }),
    );
    timing::report(
        "power.model.static_power_ns",
        timing::ns_per_call(5, 100_000, |i| {
            model.static_power(op.with_junction(40.0 + (i % 8) as f64))
        }),
    );

    let mut thermal = ThermalModel::new(Cooling::HeatsinkFan, 25.0);
    timing::report(
        "power.thermal.step_ns",
        timing::ns_per_call(5, 100_000, |i| {
            thermal.step(Watts(2.0 + (i % 4) as f64 * 0.1), Seconds(0.01))
        }),
    );
    let thermal = ThermalModel::new(Cooling::HeatsinkFan, 25.0);
    timing::report(
        "power.thermal.equilibrium_us",
        timing::ns_per_call(5, 2_000, |_| {
            thermal.equilibrium(
                |t| model.power(&window, op.with_junction(t)).total_with_io(),
                120.0,
            )
        }) / 1e3,
    );
}
