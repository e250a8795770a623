//! `MonitorChannel::sample`, and `PitonSystem::{new, warm_up, measure}`
//! on an idle machine with 1-cycle chunks — the per-sample overhead of
//! the bench (power model, thermal step, three monitor channels) with
//! next to no simulation under it.

#[path = "../timing.rs"]
mod timing;

use piton_arch::units::Watts;
use piton_board::monitor::MonitorChannel;
use piton_board::system::PitonSystem;

fn main() {
    let mut channel = MonitorChannel::piton_board(7);
    timing::report(
        "board.monitor.sample_ns",
        timing::ns_per_call(5, 200_000, |i| {
            channel.sample(Watts(2.0 + (i % 16) as f64 * 0.01))
        }),
    );

    timing::report(
        "board.system.new_us",
        timing::ns_per_call(5, 20, |_| PitonSystem::reference_chip_3()) / 1e3,
    );

    let secs =
        timing::median_secs_with(5, PitonSystem::reference_chip_3, |sys| sys.warm_up(30_000));
    timing::report("board.system.warm_up_us", secs * 1e6);

    let samples = 20_000usize;
    let mut sys = PitonSystem::reference_chip_3();
    sys.set_chunk_cycles(1);
    let secs = timing::median_secs(5, || {
        std::hint::black_box(sys.measure(samples));
    });
    timing::report(
        "board.system.sample_overhead_ns",
        secs * 1e9 / samples as f64,
    );
}
