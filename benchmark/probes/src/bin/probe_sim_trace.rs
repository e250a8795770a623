//! The traced path: the dense regime under `trace::capture` (any
//! installed collector selects the scalar dense engine), and the cost
//! of one `trace::emit`.

#[path = "../timing.rs"]
mod timing;

use piton_arch::config::ChipConfig;
use piton_obs::trace::{self, EngineMode, TraceEvent, TraceSpec};
use piton_sim::machine::Machine;
use piton_workloads::micro::{load_microbenchmark, Microbenchmark, RunLength, ThreadsPerCore};

fn main() {
    // The spec `reproduce_quick_trace_on` passes on its command line.
    let spec = TraceSpec::parse("engine,cap=4096").expect("trace spec");
    let cycles = 100_000u64;
    let secs = timing::median_secs(5, || {
        let mut m = Machine::new(&ChipConfig::piton());
        load_microbenchmark(
            &mut m,
            Microbenchmark::Int,
            25,
            ThreadsPerCore::One,
            RunLength::Forever,
        );
        let ((), _events) = trace::capture(&spec, || m.run(cycles));
    });
    let untraced_setup = timing::median_secs(5, || {
        let mut m = Machine::new(&ChipConfig::piton());
        load_microbenchmark(
            &mut m,
            Microbenchmark::Int,
            25,
            ThreadsPerCore::One,
            RunLength::Forever,
        );
        std::hint::black_box(&mut m);
    });
    timing::report(
        "sim.machine.traced_dense_ns_per_cycle",
        (secs - untraced_setup).max(0.0) * 1e9 / cycles as f64,
    );

    let calls = 200_000u64;
    let ((), _events) = trace::capture(&spec, || {
        timing::report(
            "obs.trace.emit_ns",
            timing::ns_per_call(5, calls, |i| {
                trace::emit(TraceEvent::Engine {
                    cycle: i,
                    mode: EngineMode::Dense,
                });
            }),
        );
    });
}
