//! Golden-trace differential driver: runs the same randomized program
//! on the event-driven engine (`Machine::run`) and the reference
//! per-cycle engine (`Machine::run_naive`), aligns the two structured
//! trace streams, and reports the **first divergent event** with
//! context — the tool for bisecting an engine-equivalence failure down
//! to a cycle and a tile.
//!
//! Requires the `naive-engine` feature (the reference engine is
//! compiled out of release builds otherwise):
//!
//! ```text
//! cargo run --release -p piton-bench --features naive-engine --bin trace_diff
//! cargo run ... --bin trace_diff -- --seeds=7,1234 --slots=8 --chunks=500,2000
//! cargo run ... --bin trace_diff -- --desync=1     # deliberate calendar skew
//! ```
//!
//! `--desync=N` delays every event-engine calendar wakeup by N cycles
//! (`Machine::set_calendar_skew`), a deliberate desynchronization whose
//! first divergent event the harness must localize — the self-test the
//! `trace_differential` integration suite runs in CI.
//!
//! Exits 0 when the traces are identical, 1 on divergence, 2 on usage
//! errors.

#[cfg(feature = "naive-engine")]
mod diff_driver {
    use piton_arch::config::ChipConfig;
    use piton_arch::topology::TileId;
    use piton_bench::flag_value;
    use piton_obs::diff::first_divergence;
    use piton_obs::trace::{self, TraceSpec};
    use piton_sim::machine::Machine;
    use piton_sim::testprog;

    fn parse_list(args: &[String], name: &str, default: &[u64]) -> Vec<u64> {
        let Some(v) = flag_value(args, name, None) else {
            return default.to_vec();
        };
        let parsed: Result<Vec<u64>, _> = v.split(',').map(|p| p.trim().parse::<u64>()).collect();
        match parsed {
            Ok(list) if !list.is_empty() => list,
            _ => {
                eprintln!("trace_diff: --{name} expects a comma-separated u64 list, got {v:?}");
                std::process::exit(2);
            }
        }
    }

    pub fn run() -> i32 {
        let args: Vec<String> = std::env::args().collect();
        let seeds = parse_list(&args, "seeds", &[0xC0FF_EE00, 0xBAD_CAB1E]);
        let chunks = parse_list(&args, "chunks", &[2_000, 2_000, 2_000]);
        let slots = flag_value(&args, "slots", None).map_or(6, |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("trace_diff: --slots expects a count, got {v:?}");
                std::process::exit(2);
            })
        });
        let desync: u64 = flag_value(&args, "desync", None).map_or(0, |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("trace_diff: --desync expects cycles, got {v:?}");
                std::process::exit(2);
            })
        });
        // Engine-mode events are excluded by default: the two engines
        // legitimately differ in how they schedule themselves.
        let spec_text =
            flag_value(&args, "spec", None).unwrap_or_else(|| "retire,cache,noc".to_owned());
        let spec = TraceSpec::parse(&spec_text).unwrap_or_else(|e| {
            eprintln!("trace_diff: bad --spec: {e}");
            std::process::exit(2);
        });

        let placement = testprog::placement(&seeds, slots);
        let build = || {
            let mut m = Machine::new(&ChipConfig::default());
            for &(tile, thread, ref program) in &placement {
                m.load_thread(TileId::new(tile), thread, program.clone());
            }
            m
        };

        eprintln!(
            "trace_diff: seeds={seeds:?} slots={slots} chunks={chunks:?} desync={desync} \
             spec={spec_text}"
        );
        let (_, event_trace) = trace::capture(&spec, || {
            let mut m = build();
            m.set_calendar_skew(desync);
            for &chunk in &chunks {
                m.run(chunk);
            }
        });
        let (_, naive_trace) = trace::capture(&spec, || {
            let mut m = build();
            for &chunk in &chunks {
                m.run_naive(chunk);
            }
        });

        match first_divergence(&event_trace, &naive_trace) {
            None => {
                println!(
                    "traces identical: {} events from both engines",
                    event_trace.len()
                );
                0
            }
            Some(d) => {
                println!("{d}");
                1
            }
        }
    }
}

#[cfg(feature = "naive-engine")]
fn main() {
    std::process::exit(diff_driver::run());
}

#[cfg(not(feature = "naive-engine"))]
fn main() {
    eprintln!(
        "trace_diff: the reference engine is compiled out of this build; \
         rebuild with `--features naive-engine`"
    );
    std::process::exit(2);
}
