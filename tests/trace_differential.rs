//! Golden-trace differential harness: the batched dense cycle engine
//! (`Machine::run`) and the reference per-cycle engine
//! (`Machine::run_naive`) must produce *identical* structured trace
//! streams over randomized programs — and when they don't, the
//! differential must localize the first divergent event to a cycle and
//! a tile, which is how an engine-equivalence failure gets bisected.
//!
//! To bisect by hand, edit the seeds, slots and chunks that
//! `engines_produce_identical_traces_on_randomized_programs` passes to
//! [`differential`] and run
//!
//! ```text
//! cargo test --release --test trace_differential -- --nocapture
//! ```
//!
//! Each seed pool prints its event count; a divergence panics with the
//! first divergent event and context from both streams.
//!
//! Engine-mode events are masked out of every comparison: each engine
//! names itself.
//!
//! The `*_microbenchmark_*` tests run the paper's Int, HP and Hist
//! loops instead of random programs: the steady-state shapes the dense
//! engine's local run-ahead is built to accelerate.
//!
//! The `golden_trace_*` tests additionally pin one representative
//! program per experiment family byte-for-byte against committed JSONL
//! fixtures in `tests/golden/` (`PITON_BLESS=1` regenerates).

use piton::arch::config::ChipConfig;
use piton::arch::isa::{Instruction, Opcode, Reg};
use piton::arch::topology::TileId;
use piton::obs::diff::first_divergence;
use piton::obs::trace::{self, encode_jsonl, TraceSpec};
use piton::sim::machine::{Machine, SwitchPattern};
use piton::sim::program::Program;
use piton::sim::testprog;
use piton::workloads::micro::{load_microbenchmark, Microbenchmark, RunLength, ThreadsPerCore};
use proptest::prelude::*;

mod common;

fn machine() -> Machine {
    Machine::new(&ChipConfig::default())
}

fn diff_spec() -> TraceSpec {
    TraceSpec::parse("retire,cache,noc").expect("static spec")
}

/// Captures the full trace of `body` on a fresh machine.
fn capture_run(spec: &TraceSpec, body: impl FnOnce(&mut Machine)) -> Vec<piton::obs::TraceEvent> {
    let (_, events) = trace::capture(spec, || {
        let mut m = machine();
        body(&mut m);
    });
    events
}

/// Differentially traces the standard randomized placement for a seed
/// pool on both engines and returns the streams.
fn differential(
    seeds: &[u64],
    slots: usize,
    chunks: &[u64],
) -> (Vec<piton::obs::TraceEvent>, Vec<piton::obs::TraceEvent>) {
    let placement = testprog::placement(seeds, slots);
    let spec = diff_spec();
    let load = |m: &mut Machine| {
        for &(tile, thread, ref program) in &placement {
            m.load_thread(TileId::new(tile), thread, program.clone());
        }
    };
    let event = capture_run(&spec, |m| {
        load(m);
        for &chunk in chunks {
            m.run(chunk);
        }
    });
    let naive = capture_run(&spec, |m| {
        load(m);
        for &chunk in chunks {
            m.run_naive(chunk);
        }
    });
    (event, naive)
}

#[test]
fn engines_produce_identical_traces_on_randomized_programs() {
    for (pool, seeds) in [
        vec![0xC0FF_EE00u64, 0xBAD_CAB1E],
        vec![7, 1234, 0xFFFF_FFFF_FFFF_FFFF],
        vec![0x5EED_0001, 0x5EED_0002, 0x5EED_0003, 0x5EED_0004],
    ]
    .into_iter()
    .enumerate()
    {
        let (event, naive) = differential(&seeds, 6 + pool, &[500, 2_000, 1_500]);
        assert!(
            !event.is_empty(),
            "seed pool {pool}: programs emitted no events — the differential is vacuous"
        );
        if let Some(d) = first_divergence(&event, &naive) {
            panic!("seed pool {pool}: engines diverged\n{d}");
        }
        println!("seed pool {pool}: {} identical events", event.len());
    }
}

/// A deliberately-desynced pair must produce a divergence report naming
/// the first divergent event's cycle and tile. The fault is in the
/// input: the `run` side loads tile 18 one cycle after tile 6, so its
/// whole schedule slips by a cycle, while the naive side loads both at
/// cycle 0.
#[test]
fn desynced_engines_report_first_divergent_cycle_and_tile() {
    let sparse = Program::from_instructions(vec![
        Instruction::movi(Reg::new(1), 1_000_003),
        Instruction::movi(Reg::new(2), 3),
        Instruction::alu(Opcode::Sdivx, Reg::new(3), Reg::new(1), Reg::new(2)),
        Instruction::alu(Opcode::Sdivx, Reg::new(4), Reg::new(3), Reg::new(2)),
        Instruction::branch(Opcode::Beq, Reg::new(0), Reg::new(0), 2),
    ]);
    let spec = diff_spec();
    let event = capture_run(&spec, |m| {
        m.load_thread(TileId::new(6), 0, sparse.clone());
        m.run(1);
        m.load_thread(TileId::new(18), 0, sparse.clone());
        m.run(3_999);
    });
    let naive = capture_run(&spec, |m| {
        m.load_thread(TileId::new(6), 0, sparse.clone());
        m.load_thread(TileId::new(18), 0, sparse.clone());
        m.run_naive(4_000);
    });
    let d =
        first_divergence(&event, &naive).expect("a slipped schedule must desynchronize the runs");
    let msg = d.to_string();
    assert!(
        msg.contains("first divergent event: cycle"),
        "report must name the divergent cycle:\n{msg}"
    );
    let cycle = d.cycle().expect("divergent event carries a cycle");
    let entity = d.entity().expect("divergent event carries a tile");
    assert!(
        msg.contains(&format!("cycle {cycle}")) && msg.contains(&entity.to_string()),
        "report must carry cycle {cycle} and tile {entity}:\n{msg}"
    );
    assert!(
        entity == 6 || entity == 18,
        "divergence must land on a loaded tile, got {entity}"
    );
}

/// Tile filtering: a `tile=N` spec keeps only that tile's events.
#[test]
fn tile_filter_narrows_the_stream() {
    let spec = TraceSpec::parse("retire,tile=6").expect("static spec");
    let sparse = Program::from_instructions(vec![
        Instruction::movi(Reg::new(1), 41),
        Instruction::alu(Opcode::Add, Reg::new(1), Reg::new(1), Reg::new(1)),
    ]);
    let events = capture_run(&spec, |m| {
        m.load_thread(TileId::new(6), 0, sparse.clone());
        m.load_thread(TileId::new(7), 0, sparse.clone());
        m.run(200);
    });
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.entity() == Some(6)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every engine path must be mutually bit-identical on randomized
    /// workloads: the naive reference and the batched dense engine,
    /// traced and untraced. Mixed programs per tile and a core mask
    /// applied mid-run are in play, and the batch accounting must be
    /// consistent with the cycles driven.
    #[test]
    fn engines_agree_across_batched_and_tile_parallel_paths(
        seeds in proptest::collection::vec(any::<u64>(), 1..4),
        slots in 4usize..10,
        mask in 0u32..(1 << 25),
        chunks in proptest::collection::vec(500u64..4_000, 2..5),
    ) {
        let placement = testprog::placement(&seeds, slots);
        let drive = |m: &mut Machine, naive: bool| {
            for &(tile, thread, ref program) in &placement {
                m.load_thread(TileId::new(tile), thread, program.clone());
            }
            for (i, &chunk) in chunks.iter().enumerate() {
                if i == 1 {
                    m.apply_core_mask(mask);
                }
                if naive {
                    m.run_naive(chunk);
                } else {
                    m.run(chunk);
                }
            }
        };
        let mut naive = machine();
        drive(&mut naive, true);

        let mut batched = machine();
        drive(&mut batched, false);

        // Every subsystem wanted, `Retire` included, so the traced run
        // takes the replay that emits.
        let mut traced_slot = None;
        trace::capture(&TraceSpec::default(), || {
            let mut m = machine();
            drive(&mut m, false);
            traced_slot = Some(m);
        });
        let traced = traced_slot.expect("traced run completed");

        prop_assert_eq!(batched.now(), naive.now());
        prop_assert_eq!(batched.counters(), naive.counters());
        prop_assert_eq!(traced.counters(), naive.counters());
        prop_assert_eq!(batched.retired(), naive.retired());

        // Batch accounting: the batched engine drove every cycle.
        let total: u64 = chunks.iter().sum();
        let b = batched.engine_metrics();
        prop_assert_eq!(b.batched_cycles, total);
        prop_assert!(b.batches == 0 || b.batched_cycles > 0, "batches without batched cycles");
        // Observing must not perturb: a collector changes nothing the
        // engine does, down to its own scheduling diagnostics.
        prop_assert_eq!(traced.engine_metrics(), b);
    }
}

// --- The paper's microbenchmarks: the loops the dense engine's ---
// --- local run-ahead exists to accelerate.                      ---

/// Chunk lengths of the microbenchmark legs: one that ends inside the
/// first segment, several whole segments, one that ends mid-segment
/// and a long stretch of steady state.
const MICRO_CHUNKS: [u64; 4] = [1_000, 10_000, 3_333, 30_000];

fn micro_machine(bench: Microbenchmark, tpc: ThreadsPerCore, cores: usize) -> Machine {
    let mut m = machine();
    load_microbenchmark(&mut m, bench, cores * tpc.count(), tpc, RunLength::Forever);
    m
}

/// Figures 13/14's Int, HP and Hist at 1 and 2 threads per core on 1,
/// 7, 13 and 25 cores, run forever: `run` must match `run_naive` on
/// every counter and on retirement. These are the shapes the one-thread
/// loop replay, the two-thread loop (and its per-thread loops), the
/// owned memory accesses and phase B's re-armed runs take. Int and HP
/// touch only lines their tiles own, so no lane is ever rewound.
fn assert_microbenchmark_matches_naive(bench: Microbenchmark) {
    for tpc in [ThreadsPerCore::One, ThreadsPerCore::Two] {
        for cores in [1, 7, 13, 25] {
            let mut fast = micro_machine(bench, tpc, cores);
            let mut naive = micro_machine(bench, tpc, cores);
            for chunk in MICRO_CHUNKS {
                fast.run(chunk);
                naive.run_naive(chunk);
            }
            let point = format!("{} {} on {cores} cores", bench.label(), tpc.label());
            assert_eq!(fast.counters(), naive.counters(), "{point}");
            assert_eq!(fast.retired(), naive.retired(), "{point}");
            if cores == 25 {
                assert!(
                    fast.engine_metrics().batched_cycles > 0,
                    "{point} never reached the dense engine"
                );
            }
            if bench != Microbenchmark::Hist {
                assert_eq!(fast.engine_metrics().rewinds, 0, "{point}");
            }
        }
    }
}

#[test]
fn int_microbenchmark_matches_naive_engine() {
    assert_microbenchmark_matches_naive(Microbenchmark::Int);
}

#[test]
fn hp_microbenchmark_matches_naive_engine() {
    assert_microbenchmark_matches_naive(Microbenchmark::Hp);
}

#[test]
fn hist_microbenchmark_matches_naive_engine() {
    assert_microbenchmark_matches_naive(Microbenchmark::Hist);
}

/// HP mixes both local shapes — replayed compute loops and mixed
/// threads whose owned loads and drains phase B applies — so its traced run
/// must retire in the naive engine's (cycle, tile) order, with the
/// engine-mode events masked, and publish the untraced run's counters
/// and engine diagnostics.
#[test]
fn traced_hp_microbenchmark_retires_in_naive_order() {
    const CAP: usize = 200_000;
    let spec = TraceSpec::parse(&format!("retire,engine,cap={CAP}")).expect("static spec");
    let chunks = &MICRO_CHUNKS[..3];
    let retires = |events: Vec<piton::obs::TraceEvent>| -> Vec<piton::obs::TraceEvent> {
        assert!(events.len() < CAP, "the ring dropped events");
        events
            .into_iter()
            .filter(|e| !matches!(e, piton::obs::TraceEvent::Engine { .. }))
            .collect()
    };
    for tpc in [ThreadsPerCore::One, ThreadsPerCore::Two] {
        let (traced, fast_events) = trace::capture(&spec, || {
            let mut m = micro_machine(Microbenchmark::Hp, tpc, 7);
            for &chunk in chunks {
                m.run(chunk);
            }
            m
        });
        let (_, naive_events) = trace::capture(&spec, || {
            let mut m = micro_machine(Microbenchmark::Hp, tpc, 7);
            for &chunk in chunks {
                m.run_naive(chunk);
            }
        });
        let mut untraced = micro_machine(Microbenchmark::Hp, tpc, 7);
        for &chunk in chunks {
            untraced.run(chunk);
        }
        assert!(
            fast_events
                .iter()
                .any(|e| matches!(e, piton::obs::TraceEvent::Engine { .. })),
            "the engine leg emitted nothing"
        );
        if let Some(d) = first_divergence(&retires(fast_events), &retires(naive_events)) {
            panic!("HP {}: engines diverged\n{d}", tpc.label());
        }
        assert_eq!(traced.counters(), untraced.counters());
        assert_eq!(traced.engine_metrics(), untraced.engine_metrics());
    }
}

/// A collector on *another* thread must not reach an untraced machine:
/// the helper holds `trace::capture` open for exactly as long as the
/// main thread drives its machine, the main thread's gate stays shut
/// throughout, and the result must equal a run made with no collector
/// anywhere — counters and engine diagnostics alike.
#[test]
fn foreign_collector_does_not_perturb_an_untraced_machine() {
    use std::sync::Barrier;

    let placement = testprog::placement(&[0x5EED_0001, 0x5EED_0002, 0x5EED_0003], 9);
    let drive = || {
        let mut m = machine();
        for &(tile, thread, ref program) in &placement {
            m.load_thread(TileId::new(tile), thread, program.clone());
        }
        for chunk in [700, 4_500, 1_300] {
            m.run(chunk);
        }
        m
    };
    let alone = drive();
    assert!(
        alone.engine_metrics().batched_cycles > 0,
        "the workload must reach the dense engine for the comparison to mean anything"
    );

    let (installed, finished) = (Barrier::new(2), Barrier::new(2));
    // Gate readings are asserted after the scope joins, so a failure
    // cannot strand the other thread at a barrier.
    let (helper_open, main_open, beside) = std::thread::scope(|s| {
        let helper = s.spawn(|| {
            trace::capture(&TraceSpec::default(), || {
                installed.wait();
                finished.wait();
                trace::active()
            })
            .0
        });
        installed.wait();
        let open_before = trace::active();
        let m = drive();
        let main_open = open_before || trace::active();
        finished.wait();
        (helper.join().expect("helper thread"), main_open, m)
    });
    assert!(helper_open, "the helper's capture opens its own gate");
    assert!(
        !main_open,
        "the helper's collector must not open the main thread's gate"
    );
    assert_eq!(beside.counters(), alone.counters());
    assert_eq!(beside.engine_metrics(), alone.engine_metrics());
}

// --- Golden trace fixtures: one representative program per ---
// --- experiment family, pinned byte-for-byte.               ---

fn assert_golden_trace(name: &str, events: &[piton::obs::TraceEvent]) {
    assert!(!events.is_empty(), "{name}: empty trace pins nothing");
    common::assert_matches_golden(name, &encode_jsonl(events));
}

/// EPI family (Figure 11): a single-tile ALU kernel — retirement
/// stream only.
#[test]
fn golden_trace_epi_family() {
    let program = Program::from_instructions(vec![
        Instruction::movi(Reg::new(1), 7),
        Instruction::movi(Reg::new(2), 9),
        Instruction::alu(Opcode::Add, Reg::new(3), Reg::new(1), Reg::new(2)),
        Instruction::alu(Opcode::Mulx, Reg::new(3), Reg::new(3), Reg::new(2)),
        Instruction::alu(Opcode::Sdivx, Reg::new(4), Reg::new(3), Reg::new(1)),
        Instruction::halt(),
    ]);
    let spec = TraceSpec::parse("retire").expect("static spec");
    let events = capture_run(&spec, |m| {
        m.load_thread(TileId::new(12), 0, program);
        m.run(500);
    });
    assert_golden_trace("trace_epi.jsonl", &events);
}

/// Memory-system family (Table VII): cross-tile store/load coherence
/// traffic — cache transitions plus the NoC hops that carry them.
#[test]
fn golden_trace_memory_family() {
    let store_side = Program::from_instructions(vec![
        Instruction::movi(Reg::new(1), 0x80_0000),
        Instruction::movi(Reg::new(2), 77),
        Instruction::stx(Reg::new(2), Reg::new(1), 64),
        Instruction::membar(),
        Instruction::halt(),
    ]);
    let load_side = Program::from_instructions(vec![
        Instruction::movi(Reg::new(1), 0x80_0000),
        Instruction::ldx(Reg::new(3), Reg::new(1), 64),
        Instruction::ldx(Reg::new(4), Reg::new(1), 64),
        Instruction::halt(),
    ]);
    let spec = TraceSpec::parse("cache,noc").expect("static spec");
    let events = capture_run(&spec, |m| {
        m.load_thread(TileId::new(3), 0, store_side);
        m.run(600);
        m.load_thread(TileId::new(14), 0, load_side);
        m.run(600);
    });
    assert_golden_trace("trace_memory.jsonl", &events);
}

/// NoC family (Figure 12): the Figure 12 invalidation-traffic pattern
/// generator — pure flit-hop stream.
#[test]
fn golden_trace_noc_family() {
    let spec = TraceSpec::parse("noc").expect("static spec");
    let events = capture_run(&spec, |m| {
        m.run_invalidation_traffic(TileId::new(2), SwitchPattern::Fsw, 47 * 4);
    });
    assert_golden_trace("trace_noc.jsonl", &events);
}

/// Governor family (closed-loop Figure 9): a preheated Chip #1 die
/// forces `ThrottleOnBoot` down the PLL ladder — every operating-point
/// transition lands in the trace as a `governor` event carrying the
/// held frequency and the junction temperature that forced it.
#[test]
fn golden_trace_governor_family() {
    use piton::arch::units::{Hertz, Seconds, Volts};
    use piton::board::system::PitonSystem;
    use piton::power::governor::{Governor, GovernorConfig};
    use piton::power::vf::{VfSolver, T_JUNCTION_LIMIT_C};

    let spec = TraceSpec::parse("governor").expect("static spec");
    let (_, events) = trace::capture(&spec, || {
        let mut sys = PitonSystem::reference_chip_1();
        sys.set_chunk_cycles(1_000);
        sys.thermal_mut()
            .settle_to_junction(T_JUNCTION_LIMIT_C + 6.0);
        let hot_loop = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 0x5555),
            Instruction::alu(Opcode::Add, Reg::new(2), Reg::new(1), Reg::new(1)),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 1),
        ]);
        sys.machine_mut().load_on_tiles(25, 0, &hot_loop);
        let solver = VfSolver::new(sys.power_model().clone(), 20.0);
        let mut gov = Governor::new(
            GovernorConfig::ThrottleOnBoot,
            solver,
            Volts(1.0),
            Hertz::from_mhz(500.05),
        );
        let run = sys.run_governed(&mut gov, 8, Some(Seconds(0.05)));
        assert!(run.throttled_steps > 0, "preheated die must throttle");
    });
    assert!(
        events
            .iter()
            .all(|e| matches!(e, piton::obs::TraceEvent::Governor { .. })),
        "a governor-only spec must pass nothing else"
    );
    assert_golden_trace("trace_governor.jsonl", &events);
}

/// Scaling/multithreading family (Figures 13/14): the standard
/// randomized placement across many tiles and both threads, all
/// subsystems traced.
#[test]
fn golden_trace_scaling_family() {
    let seeds = [0x5CA1_AB1Eu64, 0xD15C_0B01];
    let placement = testprog::placement(&seeds, 8);
    let spec = TraceSpec::parse("retire,cache,noc").expect("static spec");
    let events = capture_run(&spec, |m| {
        for &(tile, thread, ref program) in &placement {
            m.load_thread(TileId::new(tile), thread, program.clone());
        }
        m.run(800);
    });
    assert_golden_trace("trace_scaling.jsonl", &events);
}
