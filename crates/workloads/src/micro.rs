//! The §IV-H microbenchmarks: Int, HP (High Power) and Hist.
//!
//! * **Int** — a tight loop of integer instructions that maximizes
//!   switching activity.
//! * **HP** — two distinct thread kinds: a pure integer loop, and a
//!   mixed loop with a 5:1 computation-to-memory ratio. The paper's
//!   highest observed chip power (~3.5 W) comes from HP on all 50
//!   threads.
//! * **Hist** — a parallel shared-memory histogram: each thread
//!   computes a histogram over its slice of a shared array, contending
//!   for per-bucket locks before updating the shared buckets. Unlike
//!   Int/HP (constant work *per thread*), Hist keeps the *total* work
//!   constant, so per-thread work shrinks as threads are added — the
//!   source of its distinctive power and energy scaling (§IV-H1/2).
//!
//! Loaders map threads onto cores in the paper's two configurations:
//! one thread per core (multicore) or two threads per core
//! (multithreading), with HP's two thread kinds alternated across cores
//! (1 T/C) or paired within each core (2 T/C), as §IV-H1 describes.

use piton_arch::isa::{Opcode, Reg};
use piton_arch::topology::TileId;
use piton_sim::machine::Machine;
use piton_sim::program::Program;

use crate::asm::Assembler;

/// Threads-per-core configuration of §IV-H.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadsPerCore {
    /// Multicore: one thread on each active core.
    One,
    /// Multithreading: two threads on each active core.
    Two,
}

impl ThreadsPerCore {
    /// Threads per core as a number.
    #[must_use]
    pub fn count(self) -> usize {
        match self {
            ThreadsPerCore::One => 1,
            ThreadsPerCore::Two => 2,
        }
    }

    /// The paper's axis label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ThreadsPerCore::One => "1 T/C",
            ThreadsPerCore::Two => "2 T/C",
        }
    }
}

/// How many loop iterations a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunLength {
    /// Infinite loop (steady-state power measurement).
    Forever,
    /// Fixed iterations then halt (execution-time/energy measurement).
    Iterations(u32),
}

impl RunLength {
    fn emit_loop_control(self, asm: &mut Assembler, counter: Reg, one: Reg, top: &str) {
        match self {
            RunLength::Forever => {
                asm.jump(top);
            }
            RunLength::Iterations(_) => {
                asm.alu(Opcode::Sub, counter, counter, one);
                asm.branch_to(Opcode::Bne, counter, Reg::G0, top);
                asm.halt();
            }
        }
    }

    fn init_counter(self, asm: &mut Assembler, counter: Reg) {
        if let RunLength::Iterations(n) = self {
            asm.movi(counter, i64::from(n));
        }
    }
}

const ONE: Reg = Reg::new(2);
const COUNTER: Reg = Reg::new(3);
const PAT_A: Reg = Reg::new(10);
const PAT_B: Reg = Reg::new(11);
const SCRATCH: Reg = Reg::new(12);
const ADDR: Reg = Reg::new(13);

/// High-switching operand patterns for Int/HP (alternating bits).
const SWITCH_A: i64 = 0x5555_5555_5555_5555;
const SWITCH_B: i64 = -0x5555_5555_5555_5556; // 0xAAAA_AAAA_AAAA_AAAA

/// Per-tile private data address (keeps HP's memory traffic
/// coherence-free).
#[must_use]
pub fn hp_data_addr(tile: usize, thread: usize) -> u64 {
    0x400_0000 + (tile as u64 * 2 + thread as u64) * 0x1_0000
}

/// The Int microbenchmark: a tight integer loop maximizing switching.
#[must_use]
pub fn int_program(length: RunLength) -> Program {
    let mut asm = Assembler::new();
    asm.movi(ONE, 1);
    asm.movi(PAT_A, SWITCH_A);
    asm.movi(PAT_B, SWITCH_B);
    length.init_counter(&mut asm, COUNTER);
    asm.label("loop");
    // Unrolled x20 so one thread issues nearly every cycle (IPC ~0.9),
    // like the paper's description of Int keeping each core busy.
    for k in 0..20 {
        let op = if k % 2 == 0 { Opcode::Add } else { Opcode::And };
        asm.alu(op, SCRATCH, PAT_A, PAT_B);
    }
    length.emit_loop_control(&mut asm, COUNTER, ONE, "loop");
    asm.assemble()
}

/// The two HP thread kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HpKind {
    /// Pure integer computation.
    Compute,
    /// Mixed loop: 5:1 computation to memory (loads, stores, integer).
    Mixed,
}

/// One HP thread program.
#[must_use]
pub fn hp_program(kind: HpKind, tile: usize, thread: usize, length: RunLength) -> Program {
    match kind {
        HpKind::Compute => int_program(length),
        HpKind::Mixed => {
            let mut asm = Assembler::new();
            let base = hp_data_addr(tile, thread);
            asm.movi(ONE, 1);
            asm.movi(PAT_A, SWITCH_A);
            asm.movi(PAT_B, SWITCH_B);
            asm.movi(ADDR, base as i64);
            asm.data_word(base, 0x0F0F_F0F0_0F0F_F0F0);
            // Take ownership so steady-state stores are 10-cycle drains.
            asm.stx(PAT_A, ADDR, 0);
            asm.membar();
            length.init_counter(&mut asm, COUNTER);
            asm.label("loop");
            // 14 compute : 3 memory ≈ the paper's 5:1 ratio, sized so
            // one iteration takes the same cycles (25) as the compute
            // thread's — the two kinds stay load-balanced on a shared
            // core.
            for k in 0..14 {
                let op = if k % 2 == 0 { Opcode::Add } else { Opcode::And };
                asm.alu(op, SCRATCH, PAT_A, PAT_B);
            }
            asm.ldx(SCRATCH, ADDR, 0);
            asm.ldx(SCRATCH, ADDR, 8);
            asm.stx(PAT_B, ADDR, 0);
            length.emit_loop_control(&mut asm, COUNTER, ONE, "loop");
            asm.assemble()
        }
    }
}

/// Shared-memory layout of the Hist microbenchmark.
pub mod hist_layout {
    /// Number of histogram buckets (and per-bucket locks).
    pub const BUCKETS: u64 = 8;
    /// Input array base address.
    pub const INPUT_BASE: u64 = 0x200_0000;
    /// Total input elements (total work is constant across thread
    /// counts, §IV-H). 32 KB of input overflows the 8 KB L1 at low
    /// thread counts, giving the memory/compute overlap §IV-H2 credits
    /// for Hist's multithreading efficiency.
    pub const INPUT_ELEMENTS: u64 = 4_096;
    /// Bucket array base (one 64 B line per bucket).
    pub const BUCKET_BASE: u64 = 0x300_0000;
    /// Lock array base (one 64 B line per lock).
    pub const LOCK_BASE: u64 = 0x300_1000;

    /// Address of bucket `b`.
    #[must_use]
    pub fn bucket_addr(b: u64) -> u64 {
        BUCKET_BASE + b * 64
    }

    /// Address of lock `b`.
    #[must_use]
    pub fn lock_addr(b: u64) -> u64 {
        LOCK_BASE + b * 64
    }

    /// The value of input element `i` (seeded, uniform over buckets).
    #[must_use]
    pub fn element(i: u64) -> u64 {
        let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 27)
    }
}

/// One Hist thread: computes the histogram of its slice of the shared
/// input, locking each bucket before updating it.
///
/// `length` counts whole passes over the thread's slice.
///
/// # Panics
///
/// Panics unless `tid < nthreads` and `nthreads` divides the input
/// reasonably (each thread needs at least one element).
#[must_use]
pub fn hist_program(tid: usize, nthreads: usize, length: RunLength) -> Program {
    use hist_layout as h;
    assert!(tid < nthreads, "tid out of range");
    let per_thread = (h::INPUT_ELEMENTS as usize / nthreads).max(1) as u64;
    let start = (tid as u64 * per_thread).min(h::INPUT_ELEMENTS - 1);

    let elem_ptr = Reg::new(1);
    let remaining = Reg::new(4);
    let value = Reg::new(5);
    let bucket_off = Reg::new(6);
    let lock_addr = Reg::new(7);
    let mask = Reg::new(8);
    let stride = Reg::new(9);
    let swap = Reg::new(14);
    let count = Reg::new(15);
    let lock_base = Reg::new(16);
    let bucket_base = Reg::new(17);
    let eight = Reg::new(18);
    let bucket_addr = Reg::new(19);

    let mut asm = Assembler::new();
    asm.movi(ONE, 1);
    asm.movi(mask, (h::BUCKETS - 1) as i64);
    asm.movi(stride, 64);
    asm.movi(eight, 8);
    asm.movi(lock_base, h::LOCK_BASE as i64);
    asm.movi(bucket_base, h::BUCKET_BASE as i64);
    // Thread 0 carries the shared data image (all threads writing the
    // same image is harmless but wasteful).
    if tid == 0 {
        for i in 0..h::INPUT_ELEMENTS {
            asm.data_word(h::INPUT_BASE + i * 8, h::element(i));
        }
    }
    length.init_counter(&mut asm, COUNTER);

    asm.label("pass");
    asm.movi(elem_ptr, (h::INPUT_BASE + start * 8) as i64);
    asm.movi(remaining, per_thread as i64);
    asm.label("elem");
    asm.ldx(value, elem_ptr, 0);
    asm.alu(Opcode::And, bucket_off, value, mask);
    asm.alu(Opcode::Mulx, bucket_off, bucket_off, stride);
    asm.alu(Opcode::Add, lock_addr, bucket_off, lock_base);
    asm.alu(Opcode::Add, bucket_addr, bucket_off, bucket_base);
    // Acquire the bucket lock: test-and-test-and-set. Contending
    // threads spin on a cached load (stalling on coherence refetches
    // after each release) rather than hammering the L2 with atomics.
    asm.label("acquire");
    asm.ldx(swap, lock_addr, 0);
    asm.branch_to(Opcode::Bne, swap, Reg::G0, "acquire");
    asm.movi(swap, 1);
    asm.casx(swap, lock_addr, Reg::G0);
    asm.branch_to(Opcode::Bne, swap, Reg::G0, "acquire");
    // Critical section: bucket += 1.
    asm.ldx(count, bucket_addr, 0);
    asm.alu(Opcode::Add, count, count, ONE);
    asm.stx(count, bucket_addr, 0);
    asm.membar();
    // Release.
    asm.stx(Reg::G0, lock_addr, 0);
    asm.membar();
    // Next element.
    asm.alu(Opcode::Add, elem_ptr, elem_ptr, eight);
    asm.alu(Opcode::Sub, remaining, remaining, ONE);
    asm.branch_to(Opcode::Bne, remaining, Reg::G0, "elem");
    length.emit_loop_control(&mut asm, COUNTER, ONE, "pass");
    asm.assemble()
}

/// The three microbenchmarks of §IV-H.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Microbenchmark {
    /// Integer switching loop.
    Int,
    /// High Power: integer + mixed thread kinds.
    Hp,
    /// Shared-memory histogram.
    Hist,
}

impl Microbenchmark {
    /// All three, in the paper's order.
    pub const ALL: [Microbenchmark; 3] = [
        Microbenchmark::Int,
        Microbenchmark::Hp,
        Microbenchmark::Hist,
    ];

    /// The paper's label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Microbenchmark::Int => "Int",
            Microbenchmark::Hp => "HP",
            Microbenchmark::Hist => "Hist",
        }
    }
}

/// Loads `threads` threads of a microbenchmark onto a machine in the
/// given threads-per-core configuration, following the paper's thread
/// mappings (§IV-H1): with 1 T/C, HP's two kinds alternate across
/// cores; with 2 T/C, each core runs one thread of each kind.
///
/// Returns the number of active cores.
///
/// # Panics
///
/// Panics if the configuration needs more cores than the chip has.
pub fn load_microbenchmark(
    machine: &mut Machine,
    bench: Microbenchmark,
    threads: usize,
    tpc: ThreadsPerCore,
    length: RunLength,
) -> usize {
    use std::sync::Arc;

    let tpc_n = tpc.count();
    let cores = threads.div_ceil(tpc_n);
    assert!(
        cores <= machine.config().tile_count(),
        "{threads} threads at {} need {cores} cores",
        tpc.label()
    );
    // Int and HP's compute kind are position-independent, so every
    // thread shares one program image and one assembly pass. HP's mixed
    // kind and Hist embed per-thread addresses and stay distinct.
    let shared_int: Option<Arc<Program>> = match bench {
        Microbenchmark::Int | Microbenchmark::Hp => Some(Arc::new(int_program(length))),
        Microbenchmark::Hist => None,
    };
    for t in 0..threads {
        let (core, slot) = match tpc {
            ThreadsPerCore::One => (t, 0),
            ThreadsPerCore::Two => (t / 2, t % 2),
        };
        let shared = match bench {
            Microbenchmark::Int => shared_int.as_ref(),
            Microbenchmark::Hp => {
                let kind = match tpc {
                    // Alternate kinds across cores.
                    ThreadsPerCore::One => {
                        if core % 2 == 0 {
                            HpKind::Compute
                        } else {
                            HpKind::Mixed
                        }
                    }
                    // One of each kind within a core.
                    ThreadsPerCore::Two => {
                        if slot == 0 {
                            HpKind::Compute
                        } else {
                            HpKind::Mixed
                        }
                    }
                };
                match kind {
                    HpKind::Compute => shared_int.as_ref(),
                    HpKind::Mixed => None,
                }
            }
            Microbenchmark::Hist => None,
        };
        if let Some(program) = shared {
            machine.load_thread_shared(TileId::new(core), slot, program);
        } else {
            let program = match bench {
                Microbenchmark::Hp => hp_program(HpKind::Mixed, core, slot, length),
                Microbenchmark::Hist => hist_program(t, threads, length),
                Microbenchmark::Int => unreachable!("Int always shares"),
            };
            machine.load_thread(TileId::new(core), slot, program);
        }
    }
    cores
}

#[cfg(test)]
mod tests {
    use super::*;
    use piton_arch::config::ChipConfig;

    fn machine() -> Machine {
        Machine::new(&ChipConfig::piton())
    }

    #[test]
    fn int_fixed_iterations_halts() {
        let mut m = machine();
        m.load_thread(TileId::new(0), 0, int_program(RunLength::Iterations(100)));
        assert!(m.run_until_halted(50_000));
        let adds = m.counters().issues[Opcode::Add.index()];
        assert!(adds >= 400, "adds {adds}");
    }

    #[test]
    fn int_forever_never_halts() {
        let mut m = machine();
        m.load_thread(TileId::new(0), 0, int_program(RunLength::Forever));
        assert!(!m.run_until_halted(10_000));
    }

    #[test]
    fn hp_mixed_keeps_five_to_one_ratio() {
        let mut m = machine();
        m.load_thread(
            TileId::new(0),
            0,
            hp_program(HpKind::Mixed, 0, 0, RunLength::Iterations(200)),
        );
        assert!(m.run_until_halted(200_000));
        let act = m.counters();
        let compute = act.issues[Opcode::Add.index()] + act.issues[Opcode::And.index()];
        let memory = act.issues[Opcode::Ldx.index()] + act.issues[Opcode::Stx.index()];
        let ratio = compute as f64 / memory as f64;
        assert!((4.0..=6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn hist_counts_every_element_exactly_once_per_pass() {
        use hist_layout as h;
        let mut m = machine();
        let threads = 8;
        for t in 0..threads {
            m.load_thread(
                TileId::new(t),
                0,
                hist_program(t, threads, RunLength::Iterations(1)),
            );
        }
        assert!(m.run_until_halted(30_000_000), "hist did not finish");
        let total: u64 = (0..h::BUCKETS)
            .map(|b| m.memsys().peek_mem(h::bucket_addr(b)))
            .sum();
        assert_eq!(total, h::INPUT_ELEMENTS, "lost or duplicated updates");
        // Histogram matches a host-side reference count.
        for b in 0..h::BUCKETS {
            let expected = (0..h::INPUT_ELEMENTS)
                .filter(|&i| h::element(i) & (h::BUCKETS - 1) == b)
                .count() as u64;
            assert_eq!(
                m.memsys().peek_mem(h::bucket_addr(b)),
                expected,
                "bucket {b}"
            );
        }
    }

    #[test]
    fn hist_total_work_is_constant_across_thread_counts() {
        use hist_layout as h;
        for threads in [2usize, 4, 16] {
            let mut m = machine();
            for t in 0..threads {
                m.load_thread(
                    TileId::new(t),
                    0,
                    hist_program(t, threads, RunLength::Iterations(1)),
                );
            }
            assert!(m.run_until_halted(40_000_000), "{threads} threads stuck");
            let total: u64 = (0..h::BUCKETS)
                .map(|b| m.memsys().peek_mem(h::bucket_addr(b)))
                .sum();
            assert_eq!(total, h::INPUT_ELEMENTS, "{threads} threads");
        }
    }

    #[test]
    fn loader_maps_threads_per_paper() {
        // 16 threads at 1 T/C -> 16 cores; at 2 T/C -> 8 cores.
        let mut m1 = machine();
        let cores1 = load_microbenchmark(
            &mut m1,
            Microbenchmark::Int,
            16,
            ThreadsPerCore::One,
            RunLength::Forever,
        );
        assert_eq!(cores1, 16);
        let mut m2 = machine();
        let cores2 = load_microbenchmark(
            &mut m2,
            Microbenchmark::Int,
            16,
            ThreadsPerCore::Two,
            RunLength::Forever,
        );
        assert_eq!(cores2, 8);
        assert!(m2.core(TileId::new(7)).any_running());
        assert!(!m2.core(TileId::new(8)).any_running());
    }

    #[test]
    #[should_panic(expected = "need")]
    fn too_many_threads_panics() {
        let mut m = machine();
        let _ = load_microbenchmark(
            &mut m,
            Microbenchmark::Int,
            26,
            ThreadsPerCore::One,
            RunLength::Forever,
        );
    }

    #[test]
    fn multithreading_int_takes_about_twice_as_long() {
        // §IV-H2: "the multithreading/multicore execution time ratio for
        // Int is two, as no instruction overlapping occurs".
        let iters = RunLength::Iterations(500);
        let mut mc = machine();
        load_microbenchmark(&mut mc, Microbenchmark::Int, 2, ThreadsPerCore::One, iters);
        assert!(mc.run_until_halted(1_000_000));
        let t_mc = mc.now();

        let mut mt = machine();
        load_microbenchmark(&mut mt, Microbenchmark::Int, 2, ThreadsPerCore::Two, iters);
        assert!(mt.run_until_halted(2_000_000));
        let t_mt = mt.now();

        let ratio = t_mt as f64 / t_mc as f64;
        assert!((1.5..=2.2).contains(&ratio), "MT/MC ratio {ratio}");
    }
}
