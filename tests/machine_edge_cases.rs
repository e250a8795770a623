//! Edge-case behaviour of the whole-chip machine: fast-forward
//! equivalence, eviction storms, chipset queueing, and scheduler
//! fairness.

use piton::arch::config::ChipConfig;
use piton::arch::isa::{Instruction, Opcode, Reg};
use piton::arch::topology::TileId;
use piton::sim::cache::{LineState, SetAssocCache};
use piton::sim::chipset::MemoryPath;
use piton::sim::events::ActivityCounters;
use piton::sim::machine::Machine;
use piton::sim::memsys::MemorySystem;
use piton::sim::program::Program;
use piton::workloads::asm::Assembler;

#[test]
fn run_in_chunks_equals_run_at_once() {
    let build = || {
        let mut m = Machine::new(&ChipConfig::piton());
        let mut asm = Assembler::new();
        asm.movi(Reg::new(1), 0x9000);
        asm.label("loop");
        asm.ldx(Reg::new(2), Reg::new(1), 0);
        asm.alu(Opcode::Add, Reg::new(1), Reg::new(1), Reg::new(2));
        asm.jump("loop");
        m.load_thread(TileId::new(0), 0, asm.assemble());
        m.load_thread(TileId::new(7), 0, asm.assemble());
        m
    };
    let mut whole = build();
    whole.run(50_000);

    let mut chunked = build();
    for _ in 0..50 {
        chunked.run(1_000);
    }
    assert_eq!(whole.now(), chunked.now());
    assert_eq!(whole.counters(), chunked.counters());
}

#[test]
fn cache_survives_an_eviction_storm() {
    // Fill far past capacity and verify the invariant: never more valid
    // lines than ways × sets, and the most recent fills survive.
    let mut c = SetAssocCache::new(piton::arch::config::CacheConfig::new(1024, 2, 16));
    for k in 0..10_000u64 {
        c.insert(k * 16, LineState::Shared, k);
    }
    assert!(c.valid_lines() <= 64);
    // The last fill in each set must still be resident.
    assert_eq!(c.peek(9_999 * 16), Some(LineState::Shared));
}

#[test]
fn l2_capacity_eviction_invalidates_private_copies() {
    // One L2 slice is 64 KB / 4-way / 64 B = 256 sets. Aliasing 5+
    // lines to the same set of the same home slice forces an L2
    // eviction whose victim must vanish from the requester's L1.5 too
    // (inclusive hierarchy).
    let mut cfg = ChipConfig::piton();
    cfg.slice_mapping = piton::arch::config::SliceMapping::High;
    let mut sys = MemorySystem::new(&cfg);
    let mut act = ActivityCounters::default();
    let t0 = TileId::new(0);
    // Home region of tile0 under high mapping; 16 KB stride = same L2 set.
    let addrs: Vec<u64> = (0..6u64).map(|k| 0x40 + k * 16 * 1024).collect();
    let mut now = 0;
    for &a in &addrs {
        let out = sys.load(t0, a, now, &mut act);
        now += out.latency + 1;
    }
    // With 6 > 4 ways, at least one early line was evicted from the L2
    // and must have been purged from the L1.5 as well.
    let resident: usize = addrs
        .iter()
        .filter(|&&a| sys.l15_state(t0, a).is_some())
        .count();
    assert!(
        resident <= 4,
        "inclusive eviction failed: {resident} resident"
    );
    // The last line is definitely still resident everywhere.
    assert!(sys.l15_state(t0, *addrs.last().unwrap()).is_some());
}

#[test]
fn memory_path_services_in_fifo_order() {
    let mut path = MemoryPath::new();
    let mut act = ActivityCounters::default();
    // Three requests arriving at different times: completion order must
    // follow arrival order, each no earlier than base latency.
    let l1 = path.access(0, &mut act);
    let l2 = path.access(100, &mut act);
    let l3 = path.access(5_000, &mut act);
    let done1 = l1;
    let done2 = 100 + l2;
    let done3 = 5_000 + l3;
    assert!(done1 < done2, "{done1} {done2}");
    assert!(done2 < done3);
    assert!(
        l3 < 420,
        "third request arrived after idle, must be unqueued"
    );
    assert_eq!(path.serviced_requests(), 3);
}

#[test]
fn scheduler_is_fair_between_two_spinning_threads() {
    // Two identical infinite integer loops on one core must retire
    // within 1% of each other over a long window.
    let mut m = Machine::new(&ChipConfig::piton());
    let spin = |tag: u64| {
        let mut asm = Assembler::new();
        asm.movi(Reg::new(1), tag as i64);
        asm.label("loop");
        asm.alu(Opcode::Add, Reg::new(2), Reg::new(1), Reg::new(2));
        asm.jump("loop");
        asm.assemble()
    };
    m.load_thread(TileId::new(0), 0, spin(1));
    m.load_thread(TileId::new(0), 1, spin(2));
    m.run(100_000);
    let r0 = m.core(TileId::new(0)).retired();
    assert!(r0 > 80_000, "core nearly fully issuing: {r0}");
    // Register r2 accumulates per thread; both made similar progress.
    let a = m.core(TileId::new(0)).reg(0, Reg::new(2));
    let b = m.core(TileId::new(0)).reg(1, Reg::new(2));
    let ratio = a as f64 / b as f64 / 0.5; // b's tag is 2: b ≈ 2 × iterations
    assert!((0.95..1.05).contains(&ratio), "unfair: {a} vs {b}");
}

#[test]
fn membar_with_empty_buffer_is_cheap() {
    let mut m = Machine::new(&ChipConfig::piton());
    let p = Program::from_instructions(vec![
        Instruction::membar(),
        Instruction::membar(),
        Instruction::halt(),
    ]);
    m.load_thread(TileId::new(0), 0, p);
    assert!(m.run_until_halted(1_000));
    // With nothing to drain, each membar occupies only its base latency.
    let occ = m.counters().occupancy_cycles[Opcode::Membar.index()];
    assert!(
        occ <= 2 * Opcode::Membar.base_latency(),
        "membar occupancy {occ}"
    );
}

#[test]
fn halted_chip_fast_forwards_instantly() {
    let mut m = Machine::new(&ChipConfig::piton());
    m.load_thread(
        TileId::new(0),
        0,
        Program::from_instructions(vec![Instruction::halt()]),
    );
    assert!(m.run_until_halted(10));
    let before = m.counters().cycles;
    let t0 = std::time::Instant::now();
    m.run(50_000_000); // dead cycles: must be skipped, not simulated
    assert!(t0.elapsed().as_millis() < 500, "fast-forward too slow");
    assert_eq!(m.counters().cycles, before + 50_000_000);
}

/// A heavily-degraded die polls only its survivors: fused-off cores
/// (the paper's Table IV 24-core parts) never enter the dense poll
/// set, and cores that halt mid-run leave it at the next segment
/// barrier. Two saturated survivors step every cycle and each of the
/// six short-lived cores stays for at most one segment, so a halted or
/// fused-off core that stayed polled would push the step count past
/// its bound. Counters stay bit-identical to the naive engine
/// throughout.
#[test]
fn fused_off_and_halted_cores_leave_the_poll_set() {
    let saturated = || {
        let mut asm = Assembler::new();
        asm.movi(Reg::new(1), 0x0F0F);
        asm.label("loop");
        for _ in 0..16 {
            asm.alu(Opcode::Add, Reg::new(2), Reg::new(1), Reg::new(2));
        }
        asm.jump("loop");
        asm.assemble()
    };
    let short_lived = |len: usize| {
        let mut asm = Assembler::new();
        asm.movi(Reg::new(1), 3);
        for _ in 0..len {
            asm.alu(Opcode::Add, Reg::new(2), Reg::new(2), Reg::new(1));
        }
        asm.halt();
        asm.assemble()
    };
    // Tiles 0..=9 fused off; 6 staggered short-lived cores halt early;
    // tiles 12 and 24 run saturated loops forever.
    let mask = 0x3FF;
    let build = || {
        let mut m = Machine::new(&ChipConfig::piton());
        m.apply_core_mask(mask);
        for (i, tile) in (14..20).enumerate() {
            m.load_thread(TileId::new(tile), 0, short_lived(200 + 100 * i));
        }
        m.load_thread(TileId::new(12), 0, saturated());
        m.load_thread(TileId::new(24), 0, saturated());
        m
    };
    let mut event = build();
    event.run(200_000);
    let mut naive = build();
    naive.run_naive(200_000);
    assert_eq!(event.now(), naive.now());
    assert_eq!(event.counters(), naive.counters());

    let em = event.engine_metrics();
    assert!(
        em.batched_cycles > 0,
        "a saturated survivor pair must engage the batched dense engine"
    );
    assert!(
        em.steps <= 2 * 200_000 + 6 * 2_048,
        "halted or fused-off cores stayed polled: {} steps",
        em.steps
    );
}

#[test]
fn store_to_same_line_from_two_tiles_ping_pongs_ownership() {
    let mut sys = MemorySystem::new(&ChipConfig::piton());
    let mut act = ActivityCounters::default();
    let a = 0x6000;
    let t1 = TileId::new(2);
    let t2 = TileId::new(17);
    let mut now = 0;
    for round in 0..6 {
        let (writer, value) = if round % 2 == 0 {
            (t1, round)
        } else {
            (t2, round)
        };
        now += sys.store_drain(writer, a, value, now, &mut act) + 1;
        assert!(sys.coherence_ok(a));
        assert_eq!(sys.peek_mem(a), value);
    }
    // Each ownership transfer invalidates the previous owner.
    assert!(
        act.invalidations >= 5,
        "invalidations {}",
        act.invalidations
    );
}

#[test]
fn casx_lock_is_never_starved_across_the_chip() {
    // All 25 tiles increment one shared counter under a casx lock; the
    // final count proves no update was lost and no thread starved.
    let mut m = Machine::new(&ChipConfig::piton());
    for t in 0..25 {
        let mut asm = Assembler::new();
        asm.movi(Reg::new(1), 0xA000); // lock
        asm.movi(Reg::new(2), 0xA040); // counter
        asm.movi(Reg::new(6), 1);
        asm.movi(Reg::new(5), 4); // iterations
        asm.label("acquire");
        asm.movi(Reg::new(3), 1);
        asm.casx(Reg::new(3), Reg::new(1), Reg::G0);
        asm.branch_to(Opcode::Bne, Reg::new(3), Reg::G0, "acquire");
        asm.ldx(Reg::new(4), Reg::new(2), 0);
        asm.alu(Opcode::Add, Reg::new(4), Reg::new(4), Reg::new(6));
        asm.stx(Reg::new(4), Reg::new(2), 0);
        asm.membar();
        asm.stx(Reg::G0, Reg::new(1), 0);
        asm.membar();
        asm.alu(Opcode::Sub, Reg::new(5), Reg::new(5), Reg::new(6));
        asm.branch_to(Opcode::Bne, Reg::new(5), Reg::G0, "acquire");
        asm.halt();
        m.load_thread(TileId::new(t), 0, asm.assemble());
    }
    assert!(m.run_until_halted(20_000_000), "lock protocol deadlocked");
    assert_eq!(m.memsys().peek_mem(0xA040), 100, "lost increments");
}

/// The movi/add/branch spin loop used by the governed-run tests: every
/// thread retires forever, so only the step budget ends the run.
fn governed_spin_loop() -> Program {
    Program::from_instructions(vec![
        Instruction::movi(Reg::new(1), 0x5555),
        Instruction::alu(Opcode::Add, Reg::new(2), Reg::new(1), Reg::new(1)),
        Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 1),
    ])
}

/// Governor × fault plan: a mid-run brownout sags the rails *and* the
/// capability curve the governor consults, so `RaceToHalt` must drop
/// off its pre-sag operating point for exactly the browned-out control
/// steps and race back up once the supply recovers.
#[test]
fn governor_throttles_through_a_brownout_and_recovers() {
    use piton::arch::units::{Hertz, Seconds, Volts};
    use piton::board::fault::{Brownout, FaultPlan};
    use piton::board::system::PitonSystem;
    use piton::power::governor::{Governor, GovernorConfig};
    use piton::power::vf::VfSolver;

    let mut sys = PitonSystem::reference_chip_2();
    sys.set_chunk_cycles(1_000);
    sys.inject_faults(&FaultPlan {
        seed: 1,
        drop_rate: 0.0,
        stuck_rate: 0.0,
        glitch_rate: 0.0,
        // Control steps 2, 3 and 4 see the rails at 85 %.
        brownout: Some(Brownout {
            start_sample: 2,
            samples: 3,
            factor: 0.85,
        }),
        sabotage: vec![],
        crash: vec![],
    });
    sys.machine_mut()
        .load_on_tiles(25, 0, &governed_spin_loop());
    let solver = VfSolver::new(sys.power_model().clone(), 20.0);
    let mut gov = Governor::new(
        GovernorConfig::RaceToHalt,
        solver,
        Volts(1.0),
        Hertz::from_mhz(500.05),
    );
    let run = sys.run_governed(&mut gov, 8, Some(Seconds(0.01)));
    assert_eq!(run.samples.len(), 8, "spin loop must survive all steps");
    // Sagged steps run at the 0.85 V capability — well below the
    // healthy-rail choice on either side of the window.
    assert!(
        run.samples[2].freq.0 < run.samples[1].freq.0,
        "brownout onset did not throttle: {} vs {}",
        run.samples[2].freq,
        run.samples[1].freq
    );
    assert!(
        run.samples[6].freq.0 > run.samples[4].freq.0,
        "supply recovery did not restore frequency: {} vs {}",
        run.samples[6].freq,
        run.samples[4].freq
    );
}

/// Governor × fused silicon: a core fused off via the yield mask never
/// executes, so it must contribute no activity to the power the
/// closed loop feeds its thermal model — the 24-core die runs strictly
/// cooler than the full chip at the same held operating point.
#[test]
fn fused_off_core_adds_no_heat_to_the_governed_loop() {
    use piton::arch::units::{Hertz, Seconds, Volts};
    use piton::board::system::{GovernedRun, PitonSystem};
    use piton::power::governor::{Governor, GovernorConfig};
    use piton::power::vf::VfSolver;

    let governed = |fuse_mask: u32| -> GovernedRun {
        let mut sys = PitonSystem::reference_chip_2();
        sys.set_chunk_cycles(5_000);
        sys.set_core_mask(fuse_mask);
        sys.machine_mut()
            .load_on_tiles(25, 0, &governed_spin_loop());
        let solver = VfSolver::new(sys.power_model().clone(), 20.0);
        let mut gov = Governor::new(
            GovernorConfig::ThrottleOnBoot,
            solver,
            Volts(1.0),
            Hertz::from_mhz(500.05),
        );
        sys.run_governed(&mut gov, 6, Some(Seconds(1.0)))
    };
    let full = governed(0);
    let fused = governed(1 << 12); // fuse the centre tile
                                   // Premise: at 1.0 V under the heat sink neither die approaches the
                                   // boot limit, so both loops hold the boot setpoint throughout and
                                   // the thermal trajectories differ only through activity.
    assert_eq!(full.throttled_steps, 0, "full die unexpectedly throttled");
    assert_eq!(fused.throttled_steps, 0, "fused die unexpectedly throttled");
    for (k, (a, b)) in fused.samples.iter().zip(full.samples.iter()).enumerate() {
        assert_eq!(a.freq, b.freq, "operating points diverged at step {k}");
        assert!(
            a.power.0 < b.power.0,
            "step {k}: fused die power {} not below full die {}",
            a.power,
            b.power
        );
        assert!(
            a.junction_c < b.junction_c,
            "step {k}: fused die junction {} °C not below full die {} °C",
            a.junction_c,
            b.junction_c
        );
    }
}
