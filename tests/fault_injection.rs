//! Cross-crate fault-injection properties.
//!
//! The paper shipped chips with faulty cores as degraded parts
//! (Table IV) and averaged 128 bench samples per reported number
//! (§III-A) precisely because real measurement campaigns are fallible.
//! These tests pin the reproduction's fault layer end to end: degraded
//! chips still halt with silent disabled tiles, injected monitor faults
//! are deterministic, and the sweep runner isolates any single killed
//! grid point.

use piton::arch::config::ChipConfig;
use piton::arch::error::PitonError;
use piton::arch::isa::{Instruction, Opcode, Reg};
use piton::arch::units::Watts;
use piton::arch::TileId;
use piton::board::fault::FaultPlan;
use piton::board::monitor::MonitorChannel;
use piton::board::Quality;
use piton::characterization::runner;
use piton::sim::{Machine, Program};
use proptest::prelude::*;

/// A self-terminating loop: count register 1 up to `n`, then fall off
/// the end of the program.
fn counting_program(n: i64) -> Program {
    Program::from_instructions(vec![
        Instruction::movi(Reg::new(1), 0),
        Instruction::movi(Reg::new(2), n),
        Instruction::movi(Reg::new(3), 1),
        Instruction::alu(Opcode::Add, Reg::new(1), Reg::new(1), Reg::new(3)),
        Instruction::branch(Opcode::Bne, Reg::new(1), Reg::new(2), 3),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any Table IV faulty-core mask yields a chip that still halts,
    /// with zero retirement on disabled tiles and full progress on the
    /// enabled ones.
    #[test]
    fn any_masked_chip_halts_with_silent_disabled_tiles(mask in 0u32..(1 << 25)) {
        let mut m = Machine::new(&ChipConfig::default());
        m.apply_core_mask(mask);
        let p = counting_program(40);
        m.load_on_tiles(25, 0, &p);
        prop_assert!(m.run_until_halted(2_000_000), "degraded chip must halt");
        for t in 0..25u32 {
            let retired = m.core(TileId::new(t as usize)).retired();
            if mask & (1 << t) != 0 {
                prop_assert_eq!(retired, 0, "disabled tile{} retired work", t);
            } else {
                prop_assert!(retired > 40, "enabled tile{} barely ran", t);
            }
        }
        prop_assert_eq!(m.disabled_cores(), mask.count_ones() as usize);
    }

    /// The injected monitor-fault stream is a pure function of
    /// (plan seed, channel seed): two identically-seeded channels agree
    /// sample for sample, including their quality tallies.
    #[test]
    fn monitor_faults_are_deterministic(
        seed in proptest::strategy::any::<u64>(),
        power_mw in 100.0f64..5_000.0,
    ) {
        let plan = FaultPlan {
            seed,
            drop_rate: 0.10,
            stuck_rate: 0.10,
            glitch_rate: 0.10,
            brownout: None,
            sabotage: Vec::new(),
            crash: Vec::new(),
        };
        let truth = Watts(power_mw / 1e3);
        let run = || {
            let mut chan = MonitorChannel::piton_board(7);
            chan.attach_faults(&plan);
            let mut q = Quality::default();
            let samples: Vec<Option<Watts>> =
                (0..64).map(|_| chan.sample_with_retry(truth, &mut q)).collect();
            (samples, q)
        };
        let (a, qa) = run();
        let (b, qb) = run();
        prop_assert_eq!(a, b);
        prop_assert_eq!(qa, qb);
        prop_assert_eq!(qa.kept + qa.dropped, 64);
    }

    /// One killed grid point never takes down the sweep: every other
    /// point completes with the same value at every jobs level, and the
    /// killed point reports a panic after all retries.
    #[test]
    fn try_sweep_isolates_any_single_kill(kill in 0usize..16, jobs in 1usize..5) {
        let run = |jobs: usize| {
            runner::try_sweep(
                jobs,
                (0u64..16).collect::<Vec<_>>(),
                runner::RetryPolicy::default(),
                |i, &x, _attempt| {
                    assert!(i != kill, "injected grid-point fault");
                    Ok::<u64, PitonError>(x * 3)
                },
            )
        };
        let reference = run(1);
        let parallel = run(jobs);
        prop_assert_eq!(&reference, &parallel);
        for (i, r) in reference.iter().enumerate() {
            if i == kill {
                let e = r.as_ref().unwrap_err();
                prop_assert_eq!(e.attempts, 3);
                prop_assert!(e.to_string().contains("injected grid-point fault"), "{}", e);
            } else {
                prop_assert_eq!(*r.as_ref().unwrap(), i as u64 * 3);
            }
        }
    }

    /// Flaky points recover by retry: failing the first N attempts
    /// (N < max) still produces a complete sweep with no holes.
    #[test]
    fn flaky_points_recover_within_the_retry_budget(
        flaky in 0usize..12,
        failing in 0u32..3,
    ) {
        let results = runner::try_sweep(
            3,
            (0u64..12).collect::<Vec<_>>(),
            runner::RetryPolicy::default(),
            move |i, &x, attempt| {
                if i == flaky && attempt < failing {
                    return Err(PitonError::transient("injected flaky grid point"));
                }
                Ok(x + u64::from(attempt))
            },
        );
        for (i, r) in results.iter().enumerate() {
            let v = *r.as_ref().unwrap();
            let expected = if i == flaky { i as u64 + u64::from(failing) } else { i as u64 };
            prop_assert_eq!(v, expected);
        }
    }
}
