//! Smoke coverage for the pieces the benchmark harness relies on, plus
//! facade-level API checks a downstream user would hit first.

use piton::arch::units::{Volts, Watts};
use piton::board::system::PitonSystem;
use piton::characterization::bench::CycleBench;
use piton::characterization::experiments::{ablations, Fidelity};
use piton::characterization::report::Table;
use piton::power::vf::PllLadder;
use piton::power::{OperatingPoint, PowerModel};
use piton::sim::events::ActivityCounters;

#[test]
fn facade_reexports_compose() {
    // A downstream user can assemble the whole stack from the facade.
    let mut sys = PitonSystem::reference_chip_2();
    let m = sys.measure(8);
    assert!(m.total.mean > Watts(1.0));
    let model: &PowerModel = sys.power_model();
    let idle = ActivityCounters {
        cycles: 10_000,
        ..Default::default()
    };
    let p = model.power(&idle, OperatingPoint::table_iii());
    assert!(p.vdd > Watts(0.0) && p.vcs > Watts(0.0) && p.vio > Watts(0.0));
}

#[test]
fn pll_ladder_covers_the_whole_figure_9_range() {
    let ladder = PllLadder::piton();
    for mhz in [150.0, 285.74, 414.33, 514.33, 621.49, 700.0] {
        let (q, next) = ladder.quantize(piton::arch::units::Hertz::from_mhz(mhz));
        assert!(q.as_mhz() <= mhz && next.as_mhz() > mhz, "{mhz} MHz");
    }
}

#[test]
fn vf_solver_is_deterministic_across_runs() {
    use piton::characterization::experiments::vf_sweep;
    let a = vf_sweep::run();
    let b = vf_sweep::run();
    for (ca, cb) in a.chips.iter().zip(&b.chips) {
        for (pa, pb) in ca.points.iter().zip(&cb.points) {
            assert_eq!(pa.freq, pb.freq);
            assert_eq!(pa.thermally_limited, pb.thermally_limited);
        }
    }
}

#[test]
fn execution_drafting_saves_at_full_scale_too() {
    let r = ablations::execution_drafting(Fidelity::quick());
    let saving = 100.0 * (r.undrafted_w - r.drafted_w) / r.undrafted_w;
    // The ExecD paper reports single-digit-percent core-power savings;
    // at chip level ours lands in the low single digits.
    assert!(
        (0.1..10.0).contains(&saving),
        "drafting saving {saving:.2}%"
    );
}

#[test]
fn csv_and_render_agree_on_row_counts() {
    use piton::characterization::experiments::noc_energy;
    let r = noc_energy::run(
        &CycleBench,
        Fidelity {
            samples: 4,
            chunk_cycles: 1_000,
            warmup_cycles: 4_000,
            jobs: 2,
        },
        None,
        None,
    );
    let csv = r.to_csv();
    // header + 4 patterns x 9 hop points
    assert_eq!(csv.lines().count(), 1 + 4 * 9);
}

#[test]
fn tables_handle_unicode_and_width() {
    let mut t = Table::new("π");
    t.header(["α", "β"]);
    t.row(["1", "2"]);
    let s = t.render();
    assert!(s.contains("π"));
    assert!(s.contains("| 1"));
}

#[test]
fn voltage_sweep_monotonic_for_all_named_chips() {
    // The board-level sweep: idle power must rise with VDD for every
    // reference die at a fixed frequency.
    for mut sys in [
        PitonSystem::reference_chip_1(),
        PitonSystem::reference_chip_2(),
        PitonSystem::reference_chip_3(),
    ] {
        sys.set_chunk_cycles(1_000);
        let mut prev = Watts(0.0);
        for mv in [800, 1000, 1200] {
            sys.set_vdd_tracked(Volts(f64::from(mv) / 1000.0));
            let p = sys.measure_idle_power().mean;
            assert!(p > prev, "non-monotonic at {mv} mV");
            prev = p;
        }
    }
}
