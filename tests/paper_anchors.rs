//! End-to-end checks of the paper's headline numbers, exercised through
//! the full stack (workload → simulator → power model → virtual bench →
//! measurement methodology).

use piton::arch::config::ChipConfig;
use piton::arch::isa::Opcode;
use piton::arch::units::Volts;
use piton::board::population::{ChipPopulation, NamedChip};
use piton::board::system::PitonSystem;
use piton::characterization::bench::CycleBench;
use piton::characterization::experiments::{mem_latency, noc_energy, vf_sweep, Fidelity};
use piton::sim::chipset::round_trip_cycles;

#[test]
fn table_v_static_and_idle() {
    let mut sys = PitonSystem::reference_chip_2();
    let s = sys.measure_static_power();
    let i = sys.measure_idle_power();
    assert!((s.mean.as_mw() - 389.3).abs() < 25.0, "static {s}");
    assert!((i.mean.as_mw() - 2015.3).abs() < 30.0, "idle {i}");
    // Chip #3's row from §IV-H.
    let mut sys3 = PitonSystem::reference_chip_3();
    let i3 = sys3.measure_idle_power();
    assert!((i3.mean.as_mw() - 1906.2).abs() < 40.0, "chip3 idle {i3}");
}

#[test]
fn table_iv_yield_counts() {
    let counts = ChipPopulation::piton_run().test_campaign(32);
    assert_eq!(counts.good, 19);
    assert_eq!(counts.unstable_deterministic, 7);
    assert_eq!(counts.bad_vcs_short, 4);
    assert_eq!(counts.bad_vdd_short, 1);
    assert_eq!(counts.unstable_nondeterministic, 1);
    assert!((counts.percent(counts.good) - 59.4).abs() < 0.1);
}

#[test]
fn figure_15_path_and_table_vii_miss_latency() {
    assert_eq!(round_trip_cycles(), 395);
    let r = mem_latency::run();
    assert!((424..450).contains(&r.measured_ldx_miss_cycles));
}

#[test]
fn figure_9_shape_three_chips() {
    let r = vf_sweep::run();
    let c1 = r.chip(NamedChip::Chip1);
    let c2 = r.chip(NamedChip::Chip2);
    let c3 = r.chip(NamedChip::Chip3);
    // Monotone rise for the typical chips.
    for c in [c2, c3] {
        for w in c.points.windows(2) {
            assert!(w[1].freq.0 >= w[0].freq.0 * 0.99);
        }
    }
    // Chip #1 leads cold, throttles hot.
    assert!(c1.points[0].freq.0 > c2.points[0].freq.0);
    assert!(c1.points.last().unwrap().thermally_limited);
    // Chip #2 near the paper's 514.33 MHz anchor at 1.0 V.
    let at_nominal = c2
        .points
        .iter()
        .find(|p| (p.vdd - Volts(1.0)).abs() < Volts(1e-9))
        .unwrap();
    let dev = (at_nominal.freq.as_mhz() - 514.33).abs() / 514.33;
    assert!(dev < 0.15, "{} MHz", at_nominal.freq.as_mhz());
}

#[test]
fn figure_12_trendlines() {
    let r = noc_energy::run(&CycleBench, Fidelity::quick(), None, None);
    for (label, paper) in noc_energy::paper_reference() {
        let measured = r.series_for(label).unwrap().pj_per_hop;
        let dev = (measured - paper).abs() / paper;
        assert!(dev < 0.35, "{label}: {measured:.2} vs {paper}");
    }
}

#[test]
fn epi_formula_three_adds_per_load_through_the_full_stack() {
    use piton::characterization::experiments::epi;
    use piton::workloads::epi::EpiCase;

    let r = epi::run_cases(
        &CycleBench,
        &[EpiCase::Plain(Opcode::Add), EpiCase::Load],
        Fidelity::quick(),
        None,
        None,
    );
    let add = r
        .row("add")
        .unwrap()
        .at(piton::arch::isa::OperandPattern::Random)
        .unwrap();
    let ldx = r
        .row("ldx")
        .unwrap()
        .at(piton::arch::isa::OperandPattern::Random)
        .unwrap();
    let ratio = ldx.value / add.value;
    assert!((2.2..=3.8).contains(&ratio), "ratio {ratio}");
    // Absolute anchor: Table VII's 286.46 pJ within 25%.
    assert!((ldx.value - 286.46).abs() / 286.46 < 0.25, "{}", ldx.value);
}

#[test]
fn aggregate_l2_and_area_match_table_i_and_figure_8() {
    let cfg = ChipConfig::piton();
    assert_eq!(cfg.l2_total_bytes(), 1_638_400);
    let chip = piton::arch::floorplan::AreaBreakdown::piton(piton::arch::floorplan::Level::Chip);
    assert!((chip.total_area_mm2() - 35.975_52).abs() < 1e-6);
}
