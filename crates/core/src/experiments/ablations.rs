//! Ablation studies on the design choices behind the paper's insights.
//!
//! These go beyond the paper's published artifacts: each ablation turns
//! one modelled mechanism off (or sweeps it) and shows how the paper's
//! headline results depend on it.
//!
//! * [`slice_mapping`] — the §IV-F experiment *requires* the
//!   configurable line-to-slice mapping: under the default low-bit
//!   mapping, consecutive lines interleave across all 25 slices and
//!   local-versus-remote energy cannot be isolated.
//! * [`store_buffer_depth`] — the stx (F) roll-back energy of
//!   Figure 11 versus store-buffer depth: deeper buffers defer the
//!   roll-back storm but cannot avoid it while issue outpaces drain.
//! * [`dual_thread_overhead`] — §IV-H2 concludes a two-way
//!   fine-grained core "may not be the optimal configuration from an
//!   energy efficiency perspective" because the thread-switching
//!   overhead rivals an extra core's active power; this sweep locates
//!   the Int multithreading/multicore energy crossover as a function of
//!   that overhead.
//! * [`noc_energy_split`] — decomposes the Figure 12 energy per flit
//!   into router versus wire (data-switching) energy, the basis of the
//!   paper's "data transmission consumes more energy than the NoC
//!   router computation" observation.

use piton_arch::config::{ChipConfig, SliceMapping};
use piton_arch::error::PitonError;
use piton_arch::topology::TileId;
use piton_power::energy::{Rail, TERMS};
use piton_sim::events::ActivityCounters;
use piton_sim::machine::SwitchPattern;
use piton_sim::memsys::MemorySystem;
use piton_workloads::micro::ThreadsPerCore;

use super::{whole, At, Env, Fidelity, Measured, Rendered, Runs, Section};
use crate::analytic::Features;
use crate::bench::CycleBench;
use crate::report::Table;

/// Result of the slice-mapping ablation: how many distinct home slices
/// the Table VII "local L2" address set touches under each mapping.
#[derive(Debug, Clone, Default)]
pub struct SliceMappingAblation {
    /// `(mapping, distinct home slices, all local to tile0)` rows.
    pub rows: Vec<(String, usize, bool)>,
}

/// Runs the slice-mapping ablation.
#[must_use]
pub fn slice_mapping() -> SliceMappingAblation {
    part(Fidelity::quick(), |p| matches!(p, Ablation::Slice(_))).slice_mapping
}

impl SliceMappingAblation {
    /// Renders the ablation.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new("Ablation: line-to-L2-slice mapping vs the Table VII address set");
        t.header(["Mapping", "Distinct home slices", "Local study possible"]);
        for (m, n, ok) in &self.rows {
            t.row([m.clone(), n.to_string(), ok.to_string()]);
        }
        t.render()
    }
}

/// One row of the store-buffer-depth ablation.
#[derive(Debug, Clone, Copy)]
pub struct StoreBufferPoint {
    /// Store-buffer entries.
    pub entries: u32,
    /// Roll-backs per store in the back-to-back stx loop.
    pub rollbacks_per_store: f64,
    /// Achieved stores per kilocycle.
    pub stores_per_kcycle: f64,
}

/// Sweeps the store-buffer depth under the stx (F) workload.
#[must_use]
pub fn store_buffer_depth(fidelity: Fidelity) -> Vec<StoreBufferPoint> {
    part(fidelity, |p| matches!(p, Ablation::StoreBuffer(_))).store_buffer
}

/// Renders the store-buffer ablation.
#[must_use]
pub fn render_store_buffer(points: &[StoreBufferPoint]) -> String {
    let mut t = Table::new("Ablation: store-buffer depth vs stx (F) roll-backs");
    t.header(["Entries", "Roll-backs/store", "Stores/kcycle"]);
    for p in points {
        t.row([
            p.entries.to_string(),
            format!("{:.2}", p.rollbacks_per_store),
            format!("{:.1}", p.stores_per_kcycle),
        ]);
    }
    t.render()
}

/// One point of the dual-thread-overhead sweep.
#[derive(Debug, Clone, Copy)]
pub struct OverheadPoint {
    /// Thread-switching overhead in pJ per dual-threaded issue cycle.
    pub overhead_pj: f64,
    /// Int multithreading/multicore total-energy ratio at 16 threads.
    pub mt_mc_energy_ratio: f64,
}

/// Sweeps the modelled thread-switching overhead and reports where
/// multithreading loses to multicore on Int (ratio > 1).
#[must_use]
pub fn dual_thread_overhead(fidelity: Fidelity) -> Vec<OverheadPoint> {
    part(fidelity, |p| matches!(p, Ablation::Overhead(_))).overhead
}

/// Renders the overhead sweep.
#[must_use]
pub fn render_overhead(points: &[OverheadPoint]) -> String {
    let mut t =
        Table::new("Ablation: thread-switch overhead vs Int MT/MC energy ratio (16 threads)");
    t.header(["Overhead (pJ/dual-issue)", "MT/MC energy ratio"]);
    for p in points {
        t.row([
            format!("{:.0}", p.overhead_pj),
            format!("{:.3}", p.mt_mc_energy_ratio),
        ]);
    }
    t.render()
}

/// Energy split of one switching pattern's per-flit-hop cost.
#[derive(Debug, Clone)]
pub struct NocSplitRow {
    /// Pattern label.
    pub pattern: String,
    /// Router + quiet-link portion, pJ per flit-hop.
    pub router_pj: f64,
    /// Data-wire switching portion, pJ per flit-hop.
    pub wire_pj: f64,
}

/// Decomposes the per-flit-hop energy of each Figure 12 pattern into
/// router and data-wire components using the calibrated model and the
/// simulator's measured switching activity.
#[must_use]
pub fn noc_energy_split(fidelity: Fidelity) -> Vec<NocSplitRow> {
    part(fidelity, |p| matches!(p, Ablation::NocSplit(_))).noc_split
}

/// Renders the NoC split.
#[must_use]
pub fn render_noc_split(rows: &[NocSplitRow]) -> String {
    let mut t = Table::new("Ablation: router vs data-wire energy per flit-hop");
    t.header(["Pattern", "Router (pJ)", "Wires (pJ)", "Wire share"]);
    for r in rows {
        t.row([
            r.pattern.clone(),
            format!("{:.2}", r.router_pj),
            format!("{:.2}", r.wire_pj),
            format!("{:.0}%", 100.0 * r.wire_pj / (r.router_pj + r.wire_pj)),
        ]);
    }
    t.render()
}

/// Result of the Execution-Drafting ablation: chip power with the two
/// threads of every core running *identical* code (maximum drafting)
/// versus *offset* code (no drafting).
#[derive(Debug, Clone, Copy)]
pub struct ExecDraftingResult {
    /// Power with identical (draftable) thread pairs.
    pub drafted_w: f64,
    /// Power with phase-offset (undraftable) thread pairs.
    pub undrafted_w: f64,
    /// Drafting hit rate (drafted issues / total issues) in the
    /// identical-code run.
    pub draft_rate: f64,
}

/// Runs the Execution-Drafting ablation (§II: the core "implements
/// Execution Drafting for energy efficiency when executing similar code
/// on the two threads").
///
/// Both configurations run the *same* integer loop on both threads of
/// every core; the undraftable baseline merely offsets one thread's PCs
/// with a prologue `nop`, so the instruction mix and issue rate are
/// identical but the front end can never share work.
#[must_use]
pub fn execution_drafting(fidelity: Fidelity) -> ExecDraftingResult {
    part(fidelity, |p| matches!(p, Ablation::Drafting(_)))
        .drafting
        .expect("both drafting configurations")
}

impl ExecDraftingResult {
    /// Renders the ablation.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new("Ablation: Execution Drafting (identical vs offset thread pairs)");
        t.header(["Configuration", "Chip power (W)", "Draft rate"]);
        t.row([
            "identical code (drafting)".to_owned(),
            format!("{:.3}", self.drafted_w),
            format!("{:.0}%", 100.0 * self.draft_rate),
        ]);
        t.row([
            "offset code (no drafting)".to_owned(),
            format!("{:.3}", self.undrafted_w),
            "0%".to_owned(),
        ]);
        t.render()
    }
}

/// One ablation grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// The Table VII address set's home slices under one mapping.
    Slice(SliceMapping),
    /// The stx (F) loop at one store-buffer depth.
    StoreBuffer(u32),
    /// Int on 16 threads at one T/C, priced at every overhead.
    Overhead(ThreadsPerCore),
    /// One Figure 12 pattern's router/wire split.
    NocSplit(SwitchPattern),
    /// The drafting workload with a prologue of this many `nop`s.
    Drafting(usize),
}

/// Thread-switch overheads (pJ per dual-threaded issue cycle) swept.
const OVERHEADS_PJ: [f64; 6] = [0.0, 20.0, 40.0, 60.0, 90.0, 120.0];

/// Every ablation's result.
#[derive(Debug, Clone, Default)]
pub struct AblationsResult {
    /// Slice-mapping rows.
    pub slice_mapping: SliceMappingAblation,
    /// Store-buffer depth points.
    pub store_buffer: Vec<StoreBufferPoint>,
    /// Thread-switch overhead points.
    pub overhead: Vec<OverheadPoint>,
    /// NoC router/wire split rows.
    pub noc_split: Vec<NocSplitRow>,
    /// Execution Drafting, when both configurations ran.
    pub drafting: Option<ExecDraftingResult>,
}

/// The ablations: one grid over every sweep, each point reporting its
/// numbers as a flat vector.
#[derive(Debug, Clone, Copy)]
pub struct Ablations;

impl Section for Ablations {
    type Point = Ablation;
    type Inputs = ();
    type Payload = Vec<f64>;
    type Output = AblationsResult;
    const NAME: &'static str = "ablations";
    const TITLE: &'static str = "Ablations — design-choice sweeps (beyond the paper)";
    const RUNS: Runs = Runs::Cycle;

    fn grid(&self, _: Fidelity) -> Vec<Ablation> {
        let mut grid: Vec<Ablation> = [SliceMapping::Low, SliceMapping::Mid, SliceMapping::High]
            .map(Ablation::Slice)
            .into();
        grid.extend([1u32, 2, 4, 8, 16].map(Ablation::StoreBuffer));
        grid.extend([ThreadsPerCore::One, ThreadsPerCore::Two].map(Ablation::Overhead));
        grid.extend(SwitchPattern::ALL.map(Ablation::NocSplit));
        grid.extend([0, 1].map(Ablation::Drafting));
        grid
    }

    fn prepare(&self, _: &Env) -> Result<(), PitonError> {
        Ok(())
    }

    fn compute(&self, at: &At<Self>) -> Result<Vec<f64>, PitonError> {
        let point = at.point;
        let fidelity = at.env.fidelity;
        Ok(match *point {
            Ablation::Slice(mapping) => {
                let mut cfg = ChipConfig::piton();
                cfg.slice_mapping = mapping;
                let sys = MemorySystem::new(&cfg);
                // The L2-hit walker's address set (6 addresses, 2 KB
                // apart) placed in tile0's high-bit region.
                let addrs: Vec<u64> = (0..6u64).map(|k| 0x40 + k * 2048).collect();
                let homes: std::collections::HashSet<usize> =
                    addrs.iter().map(|&a| sys.home_slice(a).index()).collect();
                let local = homes.len() == 1 && homes.contains(&0);
                vec![homes.len() as f64, f64::from(u8::from(local))]
            }
            Ablation::StoreBuffer(entries) => store_buffer_point(entries, fidelity),
            Ablation::Overhead(tpc) => overhead_energies(tpc, fidelity),
            Ablation::NocSplit(pattern) => noc_split_point(pattern, fidelity),
            Ablation::Drafting(offset) => drafting_point(offset, fidelity),
        })
    }

    fn assemble(&self, _: &Env, (): &(), points: Vec<Measured<'_, Self>>) -> AblationsResult {
        let mut out = AblationsResult::default();
        let mut overhead: Vec<Vec<f64>> = Vec::new();
        let mut drafting: Vec<Vec<f64>> = Vec::new();
        for (_, &point, r) in points {
            let v = whole(r);
            match point {
                Ablation::Slice(mapping) => {
                    out.slice_mapping
                        .rows
                        .push((format!("{mapping:?}"), v[0] as usize, v[1] > 0.0))
                }
                Ablation::StoreBuffer(entries) => out.store_buffer.push(StoreBufferPoint {
                    entries,
                    rollbacks_per_store: v[0],
                    stores_per_kcycle: v[1],
                }),
                Ablation::Overhead(_) => overhead.push(v),
                Ablation::NocSplit(pattern) => out.noc_split.push(NocSplitRow {
                    pattern: pattern.label().to_owned(),
                    router_pj: v[0],
                    wire_pj: v[1],
                }),
                Ablation::Drafting(_) => drafting.push(v),
            }
        }
        if let [mc, mt] = &overhead[..] {
            out.overhead = OVERHEADS_PJ
                .iter()
                .zip(mc.iter().zip(mt))
                .map(|(&overhead_pj, (e_mc, e_mt))| OverheadPoint {
                    overhead_pj,
                    mt_mc_energy_ratio: e_mt / e_mc,
                })
                .collect();
        }
        if let [drafted, undrafted] = &drafting[..] {
            out.drafting = Some(ExecDraftingResult {
                drafted_w: drafted[0],
                undrafted_w: undrafted[0],
                draft_rate: drafted[1],
            });
        }
        out
    }

    fn render(&self, out: &AblationsResult) -> Rendered {
        Rendered::body(format!(
            "{}\n{}\n{}\n{}\n{}",
            out.slice_mapping.render(),
            render_store_buffer(&out.store_buffer),
            render_overhead(&out.overhead),
            render_noc_split(&out.noc_split),
            out.drafting.map_or_else(String::new, |d| d.render()),
        ))
    }
}

/// The ablation points `keep` selects, swept and assembled.
fn part(fidelity: Fidelity, keep: impl Fn(&Ablation) -> bool) -> AblationsResult {
    let grid = Ablations.grid(fidelity);
    let shown = (0..grid.len()).filter(|&i| keep(&grid[i])).collect();
    let env = Env::new(&CycleBench, fidelity, None);
    super::run_points(Ablations, &env, None, &grid, Some(shown))
}

/// Roll-backs per store and stores per kilocycle of the back-to-back
/// stx (F) loop with `entries` store-buffer entries.
fn store_buffer_point(entries: u32, fidelity: Fidelity) -> Vec<f64> {
    use piton_arch::isa::OperandPattern;
    use piton_workloads::epi::{epi_test, EpiCase, StoreVariant};

    let mut cfg = ChipConfig::piton();
    cfg.store_buffer_entries = entries;
    let mut m = piton_sim::machine::Machine::new(&cfg);
    m.load_thread(
        TileId::new(0),
        0,
        epi_test(
            EpiCase::Store(StoreVariant::Full),
            OperandPattern::Random,
            0,
        ),
    );
    m.run(fidelity.warmup_cycles);
    let before = m.counters().clone();
    m.run(fidelity.chunk_cycles * fidelity.samples as u64);
    let d = m.counters().delta_since(&before);
    vec![
        d.store_rollbacks as f64 / d.sb_enqueues.max(1) as f64,
        1e3 * d.sb_enqueues as f64 / d.cycles as f64,
    ]
}

/// Int on 16 threads at `tpc`: its activity and run time measured once,
/// then its attributed energy priced under each of [`OVERHEADS_PJ`].
fn overhead_energies(tpc: ThreadsPerCore, fidelity: Fidelity) -> Vec<f64> {
    use piton_arch::units::Watts;
    use piton_power::{Calibration, PowerModel, TechModel};
    use piton_workloads::micro::{load_microbenchmark, Microbenchmark, RunLength};

    let mut m = piton_sim::machine::Machine::new(&ChipConfig::piton());
    load_microbenchmark(&mut m, Microbenchmark::Int, 16, tpc, RunLength::Forever);
    m.run(fidelity.warmup_cycles);
    let before = m.counters().clone();
    m.run(fidelity.chunk_cycles * fidelity.samples as u64);
    let act = m.counters().delta_since(&before);

    let mut timed = piton_sim::machine::Machine::new(&ChipConfig::piton());
    load_microbenchmark(
        &mut timed,
        Microbenchmark::Int,
        16,
        tpc,
        RunLength::Iterations(2_000),
    );
    assert!(timed.run_until_halted(10_000_000));
    let cycles = timed.now();
    let cores = 16.0 / tpc.count() as f64;

    OVERHEADS_PJ
        .iter()
        .map(|&overhead_pj| {
            let mut calib = Calibration::piton_hpca18();
            calib.dual_thread_pj_per_cycle = overhead_pj;
            let model = PowerModel::new(calib, TechModel::ibm32soi(), Default::default());
            let op = piton_power::OperatingPoint::table_iii();
            let idle = {
                let a = ActivityCounters {
                    cycles: 100_000,
                    ..Default::default()
                };
                model.power(&a, op).total()
            };
            let p = model.power(&act, op).total();
            let active = Watts((p.0 - idle.0).max(0.0)) + idle * (cores / 25.0);
            active.0 * cycles as f64 / op.freq.0
        })
        .collect()
}

/// Router and data-wire pJ per flit-hop of one Figure 12 pattern.
fn noc_split_point(pattern: SwitchPattern, fidelity: Fidelity) -> Vec<f64> {
    let calib = piton_power::Calibration::piton_hpca18();
    let mut m = piton_sim::machine::Machine::new(&ChipConfig::piton());
    m.run_invalidation_traffic(
        TileId::new(4),
        pattern,
        fidelity.chunk_cycles * fidelity.samples as u64,
    );
    let act = Features::extract(m.counters());
    // The named VDD terms' charges, per flit-hop.
    let per_hop = |names: [&str; 2]| {
        TERMS
            .iter()
            .filter(|t| t.rail == Rail::Vdd && names.contains(&t.name))
            .map(|t| t.pj(&act.vdd[t.slot..], t.coefficients(&calib)))
            .sum::<f64>()
            / m.counters().noc_flit_hops as f64
    };
    vec![
        per_hop(["noc_flit_hops", "noc_route_computes"]),
        per_hop(["noc_bit_switches", "noc_coupling_switches"]),
    ]
}

/// Chip power and drafting rate with every core's second thread offset
/// by `offset` prologue `nop`s.
fn drafting_point(offset: usize, fidelity: Fidelity) -> Vec<f64> {
    use piton_arch::isa::{Opcode, Reg};
    use piton_board::system::PitonSystem;
    use piton_workloads::asm::Assembler;

    let int_like = |prologue_nops: usize| {
        let mut asm = Assembler::new();
        asm.nops(prologue_nops);
        asm.movi(Reg::new(10), 0x5555_5555_5555_5555);
        asm.movi(Reg::new(11), -0x5555_5555_5555_5556);
        asm.label("loop");
        for k in 0..20 {
            let op = if k % 2 == 0 { Opcode::Add } else { Opcode::And };
            asm.alu(op, Reg::new(12), Reg::new(10), Reg::new(11));
        }
        asm.jump("loop");
        asm.assemble()
    };

    let mut sys = PitonSystem::reference_chip_2();
    sys.set_chunk_cycles(fidelity.chunk_cycles);
    for t in 0..25 {
        let tile = TileId::new(t);
        sys.machine_mut().load_thread(tile, 0, int_like(0));
        sys.machine_mut().load_thread(tile, 1, int_like(offset));
    }
    sys.warm_up(fidelity.warmup_cycles);
    let before = sys.machine().counters().clone();
    let p = sys.measure(fidelity.samples).total.mean.0;
    let d = sys.machine().counters().delta_since(&before);
    vec![p, d.drafted_issues as f64 / d.total_issues() as f64]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_high_mapping_supports_the_local_study() {
        let a = slice_mapping();
        let find = |m: &str| a.rows.iter().find(|(name, _, _)| name == m).unwrap();
        assert!(!find("Low").2, "low-bit mapping scatters the set");
        assert!(find("High").2, "high-bit mapping keeps the set local");
        assert_eq!(find("Low").1, 6, "low mapping: one slice per line");
        assert!(a.render().contains("Mapping"));
    }

    #[test]
    fn deeper_buffers_reduce_rollbacks_but_not_to_zero() {
        let pts = store_buffer_depth(Fidelity::quick());
        assert_eq!(pts.len(), 5);
        // Roll-backs per store fall monotonically (weakly) with depth…
        for w in pts.windows(2) {
            assert!(
                w[1].rollbacks_per_store <= w[0].rollbacks_per_store + 0.05,
                "{w:?}"
            );
        }
        // …but the drain rate (1 store / 10 cycles) caps throughput at
        // every depth: issue can never keep up, so roll-backs persist.
        for p in &pts {
            assert!(p.rollbacks_per_store > 0.1, "{p:?}");
            assert!(p.stores_per_kcycle < 120.0, "{p:?}");
        }
        let _ = render_store_buffer(&pts);
    }

    #[test]
    fn overhead_sweep_crosses_the_energy_break_even() {
        let pts = dual_thread_overhead(Fidelity::quick());
        // Ratio rises monotonically with overhead.
        for w in pts.windows(2) {
            assert!(w[1].mt_mc_energy_ratio >= w[0].mt_mc_energy_ratio - 1e-9);
        }
        // At zero overhead MT is at least not *worse* than at the
        // calibrated 60 pJ; at a large overhead MT clearly loses.
        assert!(pts.last().unwrap().mt_mc_energy_ratio > 1.0);
        let _ = render_overhead(&pts);
    }

    #[test]
    fn identical_threads_draft_and_save_power() {
        let r = execution_drafting(Fidelity::quick());
        assert!(
            r.draft_rate > 0.3,
            "lockstep twins should draft heavily: {}",
            r.draft_rate
        );
        assert!(
            r.drafted_w < r.undrafted_w,
            "drafting must save power: {} vs {}",
            r.drafted_w,
            r.undrafted_w
        );
        assert!(r.render().contains("Execution Drafting"));
    }

    #[test]
    fn wires_dominate_router_energy_for_switching_patterns() {
        let rows = noc_energy_split(Fidelity::quick());
        let find = |m: &str| rows.iter().find(|r| r.pattern == m).unwrap();
        // §IV-G: "The NoC routers consume a relatively small amount of
        // energy (NSW case) in comparison to charging and discharging
        // the NoC data lines."
        assert!(find("NSW").wire_pj < find("NSW").router_pj);
        assert!(find("FSW").wire_pj > 1.5 * find("FSW").router_pj);
        assert!(find("FSWA").wire_pj >= find("FSW").wire_pj);
        let _ = render_noc_split(&rows);
    }
}
