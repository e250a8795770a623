//! The dynamic-energy term table: every per-event charge of the power
//! model, in summation order.
//!
//! Each [`Term`] names a rail, the activity counter it reads and the
//! [`Calibration`] coefficient it charges. [`TERMS`] is the one place
//! those coefficients are read; [`crate::model::PowerModel::dynamic_nominal_pj`]
//! sums it for the cycle engine's windows and the analytic twin's
//! per-cycle rates alike, so the two backends cannot drift apart.
//!
//! A window (or rate profile) is laid out as one slot vector per rail:
//! each term owns [`Term::width`] consecutive slots of its rail's
//! vector, starting at [`Term::slot`], in table order.

use piton_arch::isa::Opcode;
use piton_sim::events::ActivityCounters;

use crate::calibration::Calibration;

/// A supply rail the board senses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rail {
    /// Core logic.
    Vdd,
    /// SRAM arrays.
    Vcs,
    /// I/O pads.
    Vio,
}

/// How a term charges its rail.
#[derive(Debug, Clone, Copy)]
pub enum Charge {
    /// One opcode's issues, `issues × base + activity × value` as a
    /// single addend, charged only when the opcode issued. Two slots:
    /// issues, then operand activity.
    Issue(Opcode),
    /// `count × pJ`, added.
    Event(Counter),
    /// Execution Drafting's shared front end: `count × pJ` subtracted
    /// from the rail's running sum, which is clamped at zero so
    /// pathological coefficients never produce negative energy.
    Credit(Counter),
}

/// A scalar activity counter and the energy charged per event.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    /// The counter's storage (to build a window by hand).
    pub cell: fn(&mut ActivityCounters) -> &mut u64,
    /// The per-event energy (pJ).
    pub pj: fn(&Calibration) -> f64,
}

/// One row of the term table.
#[derive(Debug, Clone, Copy)]
pub struct Term {
    /// The rail charged.
    pub rail: Rail,
    /// The counter's [`ActivityCounters`] field name, or the opcode's
    /// mnemonic.
    pub name: &'static str,
    /// First slot of the term in its rail's vector.
    pub slot: usize,
    /// What is charged.
    pub charge: Charge,
}

impl Term {
    /// Slots the term occupies.
    #[must_use]
    pub const fn width(&self) -> usize {
        match self.charge {
            Charge::Issue(_) => 2,
            Charge::Event(_) | Charge::Credit(_) => 1,
        }
    }

    /// The term's coefficients (pJ): base and value for an opcode, the
    /// per-event energy (and zero) otherwise.
    #[must_use]
    pub fn coefficients(&self, c: &Calibration) -> [f64; 2] {
        match self.charge {
            Charge::Issue(op) => [c.instr[op.index()].base_pj, c.instr[op.index()].value_pj],
            Charge::Event(counter) | Charge::Credit(counter) => [(counter.pj)(c), 0.0],
        }
    }

    /// The nominal energy (pJ) the term, with coefficients `[k, value]`
    /// (see [`Self::coefficients`]), charges a window whose slots on the
    /// term's rail start at `x` (a credit's is then subtracted).
    #[must_use]
    pub fn pj(&self, x: &[f64], [k, value]: [f64; 2]) -> f64 {
        match self.charge {
            Charge::Issue(_) if x[0] > 0.0 => x[0] * k + x[1] * value,
            Charge::Issue(_) => 0.0,
            Charge::Event(_) | Charge::Credit(_) => x[0] * k,
        }
    }
}

macro_rules! counter_terms {
    ($($charge:ident $rail:ident $counter:ident $pj:ident,)*) => {
        /// The scalar-counter terms, which follow the per-opcode terms.
        const COUNTER_TERMS: [Term; [$(stringify!($counter)),*].len()] = [$(Term {
            rail: Rail::$rail,
            name: stringify!($counter),
            slot: 0,
            charge: Charge::$charge(Counter {
                cell: |a| &mut a.$counter,
                pj: |c| c.$pj,
            }),
        }),*];

        /// A window's scalar counters, in [`COUNTER_TERMS`] order.
        fn read_counters(a: &ActivityCounters) -> [u64; COUNTER_TERMS.len()] {
            [$(a.$counter),*]
        }
    };
}

counter_terms! {
    Event Vdd cycles clock_vdd_pj_per_cycle,
    Event Vdd core_active_cycles active_core_pj_per_cycle,
    Event Vdd mem_stall_cycles stall_pj_per_cycle,
    Event Vdd dual_thread_cycles dual_thread_pj_per_cycle,
    Credit Vdd drafted_issues execd_saving_pj,
    Event Vdd l15_misses l15_miss_pj,
    Event Vdd invalidations invalidation_pj,
    Event Vdd load_rollbacks load_rollback_pj,
    Event Vdd store_rollbacks store_rollback_pj,
    Event Vdd sb_enqueues sb_enqueue_pj,
    Event Vdd noc_flit_hops noc_flit_hop_pj,
    Event Vdd noc_bit_switches noc_bit_switch_pj,
    Event Vdd noc_coupling_switches noc_coupling_pj,
    Event Vdd noc_route_computes noc_route_pj,
    Event Vdd offchip_requests offchip_request_pj,
    Event Vdd chip_bridge_flits bridge_flit_vdd_pj,
    Event Vcs cycles clock_vcs_pj_per_cycle,
    Event Vcs l1i_accesses l1i_pj,
    Event Vcs l1d_reads l1d_read_pj,
    Event Vcs l1d_writes l1d_write_pj,
    Event Vcs l15_reads l15_read_pj,
    Event Vcs l15_writes l15_write_pj,
    Event Vcs l15_writebacks l15_writeback_pj,
    Event Vcs l2_reads l2_read_pj,
    Event Vcs l2_writes l2_write_pj,
    Event Vcs dir_lookups dir_pj,
    Event Vio chip_bridge_flits bridge_flit_vio_pj,
    Event Vio io_transactions io_transaction_pj,
}

const LAYOUT: ([Term; Opcode::COUNT + COUNTER_TERMS.len()], [usize; 3]) = {
    let mut terms = [COUNTER_TERMS[0]; Opcode::COUNT + COUNTER_TERMS.len()];
    let mut next = [0; 3];
    let mut i = 0;
    while i < terms.len() {
        if i < Opcode::COUNT {
            terms[i].rail = Rail::Vdd;
            terms[i].name = Opcode::ALL[i].mnemonic();
            terms[i].charge = Charge::Issue(Opcode::ALL[i]);
        } else {
            terms[i] = COUNTER_TERMS[i - Opcode::COUNT];
        }
        let rail = terms[i].rail as usize;
        terms[i].slot = next[rail];
        next[rail] += terms[i].width();
        i += 1;
    }
    (terms, next)
};

/// Every dynamic-energy charge in summation order: the per-opcode
/// issues, then the scalar counters; VDD, then VCS, then VIO. Each
/// term's slots follow its rail's previous term.
pub static TERMS: [Term; Opcode::COUNT + COUNTER_TERMS.len()] = LAYOUT.0;

/// Slots per rail (VDD, VCS, VIO).
pub const SLOTS: [usize; 3] = LAYOUT.1;

/// The first slot of the term named `name` on `rail` (names are
/// lower-case, so an ASCII case-insensitive match is an exact one).
///
/// # Panics
///
/// Panics (at compile time, in a `const`) if no such term exists.
#[must_use]
pub const fn slot(rail: Rail, name: &str) -> usize {
    let mut i = 0;
    while i < TERMS.len() {
        if TERMS[i].rail as usize == rail as usize && TERMS[i].name.eq_ignore_ascii_case(name) {
            return TERMS[i].slot;
        }
        i += 1;
    }
    panic!("no such term");
}

/// Lays a window's counters out in its per-rail slot vectors (VDD,
/// VCS, VIO), each [`SLOTS`] long.
pub fn read_slots(a: &ActivityCounters, slots: [&mut [f64]; 3]) {
    for (op, t) in Opcode::ALL.into_iter().zip(&TERMS) {
        slots[0][t.slot] = a.issues[op.index()] as f64;
        slots[0][t.slot + 1] = a.operand_activity[op.index()];
    }
    for (t, n) in TERMS[Opcode::COUNT..].iter().zip(read_counters(a)) {
        slots[t.rail as usize][t.slot] = n as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_rail_slot_is_owned_by_exactly_one_term() {
        for (r, rail) in [Rail::Vdd, Rail::Vcs, Rail::Vio].into_iter().enumerate() {
            let mut owners = vec![0; SLOTS[r]];
            for t in TERMS.iter().filter(|t| t.rail == rail) {
                for n in &mut owners[t.slot..t.slot + t.width()] {
                    *n += 1;
                }
            }
            assert!(owners.iter().all(|&n| n == 1), "{rail:?}: {owners:?}");
        }
        assert_eq!(SLOTS, [2 * Opcode::COUNT + 16, 10, 2]);
    }

    #[test]
    fn named_slots_resolve() {
        assert_eq!(slot(Rail::Vdd, "cycles"), 2 * Opcode::COUNT);
        assert_eq!(slot(Rail::Vdd, "drafted_issues"), 2 * Opcode::COUNT + 4);
        assert_eq!(slot(Rail::Vcs, "cycles"), 0);
        assert_eq!(slot(Rail::Vio, "io_transactions"), 1);
    }
}
