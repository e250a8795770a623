//! `NocFabric::{send, plan, send_planned}` per flit-hop on the longest
//! route of the 5x5 mesh, and `Machine::run_invalidation_traffic`.

#[path = "../timing.rs"]
mod timing;

use piton_arch::config::ChipConfig;
use piton_arch::topology::{Mesh, TileId};
use piton_sim::events::ActivityCounters;
use piton_sim::machine::{Machine, SwitchPattern};
use piton_sim::noc::{NocFabric, NocId};

fn main() {
    let mesh = Mesh::piton();
    let (src, dst) = (TileId::new(0), TileId::new(24));
    let hops = mesh.route(src, dst).hops as f64;
    // The Figure 12 packet: a header and six alternating payload flits.
    let (even, odd) = SwitchPattern::ALL[1].flit_pair();
    let flits = [24, even, odd, even, odd, even, odd];
    let flit_hops = hops * flits.len() as f64;

    let mut noc = NocFabric::new(mesh.clone());
    let mut act = ActivityCounters::default();
    timing::report(
        "sim.noc.send_ns_per_flit_hop",
        timing::ns_per_call(5, 100_000, |_| {
            noc.send(NocId::Noc2, src, dst, &flits, &mut act)
        }) / flit_hops,
    );

    let mut noc = NocFabric::new(mesh);
    let plan = noc.plan(NocId::Noc2, src, dst);
    timing::report(
        "sim.noc.send_planned_ns_per_flit_hop",
        timing::ns_per_call(5, 100_000, |_| noc.send_planned(&plan, &flits, &mut act)) / flit_hops,
    );

    let cycles = 20_000_000u64;
    let mut m = Machine::new(&ChipConfig::piton());
    let secs = timing::median_secs(5, || {
        m.run_invalidation_traffic(dst, SwitchPattern::ALL[1], cycles)
    });
    timing::report(
        "sim.machine.invalidation_ns_per_cycle",
        secs * 1e9 / cycles as f64,
    );
}
