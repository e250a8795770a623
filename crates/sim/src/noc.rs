//! The three physical networks-on-chip.
//!
//! Piton interconnects its tiles with three 64-bit physical NoCs carrying
//! the coherence protocol (NoC1: requests, NoC2: forwards/invalidations,
//! NoC3: responses). Routing is dimension-ordered wormhole with one cycle
//! per hop and an extra cycle on turns.
//!
//! The model here is *transaction-level with per-wire activity*: a packet
//! walks its dimension-ordered route atomically and we account, per
//! physical link, the Hamming distance between consecutive flits — the
//! quantity the NoC energy-per-flit study of §IV-G sweeps with its
//! NSW/HSW/FSW/FSWA bit patterns — plus opposite-direction adjacent-bit
//! transitions (coupling aggressors, the FSWA case). Congestion is not
//! modelled; none of the paper's workloads saturates a NoC (see
//! DESIGN.md).
//!
//! Link-switching activity is history-dependent: each physical link
//! remembers its last flit, so the Hamming work a packet charges
//! depends on every packet that crossed that link before it. Engines
//! must therefore issue packets in the canonical machine order
//! (ascending cycle, then ascending tile) — the batched dense engine's
//! barrier replay exists to preserve exactly this ordering.
//!
//! # Examples
//!
//! ```
//! use piton_sim::noc::{NocId, NocFabric};
//! use piton_sim::events::ActivityCounters;
//! use piton_arch::topology::{Mesh, TileId};
//!
//! let mut noc = NocFabric::new(Mesh::piton());
//! let mut act = ActivityCounters::default();
//! let lat = noc.send(
//!     NocId::Noc2,
//!     TileId::new(0),
//!     TileId::new(2),
//!     &[0xFFFF_FFFF_FFFF_FFFF; 7],
//!     &mut act,
//! );
//! assert_eq!(lat, 2); // two straight hops, no turn
//! assert_eq!(act.noc_flit_hops, 14);
//! ```

use piton_arch::topology::{Mesh, TileId};
use piton_obs::trace::{self, TraceEvent};
use serde::{Deserialize, Serialize};

use crate::events::ActivityCounters;

/// Which physical network a message travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NocId {
    /// Requests (L1.5 → L2).
    Noc1,
    /// Forwards and invalidations (L2 → L1.5).
    Noc2,
    /// Responses (data, acks).
    Noc3,
}

impl NocId {
    /// All three physical networks.
    pub const ALL: [NocId; 3] = [NocId::Noc1, NocId::Noc2, NocId::Noc3];

    fn index(self) -> usize {
        match self {
            NocId::Noc1 => 0,
            NocId::Noc2 => 1,
            NocId::Noc3 => 2,
        }
    }
}

/// Outlined per-hop trace emission — callers gate on [`trace::active`]
/// so the per-flit accounting loop stays branch-cheap when tracing is
/// off. The cycle stamp is the ambient clock set by the memory system
/// (the fabric API itself is untimed).
#[cold]
fn trace_hop(noc: NocId, from: TileId, to: TileId, flits: usize) {
    trace::emit(TraceEvent::NocHop {
        cycle: trace::ambient_cycle(),
        noc: noc.index() as u32,
        from: from.index() as u32,
        to: to.index() as u32,
        flits: flits as u32,
    });
}

/// Emits one hop event per link of a precomputed plan, reconstructing
/// the endpoints from the flat link index (`tile * 4 + dir`, E/W/S/N).
#[cold]
fn trace_planned_hops(noc: NocId, links: &[usize], width: usize, flits: usize) {
    for &l in links {
        let from = l / 4;
        let to = match l % 4 {
            0 => from + 1,
            1 => from - 1,
            2 => from + width,
            _ => from - width,
        };
        trace_hop(noc, TileId::new(from), TileId::new(to), flits);
    }
}

/// Counts bits that toggled between consecutive flits on a link.
#[must_use]
pub fn hamming(prev: u64, cur: u64) -> u32 {
    (prev ^ cur).count_ones()
}

/// Counts adjacent bit pairs that toggled in *opposite* directions — the
/// coupling-aggressor events that make the paper's FSWA pattern slightly
/// more expensive than FSW.
#[must_use]
pub fn coupling_transitions(prev: u64, cur: u64) -> u32 {
    let changed = prev ^ cur;
    let rising = cur & changed;
    let falling = !cur & changed;
    (rising & (falling >> 1)).count_ones() + (falling & (rising >> 1)).count_ones()
}

/// The three physical mesh networks with per-link wire state.
#[derive(Debug, Clone)]
pub struct NocFabric {
    mesh: Mesh,
    /// Mesh width, cached for the hot link-index computation.
    width: usize,
    /// Last flit value seen on each directed link, per network, in flat
    /// arrays indexed by [`link_index`](Self::link_index): the per-flit
    /// tuple-hash lookup of the old `HashMap<(TileId, TileId), u64>` was
    /// the hottest line of the NoC energy experiment.
    link_state: [Vec<u64>; 3],
}

impl NocFabric {
    /// Creates an idle fabric over a mesh.
    #[must_use]
    pub fn new(mesh: Mesh) -> Self {
        // Four outbound directions per tile; links off the mesh edge are
        // dead slots that never get indexed.
        let links = mesh.tile_count() * 4;
        let width = mesh.width();
        Self {
            mesh,
            width,
            link_state: [vec![0; links], vec![0; links], vec![0; links]],
        }
    }

    /// Flat index of the directed link `from → to` (which must be mesh
    /// neighbours): four outbound slots per tile, ordered E/W/S/N.
    #[inline]
    fn link_index(width: usize, from: TileId, to: TileId) -> usize {
        let (f, t) = (from.index(), to.index());
        let dir = if t == f + 1 {
            0 // east
        } else if t + 1 == f {
            1 // west
        } else if t == f + width {
            2 // south
        } else {
            debug_assert_eq!(t + width, f, "link {f}->{t} is not a mesh hop");
            3 // north
        };
        f * 4 + dir
    }

    /// The underlying mesh.
    #[must_use]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Sends one packet (`flits`, header first) from `src` to `dst` on
    /// network `noc`, accounting link activity into `act`.
    ///
    /// Returns the head-flit network latency in cycles: one per hop plus
    /// one per turn (serialization of the body behind the head is folded
    /// into the caller's transaction latency model).
    pub fn send(
        &mut self,
        noc: NocId,
        src: TileId,
        dst: TileId,
        flits: &[u64],
        act: &mut ActivityCounters,
    ) -> u64 {
        let route = self.mesh.route(src, dst);
        act.noc_packets += 1;
        act.noc_route_computes += route.hops as u64;

        if route.hops == 0 {
            // Local delivery still traverses the router's local port once.
            act.noc_flit_hops += flits.len() as u64;
            return 0;
        }

        let tracing = trace::active();
        let net = &mut self.link_state[noc.index()];
        let mut at = src;
        while let Some(next) = self.mesh.next_hop(at, dst) {
            let state = &mut net[Self::link_index(self.width, at, next)];
            for &flit in flits {
                act.noc_flit_hops += 1;
                act.noc_bit_switches += u64::from(hamming(*state, flit));
                act.noc_coupling_switches += u64::from(coupling_transitions(*state, flit));
                *state = flit;
            }
            if tracing {
                trace_hop(noc, at, next, flits.len());
            }
            at = next;
        }
        route.latency_cycles()
    }

    /// Precomputes the route `src → dst` on `noc` for a constant packet
    /// stream (e.g. the Figure 12 bridge traffic): the dimension-ordered
    /// walk and link indices are resolved once instead of per packet.
    #[must_use]
    pub fn plan(&self, noc: NocId, src: TileId, dst: TileId) -> SendPlan {
        let route = self.mesh.route(src, dst);
        let mut links = Vec::with_capacity(route.hops);
        let mut at = src;
        while let Some(next) = self.mesh.next_hop(at, dst) {
            links.push(Self::link_index(self.width, at, next));
            at = next;
        }
        debug_assert_eq!(links.len(), route.hops);
        SendPlan {
            noc,
            links,
            latency: route.latency_cycles(),
        }
    }

    /// Sends one packet along a precomputed [`SendPlan`] — identical
    /// accounting and wire-state effects to [`NocFabric::send`] with the
    /// plan's endpoints, cheaper for repeated traffic: besides skipping
    /// the route walk, when every link on the plan holds the same wire
    /// state (always true for a stream that owns its route) the
    /// switching chain is computed once and applied per hop, making a
    /// packet O(hops + flits) instead of O(hops × flits).
    pub fn send_planned(
        &mut self,
        plan: &SendPlan,
        flits: &[u64],
        act: &mut ActivityCounters,
    ) -> u64 {
        act.noc_packets += 1;
        act.noc_route_computes += plan.links.len() as u64;

        if plan.links.is_empty() {
            // Local delivery still traverses the router's local port once.
            act.noc_flit_hops += flits.len() as u64;
            return 0;
        }

        if trace::active() {
            trace_planned_hops(plan.noc, &plan.links, self.width, flits.len());
        }
        let net = &mut self.link_state[plan.noc.index()];
        let first = net[plan.links[0]];
        if plan.links.iter().all(|&l| net[l] == first) {
            // Per-link switching depends only on (prior state, flits),
            // so equal priors mean every link switches identically.
            let mut bits = 0u64;
            let mut coupling = 0u64;
            let mut state = first;
            for &flit in flits {
                bits += u64::from(hamming(state, flit));
                coupling += u64::from(coupling_transitions(state, flit));
                state = flit;
            }
            let hops = plan.links.len() as u64;
            act.noc_flit_hops += flits.len() as u64 * hops;
            act.noc_bit_switches += bits * hops;
            act.noc_coupling_switches += coupling * hops;
            for &l in &plan.links {
                net[l] = state;
            }
        } else {
            for &l in &plan.links {
                let state = &mut net[l];
                for &flit in flits {
                    act.noc_flit_hops += 1;
                    act.noc_bit_switches += u64::from(hamming(*state, flit));
                    act.noc_coupling_switches += u64::from(coupling_transitions(*state, flit));
                    *state = flit;
                }
            }
        }
        plan.latency
    }

    /// Resets all link wire state to zero (quiescent network).
    pub fn quiesce(&mut self) {
        for net in &mut self.link_state {
            net.fill(0);
        }
    }
}

/// A precomputed unicast route for [`NocFabric::send_planned`].
#[derive(Debug, Clone)]
pub struct SendPlan {
    noc: NocId,
    /// Directed-link indices along the dimension-ordered route.
    links: Vec<usize>,
    latency: u64,
}

/// The seed NoC implementation, with `HashMap`-backed link state. Kept
/// as the reference the flat-array [`NocFabric`] is equivalence-tested
/// against.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct ReferenceNocFabric {
    mesh: Mesh,
    link_state: [std::collections::HashMap<(TileId, TileId), u64>; 3],
}

impl ReferenceNocFabric {
    /// Creates an idle reference fabric over a mesh.
    #[must_use]
    pub fn new(mesh: Mesh) -> Self {
        Self {
            mesh,
            link_state: [
                std::collections::HashMap::new(),
                std::collections::HashMap::new(),
                std::collections::HashMap::new(),
            ],
        }
    }

    /// Sends one packet, accounting link activity — the seed
    /// implementation of [`NocFabric::send`], byte-for-byte.
    pub fn send(
        &mut self,
        noc: NocId,
        src: TileId,
        dst: TileId,
        flits: &[u64],
        act: &mut ActivityCounters,
    ) -> u64 {
        let route = self.mesh.route(src, dst);
        act.noc_packets += 1;
        act.noc_route_computes += route.hops as u64;

        if route.hops == 0 {
            act.noc_flit_hops += flits.len() as u64;
            return 0;
        }

        let mut at = src;
        while let Some(next) = self.mesh.next_hop(at, dst) {
            let state = self.link_state[noc.index()]
                .entry((at, next))
                .or_insert(0u64);
            for &flit in flits {
                act.noc_flit_hops += 1;
                act.noc_bit_switches += u64::from(hamming(*state, flit));
                act.noc_coupling_switches += u64::from(coupling_transitions(*state, flit));
                *state = flit;
            }
            at = next;
        }
        route.latency_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> (NocFabric, ActivityCounters) {
        (NocFabric::new(Mesh::piton()), ActivityCounters::default())
    }

    #[test]
    fn hamming_and_coupling() {
        assert_eq!(hamming(0, u64::MAX), 64);
        assert_eq!(hamming(0xF0, 0x0F), 8);
        // FSW: all bits rise together -> no opposite-direction pairs.
        assert_eq!(coupling_transitions(0, u64::MAX), 0);
        // FSWA: 0xAAAA.. -> 0x5555..: every adjacent pair is opposite.
        assert_eq!(
            coupling_transitions(0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555),
            63
        );
        // No change -> nothing.
        assert_eq!(coupling_transitions(0x42, 0x42), 0);
    }

    #[test]
    fn zero_hop_delivery_is_free_of_link_switching() {
        let (mut noc, mut act) = fabric();
        let lat = noc.send(
            NocId::Noc1,
            TileId::new(3),
            TileId::new(3),
            &[u64::MAX; 7],
            &mut act,
        );
        assert_eq!(lat, 0);
        assert_eq!(act.noc_bit_switches, 0);
        assert_eq!(act.noc_flit_hops, 7);
    }

    #[test]
    fn switching_scales_with_hops() {
        // Alternating all-ones/all-zeros payload (FSW): 64 switches per
        // flit per link after the first flit primes the wires.
        let flits = [u64::MAX, 0, u64::MAX, 0, u64::MAX, 0, u64::MAX];
        let (mut noc, mut act) = fabric();
        noc.send(
            NocId::Noc1,
            TileId::new(0),
            TileId::new(1),
            &flits,
            &mut act,
        );
        let one_hop = act.noc_bit_switches;

        let (mut noc2, mut act2) = fabric();
        noc2.send(
            NocId::Noc1,
            TileId::new(0),
            TileId::new(4),
            &flits,
            &mut act2,
        );
        let four_hops = act2.noc_bit_switches;
        assert_eq!(four_hops, 4 * one_hop);
        assert_eq!(act2.noc_flit_hops, 4 * 7);
    }

    #[test]
    fn nsw_payload_switches_nothing_on_warm_links() {
        let flits = [0u64; 7];
        let (mut noc, mut act) = fabric();
        // First packet primes (links start at zero so NSW never switches).
        noc.send(
            NocId::Noc1,
            TileId::new(0),
            TileId::new(4),
            &flits,
            &mut act,
        );
        assert_eq!(act.noc_bit_switches, 0);
    }

    #[test]
    fn turn_adds_latency() {
        let (mut noc, mut act) = fabric();
        let straight = noc.send(NocId::Noc1, TileId::new(0), TileId::new(4), &[0], &mut act);
        assert_eq!(straight, 4);
        let turning = noc.send(NocId::Noc1, TileId::new(0), TileId::new(9), &[0], &mut act);
        assert_eq!(turning, 6); // 5 hops + turn
    }

    #[test]
    fn networks_have_independent_wire_state() {
        let (mut noc, mut act) = fabric();
        noc.send(
            NocId::Noc1,
            TileId::new(0),
            TileId::new(1),
            &[u64::MAX],
            &mut act,
        );
        let after_first = act.noc_bit_switches;
        assert_eq!(after_first, 64);
        // Same flit on NoC3: its wires are still at zero, so it switches
        // another 64 bits rather than zero.
        noc.send(
            NocId::Noc3,
            TileId::new(0),
            TileId::new(1),
            &[u64::MAX],
            &mut act,
        );
        assert_eq!(act.noc_bit_switches, 128);
    }

    #[test]
    fn flat_link_state_matches_reference_on_random_traffic() {
        // The flat directed-link arrays must account identically to the
        // seed HashMap implementation for any packet stream.
        let mut flat = NocFabric::new(Mesh::piton());
        let mut reference = ReferenceNocFabric::new(Mesh::piton());
        let (mut act_flat, mut act_ref) =
            (ActivityCounters::default(), ActivityCounters::default());
        // A deterministic pseudo-random stream over all 25x25 pairs.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..600 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = TileId::new((x >> 8) as usize % 25);
            let dst = TileId::new((x >> 16) as usize % 25);
            let noc = NocId::ALL[i % 3];
            let flits = [x, !x, x.rotate_left(17), 0, u64::MAX];
            let l1 = flat.send(noc, src, dst, &flits, &mut act_flat);
            let l2 = reference.send(noc, src, dst, &flits, &mut act_ref);
            assert_eq!(l1, l2);
        }
        assert_eq!(act_flat, act_ref);
        assert!(act_flat.noc_bit_switches > 0);
    }

    #[test]
    fn planned_send_matches_send_exactly() {
        // `send_planned` must be indistinguishable from `send` with the
        // plan's endpoints — both on the uniform fast path (a stream
        // that owns its route) and after cross traffic desynchronizes
        // the links on the route (the per-link fallback).
        let mut planned = NocFabric::new(Mesh::piton());
        let mut plain = NocFabric::new(Mesh::piton());
        let (mut act_planned, mut act_plain) =
            (ActivityCounters::default(), ActivityCounters::default());
        let (src, dst) = (TileId::new(0), TileId::new(14)); // 4 hops + turn
        let plan = planned.plan(NocId::Noc2, src, dst);

        let mut x = 0x0123_4567_89ab_cdefu64;
        for i in 0..200u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let flits = [dst.index() as u64, x, !x, x.rotate_left(i as u32 % 63), 0];
            let l1 = planned.send_planned(&plan, &flits, &mut act_planned);
            let l2 = plain.send(NocId::Noc2, src, dst, &flits, &mut act_plain);
            assert_eq!(l1, l2);
            if i % 17 == 0 {
                // Cross traffic over a prefix of the same route leaves
                // the plan's links in *different* states, forcing the
                // per-link path on the next planned packet.
                let mid = TileId::new(4);
                planned.send(NocId::Noc2, src, mid, &[x, x ^ 0xFF], &mut act_planned);
                plain.send(NocId::Noc2, src, mid, &[x, x ^ 0xFF], &mut act_plain);
            }
        }
        assert_eq!(act_planned, act_plain);
        assert!(act_planned.noc_bit_switches > 0);

        // Zero-hop plans account the local-port traversal like `send`.
        let zero = planned.plan(NocId::Noc1, src, src);
        assert_eq!(zero.links.len(), 0);
        assert_eq!(planned.send_planned(&zero, &[1, 2, 3], &mut act_planned), 0);
        assert_eq!(
            plain.send(NocId::Noc1, src, src, &[1, 2, 3], &mut act_plain),
            0
        );
        assert_eq!(act_planned, act_plain);
    }

    #[test]
    fn quiesce_clears_wires() {
        let (mut noc, mut act) = fabric();
        noc.send(
            NocId::Noc1,
            TileId::new(0),
            TileId::new(1),
            &[u64::MAX],
            &mut act,
        );
        noc.quiesce();
        noc.send(
            NocId::Noc1,
            TileId::new(0),
            TileId::new(1),
            &[u64::MAX],
            &mut act,
        );
        assert_eq!(act.noc_bit_switches, 128); // switched again after reset
    }
}
