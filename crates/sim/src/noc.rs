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
//! There is one send path, [`NocFabric::send_repeated`], and it costs
//! O(hops + flits) per call however many identical packets it carries.
//! The fabric builds a route table once: the directed links, hop count
//! and head latency of every (src, dst) pair, so a send never walks the
//! mesh. Every link on a route sees the same transitions between a
//! packet's consecutive flits, so that chain is counted once and
//! multiplied by the hops; only the head flit's transition depends on a
//! link's prior wire state. After a packet every link on its route holds
//! the tail flit, so each further identical packet adds the same counts.
//! The seed per-flit, per-hop walk is kept as [`ReferenceNocFabric`],
//! the oracle the tests hold this path to.
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

use std::ops::Range;

use piton_arch::topology::{Mesh, TileId};
use piton_obs::trace::{self, TraceEvent, SUB_NOC};

use crate::events::ActivityCounters;

/// Which physical network a message travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// Outbound link slots of a tile, in flat link order (`tile * 4 + dir`).
const EAST: usize = 0;
const WEST: usize = 1;
const SOUTH: usize = 2;
const NORTH: usize = 3;

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

/// `(bit switches, coupling switches)` of one flit transition.
fn switches(prev: u64, cur: u64) -> (u64, u64) {
    (
        u64::from(hamming(prev, cur)),
        u64::from(coupling_transitions(prev, cur)),
    )
}

/// One (src, dst) entry of the fabric's route table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RouteEntry {
    /// Offset of the route's first directed link in the link table.
    first: u32,
    hops: u32,
    latency: u32,
}

impl RouteEntry {
    /// Links crossed by the dimension-ordered route.
    #[must_use]
    pub(crate) fn hops(self) -> usize {
        self.hops as usize
    }

    /// Head-flit network latency: one cycle per hop plus one for a turn.
    #[must_use]
    pub(crate) fn latency_cycles(self) -> u64 {
        u64::from(self.latency)
    }

    /// The route's span of the fabric's link table.
    fn links(self) -> Range<usize> {
        let first = self.first as usize;
        first..first + self.hops()
    }
}

/// The three physical mesh networks with per-link wire state.
#[derive(Debug, Clone)]
pub struct NocFabric {
    tiles: usize,
    /// Mesh width, to name a link's endpoints in trace events.
    width: usize,
    /// The X-then-Y route of every (src, dst) pair, at `src * tiles + dst`.
    routes: Vec<RouteEntry>,
    /// Every route's directed-link indices, back to back.
    route_links: Vec<u32>,
    /// Last flit value seen on each directed link, per network, in flat
    /// arrays indexed `tile * 4 + dir` (E/W/S/N); links off the mesh
    /// edge are dead slots no route names.
    link_state: [Vec<u64>; 3],
}

impl NocFabric {
    /// Creates an idle fabric over a mesh and builds its route table.
    #[must_use]
    pub fn new(mesh: Mesh) -> Self {
        let (width, height) = (mesh.width(), mesh.height());
        let tiles = mesh.tile_count();
        // Σ|Δx| over all ordered pairs is height² · (width³ − width) / 3,
        // and likewise for Δy: the exact length of the link table.
        let total_hops = height * height * (width.pow(3) - width) / 3
            + width * width * (height.pow(3) - height) / 3;
        let mut routes = Vec::with_capacity(tiles * tiles);
        let mut route_links = Vec::with_capacity(total_hops);
        for src in 0..tiles {
            let (sx, sy) = (src % width, src / width);
            for dst in 0..tiles {
                let (dx, dy) = (dst % width, dst / width);
                let first = route_links.len();
                let mut x = sx;
                while x != dx {
                    let tile = sy * width + x;
                    if x < dx {
                        route_links.push((tile * 4 + EAST) as u32);
                        x += 1;
                    } else {
                        route_links.push((tile * 4 + WEST) as u32);
                        x -= 1;
                    }
                }
                let mut y = sy;
                while y != dy {
                    let tile = y * width + dx;
                    if y < dy {
                        route_links.push((tile * 4 + SOUTH) as u32);
                        y += 1;
                    } else {
                        route_links.push((tile * 4 + NORTH) as u32);
                        y -= 1;
                    }
                }
                let hops = (route_links.len() - first) as u32;
                routes.push(RouteEntry {
                    first: first as u32,
                    hops,
                    latency: hops + u32::from(sx != dx && sy != dy),
                });
            }
        }
        let links = tiles * 4;
        Self {
            tiles,
            width,
            routes,
            route_links,
            link_state: [vec![0; links], vec![0; links], vec![0; links]],
        }
    }

    /// The route table's entry for `src → dst`.
    #[must_use]
    pub(crate) fn route(&self, src: TileId, dst: TileId) -> RouteEntry {
        self.routes[src.index() * self.tiles + dst.index()]
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
        if trace::wants(SUB_NOC) {
            self.trace_packet(noc, src, dst, flits.len());
        }
        self.send_repeated(noc, src, dst, flits, 1, act)
    }

    /// Sends `count` identical packets back to back from `src` to `dst`
    /// on `noc` — the same counts and wire state as `count` calls of
    /// [`NocFabric::send`], in O(hops + flits). The first packet finds
    /// each link's prior wire state; every later one finds every link on
    /// the route holding the tail flit, so each adds the same counts.
    /// Emits no trace events: a traced caller stamps each packet's hops
    /// at its own cycle. Returns the head-flit latency of one packet.
    #[inline]
    pub fn send_repeated(
        &mut self,
        noc: NocId,
        src: TileId,
        dst: TileId,
        flits: &[u64],
        count: u64,
        act: &mut ActivityCounters,
    ) -> u64 {
        let route = self.route(src, dst);
        if count == 0 {
            return route.latency_cycles();
        }
        let hops = u64::from(route.hops);
        act.noc_packets += count;
        act.noc_route_computes += hops * count;
        // Local delivery still traverses the router's local port once.
        act.noc_flit_hops += flits.len() as u64 * hops.max(1) * count;
        let (Some(&head), Some(&tail)) = (flits.first(), flits.last()) else {
            return route.latency_cycles();
        };
        if hops == 0 {
            return 0;
        }

        // Transitions between the packet's own flits, the same on every
        // link.
        let (mut body_bits, mut body_coupling) = (0, 0);
        let mut prev = head;
        for &flit in &flits[1..] {
            let (b, c) = switches(prev, flit);
            body_bits += b;
            body_coupling += c;
            prev = flit;
        }
        // The head flit's transition depends on each link's prior state;
        // consecutive links holding the same state reuse it.
        let net = &mut self.link_state[noc.index()];
        let links = &self.route_links[route.links()];
        let mut prior = net[links[0] as usize];
        let (mut head_bits, mut head_coupling) = switches(prior, head);
        let (mut bits, mut coupling) = (0, 0);
        for &l in links {
            let state = &mut net[l as usize];
            if *state != prior {
                prior = *state;
                (head_bits, head_coupling) = switches(prior, head);
            }
            bits += head_bits;
            coupling += head_coupling;
            *state = tail;
        }
        act.noc_bit_switches += bits + body_bits * hops;
        act.noc_coupling_switches += coupling + body_coupling * hops;
        if count > 1 {
            let (again_bits, again_coupling) = switches(tail, head);
            let repeats = (count - 1) * hops;
            act.noc_bit_switches += (again_bits + body_bits) * repeats;
            act.noc_coupling_switches += (again_coupling + body_coupling) * repeats;
        }
        route.latency_cycles()
    }

    /// Emits one packet's hop events along `src → dst`, stamped with the
    /// ambient cycle. Callers gate on [`trace::wants`]`(SUB_NOC)`.
    #[cold]
    pub(crate) fn trace_packet(&self, noc: NocId, src: TileId, dst: TileId, flits: usize) {
        for &l in &self.route_links[self.route(src, dst).links()] {
            let from = l as usize / 4;
            let to = match l as usize % 4 {
                EAST => from + 1,
                WEST => from - 1,
                SOUTH => from + self.width,
                _ => from - self.width,
            };
            trace::emit(TraceEvent::NocHop {
                cycle: trace::ambient_cycle(),
                noc: noc.index() as u32,
                from: from as u32,
                to: to as u32,
                flits: flits as u32,
            });
        }
    }

    /// A reusable handle on the route `src → dst` on `noc`.
    #[must_use]
    pub fn plan(&self, noc: NocId, src: TileId, dst: TileId) -> SendPlan {
        SendPlan {
            noc,
            src,
            dst,
            links: self.route(src, dst).links(),
        }
    }

    /// [`NocFabric::send`] along a [`SendPlan`]'s route.
    pub fn send_planned(
        &mut self,
        plan: &SendPlan,
        flits: &[u64],
        act: &mut ActivityCounters,
    ) -> u64 {
        self.send(plan.noc, plan.src, plan.dst, flits, act)
    }

    /// Resets all link wire state to zero (quiescent network).
    pub fn quiesce(&mut self) {
        for net in &mut self.link_state {
            net.fill(0);
        }
    }
}

/// A route handle for [`NocFabric::send_planned`].
#[derive(Debug, Clone)]
pub struct SendPlan {
    noc: NocId,
    src: TileId,
    dst: TileId,
    /// The route's span of the fabric's link table.
    links: Range<usize>,
}

impl SendPlan {
    /// Links the planned route crosses.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// The seed NoC implementation, with `HashMap`-backed link state and a
/// per-flit, per-hop walk. Kept as the reference the route-table
/// [`NocFabric`] is equivalence-tested against.
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
    fn route_table_matches_the_mesh_for_every_pair() {
        let mesh = Mesh::piton();
        let noc = NocFabric::new(mesh.clone());
        for src in mesh.tiles() {
            for dst in mesh.tiles() {
                let entry = noc.route(src, dst);
                let route = mesh.route(src, dst);
                assert_eq!(entry.hops(), route.hops, "{src:?}->{dst:?}");
                assert_eq!(entry.latency_cycles(), route.latency_cycles());
                // The table's links are the `next_hop` walk's, in order.
                let mut walk = Vec::new();
                let mut at = src;
                while let Some(next) = mesh.next_hop(at, dst) {
                    let (f, t) = (at.index(), next.index());
                    let dir = if t == f + 1 {
                        EAST
                    } else if t + 1 == f {
                        WEST
                    } else if t == f + mesh.width() {
                        SOUTH
                    } else {
                        NORTH
                    };
                    walk.push((f * 4 + dir) as u32);
                    at = next;
                }
                assert_eq!(&noc.route_links[entry.links()], walk.as_slice());
            }
        }
    }

    #[test]
    fn send_matches_reference_for_every_flit_count_and_network() {
        let mut fabric = NocFabric::new(Mesh::piton());
        let mut reference = ReferenceNocFabric::new(Mesh::piton());
        let (mut act, mut act_ref) = (ActivityCounters::default(), ActivityCounters::default());
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for n in 0..=8usize {
            for noc in NocId::ALL {
                for pair in 0..625usize {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let (src, dst) = (TileId::new(pair / 25), TileId::new(pair % 25));
                    let flits: Vec<u64> = (0..n as u32)
                        .map(|i| x.rotate_left(9 * i) ^ u64::from(i))
                        .collect();
                    // Runs of identical packets: the second one finds
                    // every link on the route holding the same state.
                    for _ in 0..1 + pair % 3 {
                        let l1 = fabric.send(noc, src, dst, &flits, &mut act);
                        let l2 = reference.send(noc, src, dst, &flits, &mut act_ref);
                        assert_eq!(l1, l2);
                    }
                }
                assert_eq!(act, act_ref, "{n} flits on {noc:?}");
            }
        }
        assert!(act.noc_coupling_switches > 0);
    }

    #[test]
    fn send_repeated_equals_a_loop_of_reference_sends() {
        let mut fabric = NocFabric::new(Mesh::piton());
        let mut reference = ReferenceNocFabric::new(Mesh::piton());
        let (mut act, mut act_ref) = (ActivityCounters::default(), ActivityCounters::default());
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..300u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noc = NocId::ALL[i as usize % 3];
            let (src, dst) = (
                TileId::new((x >> 8) as usize % 25),
                TileId::new((x >> 16) as usize % 25),
            );
            let flits: Vec<u64> = (0..(x >> 24) % 9)
                .map(|k| x.rotate_left(k as u32 * 7))
                .collect();
            let count = (x >> 32) % 5;
            let l1 = fabric.send_repeated(noc, src, dst, &flits, count, &mut act);
            for _ in 0..count {
                let l2 = reference.send(noc, src, dst, &flits, &mut act_ref);
                assert_eq!(l1, l2);
            }
            assert_eq!(act, act_ref, "packet run {i}");
        }
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
