//! The coherent memory system: L1D, L1.5, distributed L2 slices with an
//! integrated directory, the three NoCs, and the off-chip memory path.
//!
//! Piton keeps coherence with a directory-based MESI protocol at the
//! shared, distributed L2 (§II). Each tile's L1.5 is a private
//! write-back cache wrapping the write-through L1D; the L2 slice that
//! *homes* a line is selected by address (configurable to low/mid/high
//! address bits, which is how the paper's memory-energy experiment steers
//! a load at a local or a remote slice).
//!
//! The model executes transactions synchronously — a load returns its
//! value plus the latency the request would have taken — while updating
//! real MESI state: sharers are tracked per 64 B L2 line, stores upgrade
//! and invalidate, dirty L1.5 lines write back on eviction, and every
//! protocol message is materialized as flits on the correct physical NoC
//! so that link-switching energy is accounted.
//!
//! Latency anchors (Table VII / Figure 15):
//!
//! | scenario | cycles |
//! |---|---|
//! | L1 hit | 3 |
//! | L1 miss, local L2 hit | 34 |
//! | L1 miss, remote L2 hit (4 straight hops) | 42 |
//! | L1 miss, remote L2 hit (8 hops + turns) | 52 |
//! | L1 miss, local L2 miss | ≈ 424 (29 on-chip + ~395 off-chip) |
//!
//! # Mutation-order contract
//!
//! The memory system is a single shared mutable structure; its state
//! (MESI lines, directory sharers, store-buffer drains) and the f64
//! activity sums it accumulates depend on the *order* of transactions.
//! Every engine in [`crate::machine`] must drive it in the canonical
//! order — ascending cycle, then ascending tile index within a cycle.
//! The batched dense engine's local run-ahead only *reads* it: an L1
//! hit or a store drain on a line the tile's L1.5 owns is taken ahead
//! of time against a shared borrow and logged. Its ordered replay then
//! checks each logged access at its (cycle, tile) turn — the L1 still
//! hits and memory still holds the value read, or the L1.5 still owns
//! the line — before making the real [`MemorySystem::load`] or
//! [`MemorySystem::store_drain`] call here. A failed check rewinds that
//! lane to the access, which then takes the live path. So every call
//! still arrives in the canonical order, and the results stay
//! bit-identical to the naive engine's.

use piton_arch::config::{ChipConfig, SliceMapping};
use piton_arch::topology::TileId;
use piton_obs::trace::{self, CacheKind, CacheLevel, TraceEvent};

use crate::cache::{LineState, SetAssocCache};
use crate::chipset::MemoryPath;
use crate::events::{value_activity, ActivityCounters};
use crate::fastmap::FastMap;
use crate::mem::Memory;
use crate::noc::{NocFabric, NocId};

/// Load latency of an L1 data-cache hit (Table VI).
pub const L1_HIT_CYCLES: u64 = 3;
/// Load latency of an L1 miss that hits the L1.5.
pub const L15_HIT_CYCLES: u64 = 8;
/// Load latency of an L1/L1.5 miss that hits the *local* L2 slice
/// (Table VII).
pub const L2_HIT_CYCLES: u64 = 34;
/// On-chip overhead of an L2 miss beyond the Figure 15 off-chip path
/// (434 − 395 − pipeline; lands the Table VII 424-cycle average).
pub const MISS_OVERHEAD_CYCLES: u64 = 29;
/// Store-buffer drain latency when the L1.5 owns the line (Table VI).
pub const STORE_DRAIN_CYCLES: u64 = 10;
/// Base latency of an atomic performed at the L2 coherence point.
pub const CAS_BASE_CYCLES: u64 = 44;

/// Flits in a coherence request (§IV-G: "a three flit request").
const REQ_FLITS: usize = 3;
/// Flits in a data response.
const RESP_FLITS: usize = 3;
/// Flits in an invalidation.
const INV_FLITS: usize = 2;
/// Flits in an invalidation acknowledgement.
const ACK_FLITS: usize = 1;

/// Outlined cache-transition trace emission — callers gate on
/// [`trace::active`] so the hot path pays one branch when tracing is off.
#[cold]
fn trace_cache(cycle: u64, tile: TileId, level: CacheLevel, kind: CacheKind, addr: u64) {
    trace::emit(TraceEvent::Cache {
        cycle,
        tile: tile.index() as u32,
        level,
        kind,
        addr,
    });
}

/// Where a load was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// L1 data cache hit.
    L1,
    /// L1 miss, L1.5 hit.
    L15,
    /// L1/L1.5 miss, L2 hit; `hops` is the one-way NoC distance to the
    /// home slice.
    L2 {
        /// One-way hop count to the home L2 slice.
        hops: usize,
    },
    /// Missed everywhere; serviced by DRAM.
    Memory {
        /// One-way hop count to the home L2 slice.
        hops: usize,
    },
}

/// Result of a load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadOutcome {
    /// The 64-bit value read.
    pub value: u64,
    /// Cycles from issue to write-back into the register file.
    pub latency: u64,
    /// Where the request was serviced.
    pub level: HitLevel,
}

/// Directory entry for one 64 B L2 line.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct DirEntry {
    /// Bitmap of tiles with the line in their L1.5.
    sharers: u32,
    /// Tile whose L1.5 may hold the line Modified.
    owner: Option<TileId>,
}

impl DirEntry {
    fn bit(tile: TileId) -> u32 {
        1 << tile.index()
    }

    fn add_sharer(&mut self, tile: TileId) {
        self.sharers |= Self::bit(tile);
    }

    /// The tiles of a bitmap, in ascending tile order.
    fn tiles(mut bits: u32) -> impl Iterator<Item = TileId> {
        std::iter::from_fn(move || {
            let i = bits.trailing_zeros();
            (i < 32).then(|| {
                bits &= bits - 1;
                TileId::new(i as usize)
            })
        })
    }
}

/// The full coherent memory hierarchy of one Piton chip.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: ChipConfig,
    l1d: Vec<SetAssocCache>,
    l15: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    dir: FastMap<u64, DirEntry>,
    /// The three physical NoCs.
    pub noc: NocFabric,
    /// The off-chip memory path.
    pub path: MemoryPath,
    /// Functional main memory.
    pub mem: Memory,
}

impl MemorySystem {
    /// Builds the hierarchy for a chip configuration.
    #[must_use]
    pub fn new(cfg: &ChipConfig) -> Self {
        let n = cfg.tile_count();
        Self {
            cfg: cfg.clone(),
            l1d: (0..n).map(|_| SetAssocCache::new(cfg.l1d)).collect(),
            l15: (0..n).map(|_| SetAssocCache::new(cfg.l15)).collect(),
            l2: (0..n).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            dir: FastMap::default(),
            noc: NocFabric::new(cfg.topology().clone()),
            path: MemoryPath::new(),
            mem: Memory::new(),
        }
    }

    /// The chip configuration.
    #[must_use]
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// The 64 B L2 line containing `addr`.
    #[must_use]
    pub fn l2_line(&self, addr: u64) -> u64 {
        addr & !(self.cfg.l2.line_bytes - 1)
    }

    /// The tile whose L2 slice homes `addr`, per the configured
    /// line-to-slice mapping.
    #[must_use]
    pub fn home_slice(&self, addr: u64) -> TileId {
        let n = self.cfg.tile_count() as u64;
        let sel = match self.cfg.slice_mapping {
            SliceMapping::Low => addr >> self.cfg.l2.line_bytes.trailing_zeros(),
            SliceMapping::Mid => addr >> 12,
            SliceMapping::High => addr >> 20,
        };
        TileId::new((sel % n) as usize)
    }

    /// One-way (hops + turn) NoC latency between two tiles.
    fn route_cycles(&self, a: TileId, b: TileId) -> u64 {
        self.noc.route(a, b).latency_cycles()
    }

    fn flit_payloads<const N: usize>(addr: u64, value: u64) -> [u64; N] {
        // Header carries the address; body flits carry value-derived
        // words so link switching tracks real data activity.
        std::array::from_fn(|i| match i {
            0 => addr,
            1 => value,
            _ => value.rotate_left(17 * i as u32) ^ addr,
        })
    }

    /// Invalidates every L1/L1.5 copy of the 64 B line at `tile`
    /// (covering all four 16 B sublines).
    fn invalidate_tile_copies(&mut self, tile: TileId, l2_line: u64, act: &mut ActivityCounters) {
        let sub = self.cfg.l15.line_bytes;
        let mut hit_any = false;
        for k in 0..(self.cfg.l2.line_bytes / sub) {
            let a = l2_line + k * sub;
            self.l1d[tile.index()].invalidate(a);
            if self.l15[tile.index()].invalidate(a).is_some() {
                act.invalidations += 1;
                hit_any = true;
            }
        }
        if hit_any && trace::active() {
            trace_cache(
                trace::ambient_cycle(),
                tile,
                CacheLevel::L15,
                CacheKind::Invalidate,
                l2_line,
            );
        }
    }

    /// Invalidates all remote sharers of a line (directory-driven),
    /// returning the worst-case round-trip invalidation latency.
    fn invalidate_sharers(
        &mut self,
        home: TileId,
        l2_line: u64,
        keep: Option<TileId>,
        act: &mut ActivityCounters,
    ) -> u64 {
        let Some(entry) = self.dir.get(&l2_line).copied() else {
            return 0;
        };
        let mut worst = 0;
        // Sharers in tile order, then an owner that is not also a
        // sharer: the send order the NoC Hamming chains depend on.
        let kept = keep.map_or(0, DirEntry::bit);
        let sharers = entry.sharers & !kept;
        let owner = entry.owner.map_or(0, DirEntry::bit) & !entry.sharers & !kept;
        for t in DirEntry::tiles(sharers).chain(DirEntry::tiles(owner)) {
            let inv = Self::flit_payloads::<INV_FLITS>(l2_line, 0);
            self.noc.send(NocId::Noc2, home, t, &inv, act);
            self.invalidate_tile_copies(t, l2_line, act);
            let ack = Self::flit_payloads::<ACK_FLITS>(l2_line, 0);
            self.noc.send(NocId::Noc3, t, home, &ack, act);
            worst = worst.max(2 * self.route_cycles(home, t));
        }
        if let Some(e) = self.dir.get_mut(&l2_line) {
            e.sharers &= kept;
            if e.owner != keep {
                e.owner = None;
            }
        }
        worst
    }

    /// Handles an L2 victim: invalidate chip-wide copies and write dirty
    /// data back to DRAM (buffered — does not block the requestor).
    fn handle_l2_eviction(
        &mut self,
        home: TileId,
        victim_line: u64,
        dirty: bool,
        act: &mut ActivityCounters,
    ) {
        self.invalidate_sharers(home, victim_line, None, act);
        self.dir.remove(&victim_line);
        if dirty {
            // Buffered write-back down the off-chip path.
            act.dram_accesses += 2;
            act.chip_bridge_flits += 12;
        }
    }

    /// Fetches a dirty line from its L1.5 owner back to the home L2
    /// (downgrade-with-data); tolerant of stale owner pointers.
    fn fetch_from_owner(
        &mut self,
        home: TileId,
        l2_line: u64,
        requester: TileId,
        act: &mut ActivityCounters,
    ) -> u64 {
        let Some(entry) = self.dir.get(&l2_line).copied() else {
            return 0;
        };
        let Some(owner) = entry.owner else { return 0 };
        if owner == requester {
            return 0;
        }
        // Probe the owner; a silent L1.5 eviction may have cleared it.
        let sub = self.cfg.l15.line_bytes;
        let mut was_dirty = false;
        for k in 0..(self.cfg.l2.line_bytes / sub) {
            let a = l2_line + k * sub;
            if self.l15[owner.index()].peek(a) == Some(LineState::Modified) {
                self.l15[owner.index()].set_state(a, LineState::Shared);
                was_dirty = true;
            }
        }
        if let Some(e) = self.dir.get_mut(&l2_line) {
            e.owner = None;
            e.add_sharer(owner);
        }
        if !was_dirty {
            return 0;
        }
        let fwd = Self::flit_payloads::<INV_FLITS>(l2_line, 0);
        self.noc.send(NocId::Noc2, home, owner, &fwd, act);
        let data = Self::flit_payloads::<RESP_FLITS>(l2_line, self.mem.read(l2_line));
        self.noc.send(NocId::Noc3, owner, home, &data, act);
        act.l15_writebacks += 1;
        act.l2_writes += 1;
        2 * self.route_cycles(home, owner)
    }

    /// Write back an evicted dirty L1.5 line to its home L2.
    fn writeback_l15_victim(&mut self, tile: TileId, line_addr: u64, act: &mut ActivityCounters) {
        if trace::active() {
            trace_cache(
                trace::ambient_cycle(),
                tile,
                CacheLevel::L15,
                CacheKind::Writeback,
                line_addr,
            );
        }
        let l2_line = self.l2_line(line_addr);
        let home = self.home_slice(line_addr);
        let data = Self::flit_payloads::<RESP_FLITS>(line_addr, self.mem.read(line_addr));
        self.noc.send(NocId::Noc1, tile, home, &data, act);
        act.l15_writebacks += 1;
        act.l2_writes += 1;
        // Mark the L2 copy dirty so its eventual eviction writes to DRAM.
        self.l2[home.index()].set_state(l2_line, LineState::Modified);
        if let Some(e) = self.dir.get_mut(&l2_line) {
            if e.owner == Some(tile) {
                e.owner = None;
                e.add_sharer(tile);
            }
        }
    }

    /// Fill a line into a tile's L1.5 and L1, handling victims.
    fn fill_private(
        &mut self,
        tile: TileId,
        addr: u64,
        state: LineState,
        now: u64,
        act: &mut ActivityCounters,
    ) {
        let l15_line = addr & !(self.cfg.l15.line_bytes - 1);
        if let Some(victim) = self.l15[tile.index()].insert(l15_line, state, now) {
            // A clean victim leaves silently: the protocol tolerates
            // its stale directory sharer bit.
            if victim.state.is_dirty() {
                self.writeback_l15_victim(tile, victim.line_addr, act);
            }
        }
        let l1_line = addr & !(self.cfg.l1d.line_bytes - 1);
        // L1 fills are clean (write-through): silent eviction.
        let _ = self.l1d[tile.index()].insert(l1_line, LineState::Shared, now);
    }

    /// Services the home-L2 side of a request; returns
    /// `(latency_beyond_noc, l2_hit)`.
    fn access_home(
        &mut self,
        tile: TileId,
        home: TileId,
        addr: u64,
        for_write: bool,
        now: u64,
        act: &mut ActivityCounters,
    ) -> (u64, bool) {
        let l2_line = self.l2_line(addr);
        act.dir_lookups += 1;
        act.l2_reads += 1;

        let hit = self.l1_5_probe_home(home, l2_line, now);
        if hit {
            let mut extra = self.fetch_from_owner(home, l2_line, tile, act);
            if for_write {
                extra = extra.max(self.invalidate_sharers(home, l2_line, Some(tile), act));
            } else {
                // A second reader demotes any Exclusive copy to Shared.
                let others = self.dir.get(&l2_line).map_or(0, |e| e.sharers) & !DirEntry::bit(tile);
                let sub = self.cfg.l15.line_bytes;
                for o in DirEntry::tiles(others) {
                    for k in 0..(self.cfg.l2.line_bytes / sub) {
                        let a = l2_line + k * sub;
                        if self.l15[o.index()].peek(a) == Some(LineState::Exclusive) {
                            self.l15[o.index()].set_state(a, LineState::Shared);
                        }
                    }
                }
            }
            let e = self.dir.entry(l2_line).or_default();
            if for_write {
                e.sharers = DirEntry::bit(tile);
                e.owner = Some(tile);
            } else {
                e.add_sharer(tile);
            }
            (L2_HIT_CYCLES + extra, true)
        } else {
            act.l2_misses += 1;
            let path_latency = self.path.access(now, act);
            act.l2_writes += 1; // fill
            if let Some(victim) = self.l2[home.index()].insert(l2_line, LineState::Exclusive, now) {
                self.handle_l2_eviction(home, victim.line_addr, victim.state.is_dirty(), act);
            }
            let mut e = DirEntry::default();
            if for_write {
                e.sharers = DirEntry::bit(tile);
                e.owner = Some(tile);
            } else {
                e.add_sharer(tile);
            }
            self.dir.insert(l2_line, e);
            (MISS_OVERHEAD_CYCLES + path_latency, false)
        }
    }

    fn l1_5_probe_home(&mut self, home: TileId, l2_line: u64, now: u64) -> bool {
        self.l2[home.index()].lookup(l2_line, now).is_some()
    }

    /// Whether `tile`'s L1 holds `addr`: a load of it now is a 3-cycle
    /// hit that changes nothing but LRU stamps and counters.
    #[must_use]
    pub fn l1_holds(&self, tile: TileId, addr: u64) -> bool {
        self.l1d[tile.index()].peek(addr).is_some()
    }

    /// Whether `tile`'s L1.5 holds the line of `addr` Modified or
    /// Exclusive: a store drain to it now is a 10-cycle local write.
    #[must_use]
    pub fn owns(&self, tile: TileId, addr: u64) -> bool {
        matches!(
            self.l15[tile.index()].peek(addr),
            Some(LineState::Modified | LineState::Exclusive)
        )
    }

    /// Performs a 64-bit load from `tile` at cycle `now`.
    pub fn load(
        &mut self,
        tile: TileId,
        addr: u64,
        now: u64,
        act: &mut ActivityCounters,
    ) -> LoadOutcome {
        act.l1d_reads += 1;
        let value = self.mem.read(addr);
        act.mem_value_activity += value_activity(value);
        let tracing = trace::active();
        if tracing {
            trace::set_cycle(now);
        }

        if self.l1d[tile.index()].lookup(addr, now).is_some() {
            if tracing {
                trace_cache(now, tile, CacheLevel::L1D, CacheKind::Hit, addr);
            }
            return LoadOutcome {
                value,
                latency: L1_HIT_CYCLES,
                level: HitLevel::L1,
            };
        }
        act.l1d_misses += 1;
        act.load_rollbacks += 1; // the core speculated an L1 hit
        act.l15_reads += 1;

        if self.l15[tile.index()].lookup(addr, now).is_some() {
            let l1_line = addr & !(self.cfg.l1d.line_bytes - 1);
            let _ = self.l1d[tile.index()].insert(l1_line, LineState::Shared, now);
            if tracing {
                trace_cache(now, tile, CacheLevel::L15, CacheKind::Hit, addr);
            }
            return LoadOutcome {
                value,
                latency: L15_HIT_CYCLES,
                level: HitLevel::L15,
            };
        }
        act.l15_misses += 1;

        let home = self.home_slice(addr);
        let route = self.noc.route(tile, home);
        let rt = 2 * route.latency_cycles();
        let req = Self::flit_payloads::<REQ_FLITS>(addr, tile.index() as u64);
        self.noc.send(NocId::Noc1, tile, home, &req, act);

        let (home_latency, l2_hit) = self.access_home(tile, home, addr, false, now, act);

        let resp = Self::flit_payloads::<RESP_FLITS>(addr, value);
        self.noc.send(NocId::Noc3, home, tile, &resp, act);

        let entry = self
            .dir
            .get(&self.l2_line(addr))
            .copied()
            .unwrap_or_default();
        let alone = entry.sharers == DirEntry::bit(tile) && entry.owner.is_none();
        let fill_state = if alone {
            LineState::Exclusive
        } else {
            LineState::Shared
        };
        self.fill_private(tile, addr, fill_state, now, act);

        let level = if l2_hit {
            HitLevel::L2 { hops: route.hops() }
        } else {
            HitLevel::Memory { hops: route.hops() }
        };
        if tracing {
            let (lvl, kind) = if l2_hit {
                (CacheLevel::L2, CacheKind::Hit)
            } else {
                (CacheLevel::Memory, CacheKind::Fill)
            };
            trace_cache(now, tile, lvl, kind, addr);
        }
        LoadOutcome {
            value,
            latency: home_latency + rt,
            level,
        }
    }

    /// Drains one store from a store buffer: write-through the L1, write
    /// the L1.5 (upgrading via the directory when not owned). Returns the
    /// drain latency.
    pub fn store_drain(
        &mut self,
        tile: TileId,
        addr: u64,
        value: u64,
        now: u64,
        act: &mut ActivityCounters,
    ) -> u64 {
        act.l1d_writes += 1;
        act.l15_writes += 1;
        act.mem_value_activity += value_activity(value);
        let tracing = trace::active();
        if tracing {
            trace::set_cycle(now);
        }

        let owned = matches!(
            self.l15[tile.index()].lookup(addr, now),
            Some(LineState::Modified | LineState::Exclusive)
        );
        if tracing {
            let kind = if owned {
                CacheKind::Hit
            } else {
                CacheKind::Upgrade
            };
            trace_cache(now, tile, CacheLevel::L15, kind, addr);
        }
        let latency = if owned {
            self.l15[tile.index()]
                .set_state(addr & !(self.cfg.l15.line_bytes - 1), LineState::Modified);
            STORE_DRAIN_CYCLES
        } else {
            let home = self.home_slice(addr);
            let route = self.noc.route(tile, home);
            let rt = 2 * route.latency_cycles();
            let req = Self::flit_payloads::<REQ_FLITS>(addr, value);
            self.noc.send(NocId::Noc1, tile, home, &req, act);
            let (home_latency, _hit) = self.access_home(tile, home, addr, true, now, act);
            let resp = Self::flit_payloads::<RESP_FLITS>(addr, value);
            self.noc.send(NocId::Noc3, home, tile, &resp, act);
            self.fill_private(tile, addr, LineState::Modified, now, act);
            home_latency + rt
        };

        // Keep the L1 (write-through) coherent with the store.
        let l1_line = addr & !(self.cfg.l1d.line_bytes - 1);
        if self.l1d[tile.index()].peek(l1_line).is_some() {
            let _ = self.l1d[tile.index()].insert(l1_line, LineState::Shared, now);
        }
        if let Some(e) = self.dir.get_mut(&self.l2_line(addr)) {
            e.owner = Some(tile);
            e.add_sharer(tile);
        }
        self.mem.write(addr, value);
        latency
    }

    /// Performs an atomic compare-and-swap at the L2 coherence point.
    /// Returns `(old_value, latency)`.
    pub fn cas(
        &mut self,
        tile: TileId,
        addr: u64,
        expected: u64,
        new: u64,
        now: u64,
        act: &mut ActivityCounters,
    ) -> (u64, u64) {
        act.atomics += 1;
        act.dir_lookups += 1;
        act.l2_reads += 1;
        act.l2_writes += 1;
        if trace::active() {
            trace::set_cycle(now);
            trace_cache(now, tile, CacheLevel::L2, CacheKind::Atomic, addr);
        }

        let l2_line = self.l2_line(addr);
        let home = self.home_slice(addr);
        let route = self.noc.route(tile, home);
        let rt = 2 * route.latency_cycles();

        let req = Self::flit_payloads::<REQ_FLITS>(addr, expected ^ new);
        self.noc.send(NocId::Noc1, tile, home, &req, act);

        // Atomics invalidate every private copy (including the
        // requester's) and leave the line dirty at the L2.
        let inv_latency = self.invalidate_sharers(home, l2_line, None, act);
        self.invalidate_tile_copies(tile, l2_line, act);

        let mut miss_latency = 0;
        if self.l2[home.index()].lookup(l2_line, now).is_none() {
            act.l2_misses += 1;
            miss_latency = MISS_OVERHEAD_CYCLES + self.path.access(now, act);
            if let Some(victim) = self.l2[home.index()].insert(l2_line, LineState::Modified, now) {
                self.handle_l2_eviction(home, victim.line_addr, victim.state.is_dirty(), act);
            }
        } else {
            self.l2[home.index()].set_state(l2_line, LineState::Modified);
        }
        self.dir.insert(l2_line, DirEntry::default());

        let old = self.mem.compare_and_swap(addr, expected, new);
        act.mem_value_activity += value_activity(old);

        let resp = Self::flit_payloads::<RESP_FLITS>(addr, old);
        self.noc.send(NocId::Noc3, home, tile, &resp, act);

        (old, CAS_BASE_CYCLES + rt + inv_latency + miss_latency)
    }

    /// Direct memory write used by program loaders (bypasses caches and
    /// timing, as the serial-port/SD loader would).
    pub fn poke(&mut self, addr: u64, value: u64) {
        self.mem.write(addr, value);
    }

    /// Direct memory read for test inspection.
    #[must_use]
    pub fn peek_mem(&self, addr: u64) -> u64 {
        self.mem.read(addr)
    }

    /// MESI invariant check for tests: at most one L1.5 holds a given
    /// line Modified/Exclusive, and never together with Shared copies
    /// elsewhere.
    #[must_use]
    pub fn coherence_ok(&self, addr: u64) -> bool {
        let line = addr & !(self.cfg.l15.line_bytes - 1);
        let mut exclusive_holders = 0;
        let mut shared_holders = 0;
        for t in 0..self.cfg.tile_count() {
            match self.l15[t].peek(line) {
                Some(LineState::Modified | LineState::Exclusive) => exclusive_holders += 1,
                Some(LineState::Shared) => shared_holders += 1,
                _ => {}
            }
        }
        exclusive_holders <= 1 && (exclusive_holders == 0 || shared_holders == 0)
    }

    /// State of a line in a tile's L1.5 (test inspection).
    #[must_use]
    pub fn l15_state(&self, tile: TileId, addr: u64) -> Option<LineState> {
        self.l15[tile.index()].peek(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> (MemorySystem, ActivityCounters) {
        (
            MemorySystem::new(&ChipConfig::piton()),
            ActivityCounters::default(),
        )
    }

    /// An address whose home slice is the given tile (low-bit mapping:
    /// slice = (addr / 64) mod 25).
    fn addr_homed_at(sys: &MemorySystem, tile: usize) -> u64 {
        let base = 0x10_0000;
        for k in 0..64 {
            let a = base + k * 64;
            if sys.home_slice(a).index() == tile {
                return a;
            }
        }
        panic!("no address homed at tile {tile}");
    }

    #[test]
    fn load_latency_ladder_matches_table_vii() {
        let (mut sys, mut act) = system();
        let t0 = TileId::new(0);
        let a_local = addr_homed_at(&sys, 0);

        // Cold: local L2 miss -> ~424 cycles.
        let miss = sys.load(t0, a_local, 0, &mut act);
        assert!(matches!(miss.level, HitLevel::Memory { hops: 0 }));
        assert!(
            (424..470).contains(&miss.latency),
            "L2 miss latency {}",
            miss.latency
        );

        // Warm L1: 3 cycles.
        let hit = sys.load(t0, a_local, 1000, &mut act);
        assert_eq!(hit.level, HitLevel::L1);
        assert_eq!(hit.latency, 3);
    }

    #[test]
    fn local_l2_hit_is_34_cycles() {
        let (mut sys, mut act) = system();
        let t0 = TileId::new(0);
        let a = addr_homed_at(&sys, 0);
        // Warm the L2 via another tile, then evict nothing: t0's L1/L1.5
        // are still cold, so t0's first load hits only the L2... but the
        // *other* tile must not hold it Modified. A clean load suffices.
        let t9 = TileId::new(9);
        let _ = sys.load(t9, a, 0, &mut act);
        let out = sys.load(t0, a, 2000, &mut act);
        assert_eq!(out.level, HitLevel::L2 { hops: 0 });
        assert_eq!(out.latency, 34);
    }

    #[test]
    fn remote_l2_hits_match_paper_hop_latencies() {
        let (mut sys, mut act) = system();
        // Home at tile4: 4 straight hops from tile0 -> 34 + 8 = 42.
        let a4 = addr_homed_at(&sys, 4);
        let _ = sys.load(TileId::new(4), a4, 0, &mut act); // warm L2
        let out = sys.load(TileId::new(0), a4, 2000, &mut act);
        assert_eq!(out.level, HitLevel::L2 { hops: 4 });
        assert_eq!(out.latency, 42);

        // Home at tile24: 8 hops with a turn each way -> 34 + 18 = 52.
        let a24 = addr_homed_at(&sys, 24);
        let _ = sys.load(TileId::new(24), a24, 4000, &mut act);
        let out = sys.load(TileId::new(0), a24, 6000, &mut act);
        assert_eq!(out.level, HitLevel::L2 { hops: 8 });
        assert_eq!(out.latency, 52);
    }

    #[test]
    fn store_upgrade_invalidates_sharers() {
        let (mut sys, mut act) = system();
        let a = addr_homed_at(&sys, 12);
        let reader = TileId::new(3);
        let writer = TileId::new(7);

        let _ = sys.load(reader, a, 0, &mut act);
        let _ = sys.load(writer, a, 1000, &mut act);
        assert!(sys.l15_state(reader, a).is_some());

        let inv_before = act.invalidations;
        let lat = sys.store_drain(writer, a, 0xFEED, 2000, &mut act);
        assert!(lat > STORE_DRAIN_CYCLES, "upgrade must cost more: {lat}");
        assert!(act.invalidations > inv_before);
        assert_eq!(sys.l15_state(reader, a), None);
        assert_eq!(sys.l15_state(writer, a), Some(LineState::Modified));
        assert!(sys.coherence_ok(a));
        assert_eq!(sys.peek_mem(a), 0xFEED);
    }

    #[test]
    fn owned_store_drains_in_ten_cycles() {
        let (mut sys, mut act) = system();
        let a = addr_homed_at(&sys, 5);
        let t = TileId::new(5);
        let _ = sys.store_drain(t, a, 1, 0, &mut act); // acquire ownership
        let lat = sys.store_drain(t, a, 2, 1000, &mut act);
        assert_eq!(lat, STORE_DRAIN_CYCLES);
    }

    #[test]
    fn dirty_line_fetched_from_owner_on_remote_read() {
        let (mut sys, mut act) = system();
        let a = addr_homed_at(&sys, 10);
        let writer = TileId::new(2);
        let reader = TileId::new(20);

        let _ = sys.store_drain(writer, a, 0xABCD, 0, &mut act);
        assert_eq!(sys.l15_state(writer, a), Some(LineState::Modified));

        let out = sys.load(reader, a, 1000, &mut act);
        assert_eq!(out.value, 0xABCD);
        // Owner downgraded; both now share.
        assert_eq!(sys.l15_state(writer, a), Some(LineState::Shared));
        assert!(sys.coherence_ok(a));
    }

    #[test]
    fn cas_is_atomic_and_invalidates_everyone() {
        let (mut sys, mut act) = system();
        let a = addr_homed_at(&sys, 8);
        let t1 = TileId::new(1);
        let t2 = TileId::new(6);

        let _ = sys.load(t1, a, 0, &mut act);
        let _ = sys.load(t2, a, 100, &mut act);

        let (old, lat) = sys.cas(t1, a, 0, 1, 200, &mut act);
        assert_eq!(old, 0);
        assert!(lat >= CAS_BASE_CYCLES);
        assert_eq!(sys.peek_mem(a), 1);
        assert_eq!(sys.l15_state(t1, a), None);
        assert_eq!(sys.l15_state(t2, a), None);

        // Losing CAS returns the current value without storing.
        let (old2, _) = sys.cas(t2, a, 0, 99, 300, &mut act);
        assert_eq!(old2, 1);
        assert_eq!(sys.peek_mem(a), 1);
    }

    #[test]
    fn exclusive_fill_when_sole_sharer() {
        let (mut sys, mut act) = system();
        let a = addr_homed_at(&sys, 15);
        let t = TileId::new(0);
        let _ = sys.load(t, a, 0, &mut act);
        assert_eq!(sys.l15_state(t, a), Some(LineState::Exclusive));
        // A second reader demotes both to Shared for the new fill.
        let t2 = TileId::new(1);
        let _ = sys.load(t2, a, 100, &mut act);
        assert_eq!(sys.l15_state(t2, a), Some(LineState::Shared));
        assert!(sys.coherence_ok(a));
    }

    #[test]
    fn l2_misses_consume_dram_accesses() {
        let (mut sys, mut act) = system();
        let t = TileId::new(0);
        // Touch many distinct lines: each cold miss costs 2 DRAM accesses.
        for k in 0..10 {
            let _ = sys.load(t, 0x20_0000 + k * 64, k * 2000, &mut act);
        }
        assert_eq!(act.l2_misses, 10);
        assert_eq!(act.dram_accesses, 20);
        assert_eq!(act.offchip_requests, 10);
    }

    #[test]
    fn noc_traffic_flows_for_remote_requests() {
        let (mut sys, mut act) = system();
        let a = addr_homed_at(&sys, 24);
        let _ = sys.load(TileId::new(0), a, 0, &mut act);
        assert!(act.noc_packets >= 2); // request + response at minimum
        assert!(act.noc_flit_hops > 0);
    }

    #[test]
    fn slice_mapping_modes_differ() {
        let mut cfg = ChipConfig::piton();
        cfg.slice_mapping = SliceMapping::Mid;
        let sys_mid = MemorySystem::new(&cfg);
        let sys_low = MemorySystem::new(&ChipConfig::piton());
        // Adjacent lines map to different slices under Low but the same
        // slice under Mid (same 4 KB page).
        let a = 0x40_0000;
        assert_ne!(sys_low.home_slice(a), sys_low.home_slice(a + 64));
        assert_eq!(sys_mid.home_slice(a), sys_mid.home_slice(a + 64));
    }
}
