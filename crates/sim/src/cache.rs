//! Set-associative cache tag arrays.
//!
//! All four cache levels of Piton (L1I, L1D, L1.5, L2 slice) share this
//! structure: a set-associative tag array with LRU replacement and a
//! MESI-compatible per-line state. Data values are *not* stored here —
//! the functional memory owns values — but tags, states and evictions are
//! modelled exactly, because hit/miss behaviour and write-back traffic
//! drive both latency and energy.
//!
//! # Examples
//!
//! ```
//! use piton_sim::cache::{LineState, SetAssocCache};
//! use piton_arch::config::CacheConfig;
//!
//! let mut l1d = SetAssocCache::new(CacheConfig::new(8 * 1024, 4, 16));
//! assert!(l1d.lookup(0x1000, 0).is_none());
//! l1d.insert(0x1000, LineState::Shared, 0);
//! assert_eq!(l1d.lookup(0x1000, 1), Some(LineState::Shared));
//! ```

use piton_arch::config::CacheConfig;

/// MESI state of a cache line.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LineState {
    /// Not present.
    #[default]
    Invalid,
    /// Clean, possibly shared with other caches.
    Shared,
    /// Clean, exclusive to this cache.
    Exclusive,
    /// Dirty, exclusive to this cache.
    Modified,
}

impl LineState {
    /// Whether the line holds valid data.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self != LineState::Invalid
    }

    /// Whether eviction of a line in this state requires a write-back.
    #[must_use]
    pub fn is_dirty(self) -> bool {
        self == LineState::Modified
    }
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line-aligned address of the victim.
    pub line_addr: u64,
    /// State the victim held (dirty victims need a write-back).
    pub state: LineState,
}

#[derive(Debug, Default, Clone, Copy)]
struct Way {
    tag: u64,
    state: LineState,
    last_used: u64,
}

/// A set-associative tag array with LRU replacement.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    line_shift: u32,
    set_count: u64,
    ways: Vec<Way>, // set-major: ways[set * assoc + way]
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let set_count = cfg.sets();
        let assoc = cfg.associativity as usize;
        Self {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_count,
            ways: vec![Way::default(); set_count as usize * assoc],
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Line-aligned address containing `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// Set index of `addr`.
    #[must_use]
    pub fn set_index(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) & (self.set_count - 1)
    }

    fn set_range(&self, addr: u64) -> std::ops::Range<usize> {
        let set = self.set_index(addr) as usize;
        let assoc = self.cfg.associativity as usize;
        set * assoc..(set + 1) * assoc
    }

    /// Probes for `addr`; on hit returns the line state and refreshes
    /// LRU.
    pub fn lookup(&mut self, addr: u64, now: u64) -> Option<LineState> {
        let tag = addr >> self.line_shift;
        let range = self.set_range(addr);
        let way = self.ways[range]
            .iter_mut()
            .find(|w| w.state.is_valid() && w.tag == tag)?;
        way.last_used = now;
        Some(way.state)
    }

    /// Probes for `addr` without touching LRU (a snoop).
    #[must_use]
    pub fn peek(&self, addr: u64) -> Option<LineState> {
        let tag = addr >> self.line_shift;
        self.ways[self.set_range(addr)]
            .iter()
            .find(|w| w.state.is_valid() && w.tag == tag)
            .map(|w| w.state)
    }

    /// Upgrades/downgrades the state of a resident line. Returns `false`
    /// if the line is not resident.
    pub fn set_state(&mut self, addr: u64, state: LineState) -> bool {
        let tag = addr >> self.line_shift;
        let range = self.set_range(addr);
        if let Some(way) = self.ways[range]
            .iter_mut()
            .find(|w| w.state.is_valid() && w.tag == tag)
        {
            way.state = state;
            true
        } else {
            false
        }
    }

    /// Fills `addr` with the given state, evicting the LRU way if the
    /// set is full. Returns the evicted line, if any. Filling a line
    /// already resident just updates its state.
    pub fn insert(&mut self, addr: u64, state: LineState, now: u64) -> Option<Evicted> {
        debug_assert!(state.is_valid(), "cannot insert an invalid line");
        let tag = addr >> self.line_shift;
        let range = self.set_range(addr);
        let set = &mut self.ways[range];

        // Already resident: refresh.
        if let Some(way) = set.iter_mut().find(|w| w.state.is_valid() && w.tag == tag) {
            way.state = state;
            way.last_used = now;
            return None;
        }

        // Free way?
        if let Some(way) = set.iter_mut().find(|w| !w.state.is_valid()) {
            *way = Way {
                tag,
                state,
                last_used: now,
            };
            return None;
        }

        // Evict LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|w| w.last_used)
            .expect("associativity >= 1");
        let evicted = Evicted {
            line_addr: victim.tag << self.line_shift,
            state: victim.state,
        };
        *victim = Way {
            tag,
            state,
            last_used: now,
        };
        Some(evicted)
    }

    /// Invalidates `addr` if resident; returns the prior state.
    pub fn invalidate(&mut self, addr: u64) -> Option<LineState> {
        let tag = addr >> self.line_shift;
        let range = self.set_range(addr);
        let way = self.ways[range]
            .iter_mut()
            .find(|w| w.state.is_valid() && w.tag == tag)?;
        let prior = way.state;
        way.state = LineState::Invalid;
        Some(prior)
    }

    /// Number of valid lines (diagnostics).
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.state.is_valid()).count()
    }

    /// Iterates over all valid line addresses and their states.
    pub fn iter_valid(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        let assoc = self.cfg.associativity;
        let shift = self.line_shift;
        let sets = self.set_count;
        self.ways.iter().enumerate().filter_map(move |(i, w)| {
            if w.state.is_valid() {
                let set = (i as u64) / assoc;
                // Reconstruct: tag holds addr >> line_shift; the set index
                // is embedded in the tag's low bits by construction.
                debug_assert_eq!(w.tag & (sets - 1), set);
                Some((w.tag << shift, w.state))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 16B lines = 64B.
        SetAssocCache::new(CacheConfig::new(64, 2, 16))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup(0x100, 0), None);
        assert_eq!(c.insert(0x100, LineState::Shared, 0), None);
        assert_eq!(c.lookup(0x100, 1), Some(LineState::Shared));
        assert_eq!(c.lookup(0x10f, 2), Some(LineState::Shared)); // same line
        assert_eq!(c.lookup(0x110, 3), None); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines aliasing to set 0 (line addr multiples of 32).
        c.insert(0x000, LineState::Shared, 0);
        c.insert(0x020, LineState::Shared, 1);
        // Touch 0x000 so 0x020 becomes LRU.
        c.lookup(0x000, 2);
        let ev = c.insert(0x040, LineState::Shared, 3).expect("must evict");
        assert_eq!(ev.line_addr, 0x020);
        assert_eq!(c.peek(0x000), Some(LineState::Shared));
        assert_eq!(c.peek(0x020), None);
    }

    #[test]
    fn dirty_eviction_reports_modified() {
        let mut c = tiny();
        c.insert(0x000, LineState::Modified, 0);
        c.insert(0x020, LineState::Shared, 1);
        let ev = c.insert(0x040, LineState::Shared, 2).unwrap();
        assert_eq!(ev.state, LineState::Modified);
        assert!(ev.state.is_dirty());
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(0x000, LineState::Shared, 0);
        assert_eq!(c.insert(0x000, LineState::Modified, 1), None);
        assert_eq!(c.peek(0x000), Some(LineState::Modified));
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn set_state_and_invalidate() {
        let mut c = tiny();
        c.insert(0x000, LineState::Exclusive, 0);
        assert!(c.set_state(0x000, LineState::Modified));
        assert!(!c.set_state(0x040, LineState::Shared));
        assert_eq!(c.invalidate(0x000), Some(LineState::Modified));
        assert_eq!(c.invalidate(0x000), None);
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn set_index_uses_line_bits() {
        let c = tiny();
        assert_eq!(c.set_index(0x00), 0);
        assert_eq!(c.set_index(0x10), 1);
        assert_eq!(c.set_index(0x20), 0);
        assert_eq!(c.line_addr(0x1f), 0x10);
    }

    #[test]
    fn piton_l1d_geometry() {
        let c = SetAssocCache::new(CacheConfig::new(8 * 1024, 4, 16));
        // 128 sets: addresses 2 KB apart alias to the same set.
        assert_eq!(c.set_index(0x0000), c.set_index(0x0800));
        assert_ne!(c.set_index(0x0000), c.set_index(0x0010));
    }

    #[test]
    fn iter_valid_reports_lines() {
        let mut c = tiny();
        c.insert(0x000, LineState::Shared, 0);
        c.insert(0x030, LineState::Modified, 1);
        let mut lines: Vec<_> = c.iter_valid().collect();
        lines.sort();
        assert_eq!(
            lines,
            vec![(0x000, LineState::Shared), (0x030, LineState::Modified)]
        );
    }
}
