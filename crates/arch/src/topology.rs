//! The 5×5 2D-mesh tile topology and dimension-ordered routing geometry.
//!
//! Piton arranges 25 tiles in a 5×5 mesh interconnected by three physical
//! 64-bit networks-on-chip. Routing is dimension-ordered (X first, then
//! Y), wormhole, with a one-cycle-per-hop latency and an additional cycle
//! for turns (§II of the paper). The physical tile pitch — 1.14452 mm in X
//! and 1.053 mm in Y — sets the wire length each hop drives and therefore
//! the per-hop link energy studied in §IV-G.
//!
//! # Examples
//!
//! ```
//! use piton_arch::topology::{Mesh, TileId};
//!
//! let mesh = Mesh::piton();
//! // The paper's NoC study: tile0 -> tile1 is one hop, tile0 -> tile9 is
//! // five hops (4 in X would overflow the row; 4 east + 1 south).
//! assert_eq!(mesh.route(TileId::new(0), TileId::new(1)).hops, 1);
//! assert_eq!(mesh.route(TileId::new(0), TileId::new(9)).hops, 5);
//! ```

use std::fmt;

/// Identifier of a tile on the chip, in row-major order.
///
/// Tile 0 is the north-west corner and also hosts the chip-bridge
/// connection to the off-chip chipset.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(usize);

impl TileId {
    /// Creates a tile identifier.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        Self(index)
    }

    /// Returns the raw row-major index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tile{}", self.0)
    }
}

impl From<usize> for TileId {
    fn from(index: usize) -> Self {
        Self(index)
    }
}

/// An (x, y) mesh coordinate; x grows eastwards, y grows southwards.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coord {
    /// Column (0 = west edge).
    pub x: usize,
    /// Row (0 = north edge).
    pub y: usize,
}

impl Coord {
    /// Creates a coordinate.
    #[must_use]
    pub const fn new(x: usize, y: usize) -> Self {
        Self { x, y }
    }

    /// Manhattan distance to another coordinate.
    #[must_use]
    pub fn manhattan(self, other: Coord) -> usize {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Geometry of one dimension-ordered route through the mesh.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Number of router-to-router hops (Manhattan distance).
    pub hops: usize,
    /// Number of X hops before the turn.
    pub x_hops: usize,
    /// Number of Y hops after the turn.
    pub y_hops: usize,
    /// Whether the route turns from the X to the Y dimension.
    pub turns: bool,
}

impl Route {
    /// Router latency of this route in cycles: one cycle per hop plus one
    /// extra cycle if the route turns (§II).
    #[must_use]
    pub fn latency_cycles(self) -> u64 {
        self.hops as u64 + u64::from(self.turns)
    }

    /// Physical wire length of the route in millimetres given the tile
    /// pitch.
    #[must_use]
    pub fn wire_length_mm(self, pitch: TilePitch) -> f64 {
        self.x_hops as f64 * pitch.x_mm + self.y_hops as f64 * pitch.y_mm
    }
}

/// Physical center-to-center distance between adjacent tiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TilePitch {
    /// X-direction pitch in millimetres.
    pub x_mm: f64,
    /// Y-direction pitch in millimetres.
    pub y_mm: f64,
}

impl TilePitch {
    /// The measured Piton tile pitch from §IV-G: 1.14452 mm (X) by
    /// 1.053 mm (Y).
    pub const PITON: Self = Self {
        x_mm: 1.144_52,
        y_mm: 1.053,
    };
}

impl Default for TilePitch {
    fn default() -> Self {
        Self::PITON
    }
}

/// A rectangular 2D mesh of tiles with dimension-ordered (XY) routing.
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    width: usize,
    height: usize,
    pitch: TilePitch,
}

impl Mesh {
    /// Creates a mesh of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        Self {
            width,
            height,
            pitch: TilePitch::PITON,
        }
    }

    /// The 5×5 Piton mesh.
    #[must_use]
    pub fn piton() -> Self {
        Self::new(5, 5)
    }

    /// Mesh width (columns).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height (rows).
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of tiles.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.width * self.height
    }

    /// Physical tile pitch.
    #[must_use]
    pub fn pitch(&self) -> TilePitch {
        self.pitch
    }

    /// Maximum hop count between any two tiles (the mesh diameter); 8 for
    /// the 5×5 Piton mesh, matching the paper's NoC sweep limit.
    #[must_use]
    pub fn diameter(&self) -> usize {
        (self.width - 1) + (self.height - 1)
    }

    /// Converts a tile identifier to its mesh coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the tile index is out of range.
    #[must_use]
    pub fn coord(&self, tile: TileId) -> Coord {
        assert!(
            tile.index() < self.tile_count(),
            "tile index {} out of range for {}x{} mesh",
            tile.index(),
            self.width,
            self.height
        );
        Coord::new(tile.index() % self.width, tile.index() / self.width)
    }

    /// Converts a mesh coordinate to the tile identifier.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    #[must_use]
    pub fn tile_at(&self, coord: Coord) -> TileId {
        assert!(
            coord.x < self.width && coord.y < self.height,
            "coordinate {coord} outside {}x{} mesh",
            self.width,
            self.height
        );
        TileId::new(coord.y * self.width + coord.x)
    }

    /// Computes the dimension-ordered route between two tiles.
    #[must_use]
    pub fn route(&self, from: TileId, to: TileId) -> Route {
        let a = self.coord(from);
        let b = self.coord(to);
        let x_hops = a.x.abs_diff(b.x);
        let y_hops = a.y.abs_diff(b.y);
        Route {
            hops: x_hops + y_hops,
            x_hops,
            y_hops,
            turns: x_hops > 0 && y_hops > 0,
        }
    }

    /// Returns the tile one dimension-ordered step along the route from
    /// `from` towards `to`, or `None` when already there.
    #[must_use]
    pub fn next_hop(&self, from: TileId, to: TileId) -> Option<TileId> {
        let a = self.coord(from);
        let b = self.coord(to);
        if a == b {
            return None;
        }
        // Dimension-ordered: resolve X first, then Y.
        let next = if a.x != b.x {
            Coord::new(if a.x < b.x { a.x + 1 } else { a.x - 1 }, a.y)
        } else {
            Coord::new(a.x, if a.y < b.y { a.y + 1 } else { a.y - 1 })
        };
        Some(self.tile_at(next))
    }

    /// Iterates over all tile identifiers in row-major order.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> + '_ {
        (0..self.tile_count()).map(TileId::new)
    }

    /// Finds a tile exactly `hops` dimension-ordered hops from `from`,
    /// preferring to spend hops in the X dimension first (mirroring the
    /// paper's hop-count targets: tile1 = 1 hop, tile2 = 2 hops, tile9 = 5
    /// hops from tile0).
    ///
    /// Returns `None` when no tile is that far away.
    #[must_use]
    pub fn tile_at_distance(&self, from: TileId, hops: usize) -> Option<TileId> {
        let origin = self.coord(from);
        for y_extra in 0..self.height {
            let x_part = hops.checked_sub(y_extra)?;
            let x = origin.x + x_part;
            let y = origin.y + y_extra;
            if x < self.width && y < self.height {
                return Some(self.tile_at(Coord::new(x, y)));
            }
        }
        // Fall back to any tile at the right Manhattan distance.
        self.tiles()
            .find(|&t| self.route(from, t).hops == hops && t != from)
    }
}

impl Default for Mesh {
    fn default() -> Self {
        Self::piton()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_coords() {
        let mesh = Mesh::piton();
        assert_eq!(mesh.coord(TileId::new(0)), Coord::new(0, 0));
        assert_eq!(mesh.coord(TileId::new(4)), Coord::new(4, 0));
        assert_eq!(mesh.coord(TileId::new(5)), Coord::new(0, 1));
        assert_eq!(mesh.coord(TileId::new(24)), Coord::new(4, 4));
        assert_eq!(mesh.tile_at(Coord::new(4, 4)), TileId::new(24));
    }

    #[test]
    fn paper_hop_examples() {
        // §IV-G: "sending to tile1 represents one hop, tile2 represents
        // two hops, and tile9 represents five hops".
        let mesh = Mesh::piton();
        let from = TileId::new(0);
        assert_eq!(mesh.route(from, TileId::new(1)).hops, 1);
        assert_eq!(mesh.route(from, TileId::new(2)).hops, 2);
        assert_eq!(mesh.route(from, TileId::new(9)).hops, 5);
        assert_eq!(mesh.route(from, TileId::new(24)).hops, 8);
        assert_eq!(mesh.diameter(), 8);
    }

    #[test]
    fn turn_costs_extra_cycle() {
        let mesh = Mesh::piton();
        let straight = mesh.route(TileId::new(0), TileId::new(4));
        assert!(!straight.turns);
        assert_eq!(straight.latency_cycles(), 4);

        let turning = mesh.route(TileId::new(0), TileId::new(9));
        assert!(turning.turns);
        assert_eq!(turning.latency_cycles(), 6); // 5 hops + 1 turn
    }

    #[test]
    fn next_hop_walks_x_then_y() {
        let mesh = Mesh::piton();
        let mut at = TileId::new(0);
        let dest = TileId::new(12); // (2, 2)
        let mut path = Vec::new();
        while let Some(next) = mesh.next_hop(at, dest) {
            path.push(next);
            at = next;
        }
        assert_eq!(
            path,
            vec![
                TileId::new(1),
                TileId::new(2),
                TileId::new(7),
                TileId::new(12)
            ]
        );
    }

    #[test]
    fn tile_at_distance_covers_all_hops() {
        let mesh = Mesh::piton();
        for hops in 0..=8 {
            let t = mesh
                .tile_at_distance(TileId::new(0), hops)
                .expect("5x5 mesh has tiles at all distances 0..=8");
            assert_eq!(mesh.route(TileId::new(0), t).hops, hops);
        }
        assert_eq!(mesh.tile_at_distance(TileId::new(0), 9), None);
    }

    #[test]
    fn wire_length_uses_pitch() {
        let mesh = Mesh::piton();
        let route = mesh.route(TileId::new(0), TileId::new(9)); // 4 X + 1 Y
        let len = route.wire_length_mm(mesh.pitch());
        assert!((len - (4.0 * 1.144_52 + 1.053)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tile_panics() {
        let _ = Mesh::piton().coord(TileId::new(25));
    }

    #[test]
    fn display_formats() {
        assert_eq!(TileId::new(7).to_string(), "tile7");
        assert_eq!(Coord::new(1, 2).to_string(), "(1, 2)");
    }
}
