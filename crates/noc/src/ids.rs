//! Typed identifiers for network entities.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A processing node (there are `racks × nodes_per_rack` of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a container index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A rack's communication router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RouterId(pub u32);

impl RouterId {
    /// The id as a container index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The id as a container index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A router port index. Ports `0..nodes_per_rack` are the local
/// injection/ejection ports; the following four are North, South, East,
/// West (paper Fig. 4(b): ports 0–7 local, 8–11 inter-router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PortId(pub u8);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A virtual-channel index within a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VcId(pub u8);

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc{}", self.0)
    }
}

/// A packet's unique identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt{}", self.0)
    }
}

/// A mesh direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Towards smaller `y`.
    North,
    /// Towards larger `y`.
    South,
    /// Towards larger `x`.
    East,
    /// Towards smaller `x`.
    West,
}

impl Direction {
    /// All four directions in port order (N, S, E, W).
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// The opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }

    /// Index of this direction within [`Direction::ALL`].
    pub fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::South => 1,
            Direction::East => 2,
            Direction::West => 3,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::South => "S",
            Direction::East => "E",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

/// A rack's (x, y) position in the 2-D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RackCoord {
    /// Column, `0..width`.
    pub x: u8,
    /// Row, `0..height`.
    pub y: u8,
}

impl RackCoord {
    /// Creates a coordinate.
    pub fn new(x: u8, y: u8) -> Self {
        RackCoord { x, y }
    }

    /// The neighboring coordinate in `dir`, if it stays within a
    /// `width × height` mesh.
    pub fn neighbor(self, dir: Direction, width: u8, height: u8) -> Option<RackCoord> {
        match dir {
            Direction::North => (self.y > 0).then(|| RackCoord::new(self.x, self.y - 1)),
            Direction::South => (self.y + 1 < height).then(|| RackCoord::new(self.x, self.y + 1)),
            Direction::East => (self.x + 1 < width).then(|| RackCoord::new(self.x + 1, self.y)),
            Direction::West => (self.x > 0).then(|| RackCoord::new(self.x - 1, self.y)),
        }
    }

    /// Manhattan distance to another coordinate.
    pub fn manhattan(self, other: RackCoord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

impl fmt::Display for RackCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
        assert_eq!(Direction::North.opposite(), Direction::South);
        assert_eq!(Direction::East.opposite(), Direction::West);
    }

    #[test]
    fn direction_indices_cover_all() {
        for (i, d) in Direction::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn neighbors_respect_mesh_edges() {
        let c = RackCoord::new(0, 0);
        assert_eq!(c.neighbor(Direction::North, 8, 8), None);
        assert_eq!(c.neighbor(Direction::West, 8, 8), None);
        assert_eq!(
            c.neighbor(Direction::South, 8, 8),
            Some(RackCoord::new(0, 1))
        );
        assert_eq!(
            c.neighbor(Direction::East, 8, 8),
            Some(RackCoord::new(1, 0))
        );
        let corner = RackCoord::new(7, 7);
        assert_eq!(corner.neighbor(Direction::South, 8, 8), None);
        assert_eq!(corner.neighbor(Direction::East, 8, 8), None);
    }

    #[test]
    fn manhattan_distance() {
        let a = RackCoord::new(1, 2);
        let b = RackCoord::new(4, 0);
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(b.manhattan(a), 5);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn displays() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(RouterId(4).to_string(), "r4");
        assert_eq!(LinkId(5).to_string(), "l5");
        assert_eq!(PortId(6).to_string(), "p6");
        assert_eq!(VcId(0).to_string(), "vc0");
        assert_eq!(PacketId(9).to_string(), "pkt9");
        assert_eq!(Direction::West.to_string(), "W");
        assert_eq!(RackCoord::new(3, 5).to_string(), "(3,5)");
    }
}
