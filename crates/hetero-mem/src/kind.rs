//! Memory tiers and node identifiers.

use std::fmt;

/// A memory tier, ordered fastest-first.
///
/// The paper's core design is two-tier (FastMem/SlowMem, §2.1); `Medium`
/// exists for the §4.3 multi-level extension (FastMem → MediumMem → SlowMem
/// demotion) and is unused by the two-tier experiments.
///
/// # Examples
///
/// ```
/// use hetero_mem::MemKind;
///
/// assert!(MemKind::Fast.is_faster_than(MemKind::Slow));
/// assert_eq!(MemKind::Fast.next_slower(), Some(MemKind::Medium));
/// assert_eq!(MemKind::Slow.next_slower(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemKind {
    /// High-bandwidth, low-latency, capacity-limited tier (3D-DRAM-like).
    Fast,
    /// Intermediate tier (conventional DRAM in a three-tier setup).
    Medium,
    /// High-capacity, high-latency, low-bandwidth tier (NVM/PCM-like).
    Slow,
}

impl MemKind {
    /// All kinds, fastest first.
    pub const ALL: [MemKind; 3] = [MemKind::Fast, MemKind::Medium, MemKind::Slow];

    /// Tier rank: 0 is fastest.
    #[inline]
    pub const fn tier(self) -> u8 {
        match self {
            MemKind::Fast => 0,
            MemKind::Medium => 1,
            MemKind::Slow => 2,
        }
    }

    /// The kind of tier rank `tier`, or `None` past the slowest: the
    /// inverse of [`MemKind::tier`], which is also the kind's snapshot tag.
    #[inline]
    pub const fn from_tier(tier: u8) -> Option<MemKind> {
        match tier {
            0 => Some(MemKind::Fast),
            1 => Some(MemKind::Medium),
            2 => Some(MemKind::Slow),
            _ => None,
        }
    }

    /// True if `self` is a strictly faster tier than `other`.
    #[inline]
    pub const fn is_faster_than(self, other: MemKind) -> bool {
        self.tier() < other.tier()
    }

    /// The next slower tier, or `None` for the slowest.
    #[inline]
    pub const fn next_slower(self) -> Option<MemKind> {
        match self {
            MemKind::Fast => Some(MemKind::Medium),
            MemKind::Medium => Some(MemKind::Slow),
            MemKind::Slow => None,
        }
    }

    /// The next faster tier, or `None` for the fastest.
    #[inline]
    pub const fn next_faster(self) -> Option<MemKind> {
        match self {
            MemKind::Fast => None,
            MemKind::Medium => Some(MemKind::Fast),
            MemKind::Slow => Some(MemKind::Medium),
        }
    }
}

impl fmt::Display for MemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemKind::Fast => "FastMem",
            MemKind::Medium => "MediumMem",
            MemKind::Slow => "SlowMem",
        };
        f.write_str(s)
    }
}

/// Identifier of a memory node within a [`crate::MachineMemory`].
///
/// Mirrors the NUMA-node abstraction HeteroOS re-uses at the guest level
/// (Principle 1, §3): each memory type is exposed as one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A tiny map from [`MemKind`] to values, used pervasively for per-tier
/// accounting.
///
/// # Examples
///
/// ```
/// use hetero_mem::kind::KindMap;
/// use hetero_mem::MemKind;
///
/// let mut m: KindMap<u64> = KindMap::default();
/// m[MemKind::Fast] += 3;
/// assert_eq!(m[MemKind::Fast], 3);
/// assert_eq!(m.total(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindMap<T> {
    values: [T; 3],
}

impl<T> KindMap<T> {
    /// Builds a map by evaluating `f` for every kind.
    pub fn from_fn(mut f: impl FnMut(MemKind) -> T) -> Self {
        KindMap {
            values: [f(MemKind::Fast), f(MemKind::Medium), f(MemKind::Slow)],
        }
    }

    /// Iterates `(kind, &value)` fastest-first.
    pub fn iter(&self) -> impl Iterator<Item = (MemKind, &T)> {
        MemKind::ALL.iter().map(move |&k| (k, &self.values[k.tier() as usize]))
    }
}

impl<T: Copy + core::iter::Sum> KindMap<T> {
    /// Sum of all values.
    pub fn total(&self) -> T {
        self.values.iter().copied().sum()
    }
}

impl<T> std::ops::Index<MemKind> for KindMap<T> {
    type Output = T;
    #[inline]
    fn index(&self, k: MemKind) -> &T {
        &self.values[k.tier() as usize]
    }
}

impl<T> std::ops::IndexMut<MemKind> for KindMap<T> {
    #[inline]
    fn index_mut(&mut self, k: MemKind) -> &mut T {
        &mut self.values[k.tier() as usize]
    }
}

/// A kind travels as its tier rank.
impl hetero_sim::snap::Snap for MemKind {
    #[inline]
    fn snap(&self, w: &mut hetero_sim::snap::SnapWriter) {
        w.put_u8(self.tier());
    }
    #[inline]
    fn unsnap(
        r: &mut hetero_sim::snap::SnapReader<'_>,
    ) -> Result<Self, hetero_sim::snap::SnapshotError> {
        let tag = r.take_u8()?;
        MemKind::from_tier(tag)
            .ok_or_else(|| hetero_sim::snap::SnapshotError::bad_tag("MemKind", tag))
    }
}

impl hetero_sim::snap::Snap for NodeId {
    fn snap(&self, w: &mut hetero_sim::snap::SnapWriter) {
        w.put_u32(self.0);
    }
    fn unsnap(
        r: &mut hetero_sim::snap::SnapReader<'_>,
    ) -> Result<Self, hetero_sim::snap::SnapshotError> {
        Ok(NodeId(r.take_u32()?))
    }
}

impl<T: hetero_sim::snap::Snap> hetero_sim::snap::Snap for KindMap<T> {
    fn snap(&self, w: &mut hetero_sim::snap::SnapWriter) {
        self.values.snap(w);
    }
    fn unsnap(
        r: &mut hetero_sim::snap::SnapReader<'_>,
    ) -> Result<Self, hetero_sim::snap::SnapshotError> {
        Ok(KindMap {
            values: hetero_sim::snap::Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_ordering() {
        assert!(MemKind::Fast.is_faster_than(MemKind::Medium));
        assert!(MemKind::Medium.is_faster_than(MemKind::Slow));
        assert!(!MemKind::Slow.is_faster_than(MemKind::Fast));
        assert!(!MemKind::Fast.is_faster_than(MemKind::Fast));
    }

    #[test]
    fn tier_walk_is_consistent() {
        for k in MemKind::ALL {
            if let Some(slower) = k.next_slower() {
                assert_eq!(slower.next_faster(), Some(k));
            }
            if let Some(faster) = k.next_faster() {
                assert_eq!(faster.next_slower(), Some(k));
            }
            assert_eq!(MemKind::from_tier(k.tier()), Some(k));
        }
        assert_eq!(MemKind::from_tier(3), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(MemKind::Fast.to_string(), "FastMem");
        assert_eq!(MemKind::Slow.to_string(), "SlowMem");
        assert_eq!(NodeId(3).to_string(), "node3");
    }

    #[test]
    fn kind_map_indexing() {
        let mut m: KindMap<u32> = KindMap::default();
        m[MemKind::Slow] = 7;
        m[MemKind::Fast] = 1;
        assert_eq!(m[MemKind::Slow], 7);
        assert_eq!(m[MemKind::Medium], 0);
        assert_eq!(m.total(), 8);
    }

    #[test]
    fn kind_map_from_fn_and_iter() {
        let m = KindMap::from_fn(|k| k.tier() as u64 * 10);
        let collected: Vec<_> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(
            collected,
            vec![
                (MemKind::Fast, 0),
                (MemKind::Medium, 10),
                (MemKind::Slow, 20)
            ]
        );
    }
}
