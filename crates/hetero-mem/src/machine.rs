//! A whole machine: the set of heterogeneous memory nodes with frame
//! accounting, as seen by the VMM.

use std::fmt;

use crate::frames::{FramePool, Mfn, OutOfFrames};
use crate::kind::{MemKind, NodeId};
use crate::node::NodeParams;
use crate::throttle::ThrottleConfig;

/// Default page size (4 KiB), matching the paper's x86 testbed.
pub const PAGE_SIZE: u64 = 4096;

struct Node {
    id: NodeId,
    params: NodeParams,
    pool: FramePool,
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("kind", &self.params.kind)
            .field("free", &self.pool.free_frames())
            .finish()
    }
}

/// The machine's heterogeneous memory: one node per configured tier.
///
/// Construct with [`MachineMemory::builder`]. Frames are allocated per tier;
/// the VMM layers per-guest reservations on top.
///
/// # Examples
///
/// ```
/// use hetero_mem::{MachineMemory, MemKind, ThrottleConfig};
///
/// let mut machine = MachineMemory::builder()
///     .fast_mem(1 << 30, ThrottleConfig::fast_mem())
///     .slow_mem(8 << 30, ThrottleConfig::slow_mem_default())
///     .page_size(4096)
///     .build();
/// let mfn = machine.alloc_frame(MemKind::Fast)?;
/// machine.free_frame(MemKind::Fast, mfn);
/// # Ok::<(), hetero_mem::frames::OutOfFrames>(())
/// ```
#[derive(Debug)]
pub struct MachineMemory {
    nodes: Vec<Node>,
    page_size: u64,
}

impl MachineMemory {
    /// Starts building a machine.
    pub fn builder() -> MachineMemoryBuilder {
        MachineMemoryBuilder::default()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    fn node(&self, kind: MemKind) -> Option<&Node> {
        self.nodes.iter().find(|n| n.params.kind == kind)
    }

    fn node_mut(&mut self, kind: MemKind) -> Option<&mut Node> {
        self.nodes.iter_mut().find(|n| n.params.kind == kind)
    }

    /// Node identifier for a tier, if configured.
    pub fn node_id(&self, kind: MemKind) -> Option<NodeId> {
        self.node(kind).map(|n| n.id)
    }

    /// Timing parameters for a tier, if configured.
    pub fn node_params(&self, kind: MemKind) -> Option<&NodeParams> {
        self.node(kind).map(|n| &n.params)
    }

    /// Configured tiers, fastest first.
    pub fn kinds(&self) -> Vec<MemKind> {
        let mut ks: Vec<MemKind> = self.nodes.iter().map(|n| n.params.kind).collect();
        ks.sort();
        ks
    }

    /// Total capacity of a tier in bytes (0 when not configured).
    pub fn capacity_bytes(&self, kind: MemKind) -> u64 {
        self.node(kind).map_or(0, |n| n.params.capacity_bytes)
    }

    /// Total frames of a tier.
    pub fn total_frames(&self, kind: MemKind) -> u64 {
        self.node(kind).map_or(0, |n| n.pool.total_frames())
    }

    /// Free frames of a tier.
    pub fn free_frames(&self, kind: MemKind) -> u64 {
        self.node(kind).map_or(0, |n| n.pool.free_frames())
    }

    /// Allocates one frame from a tier.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when the tier is exhausted or not configured.
    pub fn alloc_frame(&mut self, kind: MemKind) -> Result<Mfn, OutOfFrames> {
        match self.node_mut(kind) {
            Some(n) => n.pool.alloc(),
            None => Err(OutOfFrames {
                requested: 1,
                available: 0,
            }),
        }
    }

    /// Allocates `n` frames from a tier, all or nothing.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when fewer than `n` frames are free.
    pub fn alloc_frames(&mut self, kind: MemKind, n: u64) -> Result<Vec<Mfn>, OutOfFrames> {
        match self.node_mut(kind) {
            Some(node) => node.pool.alloc_many(n),
            None => Err(OutOfFrames {
                requested: n,
                available: 0,
            }),
        }
    }

    /// Returns a frame to its tier.
    ///
    /// # Panics
    ///
    /// Panics if the tier is not configured or the frame does not belong to
    /// it (see [`FramePool::free`]).
    pub fn free_frame(&mut self, kind: MemKind, mfn: Mfn) {
        self.node_mut(kind)
            .unwrap_or_else(|| panic!("no {kind} node configured"))
            .pool
            .free(mfn);
    }

    /// Returns many frames to a tier.
    ///
    /// # Panics
    ///
    /// As for [`MachineMemory::free_frame`].
    pub fn free_frames_bulk(&mut self, kind: MemKind, mfns: impl IntoIterator<Item = Mfn>) {
        let node = self
            .node_mut(kind)
            .unwrap_or_else(|| panic!("no {kind} node configured"));
        node.pool.free_many(mfns);
    }
}

/// Builder for [`MachineMemory`].
#[derive(Debug, Default)]
pub struct MachineMemoryBuilder {
    tiers: Vec<(MemKind, u64, ThrottleConfig)>,
    page_size: Option<u64>,
}

impl MachineMemoryBuilder {
    /// Adds a FastMem tier of `capacity_bytes`.
    pub fn fast_mem(mut self, capacity_bytes: u64, throttle: ThrottleConfig) -> Self {
        self.tiers.push((MemKind::Fast, capacity_bytes, throttle));
        self
    }

    /// Adds a MediumMem tier (for the §4.3 multi-level extension).
    pub fn medium_mem(mut self, capacity_bytes: u64, throttle: ThrottleConfig) -> Self {
        self.tiers.push((MemKind::Medium, capacity_bytes, throttle));
        self
    }

    /// Adds a SlowMem tier of `capacity_bytes`.
    pub fn slow_mem(mut self, capacity_bytes: u64, throttle: ThrottleConfig) -> Self {
        self.tiers.push((MemKind::Slow, capacity_bytes, throttle));
        self
    }

    /// Overrides the page size (default [`PAGE_SIZE`]).
    pub fn page_size(mut self, bytes: u64) -> Self {
        self.page_size = Some(bytes);
        self
    }

    /// Finalises the machine.
    ///
    /// # Panics
    ///
    /// Panics if no tiers were configured, a tier is duplicated, the page
    /// size is zero, or a tier's capacity is smaller than one page.
    pub fn build(self) -> MachineMemory {
        assert!(!self.tiers.is_empty(), "machine needs at least one tier");
        let page_size = self.page_size.unwrap_or(PAGE_SIZE);
        assert!(page_size > 0, "page size must be non-zero");
        let mut tiers = self.tiers;
        tiers.sort_by_key(|(k, _, _)| *k);
        let mut nodes = Vec::new();
        let mut base = 0u64;
        for (i, (kind, cap, throttle)) in tiers.into_iter().enumerate() {
            assert!(
                nodes.iter().all(|n: &Node| n.params.kind != kind),
                "duplicate {kind} tier"
            );
            let params = NodeParams::new(kind, cap, throttle);
            let frames = cap / page_size;
            assert!(frames > 0, "{kind} capacity smaller than one page");
            nodes.push(Node {
                id: NodeId(i as u32),
                params,
                pool: FramePool::new(base, frames),
            });
            base += frames;
        }
        MachineMemory { nodes, page_size }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tier() -> MachineMemory {
        MachineMemory::builder()
            .fast_mem(1 << 20, ThrottleConfig::fast_mem())
            .slow_mem(4 << 20, ThrottleConfig::slow_mem_default())
            .build()
    }

    #[test]
    fn builder_assigns_node_ids_fastest_first() {
        let m = MachineMemory::builder()
            .slow_mem(4 << 20, ThrottleConfig::slow_mem_default())
            .fast_mem(1 << 20, ThrottleConfig::fast_mem())
            .build();
        assert_eq!(m.node_id(MemKind::Fast), Some(NodeId(0)));
        assert_eq!(m.node_id(MemKind::Slow), Some(NodeId(1)));
        assert_eq!(m.kinds(), vec![MemKind::Fast, MemKind::Slow]);
    }

    #[test]
    fn capacities_and_frames() {
        let m = two_tier();
        assert_eq!(m.capacity_bytes(MemKind::Fast), 1 << 20);
        assert_eq!(m.total_frames(MemKind::Fast), (1 << 20) / PAGE_SIZE);
        assert_eq!(m.capacity_bytes(MemKind::Medium), 0);
        assert_eq!(m.free_frames(MemKind::Medium), 0);
    }

    #[test]
    fn alloc_and_free_track_counts() {
        let mut m = two_tier();
        let total = m.total_frames(MemKind::Fast);
        let a = m.alloc_frame(MemKind::Fast).unwrap();
        assert_eq!(m.free_frames(MemKind::Fast), total - 1);
        m.free_frame(MemKind::Fast, a);
        assert_eq!(m.free_frames(MemKind::Fast), total);
    }

    #[test]
    fn frames_of_different_tiers_do_not_collide() {
        let mut m = two_tier();
        let f = m.alloc_frame(MemKind::Fast).unwrap();
        let s = m.alloc_frame(MemKind::Slow).unwrap();
        assert_ne!(f, s);
    }

    #[test]
    fn unconfigured_tier_alloc_errors() {
        let mut m = two_tier();
        assert!(m.alloc_frame(MemKind::Medium).is_err());
        assert!(m.alloc_frames(MemKind::Medium, 3).is_err());
    }

    #[test]
    fn bulk_alloc_is_all_or_nothing() {
        let mut m = two_tier();
        let total = m.total_frames(MemKind::Fast);
        assert!(m.alloc_frames(MemKind::Fast, total + 1).is_err());
        assert_eq!(m.free_frames(MemKind::Fast), total);
        let v = m.alloc_frames(MemKind::Fast, total).unwrap();
        assert_eq!(m.free_frames(MemKind::Fast), 0);
        m.free_frames_bulk(MemKind::Fast, v);
        assert_eq!(m.free_frames(MemKind::Fast), total);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_tier_rejected() {
        MachineMemory::builder()
            .fast_mem(1 << 20, ThrottleConfig::fast_mem())
            .fast_mem(1 << 20, ThrottleConfig::fast_mem())
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_machine_rejected() {
        MachineMemory::builder().build();
    }

    #[test]
    #[should_panic(expected = "smaller than one page")]
    fn sub_page_capacity_rejected() {
        MachineMemory::builder()
            .fast_mem(1024, ThrottleConfig::fast_mem())
            .page_size(4096)
            .build();
    }
}
