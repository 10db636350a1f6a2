//! Memory-node timing parameters and the bandwidth-dilation model.

use hetero_sim::Nanos;

use crate::kind::MemKind;
use crate::throttle::ThrottleConfig;

/// Store-latency multiplier for NVM-like slow tiers (Table 1: PCM stores
/// cost 2×–4× its loads). The *throttling* emulation of §2.1 is symmetric,
/// so [`NodeParams::new`] uses factor 1; [`NodeParams::nvm_like`] applies
/// this asymmetry for technology studies.
///
/// Kept as an integer so the latency path multiplies `Nanos` exactly: a
/// float factor would have to round through `mul_f64`, and the old
/// `NVM_STORE_FACTOR as u64` cast would silently truncate any non-integral
/// calibration (e.g. 2.5 → 2) where the two paths disagree.
pub const NVM_STORE_FACTOR: u64 = 2;

/// Resolved timing parameters of one memory node.
///
/// # Examples
///
/// ```
/// use hetero_mem::{MemKind, NodeParams, ThrottleConfig};
/// use hetero_sim::Nanos;
///
/// let slow = NodeParams::new(MemKind::Slow, 8 << 30, ThrottleConfig::slow_mem_default());
/// // Demanding twice the node's bandwidth doubles effective latency.
/// let relaxed = slow.effective_load_latency(slow.bandwidth_gbps * 0.5);
/// let saturated = slow.effective_load_latency(slow.bandwidth_gbps * 2.0);
/// assert_eq!(relaxed, slow.load_latency);
/// assert_eq!(saturated, slow.load_latency.saturating_mul(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeParams {
    /// Which tier this node belongs to.
    pub kind: MemKind,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Uncontended load (read) latency.
    pub load_latency: Nanos,
    /// Uncontended store (write) latency.
    pub store_latency: Nanos,
    /// Sustainable read bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Sustainable write bandwidth in GB/s. Equal to `bandwidth_gbps`
    /// for the symmetric throttling emulation of §2.1; device profiles
    /// like Optane DC set it lower (writes sustain ~a third of reads).
    pub write_bandwidth_gbps: f64,
}

impl NodeParams {
    /// Resolves node parameters from a throttle configuration.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn new(kind: MemKind, capacity_bytes: u64, throttle: ThrottleConfig) -> Self {
        assert!(capacity_bytes > 0, "memory node must have capacity");
        NodeParams {
            kind,
            capacity_bytes,
            load_latency: throttle.latency,
            store_latency: throttle.latency,
            bandwidth_gbps: throttle.bandwidth_gbps,
            write_bandwidth_gbps: throttle.bandwidth_gbps,
        }
    }

    /// Like [`NodeParams::new`] but with the PCM store asymmetry of
    /// Table 1 applied ([`NVM_STORE_FACTOR`]).
    pub fn nvm_like(kind: MemKind, capacity_bytes: u64, throttle: ThrottleConfig) -> Self {
        let mut p = Self::new(kind, capacity_bytes, throttle);
        p.store_latency = p.store_latency.saturating_mul(NVM_STORE_FACTOR);
        p
    }

    /// Effective load latency under a given bandwidth demand (GB/s).
    ///
    /// When demand exceeds the node's sustainable bandwidth, latency dilates
    /// proportionally (an M/D/1-flavoured approximation that reproduces the
    /// paper's observation that only bandwidth-saturating workloads — the
    /// batch graph engines — are sensitive to `B:y`, §2.2 Observation 1).
    pub fn effective_load_latency(&self, demand_gbps: f64) -> Nanos {
        self.load_latency.mul_f64(self.dilation(demand_gbps))
    }

    /// Effective store latency under a given bandwidth demand (GB/s).
    pub fn effective_store_latency(&self, demand_gbps: f64) -> Nanos {
        self.store_latency.mul_f64(self.dilation(demand_gbps))
    }

    fn dilation(&self, demand_gbps: f64) -> f64 {
        if demand_gbps <= 0.0 || self.bandwidth_gbps <= 0.0 {
            return 1.0;
        }
        (demand_gbps / self.bandwidth_gbps).max(1.0)
    }

    /// Capacity expressed in pages of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn capacity_pages(&self, page_size: u64) -> u64 {
        assert!(page_size > 0, "page size must be non-zero");
        self.capacity_bytes / page_size
    }
}

hetero_sim::impl_snap!(struct NodeParams {
    kind, capacity_bytes, load_latency, store_latency, bandwidth_gbps,
    write_bandwidth_gbps
});

#[cfg(test)]
mod tests {
    use super::*;

    fn slow() -> NodeParams {
        NodeParams::new(MemKind::Slow, 8 << 30, ThrottleConfig::slow_mem_default())
    }

    fn fast() -> NodeParams {
        NodeParams::new(MemKind::Fast, 4 << 30, ThrottleConfig::fast_mem())
    }

    #[test]
    fn throttled_nodes_are_store_symmetric() {
        // §2.1's DRAM-throttling emulation affects loads and stores alike.
        let n = slow();
        assert_eq!(n.store_latency, n.load_latency);
        let f = fast();
        assert_eq!(f.store_latency, f.load_latency);
    }

    #[test]
    fn throttled_nodes_have_symmetric_bandwidth() {
        // Read/write bandwidth only split for measured device profiles;
        // the throttling constructors must stay exactly symmetric so the
        // roofline's legacy single-rail path keeps producing the same
        // bytes.
        for n in [slow(), fast()] {
            assert_eq!(n.write_bandwidth_gbps, n.bandwidth_gbps);
        }
        let nv = NodeParams::nvm_like(MemKind::Slow, 1 << 30, ThrottleConfig::slow_mem_default());
        assert_eq!(nv.write_bandwidth_gbps, nv.bandwidth_gbps);
    }

    #[test]
    fn nvm_like_nodes_have_store_asymmetry() {
        let n = NodeParams::nvm_like(MemKind::Slow, 1 << 30, ThrottleConfig::slow_mem_default());
        assert_eq!(
            n.store_latency,
            n.load_latency.saturating_mul(NVM_STORE_FACTOR)
        );
    }

    #[test]
    fn nvm_slow_tier_store_latency_is_pinned() {
        // The paper's main SlowMem point (L:5, B:9) resolves to a 700 ns
        // load; the PCM store asymmetry doubles it exactly. This pins the
        // integer latency path — a lossy float→int conversion anywhere in
        // it would shift these values.
        let n = NodeParams::nvm_like(MemKind::Slow, 1 << 30, ThrottleConfig::slow_mem_default());
        assert_eq!(n.load_latency, Nanos::from_nanos(700));
        assert_eq!(n.store_latency, Nanos::from_nanos(1_400));
        // And the Table 3 (L:5, B:12) anchor: 960 ns load → 1920 ns store.
        let a = NodeParams::nvm_like(
            MemKind::Slow,
            1 << 30,
            ThrottleConfig::from_factors(5.0, 12.0),
        );
        assert_eq!(a.store_latency, Nanos::from_nanos(1_920));
    }

    #[test]
    fn under_subscribed_bandwidth_is_free() {
        let n = fast();
        assert_eq!(n.effective_load_latency(0.0), n.load_latency);
        assert_eq!(n.effective_load_latency(n.bandwidth_gbps), n.load_latency);
    }

    #[test]
    fn oversubscription_dilates_proportionally() {
        let n = slow();
        let lat3 = n.effective_load_latency(n.bandwidth_gbps * 3.0);
        assert_eq!(lat3, n.load_latency.saturating_mul(3));
        let st2 = n.effective_store_latency(n.bandwidth_gbps * 2.0);
        assert_eq!(st2, n.store_latency.saturating_mul(2));
    }

    #[test]
    fn capacity_pages_divides() {
        let n = fast();
        assert_eq!(n.capacity_pages(4096), (4u64 << 30) / 4096);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        NodeParams::new(MemKind::Fast, 0, ThrottleConfig::fast_mem());
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn zero_page_size_rejected() {
        fast().capacity_pages(0);
    }
}
