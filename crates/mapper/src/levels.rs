//! The TPU memory hierarchy as seen by the mapping engine.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Bandwidth, Bytes, Seconds};

/// Capacities and bandwidths of the two-level on-chip hierarchy plus HBM.
///
/// Defaults follow Table I: 16 MB VMEM, 128 MB CMEM, 614 GB/s main-memory
/// bandwidth. The OCI (on-chip interconnect) moves tiles between CMEM and
/// VMEM; **memory coalescing** raises the achievable fraction of its raw
/// bandwidth, and **double buffering** lets DMA overlap compute — the two
/// scheduling options from Section III-C.
///
/// # Examples
///
/// ```
/// use cimtpu_mapper::MemoryLevels;
/// use cimtpu_units::Bytes;
/// let levels = MemoryLevels::tpuv4i();
/// assert_eq!(levels.vmem(), Bytes::from_mib(16));
/// assert!(levels.double_buffering());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryLevels {
    vmem: Bytes,
    cmem: Bytes,
    hbm_bandwidth: Bandwidth,
    oci_bandwidth: Bandwidth,
    double_buffering: bool,
    memory_coalescing: bool,
}

impl MemoryLevels {
    /// Fraction of raw bandwidth achieved with coalesced accesses.
    const COALESCED_EFFICIENCY: f64 = 0.95;
    /// Fraction achieved with naive strided accesses.
    const UNCOALESCED_EFFICIENCY: f64 = 0.60;

    /// The TPUv4i hierarchy (Table I).
    pub fn tpuv4i() -> Self {
        MemoryLevels {
            vmem: Bytes::from_mib(16),
            cmem: Bytes::from_mib(128),
            hbm_bandwidth: Bandwidth::from_gb_per_s(614.0),
            // OCI sized so CMEM can feed the 4 MXUs: ~2 TB/s aggregate.
            oci_bandwidth: Bandwidth::from_gb_per_s(2048.0),
            double_buffering: true,
            memory_coalescing: true,
        }
    }

    /// Vector-memory capacity.
    pub fn vmem(&self) -> Bytes {
        self.vmem
    }

    /// Common-memory capacity.
    pub fn cmem(&self) -> Bytes {
        self.cmem
    }

    /// Raw main-memory bandwidth.
    pub fn hbm_bandwidth(&self) -> Bandwidth {
        self.hbm_bandwidth
    }

    /// Raw on-chip interconnect bandwidth.
    pub fn oci_bandwidth(&self) -> Bandwidth {
        self.oci_bandwidth
    }

    /// Whether DMA overlaps compute.
    pub fn double_buffering(&self) -> bool {
        self.double_buffering
    }

    /// Overrides VMEM capacity.
    #[must_use]
    pub fn with_vmem(mut self, vmem: Bytes) -> Self {
        self.vmem = vmem;
        self
    }

    /// Overrides CMEM capacity.
    #[must_use]
    pub fn with_cmem(mut self, cmem: Bytes) -> Self {
        self.cmem = cmem;
        self
    }

    /// Overrides HBM bandwidth.
    #[must_use]
    pub fn with_hbm_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.hbm_bandwidth = bw;
        self
    }

    /// Overrides OCI bandwidth.
    #[must_use]
    pub fn with_oci_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.oci_bandwidth = bw;
        self
    }

    /// Enables or disables double buffering.
    #[must_use]
    pub fn with_double_buffering(mut self, enabled: bool) -> Self {
        self.double_buffering = enabled;
        self
    }

    /// Enables or disables memory coalescing.
    #[must_use]
    pub fn with_memory_coalescing(mut self, enabled: bool) -> Self {
        self.memory_coalescing = enabled;
        self
    }

    fn efficiency(&self) -> f64 {
        if self.memory_coalescing {
            Self::COALESCED_EFFICIENCY
        } else {
            Self::UNCOALESCED_EFFICIENCY
        }
    }

    /// Effective time to stream `bytes` from main memory.
    pub fn hbm_time(&self, bytes: Bytes) -> Seconds {
        (self.hbm_bandwidth * self.efficiency()).transfer_time(bytes)
    }

    /// Effective time to move `bytes` between CMEM and VMEM.
    pub(crate) fn oci_time(&self, bytes: Bytes) -> Seconds {
        (self.oci_bandwidth * self.efficiency()).transfer_time(bytes)
    }

    /// The VMEM working-set budget for one tile.
    ///
    /// Double buffering halves the usable capacity (two tiles in flight).
    pub fn vmem_tile_budget(&self) -> Bytes {
        if self.double_buffering {
            Bytes::new(self.vmem.get() / 2)
        } else {
            self.vmem
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpuv4i_matches_table1() {
        let l = MemoryLevels::tpuv4i();
        assert_eq!(l.vmem(), Bytes::from_mib(16));
        assert_eq!(l.cmem(), Bytes::from_mib(128));
        assert!((l.hbm_bandwidth().as_gb_per_s() - 614.0).abs() < 1e-9);
    }

    #[test]
    fn coalescing_speeds_up_dma() {
        let on = MemoryLevels::tpuv4i();
        let off = MemoryLevels::tpuv4i().with_memory_coalescing(false);
        let b = Bytes::from_mib(64);
        assert!(on.hbm_time(b) < off.hbm_time(b));
        assert!(on.oci_time(b) < off.oci_time(b));
    }

    #[test]
    fn double_buffering_halves_budget() {
        let on = MemoryLevels::tpuv4i();
        let off = MemoryLevels::tpuv4i().with_double_buffering(false);
        assert_eq!(
            on.vmem_tile_budget().get() * 2,
            off.vmem_tile_budget().get()
        );
    }
}
