//! The ICI ring topology and its collective cost models.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Bandwidth, Bytes, Error, Result, Seconds};

/// Per-hop software/serialization latency of an ICI transfer.
const HOP_LATENCY_US: f64 = 1.0;

/// A ring of TPU chips connected over their ICI links.
///
/// Each TPUv4i chip has two 100 GB/s ICI links, so a ring uses both —
/// one to each neighbour — which is the paper's default multi-chip
/// configuration ("4 TPUs interconnected in a ring topology to fully
/// utilize the two ICI links on each TPU chip").
///
/// # Examples
///
/// ```
/// use cimtpu_multi::RingTopology;
/// use cimtpu_units::{Bandwidth, Bytes};
///
/// let ring = RingTopology::new(4, 2, Bandwidth::from_gb_per_s(100.0))?;
/// let t = ring.all_reduce_time(Bytes::from_mib(1));
/// assert!(t.get() > 0.0);
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RingTopology {
    devices: u64,
    links_per_chip: u64,
    link_bandwidth: Bandwidth,
}

impl RingTopology {
    /// Creates a ring of `devices` chips.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero devices/links or rings
    /// larger than the two links per chip can form (more than 2 links are
    /// accepted but unused by the ring).
    pub fn new(devices: u64, links_per_chip: u64, link_bandwidth: Bandwidth) -> Result<Self> {
        if devices == 0 {
            return Err(Error::invalid_config("ring needs at least one device"));
        }
        if links_per_chip == 0 {
            return Err(Error::invalid_config("chips need at least one ICI link"));
        }
        Ok(RingTopology {
            devices,
            links_per_chip,
            link_bandwidth,
        })
    }

    /// Number of chips in the ring.
    pub(crate) fn devices(&self) -> u64 {
        self.devices
    }

    fn hop_latency(&self) -> Seconds {
        Seconds::from_micros(HOP_LATENCY_US)
    }

    /// Time for a ring all-reduce of `bytes` (per-device payload).
    ///
    /// Standard ring cost: `2·(p−1)/p · bytes / link_bw` plus per-step hop
    /// latency, using both directions of the ring (both links).
    pub fn all_reduce_time(&self, bytes: Bytes) -> Seconds {
        let p = self.devices;
        if p == 1 {
            return Seconds::ZERO;
        }
        let effective_bw = self.link_bandwidth * self.links_per_chip.min(2) as f64;
        let volume = 2.0 * (p - 1) as f64 / p as f64 * bytes.get() as f64;
        Seconds::new(volume / effective_bw.get()) + self.hop_latency() * (2 * (p - 1)) as f64
    }

    /// Time to send `bytes` to the ring neighbour (one link).
    pub(crate) fn p2p_time(&self, bytes: Bytes) -> Seconds {
        if self.devices == 1 {
            return Seconds::ZERO;
        }
        self.link_bandwidth.transfer_time(bytes) + self.hop_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(p: u64) -> RingTopology {
        RingTopology::new(p, 2, Bandwidth::from_gb_per_s(100.0)).unwrap()
    }

    #[test]
    fn single_device_collectives_are_free() {
        assert_eq!(ring(1).all_reduce_time(Bytes::from_mib(64)), Seconds::ZERO);
        assert_eq!(ring(1).p2p_time(Bytes::from_mib(64)), Seconds::ZERO);
    }

    #[test]
    fn all_reduce_cost_follows_ring_formula() {
        // 4 devices, 200 GB/s effective: 2*(3/4)*bytes/bw + 6 hops.
        let bytes = Bytes::new(400_000_000);
        let t = ring(4).all_reduce_time(bytes);
        let expected = 2.0 * 0.75 * 400e6 / 200e9 + 6.0e-6;
        assert!((t.get() - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn bigger_rings_cost_more_per_byte() {
        let bytes = Bytes::from_mib(64);
        assert!(ring(4).all_reduce_time(bytes) > ring(2).all_reduce_time(bytes));
    }

    #[test]
    fn zero_devices_rejected() {
        assert!(RingTopology::new(0, 2, Bandwidth::from_gb_per_s(100.0)).is_err());
        assert!(RingTopology::new(4, 0, Bandwidth::from_gb_per_s(100.0)).is_err());
    }
}
