//! The result of mapping one GEMM onto the hardware.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Bytes, GemmShape, Seconds};

/// A chosen tiling with its cost breakdown.
///
/// Produced by [`Mapper::best_gemm_mapping`](crate::Mapper::best_gemm_mapping).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    shape: GemmShape,
    tile: GemmShape,
    tiles: u64,
    compute: Seconds,
    dma: Seconds,
    total: Seconds,
    hbm_bytes: Bytes,
}

impl Mapping {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        shape: GemmShape,
        tile: GemmShape,
        tiles: u64,
        compute: Seconds,
        dma: Seconds,
        total: Seconds,
        hbm_bytes: Bytes,
    ) -> Self {
        Mapping {
            shape,
            tile,
            tiles,
            compute,
            dma,
            total,
            hbm_bytes,
        }
    }

    /// The full GEMM being mapped.
    pub fn shape(&self) -> GemmShape {
        self.shape
    }

    /// The chosen buffer-level tile.
    pub fn tile(&self) -> GemmShape {
        self.tile
    }

    /// Number of tiles executed.
    pub fn tiles(&self) -> u64 {
        self.tiles
    }

    /// Aggregate engine-compute time across tiles (no overlap applied).
    pub fn compute(&self) -> Seconds {
        self.compute
    }

    /// Aggregate DMA time across tiles (no overlap applied).
    pub fn dma(&self) -> Seconds {
        self.dma
    }

    /// Scheduled end-to-end latency with overlap applied.
    pub fn total(&self) -> Seconds {
        self.total
    }

    /// Unique bytes streamed from main memory.
    pub fn hbm_bytes(&self) -> Bytes {
        self.hbm_bytes
    }

    /// Whether the schedule is limited by DMA rather than compute.
    pub fn is_memory_bound(&self) -> bool {
        self.dma > self.compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_bound_classification() {
        let shape = GemmShape::new(1, 2, 3).unwrap();
        let m = Mapping::new(
            shape,
            shape,
            1,
            Seconds::new(1.0),
            Seconds::new(2.0),
            Seconds::new(2.0),
            Bytes::new(6),
        );
        assert!(m.is_memory_bound());
    }
}
