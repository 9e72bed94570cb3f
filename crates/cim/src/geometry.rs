//! Geometry of the CIM core and the CIM-MXU grid.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Error, Result};

/// One digital SRAM CIM macro ("CIM core" in the paper, Fig. 4).
///
/// The default geometry follows Table I / Fig. 4: a 128×256 bitcell array
/// (128 input channels × 256 output channels) organized as 32 banks; each
/// bank serves 8 local output columns through a local readout-and-compute
/// circuit, an adder tree and a shift-accumulator. Inputs are broadcast
/// **bit-serially**: one input bit-plane is applied per cycle to one group
/// of `column_group` (8) output columns.
///
/// Sustained throughput at 8-bit precision is therefore
/// `rows × column_group / 8bits × 8bits = rows` MACs per cycle — 128 for the
/// default core, matching the paper's "128 MAC operations are performed each
/// cycle within each CIM core".
///
/// # Examples
///
/// ```
/// use cimtpu_cim::CimCoreConfig;
/// let core = CimCoreConfig::paper_default();
/// assert_eq!((core.rows(), core.cols()), (128, 256));
/// assert_eq!(core.macs_per_cycle(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CimCoreConfig {
    rows: u64,
    cols: u64,
    banks: u64,
    column_group: u64,
    /// Bytes per cycle the dedicated weight I/O port can write.
    weight_io_bytes_per_cycle: u64,
    /// Input bits applied serially for one 8-bit operand.
    bit_serial_bits: u32,
}

impl CimCoreConfig {
    /// The paper's 128×256 core.
    pub fn paper_default() -> Self {
        CimCoreConfig {
            rows: 128,
            cols: 256,
            banks: 32,
            column_group: 8,
            weight_io_bytes_per_cycle: 32,
            bit_serial_bits: 8,
        }
    }

    /// Number of input channels (bitcell rows).
    pub const fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of output channels (bitcell columns).
    pub const fn cols(&self) -> u64 {
        self.cols
    }

    /// Weight-port write bandwidth in bytes per cycle.
    pub(crate) const fn weight_io_bytes_per_cycle(&self) -> u64 {
        self.weight_io_bytes_per_cycle
    }

    /// Serial input bits per 8-bit operand pass.
    pub const fn bit_serial_bits(&self) -> u32 {
        self.bit_serial_bits
    }

    /// Overrides the bit-serial width (for ablations; 4 halves the wave
    /// latency at the cost of two passes for 8-bit operands — the caller
    /// models that trade-off).
    #[must_use]
    pub fn with_bit_serial_bits(mut self, bits: u32) -> Self {
        self.bit_serial_bits = bits;
        self
    }

    /// Sustained 8-bit MACs per cycle.
    ///
    /// All `rows` operate in parallel on one `column_group` of output
    /// columns; a full operand takes `bit_serial_bits` serial cycles, so
    /// `rows × column_group` MACs complete every `bit_serial_bits` cycles.
    pub const fn macs_per_cycle(&self) -> u64 {
        self.rows * self.column_group / self.bit_serial_bits as u64
    }

    /// Cycles for this core to apply one input vector to `n_used` of its
    /// output columns at `bits` serial bits.
    pub fn vector_cycles(&self, n_used: u64, bits: u32) -> u64 {
        let n = n_used.min(self.cols).max(1);
        n.div_ceil(self.column_group) * bits as u64
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero dimensions, a column group
    /// that does not divide the column count, or unsupported bit widths.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.rows == 0 || self.cols == 0 || self.banks == 0 || self.column_group == 0 {
            return Err(Error::invalid_config(
                "CIM core dimensions must be non-zero",
            ));
        }
        if !self.cols.is_multiple_of(self.column_group) {
            return Err(Error::invalid_config(format!(
                "column group {} must divide column count {}",
                self.column_group, self.cols
            )));
        }
        if self.weight_io_bytes_per_cycle == 0 {
            return Err(Error::invalid_config(
                "weight I/O bandwidth must be non-zero",
            ));
        }
        if !matches!(self.bit_serial_bits, 1 | 2 | 4 | 8 | 16) {
            return Err(Error::invalid_config(format!(
                "unsupported bit-serial width {}",
                self.bit_serial_bits
            )));
        }
        Ok(())
    }
}

impl Default for CimCoreConfig {
    fn default() -> Self {
        CimCoreConfig::paper_default()
    }
}

/// A CIM-MXU: a `grid_rows × grid_cols` systolic grid of CIM cores.
///
/// Grid **rows** extend the contraction dimension (K); partial sums are
/// accumulated down the rows. Grid **columns** extend the output-channel
/// dimension (N); the input vector propagates systolically across columns.
/// Table IV explores `8×8`, `16×8` and `16×16` grids.
///
/// # Examples
///
/// ```
/// use cimtpu_cim::CimMxuConfig;
/// let mxu = CimMxuConfig::paper_default();
/// assert_eq!(mxu.core_count(), 128);
/// assert_eq!(mxu.k_extent(), 2048);
/// assert_eq!(mxu.n_extent(), 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CimMxuConfig {
    grid_rows: u64,
    grid_cols: u64,
    core: CimCoreConfig,
    /// Whether weight updates overlap with computation (simultaneous MAC +
    /// weight write through the dedicated weight port).
    overlap_weight_update: bool,
    /// Cycles for the input vector to hop between adjacent grid columns.
    input_hop_cycles: u64,
    /// Pipeline latency of the inter-core partial-sum accumulation per grid row.
    psum_hop_cycles: u64,
    /// Bytes per cycle the MXU-level weight distribution bus can deliver
    /// from VMEM into the grid (all cores share this ingest path, exactly
    /// as a 128-wide systolic array ingests one 128-byte weight row per
    /// cycle). Per-core ports bound the *in-array* write rate; this bus
    /// bounds the *delivery* rate.
    weight_ingest_bytes_per_cycle: u64,
}

impl CimMxuConfig {
    /// The paper's default 16×8 grid of 128×256 cores (Table I).
    pub fn paper_default() -> Self {
        CimMxuConfig::with_grid(16, 8)
    }

    /// A grid of the default cores with the given dimensions.
    ///
    /// Grid dimensions are written `rows×cols` as in Table IV
    /// (`8×8`, `16×8`, `16×16`).
    pub fn with_grid(grid_rows: u64, grid_cols: u64) -> Self {
        let core = CimCoreConfig::paper_default();
        CimMxuConfig {
            grid_rows,
            grid_cols,
            core,
            overlap_weight_update: true,
            // One 128-element INT8 vector at 4 bytes (32 bits) per cycle.
            input_hop_cycles: core.rows() / 4,
            psum_hop_cycles: 4,
            // Same delivery width as the baseline systolic array's weight
            // path (one 128-byte row per cycle).
            weight_ingest_bytes_per_cycle: 128,
        }
    }

    /// Grid rows (contraction dimension).
    pub const fn grid_rows(&self) -> u64 {
        self.grid_rows
    }

    /// Grid columns (output-channel dimension).
    pub const fn grid_cols(&self) -> u64 {
        self.grid_cols
    }

    /// The per-core configuration.
    pub const fn core(&self) -> &CimCoreConfig {
        &self.core
    }

    /// Total CIM cores in the grid.
    pub const fn core_count(&self) -> u64 {
        self.grid_rows * self.grid_cols
    }

    /// Contraction extent covered by one weight residency (rows × core rows).
    pub const fn k_extent(&self) -> u64 {
        self.grid_rows * self.core.rows()
    }

    /// Output-channel extent covered by one weight residency.
    pub const fn n_extent(&self) -> u64 {
        self.grid_cols * self.core.cols()
    }

    /// Peak MAC throughput of the grid.
    pub const fn peak_macs_per_cycle(&self) -> u64 {
        self.core_count() * self.core.macs_per_cycle()
    }

    /// Whether weight updates overlap with compute.
    pub const fn overlap_weight_update(&self) -> bool {
        self.overlap_weight_update
    }

    /// Input-vector hop latency between grid columns.
    pub const fn input_hop_cycles(&self) -> u64 {
        self.input_hop_cycles
    }

    /// Partial-sum hop latency between grid rows.
    pub const fn psum_hop_cycles(&self) -> u64 {
        self.psum_hop_cycles
    }

    /// Overrides the weight-delivery bus width (for ablations).
    #[must_use]
    pub fn with_weight_ingest_bytes_per_cycle(mut self, bytes: u64) -> Self {
        self.weight_ingest_bytes_per_cycle = bytes;
        self
    }

    /// Cycles to deliver and write `bytes` of weights into the grid: the
    /// maximum of the delivery-bus time and the per-core port time
    /// (`per_core_bytes` through each core's own port in parallel).
    pub fn weight_write_cycles(&self, bytes: u64, per_core_bytes: u64) -> u64 {
        let bus = bytes.div_ceil(self.weight_ingest_bytes_per_cycle);
        let port = per_core_bytes.div_ceil(self.core.weight_io_bytes_per_cycle());
        bus.max(port)
    }

    /// Replaces the per-core configuration.
    #[must_use]
    pub fn with_core(mut self, core: CimCoreConfig) -> Self {
        self.core = core;
        self
    }

    /// Enables or disables simultaneous MAC + weight update (the
    /// "weight-update overlap" row of the `ablations` report section).
    #[must_use]
    pub fn with_overlap_weight_update(mut self, enabled: bool) -> Self {
        self.overlap_weight_update = enabled;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the grid is empty or the core
    /// configuration is invalid.
    pub fn validate(&self) -> Result<()> {
        if self.grid_rows == 0 || self.grid_cols == 0 {
            return Err(Error::invalid_config(
                "CIM grid dimensions must be non-zero",
            ));
        }
        if self.weight_ingest_bytes_per_cycle == 0 {
            return Err(Error::invalid_config(
                "weight ingest bandwidth must be non-zero",
            ));
        }
        self.core.validate()
    }
}

impl Default for CimMxuConfig {
    fn default() -> Self {
        CimMxuConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_core_throughput_is_128() {
        assert_eq!(CimCoreConfig::paper_default().macs_per_cycle(), 128);
    }

    #[test]
    fn paper_grid_matches_table1() {
        let mxu = CimMxuConfig::paper_default();
        assert_eq!((mxu.grid_rows(), mxu.grid_cols()), (16, 8));
        assert_eq!(mxu.peak_macs_per_cycle(), 16384);
    }

    #[test]
    fn table4_grids_scale_peak() {
        assert_eq!(CimMxuConfig::with_grid(8, 8).peak_macs_per_cycle(), 8192);
        assert_eq!(CimMxuConfig::with_grid(16, 16).peak_macs_per_cycle(), 32768);
    }

    #[test]
    fn vector_cycles_full_and_partial() {
        let core = CimCoreConfig::paper_default();
        // Full 256 columns at 8 bits: 32 groups * 8 = 256 cycles.
        assert_eq!(core.vector_cycles(256, 8), 256);
        // 160 columns: 20 groups * 8 = 160 cycles.
        assert_eq!(core.vector_cycles(160, 8), 160);
        // Clamped to the physical column count.
        assert_eq!(core.vector_cycles(10_000, 8), 256);
        // At 4 serial bits the wave halves.
        assert_eq!(core.vector_cycles(256, 4), 128);
    }

    #[test]
    fn weight_update_cycles() {
        // Rewriting one core: 128*256 bytes through its 32 B/cycle port =
        // 1024 cycles; the 128 B/cycle delivery bus is not the bottleneck.
        let mxu = CimMxuConfig::paper_default();
        let core_bytes = 128 * 256;
        assert_eq!(mxu.weight_write_cycles(core_bytes, core_bytes), 1024);
        assert_eq!(
            mxu.weight_write_cycles(2 * core_bytes, 2 * core_bytes),
            2048
        );
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut core = CimCoreConfig::paper_default();
        core = core.with_bit_serial_bits(3);
        assert!(core.validate().is_err());
        assert!(CimMxuConfig::with_grid(0, 8).validate().is_err());
    }
}
