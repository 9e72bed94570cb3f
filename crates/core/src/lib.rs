//! The CIM-based TPU architecture model and simulator.
//!
//! This crate composes the substrates into the system the paper evaluates:
//!
//! - [`TpuConfig`] — Table I parameters (clock, MXU count and kind, VPU,
//!   VMEM/CMEM/HBM, ICI links) with presets for the **TPUv4i baseline**,
//!   the default **CIM-based TPU**, every **Table IV design point**, and
//!   the optimized **Design A** (LLM) / **Design B** (DiT);
//! - [`MatrixEngine`] — a digital systolic MXU or a CIM-MXU behind one
//!   interface, including the batched-attention path where the two
//!   architectures differ most (weight-FIFO streaming vs bit-serial
//!   broadcast with grid-row packing);
//! - the vector unit (online softmax, LayerNorm, tanh-GeLU), part of
//!   every [`TpuConfig`];
//! - [`Simulator`] — executes a [`Workload`](cimtpu_models::Workload)
//!   operator by operator through the mapping engine, overlapping compute
//!   with HBM/OCI DMA, and produces a [`Report`] with per-category latency
//!   and MXU energy (the Fig. 6 rows); [`Simulator::run_phased`] and
//!   [`Simulator::price_ops`] price phase segments into [`SegmentCost`]s
//!   (the substrate of the `cimtpu-serving` request-level simulator, which
//!   memoizes whole phases on top);
//! - [`inference`] — end-to-end LLM inference (prefill + integrated
//!   decode) and DiT forward passes used by the Fig. 7 exploration.
//!
//! # Examples
//!
//! ```
//! use cimtpu_core::{Simulator, TpuConfig};
//! use cimtpu_models::presets;
//!
//! let baseline = Simulator::new(TpuConfig::tpuv4i())?;
//! let cim = Simulator::new(TpuConfig::cim_base())?;
//!
//! let decode = presets::gpt3_30b().decode_layer(8, 1280)?;
//! let base_rep = baseline.run(&decode)?;
//! let cim_rep = cim.run(&decode)?;
//!
//! // The paper's headline decode results: CIM is faster and far more
//! // energy-efficient on the memory-bound decoding stage.
//! assert!(cim_rep.total_latency() < base_rep.total_latency());
//! assert!(cim_rep.mxu_energy().get() * 5.0 < base_rep.mxu_energy().get());
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod arch;
mod cache;
mod context;
mod engine;
mod exec;
pub mod inference;
pub mod memory;
#[cfg(test)]
mod proptests;
mod report;
pub mod roofline;
mod simulator;
pub mod timeline;
mod vpu;

pub use arch::{MxuKind, TpuConfig};
pub use cache::{CacheStats, MappingCache};
pub use context::{PhasedReport, SegmentCost, SegmentReport};
pub use engine::MatrixEngine;
pub use report::{CategoryRow, OpReport, Report};
pub use simulator::Simulator;
