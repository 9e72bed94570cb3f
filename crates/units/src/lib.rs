//! Physical quantities and shared primitive types for the `cimtpu` simulator.
//!
//! Every other crate in the workspace builds on the newtypes defined here:
//! [`Cycles`], [`Seconds`], [`Joules`], [`Watts`], [`Bytes`], [`Bandwidth`],
//! [`Frequency`], [`Area`], the [`DataType`] enum describing operand
//! precisions, the shared [`Error`] type, and in [`spec`] the tokens the
//! CLI spec grammars share (durations, windows, bands, factors, byte
//! sizes). Two std-only process utilities sit here too, so every crate
//! above can share them: the [`pool`] of worker threads behind every
//! parallel fan-out, and the [`Stdout`] handle every binary prints
//! through.
//!
//! Newtypes are used instead of bare `f64`/`u64` so that, e.g., a latency in
//! cycles can never be accidentally added to a latency in seconds without an
//! explicit conversion through a [`Frequency`] (C-NEWTYPE).
//!
//! # Examples
//!
//! ```
//! use cimtpu_units::{Cycles, Frequency, Bytes, Bandwidth};
//!
//! let clk = Frequency::from_ghz(1.05);
//! let t = Cycles::new(2_100_000).at(clk);
//! assert!((t.as_millis() - 2.0).abs() < 1e-9);
//!
//! let dma = Bandwidth::from_gb_per_s(614.0).transfer_time(Bytes::from_mib(614));
//! assert!(dma.as_millis() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod datatype;
mod error;
pub mod pool;
mod quantity;
mod shape;
pub mod spec;
mod stdout;

pub use datatype::DataType;
pub use error::{Error, Result};
pub use quantity::{Area, Bandwidth, Bytes, Cycles, Energy, Frequency, Joules, Seconds, Watts};
pub use shape::GemmShape;
pub use spec::parse_time;
pub use stdout::Stdout;
