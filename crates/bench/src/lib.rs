//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment is a plain function returning structured results so it
//! can be driven two ways: the `--bin` reproduction binaries (printing
//! the same rows/series the paper reports) and the tests. See DESIGN.md
//! §4 for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod experiments;
pub mod sweep;
pub mod table;
