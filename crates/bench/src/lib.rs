//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment in [`experiments`] is a plain function returning
//! structured results, so it can be driven three ways: the sections of
//! [`repro`] (printing the same rows and series the paper reports, which
//! the `repro_all` binary renders), `export_results` (the same results as
//! JSON) and the tests. A crate-private sweep driver fans the
//! experiments' design points over the worker pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod data;
pub mod experiments;
pub mod repro;
mod sweep;
mod table;
