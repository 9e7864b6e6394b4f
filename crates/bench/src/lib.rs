//! Experiment harness for the `combar` reproduction: one module per
//! paper artifact, each returning structured results plus a rendered
//! table, all named by one registry ([`experiments::REGISTRY`]) that
//! the `experiments` binary and the snapshot tests iterate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod verify;

pub use table::Table;
