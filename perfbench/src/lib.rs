//! End-to-end and per-layer benchmark of the self-checking-memory
//! engines: four workloads driven through the library entry points the
//! `scm` subcommands call. See `README.md` beside this crate.

pub mod bench;
pub mod calibrate;
pub mod digest;
pub mod layers;
pub mod record;
pub mod stats;
pub mod workload;
