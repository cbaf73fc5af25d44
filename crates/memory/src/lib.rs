//! Self-checking RAM assembly and cycle-level fault-injection simulator.
//!
//! This crate realises the full design of the paper's Figure 3 as an
//! executable model:
//!
//! * a cell array of `2^p` rows × `(m+1)·2^s` physical columns (the `+1`
//!   column group stores the data-path parity bit),
//! * behavioural row and column decoders whose fault behaviour is exactly
//!   the gate-level model of `scm-decoder` (the equivalence is proven by
//!   that crate's exhaustive tests and revisited by integration tests here),
//! * the two NOR-matrix ROMs of `scm-rom` observing the decoder lines,
//! * code membership checks standing in for the `q`-out-of-`r` checkers and
//!   the data-path parity checker,
//! * single-fault injection at every site class: memory cells, decoder
//!   lines, ROM bits and columns, data-register bits,
//! * a cycle engine that runs an injected design against a fault-free twin
//!   on a common workload and measures **detection latency** — the cycle of
//!   first error vs the cycle of first detection,
//! * Monte-Carlo campaigns ([`campaign`]) producing empirical `Pndc`
//!   estimates to validate the analytical engine and the paper's bounds,
//!   executed by a deterministic parallel [`engine`] over pluggable
//!   behavioural/gate-level [`backend`]s,
//! * a self-checking **ROM** variant ([`rom_memory`]) realising the paper's
//!   closing claim that the trade-off carries to other memory types.
//!
//! # Example
//!
//! ```
//! use scm_memory::design::{SelfCheckingRam, RamConfig};
//! use scm_memory::fault::FaultSite;
//! use scm_area::RamOrganization;
//! use scm_codes::{MOutOfN, selection::{select_code, LatencyBudget, SelectionPolicy}};
//!
//! // A 1K×16 RAM protected for c = 10 cycles at Pndc ≤ 1e-9.
//! let plan = select_code(
//!     LatencyBudget::new(10, 1e-9)?,
//!     SelectionPolicy::WorstBlockExact,
//! )?;
//! let config = RamConfig::from_plan(RamOrganization::with_mux8(1024, 16), &plan)?;
//! let mut ram = SelfCheckingRam::new(config);
//! ram.write(0x2A, 0xBEEF);
//! let out = ram.read(0x2A);
//! assert_eq!(out.data, 0xBEEF);
//! assert!(!out.verdict.any_error());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address_check;
pub mod arena;
pub mod array;
pub mod backend;
pub mod campaign;
pub mod decoder_unit;
pub mod design;
pub mod engine;
pub mod fault;
pub mod grid;
pub mod report;
pub mod rom_memory;
pub mod scrub;
pub mod sim;
pub mod sliced;
pub mod workload;

pub use arena::{OpStreamArena, ReplayOps, ARENA_OP_BUDGET};
pub use backend::{BehavioralBackend, CycleObservation, FaultSimBackend, GateLevelBackend};
pub use campaign::{CampaignConfig, CampaignResult, FaultResult};
pub use design::{RamConfig, ReadOutcome, SelfCheckingRam, Verdict};
pub use engine::{CampaignEngine, LaneOccupancy};
pub use fault::FaultSite;
pub use grid::DEFAULT_SERIAL_THRESHOLD;
pub use sim::{measure_detection, measure_detection_on, DetectionOutcome, PackedOutcome};
pub use sliced::{
    measure_detection_sliced, slab_words, LaneSet, SlicedBackend, SlicedObservation,
    MAX_SLAB_LANES, MAX_SLAB_WORDS,
};
pub use workload::{
    builtin_models, model_by_name, AddressPattern, Op, OpSource, OpStream, Workload, WorkloadModel,
    WorkloadSpec, MODEL_NAMES,
};
