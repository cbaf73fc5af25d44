//! # Sharded multi-bank memory system runtime
//!
//! The paper evaluates its area-versus-detection-latency trade-off one
//! memory at a time. A production system is many banks behind an address
//! interleaver, with background scrubs and checkpoints competing with
//! mission traffic for cycles. This crate composes the existing
//! `scm_memory` fault-simulation backends into that system and measures
//! the quantities only the *system* view exposes:
//!
//! * [`MemorySystem`] — N banks (heterogeneous geometry/code allowed)
//!   behind an [`Interleaver`], each bank a prefilled behavioural
//!   backend;
//! * [`SystemClock`] — the discrete-event merge of mission traffic and
//!   scrub reads, one operation per system cycle, with
//!   [`CheckpointSchedule`] anchoring Aupy-style lost-work accounting;
//! * [`SystemCampaign`] — the parallel `bank × fault × trial` campaign,
//!   bit-identical at every thread count (traffic seeds pure in
//!   `(seed, bank, fault, trial)`, prefill seeds pure in `(seed, bank)`);
//! * [`system_report`] — the byte-stable rendering behind `scm system`;
//! * [`DiagPolicy`] / [`DiagCampaign`] — March-BIST diagnosis sessions
//!   scheduled on the same clock (stealing slots like scrubs, but in
//!   session-length bursts), with spare repair and time-to-repair /
//!   lost-work accounting ([`diag`]).
//!
//! Detection latency is measured on the **global clock**: a bank starved
//! of traffic by the interleaving (or left unscrubbed) detects late even
//! when its code is strong — the joint effect of detection latency and
//! recovery-interval policy that Aupy et al. show must be co-optimised.
//!
//! ```
//! use scm_system::{Interleaving, SystemCampaign, SystemConfig};
//! use scm_memory::campaign::CampaignConfig;
//! use scm_memory::design::RamConfig;
//! use scm_area::RamOrganization;
//! use scm_codes::{CodewordMap, MOutOfN};
//!
//! let org = RamOrganization::new(64, 8, 4);
//! let code = MOutOfN::new(3, 5)?;
//! let bank = RamConfig::new(
//!     org,
//!     CodewordMap::mod_a(code, 9, org.rows())?,
//!     CodewordMap::mod_a(code, 9, 4)?,
//! );
//! let system = SystemConfig::homogeneous(bank, 4, Interleaving::LowOrder)
//!     .scrubbed(4)
//!     .checkpointed(32);
//! let campaign = CampaignConfig { cycles: 200, trials: 4, seed: 7, write_fraction: 0.1 };
//! let engine = SystemCampaign::new(system, campaign);
//! let universe = engine.decoder_universe(8);
//! let result = engine.run(&universe);
//! assert!(result.detected_fraction() > 0.0);
//! # Ok::<(), scm_codes::CodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod diag;
pub mod engine;
pub mod interleave;
pub mod report;
pub mod seu;
pub mod system;

pub use clock::{CheckpointSchedule, ScrubSchedule, SystemClock, SystemEvent};
pub use diag::{DiagCampaign, DiagFaultResult, DiagPolicy, DiagSystemResult};
pub use engine::{BankSummary, SystemCampaign, SystemFault, SystemFaultResult, SystemResult};
pub use interleave::{Interleaver, Interleaving};
pub use report::system_report;
pub use scm_memory::grid::DEFAULT_SERIAL_THRESHOLD;
pub use seu::SeuProcess;
pub use system::{seed_mix, MemorySystem, ServiceSummary, SystemConfig};
