//! Deterministic observability for the self-checking-memory engines.
//!
//! Three strictly separated layers (DESIGN.md §6):
//!
//! * [`event`] — **structured events on the simulated clock**
//!   (fault activation, first detection, scrub sweeps, SEU strikes,
//!   BIST sessions, spare commits, checkpoint writes/restores,
//!   guided-search rung prunes). Events are pure in
//!   `(seed, bank, fault, trial)`: a trace is bit-identical at any
//!   thread count, any lane width and under either executor — the same
//!   contract the result counters already honour. Engines build them
//!   from the same per-trial outcomes their results fold, and only when
//!   a trace is asked for.
//! * [`metrics`] — an **exact-integer registry**: named `u64` counters
//!   and exact integer-bucket histograms whose merge is associative and
//!   commutative, so partial results fold in any grouping.
//! * [`profile`] — a **wall-clock phase profiler**, explicitly
//!   nondeterministic, whose every output line carries the `profile:`
//!   prefix so fixtures and CI diffs can filter it.
//!
//! [`export`] renders traces as versioned text, re-parses them, and
//! exports human summaries, hand-rolled JSON and Chrome trace-event
//! JSON (loadable in `chrome://tracing` / Perfetto).

pub mod event;
pub mod export;
pub mod metrics;
pub mod profile;

pub use event::{sort_chronological, Event, EventKind, Verdict};
pub use export::{chrome_trace, parse_trace, trace_text, Trace};
pub use metrics::{Histogram, Metrics};
pub use profile::Profiler;
