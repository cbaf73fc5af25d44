//! Byte-compatibility fixture for `scm campaign --trace`.
//!
//! The observability acceptance contract: the recorded trace (header,
//! event order, every payload field) is reproduced **byte for byte** at
//! 1, 2, 4 and 8 rayon threads — and so is the report above it. The
//! trace is derived from the slab executor's per-lane outcomes in
//! canonical order — pure in `(seed, fault, trial)`, which the memory
//! crate's trace proptest holds to the behavioural oracle at lane widths
//! 1, 17, 64 and 512 — so any drift here means an emitter, the
//! seeding, or the assembly order changed, and the fixture must be
//! regenerated deliberately:
//!
//! ```text
//! cargo run --release -p scm-bench --bin scm -- \
//!     campaign --fault-model mix --scrub-period 4 --trials 1 --cycles 6 --trace \
//!     > crates/bench/tests/fixtures/campaign_trace.stdout
//! ```

mod common;

use common::{assert_bytes_identical, run_scm};

const FIXTURE: &str = include_str!("fixtures/campaign_trace.stdout");

fn run_campaign(extra: &[&str]) -> String {
    let args = [
        "campaign",
        "--fault-model",
        "mix",
        "--scrub-period",
        "4",
        "--trials",
        "1",
        "--cycles",
        "6",
        "--trace",
    ];
    run_scm(&args, extra)
}

#[test]
fn campaign_trace_matches_the_recorded_fixture() {
    assert_bytes_identical("scm campaign --trace", &run_campaign(&[]), FIXTURE);
}

#[test]
fn campaign_trace_fixture_is_thread_count_invariant() {
    for threads in ["1", "2", "4", "8"] {
        assert_bytes_identical(
            &format!("scm campaign --trace --threads {threads}"),
            &run_campaign(&["--threads", threads]),
            FIXTURE,
        );
    }
}
