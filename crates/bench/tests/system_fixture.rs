//! Byte-compatibility and thread-determinism fixture for `scm system`.
//!
//! The acceptance contract of the system layer: the recorded stdout is
//! reproduced **byte for byte** at 1, 2, 4 and 8 rayon threads. On any
//! mismatch the full stdout diff is printed (not just the first differing
//! character), so CI failures show exactly what drifted.

mod common;

use common::{assert_bytes_identical, run_scm};

const FIXTURE: &str = include_str!("fixtures/system.stdout");

fn run_system(extra: &[&str]) -> String {
    run_scm(&["system"], extra)
}

#[test]
fn system_stdout_matches_the_recorded_fixture() {
    assert_bytes_identical("scm system", &run_system(&[]), FIXTURE);
}

#[test]
fn system_stdout_is_byte_identical_across_1_2_4_8_threads() {
    for threads in ["1", "2", "4", "8"] {
        let out = run_system(&["--threads", threads]);
        assert_bytes_identical(&format!("scm system --threads {threads}"), &out, FIXTURE);
    }
}

#[test]
fn system_flags_change_the_campaign_deterministically() {
    let high = run_system(&["--interleave", "high-order"]);
    assert_ne!(high, FIXTURE, "interleaving must be observable");
    assert!(high.contains("high-order interleaving"));
    let unscrubbed = run_system(&["--scrub-period", "0"]);
    assert!(unscrubbed.contains("scrub bandwidth overhead: 0.00 %"));
    // Re-running any variant reproduces it byte for byte.
    assert_bytes_identical(
        "scm system --interleave high-order (rerun)",
        &run_system(&["--interleave", "high-order"]),
        &high,
    );
}
