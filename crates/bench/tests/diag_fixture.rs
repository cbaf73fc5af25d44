//! Byte-compatibility and thread-determinism fixture for `scm diag`.
//!
//! The acceptance contract of the diagnosis layer: the recorded stdout —
//! dictionary shape, per-class detect→localize→repair table, the worked
//! single-cell-fault walkthrough (detected → localized to an ambiguity
//! set containing the true site → repaired onto a spare → zero mission
//! escapes), the spare/BIST area bill and the system-scheduled BIST view
//! — is reproduced **byte for byte** at 1, 2, 4 and 8 rayon threads. On
//! any mismatch the full stdout diff is printed.

mod common;

use common::{assert_bytes_identical, run_scm};

const FIXTURE: &str = include_str!("fixtures/diag.stdout");

fn run_diag(extra: &[&str]) -> String {
    run_scm(&["diag"], extra)
}

#[test]
fn diag_stdout_matches_the_recorded_fixture() {
    assert_bytes_identical("scm diag", &run_diag(&[]), FIXTURE);
}

#[test]
fn diag_stdout_is_byte_identical_across_1_2_4_8_threads() {
    for threads in ["1", "2", "4", "8"] {
        let out = run_diag(&["--threads", threads]);
        assert_bytes_identical(&format!("scm diag --threads {threads}"), &out, FIXTURE);
    }
}

#[test]
fn recorded_walkthrough_shows_the_full_repair_story() {
    // The acceptance walk, asserted on the fixture itself so drift in
    // the story (not just the bytes) is caught with a readable message.
    for needle in [
        "end-to-end walkthrough: cell (row 6, col 9, stuck-at-1)",
        "true site contained: yes",
        "repaired:  spare row covers row 6",
        "March re-run clean: yes; mission oracle: 0 error escapes, 0 indications",
        "post-repair escapes: 0",
    ] {
        assert!(FIXTURE.contains(needle), "fixture lost '{needle}'");
    }
}

#[test]
fn diag_flags_change_the_campaign_deterministically() {
    let mats = run_diag(&["--march", "mats+"]);
    assert_ne!(mats, FIXTURE, "the March test must be observable");
    assert!(mats.contains("MATS+"));
    assert_bytes_identical(
        "scm diag --march mats+ (rerun)",
        &run_diag(&["--march", "mats+"]),
        &mats,
    );
}
