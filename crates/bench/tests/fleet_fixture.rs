//! Byte-compatibility and thread-determinism fixture for `scm fleet`.
//!
//! The acceptance contract of the fleet layer: the recorded stdout of
//! the small preset — which carries **both** a PASS and a FAIL SLO
//! verdict, so neither branch of the compliance rendering can rot — is
//! reproduced byte for byte at 1, 2 and 4 worker threads. On any
//! mismatch the full stdout diff is printed.

mod common;

use common::{assert_bytes_identical, run_scm};

const FIXTURE: &str = include_str!("fixtures/fleet.stdout");

fn run_fleet(extra: &[&str]) -> String {
    run_scm(&["fleet", "--preset", "small"], extra)
}

#[test]
fn fleet_stdout_matches_the_recorded_fixture() {
    assert_bytes_identical("scm fleet --preset small", &run_fleet(&[]), FIXTURE);
}

#[test]
fn fleet_stdout_is_byte_identical_across_1_2_4_threads() {
    for threads in ["1", "2", "4"] {
        let out = run_fleet(&["--threads", threads]);
        assert_bytes_identical(&format!("scm fleet --threads {threads}"), &out, FIXTURE);
    }
}

#[test]
fn fixture_carries_both_slo_verdicts() {
    // The small preset is tuned so the compliance section exercises both
    // branches: edge passes its (generous) SLOs, datacenter misses its
    // detection floor with scrubbing off.
    assert!(FIXTURE.contains("=> PASS"), "need a passing cohort");
    assert!(FIXTURE.contains("=> FAIL"), "need a failing cohort");
    assert!(FIXTURE.contains("fleet verdict: SLO VIOLATIONS PRESENT"));
}

#[test]
fn fleet_flags_change_the_campaign_deterministically() {
    let grown = run_fleet(&["--devices", "40"]);
    assert_ne!(grown, FIXTURE, "fleet size must be observable");
    assert!(grown.contains("40 devices"), "{grown}");
    let reseeded = run_fleet(&["--seed", "7"]);
    assert_ne!(reseeded, FIXTURE, "the fleet seed must matter");
    // Re-running any variant reproduces it byte for byte.
    assert_bytes_identical(
        "scm fleet --devices 40 (rerun)",
        &run_fleet(&["--devices", "40"]),
        &grown,
    );
}
