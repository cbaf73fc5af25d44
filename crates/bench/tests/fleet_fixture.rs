//! Byte-compatibility and thread-determinism fixture for `scm fleet`.
//!
//! The acceptance contract of the fleet layer: the recorded stdout of
//! the small preset — which carries **both** a PASS and a FAIL SLO
//! verdict, so neither branch of the compliance rendering can rot — is
//! reproduced byte for byte at 1, 2 and 4 worker threads. On any
//! mismatch the full stdout diff is printed.

use scm_bench::cli;

const FIXTURE: &str = include_str!("fixtures/fleet.stdout");

fn run_fleet(extra: &[&str]) -> String {
    let mut args = vec![
        "fleet".to_owned(),
        "--preset".to_owned(),
        "small".to_owned(),
    ];
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    cli::run(&args).expect("scm fleet succeeds")
}

/// Assert byte equality, printing a full line-by-line diff on failure.
fn assert_bytes_identical(label: &str, actual: &str, expected: &str) {
    if actual == expected {
        return;
    }
    let mut diff = String::new();
    let mut expected_lines = expected.lines();
    let mut actual_lines = actual.lines();
    let mut line_no = 0usize;
    loop {
        line_no += 1;
        match (expected_lines.next(), actual_lines.next()) {
            (None, None) => break,
            (e, a) => {
                if e != a {
                    diff.push_str(&format!(
                        "  line {line_no}:\n    expected: {}\n    actual:   {}\n",
                        e.unwrap_or("<missing>"),
                        a.unwrap_or("<missing>")
                    ));
                }
            }
        }
    }
    panic!(
        "{label}: stdout diverged from fixture\n\n--- full diff ---\n{diff}\n--- expected \
         ({} bytes) ---\n{expected}\n--- actual ({} bytes) ---\n{actual}",
        expected.len(),
        actual.len()
    );
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
