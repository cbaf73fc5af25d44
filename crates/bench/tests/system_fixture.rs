//! Byte-compatibility and thread-determinism fixture for `scm system`.
//!
//! The acceptance contract of the system layer: the recorded stdout is
//! reproduced **byte for byte** at 1, 2, 4 and 8 rayon threads. On any
//! mismatch the full stdout diff is printed (not just the first differing
//! character), so CI failures show exactly what drifted.

use scm_bench::cli;

const FIXTURE: &str = include_str!("fixtures/system.stdout");

fn run_system(extra: &[&str]) -> String {
    let mut args = vec!["system".to_owned()];
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    cli::run(&args).expect("scm system succeeds")
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
