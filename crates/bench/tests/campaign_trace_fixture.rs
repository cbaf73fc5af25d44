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

use scm_bench::cli;

const FIXTURE: &str = include_str!("fixtures/campaign_trace.stdout");

fn run_campaign(extra: &[&str]) -> String {
    let mut args: Vec<String> = [
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
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    cli::run(&args).expect("scm campaign succeeds")
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
        "{label}: stdout diverged from fixture ({} expected bytes, {} actual)\
         \n\n--- diff ---\n{diff}",
        expected.len(),
        actual.len()
    );
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
