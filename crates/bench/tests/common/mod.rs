//! The harness every byte-pinned `scm` stdout fixture shares: run the
//! CLI in-process and compare its stdout with the recorded bytes,
//! printing the full line diff on any mismatch.

use scm_bench::cli;

/// `scm` stdout for `args` followed by `extra`; panics if the command
/// fails.
pub fn run_scm(args: &[&str], extra: &[&str]) -> String {
    let args: Vec<String> = args.iter().chain(extra).map(|s| (*s).to_owned()).collect();
    cli::run(&args).unwrap_or_else(|e| panic!("scm {} failed: {e}", args.join(" ")))
}

/// Assert byte equality, printing a full line-by-line diff on failure.
pub fn assert_bytes_identical(label: &str, actual: &str, expected: &str) {
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
