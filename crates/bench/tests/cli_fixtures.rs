//! Byte-compatibility fixtures for the `scm` CLI.
//!
//! The fixtures were recorded from the pre-refactor standalone binaries
//! (`table1`, `table2`, `pareto`); the unified CLI must reproduce their
//! stdout **byte for byte**, so EXPERIMENTS.md's recorded outputs never
//! drift when the machinery underneath is refactored.

mod common;

use common::{assert_bytes_identical, run_scm};

#[test]
fn table1_stdout_is_byte_identical_to_pre_refactor_output() {
    assert_bytes_identical(
        "scm table1",
        &run_scm(&["table1"], &[]),
        include_str!("fixtures/table1.stdout"),
    );
}

#[test]
fn table2_stdout_is_byte_identical_to_pre_refactor_output() {
    assert_bytes_identical(
        "scm table2",
        &run_scm(&["table2"], &[]),
        include_str!("fixtures/table2.stdout"),
    );
}

#[test]
fn pareto_stdout_is_byte_identical_to_pre_refactor_output() {
    assert_bytes_identical(
        "scm pareto",
        &run_scm(&["pareto"], &[]),
        include_str!("fixtures/pareto.stdout"),
    );
}
