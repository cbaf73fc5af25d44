//! The benchmark's own checks: seeds reach the inputs, results are
//! pinned at the default seed and thread-invariant, a wrong digest is a
//! counted failure, and the per-layer counts repeat exactly.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the guided search makes a debug build slow).

use scm_perfbench::bench::{measure_e2e, pinned_digests, Check, DEFAULT_SEED, THREADS};
use scm_perfbench::layers::layer_counts;
use scm_perfbench::workload::{Inputs, ScratchDir, Workload};
use std::sync::Arc;
use std::time::Duration;

fn scratch() -> Arc<ScratchDir> {
    Arc::new(ScratchDir::create("test").expect("scratch directory"))
}

/// Run every instance at both thread counts under a fresh check.
fn check_all(workload: Workload, seed: u64, expected: Option<Vec<u64>>) -> Check {
    let inputs = Inputs::generate(workload, seed, &scratch()).expect("inputs");
    let mut check = Check::new(inputs.instances(), expected);
    for instance in 0..inputs.instances() {
        for &threads in &THREADS {
            check.record(instance, inputs.pass(threads, instance).map(|r| r.output()));
        }
    }
    check
}

#[test]
fn default_seed_results_match_the_pinned_digests_at_both_thread_counts() {
    for workload in Workload::ALL {
        let check = check_all(workload, DEFAULT_SEED, Some(pinned_digests(workload)));
        assert!(
            check.correct(),
            "{} drifted from its pinned digests: {:?}",
            workload.name(),
            check.first_failure
        );
    }
}

#[test]
fn another_seed_changes_the_inputs_and_every_check_still_passes() {
    for workload in Workload::ALL {
        let default = Inputs::generate(workload, DEFAULT_SEED, &scratch())
            .unwrap()
            .digest();
        let other = Inputs::generate(workload, 7, &scratch()).unwrap().digest();
        assert_ne!(
            default,
            other,
            "{}: the seed must reach the inputs",
            workload.name()
        );
        let check = check_all(workload, 7, None);
        assert!(
            check.correct(),
            "{}: {:?}",
            workload.name(),
            check.first_failure
        );
        let pinned: Vec<Option<u64>> = pinned_digests(workload).into_iter().map(Some).collect();
        assert_ne!(
            check.expected(),
            &pinned[..],
            "{}: a new seed should give a new result",
            workload.name()
        );
    }
}

#[test]
fn a_corrupted_expected_digest_is_counted_as_failed_passes() {
    let wrong = vec![pinned_digests(Workload::CampaignMix)[0] ^ 1];
    let e2e = measure_e2e(
        Workload::CampaignMix,
        DEFAULT_SEED,
        Duration::from_millis(1),
        Some(wrong),
    )
    .expect("a wrong digest fails passes, not the run");
    assert!(e2e.check.attempted > 0);
    assert_eq!(e2e.check.failed, e2e.check.attempted);
    assert!(!e2e.check.correct());
    assert!(e2e.throughput.iter().all(|&t| t > 0.0), "still timed");
}

#[test]
fn per_layer_counts_repeat_exactly_and_are_thread_invariant() {
    let first = layer_counts(DEFAULT_SEED, 1).expect("counts");
    let again = layer_counts(DEFAULT_SEED, 1).expect("counts");
    let two = layer_counts(DEFAULT_SEED, 2).expect("counts");
    assert_eq!(first.values, again.values, "two traced runs");
    assert_eq!(first.values, two.values, "1 vs 2 threads");
    assert!(first.values.values().all(|&v| v > 0), "{:?}", first.values);
}
