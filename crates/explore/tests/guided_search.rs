//! The guided search's exactness contract, asserted from outside the
//! crate: on any space small enough to enumerate, the budget-bounded
//! multi-fidelity climb must recover **exactly** the front the
//! exhaustive full-fidelity sweep finds — at every thread count, under
//! any candidate ordering — and on the worked reference space it must do
//! so for at most 20 % of the exhaustive scenario-trial spend (it takes
//! 12.5 %; EXPERIMENTS.md records the figure).

use proptest::prelude::*;
use scm_area::RamOrganization;
use scm_codes::selection::SelectionPolicy;
use scm_explore::{
    exhaustive_front, Adjudication, Evaluator, ExplorationSpace, FaultMix, GuidedConfig,
    GuidedSearch, RepairPolicy, ScrubPolicy,
};
use scm_memory::campaign::CampaignConfig;

/// An evaluator with the empirical stage on: `trials` is the full
/// fidelity the ladder climbs to, `sliced` picks the slab executor or
/// the behavioural oracle. The properties keep `max_faults` small for
/// speed; the acceptance test below uses the reference configuration
/// (64) the recorded bench figures come from — fewer faults per point
/// means fewer samples per rung, wider Hoeffding intervals, and
/// therefore weaker (but never unsound) pruning.
fn evaluator(trials: u32, max_faults: usize, threads: usize, sliced: bool) -> Evaluator {
    Evaluator::default()
        .threads(threads)
        .adjudicate(Adjudication {
            campaign: CampaignConfig {
                cycles: 10, // overridden per point
                trials,
                seed: 0xE7,
                write_fraction: 0.1,
            },
            max_faults,
            sliced,
            ..Adjudication::default()
        })
}

/// Compact labels for assertion messages: the front as point labels.
fn labels(front: &[scm_explore::Evaluation]) -> Vec<String> {
    front.iter().map(|e| e.point.label()).collect()
}

/// The non-empty subset of `options` selected by the low bits of `mask`
/// — how the properties draw random axis subsets from the vendored
/// proptest's integer strategies.
fn pick<T: Clone>(options: &[T], mask: u32) -> Vec<T> {
    options
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask >> i & 1 == 1)
        .map(|(_, v)| v.clone())
        .collect()
}

proptest! {
    // Each case runs one exhaustive sweep plus five guided climbs, so a
    // lean case count keeps the suite fast without thinning coverage:
    // the axes themselves are the random part.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_guided_front_is_exact_at_every_thread_count_and_order(
        cycles_mask in 1u32..16,
        pndc_mask in 1u32..16,
        policy_mask in 1u32..4,
        workload_mask in 1u32..8,
        scrub_on in any::<bool>(),
        small_geometry in any::<bool>(),
    ) {
        let space = ExplorationSpace {
            geometries: vec![if small_geometry {
                RamOrganization::with_mux8(256, 8)
            } else {
                RamOrganization::with_mux8(512, 16)
            }],
            cycles: pick(&[2u32, 4, 8, 12], cycles_mask),
            pndcs: pick(&[1e-2f64, 1e-5, 1e-9, 1e-20], pndc_mask),
            policies: pick(&SelectionPolicy::ALL, policy_mask),
            scrubs: vec![if scrub_on {
                ScrubPolicy::SequentialSweep
            } else {
                ScrubPolicy::Off
            }],
            workloads: pick(
                &[
                    "uniform".to_owned(),
                    "sequential".to_owned(),
                    "hotspot".to_owned(),
                ],
                workload_mask,
            ),
            banks: vec![1],
            checkpoints: vec![0],
            repairs: vec![RepairPolicy::OFF],
            fault_mixes: vec![FaultMix::Permanent],
        };
        prop_assert!(space.len() <= 96, "keep proptest cases enumerable");

        let reference = exhaustive_front(&evaluator(8, 8, 1, true), &space).unwrap();
        let one_thread = GuidedSearch::new(&evaluator(8, 8, 1, true), GuidedConfig::default())
            .run(&space)
            .unwrap();
        prop_assert_eq!(
            labels(&one_thread.front),
            labels(&reference.front),
            "guided front diverged from the exhaustive front"
        );
        prop_assert_eq!(&one_thread.front, &reference.front);

        for threads in [2usize, 4, 8] {
            let report = GuidedSearch::new(&evaluator(8, 8, threads, true), GuidedConfig::default())
                .run(&space)
                .unwrap();
            prop_assert_eq!(&report.front, &one_thread.front, "{} threads", threads);
            prop_assert_eq!(&report.rungs, &one_thread.rungs, "{} threads", threads);
            prop_assert_eq!(report.spent, one_thread.spent, "{} threads", threads);
        }

        // Candidate order is presentation, not information: feeding the
        // enumeration in reverse must not move the front, the rung
        // accounting, or a single scenario-trial of spend.
        let mut reversed = space.points();
        reversed.reverse();
        let report = GuidedSearch::new(&evaluator(8, 8, 4, true), GuidedConfig::default())
            .run_candidates(&reversed)
            .unwrap();
        prop_assert_eq!(&report.front, &one_thread.front, "reversed candidates");
        prop_assert_eq!(&report.rungs, &one_thread.rungs, "reversed candidates");
        prop_assert_eq!(report.spent, one_thread.spent, "reversed candidates");
    }
}

/// The acceptance figure: on the worked reference space the guided
/// search recovers the exact exhaustive front for ≤ 20 % of the
/// exhaustive scenario-trial spend.
#[test]
fn guided_recovers_the_reference_front_for_a_fifth_of_the_budget() {
    let space = ExplorationSpace::worked_reference();
    let ev = evaluator(64, 64, 0, true);
    let reference = exhaustive_front(&ev, &space).unwrap();
    let report = GuidedSearch::new(&ev, GuidedConfig::default())
        .run(&space)
        .unwrap();
    assert_eq!(
        labels(&report.front),
        labels(&reference.front),
        "guided front must equal the exhaustive front"
    );
    assert_eq!(report.front, reference.front);
    assert!(
        report.spent * 5 <= reference.spent,
        "guided spent {} of exhaustive {} ({:.1} %) — the acceptance ceiling is 20 %",
        report.spent,
        reference.spent,
        report.spent_fraction() * 100.0
    );
    assert!(!report.truncated, "no budget was set");
}

/// A fixed budget is a hard ceiling even on a million-point space: the
/// search samples, climbs, stops on the canonical prefix, and says so.
#[test]
fn million_point_space_respects_a_fixed_budget() {
    let space = ExplorationSpace::million_grid();
    assert!(space.len() >= 1_000_000, "the grid shrank: {}", space.len());
    let ev = evaluator(64, 64, 0, true);
    let report = GuidedSearch::new(&ev, GuidedConfig::with_budget(100_000))
        .run(&space)
        .unwrap();
    assert!(report.sampled, "a million points cannot be enumerated");
    assert!(report.truncated, "the budget must bind on this space");
    assert!(
        report.spent <= 100_000,
        "spent {} over the 100k budget",
        report.spent
    );
    // 100k cannot carry a sampled cohort to full fidelity, so the report
    // must still hand back the best-effort frontier and say so.
    assert!(!report.front.is_empty(), "an empty front explores nothing");
    assert!(
        report.provisional,
        "nothing can resolve at full fidelity under 100k on this space"
    );
}

/// One estimator, two executors: a guided search adjudicated on the
/// behavioural oracle reports exactly what the slab executor reports —
/// front, rung accounting and spend — on the worked reference space.
#[test]
fn guided_report_is_identical_under_either_executor() {
    let space = ExplorationSpace::worked_reference();
    let run = |sliced| {
        GuidedSearch::new(
            &evaluator(8, 64, 0, sliced),
            GuidedConfig::with_budget(20_000),
        )
        .run(&space)
        .unwrap()
    };
    let oracle = run(false);
    assert!(!oracle.front.is_empty(), "the search found nothing");
    assert_eq!(oracle, run(true));
}
