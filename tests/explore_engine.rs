//! Integration contract of the design-space exploration engine, mirroring
//! `tests/campaign_engine.rs`: whatever the thread count, an exploration
//! returns **bit-identical** results — including the empirically
//! adjudicated figures, which ride the campaign engine's own determinism
//! guarantee.

use scm_area::RamOrganization;
use scm_codes::selection::{select_code, LatencyBudget, SelectionPolicy};
use scm_explore::{
    pareto_front, system_pareto_front, Adjudication, Evaluator, ExplorationSpace, FaultMix,
    ScrubPolicy, SystemAdjudication,
};
use scm_memory::campaign::CampaignConfig;

fn adjudicated_space() -> ExplorationSpace {
    ExplorationSpace {
        geometries: vec![
            RamOrganization::new(256, 8, 4),
            RamOrganization::new(512, 16, 8),
        ],
        cycles: vec![5, 10, 20],
        pndcs: vec![1e-2, 1e-9],
        policies: SelectionPolicy::ALL.to_vec(),
        scrubs: vec![ScrubPolicy::Off, ScrubPolicy::SequentialSweep],
        workloads: vec!["uniform".to_owned(), "hotspot".to_owned()],
        banks: vec![1],
        checkpoints: vec![0],
        repairs: vec![scm_explore::RepairPolicy::OFF],
        fault_mixes: vec![FaultMix::Permanent],
    }
}

fn evaluator(threads: usize) -> Evaluator {
    Evaluator::default()
        .threads(threads)
        .adjudicate(Adjudication {
            campaign: CampaignConfig {
                cycles: 10,
                trials: 5,
                seed: 0xD1CE,
                write_fraction: 0.1,
            },
            max_faults: 10,
            sliced: false,
            ..Adjudication::default()
        })
}

fn sliced_evaluator(threads: usize) -> Evaluator {
    Evaluator::default()
        .threads(threads)
        .adjudicate(Adjudication {
            campaign: CampaignConfig {
                cycles: 10,
                trials: 5,
                seed: 0xD1CE,
                write_fraction: 0.1,
            },
            max_faults: 10,
            ..Adjudication::default()
        })
}

#[test]
fn sliced_adjudication_is_bit_identical_at_every_thread_count() {
    let space = adjudicated_space();
    let reference = sliced_evaluator(1).evaluate_space(&space);
    assert!(
        reference.iter().any(|r| r.is_ok()),
        "space fully infeasible?"
    );
    for threads in [2usize, 4] {
        let result = sliced_evaluator(threads).evaluate_space(&space);
        assert_eq!(reference, result, "{threads} threads diverged");
    }
    // One estimator, two executors: the slab path adjudicates every
    // point exactly as the generic-backend oracle does.
    assert_eq!(
        reference,
        evaluator(1).evaluate_space(&space),
        "executors diverged"
    );
    for eval in reference.into_iter().flatten() {
        let emp = eval.empirical.expect("adjudicated");
        assert!(emp.worst_escape.is_finite() && emp.worst_escape <= 1.0);
    }
}

#[test]
fn exploration_is_bit_identical_at_every_thread_count() {
    let space = adjudicated_space();
    let reference = evaluator(1).evaluate_space(&space);
    assert!(
        reference.iter().any(|r| r.is_ok()),
        "space fully infeasible?"
    );
    for threads in [2usize, 4, 7] {
        let result = evaluator(threads).evaluate_space(&space);
        assert_eq!(reference, result, "{threads} threads diverged");
    }
}

#[test]
fn frontier_is_deterministic_and_survives_reordering_of_threads() {
    let space = adjudicated_space();
    let collect = |threads: usize| -> Vec<_> {
        evaluator(threads)
            .evaluate_space(&space)
            .into_iter()
            .filter_map(Result::ok)
            .collect()
    };
    let front1 = pareto_front(&collect(1));
    let front4 = pareto_front(&collect(4));
    assert_eq!(front1, front4);
    assert!(!front1.is_empty());
}

fn system_space() -> ExplorationSpace {
    ExplorationSpace {
        geometries: vec![RamOrganization::new(256, 8, 4)],
        cycles: vec![5, 10],
        pndcs: vec![1e-2, 1e-9],
        policies: vec![SelectionPolicy::WorstBlockExact],
        scrubs: vec![ScrubPolicy::Off, ScrubPolicy::SequentialSweep],
        workloads: vec!["uniform".to_owned()],
        banks: vec![1, 4],
        checkpoints: vec![0, 64],
        repairs: vec![scm_explore::RepairPolicy::OFF],
        fault_mixes: vec![FaultMix::Permanent],
    }
}

fn system_evaluator(threads: usize) -> Evaluator {
    Evaluator::default()
        .threads(threads)
        .system_stage(SystemAdjudication {
            horizon: 120,
            trials: 3,
            seed: 0xCAFE,
            max_faults_per_bank: 6,
            ..SystemAdjudication::default()
        })
}

#[test]
fn system_stage_is_bit_identical_at_every_thread_count() {
    let space = system_space();
    let reference = system_evaluator(1).evaluate_space(&space);
    assert!(reference
        .iter()
        .any(|r| r.as_ref().is_ok_and(|e| e.system.is_some())));
    for threads in [2usize, 4] {
        let result = system_evaluator(threads).evaluate_space(&space);
        assert_eq!(reference, result, "{threads} threads diverged");
    }
}

#[test]
fn system_frontier_trades_area_latency_and_lost_work() {
    let evaluations: Vec<_> = system_evaluator(0)
        .evaluate_space(&system_space())
        .into_iter()
        .filter_map(Result::ok)
        .collect();
    let front = system_pareto_front(&evaluations);
    assert!(!front.is_empty() && front.len() <= evaluations.len());
    for e in &front {
        let figures = e.system.expect("system frontier carries figures");
        assert!(figures.banks == e.point.banks.max(1));
        assert!(figures.mean_latency <= figures.worst_latency + 1e-9);
        assert!(figures.expected_lost_work >= 0.0);
    }
    // The classic frontier ignores system figures, so both frontiers are
    // available side by side.
    assert!(!pareto_front(&evaluations).is_empty());
}

#[test]
fn scrubbed_system_points_carry_their_bandwidth_overhead() {
    let evaluations: Vec<_> = system_evaluator(0)
        .evaluate_space(&system_space())
        .into_iter()
        .filter_map(Result::ok)
        .collect();
    for e in &evaluations {
        let figures = e.system.expect("system stage ran for every point");
        match e.point.scrub {
            ScrubPolicy::Off => assert_eq!(figures.scrub_overhead, 0.0),
            ScrubPolicy::SequentialSweep => {
                assert!((figures.scrub_overhead - 0.25).abs() < 1e-12)
            }
        }
    }
}

#[test]
fn goal_solve_agrees_with_direct_selection() {
    let ev = Evaluator::default();
    for policy in SelectionPolicy::ALL {
        for (c, pndc) in [(2u32, 1e-9), (10, 1e-9), (10, 1e-30), (40, 1e-2)] {
            let e = ev
                .goal_solve(RamOrganization::with_mux8(2048, 16), c, pndc, policy)
                .unwrap();
            let direct = select_code(LatencyBudget::new(c, pndc).unwrap(), policy).unwrap();
            assert_eq!(e.plan, direct, "{policy:?} c={c} pndc={pndc}");
            assert!(e.meets_goal);
        }
    }
}

#[test]
fn adjudicated_figures_stay_within_the_analytic_regime() {
    // Empirical worst error-escape under the uniform model must sit at or
    // below the analytic per-cycle bound plus sampling noise — the same
    // adjudication montecarlo_validation performs, reached through the
    // exploration pipeline.
    let ev = Evaluator::default().adjudicate(Adjudication {
        campaign: CampaignConfig {
            cycles: 10,
            trials: 48,
            seed: 0xADA,
            write_fraction: 0.1,
        },
        max_faults: 0, // whole row-decoder universe
        ..Adjudication::default()
    });
    let e = ev
        .goal_solve(
            RamOrganization::new(512, 8, 4),
            10,
            1e-9,
            SelectionPolicy::InverseA,
        )
        .unwrap();
    let emp = e.empirical.expect("adjudicated");
    let noise = 2.0 / emp.trials_per_fault as f64;
    assert!(
        emp.worst_error_escape <= e.escape_per_cycle + noise,
        "empirical {} vs analytic {}",
        emp.worst_error_escape,
        e.escape_per_cycle
    );
}
