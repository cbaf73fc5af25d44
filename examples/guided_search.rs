//! Budget-bounded guided search end to end: recover the worked reference
//! space's exact Pareto front for an eighth of the exhaustive
//! scenario-trial spend, then point the same engine at a million-point
//! grid no exhaustive sweep could afford.
//!
//! Run: `cargo run --release --example guided_search`

use scm_explore::{
    exhaustive_front, Adjudication, Evaluator, ExplorationSpace, GuidedConfig, GuidedReport,
    GuidedSearch,
};
use self_checking_memory_repro::memory::campaign::CampaignConfig;

fn evaluator() -> Evaluator {
    Evaluator::default().adjudicate(Adjudication {
        campaign: CampaignConfig {
            cycles: 10, // overridden per point
            trials: 64,
            seed: 0xE7,
            write_fraction: 0.1,
        },
        max_faults: 64,
        ..Adjudication::default()
    })
}

fn print_rungs(report: &GuidedReport) {
    println!("  gen | trials | entered | survivors | spent");
    for r in &report.rungs {
        println!(
            "  {:>3} | {:>6} | {:>7} | {:>9} | {:>6}",
            r.generation, r.trials, r.entered, r.survivors, r.spent
        );
    }
}

fn main() {
    // 1. The worked reference: small enough to check the guided answer
    //    against the exhaustive one.
    let space = ExplorationSpace::worked_reference();
    let ev = evaluator();
    let reference = exhaustive_front(&ev, &space).expect("adjudication is on");
    let report = GuidedSearch::new(&ev, GuidedConfig::default())
        .run(&space)
        .expect("adjudication is on");
    println!(
        "worked reference ({} points): exhaustive spent {} scenario-trials,",
        space.len(),
        reference.spent
    );
    println!(
        "guided spent {} ({:.1} %) for the identical {}-point front:",
        report.spent,
        report.spent_fraction() * 100.0,
        report.front.len()
    );
    print_rungs(&report);
    assert_eq!(report.front, reference.front, "exactness is the contract");
    for e in &report.front {
        let emp = e.empirical.expect("guided points are adjudicated");
        println!(
            "  {:<46} area {:>6.2} %  escape {:.4}  latency {:>5.2} c",
            e.point.label(),
            e.area_percent(),
            emp.mean_escape,
            emp.mean_latency
        );
    }

    // 2. The million-point grid under a fixed budget: stratified sample,
    //    climb, mutate around the frontier, stop when the budget dies.
    let million = ExplorationSpace::million_grid();
    let report = GuidedSearch::new(&ev, GuidedConfig::with_budget(400_000))
        .run(&million)
        .expect("adjudication is on");
    println!();
    println!(
        "million grid ({} points): spent {} of an estimated exhaustive {},",
        million.len(),
        report.spent,
        report.exhaustive_cost
    );
    println!(
        "{} candidates screened, {}-point front{}:",
        report.candidates,
        report.front.len(),
        if report.truncated {
            " (budget exhausted)"
        } else {
            ""
        }
    );
    print_rungs(&report);
}
