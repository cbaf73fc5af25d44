//! The exploration layer end to end: sweep a design space, adjudicate a
//! slice of it empirically, and print the Pareto frontier your
//! requirements can be picked from.
//!
//! Run: `cargo run --release --example design_space`

use scm_explore::{pareto_front, Adjudication, Evaluator, ExplorationSpace, FaultMix, ScrubPolicy};
use self_checking_memory_repro::area::RamOrganization;
use self_checking_memory_repro::codes::selection::SelectionPolicy;
use self_checking_memory_repro::memory::campaign::CampaignConfig;

fn main() {
    // An embedded 2K×16 RAM; the open question is which (c, Pndc) points
    // are worth their area.
    let space = ExplorationSpace {
        geometries: vec![RamOrganization::with_mux8(2048, 16)],
        cycles: vec![2, 5, 10, 20, 30, 40],
        pndcs: vec![1e-5, 1e-9, 1e-15],
        policies: vec![SelectionPolicy::WorstBlockExact],
        scrubs: vec![ScrubPolicy::SequentialSweep],
        workloads: vec!["uniform".to_owned(), "hotspot".to_owned()],
        banks: vec![1],
        checkpoints: vec![0],
        repairs: vec![scm_explore::RepairPolicy::OFF],
        fault_mixes: vec![FaultMix::Permanent],
    };

    let evaluator = Evaluator::default().adjudicate(Adjudication {
        campaign: CampaignConfig {
            cycles: 10,
            trials: 8,
            seed: 0xD5,
            write_fraction: 0.1,
        },
        max_faults: 32,
        ..Adjudication::default()
    });

    let evaluations: Vec<_> = evaluator
        .evaluate_space(&space)
        .into_iter()
        .filter_map(Result::ok)
        .collect();
    println!(
        "evaluated {} points ({} sub-results served from the memo)",
        evaluations.len(),
        evaluator.cache_stats().hits()
    );
    println!();
    println!("Pareto front (area % / latency c / achieved Pndc):");
    for e in pareto_front(&evaluations) {
        let emp = e.empirical.expect("adjudication was on");
        let sweep = e.scrub_bound.expect("scrub was on");
        println!(
            "  {:<44} {:<12} {:>6.2} %  Pndc {:.2e}  wrst-err-esc {:.3}  sweep≤{}",
            e.point.label(),
            e.plan.code_name(),
            e.area_percent(),
            e.achieved_pndc,
            emp.worst_error_escape,
            sweep.worst_steps
        );
    }
    println!();
    println!("every row is a defensible design: nothing evaluated is cheaper AND");
    println!("faster AND safer. The scrub bound is the hard (non-probabilistic)");
    println!("companion guarantee a background sweep adds.");
}
