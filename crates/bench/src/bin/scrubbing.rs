//! Extension experiment: **deterministic scrubbing bounds** — the hard
//! (non-probabilistic) detection-latency guarantee a sequential background
//! sweep adds on top of the paper's `Pndc` — now adjudicated empirically:
//! the campaign engine drives an actual sequential sweep over a RAM with
//! the selected mapping and confirms that every analytically-detectable
//! row-decoder fault is caught within one full sweep, and that exactly the
//! analytically-undetectable faults stay silent.
//!
//! Run: `cargo run -p scm-bench --bin scrubbing`

use scm_codes::selection::{select_code, LatencyBudget, SelectionPolicy};
use scm_memory::campaign::{decoder_fault_universe, CampaignConfig};
use scm_memory::design::RamConfig;
use scm_memory::engine::CampaignEngine;
use scm_memory::fault::FaultSite;
use scm_memory::scrub::sweep_bound;
use scm_memory::workload::SequentialScan;

fn main() {
    let n = 7u32; // the 1K×16 row decoder
    println!("deterministic sweep bounds, p = {n} row decoder (128 lines)");
    println!();
    println!(
        "{:<12} | {:>4} | {:>9} | {:>9} | {:>12} | {:>7} | {:>14}",
        "code", "a", "SA0 bound", "SA1 bound", "undetectable", "faults", "sweep-verified"
    );
    println!("{}", "-".repeat(88));
    for pndc in [1e-2, 1e-5, 1e-9, 1e-15] {
        let plan = select_code(
            LatencyBudget::new(10, pndc).unwrap(),
            SelectionPolicy::InverseA,
        )
        .unwrap();
        let map = plan.mapping(1 << n).unwrap();
        let bound = sweep_bound(n, &map);

        // Empirical: a 512×8 RAM (rows = 2^7) under a pure sequential
        // sweep, one deterministic trial per row-decoder fault.
        let org = scm_area::RamOrganization::new(512, 8, 4);
        let config = RamConfig::new(org, map.clone(), plan.mapping(4).unwrap());
        let words = org.words();
        let faults: Vec<FaultSite> = decoder_fault_universe(n)
            .into_iter()
            .map(FaultSite::RowDecoder)
            .collect();
        // Two full sweeps: anything silent after that is undetectable by a
        // scrub of this mapping.
        let campaign = CampaignConfig {
            cycles: 2 * words,
            trials: 1,
            seed: 0x5C2B,
            write_fraction: 0.0,
        };
        let result = CampaignEngine::new(campaign)
            .workload(SequentialScan)
            .run(&config, &faults);

        let mut never_detected = 0usize;
        let mut late = 0usize;
        for f in &result.per_fault {
            if f.detected == 0 {
                never_detected += 1;
            } else if f.detection_cycle_sum >= words {
                late += 1; // detected, but not within the first full sweep
            }
        }
        let verified = never_detected == bound.undetectable as usize && late == 0;
        println!(
            "{:<12} | {:>4} | {:>9} | {:>9} | {:>12} | {:>7} | {:>14}",
            plan.code_name(),
            plan.a(),
            bound.worst_sa0,
            bound.worst_sa1,
            bound.undetectable,
            bound.total,
            if verified { "yes" } else { "MISMATCH" }
        );
        assert!(
            verified,
            "sweep adjudication failed: {never_detected} silent (analytic {}), {late} late",
            bound.undetectable
        );
    }
    println!();
    println!("reading: with one scrub read per slot, every stuck-at-0 is caught within");
    println!("one full sweep (2^p slots: only the stuck line's own address exposes it),");
    println!("and every detectable stuck-at-1 within half a sweep + 1 (the sweep's dead");
    println!("zone inside the faulty top-bit half). Undetectable = codeword-colliding");
    println!("line pairs — the residue the paper's Pndc budget prices; note how it");
    println!("shrinks as the code strengthens, vanishing for a >= #lines.");
    println!("'sweep-verified' = the engine's sequential-sweep campaign found exactly");
    println!("the analytic undetectable set silent and everything else within one sweep.");
}
