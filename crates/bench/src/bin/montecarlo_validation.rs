//! **Monte-Carlo adjudication** of the paper's analytical bound: inject
//! every decoder fault of a real self-checking RAM, drive uniform random
//! addresses, and compare the empirical escape behaviour against the
//! analytical model.
//!
//! Two quantities per code:
//!
//! * `analytic err-esc` — the exact worst-case probability that an
//!   *erroneous output* escapes detection (the error-conditional escape
//!   `(collisions−1)/(2^i−1)` maximised over blocks); the paper's
//!   `⌈2^i/a⌉/2^i` is an upper bound on it.
//! * `empirical err-esc` — worst per-fault fraction of trials in which an
//!   erroneous read escaped detection within `c` cycles. Statistical noise
//!   is `≈ 1/trials`.
//!
//! Stuck-at-0 faults must show **zero** error escapes (the paper's
//! zero-latency claim); the binary verifies that explicitly.
//!
//! Campaigns run on the parallel [`CampaignEngine`]; the binary runs the
//! stuck-at-1 universe pinned to 1 and to 4 threads and verifies the two
//! runs agree bit-for-bit (the engine's determinism contract). Speed is
//! measured by the `perfbench` harness, not here.
//!
//! Run: `cargo run --release -p scm-bench --bin montecarlo_validation`

use scm_codes::mapping::MappingKind;
use scm_core::prelude::*;
use scm_latency::distribution::analyze_decoder;
use scm_logic::Netlist;
use scm_memory::campaign::{decoder_fault_universe, CampaignConfig};
use scm_memory::design::RamConfig;
use scm_memory::fault::FaultSite;

/// The pinned parallel width compared against one thread.
const THREADS: usize = 4;

fn main() {
    let c = 10u32;
    let trials = 128u32;
    println!(
        "Monte-Carlo validation on 1Kx16 (p = 7, s = 3), c = {c}, {trials} trials/fault, \
         1 vs {THREADS} threads"
    );
    println!();
    println!(
        "{:<12} | {:>4} | {:>13} | {:>13} | {:>14} | {:>8} | {:>8}",
        "code", "a", "paper bound", "analytic e-esc", "empirical e-esc", "sa0-esc", "faults",
    );
    println!("{}", "-".repeat(93));

    for pndc in [1e-2, 1e-5, 1e-9, 1e-15] {
        let design = SelfCheckingRamBuilder::new(1024, 16)
            .mux_factor(8)
            .latency_budget(c, pndc)
            .expect("valid budget")
            .policy(SelectionPolicy::InverseA)
            .build()
            .expect("feasible design");
        let config: &RamConfig = design.config();

        // Analytical worst cases from the decoder structure.
        let mut nl = Netlist::new();
        let addr = nl.inputs(7);
        let dec = scm_decoder::build_multilevel_decoder(&mut nl, &addr, 2);
        let report = analyze_decoder(&dec, config.row_map().kind());

        // Empirical: every row-decoder fault, on the parallel engine.
        let all = decoder_fault_universe(7);
        let sa1: Vec<FaultSite> = all
            .iter()
            .filter(|f| f.stuck_one)
            .map(|&f| FaultSite::RowDecoder(f))
            .collect();
        let sa0: Vec<FaultSite> = all
            .iter()
            .filter(|f| !f.stuck_one)
            .map(|&f| FaultSite::RowDecoder(f))
            .collect();
        let cfg = CampaignConfig {
            cycles: c as u64,
            trials,
            seed: 0xDECAF,
            write_fraction: 0.1,
        };

        let sa1_serial = CampaignEngine::new(cfg).threads(1).run(config, &sa1);
        let sa1_result = CampaignEngine::new(cfg).threads(THREADS).run(config, &sa1);
        assert_eq!(
            sa1_serial.determinism_profile(),
            sa1_result.determinism_profile(),
            "engine must be bit-identical across thread counts"
        );
        let sa0_result = CampaignEngine::new(cfg).threads(THREADS).run(config, &sa0);

        println!(
            "{:<12} | {:>4} | {:>13.4} | {:>14.4} | {:>15.4} | {:>8.4} | {:>8}",
            design.report().row_code,
            match config.row_map().kind() {
                MappingKind::ModA { a } => a,
                _ => 2,
            },
            report.paper_escape_bound,
            report.worst_error_escape,
            sa1_result.worst_error_escape(),
            sa0_result.worst_error_escape(),
            sa1.len() + sa0.len(),
        );
        assert_eq!(
            sa0_result.worst_error_escape(),
            0.0,
            "stuck-at-0 must never let an error escape (zero-latency claim)"
        );
    }
    println!();
    println!("reading: 'empirical e-esc' must sit at or below 'paper bound' (within");
    println!("~1/trials noise) and track 'analytic e-esc'; 'sa0-esc' must be exactly 0,");
    println!("confirming the zero-latency claim for stuck-at-0 decoder faults.");
    println!("The stuck-at-1 profiles at 1 and {THREADS} threads are asserted bit-identical");
    println!("before the numbers are printed.");
}
