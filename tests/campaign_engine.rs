//! Workspace-level contract tests for the parallel campaign engine:
//!
//! 1. **Thread-count determinism** — the per-fault escape statistics of a
//!    campaign are bit-identical at 1 thread and at N threads for a fixed
//!    seed, for both the wide-universe (fault-major blocks) and
//!    narrow-universe (trial-split blocks) scheduling regimes.
//! 2. **Backend equivalence** — behavioural and gate-level backends agree
//!    on decoder-checker verdicts over a small decoder, driven through the
//!    one `FaultSimBackend` interface by the same engine.

use scm_area::RamOrganization;
use scm_codes::{CodewordMap, MOutOfN};
use scm_memory::backend::{BehavioralBackend, FaultSimBackend, GateLevelBackend};
use scm_memory::campaign::{decoder_fault_universe, CampaignConfig, CampaignResult};
use scm_memory::design::RamConfig;
use scm_memory::engine::CampaignEngine;
use scm_memory::fault::FaultSite;
use scm_memory::workload::Op;

fn small_config() -> RamConfig {
    let org = RamOrganization::new(64, 8, 4);
    let code = MOutOfN::new(3, 5).unwrap();
    RamConfig::new(
        org,
        CodewordMap::mod_a(code, 9, 16).unwrap(),
        CodewordMap::mod_a(code, 9, 4).unwrap(),
    )
}

fn decoder_faults() -> Vec<FaultSite> {
    decoder_fault_universe(4)
        .into_iter()
        .map(FaultSite::RowDecoder)
        .chain(
            decoder_fault_universe(2)
                .into_iter()
                .map(FaultSite::ColDecoder),
        )
        .collect()
}

#[test]
fn escape_frequencies_identical_at_one_and_many_threads() {
    let config = small_config();
    let faults = decoder_faults();
    let campaign = CampaignConfig {
        cycles: 15,
        trials: 9,
        seed: 0xD5EED,
        write_fraction: 0.1,
    };
    let reference = CampaignEngine::new(campaign)
        .threads(1)
        .run(&config, &faults);
    for threads in [2usize, 3, 8] {
        let parallel = CampaignEngine::new(campaign)
            .threads(threads)
            .run(&config, &faults);
        assert_eq!(
            reference.determinism_profile(),
            parallel.determinism_profile(),
            "{threads} threads"
        );
    }
}

#[test]
fn trial_split_regime_is_deterministic_too() {
    // Two faults, many trials: blocks split within each fault's trial
    // range, the regime where nondeterminism would hide if seeds depended
    // on scheduling.
    let config = small_config();
    let faults = &decoder_faults()[..2];
    let campaign = CampaignConfig {
        cycles: 10,
        trials: 64,
        seed: 3,
        write_fraction: 0.2,
    };
    let reference = CampaignEngine::new(campaign)
        .threads(1)
        .run(&config, faults);
    for threads in [2usize, 5, 16] {
        let parallel = CampaignEngine::new(campaign)
            .threads(threads)
            .run(&config, faults);
        assert_eq!(
            reference.determinism_profile(),
            parallel.determinism_profile(),
            "{threads} threads"
        );
    }
}

#[test]
fn behavioral_and_gate_backends_agree_on_decoder_verdicts() {
    // Every decoder fault, every address, one interface: the gate-level
    // netlist (stuck-at on the exact generated signal) and the behavioural
    // model must emit the same row/column checker verdicts.
    let config = small_config();
    let mut behavioral = BehavioralBackend::prefilled(&config, 0x5EED);
    let mut gate = GateLevelBackend::try_new(&config).expect("3-out-of-5 is constant weight");
    for site in decoder_faults() {
        assert!(gate.supports(&site.into()), "{site:?}");
        behavioral.reset_site(Some(site));
        gate.reset_site(Some(site));
        for addr in 0..64u64 {
            let b = behavioral.step(Op::Read(addr));
            let g = gate.step(Op::Read(addr));
            assert_eq!(
                b.verdict.row_code_error, g.verdict.row_code_error,
                "row verdict: {site:?} addr {addr}"
            );
            assert_eq!(
                b.verdict.col_code_error, g.verdict.col_code_error,
                "col verdict: {site:?} addr {addr}"
            );
        }
    }
}

#[test]
fn engine_runs_identically_on_both_backends_for_pure_reads() {
    // With a read-only workload the data path never diverges silently on
    // SA0 faults (reads of an unselected row return the precharge value and
    // are flagged the same cycle), so first-detection statistics derived
    // purely from decoder-checker verdicts must agree between backends.
    // Restrict to faults where the behavioural model's extra observability
    // (parity on wired-OR data) cannot fire before the code checkers: SA0.
    let config = small_config();
    let faults: Vec<FaultSite> = decoder_fault_universe(4)
        .into_iter()
        .filter(|f| !f.stuck_one)
        .map(FaultSite::RowDecoder)
        .collect();
    let campaign = CampaignConfig {
        cycles: 25,
        trials: 5,
        seed: 21,
        write_fraction: 0.0,
    };
    let engine = CampaignEngine::new(campaign).threads(2);
    let behavioral = engine.run_on(&BehavioralBackend::prefilled(&config, 1), &faults);
    let gate = engine.run_on(&GateLevelBackend::try_new(&config).unwrap(), &faults);
    let detections = |r: &CampaignResult| -> Vec<(u32, u64)> {
        r.per_fault
            .iter()
            .map(|f| (f.detected, f.detection_cycle_sum))
            .collect()
    };
    assert_eq!(detections(&behavioral), detections(&gate));
}

#[test]
fn gate_backend_batching_agrees_with_engine_serial_path() {
    // step_many (64-lane parallel sweeps) vs step (scalar): same verdicts
    // over a mixed op stream.
    let config = small_config();
    let mut gate = GateLevelBackend::try_new(&config).unwrap();
    let ops: Vec<Op> = (0..200u64).map(|i| Op::Read(i % 64)).collect();
    for site in decoder_faults() {
        gate.reset_site(Some(site));
        let batched = gate.step_many(&ops);
        let serial: Vec<_> = ops.iter().map(|&op| gate.step(op)).collect();
        assert_eq!(batched, serial, "{site:?}");
    }
}
