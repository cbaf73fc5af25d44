//! End-to-end integration: requirement → design → simulation → detection,
//! across many geometries and budgets.

use scm_core::prelude::*;
use scm_memory::campaign::{decoder_fault_universe, CampaignConfig};
use scm_memory::decoder_unit::DecoderFault;
use scm_memory::engine::CampaignEngine;
use scm_memory::sim::measure_detection_on;

fn build(words: u64, bits: u32, mux: u32, c: u32, pndc: f64) -> Design {
    SelfCheckingRamBuilder::new(words, bits)
        .mux_factor(mux)
        .latency_budget(c, pndc)
        .expect("valid budget")
        .build()
        .expect("feasible design")
}

#[test]
fn many_geometries_roundtrip() {
    for (words, bits, mux) in [
        (64u64, 8u32, 2u32),
        (128, 4, 4),
        (256, 16, 4),
        (512, 8, 8),
        (1024, 16, 8),
        (2048, 16, 8),
        (4096, 32, 8),
        (256, 1, 4), // 1-bit words: parity column only storage
        (64, 64, 2), // widest words the simulator supports
    ] {
        let design = build(words, bits, mux, 10, 1e-9);
        let mut ram = design.instantiate();
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        for addr in (0..words).step_by(7) {
            ram.write(addr, addr.wrapping_mul(0x9E3779B9) & mask);
        }
        for addr in (0..words).step_by(7) {
            let out = ram.read(addr);
            assert_eq!(
                out.data,
                addr.wrapping_mul(0x9E3779B9) & mask,
                "{words}x{bits}"
            );
            assert!(!out.verdict.any_error(), "{words}x{bits} addr {addr}");
        }
    }
}

#[test]
fn every_sa0_decoder_fault_has_zero_error_escape() {
    // The paper's zero-latency claim, end to end on a real design.
    let design = build(256, 8, 4, 10, 1e-9);
    let config = design.config();
    let faults: Vec<FaultSite> = decoder_fault_universe(config.org().row_bits())
        .into_iter()
        .filter(|f| !f.stuck_one)
        .map(FaultSite::RowDecoder)
        .collect();
    let result = CampaignEngine::new(CampaignConfig {
        cycles: 50,
        trials: 12,
        seed: 9,
        write_fraction: 0.2,
    })
    .run(config, &faults);
    for f in &result.per_fault {
        assert_eq!(f.error_escapes, 0, "SA0 error escaped for {:?}", f.site);
    }
}

#[test]
fn budget_is_respected_empirically_for_moderate_codes() {
    // c = 10, Pndc = 1e-2 → 1-out-of-2 with escape bound 0.5 per cycle.
    // Empirical per-fault undetected-error escapes must be consistent.
    let design = SelfCheckingRamBuilder::new(256, 8)
        .mux_factor(4)
        .latency_budget(10, 1e-2)
        .unwrap()
        .policy(SelectionPolicy::InverseA)
        .build()
        .unwrap();
    let config = design.config();
    let faults: Vec<FaultSite> = decoder_fault_universe(config.org().row_bits())
        .into_iter()
        .filter(|f| f.stuck_one)
        .map(FaultSite::RowDecoder)
        .collect();
    let result = CampaignEngine::new(CampaignConfig {
        cycles: 10,
        trials: 64,
        seed: 5,
        write_fraction: 0.1,
    })
    .run(config, &faults);
    // Worst error escape must stay within the analytical per-cycle bound
    // (0.5) with generous statistical slack.
    assert!(
        result.worst_error_escape() <= 0.65,
        "worst error escape {}",
        result.worst_error_escape()
    );
}

#[test]
fn detection_latency_scales_with_code_strength() {
    // Stronger codes detect strictly more row pairs; empirically the mean
    // per-fault escape must be ordered: 1-out-of-2 ≥ 3-out-of-5 ≥ zero-lat.
    let mut escapes = Vec::new();
    for (label, design) in [
        (
            "parity",
            SelfCheckingRamBuilder::new(256, 8)
                .mux_factor(4)
                .input_parity_only()
                .build()
                .unwrap(),
        ),
        (
            "3of5",
            SelfCheckingRamBuilder::new(256, 8)
                .mux_factor(4)
                .latency_budget(10, 1e-9)
                .unwrap()
                .build()
                .unwrap(),
        ),
        (
            "zero",
            SelfCheckingRamBuilder::new(256, 8)
                .mux_factor(4)
                .zero_latency()
                .build()
                .unwrap(),
        ),
    ] {
        let config = design.config();
        let faults: Vec<FaultSite> = decoder_fault_universe(config.org().row_bits())
            .into_iter()
            .filter(|f| f.stuck_one)
            .map(FaultSite::RowDecoder)
            .collect();
        let result = CampaignEngine::new(CampaignConfig {
            cycles: 5,
            trials: 24,
            seed: 77,
            write_fraction: 0.1,
        })
        .run(config, &faults);
        escapes.push((label, result.worst_error_escape()));
    }
    assert!(escapes[0].1 >= escapes[1].1, "{escapes:?}");
    assert!(escapes[1].1 >= escapes[2].1, "{escapes:?}");
    assert_eq!(
        escapes[2].1, 0.0,
        "zero-latency endpoint must never leak an error"
    );
}

#[test]
fn single_fault_detection_across_all_classes() {
    let design = build(256, 8, 4, 10, 1e-9);
    let mut prefill = design.instantiate();
    for a in 0..256u64 {
        prefill.write(a, a & 0xFF);
    }
    let mut backend = BehavioralBackend::from_state(prefill);
    let candidates = [
        FaultSite::Cell {
            row: 5,
            col: 3,
            stuck: true,
        },
        FaultSite::RowDecoder(DecoderFault {
            bits: 6,
            offset: 0,
            value: 9,
            stuck_one: false,
        }),
        FaultSite::RowDecoder(DecoderFault {
            bits: 6,
            offset: 0,
            value: 9,
            stuck_one: true,
        }),
        FaultSite::ColDecoder(DecoderFault {
            bits: 2,
            offset: 0,
            value: 1,
            stuck_one: true,
        }),
        FaultSite::RowRomBit { line: 11, bit: 1 },
        FaultSite::ColRomBit { line: 2, bit: 0 },
        FaultSite::RowRomColumn {
            bit: 3,
            stuck: false,
        },
        FaultSite::DataRegisterBit {
            bit: 4,
            stuck: true,
        },
    ];
    for fault in candidates {
        backend.reset_site(Some(fault));
        let mut w = Workload::uniform(256, 8, 1234);
        let out = measure_detection_on(&mut backend, &mut w, 20_000);
        assert!(
            out.first_detection.is_some(),
            "fault {fault:?} never detected in 20k uniform cycles"
        );
    }
}
