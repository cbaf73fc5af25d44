//! Integration contract of the multi-bank system layer, mirroring
//! `tests/campaign_engine.rs` and `tests/explore_engine.rs`: whatever the
//! thread count, a system campaign returns **bit-identical** results, and
//! the system-level metrics respond to the schedules the way the
//! Aupy-style model predicts.

use scm_area::RamOrganization;
use scm_codes::{CodewordMap, MOutOfN};
use scm_memory::campaign::CampaignConfig;
use scm_memory::design::RamConfig;
use scm_memory::workload::{model_by_name, Workload};
use scm_system::{Interleaving, MemorySystem, SystemCampaign, SystemConfig};

fn bank(words: u64, word_bits: u32) -> RamConfig {
    let org = RamOrganization::new(words, word_bits, 4);
    let code = MOutOfN::new(3, 5).unwrap();
    RamConfig::new(
        org,
        CodewordMap::mod_a(code, 9, org.rows()).unwrap(),
        CodewordMap::mod_a(code, 9, 4).unwrap(),
    )
}

fn heterogeneous() -> SystemConfig {
    SystemConfig {
        banks: vec![bank(256, 16), bank(128, 8), bank(64, 8), bank(64, 8)],
        interleaving: Interleaving::LowOrder,
        scrub: scm_system::ScrubSchedule { period: 4 },
        checkpoint: scm_system::CheckpointSchedule { interval: 32 },
    }
}

fn campaign() -> CampaignConfig {
    CampaignConfig {
        cycles: 160,
        trials: 5,
        seed: 0xD15C,
        write_fraction: 0.1,
    }
}

#[test]
fn system_campaign_is_bit_identical_at_every_thread_count() {
    for workload in ["uniform", "hotspot", "sequential"] {
        let engine = SystemCampaign::new(heterogeneous(), campaign())
            .workload_model(model_by_name(workload).unwrap());
        let universe = engine.decoder_universe(8);
        let reference = engine.clone().threads(1).run(&universe);
        for threads in [2usize, 4, 8] {
            let result = engine.clone().threads(threads).run(&universe);
            assert_eq!(
                reference.determinism_profile(),
                result.determinism_profile(),
                "{workload} at {threads} threads"
            );
        }
        assert!(
            reference.per_fault.iter().any(|f| f.detected > 0),
            "{workload}: the campaign must detect something"
        );
    }
}

#[test]
fn fault_free_system_is_silent_under_schedules() {
    // The engine's single-faulted-bank optimisation rests on this: a
    // fault-free bank never flags, so skipping its steps is unobservable.
    let config = heterogeneous();
    let traffic = Workload::uniform(config.total_words(), config.max_word_bits(), 3);
    let mut system = MemorySystem::new(config, campaign().seed);
    let summary = system.serve(traffic, 1_000);
    assert_eq!(summary.indications, 0);
    assert_eq!(summary.scrub_ops, 250);
}

#[test]
fn scrubbing_rescues_detection_under_a_starving_workload() {
    // High-order interleaving + a zipf hotspot leaves the last bank
    // almost untouched by traffic; the scrubber's periodic sweep is then
    // the only detection path, so switching it on must raise coverage.
    // Every fault of a bank shares the trial's traffic stream, so the
    // trial count is the number of independent streams: 64 of them are
    // enough for a stream that misses a fault to turn up (4 were not —
    // every one of them reached all eight faults).
    let mk = |period: u64| {
        let config = SystemConfig {
            banks: vec![bank(64, 8), bank(64, 8), bank(64, 8), bank(64, 8)],
            interleaving: Interleaving::HighOrder,
            scrub: scm_system::ScrubSchedule { period },
            checkpoint: scm_system::CheckpointSchedule { interval: 64 },
        };
        let engine = SystemCampaign::new(
            config,
            CampaignConfig {
                cycles: 800,
                trials: 64,
                seed: 0xFA11,
                write_fraction: 0.1,
            },
        )
        .workload_model(model_by_name("hotspot").unwrap());
        let universe: Vec<_> = engine
            .decoder_universe(8)
            .into_iter()
            .filter(|f| f.bank == 3)
            .collect();
        engine.run(&universe)
    };
    let unscrubbed = mk(0);
    let scrubbed = mk(4);
    assert!(
        scrubbed.detected_fraction() > unscrubbed.detected_fraction(),
        "scrub {} vs none {}",
        scrubbed.detected_fraction(),
        unscrubbed.detected_fraction()
    );
}

#[test]
fn lost_work_shrinks_with_checkpoint_interval_and_censoring_with_horizon() {
    let run = |interval: u64, cycles: u64| {
        let mut config = heterogeneous();
        config.checkpoint = scm_system::CheckpointSchedule { interval };
        let engine = SystemCampaign::new(
            config,
            CampaignConfig {
                cycles,
                ..campaign()
            },
        );
        let universe = engine.decoder_universe(6);
        engine.run(&universe)
    };
    let tight = run(8, 160).expected_lost_work();
    let sparse = run(128, 160).expected_lost_work();
    assert!(
        tight <= sparse,
        "interval 8: {tight}, interval 128: {sparse}"
    );
    // Undetected trials are censored at the full horizon; a longer
    // horizon converts censored trials into detections, so coverage must
    // not drop as the horizon stretches.
    let short = run(32, 120);
    let long = run(32, 480);
    assert!(
        long.detected_fraction() >= short.detected_fraction(),
        "coverage: {} vs {}",
        short.detected_fraction(),
        long.detected_fraction()
    );
}

#[test]
fn interleaving_policies_route_identical_traffic_differently() {
    let mut low = heterogeneous();
    low.interleaving = Interleaving::LowOrder;
    let mut high = heterogeneous();
    high.interleaving = Interleaving::HighOrder;
    let engine_low = SystemCampaign::new(low, campaign());
    let engine_high = SystemCampaign::new(high, campaign());
    let universe = engine_low.decoder_universe(6);
    let a = engine_low.run(&universe);
    let b = engine_high.run(&universe);
    assert_ne!(
        a.determinism_profile(),
        b.determinism_profile(),
        "interleaving must be observable in the campaign"
    );
}
