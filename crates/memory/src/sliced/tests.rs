use super::*;
use crate::backend::{BehavioralBackend, FaultSimBackend};
use crate::campaign::decoder_fault_universe;
use crate::decoder_unit::DecoderFault;
use crate::sim::measure_detection_on;
use crate::workload::{model_by_name, WorkloadSpec};
use scm_area::RamOrganization;
use scm_codes::{CodewordMap, MOutOfN};

fn small_config() -> RamConfig {
    // 64 words × 8 bits, 1-of-4 mux — the geometry every scalar
    // backend test uses.
    let org = RamOrganization::new(64, 8, 4);
    let code = MOutOfN::new(3, 5).unwrap();
    RamConfig::new(
        org,
        CodewordMap::mod_a(code, 9, 16).unwrap(),
        CodewordMap::mod_a(code, 9, 4).unwrap(),
    )
}

fn ops(seed: u64, n: usize, write_fraction: f64) -> Vec<Op> {
    let model = model_by_name("uniform").unwrap();
    let spec = WorkloadSpec {
        words: 64,
        word_bits: 8,
        write_fraction,
    };
    let mut stream = model.stream(spec, seed);
    (0..n).map(|_| stream.next_op()).collect()
}

/// The exactness contract, asserted wholesale at slab width `W`: lane
/// `L` of one sliced run must equal a scalar behavioural run of
/// scenario `L` on the identical prefill seed and op sequence,
/// observation by observation.
fn assert_lanes_match<const W: usize>(
    cfg: &RamConfig,
    scenarios: &[FaultScenario],
    seed: u64,
    ops: &[Op],
) {
    let mut sliced = SlicedBackend::<W>::prefilled(cfg, scenarios, seed);
    let per_cycle: Vec<SlicedObservation<W>> = ops.iter().map(|&op| sliced.step(op)).collect();
    for (lane, s) in scenarios.iter().enumerate() {
        let mut scalar = BehavioralBackend::prefilled(cfg, seed);
        scalar.reset(Some(s));
        for (cycle, &op) in ops.iter().enumerate() {
            let expect = scalar.step(op);
            let got = per_cycle[cycle].lane(lane);
            assert_eq!(got, expect, "lane {lane} {s} cycle {cycle} op {op:?}");
        }
    }
}

fn mixed_site_scenarios() -> Vec<FaultScenario> {
    let mut v: Vec<FaultScenario> = vec![
        FaultSite::Cell {
            row: 2,
            col: 13,
            stuck: true,
        }
        .into(),
        FaultSite::Cell {
            row: 7,
            col: 0,
            stuck: false,
        }
        .into(),
        // Parity-group cell (group m = 8 → physical cols 32..36).
        FaultSite::Cell {
            row: 5,
            col: 8 * 4 + 2,
            stuck: true,
        }
        .into(),
        FaultSite::RowRomBit { line: 7, bit: 2 }.into(),
        FaultSite::ColRomBit { line: 1, bit: 0 }.into(),
        FaultSite::RowRomColumn {
            bit: 0,
            stuck: true,
        }
        .into(),
        FaultSite::ColRomColumn {
            bit: 3,
            stuck: false,
        }
        .into(),
        FaultSite::DataRegisterBit {
            bit: 0,
            stuck: true,
        }
        .into(),
        FaultSite::DataRegisterBit {
            bit: 5,
            stuck: false,
        }
        .into(),
    ];
    for f in decoder_fault_universe(4).into_iter().step_by(5) {
        v.push(FaultSite::RowDecoder(f).into());
    }
    for f in decoder_fault_universe(2).into_iter().step_by(2) {
        v.push(FaultSite::ColDecoder(f).into());
    }
    v
}

fn temporal_scenarios() -> Vec<FaultScenario> {
    let cell = |row, col, stuck| FaultSite::Cell { row, col, stuck };
    let dec = FaultSite::RowDecoder(DecoderFault {
        bits: 4,
        offset: 0,
        value: 5,
        stuck_one: false,
    });
    let sa1 = FaultSite::RowDecoder(DecoderFault {
        bits: 4,
        offset: 0,
        value: 0,
        stuck_one: true,
    });
    vec![
        // Delayed permanents.
        FaultScenario {
            site: dec,
            process: FaultProcess::Permanent { onset: 4 },
        },
        FaultScenario {
            site: cell(3, 9, true),
            process: FaultProcess::Permanent { onset: 11 },
        },
        // One-shot transients: state flips on cells, glitches elsewhere.
        FaultScenario::transient(cell(2, 1, false), 3),
        FaultScenario::transient(cell(6, 20, false), 17),
        FaultScenario::transient(dec, 5),
        FaultScenario::transient(sa1, 9),
        FaultScenario::transient(
            FaultSite::DataRegisterBit {
                bit: 2,
                stuck: true,
            },
            7,
        ),
        // Intermittents on a cell and on a decoder line.
        FaultScenario {
            site: cell(2, 1, true),
            process: FaultProcess::Intermittent {
                onset: 2,
                period: 4,
                duty: 2,
            },
        },
        FaultScenario {
            site: sa1,
            process: FaultProcess::Intermittent {
                onset: 0,
                period: 7,
                duty: 3,
            },
        },
        // Degenerate intermittent (period 0 → permanent from onset).
        FaultScenario {
            site: dec,
            process: FaultProcess::Intermittent {
                onset: 6,
                period: 0,
                duty: 0,
            },
        },
        // Coupling defects, both kinds.
        FaultScenario {
            site: cell(1, 0, false),
            process: FaultProcess::Coupling {
                aggressor: CellRef { row: 3, col: 2 },
                kind: CouplingKind::Inversion,
            },
        },
        FaultScenario {
            site: cell(4, 17, false),
            process: FaultProcess::Coupling {
                aggressor: CellRef { row: 4, col: 16 },
                kind: CouplingKind::Idempotent { value: true },
            },
        },
    ]
}

/// Every site class and fault process plus the full 4-bit row-decoder
/// universe: a 106-scenario pack that overflows a single word and
/// exercises multi-word slabs.
fn big_universe() -> Vec<FaultScenario> {
    let mut v = mixed_site_scenarios();
    v.extend(temporal_scenarios());
    v.extend(
        decoder_fault_universe(4)
            .into_iter()
            .map(|f| FaultScenario::from(FaultSite::RowDecoder(f))),
    );
    assert!(v.len() > 64, "the slab universe must overflow one word");
    v
}

/// Chunk `scenarios` into packs of at most `width` lanes and run each
/// pack at its narrowest slab width — the engines' dispatch pattern.
fn detect_chunked(
    cfg: &RamConfig,
    scenarios: &[FaultScenario],
    width: usize,
    prefill_seed: u64,
    stream_seed: u64,
    cycles: u64,
) -> Vec<DetectionOutcome> {
    struct Detect<'a> {
        cfg: &'a RamConfig,
        chunk: &'a [FaultScenario],
        prefill_seed: u64,
        stream_seed: u64,
        cycles: u64,
    }
    impl SlabTask for Detect<'_> {
        type Output = Vec<DetectionOutcome>;
        fn run<const W: usize>(self) -> Vec<DetectionOutcome> {
            let model = model_by_name("uniform").unwrap();
            let spec = WorkloadSpec {
                words: 64,
                word_bits: 8,
                write_fraction: 0.15,
            };
            let mut backend =
                SlicedBackend::<W>::prefilled(self.cfg, self.chunk, self.prefill_seed);
            let mut stream = model.stream(spec, self.stream_seed);
            measure_detection_sliced(&mut backend, &mut stream, self.cycles)
        }
    }
    scenarios
        .chunks(width)
        .flat_map(|chunk| {
            with_slab_words(
                chunk.len(),
                Detect {
                    cfg,
                    chunk,
                    prefill_seed,
                    stream_seed,
                    cycles,
                },
            )
        })
        .collect()
}

#[test]
fn permanents_match_scalar_across_all_site_classes() {
    let cfg = small_config();
    assert_lanes_match::<1>(&cfg, &mixed_site_scenarios(), 7, &ops(101, 120, 0.3));
}

#[test]
fn full_decoder_universe_packs_64_lanes() {
    let cfg = small_config();
    let scenarios: Vec<FaultScenario> = decoder_fault_universe(4)
        .into_iter()
        .map(|f| FaultSite::RowDecoder(f).into())
        .collect();
    assert_eq!(scenarios.len(), 64, "the 4-bit universe fills a word");
    assert_lanes_match::<1>(&cfg, &scenarios, 3, &ops(55, 100, 0.25));
}

#[test]
fn temporal_processes_match_scalar() {
    let cfg = small_config();
    // High write fraction exercises coupling transitions, rewrite
    // healing and double-selection write corruption.
    assert_lanes_match::<1>(&cfg, &temporal_scenarios(), 21, &ops(77, 160, 0.45));
}

#[test]
fn sliced_slab_lanes_match_scalar_beyond_one_word() {
    let cfg = small_config();
    // 106 scenarios in one two-word slab: lanes above 64 must obey the
    // same exactness contract as lanes below it.
    assert_lanes_match::<2>(&cfg, &big_universe(), 13, &ops(909, 120, 0.35));
}

#[test]
fn sliced_widest_slab_packs_512_lanes() {
    let cfg = small_config();
    let base = big_universe();
    let scenarios: Vec<FaultScenario> = base.iter().cycle().take(512).cloned().collect();
    assert_lanes_match::<8>(&cfg, &scenarios, 29, &ops(4242, 60, 0.4));
}

#[test]
fn detection_outcomes_match_scalar_lane_by_lane() {
    let cfg = small_config();
    let scenarios = big_universe();
    let model = model_by_name("uniform").unwrap();
    let spec = WorkloadSpec {
        words: 64,
        word_bits: 8,
        write_fraction: 0.2,
    };
    let mut sliced = SlicedBackend::<2>::prefilled(&cfg, &scenarios, 9);
    let mut stream = model.stream(spec, 31);
    let outcomes = measure_detection_sliced(&mut sliced, &mut stream, 200);
    for (lane, s) in scenarios.iter().enumerate() {
        let mut scalar = BehavioralBackend::prefilled(&cfg, 9);
        scalar.reset(Some(s));
        let mut stream = model.stream(spec, 31);
        let expect = measure_detection_on(&mut scalar, &mut stream, 200);
        assert_eq!(outcomes[lane], expect, "lane {lane} {s}");
    }
}

#[test]
fn sliced_lane_width_does_not_change_outcomes() {
    let cfg = small_config();
    let scenarios = big_universe();
    let baseline = detect_chunked(&cfg, &scenarios, 64, 5, 42, 150);
    for width in [1, 5, 8, 100, 128, 256] {
        assert_eq!(
            detect_chunked(&cfg, &scenarios, width, 5, 42, 150),
            baseline,
            "width {width} vs 64"
        );
    }
}

#[test]
fn reset_restores_prefill_and_replays_identically() {
    let cfg = small_config();
    let scenarios = temporal_scenarios();
    let stream = ops(13, 90, 0.4);
    let mut b = SlicedBackend::<1>::prefilled(&cfg, &scenarios, 17);
    let first: Vec<SlicedObservation<1>> = stream.iter().map(|&op| b.step(op)).collect();
    b.reset();
    assert_eq!(b.cycle(), 0);
    let second: Vec<SlicedObservation<1>> = stream.iter().map(|&op| b.step(op)).collect();
    assert_eq!(first, second, "reset must restore the pre-fault state");
}

#[test]
fn sliced_slab_reset_replays_identically() {
    let cfg = small_config();
    let scenarios = big_universe();
    let stream = ops(87, 90, 0.4);
    let mut b = SlicedBackend::<2>::prefilled(&cfg, &scenarios, 17);
    let first: Vec<SlicedObservation<2>> = stream.iter().map(|&op| b.step(op)).collect();
    b.reset();
    assert_eq!(b.cycle(), 0);
    let second: Vec<SlicedObservation<2>> = stream.iter().map(|&op| b.step(op)).collect();
    assert_eq!(first, second, "reset must restore the pre-fault state");
}

#[test]
fn per_lane_prefill_matches_scalar_prefills() {
    let cfg = small_config();
    // 70 lanes spill the per-lane image into a second slab word.
    let seeds: Vec<u64> = (0..70).map(|k| 1000 + k * 37).collect();
    // One scenario replicated per lane — the lane = trial packing.
    let scenario: FaultScenario = FaultSite::DataRegisterBit {
        bit: 1,
        stuck: true,
    }
    .into();
    let scenarios = vec![scenario; seeds.len()];
    let mut sliced =
        SlicedBackend::<2>::with_prefill(&cfg, &scenarios, SlicedPrefill::PerLane(seeds.clone()));
    let stream = ops(71, 80, 0.2);
    let per_cycle: Vec<SlicedObservation<2>> = stream.iter().map(|&op| sliced.step(op)).collect();
    for (lane, &seed) in seeds.iter().enumerate() {
        let mut scalar = BehavioralBackend::prefilled(&cfg, seed);
        scalar.reset(Some(&scenario));
        for (cycle, &op) in stream.iter().enumerate() {
            let expect = scalar.step(op);
            assert_eq!(
                per_cycle[cycle].lane(lane),
                expect,
                "lane {lane} seed {seed} cycle {cycle}"
            );
        }
    }
}

#[test]
fn advance_keeps_the_activation_clock_global() {
    let cfg = small_config();
    let addr = 2 * 4 + 1;
    let scenarios = vec![
        FaultScenario::transient(
            FaultSite::Cell {
                row: 2,
                col: 1,
                stuck: false,
            },
            10,
        ),
        FaultScenario::permanent(FaultSite::RowRomBit { line: 2, bit: 1 }),
    ];
    let mut b = SlicedBackend::<1>::prefilled(&cfg, &scenarios, 11);
    for _ in 0..5 {
        let obs = b.step(Op::Read(addr));
        assert!(!obs.erroneous.test(0), "lane 0 silent before the flip");
    }
    b.advance(5);
    assert_eq!(b.cycle(), 10);
    let obs = b.step(Op::Read(addr));
    assert!(obs.erroneous.test(0), "flip fired during the skip");
}

#[test]
fn shared_trial_seed_is_pure_and_spread() {
    assert_eq!(shared_trial_seed(5, 3), shared_trial_seed(5, 3));
    assert_ne!(shared_trial_seed(5, 3), shared_trial_seed(5, 4));
    assert_ne!(shared_trial_seed(5, 3), shared_trial_seed(6, 3));
}

#[test]
fn for_each_lane_scans_in_ascending_order() {
    let mut seen = Vec::new();
    for_each_lane(0b1010_0110_0001, |l| seen.push(l));
    assert_eq!(seen, vec![0, 5, 6, 9, 11]);
    for_each_lane(0, |_| panic!("empty mask must not call back"));
}

#[test]
fn laneset_scans_across_words_in_ascending_order() {
    let mut set = LaneSet::<3>::EMPTY;
    for lane in [0, 63, 64, 100, 128, 191] {
        set |= LaneSet::bit(lane);
    }
    let mut seen = Vec::new();
    set.for_each_lane(|l| seen.push(l));
    assert_eq!(seen, vec![0, 63, 64, 100, 128, 191]);
    LaneSet::<3>::EMPTY.for_each_lane(|_| panic!("empty set must not call back"));
}

#[test]
fn laneset_masks_and_operators_behave_lanewise() {
    assert_eq!(LaneSet::<2>::first_n(0), LaneSet::EMPTY);
    assert_eq!(LaneSet::<2>::first_n(64).0, [u64::MAX, 0]);
    assert_eq!(LaneSet::<2>::first_n(70).0, [u64::MAX, 0x3F]);
    assert_eq!(LaneSet::<2>::first_n(128), LaneSet::splat(true));
    assert_eq!(LaneSet::<2>::first_n(70).count(), 70);
    let a = LaneSet::<2>::bit(3) | LaneSet::bit(100);
    assert!(a.test(3) && a.test(100) && !a.test(64));
    assert_eq!(a & LaneSet::bit(100), LaneSet::bit(100));
    assert_eq!(a ^ LaneSet::bit(3), LaneSet::bit(100));
    assert!((!a).test(64) && !(!a).test(100));
    assert!(a.any() && !a.is_empty() && LaneSet::<2>::EMPTY.is_empty());
}

#[test]
fn slab_words_picks_the_narrowest_fit() {
    assert_eq!(slab_words(1), 1);
    assert_eq!(slab_words(64), 1);
    assert_eq!(slab_words(65), 2);
    assert_eq!(slab_words(272), 5);
    assert_eq!(slab_words(512), 8);
    assert_eq!(slab_words(0), 1);
    assert_eq!(slab_words(10_000), MAX_SLAB_WORDS);
}

#[test]
fn supports_mirrors_the_scalar_backend() {
    let cfg = small_config();
    let scalar = BehavioralBackend::new(&cfg);
    let coupled = |row, col| FaultScenario {
        site: FaultSite::Cell {
            row,
            col,
            stuck: false,
        },
        process: FaultProcess::Coupling {
            aggressor: CellRef { row: 1, col: 1 },
            kind: CouplingKind::Inversion,
        },
    };
    for s in [
        FaultScenario::permanent(FaultSite::Cell {
            row: 0,
            col: 0,
            stuck: true,
        }),
        coupled(0, 0),
        coupled(1, 1), // self-coupling: unsupported
        FaultScenario {
            site: FaultSite::RowRomBit { line: 0, bit: 0 },
            process: FaultProcess::Coupling {
                aggressor: CellRef { row: 1, col: 1 },
                kind: CouplingKind::Inversion,
            },
        },
    ] {
        assert_eq!(SlicedBackend::<1>::supports(&s), scalar.supports(&s), "{s}");
    }
}

#[test]
#[should_panic(expected = "1..=64 scenarios")]
fn more_than_64_lanes_rejected_at_width_one() {
    let cfg = small_config();
    let scenarios: Vec<FaultScenario> = vec![
        FaultSite::Cell {
            row: 0,
            col: 0,
            stuck: true
        }
        .into();
        65
    ];
    let _ = SlicedBackend::<1>::new(&cfg, &scenarios);
}

#[test]
#[should_panic(expected = "1..=512 scenarios")]
fn more_than_512_lanes_rejected_at_widest_slab() {
    let cfg = small_config();
    let scenarios: Vec<FaultScenario> = vec![
        FaultSite::Cell {
            row: 0,
            col: 0,
            stuck: true
        }
        .into();
        513
    ];
    let _ = SlicedBackend::<8>::new(&cfg, &scenarios);
}

#[test]
#[should_panic(expected = "coupling victim must be a cell")]
fn coupling_on_non_cell_site_panics() {
    let cfg = small_config();
    let scenarios = vec![FaultScenario {
        site: FaultSite::RowRomBit { line: 0, bit: 0 },
        process: FaultProcess::Coupling {
            aggressor: CellRef { row: 1, col: 1 },
            kind: CouplingKind::Inversion,
        },
    }];
    let _ = SlicedBackend::<1>::new(&cfg, &scenarios);
}
