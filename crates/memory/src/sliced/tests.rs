use super::*;
use crate::arena::ReplayOps;
use crate::backend::{BehavioralBackend, FaultSimBackend};
use crate::campaign::decoder_fault_universe;
use crate::decoder_unit::DecoderFault;
use crate::sim::measure_detection_on;
use crate::workload::{model_by_name, WorkloadSpec};
use proptest::prelude::*;
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

/// A scenario on [`small_config`] drawn from `(site, process, a, b)`:
/// a row-decoder, cell, data-register or column-decoder site under a
/// permanent (delayed or not), transient or intermittent process whose
/// periods (0, 1, 2, 8, beyond 64) and duties (0, below, at and past
/// the period) cover every activation pattern, onsets and duty-cycle
/// windows wrapping past residue 0 included.
fn drawn_scenario(site: u8, process: u8, a: u64, b: u64) -> FaultScenario {
    let row_faults = decoder_fault_universe(4);
    let col_faults = decoder_fault_universe(2);
    let site = match site % 4 {
        0 => FaultSite::RowDecoder(row_faults[(a % row_faults.len() as u64) as usize]),
        1 => FaultSite::Cell {
            row: (a % 16) as usize,
            col: (b % 36) as usize,
            stuck: a & 1 == 1,
        },
        2 => FaultSite::DataRegisterBit {
            bit: (b % 8) as u32,
            stuck: b & 1 == 1,
        },
        _ => FaultSite::ColDecoder(col_faults[(a % col_faults.len() as u64) as usize]),
    };
    let onset = b % 40;
    let period = [0, 1, 2, 8, 70][(a % 5) as usize];
    let process = match process % 4 {
        0 => FaultProcess::Permanent { onset },
        1 => FaultProcess::TransientFlip { at: onset },
        _ => FaultProcess::Intermittent {
            onset,
            period,
            duty: (b >> 8) % (period + 3),
        },
    };
    FaultScenario { site, process }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The activation schedule and the flip cursor against the scalar
    /// backend's per-cycle `pins_site_at`, over a sparse stream: the
    /// clock jumps (by `advance`) over gaps of up to 90 cycles, so
    /// window edges, phase runs and one-shot flips are passed, not
    /// landed on.
    #[test]
    fn prop_sparse_streams_match_scalar_across_advance_jumps(
        draws in proptest::collection::vec((0u8..4, 0u8..4, any::<u64>(), any::<u64>()), 1..100),
        gaps in proptest::collection::vec((0u64..4, 0u64..90), 1..60),
        seed in any::<u64>(),
    ) {
        let cfg = small_config();
        let scenarios: Vec<FaultScenario> = draws
            .iter()
            .map(|&(site, process, a, b)| drawn_scenario(site, process, a, b))
            .collect();
        let stream = ops(seed, gaps.len(), 0.3);
        let mut cycle = 0;
        let timed: Vec<(u64, Op)> = gaps
            .iter()
            .zip(&stream)
            .map(|(&(kind, gap), &op)| {
                // Mostly consecutive cycles, with an occasional long jump.
                cycle += if kind == 0 { gap } else { 0 };
                let at = cycle;
                cycle += 1;
                (at, op)
            })
            .collect();
        let mut sliced = SlicedBackend::<2>::prefilled(&cfg, &scenarios, seed);
        let per_op: Vec<SlicedObservation<2>> = timed
            .iter()
            .map(|&(at, op)| {
                sliced.advance(at - sliced.cycle());
                sliced.step(op)
            })
            .collect();
        for (lane, s) in scenarios.iter().enumerate() {
            let mut scalar = BehavioralBackend::prefilled(&cfg, seed);
            scalar.reset(Some(s));
            for (&(at, op), obs) in timed.iter().zip(&per_op) {
                scalar.advance(at - scalar.cycle());
                prop_assert_eq!(obs.lane(lane), scalar.step(op), "lane {} {} cycle {}", lane, s, at);
            }
        }
    }
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

/// The per-bit reference for the packed prefill: one seeded write per
/// word in address order, each bit stored at its `split_address` cell
/// index.
fn per_bit_prefill(cfg: &RamConfig, seed: u64) -> Vec<u64> {
    let org = cfg.org();
    let mux = org.mux_factor() as usize;
    let m = org.word_bits() as usize;
    let stride = m + 1;
    let value_mask = if m >= 64 { u64::MAX } else { (1u64 << m) - 1 };
    let mut bits = vec![0u64; (org.words() as usize * stride).div_ceil(64)];
    let mut rng = SmallRng::seed_from_u64(seed);
    for addr in 0..org.words() {
        let value = rng.gen::<u64>() & value_mask;
        let parity = value.count_ones() % 2 == 1;
        let (rv, cv) = cfg.split_address(addr);
        let site = (rv as usize * mux + cv as usize) * stride;
        for k in 0..stride {
            let wbit = if k == m { parity } else { value >> k & 1 == 1 };
            set_uniform_bit(&mut bits, site + k, wbit);
        }
    }
    bits
}

#[test]
fn packed_prefill_matches_the_per_bit_replay_and_the_scalar_image() {
    let probe: FaultScenario = FaultSite::DataRegisterBit {
        bit: 0,
        stuck: true,
    }
    .into();
    for m in [1u32, 7, 16, 63, 64] {
        for mux in [1u32, 2, 8] {
            let words = 16 * mux as u64;
            let org = RamOrganization::new(words, m, mux);
            let cfg = RamConfig::new(
                org,
                CodewordMap::input_parity(words / mux as u64),
                CodewordMap::input_parity(mux as u64),
            );
            let stride = m as usize + 1;
            let seed = 0x5EED ^ (m as u64) << 8 ^ mux as u64;
            let bits = &SlicedBackend::<1>::prefilled(&cfg, &[probe], seed)
                .cells
                .base;
            assert_eq!(bits, &per_bit_prefill(&cfg, seed), "m {m} mux {mux}: image");
            let scalar = BehavioralBackend::prefilled(&cfg, seed);
            for addr in 0..words {
                let read = scalar.faulty().read(addr);
                let site = addr as usize * stride;
                let data = (0..m as usize).fold(0u64, |acc, k| {
                    acc | (uniform_bit(bits, site + k) as u64) << k
                });
                assert_eq!(data, read.data, "m {m} mux {mux} addr {addr}: data");
                assert_eq!(
                    uniform_bit(bits, site + m as usize),
                    read.parity_bit,
                    "m {m} mux {mux} addr {addr}: parity"
                );
            }
        }
    }
}

/// 1K words × 4 bits, 1-of-4 mux: 1024 sites. Both mappings alias
/// (rows mod 9, columns mod 3), so some double selections pass the code
/// check and their companion writes linger into later reads.
fn reuse_config() -> RamConfig {
    let org = RamOrganization::new(1024, 4, 4);
    let code = MOutOfN::new(3, 5).unwrap();
    RamConfig::new(
        org,
        CodewordMap::mod_a(code, 9, 256).unwrap(),
        CodewordMap::mod_a(code, 3, 4).unwrap(),
    )
}

/// A lane that never detects anything: its delayed onset lies beyond
/// every trial, so a pack holding it runs each trial to the horizon.
fn dormant() -> FaultScenario {
    FaultScenario {
        site: FaultSite::Cell {
            row: 0,
            col: 0,
            stuck: true,
        },
        process: FaultProcess::Permanent { onset: u64::MAX },
    }
}

/// Every site class and process on [`reuse_config`], decoder and ROM
/// faults included, in a pool of more than 512 scenarios.
fn reuse_pool() -> Vec<FaultScenario> {
    let cell = |row, col, stuck| FaultSite::Cell { row, col, stuck };
    let mut v: Vec<FaultScenario> = vec![
        cell(3, 7, true).into(),
        cell(200, 19, false).into(),
        FaultScenario::transient(cell(5, 2, true), 0),
        FaultScenario::transient(cell(17, 11, false), 6),
        FaultScenario::transient(cell(255, 19, false), 40),
        FaultScenario {
            site: cell(9, 4, true),
            process: FaultProcess::Intermittent {
                onset: 3,
                period: 5,
                duty: 2,
            },
        },
        FaultScenario {
            site: cell(12, 8, false),
            process: FaultProcess::Permanent { onset: 9 },
        },
        FaultScenario {
            site: cell(1, 0, false),
            process: FaultProcess::Coupling {
                aggressor: CellRef { row: 3, col: 2 },
                kind: CouplingKind::Inversion,
            },
        },
        FaultScenario {
            site: cell(64, 17, false),
            process: FaultProcess::Coupling {
                aggressor: CellRef { row: 64, col: 16 },
                kind: CouplingKind::Idempotent { value: true },
            },
        },
        FaultSite::RowRomBit { line: 7, bit: 2 }.into(),
        FaultScenario::transient(FaultSite::RowRomBit { line: 130, bit: 0 }, 4),
        FaultSite::ColRomBit { line: 1, bit: 0 }.into(),
        FaultSite::RowRomColumn {
            bit: 0,
            stuck: true,
        }
        .into(),
        FaultSite::RowRomColumn {
            bit: 4,
            stuck: false,
        }
        .into(),
        FaultSite::ColRomColumn {
            bit: 3,
            stuck: false,
        }
        .into(),
        FaultSite::DataRegisterBit {
            bit: 3,
            stuck: true,
        }
        .into(),
    ];
    for (i, f) in decoder_fault_universe(2).into_iter().enumerate() {
        let site = FaultSite::ColDecoder(f);
        v.push(match i % 3 {
            0 => FaultScenario::transient(site, i as u64),
            1 => FaultScenario {
                site,
                process: FaultProcess::Permanent { onset: i as u64 },
            },
            _ => site.into(),
        });
    }
    // Row-decoder faults under every pinning process the activation
    // schedule distinguishes: glitches, delayed onsets, and duty cycles
    // of period 0, 1, 8 and beyond 64, including duty ≥ period and
    // duty 0; their tables are expanded, topped up and swept lazily.
    let intermittent = |onset, period, duty| FaultProcess::Intermittent {
        onset,
        period,
        duty,
    };
    for (i, f) in decoder_fault_universe(8).into_iter().enumerate() {
        let site = FaultSite::RowDecoder(f);
        let i = i as u64;
        let process = match i % 10 {
            0 => FaultProcess::TransientFlip { at: i % 50 },
            1 => intermittent(1, 6, 3),
            2 => FaultProcess::Permanent { onset: i % 40 },
            3 => intermittent(i % 7, 0, 0),
            4 => intermittent(2, 1, 1),
            5 => intermittent(i % 11, 8, 2),
            6 => intermittent(i % 90, 100, 37),
            7 => intermittent(i % 5, 4, 4 + i % 3),
            8 => intermittent(3, 8, 0),
            _ => FaultProcess::PERMANENT,
        };
        v.push(FaultScenario { site, process });
    }
    assert!(v.len() > 512, "the pool must fill the widest slab");
    v
}

/// Members of a site set.
fn site_count(set: &SiteSet) -> u32 {
    set.bits.iter().map(|w| w.count_ones()).sum()
}

/// The state a backend's cells stand for: the stored slab at a
/// materialised site, the prefill on every lane elsewhere.
fn logical_cells<const W: usize>(b: &SlicedBackend<W>) -> Vec<LaneSet<W>> {
    let c = &b.cells;
    (0..c.slabs.len())
        .map(|idx| {
            if c.materialized.contains(idx / c.stride) {
                c.slabs[idx]
            } else {
                LaneSet::splat(uniform_bit(&c.base, idx))
            }
        })
        .collect()
}

fn run_trial<const W: usize>(backend: &mut SlicedBackend<W>, ops: &[Op]) -> Vec<DetectionOutcome> {
    measure_detection_sliced(backend, &mut ReplayOps::new(ops), ops.len() as u64)
}

/// What one backend reused through `reset` did over a run of trials.
struct Reuse {
    /// Per-trial outcomes.
    outcomes: Vec<Vec<DetectionOutcome>>,
    /// Sites each trial left dirty.
    dirtied: Vec<u32>,
    /// Sites materialised right after each trial's reset and at its end.
    materialized: Vec<(u32, u32)>,
    /// `(row value, lane)` pairs expanded by the end of each trial.
    expansions: Vec<usize>,
}

/// The `(row value, lane)` pairs a backend's row tables hold.
fn expanded_pairs<const W: usize>(b: &SlicedBackend<W>) -> usize {
    b.rows.iter().map(|r| r.expanded.count() as usize).sum()
}

/// Run every trial of `trials` on one backend reused through `reset`,
/// checking after each reset that the dirty set is empty and that its
/// cells and golden image stand for the fresh build's.
fn run_reused<const W: usize>(
    cfg: &RamConfig,
    pack: &[FaultScenario],
    seed: u64,
    trials: &[Vec<Op>],
) -> Reuse {
    let pristine = SlicedBackend::<W>::prefilled(cfg, pack, seed);
    assert_eq!(site_count(&pristine.cells.materialized), 0);
    let pristine_cells = logical_cells(&pristine);
    let mut reused = pristine.clone();
    let mut out = Reuse {
        outcomes: Vec::new(),
        dirtied: Vec::new(),
        materialized: Vec::new(),
        expansions: Vec::new(),
    };
    for ops in trials {
        reused.reset();
        // Every change the last trial made — companion writes included,
        // even those no later observation happens to read — is undone.
        assert_eq!(site_count(&reused.dirty), 0, "reset drains the dirty set");
        assert!(logical_cells(&reused) == pristine_cells && reused.gold == pristine.gold);
        let at_reset = site_count(&reused.cells.materialized);
        out.outcomes.push(run_trial(&mut reused, ops));
        out.dirtied.push(site_count(&reused.dirty));
        let at_end = site_count(&reused.cells.materialized);
        out.materialized.push((at_reset, at_end));
        // No pair is ever expanded twice.
        assert_eq!(reused.expansions, expanded_pairs(&reused));
        out.expansions.push(reused.expansions);
    }
    out
}

/// [`run_reused`], plus the outcomes of a fresh backend per trial.
fn reuse_and_fresh<const W: usize>(
    cfg: &RamConfig,
    pack: &[FaultScenario],
    seed: u64,
    trials: &[Vec<Op>],
) -> (Reuse, Vec<Vec<DetectionOutcome>>) {
    let fresh = trials
        .iter()
        .map(|ops| run_trial(&mut SlicedBackend::<W>::prefilled(cfg, pack, seed), ops))
        .collect();
    (run_reused::<W>(cfg, pack, seed, trials), fresh)
}

/// One backend reused through `reset` over 2–3 trials must match a
/// fresh backend per trial, at 1, 17 or 512 lanes drawn from
/// [`reuse_pool`]: the activation schedule, the flip cursor, row
/// top-ups and lazy row sweeps all restart exactly.
fn check_reset_reuse(width_idx: usize, long: bool, offset: usize, trials: usize, seed: u64) {
    let cfg = reuse_config();
    let lanes = [1usize, 17, 512][width_idx];
    let pool = reuse_pool();
    // Packs wider than one lane lead with the dormant lane, so their
    // trials run to the horizon and a long one dirties every site.
    let mut pack: Vec<FaultScenario> = Vec::with_capacity(lanes);
    if lanes > 1 {
        pack.push(dormant());
    }
    pack.extend(
        pool.iter()
            .cycle()
            .skip(offset)
            .take(lanes - pack.len())
            .cloned(),
    );
    let model = model_by_name("uniform").unwrap();
    let spec = WorkloadSpec {
        words: 1024,
        word_bits: 4,
        write_fraction: 0.5,
    };
    let cycles = if long { 1200 } else { 12 };
    // A long trial also writes every word once, interleaved with its
    // first 1024 ops.
    let streams: Vec<Vec<Op>> = (0..trials as u64)
        .map(|t| {
            let mut stream = model.stream(spec, seed.wrapping_add(t));
            let mut ops = Vec::new();
            for cycle in 0..cycles {
                ops.push(stream.next_op());
                if long && cycle < 1024 {
                    ops.push(Op::Write(cycle, seed.rotate_left(cycle as u32)));
                }
            }
            ops
        })
        .collect();
    let (reused, fresh) = if lanes > 64 {
        reuse_and_fresh::<8>(&cfg, &pack, seed, &streams)
    } else {
        reuse_and_fresh::<1>(&cfg, &pack, seed, &streams)
    };
    assert_eq!(&reused.outcomes, &fresh);
    let (dirtied, materialized) = (&reused.dirtied, &reused.materialized);
    // One lane's 12 ops mark and materialise at most 36 sites (the
    // addressed word, a companion, and a flip or victim); the sweep
    // marks all 1024.
    if !long && lanes == 1 {
        assert!(dirtied.iter().all(|&n| n <= 36), "{:?}", dirtied);
        assert!(
            materialized
                .iter()
                .all(|&(at_reset, at_end)| at_end - at_reset <= 36),
            "{:?}",
            materialized
        );
    } else if long && lanes > 1 {
        assert!(dirtied.iter().all(|&n| n == 1024), "{:?}", dirtied);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_reset_reuse_matches_a_fresh_backend_per_trial(
        width_idx in 0usize..3,
        long in any::<bool>(),
        offset in 0usize..800,
        trials in 2usize..=3,
        seed in any::<u64>(),
    ) {
        check_reset_reuse(width_idx, long, offset, trials, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The 256-case run of [`check_reset_reuse`], left to CI's
    /// lane-packing step (`--include-ignored`).
    #[test]
    #[ignore]
    fn prop_reset_reuse_matches_a_fresh_backend_per_trial_256(
        width_idx in 0usize..3,
        long in any::<bool>(),
        offset in 0usize..800,
        trials in 2usize..=3,
        seed in any::<u64>(),
    ) {
        check_reset_reuse(width_idx, long, offset, trials, seed);
    }
}

/// A dormant lane plus 511 row-decoder faults on [`reuse_config`], and
/// one 12-op trial repeated three times: a read of a row a fault
/// double-selects ORs in that lane's companion site, so one read can
/// pull in hundreds of sites, and every row the trial applies expands
/// hundreds of lanes.
fn repeated_decoder_trials() -> (Vec<FaultScenario>, Vec<Vec<Op>>) {
    let mut pack: Vec<FaultScenario> = decoder_fault_universe(8)
        .into_iter()
        .map(|f| FaultSite::RowDecoder(f).into())
        .cycle()
        .take(512)
        .collect();
    pack[0] = dormant();
    let model = model_by_name("uniform").unwrap();
    let spec = WorkloadSpec {
        words: 1024,
        word_bits: 4,
        write_fraction: 0.5,
    };
    let mut stream = model.stream(spec, 7);
    let ops: Vec<Op> = (0..12).map(|_| stream.next_op()).collect();
    (pack, vec![ops; 3])
}

#[test]
fn a_repeated_trial_materialises_no_new_site() {
    let cfg = reuse_config();
    let (pack, trials) = repeated_decoder_trials();
    let reuse = run_reused::<8>(&cfg, &pack, 7, &trials);
    assert!(reuse.outcomes.iter().all(|o| o == &reuse.outcomes[0]));
    // A build expands nothing; then the companions, not the 12
    // addressed words, dominate the set.
    let (built, first) = reuse.materialized[0];
    assert_eq!(built, 0);
    assert!(first > 100, "a wide decoder pack reads {first} sites");
    // Sites stay materialised across resets, read-only companions
    // included, so a repeat of the trial expands none of them again.
    assert_eq!(reuse.materialized[1..], [(first, first); 2]);
}

#[test]
fn a_row_first_applied_while_a_lane_is_retired_is_topped_up_after_reset() {
    let cfg = small_config();
    // Lane 0: row-decoder line 3 stuck at 1, so every other row value
    // double-selects row 3 (a wired-OR read and a row code error).
    // Lane 1: a ROM bit fault on line 9.
    let scenarios: Vec<FaultScenario> = vec![
        FaultSite::RowDecoder(DecoderFault {
            bits: 4,
            offset: 0,
            value: 3,
            stuck_one: true,
        })
        .into(),
        FaultSite::RowRomBit { line: 9, bit: 1 }.into(),
    ];
    let row9 = 9 * 4;
    let row3 = 3 * 4;
    let mut b = SlicedBackend::<1>::prefilled(&cfg, &scenarios, 4);
    b.step(Op::Write(row3, 0x5A));
    b.retire(LaneSet::bit(0));
    // Row 9 is first applied with lane 0 retired: its tables skip lane 0.
    let obs = b.step(Op::Read(row9));
    assert!(obs.row_code_error.test(1) && !obs.row_code_error.test(0));
    assert_eq!(b.rows[9].expanded, LaneSet::bit(1));
    b.reset();
    // The tables persist across the reset; lane 0 is topped up on the
    // row's next use, and the backend then steps like a fresh one.
    assert_eq!(b.rows[9].expanded, LaneSet::bit(1));
    let mut fresh = SlicedBackend::<1>::prefilled(&cfg, &scenarios, 4);
    for op in [
        Op::Write(row3, 0x5A),
        Op::Read(row9),
        Op::Write(row9, 0xA5),
        Op::Read(row3),
        Op::Read(row9),
    ] {
        assert_eq!(b.step(op), fresh.step(op), "{op:?}");
    }
    assert_eq!(b.rows[9].expanded, b.lane_mask());
    assert!(fresh.step(Op::Read(row9)).row_code_error.test(0));
    // Each (row value, lane) pair was expanded once: rows 3 and 9 for
    // both lanes (row 3's first use preceded the retirement).
    assert_eq!(b.expansions, 4);

    // A reused 512-lane decoder pack repeating one trial: the first run
    // expands, for each row value the trial applies, exactly the lanes
    // not yet detected (so not retired) when it first applies it; the
    // repeats retire the same lanes at the same cycles and expand
    // nothing.
    let cfg = reuse_config();
    let (pack, trials) = repeated_decoder_trials();
    let reuse = run_reused::<8>(&cfg, &pack, 7, &trials);
    let outcomes = &reuse.outcomes[0];
    let mut seen = std::collections::HashSet::new();
    let mut expected = 0;
    for (cycle, &op) in trials[0].iter().enumerate() {
        if cycle as u64 >= outcomes[0].cycles_run {
            break;
        }
        let (Op::Read(addr) | Op::Write(addr, _)) = op;
        if seen.insert(cfg.split_address(addr).0) {
            expected += outcomes[1..]
                .iter()
                .filter(|o| o.first_detection.is_none_or(|d| d >= cycle as u64))
                .count();
        }
    }
    assert!(expected > 1000, "{expected} pairs");
    assert_eq!(reuse.expansions, [expected; 3]);
}

#[test]
fn a_row_swept_while_a_retirement_is_pending_is_whole_after_reset() {
    let cfg = small_config();
    // Lane 0: row-decoder line 3 stuck at 1, so every access to another
    // row also selects row 3. Lanes 1–8 never detect; retiring all
    // eight fills a sweep batch.
    let mut scenarios: Vec<FaultScenario> = vec![FaultSite::RowDecoder(DecoderFault {
        bits: 4,
        offset: 0,
        value: 3,
        stuck_one: true,
    })
    .into()];
    scenarios.extend((1..=8).map(|_| dormant()));
    let (row3, row9) = (3 * 4, 9 * 4);
    let mut b = SlicedBackend::<1>::prefilled(&cfg, &scenarios, 4);
    // Trial 1 expands row 9 for lane 0, then sweeps a full batch.
    b.step(Op::Read(row9));
    b.retire(LaneSet::first_n(9) & !LaneSet::bit(0));
    assert!(b.pending_retire.is_empty(), "the batch was swept");
    b.reset();
    // Trial 2 retires lane 0 alone, so no sweep runs, and then applies
    // row 9 for the first time since the sweep.
    b.retire(LaneSet::bit(0));
    assert_eq!(b.pending_retire, LaneSet::bit(0));
    b.step(Op::Read(row9));
    b.reset();
    // Trial 3: lane 0 is live again, and its reads of row 9 OR in row 3.
    let mut fresh = SlicedBackend::<1>::prefilled(&cfg, &scenarios, 4);
    for op in [Op::Write(row9, 0), Op::Write(row3, 0xFF), Op::Read(row9)] {
        assert_eq!(b.step(op), fresh.step(op), "{op:?}");
    }
    assert!(fresh.step(Op::Read(row9)).erroneous.test(0));
}
