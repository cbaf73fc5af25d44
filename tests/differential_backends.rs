//! Cross-backend differential oracle: the behavioural twin-pair backend
//! and the gate-level netlist backend must agree on the **detection
//! outcome** of every cell of an identical fault × trial grid.
//!
//! The behavioural model is the campaign workhorse; the gate-level model
//! is ground truth for decoder faults (the actual generated decoder →
//! NOR-matrix → checker hardware with the stuck-at on the exact signal).
//! Property-testing them against each other over random geometries,
//! constant-weight codes, moduli and workload models is the oracle that
//! catches a divergence in either model's fault semantics.
//!
//! Agreement is asserted cycle by cycle on the decoder code verdicts
//! (`row_code_error` / `col_code_error`) — the only checkers both models
//! evaluate (the gate backend has no cell array, so parity is behavioural
//! only) — and, derived from them, on the first-detection cycle of every
//! trial.

use proptest::prelude::*;
use scm_area::RamOrganization;
use scm_codes::{CodewordMap, MOutOfN};
use scm_memory::backend::{BehavioralBackend, CycleObservation, FaultSimBackend, GateLevelBackend};
use scm_memory::campaign::decoder_fault_universe;
use scm_memory::design::RamConfig;
use scm_memory::fault::{CellRef, CouplingKind, FaultProcess, FaultScenario, FaultSite};
use scm_memory::sliced::{with_slab_words, SlabTask, SlicedBackend, SlicedObservation};
use scm_memory::workload::{model_by_name, Op, WorkloadSpec, MODEL_NAMES};

/// Constant-weight codes the gate-level checker generator can realise.
const CODES: [(u32, u32); 4] = [(2, 3), (3, 5), (2, 5), (3, 6)];

/// Odd moduli for the `B = A mod a` mapping.
const MODULI: [u64; 4] = [3, 5, 7, 9];

fn mix(seed: u64, fidx: usize, trial: u32) -> u64 {
    scm_system::seed_mix(seed, &[fidx as u64, trial as u64])
}

/// Per-lane, per-cycle observations of one scenario pack replayed at
/// the given lane width (scenarios per backend pass). Each chunk runs
/// at the narrowest multi-word slab that fits it — exactly how the
/// campaign engines pack — so equal results across widths is the slab
/// exactness contract, not a tautology.
fn sliced_observations(
    config: &RamConfig,
    scenarios: &[FaultScenario],
    seed: u64,
    ops: &[Op],
    width: usize,
) -> Vec<Vec<CycleObservation>> {
    struct Observe<'a> {
        config: &'a RamConfig,
        chunk: &'a [FaultScenario],
        seed: u64,
        ops: &'a [Op],
    }
    impl SlabTask for Observe<'_> {
        type Output = Vec<Vec<CycleObservation>>;
        fn run<const W: usize>(self) -> Vec<Vec<CycleObservation>> {
            let mut backend = SlicedBackend::<W>::prefilled(self.config, self.chunk, self.seed);
            let per_cycle: Vec<SlicedObservation<W>> =
                self.ops.iter().map(|&op| backend.step(op)).collect();
            (0..self.chunk.len())
                .map(|lane| per_cycle.iter().map(|obs| obs.lane(lane)).collect())
                .collect()
        }
    }
    scenarios
        .chunks(width)
        .flat_map(|chunk| {
            with_slab_words(
                chunk.len(),
                Observe {
                    config,
                    chunk,
                    seed,
                    ops,
                },
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_behavioral_and_gate_level_agree_on_detection(
        row_bits in 3u32..=6,
        mux_log in 1u32..=3,
        word_bits in 4u32..=16,
        code_idx in 0usize..CODES.len(),
        a_idx in 0usize..MODULI.len(),
        model_idx in 0usize..MODEL_NAMES.len(),
        seed in any::<u64>(),
        trials in 1u32..=2,
    ) {
        let rows = 1u64 << row_bits;
        let mux = 1u32 << mux_log;
        let words = rows * mux as u64;
        let org = RamOrganization::new(words, word_bits, mux);
        let (q, r) = CODES[code_idx];
        let code = MOutOfN::new(q, r).expect("listed codes are valid");
        let a = MODULI[a_idx];
        // Skip (modulus, code, lines) combinations the mapping layer
        // rejects (e.g. a modulus exceeding the codeword count).
        let row_map = CodewordMap::mod_a(code, a, rows);
        let col_map = CodewordMap::mod_a(code, a, mux as u64);
        prop_assume!(row_map.is_ok() && col_map.is_ok());
        let config = RamConfig::new(org, row_map.unwrap(), col_map.unwrap());
        let mut gate = GateLevelBackend::try_new(&config)
            .expect("constant-weight mappings always build a gate-level path");
        let mut beh = BehavioralBackend::prefilled(&config, seed);
        let model = model_by_name(MODEL_NAMES[model_idx]).expect("registry names resolve");
        let spec = WorkloadSpec {
            words,
            word_bits,
            write_fraction: 0.15,
        };

        // The identical fault grid on both backends: row- and
        // column-decoder universes, evenly subsampled to keep 256 cases
        // fast without biasing toward either polarity or block size.
        let mut faults: Vec<FaultSite> = decoder_fault_universe(row_bits)
            .into_iter()
            .step_by(5)
            .map(FaultSite::RowDecoder)
            .collect();
        faults.extend(
            decoder_fault_universe(org.col_bits().max(1))
                .into_iter()
                .step_by(3)
                .map(FaultSite::ColDecoder),
        );

        for (fidx, &site) in faults.iter().enumerate() {
            prop_assert!(gate.supports(&site.into()), "{site:?}");
            for trial in 0..trials {
                let mut stream = model.stream(spec, mix(seed, fidx, trial));
                let ops: Vec<Op> = (0..16).map(|_| stream.next_op()).collect();
                gate.reset_site(Some(site));
                beh.reset_site(Some(site));
                let mut first_gate = None;
                let mut first_beh = None;
                for (cycle, &op) in ops.iter().enumerate() {
                    let g = gate.step(op);
                    let b = beh.step(op);
                    prop_assert_eq!(
                        g.verdict.row_code_error,
                        b.verdict.row_code_error,
                        "{:?} trial {} cycle {} op {:?}: row verdicts diverge",
                        site, trial, cycle, op
                    );
                    prop_assert_eq!(
                        g.verdict.col_code_error,
                        b.verdict.col_code_error,
                        "{:?} trial {} cycle {} op {:?}: col verdicts diverge",
                        site, trial, cycle, op
                    );
                    let code_detected =
                        |v: scm_memory::design::Verdict| v.row_code_error || v.col_code_error;
                    if code_detected(g.verdict) && first_gate.is_none() {
                        first_gate = Some(cycle);
                    }
                    if code_detected(b.verdict) && first_beh.is_none() {
                        first_beh = Some(cycle);
                    }
                }
                prop_assert_eq!(
                    first_gate,
                    first_beh,
                    "{:?} trial {}: detection outcome diverges",
                    site,
                    trial
                );
            }
        }
    }

    /// The temporal axis of the oracle: both backends must realise the
    /// same **activation windows** for any fault process on decoder
    /// sites — delayed permanents, one-cycle transient glitches,
    /// duty-cycled intermittents. The gate backend runs its batched
    /// 64-lane path (which must split bursts at window boundaries), the
    /// behavioural backend steps serially; code verdicts must agree
    /// cycle by cycle regardless.
    #[test]
    fn prop_backends_agree_on_activation_windows(
        row_bits in 3u32..=5,
        mux_log in 1u32..=2,
        a_idx in 0usize..MODULI.len(),
        process_kind in 0usize..4,
        t0 in 0u64..24,
        period in 2u64..=6,
        duty in 1u64..=3,
        seed in any::<u64>(),
    ) {
        let rows = 1u64 << row_bits;
        let mux = 1u32 << mux_log;
        let words = rows * mux as u64;
        let org = RamOrganization::new(words, 8, mux);
        let code = MOutOfN::new(3, 5).expect("3-out-of-5 exists");
        let a = MODULI[a_idx];
        let row_map = CodewordMap::mod_a(code, a, rows);
        let col_map = CodewordMap::mod_a(code, a, mux as u64);
        prop_assume!(row_map.is_ok() && col_map.is_ok());
        let config = RamConfig::new(org, row_map.unwrap(), col_map.unwrap());
        let mut gate = GateLevelBackend::try_new(&config)
            .expect("constant-weight mappings always build a gate-level path");
        let mut beh = BehavioralBackend::prefilled(&config, seed);
        let process = match process_kind {
            0 => FaultProcess::PERMANENT,
            1 => FaultProcess::Permanent { onset: t0 },
            2 => FaultProcess::TransientFlip { at: t0 },
            _ => FaultProcess::Intermittent { onset: t0 % period, period, duty },
        };
        let model = model_by_name("uniform").expect("registry names resolve");
        let spec = WorkloadSpec { words, word_bits: 8, write_fraction: 0.15 };

        let faults: Vec<FaultSite> = decoder_fault_universe(row_bits)
            .into_iter()
            .step_by(7)
            .map(FaultSite::RowDecoder)
            .collect();
        for (fidx, &site) in faults.iter().enumerate() {
            let scenario = FaultScenario { site, process };
            prop_assert!(gate.supports(&scenario), "{}", scenario);
            prop_assert!(beh.supports(&scenario), "{}", scenario);
            // Cycle counts straddling the 64-lane burst boundary, so the
            // batched path must split windows inside and across bursts.
            let mut stream = model.stream(spec, mix(seed, fidx, 0));
            let ops: Vec<Op> = (0..80).map(|_| stream.next_op()).collect();
            gate.reset(Some(&scenario));
            beh.reset(Some(&scenario));
            let batched = gate.step_many(&ops);
            for (cycle, (&op, g)) in ops.iter().zip(&batched).enumerate() {
                let b = beh.step(op);
                prop_assert_eq!(
                    g.verdict.row_code_error,
                    b.verdict.row_code_error,
                    "{} cycle {} op {:?}: row verdicts diverge",
                    scenario, cycle, op
                );
                prop_assert_eq!(
                    g.verdict.col_code_error,
                    b.verdict.col_code_error,
                    "{} cycle {} op {:?}: col verdicts diverge",
                    scenario, cycle, op
                );
            }
        }
    }

}

proptest! {
    // Fewer cases than the scalar oracles above: each case replays a
    // >64-lane pack at five slab widths, so the per-case work is ~4×.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The bit-sliced engine against both scalar oracles on one shared
    /// op stream: lane `L` of a sliced run over a random scenario pack
    /// must equal a scalar behavioural run of scenario `L` on the
    /// identical prefill seed, observation by observation — and, on
    /// decoder sites, the gate-level hardware must agree with that lane's
    /// code verdicts cycle by cycle. The pack exceeds 64 scenarios so
    /// slab widths 128/256 genuinely run multi-word slabs; every width in
    /// {1, 8, 64, 128, 256} must reproduce the reference bit-for-bit.
    #[test]
    fn prop_sliced_lanes_match_scalar_backends(
        row_bits in 3u32..=5,
        mux_log in 1u32..=2,
        word_bits in 4u32..=12,
        grid in any::<u64>(),
        process_kind in 0usize..6,
        knobs in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // The vendored proptest stops at 8-tuples: the code/modulus/
        // model pick and the temporal knobs ride packed words.
        let code_idx = (grid % CODES.len() as u64) as usize;
        let a_idx = ((grid >> 8) % MODULI.len() as u64) as usize;
        let model_idx = ((grid >> 16) % MODEL_NAMES.len() as u64) as usize;
        let t0 = knobs % 20;
        let period = 2 + (knobs >> 8) % 5;
        let duty = 1 + (knobs >> 16) % 3;
        let rows = 1u64 << row_bits;
        let mux = 1u32 << mux_log;
        let words = rows * mux as u64;
        let org = RamOrganization::new(words, word_bits, mux);
        let (q, r) = CODES[code_idx];
        let code = MOutOfN::new(q, r).expect("listed codes are valid");
        let a = MODULI[a_idx];
        let row_map = CodewordMap::mod_a(code, a, rows);
        let col_map = CodewordMap::mod_a(code, a, mux as u64);
        prop_assume!(row_map.is_ok() && col_map.is_ok());
        let config = RamConfig::new(org, row_map.unwrap(), col_map.unwrap());
        let process = match process_kind {
            0 => FaultProcess::PERMANENT,
            1 => FaultProcess::Permanent { onset: t0 },
            2 => FaultProcess::TransientFlip { at: t0 },
            3 => FaultProcess::Intermittent { onset: t0 % period, period, duty },
            4 => FaultProcess::Coupling {
                aggressor: CellRef { row: 0, col: 1 },
                kind: CouplingKind::Inversion,
            },
            _ => FaultProcess::Coupling {
                aggressor: CellRef { row: rows as usize - 1, col: 0 },
                kind: CouplingKind::Idempotent { value: true },
            },
        };

        // A mixed pack across every site class of the random geometry.
        let mut sites: Vec<FaultSite> = vec![
            FaultSite::Cell { row: 0, col: 0, stuck: true },
            FaultSite::Cell {
                row: rows as usize - 1,
                col: word_bits as usize - 1,
                stuck: false,
            },
            FaultSite::DataRegisterBit { bit: 0, stuck: true },
            FaultSite::DataRegisterBit { bit: word_bits - 1, stuck: false },
            FaultSite::RowRomBit { line: rows - 1, bit: 0 },
            FaultSite::RowRomColumn { bit: 1, stuck: true },
        ];
        sites.extend(
            decoder_fault_universe(row_bits)
                .into_iter()
                .step_by(9)
                .map(FaultSite::RowDecoder),
        );
        sites.extend(
            decoder_fault_universe(org.col_bits().max(1))
                .into_iter()
                .step_by(4)
                .map(FaultSite::ColDecoder),
        );
        // Tile cell faults across the geometry until the pack needs a
        // ≥3-word slab at width 256 (and splits into mixed-width chunks
        // at 128) — otherwise the wide-slab paths would never run.
        'tile: for row in 0..rows as usize {
            for col in 0..word_bits as usize {
                if sites.len() >= 160 {
                    break 'tile;
                }
                sites.push(FaultSite::Cell { row, col, stuck: (row + col) % 2 == 0 });
            }
        }
        sites.truncate(160);
        // Apply the drawn process wherever the sliced engine can realise
        // it (coupling needs a cell victim); other sites fall back to the
        // classical permanent so every lane still carries a scenario.
        let scenarios: Vec<FaultScenario> = sites
            .iter()
            .map(|&site| {
                let s = FaultScenario { site, process };
                if SlicedBackend::<1>::supports(&s) {
                    s
                } else {
                    FaultScenario { site, process: FaultProcess::PERMANENT }
                }
            })
            .collect();

        let model = model_by_name(MODEL_NAMES[model_idx]).expect("registry names resolve");
        let spec = WorkloadSpec {
            words,
            word_bits,
            write_fraction: 0.2,
        };
        let mut stream = model.stream(spec, seed ^ 0x51_1CED);
        let ops: Vec<Op> = (0..40).map(|_| stream.next_op()).collect();

        let reference = sliced_observations(&config, &scenarios, seed, &ops, 64);
        let mut gate = GateLevelBackend::try_new(&config)
            .expect("constant-weight mappings always build a gate-level path");
        for (lane, s) in scenarios.iter().enumerate() {
            let mut scalar = BehavioralBackend::prefilled(&config, seed);
            scalar.reset(Some(s));
            let three_way = gate.supports(s);
            if three_way {
                gate.reset(Some(s));
            }
            for (cycle, &op) in ops.iter().enumerate() {
                let expect = scalar.step(op);
                let got = reference[lane][cycle];
                prop_assert_eq!(
                    got, expect,
                    "lane {} {} cycle {} op {:?}: sliced diverges from scalar",
                    lane, s, cycle, op
                );
                if three_way {
                    let g = gate.step(op);
                    prop_assert_eq!(
                        g.verdict.row_code_error,
                        got.verdict.row_code_error,
                        "lane {} {} cycle {}: gate row verdict diverges",
                        lane, s, cycle
                    );
                    prop_assert_eq!(
                        g.verdict.col_code_error,
                        got.verdict.col_code_error,
                        "lane {} {} cycle {}: gate col verdict diverges",
                        lane, s, cycle
                    );
                }
            }
        }
        // Slab-width invariance: every packing reproduces the reference
        // bit-for-bit (1 = scalar-slab degenerate case, 8 = sub-word,
        // 128/256 = two- and three-word slabs over this 160-lane pack).
        for width in [1usize, 8, 128, 256] {
            let replay = sliced_observations(&config, &scenarios, seed, &ops, width);
            prop_assert_eq!(
                &replay, &reference,
                "lane width {} diverges from the width-64 reference", width
            );
        }
    }
}
