//! Monte-Carlo fault-injection campaigns.
//!
//! For each fault in a universe, run many independent trials of a seeded
//! workload against a fault-free twin and record whether the fault was
//! detected within the budgeted `c` cycles. The aggregated per-fault escape
//! frequencies are the *empirical* `Pndc` that validates (or falsifies) the
//! paper's analytical bound — the adjudication DESIGN.md (§ "Empirical
//! adjudication") promises.
//!
//! This module owns the campaign *vocabulary* — configuration, fault
//! universes, per-fault and whole-campaign statistics. Execution lives in
//! [`crate::engine::CampaignEngine`], which spreads the fault × trial grid
//! over a thread pool.

use crate::decoder_unit::{multilevel_blocks, DecoderFault};
use crate::design::RamConfig;
use crate::fault::{FaultProcess, FaultScenario, FaultSite};
use crate::sim::DetectionOutcome;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// The latency budget `c` in cycles.
    pub cycles: u64,
    /// Trials per fault.
    pub trials: u32,
    /// Base RNG seed (trial seeds derive deterministically).
    pub seed: u64,
    /// Write fraction of the workload.
    pub write_fraction: f64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            cycles: 10,
            trials: 32,
            seed: 0xC0FFEE,
            write_fraction: 0.1,
        }
    }
}

/// Aggregated result for one fault scenario.
#[derive(Debug, Clone)]
pub struct FaultResult {
    /// The injected fault site.
    pub site: FaultSite,
    /// The temporal process the site was driven by
    /// ([`FaultProcess::PERMANENT`] for the classical grids).
    pub process: FaultProcess,
    /// Trials run.
    pub trials: u32,
    /// Trials with no detection within the budget.
    pub undetected: u32,
    /// Trials where an erroneous output escaped before detection.
    pub error_escapes: u32,
    /// Sum of detection cycles over detected trials (for means).
    pub detection_cycle_sum: u64,
    /// Sum over detected trials of `detection − true onset`: the onset is
    /// the silent-corruption instant for a transient flip, the first
    /// erroneous output otherwise (the paper's definition, unchanged for
    /// permanent faults).
    pub onset_latency_sum: u64,
    /// Detected trials.
    pub detected: u32,
}

impl FaultResult {
    /// A zeroed row for `scenario`, before any trial.
    pub(crate) fn empty(scenario: &FaultScenario) -> Self {
        FaultResult {
            site: scenario.site,
            process: scenario.process,
            trials: 0,
            undetected: 0,
            error_escapes: 0,
            detection_cycle_sum: 0,
            onset_latency_sum: 0,
            detected: 0,
        }
    }

    /// Fold one trial's outcome into the counters.
    pub(crate) fn record(&mut self, out: &DetectionOutcome) {
        self.trials += 1;
        match out.onset_latency(&self.process) {
            Some(latency) => {
                self.detected += 1;
                self.detection_cycle_sum += out.first_detection.unwrap_or_default();
                self.onset_latency_sum += latency;
            }
            None => self.undetected += 1,
        }
        if out.error_escaped() {
            self.error_escapes += 1;
        }
    }

    /// Add another trial range of the same scenario: every counter is a
    /// per-trial sum, so partials merge in any order.
    pub fn merge(&mut self, other: &FaultResult) {
        debug_assert_eq!(self.scenario(), other.scenario());
        self.trials += other.trials;
        self.undetected += other.undetected;
        self.error_escapes += other.error_escapes;
        self.detection_cycle_sum += other.detection_cycle_sum;
        self.onset_latency_sum += other.onset_latency_sum;
        self.detected += other.detected;
    }

    /// The full scenario this row campaigned.
    pub fn scenario(&self) -> FaultScenario {
        FaultScenario {
            site: self.site,
            process: self.process,
        }
    }

    /// Empirical `Pndc`: fraction of trials not detected within budget.
    pub fn escape_fraction(&self) -> f64 {
        self.undetected as f64 / self.trials as f64
    }

    /// Mean cycles to detection over detected trials.
    pub fn mean_detection_cycle(&self) -> Option<f64> {
        (self.detected > 0).then(|| self.detection_cycle_sum as f64 / self.detected as f64)
    }

    /// Mean detection latency from true onset over detected trials.
    pub fn mean_onset_latency(&self) -> Option<f64> {
        (self.detected > 0).then(|| self.onset_latency_sum as f64 / self.detected as f64)
    }
}

/// Per-process-class rollup of a campaign: how each temporal fault class
/// fared, side by side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessClassSummary {
    /// Scenarios of this class.
    pub scenarios: usize,
    /// Trials over all of them.
    pub trials: u64,
    /// Detected trials.
    pub detected: u64,
    /// Undetected trials (the escapes scrubbing exists to shrink).
    pub undetected: u64,
    /// Trials where an erroneous output escaped before detection.
    pub error_escapes: u64,
    /// Sum of onset-anchored detection latencies over detected trials.
    pub onset_latency_sum: u64,
}

impl ProcessClassSummary {
    /// Fraction of trials detected within the budget.
    pub fn detected_fraction(&self) -> f64 {
        self.detected as f64 / (self.trials.max(1)) as f64
    }

    /// Fraction of trials not detected within the budget.
    pub fn escape_fraction(&self) -> f64 {
        self.undetected as f64 / (self.trials.max(1)) as f64
    }

    /// Mean detection latency from true onset over detected trials.
    pub fn mean_onset_latency(&self) -> Option<f64> {
        (self.detected > 0).then(|| self.onset_latency_sum as f64 / self.detected as f64)
    }
}

/// Whole-campaign result.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Per-fault outcomes.
    pub per_fault: Vec<FaultResult>,
    /// The configuration used.
    pub config: CampaignConfig,
}

impl CampaignResult {
    /// Every per-fault counter in fault order — the canonical observable
    /// of the engine's determinism contract. Two runs of the same
    /// campaign must produce equal profiles at any thread count; every
    /// determinism assertion (tests, `montecarlo_validation`) compares
    /// this one projection so the contract cannot drift across copies.
    #[allow(clippy::type_complexity)]
    pub fn determinism_profile(&self) -> Vec<(FaultScenario, u32, u32, u32, u32, u64, u64)> {
        self.per_fault
            .iter()
            .map(|f| {
                (
                    f.scenario(),
                    f.trials,
                    f.undetected,
                    f.detected,
                    f.error_escapes,
                    f.detection_cycle_sum,
                    f.onset_latency_sum,
                )
            })
            .collect()
    }

    /// Worst per-fault empirical escape fraction.
    pub fn worst_escape(&self) -> f64 {
        self.per_fault
            .iter()
            .map(|f| f.escape_fraction())
            .fold(0.0, f64::max)
    }

    /// Worst per-fault fraction of trials in which an **erroneous output
    /// escaped detection** within the budget. This is the safety-relevant
    /// quantity the paper's bound controls: stuck-at-0 faults and
    /// small-block stuck-at-1 faults contribute zero (their errors are
    /// caught the same cycle), and a colliding stuck-at-1 approaches its
    /// error-conditional escape `(collisions − 1)/(2^i − 1)`.
    pub fn worst_error_escape(&self) -> f64 {
        self.per_fault
            .iter()
            .map(|f| f.error_escapes as f64 / f.trials as f64)
            .fold(0.0, f64::max)
    }

    /// Mean empirical escape fraction over the universe.
    pub fn mean_escape(&self) -> f64 {
        if self.per_fault.is_empty() {
            return 0.0;
        }
        self.per_fault
            .iter()
            .map(|f| f.escape_fraction())
            .sum::<f64>()
            / self.per_fault.len() as f64
    }

    /// Fraction of faults never detected in any trial.
    pub fn never_detected_fraction(&self) -> f64 {
        if self.per_fault.is_empty() {
            return 0.0;
        }
        self.per_fault.iter().filter(|f| f.detected == 0).count() as f64
            / self.per_fault.len() as f64
    }

    /// Escape fractions aggregated by fault class.
    pub fn by_class(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut map: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for f in &self.per_fault {
            let e = map.entry(f.site.class()).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += f.escape_fraction();
        }
        for v in map.values_mut() {
            v.1 /= v.0 as f64;
        }
        map
    }

    /// Detection/escape splits aggregated by temporal process class —
    /// the per-process view a mixed-scenario campaign reports.
    pub fn by_process_class(&self) -> BTreeMap<&'static str, ProcessClassSummary> {
        let mut map: BTreeMap<&'static str, ProcessClassSummary> = BTreeMap::new();
        for f in &self.per_fault {
            let e = map.entry(f.process.class()).or_insert(ProcessClassSummary {
                scenarios: 0,
                trials: 0,
                detected: 0,
                undetected: 0,
                error_escapes: 0,
                onset_latency_sum: 0,
            });
            e.scenarios += 1;
            e.trials += f.trials as u64;
            e.detected += f.detected as u64;
            e.undetected += f.undetected as u64;
            e.error_escapes += f.error_escapes as u64;
            e.onset_latency_sum += f.onset_latency_sum;
        }
        map
    }
}

/// Every stuck-at fault of a multilevel decoder with `n` inputs, in block
/// terms (both polarities on every block-output line).
pub fn decoder_fault_universe(n: u32) -> Vec<DecoderFault> {
    let mut faults = Vec::new();
    for (bits, offset) in multilevel_blocks(n) {
        for value in 0..(1u64 << bits) {
            for stuck_one in [false, true] {
                faults.push(DecoderFault {
                    bits,
                    offset,
                    value,
                    stuck_one,
                });
            }
        }
    }
    faults
}

/// The standard mixed universe for a RAM: all decoder faults on both
/// decoders plus sampled cell, ROM and register faults.
pub fn standard_fault_universe(config: &RamConfig, samples: usize, seed: u64) -> Vec<FaultSite> {
    let org = config.org();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut faults = Vec::new();
    for f in decoder_fault_universe(org.row_bits()) {
        faults.push(FaultSite::RowDecoder(f));
    }
    // A 1-way mux has no column decoder — no column faults exist for it.
    if org.col_bits() > 0 {
        for f in decoder_fault_universe(org.col_bits()) {
            faults.push(FaultSite::ColDecoder(f));
        }
    }
    let rows = org.rows() as usize;
    let cols = org.physical_cols() as usize;
    for _ in 0..samples {
        faults.push(FaultSite::Cell {
            row: rng.gen_range(0..rows),
            col: rng.gen_range(0..cols),
            stuck: rng.gen(),
        });
        faults.push(FaultSite::RowRomBit {
            line: rng.gen_range(0..org.rows()),
            bit: rng.gen_range(0..config.row_map().width() as u32),
        });
        faults.push(FaultSite::DataRegisterBit {
            bit: rng.gen_range(0..org.word_bits()),
            stuck: rng.gen(),
        });
    }
    faults
}

/// A sampled transient-SEU universe: `samples` one-shot cell flips with
/// seed-pure targets and strike cycles drawn uniformly from the first
/// half of `horizon` (so detection within the horizon is possible at
/// all). Pure in `(config, samples, horizon, seed)`.
pub fn transient_universe(
    config: &RamConfig,
    samples: usize,
    horizon: u64,
    seed: u64,
) -> Vec<FaultScenario> {
    let org = config.org();
    let rows = org.rows() as usize;
    let cols = org.physical_cols() as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E05);
    let window = (horizon / 2).max(1);
    (0..samples)
        .map(|_| {
            FaultScenario::transient(
                FaultSite::Cell {
                    row: rng.gen_range(0..rows),
                    col: rng.gen_range(0..cols),
                    stuck: false, // a flip has no polarity; the field is inert
                },
                rng.gen_range(0..window),
            )
        })
        .collect()
}

/// An intermittent decoder universe: every row-decoder fault driven by a
/// duty-cycled window whose phase is seed-pure per fault. Pure in
/// `(config, period, duty, seed)`.
pub fn intermittent_universe(
    config: &RamConfig,
    period: u64,
    duty: u64,
    seed: u64,
) -> Vec<FaultScenario> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x17E2);
    decoder_fault_universe(config.org().row_bits())
        .into_iter()
        .map(|f| FaultScenario {
            site: FaultSite::RowDecoder(f),
            process: FaultProcess::Intermittent {
                onset: rng.gen_range(0..period.max(1)),
                period,
                duty,
            },
        })
        .collect()
}

/// The standard mixed temporal universe: permanent decoder faults,
/// transient cell flips and intermittent decoder contacts side by side —
/// the fault-type diversity Papadopoulos et al. argue detection schemes
/// must be graded against.
pub fn mixed_universe(
    config: &RamConfig,
    samples: usize,
    horizon: u64,
    seed: u64,
) -> Vec<FaultScenario> {
    let mut universe: Vec<FaultScenario> = decoder_fault_universe(config.org().row_bits())
        .into_iter()
        .map(|f| FaultScenario::permanent(FaultSite::RowDecoder(f)))
        .collect();
    universe.extend(transient_universe(config, samples, horizon, seed));
    let intermittent = intermittent_universe(config, 8, 2, seed);
    let stride = (intermittent.len() / samples.max(1)).max(1);
    universe.extend(intermittent.into_iter().step_by(stride).take(samples));
    universe
}

/// A deterministic even subset of `universe` with at most `cap` entries:
/// every `⌈len / cap⌉`-th one, first included. `cap = 0` (or a cap the
/// universe already fits) keeps everything.
pub fn stride_sample<T: Copy>(universe: &[T], cap: usize) -> Vec<T> {
    let stride = if cap == 0 || universe.len() <= cap {
        1
    } else {
        universe.len().div_ceil(cap)
    };
    universe.iter().copied().step_by(stride).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CampaignEngine;
    use scm_area::RamOrganization;
    use scm_codes::{CodewordMap, MOutOfN};

    fn config() -> RamConfig {
        let org = RamOrganization::new(64, 8, 4);
        let code = MOutOfN::new(3, 5).unwrap();
        RamConfig::new(
            org,
            CodewordMap::mod_a(code, 9, 16).unwrap(),
            CodewordMap::mod_a(code, 9, 4).unwrap(),
        )
    }

    #[test]
    fn stride_sample_is_even_and_capped() {
        let universe = decoder_fault_universe(4);
        assert_eq!(stride_sample(&universe, 0), universe);
        let capped = stride_sample(&universe, 10);
        assert!(capped.len() <= 10 && capped.len() >= 8, "{}", capped.len());
        assert_eq!(capped[0], universe[0]);
        assert_eq!(capped[1], universe[universe.len().div_ceil(10)]);
        assert_eq!(stride_sample(&universe, 1000), universe);
    }

    #[test]
    fn decoder_universe_size() {
        // n = 4: blocks (1,2,2? no): blocks = 4×1-bit + 2×2-bit + 1×4-bit →
        // outputs 2+2+2+2 + 4+4 + 16 = 32 lines × 2 polarities.
        assert_eq!(decoder_fault_universe(4).len(), 64);
    }

    #[test]
    fn campaign_on_small_ram_smoke() {
        let cfg = config();
        let faults: Vec<FaultSite> = decoder_fault_universe(4)
            .into_iter()
            .map(FaultSite::RowDecoder)
            .collect();
        let result = CampaignEngine::new(CampaignConfig {
            cycles: 20,
            trials: 8,
            seed: 7,
            write_fraction: 0.1,
        })
        .run(&cfg, &faults);
        assert_eq!(result.per_fault.len(), 64);
        // SA0 faults: detected whenever the stuck line's field is applied;
        // escape only if the field never comes up — possible but should be
        // rare over 20 cycles for 1-bit blocks.
        // Global sanity: most faults detected most of the time.
        assert!(
            result.mean_escape() < 0.5,
            "mean escape {}",
            result.mean_escape()
        );
        // And the class map mentions the row decoder only.
        let classes = result.by_class();
        assert_eq!(classes.len(), 1);
        assert!(classes.contains_key("row-decoder"));
    }

    #[test]
    fn undetectable_collision_shows_up_as_never_detected() {
        // Row lines 0 and 9 share a codeword: SA1 on line 0 of the last
        // block escapes exactly when row 9 is the only erroneous selector.
        // Under uniform addressing it IS detected quickly via other rows,
        // so instead verify the per-fault escape of the known-colliding
        // fault is higher than a non-colliding one at c = 1.
        let cfg = config();
        let colliding = FaultSite::RowDecoder(DecoderFault {
            bits: 4,
            offset: 0,
            value: 0,
            stuck_one: true,
        });
        let clean = FaultSite::RowDecoder(DecoderFault {
            bits: 4,
            offset: 0,
            value: 14, // 14 mod 9 = 5; collides with nothing in 0..16? 5 also → 5,14 collide!
            stuck_one: true,
        });
        let result = CampaignEngine::new(CampaignConfig {
            cycles: 1,
            trials: 400,
            seed: 3,
            write_fraction: 0.0,
        })
        .run(&cfg, &[colliding, clean]);
        // Both have one colliding partner; empirical single-cycle escape
        // should be near the analytical 2/16 + no-error 1/16 … simply check
        // it is well below 1 and above 0.
        for f in &result.per_fault {
            let e = f.escape_fraction();
            assert!(e > 0.0 && e < 0.6, "site {:?}: escape {e}", f.site);
        }
    }

    #[test]
    fn standard_universe_mixes_classes() {
        let cfg = config();
        let faults = standard_fault_universe(&cfg, 4, 5);
        let classes: std::collections::HashSet<&str> = faults.iter().map(|f| f.class()).collect();
        assert!(classes.contains("row-decoder"));
        assert!(classes.contains("col-decoder"));
        assert!(classes.contains("cell"));
        assert!(classes.contains("row-rom-bit"));
        assert!(classes.contains("data-register"));
    }
}
