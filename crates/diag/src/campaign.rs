//! The parallel diagnosis campaign: the end-to-end session pipeline
//! fanned out over a fault universe.
//!
//! One campaign answers, for a whole universe at once, the questions the
//! paper's detection-only analysis cannot: what fraction of faults does
//! the chosen March test *see*, how tight are its ambiguity sets, how
//! many faults does a given spare budget actually bring back to service,
//! and do the repaired designs verify clean under both the March and the
//! mission differential oracle.
//!
//! Determinism contract (the house rule): each session is a pure
//! function of `(dictionary, site, budget, mission config, prefill
//! seed)`; the universe is mapped in input order over a rayon pool, so
//! results are **bit-identical at every thread count**. The `scm diag`
//! fixture pins the rendered output byte-for-byte at 1/2/4/8 threads.

use crate::dictionary::FaultDictionary;
use crate::repair::SpareBudget;
use crate::session::{run_session, SessionOutcome};
use scm_memory::campaign::CampaignConfig;
use scm_memory::fault::FaultSite;
use scm_memory::grid::par_map;
use std::collections::BTreeMap;

/// The parallel session runner.
#[derive(Debug, Clone)]
pub struct DiagnosisCampaign {
    budget: SpareBudget,
    mission: CampaignConfig,
    prefill_seed: u64,
    threads: usize,
}

impl DiagnosisCampaign {
    /// Campaign with the given per-session spare budget and mission
    /// campaign parameters.
    pub fn new(budget: SpareBudget, mission: CampaignConfig) -> Self {
        DiagnosisCampaign {
            budget,
            mission,
            prefill_seed: mission.seed ^ 0xD1A6,
            threads: 0,
        }
    }

    /// Pin the thread count (`0` = ambient rayon default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Run every site of the universe through the session pipeline,
    /// input order preserved.
    pub fn run(&self, dictionary: &FaultDictionary, universe: &[FaultSite]) -> Vec<SessionOutcome> {
        par_map(self.threads, universe, |&site| {
            run_session(
                dictionary,
                site,
                self.budget,
                self.mission,
                self.prefill_seed,
            )
        })
    }
}

/// Per-fault-class aggregation of a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSummary {
    /// Sites in the class.
    pub sites: usize,
    /// Sites whose diagnosing session flagged.
    pub detected: usize,
    /// Detected sites whose ambiguity set contains the truth.
    pub localized: usize,
    /// Sites brought back to service by a spare.
    pub repaired: usize,
    /// Repaired sites passing both re-verifications.
    pub verified: usize,
    /// Sum of ambiguity-set sizes over localized sites.
    pub ambiguity_sum: usize,
    /// Sum of session-local first-syndrome cycles over detected sites.
    pub syndrome_cycle_sum: u64,
}

impl ClassSummary {
    /// Mean ambiguity over localized sites.
    pub fn mean_ambiguity(&self) -> f64 {
        if self.localized == 0 {
            0.0
        } else {
            self.ambiguity_sum as f64 / self.localized as f64
        }
    }

    /// Mean BIST detection latency (session cycles to first syndrome)
    /// over detected sites.
    pub fn mean_syndrome_cycle(&self) -> f64 {
        if self.detected == 0 {
            0.0
        } else {
            self.syndrome_cycle_sum as f64 / self.detected as f64
        }
    }
}

/// Aggregate session outcomes by fault class, class name order.
pub fn by_class(outcomes: &[SessionOutcome]) -> BTreeMap<&'static str, ClassSummary> {
    let mut map: BTreeMap<&'static str, ClassSummary> = BTreeMap::new();
    for outcome in outcomes {
        let entry = map.entry(outcome.site.class()).or_insert(ClassSummary {
            sites: 0,
            detected: 0,
            localized: 0,
            repaired: 0,
            verified: 0,
            ambiguity_sum: 0,
            syndrome_cycle_sum: 0,
        });
        entry.sites += 1;
        if outcome.diagnosis.detected() {
            entry.detected += 1;
            entry.syndrome_cycle_sum += outcome.diagnosis.first_syndrome.unwrap_or(0);
        }
        if outcome.contains_truth {
            entry.localized += 1;
            entry.ambiguity_sum += outcome.diagnosis.candidates.len();
        }
        if outcome.outcome.repaired() {
            entry.repaired += 1;
        }
        if outcome.fully_repaired() {
            entry.verified += 1;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::cell_universe;
    use crate::march::MarchTest;
    use scm_area::RamOrganization;
    use scm_codes::{CodewordMap, MOutOfN};
    use scm_memory::design::RamConfig;

    fn setup() -> (FaultDictionary, Vec<FaultSite>) {
        let org = RamOrganization::new(64, 8, 4);
        let code = MOutOfN::new(3, 5).unwrap();
        let cfg = RamConfig::new(
            org,
            CodewordMap::mod_a(code, 9, 16).unwrap(),
            CodewordMap::mod_a(code, 9, 4).unwrap(),
        );
        let mut candidates = cell_universe(&cfg);
        candidates.extend(
            scm_memory::campaign::decoder_fault_universe(4)
                .into_iter()
                .map(FaultSite::RowDecoder),
        );
        let dict = FaultDictionary::build(&cfg, &MarchTest::march_c_minus(), 5, &candidates, 0);
        // A small mixed universe: every 97th cell fault plus every 7th
        // decoder fault keeps the test fast but multi-class.
        let universe: Vec<FaultSite> = candidates.iter().copied().step_by(97).collect();
        (dict, universe)
    }

    fn campaign() -> DiagnosisCampaign {
        DiagnosisCampaign::new(
            SpareBudget { rows: 1, cols: 1 },
            CampaignConfig {
                cycles: 60,
                trials: 2,
                seed: 13,
                write_fraction: 0.1,
            },
        )
    }

    #[test]
    fn campaign_is_bit_identical_at_any_thread_count() {
        let (dict, universe) = setup();
        let reference = campaign().threads(1).run(&dict, &universe);
        for threads in [2usize, 4, 8] {
            let outcomes = campaign().threads(threads).run(&dict, &universe);
            assert_eq!(reference, outcomes, "{threads} threads");
        }
    }

    #[test]
    fn cell_faults_localize_and_repair_at_high_rates() {
        let (dict, universe) = setup();
        let outcomes = campaign().run(&dict, &universe);
        let classes = by_class(&outcomes);
        let cells = classes["cell"];
        assert_eq!(cells.detected, cells.sites, "March C- sees every cell");
        assert_eq!(cells.localized, cells.sites);
        assert_eq!(cells.repaired, cells.sites, "one spare row suffices each");
        assert_eq!(cells.verified, cells.repaired);
        assert!(cells.mean_ambiguity() >= 1.0);
    }
}
