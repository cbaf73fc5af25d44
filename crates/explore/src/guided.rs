//! Budget-bounded multi-fidelity guided search: Pareto fronts over
//! spaces far too large to adjudicate exhaustively.
//!
//! The sliced campaign engine made a single full-fidelity adjudication
//! ~16× cheaper, which moves the bottleneck up a layer: an
//! [`ExplorationSpace`] is a cartesian product, and products explode.
//! This module replaces *one full Monte-Carlo campaign per grid cell*
//! with **successive halving over MC fidelity levels**:
//!
//! 1. a candidate generator produces the population — the whole grid
//!    when it fits the configured population, otherwise a seed-pure
//!    stratified sample ([`ExplorationSpace::sample_stratified`])
//!    refined by local mutation of front members
//!    ([`ExplorationSpace::neighbours`]);
//! 2. every candidate is adjudicated at the lowest fidelity of a
//!    geometric trials-per-fault ladder;
//! 3. candidates that are *confidently* Pareto-dominated are pruned,
//!    survivors climb to the next fidelity, until the survivors are
//!    resolved at full fidelity and the front is extracted from them.
//!
//! The pruning rule combines two certificates:
//!
//! * **confidence-bound domination** — `k` prunes `c` when `k`'s
//!   pessimistic objective vector (escape at its Hoeffding *upper*
//!   bound) still dominates `c`'s optimistic one (escape at its *lower*
//!   bound); area and latency are exact, so only the escape axis needs
//!   the interval;
//! * **common-random-numbers ties** — points sharing a campaign
//!   environment (geometry, horizon, scrub, workload, fault mix) face
//!   literally the same operation streams, so equal per-fault outcome
//!   digests ([`EmpiricalFigures::profile_digest`]) identify structural
//!   escape ties no interval could ever separate: the cheaper point
//!   wins, and exact twins collapse onto their canonically-first
//!   representative — precisely the representative the exhaustive
//!   [`crate::pareto::pareto_front`] machinery would keep.
//!
//! Everything is pure in `(evaluator, space, config)`: candidate
//! generation is seed-pure, low-fidelity campaigns are strict prefixes
//! of the full-fidelity trial set, pruning is an all-pairs rule over a
//! canonically ordered cohort, and the budget is spent in canonical
//! order — so the report is bit-identical at every thread count and
//! lane width, and invariant under permutations of the candidate list
//! whenever the budget does not truncate the cohort.

use crate::evaluate::{EmpiricalFigures, Evaluation, Evaluator, ExploreError};
use crate::pareto::{dominates_by, front_by};
use crate::space::{DesignPoint, ExplorationSpace, FaultMix, RepairPolicy, ScrubPolicy};
use scm_area::RamOrganization;
use std::collections::HashSet;

/// The ascending trials-per-fault schedule survivors climb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FidelityLadder {
    levels: Vec<u32>,
}

impl FidelityLadder {
    /// A geometric ladder ending at `full` trials per fault: `full`,
    /// `full / eta`, `full / eta²`, … down to 1 trial, ascending.
    /// `eta` is clamped to at least 2; `full` to at least 1.
    pub fn geometric(full: u32, eta: u32) -> Self {
        let eta = eta.max(2);
        let mut levels = Vec::new();
        let mut level = full.max(1);
        while level >= 1 {
            levels.push(level);
            if level == 1 {
                break;
            }
            level /= eta;
        }
        levels.reverse();
        FidelityLadder { levels }
    }

    /// An explicit schedule, sanitised: levels are clamped to
    /// `[1, full]`, sorted ascending, deduplicated, and `full` is
    /// appended when missing — the ladder always resolves survivors at
    /// full fidelity.
    pub fn explicit(levels: &[u32], full: u32) -> Self {
        let full = full.max(1);
        let mut levels: Vec<u32> = levels.iter().map(|&l| l.clamp(1, full)).collect();
        levels.push(full);
        levels.sort_unstable();
        levels.dedup();
        FidelityLadder { levels }
    }

    /// The ascending trial counts, last entry = full fidelity.
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }
}

/// Guided-search knobs. [`Default`] gives an unbounded budget, a
/// geometric `eta = 4` ladder, `δ = 10⁻³` confidence intervals, a
/// 512-candidate population and two mutation generations.
#[derive(Debug, Clone)]
pub struct GuidedConfig {
    /// Scenario-trial budget (`faults × trials` units, the same currency
    /// as [`EmpiricalFigures::scenario_trials`]). `u64::MAX` = unbounded.
    pub budget: u64,
    /// Geometric ladder factor between fidelity levels.
    pub eta: u32,
    /// Explicit trials-per-fault schedule overriding the geometric
    /// ladder (sanitised through [`FidelityLadder::explicit`]).
    pub ladder: Option<Vec<u32>>,
    /// Per-comparison confidence parameter `δ` of the Hoeffding
    /// intervals the pruning rule uses. Smaller = more conservative
    /// pruning.
    pub delta: f64,
    /// Candidate-population cap: spaces no larger than this are
    /// enumerated exhaustively, larger ones are stratified-sampled down
    /// to exactly this many candidates.
    pub population: usize,
    /// Local-mutation generations after the first climb (each expands
    /// the current front by one grid step along every axis). Only
    /// reachable in sampled mode — in exhaustive mode every neighbour
    /// has already been seen.
    pub mutation_rounds: usize,
    /// Seed of the stratified candidate sample.
    pub seed: u64,
}

impl Default for GuidedConfig {
    fn default() -> Self {
        GuidedConfig {
            budget: u64::MAX,
            eta: 4,
            ladder: None,
            delta: 1e-3,
            population: 512,
            mutation_rounds: 2,
            seed: 0x6D1D,
        }
    }
}

impl GuidedConfig {
    /// The default configuration under a scenario-trial budget.
    pub fn with_budget(budget: u64) -> Self {
        GuidedConfig {
            budget,
            ..GuidedConfig::default()
        }
    }
}

/// Accounting for one rung of one generation's climb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RungStats {
    /// Mutation generation the rung belongs to (0 = initial population).
    pub generation: usize,
    /// Trials per fault at this rung.
    pub trials: u32,
    /// Candidates alive when the rung started.
    pub entered: usize,
    /// Candidates actually campaigned (≤ `entered` when the budget
    /// clipped the cohort).
    pub evaluated: usize,
    /// Candidates dropped as infeasible at this rung.
    pub infeasible: usize,
    /// Candidates still Pareto-plausible after the rung's pruning pass
    /// (= `evaluated − infeasible` on the final, full-fidelity rung).
    pub survivors: usize,
    /// Scenario-trials spent on this rung.
    pub spent: u64,
}

/// What a guided search found and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct GuidedReport {
    /// The guided Pareto front over (area %, latency `c`, empirical mean
    /// escape), ascending-area order — every member resolved at full
    /// fidelity unless [`provisional`](Self::provisional) is set.
    pub front: Vec<Evaluation>,
    /// Per-rung accounting, in execution order.
    pub rungs: Vec<RungStats>,
    /// Total scenario-trials spent.
    pub spent: u64,
    /// What one full-fidelity campaign per candidate point would cost —
    /// the exhaustive baseline the budget is saved against. In sampled
    /// mode this extrapolates the mean per-candidate cost over the whole
    /// space.
    pub exhaustive_cost: u64,
    /// Points in the searched space (`candidates` when the search ran on
    /// an explicit candidate list).
    pub space_points: usize,
    /// Distinct candidates generated (after deduplication, before
    /// feasibility screening), mutation generations included.
    pub candidates: usize,
    /// Candidates rejected as infeasible (selection failure, unknown
    /// workload, or a stage error at any rung).
    pub infeasible: usize,
    /// Whether the population was stratified-sampled (`false` = the grid
    /// was enumerated exhaustively).
    pub sampled: bool,
    /// Whether the budget clipped any cohort: a `true` here means some
    /// candidate was never resolved and the front is best-effort under
    /// the budget rather than certified against the whole population.
    pub truncated: bool,
    /// Whether the budget died before *any* candidate reached full
    /// fidelity. The front is then the best-effort frontier over the
    /// highest fidelity actually funded — still deterministic, but its
    /// escape figures carry that rung's (wider) confidence intervals.
    pub provisional: bool,
}

/// The trace view of a guided search: one
/// [`RungPrune`](scm_obs::EventKind::RungPrune) event per rung, in
/// execution order, timestamped on the **budget clock** (`t` = total
/// scenario-trials spent once the rung settled). Derived post-hoc from
/// the report's own accounting, so the search loop pays nothing and the
/// trace inherits its determinism.
pub fn rung_events(report: &GuidedReport) -> Vec<scm_obs::Event> {
    let mut spent = 0u64;
    report
        .rungs
        .iter()
        .map(|rung| {
            spent += rung.spent;
            scm_obs::Event::global(
                spent,
                scm_obs::EventKind::RungPrune {
                    generation: rung.generation as u32,
                    fidelity: rung.trials,
                    entered: rung.entered as u32,
                    evaluated: rung.evaluated as u32,
                    survivors: rung.survivors as u32,
                    spent: rung.spent,
                },
            )
        })
        .collect()
}

impl GuidedReport {
    /// Scenario-trials saved against the exhaustive baseline.
    pub fn saved(&self) -> u64 {
        self.exhaustive_cost.saturating_sub(self.spent)
    }

    /// `spent / exhaustive_cost` (0 when the baseline is empty).
    pub fn spent_fraction(&self) -> f64 {
        if self.exhaustive_cost == 0 {
            0.0
        } else {
            self.spent as f64 / self.exhaustive_cost as f64
        }
    }
}

/// The exhaustive baseline a guided run is checked against: every point
/// of the space at full fidelity, front extracted with the same
/// canonical ordering and objectives as the guided engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ExhaustiveReference {
    /// The full-fidelity Pareto front over (area %, latency `c`,
    /// empirical mean escape).
    pub front: Vec<Evaluation>,
    /// Scenario-trials the exhaustive sweep spent.
    pub spent: u64,
    /// Points rejected as infeasible.
    pub infeasible: usize,
}

/// The guided objective vector: minimise decoder-checking area %,
/// tolerated latency `c`, and the **empirical** mean escape — the same
/// adjudicated view [`crate::pareto::mix_pareto_fronts`] grades
/// campaigned evaluations with. `None` for unadjudicated evaluations.
pub fn empirical_objectives(e: &Evaluation) -> Option<[f64; 3]> {
    e.empirical
        .map(|emp| [e.area_percent(), e.point.cycles as f64, emp.mean_escape])
}

/// Canonical candidate identity: the human label plus the exact `Pndc`
/// bit pattern (labels round the exponent, so the bits disambiguate).
fn canonical_key(p: &DesignPoint) -> (String, u64) {
    (p.label(), p.pndc.to_bits())
}

/// The campaign environment of a point: the axes that determine the
/// operation streams and fault universe of its adjudication. Two points
/// sharing an environment differ only in code (and in stages the guided
/// objectives ignore), so their campaigns are driven by **common random
/// numbers** and equal outcome digests certify a structural tie.
type EnvKey = (
    RamOrganization,
    u32,
    ScrubPolicy,
    String,
    FaultMix,
    u32,
    u64,
    RepairPolicy,
);

fn env_key(p: &DesignPoint) -> EnvKey {
    (
        p.geometry,
        p.cycles,
        p.scrub,
        p.workload.clone(),
        p.fault_mix,
        p.banks,
        p.checkpoint,
        p.repair,
    )
}

/// Extract the full-fidelity empirical front from a list of adjudicated
/// evaluations: canonical candidate order first (so objective-identical
/// twins keep a permutation-independent representative), then the shared
/// non-dominated filter. Unadjudicated evaluations are ignored.
pub fn empirical_front(evaluations: &[Evaluation]) -> Vec<Evaluation> {
    let mut adjudicated: Vec<Evaluation> = evaluations
        .iter()
        .filter(|e| e.empirical.is_some())
        .cloned()
        .collect();
    adjudicated.sort_by_key(|e| canonical_key(&e.point));
    front_by(&adjudicated, |e| {
        empirical_objectives(e).expect("unadjudicated evaluations were filtered out")
    })
}

/// Evaluate a whole space at full fidelity and extract the empirical
/// front — the baseline [`GuidedSearch`] is certified against in tests.
///
/// # Errors
/// [`ExploreError::AdjudicationRequired`] when the evaluator has no
/// adjudication stage.
pub fn exhaustive_front(
    evaluator: &Evaluator,
    space: &ExplorationSpace,
) -> Result<ExhaustiveReference, ExploreError> {
    if evaluator.adjudication().is_none() {
        return Err(ExploreError::AdjudicationRequired);
    }
    let results = evaluator.evaluate_space(space);
    let mut spent = 0u64;
    let mut infeasible = 0usize;
    let mut ok = Vec::new();
    for r in results {
        match r {
            Ok(e) => {
                spent += e.empirical.expect("adjudicating evaluator").scenario_trials;
                ok.push(e);
            }
            Err(_) => infeasible += 1,
        }
    }
    Ok(ExhaustiveReference {
        front: empirical_front(&ok),
        spent,
        infeasible,
    })
}

/// One candidate mid-climb.
struct Candidate {
    point: DesignPoint,
    key: (String, u64),
    env: EnvKey,
    /// Fault scenarios one campaign of this point runs — the per-trial
    /// budget cost.
    universe: usize,
}

/// The successive-halving engine. Borrows the evaluator; every run is a
/// pure function of `(evaluator configuration, input, config)`.
#[derive(Debug)]
pub struct GuidedSearch<'a> {
    evaluator: &'a Evaluator,
    config: GuidedConfig,
}

impl<'a> GuidedSearch<'a> {
    /// A search over `evaluator`'s pipeline (which must include an
    /// adjudication stage by the time it runs).
    pub fn new(evaluator: &'a Evaluator, config: GuidedConfig) -> Self {
        GuidedSearch { evaluator, config }
    }

    /// Search a space: exhaustive candidate enumeration when the space
    /// fits the configured population, stratified sampling plus local
    /// mutation of front members when it does not.
    ///
    /// # Errors
    /// [`ExploreError::AdjudicationRequired`] without an adjudication
    /// stage. Per-point infeasibility is *not* an error — infeasible
    /// candidates are counted and skipped.
    pub fn run(&self, space: &ExplorationSpace) -> Result<GuidedReport, ExploreError> {
        let population = self.config.population.max(1);
        let (candidates, sampled) = if space.len() <= population {
            (space.points(), false)
        } else {
            (space.sample_stratified(population, self.config.seed), true)
        };
        self.search(candidates, Some(space), sampled, space.len())
    }

    /// Search an explicit candidate list (no sampling, no mutation) —
    /// the entry point permutation-invariance is asserted through.
    ///
    /// # Errors
    /// As [`Self::run`].
    pub fn run_candidates(&self, candidates: &[DesignPoint]) -> Result<GuidedReport, ExploreError> {
        self.search(candidates.to_vec(), None, false, candidates.len())
    }

    fn ladder(&self, full: u32) -> FidelityLadder {
        match &self.config.ladder {
            Some(levels) => FidelityLadder::explicit(levels, full),
            None => FidelityLadder::geometric(full, self.config.eta),
        }
    }

    fn search(
        &self,
        candidates: Vec<DesignPoint>,
        space: Option<&ExplorationSpace>,
        sampled: bool,
        space_points: usize,
    ) -> Result<GuidedReport, ExploreError> {
        let adjudication = self
            .evaluator
            .adjudication()
            .ok_or(ExploreError::AdjudicationRequired)?;
        let full = adjudication.campaign.trials.max(1);
        let ladder = self.ladder(full);
        let mut seen: HashSet<(String, u64)> = HashSet::new();
        let mut infeasible = 0usize;
        let mut candidate_count = 0usize;
        let mut screened_cost = 0u64;
        let mut screen = |points: Vec<DesignPoint>,
                          infeasible: &mut usize,
                          candidate_count: &mut usize|
         -> Vec<Candidate> {
            let mut cohort = Vec::new();
            for point in points {
                let key = canonical_key(&point);
                if !seen.insert(key.clone()) {
                    continue;
                }
                *candidate_count += 1;
                match self.evaluator.scenario_count(&point) {
                    Ok(universe) => {
                        screened_cost += universe as u64 * full as u64;
                        cohort.push(Candidate {
                            env: env_key(&point),
                            point,
                            key,
                            universe,
                        });
                    }
                    Err(_) => *infeasible += 1,
                }
            }
            // Canonical cohort order: the budget is spent in a
            // permutation-independent order, and all downstream
            // tie-breaks inherit it.
            cohort.sort_by(|a, b| a.key.cmp(&b.key));
            cohort
        };

        let mut cohort = screen(candidates, &mut infeasible, &mut candidate_count);
        let mut resolved: Vec<Evaluation> = Vec::new();
        let mut provisional: Vec<Evaluation> = Vec::new();
        let mut rungs: Vec<RungStats> = Vec::new();
        let mut spent = 0u64;
        let mut truncated = false;

        for generation in 0..=self.config.mutation_rounds {
            if cohort.is_empty() {
                break;
            }
            let survivors = self.climb(
                cohort,
                &ladder,
                generation,
                &mut spent,
                &mut truncated,
                &mut infeasible,
                &mut rungs,
                &mut provisional,
            );
            resolved.extend(survivors);
            if generation == self.config.mutation_rounds {
                break;
            }
            // Mutate the front so far: one grid step along every axis
            // from every front member. Exhaustively enumerated spaces
            // have no unseen neighbours, so this loop only feeds in
            // sampled mode.
            let Some(space) = space else { break };
            let front_now = empirical_front(&resolved);
            let mutants: Vec<DesignPoint> = front_now
                .iter()
                .flat_map(|e| space.neighbours(&e.point))
                .collect();
            cohort = screen(mutants, &mut infeasible, &mut candidate_count);
        }

        let exhaustive_cost = if sampled {
            // Extrapolate the screened candidates' mean per-point cost
            // over the whole grid (an estimate, flagged by `sampled`).
            let feasible = candidate_count.saturating_sub(infeasible);
            if feasible == 0 {
                0
            } else {
                ((screened_cost as u128 * space_points as u128) / feasible as u128)
                    .min(u64::MAX as u128) as u64
            }
        } else {
            screened_cost
        };

        // Best-effort fallback: when the budget dies mid-ladder and
        // nothing reaches full fidelity, the frontier over the highest
        // fidelity actually funded beats an empty answer.
        let fallback = resolved.is_empty() && !provisional.is_empty();
        Ok(GuidedReport {
            front: empirical_front(if fallback { &provisional } else { &resolved }),
            rungs,
            spent,
            exhaustive_cost,
            space_points,
            candidates: candidate_count,
            infeasible,
            sampled,
            truncated,
            provisional: fallback,
        })
    }

    /// Run one cohort up the fidelity ladder; returns its full-fidelity
    /// resolved evaluations.
    #[allow(clippy::too_many_arguments)]
    fn climb(
        &self,
        mut cohort: Vec<Candidate>,
        ladder: &FidelityLadder,
        generation: usize,
        spent: &mut u64,
        truncated: &mut bool,
        infeasible: &mut usize,
        rungs: &mut Vec<RungStats>,
        provisional: &mut Vec<Evaluation>,
    ) -> Vec<Evaluation> {
        let levels = ladder.levels();
        let full = *levels.last().expect("ladders are never empty");
        let full_samples = |c: &Candidate| c.universe as u64 * full as u64;
        let mut resolved = Vec::new();
        let mut highest: Vec<Evaluation> = Vec::new();
        for (rung_index, &trials) in levels.iter().enumerate() {
            let entered = cohort.len();
            // Deterministic budget clipping: fund the canonical prefix
            // of the cohort, drop the rest the moment the budget runs
            // out. Clipped candidates are never resolved.
            let mut affordable = 0usize;
            let mut planned_cost = 0u64;
            for c in &cohort {
                let cost = c.universe as u64 * trials as u64;
                if spent.saturating_add(planned_cost).saturating_add(cost) > self.config.budget {
                    *truncated = true;
                    break;
                }
                planned_cost += cost;
                affordable += 1;
            }
            cohort.truncate(affordable);
            if cohort.is_empty() {
                rungs.push(RungStats {
                    generation,
                    trials,
                    entered,
                    evaluated: 0,
                    infeasible: 0,
                    survivors: 0,
                    spent: 0,
                });
                break;
            }
            let points: Vec<DesignPoint> = cohort.iter().map(|c| c.point.clone()).collect();
            let results = self
                .evaluator
                .evaluate_points_at_fidelity(&points, Some(trials));
            let mut rung_spent = 0u64;
            let mut rung_infeasible = 0usize;
            let mut evaluated: Vec<(Candidate, Evaluation)> = Vec::new();
            for (candidate, result) in cohort.into_iter().zip(results) {
                match result {
                    Ok(e) => {
                        rung_spent += e
                            .empirical
                            .expect("adjudicating evaluator returns figures")
                            .scenario_trials;
                        evaluated.push((candidate, e));
                    }
                    Err(_) => rung_infeasible += 1,
                }
            }
            *spent += rung_spent;
            *infeasible += rung_infeasible;
            if !evaluated.is_empty() {
                // The climb's highest funded rung so far — the fallback
                // front when nothing ever resolves at full fidelity.
                highest = evaluated.iter().map(|(_, e)| e.clone()).collect();
            }
            let last_rung = rung_index + 1 == levels.len();
            let survivors: Vec<(Candidate, Evaluation)> = if last_rung {
                evaluated
            } else {
                self.prune(evaluated, full_samples)
            };
            rungs.push(RungStats {
                generation,
                trials,
                entered,
                evaluated: affordable,
                infeasible: rung_infeasible,
                survivors: survivors.len(),
                spent: rung_spent,
            });
            if last_rung {
                resolved.extend(survivors.into_iter().map(|(_, e)| e));
                break;
            }
            cohort = survivors.into_iter().map(|(c, _)| c).collect();
        }
        provisional.extend(highest);
        resolved
    }

    /// The confidence-bound pruning pass: keep a candidate unless some
    /// cohort member *certifiably* dominates it at full fidelity.
    fn prune(
        &self,
        evaluated: Vec<(Candidate, Evaluation)>,
        full_samples: impl Fn(&Candidate) -> u64,
    ) -> Vec<(Candidate, Evaluation)> {
        let views: Vec<PruneView> = evaluated
            .iter()
            .map(|(c, e)| {
                let emp = e.empirical.expect("adjudicating evaluator");
                // The interval guards both ends of the comparison: the
                // estimate at this rung *and* the full-fidelity estimate
                // it stands in for.
                let width =
                    EmpiricalFigures::hoeffding_half_width(emp.scenario_trials, self.config.delta)
                        + EmpiricalFigures::hoeffding_half_width(
                            full_samples(c),
                            self.config.delta,
                        );
                PruneView {
                    area: e.area_percent(),
                    cycles: e.point.cycles as f64,
                    escape_lb: (emp.mean_escape - width).max(0.0),
                    escape_ub: (emp.mean_escape + width).min(1.0),
                    digest: emp.profile_digest,
                }
            })
            .collect();
        let alive: Vec<bool> = (0..views.len())
            .map(|c| {
                !(0..views.len()).any(|k| {
                    k != c
                        && certifiably_dominates(&views[k], &views[c], || {
                            (
                                evaluated[k].0.env == evaluated[c].0.env,
                                evaluated[k].0.key < evaluated[c].0.key,
                            )
                        })
                })
            })
            .collect();
        evaluated
            .into_iter()
            .zip(alive)
            .filter_map(|(pair, keep)| keep.then_some(pair))
            .collect()
    }
}

/// The per-candidate quantities the pruning rule compares.
struct PruneView {
    area: f64,
    cycles: f64,
    escape_lb: f64,
    escape_ub: f64,
    digest: u64,
}

/// Does `k` certifiably dominate `c` at full fidelity?
///
/// * Interval certificate: `k`'s pessimistic vector (escape at its
///   upper bound) dominates `c`'s optimistic one.
/// * Common-random-numbers certificate: same campaign environment and
///   equal outcome digests mean the escape axis is a structural tie at
///   every fidelity, so strictly smaller area decides — and exact
///   objective twins collapse onto the canonically-first key, the same
///   representative the exhaustive front keeps.
fn certifiably_dominates(
    k: &PruneView,
    c: &PruneView,
    env_and_order: impl FnOnce() -> (bool, bool),
) -> bool {
    if dominates_by(
        [k.area, k.cycles, k.escape_ub],
        [c.area, c.cycles, c.escape_lb],
    ) {
        return true;
    }
    if k.digest == c.digest && k.cycles == c.cycles {
        let (same_env, k_first) = env_and_order();
        if same_env {
            return k.area < c.area || (k.area == c.area && k_first);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::Adjudication;
    use scm_codes::selection::SelectionPolicy;
    use scm_memory::campaign::CampaignConfig;

    fn evaluator(trials: u32) -> Evaluator {
        Evaluator::default().adjudicate(Adjudication {
            campaign: CampaignConfig {
                cycles: 10,
                trials,
                seed: 0xE7,
                write_fraction: 0.1,
            },
            max_faults: 16,
            scrub_period: Adjudication::DEFAULT_SCRUB_PERIOD,
            sliced: true,
            lane_width: 512,
        })
    }

    fn small_space() -> ExplorationSpace {
        ExplorationSpace {
            geometries: vec![RamOrganization::new(256, 8, 4)],
            cycles: vec![2, 10, 20],
            pndcs: vec![1e-2, 1e-5, 1e-9],
            policies: SelectionPolicy::ALL.to_vec(),
            scrubs: vec![ScrubPolicy::Off],
            workloads: vec!["uniform".to_owned()],
            banks: vec![1],
            checkpoints: vec![0],
            repairs: vec![RepairPolicy::OFF],
            fault_mixes: vec![FaultMix::Permanent],
        }
    }

    #[test]
    fn geometric_ladders_end_at_full_fidelity() {
        assert_eq!(FidelityLadder::geometric(64, 4).levels(), &[1, 4, 16, 64]);
        assert_eq!(FidelityLadder::geometric(16, 4).levels(), &[1, 4, 16]);
        assert_eq!(FidelityLadder::geometric(6, 4).levels(), &[1, 6]);
        assert_eq!(FidelityLadder::geometric(1, 4).levels(), &[1]);
        assert_eq!(FidelityLadder::geometric(8, 0).levels(), &[1, 2, 4, 8]);
    }

    #[test]
    fn explicit_ladders_are_sanitised() {
        assert_eq!(
            FidelityLadder::explicit(&[16, 4, 4, 90], 64).levels(),
            &[4, 16, 64]
        );
        assert_eq!(FidelityLadder::explicit(&[], 8).levels(), &[8]);
        assert_eq!(FidelityLadder::explicit(&[0], 8).levels(), &[1, 8]);
    }

    #[test]
    fn guided_requires_adjudication() {
        let ev = Evaluator::default();
        let search = GuidedSearch::new(&ev, GuidedConfig::default());
        assert_eq!(
            search.run(&small_space()).unwrap_err(),
            ExploreError::AdjudicationRequired
        );
        assert_eq!(
            exhaustive_front(&ev, &small_space()).unwrap_err(),
            ExploreError::AdjudicationRequired
        );
    }

    #[test]
    fn guided_front_matches_exhaustive_on_a_small_space() {
        let ev = evaluator(16);
        let space = small_space();
        let reference = exhaustive_front(&ev, &space).unwrap();
        let report = GuidedSearch::new(&ev, GuidedConfig::default())
            .run(&space)
            .unwrap();
        assert!(!report.sampled);
        assert!(!report.truncated);
        assert_eq!(report.front, reference.front);
        assert!(report.spent <= reference.spent);
        assert_eq!(report.space_points, space.len());
        assert_eq!(report.candidates, space.len());
    }

    #[test]
    fn guided_spends_less_when_pruning_fires() {
        let ev = evaluator(16);
        let space = small_space();
        let report = GuidedSearch::new(&ev, GuidedConfig::default())
            .run(&space)
            .unwrap();
        let reference = exhaustive_front(&ev, &space).unwrap();
        assert!(
            report.spent < reference.spent,
            "guided {} vs exhaustive {}",
            report.spent,
            reference.spent
        );
        assert_eq!(report.saved(), report.exhaustive_cost - report.spent);
        assert!(report.spent_fraction() < 1.0);
        // Rung accounting adds up.
        assert_eq!(
            report.rungs.iter().map(|r| r.spent).sum::<u64>(),
            report.spent
        );
    }

    #[test]
    fn budget_truncation_is_flagged_and_respected() {
        let ev = evaluator(16);
        let space = small_space();
        let report = GuidedSearch::new(&ev, GuidedConfig::with_budget(200))
            .run(&space)
            .unwrap();
        assert!(report.truncated);
        assert!(report.spent <= 200, "spent {}", report.spent);
        // An unbounded run of the same space is not truncated.
        let unbounded = GuidedSearch::new(&ev, GuidedConfig::default())
            .run(&space)
            .unwrap();
        assert!(!unbounded.truncated);
    }

    #[test]
    fn candidate_order_does_not_change_the_front() {
        let ev = evaluator(8);
        let space = small_space();
        let mut points = space.points();
        let search = GuidedSearch::new(&ev, GuidedConfig::default());
        let forward = search.run_candidates(&points).unwrap();
        points.reverse();
        let backward = search.run_candidates(&points).unwrap();
        assert_eq!(forward.front, backward.front);
        assert_eq!(forward.spent, backward.spent);
        assert_eq!(forward.rungs, backward.rungs);
    }

    #[test]
    fn duplicate_candidates_collapse() {
        let ev = evaluator(8);
        let space = small_space();
        let mut points = space.points();
        let n = points.len();
        points.extend(space.points());
        let report = GuidedSearch::new(&ev, GuidedConfig::default())
            .run_candidates(&points)
            .unwrap();
        assert_eq!(report.candidates, n);
    }

    #[test]
    fn infeasible_candidates_are_counted_not_fatal() {
        let ev = evaluator(8);
        let space = ExplorationSpace {
            cycles: vec![1, 10],
            pndcs: vec![1e-2, 1e-30],
            ..small_space()
        };
        // (c=1, 1e-30) is unselectable: r ≤ 64 codes cannot meet it.
        let report = GuidedSearch::new(&ev, GuidedConfig::default())
            .run(&space)
            .unwrap();
        assert!(report.infeasible > 0);
        assert!(!report.front.is_empty());
    }

    #[test]
    fn sampled_mode_engages_on_large_spaces_and_stays_in_budget() {
        let ev = evaluator(8);
        let space = ExplorationSpace {
            cycles: vec![2, 5, 10, 20, 30, 40],
            pndcs: vec![1e-2, 1e-4, 1e-5, 1e-7, 1e-9, 1e-12],
            workloads: vec!["uniform".to_owned(), "hotspot".to_owned()],
            scrubs: vec![ScrubPolicy::Off, ScrubPolicy::SequentialSweep],
            ..small_space()
        };
        assert!(space.len() > 64);
        let config = GuidedConfig {
            budget: 30_000,
            population: 64,
            mutation_rounds: 1,
            ..GuidedConfig::default()
        };
        let report = GuidedSearch::new(&ev, config).run(&space).unwrap();
        assert!(report.sampled);
        assert!(report.spent <= 30_000);
        assert!(!report.front.is_empty());
        assert!(report.candidates >= 64, "mutants extend the population");
        assert!(report.exhaustive_cost > report.spent);
        // Mutation generations appear in the rung accounting.
        assert!(report.rungs.iter().any(|r| r.generation == 1));
    }
}
