//! The evaluation pipeline: one [`DesignPoint`] in, one [`Evaluation`] out.
//!
//! Three stages, each pure in the point:
//!
//! 1. **Selection** — the paper's Section III.2 algorithm picks the
//!    cheapest code meeting the point's `(c, Pndc)` budget under its
//!    policy. Memoised on `(c, Pndc, policy)` — every geometry and
//!    workload shares the plan.
//! 2. **Analytics** — the calibrated area model prices the scheme on the
//!    point's geometry (memoised on `(geometry, r)`), and the latency
//!    model grades the guarantee ([`scm_latency::goal::assess_escape`]).
//!    A [`ScrubPolicy::SequentialSweep`] point additionally gets the hard
//!    worst-case sweep bound (memoised on `(rows, r, a)`).
//! 3. **Empirical adjudication** (optional) — a Monte-Carlo campaign on
//!    the deterministic parallel [`CampaignEngine`], driven by the
//!    point's workload model, over the row-decoder fault universe.
//! 4. **System stage** (optional) — the point's scheme composed into a
//!    homogeneous `point.banks`-wide sharded system
//!    (`scm_system::SystemCampaign`) with the point's scrub policy and
//!    checkpoint interval mapped onto the system schedules; yields
//!    [`SystemFigures`] for the system-level Pareto view
//!    ([`crate::pareto::system_pareto_front`]).
//!
//! Every stage is a pure function of the point (campaign seeds are pure
//! in the grid coordinates), so [`Evaluator::evaluate_space`] is
//! bit-identical at every thread count — the same contract the campaign
//! engine makes, lifted to the whole design space.

use crate::space::{DesignPoint, ExplorationSpace, FaultMix, ScrubPolicy};
use scm_area::repair_overhead;
use scm_area::{scheme_overhead, OverheadBreakdown, RamOrganization, TechnologyParams};
use scm_codes::selection::{select_code, CodePlan, LatencyBudget, SelectionPolicy};
use scm_codes::{CodeError, MOutOfN};
use scm_diag::march::MarchTest;
use scm_diag::repair::SpareBudget;
use scm_latency::goal::{assess_escape, ProtectionGrade};
use scm_memory::arena::OpStreamArena;
use scm_memory::campaign::{
    decoder_fault_universe, intermittent_universe, mixed_universe, transient_universe,
    CampaignConfig,
};
use scm_memory::design::RamConfig;
use scm_memory::engine::CampaignEngine;
use scm_memory::fault::{FaultScenario, FaultSite};
use scm_memory::grid::par_map;
use scm_memory::scrub::{sweep_bound, SweepBound};
use scm_memory::sliced::MAX_SLAB_LANES;
use scm_memory::workload::{builtin_models, WorkloadModel};
use scm_system::{DiagCampaign, DiagPolicy, Interleaving, SystemCampaign, SystemConfig};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Why a point could not be evaluated.
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreError {
    /// The budget is malformed or no `r ≤ 64` code satisfies it.
    Selection(CodeError),
    /// The point names a workload model the evaluator does not know.
    UnknownWorkload(String),
    /// The repair stage's horizon is shorter than one March session on
    /// the point's geometry: no diagnosing session could ever complete,
    /// so every repair figure would be silently degenerate (zero
    /// repairs, fully censored time-to-repair).
    RepairHorizonTooShort {
        /// The configured per-trial horizon.
        horizon: u64,
        /// One full session of the configured test on the point's
        /// geometry.
        session_cycles: u64,
    },
    /// A fidelity-aware operation (guided search, scenario accounting)
    /// was requested on an evaluator with no adjudication stage — there
    /// is no Monte-Carlo fidelity to ladder without one.
    AdjudicationRequired,
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Selection(e) => write!(f, "code selection failed: {e}"),
            ExploreError::UnknownWorkload(name) => {
                write!(f, "unknown workload model '{name}'")
            }
            ExploreError::RepairHorizonTooShort {
                horizon,
                session_cycles,
            } => write!(
                f,
                "repair-stage horizon ({horizon} cycles) is shorter than one March \
                 session ({session_cycles} cycles): no diagnosis could ever complete"
            ),
            ExploreError::AdjudicationRequired => write!(
                f,
                "guided search needs an adjudication stage: there is no \
                 Monte-Carlo fidelity to ladder without one"
            ),
        }
    }
}

impl Error for ExploreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExploreError::Selection(e) => Some(e),
            ExploreError::UnknownWorkload(_)
            | ExploreError::RepairHorizonTooShort { .. }
            | ExploreError::AdjudicationRequired => None,
        }
    }
}

impl From<CodeError> for ExploreError {
    fn from(e: CodeError) -> Self {
        ExploreError::Selection(e)
    }
}

/// Empirical campaign figures of an adjudicated evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalFigures {
    /// Row-decoder faults campaigned.
    pub faults: usize,
    /// Trials per fault.
    pub trials_per_fault: u32,
    /// Per-trial horizon the campaign ran to (the point's `c`).
    pub horizon: u64,
    /// Total scenario-trials spent: `faults × trials_per_fault` — the
    /// currency every guided-search budget is accounted in.
    pub scenario_trials: u64,
    /// Worst per-fault fraction of trials not detected within budget.
    pub worst_escape: f64,
    /// Worst per-fault fraction of trials where an erroneous output
    /// escaped detection — the safety-relevant quantity.
    pub worst_error_escape: f64,
    /// Mean escape fraction over the universe.
    pub mean_escape: f64,
    /// Mean detection latency in cycles, censored at the horizon
    /// (undetected trials count the full horizon).
    pub mean_latency: f64,
    /// FNV-1a digest of the per-fault outcome counters. Two points that
    /// share a campaign environment (geometry, horizon, scrub, workload,
    /// fault mix) face literally the same operation streams — common
    /// random numbers — so equal digests identify structurally tied
    /// outcomes, which guided search exploits to resolve escape ties
    /// that no confidence interval could separate.
    pub profile_digest: u64,
}

impl EmpiricalFigures {
    /// Two-sided Hoeffding half-width for a mean of `samples` bounded
    /// observations at confidence `1 − delta`:
    /// `sqrt(ln(2/δ) / (2·samples))`.
    pub fn hoeffding_half_width(samples: u64, delta: f64) -> f64 {
        if samples == 0 {
            return f64::INFINITY;
        }
        ((2.0 / delta).ln() / (2.0 * samples as f64)).sqrt()
    }

    /// Confidence interval on the mean escape fraction at `1 − delta`,
    /// clamped to `[0, 1]`.
    pub fn escape_interval(&self, delta: f64) -> (f64, f64) {
        let hw = Self::hoeffding_half_width(self.scenario_trials, delta);
        (
            (self.mean_escape - hw).max(0.0),
            (self.mean_escape + hw).min(1.0),
        )
    }

    /// Confidence interval on the censored mean detection latency at
    /// `1 − delta`, clamped to `[0, horizon]` (each observation is
    /// bounded by the horizon, so the Hoeffding width scales with it).
    pub fn latency_interval(&self, delta: f64) -> (f64, f64) {
        let hw = Self::hoeffding_half_width(self.scenario_trials, delta) * self.horizon as f64;
        (
            (self.mean_latency - hw).max(0.0),
            (self.mean_latency + hw).min(self.horizon as f64),
        )
    }
}

/// System-level figures of a point evaluated through the sharded
/// multi-bank stage (a homogeneous `banks`-wide system of the point's
/// selected scheme, driven by its workload under the evaluator's system
/// schedules).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemFigures {
    /// Banks composed.
    pub banks: u32,
    /// Mean detection latency across banks (system cycles, censored at
    /// the horizon for banks that never detected).
    pub mean_latency: f64,
    /// Worst per-bank mean detection latency (same censoring).
    pub worst_latency: f64,
    /// Expected lost work per failure (Aupy-style, system cycles).
    pub expected_lost_work: f64,
    /// Scrub bandwidth overhead (fraction of system cycles).
    pub scrub_overhead: f64,
    /// Fraction of all trials detected within the horizon.
    pub detected_fraction: f64,
}

/// Repair figures of a point evaluated through the diagnosis/repair
/// stage: the point's scheme composed into its system view, campaigned
/// under its [`crate::space::RepairPolicy`] over sampled stuck-cell
/// faults, with the spare/BIST hardware priced onto the area axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairFigures {
    /// Spare rows per bank the point carries.
    pub spare_rows: u32,
    /// Decoder-checking area **plus** spare/BIST overhead, % of base RAM
    /// — the repair-aware cost axis.
    pub area_with_repair_percent: f64,
    /// Mean time to repair over all trials (global cycles; unrepaired
    /// trials censored at the horizon).
    pub mean_time_to_repair: f64,
    /// Fraction of trials detected within the horizon.
    pub detected_fraction: f64,
    /// Fraction of trials repaired back to service.
    pub repaired_fraction: f64,
    /// Mean fraction of the horizon stolen by BIST sessions.
    pub bist_overhead: f64,
    /// Post-repair erroneous outputs over the whole campaign (sound
    /// repairs leave this at 0).
    pub post_repair_escapes: u32,
}

impl RepairFigures {
    /// The residual-escape objective of the repair-aware Pareto view:
    /// the fraction of trials whose fault was never even detected.
    pub fn escape(&self) -> f64 {
        1.0 - self.detected_fraction
    }
}

/// Repair-stage configuration: how the evaluator campaigns each
/// repair-enabled point through `scm_system::DiagCampaign`.
#[derive(Debug, Clone)]
pub struct RepairAdjudication {
    /// Per-trial horizon in system cycles (must comfortably exceed one
    /// March session or no diagnosis can complete).
    pub horizon: u64,
    /// Trials per fault.
    pub trials: u32,
    /// Campaign seed.
    pub seed: u64,
    /// Traffic write fraction.
    pub write_fraction: f64,
    /// Address interleaving of the composed system.
    pub interleaving: Interleaving,
    /// The March test BIST sessions run.
    pub test: MarchTest,
    /// Stuck-cell faults campaigned per bank (evenly sampled).
    pub cells_per_bank: usize,
}

impl Default for RepairAdjudication {
    fn default() -> Self {
        RepairAdjudication {
            horizon: 4096,
            trials: 2,
            seed: 0xD1A6,
            write_fraction: 0.1,
            interleaving: Interleaving::LowOrder,
            test: MarchTest::mats_plus(),
            cells_per_bank: 4,
        }
    }
}

/// System-stage configuration: how the evaluator composes and campaigns
/// the sharded view of each point.
#[derive(Debug, Clone, Copy)]
pub struct SystemAdjudication {
    /// Per-trial horizon in system cycles.
    pub horizon: u64,
    /// Trials per `(bank, fault)` cell.
    pub trials: u32,
    /// Campaign seed (trial seeds derive purely from it and the grid
    /// coordinates).
    pub seed: u64,
    /// Traffic write fraction.
    pub write_fraction: f64,
    /// Address interleaving of the composed system.
    pub interleaving: Interleaving,
    /// Scrub period applied when the point's scrub policy is
    /// [`ScrubPolicy::SequentialSweep`] (`Off` points never scrub).
    pub scrub_period: u64,
    /// Cap on faults campaigned per bank (`0` = whole universe for the
    /// permanent mix; stochastic mixes sample exactly their cap).
    pub max_faults_per_bank: usize,
    /// Mean SEU inter-arrival time in system cycles for points graded
    /// against the transient mix.
    pub seu_mean: f64,
}

impl Default for SystemAdjudication {
    fn default() -> Self {
        SystemAdjudication {
            horizon: 200,
            trials: 4,
            seed: 0x5E5,
            write_fraction: 0.1,
            interleaving: Interleaving::LowOrder,
            scrub_period: 4,
            max_faults_per_bank: 12,
            seu_mean: 40.0,
        }
    }
}

/// Everything the pipeline established about one point.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The evaluated point.
    pub point: DesignPoint,
    /// The selected code plan.
    pub plan: CodePlan,
    /// Area breakdown on the point's geometry.
    pub area: OverheadBreakdown,
    /// Analytical per-cycle worst-fault escape probability.
    pub escape_per_cycle: f64,
    /// Analytical `Pndc` after the point's `c` cycles.
    pub achieved_pndc: f64,
    /// Whether the analytical guarantee meets the point's budget.
    pub meets_goal: bool,
    /// Protection grade of the configuration.
    pub grade: ProtectionGrade,
    /// Hard sweep bound (present iff the point scrubs).
    pub scrub_bound: Option<SweepBound>,
    /// Campaign figures (present iff the evaluator adjudicates).
    pub empirical: Option<EmpiricalFigures>,
    /// Sharded-system figures (present iff the evaluator runs the
    /// system stage).
    pub system: Option<SystemFigures>,
    /// Diagnosis/repair figures (present iff the evaluator runs the
    /// repair stage *and* the point's repair policy is enabled).
    pub repair: Option<RepairFigures>,
}

impl Evaluation {
    /// The headline cost objective: decoder-checking area overhead (%).
    pub fn area_percent(&self) -> f64 {
        self.area.decoder_checking_percent()
    }
}

/// Empirical-adjudication stage configuration.
#[derive(Debug, Clone, Copy)]
pub struct Adjudication {
    /// Campaign grid parameters (`cycles` is overridden per point to the
    /// point's latency budget `c`; seed/trials/write mix apply as given).
    pub campaign: CampaignConfig,
    /// Cap on scenarios per campaign, subsampled evenly and
    /// deterministically (`0` = the whole permanent universe / a default
    /// sample for stochastic mixes).
    pub max_faults: usize,
    /// Scrub period applied when the point's scrub policy is
    /// [`ScrubPolicy::SequentialSweep`] (`Off` points never scrub).
    pub scrub_period: u64,
    /// Executor for each point's campaign: the bit-sliced slab (up to
    /// 512 scenario lanes per multi-word slab; the default) or, with
    /// `false`, the behavioural oracle the executor tests compare
    /// against. Output-invariant: both run the same estimator, so
    /// evaluations are bit-identical either way.
    pub sliced: bool,
    /// Slab lane width of the sliced engine (clamped to `1..=512`);
    /// results are invariant under it.
    pub lane_width: usize,
}

impl Adjudication {
    /// The default scrub period a sweeping point adjudicates with.
    pub const DEFAULT_SCRUB_PERIOD: u64 = 4;
}

impl Default for Adjudication {
    /// The default campaign over the whole permanent universe, sweeping
    /// points scrubbed at [`Self::DEFAULT_SCRUB_PERIOD`], on the slab
    /// executor at full lane width.
    fn default() -> Self {
        Adjudication {
            campaign: CampaignConfig::default(),
            max_faults: 0,
            scrub_period: Self::DEFAULT_SCRUB_PERIOD,
            sliced: true,
            lane_width: MAX_SLAB_LANES,
        }
    }
}

/// Hit/miss counters of one memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Sub-results served from the memo.
    pub hits: usize,
    /// Sub-results computed.
    pub misses: usize,
}

/// Memoisation counters, broken out per memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Code-selection plans, keyed `(c, Pndc, policy)`.
    pub plans: MemoStats,
    /// Area breakdowns, keyed `(geometry, r)`.
    pub areas: MemoStats,
    /// Hard sweep bounds, keyed `(rows, r, a)`.
    pub scrub_bounds: MemoStats,
}

impl CacheStats {
    /// Total sub-results served from any memo.
    pub fn hits(&self) -> usize {
        self.plans.hits + self.areas.hits + self.scrub_bounds.hits
    }

    /// Total sub-results computed.
    pub fn misses(&self) -> usize {
        self.plans.misses + self.areas.misses + self.scrub_bounds.misses
    }
}

/// Thread-safe hit/miss tally backing one memo.
#[derive(Debug, Default)]
struct MemoCounters {
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl MemoCounters {
    fn snapshot(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

type PlanKey = (u32, u64, SelectionPolicy);
type AreaKey = (RamOrganization, u32);
type ScrubKey = (u64, u32, u64);

/// A compute-once memo: the map only hands out per-key cells, and each
/// cell is initialised outside the map lock by exactly one thread.
type Memo<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// The memoised, rayon-parallel design-space evaluator.
///
/// Construct once, feed it points or whole spaces. Caches are shared
/// across calls and across worker threads; results never depend on cache
/// state (memoised sub-results are pure), only the work saved does.
#[derive(Debug)]
pub struct Evaluator {
    tech: TechnologyParams,
    adjudicate: Option<Adjudication>,
    system: Option<SystemAdjudication>,
    repair: Option<RepairAdjudication>,
    threads: usize,
    registry: HashMap<String, Arc<dyn WorkloadModel>>,
    /// Shared op-stream arena for every sliced campaign the evaluator
    /// runs: one `(seed, trial)` stream materialised once, replayed by
    /// reference across points **and fidelity rungs** (lower rungs'
    /// streams are prefixes of higher ones — the common-random-numbers
    /// property guided search leans on, now also a cache hit).
    arena: Arc<OpStreamArena>,
    plans: Memo<PlanKey, Result<CodePlan, CodeError>>,
    areas: Memo<AreaKey, OverheadBreakdown>,
    scrub_bounds: Memo<ScrubKey, Result<SweepBound, CodeError>>,
    plan_stats: MemoCounters,
    area_stats: MemoCounters,
    scrub_stats: MemoCounters,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator::new(TechnologyParams::default())
    }
}

impl Evaluator {
    /// Evaluator under the given technology, analytics-only (no
    /// adjudication), ambient thread count, built-in workload registry.
    pub fn new(tech: TechnologyParams) -> Self {
        let registry = builtin_models()
            .into_iter()
            .map(|m| (m.name().to_owned(), m))
            .collect();
        Evaluator {
            tech,
            adjudicate: None,
            system: None,
            repair: None,
            threads: 0,
            registry,
            arena: Arc::new(OpStreamArena::new()),
            plans: Mutex::new(HashMap::new()),
            areas: Mutex::new(HashMap::new()),
            scrub_bounds: Mutex::new(HashMap::new()),
            plan_stats: MemoCounters::default(),
            area_stats: MemoCounters::default(),
            scrub_stats: MemoCounters::default(),
        }
    }

    /// Switch on the empirical adjudication stage.
    pub fn adjudicate(mut self, adjudication: Adjudication) -> Self {
        self.adjudicate = Some(adjudication);
        self
    }

    /// Switch on the sharded-system stage: every point is additionally
    /// composed into a homogeneous `point.banks`-wide system and
    /// campaigned on the system clock (scrub and checkpoint schedules
    /// from the point's axes).
    pub fn system_stage(mut self, system: SystemAdjudication) -> Self {
        self.system = Some(system);
        self
    }

    /// Switch on the diagnosis/repair stage: every point whose repair
    /// policy is enabled is campaigned through `scm_system::DiagCampaign`
    /// (BIST sessions on the system clock, spare-row repair) and its
    /// spare/BIST hardware priced onto the area axis.
    pub fn repair_stage(mut self, repair: RepairAdjudication) -> Self {
        self.repair = Some(repair);
        self
    }

    /// Pin the search's thread count (`0` = ambient rayon default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Register (or replace) a workload model under its own name.
    pub fn register_workload(mut self, model: Arc<dyn WorkloadModel>) -> Self {
        self.registry.insert(model.name().to_owned(), model);
        self
    }

    /// Memo hit/miss counters accumulated so far, per memo.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            plans: self.plan_stats.snapshot(),
            areas: self.area_stats.snapshot(),
            scrub_bounds: self.scrub_stats.snapshot(),
        }
    }

    /// The adjudication stage configuration, if the evaluator has one.
    pub fn adjudication(&self) -> Option<&Adjudication> {
        self.adjudicate.as_ref()
    }

    /// Look `key` up, computing it on first use. Exactly one lookup per
    /// distinct key counts a miss — the one that inserted its cell — so
    /// the counters are independent of scheduling. The value is computed
    /// outside the map lock: a racing lookup of the same key waits on
    /// that key's cell only, other keys never block.
    fn memoised<K, V, F>(&self, cache: &Memo<K, V>, stats: &MemoCounters, key: K, compute: F) -> V
    where
        K: std::hash::Hash + Eq,
        V: Clone,
        F: FnOnce() -> V,
    {
        let cell = {
            let mut map = cache.lock().expect("memo lock");
            let counter = if map.contains_key(&key) {
                &stats.hits
            } else {
                &stats.misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
            map.entry(key).or_default().clone()
        };
        cell.get_or_init(compute).clone()
    }

    fn plan_for(
        &self,
        cycles: u32,
        pndc: f64,
        policy: SelectionPolicy,
    ) -> Result<CodePlan, CodeError> {
        self.memoised(
            &self.plans,
            &self.plan_stats,
            (cycles, pndc.to_bits(), policy),
            || select_code(LatencyBudget::new(cycles, pndc)?, policy),
        )
    }

    fn area_for(&self, geometry: RamOrganization, r: u32) -> OverheadBreakdown {
        self.memoised(&self.areas, &self.area_stats, (geometry, r), || {
            let code = MOutOfN::centered(r).expect("selected widths are ≤ 64");
            scheme_overhead(geometry, code, code, &self.tech)
        })
    }

    fn scrub_bound_for(
        &self,
        geometry: RamOrganization,
        plan: &CodePlan,
    ) -> Result<SweepBound, CodeError> {
        let key = (geometry.rows(), plan.r(), plan.a());
        // Only a key's first lookup pays for the analysis: the mapping,
        // its O(rows) rank table and the sweep bound, O(rows · Σ 2^bits)
        // over the decoder's inner blocks. A mapping error is as pure in
        // the key as the bound and is memoised the same way.
        self.memoised(&self.scrub_bounds, &self.scrub_stats, key, || {
            let map = plan.mapping(geometry.rows())?;
            Ok(sweep_bound(geometry.row_bits(), &map))
        })
    }

    /// The scenario universe a point's fault mix adjudicates against,
    /// capped at `max` entries (0 = uncapped permanents; stochastic
    /// classes sample exactly their cap).
    fn mix_universe(
        config: &RamConfig,
        point: &DesignPoint,
        max: usize,
        seed: u64,
    ) -> Vec<FaultScenario> {
        let samples = if max == 0 { 64 } else { max };
        let horizon = (point.cycles as u64).max(2);
        match point.fault_mix {
            FaultMix::Permanent => {
                let universe: Vec<FaultSite> = decoder_fault_universe(point.geometry.row_bits())
                    .into_iter()
                    .map(FaultSite::RowDecoder)
                    .collect();
                subsample(&universe, max)
                    .into_iter()
                    .map(FaultScenario::permanent)
                    .collect()
            }
            FaultMix::Transient => transient_universe(config, samples, horizon, seed),
            FaultMix::Intermittent => subsample(&intermittent_universe(config, 8, 2, seed), max),
            FaultMix::Mix => {
                subsample(&mixed_universe(config, samples / 3 + 1, horizon, seed), max)
            }
        }
    }

    fn adjudicate_point(
        &self,
        point: &DesignPoint,
        plan: &CodePlan,
        adjudication: &Adjudication,
        trials_override: Option<u32>,
    ) -> Result<EmpiricalFigures, ExploreError> {
        let model = self
            .registry
            .get(&point.workload)
            .cloned()
            .ok_or_else(|| ExploreError::UnknownWorkload(point.workload.clone()))?;
        let config = RamConfig::from_plan(point.geometry, plan)?;
        let scenarios = Self::mix_universe(
            &config,
            point,
            adjudication.max_faults,
            adjudication.campaign.seed,
        );
        // A fidelity override only changes how many trials are drawn per
        // fault; trial seeds are pure in the trial index, so trials at a
        // lower fidelity are a strict prefix of the full-fidelity set and
        // `trials_override == Some(full)` is bit-identical to no override.
        let campaign = CampaignConfig {
            cycles: point.cycles as u64,
            trials: trials_override.unwrap_or(adjudication.campaign.trials),
            ..adjudication.campaign
        };
        // A scrubbed point adjudicates with its scrubber live: every
        // `scrub_period`-th cycle becomes a sweep read — the knob that
        // makes transient escapes actually shrink.
        let scrub_period = match point.scrub {
            ScrubPolicy::Off => 0,
            ScrubPolicy::SequentialSweep => adjudication.scrub_period,
        };
        // Ambient threads: inside a worker of the outer point sweep this
        // grid runs inline, so the sweep alone holds `threads` workers;
        // a one-point sweep runs inline and hands the grid its count.
        let result = CampaignEngine::new(campaign)
            .workload_model(model)
            .scrub(scrub_period)
            .sliced(adjudication.sliced)
            .lane_width(adjudication.lane_width)
            .arena(self.arena.clone())
            .run_scenarios(&config, &scenarios);
        let horizon = campaign.cycles;
        let (mut latency_sum, mut trial_sum) = (0u64, 0u64);
        for f in &result.per_fault {
            // Censored mean: undetected trials count the full horizon.
            latency_sum += f.detection_cycle_sum + f.undetected as u64 * horizon;
            trial_sum += f.trials as u64;
        }
        Ok(EmpiricalFigures {
            faults: scenarios.len(),
            trials_per_fault: campaign.trials,
            horizon,
            scenario_trials: scenarios.len() as u64 * campaign.trials as u64,
            worst_escape: result.worst_escape(),
            worst_error_escape: result.worst_error_escape(),
            mean_escape: result.mean_escape(),
            mean_latency: if trial_sum == 0 {
                0.0
            } else {
                latency_sum as f64 / trial_sum as f64
            },
            profile_digest: profile_digest(&result.per_fault),
        })
    }

    fn system_point(
        &self,
        point: &DesignPoint,
        plan: &CodePlan,
        stage: &SystemAdjudication,
    ) -> Result<SystemFigures, ExploreError> {
        let model = self
            .registry
            .get(&point.workload)
            .cloned()
            .ok_or_else(|| ExploreError::UnknownWorkload(point.workload.clone()))?;
        let bank = RamConfig::from_plan(point.geometry, plan)?;
        let scrub_period = match point.scrub {
            ScrubPolicy::Off => 0,
            ScrubPolicy::SequentialSweep => stage.scrub_period,
        };
        let system =
            SystemConfig::homogeneous(bank, point.banks.max(1) as usize, stage.interleaving)
                .scrubbed(scrub_period)
                .checkpointed(point.checkpoint);
        let campaign = CampaignConfig {
            cycles: stage.horizon,
            trials: stage.trials,
            seed: stage.seed,
            write_fraction: stage.write_fraction,
        };
        // Ambient threads: inline inside the outer sweep's workers, like
        // the adjudication stage.
        let engine = SystemCampaign::new(system, campaign).workload_model(model);
        // The system grid is graded against the point's fault mix: the
        // permanent decoder universe, SEU arrival streams, or the same
        // decoder sites under duty-cycled intermittent windows (phases
        // pure in the per-bank fault index).
        let intermittent = |mut f: scm_system::SystemFault| {
            f.process = scm_memory::fault::FaultProcess::Intermittent {
                onset: f.index as u64 % 8,
                period: 8,
                duty: 2,
            };
            f
        };
        let universe = match point.fault_mix {
            FaultMix::Permanent => engine.decoder_universe(stage.max_faults_per_bank),
            FaultMix::Transient => engine.seu_universe(
                stage.max_faults_per_bank.max(1),
                &scm_system::SeuProcess::new(stage.seu_mean),
            ),
            FaultMix::Intermittent => engine
                .decoder_universe(stage.max_faults_per_bank)
                .into_iter()
                .map(intermittent)
                .collect(),
            FaultMix::Mix => {
                let cap = stage.max_faults_per_bank.div_ceil(2).max(1);
                let mut universe = engine.decoder_universe(cap);
                // Offset SEU indices past the decoder entries so every
                // (bank, index) seeding identity stays unique.
                universe.extend(
                    engine
                        .seu_universe(cap, &scm_system::SeuProcess::new(stage.seu_mean))
                        .into_iter()
                        .map(|mut f| {
                            f.index += cap;
                            f
                        }),
                );
                universe
            }
        };
        let result = engine.run(&universe);
        Ok(SystemFigures {
            banks: point.banks.max(1),
            mean_latency: result.mean_latency_across_banks(),
            worst_latency: result.worst_latency_across_banks(),
            expected_lost_work: result.expected_lost_work(),
            scrub_overhead: result.scrub_overhead,
            detected_fraction: result.detected_fraction(),
        })
    }

    fn repair_point(
        &self,
        point: &DesignPoint,
        plan: &CodePlan,
        area: &OverheadBreakdown,
        stage: &RepairAdjudication,
    ) -> Result<RepairFigures, ExploreError> {
        let session_cycles = stage.test.session_cycles(point.geometry.words());
        if stage.horizon < session_cycles {
            // Fail loudly: with sessions truncated at the horizon no
            // diagnosis can complete, and the stage would quietly report
            // zero repairs for every point.
            return Err(ExploreError::RepairHorizonTooShort {
                horizon: stage.horizon,
                session_cycles,
            });
        }
        let model = self
            .registry
            .get(&point.workload)
            .cloned()
            .ok_or_else(|| ExploreError::UnknownWorkload(point.workload.clone()))?;
        let bank = RamConfig::from_plan(point.geometry, plan)?;
        let scrub_period = match point.scrub {
            ScrubPolicy::Off => 0,
            ScrubPolicy::SequentialSweep => self
                .system
                .map(|s| s.scrub_period)
                .unwrap_or_else(|| SystemAdjudication::default().scrub_period),
        };
        let system =
            SystemConfig::homogeneous(bank, point.banks.max(1) as usize, stage.interleaving)
                .scrubbed(scrub_period)
                .checkpointed(point.checkpoint);
        let policy = DiagPolicy {
            period: point.repair.diag_period,
            test: stage.test.clone(),
            session_seed: stage.seed ^ 0x5E55,
            budget: SpareBudget {
                rows: point.repair.spare_rows,
                cols: 0,
            },
        };
        let campaign = CampaignConfig {
            cycles: stage.horizon,
            trials: stage.trials,
            seed: stage.seed,
            write_fraction: stage.write_fraction,
        };
        // Ambient threads: inline inside the outer sweep's workers, like
        // the other optional stages.
        let engine = DiagCampaign::new(system, policy, campaign).workload_model(model);
        let universe = engine.diag_universe(stage.cells_per_bank, 0);
        let result = engine.run(&universe);
        let hardware = repair_overhead(
            point.geometry,
            point.repair.spare_rows,
            0,
            stage.test.ops_per_word() as u32,
            &self.tech,
        );
        Ok(RepairFigures {
            spare_rows: point.repair.spare_rows,
            area_with_repair_percent: area.decoder_checking_percent() + hardware.total_percent(),
            mean_time_to_repair: result.mean_time_to_repair(),
            detected_fraction: result.detected_fraction(),
            repaired_fraction: result.repaired_fraction(),
            bist_overhead: result.bist_overhead(),
            post_repair_escapes: result.post_repair_escapes(),
        })
    }

    /// Run the full pipeline on one point.
    ///
    /// # Errors
    /// [`ExploreError::Selection`] for infeasible budgets,
    /// [`ExploreError::UnknownWorkload`] for unregistered model names.
    pub fn evaluate(&self, point: &DesignPoint) -> Result<Evaluation, ExploreError> {
        self.evaluate_with(point, None)
    }

    /// Run the full pipeline on one point with the adjudication stage's
    /// trials-per-fault overridden — the fidelity knob guided search
    /// ladders over. Trial seeds are pure in the trial index, so
    /// `Some(n)` campaigns a strict prefix of the full-fidelity trial
    /// set and `Some(full)` is bit-identical to [`Self::evaluate`].
    ///
    /// # Errors
    /// As [`Self::evaluate`], plus
    /// [`ExploreError::AdjudicationRequired`] when a fidelity is given
    /// but the evaluator has no adjudication stage.
    pub fn evaluate_at_fidelity(
        &self,
        point: &DesignPoint,
        trials: Option<u32>,
    ) -> Result<Evaluation, ExploreError> {
        if trials.is_some() && self.adjudicate.is_none() {
            return Err(ExploreError::AdjudicationRequired);
        }
        self.evaluate_with(point, trials)
    }

    fn evaluate_with(
        &self,
        point: &DesignPoint,
        trials_override: Option<u32>,
    ) -> Result<Evaluation, ExploreError> {
        // Workload names are validated even when no campaign runs, so a
        // typo fails loudly rather than silently skipping adjudication.
        if !self.registry.contains_key(&point.workload) {
            return Err(ExploreError::UnknownWorkload(point.workload.clone()));
        }
        let plan = self.plan_for(point.cycles, point.pndc, point.policy)?;
        let area = self.area_for(point.geometry, plan.r());
        let escape = plan.escape_per_cycle();
        let assessment = assess_escape(escape, point.cycles, point.pndc);
        let scrub_bound = match point.scrub {
            ScrubPolicy::Off => None,
            ScrubPolicy::SequentialSweep => Some(self.scrub_bound_for(point.geometry, &plan)?),
        };
        let empirical = match &self.adjudicate {
            None => None,
            Some(adjudication) => {
                Some(self.adjudicate_point(point, &plan, adjudication, trials_override)?)
            }
        };
        let system = match &self.system {
            None => None,
            Some(stage) => Some(self.system_point(point, &plan, stage)?),
        };
        // The repair stage grades the permanent model only: DiagCampaign
        // schedules permanent faults (rollback restarts activation
        // clocks), and transient indications are triaged without burning
        // spares — so non-permanent mixes skip the stage rather than
        // re-running a byte-identical permanent campaign per mix.
        let repair = match &self.repair {
            Some(stage) if point.repair.enabled() && point.fault_mix == FaultMix::Permanent => {
                Some(self.repair_point(point, &plan, &area, stage)?)
            }
            _ => None,
        };
        Ok(Evaluation {
            point: point.clone(),
            plan,
            area,
            escape_per_cycle: escape,
            achieved_pndc: assessment.achieved_pndc,
            meets_goal: assessment.meets,
            grade: assessment.grade,
            scrub_bound,
            empirical,
            system,
            repair,
        })
    }

    /// Solve a goal: the cheapest scheme for a geometry meeting `(c, Pndc)`
    /// under a policy — selection minimality makes one evaluation the
    /// solve.
    ///
    /// # Errors
    /// Propagates [`Self::evaluate`] errors.
    pub fn goal_solve(
        &self,
        geometry: RamOrganization,
        cycles: u32,
        pndc: f64,
        policy: SelectionPolicy,
    ) -> Result<Evaluation, ExploreError> {
        self.evaluate(&DesignPoint::paper(geometry, cycles, pndc, policy))
    }

    /// Evaluate one budget axis over fixed geometries — the shape of the
    /// paper's tables: one row per `(c, Pndc)` budget, one evaluation per
    /// geometry inside it.
    ///
    /// # Errors
    /// Fails on the first infeasible budget (table slices are meant for
    /// known-feasible published parameters).
    pub fn table_slice(
        &self,
        geometries: &[RamOrganization],
        budgets: &[(u32, f64)],
        policy: SelectionPolicy,
    ) -> Result<Vec<Vec<Evaluation>>, ExploreError> {
        budgets
            .iter()
            .map(|&(cycles, pndc)| {
                geometries
                    .iter()
                    .map(|&g| self.evaluate(&DesignPoint::paper(g, cycles, pndc, policy)))
                    .collect()
            })
            .collect()
    }

    /// Evaluate every point of a space in parallel, preserving the
    /// space's enumeration order. Infeasible points come back as `Err`
    /// entries rather than aborting the sweep.
    ///
    /// Bit-identical at every thread count: each evaluation is a pure
    /// function of its point, and order is by input position, never by
    /// completion.
    pub fn evaluate_space(
        &self,
        space: &ExplorationSpace,
    ) -> Vec<Result<Evaluation, ExploreError>> {
        self.evaluate_points(&space.points())
    }

    /// Parallel evaluation of an explicit point list (input order kept).
    pub fn evaluate_points(&self, points: &[DesignPoint]) -> Vec<Result<Evaluation, ExploreError>> {
        self.evaluate_points_at_fidelity(points, None)
    }

    /// Parallel evaluation of an explicit point list at an adjudication
    /// fidelity (input order kept) — the batched form of
    /// [`Self::evaluate_at_fidelity`], with the same purity contract:
    /// bit-identical at every thread count.
    pub fn evaluate_points_at_fidelity(
        &self,
        points: &[DesignPoint],
        trials: Option<u32>,
    ) -> Vec<Result<Evaluation, ExploreError>> {
        par_map(self.threads, points, |p| {
            self.evaluate_at_fidelity(p, trials)
        })
    }

    /// How many fault scenarios the adjudication stage would campaign
    /// for this point — the per-rung cost of one evaluation is
    /// `scenario_count × trials`, which is what guided search charges
    /// against its budget *before* spending it.
    ///
    /// # Errors
    /// [`ExploreError::AdjudicationRequired`] without an adjudication
    /// stage; otherwise the same feasibility errors as
    /// [`Self::evaluate`].
    pub fn scenario_count(&self, point: &DesignPoint) -> Result<usize, ExploreError> {
        let adjudication = self
            .adjudicate
            .as_ref()
            .ok_or(ExploreError::AdjudicationRequired)?;
        if !self.registry.contains_key(&point.workload) {
            return Err(ExploreError::UnknownWorkload(point.workload.clone()));
        }
        let plan = self.plan_for(point.cycles, point.pndc, point.policy)?;
        let config = RamConfig::from_plan(point.geometry, &plan)?;
        Ok(Self::mix_universe(
            &config,
            point,
            adjudication.max_faults,
            adjudication.campaign.seed,
        )
        .len())
    }
}

/// FNV-1a digest of the per-fault outcome counters of a campaign, in
/// universe order — the common-random-numbers fingerprint carried on
/// [`EmpiricalFigures::profile_digest`].
fn profile_digest(per_fault: &[scm_memory::campaign::FaultResult]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for f in per_fault {
        for v in [
            f.trials as u64,
            f.detected as u64,
            f.undetected as u64,
            f.error_escapes as u64,
            f.detection_cycle_sum,
            f.onset_latency_sum,
        ] {
            h ^= v;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Deterministic even subsample: every k-th element so the cap is met.
fn subsample<T: Copy>(universe: &[T], max_faults: usize) -> Vec<T> {
    if max_faults == 0 || universe.len() <= max_faults {
        return universe.to_vec();
    }
    let stride = universe.len().div_ceil(max_faults);
    universe.iter().copied().step_by(stride).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geometry() -> RamOrganization {
        RamOrganization::new(256, 8, 4)
    }

    #[test]
    fn worked_example_evaluates() {
        let ev = Evaluator::default();
        let e = ev
            .goal_solve(
                RamOrganization::with_mux8(1024, 16),
                10,
                1e-9,
                SelectionPolicy::WorstBlockExact,
            )
            .unwrap();
        assert_eq!(e.plan.code_name(), "3-out-of-5");
        assert!(e.meets_goal);
        assert_eq!(e.grade, ProtectionGrade::BoundedLatency);
        assert!(e.area_percent() > 0.0);
        assert!(e.scrub_bound.is_none() && e.empirical.is_none());
    }

    #[test]
    fn unknown_workload_rejected_even_without_adjudication() {
        let ev = Evaluator::default();
        let mut p = DesignPoint::paper(small_geometry(), 10, 1e-9, SelectionPolicy::InverseA);
        p.workload = "martian".to_owned();
        assert_eq!(
            ev.evaluate(&p),
            Err(ExploreError::UnknownWorkload("martian".to_owned()))
        );
    }

    #[test]
    fn infeasible_budget_is_an_err_entry_not_a_panic() {
        let ev = Evaluator::default();
        let space = ExplorationSpace {
            geometries: vec![small_geometry()],
            cycles: vec![1],
            pndcs: vec![1e-30],
            policies: vec![SelectionPolicy::WorstBlockExact],
            scrubs: vec![ScrubPolicy::Off],
            workloads: vec!["uniform".to_owned()],
            banks: vec![1],
            checkpoints: vec![0],
            repairs: vec![crate::space::RepairPolicy::OFF],
            fault_mixes: vec![FaultMix::Permanent],
        };
        let results = ev.evaluate_space(&space);
        assert_eq!(results.len(), 1);
        assert!(matches!(results[0], Err(ExploreError::Selection(_))));
    }

    #[test]
    fn memoisation_collapses_repeated_subproblems() {
        let ev = Evaluator::default();
        let space = ExplorationSpace {
            geometries: vec![small_geometry(), RamOrganization::new(512, 16, 4)],
            cycles: vec![10, 20],
            pndcs: vec![1e-9],
            policies: SelectionPolicy::ALL.to_vec(),
            scrubs: vec![ScrubPolicy::Off, ScrubPolicy::SequentialSweep],
            workloads: vec!["uniform".to_owned(), "hotspot".to_owned()],
            banks: vec![1],
            checkpoints: vec![0],
            repairs: vec![crate::space::RepairPolicy::OFF],
            fault_mixes: vec![FaultMix::Permanent],
        };
        let results = ev.evaluate_space(&space);
        assert!(results.iter().all(|r| r.is_ok()));
        let stats = ev.cache_stats();
        // 32 points share 4 plans, ≤ 8 area cells and ≤ 8 scrub bounds:
        // most lookups must be hits, on every memo individually.
        assert!(
            stats.hits() > stats.misses(),
            "hits {} misses {}",
            stats.hits(),
            stats.misses()
        );
        for (name, memo) in [
            ("plans", stats.plans),
            ("areas", stats.areas),
            ("scrub_bounds", stats.scrub_bounds),
        ] {
            assert!(
                memo.hits > memo.misses,
                "{name}: hits {} misses {}",
                memo.hits,
                memo.misses
            );
        }
    }

    #[test]
    fn scrub_stage_reports_hard_bounds() {
        let ev = Evaluator::default();
        let mut p = DesignPoint::paper(small_geometry(), 10, 1e-9, SelectionPolicy::InverseA);
        p.scrub = ScrubPolicy::SequentialSweep;
        let e = ev.evaluate(&p).unwrap();
        let bound = e.scrub_bound.expect("scrubbed point carries a bound");
        assert!(bound.worst_sa0 <= p.geometry.rows() * 2);
        assert!(bound.total > 0);
    }

    #[test]
    fn adjudication_respects_workload_and_fault_cap() {
        let ev = Evaluator::default().adjudicate(Adjudication {
            campaign: CampaignConfig {
                cycles: 10,
                trials: 4,
                seed: 7,
                write_fraction: 0.1,
            },
            max_faults: 12,
            ..Adjudication::default()
        });
        for workload in ["uniform", "write-mostly"] {
            let mut p = DesignPoint::paper(small_geometry(), 10, 1e-9, SelectionPolicy::InverseA);
            p.workload = workload.to_owned();
            let e = ev.evaluate(&p).unwrap();
            let emp = e.empirical.expect("adjudicated");
            assert!(emp.faults <= 12, "{workload}: {} faults", emp.faults);
            assert_eq!(emp.trials_per_fault, 4);
            assert!(emp.worst_escape <= 1.0);
        }
    }

    #[test]
    fn system_stage_grades_the_points_fault_mix() {
        use crate::space::FaultMix;
        let ev = Evaluator::default().system_stage(SystemAdjudication {
            horizon: 400,
            trials: 2,
            max_faults_per_bank: 6,
            ..SystemAdjudication::default()
        });
        let geometry = RamOrganization::new(64, 8, 4);
        let mut p = DesignPoint::paper(geometry, 10, 1e-9, SelectionPolicy::InverseA);
        p.banks = 2;
        let permanent = ev.evaluate(&p).unwrap().system.unwrap();
        p.fault_mix = FaultMix::Transient;
        let transient = ev.evaluate(&p).unwrap().system.unwrap();
        // Different fault physics must yield different system figures —
        // silently re-running the permanent campaign per mix is exactly
        // what this guards against.
        assert_ne!(permanent, transient);
        assert!(transient.detected_fraction > 0.0, "some SEU is caught");
    }

    #[test]
    fn repair_stage_skips_non_permanent_mixes() {
        use crate::space::{FaultMix, RepairPolicy};
        let ev = Evaluator::default().repair_stage(RepairAdjudication {
            horizon: 1600,
            trials: 1,
            cells_per_bank: 2,
            ..RepairAdjudication::default()
        });
        let mut p = DesignPoint::paper(
            RamOrganization::new(64, 8, 4),
            10,
            1e-9,
            SelectionPolicy::InverseA,
        );
        p.repair = RepairPolicy {
            spare_rows: 1,
            diag_period: 500,
        };
        assert!(ev.evaluate(&p).unwrap().repair.is_some());
        p.fault_mix = FaultMix::Transient;
        assert!(
            ev.evaluate(&p).unwrap().repair.is_none(),
            "repair grades hard defects only; non-permanent mixes skip the stage"
        );
    }

    #[test]
    fn repair_stage_runs_only_for_enabled_policies_and_prices_spares() {
        use crate::space::RepairPolicy;
        let ev = Evaluator::default().repair_stage(RepairAdjudication {
            horizon: 1600,
            trials: 1,
            cells_per_bank: 3,
            ..RepairAdjudication::default()
        });
        let geometry = RamOrganization::new(64, 8, 4);
        let mut off = DesignPoint::paper(geometry, 10, 1e-9, SelectionPolicy::InverseA);
        let e = ev.evaluate(&off).unwrap();
        assert!(e.repair.is_none(), "OFF policy must skip the stage");
        off.repair = RepairPolicy {
            spare_rows: 1,
            diag_period: 500,
        };
        let e = ev.evaluate(&off).unwrap();
        let figures = e.repair.expect("enabled policy carries figures");
        assert_eq!(figures.spare_rows, 1);
        assert!(
            figures.area_with_repair_percent > e.area_percent(),
            "spares and BIST must cost area: {} vs {}",
            figures.area_with_repair_percent,
            e.area_percent()
        );
        assert!(figures.detected_fraction > 0.0);
        assert!(figures.repaired_fraction > 0.0);
        assert_eq!(figures.post_repair_escapes, 0, "repairs must be sound");
        assert!(figures.mean_time_to_repair > 0.0);
        assert!((0.0..=1.0).contains(&figures.escape()));
    }

    #[test]
    fn repair_stage_rejects_horizons_shorter_than_one_session() {
        use crate::space::RepairPolicy;
        // MATS+ on 1024 words = 5120 cycles > the 1600-cycle horizon: no
        // diagnosing session could complete, so the stage must fail
        // loudly instead of reporting zero repairs everywhere.
        let ev = Evaluator::default().repair_stage(RepairAdjudication {
            horizon: 1600,
            ..RepairAdjudication::default()
        });
        let mut p = DesignPoint::paper(
            RamOrganization::with_mux8(1024, 16),
            10,
            1e-9,
            SelectionPolicy::InverseA,
        );
        p.repair = RepairPolicy {
            spare_rows: 1,
            diag_period: 500,
        };
        let err = ev.evaluate(&p).unwrap_err();
        assert!(
            matches!(
                err,
                ExploreError::RepairHorizonTooShort {
                    horizon: 1600,
                    session_cycles: 5120
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("no diagnosis could ever complete"));
    }

    fn adjudicated_evaluator(trials: u32, sliced: bool) -> Evaluator {
        Evaluator::default().adjudicate(Adjudication {
            campaign: CampaignConfig {
                cycles: 10,
                trials,
                seed: 0xE7,
                write_fraction: 0.1,
            },
            max_faults: 16,
            sliced,
            ..Adjudication::default()
        })
    }

    /// A model wrapper that counts stream instantiations.
    #[derive(Debug)]
    struct CountingModel(Arc<AtomicUsize>);

    impl WorkloadModel for CountingModel {
        fn name(&self) -> &'static str {
            "uniform"
        }
        fn stream(
            &self,
            spec: scm_memory::workload::WorkloadSpec,
            seed: u64,
        ) -> scm_memory::workload::OpStream {
            self.0.fetch_add(1, Ordering::Relaxed);
            scm_memory::workload::UniformRandom.stream(spec, seed)
        }
    }

    #[test]
    fn oracle_adjudication_draws_every_cell_stream_itself() {
        // The executor tests compare slab adjudication against
        // `sliced: false`; that is only an oracle check while the oracle
        // draws each (scenario, trial) stream itself instead of
        // replaying the evaluator's shared arena.
        let p = DesignPoint::paper(small_geometry(), 10, 1e-9, SelectionPolicy::InverseA);
        let adjudicate = |sliced: bool| {
            let calls = Arc::new(AtomicUsize::new(0));
            let ev = adjudicated_evaluator(4, sliced)
                .register_workload(Arc::new(CountingModel(calls.clone())));
            let emp = ev.evaluate(&p).unwrap().empirical.unwrap();
            (calls.load(Ordering::Relaxed) as u64, emp)
        };
        let (oracle_calls, oracle) = adjudicate(false);
        assert_eq!(oracle_calls, oracle.scenario_trials, "one per cell");
        let (slab_calls, slab) = adjudicate(true);
        assert_eq!(slab_calls, 4, "one per trial");
        assert_eq!(oracle, slab);
    }

    #[test]
    fn full_fidelity_override_is_bit_identical_to_evaluate() {
        for sliced in [false, true] {
            let ev = adjudicated_evaluator(8, sliced);
            let p = DesignPoint::paper(small_geometry(), 10, 1e-9, SelectionPolicy::InverseA);
            let full = ev.evaluate(&p).unwrap();
            let overridden = ev.evaluate_at_fidelity(&p, Some(8)).unwrap();
            assert_eq!(full, overridden, "sliced={sliced}");
            let low = ev.evaluate_at_fidelity(&p, Some(2)).unwrap();
            let emp = low.empirical.unwrap();
            assert_eq!(emp.trials_per_fault, 2);
            assert_eq!(emp.scenario_trials, emp.faults as u64 * 2);
            // Everything outside the adjudication stage is fidelity-blind.
            assert_eq!(low.plan, full.plan);
            assert_eq!(low.area, full.area);
        }
    }

    #[test]
    fn fidelity_knob_requires_adjudication() {
        let ev = Evaluator::default();
        let p = DesignPoint::paper(small_geometry(), 10, 1e-9, SelectionPolicy::InverseA);
        assert_eq!(
            ev.evaluate_at_fidelity(&p, Some(4)),
            Err(ExploreError::AdjudicationRequired)
        );
        assert_eq!(
            ev.scenario_count(&p),
            Err(ExploreError::AdjudicationRequired)
        );
        // `None` stays the plain pipeline.
        assert!(ev.evaluate_at_fidelity(&p, None).is_ok());
    }

    #[test]
    fn scenario_count_matches_the_campaigned_universe() {
        let ev = adjudicated_evaluator(4, false);
        let p = DesignPoint::paper(small_geometry(), 10, 1e-9, SelectionPolicy::InverseA);
        let n = ev.scenario_count(&p).unwrap();
        let emp = ev.evaluate(&p).unwrap().empirical.unwrap();
        assert_eq!(n, emp.faults);
        assert!(n > 0 && n <= 16);
    }

    #[test]
    fn confidence_intervals_shrink_with_fidelity_and_bracket_the_mean() {
        let ev = adjudicated_evaluator(16, true);
        let p = DesignPoint::paper(small_geometry(), 10, 1e-9, SelectionPolicy::InverseA);
        let low = ev
            .evaluate_at_fidelity(&p, Some(2))
            .unwrap()
            .empirical
            .unwrap();
        let high = ev.evaluate(&p).unwrap().empirical.unwrap();
        let (llo, lhi) = low.escape_interval(1e-3);
        let (hlo, hhi) = high.escape_interval(1e-3);
        assert!(llo <= low.mean_escape && low.mean_escape <= lhi);
        assert!(lhi - llo >= hhi - hlo, "more trials must not widen the CI");
        assert!((0.0..=1.0).contains(&llo) && (0.0..=1.0).contains(&lhi));
        let (tlo, thi) = high.latency_interval(1e-3);
        assert!(tlo <= high.mean_latency && high.mean_latency <= thi);
        assert!(thi <= high.horizon as f64);
        assert!(high.mean_latency > 0.0 && high.mean_latency <= high.horizon as f64);
        assert_eq!(
            EmpiricalFigures::hoeffding_half_width(0, 1e-3),
            f64::INFINITY
        );
    }

    #[test]
    fn profile_digest_fingerprints_the_campaign() {
        let ev = adjudicated_evaluator(8, true);
        let p = DesignPoint::paper(small_geometry(), 10, 1e-9, SelectionPolicy::InverseA);
        let a = ev.evaluate(&p).unwrap().empirical.unwrap();
        let b = ev.evaluate(&p).unwrap().empirical.unwrap();
        assert_eq!(a.profile_digest, b.profile_digest, "digest is pure");
        let mut longer = p.clone();
        longer.cycles = 20;
        let c = ev.evaluate(&longer).unwrap().empirical.unwrap();
        assert_ne!(
            a.profile_digest, c.profile_digest,
            "a different horizon must change the outcome profile"
        );
    }

    #[test]
    fn subsample_even_and_capped() {
        let universe: Vec<FaultSite> = decoder_fault_universe(4)
            .into_iter()
            .map(FaultSite::RowDecoder)
            .collect();
        assert_eq!(subsample(&universe, 0).len(), universe.len());
        let capped = subsample(&universe, 10);
        assert!(capped.len() <= 10 && capped.len() >= 8, "{}", capped.len());
        assert_eq!(subsample(&universe, 1000).len(), universe.len());
    }
}
