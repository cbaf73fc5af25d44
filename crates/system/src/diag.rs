//! BIST diagnosis and repair scheduled on the system clock.
//!
//! A [`DiagPolicy`] puts the `scm-diag` machinery into the sharded
//! runtime: March sessions run **on the global clock**, stealing
//! consecutive mission cycles the way scrub reads steal their slots —
//! except a session is a long interruption, not one read, so the
//! diagnosis latency the paper's trade-off must absorb is directly
//! visible. Two triggers:
//!
//! * **reactive** — the repair interrupt: the first cycle a bank's
//!   checker flags during mission service, a diagnosing session on that
//!   bank starts on the next cycle (per-bank checkers identify the bank);
//! * **proactive** — every `period` cycles a session tests the next bank
//!   round-robin (`0` = reactive only), bounding the latency of faults
//!   mission traffic never tickles.
//!
//! Sessions are destructive (March overwrites the bank), so after each
//! one the bank rolls back to its recovery image — the checkpoint-restore
//! whose cost shows up in the Aupy-style lost-work account. When a
//! session's signature localizes the fault and the spare budget covers
//! the ambiguity set, the bank is *repaired*: the engine swaps in the
//! [`RepairedRam`] (recovered from the same image) and mission service
//! continues on it; any post-repair erroneous output or indication is
//! counted — zero is the acceptance bar.
//!
//! The campaign is a client of [`crate::engine::SystemCampaign`]'s
//! estimator: a trial draws the system engine's `(seed, bank, trial)`
//! traffic stream, shared by every fault of the bank, and its first
//! pre-repair mission error and first indication (mission checker or
//! BIST syndrome) fold through [`SystemFaultResult`]'s accounting — the
//! same detections, escapes and Aupy lost work. The March background is
//! pinned by the policy (sessions must replay the dictionary's
//! background for signatures to align), and per-fault statistics are
//! commutative sums — **bit-identical at every thread count**.
//!
//! Dictionary scope: the engine files only the *campaigned* candidates
//! of each bank, so diagnosing distinguishes among the hypotheses the
//! campaign actually injects (ambiguity sets are lower bounds).
//! Full-universe dictionaries — and their honest parity-background blind
//! spot — live in the single-memory layer (`scm_diag::dictionary`).

use crate::clock::SystemClock;
use crate::engine::{check_banks, trial_clock, Detection, SystemFault, SystemFaultResult, Totals};
use crate::system::{bank_prefill_seed, MemorySystem, SystemConfig};
use scm_diag::dictionary::FaultDictionary;
use scm_diag::march::{MarchSession, MarchTest};
use scm_diag::repair::{RepairOutcome, RepairedRam, SpareAllocator, SpareBudget};
use scm_memory::backend::{BehavioralBackend, FaultSimBackend};
use scm_memory::campaign::{stride_sample, CampaignConfig};
use scm_memory::fault::FaultSite;
use scm_memory::grid::par_map;
use scm_memory::sim::DetectionOutcome;
use scm_memory::sliced::MAX_SLAB_LANES;
use scm_memory::workload::{Op, OpStream, UniformRandom, WorkloadModel};
use scm_obs::{sort_chronological, Event, EventKind, Verdict};
use std::sync::Arc;

/// How the system schedules BIST diagnosis and what it may repair with.
#[derive(Debug, Clone)]
pub struct DiagPolicy {
    /// Proactive session period in system cycles (`0` = reactive only:
    /// sessions fire solely on checker indications).
    pub period: u64,
    /// The March test sessions run.
    pub test: MarchTest,
    /// Session seed: fixes the data background of every session *and*
    /// the dictionaries, so observed signatures match filed ones.
    pub session_seed: u64,
    /// Per-bank spare budget available to each trial.
    pub budget: SpareBudget,
}

impl DiagPolicy {
    /// Reactive-only policy: diagnose on the first indication, using the
    /// given March test and spare budget.
    pub fn reactive(test: MarchTest, budget: SpareBudget) -> Self {
        DiagPolicy {
            period: 0,
            test,
            session_seed: 0xD1A6,
            budget,
        }
    }

    /// Add proactive sessions every `period` cycles.
    pub fn proactive(mut self, period: u64) -> Self {
        self.period = period;
        self
    }
}

/// Aggregated trial counters for one system fault under diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagFaultResult {
    /// The system engine's row for this cell, folded by the same
    /// accounting: trials, detections (mission checker or BIST syndrome)
    /// within the horizon, escapes, onset latency and lost work. A
    /// trial's error onset is its first pre-repair erroneous output.
    pub detection: SystemFaultResult,
    /// Trials whose diagnosing session localized the fault (ambiguity
    /// set contains the true site).
    pub localized: u32,
    /// Sum of ambiguity-set sizes over localized trials.
    pub ambiguity_sum: u64,
    /// Trials repaired onto a spare.
    pub repaired: u32,
    /// Sum over repaired trials of `repair cycle − onset` (global
    /// cycles); onset is the first erroneous output, falling back to the
    /// detection cycle for faults that flag before erring.
    pub time_to_repair_sum: u64,
    /// Cycles stolen by BIST sessions, summed over trials.
    pub bist_cycle_sum: u64,
    /// Post-repair erroneous outputs across all trials (acceptance: 0).
    pub post_repair_escapes: u32,
    /// Post-repair checker indications across all trials (acceptance: 0).
    pub post_repair_indications: u32,
}

impl DiagFaultResult {
    fn new(fault: SystemFault) -> Self {
        DiagFaultResult {
            detection: SystemFaultResult::empty(fault),
            localized: 0,
            ambiguity_sum: 0,
            repaired: 0,
            time_to_repair_sum: 0,
            bist_cycle_sum: 0,
            post_repair_escapes: 0,
            post_repair_indications: 0,
        }
    }
}

/// Whole-campaign result under a diagnosis policy.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagSystemResult {
    /// Per-fault outcomes, universe order.
    pub per_fault: Vec<DiagFaultResult>,
    /// The campaign parameters (`cycles` is the per-trial horizon).
    pub campaign: CampaignConfig,
    /// The policy in force.
    pub policy_period: u64,
    /// Session length per bank, in cycles.
    pub session_cycles: Vec<u64>,
}

impl DiagSystemResult {
    /// Every per-fault counter, universe order — the determinism-contract
    /// observable.
    pub fn determinism_profile(&self) -> Vec<(usize, usize, FaultSite, Vec<u64>)> {
        self.per_fault
            .iter()
            .map(|f| {
                let d = &f.detection;
                (
                    d.fault.bank,
                    d.fault.index,
                    d.fault.site,
                    vec![
                        d.trials as u64,
                        d.detected as u64,
                        d.error_escapes as u64,
                        d.detection_cycle_sum,
                        d.latency_from_error_sum,
                        d.lost_work_sum,
                        f.localized as u64,
                        f.ambiguity_sum,
                        f.repaired as u64,
                        f.time_to_repair_sum,
                        f.bist_cycle_sum,
                        f.post_repair_escapes as u64,
                        f.post_repair_indications as u64,
                    ],
                )
            })
            .collect()
    }

    fn totals(&self) -> Totals {
        Totals::of(self.per_fault.iter().map(|f| &f.detection))
    }

    /// Fraction of trials detected within the horizon.
    pub fn detected_fraction(&self) -> f64 {
        let totals = self.totals();
        totals.per_trial(totals.detected)
    }

    /// Fraction of trials whose fault was localized.
    pub fn localized_fraction(&self) -> f64 {
        let localized = self.per_fault.iter().map(|f| f.localized as u64).sum();
        self.totals().per_trial(localized)
    }

    /// Fraction of trials repaired back to service.
    pub fn repaired_fraction(&self) -> f64 {
        let repaired = self.per_fault.iter().map(|f| f.repaired as u64).sum();
        self.totals().per_trial(repaired)
    }

    /// Mean time to repair over **all** trials, unrepaired trials
    /// censored at the full horizon — the scheduler-facing availability
    /// figure (and the repair-aware Pareto's latency axis).
    pub fn mean_time_to_repair(&self) -> f64 {
        let totals = self.totals();
        let repaired: u64 = self.per_fault.iter().map(|f| f.repaired as u64).sum();
        let sum: u64 = self.per_fault.iter().map(|f| f.time_to_repair_sum).sum();
        let censored = (totals.trials - repaired) * self.campaign.cycles;
        totals.per_trial(sum + censored)
    }

    /// Mean fraction of the horizon stolen by BIST sessions.
    pub fn bist_overhead(&self) -> f64 {
        let trials = self.totals().trials;
        if trials == 0 || self.campaign.cycles == 0 {
            return 0.0;
        }
        let stolen: u64 = self.per_fault.iter().map(|f| f.bist_cycle_sum).sum();
        stolen as f64 / (trials * self.campaign.cycles) as f64
    }

    /// Expected lost work per failure (Aupy-style, horizon-censored).
    pub fn expected_lost_work(&self) -> f64 {
        let totals = self.totals();
        totals.per_trial(totals.lost_work)
    }

    /// Total post-repair erroneous outputs (must be 0 for sound repairs).
    pub fn post_repair_escapes(&self) -> u32 {
        self.per_fault.iter().map(|f| f.post_repair_escapes).sum()
    }
}

/// The parallel diagnosis-campaign runner over a sharded system.
#[derive(Debug, Clone)]
pub struct DiagCampaign {
    system: SystemConfig,
    policy: DiagPolicy,
    campaign: CampaignConfig,
    model: Arc<dyn WorkloadModel>,
    threads: usize,
}

impl DiagCampaign {
    /// Campaign over `system` under `policy`, uniform traffic.
    pub fn new(system: SystemConfig, policy: DiagPolicy, campaign: CampaignConfig) -> Self {
        DiagCampaign {
            system,
            policy,
            campaign,
            model: Arc::new(UniformRandom),
            threads: 0,
        }
    }

    /// Plug in a shared traffic model.
    pub fn workload_model(mut self, model: Arc<dyn WorkloadModel>) -> Self {
        self.model = model;
        self
    }

    /// Pin the thread count (`0` = ambient rayon default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The system under campaign.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The diagnosis policy.
    pub fn policy(&self) -> &DiagPolicy {
        &self.policy
    }

    /// A deterministic mixed universe: exactly up to `max_cells_per_bank`
    /// stuck-cell faults (evenly strided over each bank's cell universe)
    /// plus up to `max_decoder_per_bank` row-decoder faults per bank.
    /// Unlike `SystemCampaign::decoder_universe`, a cap of `0` *excludes*
    /// that class (this builder mixes classes, so "everything" is spelled
    /// with an explicit large cap). Per-bank indices are the fault's
    /// identity in results and events, shared across both classes.
    pub fn diag_universe(
        &self,
        max_cells_per_bank: usize,
        max_decoder_per_bank: usize,
    ) -> Vec<SystemFault> {
        let mut universe = Vec::new();
        for (bank, cfg) in self.system.banks.iter().enumerate() {
            let mut sites: Vec<FaultSite> = Vec::new();
            let cells = scm_diag::cell_universe(cfg);
            if max_cells_per_bank > 0 {
                sites.extend(stride_sample(&cells, max_cells_per_bank));
            }
            let decoders: Vec<FaultSite> =
                scm_memory::campaign::decoder_fault_universe(cfg.org().row_bits())
                    .into_iter()
                    .map(FaultSite::RowDecoder)
                    .collect();
            if max_decoder_per_bank > 0 {
                sites.extend(stride_sample(&decoders, max_decoder_per_bank));
            }
            for (index, site) in sites.into_iter().enumerate() {
                universe.push(SystemFault::permanent(bank, index, site));
            }
        }
        universe
    }

    /// Per-bank dictionaries over exactly the campaigned candidates.
    fn dictionaries(&self, universe: &[SystemFault]) -> Vec<Option<FaultDictionary>> {
        (0..self.system.num_banks())
            .map(|bank| {
                let candidates: Vec<FaultSite> = universe
                    .iter()
                    .filter(|f| f.bank == bank)
                    .map(|f| f.site)
                    .collect();
                (!candidates.is_empty()).then(|| {
                    FaultDictionary::build_sliced(
                        &self.system.banks[bank],
                        &self.policy.test,
                        self.policy.session_seed,
                        &candidates,
                        self.threads,
                        MAX_SLAB_LANES,
                    )
                })
            })
            .collect()
    }

    /// Run the `bank × fault × trial` grid under the diagnosis policy.
    ///
    /// # Panics
    /// Panics if a universe entry names a bank outside the system, or a
    /// non-permanent fault process.
    pub fn run(&self, universe: &[SystemFault]) -> DiagSystemResult {
        self.pass(universe, false).0
    }

    /// [`run`](Self::run), also recording the grid as a structured event
    /// trace: fault activation, BIST session start/verdict, spare
    /// commit, detection, escape.
    ///
    /// The events come from the same pass and the same state machine
    /// the results do, each trial's sorted chronologically when the
    /// trial ends and assembled in `(universe position, trial)` order —
    /// a pure function of the trial's inputs, so bit-identical at any
    /// thread count.
    ///
    /// # Panics
    /// As [`run`](Self::run).
    pub fn run_traced(&self, universe: &[SystemFault]) -> (DiagSystemResult, Vec<Event>) {
        self.pass(universe, true)
    }

    fn pass(&self, universe: &[SystemFault], traced: bool) -> (DiagSystemResult, Vec<Event>) {
        self.validate(universe);
        let template = MemorySystem::new(self.system.clone(), self.campaign.seed);
        let dictionaries = self.dictionaries(universe);
        let (per_fault, events): (Vec<_>, Vec<_>) = par_map(self.threads, universe, |&fault| {
            let mut events = Vec::new();
            let trace = traced.then_some(&mut events);
            let result = self.run_fault(&template, &dictionaries, fault, trace);
            (result, events)
        })
        .into_iter()
        .unzip();
        let result = DiagSystemResult {
            per_fault,
            campaign: self.campaign,
            policy_period: self.policy.period,
            session_cycles: self
                .system
                .banks
                .iter()
                .map(|b| self.policy.test.session_cycles(b.org().words()))
                .collect(),
        };
        (result, events.into_iter().flatten().collect())
    }

    fn validate(&self, universe: &[SystemFault]) {
        check_banks(&self.system, universe);
        // Diagnosis sessions roll banks back to the recovery image, which
        // restarts a backend's activation clock: the scheduler is only
        // sound for the classical injected-at-reset model. Transient
        // indications are triaged at the memory level instead
        // (`scm_diag::triage_session`'s repeat-and-compare policy).
        if let Some(bad) = universe
            .iter()
            .find(|f| f.process != scm_memory::fault::FaultProcess::PERMANENT)
        {
            panic!(
                "DiagCampaign schedules only permanent faults; got {}",
                bad.scenario()
            );
        }
    }

    /// Run every trial of one fault, appending its events to `trace`
    /// when one is given.
    fn run_fault(
        &self,
        template: &MemorySystem,
        dictionaries: &[Option<FaultDictionary>],
        fault: SystemFault,
        mut trace: Option<&mut Vec<Event>>,
    ) -> DiagFaultResult {
        let mut result = DiagFaultResult::new(fault);
        let plain_template: BehavioralBackend = template.banks()[fault.bank].clone();
        let (checkpoint, horizon) = (&self.system.checkpoint, self.campaign.cycles);
        for trial in 0..self.campaign.trials {
            let start = trace.as_ref().map_or(0, |events| events.len());
            let mut trial_run = TrialRun {
                engine: self,
                fault,
                trial,
                trace: trace.as_deref_mut(),
                dictionary: dictionaries[fault.bank].as_ref(),
                plain: plain_template.clone(),
                repaired: None,
                allocator: SpareAllocator::new(self.policy.budget),
                clock: trial_clock(
                    &self.system,
                    &self.campaign,
                    &*self.model,
                    fault.bank,
                    trial,
                ),
                cycle: 0,
                onset: None,
                detected_at: None,
                localized: false,
                ambiguity: 0,
                repaired_at: None,
                abandoned: false,
                bist_cycles: 0,
                post_repair_escapes: 0,
                post_repair_indications: 0,
                rr_bank: 0,
            };
            trial_run.plain.reset_site(Some(fault.site));
            // The classical injected-at-reset model: active from cycle 0.
            trial_run.emit(0, EventKind::Activate);
            trial_run.run();
            // BIST can flag before mission traffic ever delivers an
            // erroneous output; `Detection::of` then anchors the rollback
            // at the detection itself, never at a later onset.
            let out = DetectionOutcome {
                cycles_run: horizon,
                first_error: trial_run.onset,
                first_detection: trial_run.detected_at,
            };
            if let Some(d) = Detection::of(&fault.process, &out, checkpoint) {
                trial_run.emit(d.cycle, EventKind::Detect { latency: d.latency });
            }
            if out.error_escaped() {
                let e = out.first_error.expect("an escape implies an error");
                trial_run.emit(e, EventKind::Escape);
            }
            result.detection.record(&out, checkpoint, horizon);
            if trial_run.localized {
                result.localized += 1;
                result.ambiguity_sum += trial_run.ambiguity as u64;
            }
            if let Some(r) = trial_run.repaired_at {
                result.repaired += 1;
                let onset = trial_run
                    .onset
                    .or(trial_run.detected_at)
                    .unwrap_or(r)
                    .min(r);
                result.time_to_repair_sum += r - onset;
            }
            result.bist_cycle_sum += trial_run.bist_cycles;
            result.post_repair_escapes += trial_run.post_repair_escapes;
            result.post_repair_indications += trial_run.post_repair_indications;
            // Detect and Escape are latched after the session events.
            if let Some(events) = trace.as_deref_mut() {
                sort_chronological(&mut events[start..]);
            }
        }
        result
    }
}

/// One trial's state machine.
struct TrialRun<'a> {
    engine: &'a DiagCampaign,
    fault: SystemFault,
    trial: u32,
    /// The fault's event trace, when the pass records one.
    trace: Option<&'a mut Vec<Event>>,
    dictionary: Option<&'a FaultDictionary>,
    plain: BehavioralBackend,
    repaired: Option<RepairedRam>,
    allocator: SpareAllocator,
    clock: SystemClock<OpStream>,
    cycle: u64,
    onset: Option<u64>,
    detected_at: Option<u64>,
    localized: bool,
    ambiguity: usize,
    repaired_at: Option<u64>,
    /// A diagnosis ran and could not repair; stop re-triggering.
    abandoned: bool,
    bist_cycles: u64,
    post_repair_escapes: u32,
    post_repair_indications: u32,
    rr_bank: usize,
}

impl TrialRun<'_> {
    fn horizon(&self) -> u64 {
        self.engine.campaign.cycles
    }

    /// Record a trace event against this trial's grid cell, when the
    /// pass records a trace.
    fn emit(&mut self, t: u64, kind: EventKind) {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.push(Event::cell(
                t,
                self.fault.bank as u32,
                self.fault.index as u32,
                self.trial,
                kind,
            ));
        }
    }

    fn emit_verdict(&mut self, verdict: Verdict, ambiguity: u64) {
        self.emit(self.cycle, EventKind::BistVerdict { verdict, ambiguity });
    }

    fn step_bank(&mut self, op: Op) -> scm_memory::backend::CycleObservation {
        match &mut self.repaired {
            Some(ram) => ram.step(op),
            None => self.plain.step(op),
        }
    }

    /// Roll the faulted bank back to its recovery image (destructive
    /// session or repair hand-over).
    fn rollback(&mut self) {
        let site = Some(self.fault.site);
        match &mut self.repaired {
            Some(ram) => ram.reset_site(site),
            None => self.plain.reset_site(site),
        }
    }

    fn run(&mut self) {
        let num_banks = self.engine.system.num_banks();
        let period = self.engine.policy.period;
        while self.cycle < self.horizon() {
            if period > 0 && (self.cycle + 1).is_multiple_of(period) {
                let bank = self.rr_bank % num_banks;
                self.rr_bank += 1;
                self.run_session(bank, false);
                continue;
            }
            let (bank, op) = self.clock.next_event().target();
            if bank != self.fault.bank {
                self.cycle += 1;
                continue; // fault-free banks are exactly silent
            }
            let obs = self.step_bank(op);
            let erroneous = obs.erroneous.unwrap_or(false);
            let detected = obs.detected();
            if self.repaired_at.is_some() {
                self.post_repair_escapes += erroneous as u32;
                self.post_repair_indications += detected as u32;
            } else if erroneous && self.onset.is_none() {
                self.onset = Some(self.cycle);
            }
            let flagged_pre_repair = detected && self.repaired_at.is_none();
            if flagged_pre_repair && self.detected_at.is_none() {
                self.detected_at = Some(self.cycle);
            }
            self.cycle += 1;
            // The repair interrupt: an indication triggers an immediate
            // session on the flagged bank (once — re-diagnosing a fault
            // the spares cannot cover would replay the same verdict).
            if flagged_pre_repair && !self.abandoned {
                self.run_session(self.fault.bank, true);
            }
        }
    }

    /// Run one March session on `bank`, stealing cycles from the global
    /// clock. Sessions on fault-free banks are silent and simply advance
    /// time (the single-fault soundness argument of the system engine).
    fn run_session(&mut self, bank: usize, reactive: bool) {
        let engine = self.engine;
        let test = &engine.policy.test;
        let words = engine.system.banks[bank].org().words();
        let word_bits = engine.system.banks[bank].org().word_bits();
        let session_len = test.session_cycles(words);
        self.emit(
            self.cycle,
            EventKind::BistStart {
                target: bank as u32,
                reactive,
            },
        );
        if bank != self.fault.bank {
            let consumed = session_len.min(self.horizon() - self.cycle);
            self.cycle += consumed;
            self.bist_cycles += consumed;
            self.emit_verdict(Verdict::Silent, 0);
            return;
        }
        // The shared incremental runner keeps syndrome recording (and
        // therefore signatures) identical to `run_march`'s; only the
        // global-clock accounting between ops lives here.
        let mut session = MarchSession::new(test, words, word_bits, engine.policy.session_seed);
        while self.cycle < self.horizon() {
            let Some(op) = session.next_op() else {
                break;
            };
            let obs = self.step_bank(op);
            let flagged = session.record(obs);
            if flagged && self.detected_at.is_none() && self.repaired_at.is_none() {
                self.detected_at = Some(self.cycle);
            }
            self.cycle += 1;
            self.bist_cycles += 1;
        }
        let complete = session.complete();
        let log = session.into_log();
        // Destructive session: restore the bank from the recovery image
        // before mission traffic resumes (the checkpoint-restore step).
        // A zero-length session (horizon hit before the first op) never
        // touched the bank, so there is nothing to restore.
        if log.cycles > 0 {
            self.rollback();
        }
        if !complete {
            self.emit_verdict(Verdict::Incomplete, 0);
            return;
        }
        if self.repaired_at.is_some() || self.abandoned {
            // The trial's diagnosis already settled; a later (proactive)
            // session just replays its log — classify by the log alone.
            let verdict = if log.clean() {
                Verdict::Clean
            } else {
                Verdict::Unrepairable
            };
            self.emit_verdict(verdict, 0);
            return;
        }
        let Some(dictionary) = self.dictionary else {
            let verdict = if log.clean() {
                Verdict::Clean
            } else {
                Verdict::Unrepairable
            };
            self.emit_verdict(verdict, 0);
            return;
        };
        if log.clean() {
            // A complete clean session proves this test is blind to the
            // fault (stuck-ats are time-invariant, backgrounds pinned):
            // re-running it on the next mission indication would replay
            // the same clean log, so stop the reactive trigger. Proactive
            // sessions keep firing — their bandwidth cost is real.
            self.abandoned = true;
            self.emit_verdict(Verdict::Clean, 0);
            return;
        }
        let diagnosis = dictionary.diagnose(&log);
        self.localized = diagnosis.contains(&self.fault.site);
        self.ambiguity = diagnosis.candidates.len();
        let config = &engine.system.banks[self.fault.bank];
        let outcome = self.allocator.allocate(config, &diagnosis);
        if outcome.repaired() {
            let mut ram = RepairedRam::prefilled(
                config,
                bank_prefill_seed(engine.campaign.seed, self.fault.bank),
                self.allocator.plan().clone(),
            );
            ram.reset_site(Some(self.fault.site));
            self.repaired = Some(ram);
            self.repaired_at = Some(self.cycle);
            self.emit_verdict(Verdict::Repaired, self.ambiguity as u64);
            self.emit(
                self.cycle,
                EventKind::SpareCommit {
                    row: matches!(outcome, RepairOutcome::RepairedRow { .. }),
                },
            );
        } else {
            self.abandoned = true;
            self.emit_verdict(Verdict::Unrepairable, self.ambiguity as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{CheckpointSchedule, ScrubSchedule};
    use crate::engine::SystemCampaign;
    use crate::interleave::Interleaving;
    use scm_area::RamOrganization;
    use scm_codes::{CodewordMap, MOutOfN};
    use scm_memory::design::RamConfig;

    fn bank(words: u64) -> RamConfig {
        let org = RamOrganization::new(words, 8, 4);
        let code = MOutOfN::new(3, 5).unwrap();
        RamConfig::new(
            org,
            CodewordMap::mod_a(code, 9, org.rows()).unwrap(),
            CodewordMap::mod_a(code, 9, 4).unwrap(),
        )
    }

    fn config() -> SystemConfig {
        SystemConfig {
            banks: vec![bank(64), bank(64)],
            interleaving: Interleaving::LowOrder,
            scrub: ScrubSchedule { period: 4 },
            checkpoint: CheckpointSchedule { interval: 64 },
        }
    }

    fn policy() -> DiagPolicy {
        DiagPolicy::reactive(MarchTest::mats_plus(), SpareBudget { rows: 1, cols: 0 })
            .proactive(600)
    }

    fn campaign() -> CampaignConfig {
        CampaignConfig {
            cycles: 1600,
            trials: 3,
            seed: 0xD1,
            write_fraction: 0.1,
        }
    }

    #[test]
    fn universe_mixes_cells_and_decoders_per_bank() {
        let engine = DiagCampaign::new(config(), policy(), campaign());
        let universe = engine.diag_universe(4, 4);
        for bank in 0..2 {
            let sites: Vec<_> = universe.iter().filter(|f| f.bank == bank).collect();
            assert!(
                sites.iter().any(|f| f.site.class() == "cell"),
                "bank {bank}"
            );
            assert!(
                sites.iter().any(|f| f.site.class() == "row-decoder"),
                "bank {bank}"
            );
            // Indices are the per-bank identity, 0-based and contiguous.
            let mut indices: Vec<usize> = sites.iter().map(|f| f.index).collect();
            indices.sort_unstable();
            assert_eq!(indices, (0..sites.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cell_fault_is_detected_localized_repaired_with_zero_post_repair_escapes() {
        let engine = DiagCampaign::new(config(), policy(), campaign());
        let universe = engine.diag_universe(6, 0);
        let result = engine.run(&universe);
        assert!(result.detected_fraction() > 0.5);
        assert!(result.repaired_fraction() > 0.5);
        assert_eq!(result.post_repair_escapes(), 0, "repairs must be sound");
        assert_eq!(
            result
                .per_fault
                .iter()
                .map(|f| f.post_repair_indications)
                .sum::<u32>(),
            0
        );
        assert!(result.mean_time_to_repair() > 0.0);
        assert!(result.bist_overhead() > 0.0);
        // Repaired trials must localize first.
        for f in &result.per_fault {
            assert!(f.repaired <= f.localized, "{:?}", f.detection.fault);
        }
    }

    #[test]
    fn campaign_is_bit_identical_at_any_thread_count() {
        let engine = DiagCampaign::new(config(), policy(), campaign());
        let universe = engine.diag_universe(3, 3);
        let reference = engine.clone().threads(1).run(&universe);
        for threads in [2usize, 4, 8] {
            let result = engine.clone().threads(threads).run(&universe);
            assert_eq!(
                reference.determinism_profile(),
                result.determinism_profile(),
                "{threads} threads"
            );
        }
    }

    /// A model that logs every seed it streams.
    #[derive(Debug, Default)]
    struct SeedLog(std::sync::Mutex<Vec<u64>>);

    impl SeedLog {
        /// The seeds streamed since the last call, sorted.
        fn take(&self) -> Vec<u64> {
            let mut seeds = std::mem::take(&mut *self.0.lock().unwrap());
            seeds.sort_unstable();
            seeds
        }
    }

    impl WorkloadModel for SeedLog {
        fn name(&self) -> &'static str {
            "seed-log"
        }
        fn stream(
            &self,
            spec: scm_memory::workload::WorkloadSpec,
            seed: u64,
        ) -> scm_memory::workload::OpStream {
            self.0.lock().unwrap().push(seed);
            UniformRandom.stream(spec, seed)
        }
    }

    #[test]
    fn every_fault_of_a_bank_draws_the_system_engines_trial_traffic() {
        // The system engine's oracle draws one `(bank, trial)` stream per
        // `(fault, trial)` cell; the diagnosis scheduler must draw exactly
        // those, so every fault of a bank shares each trial's traffic.
        let log = Arc::new(SeedLog::default());
        let engine = DiagCampaign::new(config(), policy(), campaign())
            .workload_model(log.clone())
            .threads(4);
        let universe = engine.diag_universe(3, 2);
        engine.run(&universe);
        let diag = log.take();
        SystemCampaign::new(config(), campaign())
            .workload_model(log.clone())
            .sliced(false)
            .run(&universe);
        let trials = campaign().trials as usize;
        assert_eq!(diag.len(), universe.len() * trials);
        assert_eq!(diag, log.take());
        let mut streams = diag;
        streams.dedup();
        assert_eq!(streams.len(), config().num_banks() * trials);
    }

    #[test]
    fn traced_pass_returns_the_result_and_events_that_account_for_it() {
        let engine = DiagCampaign::new(config(), policy(), campaign());
        // Every row-decoder fault: the few whose lines share a codeword
        // let an erroneous read escape before any indication.
        let universe = engine.diag_universe(4, 64);
        let result = engine.clone().threads(1).run(&universe);
        let (traced, events) = engine.clone().threads(1).run_traced(&universe);
        assert_eq!(traced, result);
        for threads in [2usize, 4, 8] {
            let (traced, threaded) = engine.clone().threads(threads).run_traced(&universe);
            assert_eq!(traced, result, "{threads} threads");
            assert_eq!(threaded, events, "{threads} threads");
        }
        for pair in events.windows(2) {
            let same_trial = (pair[0].bank, pair[0].fault, pair[0].trial)
                == (pair[1].bank, pair[1].fault, pair[1].trial);
            assert!(!same_trial || pair[0].t <= pair[1].t, "{pair:?}");
        }
        let (mut escapes, mut repaired) = (0, 0);
        for f in &result.per_fault {
            let d = &f.detection;
            let count = |kind: fn(&EventKind) -> bool| {
                events
                    .iter()
                    .filter(|e| e.bank == d.fault.bank as u32 && e.fault == d.fault.index as u32)
                    .filter(|e| kind(&e.kind))
                    .count() as u32
            };
            let at = d.fault;
            assert_eq!(
                count(|k| matches!(k, EventKind::Detect { .. })),
                d.detected,
                "{at:?}"
            );
            assert_eq!(
                count(|k| matches!(k, EventKind::Escape)),
                d.error_escapes,
                "{at:?}"
            );
            let commits = count(|k| matches!(k, EventKind::SpareCommit { .. }));
            assert_eq!(commits, f.repaired, "{at:?}");
            escapes += d.error_escapes;
            repaired += f.repaired;
        }
        assert!(
            escapes > 0 && repaired > 0,
            "escapes {escapes}, repairs {repaired}"
        );
    }

    #[test]
    fn reactive_only_policy_still_repairs_mission_detected_faults() {
        let mut p = policy();
        p.period = 0;
        let engine = DiagCampaign::new(config(), p, campaign());
        let universe = engine.diag_universe(4, 0);
        let result = engine.run(&universe);
        // Mission reads of a corrupted word trip the parity checker; the
        // interrupt then walks detection through to repair. Cells whose
        // stuck value matches the stored image stay latent until a write
        // flips the stored bit, so reactive-only coverage is partial.
        assert!(
            result.repaired_fraction() > 0.3,
            "{}",
            result.repaired_fraction()
        );
        assert_eq!(result.post_repair_escapes(), 0);
    }

    #[test]
    fn proactive_sessions_bound_detection_for_mission_silent_faults() {
        // A stuck cell matching its stored value is mission-silent until
        // some write flips the stored bit; proactive BIST finds it within
        // one session regardless. Proactive coverage must dominate, at a
        // strictly higher bandwidth cost.
        let mk = |period: u64| {
            let mut p = policy();
            p.period = period;
            let engine = DiagCampaign::new(config(), p, campaign());
            let universe = engine.diag_universe(5, 0);
            engine.run(&universe)
        };
        let reactive = mk(0);
        let proactive = mk(400);
        assert!(
            proactive.detected_fraction() >= reactive.detected_fraction(),
            "proactive {} vs reactive {}",
            proactive.detected_fraction(),
            reactive.detected_fraction()
        );
        assert!(proactive.bist_overhead() > reactive.bist_overhead());
    }

    #[test]
    fn march_silent_fault_runs_at_most_one_reactive_session_per_trial() {
        // A parity-group cell stuck at the session background's parity
        // is March-silent but flags the mission parity checker whenever
        // a word of the other parity is stored. The first (clean,
        // complete) session must abandon further reactive triggers —
        // without that, every later indication would burn another full
        // destructive session.
        let policy = DiagPolicy::reactive(MarchTest::mats_plus(), SpareBudget { rows: 1, cols: 0 });
        let parity = scm_diag::background(policy.session_seed, 8).count_ones() % 2 == 1;
        let site = FaultSite::Cell {
            row: 3,
            col: 33, // parity column group (bit group 8), col-select 1
            stuck: parity,
        };
        let system = SystemConfig {
            banks: vec![bank(64)],
            interleaving: Interleaving::LowOrder,
            scrub: ScrubSchedule { period: 4 },
            checkpoint: CheckpointSchedule { interval: 64 },
        };
        let campaign = CampaignConfig {
            cycles: 1600,
            trials: 3,
            seed: 0xB11D,
            write_fraction: 0.2,
        };
        let session_len = policy.test.session_cycles(64);
        let engine = DiagCampaign::new(system, policy, campaign);
        let universe = vec![SystemFault::permanent(0, 0, site)];
        let result = engine.run(&universe);
        let f = &result.per_fault[0];
        let trials = f.detection.trials;
        assert!(
            f.detection.detected > 0,
            "mission traffic must tickle the cell"
        );
        assert_eq!(f.localized, 0, "the test is blind to this fault");
        assert_eq!(f.repaired, 0);
        assert!(
            f.bist_cycle_sum <= trials as u64 * session_len,
            "at most one clean session per trial: {} BIST cycles over {} trials \
             of {session_len}-cycle sessions",
            f.bist_cycle_sum,
            trials
        );
    }

    #[test]
    #[should_panic(expected = "bank 9")]
    fn out_of_range_bank_panics() {
        let engine = DiagCampaign::new(config(), policy(), campaign());
        let mut universe = engine.diag_universe(2, 0);
        universe[0].bank = 9;
        engine.run(&universe);
    }
}
