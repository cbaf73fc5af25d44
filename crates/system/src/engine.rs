//! The parallel system-level fault campaign.
//!
//! One engine runs the whole `bank × fault × trial` grid of a multi-bank
//! system: each trial replays the full system event stream (mission
//! traffic through the interleaver, scrub reads stealing their slots) and
//! injects one fault into one bank. Detection is measured in **system
//! cycles** on the global clock, so a bank that receives little traffic —
//! because interleaving starves it or scrubbing is off — shows exactly
//! the longer latency the single-memory analysis cannot see.
//!
//! Determinism is the campaign engine's contract, extended one axis:
//!
//! * every trial's traffic stream is seeded purely from
//!   `(campaign seed, bank, trial)` and shared by every fault of the bank
//!   (common random numbers),
//! * every bank's prefill image is seeded purely from
//!   `(campaign seed, bank)`,
//! * per-fault statistics are sums of per-trial counters, which commute,
//!
//! so results are **bit-identical at every thread count**; the test suite
//! (`tests/system_engine.rs`, and the byte-pinned `scm system` fixture at
//! 1/2/4/8 threads) enforces it.
//!
//! Only the faulted bank is simulated per trial: under the single-fault
//! assumption every other bank is fault-free, and a fault-free
//! behavioural bank is exactly silent ([`MemorySystem::serve`]'s sanity
//! anchor, re-checked in the integration tests), so skipping its steps
//! changes nothing observable while cutting the work `N`-fold.
//!
//! Two executors run the one estimator: the slab executor (the default)
//! packs a bank's faults into the lanes of a bit-sliced pass, the generic
//! executor steps a behavioural bank one fault at a time and is the
//! oracle the slab path is tested against (`.sliced(false)`). Both run on
//! the shared [`LaneGrid`], which packs the universe bank by bank,
//! schedules the trial blocks and reassembles their outcomes; both hand
//! every trial's per-fault [`DetectionOutcome`] to the same fold —
//! [`SystemFaultResult`]'s accounting for results, one cell-event builder
//! for traces — so the executor cannot change a number. The engine's own
//! part is each executor's trial loop and the bank's traffic, which both
//! walk off the global clock through one helper where they run the
//! trial: the slab executor once per lane pack and trial, stepping only
//! the cycles the bank serves; the oracle once per `(fault, trial)` cell,
//! stepping every cycle.

use crate::clock::{CheckpointSchedule, SystemClock};
use crate::seu::SeuProcess;
use crate::system::{bank_prefill_seed, seed_mix, MemorySystem, SystemConfig};
use scm_memory::backend::FaultSimBackend;
use scm_memory::campaign::{decoder_fault_universe, stride_sample, CampaignConfig};
use scm_memory::engine::onset_event;
use scm_memory::fault::{FaultProcess, FaultScenario, FaultSite};
use scm_memory::grid::{LaneGrid, PackRunner, DEFAULT_SERIAL_THRESHOLD};
use scm_memory::sim::DetectionOutcome;
use scm_memory::sliced::{measure_detection_sliced_at, SlicedBackend, MAX_SLAB_LANES};
use scm_memory::workload::{Op, OpStream, UniformRandom, WorkloadModel};
use scm_obs::{sort_chronological, Event, EventKind};
use std::ops::Range;
use std::sync::Arc;

/// Domain-separation tag for the shared traffic streams (seeded per
/// `(bank, trial)`, never per fault index — lane-packing invariance
/// demands the stream not know how lanes are grouped).
const TRAFFIC_TAG: u64 = 0x51_1CED;

/// One cell of the campaign universe: a fault scenario in a specific
/// bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemFault {
    /// Faulted bank.
    pub bank: usize,
    /// Index of this fault within its bank's universe (seeds derive from
    /// it, so the pair `(bank, index)` — not list position — is the
    /// fault's identity).
    pub index: usize,
    /// The injected fault site.
    pub site: FaultSite,
    /// The temporal process driving the site, indexed on the **global**
    /// system clock ([`FaultProcess::PERMANENT`] for the classical
    /// grids).
    pub process: FaultProcess,
}

impl SystemFault {
    /// A classical injected-at-reset fault in `bank`.
    pub fn permanent(bank: usize, index: usize, site: FaultSite) -> Self {
        SystemFault {
            bank,
            index,
            site,
            process: FaultProcess::PERMANENT,
        }
    }

    /// The scenario a backend realises for this cell.
    pub fn scenario(&self) -> FaultScenario {
        FaultScenario {
            site: self.site,
            process: self.process,
        }
    }
}

/// Aggregated trial counters for one system fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemFaultResult {
    /// The campaign cell.
    pub fault: SystemFault,
    /// Trials run.
    pub trials: u32,
    /// Trials detected within the horizon.
    pub detected: u32,
    /// Trials with no detection within the horizon.
    pub undetected: u32,
    /// Trials where an erroneous output preceded the first indication.
    pub error_escapes: u32,
    /// Sum over detected trials of the detection cycle (global clock).
    pub detection_cycle_sum: u64,
    /// Sum over detected trials of `detection − error onset` (system
    /// cycles; 0 when the checkers spoke before any erroneous output).
    pub latency_from_error_sum: u64,
    /// Sum over all trials of the Aupy-style lost work: cycles from the
    /// last checkpoint preceding error onset to detection; the full
    /// horizon for undetected trials (censored, documented).
    pub lost_work_sum: u64,
}

impl SystemFaultResult {
    /// A zeroed row for `fault`, before any trial.
    pub(crate) fn empty(fault: SystemFault) -> Self {
        SystemFaultResult {
            fault,
            trials: 0,
            detected: 0,
            undetected: 0,
            error_escapes: 0,
            detection_cycle_sum: 0,
            latency_from_error_sum: 0,
            lost_work_sum: 0,
        }
    }

    /// Fold one trial's outcome: detection, onset latency and lost work
    /// for a detected trial; the whole `horizon` charged as lost
    /// (censored) for an undetected one; an escape when an erroneous
    /// output preceded any indication.
    pub(crate) fn record(
        &mut self,
        out: &DetectionOutcome,
        checkpoint: &CheckpointSchedule,
        horizon: u64,
    ) {
        self.trials += 1;
        match Detection::of(&self.fault.process, out, checkpoint) {
            Some(d) => {
                self.detected += 1;
                self.detection_cycle_sum += d.cycle;
                self.latency_from_error_sum += d.latency;
                self.lost_work_sum += d.lost_work;
            }
            None => {
                self.undetected += 1;
                self.lost_work_sum += horizon;
            }
        }
        if out.error_escaped() {
            self.error_escapes += 1;
        }
    }

    /// Add another trial range of the same cell: every counter is a
    /// per-trial sum, so partials merge in any order.
    pub fn merge(&mut self, other: &SystemFaultResult) {
        debug_assert_eq!(self.fault, other.fault);
        self.trials += other.trials;
        self.detected += other.detected;
        self.undetected += other.undetected;
        self.error_escapes += other.error_escapes;
        self.detection_cycle_sum += other.detection_cycle_sum;
        self.latency_from_error_sum += other.latency_from_error_sum;
        self.lost_work_sum += other.lost_work_sum;
    }

    /// Mean detection latency from error onset, over detected trials
    /// (the paper's per-memory quantity, usually ~0 for decoder faults:
    /// the flag rises the cycle the faulted line is finally addressed).
    pub fn mean_onset_latency(&self) -> Option<f64> {
        (self.detected > 0).then(|| self.latency_from_error_sum as f64 / self.detected as f64)
    }

    /// Mean time to detection on the global clock, over detected trials
    /// — the *system* detection latency, which grows when interleaving
    /// or scheduling starves the faulted bank of accesses.
    pub fn mean_time_to_detection(&self) -> Option<f64> {
        (self.detected > 0).then(|| self.detection_cycle_sum as f64 / self.detected as f64)
    }

    /// Mean lost work over all trials.
    pub fn mean_lost_work(&self) -> f64 {
        self.lost_work_sum as f64 / self.trials.max(1) as f64
    }
}

/// What a detected trial costs on the global clock.
pub(crate) struct Detection {
    /// Cycle of the first indication.
    pub(crate) cycle: u64,
    /// Cycles from the true onset — the silent-corruption instant when
    /// the process has one (a transient strikes its cell silently, the
    /// Aupy anchor), the first erroneous output otherwise.
    pub(crate) latency: u64,
    /// Aupy-style lost work: cycles from the last checkpoint at or
    /// before the onset through the detection cycle.
    lost_work: u64,
}

impl Detection {
    /// `None` when the trial went undetected.
    pub(crate) fn of(
        process: &FaultProcess,
        out: &DetectionOutcome,
        checkpoint: &CheckpointSchedule,
    ) -> Option<Self> {
        let cycle = out.first_detection?;
        let latency = out.onset_latency(process)?;
        let rollback = checkpoint.last_checkpoint_at_or_before(cycle - latency);
        Some(Detection {
            cycle,
            latency,
            lost_work: cycle - rollback + 1,
        })
    }
}

/// Per-bank aggregation of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct BankSummary {
    /// Bank index.
    pub bank: usize,
    /// Faults campaigned in this bank.
    pub faults: usize,
    /// Trials over all of them.
    pub trials: u32,
    /// Fraction of trials detected within the horizon.
    pub detected_fraction: f64,
    /// Mean time to detection on the global clock over detected trials
    /// (`None` when nothing was detected).
    pub mean_time_to_detection: Option<f64>,
    /// Mean lost work over all trials.
    pub mean_lost_work: f64,
}

/// Whole-campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemResult {
    /// Per-fault outcomes, universe order.
    pub per_fault: Vec<SystemFaultResult>,
    /// The campaign parameters (`cycles` is the per-trial horizon).
    pub campaign: CampaignConfig,
    /// Banks in the system.
    pub num_banks: usize,
    /// Scrub slots within one trial horizon.
    pub scrub_slots: u64,
    /// Scrub bandwidth overhead (fraction of system cycles).
    pub scrub_overhead: f64,
}

impl SystemResult {
    /// Every per-fault counter, universe order — the canonical observable
    /// of the determinism contract (mirrors
    /// `scm_memory::campaign::CampaignResult::determinism_profile`).
    #[allow(clippy::type_complexity)]
    pub fn determinism_profile(
        &self,
    ) -> Vec<(usize, usize, FaultScenario, u32, u32, u32, u64, u64, u64)> {
        self.per_fault
            .iter()
            .map(|f| {
                (
                    f.fault.bank,
                    f.fault.index,
                    f.fault.scenario(),
                    f.trials,
                    f.detected,
                    f.error_escapes,
                    f.detection_cycle_sum,
                    f.latency_from_error_sum,
                    f.lost_work_sum,
                )
            })
            .collect()
    }

    /// Per-bank summaries, bank order (banks with no campaigned faults
    /// are omitted).
    pub fn bank_summaries(&self) -> Vec<BankSummary> {
        (0..self.num_banks)
            .filter_map(|bank| {
                let faults: Vec<&SystemFaultResult> = self
                    .per_fault
                    .iter()
                    .filter(|f| f.fault.bank == bank)
                    .collect();
                if faults.is_empty() {
                    return None;
                }
                let trials: u32 = faults.iter().map(|f| f.trials).sum();
                let detected: u32 = faults.iter().map(|f| f.detected).sum();
                let detect_sum: u64 = faults.iter().map(|f| f.detection_cycle_sum).sum();
                let lost_sum: u64 = faults.iter().map(|f| f.lost_work_sum).sum();
                Some(BankSummary {
                    bank,
                    faults: faults.len(),
                    trials,
                    detected_fraction: detected as f64 / trials.max(1) as f64,
                    mean_time_to_detection: (detected > 0)
                        .then(|| detect_sum as f64 / detected as f64),
                    mean_lost_work: lost_sum as f64 / trials.max(1) as f64,
                })
            })
            .collect()
    }

    /// Mean system detection latency across banks: the mean of the
    /// per-bank mean times to detection on the global clock (banks that
    /// never detected contribute the full horizon — censoring, so a
    /// starved bank cannot hide).
    pub fn mean_latency_across_banks(&self) -> f64 {
        let summaries = self.bank_summaries();
        if summaries.is_empty() {
            return 0.0;
        }
        let horizon = self.campaign.cycles as f64;
        summaries
            .iter()
            .map(|s| s.mean_time_to_detection.unwrap_or(horizon))
            .sum::<f64>()
            / summaries.len() as f64
    }

    /// Worst per-bank mean time to detection (same censoring).
    pub fn worst_latency_across_banks(&self) -> f64 {
        let horizon = self.campaign.cycles as f64;
        self.bank_summaries()
            .iter()
            .map(|s| s.mean_time_to_detection.unwrap_or(horizon))
            .fold(0.0, f64::max)
    }

    /// Expected lost work per failure: mean lost work over every trial of
    /// every fault (the Aupy-style joint quantity the checkpoint interval
    /// trades against detection latency).
    pub fn expected_lost_work(&self) -> f64 {
        let totals = Totals::of(&self.per_fault);
        totals.per_trial(totals.lost_work)
    }

    /// Fraction of all trials detected within the horizon.
    pub fn detected_fraction(&self) -> f64 {
        let totals = Totals::of(&self.per_fault);
        totals.per_trial(totals.detected)
    }
}

/// Trial, detection and lost-work sums over fault rows: what every
/// whole-campaign figure divides.
#[derive(Default)]
pub(crate) struct Totals {
    pub(crate) trials: u64,
    pub(crate) detected: u64,
    pub(crate) lost_work: u64,
}

impl Totals {
    pub(crate) fn of<'a>(rows: impl IntoIterator<Item = &'a SystemFaultResult>) -> Self {
        rows.into_iter().fold(Totals::default(), |t, f| Totals {
            trials: t.trials + u64::from(f.trials),
            detected: t.detected + u64::from(f.detected),
            lost_work: t.lost_work + f.lost_work_sum,
        })
    }

    /// `sum` averaged over the trials (0 without trials).
    pub(crate) fn per_trial(&self, sum: u64) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            sum as f64 / self.trials as f64
        }
    }
}

/// The system event stream of one `(bank, trial)`: `model`'s mission
/// traffic, seeded from `(campaign seed, bank, trial)`, merged with the
/// scrub reads on the global clock. Every campaign over `system` —
/// both [`SystemCampaign`] executors and
/// [`DiagCampaign`](crate::DiagCampaign) — draws a trial's traffic
/// here, so every fault of a bank shares it (common random numbers) and
/// lane packing cannot move it.
pub(crate) fn trial_clock(
    system: &SystemConfig,
    campaign: &CampaignConfig,
    model: &dyn WorkloadModel,
    bank: usize,
    trial: u32,
) -> SystemClock<OpStream> {
    let spec = system.workload_spec(campaign.write_fraction);
    let seed = seed_mix(campaign.seed ^ TRAFFIC_TAG, &[bank as u64, trial as u64]);
    SystemClock::new(system.interleaver(), system.scrub, model.stream(spec, seed))
}

/// Panic unless every universe entry names a bank of `system`.
pub(crate) fn check_banks(system: &SystemConfig, universe: &[SystemFault]) {
    if let Some(bad) = universe.iter().find(|f| f.bank >= system.num_banks()) {
        panic!(
            "fault targets bank {} of a {}-bank system",
            bad.bank,
            system.num_banks()
        );
    }
}

/// The parallel system campaign runner.
#[derive(Debug, Clone)]
pub struct SystemCampaign {
    system: SystemConfig,
    campaign: CampaignConfig,
    model: Arc<dyn WorkloadModel>,
    threads: usize,
    sliced: bool,
    lane_width: usize,
    serial_threshold: u64,
}

impl SystemCampaign {
    /// Campaign over `system` with the given grid parameters
    /// (`campaign.cycles` is the per-trial horizon in system cycles),
    /// uniform traffic, ambient rayon threads, and the slab executor at
    /// full lane width.
    pub fn new(system: SystemConfig, campaign: CampaignConfig) -> Self {
        SystemCampaign {
            system,
            campaign,
            model: Arc::new(UniformRandom),
            threads: 0,
            sliced: true,
            lane_width: MAX_SLAB_LANES,
            serial_threshold: DEFAULT_SERIAL_THRESHOLD,
        }
    }

    /// Choose the executor behind [`run`](Self::run) and
    /// [`trace`](Self::trace): `true` (the default) packs the faults of
    /// one bank into the lanes of a bit-sliced pass, `false` steps a
    /// behavioural bank one fault at a time — the oracle the executor
    /// tests compare against. Both draw each trial's traffic from the
    /// same `(bank, trial)` stream, so results and traces are
    /// bit-identical either way.
    pub fn sliced(mut self, sliced: bool) -> Self {
        self.sliced = sliced;
        self
    }

    /// Scenarios packed per sliced pass (clamped to
    /// `1..=`[`MAX_SLAB_LANES`]; default [`MAX_SLAB_LANES`]). Each pass
    /// uses the narrowest slab word count that fits
    /// ([`slab_words`](scm_memory::sliced::slab_words)), so narrow widths
    /// pay for one `u64` per state word, not eight. Results are
    /// invariant under this knob.
    pub fn lane_width(mut self, width: usize) -> Self {
        self.lane_width = width.clamp(1, MAX_SLAB_LANES);
        self
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

    /// Largest `fault × trial` grid still run inline on the calling
    /// thread (`0` = always fan out). Scheduling only: serial and
    /// fanned-out runs are bit-identical.
    pub fn serial_threshold(mut self, cells: u64) -> Self {
        self.serial_threshold = cells;
        self
    }

    /// The system under campaign.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The full row-decoder fault universe of every bank, optionally
    /// evenly subsampled to at most `max_per_bank` faults per bank
    /// (`0` = no cap). Universe order is `(bank, fault index)`.
    pub fn decoder_universe(&self, max_per_bank: usize) -> Vec<SystemFault> {
        let mut universe = Vec::new();
        for (bank, cfg) in self.system.banks.iter().enumerate() {
            let faults: Vec<FaultSite> = decoder_fault_universe(cfg.org().row_bits())
                .into_iter()
                .map(FaultSite::RowDecoder)
                .collect();
            for (index, site) in stride_sample(&faults, max_per_bank).into_iter().enumerate() {
                universe.push(SystemFault::permanent(bank, index, site));
            }
        }
        universe
    }

    /// A transient-SEU universe: `per_bank` one-shot cell flips per bank,
    /// with strike cycles drawn from `seu`'s geometric inter-arrival
    /// stream and targets seed-pure in `(campaign seed, bank, arrival
    /// index)` — the stochastic arrival process the Aupy-style
    /// checkpoint/lost-work accounting assumes. Universe order is
    /// `(bank, arrival index)`.
    pub fn seu_universe(&self, per_bank: usize, seu: &SeuProcess) -> Vec<SystemFault> {
        let mut universe = Vec::with_capacity(self.system.num_banks() * per_bank);
        for (bank, cfg) in self.system.banks.iter().enumerate() {
            for (index, scenario) in seu
                .scenarios(self.campaign.seed, bank, per_bank, cfg)
                .into_iter()
                .enumerate()
            {
                universe.push(SystemFault {
                    bank,
                    index,
                    site: scenario.site,
                    process: scenario.process,
                });
            }
        }
        universe
    }

    /// Run the `bank × fault × trial` grid.
    ///
    /// # Panics
    /// Panics if a universe entry names a bank outside the system, or if
    /// the slab executor cannot inject one.
    pub fn run(&self, universe: &[SystemFault]) -> SystemResult {
        let (grid, runner) = self.executor(universe);
        let per_fault = grid.fold(
            &runner,
            |p, _| SystemFaultResult::empty(universe[p]),
            |row, out| row.record(out, &self.system.checkpoint, self.campaign.cycles),
            |row, part| row.merge(&part),
        );
        SystemResult {
            per_fault,
            campaign: self.campaign,
            num_banks: self.system.num_banks(),
            scrub_slots: self.system.scrub.slots_within(self.campaign.cycles),
            scrub_overhead: self.system.scrub.bandwidth_overhead(),
        }
    }

    /// The `bank × fault × trial` grid as a structured event trace on the
    /// global system clock.
    ///
    /// The trace runs the same executor as [`run`](Self::run) — same lane
    /// grid, traffic walks and thread dispatch — and derives each
    /// cell's events from the per-lane outcome that pass returns,
    /// assembled in canonical `(universe position, trial)` order. Both
    /// executors yield the same outcomes, so the trace is a pure function
    /// of `(seed, bank, fault index, trial)`: bit-identical at any thread
    /// count, lane width and executor. It is a second pass, not a tap:
    /// the result path never consults it, so tracing off costs nothing.
    ///
    /// # Panics
    /// As [`run`](Self::run).
    pub fn trace(&self, universe: &[SystemFault]) -> Vec<Event> {
        let (grid, runner) = self.executor(universe);
        grid.cells(&runner, |p, trial, out, events| {
            self.cell_events(&universe[p], trial, out, events);
        })
    }

    /// Append the events of one `(fault, trial)` cell, chronologically
    /// ordered, as its outcome implies them: the onset, every checkpoint
    /// write within the trial, the detection with its onset latency and
    /// the restore with its lost work, and an escape at the first
    /// erroneous output when that preceded any indication. Undetected
    /// trials emit no terminal event: their censored lost work is a
    /// result-path quantity, not a timeline point.
    fn cell_events(
        &self,
        fault: &SystemFault,
        trial: u32,
        out: &DetectionOutcome,
        events: &mut Vec<Event>,
    ) {
        let start = events.len();
        let (bank, index) = (fault.bank as u32, fault.index as u32);
        let mut push =
            |t: u64, kind: EventKind| events.push(Event::cell(t, bank, index, trial, kind));
        if let Some((t, kind)) = onset_event(&fault.process, out.cycles_run) {
            push(t, kind);
        }
        let interval = self.system.checkpoint.interval;
        if interval > 0 {
            for k in (1..).take_while(|k| k * interval < out.cycles_run) {
                push(k * interval, EventKind::CheckpointWrite { index: k });
            }
        }
        if let Some(d) = Detection::of(&fault.process, out, &self.system.checkpoint) {
            push(d.cycle, EventKind::Detect { latency: d.latency });
            push(d.cycle, EventKind::CheckpointRestore { lost: d.lost_work });
        }
        if out.error_escaped() {
            let t = out.first_error.expect("an escape implies an error");
            push(t, EventKind::Escape);
        }
        sort_chronological(&mut events[start..]);
    }

    /// The lane grid and pack runner behind both [`run`](Self::run) and
    /// [`trace`](Self::trace). Universe entries pack bank by bank —
    /// [`lane_width`](Self::lane_width) lanes on the slab executor, one on
    /// the generic one — and every pack runs on the executor
    /// [`sliced`](Self::sliced) selects.
    fn executor<'a>(&'a self, universe: &'a [SystemFault]) -> (LaneGrid, BankRunner<'a>) {
        check_banks(&self.system, universe);
        let (width, executor) = if self.sliced {
            if let Some(bad) = universe
                .iter()
                .find(|f| !SlicedBackend::<1>::supports(&f.scenario()))
            {
                panic!("backend 'sliced' cannot inject {:?}", bad.scenario());
            }
            (self.lane_width, Executor::Slab)
        } else {
            let template = MemorySystem::new(self.system.clone(), self.campaign.seed);
            (1, Executor::Oracle(template))
        };
        let grid = LaneGrid::new(
            &self.campaign,
            self.threads,
            self.serial_threshold,
            width,
            universe.len(),
            |p| universe[p].bank,
        );
        let runner = BankRunner {
            campaign: self,
            universe,
            executor,
        };
        (grid, runner)
    }

    /// One `(bank, trial)` system event stream walked on the global clock:
    /// every global cycle of the horizon with the bank that cycle's
    /// event targets. The one traffic source of both executors.
    fn clock_walk(&self, bank: usize, trial: u32) -> impl Iterator<Item = (u64, usize, Op)> + '_ {
        let mut clock = trial_clock(&self.system, &self.campaign, &*self.model, bank, trial);
        (0..self.campaign.cycles).map(move |cycle| {
            let (target, op) = clock.next_event().target();
            (cycle, target, op)
        })
    }

    /// The `(global cycle, op)` pairs `bank` serves within the horizon of
    /// one trial's system event stream. Pure in `(campaign seed, model,
    /// bank, trial)` — fault-blind by construction, which is what lets
    /// every lane pack of the bank step the same traffic.
    fn bank_traffic(&self, bank: usize, trial: u32) -> impl Iterator<Item = (u64, Op)> + '_ {
        self.clock_walk(bank, trial)
            .filter_map(move |(cycle, target, op)| (target == bank).then_some((cycle, op)))
    }
}

/// Which executor a [`BankRunner`] drives.
enum Executor {
    /// The slab executor: the pack's faults ride the lanes of one
    /// bit-sliced bank, each trial walking the bank's traffic off the
    /// clock.
    Slab,
    /// The generic executor, the oracle the slab is held to: a clone of
    /// the template's prefilled behavioural bank walks every global cycle
    /// of each cell's own event stream.
    Oracle(MemorySystem),
}

/// The system engine's pack runner: a pack's positions name faults of
/// one bank.
struct BankRunner<'a> {
    campaign: &'a SystemCampaign,
    universe: &'a [SystemFault],
    executor: Executor,
}

impl PackRunner for BankRunner<'_> {
    fn run_pack<const W: usize>(
        &self,
        positions: &[usize],
        trials: Range<u32>,
        visit: &mut dyn FnMut(&[DetectionOutcome]),
    ) {
        let (engine, cycles) = (self.campaign, self.campaign.campaign.cycles);
        let bank = self.universe[positions[0]].bank;
        match &self.executor {
            Executor::Slab => {
                let scenarios: Vec<FaultScenario> = positions
                    .iter()
                    .map(|&p| self.universe[p].scenario())
                    .collect();
                let seed = bank_prefill_seed(engine.campaign.seed, bank);
                let cfg = &engine.system.banks[bank];
                let mut backend = SlicedBackend::<W>::prefilled(cfg, &scenarios, seed);
                // A trial steps only the cycles the bank serves, jumping
                // the activation clock over the gaps.
                for trial in trials {
                    backend.reset();
                    let ops = engine.bank_traffic(bank, trial);
                    visit(&measure_detection_sliced_at(&mut backend, ops, cycles));
                }
            }
            Executor::Oracle(template) => {
                let mut backend = template.banks()[bank].clone();
                let mut outcomes = Vec::with_capacity(positions.len());
                for trial in trials {
                    outcomes.clear();
                    for &p in positions {
                        backend.reset(Some(&self.universe[p].scenario()));
                        let mut out = DetectionOutcome {
                            cycles_run: cycles,
                            ..DetectionOutcome::default()
                        };
                        for (cycle, target, op) in engine.clock_walk(bank, trial) {
                            if target != bank {
                                // Fault-free banks are exactly silent, but
                                // the faulted bank's temporal process
                                // rides the *global* clock: an SEU strikes
                                // whether or not traffic is routed to the
                                // bank that cycle.
                                backend.advance(1);
                                continue;
                            }
                            let obs = backend.step(op);
                            if obs.erroneous.unwrap_or(false) && out.first_error.is_none() {
                                out.first_error = Some(cycle);
                            }
                            if obs.detected() {
                                // Latched indication: the trial is complete.
                                out.first_detection = Some(cycle);
                                out.cycles_run = cycle + 1;
                                break;
                            }
                        }
                        outcomes.push(out);
                    }
                    visit(&outcomes);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{CheckpointSchedule, ScrubSchedule};
    use crate::interleave::Interleaving;
    use scm_area::RamOrganization;
    use scm_codes::{CodewordMap, MOutOfN};
    use scm_memory::design::RamConfig;
    use scm_memory::grid::TrialBlock;

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
            banks: vec![bank(64), bank(128), bank(64)],
            interleaving: Interleaving::LowOrder,
            scrub: ScrubSchedule { period: 4 },
            checkpoint: CheckpointSchedule { interval: 32 },
        }
    }

    fn campaign() -> CampaignConfig {
        CampaignConfig {
            cycles: 120,
            trials: 6,
            seed: 0x5E5,
            write_fraction: 0.1,
        }
    }

    #[test]
    fn universe_covers_every_bank_and_caps_evenly() {
        let engine = SystemCampaign::new(config(), campaign());
        let full = engine.decoder_universe(0);
        assert!(full.iter().any(|f| f.bank == 0));
        assert!(full.iter().any(|f| f.bank == 1));
        assert!(full.iter().any(|f| f.bank == 2));
        let capped = engine.decoder_universe(8);
        for bank in 0..3 {
            let n = capped.iter().filter(|f| f.bank == bank).count();
            assert!((1..=8).contains(&n), "bank {bank}: {n}");
        }
        // Indices are per-bank positions, not list positions.
        assert_eq!(capped.iter().filter(|f| f.index == 0).count(), 3);
    }

    #[test]
    fn slab_grid_splits_trials_only_as_far_as_the_workers_demand() {
        // `scm system`'s shape: four banks (one lane chunk each) × 8
        // trials. Two workers need no trial split, so each chunk is one
        // block covering every trial — one backend build per chunk.
        let mut system = config();
        system.banks.push(bank(64));
        let engine = SystemCampaign::new(
            system,
            CampaignConfig {
                trials: 8,
                ..campaign()
            },
        )
        .threads(2);
        let universe = engine.decoder_universe(12);
        let (grid, _) = engine.executor(&universe);
        let expect: Vec<TrialBlock> = (0..4)
            .map(|pack| TrialBlock {
                pack,
                trial_start: 0,
                trial_end: 8,
            })
            .collect();
        assert_eq!(grid.blocks(), expect);
        for (bank, block) in grid.blocks().iter().enumerate() {
            assert!(grid
                .pack(block.pack)
                .iter()
                .all(|&p| universe[p].bank == bank));
        }
    }

    #[test]
    fn campaign_is_bit_identical_at_any_thread_count() {
        // serial_threshold(0) keeps this small grid on the parallel
        // path this test exists to exercise.
        for sliced in [false, true] {
            let engine = SystemCampaign::new(config(), campaign())
                .sliced(sliced)
                .serial_threshold(0);
            let universe = engine.decoder_universe(6);
            let reference = engine.clone().threads(1).run(&universe);
            for threads in [2usize, 4, 8] {
                let result = engine.clone().threads(threads).run(&universe);
                assert_eq!(
                    reference.determinism_profile(),
                    result.determinism_profile(),
                    "sliced={sliced}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn sliced_campaign_is_thread_and_lane_width_invariant() {
        let engine = SystemCampaign::new(config(), campaign()).serial_threshold(0);
        let mut universe = engine.decoder_universe(10);
        // A couple of temporal cell faults so lane masking is exercised
        // beyond pure permanents.
        universe.push(SystemFault {
            bank: 1,
            index: 1000,
            site: FaultSite::Cell {
                row: 2,
                col: 3,
                stuck: false,
            },
            process: FaultProcess::TransientFlip { at: 15 },
        });
        universe.push(SystemFault {
            bank: 2,
            index: 1001,
            site: FaultSite::Cell {
                row: 1,
                col: 7,
                stuck: true,
            },
            process: FaultProcess::Intermittent {
                onset: 3,
                period: 6,
                duty: 2,
            },
        });
        let reference = engine.clone().threads(1).run(&universe);
        assert_eq!(reference.per_fault.len(), universe.len());
        assert!(
            reference.detected_fraction() > 0.5,
            "sliced scrubbed system detects"
        );
        for (fault, fr) in universe.iter().zip(&reference.per_fault) {
            assert_eq!(fr.fault, *fault, "universe order broken");
            assert_eq!(fr.trials, campaign().trials);
        }
        for threads in [2usize, 4, 8] {
            let result = engine.clone().threads(threads).run(&universe);
            assert_eq!(
                reference.determinism_profile(),
                result.determinism_profile(),
                "{threads} threads"
            );
        }
        for width in [1usize, 8, 64, 100, 512] {
            let result = engine.clone().lane_width(width).run(&universe);
            assert_eq!(
                reference.determinism_profile(),
                result.determinism_profile(),
                "lane width {width}"
            );
        }
    }

    /// A model wrapper that counts stream instantiations.
    #[derive(Debug)]
    struct CountingModel {
        inner: Arc<dyn WorkloadModel>,
        calls: Arc<std::sync::atomic::AtomicU64>,
    }

    impl WorkloadModel for CountingModel {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn stream(
            &self,
            spec: scm_memory::workload::WorkloadSpec,
            seed: u64,
        ) -> scm_memory::workload::OpStream {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.stream(spec, seed)
        }
    }

    #[test]
    fn slab_walks_one_stream_per_pack_and_trial_and_the_oracle_one_per_cell() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // The second grid's `trials × cycles` passes 2^21 cycles. The
        // scrubbed decoder faults detect early, so the long horizon
        // costs nothing.
        let long = CampaignConfig {
            cycles: (1 << 20) + 1,
            trials: 2,
            ..campaign()
        };
        let calls = Arc::new(AtomicU64::new(0));
        let draws = || calls.swap(0, Ordering::Relaxed);
        for (campaign, per_bank) in [(campaign(), 10), (long, 2)] {
            let engine = SystemCampaign::new(config(), campaign)
                .workload_model(Arc::new(CountingModel {
                    inner: Arc::new(UniformRandom),
                    calls: calls.clone(),
                }))
                .serial_threshold(0);
            let universe = engine.decoder_universe(per_bank);
            let trials = u64::from(campaign.trials);
            let oracle = engine.clone().sliced(false).run(&universe);
            assert_eq!(draws(), universe.len() as u64 * trials, "one per cell");
            // Width 3 cuts every bank's faults into several packs, the
            // last one partial; no pack may reuse another pack's walk.
            for width in [3, MAX_SLAB_LANES] {
                let packs: u64 = (0..config().num_banks())
                    .map(|bank| universe.iter().filter(|f| f.bank == bank).count())
                    .map(|faults| faults.div_ceil(width) as u64)
                    .sum();
                for threads in [1, 2, 4] {
                    let slab = engine.clone().lane_width(width).threads(threads);
                    let result = slab.run(&universe);
                    let at = format!("width {width}, {threads} threads");
                    assert_eq!(draws(), packs * trials, "{at}: one per pack and trial");
                    assert_eq!(result, oracle, "{at}");
                }
            }
        }
        let engine = SystemCampaign::new(config(), long);
        let universe = engine.decoder_universe(2);
        let result = engine.run(&universe);
        assert!(result.per_fault.iter().all(|f| f.detected == long.trials));
        let oracle = engine.clone().sliced(false);
        assert_eq!(engine.trace(&universe), oracle.trace(&universe));
    }

    #[test]
    fn serial_fallback_matches_the_fanned_out_campaign() {
        // Under the default threshold the grid runs inline; forcing the
        // threshold to 0 fans the identical grid out. Scheduling only.
        let universe_cap = 6;
        for sliced in [false, true] {
            let serial = SystemCampaign::new(config(), campaign()).sliced(sliced);
            let universe = serial.decoder_universe(universe_cap);
            assert!(
                universe.len() as u64 * campaign().trials as u64 <= DEFAULT_SERIAL_THRESHOLD,
                "universe outgrew the default threshold"
            );
            let fanned = serial.clone().serial_threshold(0).threads(4);
            assert_eq!(
                serial.run(&universe).determinism_profile(),
                fanned.run(&universe).determinism_profile(),
                "sliced={sliced}"
            );
        }
    }

    #[test]
    fn detection_happens_and_metrics_are_sane() {
        let engine = SystemCampaign::new(config(), campaign());
        let universe = engine.decoder_universe(10);
        let result = engine.run(&universe);
        assert!(result.detected_fraction() > 0.5, "scrubbed system detects");
        assert!(result.mean_latency_across_banks() >= 0.0);
        assert!(result.worst_latency_across_banks() >= result.mean_latency_across_banks() - 1e-9);
        assert!(result.expected_lost_work() > 0.0);
        assert!((result.scrub_overhead - 0.25).abs() < 1e-12);
        assert_eq!(result.scrub_slots, 30);
        assert_eq!(result.bank_summaries().len(), 3);
    }

    #[test]
    fn tighter_checkpoints_lose_less_work() {
        let mut sparse = config();
        sparse.checkpoint = CheckpointSchedule { interval: 64 };
        let mut tight = config();
        tight.checkpoint = CheckpointSchedule { interval: 8 };
        let universe = SystemCampaign::new(sparse.clone(), campaign()).decoder_universe(8);
        let lost_sparse = SystemCampaign::new(sparse, campaign())
            .run(&universe)
            .expected_lost_work();
        let lost_tight = SystemCampaign::new(tight, campaign())
            .run(&universe)
            .expected_lost_work();
        assert!(
            lost_tight <= lost_sparse,
            "interval 8 lost {lost_tight}, interval 64 lost {lost_sparse}"
        );
    }

    #[test]
    fn starved_bank_detects_later_without_scrub() {
        // High-order interleaving under a zipf hotspot starves the last
        // bank; scrubbing off makes its latency ride traffic alone.
        let mk = |scrub_period: u64| {
            let cfg = SystemConfig {
                banks: vec![bank(64), bank(64), bank(64), bank(64)],
                interleaving: Interleaving::HighOrder,
                scrub: ScrubSchedule {
                    period: scrub_period,
                },
                checkpoint: CheckpointSchedule { interval: 32 },
            };
            let camp = CampaignConfig {
                cycles: 600,
                trials: 6,
                seed: 0xB0B,
                write_fraction: 0.1,
            };
            let engine = SystemCampaign::new(cfg, camp)
                .workload_model(scm_memory::workload::model_by_name("hotspot").unwrap());
            let universe = engine.decoder_universe(6);
            engine.run(&universe)
        };
        let unscrubbed = mk(0);
        let scrubbed = mk(4);
        assert!(
            scrubbed.detected_fraction() >= unscrubbed.detected_fraction(),
            "scrubbing must not reduce coverage: {} vs {}",
            scrubbed.detected_fraction(),
            unscrubbed.detected_fraction()
        );
        let cold_unscrubbed = &unscrubbed.bank_summaries()[3];
        let hot_unscrubbed = &unscrubbed.bank_summaries()[0];
        assert!(
            cold_unscrubbed.detected_fraction <= hot_unscrubbed.detected_fraction,
            "the starved bank cannot out-detect the hot bank"
        );
    }

    #[test]
    #[should_panic(expected = "bank 7")]
    fn out_of_range_bank_panics() {
        let engine = SystemCampaign::new(config(), campaign());
        let mut universe = engine.decoder_universe(2);
        universe[0].bank = 7;
        engine.run(&universe);
    }

    mod trace_props {
        use super::*;
        use crate::clock::{CheckpointSchedule, ScrubSchedule};
        use crate::interleave::Interleaving;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            // One estimator, two executors: over random small campaigns
            // (decoder permanents, SEU strikes, an intermittent cell;
            // scrub and checkpoint schedules on and off; either
            // interleaving) the slab executor must reproduce the generic
            // executor's results and traces at every lane width and
            // thread count. The generic executor's trace is the oracle:
            // it walks every global cycle on a behavioural bank. Each
            // fault's Detect / Escape / restore events must also account
            // for exactly its result counters, which catches a lane- or
            // position-order slip the two executors could share.
            #[test]
            fn executors_agree_on_results_and_traces_over_random_campaigns(
                cycles in 8u64..160,
                trials in 1u32..5,
                seed in any::<u64>(),
                per_bank in 1usize..6,
                scrub in 0u64..3,
                interval in 0usize..3,
                high_order in any::<bool>(),
            ) {
                let mut system = config();
                system.scrub = ScrubSchedule { period: 2 * scrub };
                system.checkpoint = CheckpointSchedule {
                    interval: [0, 8, 32][interval],
                };
                if high_order {
                    system.interleaving = Interleaving::HighOrder;
                }
                let campaign = CampaignConfig {
                    cycles,
                    trials,
                    seed,
                    write_fraction: 0.1,
                };
                let oracle = SystemCampaign::new(system, campaign)
                    .sliced(false)
                    .threads(1);
                let mut universe = oracle.decoder_universe(per_bank);
                for mut fault in oracle.seu_universe(per_bank, &SeuProcess::new(cycles as f64 / 4.0)) {
                    fault.index += 1000;
                    universe.push(fault);
                }
                universe.push(SystemFault {
                    bank: 1,
                    index: 2000,
                    site: FaultSite::Cell {
                        row: 1,
                        col: 7,
                        stuck: true,
                    },
                    process: FaultProcess::Intermittent {
                        onset: 3,
                        period: 6,
                        duty: 2,
                    },
                });
                let reference = oracle.run(&universe);
                let trace = oracle.trace(&universe);
                let fanned = oracle.clone().threads(4).serial_threshold(0);
                prop_assert_eq!(fanned.run(&universe), reference.clone());
                prop_assert_eq!(&fanned.trace(&universe), &trace);
                for width in [1usize, 17, 512] {
                    for threads in [1usize, 2, 4] {
                        let slab = oracle
                            .clone()
                            .sliced(true)
                            .lane_width(width)
                            .threads(threads)
                            .serial_threshold(if threads == 1 { DEFAULT_SERIAL_THRESHOLD } else { 0 });
                        prop_assert_eq!(
                            slab.run(&universe).determinism_profile(),
                            reference.determinism_profile(),
                            "width {} threads {}", width, threads
                        );
                        prop_assert_eq!(&slab.trace(&universe), &trace, "width {} threads {}", width, threads);
                    }
                }
                for fr in &reference.per_fault {
                    let (mut detected, mut escapes, mut latency, mut lost) = (0u32, 0u32, 0u64, 0u64);
                    let cell = |e: &&Event| e.bank == fr.fault.bank as u32 && e.fault == fr.fault.index as u32;
                    for e in trace.iter().filter(cell) {
                        match e.kind {
                            EventKind::Detect { latency: l } => {
                                detected += 1;
                                latency += l;
                            }
                            EventKind::CheckpointRestore { lost: l } => lost += l,
                            EventKind::Escape => escapes += 1,
                            _ => {}
                        }
                    }
                    lost += u64::from(fr.undetected) * cycles;
                    prop_assert_eq!(detected, fr.detected, "{:?} detects", fr.fault);
                    prop_assert_eq!(escapes, fr.error_escapes, "{:?} escapes", fr.fault);
                    prop_assert_eq!(latency, fr.latency_from_error_sum, "{:?} latency", fr.fault);
                    prop_assert_eq!(lost, fr.lost_work_sum, "{:?} lost work", fr.fault);
                }
            }
        }
    }
}
