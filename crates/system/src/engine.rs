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
//!   `(campaign seed, bank, fault index within the bank, trial)`,
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

use crate::clock::SystemClock;
use crate::seu::SeuProcess;
use crate::system::{bank_prefill_seed, MemorySystem, SystemConfig};
use rayon::prelude::*;
use scm_memory::arena::ARENA_OP_BUDGET;
use scm_memory::backend::{BehavioralBackend, FaultSimBackend};
use scm_memory::campaign::{decoder_fault_universe, CampaignConfig};
use scm_memory::fault::{FaultProcess, FaultScenario, FaultSite};
use scm_memory::sliced::{with_slab_words, LaneSet, SlabTask, SlicedBackend, MAX_SLAB_LANES};
use scm_memory::workload::{Op, UniformRandom, WorkloadModel};
use scm_obs::{sort_chronological, Event, EventKind};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Domain-separation tag for the sliced engine's shared traffic streams
/// (seeded per `(bank, trial)`, never per fault index — lane-packing
/// invariance demands the stream not know how lanes are grouped).
const SLICED_TRAFFIC_TAG: u64 = 0x51_1CED;

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
    /// A zeroed row for `fault` that will fold `trials` trials.
    fn empty(fault: SystemFault, trials: u32) -> Self {
        SystemFaultResult {
            fault,
            trials,
            detected: 0,
            undetected: 0,
            error_escapes: 0,
            detection_cycle_sum: 0,
            latency_from_error_sum: 0,
            lost_work_sum: 0,
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
        let trials: u64 = self.per_fault.iter().map(|f| f.trials as u64).sum();
        if trials == 0 {
            return 0.0;
        }
        let lost: u64 = self.per_fault.iter().map(|f| f.lost_work_sum).sum();
        lost as f64 / trials as f64
    }

    /// Fraction of all trials detected within the horizon.
    pub fn detected_fraction(&self) -> f64 {
        let trials: u64 = self.per_fault.iter().map(|f| f.trials as u64).sum();
        let detected: u64 = self.per_fault.iter().map(|f| f.detected as u64).sum();
        if trials == 0 {
            0.0
        } else {
            detected as f64 / trials as f64
        }
    }
}

/// One schedulable unit: a contiguous trial range of one universe entry.
#[derive(Debug, Clone, Copy)]
struct TrialBlock {
    uidx: usize,
    trial_start: u32,
    trial_end: u32,
}

/// One lane block of the sliced system path: up to
/// [`MAX_SLAB_LANES`] universe entries of the same bank, addressed by
/// their positions in the input universe.
#[derive(Debug, Clone)]
struct LaneChunk {
    bank: usize,
    positions: Vec<usize>,
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

/// Grids of at most this many `fault × trial` cells run inline on the
/// calling thread: below it the rayon fan-out costs more than it buys.
pub const DEFAULT_SERIAL_THRESHOLD: u64 = 256;

impl SystemCampaign {
    /// Campaign over `system` with the given grid parameters
    /// (`campaign.cycles` is the per-trial horizon in system cycles),
    /// uniform traffic, ambient rayon threads.
    pub fn new(system: SystemConfig, campaign: CampaignConfig) -> Self {
        SystemCampaign {
            system,
            campaign,
            model: Arc::new(UniformRandom),
            threads: 0,
            sliced: false,
            lane_width: MAX_SLAB_LANES,
            serial_threshold: DEFAULT_SERIAL_THRESHOLD,
        }
    }

    /// Route [`run`](Self::run) through the bit-sliced backend: faults of
    /// the same bank pack into lanes of one simulation pass, sharing the
    /// trial's system event stream. Results stay bit-identical at every
    /// thread count and lane width, but the shared-stream seeding differs
    /// from the scalar engine's per-fault streams, so the two engines are
    /// distinct (both valid) Monte-Carlo estimators.
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

    fn runs_serially(&self, faults: usize) -> bool {
        self.serial_threshold > 0
            && faults as u64 * self.campaign.trials as u64 <= self.serial_threshold
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
            let stride = if max_per_bank == 0 || faults.len() <= max_per_bank {
                1
            } else {
                faults.len().div_ceil(max_per_bank)
            };
            for (index, site) in faults.into_iter().step_by(stride).enumerate() {
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

    /// Threads the campaign will actually use.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            rayon::current_num_threads()
        } else {
            self.threads
        }
    }

    /// Run the `bank × fault × trial` grid.
    ///
    /// # Panics
    /// Panics if a universe entry names a bank outside the system.
    pub fn run(&self, universe: &[SystemFault]) -> SystemResult {
        if let Some(bad) = universe.iter().find(|f| f.bank >= self.system.num_banks()) {
            panic!(
                "fault targets bank {} of a {}-bank system",
                bad.bank,
                self.system.num_banks()
            );
        }
        if self.sliced {
            return self.run_sliced(universe);
        }
        // One prefilled template per bank, shared read-only by every
        // worker; blocks clone only the bank they fault.
        let template = MemorySystem::new(self.system.clone(), self.campaign.seed);
        let blocks = self.decompose(universe.len());
        let dispatch = || -> Vec<SystemFaultResult> {
            blocks
                .par_iter()
                .map(|block| self.run_block(&template, universe[block.uidx], *block))
                .collect()
        };
        let partials: Vec<SystemFaultResult> = if self.runs_serially(universe.len()) {
            // Tiny grid: same blocks, same order, same merge — the
            // fan-out is skipped, the result is bit-identical.
            blocks
                .iter()
                .map(|block| self.run_block(&template, universe[block.uidx], *block))
                .collect()
        } else if self.threads == 0 {
            dispatch()
        } else {
            rayon::ThreadPoolBuilder::new()
                .num_threads(self.threads)
                .build()
                .expect("thread pool construction is infallible")
                .install(dispatch)
        };
        // Blocks are universe-major in input order; fold trial splits.
        let mut per_fault: Vec<SystemFaultResult> = Vec::with_capacity(universe.len());
        let mut last_uidx = usize::MAX;
        for (block, partial) in blocks.iter().zip(partials) {
            if block.uidx == last_uidx {
                let acc = per_fault.last_mut().expect("a merge always follows a push");
                acc.merge(&partial);
            } else {
                per_fault.push(partial);
                last_uidx = block.uidx;
            }
        }
        debug_assert_eq!(per_fault.len(), universe.len());
        SystemResult {
            per_fault,
            campaign: self.campaign,
            num_banks: self.system.num_banks(),
            scrub_slots: self.system.scrub.slots_within(self.campaign.cycles),
            scrub_overhead: self.system.scrub.bandwidth_overhead(),
        }
    }

    /// Project one `(bank, trial)` shared system event stream onto the
    /// bank: the `(global cycle, op)` pairs the bank actually serves
    /// within the horizon. Pure in `(campaign seed, model, bank,
    /// trial)` — fault-blind by construction, which is what lets every
    /// lane chunk of the bank replay the same projection.
    fn project_bank_traffic(&self, bank: usize, trial: u32) -> Vec<(u64, Op)> {
        let spec = self.system.workload_spec(self.campaign.write_fraction);
        let traffic = self.model.stream(
            spec,
            crate::system::seed_mix(
                self.campaign.seed ^ SLICED_TRAFFIC_TAG,
                &[bank as u64, trial as u64],
            ),
        );
        let mut clock = SystemClock::new(self.system.interleaver(), self.system.scrub, traffic);
        let mut events = Vec::new();
        for cycle in 0..self.campaign.cycles {
            let (target, op) = clock.next_event().target();
            if target == bank {
                events.push((cycle, op));
            }
        }
        events
    }

    /// The sliced grid: universe entries grouped bank-major into lane
    /// chunks of [`lane_width`](Self::lane_width) (each chunk simulated
    /// at the narrowest slab width that holds it), every chunk advancing
    /// all its lanes through one shared per-trial system event stream.
    ///
    /// Under the op budget the engine materialises each `(bank, trial)`
    /// stream's bank projection **exactly once** up front and replays it
    /// by reference with gap-advance (idle cycles between two served ops
    /// collapse into one clock jump); over budget every chunk regenerates
    /// its streams on the fly. Both paths are bit-identical — the arena
    /// caches values that were already deterministic.
    ///
    /// # Panics
    /// Panics if the sliced backend cannot inject a universe entry.
    fn run_sliced(&self, universe: &[SystemFault]) -> SystemResult {
        if let Some(bad) = universe
            .iter()
            .find(|f| !SlicedBackend::<1>::supports(&f.scenario()))
        {
            panic!("backend 'sliced' cannot inject {:?}", bad.scenario());
        }
        let width = self.lane_width.clamp(1, MAX_SLAB_LANES);
        let mut chunks: Vec<LaneChunk> = Vec::new();
        for bank in 0..self.system.num_banks() {
            let positions: Vec<usize> = (0..universe.len())
                .filter(|&i| universe[i].bank == bank)
                .collect();
            for chunk in positions.chunks(width) {
                chunks.push(LaneChunk {
                    bank,
                    positions: chunk.to_vec(),
                });
            }
        }
        // The projection arena: one clock walk per (bank, trial),
        // shared read-only by every lane chunk and trial block of that
        // bank. Walk cost is banks × trials × cycles, so the same op
        // budget that bounds the campaign arena bounds it.
        let banks_used: BTreeSet<usize> = chunks.iter().map(|c| c.bank).collect();
        let walk_cells = (banks_used.len() as u64)
            .saturating_mul(self.campaign.trials as u64)
            .saturating_mul(self.campaign.cycles);
        let projections: Option<Projections> = (walk_cells <= ARENA_OP_BUDGET).then(|| {
            let mut map = HashMap::new();
            for &bank in &banks_used {
                for trial in 0..self.campaign.trials {
                    map.insert(
                        (bank, trial),
                        Arc::new(self.project_bank_traffic(bank, trial)),
                    );
                }
            }
            map
        });
        let run_block = |chunk: &LaneChunk, block: TrialBlock| -> Vec<SystemFaultResult> {
            with_slab_words(
                chunk.positions.len(),
                SlicedBlock {
                    campaign: self,
                    chunk,
                    universe,
                    block,
                    projections: projections.as_ref(),
                },
            )
        };
        let blocks = self.decompose(chunks.len());
        let dispatch = || -> Vec<Vec<SystemFaultResult>> {
            blocks
                .par_iter()
                .map(|block| run_block(&chunks[block.uidx], *block))
                .collect()
        };
        let partials: Vec<Vec<SystemFaultResult>> = if self.runs_serially(universe.len()) {
            // Tiny grid: same chunks, same order, same scatter.
            blocks
                .iter()
                .map(|block| run_block(&chunks[block.uidx], *block))
                .collect()
        } else if self.threads == 0 {
            dispatch()
        } else {
            rayon::ThreadPoolBuilder::new()
                .num_threads(self.threads)
                .build()
                .expect("thread pool construction is infallible")
                .install(dispatch)
        };
        // Scatter lane results back onto universe positions; the per-trial
        // counters commute, so trial splits of one chunk just sum.
        let mut per_fault: Vec<SystemFaultResult> = universe
            .iter()
            .map(|&fault| SystemFaultResult::empty(fault, 0))
            .collect();
        for (block, partial) in blocks.iter().zip(partials) {
            for (&pos, lane) in chunks[block.uidx].positions.iter().zip(&partial) {
                per_fault[pos].merge(lane);
            }
        }
        SystemResult {
            per_fault,
            campaign: self.campaign,
            num_banks: self.system.num_banks(),
            scrub_slots: self.system.scrub.slots_within(self.campaign.cycles),
            scrub_overhead: self.system.scrub.bandwidth_overhead(),
        }
    }

    /// One trial range of one lane chunk: all packed faults of one bank
    /// ride the same global event stream; lanes latch their own first
    /// error / first detection out of the packed observation masks.
    ///
    /// With a projection arena in hand the trial replays only the
    /// cycles the bank serves, jumping the activation clock over the
    /// gaps — exactly equivalent to stepping idle cycles one by one,
    /// because an unserved bank cycle changes nothing but the clock.
    fn run_sliced_block<const W: usize>(
        &self,
        chunk: &LaneChunk,
        universe: &[SystemFault],
        block: TrialBlock,
        projections: Option<&Projections>,
    ) -> Vec<SystemFaultResult> {
        let scenarios: Vec<FaultScenario> = chunk
            .positions
            .iter()
            .map(|&p| universe[p].scenario())
            .collect();
        let cfg = &self.system.banks[chunk.bank];
        let mut backend = SlicedBackend::<W>::prefilled(
            cfg,
            &scenarios,
            bank_prefill_seed(self.campaign.seed, chunk.bank),
        );
        let all = backend.lane_mask();
        let lanes = scenarios.len();
        let spec = self.system.workload_spec(self.campaign.write_fraction);
        let trials = block.trial_end - block.trial_start;
        let mut results: Vec<SystemFaultResult> = chunk
            .positions
            .iter()
            .map(|&p| SystemFaultResult::empty(universe[p], trials))
            .collect();
        let mut err_cycle = vec![0u64; lanes];
        let mut det_cycle = vec![0u64; lanes];
        for trial in block.trial_start..block.trial_end {
            backend.reset();
            let mut seen_err = LaneSet::<W>::EMPTY;
            let mut seen_det = LaneSet::<W>::EMPTY;
            // Mirror the scalar trial loop per lane: errors latch
            // before detection on the same cycle; a detected lane's
            // trial is over — later cycles no longer touch it (the
            // caller retires freshly detected lanes so their fault
            // machinery stops costing per-op work).
            let mut latch = |cycle: u64,
                             obs: &scm_memory::sliced::SlicedObservation<W>,
                             seen_err: &mut LaneSet<W>,
                             seen_det: &mut LaneSet<W>|
             -> LaneSet<W> {
                let pending = !*seen_det;
                let new_err = obs.erroneous & pending & !*seen_err & all;
                new_err.for_each_lane(|lane| err_cycle[lane] = cycle);
                *seen_err |= new_err;
                let new_det = obs.detected() & pending & all;
                new_det.for_each_lane(|lane| det_cycle[lane] = cycle);
                *seen_det |= new_det;
                new_det
            };
            if let Some(events) = projections.map(|p| &p[&(chunk.bank, trial)]) {
                for &(cycle, op) in events.iter() {
                    backend.advance(cycle - backend.cycle());
                    let obs = backend.step(op);
                    let new_det = latch(cycle, &obs, &mut seen_err, &mut seen_det);
                    if seen_det == all {
                        break;
                    }
                    backend.retire(new_det);
                }
            } else {
                let traffic = self.model.stream(
                    spec,
                    crate::system::seed_mix(
                        self.campaign.seed ^ SLICED_TRAFFIC_TAG,
                        &[chunk.bank as u64, trial as u64],
                    ),
                );
                let mut clock =
                    SystemClock::new(self.system.interleaver(), self.system.scrub, traffic);
                for cycle in 0..self.campaign.cycles {
                    let (bank, op) = clock.next_event().target();
                    if bank != chunk.bank {
                        backend.advance(1);
                        continue;
                    }
                    let obs = backend.step(op);
                    let new_det = latch(cycle, &obs, &mut seen_err, &mut seen_det);
                    if seen_det == all {
                        break;
                    }
                    backend.retire(new_det);
                }
            }
            for (lane, result) in results.iter_mut().enumerate() {
                if seen_det.test(lane) {
                    let d = det_cycle[lane];
                    result.detected += 1;
                    result.detection_cycle_sum += d;
                    let observed = if seen_err.test(lane) {
                        err_cycle[lane]
                    } else {
                        d
                    };
                    let onset = scenarios[lane]
                        .process
                        .corruption_onset()
                        .map(|a| a.min(observed))
                        .unwrap_or(observed)
                        .min(d);
                    result.latency_from_error_sum += d - onset;
                    let rollback = self.system.checkpoint.last_checkpoint_at_or_before(onset);
                    result.lost_work_sum += d - rollback + 1;
                    if seen_err.test(lane) && err_cycle[lane] < d {
                        result.error_escapes += 1;
                    }
                } else {
                    result.undetected += 1;
                    result.lost_work_sum += self.campaign.cycles;
                    if seen_err.test(lane) {
                        result.error_escapes += 1;
                    }
                }
            }
        }
        results
    }

    /// Replay the `bank × fault × trial` grid as a structured event
    /// trace on the global system clock.
    ///
    /// This is a **canonical replay** (unlike
    /// [`scm_memory::engine::CampaignEngine::trace_scenarios`], which
    /// derives its trace from the slab executor's outcomes): it
    /// always drives the scalar bank backend with the shared-stream
    /// traffic seeding the sliced engine defines
    /// (`seed_mix(seed ^ SLICED_TRAFFIC_TAG, [bank, trial])`), which
    /// the sliced path's lane-exactness makes exactly what every lane
    /// of the default sliced engine observes. The trace is pure in
    /// `(seed, bank, fault index, trial)` — bit-identical at any
    /// thread count, lane width, and engine flag — and the result path
    /// pays nothing when tracing is off.
    ///
    /// Undetected trials emit no terminal event (their censored lost
    /// work is a result-path quantity, not a timeline point); an
    /// escape is still emitted if an erroneous output got out.
    ///
    /// # Panics
    /// Panics if a universe entry names a bank outside the system.
    pub fn trace(&self, universe: &[SystemFault]) -> Vec<Event> {
        if let Some(bad) = universe.iter().find(|f| f.bank >= self.system.num_banks()) {
            panic!(
                "fault targets bank {} of a {}-bank system",
                bad.bank,
                self.system.num_banks()
            );
        }
        let template = MemorySystem::new(self.system.clone(), self.campaign.seed);
        let dispatch = || -> Vec<Vec<Event>> {
            universe
                .par_iter()
                .map(|fault| self.trace_fault(&template, *fault))
                .collect()
        };
        let per_fault: Vec<Vec<Event>> = if self.runs_serially(universe.len()) {
            universe
                .iter()
                .map(|fault| self.trace_fault(&template, *fault))
                .collect()
        } else if self.threads == 0 {
            dispatch()
        } else {
            rayon::ThreadPoolBuilder::new()
                .num_threads(self.threads)
                .build()
                .expect("thread pool construction is infallible")
                .install(dispatch)
        };
        per_fault.into_iter().flatten().collect()
    }

    /// Replay every trial of one universe entry, emitting chronological
    /// events. Pure in `(campaign seed, bank, fault index, trial)`.
    fn trace_fault(&self, template: &MemorySystem, fault: SystemFault) -> Vec<Event> {
        let spec = self.system.workload_spec(self.campaign.write_fraction);
        let scenario = fault.scenario();
        let mut backend: BehavioralBackend = template.banks()[fault.bank].clone();
        let (bank, findex) = (fault.bank as u32, fault.index as u32);
        let mut events = Vec::new();
        for trial in 0..self.campaign.trials {
            backend.reset(Some(&scenario));
            let traffic = self.model.stream(
                spec,
                crate::system::seed_mix(
                    self.campaign.seed ^ SLICED_TRAFFIC_TAG,
                    &[fault.bank as u64, trial as u64],
                ),
            );
            let mut clock = SystemClock::new(self.system.interleaver(), self.system.scrub, traffic);
            let mut first_error: Option<u64> = None;
            let mut first_detection: Option<u64> = None;
            for cycle in 0..self.campaign.cycles {
                let (target, op) = clock.next_event().target();
                if target != fault.bank {
                    backend.advance(1);
                    continue;
                }
                let obs = backend.step(op);
                if obs.erroneous.unwrap_or(false) && first_error.is_none() {
                    first_error = Some(cycle);
                }
                if obs.detected() {
                    first_detection = Some(cycle);
                    break;
                }
            }
            // The trial's simulated extent: detection latches the clock.
            let end = first_detection.map_or(self.campaign.cycles, |d| d + 1);
            let mut trial_events = Vec::new();
            match scenario.process {
                FaultProcess::TransientFlip { at } => {
                    if at < end {
                        trial_events.push(Event::cell(
                            at,
                            bank,
                            findex,
                            trial,
                            EventKind::SeuStrike,
                        ));
                    }
                }
                FaultProcess::Permanent { onset } | FaultProcess::Intermittent { onset, .. } => {
                    if onset < end {
                        trial_events.push(Event::cell(
                            onset,
                            bank,
                            findex,
                            trial,
                            EventKind::Activate,
                        ));
                    }
                }
                FaultProcess::Coupling { .. } => {
                    trial_events.push(Event::cell(0, bank, findex, trial, EventKind::Activate));
                }
            }
            let interval = self.system.checkpoint.interval;
            if interval > 0 {
                let mut k = 1u64;
                while k * interval < end {
                    trial_events.push(Event::cell(
                        k * interval,
                        bank,
                        findex,
                        trial,
                        EventKind::CheckpointWrite { index: k },
                    ));
                    k += 1;
                }
            }
            if let Some(d) = first_detection {
                let observed = first_error.unwrap_or(d);
                let onset = scenario
                    .process
                    .corruption_onset()
                    .map(|a| a.min(observed))
                    .unwrap_or(observed)
                    .min(d);
                trial_events.push(Event::cell(
                    d,
                    bank,
                    findex,
                    trial,
                    EventKind::Detect { latency: d - onset },
                ));
                let rollback = self.system.checkpoint.last_checkpoint_at_or_before(onset);
                trial_events.push(Event::cell(
                    d,
                    bank,
                    findex,
                    trial,
                    EventKind::CheckpointRestore {
                        lost: d - rollback + 1,
                    },
                ));
            }
            if let Some(e) = first_error {
                if first_detection.is_none_or(|d| e < d) {
                    trial_events.push(Event::cell(e, bank, findex, trial, EventKind::Escape));
                }
            }
            sort_chronological(&mut trial_events);
            events.extend(trial_events);
        }
        events
    }

    /// Universe-major block decomposition (the campaign engine's shape:
    /// one block per fault when faults outnumber workers, trial splits
    /// otherwise).
    fn decompose(&self, num_faults: usize) -> Vec<TrialBlock> {
        let trials = self.campaign.trials;
        let threads = self.resolved_threads();
        let target_blocks = threads * 8;
        let splits = if num_faults == 0 || num_faults >= target_blocks {
            1
        } else {
            (target_blocks.div_ceil(num_faults) as u32).clamp(1, trials.max(1))
        };
        let block_len = trials.div_ceil(splits).max(1);
        let mut blocks = Vec::with_capacity(num_faults * splits as usize);
        for uidx in 0..num_faults {
            let mut t0 = 0u32;
            while t0 < trials {
                let t1 = (t0 + block_len).min(trials);
                blocks.push(TrialBlock {
                    uidx,
                    trial_start: t0,
                    trial_end: t1,
                });
                t0 = t1;
            }
            if trials == 0 {
                blocks.push(TrialBlock {
                    uidx,
                    trial_start: 0,
                    trial_end: 0,
                });
            }
        }
        blocks
    }

    /// Traffic seed for one grid cell — pure in
    /// `(campaign seed, bank, per-bank fault index, trial)`. Each
    /// coordinate is folded through its own mix round, so no grid size
    /// makes neighbouring cells alias (a packed-shift scheme would
    /// collide once `trials` outgrew its bit field).
    fn trial_seed(&self, fault: SystemFault, trial: u32) -> u64 {
        crate::system::seed_mix(
            self.campaign.seed,
            &[fault.bank as u64, fault.index as u64, trial as u64],
        )
    }

    fn run_block(
        &self,
        template: &MemorySystem,
        fault: SystemFault,
        block: TrialBlock,
    ) -> SystemFaultResult {
        let mut result = SystemFaultResult::empty(fault, block.trial_end - block.trial_start);
        let spec = self.system.workload_spec(self.campaign.write_fraction);
        let scenario = fault.scenario();
        let mut backend: BehavioralBackend = template.banks()[fault.bank].clone();
        for trial in block.trial_start..block.trial_end {
            backend.reset(Some(&scenario));
            let traffic = self.model.stream(spec, self.trial_seed(fault, trial));
            let mut clock = SystemClock::new(self.system.interleaver(), self.system.scrub, traffic);
            let mut first_error: Option<u64> = None;
            let mut first_detection: Option<u64> = None;
            for cycle in 0..self.campaign.cycles {
                let (bank, op) = clock.next_event().target();
                if bank != fault.bank {
                    // Fault-free banks are exactly silent, but the
                    // faulted bank's temporal process rides the *global*
                    // clock: an SEU strikes whether or not traffic is
                    // routed to the bank that cycle.
                    backend.advance(1);
                    continue;
                }
                let obs = backend.step(op);
                if obs.erroneous.unwrap_or(false) && first_error.is_none() {
                    first_error = Some(cycle);
                }
                if obs.detected() {
                    first_detection = Some(cycle);
                    break; // latched indication: trial complete
                }
            }
            match first_detection {
                Some(d) => {
                    result.detected += 1;
                    result.detection_cycle_sum += d;
                    // The true onset: the silent-corruption instant when
                    // the process has one (a transient strikes the cell
                    // silently at its arrival cycle — the Aupy anchor),
                    // the first erroneous output otherwise.
                    let observed = first_error.unwrap_or(d);
                    let onset = scenario
                        .process
                        .corruption_onset()
                        .map(|a| a.min(observed))
                        .unwrap_or(observed)
                        .min(d);
                    result.latency_from_error_sum += d - onset;
                    let rollback = self.system.checkpoint.last_checkpoint_at_or_before(onset);
                    result.lost_work_sum += d - rollback + 1;
                    if first_error.is_some_and(|e| e < d) {
                        result.error_escapes += 1;
                    }
                }
                None => {
                    result.undetected += 1;
                    // Censored: the whole horizon is charged as lost.
                    result.lost_work_sum += self.campaign.cycles;
                    if first_error.is_some() {
                        result.error_escapes += 1;
                    }
                }
            }
        }
        result
    }
}

/// Bank-projected op streams, keyed `(bank, trial)`.
type Projections = HashMap<(usize, u32), Arc<Vec<(u64, Op)>>>;

/// One trial block of one lane chunk, runnable at any slab width.
struct SlicedBlock<'a> {
    campaign: &'a SystemCampaign,
    chunk: &'a LaneChunk,
    universe: &'a [SystemFault],
    block: TrialBlock,
    projections: Option<&'a Projections>,
}

impl SlabTask for SlicedBlock<'_> {
    type Output = Vec<SystemFaultResult>;

    fn run<const W: usize>(self) -> Self::Output {
        self.campaign
            .run_sliced_block::<W>(self.chunk, self.universe, self.block, self.projections)
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
    fn grid_decomposition_covers_every_cell_once() {
        let engine = SystemCampaign::new(config(), campaign()).threads(4);
        let blocks = engine.decompose(5);
        let mut seen = vec![0u32; 5];
        for b in &blocks {
            assert!(b.trial_start < b.trial_end);
            seen[b.uidx] += b.trial_end - b.trial_start;
        }
        assert!(seen.iter().all(|&t| t == campaign().trials), "{seen:?}");
    }

    #[test]
    fn campaign_is_bit_identical_at_any_thread_count() {
        // serial_threshold(0) keeps this small grid on the parallel
        // path this test exists to exercise.
        let engine = SystemCampaign::new(config(), campaign()).serial_threshold(0);
        let universe = engine.decoder_universe(6);
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

    #[test]
    fn sliced_campaign_is_thread_and_lane_width_invariant() {
        let engine = SystemCampaign::new(config(), campaign())
            .sliced(true)
            .serial_threshold(0);
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

    /// A model wrapper that counts stream instantiations — the
    /// projection-arena regression hook.
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
    fn sliced_system_projects_each_bank_trial_stream_exactly_once() {
        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let model = Arc::new(CountingModel {
            inner: Arc::new(UniformRandom),
            calls: calls.clone(),
        });
        // Lane width 4 splits every bank's universe into several chunks
        // that all share the bank's projections; without the arena each
        // chunk would regenerate every trial's stream.
        let engine = SystemCampaign::new(config(), campaign())
            .sliced(true)
            .lane_width(4)
            .workload_model(model)
            .threads(4)
            .serial_threshold(0);
        let universe = engine.decoder_universe(10);
        let banks_with_faults = 3u64;
        engine.run(&universe);
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::Relaxed),
            banks_with_faults * campaign().trials as u64,
            "one clock walk per (bank, trial), shared by all of its chunks"
        );
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
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            // The system trace replays the sliced engine's shared-seed
            // conventions regardless of how the result path is
            // configured, so random small campaigns must trace
            // identically at every thread count and under either
            // engine flag.
            #[test]
            fn trace_is_thread_and_engine_invariant_over_random_campaigns(
                cycles in 8u64..64,
                trials in 1u32..5,
                seed in any::<u64>(),
                per_bank in 1usize..4,
            ) {
                let campaign = CampaignConfig {
                    cycles,
                    trials,
                    seed,
                    write_fraction: 0.1,
                };
                let engine = SystemCampaign::new(config(), campaign).threads(1);
                let universe = engine.decoder_universe(per_bank);
                let reference = engine.trace(&universe);
                for threads in [2usize, 4, 8] {
                    let trace = SystemCampaign::new(config(), campaign)
                        .threads(threads)
                        .serial_threshold(0)
                        .trace(&universe);
                    prop_assert_eq!(&trace, &reference, "threads = {}", threads);
                }
                for sliced in [false, true] {
                    let trace = SystemCampaign::new(config(), campaign)
                        .sliced(sliced)
                        .threads(2)
                        .serial_threshold(0)
                        .trace(&universe);
                    prop_assert_eq!(&trace, &reference, "sliced = {}", sliced);
                }
            }
        }
    }
}
