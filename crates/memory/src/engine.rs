//! The parallel fault-injection campaign engine.
//!
//! One engine runs the whole fault × trial grid of a Monte-Carlo campaign
//! through a [`FaultSimBackend`], spreading the grid over a rayon thread
//! pool with dynamic work stealing. Determinism is a hard contract:
//!
//! * every trial's workload stream is seeded purely from
//!   `(campaign seed, trial index)` ([`shared_trial_seed`]) and shared by
//!   every fault of the grid (common random numbers),
//! * per-fault statistics are sums of per-trial counters, which commute,
//!
//! so the result is **bit-identical at every thread count** — the
//! single-thread run is the specification, the parallel run is just
//! faster. The determinism test in `tests/campaign_engine.rs` enforces
//! this.
//!
//! There is one Monte-Carlo estimator and two executors for it: the
//! generic one steps any [`FaultSimBackend`] one scenario at a time (the
//! oracle, and the path for backends the slab cannot run), the slab one
//! packs up to [`MAX_SLAB_LANES`] scenarios into the lanes of a
//! [`SlicedBackend`]. [`sliced`](CampaignEngine::sliced) picks the
//! executor; the lane-exactness contract (DESIGN.md §3a) makes both
//! return the same [`CampaignResult`] bit for bit.
//!
//! The grid is decomposed fault-major into trial blocks: when the
//! fault universe is wide (the common case — thousands of collapsed
//! stuck-ats), each block is one fault's full trial set; when callers
//! probe few faults with many trials, trial ranges split so every worker
//! still gets enough blocks to steal. Blocks are the scheduling unit;
//! workers pull them off a shared queue, so a fault whose trials detect
//! in one cycle doesn't leave its thread idle while a slow fault finishes.

use crate::arena::{OpStreamArena, ReplayOps, ARENA_OP_BUDGET};
use crate::backend::{BehavioralBackend, FaultSimBackend};
use crate::campaign::{CampaignConfig, CampaignResult, FaultResult};
use crate::design::RamConfig;
use crate::fault::{FaultProcess, FaultScenario, FaultSite};
use crate::grid::{dispatch, trial_blocks, TrialBlock};
use crate::sim::{measure_detection_on, DetectionOutcome, PackedOutcome};
use crate::sliced::{
    measure_detection_sliced, shared_trial_seed, slab_words, with_slab_words, SlabTask,
    SlicedBackend, MAX_SLAB_LANES,
};
use crate::workload::{Op, OpStream, ScrubInterleaver, UniformRandom, WorkloadModel, WorkloadSpec};
use scm_obs::{sort_chronological, Event, EventKind};
use std::sync::Arc;

/// Parallel campaign runner over any [`FaultSimBackend`].
#[derive(Debug, Clone)]
pub struct CampaignEngine {
    campaign: CampaignConfig,
    model: Arc<dyn WorkloadModel>,
    threads: usize,
    scrub_period: u64,
    sliced: bool,
    lane_width: usize,
    serial_threshold: u64,
    arena: Option<Arc<OpStreamArena>>,
}

/// How full the sliced engine's lane blocks are for one grid: `filled`
/// scenarios over `capacity` slab lanes across `blocks` packs. The gap
/// is the partial-final-block waste the campaign CLI surfaces as its
/// `occupancy:` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneOccupancy {
    /// Scenario lanes actually carrying a fault.
    pub filled: usize,
    /// Total lanes allocated (each block rounds up to whole slab words).
    pub capacity: usize,
    /// Number of lane blocks the grid splits into.
    pub blocks: usize,
    /// The configured lane width (scenarios per block, before rounding).
    pub width: usize,
}

/// Grids of at most this many `scenario × trial` cells run serially by
/// default: below it the rayon fan-out (block construction and fresh
/// scoped workers per fan-out) costs more than it buys. perfbench's
/// `rayon.par_wave_us` prices one two-thread fan-out of trivial items at
/// tens of microseconds.
pub const DEFAULT_SERIAL_THRESHOLD: u64 = 256;

impl CampaignEngine {
    /// Engine with the given campaign parameters, the paper's uniform
    /// workload model, no scrubbing, and the ambient rayon thread count.
    pub fn new(campaign: CampaignConfig) -> Self {
        CampaignEngine {
            campaign,
            model: Arc::new(UniformRandom),
            threads: 0,
            scrub_period: 0,
            sliced: false,
            lane_width: MAX_SLAB_LANES,
            serial_threshold: DEFAULT_SERIAL_THRESHOLD,
            arena: None,
        }
    }

    /// Largest `scenario × trial` grid that skips the rayon fan-out and
    /// runs serially on the calling thread (`0` = always fan out).
    /// Purely a scheduling knob: block decomposition and the in-order
    /// merge are unchanged, so results stay bit-identical either way.
    pub fn serial_threshold(mut self, cells: u64) -> Self {
        self.serial_threshold = cells;
        self
    }

    /// Merge a background scrubber into every trial's stream: each
    /// `period`-th cycle becomes a sequential sweep read
    /// ([`ScrubInterleaver`]; `0` = off, the default — bit-identical to
    /// the unscrubbed engine). Against transient flips this is the knob
    /// that turns "maybe never read" into "read within one sweep".
    pub fn scrub(mut self, period: u64) -> Self {
        self.scrub_period = period;
        self
    }

    /// Plug in a workload model by value.
    pub fn workload(mut self, model: impl WorkloadModel + 'static) -> Self {
        self.model = Arc::new(model);
        self
    }

    /// Plug in a shared workload model (e.g. one resolved from
    /// [`crate::workload::model_by_name`]).
    pub fn workload_model(mut self, model: Arc<dyn WorkloadModel>) -> Self {
        self.model = model;
        self
    }

    /// The workload model trials will run.
    pub fn model(&self) -> &Arc<dyn WorkloadModel> {
        &self.model
    }

    /// Pin the thread count (`0` = use the ambient rayon default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Choose the executor behind [`run_scenarios`](Self::run_scenarios):
    /// `true` packs up to [`lane_width`](Self::lane_width) scenarios into
    /// the bit lanes of one slab pass, `false` steps the behavioural
    /// backend one scenario at a time. Both run the same estimator with
    /// the same per-trial streams, so the [`CampaignResult`] is
    /// bit-identical either way — this is a speed knob, not a modelling
    /// one.
    pub fn sliced(mut self, sliced: bool) -> Self {
        self.sliced = sliced;
        self
    }

    /// Scenarios packed per simulation pass on the sliced path (clamped
    /// to `1..=`[`MAX_SLAB_LANES`]; default 512). Each block runs at the
    /// narrowest multi-word slab that fits it ([`slab_words`]), so any
    /// width is exact — narrower widths exist for the lane-packing
    /// invariance tests, production runs want the default.
    pub fn lane_width(mut self, width: usize) -> Self {
        self.lane_width = width.clamp(1, MAX_SLAB_LANES);
        self
    }

    /// Share a materialised op-stream arena with other engines (e.g.
    /// across guided-search fidelity rungs). Without one the engine
    /// builds a private arena per [`run_scenarios`](Self::run_scenarios)
    /// call; either way each trial's stream is generated exactly once
    /// per campaign while the grid fits [`ARENA_OP_BUDGET`].
    pub fn arena(mut self, arena: Arc<OpStreamArena>) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Lane occupancy of a `scenarios`-wide grid at the current lane
    /// width — what the campaign CLI prints as its `occupancy:` line.
    pub fn occupancy(&self, scenarios: usize) -> LaneOccupancy {
        let width = self.lane_width;
        let blocks = scenarios.div_ceil(width);
        let full = scenarios / width;
        let rem = scenarios % width;
        let capacity =
            full * slab_words(width) * 64 + if rem > 0 { slab_words(rem) * 64 } else { 0 };
        LaneOccupancy {
            filled: scenarios,
            capacity,
            blocks,
            width,
        }
    }

    /// The campaign parameters.
    pub fn campaign(&self) -> &CampaignConfig {
        &self.campaign
    }

    /// Threads the engine will actually use.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            rayon::current_num_threads()
        } else {
            self.threads
        }
    }

    /// Run over the behavioural backend with the campaign convention's
    /// random prefill (the classic `run_campaign` entry point; every
    /// fault pinned from cycle 0).
    pub fn run(&self, config: &RamConfig, faults: &[FaultSite]) -> CampaignResult {
        let scenarios: Vec<FaultScenario> = faults
            .iter()
            .copied()
            .map(FaultScenario::permanent)
            .collect();
        self.run_scenarios(config, &scenarios)
    }

    /// Run a temporal-scenario grid with the campaign convention's random
    /// prefill, on the executor [`sliced`](Self::sliced) selects (the
    /// result does not depend on which).
    pub fn run_scenarios(&self, config: &RamConfig, scenarios: &[FaultScenario]) -> CampaignResult {
        if self.sliced {
            return self.run_scenarios_sliced(config, scenarios);
        }
        let backend = BehavioralBackend::prefilled(config, self.prefill_seed());
        self.run_scenarios_on(&backend, scenarios)
    }

    /// Run the scenario × trial grid on the bit-sliced backend: scenarios
    /// are chunked into lane blocks of [`lane_width`](Self::lane_width),
    /// each block runs at the narrowest multi-word slab that fits it
    /// ([`slab_words`]), every trial advances all lanes of a block
    /// through one shared op-stream, and per-lane detection cycles come
    /// out of the packed detection masks. Trial streams are materialised
    /// once in the op-stream arena and replayed by reference per block
    /// (grids beyond [`ARENA_OP_BUDGET`] regenerate per block instead —
    /// bit-identical either way). Trial ranges still split across rayon
    /// workers exactly like the generic path, so results are bit-identical
    /// at any thread count *and* at any lane width (the trial stream seed
    /// depends only on `(campaign seed, trial)`, never on lane geometry),
    /// and equal to [`run_scenarios_on`](Self::run_scenarios_on) over the
    /// behavioural backend.
    ///
    /// # Panics
    /// Panics if the sliced backend does not
    /// [support](SlicedBackend::supports) one of the scenarios.
    pub fn run_scenarios_sliced(
        &self,
        config: &RamConfig,
        scenarios: &[FaultScenario],
    ) -> CampaignResult {
        let partials = self.run_slab_grid(
            config,
            scenarios,
            |chunk, block| {
                chunk
                    .iter()
                    .map(|scenario| FaultResult::empty(scenario, block.trials()))
                    .collect::<Vec<_>>()
            },
            |results, outcomes| {
                for (result, out) in results.iter_mut().zip(outcomes) {
                    result.record(out);
                }
            },
        );
        // Fold trial-split partials of the same chunk back together,
        // lane by lane, then flatten chunk-major — scenario input order.
        let per_fault: Vec<FaultResult> = merge_partials(partials, |acc, partial| {
            for (a, p) in acc.iter_mut().zip(&partial) {
                a.merge(p);
            }
        })
        .into_iter()
        .flatten()
        .collect();
        debug_assert_eq!(per_fault.len(), scenarios.len());
        CampaignResult {
            per_fault,
            config: self.campaign,
        }
    }

    /// The slab-block executor behind both the result path and the
    /// trace. Scenarios chunk into lane packs of
    /// [`lane_width`](Self::lane_width), packs split into trial blocks
    /// ([`decompose_slabs`](Self::decompose_slabs)), and every block runs
    /// at the narrowest slab that fits its pack: `init` builds the
    /// block's accumulator, `fold` takes each trial's per-lane outcomes
    /// in trial order. Returns every block with its accumulator,
    /// pack-major with ascending trial ranges.
    ///
    /// # Panics
    /// Panics if the sliced backend does not
    /// [support](SlicedBackend::supports) one of the scenarios.
    fn run_slab_grid<A: Send>(
        &self,
        config: &RamConfig,
        scenarios: &[FaultScenario],
        init: impl Fn(&[FaultScenario], TrialBlock) -> A + Sync,
        fold: impl Fn(&mut A, &[DetectionOutcome]) + Sync,
    ) -> Vec<(TrialBlock, A)> {
        if let Some(bad) = scenarios.iter().find(|s| !SlicedBackend::<1>::supports(s)) {
            panic!("backend 'sliced' cannot inject {bad:?}");
        }
        let chunks: Vec<&[FaultScenario]> = scenarios.chunks(self.lane_width).collect();
        let blocks = self.decompose_slabs(chunks.len());
        let streams: Option<Vec<Arc<Vec<Op>>>> = (u64::from(self.campaign.trials)
            .saturating_mul(self.campaign.cycles)
            <= ARENA_OP_BUDGET)
            .then(|| {
                self.arena.clone().unwrap_or_default().prepare(
                    &self.model,
                    self.workload_spec(config),
                    self.campaign.seed,
                    self.scrub_period,
                    self.campaign.trials,
                    self.campaign.cycles,
                )
            });
        let serial = self.runs_serially(scenarios.len());
        dispatch(serial, self.threads, &blocks, |block| {
            let chunk = chunks[block.unit];
            let mut acc = init(chunk, block);
            with_slab_words(
                chunk.len(),
                SlabBlock {
                    engine: self,
                    config,
                    chunk,
                    block,
                    streams: streams.as_deref(),
                    visit: &mut |outcomes| fold(&mut acc, outcomes),
                },
            );
            acc
        })
    }

    /// One trial range of one lane pack at slab width `W`: every trial
    /// steps all packed scenarios at once and hands the per-lane
    /// outcomes to `visit`. With `streams` the trial ops replay from the
    /// arena; without, they regenerate from the model (identical
    /// sequences either way).
    fn run_slab_block<const W: usize>(
        &self,
        config: &RamConfig,
        chunk: &[FaultScenario],
        block: TrialBlock,
        streams: Option<&[Arc<Vec<Op>>]>,
        visit: &mut dyn FnMut(&[DetectionOutcome]),
    ) {
        let mut backend = SlicedBackend::<W>::prefilled(config, chunk, self.prefill_seed());
        let spec = self.workload_spec(config);
        for trial in block.trial_start..block.trial_end {
            backend.reset();
            let outcomes = match streams {
                Some(streams) => {
                    let mut replay = ReplayOps::new(&streams[trial as usize]);
                    measure_detection_sliced(&mut backend, &mut replay, self.campaign.cycles)
                }
                None => {
                    let seed = shared_trial_seed(self.campaign.seed, trial);
                    let mut workload = self.trial_stream(spec, seed);
                    measure_detection_sliced(&mut backend, workload.as_mut(), self.campaign.cycles)
                }
            };
            visit(&outcomes);
        }
    }

    /// Run the classical permanent grid on clones of `backend`.
    ///
    /// # Panics
    /// Panics if `backend` does not [support](FaultSimBackend::supports)
    /// one of the faults.
    pub fn run_on<B>(&self, backend: &B, faults: &[FaultSite]) -> CampaignResult
    where
        B: FaultSimBackend + Clone + Send + Sync,
    {
        let scenarios: Vec<FaultScenario> = faults
            .iter()
            .copied()
            .map(FaultScenario::permanent)
            .collect();
        self.run_scenarios_on(backend, &scenarios)
    }

    /// Run the full scenario × trial grid on clones of `backend`.
    ///
    /// # Panics
    /// Panics if `backend` does not [support](FaultSimBackend::supports)
    /// one of the scenarios.
    pub fn run_scenarios_on<B>(&self, backend: &B, scenarios: &[FaultScenario]) -> CampaignResult
    where
        B: FaultSimBackend + Clone + Send + Sync,
    {
        if let Some(bad) = scenarios.iter().find(|s| !backend.supports(s)) {
            panic!("backend '{}' cannot inject {bad:?}", backend.name());
        }
        let blocks = self.decompose(scenarios.len());
        let serial = self.runs_serially(scenarios.len());
        let partials = dispatch(serial, self.threads, &blocks, |block| {
            self.run_block(backend.clone(), scenarios[block.unit], block)
        });
        let per_fault = merge_partials(partials, |acc, partial| acc.merge(&partial));
        debug_assert_eq!(per_fault.len(), scenarios.len());
        CampaignResult {
            per_fault,
            config: self.campaign,
        }
    }

    /// Trace the permanent grid: the scenario-level twin of
    /// [`run`](Self::run).
    pub fn trace(&self, config: &RamConfig, faults: &[FaultSite]) -> Vec<Event> {
        let scenarios: Vec<FaultScenario> = faults
            .iter()
            .copied()
            .map(FaultScenario::permanent)
            .collect();
        self.trace_scenarios(config, &scenarios)
    }

    /// The scenario × trial grid as a structured event trace.
    ///
    /// The trace runs the same slab-block executor as
    /// [`run_scenarios_sliced`](Self::run_scenarios_sliced) — same lane
    /// packs, trial blocks, op-stream arena and thread dispatch — and
    /// derives each cell's events from the per-lane detection outcome
    /// the slab pass returns, assembled in canonical `(fault, trial)`
    /// order. The lane-exactness contract (DESIGN.md §3a) makes that
    /// outcome the behavioural backend's under the shared-stream trial
    /// seeding, so the trace is a pure function of
    /// `(seed, fault, trial)`: bit-identical at any thread count, any
    /// lane width, and under either executor. It is a second pass,
    /// not a tap: the result path never consults it, so tracing off
    /// costs nothing.
    ///
    /// # Panics
    /// Panics if the sliced backend does not
    /// [support](SlicedBackend::supports) one of the scenarios.
    pub fn trace_scenarios(&self, config: &RamConfig, scenarios: &[FaultScenario]) -> Vec<Event> {
        let partials = self.run_slab_grid(
            config,
            scenarios,
            |chunk, block| Vec::with_capacity(chunk.len() * block.trials() as usize),
            |packed: &mut Vec<PackedOutcome>, outcomes| {
                packed.extend(outcomes.iter().map(PackedOutcome::pack));
            },
        );
        let sweep_len = self.scrub_period * config.org().words();
        // Walk the cells in canonical (fault, trial) order: a pack's
        // blocks are adjacent, each holding its trials' outcomes
        // trial-major, so every lane reads across the pack's blocks.
        let for_each_cell = |f: &mut dyn FnMut(&FaultScenario, u32, u32, &DetectionOutcome)| {
            for pack in partials.chunk_by(|a, b| a.0.unit == b.0.unit) {
                let first = pack[0].0.unit * self.lane_width;
                let lanes = scenarios[first..].len().min(self.lane_width);
                for lane in 0..lanes {
                    let fault = (first + lane) as u32;
                    for (block, packed) in pack {
                        for trial in block.trial_start..block.trial_end {
                            let i = (trial - block.trial_start) as usize * lanes + lane;
                            let out = packed[i].unpack(self.campaign.cycles);
                            f(&scenarios[first + lane], fault, trial, &out);
                        }
                    }
                }
            }
        };
        // Size the output exactly before writing it once: the trace is
        // the largest allocation of a traced pass.
        let mut scratch = Vec::new();
        let mut total = 0;
        for_each_cell(&mut |scenario, fault, trial, out| {
            scratch.clear();
            cell_events(scenario, fault, trial, out, sweep_len, &mut scratch);
            total += scratch.len();
        });
        let mut events = Vec::with_capacity(total);
        for_each_cell(&mut |scenario, fault, trial, out| {
            cell_events(scenario, fault, trial, out, sweep_len, &mut events);
        });
        events
    }

    /// Is this grid small enough for the serial fast path?
    fn runs_serially(&self, scenarios: usize) -> bool {
        self.serial_threshold > 0
            && scenarios as u64 * self.campaign.trials as u64 <= self.serial_threshold
    }

    /// The workload shape every trial stream of `config` is drawn with.
    fn workload_spec(&self, config: &RamConfig) -> WorkloadSpec {
        let org = config.org();
        WorkloadSpec {
            words: org.words(),
            word_bits: org.word_bits(),
            write_fraction: self.campaign.write_fraction,
        }
    }

    /// One trial's op stream, with the background scrubber merged in
    /// when one is configured.
    fn trial_stream(&self, spec: WorkloadSpec, seed: u64) -> OpStream {
        let stream = self.model.stream(spec, seed);
        if self.scrub_period > 0 {
            Box::new(ScrubInterleaver::new(stream, self.scrub_period, spec.words))
        } else {
            stream
        }
    }

    /// The campaign convention's prefill seed, shared by the behavioural
    /// and the sliced backend.
    fn prefill_seed(&self) -> u64 {
        self.campaign.seed ^ 0xF1E1D1
    }

    /// Split the grid into schedulable blocks: one per fault when faults
    /// outnumber workers 8 to 1 (room for work stealing), trial-splitting
    /// otherwise.
    fn decompose(&self, num_faults: usize) -> Vec<TrialBlock> {
        trial_blocks(
            num_faults,
            self.campaign.trials,
            self.resolved_threads() * 8,
        )
    }

    /// Split slab blocks into schedulable trial ranges. Unlike
    /// [`decompose`](Self::decompose), which over-decomposes by 8× for
    /// work stealing, this only splits trials as far as the worker
    /// count demands: every extra trial range builds another backend,
    /// whose fixed cost is the prefill and the slab-per-cell
    /// materialisation (fault tables expand lazily per touched row, and
    /// a reset between trials costs only the sites a trial wrote), so a
    /// serial run gets exactly one backend per block and a parallel
    /// run pays construction only once per worker. Results are
    /// invariant either way — trial outcomes never depend on which
    /// block ran them.
    fn decompose_slabs(&self, num_chunks: usize) -> Vec<TrialBlock> {
        trial_blocks(num_chunks, self.campaign.trials, self.resolved_threads())
    }

    fn run_block<B: FaultSimBackend>(
        &self,
        mut backend: B,
        scenario: FaultScenario,
        block: TrialBlock,
    ) -> FaultResult {
        let spec = self.workload_spec(backend.config());
        let mut result = FaultResult::empty(&scenario, block.trials());
        for trial in block.trial_start..block.trial_end {
            backend.reset(Some(&scenario));
            let seed = shared_trial_seed(self.campaign.seed, trial);
            let mut workload = self.trial_stream(spec, seed);
            let out = measure_detection_on(&mut backend, workload.as_mut(), self.campaign.cycles);
            result.record(&out);
        }
        result
    }
}

/// One trial block of one lane pack, runnable at any slab width.
struct SlabBlock<'a> {
    engine: &'a CampaignEngine,
    config: &'a RamConfig,
    chunk: &'a [FaultScenario],
    block: TrialBlock,
    streams: Option<&'a [Arc<Vec<Op>>]>,
    visit: &'a mut dyn FnMut(&[DetectionOutcome]),
}

impl SlabTask for SlabBlock<'_> {
    type Output = ();

    fn run<const W: usize>(self) {
        self.engine.run_slab_block::<W>(
            self.config,
            self.chunk,
            self.block,
            self.streams,
            self.visit,
        );
    }
}

/// Fold the trial-split partials of each grid unit back into one, in
/// unit order. Blocks are unit-major with ascending trial ranges, so a
/// unit's partials are adjacent.
fn merge_partials<T>(partials: Vec<(TrialBlock, T)>, mut merge: impl FnMut(&mut T, T)) -> Vec<T> {
    let mut merged: Vec<T> = Vec::new();
    let mut last = usize::MAX;
    for (block, partial) in partials {
        if block.unit == last {
            merge(
                merged.last_mut().expect("a merge always follows a push"),
                partial,
            );
        } else {
            merged.push(partial);
            last = block.unit;
        }
    }
    merged
}

/// The onset event of a trial that ran `cycles_run` cycles: an SEU
/// strike at a transient's flip cycle, else an activation at the first
/// active window (couplings are armed from cycle 0). `None` when the
/// onset lies past the trial's end.
pub fn onset_event(process: &FaultProcess, cycles_run: u64) -> Option<(u64, EventKind)> {
    match *process {
        FaultProcess::TransientFlip { at } => {
            (at < cycles_run).then_some((at, EventKind::SeuStrike))
        }
        FaultProcess::Permanent { onset } | FaultProcess::Intermittent { onset, .. } => {
            (onset < cycles_run).then_some((onset, EventKind::Activate))
        }
        FaultProcess::Coupling { .. } => Some((0, EventKind::Activate)),
    }
}

/// Append the events of one `(fault, trial)` cell, chronologically
/// ordered, as its detection outcome implies them: the onset (an SEU
/// strike at a transient's flip cycle, else an activation at the first
/// active window — couplings are armed from cycle 0), every scrub sweep
/// completed within the trial (`sweep_len` cycles each, `0` = no
/// scrubber), the first detection with its onset latency, and an escape
/// at the first erroneous output when that preceded any indication.
fn cell_events(
    scenario: &FaultScenario,
    fault: u32,
    trial: u32,
    out: &DetectionOutcome,
    sweep_len: u64,
    events: &mut Vec<Event>,
) {
    let start = events.len();
    let mut push = |t: u64, kind: EventKind| events.push(Event::cell(t, 0, fault, trial, kind));
    if let Some((t, kind)) = onset_event(&scenario.process, out.cycles_run) {
        push(t, kind);
    }
    for sweep in 1..=out.cycles_run.checked_div(sweep_len).unwrap_or(0) {
        push(sweep * sweep_len - 1, EventKind::ScrubSweep { sweep });
    }
    if let (Some(d), Some(latency)) = (out.first_detection, out.onset_latency(&scenario.process)) {
        push(d, EventKind::Detect { latency });
    }
    if out.error_escaped() {
        let t = out.first_error.expect("an escape implies an error");
        push(t, EventKind::Escape);
    }
    sort_chronological(&mut events[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::decoder_fault_universe;
    use crate::workload::SequentialScan;
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

    fn row_faults() -> Vec<FaultSite> {
        decoder_fault_universe(4)
            .into_iter()
            .map(FaultSite::RowDecoder)
            .collect()
    }

    #[test]
    fn grid_decomposition_covers_every_cell_once() {
        for (faults, trials, threads) in [
            (64usize, 8u32, 4usize),
            (3, 100, 8),
            (1, 7, 2),
            (200, 1, 16),
        ] {
            let engine = CampaignEngine::new(CampaignConfig {
                trials,
                ..CampaignConfig::default()
            })
            .threads(threads);
            let blocks = engine.decompose(faults);
            let mut seen = vec![0u32; faults];
            for b in &blocks {
                assert!(b.trial_start < b.trial_end, "empty block {b:?}");
                seen[b.unit] += b.trial_end - b.trial_start;
            }
            assert!(
                seen.iter().all(|&t| t == trials),
                "{faults}x{trials}@{threads}: {seen:?}"
            );
            // Fault-major ordering: units never decrease, trial ranges are
            // contiguous per fault.
            for w in blocks.windows(2) {
                assert!(w[1].unit >= w[0].unit);
                if w[1].unit == w[0].unit {
                    assert_eq!(w[1].trial_start, w[0].trial_end);
                }
            }
        }
    }

    #[test]
    fn engine_matches_across_thread_counts_and_trial_splits() {
        let cfg = config();
        let faults = row_faults();
        // Few faults force trial splitting; the full universe exercises
        // fault-major blocks. Both must agree with the 1-thread run.
        // serial_threshold(0) keeps these small grids on the parallel
        // path this test exists to exercise.
        for universe in [&faults[..3], &faults[..]] {
            let campaign = CampaignConfig {
                cycles: 12,
                trials: 10,
                seed: 77,
                write_fraction: 0.1,
            };
            let reference = CampaignEngine::new(campaign)
                .threads(1)
                .serial_threshold(0)
                .run(&cfg, universe);
            for threads in [2usize, 4, 7] {
                let result = CampaignEngine::new(campaign)
                    .threads(threads)
                    .serial_threshold(0)
                    .run(&cfg, universe);
                assert_eq!(
                    reference.determinism_profile(),
                    result.determinism_profile(),
                    "{} faults, {threads} threads",
                    universe.len()
                );
            }
        }
    }

    #[test]
    fn every_builtin_model_runs_deterministically_at_any_thread_count() {
        let cfg = config();
        let faults = row_faults();
        let campaign = CampaignConfig {
            cycles: 8,
            trials: 6,
            seed: 41,
            write_fraction: 0.1,
        };
        for model in crate::workload::builtin_models() {
            let reference = CampaignEngine::new(campaign)
                .workload_model(model.clone())
                .threads(1)
                .serial_threshold(0)
                .run(&cfg, &faults[..6]);
            let parallel = CampaignEngine::new(campaign)
                .workload_model(model.clone())
                .threads(4)
                .serial_threshold(0)
                .run(&cfg, &faults[..6]);
            assert_eq!(
                reference.determinism_profile(),
                parallel.determinism_profile(),
                "model {}",
                model.name()
            );
            // The campaign must actually exercise the fault universe: at
            // least one trial somewhere detects something.
            assert!(
                reference.per_fault.iter().any(|f| f.detected > 0),
                "model {} never detected anything",
                model.name()
            );
        }
    }

    #[test]
    fn distinct_models_measure_distinct_detection_behaviour() {
        // A colliding SA1 under a tiny hot window behaves differently from
        // uniform addressing; the engine must thread the model through to
        // the trials rather than silently falling back to uniform.
        let cfg = config();
        let faults = row_faults();
        let campaign = CampaignConfig {
            cycles: 10,
            trials: 12,
            seed: 99,
            write_fraction: 0.1,
        };
        let uniform = CampaignEngine::new(campaign).run(&cfg, &faults);
        let sequential = CampaignEngine::new(campaign)
            .workload(SequentialScan)
            .run(&cfg, &faults);
        assert_ne!(
            uniform.determinism_profile(),
            sequential.determinism_profile(),
            "sequential campaign produced the uniform profile"
        );
    }

    /// A universe mixing every lane-relevant shape: permanents across
    /// site classes, delayed onsets, transients, intermittents, couplings.
    fn mixed_scenarios() -> Vec<FaultScenario> {
        use crate::fault::{CellRef, CouplingKind, FaultProcess};
        let mut scenarios: Vec<FaultScenario> = row_faults()
            .into_iter()
            .map(FaultScenario::permanent)
            .collect();
        scenarios.push(FaultScenario {
            site: FaultSite::Cell {
                row: 3,
                col: 5,
                stuck: true,
            },
            process: FaultProcess::Permanent { onset: 4 },
        });
        scenarios.push(FaultScenario {
            site: FaultSite::Cell {
                row: 7,
                col: 2,
                stuck: false,
            },
            process: FaultProcess::TransientFlip { at: 3 },
        });
        scenarios.push(FaultScenario {
            site: FaultSite::DataRegisterBit {
                bit: 1,
                stuck: true,
            },
            process: FaultProcess::Intermittent {
                onset: 2,
                period: 4,
                duty: 2,
            },
        });
        scenarios.push(FaultScenario {
            site: FaultSite::Cell {
                row: 5,
                col: 9,
                stuck: false,
            },
            process: FaultProcess::Coupling {
                aggressor: CellRef { row: 2, col: 1 },
                kind: CouplingKind::Inversion,
            },
        });
        scenarios
    }

    #[test]
    fn sliced_engine_is_thread_count_and_lane_width_invariant() {
        let cfg = config();
        let scenarios = mixed_scenarios();
        let campaign = CampaignConfig {
            cycles: 12,
            trials: 10,
            seed: 77,
            write_fraction: 0.1,
        };
        let reference = CampaignEngine::new(campaign)
            .sliced(true)
            .threads(1)
            .serial_threshold(0)
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(reference.per_fault.len(), scenarios.len());
        assert!(
            reference.per_fault.iter().any(|f| f.detected > 0),
            "sliced campaign never detected anything"
        );
        for threads in [2usize, 4, 8] {
            let result = CampaignEngine::new(campaign)
                .sliced(true)
                .threads(threads)
                .serial_threshold(0)
                .run_scenarios(&cfg, &scenarios);
            assert_eq!(
                reference.determinism_profile(),
                result.determinism_profile(),
                "{threads} threads"
            );
        }
        for width in [1usize, 8, 17, 64, 100, 128, 512] {
            let result = CampaignEngine::new(campaign)
                .sliced(true)
                .lane_width(width)
                .run_scenarios(&cfg, &scenarios);
            assert_eq!(
                reference.determinism_profile(),
                result.determinism_profile(),
                "lane width {width}"
            );
        }
    }

    #[derive(Debug)]
    struct CountingModel {
        inner: Arc<dyn WorkloadModel>,
        calls: Arc<std::sync::atomic::AtomicU64>,
    }

    impl WorkloadModel for CountingModel {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn stream(&self, spec: WorkloadSpec, seed: u64) -> crate::workload::OpStream {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.stream(spec, seed)
        }
    }

    #[test]
    fn sliced_campaign_generates_each_trial_stream_exactly_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cfg = config();
        let scenarios = mixed_scenarios();
        let calls = Arc::new(AtomicU64::new(0));
        let campaign = CampaignConfig {
            cycles: 12,
            trials: 10,
            seed: 77,
            write_fraction: 0.1,
        };
        // Lane width 8 splits the universe into many blocks; before the
        // op-stream arena every block regenerated all ten streams.
        let result = CampaignEngine::new(campaign)
            .workload_model(Arc::new(CountingModel {
                inner: Arc::new(UniformRandom),
                calls: calls.clone(),
            }))
            .sliced(true)
            .lane_width(8)
            .serial_threshold(0)
            .threads(4)
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(result.per_fault.len(), scenarios.len());
        assert!(scenarios.len() > 8, "universe must span several blocks");
        assert_eq!(
            calls.load(Ordering::Relaxed),
            u64::from(campaign.trials),
            "one stream per trial, regardless of lane blocks"
        );
    }

    #[test]
    fn shared_arena_reuses_streams_across_runs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cfg = config();
        let scenarios = mixed_scenarios();
        let calls = Arc::new(AtomicU64::new(0));
        let model: Arc<dyn WorkloadModel> = Arc::new(CountingModel {
            inner: Arc::new(UniformRandom),
            calls: calls.clone(),
        });
        let arena = Arc::new(crate::arena::OpStreamArena::new());
        let campaign = CampaignConfig {
            cycles: 12,
            trials: 6,
            seed: 5,
            write_fraction: 0.1,
        };
        let low = CampaignEngine::new(campaign)
            .workload_model(model.clone())
            .sliced(true)
            .arena(arena.clone())
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        // A higher-fidelity rung with more trials only generates the new
        // trials; the first six replay from the shared arena.
        let high = CampaignEngine::new(campaign)
            .workload_model(model.clone())
            .sliced(true)
            .arena(arena.clone())
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(calls.load(Ordering::Relaxed), 6, "second run regenerated");
        assert_eq!(low.determinism_profile(), high.determinism_profile());
        let more = CampaignConfig {
            trials: 9,
            ..campaign
        };
        CampaignEngine::new(more)
            .workload_model(model)
            .sliced(true)
            .arena(arena)
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(calls.load(Ordering::Relaxed), 9, "only trials 6..9 are new");
    }

    #[test]
    fn occupancy_accounts_for_partial_blocks() {
        let engine = CampaignEngine::new(CampaignConfig::default());
        assert_eq!(
            engine.occupancy(272),
            LaneOccupancy {
                filled: 272,
                capacity: 320,
                blocks: 1,
                width: 512,
            }
        );
        assert_eq!(
            engine.clone().lane_width(64).occupancy(130),
            LaneOccupancy {
                filled: 130,
                capacity: 192,
                blocks: 3,
                width: 64,
            }
        );
        assert_eq!(
            engine.lane_width(512).occupancy(512),
            LaneOccupancy {
                filled: 512,
                capacity: 512,
                blocks: 1,
                width: 512,
            }
        );
    }

    #[test]
    fn serial_fallback_is_bit_identical_to_the_fanned_out_grid() {
        let cfg = config();
        let scenarios = mixed_scenarios();
        // Size the grid to sit just under the default threshold: the
        // plain engine takes the serial path, forcing the threshold to 0
        // fans the same grid out. Both backends must agree bit for bit.
        let trials = (DEFAULT_SERIAL_THRESHOLD / scenarios.len() as u64) as u32;
        assert!(trials >= 1, "universe outgrew the default threshold");
        let campaign = CampaignConfig {
            cycles: 12,
            trials,
            seed: 77,
            write_fraction: 0.1,
        };
        for sliced in [false, true] {
            let serial = CampaignEngine::new(campaign)
                .sliced(sliced)
                .run_scenarios(&cfg, &scenarios);
            let fanned = CampaignEngine::new(campaign)
                .sliced(sliced)
                .serial_threshold(0)
                .threads(4)
                .run_scenarios(&cfg, &scenarios);
            assert_eq!(
                serial.determinism_profile(),
                fanned.determinism_profile(),
                "sliced={sliced}"
            );
        }
        // Just past the threshold the engine fans out again: identical
        // results either way, the threshold is scheduling only.
        let over = CampaignConfig {
            trials: 300,
            ..campaign
        };
        let a = CampaignEngine::new(over).run_scenarios(&cfg, &scenarios);
        let b = CampaignEngine::new(over)
            .serial_threshold(u64::MAX)
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(a.determinism_profile(), b.determinism_profile());
    }

    #[test]
    fn sliced_engine_preserves_scenario_order_and_scrub_contract() {
        let cfg = config();
        let scenarios = mixed_scenarios();
        let campaign = CampaignConfig {
            cycles: 16,
            trials: 6,
            seed: 5150,
            write_fraction: 0.1,
        };
        let result = CampaignEngine::new(campaign)
            .sliced(true)
            .scrub(4)
            .run_scenarios(&cfg, &scenarios);
        for (scenario, fr) in scenarios.iter().zip(&result.per_fault) {
            assert_eq!(fr.site, scenario.site, "per_fault order broken");
            assert_eq!(fr.process, scenario.process, "per_fault order broken");
            assert_eq!(fr.trials, campaign.trials);
        }
        // Scrubbing is part of the shared stream: results must still be
        // lane-width invariant under it.
        let narrow = CampaignEngine::new(campaign)
            .sliced(true)
            .scrub(4)
            .lane_width(8)
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(result.determinism_profile(), narrow.determinism_profile());
    }

    mod trace_props {
        use super::*;
        use crate::fault::{CellRef, CouplingKind};
        use proptest::prelude::*;

        /// Scenario `i` of a random universe: `kind` picks the process
        /// class, `a`/`b` its site and timing.
        fn scenario(cfg: &RamConfig, i: usize, kind: u8, a: u64, b: u64) -> FaultScenario {
            let org = cfg.org();
            let rows = org.rows() as usize;
            let cols = org.physical_cols() as usize;
            let cell = |k: u64| (k as usize % rows, (k as usize / rows) % cols);
            let (row, col) = cell(a);
            let site = FaultSite::Cell {
                row,
                col,
                stuck: b % 2 == 1,
            };
            match kind {
                0 => FaultScenario {
                    site: row_faults()[i % row_faults().len()],
                    process: FaultProcess::Permanent { onset: b % 4 },
                },
                1 => FaultScenario::transient(site, b % 10),
                2 => FaultScenario {
                    site,
                    process: FaultProcess::Intermittent {
                        onset: b % 5,
                        period: 2 + b % 4,
                        duty: 1,
                    },
                },
                _ => {
                    let (arow, acol) = cell(a + 1);
                    FaultScenario {
                        site,
                        process: FaultProcess::Coupling {
                            aggressor: CellRef {
                                row: arow,
                                col: acol,
                            },
                            kind: CouplingKind::Inversion,
                        },
                    }
                }
            }
        }

        /// The behavioural reference the trace must equal: every
        /// `(fault, trial)` cell measured one at a time on a prefilled
        /// behavioural backend with the shared-stream trial seeding,
        /// its events built by the trace's own cell builder.
        fn oracle(
            engine: &CampaignEngine,
            cfg: &RamConfig,
            scenarios: &[FaultScenario],
        ) -> Vec<Event> {
            let campaign = engine.campaign;
            let mut backend = BehavioralBackend::prefilled(cfg, engine.prefill_seed());
            let spec = engine.workload_spec(cfg);
            let sweep_len = engine.scrub_period * cfg.org().words();
            let mut events = Vec::new();
            for (fidx, scenario) in scenarios.iter().enumerate() {
                for trial in 0..campaign.trials {
                    backend.reset(Some(scenario));
                    let seed = shared_trial_seed(campaign.seed, trial);
                    let mut stream = engine.trial_stream(spec, seed);
                    let out = measure_detection_on(&mut backend, stream.as_mut(), campaign.cycles);
                    cell_events(scenario, fidx as u32, trial, &out, sweep_len, &mut events);
                }
            }
            events
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            // One estimator, two executors: the generic executor (the
            // behavioural backend, one scenario at a time) and the slab
            // executor must return the same counters on random small
            // campaigns mixing every process class, with the scrubber on
            // and off, at any lane width.
            #[test]
            fn both_executors_return_the_same_result(
                cycles in 1u64..200,
                trials in 1u32..5,
                seed in any::<u64>(),
                w in 0u32..17,
                scrub in 0u64..3,
                cells in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..24),
            ) {
                let campaign = CampaignConfig {
                    cycles,
                    trials,
                    seed,
                    write_fraction: f64::from(w) / 16.0,
                };
                let cfg = config();
                let scenarios: Vec<FaultScenario> = cells
                    .iter()
                    .enumerate()
                    .map(|(i, &(kind, a, b))| scenario(&cfg, i, kind, a, b))
                    .collect();
                let engine = CampaignEngine::new(campaign).scrub(scrub);
                let generic = engine.clone().sliced(false).run_scenarios(&cfg, &scenarios);
                for width in [1usize, 17, 512] {
                    let sliced = engine
                        .clone()
                        .sliced(true)
                        .lane_width(width)
                        .run_scenarios(&cfg, &scenarios);
                    prop_assert_eq!(
                        generic.determinism_profile(),
                        sliced.determinism_profile(),
                        "width {}",
                        width
                    );
                }
            }

            // The trace is derived from the slab executor's per-lane
            // outcomes, so it must equal the behavioural oracle on
            // random small campaigns mixing every process class, with
            // the scrubber on and off, at every lane width and thread
            // count (forced fan-out; threads = 1 keeps the serial
            // path). Its Detect / Escape events must also account for
            // exactly the result path's counters, fault by fault —
            // which catches a fault-index or lane-order slip the oracle
            // comparison alone could share.
            #[test]
            fn trace_matches_the_behavioural_oracle_and_the_result(
                cycles in 1u64..200,
                trials in 1u32..5,
                seed in any::<u64>(),
                w in 0u32..17,
                scrub in 0u64..3,
                cells in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..10),
            ) {
                let campaign = CampaignConfig {
                    cycles,
                    trials,
                    seed,
                    write_fraction: f64::from(w) / 16.0,
                };
                let cfg = config();
                let scenarios: Vec<FaultScenario> = cells
                    .iter()
                    .enumerate()
                    .map(|(i, &(kind, a, b))| scenario(&cfg, i, kind, a, b))
                    .collect();
                // On the 64-word test RAM a period-1 scrubber completes
                // a sweep every 64 cycles, so long horizons emit sweeps.
                let engine = CampaignEngine::new(campaign).scrub(scrub);
                let reference = oracle(&engine, &cfg, &scenarios);
                for width in [1usize, 17, 64, 512] {
                    for threads in [1usize, 2, 4] {
                        let trace = engine
                            .clone()
                            .lane_width(width)
                            .threads(threads)
                            .serial_threshold(if threads == 1 { DEFAULT_SERIAL_THRESHOLD } else { 0 })
                            .trace_scenarios(&cfg, &scenarios);
                        prop_assert_eq!(&trace, &reference, "width {} threads {}", width, threads);
                    }
                }
                let result = engine.sliced(true).run_scenarios(&cfg, &scenarios);
                for (fidx, fr) in result.per_fault.iter().enumerate() {
                    let mut detects = 0u32;
                    let mut escapes = 0u32;
                    let mut latency = 0u64;
                    for e in reference.iter().filter(|e| e.fault == fidx as u32) {
                        match e.kind {
                            EventKind::Detect { latency: l } => {
                                detects += 1;
                                latency += l;
                            }
                            EventKind::Escape => escapes += 1,
                            _ => {}
                        }
                    }
                    prop_assert_eq!(detects, fr.detected, "fault {} detects", fidx);
                    prop_assert_eq!(escapes, fr.error_escapes, "fault {} escapes", fidx);
                    prop_assert_eq!(latency, fr.onset_latency_sum, "fault {} latency", fidx);
                }
            }
        }
    }

    #[test]
    fn unsupported_fault_panics_with_backend_name() {
        let cfg = config();
        let backend = crate::backend::GateLevelBackend::try_new(&cfg).unwrap();
        let engine = CampaignEngine::new(CampaignConfig::default());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_on(
                &backend,
                &[FaultSite::Cell {
                    row: 0,
                    col: 0,
                    stuck: true,
                }],
            )
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("gate-level"), "{msg}");
    }
}
