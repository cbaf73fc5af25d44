//! The traced run: one span around each public call into each layer
//! (`memory`, `system`, `diag`, `fleet`, `explore`, `obs`, `rayon`),
//! priced per unit of work, plus the accounting that checks how much of
//! the chosen workload's pass those layer costs explain.
//!
//! Spans live in this benchmark, around library calls; spans inside the
//! library are not assumed. A layer's cost inside a pass is therefore
//! modelled as unit cost × the pass's exact count of that unit, and
//! `accounted_fraction` is the modelled sum over the measured pass wall.

use crate::bench::{timed, Check, MIN_ROUNDS};
use crate::stats::median;
use crate::workload::{
    CampaignInputs, FleetInputs, GuidedInputs, Inputs, ScratchDir, Span, Workload, CAMPAIGN_SCRUB,
    FLEET_CHECKPOINT_EVERY,
};
use rayon::prelude::*;
use scm_diag::{cell_universe, FaultDictionary};
use scm_explore::{pareto_front, Evaluation, Evaluator, GuidedReport, GuidedSearch};
use scm_fleet::{device_seed, simulate_device, FleetDriver, FleetOptions, FleetProgress};
use scm_memory::arena::{OpStreamArena, ReplayOps};
use scm_memory::backend::{BehavioralBackend, FaultSimBackend};
use scm_memory::campaign::{decoder_fault_universe, CampaignConfig};
use scm_memory::design::RamConfig;
use scm_memory::fault::{FaultScenario, FaultSite};
use scm_memory::sliced::{slab_words, SlicedBackend, MAX_SLAB_LANES};
use scm_memory::workload::{Op, OpSource, WorkloadSpec};
use scm_obs::{EventKind, Metrics};
use scm_system::{seed_mix, SeuProcess, SystemCampaign};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lane counts of the `memory.slab_op_ns.l*` ladder.
pub const SLAB_LANES: [usize; 4] = [512, 64, 8, 1];
/// Points per fidelity level priced by `explore.adjudicate_us_per_point`.
pub const ADJUDICATE_SAMPLE: usize = 16;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const METRICS: [(&str, &str); 37] = [
    ("memory.slab_op_ns.l512", "ns"),
    ("memory.slab_op_ns.l64", "ns"),
    ("memory.slab_op_ns.l8", "ns"),
    ("memory.slab_op_ns.l1", "ns"),
    ("memory.behavioral_op_ns", "ns"),
    ("memory.opgen_ns_per_op", "ns"),
    ("memory.replay_ns_per_op", "ns"),
    ("memory.arena_streams", "count"),
    ("memory.arena_bytes", "bytes"),
    ("memory.lanes_filled", "count"),
    ("memory.lane_capacity", "count"),
    ("memory.blocks", "count"),
    ("memory.campaign_pass_ms", "ms"),
    ("system.run_ms", "ms"),
    ("system.cells", "count"),
    ("diag.dictionary_build_ms", "ms"),
    ("diag.dictionary_sites", "count"),
    ("fleet.device_us", "us"),
    ("fleet.devices", "count"),
    ("fleet.parallel_efficiency_2t", "ratio"),
    ("fleet.checkpoint_write_ms", "ms"),
    ("fleet.checkpoint_writes", "count"),
    ("fleet.checkpoint_bytes", "bytes"),
    ("explore.screen_ms", "ms"),
    ("explore.adjudicate_us_per_point", "us"),
    ("explore.memo_hits", "count"),
    ("explore.memo_misses", "count"),
    ("explore.budget_spent", "count"),
    ("explore.pareto_ms", "ms"),
    ("obs.replay_ms", "ms"),
    ("obs.events", "count"),
    ("obs.metrics_fold_ms", "ms"),
    ("obs.replay_ratio", "ratio"),
    ("rayon.pool_build_us", "us"),
    ("rayon.par_wave_us", "us"),
    ("accounted_fraction", "ratio"),
    ("trace_overhead", "ratio"),
];

/// The fastest of `samples` seconds: one value per round, so the
/// round least disturbed by the host's slow phases.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn highest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Time `f` at least `min_reps` times and until `budget` has passed
/// (at most `max_reps`); seconds per call.
fn reps(min_reps: usize, max_reps: usize, budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || (start.elapsed() < budget && out.len() < max_reps) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// Time each micro-item gets per round.
const REP_BUDGET: Duration = Duration::from_millis(30);

/// The exact per-layer counts: results of the runs, never of their
/// timing, so they repeat exactly and are equal at any thread count.
#[derive(Debug, Clone)]
pub struct Counts {
    /// Count metrics by name.
    pub values: BTreeMap<&'static str, u64>,
    /// The guided search the explore counts came from.
    pub guided: GuidedReport,
}

fn arena_streams(c: &CampaignInputs) -> (OpStreamArena, Vec<Arc<Vec<Op>>>) {
    let org = c.config.org();
    let spec = WorkloadSpec {
        words: org.words(),
        word_bits: org.word_bits(),
        write_fraction: c.campaign.write_fraction,
    };
    let arena = OpStreamArena::new();
    let streams = arena.prepare(
        c.engine(1).model(),
        spec,
        c.campaign.seed,
        CAMPAIGN_SCRUB,
        c.campaign.trials,
        c.campaign.cycles,
    );
    (arena, streams)
}

/// The candidate sites of a fleet cohort's triage dictionary, as the
/// driver assembles them (bank-0 cells plus row-decoder faults).
fn dictionary_candidates(config: &RamConfig) -> Vec<FaultSite> {
    let mut candidates = cell_universe(config);
    candidates.extend(
        decoder_fault_universe(config.org().row_bits())
            .into_iter()
            .map(FaultSite::RowDecoder),
    );
    candidates
}

/// A system campaign exactly as `simulate_device` builds it, with its
/// SEU universe.
fn device_system(
    f: &FleetInputs,
    cohort_index: usize,
    device: u64,
) -> (SystemCampaign, Vec<scm_system::SystemFault>) {
    let cohort = &f.spec.cohorts[cohort_index];
    let campaign = CampaignConfig {
        cycles: cohort.horizon,
        trials: 1,
        seed: device_seed(f.seed, cohort_index, device),
        write_fraction: cohort.write_fraction(),
    };
    let engine = SystemCampaign::new(cohort.system_config(), campaign)
        .sliced(true)
        .lane_width(MAX_SLAB_LANES)
        .serial_threshold(u64::MAX)
        .workload_model(cohort.workload_model());
    let universe = engine.seu_universe(
        cohort.arrivals_per_bank as usize,
        &SeuProcess::new(cohort.seu_mean_cycles as f64),
    );
    (engine, universe)
}

fn devices(f: &FleetInputs) -> impl Iterator<Item = (usize, u64)> + '_ {
    f.spec
        .cohorts
        .iter()
        .enumerate()
        .flat_map(|(i, c)| (0..c.devices).map(move |d| (i, d)))
}

fn checkpoint_writes(driver: &FleetDriver) -> u64 {
    driver
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CheckpointWrite { .. }))
        .count() as u64
}

/// Compute every count metric of the traced run, running the engines
/// at `threads`. The memo counters are defined at one thread (the
/// memo's hit/miss split races at more), so they always come from a
/// one-thread search.
pub fn layer_counts(seed: u64, threads: usize) -> Result<Counts, String> {
    let mut values = BTreeMap::new();
    let c = CampaignInputs::generate(seed, false)?;
    let (arena, streams) = arena_streams(&c);
    values.insert("memory.arena_streams", arena.generated_streams());
    let ops: usize = streams.iter().map(|s| s.len()).sum();
    values.insert(
        "memory.arena_bytes",
        (ops * std::mem::size_of::<Op>()) as u64,
    );
    let occupancy = c.engine(threads).occupancy(c.scenarios.len());
    values.insert("memory.lanes_filled", occupancy.filled as u64);
    values.insert("memory.lane_capacity", occupancy.capacity as u64);
    values.insert("memory.blocks", occupancy.blocks as u64);
    let events = c.engine(threads).trace_scenarios(&c.config, &c.scenarios);
    values.insert("obs.events", events.len() as u64);

    let f = FleetInputs::generate(seed, 0, &Arc::new(ScratchDir::create("fleet")?))?;
    let cells: usize = devices(&f)
        .map(|(i, d)| device_system(&f, i, d).1.len())
        .sum();
    values.insert("system.cells", cells as u64);
    let sites: usize = f
        .spec
        .cohorts
        .iter()
        .filter(|c| c.hard_ppm > 0)
        .map(|c| dictionary_candidates(&c.banks[0].ram_config()).len())
        .sum();
    values.insert("diag.dictionary_sites", sites as u64);
    values.insert("fleet.devices", f.spec.total_devices());
    let mut driver = f.driver(threads, true)?;
    crate::workload::fleet_pass(&mut driver)?;
    values.insert("fleet.checkpoint_writes", checkpoint_writes(&driver));
    let mut halting = FleetDriver::new(
        f.spec.clone(),
        FleetOptions {
            halt_after: Some(FLEET_CHECKPOINT_EVERY),
            ..f.options(threads, true)
        },
    )?;
    let FleetProgress::Halted { checkpoint, .. } = halting.run()? else {
        return Err("the halting fleet run completed instead of halting".to_owned());
    };
    let bytes = std::fs::metadata(&checkpoint)
        .map_err(|e| format!("cannot stat '{}': {e}", checkpoint.display()))?
        .len();
    values.insert("fleet.checkpoint_bytes", bytes);
    let _ = std::fs::remove_file(&checkpoint);

    let g = GuidedInputs::generate(seed);
    let search = |threads: usize| -> Result<(GuidedReport, Evaluator), String> {
        let evaluator = g.evaluator(threads);
        let report = GuidedSearch::new(&evaluator, g.config.clone())
            .run(&g.space)
            .map_err(|e| e.to_string())?;
        Ok((report, evaluator))
    };
    let (guided, evaluator) = search(threads)?;
    values.insert("explore.budget_spent", guided.spent);
    let memo = if threads == 1 {
        evaluator.cache_stats()
    } else {
        search(1)?.1.cache_stats()
    };
    values.insert("explore.memo_hits", memo.hits() as u64);
    values.insert("explore.memo_misses", memo.misses() as u64);
    Ok(Counts { values, guided })
}

/// One span of the workload's pass with the layer costs priced inside
/// it.
#[derive(Debug, Clone)]
pub struct SpanAccount {
    /// `layer/call` of the span.
    pub span: String,
    /// Its wall time (fastest passes), seconds.
    pub wall: f64,
    /// Priced layer costs inside it, seconds.
    pub priced: Vec<(&'static str, f64)>,
}

/// What the traced run measured.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Every per-layer metric by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload pass's spans with their priced layers.
    pub accounts: Vec<SpanAccount>,
    /// Wall time of the traced pass (fastest passes), seconds.
    pub pass_wall: f64,
    /// Ladder rounds run.
    pub rounds: usize,
    /// Digest of the workload's inputs.
    pub input_digest: u64,
    /// Correctness of the workload's passes.
    pub check: Check,
}

/// Seconds per unit of each ladder item, one value per round.
type Samples = BTreeMap<String, Vec<f64>>;

/// Record one round's value of `key`: the median of the round's burst.
/// Every item, and the workload's pass, gets exactly one value per
/// round, so the fastest-rounds estimate has the same sample count for
/// all of them and the accounting compares like with like.
fn push(samples: &mut Samples, key: &str, values: impl IntoIterator<Item = f64>) {
    let values: Vec<f64> = values.into_iter().collect();
    let value = median(&values).expect("every burst has a sample");
    samples.entry(key.to_owned()).or_default().push(value);
}

/// Per-op `SlicedBackend::step` samples for one lane block, at the
/// narrowest slab that fits it (as the engine runs it).
fn slab_samples_w<const W: usize>(
    config: &RamConfig,
    chunk: &[FaultScenario],
    streams: &[Arc<Vec<Op>>],
    prefill: u64,
) -> Vec<f64> {
    let mut backend = SlicedBackend::<W>::prefilled(config, chunk, prefill);
    let ops: usize = streams.iter().map(|s| s.len()).sum();
    reps(3, 200, REP_BUDGET, || {
        for stream in streams {
            backend.reset();
            for &op in stream.iter() {
                black_box(backend.step(op));
            }
        }
    })
    .into_iter()
    .map(|s| s / ops as f64)
    .collect()
}

fn slab_samples(
    config: &RamConfig,
    chunk: &[FaultScenario],
    streams: &[Arc<Vec<Op>>],
    prefill: u64,
) -> Vec<f64> {
    match slab_words(chunk.len()) {
        1 => slab_samples_w::<1>(config, chunk, streams, prefill),
        2 => slab_samples_w::<2>(config, chunk, streams, prefill),
        3 => slab_samples_w::<3>(config, chunk, streams, prefill),
        4 => slab_samples_w::<4>(config, chunk, streams, prefill),
        5 => slab_samples_w::<5>(config, chunk, streams, prefill),
        6 => slab_samples_w::<6>(config, chunk, streams, prefill),
        7 => slab_samples_w::<7>(config, chunk, streams, prefill),
        _ => slab_samples_w::<8>(config, chunk, streams, prefill),
    }
}

/// Everything the ladder times, built once and untimed.
struct Ladder {
    campaign: CampaignInputs,
    streams: Vec<Arc<Vec<Op>>>,
    fleet: FleetInputs,
    dictionaries: Vec<Option<FaultDictionary>>,
    systems: Vec<(SystemCampaign, Vec<scm_system::SystemFault>)>,
    dense_writes: u64,
    guided: GuidedInputs,
    candidates: Vec<scm_explore::DesignPoint>,
    evaluations: Vec<Evaluation>,
    levels: Vec<u32>,
    pool: rayon::ThreadPool,
}

fn two_thread_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("thread pool construction is infallible")
}

/// A fleet run on a driver built untimed, timed alone.
fn fleet_run_s(f: &FleetInputs, options: FleetOptions) -> Result<f64, String> {
    let mut driver = FleetDriver::new(f.spec.clone(), options)?;
    let (out, elapsed) = timed(|| driver.run());
    out?;
    Ok(elapsed.as_secs_f64())
}

/// Checkpoint after every chunk: the run the write cost is read from.
fn dense_checkpoints(f: &FleetInputs) -> FleetOptions {
    FleetOptions {
        checkpoint_every: scm_fleet::CHUNK_DEVICES,
        ..f.options(1, true)
    }
}

impl Ladder {
    fn new(seed: u64, counts: &Counts) -> Result<Ladder, String> {
        let campaign = CampaignInputs::generate(seed, false)?;
        let (_, streams) = arena_streams(&campaign);
        let fleet = FleetInputs::generate(seed, 0, &Arc::new(ScratchDir::create("fleet")?))?;
        let dictionaries = fleet
            .spec
            .cohorts
            .iter()
            .enumerate()
            .map(|(i, cohort)| (cohort.hard_ppm > 0).then(|| build_dictionary(&fleet, i)))
            .collect();
        let systems = devices(&fleet)
            .map(|(i, d)| device_system(&fleet, i, d))
            .collect();
        let mut probe = FleetDriver::new(fleet.spec.clone(), dense_checkpoints(&fleet))?;
        crate::workload::fleet_pass(&mut probe)?;
        let dense_writes = checkpoint_writes(&probe);
        let guided = GuidedInputs::generate(seed);
        let candidates = guided
            .space
            .sample_stratified(guided.config.population, guided.config.seed);
        let evaluations = Evaluator::default()
            .threads(1)
            .evaluate_points(&candidates)
            .into_iter()
            .filter_map(Result::ok)
            .collect();
        let mut levels: Vec<u32> = counts.guided.rungs.iter().map(|r| r.trials).collect();
        levels.sort_unstable();
        levels.dedup();
        Ok(Ladder {
            campaign,
            streams,
            fleet,
            dictionaries,
            systems,
            dense_writes,
            guided,
            candidates,
            evaluations,
            levels,
            pool: two_thread_pool(),
        })
    }

    fn ops_per_pass(&self) -> usize {
        self.streams.iter().map(|s| s.len()).sum()
    }

    /// One sample (or one short burst) of every ladder item.
    fn round(&self, s: &mut Samples) -> Result<(), String> {
        let c = &self.campaign;
        let ops = self.ops_per_pass() as f64;
        let prefill = prefill_seed(c);
        push(
            s,
            "memory.opgen",
            reps(3, 100, REP_BUDGET, || {
                black_box(arena_streams(c));
            })
            .into_iter()
            .map(|t| t / ops),
        );
        push(
            s,
            "memory.replay",
            reps(3, 1000, REP_BUDGET, || {
                for stream in &self.streams {
                    let mut cursor = ReplayOps::new(stream);
                    for _ in 0..stream.len() {
                        black_box(cursor.next_op());
                    }
                }
            })
            .into_iter()
            .map(|t| t / ops),
        );
        for lanes in SLAB_LANES {
            let chunk = &c.scenarios[..lanes.min(c.scenarios.len())];
            push(
                s,
                &format!("memory.slab.l{lanes}"),
                slab_samples(&c.config, chunk, &self.streams, prefill),
            );
        }
        for (i, chunk) in c.scenarios.chunks(MAX_SLAB_LANES).enumerate() {
            push(
                s,
                &format!("memory.block{i}"),
                slab_samples(&c.config, chunk, &self.streams, prefill),
            );
        }
        let mut behavioral = BehavioralBackend::prefilled(&c.config, prefill);
        push(
            s,
            "memory.behavioral",
            reps(3, 200, REP_BUDGET, || {
                for stream in &self.streams {
                    behavioral.reset(Some(&c.scenarios[0]));
                    for &op in stream.iter() {
                        black_box(behavioral.step(op));
                    }
                }
            })
            .into_iter()
            .map(|t| t / ops),
        );
        let engine = c.engine(1);
        push(
            s,
            "memory.campaign_pass",
            reps(3, 50, REP_BUDGET, || {
                black_box(engine.run_scenarios(&c.config, &c.scenarios));
            }),
        );
        let (events, replay) = timed(|| engine.trace_scenarios(&c.config, &c.scenarios));
        push(s, "obs.replay", [replay.as_secs_f64()]);
        push(
            s,
            "obs.fold",
            reps(3, 20, REP_BUDGET, || {
                black_box(Metrics::from_events(&events));
            }),
        );

        let f = &self.fleet;
        let dictionaries: f64 = (0..f.spec.cohorts.len())
            .filter(|&i| self.dictionaries[i].is_some())
            .map(|i| timed(|| build_dictionary(f, i)).1.as_secs_f64())
            .sum();
        push(s, "diag.dictionaries", [dictionaries]);
        let (_, system) = timed(|| {
            for (engine, universe) in &self.systems {
                black_box(engine.run(universe));
            }
        });
        push(s, "system.sweep", [system.as_secs_f64()]);
        let (_, device) = timed(|| {
            for (i, d) in devices(f) {
                black_box(simulate_device(
                    &f.spec.cohorts[i],
                    i,
                    d,
                    f.seed,
                    true,
                    MAX_SLAB_LANES,
                    self.dictionaries[i].as_ref(),
                ));
            }
        });
        push(s, "fleet.sweep", [device.as_secs_f64()]);
        push(s, "fleet.run_2t", [fleet_run_s(f, f.options(2, true))?]);
        push(s, "fleet.dense", [fleet_run_s(f, dense_checkpoints(f))?]);
        push(s, "fleet.none", [fleet_run_s(f, f.options(1, false))?]);

        let g = &self.guided;
        let (_, screen) = timed(|| {
            black_box(
                Evaluator::default()
                    .threads(1)
                    .evaluate_points(&self.candidates),
            )
        });
        push(s, "explore.screen", [screen.as_secs_f64()]);
        push(
            s,
            "explore.pareto",
            reps(3, 1000, REP_BUDGET, || {
                black_box(pareto_front(&self.evaluations));
            }),
        );
        // Per-point adjudication at each rung's fidelity, on points
        // spread evenly over the screened candidates. The first call
        // warms the evaluator's memo and arena, as the search's screen
        // and lower rungs have warmed them; the second is timed.
        let stride = (self.evaluations.len() / ADJUDICATE_SAMPLE).max(1);
        let sample: Vec<_> = self
            .evaluations
            .iter()
            .step_by(stride)
            .take(ADJUDICATE_SAMPLE)
            .map(|e| e.point.clone())
            .collect();
        for &trials in &self.levels {
            let evaluator = g.evaluator(1);
            let warm = evaluator.evaluate_points_at_fidelity(&sample, Some(trials));
            if let Some(Err(e)) = warm.into_iter().find(Result::is_err) {
                return Err(e.to_string());
            }
            let (_, elapsed) =
                timed(|| black_box(evaluator.evaluate_points_at_fidelity(&sample, Some(trials))));
            push(
                s,
                &format!("explore.adjudicate.t{trials}"),
                [elapsed.as_secs_f64() / sample.len() as f64],
            );
        }

        push(
            s,
            "rayon.pool_build",
            reps(50, 2000, REP_BUDGET, || {
                two_thread_pool().install(|| black_box(()));
            }),
        );
        let items = [0u64; 8];
        push(
            s,
            "rayon.par_wave",
            reps(50, 2000, REP_BUDGET, || {
                black_box(self.pool.install(|| {
                    items
                        .par_iter()
                        .map(|x| black_box(*x))
                        .collect::<Vec<u64>>()
                }));
            }),
        );
        Ok(())
    }
}

/// A cohort's triage dictionary, built as the fleet driver builds it
/// (single thread, full slab width).
fn build_dictionary(f: &FleetInputs, cohort: usize) -> FaultDictionary {
    let spec = &f.spec.cohorts[cohort];
    let config = spec.banks[0].ram_config();
    FaultDictionary::build_sliced(
        &config,
        &spec.march_test(),
        seed_mix(f.seed ^ 0xF1EE_D1C7, &[cohort as u64]),
        &dictionary_candidates(&config),
        1,
        MAX_SLAB_LANES,
    )
}

/// Prefill seed the campaign engine gives its backends.
fn prefill_seed(c: &CampaignInputs) -> u64 {
    c.campaign.seed ^ 0xF1E1D1
}

/// The traced run of `workload`: the layer counts, then rounds of one
/// ladder sample per layer item plus one spanned and one plain 1-thread
/// pass of the workload, until `window` has passed (at least three rounds),
/// every pass checked. Interleaving the ladder with the passes puts
/// both in the same slow and fast phases of the host, so the
/// accounting divides like by like.
pub fn measure_traced(
    workload: Workload,
    seed: u64,
    window: Duration,
    expected: Option<Vec<u64>>,
) -> Result<Traced, String> {
    let start = Instant::now();
    let counts = layer_counts(seed, 1)?;
    let ladder = Ladder::new(seed, &counts)?;
    let inputs = Inputs::generate(workload, seed, &Arc::new(ScratchDir::create("trace")?))?;
    let mut check = Check::new(inputs.instances(), expected);
    let mut samples = Samples::new();
    let mut traced_rates = Vec::new();
    let mut plain_rates = Vec::new();
    let mut walls = Vec::new();
    let mut span_walls: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < window {
        ladder.round(&mut samples)?;
        // A burst of spanned/plain pass pairs, reduced to its median
        // like every ladder item.
        let mut burst: Samples = Samples::new();
        let begun = Instant::now();
        while begun.elapsed() < REP_BUDGET || !burst.contains_key("wall") {
            let mut spans: Vec<Span> = Vec::new();
            let (out, elapsed) = timed(|| inputs.pass_spanned(1, 0, &mut Some(&mut spans)));
            let Some(out) = check.record(0, out.map(|r| r.output())) else {
                return Err(check
                    .first_failure
                    .clone()
                    .unwrap_or_else(|| "the traced pass failed".to_owned()));
            };
            let wall = elapsed.as_secs_f64();
            burst.entry("wall".to_owned()).or_default().push(wall);
            burst
                .entry("traced".to_owned())
                .or_default()
                .push(out.work as f64 / wall);
            for s in spans {
                let key = format!("{}/{}", s.layer, s.call);
                if !order.contains(&key) {
                    order.push(key.clone());
                }
                burst.entry(key).or_default().push(s.elapsed.as_secs_f64());
            }
            let (out, elapsed) = timed(|| inputs.pass(1, 0));
            if let Some(out) = check.record(0, out.map(|r| r.output())) {
                burst
                    .entry("plain".to_owned())
                    .or_default()
                    .push(out.work as f64 / elapsed.as_secs_f64());
            }
        }
        for (key, values) in burst {
            let target = match key.as_str() {
                "wall" => &mut walls,
                "traced" => &mut traced_rates,
                "plain" => &mut plain_rates,
                _ => span_walls.entry(key).or_default(),
            };
            target.push(median(&values).expect("bursts are never empty"));
        }
        rounds += 1;
    }

    let fast = |key: &str| fastest(&samples[key]);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (&name, &value) in &counts.values {
        m.insert(name, value as f64);
    }
    let ops = ladder.ops_per_pass() as f64;
    for (lanes, name) in SLAB_LANES.into_iter().zip([
        "memory.slab_op_ns.l512",
        "memory.slab_op_ns.l64",
        "memory.slab_op_ns.l8",
        "memory.slab_op_ns.l1",
    ]) {
        m.insert(name, fast(&format!("memory.slab.l{lanes}")) * 1e9);
    }
    m.insert("memory.behavioral_op_ns", fast("memory.behavioral") * 1e9);
    m.insert("memory.opgen_ns_per_op", fast("memory.opgen") * 1e9);
    m.insert("memory.replay_ns_per_op", fast("memory.replay") * 1e9);
    let campaign_pass = fast("memory.campaign_pass");
    m.insert("memory.campaign_pass_ms", campaign_pass * 1e3);
    m.insert("obs.replay_ms", fast("obs.replay") * 1e3);
    m.insert("obs.metrics_fold_ms", fast("obs.fold") * 1e3);
    m.insert("obs.replay_ratio", fast("obs.replay") / campaign_pass);
    m.insert("system.run_ms", fast("system.sweep") * 1e3);
    m.insert("diag.dictionary_build_ms", fast("diag.dictionaries") * 1e3);
    let device_sweep = fast("fleet.sweep");
    m.insert(
        "fleet.device_us",
        device_sweep / counts.values["fleet.devices"] as f64 * 1e6,
    );
    m.insert(
        "fleet.parallel_efficiency_2t",
        device_sweep / (2.0 * fast("fleet.run_2t")),
    );
    // Checkpoint cost: a run writing after every chunk against one that
    // never writes, divided by the writes.
    let write_s = (fast("fleet.dense") - fast("fleet.none")) / ladder.dense_writes as f64;
    m.insert("fleet.checkpoint_write_ms", write_s * 1e3);
    m.insert("explore.screen_ms", fast("explore.screen") * 1e3);
    m.insert("explore.pareto_ms", fast("explore.pareto") * 1e3);
    let rungs = &counts.guided.rungs;
    let adjudicate: f64 = rungs
        .iter()
        .map(|r| r.evaluated as f64 * fast(&format!("explore.adjudicate.t{}", r.trials)))
        .sum();
    let evaluated: usize = rungs.iter().map(|r| r.evaluated).sum();
    m.insert(
        "explore.adjudicate_us_per_point",
        adjudicate / evaluated.max(1) as f64 * 1e6,
    );
    let median_of = |key: &str| median(&samples[key]).expect("samples");
    m.insert("rayon.pool_build_us", median_of("rayon.pool_build") * 1e6);
    m.insert("rayon.par_wave_us", median_of("rayon.par_wave") * 1e6);

    // Layer costs priced inside each span of the workload's pass.
    let blocks: Vec<f64> = (0..ladder.campaign.scenarios.len().div_ceil(MAX_SLAB_LANES))
        .map(|i| fast(&format!("memory.block{i}")))
        .collect();
    let priced_for = |key: &str| -> Vec<(&'static str, f64)> {
        match key {
            "memory/CampaignEngine::run_scenarios" => vec![
                ("memory.opgen", fast("memory.opgen") * ops),
                ("memory.slab", blocks.iter().sum::<f64>() * ops),
                (
                    "memory.replay",
                    fast("memory.replay") * ops * blocks.len() as f64,
                ),
            ],
            "obs/CampaignEngine::trace_scenarios" => vec![("obs.replay", fast("obs.replay"))],
            "obs/Metrics::from_events" => vec![("obs.metrics_fold", fast("obs.fold"))],
            "fleet/FleetDriver::new" => {
                vec![("diag.dictionary_build", fast("diag.dictionaries"))]
            }
            "fleet/FleetDriver::run" => vec![
                ("system.run", fast("system.sweep")),
                ("fleet.device_self", device_sweep - fast("system.sweep")),
                (
                    "fleet.checkpoint_write",
                    write_s * counts.values["fleet.checkpoint_writes"] as f64,
                ),
            ],
            "explore/GuidedSearch::run" => vec![
                ("explore.screen", fast("explore.screen")),
                ("explore.adjudicate", adjudicate),
            ],
            _ => Vec::new(),
        }
    };
    let pass_wall = fastest(&walls);
    let accounts: Vec<SpanAccount> = order
        .iter()
        .map(|key| SpanAccount {
            span: key.clone(),
            wall: fastest(&span_walls[key]),
            priced: priced_for(key),
        })
        .collect();
    let priced: f64 = accounts
        .iter()
        .flat_map(|a| a.priced.iter().map(|(_, s)| s))
        .sum();
    m.insert("accounted_fraction", priced / pass_wall);
    let overhead = highest(&traced_rates) / highest(&plain_rates);
    m.insert("trace_overhead", overhead);
    debug_assert!(METRICS.iter().all(|(name, _)| m.contains_key(name)));
    Ok(Traced {
        metrics: m,
        accounts,
        pass_wall,
        rounds,
        input_digest: inputs.digest(),
        check,
    })
}

/// The accounting as text: each span of the pass, the layer costs
/// priced inside it, and the unpriced remainder it leaves.
pub fn render_accounts(traced: &Traced) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "accounting ({} rounds): pass wall {:.3} ms at 1 thread, accounted_fraction {:.3}",
        traced.rounds,
        traced.pass_wall * 1e3,
        traced.metrics["accounted_fraction"]
    );
    for a in &traced.accounts {
        let priced: f64 = a.priced.iter().map(|(_, s)| s).sum();
        let parts: Vec<String> = a
            .priced
            .iter()
            .map(|(name, s)| format!("{name} {:.3} ms", s * 1e3))
            .collect();
        let _ = writeln!(
            out,
            "  {:<40} {:>10.3} ms  priced {:>10.3} ms [{}]  unpriced {:>9.3} ms ({:.1} % of pass)",
            a.span,
            a.wall * 1e3,
            priced * 1e3,
            parts.join(", "),
            (a.wall - priced) * 1e3,
            (a.wall - priced) / traced.pass_wall * 100.0
        );
    }
    let spans: f64 = traced.accounts.iter().map(|a| a.wall).sum();
    let _ = writeln!(
        out,
        "  {:<40} {:>10.3} ms  (the pass's own glue and drops)",
        "outside any span",
        (traced.pass_wall - spans) * 1e3
    );
    out
}
