//! The four workloads: their seed-generated inputs, their set-up, and
//! one timed pass each, driven through the same library entry points
//! the `scm campaign`, `scm campaign --metrics`, `scm fleet` and
//! `scm explore --guided --space million` subcommands call.

use crate::digest::{of_text, Fnv};
use scm_core::SelfCheckingRamBuilder;
use scm_explore::{
    Adjudication, Evaluator, ExplorationSpace, GuidedConfig, GuidedReport, GuidedSearch,
};
use scm_fleet::{FleetDriver, FleetOptions, FleetOutcome, FleetProgress, FleetSpec};
use scm_memory::campaign::{mixed_universe, CampaignConfig, CampaignResult};
use scm_memory::design::RamConfig;
use scm_memory::engine::CampaignEngine;
use scm_memory::fault::FaultScenario;
use scm_memory::report::summary;
use scm_obs::Metrics;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transient samples of the campaign universe: 356 permanent decoder
/// faults + 500 transient flips + 356 intermittent contacts = 1212
/// scenarios, two full 512-lane slab blocks plus a 188-lane partial one.
pub const CAMPAIGN_SAMPLES: usize = 500;
/// Trials per scenario in one campaign pass.
pub const CAMPAIGN_TRIALS: u32 = 16;
/// Latency budget `c` (cycles per trial) of the campaign workloads.
pub const CAMPAIGN_CYCLES: u64 = 32;
/// Scrub period of the campaign workloads (scrub is on).
pub const CAMPAIGN_SCRUB: u64 = 8;
/// Devices in one fleet pass (preset `mixed`, rescaled).
pub const FLEET_DEVICES: u64 = 400;
/// Fleet seeds one run cycles through, pass by pass. The fleet seed
/// fixes the triage dictionaries and every device's mission, and the
/// pass cost differs by up to ±13 % from one fleet seed to the next
/// (the same at 1600 devices as at 400, so it is not per-device noise
/// that more devices would average out); a run's figure spans eight.
pub const FLEET_INSTANCES: u64 = 8;
/// Checkpoint cadence of the fleet pass: four writes per pass.
pub const FLEET_CHECKPOINT_EVERY: u64 = 96;
/// Scenario-trial budget of one guided search.
pub const GUIDED_BUDGET: u64 = 50_000;
/// Full-fidelity trials per fault in guided adjudication (the CLI's).
pub const GUIDED_TRIALS: u32 = 64;
/// Fault cap per adjudicated point (the CLI's).
pub const GUIDED_MAX_FAULTS: usize = 64;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `CampaignEngine::run_scenarios`, sliced, on the mixed universe.
    CampaignMix,
    /// `FleetDriver::run` on preset `mixed` with checkpoints.
    FleetMixed,
    /// `GuidedSearch::run` over the million-point grid.
    GuidedMillion,
    /// The campaign plus the `--metrics` trace replay and fold.
    CampaignObserved,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CampaignMix,
        Workload::FleetMixed,
        Workload::GuidedMillion,
        Workload::CampaignObserved,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignMix => "campaign-mix",
            Workload::FleetMixed => "fleet-mixed",
            Workload::GuidedMillion => "guided-million",
            Workload::CampaignObserved => "campaign-observed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one unit of `throughput_*` counts.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::FleetMixed => "devices",
            Workload::GuidedMillion => "spent scenario-trials",
            _ => "scenario-trials",
        }
    }
}

/// SplitMix64: every library seed is drawn from the benchmark seed
/// through this, one domain tag per input.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The outcome of one pass: units of work done and the digest of the
/// result the pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassOutput {
    /// Work completed, in the workload's unit.
    pub work: u64,
    /// FNV-1a digest of the pass's result.
    pub digest: u64,
}

/// What one pass returned, kept whole so that digesting it happens
/// after the pass's timer stops.
#[derive(Debug)]
pub enum PassResult {
    /// A campaign result, plus the metrics registry when observed.
    Campaign(CampaignResult, Option<Metrics>),
    /// A completed fleet.
    Fleet(FleetOutcome),
    /// A guided search.
    Guided(GuidedReport),
}

impl PassResult {
    /// Work done (scenario-trials run, devices simulated, budget spent)
    /// and the result digest.
    pub fn output(&self) -> PassOutput {
        match self {
            PassResult::Campaign(result, metrics) => {
                let mut h = Fnv::default();
                h.u64(campaign_digest(result));
                if let Some(metrics) = metrics {
                    h.u64(metrics_digest(metrics));
                }
                PassOutput {
                    work: result.per_fault.iter().map(|f| f.trials as u64).sum(),
                    digest: h.finish(),
                }
            }
            PassResult::Fleet(outcome) => PassOutput {
                work: outcome.devices,
                digest: of_text(&scm_fleet::fleet_report(outcome)),
            },
            PassResult::Guided(report) => PassOutput {
                work: report.spent,
                digest: guided_digest(report),
            },
        }
    }
}

/// The paper's worked example campaign: a 1K×16 RAM (3-out-of-5 code,
/// a = 9) under the mixed temporal universe.
#[derive(Debug)]
pub struct CampaignInputs {
    /// The simulated RAM.
    pub config: RamConfig,
    /// The scenario universe.
    pub scenarios: Vec<FaultScenario>,
    /// Campaign parameters (seeded from the benchmark seed).
    pub campaign: CampaignConfig,
    /// Whether each pass also replays the trace and folds the metrics.
    pub observed: bool,
}

impl CampaignInputs {
    /// Build the design and the universe.
    pub fn generate(seed: u64, observed: bool) -> Result<CampaignInputs, String> {
        let design = SelfCheckingRamBuilder::new(1024, 16)
            .mux_factor(8)
            .latency_budget(10, 1e-9)
            .map_err(|e| e.to_string())?
            .build()
            .map_err(|e| e.to_string())?;
        let scenarios = mixed_universe(
            design.config(),
            CAMPAIGN_SAMPLES,
            CAMPAIGN_CYCLES,
            derive_seed(seed, 1),
        );
        Ok(CampaignInputs {
            config: design.config().clone(),
            scenarios,
            campaign: CampaignConfig {
                cycles: CAMPAIGN_CYCLES,
                trials: CAMPAIGN_TRIALS,
                seed: derive_seed(seed, 2),
                write_fraction: 0.1,
            },
            observed,
        })
    }

    /// The engine a pass runs on, pinned to `threads`.
    pub fn engine(&self, threads: usize) -> CampaignEngine {
        CampaignEngine::new(self.campaign)
            .threads(threads)
            .scrub(CAMPAIGN_SCRUB)
            .sliced(true)
    }
}

/// Digest of a campaign result: the CLI's summary text plus every
/// per-scenario counter.
pub fn campaign_digest(result: &CampaignResult) -> u64 {
    let mut h = Fnv::default();
    h.text(&summary(result));
    h.text(&format!("{:?}", result.determinism_profile()));
    h.finish()
}

/// Digest of the `--metrics` registry.
pub fn metrics_digest(metrics: &Metrics) -> u64 {
    of_text(&metrics.render_json())
}

/// Preset `mixed`, rescaled, with a checkpoint file in a directory the
/// benchmark owns.
#[derive(Debug)]
pub struct FleetInputs {
    /// The fleet.
    pub spec: FleetSpec,
    /// Fleet seed (seeded from the benchmark seed).
    pub seed: u64,
    /// Where the pass's checkpoints go.
    pub checkpoint: PathBuf,
    /// The scratch directory holding it (shared by a run's instances).
    pub dir: Arc<ScratchDir>,
}

impl FleetInputs {
    /// Instance `instance` of the fleet inputs of benchmark seed `seed`,
    /// checkpointing into `dir`.
    pub fn generate(
        seed: u64,
        instance: u64,
        dir: &Arc<ScratchDir>,
    ) -> Result<FleetInputs, String> {
        let spec = FleetSpec::preset("mixed")
            .ok_or("preset 'mixed' is missing")?
            .with_devices(FLEET_DEVICES);
        spec.validate()?;
        Ok(FleetInputs {
            spec,
            seed: derive_seed(seed, 0x100 + instance),
            checkpoint: dir.path().join(format!("fleet-{instance}.ckpt")),
            dir: Arc::clone(dir),
        })
    }

    /// Driver options at `threads`, with or without checkpoint writes.
    pub fn options(&self, threads: usize, checkpoints: bool) -> FleetOptions {
        FleetOptions {
            seed: self.seed,
            threads,
            sliced: true,
            lane_width: 512,
            checkpoint_every: if checkpoints {
                FLEET_CHECKPOINT_EVERY
            } else {
                0
            },
            checkpoint: checkpoints.then(|| self.checkpoint.clone()),
            halt_after: None,
        }
    }

    /// A driver ready for one pass.
    pub fn driver(&self, threads: usize, checkpoints: bool) -> Result<FleetDriver, String> {
        FleetDriver::new(self.spec.clone(), self.options(threads, checkpoints))
    }
}

/// Run a fleet driver to completion.
pub fn fleet_pass(driver: &mut FleetDriver) -> Result<FleetOutcome, String> {
    match driver.run()? {
        FleetProgress::Completed(outcome) => Ok(outcome),
        FleetProgress::Halted { devices_done, .. } => {
            Err(format!("fleet halted after {devices_done} devices"))
        }
    }
}

/// Guided search over the million-point grid at the CLI's adjudication
/// settings.
#[derive(Debug)]
pub struct GuidedInputs {
    /// The design space.
    pub space: ExplorationSpace,
    /// Adjudication stage (seeded from the benchmark seed).
    pub adjudication: Adjudication,
    /// Search configuration (the CLI's, at a fixed budget).
    pub config: GuidedConfig,
}

impl GuidedInputs {
    /// Build the grid and the search configuration.
    pub fn generate(seed: u64) -> GuidedInputs {
        GuidedInputs {
            space: ExplorationSpace::million_grid(),
            adjudication: Adjudication {
                campaign: CampaignConfig {
                    cycles: 10, // overridden per point
                    trials: GUIDED_TRIALS,
                    seed: derive_seed(seed, 4),
                    write_fraction: 0.1,
                },
                max_faults: GUIDED_MAX_FAULTS,
                scrub_period: Adjudication::DEFAULT_SCRUB_PERIOD,
                sliced: true,
                lane_width: 512,
            },
            // The candidate sample keeps the CLI's default seed: which
            // points are drawn decides the search's cost by orders of
            // magnitude (some samples hold geometries whose screening
            // alone runs for minutes), so the benchmark seed varies the
            // campaigns' trial streams instead.
            config: GuidedConfig::with_budget(GUIDED_BUDGET),
        }
    }

    /// A fresh evaluator (cold memo and arena, as each CLI search has).
    pub fn evaluator(&self, threads: usize) -> Evaluator {
        Evaluator::default()
            .threads(threads)
            .adjudicate(self.adjudication)
    }
}

/// Digest of a guided report: rungs, spend and the front.
pub fn guided_digest(report: &GuidedReport) -> u64 {
    let mut text = format!(
        "{:?}\nspent {} exhaustive {} candidates {} infeasible {}\n",
        report.rungs, report.spent, report.exhaustive_cost, report.candidates, report.infeasible
    );
    for e in &report.front {
        let emp = e.empirical.as_ref();
        let _ = writeln!(
            text,
            "{} {} {:?} {:?}",
            e.point.label(),
            e.plan.code_name(),
            e.area_percent().to_bits(),
            emp.map(|m| (
                m.mean_escape.to_bits(),
                m.mean_latency.to_bits(),
                m.profile_digest
            )),
        );
    }
    of_text(&text)
}

/// The set-up state of one workload: everything built before the first
/// timed pass.
#[derive(Debug)]
pub enum Inputs {
    /// `campaign-mix` / `campaign-observed`.
    Campaign(CampaignInputs),
    /// `fleet-mixed`: [`FLEET_INSTANCES`] fleets.
    Fleet(Vec<FleetInputs>),
    /// `guided-million`.
    Guided(GuidedInputs),
}

impl Inputs {
    /// Generate the workload's inputs from the benchmark seed; a fleet
    /// checkpoints into `dir`, which the caller creates once per run so
    /// that timing the set-up does not time a directory creation.
    pub fn generate(
        workload: Workload,
        seed: u64,
        dir: &Arc<ScratchDir>,
    ) -> Result<Inputs, String> {
        Ok(match workload {
            Workload::CampaignMix => Inputs::Campaign(CampaignInputs::generate(seed, false)?),
            Workload::CampaignObserved => Inputs::Campaign(CampaignInputs::generate(seed, true)?),
            Workload::FleetMixed => Inputs::Fleet(
                (0..FLEET_INSTANCES)
                    .map(|i| FleetInputs::generate(seed, i, dir))
                    .collect::<Result<_, _>>()?,
            ),
            Workload::GuidedMillion => Inputs::Guided(GuidedInputs::generate(seed)),
        })
    }

    /// Digest of the generated inputs (the record's workload stamp).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        match self {
            Inputs::Campaign(c) => {
                h.text(&format!("{:?}", c.config));
                h.text(&format!("{:?}", c.scenarios));
                h.text(&format!("{:?} observed={}", c.campaign, c.observed));
                h.u64(CAMPAIGN_SCRUB);
            }
            Inputs::Fleet(fleets) => {
                for f in fleets {
                    h.text(&f.spec.to_text());
                    h.u64(f.seed).u64(FLEET_CHECKPOINT_EVERY);
                }
            }
            Inputs::Guided(g) => {
                h.u64(g.space.len() as u64);
                h.text(&format!("{:?}", g.space.point_at(0)));
                h.text(&format!("{:?}", g.space.point_at(g.space.len() - 1)));
                h.text(&format!("{:?}", g.adjudication));
                h.text(&format!("{:?}", g.config));
            }
        }
        h.finish()
    }

    /// One pass at `threads`: everything the subcommand does per run
    /// after its inputs exist. The fleet driver (whose construction
    /// builds the triage dictionaries) is single use and the evaluator's
    /// memo and arena are per-search state, so both are built inside
    /// the pass, as each CLI invocation builds them; the campaign
    /// engine is a plain configuration and builds its own op-stream
    /// arena in every `run_scenarios` call.
    pub fn pass(&self, threads: usize, instance: usize) -> Result<PassResult, String> {
        self.pass_spanned(threads, instance, &mut None)
    }

    /// How many input instances the workload cycles through (one
    /// expected digest each).
    pub fn instances(&self) -> usize {
        match self {
            Inputs::Fleet(fleets) => fleets.len(),
            _ => 1,
        }
    }

    /// [`Self::pass`], recording a [`Span`] around each public call it
    /// makes when `spans` is given.
    pub fn pass_spanned(
        &self,
        threads: usize,
        instance: usize,
        spans: &mut Option<&mut Vec<Span>>,
    ) -> Result<PassResult, String> {
        match self {
            Inputs::Campaign(c) => {
                let engine = c.engine(threads);
                let result = span(spans, "memory", "CampaignEngine::run_scenarios", || {
                    engine.run_scenarios(&c.config, &c.scenarios)
                });
                let metrics = c.observed.then(|| {
                    let events = span(spans, "obs", "CampaignEngine::trace_scenarios", || {
                        engine.trace_scenarios(&c.config, &c.scenarios)
                    });
                    span(spans, "obs", "Metrics::from_events", || {
                        Metrics::from_events(&events)
                    })
                });
                Ok(PassResult::Campaign(result, metrics))
            }
            Inputs::Fleet(fleets) => {
                let f = &fleets[instance % fleets.len()];
                let mut driver = span(spans, "fleet", "FleetDriver::new", || {
                    f.driver(threads, true)
                })?;
                span(spans, "fleet", "FleetDriver::run", || {
                    fleet_pass(&mut driver)
                })
                .map(PassResult::Fleet)
            }
            Inputs::Guided(g) => {
                let evaluator = span(spans, "explore", "Evaluator::adjudicate", || {
                    g.evaluator(threads)
                });
                span(spans, "explore", "GuidedSearch::run", || {
                    GuidedSearch::new(&evaluator, g.config.clone()).run(&g.space)
                })
                .map(PassResult::Guided)
                .map_err(|e| e.to_string())
            }
        }
    }
}

/// The wall time of one public library call made by a pass.
#[derive(Debug, Clone)]
pub struct Span {
    /// The crate the call enters (`memory`, `obs`, `fleet`, `explore`).
    pub layer: &'static str,
    /// The call.
    pub call: &'static str,
    /// Its wall time.
    pub elapsed: Duration,
}

fn span<T>(
    spans: &mut Option<&mut Vec<Span>>,
    layer: &'static str,
    call: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        None => f(),
        Some(spans) => {
            let start = Instant::now();
            let out = f();
            spans.push(Span {
                layer,
                call,
                elapsed: start.elapsed(),
            });
            out
        }
    }
}

/// A directory under the benchmark's own `out/` tree, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `out/tmp/<label>-<pid>-<n>` next to the benchmark's manifest.
    pub fn create(label: &str) -> Result<ScratchDir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create '{}': {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The benchmark's output tree (records and scratch files), inside the
/// checkout it was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
