//! The `scm` command-line interface: every exploration-backed experiment
//! behind one binary.
//!
//! ```text
//! scm table1                      regenerate the paper's Table 1
//! scm table2                      regenerate the paper's Table 2
//! scm pareto [--policy P]         area-vs-latency sweep, CSV on stdout
//! scm ablations                   design-choice ablations
//! scm explore [options]           free design-space exploration
//! scm campaign [options]          fault campaign under a chosen workload
//! scm system [options]            sharded multi-bank system campaign
//! scm diag [options]              March BIST diagnosis + spare repair
//! scm fleet [options]             fleet-scale streaming campaign over cohorts
//! ```
//!
//! Subcommands are thin wrappers over `scm-explore`'s [`Evaluator`]; the
//! `table1`/`table2`/`pareto` stdout is byte-stable (pinned by
//! `tests/cli_fixtures.rs`) so recorded experiment outputs never drift
//! silently.

use scm_area::ram_area::paper_rams;
use scm_area::RamOrganization;
use scm_codes::mapping::MappingKind;
use scm_codes::selection::SelectionPolicy;
use scm_codes::{CodewordMap, MOutOfN};
use scm_core::SelfCheckingRamBuilder;
use scm_diag::{
    cell_universe, diag_report, run_session, DiagnosisCampaign, FaultDictionary, MarchTest,
    SpareBudget,
};
use scm_explore::{
    pareto_front, Adjudication, DesignPoint, Evaluator, ExplorationSpace, FaultMix, GuidedConfig,
    GuidedSearch, ScrubPolicy,
};
use scm_fleet::{FleetDriver, FleetOptions, FleetProgress, FleetSpec, PRESET_NAMES};
use scm_latency::distribution::analyze_decoder;
use scm_latency::goal::classify;
use scm_logic::stats::gate_stats;
use scm_logic::Netlist;
use scm_memory::campaign::{
    decoder_fault_universe, intermittent_universe, mixed_universe, transient_universe,
    CampaignConfig,
};
use scm_memory::design::RamConfig;
use scm_memory::engine::CampaignEngine;
use scm_memory::fault::{FaultScenario, FaultSite};
use scm_memory::report::{summary, worst_offenders};
use scm_memory::sliced::MAX_SLAB_LANES;
use scm_memory::workload::{model_by_name, MODEL_NAMES};
use scm_obs::{chrome_trace, parse_trace, trace_text, Event, Metrics, Profiler};
use scm_system::diag::{DiagCampaign, DiagPolicy};
use scm_system::{system_report, Interleaving, SeuProcess, SystemCampaign, SystemConfig};
use std::fmt::Write;

/// Run a parsed command line (program name stripped); returns the stdout
/// text to print. Errors carry a user-facing message (usage included for
/// unknown commands).
pub fn run(args: &[String]) -> Result<String, String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    let flags = Flags(&args[1..]);
    match command.as_str() {
        "table1" => {
            flags.validate(&[], &[], &[])?;
            Ok(table1_stdout())
        }
        "table2" => {
            flags.validate(&[], &[], &[])?;
            Ok(table2_stdout())
        }
        "pareto" => {
            flags.validate(&["--policy"], &[], &[])?;
            Ok(pareto_stdout(
                flags.policy_or(SelectionPolicy::WorstBlockExact)?,
            ))
        }
        "ablations" => {
            flags.validate(&[], &[], &[])?;
            Ok(ablations_stdout())
        }
        "explore" => {
            flags.validate(
                &[
                    "--policy",
                    "--workload",
                    "--scrub",
                    "--trials",
                    "--threads",
                    "--fault-mix",
                    "--budget",
                    "--space",
                ],
                &["--adjudicate", "--guided", "--metrics", "--profile"],
                &["--trace"],
            )?;
            // --budget and --space only mean something to the guided
            // search, so either switches it on rather than being
            // silently ignored. The same goes for --trace/--metrics:
            // rung prunes are explore's only event source.
            if flags.has("--guided")
                || flags.value_of("--budget").is_some()
                || flags.value_of("--space").is_some()
                || flags.optional_value("--trace").is_some()
                || flags.has("--metrics")
            {
                guided_stdout(&flags)
            } else {
                explore_stdout(&flags)
            }
        }
        "campaign" => {
            flags.validate(
                &[
                    "--workload",
                    "--trials",
                    "--cycles",
                    "--seed",
                    "--threads",
                    "--fault-model",
                    "--scrub-period",
                ],
                &["--metrics", "--profile"],
                &["--trace"],
            )?;
            campaign_stdout(&flags)
        }
        "system" => {
            flags.validate(
                &[
                    "--workload",
                    "--trials",
                    "--cycles",
                    "--seed",
                    "--threads",
                    "--interleave",
                    "--scrub-period",
                    "--checkpoint",
                    "--fault-model",
                    "--seu-mean",
                ],
                &["--metrics", "--profile"],
                &["--trace"],
            )?;
            system_stdout(&flags)
        }
        "diag" => {
            flags.validate(
                &[
                    "--march",
                    "--spare-rows",
                    "--spare-cols",
                    "--trials",
                    "--cycles",
                    "--seed",
                    "--threads",
                    "--fault-model",
                ],
                &["--metrics", "--profile"],
                &["--trace"],
            )?;
            diag_stdout(&flags)
        }
        "fleet" => {
            flags.validate(
                &[
                    "--preset",
                    "--spec",
                    "--devices",
                    "--seed",
                    "--threads",
                    "--checkpoint-every",
                    "--checkpoint",
                    "--resume",
                    "--halt-after",
                    "--json",
                ],
                &["--metrics", "--profile"],
                &["--trace"],
            )?;
            fleet_stdout(&flags)
        }
        "trace" => trace_stdout(&args[1..]),
        "--version" | "-V" => {
            flags.validate(&[], &[], &[])?;
            Ok(version())
        }
        "--help" | "-h" | "help" => Ok(usage()),
        other => {
            let hint = match suggest_subcommand(other) {
                Some(known) => format!(" (did you mean '{known}'?)"),
                None => String::new(),
            };
            Err(format!("unknown subcommand '{other}'{hint}\n\n{}", usage()))
        }
    }
}

/// Every dispatchable subcommand, for the did-you-mean hint.
const SUBCOMMANDS: [&str; 11] = [
    "table1",
    "table2",
    "pareto",
    "ablations",
    "explore",
    "campaign",
    "system",
    "diag",
    "fleet",
    "trace",
    "help",
];

/// `scm --version`: the crate version plus the pinned toolchain
/// channel, so a bug report pins the exact build recipe in one line.
fn version() -> String {
    let toolchain = include_str!("../../../rust-toolchain.toml")
        .lines()
        .find_map(|line| {
            line.split_once('=')
                .filter(|(key, _)| key.trim() == "channel")
                .map(|(_, value)| value.trim().trim_matches('"').to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "scm {} (rust toolchain {toolchain})\n",
        env!("CARGO_PKG_VERSION")
    )
}

/// Closest candidate within a small edit distance (Levenshtein ≤ 2,
/// capped below the candidate's own length so short names never match
/// unrelated garbage) — the shared did-you-mean engine for subcommands,
/// workload models and March tests.
fn suggest<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .into_iter()
        .map(|known| (edit_distance(input, known), known))
        .filter(|&(d, known)| d <= 2.min(known.len().saturating_sub(1)))
        .min_by_key(|&(d, _)| d)
        .map(|(_, known)| known)
}

/// Closest known subcommand, so a typo like `sytem` points at `system`
/// instead of a bare usage dump.
fn suggest_subcommand(input: &str) -> Option<&'static str> {
    suggest(input, SUBCOMMANDS)
}

/// Temporal fault models the `campaign` subcommand injects.
const FAULT_MODELS: [&str; 4] = ["permanent", "transient", "intermittent", "mix"];

/// Resolve `--fault-model` against an allowed subset of [`FAULT_MODELS`],
/// with the shared did-you-mean hint.
fn fault_model_or_default<'a>(flags: &'a Flags, allowed: &[&'a str]) -> Result<&'a str, String> {
    let name = flags.value_of("--fault-model").unwrap_or("permanent");
    if allowed.contains(&name) {
        return Ok(name);
    }
    let hint = match suggest(name, allowed.iter().copied()) {
        Some(known) => format!(" (did you mean '{known}'?)"),
        None => String::new(),
    };
    Err(format!(
        "unknown fault model '{name}'{hint} (one of: {})",
        allowed.join(", ")
    ))
}

/// The uniform unknown-workload message: did-you-mean hint first (when a
/// model name is within edit distance 2), the full list always.
fn unknown_workload(name: &str) -> String {
    let hint = match suggest(name, MODEL_NAMES) {
        Some(known) => format!(" (did you mean '{known}'?)"),
        None => String::new(),
    };
    format!(
        "unknown workload '{name}'{hint} (one of: {})",
        MODEL_NAMES.join(", ")
    )
}

/// Levenshtein distance (inserts, deletes, substitutions all cost 1).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            row.push(subst.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// Usage text.
pub fn usage() -> String {
    format!(
        "scm — self-checking-memory experiment driver\n\
         \n\
         subcommands:\n\
         \x20 table1                     regenerate the paper's Table 1 (both policies)\n\
         \x20 table2                     regenerate the paper's Table 2 (both policies)\n\
         \x20 pareto [--policy P]        area-vs-latency sweep, CSV on stdout\n\
         \x20 ablations                  design-choice ablations (odd-a, arity, completion fix)\n\
         \x20 explore [--policy P|both] [--workload W|all] [--scrub S] [--fault-mix M|all]\n\
         \x20         [--adjudicate] [--trials N (implies --adjudicate)] [--threads N]\n\
         \x20                            design-space exploration + Pareto front(s)\n\
         \x20 explore --guided [--budget N] [--space worked|million] [--trials N]\n\
         \x20         [--threads N]\n\
         \x20                            budget-bounded multi-fidelity Pareto search\n\
         \x20                            (successive halving; --budget in scenario-trials,\n\
         \x20                            0 = unbounded; --budget/--space imply --guided)\n\
         \x20 campaign [--workload W] [--trials N] [--cycles C] [--seed S] [--threads N]\n\
         \x20          [--fault-model M] [--scrub-period P]\n\
         \x20                            fault campaign on the 1Kx16 worked example\n\
         \x20 system [--workload W] [--trials N] [--cycles C] [--seed S] [--threads N]\n\
         \x20        [--interleave I] [--scrub-period P] [--checkpoint K]\n\
         \x20        [--fault-model permanent|transient] [--seu-mean G]\n\
         \x20                            sharded multi-bank system campaign (scrubs +\n\
         \x20                            checkpoints competing with live traffic)\n\
         \x20 diag [--march T] [--spare-rows R] [--spare-cols C] [--trials N]\n\
         \x20      [--cycles C] [--seed S] [--threads N] [--fault-model permanent|transient]\n\
         \x20                            March-BIST diagnosis, fault localization and\n\
         \x20                            spare repair, memory and system views\n\
         \x20 fleet [--preset P | --spec FILE] [--devices N] [--seed S] [--threads N]\n\
         \x20       [--checkpoint-every C] [--checkpoint PATH]\n\
         \x20       [--resume PATH] [--halt-after D] [--json PATH|-]\n\
         \x20                            fleet-scale streaming campaign over device\n\
         \x20                            cohorts: FIT rates, spare forecasts, SLO\n\
         \x20                            verdicts; kill-safe checkpoint/resume\n\
         \x20 trace summarize FILE       re-aggregate a saved trace into the metrics table\n\
         \x20 trace chrome FILE          re-export a saved trace as Chrome trace-event JSON\n\
         \x20 --version | -V             crate version + pinned toolchain\n\
         \n\
         observability (campaign | system | diag | fleet | explore):\n\
         \x20 --trace[=PATH]             deterministic event trace on the simulated clock\n\
         \x20                            (stdout, or PATH; bit-identical at any --threads;\n\
         \x20                            on explore implies --guided)\n\
         \x20 --metrics                  counter/histogram registry aggregated from the\n\
         \x20                            same events (fleet adds its telemetry fold)\n\
         \x20 --profile                  wall-clock phase spans ('profile:' lines,\n\
         \x20                            nondeterministic: filter them out of diffs)\n\
         \n\
         policies:     worst-block-exact | inverse-a\n\
         presets:      {}\n\
         scrubs:       off | sequential-sweep\n\
         interleave:   low-order | high-order\n\
         fault models: permanent | transient | intermittent | mix\n\
         march tests:  {}\n\
         workloads:    {}\n",
        PRESET_NAMES.join(" | "),
        MarchTest::NAMES.join(" | "),
        MODEL_NAMES.join(" | ")
    )
}

/// The largest `--threads` value any subcommand accepts. Fan-outs spawn
/// up to this many scoped OS threads at once, so an unbounded value would
/// let one flag ask the host for arbitrarily many.
const MAX_THREADS: usize = 256;

struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    /// Reject typos loudly: every token must be a recognised value flag
    /// (followed by its value), boolean flag, or optional-value flag
    /// (`--flag` or `--flag=value` in one token), given at most once —
    /// otherwise the run would silently proceed on defaults, or on
    /// whichever copy of a repeated flag wins. A `--threads` value is
    /// checked here too, so an out-of-range one is refused before any
    /// work starts.
    fn validate(
        &self,
        value_flags: &[&str],
        bool_flags: &[&str],
        opt_value_flags: &[&str],
    ) -> Result<(), String> {
        let mut seen: Vec<&str> = Vec::new();
        let mut i = 0;
        while i < self.0.len() {
            let token = self.0[i].as_str();
            let inline = token
                .split_once('=')
                .filter(|(name, value)| opt_value_flags.contains(name) && !value.is_empty());
            let name = inline.map_or(token, |(name, _)| name);
            if value_flags.contains(&token) {
                if i + 1 >= self.0.len() {
                    return Err(format!("flag {token} is missing its value"));
                }
                i += 2;
            } else if bool_flags.contains(&token)
                || opt_value_flags.contains(&token)
                || inline.is_some()
            {
                i += 1;
            } else {
                return Err(format!("unrecognised argument '{token}'\n\n{}", usage()));
            }
            if seen.contains(&name) {
                return Err(format!("flag {name} is given more than once"));
            }
            seen.push(name);
        }
        self.threads().map(|_| ())
    }

    /// The `--threads` value (`0` = the ambient count, the default),
    /// refused above [`MAX_THREADS`]: every worker is an OS thread.
    fn threads(&self) -> Result<usize, String> {
        let threads = self.parsed("--threads", 0)?;
        if threads > MAX_THREADS {
            return Err(format!(
                "flag --threads: {threads} is above the ceiling of {MAX_THREADS} workers"
            ));
        }
        Ok(threads)
    }

    fn value_of(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// Optional-value flag: absent → `None`, bare `--flag` →
    /// `Some(None)`, `--flag=value` → `Some(Some(value))`.
    fn optional_value(&self, name: &str) -> Option<Option<&str>> {
        self.0.iter().find_map(|a| {
            if a == name {
                return Some(None);
            }
            a.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix('='))
                .filter(|v| !v.is_empty())
                .map(Some)
        })
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value_of(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag {name}: cannot parse '{v}'")),
        }
    }

    fn policy_or(&self, default: SelectionPolicy) -> Result<SelectionPolicy, String> {
        match self.value_of("--policy") {
            None => Ok(default),
            Some(name) => SelectionPolicy::parse(name)
                .ok_or_else(|| format!("unknown policy '{name}' (worst-block-exact | inverse-a)")),
        }
    }
}

/// Did the command line ask for anything that needs the canonical
/// replay trace? (`--trace` in either form, or `--metrics`, whose
/// registry is aggregated from the same events.)
fn wants_events(flags: &Flags) -> bool {
    flags.optional_value("--trace").is_some() || flags.has("--metrics")
}

/// Append the shared `--trace[=PATH]` / `--metrics` / `--profile`
/// sections to a subcommand's stdout. `events` is the engine's trace
/// in canonical grid order (chronological per cell); `fold` pre-seeds
/// the metrics registry with counters that do not come from events
/// (the fleet telemetry fold). The trace and metrics sections are pure
/// functions of the events, so they inherit the engines' thread and lane
/// invariance; `profile:` lines are the one deliberately
/// nondeterministic tail.
fn append_observability(
    out: &mut String,
    flags: &Flags,
    cmd: &str,
    clock: &str,
    events: &[Event],
    fold: Option<&Metrics>,
    profiler: &Profiler,
) -> Result<(), String> {
    match flags.optional_value("--trace") {
        None => {}
        Some(None) => {
            out.push('\n');
            out.push_str(&trace_text(cmd, clock, events));
        }
        Some(Some(path)) => {
            std::fs::write(path, trace_text(cmd, clock, events))
                .map_err(|e| format!("cannot write trace '{path}': {e}"))?;
            let _ = writeln!(out, "\ntrace -> {path} ({} events)", events.len());
        }
    }
    if flags.has("--metrics") {
        let mut metrics = Metrics::from_events(events);
        if let Some(fold) = fold {
            metrics.merge(fold);
        }
        out.push('\n');
        out.push_str(&metrics.render_table());
    }
    let profile = profiler.render();
    if !profile.is_empty() {
        out.push('\n');
        out.push_str(&profile);
    }
    Ok(())
}

/// `scm trace summarize|chrome FILE` — re-read a saved trace and either
/// re-aggregate it into the metrics table (byte-identical to what
/// `--metrics` printed when the trace was recorded) or re-export it as
/// Chrome trace-event JSON for `chrome://tracing` / Perfetto.
fn trace_stdout(args: &[String]) -> Result<String, String> {
    const USAGE: &str = "usage: scm trace summarize FILE | scm trace chrome FILE";
    let [mode, path] = args else {
        return Err(USAGE.to_owned());
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace '{path}': {e}"))?;
    let trace = parse_trace(&text)?;
    match mode.as_str() {
        "summarize" => {
            let mut out = format!(
                "trace: cmd={} clock={} events={}\n\n",
                trace.cmd,
                trace.clock,
                trace.events.len()
            );
            out.push_str(&Metrics::from_events(&trace.events).render_table());
            Ok(out)
        }
        "chrome" => Ok(chrome_trace(&trace.events) + "\n"),
        other => {
            let hint = match suggest(other, ["summarize", "chrome"]) {
                Some(known) => format!(" (did you mean '{known}'?)"),
                None => String::new(),
            };
            Err(format!("unknown trace mode '{other}'{hint}\n{USAGE}"))
        }
    }
}

/// `scm table1` stdout: the regenerated table plus the reading notes.
pub fn table1_stdout() -> String {
    let mut out = crate::table1_report();
    out.push_str("notes:\n");
    out.push_str("  'CHEAPER' rows: our policy proves a smaller code already meets the\n");
    out.push_str("  budget (see DESIGN.md §5 — the paper's two tables are internally\n");
    out.push_str("  inconsistent about the selection formula; both policies shown).\n");
    out
}

/// `scm table2` stdout: the regenerated table plus the worked example.
pub fn table2_stdout() -> String {
    let mut out = crate::table2_report();
    out.push_str("worked example (Section III.2): c = 10, Pndc = 1e-9 ->\n");
    let plan = Evaluator::default()
        .goal_solve(paper_rams()[0], 10, 1e-9, SelectionPolicy::WorstBlockExact)
        .expect("the worked example is feasible")
        .plan;
    let _ = writeln!(
        out,
        "  a_search = {}, a_required = {}, code = {}, final a = {}",
        plan.a_search(),
        plan.a_required(),
        plan.code_name(),
        plan.a()
    );
    out.push_str("  paper: a = 8 -> C >= 9 -> 3-out-of-5 -> a = 10 - 1 = 9\n");
    out
}

/// `scm pareto` stdout: the title trade-off as CSV — the latency-budget
/// grid evaluated through the exploration engine, three paper RAMs per
/// row.
pub fn pareto_stdout(policy: SelectionPolicy) -> String {
    let cs = [
        1u32, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 30, 40, 50, 64, 100,
    ];
    let pndcs = [1e-2, 1e-5, 1e-9, 1e-12, 1e-15, 1e-20, 1e-30];
    let rams = paper_rams();

    let mut points = Vec::with_capacity(cs.len() * pndcs.len() * rams.len());
    for &pndc in &pndcs {
        for &c in &cs {
            for &ram in &rams {
                points.push(DesignPoint::paper(ram, c, pndc, policy));
            }
        }
    }
    let evaluations = Evaluator::default().evaluate_points(&points);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# area-vs-latency Pareto sweep, policy = {}",
        policy.name()
    );
    out.push_str("c,pndc,code,r,a,escape_per_cycle,pct_16x2K,pct_32x4K,pct_64x8K\n");
    for (budget_idx, chunk) in evaluations.chunks(rams.len()).enumerate() {
        // The CSV schema hard-codes the paper's three RAM columns; a
        // different geometry count must fail loudly, not emit an empty
        // sweep through the infeasibility skip below.
        assert_eq!(chunk.len(), 3, "pareto CSV expects the 3 paper RAMs");
        // Selection is geometry-independent: a budget is feasible for all
        // three RAMs or none. Infeasible corners are skipped, as before.
        let [Ok(a), Ok(b), Ok(c_eval)] = chunk else {
            continue;
        };
        let pndc = pndcs[budget_idx / cs.len()];
        let c = cs[budget_idx % cs.len()];
        let plan = &a.plan;
        let _ = writeln!(
            out,
            "{c},{pndc:.0e},{},{},{},{:.6},{:.3},{:.3},{:.3}",
            plan.code_name(),
            plan.r(),
            plan.a(),
            a.escape_per_cycle,
            a.area_percent(),
            b.area_percent(),
            c_eval.area_percent(),
        );
    }
    out
}

/// `scm explore` — evaluate a configurable slice of the design space and
/// print the grid plus its Pareto front.
fn explore_stdout(flags: &Flags) -> Result<String, String> {
    let policies = match flags.value_of("--policy") {
        None | Some("both") => SelectionPolicy::ALL.to_vec(),
        Some(name) => vec![SelectionPolicy::parse(name)
            .ok_or_else(|| format!("unknown policy '{name}' (worst-block-exact | inverse-a)"))?],
    };
    let workloads: Vec<String> = match flags.value_of("--workload") {
        None => vec!["uniform".to_owned()],
        Some("all") => MODEL_NAMES.iter().map(|s| (*s).to_owned()).collect(),
        Some(name) => {
            if model_by_name(name).is_none() {
                return Err(unknown_workload(name));
            }
            vec![name.to_owned()]
        }
    };
    let scrub = match flags.value_of("--scrub") {
        None => ScrubPolicy::Off,
        Some(name) => ScrubPolicy::parse(name)
            .ok_or_else(|| format!("unknown scrub policy '{name}' (off | sequential-sweep)"))?,
    };
    let fault_mixes = match flags.value_of("--fault-mix") {
        None => vec![FaultMix::Permanent],
        Some("all") => FaultMix::ALL.to_vec(),
        Some(name) => vec![FaultMix::parse(name).ok_or_else(|| {
            format!(
                "unknown fault mix '{name}' (one of: permanent, transient, intermittent, mix, all)"
            )
        })?],
    };
    let threads: usize = flags.threads()?;
    let trials: u32 = flags.parsed("--trials", 16)?;
    if trials == 0 {
        return Err("--trials must be at least 1".to_owned());
    }

    let geometry = RamOrganization::with_mux8(1024, 16);
    let space = ExplorationSpace {
        geometries: vec![geometry],
        cycles: vec![2, 5, 10, 20, 30, 40],
        pndcs: vec![1e-2, 1e-5, 1e-9, 1e-15, 1e-20, 1e-30],
        policies,
        scrubs: vec![scrub],
        workloads,
        banks: vec![1],
        checkpoints: vec![0],
        repairs: vec![scm_explore::RepairPolicy::OFF],
        fault_mixes: fault_mixes.clone(),
    };

    let mut evaluator = Evaluator::default().threads(threads);
    // --trials and --fault-mix only mean something to the empirical
    // stage, so asking for either switches adjudication on rather than
    // being silently ignored.
    let adjudicated = flags.has("--adjudicate")
        || flags.value_of("--trials").is_some()
        || flags.value_of("--fault-mix").is_some();
    if adjudicated {
        evaluator = evaluator.adjudicate(Adjudication {
            campaign: CampaignConfig {
                cycles: 10, // overridden per point
                trials,
                seed: 0xE7,
                write_fraction: 0.1,
            },
            max_faults: 64,
            ..Adjudication::default()
        });
    }

    let mut profiler = Profiler::new(flags.has("--profile"));
    let results = profiler.time("evaluate-space", || evaluator.evaluate_space(&space));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "design-space exploration: {} RAM, {} candidate points{}",
        geometry.name(),
        space.len(),
        if adjudicated {
            format!(" (empirically adjudicated, {trials} trials/fault)")
        } else {
            String::new()
        }
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "{:<44} | {:<12} | {:>5} | {:>12} | {:>9} | {:>8}{}{}",
        "point",
        "code",
        "a",
        "escape/cycle",
        "dec-chk %",
        "meets",
        if adjudicated { " | wrst-err-esc" } else { "" },
        if scrub == ScrubPolicy::SequentialSweep {
            " | sweep-SA1"
        } else {
            ""
        },
    );
    let _ = writeln!(out, "{}", "-".repeat(110));
    let mut infeasible = 0usize;
    let mut feasible = Vec::new();
    for result in results {
        match result {
            Err(_) => infeasible += 1,
            Ok(e) => {
                let mut line = format!(
                    "{:<44} | {:<12} | {:>5} | {:>12.6} | {:>9.2} | {:>8}",
                    e.point.label(),
                    e.plan.code_name(),
                    e.plan.a(),
                    e.escape_per_cycle,
                    e.area_percent(),
                    if e.meets_goal { "yes" } else { "NO" },
                );
                if let Some(emp) = &e.empirical {
                    let _ = write!(line, " | {:>12.4}", emp.worst_error_escape);
                }
                if let Some(bound) = &e.scrub_bound {
                    let _ = write!(line, " | {:>9}", bound.worst_sa1);
                }
                let _ = writeln!(out, "{line}");
                feasible.push(e);
            }
        }
    }
    out.push('\n');
    let front = pareto_front(&feasible);
    let _ = writeln!(
        out,
        "Pareto front (minimise dec-chk %, latency c, achieved Pndc): {} of {} feasible points",
        front.len(),
        feasible.len()
    );
    for e in &front {
        let _ = writeln!(
            out,
            "  {:<44} | {:<12} | {:>9.2} % | achieved Pndc {:.3e}",
            e.point.label(),
            e.plan.code_name(),
            e.area_percent(),
            e.achieved_pndc
        );
    }
    if fault_mixes.len() > 1 {
        out.push('\n');
        let _ = writeln!(
            out,
            "per-mix Pareto fronts (minimise dec-chk %, latency c, empirical escape):"
        );
        for (mix, front) in scm_explore::mix_pareto_fronts(&feasible) {
            let _ = writeln!(
                out,
                "  fault mix = {}: {} point(s)",
                mix.name(),
                front.len()
            );
            for e in &front {
                let escape = e
                    .empirical
                    .map(|emp| emp.mean_escape)
                    .unwrap_or(e.achieved_pndc);
                let _ = writeln!(
                    out,
                    "    {:<52} | {:>9.2} % | escape {escape:.4}",
                    e.point.label(),
                    e.area_percent(),
                );
            }
        }
    }
    let stats = evaluator.cache_stats();
    let _ = writeln!(
        out,
        "\n{} infeasible points skipped; memo: {} hits / {} misses \
         (plans {}/{}, areas {}/{}, scrub bounds {}/{})",
        infeasible,
        stats.hits(),
        stats.misses(),
        stats.plans.hits,
        stats.plans.misses,
        stats.areas.hits,
        stats.areas.misses,
        stats.scrub_bounds.hits,
        stats.scrub_bounds.misses,
    );
    // Plain explore has no event stream (--trace/--metrics switch to
    // the guided path); --profile still renders its trailer here.
    append_observability(
        &mut out,
        flags,
        "explore",
        "scenario-trials",
        &[],
        None,
        &profiler,
    )?;
    Ok(out)
}

/// `scm explore --guided` — budget-bounded multi-fidelity search over a
/// named space, with rung-level budget accounting on stdout. The output
/// is a pure function of the flags: bit-identical at every thread count,
/// which is what lets CI diff two runs at different `--threads`.
fn guided_stdout(flags: &Flags) -> Result<String, String> {
    let threads: usize = flags.threads()?;
    let trials: u32 = flags.parsed("--trials", 64)?;
    if trials == 0 {
        return Err("--trials must be at least 1".to_owned());
    }
    let budget: u64 = flags.parsed("--budget", 0)?;
    let space = match flags.value_of("--space") {
        None | Some("worked") => ExplorationSpace::worked_reference(),
        Some("million") => ExplorationSpace::million_grid(),
        Some(other) => {
            let hint = match suggest(other, ["worked", "million"]) {
                Some(known) => format!(" (did you mean '{known}'?)"),
                None => String::new(),
            };
            return Err(format!("unknown space '{other}'{hint} (worked | million)"));
        }
    };

    let evaluator = Evaluator::default()
        .threads(threads)
        .adjudicate(Adjudication {
            campaign: CampaignConfig {
                cycles: 10, // overridden per point
                trials,
                seed: 0xE7,
                write_fraction: 0.1,
            },
            max_faults: 64,
            ..Adjudication::default()
        });
    let config = if budget == 0 {
        GuidedConfig::default()
    } else {
        GuidedConfig::with_budget(budget)
    };
    let mut profiler = Profiler::new(flags.has("--profile"));
    let report = profiler
        .time("guided-search", || {
            GuidedSearch::new(&evaluator, config).run(&space)
        })
        .map_err(|e| e.to_string())?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "guided design-space search: {} points, budget {} scenario-trials, \
         {} trials/fault at full fidelity",
        report.space_points,
        if budget == 0 {
            "unbounded".to_owned()
        } else {
            budget.to_string()
        },
        trials,
    );
    if report.sampled {
        let _ = writeln!(
            out,
            "space too large to enumerate: stratified sample + local mutation, \
             {} candidates screened",
            report.candidates
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "{:>3} | {:>6} | {:>7} | {:>9} | {:>10} | {:>9} | {:>10}",
        "gen", "trials", "entered", "evaluated", "infeasible", "survivors", "spent"
    );
    let _ = writeln!(out, "{}", "-".repeat(74));
    for r in &report.rungs {
        let _ = writeln!(
            out,
            "{:>3} | {:>6} | {:>7} | {:>9} | {:>10} | {:>9} | {:>10}",
            r.generation, r.trials, r.entered, r.evaluated, r.infeasible, r.survivors, r.spent
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "spent {} of exhaustive-equivalent {} scenario-trials ({:.1} %); saved {}{}",
        report.spent,
        report.exhaustive_cost,
        report.spent_fraction() * 100.0,
        report.saved(),
        if report.truncated {
            " — budget exhausted, cohort truncated"
        } else {
            ""
        },
    );
    if report.infeasible > 0 {
        let _ = writeln!(out, "{} infeasible candidate(s) skipped", report.infeasible);
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "Pareto front (minimise dec-chk %, latency c, empirical escape): {} point(s){}",
        report.front.len(),
        if report.provisional {
            " — PROVISIONAL: the budget died before full fidelity"
        } else {
            ""
        },
    );
    for e in &report.front {
        let emp = e.empirical.as_ref().expect("guided points are adjudicated");
        let _ = writeln!(
            out,
            "  {:<52} | {:<12} | {:>9.2} % | escape {:.4} | latency {:>6.2} c",
            e.point.label(),
            e.plan.code_name(),
            e.area_percent(),
            emp.mean_escape,
            emp.mean_latency,
        );
    }
    let stats = evaluator.cache_stats();
    let _ = writeln!(
        out,
        "\nmemo: {} hits / {} misses (plans {}/{}, areas {}/{}, scrub bounds {}/{})",
        stats.hits(),
        stats.misses(),
        stats.plans.hits,
        stats.plans.misses,
        stats.areas.hits,
        stats.areas.misses,
        stats.scrub_bounds.hits,
        stats.scrub_bounds.misses,
    );
    // Rung prunes on the budget clock: explore's whole event stream.
    let events = scm_explore::rung_events(&report);
    append_observability(
        &mut out,
        flags,
        "explore",
        "scenario-trials",
        &events,
        None,
        &profiler,
    )?;
    Ok(out)
}

/// `scm campaign` — a Monte-Carlo fault campaign on the worked example
/// under any registered workload model and temporal fault model
/// (`--fault-model transient` injects one-shot cell flips; a
/// `--scrub-period` sweep is what makes those detectable at all when
/// mission traffic misses them).
fn campaign_stdout(flags: &Flags) -> Result<String, String> {
    let workload = flags.value_of("--workload").unwrap_or("uniform");
    let model = model_by_name(workload).ok_or_else(|| unknown_workload(workload))?;
    let fault_model = fault_model_or_default(flags, &FAULT_MODELS)?;
    let scrub_period: u64 = flags.parsed("--scrub-period", 0)?;
    let trials: u32 = flags.parsed("--trials", 32)?;
    if trials == 0 {
        return Err("--trials must be at least 1".to_owned());
    }
    let cycles: u64 = flags.parsed("--cycles", 10)?;
    let seed: u64 = flags.parsed("--seed", 0xC0FFEE)?;
    let threads: usize = flags.threads()?;

    let design = SelfCheckingRamBuilder::new(1024, 16)
        .mux_factor(8)
        .latency_budget(10, 1e-9)
        .map_err(|e| e.to_string())?
        .build()
        .map_err(|e| e.to_string())?;
    let scenarios: Vec<FaultScenario> = match fault_model {
        "transient" => transient_universe(design.config(), 64, cycles, seed),
        "intermittent" => intermittent_universe(design.config(), 8, 2, seed),
        "mix" => mixed_universe(design.config(), 48, cycles, seed),
        _ => design
            .decoder_faults()
            .into_iter()
            .map(FaultScenario::permanent)
            .collect(),
    };
    let campaign = CampaignConfig {
        cycles,
        trials,
        seed,
        write_fraction: 0.1,
    };
    let mut profiler = Profiler::new(flags.has("--profile"));
    let engine = CampaignEngine::new(campaign)
        .workload_model(model)
        .threads(threads)
        .scrub(scrub_period);
    let occupancy = engine.occupancy(scenarios.len());
    profiler.note(format!(
        "occupancy={}/{} lanes filled across {} block{} (lane width {})",
        occupancy.filled,
        occupancy.capacity,
        occupancy.blocks,
        if occupancy.blocks == 1 { "" } else { "s" },
        occupancy.width,
    ));
    let result = profiler.time("campaign-fan-out", || {
        engine.run_scenarios(design.config(), &scenarios)
    });
    let events = if wants_events(flags) {
        profiler.time("trace", || {
            engine.trace_scenarios(design.config(), &scenarios)
        })
    } else {
        Vec::new()
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign: 1Kx16 worked example (3-out-of-5, a = 9), workload = {workload}"
    );
    // Non-default temporal settings announce themselves; the classical
    // permanent/unscrubbed output stays byte-for-byte what it always was.
    if fault_model != "permanent" || scrub_period > 0 {
        let _ = writeln!(
            out,
            "fault model = {fault_model}, scrub period = {}",
            if scrub_period == 0 {
                "off".to_owned()
            } else {
                scrub_period.to_string()
            }
        );
    }
    out.push('\n');
    out.push_str(&summary(&result));
    out.push('\n');
    out.push_str(&worst_offenders(&result, 5));
    append_observability(
        &mut out, flags, "campaign", "cycles", &events, None, &profiler,
    )?;
    Ok(out)
}

/// `scm system` — a sharded multi-bank system campaign: four
/// heterogeneous banks behind an address interleaver, scrub reads and
/// checkpoints scheduled against live traffic, detection measured on the
/// global clock. Stdout is byte-stable at every thread count (pinned by
/// `tests/system_fixture.rs`).
fn system_stdout(flags: &Flags) -> Result<String, String> {
    let workload = flags.value_of("--workload").unwrap_or("uniform");
    let model = model_by_name(workload).ok_or_else(|| unknown_workload(workload))?;
    let trials: u32 = flags.parsed("--trials", 8)?;
    if trials == 0 {
        return Err("--trials must be at least 1".to_owned());
    }
    let cycles: u64 = flags.parsed("--cycles", 240)?;
    let seed: u64 = flags.parsed("--seed", 0x5E5)?;
    let threads: usize = flags.threads()?;
    let scrub_period: u64 = flags.parsed("--scrub-period", 4)?;
    let checkpoint: u64 = flags.parsed("--checkpoint", 64)?;
    let interleaving = match flags.value_of("--interleave") {
        None => Interleaving::LowOrder,
        Some(name) => Interleaving::parse(name)
            .ok_or_else(|| format!("unknown interleaving '{name}' (low-order | high-order)"))?,
    };

    // Four heterogeneous banks: a big code-store, two mid-size working
    // banks (one on a cheaper modulus) and a small hot bank.
    let code = MOutOfN::new(3, 5).expect("3-out-of-5 exists");
    let bank = |words: u64, word_bits: u32, mux: u32, a: u64| -> Result<RamConfig, String> {
        let org = RamOrganization::new(words, word_bits, mux);
        let row_map = CodewordMap::mod_a(code, a, org.rows()).map_err(|e| e.to_string())?;
        let col_map =
            CodewordMap::mod_a(code, a, org.mux_factor() as u64).map_err(|e| e.to_string())?;
        Ok(RamConfig::new(org, row_map, col_map))
    };
    let system = SystemConfig {
        banks: vec![
            bank(1024, 16, 8, 9)?,
            bank(512, 8, 4, 9)?,
            bank(256, 8, 4, 7)?,
            bank(64, 8, 4, 9)?,
        ],
        interleaving,
        scrub: scm_system::ScrubSchedule {
            period: scrub_period,
        },
        checkpoint: scm_system::CheckpointSchedule {
            interval: checkpoint,
        },
    };
    let campaign = CampaignConfig {
        cycles,
        trials,
        seed,
        write_fraction: 0.1,
    };
    let fault_model = fault_model_or_default(flags, &["permanent", "transient"])?;
    let seu_mean: f64 = flags.parsed("--seu-mean", 40.0)?;
    if !seu_mean.is_finite() || seu_mean < 1.0 {
        return Err("--seu-mean must be a finite number of at least 1 cycle".to_owned());
    }
    let engine = SystemCampaign::new(system, campaign)
        .workload_model(model)
        .threads(threads);
    let universe = match fault_model {
        "transient" => engine.seu_universe(12, &SeuProcess::new(seu_mean)),
        _ => engine.decoder_universe(12),
    };
    let mut profiler = Profiler::new(flags.has("--profile"));
    let result = profiler.time("system-campaign", || engine.run(&universe));
    let events = if wants_events(flags) {
        profiler.time("trace", || engine.trace(&universe))
    } else {
        Vec::new()
    };

    let mut out = String::new();
    out.push_str("sharded self-checking memory system: 4 heterogeneous banks\n\n");
    if fault_model == "transient" {
        let _ = writeln!(
            out,
            "fault model: transient SEUs, geometric inter-arrival (mean {seu_mean} cycles), \
             12 arrivals/bank; latency and lost work anchored at each strike\n"
        );
    }
    out.push_str(&system_report(engine.system(), &result, workload));
    append_observability(
        &mut out, flags, "system", "cycles", &events, None, &profiler,
    )?;
    Ok(out)
}

/// `scm diag` — the diagnosis/repair story end to end: a fault
/// dictionary over the small worked RAM, a per-class
/// detect→localize→repair campaign, one fully worked cell fault, the
/// spare/BIST area bill, then the system view with BIST sessions
/// scheduled against live traffic. Stdout is byte-stable at every thread
/// count (pinned by `tests/diag_fixture.rs`).
fn diag_stdout(flags: &Flags) -> Result<String, String> {
    let march_name = flags.value_of("--march").unwrap_or("march-c-");
    let test = MarchTest::by_name(march_name).ok_or_else(|| {
        let hint = match suggest(march_name, MarchTest::NAMES) {
            Some(known) => format!(" (did you mean '{known}'?)"),
            None => String::new(),
        };
        format!(
            "unknown March test '{march_name}'{hint} (one of: {})",
            MarchTest::NAMES.join(", ")
        )
    })?;
    let spare_rows: u32 = flags.parsed("--spare-rows", 1)?;
    let spare_cols: u32 = flags.parsed("--spare-cols", 1)?;
    let trials: u32 = flags.parsed("--trials", 2)?;
    if trials == 0 {
        return Err("--trials must be at least 1".to_owned());
    }
    let cycles: u64 = flags.parsed("--cycles", 1600)?;
    let seed: u64 = flags.parsed("--seed", 0xD1A6)?;
    let threads: usize = flags.threads()?;

    // The small worked RAM: 64x8, 1-of-4 mux, the paper's 3-out-of-5
    // code at a = 9 — big enough for every fault class, small enough for
    // a full-resolution cell dictionary.
    let org = RamOrganization::new(64, 8, 4);
    let code = MOutOfN::new(3, 5).expect("3-out-of-5 exists");
    let config = RamConfig::new(
        org,
        CodewordMap::mod_a(code, 9, org.rows()).map_err(|e| e.to_string())?,
        CodewordMap::mod_a(code, 9, org.mux_factor() as u64).map_err(|e| e.to_string())?,
    );
    let fault_model = fault_model_or_default(flags, &["permanent", "transient"])?;
    let mut candidates = cell_universe(&config);
    candidates.extend(
        decoder_fault_universe(org.row_bits())
            .into_iter()
            .map(FaultSite::RowDecoder),
    );
    let mut profiler = Profiler::new(flags.has("--profile"));
    let dictionary = profiler.time("dictionary-build", || {
        FaultDictionary::build_sliced(&config, &test, seed, &candidates, threads, MAX_SLAB_LANES)
    });

    let budget = SpareBudget {
        rows: spare_rows,
        cols: spare_cols,
    };
    let mission = CampaignConfig {
        cycles: 200,
        trials,
        seed,
        write_fraction: 0.1,
    };
    if fault_model == "transient" {
        // The triage view: the repeat-and-compare policy on a one-shot
        // flip (no spare burned) next to the same cell as a hard fault
        // (confirmed and repaired) — the side-by-side the policy exists
        // for.
        let soft = FaultScenario::transient(
            FaultSite::Cell {
                row: 6,
                col: 9,
                stuck: false,
            },
            200,
        );
        let hard = FaultScenario::permanent(FaultSite::Cell {
            row: 6,
            col: 9,
            stuck: true,
        });
        let outcomes: Vec<scm_diag::TriageOutcome> = [soft, hard]
            .into_iter()
            .map(|s| scm_diag::triage_session(&dictionary, s, budget, mission, seed ^ 0xF1E1))
            .collect();
        let mut out = String::new();
        out.push_str("self-checking memory diagnosis and repair — transient triage view\n\n");
        let _ = writeln!(
            out,
            "design: {} RAM, row code {}, March test {} = {}",
            org.name(),
            config.row_map().code_name(),
            test.name(),
            test.notation(),
        );
        // The Ord-keyed reverse dictionary: confirmation compares the
        // observed log against the signature filed for the suspect site.
        let index = dictionary.site_index();
        let _ = writeln!(
            out,
            "dictionary: {} diagnosable sites indexed; filed signature for {}: {} event(s)",
            index.len(),
            hard.site,
            index.get(&hard.site).map(|s| s.0.len()).unwrap_or(0),
        );
        out.push('\n');
        out.push_str(&scm_diag::triage_report(&outcomes));
        // The triage view runs no system campaign, so its trace is
        // empty; `--trace`/`--metrics` still render (header only) so
        // pipelines need not special-case the fault model.
        append_observability(&mut out, flags, "diag", "cycles", &[], None, &profiler)?;
        return Ok(out);
    }
    // A mixed slice of the dictionary's own candidate set: every 29th
    // site covers all classes without campaigning all ~1.2K.
    let universe: Vec<FaultSite> = candidates.iter().copied().step_by(29).collect();
    let outcomes = DiagnosisCampaign::new(budget, mission)
        .threads(threads)
        .run(&dictionary, &universe);
    // The acceptance walk: one concrete stuck cell, end to end.
    let walkthrough = run_session(
        &dictionary,
        FaultSite::Cell {
            row: 6,
            col: 9,
            stuck: true,
        },
        budget,
        mission,
        seed ^ 0xF1E1,
    );
    let area = scm_area::repair_overhead(
        org,
        spare_rows,
        spare_cols,
        test.ops_per_word() as u32,
        &scm_area::TechnologyParams::default(),
    );

    let mut out = String::new();
    out.push_str("self-checking memory diagnosis and repair\n\n");
    out.push_str(&diag_report(
        &dictionary,
        budget,
        mission,
        &outcomes,
        &walkthrough,
        &area,
    ));
    out.push('\n');
    let (section, events) = diag_system_section(
        &config,
        &test,
        budget,
        CampaignConfig {
            cycles,
            trials,
            seed,
            write_fraction: 0.1,
        },
        threads,
        wants_events(flags),
        &mut profiler,
    )?;
    out.push_str(&section);
    append_observability(&mut out, flags, "diag", "cycles", &events, None, &profiler)?;
    Ok(out)
}

/// The system view of `scm diag`: two banks behind an interleaver, BIST
/// sessions stealing slots from live traffic (reactive repair interrupts
/// and proactive round-robin sweeps), lost work charged to checkpoints.
/// Returns the rendered section plus the campaign's trace events (empty
/// unless `want_events`).
fn diag_system_section(
    bank: &RamConfig,
    test: &MarchTest,
    budget: SpareBudget,
    campaign: CampaignConfig,
    threads: usize,
    want_events: bool,
    profiler: &mut Profiler,
) -> Result<(String, Vec<Event>), String> {
    let system = SystemConfig {
        banks: vec![bank.clone(), bank.clone()],
        interleaving: Interleaving::LowOrder,
        scrub: scm_system::ScrubSchedule { period: 4 },
        checkpoint: scm_system::CheckpointSchedule { interval: 64 },
    };
    let cycles = campaign.cycles;
    let trials = campaign.trials;
    let period = cycles / 2;
    let policy = DiagPolicy {
        period,
        test: test.clone(),
        session_seed: campaign.seed,
        budget,
    };
    let engine = DiagCampaign::new(system, policy, campaign).threads(threads);
    let universe = engine.diag_universe(6, 4);
    let result = profiler.time("diag-campaign", || engine.run(&universe));
    let events = if want_events {
        profiler.time("trace-replay", || engine.trace(&universe))
    } else {
        Vec::new()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "system view: 2 x {} banks, low-order interleaving, scrub period 4, checkpoint interval 64",
        bank.org().name(),
    );
    let _ = writeln!(
        out,
        "policy: repair interrupt on indication + proactive {} sessions every {} cycles \
         ({} cycles/bank session)",
        test.name(),
        period,
        test.session_cycles(bank.org().words()),
    );
    let _ = writeln!(
        out,
        "campaign: {} faults x {} trials over a {}-cycle horizon",
        universe.len(),
        trials,
        cycles,
    );
    let _ = writeln!(
        out,
        "  detected {:.4} | localized {:.4} | repaired {:.4} of trials",
        result.detected_fraction(),
        result.localized_fraction(),
        result.repaired_fraction(),
    );
    let _ = writeln!(
        out,
        "  mean time-to-repair {:.2} cycles (unrepaired censored at horizon)",
        result.mean_time_to_repair(),
    );
    let _ = writeln!(
        out,
        "  BIST bandwidth {:.4} of horizon | expected lost work {:.2} cycles",
        result.bist_overhead(),
        result.expected_lost_work(),
    );
    let _ = writeln!(
        out,
        "  post-repair escapes: {} (sound repairs leave zero)",
        result.post_repair_escapes(),
    );
    Ok((out, events))
}

/// `scm fleet` — the streaming fleet campaign: a cohort spec (built-in
/// preset or `--spec` file) driven through `scm_fleet::FleetDriver`
/// with optional periodic checkpoints, kill-safe `--resume`, and the
/// per-cohort FIT/SLO report (plus `--json` telemetry). Stdout is
/// byte-stable at every thread count and across any checkpoint/resume
/// split (pinned by `tests/fleet_fixture.rs` and the kill test).
fn fleet_stdout(flags: &Flags) -> Result<String, String> {
    let spec = match (flags.value_of("--spec"), flags.value_of("--preset")) {
        (Some(_), Some(_)) => {
            return Err("--spec and --preset are mutually exclusive".to_owned());
        }
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec '{path}': {e}"))?;
            FleetSpec::parse(&text)?
        }
        (None, preset) => {
            let name = preset.unwrap_or("small");
            FleetSpec::preset(name).ok_or_else(|| {
                let hint = match suggest(name, PRESET_NAMES) {
                    Some(known) => format!(" (did you mean '{known}'?)"),
                    None => String::new(),
                };
                format!(
                    "unknown preset '{name}'{hint} (one of: {})",
                    PRESET_NAMES.join(", ")
                )
            })?
        }
    };
    let spec = match flags.value_of("--devices") {
        None => spec,
        Some(_) => {
            let devices: u64 = flags.parsed("--devices", 0)?;
            if devices < spec.cohorts.len() as u64 {
                return Err(format!(
                    "--devices {devices} cannot cover {} cohorts (one device each, minimum)",
                    spec.cohorts.len()
                ));
            }
            spec.with_devices(devices)
        }
    };
    let checkpoint_every: u64 = flags.parsed("--checkpoint-every", 0)?;
    let halt_after = match flags.value_of("--halt-after") {
        None => None,
        Some(_) => Some(flags.parsed("--halt-after", 0u64)?),
    };
    let resume = flags.value_of("--resume").map(std::path::PathBuf::from);
    // The checkpoint path: explicit flag, else the resume source, else a
    // conventional default once any checkpointing behaviour is asked for.
    let checkpoint = flags
        .value_of("--checkpoint")
        .map(std::path::PathBuf::from)
        .or_else(|| resume.clone())
        .or_else(|| {
            (checkpoint_every > 0 || halt_after.is_some())
                .then(|| std::path::PathBuf::from("scm-fleet.ckpt"))
        });
    let options = FleetOptions {
        seed: flags.parsed("--seed", 0xF1EE7)?,
        threads: flags.threads()?,
        checkpoint_every,
        checkpoint,
        halt_after,
        ..FleetOptions::default()
    };
    let mut profiler = Profiler::new(flags.has("--profile"));
    let mut driver = match &resume {
        Some(path) => FleetDriver::resume(spec, options, path)?,
        None => FleetDriver::new(spec, options)?,
    };
    let progress = profiler.time("fleet-drive", || driver.run())?;
    // Driver-level events only: checkpoint writes/restores on the
    // device-count clock (per-device events would flood at fleet scale).
    let events = driver.events().to_vec();
    match progress {
        FleetProgress::Completed(outcome) => {
            let mut out = scm_fleet::fleet_report(&outcome);
            match flags.value_of("--json") {
                None => {}
                Some("-") => {
                    out.push('\n');
                    out.push_str(&scm_fleet::fleet_json(&outcome));
                    out.push('\n');
                }
                Some(path) => {
                    std::fs::write(path, scm_fleet::fleet_json(&outcome) + "\n")
                        .map_err(|e| format!("cannot write json telemetry '{path}': {e}"))?;
                    let _ = writeln!(out, "\njson telemetry -> {path}");
                }
            }
            // The fleet's per-trial events live inside devices; its
            // registry is instead folded from the settled telemetry.
            let fold = flags.has("--metrics").then(|| {
                let mut fold = Metrics::new();
                for (cohort, telemetry) in outcome.spec.cohorts.iter().zip(&outcome.cohorts) {
                    telemetry.fold_metrics(&cohort.name, &mut fold);
                }
                fold
            });
            append_observability(
                &mut out,
                flags,
                "fleet",
                "devices",
                &events,
                fold.as_ref(),
                &profiler,
            )?;
            Ok(out)
        }
        FleetProgress::Halted {
            devices_done,
            checkpoint,
        } => {
            let mut out = format!(
                "fleet halted after {devices_done} devices; checkpoint at {}\n\
                 resume with: scm fleet ... --resume {}\n",
                checkpoint.display(),
                checkpoint.display(),
            );
            append_observability(
                &mut out, flags, "fleet", "devices", &events, None, &profiler,
            )?;
            Ok(out)
        }
    }
}

/// `scm ablations` stdout — the design-choice ablations (odd-`a` rule,
/// decoder pairing arity, completion fix).
pub fn ablations_stdout() -> String {
    let mut out = String::new();
    ablation_odd_a(&mut out);
    ablation_arity(&mut out);
    ablation_completion_fix(&mut out);
    out
}

fn ablation_odd_a(out: &mut String) {
    let _ = writeln!(out, "## Ablation 1 — the odd-a rule (8-bit decoder)");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>4} | {:>12} | {:>14} | {:>14} | {:>10} | grade",
        "a", "paper bound", "err-escape", "empirical", "zero-lat %"
    );
    let _ = writeln!(out, "{}", "-".repeat(82));
    let mut nl = Netlist::new();
    let addr = nl.inputs(8);
    let dec = scm_decoder::build_multilevel_decoder(&mut nl, &addr, 2);
    // Empirical companion: a 1K×8 RAM whose row decoder is exactly this
    // 8-bit structure, campaigned over every row-decoder stuck-at-1 on the
    // parallel engine. The mapping layer rejects even moduli below the line
    // count outright (the rule is structural, not advisory), so those rows
    // print "rejected".
    let org = RamOrganization::new(1024, 8, 4);
    let code = MOutOfN::centered(7).expect("7-wide centred code exists");
    let col_map = CodewordMap::mod_a(MOutOfN::new(3, 5).unwrap(), 9, 4).unwrap();
    let sa1: Vec<FaultSite> = decoder_fault_universe(8)
        .into_iter()
        .filter(|f| f.stuck_one)
        .map(FaultSite::RowDecoder)
        .collect();
    let campaign = CampaignConfig {
        cycles: 10,
        trials: 24,
        seed: 0xA0DD,
        write_fraction: 0.1,
    };
    let engine = CampaignEngine::new(campaign);
    for a in [7u64, 8, 9, 10, 11, 12, 13] {
        let report = analyze_decoder(&dec, MappingKind::ModA { a });
        let empirical = match CodewordMap::mod_a(code, a, org.rows()) {
            Ok(row_map) => {
                let config = RamConfig::new(org, row_map, col_map.clone());
                let result = engine.run(&config, &sa1);
                format!("{:>14.4}", result.worst_error_escape())
            }
            Err(_) => format!("{:>14}", "rejected"),
        };
        let _ = writeln!(
            out,
            "{a:>4} | {:>12.4} | {:>14.4} | {empirical} | {:>10.1} | {:?}",
            report.paper_escape_bound,
            report.worst_error_escape,
            100.0 * report.zero_latency_fraction(),
            classify(&report)
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "even moduli are Unprotected: some faults become undetectable — the"
    );
    let _ = writeln!(
        out,
        "mapping constructor refuses them, and the analytical row shows why."
    );
    let _ = writeln!(
        out,
        "'empirical' is the engine's worst per-fault trial-escape frequency over"
    );
    let _ = writeln!(
        out,
        "all ~320 SA1 row-decoder faults at c = 10 (24 trials/fault); as a max"
    );
    let _ = writeln!(
        out,
        "over the whole universe it rides sampling noise a couple of sigma above"
    );
    let _ = writeln!(
        out,
        "the per-cycle 'err-escape', and collapses onto it as trials grow."
    );
    let _ = writeln!(out);
}

fn ablation_arity(out: &mut String) {
    let _ = writeln!(
        out,
        "## Ablation 2 — decoder pairing arity (8-bit decoder, a = 9)"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>5} | {:>7} | {:>9} | {:>12} | {:>14}",
        "arity", "gates", "GEs", "paper bound", "err-escape"
    );
    let _ = writeln!(out, "{}", "-".repeat(60));
    for arity in [2usize, 3, 4, 8] {
        let mut nl = Netlist::new();
        let addr = nl.inputs(8);
        let dec = scm_decoder::build_multilevel_decoder(&mut nl, &addr, arity);
        let stats = gate_stats(&nl);
        let report = analyze_decoder(&dec, MappingKind::ModA { a: 9 });
        let _ = writeln!(
            out,
            "{arity:>5} | {:>7} | {:>9.1} | {:>12.4} | {:>14.4}",
            stats.gates,
            stats.gate_equivalents,
            report.paper_escape_bound,
            report.worst_error_escape
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "wider gates shrink the tree but merge levels: fewer intermediate"
    );
    let _ = writeln!(
        out,
        "blocks can only *remove* colliding fault sites, so the 2-input"
    );
    let _ = writeln!(
        out,
        "analysis upper-bounds every arity — exactly the paper's claim."
    );
    let _ = writeln!(out);
}

fn ablation_completion_fix(out: &mut String) {
    let _ = writeln!(
        out,
        "## Ablation 3 — the completion fix (3-out-of-5, a = 9, 128 lines)"
    );
    let _ = writeln!(out);
    let code = MOutOfN::new(3, 5).unwrap();
    let with_fix = CodewordMap::mod_a(code, 9, 128).unwrap();
    let distinct_with: std::collections::HashSet<u64> = with_fix.table().into_iter().collect();
    // Without the fix: simulate by mapping through a = 9 with exactly 9
    // ranks (drop the spare-word remap) — reconstruct via rank_for modulo.
    let distinct_without: std::collections::HashSet<u64> = (0..128u64)
        .map(|addr| code.word_at((addr % 9) as u128).unwrap())
        .collect();
    let _ = writeln!(
        out,
        "  distinct ROM codewords with fix:    {}/{}",
        distinct_with.len(),
        code.count()
    );
    let _ = writeln!(
        out,
        "  distinct ROM codewords without fix: {}/{}",
        distinct_without.len(),
        code.count()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "the fix makes the q-out-of-r checker see its complete codeword set"
    );
    let _ = writeln!(
        out,
        "during normal operation (the self-testing requirement); detection"
    );
    let _ = writeln!(
        out,
        "probabilities are otherwise unchanged except on the one re-mapped line."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_subcommand_and_help() {
        let err = run(&["frobnicate".to_owned()]).unwrap_err();
        assert!(err.contains("unknown subcommand"));
        assert!(err.contains("table1"));
        let help = run(&["help".to_owned()]).unwrap();
        assert!(help.contains("campaign"));
        for name in MODEL_NAMES {
            assert!(help.contains(name), "usage must list workload '{name}'");
        }
    }

    #[test]
    fn pareto_policy_flag_switches_the_sweep() {
        let default = run(&["pareto".to_owned()]).unwrap();
        assert!(default.contains("policy = worst-block-exact"));
        let inverse = run(&[
            "pareto".to_owned(),
            "--policy".to_owned(),
            "inverse-a".to_owned(),
        ])
        .unwrap();
        assert!(inverse.contains("policy = inverse-a"));
        assert!(run(&[
            "pareto".to_owned(),
            "--policy".to_owned(),
            "bogus".to_owned()
        ])
        .is_err());
    }

    #[test]
    fn explore_runs_for_every_workload_name() {
        for name in MODEL_NAMES {
            let out = run(&[
                "explore".to_owned(),
                "--workload".to_owned(),
                (*name).to_owned(),
                "--policy".to_owned(),
                "inverse-a".to_owned(),
            ])
            .unwrap();
            assert!(out.contains("Pareto front"), "{name}");
            assert!(out.contains(name), "{name} missing from point labels");
        }
    }

    #[test]
    fn misspelled_and_valueless_flags_are_rejected_not_defaulted() {
        let err = run(&[
            "campaign".to_owned(),
            "--cycels".to_owned(),
            "1000".to_owned(),
        ])
        .unwrap_err();
        assert!(err.contains("unrecognised argument '--cycels'"), "{err}");
        let err = run(&["explore".to_owned(), "--trials".to_owned()]).unwrap_err();
        assert!(err.contains("missing its value"), "{err}");
        let err = run(&["explore".to_owned(), "--trials".to_owned(), "0".to_owned()]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = run(&["table1".to_owned(), "--policy".to_owned(), "x".to_owned()]).unwrap_err();
        assert!(err.contains("unrecognised argument"), "{err}");
    }

    #[test]
    fn trials_flag_implies_adjudication_in_explore() {
        let out = run(&[
            "explore".to_owned(),
            "--trials".to_owned(),
            "2".to_owned(),
            "--policy".to_owned(),
            "inverse-a".to_owned(),
        ])
        .unwrap();
        assert!(out.contains("empirically adjudicated, 2 trials/fault"));
        assert!(out.contains("wrst-err-esc"));
    }

    #[test]
    fn campaign_profile_reports_lane_occupancy() {
        // The slab packing is named only where wall-clock facts live:
        // the default universe fills 392 of one 448-lane block.
        let out = |extra: &[&str]| {
            let mut args: Vec<String> = ["campaign", "--trials", "2", "--cycles", "60"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect();
            args.extend(extra.iter().map(|s| (*s).to_owned()));
            run(&args).unwrap()
        };
        let profiled = out(&["--profile"]);
        assert!(
            profiled.contains("profile: occupancy=392/448 lanes filled across 1 block"),
            "{profiled}"
        );
        assert!(
            !out(&[]).contains("occupancy"),
            "profile lines need --profile"
        );
    }

    #[test]
    fn did_you_mean_suggests_only_close_subcommands() {
        assert_eq!(suggest_subcommand("sytem"), Some("system"));
        assert_eq!(suggest_subcommand("tabel1"), Some("table1"));
        assert_eq!(suggest_subcommand("campain"), Some("campaign"));
        assert_eq!(suggest_subcommand("frobnicate"), None);
        assert_eq!(suggest_subcommand(""), None, "empty input has no hint");
        let err = run(&["sytem".to_owned()]).unwrap_err();
        assert!(err.contains("did you mean 'system'?"), "{err}");
        let err = run(&["frobnicate".to_owned()]).unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn edit_distance_is_the_levenshtein_metric() {
        assert_eq!(edit_distance("system", "system"), 0);
        assert_eq!(edit_distance("sytem", "system"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn system_subcommand_validates_flags_and_workloads() {
        let err = run(&[
            "system".to_owned(),
            "--interleave".to_owned(),
            "diagonal".to_owned(),
        ])
        .unwrap_err();
        assert!(err.contains("unknown interleaving"), "{err}");
        let err = run(&[
            "system".to_owned(),
            "--workload".to_owned(),
            "bogus".to_owned(),
        ])
        .unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        let err = run(&["system".to_owned(), "--trials".to_owned(), "0".to_owned()]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = run(&["system".to_owned(), "--banks".to_owned(), "2".to_owned()]).unwrap_err();
        assert!(err.contains("unrecognised argument '--banks'"), "{err}");
    }

    #[test]
    fn system_subcommand_reports_every_bank() {
        let out = run(&[
            "system".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--cycles".to_owned(),
            "60".to_owned(),
        ])
        .unwrap();
        assert!(out.contains("memory system: 4 banks"));
        for bank in ["16x1K", "8x512", "8x256", "8x64"] {
            assert!(out.contains(bank), "missing bank {bank}:\n{out}");
        }
        assert!(out.contains("expected lost work"));
    }

    #[test]
    fn unknown_workloads_get_did_you_mean_hints() {
        let err = run(&[
            "campaign".to_owned(),
            "--workload".to_owned(),
            "unifrm".to_owned(),
        ])
        .unwrap_err();
        assert!(err.contains("did you mean 'uniform'?"), "{err}");
        assert!(err.contains("one of:"), "{err}");
        let err = run(&[
            "system".to_owned(),
            "--workload".to_owned(),
            "hotpsot".to_owned(),
        ])
        .unwrap_err();
        assert!(err.contains("did you mean 'hotspot'?"), "{err}");
        // Distant garbage lists the models but offers no bogus hint.
        let err = run(&[
            "campaign".to_owned(),
            "--workload".to_owned(),
            "adversarial".to_owned(),
        ])
        .unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
        assert!(err.contains("one of:"), "{err}");
    }

    #[test]
    fn diag_subcommand_validates_flags_and_march_names() {
        let err = run(&[
            "diag".to_owned(),
            "--march".to_owned(),
            "march-c".to_owned(),
        ])
        .unwrap_err();
        assert!(err.contains("did you mean 'march-c-'?"), "{err}");
        let err = run(&["diag".to_owned(), "--trials".to_owned(), "0".to_owned()]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = run(&["diag".to_owned(), "--budget".to_owned(), "3".to_owned()]).unwrap_err();
        assert!(err.contains("unrecognised argument '--budget'"), "{err}");
    }

    #[test]
    fn campaign_fault_models_select_universes_and_reject_unknowns() {
        let base = |model: &str| {
            run(&[
                "campaign".to_owned(),
                "--fault-model".to_owned(),
                model.to_owned(),
                "--trials".to_owned(),
                "2".to_owned(),
                "--cycles".to_owned(),
                "6".to_owned(),
            ])
            .unwrap()
        };
        let transient = base("transient");
        assert!(transient.contains("fault model = transient"), "{transient}");
        assert!(transient.contains("transient"), "{transient}");
        let mixed = base("mix");
        // The per-process split only renders for mixed campaigns.
        assert!(mixed.contains("process"), "{mixed}");
        assert!(mixed.contains("permanent"), "{mixed}");
        assert!(mixed.contains("intermittent"), "{mixed}");
        // Permanent + no scrub stays exactly the classical rendering.
        let classical =
            run(&["campaign".to_owned(), "--trials".to_owned(), "2".to_owned()]).unwrap();
        assert!(!classical.contains("fault model ="), "{classical}");
        let err = run(&[
            "campaign".to_owned(),
            "--fault-model".to_owned(),
            "transiet".to_owned(),
        ])
        .unwrap_err();
        assert!(err.contains("did you mean 'transient'?"), "{err}");
    }

    #[test]
    fn campaign_scrubbing_reduces_transient_escapes() {
        // The acceptance experiment: under one-shot flips, a background
        // scrub sweep strictly helps — impossible to show under the old
        // permanent-only model, where the defect never heals and mission
        // traffic eventually finds it either way. The scrubber can only
        // help once a sweep completes inside the horizon: one sweep of
        // the 1K-word RAM takes period × words cycles, and a sweep that
        // never completes only steals slots from mission reads.
        let (words, period, cycles) = (1024u64, 1u64, 1200u64);
        assert!(period * words <= cycles, "no sweep completes");
        let run_with = |scrub: u64| {
            run(&[
                "campaign".to_owned(),
                "--fault-model".to_owned(),
                "transient".to_owned(),
                "--cycles".to_owned(),
                cycles.to_string(),
                "--trials".to_owned(),
                "4".to_owned(),
                "--scrub-period".to_owned(),
                scrub.to_string(),
            ])
            .unwrap()
        };
        // The cell class's mean escape fraction from the summary table.
        let grab = |out: &str| -> f64 {
            out.lines()
                .find(|l| l.starts_with("cell "))
                .and_then(|l| l.split('|').nth(2))
                .and_then(|v| v.trim().parse().ok())
                .expect("summary carries the cell class row")
        };
        let unscrubbed = grab(&run_with(0));
        let scrubbed = grab(&run_with(period));
        assert!(
            scrubbed < unscrubbed,
            "scrubbing must reduce transient escapes: {scrubbed} vs {unscrubbed}"
        );
    }

    #[test]
    fn system_and_diag_accept_the_transient_fault_model() {
        let out = run(&[
            "system".to_owned(),
            "--fault-model".to_owned(),
            "transient".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--cycles".to_owned(),
            "120".to_owned(),
        ])
        .unwrap();
        assert!(out.contains("transient SEUs"), "{out}");
        assert!(out.contains("memory system: 4 banks"), "{out}");
        // The system view rejects mixes its scheduler cannot realise.
        let err = run(&[
            "system".to_owned(),
            "--fault-model".to_owned(),
            "mix".to_owned(),
        ])
        .unwrap_err();
        assert!(err.contains("one of: permanent, transient"), "{err}");
        let out = run(&[
            "diag".to_owned(),
            "--fault-model".to_owned(),
            "transient".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
        ])
        .unwrap();
        assert!(out.contains("transient triage view"), "{out}");
        assert!(out.contains("NO spare burned"), "{out}");
        assert!(out.contains("hard defect confirmed"), "{out}");
    }

    #[test]
    fn guided_explore_prints_rungs_spend_and_front() {
        // --budget implies --guided; a tiny full fidelity keeps it fast.
        let out = run(&[
            "explore".to_owned(),
            "--guided".to_owned(),
            "--trials".to_owned(),
            "8".to_owned(),
        ])
        .unwrap();
        assert!(
            out.contains("guided design-space search: 72 points"),
            "{out}"
        );
        assert!(out.contains("gen | trials"), "{out}");
        assert!(out.contains("scenario-trials"), "{out}");
        assert!(out.contains("Pareto front"), "{out}");
        assert!(out.contains("memo:"), "{out}");
        // A budget smaller than even the screening rung truncates loudly.
        let out = run(&[
            "explore".to_owned(),
            "--budget".to_owned(),
            "100".to_owned(),
            "--trials".to_owned(),
            "8".to_owned(),
        ])
        .unwrap();
        assert!(out.contains("budget exhausted"), "{out}");
    }

    #[test]
    fn guided_explore_is_thread_count_invariant() {
        let at = |threads: &str| {
            run(&[
                "explore".to_owned(),
                "--guided".to_owned(),
                "--trials".to_owned(),
                "8".to_owned(),
                "--threads".to_owned(),
                threads.to_owned(),
            ])
            .unwrap()
        };
        // Byte-identical, memo line included: the memos are
        // compute-once, so their counters cannot see the schedule.
        let reference = at("1");
        for threads in ["2", "4", "8"] {
            assert_eq!(reference, at(threads), "{threads} threads");
        }
    }

    #[test]
    fn guided_flags_get_did_you_mean_hints() {
        let err = run(&[
            "explore".to_owned(),
            "--guided".to_owned(),
            "--space".to_owned(),
            "millon".to_owned(),
        ])
        .unwrap_err();
        assert!(err.contains("did you mean 'million'?"), "{err}");
    }

    #[test]
    fn explore_fault_mix_implies_adjudication_and_prints_per_mix_fronts() {
        let out = run(&[
            "explore".to_owned(),
            "--fault-mix".to_owned(),
            "all".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--policy".to_owned(),
            "inverse-a".to_owned(),
        ])
        .unwrap();
        assert!(out.contains("empirically adjudicated"), "{out}");
        assert!(out.contains("per-mix Pareto fronts"), "{out}");
        for mix in ["permanent", "transient", "intermittent", "mix"] {
            assert!(out.contains(&format!("fault mix = {mix}")), "{mix}\n{out}");
        }
        let err = run(&[
            "explore".to_owned(),
            "--fault-mix".to_owned(),
            "bogus".to_owned(),
        ])
        .unwrap_err();
        assert!(err.contains("unknown fault mix"), "{err}");
    }

    #[test]
    fn version_prints_crate_and_toolchain() {
        let out = run(&["--version".to_owned()]).unwrap();
        assert!(
            out.starts_with(&format!("scm {} ", env!("CARGO_PKG_VERSION"))),
            "{out}"
        );
        assert!(out.contains("toolchain stable"), "{out}");
        assert_eq!(run(&["-V".to_owned()]).unwrap(), out);
        let err = run(&["--version".to_owned(), "--bogus".to_owned()]).unwrap_err();
        assert!(err.contains("unrecognised argument"), "{err}");
    }

    #[test]
    fn observability_flags_render_trace_metrics_and_profile() {
        let base = vec![
            "campaign".to_owned(),
            "--trials".to_owned(),
            "2".to_owned(),
            "--cycles".to_owned(),
            "6".to_owned(),
        ];
        let mut args = base.clone();
        args.extend(["--trace".to_owned(), "--metrics".to_owned()]);
        let out = run(&args).unwrap();
        assert!(
            out.contains("# scm-trace v1 cmd=campaign clock=cycles"),
            "{out}"
        );
        assert!(out.contains("ev=detect"), "{out}");
        assert!(out.contains("counters:"), "{out}");
        assert!(out.contains("ev.activate"), "{out}");
        let mut args = base.clone();
        args.push("--profile".to_owned());
        let out = run(&args).unwrap();
        assert!(out.contains("profile: phase=campaign-fan-out"), "{out}");
        assert!(out.contains("profile: phase=total"), "{out}");
        // Without the flags the classical stdout stays untouched.
        let plain = run(&base).unwrap();
        assert!(!plain.contains("scm-trace"), "{plain}");
        assert!(!plain.contains("profile:"), "{plain}");
    }

    #[test]
    fn trace_file_round_trips_through_summarize_and_chrome() {
        let path = std::env::temp_dir().join("scm-cli-trace-roundtrip.trace");
        let path_s = path.to_str().unwrap().to_owned();
        let out = run(&[
            "campaign".to_owned(),
            "--trials".to_owned(),
            "2".to_owned(),
            "--cycles".to_owned(),
            "6".to_owned(),
            format!("--trace={path_s}"),
            "--metrics".to_owned(),
        ])
        .unwrap();
        assert!(out.contains("trace -> "), "{out}");
        // summarize re-aggregates the file into the very table
        // --metrics printed when the trace was recorded.
        let summarized =
            run(&["trace".to_owned(), "summarize".to_owned(), path_s.clone()]).unwrap();
        let table = |text: &str| text[text.find("counters:").expect("metrics table")..].to_owned();
        assert_eq!(table(&out), table(&summarized));
        let chrome = run(&["trace".to_owned(), "chrome".to_owned(), path_s.clone()]).unwrap();
        assert!(chrome.trim_start().starts_with('['), "{chrome}");
        assert!(chrome.contains("\"ph\": \"i\""), "{chrome}");
        let err = run(&["trace".to_owned(), "summarise".to_owned(), path_s]).unwrap_err();
        assert!(err.contains("did you mean 'summarize'?"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn explore_trace_implies_guided_and_emits_rung_prunes() {
        let out = run(&[
            "explore".to_owned(),
            "--trace".to_owned(),
            "--trials".to_owned(),
            "8".to_owned(),
        ])
        .unwrap();
        assert!(out.contains("guided design-space search"), "{out}");
        assert!(out.contains("clock=scenario-trials"), "{out}");
        assert!(out.contains("ev=rung-prune"), "{out}");
    }

    #[test]
    fn cli_trace_is_byte_identical_across_threads() {
        // The trace's determinism contract, enforced on the user-visible
        // surface: `scm campaign --trace` emits the same bytes at any
        // thread count.
        let trace_of = |extra: &[&str]| {
            let mut args: Vec<String> = [
                "campaign",
                "--trials",
                "3",
                "--cycles",
                "8",
                "--fault-model",
                "mix",
                "--scrub-period",
                "4",
                "--trace",
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
            args.extend(extra.iter().map(|s| (*s).to_owned()));
            let out = run(&args).unwrap();
            out[out.find("# scm-trace").expect("trace section")..].to_owned()
        };
        let reference = trace_of(&["--threads", "1"]);
        assert!(reference.contains("ev="), "{reference}");
        for threads in ["2", "4", "8"] {
            assert_eq!(
                trace_of(&["--threads", threads]),
                reference,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn fleet_metrics_fold_lands_in_the_registry() {
        let out = run(&[
            "fleet".to_owned(),
            "--trace".to_owned(),
            "--metrics".to_owned(),
        ])
        .unwrap();
        assert!(
            out.contains("# scm-trace v1 cmd=fleet clock=devices"),
            "{out}"
        );
        assert!(out.contains("fleet.edge.devices"), "{out}");
        assert!(out.contains("fleet.datacenter.strikes"), "{out}");
    }

    #[test]
    fn campaign_selects_models_and_rejects_unknowns() {
        let out = run(&[
            "campaign".to_owned(),
            "--workload".to_owned(),
            "hotspot".to_owned(),
            "--trials".to_owned(),
            "2".to_owned(),
        ])
        .unwrap();
        assert!(out.contains("workload = hotspot"));
        assert!(out.contains("fault-injection campaign"));
        assert!(run(&[
            "campaign".to_owned(),
            "--workload".to_owned(),
            "bogus".to_owned()
        ])
        .is_err());
    }
}
