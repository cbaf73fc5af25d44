//! The end-to-end measurement: set-up, a checked warm-up, then timed
//! passes at 1 and 2 threads, interleaved round by round until the
//! window closes.
//!
//! Estimators (the README has the measurements behind them):
//! * `throughput_Nt` is the median (for `campaign-mix` at 2 threads the
//!   upper decile, see [`rate_quantile`]) over the run's N-thread passes
//!   of each pass's rate rescaled to the reference host speed by the
//!   probe readings either side of it ([`crate::calibrate`]).
//! * `setup_s` is the median of the set-ups, one per round, rescaled
//!   the same way.
//! * `peak_rss_mb` is the high-water mark after the warm-up, one pass
//!   of every input instance at each thread count: what one invocation
//!   of the subcommand needs. Read after hundreds of passes instead, it
//!   wandered by 2 MiB of 14 from run to run with where the allocator's
//!   per-thread arenas had left freed blocks resident.

use crate::calibrate::{Probe, REFERENCE_SPEED};
use crate::stats::{median, quantile};
use crate::workload::{Inputs, PassOutput, ScratchDir, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Thread counts of `throughput_1t` and `throughput_2t`, always set
/// explicitly on the engine (never the ambient default).
pub const THREADS: [usize; 2] = [1, 2];
/// Rounds every run makes, however short its window.
pub const MIN_ROUNDS: usize = 3;
/// The seed whose result digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Result digests of the passes at [`DEFAULT_SEED`], one per input
/// instance, per workload. A speed-only change leaves every one of them
/// unchanged.
pub fn pinned_digests(workload: Workload) -> Vec<u64> {
    match workload {
        Workload::CampaignMix => vec![0xeaff_f70e_0f63_0c31],
        Workload::FleetMixed => vec![
            0xe801_d222_761c_d37f,
            0xf9dd_f524_0207_3de2,
            0x3b64_f123_a254_a2bf,
            0x5c46_81ea_dbe9_26bd,
            0xc174_d4df_d2d4_4a03,
            0x7ec7_e2d3_d26f_2c6c,
            0xf81e_93fe_0ec3_5fc4,
            0x6949_e5f0_5b61_250d,
        ],
        Workload::GuidedMillion => vec![0x1295_afed_3136_c325],
        Workload::CampaignObserved => vec![0x56ff_4600_d427_c4bc],
    }
}

/// The digests a run's passes must reproduce: the pinned ones at the
/// default seed, otherwise whatever each instance's first pass produced.
pub fn expected_digests(workload: Workload, seed: u64) -> Option<Vec<u64>> {
    (seed == DEFAULT_SEED).then(|| pinned_digests(workload))
}

/// Correctness bookkeeping: every pass is an attempted operation, and
/// a pass that errs, changes its digest or changes its work is failed.
#[derive(Debug, Clone, Default)]
pub struct Check {
    expected: Vec<Option<u64>>,
    work: Vec<Option<u64>>,
    /// Passes run.
    pub attempted: u64,
    /// Passes whose result was wrong or missing.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
}

impl Check {
    /// A check over `instances` input instances, against `expected`
    /// (one digest per instance), or against each instance's first pass
    /// if `None`.
    pub fn new(instances: usize, expected: Option<Vec<u64>>) -> Check {
        let expected = match expected {
            Some(digests) => (0..instances).map(|i| digests.get(i).copied()).collect(),
            None => vec![None; instances],
        };
        Check {
            expected,
            work: vec![None; instances],
            ..Check::default()
        }
    }

    /// The digests passes are held to, per instance (once known).
    pub fn expected(&self) -> &[Option<u64>] {
        &self.expected
    }

    /// Count one pass of `instance`; returns its output when it
    /// produced one (a pass with a wrong digest still did its work, so
    /// it still yields its output for timing).
    pub fn record(
        &mut self,
        instance: usize,
        out: Result<PassOutput, String>,
    ) -> Option<PassOutput> {
        self.attempted += 1;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                self.fail(format!("pass failed: {e}"));
                return None;
            }
        };
        let expected = *self.expected[instance].get_or_insert(out.digest);
        let work = *self.work[instance].get_or_insert(out.work);
        if out.digest != expected {
            self.fail(format!(
                "instance {instance}: result digest {:016x} != expected {expected:016x}",
                out.digest
            ));
        } else if out.work != work {
            self.fail(format!(
                "instance {instance}: work {} != first pass's {work}",
                out.work
            ));
        }
        Some(out)
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// No pass failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// What one end-to-end run measured.
#[derive(Debug, Clone)]
pub struct E2e {
    /// Work per second at 1 and 2 threads, at the reference host speed.
    pub throughput: [f64; 2],
    /// Set-up wall time at the reference host speed.
    pub setup_s: f64,
    /// Process high-water mark after the warm-up.
    pub peak_rss_mb: f64,
    /// Raw pass rates at 1 and 2 threads, in run order.
    pub rates: [Vec<f64>; 2],
    /// Host speed (the probe's reading) around each of those passes.
    pub speeds: [Vec<f64>; 2],
    /// Raw set-up wall times, one per round, in run order.
    pub setups: Vec<f64>,
    /// Host speed around each set-up.
    pub setup_speeds: Vec<f64>,
    /// The first, cold set-up.
    pub first_setup_s: f64,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Pass correctness.
    pub check: Check,
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The quantile of a run's rescaled pass rates that `throughput_Nt`
/// reports: the median, except the upper decile for `campaign-mix` at 2
/// threads. That pass is a fork-join of about 7 ms over three slab
/// blocks, so a burst of contention on either core stretches the whole
/// pass while the short probe readings around it miss the burst; a run
/// has hundreds of such passes, and dozens in its upper decile that no
/// burst hit. The other passes are too few or too long for an upper
/// quantile to be steadier than the median (the README has both).
pub fn rate_quantile(workload: Workload, threads: usize) -> f64 {
    if workload == Workload::CampaignMix && threads > 1 {
        0.9
    } else {
        0.5
    }
}

/// The `q`-quantile of `rates` rescaled to the reference host speed.
pub fn normalised_rate(rates: &[f64], speeds: &[f64], q: f64) -> Option<f64> {
    let scaled: Vec<f64> = rates
        .iter()
        .zip(speeds)
        .map(|(r, s)| r * REFERENCE_SPEED / s)
        .collect();
    quantile(&scaled, q)
}

/// Median of `times` rescaled to the reference host speed.
pub fn normalised_time(times: &[f64], speeds: &[f64]) -> Option<f64> {
    let scaled: Vec<f64> = times
        .iter()
        .zip(speeds)
        .map(|(t, s)| t * s / REFERENCE_SPEED)
        .collect();
    median(&scaled)
}

/// Run `workload` for `window`: set up, warm up every input instance at
/// both thread counts (checked, untimed), then rounds, each on the next
/// instance and ending on a whole cycle of instances so that each
/// weighs the same in the medians whatever the rate, of one timed 1-thread and one timed 2-thread pass, their
/// order alternating, each bracketed by host-speed readings at its
/// thread count, with one timed set-up inside the 1-thread bracket. A
/// pass's host speed is the mean of its two readings. `expected`
/// overrides the digests the passes must reproduce.
pub fn measure_e2e(
    workload: Workload,
    seed: u64,
    window: Duration,
    expected: Option<Vec<u64>>,
) -> Result<E2e, String> {
    let dir = Arc::new(ScratchDir::create(workload.name())?);
    let (inputs, first_setup) = timed(|| Inputs::generate(workload, seed, &dir));
    let inputs = inputs?;
    let mut check = Check::new(inputs.instances(), expected);
    for instance in 0..inputs.instances() {
        for threads in THREADS {
            check.record(instance, inputs.pass(threads, instance).map(|r| r.output()));
        }
    }
    let peak_rss_mb = peak_rss_mb()?;
    let mut probe = Probe::new(THREADS[1]);
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut speeds: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut setups = Vec::new();
    let mut setup_speeds = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;
    while round < MIN_ROUNDS
        || start.elapsed() < window
        || !round.is_multiple_of(inputs.instances())
    {
        let order = if round.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        let instance = round % inputs.instances();
        for k in order {
            let threads = THREADS[k];
            let before = probe.speed(threads);
            let setup = if k == 0 {
                let (again, setup) = timed(|| Inputs::generate(workload, seed, &dir));
                again?;
                Some(setup.as_secs_f64())
            } else {
                None
            };
            let (out, elapsed) = timed(|| inputs.pass(threads, instance));
            let speed = (before + probe.speed(threads)) / 2.0;
            if let Some(setup) = setup {
                setups.push(setup);
                setup_speeds.push(speed);
            }
            if let Some(out) = check.record(instance, out.map(|r| r.output())) {
                rates[k].push(out.work as f64 / elapsed.as_secs_f64());
                speeds[k].push(speed);
            }
        }
        round += 1;
    }
    let throughput = [
        normalised_rate(&rates[0], &speeds[0], rate_quantile(workload, THREADS[0])),
        normalised_rate(&rates[1], &speeds[1], rate_quantile(workload, THREADS[1])),
    ];
    let [Some(t1), Some(t2)] = throughput else {
        return Err(check
            .first_failure
            .clone()
            .unwrap_or_else(|| "no pass completed".to_owned()));
    };
    Ok(E2e {
        throughput: [t1, t2],
        setup_s: normalised_time(&setups, &setup_speeds).expect("at least one set-up"),
        peak_rss_mb,
        rates,
        speeds,
        setups,
        setup_speeds,
        first_setup_s: first_setup.as_secs_f64(),
        input_digest: inputs.digest(),
        check,
    })
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Median, quartiles and spread of a sample, for the log.
pub fn describe(values: &[f64]) -> String {
    match (
        quantile(values, 0.25),
        median(values),
        quantile(values, 0.75),
    ) {
        (Some(q1), Some(m), Some(q3)) => format!(
            "n={} min={:.4e} q1={q1:.4e} median={m:.4e} q3={q3:.4e} max={:.4e}",
            values.len(),
            values.iter().copied().fold(f64::INFINITY, f64::min),
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ),
        _ => "n=0".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(digest: u64) -> Result<PassOutput, String> {
        Ok(PassOutput { work: 10, digest })
    }

    #[test]
    fn a_wrong_digest_is_a_counted_failure_not_a_panic() {
        let mut check = Check::new(1, Some(vec![7]));
        assert!(check.record(0, out(7)).is_some());
        assert!(check.record(0, out(8)).is_some(), "timed all the same");
        assert!(check.record(0, Err("boom".to_owned())).is_none());
        assert_eq!((check.attempted, check.failed), (3, 2));
        assert!(!check.correct());
    }

    #[test]
    fn without_a_pin_each_instance_s_first_pass_is_its_reference() {
        let mut check = Check::new(2, None);
        check.record(0, out(3));
        check.record(1, out(4));
        check.record(0, out(3));
        check.record(1, out(4));
        assert!(check.correct());
        check.record(
            0,
            Ok(PassOutput {
                work: 11,
                digest: 3,
            }),
        );
        assert_eq!(check.failed, 1, "changed work is a failure");
    }
}
