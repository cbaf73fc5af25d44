//! Detection-latency measurement: faulty design vs fault-free twin.
//!
//! Both RAMs receive the identical operation stream. Each cycle records
//! whether the faulty design delivered an *erroneous output* (read data or
//! parity bit differing from the twin) and whether any checker raised an
//! error indication. The TSC goal is met on a cycle when an error is
//! accompanied by an indication no later than itself.

use crate::backend::{compare_step, FaultSimBackend};
use crate::design::SelfCheckingRam;
use crate::fault::FaultProcess;
use crate::workload::{Op, OpSource, Workload};

/// Outcome of one measurement run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectionOutcome {
    /// Cycles executed.
    pub cycles_run: u64,
    /// First cycle (0-based) on which the faulty design produced a read
    /// output differing from the twin.
    pub first_error: Option<u64>,
    /// First cycle on which any checker raised an indication.
    pub first_detection: Option<u64>,
}

impl DetectionOutcome {
    /// Fault detected within `c` cycles of **onset** — the paper's
    /// definition, where latency is counted from the first erroneous
    /// output, not from injection:
    ///
    /// * error at `e`, detection at `d` — within budget iff `d ≤ e + c`
    ///   (boundary included: "within `c` cycles" admits a latency of
    ///   exactly `c`);
    /// * detection but no erroneous output — trivially within budget for
    ///   any `c` (the checkers spoke before the fault ever corrupted an
    ///   output, the TSC ideal);
    /// * no detection — not within any budget.
    pub fn detected_within(&self, c: u64) -> bool {
        match (self.first_detection, self.first_error) {
            (Some(d), Some(e)) => d <= e.saturating_add(c),
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Did an erroneous output reach the system strictly before the first
    /// indication (the TSC-goal violation this scheme trades against cost)?
    pub fn error_escaped(&self) -> bool {
        match (self.first_error, self.first_detection) {
            (Some(e), Some(d)) => e < d,
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Detection latency of a detected trial, counted from *true* onset:
    /// the silent-corruption instant when `process` has one (a transient
    /// flip), the first erroneous output otherwise — exactly the paper's
    /// definition for permanents. `None` when the trial went undetected.
    pub fn onset_latency(&self, process: &FaultProcess) -> Option<u64> {
        let d = self.first_detection?;
        let observed = self.first_error.unwrap_or(d);
        let onset = process
            .corruption_onset()
            .map_or(observed, |a| a.min(observed))
            .min(d);
        Some(d - onset)
    }

    /// Detection latency measured from the first error, when both exist.
    pub fn latency_from_error(&self) -> Option<u64> {
        match (self.first_error, self.first_detection) {
            (Some(e), Some(d)) if d >= e => Some(d - e),
            _ => None,
        }
    }
}

/// One trial outcome as a trace holds it between an executor pass and
/// event assembly: 16 bytes instead of a [`DetectionOutcome`]'s 40, with
/// `u64::MAX` for "never" (no cycle index reaches it). `cycles_run` is
/// implied: detection cycle + 1, else the full horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedOutcome {
    first_error: u64,
    first_detection: u64,
}

impl PackedOutcome {
    /// Pack an outcome whose trial stopped at detection (or ran the
    /// horizon).
    pub fn pack(out: &DetectionOutcome) -> Self {
        PackedOutcome {
            first_error: out.first_error.unwrap_or(u64::MAX),
            first_detection: out.first_detection.unwrap_or(u64::MAX),
        }
    }

    /// The outcome back, for a trial horizon of `cycles`.
    pub fn unpack(self, cycles: u64) -> DetectionOutcome {
        let some = |c: u64| (c != u64::MAX).then_some(c);
        let first_detection = some(self.first_detection);
        DetectionOutcome {
            cycles_run: first_detection.map_or(cycles, |d| d + 1),
            first_error: some(self.first_error),
            first_detection,
        }
    }
}

/// Run `cycles` operations from `workload` against any
/// [`FaultSimBackend`], recording first-error and first-detection cycles.
///
/// The backend must already be [`reset`](FaultSimBackend::reset) into its
/// faulted (or fault-free) state. Measurement stops at the first
/// detection: the error indication is latched, so later cycles carry no
/// information.
///
/// Any [`OpSource`] drives the measurement — a concrete [`Workload`] or a
/// stream fabricated by a [`crate::workload::WorkloadModel`]. The source
/// is consumed as fresh operations and may be advanced past `cycles_run`
/// when the backend batches (bursts draw their ops up front); construct a
/// new seeded stream per measurement rather than relying on where a
/// shared one left off.
pub fn measure_detection_on<B: FaultSimBackend + ?Sized, S: OpSource + ?Sized>(
    backend: &mut B,
    workload: &mut S,
    cycles: u64,
) -> DetectionOutcome {
    if backend.prefers_batching() {
        return measure_detection_batched(backend, workload, cycles);
    }
    let mut out = DetectionOutcome::default();
    for cycle in 0..cycles {
        let obs = backend.step(workload.next_op());
        if obs.erroneous.unwrap_or(false) && out.first_error.is_none() {
            out.first_error = Some(cycle);
        }
        if obs.detected() && out.first_detection.is_none() {
            out.first_detection = Some(cycle);
        }
        out.cycles_run = cycle + 1;
        if out.first_detection.is_some() {
            break; // latched error indication: measurement complete
        }
    }
    out
}

/// Batched variant for backends whose [`step_many`] is cheaper than
/// stepping (the gate backend's 64-lane sweeps): drive up to 64 cycles per
/// burst, then scan the observations in order so the outcome — including
/// the early stop at first detection — is identical to the serial loop.
///
/// [`step_many`]: FaultSimBackend::step_many
fn measure_detection_batched<B: FaultSimBackend + ?Sized, S: OpSource + ?Sized>(
    backend: &mut B,
    workload: &mut S,
    cycles: u64,
) -> DetectionOutcome {
    let mut out = DetectionOutcome::default();
    let mut cycle = 0u64;
    while cycle < cycles {
        let burst = (cycles - cycle).min(64) as usize;
        let ops: Vec<Op> = (0..burst).map(|_| workload.next_op()).collect();
        for obs in backend.step_many(&ops) {
            if obs.erroneous.unwrap_or(false) && out.first_error.is_none() {
                out.first_error = Some(cycle);
            }
            if obs.detected() && out.first_detection.is_none() {
                out.first_detection = Some(cycle);
            }
            cycle += 1;
            out.cycles_run = cycle;
            if out.first_detection.is_some() {
                return out;
            }
        }
    }
    out
}

/// Run `cycles` operations from `workload` against both designs.
///
/// The twin must be in the same pre-fault state as the faulty design
/// (callers typically clone after prefill, then inject). This is the
/// borrowed-pair convenience form of [`measure_detection_on`] over the
/// behavioural model.
pub fn measure_detection(
    faulty: &mut SelfCheckingRam,
    golden: &mut SelfCheckingRam,
    workload: &mut Workload,
    cycles: u64,
) -> DetectionOutcome {
    struct Pair<'a> {
        faulty: &'a mut SelfCheckingRam,
        golden: &'a mut SelfCheckingRam,
    }
    impl FaultSimBackend for Pair<'_> {
        fn name(&self) -> &'static str {
            "behavioral-pair"
        }
        fn config(&self) -> &crate::design::RamConfig {
            self.faulty.config()
        }
        fn supports(&self, scenario: &crate::fault::FaultScenario) -> bool {
            // The borrowed pair has no activation clock of its own: only
            // the classical injected-at-reset model is realisable.
            matches!(
                scenario.process,
                crate::fault::FaultProcess::Permanent { onset: 0 }
            )
        }
        fn reset(&mut self, scenario: Option<&crate::fault::FaultScenario>) {
            // The borrowed pair owns no pristine copy: callers prepared the
            // memory state; only the injected fault is resettable.
            self.faulty.clear_fault();
            if let Some(s) = scenario {
                assert!(
                    self.supports(s),
                    "the borrowed pair realises only permanent injected-at-reset faults"
                );
                self.faulty.inject(s.site);
            }
        }
        fn step(&mut self, op: Op) -> crate::backend::CycleObservation {
            compare_step(self.faulty, self.golden, op)
        }
    }
    measure_detection_on(&mut Pair { faulty, golden }, workload, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder_unit::DecoderFault;
    use crate::design::RamConfig;
    use crate::fault::FaultSite;
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

    fn prefilled() -> SelfCheckingRam {
        let mut ram = SelfCheckingRam::new(config());
        for addr in 0..64u64 {
            ram.write(addr, addr.wrapping_mul(0x9E) & 0xFF);
        }
        ram
    }

    #[test]
    fn batched_measurement_identical_to_serial() {
        use crate::backend::{CycleObservation, GateLevelBackend};
        use crate::campaign::decoder_fault_universe;

        /// Delegating wrapper that opts out of batching, forcing the
        /// serial loop over the very same backend.
        struct Serial<'a>(&'a mut GateLevelBackend);
        impl FaultSimBackend for Serial<'_> {
            fn name(&self) -> &'static str {
                "gate-serial"
            }
            fn config(&self) -> &RamConfig {
                self.0.config()
            }
            fn supports(&self, scenario: &crate::fault::FaultScenario) -> bool {
                self.0.supports(scenario)
            }
            fn reset(&mut self, scenario: Option<&crate::fault::FaultScenario>) {
                self.0.reset(scenario)
            }
            fn step(&mut self, op: crate::workload::Op) -> CycleObservation {
                self.0.step(op)
            }
        }

        let mut gate = GateLevelBackend::try_new(&config()).unwrap();
        assert!(gate.prefers_batching());
        for fault in decoder_fault_universe(4) {
            let site = FaultSite::RowDecoder(fault);
            // Cycle counts straddling the 64-lane burst boundary.
            for cycles in [1u64, 63, 64, 65, 200] {
                gate.reset_site(Some(site));
                let mut w = Workload::uniform(64, 8, 17);
                let batched = measure_detection_on(&mut gate, &mut w, cycles);
                gate.reset_site(Some(site));
                let mut w = Workload::uniform(64, 8, 17);
                let serial = measure_detection_on(&mut Serial(&mut gate), &mut w, cycles);
                assert_eq!(batched, serial, "{site:?} over {cycles} cycles");
            }
        }
    }

    #[test]
    fn detected_within_counts_from_error_onset() {
        let out = |e: Option<u64>, d: Option<u64>| DetectionOutcome {
            cycles_run: 100,
            first_error: e,
            first_detection: d,
        };
        // Error at 5, budget c = 3: detection at 8 (= e + c) is the
        // boundary and counts as within; 9 does not.
        assert!(out(Some(5), Some(8)).detected_within(3));
        assert!(!out(Some(5), Some(9)).detected_within(3));
        // c = 0 demands same-cycle detection.
        assert!(out(Some(5), Some(5)).detected_within(0));
        assert!(!out(Some(5), Some(6)).detected_within(0));
        // Detection *before* the first error is within any budget —
        // previously this was (wrongly) judged against cycle 0.
        assert!(out(Some(50), Some(2)).detected_within(0));
        // Detection with no error at all: the TSC ideal, within budget.
        assert!(out(None, Some(99)).detected_within(0));
        // No detection: never within budget, erroneous or not.
        assert!(!out(Some(0), None).detected_within(1_000_000));
        assert!(!out(None, None).detected_within(1_000_000));
        // Saturation: a huge budget with a late error must not overflow.
        assert!(out(Some(u64::MAX - 1), Some(u64::MAX)).detected_within(u64::MAX));
    }

    #[test]
    fn fault_free_pair_never_flags() {
        let mut golden = prefilled();
        let mut faulty = golden.clone();
        let mut w = Workload::uniform(64, 8, 11);
        let out = measure_detection(&mut faulty, &mut golden, &mut w, 500);
        assert_eq!(out.first_error, None);
        assert_eq!(out.first_detection, None);
        assert_eq!(out.cycles_run, 500);
    }

    #[test]
    fn sa0_detected_with_zero_error_escape() {
        let mut golden = prefilled();
        let mut faulty = golden.clone();
        faulty.inject(FaultSite::RowDecoder(DecoderFault {
            bits: 4,
            offset: 0,
            value: 3,
            stuck_one: false,
        }));
        let mut w = Workload::uniform(64, 8, 5);
        let out = measure_detection(&mut faulty, &mut golden, &mut w, 10_000);
        assert!(out.first_detection.is_some(), "SA0 must eventually be hit");
        assert!(!out.error_escaped(), "SA0 errors are caught the same cycle");
    }

    #[test]
    fn undetectable_collision_never_flags_but_errs() {
        // Rows 1 and 10 share a codeword under a = 9 with 16 rows (the
        // completion fix gives row 9 the spare word): the SA1 on row-1's
        // line escapes exactly while only row 10 is addressed.
        let golden = prefilled();
        let mut faulty = golden.clone();
        faulty.inject(FaultSite::RowDecoder(DecoderFault {
            bits: 4,
            offset: 0,
            value: 1,
            stuck_one: true,
        }));
        let mut out = DetectionOutcome::default();
        for cycle in 0..50u64 {
            let addr = 10 * 4; // row 10, column 0 — collides with row 1
            let f = faulty.read(addr);
            let g = golden.read(addr);
            if f.data != g.data && out.first_error.is_none() {
                out.first_error = Some(cycle);
            }
            if f.verdict.any_error() {
                out.first_detection = Some(cycle);
                break;
            }
        }
        assert_eq!(
            out.first_detection, None,
            "colliding rows are the blind spot"
        );
    }

    #[test]
    fn detection_latency_statistics_reasonable() {
        // SA1 on a line of the 4-bit row block with a = 9: per-cycle escape
        // ≈ 1/8 per the paper; detection should be fast under uniform
        // addressing.
        let mut latencies = Vec::new();
        for seed in 0..20u64 {
            let mut golden = prefilled();
            let mut faulty = golden.clone();
            faulty.inject(FaultSite::RowDecoder(DecoderFault {
                bits: 4,
                offset: 0,
                value: 0,
                stuck_one: true,
            }));
            let mut w = Workload::uniform(64, 8, seed);
            let out = measure_detection(&mut faulty, &mut golden, &mut w, 10_000);
            let d = out
                .first_detection
                .expect("should detect under uniform addressing");
            latencies.push(d);
        }
        let mean = latencies.iter().sum::<u64>() as f64 / latencies.len() as f64;
        // Detection probability per cycle ≈ 14/16 (a random row differs from
        // row 0 mod 9 in 14 of 16 cases): mean ≈ 1.14 cycles. Allow slack.
        assert!(mean < 5.0, "mean latency {mean} suspiciously high");
    }
}
