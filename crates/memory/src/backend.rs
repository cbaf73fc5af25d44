//! Fault-simulation backends: one interface over the behavioural RAM
//! simulator and the gate-level netlist simulator.
//!
//! Detection-latency measurement ([`crate::sim::measure_detection_on`]),
//! the Monte-Carlo campaigns ([`crate::engine::CampaignEngine`]) and the
//! cross-model validation tests all drive a [`FaultSimBackend`]: reset it
//! to a pre-fault state with a [`FaultScenario`] loaded, feed it the
//! workload's operation stream, observe per-cycle error/detection
//! behaviour. A scenario is a **site × temporal process**: the classical
//! injected-at-reset stuck-at is `FaultProcess::Permanent { onset: 0 }`,
//! and the backends additionally realise delayed-onset permanents,
//! one-shot transient flips, duty-cycled intermittents and cell-coupling
//! defects, all indexed on the cycle clock that restarts at `reset`.
//!
//! Two implementations ship:
//!
//! * [`BehavioralBackend`] — the cycle-level [`SelfCheckingRam`] run
//!   against a fault-free twin on the same stream. Observes both
//!   *erroneous outputs* (data/parity differing from the twin) and
//!   checker indications. This is the campaign workhorse: O(1) per cycle.
//!   State-resident corruption (a transient flip in a cell, a coupling
//!   victim) additionally heals on **detect-and-restore**: the cycle a
//!   read raises an indication, the addressed word is restored from the
//!   reference image — the recovery step the system context performs on
//!   detection, which is what lets scrub reads genuinely clear soft
//!   errors.
//! * [`GateLevelBackend`] — the actual generated hardware of the checking
//!   path (multilevel decoder → NOR matrix → `q`-out-of-`r` checker) for
//!   both address decoders, with the stuck-at injected on the exact
//!   generated signal only while the scenario's process pins it. Ground
//!   truth for decoder faults; batches cycles 64-at-a-time through
//!   [`Netlist::eval64`] since the path is combinational, splitting
//!   bursts at activation-window boundaries so batching honours the
//!   temporal process exactly. It does not model the cell array, so it
//!   reports checker verdicts only (`erroneous` is [`None`]).

use crate::decoder_unit::DecoderFault;
use crate::design::{RamConfig, SelfCheckingRam, Verdict};
use crate::fault::{CellRef, FaultProcess, FaultScenario, FaultSite};
use crate::workload::Op;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scm_checkers::{Checker, MOutOfNChecker};
use scm_codes::{CodewordMap, MOutOfN, TwoRail};
use scm_decoder::fault_map::fault_sites;
use scm_decoder::{build_multilevel_decoder, DecoderFaultSite};
use scm_logic::{Fault, Netlist, SignalId};
use scm_rom::RomMatrix;

/// What a backend observed on one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleObservation {
    /// Did the cycle deliver an erroneous output to the system?
    /// [`None`] when the backend cannot observe the data path.
    pub erroneous: Option<bool>,
    /// Checker outputs for the cycle (backends that cannot evaluate a
    /// checker report its field as `false`).
    pub verdict: Verdict,
}

impl CycleObservation {
    /// Any checker raised an error indication this cycle.
    pub fn detected(&self) -> bool {
        self.verdict.any_error()
    }
}

/// A simulation model that can run fault-injection trials.
pub trait FaultSimBackend {
    /// Backend name for reports and test diagnostics.
    fn name(&self) -> &'static str;

    /// The simulated design's configuration (geometry + mappings).
    fn config(&self) -> &RamConfig;

    /// Can this backend realise the given scenario?
    fn supports(&self, scenario: &FaultScenario) -> bool;

    /// Restore the pre-fault state, load `scenario` (`None` for a
    /// fault-free run) and restart the activation clock at cycle 0.
    ///
    /// # Panics
    /// Panics if the scenario is not [supported](Self::supports).
    fn reset(&mut self, scenario: Option<&FaultScenario>);

    /// Convenience for the classical model: reset with `fault` pinned
    /// from cycle 0 (`FaultProcess::Permanent { onset: 0 }`) — the exact
    /// semantics of the historical `Option<FaultSite>` contract.
    fn reset_site(&mut self, fault: Option<FaultSite>) {
        let scenario = fault.map(FaultScenario::permanent);
        self.reset(scenario.as_ref());
    }

    /// Execute one operation and report what happened.
    fn step(&mut self, op: Op) -> CycleObservation;

    /// Advance the activation clock by `cycles` without executing an
    /// operation — how a multi-bank scheduler keeps a bank's temporal
    /// process on the *global* clock while other banks consume the
    /// cycles. A one-shot flip whose instant falls inside the skipped
    /// window is applied before the next observation (observationally
    /// identical, since nothing reads the bank in between). The default
    /// is a no-op, correct for purely permanent backends.
    fn advance(&mut self, cycles: u64) {
        let _ = cycles;
    }

    /// Execute a burst of operations.
    ///
    /// The default implementation steps serially; combinational backends
    /// override it with bit-parallel sweeps. Semantics must be identical
    /// to repeated [`step`](Self::step) calls.
    fn step_many(&mut self, ops: &[Op]) -> Vec<CycleObservation> {
        ops.iter().map(|&op| self.step(op)).collect()
    }

    /// Should measurement drive this backend through
    /// [`step_many`](Self::step_many) bursts? `false` for stateful
    /// backends, where the serial loop's early exit at first detection
    /// saves work; `true` when batched evaluation beats per-op stepping.
    fn prefers_batching(&self) -> bool {
        false
    }
}

/// Compare one operation on the faulty design against the fault-free twin.
fn compare_step(
    faulty: &mut SelfCheckingRam,
    golden: &mut SelfCheckingRam,
    op: Op,
) -> CycleObservation {
    match op {
        Op::Read(addr) => {
            let f = faulty.read(addr);
            let g = golden.read(addr);
            CycleObservation {
                erroneous: Some(f.data != g.data || f.parity_bit != g.parity_bit),
                verdict: f.verdict,
            }
        }
        Op::Write(addr, value) => {
            let fv = faulty.write(addr, value);
            let _ = golden.write(addr, value);
            // A write delivers no data to the system; only the checkers
            // speak.
            CycleObservation {
                erroneous: Some(false),
                verdict: fv,
            }
        }
    }
}

/// The behavioural RAM simulator paired with a fault-free twin.
#[derive(Debug, Clone)]
pub struct BehavioralBackend {
    base: SelfCheckingRam,
    // Populated lazily: the engine clones the whole backend once per
    // trial block, and eager twin copies here would triple that cost
    // only to be overwritten by the first `reset`.
    faulty: Option<SelfCheckingRam>,
    golden: Option<SelfCheckingRam>,
    scenario: Option<FaultScenario>,
    cycle: u64,
    /// The scenario's site is currently injected into `faulty`.
    pinned: bool,
    /// The one-shot state flip already happened.
    fired: bool,
}

impl BehavioralBackend {
    /// Backend over a zero-initialised RAM.
    pub fn new(config: &RamConfig) -> Self {
        Self::from_state(SelfCheckingRam::new(config.clone()))
    }

    /// Backend whose pre-fault state is a deterministic random fill
    /// (the campaign convention: every word written once from a seeded
    /// stream).
    pub fn prefilled(config: &RamConfig, seed: u64) -> Self {
        let mut base = SelfCheckingRam::new(config.clone());
        let org = config.org();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mask = if org.word_bits() >= 64 {
            u64::MAX
        } else {
            (1u64 << org.word_bits()) - 1
        };
        for addr in 0..org.words() {
            base.write(addr, rng.gen::<u64>() & mask);
        }
        Self::from_state(base)
    }

    /// Backend whose pre-fault state is an explicitly prepared RAM.
    pub fn from_state(base: SelfCheckingRam) -> Self {
        BehavioralBackend {
            base,
            faulty: None,
            golden: None,
            scenario: None,
            cycle: 0,
            pinned: false,
            fired: false,
        }
    }

    /// The faulty design (for instrumentation); the pre-fault state if
    /// the backend has not stepped since its last reset.
    pub fn faulty(&self) -> &SelfCheckingRam {
        self.faulty.as_ref().unwrap_or(&self.base)
    }

    /// The fault-free twin (for instrumentation and differential tests);
    /// the pre-fault state if the backend has not stepped since reset.
    pub fn golden(&self) -> &SelfCheckingRam {
        self.golden.as_ref().unwrap_or(&self.base)
    }

    /// Cycles stepped (or skipped via [`advance`]) since the last reset —
    /// the activation clock temporal processes index.
    ///
    /// [`advance`]: FaultSimBackend::advance
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Bring the faulty design's fault state in line with the scenario's
    /// activation window for the current cycle.
    fn sync_activation(&mut self) {
        let Some(scenario) = self.scenario else {
            return;
        };
        let faulty = self.faulty.get_or_insert_with(|| self.base.clone());
        // A transient on a storage cell is state corruption, not a pinned
        // line: flip the stored bit once the instant is reached (a window
        // skipped by `advance` fires here, before the next observation).
        if let (FaultProcess::TransientFlip { at }, FaultSite::Cell { row, col, .. }) =
            (scenario.process, scenario.site)
        {
            if !self.fired && self.cycle >= at {
                faulty.flip_cell(row, col);
                self.fired = true;
            }
            return;
        }
        // Coupling is installed once at reset; corruption rides aggressor
        // writes, never the clock.
        if matches!(scenario.process, FaultProcess::Coupling { .. }) {
            return;
        }
        // Every remaining process pins the site inside its window.
        let pin = scenario.process.pins_site_at(self.cycle);
        if pin != self.pinned {
            if pin {
                faulty.inject(scenario.site);
            } else {
                faulty.clear_fault();
            }
            self.pinned = pin;
        }
    }
}

impl FaultSimBackend for BehavioralBackend {
    fn name(&self) -> &'static str {
        "behavioral"
    }

    fn config(&self) -> &RamConfig {
        self.base.config()
    }

    fn supports(&self, scenario: &FaultScenario) -> bool {
        match scenario.process {
            FaultProcess::Coupling { aggressor, .. } => {
                matches!(scenario.site, FaultSite::Cell { row, col, .. }
                    if CellRef { row, col } != aggressor)
            }
            _ => true,
        }
    }

    fn reset(&mut self, scenario: Option<&FaultScenario>) {
        self.scenario = scenario.copied();
        self.cycle = 0;
        self.pinned = false;
        self.fired = false;
        let mut faulty = self.base.clone();
        if let Some(s) = self.scenario {
            match s.process {
                // The classical model injects eagerly, so the pre-step
                // state is inspectable exactly as it always was.
                FaultProcess::Permanent { onset: 0 } => {
                    faulty.inject(s.site);
                    self.pinned = true;
                }
                FaultProcess::Coupling { aggressor, kind } => {
                    let FaultSite::Cell { row, col, .. } = s.site else {
                        panic!("coupling victim must be a cell, got {}", s.site);
                    };
                    faulty.inject_coupling(CellRef { row, col }, aggressor, kind);
                }
                // Delayed processes activate on the cycle clock.
                _ => {}
            }
        }
        self.faulty = Some(faulty);
        self.golden = Some(self.base.clone());
    }

    fn step(&mut self, op: Op) -> CycleObservation {
        self.sync_activation();
        if self.faulty.is_none() {
            self.faulty = Some(self.base.clone());
        }
        if self.golden.is_none() {
            self.golden = Some(self.base.clone());
        }
        let faulty = self.faulty.as_mut().expect("populated above");
        let golden = self.golden.as_mut().expect("populated above");
        let obs = compare_step(faulty, golden, op);
        // Detect-and-restore: an indication on a read of state-resident
        // corruption triggers the recovery the system context performs
        // (the word is restored from the reference image). Pinned-defect
        // scenarios never restore — the defect would immediately
        // re-corrupt, and pretending otherwise would hide it.
        if obs.detected() && self.scenario.is_some_and(|s| s.corrupts_state()) {
            if let Op::Read(addr) = op {
                faulty.restore_word_from(golden, addr);
            }
        }
        self.cycle += 1;
        obs
    }

    fn advance(&mut self, cycles: u64) {
        self.cycle = self.cycle.saturating_add(cycles);
    }
}

/// One decoder's gate-level checking path: decoder → NOR matrix → checker.
#[derive(Debug, Clone)]
struct CheckingPath {
    netlist: Netlist,
    sites: Vec<DecoderFaultSite>,
    rails: (SignalId, SignalId),
    /// Lane buffer reused across [`Netlist::eval64_into`] sweeps — one
    /// `num_signals()`-sized allocation per path, not per burst.
    scratch: Vec<u64>,
}

impl CheckingPath {
    fn build(address_bits: u32, map: &CodewordMap) -> Result<Self, String> {
        if map.num_lines() != 1u64 << address_bits {
            return Err(format!(
                "mapping covers {} lines but a {address_bits}-bit decoder drives {} \
                 (degenerate geometries like a 1-way mux have no gate-level checking path)",
                map.num_lines(),
                1u64 << address_bits
            ));
        }
        // Recover the q-out-of-r code from the mapping: constant-weight
        // codewords make q observable on any table entry.
        let r = map.width() as u32;
        let q = map.codeword_for(0).count_ones();
        if (0..map.num_lines()).any(|line| map.codeword_for(line).count_ones() != q) {
            return Err(format!(
                "gate-level backend needs a constant-weight mapping, got {}",
                map.code_name()
            ));
        }
        let code = MOutOfN::new(q, r)
            .map_err(|e| format!("mapping width {r} / weight {q} is not a valid code: {e}"))?;
        let mut netlist = Netlist::new();
        let addr = netlist.inputs(address_bits as usize);
        let dec = build_multilevel_decoder(&mut netlist, &addr, 2);
        let rom_outputs = RomMatrix::from_map(map).build_netlist(&mut netlist, dec.outputs());
        let rails = MOutOfNChecker::new(code).build_netlist(&mut netlist, &rom_outputs);
        netlist.expose(rails.0);
        netlist.expose(rails.1);
        let sites = fault_sites(&dec);
        Ok(CheckingPath {
            netlist,
            sites,
            rails,
            scratch: Vec::new(),
        })
    }

    fn signal_for(&self, fault: &DecoderFault) -> Option<Fault> {
        self.sites
            .iter()
            .find(|s| s.bits == fault.bits && s.offset == fault.offset && s.value == fault.value)
            .map(|s| {
                if fault.stuck_one {
                    Fault::stuck_at_1(s.signal)
                } else {
                    Fault::stuck_at_0(s.signal)
                }
            })
    }

    fn flags(&self, value: u64, fault: Option<Fault>) -> bool {
        let eval = self.netlist.eval_word(value, fault);
        TwoRail {
            t: eval.value(self.rails.0),
            f: eval.value(self.rails.1),
        }
        .is_error()
    }

    /// Evaluate up to 64 applied values in one bit-parallel sweep. Takes
    /// `&mut self` only to reuse the lane scratch buffer; the result is a
    /// pure function of `(values, fault)`.
    fn flags_batch(&mut self, values: &[u64], fault: Option<Fault>) -> Vec<bool> {
        assert!(values.len() <= 64, "at most 64 values per sweep");
        let lanes = self.netlist.pack_patterns(values);
        self.netlist.eval64_into(&lanes, fault, &mut self.scratch);
        let t_lane = self.scratch[self.rails.0.index()];
        let f_lane = self.scratch[self.rails.1.index()];
        (0..values.len())
            .map(|k| {
                TwoRail {
                    t: t_lane >> k & 1 == 1,
                    f: f_lane >> k & 1 == 1,
                }
                .is_error()
            })
            .collect()
    }
}

/// The generated checking hardware of both address decoders, simulated at
/// gate level with stuck-ats on the exact generated signals.
#[derive(Debug, Clone)]
pub struct GateLevelBackend {
    config: RamConfig,
    row: CheckingPath,
    col: CheckingPath,
    row_fault: Option<Fault>,
    col_fault: Option<Fault>,
    process: FaultProcess,
    cycle: u64,
}

impl GateLevelBackend {
    /// Build the checking path for `config`'s row and column decoders.
    ///
    /// # Errors
    /// Returns a description when the mappings are not constant-weight
    /// (the `q`-out-of-`r` checker generator cannot realise them).
    pub fn try_new(config: &RamConfig) -> Result<Self, String> {
        let org = config.org();
        let row = CheckingPath::build(org.row_bits(), config.row_map())?;
        let col = CheckingPath::build(org.col_bits().max(1), config.col_map())?;
        Ok(GateLevelBackend {
            config: config.clone(),
            row,
            col,
            row_fault: None,
            col_fault: None,
            process: FaultProcess::PERMANENT,
            cycle: 0,
        })
    }

    /// Gate count of the checking path (both decoders' netlists).
    pub fn num_gates(&self) -> usize {
        self.row.netlist.num_gates() + self.col.netlist.num_gates()
    }

    fn split(&self, addr: u64) -> (u64, u64) {
        self.config.split_address(addr)
    }

    /// Is the loaded fault realised on `cycle`? Combinational sites have
    /// no state, so every process reduces to its activation window.
    fn active_at(&self, cycle: u64) -> bool {
        (self.row_fault.is_some() || self.col_fault.is_some()) && self.process.pins_site_at(cycle)
    }

    fn observe(&self, row_flags: bool, col_flags: bool) -> CycleObservation {
        CycleObservation {
            erroneous: None,
            verdict: Verdict {
                row_code_error: row_flags,
                col_code_error: col_flags,
                parity_error: false,
            },
        }
    }
}

impl FaultSimBackend for GateLevelBackend {
    fn name(&self) -> &'static str {
        "gate-level"
    }

    fn config(&self) -> &RamConfig {
        &self.config
    }

    fn supports(&self, scenario: &FaultScenario) -> bool {
        let site_ok = match &scenario.site {
            FaultSite::RowDecoder(f) => self.row.signal_for(f).is_some(),
            FaultSite::ColDecoder(f) => self.col.signal_for(f).is_some(),
            _ => false,
        };
        // Coupling needs a cell victim, which the site check already
        // excludes; every clock-windowed process is realisable.
        site_ok && !matches!(scenario.process, FaultProcess::Coupling { .. })
    }

    fn reset(&mut self, scenario: Option<&FaultScenario>) {
        self.row_fault = None;
        self.col_fault = None;
        self.process = FaultProcess::PERMANENT;
        self.cycle = 0;
        match scenario {
            None => {}
            Some(s) => {
                match s.site {
                    FaultSite::RowDecoder(f) => {
                        self.row_fault = Some(
                            self.row
                                .signal_for(&f)
                                .unwrap_or_else(|| panic!("no gate-level site for {f:?}")),
                        );
                    }
                    FaultSite::ColDecoder(f) => {
                        self.col_fault = Some(
                            self.col
                                .signal_for(&f)
                                .unwrap_or_else(|| panic!("no gate-level site for {f:?}")),
                        );
                    }
                    other => panic!("gate-level backend cannot inject {other:?}"),
                }
                assert!(
                    !matches!(s.process, FaultProcess::Coupling { .. }),
                    "gate-level backend cannot realise coupling processes"
                );
                self.process = s.process;
            }
        }
    }

    fn step(&mut self, op: Op) -> CycleObservation {
        let (rv, cv) = self.split(op.addr());
        let (rf, cf) = if self.active_at(self.cycle) {
            (self.row_fault, self.col_fault)
        } else {
            (None, None)
        };
        self.cycle += 1;
        self.observe(self.row.flags(rv, rf), self.col.flags(cv, cf))
    }

    fn advance(&mut self, cycles: u64) {
        self.cycle = self.cycle.saturating_add(cycles);
    }

    fn prefers_batching(&self) -> bool {
        true
    }

    /// Bit-parallel burst: the checking path is combinational, so up to
    /// 64 cycles collapse into one [`Netlist::eval64`] sweep per decoder.
    /// Bursts split at activation-window boundaries, so a temporal
    /// process (delayed onset, transient glitch, intermittent duty
    /// cycle) is honoured bit-exactly by the batched path.
    fn step_many(&mut self, ops: &[Op]) -> Vec<CycleObservation> {
        let mut out = Vec::with_capacity(ops.len());
        let mut i = 0usize;
        while i < ops.len() {
            let active = self.active_at(self.cycle);
            let mut len = 1usize;
            while len < 64
                && i + len < ops.len()
                && self.active_at(self.cycle + len as u64) == active
            {
                len += 1;
            }
            let chunk = &ops[i..i + len];
            let (rvs, cvs): (Vec<u64>, Vec<u64>) =
                chunk.iter().map(|op| self.split(op.addr())).unzip();
            let (rf, cf) = if active {
                (self.row_fault, self.col_fault)
            } else {
                (None, None)
            };
            let row_flags = self.row.flags_batch(&rvs, rf);
            let col_flags = self.col.flags_batch(&cvs, cf);
            for (r, c) in row_flags.into_iter().zip(col_flags) {
                out.push(self.observe(r, c));
            }
            self.cycle += len as u64;
            i += len;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CouplingKind;
    use scm_area::RamOrganization;

    fn config() -> RamConfig {
        let org = RamOrganization::new(64, 8, 4);
        let code = MOutOfN::new(3, 5).unwrap();
        RamConfig::new(
            org,
            CodewordMap::mod_a(code, 9, 16).unwrap(),
            CodewordMap::mod_a(code, 9, 4).unwrap(),
        )
    }

    fn all_decoder_faults() -> Vec<FaultSite> {
        crate::campaign::decoder_fault_universe(4)
            .into_iter()
            .map(FaultSite::RowDecoder)
            .collect()
    }

    #[test]
    fn behavioral_reset_restores_prefill() {
        let mut b = BehavioralBackend::prefilled(&config(), 7);
        let before = b.faulty().read(5).data;
        b.reset_site(Some(FaultSite::DataRegisterBit {
            bit: 0,
            stuck: true,
        }));
        let _ = b.step(Op::Write(5, 0));
        b.reset(None);
        assert_eq!(b.faulty().read(5).data, before, "reset must undo writes");
        assert_eq!(b.faulty().fault(), None, "reset(None) must clear the fault");
    }

    #[test]
    fn gate_backend_supports_exactly_decoder_faults() {
        let backend = GateLevelBackend::try_new(&config()).unwrap();
        for site in all_decoder_faults() {
            assert!(backend.supports(&site.into()), "{site:?}");
        }
        assert!(!backend.supports(
            &FaultSite::Cell {
                row: 0,
                col: 0,
                stuck: true
            }
            .into()
        ));
        assert!(!backend.supports(
            &FaultSite::DataRegisterBit {
                bit: 0,
                stuck: false
            }
            .into()
        ));
    }

    #[test]
    fn gate_fault_free_run_is_silent() {
        let mut backend = GateLevelBackend::try_new(&config()).unwrap();
        backend.reset(None);
        for addr in 0..64u64 {
            assert!(!backend.step(Op::Read(addr)).detected(), "addr {addr}");
        }
    }

    #[test]
    fn gate_step_many_matches_serial_steps() {
        let mut backend = GateLevelBackend::try_new(&config()).unwrap();
        let ops: Vec<Op> = (0..64u64).chain(0..64).map(Op::Read).collect();
        for site in all_decoder_faults() {
            backend.reset_site(Some(site));
            let batched = backend.step_many(&ops);
            backend.reset_site(Some(site));
            let serial: Vec<CycleObservation> = ops.iter().map(|&op| backend.step(op)).collect();
            assert_eq!(batched, serial, "{site:?}");
        }
    }

    #[test]
    fn gate_step_many_honours_activation_windows() {
        // Windows that straddle and subdivide the 64-lane bursts: the
        // batched path must split at every boundary and agree with the
        // serial loop bit-exactly.
        let mut backend = GateLevelBackend::try_new(&config()).unwrap();
        let ops: Vec<Op> = (0..64u64).chain(0..64).chain(0..32).map(Op::Read).collect();
        let site = all_decoder_faults()[3];
        for process in [
            FaultProcess::Permanent { onset: 70 },
            FaultProcess::TransientFlip { at: 65 },
            FaultProcess::Intermittent {
                onset: 3,
                period: 7,
                duty: 2,
            },
        ] {
            let scenario = FaultScenario { site, process };
            backend.reset(Some(&scenario));
            let batched = backend.step_many(&ops);
            backend.reset(Some(&scenario));
            let serial: Vec<CycleObservation> = ops.iter().map(|&op| backend.step(op)).collect();
            assert_eq!(batched, serial, "{scenario}");
        }
    }

    #[test]
    fn gate_and_behavioral_agree_on_code_verdicts() {
        let cfg = config();
        let mut gate = GateLevelBackend::try_new(&cfg).unwrap();
        let mut beh = BehavioralBackend::prefilled(&cfg, 99);
        for site in all_decoder_faults() {
            gate.reset_site(Some(site));
            beh.reset_site(Some(site));
            for addr in 0..64u64 {
                let g = gate.step(Op::Read(addr));
                let b = beh.step(Op::Read(addr));
                assert_eq!(
                    g.verdict.row_code_error, b.verdict.row_code_error,
                    "{site:?} addr {addr}"
                );
                assert_eq!(
                    g.verdict.col_code_error, b.verdict.col_code_error,
                    "{site:?} addr {addr}"
                );
            }
        }
    }

    #[test]
    fn delayed_onset_pins_nothing_before_its_cycle() {
        let cfg = config();
        let site = FaultSite::RowDecoder(DecoderFault {
            bits: 4,
            offset: 0,
            value: 5,
            stuck_one: false,
        });
        let mut b = BehavioralBackend::prefilled(&cfg, 3);
        b.reset(Some(&FaultScenario {
            site,
            process: FaultProcess::Permanent { onset: 4 },
        }));
        // Reading the stuck row before onset is clean; from onset the SA0
        // collapse flags the same cycle.
        for cycle in 0..8u64 {
            let obs = b.step(Op::Read(5 * 4));
            assert_eq!(obs.detected(), cycle >= 4, "cycle {cycle}");
        }
    }

    #[test]
    fn transient_cell_flip_corrupts_heals_on_detection_and_stays_healed() {
        let cfg = config();
        let mut b = BehavioralBackend::prefilled(&cfg, 11);
        // Word (row 2, col-select 1): bit group 0 lives at physical
        // column 0*4 + 1.
        let addr = 2 * 4 + 1;
        let clean = b.faulty().read(addr).data;
        b.reset(Some(&FaultScenario::transient(
            FaultSite::Cell {
                row: 2,
                col: 1,
                stuck: false,
            },
            3,
        )));
        // Before the flip: differentially silent.
        for _ in 0..3 {
            let obs = b.step(Op::Read(addr));
            assert_eq!(obs.erroneous, Some(false));
            assert!(!obs.detected());
        }
        // The flip cycle: wrong data *and* a parity indication, which
        // triggers detect-and-restore.
        let obs = b.step(Op::Read(addr));
        assert_eq!(obs.erroneous, Some(true));
        assert!(obs.verdict.parity_error, "single-bit flip trips parity");
        // Healed: the word matches the twin again, cycle by cycle.
        for _ in 0..4 {
            let obs = b.step(Op::Read(addr));
            assert_eq!(obs.erroneous, Some(false));
            assert!(!obs.detected());
        }
        assert_eq!(b.faulty().read(addr).data, clean);
    }

    #[test]
    fn transient_flip_cleared_by_rewrite_without_any_read() {
        let cfg = config();
        let mut b = BehavioralBackend::prefilled(&cfg, 11);
        let addr = 2 * 4 + 1;
        b.reset(Some(&FaultScenario::transient(
            FaultSite::Cell {
                row: 2,
                col: 1,
                stuck: false,
            },
            0,
        )));
        let _ = b.step(Op::Write(addr, 0x5A));
        let obs = b.step(Op::Read(addr));
        assert_eq!(obs.erroneous, Some(false), "a rewrite clears the flip");
        assert!(!obs.detected());
    }

    #[test]
    fn intermittent_cell_flags_only_inside_active_windows() {
        let cfg = config();
        let mut b = BehavioralBackend::prefilled(&cfg, 5);
        let addr = 2 * 4 + 1;
        // Pick the polarity opposite to the stored bit so every active
        // window genuinely corrupts the read.
        let stored = b.faulty().read(addr).data & 1 == 1;
        b.reset(Some(&FaultScenario {
            site: FaultSite::Cell {
                row: 2,
                col: 1,
                stuck: !stored,
            },
            process: FaultProcess::Intermittent {
                onset: 2,
                period: 4,
                duty: 2,
            },
        }));
        for cycle in 0..12u64 {
            let obs = b.step(Op::Read(addr));
            let active = cycle >= 2 && (cycle - 2) % 4 < 2;
            assert_eq!(obs.detected(), active, "cycle {cycle}");
            assert_eq!(obs.erroneous, Some(active), "cycle {cycle}");
        }
    }

    #[test]
    fn coupling_victim_corrupts_on_aggressor_transition_only() {
        let cfg = config();
        let mut b = BehavioralBackend::prefilled(&cfg, 21);
        // Victim word (row 1, col-select 0) bit 0 = physical col 0;
        // aggressor word (row 3, col-select 2) bit 0 = physical col 2.
        let victim_addr = 4;
        let aggressor_addr = 3 * 4 + 2;
        let scenario = FaultScenario {
            site: FaultSite::Cell {
                row: 1,
                col: 0,
                stuck: false,
            },
            process: FaultProcess::Coupling {
                aggressor: CellRef { row: 3, col: 2 },
                kind: CouplingKind::Inversion,
            },
        };
        assert!(b.supports(&scenario));
        b.reset(Some(&scenario));
        let current = b.faulty().read(aggressor_addr).data;
        let before = current & 1;
        // Rewriting the aggressor's current value is not a transition.
        let _ = b.step(Op::Write(aggressor_addr, current));
        let obs = b.step(Op::Read(victim_addr));
        assert_eq!(obs.erroneous, Some(false), "no transition, no corruption");
        // A genuine transition flips the victim, caught by parity on the
        // victim's next read (and then detect-and-restore heals it).
        let _ = b.step(Op::Write(aggressor_addr, (before ^ 1) & 1));
        let obs = b.step(Op::Read(victim_addr));
        assert_eq!(obs.erroneous, Some(true));
        assert!(obs.verdict.parity_error);
        let obs = b.step(Op::Read(victim_addr));
        assert_eq!(obs.erroneous, Some(false), "restored after detection");
    }

    #[test]
    fn advance_keeps_the_activation_clock_global() {
        let cfg = config();
        let addr = 2 * 4 + 1;
        let mut b = BehavioralBackend::prefilled(&cfg, 11);
        b.reset(Some(&FaultScenario::transient(
            FaultSite::Cell {
                row: 2,
                col: 1,
                stuck: false,
            },
            10,
        )));
        // Five stepped cycles, five skipped: the flip instant (10) falls
        // in the skipped window and must fire before the next read.
        for _ in 0..5 {
            let obs = b.step(Op::Read(addr));
            assert!(!obs.detected());
        }
        b.advance(5);
        assert_eq!(b.cycle(), 10);
        let obs = b.step(Op::Read(addr));
        assert_eq!(obs.erroneous, Some(true), "flip fired during the skip");
    }

    #[test]
    fn one_way_mux_rejected_with_err_not_panic() {
        // col_bits = 0 degenerates to a 1-bit column decoder driving two
        // lines, but the column mapping covers only one — the documented
        // Err contract, not a panic inside netlist construction.
        let org = RamOrganization::new(64, 8, 1);
        let code = MOutOfN::new(3, 5).unwrap();
        let cfg = RamConfig::new(
            org,
            CodewordMap::mod_a(code, 9, 64).unwrap(),
            CodewordMap::mod_a(code, 9, 1).unwrap(),
        );
        let err = GateLevelBackend::try_new(&cfg).unwrap_err();
        assert!(err.contains("1-bit decoder"), "{err}");
    }

    #[test]
    fn berger_mapping_rejected_with_explanation() {
        let org = RamOrganization::new(64, 8, 4);
        let row_map = CodewordMap::berger(4, 16).unwrap();
        let col_map = CodewordMap::mod_a(MOutOfN::new(3, 5).unwrap(), 9, 4).unwrap();
        let cfg = RamConfig::new(org, row_map, col_map);
        let err = GateLevelBackend::try_new(&cfg).unwrap_err();
        assert!(err.contains("constant-weight"), "{err}");
    }
}
