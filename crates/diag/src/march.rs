//! March-test engines: MATS+, March C− and March B as seed-pure
//! operation generators, plus the session runner that drives any
//! [`FaultSimBackend`] and keeps per-element observation logs.
//!
//! A March test is a sequence of *elements*; each element visits every
//! word of the memory in a fixed address order (ascending or descending)
//! and applies the same short operation string — `w0`/`w1` write the data
//! background or its complement, `r0`/`r1` read expecting them. The data
//! background itself is derived purely from the session seed, so two
//! sessions with equal seeds replay bit-identical operation streams (the
//! workload-model purity contract, carried over to BIST).
//!
//! The runner observes two things per cycle: whether the read delivered a
//! word differing from the expected March value (through the backend's
//! fault-free twin — under a March the twin holds exactly the expected
//! value), and the three checker outputs. Every anomalous cycle becomes a
//! [`SyndromeEvent`] keyed by *March-local* coordinates
//! `(element, op, address)`, which is what makes logs comparable against
//! a pre-computed fault dictionary regardless of when on the global clock
//! the session ran.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scm_memory::backend::{CycleObservation, FaultSimBackend};
use scm_memory::sliced::{LaneSet, SlicedBackend};
use scm_memory::workload::{Op, OpSource};

/// One March operation applied at the current address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MarchOp {
    /// Write the data background.
    W0,
    /// Write the complemented background.
    W1,
    /// Read, expecting the background.
    R0,
    /// Read, expecting the complemented background.
    R1,
}

impl MarchOp {
    /// Conventional notation (`w0`, `r1`, …).
    pub fn name(self) -> &'static str {
        match self {
            MarchOp::W0 => "w0",
            MarchOp::W1 => "w1",
            MarchOp::R0 => "r0",
            MarchOp::R1 => "r1",
        }
    }

    /// Is this a read?
    pub fn is_read(self) -> bool {
        matches!(self, MarchOp::R0 | MarchOp::R1)
    }

    /// Does this op use the complemented background (`w1`/`r1`)?
    fn complemented(self) -> bool {
        matches!(self, MarchOp::W1 | MarchOp::R1)
    }
}

/// Address order of one March element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// `⇑` — addresses `0, 1, …, words−1` (also the `⇕` convention).
    Ascending,
    /// `⇓` — addresses `words−1, …, 1, 0`.
    Descending,
}

/// One March element: an address order and an operation string applied at
/// every address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchElement {
    /// Address traversal order.
    pub order: Order,
    /// Operations applied per address, in sequence.
    pub ops: Vec<MarchOp>,
}

impl MarchElement {
    fn new(order: Order, ops: &[MarchOp]) -> Self {
        MarchElement {
            order,
            ops: ops.to_vec(),
        }
    }

    /// Conventional notation, e.g. `⇑(r0,w1)`.
    pub fn notation(&self) -> String {
        let arrow = match self.order {
            Order::Ascending => "⇑",
            Order::Descending => "⇓",
        };
        let ops: Vec<&str> = self.ops.iter().map(|op| op.name()).collect();
        format!("{arrow}({})", ops.join(","))
    }
}

/// A complete March test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchTest {
    name: &'static str,
    elements: Vec<MarchElement>,
}

use MarchOp::{R0, R1, W0, W1};
use Order::{Ascending, Descending};

impl MarchTest {
    /// MATS+ — `⇕(w0); ⇑(r0,w1); ⇓(r1,w0)` — 5n, the cheapest test that
    /// covers all address-decoder and stuck-at cell faults.
    pub fn mats_plus() -> Self {
        MarchTest {
            name: "MATS+",
            elements: vec![
                MarchElement::new(Ascending, &[W0]),
                MarchElement::new(Ascending, &[R0, W1]),
                MarchElement::new(Descending, &[R1, W0]),
            ],
        }
    }

    /// March C− — `⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)`
    /// — 10n, additionally covering unlinked coupling faults; the
    /// workhorse of the diagnosis layer.
    pub fn march_c_minus() -> Self {
        MarchTest {
            name: "March C-",
            elements: vec![
                MarchElement::new(Ascending, &[W0]),
                MarchElement::new(Ascending, &[R0, W1]),
                MarchElement::new(Ascending, &[R1, W0]),
                MarchElement::new(Descending, &[R0, W1]),
                MarchElement::new(Descending, &[R1, W0]),
                MarchElement::new(Ascending, &[R0]),
            ],
        }
    }

    /// March B — `⇕(w0); ⇑(r0,w1,r1,w1); ⇑(r1,w0,w1); ⇓(r1,w0,w1,w0);
    /// ⇓(r0,w1,w0)` — 15n as element-counted here, adding linked-fault
    /// coverage over March C−.
    pub fn march_b() -> Self {
        MarchTest {
            name: "March B",
            elements: vec![
                MarchElement::new(Ascending, &[W0]),
                MarchElement::new(Ascending, &[R0, W1, R1, W1]),
                MarchElement::new(Ascending, &[R1, W0, W1]),
                MarchElement::new(Descending, &[R1, W0, W1, W0]),
                MarchElement::new(Descending, &[R0, W1, W0]),
            ],
        }
    }

    /// Resolve a built-in test from its CLI spelling.
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "mats+" => MarchTest::mats_plus(),
            "march-c-" => MarchTest::march_c_minus(),
            "march-b" => MarchTest::march_b(),
            _ => return None,
        })
    }

    /// CLI names of the built-in tests, in presentation order.
    pub const NAMES: [&'static str; 3] = ["mats+", "march-c-", "march-b"];

    /// Display name (`MATS+`, `March C-`, `March B`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The elements, in execution order.
    pub fn elements(&self) -> &[MarchElement] {
        &self.elements
    }

    /// Operations per word — the test's `kn` complexity coefficient.
    pub fn ops_per_word(&self) -> u64 {
        self.elements.iter().map(|e| e.ops.len() as u64).sum()
    }

    /// Session length in cycles on a `words`-word memory.
    pub fn session_cycles(&self, words: u64) -> u64 {
        self.ops_per_word() * words
    }

    /// Conventional notation of the whole test.
    pub fn notation(&self) -> String {
        let parts: Vec<String> = self.elements.iter().map(|e| e.notation()).collect();
        parts.join("; ")
    }

    /// The seed-pure operation stream of one session — the `OpStream`
    /// shape the rest of the workload machinery speaks. Cycles through
    /// the whole test and restarts, so it can also serve as an endless
    /// BIST-traffic workload model.
    pub fn stream(&self, words: u64, word_bits: u32, seed: u64) -> MarchStream {
        MarchStream {
            test: self.clone(),
            words,
            background: background(seed, word_bits),
            mask: word_mask(word_bits),
            element: 0,
            step: 0,
            op: 0,
        }
    }
}

fn word_mask(word_bits: u32) -> u64 {
    if word_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << word_bits) - 1
    }
}

/// The session's data background, pure in `(seed, word_bits)`.
pub fn background(seed: u64, word_bits: u32) -> u64 {
    SmallRng::seed_from_u64(seed).gen::<u64>() & word_mask(word_bits)
}

/// Deterministic March operation stream (see [`MarchTest::stream`]).
#[derive(Debug, Clone)]
pub struct MarchStream {
    test: MarchTest,
    words: u64,
    background: u64,
    mask: u64,
    element: usize,
    step: u64,
    op: usize,
}

impl MarchStream {
    fn current(&self) -> Op {
        let element = &self.test.elements[self.element];
        let addr = match element.order {
            Order::Ascending => self.step,
            Order::Descending => self.words - 1 - self.step,
        };
        let march_op = element.ops[self.op];
        let value = if march_op.complemented() {
            !self.background & self.mask
        } else {
            self.background
        };
        if march_op.is_read() {
            Op::Read(addr)
        } else {
            Op::Write(addr, value)
        }
    }

    /// The next op with its March-local coordinates.
    fn next_session_op(&mut self) -> MarchSessionOp {
        let at = MarchSessionOp {
            op: self.current(),
            element: self.element as u32,
            op_idx: self.op as u32,
            is_read: self.test.elements[self.element].ops[self.op].is_read(),
        };
        self.advance();
        at
    }

    fn advance(&mut self) {
        self.op += 1;
        if self.op < self.test.elements[self.element].ops.len() {
            return;
        }
        self.op = 0;
        self.step += 1;
        if self.step < self.words {
            return;
        }
        self.step = 0;
        self.element = (self.element + 1) % self.test.elements.len();
    }
}

impl OpSource for MarchStream {
    fn next_op(&mut self) -> Op {
        let op = self.current();
        self.advance();
        op
    }
}

/// One anomalous cycle of a March session, in March-local coordinates —
/// the unit the fault dictionary keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SyndromeEvent {
    /// Element index within the test.
    pub element: u32,
    /// Operation index within the element's string.
    pub op: u32,
    /// Address the operation targeted.
    pub addr: u64,
    /// The read delivered a word differing from the expected March value.
    pub read_mismatch: bool,
    /// Row-decoder code checker flagged.
    pub row_code_error: bool,
    /// Column-decoder code checker flagged.
    pub col_code_error: bool,
    /// Data-path parity checker flagged.
    pub parity_error: bool,
}

/// The observation log of one March session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchLog {
    /// Cycles executed (= the test's session length).
    pub cycles: u64,
    /// Cycle (session-local, 0-based) of the first anomaly — the BIST
    /// *detection latency* of the session.
    pub first_syndrome: Option<u64>,
    /// Every anomalous cycle, in execution order, capped at
    /// [`MAX_SYNDROME_EVENTS`].
    pub events: Vec<SyndromeEvent>,
    /// The log hit the event cap; the recorded prefix is still
    /// deterministic, so capped signatures remain comparable.
    pub truncated: bool,
}

/// Event cap guarding dictionary memory against pathological faults that
/// flag on a large fraction of a big memory's cycles.
pub const MAX_SYNDROME_EVENTS: usize = 4096;

impl MarchLog {
    /// An empty log of a `cycles`-cycle session.
    fn new(cycles: u64) -> Self {
        MarchLog {
            cycles,
            first_syndrome: None,
            events: Vec::new(),
            truncated: false,
        }
    }

    /// Did the session observe any anomaly?
    pub fn clean(&self) -> bool {
        self.events.is_empty()
    }

    /// Fold the observation of session cycle `cycle`, which applied `at`,
    /// into the log: a read mismatch or any checker indication latches
    /// the first syndrome and adds an event, up to
    /// [`MAX_SYNDROME_EVENTS`]. Returns whether the cycle flagged. Every
    /// runner records through here, scalar and sliced alike.
    fn record(&mut self, cycle: u64, at: &MarchSessionOp, obs: CycleObservation) -> bool {
        let read_mismatch = obs.erroneous.unwrap_or(false) && at.is_read;
        let flagged = read_mismatch || obs.verdict.any_error();
        if flagged {
            self.first_syndrome.get_or_insert(cycle);
            if self.events.len() < MAX_SYNDROME_EVENTS {
                self.events.push(SyndromeEvent {
                    element: at.element,
                    op: at.op_idx,
                    addr: at.op.addr(),
                    read_mismatch,
                    row_code_error: obs.verdict.row_code_error,
                    col_code_error: obs.verdict.col_code_error,
                    parity_error: obs.verdict.parity_error,
                });
            } else {
                self.truncated = true;
            }
        }
        flagged
    }
}

/// An incremental March session: hands out one operation at a time and
/// folds the backend's observation into the growing [`MarchLog`].
///
/// Its log records through the same [`MarchLog`] method as the sliced
/// runner [`run_march_sliced_ops`] that builds dictionaries.
/// [`run_march`] is a thin loop over the session, and schedulers that
/// interleave sessions with other bookkeeping (the system layer's
/// `DiagCampaign`, which charges global-clock cycles between ops and may
/// abandon a session at its horizon) drive the same object, so their
/// logs can never drift from the signatures a dictionary filed.
///
/// Protocol: call [`next_op`](Self::next_op) (advances the coordinates),
/// step the backend, then [`record`](Self::record) the observation —
/// strictly alternating.
#[derive(Debug, Clone)]
pub struct MarchSession {
    stream: MarchStream,
    /// The op handed out but not yet recorded.
    pending: Option<MarchSessionOp>,
    emitted: u64,
    total: u64,
    log: MarchLog,
}

impl MarchSession {
    /// A session of `test` over a `words`-word, `word_bits`-wide memory,
    /// data background pure in `seed`.
    pub fn new(test: &MarchTest, words: u64, word_bits: u32, seed: u64) -> Self {
        MarchSession {
            stream: test.stream(words, word_bits, seed),
            pending: None,
            emitted: 0,
            total: test.session_cycles(words),
            log: MarchLog::new(0),
        }
    }

    /// The next operation to apply, or [`None`] when the session is
    /// complete.
    ///
    /// # Panics
    /// Panics if the previous op was never [`record`](Self::record)ed.
    pub fn next_op(&mut self) -> Option<Op> {
        assert!(self.pending.is_none(), "record the previous op first");
        if self.emitted >= self.total {
            return None;
        }
        let at = self.stream.next_session_op();
        self.pending = Some(at);
        self.emitted += 1;
        Some(at.op)
    }

    /// Fold the backend's observation of the pending op into the log;
    /// returns whether the cycle flagged (read mismatch or any checker).
    ///
    /// # Panics
    /// Panics if no op is pending.
    pub fn record(&mut self, obs: CycleObservation) -> bool {
        let at = self.pending.take().expect("no op pending");
        let flagged = self.log.record(self.log.cycles, &at, obs);
        self.log.cycles += 1;
        flagged
    }

    /// Did every op of the test run and get recorded? Incomplete
    /// sessions must not be diagnosed — their signatures are prefixes.
    pub fn complete(&self) -> bool {
        self.pending.is_none() && self.emitted == self.total
    }

    /// The log accumulated so far.
    pub fn log(&self) -> &MarchLog {
        &self.log
    }

    /// Consume the session, yielding its log.
    pub fn into_log(self) -> MarchLog {
        self.log
    }
}

/// Run one March session against a backend that the caller has already
/// [`reset`](FaultSimBackend::reset) into its (possibly faulted) state.
///
/// The session is destructive: it overwrites the whole memory with the
/// March patterns. Callers modelling mission traffic around a session
/// must restore the pre-session state afterwards (the system layer rolls
/// back to the recovery image and charges the lost work).
pub fn run_march<B: FaultSimBackend + ?Sized>(
    backend: &mut B,
    test: &MarchTest,
    seed: u64,
) -> MarchLog {
    let org = backend.config().org();
    let mut session = MarchSession::new(test, org.words(), org.word_bits(), seed);
    while let Some(op) = session.next_op() {
        session.record(backend.step(op));
    }
    session.into_log()
}

/// One March operation with its March-local coordinates — what a log
/// records an event against. Materialised per session
/// ([`materialize_session`]) so every lane chunk of a dictionary build
/// replays the session by reference instead of re-walking the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarchSessionOp {
    /// The memory operation.
    pub op: Op,
    /// Element index within the test.
    pub element: u32,
    /// Operation index within the element's string.
    pub op_idx: u32,
    /// Is this op a read (`r0`/`r1`)?
    pub is_read: bool,
}

/// Materialise one complete March session. Pure in `(test, words,
/// word_bits, seed)`; a March stream never depends on the fault, so
/// every lane chunk of a dictionary build legitimately shares one
/// materialisation.
pub fn materialize_session(
    test: &MarchTest,
    words: u64,
    word_bits: u32,
    seed: u64,
) -> Vec<MarchSessionOp> {
    let mut stream = test.stream(words, word_bits, seed);
    (0..test.session_cycles(words))
        .map(|_| stream.next_session_op())
        .collect()
}

/// Replay a materialised March session over **every lane** of a sliced
/// backend at once, yielding the per-lane logs in lane order.
///
/// A March stream depends only on `(test, geometry, seed)` — never on the
/// fault — so all packed scenarios legitimately share one session; the
/// bit-identity contract of [`SlicedBackend`] makes each returned log
/// equal to [`run_march`] on a scalar backend carrying that lane's
/// scenario alone. The caller resets the backend (the session is as
/// destructive as the scalar one).
pub fn run_march_sliced_ops<const W: usize>(
    backend: &mut SlicedBackend<W>,
    session: &[MarchSessionOp],
) -> Vec<MarchLog> {
    let all = backend.lane_mask();
    let mut logs = vec![MarchLog::new(session.len() as u64); backend.lanes()];
    for (cycle, at) in (0..).zip(session) {
        let obs = backend.step(at.op);
        // Only the lanes that flag need a per-lane look.
        let read_mismatch = if at.is_read {
            obs.erroneous
        } else {
            LaneSet::EMPTY
        };
        ((read_mismatch | obs.detected()) & all).for_each_lane(|lane| {
            logs[lane].record(cycle, at, obs.lane(lane));
        });
    }
    logs
}

#[cfg(test)]
mod tests {
    use super::*;
    use scm_area::RamOrganization;
    use scm_codes::{CodewordMap, MOutOfN};
    use scm_memory::backend::BehavioralBackend;
    use scm_memory::design::RamConfig;
    use scm_memory::fault::FaultSite;

    fn config() -> RamConfig {
        let org = RamOrganization::new(64, 8, 4);
        let code = MOutOfN::new(3, 5).unwrap();
        RamConfig::new(
            org,
            CodewordMap::mod_a(code, 9, 16).unwrap(),
            CodewordMap::mod_a(code, 9, 4).unwrap(),
        )
    }

    #[test]
    fn complexities_match_the_literature() {
        assert_eq!(MarchTest::mats_plus().ops_per_word(), 5);
        assert_eq!(MarchTest::march_c_minus().ops_per_word(), 10);
        assert_eq!(MarchTest::march_b().ops_per_word(), 15);
        assert_eq!(MarchTest::march_c_minus().session_cycles(64), 640);
    }

    #[test]
    fn registry_resolves_every_builtin() {
        for name in MarchTest::NAMES {
            assert!(MarchTest::by_name(name).is_some(), "{name}");
        }
        assert!(MarchTest::by_name("galpat").is_none());
    }

    #[test]
    fn notation_reads_like_the_textbooks() {
        assert_eq!(
            MarchTest::mats_plus().notation(),
            "⇑(w0); ⇑(r0,w1); ⇓(r1,w0)"
        );
    }

    #[test]
    fn streams_are_pure_in_seed_and_cover_the_address_space() {
        let test = MarchTest::march_c_minus();
        let mut a = test.stream(16, 8, 42);
        let mut b = test.stream(16, 8, 42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..test.session_cycles(16) {
            let op = a.next_op();
            assert_eq!(op, b.next_op());
            assert!(op.addr() < 16);
            seen.insert(op.addr());
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn descending_elements_walk_down() {
        // MATS+ element 2 is ⇓(r1,w0): first op of the element reads the
        // top address.
        let test = MarchTest::mats_plus();
        let mut s = test.stream(8, 8, 0);
        for _ in 0..8 + 16 {
            let _ = s.next_op(); // elements 0 and 1
        }
        let op = s.next_op();
        assert_eq!(op.addr(), 7, "{op:?}");
        assert!(matches!(op, Op::Read(_)));
    }

    #[test]
    fn fault_free_sessions_are_clean_for_every_builtin() {
        for name in MarchTest::NAMES {
            let test = MarchTest::by_name(name).unwrap();
            let mut backend = BehavioralBackend::new(&config());
            backend.reset(None);
            let log = run_march(&mut backend, &test, 7);
            assert!(log.clean(), "{name}: {:?}", log.events.first());
            assert_eq!(log.cycles, test.session_cycles(64));
            assert_eq!(log.first_syndrome, None);
        }
    }

    #[test]
    fn stuck_cell_is_caught_with_bit_level_syndromes() {
        // Stuck-at-1 on word bit 3 of word (row 2, col-select 1).
        let mut backend = BehavioralBackend::new(&config());
        backend.reset_site(Some(FaultSite::Cell {
            row: 2,
            col: 3 * 4 + 1,
            stuck: true,
        }));
        let test = MarchTest::march_c_minus();
        let log = run_march(&mut backend, &test, 9);
        assert!(!log.clean());
        let addr = 2 * 4 + 1;
        assert!(
            log.events.iter().all(|e| e.addr == addr),
            "{:?}",
            log.events
        );
        // Single-bit cell mismatches must trip parity alongside the
        // comparator.
        assert!(log.events.iter().all(|e| e.read_mismatch && e.parity_error));
        assert!(log.first_syndrome.is_some());
    }

    #[test]
    fn logs_are_pure_in_seed() {
        let test = MarchTest::march_b();
        let site = FaultSite::Cell {
            row: 5,
            col: 7,
            stuck: false,
        };
        let mut backend = BehavioralBackend::new(&config());
        backend.reset_site(Some(site));
        let a = run_march(&mut backend, &test, 33);
        backend.reset_site(Some(site));
        let b = run_march(&mut backend, &test, 33);
        assert_eq!(a, b);
    }

    #[test]
    fn sliced_march_logs_match_scalar_lane_by_lane() {
        use scm_memory::decoder_unit::DecoderFault;
        use scm_memory::fault::FaultScenario;
        // A multi-class lane set: cells of both polarities (one parity
        // cell), decoder faults, a ROM bit, a register bit.
        let sites = [
            FaultSite::Cell {
                row: 2,
                col: 13,
                stuck: true,
            },
            FaultSite::Cell {
                row: 5,
                col: 7,
                stuck: false,
            },
            FaultSite::Cell {
                row: 9,
                col: 33,
                stuck: true,
            },
            FaultSite::RowDecoder(DecoderFault {
                bits: 4,
                offset: 0,
                value: 5,
                stuck_one: false,
            }),
            FaultSite::ColDecoder(DecoderFault {
                bits: 2,
                offset: 0,
                value: 1,
                stuck_one: true,
            }),
            FaultSite::RowRomBit { line: 3, bit: 1 },
            FaultSite::DataRegisterBit {
                bit: 2,
                stuck: true,
            },
        ];
        let scenarios: Vec<FaultScenario> = sites
            .iter()
            .copied()
            .map(FaultScenario::permanent)
            .collect();
        for name in MarchTest::NAMES {
            let test = MarchTest::by_name(name).unwrap();
            let session = materialize_session(&test, 64, 8, 17);
            let mut sliced = SlicedBackend::<1>::new(&config(), &scenarios);
            let logs = run_march_sliced_ops(&mut sliced, &session);
            assert_eq!(logs.len(), sites.len());
            // The same lanes on a wide slab must log identically — the
            // multi-word path through the March runner.
            let mut wide = SlicedBackend::<4>::new(&config(), &scenarios);
            let wide_logs = run_march_sliced_ops(&mut wide, &session);
            assert_eq!(logs, wide_logs, "{name}: slab width changed a log");
            for (site, log) in sites.iter().zip(&logs) {
                let mut backend = BehavioralBackend::new(&config());
                backend.reset_site(Some(*site));
                let scalar = run_march(&mut backend, &test, 17);
                assert_eq!(*log, scalar, "{name}: {site:?} diverges");
            }
        }
    }

    #[test]
    fn row_decoder_sa0_syndrome_carries_the_row_checker() {
        use scm_memory::decoder_unit::DecoderFault;
        let mut backend = BehavioralBackend::new(&config());
        backend.reset_site(Some(FaultSite::RowDecoder(DecoderFault {
            bits: 4,
            offset: 0,
            value: 5,
            stuck_one: false,
        })));
        let log = run_march(&mut backend, &MarchTest::mats_plus(), 1);
        assert!(!log.clean());
        assert!(log.events.iter().all(|e| e.row_code_error));
        // Every event sits in row 5 (addresses 20..24).
        assert!(log.events.iter().all(|e| e.addr / 4 == 5));
    }
}
