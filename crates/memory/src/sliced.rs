//! Bit-sliced scenario-parallel fast path: multi-word lane slabs, up to
//! 512 fault scenarios per shared op stream.
//!
//! The behavioural backend simulates one `(scenario, trial)` at a time;
//! the campaign grid multiplies scenarios × trials × cycles, and that
//! product is the throughput bottleneck of every consumer from the
//! Monte-Carlo adjudicator to the system campaign. [`SlicedBackend`]
//! removes it by transposing the problem: every storage cell (and every
//! derived checker signal) carries a [`LaneSet`] — a slab of `W` machine
//! words — so one operation of a shared seed-pure stream advances up to
//! `64 × W` scenarios simultaneously.
//!
//! # Slab lane numbering
//!
//! A [`LaneSet<W>`] packs lanes **little-endian across words**: bit `b`
//! of word `w` is lane `w·64 + b`. Lane `L` therefore lives at word
//! `L / 64`, bit `L % 64`, for every `W`; a width-1 slab is exactly the
//! PR 6 single-`u64` slice. Scenario packs narrower than the slab leave
//! the high lanes as *don't-care*: prefill and writes drive them, but
//! every observation is masked by the backend's lane mask before it
//! escapes, so garbage above `lanes` is never visible. `W` ranges over
//! `1..=`[`MAX_SLAB_WORDS`]; [`slab_words`] picks the narrowest slab
//! that fits a pack, so odd pack sizes (say 272 scenarios → 5 words)
//! never pay for power-of-two padding.
//!
//! # Lane semantics
//!
//! Lane = scenario: all lanes share one prefill image (zeroed, or the
//! campaign's seeded fill) and one op stream — the common-random-numbers
//! Monte-Carlo design. Differences between lanes are produced *only* by
//! their fault scenarios.
//!
//! # Exactness contract
//!
//! Lane `L` of a sliced run is **bit-identical** to a scalar
//! [`BehavioralBackend`] run of scenario `L` on the same prefill seed and
//! op stream — observation by observation, cycle by cycle, at every slab
//! width. Everything the scalar model does is reproduced lane-masked:
//!
//! * decoder faults become per-address selection/verdict tables
//!   (no-line precharge, double-selection wired-OR, ROM-word code
//!   verdicts), applied only while the scenario's [`FaultProcess`] pins
//!   the site — column tables at construction, each row's on the first
//!   step that applies it;
//! * pinned cell faults are read overlays over intact underlying state
//!   (writes land underneath, exactly like [`CellArray`]'s stuck bits);
//! * transient cell flips fire once on the activation clock; coupling
//!   defects ride aggressor write transitions; both heal lane-masked via
//!   detect-and-restore from the golden image on the cycle a read raises
//!   an indication.
//!
//! Because lanes never interact, slicing a universe into packs of any
//! width yields bit-identical per-scenario results — that is what makes
//! campaign output invariant under the lane width and thread count.
//!
//! # Memory layout
//!
//! State is stored access-contiguous: the `m + 1` bit groups of one
//! `(row value, column value)` site — `m` data bits plus the parity
//! bit — occupy adjacent slabs, so a read or write touches one
//! contiguous run of `(m + 1) · W` words instead of `m + 1` strided
//! ones. The prefill image and the fault-free golden twin are packed
//! one-bit-per-cell bitmaps: every lane starts from the same image and
//! the twin's writes are lane-uniform, so a slab per cell would only
//! repeat one bit `64 · W` times.
//!
//! The differential proptests in `tests/differential_backends.rs` and the
//! unit tests in `sliced/tests.rs` enforce the contract against the
//! scalar backends across slab widths.
//!
//! [`BehavioralBackend`]: crate::backend::BehavioralBackend
//! [`CellArray`]: crate::array::CellArray

use crate::backend::CycleObservation;
use crate::decoder_unit::{ActiveLines, BehavioralDecoder};
use crate::design::{RamConfig, Verdict};
use crate::fault::{CellRef, CouplingKind, FaultProcess, FaultScenario, FaultSite};
use crate::sim::DetectionOutcome;
use crate::workload::{Op, OpSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Domain-separation tag for the shared-stream trial seeding of sliced
/// campaign runs.
const SHARED_STREAM_TAG: u64 = 0x51_1CED;

/// Widest slab a [`SlicedBackend`] supports, in 64-bit words.
pub const MAX_SLAB_WORDS: usize = 8;

/// Most scenarios one slab pack can carry (`64 ×` [`MAX_SLAB_WORDS`]).
pub const MAX_SLAB_LANES: usize = 64 * MAX_SLAB_WORDS;

/// The narrowest slab width (in words) that fits `lanes` scenarios —
/// the dispatch key engines use to pick a `SlicedBackend::<W>`
/// instantiation for a pack. Always in `1..=`[`MAX_SLAB_WORDS`]; packs
/// larger than [`MAX_SLAB_LANES`] must be split before dispatch.
pub fn slab_words(lanes: usize) -> usize {
    lanes.div_ceil(64).clamp(1, MAX_SLAB_WORDS)
}

/// A computation over one lane pack, generic in the slab width — the
/// body an engine hands to [`with_slab_words`].
pub trait SlabTask {
    /// What the task produces.
    type Output;
    /// Run the task on `SlicedBackend::<W>`-shaped state.
    fn run<const W: usize>(self) -> Self::Output;
}

/// Run `task` at the narrowest slab width that fits `lanes` scenarios
/// ([`slab_words`]): the one place a runtime pack size picks a
/// const-generic `W`.
pub fn with_slab_words<T: SlabTask>(lanes: usize, task: T) -> T::Output {
    match slab_words(lanes) {
        1 => task.run::<1>(),
        2 => task.run::<2>(),
        3 => task.run::<3>(),
        4 => task.run::<4>(),
        5 => task.run::<5>(),
        6 => task.run::<6>(),
        7 => task.run::<7>(),
        _ => task.run::<8>(),
    }
}

/// A set of lanes as a slab of `W` machine words: bit `b` of word `w`
/// is lane `w·64 + b`. All bitwise operators act lane-wise across the
/// whole slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneSet<const W: usize>(pub [u64; W]);

impl<const W: usize> Default for LaneSet<W> {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl<const W: usize> LaneSet<W> {
    /// No lanes set.
    pub const EMPTY: Self = Self([0; W]);

    /// Every lane of every word set (`true`) or cleared (`false`).
    pub fn splat(value: bool) -> Self {
        Self([if value { u64::MAX } else { 0 }; W])
    }

    /// The first `n` lanes set — the lane mask of an `n`-scenario pack.
    pub fn first_n(n: usize) -> Self {
        debug_assert!(n <= 64 * W, "lane count {n} exceeds slab capacity");
        let mut words = [0u64; W];
        for (w, word) in words.iter_mut().enumerate() {
            let lo = w * 64;
            *word = if n >= lo + 64 {
                u64::MAX
            } else if n > lo {
                (1u64 << (n - lo)) - 1
            } else {
                0
            };
        }
        Self(words)
    }

    /// The singleton set of `lane`.
    pub fn bit(lane: usize) -> Self {
        debug_assert!(lane < 64 * W, "lane {lane} exceeds slab capacity");
        let mut words = [0u64; W];
        words[lane / 64] = 1u64 << (lane % 64);
        Self(words)
    }

    /// Is `lane` a member?
    pub fn test(&self, lane: usize) -> bool {
        self.0[lane / 64] >> (lane % 64) & 1 == 1
    }

    /// Is any lane set?
    pub fn any(&self) -> bool {
        self.0.iter().any(|&w| w != 0)
    }

    /// Is no lane set?
    pub fn is_empty(&self) -> bool {
        !self.any()
    }

    /// Number of lanes set.
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Visit every set lane in ascending order — the trailing-zero scan
    /// that extracts per-lane results from detection masks.
    pub fn for_each_lane(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.0.iter().enumerate() {
            let mut mask = word;
            while mask != 0 {
                f(w * 64 + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
        }
    }
}

macro_rules! laneset_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl<const W: usize> std::ops::$trait for LaneSet<W> {
            type Output = Self;
            #[inline]
            fn $method(mut self, rhs: Self) -> Self {
                for w in 0..W {
                    self.0[w] $op rhs.0[w];
                }
                self
            }
        }
        impl<const W: usize> std::ops::$assign_trait for LaneSet<W> {
            #[inline]
            fn $assign_method(&mut self, rhs: Self) {
                for w in 0..W {
                    self.0[w] $op rhs.0[w];
                }
            }
        }
    };
}

laneset_binop!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
laneset_binop!(BitOr, bitor, BitOrAssign, bitor_assign, |=);
laneset_binop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);

impl<const W: usize> std::ops::Not for LaneSet<W> {
    type Output = Self;
    #[inline]
    fn not(mut self) -> Self {
        for w in 0..W {
            self.0[w] = !self.0[w];
        }
        self
    }
}

/// What every lane observed on one cycle; lane `L` of each [`LaneSet`]
/// is lane `L`'s flag. Write cycles report empty `erroneous` and
/// `parity_error` sets (only the decoder checkers speak), mirroring the
/// scalar observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlicedObservation<const W: usize = 1> {
    /// Lanes whose read output (data or parity bit) differed from the
    /// fault-free golden image.
    pub erroneous: LaneSet<W>,
    /// Lanes whose row-decoder ROM word failed the code membership check.
    pub row_code_error: LaneSet<W>,
    /// Lanes whose column-decoder ROM word failed the membership check.
    pub col_code_error: LaneSet<W>,
    /// Lanes whose data-path parity check failed (read cycles only).
    pub parity_error: LaneSet<W>,
}

impl<const W: usize> SlicedObservation<W> {
    /// Lanes on which any checker raised an error indication this cycle.
    pub fn detected(&self) -> LaneSet<W> {
        self.row_code_error | self.col_code_error | self.parity_error
    }

    /// Extract one lane as the scalar backend's observation type — the
    /// differential tests compare this against [`BehavioralBackend`]
    /// output directly.
    ///
    /// [`BehavioralBackend`]: crate::backend::BehavioralBackend
    pub fn lane(&self, lane: usize) -> CycleObservation {
        CycleObservation {
            erroneous: Some(self.erroneous.test(lane)),
            verdict: Verdict {
                row_code_error: self.row_code_error.test(lane),
                col_code_error: self.col_code_error.test(lane),
                parity_error: self.parity_error.test(lane),
            },
        }
    }
}

/// Iterate the set bit positions of `mask` in ascending order — the
/// single-word trailing-zero scan; slab consumers use
/// [`LaneSet::for_each_lane`].
pub fn for_each_lane(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// Pending-lane floor for a batched retirement sweep — see
/// [`SlicedBackend::retire`]. A sweep walks every per-`rv` entry list,
/// so it only pays for itself once a meaningful fraction of the slab's
/// lanes is waiting; single-lane dribble (late transients) rides along
/// until a word dies or the batch fills. The trigger scales with
/// occupancy (a quarter of the packed lanes), clamped to this floor and
/// [`RETIRE_SWEEP_MAX`].
const RETIRE_SWEEP_MIN: u32 = 8;

/// Pending-lane ceiling for a batched retirement sweep: wide slabs
/// sweep once this many lanes wait, however many are packed.
const RETIRE_SWEEP_MAX: u32 = 64;

/// The indices of the words of `set` holding any lane.
fn live_words<const W: usize>(set: &LaneSet<W>, out: &mut Vec<usize>) {
    out.clear();
    out.extend(
        set.0
            .iter()
            .enumerate()
            .filter(|(_, &word)| word != 0)
            .map(|(w, _)| w),
    );
}

/// One lane's position inside a slab: word index plus bit mask. Every
/// per-lane fault entry (pinned cell, double selection, activation
/// window, coupling…) stores one of these instead of a full
/// [`LaneSet<W>`], so the per-operation scans cost O(1) per entry at
/// any slab width — storing whole-slab masks there would make every
/// scan O(entries × W) and erase the multi-word win.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneSlot {
    word: usize,
    bit: u64,
}

impl LaneSlot {
    fn of(lane: usize) -> Self {
        LaneSlot {
            word: lane / 64,
            bit: 1u64 << (lane % 64),
        }
    }

    /// Is this lane a member of `set`?
    #[inline]
    fn in_set<const W: usize>(self, set: &LaneSet<W>) -> bool {
        set.0[self.word] & self.bit != 0
    }

    /// Insert this lane into `set`.
    #[inline]
    fn set_in<const W: usize>(self, set: &mut LaneSet<W>) {
        set.0[self.word] |= self.bit;
    }

    /// Remove this lane from `set`.
    #[inline]
    fn clear_in<const W: usize>(self, set: &mut LaneSet<W>) {
        set.0[self.word] &= !self.bit;
    }

    /// Write `value` at this lane of `set`.
    #[inline]
    fn assign_in<const W: usize>(self, set: &mut LaneSet<W>, value: bool) {
        if value {
            self.set_in(set);
        } else {
            self.clear_in(set);
        }
    }
}

/// The all-ones word of a ROM of `width` output bits (the precharged
/// no-line-selected value).
fn full_word(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// `word` with bit `bit` forced to `stuck` — a stuck ROM output column.
fn force_bit(word: u64, bit: u32, stuck: bool) -> u64 {
    if stuck {
        word | (1u64 << bit)
    } else {
        word & !(1u64 << bit)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-trial workload seed of a campaign, on either executor. The
/// stream is shared by every scenario of the grid and therefore must not
/// depend on any fault index — that is what makes results invariant
/// under lane-packing width (every lane pack draws the same stream for
/// the same trial, no matter how the universe was chunked) and under the
/// executor choice (the oracle draws it once per scenario).
pub fn shared_trial_seed(seed: u64, trial: u32) -> u64 {
    splitmix(splitmix(seed ^ SHARED_STREAM_TAG).wrapping_add(trial as u64))
}

#[inline]
fn uniform_bit(bits: &[u64], idx: usize) -> bool {
    bits[idx >> 6] >> (idx & 63) & 1 == 1
}

#[inline]
fn set_uniform_bit(bits: &mut [u64], idx: usize, value: bool) {
    let (w, b) = (idx >> 6, idx & 63);
    if value {
        bits[w] |= 1u64 << b;
    } else {
        bits[w] &= !(1u64 << b);
    }
}

/// Expand the image bits `range` into slab form (the working `cells`
/// state): every lane of each cell takes the image's bit.
fn materialize<const W: usize>(
    image: &[u64],
    range: std::ops::Range<usize>,
    cells: &mut [LaneSet<W>],
) {
    for (idx, cell) in range.clone().zip(&mut cells[range]) {
        *cell = LaneSet::splat(uniform_bit(image, idx));
    }
}

/// Pack the [`BehavioralBackend::prefilled`] image of `seed` into `bits`
/// (zeroed on entry), one bit per cell index. `mux` is a power of two,
/// so the site of address `addr` is `addr` itself and its cells are the
/// `stride` consecutive indices from `addr · stride`: the image is each
/// word's `value | parity << m`, laid end to end in address order from
/// the same `SmallRng` stream, `stride ≤ 65` bits at a time.
///
/// [`BehavioralBackend::prefilled`]: crate::backend::BehavioralBackend::prefilled
fn pack_prefill(config: &RamConfig, seed: u64, bits: &mut [u64]) {
    let org = config.org();
    let m = org.word_bits();
    let stride = m as usize + 1;
    let value_mask = if m >= 64 { u64::MAX } else { (1u64 << m) - 1 };
    let mut rng = SmallRng::seed_from_u64(seed);
    for addr in 0..org.words() as usize {
        let value = rng.gen::<u64>() & value_mask;
        let parity = (value.count_ones() & 1) as u128;
        let pos = addr * stride;
        let packed = (value as u128 | parity << m) << (pos & 63);
        bits[pos >> 6] |= packed as u64;
        let high = (packed >> 64) as u64;
        if high != 0 {
            bits[(pos >> 6) + 1] |= high;
        }
    }
}

/// The sites (word addresses) whose cells or golden image may differ
/// from the prefill since the last reset, one bit per site. Writes,
/// their double-selection companions, one-shot flips and coupling
/// victims mark their site; [`reset`](SlicedBackend::reset) drains the
/// set.
#[derive(Debug, Clone)]
struct DirtySites {
    bits: Vec<u64>,
}

impl DirtySites {
    fn new(sites: usize) -> Self {
        DirtySites {
            bits: vec![0; sites.div_ceil(64)],
        }
    }

    /// Record a change at `site`.
    #[inline]
    fn mark(&mut self, site: usize) {
        self.bits[site >> 6] |= 1u64 << (site & 63);
    }

    /// Hand every marked site to `f` in ascending order, clearing the
    /// marks: O(sites / 64 + marked).
    fn drain(&mut self, mut f: impl FnMut(usize)) {
        for (w, word) in self.bits.iter_mut().enumerate() {
            for_each_lane(std::mem::take(word), |b| f(w * 64 + b));
        }
    }
}

/// A row-side decoder or ROM fault, kept as injected until a step first
/// applies a row value: [`SlicedBackend::expand_row`] then derives that
/// row's selection and verdict entries, so a build never walks the
/// rows its trials do not touch.
#[derive(Debug, Clone, Copy)]
enum RowFault {
    Decoder(BehavioralDecoder),
    RomBit { line: u64, bit: u32 },
    RomColumn { bit: u32, stuck: bool },
}

/// A coupling defect with every address precomputed: the victim's cell
/// index, and the aggressor's `(row value, column value, bit group)`
/// coordinates plus cell index for the write-transition check.
#[derive(Debug, Clone)]
struct SlabCoupling {
    slot: LaneSlot,
    victim_idx: usize,
    agg_row: usize,
    agg_cv: usize,
    agg_k: usize,
    agg_idx: usize,
    kind: CouplingKind,
}

/// Live-prefix lengths of the per-lane fault-entry lists. Retirement
/// swaps a dead lane's entries into its list's tail and shrinks the
/// prefix; [`reset`](SlicedBackend::reset) restores full lengths in
/// O(1) per list. Entries are never dropped or reallocated, only
/// reordered — sound because every entry's effect is confined to its
/// own lane's bit (reads OR companion bits lane-locally, writes assign
/// lane-locally), so list order is immaterial to the observations.
#[derive(Debug, Clone)]
struct LiveLens {
    temporal: usize,
    cell_flips: usize,
    stuck_cells: usize,
    couplings: usize,
    data_reg: usize,
    row_two: Vec<u32>,
    col_two: Vec<u32>,
}

/// Swap entries of `dead` lanes out of `list[..live]`'s prefix,
/// returning the new live-prefix length.
fn partition_live<T, const W: usize>(
    list: &mut [T],
    live: usize,
    dead: &LaneSet<W>,
    slot: impl Fn(&T) -> LaneSlot,
) -> usize {
    let mut n = live;
    let mut i = 0;
    while i < n {
        if slot(&list[i]).in_set(dead) {
            n -= 1;
            list.swap(i, n);
        } else {
            i += 1;
        }
    }
    n
}

/// A bit-sliced self-checking RAM running up to `64 × W` fault scenarios
/// in lane-parallel over one shared operation stream. `W = 1` is the
/// classic single-word slice; engines dispatch wider slabs via
/// [`slab_words`].
#[derive(Debug, Clone)]
pub struct SlicedBackend<const W: usize = 1> {
    config: RamConfig,
    scenarios: Vec<FaultScenario>,
    lanes: usize,
    all_mask: LaneSet<W>,
    mux: usize,
    m: u32,
    /// Slabs per `(row value, column value)` site: `m` data bit groups
    /// plus the parity group.
    stride: usize,
    /// Pre-fault image, one bit per cell index (every lane shares it).
    base: Vec<u64>,
    /// Faulty underlying state, one slab per cell, access-contiguous:
    /// index `(rv · mux + cv) · stride + k`. Pinned-cell overlays apply
    /// at read time, like [`CellArray`].
    ///
    /// [`CellArray`]: crate::array::CellArray
    cells: Vec<LaneSet<W>>,
    /// The fault-free golden twin's state, one bit per cell index (its
    /// writes are lane-uniform).
    gold: Vec<u64>,
    /// Reusable read buffer (`stride` slabs) — keeps `read` off the
    /// stack-zeroing path a `[LaneSet<W>; 65]` local would pay.
    scratch: Vec<LaneSet<W>>,
    cycle: u64,
    /// Lanes whose one-shot cell flip already fired.
    fired: LaneSet<W>,
    /// Union of the one-shot flip lanes (early-out for the firing scan).
    flips_all: LaneSet<W>,
    /// Lanes pinned on every cycle (`Permanent { onset: 0 }`).
    const_active: LaneSet<W>,
    /// Lanes whose pinning follows a delayed/windowed process.
    temporal: Vec<(LaneSlot, FaultProcess)>,
    /// One-shot state flips: `(lane, cell index, at)`.
    cell_flips: Vec<(LaneSlot, usize, u64)>,
    /// Pinned cell overlays: `(lane, row value, column value, bit
    /// group, stuck)`.
    stuck_cells: Vec<(LaneSlot, usize, usize, usize, bool)>,
    /// Coupling defects — always live (corruption rides writes, never
    /// the clock).
    couplings: Vec<SlabCoupling>,
    /// Data-register stuck bits: `(lane, bit, stuck)`.
    data_reg: Vec<(LaneSlot, u32, bool)>,
    /// Lanes whose scenario corrupts stored state (eligible for
    /// detect-and-restore healing).
    corrupts_state: LaneSet<W>,
    /// Row-side decoder and ROM faults in lane order, expanded into the
    /// per-row tables below one row value at a time.
    row_faults: Vec<(LaneSlot, RowFault)>,
    /// Per row value: have its `row_none` / `row_two` / `row_err`
    /// entries been expanded?
    row_ready: Vec<bool>,
    /// Rows expanded while some lanes were retired. Their tables lack
    /// those lanes, so [`reset`](Self::reset) un-expands them.
    row_partial: Vec<usize>,
    /// Fault-free row ROM words, looked up per line on first use.
    row_words: Vec<Option<u64>>,
    /// Per applied row value: lanes whose row decoder selects no line
    /// (valid once the row is expanded).
    row_none: Vec<LaneSet<W>>,
    /// Per applied column value: lanes whose column decoder selects none.
    col_none: Vec<LaneSet<W>>,
    /// Per applied row value: `(lane, companion row)` double
    /// selections (valid once the row is expanded).
    row_two: Vec<Vec<(LaneSlot, u64)>>,
    /// Per applied column value: `(lane, companion column-select)`.
    col_two: Vec<Vec<(LaneSlot, u64)>>,
    /// Per applied row value: lanes whose ROM word fails the row code
    /// check *while their fault is active* (valid once the row is
    /// expanded).
    row_err: Vec<LaneSet<W>>,
    /// Per applied column value: lanes failing the column code check.
    col_err: Vec<LaneSet<W>>,
    /// Live-prefix lengths of the entry lists above — the only state
    /// a retirement sweep mutates (activity/verdict masks stay intact;
    /// callers already ignore retired lanes' observation bits).
    live_len: LiveLens,
    /// Has a retirement sweep shortened the live prefixes since the
    /// last reset? Only then does reset walk the per-value lists.
    swept: bool,
    /// Sites to restore on the next reset.
    dirty: DirtySites,
    /// Lanes dropped by [`retire`](Self::retire) since the last reset.
    retired: LaneSet<W>,
    /// Retired lanes not yet swept out of the fault tables. Sweeps are
    /// batched: pruning is a pure optimization (callers already ignore
    /// retired lanes), and a full table sweep per single-lane
    /// retirement would cost more than it saves.
    pending_retire: LaneSet<W>,
    /// The slab words still holding a live lane. The dense per-bit
    /// loops (scratch fill, gold compare, masked write) only touch
    /// these words, so a slab whose surviving lanes sit in one word
    /// steps at single-word cost wherever that word lies. Dead words'
    /// observation bits read as all-clear, which is indistinguishable
    /// to callers: every lane there has latched a detection, and the
    /// measurement contract ignores it afterwards.
    live: Vec<usize>,
}

impl<const W: usize> SlicedBackend<W> {
    /// Sliced backend over a zero-initialised RAM (the dictionary
    /// convention).
    ///
    /// # Panics
    /// Panics on an empty or over-capacity scenario pack, on
    /// out-of-range fault coordinates, or on a coupling scenario whose
    /// victim is not a cell.
    pub fn new(config: &RamConfig, scenarios: &[FaultScenario]) -> Self {
        Self::build(config, scenarios, None)
    }

    /// Sliced backend whose shared pre-fault state replays
    /// [`BehavioralBackend::prefilled`] bit-exactly (the campaign
    /// convention).
    ///
    /// # Panics
    /// As [`SlicedBackend::new`].
    ///
    /// [`BehavioralBackend::prefilled`]: crate::backend::BehavioralBackend::prefilled
    pub fn prefilled(config: &RamConfig, scenarios: &[FaultScenario], seed: u64) -> Self {
        Self::build(config, scenarios, Some(seed))
    }

    /// The one constructor: a zeroed image without `seed`, the shared
    /// [`BehavioralBackend::prefilled`] image with it.
    ///
    /// [`BehavioralBackend::prefilled`]: crate::backend::BehavioralBackend::prefilled
    fn build(config: &RamConfig, scenarios: &[FaultScenario], seed: Option<u64>) -> Self {
        assert!(
            !scenarios.is_empty() && scenarios.len() <= 64 * W,
            "a sliced backend packs 1..={} scenarios, got {}",
            64 * W,
            scenarios.len()
        );
        let org = config.org();
        let rows = org.rows() as usize;
        let pcols = org.physical_cols() as usize;
        let mux = org.mux_factor() as usize;
        let m = org.word_bits();
        let stride = m as usize + 1;
        let lanes = scenarios.len();
        let all_mask = LaneSet::first_n(lanes);
        let row_width = config.row_map().width();
        let col_words = config.col_map().table();
        let col_width = config.col_map().width();
        // Physical column `col` sits in bit group `col / mux` of column
        // value `col % mux`; its slab lives at this contiguous index.
        let cell_idx = |row: usize, col: usize| (row * mux + col % mux) * stride + col / mux;

        // Column tables span only `mux` values, so they are built here;
        // row tables wait for the first step that applies each row.
        let mut col_none = vec![LaneSet::EMPTY; mux];
        let mut col_two: Vec<Vec<(LaneSlot, u64)>> = vec![Vec::new(); mux];
        let mut col_err = vec![LaneSet::EMPTY; mux];
        let mut row_faults = Vec::new();
        let mut const_active = LaneSet::EMPTY;
        let mut temporal = Vec::new();
        let mut cell_flips: Vec<(LaneSlot, usize, u64)> = Vec::new();
        let mut stuck_cells = Vec::new();
        let mut couplings = Vec::new();
        let mut data_reg = Vec::new();
        let mut corrupts_state = LaneSet::EMPTY;

        for (lane, s) in scenarios.iter().enumerate() {
            let slot = LaneSlot::of(lane);
            // State-corrupting processes first: they install no pinned
            // site, exactly like the scalar backend's special cases.
            if let (FaultProcess::TransientFlip { at }, FaultSite::Cell { row, col, .. }) =
                (s.process, s.site)
            {
                assert!(
                    row < rows && col < pcols,
                    "cell ({row}, {col}) out of range"
                );
                cell_flips.push((slot, cell_idx(row, col), at));
                slot.set_in(&mut corrupts_state);
                continue;
            }
            if let FaultProcess::Coupling { aggressor, kind } = s.process {
                let FaultSite::Cell { row, col, .. } = s.site else {
                    panic!("coupling victim must be a cell, got {}", s.site);
                };
                let victim = CellRef { row, col };
                assert!(
                    victim.row < rows && victim.col < pcols,
                    "coupling victim ({}, {}) out of range",
                    victim.row,
                    victim.col
                );
                assert!(
                    aggressor.row < rows && aggressor.col < pcols,
                    "coupling aggressor ({}, {}) out of range",
                    aggressor.row,
                    aggressor.col
                );
                assert!(
                    victim != aggressor,
                    "a cell cannot couple to itself ({}, {})",
                    victim.row,
                    victim.col
                );
                couplings.push(SlabCoupling {
                    slot,
                    victim_idx: cell_idx(victim.row, victim.col),
                    agg_row: aggressor.row,
                    agg_cv: aggressor.col % mux,
                    agg_k: aggressor.col / mux,
                    agg_idx: cell_idx(aggressor.row, aggressor.col),
                    kind,
                });
                slot.set_in(&mut corrupts_state);
                continue;
            }
            // Every remaining process pins its site inside an activation
            // window on the cycle clock.
            match s.process {
                FaultProcess::Permanent { onset: 0 } => slot.set_in(&mut const_active),
                p => temporal.push((slot, p)),
            }
            // The column-side verdict of one column value under `word`.
            let mut col_verdict = |cv: usize, word: u64| {
                if !config.col_map().is_codeword(word) {
                    slot.set_in(&mut col_err[cv]);
                }
            };
            match s.site {
                FaultSite::Cell { row, col, stuck } => {
                    assert!(
                        row < rows && col < pcols,
                        "cell ({row}, {col}) out of range"
                    );
                    stuck_cells.push((slot, row, col % mux, col / mux, stuck));
                }
                FaultSite::RowDecoder(f) => {
                    let mut dec = BehavioralDecoder::new(org.row_bits());
                    dec.inject(f);
                    row_faults.push((slot, RowFault::Decoder(dec)));
                }
                FaultSite::ColDecoder(f) => {
                    let mut dec = BehavioralDecoder::new(org.col_bits().max(1));
                    dec.inject(f);
                    for cv in 0..mux {
                        let lines = dec.decode(cv as u64);
                        match lines {
                            ActiveLines::None => slot.set_in(&mut col_none[cv]),
                            ActiveLines::One(_) => {}
                            ActiveLines::Two(_, companion) => col_two[cv].push((slot, companion)),
                        }
                        let word = lines.iter().fold(full_word(col_width), |acc, line| {
                            acc & col_words[line as usize]
                        });
                        col_verdict(cv, word);
                    }
                }
                FaultSite::RowRomBit { line, bit } => {
                    assert!(line < rows as u64, "row ROM line out of range");
                    assert!((bit as usize) < row_width, "row ROM bit out of range");
                    row_faults.push((slot, RowFault::RomBit { line, bit }));
                }
                FaultSite::ColRomBit { line, bit } => {
                    assert!(line < mux as u64, "col ROM line out of range");
                    assert!((bit as usize) < col_width, "col ROM bit out of range");
                    for (cv, &w) in col_words.iter().enumerate() {
                        let flip = if cv as u64 == line { 1u64 << bit } else { 0 };
                        col_verdict(cv, w ^ flip);
                    }
                }
                FaultSite::RowRomColumn { bit, stuck } => {
                    assert!((bit as usize) < row_width, "row ROM column out of range");
                    row_faults.push((slot, RowFault::RomColumn { bit, stuck }));
                }
                FaultSite::ColRomColumn { bit, stuck } => {
                    assert!((bit as usize) < col_width, "col ROM column out of range");
                    for (cv, &w) in col_words.iter().enumerate() {
                        col_verdict(cv, force_bit(w, bit, stuck));
                    }
                }
                FaultSite::DataRegisterBit { bit, stuck } => {
                    assert!(bit < m, "register bit out of range");
                    data_reg.push((slot, bit, stuck));
                }
            }
        }

        let sites = org.words() as usize;
        let mut base = vec![0u64; (sites * stride).div_ceil(64)];
        if let Some(seed) = seed {
            pack_prefill(config, seed, &mut base);
        }
        let mut cells = vec![LaneSet::EMPTY; sites * stride];
        materialize(&base, 0..cells.len(), &mut cells);
        let flips_all = cell_flips.iter().fold(LaneSet::EMPTY, |acc, f| {
            let mut acc = acc;
            f.0.set_in(&mut acc);
            acc
        });
        let live_len = LiveLens {
            temporal: temporal.len(),
            cell_flips: cell_flips.len(),
            stuck_cells: stuck_cells.len(),
            couplings: couplings.len(),
            data_reg: data_reg.len(),
            row_two: vec![0; rows],
            col_two: col_two.iter().map(|l| l.len() as u32).collect(),
        };
        SlicedBackend {
            config: config.clone(),
            scenarios: scenarios.to_vec(),
            lanes,
            all_mask,
            mux,
            m,
            stride,
            cells,
            gold: base.clone(),
            base,
            scratch: vec![LaneSet::EMPTY; stride],
            cycle: 0,
            fired: LaneSet::EMPTY,
            flips_all,
            const_active,
            temporal,
            cell_flips,
            stuck_cells,
            couplings,
            data_reg,
            corrupts_state,
            // With no row-side fault every row's tables are empty from
            // the start.
            row_ready: vec![row_faults.is_empty(); rows],
            row_faults,
            row_partial: Vec::new(),
            row_words: vec![None; rows],
            row_none: vec![LaneSet::EMPTY; rows],
            col_none,
            row_two: vec![Vec::new(); rows],
            col_two,
            row_err: vec![LaneSet::EMPTY; rows],
            col_err,
            live_len,
            swept: false,
            dirty: DirtySites::new(sites),
            retired: LaneSet::EMPTY,
            pending_retire: LaneSet::EMPTY,
            live: {
                let mut live = Vec::with_capacity(W);
                live_words(&all_mask, &mut live);
                live
            },
        }
    }

    /// Can a sliced backend realise `scenario`? Same answer as the
    /// scalar behavioural backend: everything except a coupling whose
    /// victim is not a distinct cell.
    pub fn supports(scenario: &FaultScenario) -> bool {
        match scenario.process {
            FaultProcess::Coupling { aggressor, .. } => {
                matches!(scenario.site, FaultSite::Cell { row, col, .. }
                    if CellRef { row, col } != aggressor)
            }
            _ => true,
        }
    }

    /// Number of packed lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lane capacity of this slab width (`64 × W`).
    pub fn capacity(&self) -> usize {
        64 * W
    }

    /// Mask with one bit set per packed lane.
    pub fn lane_mask(&self) -> LaneSet<W> {
        self.all_mask
    }

    /// The packed scenarios, in lane order.
    pub fn scenarios(&self) -> &[FaultScenario] {
        &self.scenarios
    }

    /// The simulated design's configuration.
    pub fn config(&self) -> &RamConfig {
        &self.config
    }

    /// Cycles stepped (or skipped via [`advance`](Self::advance)) since
    /// the last reset — the activation clock.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Restore the pre-fault image and restart the activation clock at
    /// cycle 0, un-retiring every retired lane. Only the sites written,
    /// flipped or coupled into since the last reset are copied back (on
    /// every lane of each): the walk over the dirty-site bitmap costs
    /// O(sites / 64 + sites touched), so a short trial resets without
    /// touching the rest of the array, and a trial that dirtied every
    /// site costs one full materialisation. Rows whose tables were
    /// expanded while lanes were retired are un-expanded.
    /// Allocation-free.
    pub fn reset(&mut self) {
        let SlicedBackend {
            ref base,
            ref mut cells,
            ref mut gold,
            ref mut dirty,
            stride,
            ..
        } = *self;
        dirty.drain(|site| {
            let range = site * stride..(site + 1) * stride;
            materialize(base, range.clone(), cells);
            for idx in range {
                set_uniform_bit(gold, idx, uniform_bit(base, idx));
            }
        });
        for rv in self.row_partial.drain(..) {
            self.row_ready[rv] = false;
            self.row_none[rv] = LaneSet::EMPTY;
            self.row_err[rv] = LaneSet::EMPTY;
            self.row_two[rv].clear();
            self.live_len.row_two[rv] = 0;
        }
        self.cycle = 0;
        self.fired = LaneSet::EMPTY;
        self.retired = LaneSet::EMPTY;
        self.pending_retire = LaneSet::EMPTY;
        let mut live = std::mem::take(&mut self.live);
        live_words(&self.all_mask, &mut live);
        self.live = live;
        self.live_len.temporal = self.temporal.len();
        self.live_len.cell_flips = self.cell_flips.len();
        self.live_len.stuck_cells = self.stuck_cells.len();
        self.live_len.couplings = self.couplings.len();
        self.live_len.data_reg = self.data_reg.len();
        if std::mem::take(&mut self.swept) {
            for (list, live) in self.row_two.iter().zip(self.live_len.row_two.iter_mut()) {
                *live = list.len() as u32;
            }
            for (list, live) in self.col_two.iter().zip(self.live_len.col_two.iter_mut()) {
                *live = list.len() as u32;
            }
        }
    }

    /// Drop `lanes` from the per-lane fault-entry lists: the scan
    /// entries they contributed (pinned cells, double selections,
    /// activation windows, couplings) stop costing anything on every
    /// subsequent operation, and once a whole slab word has retired the
    /// dense per-bit loops skip it entirely. Activity and verdict masks
    /// are left untouched — a retired lane may keep reporting
    /// observation bits, which callers already ignore.
    ///
    /// Detection-measuring drivers call this as lanes latch their first
    /// detection: per the measurement contract nothing after a lane's
    /// first detection is recorded, so its observations are free to go
    /// quiet. This is what restores the narrow-block early-exit economy
    /// to wide slabs, where one late lane would otherwise keep every
    /// other lane's fault machinery running for the whole horizon. Do
    /// **not** retire lanes whose later observations matter (the March
    /// session logs every event, for instance). [`reset`](Self::reset)
    /// un-retires every lane.
    ///
    /// Retired lanes take effect immediately for the dense word skip,
    /// but the table sweep itself is batched: single-lane retirements
    /// (a transient firing late in the horizon) accumulate until
    /// enough lanes are pending or a whole slab word goes quiet.
    pub fn retire(&mut self, lanes: LaneSet<W>) {
        if lanes.is_empty() {
            return;
        }
        self.retired |= lanes;
        self.pending_retire |= lanes;
        let kills_word = self
            .live
            .iter()
            .any(|&w| self.all_mask.0[w] & !self.retired.0[w] == 0);
        let batch = (self.lanes as u32 / 4).clamp(RETIRE_SWEEP_MIN, RETIRE_SWEEP_MAX);
        if self.pending_retire.count() < batch && !kills_word {
            return;
        }
        self.pending_retire = LaneSet::EMPTY;
        self.swept = true;
        let dead = self.retired;
        self.live_len.temporal =
            partition_live(&mut self.temporal, self.live_len.temporal, &dead, |e| e.0);
        self.live_len.cell_flips =
            partition_live(&mut self.cell_flips, self.live_len.cell_flips, &dead, |e| {
                e.0
            });
        self.live_len.stuck_cells = partition_live(
            &mut self.stuck_cells,
            self.live_len.stuck_cells,
            &dead,
            |e| e.0,
        );
        self.live_len.couplings =
            partition_live(&mut self.couplings, self.live_len.couplings, &dead, |c| {
                c.slot
            });
        self.live_len.data_reg =
            partition_live(&mut self.data_reg, self.live_len.data_reg, &dead, |e| e.0);
        for (list, live) in self
            .row_two
            .iter_mut()
            .zip(self.live_len.row_two.iter_mut())
        {
            *live = partition_live(list, *live as usize, &dead, |e| e.0) as u32;
        }
        for (list, live) in self
            .col_two
            .iter_mut()
            .zip(self.live_len.col_two.iter_mut())
        {
            *live = partition_live(list, *live as usize, &dead, |e| e.0) as u32;
        }
        let mut live = std::mem::take(&mut self.live);
        live_words(&(self.all_mask & !self.retired), &mut live);
        self.live = live;
    }

    /// Advance the activation clock without executing an operation (the
    /// multi-bank scheduler's idle cycles). One-shot flips whose instant
    /// falls inside the skipped window fire before the next observation.
    pub fn advance(&mut self, cycles: u64) {
        self.cycle = self.cycle.saturating_add(cycles);
    }

    /// Execute one operation on every lane and report the per-lane
    /// observation masks.
    pub fn step(&mut self, op: Op) -> SlicedObservation<W> {
        // One-shot cell flips whose instant has been reached fire before
        // the operation observes the array.
        if self.fired != self.flips_all {
            let SlicedBackend {
                ref cell_flips,
                ref live_len,
                ref mut cells,
                ref mut fired,
                ref mut dirty,
                cycle,
                stride,
                ..
            } = *self;
            for &(slot, idx, at) in &cell_flips[..live_len.cell_flips] {
                if !slot.in_set(fired) && cycle >= at {
                    cells[idx].0[slot.word] ^= slot.bit;
                    slot.set_in(fired);
                    dirty.mark(idx / stride);
                }
            }
        }
        let mut active = self.const_active;
        for &(slot, p) in &self.temporal[..self.live_len.temporal] {
            if p.pins_site_at(self.cycle) {
                slot.set_in(&mut active);
            }
        }
        let (Op::Read(addr) | Op::Write(addr, _)) = op;
        let (rv, cv) = self.config.split_address(addr);
        let (rv, cv) = (rv as usize, cv as usize);
        if !self.row_ready[rv] {
            self.expand_row(rv);
        }
        let obs = match op {
            Op::Read(_) => {
                let obs = self.read(rv, cv, active);
                // Detect-and-restore, lane-masked: an indication on a
                // read of state-resident corruption heals the addressed
                // word from the golden image on exactly those lanes.
                let restore = obs.detected() & self.corrupts_state;
                if restore.any() {
                    self.restore(rv * self.mux + cv, restore);
                }
                obs
            }
            Op::Write(_, value) => self.write(rv, cv, value, active),
        };
        self.cycle += 1;
        obs
    }

    /// Expand row value `rv`'s selection and verdict entries from the
    /// row-side faults, in lane order. Retired lanes are skipped (their
    /// observations no longer count), which leaves the row partial until
    /// [`reset`](Self::reset) un-expands it.
    fn expand_row(&mut self, rv: usize) {
        let SlicedBackend {
            ref config,
            ref row_faults,
            ref retired,
            ref mut row_ready,
            ref mut row_partial,
            ref mut row_words,
            ref mut row_none,
            ref mut row_two,
            ref mut row_err,
            ref mut live_len,
            ..
        } = *self;
        let map = config.row_map();
        let mut rom_word =
            |line: usize| *row_words[line].get_or_insert_with(|| map.codeword_for(line as u64));
        let mut partial = false;
        for &(slot, fault) in row_faults {
            if slot.in_set(retired) {
                partial = true;
                continue;
            }
            let word = match fault {
                RowFault::Decoder(dec) => {
                    let lines = dec.decode(rv as u64);
                    match lines {
                        ActiveLines::None => slot.set_in(&mut row_none[rv]),
                        ActiveLines::One(_) => {}
                        ActiveLines::Two(_, companion) => row_two[rv].push((slot, companion)),
                    }
                    lines.iter().fold(full_word(map.width()), |acc, line| {
                        acc & rom_word(line as usize)
                    })
                }
                RowFault::RomBit { line, bit } => {
                    let flip = if rv as u64 == line { 1u64 << bit } else { 0 };
                    rom_word(rv) ^ flip
                }
                RowFault::RomColumn { bit, stuck } => force_bit(rom_word(rv), bit, stuck),
            };
            if !map.is_codeword(word) {
                slot.set_in(&mut row_err[rv]);
            }
        }
        live_len.row_two[rv] = row_two[rv].len() as u32;
        row_ready[rv] = true;
        if partial {
            row_partial.push(rv);
        }
    }

    fn read(&mut self, rv: usize, cv: usize, active: LaneSet<W>) -> SlicedObservation<W> {
        let stride = self.stride;
        let site = (rv * self.mux + cv) * stride;
        let SlicedBackend {
            ref cells,
            ref gold,
            ref mut scratch,
            ref stuck_cells,
            ref data_reg,
            ref row_none,
            ref col_none,
            ref row_two,
            ref col_two,
            ref row_err,
            ref col_err,
            ref live,
            ref live_len,
            mux,
            all_mask,
            ..
        } = *self;
        let full = live.len() == W;
        if full {
            scratch.copy_from_slice(&cells[site..site + stride]);
        } else {
            for (dst, src) in scratch.iter_mut().zip(&cells[site..site + stride]) {
                for &w in live {
                    dst.0[w] = src.0[w];
                }
            }
        }
        // Pinned-cell overlays replace the stored bit while active.
        for &(slot, row, scv, k, stuck) in &stuck_cells[..live_len.stuck_cells] {
            if row == rv && scv == cv && slot.in_set(&active) {
                slot.assign_in(&mut scratch[k], stuck);
            }
        }
        // No line selected → precharged all-ones on every bit group.
        let precharge = (row_none[rv] | col_none[cv]) & active;
        if precharge.any() {
            for word in scratch.iter_mut() {
                for &w in live {
                    word.0[w] |= precharge.0[w];
                }
            }
        }
        // Double selection → wired-OR with the companion row / column.
        for &(slot, companion) in &row_two[rv][..live_len.row_two[rv] as usize] {
            if slot.in_set(&active) {
                let cbase = (companion as usize * mux + cv) * stride;
                for (k, word) in scratch.iter_mut().enumerate() {
                    word.0[slot.word] |= cells[cbase + k].0[slot.word] & slot.bit;
                }
            }
        }
        for &(slot, companion) in &col_two[cv][..live_len.col_two[cv] as usize] {
            if slot.in_set(&active) {
                let cbase = (rv * mux + companion as usize) * stride;
                for (k, word) in scratch.iter_mut().enumerate() {
                    word.0[slot.word] |= cells[cbase + k].0[slot.word] & slot.bit;
                }
            }
        }
        // Data-register stuck bits strike the data word only (after the
        // mux, before the parity check).
        for &(slot, bit, stuck) in &data_reg[..live_len.data_reg] {
            if slot.in_set(&active) {
                slot.assign_in(&mut scratch[bit as usize], stuck);
            }
        }
        let mut err = LaneSet::EMPTY;
        let mut par = LaneSet::EMPTY;
        if full {
            for (k, &d) in scratch.iter().enumerate() {
                err |= if uniform_bit(gold, site + k) { !d } else { d };
                par ^= d;
            }
        } else {
            for (k, d) in scratch.iter().enumerate() {
                let stored_one = uniform_bit(gold, site + k);
                for &w in live {
                    let dw = d.0[w];
                    err.0[w] |= if stored_one { !dw } else { dw };
                    par.0[w] ^= dw;
                }
            }
        }
        SlicedObservation {
            erroneous: err & all_mask,
            row_code_error: row_err[rv] & active,
            col_code_error: col_err[cv] & active,
            parity_error: par & all_mask,
        }
    }

    fn write(
        &mut self,
        rv: usize,
        cv: usize,
        value: u64,
        active: LaneSet<W>,
    ) -> SlicedObservation<W> {
        let m = self.m;
        let value = if m == 64 {
            value
        } else {
            value & ((1u64 << m) - 1)
        };
        let parity = value.count_ones() % 2 == 1;
        // Lanes whose decoder selects no line write nothing at all.
        let none = (self.row_none[rv] | self.col_none[cv]) & active;
        let wmask = !none;
        let stride = self.stride;
        let site = (rv * self.mux + cv) * stride;
        let SlicedBackend {
            ref mut cells,
            ref mut gold,
            ref mut dirty,
            ref row_two,
            ref col_two,
            ref couplings,
            ref row_err,
            ref col_err,
            ref live,
            ref live_len,
            mux,
            ..
        } = *self;
        let wbit_at = |k: usize| {
            if k == m as usize {
                parity
            } else {
                value >> k & 1 == 1
            }
        };
        // The coupling aggressor check precedes the cell update: a write
        // transitions the aggressor iff the new value differs from the
        // currently stored one. Coupling lanes always have clean
        // decoders (single fault per lane), so the selected set is
        // exactly the nominal word.
        let mut toggled: LaneSet<W> = LaneSet::EMPTY;
        let couplings = &couplings[..live_len.couplings];
        for c in couplings {
            if c.agg_row == rv && c.agg_cv == cv {
                let cur = c.slot.in_set(&cells[c.agg_idx]);
                if cur != wbit_at(c.agg_k) {
                    c.slot.set_in(&mut toggled);
                }
            }
        }
        dirty.mark(rv * mux + cv);
        if live.len() == W {
            for k in 0..stride {
                let wbit = wbit_at(k);
                let idx = site + k;
                cells[idx] = (cells[idx] & !wmask) | if wbit { wmask } else { LaneSet::EMPTY };
            }
        } else {
            for k in 0..stride {
                let wbit = wbit_at(k);
                let cell = &mut cells[site + k];
                for &w in live {
                    let select = wmask.0[w];
                    cell.0[w] = (cell.0[w] & !select) | if wbit { select } else { 0 };
                }
            }
        }
        // Double selection lands the write in the companion word too.
        // Entry-outer order keeps the activity test out of the bit loop.
        for &(slot, companion) in &row_two[rv][..live_len.row_two[rv] as usize] {
            if slot.in_set(&active) {
                let csite = companion as usize * mux + cv;
                dirty.mark(csite);
                let cbase = csite * stride;
                for k in 0..stride {
                    slot.assign_in(&mut cells[cbase + k], wbit_at(k));
                }
            }
        }
        for &(slot, companion) in &col_two[cv][..live_len.col_two[cv] as usize] {
            if slot.in_set(&active) {
                let csite = rv * mux + companion as usize;
                dirty.mark(csite);
                let cbase = csite * stride;
                for k in 0..stride {
                    slot.assign_in(&mut cells[cbase + k], wbit_at(k));
                }
            }
        }
        // The fault-free twin always writes (its decoders are clean), on
        // every lane alike.
        for k in 0..stride {
            set_uniform_bit(gold, site + k, wbit_at(k));
        }
        // Coupling acts after the write settles.
        if toggled.any() {
            for c in couplings {
                if c.slot.in_set(&toggled) {
                    dirty.mark(c.victim_idx / stride);
                    match c.kind {
                        CouplingKind::Inversion => {
                            cells[c.victim_idx].0[c.slot.word] ^= c.slot.bit;
                        }
                        CouplingKind::Idempotent { value } => {
                            c.slot.assign_in(&mut cells[c.victim_idx], value);
                        }
                    }
                }
            }
        }
        SlicedObservation {
            erroneous: LaneSet::EMPTY,
            row_code_error: row_err[rv] & active,
            col_code_error: col_err[cv] & active,
            parity_error: LaneSet::EMPTY,
        }
    }

    /// Heal `mask`'s lanes of word address `site` from the golden image.
    /// A heal needs no dirty mark: the golden image differs from the
    /// prefill only at written sites, which are marked already, so
    /// healing an unmarked site leaves it at its prefill.
    fn restore(&mut self, site: usize, mask: LaneSet<W>) {
        let site = site * self.stride;
        for k in 0..self.stride {
            let idx = site + k;
            let gval = LaneSet::splat(uniform_bit(&self.gold, idx));
            self.cells[idx] = (self.cells[idx] & !mask) | (gval & mask);
        }
    }
}

/// Run `cycles` operations from `workload` against a sliced backend,
/// recording each lane's first-error and first-detection cycles.
///
/// Per lane, the outcome is identical to
/// [`measure_detection_on`](crate::sim::measure_detection_on) over a
/// scalar backend of that lane's scenario on the same stream: errors and
/// detections latch once, nothing after a lane's first detection is
/// recorded for it, and `cycles_run` is the detection cycle + 1 (or
/// `cycles` when undetected). The loop exits early once every lane has
/// detected.
pub fn measure_detection_sliced<const W: usize, S: OpSource + ?Sized>(
    backend: &mut SlicedBackend<W>,
    workload: &mut S,
    cycles: u64,
) -> Vec<DetectionOutcome> {
    let ops = (0..cycles).map(|cycle| (cycle, workload.next_op()));
    measure_detection_sliced_at(backend, ops, cycles)
}

/// [`measure_detection_sliced`] over a sparse stream of `(cycle, op)`
/// pairs in ascending cycle order, within a horizon of `cycles`: the
/// activation clock jumps over the cycles the stream skips (from a reset
/// clock), which is exactly stepping them idle, since an idle cycle
/// changes nothing but the clock. A system bank runs on its projection
/// of the global event stream this way.
pub fn measure_detection_sliced_at<const W: usize>(
    backend: &mut SlicedBackend<W>,
    ops: impl IntoIterator<Item = (u64, Op)>,
    cycles: u64,
) -> Vec<DetectionOutcome> {
    let all = backend.lane_mask();
    let mut out = vec![
        DetectionOutcome {
            cycles_run: cycles,
            first_error: None,
            first_detection: None,
        };
        backend.lanes()
    ];
    let mut seen_err = LaneSet::EMPTY;
    let mut seen_det = LaneSet::EMPTY;
    for (cycle, op) in ops {
        backend.advance(cycle.saturating_sub(backend.cycle()));
        let obs = backend.step(op);
        let pending = !seen_det;
        let new_err = obs.erroneous & pending & !seen_err & all;
        new_err.for_each_lane(|l| out[l].first_error = Some(cycle));
        seen_err |= new_err;
        let new_det = obs.detected() & pending & all;
        new_det.for_each_lane(|l| {
            out[l].first_detection = Some(cycle);
            out[l].cycles_run = cycle + 1;
        });
        seen_det |= new_det;
        if seen_det == all {
            break;
        }
        // Nothing after a lane's first detection is recorded, so its
        // fault machinery can stop paying rent immediately.
        backend.retire(new_det);
    }
    out
}

#[cfg(test)]
mod tests;
