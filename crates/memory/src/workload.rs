//! Workload generators: the address/operation streams driving detection
//! latency.
//!
//! The paper's analysis assumes **uniformly random addresses each cycle**;
//! [`AddressPattern::UniformRandom`] realises exactly that. Everything else
//! here probes how real access behaviour changes empirical latency — an
//! analysis the paper does not attempt, included as extension experiments.
//!
//! Two layers:
//!
//! * [`Workload`] — the original concrete generator over the fixed
//!   [`AddressPattern`] shapes, kept for direct callers.
//! * [`WorkloadModel`] — the pluggable layer the campaign engine and the
//!   exploration crate consume: a model is a *factory of deterministic
//!   per-trial op streams*, pure in `(spec, seed)`, so campaigns stay
//!   bit-identical at every thread count no matter which model drives
//!   them. Built-ins cover the paper's uniform model plus sequential
//!   scans, bursty locality, a zipf-like hot spot, and read-mostly /
//!   write-mostly mixes; [`model_by_name`] resolves the CLI spelling.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the word at the address.
    Read(u64),
    /// Write a value at the address.
    Write(u64, u64),
}

impl Op {
    /// The address touched.
    pub fn addr(&self) -> u64 {
        match *self {
            Op::Read(a) | Op::Write(a, _) => a,
        }
    }
}

/// Address-sequence shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AddressPattern {
    /// Fresh uniform address every cycle (the paper's model).
    UniformRandom,
    /// `0, 1, 2, …` wrapping.
    Sequential,
    /// `0, k, 2k, …` wrapping (stride in words).
    Strided {
        /// Stride between consecutive accesses.
        stride: u64,
    },
    /// Uniform within a window of the given size starting at 0 (models a
    /// hot working set that never touches most rows).
    HotSpot {
        /// Window size in words.
        window: u64,
    },
}

/// A deterministic, seeded operation stream.
#[derive(Debug, Clone)]
pub struct Workload {
    pattern: AddressPattern,
    words: u64,
    word_mask: u64,
    write_fraction: f64,
    rng: SmallRng,
    counter: u64,
}

impl Workload {
    /// New workload over a `words`-word memory with `word_bits`-bit data.
    ///
    /// `write_fraction` in `[0, 1]` selects the probability a cycle is a
    /// write (with random data).
    ///
    /// # Panics
    /// Panics if `words == 0` or `write_fraction` is outside `[0, 1]`.
    pub fn new(
        pattern: AddressPattern,
        words: u64,
        word_bits: u32,
        write_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(words > 0, "empty memory");
        assert!(
            (0.0..=1.0).contains(&write_fraction),
            "write fraction {write_fraction} outside [0, 1]"
        );
        let word_mask = word_mask(word_bits);
        Workload {
            pattern,
            words,
            word_mask,
            write_fraction,
            rng: SmallRng::seed_from_u64(seed),
            counter: 0,
        }
    }

    /// The paper's model: uniform random addresses, read-heavy (10 % writes).
    pub fn uniform(words: u64, word_bits: u32, seed: u64) -> Self {
        Workload::new(AddressPattern::UniformRandom, words, word_bits, 0.1, seed)
    }

    fn next_addr(&mut self) -> u64 {
        let a = match self.pattern {
            AddressPattern::UniformRandom => self.rng.gen_range(0..self.words),
            AddressPattern::Sequential => self.counter % self.words,
            AddressPattern::Strided { stride } => (self.counter * stride) % self.words,
            AddressPattern::HotSpot { window } => {
                let w = window.clamp(1, self.words);
                self.rng.gen_range(0..w)
            }
        };
        self.counter += 1;
        a
    }

    /// Produce the next operation.
    pub fn next_op(&mut self) -> Op {
        let addr = self.next_addr();
        if self.rng.gen_bool(self.write_fraction) {
            Op::Write(addr, self.rng.gen::<u64>() & self.word_mask)
        } else {
            Op::Read(addr)
        }
    }
}

/// Anything that yields memory operations one at a time.
///
/// Detection measurement ([`crate::sim::measure_detection_on`]) consumes
/// any `OpSource`, so campaigns can be driven by the concrete [`Workload`]
/// or by any stream a [`WorkloadModel`] fabricates.
pub trait OpSource {
    /// Produce the next operation.
    fn next_op(&mut self) -> Op;
}

impl OpSource for Workload {
    fn next_op(&mut self) -> Op {
        Workload::next_op(self)
    }
}

impl<T: OpSource + ?Sized> OpSource for Box<T> {
    fn next_op(&mut self) -> Op {
        (**self).next_op()
    }
}

/// A boxed, sendable operation stream — what a [`WorkloadModel`] fabricates
/// per trial.
pub type OpStream = Box<dyn OpSource + Send>;

/// The memory a stream drives, plus the campaign's baseline write mix.
///
/// Models that *are about* the read/write mix (e.g. [`ReadMostly`],
/// [`WriteMostly`]) override `write_fraction`; address-shape models honour
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Words in the memory (addresses are `0..words`).
    pub words: u64,
    /// Data width in bits (write values are masked to it).
    pub word_bits: u32,
    /// Baseline probability that a cycle is a write.
    pub write_fraction: f64,
}

/// A pluggable workload: a factory of deterministic per-trial op streams.
///
/// The determinism contract mirrors the campaign engine's: the stream
/// returned for a given `(spec, seed)` pair must always replay the same
/// operations, and must depend on nothing else (no global state, no
/// scheduling). That is what keeps campaign results bit-identical at every
/// thread count regardless of the model plugged in.
pub trait WorkloadModel: std::fmt::Debug + Send + Sync {
    /// Short CLI/report name (e.g. `"uniform"`, `"hotspot"`).
    fn name(&self) -> &'static str;

    /// Fabricate the op stream for one trial.
    fn stream(&self, spec: WorkloadSpec, seed: u64) -> OpStream;
}

/// The paper's model: fresh uniform random address every cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformRandom;

impl WorkloadModel for UniformRandom {
    fn name(&self) -> &'static str {
        "uniform"
    }
    fn stream(&self, spec: WorkloadSpec, seed: u64) -> OpStream {
        pattern_stream(AddressPattern::UniformRandom, spec, seed)
    }
}

/// Sequential scan `0, 1, 2, …` wrapping — the scrubber's shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialScan;

impl WorkloadModel for SequentialScan {
    fn name(&self) -> &'static str {
        "sequential"
    }
    fn stream(&self, spec: WorkloadSpec, seed: u64) -> OpStream {
        pattern_stream(AddressPattern::Sequential, spec, seed)
    }
}

/// A [`Workload`] over one fixed [`AddressPattern`], boxed as a model's
/// per-trial stream.
fn pattern_stream(pattern: AddressPattern, spec: WorkloadSpec, seed: u64) -> OpStream {
    Box::new(Workload::new(
        pattern,
        spec.words,
        spec.word_bits,
        spec.write_fraction,
        seed,
    ))
}

/// Bursty locality: pick a random base address, stream `burst` sequential
/// accesses from it, jump to a fresh base. DMA transfers and cache-line
/// refills look like this.
#[derive(Debug, Clone, Copy)]
pub struct Bursty {
    /// Accesses per burst before jumping to a new base.
    pub burst: u64,
}

impl Default for Bursty {
    fn default() -> Self {
        Bursty { burst: 32 }
    }
}

impl WorkloadModel for Bursty {
    fn name(&self) -> &'static str {
        "bursty"
    }
    fn stream(&self, spec: WorkloadSpec, seed: u64) -> OpStream {
        Box::new(BurstyStream {
            words: spec.words,
            word_mask: word_mask(spec.word_bits),
            write_fraction: spec.write_fraction,
            burst: self.burst.max(1),
            base: 0,
            pos: u64::MAX, // forces a fresh base on the first op
            rng: SmallRng::seed_from_u64(seed),
        })
    }
}

#[derive(Debug)]
struct BurstyStream {
    words: u64,
    word_mask: u64,
    write_fraction: f64,
    burst: u64,
    base: u64,
    pos: u64,
    rng: SmallRng,
}

impl OpSource for BurstyStream {
    fn next_op(&mut self) -> Op {
        if self.pos >= self.burst {
            self.base = self.rng.gen_range(0..self.words);
            self.pos = 0;
        }
        let addr = (self.base + self.pos) % self.words;
        self.pos += 1;
        if self.rng.gen_bool(self.write_fraction) {
            Op::Write(addr, self.rng.gen::<u64>() & self.word_mask)
        } else {
            Op::Read(addr)
        }
    }
}

/// Zipf-like hot spot: address ranks drawn log-uniformly, so low addresses
/// absorb most of the traffic while the whole space stays reachable — the
/// classic skewed-popularity shape (`P[addr < x] ≈ ln x / ln words`),
/// unlike [`AddressPattern::HotSpot`]'s hard window.
#[derive(Debug, Clone, Copy, Default)]
pub struct HotSpotZipf;

impl WorkloadModel for HotSpotZipf {
    fn name(&self) -> &'static str {
        "hotspot"
    }
    fn stream(&self, spec: WorkloadSpec, seed: u64) -> OpStream {
        Box::new(ZipfStream {
            words: spec.words,
            // Span of the inverse CDF is words + 1 so the *top* address
            // stays reachable (exp(u·ln(words+1)) ∈ [1, words+1)).
            ln_span: ((spec.words + 1) as f64).ln(),
            word_mask: word_mask(spec.word_bits),
            write_fraction: spec.write_fraction,
            rng: SmallRng::seed_from_u64(seed),
        })
    }
}

#[derive(Debug)]
struct ZipfStream {
    words: u64,
    ln_span: f64,
    word_mask: u64,
    write_fraction: f64,
    rng: SmallRng,
}

impl OpSource for ZipfStream {
    fn next_op(&mut self) -> Op {
        let addr = if self.words == 1 {
            0
        } else {
            // Inverse-CDF of the log-uniform law: addr + 1 = (words+1)^u.
            let u: f64 = self.rng.gen();
            (((u * self.ln_span).exp()) as u64).clamp(1, self.words) - 1
        };
        if self.rng.gen_bool(self.write_fraction) {
            Op::Write(addr, self.rng.gen::<u64>() & self.word_mask)
        } else {
            Op::Read(addr)
        }
    }
}

/// Uniform addresses, 2 % writes — a lookup-table / code-store mix. The
/// spec's baseline write fraction is deliberately overridden: the mix *is*
/// the model.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadMostly;

impl WorkloadModel for ReadMostly {
    fn name(&self) -> &'static str {
        "read-mostly"
    }
    fn stream(&self, spec: WorkloadSpec, seed: u64) -> OpStream {
        Box::new(Workload::new(
            AddressPattern::UniformRandom,
            spec.words,
            spec.word_bits,
            0.02,
            seed,
        ))
    }
}

/// Uniform addresses, 90 % writes — a logging / buffer-fill mix. Writes
/// deliver no data to the system, so detection leans entirely on the
/// decoder ROMs; this model stresses exactly that path.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteMostly;

impl WorkloadModel for WriteMostly {
    fn name(&self) -> &'static str {
        "write-mostly"
    }
    fn stream(&self, spec: WorkloadSpec, seed: u64) -> OpStream {
        Box::new(Workload::new(
            AddressPattern::UniformRandom,
            spec.words,
            spec.word_bits,
            0.9,
            seed,
        ))
    }
}

/// A background scrubber merged into an operation stream: every
/// `period`-th cycle is claimed by a sequential sweep read (slots sit at
/// the end of each period, mirroring the system layer's
/// `ScrubSchedule`), all other cycles drain the wrapped source. This is
/// the single-memory analogue of the system clock's scrub slots — the
/// mechanism that turns a one-shot transient flip from
/// "maybe-never-read" into "read within one sweep".
#[derive(Debug)]
pub struct ScrubInterleaver<S> {
    inner: S,
    period: u64,
    words: u64,
    next_addr: u64,
    cycle: u64,
}

impl<S: OpSource> ScrubInterleaver<S> {
    /// Wrap `inner`, claiming every `period`-th cycle for a sweep read
    /// over `words` addresses (`period = 0` disables scrubbing — the
    /// wrapper becomes transparent).
    pub fn new(inner: S, period: u64, words: u64) -> Self {
        assert!(words > 0, "empty memory");
        ScrubInterleaver {
            inner,
            period,
            words,
            next_addr: 0,
            cycle: 0,
        }
    }
}

impl<S: OpSource> OpSource for ScrubInterleaver<S> {
    fn next_op(&mut self) -> Op {
        let cycle = self.cycle;
        self.cycle += 1;
        if self.period > 0 && (cycle + 1).is_multiple_of(self.period) {
            let addr = self.next_addr;
            self.next_addr = (addr + 1) % self.words;
            Op::Read(addr)
        } else {
            self.inner.next_op()
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

/// CLI names of every built-in model, in presentation order.
pub const MODEL_NAMES: [&str; 6] = [
    "uniform",
    "sequential",
    "bursty",
    "hotspot",
    "read-mostly",
    "write-mostly",
];

/// Resolve a built-in model from its CLI name.
pub fn model_by_name(name: &str) -> Option<Arc<dyn WorkloadModel>> {
    Some(match name {
        "uniform" => Arc::new(UniformRandom),
        "sequential" => Arc::new(SequentialScan),
        "bursty" => Arc::new(Bursty::default()),
        "hotspot" => Arc::new(HotSpotZipf),
        "read-mostly" => Arc::new(ReadMostly),
        "write-mostly" => Arc::new(WriteMostly),
        _ => return None,
    })
}

/// All built-in models, in [`MODEL_NAMES`] order.
pub fn builtin_models() -> Vec<Arc<dyn WorkloadModel>> {
    MODEL_NAMES
        .iter()
        .map(|n| model_by_name(n).expect("all built-in names resolve"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut w1 = Workload::uniform(256, 16, 42);
        let mut w2 = Workload::uniform(256, 16, 42);
        for _ in 0..100 {
            assert_eq!(w1.next_op(), w2.next_op());
        }
    }

    #[test]
    fn addresses_in_range() {
        for pattern in [
            AddressPattern::UniformRandom,
            AddressPattern::Sequential,
            AddressPattern::Strided { stride: 7 },
            AddressPattern::HotSpot { window: 16 },
        ] {
            let mut w = Workload::new(pattern, 100, 8, 0.5, 1);
            for _ in 0..500 {
                let op = w.next_op();
                assert!(op.addr() < 100, "{pattern:?}: {op:?}");
                if let Op::Write(_, v) = op {
                    assert!(v < 256);
                }
            }
        }
    }

    #[test]
    fn sequential_wraps() {
        let mut w = Workload::new(AddressPattern::Sequential, 4, 8, 0.0, 0);
        let addrs: Vec<u64> = (0..8).map(|_| w.next_op().addr()).collect();
        assert_eq!(addrs, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn hotspot_confined_to_window() {
        let mut w = Workload::new(AddressPattern::HotSpot { window: 4 }, 1024, 8, 0.0, 7);
        for _ in 0..1000 {
            assert!(w.next_op().addr() < 4);
        }
    }

    #[test]
    fn write_fraction_zero_means_reads_only() {
        let mut w = Workload::new(AddressPattern::UniformRandom, 64, 8, 0.0, 3);
        for _ in 0..200 {
            assert!(matches!(w.next_op(), Op::Read(_)));
        }
    }

    #[test]
    fn uniform_covers_address_space() {
        let mut w = Workload::uniform(16, 8, 9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(w.next_op().addr());
        }
        assert_eq!(seen.len(), 16, "uniform stream should reach every word");
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            words: 256,
            word_bits: 8,
            write_fraction: 0.1,
        }
    }

    #[test]
    fn registry_resolves_every_builtin_and_rejects_unknowns() {
        for name in MODEL_NAMES {
            let model = model_by_name(name).expect(name);
            assert_eq!(model.name(), name);
        }
        assert!(model_by_name("adversarial").is_none());
        assert_eq!(builtin_models().len(), MODEL_NAMES.len());
    }

    #[test]
    fn model_streams_are_pure_in_seed() {
        for model in builtin_models() {
            let mut a = model.stream(spec(), 77);
            let mut b = model.stream(spec(), 77);
            for i in 0..200 {
                assert_eq!(a.next_op(), b.next_op(), "{} op {i}", model.name());
            }
        }
    }

    #[test]
    fn model_addresses_and_values_in_range() {
        for model in builtin_models() {
            let mut s = model.stream(spec(), 3);
            for _ in 0..500 {
                let op = s.next_op();
                assert!(op.addr() < 256, "{}: {op:?}", model.name());
                if let Op::Write(_, v) = op {
                    assert!(v < 256, "{}: {op:?}", model.name());
                }
            }
        }
    }

    #[test]
    fn bursty_runs_are_sequential_within_a_burst() {
        let model = Bursty { burst: 8 };
        let mut s = model.stream(
            WorkloadSpec {
                words: 1024,
                word_bits: 8,
                write_fraction: 0.0,
            },
            5,
        );
        let addrs: Vec<u64> = (0..24).map(|_| s.next_op().addr()).collect();
        for chunk in addrs.chunks(8) {
            for w in chunk.windows(2) {
                assert_eq!(w[1], (w[0] + 1) % 1024, "burst not sequential: {addrs:?}");
            }
        }
    }

    #[test]
    fn zipf_hotspot_skews_towards_low_addresses() {
        let mut s = HotSpotZipf.stream(
            WorkloadSpec {
                words: 1024,
                word_bits: 8,
                write_fraction: 0.0,
            },
            11,
        );
        let low = (0..4000).filter(|_| s.next_op().addr() < 32).count();
        // Log-uniform: P[addr < 32] ≈ ln 33 / ln 1025 ≈ 0.50; uniform
        // would give 3 %. Anything above 30 % proves the skew.
        assert!(low > 1200, "low-address hits {low}/4000");
    }

    #[test]
    fn zipf_reaches_the_whole_space_including_the_top_address() {
        let mut s = HotSpotZipf.stream(
            WorkloadSpec {
                words: 8,
                word_bits: 8,
                write_fraction: 0.0,
            },
            13,
        );
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            seen.insert(s.next_op().addr());
        }
        assert_eq!(seen.len(), 8, "skewed, not truncated: {seen:?}");
    }

    #[test]
    fn scrub_interleaver_claims_exactly_the_period_slots() {
        let inner = Workload::new(AddressPattern::Sequential, 100, 8, 0.0, 0);
        let mut s = ScrubInterleaver::new(inner, 4, 6);
        let ops: Vec<Op> = (0..12).map(|_| s.next_op()).collect();
        // Slots at cycles 3, 7, 11 sweep 0, 1, 2; other cycles drain the
        // sequential mission stream 0, 1, 2, ...
        let addrs: Vec<u64> = ops.iter().map(Op::addr).collect();
        assert_eq!(addrs, vec![0, 1, 2, 0, 3, 4, 5, 1, 6, 7, 8, 2]);
        // Period 0 is transparent.
        let inner = Workload::new(AddressPattern::Sequential, 100, 8, 0.0, 0);
        let mut s = ScrubInterleaver::new(inner, 0, 6);
        let addrs: Vec<u64> = (0..5).map(|_| s.next_op().addr()).collect();
        assert_eq!(addrs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mix_models_override_the_baseline_write_fraction() {
        let count_writes = |model: &dyn WorkloadModel| {
            let mut s = model.stream(spec(), 9);
            (0..2000)
                .filter(|_| matches!(s.next_op(), Op::Write(..)))
                .count()
        };
        let read_mostly = count_writes(&ReadMostly);
        let uniform = count_writes(&UniformRandom);
        let write_mostly = count_writes(&WriteMostly);
        assert!(read_mostly < 120, "read-mostly wrote {read_mostly}/2000");
        assert!(
            (120..350).contains(&uniform),
            "uniform wrote {uniform}/2000"
        );
        assert!(
            write_mostly > 1600,
            "write-mostly wrote {write_mostly}/2000"
        );
    }
}
