//! Op-stream arena: each trial's workload stream materialised once and
//! replayed by reference.
//!
//! No campaign engine uses it: both draw each trial's stream where they
//! run it (one `shared_trial_seed` stream per lane pack and trial),
//! which costs a small share of a slab step and no memory. The arena
//! stays only because the benchmark's layer metrics (`perfbench`'s
//! `memory.arena_*` and `memory.replay_ns_per_op`) price it against that
//! regeneration; it is deleted with the next benchmark change.
//!
//! A materialised stream is a pure function of its `StreamKey`
//! `(model name, words, word bits, write fraction, seed, scrub period)`
//! plus the trial index. Streams are RNG prefixes: a request for more
//! cycles than a cached trial holds re-materialises that trial to the
//! longer length, of which the old ops are a prefix. The key includes
//! the model's registry *name*, not its address: two models that share
//! a name must produce identical streams.

use crate::sliced::shared_trial_seed;
use crate::workload::{Op, OpSource, ScrubInterleaver, WorkloadModel, WorkloadSpec};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Everything a materialised stream is a pure function of, minus the
/// trial index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StreamKey {
    model: &'static str,
    words: u64,
    word_bits: u32,
    write_fraction_bits: u64,
    seed: u64,
    scrub_period: u64,
}

#[derive(Debug, Default)]
struct TrialStreams {
    /// Materialised ops per trial index; a trial shorter than a request
    /// is re-materialised to the longer length (RNG prefix property).
    streams: Vec<Arc<Vec<Op>>>,
    /// How many times a model stream was instantiated — one per
    /// `(trial, longest length)` in steady state; tests assert on it.
    generated: u64,
}

/// Cache of materialised trial op streams, keyed by everything a stream
/// is a pure function of.
#[derive(Debug, Default)]
pub struct OpStreamArena {
    entries: Mutex<HashMap<StreamKey, Arc<Mutex<TrialStreams>>>>,
}

impl OpStreamArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Materialise (or fetch) the first `cycles` ops of trials
    /// `0..trials` for one `(model, spec, seed, scrub)` tuple. The
    /// returned handles are cheap clones; replay them with
    /// [`ReplayOps`].
    pub fn prepare(
        &self,
        model: &Arc<dyn WorkloadModel>,
        spec: WorkloadSpec,
        seed: u64,
        scrub_period: u64,
        trials: u32,
        cycles: u64,
    ) -> Vec<Arc<Vec<Op>>> {
        let key = StreamKey {
            model: model.name(),
            words: spec.words,
            word_bits: spec.word_bits,
            write_fraction_bits: spec.write_fraction.to_bits(),
            seed,
            scrub_period,
        };
        let entry = {
            let mut map = self.entries.lock().expect("arena map poisoned");
            map.entry(key).or_default().clone()
        };
        let mut slot = entry.lock().expect("arena entry poisoned");
        let need = cycles as usize;
        if slot.streams.len() < trials as usize {
            slot.streams
                .resize_with(trials as usize, || Arc::new(Vec::new()));
        }
        for trial in 0..trials {
            if slot.streams[trial as usize].len() >= need {
                continue;
            }
            let stream = model.stream(spec, shared_trial_seed(seed, trial));
            let ops: Vec<Op> = if scrub_period > 0 {
                let mut s = ScrubInterleaver::new(stream, scrub_period, spec.words);
                (0..need).map(|_| s.next_op()).collect()
            } else {
                let mut s = stream;
                (0..need).map(|_| s.next_op()).collect()
            };
            slot.generated += 1;
            slot.streams[trial as usize] = Arc::new(ops);
        }
        slot.streams[..trials as usize].to_vec()
    }

    /// Total model-stream instantiations across the arena's lifetime —
    /// the each-trial-generated-exactly-once regression hook.
    pub fn generated_streams(&self) -> u64 {
        self.entries
            .lock()
            .expect("arena map poisoned")
            .values()
            .map(|e| e.lock().expect("arena entry poisoned").generated)
            .sum()
    }
}

/// A replay cursor over one materialised trial stream.
#[derive(Debug, Clone)]
pub struct ReplayOps<'a> {
    ops: &'a [Op],
    pos: usize,
}

impl<'a> ReplayOps<'a> {
    /// Replay `ops` from the beginning.
    pub fn new(ops: &'a [Op]) -> Self {
        ReplayOps { ops, pos: 0 }
    }
}

impl OpSource for ReplayOps<'_> {
    fn next_op(&mut self) -> Op {
        let op = self.ops[self.pos];
        self.pos += 1;
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::model_by_name;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            words: 64,
            word_bits: 8,
            write_fraction: 0.25,
        }
    }

    #[test]
    fn arena_streams_match_direct_generation() {
        let model = model_by_name("uniform").unwrap();
        let arena = OpStreamArena::new();
        let streams = arena.prepare(&model, spec(), 0xFA17, 0, 4, 50);
        assert_eq!(streams.len(), 4);
        for (trial, ops) in streams.iter().enumerate() {
            let mut direct = model.stream(spec(), shared_trial_seed(0xFA17, trial as u32));
            let expect: Vec<Op> = (0..50).map(|_| direct.next_op()).collect();
            assert_eq!(ops.as_slice(), expect.as_slice(), "trial {trial}");
        }
    }

    #[test]
    fn arena_bakes_the_scrub_interleaver_in() {
        let model = model_by_name("uniform").unwrap();
        let arena = OpStreamArena::new();
        let streams = arena.prepare(&model, spec(), 7, 4, 1, 40);
        let inner = model.stream(spec(), shared_trial_seed(7, 0));
        let mut scrubbed = ScrubInterleaver::new(inner, 4, 64);
        let expect: Vec<Op> = (0..40).map(|_| scrubbed.next_op()).collect();
        assert_eq!(streams[0].as_slice(), expect.as_slice());
    }

    #[test]
    fn repeated_prepare_generates_each_trial_once() {
        let model = model_by_name("uniform").unwrap();
        let arena = OpStreamArena::new();
        let first = arena.prepare(&model, spec(), 3, 0, 6, 30);
        let again = arena.prepare(&model, spec(), 3, 0, 6, 30);
        assert_eq!(arena.generated_streams(), 6, "cache hit must not regen");
        for (a, b) in first.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b), "replays must share the same buffer");
        }
        // Fewer trials / shorter cycles reuse the cache outright.
        arena.prepare(&model, spec(), 3, 0, 3, 10);
        assert_eq!(arena.generated_streams(), 6);
    }

    #[test]
    fn longer_requests_rematerialise_as_prefix_extensions() {
        let model = model_by_name("uniform").unwrap();
        let arena = OpStreamArena::new();
        let short = arena.prepare(&model, spec(), 11, 0, 2, 20);
        let long = arena.prepare(&model, spec(), 11, 0, 2, 60);
        assert_eq!(arena.generated_streams(), 4, "2 short + 2 extended");
        for (s, l) in short.iter().zip(&long) {
            assert_eq!(s.as_slice(), &l[..20], "old ops must be a prefix");
            assert_eq!(l.len(), 60);
        }
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let model = model_by_name("uniform").unwrap();
        let arena = OpStreamArena::new();
        let a = arena.prepare(&model, spec(), 1, 0, 1, 25);
        let b = arena.prepare(&model, spec(), 2, 0, 1, 25);
        let c = arena.prepare(&model, spec(), 1, 4, 1, 25);
        assert_ne!(a[0].as_slice(), b[0].as_slice(), "seed must key");
        assert_ne!(a[0].as_slice(), c[0].as_slice(), "scrub must key");
        assert_eq!(arena.generated_streams(), 3);
    }

    #[test]
    fn replay_cursor_walks_in_order() {
        let ops = vec![Op::Read(1), Op::Write(2, 3), Op::Read(4)];
        let mut replay = ReplayOps::new(&ops);
        assert_eq!(replay.next_op(), Op::Read(1));
        assert_eq!(replay.next_op(), Op::Write(2, 3));
        assert_eq!(replay.next_op(), Op::Read(4));
    }
}
