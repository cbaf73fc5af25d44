//! The lane-grid executor shared by the campaign engines, plus the
//! thread-count rule ([`resolve_threads`]) and the order-preserving
//! [`par_map`] that every other fan-out in the workspace goes through
//! too.
//!
//! A campaign is a `position × trial` grid, a position being one entry of
//! the engine's fault universe. [`LaneGrid`] owns the whole scheduling
//! path: it packs positions into lane packs (group by group — the system
//! engine packs each bank on its own), cuts every pack's trials into
//! [`TrialBlock`]s at the worker count, runs the blocks inline or on the
//! pool behind the one serial threshold, and reassembles what they
//! return — one row per position ([`LaneGrid::fold`]) or every cell in
//! canonical `(position, trial)` order ([`LaneGrid::cells`]). An engine
//! supplies only a [`PackRunner`], which simulates one trial range of
//! one pack (its slab executor or its generic oracle), and its per-cell
//! builders.
//!
//! Blocks are pack-major with ascending trial ranges, they come back in
//! that order whichever way they ran, and no trial's outcome depends on
//! the block that ran it, so both reassemblies are bit-identical at every
//! thread count and lane width.

use crate::campaign::CampaignConfig;
use crate::sim::{DetectionOutcome, PackedOutcome};
use crate::sliced::{with_slab_words, SlabTask};
use rayon::prelude::*;
use std::ops::Range;

/// Grids of at most this many `position × trial` cells run serially by
/// default: below it the rayon fan-out (block construction and fresh
/// scoped workers per fan-out) costs more than it buys. perfbench's
/// `rayon.par_wave_us` prices one two-thread fan-out of trivial items at
/// tens of microseconds.
pub const DEFAULT_SERIAL_THRESHOLD: u64 = 256;

/// The worker count a `threads` setting stands for: `threads` itself
/// when pinned, else the ambient rayon count — the machine default, or
/// 1 inside another fan-out's worker.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    }
}

/// One schedulable unit of work: a contiguous trial range of one lane
/// pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialBlock {
    /// Index of the lane pack.
    pub pack: usize,
    /// First trial of the range.
    pub trial_start: u32,
    /// One past the last trial of the range.
    pub trial_end: u32,
}

impl TrialBlock {
    /// Trials the block runs.
    pub fn trials(&self) -> Range<u32> {
        self.trial_start..self.trial_end
    }
}

/// Split a `packs × trials` grid into blocks for about `target` blocks'
/// worth of scheduling: one block per pack once the packs reach
/// `target`, otherwise each pack's trials cut into just enough ranges to
/// reach it. Pack-major with ascending trial ranges; a zero-trial grid
/// still gets one empty block per pack, so every pack appears.
///
/// [`LaneGrid`] passes the worker count ([`resolve_threads`]) as
/// `target`: every extra trial range builds another backend, so trials
/// split only as far as the workers demand, and a serial run gets one
/// backend per pack. The pool's dynamic chunking balances uneven packs.
fn trial_blocks(packs: usize, trials: u32, target: usize) -> Vec<TrialBlock> {
    let splits = if packs == 0 || packs >= target {
        1
    } else {
        (target.div_ceil(packs) as u32).clamp(1, trials.max(1))
    };
    let block_len = trials.div_ceil(splits).max(1);
    let mut blocks = Vec::with_capacity(packs * splits as usize);
    for pack in 0..packs {
        let mut t0 = 0u32;
        loop {
            let t1 = (t0 + block_len).min(trials);
            blocks.push(TrialBlock {
                pack,
                trial_start: t0,
                trial_end: t1,
            });
            t0 = t1;
            if t0 >= trials {
                break;
            }
        }
    }
    blocks
}

/// Map `f` over `items` in parallel — on the ambient rayon pool when
/// `threads == 0`, else on a pool pinned to `threads` — and return the
/// outputs in input order, whatever order they ran in. The one fan-out
/// every engine's thread-count contract rests on: with `f` pure, the
/// result is bit-identical at any `threads`.
pub fn par_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let run = || items.par_iter().map(&f).collect();
    if threads == 0 {
        run()
    } else {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool construction is infallible")
            .install(run)
    }
}

/// What an engine supplies to the [`LaneGrid`]: how one trial range of
/// one lane pack runs.
pub trait PackRunner: Sync {
    /// Simulate `trials` of the pack whose lane `i` carries universe
    /// position `positions[i]`, at slab width `W` (the narrowest that
    /// fits the pack), and hand each trial's per-lane outcomes to
    /// `visit` in trial order. A runner over a generic backend steps the
    /// lanes one at a time and ignores `W`.
    fn run_pack<const W: usize>(
        &self,
        positions: &[usize],
        trials: Range<u32>,
        visit: &mut dyn FnMut(&[DetectionOutcome]),
    );
}

/// One trial block of one pack, runnable at any slab width.
struct PackBlock<'a, R> {
    runner: &'a R,
    positions: &'a [usize],
    trials: Range<u32>,
    visit: &'a mut dyn FnMut(&[DetectionOutcome]),
}

impl<R: PackRunner> SlabTask for PackBlock<'_, R> {
    type Output = ();

    fn run<const W: usize>(self) {
        self.runner
            .run_pack::<W>(self.positions, self.trials, self.visit);
    }
}

/// A campaign's `position × trial` grid, packed into lanes and cut into
/// trial blocks: the one executor behind both campaign engines' results
/// and traces.
#[derive(Debug)]
pub struct LaneGrid {
    /// Universe positions, pack-major.
    order: Vec<usize>,
    /// Each pack's span of `order`.
    packs: Vec<Range<usize>>,
    /// Trial blocks, pack-major with ascending trial ranges.
    blocks: Vec<TrialBlock>,
    /// The trial horizon, for unpacking stored outcomes.
    cycles: u64,
    threads: usize,
    serial: bool,
}

impl LaneGrid {
    /// The grid of a `positions`-wide universe under `campaign`: positions
    /// sorted stably by `group`, each group's run packed `width` lanes at
    /// a time, every pack's trials cut into blocks at the worker count of
    /// `threads`. The grid runs serially when it has at most
    /// `serial_threshold` cells (`0` = always fan out) — scheduling
    /// only: the same blocks run either way.
    pub fn new(
        campaign: &CampaignConfig,
        threads: usize,
        serial_threshold: u64,
        width: usize,
        positions: usize,
        group: impl Fn(usize) -> usize,
    ) -> Self {
        let mut order: Vec<usize> = (0..positions).collect();
        order.sort_by_key(|&p| group(p));
        let mut packs = Vec::new();
        let mut start = 0;
        for run in order.chunk_by(|&a, &b| group(a) == group(b)) {
            for pack in run.chunks(width.max(1)) {
                packs.push(start..start + pack.len());
                start += pack.len();
            }
        }
        LaneGrid {
            blocks: trial_blocks(packs.len(), campaign.trials, resolve_threads(threads)),
            order,
            packs,
            cycles: campaign.cycles,
            threads,
            serial: serial_threshold > 0
                && positions as u64 * u64::from(campaign.trials) <= serial_threshold,
        }
    }

    /// The trial blocks, pack-major with ascending trial ranges.
    pub fn blocks(&self) -> &[TrialBlock] {
        &self.blocks
    }

    /// The universe positions of pack `pack`, lane order.
    pub fn pack(&self, pack: usize) -> &[usize] {
        &self.order[self.packs[pack].clone()]
    }

    /// Every pack's universe positions, pack order.
    pub(crate) fn packs(&self) -> impl ExactSizeIterator<Item = &[usize]> + '_ {
        (0..self.packs.len()).map(|pack| self.pack(pack))
    }

    /// Run every block through `runner` and fold its cells into one row
    /// per universe position, position order. `init(position, trials)`
    /// makes an empty row for `trials` outcomes, `record` adds one trial's
    /// outcome to a block's row, and `merge` adds a block's row to the
    /// position's — in block order, so a position's trials arrive
    /// ascending. Blocks fold their cells as they run, so memory is
    /// O(positions) beyond what the rows themselves keep.
    pub fn fold<R: PackRunner, T: Send>(
        &self,
        runner: &R,
        init: impl Fn(usize, usize) -> T + Sync,
        record: impl Fn(&mut T, &DetectionOutcome) + Sync,
        merge: impl Fn(&mut T, T),
    ) -> Vec<T> {
        let work = |block: &TrialBlock| {
            let positions = self.pack(block.pack);
            let trials = block.trials();
            let mut rows: Vec<T> = positions.iter().map(|&p| init(p, trials.len())).collect();
            let visit = &mut |outcomes: &[DetectionOutcome]| {
                for (row, out) in rows.iter_mut().zip(outcomes) {
                    record(row, out);
                }
            };
            let block = PackBlock {
                runner,
                positions,
                trials,
                visit,
            };
            with_slab_words(positions.len(), block);
            rows
        };
        let partials: Vec<Vec<T>> = if self.serial {
            self.blocks.iter().map(work).collect()
        } else {
            par_map(self.threads, &self.blocks, work)
        };
        let mut rows: Vec<T> = (0..self.order.len()).map(|p| init(p, 0)).collect();
        for (block, partial) in self.blocks.iter().zip(partials) {
            for (&p, row) in self.pack(block.pack).iter().zip(partial) {
                merge(&mut rows[p], row);
            }
        }
        rows
    }

    /// Build every cell's items with `cell(position, trial, outcome,
    /// out)` in canonical `(position, trial)` order, into an exactly sized
    /// `Vec` (a trace is a traced pass's largest allocation). Until the
    /// walk, each cell's outcome is kept packed in its position's row.
    pub fn cells<R: PackRunner, E>(
        &self,
        runner: &R,
        cell: impl Fn(usize, u32, &DetectionOutcome, &mut Vec<E>),
    ) -> Vec<E> {
        let outcomes = self.fold(
            runner,
            |_, trials| Vec::with_capacity(trials),
            |row: &mut Vec<PackedOutcome>, out| row.push(PackedOutcome::pack(out)),
            |row, part| row.extend(part),
        );
        let walk = |f: &mut dyn FnMut(usize, u32, &DetectionOutcome)| {
            for (p, row) in outcomes.iter().enumerate() {
                for (trial, packed) in (0..).zip(row) {
                    f(p, trial, &packed.unpack(self.cycles));
                }
            }
        };
        let mut scratch = Vec::new();
        let mut total = 0;
        walk(&mut |p, trial, out| {
            scratch.clear();
            cell(p, trial, out, &mut scratch);
            total += scratch.len();
        });
        let mut items = Vec::with_capacity(total);
        walk(&mut |p, trial, out| cell(p, trial, out, &mut items));
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_blocks_cover_every_cell_once_in_pack_major_order() {
        for (packs, trials, target) in [
            (64usize, 8u32, 4usize),
            (3, 100, 8),
            (1, 7, 2),
            (200, 1, 16),
        ] {
            let blocks = trial_blocks(packs, trials, target);
            let mut seen = vec![0u32; packs];
            for b in &blocks {
                assert!(b.trial_start < b.trial_end, "empty block {b:?}");
                seen[b.pack] += b.trial_end - b.trial_start;
            }
            assert!(
                seen.iter().all(|&t| t == trials),
                "{packs}x{trials}@{target}: {seen:?}"
            );
            // Packs never decrease; trial ranges are contiguous per pack.
            for w in blocks.windows(2) {
                assert!(w[1].pack >= w[0].pack);
                if w[1].pack == w[0].pack {
                    assert_eq!(w[1].trial_start, w[0].trial_end);
                }
            }
        }
    }

    #[test]
    fn nested_fan_outs_run_inline_inside_a_pinned_pool() {
        // Each item would fan out again on the ambient pool: inside
        // `par_map(2, ..)`'s workers that must be one thread, not the
        // machine default, so `--threads 2` never runs more than two.
        let items = [0u8; 8];
        let seen = par_map(2, &items, |_| resolve_threads(0));
        assert_eq!(seen, vec![1; items.len()]);
    }

    #[test]
    fn zero_trial_grids_keep_one_empty_block_per_pack() {
        let blocks = trial_blocks(3, 0, 8);
        assert_eq!(blocks.len(), 3);
        assert!(blocks.iter().all(|b| b.trials().is_empty()));
    }

    #[test]
    fn par_map_keeps_input_order_at_every_thread_count() {
        // Per-item cost varies, so workers finish out of input order.
        let items: Vec<(usize, u64)> = (0..97).map(|i| (i, (i as u64 * 37) % 11)).collect();
        let work = |&(i, cost): &(usize, u64)| -> (usize, u64) {
            (
                i,
                (0..cost * 500).fold(cost, |acc, k| acc.wrapping_mul(31) ^ k),
            )
        };
        let expected: Vec<(usize, u64)> = items.iter().map(work).collect();
        for threads in [0, 1, 2, 4] {
            assert_eq!(
                par_map(threads, &items, work),
                expected,
                "threads = {threads}"
            );
        }
    }

    /// A runner whose every cell's outcome encodes the cell: detection
    /// at cycle `position · 1000 + trial`, error at the lane index. It
    /// also checks that each pack is one group, at most `width` wide and
    /// run at the narrowest slab that fits it.
    struct Echo {
        group: fn(usize) -> usize,
        width: usize,
    }

    impl PackRunner for Echo {
        fn run_pack<const W: usize>(
            &self,
            positions: &[usize],
            trials: Range<u32>,
            visit: &mut dyn FnMut(&[DetectionOutcome]),
        ) {
            assert!(!positions.is_empty() && positions.len() <= self.width);
            assert_eq!(W, crate::sliced::slab_words(positions.len()), "slab width");
            let group = (self.group)(positions[0]);
            assert!(positions.iter().all(|&p| (self.group)(p) == group));
            for trial in trials {
                let outcomes: Vec<DetectionOutcome> = positions
                    .iter()
                    .enumerate()
                    .map(|(lane, &p)| {
                        let d = p as u64 * 1000 + u64::from(trial);
                        DetectionOutcome {
                            cycles_run: d + 1,
                            first_error: Some(lane as u64),
                            first_detection: Some(d),
                        }
                    })
                    .collect();
                visit(&outcomes);
            }
        }
    }

    /// Banks out of universe order: position `p` rides group `p * 7 % 3`.
    fn scrambled(p: usize) -> usize {
        p * 7 % 3
    }

    /// Grids over empty, single and uneven universes, every pack width,
    /// in-order and scrambled groups, 1/2/4 workers, inline and fanned out.
    fn grids() -> Vec<(LaneGrid, Echo, usize, u32)> {
        let mut out = Vec::new();
        for (positions, trials) in [(0usize, 3u32), (1, 5), (13, 4), (70, 3), (200, 1)] {
            for width in [1usize, 5, 64, 512] {
                for group in [(|_| 0) as fn(usize) -> usize, scrambled] {
                    for threads in [1usize, 2, 4] {
                        let campaign = CampaignConfig {
                            cycles: 1 << 20,
                            trials,
                            seed: 0,
                            write_fraction: 0.0,
                        };
                        // Threshold 0 fans out; u64::MAX keeps it inline.
                        for threshold in [0, u64::MAX] {
                            let grid = LaneGrid::new(
                                &campaign, threads, threshold, width, positions, group,
                            );
                            out.push((grid, Echo { group, width }, positions, trials));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn fold_records_every_cell_exactly_once_into_its_position() {
        for (grid, echo, positions, trials) in grids() {
            let rows = grid.fold(
                &echo,
                |p, _| (p, Vec::new()),
                |row: &mut (usize, Vec<u64>), out| row.1.push(out.first_detection.unwrap()),
                |row, part| {
                    assert_eq!(row.0, part.0, "merged into another position's row");
                    row.1.extend(part.1);
                },
            );
            assert_eq!(rows.len(), positions);
            for (p, (pos, mut cells)) in rows.into_iter().enumerate() {
                assert_eq!(pos, p);
                cells.sort_unstable();
                let want: Vec<u64> = (0..trials)
                    .map(|t| p as u64 * 1000 + u64::from(t))
                    .collect();
                assert_eq!(cells, want, "position {p} of {:?}", grid.blocks());
            }
        }
    }

    #[test]
    fn cells_walk_is_canonical_for_uneven_packs_scrambled_groups_and_trial_splits() {
        for (grid, echo, positions, trials) in grids() {
            let walked = grid.cells(&echo, |p, trial, out, items| {
                assert_eq!(
                    out.first_detection,
                    Some(p as u64 * 1000 + u64::from(trial))
                );
                // The lane the position rode in, read back from its pack.
                let lane = out.first_error.unwrap() as usize;
                let pack = grid
                    .blocks()
                    .iter()
                    .map(|b| grid.pack(b.pack))
                    .find(|pack| pack.contains(&p))
                    .unwrap();
                assert_eq!(pack[lane], p, "outcome read from another lane");
                items.push((p, trial));
            });
            let canonical: Vec<(usize, u32)> = (0..positions)
                .flat_map(|p| (0..trials).map(move |t| (p, t)))
                .collect();
            assert_eq!(walked, canonical);
            assert_eq!(walked.capacity(), walked.len(), "trace is exactly sized");
        }
    }

    #[test]
    fn trials_split_only_as_far_as_the_workers_demand() {
        let campaign = CampaignConfig {
            cycles: 8,
            trials: 8,
            seed: 0,
            write_fraction: 0.0,
        };
        // One pack: each worker gets a trial range of it.
        for (threads, blocks) in [(1usize, 1usize), (2, 2), (4, 4)] {
            let grid = LaneGrid::new(&campaign, threads, 0, 512, 30, |_| 0);
            assert_eq!(grid.blocks().len(), blocks, "{threads} workers");
        }
        // Four packs already feed two workers: no split.
        let grid = LaneGrid::new(&campaign, 2, 0, 512, 40, |p| p % 4);
        assert_eq!(grid.blocks().len(), 4);
        assert!(grid.blocks().iter().all(|b| b.trials() == (0..8)));
    }
}
