//! Grid scheduling shared by the campaign executors: the trial-block
//! decomposition of a `unit × trial` grid, its serial / ambient /
//! pinned-pool dispatch, and the order-preserving [`par_map`] under it
//! that every other fan-out in the workspace goes through too.
//!
//! A unit is whatever one block simulates — a fault scenario on the
//! generic executor, a lane pack or chunk on the slab executor. Blocks
//! are unit-major with ascending trial ranges, and dispatch returns them
//! in that order whichever way they ran, so a merge in block order is
//! bit-identical at every thread count.

use rayon::prelude::*;

/// One schedulable unit of work: a contiguous trial range of one grid
/// unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialBlock {
    /// Index of the grid unit.
    pub unit: usize,
    /// First trial of the range.
    pub trial_start: u32,
    /// One past the last trial of the range.
    pub trial_end: u32,
}

impl TrialBlock {
    /// Trials the block runs.
    pub fn trials(&self) -> u32 {
        self.trial_end - self.trial_start
    }
}

/// Split a `units × trials` grid into blocks for about `target` blocks'
/// worth of scheduling: one block per unit once the units reach `target`,
/// otherwise each unit's trials cut into just enough ranges to reach it.
/// Unit-major with ascending trial ranges; a zero-trial grid still gets
/// one empty block per unit, so every unit appears in the output.
pub fn trial_blocks(units: usize, trials: u32, target: usize) -> Vec<TrialBlock> {
    let splits = if units == 0 || units >= target {
        1
    } else {
        (target.div_ceil(units) as u32).clamp(1, trials.max(1))
    };
    let block_len = trials.div_ceil(splits).max(1);
    let mut blocks = Vec::with_capacity(units * splits as usize);
    for unit in 0..units {
        let mut t0 = 0u32;
        loop {
            let t1 = (t0 + block_len).min(trials);
            blocks.push(TrialBlock {
                unit,
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

/// Run `work` on every block — inline on the calling thread when
/// `serial`, else through [`par_map`] — and collect each block with its
/// output, in block order. Purely scheduling: the same blocks run either
/// way.
pub fn dispatch<T: Send>(
    serial: bool,
    threads: usize,
    blocks: &[TrialBlock],
    work: impl Fn(TrialBlock) -> T + Sync,
) -> Vec<(TrialBlock, T)> {
    let run = |block: &TrialBlock| (*block, work(*block));
    if serial {
        blocks.iter().map(run).collect()
    } else {
        par_map(threads, blocks, run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_trial_grids_keep_one_empty_block_per_unit() {
        let blocks = trial_blocks(3, 0, 8);
        assert_eq!(blocks.len(), 3);
        assert!(blocks.iter().all(|b| b.trials() == 0));
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
}
