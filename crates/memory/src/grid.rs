//! Grid scheduling shared by the campaign executors: the trial-block
//! decomposition of a `unit × trial` grid and its serial / ambient /
//! pinned-pool dispatch.
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

/// Run `work` on every block — inline on the calling thread when
/// `serial`, else on the ambient rayon pool (`threads == 0`) or a pool
/// pinned to `threads` — and collect each block with its output, in block
/// order. Purely scheduling: the same blocks run either way.
pub fn dispatch<T: Send>(
    serial: bool,
    threads: usize,
    blocks: &[TrialBlock],
    work: impl Fn(TrialBlock) -> T + Sync,
) -> Vec<(TrialBlock, T)> {
    let run = |block: &TrialBlock| (*block, work(*block));
    if serial {
        blocks.iter().map(run).collect()
    } else if threads == 0 {
        blocks.par_iter().map(run).collect()
    } else {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool construction is infallible")
            .install(|| blocks.par_iter().map(run).collect())
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
}
