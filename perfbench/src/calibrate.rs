//! The host-speed probe the end-to-end figures are normalised by.
//!
//! On a 2-vCPU KVM Xeon host, slow phases slow the engines by up to 2×
//! for seconds to minutes at a time, long enough to cover whole runs,
//! so no estimator over one run's own pass times can tell a slow phase
//! from a slower program. The probe is fixed code owned by the benchmark, read right
//! before and right after every timed pass at the pass's thread count:
//! the geometric mean of three kernels, each reporting operations per
//! second —
//!
//! * random 8-byte read-modify-writes over an L2-sized buffer,
//! * first-touch page faults on a fresh mapping,
//! * small allocations and frees.
//!
//! Per-pass rates tracked the three-kernel mean with correlation 0.76
//! (campaign) and 0.78 (fleet), better than any one kernel alone; an
//! arithmetic-only loop tracked them at 0.29.
//!
//! The program shares the caches and the heap with the probe, so a
//! change to the program's working set could move the reading after
//! its pass and let the normalisation cancel part of that change. The
//! read-modify-write buffer is therefore swept, untimed, before each
//! reading. Tested by mutation (the README has the figures): a 2×
//! slower pass and a pass holding 8 MiB more of small allocations moved
//! the probe by no more than two identical arms differ (about 1 %).

use std::hint::black_box;
use std::time::Instant;

/// Random read-modify-writes per reading.
const RMW_OPS: u64 = 100_000;
/// Bytes the read-modify-writes walk: the L2 per core of that Xeon.
const RMW_BYTES: usize = 2 << 20;
/// Pages first-touched per reading.
const FAULT_PAGES: usize = 1024;
/// Size of the fresh mapping: above glibc's largest dynamic mmap
/// threshold (32 MiB), so every reading gets new, untouched pages.
const FAULT_MAPPING: usize = 36 << 20;
/// Allocations per reading.
const ALLOCS: u64 = 20_000;

/// The geometric mean of the three kernels' speeds that normalised
/// figures are quoted at. Fixed: changing it rescales every recorded
/// figure.
pub const REFERENCE_SPEED: f64 = 1.0e7;

/// The probe's reusable state: one buffer per probe thread.
#[derive(Debug)]
pub struct Probe {
    buffers: Vec<Vec<u64>>,
    state: u64,
}

fn rate(ops: f64, start: Instant) -> f64 {
    ops / start.elapsed().as_secs_f64()
}

/// Bring the whole buffer back into the cache, untimed, so a reading
/// does not depend on how much of it the pass just evicted.
fn sweep(buffer: &mut [u64]) {
    for word in buffer.iter_mut() {
        *word = word.wrapping_add(1);
    }
}

fn read_modify_write(buffer: &mut [u64], mut x: u64) -> (f64, u64) {
    sweep(buffer);
    let start = Instant::now();
    let n = buffer.len() as u64;
    for _ in 0..RMW_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % n) as usize;
        buffer[i] = buffer[i].wrapping_add(x);
    }
    (rate(RMW_OPS as f64, start), black_box(x))
}

fn page_faults() -> f64 {
    let start = Instant::now();
    let mut mapping = vec![0u8; FAULT_MAPPING];
    for page in 0..FAULT_PAGES {
        mapping[page * 4096] = 1;
    }
    black_box(&mapping);
    drop(mapping);
    rate(FAULT_PAGES as f64, start)
}

fn allocations() -> f64 {
    let start = Instant::now();
    let mut live: Vec<Box<[u64; 8]>> = Vec::with_capacity(64);
    for i in 0..ALLOCS {
        live.push(Box::new([i; 8]));
        if live.len() == live.capacity() {
            live.clear();
        }
    }
    black_box(&live);
    rate(ALLOCS as f64, start)
}

/// One thread's reading: the geometric mean of the three kernels'
/// speeds, and the next random state.
fn reading(buffer: &mut [u64], x: u64) -> (f64, u64) {
    let (rmw, x) = read_modify_write(buffer, x);
    ((rmw * page_faults() * allocations()).cbrt(), x)
}

impl Probe {
    /// A probe for up to `threads` concurrent probe threads, its
    /// buffers touched so no reading pays for that.
    pub fn new(threads: usize) -> Probe {
        let mut probe = Probe {
            buffers: (0..threads.max(1))
                .map(|_| vec![1u64; RMW_BYTES / 8])
                .collect(),
            state: 0x9E37_79B9_7F4A_7C15,
        };
        for threads in 1..=probe.buffers.len() {
            probe.speed(threads);
        }
        probe
    }

    /// One reading at `threads` (clamped to the probe's buffers): one
    /// thread runs on the calling thread, as a 1-thread pass does; more
    /// run concurrently on scoped threads, as a multi-thread pass's
    /// workers do, so a reading also sees a core the pass would share
    /// or lose. The speed is the mean over the probe threads.
    pub fn speed(&mut self, threads: usize) -> f64 {
        let threads = threads.clamp(1, self.buffers.len());
        let seed = self.state;
        let readings: Vec<(f64, u64)> = if threads == 1 {
            vec![reading(&mut self.buffers[0], seed)]
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = self.buffers[..threads]
                    .iter_mut()
                    .enumerate()
                    .map(|(i, buffer)| scope.spawn(move || reading(buffer, seed ^ i as u64)))
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("probe threads do not panic"))
                    .collect()
            })
        };
        self.state = readings.iter().fold(seed, |acc, &(_, x)| acc ^ x);
        readings.iter().map(|&(speed, _)| speed).sum::<f64>() / readings.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_is_positive_and_finite_at_one_and_two_threads() {
        let mut probe = Probe::new(2);
        for threads in [1, 2] {
            let speed = probe.speed(threads);
            assert!(speed.is_finite() && speed > 0.0, "{speed}");
        }
    }
}
