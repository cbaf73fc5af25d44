//! The streaming fleet driver: canonical device chunks, wave-parallel
//! execution, periodic checkpoints and kill-safe resume.
//!
//! # Determinism contract
//!
//! The fleet's device list is decomposed into a **canonical chunk
//! sequence** — cohort-major, [`CHUNK_DEVICES`] devices per chunk —
//! fixed by the spec alone. Chunks are executed in waves (a few per
//! worker thread), each chunk's telemetry is an integer partial
//! ([`CohortTelemetry`]), and partials are merged **in chunk order** on
//! the driver thread. Because every device is a pure function of
//! `(fleet seed, cohort, device index)` and integer sums commute, the
//! final totals are bit-identical at every thread count — and across
//! any checkpoint/resume split, since a checkpoint is nothing but the
//! chunk cursor plus the settled integer partials.
//!
//! # Checkpoint format
//!
//! A versioned text file, written atomically (tmp + rename) so a kill
//! mid-write can never corrupt the resume point:
//!
//! ```text
//! scm-fleet-checkpoint v1
//! spec_digest <hex of FleetSpec::digest>
//! seed <u64>   engine sliced|scalar   chunk_devices <u64>
//! next_chunk <idx>   devices_done <u64>
//! cohort <name> <15 integer accumulators in CohortTelemetry::fields order>
//! end
//! ```
//!
//! Resume refuses a checkpoint whose spec digest, seed, engine or chunk
//! size disagree with the requested run — those are different fleets,
//! and silently splicing them would fabricate telemetry. Thread count
//! and lane width are deliberately *not* part of the guard: resuming
//! under a different `--threads` or `--lane-width` is valid and still
//! bit-identical.

use crate::device::simulate_device;
use crate::spec::FleetSpec;
use crate::telemetry::CohortTelemetry;
use scm_diag::{cell_universe, FaultDictionary};
use scm_memory::campaign::decoder_fault_universe;
use scm_memory::fault::FaultSite;
use scm_memory::grid::par_map;
use scm_obs::{Event, EventKind};
use scm_system::seed_mix;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Devices per schedulable chunk. Part of the checkpoint identity: a
/// checkpoint taken at one chunk size cannot resume under another.
pub const CHUNK_DEVICES: u64 = 8;

/// Checkpoint file header (version-gated).
const CHECKPOINT_HEADER: &str = "scm-fleet-checkpoint v1";

/// Domain-separation tag for per-cohort dictionary seeds.
const DICT_TAG: u64 = 0xF1EE_D1C7;

/// Driver options: seeding, engine, parallelism and checkpoint policy.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Fleet seed (every device seed derives from it).
    pub seed: u64,
    /// Worker threads (`0` = ambient rayon default).
    pub threads: usize,
    /// Executor choice for every device's system campaign: the
    /// bit-sliced slab or the behavioural oracle. Output-invariant — the
    /// telemetry is bit-identical either way — but the report names it
    /// and the checkpoint identity records it.
    pub sliced: bool,
    /// Slab lane width for the sliced engine (scenarios packed per
    /// simulation pass, clamped downstream to `1..=512`). Pure
    /// scheduling, like `threads`: results are invariant under it, so
    /// it is deliberately **not** part of the checkpoint identity.
    pub lane_width: usize,
    /// Write a checkpoint every this many completed devices
    /// (`0` = never; requires [`checkpoint`](Self::checkpoint)).
    pub checkpoint_every: u64,
    /// Checkpoint file path.
    pub checkpoint: Option<PathBuf>,
    /// Stop (with a final checkpoint) once at least this many devices
    /// have completed — the deterministic kill used by tests/CI.
    pub halt_after: Option<u64>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            seed: 0xF1EE7,
            threads: 0,
            sliced: true,
            lane_width: 512,
            checkpoint_every: 0,
            checkpoint: None,
            halt_after: None,
        }
    }
}

/// One schedulable unit: devices `start..end` of one cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chunk {
    cohort: usize,
    start: u64,
    end: u64,
}

/// What a [`FleetDriver::run`] call ended with.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetProgress {
    /// Every device simulated; the settled fleet outcome.
    Completed(FleetOutcome),
    /// Halted at the requested device count after writing a checkpoint.
    Halted {
        /// Devices completed so far.
        devices_done: u64,
        /// Where the checkpoint went.
        checkpoint: PathBuf,
    },
}

/// The settled totals of a completed fleet campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The fleet that ran.
    pub spec: FleetSpec,
    /// Fleet seed.
    pub seed: u64,
    /// Executor choice ([`FleetOptions::sliced`]).
    pub sliced: bool,
    /// Devices simulated (= `spec.total_devices()`).
    pub devices: u64,
    /// Per-cohort telemetry, spec cohort order.
    pub cohorts: Vec<CohortTelemetry>,
}

/// The streaming driver.
#[derive(Debug)]
pub struct FleetDriver {
    spec: FleetSpec,
    options: FleetOptions,
    chunks: Vec<Chunk>,
    next_chunk: usize,
    devices_done: u64,
    checkpoints_written: u64,
    telemetry: Vec<CohortTelemetry>,
    dictionaries: Vec<Option<Arc<FaultDictionary>>>,
    /// Driver-level trace: one event per checkpoint write/restore, on
    /// the device-count clock (`t` = devices completed). Per-device
    /// events would flood the trace at fleet scale, so the driver
    /// records only its own scheduling acts.
    events: Vec<Event>,
}

impl FleetDriver {
    /// A fresh driver over `spec`.
    pub fn new(spec: FleetSpec, options: FleetOptions) -> Result<FleetDriver, String> {
        spec.validate()?;
        if options.checkpoint_every > 0 && options.checkpoint.is_none() {
            return Err("--checkpoint-every needs a checkpoint path".to_owned());
        }
        if options.halt_after.is_some() && options.checkpoint.is_none() {
            return Err("--halt-after needs a checkpoint path to resume from".to_owned());
        }
        let chunks = Self::decompose(&spec);
        let telemetry = vec![CohortTelemetry::default(); spec.cohorts.len()];
        let dictionaries = Self::build_dictionaries(&spec, options.seed, options.lane_width);
        Ok(FleetDriver {
            spec,
            options,
            chunks,
            next_chunk: 0,
            devices_done: 0,
            checkpoints_written: 0,
            telemetry,
            dictionaries,
            events: Vec::new(),
        })
    }

    /// Resume a driver from a checkpoint written by an earlier
    /// (possibly killed) run of the same spec/seed/engine.
    pub fn resume(
        spec: FleetSpec,
        options: FleetOptions,
        checkpoint: &Path,
    ) -> Result<FleetDriver, String> {
        let text = std::fs::read_to_string(checkpoint)
            .map_err(|e| format!("cannot read checkpoint '{}': {e}", checkpoint.display()))?;
        let mut driver = FleetDriver::new(spec, options)?;
        driver.load_checkpoint(&text)?;
        Ok(driver)
    }

    /// The canonical cohort-major chunk sequence.
    fn decompose(spec: &FleetSpec) -> Vec<Chunk> {
        let mut chunks = Vec::new();
        for (cohort, c) in spec.cohorts.iter().enumerate() {
            let mut start = 0u64;
            while start < c.devices {
                let end = (start + CHUNK_DEVICES).min(c.devices);
                chunks.push(Chunk { cohort, start, end });
                start = end;
            }
        }
        chunks
    }

    /// One fault dictionary per cohort with a hard-defect population
    /// (bank-0 geometry, full cell + row-decoder candidate set). Built
    /// single-threaded: construction must not depend on `--threads`
    /// (the dictionary itself is invariant under `lane_width` too —
    /// that knob only shapes the slab packing of the build).
    fn build_dictionaries(
        spec: &FleetSpec,
        seed: u64,
        lane_width: usize,
    ) -> Vec<Option<Arc<FaultDictionary>>> {
        spec.cohorts
            .iter()
            .enumerate()
            .map(|(i, cohort)| {
                (cohort.hard_ppm > 0).then(|| {
                    let config = cohort.banks[0].ram_config();
                    let mut candidates = cell_universe(&config);
                    candidates.extend(
                        decoder_fault_universe(config.org().row_bits())
                            .into_iter()
                            .map(FaultSite::RowDecoder),
                    );
                    Arc::new(FaultDictionary::build_sliced(
                        &config,
                        &cohort.march_test(),
                        seed_mix(seed ^ DICT_TAG, &[i as u64]),
                        &candidates,
                        1,
                        lane_width,
                    ))
                })
            })
            .collect()
    }

    /// Devices completed so far.
    pub fn devices_done(&self) -> u64 {
        self.devices_done
    }

    /// Trace events recorded so far (checkpoint writes and restores on
    /// the device-count clock). Checkpoint boundaries are fixed by the
    /// cadence options and the canonical chunk sequence — `wave_end`
    /// cuts every wave exactly at a boundary — so this trace is
    /// bit-identical at any thread count.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Worker threads the driver will actually use.
    pub fn resolved_threads(&self) -> usize {
        if self.options.threads == 0 {
            rayon::current_num_threads()
        } else {
            self.options.threads
        }
    }

    /// One chunk's telemetry: its devices in index order, inline.
    fn chunk_telemetry(&self, chunk: Chunk) -> CohortTelemetry {
        let cohort = &self.spec.cohorts[chunk.cohort];
        let dictionary = self.dictionaries[chunk.cohort].as_deref();
        let mut t = CohortTelemetry::default();
        for device in chunk.start..chunk.end {
            t.merge(&simulate_device(
                cohort,
                chunk.cohort,
                device,
                self.options.seed,
                self.options.sliced,
                self.options.lane_width,
                dictionary,
            ));
        }
        t
    }

    /// Where the current wave ends: at most `wave_len` chunks, cut
    /// short at the first checkpoint or halt boundary so cadence is
    /// honoured even when one wave could swallow the whole fleet.
    fn wave_end(&self, wave_len: usize) -> usize {
        let max_end = (self.next_chunk + wave_len).min(self.chunks.len());
        let mut devices = self.devices_done;
        for idx in self.next_chunk..max_end {
            devices += self.chunks[idx].end - self.chunks[idx].start;
            if self.options.halt_after.is_some_and(|halt| devices >= halt) {
                return idx + 1;
            }
            if self.options.checkpoint_every > 0
                && devices / self.options.checkpoint_every > self.checkpoints_written
            {
                return idx + 1;
            }
        }
        max_end
    }

    /// Drive the remaining chunks to completion (or to the halt point).
    pub fn run(&mut self) -> Result<FleetProgress, String> {
        let wave_len = (self.resolved_threads() * 4).max(1);
        while self.next_chunk < self.chunks.len() {
            let end = self.wave_end(wave_len);
            let wave: Vec<Chunk> = self.chunks[self.next_chunk..end].to_vec();
            let partials = par_map(self.options.threads, &wave, |&c| self.chunk_telemetry(c));
            // Merge in canonical chunk order — the only order-sensitive
            // step, kept on the driver thread.
            for (chunk, partial) in wave.iter().zip(&partials) {
                self.telemetry[chunk.cohort].merge(partial);
                self.devices_done += chunk.end - chunk.start;
            }
            self.next_chunk = end;
            let complete = self.next_chunk == self.chunks.len();
            if !complete && self.options.checkpoint_every > 0 {
                let due = self.devices_done / self.options.checkpoint_every;
                if due > self.checkpoints_written {
                    self.checkpoints_written = due;
                    self.write_checkpoint()?;
                    self.events.push(Event::global(
                        self.devices_done,
                        EventKind::CheckpointWrite {
                            index: self.checkpoints_written,
                        },
                    ));
                }
            }
            if let Some(halt) = self.options.halt_after {
                if !complete && self.devices_done >= halt {
                    self.write_checkpoint()?;
                    self.events.push(Event::global(
                        self.devices_done,
                        EventKind::CheckpointWrite {
                            index: self.checkpoints_written + 1,
                        },
                    ));
                    return Ok(FleetProgress::Halted {
                        devices_done: self.devices_done,
                        checkpoint: self
                            .options
                            .checkpoint
                            .clone()
                            .expect("halt_after validated against a checkpoint path"),
                    });
                }
            }
        }
        // Completed: the checkpoint has served its purpose.
        if let Some(path) = &self.options.checkpoint {
            let _ = std::fs::remove_file(path);
        }
        Ok(FleetProgress::Completed(FleetOutcome {
            devices: self.devices_done,
            spec: self.spec.clone(),
            seed: self.options.seed,
            sliced: self.options.sliced,
            cohorts: self.telemetry.clone(),
        }))
    }

    /// The checkpoint file body for the current cursor.
    fn checkpoint_text(&self) -> String {
        let mut out = String::new();
        out.push_str(CHECKPOINT_HEADER);
        out.push('\n');
        let _ = writeln!(out, "spec_digest {:016x}", self.spec.digest());
        let _ = writeln!(out, "seed {}", self.options.seed);
        let _ = writeln!(
            out,
            "engine {}",
            if self.options.sliced {
                "sliced"
            } else {
                "scalar"
            }
        );
        let _ = writeln!(out, "chunk_devices {CHUNK_DEVICES}");
        let _ = writeln!(out, "next_chunk {}", self.next_chunk);
        let _ = writeln!(out, "devices_done {}", self.devices_done);
        for (cohort, telemetry) in self.spec.cohorts.iter().zip(&self.telemetry) {
            let _ = write!(out, "cohort {}", cohort.name);
            for (_, value) in telemetry.fields() {
                let _ = write!(out, " {value}");
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Atomically persist the current cursor (tmp + rename: a kill
    /// mid-write leaves the previous checkpoint intact).
    fn write_checkpoint(&self) -> Result<(), String> {
        let path = self
            .options
            .checkpoint
            .as_ref()
            .expect("checkpoint cadence validated against a path");
        let tmp = PathBuf::from(format!("{}.tmp", path.display()));
        std::fs::write(&tmp, self.checkpoint_text())
            .map_err(|e| format!("cannot write checkpoint '{}': {e}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("cannot commit checkpoint '{}': {e}", path.display()))
    }

    /// Restore cursor + accumulators from checkpoint text, refusing any
    /// identity mismatch.
    fn load_checkpoint(&mut self, text: &str) -> Result<(), String> {
        let mut lines = text.lines();
        if lines.next() != Some(CHECKPOINT_HEADER) {
            return Err(format!(
                "not a fleet checkpoint (want '{CHECKPOINT_HEADER}')"
            ));
        }
        let mut cohort_rows: Vec<(String, [u64; 15])> = Vec::new();
        for line in lines {
            let mut words = line.split_whitespace();
            let Some(key) = words.next() else { continue };
            let rest: Vec<&str> = words.collect();
            let one = || -> Result<&str, String> {
                match rest.as_slice() {
                    [v] => Ok(v),
                    _ => Err(format!("checkpoint field '{key}' takes one value")),
                }
            };
            match key {
                "spec_digest" => {
                    let have = u64::from_str_radix(one()?, 16)
                        .map_err(|_| "unreadable spec_digest".to_owned())?;
                    if have != self.spec.digest() {
                        return Err(format!(
                            "checkpoint is for a different fleet spec \
                             (digest {have:016x}, this spec {:016x})",
                            self.spec.digest()
                        ));
                    }
                }
                "seed" => {
                    let have: u64 = one()?.parse().map_err(|_| "unreadable seed".to_owned())?;
                    if have != self.options.seed {
                        return Err(format!(
                            "checkpoint seed {have} differs from requested {}",
                            self.options.seed
                        ));
                    }
                }
                "engine" => {
                    let want = if self.options.sliced {
                        "sliced"
                    } else {
                        "scalar"
                    };
                    if one()? != want {
                        return Err(format!(
                            "checkpoint engine '{}' differs from requested '{want}'",
                            rest.join(" ")
                        ));
                    }
                }
                "chunk_devices" => {
                    let have: u64 = one()?
                        .parse()
                        .map_err(|_| "unreadable chunk_devices".to_owned())?;
                    if have != CHUNK_DEVICES {
                        return Err(format!(
                            "checkpoint chunk size {have} differs from {CHUNK_DEVICES}"
                        ));
                    }
                }
                "next_chunk" => {
                    self.next_chunk = one()?
                        .parse()
                        .map_err(|_| "unreadable next_chunk".to_owned())?;
                }
                "devices_done" => {
                    self.devices_done = one()?
                        .parse()
                        .map_err(|_| "unreadable devices_done".to_owned())?;
                }
                "cohort" => {
                    let (name, values) = rest
                        .split_first()
                        .ok_or_else(|| "cohort row missing name".to_owned())?;
                    if values.len() != 15 {
                        return Err(format!(
                            "cohort '{name}' carries {} accumulators, want 15",
                            values.len()
                        ));
                    }
                    let mut parsed = [0u64; 15];
                    for (slot, v) in parsed.iter_mut().zip(values) {
                        *slot = v
                            .parse()
                            .map_err(|_| format!("cohort '{name}': unreadable accumulator"))?;
                    }
                    cohort_rows.push(((*name).to_owned(), parsed));
                }
                "end" => break,
                _ => return Err(format!("unexpected checkpoint line: '{line}'")),
            }
        }
        if self.next_chunk > self.chunks.len() {
            return Err(format!(
                "checkpoint cursor {} beyond {} chunks",
                self.next_chunk,
                self.chunks.len()
            ));
        }
        if cohort_rows.len() != self.spec.cohorts.len() {
            return Err(format!(
                "checkpoint carries {} cohorts, spec has {}",
                cohort_rows.len(),
                self.spec.cohorts.len()
            ));
        }
        for ((name, values), (cohort, slot)) in cohort_rows
            .iter()
            .zip(self.spec.cohorts.iter().zip(&mut self.telemetry))
        {
            if *name != cohort.name {
                return Err(format!(
                    "checkpoint cohort '{name}' does not match spec cohort '{}'",
                    cohort.name
                ));
            }
            *slot = CohortTelemetry::from_values(values);
        }
        if let Some(written) = self.devices_done.checked_div(self.options.checkpoint_every) {
            self.checkpoints_written = written;
        }
        // Atomic checkpoints mean a restore itself discards nothing
        // (`lost = 0`); whatever ran between the checkpoint and the
        // kill was never committed and is unknowable here.
        self.events.push(Event::global(
            self.devices_done,
            EventKind::CheckpointRestore { lost: 0 },
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetSpec {
        FleetSpec::preset("small").unwrap()
    }

    fn opts(threads: usize) -> FleetOptions {
        FleetOptions {
            seed: 0xF1EE7,
            threads,
            sliced: false,
            ..FleetOptions::default()
        }
    }

    fn completed(progress: FleetProgress) -> FleetOutcome {
        match progress {
            FleetProgress::Completed(outcome) => outcome,
            FleetProgress::Halted { devices_done, .. } => {
                panic!("halted at {devices_done} devices")
            }
        }
    }

    #[test]
    fn decomposition_is_cohort_major_and_covers_every_device() {
        let chunks = FleetDriver::decompose(&small()); // 12 + 8 devices
        assert_eq!(
            chunks,
            vec![
                Chunk {
                    cohort: 0,
                    start: 0,
                    end: 8
                },
                Chunk {
                    cohort: 0,
                    start: 8,
                    end: 12
                },
                Chunk {
                    cohort: 1,
                    start: 0,
                    end: 8
                },
            ]
        );
    }

    #[test]
    fn fleet_totals_are_bit_identical_at_any_thread_count() {
        let reference = completed(FleetDriver::new(small(), opts(1)).unwrap().run().unwrap());
        assert_eq!(reference.devices, 20);
        assert_eq!(reference.cohorts.iter().map(|c| c.devices).sum::<u64>(), 20);
        for threads in [2usize, 4] {
            let outcome = completed(
                FleetDriver::new(small(), opts(threads))
                    .unwrap()
                    .run()
                    .unwrap(),
            );
            assert_eq!(reference, outcome, "{threads} threads");
        }
    }

    #[test]
    fn sliced_engine_runs_the_same_fleet_shape() {
        // One estimator, two executors: the slab path must reproduce the
        // behavioural oracle's telemetry exactly, cohort by cohort.
        let scalar = completed(FleetDriver::new(small(), opts(2)).unwrap().run().unwrap());
        let mut o = opts(2);
        o.sliced = true;
        let outcome = completed(FleetDriver::new(small(), o).unwrap().run().unwrap());
        assert_eq!(outcome.devices, 20);
        assert!(outcome.cohorts.iter().any(|c| c.detected > 0));
        assert_eq!(outcome.cohorts, scalar.cohorts);
    }

    #[test]
    fn sliced_fleet_telemetry_is_lane_width_invariant() {
        let mk = |width: usize| {
            let mut o = opts(2);
            o.sliced = true;
            o.lane_width = width;
            completed(FleetDriver::new(small(), o).unwrap().run().unwrap())
        };
        let reference = mk(512);
        for width in [1usize, 64] {
            let outcome = mk(width);
            assert_eq!(
                reference.cohorts, outcome.cohorts,
                "lane width {width} must be pure scheduling"
            );
        }
    }

    #[test]
    fn checkpoint_text_round_trips_through_load() {
        let mut a = FleetDriver::new(small(), opts(1)).unwrap();
        a.next_chunk = 2;
        a.devices_done = 12;
        a.telemetry[0].strikes = 48;
        a.telemetry[0].detected = 40;
        let text = a.checkpoint_text();
        let mut b = FleetDriver::new(small(), opts(1)).unwrap();
        b.load_checkpoint(&text).unwrap();
        assert_eq!(b.next_chunk, 2);
        assert_eq!(b.devices_done, 12);
        assert_eq!(b.telemetry, a.telemetry);
    }

    #[test]
    fn checkpoints_refuse_identity_mismatches() {
        let a = FleetDriver::new(small(), opts(1)).unwrap();
        let text = a.checkpoint_text();
        // Different seed.
        let mut other = opts(1);
        other.seed ^= 1;
        let err = FleetDriver::new(small(), other)
            .unwrap()
            .load_checkpoint(&text)
            .unwrap_err();
        assert!(err.contains("seed"), "{err}");
        // Different engine.
        let mut other = opts(1);
        other.sliced = true;
        let err = FleetDriver::new(small(), other)
            .unwrap()
            .load_checkpoint(&text)
            .unwrap_err();
        assert!(err.contains("engine"), "{err}");
        // Different spec.
        let grown = small().with_devices(40);
        let err = FleetDriver::new(grown, opts(1))
            .unwrap()
            .load_checkpoint(&text)
            .unwrap_err();
        assert!(err.contains("different fleet spec"), "{err}");
        // Garbage.
        assert!(FleetDriver::new(small(), opts(1))
            .unwrap()
            .load_checkpoint("not a checkpoint")
            .is_err());
    }

    #[test]
    fn checkpoint_writes_and_restores_ride_the_device_count_clock() {
        // Restore: loading a checkpoint records one event at the
        // resumed device count.
        let mut a = FleetDriver::new(small(), opts(1)).unwrap();
        a.next_chunk = 2;
        a.devices_done = 12;
        let text = a.checkpoint_text();
        let mut b = FleetDriver::new(small(), opts(1)).unwrap();
        b.load_checkpoint(&text).unwrap();
        assert_eq!(
            b.events(),
            &[Event::global(12, EventKind::CheckpointRestore { lost: 0 })]
        );
        // Write: a cadence run over 20 devices (chunks 8+4+8) crosses
        // the every-8 boundary once before the final wave completes
        // the fleet (completion removes the file, writes no event).
        let path = std::env::temp_dir().join("scm-fleet-driver-events.ckpt");
        let mut o = opts(1);
        o.checkpoint_every = 8;
        o.checkpoint = Some(path.clone());
        let mut driver = FleetDriver::new(small(), o).unwrap();
        completed(driver.run().unwrap());
        assert_eq!(
            driver.events(),
            &[Event::global(8, EventKind::CheckpointWrite { index: 1 })]
        );
        assert!(!path.exists(), "completion removes the checkpoint");
    }

    #[test]
    fn cadence_options_require_a_path() {
        let mut o = opts(1);
        o.checkpoint_every = 8;
        assert!(FleetDriver::new(small(), o).is_err());
        let mut o = opts(1);
        o.halt_after = Some(8);
        assert!(FleetDriver::new(small(), o).is_err());
    }
}
