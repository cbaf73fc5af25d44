//! Fleet cohort specifications.
//!
//! A fleet is a set of **cohorts**: groups of identical devices sharing
//! one [`SystemConfig`] shape, one workload mix, one SEU environment and
//! one detection SLO. Every field that feeds simulation is an integer
//! (fractions in ppm, rates in cycles) so a spec has exactly one
//! canonical text form — [`FleetSpec::to_text`] — and its FNV-1a
//! [`FleetSpec::digest`] can gate checkpoint resume against a drifted
//! spec without floating-point round-trip hazards.

use scm_area::RamOrganization;
use scm_codes::{CodewordMap, MOutOfN};
use scm_diag::MarchTest;
use scm_memory::design::RamConfig;
use scm_memory::workload::{model_by_name, WorkloadModel, MODEL_NAMES};
use scm_system::{Interleaving, SystemConfig};
use std::fmt::Write as _;
use std::sync::Arc;

/// One bank's geometry and code, in integers: `words × word_bits`, a
/// `1-of-mux` column mux, and the paper's 3-out-of-5 code behind a
/// `mod-modulus` decoder map on rows and mux groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankRecipe {
    /// Bank words.
    pub words: u64,
    /// Bits per word.
    pub word_bits: u32,
    /// Column mux factor.
    pub mux: u32,
    /// Decoder checksum modulus (`a` in the paper's mod-a scheme).
    pub modulus: u64,
}

/// The largest bank a spec may ask for, in cells: `words × (word_bits +
/// 1)` (data bits plus the parity bit). Every simulated cell becomes a
/// slab of up to 512 lanes (64 bytes), so the cap bounds a bank's slab
/// state at 256 MiB. It is 2²² cells, 15× the largest geometry the
/// presets, the test fixtures and the million-point design grid use
/// (8192 words × 33 cells), so only hostile specs meet it.
pub const MAX_BANK_CELLS: u64 = 1 << 22;

impl BankRecipe {
    /// Check the geometry and both decoder maps, refusing banks past
    /// [`MAX_BANK_CELLS`] before any table is built.
    pub fn validate(&self) -> Result<(), String> {
        let org = RamOrganization::try_new(self.words, self.word_bits, self.mux)
            .map_err(|e| format!("bank geometry: {e}"))?;
        if self.word_bits > 64 {
            return Err(format!(
                "bank geometry: word width {} exceeds the simulator's 64-bit data word",
                self.word_bits
            ));
        }
        let cells = u128::from(self.words) * (u128::from(self.word_bits) + 1);
        if cells > u128::from(MAX_BANK_CELLS) {
            return Err(format!(
                "bank geometry: {} words × {} cells is {cells} cells, over the {MAX_BANK_CELLS}-cell cap",
                self.words,
                self.word_bits + 1
            ));
        }
        let code = MOutOfN::new(3, 5).expect("3-out-of-5 exists");
        CodewordMap::mod_a(code, self.modulus, org.rows())
            .map_err(|e| format!("bank row map: {e}"))?;
        CodewordMap::mod_a(code, self.modulus, self.mux as u64)
            .map_err(|e| format!("bank column map: {e}"))?;
        Ok(())
    }

    /// Instantiate the bank's RAM configuration.
    ///
    /// # Panics
    /// Panics if the recipe names an unrepresentable geometry or map —
    /// spec parsing validates recipes first, so a panic here means a
    /// hand-built recipe bypassed [`FleetSpec::validate`].
    pub fn ram_config(&self) -> RamConfig {
        let org = RamOrganization::new(self.words, self.word_bits, self.mux);
        let code = MOutOfN::new(3, 5).expect("3-out-of-5 exists");
        RamConfig::new(
            org,
            CodewordMap::mod_a(code, self.modulus, org.rows()).expect("validated row map"),
            CodewordMap::mod_a(code, self.modulus, self.mux as u64).expect("validated column map"),
        )
    }
}

/// One design cohort: `devices` identical devices, each running one
/// mission of `horizon` cycles under the cohort's fault environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortSpec {
    /// Cohort name (reporting key; `[a-z0-9_-]+`).
    pub name: String,
    /// Per-device banks.
    pub banks: Vec<BankRecipe>,
    /// Address interleaving across banks.
    pub interleaving: Interleaving,
    /// Scrub period in cycles (`0` = off).
    pub scrub_period: u64,
    /// Checkpoint interval in cycles (`0` = only cycle 0 recoverable).
    pub checkpoint_interval: u64,
    /// Workload model name (one of `scm_memory::workload::MODEL_NAMES`).
    pub workload: String,
    /// Write fraction of mission traffic, in ppm.
    pub write_fraction_ppm: u32,
    /// Devices in the cohort.
    pub devices: u64,
    /// Mission horizon per device, in system cycles.
    pub horizon: u64,
    /// Mean SEU inter-arrival per bank, in cycles.
    pub seu_mean_cycles: u64,
    /// SEU arrivals simulated per bank per device.
    pub arrivals_per_bank: u32,
    /// Fraction of devices carrying a manufacturing (hard) defect that
    /// feeds the triage queue, in ppm.
    pub hard_ppm: u32,
    /// Spare rows per device for repair.
    pub spare_rows: u32,
    /// Spare columns per device for repair.
    pub spare_cols: u32,
    /// Diagnosing March test for the triage queue.
    pub march: String,
    /// SLO: maximum silent-data-corruption escape rate, in FIT
    /// (escapes per 10⁹ device-hours).
    pub slo_max_sdc_fit: u64,
    /// SLO: minimum detected fraction of strikes, in ppm.
    pub slo_min_detect_ppm: u32,
}

impl CohortSpec {
    /// Validate the cohort's name, fields and bank recipes; errors name
    /// the cohort.
    pub fn validate(&self) -> Result<(), String> {
        let who = format!("cohort '{}'", self.name);
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "-_".contains(c))
        {
            return Err(format!("{who}: names are [a-z0-9_-]+"));
        }
        if self.banks.is_empty() {
            return Err(format!("{who}: needs at least one bank"));
        }
        if self.devices == 0 || self.horizon == 0 {
            return Err(format!("{who}: devices and horizon must be positive"));
        }
        if self.seu_mean_cycles == 0 {
            return Err(format!("{who}: seu_mean_cycles must be at least 1"));
        }
        if self.write_fraction_ppm > 1_000_000 || self.hard_ppm > 1_000_000 {
            return Err(format!("{who}: ppm fields cap at 1000000"));
        }
        if model_by_name(&self.workload).is_none() {
            return Err(format!(
                "{who}: unknown workload '{}' (one of: {})",
                self.workload,
                MODEL_NAMES.join(", ")
            ));
        }
        if MarchTest::by_name(&self.march).is_none() {
            return Err(format!(
                "{who}: unknown March test '{}' (one of: {})",
                self.march,
                MarchTest::NAMES.join(", ")
            ));
        }
        for recipe in &self.banks {
            recipe.validate().map_err(|e| format!("{who}: {e}"))?;
        }
        Ok(())
    }

    /// The cohort's system configuration.
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            banks: self.banks.iter().map(BankRecipe::ram_config).collect(),
            interleaving: self.interleaving,
            scrub: scm_system::ScrubSchedule {
                period: self.scrub_period,
            },
            checkpoint: scm_system::CheckpointSchedule {
                interval: self.checkpoint_interval,
            },
        }
    }

    /// The cohort's traffic model.
    pub fn workload_model(&self) -> Arc<dyn WorkloadModel> {
        model_by_name(&self.workload).expect("validated workload name")
    }

    /// Write fraction as the float the campaign engine consumes.
    pub fn write_fraction(&self) -> f64 {
        self.write_fraction_ppm as f64 / 1e6
    }

    /// The diagnosing March test for this cohort's triage queue.
    pub fn march_test(&self) -> MarchTest {
        MarchTest::by_name(&self.march).expect("validated march name")
    }
}

/// The full fleet: cohorts plus the wall-clock scale that converts
/// simulated cycles into device-hours for FIT accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// System cycles per wall-clock hour (the simulation-scale knob:
    /// FIT rates are *per this clock*, not per silicon nanosecond).
    pub cycles_per_hour: u64,
    /// The cohorts.
    pub cohorts: Vec<CohortSpec>,
}

/// Built-in preset names, `scm fleet --preset` order.
pub const PRESET_NAMES: [&str; 2] = ["small", "mixed"];

impl FleetSpec {
    /// A built-in preset by name.
    pub fn preset(name: &str) -> Option<FleetSpec> {
        match name {
            "small" => Some(Self::preset_small()),
            "mixed" => Some(Self::preset_mixed()),
            _ => None,
        }
    }

    /// The byte-pinned CI preset: two tiny cohorts, one passing and one
    /// failing its SLO, with every subsystem (SEU strikes, scrub,
    /// checkpoints, hard-fault triage, repair) exercised in seconds.
    fn preset_small() -> FleetSpec {
        FleetSpec {
            cycles_per_hour: 3600,
            cohorts: vec![
                CohortSpec {
                    name: "edge".to_owned(),
                    banks: vec![
                        BankRecipe {
                            words: 64,
                            word_bits: 8,
                            mux: 4,
                            modulus: 9,
                        };
                        2
                    ],
                    interleaving: Interleaving::LowOrder,
                    scrub_period: 8,
                    checkpoint_interval: 64,
                    workload: "uniform".to_owned(),
                    write_fraction_ppm: 100_000,
                    devices: 12,
                    horizon: 400,
                    seu_mean_cycles: 60,
                    arrivals_per_bank: 2,
                    hard_ppm: 250_000,
                    spare_rows: 1,
                    spare_cols: 1,
                    march: "mats+".to_owned(),
                    slo_max_sdc_fit: 4_000_000_000,
                    slo_min_detect_ppm: 500_000,
                },
                CohortSpec {
                    name: "datacenter".to_owned(),
                    banks: vec![
                        BankRecipe {
                            words: 128,
                            word_bits: 8,
                            mux: 4,
                            modulus: 9,
                        },
                        BankRecipe {
                            words: 64,
                            word_bits: 8,
                            mux: 4,
                            modulus: 7,
                        },
                    ],
                    interleaving: Interleaving::HighOrder,
                    scrub_period: 0,
                    checkpoint_interval: 128,
                    workload: "hotspot".to_owned(),
                    write_fraction_ppm: 200_000,
                    devices: 8,
                    horizon: 600,
                    seu_mean_cycles: 90,
                    arrivals_per_bank: 2,
                    hard_ppm: 0,
                    spare_rows: 1,
                    spare_cols: 0,
                    march: "march-c-".to_owned(),
                    slo_max_sdc_fit: 1_000,
                    slo_min_detect_ppm: 990_000,
                },
            ],
        }
    }

    /// A heavier three-cohort mix for throughput figures.
    fn preset_mixed() -> FleetSpec {
        let small = Self::preset_small();
        let mut edge = small.cohorts[0].clone();
        edge.devices = 96;
        let mut dc = small.cohorts[1].clone();
        dc.devices = 64;
        let scrubless = CohortSpec {
            name: "legacy".to_owned(),
            banks: vec![BankRecipe {
                words: 256,
                word_bits: 8,
                mux: 4,
                modulus: 7,
            }],
            interleaving: Interleaving::LowOrder,
            scrub_period: 0,
            checkpoint_interval: 0,
            workload: "read-mostly".to_owned(),
            write_fraction_ppm: 50_000,
            devices: 40,
            horizon: 800,
            seu_mean_cycles: 200,
            arrivals_per_bank: 1,
            hard_ppm: 125_000,
            spare_rows: 1,
            spare_cols: 1,
            march: "march-b".to_owned(),
            slo_max_sdc_fit: 2_000_000_000,
            slo_min_detect_ppm: 400_000,
        };
        FleetSpec {
            cycles_per_hour: 3600,
            cohorts: vec![edge, dc, scrubless],
        }
    }

    /// Total devices across cohorts.
    pub fn total_devices(&self) -> u64 {
        self.cohorts.iter().map(|c| c.devices).sum()
    }

    /// Rescale the fleet to `total` devices, preserving cohort
    /// proportions by largest remainder (every cohort keeps ≥ 1 device
    /// as long as `total ≥ cohorts`).
    pub fn with_devices(mut self, total: u64) -> FleetSpec {
        let current = self.total_devices().max(1);
        let n = self.cohorts.len() as u64;
        let mut assigned = 0u64;
        let mut remainders: Vec<(u64, usize)> = Vec::with_capacity(self.cohorts.len());
        for (i, cohort) in self.cohorts.iter_mut().enumerate() {
            let exact_num = cohort.devices * total;
            let floor = exact_num / current;
            let quota = if total >= n { floor.max(1) } else { floor };
            remainders.push((exact_num % current, i));
            cohort.devices = quota;
            assigned += quota;
        }
        // Largest remainder (ties → lowest cohort index) absorbs the
        // leftover; overshoot from the ≥1 floors trims richest-first.
        remainders.sort_by_key(|&(rem, i)| (std::cmp::Reverse(rem), i));
        let mut k = 0;
        while assigned < total {
            self.cohorts[remainders[k % remainders.len()].1].devices += 1;
            assigned += 1;
            k += 1;
        }
        while assigned > total {
            let i = remainders[k % remainders.len()].1;
            if self.cohorts[i].devices > 1 {
                self.cohorts[i].devices -= 1;
                assigned -= 1;
            }
            k += 1;
        }
        self
    }

    /// Validate every name, geometry and map in the spec.
    pub fn validate(&self) -> Result<(), String> {
        if self.cycles_per_hour == 0 {
            return Err("cycles_per_hour must be positive".to_owned());
        }
        if self.cohorts.is_empty() {
            return Err("a fleet needs at least one cohort".to_owned());
        }
        self.cohorts.iter().try_for_each(CohortSpec::validate)
    }

    /// Canonical text form (parse/serialize round-trips exactly).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("scm-fleet-spec v1\n");
        let _ = writeln!(out, "cycles_per_hour {}", self.cycles_per_hour);
        for c in &self.cohorts {
            let _ = writeln!(out, "cohort {}", c.name);
            for b in &c.banks {
                let _ = writeln!(
                    out,
                    "  bank {} {} {} {}",
                    b.words, b.word_bits, b.mux, b.modulus
                );
            }
            let _ = writeln!(out, "  interleaving {}", c.interleaving.name());
            let _ = writeln!(out, "  scrub_period {}", c.scrub_period);
            let _ = writeln!(out, "  checkpoint_interval {}", c.checkpoint_interval);
            let _ = writeln!(out, "  workload {}", c.workload);
            let _ = writeln!(out, "  write_fraction_ppm {}", c.write_fraction_ppm);
            let _ = writeln!(out, "  devices {}", c.devices);
            let _ = writeln!(out, "  horizon {}", c.horizon);
            let _ = writeln!(out, "  seu_mean_cycles {}", c.seu_mean_cycles);
            let _ = writeln!(out, "  arrivals_per_bank {}", c.arrivals_per_bank);
            let _ = writeln!(out, "  hard_ppm {}", c.hard_ppm);
            let _ = writeln!(out, "  spare_rows {}", c.spare_rows);
            let _ = writeln!(out, "  spare_cols {}", c.spare_cols);
            let _ = writeln!(out, "  march {}", c.march);
            let _ = writeln!(out, "  slo_max_sdc_fit {}", c.slo_max_sdc_fit);
            let _ = writeln!(out, "  slo_min_detect_ppm {}", c.slo_min_detect_ppm);
            out.push_str("end\n");
        }
        out
    }

    /// Parse the text form produced by [`to_text`](Self::to_text)
    /// (whitespace-tolerant; `#` starts a comment). Every error starts
    /// with the 1-based `line N:` it concerns: the offending line, a
    /// cohort's opening line for a cohort that fails validation or
    /// lacks its `end`, and the last line for a spec missing its
    /// cohorts.
    pub fn parse(text: &str) -> Result<FleetSpec, String> {
        let at = |n: usize| move |e: String| format!("line {n}: {e}");
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
            .filter(|(_, l)| !l.is_empty());
        let last = text.lines().count().max(1);
        match lines.next() {
            Some((_, "scm-fleet-spec v1")) => {}
            first => {
                let n = first.map_or(last, |(n, _)| n);
                return Err(at(n)("spec must start with 'scm-fleet-spec v1'".to_owned()));
            }
        }
        let mut spec = FleetSpec {
            cycles_per_hour: 0,
            cohorts: Vec::new(),
        };
        let mut cycles_line = last;
        // The open cohort and the line that opened it.
        let mut current: Option<(usize, CohortSpec)> = None;
        for (n, line) in lines {
            let opened = current.as_ref().map(|c| c.0);
            match Self::parse_line(&mut spec, &mut current, n, line).map_err(at(n))? {
                Some(cohort) => {
                    let opened = opened.expect("only an open cohort ends");
                    cohort.validate().map_err(at(opened))?;
                    spec.cohorts.push(cohort);
                }
                None if line.starts_with("cycles_per_hour") => cycles_line = n,
                None => {}
            }
        }
        if let Some((n, c)) = current {
            return Err(at(n)(format!("cohort '{}' is missing its 'end'", c.name)));
        }
        if spec.cycles_per_hour == 0 {
            return Err(at(cycles_line)(
                "cycles_per_hour must be positive".to_owned(),
            ));
        }
        spec.validate().map_err(at(last))?;
        Ok(spec)
    }

    /// Apply one spec line (`n`, comment-stripped, non-blank) to `spec`
    /// and the open cohort, returning the cohort an `end` closes.
    fn parse_line(
        spec: &mut FleetSpec,
        current: &mut Option<(usize, CohortSpec)>,
        n: usize,
        line: &str,
    ) -> Result<Option<CohortSpec>, String> {
        let mut words = line.split_whitespace();
        let key = words.next().expect("blank lines filtered");
        let rest: Vec<&str> = words.collect();
        let one = || -> Result<&str, String> {
            match rest.as_slice() {
                [v] => Ok(v),
                _ => Err(format!("'{key}' takes exactly one value: '{line}'")),
            }
        };
        let int = |v: &str| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("'{key}': not an integer: '{v}'"))
        };
        let int32 = |v: &str| -> Result<u32, String> {
            u32::try_from(int(v)?).map_err(|_| format!("'{key}': {v} exceeds {}", u32::MAX))
        };
        match (key, current.as_mut().map(|c| &mut c.1)) {
            ("cycles_per_hour", None) => spec.cycles_per_hour = int(one()?)?,
            ("cohort", None) => {
                *current = Some((
                    n,
                    CohortSpec {
                        name: one()?.to_owned(),
                        banks: Vec::new(),
                        interleaving: Interleaving::LowOrder,
                        scrub_period: 0,
                        checkpoint_interval: 0,
                        workload: "uniform".to_owned(),
                        write_fraction_ppm: 100_000,
                        devices: 1,
                        horizon: 400,
                        seu_mean_cycles: 100,
                        arrivals_per_bank: 1,
                        hard_ppm: 0,
                        spare_rows: 0,
                        spare_cols: 0,
                        march: "mats+".to_owned(),
                        slo_max_sdc_fit: u64::MAX,
                        slo_min_detect_ppm: 0,
                    },
                ))
            }
            ("end", Some(_)) => return Ok(current.take().map(|c| c.1)),
            ("bank", Some(c)) => match rest.as_slice() {
                [w, b, m, a] => {
                    let recipe = BankRecipe {
                        words: int(w)?,
                        word_bits: int32(b)?,
                        mux: int32(m)?,
                        modulus: int(a)?,
                    };
                    // Checked here, before any later line can build it.
                    recipe
                        .validate()
                        .map_err(|e| format!("cohort '{}': {e}", c.name))?;
                    c.banks.push(recipe);
                }
                _ => {
                    return Err(format!(
                        "'bank' takes words word_bits mux modulus: '{line}'"
                    ))
                }
            },
            ("interleaving", Some(c)) => {
                c.interleaving = Interleaving::parse(one()?)
                    .ok_or_else(|| format!("unknown interleaving '{}'", rest.join(" ")))?
            }
            ("scrub_period", Some(c)) => c.scrub_period = int(one()?)?,
            ("checkpoint_interval", Some(c)) => c.checkpoint_interval = int(one()?)?,
            ("workload", Some(c)) => c.workload = one()?.to_owned(),
            ("write_fraction_ppm", Some(c)) => c.write_fraction_ppm = int32(one()?)?,
            ("devices", Some(c)) => c.devices = int(one()?)?,
            ("horizon", Some(c)) => c.horizon = int(one()?)?,
            ("seu_mean_cycles", Some(c)) => c.seu_mean_cycles = int(one()?)?,
            ("arrivals_per_bank", Some(c)) => c.arrivals_per_bank = int32(one()?)?,
            ("hard_ppm", Some(c)) => c.hard_ppm = int32(one()?)?,
            ("spare_rows", Some(c)) => c.spare_rows = int32(one()?)?,
            ("spare_cols", Some(c)) => c.spare_cols = int32(one()?)?,
            ("march", Some(c)) => c.march = one()?.to_owned(),
            ("slo_max_sdc_fit", Some(c)) => c.slo_max_sdc_fit = int(one()?)?,
            ("slo_min_detect_ppm", Some(c)) => c.slo_min_detect_ppm = int32(one()?)?,
            _ => return Err(format!("unexpected spec line: '{line}'")),
        }
        Ok(None)
    }

    /// FNV-1a digest of the canonical text — the checkpoint's guard
    /// against resuming under a different spec.
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_text().as_bytes())
    }
}

/// 64-bit FNV-1a over `bytes`: the spec digest and the checkpoint body
/// checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x1_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn presets_validate_and_round_trip() {
        for name in PRESET_NAMES {
            let spec = FleetSpec::preset(name).unwrap();
            spec.validate().unwrap();
            let reparsed = FleetSpec::parse(&spec.to_text()).unwrap();
            assert_eq!(spec, reparsed, "{name} round-trips");
            assert_eq!(spec.digest(), reparsed.digest());
        }
        assert!(FleetSpec::preset("galactic").is_none());
    }

    #[test]
    fn parse_tolerates_comments_and_rejects_junk() {
        let text = "# a fleet\nscm-fleet-spec v1\ncycles_per_hour 3600\n\
                    cohort tiny\n  bank 64 8 4 9  # worked example\n  devices 3\nend\n";
        let spec = FleetSpec::parse(text).unwrap();
        assert_eq!(spec.cohorts.len(), 1);
        assert_eq!(spec.cohorts[0].devices, 3);
        assert!(FleetSpec::parse("nope").is_err());
        assert!(FleetSpec::parse("scm-fleet-spec v1\nwat 3\n").is_err());
        let unterminated = "scm-fleet-spec v1\ncycles_per_hour 1\ncohort a\n  bank 64 8 4 9\n";
        assert!(FleetSpec::parse(unterminated)
            .unwrap_err()
            .contains("missing its 'end'"));
    }

    /// A one-cohort spec around `line`.
    fn one_cohort(line: &str) -> String {
        format!(
            "scm-fleet-spec v1\ncycles_per_hour 3600\ncohort a\n  bank 64 8 4 9\n  {line}\nend\n"
        )
    }

    #[test]
    fn u32_fields_refuse_values_past_u32_max() {
        for (line, value) in [
            ("bank 64 4294967304 4 9", "4294967304"),
            ("bank 64 8 4294967300 9", "4294967300"),
            ("write_fraction_ppm 4295067296", "4295067296"),
            ("arrivals_per_bank 4294967296", "4294967296"),
            ("hard_ppm 18446744073709551615", "18446744073709551615"),
            ("spare_rows 4294967297", "4294967297"),
            ("spare_cols 4294967298", "4294967298"),
            ("slo_min_detect_ppm 4294967296", "4294967296"),
        ] {
            let err = FleetSpec::parse(&one_cohort(line)).unwrap_err();
            assert!(
                err.contains(&format!("{value} exceeds 4294967295")),
                "{line}: {err}"
            );
        }
        let spec = FleetSpec::parse(&one_cohort("spare_rows 4294967295")).unwrap();
        assert_eq!(spec.cohorts[0].spare_rows, u32::MAX);
    }

    #[test]
    fn impossible_bank_geometries_are_errors() {
        for (bank, rule) in [
            ("63 8 4 9", "word count must be a power of two"),
            ("64 8 3 9", "mux factor must be a power of two"),
            ("64 8 0 9", "mux factor must be a power of two"),
            ("64 8 64 9", "mux factor exceeds word count"),
            ("64 0 4 9", "word width must be at least 1"),
            ("64 65 4 9", "word width 65 exceeds"),
        ] {
            let text = one_cohort(&format!("bank {bank}"));
            let err = FleetSpec::parse(&text).unwrap_err();
            assert!(
                err.contains("cohort 'a': bank geometry") && err.contains(rule),
                "{bank}: {err}"
            );
        }
    }

    /// Does `err` open with `line N:` for a line `N` of a `lines`-line
    /// text?
    fn has_line_prefix(err: &str, lines: usize) -> bool {
        err.strip_prefix("line ")
            .and_then(|rest| rest.split_once(": "))
            .and_then(|(n, _)| n.parse::<usize>().ok())
            .is_some_and(|n| (1..=lines.max(1)).contains(&n))
    }

    #[test]
    fn parse_errors_name_their_line() {
        for (text, prefix) in [
            ("", "line 1: spec must start"),
            ("\n# header\nscm-fleet-spec v2\n", "line 3: spec must start"),
            (&one_cohort("wat 3"), "line 5: unexpected spec line"),
            (
                &one_cohort("devices x"),
                "line 5: 'devices': not an integer",
            ),
            (
                &one_cohort("bank 64 8 3 9"),
                "line 5: cohort 'a': bank geometry",
            ),
            // Cohort-level validation points at the cohort's opening line.
            (
                &one_cohort("devices 0"),
                "line 3: cohort 'a': devices and horizon",
            ),
            (
                &one_cohort("march march-z"),
                "line 3: cohort 'a': unknown March test",
            ),
            (
                "scm-fleet-spec v1\ncycles_per_hour 1\n\ncohort a\n  bank 64 8 4 9\n",
                "line 4: cohort 'a' is missing its 'end'",
            ),
            (
                "scm-fleet-spec v1\ncycles_per_hour 0\ncohort a\n  bank 64 8 4 9\nend\n",
                "line 2: cycles_per_hour must be positive",
            ),
            (
                "scm-fleet-spec v1\ncohort a\n  bank 64 8 4 9\nend\n",
                "line 4: cycles_per_hour must be positive",
            ),
            (
                "scm-fleet-spec v1\ncycles_per_hour 1\n# no cohorts\n",
                "line 3: a fleet needs at least one cohort",
            ),
        ] {
            let err = FleetSpec::parse(text).unwrap_err();
            assert!(err.starts_with(prefix), "{text:?}: {err}");
        }
    }

    #[test]
    fn banks_past_the_cell_cap_are_refused() {
        // A bank of exactly the cap fits; the next word count does not.
        let fits = one_cohort("bank 65536 63 8 9");
        const { assert!(65536 * 64 == MAX_BANK_CELLS) };
        FleetSpec::parse(&fits).unwrap();
        for bank in [
            "bank 131072 63 8 9",
            "bank 4294967296 8 4 9",
            "bank 9223372036854775808 64 4 9",
        ] {
            let err = FleetSpec::parse(&one_cohort(bank)).unwrap_err();
            assert!(
                err.starts_with("line 5: cohort 'a': bank geometry") && err.contains("cell cap"),
                "{bank}: {err}"
            );
        }
        let mut spec = FleetSpec::preset("small").unwrap();
        spec.cohorts[0].banks[0].words = 1 << 40;
        assert!(spec.validate().unwrap_err().contains("cell cap"));
    }

    /// Zero, a negative, and the first values past `u32` and `u64`.
    const HOSTILE: [&str; 4] = ["0", "-1", "4294967296", "18446744073709551616"];

    /// Apply one edit to a spec's lines: `kind` 0 deletes line `a`, 1
    /// duplicates it, 2 swaps lines `a` and `b`, and 3 replaces integer
    /// token `a` (counted over the whole text) with `HOSTILE[b]`; `a`
    /// and `b` wrap to the lines or tokens there are.
    fn mutate(lines: &mut Vec<String>, (kind, a, b): (u8, u64, u64)) {
        let n = lines.len() as u64;
        if n == 0 {
            return;
        }
        let (a, b) = ((a % n) as usize, (b % n) as usize);
        match kind {
            0 => {
                lines.remove(a);
            }
            1 => lines.insert(a, lines[a].clone()),
            2 => lines.swap(a, b),
            _ => {
                let numbers: Vec<(usize, usize)> = lines
                    .iter()
                    .enumerate()
                    .flat_map(|(l, line)| {
                        line.split_whitespace()
                            .enumerate()
                            .filter(|(_, t)| t.parse::<u64>().is_ok())
                            .map(move |(t, _)| (l, t))
                    })
                    .collect();
                if numbers.is_empty() {
                    return;
                }
                let (l, t) = numbers[a % numbers.len()];
                let mut tokens: Vec<&str> = lines[l].split_whitespace().collect();
                tokens[t] = HOSTILE[b % HOSTILE.len()];
                lines[l] = tokens.join(" ");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// A mutated preset either fails to parse or parses to a spec
        /// whose canonical text parses back to the same spec; parsing
        /// never panics.
        #[test]
        fn mutated_presets_error_or_round_trip(
            preset in 0usize..2,
            edits in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..6),
        ) {
            let text = FleetSpec::preset(PRESET_NAMES[preset]).unwrap().to_text();
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            for &edit in &edits {
                mutate(&mut lines, edit);
            }
            match FleetSpec::parse(&lines.join("\n")) {
                Ok(spec) => prop_assert_eq!(FleetSpec::parse(&spec.to_text()), Ok(spec)),
                Err(err) => prop_assert!(has_line_prefix(&err, lines.len()), "{}", err),
            }
        }
    }

    #[test]
    fn validation_names_the_offending_cohort() {
        let mut spec = FleetSpec::preset("small").unwrap();
        spec.cohorts[1].workload = "chaotic".to_owned();
        let err = spec.validate().unwrap_err();
        assert!(
            err.contains("datacenter") && err.contains("chaotic"),
            "{err}"
        );
        let mut spec = FleetSpec::preset("small").unwrap();
        spec.cohorts[0].march = "march-z".to_owned();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn device_rescale_preserves_proportions() {
        let spec = FleetSpec::preset("small").unwrap(); // 12 + 8 devices
        let scaled = spec.clone().with_devices(100);
        assert_eq!(scaled.total_devices(), 100);
        assert_eq!(scaled.cohorts[0].devices, 60);
        assert_eq!(scaled.cohorts[1].devices, 40);
        // Tiny totals still give every cohort at least one device.
        let tiny = spec.clone().with_devices(3);
        assert_eq!(tiny.total_devices(), 3);
        assert!(tiny.cohorts.iter().all(|c| c.devices >= 1));
        // Digest changes with the device count (it is part of identity).
        assert_ne!(spec.digest(), scaled.digest());
    }

    #[test]
    fn bank_recipes_instantiate() {
        let spec = FleetSpec::preset("small").unwrap();
        for cohort in &spec.cohorts {
            let config = cohort.system_config();
            assert_eq!(config.num_banks(), cohort.banks.len());
            let _ = cohort.workload_model();
            let _ = cohort.march_test();
        }
    }
}
