//! Fault localization: the March fault dictionary.
//!
//! Following the fast-diagnosis line of Wang, Wu & Ivanov, localization
//! here is dictionary-based: every candidate [`FaultSite`] is simulated
//! through one March session and filed under its *signature* — the exact
//! sequence of [`SyndromeEvent`]s it produces in March-local coordinates.
//! Diagnosing an observed session log is then a single lookup; the value
//! is the **ambiguity set**, every candidate whose behaviour under the
//! test is indistinguishable from the observed one.
//!
//! Ambiguity is physical, not an artefact: a stuck cell in word bit 2 and
//! one in word bit 5 of the same word fail the same reads of the same
//! address (the word-level comparator sees *that* a read mismatched, not
//! which bit), so they share a signature whenever the background gives
//! both bits the same polarity. What matters for repair is that ambiguity
//! sets are *repair-compatible* — same-word cells share a physical row,
//! so one spare row covers whichever candidate is the true one. The
//! dictionary reports the sets honestly and the allocator exploits the
//! structure.
//!
//! Determinism: the dictionary is pure in `(config, test, seed,
//! candidates)`; building it in parallel cannot change it, because every
//! candidate's signature is simulated independently and grouping runs in
//! input order.
//!
//! One structural blind spot is worth knowing about: with an **even**
//! word width `m`, the background `B` and its complement `~B` have equal
//! parity, so both March data states store the *same* parity bit. A
//! parity-group cell stuck at exactly that value is March-silent under
//! any single-background test — the classic data-background limitation
//! of word-oriented March testing. Such sites land in
//! [`FaultDictionary::silent_sites`] (they are latent until mission
//! traffic writes a word of the other parity); multi-background BIST
//! would close the gap at proportional session cost.

use crate::march::{
    materialize_session, run_march, run_march_sliced_ops, MarchLog, MarchSessionOp, MarchTest,
    SyndromeEvent,
};
use scm_memory::backend::{BehavioralBackend, FaultSimBackend};
use scm_memory::design::RamConfig;
use scm_memory::fault::{FaultScenario, FaultSite};
use scm_memory::grid::par_map;
use scm_memory::sliced::{with_slab_words, SlabTask, SlicedBackend, MAX_SLAB_LANES};
use std::collections::BTreeMap;

/// A session signature: the full (possibly capped) syndrome-event
/// sequence plus the cap marker.
pub type Signature = (Vec<SyndromeEvent>, bool);

/// Every single stuck-at cell fault of a RAM: `rows × physical columns ×
/// both polarities` (the parity column group included).
pub fn cell_universe(config: &RamConfig) -> Vec<FaultSite> {
    let org = config.org();
    let cols = org.physical_cols() as usize;
    let mut sites = Vec::with_capacity(org.rows() as usize * cols * 2);
    for row in 0..org.rows() as usize {
        for col in 0..cols {
            for stuck in [false, true] {
                sites.push(FaultSite::Cell { row, col, stuck });
            }
        }
    }
    sites
}

/// What one diagnosis session concluded.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// The ambiguity set: every dictionary candidate matching the
    /// observed signature (empty when the signature is unknown or clean).
    pub candidates: Vec<FaultSite>,
    /// Session-local cycle of the first syndrome (BIST detection
    /// latency), if any.
    pub first_syndrome: Option<u64>,
    /// Cycles the diagnosing session consumed — the diagnosis latency a
    /// scheduler must charge (the full session: signatures are only
    /// comparable when complete).
    pub session_cycles: u64,
}

impl Diagnosis {
    /// Did the session flag at all?
    pub fn detected(&self) -> bool {
        self.first_syndrome.is_some()
    }

    /// Is the given site among the candidates?
    pub fn contains(&self, site: &FaultSite) -> bool {
        self.candidates.contains(site)
    }
}

/// Aggregate shape of a dictionary, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DictionaryStats {
    /// Candidates simulated.
    pub candidates: usize,
    /// Candidates whose session stayed clean (March-silent, undiagnosable
    /// by this test).
    pub silent: usize,
    /// Distinct signatures observed.
    pub distinct_signatures: usize,
    /// Largest ambiguity set.
    pub max_ambiguity: usize,
}

/// The signature → ambiguity-set dictionary for one RAM configuration
/// under one March test and session seed.
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    config: RamConfig,
    test: MarchTest,
    seed: u64,
    entries: BTreeMap<Signature, Vec<FaultSite>>,
    silent: Vec<FaultSite>,
    session_cycles: u64,
}

impl FaultDictionary {
    /// Simulate every candidate through one March session and file the
    /// signatures. `threads` pins a rayon pool (`0` = ambient). The
    /// result is pure in `(config, test, seed, candidates)` — thread
    /// count only changes wall-clock. It steps one scalar backend per
    /// candidate: the reference that [`build_sliced`](Self::build_sliced),
    /// what every production caller uses, is tested against.
    pub fn build(
        config: &RamConfig,
        test: &MarchTest,
        seed: u64,
        candidates: &[FaultSite],
        threads: usize,
    ) -> Self {
        let template = BehavioralBackend::new(config);
        let simulate = |site: &FaultSite| -> Signature {
            let mut backend = template.clone();
            backend.reset_site(Some(*site));
            let log = run_march(&mut backend, test, seed);
            (log.events, log.truncated)
        };
        let signatures = par_map(threads, candidates, simulate);
        Self::file(config, test, seed, candidates, signatures)
    }

    /// [`build`](Self::build) on the bit-sliced fast path: candidates
    /// pack up to `lane_width` (clamped to `1..=`[`MAX_SLAB_LANES`],
    /// `0` = maximum) to a simulation pass, each riding one lane of a
    /// [`SlicedBackend`] at the narrowest slab width that fits, all
    /// replaying **one** materialised March session by reference. The
    /// lane bit-identity contract makes the result **equal** to the
    /// scalar build — same signatures, same filing — at a fraction of
    /// the cost (the dictionary over a full cell universe is the
    /// heaviest single-shot simulation in the stack).
    pub fn build_sliced(
        config: &RamConfig,
        test: &MarchTest,
        seed: u64,
        candidates: &[FaultSite],
        threads: usize,
        lane_width: usize,
    ) -> Self {
        let width = if lane_width == 0 {
            MAX_SLAB_LANES
        } else {
            lane_width.clamp(1, MAX_SLAB_LANES)
        };
        let chunks: Vec<&[FaultSite]> = candidates.chunks(width).collect();
        let org = config.org();
        let session = materialize_session(test, org.words(), org.word_bits(), seed);
        /// One candidate chunk's March session, runnable at any slab width.
        struct SimulateChunk<'a> {
            config: &'a RamConfig,
            chunk: &'a [FaultSite],
            session: &'a [MarchSessionOp],
        }
        impl SlabTask for SimulateChunk<'_> {
            type Output = Vec<Signature>;
            fn run<const W: usize>(self) -> Vec<Signature> {
                let scenarios: Vec<FaultScenario> = self
                    .chunk
                    .iter()
                    .copied()
                    .map(FaultScenario::permanent)
                    .collect();
                let mut backend = SlicedBackend::<W>::new(self.config, &scenarios);
                run_march_sliced_ops(&mut backend, self.session)
                    .into_iter()
                    .map(|log| (log.events, log.truncated))
                    .collect()
            }
        }
        let simulate = |chunk: &&[FaultSite]| -> Vec<Signature> {
            with_slab_words(
                chunk.len(),
                SimulateChunk {
                    config,
                    chunk,
                    session: &session,
                },
            )
        };
        let signatures: Vec<Signature> = par_map(threads, &chunks, simulate)
            .into_iter()
            .flatten()
            .collect();
        Self::file(config, test, seed, candidates, signatures)
    }

    /// File simulated signatures (input order) into the dictionary shape.
    fn file(
        config: &RamConfig,
        test: &MarchTest,
        seed: u64,
        candidates: &[FaultSite],
        signatures: Vec<Signature>,
    ) -> Self {
        debug_assert_eq!(candidates.len(), signatures.len());
        let mut entries: BTreeMap<Signature, Vec<FaultSite>> = BTreeMap::new();
        let mut silent = Vec::new();
        for (site, signature) in candidates.iter().zip(signatures) {
            if signature.0.is_empty() {
                silent.push(*site);
            } else {
                entries.entry(signature).or_default().push(*site);
            }
        }
        FaultDictionary {
            config: config.clone(),
            test: test.clone(),
            seed,
            entries,
            silent,
            session_cycles: test.session_cycles(config.org().words()),
        }
    }

    /// The RAM configuration the dictionary was built for.
    pub fn config(&self) -> &RamConfig {
        &self.config
    }

    /// The March test signatures were recorded under.
    pub fn test(&self) -> &MarchTest {
        &self.test
    }

    /// The session seed signatures were recorded under — diagnosing
    /// sessions must run with the same seed for signatures to align.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Candidates this test cannot see at all.
    pub fn silent_sites(&self) -> &[FaultSite] {
        &self.silent
    }

    /// Length of one diagnosing session in cycles — what a scheduler
    /// must steal from mission traffic to run a lookup-able session.
    pub fn session_cycles(&self) -> u64 {
        self.session_cycles
    }

    /// Run one diagnosing session on an already-reset backend and look
    /// the signature up.
    pub fn diagnose_session<B: FaultSimBackend + ?Sized>(&self, backend: &mut B) -> Diagnosis {
        let log = run_march(backend, &self.test, self.seed);
        self.diagnose(&log)
    }

    /// Look up an observed session log.
    pub fn diagnose(&self, log: &MarchLog) -> Diagnosis {
        let candidates = if log.clean() {
            Vec::new()
        } else {
            self.entries
                .get(&(log.events.clone(), log.truncated))
                .cloned()
                .unwrap_or_default()
        };
        Diagnosis {
            candidates,
            first_syndrome: log.first_syndrome,
            session_cycles: log.cycles,
        }
    }

    /// The site-keyed reverse index: every diagnosable candidate mapped
    /// to the signature it is filed under (possible since [`FaultSite`]
    /// is totally ordered; the map iterates in site order, which is what
    /// keys deterministic per-site listings in reports and the CLI).
    pub fn site_index(&self) -> BTreeMap<FaultSite, &Signature> {
        let mut index = BTreeMap::new();
        for (signature, sites) in &self.entries {
            for site in sites {
                index.insert(*site, signature);
            }
        }
        index
    }

    /// Aggregate shape, for reports.
    pub fn stats(&self) -> DictionaryStats {
        DictionaryStats {
            candidates: self.silent.len() + self.entries.values().map(Vec::len).sum::<usize>(),
            silent: self.silent.len(),
            distinct_signatures: self.entries.len(),
            max_ambiguity: self.entries.values().map(Vec::len).max().unwrap_or(0),
        }
    }

    /// Mean ambiguity-set size over non-silent candidates.
    pub fn mean_ambiguity(&self) -> f64 {
        let diagnosed: usize = self.entries.values().map(Vec::len).sum();
        if diagnosed == 0 {
            return 0.0;
        }
        // A candidate in a set of size k has ambiguity k; averaging over
        // candidates weights large sets by their own size.
        let weighted: usize = self.entries.values().map(|v| v.len() * v.len()).sum();
        weighted as f64 / diagnosed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scm_area::RamOrganization;
    use scm_codes::{CodewordMap, MOutOfN};

    fn config() -> RamConfig {
        let org = RamOrganization::new(64, 8, 4);
        let code = MOutOfN::new(3, 5).unwrap();
        RamConfig::new(
            org,
            CodewordMap::mod_a(code, 9, 16).unwrap(),
            CodewordMap::mod_a(code, 9, 4).unwrap(),
        )
    }

    fn dictionary(threads: usize) -> FaultDictionary {
        let cfg = config();
        let candidates = cell_universe(&cfg);
        FaultDictionary::build(&cfg, &MarchTest::march_c_minus(), 11, &candidates, threads)
    }

    #[test]
    fn cell_universe_covers_every_cell_both_ways() {
        let sites = cell_universe(&config());
        // 16 rows × (8+1)·4 columns × 2 polarities.
        assert_eq!(sites.len(), 16 * 36 * 2);
    }

    #[test]
    fn every_data_cell_fault_is_diagnosable_and_the_silent_set_is_exactly_parity() {
        let dict = dictionary(0);
        let stats = dict.stats();
        assert_eq!(stats.candidates, 1152);
        assert!(stats.distinct_signatures > 100);
        // m = 8 is even, so both backgrounds store the same parity bit;
        // the silent set is exactly the parity-group cells stuck at that
        // value: 16 rows x 4 column-selects x 1 polarity.
        let parity = crate::march::background(11, 8).count_ones() % 2 == 1;
        assert_eq!(stats.silent, 64, "only same-value parity cells hide");
        for site in dict.silent_sites() {
            match site {
                FaultSite::Cell { col, stuck, .. } => {
                    assert!((32..36).contains(col), "silent site {site:?}");
                    assert_eq!(*stuck, parity, "silent site {site:?}");
                }
                other => panic!("non-cell silent site {other:?}"),
            }
        }
    }

    #[test]
    fn diagnosis_contains_the_true_site_and_shares_its_row() {
        let cfg = config();
        let dict = dictionary(0);
        let site = FaultSite::Cell {
            row: 7,
            col: 13,
            stuck: true,
        };
        let mut backend = BehavioralBackend::new(&cfg);
        backend.reset_site(Some(site));
        let diagnosis = dict.diagnose_session(&mut backend);
        assert!(diagnosis.detected());
        assert!(diagnosis.contains(&site), "{:?}", diagnosis.candidates);
        // Repair-compatibility: every candidate lives in the same row.
        for c in &diagnosis.candidates {
            match c {
                FaultSite::Cell { row, .. } => assert_eq!(*row, 7, "{c:?}"),
                other => panic!("non-cell candidate {other:?}"),
            }
        }
        assert_eq!(diagnosis.session_cycles, 640);
    }

    #[test]
    fn clean_and_unknown_logs_yield_empty_ambiguity() {
        let cfg = config();
        let dict = dictionary(0);
        let mut backend = BehavioralBackend::new(&cfg);
        backend.reset(None);
        let diagnosis = dict.diagnose_session(&mut backend);
        assert!(!diagnosis.detected());
        assert!(diagnosis.candidates.is_empty());
    }

    #[test]
    fn dictionary_is_bit_identical_at_any_thread_count() {
        let reference = dictionary(1);
        for threads in [2usize, 4, 8] {
            let parallel = dictionary(threads);
            assert_eq!(reference.entries, parallel.entries, "{threads} threads");
            assert_eq!(reference.silent, parallel.silent);
        }
    }

    #[test]
    fn sliced_build_equals_the_scalar_build() {
        let cfg = config();
        // The full cell universe plus decoder faults — a non-multiple of
        // 64 so the tail chunk is partial.
        let mut candidates = cell_universe(&cfg);
        candidates.extend(
            scm_memory::campaign::decoder_fault_universe(4)
                .into_iter()
                .map(FaultSite::RowDecoder),
        );
        let test = MarchTest::march_c_minus();
        let scalar = FaultDictionary::build(&cfg, &test, 11, &candidates, 0);
        let sliced = FaultDictionary::build_sliced(&cfg, &test, 11, &candidates, 0, 0);
        assert_eq!(scalar.entries, sliced.entries);
        assert_eq!(scalar.silent, sliced.silent);
        assert_eq!(scalar.stats(), sliced.stats());
        // And the sliced build keeps the thread-count contract.
        let threaded = FaultDictionary::build_sliced(&cfg, &test, 11, &candidates, 4, 0);
        assert_eq!(sliced.entries, threaded.entries);
        // …and the lane-width one, narrow slabs through the widest.
        for width in [1usize, 64, 100, 512] {
            let at_width = FaultDictionary::build_sliced(&cfg, &test, 11, &candidates, 0, width);
            assert_eq!(sliced.entries, at_width.entries, "lane width {width}");
            assert_eq!(sliced.silent, at_width.silent, "lane width {width}");
        }
    }

    #[test]
    fn site_index_inverts_the_signature_map() {
        let dict = dictionary(0);
        let index = dict.site_index();
        let stats = dict.stats();
        assert_eq!(index.len(), stats.candidates - stats.silent);
        // Every indexed site's signature contains it.
        let site = *index.keys().next().unwrap();
        let signature = index[&site];
        assert!(dict.entries[signature].contains(&site));
        // Iteration is in site order (FaultSite: Ord).
        let keys: Vec<FaultSite> = index.keys().copied().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn mean_ambiguity_is_at_least_one() {
        let dict = dictionary(0);
        assert!(dict.mean_ambiguity() >= 1.0);
        assert!(dict.mean_ambiguity() <= dict.stats().max_ambiguity as f64);
    }
}
