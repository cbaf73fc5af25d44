//! The exploration vocabulary: design points and the axis grids that
//! enumerate them.
//!
//! A [`DesignPoint`] is one fully specified candidate — geometry × latency
//! requirement × selection policy × scrub policy × workload model. An
//! [`ExplorationSpace`] is the cartesian product of axis value lists; its
//! [`points`](ExplorationSpace::points) enumeration order is deterministic,
//! which is what lets the parallel evaluator return bit-identical result
//! vectors at every thread count.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scm_area::RamOrganization;
use scm_codes::selection::SelectionPolicy;

/// Background-scrub policy of a design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScrubPolicy {
    /// No scrubber: detection latency is probabilistic (the paper's model).
    Off,
    /// A background sequential sweep, one scrub read per slot: the
    /// evaluator additionally reports the *hard* worst-case
    /// steps-to-detection bound of `scm_memory::scrub`.
    SequentialSweep,
}

impl ScrubPolicy {
    /// Short CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            ScrubPolicy::Off => "off",
            ScrubPolicy::SequentialSweep => "sequential-sweep",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(name: &str) -> Option<ScrubPolicy> {
        match name {
            "off" => Some(ScrubPolicy::Off),
            "sequential-sweep" => Some(ScrubPolicy::SequentialSweep),
            _ => None,
        }
    }
}

/// Repair axis of a design point: how much redundancy the design carries
/// and how BIST diagnosis is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RepairPolicy {
    /// Spare rows per bank (`0` with `diag_period = 0` = the paper's
    /// detection-only design).
    pub spare_rows: u32,
    /// Proactive BIST session period in system cycles (`0` = reactive
    /// only: sessions fire on checker indications).
    pub diag_period: u64,
}

impl RepairPolicy {
    /// Detection-only: no spares, no diagnosis scheduling — the paper's
    /// baseline.
    pub const OFF: RepairPolicy = RepairPolicy {
        spare_rows: 0,
        diag_period: 0,
    };

    /// Does this policy add any repair machinery at all?
    pub fn enabled(&self) -> bool {
        *self != RepairPolicy::OFF
    }
}

/// Temporal fault mix a design point is graded against: which
/// [`scm_memory::fault::FaultProcess`] classes the empirical
/// adjudication injects. Detection effectiveness must be evaluated
/// across fault-type mixes, not a single model (Papadopoulos et al.) —
/// this is that axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultMix {
    /// Permanent stuck-ats injected at reset — the paper's model.
    Permanent,
    /// One-shot transient cell flips with seed-pure arrival times.
    Transient,
    /// Duty-cycled intermittent decoder contacts.
    Intermittent,
    /// All three classes side by side.
    Mix,
}

impl FaultMix {
    /// Every mix, presentation order.
    pub const ALL: [FaultMix; 4] = [
        FaultMix::Permanent,
        FaultMix::Transient,
        FaultMix::Intermittent,
        FaultMix::Mix,
    ];

    /// Short CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            FaultMix::Permanent => "permanent",
            FaultMix::Transient => "transient",
            FaultMix::Intermittent => "intermittent",
            FaultMix::Mix => "mix",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(name: &str) -> Option<FaultMix> {
        FaultMix::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// One fully specified candidate in the design space.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// RAM geometry (words × word bits, column mux). With `banks > 1`
    /// this is the **per-bank** geometry of a homogeneous system.
    pub geometry: RamOrganization,
    /// Tolerated detection latency `c` in cycles.
    pub cycles: u32,
    /// Tolerated escape probability `Pndc` after `c` cycles.
    pub pndc: f64,
    /// Escape-formula policy driving code selection.
    pub policy: SelectionPolicy,
    /// Background scrub policy.
    pub scrub: ScrubPolicy,
    /// Workload model name (resolved through the evaluator's registry).
    pub workload: String,
    /// Banks in the sharded system view (`1` = the paper's single
    /// memory; `> 1` makes the evaluator's system stage compose that
    /// many copies behind an interleaver).
    pub banks: u32,
    /// Checkpoint interval in system cycles for the lost-work axis
    /// (`0` = only the initial state is recoverable).
    pub checkpoint: u64,
    /// Repair axis: spare budget × BIST diagnosis scheduling
    /// ([`RepairPolicy::OFF`] = the paper's detection-only design).
    pub repair: RepairPolicy,
    /// Temporal fault mix the empirical adjudication grades against
    /// ([`FaultMix::Permanent`] = the paper's model).
    pub fault_mix: FaultMix,
}

impl DesignPoint {
    /// A point with the paper's defaults: no scrub, uniform workload,
    /// one bank, no periodic checkpoints.
    pub fn paper(
        geometry: RamOrganization,
        cycles: u32,
        pndc: f64,
        policy: SelectionPolicy,
    ) -> Self {
        DesignPoint {
            geometry,
            cycles,
            pndc,
            policy,
            scrub: ScrubPolicy::Off,
            workload: "uniform".to_owned(),
            banks: 1,
            checkpoint: 0,
            repair: RepairPolicy::OFF,
            fault_mix: FaultMix::Permanent,
        }
    }

    /// Compact label for reports, e.g. `1Kx16/c=10/1e-9/inverse-a`.
    /// System axes appear only when they leave the paper's defaults
    /// (`/x4b` for four banks, `/ck64` for a 64-cycle checkpoint
    /// interval, `/sp2+dg512` for two spare rows with a 512-cycle BIST
    /// period, `/fm=transient` for a non-permanent fault mix), so
    /// single-memory labels stay byte-stable.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/c={}/{:.0e}/{}/{}/{}",
            self.geometry.name(),
            self.cycles,
            self.pndc,
            self.policy.name(),
            self.scrub.name(),
            self.workload
        );
        if self.banks > 1 {
            label.push_str(&format!("/x{}b", self.banks));
        }
        if self.checkpoint > 0 {
            label.push_str(&format!("/ck{}", self.checkpoint));
        }
        if self.repair.enabled() {
            label.push_str(&format!(
                "/sp{}+dg{}",
                self.repair.spare_rows, self.repair.diag_period
            ));
        }
        if self.fault_mix != FaultMix::Permanent {
            label.push_str(&format!("/fm={}", self.fault_mix.name()));
        }
        label
    }
}

/// Axis lists whose cartesian product is the candidate set.
#[derive(Debug, Clone)]
pub struct ExplorationSpace {
    /// Geometries to cover.
    pub geometries: Vec<RamOrganization>,
    /// Latency budgets `c`.
    pub cycles: Vec<u32>,
    /// Escape budgets `Pndc`.
    pub pndcs: Vec<f64>,
    /// Selection policies.
    pub policies: Vec<SelectionPolicy>,
    /// Scrub policies.
    pub scrubs: Vec<ScrubPolicy>,
    /// Workload model names.
    pub workloads: Vec<String>,
    /// Bank counts for the sharded system view.
    pub banks: Vec<u32>,
    /// Checkpoint intervals (system cycles).
    pub checkpoints: Vec<u64>,
    /// Repair policies (spare budget × diagnosis scheduling).
    pub repairs: Vec<RepairPolicy>,
    /// Temporal fault mixes the adjudication grades against.
    pub fault_mixes: Vec<FaultMix>,
}

impl ExplorationSpace {
    /// The paper's slice: its three published RAMs, both tables' budget
    /// axes, the exact worst-block policy, no scrub, uniform workload.
    pub fn paper_defaults() -> Self {
        ExplorationSpace {
            geometries: scm_area::ram_area::paper_rams().to_vec(),
            cycles: vec![2, 5, 10, 20, 30, 40],
            pndcs: vec![1e-2, 1e-5, 1e-9, 1e-15, 1e-20, 1e-30],
            policies: vec![SelectionPolicy::WorstBlockExact],
            scrubs: vec![ScrubPolicy::Off],
            workloads: vec!["uniform".to_owned()],
            banks: vec![1],
            checkpoints: vec![0],
            repairs: vec![RepairPolicy::OFF],
            fault_mixes: vec![FaultMix::Permanent],
        }
    }

    /// The worked reference space of the CLI's `explore` report and the
    /// guided-search acceptance tests: the paper's 16×1K RAM, both
    /// tables' latency/escape budget axes, both selection policies — 72
    /// points, small enough to adjudicate exhaustively, rich enough that
    /// most of it is Pareto-dominated.
    pub fn worked_reference() -> Self {
        ExplorationSpace {
            geometries: vec![RamOrganization::with_mux8(1024, 16)],
            cycles: vec![2, 5, 10, 20, 30, 40],
            pndcs: vec![1e-2, 1e-5, 1e-9, 1e-15, 1e-20, 1e-30],
            policies: SelectionPolicy::ALL.to_vec(),
            scrubs: vec![ScrubPolicy::Off],
            workloads: vec!["uniform".to_owned()],
            banks: vec![1],
            checkpoints: vec![0],
            repairs: vec![RepairPolicy::OFF],
            fault_mixes: vec![FaultMix::Permanent],
        }
    }

    /// A ≥ 10⁶-point grid (36 geometries × 50 latency budgets × 24
    /// escape budgets × 2 policies × 2 scrub policies × 6 workloads =
    /// 1 036 800 points) that exhaustive adjudication cannot touch —
    /// the scale target of budget-bounded guided search.
    pub fn million_grid() -> Self {
        let geometries = [256u64, 512, 1024, 2048, 4096, 8192]
            .into_iter()
            .flat_map(|words| {
                [8u32, 16, 32].into_iter().flat_map(move |bits| {
                    [4u32, 8]
                        .into_iter()
                        .map(move |mux| RamOrganization::new(words, bits, mux))
                })
            })
            .collect();
        ExplorationSpace {
            geometries,
            cycles: (1..=50).collect(),
            pndcs: (1..=24).map(|k| 10f64.powi(-k)).collect(),
            policies: SelectionPolicy::ALL.to_vec(),
            scrubs: vec![ScrubPolicy::Off, ScrubPolicy::SequentialSweep],
            workloads: scm_memory::workload::MODEL_NAMES
                .iter()
                .map(|&w| w.to_owned())
                .collect(),
            banks: vec![1],
            checkpoints: vec![0],
            repairs: vec![RepairPolicy::OFF],
            fault_mixes: vec![FaultMix::Permanent],
        }
    }

    /// Number of candidate points.
    pub fn len(&self) -> usize {
        self.geometries.len()
            * self.cycles.len()
            * self.pndcs.len()
            * self.policies.len()
            * self.scrubs.len()
            * self.workloads.len()
            * self.banks.len()
            * self.checkpoints.len()
            * self.repairs.len()
            * self.fault_mixes.len()
    }

    /// Whether the product is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate every point, in a fixed deterministic order (fault mix,
    /// repair, banks, checkpoint, workload, scrub, policy, geometry,
    /// pndc, cycles — innermost last).
    pub fn points(&self) -> Vec<DesignPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &fault_mix in &self.fault_mixes {
            for &repair in &self.repairs {
                for &banks in &self.banks {
                    for &checkpoint in &self.checkpoints {
                        for workload in &self.workloads {
                            for &scrub in &self.scrubs {
                                for &policy in &self.policies {
                                    for &geometry in &self.geometries {
                                        for &pndc in &self.pndcs {
                                            for &cycles in &self.cycles {
                                                out.push(DesignPoint {
                                                    geometry,
                                                    cycles,
                                                    pndc,
                                                    policy,
                                                    scrub,
                                                    workload: workload.clone(),
                                                    banks,
                                                    checkpoint,
                                                    repair,
                                                    fault_mix,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The point at position `index` of the [`points`](Self::points)
    /// enumeration, decoded directly from the mixed-radix coordinates —
    /// O(1) in the space size, which is what makes sampling a
    /// million-point grid possible without materialising it.
    ///
    /// # Panics
    /// Panics if `index ≥ self.len()`.
    pub fn point_at(&self, index: usize) -> DesignPoint {
        assert!(
            index < self.len(),
            "index {index} outside a {}-point space",
            self.len()
        );
        // points() nests cycles innermost, fault mixes outermost: peel
        // the radices off in that order.
        let mut rest = index;
        let mut digit = |len: usize| {
            let d = rest % len;
            rest /= len;
            d
        };
        let cycles = self.cycles[digit(self.cycles.len())];
        let pndc = self.pndcs[digit(self.pndcs.len())];
        let geometry = self.geometries[digit(self.geometries.len())];
        let policy = self.policies[digit(self.policies.len())];
        let scrub = self.scrubs[digit(self.scrubs.len())];
        let workload = self.workloads[digit(self.workloads.len())].clone();
        let checkpoint = self.checkpoints[digit(self.checkpoints.len())];
        let banks = self.banks[digit(self.banks.len())];
        let repair = self.repairs[digit(self.repairs.len())];
        let fault_mix = self.fault_mixes[digit(self.fault_mixes.len())];
        DesignPoint {
            geometry,
            cycles,
            pndc,
            policy,
            scrub,
            workload,
            banks,
            checkpoint,
            repair,
            fault_mix,
        }
    }

    /// A seed-pure stratified sample of `count` distinct points: every
    /// axis is covered evenly (each of its values appears `count / len`
    /// ± 1 times across the sample), while a per-axis Fisher–Yates
    /// shuffle decorrelates the axes — a Latin-hypercube-style design
    /// over the discrete grid. Pure in `(self, count, seed)`; duplicate
    /// index collisions are re-rolled deterministically, and asking for
    /// at least [`len`](Self::len) points returns the whole space in
    /// enumeration order.
    pub fn sample_stratified(&self, count: usize, seed: u64) -> Vec<DesignPoint> {
        if self.is_empty() || count == 0 {
            return Vec::new();
        }
        if count >= self.len() {
            return self.points();
        }
        // Radices in point_at's peel order, with a distinct RNG stream
        // per axis so adding an axis value never reshuffles the others.
        let radices = [
            self.cycles.len(),
            self.pndcs.len(),
            self.geometries.len(),
            self.policies.len(),
            self.scrubs.len(),
            self.workloads.len(),
            self.checkpoints.len(),
            self.banks.len(),
            self.repairs.len(),
            self.fault_mixes.len(),
        ];
        let columns: Vec<Vec<usize>> = radices
            .iter()
            .enumerate()
            .map(|(axis, &len)| {
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ (axis as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut column: Vec<usize> = (0..count).map(|slot| slot * len / count).collect();
                for i in (1..column.len()).rev() {
                    column.swap(i, rng.gen_range(0..i + 1));
                }
                column
            })
            .collect();
        let mut seen = std::collections::HashSet::with_capacity(count);
        let mut reroll = SmallRng::seed_from_u64(seed ^ 0xC0FF_EE00_5EED);
        let mut out = Vec::with_capacity(count);
        for slot in 0..count {
            let mut index = 0usize;
            for (column, &len) in columns.iter().zip(&radices).rev() {
                index = index * len + column[slot];
            }
            // Collisions (two slots decoding to one grid cell) are
            // re-rolled uniformly; `count < len()` guarantees free cells.
            while !seen.insert(index) {
                index = reroll.gen_range(0..self.len());
            }
            out.push(self.point_at(index));
        }
        out
    }

    /// The grid neighbours of a point: every point reachable by moving
    /// one step along exactly one axis (points whose value sits at an
    /// axis edge have fewer neighbours). This is the local-mutation move
    /// set guided search expands Pareto-front members with. A point
    /// whose coordinates are not on the grid has no neighbours.
    pub fn neighbours(&self, point: &DesignPoint) -> Vec<DesignPoint> {
        let mut out = Vec::new();
        // One arm per axis keeps each move a pure single-coordinate
        // step; f64 identity is by bit pattern (the grid is finite).
        macro_rules! axis_steps {
            ($axis:expr, $field:ident, $eq:expr) => {
                if let Some(i) = $axis.iter().position($eq) {
                    for j in [i.wrapping_sub(1), i + 1] {
                        if let Some(v) = $axis.get(j) {
                            out.push(DesignPoint {
                                $field: v.clone(),
                                ..point.clone()
                            });
                        }
                    }
                }
            };
        }
        axis_steps!(self.cycles, cycles, |v| *v == point.cycles);
        axis_steps!(self.pndcs, pndc, |v: &f64| v.to_bits()
            == point.pndc.to_bits());
        axis_steps!(self.geometries, geometry, |v| *v == point.geometry);
        axis_steps!(self.policies, policy, |v| *v == point.policy);
        axis_steps!(self.scrubs, scrub, |v| *v == point.scrub);
        axis_steps!(self.workloads, workload, |v| *v == point.workload);
        axis_steps!(self.banks, banks, |v| *v == point.banks);
        axis_steps!(self.checkpoints, checkpoint, |v| *v == point.checkpoint);
        axis_steps!(self.repairs, repair, |v| *v == point.repair);
        axis_steps!(self.fault_mixes, fault_mix, |v| *v == point.fault_mix);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cartesian_product_size_and_order_are_deterministic() {
        let space = ExplorationSpace {
            geometries: vec![RamOrganization::new(64, 8, 4)],
            cycles: vec![2, 10],
            pndcs: vec![1e-2, 1e-9],
            policies: SelectionPolicy::ALL.to_vec(),
            scrubs: vec![ScrubPolicy::Off, ScrubPolicy::SequentialSweep],
            workloads: vec!["uniform".to_owned(), "hotspot".to_owned()],
            banks: vec![1, 4],
            checkpoints: vec![0],
            repairs: vec![RepairPolicy::OFF],
            fault_mixes: vec![FaultMix::Permanent],
        };
        assert_eq!(space.len(), 64);
        let a = space.points();
        let b = space.points();
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        // Innermost axis varies fastest.
        assert_eq!(a[0].cycles, 2);
        assert_eq!(a[1].cycles, 10);
        assert_eq!(a[0].pndc, 1e-2);
        assert_eq!(a[2].pndc, 1e-9);
        // The bank axis is outermost.
        assert_eq!(a[0].banks, 1);
        assert_eq!(a[32].banks, 4);
    }

    fn wide_space() -> ExplorationSpace {
        ExplorationSpace {
            geometries: vec![
                RamOrganization::new(64, 8, 4),
                RamOrganization::new(256, 8, 4),
                RamOrganization::with_mux8(1024, 16),
            ],
            cycles: vec![2, 5, 10, 20],
            pndcs: vec![1e-2, 1e-5, 1e-9],
            policies: SelectionPolicy::ALL.to_vec(),
            scrubs: vec![ScrubPolicy::Off, ScrubPolicy::SequentialSweep],
            workloads: vec!["uniform".to_owned(), "hotspot".to_owned()],
            banks: vec![1, 2],
            checkpoints: vec![0, 64],
            repairs: vec![RepairPolicy::OFF],
            fault_mixes: vec![FaultMix::Permanent, FaultMix::Transient],
        }
    }

    #[test]
    fn point_at_matches_the_enumeration() {
        let space = wide_space();
        let all = space.points();
        assert_eq!(all.len(), space.len());
        for (i, p) in all.iter().enumerate() {
            assert_eq!(&space.point_at(i), p, "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn point_at_rejects_out_of_range_indices() {
        let space = wide_space();
        space.point_at(space.len());
    }

    #[test]
    fn stratified_sample_is_pure_distinct_and_axis_covering() {
        let space = wide_space();
        let sample = space.sample_stratified(96, 0xABCD);
        assert_eq!(sample.len(), 96);
        assert_eq!(sample, space.sample_stratified(96, 0xABCD), "seed-pure");
        assert_ne!(
            sample,
            space.sample_stratified(96, 0xABCE),
            "seed-sensitive"
        );
        let labels: std::collections::HashSet<String> = sample.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 96, "points are distinct");
        // 96 draws over a 4-value axis must hit every value; same for
        // every other axis (stratification, not luck).
        for &c in &space.cycles {
            assert!(sample.iter().any(|p| p.cycles == c), "cycles {c} missed");
        }
        for g in &space.geometries {
            assert!(sample.iter().any(|p| p.geometry == *g));
        }
        for w in &space.workloads {
            assert!(sample.iter().any(|p| p.workload == *w));
        }
        assert!(sample.iter().any(|p| p.fault_mix == FaultMix::Transient));
    }

    #[test]
    fn oversized_sample_is_the_whole_space() {
        let space = wide_space();
        assert_eq!(space.sample_stratified(space.len() + 5, 1), space.points());
        assert!(space.sample_stratified(0, 1).is_empty());
    }

    #[test]
    fn neighbours_step_one_axis_at_a_time() {
        let space = wide_space();
        let centre = space.point_at(space.len() / 2);
        let moves = space.neighbours(&centre);
        assert!(!moves.is_empty());
        for n in &moves {
            let differs = [
                n.geometry != centre.geometry,
                n.cycles != centre.cycles,
                n.pndc.to_bits() != centre.pndc.to_bits(),
                n.policy != centre.policy,
                n.scrub != centre.scrub,
                n.workload != centre.workload,
                n.banks != centre.banks,
                n.checkpoint != centre.checkpoint,
                n.repair != centre.repair,
                n.fault_mix != centre.fault_mix,
            ]
            .into_iter()
            .filter(|&d| d)
            .count();
            assert_eq!(differs, 1, "{} vs {}", n.label(), centre.label());
        }
        // A corner point still has a neighbour along every multi-value
        // axis, just one instead of two.
        let corner = space.point_at(0);
        assert!(space.neighbours(&corner).len() >= 9);
        // Off-grid points have no moves.
        let mut alien = centre.clone();
        alien.cycles = 999;
        assert!(space
            .neighbours(&alien)
            .iter()
            .all(|n| n.cycles == 999 || space.cycles.contains(&n.cycles)));
    }

    #[test]
    fn parse_roundtrips() {
        for scrub in [ScrubPolicy::Off, ScrubPolicy::SequentialSweep] {
            assert_eq!(ScrubPolicy::parse(scrub.name()), Some(scrub));
        }
        assert_eq!(ScrubPolicy::parse("nope"), None);
        for policy in SelectionPolicy::ALL {
            assert_eq!(SelectionPolicy::parse(policy.name()), Some(policy));
        }
    }

    #[test]
    fn labels_are_readable() {
        let p = DesignPoint::paper(
            RamOrganization::with_mux8(1024, 16),
            10,
            1e-9,
            SelectionPolicy::InverseA,
        );
        assert_eq!(p.label(), "16x1K/c=10/1e-9/inverse-a/off/uniform");
    }

    #[test]
    fn system_axes_extend_the_label_only_when_set() {
        let mut p = DesignPoint::paper(
            RamOrganization::with_mux8(1024, 16),
            10,
            1e-9,
            SelectionPolicy::InverseA,
        );
        p.banks = 4;
        p.checkpoint = 64;
        assert_eq!(p.label(), "16x1K/c=10/1e-9/inverse-a/off/uniform/x4b/ck64");
        p.checkpoint = 0;
        assert_eq!(p.label(), "16x1K/c=10/1e-9/inverse-a/off/uniform/x4b");
        p.repair = RepairPolicy {
            spare_rows: 2,
            diag_period: 512,
        };
        assert_eq!(
            p.label(),
            "16x1K/c=10/1e-9/inverse-a/off/uniform/x4b/sp2+dg512"
        );
    }

    #[test]
    fn repair_axis_multiplies_the_space_and_sits_outermost() {
        let space = ExplorationSpace {
            geometries: vec![RamOrganization::new(64, 8, 4)],
            cycles: vec![2, 10],
            pndcs: vec![1e-2],
            policies: vec![SelectionPolicy::WorstBlockExact],
            scrubs: vec![ScrubPolicy::Off],
            workloads: vec!["uniform".to_owned()],
            banks: vec![1],
            checkpoints: vec![0],
            repairs: vec![
                RepairPolicy::OFF,
                RepairPolicy {
                    spare_rows: 1,
                    diag_period: 256,
                },
            ],
            fault_mixes: vec![FaultMix::Permanent],
        };
        assert_eq!(space.len(), 4);
        let points = space.points();
        assert!(!points[0].repair.enabled());
        assert!(!points[1].repair.enabled());
        assert!(points[2].repair.enabled());
        assert_eq!(points[3].repair.spare_rows, 1);
    }
}
