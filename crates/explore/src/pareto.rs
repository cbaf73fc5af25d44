//! Pareto-frontier extraction over evaluated design points.
//!
//! The paper's title trade-off made first-class: the objectives are
//! **minimise area** (decoder-checking overhead %), **minimise latency**
//! (the tolerated `c`), and **minimise escape** (the achieved `Pndc`). A
//! point is on the frontier when no other evaluated point is at least as
//! good on all three and strictly better on one.
//!
//! The sharded-system view has its own frontier
//! ([`system_pareto_front`]): **minimise area**, **minimise system
//! detection latency** (mean across banks, global clock) and **minimise
//! expected lost work** — the joint objective Aupy et al. show cannot be
//! optimised one memory at a time.
//!
//! The repair view closes the loop ([`repair_pareto_front`]): **minimise
//! area including spares and the BIST controller**, **minimise mean time
//! to repair** (horizon-censored) and **minimise residual escape** (the
//! fraction of trials never even detected) — spares and diagnosis
//! sessions re-open the paper's area-versus-latency trade-off on the
//! repair axis.

use crate::evaluate::Evaluation;
use crate::space::FaultMix;

/// Objective vector of an evaluation.
fn objectives(e: &Evaluation) -> [f64; 3] {
    [e.area_percent(), e.point.cycles as f64, e.achieved_pndc]
}

/// System-view objective vector; `None` when the evaluation carries no
/// system figures.
fn system_objectives(e: &Evaluation) -> Option<[f64; 3]> {
    e.system
        .map(|s| [e.area_percent(), s.mean_latency, s.expected_lost_work])
}

/// Repair-view objective vector; `None` when the evaluation carries no
/// repair figures.
fn repair_objectives(e: &Evaluation) -> Option<[f64; 3]> {
    e.repair.map(|r| {
        [
            r.area_with_repair_percent,
            r.mean_time_to_repair,
            r.escape(),
        ]
    })
}

/// Does `a` dominate `b` (no worse everywhere, better somewhere)?
pub fn dominates(a: &Evaluation, b: &Evaluation) -> bool {
    dominates_by(objectives(a), objectives(b))
}

pub(crate) fn dominates_by(oa: [f64; 3], ob: [f64; 3]) -> bool {
    let no_worse = oa.iter().zip(&ob).all(|(x, y)| x <= y);
    let better = oa.iter().zip(&ob).any(|(x, y)| x < y);
    no_worse && better
}

/// Shared frontier extraction over an explicit objective function.
pub(crate) fn front_by(
    evaluations: &[Evaluation],
    objectives: impl Fn(&Evaluation) -> [f64; 3],
) -> Vec<Evaluation> {
    let mut front: Vec<Evaluation> = Vec::new();
    for candidate in evaluations {
        let oc = objectives(candidate);
        if front.iter().any(|kept| dominates_by(objectives(kept), oc)) {
            continue;
        }
        if front.iter().any(|kept| objectives(kept) == oc) {
            continue; // objective-identical twin already kept
        }
        front.retain(|kept| !dominates_by(oc, objectives(kept)));
        front.push(candidate.clone());
    }
    front.sort_by(|a, b| {
        objectives(a)
            .iter()
            .zip(objectives(b))
            .map(|(x, y)| x.total_cmp(&y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    front
}

/// Non-dominated subset of `evaluations`, sorted by ascending area then
/// latency then escape — a deterministic presentation order.
///
/// Duplicate objective vectors keep their first (input-order)
/// representative, so the frontier itself is deterministic too.
pub fn pareto_front(evaluations: &[Evaluation]) -> Vec<Evaluation> {
    front_by(evaluations, objectives)
}

/// Per-fault-mix frontiers over (area, latency, escape): the evaluations
/// are grouped by their point's [`FaultMix`] and a frontier extracted
/// inside each group, so a scheme that wins against permanents can be
/// compared with — but never dominates — one graded against transients.
/// The escape objective is the **empirical** mean escape when the
/// evaluation was adjudicated (the only meaningful figure for stochastic
/// mixes) and the analytic achieved `Pndc` otherwise. Groups appear in
/// [`FaultMix::ALL`] order; mixes with no evaluations are omitted.
pub fn mix_pareto_fronts(evaluations: &[Evaluation]) -> Vec<(FaultMix, Vec<Evaluation>)> {
    FaultMix::ALL
        .into_iter()
        .filter_map(|mix| {
            let group: Vec<Evaluation> = evaluations
                .iter()
                .filter(|e| e.point.fault_mix == mix)
                .cloned()
                .collect();
            if group.is_empty() {
                return None;
            }
            let front = front_by(&group, |e| {
                let escape = e
                    .empirical
                    .map(|emp| emp.mean_escape)
                    .unwrap_or(e.achieved_pndc);
                [e.area_percent(), e.point.cycles as f64, escape]
            });
            Some((mix, front))
        })
        .collect()
}

/// Non-dominated subset under the **system** objectives — (area, mean
/// system detection latency, expected lost work) — over the evaluations
/// that carry system figures. Evaluations without a system stage are
/// ignored; the result is empty when none have one.
pub fn system_pareto_front(evaluations: &[Evaluation]) -> Vec<Evaluation> {
    let with_figures: Vec<Evaluation> = evaluations
        .iter()
        .filter(|e| e.system.is_some())
        .cloned()
        .collect();
    front_by(&with_figures, |e| {
        system_objectives(e).expect("filtered to evaluations with system figures")
    })
}

/// Non-dominated subset under the **repair** objectives — (area incl.
/// spares and BIST, mean time to repair, residual escape) — over the
/// evaluations that carry repair figures. Evaluations without a repair
/// stage are ignored; the result is empty when none have one.
pub fn repair_pareto_front(evaluations: &[Evaluation]) -> Vec<Evaluation> {
    let with_figures: Vec<Evaluation> = evaluations
        .iter()
        .filter(|e| e.repair.is_some())
        .cloned()
        .collect();
    front_by(&with_figures, |e| {
        repair_objectives(e).expect("filtered to evaluations with repair figures")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::Evaluator;
    use crate::space::{ExplorationSpace, ScrubPolicy};
    use scm_area::RamOrganization;
    use scm_codes::selection::SelectionPolicy;

    fn evaluations() -> Vec<Evaluation> {
        let ev = Evaluator::default();
        let space = ExplorationSpace {
            geometries: vec![RamOrganization::with_mux8(2048, 16)],
            cycles: vec![2, 5, 10, 20, 40],
            pndcs: vec![1e-2, 1e-9, 1e-20],
            policies: vec![SelectionPolicy::WorstBlockExact],
            scrubs: vec![ScrubPolicy::Off],
            workloads: vec!["uniform".to_owned()],
            banks: vec![1],
            checkpoints: vec![0],
            repairs: vec![crate::space::RepairPolicy::OFF],
            fault_mixes: vec![FaultMix::Permanent],
        };
        ev.evaluate_space(&space)
            .into_iter()
            .filter_map(Result::ok)
            .collect()
    }

    #[test]
    fn frontier_is_mutually_non_dominated_and_sorted() {
        let evals = evaluations();
        let front = pareto_front(&evals);
        assert!(!front.is_empty() && front.len() < evals.len());
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(
                        !dominates(a, b),
                        "{} dominates {}",
                        a.point.label(),
                        b.point.label()
                    );
                }
            }
        }
        for w in front.windows(2) {
            assert!(w[0].area_percent() <= w[1].area_percent());
        }
    }

    #[test]
    fn every_dropped_point_is_dominated_or_duplicated() {
        let evals = evaluations();
        let front = pareto_front(&evals);
        for e in &evals {
            let on_front = front.iter().any(|f| objectives(f) == objectives(e));
            let dominated = front.iter().any(|f| dominates(f, e));
            assert!(
                on_front || dominated,
                "{} neither kept nor dominated",
                e.point.label()
            );
        }
    }

    #[test]
    fn repair_front_covers_exactly_the_repair_enabled_points() {
        use crate::evaluate::RepairAdjudication;
        use crate::space::RepairPolicy;
        let ev = Evaluator::default().repair_stage(RepairAdjudication {
            horizon: 1200,
            trials: 1,
            cells_per_bank: 2,
            ..RepairAdjudication::default()
        });
        let space = ExplorationSpace {
            geometries: vec![RamOrganization::new(64, 8, 4)],
            cycles: vec![10],
            pndcs: vec![1e-9],
            policies: vec![SelectionPolicy::WorstBlockExact],
            scrubs: vec![ScrubPolicy::Off],
            workloads: vec!["uniform".to_owned()],
            banks: vec![1],
            checkpoints: vec![0],
            repairs: vec![
                RepairPolicy::OFF,
                RepairPolicy {
                    spare_rows: 1,
                    diag_period: 400,
                },
                RepairPolicy {
                    spare_rows: 2,
                    diag_period: 400,
                },
            ],
            fault_mixes: vec![FaultMix::Permanent],
        };
        let evals: Vec<Evaluation> = ev
            .evaluate_space(&space)
            .into_iter()
            .filter_map(Result::ok)
            .collect();
        assert_eq!(evals.len(), 3);
        let front = repair_pareto_front(&evals);
        assert!(!front.is_empty() && front.len() <= 2, "{}", front.len());
        assert!(front.iter().all(|e| e.repair.is_some()));
        // More spares cost more area; the front keeps the cheaper policy
        // unless the extra spare buys repair latency or escape.
        for w in front.windows(2) {
            let a = w[0].repair.unwrap();
            let b = w[1].repair.unwrap();
            assert!(a.area_with_repair_percent <= b.area_with_repair_percent);
        }
    }

    #[test]
    fn mix_fronts_group_by_fault_mix_in_presentation_order() {
        use crate::evaluate::Adjudication;
        use scm_memory::campaign::CampaignConfig;
        let ev = Evaluator::default().adjudicate(Adjudication {
            campaign: CampaignConfig {
                cycles: 10,
                trials: 3,
                seed: 0xF00,
                write_fraction: 0.1,
            },
            max_faults: 8,
            ..Adjudication::default()
        });
        let space = ExplorationSpace {
            geometries: vec![RamOrganization::new(256, 8, 4)],
            cycles: vec![5, 10],
            pndcs: vec![1e-2, 1e-9],
            policies: vec![SelectionPolicy::WorstBlockExact],
            scrubs: vec![ScrubPolicy::Off],
            workloads: vec!["uniform".to_owned()],
            banks: vec![1],
            checkpoints: vec![0],
            repairs: vec![crate::space::RepairPolicy::OFF],
            fault_mixes: vec![FaultMix::Permanent, FaultMix::Transient, FaultMix::Mix],
        };
        let evals: Vec<Evaluation> = ev
            .evaluate_space(&space)
            .into_iter()
            .filter_map(Result::ok)
            .collect();
        assert_eq!(evals.len(), 12);
        let fronts = mix_pareto_fronts(&evals);
        let mixes: Vec<FaultMix> = fronts.iter().map(|(m, _)| *m).collect();
        assert_eq!(
            mixes,
            vec![FaultMix::Permanent, FaultMix::Transient, FaultMix::Mix],
            "ALL order, intermittent omitted (no evaluations)"
        );
        for (mix, front) in &fronts {
            assert!(!front.is_empty(), "{mix:?}");
            assert!(front.iter().all(|e| e.point.fault_mix == *mix));
            // Non-permanent points carry the mix in their label.
            if *mix != FaultMix::Permanent {
                assert!(front[0]
                    .point
                    .label()
                    .contains(&format!("fm={}", mix.name())));
            }
        }
    }

    #[test]
    fn tighter_latency_at_fixed_escape_never_costs_less() {
        // The paper's monotonicity, visible on the frontier: walking the
        // front from cheap to expensive, achieved escape never improves
        // for free.
        let front = pareto_front(&evaluations());
        for w in front.windows(2) {
            let cheaper = &w[0];
            let costlier = &w[1];
            assert!(
                costlier.point.cycles as f64 <= cheaper.point.cycles as f64
                    || costlier.achieved_pndc <= cheaper.achieved_pndc,
                "paying more area must buy latency or escape"
            );
        }
    }
}
