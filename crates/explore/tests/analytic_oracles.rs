//! The explorer's analytic stage against its definitions, over the
//! million-point grid's own inputs: code selection against the budget
//! predicate it minimises, and the scrub sweep bound against the
//! per-fault sweep query folded over the whole decoder fault universe.

use std::collections::BTreeSet;

use scm_codes::selection::{
    inverse_a_escape, select_code, worst_block_escape, CodePlan, LatencyBudget, SelectionPolicy,
};
use scm_explore::ExplorationSpace;
use scm_memory::campaign::decoder_fault_universe;
use scm_memory::scrub::{sweep_bound, worst_case_sweep_latency, SweepBound, SweepLatency};

/// Every `(c, Pndc, policy)` budget of the million grid with its plan.
fn million_grid_plans() -> Vec<(LatencyBudget, SelectionPolicy, Option<CodePlan>)> {
    let space = ExplorationSpace::million_grid();
    let mut plans = Vec::new();
    for &c in &space.cycles {
        for &pndc in &space.pndcs {
            for &policy in &space.policies {
                let budget = LatencyBudget::new(c, pndc).unwrap();
                plans.push((budget, policy, select_code(budget, policy).ok()));
            }
        }
    }
    plans
}

/// The `InverseA` modulus search as it stood before bisection: the
/// log-space estimate, then one-at-a-time descent. Slow wherever the
/// log tolerance spans many moduli (`c = 1` at tiny `Pndc`).
fn linear_inverse_a_search(budget: LatencyBudget) -> Option<u64> {
    let target = (-budget.pndc().ln()) / budget.cycles() as f64;
    let mut a = (target.exp().ceil() as u64).max(2);
    while a > 2 && budget.met_by(inverse_a_escape(a - 1)) {
        a -= 1;
    }
    while !budget.met_by(inverse_a_escape(a)) {
        a = a.checked_add(a.max(1) / 8 + 1)?;
    }
    while a > 2 && budget.met_by(inverse_a_escape(a - 1)) {
        a -= 1;
    }
    Some(a)
}

#[test]
fn selection_is_minimal_on_every_million_grid_budget() {
    let plans = million_grid_plans();
    assert_eq!(plans.len(), 50 * 24 * 2);
    let mut compared = 0;
    for (budget, policy, plan) in &plans {
        let escape = |a: u64| match policy {
            SelectionPolicy::InverseA => inverse_a_escape(a),
            SelectionPolicy::WorstBlockExact => worst_block_escape(a),
        };
        let (c, pndc) = (budget.cycles(), budget.pndc());
        if let Some(plan) = plan {
            let a = plan.a_search();
            assert!(budget.met_by(escape(a)), "{policy:?} c={c} Pndc={pndc}");
            assert!(
                a == 2 || !budget.met_by(escape(a - 1)),
                "{policy:?} c={c} Pndc={pndc}: a_search {a} not minimal"
            );
        }
        if *policy == SelectionPolicy::InverseA && (c >= 2 || pndc >= 1e-16) {
            let plan = plan.as_ref().expect("fast budgets fit an r ≤ 64 code");
            assert_eq!(
                Some(plan.a_search()),
                linear_inverse_a_search(*budget),
                "c={c} Pndc={pndc}"
            );
            compared += 1;
        }
    }
    assert!(
        compared > 1100,
        "linear search compared on {compared} budgets"
    );
}

/// The per-fault definition the sweep bound must reproduce exactly.
fn per_fault_fold(n: u32, map: &scm_codes::CodewordMap) -> SweepBound {
    let mut bound = SweepBound {
        worst_steps: 0,
        worst_sa0: 0,
        worst_sa1: 0,
        undetectable: 0,
        total: 0,
    };
    for fault in decoder_fault_universe(n) {
        bound.total += 1;
        match worst_case_sweep_latency(n, map, fault) {
            SweepLatency::Within(steps) => {
                bound.worst_steps = bound.worst_steps.max(steps);
                if fault.stuck_one {
                    bound.worst_sa1 = bound.worst_sa1.max(steps);
                } else {
                    bound.worst_sa0 = bound.worst_sa0.max(steps);
                }
            }
            SweepLatency::Never => bound.undetectable += 1,
        }
    }
    bound
}

/// The explorer's scrub memo keys `(rows, r, a)` over the million grid,
/// each with a plan that maps it, restricted to `rows` in `range`.
fn million_grid_scrub_keys(range: std::ops::RangeInclusive<u64>) -> Vec<(u64, u32, CodePlan)> {
    let space = ExplorationSpace::million_grid();
    let rows: BTreeSet<u64> = space.geometries.iter().map(|g| g.rows()).collect();
    let mut seen = BTreeSet::new();
    let mut keys = Vec::new();
    for (_, _, plan) in million_grid_plans() {
        let Some(plan) = plan else { continue };
        for &rows in rows.iter().filter(|r| range.contains(r)) {
            if seen.insert((rows, plan.r(), plan.a())) {
                keys.push((rows, rows.trailing_zeros(), plan.clone()));
            }
        }
    }
    keys
}

#[test]
fn sweep_bound_is_exact_on_every_small_million_grid_key() {
    let keys = million_grid_scrub_keys(1..=256);
    assert!(keys.len() > 40, "only {} keys", keys.len());
    for (rows, n, plan) in keys {
        let map = plan.mapping(rows).unwrap();
        assert_eq!(
            sweep_bound(n, &map),
            per_fault_fold(n, &map),
            "rows {rows}, {}",
            plan.code_name()
        );
    }
}

#[test]
#[ignore = "O(4^n) oracle at n = 11: run under --release with --include-ignored"]
fn sweep_bound_is_exact_on_largest_million_grid_keys() {
    let keys = million_grid_scrub_keys(2048..=2048);
    // The parity map, the paper's 3-out-of-5 / a = 9 and the strongest
    // code the grid selects.
    let picks = [
        keys.iter().find(|(_, _, p)| p.a() == 2),
        keys.iter().find(|(_, _, p)| p.a() == 9),
        keys.iter().max_by_key(|(_, _, p)| p.a()),
    ];
    for (rows, n, plan) in picks.into_iter().map(Option::unwrap) {
        assert_eq!(*n, 11);
        let map = plan.mapping(*rows).unwrap();
        assert_eq!(
            sweep_bound(*n, &map),
            per_fault_fold(*n, &map),
            "{}",
            plan.code_name()
        );
    }
}
