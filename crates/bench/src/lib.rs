//! Shared experiment drivers for the reproduction harness.
//!
//! Every table and figure of the paper has a runnable regeneration target.
//! The table/Pareto/ablation/exploration drivers live behind one `scm`
//! binary ([`cli`]), whose subcommands are thin wrappers over the
//! `scm-explore` evaluation engine:
//!
//! | Experiment | Command | perfbench workload |
//! |---|---|---|
//! | Table 1 (`c` sweep at `Pndc = 1e-9`) | `scm table1` | — |
//! | Table 2 (`Pndc` sweep at `c = 10`) | `scm table2` | — |
//! | Area-vs-latency trade-off (title figure) | `scm pareto` | — |
//! | Design-choice ablations | `scm ablations` | — |
//! | Free design-space exploration | `scm explore` | `guided-million` (`--guided`) |
//! | Fault campaign under a chosen workload | `scm campaign` | `campaign-mix`, `campaign-observed` (`--metrics`) |
//! | §II safety example | `section2_safety` binary | — |
//! | §IV worked example | `section4_example` binary | — |
//! | Monte-Carlo validation of the bound | `montecarlo_validation` binary | — |
//!
//! The drivers print the paper's published values side by side with the
//! regenerated ones and flag deviations; EXPERIMENTS.md records the full
//! comparison, and `tests/cli_fixtures.rs` pins the table/Pareto stdout
//! byte-for-byte. Speed is measured by `perfbench/` (its own package; see
//! its README), which drives the named workloads through the same library
//! entry points the subcommands call.

#![forbid(unsafe_code)]

pub mod cli;

use scm_area::ram_area::paper_rams;
use scm_area::tables::{percents_for_width, PaperRow, TableRow, PAPER_TABLE1, PAPER_TABLE2};
use scm_area::TechnologyParams;
use scm_codes::selection::SelectionPolicy;
use scm_explore::Evaluator;

/// Regenerate published table rows through the exploration evaluator — the
/// same engine every `scm` subcommand drives. Produces exactly the rows of
/// `scm_area::tables::table1_rows`/`table2_rows` (selection and area are
/// the same pure functions, reached through the memoised pipeline).
pub fn rows_via_explore(
    paper: &[PaperRow],
    policy: SelectionPolicy,
    tech: &TechnologyParams,
) -> Vec<TableRow> {
    let evaluator = Evaluator::new(*tech);
    let budgets: Vec<(u32, f64)> = paper.iter().map(|r| (r.c, r.pndc)).collect();
    let slices = evaluator
        .table_slice(&paper_rams(), &budgets, policy)
        .expect("published parameters are feasible");
    paper
        .iter()
        .zip(slices)
        .map(|(row, evals)| TableRow {
            c: row.c,
            pndc: row.pndc,
            plan: evals[0].plan.clone(),
            percents: [
                evals[0].area_percent(),
                evals[1].area_percent(),
                evals[2].area_percent(),
            ],
            paper: *row,
        })
        .collect()
}

/// Render one regenerated table (1 or 2) with paper-vs-ours annotations —
/// the formatting shared by `scm table1` and `scm table2`.
pub fn render_table(rows: &[TableRow], tech: &TechnologyParams, sweep_label: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{sweep_label:>8} | {:<12} | {:<12} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} | match\n",
        "paper code", "our code", "16x2K", "32x4K", "64x8K", "p16x2K", "p32x4K", "p64x8K"
    ));
    out.push_str(&"-".repeat(110));
    out.push('\n');
    for row in rows {
        let sweep = if sweep_label.contains("Pndc") {
            format!("{:.0e}", row.pndc)
        } else {
            row.c.to_string()
        };
        let ours_at_paper_width = percents_for_width(row.paper.r, tech);
        let mark = if row.code_matches_paper() {
            "yes"
        } else if row.plan.r() < row.paper.r {
            "CHEAPER"
        } else {
            "WIDER"
        };
        out.push_str(&format!(
            "{sweep:>8} | {:<12} | {:<12} | {:>7.2} {:>7.2} {:>7.2} | {:>7.2} {:>7.2} {:>7.2} | {mark}\n",
            row.paper.code,
            row.plan.code_name(),
            ours_at_paper_width[0],
            ours_at_paper_width[1],
            ours_at_paper_width[2],
            row.paper.percents[0],
            row.paper.percents[1],
            row.paper.percents[2],
        ));
    }
    out
}

/// Regenerate and render Table 1 under both policies.
pub fn table1_report() -> String {
    let tech = TechnologyParams::default();
    let mut out = String::new();
    out.push_str("Table 1 — Pndc = 1e-9, c swept (percent HW increase; 'p' columns = paper)\n\n");
    for policy in SelectionPolicy::ALL {
        out.push_str(&format!("policy: {}\n", policy.name()));
        let rows = rows_via_explore(&PAPER_TABLE1, policy, &tech);
        out.push_str(&render_table(&rows, &tech, "c"));
        out.push('\n');
    }
    out
}

/// Regenerate and render Table 2 under both policies.
pub fn table2_report() -> String {
    let tech = TechnologyParams::default();
    let mut out = String::new();
    out.push_str("Table 2 — c = 10, Pndc swept (percent HW increase; 'p' columns = paper)\n\n");
    for policy in SelectionPolicy::ALL {
        out.push_str(&format!("policy: {}\n", policy.name()));
        let rows = rows_via_explore(&PAPER_TABLE2, policy, &tech);
        out.push_str(&render_table(&rows, &tech, "Pndc"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scm_area::tables::{table1_rows, table2_rows};

    #[test]
    fn reports_render() {
        let t1 = table1_report();
        assert!(t1.contains("9-out-of-18"));
        assert!(t1.contains("1-out-of-2"));
        let t2 = table2_report();
        assert!(t2.contains("7-out-of-13"));
        assert!(t2.contains("inverse-a"));
    }

    #[test]
    fn explore_rows_equal_direct_table_rows() {
        // The refactor's invariant: routing through the exploration engine
        // changes nothing about the regenerated cells.
        let tech = TechnologyParams::default();
        for policy in SelectionPolicy::ALL {
            for (paper, direct) in [
                (&PAPER_TABLE1[..], table1_rows(policy, &tech).unwrap()),
                (&PAPER_TABLE2[..], table2_rows(policy, &tech).unwrap()),
            ] {
                let via_explore = rows_via_explore(paper, policy, &tech);
                assert_eq!(via_explore.len(), direct.len());
                for (a, b) in via_explore.iter().zip(&direct) {
                    assert_eq!(a.plan, b.plan, "{policy:?} c={} pndc={}", a.c, a.pndc);
                    assert_eq!(a.percents, b.percents, "{policy:?} c={}", a.c);
                }
            }
        }
    }
}
