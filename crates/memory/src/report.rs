//! Textual campaign reports.
//!
//! Formats [`crate::campaign::CampaignResult`]s the way a verification
//! sign-off expects: per-class coverage, the worst offenders, and the
//! safety-relevant error-escape summary.

use crate::campaign::CampaignResult;
use std::fmt::Write;

/// Render a campaign summary table.
pub fn summary(result: &CampaignResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "fault-injection campaign: {} faults x {} trials x {} cycles",
        result.per_fault.len(),
        result.config.trials,
        result.config.cycles
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<14} | {:>6} | {:>12} | {:>12}",
        "class", "faults", "mean escape", "max escape"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(52)).unwrap();
    for (class, (count, mean)) in result.by_class() {
        let max = result
            .per_fault
            .iter()
            .filter(|f| f.site.class() == class)
            .map(|f| f.escape_fraction())
            .fold(0.0f64, f64::max);
        writeln!(out, "{class:<14} | {count:>6} | {mean:>12.4} | {max:>12.4}").unwrap();
    }
    writeln!(out).unwrap();
    writeln!(
        out,
        "worst Pndc-style escape:  {:.4}",
        result.worst_escape()
    )
    .unwrap();
    writeln!(
        out,
        "worst error escape:       {:.4}",
        result.worst_error_escape()
    )
    .unwrap();
    writeln!(
        out,
        "never-detected fraction:  {:.4}",
        result.never_detected_fraction()
    )
    .unwrap();
    // The temporal split only appears for mixed-process campaigns, so
    // classical permanent-only output stays byte-stable.
    let processes = result.by_process_class();
    if processes.len() > 1 {
        writeln!(out).unwrap();
        writeln!(
            out,
            "{:<14} | {:>9} | {:>9} | {:>9} | {:>12}",
            "process", "scenarios", "detected", "escaped", "onset latency"
        )
        .unwrap();
        writeln!(out, "{}", "-".repeat(66)).unwrap();
        for (class, s) in processes {
            writeln!(
                out,
                "{class:<14} | {:>9} | {:>9.4} | {:>9.4} | {:>13}",
                s.scenarios,
                s.detected_fraction(),
                s.escape_fraction(),
                s.mean_onset_latency()
                    .map(|m| format!("{m:.2}"))
                    .unwrap_or_else(|| "-".into()),
            )
            .unwrap();
        }
    }
    out
}

/// Render the `k` faults with the highest escape fractions, with their
/// mean detection cycles — the "worst offenders" list.
pub fn worst_offenders(result: &CampaignResult, k: usize) -> String {
    let mut ranked: Vec<_> = result.per_fault.iter().collect();
    ranked.sort_by(|a, b| b.escape_fraction().total_cmp(&a.escape_fraction()));
    let mut out = String::new();
    // Sized for scenario spellings: a decoder site plus a temporal tag
    // (e.g. "… stuck-at-0 [intermittent from 3, 2/8]") runs ~70 chars.
    writeln!(
        out,
        "{:<70} | {:>8} | {:>10}",
        "fault", "escape", "mean det."
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(96)).unwrap();
    for f in ranked.into_iter().take(k) {
        writeln!(
            out,
            "{:<70} | {:>8.4} | {:>10}",
            f.scenario().to_string(),
            f.escape_fraction(),
            f.mean_detection_cycle()
                .map(|m| format!("{m:.1}"))
                .unwrap_or_else(|| "-".into())
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{decoder_fault_universe, CampaignConfig};
    use crate::design::RamConfig;
    use crate::engine::CampaignEngine;
    use crate::fault::FaultSite;
    use scm_area::RamOrganization;
    use scm_codes::{CodewordMap, MOutOfN};

    fn small_result() -> CampaignResult {
        let org = RamOrganization::new(64, 8, 4);
        let code = MOutOfN::new(3, 5).unwrap();
        let cfg = RamConfig::new(
            org,
            CodewordMap::mod_a(code, 9, 16).unwrap(),
            CodewordMap::mod_a(code, 9, 4).unwrap(),
        );
        let faults: Vec<FaultSite> = decoder_fault_universe(4)
            .into_iter()
            .take(16)
            .map(FaultSite::RowDecoder)
            .collect();
        CampaignEngine::new(CampaignConfig {
            cycles: 5,
            trials: 4,
            seed: 1,
            write_fraction: 0.1,
        })
        .run(&cfg, &faults)
    }

    #[test]
    fn summary_renders_all_sections() {
        let s = summary(&small_result());
        assert!(s.contains("fault-injection campaign"));
        assert!(s.contains("row-decoder"));
        assert!(s.contains("worst error escape"));
    }

    #[test]
    fn worst_offenders_ranked_descending() {
        let result = small_result();
        let s = worst_offenders(&result, 5);
        assert!(s.lines().count() >= 3);
        // Ranking property: re-extract the escape column and check order.
        let escapes: Vec<f64> = s
            .lines()
            .skip(2)
            .filter_map(|l| l.split('|').nth(1))
            .filter_map(|c| c.trim().parse::<f64>().ok())
            .collect();
        for w in escapes.windows(2) {
            assert!(w[0] >= w[1], "not descending: {escapes:?}");
        }
    }
}
