//! The paper's central algorithm (Section III.2): from a tolerated detection
//! latency to the cheapest unordered code.
//!
//! # The model
//!
//! A stuck-at-1 fault inside a decoding block that decodes `i` address bits
//! causes, on an erroneous cycle, *two* decoder lines to fire whose addresses
//! differ only in those `i` bits (arithmetic values `m1` — the stuck line's
//! value — and `m2` — the applied value). With the `B = A mod a` mapping the
//! error escapes the cycle iff `m1 ≡ m2 (mod a)` (the two lines share a
//! codeword). Under uniformly random addresses the per-cycle non-detection
//! probability of the *worst* fault is
//!
//! ```text
//! P_nd(1 cycle) = ⌈2^i / a⌉ / 2^i      for the smallest i with 2^i > a
//! ```
//!
//! (blocks with `2^i ≤ a` never escape: distinct `m1, m2 < 2^i ≤ a` cannot be
//! congruent mod `a`). After `c` independent cycles, `Pndc = P_nd^c`.
//!
//! # The two policies
//!
//! The paper *derives* the exact `⌈2^i/a⌉/2^i` bound but *states* the
//! approximation `P_nd ≈ 1/a` alongside it, and its two result tables are
//! not mutually consistent about which one generated them (Table 2 matches
//! `1/a` on all six rows; Table 1's `c = 20` row requires the exact bound;
//! two further Table 1 rows — `c = 5` and `c = 30` — are satisfied by
//! strictly cheaper codes under **either** formula). We therefore implement
//! both as [`SelectionPolicy`] variants and let the benchmarks print both
//! next to the paper's reported codes. EXPERIMENTS.md tabulates the deltas.
//!
//! # From `a` to the code
//!
//! The minimal modulus from the search is made odd (`a ← a + 1` when even —
//! even moduli collapse detection for sub-blocks at bit offsets `j ≥ 1`
//! because `gcd(2^j, a) > 1`), except `a = 2`, which selects the special
//! 1-out-of-2 scheme with the decoder-input-parity mapping. Then the centred
//! `q`-out-of-`r` code with minimal `r` and `C(q,r) ≥ a` is chosen, and the
//! final modulus is `C(q,r)` if odd, else `C(q,r) − 1`.

use crate::binom::smallest_central_width;
use crate::mapping::CodewordMap;
use crate::mofn::MOutOfN;
use crate::CodeError;

/// Absolute tolerance in log-probability space when comparing
/// `c · ln(escape) ≤ ln(Pndc)`; absorbs `f64` rounding at exact boundaries
/// such as `(1/1000)^10` vs `1e-30`.
const LN_TOL: f64 = 1e-9;

/// Which per-cycle escape-probability formula drives the search for the
/// minimal modulus `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionPolicy {
    /// The paper's exact worst-block bound `⌈2^i/a⌉ / 2^i` with
    /// `i = min{i : 2^i > a}`. Conservative: never under-protects.
    WorstBlockExact,
    /// The paper's stated approximation `1/a` (reproduces Table 2 exactly).
    InverseA,
}

impl SelectionPolicy {
    /// All policies, for sweeps.
    pub const ALL: [SelectionPolicy; 2] =
        [SelectionPolicy::WorstBlockExact, SelectionPolicy::InverseA];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SelectionPolicy::WorstBlockExact => "worst-block-exact",
            SelectionPolicy::InverseA => "inverse-a",
        }
    }

    /// Inverse of [`name`](Self::name), for CLI/config parsing.
    pub fn parse(name: &str) -> Option<SelectionPolicy> {
        SelectionPolicy::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// A detection-latency requirement: the fault must be detected within
/// `cycles` clock cycles except with probability at most `pndc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBudget {
    cycles: u32,
    pndc: f64,
}

impl LatencyBudget {
    /// Create a budget of `cycles` clock cycles with escape probability
    /// `pndc`.
    ///
    /// # Errors
    /// [`CodeError::InvalidBudget`] unless `cycles ≥ 1` and `0 < pndc < 1`.
    pub fn new(cycles: u32, pndc: f64) -> Result<Self, CodeError> {
        if cycles == 0 || !(pndc > 0.0 && pndc < 1.0) {
            return Err(CodeError::InvalidBudget { cycles, pndc });
        }
        Ok(LatencyBudget { cycles, pndc })
    }

    /// Tolerated detection latency in clock cycles (`c`).
    pub fn cycles(&self) -> u32 {
        self.cycles
    }

    /// Tolerated escape probability after `c` cycles (`Pndc`).
    pub fn pndc(&self) -> f64 {
        self.pndc
    }

    /// Does a per-cycle escape probability `escape` satisfy this budget?
    /// Compares in log space with a small tolerance.
    pub fn met_by(&self, escape: f64) -> bool {
        if escape <= 0.0 {
            return true;
        }
        if escape >= 1.0 {
            return false;
        }
        (self.cycles as f64) * escape.ln() <= self.pndc.ln() + LN_TOL
    }
}

/// Per-cycle worst-fault escape probability of the `mod a` mapping under the
/// exact worst-block bound: `⌈2^i/a⌉ / 2^i` for the smallest `i` with
/// `2^i > a`.
///
/// # Panics
/// Panics if `a == 0`.
pub fn worst_block_escape(a: u64) -> f64 {
    assert!(a > 0, "modulus must be positive");
    if a == 1 {
        return 1.0; // single codeword: nothing is ever detected
    }
    let i = 64 - a.leading_zeros(); // smallest i with 2^i > a (a < 2^i ≤ 2a)
    debug_assert!((1u128 << i) > a as u128 && (1u128 << (i - 1)) <= a as u128);
    let pow = 1u128 << i;
    let k = pow.div_ceil(a as u128);
    k as f64 / pow as f64
}

/// Per-cycle escape probability under the paper's `≈ 1/a` approximation.
///
/// # Panics
/// Panics if `a == 0`.
pub fn inverse_a_escape(a: u64) -> f64 {
    assert!(a > 0, "modulus must be positive");
    1.0 / a as f64
}

/// Per-cycle escape probability of a modulus under a policy.
pub fn escape_per_cycle(a: u64, policy: SelectionPolicy) -> f64 {
    match policy {
        SelectionPolicy::WorstBlockExact => worst_block_escape(a),
        SelectionPolicy::InverseA => inverse_a_escape(a),
    }
}

/// The scheme a selection produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectedScheme {
    /// The 1-out-of-2 code with the decoder-input-parity mapping
    /// (\[CHE 85\]/\[NIC 84b\] endpoint: cheapest hardware, longest latency).
    OneOutOfTwo,
    /// A `q`-out-of-`r` code with the `B = A mod a` mapping.
    QOutOfR {
        /// The chosen constant-weight code.
        code: MOutOfN,
        /// The final odd modulus (`C(q,r)` or `C(q,r) − 1`).
        a: u64,
    },
}

/// Result of the code-selection algorithm: everything the rest of the system
/// needs to build the ROMs, size the hardware and state the guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct CodePlan {
    budget: LatencyBudget,
    policy: SelectionPolicy,
    a_search: u64,
    a_required: u64,
    scheme: SelectedScheme,
}

impl CodePlan {
    /// The budget this plan was derived from.
    pub fn budget(&self) -> LatencyBudget {
        self.budget
    }

    /// The policy that drove the search.
    pub fn policy(&self) -> SelectionPolicy {
        self.policy
    }

    /// The raw minimal modulus found by the search (the paper's "a = 8" in
    /// the worked example), before the odd adjustment.
    pub fn a_search(&self) -> u64 {
        self.a_search
    }

    /// The odd-adjusted modulus the code had to accommodate (the paper's
    /// "8 + 1 = 9").
    pub fn a_required(&self) -> u64 {
        self.a_required
    }

    /// The selected scheme.
    pub fn scheme(&self) -> &SelectedScheme {
        &self.scheme
    }

    /// The final modulus actually used by the mapping (2 for 1-out-of-2).
    pub fn a(&self) -> u64 {
        match &self.scheme {
            SelectedScheme::OneOutOfTwo => 2,
            SelectedScheme::QOutOfR { a, .. } => *a,
        }
    }

    /// Codeword width `r` — this is what the hardware cost scales with.
    pub fn r(&self) -> u32 {
        match &self.scheme {
            SelectedScheme::OneOutOfTwo => 2,
            SelectedScheme::QOutOfR { code, .. } => code.width_u32(),
        }
    }

    /// Codeword weight `q`.
    pub fn q(&self) -> u32 {
        match &self.scheme {
            SelectedScheme::OneOutOfTwo => 1,
            SelectedScheme::QOutOfR { code, .. } => code.weight(),
        }
    }

    /// Code name, e.g. `"3-out-of-5"`.
    pub fn code_name(&self) -> String {
        match &self.scheme {
            SelectedScheme::OneOutOfTwo => "1-out-of-2".to_owned(),
            SelectedScheme::QOutOfR { code, .. } => crate::Code::name(code),
        }
    }

    /// Guaranteed per-cycle worst-fault escape probability of the final
    /// scheme, evaluated under this plan's policy with the *final* modulus.
    pub fn escape_per_cycle(&self) -> f64 {
        match &self.scheme {
            // Parity mapping: exactly 1/2 per cycle for every block with
            // i ≥ 2 decoded inputs (both policies agree here).
            SelectedScheme::OneOutOfTwo => 0.5,
            SelectedScheme::QOutOfR { a, .. } => escape_per_cycle(*a, self.policy),
        }
    }

    /// The analytical `Pndc` this plan guarantees after `cycles` cycles.
    pub fn pndc_after(&self, cycles: u32) -> f64 {
        self.escape_per_cycle().powi(cycles as i32)
    }

    /// Build the address → codeword mapping for a decoder with `num_lines`
    /// outputs.
    ///
    /// # Errors
    /// Propagates mapping construction errors (e.g. modulus larger than the
    /// code — impossible for plans produced by [`select_code`]).
    pub fn mapping(&self, num_lines: u64) -> Result<CodewordMap, CodeError> {
        match &self.scheme {
            SelectedScheme::OneOutOfTwo => Ok(CodewordMap::input_parity(num_lines)),
            SelectedScheme::QOutOfR { code, a } => CodewordMap::mod_a(*code, *a, num_lines),
        }
    }
}

/// Find the minimal modulus `a ≥ 2` whose per-cycle escape satisfies the
/// budget under `policy`. Returns the raw (not yet odd-adjusted) value.
fn minimal_modulus(budget: LatencyBudget, policy: SelectionPolicy) -> Option<u64> {
    match policy {
        SelectionPolicy::InverseA => {
            // `met(a)` is monotone in `a` (1/a only falls): find the least
            // `a ≥ 2` meeting the budget by growing the log-space estimate
            // a ≥ Pndc^(-1/c) geometrically until met, then bisecting,
            // O(log a) checks. Near the u64 ceiling the 1e-9 log tolerance
            // spans ~1e10 consecutive moduli, so unit steps cost minutes.
            let met = |a: u64| budget.met_by(inverse_a_escape(a));
            let target = (-budget.pndc().ln()) / budget.cycles() as f64;
            let mut hi = (target.exp().ceil() as u64).max(2);
            // Greatest modulus known to miss the budget (a = 1 never
            // meets one: its escape is 1).
            let mut lo = 1;
            while !met(hi) {
                lo = hi;
                hi = hi.checked_add(hi / 8 + 1)?; // geometric-ish fixup
            }
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if met(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            Some(hi)
        }
        SelectionPolicy::WorstBlockExact => {
            // escape(a) = 2^(1-i) with i = ⌈log2(a+1)⌉; minimal a for level i
            // is 2^(i-1). Find the smallest i ≥ 2 meeting the budget.
            for i in 2u32..=120 {
                let ln_escape = (1.0 - i as f64) * std::f64::consts::LN_2;
                if (budget.cycles() as f64) * ln_escape <= budget.pndc().ln() + LN_TOL {
                    if i > 64 {
                        return None; // modulus would overflow u64
                    }
                    return Some(1u64 << (i - 1));
                }
            }
            None
        }
    }
}

/// The paper's Section III.2 algorithm: select the cheapest scheme meeting a
/// latency budget under the given policy.
///
/// # Errors
/// [`CodeError::CodeTooLarge`] if the required modulus exceeds every
/// `q`-out-of-`r` code with `r ≤ 64` (or overflows `u64`).
///
/// # Example
///
/// Table 2 of the paper (`c = 10`), reproduced by the `InverseA` policy:
///
/// ```
/// use scm_codes::selection::*;
/// let rows = [(1e-2, "1-out-of-2"), (1e-5, "2-out-of-4"), (1e-9, "3-out-of-5"),
///             (1e-15, "4-out-of-7"), (1e-20, "5-out-of-9"), (1e-30, "7-out-of-13")];
/// for (pndc, expected) in rows {
///     let plan = select_code(LatencyBudget::new(10, pndc)?, SelectionPolicy::InverseA)?;
///     assert_eq!(plan.code_name(), expected);
/// }
/// # Ok::<(), scm_codes::CodeError>(())
/// ```
pub fn select_code(budget: LatencyBudget, policy: SelectionPolicy) -> Result<CodePlan, CodeError> {
    let a_search = minimal_modulus(budget, policy).ok_or(CodeError::CodeTooLarge {
        required: u128::MAX,
    })?;

    if a_search <= 2 {
        return Ok(CodePlan {
            budget,
            policy,
            a_search,
            a_required: 2,
            scheme: SelectedScheme::OneOutOfTwo,
        });
    }

    // Odd adjustment ("if the value of a found as above is even, this value
    // is increased by 1").
    let a_required = if a_search % 2 == 0 {
        a_search + 1
    } else {
        a_search
    };

    let (r, count) = smallest_central_width(a_required as u128).ok_or(CodeError::CodeTooLarge {
        required: a_required as u128,
    })?;
    let code = MOutOfN::centered(r)?;
    // Final modulus: C(q,r) if odd, else C(q,r) − 1. Oddness of a_required
    // guarantees the result still covers it.
    let a_final = if count % 2 == 1 {
        count as u64
    } else {
        (count - 1) as u64
    };
    debug_assert!(a_final >= a_required);

    Ok(CodePlan {
        budget,
        policy,
        a_search,
        a_required,
        scheme: SelectedScheme::QOutOfR { code, a: a_final },
    })
}

/// The \[NIC 94\] zero-latency endpoint: the smallest centred code giving
/// every one of `num_lines` decoder outputs a distinct codeword.
///
/// # Errors
/// [`CodeError::CodeTooLarge`] if `num_lines > C(32, 64)`.
pub fn zero_latency_code(num_lines: u64) -> Result<MOutOfN, CodeError> {
    let (r, _count) = smallest_central_width(num_lines as u128).ok_or(CodeError::CodeTooLarge {
        required: num_lines as u128,
    })?;
    MOutOfN::centered(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(c: u32, pndc: f64, policy: SelectionPolicy) -> CodePlan {
        select_code(LatencyBudget::new(c, pndc).unwrap(), policy).unwrap()
    }

    #[test]
    fn budget_validation() {
        assert!(LatencyBudget::new(0, 0.5).is_err());
        assert!(LatencyBudget::new(1, 0.0).is_err());
        assert!(LatencyBudget::new(1, 1.0).is_err());
        assert!(LatencyBudget::new(1, f64::NAN).is_err());
        assert!(LatencyBudget::new(10, 1e-9).is_ok());
    }

    #[test]
    fn worked_example_section_3_2() {
        // "if we need to detect the faults within c = 10 clock cycles with an
        //  escape probability Pndc = 10^-9 or less we find a = 8 and the code
        //  satisfying C ≥ 8+1 is the 3-out-of-5 code having C = 10. The value
        //  of a used in B = A.mod(a) will be 10 - 1 = 9."
        let p = plan(10, 1e-9, SelectionPolicy::WorstBlockExact);
        assert_eq!(p.a_search(), 8);
        assert_eq!(p.a_required(), 9);
        assert_eq!(p.code_name(), "3-out-of-5");
        assert_eq!(p.a(), 9);
    }

    #[test]
    fn table2_inverse_a_reproduces_paper_exactly() {
        let rows: [(f64, &str, u64); 6] = [
            (1e-2, "1-out-of-2", 2),
            (1e-5, "2-out-of-4", 5),
            (1e-9, "3-out-of-5", 9),
            (1e-15, "4-out-of-7", 35),
            (1e-20, "5-out-of-9", 125),
            (1e-30, "7-out-of-13", 1715),
        ];
        for (pndc, name, a) in rows {
            let p = plan(10, pndc, SelectionPolicy::InverseA);
            assert_eq!(p.code_name(), name, "Pndc = {pndc}");
            assert_eq!(p.a(), a, "Pndc = {pndc}");
        }
    }

    #[test]
    fn table2_worst_block_matches_five_of_six() {
        // The exact policy agrees with the paper except at Pndc = 1e-20,
        // where the worst-block bound demands 5-out-of-10 (see DESIGN.md §5).
        let rows: [(f64, &str); 6] = [
            (1e-2, "1-out-of-2"),
            (1e-5, "2-out-of-4"),
            (1e-9, "3-out-of-5"),
            (1e-15, "4-out-of-7"),
            (1e-20, "5-out-of-10"),
            (1e-30, "7-out-of-13"),
        ];
        for (pndc, name) in rows {
            let p = plan(10, pndc, SelectionPolicy::WorstBlockExact);
            assert_eq!(p.code_name(), name, "Pndc = {pndc}");
        }
    }

    #[test]
    fn table1_worst_block_policy() {
        // Paper's Table 1 codes: c = {2,5,10,20,30,40} →
        // {9/18, 5/9, 3/5, 2/4, 2/3, 1/2}. The exact policy reproduces four
        // rows; c = 5 and c = 30 admit cheaper codes (see DESIGN.md §5).
        let rows: [(u32, &str); 6] = [
            (2, "9-out-of-18"),
            (5, "4-out-of-8"), // paper: 5-out-of-9 (over-provisioned)
            (10, "3-out-of-5"),
            (20, "2-out-of-4"),
            (30, "1-out-of-2"), // paper: 2-out-of-3 (over-provisioned)
            (40, "1-out-of-2"),
        ];
        for (c, name) in rows {
            let p = plan(c, 1e-9, SelectionPolicy::WorstBlockExact);
            assert_eq!(p.code_name(), name, "c = {c}");
        }
    }

    #[test]
    fn plans_always_meet_their_budget_analytically() {
        let mut feasible = 0u32;
        for c in [1u32, 2, 3, 5, 8, 10, 16, 20, 30, 40, 64, 100] {
            for pndc in [1e-1, 1e-2, 1e-3, 1e-5, 1e-9, 1e-12, 1e-15, 1e-20, 1e-30] {
                for policy in SelectionPolicy::ALL {
                    let budget = LatencyBudget::new(c, pndc).unwrap();
                    // Extreme single-cycle budgets (e.g. c = 1, Pndc = 1e-30)
                    // legitimately exceed every r ≤ 64 code.
                    let Ok(p) = select_code(budget, policy) else {
                        assert!(c <= 2, "unexpected infeasibility at c={c} pndc={pndc}");
                        continue;
                    };
                    feasible += 1;
                    let achieved = p.pndc_after(c);
                    assert!(
                        achieved <= pndc * (1.0 + 1e-6),
                        "{policy:?} c={c} pndc={pndc}: achieved {achieved}"
                    );
                }
            }
        }
        assert!(feasible > 150, "sweep unexpectedly sparse: {feasible}");
    }

    #[test]
    fn selected_modulus_is_minimal_inverse_a() {
        // One step cheaper must violate the budget (minimality of a_search).
        for c in [2u32, 5, 10, 20, 40] {
            for pndc in [1e-2, 1e-5, 1e-9, 1e-15] {
                let budget = LatencyBudget::new(c, pndc).unwrap();
                let p = select_code(budget, SelectionPolicy::InverseA).unwrap();
                if p.a_search() > 2 {
                    assert!(
                        !budget.met_by(inverse_a_escape(p.a_search() - 1)),
                        "c={c} pndc={pndc}: a_search {} not minimal",
                        p.a_search()
                    );
                }
            }
        }
    }

    #[test]
    fn worst_block_escape_values() {
        assert_eq!(worst_block_escape(2), 0.5); // i=2: ⌈4/2⌉/4
        assert_eq!(worst_block_escape(3), 0.5); // i=2: ⌈4/3⌉/4 = 2/4
        assert_eq!(worst_block_escape(4), 0.25); // i=3: ⌈8/4⌉/8
        assert_eq!(worst_block_escape(5), 0.25); // i=3: ⌈8/5⌉/8
        assert_eq!(worst_block_escape(8), 0.125); // i=4: ⌈16/8⌉/16
        assert_eq!(worst_block_escape(9), 0.125); // i=4: ⌈16/9⌉/16
        assert_eq!(worst_block_escape(1), 1.0);
    }

    #[test]
    fn escape_monotone_nonincreasing_in_a() {
        for policy in SelectionPolicy::ALL {
            let mut prev = f64::INFINITY;
            for a in 2u64..4096 {
                let e = escape_per_cycle(a, policy);
                assert!(e <= prev + 1e-15, "{policy:?} not monotone at a={a}");
                prev = e;
            }
        }
    }

    #[test]
    fn larger_budgets_never_cost_more() {
        // More tolerated cycles → code width must not increase.
        for policy in SelectionPolicy::ALL {
            let mut prev_r = u32::MAX;
            for c in [2u32, 5, 10, 20, 30, 40, 80] {
                let p = plan(c, 1e-9, policy);
                assert!(p.r() <= prev_r, "{policy:?}: r grew at c={c}");
                prev_r = p.r();
            }
        }
        // Looser Pndc → code width must not increase.
        for policy in SelectionPolicy::ALL {
            let mut prev_r = 0u32;
            for pndc in [1e-2, 1e-5, 1e-9, 1e-15, 1e-20, 1e-30] {
                let p = plan(10, pndc, policy);
                assert!(p.r() >= prev_r, "{policy:?}: r shrank at pndc={pndc}");
                prev_r = p.r();
            }
        }
    }

    #[test]
    fn mapping_construction_from_plan() {
        let p = plan(10, 1e-9, SelectionPolicy::WorstBlockExact);
        let map = p.mapping(256).unwrap();
        assert_eq!(map.width(), 5);
        assert_eq!(map.distinct_codewords(), 10); // 9 + completion fix

        let p = plan(10, 1e-2, SelectionPolicy::InverseA);
        let map = p.mapping(256).unwrap();
        assert_eq!(map.width(), 2);
    }

    #[test]
    fn zero_latency_code_sizes() {
        assert_eq!(zero_latency_code(8).unwrap().width_u32(), 5); // C(3,5)=10 ≥ 8
        assert_eq!(zero_latency_code(256).unwrap().width_u32(), 11); // C(6,11)=462
        assert_eq!(zero_latency_code(1024).unwrap().width_u32(), 13); // C(7,13)=1716
    }

    #[test]
    fn extreme_budgets() {
        // Absurdly tight: c = 1, Pndc = 1e-15 → needs a ≈ 1e15, still fits.
        let p = plan(1, 1e-15, SelectionPolicy::InverseA);
        assert!(p.r() >= 52, "r = {}", p.r());
        // Very loose: anything detects within a million cycles at 0.9.
        let p = plan(1_000_000, 0.9, SelectionPolicy::WorstBlockExact);
        assert_eq!(p.code_name(), "1-out-of-2");
    }
}
