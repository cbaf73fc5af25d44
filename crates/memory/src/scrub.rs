//! Deterministic scrubbing: turning the paper's probabilistic latency bound
//! into a hard one.
//!
//! The paper's `Pndc` is probabilistic because mission addresses are
//! uncontrolled. A background **scrubber** that injects one read per scrub
//! slot, sweeping a chosen address sequence, makes detection deterministic:
//!
//! * every stuck-at-0 decoder fault is caught by the sweep step that
//!   addresses the stuck line (≤ one full sweep);
//! * a stuck-at-1 fault on line `m1` is caught by the first swept address
//!   whose field differs from `m1` **and** maps to a different codeword —
//!   which exists iff the fault is detectable at all.
//!
//! [`worst_case_sweep_latency`] computes, per fault, the exact worst-case
//! number of scrub steps to detection over all sweep phases, giving the
//! hard bound a safety case can cite alongside the probabilistic one;
//! [`sweep_bound`] gives the same worst cases over a whole decoder fault
//! universe without visiting the sweep once per fault.

use crate::decoder_unit::DecoderFault;
use scm_codes::CodewordMap;

/// Outcome of the deterministic sweep analysis for one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepLatency {
    /// Detected within the given number of scrub steps, worst case over
    /// all starting phases of the sweep.
    Within(u64),
    /// No swept address can ever detect the fault (codeword-colliding
    /// stuck-at-1): scrubbing does not help.
    Never,
}

/// Exact worst-case scrub-steps-to-detection for a decoder fault under a
/// cyclic sequential sweep of all `2^n` decoder values.
///
/// The decoder has `n` input bits; the map assigns codewords to its lines.
/// `O(2^n)` per fault; [`sweep_bound`] answers the whole fault universe
/// without calling it.
pub fn worst_case_sweep_latency(n: u32, map: &CodewordMap, fault: DecoderFault) -> SweepLatency {
    let span = 1u64 << n;
    assert_eq!(map.num_lines(), span, "map does not match decoder size");
    let field_mask = ((1u64 << fault.bits) - 1) << fault.offset;
    let stuck_field = fault.value << fault.offset;
    let gap = if fault.stuck_one {
        // Two lines: v and companion; detected iff codewords differ.
        longest_cyclic_run(span, |v| {
            let companion = (v & !field_mask) | stuck_field;
            companion == v || map.same_codeword(v, companion)
        })
    } else {
        // All-zero collapse when the field matches: always detected.
        longest_cyclic_run(span, |v| v & field_mask != stuck_field)
    };
    // Worst case over phases = the longest non-detecting run plus one
    // (the detecting step itself).
    gap.map_or(SweepLatency::Never, |gap| SweepLatency::Within(gap + 1))
}

/// The longest run of consecutive `non_detecting` values in the cyclic
/// order `0, 1, …, span − 1, 0, …`, in one allocation-free pass: the run
/// that wraps is the trailing run joined to the leading one. `None` when
/// every value is non-detecting (the run never ends).
fn longest_cyclic_run(span: u64, non_detecting: impl Fn(u64) -> bool) -> Option<u64> {
    let mut leading = None;
    let mut longest = 0u64;
    let mut current = 0u64;
    for v in 0..span {
        if non_detecting(v) {
            current += 1;
        } else {
            match leading {
                None => leading = Some(current),
                Some(_) => longest = longest.max(current),
            }
            current = 0;
        }
    }
    leading.map(|leading| longest.max(leading + current))
}

/// The hard bound over an entire decoder fault universe: the maximum
/// [`SweepLatency::Within`] per polarity over detectable faults, and the
/// count of undetectable ones.
///
/// The split matters: a stuck-at-0 on a last-level line is only observable
/// on the one address selecting it, so its hard bound is a full sweep
/// (`2^n` steps) by nature; stuck-at-1 faults are caught much faster
/// because *almost every* swept address pairs detectably with the stuck
/// line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepBound {
    /// Worst-case steps over all detectable faults (both polarities).
    pub worst_steps: u64,
    /// Worst-case steps over stuck-at-0 faults.
    pub worst_sa0: u64,
    /// Worst-case steps over detectable stuck-at-1 faults.
    pub worst_sa1: u64,
    /// Faults no sweep step can catch.
    pub undetectable: usize,
    /// Faults analysed.
    pub total: usize,
}

/// Analyse all faults of a multilevel decoder under a sequential sweep.
///
/// Equal to folding [`worst_case_sweep_latency`] over every fault of the
/// universe, without paying `O(2^n)` per fault:
///
/// * **stuck-at-0** detection depends only on the field, so a fault on
///   block `(bits, offset)` is `Within(2^(offset+bits) − 2^offset + 1)`
///   whatever the value and the map;
/// * **stuck-at-1 on the last level** (`bits = n`) pairs every swept line
///   with the stuck one, so its non-detecting set is the stuck line's
///   rank class; the worst class run is the longest cyclic run of equal
///   consecutive ranks, and a single class covering every line makes all
///   `2^n` of them undetectable;
/// * **stuck-at-1 on an inner block** scans a rank table built once per
///   map, `O(2^n)` per value.
///
/// Total `O(2^n · Σ 2^bits)` over the inner blocks, instead of the
/// `O(4^n)` of the per-fault fold (whose last level alone holds `2^n`
/// values).
pub fn sweep_bound(n: u32, map: &CodewordMap) -> SweepBound {
    let span = 1u64 << n;
    assert_eq!(map.num_lines(), span, "map does not match decoder size");
    let ranks: Vec<u128> = (0..span).map(|v| map.rank_for(v)).collect();
    let mut worst_sa0 = 0u64;
    let mut worst_sa1 = 0u64;
    let mut undetectable = 0usize;
    let mut total = 0usize;
    let mut sa1 = |gap: Option<u64>, faults: usize| match gap {
        Some(gap) => worst_sa1 = worst_sa1.max(gap + 1),
        None => undetectable += faults,
    };
    for (bits, offset) in crate::decoder_unit::multilevel_blocks(n) {
        let values = 1u64 << bits;
        total += 2 * values as usize;
        worst_sa0 = worst_sa0.max((1u64 << (offset + bits)) - (1u64 << offset) + 1);
        if bits == n {
            // A run of `k` equal-rank links is a class run of `k + 1` lines.
            let links = longest_cyclic_run(span, |v| {
                ranks[v as usize] == ranks[((v + 1) % span) as usize]
            });
            sa1(links.map(|k| k + 1), values as usize);
            continue;
        }
        let field_mask = (values - 1) << offset;
        for value in 0..values {
            let stuck_field = value << offset;
            // A line that is its own companion has an equal rank too.
            sa1(
                longest_cyclic_run(span, |v| {
                    let companion = (v & !field_mask) | stuck_field;
                    ranks[v as usize] == ranks[companion as usize]
                }),
                1,
            );
        }
    }
    SweepBound {
        worst_steps: worst_sa0.max(worst_sa1),
        worst_sa0,
        worst_sa1,
        undetectable,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::decoder_fault_universe;
    use proptest::prelude::*;
    use scm_codes::MOutOfN;

    fn map(a: u64, n: u32) -> CodewordMap {
        CodewordMap::mod_a(MOutOfN::new(3, 5).unwrap(), a, 1u64 << n).unwrap()
    }

    /// The definition [`sweep_bound`] must reproduce: the per-fault
    /// query folded over the whole decoder fault universe.
    fn per_fault_fold(n: u32, map: &CodewordMap) -> SweepBound {
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

    /// `(q, r)` codes whose counts (3, 10, 35, 70, 252, 924) put odd
    /// moduli both below and at/above every line count up to 2^9, with
    /// (`a < C(q,r)`) and without (`a = C(q,r)`) the completion fix.
    const CODES: [(u32, u32); 6] = [(2, 3), (3, 5), (3, 7), (4, 8), (5, 10), (6, 12)];

    /// A `mod a` map into `CODES[code]` for every valid odd modulus
    /// below the line count (`below_lines`) or at/above it, ascending.
    fn mod_a_maps(n: u32, code: usize, below_lines: bool) -> Vec<CodewordMap> {
        let lines = 1u64 << n;
        let (q, r) = CODES[code];
        let code = MOutOfN::new(q, r).unwrap();
        let count = code.count() as u64;
        let moduli = if below_lines {
            3..=count.min(lines - 1)
        } else {
            lines.max(3)..=count
        };
        moduli
            .filter(|a| a % 2 == 1)
            .map(|a| CodewordMap::mod_a(code, a, lines).unwrap())
            .collect()
    }

    #[test]
    fn cyclic_run_kernel_matches_double_traversal() {
        // The pre-kernel formulation: traverse the cyclic order twice so
        // the wrapping run is seen whole.
        fn double_traversal(pattern: &[bool]) -> Option<u64> {
            if pattern.iter().all(|&nd| nd) {
                return None;
            }
            let (mut longest, mut current) = (0u64, 0u64);
            for &nd in pattern.iter().chain(pattern) {
                if nd {
                    current += 1;
                } else {
                    longest = longest.max(current);
                    current = 0;
                }
            }
            Some(longest)
        }
        for len in 1..=10u32 {
            for bits in 0..(1u64 << len) {
                let pattern: Vec<bool> = (0..len).map(|i| bits >> i & 1 == 1).collect();
                assert_eq!(
                    longest_cyclic_run(len as u64, |v| pattern[v as usize]),
                    double_traversal(&pattern),
                    "{pattern:?}"
                );
            }
        }
    }

    #[test]
    fn sweep_bound_equals_per_fault_fold_on_every_map_family() {
        for n in 1..=9u32 {
            let lines = 1u64 << n;
            let mut maps = vec![
                CodewordMap::input_parity(lines),
                CodewordMap::berger(n, lines).unwrap(),
                CodewordMap::identity_mofn(lines).unwrap(),
            ];
            for code in 0..CODES.len() {
                // The largest odd modulus below the line count (`C(q,r)`
                // or `C(q,r) − 1`: without and with the completion fix)
                // and the smallest at or above it.
                maps.extend(mod_a_maps(n, code, true).pop());
                maps.extend(mod_a_maps(n, code, false).into_iter().next());
            }
            // Every line aliased onto one codeword: all SA1s are blind.
            let collapsed =
                (0..lines).try_fold(CodewordMap::input_parity(lines), |m, v| m.with_remap(v, 0));
            maps.push(collapsed.unwrap());
            for m in &maps {
                assert_eq!(sweep_bound(n, m), per_fault_fold(n, m), "n = {n}, {m:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn prop_sweep_bound_equals_per_fault_fold(
            n in 1u32..=9,
            family in 0usize..5,
            code in 0usize..CODES.len(),
            pick in any::<u64>(),
            remaps in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u32..2), 0..4),
        ) {
            let lines = 1u64 << n;
            let pick_mod_a = |below_lines| {
                let mut maps = mod_a_maps(n, code, below_lines);
                let len = maps.len() as u64;
                (len > 0).then(|| maps.swap_remove((pick % len) as usize))
            };
            let base = match family {
                0 => pick_mod_a(true),
                1 => pick_mod_a(false),
                2 => Some(CodewordMap::input_parity(lines)),
                3 => Some(CodewordMap::identity_mofn(lines).unwrap()),
                _ => Some(CodewordMap::berger(n, lines).unwrap()),
            };
            prop_assume!(base.is_some());
            let mut m = base.unwrap();
            // Berger codewords are computed from the address: no remaps.
            if family != 4 {
                for (address, other, spare) in remaps {
                    // Either alias another line's rank or take an unused one.
                    let rank = match (spare, m.spare_rank()) {
                        (1, Some(rank)) => rank,
                        _ => m.rank_for(other % lines),
                    };
                    m = m.with_remap(address % lines, rank).unwrap();
                }
            }
            prop_assert_eq!(sweep_bound(n, &m), per_fault_fold(n, &m));
        }
    }

    #[test]
    fn sa0_latency_bounded_by_field_period() {
        // SA0 on a 2-bit block at offset 1 of a 5-bit decoder: the field
        // repeats every 8 values; worst phase waits just under one period.
        let m = map(9, 5);
        let fault = DecoderFault {
            bits: 2,
            offset: 1,
            value: 3,
            stuck_one: false,
        };
        match worst_case_sweep_latency(5, &m, fault) {
            SweepLatency::Within(steps) => assert!(steps <= 8, "steps {steps}"),
            SweepLatency::Never => panic!("SA0 is always detectable"),
        }
    }

    #[test]
    fn identity_mapping_detects_every_sa1_in_one_sweep() {
        let m = CodewordMap::identity_mofn(32).unwrap();
        let bound = sweep_bound(5, &m);
        assert_eq!(bound.undetectable, 0);
        assert!(bound.worst_steps <= 32);
        // The SA1 hard bound is governed by the top-bit 0-level block: the
        // sweep spends 2^(n-1) consecutive steps inside the stuck half
        // (no error at all there), then detects immediately: 2^4 + 1.
        assert_eq!(bound.worst_sa1, 17);
    }

    #[test]
    fn colliding_sa1_is_never_caught_by_scrubbing() {
        // With a = 9 over 16 lines, lines 1 and 10 share a codeword; the
        // SA1 on the *full-block* line 1 errs only when 10 is addressed —
        // undetectable, sweep or not.
        let m = map(9, 4);
        let fault = DecoderFault {
            bits: 4,
            offset: 0,
            value: 1,
            stuck_one: true,
        };
        // Not Never: other swept addresses (2..=8, 11..) also pair with 1
        // and differ in codeword! Companion for v: (v & !mask)|1·… — the
        // whole address is the field here, so companion is always line 1:
        // v = 10 collides, every other v ≠ 1 detects. So Within(...).
        match worst_case_sweep_latency(4, &m, fault) {
            SweepLatency::Within(steps) => assert!(steps <= 3, "steps {steps}"),
            SweepLatency::Never => panic!("only one colliding partner among 15"),
        }
        // A genuinely undetectable case needs *every* companion pair to
        // collide: even modulus at offset ≥ v2(a). a = 9 is odd, so build
        // the pathological even case explicitly.
        let bad = CodewordMap::mod_a(MOutOfN::new(3, 5).unwrap(), 9, 16).unwrap();
        let _ = bad; // the odd case has no Never faults:
        let bound = sweep_bound(4, &m);
        assert_eq!(
            bound.undetectable, 0,
            "odd a: every fault detectable under sweep"
        );
    }

    #[test]
    fn scrub_bound_is_small_relative_to_address_space() {
        // The hard bound for a 6-bit decoder with a = 9: every detectable
        // fault is caught within a handful of steps, far below 2^6.
        let m = map(9, 6);
        let bound = sweep_bound(6, &m);
        assert_eq!(bound.undetectable, 0);
        // SA0 on a last-level line is observable on exactly one address:
        // the hard bound is one full sweep.
        assert_eq!(bound.worst_sa0, 64);
        // The SA1 hard bound is the top-bit block's half-sweep dead zone
        // (2^5 error-free steps) plus the detecting step.
        assert_eq!(bound.worst_sa1, 33);
    }

    #[test]
    fn degenerate_one_bit_decoder_two_rows() {
        // The smallest legal decoder: n = 1 (a 2-row array, or the
        // column decoder of a small mux). Both SA0s are caught within
        // the 2-step sweep; both SA1s pair the two lines, whose
        // codewords differ under any sane 2-line map.
        let m = CodewordMap::mod_a(MOutOfN::new(3, 5).unwrap(), 3, 2).unwrap();
        let bound = sweep_bound(1, &m);
        assert_eq!(
            bound.total, 4,
            "one 1-bit block, two values, two polarities"
        );
        assert_eq!(bound.undetectable, 0);
        assert!(bound.worst_sa0 <= 2, "{bound:?}");
        assert!(bound.worst_sa1 <= 2, "{bound:?}");
        assert!(bound.worst_steps <= 2);
    }

    #[test]
    fn degenerate_single_column_parity_map() {
        // The single-column-select shape: a 1-bit decoder under the
        // 1-out-of-2 input-parity map (what a mux-2 column path uses).
        // Addresses 0 and 1 differ in parity, so every fault is caught
        // within one full sweep of the 2-entry space.
        let m = CodewordMap::input_parity(2);
        let bound = sweep_bound(1, &m);
        assert_eq!(bound.undetectable, 0);
        assert_eq!(bound.worst_sa0, 2, "SA0 needs the full (2-step) sweep");
        assert!(bound.worst_sa1 <= 2);
    }

    #[test]
    fn all_undetectable_map_reports_never_not_a_bogus_bound() {
        // A deliberately broken map — both lines re-mapped onto one
        // codeword via the generalised remap machinery — makes every
        // stuck-at-1 pairing collide: the sweep must report them as
        // undetectable rather than fabricating a finite bound, while
        // stuck-at-0 collapses (all-ones ROM word) stay catchable.
        let m = CodewordMap::mod_a(MOutOfN::new(3, 5).unwrap(), 3, 2)
            .unwrap()
            .with_remap(1, 0)
            .unwrap();
        assert!(m.same_codeword(0, 1), "the map must actually collide");
        for value in 0..2u64 {
            let fault = DecoderFault {
                bits: 1,
                offset: 0,
                value,
                stuck_one: true,
            };
            assert_eq!(
                worst_case_sweep_latency(1, &m, fault),
                SweepLatency::Never,
                "colliding SA1 on value {value}"
            );
        }
        let bound = sweep_bound(1, &m);
        assert_eq!(bound.undetectable, 2, "exactly the two SA1s are blind");
        assert_eq!(bound.worst_sa1, 0, "no detectable SA1 exists");
        assert_eq!(bound.worst_sa0, 2);
    }

    #[test]
    fn parity_mapping_under_sweep() {
        // 1-out-of-2 with the parity mapping: consecutive addresses differ
        // in parity, so every SA1 with a non-degenerate companion is caught
        // within ~2 steps.
        let m = CodewordMap::input_parity(64);
        let bound = sweep_bound(6, &m);
        assert_eq!(bound.undetectable, 0);
        assert_eq!(bound.worst_sa0, 64, "full-block SA0 needs the whole sweep");
        // Same top-bit dead-zone structure as the mod-a case.
        assert_eq!(bound.worst_sa1, 33);
    }
}
