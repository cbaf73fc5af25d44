//! RAM organization and base area.
//!
//! The memory of Figure 2: `2^p` rows by `m·2^s` physical columns, with a
//! `2^s`-to-1 column MUX in front of the `m`-bit data register (`n = p + s`
//! address bits). The base area is the cell array plus periphery
//! proportional to the array edges — row drivers on one side, column
//! circuitry (precharge, sense, MUX) on the other. That two-term model is
//! what makes the paper's three RAM sizes fit a single parameter set (see
//! DESIGN.md §6).

use crate::tech::TechnologyParams;

/// Physical organization of a RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RamOrganization {
    words: u64,
    word_bits: u32,
    mux_factor: u32,
}

impl RamOrganization {
    /// Create an organization.
    ///
    /// # Panics
    /// Panics unless `words` and `mux_factor` are powers of two,
    /// `mux_factor < words` (the row decoder needs at least one address
    /// bit), and `word_bits ≥ 1`.
    pub fn new(words: u64, word_bits: u32, mux_factor: u32) -> Self {
        Self::try_new(words, word_bits, mux_factor).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) for untrusted dimensions: the broken rule as
    /// an error instead of a panic.
    pub fn try_new(words: u64, word_bits: u32, mux_factor: u32) -> Result<Self, &'static str> {
        if !words.is_power_of_two() {
            return Err("word count must be a power of two");
        }
        if !mux_factor.is_power_of_two() {
            return Err("mux factor must be a power of two");
        }
        if mux_factor as u64 >= words {
            return Err("mux factor exceeds word count (need at least two rows)");
        }
        if word_bits == 0 {
            return Err("word width must be at least 1");
        }
        Ok(RamOrganization {
            words,
            word_bits,
            mux_factor,
        })
    }

    /// The paper's style: 1-out-of-8 column multiplexing.
    pub fn with_mux8(words: u64, word_bits: u32) -> Self {
        Self::new(words, word_bits, 8)
    }

    /// Number of addressable words.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Word width `m` in bits.
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Column multiplexing factor `2^s`.
    pub fn mux_factor(&self) -> u32 {
        self.mux_factor
    }

    /// Physical columns of the cell array: `(m + 1) · 2^s` — every word
    /// bit plus the parity bit, each fanned over the column mux. The one
    /// formula every cell-coordinate universe (array construction, cell
    /// fault universes, SEU targeting) must agree on.
    pub fn physical_cols(&self) -> u32 {
        (self.word_bits + 1) * self.mux_factor
    }

    /// Column-decoder address bits `s`.
    pub fn col_bits(&self) -> u32 {
        self.mux_factor.trailing_zeros()
    }

    /// Row-decoder address bits `p = n − s`.
    pub fn row_bits(&self) -> u32 {
        self.address_bits() - self.col_bits()
    }

    /// Total address bits `n`.
    pub fn address_bits(&self) -> u32 {
        self.words.trailing_zeros()
    }

    /// Physical rows, `2^p`.
    pub fn rows(&self) -> u64 {
        1u64 << self.row_bits()
    }

    /// Physical columns, `m·2^s`.
    pub fn cols(&self) -> u64 {
        self.word_bits as u64 * self.mux_factor as u64
    }

    /// Storage capacity in bits.
    pub fn bits(&self) -> u64 {
        self.words * self.word_bits as u64
    }

    /// Short name like `16x2K`.
    pub fn name(&self) -> String {
        let words = if self.words.is_multiple_of(1024) {
            format!("{}K", self.words / 1024)
        } else {
            self.words.to_string()
        };
        format!("{}x{}", self.word_bits, words)
    }
}

/// Base RAM area breakdown (normalised RAM-cell units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RamArea {
    /// Cell-array area (= capacity in bits × cell area).
    pub cell_array: f64,
    /// Edge periphery (row drivers + column circuitry).
    pub periphery: f64,
}

impl RamArea {
    /// Total base area.
    pub fn total(&self) -> f64 {
        self.cell_array + self.periphery
    }
}

/// Compute the base area of an organization under a technology.
pub fn ram_area(org: RamOrganization, tech: &TechnologyParams) -> RamArea {
    RamArea {
        cell_array: org.bits() as f64 * tech.ram_cell_area,
        periphery: (org.rows() + org.cols()) as f64 * tech.periphery_per_line,
    }
}

/// The three embedded RAMs of the paper's evaluation, in table order:
/// 16×2K, 32×4K, 64×8K, all with 1-out-of-8 column multiplexing.
pub fn paper_rams() -> [RamOrganization; 3] {
    [
        RamOrganization::with_mux8(2048, 16),
        RamOrganization::with_mux8(4096, 32),
        RamOrganization::with_mux8(8192, 64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ram_organizations() {
        let [a, b, c] = paper_rams();
        assert_eq!((a.row_bits(), a.col_bits()), (8, 3));
        assert_eq!((a.rows(), a.cols()), (256, 128));
        assert_eq!((b.row_bits(), b.col_bits()), (9, 3));
        assert_eq!((b.rows(), b.cols()), (512, 256));
        assert_eq!((c.row_bits(), c.col_bits()), (10, 3));
        assert_eq!((c.rows(), c.cols()), (1024, 512));
        assert_eq!(a.bits(), 32768);
        assert_eq!(b.bits(), 131072);
        assert_eq!(c.bits(), 524288);
        assert_eq!(a.name(), "16x2K");
        assert_eq!(c.name(), "64x8K");
    }

    #[test]
    fn paper_example_1k16_organization() {
        // Section IV: 1K words × 16 bits, 1-out-of-8 mux → p = 7, s = 3.
        let org = RamOrganization::with_mux8(1024, 16);
        assert_eq!(org.row_bits(), 7);
        assert_eq!(org.col_bits(), 3);
        assert_eq!(org.address_bits(), 10);
        assert_eq!(org.rows(), 128);
        assert_eq!(org.cols(), 128); // square array
    }

    #[test]
    fn area_matches_calibration_anchor() {
        // 16×2K under the calibrated model: 32768 + 26.8·384 = 43059.2.
        let area = ram_area(paper_rams()[0], &TechnologyParams::default());
        assert!((area.total() - 43059.2).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_words_rejected() {
        let _ = RamOrganization::new(1000, 16, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn mux_larger_than_words_rejected() {
        let _ = RamOrganization::new(4, 16, 8);
    }
}
