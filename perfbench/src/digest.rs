//! FNV-1a 64-bit digests: the identity of a pass's result and of a
//! workload's generated inputs.

/// Streaming FNV-1a (64-bit).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorb bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Absorb a string plus a terminator, so `("ab", "c")` and
    /// `("a", "bc")` digest differently.
    pub fn text(&mut self, text: &str) -> &mut Self {
        self.bytes(text.as_bytes()).bytes(&[0xFF])
    }

    /// Absorb an integer (little-endian).
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one string.
pub fn of_text(text: &str) -> u64 {
    Fnv::default().text(text).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(Fnv::default().bytes(b"").finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(
            Fnv::default().text("ab").text("c").finish(),
            Fnv::default().text("a").text("bc").finish()
        );
    }
}
