//! Seed derivation and content hashing — the one copy every layer
//! shares (sweep cell seeds, search/plan probe seeds and fingerprints,
//! serve structure keys and drift factors, the packet simulator's trace
//! hash).
//!
//! Everything here is a pure function of its arguments with a fixed,
//! documented bit pattern: determinism pins across the workspace compare
//! these outputs bit for bit, so none of the constants may change.

/// The splitmix64 finaliser: a bijective avalanche mix of one word.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix a `domain` tag and two grid coordinates into a master seed, so
/// every per-cell / per-move / per-probe RNG is a function of the spec
/// and its coordinates — never of scheduling or evaluation order.
///
/// `derive_seed(x, 1, 0, 0)` is exactly one splitmix64 step of `x`.
pub fn derive_seed(base: u64, domain: u64, a: usize, b: usize) -> u64 {
    mix64(
        base.wrapping_add(domain.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((a as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((b as u64).wrapping_mul(0x94D0_49BB_1331_11EB)),
    )
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Running 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold a byte string in.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold one word in, as its eight little-endian bytes; returns
    /// `self` so a fixed-arity record chains (`h.write_u64(a).write_u64(b)`).
    #[inline]
    pub fn write_u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv1a::default();
            h.write_bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
        let mut words = Fnv1a::default();
        words.write_u64(0x0807_0605_0403_0201);
        let mut bytes = Fnv1a::default();
        bytes.write_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(words, bytes);
    }

    #[test]
    fn seeds_are_splitmix64_steps_and_separate_coordinates() {
        // first output of the reference splitmix64 generator seeded 0
        assert_eq!(derive_seed(0, 1, 0, 0), 0xE220_A839_7B1D_CDAF);
        let seeds = [
            derive_seed(7, 1, 0, 0),
            derive_seed(7, 2, 0, 0),
            derive_seed(7, 1, 1, 0),
            derive_seed(7, 1, 0, 1),
        ];
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
