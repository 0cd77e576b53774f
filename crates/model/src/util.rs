//! Small deterministic helpers shared across the workspace: the
//! SplitMix64 stream behind every seeded fault, adversary and workload
//! draw, FNV-1a digests for pinning results bitwise, and the string
//! escaping of the hand-written JSON exports.

/// SplitMix64 (Steele, Lea, Flood 2014): a tiny, fast, seedable 64-bit
/// stream. The state starts at `seed ^ γ` (γ the golden-ratio increment).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed ^ GOLDEN_GAMMA)
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next draw reduced modulo `bound` (0 when `bound` is 0).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    /// The next draw as a uniform `f64` in `[0, 1)` (its top 53 bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An FNV-1a digest. [`Fnv1a::word`] folds a whole 64-bit word per step
/// and [`Fnv1a::bytes`] one byte per step; the two give different values
/// for the same data, and pinned digests use one or the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Folds one whole 64-bit word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
    }

    /// Folds `bytes` one byte at a time.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(u64::from(b));
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Word-wise FNV-1a of a word sequence.
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::default();
    words.into_iter().for_each(|w| h.word(w));
    h.finish()
}

/// Byte-wise FNV-1a of a byte string.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(bytes);
    h.finish()
}

/// Escapes `s` for use inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_stream() {
        // First outputs of SplitMix64 from state 0 (seed = γ).
        let mut rng = SplitMix64::new(GOLDEN_GAMMA);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let f = SplitMix64::new(7).next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn fnv_variants_match_reference_values() {
        assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        // Word-wise folds the whole word at once: differs from folding
        // its little-endian bytes.
        assert_eq!(fnv1a_words([u64::from(b'a')]), fnv1a_bytes(b"a"));
        let mut bytewise = Fnv1a::default();
        bytewise.bytes(&0x0102u64.to_le_bytes());
        assert_ne!(fnv1a_words([0x0102]), bytewise.finish());
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
