//! Canonical FNV-1a hashing for every fingerprint in the workspace.
//!
//! Two widths share one algorithm:
//!
//! * **64-bit** ([`Fnv64`], [`fnv1a_64`], [`fnv1a_64_hex`]) — the table and
//!   result fingerprints the `bench` snapshots carry (`BENCH_sweep.json`,
//!   `BENCH_sim.json`, `BENCH_meta.json`). The helper is byte-for-byte the
//!   hash the sweep snapshot has always held (same offset basis, same prime,
//!   same `{:016x}` rendering), so extracting it into this module changed no
//!   committed baseline.
//! * **128-bit** ([`Fnv128`]) — the content-addressing width of the artifact
//!   store. Store keys name artifacts on disk and must never collide across
//!   thousands of sweep cells and ingested traces; 128 bits of FNV-1a is far
//!   past birthday range for any realistic store population while staying
//!   dependency-free and platform-independent.
//!
//! Both hashers are *streaming*: state is a single integer, `write` can be
//! fed arbitrarily small slices, and the digest of a concatenation equals the
//! digest of the parts fed in order. That is what lets trace ingestion
//! fingerprint an archive file while streaming it record by record in
//! bounded memory.
//!
//! The typed helpers ([`Fnv64::write_u64`], [`Fnv128::write_i64`], …) define
//! the **canonical encoding** of scalars for key derivation: fixed-width
//! little-endian bytes, with `f64` hashed via [`f64::to_bits`] so keys are
//! exact in the same way the codec is (two configs differing only in the sign
//! of a zero hash differently — that is intended: they are different bit
//! patterns). Every multi-field key writes a `/`-separated ASCII tag first so
//! that keys of different kinds can never collide by field reshuffling.

/// The 64-bit FNV-1a offset basis.
const BASIS64: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a prime.
const PRIME64: u64 = 0x0000_0100_0000_01b3;
/// The 128-bit FNV-1a offset basis.
const BASIS128: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// The 128-bit FNV-1a prime.
const PRIME128: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A streaming 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(BASIS64)
    }
}

impl Fnv64 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME64);
        }
    }

    /// Absorb a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot 64-bit FNV-1a digest of a byte slice.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// One-shot 64-bit FNV-1a digest rendered as the canonical 16-digit lowercase
/// hex string used by `BENCH_sweep.json`.
pub fn fnv1a_64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a_64(bytes))
}

/// A streaming 128-bit FNV-1a hasher: the content-addressing hash of the
/// artifact store.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128(BASIS128)
    }
}

impl Fnv128 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv128::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(PRIME128);
        }
    }

    /// Absorb a string's UTF-8 bytes followed by a `/` separator, so adjacent
    /// variable-length fields cannot alias (`("ab","c")` vs `("a","bc")`).
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(b"/");
    }

    /// Absorb a `u32` as 4 little-endian bytes.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb an `i64` as 8 little-endian bytes.
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb an `f64` by exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

/// Render a 128-bit key as its canonical 32-digit lowercase hex file name.
pub fn key_hex(key: u128) -> String {
    format!("{key:032x}")
}

/// Parse a canonical 32-digit hex key back to its value (`None` for anything
/// that is not exactly 32 lowercase hex digits).
pub fn parse_key_hex(s: &str) -> Option<u128> {
    if s.len() != 32
        || !s
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_64_hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn fnv64_streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn fnv128_streaming_equals_one_shot_and_reference() {
        // FNV-1a 128 of "a" (reference value from the FNV spec tables).
        let mut h = Fnv128::new();
        h.write(b"a");
        let one = h.finish();
        let mut h2 = Fnv128::new();
        h2.write(b"");
        assert_eq!(h2.finish(), BASIS128);
        let mut split = Fnv128::new();
        split.write(b"");
        split.write(b"a");
        assert_eq!(split.finish(), one);
        assert_ne!(one, BASIS128);
    }

    #[test]
    fn string_separator_prevents_field_aliasing() {
        let mut a = Fnv128::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv128::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn key_hex_round_trips() {
        for key in [0u128, 1, u128::MAX, 0xdead_beef_u128 << 64 | 42] {
            assert_eq!(parse_key_hex(&key_hex(key)), Some(key));
        }
        assert_eq!(parse_key_hex("zz"), None);
        assert_eq!(parse_key_hex("00000000000000000000000000000000"), Some(0));
        assert_eq!(parse_key_hex("0000000000000000000000000000000G"), None);
    }

    #[test]
    fn f64_keys_are_bit_exact() {
        let mut a = Fnv128::new();
        a.write_f64(0.0);
        let mut b = Fnv128::new();
        b.write_f64(-0.0);
        assert_ne!(
            a.finish(),
            b.finish(),
            "distinct bit patterns, distinct keys"
        );
    }
}
