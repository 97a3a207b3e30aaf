//! Stable content fingerprinting for memoization keys.
//!
//! A [`Fingerprinter`] accumulates the configuration of a simulation run —
//! scalars, strings, raw bytes — into a 128-bit FNV-1a hash. Equal input
//! sequences always produce equal [`Fingerprint`]s, across processes and
//! across runs, because the hash depends only on the written bytes (no
//! pointer identity, no randomized hasher state).
//!
//! Components that carry *learned* state (a governor that has already taken
//! samples, a predictor with history) cannot be described by their
//! configuration alone; they call [`Fingerprinter::mark_opaque`], which
//! poisons the fingerprint so [`Fingerprinter::finish`] returns `None` and
//! callers skip memoization instead of serving a stale result.
//!
//! Writes are domain-separated: every variable-length value is
//! length-prefixed, and compound writers should prepend a short tag string
//! so that, e.g., `("ab", "c")` and `("a", "bc")` hash differently.
//!
//! ```
//! use eavs_sim::fingerprint::Fingerprinter;
//!
//! let mut a = Fingerprinter::new("example/v1");
//! a.write_str("ondemand");
//! a.write_u64(42);
//! let mut b = Fingerprinter::new("example/v1");
//! b.write_str("ondemand");
//! b.write_u64(42);
//! assert_eq!(a.finish(), b.finish());
//! assert!(a.finish().is_some());
//! ```

/// A stable 128-bit content hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Parses exactly `width` (at most 32) hex digits with no sign, prefix
/// or whitespace: the one spelling a fixed-width `{:0width$x}` writer
/// emits, so each value has exactly one accepted text. Uppercase digits
/// are accepted only with `any_case` (JSON's `\u` escapes allow both).
/// `from_str_radix` is not strict enough: it takes a leading `+`.
pub fn parse_fixed_hex(s: &str, width: usize, any_case: bool) -> Option<u128> {
    if s.len() != width || width > 32 {
        return None;
    }
    s.bytes().try_fold(0u128, |acc, b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' if any_case => b - b'A' + 10,
            _ => return None,
        };
        Some(acc << 4 | u128::from(digit))
    })
}

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Incrementally hashes configuration into a [`Fingerprint`].
#[derive(Clone, Debug)]
pub struct Fingerprinter {
    h: u128,
    opaque: bool,
}

impl Fingerprinter {
    /// Starts a fingerprint under a domain tag (e.g. `"eavs-session/v1"`).
    /// Different domains never collide by construction of the tag write.
    pub fn new(domain: &str) -> Self {
        let mut fp = Fingerprinter {
            h: FNV128_OFFSET,
            opaque: false,
        };
        fp.write_str(domain);
        fp
    }

    /// Hashes raw bytes (length-prefixed, so adjacent writes can't merge).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_raw(&(bytes.len() as u64).to_le_bytes());
        self.write_raw(bytes);
    }

    fn write_raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u128::from(b);
            self.h = self.h.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Hashes a UTF-8 string (length-prefixed).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Hashes a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_raw(&[v]);
    }

    /// Hashes a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Hashes a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Hashes a `usize` (widened to 64 bits for portability).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Hashes an `f64` by its IEEE-754 bit pattern. `NaN`s with different
    /// payloads hash differently; configuration values are never `NaN`.
    pub fn write_f64(&mut self, v: f64) {
        self.write_raw(&v.to_bits().to_le_bytes());
    }

    /// Hashes a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Hashes an optional `u64` with a presence tag.
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.write_u8(0),
            Some(x) => {
                self.write_u8(1);
                self.write_u64(x);
            }
        }
    }

    /// Declares the fingerprinted object uncacheable (e.g. it carries
    /// learned state). [`finish`](Self::finish) will return `None`.
    pub fn mark_opaque(&mut self) {
        self.opaque = true;
    }

    /// The accumulated fingerprint, or `None` if any component was opaque.
    pub fn finish(&self) -> Option<Fingerprint> {
        if self.opaque {
            None
        } else {
            Some(Fingerprint(self.h))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(build: impl FnOnce(&mut Fingerprinter)) -> Option<Fingerprint> {
        let mut f = Fingerprinter::new("test/v1");
        build(&mut f);
        f.finish()
    }

    #[test]
    fn equal_writes_equal_fingerprints() {
        let a = fp(|f| {
            f.write_str("governor");
            f.write_u64(7);
            f.write_f64(0.25);
        });
        let b = fp(|f| {
            f.write_str("governor");
            f.write_u64(7);
            f.write_f64(0.25);
        });
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    fn different_writes_differ() {
        let a = fp(|f| f.write_u64(1));
        let b = fp(|f| f.write_u64(2));
        assert_ne!(a, b);
    }

    #[test]
    fn length_prefix_prevents_boundary_merging() {
        let a = fp(|f| {
            f.write_str("ab");
            f.write_str("c");
        });
        let b = fp(|f| {
            f.write_str("a");
            f.write_str("bc");
        });
        assert_ne!(a, b);
    }

    #[test]
    fn domains_separate() {
        let a = Fingerprinter::new("x/v1").finish();
        let b = Fingerprinter::new("y/v1").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn opaque_poisons() {
        let a = fp(|f| {
            f.write_u64(1);
            f.mark_opaque();
        });
        assert_eq!(a, None);
    }

    #[test]
    fn bool_and_option_are_tagged() {
        let a = fp(|f| f.write_opt_u64(None));
        let b = fp(|f| f.write_opt_u64(Some(0)));
        assert_ne!(a, b);
        let c = fp(|f| f.write_bool(false));
        let d = fp(|f| f.write_bool(true));
        assert_ne!(c, d);
    }

    #[test]
    fn display_is_32_hex_digits() {
        let f = fp(|f| f.write_u64(9)).unwrap();
        let s = format!("{f}");
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn f64_sign_matters() {
        let a = fp(|f| f.write_f64(0.0));
        let b = fp(|f| f.write_f64(-0.0));
        assert_ne!(a, b);
    }
}
