//! The tokens the CLI spec grammars share: `--faults`, `--autoscale`,
//! `--tenants` and `--kv-budget` each build on these, so a duration, a
//! window, a band, a factor or a byte size reads the same in every flag.
//!
//! Every function here is total: malformed input is `None` (or a
//! [`SizeError`]), never a panic. The grammars name the offending entry
//! in their own error messages.

use crate::quantity::{Bytes, Seconds};

/// The entries of a comma-separated spec, trimmed, with empty entries
/// skipped.
///
/// # Examples
///
/// ```
/// use cimtpu_units::spec::entries;
/// assert_eq!(entries(" a ,, b=1 ,").collect::<Vec<_>>(), ["a", "b=1"]);
/// ```
pub fn entries(spec: &str) -> impl Iterator<Item = &str> {
    spec.split(',').map(str::trim).filter(|e| !e.is_empty())
}

/// Splits `key=value` at its first `=`.
pub fn key_value(s: &str) -> Option<(&str, &str)> {
    s.split_once('=')
}

/// Parses a duration as written in CLI specs: `150ms`, `2s`, or a bare
/// number of seconds. `None` unless the number parses and is finite and
/// non-negative.
///
/// # Examples
///
/// ```
/// use cimtpu_units::parse_time;
/// assert_eq!(parse_time("150ms").map(|t| t.get()), Some(0.15));
/// assert_eq!(parse_time("2s").map(|t| t.get()), Some(2.0));
/// assert_eq!(parse_time("0.5").map(|t| t.get()), Some(0.5));
/// assert!(parse_time("-1s").is_none() && parse_time("NaN").is_none());
/// ```
pub fn parse_time(s: &str) -> Option<Seconds> {
    let (num, scale) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1.0)
    } else {
        (s, 1.0)
    };
    let x: f64 = num.parse().ok()?;
    (x.is_finite() && x >= 0.0).then(|| Seconds::new(x * scale))
}

/// Parses a `<from>-<until>` time window (each end as [`parse_time`]).
pub fn parse_window(s: &str) -> Option<(Seconds, Seconds)> {
    let (from, until) = s.split_once('-')?;
    Some((parse_time(from)?, parse_time(until)?))
}

/// Parses a `LO..HI` integer band (edges may be padded with spaces).
pub fn parse_band(s: &str) -> Option<(u64, u64)> {
    let (lo, hi) = s.split_once("..")?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

/// Parses an `x<f>` factor. Any `f64` the standard parser accepts passes
/// (NaN, infinities and non-positive values included): whether a factor
/// makes sense is the grammar's call.
pub fn parse_factor(s: &str) -> Option<f64> {
    s.strip_prefix('x')?.parse().ok()
}

/// Why [`parse_bytes`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeError {
    /// A `-` sign: the count is negative.
    Negative,
    /// The count, or the count times its suffix, exceeds `u64` bytes.
    Overflow,
    /// Anything else: not a byte count with a known suffix.
    Malformed,
}

/// Parses `<n>[KiB|MiB|GiB|TiB]` as a byte size: a `u64` count with an
/// optional binary suffix, case-insensitive, spaces around either part
/// ignored.
///
/// # Errors
///
/// Returns [`SizeError::Negative`] for a negative count,
/// [`SizeError::Overflow`] when the size does not fit in `u64` bytes, and
/// [`SizeError::Malformed`] for anything else.
///
/// # Examples
///
/// ```
/// use cimtpu_units::spec::{parse_bytes, SizeError};
/// assert_eq!(parse_bytes("2KiB").map(|b| b.get()), Ok(2048));
/// assert_eq!(parse_bytes("-1mib"), Err(SizeError::Negative));
/// assert_eq!(parse_bytes("1PiB"), Err(SizeError::Malformed));
/// ```
pub fn parse_bytes(s: &str) -> Result<Bytes, SizeError> {
    let lower = s.trim().to_ascii_lowercase();
    let suffixes = [("tib", 40), ("gib", 30), ("mib", 20), ("kib", 10)];
    let (digits, shift) = suffixes
        .iter()
        .find_map(|&(suffix, shift)| Some((lower.strip_suffix(suffix)?, shift)))
        .unwrap_or((&lower, 0));
    let digits = digits.trim();
    if digits.starts_with('-') {
        return Err(SizeError::Negative);
    }
    let n: u64 = digits
        .parse()
        .map_err(|e: std::num::ParseIntError| match e.kind() {
            std::num::IntErrorKind::PosOverflow => SizeError::Overflow,
            _ => SizeError::Malformed,
        })?;
    let bytes = n
        .checked_shl(shift)
        .filter(|b| b >> shift == n)
        .ok_or(SizeError::Overflow)?;
    Ok(Bytes::new(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_time_reads_ms_s_and_bare_seconds() {
        let secs = |s: &str| parse_time(s).map(Seconds::get);
        assert_eq!(secs("150ms"), Some(0.15));
        assert_eq!(secs("2.5ms"), Some(2.5e-3));
        assert_eq!(secs("2s"), Some(2.0));
        assert_eq!(secs("3.5s"), Some(3.5));
        assert_eq!(secs("4"), Some(4.0));
        assert_eq!(secs("0"), Some(0.0));
        for bad in [
            "NaN", "NaNs", "inf", "infms", "-inf", "-1", "-2s", "-0.5ms", "", "s", "ms", "1h",
            "1 s",
        ] {
            assert_eq!(secs(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn windows_bands_and_factors() {
        let window = |s| parse_window(s).map(|(a, b)| (a.get(), b.get()));
        assert_eq!(window("1s-3s"), Some((1.0, 3.0)));
        assert_eq!(window("0-250ms"), Some((0.0, 0.25)));
        for bad in ["1s", "1s-", "-1s", "1s-x", "1e-3-2"] {
            assert_eq!(window(bad), None, "{bad:?}");
        }
        assert_eq!(parse_band("0..4"), Some((0, 4)));
        assert_eq!(parse_band(" 1 .. 6 "), Some((1, 6)));
        for bad in ["4", "4..x", "..2", "-1..2"] {
            assert_eq!(parse_band(bad), None, "{bad:?}");
        }
        assert_eq!(parse_factor("x4"), Some(4.0));
        assert_eq!(parse_factor("x0.1"), Some(0.1));
        for bad in ["4", "x", "xfast", "X4"] {
            assert_eq!(parse_factor(bad), None, "{bad:?}");
        }
        assert_eq!(key_value("a=b=c"), Some(("a", "b=c")));
        assert_eq!(key_value("swap"), None);
    }

    #[test]
    fn byte_sizes() {
        let bytes = |s: &str| parse_bytes(s).map(Bytes::get);
        assert_eq!(bytes("65536"), Ok(65536));
        assert_eq!(bytes(" 1GiB "), Ok(1 << 30));
        assert_eq!(bytes("2 tib"), Ok(2 << 40));
        assert_eq!(bytes("-3"), Err(SizeError::Negative));
        assert_eq!(bytes("99999999999999999999"), Err(SizeError::Overflow));
        assert_eq!(bytes("16777216TiB"), Err(SizeError::Overflow));
        for bad in ["", "1GB", "GiB", "1.5KiB", "0x10"] {
            assert_eq!(bytes(bad), Err(SizeError::Malformed), "{bad:?}");
        }
    }

    /// Pieces of every token, valid and near-miss, for near-grammar input.
    const PIECES: [&str; 16] = [
        "1", "2.5", "-", "..", "x", "s", "ms", "KiB", "=", ",", " ", "nan", "inf", "1e309", "", "é",
    ];

    fn lex_everything(s: &str) {
        for entry in entries(s) {
            assert!(
                !entry.is_empty() && entry.trim() == entry,
                "{s:?} -> {entry:?}"
            );
            let _ = key_value(entry);
        }
        if let Some(t) = parse_time(s) {
            assert!(t.get().is_finite() && t.get() >= 0.0, "{s:?}");
        }
        if let Some((from, until)) = parse_window(s) {
            assert!(from.get().is_finite() && until.get().is_finite(), "{s:?}");
        }
        let _ = (parse_band(s), parse_factor(s), parse_bytes(s));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary strings (any Unicode scalar values) never panic the
        /// lexer, and every duration it accepts is finite and non-negative.
        #[test]
        fn lexer_survives_arbitrary_strings(
            chars in proptest::collection::vec(any::<u32>(), 0..24),
        ) {
            let s: String = chars
                .iter()
                .map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
                .collect();
            lex_everything(&s);
        }

        /// Near-grammar strings glued from the tokens' own pieces.
        #[test]
        fn lexer_survives_near_grammar_strings(
            picks in proptest::collection::vec(0..PIECES.len(), 0..10),
        ) {
            let s: String = picks.iter().map(|&i| PIECES[i]).collect();
            lex_everything(&s);
        }
    }
}
