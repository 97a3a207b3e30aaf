//! Totality of the control plane's JSON parser: every request body
//! reaches [`json::parse`], so no input may panic it. Whatever it
//! accepts must also survive a render → parse round trip unchanged.

use eavs_daemon::json::{self, Value};
use proptest::prelude::*;

/// Characters that steer the parser into every state: structure,
/// literals, numbers, escapes, whitespace, a control character and
/// multi-byte scalars.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '/', 'u', 'n', 't', 'f', 'r', 'e', 'l', 's', 'a', 'E',
    'b', 'd', '0', '1', '9', '-', '+', '.', ' ', '\n', '\u{1}', 'é', '漢', '😀',
];

/// Builds a JSON tree from a stream of choices (depth-bounded).
fn value_from(choices: &mut impl Iterator<Item = u64>, depth: usize) -> Value {
    let c = choices.next().unwrap_or(0);
    let leaf = depth >= 3;
    match c % if leaf { 5 } else { 7 } {
        0 => Value::Null,
        1 => Value::Bool(c & 8 != 0),
        2 => Value::u64(c >> 3),
        3 => Value::f64((c >> 8) as f64 / 1024.0 * if c & 8 != 0 { -1.0 } else { 1.0 }),
        4 => Value::str(string_from(choices)),
        5 => {
            let n = choices.next().unwrap_or(0) % 4;
            Value::Arr((0..n).map(|_| value_from(choices, depth + 1)).collect())
        }
        _ => {
            let n = choices.next().unwrap_or(0) % 4;
            Value::Obj(
                (0..n)
                    .map(|_| (string_from(choices), value_from(choices, depth + 1)))
                    .collect(),
            )
        }
    }
}

fn string_from(choices: &mut impl Iterator<Item = u64>) -> String {
    let n = choices.next().unwrap_or(0) % 6;
    (0..n)
        .map(|_| ALPHABET[(choices.next().unwrap_or(0) % ALPHABET.len() as u64) as usize])
        .collect()
}

/// Parses `text`; when it is accepted, rendering and re-parsing gives
/// the same tree back.
fn parse_is_total(text: &str) -> Result<Option<Value>, TestCaseError> {
    match json::parse(text) {
        Ok(v) => {
            prop_assert_eq!(json::parse(&v.render()), Ok(v.clone()));
            Ok(Some(v))
        }
        Err(_) => Ok(None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        parse_is_total(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn arbitrary_json_shaped_text_never_panics(picks in proptest::collection::vec(any::<u64>(), 0..96)) {
        let text: String = picks.iter().map(|&p| ALPHABET[(p % ALPHABET.len() as u64) as usize]).collect();
        parse_is_total(&text)?;
    }

    #[test]
    fn valid_documents_round_trip(choices in proptest::collection::vec(any::<u64>(), 1..64)) {
        let value = value_from(&mut choices.into_iter(), 0);
        prop_assert_eq!(json::parse(&value.render()), Ok(value));
    }

    /// One byte of a valid document replaced: any outcome but a panic.
    #[test]
    fn single_byte_mutations_never_panic(
        choices in proptest::collection::vec(any::<u64>(), 1..64),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = Value::Arr(vec![value_from(&mut choices.into_iter(), 0)]).render().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        parse_is_total(&String::from_utf8_lossy(&bytes))?;
    }

    /// Every proper prefix of a valid array document is incomplete.
    #[test]
    fn truncations_are_errors(choices in proptest::collection::vec(any::<u64>(), 1..64)) {
        let bytes = Value::Arr(vec![value_from(&mut choices.into_iter(), 0)]).render().into_bytes();
        for cut in 0..bytes.len() {
            let text = String::from_utf8_lossy(&bytes[..cut]);
            prop_assert!(parse_is_total(&text)?.is_none(), "prefix {:?} parsed", text);
        }
    }
}
