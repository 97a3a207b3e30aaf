//! Totality of the `eavs-prior/v1` decoder: prior files, checkpoints,
//! `POST /priors` and shard uploads all reach [`prior::decode`], so no
//! input may panic it. Whatever it accepts must re-encode to text that
//! decodes to the same store.

use eavs_core::framestats::FrameCycleTally;
use eavs_cpu::freq::Cycles;
use eavs_fleet::prior::{self, PriorStore};
use eavs_video::frame::FrameType;
use proptest::prelude::*;

/// Key characters of real title keys (`6000kbps-1920x1080@30`) and
/// content names.
const KEY_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789@-";

/// Builds a store from a stream of choices: up to three keys, each with
/// a few frames, some costing nothing and some past the histogram.
fn store_from(choices: &[u64]) -> PriorStore {
    let mut choices = choices.iter().copied();
    let mut next = move || choices.next().unwrap_or(0);
    let key = |next: &mut dyn FnMut() -> u64| -> String {
        (0..1 + next() % 8)
            .map(|_| KEY_CHARS[(next() % KEY_CHARS.len() as u64) as usize] as char)
            .collect()
    };
    let mut store = PriorStore::new();
    for _ in 0..next() % 4 {
        let (title, content) = (key(&mut next), key(&mut next));
        let mut tally = FrameCycleTally::default();
        for _ in 0..next() % 12 {
            let c = next();
            let mcycles = (c >> 8) as f64 % 300.0 - 2.0;
            tally.observe(
                FrameType::ALL[(c % 3) as usize],
                Cycles::from_mega(mcycles.max(0.0)),
            );
        }
        store.observe(&title, &content, &tally.finish());
    }
    store
}

/// Decodes `text`; when it is accepted, its canonical encoding decodes
/// to the same store.
fn decode_is_total(text: &str) -> Result<Option<PriorStore>, TestCaseError> {
    match prior::decode(text) {
        Ok(store) => {
            prop_assert_eq!(prior::decode(&prior::encode(&store)), Ok(store.clone()));
            Ok(Some(store))
        }
        Err(_) => Ok(None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        decode_is_total(&String::from_utf8_lossy(&bytes))?;
        // Behind a valid magic line the body parser sees the bytes too.
        let text = format!("{}\nprior 1\n{}", prior::PRIOR_MAGIC, String::from_utf8_lossy(&bytes));
        decode_is_total(&text)?;
    }

    #[test]
    fn valid_stores_round_trip(choices in proptest::collection::vec(any::<u64>(), 1..64)) {
        let store = store_from(&choices);
        prop_assert_eq!(prior::decode(&prior::encode(&store)), Ok(store));
    }

    /// One byte of a valid file replaced: any outcome but a panic.
    #[test]
    fn single_byte_mutations_never_panic(
        choices in proptest::collection::vec(any::<u64>(), 1..64),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = prior::encode(&store_from(&choices)).into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        decode_is_total(&String::from_utf8_lossy(&bytes))?;
    }
}

proptest! {
    // Each case decodes every prefix of a file of a few KiB.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A prefix missing any part of the `end` line is an error; only the
    /// final newline may go.
    #[test]
    fn truncations_are_errors(choices in proptest::collection::vec(any::<u64>(), 1..64)) {
        let store = store_from(&choices);
        let text = prior::encode(&store);
        for cut in 0..text.len() - 1 {
            prop_assert!(decode_is_total(&text[..cut])?.is_none(), "prefix of {} bytes decoded", cut);
        }
        prop_assert_eq!(decode_is_total(&text[..text.len() - 1])?, Some(store));
    }
}

/// Every field of a valid file (entry count, sums, sample counts,
/// histogram edges and counts) set in turn to each hostile value: an
/// error or a store that round-trips, never a panic or an allocation of
/// a hostile size.
#[test]
fn every_field_at_hostile_values_never_panics() {
    let choices: Vec<u64> = (1..96u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let text = prior::encode(&store_from(&choices));
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.iter().any(|l| l.starts_with("key ")), "{text}");
    let max = u64::MAX.to_string();
    let hostile = [
        max.as_str(),
        "-1",
        "",
        "7ff8000000000000", // NaN
        "7ff0000000000000", // +inf
        "0000000000000000", // 0.0
        "ffffffffffffffff", // a negative NaN
    ];
    for (l, line) in lines.iter().enumerate() {
        let fields: Vec<&str> = line.split(' ').collect();
        for f in 1..fields.len() {
            for value in hostile {
                let mut swept = fields.clone();
                swept[f] = value;
                let swept = swept.join(" ");
                let mut bad = lines.clone();
                bad[l] = &swept;
                decode_is_total(&(bad.join("\n") + "\n")).unwrap();
            }
        }
    }
}
