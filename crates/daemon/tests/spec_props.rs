//! Totality of the campaign-spec decoder along `Registry::submit`'s
//! path: `decode_spec` → `CampaignSpec::validate` → `FleetAggregate::new`,
//! plus the digest, shard count and canonical re-encoding submit derives
//! from an accepted spec. No input may panic any step, and every accepted
//! spec re-encodes to text that decodes back to the same spec.

use eavs_daemon::codec::{decode_spec, encode_spec};
use eavs_daemon::json::{self, Value};
use eavs_fleet::{CampaignSpec, FleetAggregate};
use eavs_power::DevicePowerModel;
use proptest::prelude::*;

/// The canonical wire text of every spec the properties start from: the
/// two presets and a global campaign with the phone power model, so the
/// `power` object's fields are on the wire too.
fn seeds() -> Vec<String> {
    let mut powered = CampaignSpec::global();
    powered.power = DevicePowerModel::phone_with_brightness(0.37);
    [CampaignSpec::smoke(), CampaignSpec::global(), powered]
        .iter()
        .map(encode_spec)
        .collect()
}

/// Runs `text` through submit's steps. `Ok(true)` when the spec is
/// accepted, `Ok(false)` when a step refuses it with an error.
fn submit_path(text: &str) -> Result<bool, TestCaseError> {
    let Ok(spec) = decode_spec(text) else {
        return Ok(false);
    };
    if spec.validate().is_err() {
        return Ok(false);
    }
    let aggregate = FleetAggregate::new(&spec);
    prop_assert_eq!(aggregate.campaign, spec.fingerprint().0);
    // The last shard a claim can hand out covers the population's tail.
    let shards = spec.num_shards();
    prop_assert!(shards >= 1);
    let (start, end) = spec.shard_range(shards - 1);
    prop_assert!(start < end && end == spec.sessions);
    prop_assert_eq!(decode_spec(&encode_spec(&spec)), Ok(spec));
    Ok(true)
}

/// The member at a dotted `path` (`titles.0.fps`; numbers index arrays).
fn at<'a>(root: &'a mut Value, path: &str) -> &'a mut Value {
    path.split('.').fold(root, |v, step| match v {
        Value::Obj(members) => {
            &mut members
                .iter_mut()
                .find(|(k, _)| k == step)
                .unwrap_or_else(|| panic!("no member {step} in {path}"))
                .1
        }
        Value::Arr(items) => &mut items[step.parse::<usize>().expect("array index")],
        _ => panic!("{path} walks into a leaf"),
    })
}

/// `text` with the member at `path` replaced by the number `lexeme`.
fn with_number(text: &str, path: &str, lexeme: &str) -> String {
    let mut root = json::parse(text).expect("seed spec parses");
    *at(&mut root, path) = Value::Num(lexeme.to_owned());
    root.render()
}

/// Count fields of the seed specs (one title stands for all titles;
/// `bins` is the third element of each histogram shape), each with
/// whether submit accepts 0 and `u64::MAX` there. Every field accepts 1
/// and refuses `u64::MAX + 1`.
const COUNT_FIELDS: [(&str, bool, bool); 16] = [
    ("seed", true, true),
    ("sessions", false, true),
    ("shard_size", false, true),
    ("trace_pool", false, true),
    ("seed_pool", false, true),
    ("arrival_span_s", false, true),
    ("titles.0.bitrate_kbps", false, false),
    ("titles.0.width", false, false),
    ("titles.0.height", false, false),
    ("titles.0.duration_s", false, false),
    ("titles.0.fps", false, false),
    ("energy_hist.2", false, false),
    ("qoe_hist.2", false, false),
    ("startup_hist_ms.2", false, false),
    ("power.decoder.display_width", true, false),
    ("power.decoder.display_height", true, false),
];

#[test]
fn every_seed_spec_is_accepted() {
    for text in seeds() {
        assert!(submit_path(&text).unwrap(), "{text}");
    }
}

#[test]
fn every_count_field_at_its_edges_is_refused_or_round_trips() {
    let seeds = seeds();
    for (path, zero, max) in COUNT_FIELDS {
        // The power fields exist only on the powered seed.
        let texts = if path.starts_with("power") {
            &seeds[2..]
        } else {
            &seeds[..]
        };
        for text in texts {
            for (lexeme, accepted) in [
                ("0", zero),
                ("1", true),
                ("18446744073709551615", max),
                ("18446744073709551616", false),
            ] {
                let edited = with_number(text, path, lexeme);
                assert_eq!(submit_path(&edited).unwrap(), accepted, "{path} = {lexeme}");
            }
        }
    }
}

#[test]
fn every_truncation_is_refused() {
    for text in seeds() {
        for cut in 0..text.len() {
            assert!(
                !submit_path(&text[..cut]).unwrap(),
                "prefix of {cut} bytes accepted"
            );
        }
    }
}

/// A title's sides and frame rate at the edges of the title rule
/// (`TitleSpec::MAX_SIDE`, `TitleSpec::MAX_FPS`) and of `u32`: submit
/// accepts exactly the values inside the bounds, which round-trip.
#[test]
fn title_sides_and_rates_at_their_edges_are_refused_or_round_trip() {
    let sides = [
        ("0", false),
        ("1", true),
        ("16384", true),
        ("16385", false),
        ("4294967295", false),
    ];
    let rates = [
        ("0", false),
        ("1", true),
        ("1000", true),
        ("1001", false),
        ("1000000000", false),
        ("4294967295", false),
    ];
    for text in seeds() {
        for (path, edges) in [
            ("titles.0.width", &sides[..]),
            ("titles.0.height", &sides[..]),
            ("titles.0.fps", &rates[..]),
        ] {
            for &(lexeme, accepted) in edges {
                let edited = with_number(&text, path, lexeme);
                assert_eq!(submit_path(&edited).unwrap(), accepted, "{path} = {lexeme}");
            }
        }
    }
}

/// Float fields of the powered seed at the edges of what a JSON lexeme
/// can say: overflow to ±infinity is refused, underflow and the extreme
/// finite values are refused or round-trip.
#[test]
fn float_fields_at_their_edges_never_panic() {
    let powered = &seeds()[2];
    for path in [
        "devices.0.weight",
        "networks.0.weight",
        "contents.0.weight",
        "titles.0.weight",
        "abrs.0.weight",
        "energy_hist.0",
        "energy_hist.1",
        "power.display.brightness",
        "power.display.base_power_w",
        "power.display.full_power_w",
        "power.display.similarity_gain",
        "power.decoder.decode_j_per_mpx",
        "power.decoder.upscale_j_per_mpx",
    ] {
        for lexeme in [
            "1e999",
            "-1e999",
            "1e-999",
            "-0",
            "4.9e-324",
            "1.7976931348623157e308",
        ] {
            let accepted = submit_path(&with_number(powered, path, lexeme)).unwrap();
            assert!(
                !(accepted && lexeme.ends_with("e999")),
                "{path} = {lexeme} accepted"
            );
        }
    }
}

/// A constant network's rate at the edges of what its lexeme can say,
/// on the smoke seed (whose first network is `constant:20`): submit
/// accepts a rate only if it carries every manifest of the spec within
/// the simulation clock, so zero (however spelled), a rate that
/// underflows to it, one too slow for the clock and one whose bits per
/// second overflow are all refused.
#[test]
fn constant_rates_at_their_edges_are_refused_or_round_trip() {
    let smoke = &seeds()[0];
    for (lexeme, accepted) in [
        ("20", true),
        ("1e-6", true),
        ("4.9e-324", false),
        ("1e-300", false),
        ("0", false),
        ("-0", false),
        ("1e-999", false),
        ("-1", false),
        ("1.7976931348623157e308", false),
        ("1e999", false),
        ("NaN", false),
    ] {
        let mut root = json::parse(smoke).expect("seed spec parses");
        *at(&mut root, "networks.0.network") = Value::Str(format!("constant:{lexeme}"));
        let accepted_now = submit_path(&root.render()).unwrap();
        assert_eq!(accepted_now, accepted, "constant:{lexeme}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        submit_path(&String::from_utf8_lossy(&bytes))?;
    }

    /// One byte of a seed spec replaced: any outcome but a panic, and an
    /// accepted spec round-trips.
    #[test]
    fn single_byte_mutations_never_panic(
        seed in 0usize..3,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = seeds().swap_remove(seed).into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        submit_path(&String::from_utf8_lossy(&bytes))?;
    }
}
