//! `CampaignSpec` ⇄ JSON.
//!
//! The wire shape is the one `POST /campaigns` accepts. Encoding uses
//! shortest-round-trip `Display` for floats and raw decimal for
//! integers, and decoding parses them correctly rounded, so
//! `decode(encode(spec))` reproduces the spec **exactly** — same
//! `PartialEq` value, same 128-bit fingerprint, hence the same campaign
//! id and checkpoint compatibility. Unknown fields are rejected rather
//! than ignored: a typoed knob must not silently run a different
//! campaign.

use eavs_fleet::spec::{CampaignSpec, TitleSpec};
use eavs_power::{DecoderModel, DevicePowerModel, DisplayModel};

use crate::json::{parse, Value};

/// Serializes a spec to its wire JSON.
pub fn encode_spec(spec: &CampaignSpec) -> String {
    let weighted = |items: Vec<(Value, f64)>, key: &str| {
        Value::Arr(
            items
                .into_iter()
                .map(|(v, w)| {
                    Value::Obj(vec![(key.to_owned(), v), ("weight".into(), Value::f64(w))])
                })
                .collect(),
        )
    };
    let hist = |(lo, hi, bins): (f64, f64, usize)| {
        Value::Arr(vec![
            Value::f64(lo),
            Value::f64(hi),
            Value::u64(bins as u64),
        ])
    };
    let power = if spec.power.is_none() {
        Value::Null
    } else {
        Value::Obj(vec![
            (
                "display".into(),
                spec.power.display.map_or(Value::Null, display_to_json),
            ),
            (
                "decoder".into(),
                spec.power.decoder.map_or(Value::Null, decoder_to_json),
            ),
        ])
    };
    Value::Obj(vec![
        ("name".into(), Value::str(&spec.name)),
        ("seed".into(), Value::u64(spec.seed)),
        ("sessions".into(), Value::u64(spec.sessions)),
        ("shard_size".into(), Value::u64(spec.shard_size)),
        (
            "governors".into(),
            Value::Arr(spec.governors.iter().map(Value::str).collect()),
        ),
        (
            "devices".into(),
            weighted(
                spec.devices
                    .iter()
                    .map(|(soc, w)| (Value::str(soc.name()), *w))
                    .collect(),
                "soc",
            ),
        ),
        (
            "networks".into(),
            weighted(
                spec.networks
                    .iter()
                    .map(|(net, w)| (Value::str(net.name()), *w))
                    .collect(),
                "network",
            ),
        ),
        (
            "contents".into(),
            weighted(
                spec.contents
                    .iter()
                    .map(|(c, w)| (Value::str(c.name()), *w))
                    .collect(),
                "content",
            ),
        ),
        (
            "titles".into(),
            Value::Arr(
                spec.titles
                    .iter()
                    .map(|(t, w)| {
                        Value::Obj(vec![
                            ("bitrate_kbps".into(), Value::u64(t.bitrate_kbps.into())),
                            ("width".into(), Value::u64(t.width.into())),
                            ("height".into(), Value::u64(t.height.into())),
                            ("duration_s".into(), Value::u64(t.duration_s)),
                            ("fps".into(), Value::u64(t.fps.into())),
                            ("weight".into(), Value::f64(*w)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "abrs".into(),
            weighted(
                spec.abrs
                    .iter()
                    .map(|(a, w)| (Value::str(a.name()), *w))
                    .collect(),
                "abr",
            ),
        ),
        ("trace_pool".into(), Value::u64(spec.trace_pool)),
        ("seed_pool".into(), Value::u64(spec.seed_pool)),
        ("arrival_span_s".into(), Value::u64(spec.arrival_span_s)),
        ("power".into(), power),
        ("energy_hist".into(), hist(spec.energy_hist)),
        ("qoe_hist".into(), hist(spec.qoe_hist)),
        ("startup_hist_ms".into(), hist(spec.startup_hist_ms)),
    ])
    .render()
}

fn display_to_json(d: DisplayModel) -> Value {
    Value::Obj(vec![
        ("brightness".into(), Value::f64(d.brightness)),
        ("base_power_w".into(), Value::f64(d.base_power_w)),
        ("full_power_w".into(), Value::f64(d.full_power_w)),
        ("similarity_gain".into(), Value::f64(d.similarity_gain)),
    ])
}

fn decoder_to_json(d: DecoderModel) -> Value {
    Value::Obj(vec![
        ("decode_j_per_mpx".into(), Value::f64(d.decode_j_per_mpx)),
        ("upscale_j_per_mpx".into(), Value::f64(d.upscale_j_per_mpx)),
        ("display_width".into(), Value::u64(d.display_width.into())),
        ("display_height".into(), Value::u64(d.display_height.into())),
    ])
}

/// Parses wire JSON into a spec. Strict: unknown or missing fields are
/// errors, every message names the offending path.
///
/// # Errors
///
/// Returns a path-annotated message on malformed JSON, wrong types,
/// unknown names, or unknown fields. (Semantic checks beyond shape —
/// positive sessions, non-empty mixes — stay in
/// [`CampaignSpec::validate`], which callers run next.)
pub fn decode_spec(input: &str) -> Result<CampaignSpec, String> {
    let root = parse(input)?;
    decode_spec_value(&root)
}

/// [`decode_spec`] over an already-parsed tree (e.g. a spec embedded in
/// a claim response).
///
/// # Errors
///
/// Same as [`decode_spec`].
pub fn decode_spec_value(root: &Value) -> Result<CampaignSpec, String> {
    let obj = Obj::new("spec", root)?;
    let spec = CampaignSpec {
        name: obj.str("name")?,
        seed: obj.u64("seed")?,
        sessions: obj.u64("sessions")?,
        shard_size: obj.u64("shard_size")?,
        governors: obj
            .arr("governors")?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("spec.governors[{i}]: expected a string"))
            })
            .collect::<Result<_, _>>()?,
        devices: weighted_mix(&obj, "devices", "soc")?,
        networks: weighted_mix(&obj, "networks", "network")?,
        contents: weighted_mix(&obj, "contents", "content")?,
        titles: obj
            .arr("titles")?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let path = format!("spec.titles[{i}]");
                let t = Obj::new(&path, v)?;
                let title = TitleSpec {
                    bitrate_kbps: t.u32("bitrate_kbps")?,
                    width: t.u32("width")?,
                    height: t.u32("height")?,
                    duration_s: t.u64("duration_s")?,
                    fps: t.u32("fps")?,
                };
                let w = t.f64("weight")?;
                t.finish()?;
                Ok((title, w))
            })
            .collect::<Result<_, String>>()?,
        abrs: weighted_mix(&obj, "abrs", "abr")?,
        trace_pool: obj.u64("trace_pool")?,
        seed_pool: obj.u64("seed_pool")?,
        arrival_span_s: obj.u64("arrival_span_s")?,
        power: decode_power(obj.required("power")?)?,
        energy_hist: decode_hist(&obj, "energy_hist")?,
        qoe_hist: decode_hist(&obj, "qoe_hist")?,
        startup_hist_ms: decode_hist(&obj, "startup_hist_ms")?,
    };
    obj.finish()?;
    Ok(spec)
}

fn decode_power(v: &Value) -> Result<DevicePowerModel, String> {
    if *v == Value::Null {
        return Ok(DevicePowerModel::none());
    }
    let obj = Obj::new("spec.power", v)?;
    let component = |key: &str| -> Result<Option<&Value>, String> {
        let v = obj.required(key)?;
        Ok(if *v == Value::Null { None } else { Some(v) })
    };
    let display = component("display")?
        .map(|v| {
            let o = Obj::new("spec.power.display", v)?;
            let m = DisplayModel {
                brightness: o.f64("brightness")?,
                base_power_w: o.f64("base_power_w")?,
                full_power_w: o.f64("full_power_w")?,
                similarity_gain: o.f64("similarity_gain")?,
            };
            o.finish()?;
            Ok::<_, String>(m)
        })
        .transpose()?;
    let decoder = component("decoder")?
        .map(|v| {
            let o = Obj::new("spec.power.decoder", v)?;
            let m = DecoderModel {
                decode_j_per_mpx: o.f64("decode_j_per_mpx")?,
                upscale_j_per_mpx: o.f64("upscale_j_per_mpx")?,
                display_width: o.u32("display_width")?,
                display_height: o.u32("display_height")?,
            };
            o.finish()?;
            Ok::<_, String>(m)
        })
        .transpose()?;
    obj.finish()?;
    Ok(DevicePowerModel { display, decoder })
}

fn decode_hist(obj: &Obj<'_>, key: &str) -> Result<(f64, f64, usize), String> {
    let items = obj.arr(key)?;
    let path = || format!("{}.{key}", obj.path);
    if items.len() != 3 {
        return Err(format!("{}: expected [lo, hi, bins]", path()));
    }
    let lo = finite(&items[0]).ok_or_else(|| format!("{}[0]: expected a finite number", path()))?;
    let hi = finite(&items[1]).ok_or_else(|| format!("{}[1]: expected a finite number", path()))?;
    let bins = items[2]
        .as_u64()
        .ok_or_else(|| format!("{}[2]: expected an integer", path()))? as usize;
    Ok((lo, hi, bins))
}

/// The number's value, unless its lexeme overflows `f64` (`1e999`): the
/// wire has no infinities, and re-encoding one would panic.
fn finite(v: &Value) -> Option<f64> {
    v.as_f64().filter(|x| x.is_finite())
}

/// A weighted mix whose items are names, each parsed by its kind's one
/// `FromStr` and refused with the item's path prefixed.
fn weighted_mix<T: std::str::FromStr<Err = String>>(
    obj: &Obj<'_>,
    key: &str,
    item_key: &str,
) -> Result<Vec<(T, f64)>, String> {
    obj.arr(key)?
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let path = format!("{}.{key}[{i}]", obj.path);
            let entry = Obj::new(&path, v)?;
            let item = entry
                .str(item_key)?
                .parse()
                .map_err(|e| format!("{path}.{item_key}: {e}"))?;
            let w = entry.f64("weight")?;
            entry.finish()?;
            Ok((item, w))
        })
        .collect()
}

/// A strict object reader: typed accessors with path-annotated errors,
/// and a [`Obj::finish`] pass that rejects unknown fields.
struct Obj<'a> {
    path: String,
    members: &'a [(String, Value)],
    seen: std::cell::RefCell<Vec<&'a str>>,
}

impl<'a> Obj<'a> {
    fn new(path: &str, v: &'a Value) -> Result<Self, String> {
        let members = v
            .as_obj()
            .ok_or_else(|| format!("{path}: expected an object"))?;
        Ok(Obj {
            path: path.to_owned(),
            members,
            seen: std::cell::RefCell::new(Vec::new()),
        })
    }

    fn required(&self, key: &str) -> Result<&'a Value, String> {
        let (k, v) = self
            .members
            .iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("{}.{key}: missing", self.path))?;
        self.seen.borrow_mut().push(k.as_str());
        Ok(v)
    }

    fn str(&self, key: &str) -> Result<String, String> {
        self.required(key)?
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| format!("{}.{key}: expected a string", self.path))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.required(key)?
            .as_u64()
            .ok_or_else(|| format!("{}.{key}: expected a non-negative integer", self.path))
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        self.u64(key)?
            .try_into()
            .map_err(|_| format!("{}.{key}: value does not fit in u32", self.path))
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        finite(self.required(key)?)
            .ok_or_else(|| format!("{}.{key}: expected a finite number", self.path))
    }

    fn arr(&self, key: &str) -> Result<&'a [Value], String> {
        self.required(key)?
            .as_arr()
            .ok_or_else(|| format!("{}.{key}: expected an array", self.path))
    }

    fn finish(&self) -> Result<(), String> {
        let seen = self.seen.borrow();
        for (k, _) in self.members {
            if !seen.contains(&k.as_str()) {
                return Err(format!("{}.{k}: unknown field", self.path));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavs_fleet::spec::NetworkChoice;

    fn powered_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::global();
        spec.power = DevicePowerModel::phone_with_brightness(0.37);
        spec
    }

    #[test]
    fn smoke_and_global_round_trip_exactly() {
        for spec in [
            CampaignSpec::smoke(),
            CampaignSpec::global(),
            powered_spec(),
        ] {
            let json = encode_spec(&spec);
            let back = decode_spec(&json).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.fingerprint(), spec.fingerprint(), "fingerprint drift");
            // Encoding is canonical: a second round trip is a fixpoint.
            assert_eq!(encode_spec(&back), json);
        }
    }

    #[test]
    fn awkward_floats_survive() {
        let mut spec = CampaignSpec::smoke();
        spec.devices[0].1 = 0.1 + 0.2; // 0.30000000000000004
        spec.networks[0].0 = NetworkChoice::Constant(1.0 / 3.0);
        spec.energy_hist = (0.0, 1e-7, 3);
        let back = decode_spec(&encode_spec(&spec)).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn partial_power_models_round_trip() {
        let mut spec = CampaignSpec::smoke();
        for (display, decoder) in [
            (None, Some(DecoderModel::phone_1080p())),
            (Some(DisplayModel::phone(0.9)), None),
        ] {
            spec.power = DevicePowerModel { display, decoder };
            let back = decode_spec(&encode_spec(&spec)).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.fingerprint(), spec.fingerprint());
        }
    }

    #[test]
    fn errors_name_the_offending_path() {
        let mut json = encode_spec(&CampaignSpec::smoke());
        json = json.replace("\"flagship2016\"", "\"quantum9000\"");
        assert!(decode_spec(&json).unwrap_err().contains("devices[0].soc"));

        let json = encode_spec(&CampaignSpec::smoke()).replace("\"seed\":42", "\"seed\":-1");
        assert!(decode_spec(&json).unwrap_err().contains("spec.seed"));

        let json = encode_spec(&CampaignSpec::smoke()).replace("\"seed\"", "\"sede\"");
        let err = decode_spec(&json).unwrap_err();
        assert!(err.contains("seed") && err.contains("missing"), "{err}");

        // The session's radio is a campaign's only radio: a spec that
        // still sends the power model's former radio object is refused.
        let json =
            encode_spec(&powered_spec()).replacen("\"power\":{", "\"power\":{\"radio\":null,", 1);
        let err = decode_spec(&json).unwrap_err();
        assert_eq!(err, "spec.power.radio: unknown field");

        // `1e999` parses to infinity, which `encode_spec` cannot write
        // back (and `Registry::submit` re-encodes under its lock).
        let json = encode_spec(&powered_spec()).replacen("0.37", "1e999", 1);
        let err = decode_spec(&json).unwrap_err();
        assert_eq!(
            err,
            "spec.power.display.brightness: expected a finite number"
        );
        let json = encode_spec(&CampaignSpec::smoke()).replacen("_hist\":[0", "_hist\":[-1e999", 1);
        let err = decode_spec(&json).unwrap_err();
        assert_eq!(err, "spec.energy_hist[0]: expected a finite number");

        assert!(decode_spec("{]").unwrap_err().contains("invalid JSON"));
        assert!(decode_spec("[1,2]")
            .unwrap_err()
            .contains("expected an object"));
    }

    #[test]
    fn unknown_fields_are_rejected_not_ignored() {
        let json = encode_spec(&CampaignSpec::smoke());
        let spiked = json.replacen('{', "{\"turbo\":true,", 1);
        let err = decode_spec(&spiked).unwrap_err();
        assert!(
            err.contains("turbo") && err.contains("unknown field"),
            "{err}"
        );
    }
}
