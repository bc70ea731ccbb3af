//! The service protocol: line-delimited JSON commands and events, plus
//! the campaign wire codec.
//!
//! Every message is one JSON object on one line. Clients send *commands*
//! (`{"cmd":"submit",...}`); the server sends *events*
//! (`{"event":"accepted",...}`). The server's first line on any
//! connection is the `hello` event carrying every version a client needs
//! to refuse a mismatched daemon: the protocol version, the crate
//! version, the snapshot format version (preemption checkpoints) and the
//! journal format version (the durable job store).
//!
//! Campaign axes travel as their `Display` strings and parse back via
//! `FromStr` — the same round-trip the reports and journals rely on —
//! and numeric tokens are kept raw end to end, so a `u64` campaign seed
//! is never coerced through a float.

use crate::wire::{escape_into, Value};
use dramctrl::{PagePolicy, SchedPolicy};
use dramctrl_campaign::{Campaign, Model, TrafficPattern, JOURNAL_VERSION};
use dramctrl_kernel::snap::SNAP_VERSION;
use dramctrl_mem::AddrMapping;
use std::fmt::Write as _;

/// Wire protocol version; bumped on any incompatible command or event
/// change. A client refuses a daemon speaking a different version.
/// v2 added the shard-aware submit (`shard_index`/`shard_count`) that
/// distributed dispatch depends on, so the dispatch coordinator's
/// hello check automatically refuses pre-shard daemons.
pub const PROTO_VERSION: u32 = 2;

/// The version tuple a daemon announces in its `hello` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionInfo {
    /// Wire protocol version ([`PROTO_VERSION`]).
    pub proto: u32,
    /// Crate version (`CARGO_PKG_VERSION` of the serving binary).
    pub crate_version: String,
    /// Snapshot format version (preemption checkpoints).
    pub snap: u32,
    /// Campaign journal format version (the durable job store).
    pub journal: u32,
}

impl VersionInfo {
    /// The versions this build of the service speaks.
    #[must_use]
    pub fn current() -> Self {
        Self {
            proto: PROTO_VERSION,
            crate_version: env!("CARGO_PKG_VERSION").to_owned(),
            snap: SNAP_VERSION,
            journal: JOURNAL_VERSION,
        }
    }

    /// Renders the `hello` event line (no trailing newline).
    #[must_use]
    pub fn hello_line(&self) -> String {
        let mut out = format!("{{\"event\":\"hello\",\"proto\":{},\"crate\":", self.proto);
        escape_into(&self.crate_version, &mut out);
        write!(
            out,
            ",\"snap\":{},\"journal\":{}}}",
            self.snap, self.journal
        )
        .expect(INFALLIBLE);
        out
    }

    /// Parses a `hello` event line back into the daemon's versions.
    pub fn from_hello(line: &str) -> Result<Self, String> {
        let v = Value::parse(line).map_err(|e| e.to_string())?;
        if v.get("event").and_then(Value::as_str) != Some("hello") {
            return Err(format!("expected a hello event, got: {line}"));
        }
        let field = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("hello event is missing '{key}'"))
        };
        Ok(Self {
            proto: field("proto")? as u32,
            crate_version: v
                .get("crate")
                .and_then(Value::as_str)
                .ok_or_else(|| "hello event is missing 'crate'".to_owned())?
                .to_owned(),
            snap: field("snap")? as u32,
            journal: field("journal")? as u32,
        })
    }

    /// Checks a daemon's versions against this client's: the protocol and
    /// the snapshot format must match exactly (the crate version is
    /// informational).
    pub fn check_compatible(&self, daemon: &VersionInfo) -> Result<(), String> {
        if daemon.proto != self.proto {
            return Err(format!(
                "daemon speaks protocol v{} but this client speaks v{}; \
                 upgrade the older side (daemon is dramctrl {})",
                daemon.proto, self.proto, daemon.crate_version
            ));
        }
        if daemon.snap != self.snap {
            return Err(format!(
                "daemon uses snapshot format v{} but this client uses v{}; \
                 checkpoints would not interoperate (daemon is dramctrl {})",
                daemon.snap, self.snap, daemon.crate_version
            ));
        }
        Ok(())
    }
}

/// Encodes a campaign for the wire: every axis as an array, enum values
/// as their `Display` strings, numbers as raw tokens.
#[must_use]
pub fn campaign_to_wire(c: &Campaign) -> Value {
    let strings = |it: Vec<String>| Value::Arr(it.into_iter().map(Value::Str).collect());
    let nums = |it: Vec<String>| Value::Arr(it.into_iter().map(Value::Num).collect());
    Value::Obj(vec![
        ("name".to_owned(), Value::Str(c.name.clone())),
        ("seed".to_owned(), Value::num(c.seed)),
        ("devices".to_owned(), strings(c.devices.clone())),
        (
            "models".to_owned(),
            strings(c.models.iter().map(ToString::to_string).collect()),
        ),
        (
            "policies".to_owned(),
            strings(c.policies.iter().map(ToString::to_string).collect()),
        ),
        (
            "scheds".to_owned(),
            strings(c.scheds.iter().map(ToString::to_string).collect()),
        ),
        (
            "mappings".to_owned(),
            strings(c.mappings.iter().map(ToString::to_string).collect()),
        ),
        (
            "channels".to_owned(),
            nums(c.channels.iter().map(ToString::to_string).collect()),
        ),
        (
            "traffic".to_owned(),
            strings(c.traffic.iter().map(ToString::to_string).collect()),
        ),
        (
            "read_pcts".to_owned(),
            nums(c.read_pcts.iter().map(ToString::to_string).collect()),
        ),
        (
            "requests".to_owned(),
            nums(c.request_counts.iter().map(ToString::to_string).collect()),
        ),
        (
            "error_rates".to_owned(),
            nums(c.error_rates.iter().map(|r| format!("{r}")).collect()),
        ),
    ])
}

/// Decodes a wire campaign, validating that every axis is present and
/// non-empty (an empty axis would annihilate the Cartesian product).
pub fn campaign_from_wire(v: &Value) -> Result<Campaign, String> {
    let name = v
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| "campaign is missing 'name'".to_owned())?;
    let seed = v
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or_else(|| "campaign is missing a u64 'seed'".to_owned())?;
    fn axis<T, E: std::fmt::Display>(
        v: &Value,
        key: &str,
        parse: impl Fn(&Value) -> Result<T, E>,
    ) -> Result<Vec<T>, String> {
        let items = v
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("campaign is missing the '{key}' axis"))?;
        if items.is_empty() {
            return Err(format!("campaign axis '{key}' is empty"));
        }
        items
            .iter()
            .map(|item| parse(item).map_err(|e| format!("campaign axis '{key}': {e}")))
            .collect()
    }
    let str_of = |item: &Value| -> Result<String, String> {
        item.as_str()
            .map(str::to_owned)
            .ok_or_else(|| "expected a string".to_owned())
    };
    fn parse_as(item: &Value) -> Result<&str, String> {
        item.as_str().ok_or_else(|| "expected a string".to_owned())
    }
    Ok(Campaign::new(name, seed)
        .devices(axis(v, "devices", str_of)?)
        .models(axis(v, "models", |i| parse_as(i)?.parse::<Model>())?)
        .policies(axis(v, "policies", |i| parse_as(i)?.parse::<PagePolicy>())?)
        .scheds(axis(v, "scheds", |i| parse_as(i)?.parse::<SchedPolicy>())?)
        .mappings(axis(v, "mappings", |i| {
            parse_as(i)?.parse::<AddrMapping>()
        })?)
        .channels(axis(v, "channels", |i| {
            i.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| "expected a u32".to_owned())
        })?)
        .traffic(axis(v, "traffic", |i| {
            parse_as(i)?.parse::<TrafficPattern>()
        })?)
        .read_pcts(axis(v, "read_pcts", |i| {
            i.as_u64()
                .and_then(|n| u8::try_from(n).ok())
                .filter(|n| *n <= 100)
                .ok_or_else(|| "expected a read percentage 0..=100".to_owned())
        })?)
        .requests(axis(v, "requests", |i| {
            i.as_u64().ok_or_else(|| "expected a u64".to_owned())
        })?)
        .error_rates(axis(v, "error_rates", |i| {
            i.as_f64()
                .filter(|r| r.is_finite() && *r >= 0.0)
                .ok_or_else(|| "expected a non-negative fault rate".to_owned())
        })?))
}

const INFALLIBLE: &str = "writing to a String cannot fail";

/// Opens an event object, `{"event":<event>,<key>:<value>` — every event
/// starts with its name and one string member (`id` or `reason`); the
/// caller appends the rest and the closing brace.
fn open_event(event: &str, key: &str, value: &str) -> String {
    let mut out = String::with_capacity(64 + value.len());
    out.push_str("{\"event\":");
    escape_into(event, &mut out);
    out.push(',');
    escape_into(key, &mut out);
    out.push(':');
    escape_into(value, &mut out);
    out
}

/// Renders a `record` event. `data` must be a rendered
/// [`JobRecord`](dramctrl_campaign::JobRecord) line; it is embedded as
/// raw JSON in the *last* field, so [`record_data`] can slice the exact
/// original bytes back out on the client side.
#[must_use]
pub fn record_event(id: &str, index: usize, data: &str) -> String {
    let mut out = open_event("record", "id", id);
    write!(out, ",\"index\":{index},\"data\":{data}}}").expect(INFALLIBLE);
    out
}

/// Recovers the embedded record line from a `record` event, byte for
/// byte.
#[must_use]
pub fn record_data(line: &str) -> Option<&str> {
    let start = line.find("\"data\":")? + "\"data\":".len();
    let payload = line.get(start..line.len().checked_sub(1)?)?;
    payload.starts_with('{').then_some(payload)
}

/// Renders a text-artifact event (`stats` or `epochs`): the artifact
/// travels as one escaped string, so multi-line texts (stats JSON is
/// multi-line) fit the one-line-per-message framing.
#[must_use]
pub fn text_event(event: &str, id: &str, index: usize, text: &str) -> String {
    let mut out = open_event(event, "id", id);
    out.reserve(text.len() + 32);
    write!(out, ",\"index\":{index},\"text\":").expect(INFALLIBLE);
    escape_into(text, &mut out);
    out.push('}');
    out
}

/// Renders a `progress` event: `done` of `total` units committed.
#[must_use]
pub fn progress_event(id: &str, done: usize, total: usize) -> String {
    let mut out = open_event("progress", "id", id);
    write!(out, ",\"done\":{done},\"total\":{total}}}").expect(INFALLIBLE);
    out
}

/// Renders the terminal `done` event with outcome counts.
#[must_use]
pub fn done_event(id: &str, ok: usize, failed: usize) -> String {
    let mut out = open_event("done", "id", id);
    write!(out, ",\"ok\":{ok},\"failed\":{failed}}}").expect(INFALLIBLE);
    out
}

/// Renders an `error` event (command-level failure; the connection
/// stays usable).
#[must_use]
pub fn error_event(reason: &str) -> String {
    open_event("error", "reason", reason) + "}"
}

/// Renders a `rejected` event (admission control refused a submit).
#[must_use]
pub fn rejected_event(reason: &str) -> String {
    open_event("rejected", "reason", reason) + "}"
}

/// Renders an `accepted` event: the job is durably journaled and will
/// run.
#[must_use]
pub fn accepted_event(id: &str, total: usize) -> String {
    let mut out = open_event("accepted", "id", id);
    write!(out, ",\"total\":{total}}}").expect(INFALLIBLE);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_campaign() -> Campaign {
        Campaign::new("wire-test", u64::MAX - 7)
            .models([Model::Event, Model::Cycle])
            .policies([PagePolicy::Open, PagePolicy::ClosedAdaptive])
            .scheds([SchedPolicy::Fcfs, SchedPolicy::FrFcfs])
            .mappings([AddrMapping::RoCoRaBaCh])
            .channels([1, 2])
            .traffic([
                TrafficPattern::Linear {
                    range: 1 << 28,
                    block: 64,
                },
                TrafficPattern::DramAware {
                    stride: 8,
                    banks: 4,
                },
            ])
            .read_pcts([0, 50, 100])
            .requests([1_000])
            .error_rates([0.0, 2e11])
    }

    #[test]
    fn campaign_round_trips_exactly() {
        let c = toy_campaign();
        let encoded = campaign_to_wire(&c).encode();
        let decoded = campaign_from_wire(&Value::parse(&encoded).unwrap()).unwrap();
        // The expansion — jobs, order, seeds — is what must survive.
        assert_eq!(c.expand(), decoded.expand());
        assert_eq!(
            dramctrl_campaign::campaign_hash(&c),
            dramctrl_campaign::campaign_hash(&decoded),
            "spec hash survives the wire, so journals interoperate"
        );
    }

    #[test]
    fn decode_rejects_bad_campaigns() {
        let ok = campaign_to_wire(&toy_campaign()).encode();
        // Missing axis.
        let v = Value::parse(&ok.replace("\"models\"", "\"modelz\"")).unwrap();
        assert!(campaign_from_wire(&v).unwrap_err().contains("models"));
        // Empty axis.
        let v = Value::parse(&ok.replace("[\"event\",\"cycle\"]", "[]")).unwrap();
        assert!(campaign_from_wire(&v).unwrap_err().contains("empty"));
        // Bad enum value.
        let v = Value::parse(&ok.replace("\"cycle\"", "\"quantum\"")).unwrap();
        assert!(campaign_from_wire(&v).is_err());
        // Read percentage out of range.
        let v = Value::parse(&ok.replace("[0,50,100]", "[0,101]")).unwrap();
        assert!(campaign_from_wire(&v).is_err());
    }

    #[test]
    fn hello_round_trips_and_gates_mismatches() {
        let me = VersionInfo::current();
        let parsed = VersionInfo::from_hello(&me.hello_line()).unwrap();
        assert_eq!(me, parsed);
        assert!(me.check_compatible(&parsed).is_ok());
        let mut other = parsed.clone();
        other.proto += 1;
        assert!(me
            .check_compatible(&other)
            .unwrap_err()
            .contains("protocol"));
        let mut other = parsed;
        other.snap += 1;
        assert!(me
            .check_compatible(&other)
            .unwrap_err()
            .contains("snapshot"));
    }

    #[test]
    fn record_event_payload_is_byte_recoverable() {
        let data = r#"{"campaign":"x","job":3,"metrics":{"a":0.5}}"#;
        let line = record_event("job-0007", 3, data);
        assert_eq!(record_data(&line), Some(data));
        assert!(Value::parse(&line).is_ok(), "event is itself valid JSON");
        assert!(record_data("{\"event\":\"done\"}").is_none());
    }

    #[test]
    fn text_event_carries_multiline_artifacts() {
        let stats = "{\"report\":\"ctrl\",\n\"entries\":[]}\n";
        let line = text_event("stats", "job-0001", 0, stats);
        assert!(!line.contains('\n'), "framing stays one line");
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("text").unwrap().as_str(), Some(stats));
    }

    #[test]
    fn every_event_is_compact_json_that_round_trips_through_the_one_reader() {
        // The bytes are the protocol: pinned for a plain id...
        assert_eq!(
            record_event("job-0001", 3, "{\"a\":0.5}"),
            r#"{"event":"record","id":"job-0001","index":3,"data":{"a":0.5}}"#
        );
        assert_eq!(
            text_event("epochs", "job-0001", 2, "a\nb"),
            r#"{"event":"epochs","id":"job-0001","index":2,"text":"a\nb"}"#
        );
        assert_eq!(
            progress_event("job-0001", 1, 2),
            r#"{"event":"progress","id":"job-0001","done":1,"total":2}"#
        );
        assert_eq!(
            done_event("job-0001", 1, 1),
            r#"{"event":"done","id":"job-0001","ok":1,"failed":1}"#
        );
        assert_eq!(
            accepted_event("job-0001", 9),
            r#"{"event":"accepted","id":"job-0001","total":9}"#
        );
        assert_eq!(error_event("no"), r#"{"event":"error","reason":"no"}"#);
        assert_eq!(
            rejected_event("no"),
            r#"{"event":"rejected","reason":"no"}"#
        );
        // ...and for a hostile one, still one line the reader re-encodes
        // verbatim.
        let nasty = "id \"q\" \\ \n \u{1} é😀";
        for line in [
            VersionInfo::current().hello_line(),
            record_event(nasty, 3, "{\"a\":0.5}"),
            text_event("stats", nasty, 0, "{\n\"a\":1}\n"),
            progress_event(nasty, 1, 2),
            done_event(nasty, 1, 1),
            accepted_event(nasty, 9),
            error_event(nasty),
            rejected_event(nasty),
        ] {
            let v = Value::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(v.encode(), line);
        }
    }
}
