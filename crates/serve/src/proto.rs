//! The service protocol: line-delimited JSON commands and events, plus
//! the daemon's cap on the campaigns it decodes.
//!
//! Every message is one JSON object on one line. Clients send *commands*
//! (`{"cmd":"submit",...}`); the server sends *events*
//! (`{"event":"accepted",...}`). The server's first line on any
//! connection is the `hello` event carrying every version a client needs
//! to refuse a mismatched daemon: the protocol version, the crate
//! version, the snapshot format version (preemption checkpoints) and the
//! journal format version (the durable job store).
//!
//! Campaigns travel in `dramctrl_campaign`'s wire form
//! ([`campaign_to_wire`]); this module adds only the daemon's admission
//! cap on what it decodes.

use crate::wire::{escape_into, Value};
pub use dramctrl_campaign::campaign_to_wire;
use dramctrl_campaign::{Campaign, JOURNAL_VERSION};
use dramctrl_kernel::snap::SNAP_VERSION;
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

/// The most units a wire campaign may expand to. A daemon expands an
/// accepted campaign in memory, at submit and again at every restart, so
/// the cap bounds that allocation: 2^20 units of 88 bytes each is about
/// 92 MB.
pub const MAX_CAMPAIGN_UNITS: usize = 1 << 20;

/// Decodes a wire campaign ([`dramctrl_campaign::campaign_from_wire`])
/// and refuses one whose product is more than [`MAX_CAMPAIGN_UNITS`]
/// units. Submits and the store's accept log both decode through here.
pub fn campaign_from_wire(v: &Value) -> Result<Campaign, String> {
    let c = dramctrl_campaign::campaign_from_wire(v)?;
    match c.checked_len() {
        Some(units) if units <= MAX_CAMPAIGN_UNITS => Ok(c),
        units => Err(format!(
            "campaign expands to {} units, more than the {MAX_CAMPAIGN_UNITS} allowed",
            units.map_or("an overflowing count of".to_owned(), |n| n.to_string())
        )),
    }
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
    use dramctrl::{PagePolicy, SchedPolicy};
    use dramctrl_campaign::{Model, TrafficPattern};
    use dramctrl_mem::AddrMapping;

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
        // A traffic field past its width is refused, not truncated.
        let wide = ok.replace("block=64", "block=4294967360");
        let v = Value::parse(&wide).unwrap();
        let e = campaign_from_wire(&v).unwrap_err();
        assert!(e.contains("bad 'block' value"), "{e}");
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
