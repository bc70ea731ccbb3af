//! The wire format: the workspace's one JSON value,
//! [`dramctrl_kernel::json`], under the name the protocol layer and its
//! clients have always used. Raw number tokens keep `u64` seeds exact;
//! insertion-ordered objects keep record payloads byte-comparable.

pub use dramctrl_kernel::json::{escape_into, json_str, ParseError, Value};

/// The surface `proto`, the clients and the frozen benchmark harness
/// compile against, exercised through this re-export. (The grammar's
/// conformance table lives with the parser, in `dramctrl_kernel::json`.)
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_json() {
        let src = r#"{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5e3}}"#;
        let v = Value::parse(src).unwrap();
        assert_eq!(v.encode(), src);
    }

    #[test]
    fn u64_seeds_survive_unmangled() {
        // 2^63 + 3 — unrepresentable in f64; the raw token must survive.
        let src = r#"{"seed":9223372036854775811}"#;
        let v = Value::parse(src).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(9223372036854775811));
        assert_eq!(v.encode(), src);
    }

    #[test]
    fn accessors_and_lookup() {
        let v = Value::parse(r#"{"s":"hi","n":4,"f":0.5,"b":true,"a":[1,2]}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("missing").is_none());
        assert!(v.get("s").unwrap().as_u64().is_none());
        let Value::Obj(fields) = &v else {
            panic!("an object")
        };
        assert_eq!(fields[0].0, "s", "insertion order");
    }

    #[test]
    fn escapes_decode_and_encode() {
        let v = Value::parse(r#""tab\t quote\" uA pair😀""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t quote\" uA pair😀"));
        assert_eq!(json_str("a\"b\nc\u{1}"), "\"a\\\"b\\nc\\u0001\"");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("{\"a\":}").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("nul").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        // What a lenient writer on the other end might emit, and the
        // wire reader used to let through.
        for lenient in ["01", "1.", "-.5", "{\"n\":00.1e1}", "\"a\u{1}b\""] {
            assert!(Value::parse(lenient).is_err(), "{lenient:?}");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // Under MAX_DEPTH parses fine...
        let deep = "[".repeat(100) + "1" + &"]".repeat(100);
        assert!(Value::parse(&deep).is_ok());
        // ...a megabyte of brackets is refused with a plain error.
        let hostile = "[".repeat(1 << 20);
        let err = Value::parse(&hostile).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let mixed = "{\"a\":".repeat(10_000);
        assert!(Value::parse(&mixed).is_err());
    }

    #[test]
    fn whitespace_tolerated_on_input() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.encode(), r#"{"a":[1,2]}"#);
    }
}
