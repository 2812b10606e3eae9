//! Property tests for the workspace's JSON parser: it must *never* panic,
//! whatever bytes a client or a torn file throws at it — malformed UTF-8
//! fragments, truncated escapes, pathological nesting. A wedged or
//! malicious client gets a typed `ParseError`, not a dead server, and a
//! killed writer's torn line is never mistaken for a complete record.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use vpdift_obs::json::{escape, parse};

/// Bytes drawn from the JSON structural alphabet: much likelier to form
/// *almost*-valid documents (truncated strings, unbalanced brackets,
/// half-written escapes) than uniform bytes, which usually die at byte 0.
fn jsonish() -> impl Strategy<Value = Vec<u8>> {
    let alphabet: &[u8] = b"{}[]\",:0123456789.eE+-truefalsnl \\/\tu\n\x7f\xc3";
    prop::collection::vec(any::<u8>().prop_map(|b| b), 0..128)
        .prop_map(move |idx| idx.iter().map(|&b| alphabet[b as usize % alphabet.len()]).collect())
}

proptest! {
    /// Uniform random bytes (lossily decoded): parse returns, never panics.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse(&text);
    }

    /// JSON-alphabet soup: exercises the tokenizer's deep paths (string
    /// escapes, number grammar, nested containers) without panicking.
    #[test]
    fn jsonish_bytes_never_panic(bytes in jsonish()) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse(&text);
    }
}

/// The torn-line case a killed writer leaves behind: every proper prefix
/// of a complete object is an error, never a shorter valid document. The
/// fleet journal's torn-tail detection rests on exactly this property, so
/// it is checked on a journal record (nested payload last, escapes in the
/// detail string) as well as on a protocol request.
#[test]
fn every_proper_prefix_of_an_object_is_an_error() {
    let docs = [
        r#"{"cmd":"run","session":"s0","opts":{"deep":[1,[2,[3,"A"]]],"cap":18446744073709551615}}"#,
        r#"{"job":2,"status":"crashed","attempts":3,"elapsed_us":1234,"counts":[2,0,7],"detail":"panicked at {\"depth\": [1, {2}]}\nbacktrace","payload":{"run":2,"seed":9,"results":[{"scenario":"immo","faults":[{"step":12,"detail":3}]}]}}"#,
    ];
    for doc in docs {
        assert!(parse(doc).is_ok(), "complete document parses: {doc}");
        for n in (0..doc.len()).filter(|&n| doc.is_char_boundary(n)) {
            let prefix = &doc[..n];
            assert!(parse(prefix).is_err(), "proper prefix accepted: {prefix}");
        }
    }
}

/// Nesting right at, below, and far beyond the depth cap: the recursive
/// parser must refuse with an error — stack overflow is a panic the
/// `catch_unwind`-free server cannot survive.
#[test]
fn deep_nesting_is_rejected_not_overflowed() {
    // Well-formed nesting up to the cap parses...
    for depth in [1usize, 8, 31] {
        let doc = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&doc).is_ok(), "depth {depth} should parse");
    }
    // ...and anything deeper (balanced or truncated) errors cleanly,
    // including depths that would blow the stack if recursion were
    // unbounded.
    for depth in [33usize, 64, 1000, 100_000] {
        let open = "[".repeat(depth);
        assert!(parse(&open).is_err(), "unclosed depth {depth} must error");
        let doc = format!("{}1{}", open, "]".repeat(depth));
        assert!(parse(&doc).is_err(), "balanced depth {depth} must error");
        let objs = "{\"k\":".repeat(depth);
        assert!(parse(&objs).is_err(), "object depth {depth} must error");
    }
}

/// String scanning is linear in the line length: a serve `create` line
/// carries a whole program (or ELF image as hex) in one string. A scan
/// that re-validated the rest of the line per character would take
/// minutes here, even in an optimized build.
#[test]
fn a_four_mib_string_parses_in_linear_time() {
    let body: String = "ab\"cd\\é\n".repeat(512 * 1024);
    let doc = format!("{{\"program\":\"{}\"}}", escape(&body));
    assert!(doc.len() >= 4 << 20, "{} bytes", doc.len());
    let start = Instant::now();
    let v = parse(&doc).expect("parses");
    let took = start.elapsed();
    assert_eq!(v.get("program").and_then(|p| p.as_str()), Some(body.as_str()));
    assert!(took < Duration::from_secs(5), "4 MiB string took {took:?}");
}
