//! The CSV trace reader (`csvio::read_trace`, what `examples/trace_analysis`
//! loads a user's file with): a written trace reads back to the same
//! requests and re-writes to the same bytes, and a mangled file (every
//! truncation, single-byte overwrites, an extra field) reads either as a
//! trace or as an `InvalidData` error, never as a panic.

use dcn_traces::csvio::{read_trace, write_trace};
use dcn_traces::{uniform_trace, Trace};
use std::io::ErrorKind;

const RACKS: usize = 12;

fn written(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_trace(trace, &mut bytes).expect("writing to a Vec cannot fail");
    bytes
}

/// Reads `bytes`; anything but a trace must be an `InvalidData` error.
fn read(bytes: &[u8]) -> Option<Trace> {
    match read_trace(bytes, "t", Some(RACKS)) {
        Ok(trace) => Some(trace),
        Err(e) => {
            assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}");
            None
        }
    }
}

#[test]
fn a_written_trace_round_trips() {
    let trace = uniform_trace(RACKS, 500, 3);
    let bytes = written(&trace);
    let back = read(&bytes).expect("a written trace reads back");
    assert_eq!(back.num_racks, RACKS);
    assert_eq!(back.requests, trace.requests);
    assert_eq!(written(&back), bytes, "round trip changed bytes");
}

#[test]
fn every_strict_prefix_is_a_prefix_of_the_trace_or_an_error() {
    let trace = uniform_trace(RACKS, 60, 5);
    let bytes = written(&trace);
    for cut in 0..bytes.len() {
        let Some(prefix) = read(&bytes[..cut]) else {
            continue;
        };
        // A cut inside the last line may shorten its second endpoint, so
        // only the requests before it must be the trace's own.
        let n = prefix.requests.len();
        assert!(n <= trace.requests.len(), "cut at {cut}");
        let whole = n.saturating_sub(1);
        assert_eq!(
            prefix.requests[..whole],
            trace.requests[..whole],
            "cut at {cut}"
        );
    }
}

#[test]
fn overwriting_any_byte_never_panics() {
    let bytes = written(&uniform_trace(RACKS, 40, 7));
    for evil in [b'0', b'9', b',', b'\n', b' ', b'x', b'-', b'+', 0x00, 0xFF] {
        for i in 0..bytes.len() {
            let mut mutant = bytes.clone();
            mutant[i] = evil;
            read(&mutant);
        }
    }
}

#[test]
fn a_third_field_is_an_error_naming_its_line() {
    for (text, line) in [
        ("0,1,7\n", "line 1"),
        ("src,dst\n0,1\n2,3,7\n", "line 3"),
        ("src,dst,bytes\n0,1,7\n", "line 1"),
        ("0,1,\n", "line 1"),
    ] {
        let err = read_trace(text.as_bytes(), "t", None).expect_err(text);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{text:?}");
        assert!(err.to_string().contains(line), "{text:?}: {err}");
    }
}
