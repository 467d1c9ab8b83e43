//! CSV persistence for traces, so real-world traces (e.g. the actual
//! Facebook dataset, for users who have access) can be fed to the simulator.
//!
//! Format: an optional header line `src,dst` followed by one request per
//! line, exactly two fields each. Any other line is `InvalidData` naming
//! its line number, so a `src,dst,bytes` file is rejected, not truncated.

use crate::trace::Trace;
use dcn_topology::Pair;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes `trace` as CSV.
pub fn write_trace<W: Write>(trace: &Trace, out: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(out);
    writeln!(w, "src,dst")?;
    for r in &trace.requests {
        writeln!(w, "{},{}", r.lo(), r.hi())?;
    }
    w.flush()
}

/// Reads a CSV trace; `num_racks` is inferred as `max endpoint + 1` unless
/// `racks_hint` provides a larger value.
pub fn read_trace<R: Read>(
    input: R,
    name: &str,
    racks_hint: Option<usize>,
) -> std::io::Result<Trace> {
    let reader = BufReader::new(input);
    let mut requests: Vec<Pair> = Vec::new();
    let mut max_rack = 0u32;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || (lineno == 0 && line.eq_ignore_ascii_case("src,dst")) {
            continue;
        }
        let mut parts = line.split(',');
        let parse = |p: Option<&str>| -> std::io::Result<u32> {
            p.ok_or_else(|| bad_data(lineno, line))?
                .trim()
                .parse::<u32>()
                .map_err(|_| bad_data(lineno, line))
        };
        let src = parse(parts.next())?;
        let dst = parse(parts.next())?;
        if src == dst || parts.next().is_some() {
            return Err(bad_data(lineno, line));
        }
        max_rack = max_rack.max(src).max(dst);
        requests.push(Pair::new(src, dst));
    }
    let n = racks_hint.unwrap_or(0).max(max_rack as usize + 1);
    Ok(Trace::new(n, requests, name))
}

/// Convenience: write to a file path.
pub fn save_trace(trace: &Trace, path: &Path) -> std::io::Result<()> {
    write_trace(trace, std::fs::File::create(path)?)
}

/// Convenience: read from a file path.
pub fn load_trace(path: &Path, racks_hint: Option<usize>) -> std::io::Result<Trace> {
    read_trace(
        std::fs::File::open(path)?,
        &path.display().to_string(),
        racks_hint,
    )
}

fn bad_data(lineno: usize, line: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("malformed trace line {}: {line:?}", lineno + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::synthetic::uniform_trace;

    #[test]
    fn roundtrip() {
        let t = uniform_trace(12, 500, 3);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(buf.as_slice(), "t", Some(12)).unwrap();
        assert_eq!(back.num_racks, 12);
        assert_eq!(back.requests, t.requests);
    }

    #[test]
    fn header_and_blank_lines_skipped() {
        let csv = "src,dst\n0,1\n\n2,3\n";
        let t = read_trace(csv.as_bytes(), "t", None).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.num_racks, 4);
    }

    #[test]
    fn rejects_malformed() {
        assert!(read_trace("src,dst\n0\n".as_bytes(), "t", None).is_err());
        assert!(read_trace("src,dst\nx,y\n".as_bytes(), "t", None).is_err());
        assert!(
            read_trace("src,dst\n3,3\n".as_bytes(), "t", None).is_err(),
            "self-loop"
        );
        // A third field (say, a byte count) is not silently dropped.
        let err = read_trace("0,1\n0,1,7\n".as_bytes(), "t", None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn racks_hint_extends() {
        let t = read_trace("0,1\n".as_bytes(), "t", Some(50)).unwrap();
        assert_eq!(t.num_racks, 50);
    }
}
