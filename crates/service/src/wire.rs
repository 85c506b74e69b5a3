//! Bounded JSON-lines framing, shared by the service protocol and the
//! cluster control channel.
//!
//! Both sides of every JSON-lines socket in the workspace — service
//! server and client, cluster coordinator and worker control channels —
//! speak the same frame discipline: one JSON document per `\n`-terminated
//! line, lines bounded by [`MAX_LINE_BYTES`] so a hostile or broken peer
//! cannot balloon memory, blank lines skipped — and one `write` per line:
//! a line is rendered whole (document plus `\n`) before any byte reaches
//! the socket, so it leaves as one segment however many tokens it has.
//! (A line written a token at a time is a `write(2)` per fragment, and on
//! a socket without `TCP_NODELAY` each direction of a request then waits
//! out the peer's delayed ACK, ≈ 40 ms.) Every socket that speaks these
//! lines also sets `TCP_NODELAY`, so back-to-back lines — streamed pages,
//! control messages — do not wait for each other's ACK either. This
//! module owns that discipline so the buffered-line handling is written
//! once.

use crate::json::Json;
use std::cell::RefCell;
use std::io::{BufRead, Read, Write};

/// Longest accepted wire line; a protocol line beyond this is hostile or
/// broken input, and the connection is dropped (after an error reply,
/// where the protocol has one).
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// Why reading a wire line failed.
#[derive(Debug)]
pub enum WireError {
    /// The line reached `limit` bytes without a terminating newline.
    Oversized {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// Socket-level failure.
    Io(std::io::Error),
    /// The line terminated but did not parse as one JSON document.
    BadJson(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { limit } => write!(f, "wire line exceeds {limit} bytes"),
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::BadJson(e) => write!(f, "bad wire line: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// Collapses the error into an [`std::io::Error`] for callers whose
    /// error type only carries transport failures.
    pub fn into_io(self) -> std::io::Error {
        match self {
            WireError::Io(e) => e,
            WireError::Oversized { limit } => std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("wire line exceeds {limit} bytes"),
            ),
            WireError::BadJson(e) => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad wire line: {e}"))
            }
        }
    }
}

/// Reads one `\n`-terminated line of at most `limit` bytes into `line`
/// (cleared first). `Ok(false)` is clean EOF before any byte of a line;
/// `Ok(true)` means `line` holds a complete (possibly blank) line.
pub fn read_line(
    reader: &mut impl BufRead,
    line: &mut String,
    limit: u64,
) -> Result<bool, WireError> {
    line.clear();
    match reader.by_ref().take(limit).read_line(line) {
        Ok(0) => Ok(false),
        Ok(_) if line.len() as u64 >= limit && !line.ends_with('\n') => {
            Err(WireError::Oversized { limit })
        }
        Ok(_) => Ok(true),
        Err(e) => Err(WireError::Io(e)),
    }
}

/// Reads the next non-blank line and parses it as one JSON document.
/// `Ok(None)` is clean EOF.
pub fn read_json(reader: &mut impl BufRead, limit: u64) -> Result<Option<Json>, WireError> {
    let mut line = String::new();
    loop {
        if !read_line(reader, &mut line, limit)? {
            return Ok(None);
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        return match Json::parse(trimmed) {
            Ok(value) => Ok(Some(value)),
            Err(e) => Err(WireError::BadJson(e.to_string())),
        };
    }
}

/// Line buffers larger than this are not kept between writes.
const RETAINED_LINE_BYTES: usize = 64 << 10;

thread_local! {
    /// The calling thread's line buffer, reused from one write to the next.
    static LINE: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Writes one JSON document as a line — rendered whole, then exactly one
/// `write_all` — and flushes.
pub fn write_json(writer: &mut impl Write, value: &Json) -> std::io::Result<()> {
    let mut line = LINE.take();
    line.clear();
    value.write_to(&mut line);
    line.push('\n');
    let result = write_line(writer, line.as_bytes());
    line.shrink_to(RETAINED_LINE_BYTES);
    LINE.set(line);
    result
}

/// Writes one already rendered line (its `\n` included) and flushes.
pub(crate) fn write_line(writer: &mut impl Write, line: &[u8]) -> std::io::Result<()> {
    writer.write_all(line)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn reads_lines_up_to_the_bound() {
        let text = "first\n\nsecond\n";
        let mut reader = BufReader::new(text.as_bytes());
        let mut line = String::new();
        assert!(read_line(&mut reader, &mut line, 64).unwrap());
        assert_eq!(line, "first\n");
        assert!(read_line(&mut reader, &mut line, 64).unwrap());
        assert_eq!(line, "\n", "blank lines are returned, not skipped");
        assert!(read_line(&mut reader, &mut line, 64).unwrap());
        assert_eq!(line, "second\n");
        assert!(!read_line(&mut reader, &mut line, 64).unwrap(), "clean EOF");
    }

    #[test]
    fn oversized_line_is_a_typed_error() {
        let text = "x".repeat(100);
        let mut reader = BufReader::new(text.as_bytes());
        let mut line = String::new();
        match read_line(&mut reader, &mut line, 10) {
            Err(WireError::Oversized { limit: 10 }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn exactly_limit_with_newline_is_accepted() {
        // 9 bytes + '\n' = 10 = limit; the newline proves the line ended.
        let text = format!("{}\n", "x".repeat(9));
        let mut reader = BufReader::new(text.as_bytes());
        let mut line = String::new();
        assert!(read_line(&mut reader, &mut line, 10).unwrap());
        assert_eq!(line.len(), 10);
    }

    #[test]
    fn json_roundtrip_skips_blanks_and_ends_cleanly() {
        let text = "\n  \n{\"a\":1}\n{\"b\":2}\n";
        let mut reader = BufReader::new(text.as_bytes());
        let a = read_json(&mut reader, MAX_LINE_BYTES).unwrap().unwrap();
        assert_eq!(a.get("a").unwrap().as_u64(), Some(1));
        let b = read_json(&mut reader, MAX_LINE_BYTES).unwrap().unwrap();
        assert_eq!(b.get("b").unwrap().as_u64(), Some(2));
        assert!(read_json(&mut reader, MAX_LINE_BYTES).unwrap().is_none());
    }

    #[test]
    fn bad_json_line_is_a_typed_error() {
        let mut reader = BufReader::new("{not json\n".as_bytes());
        match read_json(&mut reader, MAX_LINE_BYTES) {
            Err(WireError::BadJson(_)) => {}
            other => panic!("expected BadJson, got {other:?}"),
        }
    }

    #[test]
    fn write_then_read_roundtrips() {
        let value = Json::obj([("verb", Json::from("ping")), ("n", Json::from(7u64))]);
        let mut buf = Vec::new();
        write_json(&mut buf, &value).unwrap();
        let mut reader = BufReader::new(buf.as_slice());
        let back = read_json(&mut reader, MAX_LINE_BYTES).unwrap().unwrap();
        assert_eq!(back, value);
    }

    /// A sink that counts `write` calls, as a socket would see them.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_line_is_exactly_one_write() {
        let flat = crate::protocol::ok_response([
            ("count", Json::from(45u64)),
            ("selection_rule", Json::from("Rule \"1\"")),
            ("wall_ms", Json::from(0.25)),
        ]);
        let instances: Vec<Vec<u32>> = (0..256).map(|i| vec![i, i + 1, i + 2]).collect();
        let page = crate::protocol::ok_response([
            ("page", Json::from(7u64)),
            ("instances", Json::from(instances.clone())),
        ]);
        for value in [&flat, &page] {
            let mut sink = CountingWriter::default();
            write_json(&mut sink, value).unwrap();
            assert_eq!(sink.writes, 1, "{value}");
            assert_eq!(sink.bytes, format!("{value}\n").into_bytes());
        }
        // The worker-rendered form of the same page: one write, same bytes.
        let mut sink = CountingWriter::default();
        write_line(&mut sink, &crate::protocol::instances_line("page", 7, &instances)).unwrap();
        assert_eq!(sink.writes, 1);
        assert_eq!(sink.bytes, format!("{page}\n").into_bytes());
    }
}
