//! Streaming folds over the `tc-trace` JSONL export (`tcq --trace`,
//! `section --trace DIR`).
//!
//! The line format is owned by `tc_trace::Event` (it writes *and*
//! parses it); this module streams lines into a [`ProfileFold`] in
//! constant memory (a G5 trace is millions of lines; collecting
//! `Vec<Event>` first would cost hundreds of MB) and puts a line number
//! on a parse failure.

use crate::fold::{Profile, ProfileFold};
use std::io::BufRead;
use tc_trace::Event;
pub use tc_trace::ParseError;

/// Error of a streaming fold over a JSONL reader.
#[derive(Debug)]
pub enum JsonlError {
    /// The reader failed.
    Io(std::io::Error),
    /// A line failed to parse (1-based line number).
    Parse {
        /// 1-based line number.
        line: u64,
        /// What was wrong.
        error: ParseError,
    },
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonlError::Io(e) => write!(f, "read failed: {e}"),
            JsonlError::Parse { line, error } => write!(f, "line {line}: {error}"),
        }
    }
}

impl std::error::Error for JsonlError {}

impl From<std::io::Error> for JsonlError {
    fn from(e: std::io::Error) -> JsonlError {
        JsonlError::Io(e)
    }
}

/// Streams a JSONL trace into `fold`, line by line (constant memory).
/// Blank lines are skipped. Returns the number of events folded.
pub fn fold_jsonl<R: BufRead>(reader: R, fold: &mut ProfileFold) -> Result<u64, JsonlError> {
    let mut count = 0u64;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let ev = Event::parse_jsonl(&line).map_err(|error| JsonlError::Parse {
            line: i as u64 + 1,
            error,
        })?;
        fold.push(ev);
        count += 1;
    }
    Ok(count)
}

/// Parses and folds a whole JSONL trace with default fold settings.
pub fn profile_jsonl<R: BufRead>(reader: R) -> Result<Profile, JsonlError> {
    let mut fold = ProfileFold::new();
    fold_jsonl(reader, &mut fold)?;
    Ok(fold.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_fold_counts_lines_and_reports_positions() {
        let text =
            "{\"ev\":\"run_begin\",\"algorithm\":\"BTC\",\"ms_per_io\":20}\n\n{\"ev\":\"union\"}\n";
        let mut fold = ProfileFold::new();
        assert_eq!(fold_jsonl(text.as_bytes(), &mut fold).unwrap(), 2);
        let p = fold.finish();
        assert_eq!(p.counts.unions, 1);
        assert_eq!(p.algorithm.as_deref(), Some("BTC"));

        let bad = "{\"ev\":\"union\"}\n{\"ev\":\"bogus\"}\n";
        let e = profile_jsonl(bad.as_bytes()).unwrap_err();
        assert!(matches!(e, JsonlError::Parse { line: 2, .. }), "{e}");
    }
}
