//! Trace record/replay interchange format.
//!
//! Traces are JSON documents (one [`Trace`] object) so they can be
//! inspected, edited, and exchanged; the format carries a version tag for
//! forward compatibility.

use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// One packet-creation event in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Creation time in picoseconds.
    pub at_ps: u64,
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Packet length in flits.
    pub size_flits: u32,
}

/// A recorded workload: a time-sorted list of packet creations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    version: u32,
    records: Vec<TraceRecord>,
}

impl Trace {
    /// The current format version.
    pub const VERSION: u32 = 1;

    /// Builds a trace from records (sorting them by time).
    pub fn from_records(mut records: Vec<TraceRecord>) -> Self {
        records.sort_by_key(|r| r.at_ps);
        Trace {
            version: Trace::VERSION,
            records,
        }
    }

    /// The records, time-sorted.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consumes the trace, returning the records.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record, keeping time order.
    ///
    /// # Panics
    ///
    /// Panics if the record is earlier than the current last record.
    pub fn push(&mut self, record: TraceRecord) {
        if let Some(last) = self.records.last() {
            assert!(
                record.at_ps >= last.at_ps,
                "records must be appended in time order"
            );
        }
        self.records.push(record);
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O or serialization error.
    pub fn write_json<W: Write>(&self, writer: W) -> Result<(), serde_json::Error> {
        serde_json::to_writer(writer, self)
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Returns a parse error on malformed input or an unsupported version.
    pub fn read_json<R: Read>(reader: R) -> Result<Self, TraceReadError> {
        let trace: Trace = serde_json::from_reader(reader).map_err(TraceReadError::Parse)?;
        if trace.version != Trace::VERSION {
            return Err(TraceReadError::UnsupportedVersion(trace.version));
        }
        Ok(Trace::from_records(trace.records))
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::from_records(Vec::new())
    }
}

/// Errors from [`Trace::read_json`].
#[derive(Debug)]
pub enum TraceReadError {
    /// The JSON could not be parsed into a trace.
    Parse(serde_json::Error),
    /// The trace format version is not supported by this build.
    UnsupportedVersion(u32),
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceReadError::Parse(e) => write!(f, "malformed trace: {e}"),
            TraceReadError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (expected {})",
                    Trace::VERSION
                )
            }
        }
    }
}

impl std::error::Error for TraceReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceReadError::Parse(e) => Some(e),
            TraceReadError::UnsupportedVersion(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64) -> TraceRecord {
        TraceRecord {
            at_ps: at,
            src: 1,
            dst: 2,
            size_flits: 4,
        }
    }

    #[test]
    fn from_records_sorts() {
        let t = Trace::from_records(vec![rec(30), rec(10), rec(20)]);
        let times: Vec<u64> = t.records().iter().map(|r| r.at_ps).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn push_in_order() {
        let mut t = Trace::default();
        t.push(rec(5));
        t.push(rec(5));
        t.push(rec(9));
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn push_out_of_order_rejected() {
        let mut t = Trace::default();
        t.push(rec(9));
        t.push(rec(5));
    }

    #[test]
    fn json_round_trip() {
        let t = Trace::from_records(vec![rec(1), rec(2)]);
        let mut buf = Vec::new();
        t.write_json(&mut buf).unwrap();
        let back = Trace::read_json(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn version_checked() {
        let json = r#"{"version": 99, "records": []}"#;
        let err = Trace::read_json(json.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceReadError::UnsupportedVersion(99)));
        assert!(err.to_string().contains("unsupported"));
    }

    #[test]
    fn malformed_rejected() {
        let err = Trace::read_json(&b"not json"[..]).unwrap_err();
        assert!(matches!(err, TraceReadError::Parse(_)));
    }
}
