//! Checkpoint/restore for long-horizon runs: schema-versioned snapshots
//! of the full simulation state.
//!
//! A [`Checkpoint`] captures everything a run needs to continue exactly
//! where it stopped: the network (per-flit buffer occupancy, credits,
//! in-flight rate changes), every policy controller and laser governor,
//! the per-link RNG fault streams, the traffic source's RNG and cursors,
//! energy accounts, measurement statistics, telemetry retention state,
//! and the pending events and in-flight flits and credits. Resuming from a checkpoint is
//! **bit-identical** to never having stopped: replay counters match,
//! every `f64` matches by `.to_bits()`, and exported traces match
//! byte-for-byte. `CHECKPOINTS.md` specifies the format field by field
//! and the determinism contract; `tests/tests/checkpoint.rs` enforces it
//! with split-vs-unbroken differentials.
//!
//! The on-disk format is a small self-describing binary encoding of the
//! vendored [`serde::Value`] data model (JSON is unsuitable: checkpoint
//! state legitimately contains non-finite floats, e.g. `Summary::min`
//! of an empty summary, and floats must round-trip bit-exactly). Every
//! file starts with an 8-byte magic and a version word, so stale or
//! foreign files are rejected with a typed [`CheckpointError`] instead
//! of garbage state.

use crate::config::SystemConfig;
use crate::sim::SimEvent;
use lumen_desim::Picos;
use serde::{Deserialize, Serialize, Value};
use std::io::{Read, Write};
use std::path::Path;

/// Checkpoint schema identifier, stored inside the file body. Bump the
/// trailing number when a field is added, removed, or changes meaning
/// (see `CHECKPOINTS.md` for the compatibility policy).
pub const CKPT_SCHEMA: &str = "lumen-ckpt/1";

/// File magic: identifies a lumen checkpoint before any decoding.
const MAGIC: &[u8; 8] = b"LUMENCK\n";

/// Container format version (the binary Value encoding), independent of
/// the logical [`CKPT_SCHEMA`].
const CONTAINER_VERSION: u32 = 1;

/// Why a checkpoint could not be loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic — it is not a
    /// lumen checkpoint at all.
    BadMagic,
    /// The container version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ended before the encoded tree was complete.
    Truncated,
    /// The byte stream decoded to something structurally invalid (an
    /// unknown tag, a non-UTF-8 string, an over-long length).
    Corrupt(String),
    /// The Value tree was well-formed but did not match the checkpoint
    /// schema (missing field, wrong type, wrong enum variant).
    Decode(serde::Error),
    /// The checkpoint is valid but belongs to a different experiment
    /// (configuration, topology, or horizon mismatch).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a lumen checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint container version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Decode(e) => write!(f, "checkpoint schema mismatch: {e}"),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde::Error> for CheckpointError {
    fn from(e: serde::Error) -> Self {
        CheckpointError::Decode(e)
    }
}

/// A complete, resumable snapshot of an [`crate::Experiment`] run.
///
/// Checkpoints are captured by [`crate::Experiment::save_at`] and loaded
/// by [`crate::Experiment::resume`]; the bench CLI exposes them as
/// `--checkpoint PATH@CYCLE` and `--resume PATH`. "Saved at cycle `c`"
/// means the state *after* processing core tick `c` and every event at
/// time ≤ `c` router cycles — including the already-scheduled tick
/// `c + 1`, which rides along in [`Checkpoint::pending`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The complete system configuration of the saved run. Resume
    /// validates it against the resuming experiment's configuration —
    /// a checkpoint only continues the run it came from.
    pub config: SystemConfig,
    /// Warmup horizon of the saved run, cycles.
    pub warmup_cycles: u64,
    /// Measurement horizon of the saved run, cycles.
    pub measure_cycles: u64,
    /// Time-series sampling period of the saved run.
    pub sample_every: Option<u64>,
    /// Core cycle the snapshot was taken at.
    pub cycle: u64,
    /// Calendar events processed by the engine up to the snapshot. The resumed
    /// run's final event count is this plus its own processed events.
    pub events: u64,
    /// Everything still pending at the snapshot, in the engine's
    /// deterministic `(time, sequence)` order: the calendar's events
    /// merged with the flits and credits on the network's wires (stored
    /// as `FlitArrive` / `CreditArrive`).
    pub pending: Vec<(Picos, SimEvent)>,
    /// The sim's mutable state ([`crate::PowerAwareSim`] internals), as
    /// a schema tree.
    pub sim: Value,
    /// The traffic source's mutable state (RNG, cursors, per-node
    /// generators), as a schema tree.
    pub source: Value,
}

impl Checkpoint {
    /// Serializes to the schema [`Value`] tree (the logical format that
    /// `CHECKPOINTS.md` documents).
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("schema".into(), Value::Str(CKPT_SCHEMA.to_string())),
            ("config".into(), self.config.serialize_value()),
            ("warmup_cycles".into(), self.warmup_cycles.serialize_value()),
            (
                "measure_cycles".into(),
                self.measure_cycles.serialize_value(),
            ),
            ("sample_every".into(), self.sample_every.serialize_value()),
            ("cycle".into(), self.cycle.serialize_value()),
            ("events".into(), self.events.serialize_value()),
            ("pending".into(), self.pending.serialize_value()),
            ("sim".into(), self.sim.clone()),
            ("source".into(), self.source.clone()),
        ])
    }

    /// Parses the schema tree back into a checkpoint.
    pub fn from_value(v: &Value) -> Result<Self, CheckpointError> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "Checkpoint"))?;
        let field = |name: &str| serde::map_field(map, name, "Checkpoint");
        let schema = String::deserialize_value(field("schema")?)?;
        if schema != CKPT_SCHEMA {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint schema {schema:?}, this build reads {CKPT_SCHEMA:?}"
            )));
        }
        Ok(Checkpoint {
            config: SystemConfig::deserialize_value(field("config")?)?,
            warmup_cycles: u64::deserialize_value(field("warmup_cycles")?)?,
            measure_cycles: u64::deserialize_value(field("measure_cycles")?)?,
            sample_every: Option::deserialize_value(field("sample_every")?)?,
            cycle: u64::deserialize_value(field("cycle")?)?,
            events: u64::deserialize_value(field("events")?)?,
            pending: Vec::deserialize_value(field("pending")?)?,
            sim: field("sim")?.clone(),
            source: field("source")?.clone(),
        })
    }

    /// Encodes the checkpoint as the versioned binary container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        encode_value(&self.to_value(), &mut out);
        out
    }

    /// Decodes a checkpoint from the versioned binary container,
    /// rejecting foreign, truncated, or corrupted input with a typed
    /// error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < MAGIC.len() + 4 {
            return Err(if bytes.starts_with(&MAGIC[..bytes.len().min(8)]) {
                CheckpointError::Truncated
            } else {
                CheckpointError::BadMagic
            });
        }
        if &bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != CONTAINER_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let mut cursor = &bytes[12..];
        let value = decode_value(&mut cursor, 0)?;
        if !cursor.is_empty() {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after the checkpoint tree",
                cursor.len()
            )));
        }
        Self::from_value(&value)
    }

    /// Writes the binary container to `path` atomically (via a sibling
    /// temp file + rename), so a crash mid-save never leaves a torn
    /// checkpoint where a valid one is expected.
    pub fn write_to(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("ckpt-partial");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and decodes a checkpoint file.
    pub fn read_from(path: &Path) -> Result<Self, CheckpointError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }
}

// --- binary Value codec ----------------------------------------------------
//
// Tag byte then payload; lengths and integers are fixed-width u64 LE so
// the format needs no varint machinery. Floats are stored as raw IEEE
// bits (`to_bits`), which round-trips every value including NaN and the
// infinities `serde_json` rejects.

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_U64: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_SEQ: u8 = 6;
const TAG_MAP: u8 = 7;

/// Nesting bound for the decoder: real checkpoints nest a handful of
/// levels; anything deeper is corrupt input trying to blow the stack.
const MAX_DEPTH: u32 = 64;

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::U64(x) => {
            out.push(TAG_U64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::I64(x) => {
            out.push(TAG_I64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            out.extend_from_slice(&(items.len() as u64).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for (k, val) in entries {
                out.extend_from_slice(&(k.len() as u64).to_le_bytes());
                out.extend_from_slice(k.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

fn take<'a>(cursor: &mut &'a [u8], n: usize) -> Result<&'a [u8], CheckpointError> {
    if cursor.len() < n {
        return Err(CheckpointError::Truncated);
    }
    let (head, tail) = cursor.split_at(n);
    *cursor = tail;
    Ok(head)
}

fn take_u64(cursor: &mut &[u8]) -> Result<u64, CheckpointError> {
    Ok(u64::from_le_bytes(
        take(cursor, 8)?.try_into().expect("8 bytes"),
    ))
}

fn take_len(cursor: &mut &[u8]) -> Result<usize, CheckpointError> {
    let len = take_u64(cursor)?;
    // A length can never exceed the bytes that remain; checking here
    // turns a corrupted length word into an error instead of an OOM.
    if len > cursor.len() as u64 {
        return Err(CheckpointError::Corrupt(format!(
            "length {len} exceeds the {} remaining bytes",
            cursor.len()
        )));
    }
    Ok(len as usize)
}

fn take_string(cursor: &mut &[u8]) -> Result<String, CheckpointError> {
    let len = take_len(cursor)?;
    let bytes = take(cursor, len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| CheckpointError::Corrupt("string is not valid UTF-8".to_string()))
}

fn decode_value(cursor: &mut &[u8], depth: u32) -> Result<Value, CheckpointError> {
    if depth > MAX_DEPTH {
        return Err(CheckpointError::Corrupt(format!(
            "nesting exceeds the maximum depth of {MAX_DEPTH}"
        )));
    }
    let tag = take(cursor, 1)?[0];
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => match take(cursor, 1)?[0] {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            b => Err(CheckpointError::Corrupt(format!("bool byte {b:#04x}"))),
        },
        TAG_U64 => Ok(Value::U64(take_u64(cursor)?)),
        TAG_I64 => Ok(Value::I64(i64::from_le_bytes(
            take(cursor, 8)?.try_into().expect("8 bytes"),
        ))),
        TAG_F64 => Ok(Value::F64(f64::from_bits(take_u64(cursor)?))),
        TAG_STR => Ok(Value::Str(take_string(cursor)?)),
        TAG_SEQ => {
            let len = take_len(cursor)?;
            let mut items = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                items.push(decode_value(cursor, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            let len = take_len(cursor)?;
            let mut entries = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                let key = take_string(cursor)?;
                let val = decode_value(cursor, depth + 1)?;
                entries.push((key, val));
            }
            Ok(Value::Map(entries))
        }
        other => Err(CheckpointError::Corrupt(format!(
            "unknown value tag {other:#04x}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            config: SystemConfig::paper_default(),
            warmup_cycles: 20_000,
            measure_cycles: 100_000,
            sample_every: Some(500),
            cycle: 60_000,
            events: 1_234_567,
            pending: vec![
                (Picos::from_ps(96_000_160), SimEvent::CoreTick),
                (Picos::from_ps(96_000_320), SimEvent::LaserDecision),
            ],
            sim: Value::Map(vec![(
                "floats".into(),
                Value::Seq(vec![
                    Value::F64(f64::NEG_INFINITY),
                    Value::F64(f64::NAN),
                    Value::F64(-0.0),
                    Value::F64(0.1 + 0.2),
                ]),
            )]),
            source: Value::Map(vec![("rng".into(), Value::U64(0xDEAD_BEEF))]),
        }
    }

    /// Compares floats by bits (NaN-safe) and everything else by value.
    fn value_bits_eq(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
            (Value::Seq(x), Value::Seq(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| value_bits_eq(a, b))
            }
            (Value::Map(x), Value::Map(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|((ka, va), (kb, vb))| ka == kb && value_bits_eq(va, vb))
            }
            _ => a == b,
        }
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.config, ckpt.config);
        assert_eq!(back.cycle, ckpt.cycle);
        assert_eq!(back.events, ckpt.events);
        assert_eq!(back.pending, ckpt.pending);
        assert!(value_bits_eq(&back.sim, &ckpt.sim), "sim tree changed");
        assert!(value_bits_eq(&back.source, &ckpt.source));
        // Determinism of the encoding itself.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        ));
        assert!(matches!(
            Checkpoint::from_bytes(b"not a checkpoint at all"),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn every_truncation_point_rejected_without_panic() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated
                        | CheckpointError::BadMagic
                        | CheckpointError::Corrupt(_)
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn corrupted_tag_rejected() {
        let mut bytes = sample().to_bytes();
        // The first tag after the 12-byte header is the root map.
        bytes[12] = 0xAB;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_schema_string_rejected() {
        let mut ckpt = sample();
        let mut v = ckpt.to_value();
        if let Value::Map(entries) = &mut v {
            entries[0].1 = Value::Str("lumen-ckpt/999".to_string());
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        encode_value(&v, &mut bytes);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Mismatch(_))
        ));
        // And a structurally wrong tree is a Decode error.
        ckpt.pending.clear();
        let v = Value::Map(vec![("schema".into(), Value::Str(CKPT_SCHEMA.into()))]);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        encode_value(&v, &mut bytes);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Decode(_))
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lumen-ckpt-test-{}.ckpt", std::process::id()));
        let ckpt = sample();
        ckpt.write_to(&path).expect("write");
        let back = Checkpoint::read_from(&path).expect("read");
        assert_eq!(back.to_bytes(), ckpt.to_bytes());
        std::fs::remove_file(&path).ok();
    }
}
