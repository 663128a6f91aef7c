//! Versioned binary snapshot format for checkpoint/resume.
//!
//! An [`crate::driver::Execution`] must be able to freeze its complete
//! deterministic state at a step boundary and restore it in a fresh process
//! such that the resumed run is bit-for-bit identical to the straight run
//! (same MIS, byte-identical ledger). This module provides the byte layout:
//! a hand-rolled little-endian encoding with an explicit magic/version
//! header — deliberately dependency-free (the workspace has no registry
//! crates, so no serde) and self-checking (every identity field is written by the
//! checkpointing run and *verified* by the resuming run, so a graph, seed,
//! or parameter mismatch is rejected with a named error instead of
//! producing a silently corrupt run).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic     4 bytes  b"CCMS"
//! version   u32      currently 1
//! algorithm str      u64 length + UTF-8 bytes
//! payload   ...      execution-defined field sequence (see Execution::save)
//! ```
//!
//! The payload is *not* self-describing: it is the execution's field
//! list, in order. Each execution writes that list once, with
//! [`snapshot_fields!`](crate::snapshot_fields), which generates both
//! `save` and `restore` from it, so the two cannot disagree. Identity
//! fields (graph fingerprint, seed, parameters) come first and are
//! checked on restore; the ledger and per-node state follow. Every value
//! type encodes through the [`Field`] trait. The committed golden
//! checkpoints in `tests/fixtures/snapshots/` pin the bytes themselves:
//! any change to a field list fails `tests/snapshot_format.rs`, and a
//! deliberate one re-records the files it changes. [`VERSION`] covers the
//! header and the shared [`Field`] encodings, so only a change to those
//! bumps it. Bytes written under an older field list of one execution
//! are refused only as far as the strict decode notices (identity checks,
//! per-node length checks, no trailing bytes); `tests/snapshot_format.rs`
//! keeps such a legacy file for every field-list change and asserts that
//! it fails with a typed error.

use std::error::Error;
use std::fmt;

use cc_mis_graph::NodeId;

use crate::beeping::BeepingEngine;
use crate::clique::CliqueEngine;
use crate::congest::CongestEngine;
use crate::metrics::{PhaseRecord, RoundLedger};
use crate::rng::StreamCursor;

/// File magic for clique-mis snapshots.
pub const MAGIC: [u8; 4] = *b"CCMS";

/// Current snapshot format version.
pub const VERSION: u32 = 1;

/// Why a snapshot could not be decoded or does not match this run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the expected field.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
    },
    /// The leading magic bytes are not [`MAGIC`]: not a snapshot file.
    BadMagic,
    /// The header version is not [`VERSION`].
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// An identity field does not match this run's configuration
    /// (different graph, seed, algorithm, or parameters).
    Mismatch {
        /// Name of the mismatching field.
        field: &'static str,
        /// Value this run expected.
        expected: String,
        /// Value stored in the snapshot.
        found: String,
    },
    /// A structurally impossible value (e.g. a length larger than the
    /// remaining byte stream).
    Corrupt {
        /// Byte offset of the bad value.
        offset: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// Decoding finished but bytes remain: reader/writer disagree on the
    /// field sequence.
    TrailingBytes {
        /// How many bytes were left unread.
        remaining: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            SnapshotError::BadMagic => {
                write!(f, "not a clique-mis snapshot (bad magic)")
            }
            SnapshotError::BadVersion { found } => write!(
                f,
                "snapshot format version {found} unsupported (this build reads version {VERSION})"
            ),
            SnapshotError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "snapshot does not match this run: {field} is {found} in the snapshot \
                 but {expected} here"
            ),
            SnapshotError::Corrupt { offset, what } => {
                write!(f, "snapshot corrupt at byte {offset}: {what}")
            }
            SnapshotError::TrailingBytes { remaining } => write!(
                f,
                "snapshot has {remaining} trailing bytes after the final field"
            ),
        }
    }
}

impl Error for SnapshotError {}

/// Appends snapshot fields to a growing byte buffer.
///
/// Construction writes the header; [`SnapshotWriter::finish`] yields the
/// final bytes.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a snapshot for the named algorithm (header is written here).
    pub fn new(algorithm: &str) -> Self {
        SnapshotWriter::with_buffer(Vec::new(), algorithm)
    }

    /// [`SnapshotWriter::new`] writing into a recycled buffer — the
    /// checkpoint loop reuses one allocation across snapshots. The buffer
    /// is cleared before the header is written.
    pub fn with_buffer(mut buf: Vec<u8>, algorithm: &str) -> Self {
        buf.clear();
        let mut w = SnapshotWriter { buf };
        w.buf.extend_from_slice(&MAGIC);
        w.write_u32(VERSION);
        w.write_str(algorithm);
        w
    }

    /// Consumes the writer and returns the encoded snapshot.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a `u32`.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` (encoded as `u64`).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes a `bool` as one byte.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes an `f64` via its exact IEEE-754 bit pattern (bit-exact
    /// round-trip; snapshots never re-derive floats).
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, v: &str) {
        self.write_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Decodes snapshot fields in the order the writer emitted them.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    algorithm: String,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the header (magic + version) and positions the reader at
    /// the first payload field.
    pub fn new(bytes: &'a [u8]) -> Result<SnapshotReader<'a>, SnapshotError> {
        let mut r = SnapshotReader {
            buf: bytes,
            pos: 0,
            algorithm: String::new(),
        };
        let magic = r.bytes(4)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.read_u32()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        r.algorithm = r.read_str()?;
        Ok(r)
    }

    /// The algorithm name stored in the header.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Checks that every byte was consumed; call after the last field.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    #[inline]
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { offset: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn read_len(&mut self) -> Result<usize, SnapshotError> {
        let offset = self.pos;
        let raw = self.read_u64()?;
        let len = usize::try_from(raw).map_err(|_| SnapshotError::Corrupt {
            offset,
            what: "length does not fit in usize",
        })?;
        // Every encoded element occupies at least one byte, so a length
        // beyond the remaining bytes can only come from corruption.
        if len > self.remaining() {
            return Err(SnapshotError::Corrupt {
                offset,
                what: "length exceeds remaining bytes",
            });
        }
        Ok(len)
    }

    /// Reads a `u32`.
    #[inline]
    pub fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.bytes(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a `usize` (encoded as `u64`).
    #[inline]
    pub fn read_usize(&mut self) -> Result<usize, SnapshotError> {
        let offset = self.pos;
        let raw = self.read_u64()?;
        usize::try_from(raw).map_err(|_| SnapshotError::Corrupt {
            offset,
            what: "value does not fit in usize",
        })
    }

    /// Reads a `bool` byte.
    #[inline]
    pub fn read_bool(&mut self) -> Result<bool, SnapshotError> {
        let offset = self.pos;
        match self.bytes(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt {
                offset,
                what: "bool byte is neither 0 nor 1",
            }),
        }
    }

    /// Reads an `f64` from its exact bit pattern.
    #[inline]
    pub fn read_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String, SnapshotError> {
        let len = self.read_len()?;
        let offset = self.pos;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt {
            offset,
            what: "string is not valid UTF-8",
        })
    }

    /// Reads an identity field and rejects the snapshot unless its
    /// encoding is byte-identical to `expected`'s: a graph fingerprint,
    /// seed or parameter that differs from the value this run derives
    /// locally. Floats therefore compare by exact bit pattern.
    pub fn expect<T: Field + Default + fmt::Display>(
        &mut self,
        field: &'static str,
        expected: &T,
    ) -> Result<(), SnapshotError> {
        let start = self.pos;
        let mut found = T::default();
        found.take(self)?;
        let mut want = SnapshotWriter { buf: Vec::new() };
        expected.put(&mut want);
        if self.buf[start..self.pos] != want.buf[..] {
            return Err(SnapshotError::Mismatch {
                field,
                expected: expected.to_string(),
                found: found.to_string(),
            });
        }
        Ok(())
    }
}

/// A value with a fixed snapshot encoding: `put` appends it, `take`
/// overwrites it with the next decoded value. Executions list their
/// fields once in [`snapshot_fields!`], which generates both `save` and
/// `restore` from that one list out of these two methods.
pub trait Field {
    /// Appends this value's encoding.
    fn put(&self, w: &mut SnapshotWriter);

    /// Replaces this value with the next one decoded from `r`.
    fn take(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

macro_rules! primitive_fields {
    ($($t:ty => $write:ident, $read:ident;)*) => {$(
        impl Field for $t {
            #[inline]
            fn put(&self, w: &mut SnapshotWriter) {
                w.$write(*self);
            }

            #[inline]
            fn take(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
                *self = r.$read()?;
                Ok(())
            }
        }
    )*};
}

primitive_fields! {
    u32 => write_u32, read_u32;
    u64 => write_u64, read_u64;
    usize => write_usize, read_usize;
    bool => write_bool, read_bool;
    f64 => write_f64, read_f64;
}

impl Field for String {
    fn put(&self, w: &mut SnapshotWriter) {
        w.write_str(self);
    }

    fn take(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = r.read_str()?;
        Ok(())
    }
}

/// A presence byte, then the value when present.
impl<T: Field + Default> Field for Option<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.write_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }

    fn take(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = if r.read_bool()? {
            let mut v = T::default();
            v.take(r)?;
            Some(v)
        } else {
            None
        };
        Ok(())
    }
}

/// A `u64` element count, then the elements. The count is checked against
/// the remaining bytes before any element is read, so a corrupt count is a
/// [`SnapshotError::Corrupt`], never a huge allocation or a long loop.
impl<T: Field + Default> Field for Vec<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.write_usize(self.len());
        for v in self {
            v.put(w);
        }
    }

    fn take(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let len = r.read_len()?;
        self.clear();
        self.reserve(len);
        for _ in 0..len {
            let mut v = T::default();
            v.take(r)?;
            self.push(v);
        }
        Ok(())
    }
}

/// The raw index as a `u32`.
impl Field for NodeId {
    #[inline]
    fn put(&self, w: &mut SnapshotWriter) {
        w.write_u32(self.raw());
    }

    #[inline]
    fn take(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = NodeId::new(r.read_u32()?);
        Ok(())
    }
}

/// The stream position; the stream identity is rebuilt by construction.
impl Field for StreamCursor {
    fn put(&self, w: &mut SnapshotWriter) {
        w.write_u64(self.position());
    }

    fn take(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.seek(r.read_u64()?);
        Ok(())
    }
}

/// An engine's cross-step state is its ledger; everything else is
/// rebuilt by construction.
macro_rules! engine_fields {
    ($($engine:ty),*) => {$(
        impl Field for $engine {
            fn put(&self, w: &mut SnapshotWriter) {
                self.ledger().put(w);
            }

            fn take(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
                self.ledger_mut().take(r)
            }
        }
    )*};
}

engine_fields!(BeepingEngine<'_>, CliqueEngine, CongestEngine<'_>);

/// Writes one field list as both halves of a snapshot codec, so the writer
/// and the reader cannot disagree on order, width or presence.
///
/// Two forms:
///
/// * `snapshot_fields! { impl Field for T { a, b, c } }` implements
///   [`Field`] for a plain record by encoding the named fields in order.
/// * Inside an `impl` block, `snapshot_fields! { self; identity { .. }
///   state { .. } then { .. } }` generates
///   `fn save(&self, w: &mut SnapshotWriter)` and
///   `fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>`
///   with the [`crate::driver::Execution`] signatures. `identity` entries
///   (`"name" => self.place`) are written by `save` and checked by
///   `restore` through [`SnapshotReader::expect`], so a snapshot of a
///   different graph, seed or parameter set fails with a
///   [`SnapshotError::Mismatch`] naming the field. `state` places are
///   written, then read back in the same order. The optional `then` block
///   runs at the end of `restore`, after every field is read: length
///   checks against the graph, or regenerating derived state. The leading
///   `self` token is the receiver the generated methods bind.
///
/// # Example
///
/// ```
/// use cc_mis_sim::driver::{resume, snapshot, Execution, Status};
/// use cc_mis_sim::snapshot::SnapshotError;
///
/// struct Walk {
///     seed: u64,
///     at: u64,
///     trail: Vec<Option<u32>>,
/// }
///
/// impl Execution for Walk {
///     type Outcome = u64;
///     fn algorithm_id(&self) -> &'static str {
///         "walk"
///     }
///     fn attach_observer(&mut self, _observer: cc_mis_sim::SharedObserver) {}
///     fn step(&mut self) -> Status<u64> {
///         self.at += self.seed;
///         self.trail.push(None);
///         Status::Done(self.at)
///     }
///     cc_mis_sim::snapshot_fields! {
///         self;
///         identity { "seed" => self.seed }
///         state { self.at, self.trail }
///     }
/// }
///
/// let mut run = Walk { seed: 3, at: 0, trail: Vec::new() };
/// let _ = run.step();
/// let bytes = snapshot(&run);
/// let mut other_seed = Walk { seed: 4, at: 0, trail: Vec::new() };
/// let err = resume(&mut other_seed, &bytes).expect_err("seed differs");
/// assert!(matches!(err, SnapshotError::Mismatch { field: "seed", .. }));
/// ```
#[macro_export]
macro_rules! snapshot_fields {
    (impl Field for $t:ty { $($f:ident),* $(,)? }) => {
        impl $crate::snapshot::Field for $t {
            fn put(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                $($crate::snapshot::Field::put(&self.$f, w);)*
            }

            fn take(
                &mut self,
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> ::std::result::Result<(), $crate::snapshot::SnapshotError> {
                $($crate::snapshot::Field::take(&mut self.$f, r)?;)*
                Ok(())
            }
        }
    };
    (
        $this:ident;
        identity { $($name:literal => $id:expr),* $(,)? }
        state { $($place:expr),* $(,)? }
        $(then $then:block)?
    ) => {
        fn save(&$this, w: &mut $crate::snapshot::SnapshotWriter) {
            $($crate::snapshot::Field::put(&$id, w);)*
            $($crate::snapshot::Field::put(&$place, w);)*
        }

        fn restore(
            &mut $this,
            r: &mut $crate::snapshot::SnapshotReader<'_>,
        ) -> ::std::result::Result<(), $crate::snapshot::SnapshotError> {
            $(r.expect($name, &$id)?;)*
            $($crate::snapshot::Field::take(&mut $place, r)?;)*
            $($then)?
            Ok(())
        }
    };
}

snapshot_fields! {
    impl Field for RoundLedger { rounds, messages, bits, violations, phases }
}

snapshot_fields! {
    impl Field for PhaseRecord { label, rounds, messages, bits }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `value` after a `"demo"` header.
    fn encode<T: Field>(value: &T) -> Vec<u8> {
        let mut w = SnapshotWriter::new("demo");
        value.put(&mut w);
        w.finish()
    }

    /// Decodes one `T` from `bytes` into `into`, requiring every byte used.
    fn decode<T: Field>(bytes: &[u8], into: &mut T) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        into.take(&mut r)?;
        r.finish()
    }

    fn round_trip<T: Field + Default + PartialEq + fmt::Debug>(value: T) {
        let mut back = T::default();
        decode(&encode(&value), &mut back).expect("field decodes");
        assert_eq!(back, value);
    }

    #[test]
    fn round_trips_every_field_kind() {
        round_trip(7u32);
        round_trip(u64::MAX);
        round_trip(42usize);
        round_trip(true);
        round_trip(0.125f64);
        round_trip(String::from("phase t0=3"));
        round_trip(Some(9u64));
        round_trip(None::<u64>);
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(vec![true, false]);
        round_trip(vec![None, Some(5u64)]);
        round_trip(vec![Some(0.5f64), None]);
        round_trip(vec![NodeId::new(4), NodeId::new(0)]);
        let bytes = encode(&0.125f64);
        let r = SnapshotReader::new(&bytes).expect("header decodes");
        assert_eq!(r.algorithm(), "demo");
        assert_eq!(r.remaining(), 8);
    }

    #[test]
    fn ledger_round_trips_with_phases() {
        let phase = |label: &str, rounds, messages, bits| PhaseRecord {
            label: label.to_string(),
            rounds,
            messages,
            bits,
        };
        round_trip(RoundLedger {
            rounds: 4,
            messages: 1,
            bits: 12,
            violations: 1,
            phases: vec![phase("a", 1, 1, 12), phase("b", 3, 0, 0)],
        });
    }

    #[test]
    fn bad_magic_and_version_are_named() {
        assert_eq!(
            SnapshotReader::new(b"XXXX\x01\x00\x00\x00").err(),
            Some(SnapshotError::BadMagic)
        );
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            SnapshotReader::new(&bytes).err(),
            Some(SnapshotError::BadVersion { found: 99 })
        );
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&vec![5u64, 6]);
        let mut v = Vec::<u64>::new();
        assert!(matches!(
            decode(&bytes[..bytes.len() - 1], &mut v),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_length_is_corrupt_not_alloc() {
        // An absurd element count is rejected before any element is read.
        let bytes = encode(&u64::MAX);
        let mut v = Vec::<bool>::new();
        assert!(matches!(
            decode(&bytes, &mut v),
            Err(SnapshotError::Corrupt { .. })
        ));
        assert!(v.is_empty());
    }

    #[test]
    fn bool_bytes_other_than_zero_and_one_are_corrupt() {
        let mut bytes = encode(&true);
        *bytes.last_mut().expect("bool byte present") = 2;
        assert!(matches!(
            decode(&bytes, &mut false),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn expect_reports_field_and_values() {
        let bytes = encode(&3u64);
        let mut r = SnapshotReader::new(&bytes).expect("header decodes");
        let err = r.expect("seed", &7u64).expect_err("mismatch detected");
        let msg = err.to_string();
        assert!(msg.contains("seed"), "{msg}");
        assert!(msg.contains('3') && msg.contains('7'), "{msg}");
        // Floats compare by bit pattern: -0.0 is not 0.0.
        let bytes = encode(&-0.0f64);
        let mut r = SnapshotReader::new(&bytes).expect("header decodes");
        assert!(r.expect("clique_factor", &0.0f64).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let bytes = encode(&1u64);
        let r = SnapshotReader::new(&bytes).expect("header decodes");
        assert_eq!(
            r.finish().err(),
            Some(SnapshotError::TrailingBytes { remaining: 8 })
        );
    }
}
