//! Sharded worker runtime: framed delivery, checkpointed workers, recovery.
//!
//! The paper's congested-clique model assumes perfectly reliable all-to-all
//! communication; this module drops that assumption. Round delivery can
//! cross a *serialization boundary*: a [`ShardedTransport`] partitions the
//! destination id space over `S` worker shards, each of which receives its
//! slice of the round's messages as a length-prefixed byte frame, performs
//! the shard-local counting scatter over opaque payload bytes, and returns
//! the reordered slice as another frame. The coordinator concatenates the
//! shard inboxes — dst-major, send order within each destination — which is
//! byte-identical to the direct in-process scatter in
//! [`crate::runtime::Round::deliver`] at any shard count. A pulled
//! [`crate::runtime::Round::exchange_with_neighbors`] is a local broadcast
//! (each sender tells every receiving neighbour the same value), so its
//! `EXCHANGE` frame carries each sender's message once, in a table, and
//! each message as the sender's `u32` index in a per-destination run. It
//! is already a shard's inbox: the worker checks it and echoes it, and the
//! coordinator folds the runs into its visitor in the order the direct
//! pull visits them.
//!
//! Two [`FrameLink`] backends speak the same codec:
//!
//! * [`ChannelLink`] — in-process byte queues, the default. `send` runs the
//!   worker synchronously (no threads: `clippy.toml` confines threading to
//!   `par_nodes`), so it is deterministic at any `S` and needs no OS
//!   support.
//! * [`ProcessLink`] — real OS processes: the coordinator binds a Unix
//!   domain socket, spawns `clique-mis worker --socket PATH --shard K`
//!   children, and exchanges the identical frames over the stream. Raw
//!   process/socket APIs are confined to this module (`clippy.toml`). The
//!   child is this process's own executable, so both ends always speak the
//!   same protocol.
//!
//! # Frame format
//!
//! ```text
//! len       u32 LE   bytes after this field (kind + checksum + payload)
//! kind      u8       FrameKind discriminant
//! checksum  u64 LE   4-lane mix3 chain over (kind, payload length, words)
//! payload   bytes    kind-specific, see the protocol table below
//! ```
//!
//! Every frame is checksummed by its sender and verified by its receiver,
//! in both directions. [`frame_checksum`] runs four independent `mix3`
//! chains over the payload's 8-byte words (lane `j` takes word `j` of each
//! 32-byte block, keyed by block index), so a frame costs a quarter of a
//! serial chain's latency while any single corrupted word is still always
//! caught.
//!
//! # Protocol
//!
//! | request                                      | reply |
//! |----------------------------------------------|-------|
//! | `INIT [shard u32][n u32][dst_lo][dst_hi]`    | `ACK [shard u32]` |
//! | `ROUND [round u64][count u32]` + entries     | `INBOX [round u64][fingerprint u64][count u32]` + entries |
//! | `EXCHANGE [round u64][count u32][senders u32]` + table + runs | `INBOX [round u64][fingerprint u64][count u32][senders u32]` + table + runs |
//! | `SAVE` (empty)                               | `STATE [CCMS snapshot bytes]` |
//! | `RESTORE [CCMS snapshot bytes]`              | `ACK [shard u32]` |
//! | `SHUTDOWN` (empty)                           | none (worker exits) |
//!
//! `ROUND` entries are `[src u32][dst u32][len u32][payload bytes]` in send
//! order; `INBOX` entries are the same layout in scattered (dst-major)
//! order. An `EXCHANGE`'s table holds one `[src u32][len u32][payload
//! bytes]` per sender, sources ascending; its runs follow, one per
//! receiving destination, destinations ascending: `[dst u32][run u32]` and
//! `run` indices into the table, each a `u32`, ascending. `count` is the
//! number of messages: `ROUND` entries or `EXCHANGE` indices. Both request
//! kinds open with `[round][count]`, and the `INBOX` echoes them with the
//! worker's fingerprint in between; an exchange's `INBOX` then repeats the
//! rest of the request byte for byte. Workers never decode message
//! payloads — `M` is encoded by the coordinator via [`Wire`] and treated as
//! opaque bytes in flight — but a worker checks an `EXCHANGE`'s shape
//! before it echoes it: sources ascending, every payload inside the frame,
//! runs non-empty with their destinations inside the shard and ascending,
//! indices inside the table and ascending within a run, exactly `count`
//! of them and no trailing byte.
//!
//! The coordinator checks each `INBOX`'s shape as it reads it: its message
//! count must equal the request's, and no destination may receive more
//! messages than were framed for it — in `deliver` no entry may overrun
//! its destination's slots in the arena; in an exchange the table must be
//! the one framed, each payload must decode to exactly one `M`, and each
//! destination's run must hold exactly the messages framed for it, with
//! the worker's shape checks repeated.
//!
//! # Where the bytes go
//!
//! Framed delivery touches each message's bytes a fixed, small number of
//! times. `deliver` builds every shard's `ROUND` frame in place, in one
//! pass over the outbox: it reserves the header, `Wire`-encodes each
//! message straight into its shard's frame, and seals the header last. The
//! worker counts entry bytes per destination, prefix-sums them into write
//! offsets, and copies each entry once, reading the round payload in
//! order, into an `INBOX` frame that is also built in place; `deliver`
//! decodes that `INBOX` into the arena. A pulled exchange has no outbox:
//! it `Wire`-encodes the sender table into the first shard's frame and
//! copies it into the others, and its receiver-order walk appends one
//! `u32` per message ([`ExchangeRuns`]). The worker copies the checked
//! frame into its `INBOX` in one piece, and the coordinator decodes the
//! table once per shard and folds each run by table lookup. The channel
//! backend hands reply buffers over by swapping, never copying, and the
//! worker writes each checkpoint into a recycled buffer, so a steady-state
//! round allocates nothing.
//!
//! Over six `kronecker(16, 8)` Theorem 1.1 solves (one thread, two channel
//! shards; 3.14 M pulled messages and 24.8 MB of `EXCHANGE` frames per
//! solve, 7.9 bytes per message against 18.2 for per-receiver entries), a
//! solve's framed exchanges spend about 0.07–0.09 s building frames (the
//! receiver walk included), 0.05 s on the four checksum passes (both ends
//! of both frames), 0.02–0.03 s in the worker's checks and copy,
//! 0.04–0.06 s decoding the table and folding the runs, and under 1 ms on
//! checkpoints.
//!
//! # Fingerprints make recovery load-bearing
//!
//! Each worker chains `fingerprint = mix3(fingerprint, frame_checksum,
//! round)` over every `ROUND` or `EXCHANGE` frame it applies; the
//! coordinator maintains
//! the identical mirror chain at send time and verifies it on every
//! `INBOX`. The fingerprint is part of the worker's checkpoint, so a
//! recovered worker that skipped its `RESTORE` (or restored the wrong
//! round) produces a mismatched chain and the run fails loudly instead of
//! silently diverging.
//!
//! # Recovery
//!
//! After every round the coordinator collects a `SAVE` checkpoint from each
//! shard (round 0's is taken at construction) and retains the last `ROUND`
//! or `EXCHANGE` frame per shard. When a link dies
//! ([`ShardError::WorkerDead`] or an I/O error), the coordinator respawns
//! the worker, replays `INIT` + `RESTORE(last checkpoint)` + the retained
//! frame, and resumes —
//! so a killed-and-recovered run is byte-identical (MIS, ledger, trace) to
//! the unkilled run at every (shard, round) injection point. Fault
//! injection for tests and the CLI is a process-global
//! [`FaultPlan`] armed via [`arm_fault`].

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};
use std::mem;
use std::ops;
#[allow(
    clippy::disallowed_types,
    reason = "the shard module owns worker processes and their sockets"
)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
#[allow(
    clippy::disallowed_types,
    reason = "the shard module owns worker processes and their sockets"
)]
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use cc_mis_graph::rng::mix3;
use cc_mis_graph::NodeId;

use crate::bits::idx_u32;
use crate::pool::RoundBuffers;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Snapshot algorithm id for per-shard worker checkpoints.
const WORKER_ALGORITHM: &str = "shard-worker";

/// Byte codec for message types crossing the shard boundary.
///
/// The encoding contract is exactness: `decode(encode(m)) == m` and the
/// encoded bytes are a pure function of the value, so framed delivery is
/// byte-deterministic. Implementations exist for the primitive types the
/// in-tree algorithms send; algorithm crates implement it for their own
/// message structs (e.g. the clique-MIS announcement).
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value, advancing the cursor; `None` on truncation or a
    /// malformed encoding.
    fn decode(r: &mut WireCursor<'_>) -> Option<Self>;
}

/// Forward-only reader over an encoded byte slice.
#[derive(Debug)]
pub struct WireCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireCursor { buf, pos: 0 }
    }

    /// Takes the next `n` bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Some(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Some(u64::from_le_bytes(a))
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut WireCursor<'_>) -> Option<Self> {
        Some(())
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireCursor<'_>) -> Option<Self> {
        match r.take(1)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut WireCursor<'_>) -> Option<Self> {
        Some(r.take(1)?[0])
    }
}

impl Wire for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireCursor<'_>) -> Option<Self> {
        let b = r.take(2)?;
        let mut a = [0u8; 2];
        a.copy_from_slice(b);
        Some(u16::from_le_bytes(a))
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireCursor<'_>) -> Option<Self> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireCursor<'_>) -> Option<Self> {
        r.u64()
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        idx_u32(self.len()).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireCursor<'_>) -> Option<Self> {
        let len = r.u32()? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireCursor<'_>) -> Option<Self> {
        match r.take(1)?[0] {
            0 => Some(None),
            1 => Some(Some(T::decode(r)?)),
            _ => None,
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut WireCursor<'_>) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?))
    }
}

/// Frame kinds. The discriminants are the on-wire `kind` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Coordinator → worker: identity + destination range.
    Init = 1,
    /// Coordinator → worker: one round's messages for this shard.
    Round = 2,
    /// Worker → coordinator: the scattered inbox slice.
    Inbox = 3,
    /// Coordinator → worker: checkpoint request.
    Save = 4,
    /// Worker → coordinator: checkpoint bytes.
    State = 5,
    /// Coordinator → worker: restore from checkpoint bytes.
    Restore = 6,
    /// Worker → coordinator: acknowledgement (INIT / RESTORE).
    Ack = 7,
    /// Coordinator → worker: exit cleanly.
    Shutdown = 8,
    /// Coordinator → worker: one pulled neighbour exchange for this shard.
    Exchange = 9,
}

impl FrameKind {
    /// The wire byte (the discriminant, spelled as a match so the frame
    /// encoder stays cast-free on the charge path).
    fn byte(self) -> u8 {
        match self {
            FrameKind::Init => 1,
            FrameKind::Round => 2,
            FrameKind::Inbox => 3,
            FrameKind::Save => 4,
            FrameKind::State => 5,
            FrameKind::Restore => 6,
            FrameKind::Ack => 7,
            FrameKind::Shutdown => 8,
            FrameKind::Exchange => 9,
        }
    }

    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::Init,
            2 => FrameKind::Round,
            3 => FrameKind::Inbox,
            4 => FrameKind::Save,
            5 => FrameKind::State,
            6 => FrameKind::Restore,
            7 => FrameKind::Ack,
            8 => FrameKind::Shutdown,
            9 => FrameKind::Exchange,
            _ => return None,
        })
    }
}

/// Bytes of frame header after the length prefix: kind + checksum.
const FRAME_AFTER_LEN: usize = 1 + 8;

/// Why a frame or a shard operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The frame or payload ended before an expected field.
    Truncated,
    /// The kind byte is not a known [`FrameKind`].
    BadKind(u8),
    /// The checksum in the header does not match the payload.
    BadChecksum {
        /// Checksum recomputed from the received bytes.
        expected: u64,
        /// Checksum carried in the frame header.
        found: u64,
    },
    /// The peer is gone: a killed in-process worker, a closed socket, or a
    /// child that exited.
    WorkerDead,
    /// The peer answered with the wrong frame or inconsistent fields.
    Protocol(&'static str),
    /// An OS-level I/O failure on a process link.
    Io(String),
    /// A worker's fingerprint chain diverged from the coordinator's mirror:
    /// the worker applied different round frames than were sent (e.g. a
    /// recovery that skipped its restore).
    Fingerprint {
        /// Which shard diverged.
        shard: usize,
        /// The coordinator's mirror chain value.
        expected: u64,
        /// The chain value the worker reported.
        found: u64,
    },
    /// A worker checkpoint failed to decode or matched the wrong identity.
    Snapshot(SnapshotError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Truncated => write!(f, "frame truncated"),
            ShardError::BadKind(b) => write!(f, "unknown frame kind byte {b}"),
            ShardError::BadChecksum { expected, found } => write!(
                f,
                "frame checksum mismatch: computed {expected:#018x}, header says {found:#018x}"
            ),
            ShardError::WorkerDead => write!(f, "shard worker is dead"),
            ShardError::Protocol(what) => write!(f, "shard protocol error: {what}"),
            ShardError::Io(what) => write!(f, "shard link I/O error: {what}"),
            ShardError::Fingerprint {
                shard,
                expected,
                found,
            } => write!(
                f,
                "shard {shard} fingerprint chain diverged: coordinator mirror \
                 {expected:#018x}, worker reports {found:#018x}"
            ),
            ShardError::Snapshot(e) => write!(f, "worker checkpoint error: {e}"),
        }
    }
}

impl Error for ShardError {}

impl From<SnapshotError> for ShardError {
    fn from(e: SnapshotError) -> Self {
        ShardError::Snapshot(e)
    }
}

fn io_err(e: std::io::Error) -> ShardError {
    ShardError::Io(e.to_string())
}

/// Independent `mix3` chains in [`frame_checksum`]; one 8-byte word each
/// per block of `LANES * 8` payload bytes.
const LANES: usize = 4;

/// Little-endian `u64` from an 8-byte slice.
fn le_word(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    u64::from_le_bytes(a)
}

/// The deterministic frame checksum: four interleaved [`mix3`] chains over
/// the payload's little-endian 8-byte words (the last word zero-padded).
///
/// The payload is cut into 32-byte blocks; lane `j` folds word `j` of
/// every block as `h_j = mix3(h_j, word, block_index)`, and a short final
/// block feeds only the lanes its words reach. Every lane starts from
/// `mix3(tag, kind, payload length)` keyed by its lane index, and the four
/// lanes are folded with `mix3` at the end. `mix3` is a bijection in each
/// argument, so corrupting any single word always changes the checksum.
/// Keying every word by its block index ties it to its position, and two
/// words swapped within a block land in different lanes. The lanes only
/// shorten the dependency chain (four
/// independent multiply chains instead of one), which is what makes the
/// checksum cheap enough to run on both ends of every frame.
pub fn frame_checksum(kind: FrameKind, payload: &[u8]) -> u64 {
    let seed = mix3(
        0x6672_616D_655F_6B32,
        u64::from(kind.byte()),
        payload.len() as u64,
    );
    let mut lanes = [0u64; LANES];
    for (j, h) in lanes.iter_mut().enumerate() {
        *h = mix3(seed, j as u64, 0);
    }
    let mut blocks = payload.chunks_exact(LANES * 8);
    let mut block = 0u64;
    for words in &mut blocks {
        for (h, word) in lanes.iter_mut().zip(words.chunks_exact(8)) {
            *h = mix3(*h, le_word(word), block);
        }
        block += 1;
    }
    for (h, chunk) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut a = [0u8; 8];
        a[..chunk.len()].copy_from_slice(chunk);
        *h = mix3(*h, u64::from_le_bytes(a), block);
    }
    mix3(mix3(lanes[0], lanes[1], lanes[2]), lanes[3], seed)
}

/// Bytes before a frame's payload: the length prefix, kind and checksum.
const FRAME_HEADER: usize = 4 + FRAME_AFTER_LEN;

/// Clears `out` and reserves the header of a frame whose payload the
/// caller appends next; [`seal_frame`] then fills the header in place.
fn open_frame(out: &mut Vec<u8>) {
    out.clear();
    out.resize(FRAME_HEADER, 0);
}

/// Completes a frame opened with [`open_frame`]: writes the length prefix,
/// kind and checksum of the payload `out[FRAME_HEADER..]` into the reserved
/// header, and returns the checksum.
fn seal_frame(kind: FrameKind, out: &mut [u8]) -> u64 {
    let (header, payload) = out.split_at_mut(FRAME_HEADER);
    let checksum = frame_checksum(kind, payload);
    header[..4].copy_from_slice(&idx_u32(FRAME_AFTER_LEN + payload.len()).to_le_bytes());
    header[4] = kind.byte();
    header[5..].copy_from_slice(&checksum.to_le_bytes());
    checksum
}

/// Encodes a complete frame (length prefix, kind, checksum, payload) into
/// `out` (cleared first) and returns the checksum.
pub fn encode_frame(kind: FrameKind, payload: &[u8], out: &mut Vec<u8>) -> u64 {
    open_frame(out);
    out.extend_from_slice(payload);
    seal_frame(kind, out)
}

/// Decodes a complete frame, verifying structure and checksum. Returns the
/// kind, the payload slice, and the verified checksum.
///
/// # Errors
///
/// [`ShardError::Truncated`] when the bytes are shorter than the header
/// claims, [`ShardError::BadKind`] on an unknown kind byte, and
/// [`ShardError::BadChecksum`] when the payload does not hash to the header
/// checksum (bit corruption in flight).
pub fn decode_frame(frame: &[u8]) -> Result<(FrameKind, &[u8], u64), ShardError> {
    let mut c = WireCursor::new(frame);
    let len = c.u32().ok_or(ShardError::Truncated)? as usize;
    if len < FRAME_AFTER_LEN || frame.len() != 4 + len {
        return Err(ShardError::Truncated);
    }
    let kind_byte = c.take(1).ok_or(ShardError::Truncated)?[0];
    let kind = FrameKind::from_u8(kind_byte).ok_or(ShardError::BadKind(kind_byte))?;
    let found = c.u64().ok_or(ShardError::Truncated)?;
    let payload = &frame[FRAME_HEADER..];
    let expected = frame_checksum(kind, payload);
    if expected != found {
        return Err(ShardError::BadChecksum { expected, found });
    }
    Ok((kind, payload, found))
}

/// Bytes of a `ROUND` / `INBOX` entry header: `[src u32][dst u32][len u32]`.
const ENTRY_HEAD: usize = 12;

/// Appends the entry `[src][dst][len][payload]` of message `m` to `out`.
fn push_entry<M: Wire>(out: &mut Vec<u8>, src: u32, dst: u32, m: &M) {
    push_u32(out, src);
    push_u32(out, dst);
    push_payload(out, m);
}

/// Appends `[len u32][payload]` for message `m`: `m` is encoded straight
/// into place and its length back-patched.
fn push_payload<M: Wire>(out: &mut Vec<u8>, m: &M) {
    push_u32(out, 0);
    let at = out.len();
    m.encode(out);
    let len = idx_u32(out.len() - at);
    out[at - 4..at].copy_from_slice(&len.to_le_bytes());
}

/// Appends the runs of an `EXCHANGE` frame, one message at a time: a
/// message for a new destination closes the open run (back-patching its
/// length) and opens `[dst][run]`; every message adds its sender's index.
pub(crate) struct ExchangeRuns<'f> {
    frame: &'f mut Vec<u8>,
    dst: u32,
    /// Where the open run's indices start; 0 while no run is open (a frame
    /// header always precedes the runs).
    at: usize,
}

impl ExchangeRuns<'_> {
    /// Appends a message to `dst` from the sender at `index` of the table.
    #[inline]
    pub(crate) fn push(&mut self, dst: NodeId, index: usize) {
        if self.at == 0 || dst.raw() != self.dst {
            self.close();
            push_u32(self.frame, dst.raw());
            push_u32(self.frame, 0);
            self.dst = dst.raw();
            self.at = self.frame.len();
        }
        push_u32(self.frame, idx_u32(index));
    }

    /// Writes the open run's length into its header.
    fn close(&mut self) {
        if self.at > 0 {
            let run = idx_u32((self.frame.len() - self.at) / 4);
            self.frame[self.at - 4..self.at].copy_from_slice(&run.to_le_bytes());
        }
    }
}

/// Reads the sender table of an `EXCHANGE` body, `senders` entries of
/// `[src u32][len u32][payload]`, calling `sender(src, payload)` for each.
/// Sources must be strictly ascending and every payload must lie inside
/// the frame. Nothing is allocated by the claimed count: a count larger
/// than the entries present ends in [`ShardError::Truncated`].
fn walk_table(
    c: &mut WireCursor<'_>,
    senders: u32,
    mut sender: impl FnMut(u32, &[u8]) -> Result<(), ShardError>,
) -> Result<(), ShardError> {
    let mut last = None;
    for _ in 0..senders {
        let src = c.u32().ok_or(ShardError::Truncated)?;
        let len = c.u32().ok_or(ShardError::Truncated)?;
        let payload = c.take(len as usize).ok_or(ShardError::Truncated)?;
        if last >= Some(src) {
            return Err(ShardError::Protocol(
                "exchange sender table repeats or reorders a sender",
            ));
        }
        last = Some(src);
        sender(src, payload)?;
    }
    Ok(())
}

/// Reads the runs of an `EXCHANGE` body up to its end: `[dst u32][run
/// u32]` and `run` sender indices, `count` messages in all. Calls
/// `run(dst, len)` as each run opens and `message(dst, index)` for each of
/// its indices. Destinations must lie in `dsts` and be strictly ascending,
/// runs must hold at least one message and no more than the count has
/// left, indices must be below `senders` and strictly ascending within
/// their run, and no byte may follow the last run.
fn walk_runs(
    c: &mut WireCursor<'_>,
    senders: u32,
    count: u32,
    dsts: ops::Range<u32>,
    mut run: impl FnMut(u32, u32) -> Result<(), ShardError>,
    mut message: impl FnMut(u32, usize),
) -> Result<(), ShardError> {
    let mut left = count;
    let mut min_dst = dsts.start;
    while left > 0 {
        let dst = c.u32().ok_or(ShardError::Truncated)?;
        let len = c.u32().ok_or(ShardError::Truncated)?;
        if dst < min_dst || dst >= dsts.end {
            return Err(ShardError::Protocol(
                "exchange run repeats or reorders a destination, or leaves the shard",
            ));
        }
        if len == 0 || len > left {
            return Err(ShardError::Protocol(
                "exchange run is empty or overruns the message count",
            ));
        }
        run(dst, len)?;
        let indices = c.take(len as usize * 4).ok_or(ShardError::Truncated)?;
        let mut min_index = 0;
        for index in indices.chunks_exact(4) {
            let index = le_u32_at(index, 0);
            if index < min_index || index >= senders {
                return Err(ShardError::Protocol(
                    "exchange run index repeats, descends or leaves the sender table",
                ));
            }
            min_index = index + 1;
            message(dst, index as usize);
        }
        left -= len;
        min_dst = dst + 1;
    }
    if !c.done() {
        return Err(ShardError::Protocol("trailing bytes in exchange frame"));
    }
    Ok(())
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads one complete frame (length prefix included) from a byte stream
/// into `frame`. EOF or a mid-frame stream failure maps to
/// [`ShardError::WorkerDead`]: the peer is gone. The length prefix is
/// untrusted, so `frame` grows only as bytes actually arrive: a corrupt
/// prefix claiming gigabytes costs no more memory than the bytes sent.
fn read_stream_frame(stream: &mut impl Read, frame: &mut Vec<u8>) -> Result<(), ShardError> {
    let mut len_bytes = [0u8; 4];
    if stream.read_exact(&mut len_bytes).is_err() {
        return Err(ShardError::WorkerDead);
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len < FRAME_AFTER_LEN {
        return Err(ShardError::Truncated);
    }
    frame.clear();
    frame.extend_from_slice(&len_bytes);
    match stream.by_ref().take(len as u64).read_to_end(frame) {
        Ok(got) if got == len => Ok(()),
        _ => Err(ShardError::WorkerDead),
    }
}

/// One shard worker's complete state: identity, counters, the fingerprint
/// chain, and scatter scratch. Shared verbatim by both backends — the
/// in-process [`ChannelLink`] holds one directly and the `clique-mis
/// worker` child process holds one behind its socket loop — so the two
/// backends cannot diverge behaviorally.
#[derive(Debug, Default)]
struct WorkerState {
    shard: u32,
    n: u32,
    dst_lo: u32,
    dst_hi: u32,
    /// Rounds applied so far (the last applied frame's round number).
    applied: u64,
    /// Messages scattered so far.
    delivered: u64,
    /// Payload bytes scattered so far.
    bytes: u64,
    /// `mix3` chain over applied round-frame checksums (see module docs).
    fingerprint: u64,
    /// Scatter scratch: per-local-destination entry bytes, then their
    /// write cursors in the reply — capacity recycled across rounds.
    cursors: Vec<usize>,
    /// Checkpoint scratch: the last `SAVE`'s snapshot bytes, whose
    /// allocation the next `SAVE` writes into.
    snapshot: Vec<u8>,
}

impl WorkerState {
    fn fresh(shard: u32) -> Self {
        WorkerState {
            shard,
            ..WorkerState::default()
        }
    }

    fn width(&self) -> usize {
        (self.dst_hi - self.dst_lo) as usize
    }

    crate::snapshot_fields! {
        self;
        identity {
            "shard" => self.shard,
            "n" => self.n,
            "dst_lo" => self.dst_lo,
            "dst_hi" => self.dst_hi,
        }
        state { self.applied, self.delivered, self.bytes, self.fingerprint }
    }

    /// Encodes this worker's checkpoint into its recycled snapshot buffer.
    fn save_bytes(&mut self) -> &[u8] {
        let mut w = SnapshotWriter::with_buffer(mem::take(&mut self.snapshot), WORKER_ALGORITHM);
        self.save(&mut w);
        self.snapshot = w.finish();
        &self.snapshot
    }

    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), ShardError> {
        let mut r = SnapshotReader::new(bytes)?;
        if r.algorithm() != WORKER_ALGORITHM {
            return Err(ShardError::Protocol(
                "checkpoint is not a shard-worker snapshot",
            ));
        }
        self.restore(&mut r)?;
        r.finish()?;
        Ok(())
    }

    /// Applies one `ROUND` or `EXCHANGE` payload: checks its shape, updates
    /// the counters and the fingerprint, and builds the complete `INBOX`
    /// reply in place in `reply`. Both kinds open with `[round u64][count
    /// u32]`, and the reply echoes them after the fingerprint.
    ///
    /// A `ROUND`'s entries are scattered dst-major (see
    /// [`WorkerState::scatter`]). An `EXCHANGE` is already a shard's inbox
    /// (see the module docs), so once its shape checks out the rest of its
    /// payload is copied into the reply in one piece.
    fn apply_round(
        &mut self,
        kind: FrameKind,
        payload: &[u8],
        checksum: u64,
        reply: &mut Vec<u8>,
    ) -> Result<(), ShardError> {
        let mut c = WireCursor::new(payload);
        let round = c.u64().ok_or(ShardError::Truncated)?;
        if round != self.applied + 1 {
            return Err(ShardError::Protocol("round frame out of sequence"));
        }
        let count = c.u32().ok_or(ShardError::Truncated)?;
        let body = &payload[c.pos()..];
        let bytes = if kind == FrameKind::Exchange {
            let senders = c.u32().ok_or(ShardError::Truncated)?;
            let mut bytes = 0;
            walk_table(&mut c, senders, |_, m| {
                bytes += m.len() as u64;
                Ok(())
            })?;
            let dsts = self.dst_lo..self.dst_hi;
            walk_runs(&mut c, senders, count, dsts, |_, _| Ok(()), |_, _| {})?;
            bytes
        } else {
            self.count_entries(&mut c, count)?
        };
        self.applied = round;
        self.delivered += u64::from(count);
        self.bytes += bytes;
        self.fingerprint = mix3(self.fingerprint, checksum, round);
        open_frame(reply);
        push_u64(reply, round);
        push_u64(reply, self.fingerprint);
        push_u32(reply, count);
        if kind == FrameKind::Exchange {
            reply.extend_from_slice(body);
        } else {
            self.scatter(body, reply);
        }
        seal_frame(FrameKind::Inbox, reply);
        Ok(())
    }

    /// Checks a `ROUND`'s `count` entries `[src][dst][len][payload]` and
    /// counts each local destination's entry bytes into the scatter
    /// cursors. Returns the payload bytes.
    fn count_entries(&mut self, c: &mut WireCursor<'_>, count: u32) -> Result<u64, ShardError> {
        self.cursors.clear();
        self.cursors.resize(self.width(), 0);
        let mut bytes = 0;
        for _ in 0..count {
            let _src = c.u32().ok_or(ShardError::Truncated)?;
            let dst = c.u32().ok_or(ShardError::Truncated)?;
            let len = c.u32().ok_or(ShardError::Truncated)?;
            c.take(len as usize).ok_or(ShardError::Truncated)?;
            if dst < self.dst_lo || dst >= self.dst_hi {
                return Err(ShardError::Protocol(
                    "entry destination outside shard range",
                ));
            }
            bytes += u64::from(len);
            self.cursors[(dst - self.dst_lo) as usize] += ENTRY_HEAD + len as usize;
        }
        if !c.done() {
            return Err(ShardError::Protocol("trailing bytes in round frame"));
        }
        Ok(bytes)
    }

    /// The shard-local counting scatter of a checked `ROUND`'s `entries`
    /// into dst-major order after the `INBOX` header already in `reply`.
    /// The per-destination byte totals of [`WorkerState::count_entries`]
    /// are prefix-summed into write cursors inside the reply, and every
    /// entry is then copied once, reading the round payload front to back,
    /// so entries for one destination keep their arrival order.
    fn scatter(&mut self, entries: &[u8], reply: &mut Vec<u8>) {
        let mut acc = reply.len();
        for cursor in &mut self.cursors {
            let bytes = *cursor;
            *cursor = acc;
            acc += bytes;
        }
        reply.resize(acc, 0);
        let mut at = 0;
        while at < entries.len() {
            let dst = le_u32_at(entries, at + 4);
            let len = le_u32_at(entries, at + 8) as usize;
            let size = ENTRY_HEAD + len;
            let cursor = &mut self.cursors[(dst - self.dst_lo) as usize];
            reply[*cursor..*cursor + size].copy_from_slice(&entries[at..at + size]);
            *cursor += size;
            at += size;
        }
    }
}

/// The little-endian `u32` at byte offset `at` of `buf`.
fn le_u32_at(buf: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(a)
}

/// Handles one decoded request frame against `state`, writing the complete
/// encoded reply frame into `reply`. `SHUTDOWN` is the caller's concern
/// (both backends terminate the worker before reaching here).
fn handle_frame(
    state: &mut WorkerState,
    kind: FrameKind,
    payload: &[u8],
    checksum: u64,
    reply: &mut Vec<u8>,
) -> Result<(), ShardError> {
    match kind {
        FrameKind::Init => {
            let mut c = WireCursor::new(payload);
            let shard = c.u32().ok_or(ShardError::Truncated)?;
            let n = c.u32().ok_or(ShardError::Truncated)?;
            let dst_lo = c.u32().ok_or(ShardError::Truncated)?;
            let dst_hi = c.u32().ok_or(ShardError::Truncated)?;
            if !c.done() {
                return Err(ShardError::Protocol("trailing bytes in init frame"));
            }
            if shard != state.shard {
                return Err(ShardError::Protocol("init addressed to a different shard"));
            }
            if dst_lo > dst_hi || dst_hi > n {
                return Err(ShardError::Protocol(
                    "init destination range is inconsistent",
                ));
            }
            state.n = n;
            state.dst_lo = dst_lo;
            state.dst_hi = dst_hi;
            state.applied = 0;
            state.delivered = 0;
            state.bytes = 0;
            state.fingerprint = 0;
            encode_frame(FrameKind::Ack, &shard.to_le_bytes(), reply);
            Ok(())
        }
        FrameKind::Round | FrameKind::Exchange => state.apply_round(kind, payload, checksum, reply),
        FrameKind::Save => {
            encode_frame(FrameKind::State, state.save_bytes(), reply);
            Ok(())
        }
        FrameKind::Restore => {
            state.restore_bytes(payload)?;
            encode_frame(FrameKind::Ack, &state.shard.to_le_bytes(), reply);
            Ok(())
        }
        FrameKind::Inbox | FrameKind::State | FrameKind::Ack => {
            Err(ShardError::Protocol("reply frame sent to a worker"))
        }
        FrameKind::Shutdown => Err(ShardError::Protocol("shutdown must be handled by the link")),
    }
}

/// One coordinator↔worker frame channel. Both backends expose the same
/// four operations so [`ShardedTransport`] is backend-agnostic.
trait FrameLink {
    /// Submits one request frame. Sending to a dead worker is not an error
    /// (the loss surfaces at the next [`FrameLink::recv`]).
    fn send(&mut self, frame: &[u8]) -> Result<(), ShardError>;
    /// Receives the next reply frame into `out`.
    fn recv(&mut self, out: &mut Vec<u8>) -> Result<(), ShardError>;
    /// Kills the worker, dropping any undelivered replies (fault injection).
    fn kill(&mut self);
    /// Starts a fresh worker with empty state (the caller re-`INIT`s and
    /// `RESTORE`s it).
    fn respawn(&mut self) -> Result<(), ShardError>;
}

/// In-process backend: the worker runs synchronously inside `send`
/// (`clippy.toml` keeps threads out of this module) and replies queue as
/// byte frames, so the full frame codec is exercised without any OS
/// dependency and results are deterministic at any shard count.
///
/// Reply buffers circulate instead of being copied: `recv` swaps the queued
/// reply with the caller's buffer and keeps the caller's old one as the
/// next reply's storage, so steady-state rounds allocate nothing.
struct ChannelLink {
    shard: u32,
    worker: Option<WorkerState>,
    queue: VecDeque<Vec<u8>>,
    /// Recycled reply buffer (the one `recv` last swapped out).
    spare: Vec<u8>,
}

impl ChannelLink {
    fn new(shard: u32) -> Self {
        ChannelLink {
            shard,
            worker: Some(WorkerState::fresh(shard)),
            queue: VecDeque::new(),
            spare: Vec::new(),
        }
    }
}

impl FrameLink for ChannelLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), ShardError> {
        let Some(state) = self.worker.as_mut() else {
            // Dead worker: the frame is lost in flight, exactly like a
            // write to a killed process's socket buffer.
            return Ok(());
        };
        let (kind, payload, checksum) = decode_frame(frame)?;
        if kind == FrameKind::Shutdown {
            self.worker = None;
            return Ok(());
        }
        let mut reply = mem::take(&mut self.spare);
        handle_frame(state, kind, payload, checksum, &mut reply)?;
        self.queue.push_back(reply);
        Ok(())
    }

    fn recv(&mut self, out: &mut Vec<u8>) -> Result<(), ShardError> {
        match self.queue.pop_front() {
            Some(mut f) => {
                mem::swap(out, &mut f);
                self.spare = f;
                Ok(())
            }
            None => Err(ShardError::WorkerDead),
        }
    }

    fn kill(&mut self) {
        self.worker = None;
        self.queue.clear();
    }

    fn respawn(&mut self) -> Result<(), ShardError> {
        self.worker = Some(WorkerState::fresh(self.shard));
        self.queue.clear();
        Ok(())
    }
}

/// Monotone counter distinguishing socket and log paths created by this
/// process (no clocks or randomness: rule R3).
static PATH_SEQ: AtomicU64 = AtomicU64::new(0);

/// OS-process backend: the coordinator binds a Unix domain socket, spawns a
/// `clique-mis worker` child per shard, and exchanges the same frames over
/// the stream. The listener outlives the child so [`FrameLink::respawn`]
/// reuses the socket path.
#[allow(
    clippy::disallowed_types,
    reason = "the shard module owns worker processes and their sockets"
)]
struct ProcessLink {
    shard: u32,
    listener: UnixListener,
    socket_path: PathBuf,
    child: Option<Child>,
    stream: Option<UnixStream>,
}

impl ProcessLink {
    #[allow(
        clippy::disallowed_types,
        reason = "the shard module owns worker processes and their sockets"
    )]
    fn spawn(shard: u32) -> Result<Self, ShardError> {
        let seq = PATH_SEQ.fetch_add(1, Ordering::Relaxed);
        let socket_path = crate::config::socket_dir().join(format!(
            "cc-mis-{}-{}-{}.sock",
            std::process::id(),
            shard,
            seq
        ));
        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path).map_err(io_err)?;
        let mut link = ProcessLink {
            shard,
            listener,
            socket_path,
            child: None,
            stream: None,
        };
        link.spawn_child()?;
        Ok(link)
    }

    /// Spawns a worker child connected to this link's socket. Worker stderr
    /// goes to a log file under `CC_MIS_WORKER_LOG_DIR` when set (CI
    /// uploads these on failure), otherwise to null.
    #[allow(
        clippy::disallowed_types,
        reason = "the shard module owns worker processes and their sockets"
    )]
    fn spawn_child(&mut self) -> Result<(), ShardError> {
        let mut cmd = Command::new(worker_binary());
        cmd.arg("worker")
            .arg("--socket")
            .arg(&self.socket_path)
            .arg("--shard")
            .arg(self.shard.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        match crate::config::env_worker_log_dir() {
            Some(dir) => {
                let dir = PathBuf::from(dir);
                let _ = std::fs::create_dir_all(&dir);
                let log = dir.join(format!(
                    "worker-{}-{}-{}.log",
                    std::process::id(),
                    self.shard,
                    PATH_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                match std::fs::File::create(&log) {
                    Ok(f) => cmd.stderr(Stdio::from(f)),
                    Err(_) => cmd.stderr(Stdio::null()),
                }
            }
            None => cmd.stderr(Stdio::null()),
        };
        let child = cmd.spawn().map_err(io_err)?;
        let (stream, _) = self.listener.accept().map_err(io_err)?;
        self.child = Some(child);
        self.stream = Some(stream);
        Ok(())
    }

    #[allow(
        clippy::disallowed_methods,
        reason = "the shard module tears worker processes down"
    )]
    fn reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.stream = None;
    }
}

impl FrameLink for ProcessLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), ShardError> {
        match self.stream.as_mut() {
            Some(s) => s.write_all(frame).and_then(|()| s.flush()).map_err(io_err),
            // Dead worker: frame lost in flight, surfaces at recv.
            None => Ok(()),
        }
    }

    fn recv(&mut self, out: &mut Vec<u8>) -> Result<(), ShardError> {
        match self.stream.as_mut() {
            Some(s) => read_stream_frame(s, out),
            None => Err(ShardError::WorkerDead),
        }
    }

    fn kill(&mut self) {
        self.reap();
    }

    fn respawn(&mut self) -> Result<(), ShardError> {
        self.reap();
        self.spawn_child()
    }
}

impl Drop for ProcessLink {
    fn drop(&mut self) {
        if let Some(s) = self.stream.as_mut() {
            let mut frame = Vec::new();
            encode_frame(FrameKind::Shutdown, &[], &mut frame);
            let _ = s.write_all(&frame);
        }
        // Dropping the stream EOFs the worker's read loop; wait for a
        // clean exit rather than leaking children.
        self.stream = None;
        if let Some(mut child) = self.child.take() {
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

/// Entry point for the `clique-mis worker` child verb: connects to the
/// coordinator's socket and serves frames until `SHUTDOWN` or EOF.
///
/// # Errors
///
/// Returns the first protocol or I/O error; the CLI maps it to a nonzero
/// exit code and the message lands in the worker log.
#[allow(
    clippy::disallowed_types,
    reason = "the shard module owns worker processes and their sockets"
)]
pub fn worker_main(socket: &str, shard: u32) -> Result<(), ShardError> {
    let mut stream = UnixStream::connect(socket).map_err(io_err)?;
    let mut state = WorkerState::fresh(shard);
    let mut frame = Vec::new();
    let mut reply = Vec::new();
    loop {
        match read_stream_frame(&mut stream, &mut frame) {
            Ok(()) => {}
            // Coordinator closed the socket: a normal shutdown path.
            Err(ShardError::WorkerDead) => return Ok(()),
            Err(e) => return Err(e),
        }
        let (kind, payload, checksum) = decode_frame(&frame)?;
        if kind == FrameKind::Shutdown {
            return Ok(());
        }
        handle_frame(&mut state, kind, payload, checksum, &mut reply)?;
        stream
            .write_all(&reply)
            .and_then(|()| stream.flush())
            .map_err(io_err)?;
    }
}

/// Which [`FrameLink`] backend a [`ShardedTransport`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardBackend {
    /// In-process byte channels (default; no OS dependency).
    Channel,
    /// `clique-mis worker` child processes over Unix domain sockets.
    Process,
}

/// An error classified as "the worker is gone" — the cases recovery can
/// repair by respawn + restore + replay.
fn link_lost(e: &ShardError) -> bool {
    matches!(
        e,
        ShardError::WorkerDead | ShardError::Io(_) | ShardError::Truncated
    )
}

/// Coordinator side of the sharded runtime: owns one [`FrameLink`] per
/// shard, the per-shard checkpoint + retained-round-frame recovery state,
/// and the fingerprint mirror chains. See the module docs for the protocol.
pub(crate) struct ShardedTransport {
    n: usize,
    backend: ShardBackend,
    links: Vec<Box<dyn FrameLink>>,
    /// Destination-range boundaries: shard `k` owns dsts in
    /// `dst_cuts[k]..dst_cuts[k + 1]`.
    dst_cuts: Vec<u32>,
    /// Last `SAVE` checkpoint per shard (round 0's taken at construction).
    checkpoints: Vec<Vec<u8>>,
    /// Last `ROUND` or `EXCHANGE` frame sent per shard, retained for
    /// recovery replay.
    round_frames: Vec<Vec<u8>>,
    /// Message count of each shard's last request frame; its `INBOX` must
    /// return exactly as many.
    sent_counts: Vec<u32>,
    /// Coordinator-side fingerprint mirror chain per shard.
    mirrors: Vec<u64>,
    /// Rounds delivered through this transport.
    round: u64,
}

impl fmt::Debug for ShardedTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedTransport")
            .field("n", &self.n)
            .field("backend", &self.backend)
            .field("shards", &self.links.len())
            .field("round", &self.round)
            .finish()
    }
}

impl ShardedTransport {
    /// Builds a transport over `shards` workers for an `n`-node engine:
    /// spawns the links, `INIT`s each worker, and takes the round-0
    /// checkpoints.
    pub(crate) fn new(
        n: usize,
        shards: usize,
        backend: ShardBackend,
        buffers: &mut RoundBuffers,
    ) -> Result<Box<ShardedTransport>, ShardError> {
        let mut frame = buffers.take_frame();
        let mut recv = buffers.take_frame();
        let result = ShardedTransport::new_inner(n, shards, backend, &mut frame, &mut recv);
        buffers.retire_frame(frame);
        buffers.retire_frame(recv);
        result
    }

    fn new_inner(
        n: usize,
        shards: usize,
        backend: ShardBackend,
        frame: &mut Vec<u8>,
        recv: &mut Vec<u8>,
    ) -> Result<Box<ShardedTransport>, ShardError> {
        let shards = shards.max(1);
        let mut dst_cuts = Vec::with_capacity(shards + 1);
        for k in 0..=shards {
            dst_cuts.push(idx_u32(n * k / shards));
        }
        let mut links: Vec<Box<dyn FrameLink>> = Vec::with_capacity(shards);
        for k in 0..shards {
            let shard = idx_u32(k);
            links.push(match backend {
                ShardBackend::Channel => Box::new(ChannelLink::new(shard)),
                ShardBackend::Process => Box::new(ProcessLink::spawn(shard)?),
            });
        }
        let mut t = Box::new(ShardedTransport {
            n,
            backend,
            links,
            dst_cuts,
            checkpoints: vec![Vec::new(); shards],
            round_frames: vec![Vec::new(); shards],
            sent_counts: vec![0; shards],
            mirrors: vec![0; shards],
            round: 0,
        });
        for k in 0..shards {
            t.init_shard(k, frame, recv)?;
            t.checkpoint_shard(k, frame, recv)?;
        }
        Ok(t)
    }

    /// Node count this transport was built for.
    pub(crate) fn node_count(&self) -> usize {
        self.n
    }

    /// Rounds delivered through the frames so far.
    #[cfg(test)]
    pub(crate) fn rounds(&self) -> u64 {
        self.round
    }

    /// Sends `INIT` for shard `k` and consumes the `ACK`.
    fn init_shard(
        &mut self,
        k: usize,
        frame: &mut Vec<u8>,
        recv: &mut Vec<u8>,
    ) -> Result<(), ShardError> {
        let mut payload = [0u8; 16];
        payload[..4].copy_from_slice(&idx_u32(k).to_le_bytes());
        payload[4..8].copy_from_slice(&idx_u32(self.n).to_le_bytes());
        payload[8..12].copy_from_slice(&self.dst_cuts[k].to_le_bytes());
        payload[12..16].copy_from_slice(&self.dst_cuts[k + 1].to_le_bytes());
        encode_frame(FrameKind::Init, &payload, frame);
        self.links[k].send(frame)?;
        self.expect_ack(k, recv)
    }

    fn expect_ack(&mut self, k: usize, recv: &mut Vec<u8>) -> Result<(), ShardError> {
        self.links[k].recv(recv)?;
        let (kind, payload, _) = decode_frame(recv)?;
        if kind != FrameKind::Ack {
            return Err(ShardError::Protocol("expected ACK"));
        }
        let mut c = WireCursor::new(payload);
        if c.u32() != Some(idx_u32(k)) || !c.done() {
            return Err(ShardError::Protocol("ACK from the wrong shard"));
        }
        Ok(())
    }

    /// Requests a `SAVE` from shard `k` and stores the returned checkpoint.
    /// A shard found dead here (killed after its inbox was already
    /// delivered) is recovered first: its replayed inbox is validated
    /// against the mirror chain and discarded, then the save is retried.
    fn checkpoint_shard(
        &mut self,
        k: usize,
        frame: &mut Vec<u8>,
        recv: &mut Vec<u8>,
    ) -> Result<(), ShardError> {
        encode_frame(FrameKind::Save, &[], frame);
        if self.links[k].send(frame).is_err() {
            self.links[k].kill();
        }
        match self.links[k].recv(recv) {
            Ok(()) => {}
            Err(e) if link_lost(&e) => {
                let replayed = self.recover_shard(k, frame, recv)?;
                if replayed {
                    self.links[k].recv(recv)?;
                    self.validate_inbox_header(k, recv)?;
                }
                encode_frame(FrameKind::Save, &[], frame);
                self.links[k].send(frame)?;
                self.links[k].recv(recv)?;
            }
            Err(e) => return Err(e),
        }
        let (kind, payload, _) = decode_frame(recv)?;
        if kind != FrameKind::State {
            return Err(ShardError::Protocol("expected STATE"));
        }
        self.checkpoints[k].clear();
        self.checkpoints[k].extend_from_slice(payload);
        Ok(())
    }

    /// Recovers a dead shard: respawn, `INIT`, `RESTORE` from the last
    /// checkpoint, and replay of the retained round frame (if any). Returns
    /// whether a round frame was replayed — the caller owes one `recv` for
    /// the replayed `INBOX` when it was.
    fn recover_shard(
        &mut self,
        k: usize,
        frame: &mut Vec<u8>,
        recv: &mut Vec<u8>,
    ) -> Result<bool, ShardError> {
        self.links[k].respawn()?;
        self.init_shard(k, frame, recv)?;
        if !self.checkpoints[k].is_empty() {
            encode_frame(FrameKind::Restore, &self.checkpoints[k], frame);
            self.links[k].send(frame)?;
            self.expect_ack(k, recv)?;
        }
        if self.round_frames[k].is_empty() {
            return Ok(false);
        }
        self.links[k].send(&self.round_frames[k])?;
        Ok(true)
    }

    /// Decodes `recv` as this round's `INBOX` from shard `k`, verifying the
    /// round number and the fingerprint mirror chain. Returns the entry
    /// payload positioned after the header.
    fn validate_inbox_header<'f>(
        &self,
        k: usize,
        recv: &'f [u8],
    ) -> Result<(WireCursor<'f>, u32), ShardError> {
        let (kind, payload, _) = decode_frame(recv)?;
        if kind != FrameKind::Inbox {
            return Err(ShardError::Protocol("expected INBOX"));
        }
        let mut c = WireCursor::new(payload);
        let round = c.u64().ok_or(ShardError::Truncated)?;
        if round != self.round {
            return Err(ShardError::Protocol("inbox for the wrong round"));
        }
        let found = c.u64().ok_or(ShardError::Truncated)?;
        if found != self.mirrors[k] {
            return Err(ShardError::Fingerprint {
                shard: k,
                expected: self.mirrors[k],
                found,
            });
        }
        let count = c.u32().ok_or(ShardError::Truncated)?;
        if count != self.sent_counts[k] {
            return Err(ShardError::Protocol(
                "inbox entry count differs from the round frame",
            ));
        }
        Ok((c, count))
    }

    /// Starts the next round: opens every shard's request frame in its
    /// retained slot (kept for recovery replay) with `[round][count]`, the
    /// count patched when the frame is sealed.
    fn open_round(&mut self) {
        self.round += 1;
        for (round_frame, count) in self.round_frames.iter_mut().zip(&mut self.sent_counts) {
            open_frame(round_frame);
            push_u64(round_frame, self.round);
            push_u32(round_frame, 0);
            *count = 0;
        }
    }

    /// Delivers one round through the frame boundary: partitions `outbox`
    /// into per-shard `ROUND` frames, applies each shard's `INBOX` into
    /// `arena` via `cursors` (byte-identical to the direct scatter), and
    /// refreshes every shard's checkpoint. `offsets` are the arena's
    /// per-destination start offsets (`n + 1` entries); no inbox entry may
    /// be written at or past its destination's next offset.
    pub(crate) fn deliver<M: Wire>(
        &mut self,
        outbox: &[(NodeId, NodeId, M)],
        arena: &mut [(NodeId, M)],
        cursors: &mut [u32],
        offsets: &[u32],
        buffers: &mut RoundBuffers,
    ) -> Result<(), ShardError> {
        self.open_round();
        // One pass over the outbox Wire-encodes each message exactly once,
        // straight into its shard's frame.
        let upper_cuts = &self.dst_cuts[1..];
        for (src, dst, m) in outbox {
            let k = upper_cuts.partition_point(|&cut| cut <= dst.raw());
            push_entry(&mut self.round_frames[k], src.raw(), dst.raw(), m);
            self.sent_counts[k] += 1;
        }
        self.ship(FrameKind::Round, buffers, |t, k, inbox| {
            t.apply_inbox(k, inbox, arena, cursors, offsets)
        })
    }

    /// Delivers one pulled neighbour exchange through the frame boundary
    /// and folds every message into `receive(receiver, sender, &message)`
    /// as the returned runs are read, with no arena in between.
    ///
    /// Every shard's `EXCHANGE` frame carries the senders' table, `sent`
    /// `Wire`-encoded once and copied into each frame. `fill(dsts, framed,
    /// runs)` then pushes into `runs` the messages of shard `k`'s
    /// destinations `dsts`, dst-major, each destination's senders
    /// ascending, records in `framed[dst]` how many it pushed for each, and
    /// returns how many it pushed in all. The `INBOX` must come back with
    /// exactly that shape (see [`ShardedTransport::fold_exchange`]), so
    /// `receive` sees the messages in the order they were framed.
    pub(crate) fn exchange<M: Wire + Send + 'static>(
        &mut self,
        sent: &[(NodeId, u64, M)],
        framed: &mut [u32],
        mut fill: impl FnMut(ops::Range<usize>, &mut [u32], &mut ExchangeRuns<'_>) -> u32,
        mut receive: impl FnMut(NodeId, NodeId, &M),
        buffers: &mut RoundBuffers,
    ) -> Result<(), ShardError> {
        self.open_round();
        let senders = idx_u32(sent.len());
        if let Some((first, rest)) = self.round_frames.split_first_mut() {
            push_u32(first, senders);
            let table_at = first.len();
            for (src, _, m) in sent {
                push_u32(first, src.raw());
                push_payload(first, m);
            }
            for frame in rest {
                push_u32(frame, senders);
                frame.extend_from_slice(&first[table_at..]);
            }
        }
        for k in 0..self.links.len() {
            let dsts = self.dst_cuts[k] as usize..self.dst_cuts[k + 1] as usize;
            let mut runs = ExchangeRuns {
                frame: &mut self.round_frames[k],
                dst: 0,
                at: 0,
            };
            self.sent_counts[k] = fill(dsts, framed, &mut runs);
            runs.close();
        }
        let mut table = buffers.take_table::<M>();
        let result = self.ship(FrameKind::Exchange, buffers, |t, k, inbox| {
            t.fold_exchange(k, inbox, senders, framed, &mut table, &mut receive)
        });
        buffers.retire_table(table);
        result
    }

    /// Ships the open round as `kind` frames and hands each shard's `INBOX`
    /// to `apply(self, shard, inbox)`, with recovery and checkpoints: the
    /// one routine behind [`ShardedTransport::deliver`] and
    /// [`ShardedTransport::exchange`]. Injects the armed [`FaultPlan`] when
    /// this round matches, and transparently recovers any shard whose link
    /// died.
    fn ship(
        &mut self,
        kind: FrameKind,
        buffers: &mut RoundBuffers,
        apply: impl FnMut(&Self, usize, &[u8]) -> Result<(), ShardError>,
    ) -> Result<(), ShardError> {
        let mut frame = buffers.take_frame();
        let mut recv = buffers.take_frame();
        let result = self.ship_inner(kind, &mut frame, &mut recv, apply);
        buffers.retire_frame(frame);
        buffers.retire_frame(recv);
        result
    }

    fn ship_inner(
        &mut self,
        kind: FrameKind,
        frame: &mut Vec<u8>,
        recv: &mut Vec<u8>,
        mut apply: impl FnMut(&Self, usize, &[u8]) -> Result<(), ShardError>,
    ) -> Result<(), ShardError> {
        let fault = fault_due(self.round);
        let shards = self.links.len();
        // Send phase: seal each shard's frame with its message count. Each
        // sealed frame's checksum extends the mirror chain before any
        // worker sees it.
        for k in 0..shards {
            let round_frame = &mut self.round_frames[k];
            let count_at = FRAME_HEADER + 8;
            round_frame[count_at..count_at + 4].copy_from_slice(&self.sent_counts[k].to_le_bytes());
            let checksum = seal_frame(kind, round_frame);
            self.mirrors[k] = mix3(self.mirrors[k], checksum, self.round);
            if self.links[k].send(round_frame).is_err() {
                self.links[k].kill();
            }
            if fault == Some(k) {
                self.links[k].kill();
                FAULT_INJECTIONS.fetch_add(1, Ordering::Relaxed);
                disarm_fault();
            }
        }
        // Receive phase: apply each shard's inbox; a dead link is recovered
        // (respawn + restore + replay) and then must produce the identical
        // inbox, enforced by the fingerprint chain.
        for k in 0..shards {
            match self.links[k].recv(recv) {
                Ok(()) => {}
                Err(e) if link_lost(&e) => {
                    self.recover_shard(k, frame, recv)?;
                    self.links[k].recv(recv)?;
                }
                Err(e) => return Err(e),
            }
            apply(self, k, recv)?;
        }
        // Checkpoint phase: refresh every shard's recovery point to the end
        // of this round.
        for k in 0..shards {
            self.checkpoint_shard(k, frame, recv)?;
        }
        Ok(())
    }

    /// Applies shard `k`'s `INBOX` entries into the arena. Entries arrive
    /// dst-major in send order, so writing each at its destination cursor
    /// reproduces the direct counting scatter exactly. Together with the
    /// entry count checked against the `ROUND` frame, the per-destination
    /// bound on `offsets` rejects an inbox that moves, repeats or drops an
    /// entry instead of writing it into the wrong slot.
    fn apply_inbox<M: Wire>(
        &self,
        k: usize,
        recv: &[u8],
        arena: &mut [(NodeId, M)],
        cursors: &mut [u32],
        offsets: &[u32],
    ) -> Result<(), ShardError> {
        let (mut c, count) = self.validate_inbox_header(k, recv)?;
        for _ in 0..count {
            let (src, dst, m) = self.next_entry::<M>(k, &mut c)?;
            let d = dst as usize;
            let at = cursors[d];
            if at >= offsets[d + 1] {
                return Err(ShardError::Protocol(
                    "inbox entry overruns its destination's slots",
                ));
            }
            arena[at as usize] = (NodeId::new(src), m);
            cursors[d] = at + 1;
        }
        if !c.done() {
            return Err(ShardError::Protocol("trailing bytes in inbox frame"));
        }
        Ok(())
    }

    /// Folds shard `k`'s `INBOX` of a pulled exchange into `receive`, run by
    /// run. The reply must carry the `senders` table entries that were
    /// framed, each decoding to exactly one `M` (into `table`, once), and
    /// every destination's run must hold exactly the `framed[dst]`
    /// messages framed for it. [`walk_runs`] checks the rest of the shape:
    /// destinations ascending, indices ascending within a run (so senders
    /// ascend, one message per ordered pair), the message count equal to
    /// the `EXCHANGE` frame's. Together this rejects an inbox that moves,
    /// repeats, drops or reorders a message.
    fn fold_exchange<M: Wire>(
        &self,
        k: usize,
        recv: &[u8],
        senders: u32,
        framed: &[u32],
        table: &mut Vec<(NodeId, M)>,
        receive: &mut impl FnMut(NodeId, NodeId, &M),
    ) -> Result<(), ShardError> {
        let (mut c, count) = self.validate_inbox_header(k, recv)?;
        if c.u32() != Some(senders) {
            return Err(ShardError::Protocol(
                "inbox sender table differs from the exchange frame",
            ));
        }
        table.clear();
        walk_table(&mut c, senders, |src, bytes| {
            table.push((NodeId::new(src), decode_exact(bytes)?));
            Ok(())
        })?;
        let dsts = self.dst_cuts[k]..self.dst_cuts[k + 1];
        walk_runs(
            &mut c,
            senders,
            count,
            dsts,
            |dst, len| {
                if framed[dst as usize] == len {
                    Ok(())
                } else {
                    Err(ShardError::Protocol(
                        "inbox run differs from the messages framed for its destination",
                    ))
                }
            },
            |dst, index| {
                let (src, m) = &table[index];
                receive(NodeId::new(dst), *src, m);
            },
        )
    }

    /// Reads the next `[src][dst][len][payload]` entry of shard `k`'s
    /// `INBOX`: its destination must be the shard's and its payload must
    /// decode to exactly one `M`.
    fn next_entry<M: Wire>(
        &self,
        k: usize,
        c: &mut WireCursor<'_>,
    ) -> Result<(u32, u32, M), ShardError> {
        let head = c.take(ENTRY_HEAD).ok_or(ShardError::Truncated)?;
        let (src, dst, len) = (le_u32_at(head, 0), le_u32_at(head, 4), le_u32_at(head, 8));
        let bytes = c.take(len as usize).ok_or(ShardError::Truncated)?;
        if dst < self.dst_cuts[k] || dst >= self.dst_cuts[k + 1] {
            return Err(ShardError::Protocol("inbox entry outside shard range"));
        }
        Ok((src, dst, decode_exact(bytes)?))
    }
}

/// Decodes `bytes` as exactly one `M`.
fn decode_exact<M: Wire>(bytes: &[u8]) -> Result<M, ShardError> {
    let mut c = WireCursor::new(bytes);
    let m = M::decode(&mut c).ok_or(ShardError::Protocol("message payload failed to decode"))?;
    if !c.done() {
        return Err(ShardError::Protocol("trailing bytes after message payload"));
    }
    Ok(m)
}

/// A `RoundCore`'s sharding mode, latched at its first delivery so the
/// transport's round counter and worker checkpoints stay consistent for the
/// engine's whole life.
#[derive(Debug, Default)]
pub(crate) enum ShardSlot {
    /// No delivery has happened yet; the mode is decided on first use.
    #[default]
    Unprobed,
    /// Direct in-process scatter (shard count 0: the default).
    Direct,
    /// Framed delivery through a [`ShardedTransport`].
    Framed(Box<ShardedTransport>),
}

/// Resolves `slot` for an `n`-node delivery, constructing the transport on
/// first use when sharding is configured. Returns whether delivery is
/// framed.
pub(crate) fn probe(
    slot: &mut ShardSlot,
    n: usize,
    buffers: &mut RoundBuffers,
) -> Result<bool, ShardError> {
    match slot {
        ShardSlot::Direct => Ok(false),
        ShardSlot::Framed(t) if t.node_count() == n => Ok(true),
        _ => {
            let shards = shard_count();
            if shards == 0 {
                *slot = ShardSlot::Direct;
                return Ok(false);
            }
            let t = ShardedTransport::new(n, shards, effective_backend(), buffers)?;
            *slot = ShardSlot::Framed(t);
            Ok(true)
        }
    }
}

/// Kill shard `kill_shard` the moment round `at_round` (1-based, counted
/// per transport) has been sent to it — before its inbox is received — so
/// the interrupted round must be recovered and replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Index of the shard to kill.
    pub kill_shard: usize,
    /// Round (1-based) at which to kill it.
    pub at_round: u64,
}

static FAULT_ARMED: AtomicBool = AtomicBool::new(false);
static FAULT_SHARD: AtomicUsize = AtomicUsize::new(0);
static FAULT_ROUND: AtomicU64 = AtomicU64::new(0);
static FAULT_INJECTIONS: AtomicU64 = AtomicU64::new(0);

/// Arms `plan` process-globally; the next matching delivery injects it
/// exactly once and disarms.
pub fn arm_fault(plan: FaultPlan) {
    FAULT_SHARD.store(plan.kill_shard, Ordering::Relaxed);
    FAULT_ROUND.store(plan.at_round, Ordering::Relaxed);
    FAULT_ARMED.store(true, Ordering::SeqCst);
}

/// Disarms any armed fault plan.
pub fn disarm_fault() {
    FAULT_ARMED.store(false, Ordering::SeqCst);
}

/// Total faults injected by this process so far. Tests use the delta to
/// assert an injection actually fired (a plan aimed past the last round
/// never triggers).
pub fn fault_injections() -> u64 {
    FAULT_INJECTIONS.load(Ordering::Relaxed)
}

fn fault_due(round: u64) -> Option<usize> {
    if FAULT_ARMED.load(Ordering::SeqCst) && FAULT_ROUND.load(Ordering::Relaxed) == round {
        return Some(FAULT_SHARD.load(Ordering::Relaxed));
    }
    None
}

/// In-process shard-count override; `usize::MAX` means "not set".
static SHARDS_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Overrides the shard count for engines built after this call, taking
/// precedence over `CC_MIS_SHARDS`. `Some(0)` forces direct delivery;
/// `None` clears the override. Framed delivery is byte-identical to direct
/// at any count, so this is a topology knob, never a semantics knob.
pub fn set_shards_override(shards: Option<usize>) {
    SHARDS_OVERRIDE.store(shards.unwrap_or(usize::MAX), Ordering::Relaxed);
}

/// The effective shard count: the in-process override if set, else
/// `CC_MIS_SHARDS`, else `0` (direct delivery).
pub fn shard_count() -> usize {
    let ov = SHARDS_OVERRIDE.load(Ordering::Relaxed);
    if ov != usize::MAX {
        return ov;
    }
    crate::config::env_shards().unwrap_or(0)
}

/// In-process backend override; 0 unset, 1 channel, 2 process.
static BACKEND_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the link backend for transports built after this call, taking
/// precedence over `CC_MIS_SHARD_BACKEND`. `None` clears the override.
pub fn set_backend_override(backend: Option<ShardBackend>) {
    let v = match backend {
        None => 0,
        Some(ShardBackend::Channel) => 1,
        Some(ShardBackend::Process) => 2,
    };
    BACKEND_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The effective backend: the in-process override if set, else
/// `CC_MIS_SHARD_BACKEND` (`"process"` or `"channel"`), else
/// [`ShardBackend::Channel`].
pub fn effective_backend() -> ShardBackend {
    match BACKEND_OVERRIDE.load(Ordering::Relaxed) {
        1 => return ShardBackend::Channel,
        2 => return ShardBackend::Process,
        _ => {}
    }
    match crate::config::env_shard_backend().as_deref() {
        Some("process") => ShardBackend::Process,
        _ => ShardBackend::Channel,
    }
}

/// In-process worker-binary override (tests point this at
/// `CARGO_BIN_EXE_clique-mis`).
static WORKER_BIN: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Overrides the binary spawned for process-backend workers, taking
/// precedence over `CC_MIS_WORKER_BIN`. `None` clears the override.
pub fn set_worker_binary(path: Option<PathBuf>) {
    if let Ok(mut guard) = WORKER_BIN.lock() {
        *guard = path;
    }
}

/// The binary spawned for process-backend workers: the in-process override,
/// else `CC_MIS_WORKER_BIN`, else this process's own executable (the normal
/// case — the CLI re-invokes itself with the `worker` verb).
fn worker_binary() -> PathBuf {
    if let Ok(guard) = WORKER_BIN.lock() {
        if let Some(p) = guard.as_ref() {
            return p.clone();
        }
    }
    if let Some(p) = crate::config::env_worker_bin() {
        return PathBuf::from(p);
    }
    std::env::current_exe().unwrap_or_else(|_| PathBuf::from("clique-mis"))
}

/// Serializes tests (across this crate) that arm the process-global fault
/// plan or mutate the shard-count/backend overrides.
#[cfg(test)]
pub(crate) static TEST_CONFIG_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    use super::TEST_CONFIG_LOCK as FAULT_LOCK;

    fn round_trip<M: Wire + PartialEq + fmt::Debug>(v: M) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut c = WireCursor::new(&buf);
        assert_eq!(M::decode(&mut c), Some(v));
        assert!(c.done());
    }

    #[test]
    fn wire_round_trips_every_impl() {
        round_trip(());
        round_trip(true);
        round_trip(false);
        round_trip(7u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(String::from("héllo"));
        round_trip(Option::<u64>::None);
        round_trip(Some(9u32));
        round_trip((3u32, true));
        round_trip((Some(u64::MAX), true));
        round_trip((Option::<u64>::None, false));
    }

    #[test]
    fn frame_codec_round_trips_and_detects_corruption() {
        let payload = b"framed bytes".as_slice();
        let mut frame = Vec::new();
        let checksum = encode_frame(FrameKind::Round, payload, &mut frame);
        let (kind, decoded, found) = decode_frame(&frame).expect("clean frame decodes");
        assert_eq!(kind, FrameKind::Round);
        assert_eq!(decoded, payload);
        assert_eq!(found, checksum);
        // A flipped payload bit is caught by the checksum...
        let mut corrupt = frame.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(matches!(
            decode_frame(&corrupt),
            Err(ShardError::BadChecksum { .. })
        ));
        // ...truncation by the length prefix...
        assert!(matches!(
            decode_frame(&frame[..frame.len() - 1]),
            Err(ShardError::Truncated)
        ));
        // ...and an unknown kind byte by name.
        let mut bad_kind = frame.clone();
        bad_kind[4] = 99;
        assert!(matches!(
            decode_frame(&bad_kind),
            Err(ShardError::BadKind(99))
        ));
    }

    #[test]
    fn worker_checkpoint_round_trips_and_verifies_identity() {
        let mut w = WorkerState::fresh(2);
        w.n = 16;
        w.dst_lo = 8;
        w.dst_hi = 16;
        w.applied = 5;
        w.delivered = 40;
        w.bytes = 160;
        w.fingerprint = 0x1234_5678;
        let bytes = w.save_bytes().to_vec();
        let mut fresh = WorkerState::fresh(2);
        fresh.n = 16;
        fresh.dst_lo = 8;
        fresh.dst_hi = 16;
        fresh
            .restore_bytes(&bytes)
            .expect("matching identity restores");
        assert_eq!(fresh.applied, 5);
        assert_eq!(fresh.fingerprint, 0x1234_5678);
        // A shard-identity mismatch is rejected by name, not silently applied.
        let mut wrong = WorkerState::fresh(3);
        wrong.n = 16;
        wrong.dst_lo = 8;
        wrong.dst_hi = 16;
        assert!(matches!(
            wrong.restore_bytes(&bytes),
            Err(ShardError::Snapshot(SnapshotError::Mismatch {
                field: "shard",
                ..
            }))
        ));
    }

    /// Per-destination arena start offsets (`n + 1` entries) for `outbox`,
    /// as `Round::deliver` computes them.
    fn start_offsets<M>(n: usize, outbox: &[(NodeId, NodeId, M)]) -> Vec<u32> {
        let mut offsets = vec![0u32; n + 1];
        for (_, dst, _) in outbox {
            offsets[dst.index() + 1] += 1;
        }
        for d in 0..n {
            offsets[d + 1] += offsets[d];
        }
        offsets
    }

    /// Reference implementation: the direct src-major counting scatter from
    /// `Round::deliver`, against which framed delivery must be
    /// byte-identical.
    fn direct_scatter<M: Clone + Default>(
        n: usize,
        outbox: &[(NodeId, NodeId, M)],
    ) -> Vec<(NodeId, M)> {
        let mut cursors = start_offsets(n, outbox);
        let mut arena = vec![(NodeId::new(0), M::default()); outbox.len()];
        for (src, dst, m) in outbox {
            let at = cursors[dst.index()] as usize;
            arena[at] = (*src, m.clone());
            cursors[dst.index()] += 1;
        }
        arena
    }

    fn test_outbox(n: u32, rounds_seed: u64) -> Vec<(NodeId, NodeId, u32)> {
        let mut outbox = Vec::new();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                // Deterministic sparse pattern with a mix3-derived skip.
                if mix3(rounds_seed, src as u64, dst as u64).is_multiple_of(3) {
                    outbox.push((NodeId::new(src), NodeId::new(dst), src * 1000 + dst));
                }
            }
        }
        outbox
    }

    fn framed_scatter<M: Wire + Clone + Default>(
        t: &mut ShardedTransport,
        n: usize,
        outbox: &[(NodeId, NodeId, M)],
        buffers: &mut RoundBuffers,
    ) -> Vec<(NodeId, M)> {
        let offsets = start_offsets(n, outbox);
        let mut cursors = offsets[..n].to_vec();
        let mut arena = vec![(NodeId::new(0), M::default()); outbox.len()];
        t.deliver(outbox, &mut arena, &mut cursors, &offsets, buffers)
            .expect("framed delivery succeeds");
        arena
    }

    /// Framed delivery equals the direct scatter at S ∈ {1, 2, 3, 4} for
    /// messages built by `make(src, dst, round)`. One destination receives
    /// nothing, and round 2 is empty.
    fn assert_framed_matches_direct<M: Wire + Clone + Default + PartialEq + fmt::Debug>(
        make: impl Fn(u32, u32, u64) -> M,
    ) {
        let n = 11usize;
        let silent = 5u32;
        let mut buffers = RoundBuffers::default();
        for shards in 1..=4 {
            let mut t = ShardedTransport::new(n, shards, ShardBackend::Channel, &mut buffers)
                .expect("channel transport builds");
            for round in 0..4u64 {
                let outbox: Vec<(NodeId, NodeId, M)> = if round == 2 {
                    Vec::new()
                } else {
                    test_outbox(n as u32, round)
                        .into_iter()
                        .filter(|(_, dst, _)| dst.raw() != silent)
                        .map(|(src, dst, _)| (src, dst, make(src.raw(), dst.raw(), round)))
                        .collect()
                };
                assert_eq!(
                    framed_scatter(&mut t, n, &outbox, &mut buffers),
                    direct_scatter(n, &outbox),
                    "shards={shards} round={round}"
                );
            }
            // The empty round still advanced the clock and checkpointed.
            assert_eq!(t.round, 4);
        }
    }

    /// Fixed-width payloads, then variable-length ones through the
    /// in-place frame builder and the byte-offset worker scatter: `String`s
    /// of every length 0..=40 (across the 8-byte word and 32-byte checksum
    /// block edges) and `Option<u64>` (1 or 9 bytes).
    #[test]
    fn framed_delivery_matches_direct_scatter_at_any_shard_count() {
        let _guard = FAULT_LOCK.lock().expect("fault lock is never poisoned");
        assert_framed_matches_direct(|src, dst, _| src * 1000 + dst);
        assert_framed_matches_direct(|src, dst, round| {
            // Over the sampled (src, dst, round) triples this hits every
            // length 0..=40.
            let len = (src * 14 + dst + u32::try_from(round).expect("< 4") * 3) % 41;
            (0..len)
                .map(|i| char::from(b'a' + u8::try_from((src + dst + i) % 26).expect("< 26")))
                .collect::<String>()
        });
        assert_framed_matches_direct(|src, dst, round| {
            let h = mix3(round, u64::from(src), u64::from(dst));
            (!h.is_multiple_of(3)).then_some(h)
        });
    }

    /// The 4-lane checksum still catches every single-bit flip of payloads
    /// of length 0..=80, and word swaps both within one 32-byte block
    /// (different lanes) and between blocks (the same lane).
    #[test]
    fn checksum_rejects_every_bit_flip_and_word_swap() {
        let mut frame = Vec::new();
        for len in 0..=80u64 {
            let payload: Vec<u8> = (0..len)
                .map(|i| mix3(0xB17, len, i).to_le_bytes()[0])
                .collect();
            encode_frame(FrameKind::Round, &payload, &mut frame);
            for bit in 0..payload.len() * 8 {
                let mut corrupt = frame.clone();
                corrupt[FRAME_HEADER + bit / 8] ^= 1 << (bit % 8);
                assert!(
                    matches!(decode_frame(&corrupt), Err(ShardError::BadChecksum { .. })),
                    "len={len} bit={bit}"
                );
            }
        }
        // Eight distinct words: two full blocks.
        let payload: Vec<u8> = (0..64u8).collect();
        encode_frame(FrameKind::Round, &payload, &mut frame);
        for (a, b) in [(0usize, 1usize), (1, 3), (0, 4), (2, 6), (3, 4)] {
            let mut swapped = frame.clone();
            for i in 0..8 {
                swapped.swap(FRAME_HEADER + 8 * a + i, FRAME_HEADER + 8 * b + i);
            }
            assert!(
                matches!(decode_frame(&swapped), Err(ShardError::BadChecksum { .. })),
                "swap words {a} and {b}"
            );
        }
    }

    #[test]
    fn hostile_length_prefix_is_read_without_a_big_allocation() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xAB; 10]);
        let mut stream = bytes.as_slice();
        let mut frame = Vec::new();
        assert_eq!(
            read_stream_frame(&mut stream, &mut frame),
            Err(ShardError::WorkerDead)
        );
        assert!(
            frame.capacity() < 4096,
            "a 10-byte stream grew the frame to {} bytes",
            frame.capacity()
        );
        // A well-formed frame still reads back whole.
        let mut sent = Vec::new();
        encode_frame(FrameKind::Save, b"state", &mut sent);
        let mut stream = sent.as_slice();
        read_stream_frame(&mut stream, &mut frame).expect("complete frame reads");
        assert_eq!(frame, sent);
    }

    /// An `INBOX` with a valid checksum and fingerprint that moves an entry
    /// into a neighbouring destination, repeats one, or drops one is
    /// rejected before anything lands in the wrong arena slot.
    #[test]
    fn coordinator_rejects_a_misshapen_inbox() {
        let _guard = FAULT_LOCK.lock().expect("fault lock is never poisoned");
        let n = 4usize;
        let mut buffers = RoundBuffers::default();
        let mut t = ShardedTransport::new(n, 1, ShardBackend::Channel, &mut buffers)
            .expect("channel transport builds");
        // One real round: dsts 0, 1 and 2 get one message each, dst 3 none.
        let outbox = [
            (NodeId::new(2), NodeId::new(0), 7u32),
            (NodeId::new(0), NodeId::new(1), 9u32),
            (NodeId::new(1), NodeId::new(2), 5u32),
        ];
        framed_scatter(&mut t, n, &outbox, &mut buffers);
        let offsets = start_offsets(n, &outbox);
        let apply = |t: &mut ShardedTransport, entries: &[(u32, u32, u32)]| {
            let mut payload = Vec::new();
            push_u64(&mut payload, t.round);
            push_u64(&mut payload, t.mirrors[0]);
            push_u32(&mut payload, idx_u32(entries.len()));
            for &(src, dst, m) in entries {
                push_u32(&mut payload, src);
                push_u32(&mut payload, dst);
                push_u32(&mut payload, 4);
                push_u32(&mut payload, m);
            }
            let mut frame = Vec::new();
            encode_frame(FrameKind::Inbox, &payload, &mut frame);
            let mut cursors = offsets[..n].to_vec();
            let mut arena = vec![(NodeId::new(0), 0u32); outbox.len()];
            t.apply_inbox(0, &frame, &mut arena, &mut cursors, &offsets)
                .map(|()| arena)
        };
        assert_eq!(
            apply(&mut t, &[(2, 0, 7), (0, 1, 9), (1, 2, 5)]),
            Ok(direct_scatter(n, &outbox))
        );
        // An arena-bounds check alone would let the moved and dropped ones
        // through.
        for (what, entries) in [
            ("moved", &[(2, 1, 7), (0, 1, 9), (1, 2, 5)][..]),
            (
                "repeated",
                &[(2, 0, 7), (0, 1, 9), (0, 1, 9), (1, 2, 5)][..],
            ),
            ("dropped", &[(2, 0, 7), (1, 2, 5)][..]),
        ] {
            assert!(
                matches!(apply(&mut t, entries), Err(ShardError::Protocol(_))),
                "{what} entry must be rejected"
            );
        }
    }

    /// The worker returns a `ROUND` dst-major, each destination's entries
    /// in arrival order: a src-major frame comes back scattered.
    #[test]
    fn worker_scatters_round_entries_dst_major() {
        let entries = |entries: &[(u32, u32, u32)]| {
            let mut payload = Vec::new();
            for &(src, dst, m) in entries {
                push_entry(&mut payload, src, dst, &m);
            }
            payload
        };
        let src_major = [(0, 2, 1), (0, 3, 2), (1, 0, 3), (2, 3, 4), (3, 2, 5)];
        let dst_major = [(1, 0, 3), (0, 2, 1), (3, 2, 5), (0, 3, 2), (2, 3, 4)];
        let mut w = WorkerState::fresh(0);
        (w.n, w.dst_lo, w.dst_hi) = (4, 0, 4);
        let mut payload = Vec::new();
        push_u64(&mut payload, 1);
        push_u32(&mut payload, idx_u32(src_major.len()));
        payload.extend(entries(&src_major));
        let mut reply = Vec::new();
        w.apply_round(FrameKind::Round, &payload, 0, &mut reply)
            .expect("a well-formed round applies");
        let (kind, inbox, _) = decode_frame(&reply).expect("the reply decodes");
        assert_eq!(kind, FrameKind::Inbox);
        // Skip `[round][fingerprint][count]`; the entries follow.
        assert_eq!(inbox[20..], entries(&dst_major));
    }

    /// A run of an `EXCHANGE` body: `(dst, run length, indices)`.
    type Run<'r> = (u32, u32, &'r [u32]);

    /// The run `dst` with `indices`, its length their count.
    fn run(dst: u32, indices: &[u32]) -> Run<'_> {
        (dst, idx_u32(indices.len()), indices)
    }

    /// An `EXCHANGE` body after `[round][count]`: `senders`, the table's
    /// `(src, payload)` entries, then the runs, every field as given (so a
    /// test can inflate one).
    fn exchange_body(senders: u32, table: &[(u32, &[u8])], runs: &[Run<'_>]) -> Vec<u8> {
        let mut body = Vec::new();
        push_u32(&mut body, senders);
        for &(src, payload) in table {
            push_u32(&mut body, src);
            push_u32(&mut body, idx_u32(payload.len()));
            body.extend_from_slice(payload);
        }
        for &(dst, len, indices) in runs {
            push_u32(&mut body, dst);
            push_u32(&mut body, len);
            for &index in indices {
                push_u32(&mut body, index);
            }
        }
        body
    }

    /// A hostile exchange: what it breaks, its `count` and its body.
    type Hostile = (&'static str, u32, Vec<u8>);

    /// The hostile exchanges both ends must reject, each a `(what, count,
    /// body)` against the well-formed one of [`hostile_exchanges`]' table:
    /// senders 1, 3 and 6 with `u32` payloads 10, 30 and 60, and runs
    /// dst 4 ← {1, 6}, dst 5 ← {3}, dst 7 ← {1, 3, 6}.
    fn hostile_exchanges() -> (Vec<u8>, Vec<Hostile>) {
        let (p1, p3, p6) = (
            10u32.to_le_bytes(),
            30u32.to_le_bytes(),
            60u32.to_le_bytes(),
        );
        let table: [(u32, &[u8]); 3] = [(1, &p1), (3, &p3), (6, &p6)];
        let good = exchange_body(
            3,
            &table,
            &[run(4, &[0, 2]), run(5, &[1]), run(7, &[0, 1, 2])],
        );
        let with_runs = |runs: &[Run<'_>]| exchange_body(3, &table, runs);
        let tail = [run(5, &[1]), run(7, &[0, 1, 2])];
        let cases = vec![
            (
                "an index at or past the table's end",
                6,
                with_runs(&[run(4, &[0, 3]), tail[0], tail[1]]),
            ),
            (
                "a run of length 0",
                6,
                with_runs(&[run(4, &[0, 2]), tail[0], run(6, &[]), tail[1]]),
            ),
            (
                "a run below the shard",
                6,
                with_runs(&[run(3, &[0, 2]), tail[0], tail[1]]),
            ),
            (
                "a run above the shard",
                6,
                with_runs(&[run(4, &[0, 2]), tail[0], run(8, &[0, 1, 2])]),
            ),
            (
                "a repeated run dst",
                6,
                with_runs(&[run(4, &[0]), run(4, &[2]), tail[0], tail[1]]),
            ),
            (
                "a descending run dst",
                6,
                with_runs(&[tail[0], run(4, &[0, 2]), tail[1]]),
            ),
            (
                "a repeated index",
                6,
                with_runs(&[run(4, &[0, 0]), tail[0], tail[1]]),
            ),
            (
                "a descending index",
                6,
                with_runs(&[run(4, &[2, 0]), tail[0], tail[1]]),
            ),
            (
                "a reordered sender table",
                6,
                exchange_body(
                    3,
                    &[(3, &p3), (1, &p1), (6, &p6)],
                    &[run(4, &[0, 2]), tail[0], tail[1]],
                ),
            ),
            (
                "a table payload past the frame's end",
                6,
                exchange_body(3, &table, &[])
                    .into_iter()
                    .take(4 + 8 + 4 + 4)
                    .chain(u32::MAX.to_le_bytes())
                    .collect(),
            ),
            ("more runs than the count", 5, good.clone()),
            ("fewer runs than the count", 7, good.clone()),
            ("trailing bytes", 6, [&good[..], &[0]].concat()),
            ("senders inflated", 6, {
                let mut body = good.clone();
                body[..4].copy_from_slice(&u32::MAX.to_le_bytes());
                body
            }),
            ("count inflated", u32::MAX, good.clone()),
            (
                "a run inflated",
                6,
                with_runs(&[(4, u32::MAX, &[0, 2]), tail[0], tail[1]]),
            ),
        ];
        (good, cases)
    }

    /// The worker checks an `EXCHANGE`'s shape before it echoes it: each
    /// hostile case, sealed with a valid checksum, gives a typed error
    /// without a panic and without allocating by a claimed count, and
    /// leaves the worker's round unapplied. Message payloads are opaque to
    /// the worker, so their decoding is the coordinator's to check.
    #[test]
    fn worker_rejects_a_misshapen_exchange() {
        let apply = |count: u32, body: &[u8]| {
            let mut w = WorkerState::fresh(0);
            (w.n, w.dst_lo, w.dst_hi) = (8, 4, 8);
            let mut payload = Vec::new();
            push_u64(&mut payload, 1);
            push_u32(&mut payload, count);
            payload.extend_from_slice(body);
            let mut frame = Vec::new();
            encode_frame(FrameKind::Exchange, &payload, &mut frame);
            let (kind, payload, checksum) = decode_frame(&frame).expect("the frame decodes");
            let mut reply = Vec::new();
            let result = handle_frame(&mut w, kind, payload, checksum, &mut reply);
            (result.map(|()| reply.clone()), w.applied, reply.capacity())
        };
        let (good, cases) = hostile_exchanges();
        let (reply, applied, _) = apply(6, &good);
        let reply = reply.expect("a well-formed exchange applies");
        let (kind, inbox, _) = decode_frame(&reply).expect("the reply decodes");
        assert_eq!((kind, applied), (FrameKind::Inbox, 1));
        // `[round][fingerprint][count]`, then the body echoed whole.
        assert_eq!(inbox[16..20], 6u32.to_le_bytes());
        assert_eq!(inbox[20..], good);
        for (what, count, body) in cases {
            let (result, applied, capacity) = apply(count, &body);
            assert!(
                matches!(result, Err(ShardError::Protocol(_) | ShardError::Truncated)),
                "{what}: {result:?}"
            );
            assert_eq!((applied, capacity), (0, 0), "{what}");
        }
    }

    /// An exchange `INBOX` with a valid checksum and fingerprint that
    /// moves, repeats, drops or reorders a message, or whose sender table
    /// fails to decode or was altered, is rejected with a typed error and
    /// without allocating by a claimed count.
    #[test]
    fn coordinator_rejects_a_misshapen_exchange_inbox() {
        let _guard = FAULT_LOCK.lock().expect("fault lock is never poisoned");
        // Shard 1 of 2 owns dsts 4..8 of 8.
        let n = 8usize;
        let mut buffers = RoundBuffers::default();
        let mut t = ShardedTransport::new(n, 2, ShardBackend::Channel, &mut buffers)
            .expect("channel transport builds");
        let sent = [
            (NodeId::new(1), 32, 10u32),
            (NodeId::new(3), 32, 30),
            (NodeId::new(6), 32, 60),
        ];
        // dst 0 ← {1}; then shard 1's dst 4 ← {1, 6}, dst 5 ← {3},
        // dst 7 ← {1, 3, 6}, and dst 6 (silent) from nobody.
        let pulls: [(u32, usize); 7] = [(0, 0), (4, 0), (4, 2), (5, 1), (7, 0), (7, 1), (7, 2)];
        let mut framed = vec![0u32; n];
        let mut got = Vec::new();
        t.exchange(
            &sent,
            &mut framed,
            |dsts, framed, runs| {
                let mut pushed = 0;
                for &(dst, index) in &pulls {
                    if dsts.contains(&(dst as usize)) {
                        runs.push(NodeId::new(dst), index);
                        framed[dst as usize] += 1;
                        pushed += 1;
                    }
                }
                pushed
            },
            |u: NodeId, v: NodeId, &m: &u32| got.push((u.raw(), v.raw(), m)),
            &mut buffers,
        )
        .expect("framed exchange succeeds");
        let want: Vec<(u32, u32, u32)> = pulls
            .iter()
            .map(|&(dst, index)| (dst, sent[index].0.raw(), sent[index].2))
            .collect();
        assert_eq!(got, want);
        let fold = |count: u32, body: &[u8]| {
            let mut payload = Vec::new();
            push_u64(&mut payload, t.round);
            push_u64(&mut payload, t.mirrors[1]);
            push_u32(&mut payload, count);
            payload.extend_from_slice(body);
            let mut frame = Vec::new();
            encode_frame(FrameKind::Inbox, &payload, &mut frame);
            let mut table = Vec::new();
            let mut folded = Vec::new();
            let result = t.fold_exchange(
                1,
                &frame,
                3,
                &framed,
                &mut table,
                &mut |u: NodeId, v: NodeId, &m: &u32| folded.push((u.raw(), v.raw(), m)),
            );
            (result.map(|()| folded), table.capacity())
        };
        let (good, cases) = hostile_exchanges();
        assert_eq!(fold(6, &good).0, Ok(want[1..].to_vec()));
        let (p1, p3, p6) = (
            10u32.to_le_bytes(),
            30u32.to_le_bytes(),
            60u32.to_le_bytes(),
        );
        let runs = [run(4, &[0, 2]), run(5, &[1]), run(7, &[0, 1, 2])];
        let coordinator_cases = [
            (
                "a payload that fails to decode",
                6,
                exchange_body(3, &[(1, &p1), (3, &p3[..3]), (6, &p6)], &runs),
            ),
            (
                "a payload with trailing bytes",
                6,
                exchange_body(
                    3,
                    &[(1, &p1), (3, &[&p3[..], &[0]].concat()), (6, &p6)],
                    &runs,
                ),
            ),
            (
                "a dropped sender",
                6,
                exchange_body(
                    2,
                    &[(1, &p1), (6, &p6)],
                    &[run(4, &[0, 1]), run(5, &[0]), run(7, &[0, 1])],
                ),
            ),
            (
                "a message moved to a silent dst",
                6,
                exchange_body(
                    3,
                    &[(1, &p1), (3, &p3), (6, &p6)],
                    &[runs[0], run(6, &[1]), runs[2]],
                ),
            ),
            (
                "a message moved to a later dst",
                6,
                exchange_body(
                    3,
                    &[(1, &p1), (3, &p3), (6, &p6)],
                    &[run(4, &[0]), run(5, &[1, 2]), runs[2]],
                ),
            ),
            (
                "a dropped message",
                5,
                exchange_body(
                    3,
                    &[(1, &p1), (3, &p3), (6, &p6)],
                    &[runs[0], run(7, &[0, 1, 2])],
                ),
            ),
        ];
        for (what, count, body) in cases.into_iter().chain(coordinator_cases) {
            let (result, capacity) = fold(count, &body);
            assert!(
                matches!(result, Err(ShardError::Protocol(_) | ShardError::Truncated)),
                "{what}: {result:?}"
            );
            assert!(capacity <= 4, "{what}: the table grew to {capacity}");
        }
    }

    #[test]
    fn killed_shard_recovers_to_identical_bytes() {
        let _guard = FAULT_LOCK.lock().expect("fault lock is never poisoned");
        let n = 9usize;
        let mut buffers = RoundBuffers::default();
        for shards in [1usize, 3] {
            for kill_shard in 0..shards {
                for at_round in 1..=3u64 {
                    let mut straight =
                        ShardedTransport::new(n, shards, ShardBackend::Channel, &mut buffers)
                            .expect("channel transport builds");
                    let mut faulted =
                        ShardedTransport::new(n, shards, ShardBackend::Channel, &mut buffers)
                            .expect("channel transport builds");
                    let before = fault_injections();
                    arm_fault(FaultPlan {
                        kill_shard,
                        at_round,
                    });
                    for round in 0..3u64 {
                        let outbox = test_outbox(n as u32, round);
                        let want = framed_scatter(&mut straight, n, &outbox, &mut buffers);
                        let got = framed_scatter(&mut faulted, n, &outbox, &mut buffers);
                        assert_eq!(
                            got, want,
                            "shards={shards} kill={kill_shard} at={at_round} round={round}"
                        );
                    }
                    disarm_fault();
                    assert_eq!(
                        fault_injections(),
                        before + 1,
                        "the fault must actually have fired"
                    );
                }
            }
        }
    }

    #[test]
    fn overrides_take_precedence_and_clear() {
        let _guard = FAULT_LOCK.lock().expect("fault lock is never poisoned");
        set_shards_override(Some(3));
        assert_eq!(shard_count(), 3);
        set_shards_override(Some(0));
        assert_eq!(shard_count(), 0);
        set_shards_override(None);
        set_backend_override(Some(ShardBackend::Process));
        assert_eq!(effective_backend(), ShardBackend::Process);
        set_backend_override(None);
        assert_eq!(effective_backend(), ShardBackend::Channel);
    }
}
