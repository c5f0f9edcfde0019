//! Versioned binary snapshots of algorithm state.
//!
//! Every algorithm in this workspace is split into a *config* half (static,
//! rebuilt from code) and a *state* half (models, optimizer moments, RNG
//! positions, caches, driver book-keeping). This module gives the state
//! half a byte representation: [`Federation::snapshot_to`] streams it into
//! any [`std::io::Write`] behind a magic number, format version, and
//! checksum, and [`Federation::restore_from`] rebuilds a fresh same-config
//! instance into the exact saved state. Because the whole stack is
//! deterministic (seeded xoshiro streams, ordered reductions, pure fault
//! plans), a restored run is **bit-identical** to one that never stopped —
//! which makes the codec double as a correctness oracle for the rest of
//! the codebase.
//!
//! [`Federation::snapshot_to`]: crate::runtime::Federation::snapshot_to
//! [`Federation::restore_from`]: crate::runtime::Federation::restore_from
//!
//! # Wire format
//!
//! All integers are little-endian; lengths are `u64`. A snapshot is a
//! header followed by the chunk envelope of [`fedpkd_netsim::chunk`] (the
//! one the serve frame uses too), so neither writer nor reader ever holds
//! the whole payload in memory:
//!
//! ```text
//! magic "FPKD" (4) · version u32 = 6 · algorithm name (len + utf8)
//! · chunks (u32 len > 0 · bytes)* · u32 0 sentinel
//! · XXH64 checksum of everything before it (8)
//! ```
//!
//! [`SnapshotStreamWriter`] produces it directly into any
//! [`std::io::Write`], one write per chunk; [`SnapshotStreamReader`]
//! consumes it from any [`std::io::Read`]. Any other version is
//! [`SnapshotError::UnsupportedVersion`]: version 1 was a buffered
//! envelope, version 2 had this layout under an FNV-1a64 checksum, so
//! its bytes would otherwise read as a checksum mismatch, version 3
//! had this envelope around a FedPKD payload that still carried a
//! presence tag for a trainable prototype bank, version 4 had FedPKD
//! and `FleetSim` payloads that still carried a queue of late
//! (bounded-staleness) uploads, and version 5 wrote every client of a
//! fleet in full, a never-trained one as its template's init. This is the
//! only representation of a snapshot: one held in memory is these bytes
//! in a `Vec<u8>`.
//!
//! The payload layout is private to each algorithm, assembled from the
//! primitives of [`StateSink`]/[`StateSource`] and the typed helpers below
//! ([`write_model`], [`write_adam`], [`write_pool`], [`write_driver`],
//! …). Truncated, corrupted, or mismatched bytes surface as typed
//! [`SnapshotError`]s — decoding never panics.
//!
//! # Examples
//!
//! ```
//! use fedpkd_core::snapshot::{
//!     SnapshotError, SnapshotStreamReader, SnapshotStreamWriter, StateSink, StateSource,
//! };
//!
//! let mut bytes = Vec::new();
//! let mut w = SnapshotStreamWriter::new(&mut bytes, "FedAvg");
//! w.put_u32(7);
//! w.finish()?;
//!
//! let mut source = bytes.as_slice();
//! let (mut r, name) = SnapshotStreamReader::open(&mut source)?;
//! assert_eq!((name.as_str(), r.take_u32()?), ("FedAvg", 7));
//! r.finish()?;
//!
//! // A flipped payload bit (the `7`, ahead of the sentinel and checksum)
//! // is caught by the checksum.
//! let mut corrupt = bytes.clone();
//! corrupt[bytes.len() - 8 - 4 - 4] ^= 0x40;
//! let mut source = corrupt.as_slice();
//! let (mut r, _) = SnapshotStreamReader::open(&mut source)?;
//! r.take_u32()?;
//! assert_eq!(r.finish(), Err(SnapshotError::ChecksumMismatch));
//! # Ok::<(), SnapshotError>(())
//! ```

use crate::admission::{QuarantineTracker, QUARANTINE_AFTER};
use crate::fedpkd::prototypes::Prototype;
use crate::runtime::DriverState;
use fedpkd_netsim::chunk::{ChunkError, ChunkReader, ChunkWriter, CHUNK};
use fedpkd_netsim::{CommLedger, Direction, TransferRecord};
use fedpkd_rng::Rng;
use fedpkd_tensor::nn::Layer;
use fedpkd_tensor::optim::{param_shapes, Adam};
use fedpkd_tensor::serialize::{load_state_vector, state_vector};
use fedpkd_tensor::Tensor;

/// The 4-byte magic number opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FPKD";

/// The chunked streaming envelope version ([`SnapshotStreamWriter`]).
///
/// Bump on any layout change; decoding rejects other versions with
/// [`SnapshotError::UnsupportedVersion`] rather than misinterpreting bytes.
pub const SNAPSHOT_STREAM_VERSION: u32 = 6;

/// Why a snapshot could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The byte stream ended before the value being decoded was complete.
    Truncated,
    /// The bytes do not start with the `FPKD` magic number — not a
    /// snapshot.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the envelope.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The envelope checksum does not match — the bytes were corrupted.
    ChecksumMismatch,
    /// The snapshot belongs to a different algorithm than the instance it
    /// is being restored into.
    AlgorithmMismatch {
        /// Algorithm of the instance being restored.
        expected: String,
        /// Algorithm named in the snapshot.
        found: String,
    },
    /// The bytes decoded but describe an impossible or mismatched state
    /// (wrong client count, bad tensor shape, unknown enum tag, …).
    Malformed(String),
    /// The underlying `Read`/`Write` sink failed while streaming.
    ///
    /// Holds the I/O error's display form (not the `std::io::Error` itself)
    /// so this enum stays `Clone + PartialEq`.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot bytes are truncated"),
            Self::BadMagic => write!(f, "not a snapshot: bad magic number"),
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build supports {supported})"
            ),
            Self::ChecksumMismatch => write!(f, "snapshot checksum mismatch: bytes are corrupted"),
            Self::AlgorithmMismatch { expected, found } => write!(
                f,
                "snapshot is for algorithm {found:?}, cannot restore into {expected:?}"
            ),
            Self::Malformed(why) => write!(f, "malformed snapshot: {why}"),
            Self::Io(why) => write!(f, "snapshot I/O failed: {why}"),
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

impl From<ChunkError> for SnapshotError {
    fn from(e: ChunkError) -> Self {
        match e {
            ChunkError::ChunkTooLarge { len } => Self::Malformed(format!(
                "stream chunk of {len} bytes exceeds the {CHUNK} cap"
            )),
            ChunkError::ChecksumMismatch => Self::ChecksumMismatch,
            ChunkError::Io(e) => e.into(),
            // `Truncated`, and whatever a later `netsim` adds.
            _ => Self::Truncated,
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A little-endian binary sink snapshot payloads are encoded into.
///
/// The one required method is [`put_raw`](Self::put_raw); every typed
/// `put_*` is layered on it, so a payload layout written against this
/// trait produces identical bytes whether the sink is the chunked
/// [`SnapshotStreamWriter`] or a bare `Vec<u8>` (the payload alone, which
/// is what the unit tests of the typed helpers decode from a `&[u8]`).
/// Sinks never fail at the encoding layer; the streaming sink defers I/O
/// errors to its `finish` call, and the matching [`StateSource`] carries
/// all the decode error handling.
pub trait StateSink {
    /// Appends raw bytes.
    fn put_raw(&mut self, bytes: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    /// Appends a `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f32` by its bit pattern (NaN-exact).
    fn put_f32(&mut self, v: f32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends an `f64` by its bit pattern (NaN-exact).
    fn put_f64(&mut self, v: f64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a boolean as one byte.
    fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed `f32` slice.
    ///
    /// Values pass through a fixed stack buffer, so encoding a
    /// model-sized slice stages at most a few KiB regardless of length.
    fn put_f32s(&mut self, vs: &[f32]) {
        self.put_usize(vs.len());
        let mut staged = [0u8; 4096];
        for chunk in vs.chunks(staged.len() / 4) {
            for (slot, &v) in staged.chunks_exact_mut(4).zip(chunk) {
                slot.copy_from_slice(&v.to_le_bytes());
            }
            self.put_raw(&staged[..chunk.len() * 4]);
        }
    }
}

impl StateSink for Vec<u8> {
    fn put_raw(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A little-endian binary source snapshot payloads are decoded from.
///
/// The one required method is [`take_into`](Self::take_into); every typed
/// `take_*` is layered on it. Every read returns
/// [`SnapshotError::Truncated`] when the stream ends early, and the
/// length-prefixed readers grow their output only as fast as bytes
/// actually arrive, so a corrupted length field cannot trigger an
/// unbounded allocation.
pub trait StateSource {
    /// Fills `out` exactly, consuming `out.len()` bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the source ends first.
    fn take_into(&mut self, out: &mut [u8]) -> Result<(), SnapshotError>;

    /// Reads one byte.
    fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        let mut b = [0u8; 1];
        self.take_into(&mut b)?;
        Ok(b[0])
    }

    /// Reads a `u32`.
    fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        let mut b = [0u8; 4];
        self.take_into(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a `u64`.
    fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        let mut b = [0u8; 8];
        self.take_into(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `usize` written with [`StateSink::put_usize`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if the value does not fit `usize` on
    /// this platform.
    fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| SnapshotError::Malformed("length overflows usize".into()))
    }

    /// Reads an `f32` bit pattern.
    fn take_f32(&mut self) -> Result<f32, SnapshotError> {
        let mut b = [0u8; 4];
        self.take_into(&mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    /// Reads an `f64` bit pattern.
    fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        let mut b = [0u8; 8];
        self.take_into(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }

    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] unless the byte is 0 or 1.
    fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!("bad bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed `f32` slice.
    fn take_f32s(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let len = self.take_usize()?;
        let mut out = Vec::new();
        let mut staged = [0u8; 4096];
        let mut remaining = len;
        while remaining > 0 {
            let n = remaining.min(staged.len() / 4);
            self.take_into(&mut staged[..n * 4])?;
            out.extend(
                staged[..n * 4]
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))),
            );
            remaining -= n;
        }
        Ok(out)
    }
}

impl StateSource for &[u8] {
    fn take_into(&mut self, out: &mut [u8]) -> Result<(), SnapshotError> {
        if self.len() < out.len() {
            return Err(SnapshotError::Truncated);
        }
        let (head, rest) = self.split_at(out.len());
        out.copy_from_slice(head);
        *self = rest;
        Ok(())
    }
}

/// A [`StateSink`] that streams a snapshot straight into any
/// [`std::io::Write`]: the header, then the payload through a
/// [`ChunkWriter`].
///
/// At most one chunk (64 KiB) of payload is staged, so snapshotting a
/// whole fleet holds that much regardless of model count. `put_*` cannot
/// fail; the first I/O error is remembered, subsequent writes become
/// no-ops, and the error surfaces from [`finish`](Self::finish) — which
/// must be called for the envelope to be complete.
pub struct SnapshotStreamWriter<'w> {
    chunks: ChunkWriter<&'w mut dyn std::io::Write>,
    error: Option<SnapshotError>,
}

impl<'w> SnapshotStreamWriter<'w> {
    /// Opens a snapshot on `sink` for algorithm `name`; the header
    /// (magic, version, name) reaches the sink with the first chunk.
    pub fn new(sink: &'w mut dyn std::io::Write, name: &str) -> Self {
        let mut chunks = ChunkWriter::new(sink);
        chunks.header(&SNAPSHOT_MAGIC);
        chunks.header(&SNAPSHOT_STREAM_VERSION.to_le_bytes());
        chunks.header(&(name.len() as u64).to_le_bytes());
        chunks.header(name.as_bytes());
        Self {
            chunks,
            error: None,
        }
    }

    /// Terminates the envelope: the pending chunk, the zero-length
    /// sentinel and the checksum.
    ///
    /// # Errors
    ///
    /// The first [`SnapshotError::Io`] the sink raised, if any.
    pub fn finish(self) -> Result<(), SnapshotError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.chunks.finish()?),
        }
    }
}

impl StateSink for SnapshotStreamWriter<'_> {
    fn put_raw(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            self.error = self.chunks.write(bytes).err().map(Into::into);
        }
    }
}

/// A [`StateSource`] that decodes a snapshot from any [`std::io::Read`]:
/// the header, then the payload through a [`ChunkReader`], whose checksum
/// is verified at [`finish`](Self::finish).
///
/// Holds one chunk (≤ 64 KiB) at a time, so restoring a whole fleet never
/// materializes the payload.
pub struct SnapshotStreamReader<'r> {
    chunks: ChunkReader<&'r mut dyn std::io::Read>,
    /// Bytes of the current chunk already handed out.
    pos: usize,
}

impl<'r> SnapshotStreamReader<'r> {
    /// Opens a snapshot, consuming and validating the header; returns the
    /// reader positioned at the first payload byte plus the algorithm name
    /// from the header.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`],
    /// [`SnapshotError::Io`]/[`SnapshotError::Truncated`] on source
    /// failure, or [`SnapshotError::Malformed`] on a bad name field.
    pub fn open(source: &'r mut dyn std::io::Read) -> Result<(Self, String), SnapshotError> {
        let mut chunks = ChunkReader::new(source, &[]);
        let mut header = [0u8; 8];
        chunks.header(&mut header)?;
        if header[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != SNAPSHOT_STREAM_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_STREAM_VERSION,
            });
        }
        let mut len = [0u8; 8];
        chunks.header(&mut len)?;
        let len = usize::try_from(u64::from_le_bytes(len))
            .map_err(|_| SnapshotError::Malformed("name length overflows usize".into()))?;
        if len > 4096 {
            return Err(SnapshotError::Malformed(format!(
                "algorithm name of {len} bytes"
            )));
        }
        let mut name = vec![0u8; len];
        chunks.header(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| SnapshotError::Malformed("algorithm name is not UTF-8".into()))?;
        Ok((Self { chunks, pos: 0 }, name))
    }

    /// Verifies the end of the envelope: the payload must be exactly
    /// consumed, the sentinel present, and the checksum matching.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on unread payload bytes,
    /// [`SnapshotError::ChecksumMismatch`] on corruption, and
    /// [`SnapshotError::Io`]/[`SnapshotError::Truncated`] on source
    /// failure.
    pub fn finish(mut self) -> Result<(), SnapshotError> {
        let mut unread = self.chunks.current().len() - self.pos;
        if unread == 0 && self.chunks.advance()? {
            unread = self.chunks.current().len();
        }
        if unread > 0 {
            return Err(SnapshotError::Malformed(format!("{unread} trailing bytes")));
        }
        Ok(self.chunks.finish()?)
    }
}

impl StateSource for SnapshotStreamReader<'_> {
    fn take_into(&mut self, out: &mut [u8]) -> Result<(), SnapshotError> {
        let mut written = 0;
        while written < out.len() {
            if self.pos == self.chunks.current().len() {
                if !self.chunks.advance()? {
                    return Err(SnapshotError::Truncated);
                }
                self.pos = 0;
            }
            let chunk = &self.chunks.current()[self.pos..];
            let n = (out.len() - written).min(chunk.len());
            out[written..written + n].copy_from_slice(&chunk[..n]);
            self.pos += n;
            written += n;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Typed helpers for the state shared by FedPKD and the baselines.
// ---------------------------------------------------------------------------

/// Writes an RNG's raw xoshiro state (4 × u64).
pub fn write_rng(w: &mut dyn StateSink, rng: &Rng) {
    for word in rng.state() {
        w.put_u64(word);
    }
}

/// Reads an RNG state written by [`write_rng`].
///
/// # Errors
///
/// [`SnapshotError::Malformed`] on the (unreachable from a real generator)
/// all-zero state.
pub fn read_rng(r: &mut dyn StateSource) -> Result<Rng, SnapshotError> {
    let mut s = [0u64; 4];
    for word in &mut s {
        *word = r.take_u64()?;
    }
    if s.iter().all(|&w| w == 0) {
        return Err(SnapshotError::Malformed("all-zero RNG state".into()));
    }
    Ok(Rng::from_state(s))
}

/// Writes a tensor: shape, then data.
pub fn write_tensor(w: &mut dyn StateSink, t: &Tensor) {
    w.put_usize(t.shape().len());
    for &dim in t.shape() {
        w.put_usize(dim);
    }
    w.put_f32s(t.as_slice());
}

/// Reads a tensor written by [`write_tensor`].
///
/// # Errors
///
/// [`SnapshotError::Malformed`] if the data length disagrees with the
/// shape.
pub fn read_tensor(r: &mut dyn StateSource) -> Result<Tensor, SnapshotError> {
    let rank = r.take_usize()?;
    if rank > 8 {
        return Err(SnapshotError::Malformed(format!("tensor rank {rank}")));
    }
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(r.take_usize()?);
    }
    let data = r.take_f32s()?;
    // Checked here: `from_vec` multiplies the dimensions unchecked, and a
    // product that wraps round to the data length would pass it.
    let elements = shape.iter().try_fold(1usize, |n, &dim| n.checked_mul(dim));
    if elements != Some(data.len()) {
        return Err(SnapshotError::Malformed(format!(
            "tensor of shape {shape:?} with {} values",
            data.len()
        )));
    }
    Tensor::from_vec(data, &shape).map_err(|e| SnapshotError::Malformed(format!("bad tensor: {e}")))
}

/// Writes a model's full state (parameters + buffers) in
/// `serialize::state_vector` visitation order.
pub fn write_model(w: &mut dyn StateSink, model: &dyn Layer) {
    w.put_f32s(&state_vector(model));
}

/// Reads a model state written by [`write_model`] into `model`, which must
/// have the same architecture.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] if the value count does not match the
/// model; `model` is left untouched in that case.
pub fn read_model(r: &mut dyn StateSource, model: &mut dyn Layer) -> Result<(), SnapshotError> {
    let values = r.take_f32s()?;
    load_state_vector(model, &values)
        .map_err(|e| SnapshotError::Malformed(format!("model state mismatch: {e}")))
}

/// Writes an Adam optimizer's mutable state: learning rate, step count,
/// and both moment buffers.
pub fn write_adam(w: &mut dyn StateSink, opt: &Adam) {
    use fedpkd_tensor::optim::Optimizer;
    w.put_f32(opt.learning_rate());
    w.put_u64(opt.step_count());
    let (m, v) = opt.moments();
    w.put_usize(m.len());
    for t in m.iter().chain(v) {
        write_tensor(w, t);
    }
}

/// Reads Adam state written by [`write_adam`] into `opt`, the optimizer
/// that drives `model`.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] on a non-positive learning rate, or on a
/// state that does not fit `model` — a step count out of range, or moments
/// that are not one pair per parameter in the parameter's shape (another
/// tier's optimizer, a crafted payload). `opt` is left untouched then.
pub fn read_adam(
    r: &mut dyn StateSource,
    opt: &mut Adam,
    model: &dyn Layer,
) -> Result<(), SnapshotError> {
    *opt = read_adam_state(r, &param_shapes(model))?;
    Ok(())
}

/// Decodes the fields [`write_adam`] wrote into a new optimizer, after
/// validating them against the parameter shapes of the model it will
/// drive.
///
/// # Errors
///
/// As [`read_adam`].
pub(crate) fn read_adam_state(
    r: &mut dyn StateSource,
    param_shapes: &[Vec<usize>],
) -> Result<Adam, SnapshotError> {
    let lr = r.take_f32()?;
    if !(lr.is_finite() && lr > 0.0) {
        return Err(SnapshotError::Malformed(format!("bad learning rate {lr}")));
    }
    let t = r.take_u64()?;
    let count = r.take_usize()?;
    let read_moments = |r: &mut dyn StateSource| -> Result<Vec<Tensor>, SnapshotError> {
        (0..count).map(|_| read_tensor(r)).collect()
    };
    let m = read_moments(r)?;
    let v = read_moments(r)?;
    Adam::check_state(t, &m, &v, param_shapes).map_err(SnapshotError::Malformed)?;
    // The two checks above are what `new` and `restore_state` assert, so
    // snapshot bytes cannot reach their panics.
    let mut opt = Adam::new(lr);
    opt.restore_state(t, m, v);
    Ok(opt)
}

// The fleet's codec lives beside the pool (it reads the slots, which are
// private to it); re-exported here to keep all state codecs reachable from
// one module.
pub use crate::cow::{read_pool, write_pool};

/// Writes the shared driver's book-keeping: rounds driven plus the full
/// communication ledger.
pub fn write_driver(w: &mut dyn StateSink, driver: &DriverState) {
    w.put_usize(driver.rounds_driven());
    let ledger = driver.ledger();
    w.put_usize(ledger.num_transfers());
    for t in ledger.transfers() {
        w.put_usize(t.round);
        w.put_usize(t.client);
        w.put_u8(match t.direction {
            Direction::Uplink => 0,
            Direction::Downlink => 1,
        });
        w.put_usize(t.bytes);
    }
}

/// Reads driver book-keeping written by [`write_driver`].
///
/// # Errors
///
/// [`SnapshotError::Malformed`] on an unknown direction tag, or on a round
/// counter or a ledger byte total past `isize::MAX`: every later round
/// adds to both, and half the range is headroom no run uses up.
pub fn read_driver(r: &mut dyn StateSource) -> Result<DriverState, SnapshotError> {
    const ROOM: usize = isize::MAX as usize;
    let rounds_driven = r.take_usize()?;
    if rounds_driven > ROOM {
        return Err(SnapshotError::Malformed(format!(
            "round counter {rounds_driven} leaves no room to advance"
        )));
    }
    let count = r.take_usize()?;
    // Grown as records arrive: a corrupted count sizes no allocation.
    let mut records = Vec::new();
    let mut total = 0usize;
    for _ in 0..count {
        let round = r.take_usize()?;
        let client = r.take_usize()?;
        let direction = match r.take_u8()? {
            0 => Direction::Uplink,
            1 => Direction::Downlink,
            other => {
                return Err(SnapshotError::Malformed(format!(
                    "bad direction tag {other}"
                )))
            }
        };
        let bytes = r.take_usize()?;
        total = total
            .checked_add(bytes)
            .filter(|&total| total <= ROOM)
            .ok_or_else(|| SnapshotError::Malformed("ledger byte total overflows".into()))?;
        records.push(TransferRecord {
            round,
            client,
            direction,
            bytes,
        });
    }
    Ok(DriverState::from_parts(
        rounds_driven,
        CommLedger::from_transfers(records),
    ))
}

/// Writes a quarantine tracker's cross-round state (streaks + flags).
pub fn write_quarantine(w: &mut dyn StateSink, tracker: &QuarantineTracker) {
    let streaks = tracker.streaks();
    w.put_usize(streaks.len());
    for &s in streaks {
        w.put_usize(s);
    }
    for &q in tracker.quarantined_flags() {
        w.put_bool(q);
    }
}

/// Reads tracker state written by [`write_quarantine`] into `tracker`.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] if the client count differs from the
/// tracker's, or if a client that is not quarantined has a streak of
/// [`QUARANTINE_AFTER`] or more — a state `record_rejection` never leaves,
/// since it quarantines at the threshold, and one whose next rejection
/// would overflow the streak.
pub fn read_quarantine(
    r: &mut dyn StateSource,
    tracker: &mut QuarantineTracker,
) -> Result<(), SnapshotError> {
    let count = r.take_usize()?;
    if count != tracker.streaks().len() {
        return Err(SnapshotError::Malformed(format!(
            "snapshot tracks {count} clients, tracker has {}",
            tracker.streaks().len()
        )));
    }
    let mut consecutive = Vec::with_capacity(count);
    for _ in 0..count {
        consecutive.push(r.take_usize()?);
    }
    let mut quarantined = Vec::with_capacity(count);
    for _ in 0..count {
        quarantined.push(r.take_bool()?);
    }
    if let Some(client) =
        (0..count).find(|&c| !quarantined[c] && consecutive[c] >= QUARANTINE_AFTER)
    {
        return Err(SnapshotError::Malformed(format!(
            "client {client} has a rejection streak of {} but is not quarantined",
            consecutive[client]
        )));
    }
    tracker.restore_parts(consecutive, quarantined);
    Ok(())
}

/// Writes a `Vec<Option<Tensor>>` (per-class prototypes, cached logits…).
pub fn write_opt_tensors(w: &mut dyn StateSink, tensors: &[Option<Tensor>]) {
    w.put_usize(tensors.len());
    for t in tensors {
        match t {
            Some(t) => {
                w.put_bool(true);
                write_tensor(w, t);
            }
            None => w.put_bool(false),
        }
    }
}

/// Reads a vector written by [`write_opt_tensors`].
///
/// # Errors
///
/// Propagates tensor decoding errors.
pub fn read_opt_tensors(r: &mut dyn StateSource) -> Result<Vec<Option<Tensor>>, SnapshotError> {
    let count = r.take_usize()?;
    let mut out = Vec::new();
    for _ in 0..count {
        out.push(if r.take_bool()? {
            Some(read_tensor(r)?)
        } else {
            None
        });
    }
    Ok(out)
}

/// Writes one client's per-class prototype list (Eq. 5): per class an
/// optional `(sample count, vector)`.
pub fn write_prototypes(w: &mut dyn StateSink, prototypes: &[Option<Prototype>]) {
    w.put_usize(prototypes.len());
    for proto in prototypes {
        w.put_bool(proto.is_some());
        if let Some(p) = proto {
            w.put_usize(p.count);
            write_tensor(w, &p.vector);
        }
    }
}

/// Reads a list written by [`write_prototypes`]. Only the framing is
/// checked here; whether the list may touch server state is for the
/// caller's [`AdmissionPolicy`](crate::admission::AdmissionPolicy) to say,
/// as it is for a list arriving over the wire.
///
/// # Errors
///
/// Propagates tensor decoding errors.
pub fn read_prototypes(r: &mut dyn StateSource) -> Result<Vec<Option<Prototype>>, SnapshotError> {
    let count = r.take_usize()?;
    let mut out = Vec::new();
    for _ in 0..count {
        out.push(if r.take_bool()? {
            let count = r.take_usize()?;
            let vector = read_tensor(r)?;
            Some(Prototype { count, vector })
        } else {
            None
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `payload` framed for "FedPKD" by the stream writer.
    fn stream_of(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut w = SnapshotStreamWriter::new(&mut bytes, "FedPKD");
        w.put_raw(payload);
        w.finish().unwrap();
        bytes
    }

    /// Decodes an envelope expected to carry exactly 100 payload bytes.
    fn read_stream(mut bytes: &[u8]) -> Result<(String, Vec<u8>), SnapshotError> {
        let (mut r, name) = SnapshotStreamReader::open(&mut bytes)?;
        let mut payload = vec![0u8; 100];
        r.take_into(&mut payload)?;
        r.finish()?;
        Ok((name, payload))
    }

    #[test]
    fn envelope_round_trips() {
        let (name, payload) = read_stream(&stream_of(&[0xAB; 100])).unwrap();
        assert_eq!(name, "FedPKD");
        assert_eq!(payload, vec![0xAB; 100]);
    }

    #[test]
    fn stream_bytes_are_pinned() {
        // Header, three full chunks whatever the size of the pieces pushed
        // in, a 17-byte remainder, sentinel, trailer. The length is the
        // layout's and has not changed since the chunk codec moved to
        // `netsim`; the fingerprint changed with version 3, when the
        // trailer became XXH64, and with versions 4, 5 and 6, whose
        // envelope is version 3's (only the version word and so the
        // trailer differ).
        let payload: Vec<u8> = (0..3 * CHUNK + 17).map(|i| i as u8).collect();
        let mut bytes = Vec::new();
        let mut w = SnapshotStreamWriter::new(&mut bytes, "FedPKD");
        for piece in payload.chunks(1000) {
            w.put_raw(piece);
        }
        w.finish().unwrap();
        let mut fnv = fedpkd_netsim::Fnv1a::new();
        fnv.update(&bytes);
        assert_eq!(
            (bytes.len(), fnv.finish()),
            (196_675, 0x9109_7d53_096b_0508)
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = stream_of(&[0xAB; 100]);
        for len in 0..bytes.len() {
            assert_eq!(
                read_stream(&bytes[..len]),
                Err(SnapshotError::Truncated),
                "prefix of {len} bytes"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = stream_of(&[0xAB; 100]);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                read_stream(&corrupt).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn bad_magic_is_reported_first() {
        let mut bytes = stream_of(&[0xAB; 100]);
        bytes[0] = b'X';
        assert_eq!(read_stream(&bytes), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn other_versions_are_rejected() {
        // Version 1 was the buffered envelope, version 2 this layout under
        // an FNV-1a64 trailer, version 3 the FedPKD payload with a
        // prototype-bank tag, version 4 the payloads with a late-upload
        // queue; the next one does not exist yet.
        for version in [
            1,
            2,
            SNAPSHOT_STREAM_VERSION - 1,
            SNAPSHOT_STREAM_VERSION + 1,
        ] {
            let mut bytes = stream_of(&[0xAB; 100]);
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                read_stream(&bytes),
                Err(SnapshotError::UnsupportedVersion {
                    found: version,
                    supported: SNAPSHOT_STREAM_VERSION,
                })
            );
        }
    }

    #[test]
    fn trailing_payload_is_rejected() {
        assert!(matches!(
            read_stream(&stream_of(&[0xAB; 101])),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn primitives_round_trip() {
        let mut bytes: Vec<u8> = Vec::new();
        bytes.put_u8(7);
        bytes.put_u32(u32::MAX);
        bytes.put_u64(u64::MAX - 1);
        bytes.put_usize(42);
        bytes.put_f32(-0.0);
        bytes.put_f64(std::f64::consts::PI);
        bytes.put_bool(true);
        bytes.put_f32s(&[1.0, f32::NAN, -3.5]);
        let mut r = bytes.as_slice();
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), u32::MAX);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_usize().unwrap(), 42);
        assert_eq!(r.take_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.take_f64().unwrap(), std::f64::consts::PI);
        assert!(r.take_bool().unwrap());
        let fs = r.take_f32s().unwrap();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0], 1.0);
        assert!(fs[1].is_nan());
        assert_eq!(fs[2], -3.5);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_rejects_bad_bool_and_truncation() {
        let mut r: &[u8] = &[2];
        assert!(matches!(r.take_bool(), Err(SnapshotError::Malformed(_))));
        let mut r: &[u8] = &[1, 2, 3];
        assert_eq!(r.take_u64(), Err(SnapshotError::Truncated));
        assert_eq!(r.len(), 3, "a failed read consumes nothing");
    }

    #[test]
    fn rng_round_trips_mid_stream() {
        let mut rng = Rng::seed_from_u64(9);
        let _ = rng.next_u64();
        let mut bytes: Vec<u8> = Vec::new();
        write_rng(&mut bytes, &rng);
        let expected = rng.next_u64();
        let mut r = bytes.as_slice();
        let mut restored = read_rng(&mut r).unwrap();
        assert_eq!(restored.next_u64(), expected);
    }

    #[test]
    fn all_zero_rng_state_is_malformed() {
        let bytes = [0u8; 32];
        let mut r = bytes.as_slice();
        assert!(matches!(read_rng(&mut r), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn tensor_round_trips_bitwise() {
        let t = Tensor::from_vec(vec![1.5, -0.0, f32::NAN, 7.25, 0.1, -9.0], &[2, 3]).unwrap();
        let mut bytes: Vec<u8> = Vec::new();
        write_tensor(&mut bytes, &t);
        let mut r = bytes.as_slice();
        let back = read_tensor(&mut r).unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in back.as_slice().iter().zip(t.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn tensor_shape_data_mismatch_is_malformed() {
        let mut bytes: Vec<u8> = Vec::new();
        bytes.put_usize(1); // rank
        bytes.put_usize(4); // dim 4 …
        bytes.put_f32s(&[1.0, 2.0]); // … but only 2 values
        let mut r = bytes.as_slice();
        assert!(matches!(
            read_tensor(&mut r),
            Err(SnapshotError::Malformed(_))
        ));
        // Dimensions whose product wraps round to the value count (found by
        // `tests/snapshot_fuzz.rs`): 2^32 · 2^32 ≡ 0 values.
        let mut bytes: Vec<u8> = Vec::new();
        bytes.put_usize(2);
        bytes.put_u64(1 << 32);
        bytes.put_u64(1 << 32);
        bytes.put_f32s(&[]);
        let mut r = bytes.as_slice();
        assert!(matches!(
            read_tensor(&mut r),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn adam_state_round_trips() {
        use fedpkd_rng::Rng;
        use fedpkd_tensor::nn::{Layer as _, Linear};
        use fedpkd_tensor::optim::Optimizer;

        let mut rng = Rng::seed_from_u64(3);
        let mut layer = Linear::new(3, 2, &mut rng);
        let mut opt = Adam::new(0.01);
        layer.forward(&Tensor::zeros(&[1, 3]), true);
        layer.backward(&Tensor::from_vec(vec![0.5, -0.5], &[1, 2]).unwrap());
        opt.step(&mut layer);
        let mut bytes: Vec<u8> = Vec::new();
        write_adam(&mut bytes, &opt);
        let mut restored = Adam::new(0.5);
        let mut r = bytes.as_slice();
        read_adam(&mut r, &mut restored, &layer).unwrap();
        assert_eq!(restored.learning_rate(), 0.01);
        assert_eq!(restored.step_count(), 1);
        let (m0, v0) = opt.moments();
        let (m1, v1) = restored.moments();
        assert_eq!(m0.len(), m1.len());
        for (a, b) in m0.iter().zip(m1).chain(v0.iter().zip(v1)) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn driver_state_round_trips() {
        let mut ledger = CommLedger::new();
        ledger.record_bytes(0, 1, Direction::Uplink, 120);
        ledger.record_bytes(2, 0, Direction::Downlink, 44);
        let driver = DriverState::from_parts(3, ledger);
        let mut bytes: Vec<u8> = Vec::new();
        write_driver(&mut bytes, &driver);
        let mut r = bytes.as_slice();
        assert_eq!(read_driver(&mut r).unwrap(), driver);
        assert!(r.is_empty());
    }

    #[test]
    fn quarantine_round_trips_and_length_checks() {
        let mut tracker = QuarantineTracker::new(3);
        for _ in 0..QUARANTINE_AFTER {
            tracker.record_rejection(1);
        }
        tracker.record_rejection(2);
        assert!(tracker.is_quarantined(1));
        let mut bytes: Vec<u8> = Vec::new();
        write_quarantine(&mut bytes, &tracker);
        let mut restored = QuarantineTracker::new(3);
        let mut r = bytes.as_slice();
        read_quarantine(&mut r, &mut restored).unwrap();
        assert_eq!(restored, tracker);
        // Wrong client count must be a typed error, not a panic.
        let mut wrong = QuarantineTracker::new(5);
        let mut r = bytes.as_slice();
        assert!(matches!(
            read_quarantine(&mut r, &mut wrong),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn a_free_client_at_the_quarantine_threshold_is_malformed() {
        let restore = |streak: usize, quarantined: bool| {
            let mut tracker = QuarantineTracker::new(2);
            tracker.restore_parts(vec![0, streak], vec![false, quarantined]);
            let mut bytes: Vec<u8> = Vec::new();
            write_quarantine(&mut bytes, &tracker);
            let mut restored = QuarantineTracker::new(2);
            read_quarantine(&mut bytes.as_slice(), &mut restored).map(|()| restored)
        };
        for streak in [usize::MAX, QUARANTINE_AFTER] {
            assert!(
                matches!(restore(streak, false), Err(SnapshotError::Malformed(_))),
                "streak {streak}, not quarantined"
            );
        }
        let mut below = restore(QUARANTINE_AFTER - 1, false).unwrap();
        assert!(below.record_rejection(1), "the next rejection quarantines");
        for streak in [0, QUARANTINE_AFTER - 1, QUARANTINE_AFTER, usize::MAX] {
            let restored = restore(streak, true).unwrap();
            assert_eq!(restored.streak(1), streak);
            assert!(restored.is_quarantined(1));
        }
    }

    #[test]
    fn opt_tensors_round_trip() {
        let tensors = vec![
            Some(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap()),
            None,
            Some(Tensor::from_vec(vec![-3.0], &[1]).unwrap()),
        ];
        let mut bytes: Vec<u8> = Vec::new();
        write_opt_tensors(&mut bytes, &tensors);
        let mut r = bytes.as_slice();
        let back = read_opt_tensors(&mut r).unwrap();
        assert_eq!(back.len(), 3);
        assert!(back[1].is_none());
        assert_eq!(back[0].as_ref().unwrap().as_slice(), &[1.0, 2.0]);
        assert_eq!(back[2].as_ref().unwrap().as_slice(), &[-3.0]);
    }

    #[test]
    fn errors_display_and_implement_error() {
        let errs: Vec<SnapshotError> = vec![
            SnapshotError::Truncated,
            SnapshotError::BadMagic,
            SnapshotError::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
            SnapshotError::ChecksumMismatch,
            SnapshotError::AlgorithmMismatch {
                expected: "FedPKD".into(),
                found: "FedAvg".into(),
            },
            SnapshotError::Malformed("oops".into()),
        ];
        for e in errs {
            let _: &dyn std::error::Error = &e;
            assert!(!e.to_string().is_empty());
        }
    }
}
