//! The one chunk envelope: bounded length-prefixed chunks under a running
//! XXH64 trailer.
//!
//! Both byte streams this workspace frames — the snapshot stream of
//! `fedpkd-core` and the socket frame of `fedpkd-serve` — are
//!
//! ```text
//! header · (len: u32 LE, 0 < len ≤ CHUNK · bytes)* · 0u32 · xxh64: u64 LE
//! ```
//!
//! where the header is the user's own (magic, version and name for a
//! snapshot; a kind byte for a frame) and the trailer is the [`Xxh64`] of
//! every byte before it. [`ChunkWriter`] and [`ChunkReader`] are the only
//! implementation of that discipline: the writer stages payload into full
//! `CHUNK`-sized chunks followed by the remainder, the reader holds one
//! chunk at a time and rejects a declared length above [`CHUNK`] before
//! allocating for it, so neither side's memory depends on what the length
//! fields say.
//!
//! ```
//! use fedpkd_netsim::chunk::{ChunkReader, ChunkWriter};
//!
//! let mut bytes = Vec::new();
//! let mut w = ChunkWriter::new(&mut bytes);
//! w.header(b"hi");
//! w.write(&[7; 100])?;
//! w.finish()?;
//!
//! let mut r = ChunkReader::new(bytes.as_slice(), &[]);
//! let mut header = [0u8; 2];
//! r.header(&mut header)?;
//! assert_eq!(&header, b"hi");
//! assert!(r.advance()?);
//! assert_eq!(r.current(), &[7; 100]);
//! assert!(!r.advance()?);
//! r.finish()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::Xxh64;
use std::io::{Read, Write};

/// Maximum payload bytes per chunk.
pub const CHUNK: usize = 64 * 1024;

/// Why a chunk stream could not be read.
#[derive(Debug)]
#[non_exhaustive]
pub enum ChunkError {
    /// The stream ended before the envelope was complete.
    Truncated,
    /// A chunk length prefix exceeds [`CHUNK`].
    ChunkTooLarge {
        /// The declared chunk length.
        len: usize,
    },
    /// The trailer does not match the bytes read.
    ChecksumMismatch,
    /// An I/O failure other than end-of-stream.
    Io(std::io::Error),
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "chunk stream is truncated"),
            Self::ChunkTooLarge { len } => write!(f, "chunk length {len} exceeds {CHUNK}"),
            Self::ChecksumMismatch => write!(f, "chunk stream checksum mismatch"),
            Self::Io(e) => write!(f, "chunk stream i/o error: {e}"),
        }
    }
}

impl std::error::Error for ChunkError {}

impl From<std::io::Error> for ChunkError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => Self::Truncated,
            _ => Self::Io(e),
        }
    }
}

/// Writes one chunk envelope into `W`, hashing everything it emits.
///
/// Call [`header`](Self::header) for the user's prefix, then
/// [`write`](Self::write) any number of times, then
/// [`finish`](Self::finish) — without it the envelope has no sentinel and
/// no trailer. One chunk is staged at a time and reaches the sink in one
/// write, the last with the sentinel and trailer: callers need no
/// `BufWriter`.
pub struct ChunkWriter<W: Write> {
    sink: W,
    hash: Xxh64,
    /// Bytes not yet handed to the sink: `staged[..head]` is header, then
    /// the open chunk's length prefix and payload.
    staged: Vec<u8>,
    head: usize,
}

impl<W: Write> ChunkWriter<W> {
    /// Starts an envelope on `sink`.
    pub fn new(sink: W) -> Self {
        Self {
            sink,
            hash: Xxh64::default(),
            staged: Vec::new(),
            head: 0,
        }
    }

    /// Stages header bytes — hashed, not chunked — which must precede any
    /// payload. They reach the sink with the first chunk.
    pub fn header(&mut self, bytes: &[u8]) {
        self.staged.extend_from_slice(bytes);
        self.head = self.staged.len();
    }

    /// Appends payload bytes. A full chunk goes to the sink once payload
    /// for the next one arrives.
    ///
    /// # Errors
    ///
    /// The sink's I/O failure.
    pub fn write(&mut self, mut payload: &[u8]) -> std::io::Result<()> {
        while !payload.is_empty() {
            if self.staged.len() == self.head + 4 + CHUNK {
                self.emit()?;
            }
            if self.staged.len() == self.head {
                self.staged.extend_from_slice(&[0; 4]);
            }
            let n = (self.head + 4 + CHUNK - self.staged.len()).min(payload.len());
            self.staged.reserve(n + 12); // and the sentinel and trailer
            self.staged.extend_from_slice(&payload[..n]);
            payload = &payload[n..];
        }
        Ok(())
    }

    /// Fills in the open chunk's length prefix, if a chunk is open.
    fn close(&mut self) {
        if let Some(len) = self.staged.len().checked_sub(self.head + 4) {
            self.staged[self.head..][..4].copy_from_slice(&(len as u32).to_le_bytes());
        }
    }

    /// Hands the staged header and full chunk to the sink in one write.
    fn emit(&mut self) -> std::io::Result<()> {
        self.close();
        self.hash.update(&self.staged);
        self.sink.write_all(&self.staged)?;
        self.staged.clear();
        self.head = 0;
        Ok(())
    }

    /// Ends the envelope: the open chunk, the zero-length sentinel and the
    /// trailer, in one write. Does not flush the sink.
    ///
    /// # Errors
    ///
    /// The sink's I/O failure.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.close();
        self.staged.extend_from_slice(&0u32.to_le_bytes());
        self.hash.update(&self.staged);
        let trailer = self.hash.finish();
        self.staged.extend_from_slice(&trailer.to_le_bytes());
        self.sink.write_all(&self.staged)
    }
}

/// Reads one chunk envelope from `R`, hashing everything it consumes and
/// holding one chunk (≤ [`CHUNK`] bytes) at a time.
pub struct ChunkReader<R: Read> {
    source: R,
    hash: Xxh64,
    chunk: Vec<u8>,
    /// The zero-length sentinel has been consumed.
    done: bool,
}

impl<R: Read> ChunkReader<R> {
    /// Starts reading an envelope from `source`. `consumed` is whatever
    /// part of the envelope's header the caller has already read off the
    /// stream itself (a server that polls for a frame's first byte, say);
    /// it is hashed as if read here.
    pub fn new(source: R, consumed: &[u8]) -> Self {
        let mut hash = Xxh64::default();
        hash.update(consumed);
        Self {
            source,
            hash,
            chunk: Vec::new(),
            done: false,
        }
    }

    /// Reads `out.len()` header bytes: hashed, not chunked.
    ///
    /// # Errors
    ///
    /// [`ChunkError::Truncated`] or [`ChunkError::Io`].
    pub fn header(&mut self, out: &mut [u8]) -> Result<(), ChunkError> {
        self.source.read_exact(out)?;
        self.hash.update(out);
        Ok(())
    }

    /// Reads the next chunk into [`current`](Self::current). Returns
    /// `false` — leaving `current` empty — once the sentinel has been read.
    ///
    /// # Errors
    ///
    /// [`ChunkError::ChunkTooLarge`] for a length above [`CHUNK`], raised
    /// before anything is allocated for it; [`ChunkError::Truncated`] or
    /// [`ChunkError::Io`] from the source.
    pub fn advance(&mut self) -> Result<bool, ChunkError> {
        self.chunk.clear();
        if self.done {
            return Ok(false);
        }
        let mut len = [0u8; 4];
        self.header(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len == 0 {
            self.done = true;
            return Ok(false);
        }
        if len > CHUNK {
            return Err(ChunkError::ChunkTooLarge { len });
        }
        self.chunk.resize(len, 0);
        self.source.read_exact(&mut self.chunk)?;
        self.hash.update(&self.chunk);
        Ok(true)
    }

    /// The chunk the last [`advance`](Self::advance) read.
    pub fn current(&self) -> &[u8] {
        &self.chunk
    }

    /// Verifies the trailer. Call once [`advance`](Self::advance) has
    /// returned `false`; earlier, the bytes compared are not the trailer
    /// and the result is an error.
    ///
    /// # Errors
    ///
    /// [`ChunkError::ChecksumMismatch`] when the stored trailer is not the
    /// hash of the bytes read (or the sentinel has not been reached);
    /// [`ChunkError::Truncated`] or [`ChunkError::Io`] from the source.
    pub fn finish(mut self) -> Result<(), ChunkError> {
        let mut stored = [0u8; 8];
        self.source.read_exact(&mut stored)?;
        if !self.done || u64::from_le_bytes(stored) != self.hash.finish() {
            return Err(ChunkError::ChecksumMismatch);
        }
        Ok(())
    }
}
