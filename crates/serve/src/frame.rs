//! Length-prefixed streaming frames over a byte stream.
//!
//! A frame carries one protocol payload across a socket: a kind byte, then
//! the payload as the chunk envelope of [`fedpkd_netsim::chunk`] — the same
//! one the snapshot stream of `fedpkd-core` uses:
//!
//! ```text
//! kind: u8 · (len: u32 LE, len > 0 · chunk bytes)* · 0u32 · xxh64: u64 LE
//! ```
//!
//! Chunks are at most [`FRAME_CHUNK`] bytes; a zero length terminates the
//! chunk list, and the trailer is the running XXH64 over every byte
//! before it (kind, length prefixes, chunk bytes, and the sentinel). The
//! chunk reader rejects an over-long chunk before allocating for it and
//! this module checks the payload cap before the payload grows — a hostile
//! length prefix costs a typed [`FrameError`], never memory — and the
//! trailer is verified before the payload is handed to the protocol layer,
//! so a flipped bit anywhere in transit surfaces as
//! [`FrameError::ChecksumMismatch`] instead of a plausible-but-wrong
//! payload. What hostile bytes can do to the envelope itself is fuzzed
//! once, in `crates/netsim/tests/wire_fuzz.rs`; the tests here check this
//! module's error mapping, the cap and the clean-EOF rule.

use fedpkd_netsim::chunk::{ChunkError, ChunkReader, ChunkWriter};
use std::io::{Read, Write};

/// Maximum bytes per chunk — the chunk envelope's own bound.
pub use fedpkd_netsim::chunk::CHUNK as FRAME_CHUNK;

/// Default cap on a frame's total payload (16 MiB), far above any payload
/// the protocol produces but low enough that a hostile peer cannot balloon
/// server memory.
pub const DEFAULT_MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameError {
    /// The stream ended mid-frame.
    Truncated,
    /// A chunk length prefix exceeds [`FRAME_CHUNK`].
    ChunkTooLarge {
        /// The declared chunk length.
        len: usize,
    },
    /// The frame's total payload exceeds the reader's cap.
    Oversized {
        /// Payload bytes declared so far.
        len: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The XXH64 trailer does not match the received bytes.
    ChecksumMismatch,
    /// An I/O failure other than clean end-of-stream.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "stream ended mid-frame"),
            Self::ChunkTooLarge { len } => {
                write!(f, "chunk length {len} exceeds {FRAME_CHUNK}")
            }
            Self::Oversized { len, cap } => {
                write!(f, "frame payload of {len} bytes exceeds cap {cap}")
            }
            Self::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            Self::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => Self::Truncated,
            _ => Self::Io(e),
        }
    }
}

impl From<ChunkError> for FrameError {
    fn from(e: ChunkError) -> Self {
        match e {
            ChunkError::ChunkTooLarge { len } => Self::ChunkTooLarge { len },
            ChunkError::ChecksumMismatch => Self::ChecksumMismatch,
            ChunkError::Io(e) => Self::Io(e),
            // `Truncated`, and whatever a later `netsim` adds.
            _ => Self::Truncated,
        }
    }
}

/// Writes one frame: kind byte, 64 KiB chunks, sentinel, XXH64 trailer,
/// handing `w` one write per chunk.
///
/// # Errors
///
/// Any underlying I/O failure.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    let mut chunks = ChunkWriter::new(&mut *w);
    chunks.header(&[kind]);
    chunks.write(payload)?;
    chunks.finish()?;
    w.flush()
}

/// Reads one frame, returning `(kind, payload)`, or `Ok(None)` on a clean
/// end-of-stream (the peer closed between frames).
///
/// # Errors
///
/// A typed [`FrameError`]; memory use is bounded by `max_payload` plus one
/// chunk regardless of what the peer declares.
pub fn read_frame(
    r: &mut impl Read,
    max_payload: usize,
) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut kind = [0u8; 1];
    // A clean EOF before the first byte means "no more frames".
    match r.read(&mut kind) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            r.read_exact(&mut kind)?;
        }
        Err(e) => return Err(e.into()),
    }
    Ok(Some((
        kind[0],
        read_frame_after_kind(r, kind[0], max_payload)?,
    )))
}

/// Reads the remainder of a frame whose kind byte has already been
/// consumed — the entry point for servers that poll for the first byte
/// under a read timeout (a timeout *between* frames is idle, a timeout
/// *inside* one is a fault) and then commit to reading the body.
///
/// # Errors
///
/// As [`read_frame`], except end-of-stream here is always
/// [`FrameError::Truncated`] — the kind byte promised a frame.
pub fn read_frame_after_kind(
    r: &mut impl Read,
    kind: u8,
    max_payload: usize,
) -> Result<Vec<u8>, FrameError> {
    let mut chunks = ChunkReader::new(r, &[kind]);
    let mut payload = Vec::new();
    while chunks.advance()? {
        let chunk = chunks.current();
        if payload.len() + chunk.len() > max_payload {
            return Err(FrameError::Oversized {
                len: payload.len() + chunk.len(),
                cap: max_payload,
            });
        }
        payload.extend_from_slice(chunk);
    }
    chunks.finish()?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(kind: u8, payload: &[u8]) -> (u8, Vec<u8>) {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, payload).unwrap();
        read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .expect("frame present")
    }

    #[test]
    fn frames_round_trip() {
        for payload in [
            Vec::new(),
            vec![7u8; 1],
            vec![42u8; FRAME_CHUNK],
            vec![9u8; FRAME_CHUNK + 1],
            vec![1u8; 3 * FRAME_CHUNK + 17],
        ] {
            let (kind, got) = round_trip(5, &payload);
            assert_eq!(kind, 5);
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn frame_bytes_are_pinned() {
        // Kind, three full chunks, a 17-byte remainder, sentinel, trailer.
        // The length is the layout's and has not changed since the chunk
        // codec moved to `netsim`; the fingerprint changed once, when the
        // trailer became XXH64 (only the last 8 bytes differ). Both ends
        // of a socket must be built from the same side of that change.
        let payload: Vec<u8> = (0..3 * FRAME_CHUNK + 17).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, 5, &payload).unwrap();
        let mut fnv = fedpkd_netsim::Fnv1a::new();
        fnv.update(&buf);
        assert_eq!((buf.len(), fnv.finish()), (196_654, 0x8cb1_afa8_044c_70d2));
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_truncated() {
        assert!(matches!(
            read_frame(&mut [].as_slice(), DEFAULT_MAX_PAYLOAD),
            Ok(None)
        ));
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, &[1, 2, 3]).unwrap();
        for cut in 1..buf.len() {
            match read_frame(&mut &buf[..cut], DEFAULT_MAX_PAYLOAD) {
                Err(FrameError::Truncated) => {}
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_are_checksum_mismatches_or_typed() {
        let mut pristine = Vec::new();
        write_frame(&mut pristine, 3, &[0xAB; 300]).unwrap();
        for pos in 0..pristine.len() {
            let mut buf = pristine.clone();
            buf[pos] ^= 0x40;
            // Every single-bit corruption must surface as a typed error —
            // most as a checksum mismatch, length-prefix hits as size or
            // truncation errors. Never a wrong payload.
            match read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD) {
                Ok(Some((kind, payload))) => {
                    panic!(
                        "pos {pos}: corruption accepted ({kind}, {} bytes)",
                        payload.len()
                    )
                }
                Ok(None) => panic!("pos {pos}: corruption read as clean EOF"),
                Err(_) => {}
            }
        }
    }

    #[test]
    fn hostile_lengths_are_capped_before_allocation() {
        // A chunk claiming more than FRAME_CHUNK.
        let mut buf = vec![1u8];
        buf.extend_from_slice(&(FRAME_CHUNK as u32 + 1).to_le_bytes());
        match read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD) {
            Err(FrameError::ChunkTooLarge { len }) => assert_eq!(len, FRAME_CHUNK + 1),
            other => panic!("expected ChunkTooLarge, got {other:?}"),
        }
        // Valid chunks whose running total exceeds the reader's cap.
        let mut buf = vec![1u8];
        let chunk = vec![0u8; FRAME_CHUNK];
        for _ in 0..3 {
            buf.extend_from_slice(&(FRAME_CHUNK as u32).to_le_bytes());
            buf.extend_from_slice(&chunk);
        }
        match read_frame(&mut buf.as_slice(), 2 * FRAME_CHUNK) {
            Err(FrameError::Oversized { cap, .. }) => assert_eq!(cap, 2 * FRAME_CHUNK),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn frames_stream_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"first").unwrap();
        write_frame(&mut buf, 2, b"second").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_PAYLOAD).unwrap(),
            Some((1, b"first".to_vec()))
        );
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_PAYLOAD).unwrap(),
            Some((2, b"second".to_vec()))
        );
        assert!(read_frame(&mut r, DEFAULT_MAX_PAYLOAD).unwrap().is_none());
    }
}
