//! Binary wire encoding.
//!
//! All primitives are little-endian and hand-rolled on `std` slices — the
//! codec has no dependencies, which keeps offline/vendored builds trivial.

/// Errors from decoding a wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// An unknown message tag was encountered.
    UnknownTag(u8),
    /// A declared length exceeds sanity limits.
    LengthOverflow(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnexpectedEof => write!(f, "unexpected end of buffer"),
            Self::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            Self::LengthOverflow(n) => write!(f, "declared length {n} exceeds limit"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum element count accepted for any encoded collection (a decode-time
/// sanity bound against corrupted buffers).
pub(crate) const MAX_LEN: u64 = 1 << 28;

/// A type with a deterministic, byte-accurate binary encoding.
///
/// All quantities crossing the simulated network implement `Wire`; the
/// communication ledger charges exactly [`encoded_len`](Wire::encoded_len)
/// bytes per transfer, and `encode`/`decode` round-trip losslessly (verified
/// by property tests).
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the front of `buf`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the buffer is truncated or malformed.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// Exact number of bytes [`encode`](Wire::encode) will append.
    fn encoded_len(&self) -> usize;

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }
}

/// Splits `N` bytes off the front of `buf`, advancing it.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], WireError> {
    Ok(split(buf, N)?.try_into().expect("split guarantees length"))
}

/// Reads one byte off the front of `buf`.
///
/// # Errors
///
/// [`WireError::UnexpectedEof`] on a short buffer, as every `get_*` here.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    Ok(take::<1>(buf)?[0])
}

/// Reads a little-endian `u32` off the front of `buf`.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    Ok(u32::from_le_bytes(take::<4>(buf)?))
}

/// Reads a little-endian `u64` off the front of `buf`.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    Ok(u64::from_le_bytes(take::<8>(buf)?))
}

pub(crate) fn get_f32(buf: &mut &[u8]) -> Result<f32, WireError> {
    Ok(f32::from_le_bytes(take::<4>(buf)?))
}

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Splits `n` raw bytes off the front of `buf`, advancing it.
fn split<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::UnexpectedEof);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Splits `n` raw bytes off the front of `buf` into a fresh vector.
pub(crate) fn get_bytes(buf: &mut &[u8], n: usize) -> Result<Vec<u8>, WireError> {
    split(buf, n).map(<[u8]>::to_vec)
}

pub(crate) fn get_len(buf: &mut &[u8]) -> Result<usize, WireError> {
    let n = get_u32(buf)? as u64;
    if n > MAX_LEN {
        return Err(WireError::LengthOverflow(n));
    }
    Ok(n as usize)
}

pub(crate) fn put_f32_slice(buf: &mut Vec<u8>, values: &[f32]) {
    buf.reserve(4 + 4 * values.len());
    put_u32(buf, values.len() as u32);
    for &v in values {
        put_f32(buf, v);
    }
}

/// Reads a length-prefixed run of 4-byte values in one exact-size pass.
fn get_vec4<T>(buf: &mut &[u8], from_le: fn([u8; 4]) -> T) -> Result<Vec<T>, WireError> {
    let n = get_len(buf)?;
    let bytes = split(buf, n * 4)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| from_le(c.try_into().expect("chunks_exact(4)")))
        .collect())
}

pub(crate) fn get_f32_vec(buf: &mut &[u8]) -> Result<Vec<f32>, WireError> {
    get_vec4(buf, f32::from_le_bytes)
}

pub(crate) fn put_u32_slice(buf: &mut Vec<u8>, values: &[u32]) {
    buf.reserve(4 + 4 * values.len());
    put_u32(buf, values.len() as u32);
    for &v in values {
        put_u32(buf, v);
    }
}

pub(crate) fn get_u32_vec(buf: &mut &[u8]) -> Result<Vec<u32>, WireError> {
    get_vec4(buf, u32::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_slice_round_trip() {
        let values = vec![1.0f32, -2.5, f32::MAX, 0.0];
        let mut buf = Vec::new();
        put_f32_slice(&mut buf, &values);
        let mut slice = buf.as_slice();
        let decoded = get_f32_vec(&mut slice).unwrap();
        assert_eq!(decoded, values);
        assert!(slice.is_empty());
    }

    #[test]
    fn u32_slice_round_trip() {
        let values = vec![0u32, 7, u32::MAX];
        let mut buf = Vec::new();
        put_u32_slice(&mut buf, &values);
        let mut slice = buf.as_slice();
        assert_eq!(get_u32_vec(&mut slice).unwrap(), values);
    }

    #[test]
    fn truncated_buffer_is_an_error() {
        let mut buf = Vec::new();
        put_f32_slice(&mut buf, &[1.0, 2.0]);
        buf.truncate(buf.len() - 1);
        let mut slice = buf.as_slice();
        assert_eq!(get_f32_vec(&mut slice), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn absurd_length_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut slice = buf.as_slice();
        assert!(matches!(
            get_f32_vec(&mut slice),
            Err(WireError::LengthOverflow(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(!WireError::UnexpectedEof.to_string().is_empty());
        assert!(!WireError::UnknownTag(9).to_string().is_empty());
        assert!(!WireError::LengthOverflow(1).to_string().is_empty());
    }
}
