//! Hostile-bytes fuzzing of every `Wire` decoder.
//!
//! The serving layer (`fedpkd-serve`) feeds socket bytes straight into
//! these decoders, so they are the trust boundary of the real transport:
//! whatever an adversarial client puts on the wire, decoding must return a
//! typed [`WireError`] or a value — never panic, and never allocate more
//! than the input it was handed (the element caps bound every length
//! field, and every collection read checks the remaining buffer *before*
//! materializing elements).
//!
//! Three hostile shapes are fuzzed for each `Wire` impl:
//!
//! - **truncated** — a valid encoding cut at every possible length,
//! - **bit-flipped** — a valid encoding with one corrupted byte (length
//!   fields, tags, and values all get hit across cases),
//! - **garbage** — arbitrary byte soup, including buffers opening with
//!   absurd length claims.
//!
//! The last section does the same to the chunk envelope of
//! [`fedpkd_netsim::chunk`], which carries both the serve frame and the
//! snapshot stream: this is the one place hostile bytes meet the length
//! prefixes, the sentinel and the trailer; the frame's and the snapshot's
//! own tests check only how each maps the errors.

use fedpkd_netsim::chunk::{ChunkError, ChunkReader, ChunkWriter, CHUNK};
use fedpkd_netsim::{Message, PrototypeEntry, QuantizedLogits, Wire, WireError, Xxh64};
use proptest::prelude::*;

fn arb_prototype_entry() -> impl Strategy<Value = PrototypeEntry> {
    (
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(-1e6f32..1e6, 0..32),
    )
        .prop_map(|(class, count, vector)| PrototypeEntry {
            class,
            count,
            vector,
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        prop::collection::vec(-1e6f32..1e6, 0..64)
            .prop_map(|params| Message::ModelUpdate { params }),
        (
            prop::collection::vec(any::<u32>(), 0..32),
            1u32..64,
            prop::collection::vec(-1e3f32..1e3, 0..64),
        )
            .prop_map(|(sample_ids, num_classes, values)| Message::Logits {
                sample_ids,
                num_classes,
                values,
            }),
        prop::collection::vec(arb_prototype_entry(), 0..6)
            .prop_map(|entries| Message::Prototypes { entries }),
        prop::collection::vec(any::<u32>(), 0..64).prop_map(|ids| Message::SampleSelection { ids }),
    ]
}

fn arb_quantized() -> impl Strategy<Value = QuantizedLogits> {
    (
        prop::collection::vec(any::<u32>(), 1..16),
        1u32..8,
        -1e3f32..1e3,
    )
        .prop_flat_map(|(ids, classes, base)| {
            let n = ids.len() * classes as usize;
            prop::collection::vec(-50.0f32..50.0, n..=n).prop_map(move |values| {
                let shifted: Vec<f32> = values.iter().map(|v| v + base).collect();
                QuantizedLogits::from_values(&ids, classes, &shifted)
                    .expect("finite inputs quantize")
            })
        })
}

/// Decoding must yield a typed outcome — `Ok` or a `WireError` — and on
/// `Ok` must never have consumed more bytes than the buffer held. The
/// closure runs the decode; reaching the end of this function *is* the
/// assertion that nothing panicked.
fn decode_is_total<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut slice = bytes;
    let out = T::decode(&mut slice);
    assert!(slice.len() <= bytes.len());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every strict prefix of a valid message decodes to a typed error or
    /// (if a shorter valid message happens to be a prefix) a value —
    /// never a panic. The full encoding always decodes back.
    #[test]
    fn truncated_messages_never_panic(msg in arb_message(), cut in 0usize..64) {
        let bytes = msg.to_bytes();
        let cut = cut.min(bytes.len().saturating_sub(1));
        let _ = decode_is_total::<Message>(&bytes[..cut]);
        prop_assert_eq!(decode_is_total::<Message>(&bytes).unwrap(), msg);
    }

    /// One flipped byte anywhere — tag, length field, or value — yields a
    /// typed outcome. If the flip lands in a length field the decoder must
    /// not over-allocate: every collection read checks the remaining
    /// buffer before materializing, so decode memory stays O(input).
    #[test]
    fn bit_flipped_messages_never_panic(
        msg in arb_message(),
        pos in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut bytes = msg.to_bytes();
        if bytes.is_empty() {
            return Ok(());
        }
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let _ = decode_is_total::<Message>(&bytes);
    }

    /// Arbitrary byte soup is a typed outcome for every decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_is_total::<Message>(&bytes);
        let _ = decode_is_total::<PrototypeEntry>(&bytes);
        let _ = decode_is_total::<QuantizedLogits>(&bytes);
    }

    /// Truncations and bit-flips of quantized payloads never panic, and
    /// the untouched encoding round-trips.
    #[test]
    fn quantized_hostile_bytes_never_panic(
        q in arb_quantized(),
        cut in 0usize..64,
        pos in 0usize..4096,
        bit in 0u8..8,
    ) {
        let bytes = q.to_bytes();
        prop_assert_eq!(bytes.len(), q.encoded_len());
        let cut = cut.min(bytes.len().saturating_sub(1));
        let _ = decode_is_total::<QuantizedLogits>(&bytes[..cut]);
        let mut flipped = bytes.clone();
        let pos = pos % flipped.len();
        flipped[pos] ^= 1 << bit;
        let _ = decode_is_total::<QuantizedLogits>(&flipped);
        prop_assert_eq!(decode_is_total::<QuantizedLogits>(&bytes).unwrap(), q);
    }

    /// Truncations and bit-flips of a bare prototype entry never panic.
    #[test]
    fn prototype_entry_hostile_bytes_never_panic(
        entry in arb_prototype_entry(),
        cut in 0usize..32,
        pos in 0usize..4096,
    ) {
        let bytes = entry.to_bytes();
        let cut = cut.min(bytes.len().saturating_sub(1));
        let _ = decode_is_total::<PrototypeEntry>(&bytes[..cut]);
        let mut flipped = bytes.clone();
        let pos = pos % flipped.len();
        flipped[pos] ^= 0xFF;
        let _ = decode_is_total::<PrototypeEntry>(&flipped);
        prop_assert_eq!(decode_is_total::<PrototypeEntry>(&bytes).unwrap(), entry);
    }
}

/// A length claim past the element cap is rejected before any allocation —
/// the oversized-frame admission path of the serving layer.
#[test]
fn absurd_length_claims_are_capped() {
    for tag in [1u8, 2, 3, 4] {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        // Plenty of trailing bytes so EOF is not what saves us.
        bytes.extend_from_slice(&[0u8; 64]);
        match decode_is_total::<Message>(&bytes) {
            Err(WireError::LengthOverflow(n)) => assert_eq!(n, u64::from(u32::MAX)),
            other => panic!("tag {tag}: expected LengthOverflow, got {other:?}"),
        }
    }
    // Quantized payloads cap their value-byte length the same way.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&0u32.to_le_bytes()); // no sample ids
    bytes.extend_from_slice(&2u32.to_le_bytes()); // num_classes
    bytes.extend_from_slice(&0f32.to_le_bytes()); // min
    bytes.extend_from_slice(&1f32.to_le_bytes()); // scale
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd value count
    bytes.extend_from_slice(&[0u8; 64]);
    assert!(matches!(
        decode_is_total::<QuantizedLogits>(&bytes),
        Err(WireError::LengthOverflow(_))
    ));
}

/// A truncated buffer whose *length field* claims more than remains must
/// error without allocating the claimed amount: the decoders check the
/// remaining buffer first, so memory stays bounded by the input size.
#[test]
fn declared_length_beyond_buffer_is_eof_not_allocation() {
    // Claims 2^27 f32s (512 MiB) but carries 8 bytes.
    let mut bytes = vec![1u8]; // ModelUpdate tag
    bytes.extend_from_slice(&((1u32 << 27).to_le_bytes()));
    bytes.extend_from_slice(&[0u8; 8]);
    assert_eq!(
        decode_is_total::<Message>(&bytes),
        Err(WireError::UnexpectedEof)
    );
}

// ---- The chunk envelope. ------------------------------------------------

const HEADER: &[u8] = b"hdr";

fn envelope(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = ChunkWriter::new(&mut bytes);
    w.header(HEADER);
    w.write(payload).unwrap();
    w.finish().unwrap();
    bytes
}

/// Reads a whole envelope the way both users do: header, chunks up to the
/// sentinel, trailer. The payload is only returned once the trailer has
/// vouched for it.
fn read_envelope(bytes: &[u8]) -> Result<Vec<u8>, ChunkError> {
    let mut r = ChunkReader::new(bytes, &[]);
    let mut header = [0u8; HEADER.len()];
    r.header(&mut header)?;
    let mut payload = Vec::new();
    while r.advance()? {
        assert!(!r.current().is_empty() && r.current().len() <= CHUNK);
        payload.extend_from_slice(r.current());
    }
    r.finish()?;
    Ok(payload)
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + 3) as u8).collect()
}

#[test]
fn chunk_envelopes_round_trip_at_every_boundary() {
    for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 17] {
        let payload = pattern(len);
        let bytes = envelope(&payload);
        // Full chunks, then the remainder; 4 bytes per prefix and sentinel.
        let chunks = len.div_ceil(CHUNK);
        assert_eq!(bytes.len(), HEADER.len() + len + 4 * chunks + 4 + 8);
        assert_eq!(read_envelope(&bytes).unwrap(), payload, "{len} bytes");
        // Many small writes stage into the same chunks as one large one.
        let mut pieces = Vec::new();
        let mut w = ChunkWriter::new(&mut pieces);
        w.header(HEADER);
        for piece in payload.chunks(999) {
            w.write(piece).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(pieces, bytes, "{len} bytes in pieces");
    }
}

/// A sink that counts the writes it is handed.
struct CountingSink {
    bytes: Vec<u8>,
    writes: usize,
}

impl std::io::Write for CountingSink {
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
fn each_chunk_reaches_the_sink_in_one_write() {
    // Up to one chunk: header, chunk, sentinel and trailer in one write.
    // More: one write per chunk followed by more payload, then the tail
    // (the last chunk, sentinel and trailer) in one.
    for (len, writes) in [
        (0, 1),
        (1, 1),
        (32_000, 1),
        (CHUNK, 1),
        (CHUNK + 1, 2),
        (3 * CHUNK, 3),
        (3 * CHUNK + 17, 4),
    ] {
        let payload = pattern(len);
        let mut sink = CountingSink {
            bytes: Vec::new(),
            writes: 0,
        };
        let mut w = ChunkWriter::new(&mut sink);
        w.header(HEADER);
        for piece in payload.chunks(999) {
            w.write(piece).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(sink.writes, writes, "{len} bytes");
        assert_eq!(sink.bytes, envelope(&payload), "{len} bytes");
    }
}

#[test]
fn every_truncation_of_a_chunk_envelope_is_truncated() {
    for len in [0, 300, CHUNK + 50] {
        let bytes = envelope(&pattern(len));
        // Every cut of the small envelopes; of the two-chunk one, a stride
        // plus every cut around its prefixes, sentinel and trailer.
        let second_prefix = HEADER.len() + 4 + CHUNK;
        let cuts: Vec<usize> = if len <= 300 {
            (0..bytes.len()).collect()
        } else {
            (0..bytes.len())
                .step_by(509)
                .chain(0..16)
                .chain(second_prefix - 4..second_prefix + 8)
                .chain(bytes.len() - 70..bytes.len())
                .collect()
        };
        for cut in cuts {
            assert!(
                matches!(read_envelope(&bytes[..cut]), Err(ChunkError::Truncated)),
                "{len}-byte payload cut at {cut}"
            );
        }
    }
}

#[test]
fn every_single_bit_flip_in_a_chunk_envelope_is_a_typed_error() {
    // Exhaustive over a one-chunk envelope; over a two-chunk one, every
    // bit of the framing (both prefixes, sentinel, trailer) and a stride
    // of payload bytes.
    let small = envelope(&pattern(300));
    let large = envelope(&pattern(CHUNK + 50));
    let second_prefix = HEADER.len() + 4 + CHUNK;
    let large_positions = (0..HEADER.len() + 4)
        .chain(second_prefix..second_prefix + 4)
        .chain(large.len() - 12..large.len())
        .chain((HEADER.len() + 4..large.len()).step_by(4099));
    let cases = (0..small.len())
        .map(|pos| (&small, pos))
        .chain(large_positions.map(|pos| (&large, pos)));
    for (bytes, pos) in cases {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            // Payload and header flips fail the trailer; flips in a length
            // prefix or the sentinel misframe the rest and surface as a
            // size, truncation or trailer error. Never a payload.
            assert!(
                read_envelope(&corrupt).is_err(),
                "flip of bit {bit} at byte {pos} of {} went undetected",
                bytes.len()
            );
        }
    }
}

#[test]
fn an_overlong_chunk_is_rejected_before_anything_is_read_for_it() {
    // Nothing follows the prefix: had the reader sized a buffer from it and
    // tried to fill it, the answer would be `Truncated`.
    let mut bytes = HEADER.to_vec();
    bytes.extend_from_slice(&(CHUNK as u32 + 1).to_le_bytes());
    match read_envelope(&bytes) {
        Err(ChunkError::ChunkTooLarge { len }) => assert_eq!(len, CHUNK + 1),
        other => panic!("expected ChunkTooLarge, got {other:?}"),
    }
    bytes.truncate(HEADER.len());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        read_envelope(&bytes),
        Err(ChunkError::ChunkTooLarge { .. })
    ));
    // The bound itself is a legal length.
    assert_eq!(
        read_envelope(&envelope(&pattern(CHUNK))).unwrap().len(),
        CHUNK
    );
}

#[test]
fn a_missing_sentinel_is_never_ok() {
    let payload = pattern(100);
    // The sentinel cut out of a good envelope...
    let good = envelope(&payload);
    let mut cut = good.clone();
    cut.drain(good.len() - 12..good.len() - 8);
    assert!(read_envelope(&cut).is_err());
    // ...and an envelope from a writer that never wrote one, its trailer
    // sealing exactly the bytes before it with the envelope's own hash.
    let mut unsealed = good[..good.len() - 12].to_vec();
    let mut hash = Xxh64::default();
    hash.update(&unsealed);
    unsealed.extend_from_slice(&hash.finish().to_le_bytes());
    assert!(read_envelope(&unsealed).is_err());
    // A reader asked to finish before it has seen the sentinel refuses,
    // even though what follows the chunk it stopped at is well-formed.
    let mut r = ChunkReader::new(&good[HEADER.len()..], HEADER);
    assert!(r.advance().unwrap());
    assert!(matches!(r.finish(), Err(ChunkError::ChecksumMismatch)));
}
