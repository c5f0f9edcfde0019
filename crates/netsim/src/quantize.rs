//! Lossy 8-bit quantization of knowledge payloads.
//!
//! The paper's conclusion lists "optimizing resource efficiency" as future
//! work; the lowest-hanging fruit for a KD-based method is quantizing the
//! transferred logits, which cuts the dominant payload by 4× at negligible
//! accuracy cost (logits only steer a softmax). This module implements
//! affine u8 quantization with per-message range calibration.

use crate::wire::{
    get_bytes, get_f32, get_len, get_u32, put_f32, put_u32, put_u32_slice, Wire, WireError,
};

/// Quantization failed because the input contains a non-finite value.
///
/// NaN or infinite logits (a diverged model, or an adversarial client) have
/// no meaningful affine u8 encoding — the min/max calibration would poison
/// every other value in the payload. Following the crate's "bad payloads
/// never panic" contract, [`QuantizedLogits::from_values`] surfaces this as
/// a typed error so callers can fall back to an unquantized path or drop
/// the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizeError {
    /// Index (into the flattened value slice) of the first non-finite value.
    pub index: usize,
}

impl std::fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot quantize non-finite value at index {}",
            self.index
        )
    }
}

impl std::error::Error for QuantizeError {}

/// A logits payload quantized to one byte per value.
///
/// Values are encoded as `q = round((v − min) / scale)` with the per-message
/// `min`/`scale` carried alongside, so decoding is
/// `v ≈ min + scale · q`. The quantization error is at most
/// `scale / 2 = (max − min) / 510`.
///
/// # Examples
///
/// ```
/// use fedpkd_netsim::{QuantizedLogits, Wire};
///
/// let q = QuantizedLogits::from_values(&[0, 1], 2, &[0.0, 3.0, -1.0, 2.0]).unwrap();
/// let restored = q.dequantize();
/// assert!(restored.iter().zip([0.0, 3.0, -1.0, 2.0]).all(|(a, b)| (a - b).abs() < 0.01));
/// assert!(QuantizedLogits::from_values(&[0], 2, &[f32::NAN, 0.0]).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLogits {
    /// Public-dataset indices the rows refer to.
    pub sample_ids: Vec<u32>,
    /// Number of classes (row width).
    pub num_classes: u32,
    /// Minimum of the original values (dequantization offset).
    pub min: f32,
    /// Quantization step.
    pub scale: f32,
    /// One byte per value, row-major.
    pub values: Vec<u8>,
}

impl QuantizedLogits {
    /// Quantizes a row-major value matrix.
    ///
    /// # Errors
    ///
    /// Returns [`QuantizeError`] if any value is non-finite (NaN or ±∞) —
    /// such inputs arise from diverged or adversarial models and must not
    /// crash the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != sample_ids.len() * num_classes`; the shape
    /// is under the caller's control, so a mismatch is a programming error.
    pub fn from_values(
        sample_ids: &[u32],
        num_classes: u32,
        values: &[f32],
    ) -> Result<Self, QuantizeError> {
        assert_eq!(
            values.len(),
            sample_ids.len() * num_classes as usize,
            "matrix shape mismatch"
        );
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(QuantizeError { index });
        }
        let min = values.iter().copied().fold(f32::INFINITY, f32::min);
        let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let (min, scale) = if values.is_empty() || max <= min {
            (if values.is_empty() { 0.0 } else { min }, 1.0)
        } else {
            (min, (max - min) / 255.0)
        };
        let quantized = values
            .iter()
            .map(|&v| (((v - min) / scale).round().clamp(0.0, 255.0)) as u8)
            .collect();
        Ok(Self {
            sample_ids: sample_ids.to_vec(),
            num_classes,
            min,
            scale,
            values: quantized,
        })
    }

    /// Restores approximate f32 values.
    pub fn dequantize(&self) -> Vec<f32> {
        self.values
            .iter()
            .map(|&q| self.min + self.scale * q as f32)
            .collect()
    }
}

impl Wire for QuantizedLogits {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32_slice(buf, &self.sample_ids);
        put_u32(buf, self.num_classes);
        put_f32(buf, self.min);
        put_f32(buf, self.scale);
        put_u32(buf, self.values.len() as u32);
        buf.extend_from_slice(&self.values);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let sample_ids = crate::wire::get_u32_vec(buf)?;
        let num_classes = get_u32(buf)?;
        let min = get_f32(buf)?;
        let scale = get_f32(buf)?;
        let n = get_len(buf)?;
        let values = get_bytes(buf, n)?;
        Ok(Self {
            sample_ids,
            num_classes,
            min,
            scale,
            values,
        })
    }

    fn encoded_len(&self) -> usize {
        4 + 4 * self.sample_ids.len() + 4 + 4 + 4 + 4 + self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_within_error_bound() {
        let values: Vec<f32> = (0..40).map(|i| (i as f32) * 0.37 - 7.0).collect();
        let ids: Vec<u32> = (0..10).collect();
        let q = QuantizedLogits::from_values(&ids, 4, &values).unwrap();
        let restored = q.dequantize();
        // Worst case is half a quantization step.
        let bound = q.scale / 2.0 + 1e-6;
        for (a, b) in restored.iter().zip(&values) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn wire_round_trip() {
        let values = vec![1.5f32, -2.0, 0.0, 7.25];
        let q = QuantizedLogits::from_values(&[3, 9], 2, &values).unwrap();
        let bytes = q.to_bytes();
        assert_eq!(bytes.len(), q.encoded_len());
        let mut slice = bytes.as_slice();
        let decoded = QuantizedLogits::decode(&mut slice).unwrap();
        assert_eq!(decoded, q);
        assert!(slice.is_empty());
    }

    #[test]
    fn compresses_about_4x_vs_f32() {
        let n = 500usize;
        let k = 10usize;
        let ids: Vec<u32> = (0..n as u32).collect();
        let values = vec![0.5f32; n * k];
        let quantized = QuantizedLogits::from_values(&ids, k as u32, &values)
            .unwrap()
            .encoded_len();
        let full = crate::Message::Logits {
            sample_ids: ids,
            num_classes: k as u32,
            values,
        }
        .encoded_len();
        let ratio = full as f64 / quantized as f64;
        assert!(ratio > 2.5, "compression ratio {ratio}");
    }

    #[test]
    fn constant_values_survive() {
        let q = QuantizedLogits::from_values(&[0], 3, &[2.5, 2.5, 2.5]).unwrap();
        assert_eq!(q.dequantize(), vec![2.5, 2.5, 2.5]);
    }

    #[test]
    fn empty_payload() {
        let q = QuantizedLogits::from_values(&[], 5, &[]).unwrap();
        assert!(q.dequantize().is_empty());
        let bytes = q.to_bytes();
        let mut slice = bytes.as_slice();
        assert_eq!(QuantizedLogits::decode(&mut slice).unwrap(), q);
    }

    #[test]
    #[should_panic(expected = "matrix shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = QuantizedLogits::from_values(&[0, 1], 3, &[1.0]);
    }

    #[test]
    fn non_finite_values_yield_a_typed_error() {
        // A NaN anywhere in the payload must surface as an error naming the
        // offending index, never a panic — adversarial clients and diverged
        // servers both produce such payloads.
        let err = QuantizedLogits::from_values(&[0], 2, &[1.0, f32::NAN]).unwrap_err();
        assert_eq!(err, QuantizeError { index: 1 });
        assert!(err.to_string().contains("index 1"));
        let inf = QuantizedLogits::from_values(&[0], 1, &[f32::INFINITY]);
        assert_eq!(inf.unwrap_err().index, 0);
        let neg = QuantizedLogits::from_values(&[0], 1, &[f32::NEG_INFINITY]);
        assert!(neg.is_err());
    }

    #[test]
    fn truncated_decode_errors() {
        let q = QuantizedLogits::from_values(&[0], 4, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let bytes = q.to_bytes();
        let mut slice = &bytes[..bytes.len() - 2];
        assert!(QuantizedLogits::decode(&mut slice).is_err());
    }
}
