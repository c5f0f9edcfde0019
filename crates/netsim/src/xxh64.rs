//! XXH64 (seed 0) from the xxHash specification: four independent lanes
//! per 32-byte stripe, where FNV-1a serializes a multiply per byte.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// A streaming XXH64 hash (seed 0), the chunk envelope's trailer. Input may
/// arrive in pieces of any size; the result is that of the concatenation.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// The incomplete stripe: the first `total % 32` bytes.
    pending: [u8; 32],
    total: u64,
}

fn round(acc: u64, lane: u64) -> u64 {
    let acc = acc.wrapping_add(lane.wrapping_mul(P2));
    acc.rotate_left(31).wrapping_mul(P1)
}

fn le<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes[..N].try_into().expect("N bytes")
}

impl Xxh64 {
    fn stripe(&mut self, stripe: &[u8]) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            *lane = round(*lane, u64::from_le_bytes(le(&stripe[8 * i..])));
        }
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, mut bytes: &[u8]) {
        let held = (self.total % 32) as usize;
        self.total += bytes.len() as u64;
        if held > 0 {
            let n = (32 - held).min(bytes.len());
            self.pending[held..][..n].copy_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            if held + n < 32 {
                return;
            }
            let stripe = self.pending;
            self.stripe(&stripe);
        }
        let mut stripes = bytes.chunks_exact(32);
        stripes.by_ref().for_each(|stripe| self.stripe(stripe));
        let rest = stripes.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
    }

    /// The hash of every byte folded in so far.
    pub fn finish(&self) -> u64 {
        let mut h = if self.total < 32 {
            P5
        } else {
            let rotations = self.lanes.iter().zip([1, 7, 12, 18]);
            let h = rotations.fold(0, |h: u64, (v, r)| h.wrapping_add(v.rotate_left(r)));
            let merge = |h: u64, &v: &u64| (h ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4);
            self.lanes.iter().fold(h, merge)
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.pending[..(self.total % 32) as usize];
        while tail.len() >= 8 {
            let k = round(0, u64::from_le_bytes(le(tail)));
            h = (h ^ k).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let k = u64::from(u32::from_le_bytes(le(tail))).wrapping_mul(P1);
            h = (h ^ k).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            let k = u64::from(byte).wrapping_mul(P5);
            h = (h ^ k).rotate_left(11).wrapping_mul(P1);
        }
        h = (h ^ (h >> 33)).wrapping_mul(P2);
        h = (h ^ (h >> 29)).wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

impl Default for Xxh64 {
    /// The hash of no bytes.
    fn default() -> Self {
        Self {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            pending: [0; 32],
            total: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_shot(bytes: &[u8]) -> u64 {
        let mut h = Xxh64::default();
        h.update(bytes);
        h.finish()
    }

    #[test]
    fn published_vectors() {
        assert_eq!(one_shot(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(one_shot(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one full stripe through the four lanes, then a tail.
        assert_eq!(
            one_shot(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn every_split_equals_one_shot() {
        let input: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        // Every split point of 100 bytes, and every input length that
        // straddles one or two 32-byte stripes split at every point.
        let lengths = [100].into_iter().chain(28..=36).chain(60..=68);
        for len in lengths {
            let whole = one_shot(&input[..len]);
            for cut in 0..=len {
                let mut h = Xxh64::default();
                h.update(&input[..cut]);
                h.update(&input[cut..len]);
                assert_eq!(h.finish(), whole, "{len} bytes split at {cut}");
            }
        }
        // Byte-at-a-time, and pieces of 3 and 7 across stripes.
        for piece in [1, 3, 7] {
            let mut h = Xxh64::default();
            for bytes in input.chunks(piece) {
                h.update(bytes);
            }
            assert_eq!(h.finish(), one_shot(&input), "pieces of {piece}");
        }
    }
}
