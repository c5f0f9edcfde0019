//! FNV-1a64, the workspace's fingerprint (the ledger's, pinned bytes'). Too
//! slow for bulk bytes: the chunk envelope's trailer is [`crate::Xxh64`].

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a64 hash.
///
/// ```
/// use fedpkd_netsim::Fnv1a;
///
/// let mut whole = Fnv1a::new();
/// whole.update(b"foobar");
/// let mut split = Fnv1a::new();
/// split.update(b"foo");
/// split.update(b"bar");
/// assert_eq!(whole.finish(), split.finish());
/// assert_eq!(whole.finish(), 0x85944171f73967e8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of no bytes.
    pub fn new() -> Self {
        Self(OFFSET_BASIS)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The hash of every byte folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}
