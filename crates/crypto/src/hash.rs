//! SHA-256 implemented from scratch (FIPS 180-4), plus domain-separated
//! convenience helpers used throughout the protocol suite as the random
//! oracle.
//!
//! The implementation is validated against the NIST test vectors in the unit
//! tests below.

use std::cell::Cell;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 256-bit digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use setupfree_crypto::hash::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[..4], [0xba, 0x78, 0x16, 0xbf]);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: H0, buffer: [0u8; 64], buffer_len: 0, total_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let want = 64 - self.buffer_len;
            let take = want.min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Absorbs a length-prefixed chunk, providing unambiguous (injective)
    /// framing when hashing multiple variable-length fields.
    pub fn update_framed(&mut self, data: &[u8]) {
        self.update(&(data.len() as u64).to_le_bytes());
        self.update(data);
    }

    /// Finalizes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Pad in one step: `0x80`, zeros up to byte 56 (through one extra
        // block if the tail leaves no room for the length), then the
        // message length in bits, big-endian.
        let tail = self.buffer_len;
        self.buffer[tail] = 0x80;
        self.buffer[tail + 1..].fill(0);
        if tail >= 56 {
            let block = self.buffer;
            self.compress(&block);
            self.buffer[..56].fill(0);
        }
        self.buffer[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        COMPRESSION_COUNT.with(|count| count.set(count.get() + 1));
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

std::thread_local! {
    /// SHA-256 block compressions run on this thread (see
    /// [`compression_count`]).
    static COMPRESSION_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// How many SHA-256 block compressions the calling thread has run — the
/// unit of hashing work, one per 64-byte block absorbed or padded.  A
/// deterministic work counter: a simulation runs on one thread, so the
/// difference across a run is that run's hashing work.
pub fn compression_count() -> u64 {
    COMPRESSION_COUNT.with(Cell::get)
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Domain-separated hash of a sequence of fields.
///
/// Every field is length-prefixed so the mapping from `(domain, fields)` to
/// the digest is injective; this is the "random oracle" used by signatures,
/// the VRF, and Fiat–Shamir challenges.
pub fn hash_fields(domain: &str, fields: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    h.update_framed(domain.as_bytes());
    h.update(&(fields.len() as u64).to_le_bytes());
    for f in fields {
        h.update_framed(f);
    }
    h.finalize()
}

/// SHA-256 in counter mode over `(domain, seed)`: an endless stream of
/// blocks, block `j` being `hash_fields(domain, &[seed, &j.to_le_bytes()])`
/// byte for byte.
///
/// The framed domain, the field count and the framed seed are absorbed
/// once, and each block clones that state and absorbs only its framed
/// counter, so a block costs the compressions of the buffered tail alone:
/// one for the aggregation weights' 25-byte domain and 32-byte digest.
/// The aggregation weights of a quorum certificate, [`prg`] (so the AVSS
/// cipher) and committee sampling all read their blocks from it.
#[derive(Debug)]
pub struct CounterStream {
    prefix: Sha256,
    counter: u64,
}

impl CounterStream {
    /// The stream of `(domain, seed)`, starting at block 0.
    pub fn new(domain: &str, seed: &[u8]) -> Self {
        let mut prefix = Sha256::new();
        prefix.update_framed(domain.as_bytes());
        // Two fields: the seed and the block's counter.
        prefix.update(&2u64.to_le_bytes());
        prefix.update_framed(seed);
        CounterStream { prefix, counter: 0 }
    }
}

impl Iterator for CounterStream {
    type Item = Digest;

    fn next(&mut self) -> Option<Digest> {
        let mut h = self.prefix.clone();
        h.update_framed(&self.counter.to_le_bytes());
        self.counter += 1;
        Some(h.finalize())
    }
}

/// Expands `(domain, seed)` into `len` pseudorandom bytes: the first `len`
/// bytes of its [`CounterStream`].  Used as the symmetric stream cipher for
/// the AVSS ciphertext and anywhere a deterministic expansion of a short key
/// is required.
pub fn prg(domain: &str, seed: &[u8], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for block in CounterStream::new(domain, seed).take(len.div_ceil(DIGEST_LEN)) {
        let take = (len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&block[..take]);
    }
    out
}

/// XORs `data` with the PRG stream derived from `(domain, key)`.
/// Applying it twice with the same key recovers the plaintext.
pub fn stream_xor(domain: &str, key: &[u8], data: &[u8]) -> Vec<u8> {
    let pad = prg(domain, key, data.len());
    data.iter().zip(pad.iter()).map(|(a, b)| a ^ b).collect()
}

#[cfg(test)]
fn hex(digest: &Digest) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nist_empty() {
        assert_eq!(hex(&sha256(b"")), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn nist_abc() {
        assert_eq!(hex(&sha256(b"abc")), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn nist_448_bit() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bit() {
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&sha256(&data)), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 13, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn compression_count_counts_blocks_per_thread() {
        let before = compression_count();
        let _ = sha256(b"abc");
        // 55 bytes still pad into one block; 56 need a second.
        let _ = sha256(&[0u8; 55]);
        let _ = sha256(&[0u8; 56]);
        assert_eq!(compression_count() - before, 4);
        std::thread::spawn(|| sha256(&[0u8; 1000])).join().unwrap();
        assert_eq!(compression_count() - before, 4);
    }

    #[test]
    fn hash_fields_is_injective_on_framing() {
        // ["ab", "c"] must differ from ["a", "bc"] and from ["abc"].
        let a = hash_fields("t", &[b"ab", b"c"]);
        let b = hash_fields("t", &[b"a", b"bc"]);
        let c = hash_fields("t", &[b"abc"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn hash_fields_domain_separated() {
        assert_ne!(hash_fields("d1", &[b"x"]), hash_fields("d2", &[b"x"]));
    }

    #[test]
    fn prg_deterministic_and_prefix_consistent() {
        let a = prg("prg", b"seed", 100);
        let b = prg("prg", b"seed", 100);
        assert_eq!(a, b);
        let c = prg("prg", b"seed", 40);
        assert_eq!(&a[..40], &c[..]);
        let d = prg("prg", b"other", 100);
        assert_ne!(a, d);
    }

    #[test]
    fn counter_stream_blocks_are_hash_fields_blocks() {
        // The stream's prefix ends at 8 + 2 + 8 + 8 = 26 bytes plus the
        // seed: these seeds put it just before, at and past a block boundary.
        for seed_len in [0usize, 37, 38, 39, 101, 102, 103] {
            let seed: Vec<u8> = (0..seed_len as u8).collect();
            let stream: Vec<Digest> = CounterStream::new("dm", &seed).take(5).collect();
            for (j, block) in (0u64..).zip(&stream) {
                assert_eq!(*block, hash_fields("dm", &[&seed, &j.to_le_bytes()]), "seed of {seed_len} B, block {j}");
            }
            assert_eq!(prg("dm", &seed, 150), stream.concat()[..150]);
        }
    }

    #[test]
    fn counter_stream_blocks_cost_their_tail_alone() {
        // A 25-byte domain and a 32-byte seed absorb 81 bytes: one block,
        // then one compression per stream block.
        let before = compression_count();
        let mut stream = CounterStream::new("setupfree/sig/agg-weights", &[7u8; 32]);
        assert_eq!(compression_count() - before, 1);
        let before = compression_count();
        let _ = stream.nth(2);
        assert_eq!(compression_count() - before, 3);
        let before = compression_count();
        assert_eq!(prg("d", b"k", 0), Vec::<u8>::new());
        assert_eq!(prg("d", b"k", 64).len(), 64);
        assert_eq!(compression_count() - before, 2);
    }

    #[test]
    fn stream_xor_roundtrips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let ct = stream_xor("enc", b"key", data);
        assert_ne!(&ct[..], &data[..]);
        let pt = stream_xor("enc", b"key", &ct);
        assert_eq!(&pt[..], &data[..]);
    }

    proptest! {
        #[test]
        fn prop_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }

        #[test]
        fn prop_stream_xor_involutive(key in proptest::collection::vec(any::<u8>(), 1..64), data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let ct = stream_xor("d", &key, &data);
            prop_assert_eq!(stream_xor("d", &key, &ct), data);
        }
    }
}
