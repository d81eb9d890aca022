//! Seeded input generation. Everything the program under test sees —
//! payload bytes, the size mix, which sends belong to the failure class —
//! derives from `--seed`; the same seed gives the same inputs.
//!
//! Mixes are *stratified*: every block of draws holds each item in its
//! exact proportion (14 x 64 B, 5 x 1 KiB, 1 x 16 KiB per 20 sends; one
//! failure-class send per 8) and the seed only decides the order inside
//! the block. With a few hundred verdicts per run, independent draws would
//! put more spread into bytes-per-verdict than the system does.
//!
//! A payload is self-checking: `[seq: u64][fnv64 of the body][body]`, so
//! the destination application can verify what it received without
//! sharing state with the sender.

use bytes::Bytes;

/// SplitMix64: tiny, fast, and good enough to draw sizes and fill bytes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the workloads
    /// of one suite run do not replay each other's draws.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ fnv64(stream.as_bytes()))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A seeded draw without replacement from blocks that hold every item of
/// a `(item, weight)` mix in exact proportion.
#[derive(Debug, Clone)]
pub struct Stratified<T> {
    block: Vec<T>,
    next: usize,
    rng: Rng,
}

impl<T: Copy> Stratified<T> {
    /// A stratified source over `mix` (weights reduced by their common
    /// divisor, so the block is as short as the proportions allow).
    pub fn new(rng: Rng, mix: &[(T, u32)]) -> Stratified<T> {
        fn gcd(a: u32, b: u32) -> u32 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let divisor = mix.iter().fold(0, |g, (_, w)| gcd(g, *w)).max(1);
        let block: Vec<T> = mix
            .iter()
            .flat_map(|(item, w)| std::iter::repeat_n(*item, (*w / divisor) as usize))
            .collect();
        assert!(!block.is_empty(), "a mix needs at least one weighted item");
        Stratified {
            next: block.len(),
            block,
            rng,
        }
    }

    /// The next item; reshuffles (Fisher–Yates) at each block boundary.
    pub fn draw(&mut self) -> T {
        if self.next == self.block.len() {
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const HEADER: usize = 16;

/// Builds a self-checking payload of exactly `size` bytes (at least the
/// 16-byte header) carrying sequence number `seq`.
pub fn payload(rng: &mut Rng, seq: u64, size: usize) -> Bytes {
    let size = size.max(HEADER);
    let mut buf = vec![0u8; size];
    for chunk in buf[HEADER..].chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    let sum = fnv64(&buf[HEADER..]);
    buf[..8].copy_from_slice(&seq.to_le_bytes());
    buf[8..HEADER].copy_from_slice(&sum.to_le_bytes());
    Bytes::from(buf)
}

/// Verifies a payload built by [`payload`] and returns its sequence
/// number; `None` when the bytes were damaged or are not ours.
pub fn verify(payload: &[u8]) -> Option<u64> {
    let seq = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    let sum = u64::from_le_bytes(payload.get(8..HEADER)?.try_into().ok()?);
    (fnv64(&payload[HEADER..]) == sum).then_some(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_in_exact_proportion() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, "relay_comp");
            let mut sizes = Stratified::new(
                Rng::new(seed, "sizes"),
                &[(64usize, 70), (1024, 25), (16384, 5)],
            );
            let sizes: Vec<usize> = (0..60).map(|_| sizes.draw()).collect();
            (sizes, payload(&mut rng, 9, 300).to_vec())
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let (sizes, _) = draw(7);
        // Every block of 20 holds exactly 14 / 5 / 1.
        for block in sizes.chunks(20) {
            let count = |size| block.iter().filter(|s| **s == size).count();
            assert_eq!((count(64), count(1024), count(16384)), (14, 5, 1));
        }
        let mut failures = Stratified::new(Rng::new(3, "failures"), &[(true, 1), (false, 7)]);
        let drawn: Vec<bool> = (0..64).map(|_| failures.draw()).collect();
        assert!(drawn
            .chunks(8)
            .all(|b| b.iter().filter(|f| **f).count() == 1));
    }

    #[test]
    fn payloads_verify_and_detect_damage() {
        let mut rng = Rng::new(1, "x");
        for size in [0, 16, 17, 64, 255, 16 * 1024] {
            let p = payload(&mut rng, 42, size);
            assert_eq!(p.len(), size.max(16));
            assert_eq!(verify(&p), Some(42));
        }
        let mut damaged = payload(&mut rng, 42, 64).to_vec();
        damaged[40] ^= 1;
        assert_eq!(verify(&damaged), None);
        assert_eq!(verify(b"short"), None);
    }
}
