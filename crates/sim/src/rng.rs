//! Fork-able deterministic randomness.
//!
//! All stochastic behaviour in the simulator — RAND challenges, ephemeral
//! ECIES keys, latency jitter, interrupt arrivals — draws from a [`DetRng`]
//! seeded once per world, so every experiment replays bit-for-bit.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic random stream.
#[derive(Clone, Debug)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Creates a stream from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream labelled by `label`.
    ///
    /// Forked streams decouple consumers: the UE's ephemeral-key draws do
    /// not perturb the network-jitter sequence, keeping sub-experiments
    /// comparable across configurations.
    #[must_use]
    pub fn fork(&mut self, label: &str) -> DetRng {
        // Mix the label into a fresh seed via FNV-1a over a drawn base.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.inner.gen::<u64>();
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        DetRng::new(h)
    }

    /// A uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.inner.gen_range(lo..hi)
    }

    /// Fills and returns an N-byte array.
    pub fn bytes<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.inner.fill(&mut out[..]);
        out
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen::<f64>() < p.clamp(0.0, 1.0)
    }

    /// A jittered value: `base` scaled by a factor drawn from a triangular
    /// distribution on `[1 - spread, 1 + spread]` (mode 1).
    ///
    /// Triangular noise approximates the unimodal latency spreads visible
    /// in the paper's box plots without heavy tails.
    pub fn jitter(&mut self, base: u64, spread: f64) -> u64 {
        let spread = spread.clamp(0.0, 0.95);
        // Sum of two uniforms gives a triangular sample in [0, 2].
        let t = self.inner.gen::<f64>() + self.inner.gen::<f64>();
        let factor = 1.0 + (t - 1.0) * spread;
        (base as f64 * factor).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn forks_are_deterministic_and_label_sensitive() {
        let mut parent1 = DetRng::new(99);
        let mut parent2 = DetRng::new(99);
        let mut f1 = parent1.fork("radio");
        let mut f2 = parent2.fork("radio");
        assert_eq!(f1.next_u64(), f2.next_u64());
        let mut parent3 = DetRng::new(99);
        let mut f3 = parent3.fork("bridge");
        let mut parent4 = DetRng::new(99);
        let mut f4 = parent4.fork("radio");
        assert_ne!(f3.next_u64(), f4.next_u64());
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..100 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        DetRng::new(0).range(5, 5);
    }

    #[test]
    fn jitter_stays_within_spread() {
        let mut r = DetRng::new(4);
        for _ in 0..200 {
            let v = r.jitter(1_000, 0.2);
            assert!((800..=1200).contains(&v), "{v} outside 20% spread");
        }
    }

    #[test]
    fn jitter_zero_spread_is_identity() {
        let mut r = DetRng::new(4);
        assert_eq!(r.jitter(12345, 0.0), 12345);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(6);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
