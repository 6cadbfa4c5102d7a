//! Deterministic pseudo-random number generation for property tests.

/// A small, fast, deterministic generator (splitmix64 seeding an
/// xorshift* core). Not cryptographic — it only has to spread test
/// cases around the input space reproducibly.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        // splitmix64 of the seed avoids weak all-zero states.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng {
            state: z ^ (z >> 31) | 1,
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64* (Vigna). Period 2^64 - 1; state is never zero.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A uniform value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0)");
        // Multiply-shift rejection-free mapping is fine at test scale;
        // bias is < 2^-32 for every range the harness uses.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform `u64` in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            self.next_u64()
        } else {
            lo + self.below(span + 1)
        }
    }

    /// A uniform `i64` in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = lo.abs_diff(hi);
        if span == u64::MAX {
            self.next_u64() as i64
        } else {
            lo.wrapping_add(self.below(span + 1) as i64)
        }
    }

    /// A uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// An independent generator seeded from this one's stream (for
    /// splitting a run into per-case generators).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
        }
    }

    #[test]
    fn ranges_are_inclusive() {
        let mut rng = Rng::new(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = rng.u64_in(3, 6);
            assert!((3..=6).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 6;
        }
        assert!(saw_lo && saw_hi);
        for _ in 0..2000 {
            let v = rng.i64_in(-5, 5);
            assert!((-5..=5).contains(&v));
        }
    }

    #[test]
    fn extreme_ranges_do_not_overflow() {
        let mut rng = Rng::new(11);
        let _ = rng.u64_in(0, u64::MAX);
        let _ = rng.i64_in(i64::MIN, i64::MAX);
        assert_eq!(rng.u64_in(5, 5), 5);
        assert_eq!(rng.i64_in(-2, -2), -2);
    }

    #[test]
    fn bool_hits_both_values() {
        let mut rng = Rng::new(3);
        let trues = (0..100).filter(|_| rng.bool()).count();
        assert!((10..90).contains(&trues));
    }
}
