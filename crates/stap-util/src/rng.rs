//! A small deterministic PRNG: splitmix64 seeding + xorshift64*.
//!
//! Not cryptographic; statistically solid for simulation workloads
//! (xorshift64* passes BigCrush except the lowest bits, and we only use
//! the high 53 bits for floats). One `u64` of state, fully reproducible
//! from a seed across platforms.

/// Deterministic 64-bit PRNG.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

/// One round of splitmix64 — used to spread arbitrary (possibly
/// low-entropy) seeds over the whole state space.
#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Any seed (including 0)
    /// is valid: splitmix64 maps it to a non-degenerate state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let mut state = splitmix64(&mut s);
        if state == 0 {
            // xorshift has a fixed point at 0; splitmix64(x) == 0 only
            // for one input, but guard anyway.
            state = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { state }
    }

    /// Next raw 64-bit value (xorshift64*).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.gen_f64()
    }

    /// Uniform `usize` in `[lo, hi)`. Panics when `lo >= hi`.
    #[inline]
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        // Multiply-shift rejection-free mapping; bias is < 2^-64 * span,
        // irrelevant for test-case generation.
        let span = (hi - lo) as u64;
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as usize
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(123);
        let mut b = Rng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = Rng::seed_from_u64(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, 0);
        assert_ne!(x, y);
    }

    #[test]
    fn floats_are_uniform_in_unit_interval() {
        let mut r = Rng::seed_from_u64(42);
        let n = 100_000;
        let mut sum = 0.0;
        let mut bins = [0usize; 10];
        for _ in 0..n {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
            bins[(v * 10.0) as usize] += 1;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        for (i, &b) in bins.iter().enumerate() {
            let frac = b as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "bin {i}: {frac}");
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.gen_range_usize(3, 17);
            assert!((3..17).contains(&v));
            let f = r.gen_range_f64(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&f));
        }
    }

    #[test]
    fn all_range_values_reachable() {
        let mut r = Rng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
