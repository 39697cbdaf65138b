//! SplitMix64: the benchmark's own seeded generator, so its inputs do
//! not change when the program's `rand` stand-in does.

/// A SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`, salted per use so two inputs drawn from
    /// one `--seed` are independent.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` > 0; the modulo bias is far below
    /// anything the workloads can see).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_salt_other_stream() {
        let draw = |seed, salt| {
            let mut rng = Rng::new(seed, salt);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert!((0..100).all(|_| Rng::new(1, 1).below(10) < 10));
    }
}
