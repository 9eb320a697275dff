//! The SplitMix64 finalizer and counter-based stream mixing.
//!
//! Counter-based generation matters for fault injection (every value is a
//! pure function of `(seed, stream, index)`, so fault draws never perturb
//! the simulation's own RNG stream) and for per-thread search seeding (each
//! DDS worker derives its stream from the master seed and its thread index).
//! Both uses share the constants below; keeping them in one place means the
//! streams cannot silently diverge between crates.

/// The golden-ratio increment of SplitMix64 (⌊2⁶⁴/φ⌋, odd). Also used to
/// spread per-thread seeds across the `u64` space.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: adds the golden-ratio gamma and applies the finalizer — a
/// well-mixed bijection on `u64`. This is one step of Steele et al.'s
/// SplitMix64 sequence starting from state `z`.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A raw 64-bit draw for `(seed, stream, index)` — pure and stateless.
///
/// Three chained SplitMix64 applications decorrelate the coordinates: the
/// seed is first whitened, the stream id is spread by an odd multiplier so
/// adjacent streams land far apart, and the index is mixed last.
#[must_use]
pub fn mix_stream(seed: u64, stream: u64, index: u64) -> u64 {
    let a = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    let b = splitmix64(a ^ stream.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    splitmix64(b ^ index)
}

/// Maps a raw 64-bit draw to a uniform `f64` in `[0, 1)` using the top 53
/// bits — the same construction the vendored rand crate uses.
#[must_use]
pub fn unit_from_bits(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_splitmix64_vectors() {
        // Steele, Lea & Flood's reference sequence from seed 0: each output
        // is splitmix64 of the previous state (state advances by the gamma).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(
            splitmix64(GOLDEN_GAMMA.wrapping_mul(2)),
            0x06C4_5D18_8009_454F
        );
    }

    #[test]
    fn is_a_bijection_on_small_samples() {
        use std::collections::BTreeSet;
        let outputs: BTreeSet<u64> = (0..10_000).map(splitmix64).collect();
        assert_eq!(outputs.len(), 10_000, "collision found");
    }

    #[test]
    fn mix_stream_separates_all_three_coordinates() {
        assert_eq!(mix_stream(7, 1, 42), mix_stream(7, 1, 42));
        assert_ne!(mix_stream(7, 1, 42), mix_stream(7, 1, 43));
        assert_ne!(mix_stream(7, 1, 42), mix_stream(7, 2, 42));
        assert_ne!(mix_stream(7, 1, 42), mix_stream(8, 1, 42));
    }

    #[test]
    fn unit_covers_the_half_open_interval() {
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for i in 0..10_000 {
            let u = unit_from_bits(mix_stream(3, 5, i));
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99, "stream should fill [0, 1)");
    }
}
