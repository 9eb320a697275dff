//! Deterministic fault-injection primitives.
//!
//! Production measurement paths lose samples, pick up noise and bias, and
//! occasionally hand back NaN; reconfiguration commands fail and leave a core
//! stuck in its previous shape. This module provides the *mechanism* for
//! reproducing those events deterministically: a counter-based random stream
//! (every value is a pure function of `(seed, stream, index)`) and a small
//! catalog of value corruptions. Policy — which faults fire in which quantum
//! — lives in the `cuttlesys::faults` module; keeping the mechanism here
//! means corrupted values are produced by the same crate that produces the
//! clean ones.
//!
//! Counter-based generation matters because fault draws must never perturb
//! the simulation's own RNG stream: a clean run and a faulty run of the same
//! scenario draw exactly the same simulation randomness, and two faulty runs
//! with the same fault seed corrupt exactly the same values.

/// Distinct sub-streams of a fault seed, so the draw deciding "drop this
/// sample?" can never alias the draw deciding "fail this reconfiguration?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum FaultStream {
    /// Per-sample drop/corrupt decisions.
    Sample = 1,
    /// Corruption kind and magnitude for a corrupted sample.
    Corruption = 2,
    /// Per-quantum reconstruction divergence decisions.
    Reconstruct = 3,
    /// Per-quantum reconfiguration-command failures.
    Reconfig = 4,
    /// Per-quantum power-telemetry blackouts.
    Power = 5,
    /// Per-(node, quantum) fleet crash decisions.
    NodeCrash = 6,
}

/// A raw 64-bit draw for `(seed, stream, index)` — pure and stateless.
///
/// Delegates to the workspace-shared SplitMix64 helper so the fault stream
/// and the search seeding mix bits identically (see `util::rng64`).
pub fn draw(seed: u64, stream: FaultStream, index: u64) -> u64 {
    util::rng64::mix_stream(seed, stream as u64, index)
}

/// A uniform draw in `[0, 1)` for `(seed, stream, index)`.
pub fn unit(seed: u64, stream: FaultStream, index: u64) -> f64 {
    util::rng64::unit_from_bits(draw(seed, stream, index))
}

/// A standard-normal draw (Box–Muller over two decorrelated sub-draws).
pub fn normal(seed: u64, stream: FaultStream, index: u64) -> f64 {
    let u1 = unit(seed, stream, index.wrapping_mul(2).wrapping_add(1));
    let u2 = unit(seed, stream, index.wrapping_mul(2).wrapping_add(2));
    let r = (-2.0 * (1.0 - u1).ln()).sqrt();
    r * (std::f64::consts::TAU * u2).cos()
}

/// How a measured value gets mangled on its way to the decision loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corruption {
    /// Multiplicative Gaussian noise: `v · (1 + sigma · N(0, 1))`.
    Noise {
        /// Relative noise magnitude.
        sigma: f64,
    },
    /// Multiplicative bias: `v · (1 + bias)` — a miscalibrated sensor.
    Bias {
        /// Relative offset, e.g. `0.3` reads 30% high.
        bias: f64,
    },
    /// The sensor returns NaN outright.
    Nan,
}

impl Corruption {
    /// Applies the corruption to `value`, drawing any randomness from the
    /// counter stream at `(seed, index)`.
    pub fn apply(&self, value: f64, seed: u64, index: u64) -> f64 {
        match *self {
            Corruption::Noise { sigma } => {
                value * (1.0 + sigma * normal(seed, FaultStream::Corruption, index))
            }
            Corruption::Bias { bias } => value * (1.0 + bias),
            Corruption::Nan => f64::NAN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_bit_identical_to_the_pre_refactor_stream() {
        // Reference vectors recorded before `draw` delegated to util::rng64:
        // any change here silently re-rolls every pinned fault experiment.
        assert_eq!(draw(7, FaultStream::Sample, 42), 0xD157_0F7B_03B4_4517);
        assert_eq!(draw(0xFA17, FaultStream::Power, 9), 0xB34B_B26E_CABE_2380);
    }

    #[test]
    fn draws_are_pure_functions_of_their_coordinates() {
        assert_eq!(
            draw(7, FaultStream::Sample, 42),
            draw(7, FaultStream::Sample, 42)
        );
        assert_ne!(
            draw(7, FaultStream::Sample, 42),
            draw(7, FaultStream::Sample, 43)
        );
        assert_ne!(
            draw(7, FaultStream::Sample, 42),
            draw(7, FaultStream::Reconfig, 42)
        );
        assert_ne!(
            draw(7, FaultStream::Sample, 42),
            draw(8, FaultStream::Sample, 42)
        );
    }

    #[test]
    fn unit_draws_cover_the_half_open_interval() {
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for i in 0..10_000 {
            let u = unit(3, FaultStream::Power, i);
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99, "stream should fill [0, 1)");
    }

    #[test]
    fn normal_draws_have_roughly_standard_moments() {
        let n = 20_000;
        let xs: Vec<f64> = (0..n)
            .map(|i| normal(11, FaultStream::Corruption, i))
            .collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} should be near 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} should be near 1");
    }

    #[test]
    fn corruptions_do_what_they_say() {
        assert!(Corruption::Nan.apply(5.0, 1, 0).is_nan());
        assert_eq!(Corruption::Bias { bias: 0.5 }.apply(2.0, 1, 0), 3.0);
        let noisy = Corruption::Noise { sigma: 0.1 }.apply(10.0, 1, 0);
        assert!(noisy.is_finite() && noisy != 10.0);
        // Same coordinates, same corruption.
        assert_eq!(noisy, Corruption::Noise { sigma: 0.1 }.apply(10.0, 1, 0));
    }
}
