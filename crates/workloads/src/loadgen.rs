//! Input-load patterns for latency-critical services.
//!
//! The dynamic-behaviour experiments of §VIII-D vary the service's input
//! load over time (a diurnal pattern for Fig. 8(a), a load spike for the core
//! relocation example of Fig. 8(c)). A [`LoadPattern`] maps simulation time
//! to a load fraction of the service's calibrated maximum QPS.

/// A time-varying input load, as a fraction of the service's maximum
/// sustainable QPS.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadPattern {
    /// Constant load.
    Constant(f64),
    /// Sinusoidal diurnal pattern between `min` and `max` with the given
    /// period, starting at the minimum.
    Diurnal {
        /// Minimum load fraction.
        min: f64,
        /// Maximum load fraction.
        max: f64,
        /// Period in seconds.
        period_s: f64,
    },
    /// Piecewise-constant steps: `(start_time_s, load)` pairs in ascending
    /// time order; load before the first step is the first step's load.
    Steps(Vec<(f64, f64)>),
    /// A recorded load trace: samples at a fixed interval, linearly
    /// interpolated, holding the last sample afterwards. Built from
    /// production request-rate logs via [`LoadPattern::from_trace`].
    Trace {
        /// Seconds between consecutive samples.
        interval_s: f64,
        /// Load samples (fraction of max QPS).
        samples: Vec<f64>,
    },
    /// A square spike: `base` load, rising to `peak` during
    /// `[start_s, end_s)`.
    Spike {
        /// Load outside the spike.
        base: f64,
        /// Load during the spike.
        peak: f64,
        /// Spike start time in seconds.
        start_s: f64,
        /// Spike end time in seconds.
        end_s: f64,
    },
}

impl LoadPattern {
    /// Load fraction at time `t_s` seconds, clamped to `[0, 2]`.
    ///
    /// Fractions above 1.0 model overload beyond the calibrated maximum —
    /// the regime that forces core relocation in Fig. 8(c).
    pub fn load_at(&self, t_s: f64) -> f64 {
        let raw = match self {
            LoadPattern::Constant(l) => *l,
            LoadPattern::Diurnal { min, max, period_s } => {
                let phase = 2.0 * std::f64::consts::PI * t_s / period_s;
                // Starts at `min`, peaks at half period.
                min + (max - min) * 0.5 * (1.0 - phase.cos())
            }
            LoadPattern::Steps(steps) => {
                assert!(!steps.is_empty(), "step pattern needs at least one step");
                let mut load = steps[0].1;
                for (start, l) in steps {
                    if t_s >= *start {
                        load = *l;
                    }
                }
                load
            }
            LoadPattern::Trace {
                interval_s,
                samples,
            } => {
                assert!(!samples.is_empty(), "trace needs at least one sample");
                assert!(*interval_s > 0.0, "trace interval must be positive");
                let pos = (t_s / interval_s).max(0.0);
                let idx = pos.floor() as usize;
                if idx + 1 >= samples.len() {
                    *samples.last().expect("non-empty trace")
                } else {
                    let frac = pos - idx as f64;
                    samples[idx] * (1.0 - frac) + samples[idx + 1] * frac
                }
            }
            LoadPattern::Spike {
                base,
                peak,
                start_s,
                end_s,
            } => {
                if t_s >= *start_s && t_s < *end_s {
                    *peak
                } else {
                    *base
                }
            }
        };
        raw.clamp(0.0, 2.0)
    }

    /// The Fig. 8(a) diurnal pattern: 20 % to 100 % over one second of
    /// simulated time.
    pub fn paper_diurnal() -> LoadPattern {
        LoadPattern::Diurnal {
            min: 0.2,
            max: 1.0,
            period_s: 1.0,
        }
    }

    /// Builds a trace pattern from recorded samples.
    pub fn from_trace(interval_s: f64, samples: Vec<f64>) -> LoadPattern {
        LoadPattern::Trace {
            interval_s,
            samples,
        }
    }

    /// The Fig. 8(c) relocation spike: 20 % base load with a burst *past*
    /// the calibrated maximum (130 %) in `[0.3 s, 0.7 s)`, which no
    /// 16-core configuration can serve — forcing core relocation.
    pub fn paper_spike() -> LoadPattern {
        LoadPattern::Spike {
            base: 0.2,
            peak: 1.3,
            start_s: 0.3,
            end_s: 0.7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant_and_clamped() {
        assert_eq!(LoadPattern::Constant(0.8).load_at(0.0), 0.8);
        assert_eq!(LoadPattern::Constant(0.8).load_at(123.4), 0.8);
        assert_eq!(LoadPattern::Constant(1.7).load_at(0.0), 1.7);
        assert_eq!(LoadPattern::Constant(3.0).load_at(0.0), 2.0);
        assert_eq!(LoadPattern::Constant(-0.5).load_at(0.0), 0.0);
    }

    #[test]
    fn diurnal_starts_low_peaks_mid_period() {
        let p = LoadPattern::paper_diurnal();
        assert!((p.load_at(0.0) - 0.2).abs() < 1e-12);
        assert!((p.load_at(0.5) - 1.0).abs() < 1e-12);
        assert!((p.load_at(1.0) - 0.2).abs() < 1e-12);
        let quarter = p.load_at(0.25);
        assert!(quarter > 0.2 && quarter < 1.0);
    }

    #[test]
    fn steps_switch_at_boundaries() {
        let p = LoadPattern::Steps(vec![(0.0, 0.3), (0.5, 0.9), (0.8, 0.1)]);
        assert_eq!(p.load_at(0.0), 0.3);
        assert_eq!(p.load_at(0.49), 0.3);
        assert_eq!(p.load_at(0.5), 0.9);
        assert_eq!(p.load_at(0.79), 0.9);
        assert_eq!(p.load_at(2.0), 0.1);
    }

    #[test]
    fn spike_has_sharp_edges() {
        let p = LoadPattern::paper_spike();
        assert_eq!(p.load_at(0.29), 0.2);
        assert_eq!(p.load_at(0.3), 1.3);
        assert_eq!(p.load_at(0.69), 1.3);
        assert_eq!(p.load_at(0.7), 0.2);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_steps_panic() {
        let _ = LoadPattern::Steps(vec![]).load_at(0.0);
    }

    #[test]
    fn trace_interpolates_and_holds_the_tail() {
        let p = LoadPattern::from_trace(0.1, vec![0.2, 0.4, 0.8]);
        assert!((p.load_at(0.0) - 0.2).abs() < 1e-12);
        assert!((p.load_at(0.05) - 0.3).abs() < 1e-12);
        assert!((p.load_at(0.1) - 0.4).abs() < 1e-12);
        assert!((p.load_at(0.15) - 0.6).abs() < 1e-12);
        assert!((p.load_at(5.0) - 0.8).abs() < 1e-12, "hold last sample");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_panics() {
        let _ = LoadPattern::from_trace(0.1, vec![]).load_at(0.0);
    }
}
