//! Discrete-event M/G/k queue simulator.
//!
//! Complements the analytic [`crate::queueing::MmcQueue`] model: the
//! discrete-event simulation draws actual arrival and service times, so it
//! (a) validates the closed forms, and (b) produces *noisy* tail-latency
//! measurements the way a real 100 ms monitoring window would, which is what
//! the CuttleSys runtime observes when it folds measured values back into the
//! reconstruction matrices.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simulator::Millis;

/// Service-time distribution shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceDistribution {
    /// Exponential service times (matches M/M/k exactly).
    Exponential,
    /// Log-normal service times with the given coefficient of variation;
    /// closer to measured TailBench request-size distributions.
    LogNormal {
        /// Coefficient of variation (σ/μ) of the service time.
        cv: f64,
    },
}

/// A k-server FIFO queue driven by sampled arrivals.
///
/// Owns its RNG, so runs are deterministic per seed; create a fresh queue to
/// replay a run.
#[derive(Debug)]
pub struct DesQueue {
    servers: usize,
    service_rate_per_ms: f64,
    arrival_rate_per_ms: f64,
    distribution: ServiceDistribution,
    rng: StdRng,
}

/// Latency statistics from one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of completed requests.
    pub completed: usize,
    /// Mean response time.
    pub mean: Millis,
    /// 50th percentile response time.
    pub p50: Millis,
    /// 95th percentile response time.
    pub p95: Millis,
    /// 99th percentile response time (the paper's tail metric).
    pub p99: Millis,
}

impl DesQueue {
    /// Creates a queue simulator.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or `service_rate_per_ms <= 0`.
    pub fn new(
        servers: usize,
        service_rate_per_ms: f64,
        arrival_rate_per_ms: f64,
        distribution: ServiceDistribution,
        seed: u64,
    ) -> DesQueue {
        assert!(servers > 0, "queue needs at least one server");
        assert!(service_rate_per_ms > 0.0, "service rate must be positive");
        DesQueue {
            servers,
            service_rate_per_ms,
            arrival_rate_per_ms,
            distribution,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn sample_interarrival(&mut self) -> f64 {
        if self.arrival_rate_per_ms <= 0.0 {
            return f64::INFINITY;
        }
        let u: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / self.arrival_rate_per_ms
    }

    fn sample_service(&mut self) -> f64 {
        let mean = 1.0 / self.service_rate_per_ms;
        match self.distribution {
            ServiceDistribution::Exponential => {
                let u: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
                -u.ln() * mean
            }
            ServiceDistribution::LogNormal { cv } => {
                let sigma2 = (1.0 + cv * cv).ln();
                let mu = mean.ln() - sigma2 / 2.0;
                // Box–Muller.
                let u1: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = self.rng.random_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (mu + sigma2.sqrt() * z).exp()
            }
        }
    }

    /// Runs `requests` requests through the queue and reports latency
    /// statistics.
    ///
    /// Simulation uses the standard Lindley recursion for multi-server FIFO
    /// queues: each arrival is dispatched to the earliest-free server.
    pub fn run(&mut self, requests: usize) -> LatencyStats {
        let mut server_free = vec![0.0_f64; self.servers];
        let mut latencies = Vec::with_capacity(requests);
        let mut now = 0.0;
        for _ in 0..requests {
            now += self.sample_interarrival();
            if !now.is_finite() {
                break;
            }
            // Earliest-free server.
            let (idx, free_at) = server_free
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one server");
            let start = now.max(free_at);
            let service = self.sample_service();
            server_free[idx] = start + service;
            latencies.push(start + service - now);
        }
        Self::stats(latencies)
    }

    /// Runs the queue for a fixed wall-clock window (milliseconds), as the
    /// runtime's monitoring loop does, returning stats over the completed
    /// requests. Returns `None` if no request completed inside the window.
    pub fn run_window(&mut self, window_ms: f64) -> Option<LatencyStats> {
        let mut server_free = vec![0.0_f64; self.servers];
        let mut latencies = Vec::new();
        let mut now = 0.0;
        loop {
            now += self.sample_interarrival();
            if now > window_ms || !now.is_finite() {
                break;
            }
            let (idx, free_at) = server_free
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one server");
            let start = now.max(free_at);
            let service = self.sample_service();
            let done = start + service;
            server_free[idx] = done;
            if done <= window_ms {
                latencies.push(done - now);
            }
        }
        if latencies.is_empty() {
            None
        } else {
            Some(Self::stats(latencies))
        }
    }

    fn stats(mut latencies: Vec<f64>) -> LatencyStats {
        if latencies.is_empty() {
            return LatencyStats {
                completed: 0,
                mean: Millis::ZERO,
                p50: Millis::ZERO,
                p95: Millis::ZERO,
                p99: Millis::ZERO,
            };
        }
        latencies.sort_by(f64::total_cmp);
        let n = latencies.len();
        let mean = latencies.iter().sum::<f64>() / n as f64;
        let pct = |q: f64| -> Millis {
            let idx = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
            Millis::new(latencies[idx])
        };
        LatencyStats {
            completed: n,
            mean: Millis::new(mean),
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queueing::MmcQueue;

    #[test]
    fn des_matches_analytic_mm1_mean() {
        let mut des = DesQueue::new(1, 2.0, 1.0, ServiceDistribution::Exponential, 7);
        let stats = des.run(200_000);
        let analytic = MmcQueue::new(1, 2.0, 1.0).mean_response_ms().get();
        let ratio = stats.mean.get() / analytic;
        assert!((0.95..1.05).contains(&ratio), "mean ratio {ratio}");
    }

    #[test]
    fn des_matches_analytic_mmk_p99() {
        let mut des = DesQueue::new(16, 1.0, 12.8, ServiceDistribution::Exponential, 11);
        let stats = des.run(300_000);
        let analytic = MmcQueue::new(16, 1.0, 12.8).p99_ms().get();
        let ratio = stats.p99.get() / analytic;
        assert!((0.9..1.1).contains(&ratio), "p99 ratio {ratio}");
    }

    #[test]
    fn lognormal_heavier_cv_raises_tail() {
        let p99_low = DesQueue::new(4, 1.0, 3.0, ServiceDistribution::LogNormal { cv: 0.5 }, 3)
            .run(100_000)
            .p99;
        let p99_high = DesQueue::new(4, 1.0, 3.0, ServiceDistribution::LogNormal { cv: 2.0 }, 3)
            .run(100_000)
            .p99;
        assert!(p99_high.get() > p99_low.get());
    }

    #[test]
    fn window_run_reports_completions() {
        let mut des = DesQueue::new(8, 1.0, 4.0, ServiceDistribution::Exponential, 5);
        let stats = des.run_window(100.0).expect("requests complete in 100 ms");
        // ~4 req/ms over 100 ms → ~400 arrivals.
        assert!(stats.completed > 200 && stats.completed < 600);
        assert!(stats.p99.get() >= stats.p50.get());
    }

    #[test]
    fn zero_arrival_rate_yields_no_requests() {
        let mut des = DesQueue::new(2, 1.0, 0.0, ServiceDistribution::Exponential, 1);
        assert!(des.run_window(10.0).is_none());
        let stats = des.run(100);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut des = DesQueue::new(4, 1.0, 3.5, ServiceDistribution::Exponential, 9);
        let s = des.run(50_000);
        assert!(s.p50.get() <= s.p95.get());
        assert!(s.p95.get() <= s.p99.get());
        assert!(s.mean.get() > 0.0);
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let a = DesQueue::new(4, 1.0, 3.0, ServiceDistribution::Exponential, 42).run(10_000);
        let b = DesQueue::new(4, 1.0, 3.0, ServiceDistribution::Exponential, 42).run(10_000);
        assert_eq!(a, b);
    }
}
