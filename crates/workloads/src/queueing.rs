//! Analytic M/M/k tail-latency model.
//!
//! Latency-critical services in the paper are load-balanced across their
//! cores, so we model each service as an M/M/k queue: Poisson arrivals at
//! rate λ, k identical servers whose per-request rate μ is set by the
//! simulator's performance model for the current core configuration and LLC
//! allocation. The 99th-percentile response time follows from the exact
//! M/M/k sojourn-time distribution; overload (ρ ≥ 1) maps to an explicit,
//! monotonically growing saturation latency so design-space search still has
//! a gradient to follow out of infeasible regions.

use simulator::Millis;

/// Saturation latency scale: an overloaded queue reports this many
/// milliseconds per unit of overload, far above any realistic QoS target.
const SATURATION_MS: f64 = 50_000.0;

/// An M/M/k queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmcQueue {
    /// Number of servers (cores serving the service).
    pub servers: usize,
    /// Per-server service rate in requests per millisecond.
    pub service_rate_per_ms: f64,
    /// Arrival rate in requests per millisecond.
    pub arrival_rate_per_ms: f64,
}

impl MmcQueue {
    /// Creates a queue.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or either rate is non-positive/non-finite.
    pub fn new(servers: usize, service_rate_per_ms: f64, arrival_rate_per_ms: f64) -> MmcQueue {
        assert!(servers > 0, "queue needs at least one server");
        assert!(
            service_rate_per_ms > 0.0 && service_rate_per_ms.is_finite(),
            "service rate must be positive"
        );
        assert!(
            arrival_rate_per_ms >= 0.0 && arrival_rate_per_ms.is_finite(),
            "arrival rate must be non-negative"
        );
        MmcQueue {
            servers,
            service_rate_per_ms,
            arrival_rate_per_ms,
        }
    }

    /// Offered load per server, ρ = λ / (kμ).
    pub fn utilization(&self) -> f64 {
        self.arrival_rate_per_ms / (self.servers as f64 * self.service_rate_per_ms)
    }

    /// Whether the queue is overloaded (ρ ≥ 1) and has no steady state.
    pub fn is_saturated(&self) -> bool {
        self.utilization() >= 1.0
    }

    /// Erlang-C probability that an arriving request must wait.
    ///
    /// Computed with the standard numerically stable recurrence on the
    /// Erlang-B blocking probability, valid for large `k` without factorial
    /// overflow. Returns 1.0 when saturated.
    pub fn probability_of_wait(&self) -> f64 {
        if self.is_saturated() {
            return 1.0;
        }
        let a = self.arrival_rate_per_ms / self.service_rate_per_ms; // offered load in Erlangs
        let k = self.servers;
        // Erlang-B recurrence: B(0) = 1; B(n) = a·B(n−1) / (n + a·B(n−1)).
        let mut b = 1.0;
        for n in 1..=k {
            b = a * b / (n as f64 + a * b);
        }
        let rho = self.utilization();
        b / (1.0 - rho + rho * b)
    }

    /// Mean response (sojourn) time in milliseconds.
    pub fn mean_response_ms(&self) -> Millis {
        if self.is_saturated() {
            return self.saturated_latency();
        }
        let mu = self.service_rate_per_ms;
        let k = self.servers as f64;
        let pw = self.probability_of_wait();
        let wq = pw / (k * mu - self.arrival_rate_per_ms);
        Millis::new(wq + 1.0 / mu)
    }

    /// Survival function of the response time, P(T > t).
    ///
    /// T = W + S where S ~ Exp(μ) and W is zero with probability 1 − P_wait,
    /// else Exp(kμ − λ). The convolution has a closed form; the θ = μ corner
    /// case degenerates to a gamma tail handled separately.
    pub fn response_survival(&self, t_ms: f64) -> f64 {
        if self.is_saturated() {
            return 1.0;
        }
        let mu = self.service_rate_per_ms;
        let theta = self.servers as f64 * mu - self.arrival_rate_per_ms;
        let pw = self.probability_of_wait();
        let s_tail = (-mu * t_ms).exp();
        if (theta - mu).abs() < 1e-9 * mu {
            // Exp(μ) + Exp(μ) = Gamma(2, μ): P(T > t) = e^{-μt}(1 + μt).
            let conv_tail = s_tail * (1.0 + mu * t_ms);
            return ((1.0 - pw) * s_tail + pw * conv_tail).clamp(0.0, 1.0);
        }
        let conv_tail = (theta * s_tail - mu * (-theta * t_ms).exp()) / (theta - mu);
        ((1.0 - pw) * s_tail + pw * conv_tail).clamp(0.0, 1.0)
    }

    /// The `q`-quantile of the response time in milliseconds (e.g. `0.99`
    /// for the paper's tail latency), found by bisection on the survival
    /// function.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1)`.
    pub fn response_quantile(&self, q: f64) -> Millis {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
        if self.is_saturated() {
            return self.saturated_latency();
        }
        let target = 1.0 - q;
        let mut lo = 0.0;
        let mut hi = 1.0 / self.service_rate_per_ms;
        while self.response_survival(hi) > target {
            hi *= 2.0;
            if hi > 1e9 {
                break;
            }
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.response_survival(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Millis::new(0.5 * (lo + hi))
    }

    /// 99th-percentile response time, the paper's tail-latency metric.
    pub fn p99_ms(&self) -> Millis {
        self.response_quantile(0.99)
    }

    /// Latency reported under overload: grows monotonically with ρ so search
    /// algorithms can still rank infeasible configurations.
    fn saturated_latency(&self) -> Millis {
        Millis::new(SATURATION_MS * self.utilization().min(100.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(servers: usize, mu: f64, lambda: f64) -> MmcQueue {
        MmcQueue::new(servers, mu, lambda)
    }

    #[test]
    fn single_server_matches_mm1_closed_forms() {
        // M/M/1: P_wait = ρ, mean T = 1/(μ−λ), P(T>t) = e^{−(μ−λ)t}.
        let queue = q(1, 2.0, 1.0);
        assert!((queue.probability_of_wait() - 0.5).abs() < 1e-9);
        assert!((queue.mean_response_ms().get() - 1.0).abs() < 1e-9);
        let p99 = queue.p99_ms().get();
        let expected = (100.0_f64).ln() / (2.0 - 1.0);
        assert!((p99 - expected).abs() < 1e-6, "p99 {p99} vs {expected}");
    }

    #[test]
    fn utilization_and_saturation() {
        assert!(!q(16, 1.0, 12.0).is_saturated());
        assert!(q(16, 1.0, 16.0).is_saturated());
        assert!((q(16, 1.0, 12.8).utilization() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn p99_grows_with_load() {
        let mut prev = 0.0;
        for load in [0.2, 0.5, 0.8, 0.9, 0.95] {
            let p99 = q(16, 1.0, 16.0 * load).p99_ms().get();
            assert!(p99 > prev, "p99 must grow with load");
            prev = p99;
        }
    }

    #[test]
    fn p99_shrinks_with_faster_service() {
        let slow = q(16, 0.5, 4.0).p99_ms().get();
        let fast = q(16, 2.0, 4.0).p99_ms().get();
        assert!(fast < slow);
    }

    #[test]
    fn saturated_latency_is_huge_and_monotone() {
        let a = q(4, 1.0, 4.0).p99_ms().get();
        let b = q(4, 1.0, 8.0).p99_ms().get();
        assert!(a >= SATURATION_MS);
        assert!(b > a);
    }

    #[test]
    fn survival_is_decreasing_in_t() {
        let queue = q(8, 1.0, 6.0);
        let mut prev = 1.0;
        for i in 0..50 {
            let s = queue.response_survival(i as f64 * 0.2);
            assert!(s <= prev + 1e-12);
            prev = s;
        }
    }

    #[test]
    fn quantile_inverts_survival() {
        let queue = q(16, 1.2, 14.0);
        for qq in [0.5, 0.9, 0.99] {
            let t = queue.response_quantile(qq).get();
            let s = queue.response_survival(t);
            assert!((s - (1.0 - qq)).abs() < 1e-6, "q={qq}: survival {s}");
        }
    }

    #[test]
    fn theta_equals_mu_corner_case() {
        // k=1: θ = μ − λ; pick λ so θ ≈ μ is impossible for k=1 (θ<μ), use
        // k=2, μ=1, λ=1 → θ = 2−1 = 1 = μ.
        let queue = q(2, 1.0, 1.0);
        let s = queue.response_survival(1.0);
        assert!(s > 0.0 && s < 1.0);
        let p99 = queue.p99_ms().get();
        assert!(p99 > 0.0 && p99.is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = MmcQueue::new(0, 1.0, 0.5);
    }

    #[test]
    fn erlang_c_matches_reference_values() {
        // Reference: k=2, a=1 (ρ=0.5) → C = 1/3.
        let queue = q(2, 1.0, 1.0);
        assert!((queue.probability_of_wait() - 1.0 / 3.0).abs() < 1e-9);
    }
}
