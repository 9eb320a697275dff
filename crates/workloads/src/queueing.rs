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
//!
//! Oracle tail rows, the testbed's stochastic p99 and the driver's profiling
//! all pay for a quantile per call, so it runs the `k`-step Erlang-C
//! recurrence once and then bisects on the closed-form survival function,
//! stopping at the bisection's floating-point fixed point (about 55 halvings
//! for a p99) — the same bits as running all 80 steps.

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
        self.survival_given_wait(self.probability_of_wait(), t_ms)
    }

    /// [`response_survival`](Self::response_survival) of an unsaturated
    /// queue with its wait probability `pw` already computed.
    fn survival_given_wait(&self, pw: f64, t_ms: f64) -> f64 {
        let mu = self.service_rate_per_ms;
        let theta = self.servers as f64 * mu - self.arrival_rate_per_ms;
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
    /// Cost: one Erlang-C recurrence ([`probability_of_wait`](Self::probability_of_wait))
    /// per call, then one survival evaluation per doubling of the upper
    /// bound from `1/μ` and per halving of `[0, hi]` — about 55 halvings,
    /// at most 80.
    ///
    /// The bisection stops once the midpoint is no longer strictly inside
    /// `(lo, hi)`, i.e. equals an endpoint. That cannot change a bit of the
    /// result of running all 80 steps: from then on each step either
    /// reassigns that endpoint its own value or collapses the bracket onto
    /// the midpoint, and either way the final `0.5 · (lo + hi)` is the
    /// midpoint returned at the stop — whether or not the doubling bracketed
    /// the quantile before giving up at `1e9`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1)`.
    pub fn response_quantile(&self, q: f64) -> Millis {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
        if self.is_saturated() {
            return self.saturated_latency();
        }
        let pw = self.probability_of_wait();
        let target = 1.0 - q;
        let mut lo = 0.0;
        let mut hi = 1.0 / self.service_rate_per_ms;
        while self.survival_given_wait(pw, hi) > target {
            hi *= 2.0;
            if hi > 1e9 {
                break;
            }
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if self.survival_given_wait(pw, mid) > target {
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

    /// The quantile as it was computed before the Erlang-C recurrence was
    /// hoisted: the recurrence inside every survival evaluation and all 80
    /// bisection steps.
    fn reference_quantile(queue: &MmcQueue, q: f64) -> f64 {
        if queue.is_saturated() {
            return queue.saturated_latency().get();
        }
        let survival = |t_ms: f64| {
            let mu = queue.service_rate_per_ms;
            let theta = queue.servers as f64 * mu - queue.arrival_rate_per_ms;
            let pw = queue.probability_of_wait();
            let s_tail = (-mu * t_ms).exp();
            if (theta - mu).abs() < 1e-9 * mu {
                let conv_tail = s_tail * (1.0 + mu * t_ms);
                return ((1.0 - pw) * s_tail + pw * conv_tail).clamp(0.0, 1.0);
            }
            let conv_tail = (theta * s_tail - mu * (-theta * t_ms).exp()) / (theta - mu);
            ((1.0 - pw) * s_tail + pw * conv_tail).clamp(0.0, 1.0)
        };
        let target = 1.0 - q;
        let mut lo = 0.0;
        let mut hi = 1.0 / queue.service_rate_per_ms;
        while survival(hi) > target {
            hi *= 2.0;
            if hi > 1e9 {
                break;
            }
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if survival(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    fn assert_matches_reference(queue: MmcQueue, qq: f64) {
        let got = queue.response_quantile(qq).get();
        let want = reference_quantile(&queue, qq);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{queue:?} q={qq}: {got} vs {want}"
        );
    }

    #[test]
    fn quantile_is_bit_identical_to_the_per_call_recurrence_with_80_steps() {
        let quantiles = [0.01, 0.5, 0.9, 0.99, 0.999];
        let rates = [1e-3, 0.05, 1.0, 37.0, 1e3];
        let loads = [
            0.0,
            1e-6,
            1e-3,
            0.1,
            0.3,
            0.5,
            0.7,
            0.9,
            0.99,
            0.999,
            1.0 - 1e-9,
            1.0 - f64::EPSILON,
        ];
        for servers in [1, 2, 3, 8, 16, 64] {
            for mu in rates {
                for rho in loads {
                    let queue = q(servers, mu, rho * servers as f64 * mu);
                    for qq in quantiles {
                        assert_matches_reference(queue, qq);
                    }
                }
            }
        }
        for qq in quantiles {
            for mu in rates {
                // θ = kμ − λ = μ: the gamma-tail branch.
                assert_matches_reference(q(2, mu, mu), qq);
            }
            // λ = 0 and μ = 1e-9: the doubling gives up at hi > 1e9 with
            // the tail still above the target for q ≥ 0.9.
            let slow = q(1, 1e-9, 0.0);
            assert_matches_reference(slow, qq);
            if qq >= 0.9 {
                assert!(slow.response_quantile(qq).get() > 1e9);
            }
        }
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
        assert_eq!(
            queue.p99_ms().get().to_bits(),
            reference_quantile(&queue, 0.99).to_bits()
        );
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
