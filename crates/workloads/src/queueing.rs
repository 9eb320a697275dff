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
//! # The quantile's cost
//!
//! Oracle tail rows (108 p99s each, 20 rows the first time the runtime
//! meets a load bucket), the testbed's per-slice stochastic p99 and the
//! driver's profiling all pay for a quantile per call. A quantile is
//! defined as the bisection on the closed-form survival function `S(t)`,
//! run to its floating-point fixed point (the same bits as 80 halvings). It
//! costs one `k`-step Erlang-C recurrence plus its survival evaluations, two
//! `exp` each, and evaluating every midpoint takes about 57 of those per
//! p99. [`MmcQueue::response_quantile`] makes about 20 and returns the same
//! bits: Newton's iteration on `ln S` locates the quantile, and the
//! unchanged bisection evaluates only the midpoints within 4096 ulps of it,
//! deciding the others by the side of the window they fall on. Its
//! documentation argues why a skipped midpoint cannot change a bit and
//! names the three cases that evaluate every midpoint: cancellation near
//! θ = μ, a root the doubling never bracketed, and a Newton iteration that
//! did not settle. Debug builds evaluate the skipped midpoints as well and
//! assert the outcome.

use simulator::Millis;

/// Saturation latency scale: an overloaded queue reports this many
/// milliseconds per unit of overload, far above any realistic QoS target.
const SATURATION_MS: f64 = 50_000.0;

/// Half-width, in ulps of the root, of the window around the Newton root
/// inside which [`MmcQueue::response_quantile`] evaluates its bisection
/// midpoints, before [`Window::around`] widens it for slowly falling tails.
const WINDOW_ULPS: f64 = 4096.0;

/// Newton steps after which the quantile gives up on the window and
/// evaluates every midpoint.
const NEWTON_STEPS: usize = 20;

/// Relative step size below which one polishing step ends Newton's
/// iteration.
const NEWTON_SETTLED: f64 = 1e-6;

/// The neighbourhood of a Newton root of `S(t) = 1 − q` inside which the
/// quantile's bisection evaluates its midpoints.
#[derive(Debug, Clone, Copy)]
struct Window {
    from: f64,
    to: f64,
}

impl Window {
    /// ±[`WINDOW_ULPS`] ulps of `root`, widened by `1 / elasticity` where
    /// `S` falls slower than `t` grows (`elasticity = t·|S′|/S < 1`: the
    /// quantiles below about 0.6). Either way, to first order, `S` at the
    /// window's edges is at least `WINDOW_ULPS/2 · ε·S` away from `1 − q`.
    fn around(root: f64, elasticity: f64) -> Window {
        let ulp = f64::from_bits(root.to_bits() + 1) - root;
        let half = WINDOW_ULPS * ulp / elasticity.min(1.0);
        Window {
            from: root - half,
            to: root + half,
        }
    }

    /// Whether `S(t) > 1 − q` for a `t` outside the window; `None` inside.
    fn side(&self, t: f64) -> Option<bool> {
        if t < self.from {
            Some(true)
        } else if t > self.to {
            Some(false)
        } else {
            None
        }
    }
}

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
        let pw = self.probability_of_wait();
        let wq = pw / self.wait_rate();
        Millis::new(wq + 1.0 / self.service_rate_per_ms)
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
        let theta = self.wait_rate();
        let s_tail = (-mu * t_ms).exp();
        if (theta - mu).abs() < 1e-9 * mu {
            // Exp(μ) + Exp(μ) = Gamma(2, μ): P(T > t) = e^{-μt}(1 + μt).
            let conv_tail = s_tail * (1.0 + mu * t_ms);
            return ((1.0 - pw) * s_tail + pw * conv_tail).clamp(0.0, 1.0);
        }
        let conv_tail = (theta * s_tail - mu * (-theta * t_ms).exp()) / (theta - mu);
        ((1.0 - pw) * s_tail + pw * conv_tail).clamp(0.0, 1.0)
    }

    /// `S(t)`, unclamped, and `dS/dt` of an unsaturated queue off the
    /// θ = μ corner: the two terms of a Newton step on `ln S`.
    fn survival_and_slope(&self, pw: f64, t_ms: f64) -> (f64, f64) {
        let mu = self.service_rate_per_ms;
        let theta = self.wait_rate();
        let s_tail = (-mu * t_ms).exp();
        let w_tail = (-theta * t_ms).exp();
        let conv_tail = (theta * s_tail - mu * w_tail) / (theta - mu);
        let survival = (1.0 - pw) * s_tail + pw * conv_tail;
        let slope = -mu * ((1.0 - pw) * s_tail + pw * theta * (s_tail - w_tail) / (theta - mu));
        (survival, slope)
    }

    /// θ = kμ − λ, the rate of a waiting request's queueing delay.
    fn wait_rate(&self) -> f64 {
        self.servers as f64 * self.service_rate_per_ms - self.arrival_rate_per_ms
    }

    /// The `q`-quantile of the response time in milliseconds (e.g. `0.99`
    /// for the paper's tail latency): the bisection of `[0, hi]` on the
    /// survival function, run to its floating-point fixed point, where `hi`
    /// doubles from `1/μ` until `S(hi) ≤ 1 − q` or passes `1e9`.
    ///
    /// Cost: one Erlang-C recurrence ([`probability_of_wait`](Self::probability_of_wait))
    /// per call, then one survival evaluation per doubling, per Newton step
    /// and per midpoint inside the Newton window — about 20 for a p99, where
    /// evaluating every midpoint takes about 57.
    ///
    /// The bisection is replayed unchanged: the same midpoints and the same
    /// stop rule. What changes is how a midpoint's side is decided. Newton's
    /// iteration on `ln S` inside the doubling's bracket finds the root of
    /// `S(t) = 1 − q`, and only the midpoints in a window around it are
    /// evaluated: ±4096 ulps, widened by `1/e` where the elasticity
    /// `e = t·|S′|/S` is below 1 (quantiles below about 0.6, where `S`
    /// falls slower than `t` grows). A midpoint below the window takes `lo`,
    /// one above it takes `hi`.
    ///
    /// A skipped midpoint cannot change a bit. At the window's edges `S` is,
    /// to first order, at least `2048·ε·S` away from `1 − q`. Its evaluation
    /// errs by a few `ε` of its largest term, and with the guard below no
    /// term exceeds `64·S` (the conditional tail `(θe^{−μt} − μe^{−θt})/(θ −
    /// μ)` is at least both `e^{−μt}` and `e^{−θt}`). So the comparison has
    /// one possible outcome, the one it is given, and every `lo`/`hi`
    /// assignment, and so the result, is the full bisection's. Over the
    /// tested queues the farthest midpoint whose comparison disagreed with
    /// its side sat 100 window-ulps from the root (12 at a p99). Debug
    /// builds evaluate the skipped midpoints too and assert that they agree.
    ///
    /// Three cases evaluate every midpoint, as the plain bisection does:
    /// `θ = kμ − λ` within `max(θ, μ)/64` of `μ`, where `θ·e^{−μt} −
    /// μ·e^{−θt}` cancels; a doubling that gave up at `1e9`, so no bracket
    /// holds the root; and no Newton convergence in 20 steps. On the tail
    /// library's unsaturated queues that is 0.2 % of p99s.
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
        let (mut hi, window) = self.bracket(pw, target);
        let mut lo = 0.0;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            let above_target = match window.and_then(|w| w.side(mid)) {
                Some(side) => {
                    debug_assert_eq!(
                        side,
                        self.survival_given_wait(pw, mid) > target,
                        "{self:?} q={q}: the Newton window {window:?} misjudged t={mid}"
                    );
                    side
                }
                None => self.survival_given_wait(pw, mid) > target,
            };
            if above_target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Millis::new(0.5 * (lo + hi))
    }

    /// The doubling's upper bound — the first `hi = 2ʲ/μ` with
    /// `S(hi) ≤ target`, or the first past `1e9` — and the Newton window
    /// around the root, `None` where every midpoint must be evaluated.
    fn bracket(&self, pw: f64, target: f64) -> (f64, Option<Window>) {
        let mut below = 0.0;
        let mut hi = 1.0 / self.service_rate_per_ms;
        while self.survival_given_wait(pw, hi) > target {
            below = hi;
            hi *= 2.0;
            if hi > 1e9 {
                return (hi, None);
            }
        }
        let mu = self.service_rate_per_ms;
        let theta = self.wait_rate();
        if (theta - mu).abs() < theta.max(mu) / 64.0 {
            return (hi, None);
        }
        (hi, self.newton_window(pw, target, below, hi))
    }

    /// The window around the root of `ln S(t) = ln target`, found by
    /// Newton's iteration inside `(below, above)`, where
    /// `S(below) > target ≥ S(above)`. The seed is the root of the dominant
    /// exponential `A·e^{−rt}`, `r = min(μ, θ)`; an iterate outside the
    /// bracket is replaced by the bracket's midpoint. After a step of at
    /// most `1e-6·t`, one polishing step gives the root. `None` after 20
    /// steps without.
    fn newton_window(
        &self,
        pw: f64,
        target: f64,
        mut below: f64,
        mut above: f64,
    ) -> Option<Window> {
        let mu = self.service_rate_per_ms;
        let theta = self.wait_rate();
        let (rate, amplitude) = if mu < theta {
            (mu, (1.0 - pw) + pw * theta / (theta - mu))
        } else {
            (theta, pw * mu / (mu - theta))
        };
        let ln_target = target.ln();
        let seed = (amplitude.ln() - ln_target) / rate;
        let mut t = if seed > below && seed < above {
            seed
        } else {
            0.5 * (below + above)
        };
        let mut polish = false;
        for _ in 0..NEWTON_STEPS {
            let (s, slope) = self.survival_and_slope(pw, t);
            if s > target {
                below = t;
            } else {
                above = t;
            }
            if !(s > 0.0 && slope < 0.0) {
                // No logarithm to step on: bisect.
                polish = false;
                t = 0.5 * (below + above);
                continue;
            }
            let next = t - (s.ln() - ln_target) * s / slope;
            if polish {
                return (next.is_finite() && next > 0.0)
                    .then(|| Window::around(next, -slope * t / s));
            }
            polish = (next - t).abs() <= NEWTON_SETTLED * t;
            // A settled step is taken as it is: one too small to move `t`
            // off the bracket end `t` just became is convergence, and the
            // bracket's midpoint would throw it away.
            t = if polish || (next > below && next < above) {
                next
            } else {
                0.5 * (below + above)
            };
        }
        None
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
    use crate::latency;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use simulator::power::CoreKind;
    use simulator::{Chip, JobConfig, SystemParams};

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
        // Seeded random queues: 1–64 servers, μ log-uniform over six
        // decades, ρ uniform in [0, 1).
        let mut rng = StdRng::seed_from_u64(0x51);
        for _ in 0..20_000 {
            let servers = rng.random_range(1..65);
            let mu = 10f64.powf(rng.random_range(-3.0..3.0));
            let rho = rng.random_range(0.0..1.0);
            let queue = q(servers, mu, rho * servers as f64 * mu);
            for qq in quantiles {
                assert_matches_reference(queue, qq);
            }
        }
        // The queues whose p99s the tail library is characterized from.
        for queue in library_grid() {
            assert_matches_reference(queue, 0.99);
        }
    }

    /// Queues shaped like the tail library's: every TailBench service,
    /// unscaled and at the library's ILP / working-set / QPS scalings
    /// (0.72–1.30), on 16 cores, in each of the 108 configurations, at every
    /// load bucket 0–200 %.
    fn library_grid() -> Vec<MmcQueue> {
        let chip = Chip::new(SystemParams::default(), CoreKind::Reconfigurable);
        let mut queues = Vec::new();
        for svc in latency::services() {
            for (ilp_scale, ws_scale, qps_scale) in [
                (1.0, 1.0, 1.0),
                (0.80, 1.30, 0.85),
                (0.90, 1.12, 0.94),
                (1.08, 0.90, 1.05),
                (1.18, 0.72, 1.12),
            ] {
                let mut variant = svc;
                variant.profile.ilp *= ilp_scale;
                variant.profile.llc_working_set_ways *= ws_scale;
                variant.profile.fe_sensitivity = (svc.profile.fe_sensitivity * ws_scale).min(1.0);
                variant.max_qps *= qps_scale;
                for jc in JobConfig::all() {
                    for bucket in 0..=200 {
                        let load = bucket as f64 / 100.0;
                        queues.push(variant.queue(chip.perf(), 16, jc.core, jc.cache, load, 0.0));
                    }
                }
            }
        }
        queues
    }

    /// The Newton window of `queue`'s `qq`-quantile, `None` where every
    /// midpoint is evaluated.
    fn window(queue: MmcQueue, qq: f64) -> Option<Window> {
        queue.bracket(queue.probability_of_wait(), 1.0 - qq).1
    }

    #[test]
    fn the_newton_window_holds_the_quantile_on_the_library_grid() {
        let unsaturated: Vec<MmcQueue> = library_grid()
            .into_iter()
            .filter(|queue| !queue.is_saturated())
            .collect();
        let held = unsaturated
            .iter()
            .filter(|queue| {
                let want = reference_quantile(queue, 0.99);
                window(**queue, 0.99).is_some_and(|w| w.side(want).is_none())
            })
            .count();
        assert!(
            held as f64 >= 0.99 * unsaturated.len() as f64,
            "the window held the p99 of only {held} of {} queues",
            unsaturated.len()
        );
    }

    #[test]
    fn every_midpoint_is_evaluated_where_newton_cannot_be_trusted() {
        for qq in [0.5, 0.99] {
            // θ = μ exactly, and θ within max(θ, μ)/64 of μ: cancellation.
            assert!(window(q(2, 1.0, 1.0), qq).is_none());
            assert!(window(q(2, 1.0, 0.99), qq).is_none());
            assert!(window(q(2, 1.0, 1.01), qq).is_none());
            // A doubling that gave up at 1e9: no bracket around the root.
            assert!(window(q(2, 1e-9, 0.0), 0.99).is_none());
            // The same queues away from each corner do get a window.
            assert!(window(q(2, 1.0, 0.5), qq).is_some());
            assert!(window(q(2, 1e-3, 0.0), qq).is_some());
        }
        // No convergence in 20 steps: a bracket that excludes the root
        // never lets a step settle.
        let queue = q(16, 1.0, 12.0);
        let (pw, target) = (queue.probability_of_wait(), 0.01);
        let (hi, found) = queue.bracket(pw, target);
        assert!(found.is_some());
        assert!(queue.newton_window(pw, target, 0.0, 0.01 * hi).is_none());
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
