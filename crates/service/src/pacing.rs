//! The wall-clock boundary of the service.
//!
//! Everything below the service layer — the control core, the driver, the
//! manager — is a pure function of the seed and the request sequence;
//! `crates/clippy.toml` bans clock reads there. A *live* service, though,
//! has to anchor its 100 ms decision quanta to real time. This module is
//! the one place the service reads the clock, under the module-level
//! `#![allow]` below.
//!
//! [`Pacing::Manual`] keeps the whole stack clock-free: quanta run only
//! when the caller asks (tests, replays, benchmarks). [`Pacing::Interval`]
//! drives a quantum every `period` of wall time, absorbing jitter by
//! anchoring deadlines to the previous deadline rather than to "now".

#![allow(
    clippy::disallowed_methods,
    reason = "quantum pacing is the one place live time enters the service: the clock bounds *when* a quantum runs, never what it decides"
)]

use std::time::{Duration, Instant};

/// How the reactor decides when to run the next quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Quanta run only on explicit `step_quantum` requests. Deterministic;
    /// the mode tests and benchmarks use.
    Manual,
    /// A quantum fires every `period` of wall time (the paper's 100 ms
    /// cadence would be `Duration::from_millis(100)`).
    Interval(Duration),
}

/// Deadline bookkeeping for [`Pacing::Interval`].
pub struct Ticker {
    period: Duration,
    deadline: Instant,
}

impl Ticker {
    /// A ticker whose first quantum is due `period` from now.
    pub fn new(period: Duration) -> Ticker {
        Ticker {
            period,
            deadline: Instant::now() + period,
        }
    }

    /// Time remaining until the next quantum is due; zero when overdue.
    pub fn remaining(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }

    /// Whether the next quantum is due.
    pub fn due(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Advances the deadline by one period. Anchored to the previous
    /// deadline, not to "now": a late quantum shortens the next wait
    /// instead of letting lateness accumulate.
    pub fn advance(&mut self) {
        self.deadline += self.period;
        // If the reactor fell more than a full period behind (e.g. a
        // stop-the-world pause), re-anchor rather than firing a burst of
        // catch-up quanta into a simulator that has no concept of them.
        let now = Instant::now();
        if self.deadline < now {
            self.deadline = now + self.period;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticker_becomes_due_and_advances() {
        let mut t = Ticker::new(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.due());
        t.advance();
        assert!(t.remaining() <= Duration::from_millis(1));
    }
}
