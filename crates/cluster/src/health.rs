//! Per-node health tracking and the fleet degraded-mode hysteresis.
//!
//! The coordinator cannot see inside a failed node — it sees only whether
//! the node answered this quantum's lockstep step (its "heartbeat"). This
//! module turns that one observable into a per-node state machine:
//!
//! ```text
//!        miss            missed >= DOWN_AFTER
//!  Up ─────────→ Suspect ────────────────────→ Down
//!   ↑ beat          │ beat                      │ beat
//!   │←──────────────┘                           ▼
//!   │         clean >= RECOVER_AFTER        Recovering
//!   └───────────────────────────────────────────┘
//!                                     (a miss while Recovering relapses
//!                                      straight back to Down)
//! ```
//!
//! Every timeout is **quantum-counted** — [`DOWN_AFTER`] missed
//! heartbeats, [`RECOVER_AFTER`] clean quanta — never wall-clock. The
//! coordinator steps the fleet in simulated lockstep time; a wall clock
//! here would make the detector's verdicts depend on host scheduling and
//! break bit-replay (the invariant linter keeps this file on the decision
//! path).
//!
//! The same module holds the displaced-queue backoff arithmetic
//! ([`retry_backoff`]: `min(RETRY_BASE · 2^attempts, RETRY_CAP)` quanta)
//! and the fleet [`DegradedMode`] hysteresis (enter after
//! [`DEGRADE_AFTER`] consecutive infeasible quanta, exit after
//! [`RESTORE_AFTER`] consecutive feasible ones — the fleet-level analogue
//! of PR 3's circuit breaker).

/// One node's health as the coordinator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Heartbeating normally.
    Up,
    /// Missed `missed` consecutive heartbeats; not yet declared down.
    Suspect {
        /// Consecutive missed heartbeats so far.
        missed: usize,
    },
    /// Declared down; its tenants are evacuated.
    Down,
    /// Heartbeats resumed after Down; `clean` consecutive clean quanta so
    /// far, on the way back to Up.
    Recovering {
        /// Consecutive clean quanta since heartbeats resumed.
        clean: usize,
    },
}

impl NodeHealth {
    /// The state's stable lower-case name (used in metrics and events).
    pub fn name(self) -> &'static str {
        match self {
            NodeHealth::Up => "up",
            NodeHealth::Suspect { .. } => "suspect",
            NodeHealth::Down => "down",
            NodeHealth::Recovering { .. } => "recovering",
        }
    }

    /// Whether the node can host tenants and receive traffic: everything
    /// but Down. A Suspect or Recovering node is still serving — the
    /// coordinator only evacuates on Down.
    pub fn is_serving(self) -> bool {
        self != NodeHealth::Down
    }

    /// Whether the node is declared down.
    pub fn is_down(self) -> bool {
        self == NodeHealth::Down
    }
}

/// Consecutive missed heartbeats before a node is declared Down (and its
/// tenants evacuated).
pub const DOWN_AFTER: usize = 3;
/// Consecutive clean quanta a Recovering node needs to return to Up.
pub const RECOVER_AFTER: usize = 2;
/// Displaced-queue backoff base, in quanta (the first retry waits this).
pub const RETRY_BASE: usize = 1;
/// Displaced-queue backoff ceiling, in quanta.
pub const RETRY_CAP: usize = 8;
/// Consecutive infeasible quanta (displaced tenants unplaceable) before
/// the fleet enters degraded mode.
pub const DEGRADE_AFTER: usize = 2;
/// Consecutive feasible quanta before the fleet exits degraded mode.
pub const RESTORE_AFTER: usize = 2;
/// While degraded and out of batch to shed, LC traffic shares shrink
/// toward this floor (the fleet's safe-mode allocation) ...
pub const MIN_DEGRADED_SHARE: f64 = 0.5;
/// ... by this much per quantum.
pub const SHARE_SHRINK: f64 = 0.1;

/// Bounded exponential backoff for the displaced queue, in quanta:
/// `min(RETRY_BASE · 2^attempts, RETRY_CAP)`. Pure arithmetic over
/// quantum counts — deterministic and replayable.
pub fn retry_backoff(attempts: u32) -> usize {
    RETRY_BASE
        .saturating_mul(1usize << attempts.min(16))
        .min(RETRY_CAP)
}

/// One node's health detector: feed it the heartbeat verdict each
/// quantum, get back the transition (if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTracker {
    state: NodeHealth,
}

impl HealthTracker {
    /// A fresh tracker: the node starts Up.
    pub fn new() -> HealthTracker {
        HealthTracker {
            state: NodeHealth::Up,
        }
    }

    /// The current health state.
    pub fn state(&self) -> NodeHealth {
        self.state
    }

    /// Observes one quantum's heartbeat verdict. Returns `Some((from,
    /// to))` when the state changed (missed-count and clean-count updates
    /// within Suspect/Recovering count as changes too — the coordinator
    /// reports only the Down/serving edges it cares about).
    pub fn observe(&mut self, heartbeat: bool) -> Option<(NodeHealth, NodeHealth)> {
        let from = self.state;
        let missed_step = |missed: usize| {
            if missed >= DOWN_AFTER {
                NodeHealth::Down
            } else {
                NodeHealth::Suspect { missed }
            }
        };
        let clean_step = |clean: usize| {
            if clean >= RECOVER_AFTER {
                NodeHealth::Up
            } else {
                NodeHealth::Recovering { clean }
            }
        };
        self.state = match (from, heartbeat) {
            (NodeHealth::Up, true) => NodeHealth::Up,
            (NodeHealth::Up, false) => missed_step(1),
            (NodeHealth::Suspect { .. }, true) => NodeHealth::Up,
            (NodeHealth::Suspect { missed }, false) => missed_step(missed + 1),
            (NodeHealth::Down, true) => clean_step(1),
            (NodeHealth::Down, false) => NodeHealth::Down,
            (NodeHealth::Recovering { clean }, true) => clean_step(clean + 1),
            (NodeHealth::Recovering { .. }, false) => NodeHealth::Down,
        };
        (self.state != from).then_some((from, self.state))
    }

    /// Forces the node Down (the maintenance-drain path: the coordinator
    /// takes a healthy node out deliberately). Returns the transition, or
    /// `None` if already Down.
    pub fn force_down(&mut self) -> Option<(NodeHealth, NodeHealth)> {
        let from = self.state;
        self.state = NodeHealth::Down;
        (from != NodeHealth::Down).then_some((from, NodeHealth::Down))
    }
}

impl Default for HealthTracker {
    fn default() -> HealthTracker {
        HealthTracker::new()
    }
}

/// Fleet-level degraded mode with hysteretic entry and exit: the
/// coordinator reports each quantum whether lost capacity left displaced
/// tenants unplaceable, and the mode flips only after a fixed streak
/// in either direction — one bad (or good) quantum never flaps the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradedMode {
    active: bool,
    infeasible_streak: usize,
    feasible_streak: usize,
}

impl DegradedMode {
    /// A fresh, inactive mode.
    pub fn new() -> DegradedMode {
        DegradedMode::default()
    }

    /// Whether the fleet is currently degraded.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Observes one quantum's feasibility verdict. Returns `Some(true)`
    /// on entry, `Some(false)` on exit, `None` otherwise.
    pub fn observe(&mut self, infeasible: bool) -> Option<bool> {
        if infeasible {
            self.infeasible_streak += 1;
            self.feasible_streak = 0;
            if !self.active && self.infeasible_streak >= DEGRADE_AFTER {
                self.active = true;
                return Some(true);
            }
        } else {
            self.feasible_streak += 1;
            self.infeasible_streak = 0;
            if self.active && self.feasible_streak >= RESTORE_AFTER {
                self.active = false;
                return Some(false);
            }
        }
        None
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn the_detector_walks_up_suspect_down_recovering_up() {
        let mut t = HealthTracker::new();
        assert_eq!(t.observe(true), None, "clean quantum, no change");
        assert_eq!(
            t.observe(false),
            Some((NodeHealth::Up, NodeHealth::Suspect { missed: 1 }))
        );
        assert_eq!(
            t.observe(false),
            Some((
                NodeHealth::Suspect { missed: 1 },
                NodeHealth::Suspect { missed: 2 }
            ))
        );
        // Third consecutive miss crosses DOWN_AFTER = 3.
        assert_eq!(
            t.observe(false),
            Some((NodeHealth::Suspect { missed: 2 }, NodeHealth::Down))
        );
        assert_eq!(t.observe(false), None, "down stays down");
        assert_eq!(
            t.observe(true),
            Some((NodeHealth::Down, NodeHealth::Recovering { clean: 1 }))
        );
        // Second clean quantum crosses RECOVER_AFTER = 2.
        assert_eq!(
            t.observe(true),
            Some((NodeHealth::Recovering { clean: 1 }, NodeHealth::Up))
        );
    }

    #[test]
    fn a_heartbeat_clears_suspicion_and_a_relapse_returns_to_down() {
        let mut t = HealthTracker::new();
        t.observe(false);
        assert_eq!(
            t.observe(true),
            Some((NodeHealth::Suspect { missed: 1 }, NodeHealth::Up))
        );
        // Down, one clean quantum, then a miss: straight back to Down.
        for _ in 0..3 {
            t.observe(false);
        }
        assert_eq!(t.state(), NodeHealth::Down);
        t.observe(true);
        assert_eq!(
            t.observe(false),
            Some((NodeHealth::Recovering { clean: 1 }, NodeHealth::Down))
        );
    }

    #[test]
    fn force_down_reports_once() {
        let mut t = HealthTracker::new();
        assert_eq!(t.force_down(), Some((NodeHealth::Up, NodeHealth::Down)));
        assert_eq!(t.force_down(), None);
    }

    #[test]
    fn retry_backoff_doubles_and_saturates_at_the_cap() {
        let waits: Vec<usize> = (0..6).map(retry_backoff).collect();
        assert_eq!(waits, vec![1, 2, 4, 8, 8, 8]);
        // Huge attempt counts cannot overflow.
        assert_eq!(retry_backoff(u32::MAX), RETRY_CAP);
    }

    #[test]
    fn degraded_mode_is_hysteretic_in_both_directions() {
        let mut mode = DegradedMode::new();
        assert_eq!(mode.observe(true), None, "one bad quantum is noise");
        assert_eq!(mode.observe(false), None, "streak broken");
        assert_eq!(mode.observe(true), None);
        assert_eq!(mode.observe(true), Some(true), "second in a row enters");
        assert!(mode.active());
        assert_eq!(mode.observe(true), None, "already degraded");
        assert_eq!(mode.observe(false), None, "one good quantum is noise");
        assert_eq!(mode.observe(true), None, "streak broken");
        assert_eq!(mode.observe(false), None);
        assert_eq!(mode.observe(false), Some(false), "second in a row exits");
        assert!(!mode.active());
    }
}
