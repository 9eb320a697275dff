//! Per-node health tracking and the fleet degraded-mode hysteresis.
//!
//! The coordinator cannot see inside a failed node — it sees only whether
//! the node answered this quantum's lockstep step (its "heartbeat").
//! [`NodeHealth::observe`] turns that one observable into a state machine,
//! one per node, held on the node's [`crate::NodeAgent`]:
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
//! The same module holds the fleet [`DegradedMode`] hysteresis (enter
//! after [`DEGRADE_AFTER`] consecutive infeasible quanta, exit after
//! [`RESTORE_AFTER`] consecutive feasible ones — the fleet-level analogue
//! of the node manager's circuit breaker). The displaced tenants' retry
//! backoff is the one every relocation shares,
//! [`crate::migration::retry_backoff`].

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

    /// Observes one quantum's heartbeat verdict. Returns `Some((from,
    /// to))` when the state changed (missed-count and clean-count updates
    /// within Suspect/Recovering count as changes too — the coordinator
    /// reports only the Down/serving edges it cares about).
    pub fn observe(&mut self, heartbeat: bool) -> Option<(NodeHealth, NodeHealth)> {
        let from = *self;
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
        *self = match (from, heartbeat) {
            (NodeHealth::Up, true) => NodeHealth::Up,
            (NodeHealth::Up, false) => missed_step(1),
            (NodeHealth::Suspect { .. }, true) => NodeHealth::Up,
            (NodeHealth::Suspect { missed }, false) => missed_step(missed + 1),
            (NodeHealth::Down, true) => clean_step(1),
            (NodeHealth::Down, false) => NodeHealth::Down,
            (NodeHealth::Recovering { clean }, true) => clean_step(clean + 1),
            (NodeHealth::Recovering { .. }, false) => NodeHealth::Down,
        };
        (*self != from).then_some((from, *self))
    }

    /// Forces the node Down (the maintenance-drain path: the coordinator
    /// takes a healthy node out deliberately). Returns the transition, or
    /// `None` if already Down.
    pub fn force_down(&mut self) -> Option<(NodeHealth, NodeHealth)> {
        let from = std::mem::replace(self, NodeHealth::Down);
        (from != NodeHealth::Down).then_some((from, NodeHealth::Down))
    }
}

/// Consecutive missed heartbeats before a node is declared Down (and its
/// tenants evacuated).
pub const DOWN_AFTER: usize = 3;
/// Consecutive clean quanta a Recovering node needs to return to Up.
pub const RECOVER_AFTER: usize = 2;
/// Consecutive infeasible quanta (displaced tenants unplaceable) before
/// the fleet enters degraded mode.
pub const DEGRADE_AFTER: usize = 2;
/// Consecutive feasible quanta before the fleet exits degraded mode.
pub const RESTORE_AFTER: usize = 2;

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
        let mut t = NodeHealth::Up;
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
        let mut t = NodeHealth::Up;
        t.observe(false);
        assert_eq!(
            t.observe(true),
            Some((NodeHealth::Suspect { missed: 1 }, NodeHealth::Up))
        );
        // Down, one clean quantum, then a miss: straight back to Down.
        for _ in 0..3 {
            t.observe(false);
        }
        assert_eq!(t, NodeHealth::Down);
        t.observe(true);
        assert_eq!(
            t.observe(false),
            Some((NodeHealth::Recovering { clean: 1 }, NodeHealth::Down))
        );
    }

    #[test]
    fn force_down_reports_once() {
        let mut t = NodeHealth::Up;
        assert_eq!(t.force_down(), Some((NodeHealth::Up, NodeHealth::Down)));
        assert_eq!(t.force_down(), None);
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
