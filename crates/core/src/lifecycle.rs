//! The tenant lifecycle state machine the control plane enforces.
//!
//! Every tenant the control plane tracks — latency-critical services and
//! batch applications alike — moves through one explicit state machine:
//!
//! ```text
//!                 ┌──────────────→ Retired (admission rejected)
//!                 │
//! Registering → Admitted → Running ⇄ Degraded
//!                 │           │  ⇄       │
//!                 │           │ Relocating
//!                 │           │   │      │
//!                 └───────→ Draining ←───┘
//!                             │
//!                             ▼
//!                          Retired
//! ```
//!
//! The machine subsumes two previously implicit mechanisms:
//!
//! * the **degradation ladder** (PR 3): a quantum that fell back to a
//!   last-good replay or safe mode moves its tenants Running → Degraded,
//!   and a clean quantum moves them back;
//! * the **churn paths** (PR 2): batch arrival is Admitted → Running,
//!   departure is Running → Draining → Retired, and an LC tenant whose
//!   core reservation is being reshaped passes through Relocating.
//!
//! Illegal transitions are *hard errors*, not warnings: the control plane
//! treats an out-of-order transition as a logic bug and surfaces
//! [`LifecycleError`] immediately. The transition relation is a single
//! const table ([`LifecycleState::successors`]) so the property test can
//! enumerate it exhaustively: every transition not in the table is
//! rejected, and from every reachable state some legal path reaches
//! [`LifecycleState::Retired`].
//!
//! Since the cluster refactor, [`LifecycleState::Relocating`] carries its
//! [`RelocationTarget`]: an on-chip reshape ([`RelocationTarget::Local`])
//! or a cross-node move with a destination [`NodeId`]. Legality is decided
//! on the state's *kind* ([`LifecycleState::same_kind`]), so the transition
//! table stays a finite, exactly-enumerable relation: every
//! `Relocating(target)` value behaves identically under the table, and the
//! ALL×ALL property test remains exhaustive over representatives.

/// Identity of one node (one reconfigurable chip plus its agent) in a
/// cluster. A single-node deployment is node `n0` ([`NodeId::local`]); ids
/// are dense indices into the cluster's node table, assigned at
/// construction and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// The node's index in the cluster's node table.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs an id from its node-table index.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index)
    }

    /// The id every single-node deployment uses (`n0`).
    pub fn local() -> NodeId {
        NodeId(0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Where a relocating tenant is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RelocationTarget {
    /// An on-chip reshape: the tenant stays on its node but its core
    /// reservation is being regrown or shrunk (the PR-2 churn path).
    Local,
    /// A cross-node move: the tenant is in flight to this node.
    Node(NodeId),
    /// Evacuated off a failed node with no destination yet: the cluster
    /// parks the tenant in its displaced queue and retries placement with
    /// bounded, quantum-counted backoff until capacity returns.
    Displaced,
}

impl std::fmt::Display for RelocationTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelocationTarget::Local => write!(f, "local"),
            RelocationTarget::Node(node) => write!(f, "{node}"),
            RelocationTarget::Displaced => write!(f, "displaced"),
        }
    }
}

/// The states a tenant moves through, from registration to retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LifecycleState {
    /// Registration received, admission not yet decided.
    Registering,
    /// Admission control accepted the tenant; it has not run a quantum yet.
    Admitted,
    /// The tenant is live and its quanta are deciding cleanly.
    Running,
    /// The most recent quantum served this tenant from the degradation
    /// ladder (last-good replay, safe mode, or an open breaker).
    Degraded,
    /// The tenant's resources are being reshaped: an on-chip core
    /// reservation change ([`RelocationTarget::Local`]) or a cross-node
    /// move carrying its destination ([`RelocationTarget::Node`]).
    Relocating(RelocationTarget),
    /// Deregistration accepted; the tenant finishes its current slice and
    /// releases its resources.
    Draining,
    /// Terminal: resources released, matrix rows retired. Also the terminal
    /// state of a rejected registration.
    Retired,
}

impl LifecycleState {
    /// Every state kind, in declaration order (used by the property tests
    /// to enumerate the full transition relation). `Relocating` appears as
    /// its [`RelocationTarget::Local`] representative: the table is
    /// target-agnostic, so one representative per kind is exhaustive.
    pub const ALL: [LifecycleState; 7] = [
        LifecycleState::Registering,
        LifecycleState::Admitted,
        LifecycleState::Running,
        LifecycleState::Degraded,
        LifecycleState::Relocating(RelocationTarget::Local),
        LifecycleState::Draining,
        LifecycleState::Retired,
    ];

    /// The state kinds legally reachable in one transition from `self`
    /// (representatives, as in [`LifecycleState::ALL`]). This table *is*
    /// the specification; [`TenantLifecycle::transition`] consults nothing
    /// else. Legality is decided by [`LifecycleState::same_kind`], so every
    /// `Relocating(target)` shares one row and one entry.
    pub fn successors(self) -> &'static [LifecycleState] {
        use LifecycleState::*;
        const RELOCATING: LifecycleState = Relocating(RelocationTarget::Local);
        match self {
            // Admission either accepts or permanently rejects.
            Registering => &[Admitted, Retired],
            // An admitted tenant starts running, or is deregistered before
            // its first quantum.
            Admitted => &[Running, Draining],
            Running => &[Degraded, RELOCATING, Draining],
            Degraded => &[Running, RELOCATING, Draining],
            Relocating(_) => &[Running, Degraded, Draining],
            Draining => &[Retired],
            Retired => &[],
        }
    }

    /// Whether `self` and `other` are the same state *kind* — equal up to
    /// the relocation target. The transition table is defined over kinds.
    pub fn same_kind(self, other: LifecycleState) -> bool {
        std::mem::discriminant(&self) == std::mem::discriminant(&other)
    }

    /// Whether `self → to` is a legal transition (target-agnostic: any
    /// relocation target is admissible where the table lists `Relocating`).
    pub fn can_transition(self, to: LifecycleState) -> bool {
        self.successors().iter().any(|s| s.same_kind(to))
    }

    /// The relocation destination, when the tenant is mid-move to another
    /// node (`None` for every other state, including local reshapes).
    pub fn relocation_target(self) -> Option<NodeId> {
        match self {
            LifecycleState::Relocating(RelocationTarget::Node(node)) => Some(node),
            _ => None,
        }
    }

    /// Whether the tenant still holds resources the quantum must plan for.
    pub fn is_live(self) -> bool {
        matches!(
            self,
            LifecycleState::Running | LifecycleState::Degraded | LifecycleState::Relocating(_)
        )
    }

    /// Whether the state is terminal.
    pub fn is_terminal(self) -> bool {
        self == LifecycleState::Retired
    }

    /// The state's stable lower-case name (used in metrics and JSON).
    pub fn name(self) -> &'static str {
        match self {
            LifecycleState::Registering => "registering",
            LifecycleState::Admitted => "admitted",
            LifecycleState::Running => "running",
            LifecycleState::Degraded => "degraded",
            LifecycleState::Relocating(_) => "relocating",
            LifecycleState::Draining => "draining",
            LifecycleState::Retired => "retired",
        }
    }
}

/// An attempted transition that the state machine forbids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleError {
    /// The state the tenant was in.
    pub from: LifecycleState,
    /// The state the caller tried to move it to.
    pub to: LifecycleState,
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "illegal lifecycle transition {} -> {}",
            self.from.name(),
            self.to.name()
        )
    }
}

impl std::error::Error for LifecycleError {}

/// One tenant's lifecycle: the current state plus a transition count (the
/// count feeds the service's per-tenant metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLifecycle {
    state: LifecycleState,
    transitions: usize,
}

impl TenantLifecycle {
    /// A fresh lifecycle in [`LifecycleState::Registering`].
    pub fn new() -> TenantLifecycle {
        TenantLifecycle {
            state: LifecycleState::Registering,
            transitions: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> LifecycleState {
        self.state
    }

    /// Transitions taken so far.
    pub fn transitions(&self) -> usize {
        self.transitions
    }

    /// Moves to `to` if the transition is legal.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError`] — and leaves the state untouched — when
    /// `state() → to` is not in the transition table.
    pub fn transition(&mut self, to: LifecycleState) -> Result<(), LifecycleError> {
        if !self.state.can_transition(to) {
            return Err(LifecycleError {
                from: self.state,
                to,
            });
        }
        self.state = to;
        self.transitions += 1;
        Ok(())
    }
}

impl Default for TenantLifecycle {
    fn default() -> TenantLifecycle {
        TenantLifecycle::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use LifecycleState::*;

    #[test]
    fn the_happy_path_reaches_retired() {
        let mut lc = TenantLifecycle::new();
        for to in [Admitted, Running, Degraded, Running, Draining, Retired] {
            lc.transition(to).expect("legal step");
        }
        assert_eq!(lc.state(), Retired);
        assert_eq!(lc.transitions(), 6);
    }

    #[test]
    fn rejected_admission_is_terminal() {
        let mut lc = TenantLifecycle::new();
        lc.transition(Retired).expect("rejection is legal");
        assert!(lc.state().is_terminal());
        for to in LifecycleState::ALL {
            assert!(lc.transition(to).is_err(), "retired must be terminal");
        }
    }

    #[test]
    fn illegal_transitions_are_errors_and_do_not_move_the_state() {
        let mut lc = TenantLifecycle::new();
        let err = lc.transition(Running).unwrap_err();
        assert_eq!(
            err,
            LifecycleError {
                from: Registering,
                to: Running
            }
        );
        assert_eq!(lc.state(), Registering, "failed transition must not move");
        assert_eq!(lc.transitions(), 0);
    }

    /// The exhaustive property the module docs promise: the `successors`
    /// table is the whole specification. Every pair in `ALL × ALL` behaves
    /// exactly as the table says, every state is reachable from
    /// Registering, and from every non-terminal state some legal path
    /// reaches Retired (no tenant can get stuck holding resources).
    #[test]
    fn the_transition_relation_is_exactly_the_table_and_always_drains() {
        // transition() succeeds iff the table lists the successor — and a
        // failure never moves the state.
        for from in LifecycleState::ALL {
            for to in LifecycleState::ALL {
                let mut lc = TenantLifecycle {
                    state: from,
                    transitions: 0,
                };
                let legal = from.successors().contains(&to);
                assert_eq!(from.can_transition(to), legal, "{from:?} -> {to:?}");
                match lc.transition(to) {
                    Ok(()) => {
                        assert!(legal, "{from:?} -> {to:?} accepted off-table");
                        assert_eq!(lc.state(), to);
                    }
                    Err(e) => {
                        assert!(!legal, "{from:?} -> {to:?} rejected on-table");
                        assert_eq!((e.from, e.to), (from, to));
                        assert_eq!(lc.state(), from, "hard error must not move");
                    }
                }
            }
        }

        // Breadth-first closure from Registering covers every state.
        let reachable_from = |start: LifecycleState| {
            let mut seen = vec![start];
            let mut frontier = vec![start];
            while let Some(s) = frontier.pop() {
                for &next in s.successors() {
                    if !seen.contains(&next) {
                        seen.push(next);
                        frontier.push(next);
                    }
                }
            }
            seen
        };
        let from_registering = reachable_from(Registering);
        for s in LifecycleState::ALL {
            assert!(from_registering.contains(&s), "{s:?} unreachable");
        }

        // Every legal path can be extended to Retired; only Retired and the
        // live/terminal predicates agree with the table's structure.
        for s in LifecycleState::ALL {
            assert!(reachable_from(s).contains(&Retired), "{s:?} cannot drain");
            assert_eq!(s.successors().is_empty(), s.is_terminal(), "{s:?}");
        }
    }

    /// Every relocation target behaves identically under the table: the
    /// representative in `ALL` speaks for the whole family, which is what
    /// keeps the ALL×ALL enumeration above exact.
    #[test]
    fn relocation_targets_share_the_representative_row() {
        let targets = [
            RelocationTarget::Local,
            RelocationTarget::Node(NodeId::local()),
            RelocationTarget::Node(NodeId::from_index(63)),
            RelocationTarget::Displaced,
        ];
        for target in targets {
            let state = Relocating(target);
            assert!(state.same_kind(Relocating(RelocationTarget::Local)));
            assert_eq!(
                state.successors(),
                Relocating(RelocationTarget::Local).successors(),
                "{target}"
            );
            assert!(Running.can_transition(state), "{target}");
            assert!(Degraded.can_transition(state), "{target}");
            assert!(state.can_transition(Draining), "{target}");
            assert!(state.is_live(), "{target}");
            assert_eq!(state.name(), "relocating");
            // A retarget is not a transition: Relocating -> Relocating is
            // off-table regardless of the targets involved.
            let mut lc = TenantLifecycle {
                state,
                transitions: 0,
            };
            assert!(lc
                .transition(Relocating(RelocationTarget::Node(NodeId::from_index(9))))
                .is_err());
        }
        assert_eq!(
            Relocating(RelocationTarget::Node(NodeId::from_index(5))).relocation_target(),
            Some(NodeId::from_index(5))
        );
        assert_eq!(
            Relocating(RelocationTarget::Local).relocation_target(),
            None
        );
        assert_eq!(Running.relocation_target(), None);
        assert_eq!(format!("{}", NodeId::from_index(3)), "n3");
    }
}
