//! GOOD: every variant named — adding one breaks the build at this
//! consumer and forces a decision. Wildcards over non-event enums stay
//! out of the rule's scope.

pub enum ControlEvent {
    Lifecycle,
    Breaker,
    Shed,
}

pub fn count_breakers(events: &[ControlEvent]) -> usize {
    let mut n = 0;
    for e in events {
        match e {
            ControlEvent::Breaker => n += 1,
            ControlEvent::Lifecycle => {}
            ControlEvent::Shed => {}
        }
    }
    n
}

pub fn is_even(n: usize) -> bool {
    // A wildcard over a non-event scrutinee is fine.
    match n % 2 {
        0 => true,
        _ => false,
    }
}

pub fn event_for(n: usize) -> ControlEvent {
    // Arm bodies that build events do not make a match over a number one
    // over events: the binding arm here is fine.
    match n {
        0 => ControlEvent::Lifecycle,
        other => {
            if other % 2 == 0 {
                ControlEvent::Shed
            } else {
                ControlEvent::Breaker
            }
        }
    }
}
