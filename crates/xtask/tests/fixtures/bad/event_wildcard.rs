//! BAD (EVT-EXHAUSTIVE): catch-all arms (`_`, a bare binding) and `matches!`
//! over event enums. A variant added later compiles, flows, and silently
//! vanishes from the artifacts this consumer should have changed.

pub enum ControlEvent {
    Lifecycle,
    Breaker,
    Shed { slice: usize },
}

pub fn count_breakers(events: &[ControlEvent]) -> usize {
    let mut n = 0;
    for e in events {
        match e {
            ControlEvent::Breaker => n += 1,
            _ => {}
        }
    }
    n
}

pub fn any_shed(events: &[ControlEvent]) -> bool {
    events.iter().any(|e| matches!(e, ControlEvent::Shed { .. }))
}

pub fn label(e: &ControlEvent) -> String {
    match e {
        ControlEvent::Shed { slice } => if *slice == 0 {
            "shed at start".to_string()
        } else {
            format!("shed at {slice}")
        }
        other => fallback_label(other),
    }
}
