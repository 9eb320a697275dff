//! A bounded broadcast bus: one publisher, many subscribers, drop-oldest.
//!
//! The control plane publishes lifecycle, breaker, and degradation events
//! from whichever thread holds its turn — a thread that runs decision
//! quanta. The one invariant that matters more than delivery is therefore:
//! **publishing never blocks**. A slow or stalled subscriber must not be able to stretch
//! a 100 ms quantum.
//!
//! The design is a sequence-numbered ring: the bus keeps the last
//! `capacity` events and a monotone next-sequence counter. Publishing
//! appends and, at capacity, overwrites the oldest event — O(1), lock held
//! for a push, no waiting on consumers. Each [`Subscriber`] remembers the
//! next sequence number it wants; when the ring has already overwritten it,
//! the subscriber *observably* lags: its next receive returns
//! [`Received::Lagged`] with the exact number of events it missed, then
//! resumes from the oldest retained event. Losing events silently and
//! blocking the producer are both bugs; losing them *loudly* is the
//! contract.
//!
//! The bus is deliberately primitive-free beyond `Mutex` + `Condvar`; the
//! stress tests in the root package's `tests/concurrency.rs` drive real
//! publishers and subscribers through randomized interleavings and check
//! the accounting invariant: `received + lagged == published` for every
//! subscriber that drains to close.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// What a subscriber gets from one receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Received<T> {
    /// The next event in sequence.
    Event(T),
    /// The subscriber fell behind and the ring overwrote `missed` events;
    /// the next receive resumes from the oldest retained event.
    Lagged(u64),
}

/// The bus is closed and fully drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl std::fmt::Display for Closed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bus closed")
    }
}

impl std::error::Error for Closed {}

struct State<T> {
    ring: VecDeque<T>,
    /// Sequence number of `ring[0]`.
    first_seq: u64,
    /// Sequence number the next published event will take.
    next_seq: u64,
    /// Total events overwritten before any subscriber saw the slot expire
    /// (the `bus_overwrites_total` metric).
    overwrites: u64,
    closed: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
}

/// The publishing handle. Clone freely; all clones share one ring.
pub struct Bus<T> {
    shared: Arc<Shared<T>>,
    capacity: usize,
}

impl<T> Clone for Bus<T> {
    fn clone(&self) -> Bus<T> {
        Bus {
            shared: Arc::clone(&self.shared),
            capacity: self.capacity,
        }
    }
}

impl<T: Clone> Bus<T> {
    /// A bus retaining at most `capacity` undelivered events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Bus<T> {
        assert!(capacity > 0, "a zero-capacity bus could never deliver");
        Bus {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    ring: VecDeque::with_capacity(capacity),
                    first_seq: 0,
                    next_seq: 0,
                    overwrites: 0,
                    closed: false,
                }),
                cond: Condvar::new(),
            }),
            capacity,
        }
    }

    /// Publishes an event. Never blocks: at capacity the oldest retained
    /// event is overwritten (subscribers behind it will observe the lag).
    /// Publishing on a closed bus is a no-op.
    // Mutex poisoning means a panicked holder; propagating the panic to the
    // publisher is the correct response.
    #[allow(clippy::unwrap_used)]
    pub fn publish(&self, event: T) {
        let mut s = self.shared.state.lock().unwrap();
        if s.closed {
            return;
        }
        if s.ring.len() == self.capacity {
            s.ring.pop_front();
            s.first_seq += 1;
            s.overwrites += 1;
        }
        s.ring.push_back(event);
        s.next_seq += 1;
        drop(s);
        self.shared.cond.notify_all();
    }

    /// A new subscriber, seeing only events published after this call.
    // See `publish` on poisoning.
    #[allow(clippy::unwrap_used)]
    pub fn subscribe(&self) -> Subscriber<T> {
        let s = self.shared.state.lock().unwrap();
        Subscriber {
            shared: Arc::clone(&self.shared),
            next: s.next_seq,
        }
    }

    /// Closes the bus: publishes stop, subscribers drain what is retained
    /// and then see [`Closed`].
    // See `publish` on poisoning.
    #[allow(clippy::unwrap_used)]
    pub fn close(&self) {
        let mut s = self.shared.state.lock().unwrap();
        s.closed = true;
        drop(s);
        self.shared.cond.notify_all();
    }

    /// Total ring slots overwritten before delivery, across all time.
    // See `publish` on poisoning.
    #[allow(clippy::unwrap_used)]
    pub fn overwrites(&self) -> u64 {
        self.shared.state.lock().unwrap().overwrites
    }
}

/// One subscriber's cursor into the ring.
pub struct Subscriber<T> {
    shared: Arc<Shared<T>>,
    next: u64,
}

impl<T: Clone> Subscriber<T> {
    fn poll(next: &mut u64, s: &State<T>) -> Option<Received<T>> {
        if *next < s.first_seq {
            let missed = s.first_seq - *next;
            *next = s.first_seq;
            return Some(Received::Lagged(missed));
        }
        if *next < s.next_seq {
            let idx = (*next - s.first_seq) as usize;
            let event = s.ring[idx].clone();
            *next += 1;
            return Some(Received::Event(event));
        }
        None
    }

    /// Blocks for the next event (or lag notice).
    ///
    /// # Errors
    ///
    /// Returns [`Closed`] once the bus is closed and this subscriber has
    /// drained everything it can still see.
    // See `Bus::publish` on poisoning.
    #[allow(clippy::unwrap_used)]
    pub fn recv(&mut self) -> Result<Received<T>, Closed> {
        let mut s = self.shared.state.lock().unwrap();
        loop {
            if let Some(got) = Self::poll(&mut self.next, &s) {
                return Ok(got);
            }
            if s.closed {
                return Err(Closed);
            }
            s = self.shared.cond.wait(s).unwrap();
        }
    }

    /// Non-blocking receive: `Ok(None)` when nothing is pending.
    ///
    /// # Errors
    ///
    /// Returns [`Closed`] once the bus is closed and drained.
    // See `Bus::publish` on poisoning.
    #[allow(clippy::unwrap_used)]
    pub fn try_recv(&mut self) -> Result<Option<Received<T>>, Closed> {
        let s = self.shared.state.lock().unwrap();
        match Self::poll(&mut self.next, &s) {
            Some(got) => Ok(Some(got)),
            None if s.closed => Err(Closed),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_order() {
        let bus = Bus::new(8);
        let mut sub = bus.subscribe();
        for i in 0..3 {
            bus.publish(i);
        }
        for i in 0..3 {
            assert_eq!(sub.recv().unwrap(), Received::Event(i));
        }
        assert_eq!(sub.try_recv().unwrap(), None);
    }

    #[test]
    fn lagged_subscribers_observe_the_exact_drop_count() {
        let bus = Bus::new(2);
        let mut sub = bus.subscribe();
        for i in 0..5 {
            bus.publish(i);
        }
        // Ring holds [3, 4]; events 0..3 were overwritten.
        assert_eq!(sub.recv().unwrap(), Received::Lagged(3));
        assert_eq!(sub.recv().unwrap(), Received::Event(3));
        assert_eq!(sub.recv().unwrap(), Received::Event(4));
        assert_eq!(bus.overwrites(), 3);
    }

    #[test]
    fn subscribe_sees_only_the_future() {
        let bus = Bus::new(8);
        bus.publish(1);
        let mut sub = bus.subscribe();
        bus.publish(2);
        assert_eq!(sub.recv().unwrap(), Received::Event(2));
    }

    #[test]
    fn close_drains_then_errors() {
        let bus = Bus::new(8);
        let mut sub = bus.subscribe();
        bus.publish(7);
        bus.close();
        assert_eq!(sub.recv().unwrap(), Received::Event(7));
        assert_eq!(sub.recv(), Err(Closed));
        // Publishing after close is a silent no-op.
        bus.publish(8);
        assert_eq!(sub.try_recv(), Err(Closed));
    }

    #[test]
    fn independent_subscribers_have_independent_cursors() {
        let bus = Bus::new(8);
        let mut a = bus.subscribe();
        let mut b = bus.subscribe();
        bus.publish("x");
        assert_eq!(a.recv().unwrap(), Received::Event("x"));
        assert_eq!(b.recv().unwrap(), Received::Event("x"));
    }
}
