//! Seeded stress tests of the one concurrent primitive the runtime still
//! writes by hand: the broadcast [`service::bus::Bus`].
//!
//! These are stress tests, not model checks: each body runs [`ITERS`] times
//! on real `std` threads with yield points that shuffle the interleaving
//! between iterations. They catch a protocol bug that most interleavings
//! expose; they prove nothing about the ones that did not occur.
//!
//! The compute fan-out needs none: `util::pool::WorkerPool` is a queue
//! drained inside one `std::thread::scope`, with no protocol of its own to
//! shake (its contract is pinned once, by the unit tests in `pool.rs`).
//!
//! The bus hazards (see bus.rs for the design): a subscriber that falls
//! behind a small ring must see `Lagged(missed)` with the *exact* count, so
//! `received + lagged == published` for every subscriber that drains to
//! close; the publisher runs to completion regardless of subscriber
//! progress; concurrent subscribers account independently.

use service::bus::{Bus, Received, Subscriber};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::{yield_now, JoinHandle};
use util::rng64::{splitmix64, GOLDEN_GAMMA};

/// Iterations per stress test.
const ITERS: usize = 256;

/// A seeded coin (SplitMix64 over a process-global counter): yields on
/// roughly half the calls, so the spawn/run interleaving differs from one
/// iteration to the next.
fn maybe_yield() {
    static PERTURB: AtomicU64 = AtomicU64::new(0);
    if splitmix64(PERTURB.fetch_add(GOLDEN_GAMMA, Ordering::Relaxed)).is_multiple_of(2) {
        yield_now();
    }
}

/// Spawns a consumer thread with one perturbation point at startup.
fn spawn_drain(sub: Subscriber<u64>) -> JoinHandle<(u64, u64)> {
    std::thread::spawn(move || {
        maybe_yield();
        drain(sub)
    })
}

/// Drains a subscriber until close; returns (events_received, lag_total)
/// and asserts events arrive in strictly increasing order.
fn drain(mut sub: Subscriber<u64>) -> (u64, u64) {
    let mut received = 0u64;
    let mut lagged = 0u64;
    let mut last: Option<u64> = None;
    loop {
        match sub.recv() {
            Ok(Received::Event(v)) => {
                if let Some(prev) = last {
                    assert!(v > prev, "out of order: {prev} then {v}");
                }
                last = Some(v);
                received += 1;
            }
            Ok(Received::Lagged(n)) => lagged += n,
            Err(_closed) => return (received, lagged),
        }
    }
}

#[test]
fn every_event_is_received_or_accounted_as_lag() {
    for _ in 0..ITERS {
        // Capacity 2 against 6 events forces real overwrites in most
        // interleavings; the accounting must hold in all of them.
        let published = 6u64;
        let bus: Bus<u64> = Bus::new(2);
        let consumer = spawn_drain(bus.subscribe());
        for i in 0..published {
            bus.publish(i);
            yield_now();
        }
        bus.close();
        let (received, lagged) = consumer.join().unwrap();
        assert_eq!(
            received + lagged,
            published,
            "every published event is delivered or counted as lag"
        );
        // A subscriber can only miss events the ring actually overwrote.
        assert!(lagged <= bus.overwrites());
    }
}

#[test]
fn concurrent_subscribers_account_independently() {
    for _ in 0..ITERS {
        let published = 4u64;
        let bus: Bus<u64> = Bus::new(2);
        let consumers = [bus.subscribe(), bus.subscribe()].map(spawn_drain);
        for i in 0..published {
            bus.publish(i);
        }
        bus.close();
        for consumer in consumers {
            let (received, lagged) = consumer.join().unwrap();
            assert_eq!(received + lagged, published);
        }
    }
}

#[test]
fn publisher_never_blocks_on_a_stalled_subscriber() {
    let bus: Bus<u64> = Bus::new(1);
    // This subscriber never receives; the publisher must still finish.
    let stalled = bus.subscribe();
    for i in 0..8 {
        bus.publish(i);
    }
    bus.close();
    // The stalled subscriber still accounts for the full stream.
    let (received, lagged) = drain(stalled);
    assert_eq!(received + lagged, 8);
    assert!(received <= 1, "capacity-1 ring retains at most one event");
}
