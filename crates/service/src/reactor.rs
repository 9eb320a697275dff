//! The service core: one control plane behind a first-come, first-served
//! turn, served on each caller's own thread — written once, for the single
//! node ([`ControlCore`](cuttlesys::control::ControlCore)) and for the fleet
//! (`ClusterCoordinator` plus its optional worker pool) alike.
//!
//! A sans-io plane is single-threaded by design — admission, lifecycle
//! settling, and the decision quantum all mutate one state machine. Every
//! request is a closure over the plane ([`Handle::call`]): the caller takes
//! a turn, runs the closure on its own thread, drains the events the plane
//! queued onto the [`Bus`], and passes the turn on. Turns are handed out in
//! arrival order (a ticket counter and a `Condvar`), not to whichever thread
//! wins a lock: a caller stepping quanta back to back would otherwise
//! re-take a plain mutex before a waiting scrape wakes, and starve it. So
//! there is one mutator at a time, a total order on events, and a scrape
//! that arrives during a quantum is served right after it. [`Plane`] names
//! only what is done *without* a typed request: draining queued events onto
//! the bus, and the two HTTP documents.
//!
//! The reactor starts no thread: a quantum runs only when a caller steps
//! one, so the service is as deterministic as the plane it wraps. The one
//! thread a service may own is the HTTP acceptor (`http.rs`).
//!
//! Publishing to the bus never blocks, so subscribers cannot stretch a
//! quantum. A request that panics stops the plane: it is dropped, the bus
//! is closed (a subscriber parked in `recv` wakes), and that caller and
//! every later one get [`Stopped`]. Finishing or dropping the handle stops
//! it the same way.

use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::bus::{Bus, Subscriber};
use crate::http::HttpServer;

/// What the service needs from a control plane when no typed request is
/// involved. (Public only because [`Handle`] is generic over it; the module
/// is private, so neither name is reachable from outside the crate.)
pub trait Plane: Send + 'static {
    /// What the plane queues for the bus.
    type Event: Clone + Send + 'static;
    /// Takes every event queued since the previous drain.
    fn drain_events(&mut self) -> Vec<Self::Event>;
    /// The `GET /metrics` body (Prometheus text format).
    fn metrics(&self, bus_overwrites: u64) -> String;
    /// The `GET /state` body (one JSON document).
    fn state_json(&self) -> String;
}

/// The plane is gone (finished, dropped, or stopped by a panicking request):
/// the request was not served. Each facade maps this to its own `Stopped`
/// variant.
#[derive(Debug)]
pub struct Stopped;

/// Events the broadcast bus of a service retains for slow subscribers.
pub(crate) const BUS_CAPACITY: usize = 256;

/// Drains the plane's pending events onto the bus.
fn publish<P: Plane>(plane: &mut P, bus: &Bus<P::Event>) {
    for event in plane.drain_events() {
        bus.publish(event);
    }
}

/// The FIFO turn's ticket counters: a caller draws `issued` and waits until
/// `serving` reaches it.
#[derive(Default)]
struct Tickets {
    issued: u64,
    serving: u64,
}

/// One caller's turn. Dropping it passes the turn to the next ticket.
struct Turn<'a> {
    tickets: &'a Mutex<Tickets>,
    passed: &'a Condvar,
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        lock_tickets(self.tickets).serving += 1;
        self.passed.notify_all();
    }
}

/// Every update of [`Tickets`] is one increment, so a poisoned lock still
/// guards valid counters (and nothing panics while holding it anyway).
fn lock_tickets(tickets: &Mutex<Tickets>) -> MutexGuard<'_, Tickets> {
    tickets.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A control plane shared by its callers: the plane, the FIFO turn that
/// serializes access to it, and the bus its events go to.
pub(crate) struct Shared<P: Plane> {
    tickets: Mutex<Tickets>,
    passed: Condvar,
    /// Locked only by the turn's holder; `None` once the plane stopped.
    plane: Mutex<Option<P>>,
    bus: Bus<P::Event>,
}

impl<P: Plane> Shared<P> {
    fn new(plane: P, bus_capacity: usize) -> Shared<P> {
        Shared {
            tickets: Mutex::new(Tickets::default()),
            passed: Condvar::new(),
            plane: Mutex::new(Some(plane)),
            bus: Bus::new(bus_capacity),
        }
    }

    /// Waits for this caller's turn, in arrival order.
    fn take_turn(&self) -> Turn<'_> {
        let mut tickets = lock_tickets(&self.tickets);
        let mine = tickets.issued;
        tickets.issued += 1;
        let _served = self
            .passed
            .wait_while(tickets, |t| t.serving != mine)
            .unwrap_or_else(PoisonError::into_inner);
        Turn {
            tickets: &self.tickets,
            passed: &self.passed,
        }
    }

    /// Runs `f` on the plane's slot in this caller's turn; `f` returns
    /// `None` when it finds the plane gone. A panic in `f` is caught and
    /// stops the plane: it is dropped and the bus is closed.
    fn turn<T>(
        &self,
        f: impl FnOnce(&mut Option<P>, &Bus<P::Event>) -> Option<T>,
    ) -> Result<T, Stopped> {
        let _turn = self.take_turn();
        // `f` never unwinds through the guard, so the lock is poisoned only
        // if dropping a stopped plane panicked: the plane is gone either way.
        let Ok(mut slot) = self.plane.lock() else {
            return Err(Stopped);
        };
        match catch_unwind(AssertUnwindSafe(|| f(&mut slot, &self.bus))) {
            Ok(served) => served.ok_or(Stopped),
            Err(_) => {
                *slot = None;
                self.bus.close();
                Err(Stopped)
            }
        }
    }

    /// Runs `f` on the plane in this caller's turn, publishes the events it
    /// left pending, and returns its result.
    pub(crate) fn call<T>(&self, f: impl FnOnce(&mut P) -> T) -> Result<T, Stopped> {
        self.turn(|slot, bus| {
            let plane = slot.as_mut()?;
            let result = f(plane);
            publish(plane, bus);
            Some(result)
        })
    }

    /// The `/metrics` document.
    pub(crate) fn scrape(&self) -> Result<String, Stopped> {
        self.call(|plane| plane.metrics(self.bus.overwrites()))
    }

    /// Drops the plane (if it is still there) and closes the bus.
    fn stop(&self) {
        let _ = self.turn(|slot, bus| {
            *slot = None;
            bus.close();
            Some(())
        });
    }
}

/// A running control plane: the shared plane, its event bus and an optional
/// metrics endpoint. [`Service`](crate::Service) and
/// [`ClusterService`](crate::cluster::ClusterService) are this type over
/// their plane, each with its own typed request methods.
///
/// Dropping the handle without a `shutdown` stops the endpoint but discards
/// the run record and skips the tenant drain.
pub struct Handle<P: Plane> {
    shared: Arc<Shared<P>>,
    http: Option<HttpServer>,
}

impl<P: Plane> Handle<P> {
    /// Shares an already-built plane and starts, when an address is given,
    /// the HTTP endpoint.
    pub(crate) fn start(
        plane: P,
        bus_capacity: usize,
        metrics_addr: Option<&str>,
    ) -> io::Result<Handle<P>> {
        let shared = Arc::new(Shared::new(plane, bus_capacity));
        let http = metrics_addr
            .map(|addr| HttpServer::spawn(addr, Arc::clone(&shared)))
            .transpose()?;
        Ok(Handle { shared, http })
    }

    /// Runs `f` on the plane, between quanta, and returns its result.
    pub(crate) fn call<T>(&self, f: impl FnOnce(&mut P) -> T) -> Result<T, Stopped> {
        self.shared.call(f)
    }

    /// The `/metrics` document (what the endpoint serves).
    pub(crate) fn scrape(&self) -> Result<String, Stopped> {
        self.shared.scrape()
    }

    /// In one turn — so no other request can slip in between the drain and
    /// the record — takes the plane, runs `drain` on it, publishes what it
    /// queued, closes the bus, and hands the plane to `record`. Then stops
    /// the endpoint.
    pub(crate) fn finish<T, E>(
        self,
        drain: impl FnOnce(&mut P) -> Result<(), E>,
        record: impl FnOnce(P) -> T,
    ) -> Result<Result<T, E>, Stopped> {
        self.shared.turn(|slot, bus| {
            let mut plane = slot.take()?;
            let drained = drain(&mut plane);
            publish(&mut plane, bus);
            bus.close();
            Some(drained.map(|()| record(plane)))
        })
        // `self` drops here: endpoint stopped.
    }

    /// Subscribes to the plane's events published after this call.
    pub fn subscribe(&self) -> Subscriber<P::Event> {
        self.shared.bus.subscribe()
    }

    /// Events overwritten in the bus ring before delivery.
    pub fn bus_overwrites(&self) -> u64 {
        self.shared.bus.overwrites()
    }

    /// The bound metrics endpoint address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(HttpServer::addr)
    }
}

impl<P: Plane> Drop for Handle<P> {
    fn drop(&mut self) {
        // The endpoint first, so a request it already took finishes, then
        // the plane.
        self.http = None;
        self.shared.stop();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::bus::Closed;
    use crate::ServiceBuilder;
    use cuttlesys::types::Scenario;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::channel;
    use std::sync::Barrier;

    /// A plane that logs which request ran.
    #[derive(Default)]
    struct Log(Vec<&'static str>);

    impl Plane for Log {
        type Event = ();
        fn drain_events(&mut self) -> Vec<()> {
            Vec::new()
        }
        fn metrics(&self, _: u64) -> String {
            String::new()
        }
        fn state_json(&self) -> String {
            String::new()
        }
    }

    /// Callers holding or waiting for the turn.
    fn in_line<P: Plane>(handle: &Handle<P>) -> u64 {
        let tickets = lock_tickets(&handle.shared.tickets);
        tickets.issued - tickets.serving
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the test races two callers for the turn on raw threads"
    )]
    fn a_caller_that_asks_again_waits_behind_one_already_queued() {
        let handle = Handle::start(Log::default(), 8, None).unwrap();
        let (held_tx, held) = channel();
        let (release, release_rx) = channel::<()>();
        std::thread::scope(|s| {
            let handle = &handle;
            let stepper = s.spawn(move || {
                handle
                    .call(|log| {
                        held_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        log.0.push("stepper");
                    })
                    .unwrap();
                // Asks again at once, as a back-to-back stepping loop does.
                handle.call(|log| log.0.push("stepper again")).unwrap();
            });
            held.recv().unwrap();
            let scraper = s.spawn(|| handle.call(|log| log.0.push("scraper")).unwrap());
            while in_line(handle) < 2 {
                std::thread::yield_now();
            }
            release.send(()).unwrap();
            stepper.join().unwrap();
            scraper.join().unwrap();
        });
        let log = handle.call(|log| log.0.clone()).unwrap();
        assert_eq!(log, ["stepper", "scraper", "stepper again"]);
    }

    fn quanta_total(metrics: &str) -> u64 {
        let line = metrics
            .lines()
            .find(|l| l.starts_with("cuttlesys_quanta_total "))
            .expect("the document counts quanta");
        line["cuttlesys_quanta_total ".len()..].parse().unwrap()
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the test scrapes from a raw thread while the test thread steps"
    )]
    fn a_back_to_back_stepper_cannot_starve_a_scraper() {
        const QUANTA: u64 = 300;
        let service = ServiceBuilder::new(&Scenario::quick_demo())
            .start()
            .unwrap();
        let stepped = AtomicBool::new(false);
        let scraped = std::thread::scope(|s| {
            let scraper = s.spawn(|| {
                let mut scraped = Vec::new();
                loop {
                    // Asks only while the stepper holds or waits for the
                    // turn: a stepper descheduled between two quanta holds
                    // no ticket, and a scrape asking then is rightly served
                    // twice in a row.
                    while in_line(&service) == 0 && !stepped.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    let quanta = quanta_total(&service.metrics().unwrap());
                    scraped.push(quanta);
                    if quanta == QUANTA {
                        return scraped;
                    }
                }
            });
            for _ in 0..QUANTA {
                service.step_quantum().unwrap();
            }
            stepped.store(true, Ordering::Release);
            scraper.join().unwrap()
        });
        assert!(
            scraped[0] < QUANTA,
            "the first scrape waited out every quantum"
        );
        assert!(
            scraped.windows(2).all(|w| w[0] < w[1]),
            "a caller took two turns in a row while another waited: {scraped:?}"
        );
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "a subscriber parks in `recv` on a raw thread"
    )]
    fn a_panicking_request_stops_the_plane_and_closes_the_bus() {
        let handle = Handle::start(Log::default(), 8, None).unwrap();
        let mut events = handle.subscribe();
        let subscribed = Barrier::new(2);
        let woke = std::thread::scope(|s| {
            let parked = s.spawn(|| {
                subscribed.wait();
                events.recv()
            });
            subscribed.wait();
            assert!(handle.call::<()>(|_| panic!("a request bug")).is_err());
            parked.join().unwrap()
        });
        assert_eq!(woke, Err(Closed));
        assert!(handle.call(|_| ()).is_err(), "the plane is gone");
        assert!(handle.scrape().is_err());
    }

    #[test]
    fn a_request_runs_on_the_calling_thread() {
        let handle = Handle::start(Log::default(), 8, None).unwrap();
        let ran_on = handle.call(|_| std::thread::current().id()).unwrap();
        assert_eq!(ran_on, std::thread::current().id());
    }
}
