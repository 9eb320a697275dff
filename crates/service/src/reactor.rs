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
//! only what is done *without* a typed request: the paced tick, draining
//! queued events onto the bus, and the two HTTP documents.
//!
//! Pacing:
//!
//! * [`Pacing::Manual`] — no thread: quanta run only when a caller steps
//!   one. Fully deterministic; the mode every test, replay, and benchmark
//!   uses.
//! * [`Pacing::Interval`] — one ticker thread parks until the next deadline
//!   (`Ticker::remaining`), then takes a turn like any other caller and runs
//!   [`Plane::tick`].
//!
//! Publishing to the bus never blocks, so subscribers cannot stretch a
//! quantum. A request that panics, and a paced quantum that fails, stop the
//! plane: it is dropped, the bus is closed (a subscriber parked in `recv`
//! wakes), and that caller and every later one get [`Stopped`]. Finishing
//! or dropping the handle stops it the same way.
//!
//! This file (with `http.rs`) is the service's thread boundary: each
//! carries one `#[allow(clippy::disallowed_methods)]` over the thread ban
//! in `crates/clippy.toml`.

use std::fmt::Display;
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::bus::{Bus, Subscriber};
use crate::http::HttpServer;
use crate::pacing::{Pacing, Ticker};

/// What the service needs from a control plane when no typed request is
/// involved. (Public only because [`Handle`] is generic over it; the module
/// is private, so neither name is reachable from outside the crate.)
pub trait Plane: Send + 'static {
    /// What the plane queues for the bus.
    type Event: Clone + Send + 'static;
    /// Why a paced quantum can fail.
    type Error: Display;
    /// Runs one paced decision quantum.
    fn tick(&mut self) -> Result<(), Self::Error>;
    /// Takes every event queued since the previous drain.
    fn drain_events(&mut self) -> Vec<Self::Event>;
    /// The `GET /metrics` body (Prometheus text format).
    fn metrics(&self, bus_overwrites: u64) -> String;
    /// The `GET /state` body (one JSON document).
    fn state_json(&self) -> String;
}

/// The plane is gone (finished, dropped, or stopped by a panicking request
/// or a failed paced quantum): the request was not served. Each facade maps
/// this to its own `Stopped` variant.
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

    /// One paced quantum.
    fn tick(&self) -> Result<(), Stopped> {
        self.turn(|slot, bus| {
            let plane = slot.as_mut()?;
            let ticked = plane.tick();
            publish(plane, bus);
            if let Err(e) = ticked {
                // A stepping error is a control-plane logic bug (illegal
                // lifecycle transitions are hard errors by contract) and in
                // interval mode there is no caller to hand it to; the turn
                // catches the panic and stops the plane.
                panic!("paced quantum failed: {e}");
            }
            Some(())
        })
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

/// The [`Pacing::Interval`] ticker thread and its stop flag.
struct Pacer {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Pacer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

/// The ticker thread's loop: park until the next quantum is due (or the
/// pacer's drop unparks it), then run the quantum in a turn.
fn pace<P: Plane>(shared: &Shared<P>, period: Duration, stop: &AtomicBool) {
    let mut ticker = Ticker::new(period);
    while !stop.load(Ordering::Acquire) {
        if !ticker.due() {
            std::thread::park_timeout(ticker.remaining());
            continue;
        }
        if shared.tick().is_err() {
            return;
        }
        ticker.advance();
    }
}

/// A running control plane: the shared plane, its event bus, an optional
/// metrics endpoint and, under [`Pacing::Interval`], the ticker thread.
/// [`Service`](crate::Service) and
/// [`ClusterService`](crate::cluster::ClusterService) are this type over
/// their plane, each with its own typed request methods.
///
/// Dropping the handle without a `shutdown` stops the threads but discards
/// the run record and skips the tenant drain.
pub struct Handle<P: Plane> {
    shared: Arc<Shared<P>>,
    http: Option<HttpServer>,
    pacer: Option<Pacer>,
}

impl<P: Plane> Handle<P> {
    /// Shares an already-built plane and starts, when an address is given,
    /// the HTTP endpoint and, under [`Pacing::Interval`], the ticker.
    // Thread spawning can only fail on OS resource exhaustion, at which point
    // the service cannot exist; surfacing the panic is correct.
    #[allow(clippy::expect_used)]
    #[allow(
        clippy::disallowed_methods,
        reason = "the interval ticker is one of the service's two long-lived threads; it only decides *when* a quantum runs, and fan-out below it goes through `util::pool::WorkerPool`"
    )]
    pub(crate) fn start(
        plane: P,
        pacing: Pacing,
        bus_capacity: usize,
        metrics_addr: Option<&str>,
    ) -> io::Result<Handle<P>> {
        let shared = Arc::new(Shared::new(plane, bus_capacity));
        let http = metrics_addr
            .map(|addr| HttpServer::spawn(addr, Arc::clone(&shared)))
            .transpose()?;
        let pacer = match pacing {
            Pacing::Manual => None,
            Pacing::Interval(period) => {
                let stop = Arc::new(AtomicBool::new(false));
                let (plane, flag) = (Arc::clone(&shared), Arc::clone(&stop));
                let thread = std::thread::Builder::new()
                    .name("cuttlesys-ticker".into())
                    .spawn(move || pace(&plane, period, &flag))
                    .expect("spawn the ticker thread");
                Some(Pacer {
                    stop,
                    thread: Some(thread),
                })
            }
        };
        Ok(Handle {
            shared,
            http,
            pacer,
        })
    }

    /// Runs `f` on the plane, between quanta, and returns its result.
    pub(crate) fn call<T>(&self, f: impl FnOnce(&mut P) -> T) -> Result<T, Stopped> {
        self.shared.call(f)
    }

    /// The `/metrics` document (what the endpoint serves).
    pub(crate) fn scrape(&self) -> Result<String, Stopped> {
        self.shared.scrape()
    }

    /// In one turn — so no paced quantum can slip in between the drain and
    /// the record — takes the plane, runs `drain` on it, publishes what it
    /// queued, closes the bus, and hands the plane to `record`. Then stops
    /// the threads.
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
        // `self` drops here: endpoint and ticker stopped.
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
        // The threads first, so a request they already took finishes, then
        // the plane.
        self.http = None;
        self.pacer = None;
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
    use std::sync::mpsc::channel;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    /// A plane whose every paced quantum fails.
    struct Failing;

    impl Plane for Failing {
        type Event = ();
        type Error = &'static str;
        fn tick(&mut self) -> Result<(), &'static str> {
            Err("settle failed")
        }
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

    #[test]
    fn a_failed_paced_quantum_closes_the_bus_and_stops_the_handle() {
        let pacing = Pacing::Interval(Duration::from_millis(1));
        let handle = Handle::start(Failing, pacing, 8, None).unwrap();
        // Parks until the reactor thread unwinds out of its first quantum;
        // without the close-on-exit guard this never returns.
        assert_eq!(handle.subscribe().recv(), Err(Closed));
        assert!(handle.call(|_| ()).is_err(), "the reactor is gone");
        assert!(handle.scrape().is_err());
    }

    /// A plane that logs which request ran.
    #[derive(Default)]
    struct Log(Vec<&'static str>);

    impl Plane for Log {
        type Event = ();
        type Error = &'static str;
        fn tick(&mut self) -> Result<(), &'static str> {
            Ok(())
        }
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
        let handle = Handle::start(Log::default(), Pacing::Manual, 8, None).unwrap();
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
        let handle = Handle::start(Log::default(), Pacing::Manual, 8, None).unwrap();
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
    #[allow(
        clippy::disallowed_methods,
        reason = "the drop is timed against the wall clock"
    )]
    fn an_interval_service_drops_without_waiting_out_its_period() {
        let period = Duration::from_secs(5);
        let handle = Handle::start(Log::default(), Pacing::Interval(period), 8, None).unwrap();
        let started = Instant::now();
        drop(handle);
        assert!(started.elapsed() < Duration::from_secs(1));
    }
}
