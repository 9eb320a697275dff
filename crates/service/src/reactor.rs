//! The reactor: one thread that owns a control plane and serializes every
//! request through a bounded job channel — written once, for the single
//! node ([`ControlCore`](cuttlesys::control::ControlCore)) and for the fleet
//! (`ClusterCoordinator` plus its optional worker pool) alike.
//!
//! A sans-io plane is single-threaded by design — admission, lifecycle
//! settling, and the decision quantum all mutate one state machine. Rather
//! than wrap it in a lock (and let a slow scrape stall a quantum waiting
//! for the mutex), the service runs it on a dedicated reactor thread.
//! Everything a caller asks for arrives as a boxed closure over the plane
//! ([`Handle::call`]) carrying its own rendezvous reply; [`Plane`] names
//! only what the reactor does *without* a caller: the paced tick, draining
//! queued events onto the [`Bus`], and the two HTTP documents. The channel
//! bound ([`COMMAND_QUEUE_DEPTH`]) is the service's backpressure: callers
//! that outrun the reactor block in `send`, they do not grow an unbounded
//! queue.
//!
//! Pacing:
//!
//! * [`Pacing::Manual`] — the reactor blocks on the channel and quanta run
//!   only when a caller's job steps one. Fully deterministic; the mode
//!   every test, replay, and benchmark uses.
//! * [`Pacing::Interval`] — the reactor waits with
//!   `recv_timeout(ticker.remaining())`, so jobs are served between quanta
//!   and [`Plane::tick`] fires whenever the deadline arrives.
//!
//! After every job and every tick the reactor drains the plane's pending
//! events onto the bus — which never blocks, so subscribers cannot stretch
//! a quantum — and only then sends the job's reply. The bus is closed by a
//! drop guard, so it closes on *every* exit: shutdown, the last handle
//! dropping, or the reactor thread unwinding.
//!
//! This file (with `http.rs`) is the service's thread boundary: each
//! carries one `#[allow(clippy::disallowed_methods)]` over the thread ban
//! in `crates/clippy.toml`.

use std::fmt::Display;
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::thread::JoinHandle;

use crate::bus::{Bus, Subscriber};
use crate::http::HttpServer;
use crate::pacing::{Pacing, Ticker};

/// What the reactor needs from a control plane when no caller is involved.
/// (Public only because [`Handle`] is generic over it; the module is
/// private, so neither name is reachable from outside the crate.)
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

/// The reactor is gone (shut down, or its thread panicked): the request
/// was not served. Each facade maps this to its own `Stopped` variant.
pub struct Stopped;

/// What the channel carries: a closure that takes the plane, publishes the
/// events it left pending, sends its own reply, and hands the plane back —
/// except the one finishing job, which keeps it; the reactor then exits.
pub(crate) type Job<P> = Box<dyn FnOnce(P, &Bus<<P as Plane>::Event>) -> Option<P> + Send>;

/// Jobs the channel buffers before `send` blocks the caller.
const COMMAND_QUEUE_DEPTH: usize = 64;

/// Events the broadcast bus of a service retains for slow subscribers.
pub(crate) const BUS_CAPACITY: usize = 256;

/// Drains the plane's pending events onto the bus.
fn publish<P: Plane>(plane: &mut P, bus: &Bus<P::Event>) {
    for event in plane.drain_events() {
        bus.publish(event);
    }
}

/// Sends the job `make` builds around a reply channel and waits for the
/// reply. A reactor that exits drops the queued job, and the reply sender
/// with it, so a caller never waits on a dead reactor.
fn rendezvous<P: Plane, T>(
    jobs: &SyncSender<Job<P>>,
    make: impl FnOnce(SyncSender<T>) -> Job<P>,
) -> Result<T, Stopped> {
    let (reply_tx, reply_rx) = sync_channel(1);
    jobs.send(make(reply_tx)).map_err(|_| Stopped)?;
    reply_rx.recv().map_err(|_| Stopped)
}

/// Runs `f` on the plane, on the reactor thread, and returns its result.
pub(crate) fn call<P: Plane, T: Send + 'static>(
    jobs: &SyncSender<Job<P>>,
    f: impl FnOnce(&mut P) -> T + Send + 'static,
) -> Result<T, Stopped> {
    rendezvous(jobs, |reply| {
        Box::new(move |mut plane, bus| {
            let result = f(&mut plane);
            publish(&mut plane, bus);
            let _ = reply.send(result);
            Some(plane)
        })
    })
}

/// The `/metrics` document, rendered on the reactor thread.
pub(crate) fn scrape<P: Plane>(
    jobs: &SyncSender<Job<P>>,
    bus: &Bus<P::Event>,
) -> Result<String, Stopped> {
    let overwrites = bus.overwrites();
    call(jobs, move |plane| plane.metrics(overwrites))
}

/// Closes the bus when the reactor leaves [`run`], however it leaves: a
/// subscriber parked in `recv` must wake even if the thread is unwinding.
struct CloseOnExit<'a, T: Clone>(&'a Bus<T>);

impl<T: Clone> Drop for CloseOnExit<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

fn run<P: Plane>(mut plane: P, pacing: Pacing, bus: &Bus<P::Event>, rx: &Receiver<Job<P>>) {
    let _close = CloseOnExit(bus);
    let mut ticker = match pacing {
        Pacing::Manual => None,
        Pacing::Interval(period) => Some(Ticker::new(period)),
    };
    loop {
        let job = match ticker.as_mut() {
            // Every handle dropped without a shutdown: the run record is
            // unreachable now, but subscribers still get a clean close.
            None => match rx.recv() {
                Ok(job) => job,
                Err(_) => return,
            },
            Some(t) => {
                if t.due() {
                    let ticked = plane.tick();
                    publish(&mut plane, bus);
                    if let Err(e) = ticked {
                        // A stepping error is a control-plane logic bug
                        // (illegal lifecycle transitions are hard errors by
                        // contract) and in interval mode there is no caller
                        // to hand it to.
                        panic!("paced quantum failed: {e}");
                    }
                    t.advance();
                    continue;
                }
                match rx.recv_timeout(t.remaining()) {
                    Ok(job) => job,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        };
        plane = match job(plane, bus) {
            Some(plane) => plane,
            None => return,
        };
    }
}

/// A running control plane: reactor thread, event bus, optional metrics
/// endpoint. [`Service`](crate::Service) and
/// [`ClusterService`](crate::cluster::ClusterService) are this type over
/// their plane, each with its own typed request methods.
///
/// Dropping the handle without a `shutdown` stops the threads but discards
/// the run record and skips the tenant drain.
pub struct Handle<P: Plane> {
    jobs: SyncSender<Job<P>>,
    bus: Bus<P::Event>,
    http: Option<HttpServer>,
    reactor: Option<JoinHandle<()>>,
}

impl<P: Plane> Handle<P> {
    /// Spawns the reactor over an already-built plane and, when an address
    /// is given, the HTTP endpoint.
    // Thread spawning can only fail on OS resource exhaustion, at which point
    // the service cannot exist; surfacing the panic is correct.
    #[allow(clippy::expect_used)]
    #[allow(
        clippy::disallowed_methods,
        reason = "the reactor owns one of the service's two long-lived threads; every decision it makes is a function of the command sequence, fan-out below it goes through `util::pool::WorkerPool`"
    )]
    pub(crate) fn start(
        plane: P,
        pacing: Pacing,
        bus_capacity: usize,
        metrics_addr: Option<&str>,
    ) -> io::Result<Handle<P>> {
        let bus = Bus::new(bus_capacity);
        let (jobs, rx) = sync_channel(COMMAND_QUEUE_DEPTH);
        let reactor_bus = bus.clone();
        let reactor = std::thread::Builder::new()
            .name("cuttlesys-reactor".into())
            .spawn(move || run(plane, pacing, &reactor_bus, &rx))
            .expect("spawn the reactor thread");
        let http = metrics_addr
            .map(|addr| HttpServer::spawn(addr, jobs.clone(), bus.clone()))
            .transpose()?;
        Ok(Handle {
            jobs,
            bus,
            http,
            reactor: Some(reactor),
        })
    }

    /// Runs `f` on the plane, between quanta, and returns its result.
    pub(crate) fn call<T: Send + 'static>(
        &self,
        f: impl FnOnce(&mut P) -> T + Send + 'static,
    ) -> Result<T, Stopped> {
        call(&self.jobs, f)
    }

    /// The `/metrics` document (what the endpoint serves).
    pub(crate) fn scrape(&self) -> Result<String, Stopped> {
        scrape(&self.jobs, &self.bus)
    }

    /// Runs `drain` on the plane, publishes what it queued, hands the plane
    /// to `record`, and stops the threads — one job, so no paced quantum
    /// can slip in between the drain and the record.
    pub(crate) fn finish<T: Send + 'static, E: Send + 'static>(
        self,
        drain: impl FnOnce(&mut P) -> Result<(), E> + Send + 'static,
        record: impl FnOnce(P) -> T + Send + 'static,
    ) -> Result<Result<T, E>, Stopped> {
        rendezvous(&self.jobs, |reply| {
            Box::new(move |mut plane, bus| {
                let drained = drain(&mut plane);
                publish(&mut plane, bus);
                let _ = reply.send(drained.map(|()| record(plane)));
                None
            })
        })
        // `self` drops here: endpoint stopped, reactor joined.
    }

    /// Subscribes to the plane's events published after this call.
    pub fn subscribe(&self) -> Subscriber<P::Event> {
        self.bus.subscribe()
    }

    /// Events overwritten in the bus ring before delivery.
    pub fn bus_overwrites(&self) -> u64 {
        self.bus.overwrites()
    }

    /// The bound metrics endpoint address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(HttpServer::addr)
    }
}

impl<P: Plane> Drop for Handle<P> {
    fn drop(&mut self) {
        // Stop the endpoint first: it holds a clone of the job sender, and
        // the reactor only exits once every sender is gone (or after a
        // finishing job).
        self.http = None;
        // Dropping our sender disconnects the reactor's receiver; the
        // reactor closes the bus and exits.
        let (dead_tx, _) = sync_channel(1);
        self.jobs = dead_tx;
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::bus::Closed;
    use std::time::Duration;

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
}
