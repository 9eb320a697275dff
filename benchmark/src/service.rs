//! `service_scrape`: one node behind the `Service` facade. The main thread
//! steps quanta back-to-back (closed loop) and drains one bus subscriber;
//! one scraper thread sends `GET /metrics` and `GET /state` on a fixed
//! schedule regardless of how the service is doing (open loop) — a
//! Prometheus scraper does not wait for the service to be ready.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cuttlesys::control::{ControlCore, ControlEvent};
use cuttlesys::types::{RunRecord, Scenario, SliceRecord};
use service::bus::{Received, Subscriber};
use service::{Pacing, Service, ServiceBuilder, ServiceError};

use crate::pass::{digest, traced_quantum, LayerSamples, Live, Ops, Pass, Scrape};
use crate::trace::{timed_call, Tracer};
use crate::workloads::{service_registration, SCRAPE_RATE_HZ, SLICE_MS, WARMUP_QUANTA};

/// Per-request socket deadline; far above the 100 ms slice.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A monotonic clock the open-loop schedule runs against (the tests
/// substitute a simulated one).
pub trait Clock {
    /// Time since the schedule started.
    fn now(&self) -> Duration;
    /// Returns once `now() >= at`.
    fn sleep_until(&self, at: Duration);
}

/// The wall clock, counting from `start`.
pub struct WallClock {
    /// When the schedule started.
    pub start: Instant,
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn sleep_until(&self, at: Duration) {
        if let Some(wait) = at.checked_sub(self.now()) {
            std::thread::sleep(wait);
        }
    }
}

/// When one open-loop request was due, sent and done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule wanted it sent.
    pub due: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When its last byte arrived.
    pub done: Duration,
}

impl Timing {
    /// Latency from the due time — a request delayed by its predecessor
    /// pays for the delay.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// Sends request `k` at `k * period` — or as soon after as the previous
/// request allows, one at a time — until `stop()` holds at a due time.
pub fn open_loop<T>(
    clock: &impl Clock,
    period: Duration,
    stop: impl Fn() -> bool,
    mut request: impl FnMut(u32) -> T,
) -> Vec<(Timing, T)> {
    let mut done = Vec::new();
    for k in 0u32.. {
        let due = period * k;
        clock.sleep_until(due);
        if stop() {
            break;
        }
        let sent = clock.now();
        let reply = request(k);
        done.push((
            Timing {
                due,
                sent,
                done: clock.now(),
            },
            reply,
        ));
    }
    done
}

/// One HTTP/1.1 `GET`, connection closed by the server: the status code
/// and the body.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, SCRAPE_IO_TIMEOUT)?;
    stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| bad("no header terminator"))?;
    Ok((status, body))
}

/// Scrape `k` asks for `/state`, the other three of four for `/metrics`.
fn scrape_path(k: u32) -> &'static str {
    if k % 4 == 3 {
        "/state"
    } else {
        "/metrics"
    }
}

/// Why a scrape's reply is wrong, if it is. `last_quanta` carries the
/// highest `cuttlesys_quanta_total` seen so far: the counter may not go
/// backwards.
pub fn check_reply(path: &str, status: u16, body: &str, last_quanta: &mut f64) -> Option<String> {
    if status != 200 {
        return Some(format!("{path} answered {status}"));
    }
    if path == "/state" {
        return util::json::parse(body)
            .err()
            .map(|e| format!("/state is not JSON: {e:?}"));
    }
    let quanta = body
        .lines()
        .find_map(|l| l.strip_prefix("cuttlesys_quanta_total "))
        .and_then(|v| v.trim().parse::<f64>().ok());
    match quanta {
        None => Some("/metrics carries no cuttlesys_quanta_total".to_string()),
        Some(q) if q < *last_quanta => Some(format!(
            "cuttlesys_quanta_total went from {last_quanta} back to {q}"
        )),
        Some(q) => {
            *last_quanta = q;
            None
        }
    }
}

/// A started and warmed service.
pub struct ServiceLive {
    service: Service,
    events: Subscriber<ControlEvent>,
    warm_digest: u64,
    timed: usize,
}

/// Starts the service (control core with the shipped manager, reactor
/// thread, bus, HTTP endpoint on an ephemeral loopback port), subscribes,
/// and steps the warm-up quanta.
pub fn setup(scenario: &Scenario, timed: usize) -> ServiceLive {
    let service = ServiceBuilder::new(scenario)
        .pacing(Pacing::Manual)
        .metrics_addr("127.0.0.1:0")
        .start()
        .expect("the service binds a loopback port");
    let mut events = service.subscribe();
    let warm: Vec<SliceRecord> = (0..WARMUP_QUANTA)
        .map(|_| {
            let record = service.step_quantum().expect("a warm-up quantum steps");
            drain(&mut events, &mut 0);
            record
        })
        .collect();
    ServiceLive {
        service,
        events,
        warm_digest: digest(&[RunRecord {
            scheme: "cuttlesys".to_string(),
            slices: warm,
        }]),
        timed,
    }
}

/// Takes everything the subscriber has pending, adding events it lost to
/// lag to `lagged`.
fn drain(events: &mut Subscriber<ControlEvent>, lagged: &mut u64) {
    while let Ok(Some(got)) = events.try_recv() {
        if let Received::Lagged(missed) = got {
            *lagged += missed;
        }
    }
}

impl Live for ServiceLive {
    fn warm_digest(&self) -> u64 {
        self.warm_digest
    }

    fn run(self: Box<Self>, mut whole_pass_tracer: Option<&mut Tracer>) -> Pass {
        let ServiceLive {
            service,
            mut events,
            timed,
            ..
        } = *self;
        let addr = service.metrics_addr().expect("the endpoint was configured");
        let mut quantum_ms = Vec::with_capacity(timed);
        let mut quantum_starts = Vec::with_capacity(timed);
        let mut traced = Vec::with_capacity(timed);
        let mut ops = Ops::default();
        let mut layer = LayerSamples::default();
        let stop = AtomicBool::new(false);
        let start = Instant::now();

        let scrapes = std::thread::scope(|scope| {
            let scraper = scope.spawn(|| {
                open_loop(
                    &WallClock { start },
                    Duration::from_secs_f64(1.0 / SCRAPE_RATE_HZ),
                    || stop.load(Ordering::Acquire),
                    |k| {
                        let path = scrape_path(k);
                        (path, http_get(addr, path))
                    },
                )
            });
            for q in 0..timed {
                let mut tracer = whole_pass_tracer
                    .as_deref_mut()
                    .filter(|_| traced_quantum(q));
                traced.push(tracer.is_some());
                if let Some(app) = service_registration(q) {
                    let (reply, took) =
                        timed_call(tracer.as_deref_mut(), "command", q as u32, || {
                            service.register_batch(&format!("bench-{q}"), app)
                        });
                    layer.command_us.push(took.as_secs_f64() * 1e6);
                    // The node is full: the one right answer is a refusal.
                    ops.tally(match reply {
                        Err(ServiceError::Admission(_)) => None,
                        Ok(id) => Some(format!(
                            "quantum {q}: a full node admitted tenant {}",
                            id.index()
                        )),
                        Err(e) => Some(format!("register_batch at quantum {q}: {e}")),
                    });
                }
                quantum_starts.push(Instant::now());
                let (stepped, took) = timed_call(tracer, "service_quantum", q as u32, || {
                    service.step_quantum()
                });
                let wall_ms = took.as_secs_f64() * 1e3;
                quantum_ms.push(wall_ms);
                drain(&mut events, &mut layer.bus_lagged);
                match stepped {
                    Ok(record) => {
                        let degraded = record.telemetry.is_some_and(|t| t.degradation.degraded());
                        ops.tally_quantum(degraded, wall_ms);
                    }
                    Err(e) => {
                        ops.fail(|| format!("quantum {q}: {e}"));
                        break;
                    }
                }
            }
            stop.store(true, Ordering::Release);
            scraper.join().expect("the scraper thread does not panic")
        });
        let timed_wall_s = start.elapsed().as_secs_f64();

        let mut last_quanta = 0.0;
        for (timing, (path, reply)) in scrapes {
            let failure = match &reply {
                Err(e) => Some(format!("{path}: {e}")),
                Ok((status, body)) => check_reply(path, *status, body, &mut last_quanta),
            };
            ops.over_slice += u64::from(timing.latency_ms() > SLICE_MS);
            // Pushed after the timed loop, so every scrape gets its span, under
            // the quantum that was in flight when it fell due.
            if let Some(tr) = whole_pass_tracer.as_deref_mut() {
                let due = start + timing.due;
                let quantum = quantum_starts
                    .partition_point(|t| *t <= due)
                    .saturating_sub(1);
                tr.push(
                    "scrape",
                    tr.ns_at(due),
                    tr.ns_at(start + timing.done),
                    None,
                    quantum as u32,
                );
            }
            ops.tally(failure.clone());
            layer.scrapes.push(Scrape {
                latency_ms: timing.latency_ms(),
                late_ms: timing.late_ms(),
                bytes: reply.map(|(_, body)| body.len()).unwrap_or(0),
                failure,
            });
        }

        if whole_pass_tracer.is_some() {
            // Idle round trips: what a scrape costs the reactor when no
            // quantum is in flight.
            for _ in 0..40 {
                let t0 = Instant::now();
                let text = service.metrics().expect("the reactor is running");
                layer.metrics_call_us.push(t0.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(text);
            }
            for _ in 0..40 {
                let t0 = Instant::now();
                let body = service
                    .snapshot()
                    .expect("the reactor is running")
                    .to_json()
                    .to_string();
                layer.state_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(body);
            }
        }
        layer.bus_overwrites = service.bus_overwrites();
        let record = service.shutdown().expect("the service shuts down cleanly");
        let mut problems = Vec::new();
        if record.slices.len() != WARMUP_QUANTA + quantum_ms.len() {
            problems.push(format!(
                "the service's record has {} slices for {} quanta stepped",
                record.slices.len(),
                WARMUP_QUANTA + quantum_ms.len()
            ));
        }
        if layer.scrapes.is_empty() {
            problems.push("the scraper completed no scrape".to_string());
        }
        Pass {
            nodes_stepped: vec![1; quantum_ms.len()],
            traced,
            quantum_ms,
            timed_wall_s,
            records: vec![record],
            ops,
            layer,
            problems,
        }
    }
}

/// The same scenario and the same commands on a bare in-process
/// `ControlCore` — the thing the service wraps — for `quanta` timed quanta
/// after the warm-up: per-quantum wall times (ms) and the run record.
pub fn bare_pass(scenario: &Scenario, quanta: usize) -> (Vec<f64>, RunRecord) {
    let mut core = ControlCore::new(scenario);
    for _ in 0..WARMUP_QUANTA {
        core.step_quantum().expect("a warm-up quantum steps");
        core.drain_events();
    }
    let mut quantum_ms = Vec::with_capacity(quanta);
    for q in 0..quanta {
        if let Some(app) = service_registration(q) {
            let _ = core.register_batch(&format!("bench-{q}"), app);
        }
        let t0 = Instant::now();
        core.step_quantum().expect("a bare quantum steps");
        quantum_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        core.drain_events();
    }
    core.shutdown().expect("the bare core drains");
    (quantum_ms, core.into_record())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when someone sleeps on it or a request
    /// "takes" time.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, at: Duration) {
            self.0.set(self.0.get().max(at));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn open_loop_counts_latency_from_the_due_time_and_reports_lateness() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // 25 ms period; request 1 stalls for 60 ms, the others take 5 ms.
        let cost = |k: u32| if k == 1 { 60 * MS } else { 5 * MS };
        let got = open_loop(
            &clock,
            25 * MS,
            || clock.now() >= 150 * MS,
            |k| clock.0.set(clock.0.get() + cost(k)),
        );
        let timings: Vec<Timing> = got.iter().map(|(t, _)| *t).collect();
        // Request 0: on time.
        assert_eq!(
            (timings[0].due, timings[0].sent, timings[0].done),
            (Duration::ZERO, Duration::ZERO, 5 * MS)
        );
        // Request 1: due 25, stalls until 85.
        assert_eq!(timings[1].latency_ms(), 60.0);
        assert_eq!(timings[1].late_ms(), 0.0);
        // Request 2 was due at 50 but could only go at 85: it is 35 ms late
        // and its latency counts the wait, 40 ms, not the 5 ms it took.
        assert_eq!((timings[2].due, timings[2].sent), (50 * MS, 85 * MS));
        assert_eq!(timings[2].late_ms(), 35.0);
        assert_eq!(timings[2].latency_ms(), 40.0);
        // Request 3 (due 75) is still late; the schedule has caught up by
        // request 4 (due 100), and it never skips a slot.
        assert_eq!(timings[3].late_ms(), 15.0);
        assert_eq!(timings[4].late_ms(), 0.0);
        let dues: Vec<Duration> = timings.iter().map(|t| t.due).collect();
        assert_eq!(dues, (0..6).map(|k| 25 * MS * k).collect::<Vec<_>>());
    }

    #[test]
    fn replies_are_checked() {
        let mut last = 0.0;
        let metrics = "# HELP x\ncuttlesys_quanta_total 41\nother 1\n";
        assert_eq!(check_reply("/metrics", 200, metrics, &mut last), None);
        assert_eq!(last, 41.0);
        assert!(
            check_reply("/metrics", 200, "cuttlesys_quanta_total 40\n", &mut last)
                .unwrap()
                .contains("back")
        );
        assert!(check_reply("/metrics", 200, "nothing here\n", &mut last).is_some());
        assert!(check_reply("/metrics", 503, metrics, &mut last).is_some());
        assert_eq!(
            check_reply("/state", 200, "{\"quantum\":3}\n", &mut last),
            None
        );
        assert!(check_reply("/state", 200, "{not json", &mut last).is_some());
        assert_eq!(
            (0..8).map(scrape_path).filter(|p| *p == "/state").count(),
            2
        );
    }
}
