//! Edge-node supervision: restart-on-crash and session resumption.
//!
//! [`serve_edge`](super::serve_edge) is fire-and-forget: one accepted
//! connection, served to completion, and the process is done — a
//! coordinator reconnect or a crashed runtime both end the node. The
//! [`Supervisor`] replaces that with the managed lifecycle the paper's
//! city-scale deployments need:
//!
//! - **session resumption** — when the coordinator disconnects without
//!   an orderly `Bye` (network blip, coordinator-side reconnect), the
//!   runtime and its idempotency cache are kept and the listener
//!   re-accepts, so resent envelopes from the coordinator's session
//!   layer still deduplicate against what already executed;
//! - **restart policy** — when the runtime itself dies (the simulated
//!   crash hook, [`EdgeRuntime::set_die_at`](super::EdgeRuntime::set_die_at)),
//!   the supervisor rebuilds it from the caller's factory, bounded by
//!   [`RestartPolicy::max_restarts`] per wall-clock
//!   [`RestartPolicy::restart_window_ms`] with
//!   [`RestartPolicy::backoff_ms`] between rebuilds. The factory
//!   receives the restart generation, so callers can arm crash
//!   schedules only on the first build and resync state on rejoin;
//! - **bounded rejoin wait** — after any disconnect the supervisor
//!   waits at most [`RestartPolicy::rejoin_window_ms`] for the
//!   coordinator to come back before shutting down cleanly, so a
//!   supervised edge never outlives its deployment as a leaked
//!   process.
//!
//! The supervisor reports why it stopped ([`SupervisorReport`]):
//! crashes stay visible (`died_on_schedule` is sticky across rebuilds)
//! even when a later generation served traffic successfully.

use super::EdgeRuntime;
use crate::transport::socket::{serve_frames, ConnectionEnd};
#[cfg(test)]
use crate::transport::{Envelope, MessageKind};
use crate::transport::{TransportError, TransportStats};
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How a [`Supervisor`] reacts to crashes and disconnects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Most runtime rebuilds allowed within one
    /// [`restart_window_ms`](RestartPolicy::restart_window_ms); one
    /// more crash makes the supervisor give up.
    pub max_restarts: u32,
    /// Wall-clock window (ms) over which restarts are counted.
    pub restart_window_ms: u64,
    /// Wall-clock pause (ms) before rebuilding a crashed runtime.
    pub backoff_ms: u64,
    /// Wall-clock time (ms) to wait for the coordinator to (re)connect
    /// before shutting down cleanly.
    pub rejoin_window_ms: u64,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 3,
            restart_window_ms: 60_000,
            backoff_ms: 50,
            rejoin_window_ms: 2_000,
        }
    }
}

/// What one supervised serve loop did before it stopped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Connections accepted (initial joins plus resumptions).
    pub connections: u64,
    /// Runtime rebuilds after a crash.
    pub restarts: u64,
    /// Whether a crash budget overrun stopped the supervisor.
    pub gave_up: bool,
    /// Whether any generation of the runtime died on its schedule
    /// (sticky across rebuilds).
    pub died_on_schedule: bool,
    /// Fresh requests executed across all generations.
    pub requests: u64,
    /// Duplicates absorbed by the idempotency cache across all
    /// generations.
    pub duplicates: u64,
    /// Byte/frame counters accumulated across all connections.
    pub stats: TransportStats,
}

/// Runs an [`EdgeRuntime`] under a [`RestartPolicy`] — see the module
/// docs for the lifecycle.
pub struct Supervisor {
    policy: RestartPolicy,
}

impl Supervisor {
    /// A supervisor applying `policy`.
    #[must_use]
    pub fn new(policy: RestartPolicy) -> Self {
        assert!(policy.rejoin_window_ms > 0, "zero rejoin window");
        Supervisor { policy }
    }

    /// Serves coordinator connections on `listener` until the
    /// coordinator says `Bye`, stays away past the rejoin window, or
    /// the crash budget is exhausted. `factory` builds the runtime;
    /// it is called again (with the 1-based restart generation) after
    /// each crash.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] when the listener itself fails
    /// (bind lost, accept error); per-connection failures are treated
    /// as disconnects and retried within the policy.
    pub fn serve(
        &self,
        listener: &TcpListener,
        mut factory: impl FnMut(u64) -> EdgeRuntime,
    ) -> Result<SupervisorReport, TransportError> {
        listener
            .set_nonblocking(true)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let mut report = SupervisorReport::default();
        let mut runtime = factory(0);
        let mut recent_restarts: VecDeque<Instant> = VecDeque::new();
        loop {
            let Some(mut stream) = self.accept_within_rejoin_window(listener)? else {
                // The coordinator never (re)joined: orderly shutdown.
                break;
            };
            report.connections += 1;
            let end = serve_frames(&mut stream, &mut report.stats, |envelope| {
                runtime.handle(envelope)
            });
            match end {
                // The coordinator said `Bye`: the deployment is over.
                Ok(ConnectionEnd::Bye) => break,
                // The coordinator vanished mid-session, or the connection
                // broke (the coordinator's problem to retry): the runtime
                // and its dedup cache survive and the listener re-accepts.
                Ok(ConnectionEnd::Disconnected) | Err(_) => continue,
                // The runtime's crash schedule triggered.
                Ok(ConnectionEnd::Dropped) => {
                    report.died_on_schedule = true;
                    let now = Instant::now();
                    let window = Duration::from_millis(self.policy.restart_window_ms);
                    while recent_restarts
                        .front()
                        .is_some_and(|t| now.duration_since(*t) > window)
                    {
                        recent_restarts.pop_front();
                    }
                    if recent_restarts.len() >= self.policy.max_restarts as usize {
                        report.gave_up = true;
                        break;
                    }
                    recent_restarts.push_back(now);
                    if self.policy.backoff_ms > 0 {
                        std::thread::sleep(Duration::from_millis(self.policy.backoff_ms));
                    }
                    report.requests += runtime.requests();
                    report.duplicates += runtime.duplicates();
                    report.restarts += 1;
                    runtime = factory(report.restarts);
                }
            }
        }
        report.requests += runtime.requests();
        report.duplicates += runtime.duplicates();
        Ok(report)
    }

    /// Polls the (nonblocking) listener for up to the rejoin window.
    fn accept_within_rejoin_window(
        &self,
        listener: &TcpListener,
    ) -> Result<Option<TcpStream>, TransportError> {
        let deadline = Instant::now() + Duration::from_millis(self.policy.rejoin_window_ms);
        loop {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| TransportError::Io(e.to_string()))?;
                    stream
                        .set_nodelay(true)
                        .map_err(|e| TransportError::Io(e.to_string()))?;
                    return Ok(Some(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RetryConfig;
    use crate::spans::SpanCtx;
    use crate::transport::{TcpTransport, Transport};

    fn quick_policy() -> RestartPolicy {
        RestartPolicy {
            max_restarts: 2,
            restart_window_ms: 60_000,
            backoff_ms: 1,
            rejoin_window_ms: 400,
        }
    }

    fn hello(seq: u64, now: u64) -> Envelope {
        Envelope::new(MessageKind::Hello, SpanCtx::NONE, seq, "", "", Vec::new()).at(now)
    }

    fn bye(seq: u64) -> Envelope {
        Envelope::new(MessageKind::Bye, SpanCtx::NONE, seq, "", "", Vec::new())
    }

    fn client(addr: &str) -> TcpTransport {
        TcpTransport::new(
            "edge",
            addr,
            RetryConfig {
                max_attempts: 3,
                base_backoff_ms: 5,
                timeout_ms: 2_000,
            },
        )
    }

    #[test]
    fn bye_ends_the_supervised_loop_cleanly() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            Supervisor::new(quick_policy())
                .serve(&listener, |_gen| EdgeRuntime::new("edge0"))
                .expect("serve")
        });
        let mut link = client(&addr);
        link.exchange(&hello(1, 0)).expect("hello");
        link.exchange(&bye(2)).expect("bye");
        let report = server.join().expect("server thread");
        assert_eq!(report.connections, 1);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.requests, 1, "Bye is lifecycle, not a request");
        assert!(!report.gave_up && !report.died_on_schedule);
    }

    #[test]
    fn reconnect_resumes_the_same_runtime_with_its_dedup_cache() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            Supervisor::new(quick_policy())
                .serve(&listener, |_gen| EdgeRuntime::new("edge0"))
                .expect("serve")
        });
        // First connection delivers tick seq 1, then drops without Bye.
        {
            let mut link = client(&addr);
            link.exchange(&Envelope::tick(1, 61_000)).expect("tick");
        }
        // Second connection resends tick seq 1 (session resumption):
        // the surviving dedup cache answers it without re-stepping.
        let mut link = client(&addr);
        link.exchange(&Envelope::tick(1, 61_000)).expect("dup tick");
        link.exchange(&bye(2)).expect("bye");
        let report = server.join().expect("server thread");
        assert_eq!(report.connections, 2, "resumed after the disconnect");
        assert_eq!(report.restarts, 0, "the runtime was never rebuilt");
        assert_eq!(report.requests, 1, "the tick stepped once");
        assert_eq!(report.duplicates, 1, "the resend was absorbed");
    }

    #[test]
    fn crash_restarts_the_runtime_and_stays_sticky_in_the_report() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            Supervisor::new(quick_policy())
                .serve(&listener, |generation| {
                    let mut runtime = EdgeRuntime::new("edge1");
                    if generation == 0 {
                        runtime.set_die_at(1_200_000);
                    }
                    runtime
                })
                .expect("serve")
        });
        let mut link = client(&addr);
        link.exchange(&hello(1, 600_000)).expect("alive before");
        // The crash drops the connection without a reply; the client's
        // inline reconnect lands on the rebuilt generation.
        link.exchange(&hello(2, 1_200_000))
            .expect("answered by the restarted runtime");
        link.exchange(&bye(3)).expect("bye");
        let report = server.join().expect("server thread");
        assert_eq!(report.restarts, 1);
        assert!(report.died_on_schedule, "the crash stays visible");
        assert!(!report.gave_up);
        assert_eq!(report.requests, 2, "one request per generation");
    }

    #[test]
    fn absent_coordinator_ends_the_loop_instead_of_leaking() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let started = Instant::now();
        let report = Supervisor::new(quick_policy())
            .serve(&listener, |_gen| EdgeRuntime::new("edge0"))
            .expect("serve");
        assert_eq!(report.connections, 0);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "rejoin window bounded the wait: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn crash_budget_overrun_gives_up() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            Supervisor::new(quick_policy())
                .serve(&listener, |_gen| {
                    // Every generation dies on its first request.
                    let mut runtime = EdgeRuntime::new("edge1");
                    runtime.set_die_at(0);
                    runtime
                })
                .expect("serve")
        });
        let mut link = client(&addr);
        // Each exchange crashes one generation; with max_restarts = 2
        // the third crash exhausts the budget.
        for seq in 1..=4 {
            let _ = link.exchange(&hello(seq, 600_000));
        }
        drop(link);
        let report = server.join().expect("server thread");
        assert!(report.gave_up, "budget overrun reported: {report:?}");
        assert_eq!(report.restarts, 2);
        assert!(report.died_on_schedule);
    }
}
