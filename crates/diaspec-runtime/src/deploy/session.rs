//! The at-least-once session layer over one link.
//!
//! A plain [`Link`](super::Link) is best-effort: a dropped frame loses
//! the request, a flapping peer blocks every caller behind connect
//! retries. The session layer upgrades the link to *at-least-once with
//! exactly-once effects*:
//!
//! - every request carries the link's sequence number plus a
//!   **cumulative acknowledgement** (`Envelope::ack`): all sequence
//!   numbers at or below it have been answered or abandoned, so the
//!   receiver can prune its idempotency cache;
//! - a failed exchange is **resent inline** with the *same* sequence
//!   number, backing off per the session's
//!   [`RetryConfig`] — the receiver's dedup cache turns the resend of
//!   an already-executed request into a replay of the cached reply, so
//!   effects (actuations, environment ticks) land exactly once;
//! - requests that exhaust their retry budget park their *effects*
//!   (`Invoke` and `Tick` envelopes — queries are pull-based and the
//!   engine re-polls them) in a **bounded resend queue**, replayed in
//!   order before any newer request once the link heals: session
//!   resumption across reconnects and partition windows. Replay
//!   lateness (how many sim-ms the effect landed late) is recorded in a
//!   [`LatencyHistogram`] for the recovery-time percentiles of the
//!   chaos soak;
//! - while effects are parked, each request is preceded by a cheap
//!   **path probe** — a `Heartbeat` stamped with the *current* sim time
//!   — that must cross before any replay is attempted. Replays carry
//!   their original stamps (remote environments step on them), so the
//!   probe is what tells time-keyed middleware (the chaos layer's
//!   partition windows, or any real network that ages out state) that
//!   the link has moved past the outage; it is also the natural
//!   half-open breaker probe, risking heartbeats instead of an effect.
//!   Probes and replays run under the same inline retry policy as
//!   requests, so one unlucky drop cannot fail an otherwise healthy
//!   heal;
//! - a per-link **circuit breaker** (closed → open after
//!   [`BreakerConfig::failure_threshold`] consecutive failures →
//!   half-open probe after [`BreakerConfig::cooldown_ms`] sim-ms) makes
//!   a dead peer fail *fast* instead of hanging every caller behind
//!   connect timeouts; the fast failure surfaces as a
//!   [`DeviceError`](crate::error::DeviceError) through the remote
//!   proxy, which is exactly what the engine's lease expiry and standby
//!   promotion key off.
//!
//! The breaker runs on *sim time* (the coordinator clock stamped on
//! every envelope), so seeded runs trip and probe at identical
//! simulated instants regardless of wall-clock jitter.

use crate::clock::SimTime;
use crate::fault::RetryConfig;
use crate::obs::LatencyHistogram;
use crate::spans::SpanCtx;
use crate::transport::{Envelope, MessageKind, Transport, TransportError};
use std::collections::VecDeque;
use std::time::Duration;

/// Circuit-breaker policy of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive request failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Sim-ms the breaker stays open before a half-open probe.
    pub cooldown_ms: SimTime,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 4,
            cooldown_ms: 60_000,
        }
    }
}

/// Configuration of the session layer on one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Inline resend policy: attempts, backoff (wall-ms between
    /// resends), and the total per-request wall-clock budget.
    pub retry: RetryConfig,
    /// Most parked effects (`Invoke`/`Tick`) the resend queue holds;
    /// the oldest is evicted (and counted lost) beyond this.
    pub resend_queue: usize,
    /// Circuit-breaker policy.
    pub breaker: BreakerConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            retry: RetryConfig::default(),
            resend_queue: 64,
            breaker: BreakerConfig::default(),
        }
    }
}

impl SessionConfig {
    /// Checks the values a session cannot run with: it must be able to
    /// park at least one effect, and the breaker must need at least one
    /// failure to trip. Call it on a configuration that comes from outside
    /// the program (a manifest) before [`Link::with_session`](super::Link::with_session),
    /// which panics on one that fails.
    ///
    /// # Errors
    ///
    /// `"<field> must be at least 1"`, naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.resend_queue == 0 {
            return Err("resend_queue must be at least 1".to_owned());
        }
        if self.breaker.failure_threshold == 0 {
            return Err("breaker.failure_threshold must be at least 1".to_owned());
        }
        Ok(())
    }
}

/// What the session layer has done for one link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Inline resend attempts (beyond each request's first send).
    pub resends: u64,
    /// Requests that succeeded only after at least one resend.
    pub recovered: u64,
    /// Requests that exhausted their inline retry budget.
    pub abandoned: u64,
    /// Parked effects replayed successfully after the link healed.
    pub replays: u64,
    /// Parked effects evicted because the resend queue was full.
    pub replay_evictions: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Requests rejected without touching the wire while the breaker
    /// was open.
    pub fast_fails: u64,
    /// Heartbeat path probes sent ahead of replays while effects were
    /// parked.
    pub probes: u64,
    /// Sim-ms lateness of each replayed effect (recovery time of the
    /// deferred-effect path), log-bucketed.
    pub replay_lateness: LatencyHistogram,
}

/// Breaker state machine: closed (normal) → open (fail fast) →
/// half-open (single probe) → closed or back open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CircuitState {
    Closed,
    Open { until: SimTime },
    HalfOpen,
}

/// The per-link session state machine. Owned by a
/// [`Link`](super::Link) behind its lock; one request is processed at a
/// time, in sequence order.
#[derive(Debug)]
pub(super) struct SessionState {
    config: SessionConfig,
    circuit: CircuitState,
    consecutive_failures: u32,
    resend_queue: VecDeque<Envelope>,
    /// Highest sequence number completed (answered, or abandoned
    /// without a parked effect) — the cumulative-ack watermark when the
    /// resend queue is empty.
    highest_done: u64,
    stats: SessionStats,
}

impl SessionState {
    pub(super) fn new(config: SessionConfig) -> Self {
        if let Err(reason) = config.validate() {
            panic!("invalid SessionConfig: {reason}");
        }
        SessionState {
            config,
            circuit: CircuitState::Closed,
            consecutive_failures: 0,
            resend_queue: VecDeque::new(),
            highest_done: 0,
            stats: SessionStats::default(),
        }
    }

    pub(super) fn stats(&self) -> SessionStats {
        self.stats.clone()
    }

    /// The cumulative acknowledgement to stamp on outgoing requests:
    /// everything below the oldest parked effect (which will still be
    /// resent), or everything completed when nothing is parked.
    fn cumulative_ack(&self) -> u64 {
        self.resend_queue
            .front()
            .map_or(self.highest_done, |oldest| oldest.seq.saturating_sub(1))
    }

    /// Parks an effectful envelope for replay. Queries are not parked:
    /// their value would be stale by replay time and the engine re-polls
    /// them through its own retry machinery.
    fn park_effect(&mut self, envelope: &Envelope) {
        if !matches!(envelope.kind, MessageKind::Invoke | MessageKind::Tick) {
            self.highest_done = self.highest_done.max(envelope.seq);
            return;
        }
        if self.resend_queue.len() >= self.config.resend_queue {
            if let Some(evicted) = self.resend_queue.pop_front() {
                self.stats.replay_evictions += 1;
                self.highest_done = self.highest_done.max(evicted.seq);
            }
        }
        self.resend_queue.push_back(envelope.clone());
    }

    fn note_success(&mut self) {
        self.consecutive_failures = 0;
        self.circuit = CircuitState::Closed;
    }

    fn note_failure(&mut self, now: SimTime) {
        self.consecutive_failures += 1;
        let trip = match self.circuit {
            CircuitState::Closed => {
                self.consecutive_failures >= self.config.breaker.failure_threshold
            }
            // A failed half-open probe re-opens immediately.
            CircuitState::HalfOpen => true,
            CircuitState::Open { .. } => false,
        };
        if trip {
            self.circuit = CircuitState::Open {
                until: now + self.config.breaker.cooldown_ms,
            };
            self.stats.breaker_trips += 1;
        }
    }

    /// One envelope through the wire under the session's inline retry
    /// policy: same sequence number each attempt, wall-clock backoff
    /// between resends, bounded by the retry budget. Counts
    /// resends/recovered; breaker and parking are the caller's job. A
    /// remote error returns immediately — the peer answered.
    fn exchange_with_retries(
        &mut self,
        transport: &mut dyn Transport,
        envelope: &Envelope,
    ) -> Result<Envelope, TransportError> {
        let started = std::time::Instant::now();
        let mut last = TransportError::Dropped;
        for attempt in 0..=self.config.retry.max_attempts {
            if attempt > 0 {
                let backoff = self.config.retry.backoff_ms(attempt);
                if backoff > 0 {
                    std::thread::sleep(Duration::from_millis(backoff));
                }
                self.stats.resends += 1;
            }
            match transport.exchange(envelope) {
                Ok(reply) => {
                    if attempt > 0 {
                        self.stats.recovered += 1;
                    }
                    return Ok(reply);
                }
                Err(TransportError::Remote(message)) => {
                    return Err(TransportError::Remote(message));
                }
                Err(e) => last = e,
            }
            let timeout = self.config.retry.timeout_ms;
            if timeout > 0 && started.elapsed() >= Duration::from_millis(timeout) {
                break;
            }
        }
        Err(last)
    }

    /// Replays parked effects in order, each under the full inline
    /// retry policy. Returns the first exhausted replay — nothing newer
    /// may overtake an unreplayed effect, or ticks would step remote
    /// environments out of order.
    fn drain_parked(
        &mut self,
        transport: &mut dyn Transport,
        now: SimTime,
    ) -> Result<(), TransportError> {
        while let Some(oldest) = self.resend_queue.front() {
            let mut replay = oldest.clone();
            replay.ack = self.cumulative_ack();
            match self.exchange_with_retries(transport, &replay) {
                Ok(_) | Err(TransportError::Remote(_)) => {
                    // A remote error still means the peer processed the
                    // envelope — the effect is settled either way.
                    self.stats.replays += 1;
                    self.stats
                        .replay_lateness
                        .record(now.saturating_sub(replay.now));
                    self.highest_done = self.highest_done.max(replay.seq);
                    self.resend_queue.pop_front();
                    self.note_success();
                }
                Err(e) => {
                    self.note_failure(now);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Sends one request through the session machinery: breaker gate,
    /// in-order replay of parked effects, then the request itself with
    /// inline same-sequence resends.
    pub(super) fn request(
        &mut self,
        transport: &mut dyn Transport,
        mut envelope: Envelope,
    ) -> Result<Envelope, TransportError> {
        let now = envelope.now;
        match self.circuit {
            CircuitState::Open { until } if now < until => {
                self.stats.fast_fails += 1;
                self.park_effect(&envelope);
                return Err(TransportError::Io(format!(
                    "circuit breaker open until {until} ms (peer {})",
                    transport.peer()
                )));
            }
            CircuitState::Open { .. } => self.circuit = CircuitState::HalfOpen,
            CircuitState::Closed | CircuitState::HalfOpen => {}
        }

        // Heal-time resumption: parked effects go first, in order,
        // preceded by a path probe stamped with the *current* time.
        // Replays keep their original stamps (remote environments step
        // on them), so without the probe a time-keyed fault layer would
        // judge every replay by a stamp from inside the outage and the
        // queue could never drain. A replay failure fails this request
        // too (and feeds the breaker) — ordering is part of the
        // exactly-once contract.
        if !self.resend_queue.is_empty() {
            let mut probe = Envelope::new(
                MessageKind::Heartbeat,
                SpanCtx::NONE,
                envelope.seq,
                "",
                "",
                Vec::new(),
            )
            .at(now);
            probe.ack = self.cumulative_ack();
            self.stats.probes += 1;
            match self.exchange_with_retries(transport, &probe) {
                // A remote error still proves the path is up.
                Ok(_) | Err(TransportError::Remote(_)) => {}
                Err(e) => {
                    self.note_failure(now);
                    self.park_effect(&envelope);
                    return Err(e);
                }
            }
        }
        if let Err(e) = self.drain_parked(transport, now) {
            self.park_effect(&envelope);
            return Err(e);
        }

        envelope.ack = self.cumulative_ack();
        match self.exchange_with_retries(transport, &envelope) {
            Ok(reply) => {
                self.highest_done = self.highest_done.max(envelope.seq);
                self.note_success();
                Ok(reply)
            }
            Err(TransportError::Remote(message)) => {
                // The peer answered: the link is healthy, the request
                // is settled (it executed and failed).
                self.highest_done = self.highest_done.max(envelope.seq);
                self.note_success();
                Err(TransportError::Remote(message))
            }
            Err(e) => {
                self.stats.abandoned += 1;
                self.park_effect(&envelope);
                self.note_failure(now);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportStats;
    use std::sync::{Arc, Mutex};

    /// A scriptable transport: each exchange pops the next outcome;
    /// `true` delivers (echoing a reply), `false` fails with `Dropped`.
    /// Arrivals record what actually reached the peer.
    struct Scripted {
        outcomes: VecDeque<bool>,
        arrivals: Arc<Mutex<Vec<Envelope>>>,
    }

    impl Transport for Scripted {
        fn backend(&self) -> &'static str {
            "scripted"
        }
        fn peer(&self) -> &str {
            "peer"
        }
        fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope, TransportError> {
            if self.outcomes.pop_front().unwrap_or(true) {
                self.arrivals
                    .lock()
                    .expect("arrivals lock")
                    .push(envelope.clone());
                Ok(envelope.reply_ok())
            } else {
                Err(TransportError::Dropped)
            }
        }
        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }
    }

    fn scripted(outcomes: &[bool]) -> (Scripted, Arc<Mutex<Vec<Envelope>>>) {
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        (
            Scripted {
                outcomes: outcomes.iter().copied().collect(),
                arrivals: Arc::clone(&arrivals),
            },
            arrivals,
        )
    }

    fn fast_config() -> SessionConfig {
        SessionConfig {
            retry: RetryConfig {
                max_attempts: 2,
                base_backoff_ms: 0,
                timeout_ms: 0,
            },
            resend_queue: 4,
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown_ms: 1_000,
            },
        }
    }

    fn tick(seq: u64, now: u64) -> Envelope {
        Envelope::tick(seq, now)
    }

    /// Sequence numbers of the non-probe envelopes that reached the
    /// peer, in arrival order.
    fn effect_seqs(arrivals: &Arc<Mutex<Vec<Envelope>>>) -> Vec<u64> {
        arrivals
            .lock()
            .expect("arrivals lock")
            .iter()
            .filter(|e| e.kind != MessageKind::Heartbeat)
            .map(|e| e.seq)
            .collect()
    }

    #[test]
    fn validate_names_the_value_a_session_cannot_run_with() {
        assert_eq!(SessionConfig::default().validate(), Ok(()));
        assert_eq!(fast_config().validate(), Ok(()));
        let no_queue = SessionConfig {
            resend_queue: 0,
            ..fast_config()
        };
        assert_eq!(
            no_queue.validate(),
            Err("resend_queue must be at least 1".to_owned())
        );
        let mut no_threshold = fast_config();
        no_threshold.breaker.failure_threshold = 0;
        assert_eq!(
            no_threshold.validate(),
            Err("breaker.failure_threshold must be at least 1".to_owned())
        );
    }

    #[test]
    fn inline_resend_recovers_with_the_same_sequence_number() {
        let (mut transport, arrivals) = scripted(&[false, true]);
        let mut session = SessionState::new(fast_config());
        let reply = session
            .request(&mut transport, tick(1, 100))
            .expect("second attempt lands");
        assert_eq!(reply.seq, 1);
        let arrived = arrivals.lock().unwrap();
        assert_eq!(arrived.len(), 1);
        assert_eq!(arrived[0].seq, 1, "resend reuses the sequence number");
        let stats = session.stats();
        assert_eq!((stats.resends, stats.recovered), (1, 1));
    }

    #[test]
    fn an_exhausted_query_batch_is_resent_inline_and_never_parked() {
        // A poll sweep's batch is in the query class: one sequence
        // number across its inline resends, then abandoned and settled —
        // the next request replays nothing before itself.
        let (mut transport, arrivals) = scripted(&[false, false, false]);
        let mut session = SessionState::new(fast_config());
        let batch = Envelope::new(
            MessageKind::QueryBatch,
            SpanCtx::NONE,
            1,
            "",
            "presence",
            Vec::new(),
        )
        .at(100);
        assert!(session.request(&mut transport, batch).is_err());
        let stats = session.stats();
        assert_eq!((stats.resends, stats.abandoned), (2, 1));
        session
            .request(&mut transport, tick(2, 200))
            .expect("healed");
        assert_eq!(effect_seqs(&arrivals), vec![2], "the batch is not replayed");
        let arrived = arrivals.lock().expect("arrivals lock");
        assert_eq!(arrived[0].ack, 1, "the abandoned batch is settled");
        assert_eq!(session.stats().probes, 0, "nothing parked, no probe");
    }

    #[test]
    fn exhausted_effect_is_parked_and_replayed_in_order() {
        // Tick 1 fails all 3 attempts; tick 2 heals the link and must
        // be preceded by the replay of tick 1.
        let (mut transport, arrivals) = scripted(&[false, false, false]);
        let mut session = SessionState::new(fast_config());
        assert!(session.request(&mut transport, tick(1, 100)).is_err());
        assert_eq!(session.stats().abandoned, 1);
        session
            .request(&mut transport, tick(2, 200))
            .expect("healed");
        assert_eq!(
            effect_seqs(&arrivals),
            vec![1, 2],
            "parked effect replays first"
        );
        let stats = session.stats();
        assert_eq!(stats.replays, 1);
        assert_eq!(stats.probes, 1, "one path probe ahead of the replay");
        assert_eq!(stats.replay_lateness.count(), 1);
        assert_eq!(
            stats.replay_lateness.max(),
            100,
            "tick 1 landed 100 sim-ms late"
        );
    }

    #[test]
    fn queries_are_not_parked_but_advance_the_ack() {
        let (mut transport, arrivals) = scripted(&[false, false, false, true]);
        let mut session = SessionState::new(fast_config());
        let query = Envelope::query(crate::spans::SpanCtx::NONE, 1, "d", "s", 100);
        assert!(session.request(&mut transport, query).is_err());
        session
            .request(&mut transport, tick(2, 200))
            .expect("delivered");
        let arrived = arrivals.lock().unwrap();
        assert_eq!(arrived.len(), 1, "the query was never replayed");
        assert_eq!(arrived[0].seq, 2);
        assert_eq!(
            arrived[0].ack, 1,
            "the abandoned query is acknowledged as settled"
        );
    }

    #[test]
    fn cumulative_ack_stops_below_parked_effects() {
        let (mut transport, arrivals) = scripted(&[true, false, false, false, true, true, true]);
        let mut session = SessionState::new(fast_config());
        session
            .request(&mut transport, tick(1, 100))
            .expect("delivered");
        assert!(session.request(&mut transport, tick(2, 200)).is_err());
        session
            .request(&mut transport, tick(3, 300))
            .expect("healed");
        let arrived = arrivals.lock().unwrap();
        // Arrival order: tick 1, the path probe, tick 2's replay,
        // tick 3. Nothing before the replay may ack past seq 1.
        assert_eq!(arrived[1].kind, MessageKind::Heartbeat);
        assert_eq!(arrived[1].ack, 1, "the probe holds the watermark");
        assert_eq!(arrived[2].seq, 2);
        assert_eq!(arrived[2].ack, 1, "parked seq 2 holds the watermark");
        assert_eq!(arrived[3].seq, 3);
        assert_eq!(arrived[3].ack, 2, "after the replay the ack advances");
    }

    #[test]
    fn breaker_opens_fails_fast_and_probes_half_open() {
        // Every exchange fails: 3 requests x 3 attempts trip the
        // breaker (threshold 3 consecutive failed requests).
        let (mut transport, arrivals) = scripted(&[false; 64]);
        let mut session = SessionState::new(fast_config());
        for seq in 1..=3 {
            assert!(session.request(&mut transport, tick(seq, 100)).is_err());
        }
        assert_eq!(session.stats().breaker_trips, 1);
        let wire_attempts = arrivals.lock().unwrap().len();
        drop(arrivals);
        // Inside the cooldown: fail fast, nothing touches the wire.
        let err = session
            .request(&mut transport, tick(4, 500))
            .expect_err("open breaker");
        assert!(err.to_string().contains("circuit breaker open"), "{err}");
        assert_eq!(session.stats().fast_fails, 1);
        assert_eq!(
            transport.arrivals.lock().unwrap().len(),
            wire_attempts,
            "no wire traffic while open"
        );
        // Past the cooldown: half-open; the path probe fails (the
        // scripted transport is still down), so the breaker re-opens
        // after risking one heartbeat instead of an effect.
        assert!(session.request(&mut transport, tick(5, 1_200)).is_err());
        assert_eq!(session.stats().breaker_trips, 2);
    }

    #[test]
    fn healed_probe_closes_the_breaker_and_replays_everything() {
        // Each of requests 1-3 burns a full 3-attempt retry budget
        // (request 1 inline, 2 and 3 on their path probes): 9 failures
        // in all, tripping the threshold-3 breaker; everything after
        // the cooldown succeeds.
        let (mut transport, arrivals) = scripted(&[false; 9]);
        let mut session = SessionState::new(fast_config());
        for seq in 1..=3 {
            assert!(session.request(&mut transport, tick(seq, 100)).is_err());
        }
        // Past cooldown, the transport has healed: the probe crosses,
        // ticks 1-3 replay in order, then tick 4 delivers.
        session
            .request(&mut transport, tick(4, 1_200))
            .expect("healed probe");
        assert_eq!(effect_seqs(&arrivals), vec![1, 2, 3, 4]);
        let stats = session.stats();
        assert_eq!(stats.replays, 3);
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(
            stats.replay_lateness.max(),
            1_100,
            "oldest tick landed 1,100 sim-ms late"
        );
    }

    #[test]
    fn resend_queue_is_bounded_and_evicts_the_oldest() {
        let (mut transport, _arrivals) = scripted(&[false; 64]);
        let mut session = SessionState::new(SessionConfig {
            resend_queue: 2,
            ..fast_config()
        });
        for seq in 1..=4 {
            let _ = session.request(&mut transport, tick(seq, 100));
        }
        let stats = session.stats();
        assert_eq!(stats.replay_evictions, 2, "queue held at 2 of 4 effects");
    }

    #[test]
    fn probe_unsticks_replays_parked_inside_a_partition_window() {
        use crate::transport::{
            ChaosConfig, ChaosTransport, Direction, SimTransport, TransportConfig,
        };
        // The end-to-end shape of a partition outage: ticks parked
        // while the window is open keep their in-window stamps, and
        // only the probe (stamped with current time) advancing the
        // chaos link clock lets them replay once the window closes.
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&arrivals);
        let mut sim = SimTransport::new(TransportConfig::default());
        sim.connect_handler(Box::new(move |env: &Envelope| {
            sink.lock().expect("arrivals lock").push(env.clone());
            Some(env.reply_ok())
        }));
        let mut chaos = ChaosTransport::new(
            sim,
            ChaosConfig {
                seed: 7,
                ..ChaosConfig::default()
            }
            .window(1_000, 2_000, Direction::Both),
        );
        let mut session = SessionState::new(fast_config());
        session
            .request(&mut chaos, tick(1, 500))
            .expect("pre-window");
        assert!(session.request(&mut chaos, tick(2, 1_200)).is_err());
        assert!(session.request(&mut chaos, tick(3, 1_800)).is_err());
        // Window over: the probe at 2_500 moves the link clock out of
        // the window, then ticks 2 and 3 replay with their original
        // stamps, then tick 4 goes through.
        session.request(&mut chaos, tick(4, 2_500)).expect("healed");
        assert_eq!(effect_seqs(&arrivals), vec![1, 2, 3, 4]);
        let stamps: Vec<u64> = arrivals
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.kind != MessageKind::Heartbeat)
            .map(|e| e.now)
            .collect();
        assert_eq!(
            stamps,
            vec![500, 1_200, 1_800, 2_500],
            "replays keep their original stamps"
        );
        let stats = session.stats();
        assert_eq!(stats.replays, 2);
        assert!(chaos.stats_handle().get().partition_drops > 0);
    }

    #[test]
    fn remote_error_counts_as_a_healthy_link() {
        struct RemoteFail;
        impl Transport for RemoteFail {
            fn backend(&self) -> &'static str {
                "remote-fail"
            }
            fn peer(&self) -> &str {
                "peer"
            }
            fn exchange(&mut self, _: &Envelope) -> Result<Envelope, TransportError> {
                Err(TransportError::Remote("driver fault".into()))
            }
            fn stats(&self) -> TransportStats {
                TransportStats::default()
            }
        }
        let mut session = SessionState::new(fast_config());
        for seq in 1..=10 {
            let err = session
                .request(&mut RemoteFail, tick(seq, 100))
                .expect_err("remote error");
            assert!(matches!(err, TransportError::Remote(_)));
        }
        let stats = session.stats();
        assert_eq!(stats.breaker_trips, 0, "the peer answered every time");
        assert_eq!(stats.resends, 0, "remote errors are not retried");
    }
}
