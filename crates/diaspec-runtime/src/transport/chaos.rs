//! Deterministic chaos middleware over any transport backend.
//!
//! [`ChaosTransport`] wraps another [`Transport`](super::Transport) (the in-process
//! simulator or the TCP socket backend — it does not care which) and
//! injects envelope-level faults on the way through: message drops in
//! either direction, held-back (reordered) and delayed deliveries,
//! duplicated requests, corrupted frames, and directional partition
//! windows. The point is to exercise the *real* wire path — session
//! resends, receiver-side dedup, circuit breakers, lease recovery —
//! under faults, where the engine-side
//! [`FaultInjector`](crate::fault::FaultInjector) only ever faults the
//! simulated delivery layer.
//!
//! # Determinism contract
//!
//! Every fate is a [`fate`] draw — the one sampler the MapReduce
//! task-fault plan and the engine's message injector also draw from —
//! keyed on `(peer hash, seq, attempt)` with the fault class
//! as its stream: no RNG, no global state, no dependence on wall-clock
//! time or thread interleaving. Two runs with the same seed and the same
//! request sequence inject exactly the same faults; a resend of the same
//! sequence number is a new `attempt` and samples a fresh fate, so
//! retries can succeed and a seeded run recovers identically every time
//! (docs/FAULTS.md "Determinism"). Partition windows are
//! keyed on the **link clock** — the high-water mark of every sim-time
//! stamp (`Envelope::now`) that has entered the transport — so they
//! hold for the same simulated interval regardless of how often the
//! sender retries, and a *retransmission* of an envelope stamped inside
//! the window is judged by the link's current time, not the stale
//! stamp: real partitions cut whatever is in flight now, they do not
//! chase old packets. (The link clock is derived purely from stamps, so
//! it is as deterministic as the stamps themselves.)
//!
//! # Fault semantics in a request/reply world
//!
//! The transport is synchronous — one request, one reply — so each
//! fault maps onto that shape:
//!
//! - **drop (to peer)**: the request never reaches the peer; the caller
//!   sees [`TransportError::Dropped`].
//! - **drop (from peer)**: the request *executes* on the peer but the
//!   reply is lost — the caller sees the same `Dropped`, and only
//!   receiver-side dedup makes the eventual resend idempotent.
//! - **delay**: the envelope is held and delivered (late, reply
//!   discarded) once sim time reaches `now + delay_ms`; the caller
//!   times out with `Dropped` now.
//! - **reorder**: the envelope is held and delivered right *after* the
//!   next envelope that goes through, so the peer observes out-of-order
//!   sequence numbers.
//! - **corrupt-frame**: the encoded frame has one deterministic byte
//!   flipped. If the flip breaks the frame structurally the caller sees
//!   the precise [`TransportError::Frame`] error; if the frame still
//!   parses, the modeled link-layer checksum catches it and the frame
//!   is dropped ([`TransportError::Dropped`]) — silent corruption is
//!   never delivered, mirroring what TCP's checksum does on a real
//!   link.
//! - **partition window**: every envelope sent while the link clock is
//!   inside `[from_ms, until_ms)` is dropped in the window's
//!   direction(s), whatever its own stamp says.

use super::wire::{Envelope, TransportError};
use super::TransportStats;
use crate::clock::SimTime;
use crate::fault::{check_probabilities, fate, fate_bits};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Which way a partition window cuts the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Requests are lost on the way to the peer (the peer never sees
    /// them).
    ToPeer,
    /// Requests arrive and execute, but replies are lost on the way
    /// back.
    FromPeer,
    /// Both directions are cut.
    Both,
}

/// One directional partition window over the link, in sim time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First sim millisecond of the outage (inclusive).
    pub from_ms: SimTime,
    /// End of the outage (exclusive).
    pub until_ms: SimTime,
    /// Which direction(s) the window cuts.
    pub direction: Direction,
}

/// The chaos scenario applied to one link: per-message fault
/// probabilities plus partition windows, all seeded.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the fate hash (share it across links for one scenario).
    pub seed: u64,
    /// Probability in `[0, 1]` that a message is dropped (split evenly
    /// between request-loss and reply-loss by a further draw).
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a request is delivered twice.
    pub duplicate_probability: f64,
    /// Probability in `[0, 1]` that a message is held back
    /// [`ChaosConfig::delay_ms`] sim milliseconds before delivery.
    pub delay_probability: f64,
    /// How long delayed messages are held.
    pub delay_ms: SimTime,
    /// Probability in `[0, 1]` that a message is delivered after its
    /// successor (out of order).
    pub reorder_probability: f64,
    /// Probability in `[0, 1]` that a message's frame has one byte
    /// flipped in flight.
    pub corrupt_probability: f64,
    /// Partition windows, keyed on the link clock (the high-water mark
    /// of envelope sim-time stamps seen by this transport).
    pub windows: Vec<PartitionWindow>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            delay_probability: 0.0,
            delay_ms: 0,
            reorder_probability: 0.0,
            corrupt_probability: 0.0,
            windows: Vec::new(),
        }
    }
}

impl ChaosConfig {
    /// Adds a directional partition window over `[from_ms, until_ms)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty window.
    #[must_use]
    pub fn window(mut self, from_ms: SimTime, until_ms: SimTime, direction: Direction) -> Self {
        assert!(from_ms < until_ms, "empty partition window");
        self.windows.push(PartitionWindow {
            from_ms,
            until_ms,
            direction,
        });
        self
    }
}

/// Counters of what the chaos layer actually did to one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Requests lost before reaching the peer.
    pub drops_to_peer: u64,
    /// Requests that executed on the peer but whose reply was lost.
    pub drops_from_peer: u64,
    /// Requests delivered twice.
    pub duplicates: u64,
    /// Envelopes held back by the delay fault.
    pub delays: u64,
    /// Envelopes delivered after their successor.
    pub reorders: u64,
    /// Frames with a byte flipped in flight (whether the flip was
    /// caught structurally or by the modeled checksum).
    pub corruptions: u64,
    /// Envelopes dropped inside a partition window.
    pub partition_drops: u64,
    /// Held envelopes delivered late (the other half of
    /// `delays + reorders`, minus any still held or evicted).
    pub late_deliveries: u64,
    /// Held envelopes evicted because the hold buffer was full — each
    /// one is an effect lost forever.
    pub held_evicted: u64,
}

impl ChaosStats {
    /// Total faults injected by this link's chaos layer.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.drops_to_peer
            + self.drops_from_peer
            + self.duplicates
            + self.delays
            + self.reorders
            + self.corruptions
            + self.partition_drops
    }
}

/// A shared read handle on a [`ChaosTransport`]'s counters, usable
/// after the transport has been boxed into a link.
#[derive(Debug, Clone)]
pub struct ChaosStatsHandle(Arc<Mutex<ChaosStats>>);

impl ChaosStatsHandle {
    /// A snapshot of the counters.
    #[must_use]
    pub fn get(&self) -> ChaosStats {
        *self.0.lock().expect("chaos stats lock poisoned")
    }
}

/// An envelope held back by a delay or reorder fault.
#[derive(Debug)]
struct Held {
    envelope: Envelope,
    /// Sim time at which the envelope is due (`None` = after the next
    /// delivered envelope, i.e. a reorder).
    release_at: Option<SimTime>,
}

/// Most held-back envelopes a link buffers before evicting the oldest.
const HELD_CAP: usize = 1024;
/// Most per-sequence attempt counters kept before pruning the oldest.
const ATTEMPTS_CAP: usize = 8192;

/// Deterministic fault-injecting middleware around any backend.
///
/// See the module docs for the fault vocabulary and the determinism
/// contract. Held-back envelopes (delay/reorder) are delivered to the
/// wrapped backend late with their reply discarded — exactly what a
/// network that re-delivers an old packet does — and the receiver's
/// dedup layer is what keeps effects exactly-once.
pub struct ChaosTransport {
    inner: Box<dyn super::Transport>,
    config: ChaosConfig,
    peer_hash: u64,
    attempts: BTreeMap<u64, u32>,
    held: Vec<Held>,
    /// Link clock: the highest sim-time stamp seen on any envelope.
    /// Partition windows and delay releases key on this, so a
    /// retransmission carrying an old stamp is judged by current link
    /// time (a session probe stamped `now` advances it past a closed
    /// window before parked effects replay).
    clock: SimTime,
    stats: Arc<Mutex<ChaosStats>>,
}

impl ChaosTransport {
    /// Wraps `inner` in the chaos scenario `config`.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(inner: impl super::Transport + 'static, config: ChaosConfig) -> Self {
        if let Err(message) = check_probabilities(&[
            ("chaos drop", config.drop_probability),
            ("chaos duplicate", config.duplicate_probability),
            ("chaos delay", config.delay_probability),
            ("chaos reorder", config.reorder_probability),
            ("chaos corrupt", config.corrupt_probability),
        ]) {
            panic!("{message}");
        }
        let peer_hash = fnv1a(inner.peer());
        ChaosTransport {
            inner: Box::new(inner),
            config,
            peer_hash,
            attempts: BTreeMap::new(),
            held: Vec::new(),
            clock: 0,
            stats: Arc::new(Mutex::new(ChaosStats::default())),
        }
    }

    /// A shared handle on the chaos counters, usable after `self` has
    /// been boxed into a [`Link`](crate::deploy::Link).
    #[must_use]
    pub fn stats_handle(&self) -> ChaosStatsHandle {
        ChaosStatsHandle(Arc::clone(&self.stats))
    }

    /// The `[0, 1)` draw of one fault class for one send of `seq`. Pure:
    /// seed, peer, seq, attempt, class and nothing else.
    fn chance(&self, seq: u64, attempt: u32, class: u64) -> f64 {
        fate(self.config.seed, self.peer_hash, seq, attempt, class)
    }

    /// Bumps and returns the attempt counter for `seq` (1-based).
    fn next_attempt(&mut self, seq: u64) -> u32 {
        if self.attempts.len() >= ATTEMPTS_CAP && !self.attempts.contains_key(&seq) {
            self.attempts.pop_first();
        }
        let attempt = self.attempts.entry(seq).or_insert(0);
        *attempt += 1;
        *attempt
    }

    /// The direction of the partition window covering the link clock,
    /// if any.
    fn partitioned(&self) -> Option<Direction> {
        self.config
            .windows
            .iter()
            .find(|w| (w.from_ms..w.until_ms).contains(&self.clock))
            .map(|w| w.direction)
    }

    /// Delivers held envelopes that are due at the link clock (delayed
    /// ones whose release time has passed), discarding their replies.
    fn flush_due(&mut self) {
        let now = self.clock;
        let mut kept = Vec::new();
        for held in std::mem::take(&mut self.held) {
            match held.release_at {
                Some(at) if at <= now => {
                    let _ = self.inner.exchange(&held.envelope);
                    self.stats
                        .lock()
                        .expect("chaos stats lock poisoned")
                        .late_deliveries += 1;
                }
                _ => kept.push(held),
            }
        }
        self.held = kept;
    }

    /// Delivers every reorder-held envelope (they go right after the
    /// envelope just delivered), discarding their replies.
    fn flush_reordered(&mut self) {
        let mut kept = Vec::new();
        for held in std::mem::take(&mut self.held) {
            match held.release_at {
                None => {
                    let _ = self.inner.exchange(&held.envelope);
                    self.stats
                        .lock()
                        .expect("chaos stats lock poisoned")
                        .late_deliveries += 1;
                }
                _ => kept.push(held),
            }
        }
        self.held = kept;
    }

    /// Holds `envelope` back, evicting the oldest held envelope if the
    /// buffer is full.
    fn hold(&mut self, envelope: &Envelope, release_at: Option<SimTime>) {
        if self.held.len() >= HELD_CAP {
            self.held.remove(0);
            self.stats
                .lock()
                .expect("chaos stats lock poisoned")
                .held_evicted += 1;
        }
        self.held.push(Held {
            envelope: envelope.clone(),
            release_at,
        });
    }

    /// The outcome of a corrupted frame: flip one deterministic byte of
    /// the encoding and see whether the receiver would catch it
    /// structurally (precise frame error) or the link checksum would
    /// (drop). Either way the frame is never delivered.
    fn corrupt_outcome(&self, envelope: &Envelope, attempt: u32) -> TransportError {
        let Ok(mut frame) = envelope.encode_frame() else {
            return TransportError::Dropped;
        };
        let h = fate_bits(
            self.config.seed,
            self.peer_hash,
            envelope.seq,
            attempt,
            CLASS_BYTE,
        );
        let index = usize::try_from(h % frame.len() as u64).expect("index < frame length");
        frame[index] ^= 1u8 << ((h >> 32) & 7);
        match Envelope::decode_frame(&frame) {
            Err(e) => TransportError::Frame(e),
            Ok(_) => TransportError::Dropped,
        }
    }

    fn count(&self, bump: impl FnOnce(&mut ChaosStats)) {
        bump(&mut self.stats.lock().expect("chaos stats lock poisoned"));
    }
}

/// The fault classes, as `fate` streams. `fate` weighs `index` (here the
/// sequence number) and `stream` alike, so the classes sit 2^32 apart:
/// no two (seq, class) pairs of one link share a draw before a session
/// has sent four billion envelopes.
const CLASS_CORRUPT: u64 = 1 << 32;
const CLASS_DROP: u64 = 2 << 32;
const CLASS_DIRECTION: u64 = 3 << 32;
const CLASS_REORDER: u64 = 4 << 32;
const CLASS_DELAY: u64 = 5 << 32;
const CLASS_DUP: u64 = 6 << 32;
const CLASS_BYTE: u64 = 7 << 32;

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for byte in s.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl super::Transport for ChaosTransport {
    fn backend(&self) -> &'static str {
        "chaos"
    }

    fn peer(&self) -> &str {
        self.inner.peer()
    }

    fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope, TransportError> {
        self.clock = self.clock.max(envelope.now);
        self.flush_due();
        let attempt = self.next_attempt(envelope.seq);

        if let Some(direction) = self.partitioned() {
            self.count(|s| s.partition_drops += 1);
            if direction == Direction::FromPeer {
                // The request crosses and executes; only the reply is
                // lost — the dedup layer must absorb the resend.
                let _ = self.inner.exchange(envelope);
            }
            return Err(TransportError::Dropped);
        }

        if self.chance(envelope.seq, attempt, CLASS_CORRUPT) < self.config.corrupt_probability {
            self.count(|s| s.corruptions += 1);
            return Err(self.corrupt_outcome(envelope, attempt));
        }

        if self.chance(envelope.seq, attempt, CLASS_DROP) < self.config.drop_probability {
            if self.chance(envelope.seq, attempt, CLASS_DIRECTION) < 0.5 {
                self.count(|s| s.drops_to_peer += 1);
            } else {
                let _ = self.inner.exchange(envelope);
                self.count(|s| s.drops_from_peer += 1);
            }
            return Err(TransportError::Dropped);
        }

        if self.chance(envelope.seq, attempt, CLASS_REORDER) < self.config.reorder_probability {
            self.hold(envelope, None);
            self.count(|s| s.reorders += 1);
            return Err(TransportError::Dropped);
        }

        if self.chance(envelope.seq, attempt, CLASS_DELAY) < self.config.delay_probability {
            self.hold(envelope, Some(envelope.now + self.config.delay_ms));
            self.count(|s| s.delays += 1);
            return Err(TransportError::Dropped);
        }

        if self.chance(envelope.seq, attempt, CLASS_DUP) < self.config.duplicate_probability {
            self.count(|s| s.duplicates += 1);
            let _ = self.inner.exchange(envelope);
        }

        let reply = self.inner.exchange(envelope)?;
        self.flush_reordered();
        Ok(reply)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SimTransport, Transport, TransportConfig};
    use super::*;
    use crate::spans::SpanCtx;

    /// A sim-backed echo peer that records the order sequence numbers
    /// arrive in.
    fn echo_peer(arrivals: Arc<Mutex<Vec<u64>>>) -> SimTransport {
        let mut sim = SimTransport::new(TransportConfig::default());
        sim.connect_handler(Box::new(move |env: &Envelope| {
            arrivals.lock().expect("arrivals lock").push(env.seq);
            Some(env.reply_ok())
        }));
        sim
    }

    fn query(seq: u64, now: u64) -> Envelope {
        Envelope::query(SpanCtx::NONE, seq, "device", "source", now)
    }

    #[test]
    fn fault_free_config_is_transparent() {
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let mut chaos = ChaosTransport::new(
            echo_peer(Arc::clone(&arrivals)),
            ChaosConfig {
                seed: 42,
                ..ChaosConfig::default()
            },
        );
        for seq in 1..=50 {
            let reply = chaos.exchange(&query(seq, seq * 1000)).expect("delivered");
            assert_eq!(reply.seq, seq);
        }
        assert_eq!(arrivals.lock().unwrap().len(), 50);
        assert_eq!(chaos.stats_handle().get(), ChaosStats::default());
        assert_eq!(chaos.backend(), "chaos");
        assert_eq!(chaos.peer(), "local", "peer label passes through");
    }

    #[test]
    fn same_seed_same_fates_attempts_resample() {
        let run = |seed: u64| -> (Vec<bool>, ChaosStats) {
            let arrivals = Arc::new(Mutex::new(Vec::new()));
            let mut chaos = ChaosTransport::new(
                echo_peer(arrivals),
                ChaosConfig {
                    seed,
                    drop_probability: 0.3,
                    duplicate_probability: 0.2,
                    ..ChaosConfig::default()
                },
            );
            let outcomes = (1..=200)
                .map(|seq| chaos.exchange(&query(seq, seq)).is_ok())
                .collect();
            (outcomes, chaos.stats_handle().get())
        };
        let (a, stats_a) = run(7);
        let (b, stats_b) = run(7);
        assert_eq!(a, b, "same seed, same fates");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.injected() > 0);
        let (c, _) = run(8);
        assert_ne!(a, c, "different seed, different fates");
    }

    #[test]
    fn resends_sample_fresh_fates_and_eventually_deliver() {
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let mut chaos = ChaosTransport::new(
            echo_peer(Arc::clone(&arrivals)),
            ChaosConfig {
                seed: 1,
                drop_probability: 0.5,
                ..ChaosConfig::default()
            },
        );
        // The same sequence number retried: each attempt hashes
        // differently, so a bounded number of resends always gets
        // through at p = 0.5.
        let mut delivered = false;
        for _ in 0..64 {
            if chaos.exchange(&query(9, 1000)).is_ok() {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "retries must be able to succeed");
    }

    #[test]
    fn reply_loss_executes_on_the_peer() {
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let mut chaos = ChaosTransport::new(
            echo_peer(Arc::clone(&arrivals)),
            ChaosConfig {
                seed: 3,
                drop_probability: 1.0,
                ..ChaosConfig::default()
            },
        );
        for seq in 1..=100 {
            assert_eq!(
                chaos.exchange(&query(seq, seq)).expect_err("all dropped"),
                TransportError::Dropped
            );
        }
        let stats = chaos.stats_handle().get();
        assert_eq!(stats.drops_to_peer + stats.drops_from_peer, 100);
        assert!(stats.drops_from_peer > 0, "some drops lose only the reply");
        assert_eq!(
            arrivals.lock().unwrap().len() as u64,
            stats.drops_from_peer,
            "reply-loss drops still executed on the peer"
        );
    }

    #[test]
    fn duplicates_deliver_twice() {
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let mut chaos = ChaosTransport::new(
            echo_peer(Arc::clone(&arrivals)),
            ChaosConfig {
                seed: 5,
                duplicate_probability: 1.0,
                ..ChaosConfig::default()
            },
        );
        chaos.exchange(&query(1, 10)).expect("delivered");
        assert_eq!(*arrivals.lock().unwrap(), vec![1, 1]);
        assert_eq!(chaos.stats_handle().get().duplicates, 1);
    }

    #[test]
    fn reordered_envelope_arrives_after_its_successor() {
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let mut chaos = ChaosTransport::new(
            echo_peer(Arc::clone(&arrivals)),
            ChaosConfig {
                seed: 11,
                reorder_probability: 1.0,
                ..ChaosConfig::default()
            },
        );
        // seq 1 is held (caller sees a drop)...
        assert!(chaos.exchange(&query(1, 10)).is_err());
        // ...then a fault-free successor goes through and flushes it.
        chaos.config.reorder_probability = 0.0;
        chaos.exchange(&query(2, 20)).expect("delivered");
        assert_eq!(*arrivals.lock().unwrap(), vec![2, 1], "out of order");
        let stats = chaos.stats_handle().get();
        assert_eq!((stats.reorders, stats.late_deliveries), (1, 1));
    }

    #[test]
    fn delayed_envelope_arrives_once_sim_time_passes() {
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let mut chaos = ChaosTransport::new(
            echo_peer(Arc::clone(&arrivals)),
            ChaosConfig {
                seed: 13,
                delay_probability: 1.0,
                delay_ms: 500,
                ..ChaosConfig::default()
            },
        );
        assert!(chaos.exchange(&query(1, 100)).is_err());
        chaos.config.delay_probability = 0.0;
        // Not due yet at 300...
        chaos.exchange(&query(2, 300)).expect("delivered");
        assert_eq!(*arrivals.lock().unwrap(), vec![2]);
        // ...due at 700.
        chaos.exchange(&query(3, 700)).expect("delivered");
        assert_eq!(*arrivals.lock().unwrap(), vec![2, 1, 3]);
    }

    #[test]
    fn partition_window_cuts_by_direction_and_sim_time() {
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let mut chaos = ChaosTransport::new(
            echo_peer(Arc::clone(&arrivals)),
            ChaosConfig {
                seed: 17,
                ..ChaosConfig::default()
            }
            .window(1_000, 2_000, Direction::ToPeer)
            .window(5_000, 6_000, Direction::FromPeer),
        );
        chaos.exchange(&query(1, 500)).expect("before the window");
        assert!(chaos.exchange(&query(2, 1_500)).is_err(), "inside, cut");
        chaos
            .exchange(&query(3, 2_000))
            .expect("window end exclusive");
        // FromPeer: executes, reply lost.
        assert!(chaos.exchange(&query(4, 5_500)).is_err());
        chaos.exchange(&query(5, 6_500)).expect("healed");
        assert_eq!(*arrivals.lock().unwrap(), vec![1, 3, 4, 5]);
        assert_eq!(chaos.stats_handle().get().partition_drops, 2);
    }

    #[test]
    fn retransmits_with_old_stamps_are_judged_by_the_link_clock() {
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let mut chaos = ChaosTransport::new(
            echo_peer(Arc::clone(&arrivals)),
            ChaosConfig {
                seed: 19,
                ..ChaosConfig::default()
            }
            .window(1_000, 2_000, Direction::Both),
        );
        // Stamped inside the window: cut.
        assert!(chaos.exchange(&query(1, 1_500)).is_err());
        // A newer envelope advances the link clock past the window...
        chaos.exchange(&query(2, 2_500)).expect("window over");
        // ...so the retransmission of seq 1 — still carrying its
        // original in-window stamp — now crosses: the partition is a
        // property of the link's present, not of the packet's past.
        chaos
            .exchange(&query(1, 1_500))
            .expect("retransmit crosses");
        assert_eq!(*arrivals.lock().unwrap(), vec![2, 1]);
        assert_eq!(chaos.stats_handle().get().partition_drops, 1);
    }

    /// The three fault planes draw from one function: each plane's
    /// decision, recomputed from [`fate`] on that plane's coordinates.
    #[test]
    fn task_engine_and_chaos_planes_share_one_sampler() {
        use crate::fault::{FaultInjector, FaultPlan, MessageFate, TaskFaultPlan, TaskPhase};
        let (seed, p) = (31, 0.4);

        let tasks = TaskFaultPlan::seeded(seed).panic_tasks(p);
        let mut engine = FaultInjector::new(FaultPlan::seeded(seed).drop_messages(p));
        let mut chaos = ChaosTransport::new(
            echo_peer(Arc::new(Mutex::new(Vec::new()))),
            ChaosConfig {
                seed,
                drop_probability: p,
                ..ChaosConfig::default()
            },
        );
        let peer = fnv1a("local");
        for i in 1..=200u64 {
            assert_eq!(
                tasks.fate(TaskPhase::Reduce, i as usize, 2).is_some(),
                fate(seed, 0x5245_4455, i, 2, 1) < p,
                "task plane: (phase tag, task, attempt), stream 1 = panic"
            );
            assert_eq!(
                engine.message_fate() == MessageFate::Drop,
                fate(seed, 0, 0, 0, i) < p,
                "engine plane: the draw ordinal"
            );
            assert_eq!(
                chaos.chance(i, 1, CLASS_DROP),
                fate(seed, peer, i, 1, CLASS_DROP)
            );
            assert_eq!(
                chaos.exchange(&query(i, i)).is_err(),
                fate(seed, peer, i, 1, CLASS_DROP) < p,
                "chaos plane: (peer hash, seq, attempt), stream = fault class"
            );
        }
    }

    #[test]
    fn corruption_is_always_an_error_never_a_delivery() {
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let mut chaos = ChaosTransport::new(
            echo_peer(Arc::clone(&arrivals)),
            ChaosConfig {
                seed: 23,
                corrupt_probability: 1.0,
                ..ChaosConfig::default()
            },
        );
        let mut frame_errors = 0;
        let mut checksum_drops = 0;
        for seq in 1..=200 {
            match chaos.exchange(&query(seq, seq)).expect_err("corrupted") {
                TransportError::Frame(_) => frame_errors += 1,
                TransportError::Dropped => checksum_drops += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(arrivals.lock().unwrap().is_empty(), "nothing delivered");
        assert!(frame_errors > 0, "some flips break the frame structure");
        assert!(checksum_drops > 0, "some flips are caught by the checksum");
        assert_eq!(chaos.stats_handle().get().corruptions, 200);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_probability_rejected() {
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let _ = ChaosTransport::new(
            echo_peer(arrivals),
            ChaosConfig {
                drop_probability: 1.5,
                ..ChaosConfig::default()
            },
        );
    }
}
