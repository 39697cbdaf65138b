//! The simulated transport backend.
//!
//! One of the two [`Transport`](super::Transport) backends: it models a
//! link as a per-message latency sample plus an independent loss
//! probability, applied wherever data crosses a component boundary —
//! source emissions, context publications, periodic batch deliveries.
//! The engine drives [`SimTransport`] directly for every in-process
//! delivery (the default; goldens and determinism are unchanged by the
//! trait split), and the deployment layer can use the same backend as a
//! loopback link by attaching an in-process peer handler with
//! [`SimTransport::connect_handler`]. For messages that really leave the
//! process, see the socket backend ([`super::TcpTransport`]).

use super::wire::{Envelope, MessageKind, TransportError};
use super::TransportStats;
use crate::clock::SimTime;
use crate::fault::{check_probabilities, FaultInjector, MessageFate};
use crate::obs::LatencyHistogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// An in-process peer for the simulated backend: receives an envelope,
/// returns the reply — or `None` to simulate a peer that died without
/// answering.
pub type SimHandler = Box<dyn FnMut(&Envelope) -> Option<Envelope> + Send>;

/// Latency distribution for one message hop.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LatencyModel {
    /// Ideal transport: messages arrive instantly.
    #[default]
    Zero,
    /// Every message takes exactly this many milliseconds.
    Fixed(SimTime),
    /// Uniformly distributed latency in `[min_ms, max_ms]`.
    Uniform {
        /// Minimum latency (ms).
        min_ms: SimTime,
        /// Maximum latency (ms), inclusive.
        max_ms: SimTime,
    },
}

/// Configuration of the simulated backend ([`SimTransport`]).
///
/// This configures only the simulated backend — the latency/loss model
/// the engine samples for in-process deliveries. The socket backend is
/// configured separately (address plus a
/// [`RetryConfig`](crate::fault::RetryConfig)); real links get their
/// latency from the actual network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportConfig {
    /// Latency applied to each delivered message.
    pub latency: LatencyModel,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub loss_probability: f64,
    /// RNG seed; two simulated backends with equal seeds and configs
    /// behave identically.
    pub seed: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            latency: LatencyModel::Zero,
            loss_probability: 0.0,
            seed: 0,
        }
    }
}

/// The outcome of a [`SimTransport::send_through`]: a send across a link
/// with fault injection layered on top of the simulated model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOutcome {
    /// `Some(latency)` when the primary copy is delivered.
    pub delivery: Option<SimTime>,
    /// `Some(latency)` when a fault duplicated the message and the
    /// duplicate copy also survived the transport.
    pub duplicate: Option<SimTime>,
    /// The message was dropped by an injected fault (as opposed to the
    /// transport's own loss model).
    pub fault_dropped: bool,
    /// Injected extra delay included in `delivery` (0 when none).
    pub extra_delay_ms: SimTime,
}

impl SendOutcome {
    /// Wraps a plain [`SimTransport::send`] result: no injector involved,
    /// so no duplicate, no injected drop, no extra delay.
    #[must_use]
    pub fn without_faults(delivery: Option<SimTime>) -> Self {
        SendOutcome {
            delivery,
            duplicate: None,
            fault_dropped: false,
            extra_delay_ms: 0,
        }
    }
}

/// The simulated transport backend: decides, per message, whether it is
/// delivered and with what delay.
pub struct SimTransport {
    config: TransportConfig,
    rng: StdRng,
    delivered: u64,
    dropped: u64,
    /// Per-hop latency distribution, kept only when observability asks
    /// for it (see [`SimTransport::enable_latency_histogram`]).
    histogram: Option<LatencyHistogram>,
    /// In-process peer for trait-level [`exchange`](super::Transport::exchange)
    /// calls; `None` answers every delivered envelope with a plain `Ok`.
    handler: Option<SimHandler>,
    /// Byte/frame counters for trait-level exchanges.
    link_stats: TransportStats,
}

impl fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimTransport")
            .field("config", &self.config)
            .field("delivered", &self.delivered)
            .field("dropped", &self.dropped)
            .field("handler", &self.handler.as_ref().map(|_| "..."))
            .finish_non_exhaustive()
    }
}

impl SimTransport {
    /// Creates a simulated backend from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `loss_probability` is outside `[0, 1]` or a uniform
    /// latency range is inverted.
    #[must_use]
    pub fn new(config: TransportConfig) -> Self {
        if let Err(message) = check_probabilities(&[("transport loss", config.loss_probability)]) {
            panic!("{message}");
        }
        if let LatencyModel::Uniform { min_ms, max_ms } = config.latency {
            assert!(
                min_ms <= max_ms,
                "inverted latency range {min_ms}..{max_ms}"
            );
        }
        SimTransport {
            config,
            rng: StdRng::seed_from_u64(config.seed),
            delivered: 0,
            dropped: 0,
            histogram: None,
            handler: None,
            link_stats: TransportStats::default(),
        }
    }

    /// Attaches the in-process peer answering trait-level
    /// [`exchange`](super::Transport::exchange) calls. The handler may
    /// return `None` to simulate a peer that died without replying
    /// (surfaced as [`TransportError::Closed`]).
    pub fn connect_handler(&mut self, handler: SimHandler) {
        self.handler = Some(handler);
    }

    /// Starts recording every delivered message's latency into a
    /// histogram (off by default: the common path pays nothing).
    pub fn enable_latency_histogram(&mut self) {
        if self.histogram.is_none() {
            self.histogram = Some(LatencyHistogram::new());
        }
    }

    /// The per-hop latency histogram, if enabled.
    #[must_use]
    pub fn latency_histogram(&self) -> Option<&LatencyHistogram> {
        self.histogram.as_ref()
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> TransportConfig {
        self.config
    }

    /// Samples loss and latency without touching the counters.
    fn sample_delivery(&mut self) -> Option<SimTime> {
        if self.config.loss_probability > 0.0
            && self.rng.gen::<f64>() < self.config.loss_probability
        {
            return None;
        }
        Some(match self.config.latency {
            LatencyModel::Zero => 0,
            LatencyModel::Fixed(ms) => ms,
            LatencyModel::Uniform { min_ms, max_ms } => self.rng.gen_range(min_ms..=max_ms),
        })
    }

    fn record_delivery(&mut self, latency: SimTime) {
        self.delivered += 1;
        if let Some(histogram) = &mut self.histogram {
            histogram.record(latency);
        }
    }

    /// Samples the fate of one message: `Some(latency)` when delivered,
    /// `None` when lost.
    pub fn send(&mut self) -> Option<SimTime> {
        match self.sample_delivery() {
            Some(latency) => {
                self.record_delivery(latency);
                Some(latency)
            }
            None => {
                self.dropped += 1;
                None
            }
        }
    }

    /// Sends one message across a link with fault injection layered on:
    /// the injector decides drop/delay/duplication first (seeded
    /// independently of the transport, so fault-free paths are
    /// unaffected), then the transport's own loss and latency apply.
    /// Injected extra delay is accounted in the latency statistics.
    pub fn send_through(&mut self, faults: &mut FaultInjector) -> SendOutcome {
        match faults.message_fate() {
            MessageFate::Drop => {
                self.dropped += 1;
                SendOutcome {
                    delivery: None,
                    duplicate: None,
                    fault_dropped: true,
                    extra_delay_ms: 0,
                }
            }
            MessageFate::Deliver {
                extra_delay_ms,
                duplicated,
            } => {
                let delivery = match self.sample_delivery() {
                    Some(latency) => {
                        let total = latency.saturating_add(extra_delay_ms);
                        self.record_delivery(total);
                        Some(total)
                    }
                    None => {
                        self.dropped += 1;
                        None
                    }
                };
                // The duplicate copy takes its own independent path.
                let duplicate = if duplicated {
                    self.sample_delivery().inspect(|&latency| {
                        self.record_delivery(latency);
                    })
                } else {
                    None
                };
                SendOutcome {
                    delivery,
                    duplicate,
                    fault_dropped: false,
                    extra_delay_ms: if delivery.is_some() {
                        extra_delay_ms
                    } else {
                        0
                    },
                }
            }
        }
    }

    /// Messages delivered so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages dropped so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Default for SimTransport {
    fn default() -> Self {
        SimTransport::new(TransportConfig::default())
    }
}

impl super::Transport for SimTransport {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn peer(&self) -> &str {
        "local"
    }

    /// Delivers `envelope` to the attached in-process handler after
    /// sampling the simulated fate: a loss-model drop surfaces as
    /// [`TransportError::Dropped`], a delivery is counted (bytes are the
    /// encoded frame sizes, so the sim and socket backends report
    /// comparable statistics) and answered by the handler — or by a
    /// plain `Ok` echo when no handler is attached.
    fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope, TransportError> {
        let frame_len = envelope
            .encode_frame()
            .map_err(TransportError::Frame)?
            .len();
        match self.send() {
            Some(_latency) => {
                self.link_stats.bytes_sent += frame_len as u64;
                self.link_stats.frames_sent += 1;
            }
            None => return Err(TransportError::Dropped),
        }
        let reply = match &mut self.handler {
            Some(handler) => handler(envelope).ok_or(TransportError::Closed)?,
            None => envelope.reply_ok(),
        };
        self.link_stats.bytes_received +=
            reply.encode_frame().map_err(TransportError::Frame)?.len() as u64;
        self.link_stats.frames_received += 1;
        if reply.kind == MessageKind::Error {
            return Err(TransportError::Remote(
                String::from_utf8_lossy(&reply.payload).into_owned(),
            ));
        }
        Ok(reply)
    }

    fn stats(&self) -> TransportStats {
        self.link_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_transport_is_instant_and_lossless() {
        let mut t = SimTransport::default();
        for _ in 0..100 {
            assert_eq!(t.send(), Some(0));
        }
        assert_eq!(t.delivered(), 100);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn fixed_latency_applied() {
        let mut t = SimTransport::new(TransportConfig {
            latency: LatencyModel::Fixed(25),
            ..TransportConfig::default()
        });
        assert_eq!(t.send(), Some(25));
        assert_eq!(t.send(), Some(25));
    }

    #[test]
    fn uniform_latency_within_bounds() {
        let mut t = SimTransport::new(TransportConfig {
            latency: LatencyModel::Uniform {
                min_ms: 10,
                max_ms: 50,
            },
            seed: 42,
            ..TransportConfig::default()
        });
        let mut total = 0;
        for _ in 0..1000 {
            let l = t.send().unwrap();
            assert!((10..=50).contains(&l));
            total += l;
        }
        let mean = total as f64 / 1000.0;
        assert!((25.0..35.0).contains(&mean), "mean {mean} implausible");
    }

    #[test]
    fn loss_probability_drops_roughly_that_fraction() {
        let mut t = SimTransport::new(TransportConfig {
            loss_probability: 0.3,
            seed: 7,
            ..TransportConfig::default()
        });
        for _ in 0..10_000 {
            let _ = t.send();
        }
        let drop_rate = t.dropped() as f64 / 10_000.0;
        assert!((0.27..0.33).contains(&drop_rate), "drop rate {drop_rate}");
    }

    #[test]
    fn same_seed_same_behavior() {
        let config = TransportConfig {
            latency: LatencyModel::Uniform {
                min_ms: 0,
                max_ms: 100,
            },
            loss_probability: 0.1,
            seed: 99,
        };
        let mut a = SimTransport::new(config);
        let mut b = SimTransport::new(config);
        for _ in 0..500 {
            assert_eq!(a.send(), b.send());
        }
    }

    #[test]
    fn latency_histogram_tracks_delivered_messages() {
        let mut t = SimTransport::new(TransportConfig {
            latency: LatencyModel::Uniform {
                min_ms: 10,
                max_ms: 50,
            },
            seed: 11,
            ..TransportConfig::default()
        });
        assert!(t.latency_histogram().is_none(), "off by default");
        t.enable_latency_histogram();
        for _ in 0..200 {
            let _ = t.send();
        }
        let h = t.latency_histogram().expect("enabled");
        assert_eq!(h.count(), t.delivered());
        assert!(h.min() >= 10 && h.max() <= 50);
        assert!(h.quantile(0.5) >= 10);
    }

    #[test]
    fn send_through_layers_faults_over_the_transport() {
        use crate::fault::FaultPlan;
        let mut t = SimTransport::new(TransportConfig {
            latency: LatencyModel::Fixed(10),
            ..TransportConfig::default()
        });
        t.enable_latency_histogram();
        // A guaranteed delay fault adds to the transport latency and is
        // visible in the histogram.
        let mut inj = FaultInjector::new(FaultPlan::seeded(3).delay_messages(1.0, 90));
        let out = t.send_through(&mut inj);
        assert_eq!(out.delivery, Some(100));
        assert_eq!(out.extra_delay_ms, 90);
        assert!(!out.fault_dropped);
        assert_eq!(t.latency_histogram().unwrap().max(), 100);
        // A guaranteed drop fault loses the message without consuming
        // the transport's loss sample.
        let mut inj = FaultInjector::new(FaultPlan::seeded(3).drop_messages(1.0));
        let out = t.send_through(&mut inj);
        assert_eq!(out.delivery, None);
        assert!(out.fault_dropped);
        // A guaranteed duplicate delivers two copies.
        let mut inj = FaultInjector::new(FaultPlan::seeded(3).duplicate_messages(1.0));
        let out = t.send_through(&mut inj);
        assert_eq!(out.delivery, Some(10));
        assert_eq!(out.duplicate, Some(10));
        assert_eq!(t.delivered(), 3);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn send_through_with_empty_plan_equals_plain_send() {
        let config = TransportConfig {
            latency: LatencyModel::Uniform {
                min_ms: 5,
                max_ms: 50,
            },
            loss_probability: 0.2,
            seed: 31,
        };
        let mut plain = SimTransport::new(config);
        let mut faulty = SimTransport::new(config);
        let mut inj = FaultInjector::new(crate::fault::FaultPlan::default());
        for _ in 0..300 {
            let out = faulty.send_through(&mut inj);
            assert_eq!(out.delivery, plain.send());
            assert_eq!(out.duplicate, None);
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_loss_probability_rejected() {
        let _ = SimTransport::new(TransportConfig {
            loss_probability: 1.5,
            ..TransportConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "inverted latency range")]
    fn inverted_latency_range_rejected() {
        let _ = SimTransport::new(TransportConfig {
            latency: LatencyModel::Uniform {
                min_ms: 50,
                max_ms: 10,
            },
            ..TransportConfig::default()
        });
    }
}
