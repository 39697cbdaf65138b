//! # diaspec-runtime — orchestration runtime for DiaSpec designs
//!
//! The execution substrate of this repository's reproduction of
//! **"Internet of Things: From Small- to Large-Scale Orchestration"**
//! (Consel & Kabáč, ICDCS 2017). Where `diaspec-core` checks a design and
//! `diaspec-codegen` generates a typed programming framework for it, this
//! crate *runs* it: a deterministic discrete-event engine implementing the
//! paper's four IoT activities —
//!
//! 1. **binding entities** ([`registry`]) with attribute-based discovery
//!    and the four binding times;
//! 2. **delivering data** in all three models — event-driven, periodic,
//!    query-driven ([`engine`]);
//! 3. **processing data** — `grouped by` partitioning, aggregation
//!    windows, and MapReduce on the `diaspec-mapreduce` substrate;
//! 4. **actuating entities** through contract-checked discover facades.
//!
//! Application logic plugs in through the [`component`] traits (inversion
//! of control, as in the paper's generated frameworks), and simulated
//! environments drive the world through [`process`] actors. Message
//! movement is abstracted behind the [`transport::Transport`] trait: the
//! simulated latency/loss backend stands in for the paper's operator
//! networks in-process (see `DESIGN.md`, *Substitutions*), and a
//! length-prefixed TCP backend plus the [`deploy`] layer run one design
//! as several processes. The [`fault`] subsystem injects
//! seeded device crashes, message drops/delays/duplicates, and link
//! partitions, and configures the recovery machinery (leases, delivery
//! retry, declared fallbacks) that masks them (§VI error handling).
//!
//! Everything is deterministic given a seed: experiments are reproducible
//! event-for-event.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod component;
pub mod deploy;
pub mod engine;
pub mod entity;
pub mod error;
pub mod fault;
pub mod metrics;
mod names;
pub mod obs;
pub mod payload;
pub mod process;
pub mod registry;
pub mod spans;
pub mod trace;
pub mod transport;
pub mod value;

pub use deploy::{
    BreakerConfig, RestartPolicy, SessionConfig, SessionStats, Supervisor, SupervisorReport,
};
pub use engine::{Orchestrator, Phase, ProcessingMode};
pub use error::RuntimeError;
pub use fault::{RecoveryConfig, RetryConfig};
pub use obs::{Activity, LatencyHistogram, ObsSnapshot, Observer, TransportSample};
pub use payload::Payload;
pub use spans::{SpanCtx, SpanEvent, SpanStage};
pub use transport::{
    ChaosConfig, ChaosTransport, Envelope, SimTransport, TcpTransport, Transport, TransportStats,
};
pub use value::Value;
