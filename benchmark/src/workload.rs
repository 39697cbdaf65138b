//! What a workload is, and the one run shape all four share:
//! inputs → set-up (several times) → warm-up → timed slices of fixed
//! work → oracle.

use crate::alloc;
use crate::stats::{Slice, Tail};
use crate::tracer::{self, Recording};
use std::time::{Duration, Instant};

/// Full size, or the toy size the `--smoke` pass and the unit tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the README states.
    Full,
    /// Small enough for a debug build in a second.
    Toy,
}

/// What a workload reports when it ends.
#[derive(Debug, Default)]
pub struct Finish {
    /// Requests issued in the measured phase.
    pub attempted: u64,
    /// Operations that failed: contained component errors, device and
    /// transport errors.
    pub failed: u64,
    /// Oracle mismatches, one line each. Empty when the output is right.
    pub mismatches: Vec<String>,
    /// Wall time the engine's own activity recorder attributed to
    /// component logic in the measured phase (traced parking runs, where
    /// the components are the application's and cannot be wrapped).
    pub obs_processing_ns: u64,
    /// Conditions of the run worth a line in the human table.
    pub notes: Vec<String>,
    /// What the edge thread recorded (traced `parking_edge` only).
    pub edge: Option<Recording>,
}

/// One of the four workloads.
pub trait Workload: Sized {
    /// Its permanent name.
    const NAME: &'static str;
    /// What throughput counts, for the human table.
    const ITEMS: &'static str;
    /// The tail its slices support.
    const TAIL: Tail;
    /// Slices every run measures, however short. Peak heap is taken over
    /// exactly these, so that it does not depend on how far a fast
    /// machine gets in `--seconds` (the recording test devices keep a log
    /// that grows with simulated time).
    const FIXED_SLICES: usize;
    /// Everything generated from `--seed`.
    type Inputs;

    /// Generates the inputs. Not part of set-up time.
    fn inputs(seed: u64, scale: Scale) -> Self::Inputs;
    /// Most requests one slice issues (sizes the sample buffer).
    fn requests_per_slice(inputs: &Self::Inputs) -> usize;
    /// Everything a user does before the first request: compile the
    /// design, bind, launch, connect. In a `traced` run the calling
    /// thread is already recording spans; a workload does what else a
    /// traced run needs (its own threads, the engine's activity recorder).
    fn set_up(inputs: &Self::Inputs, traced: bool) -> Self;
    /// Un-measured requests that fill caches and windows.
    fn warm_up(&mut self, inputs: &Self::Inputs);
    /// Called once between warm-up and the first slice, after the calling
    /// thread's recorder has been reset.
    fn begin_measured(&mut self) {}
    /// Runs one slice of fixed work, pushing each request's time onto
    /// `request_ns`; returns the items completed.
    fn slice(&mut self, inputs: &Self::Inputs, request_ns: &mut Vec<u64>) -> u64;
    /// Checks the outputs against the oracle and tears down.
    fn finish(self, inputs: &Self::Inputs) -> Finish;
}

/// The measurements of one run of one workload.
#[derive(Debug)]
pub struct Run {
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// The measured slices.
    pub slices: Vec<Slice>,
    /// Peak live heap over the first [`Workload::FIXED_SLICES`] slices,
    /// without the benchmark's own inputs and sample buffer.
    pub peak_bytes: usize,
    /// Allocation calls and bytes per item over one extra slice before
    /// the timed ones, when asked for.
    pub allocs_per_item: Option<(f64, f64)>,
    /// Counts and oracle result.
    pub finish: Finish,
    /// What the requesting thread recorded in the measured phase of a
    /// traced run.
    pub recording: Option<Recording>,
}

/// How long and how to run.
pub struct Plan {
    /// Seed of the inputs.
    pub seed: u64,
    /// Full or toy.
    pub scale: Scale,
    /// Times to set up (the last instance is the one measured).
    pub set_ups: usize,
    /// Slices run until this much measured time has passed (and at
    /// least [`Workload::FIXED_SLICES`]).
    pub measure: Duration,
    /// Record spans (see [`crate::tracer`]).
    pub traced: bool,
    /// Run one more slice, un-timed, with allocation calls counted.
    pub count_allocs: bool,
}

/// Runs workload `W` to `plan`.
pub fn run<W: Workload>(plan: &Plan) -> Run {
    let live_before = alloc::live();
    let inputs = W::inputs(plan.seed, plan.scale);
    let mut request_ns: Vec<u64> = Vec::with_capacity(W::requests_per_slice(&inputs));
    let mut slices: Vec<Slice> = Vec::with_capacity(4096);
    let own_bytes = alloc::live().saturating_sub(live_before);

    if plan.traced {
        tracer::start();
    }
    let mut setup_s = Vec::with_capacity(plan.set_ups);
    let mut workload = None;
    for _ in 0..plan.set_ups.max(1) {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(W::set_up(&inputs, plan.traced));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");

    workload.warm_up(&inputs);
    if plan.traced {
        tracer::start();
    }
    workload.begin_measured();
    // Counted before the timed slices, so that it is the same slice of
    // simulated time in every run and the count repeats exactly.
    let allocs_per_item = plan.count_allocs.then(|| {
        let (items, calls, bytes) = alloc::count_calls(|| workload.slice(&inputs, &mut request_ns));
        (calls as f64 / items as f64, bytes as f64 / items as f64)
    });
    alloc::reset_peak();

    let mut peak_bytes = 0;
    let measuring = Instant::now();
    while slices.len() < W::FIXED_SLICES || measuring.elapsed() < plan.measure {
        request_ns.clear();
        let started = Instant::now();
        let items = workload.slice(&inputs, &mut request_ns);
        let wall_ns = started.elapsed().as_nanos() as u64;
        slices.push(Slice::new(items, wall_ns, &mut request_ns, W::TAIL));
        if slices.len() == W::FIXED_SLICES {
            peak_bytes = alloc::peak().saturating_sub(own_bytes);
        }
    }
    let recording = tracer::stop();

    Run {
        setup_s,
        slices,
        peak_bytes,
        allocs_per_item,
        finish: workload.finish(&inputs),
        recording,
    }
}
